//! The quiet estimator.
//!
//! On a shared 2-core sandbox, contention from other tenants only ever
//! *adds* time to a measurement. So for a fixed input repeated across
//! rounds, the fastest repeat is the best estimate of what the program
//! itself costs, and the metric is the mean (or sum) of those
//! per-input minima. Percentiles and pooled medians move with the
//! neighbours' load; minima of fixed inputs do not.
//!
//! A round's maintenance call and its checkpoint are not fixed inputs
//! — the work differs round to round — so they use the lower quartile
//! over rounds instead.

/// Per-input minima of a repeated measurement. Inputs are numbered
/// from 0 and tracked from their first repeat.
#[derive(Debug, Clone, Default)]
pub struct Minima {
    best: Vec<f64>,
    repeats: Vec<u32>,
}

impl Minima {
    /// Records one repeat of input `i`.
    pub fn record(&mut self, i: usize, value: f64) {
        if i >= self.best.len() {
            self.best.resize(i + 1, f64::INFINITY);
            self.repeats.resize(i + 1, 0);
        }
        if value < self.best[i] {
            self.best[i] = value;
        }
        self.repeats[i] += 1;
    }

    /// The fastest repeat of input `i`; `0.0` when never measured.
    pub fn best(&self, i: usize) -> f64 {
        match self.best.get(i) {
            Some(b) if b.is_finite() => *b,
            _ => 0.0,
        }
    }

    /// Inputs measured at least once.
    fn measured(&self) -> impl Iterator<Item = f64> + '_ {
        self.best.iter().copied().filter(|b| b.is_finite())
    }

    /// Mean over inputs of each input's fastest repeat; `0.0` when
    /// nothing was measured.
    pub fn mean(&self) -> f64 {
        let n = self.measured().count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Sum over inputs of each input's fastest repeat.
    pub fn sum(&self) -> f64 {
        self.measured().sum()
    }

    /// The fewest repeats any measured input received.
    pub fn min_repeats(&self) -> u32 {
        self.repeats
            .iter()
            .copied()
            .filter(|&r| r > 0)
            .min()
            .unwrap_or(0)
    }
}

pub use micronn_bench::percentile;

/// The lower quartile: the estimator for once-a-round calls.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    percentile(xs, 25.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronn_bench::median;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `inputs` fixed inputs with clean costs spread over 1..2 ms, each
    /// repeated `repeats` times; 30 % of repeats are inflated 1.2–3×
    /// and every repeat carries up to 1 % of timer jitter on top.
    fn noisy_run(seed: u64, inputs: usize, repeats: usize) -> (Minima, Vec<f64>, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let clean: Vec<f64> = (0..inputs)
            .map(|i| 1.0 + i as f64 / inputs as f64)
            .collect();
        let mut minima = Minima::default();
        let mut pooled = Vec::new();
        for _ in 0..repeats {
            for (i, &c) in clean.iter().enumerate() {
                let jitter = 1.0 + rng.gen_range(0.0..0.01);
                let inflate = if rng.gen_bool(0.3) {
                    rng.gen_range(1.2..3.0)
                } else {
                    1.0
                };
                let t = c * jitter * inflate;
                minima.record(i, t);
                pooled.push(t);
            }
        }
        let clean_mean = clean.iter().sum::<f64>() / inputs as f64;
        (minima, pooled, clean_mean)
    }

    #[test]
    fn minima_survive_inflated_repeats_where_the_pooled_median_does_not() {
        for seed in 0..8 {
            let (minima, pooled, clean) = noisy_run(seed, 64, 20);
            assert_eq!(minima.min_repeats(), 20);
            let quiet = minima.mean();
            assert!(
                (quiet / clean - 1.0).abs() < 0.02,
                "seed {seed}: quiet {quiet} vs clean {clean}"
            );
            // Inflated repeats push the pooled median up through the
            // inputs' own spread: it lands on a slower input's cost.
            let pooled_median = median(&pooled);
            assert!(
                (pooled_median / clean - 1.0).abs() > 0.02,
                "seed {seed}: pooled median {pooled_median} vs clean {clean}"
            );
        }
    }

    #[test]
    fn sum_and_empty_inputs() {
        let mut m = Minima::default();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.min_repeats(), 0);
        m.record(0, 2.0);
        m.record(0, 1.5);
        m.record(2, 4.0);
        assert_eq!(m.sum(), 5.5);
        assert_eq!(m.mean(), 2.75, "unmeasured inputs are left out");
        assert_eq!(m.min_repeats(), 1);
        assert_eq!((m.best(0), m.best(1), m.best(9)), (1.5, 0.0, 0.0));
    }

    #[test]
    fn lower_quartile_ignores_a_slow_upper_half() {
        // 40 round totals, the slowest 30 % inflated.
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..40)
            .map(|i| {
                let base = 10.0 * (1.0 + rng.gen_range(0.0..0.01));
                if i % 10 < 3 {
                    base * rng.gen_range(1.2..3.0)
                } else {
                    base
                }
            })
            .collect();
        assert!((lower_quartile(&xs) / 10.0 - 1.0).abs() < 0.02);
        assert_eq!(lower_quartile(&[]), 0.0);
    }
}
