//! The harness's own model of the live set, and the per-operation
//! result checks built on it.
//!
//! The model is deliberately independent of the system under test: a
//! flat array of vectors indexed by asset id, a plain scalar distance
//! loop, a full sort. Every answer the database gives is checked
//! against it, and `recall_at_10` is computed against its brute-force
//! top-k — never against the database's own `exact()`.

use micronn::SearchResult;

/// One scripted write.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Insert or replace `id`.
    Upsert {
        id: i64,
        vector: Vec<f32>,
        bucket: i64,
    },
    /// Delete `id` (always live when scripted).
    Delete { id: i64 },
}

impl Op {
    /// The asset this op touches.
    pub fn id(&self) -> i64 {
        match self {
            Op::Upsert { id, .. } | Op::Delete { id } => *id,
        }
    }
}

/// The attribute filter of a hybrid query: `bucket < limit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketBelow(pub i64);

/// Brute-force model of the live set. Asset ids are dense from 0, so
/// storage is a flat array with a liveness flag per id.
#[derive(Debug, Clone)]
pub struct Model {
    dim: usize,
    vectors: Vec<f32>,
    buckets: Vec<i64>,
    live: Vec<bool>,
    live_count: usize,
}

impl Model {
    /// An empty model of `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Model {
        Model {
            dim,
            vectors: Vec::new(),
            buckets: Vec::new(),
            live: Vec::new(),
            live_count: 0,
        }
    }

    /// Applies one write.
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Upsert { id, vector, bucket } => {
                assert_eq!(
                    vector.len(),
                    self.dim,
                    "scripted vector has the model's dim"
                );
                let i = usize::try_from(*id).expect("scripted ids are non-negative");
                if i >= self.live.len() {
                    self.live.resize(i + 1, false);
                    self.buckets.resize(i + 1, 0);
                    self.vectors.resize((i + 1) * self.dim, 0.0);
                }
                self.vectors[i * self.dim..(i + 1) * self.dim].copy_from_slice(vector);
                self.buckets[i] = *bucket;
                if !self.live[i] {
                    self.live[i] = true;
                    self.live_count += 1;
                }
            }
            Op::Delete { id } => {
                if self.is_live(*id) {
                    self.live[*id as usize] = false;
                    self.live_count -= 1;
                }
            }
        }
    }

    /// Rows currently live.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether no row is live.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Whether `id` is live.
    pub fn is_live(&self, id: i64) -> bool {
        usize::try_from(id).is_ok_and(|i| self.live.get(i).copied().unwrap_or(false))
    }

    /// The live vector of `id`.
    pub fn vector(&self, id: i64) -> Option<&[f32]> {
        self.is_live(id).then(|| {
            let i = id as usize;
            &self.vectors[i * self.dim..(i + 1) * self.dim]
        })
    }

    /// The live bucket attribute of `id`.
    pub fn bucket(&self, id: i64) -> Option<i64> {
        self.is_live(id).then(|| self.buckets[id as usize])
    }

    /// Squared L2 distance from `query` to live row `id`.
    pub fn distance(&self, query: &[f32], id: i64) -> Option<f32> {
        self.vector(id).map(|v| l2_sq(query, v))
    }

    /// Exact top-`k` over the live rows passing `filter`, ascending by
    /// (distance, id).
    pub fn topk(&self, query: &[f32], k: usize, filter: Option<BucketBelow>) -> Vec<(i64, f32)> {
        let mut all: Vec<(i64, f32)> = (0..self.live.len())
            .filter(|&i| self.live[i] && filter.map_or(true, |f| self.buckets[i] < f.0))
            .map(|i| {
                (
                    i as i64,
                    l2_sq(query, &self.vectors[i * self.dim..(i + 1) * self.dim]),
                )
            })
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Live rows passing `filter`.
    pub fn count(&self, filter: Option<BucketBelow>) -> usize {
        match filter {
            None => self.live_count,
            Some(f) => (0..self.live.len())
                .filter(|&i| self.live[i] && self.buckets[i] < f.0)
                .count(),
        }
    }
}

/// Plain scalar squared-L2: the oracle shares no kernel with the
/// system under test.
fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Distances computed by different kernels (SIMD lanes, the GEMM norm
/// identity of batch scans) differ from the scalar oracle by rounding.
fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-3 * (1.0 + a.abs().max(b.abs()))
}

/// What a checked result must satisfy beyond the universal rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// An approximate answer: universal rules only.
    Approximate,
    /// A pre-filter plan (or exact scan): must equal the model's exact
    /// filtered top-k.
    Exact,
}

/// The question a checked result answers.
#[derive(Debug, Clone, Copy)]
pub struct Asked<'a> {
    pub query: &'a [f32],
    pub k: usize,
    pub filter: Option<BucketBelow>,
    pub expect: Expect,
}

impl<'a> Asked<'a> {
    /// A plain ANN question.
    pub fn ann(query: &'a [f32], k: usize) -> Asked<'a> {
        Asked {
            query,
            k,
            filter: None,
            expect: Expect::Approximate,
        }
    }
}

/// Attempt / failure accounting over every checked operation.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Checker {
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Operations checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that violated a rule or returned an error.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Human-readable description of the first failure, if any.
    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }

    /// Counts one operation, failed when `outcome` is an error.
    pub fn note(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(format!("{what}: {why}"));
            }
        }
    }

    /// Checks one query result against the model: `min(k, matching)`
    /// results, distances ascending and equal to the model's distance
    /// for that id, ids distinct and live, filter satisfied, and for
    /// [`Expect::Exact`] the same distances as the exact top-k.
    pub fn check_query(
        &mut self,
        what: &str,
        model: &Model,
        asked: &Asked<'_>,
        results: &[SearchResult],
    ) {
        self.note(what, verify_results(model, asked, results));
    }
}

fn verify_results(
    model: &Model,
    asked: &Asked<'_>,
    results: &[SearchResult],
) -> Result<(), String> {
    let Asked {
        query,
        k,
        filter,
        expect,
    } = *asked;
    // Counting matches is a scan of the bucket array; skip it when the
    // filter cannot bind (no filter and more than k rows live).
    let want = if filter.is_none() && model.len() >= k {
        k
    } else {
        k.min(model.count(filter))
    };
    if results.len() != want {
        return Err(format!("{} results, expected {want}", results.len()));
    }
    for (i, r) in results.iter().enumerate() {
        let Some(d) = model.distance(query, r.asset_id) else {
            return Err(format!("id {} is not live", r.asset_id));
        };
        if !close(d, r.distance) {
            return Err(format!(
                "id {} reported at distance {}, model says {d}",
                r.asset_id, r.distance
            ));
        }
        if let Some(f) = filter {
            let b = model.bucket(r.asset_id).expect("live id has a bucket");
            if b >= f.0 {
                return Err(format!(
                    "id {} has bucket {b}, filter < {}",
                    r.asset_id, f.0
                ));
            }
        }
        if i > 0 && results[i - 1].distance > r.distance {
            return Err(format!("distances not ascending at rank {i}"));
        }
        if results[..i].iter().any(|p| p.asset_id == r.asset_id) {
            return Err(format!("id {} returned twice", r.asset_id));
        }
    }
    if expect == Expect::Exact {
        let truth = model.topk(query, k, filter);
        for (rank, (r, t)) in results.iter().zip(&truth).enumerate() {
            // Compare by distance so that ties may order either way.
            if !close(r.distance, t.1) {
                return Err(format!(
                    "rank {rank}: id {} at {}, exact top-k has id {} at {}",
                    r.asset_id, r.distance, t.0, t.1
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> Model {
        let mut m = Model::new(2);
        for i in 0..20i64 {
            m.apply(&Op::Upsert {
                id: i,
                vector: vec![i as f32, 0.0],
                bucket: i % 4,
            });
        }
        m
    }

    fn asked(query: &[f32], k: usize, filter: Option<BucketBelow>, expect: Expect) -> Asked<'_> {
        Asked {
            query,
            k,
            filter,
            expect,
        }
    }

    fn answer(model: &Model, q: &[f32], k: usize, f: Option<BucketBelow>) -> Vec<SearchResult> {
        model
            .topk(q, k, f)
            .into_iter()
            .map(|(asset_id, distance)| SearchResult { asset_id, distance })
            .collect()
    }

    #[test]
    fn model_tracks_upserts_replaces_and_deletes() {
        let mut m = small_model();
        assert_eq!(m.len(), 20);
        m.apply(&Op::Delete { id: 3 });
        m.apply(&Op::Delete { id: 3 });
        assert_eq!(m.len(), 19);
        assert!(!m.is_live(3) && m.vector(3).is_none());
        m.apply(&Op::Upsert {
            id: 5,
            vector: vec![100.0, 0.0],
            bucket: 9,
        });
        assert_eq!(m.len(), 19, "replace keeps the count");
        assert_eq!(m.bucket(5), Some(9));
        let top = m.topk(&[4.2, 0.0], 3, None);
        assert_eq!(
            top.iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![4, 6, 2],
            "3 deleted, 5 moved away"
        );
        assert_eq!(m.count(Some(BucketBelow(1))), 5, "ids 0,4,8,12,16");
        assert!(!m.is_live(-1) && !m.is_live(1000));
    }

    #[test]
    fn correct_answers_pass() {
        let m = small_model();
        let q = [7.3f32, 0.0];
        let mut c = Checker::new();
        c.check_query(
            "ann",
            &m,
            &asked(&q, 5, None, Expect::Approximate),
            &answer(&m, &q, 5, None),
        );
        let f = Some(BucketBelow(2));
        c.check_query(
            "pre",
            &m,
            &asked(&q, 5, f, Expect::Exact),
            &answer(&m, &q, 5, f),
        );
        // A filter matching fewer than k rows returns what matches.
        let f = Some(BucketBelow(1));
        c.check_query(
            "few",
            &m,
            &asked(&q, 10, f, Expect::Exact),
            &answer(&m, &q, 10, f),
        );
        assert_eq!(
            (c.attempted(), c.failed()),
            (3, 0),
            "{:?}",
            c.first_failure()
        );
    }

    /// Each deliberately wrong result is counted as failed, which is
    /// what flips the run's `correct` flag.
    #[test]
    fn wrong_answers_are_counted_as_failed() {
        let m = small_model();
        let q = [7.3f32, 0.0];
        let good = answer(&m, &q, 5, None);
        let mut c = Checker::new();

        let mut dropped = good.clone();
        dropped.remove(2);
        c.check_query(
            "dropped id",
            &m,
            &asked(&q, 5, None, Expect::Approximate),
            &dropped,
        );
        assert_eq!(c.failed(), 1);

        let mut unsorted = good.clone();
        unsorted.swap(0, 4);
        c.check_query(
            "unsorted",
            &m,
            &asked(&q, 5, None, Expect::Approximate),
            &unsorted,
        );
        assert_eq!(c.failed(), 2);

        // Unfiltered answer offered for a filtered query.
        let f = Some(BucketBelow(2));
        c.check_query("filter", &m, &asked(&q, 5, f, Expect::Approximate), &good);
        assert_eq!(c.failed(), 3);

        let mut stale = good.clone();
        stale[1].distance += 5.0;
        c.check_query(
            "stale distance",
            &m,
            &asked(&q, 5, None, Expect::Approximate),
            &stale,
        );
        assert_eq!(c.failed(), 4);

        let mut dead = m.clone();
        dead.apply(&Op::Delete {
            id: good[0].asset_id,
        });
        c.check_query(
            "dead id",
            &dead,
            &asked(&q, 5, None, Expect::Approximate),
            &good,
        );
        assert_eq!(c.failed(), 5);

        let mut twice = good.clone();
        twice[1] = twice[0];
        c.check_query(
            "duplicate",
            &m,
            &asked(&q, 5, None, Expect::Approximate),
            &twice,
        );
        assert_eq!(c.failed(), 6);

        // Valid but not the nearest: fine as ANN, wrong as exact.
        let far = answer(&m, &[15.0, 0.0], 5, None);
        let far: Vec<SearchResult> = far
            .iter()
            .map(|r| SearchResult {
                asset_id: r.asset_id,
                distance: m.distance(&q, r.asset_id).unwrap(),
            })
            .collect();
        let mut far_sorted = far.clone();
        far_sorted.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        c.check_query(
            "ann far",
            &m,
            &asked(&q, 5, None, Expect::Approximate),
            &far_sorted,
        );
        assert_eq!(c.failed(), 6, "approximate answers may miss neighbours");
        c.check_query(
            "exact far",
            &m,
            &asked(&q, 5, None, Expect::Exact),
            &far_sorted,
        );
        assert_eq!(c.failed(), 7);

        c.note("errored op", Err("boom".into()));
        assert_eq!((c.attempted(), c.failed()), (9, 8));
        assert!(c.first_failure().unwrap().starts_with("dropped id"));
        assert!(c.failed() > 0, "any failure makes the run incorrect");
    }
}
