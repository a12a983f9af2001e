//! Property-based tests for the numerics kernels: agreement with naive
//! reference implementations, metric axioms, and heap/sort equivalence.

use proptest::prelude::*;

use micronn_linalg::{
    cosine_distance, dot, kernels, l2_sq, merge_all, norm, normalize, scalar_kernels,
    set_block_code, sq4_block_bytes, sq4_train, Metric, Sq4Scorer, Sq8Params, Sq8Scorer, TopK,
    SQ4_BLOCK, SQ4_LEVELS,
};

fn vec_strategy(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, dim..=dim)
}

/// Slices `rows` rows of width `dim` out of an over-provisioned flat
/// buffer — lets a plain `dim` strategy drive odd/awkward dims that
/// stress the kernels' tail loops.
fn take_rows(data: &[f32], dim: usize, rows: usize) -> &[f32] {
    &data[..dim * rows]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn kernels_agree_with_naive(
        a in vec_strategy(67),
        b in vec_strategy(67),
    ) {
        let naive_dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let naive_l2: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        // Accumulation order differs: allow relative tolerance.
        let tol = 1e-3 * (1.0 + naive_l2.abs().max(naive_dot.abs()));
        prop_assert!((dot(&a, &b) - naive_dot).abs() <= tol);
        prop_assert!((l2_sq(&a, &b) - naive_l2).abs() <= tol);
    }

    #[test]
    fn metric_axioms(a in vec_strategy(32), b in vec_strategy(32)) {
        // Symmetry and identity (within float tolerance).
        for m in [Metric::L2, Metric::Cosine] {
            let ab = m.distance(&a, &b);
            let ba = m.distance(&b, &a);
            prop_assert!((ab - ba).abs() <= 1e-3 * (1.0 + ab.abs()));
        }
        prop_assert!(l2_sq(&a, &a) == 0.0);
        prop_assert!(cosine_distance(&a, &a).abs() < 1e-4);
        // L2 is non-negative; cosine is in [0, 2] (+ epsilon).
        prop_assert!(l2_sq(&a, &b) >= 0.0);
        let c = cosine_distance(&a, &b);
        prop_assert!((-1e-4..=2.0001).contains(&c), "cosine {c}");
    }

    #[test]
    fn normalization_is_idempotent_and_unit(mut a in vec_strategy(24)) {
        normalize(&mut a);
        let n1 = norm(&a);
        prop_assert!(n1 == 0.0 || (n1 - 1.0).abs() < 1e-4);
        let before = a.clone();
        normalize(&mut a);
        for (x, y) in a.iter().zip(&before) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn topk_equals_full_sort(
        items in proptest::collection::vec((0u64..10_000, -1e6f32..1e6), 0..300),
        k in 1usize..50,
    ) {
        let mut t = TopK::new(k);
        for &(id, d) in &items {
            t.push(id, d);
        }
        let got: Vec<(u64, f32)> = t.into_sorted().iter().map(|n| (n.id, n.distance)).collect();
        let mut want: Vec<(u64, f32)> = items.clone();
        // Dedup ids? TopK keeps duplicates as separate candidates, as
        // does the reference.
        want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        want.truncate(k);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn sq8_round_trip_error_bounded_per_dimension(
        rows in proptest::collection::vec(vec_strategy(19), 1..40),
    ) {
        let dim = 19;
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let params = Sq8Params::train(&flat, dim);
        for row in &rows {
            let mut codes = Vec::new();
            params.encode_into(row, &mut codes);
            prop_assert_eq!(codes.len(), dim);
            let mut back = Vec::new();
            params.decode_into(&codes, &mut back);
            for d in 0..dim {
                // In-range values reconstruct within half a
                // quantization step (plus float slack proportional to
                // the range magnitude).
                let bound = params.max_abs_error(d) + 1e-4 * (1.0 + row[d].abs());
                prop_assert!(
                    (row[d] - back[d]).abs() <= bound,
                    "d={} err={} bound={}",
                    d,
                    (row[d] - back[d]).abs(),
                    bound
                );
            }
        }
    }

    #[test]
    fn sq8_scorer_matches_decoded_distance(
        rows in proptest::collection::vec(vec_strategy(23), 1..24),
        q in vec_strategy(23),
    ) {
        let dim = 23;
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let params = Sq8Params::train(&flat, dim);
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            let scorer = Sq8Scorer::new(metric, &q, &params);
            for row in &rows {
                let mut codes = Vec::new();
                params.encode_into(row, &mut codes);
                let mut dec = Vec::new();
                params.decode_into(&codes, &mut dec);
                let want = metric.distance(&q, &dec);
                let got = scorer.score(&codes);
                let tol = 5e-3 * (1.0 + want.abs());
                prop_assert!((got - want).abs() <= tol, "{} {} vs {}", metric, got, want);
            }
        }
    }

    #[test]
    fn dispatched_f32_kernels_bit_identical_to_scalar(
        dim in 1usize..131,
        data in vec_strategy(131 * 2),
    ) {
        // The f32 SIMD backends promise *bit* equality with the scalar
        // reference (same lane structure, no FMA contraction), not
        // mere closeness — final query results must not depend on the
        // dispatcher's pick.
        let (a, b) = take_rows(&data, dim, 2).split_at(dim);
        let k = kernels();
        let s = scalar_kernels();
        prop_assert_eq!((k.dot)(a, b).to_bits(), (s.dot)(a, b).to_bits(), "dot dim {}", dim);
        prop_assert_eq!((k.l2_sq)(a, b).to_bits(), (s.l2_sq)(a, b).to_bits(), "l2 dim {}", dim);
    }

    #[test]
    fn sq8_scorer_bit_identical_across_backends(
        dim in 1usize..101,
        data in vec_strategy(101 * 9),
        q_seed in 0u8..255,
    ) {
        let (qrow, rows) = take_rows(&data, dim, 9).split_at(dim);
        let q: Vec<f32> = qrow.iter().map(|x| x + q_seed as f32 / 64.0).collect();
        let params = Sq8Params::train(rows, dim);
        let mut block = Vec::new();
        for row in rows.chunks_exact(dim) {
            params.encode_into(row, &mut block);
        }
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            let fast = Sq8Scorer::new(metric, &q, &params);
            let slow = Sq8Scorer::with_kernels(metric, &q, &params, scalar_kernels());
            let mut a = Vec::new();
            let mut b = Vec::new();
            fast.score_chunk(&block, &mut a);
            slow.score_chunk(&block, &mut b);
            prop_assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} dim {} row {}", metric, dim, i);
            }
        }
    }

    #[test]
    fn sq4_scores_bit_identical_across_backends_and_within_bound(
        dim in 1usize..81,
        data in vec_strategy(81 * (SQ4_BLOCK + 1)),
    ) {
        let (qrow, rows) = take_rows(&data, dim, SQ4_BLOCK + 1).split_at(dim);
        let params = sq4_train(rows, dim);
        let enc = params.encoder(SQ4_LEVELS);
        let mut packed = vec![0u8; sq4_block_bytes(dim)];
        let mut code_rows: Vec<Vec<u8>> = Vec::new();
        for (slot, row) in rows.chunks_exact(dim).enumerate() {
            let mut codes = Vec::new();
            enc.encode_row(row, &mut codes);
            for (d, &c) in codes.iter().enumerate() {
                set_block_code(&mut packed, d, slot, c);
            }
            code_rows.push(codes);
        }
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            let fast = Sq4Scorer::new(metric, qrow, &params);
            let slow = Sq4Scorer::with_kernels(metric, qrow, &params, scalar_kernels());
            let mut a = [0.0f32; SQ4_BLOCK];
            let mut b = [0.0f32; SQ4_BLOCK];
            fast.score_block(&packed, &mut a);
            slow.score_block(&packed, &mut b);
            for j in 0..SQ4_BLOCK {
                // Integer-exact LUT sums: the SQ4 path is bit-identical
                // across backends by construction, not within-ULP.
                prop_assert_eq!(a[j].to_bits(), b[j].to_bits(), "{} dim {} row {}", metric, dim, j);
            }
            // And the L2/Dot scores respect the documented LUT
            // quantization bound against the unquantized reference.
            if matches!(metric, Metric::L2 | Metric::Dot) {
                let (err, _) = fast.lut_error_bound();
                for (j, codes) in code_rows.iter().enumerate() {
                    let want = fast.reference_score(&params, qrow, codes);
                    prop_assert!(
                        (a[j] - want).abs() <= err + 1e-3 * (1.0 + want.abs()),
                        "{} dim {} row {}: {} vs {} (bound {})",
                        metric, dim, j, a[j], want, err
                    );
                }
            }
        }
    }

    #[test]
    fn merge_all_tie_heavy_is_shard_invariant(
        ids in proptest::collection::vec(0u64..50, 1..400),
        shards_a in 1usize..7,
        shards_b in 1usize..7,
        k in 1usize..20,
    ) {
        // Heavily tied input: distances drawn from three levels and
        // ids from a tiny range, so almost every comparison ties on
        // distance and falls through to the id tie-break. The merged
        // top-k (a multiset under the total order) must not depend on
        // how the items were sharded across worker heaps.
        let items: Vec<(u64, f32)> = ids.iter().map(|&id| (id, (id % 3) as f32)).collect();
        let run = |nsh: usize| {
            let mut parts: Vec<TopK> = (0..nsh).map(|_| TopK::new(k)).collect();
            for (i, &(id, d)) in items.iter().enumerate() {
                parts[i % nsh].push(id, d);
            }
            merge_all(parts, k)
        };
        let a = run(shards_a);
        prop_assert_eq!(&a, &run(shards_b));
        prop_assert_eq!(&a, &run(1));
        // And it really is the k smallest of the full multiset.
        let mut want: Vec<micronn_linalg::Neighbor> = items
            .iter()
            .map(|&(id, distance)| micronn_linalg::Neighbor {
                id,
                distance,
                payload: (),
            })
            .collect();
        want.sort_unstable();
        want.truncate(k);
        prop_assert_eq!(a, want);
    }

    #[test]
    fn sharded_heaps_equal_single_heap(
        items in proptest::collection::vec((0u64..10_000, -1e6f32..1e6), 0..300),
        shards in 1usize..6,
        k in 1usize..30,
    ) {
        let mut single = TopK::new(k);
        for &(id, d) in &items {
            single.push(id, d);
        }
        let mut parts: Vec<TopK> = (0..shards).map(|_| TopK::new(k)).collect();
        for (i, &(id, d)) in items.iter().enumerate() {
            parts[i % shards].push(id, d);
        }
        prop_assert_eq!(merge_all(parts, k), single.into_sorted());
    }
}
