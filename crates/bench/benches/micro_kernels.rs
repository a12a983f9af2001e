//! Criterion micro-benchmarks for the performance-critical primitives:
//! distance kernels, the batched GEMM, telemetry overhead on the scan
//! path, top-k heaps, key codec, B+tree operations, and WAL commit
//! throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use micronn_linalg::{
    backend, batch_distances, dot, l2_sq, scalar_kernels, set_block_code, sq4_block_bytes,
    sq4_train, Metric, Sq4Scorer, Sq8Params, Sq8Scorer, TopK, SQ4_BLOCK, SQ4_LEVELS,
};
use micronn_rel::{encode_key, Value};
use micronn_storage::{BTree, Store, StoreOptions, SyncMode};

fn pseudo_vec(seed: u64, dim: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..dim)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn bench_distance_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("distance_kernels");
    for dim in [96usize, 128, 512, 960] {
        let a = pseudo_vec(1, dim);
        let b = pseudo_vec(2, dim);
        g.throughput(Throughput::Elements(dim as u64));
        g.bench_with_input(BenchmarkId::new("l2_sq", dim), &dim, |bch, _| {
            bch.iter(|| l2_sq(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("dot", dim), &dim, |bch, _| {
            bch.iter(|| dot(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    g.finish();
}

fn bench_batch_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_distances");
    let dim = 128;
    let rows: Vec<f32> = (0..256).flat_map(|i| pseudo_vec(100 + i, dim)).collect();
    for nq in [1usize, 8, 64] {
        let queries: Vec<f32> = (0..nq).flat_map(|i| pseudo_vec(i as u64, dim)).collect();
        let mut out = vec![0f32; nq * 256];
        g.throughput(Throughput::Elements((nq * 256) as u64));
        g.bench_with_input(BenchmarkId::new("q_x_256rows_128d", nq), &nq, |bch, _| {
            bch.iter(|| {
                batch_distances(
                    Metric::L2,
                    std::hint::black_box(&queries),
                    nq,
                    std::hint::black_box(&rows),
                    256,
                    dim,
                    &mut out,
                )
            })
        });
    }
    g.finish();
}

/// Chunked SQ8 scoring (`Sq8Scorer::score_chunk`, the scan frame's
/// batched kernel) against the row-at-a-time `score` loop it replaced,
/// on the same code block. Both fill one score per row.
fn bench_sq8_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("sq8_scan");
    let rows = 1024usize;
    for dim in [96usize, 128, 512] {
        let data: Vec<f32> = (0..rows)
            .flat_map(|i| pseudo_vec(7 + i as u64, dim))
            .collect();
        let params = Sq8Params::train(&data, dim);
        let mut block: Vec<u8> = Vec::with_capacity(rows * dim);
        for row in data.chunks_exact(dim) {
            params.encode_into(row, &mut block);
        }
        let query = pseudo_vec(999, dim);
        let scorer = Sq8Scorer::new(Metric::L2, &query, &params);
        let mut out = Vec::with_capacity(rows);
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_with_input(BenchmarkId::new("row_at_a_time_1024", dim), &dim, |b, _| {
            b.iter(|| {
                out.clear();
                for row in std::hint::black_box(&block[..]).chunks_exact(dim) {
                    out.push(scorer.score(row));
                }
                out.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("score_chunk_1024", dim), &dim, |b, _| {
            b.iter(|| {
                out.clear();
                scorer.score_chunk(std::hint::black_box(&block[..]), &mut out);
                out.len()
            })
        });
    }
    g.finish();
}

/// Runtime-dispatched SIMD kernels against the scalar reference on the
/// same inputs — the dispatched backend is in the group header, so a
/// report from any machine says what it measured. All pairs produce
/// bit-identical outputs (the dispatch contract); only the clock
/// differs.
fn bench_simd_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group(format!("simd_dispatch[{}]", backend()));
    let scalar = scalar_kernels();
    for dim in [128usize, 960] {
        let a = pseudo_vec(1, dim);
        let b = pseudo_vec(2, dim);
        g.throughput(Throughput::Elements(dim as u64));
        g.bench_with_input(BenchmarkId::new("l2_sq/dispatched", dim), &dim, |bch, _| {
            bch.iter(|| l2_sq(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("l2_sq/scalar", dim), &dim, |bch, _| {
            bch.iter(|| (scalar.l2_sq)(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    // The acceptance row: chunked SQ8 scoring at 128d, dispatched vs
    // scalar-pinned scorer over the same 1024-row code block.
    let (rows, dim) = (1024usize, 128usize);
    let data: Vec<f32> = (0..rows)
        .flat_map(|i| pseudo_vec(7 + i as u64, dim))
        .collect();
    let params = Sq8Params::train(&data, dim);
    let mut block: Vec<u8> = Vec::with_capacity(rows * dim);
    for row in data.chunks_exact(dim) {
        params.encode_into(row, &mut block);
    }
    let query = pseudo_vec(999, dim);
    let fast = Sq8Scorer::new(Metric::L2, &query, &params);
    let slow = Sq8Scorer::with_kernels(Metric::L2, &query, &params, scalar);
    let mut out = Vec::with_capacity(rows);
    g.throughput(Throughput::Elements(rows as u64));
    for (name, scorer) in [("dispatched", &fast), ("scalar", &slow)] {
        g.bench_with_input(BenchmarkId::new("sq8_chunk_1024", name), &name, |bch, _| {
            bch.iter(|| {
                out.clear();
                scorer.score_chunk(std::hint::black_box(&block[..]), &mut out);
                out.len()
            })
        });
    }
    // The SQ4 plane build at 128d — the fixed cost a scan pays per
    // (query, probed partition) before it scores a block — re-preparing
    // one scorer in place as the scan frame does.
    let sq4_params = sq4_train(&data, dim);
    g.throughput(Throughput::Elements(dim as u64));
    for (name, kernels) in [
        ("dispatched", micronn_linalg::kernels()),
        ("scalar", scalar),
    ] {
        let mut scorer = Sq4Scorer::with_kernels(Metric::L2, &query, &sq4_params, kernels);
        g.bench_with_input(BenchmarkId::new("sq4_plane_128d", name), &name, |bch, _| {
            bch.iter(|| {
                scorer.prepare(
                    std::hint::black_box(&query),
                    std::hint::black_box(&sq4_params),
                )
            })
        });
    }
    g.finish();
}

/// Per-row scan cost of the three codecs on the same 1024 logical rows:
/// F32 GEMM-path distances, SQ8 chunked asymmetric scoring, and SQ4
/// fastscan block lookups. Throughput is rows/s, so the per-row ratios
/// read straight off the report.
fn bench_codec_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group(format!("codec_scan[{}]", backend()));
    let (rows, dim) = (1024usize, 128usize);
    let data: Vec<f32> = (0..rows)
        .flat_map(|i| pseudo_vec(7 + i as u64, dim))
        .collect();
    let query = pseudo_vec(999, dim);
    g.throughput(Throughput::Elements(rows as u64));

    let mut f32_out = vec![0f32; rows];
    g.bench_function("f32_rows_1024_128d", |bch| {
        bch.iter(|| {
            batch_distances(
                Metric::L2,
                std::hint::black_box(&query),
                1,
                std::hint::black_box(&data),
                rows,
                dim,
                &mut f32_out,
            )
        })
    });

    let sq8_params = Sq8Params::train(&data, dim);
    let mut sq8_block: Vec<u8> = Vec::with_capacity(rows * dim);
    for row in data.chunks_exact(dim) {
        sq8_params.encode_into(row, &mut sq8_block);
    }
    let sq8 = Sq8Scorer::new(Metric::L2, &query, &sq8_params);
    let mut sq8_out = Vec::with_capacity(rows);
    g.bench_function("sq8_rows_1024_128d", |bch| {
        bch.iter(|| {
            sq8_out.clear();
            sq8.score_chunk(std::hint::black_box(&sq8_block[..]), &mut sq8_out);
            sq8_out.len()
        })
    });

    let sq4_params = sq4_train(&data, dim);
    let enc = sq4_params.encoder(SQ4_LEVELS);
    let n_blocks = rows / SQ4_BLOCK;
    let mut sq4_blocks = vec![0u8; n_blocks * sq4_block_bytes(dim)];
    let mut codes = Vec::with_capacity(dim);
    for (i, row) in data.chunks_exact(dim).enumerate() {
        codes.clear();
        enc.encode_row(row, &mut codes);
        let block = &mut sq4_blocks
            [(i / SQ4_BLOCK) * sq4_block_bytes(dim)..(i / SQ4_BLOCK + 1) * sq4_block_bytes(dim)];
        for (d, &c) in codes.iter().enumerate() {
            set_block_code(block, d, i % SQ4_BLOCK, c);
        }
    }
    let sq4 = Sq4Scorer::new(Metric::L2, &query, &sq4_params);
    let mut sq4_out = [0f32; SQ4_BLOCK];
    g.bench_function("sq4_rows_1024_128d", |bch| {
        bch.iter(|| {
            let mut sum = 0f32;
            for block in std::hint::black_box(&sq4_blocks[..]).chunks_exact(sq4_block_bytes(dim)) {
                sq4.score_block(block, &mut sq4_out);
                sum += sq4_out[0];
            }
            sum
        })
    });
    g.finish();
}

/// Telemetry cost on the hottest path it touches: the SQ8 1024-row
/// chunk scan bare, with the per-scan registry counter bumps the
/// executor performs (vectors/bytes/distances), and with the full
/// per-query record (two clock reads + one histogram record). The
/// counter variant is the always-on per-scan cost and must stay within
/// ~2% of bare; the query-record variant amortizes over a whole query,
/// not a single chunk, so its gap here is an upper bound.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead");
    let (rows, dim) = (1024usize, 128usize);
    let data: Vec<f32> = (0..rows)
        .flat_map(|i| pseudo_vec(7 + i as u64, dim))
        .collect();
    let params = Sq8Params::train(&data, dim);
    let mut block: Vec<u8> = Vec::with_capacity(rows * dim);
    for row in data.chunks_exact(dim) {
        params.encode_into(row, &mut block);
    }
    let query = pseudo_vec(999, dim);
    let scorer = Sq8Scorer::new(Metric::L2, &query, &params);
    let mut out = Vec::with_capacity(rows);
    g.throughput(Throughput::Elements(rows as u64));

    g.bench_function("sq8_chunk_1024_bare", |b| {
        b.iter(|| {
            out.clear();
            scorer.score_chunk(std::hint::black_box(&block[..]), &mut out);
            out.len()
        })
    });

    let reg = micronn_telemetry::Registry::new();
    let vectors = reg.counter("micronn_vectors_scanned_total");
    let bytes = reg.counter("micronn_bytes_scanned_total");
    let distances = reg.counter("micronn_distance_computations_total");
    g.bench_function("sq8_chunk_1024_with_counters", |b| {
        b.iter(|| {
            out.clear();
            scorer.score_chunk(std::hint::black_box(&block[..]), &mut out);
            vectors.add(out.len() as u64);
            bytes.add(block.len() as u64);
            distances.add(out.len() as u64);
            out.len()
        })
    });

    let latency = reg.histogram("micronn_query_latency_ns");
    g.bench_function("sq8_chunk_1024_with_query_record", |b| {
        b.iter(|| {
            let t0 = std::time::Instant::now();
            out.clear();
            scorer.score_chunk(std::hint::black_box(&block[..]), &mut out);
            vectors.add(out.len() as u64);
            bytes.add(block.len() as u64);
            distances.add(out.len() as u64);
            latency.record(t0.elapsed().as_nanos() as u64);
            out.len()
        })
    });
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    let mut g = c.benchmark_group("topk_heap");
    let dists: Vec<f32> = (0..100_000)
        .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 1_000_000) as f32)
        .collect();
    for k in [10usize, 100] {
        g.throughput(Throughput::Elements(dists.len() as u64));
        g.bench_with_input(BenchmarkId::new("push_100k", k), &k, |bch, &k| {
            bch.iter(|| {
                let mut t = TopK::new(k);
                for (i, &d) in dists.iter().enumerate() {
                    t.push(i as u64, d);
                }
                t.into_sorted().len()
            })
        });
    }
    g.finish();
}

fn bench_key_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("key_codec");
    let tuple = [Value::Integer(42), Value::Integer(1_000_000)];
    g.bench_function("encode_partition_vid", |b| {
        b.iter(|| encode_key(std::hint::black_box(&tuple)))
    });
    let text = [Value::text("tag0042"), Value::Integer(99)];
    g.bench_function("encode_text_pk", |b| {
        b.iter(|| encode_key(std::hint::black_box(&text)))
    });
    g.finish();
}

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    g.sample_size(20);
    let dir = tempfile::tempdir().unwrap();
    let store = Store::create(
        dir.path().join("bench.db"),
        StoreOptions {
            sync: SyncMode::Off,
            ..Default::default()
        },
    )
    .unwrap();
    let mut txn = store.begin_write().unwrap();
    let tree = BTree::create(&mut txn).unwrap();
    let blob = vec![7u8; 512]; // a 128-d f32 vector
    for i in 0..20_000u64 {
        tree.insert(&mut txn, &i.to_be_bytes(), &blob).unwrap();
    }
    txn.commit().unwrap();

    g.bench_function("point_get_20k", |b| {
        let r = store.begin_read();
        let mut i = 0u64;
        b.iter(|| {
            i = (i.wrapping_mul(6364136223846793005).wrapping_add(1)) % 20_000;
            tree.get(&r, &i.to_be_bytes()).unwrap().unwrap().len()
        })
    });
    g.bench_function("scan_1k_range", |b| {
        let r = store.begin_read();
        b.iter(|| {
            tree.scan_range(&r, &5000u64.to_be_bytes(), &6000u64.to_be_bytes())
                .unwrap()
                .count()
        })
    });
    g.bench_function("insert_commit_100", |b| {
        let mut next = 1_000_000u64;
        b.iter(|| {
            let mut txn = store.begin_write().unwrap();
            for _ in 0..100 {
                tree.insert(&mut txn, &next.to_be_bytes(), &blob).unwrap();
                next += 1;
            }
            txn.commit().unwrap();
        })
    });
    g.finish();
}

fn bench_wal_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal");
    g.sample_size(20);
    let dir = tempfile::tempdir().unwrap();
    let store = Store::create(
        dir.path().join("wal.db"),
        StoreOptions {
            sync: SyncMode::Off,
            checkpoint_after_frames: 0, // keep the WAL growing
            ..Default::default()
        },
    )
    .unwrap();
    g.bench_function("commit_8_dirty_pages", |b| {
        b.iter(|| {
            let mut txn = store.begin_write().unwrap();
            for _ in 0..8 {
                let p = txn.allocate_page().unwrap();
                txn.page_mut(p).unwrap()[100] = 1;
            }
            txn.commit().unwrap();
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_distance_kernels,
    bench_batch_gemm,
    bench_sq8_scan,
    bench_simd_dispatch,
    bench_codec_scan,
    bench_telemetry_overhead,
    bench_topk,
    bench_key_codec,
    bench_btree,
    bench_wal_commit
);
criterion_main!(benches);
