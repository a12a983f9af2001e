//! Per-layer measurements taken from outside the layers: timed calls
//! into each crate's public functions, on slabs and pages cut from the
//! run's own data. Every timed repeat is one span of the traced run,
//! and every timing is a quiet estimate (fastest repeat per fixed
//! input, mean over inputs).

use std::hint::black_box;
use std::path::Path;

use micronn::{Expr, Metric, MicroNN, Value, VectorCodec};
use micronn_cluster::Clustering;
use micronn_linalg::{
    distances_one_to_many, gemm_nt, set_block_code, sq4_block_bytes, sq4_train, Sq4Scorer,
    Sq8Params, Sq8Scorer, TopK, SQ4_BLOCK, SQ4_LEVELS,
};
use micronn_rel::{encode_key, encode_row, f32_to_blob, RowDecoder};
use micronn_storage::{BTree, PageRead, Store, StoreOptions, SyncMode};
use micronn_telemetry::Histogram;

use crate::inputs::{Inputs, BUCKET_ATTR, DIM, K, POST_FILTER_BELOW, PRE_FILTER_BELOW};
use crate::model::Op;
use crate::quiet::Minima;
use crate::report::Metrics;
use crate::trace::Recorder;
use crate::vfs::CountingVfs;

/// Repeats of every fixed input.
const REPEATS: usize = 20;
/// Rows of the slab the kernels run over.
const SLAB_ROWS: usize = 1024;
/// Query vectors used as fixed inputs.
const QUERIES: usize = 8;
/// Rows per partition-shaped key range of the scratch B+tree.
const TREE_PARTITION: usize = 100;
/// Entries of the scratch B+tree.
const TREE_ROWS: usize = 4096;

/// Bare scan-kernel cost per codec, for `core.scan_efficiency`.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    l2_f32: f64,
    sq8: f64,
    sq4: f64,
}

impl Kernels {
    /// Nanoseconds per row of the kernel `codec` scans with.
    pub fn scan_ns_per_row(&self, codec: VectorCodec) -> f64 {
        match codec {
            VectorCodec::F32 => self.l2_f32,
            VectorCodec::Sq8 => self.sq8,
            VectorCodec::Sq4 => self.sq4,
        }
    }
}

/// Quiet estimate, in seconds, of `f(input)` over `inputs` fixed
/// inputs. Each repeat is recorded as one span named `name`; `before`
/// runs ahead of each repeat, outside its span. Stops at the first
/// error.
fn try_quiet<E>(
    rec: &mut Recorder,
    name: &'static str,
    inputs: usize,
    mut before: impl FnMut(),
    mut f: impl FnMut(usize) -> Result<(), E>,
) -> Result<f64, E> {
    let mut min = Minima::default();
    for _ in 0..REPEATS {
        for i in 0..inputs {
            before();
            let (outcome, call) = rec.call(name, || f(i));
            outcome?;
            min.record(i, call.secs);
        }
    }
    Ok(min.mean())
}

/// [`try_quiet`] for work that cannot fail.
fn quiet(rec: &mut Recorder, name: &'static str, inputs: usize, mut f: impl FnMut(usize)) -> f64 {
    let run = try_quiet(
        rec,
        name,
        inputs,
        || (),
        |i| {
            f(i);
            Ok::<(), std::convert::Infallible>(())
        },
    );
    match run {
        Ok(secs) => secs,
        Err(never) => match never {},
    }
}

fn slab_of(inputs: &Inputs) -> Vec<f32> {
    inputs
        .base
        .iter()
        .take(SLAB_ROWS)
        .flat_map(|op| match op {
            Op::Upsert { vector, .. } => vector.iter().copied(),
            Op::Delete { .. } => unreachable!("base rows are upserts"),
        })
        .collect()
}

/// Measures every layer metric that does not come out of the rounds.
pub fn measure(
    m: &mut Metrics,
    rec: &mut Recorder,
    db: &MicroNN,
    inputs: &Inputs,
    dir: &Path,
) -> Result<Kernels, String> {
    let slab = slab_of(inputs);
    let rows = slab.len() / DIM;
    let queries: Vec<&[f32]> = inputs
        .queries
        .iter()
        .take(QUERIES)
        .map(Vec::as_slice)
        .collect();
    let kernels = linalg(m, rec, &slab, rows, &queries);
    cluster(m, rec, &slab, rows, inputs.base.len() / TREE_PARTITION);
    storage(m, rec, &slab, rows, dir).map_err(|e| format!("storage layer: {e}"))?;
    rel(m, rec, db).map_err(|e| format!("rel layer: {e}"))?;
    let hist = Histogram::new();
    let secs = quiet(rec, "telemetry.hist_record", 1, |_| {
        for v in 0..4096u64 {
            hist.record(black_box(50_000 + v * 37));
        }
    });
    m.set("telemetry.hist_record_ns", secs * 1e9 / 4096.0);
    Ok(kernels)
}

fn linalg(
    m: &mut Metrics,
    rec: &mut Recorder,
    slab: &[f32],
    rows: usize,
    queries: &[&[f32]],
) -> Kernels {
    let per_row = |secs: f64| secs * 1e9 / rows as f64;
    let mut out = Vec::with_capacity(rows);
    let l2_f32 = per_row(quiet(
        rec,
        "linalg.distances_one_to_many",
        queries.len(),
        |i| {
            out.clear();
            distances_one_to_many(
                Metric::L2,
                black_box(queries[i]),
                black_box(slab),
                DIM,
                &mut out,
            );
            black_box(out.len());
        },
    ));
    m.set("linalg.l2_f32_ns_per_row", l2_f32);

    let distances: Vec<Vec<f32>> = queries
        .iter()
        .map(|q| {
            let mut d = Vec::with_capacity(rows);
            distances_one_to_many(Metric::L2, q, slab, DIM, &mut d);
            d
        })
        .collect();
    let push = quiet(rec, "linalg.topk_push", queries.len(), |i| {
        let mut top = TopK::new(K);
        for (id, &d) in black_box(&distances[i]).iter().enumerate() {
            top.push(id as u64, d);
        }
        black_box(top.len());
    });
    m.set("linalg.topk_push_ns", per_row(push));

    let sq8_params = Sq8Params::train(slab, DIM);
    let mut codes = Vec::with_capacity(rows * DIM);
    let encode = quiet(rec, "linalg.sq8_encode", 1, |_| {
        codes.clear();
        for row in black_box(slab).chunks_exact(DIM) {
            sq8_params.encode_into(row, &mut codes);
        }
        black_box(codes.len());
    });
    m.set("linalg.sq8_encode_ns_per_row", per_row(encode));
    let sq8_scorers: Vec<Sq8Scorer> = queries
        .iter()
        .map(|q| Sq8Scorer::new(Metric::L2, q, &sq8_params))
        .collect();
    let sq8 = per_row(quiet(rec, "linalg.sq8_score_chunk", queries.len(), |i| {
        out.clear();
        sq8_scorers[i].score_chunk(black_box(&codes), &mut out);
        black_box(out.len());
    }));
    m.set("linalg.sq8_chunk_ns_per_row", sq8);

    let train = quiet(rec, "linalg.sq4_train", 1, |_| {
        black_box(sq4_train(black_box(slab), DIM));
    });
    m.set("linalg.sq4_train_us", train * 1e6);
    let sq4_params = sq4_train(slab, DIM);
    let encoder = sq4_params.encoder(SQ4_LEVELS);
    let block_bytes = sq4_block_bytes(DIM);
    let mut blocks = vec![0u8; rows.div_ceil(SQ4_BLOCK) * block_bytes];
    let mut row_codes = Vec::with_capacity(DIM);
    for (i, row) in slab.chunks_exact(DIM).enumerate() {
        row_codes.clear();
        encoder.encode_row(row, &mut row_codes);
        let block = &mut blocks[(i / SQ4_BLOCK) * block_bytes..][..block_bytes];
        for (d, &c) in row_codes.iter().enumerate() {
            set_block_code(block, d, i % SQ4_BLOCK, c);
        }
    }
    let sq4_scorers: Vec<Sq4Scorer> = queries
        .iter()
        .map(|q| Sq4Scorer::new(Metric::L2, q, &sq4_params))
        .collect();
    let mut scores = [0f32; SQ4_BLOCK];
    let sq4 = per_row(quiet(rec, "linalg.sq4_score_block", queries.len(), |i| {
        let mut sum = 0f32;
        for block in black_box(&blocks).chunks_exact(block_bytes) {
            sq4_scorers[i].score_block(block, &mut scores);
            sum += scores[0];
        }
        black_box(sum);
    }));
    m.set("linalg.sq4_block_ns_per_row", sq4);

    // The batch path's kernel: 64 queries against the slab.
    let batch: Vec<f32> = (0..64)
        .flat_map(|i| queries[i % queries.len()].iter().copied())
        .collect();
    let mut products = vec![0f32; 64 * rows];
    let gemm = quiet(rec, "linalg.gemm_nt", 1, |_| {
        gemm_nt(
            black_box(&batch),
            64,
            black_box(slab),
            rows,
            DIM,
            &mut products,
        );
        black_box(products[0]);
    });
    m.set(
        "linalg.gemm_nt_gflops",
        2.0 * 64.0 * rows as f64 * DIM as f64 / gemm / 1e9,
    );
    Kernels { l2_f32, sq8, sq4 }
}

fn cluster(m: &mut Metrics, rec: &mut Recorder, slab: &[f32], rows: usize, partitions: usize) {
    // As many centroids as a build of this scale produces, so the
    // assignment a flush performs per row costs what it costs there.
    let k = partitions.clamp(1, rows);
    let clustering = Clustering::new(slab[..k * DIM].to_vec(), DIM, Metric::L2);
    let secs = quiet(rec, "cluster.nearest", 1, |_| {
        for row in black_box(slab).chunks_exact(DIM) {
            black_box(clustering.nearest(row));
        }
    });
    m.set("cluster.assign_ns_per_row", secs * 1e9 / rows as f64);
}

fn tree_key(i: usize) -> Vec<u8> {
    encode_key(&[
        Value::Integer((i / TREE_PARTITION) as i64),
        Value::Integer(i as i64),
    ])
}

fn storage(
    m: &mut Metrics,
    rec: &mut Recorder,
    slab: &[f32],
    rows: usize,
    dir: &Path,
) -> micronn_storage::Result<()> {
    let vfs = CountingVfs::new();
    let store = Store::create(
        dir.join("layers.mnn"),
        StoreOptions {
            pool_bytes: 64 << 20,
            sync: SyncMode::Normal,
            checkpoint_after_frames: 0,
            prefetch_queue_pages: 0,
            vfs: vfs.handle(),
            ..Default::default()
        },
    )?;
    // A tree shaped like the vectors table: (partition, vid) keys,
    // one 4·dim-byte vector blob per entry.
    let blobs: Vec<Vec<u8>> = slab.chunks_exact(DIM).map(f32_to_blob).collect();
    let mut txn = store.begin_write()?;
    let tree = BTree::create(&mut txn)?;
    for i in 0..TREE_ROWS {
        tree.insert(&mut txn, &tree_key(i), &blobs[i % rows])?;
    }
    txn.set_root(1, tree.root());
    txn.commit()?;
    store.checkpoint()?;

    let read = store.begin_read();
    let partitions = QUERIES.min(TREE_ROWS / TREE_PARTITION);
    let mut scanned = 0usize;
    let scan = try_quiet(
        rec,
        "storage.btree_scan_prefix",
        partitions,
        || (),
        |p| -> micronn_storage::Result<()> {
            let prefix = encode_key(&[Value::Integer(p as i64)]);
            scanned = tree.scan_prefix(&read, &prefix)?.map(black_box).count();
            Ok(())
        },
    )?;
    m.set(
        "storage.btree_scan_ns_per_row",
        scan * 1e9 / scanned.max(1) as f64,
    );
    let gets = 256;
    let get = try_quiet(
        rec,
        "storage.btree_get",
        1,
        || (),
        |_| -> micronn_storage::Result<()> {
            for j in 0..gets {
                black_box(tree.get(&read, &tree_key((j * 37) % TREE_ROWS))?);
            }
            Ok(())
        },
    )?;
    m.set("storage.btree_get_ns", get * 1e9 / gets as f64);

    let pages: Vec<u32> = (1..store.page_count()).collect();
    let touch_all = |_| -> micronn_storage::Result<()> {
        for &id in &pages {
            black_box(read.page(id)?);
        }
        Ok(())
    };
    let hit = try_quiet(rec, "storage.pool_hit", 1, || (), touch_all)?;
    m.set(
        "storage.pool_hit_ns_per_page",
        hit * 1e9 / pages.len() as f64,
    );
    // Miss path: empty pool, warm OS cache. The purge is outside the
    // span; each repeat pays one VFS read plus one pool insert a page.
    let miss = try_quiet(
        rec,
        "storage.pool_miss",
        1,
        || store.purge_cache(),
        touch_all,
    )?;
    m.set(
        "storage.pool_miss_ns_per_page",
        miss * 1e9 / pages.len() as f64,
    );
    drop(read);

    // Inserts into fresh key space of a write transaction that is never
    // committed, so every repeat starts from the same tree.
    let inserts = 256;
    let mut insert = Minima::default();
    for _ in 0..REPEATS {
        let mut txn = store.begin_write()?;
        let (outcome, call) =
            rec.call("storage.btree_insert", || -> micronn_storage::Result<()> {
                for j in 0..inserts {
                    let i = TREE_ROWS + (j * 17) % TREE_ROWS;
                    tree.insert(&mut txn, &tree_key(i), &blobs[j % rows])?;
                }
                Ok(())
            });
        txn.rollback();
        outcome?;
        insert.record(0, call.secs);
    }
    m.set(
        "storage.btree_insert_ns",
        insert.mean() * 1e9 / inserts as f64,
    );
    Ok(())
}

fn rel(m: &mut Metrics, rec: &mut Recorder, db: &MicroNN) -> Result<(), String> {
    fn text(e: impl std::fmt::Display) -> String {
        e.to_string()
    }
    let rdb = db.database();
    // Every query opens and drops one read transaction, and dropping
    // the oldest reader sweeps the pool for dead page versions.
    let txn = quiet(rec, "storage.read_txn", 1, |_| {
        drop(black_box(rdb.begin_read()))
    });
    m.set("storage.read_txn_us", txn * 1e6);
    let read = rdb.begin_read();
    let vectors = rdb.open_table(&read, "vectors").map_err(text)?;
    let attrs = rdb.open_table(&read, "attrs").map_err(text)?;
    let partitions: Vec<i64> = db
        .partition_sizes()
        .map_err(text)?
        .into_iter()
        .filter(|&(_, size)| size > 0)
        .map(|(pid, _)| pid)
        .take(QUERIES)
        .collect();
    if partitions.is_empty() {
        return Err("no indexed partitions to scan".into());
    }

    // The scan frame's row source with a no-op consumer.
    let mut raw_rows: Vec<Vec<u8>> = Vec::new();
    for &pid in &partitions {
        for kv in vectors
            .scan_pk_prefix_raw(&read, &[Value::Integer(pid)])
            .map_err(text)?
        {
            raw_rows.push(kv.map_err(text)?.1);
        }
    }
    let scan = try_quiet(
        rec,
        "rel.scan_pk_prefix_raw",
        partitions.len(),
        || (),
        |p| {
            let rows = vectors
                .scan_pk_prefix_raw(&read, &[Value::Integer(partitions[p])])
                .map_err(text)?;
            black_box(rows.map(black_box).count());
            Ok::<(), String>(())
        },
    )?;
    let rows_per_partition = raw_rows.len() as f64 / partitions.len() as f64;
    m.set(
        "rel.pk_prefix_scan_ns_per_row",
        scan * 1e9 / rows_per_partition,
    );

    let decode = try_quiet(
        rec,
        "rel.row_decode",
        1,
        || (),
        |_| {
            for row in black_box(&raw_rows) {
                // partition, vid, asset, vector blob: the scan frame's walk.
                let mut dec = RowDecoder::new(row).map_err(text)?;
                dec.skip().map_err(text)?;
                let vid = dec.next_value().map_err(text)?;
                let asset = dec.next_value().map_err(text)?;
                black_box((vid, asset, dec.next_blob().map_err(text)?.len()));
            }
            Ok::<(), String>(())
        },
    )?;
    m.set("rel.row_decode_ns", decode * 1e9 / raw_rows.len() as f64);

    let encode_inputs: Vec<Vec<Value>> = raw_rows
        .iter()
        .map(|row| micronn_rel::decode_row(row).map_err(text))
        .collect::<Result<_, _>>()?;
    let encode = quiet(rec, "rel.row_encode", 1, |_| {
        for values in black_box(&encode_inputs) {
            black_box(encode_row(values));
        }
    });
    m.set(
        "rel.row_encode_ns",
        encode * 1e9 / encode_inputs.len() as f64,
    );

    let attr_rows: Vec<Vec<Value>> = attrs
        .scan(&read)
        .map_err(text)?
        .take(SLAB_ROWS)
        .collect::<Result<_, _>>()
        .map_err(text)?;
    let post = Expr::lt(BUCKET_ATTR, POST_FILTER_BELOW);
    let pre = Expr::lt(BUCKET_ATTR, PRE_FILTER_BELOW);
    let compiled = post.compile(attrs.schema()).map_err(text)?;
    let eval = quiet(rec, "rel.predicate_eval", 1, |_| {
        let passing = black_box(&attr_rows)
            .iter()
            .filter(|r| compiled.eval(r))
            .count();
        black_box(passing);
    });
    m.set("rel.predicate_eval_ns", eval * 1e9 / attr_rows.len() as f64);

    let bucket_col = attrs.schema().column_index(BUCKET_ATTR).map_err(text)?;
    let index = attrs
        .index_on(&[bucket_col])
        .ok_or("the bucket attribute has no index")?;
    let below = Value::Integer(PRE_FILTER_BELOW);
    let lookup = try_quiet(
        rec,
        "rel.index_lookup_range",
        1,
        || (),
        |_| {
            let pks = index.lookup_range(&read, None, Some(&below), false, true);
            black_box(pks.map_err(text)?.len());
            Ok::<(), String>(())
        },
    )?;
    m.set("rel.index_lookup_us", lookup * 1e6);
    drop(read);

    let estimate = try_quiet(
        rec,
        "rel.estimate_selectivity",
        2,
        || (),
        |i| {
            let filter = if i == 0 { &post } else { &pre };
            black_box(db.estimate_filter_selectivity(filter).map_err(text)?);
            Ok::<(), String>(())
        },
    )?;
    m.set("rel.selectivity_estimate_us", estimate * 1e6);
    Ok(())
}
