//! The unified scan-executor layer.
//!
//! Every query path in the system — single-query ANN, exhaustive exact
//! KNN, batch-MQO group scans, and both hybrid plans — compiles down
//! to the machinery in this module:
//!
//! * [`PartitionScanner`] is the shared partition-scan frame: a catalog
//!   walk lends rows from their pinned leaf pages, each is scored, and
//!   each query's [`Collect`] is offered its rows in scan order. The
//!   query side of a scan is one `(flat, members)` pair: `members` index
//!   rows of the row-major query matrix `flat`, one member for a single
//!   query or a filtered wave, a partition's whole group for a batch
//!   (§3.4). A codec picks only the walk (f32 rows, SQ8 code rows, or
//!   SQ4 blocks lent in place) and the kernel. An f32 row is scored
//!   where it lies, once per member, by that member's [`RowScorer`], and
//!   offered at once; no scan copies a vector. Where §3.4 computes a
//!   group's distances as one matrix multiplication, a group scan here
//!   still reads each partition once, but scores each row in place per
//!   member — so a member's distances are, bit for bit, those of the
//!   same query scanned alone. The batched code kernels —
//!   [`Sq8Scorer::score_chunk`], [`Sq4Scorer::score_block`] — score a
//!   chunk of codes. The frame never reads attributes: an unfiltered
//!   scan collects into result heaps, a filtered one into [`Below`] —
//!   the rows its one heap would still accept, unprobed — and the §3.5
//!   join ([`AttrProbe::join`](crate::hybrid::AttrProbe::join)) probes
//!   those nearest first once a wave of partitions is scored.
//! * [`ScanMetrics`] is the one counter block every path feeds, once
//!   per partition scan from job-local [`ScanTotals`]; it flows into
//!   [`QueryInfo`] and [`BatchResponse`](crate::batch::BatchResponse).
//! * [`rerank_exact`] and [`CandidateScorer`] are the two
//!   fetch-by-key scoring tails: the exact re-rank pass of the
//!   quantized pipeline and the brute-force tail of the pre-filtering
//!   plan. Both score each row on the page the point reader pinned
//!   ([`VectorReader::with`](crate::catalog::VectorReader::with)). The
//!   re-rank needs no location lookup: a quantized scan's
//!   candidate pool carries each row's `(partition, vid)` from the row
//!   it scored (a [`Payload`] of the heap entries — the SQ8 code row's
//!   key, an SQ4 block's partition plus the directory slot's vid), so
//!   the re-rank reads `vectors` alone. Exact scans carry `()`, which
//!   costs their heaps nothing.
//!
//! Fan-out across partitions or queries is *not* handled here: call
//! sites pass per-index jobs to
//! [`ScanPool::parallel_indexed`](crate::pool::ScanPool), which owns
//! the work-stealing cursor, panic propagation, and deterministic
//! first-error capture.

use std::sync::Arc;

use micronn_linalg::{Neighbor, RowScorer, Sq4Scorer, Sq8Params, Sq8Scorer, TopK, SQ4_BLOCK};
use micronn_storage::ReadTxn;

use crate::catalog::{f32_row, Loc, LocationReader, VectorReader};
use crate::db::{Inner, DELTA_PARTITION};
use crate::error::Result;
use crate::stats::QueryInfo;

/// Rows per batched SQ8 code-scoring call.
pub(crate) const SCAN_CHUNK: usize = 256;

/// What a scan did, in the units [`QueryInfo`] and
/// [`BatchResponse`](crate::batch::BatchResponse) report.
#[derive(Default, Clone, Copy)]
pub(crate) struct ScanTotals {
    /// Vectors whose distance was computed.
    pub vectors_scanned: usize,
    /// Rows the post-filter join probed in the attribute table: each
    /// wave's rows taken nearest first, up to the first one the heap
    /// rejected.
    pub candidates: usize,
    /// Probed rows that failed the predicate (post-filter scans).
    pub filtered_out: usize,
    /// Vector-payload bytes read (`4·dim` per f32 row, `dim` per SQ8
    /// code row, `16·dim` per scanned SQ4 block, plus `4·dim` per
    /// re-ranked candidate).
    pub bytes_scanned: usize,
    /// Candidates re-ranked against exact f32 vectors.
    pub reranked: usize,
    /// `(query, vector)` distance computations (quantized scores
    /// included, re-rank recomputations excluded — callers add
    /// `reranked` when they want them counted).
    pub distance_computations: usize,
    /// Nanoseconds the post-filter join spent ordering its waves' rows
    /// and probing them; clocked only for a traced query.
    pub filter_nanos: u64,
}

impl ScanTotals {
    /// Counts `rows` f32 rows of `dim` components, each read once and
    /// scored for `queries` queries.
    fn scored_f32(&mut self, rows: usize, queries: usize, dim: usize) {
        self.vectors_scanned += rows;
        self.distance_computations += queries * rows;
        self.bytes_scanned += rows * dim * 4;
    }
}

/// The unified scan counters, shared by every worker of a scan
/// (single-query, batch, hybrid). A job counts in its own
/// [`ScanTotals`] — the row loops touch no shared cache line — and
/// adds it here once, when its partition scan ends.
#[derive(Default)]
pub(crate) struct ScanMetrics(parking_lot::Mutex<ScanTotals>);

impl ScanMetrics {
    pub fn absorb(&self, t: &ScanTotals) {
        let mut sum = self.0.lock();
        sum.vectors_scanned += t.vectors_scanned;
        sum.candidates += t.candidates;
        sum.filtered_out += t.filtered_out;
        sum.bytes_scanned += t.bytes_scanned;
        sum.reranked += t.reranked;
        sum.distance_computations += t.distance_computations;
        sum.filter_nanos += t.filter_nanos;
    }

    /// The sums so far.
    pub fn totals(&self) -> ScanTotals {
        *self.0.lock()
    }

    /// Flows the counters into a query's [`QueryInfo`].
    pub fn apply_to(&self, info: &mut QueryInfo) {
        let t = self.totals();
        info.vectors_scanned = t.vectors_scanned;
        info.candidates = t.candidates;
        info.filtered_out = t.filtered_out;
        info.bytes_scanned = t.bytes_scanned;
        info.reranked = t.reranked;
    }
}

/// What a scan's heaps carry beside `(distance, asset)`: `()` for
/// scans whose distances are final, the row's `(partition, vid)` for
/// the quantized candidate pool that [`rerank_exact`] fetches by.
pub(crate) trait Payload: Copy + Default + PartialEq + Send + Sync {
    /// The payload of the row stored at `loc`.
    fn of(loc: Loc) -> Self;
}

impl Payload for () {
    #[inline(always)]
    fn of(_: Loc) {}
}

impl Payload for Loc {
    #[inline(always)]
    fn of(loc: Loc) -> Loc {
        loc
    }
}

/// Where a scan offers its scored rows, one per query: a result heap,
/// or a filtered scan's [`Below`] list.
pub(crate) trait Collect<P> {
    /// Takes one scored row, or drops it.
    fn offer(&mut self, id: u64, distance: f32, payload: P);
}

impl<P: Payload> Collect<P> for TopK<P> {
    #[inline(always)]
    fn offer(&mut self, id: u64, distance: f32, payload: P) {
        self.push_with(id, distance, payload);
    }
}

/// The scoring half of a filtered scan: one partition's rows that
/// `bound` — the scan's one result heap, as it stood when the wave
/// began — would accept, in scan order and unprobed. The join then
/// takes them nearest first.
pub(crate) struct Below<'h, P> {
    pub bound: &'h TopK<P>,
    pub rows: Vec<Neighbor<P>>,
}

impl<P: Payload> Collect<P> for Below<'_, P> {
    #[inline(always)]
    fn offer(&mut self, id: u64, distance: f32, payload: P) {
        if self.bound.accepts(id, distance) {
            self.rows.push(Neighbor {
                id,
                distance,
                payload,
            });
        }
    }
}

/// The shared partition-scan frame (Algorithm 2 lines 3–11 and
/// §3.4's shared group scan). One scanner is built per scan operation
/// and [`PartitionScanner::scan`] runs once per partition, typically
/// from `parallel_indexed` jobs: the scanner holds only shared state,
/// and what a job mutates is its own collectors and counters.
#[derive(Clone, Copy)]
pub(crate) struct PartitionScanner<'a> {
    pub inner: &'a Inner,
    pub r: &'a ReadTxn,
    pub metrics: &'a ScanMetrics,
    /// Score quantized codes where the catalog has them. Exact KNN
    /// passes `false`: exact semantics are codec-independent.
    pub use_codec: bool,
    /// The index epoch at `r` (`LoadedIndex::epoch`), read once per
    /// scan: the key of every partition's cached quantization ranges.
    pub epoch: i64,
}

/// The kernel a partition's code chunks are scored with. With the
/// catalog walk that fills the chunk, it is all a codec changes in the
/// frame. (f32 rows are never batched: [`PartitionScanner::scan`]
/// scores each as the walk lends it.)
#[derive(Default)]
enum Kernel {
    /// SQ8 code rows: the batched asymmetric [`Sq8Scorer::score_chunk`]
    /// of one scorer per query, never touching the f32 payload.
    Sq8(Vec<Sq8Scorer>),
    /// One SQ4 fastscan block: [`Sq4Scorer::score_block`] of each of
    /// [`Chunk`]'s `sq4` scorers scores every slot in one in-register
    /// LUT pass and the block's directory keeps the live slots' scores
    /// (a tombstoned slot is scored and discarded — the fastscan
    /// trade-off).
    #[default]
    Sq4,
}

/// The one chunk of a partition scan: the codes awaiting a batched
/// kernel call, and the kernel's per-partition query state. A scan
/// takes a chunk from its [`BlockPool`] and puts it back, so a job
/// allocates buffers and scorers once, not once per partition.
#[derive(Default)]
pub(crate) struct Chunk<P = ()> {
    kernel: Kernel,
    /// One SQ4 scorer per query, re-prepared in place for each SQ4
    /// partition ([`Sq4Scorer::prepare`]); kept apart from `kernel` so
    /// an f32 or SQ8 partition in between does not drop them.
    sq4: Vec<Sq4Scorer>,
    /// Each row's asset and payload, in scan order.
    ids: Vec<(i64, P)>,
    /// The rows' SQ8 codes, row-major.
    codes: Vec<u8>,
    /// The directory slots the rows occupy in the SQ4 block, which is
    /// lent to [`Chunk::flush`] from its page instead of copied in.
    slots: Vec<usize>,
    /// The `nq × rows` score matrix.
    scores: Vec<f32>,
}

/// The chunks of one scan operation (see [`Chunk`]).
pub(crate) type BlockPool<P> = parking_lot::Mutex<Vec<Chunk<P>>>;

impl<P: Payload> Chunk<P> {
    /// Adds a row whose code is already in `codes`; flushes at
    /// `SCAN_CHUNK` rows.
    fn push(
        &mut self,
        (asset, at): (i64, Loc),
        heaps: &mut [impl Collect<P>],
        tally: &mut ScanTotals,
    ) {
        self.ids.push((asset, P::of(at)));
        if self.ids.len() >= SCAN_CHUNK {
            self.flush(&[], heaps, tally);
        }
    }

    /// Scores the chunk for every query into the `nq × rows` score
    /// matrix, offers each query's rows to its collector, tallies the
    /// work and empties the chunk. `block` is the SQ4 block that `slots`
    /// index; SQ8 reads the chunk's own codes and passes `&[]`.
    fn flush(&mut self, block: &[u8], heaps: &mut [impl Collect<P>], tally: &mut ScanTotals) {
        let (nr, nq) = (self.ids.len(), heaps.len());
        tally.vectors_scanned += nr;
        tally.distance_computations += nq * nr;
        // `dim` bytes per SQ8 code, and the whole SQ4 block even when
        // none of its slots is live.
        tally.bytes_scanned += self.codes.len() + block.len();
        if nr == 0 {
            return;
        }
        self.scores.clear();
        match &self.kernel {
            Kernel::Sq8(scorers) => {
                for scorer in scorers {
                    scorer.score_chunk(&self.codes, &mut self.scores);
                }
            }
            Kernel::Sq4 => {
                let mut lanes = [0.0f32; SQ4_BLOCK];
                for scorer in &self.sq4 {
                    scorer.score_block(block, &mut lanes);
                    self.scores.extend(self.slots.iter().map(|&j| lanes[j]));
                }
            }
        }
        for (heap, scores) in heaps.iter_mut().zip(self.scores.chunks_exact(nr)) {
            for (&(id, at), &d) in self.ids.iter().zip(scores) {
                heap.offer(id as u64, d, at);
            }
        }
        self.ids.clear();
        self.codes.clear();
        self.slots.clear();
    }
}

impl PartitionScanner<'_> {
    /// Scans one partition for the queries `members` (rows of the
    /// row-major `nq × dim` matrix `flat`), offering every live row to
    /// the member-aligned `heaps`; a batched code kernel scores in a
    /// chunk borrowed from `blocks`.
    ///
    /// Quantized catalogs score the partition's codes (SQ8 code rows or
    /// SQ4 blocks) when it has trained ranges; the delta store (and any
    /// partition not yet encoded by maintenance) falls through to full
    /// precision.
    pub fn scan<P: Payload>(
        &self,
        partition: i64,
        flat: &[f32],
        members: &[u32],
        heaps: &mut [impl Collect<P>],
        blocks: &BlockPool<P>,
    ) -> Result<()> {
        debug_assert_eq!(members.len(), heaps.len());
        let tally = &mut ScanTotals::default();
        let mut c = blocks.lock().pop().unwrap_or_default();
        let (inner, r, only) = (self.inner, self.r, Some(partition));
        let (tables, dim, metric) = (&inner.tables, inner.dim, inner.metric);
        let vectors = members.iter().map(|&m| &flat[m as usize * dim..][..dim]);
        match self.code_params(partition)? {
            None => {
                // Each row is scored on its pinned leaf by every
                // member's scorer and offered at once: no scan copies a
                // vector.
                let scorers: Vec<_> = vectors.map(|q| RowScorer::new(metric, q)).collect();
                let mut rows = 0;
                tables.scan_vectors(r, only, |at, asset, blob| {
                    let row = f32_row(at, blob, dim)?;
                    for (heap, scorer) in heaps.iter_mut().zip(&scorers) {
                        heap.offer(asset as u64, scorer.distance(row), P::of(at));
                    }
                    rows += 1;
                    Ok(())
                })?;
                tally.scored_f32(rows, scorers.len(), dim);
            }
            Some(params) if inner.cfg.codec.blocked() => {
                c.kernel = Kernel::Sq4;
                c.sq4.truncate(members.len());
                for (i, query) in vectors.enumerate() {
                    match c.sq4.get_mut(i) {
                        Some(scorer) => scorer.prepare(query, &params),
                        None => c.sq4.push(Sq4Scorer::new(metric, query, &params)),
                    }
                }
                tables.scan_blocks(r, only, |block| {
                    for (slot, vid, asset) in block.live() {
                        c.ids.push((asset, P::of((block.partition, vid))));
                        c.slots.push(slot);
                    }
                    c.flush(&block.packed, heaps, tally);
                    Ok(())
                })?;
            }
            Some(params) => {
                let scorers = vectors.map(|query| Sq8Scorer::new(metric, query, &params));
                c.kernel = Kernel::Sq8(scorers.collect());
                tables.scan_codes(r, only, |at, asset, code| {
                    c.codes.extend_from_slice(code);
                    c.push((asset, at), heaps, tally);
                    Ok(())
                })?;
            }
        }
        c.flush(&[], heaps, tally);
        self.metrics.absorb(tally);
        // A failed scan drops its chunk: it may hold rows.
        blocks.lock().push(c);
        Ok(())
    }

    /// The partition's trained ranges when this scan reads its codes;
    /// `None` when it reads full-precision rows.
    fn code_params(&self, partition: i64) -> Result<Option<Arc<Sq8Params>>> {
        if !self.use_codec || partition == DELTA_PARTITION {
            return Ok(None);
        }
        self.inner.partition_params(self.r, self.epoch, partition)
    }
}

/// Candidate-pool size per scan: `k` for exact payloads,
/// `rerank_factor·k` when scoring quantized codes.
pub(crate) fn scan_pool_k(inner: &Inner, k: usize, use_codec: bool) -> usize {
    if use_codec && inner.quantized() {
        k.saturating_mul(inner.cfg.rerank_factor).max(k)
    } else {
        k
    }
}

/// Exact re-rank pass of the quantized pipeline: recomputes full f32
/// distances for the approximate candidate pool and keeps the best `k`,
/// with the kernel of the exact scan, each row scored on its pinned
/// page, so F32-codec and re-ranked results agree bit-for-bit on shared
/// candidates.
///
/// Each candidate is fetched at the `(partition, vid)` its scan read it
/// from — the location is part of the snapshot `r` the scan ran at, so
/// it is the location `assets` would give — through the `vectors` point
/// reader alone: no `assets` lookup, no second reader. The heap order
/// is the scan's `(distance, asset)`, so the answer is the one the
/// `assets` lookup gave.
pub(crate) fn rerank_exact(
    inner: &Inner,
    r: &ReadTxn,
    query: &[f32],
    candidates: &[Neighbor<Loc>],
    k: usize,
    metrics: &ScanMetrics,
) -> Result<Vec<Neighbor>> {
    let mut top = TopK::new(k);
    let scorer = RowScorer::new(inner.metric, query);
    let mut fetch = inner.tables.vector_reader(r);
    let mut tally = ScanTotals::default();
    for n in candidates {
        // Delta-store candidates were scanned in full precision with
        // the same kernels: their distances are already exact, so
        // re-fetching the vector would only repeat work (and
        // double-count its bytes).
        if n.payload.0 == DELTA_PARTITION {
            top.push(n.id, n.distance);
            continue;
        }
        if let Some(d) = fetch.with(n.payload, |row| scorer.distance(row))? {
            top.push(n.id, d);
            tally.reranked += 1;
            tally.bytes_scanned += inner.dim * 4;
        }
    }
    metrics.absorb(&tally);
    let top = top.into_sorted();
    #[cfg(feature = "rerank-oracle")]
    rerank_oracle::check(inner, r, query, candidates, k, &top);
    Ok(top)
}

/// The re-rank as it was before candidates carried their location —
/// each candidate located through `assets` — kept as the oracle the
/// tests hold [`rerank_exact`] to. Compiled only with the
/// `rerank-oracle` feature (the crate's own tests enable it); armed
/// only by a test that asks, so other tests pay one atomic load per
/// re-rank.
#[cfg(feature = "rerank-oracle")]
pub mod rerank_oracle {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    use micronn_linalg::{Neighbor, TopK};
    use micronn_storage::ReadTxn;

    use crate::catalog::Loc;
    use crate::db::{Inner, DELTA_PARTITION};
    use crate::error::Result;

    static ARMED: AtomicBool = AtomicBool::new(false);
    static CHECKED: AtomicUsize = AtomicUsize::new(0);
    static MISMATCHES: parking_lot::Mutex<Vec<String>> = parking_lot::Mutex::new(Vec::new());

    /// From now on, every re-rank in this process is re-run through
    /// `assets` and compared bit for bit.
    pub fn arm() {
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Re-ranks compared so far.
    pub fn checked() -> usize {
        CHECKED.load(Ordering::SeqCst)
    }

    /// Every disagreement so far, described; drained.
    pub fn take_mismatches() -> Vec<String> {
        std::mem::take(&mut MISMATCHES.lock())
    }

    fn rerank_by_assets(
        inner: &Inner,
        r: &ReadTxn,
        query: &[f32],
        candidates: &[Neighbor<Loc>],
        k: usize,
    ) -> Result<Vec<Neighbor>> {
        let mut top = TopK::new(k);
        let mut v: Vec<f32> = Vec::with_capacity(inner.dim);
        let mut locate = inner.tables.location_reader(r);
        let mut fetch = inner.tables.vector_reader(r);
        for n in candidates {
            let Some(loc) = locate.locate(n.id as i64)? else {
                continue;
            };
            if loc.0 == DELTA_PARTITION {
                top.push(n.id, n.distance);
                continue;
            }
            v.clear();
            if fetch.append(loc, &mut v)? {
                top.push(n.id, inner.metric.distance(query, &v));
            }
        }
        Ok(top.into_sorted())
    }

    pub(super) fn check(
        inner: &Inner,
        r: &ReadTxn,
        query: &[f32],
        candidates: &[Neighbor<Loc>],
        k: usize,
        got: &[Neighbor],
    ) {
        if !ARMED.load(Ordering::SeqCst) {
            return;
        }
        CHECKED.fetch_add(1, Ordering::SeqCst);
        let bits = |ns: &[Neighbor]| -> Vec<(u64, u32)> {
            ns.iter().map(|n| (n.id, n.distance.to_bits())).collect()
        };
        let want = rerank_by_assets(inner, r, query, candidates, k).map(|w| bits(&w));
        if want.as_ref().ok() != Some(&bits(got)) {
            let got = bits(got);
            MISMATCHES
                .lock()
                .push(format!("rerank {got:?} != oracle {want:?}"));
        }
    }
}

/// Brute-force tail of the pre-filtering plan (§3.5): fetches each
/// qualifying asset's vector by key, as the filter hands the asset
/// over, and scores it on its pinned page with the partition scan's
/// kernel. 100% recall within the qualifying set.
pub(crate) struct CandidateScorer<'a> {
    top: TopK,
    scorer: RowScorer<'a>,
    locate: LocationReader<'a, ReadTxn>,
    fetch: VectorReader<'a, ReadTxn>,
    rows: usize,
}

impl<'a> CandidateScorer<'a> {
    pub fn new(inner: &'a Inner, r: &'a ReadTxn, query: &'a [f32], k: usize) -> Self {
        CandidateScorer {
            top: TopK::new(k),
            scorer: RowScorer::new(inner.metric, query),
            locate: inner.tables.location_reader(r),
            fetch: inner.tables.vector_reader(r),
            rows: 0,
        }
    }

    /// Scores `asset`'s vector; an attribute row without a vector is
    /// skipped.
    pub fn score(&mut self, asset: i64) -> Result<()> {
        let Some(loc) = self.locate.locate(asset)? else {
            return Ok(());
        };
        let scorer = &self.scorer;
        if let Some(d) = self.fetch.with(loc, |row| scorer.distance(row))? {
            self.top.push(asset as u64, d);
            self.rows += 1;
        }
        Ok(())
    }

    /// The nearest `k`, with the rows scored added to `metrics`.
    pub fn finish(self, dim: usize, metrics: &ScanMetrics) -> Vec<Neighbor> {
        let mut tally = ScanTotals::default();
        tally.scored_f32(self.rows, 1, dim);
        metrics.absorb(&tally);
        self.top.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use micronn_linalg::Metric;
    use micronn_rel::{Expr, RelError, ValueType};
    use micronn_storage::SyncMode;

    use super::*;
    use crate::codec::VectorCodec;
    use crate::config::{AttributeDef, Config};
    use crate::db::{MicroNN, VectorRecord};
    use crate::error::Error;
    use crate::hybrid::{PlanPreference, SearchRequest};

    const DIM: usize = 8;
    const K: usize = 5;

    fn vector(i: i64) -> Vec<f32> {
        (0..DIM as i64)
            .map(|d| ((i * 7 + d * 13) % 23) as f32)
            .collect()
    }

    /// A built `codec` index of 300 vectors, each with an indexed
    /// integer attribute `n`.
    fn built(dir: &tempfile::TempDir, codec: VectorCodec) -> MicroNN {
        let mut cfg = Config::new(DIM, Metric::L2);
        cfg.store.sync = SyncMode::Off;
        (cfg.codec, cfg.target_partition_size) = (codec, 30);
        cfg.attributes = vec![AttributeDef::indexed("n", ValueType::Integer)];
        let db = MicroNN::create(dir.path().join(format!("{codec}.mnn")), cfg).unwrap();
        let records: Vec<_> = (0..300)
            .map(|i| VectorRecord::new(i, vector(i)).with_attr("n", i % 3))
            .collect();
        db.upsert_batch(&records).unwrap();
        db.rebuild().unwrap();
        db
    }

    /// Every scan borrows the one chunk of its [`BlockPool`] and puts
    /// it back, so a job allocates its buffers and scorers once, not
    /// once per partition: an ANN scan of an F32 catalog, an exact scan
    /// (full precision) of a quantized one, a post-filter wave and a
    /// group scan over either all leave one chunk in the pool.
    #[test]
    fn every_scan_reuses_one_chunk() {
        let dir = tempfile::tempdir().unwrap();
        for (codec, use_codec) in [(VectorCodec::F32, true), (VectorCodec::Sq4, false)] {
            let db = built(&dir, codec);
            let inner = &*db.inner;
            let r = inner.db.begin_read();
            let index = inner.clustering(&r).unwrap().expect("a built index");
            let metrics = ScanMetrics::default();
            let scanner = PartitionScanner {
                inner,
                r: &r,
                metrics: &metrics,
                use_codec,
                epoch: index.epoch,
            };
            let blocks = BlockPool::<()>::default();
            let one_chunk = |what: &str| assert_eq!(blocks.lock().len(), 1, "{codec}: {what}");
            let flat = [vector(5), vector(6)].concat();

            let mut top = TopK::new(K);
            for &p in index.partitions.iter() {
                scanner
                    .scan(p, &flat, &[0], std::slice::from_mut(&mut top), &blocks)
                    .unwrap();
            }
            assert_eq!(top.len(), K, "{codec}");
            one_chunk("scan of every partition");

            let bound = TopK::new(K);
            let mut wave = Below {
                bound: &bound,
                rows: Vec::new(),
            };
            let first = index.partitions[0];
            scanner
                .scan(first, &flat, &[0], std::slice::from_mut(&mut wave), &blocks)
                .unwrap();
            assert!(!wave.rows.is_empty(), "{codec}");
            one_chunk("post-filter wave");

            let mut heaps = [TopK::new(K), TopK::new(K)];
            for &p in index.partitions.iter() {
                scanner
                    .scan(p, &flat, &[0, 1], &mut heaps, &blocks)
                    .unwrap();
            }
            assert_eq!(heaps[0].len(), K, "{codec}");
            assert_eq!(heaps[1].len(), K, "{codec}");
            one_chunk("group scan");
        }
    }

    /// A vector blob of the wrong length — 4 floats in a dim-8 catalog,
    /// committed straight through the writer — is a typed corruption
    /// error naming its row on every read path: the F32 scan, the exact
    /// scan, the pre-filter tail, the quantized re-rank, a batch and the
    /// point read. Never a panic, never a read past the blob.
    #[test]
    fn a_wrong_length_vector_is_a_typed_error_naming_its_row() {
        let dir = tempfile::tempdir().unwrap();
        let victim = 5;
        for codec in [VectorCodec::F32, VectorCodec::Sq4] {
            let db = built(&dir, codec);
            let inner = &*db.inner;
            let at = inner.tables.location(&inner.db.begin_read(), victim);
            let (p, vid) = at.unwrap().expect("stored");
            let mut w = inner.tables.begin_write(&inner.db).unwrap();
            w.put_vector((p, vid), victim, &[1.0; 4]).unwrap();
            w.commit().unwrap();

            let named = format!("vector row ({p},{vid}) has 16 bytes, expected 32");
            let check = |what: &str, got: Result<()>| match got {
                Err(Error::Rel(RelError::Codec(m))) => assert_eq!(m, named, "{codec} {what}"),
                other => panic!("{codec} {what}: {other:?}"),
            };
            // ANN: F32 scores the row in place; SQ4 scores its code,
            // which ranks it first, then re-ranks it.
            let query = vector(victim);
            check("search", db.search(&query, K).map(drop));
            check("exact", db.exact(&query, K, None).map(drop));
            let batch = [query.clone(), vector(victim + 1)];
            check("batch", db.batch_search(&batch, K, None).map(drop));
            let pre = SearchRequest::new(query, K)
                .with_filter(Expr::eq("n", victim % 3))
                .with_plan(PlanPreference::ForcePreFilter);
            check("pre-filter", db.search_with(&pre).map(drop));
            check("get_vector", db.get_vector(victim).map(drop));
        }
    }
}
