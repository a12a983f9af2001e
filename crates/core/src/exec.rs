//! The unified scan-executor layer.
//!
//! Every query path in the system — single-query ANN, exhaustive exact
//! KNN, batch-MQO group scans, and both hybrid plans — compiles down
//! to the machinery in this module:
//!
//! * [`PartitionScanner`] is the shared partition-scan frame, one shape
//!   for every codec: the catalog walk lends a row from its pinned leaf
//!   page — an f32 row, an SQ8 code row, or an SQ4 block of 32 slots —
//!   each member's scorer scores it there ([`RowScorer::distance`],
//!   [`Sq8Scorer::score`], [`Sq4Scorer::score_block`]), and the score
//!   goes to that member's [`Collect`] at once, in scan order. No scan
//!   copies a row or a code. The query side of a scan is one
//!   `(flat, members)` pair: `members` index rows of the row-major query
//!   matrix `flat`, one member for a single query or a filtered wave, a
//!   partition's whole group for a batch (§3.4), each offering to its
//!   own collector among the scan worker's. Where §3.4 computes a
//!   group's distances as one matrix multiplication, a group scan here
//!   still reads each partition once, but scores each row in place per
//!   member — so a member's distances are, bit for bit, those of the
//!   same query scanned alone. The frame never reads attributes: an
//!   unfiltered scan collects into result heaps, a filtered one into
//!   [`Below`] — the rows its one heap would still accept, unprobed —
//!   and the §3.5 join
//!   ([`AttrProbe::join`](crate::hybrid::AttrProbe::join)) probes those
//!   nearest first once a wave of partitions is scored.
//! * A scan worker owns what its partition scans mutate: its collectors
//!   and a [`Scratch`] — its SQ4 scorers, re-prepared in place for each
//!   partition, and its [`ScanTotals`] tally. No lock is taken per
//!   partition scan. The query sums its workers' tallies, its re-ranks'
//!   and its joins' once, into [`QueryInfo`] and
//!   [`BatchResponse`](crate::batch::BatchResponse).
//! * [`rerank_exact`] and [`CandidateScorer`] are the two
//!   fetch-by-key scoring tails: the exact re-rank pass of the
//!   quantized pipeline and the brute-force tail of the pre-filtering
//!   plan. Both score each row on the page the point reader pinned. The
//!   re-rank fetches each candidate at the `(partition, vid)` its heap
//!   entry carries (its [`Payload`]), with no location lookup, and
//!   fetches them all in one pipelined lookup
//!   ([`VectorReader::with_many`](crate::catalog::VectorReader::with_many)):
//!   sorted by key, every candidate's descent and leaf fetch, then
//!   every cell search with its row's cache lines prefetched, then the
//!   scoring, at most 64 candidates at a time — so the memory misses of
//!   the lookups overlap instead of each waiting on the last row's
//!   scoring. The pre-filter tail fetches each asset as the filter hands
//!   it over ([`VectorReader::with`](crate::catalog::VectorReader::with)).
//!
//! Fan-out across partitions or queries is *not* handled here: call
//! sites pass per-index jobs to
//! [`ScanPool`](crate::pool::ScanPool)'s `fold_indexed` /
//! `parallel_indexed`, which own the work-stealing cursor, panic
//! propagation, and deterministic first-error capture.

use std::sync::Arc;

use micronn_linalg::{Neighbor, RowScorer, Sq4Scorer, Sq8Params, Sq8Scorer, TopK, SQ4_BLOCK};
use micronn_storage::ReadTxn;

use crate::catalog::{f32_row, Loc, LocationReader, VectorReader};
use crate::db::{Inner, LoadedIndex, DELTA_PARTITION};
use crate::error::Result;
use crate::stats::QueryInfo;

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
    /// Counts `rows` rows, `bytes` of payload read once and each row
    /// scored for `queries` queries.
    fn scored(&mut self, rows: usize, queries: usize, bytes: usize) {
        self.vectors_scanned += rows;
        self.distance_computations += queries * rows;
        self.bytes_scanned += bytes;
    }

    /// Flows the counters into a query's [`QueryInfo`].
    pub fn apply_to(&self, info: &mut QueryInfo) {
        info.vectors_scanned = self.vectors_scanned;
        info.candidates = self.candidates;
        info.filtered_out = self.filtered_out;
        info.bytes_scanned = self.bytes_scanned;
        info.reranked = self.reranked;
    }
}

impl std::ops::AddAssign for ScanTotals {
    fn add_assign(&mut self, t: ScanTotals) {
        self.vectors_scanned += t.vectors_scanned;
        self.candidates += t.candidates;
        self.filtered_out += t.filtered_out;
        self.bytes_scanned += t.bytes_scanned;
        self.reranked += t.reranked;
        self.distance_computations += t.distance_computations;
        self.filter_nanos += t.filter_nanos;
    }
}

/// What a scan worker keeps from one partition scan to the next beside
/// its collectors: its SQ4 scorers, re-prepared in place for each
/// partition ([`Sq4Scorer::prepare`]) so their lookup tables' storage
/// is built once per worker, and the tally of every scan it ran.
#[derive(Default)]
pub(crate) struct Scratch {
    pub sq4: Vec<Sq4Scorer>,
    pub tally: ScanTotals,
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

/// The scoring half of a filtered scan: appends to a scan worker's
/// `rows` the rows that `bound` — the scan's one result heap, as it
/// stood when the wave began — would accept, in scan order and
/// unprobed. The join then takes them nearest first.
pub(crate) struct Below<'h, 'r, P> {
    pub bound: &'h TopK<P>,
    pub rows: &'r mut Vec<Neighbor<P>>,
}

impl<P: Payload> Collect<P> for Below<'_, '_, P> {
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
/// from `fold_indexed` jobs: the scanner holds only shared state, and
/// what a job mutates is its worker's collectors and [`Scratch`].
#[derive(Clone, Copy)]
pub(crate) struct PartitionScanner<'a> {
    pub inner: &'a Inner,
    pub r: &'a ReadTxn,
    /// The loaded index whose ranges a quantized scan scores codes
    /// under; `None` reads full-precision rows. Exact KNN passes `None`:
    /// exact semantics are codec-independent.
    pub codes: Option<&'a LoadedIndex>,
}

impl PartitionScanner<'_> {
    /// Scans one partition for the queries `members` (rows of the
    /// row-major `nq × dim` matrix `flat`), offering every live row
    /// to each member's collector `heaps[member]` among the worker's
    /// `nq`. The catalog walk lends each f32 row, SQ8 code row or SQ4
    /// block from its pinned leaf; each member's scorer scores it there
    /// and offers the score at once. The scan counts into
    /// `scratch.tally`, and an SQ4 scan scores with `scratch.sq4`.
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
        scratch: &mut Scratch,
    ) -> Result<()> {
        // Counted in a local and added to the worker's tally once:
        // counting straight into `scratch` from the row loops measured
        // a few per cent slower on warm F32 queries.
        let (Scratch { sq4, tally: worker }, tally) = (scratch, &mut ScanTotals::default());
        let (inner, r, only) = (self.inner, self.r, Some(partition));
        let (tables, dim, metric) = (&inner.tables, inner.dim, inner.metric);
        let vectors = members.iter().map(|&m| &flat[m as usize * dim..][..dim]);
        match self.code_params(partition)? {
            None => {
                let scorers: Vec<_> = vectors.map(|q| RowScorer::new(metric, q)).collect();
                tables.scan_vectors(r, only, |at, asset, blob| {
                    let row = f32_row(at, blob, dim)?;
                    for (&m, scorer) in members.iter().zip(&scorers) {
                        heaps[m as usize].offer(asset as u64, scorer.distance(row), P::of(at));
                    }
                    tally.scored(1, scorers.len(), 4 * dim);
                    Ok(())
                })?;
            }
            Some(params) if inner.cfg.codec.blocked() => {
                sq4.truncate(members.len());
                for (i, query) in vectors.enumerate() {
                    match sq4.get_mut(i) {
                        Some(scorer) => scorer.prepare(query, &params),
                        None => sq4.push(Sq4Scorer::new(metric, query, &params)),
                    }
                }
                let mut lanes = [0.0f32; SQ4_BLOCK];
                let mut live = [(0, 0, P::default()); SQ4_BLOCK];
                tables.scan_blocks(r, only, |block| {
                    // Each live slot's directory entry, decoded once for
                    // every member. The whole packed block counts as
                    // read even when no slot is live; a tombstoned slot
                    // is scored with the rest and dropped.
                    let mut n = 0;
                    for (slot, vid, asset) in block.live() {
                        live[n] = (slot, asset as u64, P::of((block.partition, vid)));
                        n += 1;
                    }
                    tally.scored(n, sq4.len(), block.packed.len());
                    if n == 0 {
                        return Ok(());
                    }
                    for (&m, scorer) in members.iter().zip(&*sq4) {
                        scorer.score_block(&block.packed, &mut lanes);
                        let heap = &mut heaps[m as usize];
                        for &(slot, id, at) in &live[..n] {
                            heap.offer(id, lanes[slot], at);
                        }
                    }
                    Ok(())
                })?;
            }
            Some(params) => {
                let scorers: Vec<_> = vectors
                    .map(|q| Sq8Scorer::new(metric, q, &params))
                    .collect();
                tables.scan_codes(r, only, |at, asset, code| {
                    for (&m, scorer) in members.iter().zip(&scorers) {
                        heaps[m as usize].offer(asset as u64, scorer.score(code), P::of(at));
                    }
                    tally.scored(1, scorers.len(), dim);
                    Ok(())
                })?;
            }
        }
        *worker += *tally;
        Ok(())
    }

    /// The partition's trained ranges when this scan reads its codes;
    /// `None` when it reads full-precision rows.
    fn code_params(&self, partition: i64) -> Result<Option<Arc<Sq8Params>>> {
        match self.codes {
            Some(index) if partition != DELTA_PARTITION => {
                index.params(&self.inner.tables, self.r, partition)
            }
            _ => Ok(None),
        }
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

/// The order [`rerank_exact`] takes its candidates in: the delta
/// store's first, then the rest ascending by location — the order their
/// rows are fetched in.
pub(crate) fn fetch_order(n: &Neighbor<Loc>) -> (bool, Loc) {
    (n.payload.0 != DELTA_PARTITION, n.payload)
}

/// Exact re-rank pass of the quantized pipeline: recomputes full f32
/// distances for the approximate candidate pool and keeps the best `k`,
/// with the kernel of the exact scan, each row scored on its pinned
/// page, so F32-codec and re-ranked results agree bit-for-bit on shared
/// candidates. Returns them with what the pass read.
///
/// Each candidate is fetched at the `(partition, vid)` its scan read it
/// from — the location is part of the snapshot `r` the scan ran at, so
/// it is the location `assets` would give — through the `vectors` point
/// reader alone: no `assets` lookup, no second reader. The candidates
/// come in [`fetch_order`], so in key order neighbouring candidates
/// find their interiors and leaves already in the CPU caches, and are
/// fetched in one pipelined many-key lookup
/// ([`VectorReader::with_many`]); a missing row is skipped. The heap
/// order is the scan's total `(distance, asset)`, so the order the
/// rows arrive in does not matter and the answer is the one the
/// `assets` lookup gave.
pub(crate) fn rerank_exact(
    inner: &Inner,
    r: &ReadTxn,
    query: &[f32],
    candidates: &[Neighbor<Loc>],
    k: usize,
) -> Result<(Vec<Neighbor>, ScanTotals)> {
    debug_assert!((candidates.windows(2)).all(|w| fetch_order(&w[0]) <= fetch_order(&w[1])));
    let mut top = TopK::new(k);
    let scorer = RowScorer::new(inner.metric, query);
    // Delta-store candidates were scanned in full precision with the
    // same kernels: their distances are already exact, so re-fetching
    // the vector would only repeat work (and double-count its bytes).
    let stored = candidates.partition_point(|n| n.payload.0 == DELTA_PARTITION);
    for n in &candidates[..stored] {
        top.push(n.id, n.distance);
    }
    let mut tally = ScanTotals::default();
    let mut fetch = inner.tables.vector_reader(r);
    fetch.with_many(
        &candidates[stored..],
        |n| n.payload,
        |n, row| {
            top.push(n.id, scorer.distance(row));
            tally.reranked += 1;
            tally.bytes_scanned += inner.dim * 4;
            Ok(())
        },
    )?;
    let top = top.into_sorted();
    #[cfg(feature = "rerank-oracle")]
    rerank_oracle::check(inner, r, query, candidates, k, &top);
    Ok((top, tally))
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

    /// The nearest `k`, with what scoring them read.
    pub fn finish(self, dim: usize) -> (Vec<Neighbor>, ScanTotals) {
        let mut tally = ScanTotals::default();
        tally.scored(self.rows, 1, self.rows * 4 * dim);
        (self.top.into_sorted(), tally)
    }
}

#[cfg(test)]
mod tests {
    use micronn_linalg::Metric;
    use micronn_rel::{Expr, RelError, ValueType};
    use micronn_storage::SyncMode;

    use crate::catalog::Block;
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

    /// A stored row of the wrong length, committed straight through the
    /// writer, is a typed corruption error naming its row, never a panic
    /// or a read past the blob. A vector of 4 floats in a dim-8 catalog
    /// fails every read path: the F32 scan, the quantized re-rank, a
    /// batch, the exact scan, the pre-filter tail and the point read. A
    /// 4-byte SQ8 code row or SQ4 block payload fails the quantized scan
    /// of a search and of a batch; the paths that read only vectors
    /// still answer.
    #[test]
    fn a_wrong_length_vector_is_a_typed_error_naming_its_row() {
        let dir = tempfile::tempdir().unwrap();
        let victim = 5;
        for codec in [VectorCodec::F32, VectorCodec::Sq8, VectorCodec::Sq4] {
            let db = built(&dir, codec);
            let inner = &*db.inner;
            let at = inner.tables.location(&inner.db.begin_read(), victim);
            let (p, vid) = at.unwrap().expect("stored");
            let put_vector = |v: &[f32]| {
                let mut w = inner.tables.begin_write(&inner.db).unwrap();
                w.put_vector((p, vid), victim, v).unwrap();
                w.commit().unwrap();
            };
            let query = vector(victim);
            let batch = [query.clone(), vector(victim + 1)];
            let pre = SearchRequest::new(query.clone(), K)
                .with_filter(Expr::eq("n", victim % 3))
                .with_plan(PlanPreference::ForcePreFilter);
            // Each read path fails with `named`, or answers when it
            // reads no codes and `codes_only`.
            let fails = |named: &str, codes_only: bool| {
                let paths = [
                    ("search", db.search(&query, K).map(drop)),
                    ("batch", db.batch_search(&batch, K, None).map(drop)),
                    ("exact", db.exact(&query, K, None).map(drop)),
                    ("pre-filter", db.search_with(&pre).map(drop)),
                    ("get_vector", db.get_vector(victim).map(drop)),
                ];
                for (what, got) in paths {
                    let reads_codes = matches!(what, "search" | "batch");
                    match got {
                        Ok(()) if codes_only && !reads_codes => {}
                        Err(Error::Rel(RelError::Codec(m))) if m == named => {}
                        other => panic!("{codec} {what}: {other:?}, expected {named}"),
                    }
                }
            };
            // ANN: F32 scores the row in place; SQ8 and SQ4 score its
            // code, which ranks it first, then re-rank it.
            put_vector(&[1.0; 4]);
            let named = format!("vector row ({p},{vid}) has 16 bytes, expected 32");
            fails(&named, false);
            if codec == VectorCodec::F32 {
                continue;
            }

            // The vector whole again, the victim's code row, or its
            // partition's first SQ4 block, gets a 4-byte payload.
            put_vector(&vector(victim));
            let mut w = inner.tables.begin_write(&inner.db).unwrap();
            let named = if codec == VectorCodec::Sq8 {
                w.put_code((p, vid), victim, &[1; 4]).unwrap();
                format!("code row ({p},{vid}) has 4 bytes, expected 8")
            } else {
                let id = inner.tables.code_keys(&w, p).unwrap()[0];
                let mut short = Block::empty(p, id, DIM);
                short.packed = vec![1; 4].into();
                w.put_block(short).unwrap();
                let sizes = "members/packed bytes (512, 4), expected (512, 128)";
                format!("sq4 block ({p},{id}) has {sizes}")
            };
            w.commit().unwrap();
            fails(&named, true);
        }
    }
}
