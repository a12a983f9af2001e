//! Seeded input generation: base rows, queries and the write script.
//!
//! Everything here is a pure function of `(seed, scale, workload
//! shape)` and is produced before the database is opened; the system
//! under test only ever sees the generated inputs.

use micronn::{Value, VectorRecord};
use micronn_datasets::gaussian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{Model, Op};

/// Vector dimensionality of every workload.
pub const DIM: usize = 128;
/// Neighbours requested by every query.
pub const K: usize = 10;
/// Partitions probed by every ANN query.
pub const PROBES: usize = 8;
/// The indexed Integer attribute is uniform in `0..BUCKETS`.
pub const BUCKETS: i64 = 1000;
/// Name of the indexed attribute.
pub const BUCKET_ATTR: &str = "bucket";
/// `bucket < 300`: the 30 % post-filter predicate.
pub const POST_FILTER_BELOW: i64 = 300;
/// `bucket < 5`: the 0.5 % pre-filter predicate.
pub const PRE_FILTER_BELOW: i64 = 5;
/// `upsert_batch` chunks of a from-scratch build.
pub const BUILD_CHUNKS: usize = 8;
/// Inserts of the churn script land near this many base rows.
const HOT_CLUSTERS: usize = 8;
/// Mixture components of the clustered generator.
const MIXTURE: usize = 32;
/// Within-component standard deviation.
const SPREAD: f32 = 0.15;
/// Seeds the mixture's centres, the same for every run: see
/// [`clustered`].
const STRUCTURE_SEED: u64 = 0x4D49_4352_4F4E_4E31;

/// How much work one run does. Work is fixed by these counts, never by
/// a timer, so every count the run reports repeats exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Base rows ingested by every from-scratch build.
    pub rows: usize,
    /// Distinct query vectors.
    pub queries: usize,
    /// Queries per `batch_search` call.
    pub batch: usize,
    /// Queries probed cold (`purge_caches()` then one query).
    pub cold_queries: usize,
    /// Cold probes run every this many rounds.
    pub cold_every: usize,
    /// Repeats of each cold probe inside one cold round.
    pub cold_repeats: usize,
    /// From-scratch builds timed for `setup_s`.
    pub builds: usize,
    /// Replace-upserts per round of a warm workload.
    pub warm_writes: usize,
    /// Scripted ops per round of the churn workload.
    pub churn_writes: usize,
}

impl Scale {
    /// The committed benchmark scale.
    pub const FULL: Scale = Scale {
        rows: 16_384,
        queries: 256,
        batch: 64,
        cold_queries: 32,
        cold_every: 5,
        cold_repeats: 5,
        builds: 5,
        warm_writes: 32,
        churn_writes: 512,
    };

    /// The determinism test's scale.
    pub const SMOKE: Scale = Scale {
        rows: 2_048,
        queries: 32,
        batch: 16,
        cold_queries: 4,
        cold_every: 2,
        cold_repeats: 1,
        builds: 2,
        warm_writes: 8,
        churn_writes: 128,
    };
}

/// The write script's shape for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteShape {
    /// Every slot replaces a live row with a perturbed copy.
    Replace,
    /// Slot pattern 3 replace : 1 insert near a hot cluster : 1
    /// uniform delete.
    Churn,
}

/// Everything a run feeds the database.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The base rows as ingest chunks, reused by every build.
    pub chunks: Vec<Vec<VectorRecord>>,
    /// The same rows as model ops, in ingest order.
    pub base: Vec<Op>,
    /// Query vectors.
    pub queries: Vec<Vec<f32>>,
    /// `script[round][slot]`: the same op type sits at the same slot
    /// in every round.
    pub script: Vec<Vec<Op>>,
}

impl Inputs {
    /// Generates the inputs of one run.
    pub fn generate(seed: u64, scale: &Scale, shape: WriteShape, rounds: usize) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let centres = mixture_centres();
        let vectors = clustered(&mut rng, &centres, scale.rows);
        // Stratified buckets: a seeded shuffle of 0..rows taken modulo
        // BUCKETS, so every bucket holds rows/BUCKETS rows (±1) and a
        // filter's selectivity does not wobble with the seed.
        let mut order: Vec<usize> = (0..scale.rows).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let base: Vec<Op> = vectors
            .into_iter()
            .zip(order)
            .enumerate()
            .map(|(i, (vector, slot))| Op::Upsert {
                id: i as i64,
                vector,
                bucket: slot as i64 % BUCKETS,
            })
            .collect();
        let per_chunk = scale.rows.div_ceil(BUILD_CHUNKS);
        let chunks = base
            .chunks(per_chunk)
            .map(|c| c.iter().map(record).collect())
            .collect();
        let queries = clustered(&mut rng, &centres, scale.queries);
        let script = write_script(&mut rng, &base, scale, shape, rounds);
        Inputs {
            chunks,
            base,
            queries,
            script,
        }
    }

    /// A model holding exactly the base rows.
    pub fn base_model(&self) -> Model {
        let mut m = Model::new(DIM);
        for op in &self.base {
            m.apply(op);
        }
        m
    }
}

/// The clustered generator: a Gaussian mixture in the style of
/// `micronn_datasets::generate`, with one difference that matters on
/// this benchmark. That generator draws the mixture's centres and each
/// component's population from the seed, so the *shape* of the index
/// (partition sizes, how many rows eight probes cover) moves with the
/// seed: `scan_bytes_per_query` differed by 5.5 % between seeds, and
/// every latency with it. Here the centres are fixed and vector `i`
/// belongs to component `i % MIXTURE`, so every seed builds the same
/// mixture with equal populations and only the draws around the
/// centres differ.
fn mixture_centres() -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(STRUCTURE_SEED);
    (0..MIXTURE)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

fn clustered(rng: &mut StdRng, centres: &[Vec<f32>], n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| perturbed(rng, &centres[i % centres.len()], SPREAD))
        .collect()
}

/// The database record of an upsert op.
pub fn record(op: &Op) -> VectorRecord {
    match op {
        Op::Upsert { id, vector, bucket } => {
            VectorRecord::new(*id, vector.clone()).with_attr(BUCKET_ATTR, Value::Integer(*bucket))
        }
        Op::Delete { .. } => unreachable!("only upserts become records"),
    }
}

/// User bytes one op carries: the vector plus its attribute for an
/// upsert, nothing for a delete.
pub fn user_bytes(op: &Op) -> u64 {
    match op {
        Op::Upsert { .. } => ROW_USER_BYTES,
        Op::Delete { .. } => 0,
    }
}

/// User bytes of one live row: `4·dim` plus the 8-byte attribute.
pub const ROW_USER_BYTES: u64 = (4 * DIM + 8) as u64;

fn write_script(
    rng: &mut StdRng,
    base: &[Op],
    scale: &Scale,
    shape: WriteShape,
    rounds: usize,
) -> Vec<Vec<Op>> {
    // The script depends on which rows are live and what they hold, so
    // it is generated against a scratch model.
    let mut model = Model::new(DIM);
    let mut live: Vec<i64> = Vec::with_capacity(base.len());
    for op in base {
        model.apply(op);
        live.push(op.id());
    }
    let hot: Vec<Vec<f32>> = (0..HOT_CLUSTERS)
        .map(|_| {
            let id = live[rng.gen_range(0..live.len())];
            model.vector(id).expect("base row is live").to_vec()
        })
        .collect();
    let slots = match shape {
        WriteShape::Replace => scale.warm_writes,
        WriteShape::Churn => scale.churn_writes,
    };
    let mut next_id = base.len() as i64;
    let mut script = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut round = Vec::with_capacity(slots);
        for slot in 0..slots {
            let kind = match shape {
                WriteShape::Replace => 0,
                WriteShape::Churn => slot % 5,
            };
            let op = match kind {
                0..=2 => {
                    let id = live[rng.gen_range(0..live.len())];
                    Op::Upsert {
                        id,
                        vector: perturbed(rng, model.vector(id).expect("live"), 0.1 * SPREAD),
                        bucket: model.bucket(id).expect("live"),
                    }
                }
                3 => {
                    let id = next_id;
                    next_id += 1;
                    live.push(id);
                    let centre = &hot[rng.gen_range(0..hot.len())];
                    Op::Upsert {
                        id,
                        vector: perturbed(rng, centre, 0.5 * SPREAD),
                        bucket: rng.gen_range(0..BUCKETS),
                    }
                }
                _ => {
                    let at = rng.gen_range(0..live.len());
                    Op::Delete {
                        id: live.swap_remove(at),
                    }
                }
            };
            model.apply(&op);
            round.push(op);
        }
        script.push(round);
    }
    script
}

fn perturbed(rng: &mut StdRng, v: &[f32], sigma: f32) -> Vec<f32> {
    v.iter().map(|x| x + sigma * gaussian(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_data() {
        let a = Inputs::generate(7, &Scale::SMOKE, WriteShape::Churn, 3);
        let b = Inputs::generate(7, &Scale::SMOKE, WriteShape::Churn, 3);
        assert_eq!(a.base, b.base);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.script, b.script);
        let c = Inputs::generate(8, &Scale::SMOKE, WriteShape::Churn, 3);
        assert_ne!(a.base, c.base);
        assert_ne!(a.queries, c.queries);
        assert_ne!(a.script, c.script);
    }

    #[test]
    fn churn_slots_keep_their_op_type_and_stay_valid() {
        let scale = Scale::SMOKE;
        let inputs = Inputs::generate(3, &scale, WriteShape::Churn, 4);
        assert_eq!(inputs.chunks.len(), BUILD_CHUNKS);
        assert_eq!(
            inputs.chunks.iter().map(Vec::len).sum::<usize>(),
            scale.rows
        );
        let mut model = inputs.base_model();
        assert_eq!(model.len(), scale.rows);
        for round in &inputs.script {
            assert_eq!(round.len(), scale.churn_writes);
            for (slot, op) in round.iter().enumerate() {
                match (slot % 5, op) {
                    (0..=2, Op::Upsert { id, .. }) => assert!(model.is_live(*id), "replace"),
                    (3, Op::Upsert { id, .. }) => assert!(!model.is_live(*id), "insert"),
                    (4, Op::Delete { id }) => assert!(model.is_live(*id), "delete"),
                    other => panic!("slot pattern broken: {other:?}"),
                }
                model.apply(op);
            }
        }
        let warm = Inputs::generate(3, &scale, WriteShape::Replace, 2);
        assert!(warm
            .script
            .iter()
            .flatten()
            .all(|op| matches!(op, Op::Upsert { id, .. } if (*id as usize) < scale.rows)));
    }
}
