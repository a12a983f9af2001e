//! The pre-filter plan returns the filtered exact answer.
//!
//! A forced pre-filter query decides an indexed comparison on the index
//! entries, probes the rows whose entry cannot decide it, and evaluates
//! any other predicate on the `attrs` rows in place. The reference is
//! `exact(query, k, Some(filter))`: every stored vector scored, each
//! row's attributes checked by the compiled predicate. Both must agree
//! bit for bit, ids and f32 distance bits, for F32 and SQ4 indexes with
//! a live delta, over attribute values a key encodes least faithfully
//! (NaN, ±0.0, ±inf, integers and reals around 2^53, NULL, text with
//! `0x00`), for every operator and a literal of every class, on an
//! indexed REAL, an indexed TEXT and an unindexed INTEGER column.

use std::sync::OnceLock;

use proptest::prelude::*;

use micronn::{
    AttributeDef, Config, Expr, Metric, MicroNN, PlanPreference, PlanUsed, SearchRequest,
    SearchResult, SyncMode, Value, ValueType, VectorCodec, VectorRecord,
};

const DIM: usize = 8;
const INDEXED: usize = 240;
const STAGED: usize = 30;
const P53: i64 = 1 << 53;

/// splitmix64.
fn mix(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Numerics where a key stops standing in for its value, or orders it
/// specially; some appear as both an integer and a real.
fn numerics() -> Vec<Value> {
    let p53 = P53 as f64;
    vec![
        Value::Null,
        Value::Integer(0),
        Value::Integer(2),
        Value::Integer(-3),
        Value::Integer(P53 - 1),
        Value::Integer(P53),
        Value::Integer(P53 + 1),
        Value::Integer(-(P53 + 1)),
        Value::Integer(1 << 60),
        Value::Integer((1 << 60) + 1),
        Value::Integer(i64::MIN),
        Value::Integer(i64::MAX),
        Value::Real(f64::NAN),
        Value::Real(-f64::NAN),
        Value::Real(0.0),
        Value::Real(-0.0),
        Value::Real(2.0),
        Value::Real(2.5),
        Value::Real(-3.5),
        Value::Real(f64::INFINITY),
        Value::Real(f64::NEG_INFINITY),
        Value::Real(p53),
        Value::Real(p53 + 2.0),
        Value::Real((1u64 << 60) as f64),
    ]
}

fn texts() -> Vec<Value> {
    ["", "a", "a\0", "a\0b", "ab", "b", "\0"]
        .into_iter()
        .map(Value::text)
        .chain([Value::Null])
        .collect()
}

fn of(from: &[Value], x: u64) -> Value {
    from[(x % from.len() as u64) as usize].clone()
}

fn config(codec: VectorCodec) -> Config {
    let mut c = Config::new(DIM, Metric::L2);
    c.store.sync = SyncMode::Off;
    c.target_partition_size = 30;
    c.codec = codec;
    c.attributes = vec![
        AttributeDef::indexed("r", ValueType::Real),
        AttributeDef::indexed("t", ValueType::Text),
        AttributeDef::new("n", ValueType::Integer),
    ];
    c
}

fn unit(x: u64) -> f32 {
    (mix(x) >> 40) as f32 / (1u64 << 24) as f32
}

/// A point near one of 8 centres.
fn vector(i: u64) -> Vec<f32> {
    let centre = mix(i) % 8;
    (0..DIM as u64)
        .map(|j| unit(centre * 31 + j) * 4.0 + unit(i ^ j << 40) * 0.3)
        .collect()
}

fn record(i: usize) -> VectorRecord {
    let s = mix(i as u64 ^ 0xF17E);
    let n = match of(&numerics(), s >> 8) {
        Value::Real(_) => Value::Null,
        v => v,
    };
    VectorRecord::new(i as i64, vector(i as u64))
        .with_attr("r", of(&numerics(), s))
        .with_attr("t", of(&texts(), s >> 16))
        .with_attr("n", n)
}

/// One index per codec, indexed partitions plus a live delta, built
/// once for every case.
fn index(codec: VectorCodec) -> &'static MicroNN {
    static DBS: OnceLock<Vec<(VectorCodec, tempfile::TempDir, MicroNN)>> = OnceLock::new();
    let dbs = DBS.get_or_init(|| {
        [VectorCodec::F32, VectorCodec::Sq4]
            .into_iter()
            .map(|codec| {
                let dir = tempfile::tempdir().unwrap();
                let db = MicroNN::create(dir.path().join("db.mnn"), config(codec)).unwrap();
                db.upsert_batch(&(0..INDEXED).map(record).collect::<Vec<_>>())
                    .unwrap();
                db.rebuild().unwrap();
                let staged: Vec<_> = (INDEXED..INDEXED + STAGED).map(record).collect();
                db.upsert_batch(&staged).unwrap();
                (codec, dir, db)
            })
            .collect()
    });
    &dbs.iter().find(|(c, ..)| *c == codec).unwrap().2
}

/// `column <op> value`, the operator by number: = != < <= > >=.
fn cmp(op: usize, column: &str, value: Value) -> Expr {
    [Expr::eq, Expr::ne, Expr::lt, Expr::le, Expr::gt, Expr::ge][op](column, value)
}

fn bits(r: &[SearchResult]) -> Vec<(i64, u32)> {
    r.iter()
        .map(|r| (r.asset_id, r.distance.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn forced_pre_filter_equals_filtered_exact(
        codec in prop_oneof![Just(VectorCodec::F32), Just(VectorCodec::Sq4)],
        column in 0usize..3,
        op in 0usize..6,
        pick in any::<u64>(),
        k in 1usize..25,
        q in any::<u64>(),
    ) {
        let db = index(codec);
        let column = ["r", "t", "n"][column];
        let literals: Vec<Value> = numerics().into_iter().chain(texts()).collect();
        let filter = cmp(op, column, of(&literals, pick));
        let query = vector(q);
        let want = db.exact(&query, k, Some(&filter)).unwrap();
        let req = SearchRequest::new(query, k)
            .with_filter(filter.clone())
            .with_plan(PlanPreference::ForcePreFilter);
        let got = db.search_with(&req).unwrap();
        prop_assert_eq!(got.info.plan, PlanUsed::PreFilter);
        prop_assert_eq!(bits(&got.results), bits(&want.results), "{:?} {:?} k {}", codec, filter, k);
    }
}
