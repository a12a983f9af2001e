//! An index walk answers a comparison exactly as a full scan does.
//!
//! `IndexDef::visit_cmp` decides `column <op> literal` on the index
//! entries alone, except where an entry's key cannot stand in for the
//! row's value; those rows are checked here the way the pre-filter plan
//! probes them. The qualifying set must equal `Compiled::eval` over a
//! full scan, for every operator and a literal of every class, over
//! columns holding the values a key encodes least faithfully: NaN of
//! both signs, ±0.0, ±inf, integers around ±2^53 and at the ends of
//! `i64`, reals that share a key with an integer, text and blobs with
//! `0x00` bytes, and NULL.
//!
//! The walk also has to stay inside the literal's type class: every
//! entry it lends holds a value of that class.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use micronn_rel::{
    decode_int_key, CmpOp, ColumnDef, Database, Expr, RelError, TableSchema, Value, ValueType,
};
use micronn_storage::{StoreOptions, SyncMode};

const P53: i64 = 1 << 53;

/// Integers where the `f64` a key is ordered by stops being exact.
fn integers() -> Vec<i64> {
    vec![
        0,
        1,
        -1,
        P53 - 1,
        P53,
        P53 + 1,
        -(P53 - 1),
        -P53,
        -(P53 + 1),
        1 << 60,
        (1 << 60) + 1,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX,
        i64::MAX - 1,
    ]
}

/// Reals a key canonicalises, orders specially, or shares with an
/// integer of another value.
fn reals() -> Vec<f64> {
    let p53 = P53 as f64;
    vec![
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        p53,
        p53 + 2.0,
        -p53,
        (1u64 << 60) as f64,
        9_223_372_036_854_775_808.0, // 2^63: what i64::MAX rounds to
        -9_223_372_036_854_775_808.0,
        0.5,
        -2.5,
        1.0,
        1e300,
    ]
}

fn pick<T: Clone + std::fmt::Debug + 'static>(from: Vec<T>) -> impl Strategy<Value = T> {
    (0..from.len()).prop_map(move |i| from[i].clone())
}

fn integer() -> impl Strategy<Value = Value> {
    prop_oneof![
        pick(integers()).prop_map(Value::Integer),
        (-3i64..4).prop_map(Value::Integer),
    ]
}

fn real() -> impl Strategy<Value = Value> {
    prop_oneof![
        pick(reals()).prop_map(Value::Real),
        (-6i32..7).prop_map(|h| Value::Real(h as f64 / 2.0)),
    ]
}

fn text() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[ab]{0,2}".prop_map(Value::text),
        pick(vec!["\0", "a\0", "a\0b", "\0\0"]).prop_map(Value::text),
    ]
}

fn blob() -> impl Strategy<Value = Value> {
    proptest::collection::vec(pick(vec![0u8, 1, 0xFF]), 0..3).prop_map(Value::blob)
}

fn nullable(s: impl Strategy<Value = Value> + 'static) -> impl Strategy<Value = Value> {
    prop_oneof![1 => Just(Value::Null), 4 => s]
}

/// A row's indexed columns: `i` INTEGER, `r` REAL (which also holds
/// integers), `t` TEXT and `b` BLOB, each nullable.
fn row() -> impl Strategy<Value = [Value; 4]> {
    (
        nullable(integer()),
        nullable(prop_oneof![integer(), real()]),
        nullable(text()),
        nullable(blob()),
    )
        .prop_map(|(i, r, t, b)| [i, r, t, b])
}

fn literal() -> impl Strategy<Value = Value> {
    prop_oneof![1 => Just(Value::Null), 3 => integer(), 3 => real(), 2 => text(), 2 => blob()]
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const COLUMNS: [&str; 4] = ["i", "r", "t", "b"];

/// NULL, numeric, TEXT or BLOB.
fn class(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Integer(_) | Value::Real(_) => 1,
        Value::Text(_) => 2,
        Value::Blob(_) => 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn index_walk_equals_full_scan(
        rows in proptest::collection::vec(row(), 0..48),
        literals in proptest::collection::vec(literal(), 1..8),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let opts = StoreOptions { sync: SyncMode::Off, ..Default::default() };
        let db = Database::create(dir.path().join("db"), opts).unwrap();
        let mut txn = db.begin_write().unwrap();
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ValueType::Integer),
                ColumnDef::nullable("i", ValueType::Integer),
                ColumnDef::nullable("r", ValueType::Real),
                ColumnDef::nullable("t", ValueType::Text),
                ColumnDef::nullable("b", ValueType::Blob),
            ],
            &["id"],
        );
        let mut t = db.create_table(&mut txn, schema.unwrap()).unwrap();
        for c in COLUMNS {
            t = db.create_index(&mut txn, &t, &format!("by_{c}"), &[c]).unwrap();
        }
        for (id, cols) in rows.iter().enumerate() {
            let mut row = vec![Value::Integer(id as i64)];
            row.extend(cols.iter().cloned());
            t.upsert(&mut txn, row).unwrap();
        }
        txn.commit().unwrap();

        let r = db.begin_read();
        let scanned: BTreeMap<i64, Vec<Value>> = t
            .scan(&r)
            .unwrap()
            .map(|row| row.map(|row| (row[0].as_integer().unwrap(), row)))
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(scanned.len(), rows.len());
        for (col, name) in COLUMNS.iter().enumerate().map(|(i, c)| (i + 1, c)) {
            let index = t.index_on(&[col]).unwrap();
            for lit in &literals {
                for op in OPS {
                    let expr = Expr::Cmp { column: name.to_string(), op, value: lit.clone() };
                    let compiled = expr.compile(t.schema()).unwrap();
                    let want: BTreeSet<i64> = scanned
                        .iter()
                        .filter(|(_, row)| compiled.eval(row))
                        .map(|(&id, _)| id)
                        .collect();
                    let mut got = BTreeSet::new();
                    index
                        .visit_cmp(&r, op, lit, |decided, pk| {
                            let id = decode_int_key(pk)?;
                            let row = &scanned[&id];
                            assert_eq!(
                                class(&row[col]),
                                class(lit),
                                "{expr:?}: the walk left the literal's class at row {row:?}"
                            );
                            // An undecided entry is settled on its row.
                            if decided.unwrap_or_else(|| compiled.eval(row)) {
                                assert!(got.insert(id), "{expr:?}: row {id} lent twice");
                            }
                            Ok::<_, RelError>(())
                        })
                        .unwrap();
                    prop_assert_eq!(got, want, "{:?}", expr);
                }
            }
        }
    }
}
