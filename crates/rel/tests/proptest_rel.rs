//! Property-based tests for the relational codecs and table layer:
//! key-encoding order preservation, row roundtrips, and table/index
//! consistency under random workloads.

use proptest::prelude::*;

use micronn_rel::{
    decode_key, decode_row, encode_key, encode_row, ColumnDef, Database, TableSchema, Value,
    ValueType,
};
use micronn_storage::{StoreOptions, SyncMode};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Integer),
        // Finite reals only: NaN has no semantic order to check against.
        (-1e100f64..1e100).prop_map(Value::Real),
        "[a-z0-9 ]{0,12}".prop_map(Value::text),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::blob),
    ]
}

fn tuple_strategy() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(value_strategy(), 1..4)
}

fn tuple_cmp(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Equal => continue,
            o => return o,
        }
    }
    a.len().cmp(&b.len())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn key_encoding_preserves_tuple_order(a in tuple_strategy(), b in tuple_strategy()) {
        let ka = encode_key(&a);
        let kb = encode_key(&b);
        let semantic = tuple_cmp(&a, &b);
        // Equal-sorting distinct values (Integer(2) vs Real(2.0)) are
        // permitted to collide; strict orders must be preserved.
        if semantic != std::cmp::Ordering::Equal && ka != kb {
            prop_assert_eq!(ka.cmp(&kb), semantic, "{:?} vs {:?}", a, b);
        }
    }

    #[test]
    fn key_decode_is_inverse_up_to_canonical_form(t in tuple_strategy()) {
        let k = encode_key(&t);
        let decoded = decode_key(&k).unwrap();
        // Canonical form may turn Real(2.0) into Integer(2); re-encoding
        // must reproduce the identical key bytes.
        prop_assert_eq!(encode_key(&decoded), k);
        prop_assert_eq!(decoded.len(), t.len());
    }

    #[test]
    fn row_roundtrip(t in proptest::collection::vec(value_strategy(), 0..8)) {
        prop_assert_eq!(decode_row(&encode_row(&t)).unwrap(), t);
    }
}

/// The full-text column's values: few tokens, so documents share them.
const TAGS: [&str; 6] = ["x", "y", "z", "x y", "y z", "x z"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn table_and_index_stay_consistent(
        ops in proptest::collection::vec(
            (0u8..4, 0i64..60, "[a-c]{1}", 0usize..TAGS.len(), proptest::option::of(0i64..5)),
            1..120,
        )
    ) {
        let dir = tempfile::tempdir().unwrap();
        let db = Database::create(
            dir.path().join("db"),
            StoreOptions { sync: SyncMode::Off, ..Default::default() },
        ).unwrap();
        let mut txn = db.begin_write().unwrap();
        let t = db.create_table(&mut txn, TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ValueType::Integer),
                ColumnDef::new("cat", ValueType::Text),
                ColumnDef::nullable("n", ValueType::Integer),
                ColumnDef::new("tags", ValueType::Text),
            ],
            &["id"],
        ).unwrap()).unwrap();
        let t = db.create_index(&mut txn, &t, "by_cat", &["cat"]).unwrap();
        let t = db.create_fts_index(&mut txn, &t, "tags").unwrap();

        type Row = (String, Option<i64>, String);
        let mut model: std::collections::BTreeMap<i64, Row> = std::collections::BTreeMap::new();
        for (op, id, cat, tags, n) in ops {
            match op {
                0..=2 => {
                    // Op 2 re-upserts an existing row with only `n`
                    // changed, so replaces that keep the indexed and
                    // full-text values are common.
                    let (cat, tags) = match model.get(&id) {
                        Some((c, _, t)) if op == 2 => (c.clone(), t.clone()),
                        _ => (cat, TAGS[tags].to_string()),
                    };
                    let row = vec![
                        Value::Integer(id),
                        Value::text(cat.clone()),
                        n.map(Value::Integer).unwrap_or(Value::Null),
                        Value::text(tags.clone()),
                    ];
                    let old = t.upsert(&mut txn, row).unwrap();
                    let model_old = model.insert(id, (cat, n, tags));
                    prop_assert_eq!(old.is_some(), model_old.is_some());
                }
                _ => {
                    let old = t.delete(&mut txn, &[Value::Integer(id)]).unwrap();
                    prop_assert_eq!(old.is_some(), model.remove(&id).is_some());
                }
            }
        }
        // Row count, full scan, and index contents all match the model.
        prop_assert_eq!(t.row_count(&txn).unwrap(), model.len() as u64);
        let rows: Vec<Vec<Value>> = t.scan(&txn).unwrap().collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(rows.len(), model.len());
        for row in &rows {
            let id = row[0].as_integer().unwrap();
            let (cat, n, tags) = model.get(&id).unwrap();
            prop_assert_eq!(row[1].as_text().unwrap(), cat);
            prop_assert_eq!(row[2].as_integer(), *n);
            prop_assert_eq!(row[3].as_text().unwrap(), tags);
        }
        let ids = |mut pks: Vec<Vec<Value>>| {
            pks.sort_by_key(|pk| pk[0].as_integer());
            pks.into_iter().map(|pk| pk[0].as_integer().unwrap()).collect::<Vec<_>>()
        };
        // The index holds exactly the model's primary keys per category.
        let idx = t.index_on(&[1]).unwrap();
        for cat in ["a", "b", "c"] {
            let at = Value::text(cat);
            let got = ids(idx.lookup_range(&txn, Some(&at), Some(&at), false, false).unwrap());
            let want: Vec<i64> = model.iter().filter(|(_, r)| r.0 == cat).map(|(id, _)| *id).collect();
            prop_assert_eq!(got, want, "category {}", cat);
        }
        // Postings and document frequencies match per token.
        let fts = t.fts_on(3).unwrap();
        for token in ["x", "y", "z"] {
            let want: Vec<i64> = model
                .iter()
                .filter(|(_, r)| r.2.split(' ').any(|w| w == token))
                .map(|(id, _)| *id)
                .collect();
            prop_assert_eq!(fts.df(&txn, token).unwrap(), want.len() as u64, "df {}", token);
            prop_assert_eq!(ids(fts.match_pks(&txn, token).unwrap()), want, "token {}", token);
        }
        txn.commit().unwrap();
    }
}
