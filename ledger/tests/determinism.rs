//! Drives the `ledger` binary at smoke scale (2 048 rows, 4 rounds):
//! the exact counts repeat bit for bit under one seed, move under
//! another, and the output names every metric `BENCHMARK.json` lists.

use std::collections::BTreeMap;
use std::process::Command;

use micronn_ledger::report::{benchmark_json, END_TO_END, PER_LAYER};

/// One parsed result line.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

fn ledger(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .output()
        .expect("spawn ledger")
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line
        .find(key)
        .unwrap_or_else(|| panic!("{key} missing in {line}"))
        + key.len();
    let rest = &line[at..];
    &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
}

/// The result line is flat enough to take apart by hand: every metric
/// is `"name": {"value": v, "unit": "u"}`.
fn parse(stdout: &str) -> Run {
    let line = stdout.lines().last().expect("a result line");
    let (head, metrics) = line.split_once("\"metrics\": {").expect("metrics object");
    let mut out = BTreeMap::new();
    for entry in metrics.trim_end_matches('}').split("}, ") {
        let (name, body) = entry.split_once(": {").expect("metric entry");
        let value: f64 = field(body, "\"value\": ").parse().expect("numeric value");
        let unit = field(body, "\"unit\": ")
            .trim_matches(['"', '}'])
            .to_string();
        out.insert(name.trim_matches('"').to_string(), (value, unit));
    }
    Run {
        correct: field(head, "\"correct\": ") == "true",
        attempted: field(head, "\"attempted\": ").parse().expect("attempted"),
        failed: field(head, "\"failed\": ").parse().expect("failed"),
        metrics: out,
    }
}

fn smoke(workload: &str, seed: &str, trace: &str) -> Run {
    let out = ledger(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "6",
        "--trace",
        trace,
        "--scale",
        "smoke",
    ]);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(&String::from_utf8(out.stdout).expect("utf-8 stdout"))
}

const EXACT: [&str; 5] = [
    "recall_at_10",
    "scan_bytes_per_query",
    "pages_per_query",
    "space_amp",
    "write_amp",
];

#[test]
fn same_seed_repeats_exactly_and_another_seed_does_not() {
    for workload in ["warm_sq8", "tight_churn_f32"] {
        let a = smoke(workload, "11", "0");
        let b = smoke(workload, "11", "0");
        assert!(a.correct && b.correct, "{workload}");
        assert_eq!((a.failed, b.failed), (0, 0), "{workload}");
        assert_eq!(a.attempted, b.attempted, "{workload}");
        for name in EXACT {
            assert_eq!(
                a.metrics[name].0.to_bits(),
                b.metrics[name].0.to_bits(),
                "{workload}: {name} must repeat bit for bit"
            );
        }
        // The peak depends on when the allocator was sampled.
        let (pa, pb) = (a.metrics["peak_mem_mb"].0, b.metrics["peak_mem_mb"].0);
        assert!(
            pa > 0.0 && (pa / pb - 1.0).abs() < 0.01,
            "{workload}: peak {pa} vs {pb}"
        );

        let c = smoke(workload, "12", "0");
        assert!(c.correct, "{workload}");
        assert_eq!(
            a.attempted, c.attempted,
            "work is fixed by counts, not by the seed"
        );
        assert!(
            EXACT
                .iter()
                .any(|name| a.metrics[*name].0 != c.metrics[*name].0),
            "{workload}: another seed must mean other data"
        );
    }
}

#[test]
fn every_benchmark_json_metric_is_printed_with_its_unit() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `ledger --benchmark-json`"
    );
    let emitted = ledger(&["--benchmark-json"]);
    assert_eq!(String::from_utf8_lossy(&emitted.stdout), committed);

    let name_ok = |n: &str| {
        n.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    let e2e = smoke("warm_sq4", "5", "0");
    assert_eq!(e2e.metrics.len(), END_TO_END.len());
    for m in END_TO_END {
        let (value, unit) = &e2e.metrics[m.name];
        assert_eq!(unit, m.unit, "{}", m.name);
        assert!(value.is_finite() && *value > 0.0, "{} = {value}", m.name);
        assert!(committed.contains(&format!(
            "\"name\": \"{}\", \"unit\": \"{}\"",
            m.name, m.unit
        )));
        assert!(name_ok(m.name));
    }
    let layers = smoke("warm_sq4", "5", "1");
    assert!(layers.correct);
    assert_eq!(layers.metrics.len(), PER_LAYER.len());
    for m in PER_LAYER {
        let (value, unit) = &layers.metrics[m.name];
        assert_eq!(unit, m.unit, "{}", m.name);
        assert!(value.is_finite() && *value >= 0.0, "{} = {value}", m.name);
        assert!(committed.contains(&format!(
            "\"name\": \"{}\", \"unit\": \"{}\"",
            m.name, m.unit
        )));
        assert!(name_ok(m.name));
    }
    // A quantized codec reranks, and the traced run times a retrain.
    assert!(layers.metrics["core.rerank_us"].0 > 0.0);
    assert!(layers.metrics["core.retrain_count"].0 > 0.0);
    assert!(std::path::Path::new("out/trace-warm_sq4.json").is_file());
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "warm_f32", "--trace", "2"],
        &["--seed"],
        &[],
    ] {
        let out = ledger(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
