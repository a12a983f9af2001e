//! Figure 6: index construction time (a) and memory (b) — InMemory
//! (the same build with every page kept in memory, peak over ingest,
//! build and warm-up) vs MicroNN (bounded pool and spill, §4.2.2).
//!
//! Expected shape (paper): construction *time* comparable (clustering
//! is compute-bound either way); construction *memory* 4–60× smaller
//! for MicroNN because vectors are never buffered.

use micronn::DeviceProfile;
use micronn_bench::{build_resident, ingest, mib, scaled_specs, TrackingAlloc};
use micronn_datasets::generate;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn main() {
    let specs = scaled_specs();
    println!(
        "Figure 6: index construction time and memory — scale {}\n",
        micronn_bench::bench_scale()
    );
    let widths = [12usize, 8, 12, 12, 14, 14, 8];
    micronn_bench::print_header(
        &[
            "dataset",
            "n",
            "mem t(s)",
            "micro t(s)",
            "mem peak MiB",
            "micro peak MiB",
            "ratio",
        ],
        &widths,
    );
    for spec in &specs {
        let dataset = generate(spec);

        // --- InMemory: every page the build writes stays in memory ----
        TrackingAlloc::reset_peak();
        let base = TrackingAlloc::live();
        let (mem_index, mem_report) = build_resident(&dataset, DeviceProfile::Small, 100);
        let mem_peak = TrackingAlloc::peak().saturating_sub(base);
        drop(mem_index);

        // --- MicroNN: ingest first (not timed as "construction" — the
        // paper measures building the IVF index from stored vectors),
        // then measure the rebuild.
        // On-device construction: the Small profile bounds both the
        // page cache (4 MiB) and the write-txn spill budget (2 MiB).
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = micronn::Config::new(spec.dim, spec.metric);
        cfg.store = DeviceProfile::Small.store_options();
        cfg.target_partition_size = 100;
        let db = micronn::MicroNN::create(dir.path().join("b.mnn"), cfg).unwrap();
        ingest(&db, &dataset);
        db.purge_caches();
        TrackingAlloc::reset_peak();
        let base = TrackingAlloc::live();
        let (report, micro_time) = micronn_bench::time(|| db.rebuild().expect("rebuild"));
        let micro_peak = TrackingAlloc::peak().saturating_sub(base);

        let ratio = mem_peak as f64 / micro_peak.max(1) as f64;
        micronn_bench::print_row(
            &[
                spec.name.to_string(),
                dataset.len().to_string(),
                format!("{:.2}", mem_report.total_time.as_secs_f64()),
                format!("{:.2}", micro_time.as_secs_f64()),
                mib(mem_peak),
                mib(micro_peak),
                format!("{ratio:.1}x"),
            ],
            &widths,
        );
        assert!(report.partitions > 0);
        // InMemory construction must buffer all vectors; the streaming
        // build is bounded by its mini-batch + spill budgets. The
        // superiority claim kicks in once the raw data outgrows those
        // fixed buffers (always true at paper scale).
        let raw_bytes = dataset.vectors.len() * 4;
        // pool (4) + spill (2) + mini-batch & assignment buffers +
        // key/assignment metadata; independent of collection size.
        let fixed_budget = 16 * 1024 * 1024;
        assert!(
            micro_peak < fixed_budget,
            "{}: streaming build memory must stay bounded, got {}",
            spec.name,
            mib(micro_peak)
        );
        if raw_bytes > fixed_budget {
            assert!(
                micro_peak < mem_peak,
                "{}: streaming build must beat buffered build on memory",
                spec.name
            );
        }
    }
    println!("\nexpected shape (paper): similar build times; MicroNN 4-60x less construction");
    println!("memory — the gap grows with dataset size (FULL_SCALE=1 restores paper scale)");
}
