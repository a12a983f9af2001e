//! `ledger`: one benchmark run per invocation.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the gated end-to-end metrics, `--trace 1` the
//! per-layer metrics of a traced run. The last line of stdout is the
//! result object; everything else goes to stderr. Exit code 0 means a
//! correct run, 2 a run whose outputs failed a check, 1 anything that
//! kept the run from finishing.

use std::process::ExitCode;

use micronn_ledger::inputs::Scale;
use micronn_ledger::report::{benchmark_json, rounds_for, Mode, RUN_SECONDS};
use micronn_ledger::run::{run, Plan};
use micronn_ledger::workload::{Workload, WORKLOADS};

// Heap accounting behind `peak_mem_mb`.
#[global_allocator]
static ALLOC: micronn_bench::TrackingAlloc = micronn_bench::TrackingAlloc;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: ledger --workload <{}> [--seed <n>] [--seconds <n, default {RUN_SECONDS}>] \
         [--trace <0|1>] [--scale <full|smoke>]\n       ledger --benchmark-json",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Plan, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut rounds = rounds_for(RUN_SECONDS);
    let mut mode = Mode::EndToEnd;
    let mut scale = Scale::FULL;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::find(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let seconds: u32 = value.parse().map_err(|_| bad())?;
                if !(1..=600).contains(&seconds) {
                    return Err(bad());
                }
                rounds = rounds_for(seconds);
            }
            "--trace" => {
                mode = match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::PerLayer,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::FULL,
                    "smoke" => Scale::SMOKE,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    Ok(Plan {
        workload: workload.ok_or_else(usage)?,
        seed,
        rounds,
        scale,
        mode,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--benchmark-json"] {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = parse(&args).and_then(|plan| run(&plan));
    match outcome.and_then(|o| o.result_line().map(|line| (o.correct, line))) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("ledger: run is NOT correct");
                ExitCode::from(2)
            }
        }
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::FAILURE
        }
    }
}
