//! Table 2: datasets used in the evaluation.
//!
//! Prints the paper's dataset inventory next to the synthetic stand-ins
//! actually generated at the current bench scale (see
//! `micronn_datasets::synthetic` for the substitution rationale).

use micronn_datasets::table2_specs;

fn main() {
    let widths = [12usize, 10, 12, 10, 8, 14, 12];
    println!(
        "Table 2: evaluation datasets (paper scale vs generated at scale {}):\n",
        micronn_bench::bench_scale()
    );
    micronn_bench::print_header(
        &[
            "dataset",
            "dim",
            "paper rows",
            "queries",
            "metric",
            "bench rows",
            "bench qs",
        ],
        &widths,
    );
    let paper = table2_specs(1.0);
    let bench = micronn_bench::scaled_specs();
    for (p, b) in paper.iter().zip(&bench) {
        micronn_bench::print_row(
            &[
                p.name.to_string(),
                p.dim.to_string(),
                p.n_vectors.to_string(),
                p.n_queries.to_string(),
                p.metric.to_string(),
                b.n_vectors.to_string(),
                b.n_queries.to_string(),
            ],
            &widths,
        );
    }
    // Sanity: the generator actually produces the advertised shapes.
    let probe = micronn_datasets::generate(&bench[0]);
    assert_eq!(probe.vectors.len(), bench[0].n_vectors * bench[0].dim);
    assert_eq!(probe.queries.len(), bench[0].n_queries * bench[0].dim);
    println!(
        "\ngenerator verified: {} produced {} x {}-d vectors",
        bench[0].name, bench[0].n_vectors, bench[0].dim
    );
}
