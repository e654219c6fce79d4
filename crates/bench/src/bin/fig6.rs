//! Figure 6: host->TEE data-transfer time vs aggregation goal for the naive
//! design and AsyncSecAgg (20 MB model).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::secagg_exp;

fn main() {
    println!("# Figure 6: TEE boundary transfer time, 20 MB model");
    println!("aggregation goal K | naive TSA (ms) | AsyncSecAgg (ms)");
    for row in secagg_exp::fig6() {
        println!(
            "{:18} | {:14.1} | {:16.1}",
            row.aggregation_goal, row.naive_ms, row.async_secagg_ms
        );
    }
    println!();
    println!(
        "measured host->TEE bytes per client (real protocol, 1k-element vs 16k-element model): {:.0} vs {:.0}",
        secagg_exp::measured_boundary_bytes_per_client(4, 1000),
        secagg_exp::measured_boundary_bytes_per_client(4, 16_000)
    );
}
