//! Figure 3: SyncFL training time and communication trips vs concurrency.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::convergence;
use bench::parse_args;

fn main() {
    let args = parse_args();
    convergence::print_target_context(args.scale, args.seed);
    let rows = convergence::fig3(args.scale, args.seed);
    println!("# Figure 3: SyncFL (30% over-selection) scaling");
    println!("concurrency | hours to target | communication trips (thousands)");
    for (concurrency, result) in &rows {
        println!(
            "{:11} | {:>15} | {:10.1}",
            concurrency,
            bench::experiments::common::fmt_hours(result.hours_to_target),
            result.comm_trips() as f64 / 1000.0
        );
    }
}
