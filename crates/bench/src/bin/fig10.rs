//! Figure 10: effect of the aggregation goal K at fixed concurrency.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::convergence;
use bench::parse_args;

fn main() {
    let args = parse_args();
    convergence::print_target_context(args.scale, args.seed);
    let rows = convergence::fig10(args.scale, args.seed);
    println!("# Figure 10: AsyncFL at fixed concurrency, varying aggregation goal K");
    println!("K | hours to target | server updates/hr");
    for (k, result) in rows {
        println!(
            "{:5} | {:>15} | {:12.1}",
            k,
            bench::experiments::common::fmt_hours(result.hours_to_target),
            result.server_updates_per_hour()
        );
    }
}
