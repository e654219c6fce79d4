//! Figure 13: hours to reach the target loss for the four configurations.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::convergence;
use bench::parse_args;

fn main() {
    let args = parse_args();
    convergence::print_target_context(args.scale, args.seed);
    let results = convergence::fig12(args.scale, args.seed);
    println!("# Figure 13: hours to target loss");
    println!("{:<28} | hours to target", "configuration");
    for config in &results {
        println!(
            "{:<28} | {}",
            config.label,
            bench::experiments::common::fmt_hours(config.result.hours_to_target)
        );
    }
}
