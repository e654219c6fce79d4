//! Figure 9: time to target loss, AsyncFL speedup, and communication trips.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::convergence;
use bench::parse_args;

fn main() {
    let args = parse_args();
    convergence::print_target_context(args.scale, args.seed);
    let rows = convergence::fig9(args.scale, args.seed);
    println!("# Figure 9: SyncFL (30% OS) vs AsyncFL (fixed K)");
    convergence::print_fig9(&rows);
}
