//! Figure 8: server model updates per hour vs concurrency.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::systems;
use bench::parse_args;

fn main() {
    let args = parse_args();
    let rows = systems::fig8(args.scale, args.seed);
    println!("# Figure 8: server model updates per hour (AsyncFL K fixed)");
    println!("concurrency | sync updates/hr | async updates/hr | ratio");
    for (concurrency, sync_rate, async_rate) in rows {
        println!(
            "{:11} | {:15.1} | {:16.1} | {:5.1}x",
            concurrency,
            sync_rate,
            async_rate,
            async_rate / sync_rate.max(1e-9)
        );
    }
}
