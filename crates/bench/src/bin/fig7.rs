//! Figure 7: number of active clients over time, SyncFL vs AsyncFL.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::systems;
use bench::parse_args;

fn main() {
    let args = parse_args();
    let (sync, async_fl) = systems::fig7(args.scale, args.seed);
    println!("# Figure 7: active clients over time (max concurrency shared by both)");
    println!("time_s | sync_active | async_active");
    // Downsample the utilization traces onto a common 60 s grid.
    let grid: Vec<f64> = (0..120).map(|i| i as f64 * 60.0).collect();
    let sample = |trace: &[(f64, usize)], t: f64| -> usize {
        trace
            .iter()
            .take_while(|&&(time, _)| time <= t)
            .last()
            .map(|&(_, active)| active)
            .unwrap_or(0)
    };
    for &t in &grid {
        println!(
            "{:6.0} | {:11} | {:12}",
            t,
            sample(&sync.metrics.utilization_trace, t),
            sample(&async_fl.metrics.utilization_trace, t)
        );
    }
    println!();
    println!(
        "mean active clients: sync = {:.0}, async = {:.0}",
        sync.metrics.mean_active_clients(),
        async_fl.metrics.mean_active_clients()
    );
}
