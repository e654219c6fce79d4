//! Figure 2: client execution-time histogram and the round-duration to
//! client-time ratio.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::systems;
use bench::parse_args;

fn main() {
    let args = parse_args();
    let result = systems::fig2(args.scale, args.seed);
    println!("# Figure 2: client execution time distribution (log-spaced bins)");
    println!("bin_low_s | bin_high_s | density");
    let densities = result.histogram.densities();
    for (i, d) in densities.iter().enumerate() {
        println!(
            "{:9.2} | {:10.2} | {:.4}",
            result.histogram.edges[i],
            result.histogram.edges[i + 1],
            d
        );
    }
    println!();
    println!(
        "mean client execution time : {:8.1} s",
        result.mean_client_time_s
    );
    println!(
        "mean SyncFL round duration  : {:8.1} s",
        result.mean_round_duration_s
    );
    println!(
        "round/client ratio          : {:8.1}x (paper: ~21x)",
        result.ratio()
    );
}
