//! Figure 11 / Section 7.4: sampling bias from over-selection.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::systems;
use bench::parse_args;
use papaya_data::stats::mean;

fn main() {
    let args = parse_args();
    let result = systems::fig11(args.scale, args.seed);
    println!("# Figure 11: participating-client distributions");
    println!(
        "mean exec time of aggregated clients:   ground truth = {:7.1} s, sync w/ OS = {:7.1} s",
        mean(&result.ground_truth_exec_times),
        mean(&result.sync_os_exec_times)
    );
    println!(
        "mean examples of aggregated clients:    ground truth = {:7.1},   sync w/ OS = {:7.1},   async = {:7.1}",
        mean(&result.ground_truth_examples),
        mean(&result.sync_os_examples),
        mean(&result.async_examples)
    );
    println!();
    println!("two-sample KS test vs ground truth (SyncFL w/o over-selection):");
    println!(
        "  AsyncFL      : D = {:.4}  p = {:.3}   (paper: D = 8.8e-4, p = 0.98)",
        result.ks_async.d_statistic, result.ks_async.p_value
    );
    println!(
        "  SyncFL w/ OS : D = {:.4}  p = {:.3}   (paper: D = 6.6e-2, p = 0.00)",
        result.ks_sync_os.d_statistic, result.ks_sync_os.p_value
    );
}
