//! Control-plane soak: checkpoint a turbulent fleet run mid-flight, restore
//! the control plane from (checkpoint + log suffix), and prove the restored
//! run's `Report::fingerprint` is bit-identical to the uninterrupted run —
//! sequentially and at 4 worker threads.
//!
//! ```bash
//! cargo run -p bench --release --bin control_plane_soak -- --quick
//! cargo run -p bench --release --bin control_plane_soak -- --full --seed 3
//! ```
//!
//! Exits non-zero on any fingerprint mismatch, so CI can gate on it.  The
//! scenario is deliberately nasty: a partial Aggregator failure, then total
//! loss (orphaning every task), then a recovery whose heartbeat triggers the
//! reconcile pass — and the restore lands inside the dead window.

use bench::scenarios::soak_scenario;
use bench::{parse_args, Scale};
use papaya_sim::scenario::Report;
use papaya_sim::Parallelism;
use std::process::ExitCode;

fn soak_run(scale: Scale, seed: u64, restore_at: Option<f64>, parallelism: Parallelism) -> Report {
    soak_scenario(scale == Scale::Quick, seed, restore_at, parallelism).run()
}

fn main() -> ExitCode {
    let args = parse_args();
    // Mid dead-window: after total loss, before the recovery heartbeat.
    let restore_s = 2_000.0;

    println!(
        "# control_plane_soak: partial failure -> total loss -> restore at \
         t={restore_s:.0}s -> recovery, seed {}",
        args.seed
    );

    let reference = soak_run(args.scale, args.seed, None, Parallelism::sequential());
    let expected = reference.fingerprint();
    println!("uninterrupted (sequential): {expected}");

    let mut failures = 0u32;
    let runs = [
        (
            "restored (sequential)",
            Some(restore_s),
            Parallelism::sequential(),
        ),
        ("uninterrupted (4 threads)", None, Parallelism(4)),
        ("restored (4 threads)", Some(restore_s), Parallelism(4)),
    ];
    for (label, restore, parallelism) in runs {
        let report = soak_run(args.scale, args.seed, restore, parallelism);
        let fingerprint = report.fingerprint();
        let verdict = if fingerprint == expected {
            "identical"
        } else {
            failures += 1;
            "MISMATCH"
        };
        println!("{label:<26}: {fingerprint}  [{verdict}]");
    }

    let cp = &reference.fleet.control_plane;
    println!(
        "\norphaned {} / reconciled {} / recoveries {} / log events {} / checkpoints {}",
        cp.tasks_orphaned,
        cp.tasks_reconciled,
        cp.aggregator_recoveries,
        cp.control_log_events,
        cp.checkpoints_taken
    );
    println!("\n# Control-plane metrics (Prometheus text format)");
    print!("{}", cp.prometheus_text());

    if failures > 0 {
        eprintln!("control_plane_soak: {failures} fingerprint mismatch(es)");
        return ExitCode::FAILURE;
    }
    println!("\ncontrol_plane_soak: checkpoint/restore is fingerprint-invisible");
    ExitCode::SUCCESS
}
