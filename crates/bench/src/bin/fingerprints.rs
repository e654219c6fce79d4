//! Prints the canonical scenarios' `Report::fingerprint()` values.
//!
//! The workspace's headline guarantee is that scenario fingerprints are a
//! pure function of the scenario definition and seed — invariant across
//! thread counts, trace budgets, and internal refactors.
//! This binary makes that pin auditable across commits: run it before and
//! after a change that must not move fingerprints (see
//! `docs/DETERMINISM.md`) and diff the output.
//!
//! ```bash
//! cargo run --release -p bench --bin fingerprints            # quick sizes
//! cargo run --release -p bench --bin fingerprints -- --full
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::scenarios::{build_scenario, SCENARIO_NAMES};
use papaya_sim::Parallelism;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let seed = 42;
    println!(
        "# scenario fingerprints ({} sizes, seed {seed})",
        if full { "full" } else { "quick" }
    );
    for name in SCENARIO_NAMES {
        let report = build_scenario(name, !full, Parallelism::sequential(), seed).run();
        println!("{name}\t{}", report.fingerprint());
    }
}
