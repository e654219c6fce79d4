//! Experiment harness regenerating the tables and figures of the PAPAYA
//! paper.
//!
//! Each figure/table has a binary under `src/bin/` (`fig2` … `fig13`,
//! `table1`) that prints the same rows/series the paper reports, and the
//! heavy lifting lives in [`experiments`] so integration tests and Criterion
//! benches can reuse it.
//!
//! Run, for example:
//!
//! ```bash
//! cargo run -p bench --release --bin fig9 -- --quick
//! cargo run -p bench --release --bin table1 -- --quick
//! ```
//!
//! `--quick` shrinks the population and concurrency sweep so a run finishes
//! in seconds; omit it for the full-scale (minutes-long) sweep recorded in
//! `EXPERIMENTS.md`.
//!
//! [`scenarios`] defines the canonical named scenarios whose fingerprints
//! are committed in `tests/golden_fingerprints.txt`.  Nothing in this crate
//! measures wall-clock, throughput or memory: that is the repo benchmark's
//! job (`benchmark/` at the repository root).

pub mod experiments;
pub mod scenarios;

pub use experiments::common::{parse_args, CliArgs, Scale};
