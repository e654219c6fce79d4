//! Privacy-utility ablation: the DP convergence gap across a noise
//! multiplier sweep, with the accountant's cumulative (ε, δ) per point.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::dp_exp;
use bench::parse_args;

fn main() {
    let args = parse_args();
    let rows = dp_exp::dp_ablation(args.scale, args.seed);
    println!(
        "# DP privacy-utility ablation (delta = {:.0e}, clip C = 2, uniform weighting)",
        dp_exp::ABLATION_DELTA
    );
    dp_exp::print_dp_ablation(&rows);
}
