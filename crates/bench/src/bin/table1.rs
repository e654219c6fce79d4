//! Table 1: test perplexity by data-volume percentile after a fixed budget
//! of client updates, for the three FL configurations.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::lm_exp;
use bench::parse_args;

fn main() {
    let args = parse_args();
    let rows = lm_exp::table1(args.scale, args.seed);
    println!("# Table 1: test perplexity (lower is better)");
    lm_exp::print_table1(&rows);
}
