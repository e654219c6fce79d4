//! Figure 12: training curves for the four FL configurations.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bench::experiments::convergence;
use bench::parse_args;

fn main() {
    let args = parse_args();
    convergence::print_target_context(args.scale, args.seed);
    let results = convergence::fig12(args.scale, args.seed);
    println!("# Figure 12: training loss vs virtual hours");
    for config in &results {
        println!("\n## {}", config.label);
        println!("hours | loss");
        for (hours, loss) in config
            .result
            .metrics
            .loss_curve
            .iter()
            .step_by(1 + config.result.metrics.loss_curve.len() / 40)
        {
            println!("{:6.2} | {:.4}", hours, loss);
        }
    }
}
