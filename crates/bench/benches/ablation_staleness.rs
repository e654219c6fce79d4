//! Ablation bench: staleness-weighting schemes and example weighting.
//!
//! Measures the population loss reached after a fixed number of FedBuff
//! server updates when stale updates are injected, for each weighting
//! scheme — the design choice discussed in Section 3.1 / Appendix E.2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use papaya_core::aggregator::Aggregator;
use papaya_core::client::{ClientTrainer, ClientUpdate};
use papaya_core::fedbuff::FedBuffAggregator;
use papaya_core::model::ServerModel;
use papaya_core::server_opt::FedAvg;
use papaya_core::staleness::StalenessWeighting;
use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig};
use papaya_data::population::{Population, PopulationConfig};

/// Trains for a fixed number of server updates with artificially stale
/// clients and returns the final population loss.
fn run_with_weighting(weighting: StalenessWeighting) -> f64 {
    let pop = Population::generate(&PopulationConfig::default().with_size(300), 11);
    let obj = ProceduralSurrogate::new(&pop, SurrogateConfig::default(), 11);
    let mut model = ServerModel::new(obj.initial_parameters());
    let mut opt = FedAvg;
    let mut agg = FedBuffAggregator::new(10, weighting);
    let mut stale_params = obj.initial_parameters();
    for step in 0..40u64 {
        for c in 0..10usize {
            let client = (step as usize * 10 + c) % 300;
            // Every third client trains from a model that is 5 versions old.
            let (params, version) = if c % 3 == 0 && model.version() >= 5 {
                (stale_params.clone(), model.version() - 5)
            } else {
                (model.snapshot(), model.version())
            };
            let result = obj.train(client, &params, step * 100 + c as u64);
            agg.accumulate(
                ClientUpdate::from_result(client, version, result),
                model.version(),
                0.0,
            );
        }
        if model.version() >= 5 {
            stale_params = model.snapshot();
        }
        let delta = agg.take(0.0).expect("buffer full");
        model.apply_update(&mut opt, &delta);
    }
    let all: Vec<usize> = (0..300).collect();
    obj.evaluate(model.params(), &all)
}

fn staleness_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("staleness_weighting_ablation");
    group.sample_size(10);
    for (name, weighting) in [
        ("constant", StalenessWeighting::Constant),
        ("poly_half", StalenessWeighting::PolynomialHalf),
        ("linear", StalenessWeighting::Linear),
        ("exponential", StalenessWeighting::Exponential),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &weighting, |b, &w| {
            b.iter(|| run_with_weighting(w))
        });
    }
    group.finish();
}

criterion_group!(benches, staleness_ablation);
criterion_main!(benches);
