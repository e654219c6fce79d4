//! Criterion bench: FedBuff aggregation throughput, asynchronous and as a
//! synchronous round (Section 6.3, "Fast Model Aggregation").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use papaya_core::aggregator::{for_task, Aggregator};
use papaya_core::client::ClientUpdate;
use papaya_core::fedbuff::FedBuffAggregator;
use papaya_core::server_opt::{FedAdam, FedAvg, ServerOptimizer};
use papaya_core::staleness::StalenessWeighting;
use papaya_core::TaskConfig;
use papaya_nn::params::ParamVec;

fn make_update(id: usize, dim: usize) -> ClientUpdate {
    ClientUpdate {
        client_id: id,
        delta: ParamVec::from_vec((0..dim).map(|i| (i % 7) as f32 * 0.01).collect()),
        num_examples: 10 + id % 50,
        start_version: 0,
        train_loss: 0.0,
    }
}

fn fedbuff_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fedbuff_accumulate_k100");
    for dim in [1_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, &dim| {
            b.iter(|| {
                let mut agg = FedBuffAggregator::new(100, StalenessWeighting::PolynomialHalf);
                for i in 0..100 {
                    agg.accumulate(make_update(i, dim), i as u64 / 10, i as f64);
                }
                agg.take(100.0).unwrap()
            });
        });
    }
    group.finish();
}

fn sync_round_throughput(c: &mut Criterion) {
    c.bench_function("sync_round_aggregate_100x10k", |b| {
        b.iter(|| {
            let mut agg = for_task(&TaskConfig::sync_task("round", 100, 0.0));
            for i in 0..100 {
                agg.accumulate(make_update(i, 10_000), 0, i as f64);
            }
            agg.take(100.0).unwrap()
        });
    });
}

fn server_optimizers(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_optimizer_step_1M_params");
    let delta = ParamVec::from_vec(vec![0.001f32; 1_000_000]);
    group.bench_function("fedavg", |b| {
        let mut model = ParamVec::zeros(1_000_000);
        let mut opt = FedAvg;
        b.iter(|| opt.apply(&mut model, &delta));
    });
    group.bench_function("fedadam", |b| {
        let mut model = ParamVec::zeros(1_000_000);
        let mut opt = FedAdam::default_config();
        b.iter(|| opt.apply(&mut model, &delta));
    });
    group.finish();
}

criterion_group!(
    benches,
    fedbuff_throughput,
    sync_round_throughput,
    server_optimizers
);
criterion_main!(benches);
