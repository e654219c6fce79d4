//! Layer probes: each drives one layer on its own through its public API, at
//! the size the workload uses it, and returns a cost per operation.  The
//! traced run multiplies that by the run's own counts to estimate the layer's
//! busy time; nothing here reads a timer inside a crate.

use papaya_core::aggregator::{self, Aggregator};
use papaya_core::client::{ClientTrainer, ClientUpdate, LocalTrainResult};
use papaya_core::config::SecAggMode;
use papaya_core::secure::{self, SecureAggregator};
use papaya_core::server_opt::{FedAdam, FedAvg, FedSgd, ServerOptimizer};
use papaya_core::{DpAggregator, RobustAggregator, TaskConfig};
use papaya_nn::params::ParamVec;
use papaya_sim::cluster::TaskSpec;
use papaya_sim::events::{EventKind, EventQueue};
use papaya_sim::executor::{Executor, TrainJob};
use papaya_sim::sampling::ShardedSamplingPool;
use papaya_sim::scenario::FleetSpec;
use papaya_sim::{ControlPlaneService, ServerOptimizerKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn ns_per(start: Instant, operations: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / operations.max(1) as f64
}

/// Nanoseconds per `pop` + `schedule` pair with `depth` events pending, the
/// steady state of a run at that concurrency.
pub fn event_queue(depth: usize, seed: u64) -> f64 {
    const PAIRS: usize = 400_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queue = EventQueue::new();
    let event = |i: usize| EventKind::ClientFinished {
        client_id: i,
        participation_id: i as u64,
    };
    for i in 0..depth.max(1) {
        queue.schedule(rng.gen_range(0.0..60.0), event(i));
    }
    // Drawn up front so the loop times the queue, not the generator.
    let delays: Vec<f64> = (0..PAIRS).map(|_| rng.gen_range(1.0..60.0)).collect();
    let start = Instant::now();
    for (i, delay) in delays.iter().enumerate() {
        let next = queue.pop().expect("the queue never drains");
        queue.schedule(next.time + delay, event(i));
        black_box(&next);
    }
    ns_per(start, PAIRS)
}

/// Nanoseconds per `release` + `acquire_random` pair on a pool of
/// `population` ids with `held` of them out, as a run at that concurrency
/// keeps them.
pub fn sampling_pool(population: usize, held: usize, seed: u64) -> f64 {
    const PAIRS: usize = 400_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = ShardedSamplingPool::new(population);
    let mut out: VecDeque<usize> = (0..held.clamp(1, population.saturating_sub(1).max(1)))
        .map(|_| pool.acquire_random(&mut rng).expect("fewer held than ids"))
        .collect();
    let start = Instant::now();
    for _ in 0..PAIRS {
        pool.release(out.pop_front().expect("ids are held"));
        out.push_back(pool.acquire_random(&mut rng).expect("an id was just freed"));
    }
    black_box(&out);
    ns_per(start, PAIRS)
}

/// The uploads a task's aggregator would see for `captured` training
/// results: the task's Byzantine cohort corrupts its deltas exactly as
/// `TaskRuntime::offer_update` does, so the robust layer has something to
/// trim.  Every captured client uploads once, then clients upload again until
/// `repeat_share` of all uploads come from a client seen before — the share
/// of the traced run's uploads that found a cached secure session, which
/// costs a fraction of a first contact's key exchange.
pub fn uploads(
    config: &TaskConfig,
    captured: &[(usize, LocalTrainResult)],
    repeat_share: f64,
) -> Vec<ClientUpdate> {
    let first: Vec<ClientUpdate> = captured
        .iter()
        .map(|(client_id, result)| {
            let mut result = result.clone();
            if let Some(spec) = config.adversary {
                if spec.is_malicious(*client_id) {
                    spec.corrupt_delta(*client_id, &mut result.delta);
                }
            }
            ClientUpdate::from_result(*client_id, 0, result)
        })
        .collect();
    // r repeats among n + r uploads: r = n × share / (1 − share), at most 3 n.
    let share = repeat_share.clamp(0.0, 0.75);
    let repeats = (first.len() as f64 * share / (1.0 - share)).round() as usize;
    let again: Vec<ClientUpdate> = first.iter().cycle().take(repeats).cloned().collect();
    first.into_iter().chain(again).collect()
}

/// Cost of one aggregation stack, per operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StackCost {
    pub accumulate_ns: f64,
    pub take_ns: f64,
}

impl StackCost {
    /// This stack's cost over the stack without its outermost layer.
    pub fn minus(self, inner: StackCost) -> StackCost {
        StackCost {
            accumulate_ns: self.accumulate_ns - inner.accumulate_ns,
            take_ns: self.take_ns - inner.take_ns,
        }
    }

    pub fn busy_s(self, accumulates: u64, takes: u64) -> f64 {
        (self.accumulate_ns * accumulates as f64 + self.take_ns * takes as f64) * 1e-9
    }
}

/// Replays `uploads` through `aggregator` a goal's worth at a time, taking a
/// release whenever one is ready, and times the two calls apart.  Every
/// upload is fresh (staleness 0), and mask planning runs before each
/// accumulate as the driver runs it before each participation.
pub fn replay(mut aggregator: Box<dyn Aggregator>, uploads: &[ClientUpdate]) -> StackCost {
    let goal = aggregator.goal().max(1);
    let (mut accumulate_ns, mut accumulates) = (0u128, 0usize);
    let (mut take_ns, mut takes) = (0u128, 0usize);
    let mut version = 0u64;
    let mut now_s = 0.0;
    for chunk in uploads.chunks(goal) {
        let batch: Vec<ClientUpdate> = chunk
            .iter()
            .cloned()
            .map(|mut upload| {
                upload.start_version = version;
                upload
            })
            .collect();
        let start = Instant::now();
        for upload in batch {
            black_box(aggregator.plan_mask_precompute(upload.client_id));
            black_box(aggregator.accumulate(upload, version, now_s));
        }
        accumulate_ns += start.elapsed().as_nanos();
        accumulates += chunk.len();
        now_s += 1.0;
        if aggregator.is_ready(now_s) {
            let start = Instant::now();
            black_box(aggregator.take(now_s));
            take_ns += start.elapsed().as_nanos();
            takes += 1;
            version += 1;
        }
    }
    StackCost {
        accumulate_ns: accumulate_ns as f64 / accumulates.max(1) as f64,
        take_ns: take_ns as f64 / takes.max(1) as f64,
    }
}

/// The task with every decorator switched off: what `for_task` alone builds.
fn clear(config: &TaskConfig) -> TaskConfig {
    let mut clear = config.clone();
    clear.secagg = SecAggMode::Disabled;
    clear.dp = None;
    clear.robust = None;
    clear.adversary = None;
    clear
}

/// The cost of each layer of a task's aggregation stack.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerCosts {
    pub strategy: StackCost,
    pub secure: StackCost,
    pub dp: StackCost,
    pub robust: StackCost,
}

/// Wraps each decorator the task configures around the bare strategy on its
/// own, with the seed `TaskRuntime::with_aggregator` gives it, replays the
/// same uploads through it, and charges the decorator that stack's cost over
/// the bare strategy's.  (Differencing the cumulative stack instead —
/// `robust(dp(secure))` minus `dp(secure)` — subtracts two 40 µs readings to
/// find a 50 ns one.)  A layer the task does not configure costs 0.
pub fn aggregation_layers(
    config: &TaskConfig,
    dim: usize,
    seed: u64,
    uploads: &[ClientUpdate],
) -> LayerCosts {
    let base = || aggregator::for_task(&clear(config));
    let strategy = replay(base(), uploads);
    let mut costs = LayerCosts {
        strategy,
        ..LayerCosts::default()
    };
    if config.secagg != SecAggMode::Disabled {
        let threshold = secure::recommended_threshold(config);
        let protocol_seed = seed ^ 0x5ECA_665E_CA66;
        let mut secure = match config.secagg {
            SecAggMode::AsyncSecAggPerUpdate => {
                SecureAggregator::new_per_update(base(), dim, threshold, protocol_seed)
            }
            _ => SecureAggregator::new(base(), dim, threshold, protocol_seed),
        };
        if let Some(spec) = config.adversary {
            secure = secure.with_deviation(spec);
        }
        costs.secure = replay(Box::new(secure), uploads).minus(strategy);
    }
    if let Some(dp) = config.dp {
        let stack = DpAggregator::new(base(), dp, seed ^ 0xD1FF_D1FF);
        costs.dp = replay(Box::new(stack), uploads).minus(strategy);
    }
    if let Some(robust) = config.robust {
        let stack = RobustAggregator::new(base(), robust);
        costs.robust = replay(Box::new(stack), uploads).minus(strategy);
    }
    costs
}

/// Nanoseconds per `ServerOptimizer::apply` at the workload's dimension.
pub fn server_optimizer(kind: ServerOptimizerKind, dim: usize) -> f64 {
    const APPLIES: usize = 100_000;
    let mut optimizer: Box<dyn ServerOptimizer> = match kind {
        ServerOptimizerKind::FedAvg => Box::new(FedAvg),
        ServerOptimizerKind::FedSgd { learning_rate } => Box::new(FedSgd::new(learning_rate)),
        ServerOptimizerKind::FedAdam {
            learning_rate,
            beta1,
        } => Box::new(FedAdam::new(learning_rate, beta1)),
    };
    let mut model = ParamVec::zeros(dim);
    let delta = ParamVec::from_vec((0..dim).map(|j| 1e-3 * (1 + j % 7) as f32).collect());
    let start = Instant::now();
    for _ in 0..APPLIES {
        optimizer.apply(&mut model, black_box(&delta));
    }
    black_box(&model);
    ns_per(start, APPLIES)
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ControlPlaneCost {
    pub heartbeat_ns: f64,
    pub assign_client_ns: f64,
    pub checkpoint_restore_s: f64,
    pub replay_s: f64,
}

/// Calls made to a probe service at most, whatever the run made: the full
/// log is retained for the replay, at ~50 B an event.
const CONTROL_PLANE_CALL_CAP: u64 = 200_000;

/// A control-plane service with the workload's aggregators and tasks, driven
/// tick by tick with the traced run's heartbeat and check-in counts (capped):
/// every aggregator heartbeats, every task reports its demand, and the tick's
/// share of devices checks in.  Then one restore from the last checkpoint and
/// one replay of the whole log.
pub fn control_plane(
    fleet: &FleetSpec,
    tasks: &[TaskConfig],
    heartbeats: u64,
    check_ins: u64,
    seed: u64,
) -> ControlPlaneCost {
    let mut service =
        ControlPlaneService::new(fleet.heartbeat_timeout_s, seed ^ 0xC0FFEE).retain_full_log();
    for id in 0..fleet.aggregators {
        service.register_aggregator(id, 0.0);
    }
    for (task_id, task) in tasks.iter().enumerate() {
        service.submit_task(TaskSpec::from_task_config(task_id, task));
    }
    let ticks = (heartbeats.min(CONTROL_PLANE_CALL_CAP) / fleet.aggregators as u64).max(1);
    let check_ins_per_tick = (check_ins.min(CONTROL_PLANE_CALL_CAP) / ticks).max(1);
    let (mut heartbeat_ns, mut heartbeat_calls) = (0u128, 0usize);
    let (mut assign_ns, mut assign_calls) = (0u128, 0usize);
    let mut now_s = 0.0;
    for _ in 0..ticks {
        now_s += fleet.control_plane_interval_s;
        let start = Instant::now();
        for id in 0..fleet.aggregators {
            black_box(service.heartbeat(id, now_s));
        }
        heartbeat_ns += start.elapsed().as_nanos();
        heartbeat_calls += fleet.aggregators;
        for (task_id, task) in tasks.iter().enumerate() {
            service.report_demand(task_id, task.concurrency);
        }
        let start = Instant::now();
        for i in 0..check_ins_per_tick {
            black_box(service.assign_client((i % 3) as u8));
        }
        assign_ns += start.elapsed().as_nanos();
        assign_calls += check_ins_per_tick as usize;
    }
    let start = Instant::now();
    service.restore_from_checkpoint();
    let checkpoint_restore_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let replayed = ControlPlaneService::replay(service.log());
    let replay_s = start.elapsed().as_secs_f64();
    assert_eq!(
        replayed.counters(),
        service.counters(),
        "a replayed control plane must agree with the live one"
    );
    ControlPlaneCost {
        heartbeat_ns: heartbeat_ns as f64 / heartbeat_calls.max(1) as f64,
        assign_client_ns: assign_ns as f64 / assign_calls.max(1) as f64,
        checkpoint_restore_s,
        replay_s,
    }
}

/// A trainer that does nothing, so the executor probe times the hand-off.
struct NoopTrainer;

impl ClientTrainer for NoopTrainer {
    fn parameter_count(&self) -> usize {
        1
    }

    fn initial_parameters(&self) -> ParamVec {
        ParamVec::zeros(1)
    }

    fn train(&self, _client_id: usize, _global: &ParamVec, _seed: u64) -> LocalTrainResult {
        LocalTrainResult {
            delta: ParamVec::zeros(1),
            num_examples: 1,
            train_loss: 0.0,
        }
    }

    fn evaluate(&self, _params: &ParamVec, _client_ids: &[usize]) -> f64 {
        0.0
    }
}

/// Nanoseconds per `submit` + `take_or_run` pair on a pool of `workers`, with
/// `window` jobs in flight as a run at that concurrency keeps them.
pub fn executor_handoff(workers: usize, window: usize) -> f64 {
    const JOBS: u64 = 50_000;
    let executor = Executor::new(workers);
    let trainer: Arc<dyn ClientTrainer> = Arc::new(NoopTrainer);
    let start_params = Arc::new(ParamVec::zeros(1));
    let submit = |participation_id: u64| {
        executor.submit(TrainJob {
            participation_id,
            client_id: participation_id as usize,
            start_params: Arc::clone(&start_params),
            seed: participation_id,
            trainer: Arc::clone(&trainer),
        });
    };
    let window = window.max(1) as u64;
    for id in 0..window {
        submit(id);
    }
    let start = Instant::now();
    for id in 0..JOBS {
        black_box(executor.take_or_run(id, || trainer.train(id as usize, &start_params, id)));
        submit(id + window);
    }
    let ns = ns_per(start, JOBS as usize);
    for id in JOBS..JOBS + window {
        executor.discard(id);
    }
    ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stub::StubTrainer;
    use papaya_core::adversary::{AdversarySpec, Malice};
    use papaya_core::robust::{RobustConfig, RobustDefense};
    use papaya_core::DpConfig;

    fn captured(n: usize, dim: usize) -> Vec<(usize, LocalTrainResult)> {
        let trainer = StubTrainer::new(dim, 1);
        let global = trainer.initial_parameters();
        (0..n)
            .map(|client| (client, trainer.train(client, &global, client as u64)))
            .collect()
    }

    #[test]
    fn queue_pool_optimizer_and_executor_probes_return_positive_costs() {
        assert!(event_queue(64, 1) > 0.0);
        assert!(sampling_pool(1_000, 64, 1) > 0.0);
        assert!(
            sampling_pool(2, 64, 1) > 0.0,
            "held is clamped below the population"
        );
        assert!(server_optimizer(ServerOptimizerKind::FedAvg, 8) > 0.0);
        let adam = ServerOptimizerKind::FedAdam {
            learning_rate: 0.02,
            beta1: 0.9,
        };
        assert!(server_optimizer(adam, 8) > 0.0);
        assert!(executor_handoff(1, 4) > 0.0);
    }

    #[test]
    fn replay_takes_a_release_per_goal_of_uploads() {
        let config = TaskConfig::async_task("t", 40, 10);
        let uploads = uploads(&config, &captured(40, 8), 0.0);
        let cost = replay(aggregator::for_task(&config), &uploads);
        assert!(cost.accumulate_ns > 0.0 && cost.take_ns > 0.0);
        assert!(
            (cost.busy_s(1_000, 100) - (cost.accumulate_ns * 1e3 + cost.take_ns * 1e2) * 1e-9)
                .abs()
                < 1e-12
        );
        // Sync rounds and deadline buffers release through the same loop.
        let sync = TaskConfig::sync_task("s", 10, 0.0);
        assert!(replay(aggregator::for_task(&sync), &uploads).take_ns > 0.0);
        let hybrid = TaskConfig::timed_hybrid_task("h", 10, 10, 600.0);
        assert!(replay(aggregator::for_task(&hybrid), &uploads).take_ns > 0.0);
    }

    #[test]
    fn uploads_are_corrupted_for_the_malicious_cohort_only() {
        let spec = AdversarySpec::new(0.5, Malice::Scaled { factor: 100.0 }).with_seed(3);
        let config = TaskConfig::async_task("t", 40, 10).with_adversary(spec);
        let captured = captured(40, 8);
        let uploads = uploads(&config, &captured, 0.0);
        let mut corrupted = 0;
        for ((client, result), upload) in captured.iter().zip(&uploads) {
            if spec.is_malicious(*client) {
                assert_ne!(upload.delta, result.delta);
                corrupted += 1;
            } else {
                assert_eq!(upload.delta, result.delta);
            }
        }
        assert!(corrupted > 0 && corrupted < 40);
    }

    #[test]
    fn uploads_repeat_clients_up_to_the_share_asked_for() {
        let config = TaskConfig::async_task("t", 40, 10);
        let captured = captured(40, 8);
        assert_eq!(uploads(&config, &captured, 0.0).len(), 40);
        let half = uploads(&config, &captured, 0.5);
        assert_eq!(half.len(), 80);
        assert_eq!(half[40].client_id, half[0].client_id);
        // Capped at three repeats per first contact, however high the share.
        assert_eq!(uploads(&config, &captured, 0.99).len(), 160);
    }

    #[test]
    fn only_configured_layers_are_charged() {
        let plain = TaskConfig::async_task("t", 40, 10);
        let uploads = uploads(&plain, &captured(80, 16), 0.25);
        let costs = aggregation_layers(&plain, 16, 1, &uploads);
        assert!(costs.strategy.accumulate_ns > 0.0);
        assert_eq!(costs.secure, StackCost::default());
        assert_eq!(costs.dp, StackCost::default());
        assert_eq!(costs.robust, StackCost::default());

        let stacked = plain
            .with_secagg(SecAggMode::AsyncSecAgg)
            .with_dp(DpConfig::new(2.0, 1.0).with_sampling_rate(0.1))
            .with_robust(RobustConfig::new(RobustDefense::TrimmedMean {
                trim_fraction: 0.1,
            }));
        let costs = aggregation_layers(&stacked, 16, 1, &uploads);
        // Masking costs microseconds against the buffer's nanoseconds.
        assert!(costs.secure.accumulate_ns > costs.strategy.accumulate_ns);
        assert_ne!(costs.dp, StackCost::default());
        assert_ne!(costs.robust, StackCost::default());
    }

    #[test]
    fn control_plane_probe_restores_and_replays() {
        let tasks = [
            TaskConfig::async_task("a", 8, 2),
            TaskConfig::sync_task("b", 8, 0.0).with_min_capability_tier(1),
        ];
        let cost = control_plane(&FleetSpec::new(3, 4), &tasks, 300, 2_000, 1);
        assert!(cost.heartbeat_ns > 0.0 && cost.assign_client_ns > 0.0);
        assert!(cost.checkpoint_restore_s > 0.0 && cost.replay_s > 0.0);
    }
}
