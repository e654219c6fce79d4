//! The five workloads.  Each is a closed-loop, fixed-work simulation sized so
//! that one iteration takes a little over a second on a 2-core box (three on
//! `lm-pool`, whose measured iterations train on one thread); all sizes are
//! constants here, not flags.  `README.md` says why each one exists and
//! which layer it separates from the others.

use crate::stub::{Expectation, StubTrainer};
use crate::trace::{TimedTrainer, Tracer};
use papaya_core::adversary::{AdversarySpec, Malice};
use papaya_core::client::ClientTrainer;
use papaya_core::config::SecAggMode;
use papaya_core::robust::{RobustConfig, RobustDefense};
use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig};
use papaya_core::{DpConfig, TaskConfig};
use papaya_data::dataset::FederatedTextDataset;
use papaya_data::population::{Population, PopulationConfig};
use papaya_lm::{LmClientTrainer, LmConfig};
use papaya_sim::scenario::{EvalPolicy, FleetSpec, RunLimits, Scenario};
use papaya_sim::{Parallelism, ServerOptimizerKind};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    LoopBound,
    MillionIdle,
    SecureStack,
    FleetFailover,
    LmPool,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// One line, as `BENCHMARK.json` carries it.
    pub why: &'static str,
    /// Every task must end at or below this share of its initial loss.
    pub target_ratio: f64,
    /// Devices at full scale, and the fewest a scaled-down test keeps.
    population: (usize, usize),
    /// Aggregation goal K of the first task at full scale, and its floor.
    goal: (usize, usize),
    /// Concurrency as a multiple of the goal.  It sets the staleness, so a
    /// scaled-down run keeps it and converges like the full one.
    concurrency_per_goal: usize,
    /// The update budget in server steps: `steps × goal` client updates stop
    /// the run at every scale.
    steps: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        kind: Kind::LoopBound,
        name: "loop-bound",
        why: "55 ns stub trainer on the direct path with unbounded traces: the event loop, sampling, FedBuff, FedAdam and metrics do the work",
        target_ratio: 0.5,
        population: (20_000, 400),
        goal: (100, 2),
        concurrency_per_goal: 13,
        steps: 20_000,
    },
    Workload {
        kind: Kind::MillionIdle,
        name: "million-idle",
        why: "1 M devices under the procedural surrogate: memory and set-up at scale, and the trainer-bound case where loop changes must not show",
        target_ratio: 0.5,
        population: (1_000_000, 20_000),
        goal: (512, 16),
        concurrency_per_goal: 4,
        steps: 80,
    },
    Workload {
        kind: Kind::SecureStack,
        name: "secure-stack",
        why: "robust(dp(secure(fedbuff))) under the stub trainer with 5 % scaled attackers: the decorator stack is the work; loop-bound bypasses it",
        target_ratio: 0.5,
        population: (20_000, 2_000),
        goal: (100, 20),
        concurrency_per_goal: 13,
        steps: 300,
    },
    Workload {
        kind: Kind::FleetFailover,
        name: "fleet-failover",
        why: "six tasks of all three strategies on the fleet path with a crash, a coordinator restore and a recovery: the only run on the control plane",
        target_ratio: 0.5,
        population: (50_000, 2_500),
        // The first task of the mix, `keyboard-lm`: 12 × unit with unit 4.
        goal: (48, 12),
        concurrency_per_goal: 4,
        steps: 26_000,
    },
    Workload {
        kind: Kind::LmPool,
        name: "lm-pool",
        why: "the real LSTM trainer, timed on one thread and checked against a run on the worker pool: the only run on papaya-lm, papaya-nn and the executor",
        target_ratio: 0.75,
        population: (2_400, 60),
        goal: (16, 4),
        concurrency_per_goal: 2,
        steps: 90,
    },
];

/// Nominal virtual length of `fleet-failover`: the update budget is sized to
/// run out about here, and the crash, restore and recovery are injected at
/// 30 %, 45 % and 60 % of it.
const FLEET_NOMINAL_HOURS: f64 = 16.0;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn expectation(&self) -> Expectation {
        Expectation {
            target_ratio: self.target_ratio,
            failover: self.kind == Kind::FleetFailover,
        }
    }

    /// Devices at `scale`.
    pub fn population_len(&self, scale: usize) -> usize {
        (self.population.0 / scale).max(self.population.1)
    }

    /// The synthetic population at `scale`: the library default, except that
    /// on `lm-pool` a device holds between 12 and 200 sentences (not 1 to
    /// 5 000).  The trainer reads 8 of them a round, so with the floor every
    /// update costs the host the same whatever devices the seed draws, and
    /// with the cap the dataset's size — `peak_rss_mib`, `setup_s` — is no
    /// longer a draw of the log-normal tail.  Uncapped, `wall_s` and
    /// `peak_rss_mib` move 6–8 % with the seed.
    pub fn population_config(&self, scale: usize) -> PopulationConfig {
        let mut config = PopulationConfig::default().with_size(self.population_len(scale));
        if self.kind == Kind::LmPool {
            config.min_examples = 12;
            config.max_examples = 200;
        }
        config
    }

    /// Threads the warm-up of a measured run and the traced run train on;
    /// the measured iterations themselves are sequential on every workload.
    /// Only `lm-pool` leaves the library default (sequential): it takes
    /// `clamp(nproc − 1, 1, 3)` workers, so the event loop plus the pool
    /// never exceed `nproc` where there are two cores or more.
    pub fn parallelism(&self) -> Parallelism {
        match self.kind {
            Kind::LmPool => {
                let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
                Parallelism(nproc.saturating_sub(1).clamp(1, 3))
            }
            _ => Parallelism::sequential(),
        }
    }
}

/// Host seconds of each set-up phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub population_s: f64,
    pub dataset_s: f64,
    pub trainer_s: f64,
    pub build_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.population_s + self.dataset_s + self.trainer_s + self.build_s
    }
}

/// A built scenario and what the probes need to know about it.
pub struct Setup {
    pub scenario: Scenario,
    pub times: SetupTimes,
    pub population_len: usize,
    pub dim: usize,
    pub server_optimizer: ServerOptimizerKind,
    pub fleet: Option<FleetSpec>,
    /// Present on a traced set-up: the decorator every task trains through.
    pub timed: Option<Arc<TimedTrainer>>,
}

/// The `perf_suite` surrogate, heavy enough that training dominates, at a
/// fifth of its local learning rate.  At 0.05 a client all but reaches its
/// own optimum in one round, the server overshoots, and the loss crosses its
/// target on the fourth or the fifth server step (~4 virtual s apart) as the
/// seed decides: `sim_hours_to_target` moved 12 % across seeds.  At 0.01 it
/// takes a dozen steps and moves 2 %.  The host cost of a call is the same.
fn surrogate_config() -> SurrogateConfig {
    SurrogateConfig {
        dim: 128,
        heterogeneity: 0.5,
        volume_bias: 2.0,
        local_learning_rate: 0.01,
        batch_size: 16,
        max_local_steps: 32,
        gradient_noise: 1.0,
        init_distance: 8.0,
    }
}

fn phase<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(tracer) => tracer.span(name, |_| f()),
        None => {
            let start = Instant::now();
            let value = f();
            (value, start.elapsed().as_secs_f64())
        }
    }
}

/// Builds `workload` from nothing: population, dataset, trainer, scenario.
///
/// `scale` divides the population and the aggregation goal (down to their
/// floors); concurrency and the update budget follow the goal, so a scaled
/// run takes as many server steps as the full one.  The benchmark runs at 1
/// and the tests at 50.  With a `tracer` each phase is a span and every task
/// trains through a [`TimedTrainer`].
pub fn setup(
    workload: &Workload,
    seed: u64,
    scale: usize,
    parallelism: Parallelism,
    mut tracer: Option<&mut Tracer>,
) -> Setup {
    let traced = tracer.is_some();
    let tracer = &mut tracer;
    let population_len = workload.population_len(scale);
    let goal = (workload.goal.0 / scale).max(workload.goal.1);
    let concurrency = goal * workload.concurrency_per_goal;
    let updates = (workload.steps * goal) as u64;

    let (population, population_s) = phase(tracer, "population.generate", || {
        Population::generate(&workload.population_config(scale), seed)
    });

    let (dataset, dataset_s) = match workload.kind {
        Kind::LmPool => {
            let (dataset, s) = phase(tracer, "dataset.generate", || {
                Arc::new(FederatedTextDataset::generate(&population, 4, seed))
            });
            (Some(dataset), s)
        }
        _ => (None, 0.0),
    };

    let (trainer, trainer_s) = phase(tracer, "trainer.build", || -> Arc<dyn ClientTrainer> {
        match workload.kind {
            // FedAdam moves each coordinate 0.02 a step whatever the delta,
            // so the distance, not the step size, sets the time to target:
            // 128 puts it near 45 evaluations in.
            Kind::LoopBound => Arc::new(StubTrainer::new(32, seed).with_init_distance(128.0)),
            // 1 % a step: half the loss after ~35 of the 300 server steps,
            // and small enough that only the attackers' updates are clipped.
            Kind::SecureStack => Arc::new(StubTrainer::new(128, seed).with_learning_rate(0.01)),
            // The slowest task (a sync round every ~3 virtual minutes)
            // takes ~300 steps in the run; 0.6 % a step halves its loss
            // about a fifth of the way in and leaves every task close to
            // the loss floor at the end, where the seed barely moves it.
            Kind::FleetFailover => Arc::new(StubTrainer::new(32, seed).with_learning_rate(0.006)),
            Kind::MillionIdle => Arc::new(ProceduralSurrogate::new(
                &population,
                surrogate_config(),
                seed,
            )),
            Kind::LmPool => Arc::new(
                LmClientTrainer::new(dataset.expect("built above"), LmConfig::tiny())
                    .with_max_sequences(8),
            ),
        }
    });
    let dim = trainer.parameter_count();
    let timed = traced.then(|| TimedTrainer::new(Arc::clone(&trainer)));
    let trainer: Arc<dyn ClientTrainer> = match &timed {
        Some(timed) => Arc::clone(timed) as Arc<dyn ClientTrainer>,
        None => trainer,
    };

    let mut server_optimizer = ServerOptimizerKind::FedAvg;
    let mut fleet = None;
    let (scenario, build_s) = phase(tracer, "scenario.build", || {
        let builder = Scenario::builder().population(population).seed(seed);
        let limits = RunLimits::default()
            .with_parallelism(parallelism)
            .with_max_client_updates(updates);
        let task = TaskConfig::async_task(workload.name, concurrency, goal);
        match workload.kind {
            Kind::LoopBound => {
                server_optimizer = ServerOptimizerKind::FedAdam {
                    learning_rate: 0.02,
                    beta1: 0.9,
                };
                builder
                    .task_with_trainer(task, trainer)
                    .server_optimizer(server_optimizer)
                    .limits(limits)
                    .eval(
                        EvalPolicy::default()
                            .with_interval_s(60.0)
                            .with_sample_size(300),
                    )
            }
            // Concurrency 4 K, not the 8 K of `perf_suite`'s fedbuff-1m: at
            // 8 K the surrogate sits on the edge of divergence and its final
            // loss moves ±10 % with the seed.
            Kind::MillionIdle => builder
                .task_with_trainer(task, trainer)
                .limits(limits.with_trace_budget(4096))
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(2.0)
                        .with_sample_size(200),
                ),
            Kind::SecureStack => builder
                .task_with_trainer(
                    task.with_secagg(SecAggMode::AsyncSecAgg)
                        .with_dp(
                            DpConfig::new(2.0, 1.0)
                                .with_sampling_rate(concurrency as f64 / population_len as f64),
                        )
                        .with_robust(RobustConfig::new(RobustDefense::TrimmedMean {
                            trim_fraction: 0.1,
                        }))
                        .with_adversary(
                            AdversarySpec::new(0.05, Malice::Scaled { factor: 100.0 })
                                .with_seed(seed),
                        ),
                    trainer,
                )
                .limits(limits)
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(2.0)
                        .with_sample_size(100),
                ),
            Kind::FleetFailover => {
                // The `fleet-crash` mix of `perf_suite`: three async tasks on
                // capability tiers 0/1/2, two sync tasks with and without
                // over-selection, one timed hybrid.
                let unit = goal / 12;
                let tasks = [
                    TaskConfig::async_task("keyboard-lm", 48 * unit, 12 * unit),
                    TaskConfig::async_task("speech-kws", 24 * unit, 8 * unit)
                        .with_min_capability_tier(1),
                    TaskConfig::sync_task("photo-ranker", 30 * unit, 0.3),
                    TaskConfig::async_task("smart-reply", 16 * unit, 4 * unit)
                        .with_min_capability_tier(2),
                    TaskConfig::timed_hybrid_task("health-study", 16 * unit, 32 * unit, 600.0),
                    TaskConfig::sync_task("face-cluster", 24 * unit, 0.0),
                ];
                let spec = FleetSpec::new(3, 4);
                fleet = Some(spec);
                let nominal_s = FLEET_NOMINAL_HOURS * 3600.0;
                let mut builder = builder
                    .fleet(spec)
                    .crash_at(0.30 * nominal_s, 0)
                    .restore_control_plane_at(0.45 * nominal_s)
                    .recover_at(0.60 * nominal_s, 0)
                    .limits(limits.with_trace_budget(4096))
                    .eval(
                        EvalPolicy::default()
                            .with_interval_s(300.0)
                            .with_sample_size(100),
                    );
                for task in tasks {
                    builder = builder.task_with_trainer(task, Arc::clone(&trainer));
                }
                builder
            }
            Kind::LmPool => builder
                .task_with_trainer(task, trainer)
                .limits(limits)
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(30.0)
                        .with_sample_size(100),
                ),
        }
        .build()
    });

    Setup {
        scenario,
        times: SetupTimes {
            population_s,
            dataset_s,
            trainer_s,
            build_s,
        },
        population_len,
        dim,
        server_optimizer,
        fleet,
        timed,
    }
}
