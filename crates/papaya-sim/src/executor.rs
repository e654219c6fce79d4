//! Deterministic parallel execution of client local training.
//!
//! The production system the paper describes runs client training massively
//! in parallel while the coordinator stays a small sequential control plane
//! (Section 4).  The simulator mirrors that split: the event loop remains a
//! single sequential thread owning every piece of mutable simulation state,
//! and only the *client local training* — by far the hot path at scale — is
//! farmed out to a fixed-size [`Executor`] worker pool.
//!
//! Correctness rests on one invariant: [`ClientTrainer::train`] is a pure
//! function of `(client_id, start_params, seed)` (the trait demands
//! determinism, and trainers take `&self`).  All three inputs are fixed the
//! moment a client is selected — the download snapshot is captured at
//! `begin_participation`
//! time and the per-participation seed is derived with
//! [`papaya_core::client::participation_seed`] — so the pool can start
//! computing a result *speculatively* as soon as the client is selected,
//! long before its finish event fires.  The event loop consumes results in
//! strict event order and performs every state mutation (aggregation, model
//! steps, metrics) itself, which makes a run **bit-identical to the
//! sequential path at any thread count**: the exact same `train` calls
//! happen with the exact same arguments, and everything order-sensitive
//! stays on one thread.  Speculative results for participations that are
//! later aborted (dropout, timeout, round end, staleness abort, Aggregator
//! failover) are simply discarded — trainers are immutable, so a wasted
//! computation has no observable effect.
//!
//! If the driver reaches a finish event whose job is still queued, it steals
//! the job and runs it inline rather than blocking — the pool accelerates
//! the simulation but never serializes it.

use papaya_core::client::{ClientTrainer, LocalTrainResult};
use papaya_nn::params::ParamVec;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// How many worker threads run client local training.
///
/// `Parallelism(0)` (the default) is the sequential path: no pool is
/// created and training runs inline on the event-loop thread.
/// `Parallelism(n)` with `n ≥ 1` spawns `n` workers.  Results are
/// bit-identical at every setting; see the module docs for why.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Parallelism(pub usize);

impl Parallelism {
    /// Training runs inline on the event-loop thread (the default).
    pub fn sequential() -> Self {
        Parallelism(0)
    }

    /// Number of worker threads (0 means sequential).
    pub fn workers(&self) -> usize {
        self.0
    }

    /// Whether training runs inline without a pool.
    pub fn is_sequential(&self) -> bool {
        self.0 == 0
    }
}

/// One unit of speculative work: everything `train` needs, captured at
/// selection time.
pub struct TrainJob {
    /// Identifier of the participation the result belongs to.
    pub participation_id: u64,
    /// The device doing the training.
    pub client_id: usize,
    /// The model snapshot the client downloaded.
    pub start_params: Arc<ParamVec>,
    /// The participation's derived RNG seed.
    pub seed: u64,
    /// The task's trainer.
    pub trainer: Arc<dyn ClientTrainer>,
}

impl TrainJob {
    fn run(&self) -> LocalTrainResult {
        self.trainer
            .train(self.client_id, &self.start_params, self.seed)
    }
}

/// Where one participation's training stands.
#[derive(Debug, PartialEq)]
enum Slot<J, T> {
    /// Submitted; no worker has picked it up.
    Queued(J),
    /// A worker is computing it.
    Running,
    /// Discarded while a worker was computing it: the output is dropped on
    /// publish.
    Cancelled,
    /// Published and not yet taken.  `Err` carries the panic message of a
    /// job that panicked on the worker; the driver re-raises it on take, so
    /// the failure surfaces exactly like the sequential path's instead of
    /// deadlocking the loop.
    Done(Result<T, String>),
}

/// Speculative work — jobs `J` producing `T` — keyed by participation id.
/// An id without a slot was never submitted or is finished with.  Ids are
/// unique for the executor's lifetime, so `push` only ever meets an id
/// without a slot.
struct Lane<J, T> {
    slots: BTreeMap<u64, Slot<J, T>>,
    /// Submission order of queued ids; ids since taken or discarded are
    /// skipped.
    fifo: VecDeque<u64>,
}

impl<J, T> Default for Lane<J, T> {
    fn default() -> Self {
        Lane {
            slots: BTreeMap::new(),
            fifo: VecDeque::new(),
        }
    }
}

impl<J, T> Lane<J, T> {
    fn push(&mut self, id: u64, job: J) {
        self.fifo.push_back(id);
        self.slots.insert(id, Slot::Queued(job));
    }

    /// Hands the oldest queued job to a worker and marks it running.
    fn pop_queued(&mut self) -> Option<(u64, J)> {
        while let Some(id) = self.fifo.pop_front() {
            let Some(slot) = self.slots.get_mut(&id) else {
                continue;
            };
            match std::mem::replace(slot, Slot::Running) {
                Slot::Queued(job) => return Some((id, job)),
                other => *slot = other,
            }
        }
        None
    }

    /// Removes and returns a queued job or a published output.  A running
    /// slot stays and reads `Some(Running)`: the caller waits for the
    /// publish.  A cancelled or missing one reads `None`.
    fn take(&mut self, id: u64) -> Option<Slot<J, T>> {
        match self.slots.get(&id)? {
            Slot::Running => Some(Slot::Running),
            Slot::Cancelled => None,
            Slot::Queued(_) | Slot::Done(_) => self.slots.remove(&id),
        }
    }

    /// Drops a queued job or published output; a running job is marked so
    /// its output is dropped on publish.
    fn discard(&mut self, id: u64) {
        let Some(slot) = self.slots.get_mut(&id) else {
            return;
        };
        match slot {
            Slot::Running => *slot = Slot::Cancelled,
            Slot::Queued(_) | Slot::Done(_) => {
                self.slots.remove(&id);
            }
            Slot::Cancelled => {}
        }
    }

    /// Stores the output of the worker holding `id`, or drops it and the
    /// slot if the participation was discarded meanwhile.  Returns whether
    /// there is an output for a taker to collect.
    fn publish(&mut self, id: u64, output: Result<T, String>) -> bool {
        let Some(slot) = self.slots.get_mut(&id) else {
            return false;
        };
        match slot {
            Slot::Running => {
                *slot = Slot::Done(output);
                true
            }
            Slot::Cancelled => {
                self.slots.remove(&id);
                false
            }
            // Only the worker holding a running or cancelled slot publishes.
            Slot::Queued(_) | Slot::Done(_) => false,
        }
    }
}

/// All executor state, behind the one mutex that makes every slot
/// transition atomic.
#[derive(Default)]
struct Inner {
    train: Lane<TrainJob, LocalTrainResult>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    inner: Mutex<Inner>,
    /// Signalled when a job is queued (or shutdown begins).
    job_ready: Condvar,
    /// Signalled when a worker publishes a result.
    result_ready: Condvar,
}

impl Shared {
    /// Locks the executor state.  Poisoning is unreachable: every worker
    /// panic is caught by `catch_unwind` *before* the worker re-locks, so no
    /// thread can die while holding the mutex — a poisoned lock is a harness
    /// bug worth a loud crash, not a recoverable condition.
    #[expect(
        clippy::unwrap_used,
        reason = "lock poisoning is unreachable (worker panics are caught before re-locking); crashing loudly beats limping on poisoned state"
    )]
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap()
    }
}

/// Blocks on `condvar`, with the same poisoning argument as [`Shared::lock`].
#[expect(
    clippy::unwrap_used,
    reason = "lock poisoning is unreachable (worker panics are caught before re-locking); crashing loudly beats limping on poisoned state"
)]
fn wait_on<'a>(condvar: &Condvar, guard: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
    condvar.wait(guard).unwrap()
}

/// A fixed-size `std::thread` pool running [`TrainJob`]s off the event-loop
/// thread.  Created per scenario run; dropping it joins the workers.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Spawns a pool with the given number of worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`; use no executor at all for the sequential
    /// path.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "an executor needs at least one worker");
        let shared = Arc::new(Shared::default());
        #[expect(
            clippy::expect_used,
            reason = "thread spawn fails only on OS resource exhaustion at pool construction; no run state exists yet to unwind"
        )]
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("papaya-train-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn training worker")
            })
            .collect();
        Executor { shared, workers }
    }

    /// Builds a pool for the given knob, or `None` for the sequential path.
    pub fn from_parallelism(parallelism: Parallelism) -> Option<Arc<Executor>> {
        if parallelism.is_sequential() {
            None
        } else {
            Some(Arc::new(Executor::new(parallelism.workers())))
        }
    }

    /// Queues a speculative training job.  Ids must be unique for the
    /// lifetime of the executor (the scenario drivers' participation ids
    /// are).
    pub fn submit(&self, job: TrainJob) {
        self.shared.lock().train.push(job.participation_id, job);
        self.shared.job_ready.notify_one();
    }

    /// Returns the result for `participation_id`, in one of three ways:
    /// still queued → the driver steals the job and runs it inline; running
    /// → blocks until the worker publishes it; never submitted or discarded
    /// → runs `fallback` inline (the sequential code path).
    pub fn take_or_run(
        &self,
        participation_id: u64,
        fallback: impl FnOnce() -> LocalTrainResult,
    ) -> LocalTrainResult {
        let mut inner = self.shared.lock();
        let taken = loop {
            match inner.train.take(participation_id) {
                Some(Slot::Running) => inner = wait_on(&self.shared.result_ready, inner),
                taken => break taken,
            }
        };
        drop(inner);
        match taken {
            Some(Slot::Queued(job)) => job.run(),
            Some(Slot::Done(output)) => output.unwrap_or_else(|message| {
                panic!("worker thread panicked (participation {participation_id}): {message}")
            }),
            _ => fallback(),
        }
    }

    /// Drops the speculative training of an aborted participation: a
    /// queued job or finished result goes, a running job is marked so its
    /// result is dropped on completion.  A no-op for ids never submitted.
    pub fn discard(&self, participation_id: u64) {
        self.shared.lock().train.discard(participation_id);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.job_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(shared: &Shared) {
    let mut inner = shared.lock();
    while !inner.shutdown {
        let Some((id, job)) = inner.train.pop_queued() else {
            inner = wait_on(&shared.job_ready, inner);
            continue;
        };
        drop(inner);
        // Panics are caught so a buggy trainer fails the run loudly (the
        // driver re-raises on take) instead of leaving the slot running
        // forever.
        let output = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run()))
            .map_err(panic_message);
        inner = shared.lock();
        if inner.train.publish(id, output) {
            shared.result_ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papaya_core::surrogate::{SurrogateConfig, SurrogateObjective};
    use papaya_data::population::{Population, PopulationConfig};

    fn trainer() -> Arc<dyn ClientTrainer> {
        let pop = Population::generate(&PopulationConfig::default().with_size(50), 3);
        Arc::new(SurrogateObjective::new(&pop, SurrogateConfig::default(), 3))
    }

    fn job(trainer: &Arc<dyn ClientTrainer>, pid: u64, client: usize) -> TrainJob {
        TrainJob {
            participation_id: pid,
            client_id: client,
            start_params: Arc::new(trainer.initial_parameters()),
            seed: 0xABC ^ pid,
            trainer: Arc::clone(trainer),
        }
    }

    #[test]
    fn pool_results_match_inline_training() {
        let trainer = trainer();
        let executor = Executor::new(3);
        for pid in 0..20u64 {
            executor.submit(job(&trainer, pid, pid as usize % 50));
        }
        for pid in 0..20u64 {
            let expected = trainer.train(
                pid as usize % 50,
                &trainer.initial_parameters(),
                0xABC ^ pid,
            );
            let got = executor.take_or_run(pid, || unreachable!("job was submitted"));
            assert_eq!(got, expected, "participation {pid}");
        }
        // Every job was consumed, whether a worker or the driver ran it.
        assert!(executor.shared.lock().train.slots.is_empty());
    }

    #[test]
    fn unsubmitted_id_falls_back_inline() {
        let trainer = trainer();
        let executor = Executor::new(1);
        let expected = trainer.train(7, &trainer.initial_parameters(), 42);
        let got = executor.take_or_run(99, || trainer.train(7, &trainer.initial_parameters(), 42));
        assert_eq!(got, expected);
    }

    #[test]
    fn discard_drops_queued_and_finished_work() {
        let trainer = trainer();
        let executor = Executor::new(1);
        executor.submit(job(&trainer, 1, 1));
        executor.submit(job(&trainer, 2, 2));
        executor.discard(1);
        executor.discard(1); // idempotent
        executor.discard(77); // never submitted: no-op
                              // Participation 2 is unaffected.
        let expected = trainer.train(2, &trainer.initial_parameters(), 0xABC ^ 2);
        assert_eq!(executor.take_or_run(2, || unreachable!()), expected);
        // Queued, running or finished when discarded, participation 1's
        // work never surfaces: taking it falls back without waiting.
        let mut fell_back = false;
        let _ = executor.take_or_run(1, || {
            fell_back = true;
            trainer.train(1, &trainer.initial_parameters(), 0xABC ^ 1)
        });
        assert!(fell_back, "discarded work resurfaced");
    }

    #[test]
    fn worker_panic_propagates_to_the_driver() {
        let trainer = trainer();
        let executor = Executor::new(1);
        // Client 999 does not exist; the surrogate trainer panics on it.
        executor.submit(job(&trainer, 5, 999));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            executor.take_or_run(5, || unreachable!("job was submitted"))
        }));
        // Whether the worker hit the panic or the driver stole the job, the
        // failure must surface as a panic here — never as a hang.
        assert!(outcome.is_err(), "trainer panic was swallowed");
    }

    #[test]
    fn parallelism_knob_semantics() {
        assert!(Parallelism::default().is_sequential());
        assert!(Parallelism::sequential().is_sequential());
        assert_eq!(Parallelism(4).workers(), 4);
        assert!(!Parallelism(1).is_sequential());
        assert!(Executor::from_parallelism(Parallelism::sequential()).is_none());
        assert!(Executor::from_parallelism(Parallelism(2)).is_some());
    }

    #[test]
    fn drop_joins_workers_with_pending_jobs() {
        let trainer = trainer();
        let executor = Executor::new(2);
        for pid in 0..50u64 {
            executor.submit(job(&trainer, pid, pid as usize % 50));
        }
        drop(executor); // must not hang or panic
    }

    // The lane as a plain data structure: every operation from every state
    // a participation id can be in.

    const ID: u64 = 7;

    /// The five states, each reached through the lane's own operations.
    const STATES: [&str; 5] = ["absent", "queued", "running", "cancelled", "done"];

    fn lane_in(state: &str) -> Lane<&'static str, u32> {
        let mut lane = Lane::default();
        if state != "absent" {
            lane.push(ID, "job");
        }
        if matches!(state, "running" | "cancelled" | "done") {
            assert_eq!(lane.pop_queued(), Some((ID, "job")));
        }
        if state == "cancelled" {
            lane.discard(ID);
        }
        if state == "done" {
            assert!(lane.publish(ID, Ok(70)));
        }
        lane
    }

    #[test]
    fn lane_push_queues_in_submission_order() {
        let mut lane = lane_in("absent");
        lane.push(ID, "job");
        lane.push(ID + 1, "next");
        assert_eq!(lane.slots.get(&ID), Some(&Slot::Queued("job")));
        assert_eq!(lane.pop_queued(), Some((ID, "job")));
        assert_eq!(lane.pop_queued(), Some((ID + 1, "next")));
        assert_eq!(lane.pop_queued(), None);
    }

    #[test]
    fn lane_pop_queued_in_every_state() {
        // What pop_queued returns, and what is left in the slot.
        let expected = [
            (None, None),
            (Some((ID, "job")), Some(Slot::Running)),
            (None, Some(Slot::Running)),
            (None, Some(Slot::Cancelled)),
            (None, Some(Slot::Done(Ok(70)))),
        ];
        for (state, (popped, left)) in STATES.into_iter().zip(expected) {
            let mut lane = lane_in(state);
            assert_eq!(lane.pop_queued(), popped, "{state}");
            assert_eq!(lane.slots.get(&ID), left.as_ref(), "{state}");
        }
    }

    #[test]
    fn lane_pop_queued_skips_taken_and_discarded_ids() {
        let mut lane = lane_in("queued");
        lane.push(ID + 1, "discarded");
        lane.push(ID + 2, "kept");
        assert_eq!(lane.take(ID), Some(Slot::Queued("job")));
        lane.discard(ID + 1);
        assert_eq!(lane.pop_queued(), Some((ID + 2, "kept")));
        assert_eq!(lane.pop_queued(), None);
        assert!(lane.fifo.is_empty());
    }

    #[test]
    fn lane_take_in_every_state() {
        // What take returns, and what is left in the slot.  Only a running
        // slot reads `Running`, the one answer a taker waits on: a
        // discarded or never-submitted id returns at once.
        let expected = [
            (None, None),
            (Some(Slot::Queued("job")), None),
            (Some(Slot::Running), Some(Slot::Running)),
            (None, Some(Slot::Cancelled)),
            (Some(Slot::Done(Ok(70))), None),
        ];
        for (state, (taken, left)) in STATES.into_iter().zip(expected) {
            let mut lane = lane_in(state);
            assert_eq!(lane.take(ID), taken, "{state}");
            assert_eq!(lane.slots.get(&ID), left.as_ref(), "{state}");
        }
    }

    #[test]
    fn lane_discard_in_every_state() {
        let expected = [
            None,
            None,
            Some(Slot::Cancelled),
            Some(Slot::Cancelled),
            None,
        ];
        for (state, left) in STATES.into_iter().zip(expected) {
            let mut lane = lane_in(state);
            lane.discard(ID);
            assert_eq!(lane.slots.get(&ID), left.as_ref(), "{state}");
            assert_eq!(lane.pop_queued(), None, "{state}");
        }
    }

    #[test]
    fn lane_publish_in_every_state() {
        // Whether publish leaves an output to collect, and what is left.
        // Publishing into a cancelled slot leaves nothing behind.
        let expected = [
            (false, None),
            (false, Some(Slot::Queued("job"))),
            (true, Some(Slot::Done(Ok(9)))),
            (false, None),
            (false, Some(Slot::Done(Ok(70)))),
        ];
        for (state, (collectable, left)) in STATES.into_iter().zip(expected) {
            let mut lane = lane_in(state);
            assert_eq!(lane.publish(ID, Ok(9)), collectable, "{state}");
            assert_eq!(lane.slots.get(&ID), left.as_ref(), "{state}");
        }
    }
}
