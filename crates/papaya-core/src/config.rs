//! Task configuration.
//!
//! A *task* is one federated training job.  PAPAYA supports synchronous and
//! asynchronous training of the same task through a configuration change
//! (Appendix E.3); the differences — client demand computation, handling of
//! stale clients, and the aggregation rule — are all derived from
//! [`TrainingMode`].

use crate::adversary::AdversarySpec;
use crate::dp::DpConfig;
use crate::robust::RobustConfig;

/// Whether and how secure aggregation is enabled for a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SecAggMode {
    /// Updates are uploaded in the clear.
    #[default]
    Disabled,
    /// Updates are masked with the asynchronous TEE-based SecAgg protocol,
    /// using session-cached key exchange: the Diffie–Hellman handshake runs
    /// once per client and later participations ratchet fresh one-time mask
    /// seeds from the cached shared secret.
    AsyncSecAgg,
    /// The pre-session-cache protocol: a fresh Diffie–Hellman exchange per
    /// masked update.  Numerically identical to [`SecAggMode::AsyncSecAgg`]
    /// (the masks cancel exactly in both), but ~4 group exponentiations per
    /// update slower; kept for the equivalence suite and as a conservative
    /// fallback.
    AsyncSecAggPerUpdate,
}

/// The training regime of a task.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrainingMode {
    /// Synchronous rounds (the GFL-style baseline).  Over-selection shows
    /// only in the aggregation goal: the cohort has `concurrency` clients
    /// and the slowest beyond the goal are discarded.
    Sync,
    /// Asynchronous buffered aggregation (FedBuff) with `1/sqrt(1 + s)`
    /// staleness down-weighting.
    Async {
        /// Updates with staleness above this value are aborted
        /// (Appendix E.1/E.2).
        max_staleness: u64,
        /// Seconds after the first buffered update at which the buffer is
        /// released even if the aggregation goal has not been met, bounding
        /// the straggler tail.  `None` releases by count only.
        round_deadline_s: Option<f64>,
    },
}

/// The staleness bound of the buffered task constructors: generous enough
/// that only pathological stragglers are aborted.
const DEFAULT_MAX_STALENESS: u64 = 500;

/// Full configuration of a federated training task.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskConfig {
    /// Human-readable task name.
    pub name: String,
    /// Maximum number of concurrently participating clients (Appendix E.1).
    pub concurrency: usize,
    /// Number of client updates aggregated before a server model update.
    /// For SyncFL this is the cohort goal; for AsyncFL it is `K`.
    pub aggregation_goal: usize,
    /// Training regime.
    pub mode: TrainingMode,
    /// Whether updates are weighted by the client's example count.
    pub weight_by_examples: bool,
    /// Client-side training timeout in seconds (paper: 4 minutes).
    pub client_timeout_s: f64,
    /// Secure-aggregation mode.
    pub secagg: SecAggMode,
    /// User-level differential privacy: per-update L2 clipping, Gaussian
    /// release noise, and privacy accounting.  `None` runs without DP.
    /// Composes with [`SecAggMode::AsyncSecAgg`] (clipping happens
    /// client-side before masking; the noise lands on the decoded release).
    pub dp: Option<DpConfig>,
    /// Byzantine-robust aggregation: norm filtering or a robust release
    /// estimator wrapped around the (possibly DP + secure) strategy as the
    /// outermost decorator.  `None` runs undefended.
    pub robust: Option<RobustConfig>,
    /// Adversarial client model: which fraction of the population is
    /// malicious and how.  `None` means every client is honest.  This is a
    /// *simulation* knob — it configures the attack being studied, not the
    /// server — and never affects the defense's behavior.
    pub adversary: Option<AdversarySpec>,
    /// Serialized model size in bytes (used for cost accounting only).
    pub model_size_bytes: u64,
    /// Minimum device capability tier required to train this task; clients
    /// report their tier at check-in and 0 means any device qualifies
    /// (Section 6.2, "constructing lists of eligible tasks").
    pub min_capability_tier: u8,
}

impl TaskConfig {
    /// An asynchronous (FedBuff) task with the given concurrency and
    /// aggregation goal `K`.
    ///
    /// # Panics
    ///
    /// Panics if `concurrency == 0` or `aggregation_goal == 0`.
    pub fn async_task(
        name: impl Into<String>,
        concurrency: usize,
        aggregation_goal: usize,
    ) -> Self {
        assert!(concurrency > 0, "concurrency must be positive");
        assert!(aggregation_goal > 0, "aggregation goal must be positive");
        TaskConfig {
            name: name.into(),
            concurrency,
            aggregation_goal,
            mode: TrainingMode::Async {
                max_staleness: DEFAULT_MAX_STALENESS,
                round_deadline_s: None,
            },
            weight_by_examples: true,
            client_timeout_s: 240.0,
            secagg: SecAggMode::Disabled,
            dp: None,
            robust: None,
            adversary: None,
            model_size_bytes: 20_000_000,
            min_capability_tier: 0,
        }
    }

    /// A synchronous task.  With over-selection `o`, `concurrency` clients
    /// are selected per round and the aggregation goal is
    /// `concurrency / (1 + o)` (Figure 7's configuration).
    ///
    /// # Panics
    ///
    /// Panics if `concurrency == 0` or `over_selection < 0`.
    pub fn sync_task(name: impl Into<String>, concurrency: usize, over_selection: f64) -> Self {
        assert!(concurrency > 0, "concurrency must be positive");
        assert!(over_selection >= 0.0, "over-selection must be non-negative");
        let aggregation_goal = ((concurrency as f64) / (1.0 + over_selection)).round() as usize;
        TaskConfig {
            name: name.into(),
            concurrency,
            aggregation_goal: aggregation_goal.max(1),
            mode: TrainingMode::Sync,
            weight_by_examples: true,
            client_timeout_s: 240.0,
            secagg: SecAggMode::Disabled,
            dp: None,
            robust: None,
            adversary: None,
            model_size_bytes: 20_000_000,
            min_capability_tier: 0,
        }
    }

    /// A timed-hybrid task: an asynchronous task with aggregation goal `K`
    /// whose buffer is also released `round_deadline_s` after it opens.
    ///
    /// # Panics
    ///
    /// Panics if `concurrency == 0`, `aggregation_goal == 0`, or the
    /// deadline is not positive.
    pub fn timed_hybrid_task(
        name: impl Into<String>,
        concurrency: usize,
        aggregation_goal: usize,
        round_deadline_s: f64,
    ) -> Self {
        assert!(concurrency > 0, "concurrency must be positive");
        assert!(aggregation_goal > 0, "aggregation goal must be positive");
        assert!(round_deadline_s > 0.0, "round deadline must be positive");
        TaskConfig {
            name: name.into(),
            concurrency,
            aggregation_goal,
            mode: TrainingMode::Async {
                max_staleness: DEFAULT_MAX_STALENESS,
                round_deadline_s: Some(round_deadline_s),
            },
            weight_by_examples: true,
            client_timeout_s: 240.0,
            secagg: SecAggMode::Disabled,
            dp: None,
            robust: None,
            adversary: None,
            model_size_bytes: 20_000_000,
            min_capability_tier: 0,
        }
    }

    /// Sets the client timeout.
    pub fn with_timeout(mut self, timeout_s: f64) -> Self {
        self.client_timeout_s = timeout_s;
        self
    }

    /// Enables or disables example-count weighting.
    pub fn with_example_weighting(mut self, enabled: bool) -> Self {
        self.weight_by_examples = enabled;
        self
    }

    /// Sets the secure aggregation mode.
    pub fn with_secagg(mut self, secagg: SecAggMode) -> Self {
        self.secagg = secagg;
        self
    }

    /// Enables user-level differential privacy with the given
    /// configuration.
    pub fn with_dp(mut self, dp: DpConfig) -> Self {
        self.dp = Some(dp);
        self
    }

    /// Enables Byzantine-robust aggregation with the given configuration.
    pub fn with_robust(mut self, robust: RobustConfig) -> Self {
        self.robust = Some(robust);
        self
    }

    /// Injects the given adversarial client model into the simulation.
    pub fn with_adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Sets the maximum staleness (asynchronous tasks only; no-op for
    /// synchronous tasks).
    pub fn with_max_staleness(mut self, max: u64) -> Self {
        if let TrainingMode::Async { max_staleness, .. } = &mut self.mode {
            *max_staleness = max;
        }
        self
    }

    /// Sets the serialized model size used for communication accounting.
    pub fn with_model_size_bytes(mut self, bytes: u64) -> Self {
        self.model_size_bytes = bytes;
        self
    }

    /// Restricts the task to devices of at least the given capability tier.
    pub fn with_min_capability_tier(mut self, tier: u8) -> Self {
        self.min_capability_tier = tier;
        self
    }

    /// Client demand given the current number of active (participating but
    /// unfinished) clients and the number of updates already completed in the
    /// current round (Appendix E.3).
    ///
    /// * AsyncFL: `concurrency − active`.
    /// * SyncFL: `concurrency − completed − active` — once enough clients
    ///   have reported for this round no more are selected until the next
    ///   round starts.
    pub fn client_demand(&self, active_clients: usize, completed_this_round: usize) -> usize {
        match self.mode {
            TrainingMode::Async { .. } => self.concurrency.saturating_sub(active_clients),
            TrainingMode::Sync => self
                .concurrency
                .saturating_sub(completed_this_round)
                .saturating_sub(active_clients),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_task_derives_aggregation_goal_from_over_selection() {
        let t = TaskConfig::sync_task("t", 1300, 0.3);
        assert_eq!(t.aggregation_goal, 1000);
        assert_eq!(t.mode, TrainingMode::Sync);
    }

    #[test]
    fn sync_without_over_selection_waits_for_everyone() {
        let t = TaskConfig::sync_task("t", 1000, 0.0);
        assert_eq!(t.aggregation_goal, 1000);
    }

    #[test]
    fn async_task_defaults() {
        let t = TaskConfig::async_task("t", 1300, 100);
        assert_eq!(
            t.mode,
            TrainingMode::Async {
                max_staleness: 500,
                round_deadline_s: None
            }
        );
        assert_eq!(t.aggregation_goal, 100);
    }

    #[test]
    fn async_client_demand_tracks_active_only() {
        let t = TaskConfig::async_task("t", 100, 10);
        assert_eq!(t.client_demand(40, 7), 60);
        assert_eq!(t.client_demand(100, 0), 0);
        assert_eq!(t.client_demand(150, 0), 0);
    }

    #[test]
    fn sync_client_demand_shrinks_as_round_completes() {
        let t = TaskConfig::sync_task("t", 130, 0.3);
        assert_eq!(t.client_demand(0, 0), 130);
        assert_eq!(t.client_demand(100, 0), 30);
        assert_eq!(t.client_demand(50, 60), 20);
        assert_eq!(t.client_demand(30, 100), 0);
    }

    #[test]
    fn builder_methods_apply() {
        let t = TaskConfig::async_task("t", 10, 5)
            .with_timeout(60.0)
            .with_example_weighting(false)
            .with_secagg(SecAggMode::AsyncSecAgg)
            .with_dp(DpConfig::new(1.0, 0.5))
            .with_robust(RobustConfig::neutral())
            .with_adversary(AdversarySpec::new(
                0.1,
                crate::adversary::Malice::StalenessLiar,
            ))
            .with_max_staleness(7)
            .with_model_size_bytes(1000)
            .with_min_capability_tier(2);
        assert_eq!(t.client_timeout_s, 60.0);
        assert!(!t.weight_by_examples);
        assert_eq!(t.secagg, SecAggMode::AsyncSecAgg);
        assert_eq!(t.dp, Some(DpConfig::new(1.0, 0.5)));
        assert_eq!(t.robust, Some(RobustConfig::neutral()));
        assert_eq!(
            t.adversary,
            Some(AdversarySpec::new(
                0.1,
                crate::adversary::Malice::StalenessLiar
            ))
        );
        assert_eq!(t.model_size_bytes, 1000);
        assert_eq!(t.min_capability_tier, 2);
        match t.mode {
            TrainingMode::Async { max_staleness, .. } => assert_eq!(max_staleness, 7),
            _ => panic!("expected async mode"),
        }
    }

    #[test]
    fn timed_hybrid_task_defaults() {
        let t = TaskConfig::timed_hybrid_task("t", 100, 25, 300.0);
        // Demand follows the async rule: deadline releases never gate
        // selection the way a closing round does.
        assert_eq!(t.client_demand(40, 7), 60);
        assert_eq!(
            t.with_max_staleness(9).mode,
            TrainingMode::Async {
                max_staleness: 9,
                round_deadline_s: Some(300.0)
            }
        );
    }

    #[test]
    #[should_panic(expected = "concurrency must be positive")]
    fn zero_concurrency_rejected() {
        let _ = TaskConfig::async_task("t", 0, 1);
    }
}
