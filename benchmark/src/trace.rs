//! The traced run's spans.  Everything here lives in the benchmark: spans are
//! recorded around calls *into* a layer, never inside one.
//!
//! Phase and probe spans are kept whole.  Per-call trainer spans (millions on
//! `loop-bound`) are folded as they happen into a count, a busy time and a
//! log2 histogram per `(name, parent)`.

use crate::json::Json;
use crate::stats::Log2Histogram;
use papaya_core::client::{ClientTrainer, LocalTrainResult};
use papaya_nn::params::ParamVec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One whole span.  `parent` 0 means a root.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Many spans of one name under one parent, folded.
#[derive(Clone, Debug, PartialEq)]
pub struct FoldedSpans {
    pub name: &'static str,
    pub parent: u64,
    pub count: u64,
    pub busy_ns: u64,
    pub histogram: Log2Histogram,
}

/// Collects spans in memory on the thread driving the run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    folded: Vec<FoldedSpans>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            folded: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.  Returns `f`'s value and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len() as u64 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start = Instant::now();
        let value = f(self);
        let end = Instant::now();
        self.open.pop();
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = start.duration_since(self.origin).as_nanos() as u64;
        span.end_ns = end.duration_since(self.origin).as_nanos() as u64;
        (value, end.duration_since(start).as_secs_f64())
    }

    /// The innermost open span: what a folded call made now is a child of.
    pub fn current(&self) -> u64 {
        self.open.last().copied().unwrap_or(0)
    }

    pub fn add_folded(&mut self, folded: FoldedSpans) {
        if folded.count > 0 {
            self.folded.push(folded);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of `id` minus the part its direct children cover.
    pub fn self_ns(&self, id: u64) -> u64 {
        let span = &self.spans[id as usize - 1];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| s.end_ns - s.start_ns)
            .chain(
                self.folded
                    .iter()
                    .filter(|f| f.parent == id)
                    .map(|f| f.busy_ns),
            )
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self.self_ns(s.id) as f64)),
                ])
            })
            .collect();
        let folded = self
            .folded
            .iter()
            .map(|f| {
                let first = f.histogram.buckets.iter().position(|&c| c > 0).unwrap_or(0);
                let last = f
                    .histogram
                    .buckets
                    .iter()
                    .rposition(|&c| c > 0)
                    .unwrap_or(0);
                Json::obj([
                    ("name", Json::str(f.name)),
                    ("parent", Json::Num(f.parent as f64)),
                    ("count", Json::Num(f.count as f64)),
                    ("busy_ns", Json::Num(f.busy_ns as f64)),
                    // Bucket b counts calls of [2^b, 2^(b+1)) ns.
                    ("log2_first_bucket", Json::Num(first as f64)),
                    (
                        "log2_histogram",
                        Json::Arr(
                            f.histogram.buckets[first..=last]
                                .iter()
                                .map(|&c| Json::Num(c as f64))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
            ("folded", Json::Arr(folded)),
        ])
    }
}

/// What a folded span of zero length records: the gap between the two clock
/// reads that bracket a call.  The traced run takes this off every per-call
/// reading, which matters where a call is 50 ns and the gap is 20.
pub fn timer_gap_ns() -> f64 {
    const READS: u32 = 200_000;
    let mut total = 0u128;
    for _ in 0..READS {
        let start = Instant::now();
        total += std::hint::black_box(start).elapsed().as_nanos();
    }
    total as f64 / f64::from(READS)
}

/// Counters of one trainer method, updated from whichever thread calls it
/// (`lm-pool` trains on executor workers).  All `Relaxed`: they are
/// statistics read after the run's threads have been joined.
struct CallStats {
    count: AtomicU64,
    busy_ns: AtomicU64,
    histogram: [AtomicU64; 64],
}

impl CallStats {
    fn new() -> Self {
        CallStats {
            count: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            histogram: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.histogram[Log2Histogram::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn drain(&self, name: &'static str, parent: u64) -> FoldedSpans {
        let mut histogram = Log2Histogram::default();
        for (bucket, slot) in histogram.buckets.iter_mut().zip(&self.histogram) {
            *bucket = slot.swap(0, Ordering::Relaxed);
        }
        FoldedSpans {
            name,
            parent,
            count: self.count.swap(0, Ordering::Relaxed),
            busy_ns: self.busy_ns.swap(0, Ordering::Relaxed),
            histogram,
        }
    }
}

/// How many training results the decorator keeps for the aggregation probes
/// to replay (the probes ask for 4 × the aggregation goal; 2048 covers the
/// largest goal, 512).
pub const CAPTURE_LIMIT: usize = 2048;

/// The timing `ClientTrainer` decorator of the traced run: times every
/// `train` and `evaluate`, and keeps the first [`CAPTURE_LIMIT`] results.
pub struct TimedTrainer {
    inner: Arc<dyn ClientTrainer>,
    train: CallStats,
    evaluate: CallStats,
    captured: Mutex<Vec<(usize, LocalTrainResult)>>,
    captured_len: AtomicU64,
}

impl TimedTrainer {
    pub fn new(inner: Arc<dyn ClientTrainer>) -> Arc<Self> {
        Arc::new(TimedTrainer {
            inner,
            train: CallStats::new(),
            evaluate: CallStats::new(),
            captured: Mutex::new(Vec::new()),
            captured_len: AtomicU64::new(0),
        })
    }

    /// Moves the calls made since the last drain into `tracer`, as children
    /// of its innermost open span, and returns `(train, evaluate)`.
    pub fn drain_into(&self, tracer: &mut Tracer) -> (FoldedSpans, FoldedSpans) {
        let parent = tracer.current();
        let train = self.train.drain("trainer.train", parent);
        let evaluate = self.evaluate.drain("trainer.evaluate", parent);
        tracer.add_folded(train.clone());
        tracer.add_folded(evaluate.clone());
        (train, evaluate)
    }

    /// The captured `(client_id, result)` pairs, in call order.
    pub fn captured(&self) -> Vec<(usize, LocalTrainResult)> {
        self.captured
            .lock()
            .expect("a trainer call panicked while capturing")
            .clone()
    }
}

impl ClientTrainer for TimedTrainer {
    fn parameter_count(&self) -> usize {
        self.inner.parameter_count()
    }

    fn initial_parameters(&self) -> ParamVec {
        self.inner.initial_parameters()
    }

    fn train(&self, client_id: usize, global: &ParamVec, seed: u64) -> LocalTrainResult {
        let start = Instant::now();
        let result = self.inner.train(client_id, global, seed);
        self.train.record(start.elapsed().as_nanos() as u64);
        if self.captured_len.load(Ordering::Relaxed) < CAPTURE_LIMIT as u64 {
            let mut captured = self
                .captured
                .lock()
                .expect("a trainer call panicked while capturing");
            if captured.len() < CAPTURE_LIMIT {
                captured.push((client_id, result.clone()));
                self.captured_len
                    .store(captured.len() as u64, Ordering::Relaxed);
            }
        }
        result
    }

    fn evaluate(&self, params: &ParamVec, client_ids: &[usize]) -> f64 {
        let start = Instant::now();
        let loss = self.inner.evaluate(params, client_ids);
        self.evaluate.record(start.elapsed().as_nanos() as u64);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stub::StubTrainer;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tracer = Tracer::new();
        let ((), outer_s) = tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            assert_eq!(t.current(), 1);
        });
        assert!(outer_s >= 0.005);
        let spans = tracer.spans();
        assert_eq!((spans[0].name, spans[0].parent), ("outer", 0));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let inner_ns = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(
            tracer.self_ns(1),
            spans[0].end_ns - spans[0].start_ns - inner_ns
        );
        assert_eq!(tracer.current(), 0);
    }

    #[test]
    fn the_timer_gap_is_small_and_positive() {
        let gap = timer_gap_ns();
        assert!(gap > 0.0 && gap < 10_000.0, "{gap}");
    }

    #[test]
    fn timed_trainer_is_transparent_and_folds_its_calls() {
        let inner: Arc<dyn ClientTrainer> = Arc::new(StubTrainer::new(8, 1));
        let timed = TimedTrainer::new(Arc::clone(&inner));
        let global = inner.initial_parameters();
        assert_eq!(timed.parameter_count(), 8);
        assert_eq!(timed.initial_parameters(), global);
        for client in 0..10 {
            assert_eq!(
                timed.train(client, &global, 3),
                inner.train(client, &global, 3)
            );
        }
        assert_eq!(
            timed.evaluate(&global, &[1, 2]),
            inner.evaluate(&global, &[1, 2])
        );
        assert_eq!(timed.captured().len(), 10);
        assert_eq!(timed.captured()[4].0, 4);

        let mut tracer = Tracer::new();
        let ((train, evaluate), _) = tracer.span("run", |t| timed.drain_into(t));
        assert_eq!((train.count, train.parent), (10, 1));
        assert_eq!(train.histogram.count(), 10);
        assert_eq!(evaluate.count, 1);
        // Drained: a second drain is empty and adds nothing to the trace.
        let (again, _) = timed.drain_into(&mut tracer);
        assert_eq!(again.count, 0);
        let json = tracer.to_json("w", 1);
        assert_eq!(json.get("folded").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            Json::parse(&json.render_pretty()).unwrap(),
            json,
            "trace files parse back"
        );
    }
}
