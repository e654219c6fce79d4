//! O(1) uniform sampling of free devices from a shared population.
//!
//! The engine previously selected clients by rejection sampling — draw a
//! random device id and retry while it is busy — which degenerates to
//! O(population) per selection once most of the population participates.
//! Multi-task sharing creates exactly that regime: several tenants drawing
//! from one population can saturate it.  [`ShardedSamplingPool`] keeps the
//! free device ids in one dense vector with an id→slot index, so acquiring
//! a uniformly random free device and releasing a busy one are both O(1)
//! (`Vec::swap_remove` / push) — O(draw), never O(population).
//!
//! # Memory
//!
//! The pool starts full and never holds more than `n` free ids, so the
//! free vector is allocated once at capacity `n` and never reallocates.
//! Idle bookkeeping is [`ShardedSamplingPool::BYTES_PER_DEVICE`] (8) bytes
//! per device — a `u32` free-list entry plus a `u32` slot index (see
//! `docs/SCALING.md`).
//!
//! # Determinism
//!
//! A draw is `Vec::swap_remove` at a uniformly drawn index, so for a fixed
//! seed the sequence of acquired ids is a pure function of the
//! acquire/release sequence (see `docs/DETERMINISM.md`).
//!
//! The type keeps its historical name, from when the free list was split
//! into shards: the repo benchmark (`benchmark/src/probes.rs`) names it.

use rand::rngs::StdRng;
use rand::Rng;

/// Sentinel in the id→slot index marking an id as acquired (not free).
const NOT_FREE: u32 = u32::MAX;

/// Constant-time uniform sampler over the free subset of `0..n` device ids.
#[derive(Clone, Debug)]
pub struct ShardedSamplingPool {
    /// The free ids, in no particular order.
    free: Vec<u32>,
    /// `slot[id]` is the id's index in `free`, or [`NOT_FREE`] while
    /// acquired.
    slot: Vec<u32>,
}

impl ShardedSamplingPool {
    /// Idle-state bytes per managed device: one `u32` free-list entry plus
    /// one `u32` slot index.  `docs/SCALING.md` budgets against this and a
    /// test pins it.
    pub const BYTES_PER_DEVICE: usize = 2 * std::mem::size_of::<u32>();

    /// Creates a pool over ids `0..n`, all free.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds the `u32` id space.
    pub fn new(n: usize) -> Self {
        assert!(
            n < u32::MAX as usize,
            "population of {n} exceeds the u32 id space"
        );
        ShardedSamplingPool {
            free: (0..n as u32).collect(),
            slot: (0..n as u32).collect(),
        }
    }

    /// Number of ids currently free.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Acquires a uniformly random free id, or `None` when all are busy.
    pub fn acquire_random(&mut self, rng: &mut StdRng) -> Option<usize> {
        if self.free.is_empty() {
            return None;
        }
        let index = rng.gen_range(0..self.free.len());
        let id = self.free.swap_remove(index);
        // The old tail now sits at `index`, unless the draw was the tail.
        if let Some(&moved) = self.free.get(index) {
            self.slot[moved as usize] = index as u32;
        }
        self.slot[id as usize] = NOT_FREE;
        Some(id as usize)
    }

    /// Releases a previously acquired id back into the pool.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already free (double release).
    pub fn release(&mut self, id: usize) {
        assert!(
            self.slot[id] == NOT_FREE,
            "device {id} released while already free"
        );
        self.slot[id] = self.free.len() as u32;
        self.free.push(id as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    impl ShardedSamplingPool {
        /// Whether `id` is currently free.
        fn is_free(&self, id: usize) -> bool {
            self.slot[id] != NOT_FREE
        }
    }

    #[test]
    fn acquire_removes_and_release_restores() {
        let mut pool = ShardedSamplingPool::new(10);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(pool.available(), 10);
        let a = pool.acquire_random(&mut rng).unwrap();
        assert!(!pool.is_free(a));
        assert_eq!(pool.available(), 9);
        pool.release(a);
        assert!(pool.is_free(a));
        assert_eq!(pool.available(), 10);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut pool = ShardedSamplingPool::new(3);
        let mut rng = StdRng::seed_from_u64(2);
        let mut taken = BTreeSet::new();
        for _ in 0..3 {
            assert!(taken.insert(pool.acquire_random(&mut rng).unwrap()));
        }
        assert_eq!(pool.acquire_random(&mut rng), None);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn never_hands_out_a_busy_id() {
        let mut pool = ShardedSamplingPool::new(50);
        let mut rng = StdRng::seed_from_u64(3);
        let mut held: Vec<usize> = Vec::new();
        for step in 0..10_000 {
            if step % 3 == 2 && !held.is_empty() {
                let id = held.swap_remove(step % held.len());
                pool.release(id);
            } else if let Some(id) = pool.acquire_random(&mut rng) {
                assert!(!held.contains(&id), "id {id} handed out twice");
                held.push(id);
            }
            assert_eq!(pool.available() + held.len(), 50);
        }
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let mut pool = ShardedSamplingPool::new(10);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            let id = pool.acquire_random(&mut rng).unwrap();
            counts[id] += 1;
            pool.release(id);
        }
        for &c in &counts {
            assert!((1500..2500).contains(&c), "counts {counts:?}");
        }
    }

    /// The pool against the naive model it replaces: a `Vec` of free ids
    /// drawn with `swap_remove` at `gen_range(0..len)` and released with
    /// `push`, without the slot index.  Random acquire/release scripts over
    /// several population sizes (including drain-and-refill cycles) must
    /// give the same draw at every step and the same free list after it.
    #[test]
    fn draws_match_a_naive_swap_remove_vec() {
        for (n, seed) in [(1, 11), (2, 12), (7, 13), (64, 14), (300, 15)] {
            let mut pool = ShardedSamplingPool::new(n);
            let mut model: Vec<u32> = (0..n as u32).collect();
            let mut rng_pool = StdRng::seed_from_u64(seed);
            let mut rng_model = StdRng::seed_from_u64(seed);
            let mut script = StdRng::seed_from_u64(seed ^ 0xdead_beef);
            let mut held: Vec<usize> = Vec::new();
            for step in 0..4_000 {
                // Lean towards acquiring in one phase and releasing in the
                // next, so the free list drains and refills.
                let release_share = if (step / 200) % 2 == 0 { 0.3 } else { 0.7 };
                if !held.is_empty() && script.gen_bool(release_share) {
                    let id = held.swap_remove(script.gen_range(0..held.len()));
                    pool.release(id);
                    model.push(id as u32);
                } else {
                    let got = pool.acquire_random(&mut rng_pool);
                    let want = (!model.is_empty()).then(|| {
                        let index = rng_model.gen_range(0..model.len());
                        model.swap_remove(index) as usize
                    });
                    assert_eq!(got, want, "n {n}, step {step}");
                    held.extend(got);
                }
                assert_eq!(pool.free, model, "n {n}, step {step}");
                for (index, &id) in pool.free.iter().enumerate() {
                    assert_eq!(pool.slot[id as usize], index as u32);
                }
            }
        }
    }

    #[test]
    fn byte_budget_matches_the_stored_state() {
        // The documented per-device idle cost is exactly what the pool
        // stores: one u32 free-list entry plus one u32 slot entry.
        assert_eq!(
            ShardedSamplingPool::BYTES_PER_DEVICE,
            std::mem::size_of::<u32>() * 2
        );
    }

    #[test]
    #[should_panic(expected = "already free")]
    fn double_release_panics() {
        let mut pool = ShardedSamplingPool::new(2);
        pool.release(0);
    }
}
