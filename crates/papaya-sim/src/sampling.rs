//! O(1) uniform sampling of free devices from a shared population.
//!
//! The engine previously selected clients by rejection sampling — draw a
//! random device id and retry while it is busy — which degenerates to
//! O(population) per selection once most of the population participates.
//! Multi-task sharing creates exactly that regime: several tenants drawing
//! from one population can saturate it.  [`ShardedSamplingPool`] keeps the
//! free device ids in a dense *sharded* vector with an id→slot index, so
//! acquiring a uniformly random free device and releasing a busy one are
//! both O(1) (index-swap / swap-remove) — O(draw), never O(population).
//!
//! # Sharding
//!
//! At million-client scale a single contiguous free vector is hostile to
//! the allocator: growth doubles a multi-megabyte allocation and every
//! resize copies the whole population.  The pool therefore stores the free
//! list as fixed-capacity shards (chunks of one *conceptual* flat vector):
//! growth allocates at most one `shard_capacity`-sized block, and shrink
//! returns whole shards to the allocator.  Idle bookkeeping is
//! [`ShardedSamplingPool::BYTES_PER_DEVICE`] (8) bytes per device — a `u32`
//! free-list entry plus a `u32` slot index (see `docs/SCALING.md`).
//!
//! # Determinism
//!
//! The shard layout is pure bookkeeping: a draw indexes the conceptual
//! flat vector exactly as `Vec::swap_remove` would, so for a fixed seed
//! the sequence of acquired ids is **bit-identical for every shard
//! capacity** — and identical to the historical unsharded pool, so the
//! layout never reaches a scenario fingerprint (see `docs/DETERMINISM.md`;
//! pinned by this module's tests and by the root `scale_out` suite).

use rand::rngs::StdRng;
use rand::Rng;

/// Sentinel in the id→slot index marking an id as acquired (not free).
const NOT_FREE: u32 = u32::MAX;

/// Shard capacity used by [`ShardedSamplingPool::new`]: 64Ki ids (256 KiB
/// per shard) keeps allocator traffic coarse at million-client scale while
/// costing nothing at 20k.
pub const DEFAULT_SHARD_CAPACITY: usize = 1 << 16;

/// Constant-time uniform sampler over the free subset of `0..n` device ids,
/// sharded so no single allocation scales with the population.  The shard
/// capacity affects memory/allocator behaviour only, never the drawn
/// sequence.
#[derive(Clone, Debug)]
pub struct ShardedSamplingPool {
    /// Ids per shard; every shard except the last holds exactly this many.
    shard_capacity: usize,
    /// The conceptual flat free vector, split into fixed-capacity chunks.
    shards: Vec<Vec<u32>>,
    /// Total number of free ids across all shards.
    free_len: usize,
    /// `slot[id]` is the id's index in the conceptual flat free vector, or
    /// [`NOT_FREE`] while acquired.
    slot: Vec<u32>,
}

impl ShardedSamplingPool {
    /// Idle-state bytes per managed device: one `u32` free-list entry plus
    /// one `u32` slot index.  `docs/SCALING.md` budgets against this and a
    /// test pins it.
    pub const BYTES_PER_DEVICE: usize = 2 * std::mem::size_of::<u32>();

    /// Creates a pool over ids `0..n`, all free, with
    /// [`DEFAULT_SHARD_CAPACITY`].
    pub fn new(n: usize) -> Self {
        Self::with_shard_capacity(n, DEFAULT_SHARD_CAPACITY)
    }

    /// Creates a pool over ids `0..n`, all free, with `shard_capacity` ids
    /// per shard.
    ///
    /// # Panics
    ///
    /// Panics when `shard_capacity` is zero or `n` exceeds the `u32` id
    /// space.
    pub fn with_shard_capacity(n: usize, shard_capacity: usize) -> Self {
        assert!(shard_capacity > 0, "shard capacity must be positive");
        assert!(
            n < u32::MAX as usize,
            "population of {n} exceeds the u32 id space"
        );
        let mut shards = Vec::with_capacity(n.div_ceil(shard_capacity));
        let mut next = 0u32;
        let mut remaining = n;
        while remaining > 0 {
            let take = remaining.min(shard_capacity);
            shards.push((next..next + take as u32).collect());
            next += take as u32;
            remaining -= take;
        }
        ShardedSamplingPool {
            shard_capacity,
            shards,
            free_len: n,
            slot: (0..n as u32).collect(),
        }
    }

    /// Number of ids currently free.
    pub fn available(&self) -> usize {
        self.free_len
    }

    /// Total number of ids managed by the pool.
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// Returns true when the pool manages no ids.
    pub fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// Ids per shard.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Number of currently allocated shards (`ceil(available / capacity)`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether `id` is currently free.
    pub fn is_free(&self, id: usize) -> bool {
        self.slot.get(id).map(|&s| s != NOT_FREE).unwrap_or(false)
    }

    /// Appends `id` at the tail of the conceptual flat free vector.
    fn push_free(&mut self, id: u32) {
        if self.free_len.is_multiple_of(self.shard_capacity) {
            self.shards.push(Vec::with_capacity(self.shard_capacity));
        }
        let last = self.shards.len() - 1;
        self.shards[last].push(id);
        self.free_len += 1;
    }

    /// Pops the tail of the conceptual flat free vector, freeing emptied
    /// shards.
    fn pop_free(&mut self) -> Option<u32> {
        let id = self.shards.last_mut()?.pop()?;
        self.free_len -= 1;
        if self.shards.last().is_some_and(|s| s.is_empty()) {
            self.shards.pop();
        }
        Some(id)
    }

    /// Acquires a uniformly random free id, or `None` when all are busy.
    ///
    /// Exactly `Vec::swap_remove` on the conceptual flat free vector: the
    /// drawn sequence for a fixed RNG stream is independent of the shard
    /// capacity.
    pub fn acquire_random(&mut self, rng: &mut StdRng) -> Option<usize> {
        if self.free_len == 0 {
            return None;
        }
        let index = rng.gen_range(0..self.free_len);
        let tail = self.pop_free()?;
        // After the pop, `free_len` is the conceptual vector's new length:
        // an interior draw is replaced by the old tail, a tail draw is the
        // popped element itself.
        let id = if index < self.free_len {
            let shard = index / self.shard_capacity;
            let offset = index % self.shard_capacity;
            let id = self.shards[shard][offset];
            self.shards[shard][offset] = tail;
            self.slot[tail as usize] = index as u32;
            id
        } else {
            tail
        };
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
        self.slot[id] = self.free_len as u32;
        self.push_free(id as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

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
        let mut pool = ShardedSamplingPool::with_shard_capacity(50, 8);
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
        let mut pool = ShardedSamplingPool::with_shard_capacity(10, 3);
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

    /// Replays a fixed mixed acquire/release script and records every draw.
    fn draw_script(n: usize, capacity: usize, seed: u64) -> Vec<Option<usize>> {
        let mut pool = ShardedSamplingPool::with_shard_capacity(n, capacity);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut held: Vec<usize> = Vec::new();
        let mut drawn = Vec::new();
        for step in 0..5_000 {
            if step % 3 == 2 && !held.is_empty() {
                let id = held.swap_remove(step % held.len());
                pool.release(id);
            } else {
                let got = pool.acquire_random(&mut rng);
                if let Some(id) = got {
                    held.push(id);
                }
                drawn.push(got);
            }
        }
        drawn
    }

    #[test]
    fn draws_are_bit_identical_across_shard_capacities() {
        // A capacity >= n is a single shard: the historical flat pool.
        let flat = draw_script(100, 100, 7);
        for capacity in [1, 3, 7, 64, 1024] {
            assert_eq!(draw_script(100, capacity, 7), flat, "capacity {capacity}");
        }
    }

    #[test]
    fn shards_grow_and_shrink_with_the_free_set() {
        let mut pool = ShardedSamplingPool::with_shard_capacity(10, 4);
        assert_eq!(pool.shard_count(), 3);
        let mut rng = StdRng::seed_from_u64(5);
        let mut held = Vec::new();
        while let Some(id) = pool.acquire_random(&mut rng) {
            held.push(id);
        }
        assert_eq!(pool.shard_count(), 0);
        for id in held {
            pool.release(id);
        }
        assert_eq!(pool.shard_count(), 3);
        assert_eq!(pool.available(), 10);
    }

    #[test]
    fn byte_budget_matches_the_stored_state() {
        // The documented per-device idle cost is exactly what the pool
        // stores: one u32 in a shard plus one u32 slot entry.
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
