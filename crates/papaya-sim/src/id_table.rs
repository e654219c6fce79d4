//! An ordered map keyed by participation id.
//!
//! Participation ids come from one monotone counter
//! (`Run::next_participation_id` in [`crate::scenario`]), so the newest key
//! is always the largest and an insert is a push at the back.  [`IdTable`]
//! keeps keys and values in two parallel vectors sorted by id: a lookup
//! binary-searches the keys alone (eight bytes each, so the keys of a few
//! thousand in-flight participations stay inside L1), a removal leaves a
//! tombstone, and both vectors are compacted in place once tombstones
//! outnumber live entries — each removal pays for at most two slots of a
//! later compaction, so every operation is amortised O(1) beside its
//! binary search.  Iteration is in id order by construction and depends on
//! nothing ambient, which is what `docs/DETERMINISM.md` asks of every
//! collection on a fingerprinted path.
//!
//! An id that arrives out of order takes a sorted-insert slow path, so the
//! type is a correct map for any sequence of calls, not only the run
//! loop's.

/// Compaction runs when tombstones exceed this many per live entry.
const MAX_TOMBSTONES_PER_LIVE: usize = 1;

/// A map from participation id to `V`, iterated in id order.
#[derive(Debug)]
pub(crate) struct IdTable<V> {
    /// Strictly increasing; `ids[i]` is the key of `values[i]`.
    ids: Vec<u64>,
    /// `None` marks a removed entry whose slot has not been compacted yet.
    values: Vec<Option<V>>,
    live: usize,
}

impl<V> IdTable<V> {
    pub(crate) fn new() -> Self {
        IdTable {
            ids: Vec::new(),
            values: Vec::new(),
            live: 0,
        }
    }

    /// Number of entries present.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Inserts `value` under `id`, returning the value it replaces.
    pub(crate) fn insert(&mut self, id: u64, value: V) -> Option<V> {
        if self.ids.last().is_none_or(|&last| last < id) {
            self.ids.push(id);
            self.values.push(Some(value));
            self.live += 1;
            return None;
        }
        match self.ids.binary_search(&id) {
            Ok(slot) => {
                let replaced = self.values[slot].replace(value);
                if replaced.is_none() {
                    self.live += 1;
                }
                replaced
            }
            Err(slot) => {
                self.ids.insert(slot, id);
                self.values.insert(slot, Some(value));
                self.live += 1;
                None
            }
        }
    }

    /// The value stored under `id`.
    pub(crate) fn get(&self, id: u64) -> Option<&V> {
        let slot = self.ids.binary_search(&id).ok()?;
        self.values[slot].as_ref()
    }

    /// Removes and returns the value stored under `id`.
    pub(crate) fn remove(&mut self, id: u64) -> Option<V> {
        let slot = self.ids.binary_search(&id).ok()?;
        let removed = self.values[slot].take()?;
        self.live -= 1;
        if self.ids.len() - self.live > self.live * MAX_TOMBSTONES_PER_LIVE {
            self.compact();
        }
        Some(removed)
    }

    /// The entries present, in increasing id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.ids
            .iter()
            .zip(&self.values)
            .filter_map(|(&id, value)| Some((id, value.as_ref()?)))
    }

    /// Squeezes the tombstones out of both vectors, keeping their order.
    fn compact(&mut self) {
        let mut kept = 0;
        for slot in 0..self.ids.len() {
            if self.values[slot].is_some() {
                self.ids[kept] = self.ids[slot];
                self.values.swap(kept, slot);
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.values.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One step of a differential run against `BTreeMap`.  `pick` selects
    /// an id below the counter, so it lands on keys that are, or once were,
    /// present about half the time.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Insert the next id of the monotone counter.
        InsertNext,
        /// Insert an id below the largest handed out: out of order, and a
        /// duplicate when it is still present.
        InsertOld { pick: usize },
        /// Remove an id below the largest handed out: present, already
        /// removed, or never inserted.
        Remove { pick: usize },
        /// Remove the oldest entry present (what a finishing client does).
        RemoveFirst,
        /// Remove an id above every key.
        RemoveAbsent,
    }

    struct OpStrategy {
        /// Share of removals in 0..100; the rest is inserts.
        remove_percent: u32,
    }

    impl Strategy for OpStrategy {
        type Value = Op;
        fn sample(&self, rng: &mut proptest::TestRng) -> Op {
            let pick = (0usize..usize::MAX).sample(rng);
            if (0u32..100).sample(rng) < self.remove_percent {
                match (0u32..10).sample(rng) {
                    0 => Op::RemoveAbsent,
                    1..=4 => Op::RemoveFirst,
                    _ => Op::Remove { pick },
                }
            } else {
                match (0u32..10).sample(rng) {
                    0 => Op::InsertOld { pick },
                    _ => Op::InsertNext,
                }
            }
        }
    }

    /// Applies `ops` to an `IdTable` and a `BTreeMap` side by side and
    /// compares every return value, `len`, a lookup and the full in-order
    /// iteration after each step.
    fn check_against_btreemap(
        table: &mut IdTable<u64>,
        reference: &mut BTreeMap<u64, u64>,
        next_id: &mut u64,
        ops: &[Op],
    ) -> Result<(), TestCaseError> {
        for (step, &op) in ops.iter().enumerate() {
            let value = step as u64;
            // The counter hands out even ids only, so an id below it is
            // either one of them (present, or removed) or falls between two.
            let counter = *next_id;
            let below_counter = |pick: usize| pick as u64 % counter.max(1);
            let probe = match op {
                Op::InsertNext => {
                    let id = *next_id;
                    *next_id += 2;
                    prop_assert_eq!(table.insert(id, value), reference.insert(id, value));
                    id
                }
                Op::InsertOld { pick } => {
                    let id = below_counter(pick);
                    prop_assert_eq!(table.insert(id, value), reference.insert(id, value));
                    id
                }
                Op::Remove { pick } => {
                    let id = below_counter(pick);
                    prop_assert_eq!(table.remove(id), reference.remove(&id));
                    id
                }
                Op::RemoveFirst => {
                    let id = reference.keys().next().copied().unwrap_or(0);
                    prop_assert_eq!(table.remove(id), reference.remove(&id));
                    id
                }
                Op::RemoveAbsent => {
                    let id = *next_id + 1;
                    prop_assert_eq!(table.remove(id), reference.remove(&id));
                    id
                }
            };
            prop_assert_eq!(table.get(probe), reference.get(&probe));
            prop_assert_eq!(table.len(), reference.len());
            prop_assert!(
                table
                    .iter()
                    .eq(reference.iter().map(|(&id, value)| (id, value))),
                "iteration diverged at step {step} ({op:?})"
            );
            prop_assert!(table.ids.windows(2).all(|pair| pair[0] < pair[1]));
            prop_assert!(table.ids.len() - table.live <= table.live * MAX_TOMBSTONES_PER_LIVE);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Grow, churn, drain to empty and refill: the table crosses its
        /// compaction threshold many times and never disagrees with the
        /// reference map.
        #[test]
        fn matches_btreemap_through_growth_drain_and_refill(
            grow in collection::vec(OpStrategy { remove_percent: 30 }, 200..400),
            churn in collection::vec(OpStrategy { remove_percent: 50 }, 200..400),
            refill in collection::vec(OpStrategy { remove_percent: 35 }, 100..300),
        ) {
            let mut table = IdTable::new();
            let mut reference = BTreeMap::new();
            let mut next_id = 0;
            check_against_btreemap(&mut table, &mut reference, &mut next_id, &grow)?;
            check_against_btreemap(&mut table, &mut reference, &mut next_id, &churn)?;
            // Drain: removing every entry one by one compacts repeatedly on
            // the way down and leaves no slot behind.
            let drain: Vec<Op> = vec![Op::RemoveFirst; reference.len()];
            check_against_btreemap(&mut table, &mut reference, &mut next_id, &drain)?;
            prop_assert_eq!(table.len(), 0);
            prop_assert!(table.ids.is_empty() && table.values.is_empty());
            check_against_btreemap(&mut table, &mut reference, &mut next_id, &refill)?;
        }
    }

    #[test]
    fn compaction_keeps_slots_within_twice_the_live_entries() {
        let mut table = IdTable::new();
        for id in 0..1000u64 {
            table.insert(id, id);
        }
        // Remove every entry but the stragglers at the front and the back.
        for id in 1..999u64 {
            assert_eq!(table.remove(id), Some(id));
            assert!(table.ids.len() <= 2 * table.len() + 1);
        }
        assert_eq!(table.iter().collect::<Vec<_>>(), vec![(0, &0), (999, &999)]);
        assert_eq!(table.ids, vec![0, 999]);
        // A removed id can come back after its slot was compacted away.
        assert_eq!(table.insert(500, 7), None);
        assert_eq!(table.get(500), Some(&7));
        assert_eq!(table.ids, vec![0, 500, 999]);
    }
}
