//! An ordered map keyed by participation id whose entries never move.
//!
//! [`IdTable`] has two parts.  The entries live in a [`Slab`]: an insert
//! writes the entry into a free slot (the last one freed, if any) and the
//! entry keeps that slot for as long as it is present.  The slot goes back
//! to the caller as an [`InFlightSlot`], and a lookup or removal that passes
//! it reaches the entry in one step.  Because an aborted participation frees
//! its slot for the next insert, a hinted lookup checks the id stored in the
//! slot; on a mismatch the entry is gone, since no entry leaves its slot.
//! Only a lookup without a hint binary-searches the index.
//!
//! The index is the id-ordered list of `(id, slot)` pairs that serves
//! everything walking the table in order: [`IdTable::iter`], and through it
//! the staleness prefix scan and the end of a synchronous round.
//! Participation ids come from one monotone counter
//! (`Run::next_participation_id` in [`crate::scenario`]), so an insert is a
//! push at the back; an id not above every id inserted before is refused.
//! A removal leaves its pair behind; dead pairs are popped
//! from the front as the oldest entries leave, and the index is compacted in
//! place once dead pairs outnumber live ones [`MAX_DEAD_PER_LIVE`] to one —
//! each removal pays for at most one and a half pairs of a later compaction,
//! so every operation is amortised O(1) beside the fallback search.
//! Compaction moves pairs, never entries, so every slot handed out stays
//! valid.  Iteration order depends on nothing ambient, which is what
//! `docs/DETERMINISM.md` asks of every collection on a fingerprinted path.

use crate::slab::Slab;
use std::collections::VecDeque;

/// Compaction of the index runs when its dead pairs exceed this many per
/// live entry.  On `loop-bound` 2 beat 1 (a compaction twice as often) and
/// matched 4 and 8 within the noise, which also held more pairs.
const MAX_DEAD_PER_LIVE: usize = 2;

/// Where an in-flight participation is stored in its task's runtime: a
/// handle [`TaskRuntime::begin_participation`] returns and the calls that
/// end the participation take back, so they reach it without a search.  A
/// slot is reused once its participation ends, so a call whose slot no
/// longer holds its participation finds nothing.
///
/// [`TaskRuntime::begin_participation`]: crate::task_runtime::TaskRuntime::begin_participation
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InFlightSlot(pub(crate) u32);

/// A map from participation id to `V`, iterated in id order.
#[derive(Debug)]
pub(crate) struct IdTable<V> {
    entries: Slab<(u64, V)>,
    /// `(id, slot)` in strictly increasing id order: one pair for every
    /// entry present, plus the dead pairs of removed entries that have not
    /// been popped or compacted away yet.
    order: VecDeque<(u64, u32)>,
    live: usize,
    /// The largest id inserted so far.
    last_inserted: Option<u64>,
}

impl<V> IdTable<V> {
    pub(crate) fn new() -> Self {
        IdTable {
            entries: Slab::default(),
            order: VecDeque::new(),
            live: 0,
            last_inserted: None,
        }
    }

    /// Number of entries present.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Inserts `value` under `id` and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics unless `id` is above every id inserted before.
    pub(crate) fn insert(&mut self, id: u64, value: V) -> InFlightSlot {
        assert!(
            self.last_inserted.is_none_or(|last| last < id),
            "participation id {id} inserted out of order"
        );
        self.last_inserted = Some(id);
        self.live += 1;
        let slot = self.entries.insert((id, value));
        self.order.push_back((id, slot));
        InFlightSlot(slot)
    }

    /// The value stored under `id`; `hint` is where it was inserted.
    pub(crate) fn get(&self, id: u64, hint: Option<InFlightSlot>) -> Option<&V> {
        let slot = self.find(id, hint)?;
        self.entries.get(slot).map(|(_, value)| value)
    }

    /// Removes and returns the value stored under `id`; `hint` is where it
    /// was inserted.
    pub(crate) fn remove(&mut self, id: u64, hint: Option<InFlightSlot>) -> Option<V> {
        let slot = self.find(id, hint)?;
        let (_, removed) = self.entries.remove(slot)?;
        self.live -= 1;
        while let Some(&(id, slot)) = self.order.front() {
            if holds(&self.entries, slot, id) {
                break;
            }
            self.order.pop_front();
        }
        if self.order.len() - self.live > self.live * MAX_DEAD_PER_LIVE {
            let entries = &self.entries;
            self.order.retain(|&(id, slot)| holds(entries, slot, id));
        }
        Some(removed)
    }

    /// The entries present, with their slots, in increasing id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, InFlightSlot, &V)> {
        self.order
            .iter()
            .filter_map(|&(id, slot)| match self.entries.get(slot) {
                Some((held, value)) if *held == id => Some((id, InFlightSlot(slot), value)),
                _ => None,
            })
    }

    /// The slot of the entry under `id`: `hint` if it holds that entry,
    /// else none, since an entry never leaves the slot its insert returned.
    /// Without a hint, the one the index records.
    fn find(&self, id: u64, hint: Option<InFlightSlot>) -> Option<u32> {
        let slot = match hint {
            Some(InFlightSlot(slot)) => slot,
            // Only the un-scoped `EventKind::ClientFinished` carries no slot.
            None => {
                let at = self.order.binary_search_by_key(&id, |&(id, _)| id).ok()?;
                self.order[at].1
            }
        };
        holds(&self.entries, slot, id).then_some(slot)
    }
}

/// Whether `slot` holds the entry under `id`.
fn holds<V>(entries: &Slab<(u64, V)>, slot: u32, id: u64) -> bool {
    entries.get(slot).is_some_and(|&(held, _)| held == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Which slot a lookup or removal passes.
    #[derive(Clone, Copy, Debug)]
    enum Hint {
        /// None: the search by id.
        Unhinted,
        /// The slot the id was last inserted into.  Stale when the id has
        /// been removed since, and possibly reused by another id.
        Own,
        /// The slot another id was last inserted into: it finds nothing
        /// unless that is also where this id sits.
        Foreign { pick: usize },
    }

    /// One step of a differential run against `BTreeMap`.  `pick` selects
    /// an id below the counter, so it lands on keys that are, or once were,
    /// present about half the time.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Insert the next id of the monotone counter.
        InsertNext,
        /// Remove an id below the largest handed out: present, already
        /// removed, or never inserted.
        Remove { pick: usize, hint: Hint },
        /// Remove the oldest entry present (what a stale abort does).
        RemoveFirst { hint: Hint },
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
            let hint = match (0u32..4).sample(rng) {
                0 => Hint::Unhinted,
                1 => Hint::Foreign {
                    pick: (0usize..usize::MAX).sample(rng),
                },
                _ => Hint::Own,
            };
            if (0u32..100).sample(rng) < self.remove_percent {
                match (0u32..10).sample(rng) {
                    0 => Op::RemoveAbsent,
                    1..=4 => Op::RemoveFirst { hint },
                    _ => Op::Remove { pick, hint },
                }
            } else {
                Op::InsertNext
            }
        }
    }

    /// The reference map, and the slot each id was last inserted into
    /// (kept after the id is removed, so it serves as a stale hint).
    #[derive(Default)]
    struct Reference {
        map: BTreeMap<u64, u64>,
        slots: BTreeMap<u64, InFlightSlot>,
        next_id: u64,
        /// The most entries present at once so far.
        peak_len: usize,
    }

    impl Reference {
        fn hint(&self, id: u64, hint: Hint) -> Option<InFlightSlot> {
            match hint {
                Hint::Unhinted => None,
                Hint::Own => self.slots.get(&id).copied(),
                Hint::Foreign { pick } => {
                    let n = self.slots.len().max(1);
                    self.slots.values().nth(pick % n).copied()
                }
            }
        }

        /// What a lookup of `id` through `slot` finds: the entry, if no slot
        /// was passed or the one its insert returned.
        fn find(&self, id: u64, slot: Option<InFlightSlot>) -> Option<&u64> {
            let reaches = slot.is_none() || slot == self.slots.get(&id).copied();
            self.map.get(&id).filter(|_| reaches)
        }

        fn remove(&mut self, id: u64, slot: Option<InFlightSlot>) -> Option<u64> {
            self.find(id, slot)?;
            self.map.remove(&id)
        }
    }

    /// Applies `ops` to an `IdTable` and a `BTreeMap` side by side and
    /// compares every return value, `len`, a hinted and an unhinted lookup
    /// and the full in-order iteration after each step.  Every entry present
    /// must still sit in the slot its insert returned.
    fn check_against_btreemap(
        table: &mut IdTable<u64>,
        reference: &mut Reference,
        ops: &[Op],
    ) -> Result<(), TestCaseError> {
        for (step, &op) in ops.iter().enumerate() {
            let value = step as u64;
            // The counter hands out even ids only, so an id below it is
            // either one of them (present, or removed) or falls between two.
            let counter = reference.next_id;
            let below_counter = |pick: usize| pick as u64 % counter.max(1);
            let (probe, hint) = match op {
                Op::InsertNext => {
                    reference.next_id += 2;
                    let slot = table.insert(counter, value);
                    reference.map.insert(counter, value);
                    reference.slots.insert(counter, slot);
                    (counter, Hint::Own)
                }
                Op::Remove { pick, hint } => {
                    let id = below_counter(pick);
                    let slot = reference.hint(id, hint);
                    prop_assert_eq!(table.remove(id, slot), reference.remove(id, slot));
                    (id, hint)
                }
                Op::RemoveFirst { hint } => {
                    let id = reference.map.keys().next().copied().unwrap_or(0);
                    let slot = reference.hint(id, hint);
                    prop_assert_eq!(table.remove(id, slot), reference.remove(id, slot));
                    (id, hint)
                }
                Op::RemoveAbsent => {
                    let id = reference.next_id + 1;
                    prop_assert_eq!(table.remove(id, None), reference.map.remove(&id));
                    (id, Hint::Unhinted)
                }
            };
            let slot = reference.hint(probe, hint);
            prop_assert_eq!(table.get(probe, slot), reference.find(probe, slot));
            prop_assert_eq!(table.get(probe, None), reference.map.get(&probe));
            prop_assert_eq!(table.len(), reference.map.len());
            prop_assert!(
                table
                    .iter()
                    .map(|(id, _, value)| (id, value))
                    .eq(reference.map.iter().map(|(&id, value)| (id, value))),
                "iteration diverged at step {step} ({op:?})"
            );
            for (id, slot, _) in table.iter() {
                prop_assert_eq!(Some(slot), reference.slots.get(&id).copied());
            }
            // The slab grows only when every slot is taken.
            reference.peak_len = reference.peak_len.max(reference.map.len());
            prop_assert_eq!(table.entries.slots(), reference.peak_len);
            prop_assert!(table
                .order
                .iter()
                .zip(table.order.iter().skip(1))
                .all(|(a, b)| a.0 < b.0));
            prop_assert!(table.order.len() - table.live <= table.live * MAX_DEAD_PER_LIVE);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Grow, churn, drain to empty and refill: the table crosses its
        /// compaction threshold many times, reuses freed slots under stale
        /// hints, and never disagrees with the reference map.
        #[test]
        fn matches_btreemap_through_growth_drain_and_refill(
            grow in collection::vec(OpStrategy { remove_percent: 30 }, 200..400),
            churn in collection::vec(OpStrategy { remove_percent: 50 }, 200..400),
            refill in collection::vec(OpStrategy { remove_percent: 35 }, 100..300),
        ) {
            let mut table = IdTable::new();
            let mut reference = Reference::default();
            check_against_btreemap(&mut table, &mut reference, &grow)?;
            check_against_btreemap(&mut table, &mut reference, &churn)?;
            // Drain: removing every entry one by one leaves no pair behind.
            let drain = vec![Op::RemoveFirst { hint: Hint::Own }; reference.map.len()];
            check_against_btreemap(&mut table, &mut reference, &drain)?;
            prop_assert_eq!(table.len(), 0);
            prop_assert!(table.order.is_empty());
            check_against_btreemap(&mut table, &mut reference, &refill)?;
        }
    }

    #[test]
    fn compaction_keeps_slots_within_twice_the_live_entries() {
        let mut table = IdTable::new();
        let slots: Vec<InFlightSlot> = (0..1000u64).map(|id| table.insert(id, id)).collect();
        // Remove every entry but the stragglers at the front and the back.
        for id in 1..999u64 {
            assert_eq!(table.remove(id, Some(slots[id as usize])), Some(id));
            assert!(table.order.len() <= (1 + MAX_DEAD_PER_LIVE) * table.len());
        }
        assert_eq!(
            table.iter().collect::<Vec<_>>(),
            vec![(0, slots[0], &0), (999, slots[999], &999)]
        );
        // Compaction moved pairs, not entries: both hints still hold.
        assert_eq!(table.get(0, Some(slots[0])), Some(&0));
        assert_eq!(table.get(999, Some(slots[999])), Some(&999));
        // The next id takes the slot freed last, so the stale hint of the
        // id that slot held last finds nothing.
        let slot = table.insert(1000, 7);
        assert_eq!(slot, slots[998]);
        assert_eq!(table.get(998, Some(slot)), None);
        assert_eq!(table.get(1000, Some(slot)), Some(&7));
        // Popping the front drops the dead pairs behind it at once.
        assert_eq!(table.remove(0, None), Some(0));
        assert_eq!(table.order.front().map(|&(id, _)| id), Some(999));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn an_id_below_an_earlier_insert_is_refused() {
        let mut table = IdTable::new();
        table.insert(5, ());
        table.remove(5, None);
        // The table is empty, and the id still must rise.
        table.insert(4, ());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn a_repeated_id_is_refused() {
        let mut table = IdTable::new();
        table.insert(5, ());
        table.insert(5, ());
    }
}
