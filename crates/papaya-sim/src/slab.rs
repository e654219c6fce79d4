//! Slots that never move.
//!
//! A [`Slab`] stores values in a vector of slots and hands back the slot
//! index on insert.  A value stays in its slot until it is removed, so the
//! index is a direct handle to it for that long; freed slots are reused
//! last-freed first, which keeps the vector as long as the most values ever
//! present at once.  The event queue keeps its payloads in one and
//! [`crate::id_table::IdTable`] its entries.

/// Values addressed by the slot they were inserted into.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    /// `None` marks a free slot.
    slots: Vec<Option<T>>,
    /// Free slots, the most recently freed last.
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `value` in a free slot and returns the slot.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(value);
            return slot;
        }
        assert!(
            self.slots.len() < u32::MAX as usize,
            "a slab holds fewer than 2^32 values"
        );
        self.slots.push(Some(value));
        (self.slots.len() - 1) as u32
    }

    /// The value in `slot`, if the slot is occupied.
    pub(crate) fn get(&self, slot: u32) -> Option<&T> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Takes the value out of `slot` and frees the slot.
    pub(crate) fn remove(&mut self, slot: u32) -> Option<T> {
        let value = self.slots.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        Some(value)
    }

    /// Number of slots, occupied or free.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_slots_are_reused_last_freed_first() {
        let mut slab = Slab::default();
        let slots: Vec<u32> = (0..4).map(|value| slab.insert(value)).collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        assert_eq!(slab.remove(1), Some(1));
        assert_eq!(slab.remove(3), Some(3));
        assert_eq!(slab.remove(3), None, "a free slot holds nothing");
        assert_eq!(slab.get(1), None);
        assert_eq!(slab.insert(30), 3);
        assert_eq!(slab.insert(10), 1);
        assert_eq!(slab.insert(4), 4);
        assert_eq!(slab.get(2), Some(&2));
        assert_eq!(slab.get(9), None);
        assert_eq!(slab.get(4), Some(&4));
        assert_eq!(slab.slots(), 5);
    }
}
