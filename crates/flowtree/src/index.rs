//! The arena's key index: an open-addressed table of packed `(tag, id)`
//! words.
//!
//! Each entry is one `u64`: a 32-bit hash tag of the key in the high half
//! and the node's `u32` slot id in the low half. The key itself is not
//! stored — the arena's slot already holds it — so a tag match is only a
//! candidate that the caller confirms against the slot. Tag collisions
//! therefore cost an extra key comparison, never a wrong answer.
//!
//! * Linear probing over a power-of-two table, starting at the tag's low
//!   bits. The load stays at most 1/2: an insert that would cross it
//!   doubles the table first.
//! * Growth and shrinking re-place entries from their stored tags, so no
//!   key is hashed again.
//! * Deletion shifts the following probe run backward, so there are no
//!   tombstones and probe runs never outlive their entries.
//! * [`KeyIndex::shrink_if_sparse`] shrinks the table to a load in
//!   (1/8, 1/4] once fewer than 1/8 of its entries are in use. The new
//!   size is a pure function of the entry count.
//!
//! The table never iterates in a result-visible way: it only answers
//! "which id holds this key", and ids come from the arena's own slot
//! allocation, not from probe positions.

/// An unused entry. Real entries never equal it: ids stay below
/// `u32::MAX - 1` (the arena's `NONE`/`FREE` sentinels).
const EMPTY: u64 = u64::MAX;

/// Smallest table, in entries.
const MIN_ENTRIES: usize = 8;

fn pack(tag: u32, id: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(id)
}

fn tag_of(entry: u64) -> u32 {
    (entry >> 32) as u32
}

fn id_of(entry: u64) -> u32 {
    entry as u32
}

/// Open-addressed `(tag, id)` table (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct KeyIndex {
    entries: Box<[u64]>,
    len: usize,
}

impl KeyIndex {
    /// An empty table of the minimum size.
    pub(crate) fn new() -> Self {
        KeyIndex::with_entries(MIN_ENTRIES)
    }

    /// An empty table of exactly `n` entries (`n` a power of two).
    fn with_entries(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        KeyIndex {
            entries: vec![EMPTY; n].into_boxed_slice(),
            len: 0,
        }
    }

    /// An empty table sized so that `n` entries fit at load ≤ 1/2 without
    /// growing. Test-only: lets the tests pick a table small enough to
    /// force wraparound at the table end.
    #[cfg(test)]
    pub(crate) fn with_capacity(n: usize) -> Self {
        KeyIndex::with_entries((2 * n).next_power_of_two().max(MIN_ENTRIES))
    }

    /// Number of stored entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Table size in entries.
    pub(crate) fn table_len(&self) -> usize {
        self.entries.len()
    }

    fn mask(&self) -> usize {
        self.entries.len() - 1
    }

    fn home(&self, tag: u32) -> usize {
        tag as usize & self.mask()
    }

    /// The id stored under `tag` for which `is_key` confirms the key, if
    /// any. `is_key` is called only on tag matches.
    pub(crate) fn find(&self, tag: u32, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.mask();
        let mut i = self.home(tag);
        loop {
            let e = self.entries[i];
            if e == EMPTY {
                return None;
            }
            if tag_of(e) == tag && is_key(id_of(e)) {
                return Some(id_of(e));
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `(tag, id)`. The caller guarantees the key is not present.
    pub(crate) fn insert(&mut self, tag: u32, id: u32) {
        if 2 * (self.len + 1) > self.entries.len() {
            self.resize(2 * self.entries.len());
        }
        self.place(pack(tag, id));
        self.len += 1;
    }

    /// Puts `entry` in the first empty position of its probe run.
    fn place(&mut self, entry: u64) {
        let mask = self.mask();
        let mut i = self.home(tag_of(entry));
        while self.entries[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.entries[i] = entry;
    }

    /// Removes the entry `(tag, id)`; returns whether it was present.
    /// Later entries of the probe run shift back into the hole, so every
    /// remaining entry stays reachable from its home without tombstones.
    pub(crate) fn remove(&mut self, tag: u32, id: u32) -> bool {
        let target = pack(tag, id);
        let mask = self.mask();
        let mut hole = self.home(tag);
        loop {
            let e = self.entries[hole];
            if e == EMPTY {
                return false;
            }
            if e == target {
                break;
            }
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let e = self.entries[j];
            if e == EMPTY {
                break;
            }
            // `e` may fill the hole only if its home is not inside the
            // cyclic range (hole, j]: its distance from home must reach
            // back to the hole.
            let from_home = j.wrapping_sub(self.home(tag_of(e))) & mask;
            let from_hole = j.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.entries[hole] = e;
                hole = j;
            }
        }
        self.entries[hole] = EMPTY;
        self.len -= 1;
        true
    }

    /// Shrinks the table when fewer than 1/8 of its entries are in use,
    /// to the smallest power of two that keeps the load at most 1/4.
    pub(crate) fn shrink_if_sparse(&mut self) {
        let n = self.entries.len();
        if n > MIN_ENTRIES && 8 * self.len < n {
            self.resize((4 * self.len).next_power_of_two().max(MIN_ENTRIES));
        }
    }

    /// Re-places every entry into a table of `n` entries, from the stored
    /// tags alone.
    fn resize(&mut self, n: usize) {
        let old = std::mem::replace(&mut self.entries, vec![EMPTY; n].into_boxed_slice());
        for &e in old.iter().filter(|&&e| e != EMPTY) {
            self.place(e);
        }
    }

    /// Every stored `(tag, id)` pair, in table order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.entries
            .iter()
            .filter(|&&e| e != EMPTY)
            .map(|&e| (tag_of(e), id_of(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The model: key → id, with keys standing in for flow keys and a
    /// caller-chosen tag function standing in for the hasher.
    struct Harness {
        table: KeyIndex,
        model: BTreeMap<u32, u32>,
        /// id → key, the stand-in for the arena's slot vector.
        slot_keys: BTreeMap<u32, u32>,
        next_id: u32,
        tag: fn(u32) -> u32,
    }

    impl Harness {
        fn new(table: KeyIndex, tag: fn(u32) -> u32) -> Self {
            Harness {
                table,
                model: BTreeMap::new(),
                slot_keys: BTreeMap::new(),
                next_id: 0,
                tag,
            }
        }

        fn lookup(&self, key: u32) -> Option<u32> {
            let slot_keys = &self.slot_keys;
            self.table
                .find((self.tag)(key), |id| slot_keys.get(&id) == Some(&key))
        }

        fn insert(&mut self, key: u32) {
            if self.model.contains_key(&key) {
                return;
            }
            let id = self.next_id;
            self.next_id += 1;
            self.table.insert((self.tag)(key), id);
            self.model.insert(key, id);
            self.slot_keys.insert(id, key);
        }

        fn remove(&mut self, key: u32) {
            let present = self.model.remove(&key);
            let removed = match present {
                Some(id) => {
                    self.slot_keys.remove(&id);
                    self.table.remove((self.tag)(key), id)
                }
                None => false,
            };
            assert_eq!(removed, present.is_some(), "remove({key})");
        }

        /// The table agrees with the model on every key in `0..universe`,
        /// holds exactly the model's entries, and respects its load bound.
        fn check(&self, universe: u32) {
            for key in 0..universe {
                assert_eq!(self.lookup(key), self.model.get(&key).copied(), "key {key}");
            }
            assert_eq!(self.table.len(), self.model.len());
            let mut stored: Vec<(u32, u32)> = self.table.iter().collect();
            stored.sort_unstable();
            let mut expected: Vec<(u32, u32)> = self
                .model
                .iter()
                .map(|(&k, &id)| ((self.tag)(k), id))
                .collect();
            expected.sort_unstable();
            assert_eq!(stored, expected);
            assert!(2 * self.table.len() <= self.table.table_len());
        }
    }

    fn mixing_tag(key: u32) -> u32 {
        key.wrapping_mul(0x9E37_79B9).rotate_left(13)
    }

    /// Four distinct tags for the whole key space: nearly every entry
    /// collides with another's tag and probe run.
    fn colliding_tag(key: u32) -> u32 {
        key % 4
    }

    /// Tags whose home is the last table position, so every probe run
    /// wraps around the table end.
    fn end_of_table_tag(key: u32) -> u32 {
        u32::MAX - (key % 3)
    }

    fn run_ops(tag: fn(u32) -> u32, ops: &[(u8, u32)], universe: u32) {
        let mut h = Harness::new(KeyIndex::new(), tag);
        for &(op, key) in ops {
            match op {
                0 | 1 => h.insert(key),
                2 => h.remove(key),
                3 => {
                    // A burst of removals, as compression frees many
                    // nodes at once: this is what makes tables sparse.
                    for k in key..key.saturating_add(universe / 2) {
                        h.remove(k);
                    }
                }
                4 => {
                    // Keep going on a clone: it must be a complete table.
                    h.table = h.table.clone();
                    h.check(universe);
                }
                _ => {
                    let n = h.table.table_len();
                    h.table.shrink_if_sparse();
                    if h.table.table_len() < n {
                        assert!(8 * h.model.len() < n, "shrank a table that was not sparse");
                        assert!(4 * h.model.len() <= h.table.table_len());
                    }
                }
            }
            assert_eq!(h.lookup(key), h.model.get(&key).copied());
        }
        h.check(universe);
    }

    #[test]
    fn probe_runs_wrap_around_the_table_end() {
        let mut h = Harness::new(KeyIndex::with_capacity(4), end_of_table_tag);
        assert_eq!(h.table.table_len(), 8);
        for key in 0..4 {
            h.insert(key);
        }
        // Homes are positions 5..=7 (tag low bits), so the run wraps to
        // the table start.
        h.check(8);
        // Deleting from the middle of a wrapped run shifts the wrapped
        // tail back across the end.
        h.remove(0);
        h.check(8);
        h.remove(2);
        h.check(8);
        h.insert(7);
        h.insert(8);
        h.check(16);
    }

    #[test]
    fn equal_tags_are_told_apart_by_the_key() {
        let mut h = Harness::new(KeyIndex::new(), |_| 7);
        for key in 0..40 {
            h.insert(key);
        }
        h.check(64);
        for key in (0..40).step_by(3) {
            h.remove(key);
        }
        h.check(64);
    }

    #[test]
    fn shrink_is_a_function_of_the_entry_count() {
        let mut h = Harness::new(KeyIndex::new(), mixing_tag);
        for key in 0..1000 {
            h.insert(key);
        }
        assert_eq!(h.table.table_len(), 2048);
        for key in 0..990 {
            h.remove(key);
        }
        h.table.shrink_if_sparse();
        assert_eq!(h.table.table_len(), 64, "10 entries: load in (1/8, 1/4]");
        h.table.shrink_if_sparse();
        assert_eq!(h.table.table_len(), 64, "not below 1/8: no further shrink");
        h.check(1000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random insert/remove/lookup/clone/shrink sequences agree with a
        /// `BTreeMap` model under a mixing tag function.
        #[test]
        fn prop_matches_model(ops in proptest::collection::vec((0u8..6, 0u32..300), 1..600)) {
            run_ops(mixing_tag, &ops, 300);
        }

        /// The same with almost every tag colliding.
        #[test]
        fn prop_matches_model_under_tag_collisions(
            ops in proptest::collection::vec((0u8..6, 0u32..64), 1..300),
        ) {
            run_ops(colliding_tag, &ops, 64);
        }

        /// The same with every probe run wrapping around the table end.
        #[test]
        fn prop_matches_model_across_the_table_end(
            ops in proptest::collection::vec((0u8..6, 0u32..64), 1..300),
        ) {
            run_ops(end_of_table_tag, &ops, 64);
        }
    }
}
