//! Known-bad fixture for the `determinism` pass.

// Decoy: Instant::now() in a comment.
/* Decoy: SystemTime::now() in a block comment. */

use std::collections::{HashMap, HashSet}; // deny: HashMap + HashSet idents
use std::hash::{BuildHasher, RandomState}; // deny: RandomState

/// A hand-rolled table keyed by a per-instance seed: no HashMap named,
/// same seed-dependent layout.
struct Table {
    seed: RandomState, // deny: RandomState
    slots: Vec<u64>,
}

fn slot_of(t: &Table, key: u32) -> usize {
    t.seed.hash_one(key) as usize % t.slots.len()
}

fn decoys() -> &'static str {
    "HashMap and Instant::now() in a string are fine"
}

fn live() -> u128 {
    let t = std::time::Instant::now(); // deny: Instant::now
    let w = std::time::SystemTime::now(); // deny: SystemTime::now
    let m: HashMap<u32, u32> = HashMap::new(); // deny: HashMap (x2)
    let s: HashSet<u32> = HashSet::new(); // deny: HashSet (x2)
    let t2 = Table {
        seed: RandomState::new(), // deny: RandomState
        slots: vec![0; 8],
    };
    drop((w, m, s, slot_of(&t2, 1)));
    t.elapsed().as_micros()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn tests_may_use_hash_maps() {
        let _m: HashMap<u32, u32> = HashMap::new();
    }
}
