//! Differential oracle harness for the arena-backed `Flowtree` (PR 10).
//!
//! The arena rewrite changed every structural invariant at once: node
//! identity (u32 ids instead of boxed nodes), storage (one contiguous slot
//! vector with a free list), snapshots (copy-on-write `Arc` shares), and
//! the eviction tie-break. The proof it changed *nothing observable* is
//! this harness: the retired pointer implementation is kept verbatim as
//! [`OracleTree`] behind the dev-only `oracle` feature, and both trees are
//! driven through identical seeded op sequences — insert, merge, diff,
//! compress, capacity changes, snapshots, queries, serialization —
//! asserting observational equality and running both implementations'
//! `check_invariants()` after every step.
//!
//! Both implementations break compression ties on `(own score, key)`, so
//! the surviving node set is a pure function of the op sequence — the
//! harness can demand *exact* equality of every query result, not just
//! bounded error. The threaded legs re-run the same sequences across
//! threads: the arena's storage-token minting is process-global (a shared
//! atomic), so cross-thread interference would show up as a divergence or
//! an invariant failure.

use megastream_flow::addr::Ipv4Addr;
use megastream_flow::key::{Feature, FlowKey};
use megastream_flow::record::FlowRecord;
use megastream_flow::score::Popularity;
use megastream_flowtree::oracle::OracleTree;
use megastream_flowtree::{Flowtree, FlowtreeConfig};
use rand::prelude::{Rng, SeedableRng, StdRng};

/// Ops per sequence — the acceptance floor is 10k.
const OPS_PER_SEQUENCE: usize = 10_000;

/// Snapshots retained live for the copy-on-write isolation check.
const MAX_SNAPSHOTS: usize = 8;

// ---------------------------------------------------------------- helpers

fn record(src: u32, dst: u32, packets: u64) -> FlowRecord {
    FlowRecord::builder()
        .proto(6)
        .src(Ipv4Addr::from(src), 80)
        .dst(Ipv4Addr::from(dst), 443)
        .packets(packets.max(1))
        .build()
}

/// Draws a record from a small address pool so sequences revisit keys,
/// share prefixes, and exercise the dedup/fold paths rather than producing
/// a flat forest of singletons.
fn gen_record(rng: &mut StdRng) -> FlowRecord {
    let src = 0x0a00_0000 | (rng.gen_range(0u32..24) << 8) | rng.gen_range(0u32..8);
    let dst = 0x0101_0100 | rng.gen_range(0u32..16);
    record(src, dst, rng.gen_range(1u64..64))
}

/// Draws a record from the whole address space with a near-uniform packet
/// count: almost every record misses and materializes a long unary chain,
/// and ties on the own score are the rule, so compression folds whole
/// chains link by link.
fn gen_wide_record(rng: &mut StdRng) -> FlowRecord {
    record(rng.gen(), rng.gen(), rng.gen_range(1u64..4))
}

/// A query key at a random generalization depth, normalized to the schema
/// so both implementations look up the same hierarchy node.
fn gen_query_key(rng: &mut StdRng, config: &FlowtreeConfig) -> FlowKey {
    let mut key = FlowKey::from_record(&gen_record(rng)).project(config.features);
    if rng.gen_bool(0.7) {
        key = key.generalize(Feature::SrcIp, rng.gen_range(0u8..=32));
    }
    if rng.gen_bool(0.5) {
        key = key.generalize(Feature::DstIp, rng.gen_range(0u8..=32));
    }
    config.schema.normalize(&key)
}

// ------------------------------------------------------------ the harness

/// The pair under test: the arena tree and its pointer-based oracle, fed
/// identical operations.
struct Pair {
    arena: Flowtree,
    oracle: OracleTree,
}

impl Pair {
    fn new(config: FlowtreeConfig) -> Pair {
        Pair {
            arena: Flowtree::new(config.clone()),
            oracle: OracleTree::new(config),
        }
    }

    /// Builds a donor pair from `n` records drawn from `rng` (used by the
    /// merge and diff ops so both sides absorb identical content).
    fn build(rng: &mut StdRng, config: FlowtreeConfig, n: usize) -> Pair {
        let mut pair = Pair::new(config);
        for _ in 0..n {
            let r = gen_record(rng);
            pair.arena.observe(&r);
            pair.oracle.observe(&r);
        }
        pair
    }

    /// Observational equality: both implementations' own invariants hold
    /// and every externally visible surface matches exactly.
    fn assert_equiv(&self, step: usize) {
        self.arena.check_invariants();
        self.oracle.check_invariants();
        assert_eq!(self.arena.len(), self.oracle.len(), "len @ step {step}");
        assert_eq!(
            self.arena.total(),
            self.oracle.total(),
            "total @ step {step}"
        );
        assert_eq!(
            self.arena.records(),
            self.oracle.records(),
            "records @ step {step}"
        );
        // The deterministic (own, key) eviction tie-break makes the node
        // set representation-independent, so the full views must agree.
        let mut a = self.arena.nodes();
        let mut o = self.oracle.nodes();
        a.sort_by_key(|x| x.key);
        o.sort_by_key(|x| x.key);
        assert_eq!(a, o, "node views diverged @ step {step}");
    }

    /// Compares every query operator on a shared key/parameter draw.
    fn assert_queries_equal(&self, rng: &mut StdRng, step: usize) {
        let key = gen_query_key(rng, self.arena.config());
        assert_eq!(
            self.arena.query(&key),
            self.oracle.query(&key),
            "query({key:?}) @ step {step}"
        );
        assert_eq!(
            self.arena.get(&key),
            self.oracle.get(&key),
            "get({key:?}) @ step {step}"
        );
        assert_eq!(
            self.arena.drilldown(&key),
            self.oracle.drilldown(&key),
            "drilldown({key:?}) @ step {step}"
        );
        let k = rng.gen_range(1usize..16);
        assert_eq!(
            self.arena.top_k(k),
            self.oracle.top_k(k),
            "top_k({k}) @ step {step}"
        );
        let x = Popularity::from(rng.gen_range(0u64..200));
        assert_eq!(
            self.arena.above_x(x),
            self.oracle.above_x(x),
            "above_x({x:?}) @ step {step}"
        );
        let threshold = Popularity::from(rng.gen_range(1u64..300));
        assert_eq!(
            self.arena.hhh(threshold),
            self.oracle.hhh(threshold),
            "hhh({threshold:?}) @ step {step}"
        );
    }
}

/// Runs one full seeded differential sequence and returns the final pair
/// plus the surviving snapshots (checked for copy-on-write isolation).
fn run_sequence(seed: u64, ops: usize) -> Pair {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = FlowtreeConfig::default().with_capacity(96);
    let mut pair = Pair::new(config.clone());
    // (step taken, arena snapshot, oracle snapshot) — verified untouched
    // by later mutations of the live pair.
    let mut snapshots: Vec<(usize, Flowtree, OracleTree)> = Vec::new();

    for step in 0..ops {
        match rng.gen_range(0u32..100) {
            // Bulk of the stream: single-record ingest.
            0..=59 => {
                let r = gen_record(&mut rng);
                pair.arena.observe(&r);
                pair.oracle.observe(&r);
            }
            // Direct mass injection at a (possibly generalized) key.
            60..=69 => {
                let key = gen_query_key(&mut rng, &config);
                let score = Popularity::from(rng.gen_range(1u64..50));
                pair.arena.add_mass(&key, score);
                pair.oracle.add_mass(&key, score);
            }
            // Merge a freshly built donor (P2's combinability).
            70..=75 => {
                let n = rng.gen_range(1usize..40);
                let donor = Pair::build(&mut rng, config.clone(), n);
                pair.arena.merge(&donor.arena);
                pair.oracle.merge(&donor.oracle);
            }
            // Diff against a donor sharing the address pool.
            76..=78 => {
                let n = rng.gen_range(1usize..25);
                let donor = Pair::build(&mut rng, config.clone(), n);
                pair.arena.diff(&donor.arena);
                pair.oracle.diff(&donor.oracle);
            }
            // Explicit compression to a random target.
            79..=81 => {
                let target = rng.gen_range(1usize..=96);
                pair.arena.compress_to(target);
                pair.oracle.compress_to(target);
            }
            // Capacity adaptation (property P4).
            82 => {
                let cap = rng.gen_range(48usize..160);
                pair.arena.set_capacity(cap);
                pair.oracle.set_capacity(cap);
            }
            // Snapshot: the arena side is an O(1) copy-on-write share.
            83..=85 => {
                let snap = pair.arena.clone();
                assert!(
                    snap.shares_storage_with(&pair.arena),
                    "fresh snapshot must share the arena @ step {step}"
                );
                assert_eq!(snap, pair.arena);
                snapshots.push((step, snap, pair.oracle.clone()));
                if snapshots.len() > MAX_SNAPSHOTS {
                    snapshots.remove(0);
                }
            }
            // Serialization: flat-frame round-trip is lossless and the
            // reconstruction carries the same value number.
            86..=88 => {
                let flat = pair.arena.flat_nodes();
                let cfg = pair.arena.config().clone();
                let rt = Flowtree::try_from_flat(cfg, &flat, pair.arena.records())
                    .expect("round-trip of a live tree's own frame never fails");
                assert_eq!(rt, pair.arena, "flat round-trip diverged @ step {step}");
                assert_eq!(
                    rt.value_number(),
                    pair.arena.value_number(),
                    "value number not a pure function of content @ step {step}"
                );
            }
            // The read-only operator battery.
            89..=98 => pair.assert_queries_equal(&mut rng, step),
            // Rare full reset.
            _ => {
                if rng.gen_bool(0.05) {
                    pair.arena.clear();
                    pair.oracle.clear();
                }
            }
        }
        pair.assert_equiv(step);
    }

    // Copy-on-write isolation: every retained snapshot must still match
    // the oracle clone taken at the same step — mutations of the live pair
    // since then never leaked through shared storage.
    for (step, snap_arena, snap_oracle) in &snapshots {
        let frozen = Pair {
            arena: snap_arena.clone(),
            oracle: snap_oracle.clone(),
        };
        frozen.assert_equiv(*step);
    }
    pair
}

// ----------------------------------------------------------------- tests

/// The sequential leg: one long seeded sequence per seed, equivalence and
/// invariants checked after every single step.
#[test]
fn differential_sequential() {
    for seed in [0xA5A5_0001u64, 0xA5A5_0002] {
        let pair = run_sequence(seed, OPS_PER_SEQUENCE);
        assert!(pair.arena.records() > 0, "sequence must have ingested");
    }
}

/// The threaded leg: independent sequences on `n` threads. The arena's
/// storage-token mint is a process-global atomic, so any cross-thread
/// interference (shared slots, token collisions observable through
/// `shares_storage_with`) diverges from the thread-local oracle.
#[test]
fn differential_threads() {
    let handles: Vec<_> = (0..4u64)
        .map(|t| std::thread::spawn(move || run_sequence(0xB0B0_0000 + t, OPS_PER_SEQUENCE)))
        .collect();
    for h in handles {
        h.join().expect("differential thread must not panic");
    }
}

/// The wide, low-skew leg: a small capacity keeps compression running
/// every few records over trees that are mostly unary chains, so the
/// arena's chain folding is checked against the oracle's one-leaf-per-pop
/// compression after every step.
#[test]
fn differential_wide_low_skew_chains() {
    let mut rng = StdRng::seed_from_u64(0x1DE0_0001);
    let mut pair = Pair::new(FlowtreeConfig::default().with_capacity(200));
    for step in 0..OPS_PER_SEQUENCE {
        match rng.gen_range(0u32..100) {
            0..=89 => {
                let r = gen_wide_record(&mut rng);
                pair.arena.observe(&r);
                pair.oracle.observe(&r);
            }
            90..=94 => {
                let target = rng.gen_range(1usize..=200);
                pair.arena.compress_to(target);
                pair.oracle.compress_to(target);
            }
            95..=97 => pair.assert_queries_equal(&mut rng, step),
            _ => {
                let cap = rng.gen_range(64usize..=256);
                pair.arena.set_capacity(cap);
                pair.oracle.set_capacity(cap);
            }
        }
        pair.assert_equiv(step);
    }
    assert!(pair.arena.records() > 0, "sequence must have ingested");
}

/// Shard-and-merge determinism: building shards on threads and merging in
/// fixed order is bit-identical to building the same shards sequentially —
/// and both match the oracle put through the same motions.
#[test]
fn differential_sharded_merge_matches_sequential() {
    let config = FlowtreeConfig::default().with_capacity(96);
    let shard = |s: u64| {
        let mut rng = StdRng::seed_from_u64(0xC0DE_0000 + s);
        Pair::build(&mut rng, FlowtreeConfig::default().with_capacity(64), 500)
    };

    // Threaded construction.
    let handles: Vec<_> = (0..4u64)
        .map(|s| std::thread::spawn(move || shard(s)))
        .collect();
    let threaded: Vec<Pair> = handles
        .into_iter()
        .map(|h| h.join().expect("shard thread must not panic"))
        .collect();

    // Sequential construction of the very same shards.
    let sequential: Vec<Pair> = (0..4).map(shard).collect();

    let mut merged_threaded = Pair::new(config.clone());
    for p in &threaded {
        merged_threaded.arena.merge(&p.arena);
        merged_threaded.oracle.merge(&p.oracle);
    }
    let mut merged_sequential = Pair::new(config);
    for p in &sequential {
        merged_sequential.arena.merge(&p.arena);
        merged_sequential.oracle.merge(&p.oracle);
    }

    merged_threaded.assert_equiv(usize::MAX);
    merged_sequential.assert_equiv(usize::MAX);
    assert_eq!(
        merged_threaded.arena, merged_sequential.arena,
        "thread-built and sequentially-built shards must merge identically"
    );
}
