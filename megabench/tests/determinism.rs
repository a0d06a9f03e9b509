//! The benchmark's own determinism self-check: two runs with the same seed
//! produce identical deterministic counts, and another seed produces
//! another trace. Runs each workload at its smallest size.

use megabench::pipeline::{self, Determinism};
use megabench::workload::{Plan, Workload};

/// The smallest plan of `workload`: one second of work, single setup and
/// recovery repetitions, fewer point queries.
fn small(workload: Workload, seed: u64) -> Plan {
    let mut plan = Plan::new(workload, seed, 1);
    plan.setup_reps = 1;
    plan.recover_reps = 2;
    plan.point_queries = 200;
    plan.canonical_passes = plan.canonical_passes.min(1);
    plan
}

fn run(plan: &Plan, tag: &str) -> Determinism {
    let work = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".megabench-out")
        .join(format!(
            "megabench-test-{}-{tag}-{}",
            plan.workload.name(),
            std::process::id()
        ));
    let outcome = pipeline::run(plan, &work, false);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome.expect("run completes");
    assert!(
        outcome.report.mismatches.is_empty(),
        "{}: {:?}",
        plan.workload.name(),
        outcome.report.mismatches
    );
    assert_eq!(outcome.report.failed, 0);
    outcome.det
}

fn same_seed_same_counts(workload: Workload) {
    let a = run(&small(workload, 11), "a");
    let b = run(&small(workload, 11), "b");
    assert_eq!(a, b, "{}: same seed, different counts", workload.name());
    assert!(!a.query_costs.is_empty());
    assert_eq!(a.recovery.len(), 2);
    assert_eq!(
        a.recovery[0], a.recovery[1],
        "recoveries of one store differ"
    );
    let other = pipeline::fingerprint(&Plan::new(workload, 12, 1).generate());
    assert_ne!(
        other,
        a.trace_fingerprint,
        "{}: another seed, same trace",
        workload.name()
    );
}

#[test]
fn ingest_wide_is_deterministic() {
    same_seed_same_counts(Workload::IngestWide);
}

#[test]
fn query_fanout_is_deterministic() {
    same_seed_same_counts(Workload::QueryFanout);
}

#[test]
fn ops_restart_is_deterministic() {
    same_seed_same_counts(Workload::OpsRestart);
}
