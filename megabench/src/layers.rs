//! Per-layer probes of the traced run. Each probe calls one layer's public
//! functions from this crate, on the workload's own data, inside a span:
//! one region's records of a few middle epochs replayed into standalone
//! layer instances, the live deployment's FlowDB, and copies of its
//! stored cold tier.

use std::hint::black_box;
use std::ops::Range;
use std::path::Path;

use megastream::datastore::{AggregatorSpec, DataStore, StoredSummary, Summary};
use megastream::flow::key::FlowKey;
use megastream::flow::record::FlowRecord;
use megastream::flow::score::ScoreKind;
use megastream::flow::time::Timestamp;
use megastream::flowdb::{parse, Query};
use megastream::flowstream::{Flowstream, FlowstreamConfig, FlowstreamStats};
use megastream::flowtree::{Flowtree, FlowtreeConfig};
use megastream::storage::{Frame, WalRecord};
use megastream::{ColdTier, Parallelism, SyncPolicy};
use megastream_telemetry::Telemetry;

use crate::pipeline::{copy_dir, disk_bytes, IngestOut};
use crate::report::Metric;
use crate::spans::Recorder;
use crate::stats;
use crate::workload::{Plan, CANONICAL};

/// Epochs of region 0 replayed into the standalone layer instances.
const PROBE_EPOCHS: usize = 5;
/// Repetitions of each timed probe (the median is reported).
const REPS: usize = 3;
/// Trace id of the probe spans.
const PROBE_TRACE: u64 = 4_000_000;

/// Every per-layer metric with its unit, in report order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("flow.project_ns", "ns"),
        ("flow.chain_len", "count"),
        ("flowtree.observe_us", "us"),
        ("flowtree.nodes_per_krec", "count"),
        ("flowtree.compress_ms", "ms"),
        ("flowtree.merge_ms", "ms"),
        ("flowtree.bytes_per_node", "B"),
        ("datastore.ingest_us", "us"),
        ("datastore.rotate_ms", "ms"),
        ("datastore.accounted_bytes", "B"),
        ("core.ingest_us", "us"),
        ("core.export_retries", "count"),
        ("core.spilled", "count"),
        ("core.flushed", "count"),
        ("core.dropped", "count"),
        ("core.replay_ms", "ms"),
        ("flowdb.parse_us", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    for (kind, unit) in [
        ("execute_ms", "ms"),
        ("bytes_merged", "B"),
        ("nodes_visited", "count"),
        ("summaries", "count"),
    ] {
        for (label, _) in CANONICAL {
            out.push((format!("flowdb.{kind}.{label}"), unit));
        }
    }
    for (n, u) in [
        ("flowdb.execute_ms_seq", "ms"),
        ("flowdb.index_bytes", "B"),
        ("storage.wal_append_us", "us"),
        ("storage.seal_ms", "ms"),
        ("storage.open_ms", "ms"),
        ("storage.recovered_frames", "count"),
        ("storage.wal_records", "count"),
        ("storage.disk_bytes", "B"),
        ("netsim.wan_bytes", "B"),
        ("netsim.uplink_bytes", "B"),
        ("ops.tick_us", "us"),
        ("trace.overhead_pct", "%"),
    ] {
        out.push((n.to_owned(), u));
    }
    for layer in SELF_TIME_LAYERS {
        out.push((format!("selftime_ms.{layer}"), "ms"));
    }
    out
}

/// Layers whose span self time is reported; `bench` is the benchmark's
/// own work between layer calls (sampling, checks, copying).
pub const SELF_TIME_LAYERS: [&str; 8] = [
    "bench",
    "core",
    "flow",
    "flowtree",
    "datastore",
    "flowdb",
    "storage",
    "ops",
];

/// The region Flowtree configuration of the deployment.
fn tree_config(plan: &Plan, capacity: usize) -> FlowtreeConfig {
    FlowtreeConfig::default()
        .with_capacity(capacity)
        .with_score_kind(ScoreKind::Packets)
        .with_schema(plan.schema.clone())
}

/// Region 0's records of each probe epoch, with the epoch's end.
fn probe_epochs(
    plan: &Plan,
    trace: &[FlowRecord],
    ranges: &[Range<usize>],
) -> Vec<(Vec<FlowRecord>, Timestamp)> {
    // Closed epochs only: the last one may be in flight at a kill.
    let closed = ranges.len().saturating_sub(1).max(1);
    let first = (closed / 2).min(closed.saturating_sub(PROBE_EPOCHS));
    (first..(first + PROBE_EPOCHS).min(closed))
        .map(|k| {
            let recs = ranges[k]
                .clone()
                .filter(|&i| plan.region_of(i) == 0)
                .map(|i| trace[i])
                .collect();
            (recs, plan.epoch_window(k as u64).end)
        })
        .collect()
}

/// Probes over the live deployment and one region's epochs.
///
/// # Errors
///
/// Returns a description of a cold-tier I/O failure in the probe tier.
pub fn probe_live(
    plan: &Plan,
    trace: &[FlowRecord],
    ranges: &[Range<usize>],
    fs: &Flowstream,
    work: &Path,
    rec: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let epochs = probe_epochs(plan, trace, ranges);
    let all: Vec<FlowRecord> = epochs.iter().flat_map(|(r, _)| r.iter().copied()).collect();
    let n = all.len().max(1) as f64;
    let capacity = FlowstreamConfig::default().tree_capacity;
    let span = rec.open("bench.probe", PROBE_TRACE);

    // flow: key projection and the ancestor chain.
    let mut chain = 0usize;
    let mut project_ns = Vec::new();
    for _ in 0..REPS {
        let schema = &plan.schema;
        let (walked, s) = rec.time("flow.project", PROBE_TRACE, all.len() as u64, || {
            all.iter()
                .map(|r| {
                    let key = FlowKey::from_record(black_box(r));
                    schema.self_and_ancestors(&key).count()
                })
                .sum::<usize>()
        });
        chain = walked;
        project_ns.push(s * 1e9 / n);
    }
    out.push(Metric::new(
        "flow.project_ns",
        stats::median(&project_ns),
        "ns",
    ));
    out.push(Metric::new(
        "flow.chain_len",
        chain as f64 / n - 1.0,
        "count",
    ));

    // flowtree: observe, node growth, compress, merge, footprint.
    let (epoch_recs, _) = &epochs[0];
    let m = epoch_recs.len().max(1) as f64;
    let mut observe_us = Vec::new();
    let mut capped = Flowtree::new(tree_config(plan, capacity));
    for _ in 0..REPS {
        let mut tree = Flowtree::new(tree_config(plan, capacity));
        let (_, s) = rec.time(
            "flowtree.observe",
            PROBE_TRACE,
            epoch_recs.len() as u64,
            || {
                for r in epoch_recs {
                    tree.observe(r);
                }
            },
        );
        observe_us.push(s * 1e6 / m);
        capped = tree;
    }
    out.push(Metric::new(
        "flowtree.observe_us",
        stats::median(&observe_us),
        "us",
    ));
    let uncapped = |recs: &[FlowRecord]| {
        let mut t = Flowtree::new(tree_config(plan, 1 << 26));
        for r in recs {
            t.observe(r);
        }
        t
    };
    let full = uncapped(epoch_recs);
    out.push(Metric::new(
        "flowtree.nodes_per_krec",
        full.node_count() as f64 * 1000.0 / m,
        "count",
    ));
    let mut compress_ms = Vec::new();
    for _ in 0..REPS {
        let mut t = uncapped(epoch_recs);
        let (_, s) = rec.time("flowtree.compress", PROBE_TRACE, 1, || {
            t.compress_to(capacity)
        });
        compress_ms.push(s * 1e3);
    }
    out.push(Metric::new(
        "flowtree.compress_ms",
        stats::median(&compress_ms),
        "ms",
    ));
    let trees = newest_region_trees(fs, 8);
    let mut merge_ms = Vec::new();
    if let Some(first) = trees.first() {
        for _ in 0..REPS {
            let mut merged = Flowtree::new(first.config().clone());
            let (_, s) = rec.time("flowtree.merge", PROBE_TRACE, trees.len() as u64, || {
                for t in &trees {
                    merged.merge(t);
                }
            });
            merge_ms.push(s * 1e3);
        }
    }
    out.push(Metric::new(
        "flowtree.merge_ms",
        stats::median(&merge_ms),
        "ms",
    ));
    out.push(Metric::new(
        "flowtree.bytes_per_node",
        capped.arena_bytes() as f64 / capped.node_count().max(1) as f64,
        "B",
    ));

    // datastore: a standalone region store over the probe epochs.
    let mut store = DataStore::new(
        "probe",
        FlowstreamConfig::default().storage,
        plan.epoch_len(),
    );
    store.install_aggregator(AggregatorSpec::Flowtree(tree_config(plan, capacity)));
    let stream = "router-0-0".into();
    let mut store_secs = 0.0;
    let mut rotate_ms = Vec::new();
    let mut rotated: Vec<(Vec<StoredSummary>, Timestamp)> = Vec::new();
    for (recs, end) in &epochs {
        let (_, s) = rec.time("datastore.ingest", PROBE_TRACE, recs.len() as u64, || {
            for r in recs {
                black_box(store.ingest_flow(&stream, r, r.ts));
            }
        });
        store_secs += s;
        let (summaries, s) = rec.time("datastore.rotate", PROBE_TRACE, 1, || {
            store.rotate_epoch(*end)
        });
        rotate_ms.push(s * 1e3);
        rotated.push((summaries, *end));
    }
    out.push(Metric::new(
        "datastore.ingest_us",
        store_secs * 1e6 / n,
        "us",
    ));
    out.push(Metric::new(
        "datastore.rotate_ms",
        stats::median(&rotate_ms),
        "ms",
    ));
    out.push(Metric::new(
        "datastore.accounted_bytes",
        store.accounted_bytes() as f64,
        "B",
    ));

    // flowdb: parse and execute the canonical set on the live index.
    let parsed: Vec<Query> = CANONICAL
        .iter()
        .map(|(label, q)| parse(q).map_err(|e| format!("{label}: {e}")))
        .collect::<Result<_, _>>()?;
    let parse_rounds = 50;
    let (_, s) = rec.time(
        "flowdb.parse",
        PROBE_TRACE,
        (parse_rounds * CANONICAL.len()) as u64,
        || {
            for _ in 0..parse_rounds {
                for (_, q) in CANONICAL {
                    let _ = black_box(parse(q));
                }
            }
        },
    );
    out.push(Metric::new(
        "flowdb.parse_us",
        s * 1e6 / (parse_rounds * CANONICAL.len()) as f64,
        "us",
    ));
    let db = fs.flowdb();
    let mut exec = Vec::new();
    let mut costs = Vec::new();
    for (qi, query) in parsed.iter().enumerate() {
        let mut samples = Vec::new();
        let mut cost = None;
        for _ in 0..REPS {
            let (result, s) = rec.time("flowdb.execute", PROBE_TRACE + 1 + qi as u64, 1, || {
                db.execute(query)
            });
            samples.push(s * 1e3);
            cost = result.ok().map(|r| r.cost);
        }
        exec.push(stats::median(&samples));
        costs.push(cost.unwrap_or_default());
    }
    for ((label, _), ms) in CANONICAL.iter().zip(&exec) {
        out.push(Metric::new(format!("flowdb.execute_ms.{label}"), *ms, "ms"));
    }
    for ((label, _), c) in CANONICAL.iter().zip(&costs) {
        out.push(Metric::new(
            format!("flowdb.bytes_merged.{label}"),
            c.bytes_merged as f64,
            "B",
        ));
    }
    for ((label, _), c) in CANONICAL.iter().zip(&costs) {
        out.push(Metric::new(
            format!("flowdb.nodes_visited.{label}"),
            c.nodes_visited as f64,
            "count",
        ));
    }
    for ((label, _), c) in CANONICAL.iter().zip(&costs) {
        out.push(Metric::new(
            format!("flowdb.summaries.{label}"),
            c.summaries as f64,
            "count",
        ));
    }
    let seq_db = db.clone().with_parallelism(Parallelism::Sequential);
    let (_, s) = rec.time(
        "flowdb.execute_seq",
        PROBE_TRACE,
        parsed.len() as u64,
        || {
            for q in &parsed {
                let _ = black_box(seq_db.execute(q));
            }
        },
    );
    out.push(Metric::new("flowdb.execute_ms_seq", s * 1e3, "ms"));
    out.push(Metric::new(
        "flowdb.index_bytes",
        db.total_bytes() as f64,
        "B",
    ));

    // storage: WAL appends and seals on a standalone tier.
    let dir = work.join("probe-tier");
    let mut tier = ColdTier::create(&dir, SyncPolicy::OnSeal, Telemetry::disabled())
        .map_err(|e| format!("probe tier: {e}"))?;
    let mut wal_secs = 0.0;
    let mut seal_ms = Vec::new();
    let io = |e: megastream::storage::SegmentError| format!("probe tier: {e}");
    for ((recs, _), (summaries, end)) in epochs.iter().zip(&rotated) {
        let (res, s) = rec.time("storage.wal_append", PROBE_TRACE, recs.len() as u64, || {
            recs.iter().enumerate().try_for_each(|(i, r)| {
                tier.wal_append(&WalRecord {
                    rr: i as u64,
                    region: 0,
                    router: 0,
                    record: *r,
                })
            })
        });
        res.map_err(io)?;
        wal_secs += s;
        tier.begin_epoch(*end).map_err(io)?;
        for summary in summaries {
            tier.append_frame(&Frame::Exported {
                region: 0,
                summary: summary.clone(),
            })
            .map_err(io)?;
        }
        let (res, s) = rec.time("storage.seal", PROBE_TRACE, 1, || tier.seal_epoch());
        res.map_err(io)?;
        seal_ms.push(s * 1e3);
        tier.wal_reset().map_err(io)?;
    }
    drop(tier);
    let _ = std::fs::remove_dir_all(&dir);
    out.push(Metric::new(
        "storage.wal_append_us",
        wal_secs * 1e6 / n,
        "us",
    ));
    out.push(Metric::new(
        "storage.seal_ms",
        stats::median(&seal_ms),
        "ms",
    ));

    // netsim: bytes the deployment moved.
    let net = fs.network();
    let uplink: u64 = (0..fs.regions())
        .map(|g| net.bytes_on(fs.region_node(g), fs.noc_node()))
        .sum();
    out.push(Metric::new(
        "netsim.wan_bytes",
        net.total_bytes() as f64,
        "B",
    ));
    out.push(Metric::new("netsim.uplink_bytes", uplink as f64, "B"));
    rec.close(span);
    Ok(out)
}

/// Up to `want` of the newest Flowtree summaries held by the region
/// stores, taken round-robin across regions.
fn newest_region_trees(fs: &Flowstream, want: usize) -> Vec<Flowtree> {
    let per_region: Vec<Vec<Flowtree>> = (0..fs.regions())
        .map(|g| {
            let mut trees: Vec<(Timestamp, Flowtree)> = fs
                .region_store(g)
                .summaries()
                .iter()
                .filter_map(|s| match &s.summary {
                    Summary::Flowtree(t) => Some((s.window.end, t.clone())),
                    _ => None,
                })
                .collect();
            trees.sort_by_key(|(end, _)| std::cmp::Reverse(*end));
            trees.into_iter().map(|(_, t)| t).collect()
        })
        .collect();
    let mut out = Vec::new();
    for depth in 0.. {
        let before = out.len();
        for trees in &per_region {
            if out.len() < want {
                if let Some(t) = trees.get(depth) {
                    out.push(t.clone());
                }
            }
        }
        if out.len() == want || out.len() == before {
            break;
        }
    }
    out
}

/// The `core.*` and `ops.*` metrics of the traced ingest phase.
pub fn core_metrics(timed: &IngestOut, stats: &FlowstreamStats) -> Vec<Metric> {
    let ticks_us: Vec<f64> = timed.tick_secs.iter().map(|s| s * 1e6).collect();
    vec![
        Metric::new(
            "core.ingest_us",
            timed.plain_secs * 1e6 / timed.plain_calls.max(1) as f64,
            "us",
        ),
        Metric::new("core.export_retries", stats.export_retries as f64, "count"),
        Metric::new("core.spilled", stats.spilled_summaries as f64, "count"),
        Metric::new("core.flushed", stats.flushed_summaries as f64, "count"),
        Metric::new("core.dropped", stats.dropped_summaries as f64, "count"),
        Metric::new("ops.tick_us", stats::mean(&ticks_us), "us"),
    ]
}

/// Probes over byte copies of the stored cold tier after the kill or
/// shutdown.
///
/// # Errors
///
/// Returns a description of an I/O failure while copying the store.
pub fn probe_store(
    master: &Path,
    work: &Path,
    recover_ms: f64,
    rec: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let mut open_ms = Vec::new();
    let mut counts = (0u64, 0u64);
    for rep in 0..REPS {
        let copy = work.join(format!("open-{rep}"));
        copy_dir(master, &copy)?;
        let (result, s) = rec.time("storage.open", PROBE_TRACE, 1, || {
            ColdTier::open(&copy, SyncPolicy::OnSeal, Telemetry::disabled())
        });
        let (_, report) = result.map_err(|e| format!("open stored tier: {e}"))?;
        open_ms.push(s * 1e3);
        counts = (report.recovered_frames, report.wal_records.len() as u64);
        let _ = std::fs::remove_dir_all(&copy);
    }
    let open = stats::median(&open_ms);
    Ok(vec![
        Metric::new("storage.open_ms", open, "ms"),
        Metric::new("storage.recovered_frames", counts.0 as f64, "count"),
        Metric::new("storage.wal_records", counts.1 as f64, "count"),
        Metric::new("storage.disk_bytes", disk_bytes(master) as f64, "B"),
        Metric::new("core.replay_ms", recover_ms - open, "ms"),
    ])
}
