//! One run of a workload through the public API of `megastream`: setup,
//! the timed phases, the output checks, the kill or shutdown, and the
//! timed recoveries. With tracing on, the layer probes of
//! [`crate::layers`] run against the same deployment and data.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use megastream::flow::key::{Feature, MaskedField};
use megastream::flow::record::FlowRecord;
use megastream::flow::time::Timestamp;
use megastream::flowdb::QueryResult;
use megastream::flowstream::{Flowstream, FlowstreamConfig, FlowstreamError};
use megastream::netsim::FaultPlan;
use megastream::storage::segment::parse_sealed_name;
use megastream::storage::wal::WAL_FILE;
use megastream::{ColdTier, OpsPlane, Parallelism, RecoveryReport, SyncPolicy};
use megastream_telemetry::Telemetry;

use crate::layers;
use crate::report::{Metric, Report, E2E};
use crate::spans::Recorder;
use crate::stats::{self, Tail};
use crate::steal::{host_steal_secs, Window};
use crate::workload::{point_query, Mix, Plan, PointQuery, CANONICAL, VICTIM};

/// A built deployment and what runs beside it.
pub struct Deployment {
    /// The system under test.
    pub fs: Flowstream,
    /// The ops plane (`ops-restart` only).
    pub ops: Option<OpsPlane>,
    /// The cold tier's directory.
    pub dir: PathBuf,
}

/// The deployment's configuration: the plan's shape with the data plane
/// pinned to an explicit worker count.
pub fn config(plan: &Plan, par: Parallelism) -> FlowstreamConfig {
    FlowstreamConfig {
        epoch_len: plan.epoch_len(),
        schema: plan.schema.clone(),
        parallelism: par,
        ..FlowstreamConfig::default()
    }
}

/// The telemetry handle of the plan: live iff the ops plane runs.
fn telemetry(plan: &Plan) -> Telemetry {
    if plan.ops_plane {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    }
}

impl Deployment {
    /// Builds the plan's deployment with a fresh cold tier in `dir`.
    ///
    /// # Errors
    ///
    /// Returns a description of a cold-tier creation failure.
    pub fn build(plan: &Plan, par: Parallelism, dir: &Path) -> Result<Deployment, String> {
        let tel = telemetry(plan);
        let mut fs = Flowstream::new(plan.regions, plan.routers, config(plan, par));
        fs.set_telemetry(&tel);
        let tier = ColdTier::create(dir, SyncPolicy::OnSeal, tel.clone())
            .map_err(|e| format!("create cold tier in {}: {e}", dir.display()))?;
        fs.attach_cold_tier(tier);
        if let Some(o) = plan.outage {
            let mut faults = FaultPlan::seeded(plan.seed);
            faults.link_down(
                fs.region_node(o.region),
                fs.noc_node(),
                Timestamp::from_secs(o.from_s),
                Timestamp::from_secs(o.to_s),
            );
            fs.network_mut().install_faults(faults);
        }
        let ops = if plan.ops_plane {
            OpsPlane::standard(&tel)
        } else {
            None
        };
        Ok(Deployment {
            fs,
            ops,
            dir: dir.to_path_buf(),
        })
    }
}

/// Deep bytes accounted by the region stores and the NOC store plus the
/// FlowDB index — the footprint sampled at every rotation.
pub fn accounted_bytes(fs: &Flowstream) -> u64 {
    let stores: usize = (0..fs.regions())
        .map(|g| fs.region_store(g).accounted_bytes())
        .sum::<usize>()
        + fs.noc_store().accounted_bytes();
    (stores + fs.flowdb().total_bytes()) as u64
}

/// Bytes on disk of a cold tier's sealed segments plus its WAL.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name == WAL_FILE || parse_sealed_name(&name).is_some()
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Copies every regular file of `from` into a fresh directory `to`.
///
/// # Errors
///
/// Returns a description of the first I/O failure.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(|e| io("clear copy", e))?;
    }
    std::fs::create_dir_all(to).map_err(|e| io("create copy", e))?;
    for entry in std::fs::read_dir(from).map_err(|e| io("read store", e))? {
        let entry = entry.map_err(|e| io("read store", e))?;
        if entry.file_type().map_err(|e| io("stat", e))?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| io("copy", e))?;
        }
    }
    Ok(())
}

/// The process's peak resident set in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-epoch index ranges of a time-ordered trace: `ranges[k]` holds the
/// records of epoch `k` (empty for an epoch without records).
pub fn epoch_ranges(plan: &Plan, trace: &[FlowRecord]) -> Vec<Range<usize>> {
    let last = trace.last().map_or(0, |r| plan.epoch_of(r.ts));
    let mut start = 0;
    (0..=last)
        .map(|k| {
            let len = trace[start..]
                .iter()
                .take_while(|r| plan.epoch_of(r.ts) == k)
                .count();
            start += len;
            start - len..start
        })
        .collect()
}

/// Counts every timed operation and every failed check.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (query or recovery `Err`, dead cold tier).
    pub failed: u64,
    /// Output checks that did not hold.
    pub mismatches: Vec<String>,
}

impl Ledger {
    /// Records a check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Records one query attempt and passes its result through.
    pub fn query(&mut self, result: Result<QueryResult, FlowstreamError>) -> Option<QueryResult> {
        self.attempted += 1;
        match result {
            Ok(r) => Some(r),
            Err(e) => {
                self.failed += 1;
                self.mismatches.push(format!("query failed: {e}"));
                None
            }
        }
    }
}

/// What an ingest phase measured.
#[derive(Debug, Default)]
pub struct IngestOut {
    /// Records ingested.
    pub records: usize,
    /// Wall time of the ingest calls (and `finish`), seconds.
    pub secs: f64,
    /// Wall time of each epoch-crossing ingest call, ms.
    pub fresh_ms: Vec<f64>,
    /// `(records, seconds)` of the ingest calls of each block of
    /// [`BLOCK_EPOCHS`] epochs (`finish` counts towards the last).
    pub blocks: Vec<(usize, f64)>,
    /// Peak of [`accounted_bytes`] sampled at each rotation.
    pub peak_bytes: u64,
    /// Wall time of the ingest calls that did not rotate, seconds.
    pub plain_secs: f64,
    /// Number of those calls.
    pub plain_calls: u64,
    /// Wall time of each `OpsPlane::tick` that sampled, seconds (traced
    /// runs only).
    pub tick_secs: Vec<f64>,
    /// Interleaved point queries: the query, its answer and its ms.
    pub queries: Vec<(PointQuery, Option<QueryResult>, f64)>,
}

/// Ingests `trace[range]` round-robin, timing epoch-crossing calls one by
/// one and the rest in per-epoch chunks; `finish` closes the last epoch.
#[allow(clippy::too_many_arguments)]
pub fn ingest(
    d: &mut Deployment,
    plan: &Plan,
    trace: &[FlowRecord],
    ranges: &[Range<usize>],
    range: Range<usize>,
    finish: bool,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> IngestOut {
    let mut out = IngestOut {
        records: range.len(),
        ..IngestOut::default()
    };
    let mut mix = Mix::new(plan.seed.wrapping_add(7));
    let traced_ticks = rec.enabled();
    let mut window = Window::open();
    let mut block_from = (0, 0);
    let mut i = range.start;
    let mut cur = if i == 0 {
        0
    } else {
        plan.epoch_of(trace[i - 1].ts)
    };
    while i < range.end {
        let k = plan.epoch_of(trace[i].ts);
        if out.blocks.is_empty() || (k > cur && k.is_multiple_of(BLOCK_EPOCHS)) {
            close_block(&mut out, &window, block_from);
            window = Window::open();
            block_from = (out.fresh_ms.len(), out.queries.len());
            out.blocks.push((0, 0.0));
        }
        let epoch_span = rec.open("bench.epoch", k);
        let (start_i, start_secs) = (i, out.secs);
        if k > cur {
            let Deployment { fs, ops, .. } = d;
            let (_, s) = rec.time("core.ingest_rotate", k, 1, || {
                fs.ingest_round_robin(&trace[i]);
            });
            out.fresh_ms.push(s * 1e3);
            out.secs += s;
            if let Some(ops) = ops.as_mut() {
                tick(ops, trace[i].ts, traced_ticks, &mut out, rec, k);
            }
            out.peak_bytes = out.peak_bytes.max(accounted_bytes(&d.fs));
            cur = k;
            i += 1;
        }
        let mut end = ranges[k as usize].end.min(range.end);
        if let Some(every) = plan.query_every {
            let next = (i / every + 1) * every;
            end = end.min(next);
        }
        if i < end {
            let Deployment { fs, ops, .. } = d;
            let (ticked, s) = rec.time("core.ingest", k, (end - i) as u64, || {
                let mut ticked = Vec::new();
                for r in &trace[i..end] {
                    fs.ingest_round_robin(r);
                    if let Some(ops) = ops.as_mut() {
                        if traced_ticks {
                            let t = Instant::now();
                            if ops.tick(r.ts) {
                                ticked.push(t.elapsed().as_secs_f64());
                            }
                        } else {
                            ops.tick(r.ts);
                        }
                    }
                }
                ticked
            });
            out.secs += s;
            out.plain_secs += s - ticked.iter().sum::<f64>();
            out.plain_calls += (end - i) as u64;
            out.tick_secs.extend(ticked);
            i = end;
        }
        if let Some(block) = out.blocks.last_mut() {
            block.0 += i - start_i;
            block.1 += out.secs - start_secs;
        }
        if let Some(every) = plan.query_every {
            if i.is_multiple_of(every) && i < range.end && cur >= 1 {
                interleaved_query(
                    d,
                    plan,
                    trace,
                    ranges,
                    cur - 1,
                    &mut mix,
                    rec,
                    ledger,
                    &mut out,
                );
            }
        }
        rec.close(epoch_span);
    }
    if finish {
        let fs = &mut d.fs;
        let (_, s) = rec.time("core.finish", cur + 1, 1, || fs.finish());
        out.secs += s;
        if let Some(last) = out.blocks.last_mut() {
            last.1 += s;
        }
        out.peak_bytes = out.peak_bytes.max(accounted_bytes(&d.fs));
    }
    close_block(&mut out, &window, block_from);
    out
}

/// Scales the samples of the open ingest block, which `window` covered,
/// to wall time net of host steal; `from` indexes its first freshness
/// sample and its first interleaved query.
fn close_block(out: &mut IngestOut, window: &Window, from: (usize, usize)) {
    let Some(block) = out.blocks.last_mut() else {
        return;
    };
    let kept = window.kept();
    block.1 *= kept;
    for ms in &mut out.fresh_ms[from.0..] {
        *ms *= kept;
    }
    for q in &mut out.queries[from.1..] {
        q.2 *= kept;
    }
}

/// One ops-plane tick after an epoch-crossing ingest.
fn tick(
    ops: &mut OpsPlane,
    ts: Timestamp,
    traced: bool,
    out: &mut IngestOut,
    rec: &mut Recorder,
    k: u64,
) {
    if traced {
        let (sampled, s) = rec.time("ops.tick", k, 1, || ops.tick(ts));
        if sampled {
            out.tick_secs.push(s);
        }
    } else {
        ops.tick(ts);
    }
}

/// A point query on region 0 over the window of epochs that ends with
/// closed epoch `k`, interleaved into the ingest stream.
#[allow(clippy::too_many_arguments)]
fn interleaved_query(
    d: &Deployment,
    plan: &Plan,
    trace: &[FlowRecord],
    ranges: &[Range<usize>],
    k: u64,
    mix: &mut Mix,
    rec: &mut Recorder,
    ledger: &mut Ledger,
    out: &mut IngestOut,
) {
    let epochs = (k + 1).saturating_sub(plan.window_epochs)..k + 1;
    let Some(q) = point_query(plan, trace, ranges, 0, epochs, mix) else {
        return;
    };
    let fs = &d.fs;
    let (result, s) = rec.time("core.query", k, 1, || fs.query(&q.flowql));
    out.queries.push((q, ledger.query(result), s * 1e3));
}

/// The deterministic outputs two runs with the same seed must share.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Determinism {
    /// A fingerprint of the generated trace.
    pub trace_fingerprint: u64,
    /// Records ingested.
    pub flows: u64,
    /// `network().total_bytes()`.
    pub wan_bytes: u64,
    /// Peak accounted bytes.
    pub accounted_bytes_peak: u64,
    /// Mean relative error of the point queries (compared bit for bit).
    pub answer_rel_err_bits: u64,
    /// Sealed segments plus WAL on disk.
    pub disk_bytes: u64,
    /// `(flowql, [locations, summaries, nodes_visited, bytes_merged,
    /// rows_returned])` of every checked query.
    pub query_costs: Vec<(String, [u64; 5])>,
    /// `[recovered_frames, wal_records, torn_frames, corrupt_frames,
    /// truncated_bytes]` of every recovery.
    pub recovery: Vec<[u64; 5]>,
}

/// FNV-1a over the fields of every record.
pub fn fingerprint(trace: &[FlowRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in trace {
        eat(r.ts.as_micros());
        eat(u64::from(r.src_ip.bits()) << 32 | u64::from(r.dst_ip.bits()));
        eat(u64::from(r.src_port) << 24 | u64::from(r.dst_port) << 8 | u64::from(r.proto));
        eat(r.packets);
        eat(r.bytes);
    }
    h
}

fn cost_of(r: &QueryResult) -> [u64; 5] {
    [
        r.cost.locations as u64,
        r.cost.summaries as u64,
        r.cost.nodes_visited as u64,
        r.cost.bytes_merged,
        r.cost.rows_returned as u64,
    ]
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics, attempts, failures and checks.
    pub report: Report,
    /// The deterministic counts.
    pub det: Determinism,
    /// Wall time of the timed phases (for the tracing overhead), seconds.
    pub timed_secs: f64,
    /// The recorded spans (empty unless traced).
    pub spans: Recorder,
}

/// Runs the plan once in `work` (created and left for the caller to
/// remove). `traced` records spans and runs the layer probes.
///
/// # Errors
///
/// Returns a description of an environment failure (I/O on the work
/// directory); output mismatches are reported in the outcome instead.
pub fn run(plan: &Plan, work: &Path, traced: bool) -> Result<Outcome, String> {
    let workers = plan.workers();
    let par = Parallelism::Threads(workers);
    let trace = plan.generate();
    let ranges = epoch_ranges(plan, &trace);
    let mut rec = Recorder::new(traced);
    let mut ledger = Ledger::default();
    let mut report = Report::default();
    let mut det = Determinism {
        trace_fingerprint: fingerprint(&trace),
        ..Determinism::default()
    };
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;

    // --- setup: build (and load) the deployment, several times; the last
    // one goes on to the first ingest pass.
    let load_end = if plan.load_in_setup {
        trace.len()
    } else {
        ranges[plan.warm_epochs as usize - 1].end
    };
    let steal_at_start = host_steal_secs();
    let run_start = Instant::now();
    let mut setup_secs = Vec::new();
    let mut load_rps = Vec::new();
    let mut load_fresh = Vec::new();
    let mut last_setup: Option<(Deployment, IngestOut)> = None;
    for rep in 0..plan.setup_reps.max(1) {
        if let Some((old, _)) = last_setup.take() {
            discard(old);
        }
        let (d, load, secs) = set_up(
            plan,
            par,
            &trace,
            &ranges,
            load_end,
            work,
            rep,
            &mut rec,
            &mut ledger,
        )?;
        setup_secs.push(secs);
        if plan.load_in_setup {
            let net_secs: f64 = load.blocks.iter().map(|b| b.1).sum();
            load_rps.push(load.records as f64 / net_secs);
            load_fresh.extend_from_slice(&load.fresh_ms);
        }
        last_setup = Some((d, load));
    }

    // With a kill, the epoch in flight is not yet queryable.
    let closed_epochs = if plan.kill {
        ranges.len() - 1
    } else {
        ranges.len()
    };

    // --- the timed ingest passes. A pass after the first sets up a fresh
    // deployment (one more setup sample); every pass is checked, and all
    // but the last are then dropped.
    let mut ingest_rps = Vec::new();
    let mut fresh = Vec::new();
    let mut query_ms = Vec::new();
    let mut timed_secs = 0.0;
    let mut peak_bytes = 0;
    let mut checked: Vec<(String, Option<QueryResult>)> = Vec::new();
    let mut last_pass = None;
    let passes = plan.ingest_passes.max(1);
    for pass in 0..passes {
        let (mut d, load) = match last_setup.take() {
            Some(setup) => setup,
            None => {
                let rep = plan.setup_reps + pass;
                let (d, load, secs) = set_up(
                    plan,
                    par,
                    &trace,
                    &ranges,
                    load_end,
                    work,
                    rep,
                    &mut rec,
                    &mut ledger,
                )?;
                setup_secs.push(secs);
                (d, load)
            }
        };
        let timed = if plan.load_in_setup {
            load
        } else {
            let mut out = ingest(
                &mut d,
                plan,
                &trace,
                &ranges,
                load_end..trace.len(),
                !plan.kill,
                &mut rec,
                &mut ledger,
            );
            out.peak_bytes = out.peak_bytes.max(load.peak_bytes);
            ingest_rps.extend(
                out.blocks
                    .iter()
                    .map(|&(records, secs)| records as f64 / secs),
            );
            fresh.push(out.fresh_ms.clone());
            query_ms.push(out.queries.iter().map(|q| q.2).collect());
            out
        };
        timed_secs += timed.secs;
        peak_bytes = peak_bytes.max(timed.peak_bytes);
        ledger.attempted += trace.len() as u64;
        if d.fs.cold_tier_dead() {
            ledger.failed += trace.len() as u64;
            ledger
                .mismatches
                .push("cold tier died during ingest".into());
        }
        let last = pass + 1 == passes;
        let mut pass_checked = Vec::new();
        check_totals(
            plan,
            &d.fs,
            &trace,
            &ranges,
            closed_epochs,
            &mut ledger,
            if last {
                &mut checked
            } else {
                &mut pass_checked
            },
        );
        if last {
            last_pass = Some((d, timed));
        } else {
            discard(d);
        }
    }
    let (d, timed) = last_pass.ok_or("no ingest pass ran")?;
    if plan.load_in_setup {
        ingest_rps = load_rps;
        fresh = vec![load_fresh];
    }
    let mut rel_errs: Vec<f64> = Vec::new();
    for (q, got, _) in &timed.queries {
        checked.push((q.flowql.clone(), got.clone()));
    }

    // --- output checks on the live deployment.
    let fs = &d.fs;
    let mut mix = Mix::new(plan.seed.wrapping_mul(31).wrapping_add(1));
    // An outage merges the severed region's parked summaries into wider
    // windows, so its per-epoch answers are not point answers.
    let point_regions: Vec<usize> = (0..plan.regions)
        .filter(|&g| plan.outage.is_none_or(|o| o.region != g))
        .collect();
    for qi in 0..plan.point_queries {
        let g = point_regions[qi % point_regions.len()];
        let k = mix.below(closed_epochs) as u64;
        let Some(q) = point_query(plan, &trace, &ranges, g, k..k + 1, &mut mix) else {
            continue;
        };
        let got = ledger.query(fs.query(&q.flowql));
        if let Some(est) = got.as_ref().and_then(|r| r.rows.first()).map(|r| r.score) {
            rel_errs.push(rel_err(est, q.exact));
        }
        checked.push((q.flowql, got));
    }
    if let Some(window) = plan.ddos {
        check_ddos(plan, fs, &trace, window, &mut ledger, &mut checked);
    }
    let stats_before = d.fs.stats();
    let flows = stats_before.flows;
    det.flows = flows;
    det.wan_bytes = d.fs.network().total_bytes();
    det.accounted_bytes_peak = peak_bytes;
    let answer_rel_err = stats::mean(&rel_errs);
    det.answer_rel_err_bits = answer_rel_err.to_bits();

    let mut layer_metrics = Vec::new();
    if traced {
        layer_metrics.extend(layers::core_metrics(&timed, &stats_before));
    }
    let dir = d.dir.clone();
    let mut live = Some(d);
    if plan.kill {
        if let Some(d) = &live {
            // Kept to compare with the recovered deployment.
            for (_, q) in CANONICAL {
                checked.push((q.to_owned(), ledger.query(d.fs.query(q))));
            }
            if traced {
                layer_metrics.extend(layers::probe_live(
                    plan, &trace, &ranges, &d.fs, work, &mut rec,
                )?);
            }
        }
        // The kill: dropped mid-epoch, without `finish`.
        live = None;
    }
    // The stored tier, crashed or cleanly stopped (a finished deployment
    // writes nothing more, so its files can be copied while it lives).
    det.disk_bytes = disk_bytes(&dir);
    let master = work.join("store");
    copy_dir(&dir, &master)?;

    // --- timed rounds: a share of the canonical passes on the live
    // deployment, then one recovery. Interleaving spreads both phases over
    // the run, so a burst of host noise shifts each a little instead of
    // one entirely.
    let rounds = plan.recover_reps.max(1);
    let mut recover_ms = Vec::new();
    let mut canonical_ms = Vec::new();
    let mut canonical_answers = Vec::new();
    for round in 0..rounds {
        let share = |n: usize| n * round / rounds..n * (round + 1) / rounds;
        if let Some(d) = &live {
            let fs = &d.fs;
            let (window, from) = (Window::open(), canonical_ms.len());
            for pass in share(plan.canonical_passes) {
                for (qi, (_, q)) in CANONICAL.iter().enumerate() {
                    let id = 2_000_000 + (pass * CANONICAL.len() + qi) as u64;
                    let (result, s) = rec.time("core.query", id, 1, || fs.query(q));
                    canonical_ms.push(s * 1e3);
                    timed_secs += s;
                    let got = ledger.query(result);
                    if pass == 0 {
                        checked.push(((*q).to_owned(), got.clone()));
                        canonical_answers.push(got);
                    }
                }
            }
            let kept = window.kept();
            for ms in &mut canonical_ms[from..] {
                *ms *= kept;
            }
        }
        let copy = work.join(format!("recover-{round}"));
        copy_dir(&master, &copy)?;
        let tel = telemetry(plan);
        let cfg = config(plan, par);
        let window = Window::open();
        let (result, s) = rec.time("core.recover", 3_000_000 + round as u64, 1, || {
            Flowstream::recover(
                plan.regions,
                plan.routers,
                cfg,
                &copy,
                SyncPolicy::OnSeal,
                &tel,
            )
        });
        ledger.attempted += 1;
        match result {
            Ok((recovered, rr)) => {
                recover_ms.push(s * 1e3 * window.kept());
                timed_secs += s;
                det.recovery.push(recovery_counts(&rr));
                if round + 1 == rounds {
                    // Every checked query has run by the last round.
                    check_recovered(&recovered, flows, &checked, &mut ledger);
                }
            }
            Err(e) => {
                ledger.failed += 1;
                ledger.mismatches.push(format!("recover failed: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    if let Some(mut d) = live.take() {
        if !canonical_answers.is_empty() {
            // The oracle: the same set under `Sequential` answers identically.
            d.fs.set_parallelism(Parallelism::Sequential);
            for ((label, q), threaded) in CANONICAL.iter().zip(&canonical_answers) {
                let seq = ledger.query(d.fs.query(q));
                ledger.check(&seq == threaded, || {
                    format!("{label}: Threads({workers}) answer differs from Sequential")
                });
            }
            d.fs.set_parallelism(par);
        }
        if traced {
            layer_metrics.extend(layers::probe_live(
                plan, &trace, &ranges, &d.fs, work, &mut rec,
            )?);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    for (q, got) in &checked {
        if let Some(r) = got {
            det.query_costs.push((q.clone(), cost_of(r)));
        }
    }
    if traced {
        layer_metrics.extend(layers::probe_store(
            &master,
            work,
            stats::median(&recover_ms),
            &mut rec,
        )?);
    }

    // --- end-to-end metrics.
    query_ms.push(canonical_ms);
    let (fresh_tail, fresh_tails) = stats::group_tail(&fresh);
    let (query_tail, query_tails) = stats::group_tail(&query_ms);
    let flows_f = flows.max(1) as f64;
    // In the order of `E2E`.
    let values = [
        stats::median(&setup_secs),
        stats::median(&ingest_rps),
        stats::median(&fresh.concat()),
        fresh_tail,
        stats::median(&query_ms.concat()),
        query_tail,
        stats::median(&recover_ms),
        det.accounted_bytes_peak as f64,
        rss_peak_mb(),
        det.wan_bytes as f64 / flows_f,
        det.disk_bytes as f64 / flows_f,
        answer_rel_err,
    ];
    report.e2e = E2E
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect();
    report.layers = layer_metrics;
    report.attempted = ledger.attempted;
    report.failed = ledger.failed;
    report.mismatches = ledger.mismatches;
    report.notes = vec![
        ("workers".into(), workers.to_string()),
        ("records".into(), trace.len().to_string()),
        ("epochs".into(), ranges.len().to_string()),
        ("freshness_tail".into(), describe(&fresh_tails)),
        ("query_tail".into(), describe(&query_tails)),
        ("point_queries_checked".into(), rel_errs.len().to_string()),
        ("recoveries".into(), recover_ms.len().to_string()),
        ("host_steal_pct".into(), {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
            let wall = run_start.elapsed().as_secs_f64();
            format!(
                "{:.2}",
                100.0 * (host_steal_secs() - steal_at_start) / (wall * cpus)
            )
        }),
        (
            "dropped_spill_summaries".into(),
            stats_before.dropped_summaries.to_string(),
        ),
    ];
    let _ = std::fs::remove_dir_all(&master);
    Ok(Outcome {
        report,
        det,
        timed_secs,
        spans: rec,
    })
}

/// Builds the plan's deployment in `work/tier-<rep>` and ingests its setup
/// records; returns it with what the load measured and the setup's wall
/// time (net of host steal), in seconds.
#[allow(clippy::too_many_arguments)]
fn set_up(
    plan: &Plan,
    par: Parallelism,
    trace: &[FlowRecord],
    ranges: &[Range<usize>],
    load_end: usize,
    work: &Path,
    rep: usize,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<(Deployment, IngestOut, f64), String> {
    let span = rec.open("bench.setup", rep as u64);
    let window = Window::open();
    let start = Instant::now();
    let mut d = Deployment::build(plan, par, &work.join(format!("tier-{rep}")))?;
    let load = ingest(
        &mut d,
        plan,
        trace,
        ranges,
        0..load_end,
        plan.load_in_setup,
        rec,
        ledger,
    );
    let secs = start.elapsed().as_secs_f64() * window.kept();
    rec.close(span);
    Ok((d, load, secs))
}

/// Drops a deployment and removes its cold tier.
fn discard(d: Deployment) {
    let dir = d.dir.clone();
    drop(d);
    let _ = std::fs::remove_dir_all(dir);
}

/// Every record must have been ingested, and each region's total mass over
/// the closed epochs must equal the exact packet sum of its records.
fn check_totals(
    plan: &Plan,
    fs: &Flowstream,
    trace: &[FlowRecord],
    ranges: &[Range<usize>],
    closed_epochs: usize,
    ledger: &mut Ledger,
    checked: &mut Vec<(String, Option<QueryResult>)>,
) {
    ledger.check(fs.stats().flows == trace.len() as u64, || {
        format!(
            "flows ingested {} != records sent {}",
            fs.stats().flows,
            trace.len()
        )
    });
    let closed_end = ranges[closed_epochs - 1].end;
    for g in 0..plan.regions {
        let exact: u64 = (0..closed_end)
            .filter(|&i| plan.region_of(i) == g)
            .map(|i| trace[i].packets)
            .sum();
        let q = format!("SELECT QUERY FROM ALL WHERE location = \"region-{g}\"");
        let got = ledger.query(fs.query(&q));
        let score = got.as_ref().and_then(|r| r.rows.first()).map(|r| r.score);
        ledger.check(score == Some(exact), || {
            format!("region-{g} total mass {score:?} != exact {exact}")
        });
        checked.push((q, got));
    }
}

/// Epochs per block of an ingest phase; `ingest_rps` is the median
/// throughput of these blocks, rotations included.
const BLOCK_EPOCHS: u64 = 10;

fn describe(tails: &[Tail]) -> String {
    let each: Vec<String> = tails
        .iter()
        .map(|t| format!("p{:.1} of {} samples", t.percentile, t.samples))
        .collect();
    match each.len() {
        0 | 1 => each.concat(),
        _ => format!("median of {}", each.join(", ")),
    }
}

fn rel_err(est: u64, exact: u64) -> f64 {
    (est as f64 - exact as f64).abs() / exact.max(1) as f64
}

fn recovery_counts(r: &RecoveryReport) -> [u64; 5] {
    [
        r.recovered_frames,
        r.wal_records.len() as u64,
        r.torn_frames,
        r.corrupt_frames,
        r.truncated_bytes,
    ]
}

/// The injected DDoS victim must be a heavy hitter of its attack window.
fn check_ddos(
    plan: &Plan,
    fs: &Flowstream,
    trace: &[FlowRecord],
    window: megastream::flow::time::TimeWindow,
    ledger: &mut Ledger,
    checked: &mut Vec<(String, Option<QueryResult>)>,
) {
    let victim_packets: u64 = trace
        .iter()
        .enumerate()
        .filter(|(i, r)| plan.region_of(*i) == 0 && window.contains(r.ts) && r.dst_ip == VICTIM)
        .map(|(_, r)| r.packets)
        .sum();
    let q = format!(
        "SELECT HHH {} FROM [{}, {}) WHERE location = \"region-0\"",
        (victim_packets / 2).max(1),
        window.start.as_micros() / 1_000_000,
        window.end.as_micros() / 1_000_000,
    );
    let got = ledger.query(fs.query(&q));
    let victim = MaskedField::exact(VICTIM.bits(), 32);
    let found = got.as_ref().is_some_and(|r| {
        r.rows
            .iter()
            .any(|row| row.key.is_some_and(|k| k.field(Feature::DstIp) == victim))
    });
    ledger.check(found, || format!("DDoS victim {VICTIM} missing from `{q}`"));
    checked.push((q, got));
}

/// The recovered deployment must hold every flow and answer every checked
/// query exactly as the instance before the kill did.
fn check_recovered(
    recovered: &Flowstream,
    flows: u64,
    checked: &[(String, Option<QueryResult>)],
    ledger: &mut Ledger,
) {
    let got = recovered.stats().flows;
    ledger.check(got == flows, || {
        format!("recovered {got} flows, want {flows}")
    });
    for (q, before) in checked {
        let after = ledger.query(recovered.query(q));
        ledger.check(&after == before, || {
            format!("recovered answer differs: `{q}`")
        });
    }
}
