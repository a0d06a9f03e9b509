//! The three workloads: what each deploys, which trace it feeds, and which
//! phases it times. Every input is a pure function of the seed and the run
//! length, so two runs with the same arguments feed identical records and
//! FlowQL text.

use std::ops::Range;

use megastream::flow::addr::Ipv4Addr;
use megastream::flow::mask::GeneralizationSchema;
use megastream::flow::record::FlowRecord;
use megastream::flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream::workloads::netflow::{FlowTraceConfig, FlowTraceGenerator, TrafficEvent};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long low-skew trace into a 2 × 4 deployment with a cold tier.
    IngestWide,
    /// The E14 deployment (8 regions + NOC) answering the canonical set.
    QueryFanout,
    /// `network_monitoring` shape: outage, DDoS, ops plane, crash, recover.
    OpsRestart,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::IngestWide,
        Workload::QueryFanout,
        Workload::OpsRestart,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestWide => "ingest-wide",
            Workload::QueryFanout => "query-fanout",
            Workload::OpsRestart => "ops-restart",
        }
    }

    /// Why the workload is in the benchmark (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::IngestWide => {
                "2x4 deployment with cold tier, low-skew wide trace: Flowtree miss path, rotation, export and WAL do nearly all the work"
            }
            Workload::QueryFanout => {
                "E14 9-location deployment loaded in setup, canonical FlowQL set in a closed loop: planning, merge fan-out and operators do the work"
            }
            Workload::OpsRestart => {
                "network_monitoring shape: high-skew hit path, uplink outage spill/flush, telemetry and ops ticks, reads beside writes, kill and recover"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The victim of the DDoS injected into `ops-restart`.
pub const VICTIM: Ipv4Addr = Ipv4Addr::from_octets([100, 64, 0, 1]);

/// A region uplink outage: `region`'s link to the NOC is down in
/// `[from_s, to_s)` of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// The severed region.
    pub region: usize,
    /// Start, in simulated seconds.
    pub from_s: u64,
    /// End, in simulated seconds.
    pub to_s: u64,
}

/// Everything one run of a workload does, derived from the workload, the
/// seed and the run length.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The trace seed.
    pub seed: u64,
    /// Regions of the deployment.
    pub regions: usize,
    /// Routers per region.
    pub routers: usize,
    /// The generalization schema of every tree.
    pub schema: GeneralizationSchema,
    /// Epoch length in simulated seconds.
    pub epoch_s: u64,
    /// The trace generator's configuration.
    pub trace: FlowTraceConfig,
    /// Whether setup loads the whole trace (and finishes it); the timed
    /// phase then ingests nothing.
    pub load_in_setup: bool,
    /// Otherwise, the warm-up epochs setup ingests before the timed phase.
    pub warm_epochs: u64,
    /// How many times setup is repeated (the median is reported).
    pub setup_reps: usize,
    /// How many times the timed ingest phase runs, each time on a freshly
    /// set-up deployment; the samples of every pass are pooled. Only the
    /// last pass's deployment goes on to the queries and recoveries.
    pub ingest_passes: usize,
    /// Telemetry on and `OpsPlane::standard` ticking after every ingest.
    pub ops_plane: bool,
    /// An injected uplink outage.
    pub outage: Option<Outage>,
    /// The injected DDoS window, if any.
    pub ddos: Option<TimeWindow>,
    /// Whether the run ends in a kill (drop mid-epoch, no `finish`).
    pub kill: bool,
    /// A timed point query is interleaved after every this many records.
    pub query_every: Option<usize>,
    /// Closed-loop passes over the canonical query set.
    pub canonical_passes: usize,
    /// Seeded single-epoch prefix point queries checked against exact
    /// sums, over the regions the outage (if any) leaves untouched.
    pub point_queries: usize,
    /// Epochs an interleaved point query spans.
    pub window_epochs: u64,
    /// Timed `Flowstream::recover` repetitions.
    pub recover_reps: usize,
}

impl Plan {
    /// The plan of `workload` for `seed`, sized so the timed phases take
    /// roughly `seconds` on a 2-core host.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let seconds = seconds.max(1);
        match workload {
            Workload::IngestWide => {
                // 5 warm-up epochs in setup + 120 timed epochs of 10 s,
                // ~96k timed records per requested second, ingested in two
                // passes: twice the samples, spread over twice the time.
                // A one-minute point query follows every 900 × `seconds`
                // records (~107 per pass).
                let epochs = 125;
                Plan {
                    workload,
                    seed,
                    regions: 2,
                    routers: 4,
                    schema: GeneralizationSchema::network_default(),
                    epoch_s: 10,
                    trace: FlowTraceConfig {
                        seed,
                        flows_per_sec: 80.0 * seconds as f64,
                        duration: TimeDelta::from_secs(10 * epochs),
                        internal_hosts: 50_000,
                        external_hosts: 200_000,
                        host_skew: 0.8,
                        ..FlowTraceConfig::default()
                    },
                    load_in_setup: false,
                    warm_epochs: 5,
                    setup_reps: 5,
                    ingest_passes: 2,
                    ops_plane: false,
                    outage: None,
                    ddos: None,
                    kill: false,
                    query_every: Some(900 * seconds as usize),
                    canonical_passes: 0,
                    point_queries: 2_000,
                    window_epochs: 6,
                    recover_reps: 5,
                }
            }
            Workload::QueryFanout => Plan {
                workload,
                seed,
                regions: 8,
                routers: 2,
                schema: GeneralizationSchema::network_default(),
                epoch_s: 30,
                // The E14 trace: 400 flows/s for 300 s at skew 1.1.
                trace: FlowTraceConfig {
                    seed,
                    flows_per_sec: 400.0,
                    duration: TimeDelta::from_secs(300),
                    host_skew: 1.1,
                    ..FlowTraceConfig::default()
                },
                load_in_setup: true,
                warm_epochs: 0,
                setup_reps: 5,
                ingest_passes: 1,
                ops_plane: false,
                outage: None,
                ddos: None,
                kill: false,
                query_every: None,
                canonical_passes: (seconds as usize * 6).div_ceil(5),
                point_queries: 2_000,
                window_epochs: 1,
                recover_reps: 5,
            },
            Workload::OpsRestart => {
                // 5 warm-up epochs + 100 timed epochs of 10 s, then half an
                // epoch that the kill interrupts; two passes, as ingest-wide.
                let attack =
                    TimeWindow::starting_at(Timestamp::from_secs(400), TimeDelta::from_secs(60));
                let rate = 60.0 * seconds as f64;
                Plan {
                    workload,
                    seed,
                    regions: 2,
                    routers: 4,
                    schema: GeneralizationSchema::dst_preserving(),
                    epoch_s: 10,
                    trace: FlowTraceConfig {
                        seed,
                        flows_per_sec: rate,
                        duration: TimeDelta::from_secs(1055),
                        internal_hosts: 300,
                        external_hosts: 1_000,
                        host_skew: 1.4,
                        events: vec![TrafficEvent::Ddos {
                            window: attack,
                            target: VICTIM,
                            target_port: 53,
                            flows_per_sec: 3.0 * rate,
                        }],
                        ..FlowTraceConfig::default()
                    },
                    load_in_setup: false,
                    warm_epochs: 5,
                    setup_reps: 5,
                    ingest_passes: 2,
                    ops_plane: true,
                    outage: Some(Outage {
                        region: 1,
                        from_s: 250,
                        to_s: 390,
                    }),
                    ddos: Some(attack),
                    kill: true,
                    query_every: Some(640 * seconds as usize),
                    canonical_passes: 0,
                    point_queries: 2_000,
                    window_epochs: 6,
                    recover_reps: 5,
                }
            }
        }
    }

    /// Data-plane worker threads, never `Auto`: `min(2, nproc)` on
    /// `query-fanout`, whose merge fan-out is what it measures; 1 on the
    /// ingest workloads. There a parallel rotation only fans out two region
    /// stores, and each one waits for a second vCPU to wake: on a shared
    /// 2-vCPU VM, over five interleaved `ingest-wide` seeds, one worker
    /// rotated as fast (freshness p50 12.1 vs 12.7 ms) with a third of the
    /// tail's run-to-run spread (0.064 vs 0.216).
    pub fn workers(&self) -> usize {
        match self.workload {
            Workload::QueryFanout => {
                std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
            }
            Workload::IngestWide | Workload::OpsRestart => 1,
        }
    }

    /// The epoch length.
    pub fn epoch_len(&self) -> TimeDelta {
        TimeDelta::from_secs(self.epoch_s)
    }

    /// The epoch a timestamp falls in.
    pub fn epoch_of(&self, ts: Timestamp) -> u64 {
        ts.as_micros() / (self.epoch_s * 1_000_000)
    }

    /// The simulated window of epoch `k`.
    pub fn epoch_window(&self, k: u64) -> TimeWindow {
        TimeWindow::starting_at(Timestamp::from_secs(k * self.epoch_s), self.epoch_len())
    }

    /// Generates the trace.
    pub fn generate(&self) -> Vec<FlowRecord> {
        FlowTraceGenerator::new(self.trace.clone()).collect()
    }

    /// The region `ingest_round_robin` sends the `i`-th record to.
    pub fn region_of(&self, i: usize) -> usize {
        (i % (self.regions * self.routers)) / self.routers
    }
}

/// A small deterministic generator (SplitMix64) for choosing queries.
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Mix(seed ^ 0x6d65_6761_6265_6e63)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A prefix point query over one region and a run of epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointQuery {
    /// The FlowQL text.
    pub flowql: String,
    /// The exact packet sum of the matching raw records.
    pub exact: u64,
}

/// Builds one point query on `region` over `epochs`: a prefix of the
/// source or destination of a record the region received in them, with
/// its exact answer summed from the raw trace.
pub fn point_query(
    plan: &Plan,
    trace: &[FlowRecord],
    ranges: &[Range<usize>],
    region: usize,
    epochs: Range<u64>,
    mix: &mut Mix,
) -> Option<PointQuery> {
    let records = ranges[epochs.start as usize].start..ranges[epochs.end as usize - 1].end;
    let candidates: Vec<usize> = records.filter(|&i| plan.region_of(i) == region).collect();
    if candidates.is_empty() {
        return None;
    }
    let pick = &trace[candidates[mix.below(candidates.len())]];
    let len = [8u8, 16, 24, 32][mix.below(4)];
    let use_src = mix.below(2) == 0;
    let addr = if use_src { pick.src_ip } else { pick.dst_ip };
    let net = addr.masked(len);
    let exact = candidates
        .iter()
        .map(|&i| &trace[i])
        .filter(|r| {
            let a = if use_src { r.src_ip } else { r.dst_ip };
            a.masked(len) == net
        })
        .map(|r| r.packets)
        .sum();
    let flowql = format!(
        "SELECT QUERY FROM [{}, {}) WHERE location = \"region-{region}\" AND {} = {net}/{len}",
        epochs.start * plan.epoch_s,
        epochs.end * plan.epoch_s,
        if use_src { "src_ip" } else { "dst_ip" },
    );
    Some(PointQuery { flowql, exact })
}

/// The canonical FlowQL set of EXPERIMENTS.md E14, with metric labels.
pub const CANONICAL: [(&str, &str); 10] = [
    (
        "query_src8",
        "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8",
    ),
    (
        "query_src8_by_loc",
        "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8 GROUP BY location",
    ),
    ("topk5", "SELECT TOPK 5 FROM ALL"),
    ("topk3_by_loc", "SELECT TOPK 3 FROM ALL GROUP BY location"),
    ("above500", "SELECT ABOVE 500 FROM ALL"),
    ("hhh2000", "SELECT HHH 2000 FROM ALL"),
    (
        "drilldown_src8",
        "SELECT DRILLDOWN FROM ALL WHERE src_ip = 10.0.0.0/8",
    ),
    (
        "query_src8_0_60",
        "SELECT QUERY FROM [0, 60) WHERE src_ip = 10.0.0.0/8",
    ),
    (
        "query_region0",
        "SELECT QUERY FROM ALL WHERE location = \"region-0\"",
    ),
    (
        "topk5_60_240",
        "SELECT TOPK 5 FROM [60, 240) WHERE dst_ip = 0.0.0.0/0",
    ),
];
