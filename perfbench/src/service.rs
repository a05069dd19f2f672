//! The three service workloads: their deployments, the timed run
//! through `run_service`, and the traced replica that drives the same
//! shard runs through the crates' public calls with a span around each
//! layer boundary.
//!
//! The replica mirrors `sfs_service::run_service` step by step: the
//! same plan, directory decisions, routing, chaos overlays, per-shard
//! seeds and rescue passes. It has to, because the service builds its
//! shard clusters internally and offers no hook for the wrappers that
//! time the application, the monitor and the telemetry sinks, or for
//! the per-send measure behind the message ledger. The bare-engine
//! shard builds likewise mirror `ClusterSpec`'s private build path,
//! because only the transport leg exposes a builder hook. Every traced
//! run is checked to reproduce the timed run's exact counts, so any
//! drift between the replica and the service fails the benchmark.

use crate::ledger::{Ledger, LedgerCounts};
use crate::spans::{Recorder, SpanId};
use rayon::prelude::*;
use sfs::{
    AdaptiveConfig, AppApi, Application, ClusterSpec, HeartbeatConfig, ModeSpec, NetSpec,
    ProbeConfig, SfsConfig, SfsMsg, SfsProcess, NOTE_PROBE_SUSPECT, NOTE_RETX,
};
use sfs_asys::net::{Runtime, RuntimeConfig};
use sfs_asys::{
    CrashRegistry, EventSink, EventSinkHandle, FaultPlan, Note, ObsEvent, ObsHandle, ObsSink,
    Process, ProcessId, Sim, TimerId, Trace, TraceEvent, TraceEventKind, UniformLatency,
    VirtualTime,
};
use sfs_chaos::{ChaosPlan, ChaosSpec, ShardChaos};
use sfs_obs::{AnomalyWatermarks, FlightRecorder, Registry, SfsMonitor};
use sfs_service::{
    analyze_load, plan_shards, run_service, Backend, Directory, LoadGenApp, LoadMsg, LoadProfile,
    RoutingTable, ServiceSpec, ShardId, ShardPlan, ShardReport, ShardSpec,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-shard failure bound on every service workload.
pub const T: usize = 2;
/// Target shard size.
pub const SHARD: usize = 16;
/// Closed-loop window: ops each shard's driver keeps outstanding.
pub const WINDOW: u64 = 8;
/// Client ops per process per epoch on the E11-shaped workloads, sized
/// so every op completes well inside the 600-tick horizon, including
/// the ops rescued from the shard whose budget the scripted crashes
/// exhaust.
pub const OPS_PER_PROC: u64 = 4;

/// `serve-sim`: the E11 shape at N = 1024 on the simulator.
pub fn serve_sim(seed: u64) -> ServiceSpec {
    e11_shape(1024, Backend::Sim, false, seed)
}

/// `serve-threaded`: the E11 shape at N = 256 on the threaded runtime,
/// batching on.
pub fn serve_threaded(seed: u64) -> ServiceSpec {
    e11_shape(256, Backend::Threaded, true, seed)
}

/// The E11 cell: 16-process shards at t = 2, model heartbeats at
/// interval 10 / timeout 60, two scripted crashes exhausting shard 0,
/// two epochs over a 600-tick horizon, online certification.
fn e11_shape(n: usize, backend: Backend, batch: bool, seed: u64) -> ServiceSpec {
    let plan = plan_shards(n, T, SHARD, seed).expect("E11 shapes are feasible");
    let victims = &plan.shards[0].members;
    ServiceSpec::new(n, T, SHARD)
        .seed(seed)
        .backend(backend)
        .batched(batch)
        .heartbeat(Some(HeartbeatConfig {
            interval: 10,
            timeout: 60,
            check_every: 15,
        }))
        .max_time(600)
        .certify_online(true)
        .load(LoadProfile::closed(OPS_PER_PROC * n as u64, WINDOW))
        .crash(victims[0], 40)
        .crash(victims[1], 55)
}

/// `soak-net`: the E13 adaptive shape at N = 256 — ARQ and the adaptive
/// probe over a 2%-loss, 2%-duplication link, a training flap, a delay
/// storm and Poisson crashes, three epochs, online certification and
/// anomaly watermarks.
pub fn soak_net(seed: u64) -> ServiceSpec {
    soak_shape(256, seed)
}

fn soak_shape(n: usize, seed: u64) -> ServiceSpec {
    let chaos = ChaosSpec::new(n / SHARD, T)
        .seed(seed)
        .horizon(3, 1_000)
        .flaps(vec![(150, 220)])
        .storm(400, 560, 110);
    let net = NetSpec::faultless()
        .loss(0.02)
        .duplicate(0.02)
        .probe(ProbeConfig {
            interval: 20,
            timeout: 100,
            check_every: 5,
        })
        .adaptive(AdaptiveConfig::default());
    ServiceSpec::new(n, T, SHARD)
        .seed(seed)
        .heartbeat(None)
        .epochs(3)
        .max_time(2_000)
        .certify_online(true)
        .watermarks(true)
        .load(LoadProfile::closed(2 * n as u64, WINDOW))
        .net(net)
        .chaos(chaos)
}

/// The planning calls the service makes before its first op: the shard
/// plan, the chaos plan, and the first directory decision.
pub fn setup(spec: &ServiceSpec) -> Result<RoutingTable, String> {
    let plan = plan_shards(spec.total, spec.t, spec.shard_target, spec.seed).map_err(err)?;
    std::hint::black_box(spec.chaos.as_ref().map(ChaosSpec::plan));
    Directory::decide(&spec.dir, 1, &fresh_reports(&plan, spec.t)).map_err(err)
}

fn fresh_reports(plan: &ShardPlan, t: usize) -> Vec<ShardReport> {
    (0..plan.len())
        .map(|shard| ShardReport {
            shard,
            detections: 0,
            t,
        })
        .collect()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The exact counts of one shard run, identical across runs of a seed on
/// the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCounts {
    /// Shard id.
    pub shard: ShardId,
    /// Members it ran with.
    pub n: usize,
    /// Ops routed to it.
    pub ops: u64,
    /// Trace events.
    pub events: u64,
    /// Messages sent.
    pub sent: u64,
    /// Crashes.
    pub crashes: u64,
    /// Detections declared.
    pub detections: u64,
    /// Ops completed.
    pub completed: u64,
}

/// The exact counts of one service run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exact {
    /// Every shard run, in the service's order.
    pub shards: Vec<ShardCounts>,
    /// Latency of every completed op, ascending (ticks).
    pub op_latencies: Vec<u64>,
    /// Crash→detection latency per surviving detector, ascending.
    pub detect_latencies: Vec<u64>,
    /// Ops rescued onto donors.
    pub rescued: u64,
}

impl Exact {
    /// Total trace events.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// The part of the counts that repeats on `backend`: everything on
    /// the simulator; on the threaded runtime, where the interleaving of
    /// node replies may reorder messages within an instant, a single
    /// totals row of events, ops routed, crashes and completed ops, plus
    /// the rescued ops.
    pub fn repeatable(&self, backend: Backend) -> Exact {
        match backend {
            Backend::Sim => self.clone(),
            Backend::Threaded => {
                let sum = |f: fn(&ShardCounts) -> u64| self.shards.iter().map(f).sum();
                Exact {
                    shards: vec![ShardCounts {
                        shard: 0,
                        n: 0,
                        ops: sum(|s| s.ops),
                        events: sum(|s| s.events),
                        sent: 0,
                        crashes: sum(|s| s.crashes),
                        detections: 0,
                        completed: sum(|s| s.completed),
                    }],
                    op_latencies: Vec::new(),
                    detect_latencies: Vec::new(),
                    rescued: self.rescued,
                }
            }
        }
    }
}

/// What one timed service run amounted to. The report itself is
/// dropped once summarized, so that repeated runs hold no memory that a
/// later run's RSS reading would count.
#[derive(Debug)]
pub struct Timed {
    /// Wall seconds of `run_service`.
    pub wall_s: f64,
    /// The run's exact counts.
    pub exact: Exact,
    /// Ops completed.
    pub completed: u64,
    /// Messages sent on every layer.
    pub messages: u64,
    /// Detection events (one per surviving detector per crash).
    pub detections: u64,
    /// Shard runs.
    pub shard_runs: usize,
    /// Shard runs whose online sFS verdicts all held.
    pub certified: usize,
}

/// Runs the deployment once through `run_service`, timed.
pub fn timed(spec: &ServiceSpec) -> Result<Timed, String> {
    let start = Instant::now();
    let report = run_service(spec).map_err(err)?;
    let wall_s = start.elapsed().as_secs_f64();
    let shards: Vec<_> = report.epochs.iter().flat_map(|e| &e.shards).collect();
    let mut op_latencies: Vec<u64> = shards
        .iter()
        .flat_map(|s| s.load.op_latencies.iter().copied())
        .collect();
    op_latencies.sort_unstable();
    let mut detect_latencies = report.detection_latencies();
    detect_latencies.sort_unstable();
    let exact = Exact {
        shards: shards
            .iter()
            .map(|s| ShardCounts {
                shard: s.shard,
                n: s.n,
                ops: s.ops_routed,
                events: s.events,
                sent: s.stats.messages_sent,
                crashes: s.stats.crashes,
                detections: s.stats.detections,
                completed: s.load.completed,
            })
            .collect(),
        op_latencies,
        detect_latencies,
        rescued: report.epochs.iter().map(|e| e.rescued_ops).sum(),
    };
    Ok(Timed {
        wall_s,
        exact,
        completed: report.ops_completed(),
        messages: report.messages(),
        detections: report.detection_count(),
        shard_runs: shards.len(),
        certified: shards
            .iter()
            .filter(|s| s.verdicts.as_ref().is_some_and(|v| v.all_ok()))
            .count(),
    })
}

/// Ops the deployment requests across all epochs.
pub fn requested(spec: &ServiceSpec) -> u64 {
    spec.load.ops * spec.epochs.max(1)
}

// ---- wrappers timing the calls into each layer ---------------------------

/// Summed wall time of many short calls.
#[derive(Debug, Default)]
pub struct Clock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Clock {
    fn add(&self, since: Instant) {
        self.ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Nanoseconds spent.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Calls timed.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// An [`Application`] wrapper timing every callback of the inner app.
struct TimedApp<A> {
    inner: A,
    clock: Arc<Clock>,
}

impl<A: Application> Application for TimedApp<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, api: &mut AppApi<'_, '_, A::Msg>) {
        let t = Instant::now();
        self.inner.on_start(api);
        self.clock.add(t);
    }

    fn on_message(&mut self, api: &mut AppApi<'_, '_, A::Msg>, from: ProcessId, msg: A::Msg) {
        let t = Instant::now();
        self.inner.on_message(api, from, msg);
        self.clock.add(t);
    }

    fn on_failure(&mut self, api: &mut AppApi<'_, '_, A::Msg>, failed: ProcessId) {
        let t = Instant::now();
        self.inner.on_failure(api, failed);
        self.clock.add(t);
    }

    fn on_timer(&mut self, api: &mut AppApi<'_, '_, A::Msg>, timer: TimerId) {
        let t = Instant::now();
        self.inner.on_timer(api, timer);
        self.clock.add(t);
    }
}

/// An [`EventSink`] wrapper timing the inner sink (the online monitor).
struct TimedSink {
    inner: EventSinkHandle,
    clock: Clock,
}

impl EventSink for TimedSink {
    fn on_event(&self, event: &TraceEvent) {
        let t = Instant::now();
        self.inner.on_event(event);
        self.clock.add(t);
    }
}

/// An [`ObsSink`] wrapper timing the inner sink (the watermarks and
/// their flight recorder).
struct TimedObs {
    inner: ObsHandle,
    clock: Clock,
}

impl ObsSink for TimedObs {
    fn record(&self, event: ObsEvent) {
        let t = Instant::now();
        self.inner.record(event);
        self.clock.add(t);
    }
}

// ---- the traced replica --------------------------------------------------

/// What the traced run learned about one shard run.
#[derive(Debug, Clone, Default)]
pub struct ShardLayers {
    /// Ledger of sent messages by kind.
    pub ledger: LedgerCounts,
    /// Application callbacks: ns.
    pub app_ns: u64,
    /// Monitor: ns.
    pub monitor_ns: u64,
    /// Monitored events.
    pub monitor_events: u64,
    /// Watermark sink: ns.
    pub obs_ns: u64,
    /// Watermark samples.
    pub obs_samples: u64,
    /// Horizon ticks after the last op completed (runs with ops only).
    pub idle_ticks: u64,
    /// Horizon ticks of runs with ops.
    pub horizon_ticks: u64,
    /// Probe suspicions of processes that had not crashed.
    pub false_suspicions: u64,
    /// Coalesced delivery batches.
    pub batches: u64,
    /// Process threads right after the runtime spawned (threaded only).
    pub threads: u64,
    /// Whether every online verdict held.
    pub certified: bool,
}

/// The traced run of one service deployment.
#[derive(Debug)]
pub struct TracedRun {
    /// Wall seconds.
    pub wall_s: f64,
    /// Exact counts, comparable to [`Timed::exact`].
    pub exact: Exact,
    /// Per shard run, in the same order as `exact.shards`.
    pub layers: Vec<ShardLayers>,
}

/// One shard run of the replica.
struct ShardResult {
    counts: ShardCounts,
    detected: usize,
    op_latencies: Vec<u64>,
    detect_latencies: Vec<u64>,
    layers: ShardLayers,
}

/// Seed salt of a rescue pass (mirrors the service's).
const RESCUE_SALT: u64 = 0x9E5C_0000;

/// Drives `spec`'s shard runs through public calls, recording spans into
/// `rec`. See the module docs.
pub fn traced(spec: &ServiceSpec, rec: &Recorder) -> Result<TracedRun, String> {
    let start = Instant::now();
    let root = rec.open("service.run", None);
    let plan = rec
        .time("service.plan", Some(root), || {
            plan_shards(spec.total, spec.t, spec.shard_target, spec.seed)
        })
        .map_err(err)?;
    let chaos = spec
        .chaos
        .as_ref()
        .map(|c| rec.time("chaos.plan", Some(root), || c.plan()));
    let mut dead: BTreeMap<ShardId, usize> = BTreeMap::new();
    let mut results: Vec<ShardResult> = Vec::new();
    let mut rescued = 0;
    for epoch in 1..=spec.epochs.max(1) {
        let reports: Vec<ShardReport> = (0..plan.len())
            .map(|shard| ShardReport {
                shard,
                detections: dead.get(&shard).copied().unwrap_or(0),
                t: spec.t,
            })
            .collect();
        let table = rec
            .time("service.directory", Some(root), || {
                Directory::decide(&spec.dir, epoch, &reports)
            })
            .map_err(err)?;
        let ep = rec.open("service.epoch", Some(root));
        let (outs, r) = traced_epoch(spec, &plan, epoch, &table, &dead, chaos.as_ref(), rec, ep)?;
        rec.close(ep);
        for s in &outs {
            *dead.entry(s.counts.shard).or_insert(0) += s.detected;
        }
        rescued += r;
        results.extend(outs);
    }
    rec.close(root);
    let wall_s = start.elapsed().as_secs_f64();
    let mut op_latencies: Vec<u64> = results
        .iter()
        .flat_map(|r| r.op_latencies.iter().copied())
        .collect();
    op_latencies.sort_unstable();
    let mut detect_latencies: Vec<u64> = results
        .iter()
        .flat_map(|r| r.detect_latencies.iter().copied())
        .collect();
    detect_latencies.sort_unstable();
    Ok(TracedRun {
        wall_s,
        exact: Exact {
            shards: results.iter().map(|r| r.counts.clone()).collect(),
            op_latencies,
            detect_latencies,
            rescued,
        },
        layers: results.into_iter().map(|r| r.layers).collect(),
    })
}

/// One epoch of the replica: route, fan out, rescue.
#[allow(clippy::too_many_arguments)]
fn traced_epoch(
    spec: &ServiceSpec,
    plan: &ShardPlan,
    epoch: u64,
    table: &RoutingTable,
    dead: &BTreeMap<ShardId, usize>,
    chaos: Option<&ChaosPlan>,
    rec: &Recorder,
    ep: SpanId,
) -> Result<(Vec<ShardResult>, u64), String> {
    let budget = spec.t.max(1);
    let lost = |sid: ShardId| dead.get(&sid).copied().unwrap_or(0);
    let mut routed: BTreeMap<ShardId, u64> = BTreeMap::new();
    for op in 0..spec.load.ops {
        *routed.entry(table.route(op)).or_insert(0) += 1;
    }
    let mut crashes: BTreeMap<ShardId, Vec<(usize, u64)>> = BTreeMap::new();
    if epoch == 1 {
        for &(g, tick) in &spec.crashes {
            if let Some(sid) = plan.shard_of(g) {
                let local = plan.shards[sid].local_of(g).expect("member");
                crashes.entry(sid).or_default().push((local, tick));
            }
        }
    }
    let overlays: BTreeMap<ShardId, ShardChaos> = match chaos {
        Some(c) => plan
            .shards
            .iter()
            .filter_map(|s| {
                let o = c.overlay(epoch as usize - 1, s.id);
                (!o.is_quiet()).then_some((s.id, o))
            })
            .collect(),
        None => BTreeMap::new(),
    };
    let involved: Vec<&ShardSpec> = plan
        .shards
        .iter()
        .filter(|s| lost(s.id) < budget)
        .filter(|s| {
            routed.contains_key(&s.id)
                || crashes.contains_key(&s.id)
                || overlays.contains_key(&s.id)
        })
        .collect();
    let fan = rec.open("service.fanout", Some(ep));
    let outcomes: Vec<Result<ShardResult, String>> = involved
        .par_iter()
        .map(|shard| {
            traced_shard(
                spec,
                shard,
                epoch,
                routed.get(&shard.id).copied().unwrap_or(0),
                crashes.get(&shard.id).cloned().unwrap_or_default(),
                lost(shard.id),
                overlays.get(&shard.id),
                0,
                rec,
                fan,
            )
        })
        .collect();
    rec.close(fan);
    let mut shards = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    let detected_now: BTreeMap<ShardId, usize> = shards
        .iter()
        .map(|s| (s.counts.shard, s.detected))
        .collect();
    let now_lost = |sid: ShardId| lost(sid) + detected_now.get(&sid).copied().unwrap_or(0);
    let stranded: u64 = shards
        .iter()
        .filter(|s| now_lost(s.counts.shard) >= budget)
        .map(|s| s.counts.ops.saturating_sub(s.counts.completed))
        .sum();
    let donors: Vec<&ShardSpec> = plan
        .shards
        .iter()
        .filter(|s| now_lost(s.id) < budget)
        .collect();
    let mut rescued = 0;
    if stranded > 0 && !donors.is_empty() {
        let mut extra: BTreeMap<ShardId, u64> = BTreeMap::new();
        for k in 0..stranded {
            *extra
                .entry(donors[k as usize % donors.len()].id)
                .or_insert(0) += 1;
        }
        let targets: Vec<&ShardSpec> = donors
            .iter()
            .copied()
            .filter(|s| extra.contains_key(&s.id))
            .collect();
        let fan = rec.open("service.fanout", Some(ep));
        let rescues: Vec<Result<ShardResult, String>> = targets
            .par_iter()
            .map(|shard| {
                traced_shard(
                    spec,
                    shard,
                    epoch,
                    extra[&shard.id],
                    Vec::new(),
                    lost(shard.id),
                    None,
                    RESCUE_SALT,
                    rec,
                    fan,
                )
            })
            .collect();
        rec.close(fan);
        shards.extend(rescues.into_iter().collect::<Result<Vec<_>, _>>()?);
        rescued = stranded;
    }
    Ok((shards, rescued))
}

/// One shard run of the replica, mirroring the service's shard runner
/// and its per-shard summary.
#[allow(clippy::too_many_arguments)]
fn traced_shard(
    spec: &ServiceSpec,
    shard: &ShardSpec,
    epoch: u64,
    ops: u64,
    crashes: Vec<(usize, u64)>,
    dead: usize,
    overlay: Option<&ShardChaos>,
    salt: u64,
    rec: &Recorder,
    fan: SpanId,
) -> Result<ShardResult, String> {
    let run = rec.open("service.shard_run", Some(fan));
    let n = shard.n() - dead.min(shard.n());
    let t = shard.t - dead.min(shard.t);
    let mut cluster = ClusterSpec::new(n, t)
        .seed(spec.seed ^ (0xE11 * (epoch + 1) + shard.id as u64) ^ salt)
        .batched(spec.batch)
        .max_time(spec.max_time);
    if let Some(hb) = spec.heartbeat {
        cluster = cluster.heartbeat(hb);
    }
    let monitor = spec.certify_online.then(|| SfsMonitor::new(n));
    let sink = monitor.as_ref().map(|m| {
        Arc::new(TimedSink {
            inner: m.handle(),
            clock: Clock::default(),
        })
    });
    if let Some(s) = &sink {
        cluster = cluster.event_sink(EventSinkHandle::new(s.clone()));
    }
    let obs = spec.watermarks.then(|| {
        let recorder = FlightRecorder::new(512);
        let wm = AnomalyWatermarks::with_flight(
            &format!("shard{}-epoch{epoch}", shard.id),
            recorder.clone(),
        );
        Arc::new(TimedObs {
            inner: sfs_obs::fanout(vec![recorder.handle(), wm.handle()]),
            clock: Clock::default(),
        })
    });
    if let Some(o) = &obs {
        cluster = cluster.observe(ObsHandle::new(o.clone()));
    }
    for &(local, tick) in &crashes {
        cluster = cluster.crash(ProcessId::new(local), tick.max(1));
    }
    if let Some(o) = overlay {
        for &(rank, tick) in &o.crashes {
            if rank < n {
                cluster = cluster.crash(ProcessId::new(n - 1 - rank), tick.max(1));
            }
        }
    }
    let net = spec.net.clone().map(|mut net| {
        if let Some(o) = overlay {
            let pairs: Vec<(ProcessId, ProcessId)> = (1..n)
                .map(|j| (ProcessId::new(0), ProcessId::new(j)))
                .collect();
            let vt = VirtualTime::from_ticks;
            for &(from, until) in &o.flaps {
                net.partitions = net
                    .partitions
                    .clone()
                    .cut_links(vt(from), vt(until), &pairs);
            }
            if let Some((from, until, extra)) = o.storm {
                net.storms = net
                    .storms
                    .clone()
                    .surge_links(vt(from), vt(until), &pairs, extra);
            }
        }
        net
    });
    let profile = LoadProfile {
        mode: spec.load.mode,
        ops,
    };
    let app_clock = Arc::new(Clock::default());
    let make = {
        let clock = app_clock.clone();
        move |_: ProcessId| TimedApp {
            inner: LoadGenApp::new(profile),
            clock: clock.clone(),
        }
    };
    let ledger = Arc::new(Ledger::default());
    let mut layers = ShardLayers::default();
    let core = rec.open("core.run", Some(run));
    let trace = match (&net, spec.backend) {
        (None, Backend::Sim) => bare_sim(&cluster, ledger.clone(), make)?.run(),
        (None, Backend::Threaded) => {
            let settle = Duration::from_millis(spec.settle_ms);
            let rt = rec.time("asys.net.spawn", Some(core), || {
                spawn_threaded(&cluster, ledger.clone(), make)
            })?;
            layers.threads = process_threads();
            rec.time("asys.net.drain", Some(core), || rt.drain(settle));
            rec.time("asys.net.shutdown", Some(core), || rt.shutdown())
        }
        (Some(net), Backend::Sim) => {
            let l = ledger.clone();
            cluster
                .net(net.clone())
                .try_build_net_with(
                    move |b| {
                        b.measure(move |f| {
                            l.frame(f);
                            0
                        })
                    },
                    make,
                )
                .map_err(err)?
                .run()
        }
        (Some(_), Backend::Threaded) => {
            return Err("transport-backed threaded shards are not benchmarked".into())
        }
    };
    layers.app_ns = app_clock.ns();
    if let Some(s) = &sink {
        layers.monitor_ns = s.clock.ns();
        layers.monitor_events = s.clock.calls();
    }
    if let Some(o) = &obs {
        layers.obs_ns = o.clock.ns();
        layers.obs_samples = o.clock.calls();
    }
    // On the simulator the callbacks run inside this span, one at a
    // time, so their time is packed under it. On the threaded runtime
    // they run on node and router threads concurrently with each other;
    // packing them would claim more than the span's wall time.
    if spec.backend == Backend::Sim {
        rec.pack(core, "service.load", layers.app_ns);
        rec.pack(core, "obs.monitor", layers.monitor_ns);
        rec.pack(core, "obs.watermarks", layers.obs_ns);
    }
    rec.close(core);
    let load = rec.time("service.summarize", Some(run), || {
        let load = analyze_load(&trace);
        Registry::for_shard(spec.backend.to_string(), shard.id as u32).ingest_trace(&trace);
        load
    });
    layers.certified = monitor.is_some_and(|m| m.finish(true).all_ok());
    rec.close(run);

    let stats = trace.stats();
    let retx: u64 = trace
        .notes_with_key(NOTE_RETX)
        .filter_map(|(_, _, note)| match note {
            Note::KeyVal { val, .. } => val.parse::<u64>().ok(),
            _ => None,
        })
        .sum();
    layers.ledger = ledger.counts(retx);
    layers
        .ledger
        .check(stats.messages_sent, net.is_some())
        .map_err(|e| format!("shard {} epoch {epoch}: {e}", shard.id))?;
    layers.batches = stats.delivery_batches;
    if let Some(done) = load.last_done {
        layers.horizon_ticks = spec.max_time;
        layers.idle_ticks = spec.max_time.saturating_sub(done.ticks());
    }
    layers.false_suspicions = false_suspicions(&trace);
    let (detect_latencies, detected) = detections(&trace);
    Ok(ShardResult {
        counts: ShardCounts {
            shard: shard.id,
            n,
            ops,
            events: trace.events().len() as u64,
            sent: stats.messages_sent,
            crashes: stats.crashes,
            detections: stats.detections,
            completed: load.completed,
        },
        detected,
        op_latencies: load.op_latencies,
        detect_latencies,
        layers,
    })
}

/// Crash→detection latencies (one per detector per crash) and the
/// number of distinct processes detected, as the service summarizes.
fn detections(trace: &Trace) -> (Vec<u64>, usize) {
    let mut crash_at: BTreeMap<usize, u64> = BTreeMap::new();
    let mut latencies = Vec::new();
    for e in trace.events() {
        match e.kind {
            TraceEventKind::Crash { pid } => {
                crash_at.entry(pid.index()).or_insert(e.time.ticks());
            }
            TraceEventKind::Failed { of, .. } => {
                if let Some(&c) = crash_at.get(&of.index()) {
                    latencies.push(e.time.ticks().saturating_sub(c));
                }
            }
            _ => {}
        }
    }
    let detected: BTreeSet<ProcessId> = trace.detections().into_iter().map(|(_, of)| of).collect();
    (latencies, detected.len())
}

/// Probe suspicions whose target had not crashed when the prober
/// annotated them (trace order is causal).
fn false_suspicions(trace: &Trace) -> u64 {
    let mut crashed: BTreeSet<usize> = BTreeSet::new();
    let mut count = 0;
    for e in trace.events() {
        match &e.kind {
            TraceEventKind::Crash { pid } => {
                crashed.insert(pid.index());
            }
            TraceEventKind::Note {
                note: Note::KeyVal { key, val },
                ..
            } if key == NOTE_PROBE_SUSPECT => {
                let target = val.strip_prefix('p').and_then(|v| v.parse::<usize>().ok());
                if target.is_none_or(|g| !crashed.contains(&g)) {
                    count += 1;
                }
            }
            _ => {}
        }
    }
    count
}

/// The protocol configuration a bare `ClusterSpec` gives each process.
fn sfs_config(c: &ClusterSpec) -> Result<SfsConfig, String> {
    if c.mode != ModeSpec::SfsOneRound || !c.suspicions.is_empty() {
        return Err("service shards run the one-round protocol with crashes only".into());
    }
    Ok(SfsConfig::new(c.n, c.t)
        .quorum(c.quorum)
        .heartbeat(c.heartbeat)
        .gate_app_messages(c.gate_app_messages)
        .crash_on_own_obituary(c.crash_on_own_obituary))
}

fn fault_plan<M: Clone>(c: &ClusterSpec) -> FaultPlan<M> {
    c.crashes
        .iter()
        .fold(FaultPlan::new(), |plan, &(victim, at)| {
            plan.crash_at(victim, VirtualTime::from_ticks(at))
        })
}

type ShardMsg = SfsMsg<LoadMsg>;

/// The bare simulator a `ClusterSpec` builds for `try_run_apps`, plus a
/// ledger measure.
fn bare_sim(
    c: &ClusterSpec,
    ledger: Arc<Ledger>,
    mut make: impl FnMut(ProcessId) -> TimedApp<LoadGenApp>,
) -> Result<Sim<ShardMsg>, String> {
    c.validate().map_err(err)?;
    let config = sfs_config(c)?;
    let mut b = Sim::<ShardMsg>::builder(c.n)
        .seed(c.seed)
        .max_time(c.max_time)
        .max_events(c.max_events)
        .batch_deliveries(c.batch)
        .link(UniformLatency::try_new(c.latency.0, c.latency.1).map_err(err)?)
        .classify(|m: &ShardMsg| !m.is_app())
        .faults(fault_plan(c))
        .measure(move |m: &ShardMsg| {
            ledger.sfs(m);
            0
        });
    if let Some(o) = &c.obs {
        b = b.observe(o.clone());
    }
    if let Some(s) = &c.sink {
        b = b.event_sink(s.clone());
    }
    Ok(b.build(|pid| {
        Box::new(SfsProcess::new(config.clone(), make(pid)).expect("validated shape"))
            as Box<dyn Process<ShardMsg>>
    }))
}

/// The threaded runtime a `ClusterSpec` spawns for `try_run_threaded`,
/// plus a ledger measure.
fn spawn_threaded(
    c: &ClusterSpec,
    ledger: Arc<Ledger>,
    mut make: impl FnMut(ProcessId) -> TimedApp<LoadGenApp>,
) -> Result<Runtime<ShardMsg>, String> {
    c.validate().map_err(err)?;
    let config = sfs_config(c)?;
    let rc = RuntimeConfig {
        seed: c.seed,
        classify: Some(Box::new(|m: &ShardMsg| !m.is_app())),
        measure: Some(Box::new(move |m: &ShardMsg| {
            ledger.sfs(m);
            0
        })),
        obs: c.obs.clone(),
        sink: c.sink.clone(),
        registry: Some(CrashRegistry::new(c.n)),
        batch: c.batch,
        faults: fault_plan(c),
        max_time: c.max_time,
        max_events: c.max_events,
        ..RuntimeConfig::default()
    };
    Ok(Runtime::spawn(c.n, rc, move |pid| {
        Box::new(SfsProcess::new(config.clone(), make(pid)).expect("validated shape"))
            as Box<dyn Process<ShardMsg> + Send>
    }))
}

/// Threads of this process, from `/proc/self/status` (0 if unreadable).
fn process_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deployment of each shape: the replica reproduces the
    /// service's exact counts, and the ledger balances on every shard.
    #[test]
    fn replica_reproduces_the_service() {
        let specs = [e11_shape(64, Backend::Sim, false, 3), soak_shape(64, 5)];
        for spec in specs {
            let timed = timed(&spec).unwrap();
            let rec = Recorder::new();
            let traced = traced(&spec, &rec).unwrap();
            assert_eq!(traced.exact, timed.exact);
            assert_eq!(timed.certified, timed.shard_runs);
            assert!(traced.layers.iter().all(|l| l.certified));
        }
    }
}
