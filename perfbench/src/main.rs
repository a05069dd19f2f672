//! The repository's benchmark: four workloads over the sFS service, its
//! transport, the threaded runtime and the schedule explorer.
//!
//! ```text
//! sfs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs untraced, repeatedly, for the
//! given seconds, and the result line carries the end-to-end metrics.
//! With `--trace 1` each untraced run is followed by a traced replica
//! that records spans at every layer boundary, and the result line
//! carries the per-layer metrics. Both modes print every metric they
//! measure by name and unit on the lines before the result line, run
//! every correctness check, and exit nonzero when one fails.

mod explore;
mod ledger;
mod report;
mod service;
mod spans;
mod stats;

use report::Report;
use service::{Exact, Timed, TracedRun};
use sfs_service::{Backend, ServiceSpec};
use spans::{Recorder, Span};
use stats::{median, percentile, tail, Tail, UNSERVED};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["serve-sim", "soak-net", "serve-threaded", "explore-bounded"];

/// Set-up repetitions before each run; `setup_s` is the median of all.
const SETUP_REPS: usize = 5;

/// Every per-layer metric, with its unit. A workload that does not
/// exercise a layer reports it as 0 (and says so in a note).
const LAYERS: [(&str, &str); 35] = [
    ("service.plan_ms", "ms"),
    ("chaos.plan_ms", "ms"),
    ("service.shard_run_ms.p50", "ms"),
    ("service.shard_run_ms.p90", "ms"),
    ("service.fanout_wait_frac", "fraction"),
    ("service.summarize_ns_per_event", "ns/event"),
    ("service.load_ns_per_op", "ns/op"),
    ("service.idle_tick_frac", "fraction"),
    ("service.rescued_ops", "ops"),
    ("core.run_ms", "ms"),
    ("core.self_ns_per_event", "ns/event"),
    ("asys.net.spawn_ms", "ms"),
    ("asys.net.drain_ms", "ms"),
    ("asys.net.shutdown_ms", "ms"),
    ("asys.net.events_per_batch", "events/batch"),
    ("asys.net.threads_peak", "threads"),
    ("protocol.msgs.heartbeat", "msgs"),
    ("protocol.msgs.obituary", "msgs"),
    ("protocol.msgs.app", "msgs"),
    ("protocol.obit_msgs_per_detection", "msgs/detection"),
    ("protocol.all_msgs_per_detection", "msgs/detection"),
    ("transport.frames.data", "frames"),
    ("transport.frames.ack", "frames"),
    ("transport.frames.retx", "frames"),
    ("transport.frames.probe", "frames"),
    ("transport.false_suspicions", "suspicions"),
    ("obs.monitor.ns_per_event", "ns/event"),
    ("obs.watermarks.ns_per_sample", "ns/sample"),
    ("explore.executions", "executions"),
    ("explore.ns_per_execution", "ns/execution"),
    ("explore.skipped_frac", "fraction"),
    ("explore.class_yield", "classes/exec"),
    ("history.ns_per_event", "ns/event"),
    ("tlogic.suite_ns_per_event", "ns/event"),
    ("trace.overhead_frac", "fraction"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(&k[2..], v);
            }
            _ => return Err(format!("unexpected arguments: {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing --{k}"));
    let workload = get("workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: sfs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (mut report, spans) = if args.workload == "explore-bounded" {
        explore_workload(&args)
    } else {
        service_workload(&args)
    };
    if let Some(spans) = spans {
        write_spans(&args, &spans, &mut report);
    }
    let header = format!(
        "sfs-perfbench workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pool_threads()
    );
    print!("{}", report.render(&header));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Worker threads of the rayon pool (the vendored pool uses one per
/// available core).
fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// High-water resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the last traced run's spans under `.bench_out/`.
fn write_spans(args: &Args, spans: &[Span], report: &mut Report) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans::to_jsonl(spans)))
    {
        Ok(()) => report.note(format!("spans of the last traced run: {}", path.display())),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}

/// What [`repeat`] measured around the runs.
struct Repeated<T> {
    /// The runs' results, in order.
    runs: Vec<T>,
    /// Median set-up time, CPU seconds per call.
    setup_s: f64,
    /// RSS high-water right after the first run, MiB.
    rss_mb: f64,
    /// CPU seconds the process spent in the runs, all threads.
    cpu_s: f64,
}

/// Runs `unit` until `seconds` have passed, at least twice, with
/// [`SETUP_REPS`] calls of `setup` before each, timed together in the
/// calling thread's CPU time, which time stolen by the hypervisor does
/// not inflate. The RSS high-water is read after the first run: what one
/// run of the workload needs in a fresh process.
fn repeat<T, S>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut unit: impl FnMut() -> Result<T, String>,
) -> Result<Repeated<T>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut runs = Vec::new();
    let mut setups = Vec::new();
    let mut rss_mb = 0.0;
    let mut cpu_s = 0.0;
    while runs.len() < 2 || Instant::now() < deadline {
        let t = thread_cpu_s();
        for _ in 0..SETUP_REPS {
            std::hint::black_box(setup()?);
        }
        setups.push((thread_cpu_s() - t) / SETUP_REPS as f64);
        let cpu = process_cpu_s();
        runs.push(unit()?);
        cpu_s += process_cpu_s() - cpu;
        if runs.len() == 1 {
            rss_mb = peak_rss_mb();
        }
    }
    Ok(Repeated {
        runs,
        setup_s: median(&setups).expect("at least two runs"),
        rss_mb,
        cpu_s,
    })
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of `clock` in seconds (0 if the clock is unavailable).
fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, declared with its
    // Linux signature; `ts` is a valid, writable `struct timespec` for
    // the duration of the call, and the call retains no pointer to it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU seconds this process has used, all threads, live and exited
/// (`CLOCK_PROCESS_CPUTIME_ID`).
fn process_cpu_s() -> f64 {
    cpu_clock(2)
}

/// CPU seconds the calling thread has used (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_s() -> f64 {
    cpu_clock(3)
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Work per wall second over all runs: `per_run` units of work done in
/// each run, over the summed wall time. On a shared machine, interference
/// from other processes comes in phases of seconds that slow whole
/// stretches of runs; summing averages them over the whole measurement,
/// where a median of per-run rates would jump between the fast and the
/// slow phase.
fn rate(per_run: f64, walls: &[f64]) -> f64 {
    ratio(per_run * walls.len() as f64, walls.iter().sum())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The end-to-end metrics every workload has: on the result line
/// untraced, on the report lines when tracing. `events` is the trace
/// events of one run, `walls` the runs' wall times.
///
/// The gated throughput is per CPU second: the kernel does not charge
/// the process for time the hypervisor steals, which on a shared host
/// swings wall-clock rates by a factor of two within minutes. The wall
/// rate a client would see is reported beside it.
fn headline<T>(r: &mut Report, args: &Args, events: f64, walls: &[f64], rep: &Repeated<T>) {
    if args.trace {
        r.note("events_per_cpu_s omitted: the traced runs share the process's CPU time");
        r.info("setup_s", "s", rep.setup_s);
        r.info("peak_rss_mb", "MiB", rep.rss_mb);
    } else {
        let per_cpu_s = ratio(events * walls.len() as f64, rep.cpu_s);
        r.gate("events_per_cpu_s", "events/cpu-s", per_cpu_s);
        r.gate("setup_s", "s", rep.setup_s);
        r.gate("peak_rss_mb", "MiB", rep.rss_mb);
    }
    r.info("events_per_s", "events/s", rate(events, walls));
}

/// Reports a tick distribution's median and tail, or why not.
fn tick_metrics(
    r: &mut Report,
    sorted: &[u64],
    p50: &'static str,
    tail_name: &'static str,
    also_p99: Option<&'static str>,
) {
    match percentile(sorted, 50.0) {
        Some(v) if v != UNSERVED => r.info(p50, "ticks", v as f64),
        Some(_) => r.note(format!("{p50} omitted: the median op was never served")),
        None => r.note(format!("{p50} omitted: no samples")),
    }
    match tail(sorted) {
        Some(Tail {
            value, percentile, ..
        }) if value == UNSERVED => r.note(format!(
            "{tail_name} omitted: p{percentile} falls on an unserved op"
        )),
        Some(t) => {
            r.info(tail_name, "ticks", t.value as f64);
            r.note(format!(
                "{tail_name} is p{} of {} samples ({} beyond it)",
                t.percentile, t.samples, t.beyond
            ));
            if let Some(name) = also_p99 {
                if t.percentile >= 99.0 {
                    let v = percentile(sorted, 99.0).expect("nonempty");
                    r.info(name, "ticks", v as f64);
                } else {
                    r.note(format!(
                        "{name} omitted: {} samples leave fewer than 10 beyond p99",
                        t.samples
                    ));
                }
            }
        }
        None => r.note(format!(
            "{tail_name} omitted: {} samples, fewer than 20",
            sorted.len()
        )),
    }
}

/// Notes the run wall times behind a rate: their quartiles and tail.
fn wall_note(r: &mut Report, name: &str, samples: &[f64]) {
    let mut ns: Vec<u64> = samples.iter().map(|s| (s * 1e9) as u64).collect();
    ns.sort_unstable();
    let q = |p: f64| percentile(&ns, p).unwrap_or(0) as f64 / 1e9;
    let spread = format!(
        "run wall min {:.4} s, p25 {:.4} s, p50 {:.4} s, p75 {:.4} s, max {:.4} s",
        q(0.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(100.0)
    );
    match tail(&ns) {
        Some(t) => r.note(format!(
            "{name}: over {} runs; {spread}; tail p{} {:.4} s",
            t.samples,
            t.percentile,
            t.value as f64 / 1e9
        )),
        None => r.note(format!(
            "{name}: over {} runs (too few for a tail); {spread}",
            ns.len()
        )),
    }
}

/// Fills the result line with every per-layer metric.
fn gate_layers(r: &mut Report, measured: &BTreeMap<&'static str, f64>) {
    let mut absent = Vec::new();
    for (name, unit) in LAYERS {
        let v = measured.get(name).copied().unwrap_or_else(|| {
            absent.push(name);
            0.0
        });
        r.gate(name, unit, v);
    }
    if !absent.is_empty() {
        r.note(format!(
            "0, not exercised by this workload: {}",
            absent.join(", ")
        ));
    }
}

// ---- service workloads ----------------------------------------------------

/// One traced service run and its spans.
type TracedUnit = (TracedRun, Vec<Span>);

fn service_spec(args: &Args) -> ServiceSpec {
    match args.workload.as_str() {
        "serve-sim" => service::serve_sim(args.seed),
        "soak-net" => service::soak_net(args.seed),
        _ => service::serve_threaded(args.seed),
    }
}

fn service_workload(args: &Args) -> (Report, Option<Vec<Span>>) {
    let mut r = Report::default();
    let spec = service_spec(args);
    let repeated = repeat(
        args.seconds,
        || service::setup(&spec),
        || {
            let timed = service::timed(&spec)?;
            let traced = if args.trace {
                let rec = Recorder::new();
                let run = service::traced(&spec, &rec)?;
                Some((run, rec.finish()))
            } else {
                None
            };
            Ok((timed, traced))
        },
    );
    let mut repeated = match repeated {
        Ok(u) => u,
        Err(e) => {
            r.fail(format!("service run: {e}"));
            return (r, None);
        }
    };
    let (timed, traced): (Vec<Timed>, Vec<Option<TracedUnit>>) =
        std::mem::take(&mut repeated.runs).into_iter().unzip();
    let traced: Vec<TracedUnit> = traced.into_iter().flatten().collect();
    check_service(&mut r, &spec, &timed, &traced);
    let walls: Vec<f64> = timed.iter().map(|u| u.wall_s).collect();
    let events = timed[0].exact.events() as f64;
    headline(&mut r, args, events, &walls, &repeated);
    service_metrics(&mut r, &spec, &timed);
    if args.trace {
        let layers = service_layers(&spec, &timed, &traced);
        gate_layers(&mut r, &layers);
    }
    let spans = traced.into_iter().last().map(|(_, s)| s);
    (r, spans)
}

fn check_service(r: &mut Report, spec: &ServiceSpec, timed: &[Timed], traced: &[TracedUnit]) {
    let requested = service::requested(spec);
    let base: Exact = timed[0].exact.repeatable(spec.backend);
    for (k, u) in timed.iter().enumerate() {
        if u.exact.repeatable(spec.backend) != base {
            r.fail(format!(
                "run {k}: exact counts differ from run 0 of the same seed"
            ));
        }
        let completed = u.completed;
        r.attempted += requested;
        r.failed += requested.saturating_sub(completed);
        if completed != requested {
            r.fail(format!(
                "run {k}: {completed} of {requested} requested ops completed"
            ));
        }
        let (runs, ok) = (u.shard_runs, u.certified);
        if ok != runs {
            r.fail(format!(
                "run {k}: {ok} of {runs} shard runs certified online"
            ));
        }
    }
    // Messages by kind come from the traced runs only; on the simulator
    // they repeat exactly, shard run by shard run.
    let kinds = |run: &TracedRun| run.layers.iter().map(|l| l.ledger).collect::<Vec<_>>();
    for (k, (run, spans)) in traced.iter().enumerate() {
        if spec.backend == Backend::Sim && kinds(run) != kinds(&traced[0].0) {
            r.fail(format!(
                "traced run {k}: messages by kind differ from traced run 0"
            ));
        }
        if run.exact.repeatable(spec.backend) != base {
            r.fail(format!(
                "traced run {k}: exact counts differ from the timed run"
            ));
        }
        if run.layers.iter().any(|l| !l.certified) {
            r.fail(format!(
                "traced run {k}: a shard run failed online certification"
            ));
        }
        for (i, s) in spans.iter().enumerate() {
            if s.name == "service.shard_run" && !spans::accounts_for(spans, i) {
                r.fail(format!(
                    "traced run {k}: self times do not add up under span {i}"
                ));
            }
        }
    }
}

fn service_metrics(r: &mut Report, spec: &ServiceSpec, timed: &[Timed]) {
    let walls: Vec<f64> = timed.iter().map(|u| u.wall_s).collect();
    let first = &timed[0];
    let exact = &first.exact;
    let completed = first.completed as f64;
    let requested = service::requested(spec);
    r.info("ops_per_s", "ops/s", rate(completed, &walls));
    wall_note(r, "events_per_s and ops_per_s", &walls);
    if spec.backend == Backend::Threaded {
        r.note(
            "op_p50_ticks, op_p99_ticks, op_tail_ticks omitted: zero-delay links on the \
             threaded runtime complete every op within one virtual instant (a degenerate 0)",
        );
    } else {
        let ops = stats::over_requested(exact.op_latencies.clone(), requested);
        tick_metrics(
            r,
            &ops,
            "op_p50_ticks",
            "op_tail_ticks",
            Some("op_p99_ticks"),
        );
    }
    tick_metrics(
        r,
        &exact.detect_latencies,
        "detect_p50_ticks",
        "detect_tail_ticks",
        None,
    );
    r.info(
        "msgs_per_op",
        "msgs/op",
        ratio(first.messages as f64, completed),
    );
    if spec.chaos.is_some() {
        let kills: u64 = exact.shards.iter().map(|s| s.crashes).sum();
        r.info("kills_per_run", "processes", kills as f64);
    }
    let unserved: u64 = timed
        .iter()
        .map(|u| requested.saturating_sub(u.completed))
        .sum();
    r.info(
        "ops_unserved_frac",
        "fraction",
        ratio(unserved as f64, (requested * timed.len() as u64) as f64),
    );
    let (runs, ok) = timed
        .iter()
        .map(|u| (u.shard_runs, u.certified))
        .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
    r.info(
        "cert_fail_frac",
        "fraction",
        ratio((runs - ok) as f64, runs as f64),
    );
    r.note(format!(
        "exact counts per run: {} events, {} messages, {} shard runs, {} detections",
        exact.events(),
        first.messages,
        exact.shards.len(),
        first.detections
    ));
}

fn service_layers(
    spec: &ServiceSpec,
    timed: &[Timed],
    traced: &[TracedUnit],
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let ms = |ns: u64| ns as f64 / 1e6;
    let total = |spans: &[Span], name: &str| -> u64 {
        spans.iter().filter(|s| s.name == name).map(Span::dur).sum()
    };
    let per_unit = |name: &str| med(traced.iter().map(|(_, s)| ms(total(s, name))));
    let all_layers = || traced.iter().flat_map(|(run, _)| &run.layers);
    let events: u64 = traced.iter().map(|(run, _)| run.exact.events()).sum();
    let completed: u64 = traced
        .iter()
        .flat_map(|(run, _)| &run.exact.shards)
        .map(|s| s.completed)
        .sum();

    m.insert("service.plan_ms", per_unit("service.plan"));
    let mut shard_ns: Vec<u64> = traced
        .iter()
        .flat_map(|(_, s)| {
            s.iter()
                .filter(|s| s.name == "service.shard_run")
                .map(Span::dur)
        })
        .collect();
    shard_ns.sort_unstable();
    m.insert(
        "service.shard_run_ms.p50",
        ms(percentile(&shard_ns, 50.0).unwrap_or(0)),
    );
    m.insert(
        "service.shard_run_ms.p90",
        ms(percentile(&shard_ns, 90.0).unwrap_or(0)),
    );
    let (mut idle, mut cap) = (0, 0);
    for (_, spans) in traced {
        for (i, s) in spans.iter().enumerate() {
            if s.name == "service.fanout" {
                let kids = spans.iter().filter(|c| c.parent == Some(i)).count();
                let (a, b) = spans::fanout_idle(spans, i, pool_threads().min(kids).max(1));
                idle += a;
                cap += b;
            }
        }
    }
    m.insert("service.fanout_wait_frac", ratio(idle as f64, cap as f64));
    let summarize: u64 = traced
        .iter()
        .map(|(_, s)| total(s, "service.summarize"))
        .sum();
    m.insert(
        "service.summarize_ns_per_event",
        ratio(summarize as f64, events as f64),
    );
    let app: u64 = all_layers().map(|l| l.app_ns).sum();
    m.insert(
        "service.load_ns_per_op",
        ratio(app as f64, completed as f64),
    );
    let first = &traced[0].0;
    let idle_ticks: u64 = first.layers.iter().map(|l| l.idle_ticks).sum();
    let horizon: u64 = first.layers.iter().map(|l| l.horizon_ticks).sum();
    m.insert(
        "service.idle_tick_frac",
        ratio(idle_ticks as f64, horizon as f64),
    );
    m.insert("service.rescued_ops", first.exact.rescued as f64);

    m.insert("core.run_ms", per_unit("core.run"));
    let core: u64 = traced.iter().map(|(_, s)| total(s, "core.run")).sum();
    let callbacks: u64 = all_layers()
        .map(|l| l.app_ns + l.monitor_ns + l.obs_ns)
        .sum();
    m.insert(
        "core.self_ns_per_event",
        ratio(core.saturating_sub(callbacks) as f64, events as f64),
    );

    let ledger = |f: fn(&ledger::LedgerCounts) -> u64| {
        med(traced
            .iter()
            .map(|(run, _)| run.layers.iter().map(|l| f(&l.ledger)).sum::<u64>() as f64))
    };
    m.insert("protocol.msgs.heartbeat", ledger(|l| l.heartbeat));
    m.insert("protocol.msgs.obituary", ledger(|l| l.obituary));
    m.insert("protocol.msgs.app", ledger(|l| l.app));
    let detections: u64 = first.exact.shards.iter().map(|s| s.detections).sum();
    m.insert(
        "protocol.obit_msgs_per_detection",
        ratio(ledger(|l| l.obituary), detections as f64),
    );
    m.insert(
        "protocol.all_msgs_per_detection",
        ratio(timed[0].messages as f64, timed[0].detections as f64),
    );
    m.insert("obs.monitor.ns_per_event", {
        let ns: u64 = all_layers().map(|l| l.monitor_ns).sum();
        let ev: u64 = all_layers().map(|l| l.monitor_events).sum();
        ratio(ns as f64, ev as f64)
    });
    m.insert(
        "trace.overhead_frac",
        ratio(
            med(traced.iter().map(|(run, _)| run.wall_s)),
            med(timed.iter().map(|u| u.wall_s)),
        ) - 1.0,
    );
    if spec.chaos.is_some() {
        m.insert("chaos.plan_ms", per_unit("chaos.plan"));
    }
    if spec.net.is_some() {
        m.insert("transport.frames.data", ledger(|l| l.data));
        m.insert("transport.frames.ack", ledger(|l| l.ack));
        m.insert("transport.frames.retx", ledger(|l| l.retx));
        m.insert("transport.frames.probe", ledger(|l| l.probe));
        let fs: u64 = first.layers.iter().map(|l| l.false_suspicions).sum();
        m.insert("transport.false_suspicions", fs as f64);
    }
    if spec.watermarks {
        let ns: u64 = all_layers().map(|l| l.obs_ns).sum();
        let n: u64 = all_layers().map(|l| l.obs_samples).sum();
        m.insert("obs.watermarks.ns_per_sample", ratio(ns as f64, n as f64));
    }
    if spec.backend == Backend::Threaded {
        m.insert("asys.net.spawn_ms", per_unit("asys.net.spawn"));
        m.insert("asys.net.drain_ms", per_unit("asys.net.drain"));
        m.insert("asys.net.shutdown_ms", per_unit("asys.net.shutdown"));
        let batches: u64 = all_layers().map(|l| l.batches).sum();
        m.insert(
            "asys.net.events_per_batch",
            ratio(events as f64, batches as f64),
        );
        let peak = all_layers().map(|l| l.threads).max().unwrap_or(0);
        m.insert("asys.net.threads_peak", peak as f64);
    }
    m
}

// ---- explore-bounded --------------------------------------------------------

fn explore_workload(args: &Args) -> (Report, Option<Vec<Span>>) {
    let mut r = Report::default();
    let sweep = explore::instances(args.seed);
    // The first sweep's outcomes are kept for the checks; later sweeps
    // keep only their counts.
    let mut first = None;
    let mut repeated = repeat(
        args.seconds,
        || Ok(explore::setup(args.seed)),
        || {
            let run = explore::timed(&sweep);
            let timed = (run.wall_s, run.counts());
            first.get_or_insert(run.outcomes);
            let traced = args.trace.then(|| {
                let rec = Recorder::new();
                let (wall, counts, layers) = explore::traced(&sweep, &rec);
                (wall, counts, layers, rec.finish())
            });
            Ok((timed, traced))
        },
    )
    .expect("exploration cannot fail");
    let (timed, traced): (Vec<(f64, Vec<explore::Counts>)>, Vec<_>) =
        std::mem::take(&mut repeated.runs).into_iter().unzip();
    let traced: Vec<_> = traced.into_iter().flatten().collect();

    let base = &timed[0].1;
    let failures = explore::check(&sweep, &first.expect("at least two sweeps"));
    r.attempted = (sweep.len() * timed.len()) as u64;
    r.failed = (failures.len() * timed.len()) as u64;
    for f in &failures {
        r.fail(f.clone());
    }
    for (k, (_, counts)) in timed.iter().enumerate() {
        if counts != base {
            r.fail(format!(
                "sweep {k}: exact counts differ from sweep 0 of the same seed"
            ));
        }
    }
    for (k, (_, counts, _, spans)) in traced.iter().enumerate() {
        if counts != base {
            r.fail(format!(
                "traced sweep {k}: exact counts differ from the timed sweep"
            ));
        }
        for (i, s) in spans.iter().enumerate() {
            if s.name == "explore.instance" && !spans::accounts_for(spans, i) {
                r.fail(format!(
                    "traced sweep {k}: self times do not add up under span {i}"
                ));
            }
        }
    }

    let walls: Vec<f64> = timed.iter().map(|(wall, _)| *wall).collect();
    let events: u64 = base.iter().map(|c| c.events).sum();
    let schedules: usize = base.iter().map(|c| c.schedules).sum();
    headline(&mut r, args, events as f64, &walls, &repeated);
    r.info(
        "execs_per_s",
        "executions/s",
        rate(schedules as f64, &walls),
    );
    wall_note(&mut r, "events_per_s and execs_per_s", &walls);
    r.info(
        "cert_fail_frac",
        "fraction",
        ratio(failures.len() as f64, sweep.len() as f64),
    );
    let within = sweep.iter().filter(|i| i.within_bound).count();
    r.note(format!(
        "exact counts per sweep: {} instances ({within} within the bound), {schedules} executions, {events} events",
        sweep.len()
    ));

    if args.trace {
        let mut m = BTreeMap::new();
        let skipped: u64 = base.iter().map(|c| c.skipped).sum();
        let classes: usize = base.iter().map(|c| c.classes).sum();
        let sum = |f: fn(&explore::Layers) -> u64| -> u64 { traced.iter().map(|t| f(&t.2)).sum() };
        let sweeps = traced.len() as f64;
        let explorer_ns: u64 = traced
            .iter()
            .map(|t| {
                let selfs = spans::self_times(&t.3);
                let instances = t.3.iter().enumerate();
                instances
                    .filter(|(_, s)| s.name == "explore.instance")
                    .map(|(i, _)| selfs[i])
                    .sum::<u64>()
            })
            .sum();
        m.insert("explore.executions", schedules as f64);
        m.insert(
            "explore.ns_per_execution",
            ratio(explorer_ns as f64, schedules as f64 * sweeps),
        );
        m.insert(
            "explore.skipped_frac",
            ratio(skipped as f64, (skipped + schedules as u64) as f64),
        );
        m.insert(
            "explore.class_yield",
            ratio(classes as f64, schedules as f64),
        );
        m.insert(
            "history.ns_per_event",
            ratio(
                sum(|l| l.history_ns) as f64,
                sum(|l| l.history_events) as f64,
            ),
        );
        m.insert(
            "tlogic.suite_ns_per_event",
            ratio(sum(|l| l.tlogic_ns) as f64, sum(|l| l.tlogic_events) as f64),
        );
        m.insert(
            "trace.overhead_frac",
            ratio(med(traced.iter().map(|t| t.0)), med(walls.iter().copied())) - 1.0,
        );
        gate_layers(&mut r, &m);
    }
    let spans = traced.into_iter().last().map(|t| t.3);
    (r, spans)
}
