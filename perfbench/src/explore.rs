//! The `explore-bounded` workload: exhaustive DFS with sleep sets over
//! seeded n = 3, t = 1 instances of the E9 families, some within the
//! failure bound (every property certifies) and some beyond it or
//! ablated (the explorer must find a violation and a witness that
//! replays).
//!
//! The timed run goes through `ExploreInstance::explore`. The traced run
//! calls the explorer's public entry point with a visitor that mirrors
//! the instance's verdict accumulator, timing the history projection,
//! the class fingerprint and the property checks it makes per schedule.

use crate::spans::{Recorder, SpanId};
use sfs::{ClusterSpec, NullApp, SfsMsg};
use sfs_apps::scenarios::{sfs_verdicts, ExploreInstance, ExploreOutcome};
use sfs_asys::{FixedLatency, ProcessId, Sim};
use sfs_explore::{class_fingerprint, explore, ExploreConfig, Pruning, ScheduleRun};
use sfs_history::{rearrange_to_fs, History};
use sfs_tlogic::{properties, Verdict};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Per-schedule depth bound (as in E9).
const MAX_STEPS: usize = 600;
/// Schedule budget per instance, far above what any family needs.
const BUDGET: usize = 100_000;

/// One bounded instance and what exploring it must show.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Family name.
    pub family: &'static str,
    /// The cluster under exploration.
    pub spec: ClusterSpec,
    /// `true`: within the bound, every property must certify. `false`:
    /// beyond the bound (or ablated), some property must be violated.
    pub within_bound: bool,
}

/// SplitMix64: the seed's stream for instance generation.
#[derive(Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, k: u64) -> u64 {
        self.next() % k
    }
}

/// Every relabelling of three processes.
const PERMUTATIONS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// The sweep for `seed`: each E9 family under every relabelling of its
/// three processes, each instance with its own seeded injection ticks.
/// Covering every relabelling keeps the mix of schedule trees — and with
/// it the work per sweep — the same from seed to seed.
pub fn instances(seed: u64) -> Vec<Instance> {
    let mut rng = SplitMix(seed);
    let mut out = Vec::new();
    for perm in PERMUTATIONS {
        let [a, b, c] = perm.map(ProcessId::new);
        let t1 = 5 + rng.below(16);
        let t2 = t1 + rng.below(6);
        let base = || ClusterSpec::new(3, 1).suspect(a, b, t1);
        let mut push = |family, spec, within_bound| {
            out.push(Instance {
                family,
                spec,
                within_bound,
            })
        };
        push("one suspicion", base(), true);
        push("chained suspicions", base().suspect(c, a, t2), false);
        push("mutual suspicion", base().suspect(b, a, t2), false);
        push("suspicion + silent crash", base().crash(c, t2 + 10), false);
        push(
            "ablation: no self-crash",
            base().without_self_crash(),
            false,
        );
    }
    out
}

fn config() -> ExploreConfig {
    ExploreConfig {
        max_steps: MAX_STEPS,
        max_schedules: BUDGET,
        pruning: Pruning::SleepSets,
    }
}

/// A fresh simulator of the instance, as the explorer re-executes it.
fn build(spec: &ClusterSpec) -> Sim<SfsMsg<()>> {
    spec.clone()
        .build_with_latency(FixedLatency(1), |_| NullApp)
}

/// The set-up of one sweep: generating the instances and building each
/// one's simulator once.
pub fn setup(seed: u64) -> Vec<Instance> {
    let sweep = instances(seed);
    for i in &sweep {
        std::hint::black_box(build(&i.spec));
    }
    sweep
}

/// The exact counts of exploring one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Schedules executed.
    pub schedules: usize,
    /// Schedules handed to the visitor.
    pub visited: usize,
    /// Distinct happens-before classes checked.
    pub classes: usize,
    /// Visited schedules whose class was already checked.
    pub deduped: usize,
    /// Trace events over visited schedules.
    pub events: u64,
    /// Interleavings skipped by sleep sets and forced no-op steps.
    pub skipped: u64,
    /// Violating classes per property.
    pub violations: BTreeMap<String, usize>,
    /// Whether the enumeration finished.
    pub complete: bool,
}

fn counts_of(o: &ExploreOutcome) -> Counts {
    Counts {
        schedules: o.stats.schedules,
        visited: o.stats.visited,
        classes: o.classes(),
        deduped: o.deduped,
        events: o.trace_events,
        skipped: o.stats.sleep_skips + o.stats.forced_skips,
        violations: o
            .properties
            .iter()
            .map(|c| (c.property.clone(), c.violations))
            .collect(),
        complete: o.stats.complete,
    }
}

/// One timed sweep.
#[derive(Debug)]
pub struct Sweep {
    /// Wall seconds of the explorations.
    pub wall_s: f64,
    /// Per-instance outcomes, in sweep order.
    pub outcomes: Vec<ExploreOutcome>,
}

/// Explores every instance through `ExploreInstance::explore`, timed.
pub fn timed(sweep: &[Instance]) -> Sweep {
    let start = Instant::now();
    let outcomes = sweep
        .iter()
        .map(|i| {
            let mut inst = ExploreInstance::new(i.spec.clone());
            inst.config = config();
            inst.explore()
        })
        .collect();
    Sweep {
        wall_s: start.elapsed().as_secs_f64(),
        outcomes,
    }
}

impl Sweep {
    /// Exact counts per instance.
    pub fn counts(&self) -> Vec<Counts> {
        self.outcomes.iter().map(counts_of).collect()
    }
}

/// Checks each outcome against its instance's expectation. Beyond-bound
/// witnesses are replayed twice: both replays must be identical, and
/// must violate the witnessed property again. Returns one reason per
/// instance that failed.
pub fn check(sweep: &[Instance], outcomes: &[ExploreOutcome]) -> Vec<String> {
    let mut failures = Vec::new();
    for (inst, out) in sweep.iter().zip(outcomes) {
        let label = format!("{} {:?}", inst.family, inst.spec.suspicions);
        if inst.within_bound {
            if !out.all_certified() {
                failures.push(format!("{label}: within the bound but not certified"));
            }
            continue;
        }
        let Some(cert) = out.properties.iter().find(|c| c.witness.is_some()) else {
            failures.push(format!("{label}: beyond the bound but no witness"));
            continue;
        };
        let witness = cert.witness.as_ref().expect("checked");
        let mut replayer = ExploreInstance::new(inst.spec.clone());
        replayer.config = config();
        let first = replayer.replay(witness);
        let second = replayer.replay(witness);
        if first != second || first.to_pretty_string() != second.to_pretty_string() {
            failures.push(format!("{label}: witness replays differ"));
            continue;
        }
        let complete = first.stop_reason().is_complete();
        let verdict = sfs_verdicts(&first, complete)
            .into_iter()
            .find(|(p, _)| *p == cert.property)
            .map(|(_, v)| v);
        if verdict != Some(Verdict::Violated) {
            failures.push(format!(
                "{label}: witness for {} replays to {verdict:?}",
                cert.property
            ));
        }
    }
    failures
}

/// What the traced sweep measured.
#[derive(Debug, Default)]
pub struct Layers {
    /// History projection ns (every visited schedule).
    pub history_ns: u64,
    /// Events projected.
    pub history_events: u64,
    /// Property-suite ns (every checked class).
    pub tlogic_ns: u64,
    /// Events of the checked classes.
    pub tlogic_events: u64,
}

/// Explores the sweep through the explorer's entry point, recording one
/// span per instance with the visitor's work packed under it, so the
/// span's self time is the explorer's own. Returns the exact counts, to
/// compare with the timed sweep, and the per-layer totals.
pub fn traced(sweep: &[Instance], rec: &Recorder) -> (f64, Vec<Counts>, Layers) {
    let start = Instant::now();
    let root = rec.open("explore.sweep", None);
    let mut layers = Layers::default();
    let mut counts = Vec::new();
    for inst in sweep {
        let span = rec.open("explore.instance", Some(root));
        let mut v = Visitor::default();
        let stats = explore(&config(), || build(&inst.spec), |run| v.ingest(&run));
        pack(rec, span, &v);
        rec.close(span);
        layers.history_ns += v.history_ns;
        layers.history_events += v.events;
        layers.tlogic_ns += v.tlogic_ns;
        layers.tlogic_events += v.checked_events;
        counts.push(Counts {
            schedules: stats.schedules,
            visited: stats.visited,
            classes: v.seen.len(),
            deduped: v.deduped,
            events: v.events,
            skipped: stats.sleep_skips + stats.forced_skips,
            violations: v.violations,
            complete: stats.complete,
        });
    }
    rec.close(root);
    (start.elapsed().as_secs_f64(), counts, layers)
}

fn pack(rec: &Recorder, span: SpanId, v: &Visitor) {
    rec.pack(span, "history.project", v.history_ns);
    rec.pack(span, "explore.fingerprint", v.fingerprint_ns);
    rec.pack(span, "tlogic.suite", v.tlogic_ns);
    rec.pack(span, "history.rearrange", v.rearrange_ns);
}

/// Mirrors the instance's verdict accumulator: project, fingerprint,
/// skip classes already checked, then run the sFS suite and the
/// Theorem 5 rearrangement.
#[derive(Debug, Default)]
struct Visitor {
    seen: HashSet<u64>,
    deduped: usize,
    events: u64,
    checked_events: u64,
    violations: BTreeMap<String, usize>,
    history_ns: u64,
    fingerprint_ns: u64,
    tlogic_ns: u64,
    rearrange_ns: u64,
}

fn lap(t: &mut Instant) -> u64 {
    let ns = t.elapsed().as_nanos() as u64;
    *t = Instant::now();
    ns
}

impl Visitor {
    fn ingest(&mut self, run: &ScheduleRun) {
        let events = run.trace.events().len() as u64;
        self.events += events;
        let mut t = Instant::now();
        let h = History::from_trace(&run.trace);
        self.history_ns += lap(&mut t);
        let fp = class_fingerprint(&h);
        self.fingerprint_ns += lap(&mut t);
        if !self.seen.insert(fp) {
            self.deduped += 1;
            return;
        }
        self.checked_events += events;
        let complete = run.trace.stop_reason().is_complete();
        let reports = properties::check_sfs_suite(&h, complete);
        self.tlogic_ns += lap(&mut t);
        let theorem5 = match rearrange_to_fs(&h.complete_missing_crashes()) {
            Ok(_) => Verdict::Holds,
            Err(_) => Verdict::Violated,
        };
        self.rearrange_ns += lap(&mut t);
        let verdicts = reports
            .into_iter()
            .map(|r| (r.property, r.verdict))
            .chain([("Theorem5", theorem5)]);
        for (property, verdict) in verdicts {
            *self.violations.entry(property.to_owned()).or_insert(0) +=
                usize::from(verdict == Verdict::Violated);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_a_function_of_the_seed() {
        let a = instances(7);
        let b = instances(7);
        assert_eq!(a.len(), 5 * PERMUTATIONS.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec.suspicions, y.spec.suspicions);
            assert_eq!(x.spec.crashes, y.spec.crashes);
        }
        assert!(a.iter().any(|i| i.within_bound) && a.iter().any(|i| !i.within_bound));
    }

    #[test]
    fn sweep_meets_expectations_and_the_trace_reproduces_it() {
        let sweep = instances(3);
        let timed = timed(&sweep);
        assert_eq!(check(&sweep, &timed.outcomes), Vec::<String>::new());
        let (_, counts, layers) = traced(&sweep, &Recorder::new());
        assert_eq!(counts, timed.counts());
        assert!(layers.history_events > 0);
    }
}
