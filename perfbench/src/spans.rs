//! In-memory span recording for the traced run.
//!
//! A span is one call across a layer boundary, timed from the
//! benchmark's own code: its name, start, end, parent span, and the
//! thread it ran on. Calls too frequent to record one by one (an
//! application callback, one monitored trace event) are *packed*: their
//! summed duration is attached to the enclosing span as a child whose
//! interval is not recorded. Spans stay in memory until the run ends.
//!
//! A span's self time is its duration minus the part its children
//! cover: the union of its recorded children's intervals (children on
//! different rayon workers may overlap each other), plus its packed
//! child time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A small dense id for the calling thread.
pub fn thread_id() -> u64 {
    THREAD.with(|t| *t)
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Thread the span ran on (see [`thread_id`]).
    pub thread: u64,
    /// Start, nanoseconds since the recorder's origin.
    pub start: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end: u64,
    /// Packed children: `(name, summed nanoseconds)`.
    pub packed: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder poisoned")
    }

    /// Opens a span under `parent`.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            thread: thread_id(),
            start,
            end: start,
            packed: Vec::new(),
        });
        SpanId(spans.len() - 1)
    }

    /// Closes an open span.
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.lock()[id.0].end = end;
    }

    /// Attaches `ns` of packed child time named `name` to `id`.
    pub fn pack(&self, id: SpanId, name: &'static str, ns: u64) {
        self.lock()[id.0].packed.push((name, ns));
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans, in opening order.
    pub fn finish(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder poisoned")
    }
}

/// Indices of each span's recorded children.
pub fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            out[p].push(i);
        }
    }
    out
}

/// Nanoseconds of `parent` covered by its children: the union of the
/// recorded child intervals clipped to the parent, plus the packed child
/// time, never more than the parent's duration.
pub fn covered(parent: &Span, kids: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| (k.start.max(parent.start), k.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut union = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                union += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        union += cb - ca;
    }
    let packed: u64 = parent.packed.iter().map(|&(_, ns)| ns).sum();
    (union + packed).min(parent.dur())
}

/// Self time of every span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let k: Vec<&Span> = kids[i].iter().map(|&c| &spans[c]).collect();
            s.dur() - covered(s, &k)
        })
        .collect()
}

/// Whether the self times in the subtree under `root` add up to its
/// duration. Holds whenever children nest inside their parents without
/// overlapping each other and packed time fits — which the benchmark
/// expects of every single-threaded subtree, e.g. one shard run.
pub fn accounts_for(spans: &[Span], root: usize) -> bool {
    let kids = children(spans);
    let selfs = self_times(spans);
    let mut sum = 0u64;
    let mut packed = 0u64;
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        sum += selfs[i];
        packed += spans[i].packed.iter().map(|&(_, ns)| ns).sum::<u64>();
        stack.extend(&kids[i]);
    }
    sum + packed == spans[root].dur()
}

/// Idle share of a rayon fan-out: `fanout` is the span around one
/// parallel map, `pool` the number of workers it ran on. Each worker's
/// busy time is the summed duration of the child spans it ran; the rest
/// of the fan-out window it waited for the slowest worker. Returns
/// `(idle_ns, pool * window_ns)`.
pub fn fanout_idle(spans: &[Span], fanout: usize, pool: usize) -> (u64, u64) {
    let window = spans[fanout].dur();
    let busy: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(fanout))
        .map(|s| s.dur().min(window))
        .sum();
    let capacity = window * pool as u64;
    (capacity.saturating_sub(busy), capacity)
}

/// Renders spans as JSON lines (one object per span).
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let packed: Vec<String> = s
            .packed
            .iter()
            .map(|(n, ns)| format!("{{\"name\":\"{n}\",\"ns\":{ns}}}"))
            .collect();
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"packed\":[{}]}}\n",
            s.name,
            s.thread,
            s.start,
            s.end,
            selfs[i],
            packed.join(",")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, thread: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            thread,
            start,
            end,
            packed: Vec::new(),
        }
    }

    #[test]
    fn nested_children_are_subtracted() {
        // root [0,100) > a [10,40) > b [20,30); root also has c [50,60).
        let spans = vec![
            span("root", None, 0, 0, 100),
            span("a", Some(0), 0, 10, 40),
            span("b", Some(1), 0, 20, 30),
            span("c", Some(0), 0, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        assert!(accounts_for(&spans, 0));
        assert!(accounts_for(&spans, 1));
    }

    #[test]
    fn overlapping_children_on_rayon_workers_count_once() {
        // An epoch [0,100) fans out to two workers: shard runs [0,70) on
        // thread 1 and [10,90) on thread 2 overlap on [10,70).
        let spans = vec![
            span("epoch", None, 0, 0, 100),
            span("shard", Some(0), 1, 0, 70),
            span("shard", Some(0), 2, 10, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 10, "covered = union [0,90)");
        assert_eq!(selfs[1..], [70, 80]);
        // The overlapping subtree does not telescope; each worker's does.
        assert!(!accounts_for(&spans, 0));
        assert!(accounts_for(&spans, 1));
        assert!(accounts_for(&spans, 2));
        // Worker 1 idles 30 of the window, worker 2 idles 20.
        assert_eq!(fanout_idle(&spans, 0, 2), (50, 200));
    }

    #[test]
    fn children_are_clipped_and_packed_time_is_subtracted() {
        let mut run = span("core.run", None, 0, 100, 200);
        run.packed = vec![("app", 30), ("obs.monitor", 20)];
        let spans = vec![run, span("late", Some(0), 0, 180, 260)];
        // Union of the clipped child [180,200) = 20, plus 50 packed.
        assert_eq!(self_times(&spans)[0], 30);
        assert!(!accounts_for(&spans, 0), "the child overruns its parent");
        // Packed time larger than the span is clamped, never negative.
        let mut greedy = span("core.run", None, 0, 0, 10);
        greedy.packed = vec![("app", 25)];
        assert_eq!(self_times(&[greedy])[0], 0);
    }

    #[test]
    fn recorder_nests_and_times() {
        let rec = Recorder::new();
        let root = rec.open("root", None);
        rec.time("child", Some(root), || std::hint::black_box(1 + 1));
        rec.pack(root, "app", 0);
        rec.close(root);
        let spans = rec.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(accounts_for(&spans, 0));
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
