//! The benchmark's own spans: one around each call it makes into a
//! versa layer, recorded only in the traced pass.
//!
//! Every span adds its duration to a per-name total, so per-layer means
//! cover every call. The span records themselves (name, start, end,
//! parent, request) are kept only for requests whose id is a multiple
//! of the sampling stride, so a run of a million tiny jobs stays small
//! in memory; self times are computed from the kept records. Each
//! thread records into its own buffer, so the generator and the service
//! thread never wait on each other; [`collect`] merges the buffers.
//! With tracing off, [`span`] costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Most span records one thread keeps per pass; later ones only feed
/// the totals.
const MAX_RECORDS: usize = 200_000;

static ON: AtomicBool = AtomicBool::new(false);
static STRIDE: AtomicU64 = AtomicU64::new(1);
/// When the current pass started, in ns since [`base`].
static ORIGIN_NS: AtomicU64 = AtomicU64::new(0);

fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

fn since_base(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(base()).as_nanos()).unwrap_or(u64::MAX)
}

/// One thread's records and totals.
#[derive(Default)]
struct Buffer {
    records: Vec<Record>,
    totals: BTreeMap<&'static str, Total>,
}

type Shared = Arc<Mutex<Buffer>>;

/// Every thread's buffer, for [`enable`] to clear and [`collect`] to
/// merge.
fn registry() -> &'static Mutex<Vec<Shared>> {
    static REGISTRY: OnceLock<Mutex<Vec<Shared>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a thread panicked while recording a span")
}

thread_local! {
    static BUFFER: Shared = {
        let b = Shared::default();
        lock(registry()).push(Arc::clone(&b));
        b
    };
    /// Open spans of this thread: the buffer index of each kept span.
    static OPEN: RefCell<Vec<Option<usize>>> = const { RefCell::new(Vec::new()) };
}

/// One kept span.
#[derive(Clone, Debug)]
pub struct Record {
    /// Layer-qualified name, e.g. `mem.alloc`.
    pub name: &'static str,
    /// Start, in ns since the pass started.
    pub start_ns: u64,
    /// End, in ns since the pass started (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing kept span on the same thread.
    pub parent: Option<usize>,
    /// The job or solve this span belongs to.
    pub request: u64,
}

/// Every span of one name: how many, their summed duration, and the
/// summed self time of the kept ones.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    /// Spans closed.
    pub count: u64,
    /// Summed duration of all of them, ns.
    pub total_ns: u64,
    /// Kept records of this name.
    pub kept: u64,
    /// Summed self time of the kept records, ns.
    pub self_ns: u64,
}

impl Total {
    /// Mean span duration in µs (0 with no spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Start a traced pass: clear earlier records and keep the records of
/// every `stride`-th request.
pub fn enable(stride: u64) {
    for b in lock(registry()).iter() {
        *lock(b) = Buffer::default();
    }
    STRIDE.store(stride.max(1), Ordering::Relaxed);
    ORIGIN_NS.store(since_base(Instant::now()), Ordering::Relaxed);
    ON.store(true, Ordering::Release);
}

/// Whether a traced pass is running.
pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    kept: Option<usize>,
}

/// Open a span named `name` for `request`. Its parent is the innermost
/// span still open on this thread.
pub fn span(name: &'static str, request: u64) -> Span {
    if !on() {
        return Span {
            name,
            start: None,
            kept: None,
        };
    }
    let start = Instant::now();
    let kept = if request.is_multiple_of(STRIDE.load(Ordering::Relaxed)) {
        let parent = OPEN.with(|o| o.borrow().last().copied().flatten());
        let start_ns = since_base(start).saturating_sub(ORIGIN_NS.load(Ordering::Relaxed));
        BUFFER.with(|b| {
            let mut b = lock(b);
            (b.records.len() < MAX_RECORDS).then(|| {
                b.records.push(Record {
                    name,
                    start_ns,
                    end_ns: 0,
                    parent,
                    request,
                });
                b.records.len() - 1
            })
        })
    } else {
        None
    };
    OPEN.with(|o| o.borrow_mut().push(kept));
    Span {
        name,
        start: Some(start),
        kept,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        OPEN.with(|o| o.borrow_mut().pop());
        let _ = BUFFER.try_with(|b| {
            let Ok(mut b) = b.lock() else { return };
            let t = b.totals.entry(self.name).or_default();
            t.count += 1;
            t.total_ns += u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
            if let Some(i) = self.kept {
                let end_ns = since_base(end).saturating_sub(ORIGIN_NS.load(Ordering::Relaxed));
                b.records[i].end_ns = end_ns;
            }
        });
    }
}

/// Run `f` inside a span.
pub fn timed<T>(name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    let _s = span(name, request);
    f()
}

/// What a traced pass recorded.
pub struct Collected {
    /// Per-name totals, self time included.
    pub totals: BTreeMap<&'static str, Total>,
    /// The kept records of every thread.
    pub records: Vec<Record>,
}

impl Collected {
    /// Totals of one span name (zero when it never ran).
    pub fn get(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The records as tab-separated text, one span a line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("#index\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                r.name, r.start_ns, r.end_ns, r.request
            );
        }
        out
    }
}

/// End the traced pass and hand back what it recorded, with the self
/// time of every kept span: its duration minus the time its children
/// cover. Children nest inside their parent on one thread and never
/// overlap each other, so their durations simply add.
pub fn collect() -> Collected {
    ON.store(false, Ordering::Release);
    let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
    let mut records = Vec::new();
    for b in lock(registry()).iter() {
        let Buffer {
            records: mine,
            totals: counts,
        } = std::mem::take(&mut *lock(b));
        for (name, t) in counts {
            let e = totals.entry(name).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
        }
        let offset = records.len();
        let mut child_ns = vec![0u64; mine.len()];
        for r in &mine {
            if let Some(p) = r.parent {
                child_ns[p] += r.end_ns.saturating_sub(r.start_ns);
            }
        }
        for (mut r, covered) in mine.into_iter().zip(child_ns) {
            let t = totals.entry(r.name).or_default();
            t.kept += 1;
            t.self_ns += r.end_ns.saturating_sub(r.start_ns).saturating_sub(covered);
            r.parent = r.parent.map(|p| p + offset);
            records.push(r);
        }
    }
    Collected { totals, records }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test owns the global recorder, so tests cannot interleave.
    #[test]
    fn spans_nest_sample_and_give_self_time() {
        assert!(!on());
        drop(span("off", 0));
        enable(2);
        {
            let _outer = span("outer", 0);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner", 0);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        // Request 1 is not sampled: totals only.
        timed("outer", 1, || ());
        // Another thread's spans land in its own buffer.
        std::thread::spawn(|| timed("other", 4, || ()))
            .join()
            .unwrap();
        let c = collect();
        assert!(!on());
        assert_eq!(
            c.get("off"),
            Total::default(),
            "nothing is recorded while off"
        );
        assert_eq!(c.get("other").kept, 1);
        assert_eq!(c.records.len(), 3);
        let i = c.records.iter().position(|r| r.name == "inner").unwrap();
        let o = c.records[i].parent.expect("inner has a parent");
        assert_eq!(c.records[o].name, "outer");
        let (outer, inner) = (c.get("outer"), c.get("inner"));
        assert_eq!(
            (outer.count, outer.kept, inner.count, inner.kept),
            (2, 1, 1, 1)
        );
        let dur = |i: usize| c.records[i].end_ns - c.records[i].start_ns;
        assert_eq!(outer.self_ns, dur(o) - dur(i));
        assert_eq!(inner.self_ns, dur(i));
        assert!(outer.self_ns >= 2_000_000 && inner.self_ns >= 2_000_000);
        assert!(c.to_tsv().contains("\tinner\t"));
    }
}
