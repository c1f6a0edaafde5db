//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer's public function: name, start, end, parent span and request
//! id. Threads record into private buffers and hand them over when done,
//! so recording takes no lock on the measured path. Everything is written
//! out once, at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The causing span's id; 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request (or design point / grid cell) the span served.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A per-thread recording buffer; merge it back with [`Self::absorb`].
    pub fn local(&self) -> Local<'_> {
        Local {
            tracer: self,
            spans: Vec::new(),
        }
    }

    /// Takes over a thread's finished spans.
    pub fn absorb(&self, local: Local<'_>) {
        self.spans
            .lock()
            .expect("span store poisoned")
            .extend(local.spans);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations (ns) of every span called `name`, in recording order.
    #[cfg(test)]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self time per span name: each span's duration minus the part of its
    /// interval that its children cover (children on other threads may
    /// overlap one another; their union is what is subtracted).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children.get_mut(&s.id).map_or(0, |kids| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                covered
            });
            *out.entry(s.name).or_default() += s.dur_ns() - covered as f64;
        }
        out
    }

    /// Writes every span as one JSON line, then one summary line of self
    /// time per span name.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        let summary: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, ns)| format!("\"{name}\":{ns:.0}"))
            .collect();
        writeln!(out, "{{\"self_time_ns\":{{{}}}}}", summary.join(","))?;
        out.flush()
    }
}

/// A thread's private span buffer.
pub struct Local<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
}

impl Local<'_> {
    /// Opens a span; close it with [`Self::end`].
    pub fn begin(&self, name: &'static str, parent: u64, request: u64) -> Open {
        Open {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            request,
            start_ns: self.tracer.now_ns(),
        }
    }

    /// Closes `open`, returning its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.tracer.now_ns(),
            request: open.request,
        };
        self.spans.push(span);
        span.dur_ns()
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.tracer.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            request,
        });
    }

    /// Runs `f` inside a root span and returns the span's duration (ns).
    pub fn span_ns(&mut self, name: &'static str, request: u64, f: impl FnOnce()) -> f64 {
        let open = self.begin(name, 0, request);
        f();
        self.end(open)
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, request);
        let r = f();
        self.end(open);
        r
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new();
        let mut local = t.local();
        let root = local.begin("root", 0, 0);
        let rid = root.id;
        local.span("child", rid, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        local.span("child", rid, 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = local.end(root);
        t.absorb(local);
        let selfs = t.self_times();
        let children: f64 = t.durations("child").iter().sum();
        assert!((selfs["root"] - (total - children)).abs() < 1.0);
        assert_eq!(t.durations("child").len(), 2);
    }
}
