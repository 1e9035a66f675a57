//! Spans recorded from outside the library, around each call into a
//! crate's public API.
//!
//! A span has a name (`<crate>.<function>`), start and end, the span
//! that caused it, and the request (op) it belongs to. Spans stay in
//! memory and are written out when the run ends. A disabled tracer runs
//! the closure and records nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Request id of spans recorded outside any op (set-up, probes).
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Calls the span covers: 1, or the length of a timed block of
    /// identical kernel calls too short to time one by one.
    pub calls: u64,
}

pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    request: Cell<u64>,
    counts: RefCell<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: Cell::new(on),
            epoch: Instant::now(),
            spans: RefCell::default(),
            stack: RefCell::default(),
            request: Cell::new(NO_REQUEST),
            counts: RefCell::default(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    /// Runs `f` with recording switched to `on`, then restores it.
    pub fn with<R>(&self, on: bool, f: impl FnOnce() -> R) -> R {
        let prev = self.on.replace(on);
        let r = f();
        self.on.set(prev);
        r
    }

    pub fn set_request(&self, id: u64) {
        self.request.set(id);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_calls(name, 1, f)
    }

    pub fn span_calls<R>(&self, name: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
        if !self.is_on() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                request: self.request.get(),
                calls,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        // Read the clock last on entry and first on exit.
        self.spans.borrow_mut()[idx].start_ns = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = end;
        r
    }

    /// Adds to an exact count (instructions, cycles, bytes).
    pub fn count(&self, name: &'static str, v: u64) {
        if self.is_on() {
            *self.counts.borrow_mut().entry(name).or_default() += v;
        }
    }

    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        self.counts.borrow().clone()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

impl Row {
    pub fn per_call_ns(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64
    }
}

pub fn table(spans: &[Span]) -> BTreeMap<&'static str, Row> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let row = rows.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        row.spans += 1;
        row.calls += s.calls;
        row.total_ns += dur;
        row.self_ns += dur.saturating_sub(child);
    }
    rows
}

/// The human-readable per-layer table.
pub fn render(rows: &BTreeMap<&'static str, Row>) -> String {
    let mut out = format!(
        "{:<40} {:>9} {:>12} {:>12} {:>14}\n",
        "span", "calls", "total_ms", "self_ms", "per_call_us"
    );
    for (name, r) in rows {
        let _ = writeln!(
            out,
            "{:<40} {:>9} {:>12.3} {:>12.3} {:>14.3}",
            name,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            r.per_call_ns() / 1e3
        );
    }
    out
}

/// One JSON object per line, for tools that want the raw spans.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let request = if s.request == NO_REQUEST {
            "null".to_string()
        } else {
            s.request.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"calls\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, request, s.calls
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let tr = Tracer::new(true);
        tr.set_request(3);
        tr.span("outer", || {
            tr.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        tr.with(false, || tr.span("hidden", || ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3));
        let rows = table(&spans);
        let (outer, inner) = (&rows["outer"], &rows["inner"]);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }
}
