//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public function goes
//! through [`Tracer::timed`], which always returns the call's wall time
//! and, when tracing is on, also records a span: name, start, end and
//! the enclosing span. Nothing is written while the benchmark runs; at
//! exit the spans are rendered as Chrome trace-event JSON (loadable in
//! Perfetto or `chrome://tracing`) and folded into per-layer self times.
//!
//! Span names follow `<layer>.<function>`: the layer is everything
//! before the last dot (`shard.finalize` → `shard`,
//! `core.simple.trial` → `core.simple`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<function>`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span belongs to.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

/// Records spans from one thread (the benchmark's main thread; the
/// program's own worker threads are never instrumented).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off (spans already recorded are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f`, returning its result and wall time in seconds; records
    /// a span named `name` when tracing is on.
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        }
        let parent = self.stack.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        (out, secs)
    }

    /// Number of spans recorded so far.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// A copy of every recorded span.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time per layer, in seconds: each span's duration minus the part
/// its child spans cover, summed by [`Span::layer`].
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (span, covered) in spans.iter().zip(child_ns) {
        let own = span.dur_ns().saturating_sub(covered);
        *out.entry(span.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Renders spans as Chrome trace-event JSON (complete `X` events on one
/// thread, microsecond timestamps, parent index in `args`).
#[must_use]
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"perfbench {workload}\"}}}}"
    );
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            span.name,
            span.layer(),
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "sweep.run",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "report.render",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
        ];
        let st = self_times(&spans);
        assert!((st["sweep"] - 70e-9).abs() < 1e-15);
        assert!((st["report"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn records_nesting_only_when_enabled() {
        let off = Tracer::new(false);
        let (v, _) = off.timed("a.b", || 3);
        assert_eq!(v, 3);
        assert_eq!(off.span_count(), 0);

        let on = Tracer::new(true);
        on.timed("a.outer", || on.timed("b.inner", || ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(chrome_json(&spans, "t").contains("\"cat\":\"b\""));
    }
}
