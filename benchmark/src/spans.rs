//! In-memory span recorder. The benchmark times its own calls into the
//! crates' public functions: every span has a name, start, end, parent span
//! and the id of the job, point or request it belongs to. Spans stay in
//! memory and are written once, at exit, as a Chrome trace.

use std::cell::RefCell;
use std::time::Instant;

use bench::json::Json;
use bench::trace::ChromeTrace;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans of one run. Methods take `&self` so a span can open inside a
/// callback the library makes (a `LayerTimer` probe) while the caller's
/// span is still open.
pub struct Spans {
    origin: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[must_use = "a span must be ended"]
pub struct Open(usize);

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            inner: RefCell::default(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn begin(&self, name: &'static str, id: u64) -> Open {
        let start_ns = self.ns(Instant::now());
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        let idx = inner.spans.len();
        inner.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        inner.open.push(idx);
        Open(idx)
    }

    /// Close a span (spans nest, so it must be the innermost open one) and
    /// return its duration in seconds.
    pub fn end(&self, open: Open) -> f64 {
        let end_ns = self.ns(Instant::now());
        let mut inner = self.inner.borrow_mut();
        assert_eq!(inner.open.pop(), Some(open.0), "spans must nest");
        let span = &mut inner.spans[open.0];
        span.end_ns = end_ns;
        span.secs()
    }

    /// Time `f` as one span.
    pub fn time<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, id);
        let out = f();
        (out, self.end(open))
    }

    /// Record a span measured elsewhere (on a worker thread) as a child of
    /// the innermost open span.
    pub fn record(&self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        let inner = self.inner.borrow();
        inner
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time of the spans named `name`: their total minus the part
    /// their direct children cover.
    pub fn self_secs(&self, name: &str) -> f64 {
        let inner = self.inner.borrow();
        let parents: Vec<usize> = (0..inner.spans.len())
            .filter(|&i| inner.spans[i].name == name)
            .collect();
        let children: f64 = inner
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| parents.contains(&p)))
            .map(Span::secs)
            .sum();
        parents.iter().map(|&i| inner.spans[i].secs()).sum::<f64>() - children
    }

    /// Render every span as a Chrome trace (one lane, nanosecond
    /// timestamps), with each span's id and parent index as arguments.
    pub fn chrome(&self, process: &str) -> ChromeTrace {
        let inner = self.inner.borrow();
        let mut tr = ChromeTrace::new();
        tr.process_name(1, process);
        tr.thread_name(1, 0, "benchmark");
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| (p as u64).into());
            tr.complete(
                1,
                0,
                s.name,
                s.start_ns,
                s.end_ns - s.start_ns,
                &[
                    ("span", (i as u64).into()),
                    ("id", s.id.into()),
                    ("parent", parent),
                ],
            );
        }
        tr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let spans = Spans::new();
        let outer = spans.begin("plan", 0);
        let ((), child) = spans.time("probe", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = spans.end(outer);
        assert!(child > 0.0 && total >= child);
        assert!((spans.self_secs("plan") - (total - child)).abs() < 1e-12);
        assert_eq!(spans.total("probe"), child);
        let rendered = spans.chrome("unit").render();
        assert!(rendered.contains("\"parent\":0"), "{rendered}");
    }
}
