//! Spans recorded by the benchmark around its calls into each layer:
//! name, start, end, parent, and the operation they belong to. Kept in
//! memory; written once, as chrome-trace JSON, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let r = f();
        self.end();
        r
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per span name: (count, total seconds, total self seconds). A
    /// span's self time is its duration minus what its direct children
    /// cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let duration = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e9;
        let mut own: Vec<f64> = self.spans.iter().map(duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= duration(s);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = by_name.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += duration(s);
            e.2 += own;
        }
        by_name
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, with its parent's index and operation id as args.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
