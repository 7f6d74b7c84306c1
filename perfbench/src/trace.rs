//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    /// Spans of one request share this identifier.
    pub trace: u64,
    pub name: &'static str,
    /// The span that caused this one, if any.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        trace: u64,
        parent: Option<&'static str>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(trace, parent, name, start, Instant::now());
        out
    }

    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<&'static str>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            trace,
            name,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Durations in ns of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect()
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Writes one tab-separated line per span.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "trace\tname\tparent\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.trace,
                s.name,
                s.parent.unwrap_or("-"),
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}
