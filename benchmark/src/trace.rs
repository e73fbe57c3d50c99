//! In-memory spans for the traced pass: `{name, start, end, parent,
//! round}` around each public call into the program, written as JSON
//! lines when the run ends. Nothing here touches the program; the
//! spans are recorded from the harness side of each call.

use crate::json::Json;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Schedule round the span belongs to (the identifier spans of one
    /// round share).
    pub round: u64,
    /// Calls folded into the span: 1 for a lifecycle call; for the
    /// transport children, every `send`/`recv` the parent call made
    /// (one span per envelope would be ~10⁴ spans a round).
    pub calls: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, round: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            round,
            calls: 1,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Record a child of `parent` that stands for `calls` calls busy for
    /// `busy_s` seconds in total, placed at the parent's start.
    pub fn folded_child(&mut self, name: &'static str, parent: usize, busy_s: f64, calls: u64) {
        let (start, round) = (self.spans[parent].start, self.spans[parent].round);
        self.spans.push(Span {
            name,
            start,
            end: start + busy_s,
            parent: Some(parent),
            round,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus what its child spans
    /// cover, indexed like [`Tracer::spans`].
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.seconds();
            }
        }
        own
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(span.name.into())),
                ("start", Json::Num(span.start)),
                ("end", Json::Num(span.end)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("round", Json::Num(span.round as f64)),
                ("calls", Json::Num(span.calls as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tracer = Tracer::new();
        let round = tracer.begin("round", None, 4);
        let open = tracer.begin("federation.open_round", Some(round), 4);
        tracer.end(open);
        tracer.end(round);
        tracer.spans[open].end = tracer.spans[open].start + 0.5;
        tracer.folded_child("transport.send", open, 0.2, 63);
        tracer.folded_child("transport.recv", open, 0.1, 63);
        assert!((tracer.self_seconds()[open] - 0.2).abs() < 1e-12);
        assert_eq!(tracer.spans()[2].parent, Some(open));
        assert_eq!(tracer.spans()[2].round, 4);
        assert_eq!(tracer.spans()[2].calls, 63);
    }
}
