//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into each layer's public
//! functions from the benchmark's own code; nothing inside the program is
//! instrumented. Each span keeps its name, start, end, parent span and the
//! request it served. Spans stay in memory and are written out once, when
//! the run ends.

use crate::report::{json_line, object};
use crate::stats::Samples;
use serde_json::Value;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) -> SpanId {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Records a span that ran from `start` to `end`, timed outside the
    /// recorder, as a child of the innermost open one.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            req,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name, req);
        let out = f(self);
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in `unit_ns` units.
    pub fn durations(&self, name: &str, unit_ns: f64) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push((s.end_ns - s.start_ns) as f64 / unit_ns);
        }
        out
    }

    /// Self times of every span named `name` (its duration minus the time
    /// its child spans cover), in `unit_ns` units.
    pub fn self_times(&self, name: &str, unit_ns: f64) -> Samples {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = Samples::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                out.push(own as f64 / unit_ns);
            }
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let span = object(vec![
                ("name", Value::String(s.name.to_string())),
                ("start_ns", Value::U64(s.start_ns)),
                ("end_ns", Value::U64(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::U64(p.into())),
                ),
                ("req", Value::U64(s.req)),
            ]);
            writeln!(w, "{}", json_line(&span))?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::default();
        rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        let outer = rec.durations("outer", 1.0).median();
        let inner = rec.durations("inner", 1.0).median();
        let own = rec.self_times("outer", 1.0).median();
        assert_eq!(own, outer - inner);
        assert!(inner >= 2e6);
    }
}
