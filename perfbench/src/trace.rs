//! In-memory spans recorded around the benchmark's calls into each crate.
//!
//! A span is named `<crate>.<call>`; its parent is the span open when it
//! started and its run id names the schedule, attack or soak cell it
//! belongs to. Spans are kept in memory and written out at exit. With
//! tracing disabled the same code runs without reading the clock, which
//! is what the tracing overhead is measured against.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per span name: calls, total time and self time (total minus the time
/// its child spans cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Ends every span opened above `depth` (after a caught panic).
    pub fn close_to(&mut self, depth: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        while self.open.len() > depth {
            let id = self.open.pop().expect("len > depth");
            self.spans[id].end_ns = now;
        }
    }

    /// Adds `n` to the count `name` (counted with tracing on or off).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, total and self time per span name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.ns();
            e.self_ns += s.ns().saturating_sub(child);
        }
        out
    }

    /// Self time summed per crate (the span name's prefix before `.`).
    pub fn self_ns_by_crate(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, s) in self.stats() {
            let krate = name.split_once('.').map_or(name, |(k, _)| k);
            *out.entry(krate).or_insert(0) += s.self_ns;
        }
        out
    }

    /// Writes one JSON object per span, then one per count.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        for (name, n) in &self.counts {
            writeln!(w, "{{\"count\":\"{name}\",\"value\":{n}}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_run(7);
        t.span("a.outer", |t| {
            t.span("b.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b.inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 7));
        let stats = t.stats();
        let outer = stats["a.outer"];
        let inner = stats["b.inner"];
        assert_eq!(inner.calls, 2);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let by_crate = t.self_ns_by_crate();
        assert_eq!(by_crate["a"] + by_crate["b"], outer.total_ns);
    }

    #[test]
    fn disabled_tracer_records_counts_only() {
        let mut t = Tracer::new(false);
        let v = t.span("a.x", |t| {
            t.count("n", 3);
            5
        });
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.get("n"), 3);
    }
}
