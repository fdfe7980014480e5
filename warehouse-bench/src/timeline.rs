//! In-memory spans around the benchmark's calls into the engine.
//!
//! Every timed call is a span: name, stage, epoch, start, end, the span
//! that encloses it, and counts measured at the same boundary. End-to-end
//! metrics and per-layer metrics are both derived from these spans; a run
//! only writes them out when it is traced.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Which part of the run issued the call: `setup`, `run` (the measured
    /// cycles) or `final` (the oracle check and recovery).
    pub stage: &'static str,
    /// Engine epoch the call belongs to (the epoch being built for ingest
    /// and `run_epoch`, the epoch being served for reads).
    pub epoch: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .filter(|(k, _)| *k == key)
            .fold(0.0, |acc, (_, v)| acc + v)
    }
}

pub struct Timeline {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub stage: &'static str,
    pub epoch: u64,
}

impl Timeline {
    pub fn new() -> Timeline {
        Timeline {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stage: "setup",
            epoch: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; spans opened before it is closed become its children.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            stage: self.stage,
            epoch: self.epoch,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
            attrs: Vec::new(),
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
        self.open.retain(|&o| o != id);
    }

    /// Time one call as a span; returns its result and the span id.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        (out, id)
    }

    pub fn attr(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].attrs.push((key, value));
    }

    pub fn spans<'a>(
        &'a self,
        stage: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.stage == stage && s.name == name)
    }

    /// Durations (ms) of the spans named `name`, in every stage.
    pub fn ms_any(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Durations (ms) of the matching spans.
    pub fn ms(&self, stage: &str, name: &str) -> Vec<f64> {
        self.spans(stage, name).map(Span::ms).collect()
    }

    /// Total duration (ms) and count of the matching spans per enclosing
    /// span (per cycle, set-up or churn round).
    pub fn per_parent(&self, stage: &str, name: &str) -> Vec<(f64, usize)> {
        let mut out: Vec<(Option<usize>, f64, usize)> = Vec::new();
        for s in self.spans(stage, name) {
            match out.last_mut() {
                Some((p, total, n)) if *p == s.parent => {
                    *total += s.ms();
                    *n += 1;
                }
                _ => out.push((s.parent, s.ms(), 1)),
            }
        }
        out.into_iter().map(|(_, total, n)| (total, n)).collect()
    }

    /// Sum of one attribute over the matching spans.
    pub fn total(&self, stage: &str, name: &str, key: &str) -> f64 {
        self.spans(stage, name)
            .fold(0.0, |acc, s| acc + s.attr(key))
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"stage\":\"{}\",\"epoch\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}",
                s.name, s.stage, s.epoch, s.start_us, s.end_us
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}
