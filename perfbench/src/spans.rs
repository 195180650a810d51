//! The benchmark's own span recorder, used only by the traced run.
//!
//! Spans are kept in memory and written once at the end, in the
//! chrome://tracing JSONL shape `photon-trace` emits; the span id, parent
//! id and round id ride in `args`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// The layer (crate) the call goes into, or `bench` for the
    /// benchmark's own grouping spans.
    pub layer: &'static str,
    pub round: u64,
    pub start_us: f64,
    pub dur_us: f64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u64,
    /// A disabled tracer records nothing; it prices the recording itself.
    enabled: bool,
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            enabled: true,
        }
    }

    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Starts a new round id; spans opened from now on carry it.
    pub fn next_round(&mut self) {
        self.round += 1;
    }

    pub fn open(&mut self, name: &'static str, layer: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u64 + 1,
            parent,
            name,
            layer,
            round: self.round,
            start_us: self.t0.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn close(&mut self, span: Open) -> f64 {
        if span.0 == usize::MAX {
            return 0.0;
        }
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost-first");
        let s = &mut self.spans[span.0];
        s.dur_us = self.t0.elapsed().as_secs_f64() * 1e6 - s.start_us;
        s.dur_us
    }

    /// Times `f` inside a span and returns its result.
    pub fn time<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, layer);
        let r = f();
        self.close(s);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// Self time of each span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child[s.parent as usize - 1] += s.dur_us;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_us - c)
            .collect()
    }

    /// Per-name call count and total self time over the spans below
    /// `root` (the root itself excluded).
    pub fn layer_table(&self, root: u64) -> BTreeMap<&'static str, (u64, f64)> {
        let self_us = self.self_times();
        let mut table = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_us) {
            if s.id != root && self.is_below(s, root) {
                let e = table.entry(s.name).or_insert((0u64, 0.0f64));
                e.0 += 1;
                e.1 += own;
            }
        }
        table
    }

    fn is_below(&self, s: &Span, root: u64) -> bool {
        let mut p = s.id;
        while p > 0 {
            if p == root {
                return true;
            }
            p = self.spans[p as usize - 1].parent;
        }
        false
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\
                 \"args\":{{\"span\":{},\"parent\":{},\"round\":{}}}}}",
                s.name,
                s.layer,
                s.start_us.round() as u64,
                s.dur_us.round() as u64,
                s.id,
                s.parent,
                s.round
            );
        }
        out
    }
}
