//! In-memory spans for the traced run.
//!
//! A span is `(name, id, start, duration)`. Its parent is the span whose
//! name is the parent listed in [`DEFS`] and whose `id` is the same — the
//! frame sequence number — so spans of one frame share an identifier. Raw
//! spans live in a buffer allocated before the timed phase, the first
//! [`RAW_PER_NAME`] of each name; later ones still count into the per-name
//! totals (which is what the per-layer metrics are computed from) but are
//! not kept.

use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept per name; the totals cover every span regardless.
const RAW_PER_NAME: u32 = 1 << 16;

/// Span names and the name of each one's parent.
pub const DEFS: &[(&str, Option<&str>)] = &[
    // Live run, bench client thread; id = timed frame sequence.
    ("frame", None),
    ("client.encode", Some("frame")),
    ("client.send", Some("frame")),
    ("client.wait", Some("frame")),
    ("client.decode", Some("frame")),
    // Sequential shadow replay; id = frame sequence over warm-up + timed.
    ("shadow.frame", None),
    ("shard.router.route", Some("shadow.frame")),
    ("shard.queue.push_pop", Some("shadow.frame")),
    ("cache.process", Some("shadow.frame")),
    ("core.observe", Some("shadow.frame")),
    ("cache.save_state", Some("shadow.frame")),
    ("core.save_state", Some("shadow.frame")),
    ("shard.ckpt.to_frame", Some("shadow.frame")),
    ("ckpt.delta", Some("shadow.frame")),
    ("ckpt.crc64", Some("shadow.frame")),
    // Stand-alone kernels; id = iterations in the span.
    ("kernel.wire.encode_get", None),
    ("kernel.wire.decode_get", None),
    ("kernel.wire.verdicts", None),
    ("kernel.shard.submit_frame", None),
    ("kernel.features.extract", None),
    ("kernel.nn.predict", None),
    ("kernel.bandit.round", None),
    ("kernel.obs.hist_record", None),
];

/// Index of `name` in [`DEFS`]; panics on a name that is not listed.
pub fn name_id(name: &str) -> u8 {
    DEFS.iter().position(|(n, _)| *n == name).unwrap_or_else(|| panic!("unknown span name {name}")) as u8
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

pub struct Spans {
    origin: Instant,
    raw: Vec<(u8, u32, u64, u64)>,
    kept: Vec<u32>,
    not_kept: u64,
    totals: Vec<Total>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            raw: Vec::with_capacity(DEFS.len() * RAW_PER_NAME as usize),
            kept: vec![0; DEFS.len()],
            not_kept: 0,
            totals: vec![Total::default(); DEFS.len()],
        }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(&mut self, name: u8, id: u32, start: Instant, end: Instant) {
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        self.record_ns(name, id, start, dur);
    }

    /// Records a span that began at `start` and was busy for `dur_ns` (used
    /// where one span stands for many interleaved calls).
    pub fn record_ns(&mut self, name: u8, id: u32, start: Instant, dur_ns: u64) {
        let t = &mut self.totals[name as usize];
        t.count += 1;
        t.total_ns += dur_ns;
        t.max_ns = t.max_ns.max(dur_ns);
        if self.kept[name as usize] < RAW_PER_NAME {
            self.kept[name as usize] += 1;
            let at = start.saturating_duration_since(self.origin).as_nanos() as u64;
            self.raw.push((name, id, at, dur_ns));
        } else {
            self.not_kept += 1;
        }
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals[name_id(name) as usize]
    }

    /// Self time of every span named `name`: its total minus the totals of
    /// the names parented to it.
    pub fn self_ns(&self, name: &str) -> u64 {
        let children: u64 = DEFS
            .iter()
            .zip(&self.totals)
            .filter(|((_, parent), _)| *parent == Some(name))
            .map(|(_, t)| t.total_ns)
            .sum();
        self.total(name).total_ns.saturating_sub(children)
    }

    /// The `*.trace.json` document (README.md, "Reading a trace file").
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.raw.len() * 32);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"names\":[");
        for (i, (name, parent)) in DEFS.iter().enumerate() {
            let parent = parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let t = self.totals[i];
            let _ = write!(
                out,
                "{}{{\"name\":\"{name}\",\"parent\":{parent},\"count\":{},\"total_ns\":{},\"self_ns\":{},\"max_ns\":{}}}",
                if i == 0 { "" } else { "," },
                t.count,
                t.total_ns,
                self.self_ns(name),
                t.max_ns
            );
        }
        let _ = write!(out, "],\"spans_not_kept\":{},\"spans\":[", self.not_kept);
        for (i, (name, id, at, dur)) in self.raw.iter().enumerate() {
            let _ = write!(out, "{}[{name},{id},{at},{dur}]", if i == 0 { "" } else { "," });
        }
        out.push_str("]}\n");
        out
    }
}
