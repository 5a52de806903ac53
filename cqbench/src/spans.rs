//! The benchmark's own spans, recorded around each call it makes into a
//! layer of the prover. They are kept in memory, reduced to per-layer self
//! time, and written out as Chrome trace-event JSON when the run ends.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. Every span of one item carries the item's index, so the spans of
//! one file, goal or certificate can be picked out of the trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The name of the span wrapping one whole item; its self time is the
/// item time no layer span covers (`core.other`).
pub const ITEM: &str = "item";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub item: u32,
    pub thread: u32,
    pub start: Instant,
    pub dur: Duration,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

/// Records the spans of one thread: the client thread of a pass, or one
/// batch task. Disabled recorders record nothing and take no timestamps.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    thread: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, thread: u32) -> Recorder {
        Recorder {
            on,
            thread,
            spans: Vec::new(),
        }
    }

    /// Opens a span; `None` when recording is off.
    pub fn open(&mut self, name: &'static str, item: u32, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            item,
            thread: self.thread,
            start: Instant::now(),
            dur: Duration::ZERO,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].dur = self.spans[i].start.elapsed();
        }
    }

    /// Records a child of `parent` whose duration was measured elsewhere:
    /// by the callee itself (`at_end`, as the recheck inside `prove`), or
    /// by a separate probe call (at the start, as the analysis half of
    /// `Session::analyze`). The child is clamped to the parent.
    pub fn inner(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        dur: Duration,
        at_end: bool,
    ) {
        let Some(p) = parent else { return };
        let outer = &self.spans[p];
        let dur = dur.min(outer.dur);
        let start = if at_end {
            outer.start + (outer.dur - dur)
        } else {
            outer.start
        };
        let (item, thread) = (outer.item, outer.thread);
        self.spans.push(Span {
            name,
            item,
            thread,
            start,
            dur,
            parent,
        });
    }
}

/// Appends `other` to `into`, re-basing the parent indices of `other`.
pub fn append(into: &mut Vec<Span>, other: Vec<Span>) {
    let base = into.len();
    into.extend(other.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut covered = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(s.name).or_insert(Duration::ZERO) += s.dur.saturating_sub(c);
    }
    out
}

/// Summed duration of the item spans (the total item time of a pass).
pub fn item_time(spans: &[Span]) -> Duration {
    spans.iter().filter(|s| s.name == ITEM).map(|s| s.dur).sum()
}

/// Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`),
/// timestamps in microseconds since `epoch`.
pub fn chrome_json(spans: &[Span], epoch: Instant, item_names: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = s.start.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        let item = item_names.get(s.item as usize).map_or("?", String::as_str);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{:.3},\
             \"args\":{{\"item\":\"{item}\",\"parent\":{}}}}}",
            s.name,
            s.thread,
            s.dur.as_secs_f64() * 1e6,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
    }
    out.push_str("]}\n");
    out
}
