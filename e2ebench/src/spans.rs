//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and written out once as a Chrome `trace_event` file.
//!
//! Every span carries its parent's id and the run id, so the spans of
//! the parent process and of each job process form one tree. Times are
//! microseconds since the Unix epoch, read once per process and advanced
//! by that process's monotonic clock, so spans from different processes
//! share one time axis.

use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::escape;

/// Thread lane of the benchmark's own spans in the Chrome trace; task
/// spans use `TASK_TID_BASE + worker`.
pub const BENCH_TID: u32 = 0;
/// First thread lane of task spans.
pub const TASK_TID_BASE: u32 = 100;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run: the process index in the high 32 bits.
    pub id: u64,
    /// Id of the enclosing span; 0 for the root.
    pub parent: u64,
    /// What was timed, e.g. `load` or `plot(num0)`.
    pub name: String,
    /// `bench` for the benchmark's own spans, `task` for scheduler spans.
    pub cat: String,
    /// Start, µs since the Unix epoch.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Process index (0 = the benchmark's parent process).
    pub pid: u32,
    /// Thread lane.
    pub tid: u32,
}

impl Span {
    /// End, µs since the Unix epoch.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }

    /// One line of the job protocol (see [`Span::from_line`]).
    pub fn to_line(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {}",
            self.id,
            self.parent,
            self.start_us,
            self.dur_us,
            self.pid,
            self.tid,
            self.cat,
            self.name
        )
    }

    /// Parse a [`Span::to_line`] line; names may contain spaces.
    pub fn from_line(line: &str) -> Option<Span> {
        let mut it = line.splitn(8, ' ');
        Some(Span {
            id: it.next()?.parse().ok()?,
            parent: it.next()?.parse().ok()?,
            start_us: it.next()?.parse().ok()?,
            dur_us: it.next()?.parse().ok()?,
            pid: it.next()?.parse().ok()?,
            tid: it.next()?.parse().ok()?,
            cat: it.next()?.to_string(),
            name: it.next()?.to_string(),
        })
    }
}

/// A span that has started but not yet ended.
#[derive(Debug)]
pub struct Open {
    /// The id children use as their parent.
    pub id: u64,
    parent: u64,
    name: String,
    start: Instant,
}

/// Per-process span recorder.
#[derive(Debug)]
pub struct Recorder {
    pid: u32,
    next: u64,
    origin: Instant,
    origin_us: f64,
    /// Finished spans, in end order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for process index `pid`.
    pub fn new(pid: u32) -> Recorder {
        let origin_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6);
        Recorder {
            pid,
            next: 1,
            origin: Instant::now(),
            origin_us,
            spans: Vec::new(),
        }
    }

    /// Epoch µs of an instant on this process's clock.
    fn epoch_us(&self, at: Instant) -> f64 {
        self.origin_us + at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// A fresh span id.
    pub fn next_id(&mut self) -> u64 {
        let id = (u64::from(self.pid) << 32) | self.next;
        self.next += 1;
        id
    }

    /// Start a span under `parent`.
    pub fn open(&mut self, name: impl Into<String>, parent: u64) -> Open {
        Open {
            id: self.next_id(),
            parent,
            name: name.into(),
            start: Instant::now(),
        }
    }

    /// End a span; returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let dur = open.start.elapsed();
        let start_us = self.epoch_us(open.start);
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            cat: "bench".into(),
            start_us,
            dur_us: dur.as_secs_f64() * 1e6,
            pid: self.pid,
            tid: BENCH_TID,
        });
        dur.as_secs_f64()
    }

    /// Time `f` as a span under `parent`; returns its result and seconds.
    pub fn time<T>(&mut self, name: &str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open(name, parent);
        let value = f();
        let secs = self.close(open);
        (value, secs)
    }
}

/// Chrome `trace_event` JSON of `spans` (load in `chrome://tracing` or
/// Perfetto). Ids, parents and the run id travel in each event's args.
pub fn chrome_trace(spans: &[Span], run_id: u64) -> String {
    let mut out = format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"run_id\":\"{run_id:016x}\"}},\"traceEvents\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\
             \"args\":{{\"id\":\"{:x}\",\"parent\":\"{:x}\",\"run_id\":\"{run_id:016x}\"}}}}",
            escape(&s.name),
            escape(&s.cat),
            s.start_us,
            s.dur_us,
            s.pid,
            s.tid,
            s.id,
            s.parent,
        );
    }
    out.push_str("]}");
    out
}

/// Total µs of the union of `spans`' intervals (overlaps counted once).
pub fn covered_us(spans: &[&Span]) -> f64 {
    let mut iv: Vec<(f64, f64)> = spans.iter().map(|s| (s.start_us, s.end_us())).collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_round_trip_the_job_protocol() {
        let mut rec = Recorder::new(3);
        let outer = rec.open("outer", 0);
        let (_, secs) = rec.time("plot(a b)", outer.id, || 1 + 1);
        rec.close(outer);
        assert!(secs >= 0.0);
        assert_eq!(rec.spans.len(), 2);
        let (inner, outer) = (&rec.spans[0], &rec.spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.id >> 32, 3);
        assert!(inner.start_us >= outer.start_us && inner.end_us() <= outer.end_us() + 1.0);
        for s in &rec.spans {
            assert_eq!(Span::from_line(&s.to_line()).as_ref(), Some(s));
        }
    }

    #[test]
    fn coverage_counts_overlaps_once() {
        let mk = |a: f64, b: f64| Span {
            id: 1,
            parent: 0,
            name: "x".into(),
            cat: "bench".into(),
            start_us: a,
            dur_us: b - a,
            pid: 0,
            tid: 0,
        };
        let spans = [mk(0.0, 10.0), mk(5.0, 12.0), mk(20.0, 25.0)];
        let refs: Vec<&Span> = spans.iter().collect();
        assert_eq!(covered_us(&refs), 17.0);
        assert_eq!(covered_us(&[]), 0.0);
    }

    #[test]
    fn chrome_trace_parses() {
        let mut rec = Recorder::new(0);
        rec.time("load \"x\"", 0, || ());
        let doc = crate::json::parse(&chrome_trace(&rec.spans, 7)).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("name").and_then(|n| n.as_str()),
            Some("load \"x\"")
        );
    }
}
