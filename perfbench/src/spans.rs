//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out at exit as a Chrome trace that opens in Perfetto.

use mcds_analysis::chrome::{ChromeEvent, ChromeTrace, PID};
use serde::Value;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `farm.rpc.session.run`.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The op (or ladder repetition) the call belongs to.
    pub op: u64,
}

/// A per-thread span recorder; recording is a no-op when disabled.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    /// Track (thread) id in the exported trace.
    pub tid: u32,
    /// Spans recorded so far.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder sharing `epoch` with the run's other recorders.
    pub fn new(epoch: Instant, enabled: bool, tid: u32) -> Spans {
        Spans {
            epoch,
            enabled,
            tid,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished call; returns its index.
    pub fn record(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &str, op: u64, start: Instant) -> Option<usize> {
        self.record(name, op, None, start, start)
    }

    /// Ends a span opened by [`Spans::open`].
    pub fn close(&mut self, index: Option<usize>, end: Instant) {
        if let Some(i) = index {
            self.spans[i].end_ns = self.ns(end);
        }
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children of one parent never overlap: each recorder is one
/// thread).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Renders every recorder's spans as a Chrome trace (one track per
/// recorder; op id, parent name and self time in each event's args).
pub fn chrome_trace(recorders: &[&Spans]) -> ChromeTrace {
    let mut events = Vec::new();
    for r in recorders {
        events.push(ChromeEvent {
            name: "thread_name".to_string(),
            cat: "__metadata".to_string(),
            ph: "M".to_string(),
            ts: 0.0,
            dur: 0.0,
            pid: PID,
            tid: r.tid,
            args: Value::Map(vec![(
                "name".to_string(),
                Value::Str(format!("perfbench-{}", r.tid)),
            )]),
        });
        let own = self_ns(&r.spans);
        for (s, own_ns) in r.spans.iter().zip(own) {
            let parent = s
                .parent
                .map_or(Value::Null, |p| Value::Str(r.spans[p].name.clone()));
            events.push(ChromeEvent {
                name: s.name.clone(),
                cat: s.name.split('.').next().unwrap_or("bench").to_string(),
                ph: "X".to_string(),
                ts: s.start_ns as f64 / 1e3,
                dur: (s.end_ns - s.start_ns) as f64 / 1e3,
                pid: PID,
                tid: r.tid,
                args: Value::Map(vec![
                    ("op".to_string(), Value::Int(i128::from(s.op))),
                    ("parent".to_string(), parent),
                    ("self_us".to_string(), Value::Float(own_ns as f64 / 1e3)),
                ]),
            });
        }
    }
    ChromeTrace { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_export_round_trips() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut s = Spans::new(epoch, true, 1);
        let op = s.open("op", 7, at(0));
        s.record("farm.rpc.session.run", 7, op, at(10), at(60));
        s.record("farm.rpc.trace.pull", 7, op, at(60), at(90));
        s.close(op, at(100));
        assert_eq!(self_ns(&s.spans), vec![20_000, 50_000, 30_000]);

        let trace = chrome_trace(&[&s]);
        assert_eq!(trace.events.len(), 4);
        let back = ChromeTrace::from_json(&trace.to_json()).expect("valid trace json");
        assert_eq!(back, trace);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let epoch = Instant::now();
        let mut s = Spans::new(epoch, false, 1);
        let op = s.open("op", 1, epoch);
        s.record("x", 1, op, epoch, epoch);
        s.close(op, epoch);
        assert!(s.spans.is_empty());
    }
}
