#![warn(missing_docs)]

//! # mcds-telemetry — workspace self-observability
//!
//! The emulator stack observes the paper's SoC; this crate observes the
//! emulator stack itself. It provides:
//!
//! * a metrics [`Registry`] of monotonic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s — registration takes a lock once, but
//!   every *sample* is a handful of atomic operations with no allocation,
//!   so hot paths (the per-cycle device step, per-transaction link
//!   accounting) can stay instrumented permanently;
//! * cycle-stamped subsystem spans ([`Telemetry::span`]: bus
//!   arbitration, FIFO drain, trace encode/decode, XCP transactions,
//!   snapshot/restore, …) that add their count, simulated cycles and
//!   host wall nanoseconds to three registry counters labelled by
//!   [`Subsystem`]. Nothing per span is kept here; the obs journal is the
//!   one bounded ring of per-event records;
//! * two exporters over one [`TelemetrySnapshot`]: Prometheus text
//!   exposition ([`to_prometheus`]) and a JSON document
//!   ([`to_json`]) written next to the bench `--out-dir` artifacts.
//!
//! ## The determinism boundary
//!
//! Telemetry is strictly *outside* the deterministic device model: it is
//! never serialized into `DeviceState`/`SocSnapshot`, never hashed, and
//! never recorded in the replay input log. Wall-clock readings
//! (`Instant`-based span durations, throughput gauges) live only here.
//! Attaching or detaching telemetry must therefore never change a single
//! simulated cycle — the suite's determinism test replays a recorded run
//! with telemetry on and off and asserts bit-identical state hashes.

use std::sync::{Arc, OnceLock};

mod export;
mod metrics;
mod spans;
mod throughput;

use spans::SPAN_FAMILIES;

pub use export::{to_json, to_prometheus, validate_prometheus};
pub use metrics::{
    Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry, TelemetrySnapshot,
};
pub use spans::Subsystem;
pub use throughput::ThroughputMeter;

/// The shared telemetry bundle: one registry, with the span counters
/// living in it.
///
/// Cheap to clone (an `Arc` internally); every subsystem that wants to
/// publish holds a clone and samples through it. A detached subsystem
/// simply holds no handle — sampling is skipped entirely, so disabled
/// telemetry costs one branch.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

#[derive(Debug, Default)]
struct TelemetryInner {
    registry: Registry,
    /// Each subsystem's [`SPAN_FAMILIES`] counters, registered on its
    /// first span.
    spans: [OnceLock<[Counter; 3]>; Subsystem::ALL.len()],
}

impl Telemetry {
    /// Creates an empty telemetry bundle.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Records one completed span: adds 1 to `telemetry_spans_total`,
    /// `end_cycle - start_cycle` (saturating at 0) to
    /// `telemetry_span_sim_cycles_total` and `wall_ns` to
    /// `telemetry_span_wall_ns_total`, each labelled
    /// `subsystem="<name>"`. The counters are registered on the
    /// subsystem's first span; later spans are three relaxed atomic adds.
    pub fn span(&self, subsystem: Subsystem, start_cycle: u64, end_cycle: u64, wall_ns: u64) {
        let [count, sim_cycles, wall] = self.inner.spans[subsystem as usize].get_or_init(|| {
            let labels = [("subsystem", subsystem.name())];
            SPAN_FAMILIES.map(|(name, help)| self.inner.registry.counter_with(name, help, &labels))
        });
        count.inc();
        sim_cycles.add(end_cycle.saturating_sub(start_cycle));
        wall.add(wall_ns);
    }

    /// Captures a point-in-time snapshot of every metric (the input to
    /// both exporters).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.inner.registry.snapshot()
    }

    /// Renders the current state in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        to_prometheus(&self.snapshot())
    }

    /// Renders the current state as a JSON document.
    pub fn to_json(&self) -> String {
        to_json(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_roundtrips_through_both_exporters() {
        let tel = Telemetry::new();
        tel.registry().counter("demo_events_total", "events").add(3);
        tel.registry().gauge("demo_fill", "fill level").set(0.5);
        tel.span(Subsystem::TraceEncode, 10, 20, 1_000);
        let snap = tel.snapshot();
        let json = to_json(&snap);
        let back: TelemetrySnapshot = serde_json::from_str(&json).expect("JSON export parses");
        assert_eq!(back.metrics.len(), snap.metrics.len());
        let prom = to_prometheus(&snap);
        let samples = validate_prometheus(&prom).expect("prometheus export parses");
        assert_eq!(samples, 5);
        assert!(prom.contains("demo_events_total 3"));
    }

    /// `family{subsystem="<sub>"}` as seen through `tel`.
    fn span_counter(tel: &Telemetry, family: &str, sub: Subsystem) -> Option<u64> {
        tel.snapshot().counter(family, &[("subsystem", sub.name())])
    }

    #[test]
    fn spans_count_exactly_per_subsystem() {
        let tel = Telemetry::new();
        for i in 0..5_000u64 {
            tel.span(Subsystem::FifoDrain, i, i + 2, 3);
        }
        tel.span(Subsystem::Restore, 50, 10, 0);
        let fifo = Subsystem::FifoDrain;
        assert_eq!(
            span_counter(&tel, "telemetry_spans_total", fifo),
            Some(5_000)
        );
        let cycles = span_counter(&tel, "telemetry_span_sim_cycles_total", fifo);
        assert_eq!(cycles, Some(10_000));
        let wall = span_counter(&tel, "telemetry_span_wall_ns_total", fifo);
        assert_eq!(wall, Some(15_000));
        let restore = span_counter(&tel, "telemetry_span_sim_cycles_total", Subsystem::Restore);
        assert_eq!(restore, Some(0), "backwards cycles saturate");
        let prom = tel.to_prometheus();
        assert!(
            !prom.contains("subsystem=\"vnet\""),
            "idle subsystems export nothing"
        );
        assert_eq!(
            span_counter(&tel, "telemetry_spans_total", Subsystem::Vnet),
            None
        );
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::new();
        let other = tel.clone();
        other.registry().counter("shared_total", "shared").inc();
        tel.span(Subsystem::Snapshot, 0, 4, 1);
        other.span(Subsystem::Snapshot, 4, 8, 1);
        let snap = tel.snapshot();
        assert_eq!(
            snap.metrics[0].value,
            MetricValue::Counter(1),
            "clone writes are visible through the original"
        );
        assert_eq!(snap.metrics.len(), 4, "span counters registered once");
        let sim = span_counter(&tel, "telemetry_span_sim_cycles_total", Subsystem::Snapshot);
        assert_eq!(sim, Some(8));
    }
}
