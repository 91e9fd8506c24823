//! Cycle-stamped span instrumentation keyed by subsystem.
//!
//! A span records one unit of work — a bus arbitration round, a FIFO
//! drain, one trace encode batch, an XCP transaction, a snapshot capture
//! — as `(subsystem, start_cycle, end_cycle, wall_ns)`. A span is not
//! stored: [`crate::Telemetry::span`] adds it to three registry counters
//! labelled `subsystem="<name>"` (count, simulated cycles, host wall
//! nanoseconds), so totals stay exact however many spans arrive. The
//! per-event history of the service-level spans lives in the obs journal.

/// The instrumented subsystems.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// Bus arbitration of a debug-initiated access.
    BusArbitration,
    /// Draining trace FIFOs through the message sorter.
    FifoDrain,
    /// Encoding and storing trace messages into the sink.
    TraceEncode,
    /// Host-side decode of fetched trace bytes.
    TraceDecode,
    /// One XCP command/response transaction, including retries.
    XcpTransaction,
    /// Capturing a device snapshot.
    Snapshot,
    /// Restoring a device snapshot.
    Restore,
    /// One debug-link operation (JTAG/USB/CAN transaction).
    DebugLink,
    /// One fault-campaign scenario execution (record + replay + triage).
    Campaign,
    /// One debug-farm scheduling quantum (multi-session service work).
    Farm,
    /// One virtual-vehicle fabric step burst (CAN arbitration, gateway
    /// forwarding, fleet calibration work).
    Vnet,
}

impl Subsystem {
    /// Every subsystem, in a stable order.
    pub const ALL: [Subsystem; 11] = [
        Subsystem::BusArbitration,
        Subsystem::FifoDrain,
        Subsystem::TraceEncode,
        Subsystem::TraceDecode,
        Subsystem::XcpTransaction,
        Subsystem::Snapshot,
        Subsystem::Restore,
        Subsystem::DebugLink,
        Subsystem::Campaign,
        Subsystem::Farm,
        Subsystem::Vnet,
    ];

    /// Stable snake_case name used as the exported label value.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::BusArbitration => "bus_arbitration",
            Subsystem::FifoDrain => "fifo_drain",
            Subsystem::TraceEncode => "trace_encode",
            Subsystem::TraceDecode => "trace_decode",
            Subsystem::XcpTransaction => "xcp_transaction",
            Subsystem::Snapshot => "snapshot",
            Subsystem::Restore => "restore",
            Subsystem::DebugLink => "debug_link",
            Subsystem::Campaign => "campaign",
            Subsystem::Farm => "farm",
            Subsystem::Vnet => "vnet",
        }
    }
}

impl std::fmt::Display for Subsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The three counter families every span adds to, as `(name, help)`:
/// span count, simulated cycles covered, host wall nanoseconds spent.
pub(crate) const SPAN_FAMILIES: [(&str, &str); 3] = [
    ("telemetry_spans_total", "spans recorded per subsystem"),
    (
        "telemetry_span_sim_cycles_total",
        "simulated cycles covered by spans",
    ),
    (
        "telemetry_span_wall_ns_total",
        "host wall nanoseconds spent in spans",
    ),
];
