//! Workspace-level telemetry guarantees: attaching the observability layer
//! must never change what the device computes (bit-identical replay with
//! telemetry on vs off), the health report must reflect real counters on a
//! real workload, and both exporters must round-trip.

use mcds::observer::{CoreTraceConfig, TraceQualifier};
use mcds::McdsConfig;
use mcds_host::HealthReport;
use mcds_psi::device::{DebugOp, Device, DeviceBuilder, DeviceVariant};
use mcds_psi::faults::FaultPlan;
use mcds_psi::interface::InterfaceKind;
use mcds_replay::{device_state_hash, trace_bytes, InputLog, Replayer, SocSnapshot};
use mcds_soc::cpu::CoreConfig;
use mcds_soc::event::CoreId;
use mcds_soc::soc::memmap;
use mcds_telemetry::{Telemetry, TelemetrySnapshot};
use mcds_workloads::gearbox;
use mcds_workloads::stimulus::Profile;
use mcds_xcp::{RetryPolicy, XcpMaster};

const RUN_CYCLES: u64 = 60_000;

fn traced_gearbox_device() -> Device {
    let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
        .core(CoreConfig {
            reset_pc: 0x8001_0000,
            clock_div: 1,
            ..Default::default()
        })
        .mcds(McdsConfig {
            cores: vec![CoreTraceConfig {
                program_trace: TraceQualifier::Always,
                ..Default::default()
            }],
            fifo_depth: 512,
            sink_bandwidth: 4,
            ..Default::default()
        })
        .build();
    dev.soc_mut().load_program(&gearbox::program(None));
    dev
}

/// Drives one device through the full recorded scenario: a stimulus ramp
/// replayed from `log`, seeded link faults, debug traffic and a short
/// lossy XCP calibration session.
fn scripted_run(dev: &mut Device, log: &InputLog) {
    let mut rep = Replayer::new(log);
    mcds_replay::run_with_events(dev, &mut rep, RUN_CYCLES);
    dev.execute(InterfaceKind::Jtag, DebugOp::HaltCore(CoreId(0)))
        .expect("halt");
    dev.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(0xBEEF, 50));
    let mut master = XcpMaster::new(InterfaceKind::Usb11);
    master.set_retry_policy(RetryPolicy::standard());
    master.connect(dev).expect("connect through loss");
    for i in 0..6u32 {
        let addr = memmap::SRAM_BASE + 0x100 + (i % 3) * 16;
        master.write_block(dev, addr, &[9, 8, 7, 6]).expect("write");
        assert_eq!(
            master.read_block(dev, addr, 4).expect("read"),
            vec![9, 8, 7, 6]
        );
    }
}

#[test]
fn replay_is_bit_identical_with_telemetry_on_and_off() {
    let log = InputLog::from_profile(&Profile::ramp(
        gearbox::SPEED_PORT,
        5,
        110,
        0,
        RUN_CYCLES,
        40,
    ));

    let mut plain = traced_gearbox_device();
    scripted_run(&mut plain, &log);

    let tel = Telemetry::new();
    let mut observed = traced_gearbox_device();
    observed.attach_telemetry(tel.clone());
    scripted_run(&mut observed, &log);
    observed.publish_telemetry();

    // The observed run actually produced telemetry...
    let snap = tel.snapshot();
    assert!(!snap.metrics.is_empty());
    assert!(
        snap.metrics
            .iter()
            .any(|m| m.name == "telemetry_spans_total"),
        "spans were recorded"
    );

    // ...and not a single architectural bit differs.
    assert_eq!(
        device_state_hash(&observed),
        device_state_hash(&plain),
        "state hash must be identical with telemetry attached"
    );
    assert_eq!(
        trace_bytes(&observed).expect("trace memory"),
        trace_bytes(&plain).expect("trace memory"),
        "encoded trace stream must be bit-identical"
    );
    assert_eq!(
        SocSnapshot::capture(&observed).state_hash(),
        SocSnapshot::capture(&plain).state_hash(),
        "full snapshot hash must be identical"
    );
}

#[test]
fn telemetry_survives_detach_and_snapshot_restore() {
    let mut dev = traced_gearbox_device();
    let tel = Telemetry::new();
    dev.attach_telemetry(tel.clone());
    dev.run_cycles(500);
    let snap = SocSnapshot::capture(&dev);
    // Restoring replaces the whole DeviceState — the attachment must not
    // live inside it.
    snap.restore_into(&mut dev);
    assert!(dev.telemetry().is_some(), "telemetry survives restore");
    dev.detach_telemetry();
    assert!(dev.telemetry().is_none());
    // A snapshot captured while detached is identical in hash to one
    // captured while attached at the same cycle.
    let again = SocSnapshot::capture(&dev);
    assert_eq!(snap.state_hash(), again.state_hash());
}

#[test]
fn health_report_reflects_a_real_workload() {
    let log = InputLog::from_profile(&Profile::ramp(
        gearbox::SPEED_PORT,
        5,
        110,
        0,
        RUN_CYCLES,
        40,
    ));
    let tel = Telemetry::new();
    let mut dev = traced_gearbox_device();
    dev.attach_telemetry(tel.clone());
    let mut rep = Replayer::new(&log);
    mcds_replay::run_with_events(&mut dev, &mut rep, RUN_CYCLES);
    dev.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(0xF00D, 50));
    let mut master = XcpMaster::new(InterfaceKind::Usb11);
    master.set_retry_policy(RetryPolicy::standard());
    master.connect(&mut dev).expect("connect");
    for _ in 0..10 {
        master
            .write_block(&mut dev, memmap::SRAM_BASE + 0x40, &[1; 16])
            .expect("write");
    }
    dev.publish_telemetry();
    master.publish_telemetry(&tel);

    let report = HealthReport::gather(&dev).with_xcp(&master);
    // Non-zero bus utilization, attributed per master.
    assert!(report.bus_utilization > 0.0);
    assert!(report.masters.iter().any(|m| m.grants > 0));
    // The trace path filled FIFOs.
    assert!(report.fifos.iter().any(|f| f.high_water > 0));
    assert!(report.fifos.iter().any(|f| f.pushed > 0));
    // Seeded faults produced non-zero link errors and retries, and the
    // report's numbers are the master's own counters.
    let xcp = report.xcp.expect("xcp folded in");
    assert!(
        xcp.error_rate > 0.0,
        "lossy link shows a non-zero error rate"
    );
    assert!(xcp.stats.timeouts > 0);
    assert!(xcp.stats.retries + xcp.stats.synchs > 0);
    assert_eq!(xcp.stats, master.recovery_stats());
    // And the rendered table mentions each section.
    let text = report.to_string();
    for needle in ["mcds-top", "cores", "fifos", "links", "xcp"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn exports_round_trip_on_a_populated_registry() {
    let tel = Telemetry::new();
    let mut dev = traced_gearbox_device();
    dev.attach_telemetry(tel.clone());
    dev.run_cycles(2_000);
    dev.publish_telemetry();

    let json = tel.to_json();
    let parsed: TelemetrySnapshot = serde_json::from_str(&json).expect("JSON parses back");
    assert_eq!(parsed, tel.snapshot());
    assert!(parsed
        .metrics
        .iter()
        .any(|m| m.name == "mcds_sim_cycles_total"));

    let prom = tel.to_prometheus();
    let samples = mcds_telemetry::validate_prometheus(&prom).expect("valid Prometheus text");
    assert!(samples >= parsed.metrics.len());
    assert!(prom.contains("# TYPE mcds_sim_cycles_total counter"));
}
