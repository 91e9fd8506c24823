//! Round-trips of the serde implementations (C-SERDE): configurations and
//! data structures must survive JSON serialization unchanged, so sessions
//! and experiment setups can be saved and replayed.

use mcds::observer::{CoreTraceConfig, DataTraceConfig, TraceQualifier};
use mcds::{
    AccessKind, CounterConfig, CounterMode, CrossTrigger, DataComparator, McdsConfig, MergePolicy,
    ProgramComparator, SignalRef, TriggerAction,
};
use mcds_host::Session;
use mcds_psi::device::DeviceVariant;
use mcds_psi::interface::InterfaceKind;
use mcds_replay::{
    DeltaOp, FleetSnapshot, Payload, ReproArtifact, ReproError, SnapshotIoError, SocSnapshot,
    FLEET_SNAPSHOT_VERSION, REPRO_VERSION, SNAPSHOT_VERSION,
};
use mcds_soc::bus::AddrRange;
use mcds_soc::cpu::CoreConfig;
use mcds_soc::event::CoreId;
use mcds_soc::isa::{AluOp, Instr, Reg};
use mcds_trace::{BranchBits, TimedMessage, TraceMessage, TraceSource};
use mcds_workloads::stimulus::Profile;
use mcds_workloads::{FuelMap, Workload};
use std::path::PathBuf;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn mcds_config_roundtrips_with_every_feature_used() {
    let config = McdsConfig {
        cores: vec![CoreTraceConfig {
            program_comparators: vec![ProgramComparator::at(0x8000_0000)],
            data_comparators: vec![DataComparator::on(
                AddrRange::new(0xD000_0000, 0x100),
                AccessKind::Write,
            )
            .with_value(0xAB, 0xFF)],
            program_trace: TraceQualifier::Window {
                start: SignalRef::Counter(0),
                stop: SignalRef::ProgComp {
                    core: CoreId(0),
                    idx: 0,
                },
            },
            data_trace: DataTraceConfig {
                qualifier: TraceQualifier::Always,
                filter: None,
            },
        }],
        counters: vec![CounterConfig {
            increment_on: SignalRef::ExternalPin(2),
            threshold: 7,
            reset_on: Some(SignalRef::CoreStopped(CoreId(1))),
            mode: CounterMode::Repeat,
        }],
        cross_triggers: vec![CrossTrigger::on_any(
            vec![SignalRef::DataComp {
                core: CoreId(0),
                idx: 0,
            }],
            TriggerAction::BreakCores(vec![CoreId(0), CoreId(1)]),
        )
        .with_count(3)],
        timestamp_resolution: 4,
        fifo_depth: 128,
        sink_bandwidth: 2,
        sink_drain_period: 16,
        sync_period: 32,
        history_mode: false,
        merge_policy: MergePolicy::SourcePriority,
        ..Default::default()
    };
    let back = roundtrip(&config);
    assert_eq!(back.cores, config.cores);
    assert_eq!(back.counters, config.counters);
    assert_eq!(back.cross_triggers, config.cross_triggers);
    assert_eq!(back.merge_policy, config.merge_policy);
    assert_eq!(back.timestamp_resolution, 4);
    // A deserialized config actually constructs a working block.
    let _ = mcds::Mcds::new(back);
}

#[test]
fn instructions_and_core_config_roundtrip() {
    let instrs = vec![
        Instr::Brk,
        Instr::Alu {
            op: AluOp::Mulh,
            rd: Reg::new(1),
            rs1: Reg::new(2),
            rs2: Reg::new(3),
        },
        Instr::Jal {
            rd: Reg::LR,
            imm: -500,
        },
    ];
    assert_eq!(roundtrip(&instrs), instrs);
    let cc = CoreConfig {
        reset_pc: 0x8001_0000,
        clock_div: 3,
        ..Default::default()
    };
    let back = roundtrip(&cc);
    assert_eq!(back.reset_pc, cc.reset_pc);
    assert_eq!(back.clock_div, cc.clock_div);
}

#[test]
fn trace_messages_roundtrip() {
    let mut h = BranchBits::new();
    h.push(true);
    h.push(false);
    let msgs = vec![
        TimedMessage {
            timestamp: 99,
            source: TraceSource::Core(CoreId(0)),
            message: TraceMessage::IndirectBranch {
                i_cnt: 5,
                history: h,
                target: 0x1234,
            },
        },
        TimedMessage {
            timestamp: 100,
            source: TraceSource::Bus,
            message: TraceMessage::DataWrite {
                addr: 0xD000_0000,
                value: 7,
                width: mcds_soc::MemWidth::Half,
            },
        },
    ];
    assert_eq!(roundtrip(&msgs), msgs);
}

#[test]
fn fuel_map_and_profile_roundtrip() {
    let map = FuelMap::factory().lean();
    assert_eq!(roundtrip(&map), map);
    let profile = Profile::drive_cycle(0, 1, 100_000);
    let back = roundtrip(&profile);
    assert_eq!(back.samples(), profile.samples());
}

#[test]
fn device_variants_roundtrip() {
    for v in [
        DeviceVariant::Production,
        DeviceVariant::EdSideBooster,
        DeviceVariant::EdCarrierChip,
        DeviceVariant::EdBoosterChip,
        DeviceVariant::SelectiveBooster,
    ] {
        assert_eq!(roundtrip(&v), v);
        // VariantInfo is serialize-only (it carries static strings): check
        // the JSON carries the inventory facts.
        let json = serde_json::to_string(&v.info()).expect("serializes");
        assert!(json.contains("emulation_ram_bytes"));
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcds-serde-test-{}-{name}", std::process::id()))
}

// ---- snapshot byte images ------------------------------------------------

#[test]
fn raw_payload_roundtrips_empty_and_every_byte_value() {
    for bytes in [Vec::new(), (0..=255u8).collect::<Vec<u8>>()] {
        let payload = Payload::Raw(bytes);
        assert_eq!(roundtrip(&payload), payload);
    }
    // One lowercase-hex string per image, externally tagged.
    let json = serde_json::to_string(&Payload::Raw(vec![0x00, 0xab, 0xff])).unwrap();
    assert_eq!(json, r#"{"Raw":"00abff"}"#);
}

#[test]
fn delta_and_same_payloads_roundtrip() {
    let delta = Payload::Delta {
        len: 4096,
        ops: vec![
            DeltaOp {
                offset: 0,
                bytes: vec![0xff],
            },
            DeltaOp {
                offset: 100,
                bytes: (0..=255u8).rev().collect(),
            },
            DeltaOp {
                offset: 4000,
                bytes: vec![1, 2, 3, 4],
            },
        ],
    };
    assert_eq!(roundtrip(&delta), delta);
    assert_eq!(roundtrip(&Payload::Same), Payload::Same);
    let json = serde_json::to_string(&delta).unwrap();
    assert!(
        json.starts_with(r#"{"Delta":{"len":4096,"ops":[{"offset":0,"bytes":"ff"}"#),
        "{json}"
    );
}

#[test]
fn bad_hex_is_a_typed_error() {
    let bad = [r#""abc""#, r#""0g""#, r#""AB""#, "[1,2]"];
    for image in bad {
        let raw = format!(r#"{{"Raw":{image}}}"#);
        assert!(serde_json::from_str::<Payload>(&raw).is_err(), "{raw}");
        let op = format!(r#"{{"offset":0,"bytes":{image}}}"#);
        assert!(serde_json::from_str::<DeltaOp>(&op).is_err(), "{op}");
    }
    for image in &bad[..3] {
        let file = format!(
            r#"{{"version":{SNAPSHOT_VERSION},"cycle":0,"components":[{{"name":"soc/sram","hash":0,"payload":{{"Raw":{image}}}}}]}}"#
        );
        let path = temp_path("bad-hex.json");
        std::fs::write(&path, file).unwrap();
        assert!(
            matches!(SocSnapshot::load(&path), Err(SnapshotIoError::Json { .. })),
            "{image}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn saved_engine_snapshot_stays_near_its_stored_size() {
    let w = Workload::Engine;
    let mut dev = mcds_farm::device_spec(w, false).build();
    dev.soc_mut().load_program(&w.program());
    let mut session = Session::attach(dev, InterfaceKind::Jtag, &w.program(), None).unwrap();
    session.run(20_000);
    let snap = session.suspend().soc;
    let path = temp_path("engine-size.json");
    snap.save(&path).unwrap();
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    let loaded = SocSnapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, snap);
    assert!(
        file_len <= 2 * snap.stored_bytes() + 64 * 1024,
        "{file_len} bytes on disk for {} stored",
        snap.stored_bytes()
    );
}

/// A format-1 snapshot as written before byte images became hex strings:
/// one JSON integer per byte.
const V1_SNAPSHOT: &str = r#"{"version":1,"cycle":5,"components":[{"name":"soc/sram","hash":0,"payload":{"Raw":[1,2,3]}}]}"#;

#[test]
fn pre_hex_files_report_their_version() {
    let path = temp_path("v1-snapshot.json");
    std::fs::write(&path, V1_SNAPSHOT).unwrap();
    assert!(matches!(
        SocSnapshot::load(&path),
        Err(SnapshotIoError::Version { found: 1, expected }) if expected == SNAPSHOT_VERSION
    ));
    // The same body under the current version number does not decode.
    let relabelled = V1_SNAPSHOT.replacen(
        r#""version":1"#,
        &format!(r#""version":{SNAPSHOT_VERSION}"#),
        1,
    );
    std::fs::write(&path, relabelled).unwrap();
    assert!(matches!(
        SocSnapshot::load(&path),
        Err(SnapshotIoError::Json { .. })
    ));

    let fleet = format!(
        r#"{{"version":1,"cycle":0,"members":[["engine",{V1_SNAPSHOT}]],"fabric_json":"{{}}","fabric_hash":0}}"#
    );
    std::fs::write(&path, fleet).unwrap();
    assert!(matches!(
        FleetSnapshot::load(&path),
        Err(SnapshotIoError::Version { found: 1, expected }) if expected == FLEET_SNAPSHOT_VERSION
    ));
    std::fs::remove_file(&path).ok();

    let repro = format!(
        r#"{{"version":2,"kind":"panic","detail":"","seed":1,"cycles":10,"expected_state_hash":0,"scenario_json":"{{}}","log":{{"events":[]}},"snapshot":{V1_SNAPSHOT},"flight_recorder":""}}"#
    );
    assert!(matches!(
        ReproArtifact::from_json(&repro),
        Err(ReproError::Version { found: 2, expected }) if expected == REPRO_VERSION
    ));
}

// ---- vendored serde_json string handling ---------------------------------

#[test]
fn strings_roundtrip_byte_for_byte() {
    let control: String = (0u8..0x20).map(char::from).collect();
    let cases = [
        String::new(),
        "plain".to_string(),
        r#"quote " and backslash \ and \" both"#.to_string(),
        control,
        "é\"日本\\🎉\n€\u{1}ü".to_string(),
        "x".repeat(1 << 20),
    ];
    for s in &cases {
        let json = serde_json::to_string(s).unwrap();
        let back: String = serde_json::from_str(&json).unwrap();
        assert_eq!(back.as_bytes(), s.as_bytes());
    }
    // The written bytes are the stub's escapes, unchanged.
    assert_eq!(
        serde_json::to_string(&"a\"b\\c\n\r\t\u{1}é").unwrap(),
        r#""a\"b\\c\n\r\t\u0001é""#
    );
    assert_eq!(
        serde_json::to_string(&"line\nbreak\u{1f}").unwrap(),
        r#""line\nbreak\u001f""#
    );
    // `\u` escapes decode, also right next to multi-byte UTF-8.
    let back: String = serde_json::from_str(r#""caf\u00e9 日\u00e9本\/""#).unwrap();
    assert_eq!(back, "café 日é本/");
}

#[test]
fn unterminated_strings_are_errors() {
    for json in [r#"""#, r#""abc"#, r#""abc\""#, r#""abc\"#, r#""日本"#] {
        assert!(serde_json::from_str::<String>(json).is_err(), "{json}");
    }
}
