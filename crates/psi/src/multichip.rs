//! Multi-chip test benches: wiring trigger pins between devices.
//!
//! Section 4: the break & suspend switch "manages the response to both
//! on-chip and **external** trigger inputs", and PSI explicitly targets
//! in-system use (a controller mounted inside the gearbox). A real
//! powertrain has several ECUs; this module co-simulates multiple
//! [`Device`]s and wires one device's trigger-out pins to another's
//! trigger-in lines, so a trigger on the engine ECU can stop the gearbox
//! ECU at the same (simulated) instant — something no single-chip debugger
//! offers.

use crate::device::Device;
use mcds_soc::sink::NullSink;
use std::fmt;

/// One wire: `from` device's trigger-out `pin` drives `to` device's
/// trigger-in `line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerWire {
    /// Source device index.
    pub from: usize,
    /// Source trigger-out pin.
    pub pin: u8,
    /// Destination device index.
    pub to: usize,
    /// Destination trigger-in line.
    pub line: u8,
}

/// How many cycles a wired pulse holds the destination line high.
const PULSE_WIDTH: u64 = 2;

/// A co-simulated set of devices with trigger wiring.
pub struct MultiChipBench {
    devices: Vec<Device>,
    wires: Vec<TriggerWire>,
    // Per device: how much of its trigger-out logs we've already forwarded.
    seen_mcds_pulses: Vec<usize>,
    seen_app_pulses: Vec<usize>,
    // Per device: per-line deassert deadline (cycle of *that* device).
    line_deadlines: Vec<Vec<(u8, u64)>>,
    // Per device: the trigger-in lines this bench's wiring owns. Lines
    // outside the mask (driven by a host, stimulus replay, or another
    // fabric layer) are left untouched when pulse levels are applied.
    wired_lines: Vec<u32>,
}

impl fmt::Debug for MultiChipBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiChipBench")
            .field("devices", &self.devices.len())
            .field("wires", &self.wires)
            .finish()
    }
}

impl MultiChipBench {
    /// Creates a bench over `devices` with the given wiring.
    ///
    /// # Panics
    ///
    /// Panics if a wire references a device index out of range.
    pub fn new(devices: Vec<Device>, wires: Vec<TriggerWire>) -> MultiChipBench {
        let n = devices.len();
        let mut wired_lines = vec![0u32; n];
        for w in &wires {
            assert!(w.from < n && w.to < n, "wire references unknown device");
            wired_lines[w.to] |= 1 << w.line;
        }
        MultiChipBench {
            seen_mcds_pulses: vec![0; n],
            seen_app_pulses: vec![0; n],
            line_deadlines: vec![Vec::new(); n],
            wired_lines,
            devices,
            wires,
        }
    }

    /// Number of co-simulated devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the bench holds no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Adds another wire to the harness (N-device topologies are often
    /// grown incrementally — daisy chains, stars, full meshes).
    ///
    /// # Panics
    ///
    /// Panics if the wire references a device index out of range.
    pub fn add_wire(&mut self, wire: TriggerWire) {
        let n = self.devices.len();
        assert!(
            wire.from < n && wire.to < n,
            "wire references unknown device"
        );
        self.wired_lines[wire.to] |= 1 << wire.line;
        self.wires.push(wire);
    }

    /// The devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Mutable access to device `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device_mut(&mut self, i: usize) -> &mut Device {
        &mut self.devices[i]
    }

    /// Steps every device one cycle and propagates trigger pulses across
    /// the wiring (one cycle of wire delay).
    pub fn step(&mut self) {
        // 1. Step all devices.
        for d in &mut self.devices {
            d.step_into(&mut NullSink);
        }
        // 2. Collect fresh pulses: MCDS trigger-out actions and
        //    application writes to TRIG_OUT.
        let mut fired: Vec<(usize, u8)> = Vec::new();
        for (i, d) in self.devices.iter().enumerate() {
            let mcds_log = d.trigger_out_log();
            for &(_, pin) in &mcds_log[self.seen_mcds_pulses[i]..] {
                fired.push((i, pin));
            }
            self.seen_mcds_pulses[i] = mcds_log.len();
            let app_log = d.soc().periph().trigger_out_pulses();
            for &(_, mask) in &app_log[self.seen_app_pulses[i]..] {
                for pin in 0..32u8 {
                    if mask & (1 << pin) != 0 {
                        fired.push((i, pin));
                    }
                }
            }
            self.seen_app_pulses[i] = app_log.len();
        }
        // 3. Drive destination lines for PULSE_WIDTH cycles.
        for (src, pin) in fired {
            for w in &self.wires {
                if w.from == src && w.pin == pin {
                    let until = self.devices[w.to].soc().cycle() + PULSE_WIDTH;
                    self.line_deadlines[w.to].push((w.line, until));
                }
            }
        }
        // 4. Apply line levels (pulse expiry included). Only the lines this
        //    bench's wiring owns are rewritten: with 2 devices the whole
        //    level was always wire-driven, but in an N-device fabric other
        //    layers (host replay, a bus-carried trigger fabric) may hold
        //    other lines high — those bits pass through untouched.
        for (i, deadlines) in self.line_deadlines.iter_mut().enumerate() {
            if self.wired_lines[i] == 0 {
                continue;
            }
            let now = self.devices[i].soc().cycle();
            deadlines.retain(|&(_, until)| until > now);
            let mut level = 0u32;
            for &(line, _) in deadlines.iter() {
                level |= 1 << line;
            }
            let periph = self.devices[i].soc_mut().periph_mut();
            let outside = periph.trigger_in() & !self.wired_lines[i];
            periph.set_trigger_in(outside | level);
        }
    }

    /// Steps `n` cycles.
    pub fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceBuilder, DeviceVariant};
    use mcds::observer::CoreTraceConfig;
    use mcds::{AccessKind, CrossTrigger, DataComparator, McdsConfig, SignalRef, TriggerAction};
    use mcds_soc::asm::assemble;
    use mcds_soc::bus::AddrRange;
    use mcds_soc::event::CoreId;

    /// Engine ECU: writes a torque value every pass. Gearbox ECU: free-runs.
    /// A data watchpoint on the engine ECU pulses pin 0; the wire breaks
    /// the gearbox ECU's core through its external-pin cross trigger.
    #[test]
    fn trigger_on_one_ecu_stops_the_other() {
        // ECU A: fire trigger-out pin 0 on the 20th torque write.
        let mut cfg_a = McdsConfig {
            cores: vec![CoreTraceConfig {
                data_comparators: vec![DataComparator::on(
                    AddrRange::new(0xD000_0004, 4),
                    AccessKind::Write,
                )],
                ..Default::default()
            }],
            ..Default::default()
        };
        cfg_a.cross_triggers = vec![CrossTrigger::on_any(
            vec![SignalRef::DataComp {
                core: CoreId(0),
                idx: 0,
            }],
            TriggerAction::TriggerOutPin(0),
        )
        .with_count(20)];
        let mut ecu_a = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .mcds(cfg_a)
            .build();
        ecu_a.soc_mut().load_program(
            &assemble(
                "
                .org 0x80000000
                start:
                    li r2, 0xD0000004
                loop:
                    addi r1, r1, 1
                    sw r1, 0(r2)
                    j loop
                ",
            )
            .unwrap(),
        );

        // ECU B: break its core when external pin 0 rises.
        let cfg_b = McdsConfig {
            cores: vec![CoreTraceConfig::default()],
            cross_triggers: vec![CrossTrigger::on_any(
                vec![SignalRef::ExternalPin(0)],
                TriggerAction::BreakCores(vec![CoreId(0)]),
            )],
            ..Default::default()
        };
        let mut ecu_b = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .mcds(cfg_b)
            .build();
        ecu_b
            .soc_mut()
            .load_program(&assemble(".org 0x80000000\nloop: addi r1, r1, 1\nj loop").unwrap());

        let mut bench = MultiChipBench::new(
            vec![ecu_a, ecu_b],
            vec![TriggerWire {
                from: 0,
                pin: 0,
                to: 1,
                line: 0,
            }],
        );
        bench.run_cycles(5_000);
        assert!(
            bench.devices()[1].soc().core(CoreId(0)).is_halted(),
            "gearbox ECU halted by the engine ECU's trigger"
        );
        assert!(
            !bench.devices()[0].soc().core(CoreId(0)).is_halted(),
            "engine ECU keeps running (the switch routes per action)"
        );
        // ECU A ran the full 5 000 cycles (it was never stopped), but ECU B
        // froze around the 20th torque write — early in the run.
        let a_writes = bench.devices()[0].soc().backdoor_read_word(0xD000_0004);
        assert!(a_writes > 100, "ECU A kept producing ({a_writes} writes)");
        let b_retired = bench.devices()[1].soc().core(CoreId(0)).retired();
        assert!(
            b_retired < 200,
            "ECU B stopped near the trigger instant (retired {b_retired})"
        );
    }

    /// A free-running single-core device with `cfg` installed.
    fn relay_device(cfg: McdsConfig) -> Device {
        let mut d = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .mcds(cfg)
            .build();
        d.soc_mut()
            .load_program(&assemble(".org 0x80000000\nloop: addi r1, r1, 1\nj loop").unwrap());
        d
    }

    /// Regression for the N ≥ 3 generalisation: A's comparator pulse must
    /// propagate transitively A→B→C through B's pin-to-pin relay — each
    /// hop through the bench's forwarding bookkeeping, not a direct wire.
    #[test]
    fn transitive_trigger_propagates_across_three_devices() {
        // A: data watchpoint fires trigger-out pin 0.
        let mut cfg_a = McdsConfig {
            cores: vec![CoreTraceConfig {
                data_comparators: vec![DataComparator::on(
                    AddrRange::new(0xD000_0004, 4),
                    AccessKind::Write,
                )],
                ..Default::default()
            }],
            ..Default::default()
        };
        cfg_a.cross_triggers = vec![CrossTrigger::on_any(
            vec![SignalRef::DataComp {
                core: CoreId(0),
                idx: 0,
            }],
            TriggerAction::TriggerOutPin(0),
        )
        .with_count(10)];
        let mut ecu_a = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .mcds(cfg_a)
            .build();
        ecu_a.soc_mut().load_program(
            &assemble(
                "
                .org 0x80000000
                start:
                    li r2, 0xD0000004
                loop:
                    addi r1, r1, 1
                    sw r1, 0(r2)
                    j loop
                ",
            )
            .unwrap(),
        );

        // B: relay — external pin 0 re-fires its own trigger-out pin 1.
        let ecu_b = relay_device(McdsConfig {
            cores: vec![CoreTraceConfig::default()],
            cross_triggers: vec![CrossTrigger::on_any(
                vec![SignalRef::ExternalPin(0)],
                TriggerAction::TriggerOutPin(1),
            )],
            ..Default::default()
        });
        // C: break on external pin 0.
        let ecu_c = relay_device(McdsConfig {
            cores: vec![CoreTraceConfig::default()],
            cross_triggers: vec![CrossTrigger::on_any(
                vec![SignalRef::ExternalPin(0)],
                TriggerAction::BreakCores(vec![CoreId(0)]),
            )],
            ..Default::default()
        });

        let mut bench = MultiChipBench::new(
            vec![ecu_a, ecu_b, ecu_c],
            vec![TriggerWire {
                from: 0,
                pin: 0,
                to: 1,
                line: 0,
            }],
        );
        bench.add_wire(TriggerWire {
            from: 1,
            pin: 1,
            to: 2,
            line: 0,
        });
        assert_eq!(bench.len(), 3);
        bench.run_cycles(5_000);
        assert!(
            bench.devices()[2].soc().core(CoreId(0)).is_halted(),
            "C halted by A's trigger relayed through B"
        );
        assert!(
            !bench.devices()[0].soc().core(CoreId(0)).is_halted()
                && !bench.devices()[1].soc().core(CoreId(0)).is_halted(),
            "only the final hop breaks"
        );
        let c_retired = bench.devices()[2].soc().core(CoreId(0)).retired();
        assert!(
            c_retired < 400,
            "C stopped near the (relayed) trigger instant (retired {c_retired})"
        );
    }

    /// The wiring must only drive the lines it owns: a level held high by
    /// an outside layer (host, replayed input log, bus trigger fabric) on
    /// an unwired line survives the bench's per-step level rewrite. The
    /// old 2-device bookkeeping clobbered the whole mask every step.
    #[test]
    fn unwired_trigger_lines_are_not_clobbered() {
        let dev_a = relay_device(McdsConfig {
            cores: vec![CoreTraceConfig::default()],
            ..Default::default()
        });
        let dev_b = relay_device(McdsConfig {
            cores: vec![CoreTraceConfig::default()],
            ..Default::default()
        });
        let mut bench = MultiChipBench::new(
            vec![dev_a, dev_b],
            vec![TriggerWire {
                from: 0,
                pin: 0,
                to: 1,
                line: 0,
            }],
        );
        // An outside layer holds line 5 on device 1 and line 2 on the
        // wire-less device 0.
        bench
            .device_mut(1)
            .soc_mut()
            .periph_mut()
            .set_trigger_in(1 << 5);
        bench
            .device_mut(0)
            .soc_mut()
            .periph_mut()
            .set_trigger_in(1 << 2);
        bench.run_cycles(50);
        assert_eq!(
            bench.devices()[1].soc().periph().trigger_in(),
            1 << 5,
            "unwired line 5 still high after stepping"
        );
        assert_eq!(
            bench.devices()[0].soc().periph().trigger_in(),
            1 << 2,
            "device with no incoming wires keeps its externally driven level"
        );
    }

    #[test]
    fn app_written_pulses_cross_the_wire_too() {
        // Device 0's *software* pulses TRIG_OUT; device 1 suspends its core
        // on the pin and resumes on a second pin.
        let prog_a = assemble(
            "
            .equ TRIG_OUT, 0xF0000300
            .org 0x80000000
            start:
                li r2, TRIG_OUT
                li r3, 40
            wait1:
                addi r3, r3, -1
                bne r3, r0, wait1
                li r1, 0b01
                sw r1, 0(r2)        ; pulse pin 0 (suspend B)
                li r3, 200
            wait2:
                addi r3, r3, -1
                bne r3, r0, wait2
                li r1, 0b10
                sw r1, 0(r2)        ; pulse pin 1 (resume B)
                halt
            ",
        )
        .unwrap();
        let dev_a = {
            let mut d = DeviceBuilder::new(DeviceVariant::Production)
                .cores(1)
                .build();
            d.soc_mut().load_program(&prog_a);
            d
        };
        let cfg_b = McdsConfig {
            cores: vec![CoreTraceConfig::default()],
            cross_triggers: vec![
                CrossTrigger::on_any(
                    vec![SignalRef::ExternalPin(0)],
                    TriggerAction::SuspendCores(vec![CoreId(0)]),
                ),
                CrossTrigger::on_any(
                    vec![SignalRef::ExternalPin(1)],
                    TriggerAction::ResumeCores(vec![CoreId(0)]),
                ),
            ],
            ..Default::default()
        };
        let dev_b = {
            let mut d = DeviceBuilder::new(DeviceVariant::EdSideBooster)
                .cores(1)
                .mcds(cfg_b)
                .build();
            d.soc_mut()
                .load_program(&assemble(".org 0x80000000\nloop: addi r1, r1, 1\nj loop").unwrap());
            d
        };
        let mut bench = MultiChipBench::new(
            vec![dev_a, dev_b],
            vec![
                TriggerWire {
                    from: 0,
                    pin: 0,
                    to: 1,
                    line: 0,
                },
                TriggerWire {
                    from: 0,
                    pin: 1,
                    to: 1,
                    line: 1,
                },
            ],
        );
        // Run past the suspend pulse.
        bench.run_cycles(700);
        let mid = bench.devices()[1].soc().core(CoreId(0)).retired();
        assert!(bench.devices()[1].soc().core(CoreId(0)).is_suspended());
        // Run past the resume pulse.
        bench.run_cycles(3_000);
        let end = bench.devices()[1].soc().core(CoreId(0)).retired();
        assert!(!bench.devices()[1].soc().core(CoreId(0)).is_suspended());
        assert!(end > mid, "resumed and retired more ({mid} → {end})");
    }
}
