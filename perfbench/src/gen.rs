//! Seeded input generation. Every op sequence, quantum, session mix and
//! vehicle event log is a pure function of the workload's seed; the
//! program under test only ever receives the generated values.

use mcds_psi::faults::FaultPlan;
use mcds_soc::soc::memmap;
use mcds_vnet::{VehicleEvent, VehicleLog};
use mcds_workloads::{engine, gearbox, Workload};

/// SplitMix64: tiny, fast and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream` (workload, client).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// A uniformly shuffled copy of `items`.
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Farm session kinds every untraced farm workload mixes.
pub const SESSION_MIX: [Workload; 3] =
    [Workload::Engine, Workload::Gearbox, Workload::EngineGearbox];

/// SRAM scratch area no workload program touches; `mem.write` lands here.
pub const SCRATCH_ADDR: u32 = memmap::SRAM_BASE + 0x8000;

/// One wire request, addressed to a client-local session slot.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `farm.ping`.
    Ping,
    /// `session.create` into `slot`.
    Create {
        /// Client-local slot.
        slot: usize,
        /// Workload the session runs.
        workload: Workload,
        /// Program trace on.
        trace: bool,
    },
    /// `session.destroy`.
    Destroy {
        /// Client-local slot.
        slot: usize,
    },
    /// `session.run`; must run every cycle or report a stop.
    Run {
        /// Client-local slot.
        slot: usize,
        /// Requested cycles.
        cycles: u64,
    },
    /// `session.run` that must end on a stop (an armed breakpoint).
    RunToStop {
        /// Client-local slot.
        slot: usize,
        /// Cycle budget.
        cycles: u64,
    },
    /// `trace.pull`.
    Pull {
        /// Client-local slot.
        slot: usize,
    },
    /// `breakpoint.set` (hardware, core 0).
    SetHwBp {
        /// Client-local slot.
        slot: usize,
        /// Breakpoint address.
        addr: u32,
    },
    /// `breakpoint.clear` (hardware, core 0).
    ClearHwBp {
        /// Client-local slot.
        slot: usize,
        /// Breakpoint address.
        addr: u32,
    },
    /// `reg.read` of core 0.
    RegRead {
        /// Client-local slot.
        slot: usize,
        /// Register number.
        reg: u8,
    },
    /// `mem.read`.
    MemRead {
        /// Client-local slot.
        slot: usize,
        /// First word address.
        addr: u32,
        /// Words to read.
        count: u64,
    },
    /// `mem.write`.
    MemWrite {
        /// Client-local slot.
        slot: usize,
        /// First word address.
        addr: u32,
        /// Words to write.
        words: Vec<u32>,
    },
    /// `session.resume_core` of core 0.
    Resume {
        /// Client-local slot.
        slot: usize,
    },
    /// `xcp.set_cal_page`.
    SetCalPage {
        /// Client-local slot.
        slot: usize,
        /// Page (0 or 1).
        page: u8,
    },
    /// `xcp.cal_page`.
    CalPage {
        /// Client-local slot.
        slot: usize,
    },
    /// `session.state_hash` (revives an evicted session).
    StateHash {
        /// Client-local slot.
        slot: usize,
    },
    /// `session.evict`.
    Evict {
        /// Client-local slot.
        slot: usize,
    },
}

impl Step {
    /// The wire method this step sends.
    pub fn method(&self) -> &'static str {
        match self {
            Step::Ping => "farm.ping",
            Step::Create { .. } => "session.create",
            Step::Destroy { .. } => "session.destroy",
            Step::Run { .. } | Step::RunToStop { .. } => "session.run",
            Step::Pull { .. } => "trace.pull",
            Step::SetHwBp { .. } => "breakpoint.set",
            Step::ClearHwBp { .. } => "breakpoint.clear",
            Step::RegRead { .. } => "reg.read",
            Step::MemRead { .. } => "mem.read",
            Step::MemWrite { .. } => "mem.write",
            Step::Resume { .. } => "session.resume_core",
            Step::SetCalPage { .. } => "xcp.set_cal_page",
            Step::CalPage { .. } => "xcp.cal_page",
            Step::StateHash { .. } => "session.state_hash",
            Step::Evict { .. } => "session.evict",
        }
    }
}

/// Every method of the `farm_control` mix, in report order.
pub const CONTROL_METHODS: [&str; 14] = [
    "farm.ping",
    "session.run",
    "breakpoint.set",
    "breakpoint.clear",
    "reg.read",
    "mem.read",
    "mem.write",
    "session.resume_core",
    "xcp.set_cal_page",
    "xcp.cal_page",
    "session.state_hash",
    "session.evict",
    "session.create",
    "session.destroy",
];

/// One timed operation: the requests a debugger client issues back to
/// back for one user action.
pub type Op = Vec<Step>;

/// One client's generated script: untimed set-up requests, then an
/// unbounded stream of ops.
pub trait Script: Send {
    /// Requests issued during set-up.
    fn setup(&self) -> Vec<Step>;
    /// The next op.
    fn next_op(&mut self) -> Op;
}

/// The hardware-breakpoint address on core 0 of `w`: the top of its
/// control loop.
pub fn loop_label(w: Workload) -> u32 {
    let label = if w == Workload::Gearbox {
        "gloop"
    } else {
        "cycle"
    };
    w.program().symbols[label]
}

/// `farm_run`: three untraced sessions (one of each kind, seeded order),
/// one `session.run` per session per round in a seeded order. Quanta are
/// stratified: in every block of three rounds each session runs each of
/// [`FarmRunScript::QUANTA`] once (seeded assignment), so every seed gives
/// each session the same cycles at the same point of the run.
pub struct FarmRunScript {
    rng: Rng,
    kinds: Vec<Workload>,
    shift: Vec<usize>,
    round: Vec<(usize, u64)>,
    rounds: usize,
}

impl FarmRunScript {
    /// Quantum levels (cycles).
    pub const QUANTA: [u64; 3] = [250_000, 625_000, 1_000_000];

    /// Client `client`'s script under `seed`.
    pub fn new(seed: u64, client: u64) -> FarmRunScript {
        let mut rng = Rng::new(seed, 0x100 + client);
        let kinds = rng.shuffled(&SESSION_MIX);
        FarmRunScript {
            rng,
            kinds,
            shift: Vec::new(),
            round: Vec::new(),
            rounds: 0,
        }
    }
}

impl Script for FarmRunScript {
    fn setup(&self) -> Vec<Step> {
        self.kinds
            .iter()
            .enumerate()
            .map(|(slot, &workload)| Step::Create {
                slot,
                workload,
                trace: false,
            })
            .collect()
    }

    fn next_op(&mut self) -> Op {
        if self.round.is_empty() {
            if self.rounds.is_multiple_of(3) {
                self.shift = self.rng.shuffled(&[0, 1, 2]);
            }
            let level = |slot: usize| Self::QUANTA[(self.rounds + self.shift[slot]) % 3];
            let order = self.rng.shuffled(&[0, 1, 2]);
            self.round = order.into_iter().map(|slot| (slot, level(slot))).collect();
            self.rounds += 1;
        }
        let (slot, cycles) = self.round.pop().expect("refilled above");
        vec![Step::Run { slot, cycles }]
    }
}

/// `traced_debug`: capture sessions with trace on. Each round is one
/// `engine+gearbox` session captured [`TracedDebugScript::CAPTURES`]
/// times and one `race-locked` session captured once (it halts), in a
/// seeded order. A capture is a `session.run` followed by `trace.pull`;
/// an `engine+gearbox` session runs each of [`TracedDebugScript::RUNS`]
/// once, in a seeded order. A session's first capture also creates it and
/// its last destroys it, because trace memory is never cleared and a pull
/// decodes everything captured since creation.
pub struct TracedDebugScript {
    rng: Rng,
    /// Pending (workload, capture index, captures in lifecycle, cycles).
    plan: Vec<(Workload, usize, usize, u64)>,
    first: Workload,
    started: bool,
}

impl TracedDebugScript {
    /// Capture lengths of one `engine+gearbox` session (cycles).
    pub const RUNS: [u64; 4] = [10_000, 15_000, 25_000, 30_000];
    /// Run-length bounds of a `race-locked` capture (it halts after about
    /// 25 k cycles).
    pub const RACE_RUN: (u64, u64) = (40_000, 80_000);

    /// Client `client`'s script under `seed`.
    pub fn new(seed: u64, client: u64) -> TracedDebugScript {
        let mut s = TracedDebugScript {
            rng: Rng::new(seed, 0x200 + client),
            plan: Vec::new(),
            first: Workload::EngineGearbox,
            started: false,
        };
        s.refill();
        s.first = s.plan.last().expect("refilled").0;
        s
    }

    fn refill(&mut self) {
        let order = self
            .rng
            .shuffled(&[Workload::EngineGearbox, Workload::RaceLocked]);
        let mut captures = Vec::new();
        for w in order {
            let runs = if w == Workload::RaceLocked {
                let (lo, hi) = Self::RACE_RUN;
                vec![self.rng.range(lo / 100, hi / 100) * 100]
            } else {
                self.rng.shuffled(&Self::RUNS)
            };
            let n = runs.len();
            captures.extend(runs.into_iter().enumerate().map(|(i, c)| (w, i, n, c)));
        }
        // Stored reversed: `plan.pop()` yields the next capture.
        self.plan = captures.into_iter().rev().collect();
    }
}

impl Script for TracedDebugScript {
    fn setup(&self) -> Vec<Step> {
        vec![Step::Create {
            slot: 0,
            workload: self.first,
            trace: true,
        }]
    }

    fn next_op(&mut self) -> Op {
        if self.plan.is_empty() {
            self.refill();
        }
        let (workload, i, n, cycles) = self.plan.pop().expect("refilled above");
        let mut op = Vec::new();
        if i == 0 && self.started {
            op.push(Step::Create {
                slot: 0,
                workload,
                trace: true,
            });
        }
        self.started = true;
        op.push(Step::Run { slot: 0, cycles });
        op.push(Step::Pull { slot: 0 });
        if i + 1 == n {
            op.push(Step::Destroy { slot: 0 });
        }
        op
    }
}

/// `farm_control`: an interactive debugger over a pool of three live
/// sessions (one of each kind) plus a churn slot. Each block of
/// [`FarmControlScript::BLOCK_OPS`] single-request ops is a seeded
/// shuffle of fixed groups, so the method mix is the same for every seed:
/// 2 pings, 2 short runs (10 k and 40 k cycles), a breakpoint round trip (set, run to stop,
/// register, memory read and write, clear, resume), a calibration page
/// swap and read-back on a single-core session, a state hash, three
/// evict + revive pairs and one create + destroy.
pub struct FarmControlScript {
    rng: Rng,
    kinds: Vec<Workload>,
    queue: Vec<Step>,
}

impl FarmControlScript {
    /// Ops per block.
    pub const BLOCK_OPS: usize = 22;
    /// Lengths of the two short runs of a block (cycles), in seeded order.
    pub const SHORT_RUNS: [u64; 2] = [10_000, 40_000];
    /// Budget of the run that must hit the armed breakpoint.
    pub const TO_STOP: u64 = 200_000;
    /// The churn slot (pool slots are 0..3).
    pub const CHURN_SLOT: usize = 3;

    /// Client `client`'s script under `seed`.
    pub fn new(seed: u64, client: u64) -> FarmControlScript {
        let mut rng = Rng::new(seed, 0x300 + client);
        let kinds = rng.shuffled(&SESSION_MIX);
        FarmControlScript {
            rng,
            kinds,
            queue: Vec::new(),
        }
    }

    fn slot(&mut self) -> usize {
        self.rng.range(0, 2) as usize
    }

    fn refill(&mut self) {
        let mut groups: Vec<Vec<Step>> = Vec::new();
        groups.push(vec![Step::Ping]);
        groups.push(vec![Step::Ping]);
        for cycles in self.rng.shuffled(&Self::SHORT_RUNS) {
            let slot = self.slot();
            groups.push(vec![Step::Run { slot, cycles }]);
        }
        let slot = self.slot();
        let addr = loop_label(self.kinds[slot]);
        let words = vec![self.rng.next() as u32, self.rng.next() as u32];
        groups.push(vec![
            Step::SetHwBp { slot, addr },
            Step::RunToStop {
                slot,
                cycles: Self::TO_STOP,
            },
            Step::RegRead {
                slot,
                reg: self.rng.range(1, 15) as u8,
            },
            Step::MemRead {
                slot,
                addr: memmap::SRAM_BASE + 4 * self.rng.range(0, 3) as u32,
                count: 4,
            },
            Step::MemWrite {
                slot,
                addr: SCRATCH_ADDR + 4 * self.rng.range(0, 63) as u32,
                words,
            },
            Step::ClearHwBp { slot, addr },
            Step::Resume { slot },
        ]);
        // Page swaps go to single-core sessions: on `engine+gearbox` the
        // debug master never wins bus arbitration and the swap fails.
        let single: Vec<usize> = (0..3)
            .filter(|&s| self.kinds[s] != Workload::EngineGearbox)
            .collect();
        let slot = single[self.rng.range(0, single.len() as u64 - 1) as usize];
        let page = self.rng.range(0, 1) as u8;
        groups.push(vec![
            Step::SetCalPage { slot, page },
            Step::CalPage { slot },
        ]);
        let slot = self.slot();
        groups.push(vec![Step::StateHash { slot }]);
        for _ in 0..3 {
            let slot = self.slot();
            groups.push(vec![Step::Evict { slot }, Step::StateHash { slot }]);
        }
        let workload = SESSION_MIX[self.rng.range(0, 2) as usize];
        groups.push(vec![
            Step::Create {
                slot: Self::CHURN_SLOT,
                workload,
                trace: false,
            },
            Step::Destroy {
                slot: Self::CHURN_SLOT,
            },
        ]);
        let order = self.rng.shuffled(&groups);
        self.queue = order.into_iter().flatten().rev().collect();
        debug_assert_eq!(self.queue.len(), Self::BLOCK_OPS);
    }
}

impl Script for FarmControlScript {
    fn setup(&self) -> Vec<Step> {
        self.kinds
            .iter()
            .enumerate()
            .map(|(slot, &workload)| Step::Create {
                slot,
                workload,
                trace: false,
            })
            .collect()
    }

    fn next_op(&mut self) -> Op {
        if self.queue.is_empty() {
            self.refill();
        }
        vec![self.queue.pop().expect("refilled above")]
    }
}

/// ECUs in the vehicle probe's fleet.
pub const FLEET_ECUS: usize = 8;

/// The vehicle probe's input: fixed slices of vehicle cycles, each with
/// its own event log of sensor random walks (every
/// [`VehicleScript::STIMULUS_PERIOD`] cycles, every ECU input) and, in
/// one seeded slice out of every [`VehicleScript::FAULT_EVERY`], a lossy
/// `BusFault` window on a seeded segment that is cleared inside the same
/// slice.
pub struct VehicleScript {
    rng: Rng,
    next_cycle: u64,
    rpm: Vec<u64>,
    load: Vec<u64>,
    speed: Vec<u64>,
    fault_at: u64,
    index: u64,
}

/// One slice: its events and its length in vehicle cycles.
pub struct Slice {
    /// Events stamped with absolute vehicle cycles inside the slice.
    pub log: VehicleLog,
    /// Vehicle cycles to run.
    pub cycles: u64,
}

impl VehicleScript {
    /// Vehicle cycles per slice.
    pub const SLICE: u64 = 50_000;
    /// Cycles between sensor updates.
    pub const STIMULUS_PERIOD: u64 = 5_000;
    /// One faulted slice per this many.
    pub const FAULT_EVERY: u64 = 8;

    /// The script under `seed`.
    pub fn new(seed: u64) -> VehicleScript {
        let mut rng = Rng::new(seed, 0x400);
        let pairs = FLEET_ECUS / 2;
        let rpm = (0..pairs).map(|_| rng.range(1500, 4000)).collect();
        let load = (0..pairs).map(|_| rng.range(40, 160)).collect();
        let speed = (0..pairs).map(|_| rng.range(20, 90)).collect();
        let fault_at = rng.range(0, Self::FAULT_EVERY - 1);
        VehicleScript {
            rng,
            next_cycle: 0,
            rpm,
            load,
            speed,
            fault_at,
            index: 0,
        }
    }

    fn walk(rng: &mut Rng, v: &mut u64, step: u64, lo: u64, hi: u64) -> u32 {
        let delta = rng.range(0, 2 * step);
        *v = (*v + delta).saturating_sub(step).clamp(lo, hi);
        *v as u32
    }

    /// The next slice.
    pub fn next_slice(&mut self) -> Slice {
        let start = self.next_cycle;
        let end = start + Self::SLICE;
        let mut events: Vec<(u64, VehicleEvent)> = Vec::new();
        let mut t = start;
        while t < end {
            for k in 0..FLEET_ECUS / 2 {
                let rpm = Self::walk(&mut self.rng, &mut self.rpm[k], 150, 800, 5000);
                let load = Self::walk(&mut self.rng, &mut self.load[k], 8, 10, 200);
                let speed = Self::walk(&mut self.rng, &mut self.speed[k], 3, 0, 120);
                for (ecu, port, value) in [
                    (2 * k, engine::RPM_PORT, rpm),
                    (2 * k, engine::LOAD_PORT, load),
                    (2 * k + 1, gearbox::SPEED_PORT, speed),
                ] {
                    events.push((t, VehicleEvent::Stimulus { ecu, port, value }));
                }
            }
            t += Self::STIMULUS_PERIOD;
        }
        if self.index % Self::FAULT_EVERY == self.fault_at {
            let segment = self.rng.range(0, (FLEET_ECUS / 2 - 1) as u64) as usize;
            let on = start + self.rng.range(0, 20_000);
            let off = on + self.rng.range(10_000, 25_000);
            let plan = FaultPlan::lossy(self.rng.next(), self.rng.range(20, 100) as u16);
            events.push((on, VehicleEvent::BusFault { segment, plan }));
            events.push((off, VehicleEvent::ClearBusFault { segment }));
        }
        if (self.index + 1).is_multiple_of(Self::FAULT_EVERY) {
            self.fault_at = self.rng.range(0, Self::FAULT_EVERY - 1);
        }
        events.sort_by_key(|(c, _)| *c);
        let mut log = VehicleLog::new();
        for (c, e) in events {
            log.push(c, e);
        }
        self.next_cycle = end;
        self.index += 1;
        Slice {
            log,
            cycles: Self::SLICE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(mut s: impl Script, n: usize) -> (Vec<Step>, Vec<Op>) {
        (s.setup(), (0..n).map(|_| s.next_op()).collect())
    }

    fn slices(seed: u64, n: usize) -> Vec<(VehicleLog, u64)> {
        let mut s = VehicleScript::new(seed);
        (0..n)
            .map(|_| {
                let sl = s.next_slice();
                (sl.log, sl.cycles)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        for client in 0..2 {
            let a = ops(FarmRunScript::new(7, client), 200);
            assert_eq!(a, ops(FarmRunScript::new(7, client), 200));
            assert_ne!(a, ops(FarmRunScript::new(8, client), 200));

            let a = ops(TracedDebugScript::new(7, client), 200);
            assert_eq!(a, ops(TracedDebugScript::new(7, client), 200));
            assert_ne!(a, ops(TracedDebugScript::new(8, client), 200));

            let a = ops(FarmControlScript::new(7, client), 200);
            assert_eq!(a, ops(FarmControlScript::new(7, client), 200));
            assert_ne!(a, ops(FarmControlScript::new(8, client), 200));
        }
        assert_eq!(slices(7, 20), slices(7, 20));
        assert_ne!(slices(7, 20), slices(8, 20));
    }

    #[test]
    fn clients_get_different_scripts() {
        assert_ne!(
            ops(FarmControlScript::new(7, 0), 100),
            ops(FarmControlScript::new(7, 1), 100)
        );
    }

    #[test]
    fn control_blocks_keep_the_method_mix() {
        let (_, list) = ops(
            FarmControlScript::new(3, 0),
            FarmControlScript::BLOCK_OPS * 5,
        );
        let count = |m: &str| list.iter().filter(|op| op[0].method() == m).count();
        assert_eq!(count("farm.ping"), 10);
        assert_eq!(count("session.evict"), 15);
        assert_eq!(count("session.create"), 5);
        for m in CONTROL_METHODS {
            assert!(count(m) > 0, "{m} missing from the mix");
        }
    }

    #[test]
    fn traced_sessions_are_created_before_and_destroyed_after_their_captures() {
        let mut s = TracedDebugScript::new(11, 0);
        let mut live = true; // set-up created the first session
        for _ in 0..100 {
            for step in s.next_op() {
                match step {
                    Step::Create { trace, .. } => {
                        assert!(!live && trace);
                        live = true;
                    }
                    Step::Destroy { .. } => {
                        assert!(live);
                        live = false;
                    }
                    _ => assert!(live),
                }
            }
        }
    }

    #[test]
    fn vehicle_faults_are_cleared_inside_their_slice() {
        let list = slices(5, 64);
        let faults = list
            .iter()
            .filter(|(log, _)| {
                log.events()
                    .iter()
                    .any(|(_, e)| matches!(e, VehicleEvent::BusFault { .. }))
            })
            .count();
        assert_eq!(faults as u64, 64 / VehicleScript::FAULT_EVERY);
        for (log, _) in &list {
            let set = log
                .events()
                .iter()
                .filter(|(_, e)| matches!(e, VehicleEvent::BusFault { .. }))
                .count();
            let clear = log
                .events()
                .iter()
                .filter(|(_, e)| matches!(e, VehicleEvent::ClearBusFault { .. }))
                .count();
            assert_eq!(set, clear);
        }
    }
}
