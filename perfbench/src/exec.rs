//! Executing generated requests: over the wire through `FarmClient`, or
//! in-process against `mcds_host::Session` values built exactly as the
//! farm builds them (the reference the wire results are checked against).

use crate::gen::Step;
use mcds_farm::proto::{obj, vint, vstr};
use mcds_farm::{device_spec, FarmClient};
use mcds_host::{Session, SessionSnapshot};
use mcds_psi::interface::InterfaceKind;
use mcds_replay::{extend_fnv1a64, fnv1a64};
use mcds_soc::event::CoreId;
use mcds_soc::isa::Reg;
use mcds_workloads::Workload;
use serde::Value;
use std::time::Instant;

/// Cycles per scheduler quantum, both in the farm under test and in the
/// in-process reference (which slices runs the same way).
pub const QUANTUM: u64 = 50_000;

/// The debug link every farm session attaches over.
pub const IFACE: InterfaceKind = InterfaceKind::Jtag;

/// The simulated outcome of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Acknowledged, nothing simulated to report.
    Ack,
    /// `session.run`: cycles run and the stop cause, if any.
    Run {
        /// Cycles run.
        ran: u64,
        /// Stop cause.
        stop: Option<String>,
    },
    /// `trace.pull`: reconstructed flow length and trace hash.
    Pull {
        /// Executed instructions reconstructed.
        flow: u64,
        /// Hash over flow and data log.
        hash: u64,
    },
    /// A state hash.
    Hash(u64),
    /// `session.evict`: snapshot bytes and the recorded state hash.
    Evicted {
        /// Snapshot bytes.
        bytes: u64,
        /// State hash at suspend time.
        hash: u64,
    },
    /// A single value (register, calibration page).
    Value(u64),
    /// Memory words.
    Words(Vec<u64>),
}

impl Reply {
    /// Folds this reply into `digest`.
    pub fn fold(&self, digest: u64) -> u64 {
        let words: Vec<u64> = match self {
            Reply::Ack => vec![0],
            Reply::Run { ran, stop } => {
                vec![*ran, fnv1a64(stop.as_deref().unwrap_or("").as_bytes())]
            }
            Reply::Pull { flow, hash } => vec![*flow, *hash],
            Reply::Hash(h) => vec![*h],
            Reply::Evicted { bytes, hash } => vec![*bytes, *hash],
            Reply::Value(v) => vec![*v],
            Reply::Words(w) => w.clone(),
        };
        words
            .iter()
            .fold(digest, |h, w| extend_fnv1a64(h, &w.to_le_bytes()))
    }
}

/// Something that can carry out a [`Step`].
pub trait Target {
    /// Carries out `step`.
    ///
    /// # Errors
    ///
    /// A description of the failed request.
    fn exec(&mut self, step: &Step) -> Result<Reply, String>;
}

fn slot_of(step: &Step) -> Option<usize> {
    match step {
        Step::Ping => None,
        Step::Create { slot, .. }
        | Step::Destroy { slot }
        | Step::Run { slot, .. }
        | Step::RunToStop { slot, .. }
        | Step::Pull { slot }
        | Step::SetHwBp { slot, .. }
        | Step::ClearHwBp { slot, .. }
        | Step::RegRead { slot, .. }
        | Step::MemRead { slot, .. }
        | Step::MemWrite { slot, .. }
        | Step::Resume { slot }
        | Step::SetCalPage { slot, .. }
        | Step::CalPage { slot }
        | Step::StateHash { slot }
        | Step::Evict { slot } => Some(*slot),
    }
}

/// A client's sessions on a farm server, addressed by slot.
pub struct FarmTarget {
    client: FarmClient,
    ids: Vec<Option<u64>>,
}

impl FarmTarget {
    /// Wraps a connected client.
    pub fn new(client: FarmClient) -> FarmTarget {
        FarmTarget {
            client,
            ids: Vec::new(),
        }
    }

    fn id(&self, slot: usize) -> Result<u64, String> {
        self.ids
            .get(slot)
            .copied()
            .flatten()
            .ok_or_else(|| format!("slot {slot} has no session"))
    }

    fn call(&mut self, method: &str, params: Vec<(&str, Value)>) -> Result<Value, String> {
        self.client
            .call(method, obj(params))
            .map_err(|e| format!("{method}: {e}"))
    }
}

fn words_of(v: &Value) -> Result<Vec<u64>, String> {
    let words = match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == "words").map(|(_, w)| w),
        _ => None,
    };
    match words {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|w| match w {
                Value::Int(i) => u64::try_from(*i).map_err(|_| "word out of range".to_string()),
                _ => Err("word is not an integer".to_string()),
            })
            .collect(),
        _ => Err("response lacks `words`".to_string()),
    }
}

impl Target for FarmTarget {
    fn exec(&mut self, step: &Step) -> Result<Reply, String> {
        let e = |e: mcds_farm::ClientError| format!("{}: {e}", step.method());
        let u =
            |v: &Value, k: &str| mcds_farm::client::require_u64(v, k).map_err(|x| x.to_string());
        let reply = match step {
            Step::Ping => {
                self.call("farm.ping", vec![])?;
                Reply::Ack
            }
            Step::Create {
                slot,
                workload,
                trace,
            } => {
                let id = self.client.create(workload.name(), *trace).map_err(e)?;
                if self.ids.len() <= *slot {
                    self.ids.resize(*slot + 1, None);
                }
                self.ids[*slot] = Some(id);
                Reply::Ack
            }
            Step::Destroy { slot } => {
                let id = self.id(*slot)?;
                self.client.destroy(id).map_err(e)?;
                self.ids[*slot] = None;
                Reply::Ack
            }
            Step::Run { slot, cycles } | Step::RunToStop { slot, cycles } => {
                let (ran, stop) = self.client.run(self.id(*slot)?, *cycles).map_err(e)?;
                Reply::Run { ran, stop }
            }
            Step::Pull { slot } => {
                let (flow, hash) = self.client.pull_trace(self.id(*slot)?).map_err(e)?;
                Reply::Pull { flow, hash }
            }
            Step::SetHwBp { slot, addr } => {
                let id = self.id(*slot)?;
                self.client.set_hw_breakpoint(id, 0, *addr).map_err(e)?;
                Reply::Ack
            }
            Step::ClearHwBp { slot, addr } => {
                let id = self.id(*slot)?;
                self.call(
                    "breakpoint.clear",
                    vec![
                        ("session", vint(id)),
                        ("kind", vstr("hw")),
                        ("core", vint(0)),
                        ("addr", vint(u64::from(*addr))),
                    ],
                )?;
                Reply::Ack
            }
            Step::RegRead { slot, reg } => {
                let id = self.id(*slot)?;
                let ok = self.call(
                    "reg.read",
                    vec![
                        ("session", vint(id)),
                        ("core", vint(0)),
                        ("reg", vint(u64::from(*reg))),
                    ],
                )?;
                Reply::Value(u(&ok, "value")?)
            }
            Step::MemRead { slot, addr, count } => {
                let id = self.id(*slot)?;
                let ok = self.call(
                    "mem.read",
                    vec![
                        ("session", vint(id)),
                        ("addr", vint(u64::from(*addr))),
                        ("count", vint(*count)),
                    ],
                )?;
                Reply::Words(words_of(&ok)?)
            }
            Step::MemWrite { slot, addr, words } => {
                let id = self.id(*slot)?;
                let words = Value::Seq(words.iter().map(|w| vint(u64::from(*w))).collect());
                self.call(
                    "mem.write",
                    vec![
                        ("session", vint(id)),
                        ("addr", vint(u64::from(*addr))),
                        ("words", words),
                    ],
                )?;
                Reply::Ack
            }
            Step::Resume { slot } => {
                let id = self.id(*slot)?;
                self.call(
                    "session.resume_core",
                    vec![("session", vint(id)), ("core", vint(0))],
                )?;
                Reply::Ack
            }
            Step::SetCalPage { slot, page } => {
                let id = self.id(*slot)?;
                self.call(
                    "xcp.set_cal_page",
                    vec![("session", vint(id)), ("page", vint(u64::from(*page)))],
                )?;
                Reply::Ack
            }
            Step::CalPage { slot } => {
                let id = self.id(*slot)?;
                let ok = self.call("xcp.cal_page", vec![("session", vint(id))])?;
                Reply::Value(u(&ok, "page")?)
            }
            Step::StateHash { slot } => {
                Reply::Hash(self.client.state_hash(self.id(*slot)?).map_err(e)?)
            }
            Step::Evict { slot } => {
                let (bytes, hash) = self.client.evict(self.id(*slot)?).map_err(e)?;
                Reply::Evicted { bytes, hash }
            }
        };
        Ok(reply)
    }
}

/// Builds a session exactly as `Farm::create` does.
pub fn farm_session(workload: Workload, trace: bool) -> Result<Session, String> {
    let mut dev = device_spec(workload, trace).build();
    let program = workload.program();
    dev.soc_mut().load_program(&program);
    Session::attach(dev, IFACE, &program, None).map_err(|e| format!("attach: {e}"))
}

/// Runs `cycles` the way the farm scheduler does: [`QUANTUM`]-cycle
/// `Session::run` slices until the budget is spent or a core stops.
fn run_sliced(session: &mut Session, cycles: u64) -> (u64, Option<String>) {
    let mut ran = 0;
    let mut remaining = cycles;
    loop {
        let slice = remaining.min(QUANTUM);
        let report = session.run(slice);
        ran += report.ran;
        remaining -= slice;
        if report.stop.is_some() || remaining == 0 {
            return (ran, report.stop.map(|s| format!("{:?}", s.cause)));
        }
    }
}

/// The hash `trace.pull` reports over a pulled trace.
fn trace_hash(outcome: &mcds_host::TraceOutcome) -> u64 {
    fnv1a64(format!("{:?}{:?}", outcome.flow, outcome.data_log).as_bytes())
}

enum Held {
    Live(Box<Session>),
    Evicted(Box<SessionSnapshot>),
}

struct Local {
    workload: Workload,
    trace: bool,
    held: Held,
    cycles: u64,
}

/// One in-process `Session::pull_trace`, timed.
#[derive(Debug, Clone, Copy)]
pub struct PullSample {
    /// Wall nanoseconds of the call.
    pub ns: u64,
    /// Decoded messages.
    pub messages: u64,
    /// Encoded trace bytes downloaded.
    pub bytes: u64,
    /// Cycles the session had run.
    pub cycles: u64,
}

/// The in-process reference: the same requests carried out directly on
/// `Session` values.
#[derive(Default)]
pub struct LocalTarget {
    slots: Vec<Option<Local>>,
    /// Every `pull_trace` carried out, timed.
    pub pulls: Vec<PullSample>,
}

impl LocalTarget {
    fn live(&mut self, slot: usize) -> Result<&mut Local, String> {
        let local = self
            .slots
            .get_mut(slot)
            .and_then(Option::as_mut)
            .ok_or_else(|| format!("slot {slot} has no session"))?;
        if let Held::Evicted(snap) = &local.held {
            let program = local.workload.program();
            let dev = device_spec(local.workload, local.trace).build();
            let s =
                Session::resume(dev, IFACE, &program, snap).map_err(|e| format!("resume: {e}"))?;
            local.held = Held::Live(Box::new(s));
        }
        Ok(local)
    }

    fn session(&mut self, slot: usize) -> Result<&mut Session, String> {
        match &mut self.live(slot)?.held {
            Held::Live(s) => Ok(s),
            Held::Evicted(_) => unreachable!("revived by live()"),
        }
    }
}

impl Target for LocalTarget {
    fn exec(&mut self, step: &Step) -> Result<Reply, String> {
        let core = CoreId(0);
        let reply = match step {
            Step::Ping => Reply::Ack,
            Step::Create {
                slot,
                workload,
                trace,
            } => {
                let s = farm_session(*workload, *trace)?;
                if self.slots.len() <= *slot {
                    self.slots.resize_with(*slot + 1, || None);
                }
                self.slots[*slot] = Some(Local {
                    workload: *workload,
                    trace: *trace,
                    held: Held::Live(Box::new(s)),
                    cycles: 0,
                });
                Reply::Ack
            }
            Step::Destroy { slot } => {
                self.live(*slot)?;
                self.slots[*slot] = None;
                Reply::Ack
            }
            Step::Run { slot, cycles } | Step::RunToStop { slot, cycles } => {
                let local = self.live(*slot)?;
                let Held::Live(s) = &mut local.held else {
                    unreachable!("revived by live()")
                };
                let (ran, stop) = run_sliced(s, *cycles);
                local.cycles += ran;
                Reply::Run { ran, stop }
            }
            Step::Pull { slot } => {
                let local = self.live(*slot)?;
                let cycles = local.cycles;
                let Held::Live(s) = &mut local.held else {
                    unreachable!("revived by live()")
                };
                let t0 = Instant::now();
                let outcome = s.pull_trace().map_err(|e| format!("pull_trace: {e}"))?;
                let ns = t0.elapsed().as_nanos() as u64;
                self.pulls.push(PullSample {
                    ns,
                    messages: outcome.messages.len() as u64,
                    bytes: outcome.trace_bytes as u64,
                    cycles,
                });
                Reply::Pull {
                    flow: outcome.flow.len() as u64,
                    hash: trace_hash(&outcome),
                }
            }
            Step::SetHwBp { slot, addr } => {
                self.session(*slot)?
                    .set_hw_breakpoint(core, *addr)
                    .map_err(|e| e.to_string())?;
                Reply::Ack
            }
            Step::ClearHwBp { slot, addr } => {
                self.session(*slot)?
                    .clear_hw_breakpoint(core, *addr)
                    .map_err(|e| e.to_string())?;
                Reply::Ack
            }
            Step::RegRead { slot, reg } => Reply::Value(u64::from(
                self.session(*slot)?
                    .read_reg(core, Reg::new(*reg))
                    .map_err(|e| e.to_string())?,
            )),
            Step::MemRead { slot, addr, count } => Reply::Words(
                self.session(*slot)?
                    .read_words(*addr, *count as usize)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(u64::from)
                    .collect(),
            ),
            Step::MemWrite { slot, addr, words } => {
                self.session(*slot)?
                    .write_words(*addr, words.clone())
                    .map_err(|e| e.to_string())?;
                Reply::Ack
            }
            Step::Resume { slot } => {
                self.session(*slot)?
                    .resume_core(core)
                    .map_err(|e| e.to_string())?;
                Reply::Ack
            }
            Step::SetCalPage { slot, page } => {
                self.session(*slot)?
                    .set_cal_page(*page)
                    .map_err(|e| e.to_string())?;
                Reply::Ack
            }
            Step::CalPage { slot } => Reply::Value(u64::from(
                self.session(*slot)?.cal_page().map_err(|e| e.to_string())?,
            )),
            Step::StateHash { slot } => Reply::Hash(self.session(*slot)?.state_hash()),
            Step::Evict { slot } => {
                let mut local = self
                    .slots
                    .get_mut(*slot)
                    .and_then(Option::take)
                    .ok_or_else(|| format!("slot {slot} has no session"))?;
                let snap = match local.held {
                    Held::Live(s) => s.suspend(),
                    Held::Evicted(snap) => *snap,
                };
                let reply = Reply::Evicted {
                    bytes: snap.size_bytes() as u64,
                    hash: snap.state_hash(),
                };
                local.held = Held::Evicted(Box::new(snap));
                self.slots[*slot] = Some(local);
                reply
            }
        };
        Ok(reply)
    }
}

/// Per-client request checks: every run runs its budget or reports a
/// stop, a run to a breakpoint stops, a pull reconstructs a non-empty
/// flow, a revived session keeps the hash it was evicted with, and the
/// calibration page reads back as last set.
#[derive(Default)]
pub struct Checker {
    evicted: Vec<Option<u64>>,
    page: Vec<u8>,
}

impl Checker {
    fn grow(&mut self, slot: usize) {
        if self.page.len() <= slot {
            self.page.resize(slot + 1, 0);
            self.evicted.resize(slot + 1, None);
        }
    }

    /// Checks `reply` to `step`; returns the failure, if any.
    pub fn check(&mut self, step: &Step, reply: &Reply) -> Option<String> {
        if let Some(slot) = slot_of(step) {
            self.grow(slot);
        }
        match (step, reply) {
            (Step::Create { slot, .. }, _) => {
                self.page[*slot] = 0;
                self.evicted[*slot] = None;
                None
            }
            (Step::Run { cycles, .. }, Reply::Run { ran, stop }) => (*ran != *cycles
                && stop.is_none())
            .then(|| format!("session.run ran {ran} of {cycles} without a stop")),
            (Step::RunToStop { .. }, Reply::Run { stop, .. }) => stop
                .is_none()
                .then(|| "run to the armed breakpoint did not stop".to_string()),
            (Step::Pull { .. }, Reply::Pull { flow, .. }) => {
                (*flow == 0).then(|| "trace.pull returned an empty flow".to_string())
            }
            (Step::Evict { slot }, Reply::Evicted { hash, .. }) => {
                self.evicted[*slot] = Some(*hash);
                None
            }
            (Step::StateHash { slot }, Reply::Hash(h)) => match self.evicted[*slot].take() {
                Some(e) if e != *h => {
                    Some(format!("revived state hash {h:#018x} != evicted {e:#018x}"))
                }
                _ => None,
            },
            (Step::SetCalPage { slot, page }, _) => {
                self.page[*slot] = *page;
                None
            }
            (Step::CalPage { slot }, Reply::Value(p)) => (*p != u64::from(self.page[*slot]))
                .then(|| format!("calibration page reads {p}, set {}", self.page[*slot])),
            (Step::Run { .. } | Step::RunToStop { .. }, _)
            | (Step::Pull { .. }, _)
            | (Step::Evict { .. }, _)
            | (Step::StateHash { .. }, _)
            | (Step::CalPage { .. }, _) => Some(format!("{} got {reply:?}", step.method())),
            _ => None,
        }
    }
}
