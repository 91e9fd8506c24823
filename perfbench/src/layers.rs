//! Per-layer metrics of the traced run.
//!
//! Each layer is timed from outside, at its public entry point, on the
//! same devices and cycle budget: the layer ladder runs
//! `Soc::run_cycles` → `Device::run_cycles` → `Session::run` →
//! `Scheduler::run_blocking` → `FarmClient::run`, and a layer's self time
//! is its rung minus the rung below. Rungs that run the same device must
//! end on the same state hash. Probes of a few calls cover layers a
//! workload does not exercise itself, so every traced run reports every
//! metric.

use crate::exec::{farm_session, FarmTarget, LocalTarget, PullSample, Target, QUANTUM};
use crate::gen::{
    FarmControlScript, Script, Step, VehicleScript, CONTROL_METHODS, FLEET_ECUS, SESSION_MIX,
};
use crate::run::{median_metric, Outcome, Params, Workload};
use crate::spans::Spans;
use crate::stats::{Better, Metric};
use mcds_farm::proto::obj;
use mcds_farm::{Farm, FarmClient, FarmConfig, FarmServer, Scheduler};
use mcds_host::Session;
use mcds_soc::ExecStats;
use mcds_telemetry::Telemetry;
use mcds_vnet::demo;
use mcds_workloads::Workload as Kind;
use std::sync::Arc;
use std::time::Instant;

/// Cycle cap per call of the traced-device rung: trace memory fills after
/// about 1.2 M cycles of two-core program trace, and a full sink changes
/// the per-cycle cost.
const TRACED_CAP: u64 = 200_000;

/// The devices and cycle budget a workload's ladder runs.
struct LadderSpec {
    kinds: &'static [Kind],
    traced: bool,
    budget: u64,
    reps: usize,
}

fn ladder_spec(w: Workload) -> LadderSpec {
    match w {
        Workload::FarmRun => LadderSpec {
            kinds: &SESSION_MIX,
            traced: false,
            budget: 500_000,
            reps: 3,
        },
        Workload::TracedDebug => LadderSpec {
            kinds: &[Kind::EngineGearbox],
            traced: true,
            budget: TRACED_CAP,
            reps: 5,
        },
        Workload::FarmControl => LadderSpec {
            kinds: &SESSION_MIX,
            traced: false,
            budget: FarmControlScript::SHORT_RUNS[1],
            reps: 7,
        },
    }
}

/// Ladder rungs, bottom up.
const SOC: usize = 0;
const PSI: usize = 1;
const CORE: usize = 2;
const HOST: usize = 3;
const SCHED: usize = 4;
const CLIENT: usize = 5;
const RUNGS: usize = 6;
const RUNG_SPANS: [&str; RUNGS] = [
    "soc.run_cycles",
    "psi.run_cycles",
    "core.run_cycles",
    "host.run",
    "farm.scheduler.run_blocking",
    "farm.client.run",
];

/// One device kind's sessions, one per rung.
struct Subject {
    soc: Session,
    psi: Session,
    core: Session,
    host: Session,
    sched_id: u64,
    client_id: u64,
}

/// Wall nanoseconds of `f`, recorded as a span.
fn timed<T>(
    spans: &mut Spans,
    name: &str,
    op: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let t0 = Instant::now();
    let v = f();
    let t1 = Instant::now();
    spans.record(name, op, parent, t0, t1);
    (v, (t1 - t0).as_nanos() as u64)
}

fn add_stats(acc: &mut ExecStats, before: &ExecStats, after: &ExecStats) {
    acc.stepped_cycles += after.stepped_cycles - before.stepped_cycles;
    acc.skipped_cycles += after.skipped_cycles - before.skipped_cycles;
    acc.block_cycles += after.block_cycles - before.block_cycles;
    acc.decode_hits += after.decode_hits - before.decode_hits;
    acc.decode_misses += after.decode_misses - before.decode_misses;
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What the ladder measured, besides its metrics.
struct Ladder {
    metrics: Vec<Metric>,
    pings: Vec<f64>,
    probe_requests: Vec<(&'static str, f64)>,
}

fn e<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |err| format!("{what}: {err}")
}

/// Runs the ladder and the in-process farm probes (create, evict,
/// revive, calibration swap, ping), plus one `farm_control` block when
/// `control_probe` is set.
fn ladder(
    spec: &LadderSpec,
    p: &Params,
    control_probe: bool,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<Ladder, String> {
    let farm = Arc::new(Farm::new(
        FarmConfig {
            workers: p.workers,
            quantum: QUANTUM,
            evict_dir: p.work_dir.join("ladder"),
            ..FarmConfig::default()
        },
        Telemetry::new(),
    ));
    let sched = Scheduler::spawn(Arc::clone(&farm));
    let mut server = FarmServer::spawn_on(Arc::clone(&farm), 0).map_err(e("farm server"))?;
    let mut client = FarmClient::connect(server.local_addr()).map_err(e("connect"))?;
    let (b, bt) = (spec.budget, spec.budget.min(TRACED_CAP));

    let mut create_ms = Vec::new();
    let mut subjects = Vec::new();
    for &kind in spec.kinds {
        let (sched_id, ns) = timed(spans, "farm.create", 0, None, || {
            farm.create(kind, spec.traced)
        });
        create_ms.push(ns as f64 / 1e6);
        subjects.push(Subject {
            soc: farm_session(kind, spec.traced)?,
            psi: farm_session(kind, false)?,
            core: farm_session(kind, true)?,
            host: farm_session(kind, spec.traced)?,
            sched_id: sched_id.map_err(e("Farm::create"))?,
            client_id: client
                .create(kind.name(), spec.traced)
                .map_err(e("session.create"))?,
        });
    }

    // ns[rep][rung] and cycles[rep][rung], summed over kinds.
    let mut ns = vec![[0u64; RUNGS]; spec.reps];
    let mut cycles = vec![[0u64; RUNGS]; spec.reps];
    let mut rpc_self_ms = Vec::new();
    let mut pings = Vec::new();
    let (mut soc_stats, mut psi_stats) = (ExecStats::default(), ExecStats::default());
    for rep in 0..spec.reps {
        let op = rep as u64;
        let parent = spans.open("ladder.rep", op, Instant::now());
        for s in &mut subjects {
            let before = *s.soc.exec_stats();
            let (_, t) = timed(spans, RUNG_SPANS[SOC], op, parent, || {
                s.soc.debugger_mut().device_mut().soc_mut().run_cycles(b)
            });
            add_stats(&mut soc_stats, &before, s.soc.exec_stats());
            ns[rep][SOC] += t;
            cycles[rep][SOC] += b;

            let before = *s.psi.exec_stats();
            let (_, t) = timed(spans, RUNG_SPANS[PSI], op, parent, || {
                s.psi.debugger_mut().device_mut().run_cycles(b)
            });
            add_stats(&mut psi_stats, &before, s.psi.exec_stats());
            ns[rep][PSI] += t;
            cycles[rep][PSI] += b;

            let (_, t) = timed(spans, RUNG_SPANS[CORE], op, parent, || {
                s.core.debugger_mut().device_mut().run_cycles(bt)
            });
            ns[rep][CORE] += t;
            cycles[rep][CORE] += bt;

            let (report, t) = timed(spans, RUNG_SPANS[HOST], op, parent, || s.host.run(b));
            out.check(report.ran == b, || {
                format!("Session::run ran {} of {b}", report.ran)
            });
            ns[rep][HOST] += t;
            cycles[rep][HOST] += b;

            let (outcome, t_sched) = timed(spans, RUNG_SPANS[SCHED], op, parent, || {
                sched.run_blocking(s.sched_id, b)
            });
            out.check(outcome.ran == b && outcome.error.is_none(), || {
                format!(
                    "Scheduler::run_blocking ran {} of {b}: {:?}",
                    outcome.ran, outcome.error
                )
            });
            ns[rep][SCHED] += t_sched;
            cycles[rep][SCHED] += b;

            let (reply, t_client) = timed(spans, RUNG_SPANS[CLIENT], op, parent, || {
                client.run(s.client_id, b)
            });
            let ran = reply.map_err(e("FarmClient::run"))?.0;
            out.check(ran == b, || format!("FarmClient::run ran {ran} of {b}"));
            ns[rep][CLIENT] += t_client;
            cycles[rep][CLIENT] += b;
            rpc_self_ms.push((t_client as f64 - t_sched as f64) / 1e6);
        }
        let (pong, t) = timed(spans, "farm.client.ping", op, parent, || {
            client.call("farm.ping", obj(vec![]))
        });
        pong.map_err(e("farm.ping"))?;
        pings.push(t as f64 / 1e6);
        spans.close(parent, Instant::now());
    }

    // Rungs that ran the same device for the same cycles end on one hash.
    let (mut overflows, mut swap_ms, mut evict_ms, mut revive_ms, mut snap_kb) =
        (0u64, Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (s, &kind) in subjects.iter_mut().zip(spec.kinds) {
        let device = if spec.traced { &s.core } else { &s.psi }.state_hash();
        let sched_session = farm.checkout(s.sched_id).map_err(e("Farm::checkout"))?;
        let sched_hash = sched_session.state_hash();
        farm.checkin(s.sched_id, sched_session, 0);
        let client_hash = client
            .state_hash(s.client_id)
            .map_err(e("session.state_hash"))?;
        let hashes = [device, s.host.state_hash(), sched_hash, client_hash];
        out.check(hashes.iter().all(|&h| h == device), || {
            format!(
                "{} ladder rungs end on different state hashes {hashes:x?}",
                kind.name()
            )
        });
        overflows += s.core.debugger().device().mcds().stats().lost;

        let (r, t) = timed(spans, "replay.evict", 0, None, || farm.evict(s.sched_id));
        let (bytes, hash) = r.map_err(e("Farm::evict"))?;
        evict_ms.push(t as f64 / 1e6);
        snap_kb.push(bytes as f64 / 1024.0);
        let (r, t) = timed(spans, "replay.revive", 0, None, || {
            farm.checkout(s.sched_id)
        });
        let revived = r.map_err(e("Farm::checkout"))?;
        revive_ms.push(t as f64 / 1e6);
        out.check(revived.state_hash() == hash, || {
            "revived session lost its state hash".to_string()
        });
        farm.checkin(s.sched_id, revived, 0);
        for _ in 0..3 {
            let (id, t) = timed(spans, "farm.create", 0, None, || {
                farm.create(kind, spec.traced)
            });
            farm.destroy(id.map_err(e("Farm::create"))?)
                .map_err(e("Farm::destroy"))?;
            create_ms.push(t as f64 / 1e6);
        }
        client.destroy(s.client_id).map_err(e("session.destroy"))?;
    }

    // Page swaps on an engine session: on a two-core session the debug
    // master never wins bus arbitration and the swap fails.
    let mut cal = farm_session(Kind::Engine, false)?;
    for rep in 0..spec.reps {
        cal.run(b);
        for page in [1, 0] {
            let (r, t) = timed(spans, "xcp.set_cal_page", rep as u64, None, || {
                cal.set_cal_page(page)
            });
            r.map_err(e("Session::set_cal_page"))?;
            swap_ms.push(t as f64 / 1e6);
        }
    }

    let mut probe_requests = Vec::new();
    if control_probe {
        let client = FarmClient::connect(server.local_addr()).map_err(e("connect"))?;
        probe_requests = control_block(FarmTarget::new(client), p.seed, out, spans)?;
    }
    drop(client);
    server.shutdown();
    drop(sched);

    let per_cycle = |rung: usize| -> Vec<f64> {
        (0..spec.reps)
            .map(|r| ns[r][rung] as f64 / cycles[r][rung] as f64)
            .collect()
    };
    let diff = |hi: usize, lo: usize| -> Vec<f64> {
        per_cycle(hi)
            .iter()
            .zip(per_cycle(lo))
            .map(|(a, b)| a - b)
            .collect()
    };
    let below_host = if spec.traced { CORE } else { PSI };
    let soc_total = soc_stats.stepped_cycles + soc_stats.skipped_cycles + soc_stats.block_cycles;
    let psi_total = psi_stats.stepped_cycles + psi_stats.skipped_cycles + psi_stats.block_cycles;
    let n = spec.reps;
    let nk = spec.kinds.len() * n;
    let ns_c = "ns/cycle";
    let metrics = vec![
        median_metric("soc.ns_per_cycle", &per_cycle(SOC), ns_c, Better::Lower)?,
        Metric::new(
            "soc.block_ratio",
            ratio(soc_stats.block_cycles, soc_total),
            "ratio",
            Better::Higher,
            nk,
        ),
        Metric::new(
            "soc.skip_ratio",
            ratio(soc_stats.skipped_cycles, soc_total),
            "ratio",
            Better::Higher,
            nk,
        ),
        Metric::new(
            "soc.decode_hit_ratio",
            ratio(
                soc_stats.decode_hits,
                soc_stats.decode_hits + soc_stats.decode_misses,
            ),
            "ratio",
            Better::Higher,
            nk,
        ),
        median_metric("psi.ns_per_cycle", &per_cycle(PSI), ns_c, Better::Lower)?,
        median_metric(
            "psi.self_ns_per_cycle",
            &diff(PSI, SOC),
            ns_c,
            Better::Lower,
        )?,
        Metric::new(
            "psi.kernel_ratio",
            ratio(psi_stats.block_cycles + psi_stats.skipped_cycles, psi_total),
            "ratio",
            Better::Higher,
            nk,
        ),
        median_metric("host.ns_per_cycle", &per_cycle(HOST), ns_c, Better::Lower)?,
        median_metric(
            "host.self_ns_per_cycle",
            &diff(HOST, below_host),
            ns_c,
            Better::Lower,
        )?,
        median_metric(
            "farm.sched_ns_per_cycle",
            &per_cycle(SCHED),
            ns_c,
            Better::Lower,
        )?,
        median_metric(
            "farm.sched_self_ns_per_cycle",
            &diff(SCHED, HOST),
            ns_c,
            Better::Lower,
        )?,
        median_metric("farm.rpc_self_ms", &rpc_self_ms, "ms", Better::Lower)?,
        median_metric("farm.create_ms", &create_ms, "ms", Better::Lower)?,
        median_metric("replay.evict_ms", &evict_ms, "ms", Better::Lower)?,
        median_metric("replay.revive_ms", &revive_ms, "ms", Better::Lower)?,
        median_metric("replay.snapshot_kb", &snap_kb, "kB", Better::Lower)?,
        median_metric("xcp.cal_swap_ms", &swap_ms, "ms", Better::Lower)?,
        median_metric("core.ns_per_cycle", &per_cycle(CORE), ns_c, Better::Lower)?,
        median_metric(
            "core.self_ns_per_cycle",
            &diff(CORE, PSI),
            ns_c,
            Better::Lower,
        )?,
        Metric::new(
            "core.fifo_overflows",
            overflows as f64,
            "count",
            Better::Lower,
            nk,
        ),
    ];
    Ok(Ladder {
        metrics,
        pings,
        probe_requests,
    })
}

/// One `farm_control` block on a fresh pool: a sample of every control
/// method for workloads whose own ops do not send them.
fn control_block(
    mut target: FarmTarget,
    seed: u64,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut script = FarmControlScript::new(seed, u64::from(u16::MAX));
    let mut checker = crate::exec::Checker::default();
    let mut samples = Vec::new();
    let mut steps = script.setup();
    for _ in 0..FarmControlScript::BLOCK_OPS {
        steps.extend(script.next_op());
    }
    steps.extend((0..3).map(|slot| Step::Destroy { slot }));
    for step in &steps {
        let name = format!("farm.rpc.{}", step.method());
        let (reply, t) = timed(spans, &name, 0, None, || target.exec(step));
        let reply = reply?;
        let failure = checker.check(step, &reply);
        out.check(failure.is_none(), || failure.clone().unwrap_or_default());
        samples.push((step.method(), t as f64 / 1e6));
    }
    Ok(samples)
}

/// Trace metrics from in-process `Session::pull_trace` calls.
fn trace_metrics(pulls: &[PullSample]) -> Result<Vec<Metric>, String> {
    let pull_ms: Vec<f64> = pulls.iter().map(|s| s.ns as f64 / 1e6).collect();
    let per_msg: Vec<f64> = pulls
        .iter()
        .filter(|s| s.messages > 0)
        .map(|s| s.ns as f64 / s.messages as f64)
        .collect();
    let per_kcycle: Vec<f64> = pulls
        .iter()
        .filter(|s| s.cycles > 0)
        .map(|s| s.bytes as f64 * 1000.0 / s.cycles as f64)
        .collect();
    Ok(vec![
        median_metric("trace.pull_ms", &pull_ms, "ms", Better::Lower)?,
        median_metric("trace.decode_ns_per_msg", &per_msg, "ns/msg", Better::Lower)?,
        median_metric(
            "trace.bytes_per_kcycle",
            &per_kcycle,
            "B/kcycle",
            Better::Lower,
        )?,
    ])
}

/// A short traced `engine+gearbox` capture session in process, for
/// workloads that pull no trace themselves.
fn trace_probe() -> Result<Vec<PullSample>, String> {
    let mut local = LocalTarget::default();
    local.exec(&Step::Create {
        slot: 0,
        workload: Kind::EngineGearbox,
        trace: true,
    })?;
    for _ in 0..3 {
        local.exec(&Step::Run {
            slot: 0,
            cycles: 40_000,
        })?;
        local.exec(&Step::Pull { slot: 0 })?;
    }
    Ok(local.pulls)
}

/// Slices of the vehicle probe.
const VNET_SLICES: usize = 10;

/// The vehicle fabric: a fresh 8-ECU fleet over `slices` generated
/// slices, against the same ECU devices run standalone for as many
/// cycles.
fn vnet_probe(seed: u64, slices: usize, spans: &mut Spans) -> Result<Vec<Metric>, String> {
    let mut v = demo::fleet(FLEET_ECUS);
    let mut script = VehicleScript::new(seed);
    let ecu_cycles = (FLEET_ECUS as u64 * VehicleScript::SLICE) as f64;
    let mut fleet_ns = Vec::new();
    for i in 0..slices {
        let slice = script.next_slice();
        let mut cursor = 0;
        let (_, t) = timed(spans, "vnet.run_with_events", i as u64, None, || {
            v.run_with_events(&slice.log, &mut cursor, slice.cycles)
        });
        fleet_ns.push(t as f64 / ecu_cycles);
    }
    let mut devices: Vec<_> = (0..FLEET_ECUS / 2)
        .flat_map(|_| [demo::engine_device(None), demo::gearbox_device(None)])
        .collect();
    let mut alone_ns = Vec::new();
    for i in 0..slices {
        let (_, t) = timed(spans, "vnet.standalone_ecus", i as u64, None, || {
            for d in &mut devices {
                d.run_cycles(VehicleScript::SLICE);
            }
        });
        alone_ns.push(t as f64 / ecu_cycles);
    }
    let fabric: Vec<f64> = fleet_ns.iter().zip(&alone_ns).map(|(a, b)| a - b).collect();
    let stats = v.stats();
    let kcycles = v.cycle() as f64 / 1000.0;
    Ok(vec![
        median_metric(
            "vnet.ns_per_ecu_cycle",
            &fleet_ns,
            "ns/cycle",
            Better::Lower,
        )?,
        median_metric(
            "vnet.self_ns_per_ecu_cycle",
            &fabric,
            "ns/cycle",
            Better::Lower,
        )?,
        Metric::new(
            "vnet.frames_per_kcycle",
            stats.frames as f64 / kcycles,
            "frames/kcycle",
            Better::Higher,
            slices,
        ),
        Metric::new(
            "vnet.error_frames",
            stats.frame_errors as f64,
            "count",
            Better::Lower,
            slices,
        ),
        Metric::new(
            "vnet.gateway_forwards",
            stats.gateway_forwarded as f64,
            "count",
            Better::Higher,
            slices,
        ),
    ])
}

/// The per-layer report of workload `w`'s traced run, in
/// [`LAYER_METRICS`] order. `requests` are the (method, ms) of the
/// workload's own requests and `pulls` its in-process trace pulls.
pub fn report(
    w: Workload,
    p: &Params,
    requests: &[(&'static str, f64)],
    pulls: &[PullSample],
    (trace_overhead_pct, ops): (f64, usize),
    out: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let mut spans = Spans::new(Instant::now(), true, 0);
    let covered = CONTROL_METHODS
        .iter()
        .all(|m| requests.iter().any(|(r, _)| r == m));
    let lad = ladder(&ladder_spec(w), p, !covered, out, &mut spans)?;
    let all: Vec<(&str, f64)> = requests
        .iter()
        .chain(&lad.probe_requests)
        .copied()
        .collect();
    let mut pings: Vec<f64> = all
        .iter()
        .filter(|(m, _)| *m == "farm.ping")
        .map(|r| r.1)
        .collect();
    pings.extend(&lad.pings);
    let pulls = if pulls.is_empty() {
        trace_probe()?
    } else {
        pulls.to_vec()
    };

    let mut metrics = lad.metrics;
    metrics.push(median_metric("farm.ping_ms", &pings, "ms", Better::Lower)?);
    for m in CONTROL_METHODS {
        // Requests from the workload's own ops when it sends the method,
        // else from the probe block.
        let own: Vec<f64> = requests
            .iter()
            .filter(|(r, _)| *r == m)
            .map(|r| r.1)
            .collect();
        let samples = if own.is_empty() {
            all.iter().filter(|(r, _)| *r == m).map(|r| r.1).collect()
        } else {
            own
        };
        let name = format!("farm.rpc.{m}.p50_ms");
        metrics.push(median_metric(&name, &samples, "ms", Better::Lower)?);
    }
    metrics.extend(trace_metrics(&pulls)?);
    metrics.extend(vnet_probe(p.seed, VNET_SLICES, &mut spans)?);
    metrics.push(Metric::new(
        "bench.trace_overhead_pct",
        trace_overhead_pct,
        "%",
        Better::Lower,
        ops,
    ));
    out.spans.push(spans);
    in_report_order(metrics)
}

/// Orders `metrics` as [`LAYER_METRICS`], checking that each is present
/// once with its declared unit and direction.
fn in_report_order(mut metrics: Vec<Metric>) -> Result<Vec<Metric>, String> {
    let mut ordered = Vec::new();
    for (name, unit, better) in LAYER_METRICS {
        let i = metrics
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        let m = metrics.swap_remove(i);
        if m.unit != unit || m.better != better {
            return Err(format!(
                "per-layer metric {name} has unit {} / {}",
                m.unit,
                m.better.word()
            ));
        }
        ordered.push(m);
    }
    match metrics.first() {
        Some(extra) => Err(format!("per-layer metric {} is not declared", extra.name)),
        None => Ok(ordered),
    }
}

/// Every per-layer metric, in report order, with unit and direction.
pub const LAYER_METRICS: [(&str, &str, Better); 44] = [
    ("soc.ns_per_cycle", "ns/cycle", Better::Lower),
    ("soc.block_ratio", "ratio", Better::Higher),
    ("soc.skip_ratio", "ratio", Better::Higher),
    ("soc.decode_hit_ratio", "ratio", Better::Higher),
    ("psi.ns_per_cycle", "ns/cycle", Better::Lower),
    ("psi.self_ns_per_cycle", "ns/cycle", Better::Lower),
    ("psi.kernel_ratio", "ratio", Better::Higher),
    ("host.ns_per_cycle", "ns/cycle", Better::Lower),
    ("host.self_ns_per_cycle", "ns/cycle", Better::Lower),
    ("farm.sched_ns_per_cycle", "ns/cycle", Better::Lower),
    ("farm.sched_self_ns_per_cycle", "ns/cycle", Better::Lower),
    ("farm.ping_ms", "ms", Better::Lower),
    ("farm.rpc_self_ms", "ms", Better::Lower),
    ("farm.create_ms", "ms", Better::Lower),
    ("farm.rpc.farm.ping.p50_ms", "ms", Better::Lower),
    ("farm.rpc.session.run.p50_ms", "ms", Better::Lower),
    ("farm.rpc.breakpoint.set.p50_ms", "ms", Better::Lower),
    ("farm.rpc.breakpoint.clear.p50_ms", "ms", Better::Lower),
    ("farm.rpc.reg.read.p50_ms", "ms", Better::Lower),
    ("farm.rpc.mem.read.p50_ms", "ms", Better::Lower),
    ("farm.rpc.mem.write.p50_ms", "ms", Better::Lower),
    ("farm.rpc.session.resume_core.p50_ms", "ms", Better::Lower),
    ("farm.rpc.xcp.set_cal_page.p50_ms", "ms", Better::Lower),
    ("farm.rpc.xcp.cal_page.p50_ms", "ms", Better::Lower),
    ("farm.rpc.session.state_hash.p50_ms", "ms", Better::Lower),
    ("farm.rpc.session.evict.p50_ms", "ms", Better::Lower),
    ("farm.rpc.session.create.p50_ms", "ms", Better::Lower),
    ("farm.rpc.session.destroy.p50_ms", "ms", Better::Lower),
    ("replay.evict_ms", "ms", Better::Lower),
    ("replay.revive_ms", "ms", Better::Lower),
    ("replay.snapshot_kb", "kB", Better::Lower),
    ("xcp.cal_swap_ms", "ms", Better::Lower),
    ("core.ns_per_cycle", "ns/cycle", Better::Lower),
    ("core.self_ns_per_cycle", "ns/cycle", Better::Lower),
    ("core.fifo_overflows", "count", Better::Lower),
    ("trace.pull_ms", "ms", Better::Lower),
    ("trace.decode_ns_per_msg", "ns/msg", Better::Lower),
    ("trace.bytes_per_kcycle", "B/kcycle", Better::Lower),
    ("vnet.ns_per_ecu_cycle", "ns/cycle", Better::Lower),
    ("vnet.self_ns_per_ecu_cycle", "ns/cycle", Better::Lower),
    ("vnet.frames_per_kcycle", "frames/kcycle", Better::Higher),
    ("vnet.error_frames", "count", Better::Lower),
    ("vnet.gateway_forwards", "count", Better::Higher),
    ("bench.trace_overhead_pct", "%", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing `{key}`")),
            _ => panic!("not an object"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let bench: Value = serde_json::from_str(&json).expect("valid JSON");
        let Value::Seq(per_layer) = field(&bench, "per_layer") else {
            panic!("per_layer is not a list")
        };
        let declared: Vec<(&str, &str, &str)> = per_layer
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")),
                    text(field(m, "unit")),
                    text(field(m, "better")),
                )
            })
            .collect();
        let reported: Vec<(&str, &str, &str)> = LAYER_METRICS
            .iter()
            .map(|(n, u, b)| (*n, *u, b.word()))
            .collect();
        assert_eq!(declared, reported);

        let Value::Seq(e2e) = field(&bench, "end_to_end") else {
            panic!("end_to_end is not a list")
        };
        let names: Vec<&str> = e2e.iter().map(|m| text(field(m, "name"))).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "sim_mcps",
                "op_p50_ms",
                "op_p90_ms",
                "ops_per_s",
                "peak_rss_mb"
            ]
        );
        let Value::Seq(workloads) = field(&bench, "workloads") else {
            panic!("workloads is not a list")
        };
        let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        for (name, unit, _) in LAYER_METRICS {
            assert!(crate::stats::valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }
}
