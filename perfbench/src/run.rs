//! The workloads: set-up, the closed-loop timed phase, and the
//! checks of every output against the in-process reference.

use crate::exec::{Checker, FarmTarget, LocalTarget, Reply, Target, QUANTUM};
use crate::gen::{FarmControlScript, FarmRunScript, Op, Script, Step, TracedDebugScript};
use crate::layers;
use crate::spans::Spans;
use crate::stats::{highest_tail, median, percentile, Better, Metric};
use mcds_farm::{FarmClient, FarmConfig, FarmServer};
use mcds_replay::extend_fnv1a64;
use mcds_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workloads, by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long untraced `session.run` quanta over the wire.
    FarmRun,
    /// Traced capture sessions: run, then pull trace.
    TracedDebug,
    /// Interactive debugger requests over a pool of sessions.
    FarmControl,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::FarmRun,
        Workload::TracedDebug,
        Workload::FarmControl,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FarmRun => "farm_run",
            Workload::TracedDebug => "traced_debug",
            Workload::FarmControl => "farm_control",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections on a box with `cpus` usable CPUs (at most 2):
    /// `farm_control` is one interactive debugger; the others load the
    /// farm from every CPU.
    pub fn clients(self, cpus: usize) -> usize {
        match self {
            Workload::FarmRun | Workload::TracedDebug => cpus,
            Workload::FarmControl => 1,
        }
    }

    /// Ops each client runs per second of `--seconds`: a run is a fixed,
    /// seed-determined op list sized to last about `--seconds` on the
    /// reference box (2 vCPU). Fixed work, not a deadline, because the
    /// per-op cost changes with simulated time (see README), so a
    /// deadline would measure a different mix whenever speed changes.
    fn ops_per_second(self) -> f64 {
        match self {
            Workload::FarmRun => 4.5,
            Workload::TracedDebug => 3.5,
            Workload::FarmControl => 7.0,
        }
    }

    /// Ops after which the script has run every op kind in its fixed
    /// proportions: three rounds of quanta, one capture round, one block.
    fn granule(self) -> usize {
        match self {
            Workload::FarmRun => 9,
            Workload::TracedDebug => TracedDebugScript::RUNS.len() + 1,
            Workload::FarmControl => FarmControlScript::BLOCK_OPS,
        }
    }

    /// Ops per client in a run of `seconds`, rounded up to whole granules
    /// so every seed runs the same mix.
    fn ops(self, seconds: f64) -> usize {
        let granules = (seconds * self.ops_per_second() / self.granule() as f64).ceil();
        (granules as usize).max(1) * self.granule()
    }

    /// Leading ops of client 0 that are carried out again in process and
    /// must give identical replies.
    fn mirror_ops(self) -> usize {
        match self {
            Workload::FarmRun => 16,
            Workload::TracedDebug => 14,
            Workload::FarmControl => 2 * FarmControlScript::BLOCK_OPS,
        }
    }

    fn script(self, seed: u64, client: u64) -> Box<dyn Script> {
        match self {
            Workload::FarmRun => Box::new(FarmRunScript::new(seed, client)),
            Workload::TracedDebug => Box::new(TracedDebugScript::new(seed, client)),
            Workload::FarmControl => Box::new(FarmControlScript::new(seed, client)),
        }
    }

    /// Requests issued after the mirrored ops and after the last op: the
    /// state hash of every long-lived session, so the digest and the
    /// mirror check cover device state.
    fn checkpoint(self) -> Vec<Step> {
        match self {
            Workload::FarmRun | Workload::FarmControl => {
                (0..3).map(|slot| Step::StateHash { slot }).collect()
            }
            Workload::TracedDebug => Vec::new(),
        }
    }
}

/// Run parameters from the command line.
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for evicted sessions.
    pub work_dir: PathBuf,
    /// Concurrent client connections.
    pub clients: usize,
    /// Farm scheduler workers.
    pub workers: usize,
}

/// Everything a run reports.
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
    /// Ops and checks attempted.
    pub attempted: u64,
    /// Ops and checks that failed.
    pub failed: u64,
    /// Why they failed.
    pub failures: Vec<String>,
    /// Digest over the simulated outcomes of every op and checkpoint.
    pub digest: u64,
    /// Span recorders (traced run only).
    pub spans: Vec<Spans>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            metrics: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            spans: Vec::new(),
        }
    }

    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-up repeats at least `SETUP_MIN` times and until `SETUP_WALL`
/// seconds have passed (at most `SETUP_MAX` times); `setup_s` is the
/// median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_WALL: f64 = 0.3;

fn setup_done(setup_s: &[f64]) -> bool {
    setup_s.len() >= SETUP_MAX
        || (setup_s.len() >= SETUP_MIN && setup_s.iter().sum::<f64>() >= SETUP_WALL)
}

/// In a traced run, spans are recorded on odd ops only; the latency
/// difference between odd and even ops is the tracing overhead.
fn traced_op(p: &Params, index: usize) -> bool {
    p.trace && index % 2 == 1
}

/// One client's timed phase.
struct ClientRun {
    /// Op latencies (ms), by op index.
    op_ms: Vec<f64>,
    /// Simulated cycles run by the ops.
    cycles: u64,
    /// Wall time of the op loop.
    wall: Duration,
    /// (method, ms) of every request the ops sent.
    requests: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Every reply, in order (None: the request failed).
    replies: Vec<Option<Reply>>,
    /// Replies up to and including the checkpoint after the mirrored ops.
    mirrored: usize,
    checker: Checker,
    spans: Spans,
}

/// Carries out one request: times it, checks the reply and records it.
/// Returns its latency (ms).
fn exec_step(
    target: &mut dyn Target,
    step: &Step,
    run: &mut ClientRun,
    spans: &mut Spans,
    op: u64,
    parent: Option<usize>,
) -> f64 {
    let t0 = Instant::now();
    let result = target.exec(step);
    let t1 = Instant::now();
    spans.record(&format!("farm.rpc.{}", step.method()), op, parent, t0, t1);
    run.attempted += 1;
    let reply = match result {
        Ok(reply) => {
            if let Some(f) = run.checker.check(step, &reply) {
                run.failures.push(f);
                run.failed += 1;
            }
            Some(reply)
        }
        Err(e) => {
            run.failures.push(e);
            run.failed += 1;
            None
        }
    };
    if let Some(Reply::Run { ran, .. }) = &reply {
        run.cycles += ran;
    }
    run.replies.push(reply);
    ms(t1 - t0)
}

/// Drives one client's closed loop over `ops` ops: the next op is sent
/// only when the previous one completed.
fn drive(
    target: &mut FarmTarget,
    script: &mut dyn Script,
    checkpoint: &[Step],
    (ops, mirror_ops): (usize, usize),
    p: &Params,
    mut spans: Spans,
) -> ClientRun {
    let mut run = ClientRun {
        op_ms: Vec::with_capacity(ops),
        cycles: 0,
        wall: Duration::ZERO,
        requests: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        replies: Vec::new(),
        mirrored: 0,
        checker: Checker::default(),
        spans: Spans::new(Instant::now(), false, 0),
    };
    let start = Instant::now();
    for index in 0..ops {
        spans.set_enabled(traced_op(p, index));
        let op: Op = script.next_op();
        let t0 = Instant::now();
        let parent = spans.open(&format!("op.{}", op[0].method()), index as u64, t0);
        for step in &op {
            let t = exec_step(target, step, &mut run, &mut spans, index as u64, parent);
            run.requests.push((step.method(), t));
        }
        let t1 = Instant::now();
        spans.close(parent, t1);
        run.op_ms.push(ms(t1 - t0));
        if mirror_ops > 0 && index + 1 == mirror_ops.min(ops) {
            for step in checkpoint {
                exec_step(target, step, &mut run, &mut spans, index as u64, None);
            }
            run.mirrored = run.replies.len();
        }
    }
    run.wall = start.elapsed();
    spans.set_enabled(false);
    run.spans = spans;
    run
}

fn fold_replies(digest: u64, replies: &[Option<Reply>]) -> u64 {
    replies.iter().fold(digest, |h, r| match r {
        Some(r) => r.fold(h),
        None => extend_fnv1a64(h, b"failed"),
    })
}

fn farm_config(p: &Params, dir: &Path) -> FarmConfig {
    FarmConfig {
        workers: p.workers,
        quantum: QUANTUM,
        evict_dir: dir.to_path_buf(),
        ..FarmConfig::default()
    }
}

/// Spawns the in-process server, connects one client per script and
/// issues each script's set-up requests.
fn farm_setup(
    p: &Params,
    dir: &Path,
    scripts: &[Box<dyn Script>],
) -> Result<(FarmServer, Vec<FarmTarget>), String> {
    let server = FarmServer::spawn(farm_config(p, dir), Telemetry::new(), 0)
        .map_err(|e| format!("farm server: {e}"))?;
    let mut targets = Vec::new();
    for script in scripts {
        let client =
            FarmClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let mut target = FarmTarget::new(client);
        // A debugger checks that the server answers before it creates
        // sessions.
        target.exec(&Step::Ping)?;
        for step in script.setup() {
            target.exec(&step)?;
        }
        targets.push(target);
    }
    Ok((server, targets))
}

/// Stops a farm server and waits until every thread holding its registry
/// has exited, so that set-ups never overlap; then hands the freed memory
/// back to the system, so that `peak_rss_mb` does not depend on how much
/// the allocator kept from earlier set-ups.
fn teardown(mut server: FarmServer, targets: Vec<FarmTarget>) {
    let farm = Arc::clone(server.farm());
    drop(targets);
    server.shutdown();
    drop(server);
    let t0 = Instant::now();
    while Arc::strong_count(&farm) > 1 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(farm);
    release_free_memory();
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers, is thread-safe, and
    // only returns memory the allocator already holds as free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Runs workload `w`.
pub fn run(w: Workload, p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let scripts =
        || -> Vec<Box<dyn Script>> { (0..p.clients as u64).map(|c| w.script(p.seed, c)).collect() };

    let mut setup_s = Vec::new();
    let mut last = None;
    while !setup_done(&setup_s) {
        let rep = setup_s.len();
        if let Some((server, targets)) = last.take() {
            teardown(server, targets);
        }
        let t0 = Instant::now();
        let s = farm_setup(p, &p.work_dir.join(format!("setup{rep}")), &scripts())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    let (server, targets) = last.expect("set-up ran at least once");

    let epoch = Instant::now();
    let checkpoint = w.checkpoint();
    let sizes = (w.ops(p.seconds), w.mirror_ops());
    let mut targets = targets;
    let mut runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .zip(scripts())
            .enumerate()
            .map(|(c, (target, mut script))| {
                let checkpoint = &checkpoint;
                scope.spawn(move || {
                    let spans = Spans::new(epoch, false, c as u32 + 1);
                    // Only client 0 is mirrored, so only it pauses for the
                    // state hashes after its mirrored ops.
                    let mirror = if c == 0 { sizes.1 } else { 0 };
                    drive(
                        target,
                        script.as_mut(),
                        checkpoint,
                        (sizes.0, mirror),
                        p,
                        spans,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let peak_rss = crate::peak_rss_mb()?;
    // The final state hashes, one client at a time: hashing a device
    // serializes its whole state, and two at once would make the peak
    // resident set depend on timing.
    for (target, run) in targets.iter_mut().zip(&mut runs) {
        let mut spans = Spans::new(epoch, false, 0);
        for step in &checkpoint {
            exec_step(target, step, run, &mut spans, sizes.0 as u64, None);
        }
    }
    teardown(server, targets);

    for run in &runs {
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.failures.extend(run.failures.iter().cloned());
        out.digest = fold_replies(out.digest, &run.replies);
    }

    // Client 0's leading ops again, in process: every reply must match.
    let mut local = LocalTarget::default();
    let mirror = mirror_replies(w, p.seed, sizes.1.min(sizes.0), &mut local)?;
    let wire = &runs[0].replies[..runs[0].mirrored];
    let mismatches = mirror
        .iter()
        .zip(wire)
        .filter(|(a, b)| a.as_ref() != b.as_ref())
        .count()
        + mirror.len().abs_diff(wire.len());
    out.check(mismatches == 0, || {
        format!("{mismatches} wire replies differ from the in-process reference")
    });

    let ops: Vec<f64> = runs.iter().flat_map(|r| r.op_ms.iter().copied()).collect();
    let ops_per_s: f64 = runs
        .iter()
        .map(|r| r.op_ms.len() as f64 / r.wall.as_secs_f64())
        .sum();
    let mcps: f64 = runs
        .iter()
        .map(|r| r.cycles as f64 / r.wall.as_secs_f64() / 1e6)
        .sum();
    out.notes.push(format!(
        "digest {:#018x} over {} ops per client ({} clients)",
        out.digest,
        sizes.0,
        runs.len()
    ));

    if p.trace {
        let requests: Vec<(&str, f64)> = runs
            .iter()
            .flat_map(|r| r.requests.iter().copied())
            .collect();
        let overhead = trace_overhead_pct(p, runs.iter().map(|r| r.op_ms.as_slice()))?;
        out.metrics = layers::report(w, p, &requests, &local.pulls, overhead, &mut out)?;
    } else {
        out.metrics = end_to_end(&setup_s, &ops, ops_per_s, mcps, peak_rss, &mut out.notes)?;
    }
    out.spans.extend(runs.into_iter().map(|r| r.spans));
    Ok(out)
}

/// Median latency of traced (odd) ops over untraced (even) ops, as a
/// percentage overhead, with the number of ops behind it.
fn trace_overhead_pct<'a>(
    p: &Params,
    clients: impl Iterator<Item = &'a [f64]>,
) -> Result<(f64, usize), String> {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for ops in clients {
        for (i, &t) in ops.iter().enumerate() {
            if traced_op(p, i) { &mut on } else { &mut off }.push(t);
        }
    }
    let m = |v: &[f64]| median(v).map_err(|e| format!("trace overhead: {e}"));
    Ok(((m(&on)? / m(&off)? - 1.0) * 100.0, on.len() + off.len()))
}

/// Client 0's set-up, first `ops` ops and checkpoint, carried out in
/// process.
fn mirror_replies(
    w: Workload,
    seed: u64,
    ops: usize,
    local: &mut LocalTarget,
) -> Result<Vec<Option<Reply>>, String> {
    let mut script = w.script(seed, 0);
    for step in script.setup() {
        local.exec(&step)?;
    }
    let mut replies = Vec::new();
    for _ in 0..ops {
        for step in script.next_op() {
            replies.push(local.exec(&step).ok());
        }
    }
    for step in w.checkpoint() {
        replies.push(local.exec(&step).ok());
    }
    Ok(replies)
}

/// The median of `samples`, as a metric.
pub fn median_metric(
    name: &str,
    samples: &[f64],
    unit: &'static str,
    better: Better,
) -> Result<Metric, String> {
    let m = median(samples).map_err(|e| format!("{name}: {e}"))?;
    Ok(Metric::new(name, m, unit, better, samples.len()))
}

fn end_to_end(
    setup_s: &[f64],
    ops: &[f64],
    ops_per_s: f64,
    mcps: f64,
    peak_rss: f64,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let p90 = percentile(ops, 90.0).map_err(|e| format!("op_p90_ms: {e}"))?;
    if let Some((pct, v)) = highest_tail(ops) {
        notes.push(format!(
            "op latency: {} ops, highest supported tail p{pct} = {v:.3} ms",
            ops.len()
        ));
    }
    Ok(vec![
        median_metric("setup_s", setup_s, "s", Better::Lower)?,
        Metric::new("sim_mcps", mcps, "Mcycles/s", Better::Higher, ops.len()),
        median_metric("op_p50_ms", ops, "ms", Better::Lower)?,
        Metric::new("op_p90_ms", p90, "ms", Better::Lower, ops.len()),
        Metric::new("ops_per_s", ops_per_s, "1/s", Better::Higher, ops.len()),
        Metric::new("peak_rss_mb", peak_rss, "MB", Better::Lower, 1),
    ])
}
