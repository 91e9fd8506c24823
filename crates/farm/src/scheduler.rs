//! The run-quantum scheduler: K worker threads multiplexing M sessions.
//!
//! `session.run` requests become [`RunJob`]s on a shared FIFO queue. A
//! worker pops a job, checks its session out of the registry, runs one
//! quantum ([`crate::FarmConfig::quantum`] cycles, or less if the request
//! has less remaining), checks it back in, and either re-enqueues the job
//! at the tail (fairness: other sessions get the worker in between) or
//! completes it when the budget is spent or a core stopped.
//!
//! Each quantum is recorded as a [`Subsystem::Farm`] span and credits
//! `farm_cycles_total`, so aggregate farm throughput (simulated cycles
//! per wall second) falls directly out of the telemetry snapshot.

use crate::proto::{RpcError, ERR_DEVICE};
use crate::registry::Farm;
use mcds_host::StopEvent;
use mcds_telemetry::Subsystem;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The final result of one `session.run` request.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Cycles actually run (may be short of the request when a core
    /// stopped).
    pub ran: u64,
    /// The stop that ended the run early, if any.
    pub stop: Option<StopEvent>,
    /// Set when the session vanished or revival failed mid-run; carries
    /// the typed farm error code.
    pub error: Option<RpcError>,
}

struct RunJob {
    session: u64,
    remaining: u64,
    ran: u64,
    /// Correlation id of the farm request this run belongs to; stamped on
    /// every quantum/anchor/device event it produces.
    corr: Option<u64>,
    done: mpsc::Sender<RunOutcome>,
}

struct Queue {
    jobs: Mutex<VecDeque<RunJob>>,
    cond: Condvar,
    shutdown: AtomicBool,
}

/// The worker pool. Dropping it shuts the workers down and joins them.
pub struct Scheduler {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `farm.config().workers` worker threads over the registry.
    pub fn spawn(farm: Arc<Farm>) -> Scheduler {
        let queue = Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..farm.config().workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let farm = Arc::clone(&farm);
                std::thread::Builder::new()
                    .name(format!("farm-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &farm))
                    .expect("spawn farm worker")
            })
            .collect();
        Scheduler { queue, workers }
    }

    /// Submits a run request; the returned receiver yields exactly one
    /// [`RunOutcome`] when the request completes.
    pub fn submit(&self, session: u64, cycles: u64) -> mpsc::Receiver<RunOutcome> {
        self.submit_with_corr(session, cycles, None)
    }

    /// Like [`Scheduler::submit`], stamping every quantum the request runs
    /// with the given obs correlation id.
    pub fn submit_with_corr(
        &self,
        session: u64,
        cycles: u64,
        corr: Option<u64>,
    ) -> mpsc::Receiver<RunOutcome> {
        let (tx, rx) = mpsc::channel();
        let job = RunJob {
            session,
            remaining: cycles,
            ran: 0,
            corr,
            done: tx,
        };
        let mut jobs = self.queue.jobs.lock().unwrap();
        jobs.push_back(job);
        drop(jobs);
        self.queue.cond.notify_one();
        rx
    }

    /// Submits a run request and blocks until it completes.
    pub fn run_blocking(&self, session: u64, cycles: u64) -> RunOutcome {
        self.run_blocking_with_corr(session, cycles, None)
    }

    /// Like [`Scheduler::run_blocking`] with an obs correlation id.
    pub fn run_blocking_with_corr(
        &self,
        session: u64,
        cycles: u64,
        corr: Option<u64>,
    ) -> RunOutcome {
        self.submit_with_corr(session, cycles, corr)
            .recv()
            .unwrap_or(RunOutcome {
                ran: 0,
                stop: None,
                error: Some(RpcError::new(ERR_DEVICE, "scheduler shut down")),
            })
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.queue.shutdown.store(true, Ordering::SeqCst);
        self.queue.cond.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(queue: &Queue, farm: &Farm) {
    loop {
        let mut job = {
            let mut jobs = queue.jobs.lock().unwrap();
            loop {
                if queue.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                match jobs.pop_front() {
                    Some(j) => break j,
                    None => jobs = queue.cond.wait(jobs).unwrap(),
                }
            }
        };

        let quantum = farm.config().quantum.max(1);
        let slice = job.remaining.min(quantum);
        let mut session = match farm.checkout(job.session) {
            Ok(s) => s,
            Err(e) => {
                let _ = job.done.send(RunOutcome {
                    ran: job.ran,
                    stop: None,
                    error: Some(e),
                });
                continue;
            }
        };

        let start_cycle = session.cycles_run();
        // The session carries the journal handle for exactly this quantum,
        // so device-layer events land with the causing request's id.
        session.set_obs(Some(farm.journal().clone()), job.corr);
        let kernel_before = *session.exec_stats();
        let wall = std::time::Instant::now();
        let report = session.run(slice);
        let wall_ns = wall.elapsed().as_nanos() as u64;
        session.set_obs(None, None);
        let kernel_after = *session.exec_stats();
        let end_cycle = session.cycles_run();
        farm.telemetry()
            .span(Subsystem::Farm, start_cycle, end_cycle, wall_ns);
        farm.journal().record(
            job.corr,
            Some(end_cycle),
            mcds_obs::ObsEvent::SchedulerQuantum {
                session: job.session,
                start_cycle,
                end_cycle,
                wall_ns,
            },
        );
        // The quantum boundary is the cycle↔wall anchor the unified
        // timeline aligns sim-cycle tracks with.
        farm.journal().record(
            job.corr,
            Some(end_cycle),
            mcds_obs::ObsEvent::CycleAnchor {
                session: job.session,
                cycle: end_cycle,
            },
        );
        // Quantum accounting: how much of this slice the execution kernel
        // skipped as quiescent or ran as batched blocks.
        farm.credit_kernel(
            kernel_after.skipped_cycles - kernel_before.skipped_cycles,
            kernel_after.block_cycles - kernel_before.block_cycles,
        );
        farm.checkin(job.session, session, report.ran);

        job.ran += report.ran;
        job.remaining = job.remaining.saturating_sub(slice);
        if report.stop.is_some() || job.remaining == 0 {
            let _ = job.done.send(RunOutcome {
                ran: job.ran,
                stop: report.stop,
                error: None,
            });
            continue;
        }
        // More budget left and no stop: rotate to the back of the queue so
        // other sessions get a turn.
        let mut jobs = queue.jobs.lock().unwrap();
        jobs.push_back(job);
        drop(jobs);
        queue.cond.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{FarmConfig, SESSION_RESIDENT_BYTES};
    use mcds_telemetry::Telemetry;
    use mcds_workloads::Workload;

    fn small_farm(workers: usize, budget: usize) -> Arc<Farm> {
        Arc::new(Farm::new(
            FarmConfig {
                workers,
                quantum: 10_000,
                memory_budget_bytes: budget,
                evict_dir: std::env::temp_dir()
                    .join(format!("mcds-farm-sched-{}-{workers}", std::process::id())),
                ..Default::default()
            },
            Telemetry::new(),
        ))
    }

    #[test]
    fn sliced_run_matches_unsliced_state() {
        // Two farms, same workload: one runs 60k cycles through the
        // scheduler in 10k quanta, the other runs 60k in one Session::run
        // call. Quantum slicing must not change architectural state.
        let farm = small_farm(2, usize::MAX);
        let id = farm.create(Workload::Engine, false).unwrap();
        let sched = Scheduler::spawn(Arc::clone(&farm));
        let outcome = sched.run_blocking(id, 60_000);
        assert_eq!(outcome.ran, 60_000, "{:?}", outcome.error);
        let s = farm.checkout(id).unwrap();
        let sliced_hash = s.state_hash();
        farm.checkin(id, s, 0);

        let control = small_farm(1, usize::MAX);
        let cid = control.create(Workload::Engine, false).unwrap();
        let mut c = control.checkout(cid).unwrap();
        c.run(60_000);
        assert_eq!(c.state_hash(), sliced_hash);
        control.checkin(cid, c, 60_000);
    }

    #[test]
    fn many_sessions_share_few_workers() {
        let farm = small_farm(2, usize::MAX);
        let ids: Vec<u64> = (0..6)
            .map(|_| farm.create(Workload::Engine, false).unwrap())
            .collect();
        let sched = Scheduler::spawn(Arc::clone(&farm));
        let rxs: Vec<_> = ids.iter().map(|&id| sched.submit(id, 30_000)).collect();
        for rx in rxs {
            let outcome = rx.recv().unwrap();
            assert_eq!(outcome.ran, 30_000, "{:?}", outcome.error);
        }
        assert_eq!(farm.stats().cycles_total, 6 * 30_000);
    }

    #[test]
    fn scheduler_runs_through_eviction_pressure() {
        // Budget for one resident session with four competing: every
        // checkout may revive from disk, every checkin may evict. The
        // scheduler must still complete all work.
        let farm = small_farm(2, SESSION_RESIDENT_BYTES);
        let ids: Vec<u64> = (0..4)
            .map(|_| farm.create(Workload::Engine, false).unwrap())
            .collect();
        let sched = Scheduler::spawn(Arc::clone(&farm));
        let rxs: Vec<_> = ids.iter().map(|&id| sched.submit(id, 20_000)).collect();
        for rx in rxs {
            let outcome = rx.recv().unwrap();
            assert_eq!(outcome.ran, 20_000, "{:?}", outcome.error);
        }
        assert!(farm.stats().evicted > 0, "budget pressure never evicted");
        assert_eq!(
            farm.stats().evicted,
            farm.stats().revived + farm.stats().sessions_evicted as u64
        );
    }
}
