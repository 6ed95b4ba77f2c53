//! The wall-clock driver: a real `SocketRuntime` cluster over loopback
//! UDP (no injected delay), two reactor shards, and **one** load-generator
//! thread walking the workload's chains in a closed loop.
//!
//! The generator never sleeps or spins inside a timed region: it sweeps
//! its in-flight `Pending`s with `poll()`, and when a sweep makes no
//! progress it blocks in `Pending::wait()` on its oldest operation. The
//! share of a phase it spent not blocked is reported as `driver.busy_pct`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mocha::config::AvailabilityConfig;
use mocha::replica::{replica_id, ReplicaSpec};
use mocha::runtime::metrics::RuntimeMetrics;
use mocha::runtime::socket::{Freshness, MochaHandle, Pending, SocketRuntime};
use mocha::MochaError;
use mocha_store::{FsyncPolicy, StoreConfig};
use mocha_wire::{ReplicaId, ReplicaPayload};

use crate::procfs::ProcSnapshot;
use crate::sched::Scheduler;
use crate::span::{SpanId, Tracer};
use crate::stamp::verify_read;
use crate::workload::{bench_config, ChainPlan, CycleAction, Plan, WorkloadSpec, SHARDS};

/// A built cluster with every chain's replicas registered.
pub struct Cluster {
    rt: SocketRuntime,
    handles: Vec<MochaHandle>,
    store_dir: Option<PathBuf>,
}

impl Cluster {
    /// Builds the cluster for `plan` and registers every member of every
    /// lock: everything that has to happen before the first cycle can
    /// start. `scratch` receives the store directory of durable workloads.
    ///
    /// # Errors
    ///
    /// A description of the socket, filesystem or registration failure.
    pub fn set_up(plan: &Plan, scratch: &Path) -> Result<Cluster, String> {
        let spec = plan.spec;
        let mut builder = SocketRuntime::builder()
            .sites(spec.sites)
            .shards(SHARDS)
            .config(bench_config());
        let store_dir = spec.durable.then(|| {
            scratch.join(format!(
                "store-{}-{}",
                std::process::id(),
                STORE_SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ))
        });
        if let Some(dir) = &store_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            builder = builder.store_dir(
                dir.clone(),
                StoreConfig {
                    fsync: FsyncPolicy::Never,
                    snapshot_every: 64,
                },
            );
        }
        let rt = builder.build().map_err(|e| format!("build cluster: {e}"))?;
        let handles: Vec<MochaHandle> = (0..spec.sites).map(|i| rt.handle(i)).collect();
        let cluster = Cluster {
            rt,
            handles,
            store_dir,
        };
        for chain in &plan.chains {
            for &site in &chain.members {
                let h = &cluster.handles[site];
                let spec_value = ReplicaSpec::new(
                    chain.replica.clone(),
                    ReplicaPayload::Bytes(chain.initial.clone()),
                );
                h.register(chain.lock, vec![spec_value])
                    .map_err(|e| format!("register {} at site {site}: {e}", chain.lock))?;
                h.set_availability(
                    chain.lock,
                    AvailabilityConfig {
                        ur: spec.ur,
                        ..AvailabilityConfig::default()
                    },
                )
                .map_err(|e| format!("set UR of {} at site {site}: {e}", chain.lock))?;
            }
        }
        Ok(cluster)
    }

    /// Cluster-wide transport counters.
    pub fn metrics(&self) -> RuntimeMetrics {
        self.rt.metrics()
    }

    /// Reactor threads actually running.
    pub fn shard_count(&self) -> usize {
        self.rt.shard_count()
    }

    /// Stops every reactor thread (joined before this returns) and
    /// removes the store directory.
    pub fn tear_down(self) {
        self.rt.shutdown();
        if let Some(dir) = self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Distinguishes the store directories of clusters built in one process.
static STORE_SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The operation a chain has in flight.
enum Flight {
    Acquire(Pending<Freshness>),
    Read(Pending<ReplicaPayload>),
    Write(Pending<()>),
    Release(Pending<()>),
}

/// What a completed operation produced.
enum Outcome {
    Acquired(Freshness),
    Read(ReplicaPayload),
    Wrote,
    Released,
}

impl Flight {
    fn name(&self) -> &'static str {
        match self {
            Flight::Acquire(_) => "acquire",
            Flight::Read(_) => "read",
            Flight::Write(_) => "write",
            Flight::Release(_) => "release",
        }
    }

    fn poll(&self) -> Option<Result<Outcome, MochaError>> {
        match self {
            Flight::Acquire(p) => p.poll().map(|r| r.map(Outcome::Acquired)),
            Flight::Read(p) => p.poll().map(|r| r.map(Outcome::Read)),
            Flight::Write(p) => p.poll().map(|r| r.map(|()| Outcome::Wrote)),
            Flight::Release(p) => p.poll().map(|r| r.map(|()| Outcome::Released)),
        }
    }

    fn wait(self) -> Result<Outcome, MochaError> {
        match self {
            Flight::Acquire(p) => p.wait().map(Outcome::Acquired),
            Flight::Read(p) => p.wait().map(Outcome::Read),
            Flight::Write(p) => p.wait().map(|()| Outcome::Wrote),
            Flight::Release(p) => p.wait().map(|()| Outcome::Released),
        }
    }
}

/// One chain while it is being driven.
struct ChainRun {
    plan: ChainPlan,
    replica: ReplicaId,
    /// The payload the lock holds now: what the next read must return.
    current: Vec<u8>,
    /// Which member runs the next cycle.
    turn: usize,
    /// Cycles the current member has run in its tenure.
    served: usize,
    flight: Option<(Flight, Instant)>,
    /// The payload this cycle writes, if it writes.
    to_write: Option<Vec<u8>>,
    cycle_start: Instant,
    release_start: Instant,
    cycle_span: Option<SpanId>,
    trace_id: u64,
}

/// Latency samples and counts of one phase.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Chains in flight.
    pub window: usize,
    /// Time from phase start until the deadline passed.
    pub elapsed: Duration,
    /// Cycles completed before the deadline.
    pub cycles: u64,
    /// Operations issued (acquire, read, write and release each count).
    pub attempted: u64,
    /// Operations that returned an error, timed out, or read stale or
    /// wrong data.
    pub failed: u64,
    /// Share of `elapsed` the driver thread was not blocked, percent.
    pub busy_pct: f64,
    /// Process counters over `elapsed`.
    pub cpu: Duration,
    /// Context switches over `elapsed`.
    pub ctx_switches: u64,
    /// Resident-set growth over `elapsed`, KiB (negative if it shrank).
    pub rss_growth_kb: i64,
    /// Runtime counter deltas over `elapsed`.
    pub rt: RuntimeMetrics,
    /// `lock_async` issued → granted and current, per cycle.
    pub acquire_ns: Vec<u64>,
    /// `unlock_async` issued → acknowledged, per cycle.
    pub release_ns: Vec<u64>,
    /// `lock_async` issued → release acknowledged, per cycle.
    pub cycle_ns: Vec<u64>,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
}

/// Failure descriptions kept per phase; the count is always exact.
const FAILURES_KEPT: usize = 8;

impl PhaseResult {
    /// Counts a failed operation and keeps its description if there is
    /// room.
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < FAILURES_KEPT {
            self.failures.push(why);
        }
    }
}

/// Drives one workload's chains over a built cluster.
pub struct Driver {
    spec: WorkloadSpec,
    cluster: Cluster,
    chains: Vec<ChainRun>,
    /// Chains whose lock state is unknown after a failed operation.
    broken: Vec<bool>,
    /// Cycles started so far: the next cycle's trace id.
    cycles_started: u64,
}

/// Counters carried across the operations of one phase.
struct PhaseState<'t> {
    sched: Scheduler,
    active: Vec<usize>,
    result: PhaseResult,
    cycles: u64,
    tracer: Option<&'t mut Tracer>,
}

impl Driver {
    /// Takes over a built cluster.
    pub fn new(plan: Plan, cluster: Cluster) -> Driver {
        let now = Instant::now();
        let chains: Vec<ChainRun> = plan
            .chains
            .into_iter()
            .map(|chain| ChainRun {
                replica: replica_id(&chain.replica),
                current: chain.initial.clone(),
                turn: 0,
                served: 0,
                flight: None,
                to_write: None,
                cycle_start: now,
                release_start: now,
                cycle_span: None,
                trace_id: 0,
                plan: chain,
            })
            .collect();
        Driver {
            spec: plan.spec,
            broken: vec![false; chains.len()],
            chains,
            cluster,
            cycles_started: 0,
        }
    }

    /// Runs cycles for `duration` with at most `window` chains in flight,
    /// then lets the cycles in progress finish (uncounted) so the next
    /// phase starts from idle chains.
    pub fn run_phase(
        &mut self,
        window: usize,
        duration: Duration,
        tracer: Option<&mut Tracer>,
    ) -> PhaseResult {
        let healthy = (0..self.chains.len()).filter(|c| !self.broken[*c]);
        let sched = Scheduler::over(self.chains.len(), healthy, window);
        let mut st = PhaseState {
            sched,
            active: Vec::with_capacity(window),
            result: PhaseResult {
                window,
                ..PhaseResult::default()
            },
            cycles: 0,
            tracer,
        };

        let proc_before = ProcSnapshot::take();
        let rt_before = self.cluster.metrics();
        let start = Instant::now();
        let deadline = start + duration;
        let mut blocked = Duration::ZERO;
        let mut closed = false;
        loop {
            if !closed && Instant::now() >= deadline {
                closed = true;
                let r = &mut st.result;
                r.elapsed = start.elapsed();
                r.cycles = st.cycles;
                r.busy_pct = 100.0 * (1.0 - blocked.as_secs_f64() / r.elapsed.as_secs_f64());
                let proc_after = ProcSnapshot::take();
                r.cpu = proc_after.cpu.saturating_sub(proc_before.cpu);
                r.ctx_switches = proc_after
                    .ctx_switches
                    .saturating_sub(proc_before.ctx_switches);
                r.rss_growth_kb = proc_after.rss_kb as i64 - proc_before.rss_kb as i64;
                r.rt = delta(&self.cluster.metrics(), &rt_before);
            }
            if !closed {
                while let Some(c) = st.sched.admit() {
                    st.active.push(c);
                    self.begin_cycle(c, &mut st);
                }
            }
            if st.active.is_empty() {
                if closed {
                    break;
                }
                // Every chain is broken: nothing left to drive.
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                continue;
            }
            let mut progressed = false;
            let mut i = 0;
            while i < st.active.len() {
                let c = st.active[i];
                let polled = self.chains[c]
                    .flight
                    .as_ref()
                    .and_then(|(flight, _)| flight.poll());
                match polled {
                    Some(outcome) => {
                        progressed = true;
                        let (flight, issued) = self.chains[c].flight.take().expect("polled flight");
                        self.advance(c, flight.name(), issued, outcome, &mut st);
                        if st.active.get(i) == Some(&c) {
                            i += 1;
                        }
                    }
                    None => i += 1,
                }
            }
            if !progressed {
                let c = *st
                    .active
                    .iter()
                    .min_by_key(|c| self.chains[**c].flight.as_ref().map(|(_, t)| *t))
                    .expect("active is non-empty");
                let (flight, issued) = self.chains[c].flight.take().expect("active chain flies");
                let name = flight.name();
                let wait_start = Instant::now();
                let outcome = flight.wait();
                blocked += wait_start.elapsed();
                self.advance(c, name, issued, outcome, &mut st);
            }
        }
        st.result
    }

    /// Starts the next member's cycle on chain `c`.
    fn begin_cycle(&mut self, c: usize, st: &mut PhaseState<'_>) {
        let chain = &mut self.chains[c];
        // Inputs are made before the clock starts: generating 64 KiB of
        // seeded bytes is the generator's cost, not Mocha's.
        chain.to_write = match chain.plan.next_action(&chain.current) {
            CycleAction::ReadOnly => None,
            CycleAction::Write(buf) => Some(buf),
        };
        let site = chain.plan.members[chain.turn];
        chain.trace_id = self.cycles_started;
        self.cycles_started += 1;
        chain.cycle_start = Instant::now();
        if let Some(t) = st.tracer.as_deref_mut() {
            let at = t.at(chain.cycle_start);
            chain.cycle_span = Some(t.open("cycle", at, None, chain.trace_id));
        }
        let issued = self.cluster.handles[site].lock_async(chain.plan.lock);
        self.issue(c, issued.map(Flight::Acquire), st);
    }

    /// Records an issued operation, or fails the chain if the site is gone.
    fn issue(&mut self, c: usize, flight: Result<Flight, MochaError>, st: &mut PhaseState<'_>) {
        st.result.attempted += 1;
        match flight {
            Ok(flight) => {
                st.sched.issued(c);
                self.chains[c].flight = Some((flight, Instant::now()));
            }
            Err(e) => self.fail_chain(c, format!("issue failed: {e}"), st),
        }
    }

    /// Counts a failure and takes the chain out of the rotation: after an
    /// error the lock's holder and value are unknown.
    fn fail_chain(&mut self, c: usize, why: String, st: &mut PhaseState<'_>) {
        st.result.fail(format!(
            "{} chain {}: {why}",
            self.spec.name, self.chains[c].plan.lock
        ));
        self.broken[c] = true;
        st.sched.abandon(c);
        st.active.retain(|x| *x != c);
    }

    /// Handles a completed operation and issues the chain's next one.
    fn advance(
        &mut self,
        c: usize,
        name: &'static str,
        issued: Instant,
        outcome: Result<Outcome, MochaError>,
        st: &mut PhaseState<'_>,
    ) {
        let done = Instant::now();
        st.sched.completed(c);
        let chain = &mut self.chains[c];
        if let Some(t) = st.tracer.as_deref_mut() {
            let (from, to) = (t.at(issued), t.at(done));
            t.record(name, from, to, chain.cycle_span, chain.trace_id);
        }
        let site = chain.plan.members[chain.turn];
        let handle = &self.cluster.handles[site];
        let next = match outcome {
            Err(e) => return self.fail_chain(c, format!("{name} failed: {e}"), st),
            Ok(Outcome::Acquired(Freshness::Stale)) => {
                return self.fail_chain(c, "granted with stale replicas".into(), st);
            }
            Ok(Outcome::Acquired(Freshness::Current)) => {
                st.result.acquire_ns.push(nanos(done - chain.cycle_start));
                handle.read_async(chain.replica).map(Flight::Read)
            }
            Ok(Outcome::Read(payload)) => {
                if let Err(e) = verify_read(&payload, &chain.current) {
                    // The operation completed but returned the wrong
                    // data: a failed op. The cycle still releases, so the
                    // lock is not left held.
                    st.result.fail(format!(
                        "{} chain {} at site {site}: {e}",
                        self.spec.name, chain.plan.lock
                    ));
                }
                if let Some(buf) = &chain.to_write {
                    handle
                        .write_async(chain.replica, ReplicaPayload::Bytes(buf.clone()))
                        .map(Flight::Write)
                } else {
                    chain.release_start = Instant::now();
                    handle
                        .unlock_async(chain.plan.lock, false)
                        .map(Flight::Release)
                }
            }
            Ok(Outcome::Wrote) => {
                chain.current = chain.to_write.take().expect("a write was in flight");
                chain.release_start = Instant::now();
                handle
                    .unlock_async(chain.plan.lock, true)
                    .map(Flight::Release)
            }
            Ok(Outcome::Released) => {
                st.result.release_ns.push(nanos(done - chain.release_start));
                st.result.cycle_ns.push(nanos(done - chain.cycle_start));
                if let (Some(t), Some(id)) = (st.tracer.as_deref_mut(), chain.cycle_span.take()) {
                    let at = t.at(done);
                    t.close(id, at);
                }
                chain.served += 1;
                if chain.served >= self.spec.tenure {
                    chain.served = 0;
                    chain.turn = (chain.turn + 1) % chain.plan.members.len();
                }
                st.cycles += 1;
                st.sched.retire(c);
                st.active.retain(|x| *x != c);
                return;
            }
        };
        self.issue(c, next, st);
    }

    /// After the workload: every member of every lock acquires, and must
    /// read exactly the last written payload. Only the counts and the
    /// failure descriptions of the returned result are filled in.
    ///
    /// The socket runtime does not expose the coordinator's up-to-date
    /// set, so the check goes through the front door: an acquire makes
    /// the site current by the protocol's own rules, and the read must
    /// then equal the driver's record of the last write, byte for byte.
    pub fn final_check(&mut self) -> PhaseResult {
        let mut check = PhaseResult::default();
        for (chain, broken) in self.chains.iter().zip(&self.broken) {
            if *broken {
                continue;
            }
            for &site in &chain.plan.members {
                let h = &self.cluster.handles[site];
                check.attempted += 3;
                let outcome = h
                    .lock_reporting(chain.plan.lock)
                    .map_err(|e| format!("lock: {e}"))
                    .and_then(|fresh| match fresh {
                        Freshness::Current => Ok(()),
                        Freshness::Stale => Err("granted with stale replicas".to_string()),
                    })
                    .and_then(|()| h.read(chain.replica).map_err(|e| format!("read: {e}")))
                    .and_then(|p| verify_read(&p, &chain.current).map_err(|e| e.to_string()));
                let released = h.unlock(chain.plan.lock, false);
                if let Err(e) = outcome.and_then(|()| released.map_err(|e| format!("unlock: {e}")))
                {
                    check.fail(format!(
                        "{} final check of {} at site {site}: {e}",
                        self.spec.name, chain.plan.lock
                    ));
                }
            }
        }
        check
    }

    /// Gives the cluster back for tear-down.
    pub fn into_cluster(self) -> Cluster {
        self.cluster
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `after - before`, field by field, for the counters that accumulate
/// (gauges keep the later reading).
fn delta(after: &RuntimeMetrics, before: &RuntimeMetrics) -> RuntimeMetrics {
    RuntimeMetrics {
        datagrams_sent: after.datagrams_sent - before.datagrams_sent,
        datagrams_delivered: after.datagrams_delivered - before.datagrams_delivered,
        datagrams_lost: after.datagrams_lost - before.datagrams_lost,
        bytes_sent: after.bytes_sent - before.bytes_sent,
        msgs_sent: after.msgs_sent - before.msgs_sent,
        msgs_delivered: after.msgs_delivered - before.msgs_delivered,
        sends_failed: after.sends_failed - before.sends_failed,
        timers_fired: after.timers_fired - before.timers_fired,
        retransmits: after.retransmits - before.retransmits,
        fast_retransmits: after.fast_retransmits - before.fast_retransmits,
        rto_backoffs: after.rto_backoffs - before.rto_backoffs,
        delta_pushes: after.delta_pushes - before.delta_pushes,
        delta_bytes_saved: after.delta_bytes_saved - before.delta_bytes_saved,
        delta_nacks: after.delta_nacks - before.delta_nacks,
        socket_errors: after.socket_errors - before.socket_errors,
        migrations: after.migrations - before.migrations,
        stale_home_redirects: after.stale_home_redirects - before.stale_home_redirects,
        cwnd: after.cwnd,
        push_window_inflight: after.push_window_inflight,
    }
}
