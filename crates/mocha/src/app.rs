//! Application threads driven by per-thread scripts.
//!
//! In the simulator, "application code" is a [`Script`]: a sequence of
//! [`Op`]s (acquire, write, release, compute, sleep…) executed by an
//! [`AppRunner`]-managed thread state machine. The runner is only the
//! script interpreter: `lock()` and `unlock()` — local queuing, grant and
//! data handling, release and dissemination, every retry (paper §3
//! Figure 5, §4) — are the site's [`LockClient`], the same one the
//! real-time runtimes drive from their blocking API.
//!
//! Every step the client reports is timestamped into a [`Record`], which
//! is what the benchmark harness mines for latencies.

use std::time::Duration;

use mocha_sim::SimTime;
use mocha_wire::message::LockMode;
use mocha_wire::{LockId, Msg, ReplicaId, ReplicaPayload, SiteId, ThreadId};

use crate::client::{ClientEventKind, LockClient};
use crate::cmd::{timer_ns, CmdSink, SendTag, Signal};
use crate::config::AvailabilityConfig;
use crate::daemon::SiteDaemon;
use crate::replica::ReplicaSpec;

/// The reserved lock id for unguarded (cached, consistency-free) replicas
/// — the paper's image replicas "not associated with a ReplicaLock".
pub const UNGUARDED: LockId = LockId(0);

/// One scripted application operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// Create/attach shared replicas guarded by `lock` and register them.
    Register {
        /// The guarding lock ([`UNGUARDED`] for consistency-free caching).
        lock: LockId,
        /// Replica declarations.
        specs: Vec<ReplicaSpec>,
    },
    /// Configure the availability (UR) of a lock's replica set.
    SetAvailability {
        /// The lock.
        lock: LockId,
        /// The availability configuration.
        avail: AvailabilityConfig,
    },
    /// Acquire a lock (blocks until granted and consistent).
    Lock {
        /// The lock.
        lock: LockId,
        /// Expected hold time reported to the coordinator (0 = default).
        lease_ms: u32,
        /// Exclusive or shared (read-only) access.
        mode: LockMode,
    },
    /// Release a lock.
    Unlock {
        /// The lock.
        lock: LockId,
        /// Whether replicas were modified (advances the version).
        dirty: bool,
    },
    /// Overwrite a replica's value.
    Write {
        /// Target replica.
        replica: ReplicaId,
        /// New value.
        payload: ReplicaPayload,
    },
    /// Read a replica's value into the thread's observation log.
    Read {
        /// Source replica.
        replica: ReplicaId,
    },
    /// Publish an unsynchronized cached replica's local value to all
    /// members (no lock; last-writer-wins; §7 future work).
    Publish {
        /// The cached replica.
        replica: ReplicaId,
    },
    /// Busy computation for the given duration.
    Compute(Duration),
    /// Idle sleep for the given duration.
    Sleep(Duration),
    /// Record a labelled timestamp.
    Mark(String),
}

/// A fluent builder for thread scripts.
///
/// ```
/// use mocha::app::Script;
/// use mocha_wire::LockId;
/// use std::time::Duration;
///
/// let script = Script::new()
///     .register(LockId(1), &["sharedIndex"])
///     .lock(LockId(1))
///     .mark("critical-section")
///     .unlock(LockId(1))
///     .sleep(Duration::from_millis(10));
/// assert_eq!(script.len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Script {
    ops: Vec<Op>,
}

impl Script {
    /// An empty script.
    pub fn new() -> Script {
        Script::default()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the script has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Registers named replicas (empty initial payloads) under `lock`.
    #[must_use]
    pub fn register(mut self, lock: LockId, names: &[&str]) -> Script {
        let specs = names
            .iter()
            .map(|n| ReplicaSpec::new(*n, ReplicaPayload::empty()))
            .collect();
        self.ops.push(Op::Register { lock, specs });
        self
    }

    /// Registers replicas with explicit initial payloads under `lock`.
    #[must_use]
    pub fn register_specs(mut self, lock: LockId, specs: Vec<ReplicaSpec>) -> Script {
        self.ops.push(Op::Register { lock, specs });
        self
    }

    /// Sets the availability configuration for `lock`.
    #[must_use]
    pub fn set_availability(mut self, lock: LockId, avail: AvailabilityConfig) -> Script {
        self.ops.push(Op::SetAvailability { lock, avail });
        self
    }

    /// Acquires `lock` exclusively with the default lease.
    #[must_use]
    pub fn lock(mut self, lock: LockId) -> Script {
        self.ops.push(Op::Lock {
            lock,
            lease_ms: 0,
            mode: LockMode::Exclusive,
        });
        self
    }

    /// Acquires `lock` in shared (read-only) mode: concurrent shared
    /// holders at different sites are allowed.
    #[must_use]
    pub fn lock_shared(mut self, lock: LockId) -> Script {
        self.ops.push(Op::Lock {
            lock,
            lease_ms: 0,
            mode: LockMode::Shared,
        });
        self
    }

    /// Acquires `lock` exclusively, declaring an expected hold time.
    #[must_use]
    pub fn lock_with_lease(mut self, lock: LockId, lease: Duration) -> Script {
        self.ops.push(Op::Lock {
            lock,
            lease_ms: u32::try_from(lease.as_millis()).unwrap_or(u32::MAX),
            mode: LockMode::Exclusive,
        });
        self
    }

    /// Releases `lock` without having written (version unchanged).
    #[must_use]
    pub fn unlock(mut self, lock: LockId) -> Script {
        self.ops.push(Op::Unlock { lock, dirty: false });
        self
    }

    /// Releases `lock` after writing (version advances, dissemination
    /// runs).
    #[must_use]
    pub fn unlock_dirty(mut self, lock: LockId) -> Script {
        self.ops.push(Op::Unlock { lock, dirty: true });
        self
    }

    /// Writes `payload` into `replica`.
    #[must_use]
    pub fn write(mut self, replica: ReplicaId, payload: ReplicaPayload) -> Script {
        self.ops.push(Op::Write { replica, payload });
        self
    }

    /// Writes a byte payload of the given size (benchmark workloads).
    #[must_use]
    pub fn write_bytes(self, replica: ReplicaId, size: usize) -> Script {
        self.write(replica, ReplicaPayload::Bytes(vec![0xAB; size]))
    }

    /// Reads `replica` into the observation log.
    #[must_use]
    pub fn read(mut self, replica: ReplicaId) -> Script {
        self.ops.push(Op::Read { replica });
        self
    }

    /// Publishes an unsynchronized cached replica (no lock required).
    #[must_use]
    pub fn publish(mut self, replica: ReplicaId) -> Script {
        self.ops.push(Op::Publish { replica });
        self
    }

    /// Computes (busy CPU) for `d`.
    #[must_use]
    pub fn compute(mut self, d: Duration) -> Script {
        self.ops.push(Op::Compute(d));
        self
    }

    /// Sleeps (idle) for `d`.
    #[must_use]
    pub fn sleep(mut self, d: Duration) -> Script {
        self.ops.push(Op::Sleep(d));
        self
    }

    /// Records a labelled timestamp.
    #[must_use]
    pub fn mark(mut self, label: impl Into<String>) -> Script {
        self.ops.push(Op::Mark(label.into()));
        self
    }

    /// Appends `body` `n` times.
    #[must_use]
    pub fn repeat(mut self, n: usize, body: Script) -> Script {
        for _ in 0..n {
            self.ops.extend(body.ops.iter().cloned());
        }
        self
    }

    /// Appends another script.
    #[must_use]
    pub fn then(mut self, other: Script) -> Script {
        self.ops.extend(other.ops);
        self
    }
}

/// A timestamped event in a thread's life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Event label, e.g. `"lock_granted:lock1"`.
    pub label: String,
    /// When it happened.
    pub at: SimTime,
}

#[derive(Debug, Clone, PartialEq)]
enum TState {
    Ready,
    /// Inside `lock()` or `unlock()`: the lock client reports completion.
    Blocked,
    Sleeping,
    Done,
    /// Stopped after an unrecoverable error.
    Failed(String),
}

#[derive(Debug)]
struct AppThread {
    id: ThreadId,
    ops: Vec<Op>,
    pc: usize,
    state: TState,
    records: Vec<Record>,
    observed: Vec<ReplicaPayload>,
}

/// The record label of a lock-client event (`None`: not recorded).
fn label(kind: ClientEventKind) -> Option<&'static str> {
    Some(match kind {
        ClientEventKind::Requested => "lock_request",
        ClientEventKind::Granted => "lock_granted",
        ClientEventKind::DataReady => "data_ready",
        ClientEventKind::DataStale => "data_stale",
        ClientEventKind::Acquired(_) => "lock_acquired",
        ClientEventKind::Revoked => "revoked",
        ClientEventKind::Unlocked => "unlock",
        ClientEventKind::PushesDone => "pushes_done",
        ClientEventKind::Released { revoked: true } => "unlock_revoked",
        ClientEventKind::Released { revoked: false } => return None,
        ClientEventKind::HomeUnreachable => "home_unreachable",
        ClientEventKind::Retried => "reacquire_retry",
        ClientEventKind::Reacquired => "reacquire_at_surrogate",
    })
}

/// Runs all scripted application threads at one site. Each thread's id is
/// its ticket at the site's [`LockClient`].
#[derive(Debug)]
pub struct AppRunner {
    threads: Vec<AppThread>,
    client: LockClient,
}

impl AppRunner {
    /// Creates a runner for `site`.
    pub fn new(site: SiteId) -> AppRunner {
        AppRunner {
            threads: Vec::new(),
            client: LockClient::new(site),
        }
    }

    /// Adds a thread executing `script`; it becomes runnable immediately.
    pub fn add_thread(&mut self, script: Script) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(AppThread {
            id,
            ops: script.ops,
            pc: 0,
            state: TState::Ready,
            records: Vec::new(),
            observed: Vec::new(),
        });
        id
    }

    /// The site's lock client (holds, for the invariant oracle).
    pub fn client(&self) -> &LockClient {
        &self.client
    }

    /// All records of a thread, in order (empty for an unknown thread).
    pub fn records(&self, thread: ThreadId) -> &[Record] {
        self.threads
            .get(thread.as_raw() as usize)
            .map_or(&[], |t| &t.records)
    }

    /// Records across all threads at this site, in thread order.
    pub fn all_records(&self) -> Vec<(ThreadId, Record)> {
        self.threads
            .iter()
            .flat_map(|t| t.records.iter().cloned().map(move |r| (t.id, r)))
            .collect()
    }

    /// Payloads observed by `Read` ops, across all threads in order.
    pub fn observed(&self) -> Vec<ReplicaPayload> {
        self.threads
            .iter()
            .flat_map(|t| t.observed.iter().cloned())
            .collect()
    }

    /// Whether every thread has finished (successfully or not).
    pub fn all_done(&self) -> bool {
        self.threads
            .iter()
            .all(|t| matches!(t.state, TState::Done | TState::Failed(_)))
    }

    /// Error messages of failed threads.
    pub fn failures(&self) -> Vec<(ThreadId, String)> {
        self.threads
            .iter()
            .filter_map(|t| match &t.state {
                TState::Failed(e) => Some((t.id, e.clone())),
                _ => None,
            })
            .collect()
    }

    /// Feeds the protocol-relevant runner state into `h`, for the schedule
    /// explorer's state fingerprint.
    pub fn hash_state(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        for t in &self.threads {
            t.pc.hash(h);
            std::mem::discriminant(&t.state).hash(h);
        }
        self.client.hash_state(h);
    }

    /// Runs every runnable thread until it blocks or finishes. Call after
    /// any event delivery.
    pub fn run(&mut self, now: SimTime, daemon: &mut SiteDaemon, sink: &mut CmdSink) {
        self.absorb();
        while let Some(idx) = self.threads.iter().position(|t| t.state == TState::Ready) {
            self.run_thread(idx, now, daemon, sink);
        }
    }

    /// Records what the lock client reported and wakes the threads whose
    /// `lock()` or `unlock()` completed.
    fn absorb(&mut self) {
        while let Some(ev) = self.client.next_event() {
            let Some(t) = self.threads.get_mut(ev.ticket.as_raw() as usize) else {
                continue;
            };
            if let Some(label) = label(ev.kind) {
                t.records.push(Record {
                    label: format!("{label}:{}", ev.lock),
                    at: ev.at,
                });
            }
            let completes = matches!(
                ev.kind,
                ClientEventKind::Acquired(_) | ClientEventKind::Released { .. }
            );
            if completes && t.state == TState::Blocked {
                t.state = TState::Ready;
            }
        }
    }

    /// Executes one thread until it blocks or finishes.
    fn run_thread(
        &mut self,
        idx: usize,
        now: SimTime,
        daemon: &mut SiteDaemon,
        sink: &mut CmdSink,
    ) {
        loop {
            let Some(t) = self.threads.get_mut(idx) else {
                return;
            };
            if t.state != TState::Ready {
                return;
            }
            let Some(op) = t.ops.get(t.pc).cloned() else {
                t.state = TState::Done;
                return;
            };
            t.pc += 1;
            match op {
                Op::Register { lock, specs } => daemon.register_local(lock, &specs, sink),
                Op::SetAvailability { lock, avail } => self.client.set_availability(lock, avail),
                Op::Lock {
                    lock,
                    lease_ms,
                    mode,
                } => {
                    t.state = TState::Blocked;
                    self.client
                        .acquire(now, t.id, lock, lease_ms, mode, daemon, sink);
                }
                Op::Unlock { lock, dirty } => {
                    t.state = match self
                        .client
                        .release(now, lock, dirty, Some(t.id), daemon, sink)
                    {
                        Ok(_) => TState::Blocked,
                        Err(_) => TState::Failed(format!("unlock of unheld {lock}")),
                    };
                }
                Op::Write { replica, payload } => {
                    match self.client.check_guard(daemon, replica, true, Some(t.id)) {
                        Err(lock) => t.records.push(Record {
                            label: format!("guard_violation:{lock}"),
                            at: now,
                        }),
                        Ok(()) => {
                            if let Err(e) = daemon.write(replica, payload) {
                                t.state = TState::Failed(e.to_string());
                            }
                        }
                    }
                }
                Op::Read { replica } => {
                    match self.client.check_guard(daemon, replica, false, Some(t.id)) {
                        Err(lock) => t.records.push(Record {
                            label: format!("guard_violation:{lock}"),
                            at: now,
                        }),
                        Ok(()) => match daemon.read(replica) {
                            Ok(p) => t.observed.push(p.clone()),
                            Err(e) => t.state = TState::Failed(e.to_string()),
                        },
                    }
                }
                Op::Publish { replica } => {
                    if let Err(e) = daemon.publish(replica, sink) {
                        t.state = TState::Failed(e.to_string());
                    }
                }
                Op::Compute(d) => sink.charge_time(d),
                Op::Sleep(d) => {
                    sink.set_timer(timer_ns::APP | idx as u64, d);
                    t.state = TState::Sleeping;
                }
                Op::Mark(label) => t.records.push(Record { label, at: now }),
            }
            self.absorb();
        }
    }

    /// Handles a protocol message addressed to the APP port.
    pub fn on_msg(
        &mut self,
        now: SimTime,
        from: SiteId,
        msg: Msg,
        daemon: &mut SiteDaemon,
        sink: &mut CmdSink,
    ) {
        self.client.on_msg(now, from, msg, daemon, sink);
        self.run(now, daemon, sink);
    }

    /// Handles a local signal from the daemon.
    pub fn on_signal(
        &mut self,
        now: SimTime,
        signal: Signal,
        daemon: &mut SiteDaemon,
        sink: &mut CmdSink,
    ) {
        self.client.on_signal(now, signal, daemon, sink);
        self.run(now, daemon, sink);
    }

    /// Handles an application timer (sleep expiry or a lock-client retry).
    /// Returns `true` if the token belonged to this component.
    pub fn on_timer(
        &mut self,
        now: SimTime,
        token: u64,
        daemon: &mut SiteDaemon,
        sink: &mut CmdSink,
    ) -> bool {
        if timer_ns::of(token) != timer_ns::APP {
            return false;
        }
        if !self.client.on_timer(now, token, daemon, sink) {
            if let Some(t) = self.threads.get_mut((token & 0xffff_ffff) as usize) {
                if t.state == TState::Sleeping {
                    t.state = TState::Ready;
                }
            }
        }
        self.run(now, daemon, sink);
        true
    }

    /// Handles a transport failure of a tagged application send.
    pub fn on_send_failed(&mut self, now: SimTime, tag: &SendTag, sink: &mut CmdSink) {
        self.client.on_send_failed(now, tag, sink);
        self.absorb();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocha_wire::codec::CodecKind;
    use mocha_wire::message::VersionFlag;
    use mocha_wire::Version;

    const SITE: SiteId = SiteId(1);
    const HOME: SiteId = SiteId(0);
    const L: LockId = LockId(1);

    fn setup() -> (AppRunner, SiteDaemon, CmdSink) {
        (
            AppRunner::new(SITE),
            SiteDaemon::new(SITE, HOME, CodecKind::ByteAtATime),
            CmdSink::new(),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    fn grant(version: u64) -> Msg {
        Msg::Grant {
            lock: L,
            version: Version(version),
            flag: VersionFlag::VersionOk,
        }
    }

    fn labels(r: &AppRunner, th: ThreadId) -> Vec<&str> {
        r.records(th).iter().map(|rec| rec.label.as_str()).collect()
    }

    #[test]
    fn lock_blocks_the_thread_and_client_events_become_records() {
        let (mut r, mut d, mut sink) = setup();
        let th = r.add_thread(Script::new().register(L, &["x"]).lock(L).unlock(L));
        r.run(t(0), &mut d, &mut sink);
        assert!(!r.all_done());
        assert_eq!(labels(&r, th), vec!["lock_request:lock1"]);
        r.on_msg(t(5), HOME, grant(0), &mut d, &mut sink);
        assert!(r.all_done());
        assert_eq!(
            labels(&r, th),
            vec![
                "lock_request:lock1",
                "lock_granted:lock1",
                "lock_acquired:lock1",
                "unlock:lock1"
            ]
        );
        assert_eq!(r.records(th)[0].at, t(0));
        assert_eq!(r.records(th)[3].at, t(5));
    }

    #[test]
    fn a_second_thread_waits_for_the_first_ones_unlock() {
        let (mut r, mut d, mut sink) = setup();
        let first = r.add_thread(Script::new().register(L, &["x"]).lock(L).unlock(L));
        let second = r.add_thread(Script::new().lock(L).mark("in").unlock(L));
        r.run(t(0), &mut d, &mut sink);
        assert!(labels(&r, second).is_empty(), "queued locally");
        r.on_msg(t(5), HOME, grant(0), &mut d, &mut sink);
        assert_eq!(labels(&r, first).last(), Some(&"unlock:lock1"));
        assert_eq!(labels(&r, second), vec!["lock_request:lock1"]);
        r.on_msg(t(8), HOME, grant(0), &mut d, &mut sink);
        assert!(r.all_done());
        assert!(labels(&r, second).contains(&"in"));
    }

    #[test]
    fn guarded_access_without_lock_is_recorded() {
        let (mut r, mut d, mut sink) = setup();
        let x = crate::replica::replica_id("x");
        let th = r.add_thread(
            Script::new()
                .register(L, &["x"])
                .write(x, ReplicaPayload::I32s(vec![1])), // no lock held!
        );
        r.run(t(0), &mut d, &mut sink);
        assert_eq!(labels(&r, th), vec!["guard_violation:lock1"]);
        assert!(r.all_done(), "the script carries on");
    }

    #[test]
    fn another_threads_hold_does_not_open_the_guard() {
        let (mut r, mut d, mut sink) = setup();
        let x = crate::replica::replica_id("x");
        r.add_thread(
            Script::new()
                .register(L, &["x"])
                .lock(L)
                .sleep(Duration::from_millis(100)),
        );
        r.run(t(0), &mut d, &mut sink);
        r.on_msg(t(5), HOME, grant(0), &mut d, &mut sink);
        let intruder = r.add_thread(Script::new().read(x).unlock(L));
        r.run(t(6), &mut d, &mut sink);
        assert_eq!(labels(&r, intruder), vec!["guard_violation:lock1"]);
        assert_eq!(
            r.failures(),
            vec![(intruder, "unlock of unheld lock1".into())]
        );
    }

    #[test]
    fn unguarded_replicas_are_freely_accessible() {
        let (mut r, mut d, mut sink) = setup();
        let img = crate::replica::replica_id("image");
        r.add_thread(
            Script::new()
                .register(UNGUARDED, &["image"])
                .write(img, ReplicaPayload::Bytes(vec![1, 2]))
                .read(img),
        );
        r.run(t(0), &mut d, &mut sink);
        assert!(r.all_done());
        assert_eq!(r.observed(), vec![ReplicaPayload::Bytes(vec![1, 2])]);
    }

    #[test]
    fn sleep_blocks_until_timer() {
        let (mut r, mut d, mut sink) = setup();
        r.add_thread(Script::new().sleep(Duration::from_millis(50)).mark("woke"));
        r.run(t(0), &mut d, &mut sink);
        assert!(!r.all_done());
        assert!(!r.on_timer(t(50), timer_ns::DAEMON, &mut d, &mut sink));
        assert!(r.on_timer(t(50), timer_ns::APP, &mut d, &mut sink));
        assert!(r.all_done());
    }

    #[test]
    fn unlock_without_lock_fails() {
        let (mut r, mut d, mut sink) = setup();
        r.add_thread(Script::new().unlock(L));
        r.run(t(0), &mut d, &mut sink);
        assert_eq!(r.failures().len(), 1);
    }

    #[test]
    fn script_builder_composes() {
        let inner = Script::new().lock(L).unlock(L);
        let s = Script::new().repeat(3, inner).mark("end");
        assert_eq!(s.len(), 7);
        assert!(!s.is_empty());
        let s2 = Script::new().then(s);
        assert_eq!(s2.len(), 7);
    }
}
