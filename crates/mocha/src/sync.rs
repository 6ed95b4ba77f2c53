//! The home-site synchronization thread (paper §3 Figure 7, plus §4
//! failure handling).
//!
//! The coordinator grants and queues locks, tracks the version number of
//! each lock's replica set, remembers which sites hold the current version
//! (`lastLockOwner` generalised to an *up-to-date set* once push-based
//! dissemination exists), and directs daemon-to-daemon transfers. It never
//! relays replica data itself.
//!
//! Failure handling (§4):
//!
//! * **Non-owner failure** — a transfer directive to a dead daemon fails
//!   (transport timeout); the coordinator polls all registered daemons for
//!   their newest version and forwards the freshest available, which may be
//!   *older* than the lost version ("weakened consistency").
//! * **Owner failure** — grants carry a lease (the thread's declared hold
//!   time, or a default); a periodic scan finds over-held locks, confirms
//!   death with a heartbeat, then breaks the lock, blacklists the site and
//!   grants to the next waiter.
//! * Failed sites are removed from membership and "prevented from making
//!   future requests".

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Duration;

use mocha_net::{ports, MsgClass};
use mocha_sim::{SimTime, Work};
use mocha_wire::message::{LockMode, VersionFlag};
use mocha_wire::{LockId, Msg, ReplicaId, RequestId, SiteId, ThreadId, Version};

use crate::cmd::{timer_ns, CmdSink, SendTag};
use crate::config::MochaConfig;
use crate::directory::Directory;

const SCAN_TOKEN: u64 = timer_ns::COORD;
const HEARTBEAT_SUB: u64 = 1 << 48;
const RECOVERY_SUB: u64 = 2 << 48;
const MIGRATE_SUB: u64 = 4 << 48;

/// When a lock's hottest per-site acquire counter reaches this ceiling,
/// every counter is halved — a decaying window so old traffic stops
/// outvoting the current access pattern.
const HEAT_CEILING: u32 = 32;

/// A queued lock requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Requester {
    site: SiteId,
    thread: ThreadId,
    lease: Duration,
    mode: LockMode,
}

/// One current holder of a lock (a single exclusive holder, or any number
/// of concurrent shared holders).
#[derive(Debug, Clone, Copy)]
struct OwnerState {
    who: Requester,
    deadline: SimTime,
    /// A heartbeat is in flight to confirm suspected failure.
    suspected: bool,
}

/// An in-progress §4 recovery: polling daemons for the freshest surviving
/// version on behalf of a waiting grantee.
#[derive(Debug)]
struct Recovery {
    req: RequestId,
    dest: SiteId,
    responses: Vec<(SiteId, Version)>,
    expected: usize,
    /// A state-rebuild poll (directory mode): the coordinator has no
    /// trustworthy version for this lock yet (churn re-homed it here), so
    /// grants are deferred until the poll adopts the freshest surviving
    /// version — instead of the §4 data-supply poll that runs after a
    /// grant.
    rebuild: bool,
}

/// Per-lock coordinator state (the paper's `Lock` object).
#[derive(Debug, Default)]
struct LockState {
    version: Version,
    /// Current holders: empty (free), one exclusive, or several shared.
    holders: Vec<OwnerState>,
    queue: VecDeque<Requester>,
    /// Site that produced the current version (the paper's
    /// `lastLockOwner`).
    last_owner: Option<SiteId>,
    /// Sites known to hold the current version (owner + dissemination
    /// targets).
    up_to_date: BTreeSet<SiteId>,
    /// Last version each site is known to have held (the owner and its
    /// acknowledged dissemination targets, recorded at every release) —
    /// the coordinator-side mirror of the daemons' delta-base tables.
    site_versions: BTreeMap<SiteId, Version>,
    /// All sites registered for this lock's replicas (the `R` set).
    members: BTreeSet<SiteId>,
    /// Replicas associated with this lock.
    replicas: BTreeSet<ReplicaId>,
    /// Recovery in progress, if any.
    recovery: Option<Recovery>,
    /// Decayed per-site acquire counters (only maintained when dynamic
    /// home migration is enabled): the evidence a remote site dominates.
    heat: BTreeMap<SiteId, u32>,
    /// Directory mode only: this state was created locally (first contact
    /// or churn re-home) rather than installed by a `MigrateCommit`, so
    /// its version may trail surviving replicas elsewhere. Grants are
    /// deferred behind a member poll until the flag clears — otherwise a
    /// survivor holding a stale copy would be told it is current.
    rebuilt: bool,
}

/// An in-flight outgoing home migration for one lock.
#[derive(Debug, Clone, Copy)]
struct OutgoingMigration {
    /// Candidate new home.
    target: SiteId,
    /// Fence epoch this migration will commit under.
    epoch: u64,
    /// The candidate has sent `MigrateAccept`; commit at the next moment
    /// the lock is free.
    accepted: bool,
}

/// An incoming home migration for one lock: SYNC traffic buffered between
/// `MigrateAccept` and `MigrateCommit`, so the handshake window never
/// produces redirect ping-pong. The buffer is bounded in time — if the
/// offering site dies or the commit never arrives, the held traffic is
/// re-processed (and then routes to whichever home is authoritative).
#[derive(Debug)]
struct PendingInstall {
    /// The coordinator that offered the handshake.
    from: SiteId,
    /// Fence epoch of the offer.
    epoch: u64,
    /// Routed SYNC traffic held until the commit installs the lock here.
    msgs: Vec<(SiteId, Msg)>,
}

/// Statistics the coordinator accumulates, for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Locks granted.
    pub grants: u64,
    /// Grants that required a replica transfer.
    pub grants_with_transfer: u64,
    /// Locks broken after owner failure.
    pub locks_broken: u64,
    /// Recoveries started after a transfer-source failure.
    pub recoveries: u64,
    /// Recoveries that completed with an older version than expected
    /// (weakened consistency).
    pub stale_recoveries: u64,
    /// Requests ignored because the sender was blacklisted.
    pub blacklisted_requests: u64,
    /// Home migrations committed away from this coordinator.
    pub migrations: u64,
    /// SYNC messages redirected with a `StaleHome` NACK because this
    /// coordinator is not (or no longer) the lock's home.
    pub stale_home_redirects: u64,
}

/// The synchronization thread's state machine.
#[derive(Debug)]
pub struct SyncCoordinator {
    home: SiteId,
    cfg: MochaConfig,
    locks: HashMap<LockId, LockState>,
    blacklist: BTreeSet<SiteId>,
    next_req: RequestId,
    /// Outstanding heartbeats: req → (lock, suspected site).
    pending_heartbeats: HashMap<RequestId, (LockId, SiteId)>,
    /// Timer token ↔ heartbeat req mapping.
    heartbeat_timers: HashMap<u64, RequestId>,
    scan_running: bool,
    stats: CoordinatorStats,
    /// State log for surrogate recovery (§4): every state-mutating message
    /// accepted, in order (fixed-home mode only). A production system
    /// would write this to stable storage; the harness extracts it when
    /// promoting a surrogate.
    log: Vec<(SiteId, Msg)>,
    /// Consistent-hash object directory, present only when
    /// `home.hash_directory` is on. `None` preserves the legacy
    /// single-coordinator behaviour exactly.
    dir: Option<Directory>,
    /// In-flight outgoing migrations by lock.
    outgoing: HashMap<LockId, OutgoingMigration>,
    /// Lock state retired at commit-send (the fence), kept with its fence
    /// epoch until the new home's `HomeUpdate` confirms it is live —
    /// reinstated if the commit send fails. Only an update at or above the
    /// fence epoch releases it: a reordered announcement from an *earlier*
    /// migration of the same lock must not discard a newer retirement.
    retired: HashMap<LockId, (u64, LockState)>,
    /// Incoming migrations by lock (see [`PendingInstall`]).
    incoming: HashMap<LockId, PendingInstall>,
}

impl SyncCoordinator {
    /// Creates the coordinator for the home site.
    pub fn new(home: SiteId, cfg: MochaConfig) -> SyncCoordinator {
        SyncCoordinator {
            home,
            cfg,
            locks: HashMap::new(),
            blacklist: BTreeSet::new(),
            next_req: RequestId(1),
            pending_heartbeats: HashMap::new(),
            heartbeat_timers: HashMap::new(),
            scan_running: false,
            stats: CoordinatorStats::default(),
            log: Vec::new(),
            dir: None,
            outgoing: HashMap::new(),
            retired: HashMap::new(),
            incoming: HashMap::new(),
        }
    }

    /// Creates a coordinator for `home` in hash-directory mode: every site
    /// in `sites` hosts a coordinator, and this one owns exactly the locks
    /// the shared consistent-hash ring (plus migration overrides) maps to
    /// `home`. Traffic for any other lock is answered with a `StaleHome`
    /// redirect and forwarded to the right coordinator.
    pub fn with_directory(home: SiteId, cfg: MochaConfig, sites: &[SiteId]) -> SyncCoordinator {
        let mut c = SyncCoordinator::new(home, cfg);
        c.dir = Some(Directory::new(sites, cfg.home.virtual_shards));
        c
    }

    /// The object directory, when running in hash-directory mode.
    pub fn directory(&self) -> Option<&Directory> {
        self.dir.as_ref()
    }

    /// Adds a site to the directory ring (membership growth). No-op in
    /// legacy fixed-home mode.
    ///
    /// Growing the ring re-maps ~1/n of the hash space onto the newcomer,
    /// but the newcomer has no state for any existing lock — so every lock
    /// with *installed state here* whose ring home just moved is pinned by
    /// an override to this site, and the pin is gossiped (`HomeUpdate`) to
    /// the lock's members and the newcomer. The re-map therefore only
    /// applies to locks with no live state; installed locks move later, if
    /// at all, through the fenced migration handshake.
    pub fn add_ring_site(&mut self, site: SiteId, sink: &mut CmdSink) {
        let Some(dir) = self.dir.as_mut() else {
            return;
        };
        dir.add_site(site);
        let me = self.home;
        let mut pinned: Vec<(LockId, u64)> = Vec::new();
        for &lock in self.locks.keys() {
            if dir.home_of(lock) != Some(me) {
                let epoch = dir.epoch_of(lock);
                dir.record(lock, me, epoch);
                pinned.push((lock, epoch));
            }
        }
        for (lock, epoch) in pinned {
            sink.note(format!(
                "{site} joined the ring; pinning live {lock} at {me} (epoch {epoch})"
            ));
            let mut targets: BTreeSet<SiteId> = self
                .locks
                .get(&lock)
                .map(|s| s.members.iter().copied().collect())
                .unwrap_or_default();
            targets.insert(site);
            targets.remove(&me);
            for target in targets {
                let update = Msg::HomeUpdate {
                    lock,
                    home: me,
                    epoch,
                };
                sink.send(target, ports::DAEMON, update.clone(), MsgClass::Control);
                sink.send(target, ports::SYNC, update, MsgClass::Control);
            }
        }
    }

    /// Removes a dead site from the directory ring, dropping any migration
    /// overrides that pointed at it — their locks fall back to ring
    /// placement on a surviving site, whose coordinator rebuilds state
    /// from member re-announcements and a deferred-grant recovery poll.
    /// Abandons any in-flight migration toward the dead site, and releases
    /// any traffic buffered for a handshake the dead site offered (the
    /// commit can no longer arrive; the messages re-route to whichever
    /// home the updated ring makes authoritative). Returns the locks whose
    /// override was dropped.
    pub fn remove_ring_site(
        &mut self,
        site: SiteId,
        now: SimTime,
        sink: &mut CmdSink,
    ) -> Vec<LockId> {
        self.outgoing.retain(|_, m| m.target != site);
        let orphaned = match self.dir.as_mut() {
            Some(dir) => dir.remove_site(site),
            None => Vec::new(),
        };
        let stranded: Vec<LockId> = self
            .incoming
            .iter()
            .filter(|(_, p)| p.from == site)
            .map(|(&lock, _)| lock)
            .collect();
        for lock in stranded {
            sink.cancel_timer(timer_ns::COORD | MIGRATE_SUB | u64::from(lock.as_raw()));
            if let Some(pending) = self.incoming.remove(&lock) {
                sink.note(format!(
                    "offerer {site} left before committing {lock}; releasing {n} buffered message(s)",
                    n = pending.msgs.len()
                ));
                for (from, msg) in pending.msgs {
                    self.on_msg(now, from, msg, sink);
                }
            }
        }
        orphaned
    }

    /// The surrogate-recovery state log.
    pub fn log(&self) -> &[(SiteId, Msg)] {
        &self.log
    }

    /// Every site registered for any lock (broadcast targets for
    /// [`Msg::SyncMoved`]).
    pub fn all_members(&self) -> Vec<SiteId> {
        let mut members: Vec<SiteId> = self
            .locks
            .values()
            .flat_map(|l| l.members.iter().copied())
            .collect();
        members.sort_unstable();
        members.dedup();
        members
    }

    /// Reconstructs a coordinator at `home` by replaying a predecessor's
    /// state log — the paper's sketched synchronization-thread recovery.
    /// Outgoing messages generated during replay are discarded (they were
    /// already sent by the predecessor); holder leases restart at `now`.
    pub fn replay(
        home: SiteId,
        cfg: MochaConfig,
        log: &[(SiteId, Msg)],
        now: SimTime,
    ) -> SyncCoordinator {
        let mut c = SyncCoordinator::new(home, cfg);
        let mut discard = CmdSink::new();
        for (from, msg) in log {
            c.on_msg(now, *from, msg.clone(), &mut discard);
            discard.drain();
        }
        c.scan_running = false;
        c
    }

    /// Restarts background machinery after a [`replay`](Self::replay):
    /// timer commands emitted during replay were discarded, so the lease
    /// scan must be re-armed if any lock is currently held — a holder that
    /// died with the old home is then detected and broken normally.
    pub fn resume(&mut self, sink: &mut CmdSink) {
        if self.cfg.break_locks && self.locks.values().any(|l| !l.holders.is_empty()) {
            self.scan_running = true;
            sink.set_timer(SCAN_TOKEN, self.cfg.lease_scan_interval);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CoordinatorStats {
        self.stats
    }

    /// The home site this coordinator runs at.
    pub fn home(&self) -> SiteId {
        self.home
    }

    /// Sites currently blacklisted after detected failures.
    pub fn blacklist(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.blacklist.iter().copied()
    }

    /// Current version of a lock's replica set (for tests/harness).
    pub fn lock_version(&self, lock: LockId) -> Option<Version> {
        self.locks.get(&lock).map(|l| l.version)
    }

    /// Current owner site of a lock, if held exclusively (or the first
    /// shared holder).
    pub fn lock_owner(&self, lock: LockId) -> Option<SiteId> {
        self.locks
            .get(&lock)
            .and_then(|l| l.holders.first().map(|o| o.who.site))
    }

    /// All current holder sites of a lock.
    pub fn lock_holders(&self, lock: LockId) -> Vec<SiteId> {
        self.locks
            .get(&lock)
            .map(|l| l.holders.iter().map(|o| o.who.site).collect())
            .unwrap_or_default()
    }

    /// All lock ids the coordinator knows about.
    pub fn known_locks(&self) -> Vec<LockId> {
        let mut locks: Vec<LockId> = self.locks.keys().copied().collect();
        locks.sort_unstable();
        locks
    }

    /// The registered member set of a lock.
    pub fn lock_members(&self, lock: LockId) -> Vec<SiteId> {
        self.locks
            .get(&lock)
            .map(|l| l.members.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Read-only snapshots of every lock's coordinator-side state, sorted
    /// by lock id — the invariant oracle's view of this coordinator.
    pub fn lock_views(&self) -> Vec<crate::invariants::LockView> {
        let mut views: Vec<crate::invariants::LockView> = self
            .locks
            .iter()
            .map(|(lock, s)| crate::invariants::LockView {
                lock: *lock,
                version: s.version,
                holders: s
                    .holders
                    .iter()
                    .map(|h| crate::invariants::HolderView {
                        site: h.who.site,
                        thread: h.who.thread,
                        mode: h.who.mode,
                        suspected: h.suspected,
                    })
                    .collect(),
                up_to_date: s.up_to_date.iter().copied().collect(),
                members: s.members.iter().copied().collect(),
                recovering: s.recovery.is_some(),
            })
            .collect();
        views.sort_by_key(|v| v.lock);
        views
    }

    /// Feeds the coordinator's protocol-relevant state into `h`, in a
    /// deterministic order, for explorer state fingerprinting.
    pub fn hash_state(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.home.hash(h);
        for view in self.lock_views() {
            view.lock.hash(h);
            view.version.hash(h);
            view.recovering.hash(h);
            for holder in &view.holders {
                holder.site.hash(h);
                holder.thread.hash(h);
                holder.mode.hash(h);
                holder.suspected.hash(h);
            }
            view.up_to_date.hash(h);
            view.members.hash(h);
        }
        // Queued requesters matter: they decide future grant order; the
        // per-site version records steer future freshness bookkeeping.
        let mut locks: Vec<&LockId> = self.locks.keys().collect();
        locks.sort_unstable();
        for lock in locks {
            for r in &self.locks[lock].queue {
                r.site.hash(h);
                r.thread.hash(h);
                r.mode.hash(h);
            }
            for (site, version) in &self.locks[lock].site_versions {
                site.hash(h);
                version.hash(h);
            }
            for (site, count) in &self.locks[lock].heat {
                site.hash(h);
                count.hash(h);
            }
            // Directory placement steers future routing and fencing.
            if let Some(dir) = &self.dir {
                dir.home_of(*lock).hash(h);
                dir.epoch_of(*lock).hash(h);
            }
            if let Some(state) = self.locks.get(lock) {
                state.rebuilt.hash(h);
            }
        }
        // Migration staging decides whether traffic is buffered or served
        // and whether a failed commit can be rolled back.
        let mut staged: Vec<(&LockId, &PendingInstall)> = self.incoming.iter().collect();
        staged.sort_by_key(|(lock, _)| **lock);
        for (lock, pending) in staged {
            lock.hash(h);
            pending.from.hash(h);
            pending.epoch.hash(h);
            pending.msgs.len().hash(h);
        }
        let mut retired: Vec<(&LockId, u64)> = self
            .retired
            .iter()
            .map(|(lock, (fence, _))| (lock, *fence))
            .collect();
        retired.sort_unstable();
        for (lock, fence) in retired {
            lock.hash(h);
            fence.hash(h);
        }
        self.blacklist.hash(h);
        self.scan_running.hash(h);
    }

    /// Last version `site` is known to have held for `lock`, as recorded
    /// at releases — `None` if the site never appeared as an owner or an
    /// acknowledged dissemination target.
    pub fn site_version(&self, lock: LockId, site: SiteId) -> Option<Version> {
        self.locks
            .get(&lock)
            .and_then(|s| s.site_versions.get(&site).copied())
    }

    fn fresh_req(&mut self) -> RequestId {
        let r = self.next_req;
        self.next_req = self.next_req.next();
        r
    }

    /// The lock a SYNC message is *routed by* — the messages that must
    /// reach the lock's current home (and only those; poll answers,
    /// heartbeat acks and the migration handshake are correlated by
    /// request id or handled at any coordinator).
    fn routed_lock(msg: &Msg) -> Option<LockId> {
        match msg {
            Msg::AcquireLock { lock, .. }
            | Msg::ReleaseLock { lock, .. }
            | Msg::RegisterReplica { lock, .. } => Some(*lock),
            _ => None,
        }
    }

    /// `Some((home, epoch))` when this coordinator is not the lock's home
    /// under the directory. Always `None` in legacy fixed-home mode, and
    /// for locks with installed state here (mid-handshake the old home
    /// keeps serving until the fence).
    fn foreign_home(&self, lock: LockId) -> Option<(SiteId, u64)> {
        let dir = self.dir.as_ref()?;
        if self.locks.contains_key(&lock) {
            return None;
        }
        match dir.home_of(lock) {
            Some(home) if home != self.home => Some((home, dir.epoch_of(lock))),
            _ => None,
        }
    }

    /// Handles a protocol message addressed to the SYNC port.
    pub fn on_msg(&mut self, now: SimTime, from: SiteId, msg: Msg, sink: &mut CmdSink) {
        // One event handling's worth of JVM dispatch.
        sink.charge(Work::events(1));
        if let Some(lock) = Self::routed_lock(&msg) {
            // A migration toward this site is in flight: hold the traffic
            // until `MigrateCommit` installs the lock here.
            if let Some(pending) = self.incoming.get_mut(&lock) {
                pending.msgs.push((from, msg));
                return;
            }
            // Not this coordinator's lock: NACK the sender's stale
            // directory entry and forward the message to the real home, so
            // correctness never depends on directory freshness.
            if let Some((home, epoch)) = self.foreign_home(lock) {
                self.stats.stale_home_redirects += 1;
                sink.note(format!(
                    "redirecting {lock} traffic from {from}: home is {home} (epoch {epoch})"
                ));
                sink.send(
                    from,
                    ports::DAEMON,
                    Msg::StaleHome { lock, home, epoch },
                    MsgClass::Control,
                );
                sink.send(home, ports::SYNC, msg, MsgClass::Control);
                return;
            }
        }
        // Only a fixed-home coordinator logs: `replay` rebuilds a
        // fixed-home coordinator, and a directory-mode home that dies is
        // recovered by ring fallback and a rebuild poll instead.
        if self.dir.is_none()
            && matches!(
                msg,
                Msg::AcquireLock { .. }
                    | Msg::ReleaseLock { .. }
                    | Msg::RegisterReplica { .. }
                    | Msg::SiteRecovered { .. }
            )
        {
            self.log.push((from, msg.clone()));
        }
        match msg {
            Msg::AcquireLock {
                lock,
                site,
                thread,
                lease_hint_ms,
                mode,
            } => self.on_acquire(now, lock, site, thread, lease_hint_ms, mode, sink),
            Msg::ReleaseLock {
                lock,
                site,
                new_version,
                disseminated_to,
            } => self.on_release(now, lock, site, new_version, &disseminated_to, sink),
            Msg::RegisterReplica {
                lock,
                replica,
                site,
                name,
            } => self.on_register(lock, replica, site, &name, sink),
            Msg::PollResponse {
                lock,
                version,
                site,
                req,
            } => self.on_poll_response(now, lock, version, site, req, sink),
            Msg::HeartbeatAck { site, req, holding } => {
                self.on_heartbeat_ack(now, site, req, holding, sink);
            }
            Msg::SiteRecovered { site, versions } => {
                self.on_site_recovered(site, &versions, sink);
            }
            Msg::MigrateOffer { lock, epoch, req } => {
                self.on_migrate_offer(from, lock, epoch, req, sink);
            }
            Msg::MigrateAccept {
                lock, epoch, site, ..
            } => self.on_migrate_accept(now, lock, epoch, site, sink),
            Msg::MigrateCommit {
                lock,
                epoch,
                version,
                last_owner,
                members,
                up_to_date,
                site_versions,
                replicas,
                ..
            } => self.on_migrate_commit(
                now,
                from,
                lock,
                epoch,
                version,
                last_owner,
                &members,
                &up_to_date,
                &site_versions,
                &replicas,
                sink,
            ),
            Msg::HomeUpdate { lock, home, epoch } => self.on_home_update(lock, home, epoch),
            other => {
                sink.note(format!(
                    "coordinator ignoring unexpected {other:?} from {from}"
                ));
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_acquire(
        &mut self,
        now: SimTime,
        lock: LockId,
        site: SiteId,
        thread: ThreadId,
        lease_hint_ms: u32,
        mode: LockMode,
        sink: &mut CmdSink,
    ) {
        if self.blacklist.contains(&site) {
            self.stats.blacklisted_requests += 1;
            sink.note(format!("{site} is blacklisted; ignoring acquire of {lock}"));
            return;
        }
        let lease = if lease_hint_ms == 0 {
            self.cfg.default_lease
        } else {
            Duration::from_millis(u64::from(lease_hint_ms))
        };
        let requester = Requester {
            site,
            thread,
            lease,
            mode,
        };
        // In directory mode an unknown lock may be one whose coordinator
        // state died with a re-homed site: mark it rebuilt so the first
        // grant waits behind a member poll instead of inventing
        // `Version::INITIAL` as current.
        let dir_mode = self.dir.is_some();
        {
            let state = self.locks.entry(lock).or_insert_with(|| LockState {
                rebuilt: dir_mode,
                ..LockState::default()
            });
            state.members.insert(site);
        }
        self.note_heat(lock, site);
        let Some(state) = self.locks.get_mut(&lock) else {
            return;
        };
        // After a surrogate takeover, clients re-send acquires that may
        // already be queued or granted. A queued duplicate is dropped (its
        // grant will come); a duplicate from the exact (site, thread) the
        // replayed state considers a *holder* gets its grant re-sent — the
        // original grant may have died with the old home. A *different*
        // thread at a holding site is a new request and must queue.
        if state
            .holders
            .iter()
            .any(|h| h.who.site == site && h.who.thread == thread)
        {
            let version = state.version;
            let flag = if version == Version::INITIAL || state.up_to_date.contains(&site) {
                VersionFlag::VersionOk
            } else {
                VersionFlag::NeedNewVersion
            };
            sink.send(
                site,
                ports::APP,
                Msg::Grant {
                    lock,
                    version,
                    flag,
                },
                MsgClass::Control,
            );
            if flag == VersionFlag::NeedNewVersion {
                self.direct_transfer(lock, site, sink);
            }
            return;
        }
        if state
            .queue
            .iter()
            .any(|r| r.site == site && r.thread == thread)
        {
            return;
        }
        // A rebuilt state has no trustworthy version yet: queue the
        // requester and poll the member daemons for the freshest surviving
        // copy first — the grant flows from `finish_recovery` once the
        // poll adopts it (or its window expires with nothing better).
        if state.rebuilt {
            state.queue.push_back(requester);
            self.start_rebuild(lock, sink);
            return;
        }
        let compatible = match mode {
            // Exclusive needs the lock free and nobody queued ahead.
            LockMode::Exclusive => state.holders.is_empty() && state.queue.is_empty(),
            // Shared joins current shared holders, but never jumps the
            // queue (a waiting exclusive would starve otherwise).
            LockMode::Shared => {
                state.queue.is_empty()
                    && state.holders.iter().all(|h| h.who.mode == LockMode::Shared)
            }
        };
        // Mutant-harness hook: re-introduce the "grant while held" bug so
        // the single-writer invariant can be shown to fire. Inert unless
        // built with `fault-injection` AND the flag is set at runtime.
        let compatible = compatible || self.cfg.faults.active().grant_second_writer;
        if compatible {
            self.grant(now, lock, requester, sink);
        } else if let Some(state) = self.locks.get_mut(&lock) {
            state.queue.push_back(requester);
        }
    }

    /// Grants `lock` to `to`, deciding whether fresh replica data must be
    /// transferred and directing the transfer if so.
    fn grant(&mut self, now: SimTime, lock: LockId, to: Requester, sink: &mut CmdSink) {
        let break_locks = self.cfg.break_locks;
        let faults = self.cfg.faults.active();
        let Some(state) = self.locks.get_mut(&lock) else {
            sink.note(format!("grant of unknown {lock} dropped"));
            return;
        };
        let version = state.version;
        let current = version == Version::INITIAL || state.up_to_date.contains(&to.site);
        let deadline = now + to.lease;
        state.holders.push(OwnerState {
            who: to,
            deadline,
            suspected: false,
        });
        // Mutant-harness hook: optimistically mark the grantee up-to-date
        // before its transfer completes (the freshness bug the oracle's
        // StaleUpToDate invariant exists to catch).
        if faults.optimistic_up_to_date {
            state.up_to_date.insert(to.site);
        }
        debug_assert!(
            faults.grant_second_writer
                || state.holders.len() <= 1
                || state.holders.iter().all(|h| h.who.mode == LockMode::Shared),
            "exclusive {lock} granted alongside existing holders: {:?}",
            state.holders
        );
        self.stats.grants += 1;
        let flag = if current {
            VersionFlag::VersionOk
        } else {
            VersionFlag::NeedNewVersion
        };
        sink.send(
            to.site,
            ports::APP,
            Msg::Grant {
                lock,
                version,
                flag,
            },
            MsgClass::Control,
        );
        if flag == VersionFlag::NeedNewVersion {
            self.stats.grants_with_transfer += 1;
            self.direct_transfer(lock, to.site, sink);
        }
        if break_locks && !self.scan_running {
            self.scan_running = true;
            sink.set_timer(SCAN_TOKEN, self.cfg.lease_scan_interval);
        }
    }

    /// Asks the freshest daemon to send its replicas to `dest`.
    fn direct_transfer(&mut self, lock: LockId, dest: SiteId, sink: &mut CmdSink) {
        let req = self.fresh_req();
        let Some(state) = self.locks.get_mut(&lock) else {
            sink.note(format!("transfer for unknown {lock} dropped"));
            return;
        };
        // Prefer the last owner; otherwise any up-to-date site.
        let source = state
            .last_owner
            .filter(|s| *s != dest)
            .or_else(|| state.up_to_date.iter().copied().find(|s| *s != dest));
        match source {
            Some(source) => {
                let version = state.version;
                // Ablation: optionally force the data through the home
                // site instead of the direct daemon-to-daemon path.
                let data_dest = if self.cfg.relay_transfers && source != self.home {
                    sink.send(
                        self.home,
                        ports::DAEMON,
                        Msg::ExpectRelay { lock, dest, req },
                        MsgClass::Control,
                    );
                    self.home
                } else {
                    dest
                };
                sink.send_tagged(
                    source,
                    ports::DAEMON,
                    Msg::TransferReplica {
                        lock,
                        dest: data_dest,
                        version,
                        req,
                    },
                    MsgClass::Control,
                    SendTag::TransferDirective {
                        lock,
                        from: source,
                        dest,
                        req,
                    },
                );
            }
            None => {
                // No known current copy (e.g. after failures): recover.
                self.start_recovery(lock, dest, sink);
            }
        }
    }

    fn on_release(
        &mut self,
        now: SimTime,
        lock: LockId,
        site: SiteId,
        new_version: Version,
        disseminated_to: &[SiteId],
        sink: &mut CmdSink,
    ) {
        let Some(state) = self.locks.get_mut(&lock) else {
            sink.note(format!("release of unknown {lock} from {site}"));
            return;
        };
        let Some(idx) = state.holders.iter().position(|h| h.who.site == site) else {
            // Stale release: the lock was broken while this site
            // (slowly) finished. Its updates are discarded.
            sink.note(format!("stale release of {lock} from {site} ignored"));
            return;
        };
        state.holders.swap_remove(idx);
        if new_version > state.version {
            state.version = new_version;
            state.up_to_date.clear();
            state.up_to_date.insert(site);
            state.site_versions.insert(site, new_version);
            for s in disseminated_to {
                state.up_to_date.insert(*s);
                state.site_versions.insert(*s, new_version);
            }
            state.last_owner = Some(site);
        } else {
            // Read-only hold: the releaser now also has the current copy.
            state.up_to_date.insert(site);
            state.site_versions.insert(site, state.version);
        }
        self.grant_next_batch(now, lock, sink);
        // The lock may now be free: land an accepted migration, or see
        // whether the traffic pattern warrants offering one.
        self.try_commit(lock, sink);
        self.maybe_migrate(lock, sink);
    }

    /// Grants the next compatible batch from the queue: one exclusive
    /// requester, or every consecutive shared requester at the front.
    fn grant_next_batch(&mut self, now: SimTime, lock: LockId, sink: &mut CmdSink) {
        if !self.locks.get(&lock).is_some_and(|s| s.holders.is_empty()) {
            return; // still held (remaining shared holders)
        }
        let mut granted_any = false;
        while let Some(state) = self.locks.get_mut(&lock) {
            let Some(next) = state.queue.front().copied() else {
                break;
            };
            if self.blacklist.contains(&next.site) {
                state.queue.pop_front();
                self.stats.blacklisted_requests += 1;
                continue;
            }
            // An exclusive grant stands alone; shared grants batch.
            if granted_any && next.mode == LockMode::Exclusive {
                break;
            }
            state.queue.pop_front();
            self.grant(now, lock, next, sink);
            granted_any = true;
            if next.mode == LockMode::Exclusive {
                break;
            }
        }
    }

    fn on_register(
        &mut self,
        lock: LockId,
        replica: ReplicaId,
        site: SiteId,
        name: &str,
        sink: &mut CmdSink,
    ) {
        // A (re-)registration signals the site is alive — a rebooted node
        // rejoining after its previous incarnation was blacklisted (§1's
        // "remote node reboot"). Lift the ban; the lease machinery will
        // re-detect it if it is still misbehaving.
        if self.blacklist.remove(&site) {
            sink.note(format!("{site} re-registered; blacklist lifted"));
        }
        // Directory mode: a registration may be the first contact for a
        // lock whose prior coordinator state died elsewhere — mark the
        // fresh state rebuilt so the first grant polls before trusting
        // `Version::INITIAL`.
        let dir_mode = self.dir.is_some();
        let state = self.locks.entry(lock).or_insert_with(|| LockState {
            rebuilt: dir_mode,
            ..LockState::default()
        });
        let new_member = state.members.insert(site);
        state.replicas.insert(replica);
        // Propagate membership so every daemon can disseminate (§4: the
        // ReplicaLock "keeps track of the daemon threads associated with
        // these application threads").
        if new_member {
            let others: Vec<SiteId> = state
                .members
                .iter()
                .copied()
                .filter(|s| *s != site)
                .collect();
            for other in &others {
                sink.send(
                    *other,
                    ports::DAEMON,
                    Msg::RegisterReplica {
                        lock,
                        replica,
                        site,
                        name: name.to_string(),
                    },
                    MsgClass::Control,
                );
                // Tell the new member about the existing one, too.
                sink.send(
                    site,
                    ports::DAEMON,
                    Msg::RegisterReplica {
                        lock,
                        replica,
                        site: *other,
                        name: name.to_string(),
                    },
                    MsgClass::Control,
                );
            }
        } else {
            // Known member registering another replica under the same
            // lock: still propagate the replica association.
            let others: Vec<SiteId> = state
                .members
                .iter()
                .copied()
                .filter(|s| *s != site)
                .collect();
            for other in others {
                sink.send(
                    other,
                    ports::DAEMON,
                    Msg::RegisterReplica {
                        lock,
                        replica,
                        site,
                        name: name.to_string(),
                    },
                    MsgClass::Control,
                );
            }
        }
    }

    /// Handles a durable site's recovery announcement: it rebooted and
    /// holds exactly these versions, replayed off its snapshot and
    /// write-ahead log. Records them in the dissemination bookkeeping
    /// (replacing anything its previous incarnation was credited with) and
    /// forwards the announcement to each lock's other member daemons, so
    /// their next transfer or push to the rebooted site can ship a
    /// `(recovered → current)` edit script instead of a full payload.
    fn on_site_recovered(
        &mut self,
        site: SiteId,
        versions: &[(LockId, Version)],
        sink: &mut CmdSink,
    ) {
        // Like re-registration, an announcement proves the site is alive.
        if self.blacklist.remove(&site) {
            sink.note(format!("{site} recovered; blacklist lifted"));
        }
        for (lock, version) in versions {
            if !self.locks.contains_key(lock) {
                // In directory mode, an announcement for a lock the ring
                // now homes here is how churn re-homing rebuilds
                // coordinator state: create it marked rebuilt so the first
                // grant still polls the full member set. (No creation while
                // a migration toward this site is buffering — its commit
                // installs the real state.)
                let is_home = self
                    .dir
                    .as_ref()
                    .is_some_and(|d| d.home_of(*lock) == Some(self.home));
                if !is_home || self.incoming.contains_key(lock) {
                    // Legacy mode keeps the old behaviour: a surrogate
                    // that never saw the lock skips it; re-registration
                    // rebuilds membership and transfers fall back to
                    // full payloads.
                    continue;
                }
                self.locks.insert(
                    *lock,
                    LockState {
                        rebuilt: true,
                        ..LockState::default()
                    },
                );
            }
            let Some(state) = self.locks.get_mut(lock) else {
                continue;
            };
            state.members.insert(site);
            state.site_versions.insert(site, *version);
            if state.rebuilt && *version > state.version {
                // Rebuilding from announcements: adopt the freshest
                // surviving version rather than letting a default-INITIAL
                // state call stale replicas current.
                state.version = *version;
                state.last_owner = Some(site);
                state.up_to_date.clear();
                state.up_to_date.insert(site);
            } else if *version == state.version && state.version > Version::INITIAL {
                state.up_to_date.insert(site);
            } else {
                // The recovered copy is stale (writes happened past its
                // snapshot, or its WAL tail was truncated): it must catch
                // up before counting as current.
                state.up_to_date.remove(&site);
            }
            let others: Vec<SiteId> = state
                .members
                .iter()
                .copied()
                .filter(|s| *s != site)
                .collect();
            for other in others {
                sink.send(
                    other,
                    ports::DAEMON,
                    Msg::SiteRecovered {
                        site,
                        versions: vec![(*lock, *version)],
                    },
                    MsgClass::Control,
                );
            }
        }
    }

    /// Records acquire traffic for migration heat tracking, with a decaying
    /// window: when any counter reaches the ceiling, all are halved.
    fn note_heat(&mut self, lock: LockId, site: SiteId) {
        if self.dir.is_none() || !self.cfg.home.migration {
            return;
        }
        let Some(state) = self.locks.get_mut(&lock) else {
            return;
        };
        let count = state.heat.entry(site).or_insert(0);
        *count += 1;
        if *count >= HEAT_CEILING {
            state.heat.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
    }

    /// Offers the coordinator role to a remote site that dominates this
    /// lock's acquire traffic. Only called with the lock free; the offer
    /// does not pause service — the lock keeps being granted here until
    /// the fence at commit-send.
    fn maybe_migrate(&mut self, lock: LockId, sink: &mut CmdSink) {
        if !self.cfg.home.migration
            || self.outgoing.contains_key(&lock)
            || self.retired.contains_key(&lock)
        {
            return;
        }
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        let me = self.home;
        let threshold = self.cfg.home.migrate_threshold;
        let Some(state) = self.locks.get(&lock) else {
            return;
        };
        if !state.holders.is_empty() || !state.queue.is_empty() || state.recovery.is_some() {
            return;
        }
        let local = state.heat.get(&me).copied().unwrap_or(0);
        let candidate = state
            .heat
            .iter()
            .filter(|(site, _)| **site != me && !self.blacklist.contains(site))
            .max_by_key(|(_, count)| **count)
            .map(|(site, count)| (*site, *count));
        let Some((target, heat)) = candidate else {
            return;
        };
        if heat < local.saturating_add(threshold) {
            return;
        }
        let epoch = dir.epoch_of(lock) + 1;
        let req = self.fresh_req();
        self.outgoing.insert(
            lock,
            OutgoingMigration {
                target,
                epoch,
                accepted: false,
            },
        );
        sink.note(format!(
            "offering home of {lock} to {target} (heat {heat} vs local {local}, epoch {epoch})"
        ));
        sink.send_tagged(
            target,
            ports::SYNC,
            Msg::MigrateOffer { lock, epoch, req },
            MsgClass::Control,
            SendTag::Migrate {
                lock,
                site: target,
                epoch,
            },
        );
    }

    /// A coordinator elsewhere wants to hand this site a lock's home role.
    /// Accept and start buffering the lock's SYNC traffic until the commit
    /// installs its state here.
    fn on_migrate_offer(
        &mut self,
        from: SiteId,
        lock: LockId,
        epoch: u64,
        req: RequestId,
        sink: &mut CmdSink,
    ) {
        let Some(dir) = self.dir.as_ref() else {
            sink.note(format!(
                "ignoring migrate offer for {lock} from {from}: not in hash-directory mode"
            ));
            return;
        };
        // A replayed offer for a lock already installed here (or one whose
        // fence epoch our directory has already moved past) must not start
        // buffering live traffic — answer with the authoritative placement
        // instead of an accept.
        if self.locks.contains_key(&lock) || epoch <= dir.epoch_of(lock) {
            sink.note(format!(
                "rejecting stale migrate offer for {lock} from {from} (epoch {epoch})"
            ));
            let update = Msg::HomeUpdate {
                lock,
                home: dir.home_of(lock).unwrap_or(self.home),
                epoch: dir.epoch_of(lock),
            };
            sink.send(from, ports::DAEMON, update.clone(), MsgClass::Control);
            sink.send(from, ports::SYNC, update, MsgClass::Control);
            return;
        }
        let pending = self.incoming.entry(lock).or_insert_with(|| PendingInstall {
            from,
            epoch,
            msgs: Vec::new(),
        });
        pending.from = from;
        pending.epoch = epoch;
        // Bound the buffering window: the offerer commits only once the
        // lock goes free, which can take a full lease — but if the commit
        // never arrives (offerer died, lock never freed), the buffered
        // traffic must not be swallowed forever. On expiry it is
        // re-processed and redirects to whichever home is authoritative.
        sink.set_timer(
            timer_ns::COORD | MIGRATE_SUB | u64::from(lock.as_raw()),
            self.cfg.default_lease + self.cfg.heartbeat_timeout,
        );
        sink.send(
            from,
            ports::SYNC,
            Msg::MigrateAccept {
                lock,
                epoch,
                site: self.home,
                req,
            },
            MsgClass::Control,
        );
    }

    /// The candidate accepted: commit now if the lock is free, else at the
    /// next release that leaves it free.
    fn on_migrate_accept(
        &mut self,
        _now: SimTime,
        lock: LockId,
        epoch: u64,
        site: SiteId,
        sink: &mut CmdSink,
    ) {
        let Some(migration) = self.outgoing.get_mut(&lock) else {
            return; // aborted in the meantime
        };
        if migration.epoch != epoch || migration.target != site {
            return; // stale accept from an earlier attempt
        }
        migration.accepted = true;
        self.try_commit(lock, sink);
    }

    /// Commits an accepted migration if the lock is currently free. The
    /// commit-send IS the fence: this coordinator retires the lock state in
    /// the same step, so no acquire can ever be granted by both homes.
    fn try_commit(&mut self, lock: LockId, sink: &mut CmdSink) {
        let Some(migration) = self.outgoing.get(&lock).copied() else {
            return;
        };
        if !migration.accepted {
            return;
        }
        {
            let Some(state) = self.locks.get(&lock) else {
                self.outgoing.remove(&lock);
                return;
            };
            if !state.holders.is_empty() || !state.queue.is_empty() || state.recovery.is_some() {
                return; // busy again; retried at the next release
            }
        }
        self.outgoing.remove(&lock);
        let req = self.fresh_req();
        let OutgoingMigration { target, epoch, .. } = migration;
        let msg = {
            let Some(state) = self.locks.get(&lock) else {
                return;
            };
            Msg::MigrateCommit {
                lock,
                epoch,
                version: state.version,
                last_owner: state.last_owner,
                members: state.members.iter().copied().collect(),
                up_to_date: state.up_to_date.iter().copied().collect(),
                site_versions: state.site_versions.iter().map(|(s, v)| (*s, *v)).collect(),
                replicas: state.replicas.iter().copied().collect(),
                req,
            }
        };
        self.stats.migrations += 1;
        if self.cfg.faults.active().commit_unfenced {
            // Mutant-harness hook: skip the fence — keep serving the lock
            // after handing its home away, so both coordinators own it and
            // the per-lock split-home invariant can be shown to fire.
            sink.note(format!(
                "MUTANT commit_unfenced: {lock} committed to {target} without retiring"
            ));
        } else if let Some(state) = self.locks.remove(&lock) {
            self.retired.insert(lock, (epoch, state));
            if let Some(dir) = self.dir.as_mut() {
                dir.record(lock, target, epoch);
            }
            sink.note(format!("home of {lock} migrated to {target} (epoch {epoch})"));
        }
        sink.send_tagged(
            target,
            ports::SYNC,
            msg,
            MsgClass::Control,
            SendTag::Migrate {
                lock,
                site: target,
                epoch,
            },
        );
    }

    /// Installs a lock whose home was migrated here, gossips the new
    /// placement, and drains any traffic buffered during the handshake.
    #[allow(clippy::too_many_arguments)]
    fn on_migrate_commit(
        &mut self,
        now: SimTime,
        from: SiteId,
        lock: LockId,
        epoch: u64,
        version: Version,
        last_owner: Option<SiteId>,
        members: &[SiteId],
        up_to_date: &[SiteId],
        site_versions: &[(SiteId, Version)],
        replicas: &[ReplicaId],
        sink: &mut CmdSink,
    ) {
        sink.cancel_timer(timer_ns::COORD | MIGRATE_SUB | u64::from(lock.as_raw()));
        let Some(current_epoch) = self.dir.as_ref().map(|d| d.epoch_of(lock)) else {
            sink.note(format!(
                "ignoring migrate commit for {lock} from {from}: not in hash-directory mode"
            ));
            return;
        };
        // Epoch fence: a delayed or replayed commit must never re-install
        // state at a site the directory has since moved past — that would
        // recreate exactly the split-home condition the fence prevents.
        // (An equal epoch with state already installed is a duplicate of a
        // commit we applied; only the fence re-ack is worth resending.)
        let stale =
            epoch < current_epoch || (epoch == current_epoch && self.locks.contains_key(&lock));
        if stale {
            sink.note(format!(
                "stale migrate commit for {lock} from {from} (epoch {epoch} < {current_epoch}); redirecting"
            ));
            let authoritative = self
                .dir
                .as_ref()
                .and_then(|d| d.home_of(lock))
                .unwrap_or(self.home);
            let update = Msg::HomeUpdate {
                lock,
                home: authoritative,
                epoch: current_epoch,
            };
            sink.send(from, ports::DAEMON, update.clone(), MsgClass::Control);
            sink.send(from, ports::SYNC, update, MsgClass::Control);
            // Anything buffered for this dead handshake re-routes to the
            // authoritative home.
            if let Some(pending) = self.incoming.remove(&lock) {
                for (buffered_from, buffered_msg) in pending.msgs {
                    self.on_msg(now, buffered_from, buffered_msg, sink);
                }
            }
            return;
        }
        let mut state = LockState {
            version,
            last_owner,
            ..LockState::default()
        };
        state.members.extend(members.iter().copied());
        state.up_to_date.extend(up_to_date.iter().copied());
        state
            .site_versions
            .extend(site_versions.iter().copied());
        state.replicas.extend(replicas.iter().copied());
        self.locks.insert(lock, state);
        if let Some(dir) = self.dir.as_mut() {
            dir.record(lock, self.home, epoch);
        }
        // Gossip the new placement to every member daemon and coordinator,
        // and always to the committer — receiving it is its fence ack.
        let mut targets: BTreeSet<SiteId> = members.iter().copied().collect();
        targets.insert(from);
        targets.remove(&self.home);
        for target in targets {
            let update = Msg::HomeUpdate {
                lock,
                home: self.home,
                epoch,
            };
            sink.send(target, ports::DAEMON, update.clone(), MsgClass::Control);
            sink.send(target, ports::SYNC, update, MsgClass::Control);
        }
        if let Some(pending) = self.incoming.remove(&lock) {
            for (buffered_from, buffered_msg) in pending.msgs {
                self.on_msg(now, buffered_from, buffered_msg, sink);
            }
        }
    }

    /// Directory gossip: a lock's home moved. Also serves as the fence ack
    /// releasing any retired state held against commit-send failure — but
    /// only at or above the epoch the retirement was fenced at: a
    /// reordered `HomeUpdate` from an *earlier* migration of the same lock
    /// must not discard the fallback of a newer in-flight commit.
    fn on_home_update(&mut self, lock: LockId, home: SiteId, epoch: u64) {
        if home != self.home
            && self
                .retired
                .get(&lock)
                .is_some_and(|(fence, _)| epoch >= *fence)
        {
            self.retired.remove(&lock);
        }
        if let Some(dir) = self.dir.as_mut() {
            dir.record(lock, home, epoch);
        }
    }

    fn on_poll_response(
        &mut self,
        now: SimTime,
        lock: LockId,
        version: Version,
        site: SiteId,
        req: RequestId,
        sink: &mut CmdSink,
    ) {
        let Some(state) = self.locks.get_mut(&lock) else {
            return;
        };
        let Some(recovery) = state.recovery.as_mut() else {
            return;
        };
        if recovery.req != req {
            return; // stale poll answer
        }
        recovery.responses.push((site, version));
        if recovery.responses.len() >= recovery.expected {
            sink.cancel_timer(timer_ns::COORD | RECOVERY_SUB | u64::from(lock.as_raw()));
            self.finish_recovery(now, lock, sink);
        }
    }

    fn on_heartbeat_ack(
        &mut self,
        now: SimTime,
        site: SiteId,
        req: RequestId,
        holding: bool,
        sink: &mut CmdSink,
    ) {
        let Some((lock, suspect)) = self.pending_heartbeats.remove(&req) else {
            return;
        };
        debug_assert_eq!(site, suspect);
        let token = timer_ns::COORD | HEARTBEAT_SUB | req.as_raw();
        self.heartbeat_timers.remove(&token);
        sink.cancel_timer(token);
        if holding {
            // The owner is alive and still working: extend its lease one
            // more period.
            if let Some(state) = self.locks.get_mut(&lock) {
                for owner in &mut state.holders {
                    if owner.who.site == site {
                        owner.suspected = false;
                        owner.deadline = now + owner.who.lease;
                    }
                }
            }
        } else {
            // Phantom hold: the site is alive but no longer holds the
            // lock — its release was lost (e.g. with a dead coordinator).
            // Treat it as released without penalising the site.
            sink.note(format!(
                "phantom hold of {lock} at {site}: release was lost; clearing"
            ));
            if let Some(state) = self.locks.get_mut(&lock) {
                if let Some(idx) = state.holders.iter().position(|h| h.who.site == site) {
                    state.holders.swap_remove(idx);
                    // The site still has the data it wrote.
                    state.up_to_date.insert(site);
                    state.site_versions.insert(site, state.version);
                    if state.last_owner.is_none() {
                        state.last_owner = Some(site);
                    }
                }
            }
            self.grant_next_batch(now, lock, sink);
        }
    }

    /// Handles a coordinator timer. Returns `true` if the token belonged
    /// to this component.
    pub fn on_timer(&mut self, now: SimTime, token: u64, sink: &mut CmdSink) -> bool {
        if timer_ns::of(token) != timer_ns::COORD {
            return false;
        }
        if token == SCAN_TOKEN {
            self.scan_leases(now, sink);
            return true;
        }
        if token & HEARTBEAT_SUB != 0 {
            if let Some(req) = self.heartbeat_timers.remove(&token) {
                if let Some((lock, site)) = self.pending_heartbeats.remove(&req) {
                    // Heartbeat unanswered: the owner is dead.
                    self.break_lock(now, lock, site, sink);
                }
            }
            return true;
        }
        if token & MIGRATE_SUB != 0 {
            // An incoming handshake's commit never arrived: stop buffering
            // and re-process the held traffic (it re-routes to whichever
            // home is authoritative; a late commit can still install).
            let lock = LockId((token & 0xffff_ffff) as u32);
            if let Some(pending) = self.incoming.remove(&lock) {
                sink.note(format!(
                    "migrate commit for {lock} from {from} never arrived; releasing {n} buffered message(s)",
                    from = pending.from,
                    n = pending.msgs.len()
                ));
                for (from, msg) in pending.msgs {
                    self.on_msg(now, from, msg, sink);
                }
            }
            return true;
        }
        if token & RECOVERY_SUB != 0 {
            let lock = LockId((token & 0xffff_ffff) as u32);
            self.finish_recovery(now, lock, sink);
            return true;
        }
        true
    }

    /// Periodic lease scan: suspect owners that have held their lock past
    /// the declared lease, and confirm with a heartbeat (paper §4: "the
    /// synchronization thread can confirm this suspicion by sending a
    /// 'heartbeat' message").
    fn scan_leases(&mut self, now: SimTime, sink: &mut CmdSink) {
        sink.charge(Work::events(1));
        let mut to_probe = Vec::new();
        for (lock, state) in &mut self.locks {
            for owner in &mut state.holders {
                if !owner.suspected && now > owner.deadline {
                    owner.suspected = true;
                    to_probe.push((*lock, owner.who.site));
                }
            }
        }
        for (lock, site) in to_probe {
            let req = self.fresh_req();
            self.pending_heartbeats.insert(req, (lock, site));
            let token = timer_ns::COORD | HEARTBEAT_SUB | req.as_raw();
            self.heartbeat_timers.insert(token, req);
            sink.send_tagged(
                site,
                ports::APP,
                Msg::Heartbeat { lock, req },
                MsgClass::Control,
                SendTag::Heartbeat { lock, site, req },
            );
            sink.set_timer(token, self.cfg.heartbeat_timeout);
        }
        // Keep scanning only while some lock is held; otherwise go idle
        // (the next grant re-arms the scan). This lets simulations
        // quiesce.
        if self.locks.values().any(|l| !l.holders.is_empty()) {
            sink.set_timer(SCAN_TOKEN, self.cfg.lease_scan_interval);
        } else {
            self.scan_running = false;
        }
    }

    /// Breaks a lock whose owner failed: blacklists the owner, revokes its
    /// grant, and passes the lock (with the freshest surviving data) to
    /// the next waiter.
    fn break_lock(&mut self, now: SimTime, lock: LockId, dead: SiteId, sink: &mut CmdSink) {
        let Some(state) = self.locks.get_mut(&lock) else {
            return;
        };
        let Some(idx) = state.holders.iter().position(|h| h.who.site == dead) else {
            return; // released in the meantime
        };
        self.stats.locks_broken += 1;
        state.holders.swap_remove(idx);
        let version = state.version;
        self.fail_site_in_lock(lock, dead);
        self.blacklist.insert(dead);
        // A live-but-slow owner must learn its grant is void.
        sink.send(
            dead,
            ports::APP,
            Msg::LockRevoked { lock, version },
            MsgClass::Control,
        );
        sink.note(format!("broke {lock}: owner {dead} presumed failed"));
        self.grant_next_batch(now, lock, sink);
    }

    /// Removes a failed site from a lock's membership and freshness sets.
    fn fail_site_in_lock(&mut self, lock: LockId, dead: SiteId) {
        let Some(state) = self.locks.get_mut(&lock) else {
            return;
        };
        state.members.remove(&dead);
        state.up_to_date.remove(&dead);
        state.site_versions.remove(&dead);
        state.heat.remove(&dead);
        if state.last_owner == Some(dead) {
            state.last_owner = state.up_to_date.iter().copied().next();
        }
    }

    /// Called by the driver when a tagged send failed at the transport
    /// level (the §4 timeout detections).
    pub fn on_send_failed(&mut self, now: SimTime, tag: &SendTag, sink: &mut CmdSink) {
        match tag {
            SendTag::TransferDirective {
                lock, from, dest, ..
            } => {
                sink.note(format!(
                    "transfer directive to {from} for {lock} timed out; recovering"
                ));
                self.fail_site_in_lock(*lock, *from);
                self.start_recovery(*lock, *dest, sink);
            }
            SendTag::Heartbeat { lock, site, req } => {
                let token = timer_ns::COORD | HEARTBEAT_SUB | req.as_raw();
                self.heartbeat_timers.remove(&token);
                self.pending_heartbeats.remove(req);
                sink.cancel_timer(token);
                self.break_lock(now, *lock, *site, sink);
            }
            SendTag::Migrate { lock, site, epoch } => {
                // The counterpart coordinator is unreachable. An offer (or
                // unacked commit-retry window) simply aborts; a fenced
                // commit reinstates the retired lock here, re-recording
                // this site as home under a fresher epoch so the failed
                // fence can never win. Only the retirement fenced at THIS
                // attempt's epoch is reinstated — a stale tag must not
                // resurrect state a newer migration already moved.
                self.outgoing.remove(lock);
                match self.retired.remove(lock) {
                    Some((fence, state)) if fence == *epoch => {
                        sink.note(format!(
                            "migrate commit of {lock} to {site} failed; reinstating home here"
                        ));
                        self.locks.insert(*lock, state);
                        if let Some(dir) = self.dir.as_mut() {
                            dir.record(*lock, self.home, epoch + 1);
                        }
                    }
                    Some(other) => {
                        // A different attempt's retirement: put it back.
                        self.retired.insert(*lock, other);
                        sink.note(format!(
                            "stale migrate failure for {lock} (epoch {epoch}) ignored"
                        ));
                    }
                    None => {
                        sink.note(format!("migrate offer of {lock} to {site} failed; aborted"));
                    }
                }
                self.fail_site_in_lock(*lock, *site);
            }
            _ => {}
        }
    }

    /// Polls every member daemon for its newest version of `lock`'s
    /// replicas, so the freshest surviving copy can be forwarded to
    /// `dest`.
    fn start_recovery(&mut self, lock: LockId, dest: SiteId, sink: &mut CmdSink) {
        let req = self.fresh_req();
        let window = self.cfg.recovery_poll_window;
        let Some(state) = self.locks.get_mut(&lock) else {
            sink.note(format!("recovery for unknown {lock} dropped"));
            return;
        };
        if state.recovery.is_some() {
            return; // already recovering; the grantee will be served by it
        }
        self.stats.recoveries += 1;
        let members: Vec<SiteId> = state.members.iter().copied().collect();
        state.recovery = Some(Recovery {
            req,
            dest,
            responses: Vec::new(),
            expected: members.len(),
            rebuild: false,
        });
        for m in &members {
            sink.send(
                *m,
                ports::DAEMON,
                Msg::PollVersion { lock, req },
                MsgClass::Control,
            );
        }
        sink.set_timer(
            timer_ns::COORD | RECOVERY_SUB | u64::from(lock.as_raw()),
            window,
        );
    }

    /// Starts the state-rebuild poll for a rebuilt lock (directory mode):
    /// every known member daemon is asked for its newest version, and the
    /// queued grants wait until `finish_recovery` adopts the freshest
    /// surviving answer — this is how a coordinator that inherited a lock
    /// through churn avoids calling stale replicas current.
    fn start_rebuild(&mut self, lock: LockId, sink: &mut CmdSink) {
        let req = self.fresh_req();
        let window = self.cfg.recovery_poll_window;
        let me = self.home;
        let Some(state) = self.locks.get_mut(&lock) else {
            return;
        };
        if state.recovery.is_some() {
            return; // poll already running; queued grants ride on it
        }
        self.stats.recoveries += 1;
        sink.note(format!(
            "rebuilding {lock} at {me}: polling members for the freshest surviving version"
        ));
        let members: Vec<SiteId> = state.members.iter().copied().collect();
        state.recovery = Some(Recovery {
            req,
            dest: me,
            responses: Vec::new(),
            expected: members.len(),
            rebuild: true,
        });
        for m in &members {
            sink.send(
                *m,
                ports::DAEMON,
                Msg::PollVersion { lock, req },
                MsgClass::Control,
            );
        }
        sink.set_timer(
            timer_ns::COORD | RECOVERY_SUB | u64::from(lock.as_raw()),
            window,
        );
    }

    /// Concludes a recovery with whatever poll responses arrived.
    fn finish_recovery(&mut self, now: SimTime, lock: LockId, sink: &mut CmdSink) {
        let Some(state) = self.locks.get_mut(&lock) else {
            return;
        };
        let Some(recovery) = state.recovery.take() else {
            return;
        };
        if recovery.rebuild {
            // State-rebuild poll (directory mode): adopt the freshest
            // surviving version as current, remember who has it, then let
            // the deferred grants through. A silent majority only weakens
            // what the §4 model already concedes — the freshest *answering*
            // replica defines current.
            let best = recovery.responses.iter().max_by_key(|(_, v)| *v).copied();
            if let Some((site, version)) = best {
                if version > state.version {
                    state.version = version;
                    state.last_owner = Some(site);
                    state.up_to_date.clear();
                }
            }
            for (site, version) in &recovery.responses {
                state.site_versions.insert(*site, *version);
                if *version == state.version && state.version > Version::INITIAL {
                    state.up_to_date.insert(*site);
                }
            }
            state.rebuilt = false;
            let adopted = state.version;
            sink.note(format!(
                "rebuilt {lock} from {0} member answers: adopted version {adopted}",
                recovery.responses.len()
            ));
            self.grant_next_batch(now, lock, sink);
            return;
        }
        let expected_version = state.version;
        let best = recovery
            .responses
            .iter()
            .filter(|(site, _)| *site != recovery.dest)
            .max_by_key(|(_, v)| *v)
            .copied();
        let dest_version = recovery
            .responses
            .iter()
            .find(|(site, _)| *site == recovery.dest)
            .map(|(_, v)| *v);
        match best {
            Some((site, version))
                if version > Version::INITIAL
                    && version >= dest_version.unwrap_or(Version::INITIAL) =>
            {
                if version < expected_version {
                    self.stats.stale_recoveries += 1;
                    sink.note(format!(
                        "recovery of {lock}: freshest surviving version {version} < expected {expected_version} (weakened consistency)"
                    ));
                    // The lost newer version is gone for good; adopt the
                    // surviving one as current so the system converges.
                    state.version = version;
                }
                state.last_owner = Some(site);
                state.up_to_date.insert(site);
                state.site_versions.insert(site, state.version);
                let req = recovery.req;
                let dest = recovery.dest;
                sink.send_tagged(
                    site,
                    ports::DAEMON,
                    Msg::TransferReplica {
                        lock,
                        dest,
                        version,
                        req,
                    },
                    MsgClass::Control,
                    SendTag::TransferDirective {
                        lock,
                        from: site,
                        dest,
                        req,
                    },
                );
            }
            _ => {
                // No surviving copy anywhere (or the grantee itself holds
                // the best one): unblock the grantee with what it has.
                let version = dest_version.unwrap_or(Version::INITIAL);
                if version < expected_version {
                    self.stats.stale_recoveries += 1;
                    state.version = version;
                }
                sink.note(format!(
                    "recovery of {lock}: no fresher copy available; {0} proceeds with local state",
                    recovery.dest
                ));
                sink.send(
                    recovery.dest,
                    ports::DAEMON,
                    Msg::ReplicaData {
                        lock,
                        version,
                        updates: Vec::new(),
                        req: recovery.req,
                    },
                    MsgClass::Control,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::Cmd;

    const HOME: SiteId = SiteId(0);
    const S1: SiteId = SiteId(1);
    const S2: SiteId = SiteId(2);
    const T0: ThreadId = ThreadId(0);
    const L: LockId = LockId(1);

    fn coord() -> SyncCoordinator {
        SyncCoordinator::new(HOME, MochaConfig::default())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    fn acquire(site: SiteId) -> Msg {
        Msg::AcquireLock {
            lock: L,
            site,
            thread: T0,
            lease_hint_ms: 0,
            mode: LockMode::Exclusive,
        }
    }

    fn acquire_shared(site: SiteId) -> Msg {
        Msg::AcquireLock {
            lock: L,
            site,
            thread: T0,
            lease_hint_ms: 0,
            mode: LockMode::Shared,
        }
    }

    fn release(site: SiteId, v: u64) -> Msg {
        Msg::ReleaseLock {
            lock: L,
            site,
            new_version: Version(v),
            disseminated_to: vec![],
        }
    }

    /// Extracts (to, msg) pairs from sink commands.
    fn sends(sink: &mut CmdSink) -> Vec<(SiteId, Msg)> {
        sink.drain()
            .into_iter()
            .filter_map(|c| match c {
                Cmd::Send { to, msg, .. } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    fn grant_flag(msgs: &[(SiteId, Msg)], to: SiteId) -> Option<VersionFlag> {
        msgs.iter().find_map(|(site, m)| match m {
            Msg::Grant { flag, .. } if *site == to => Some(*flag),
            _ => None,
        })
    }

    #[test]
    fn release_records_per_site_versions() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        c.on_msg(t(0), S1, acquire(S1), &mut sink);
        sink.drain();
        // S1 wrote v1 and pushed it to S2.
        c.on_msg(
            t(1),
            S1,
            Msg::ReleaseLock {
                lock: L,
                site: S1,
                new_version: Version(1),
                disseminated_to: vec![S2],
            },
            &mut sink,
        );
        assert_eq!(c.site_version(L, S1), Some(Version(1)));
        assert_eq!(c.site_version(L, S2), Some(Version(1)));
        assert_eq!(c.site_version(L, HOME), None);
        // S2 writes v2 without dissemination: its record advances, S1's
        // stays at the version it last held.
        c.on_msg(t(2), S2, acquire(S2), &mut sink);
        sink.drain();
        c.on_msg(t(3), S2, release(S2, 2), &mut sink);
        assert_eq!(c.site_version(L, S2), Some(Version(2)));
        assert_eq!(c.site_version(L, S1), Some(Version(1)));
        assert_eq!(c.site_version(L, SiteId(9)), None);
    }

    #[test]
    fn first_acquire_grants_immediately_with_version_ok() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        c.on_msg(t(0), S1, acquire(S1), &mut sink);
        let msgs = sends(&mut sink);
        assert_eq!(grant_flag(&msgs, S1), Some(VersionFlag::VersionOk));
        assert_eq!(c.lock_owner(L), Some(S1));
        assert_eq!(c.stats().grants, 1);
        assert_eq!(c.stats().grants_with_transfer, 0);
    }

    #[test]
    fn second_acquire_queues_until_release() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        c.on_msg(t(0), S1, acquire(S1), &mut sink);
        sink.drain();
        c.on_msg(t(1), S2, acquire(S2), &mut sink);
        assert!(sends(&mut sink).is_empty(), "S2 should be queued");
        c.on_msg(t(2), S1, release(S1, 1), &mut sink);
        let msgs = sends(&mut sink);
        // S2 was never up to date and version advanced: needs data.
        assert_eq!(grant_flag(&msgs, S2), Some(VersionFlag::NeedNewVersion));
        // A transfer directive went to the last owner's daemon.
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == S1
                && matches!(m, Msg::TransferReplica { dest, .. } if *dest == S2)));
        assert_eq!(c.lock_owner(L), Some(S2));
    }

    #[test]
    fn reacquire_by_last_owner_needs_no_transfer() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        c.on_msg(t(0), S1, acquire(S1), &mut sink);
        sink.drain();
        c.on_msg(t(1), S1, release(S1, 1), &mut sink);
        sink.drain();
        c.on_msg(t(2), S1, acquire(S1), &mut sink);
        let msgs = sends(&mut sink);
        assert_eq!(grant_flag(&msgs, S1), Some(VersionFlag::VersionOk));
        assert_eq!(c.stats().grants_with_transfer, 0);
    }

    #[test]
    fn dissemination_set_counts_as_up_to_date() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        c.on_msg(t(0), S1, acquire(S1), &mut sink);
        sink.drain();
        // S1 releases having pushed to S2 (UR = 2).
        c.on_msg(
            t(1),
            S1,
            Msg::ReleaseLock {
                lock: L,
                site: S1,
                new_version: Version(1),
                disseminated_to: vec![S2],
            },
            &mut sink,
        );
        sink.drain();
        c.on_msg(t(2), S2, acquire(S2), &mut sink);
        let msgs = sends(&mut sink);
        // S2 already holds the current version: no transfer needed.
        assert_eq!(grant_flag(&msgs, S2), Some(VersionFlag::VersionOk));
        assert_eq!(c.stats().grants_with_transfer, 0);
    }

    #[test]
    fn read_only_release_keeps_version_and_freshness() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        c.on_msg(t(0), S1, acquire(S1), &mut sink);
        sink.drain();
        c.on_msg(t(1), S1, release(S1, 1), &mut sink);
        sink.drain();
        c.on_msg(t(2), S2, acquire(S2), &mut sink);
        sink.drain();
        // S2 releases without writing (same version).
        c.on_msg(t(3), S2, release(S2, 1), &mut sink);
        sink.drain();
        assert_eq!(c.lock_version(L), Some(Version(1)));
        // Now both S1 and S2 are up to date; S2 re-acquiring needs nothing.
        c.on_msg(t(4), S2, acquire(S2), &mut sink);
        let msgs = sends(&mut sink);
        assert_eq!(grant_flag(&msgs, S2), Some(VersionFlag::VersionOk));
    }

    #[test]
    fn fifo_order_among_queued_requesters() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        c.on_msg(t(0), S1, acquire(S1), &mut sink);
        sink.drain();
        c.on_msg(t(1), S2, acquire(S2), &mut sink);
        let s3 = SiteId(3);
        c.on_msg(t(2), s3, acquire(s3), &mut sink);
        sink.drain();
        c.on_msg(t(3), S1, release(S1, 1), &mut sink);
        sink.drain();
        assert_eq!(c.lock_owner(L), Some(S2));
        c.on_msg(t(4), S2, release(S2, 2), &mut sink);
        sink.drain();
        assert_eq!(c.lock_owner(L), Some(s3));
    }

    #[test]
    fn stale_release_after_break_is_ignored() {
        let cfg = MochaConfig {
            default_lease: Duration::from_millis(100),
            ..MochaConfig::default()
        };
        let mut c = SyncCoordinator::new(HOME, cfg);
        let mut sink = CmdSink::new();
        c.on_msg(t(0), S1, acquire(S1), &mut sink);
        c.on_msg(t(1), S2, acquire(S2), &mut sink);
        sink.drain();
        // Lease expires; scan suspects S1.
        c.on_timer(t(700), SCAN_TOKEN, &mut sink);
        let msgs = sends(&mut sink);
        let hb_req = msgs
            .iter()
            .find_map(|(to, m)| match m {
                Msg::Heartbeat { req, .. } if *to == S1 => Some(*req),
                _ => None,
            })
            .expect("heartbeat sent");
        // Heartbeat times out.
        let token = timer_ns::COORD | HEARTBEAT_SUB | hb_req.as_raw();
        c.on_timer(t(1600), token, &mut sink);
        let msgs = sends(&mut sink);
        assert_eq!(c.stats().locks_broken, 1);
        assert!(c.blacklist().any(|s| s == S1));
        // S2 got the lock.
        assert!(grant_flag(&msgs, S2).is_some());
        assert_eq!(c.lock_owner(L), Some(S2));
        // S1's belated release changes nothing.
        c.on_msg(t(1700), S1, release(S1, 99), &mut sink);
        assert_eq!(c.lock_owner(L), Some(S2));
        assert_ne!(c.lock_version(L), Some(Version(99)));
        // And S1 can no longer acquire.
        c.on_msg(t(1800), S1, acquire(S1), &mut sink);
        assert!(c.stats().blacklisted_requests >= 1);
    }

    #[test]
    fn heartbeat_ack_extends_lease_instead_of_breaking() {
        let cfg = MochaConfig {
            default_lease: Duration::from_millis(100),
            ..MochaConfig::default()
        };
        let mut c = SyncCoordinator::new(HOME, cfg);
        let mut sink = CmdSink::new();
        c.on_msg(t(0), S1, acquire(S1), &mut sink);
        sink.drain();
        c.on_timer(t(700), SCAN_TOKEN, &mut sink);
        let msgs = sends(&mut sink);
        let hb_req = msgs
            .iter()
            .find_map(|(_, m)| match m {
                Msg::Heartbeat { req, .. } => Some(*req),
                _ => None,
            })
            .expect("heartbeat sent");
        // Owner answers in time.
        c.on_msg(
            t(750),
            S1,
            Msg::HeartbeatAck {
                site: S1,
                req: hb_req,
                holding: true,
            },
            &mut sink,
        );
        sink.drain();
        // The (now stale) heartbeat timer fires but must not break.
        let token = timer_ns::COORD | HEARTBEAT_SUB | hb_req.as_raw();
        c.on_timer(t(1600), token, &mut sink);
        assert_eq!(c.stats().locks_broken, 0);
        assert_eq!(c.lock_owner(L), Some(S1));
    }

    #[test]
    fn transfer_source_failure_starts_recovery_and_polls() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        // Register three members so there is someone to poll.
        for (s, r) in [(S1, 1u32), (S2, 1), (HOME, 1)] {
            c.on_msg(
                t(0),
                s,
                Msg::RegisterReplica {
                    lock: L,
                    replica: ReplicaId(r),
                    site: s,
                    name: "x".into(),
                },
                &mut sink,
            );
        }
        sink.drain();
        c.on_msg(t(1), S1, acquire(S1), &mut sink);
        sink.drain();
        c.on_msg(t(2), S1, release(S1, 1), &mut sink);
        sink.drain();
        c.on_msg(t(3), S2, acquire(S2), &mut sink);
        sink.drain();
        // The directive to S1 fails (S1 died).
        let tag = SendTag::TransferDirective {
            lock: L,
            from: S1,
            dest: S2,
            req: RequestId(1),
        };
        c.on_send_failed(t(4), &tag, &mut sink);
        let msgs = sends(&mut sink);
        let polls: Vec<SiteId> = msgs
            .iter()
            .filter_map(|(to, m)| match m {
                Msg::PollVersion { .. } => Some(*to),
                _ => None,
            })
            .collect();
        // S1 was removed from membership; remaining members are polled.
        assert!(!polls.contains(&S1));
        assert!(polls.contains(&S2) && polls.contains(&HOME));
        assert_eq!(c.stats().recoveries, 1);
    }

    #[test]
    fn recovery_forwards_freshest_surviving_version() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        for s in [HOME, S1, S2] {
            c.on_msg(
                t(0),
                s,
                Msg::RegisterReplica {
                    lock: L,
                    replica: ReplicaId(1),
                    site: s,
                    name: "x".into(),
                },
                &mut sink,
            );
        }
        c.on_msg(t(1), S1, acquire(S1), &mut sink);
        sink.drain();
        c.on_msg(t(2), S1, release(S1, 5), &mut sink);
        sink.drain();
        c.on_msg(t(3), S2, acquire(S2), &mut sink);
        sink.drain();
        c.on_send_failed(
            t(4),
            &SendTag::TransferDirective {
                lock: L,
                from: S1,
                dest: S2,
                req: RequestId(1),
            },
            &mut sink,
        );
        // Find the poll request id.
        let msgs = sends(&mut sink);
        let poll_req = msgs
            .iter()
            .find_map(|(_, m)| match m {
                Msg::PollVersion { req, .. } => Some(*req),
                _ => None,
            })
            .expect("polls sent");
        // HOME answers with version 3 (older than the lost 5), S2 with 0.
        c.on_msg(
            t(5),
            HOME,
            Msg::PollResponse {
                lock: L,
                version: Version(3),
                site: HOME,
                req: poll_req,
            },
            &mut sink,
        );
        sink.drain();
        c.on_msg(
            t(6),
            S2,
            Msg::PollResponse {
                lock: L,
                version: Version(0),
                site: S2,
                req: poll_req,
            },
            &mut sink,
        );
        let msgs = sends(&mut sink);
        // The freshest available (HOME at v3) is told to transfer to S2.
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == HOME
                && matches!(m, Msg::TransferReplica { dest, .. } if *dest == S2)));
        assert_eq!(c.stats().stale_recoveries, 1);
        // The adopted version is the surviving one.
        assert_eq!(c.lock_version(L), Some(Version(3)));
    }

    #[test]
    fn recovery_with_no_copies_unblocks_dest_with_empty_data() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        for s in [S1, S2] {
            c.on_msg(
                t(0),
                s,
                Msg::RegisterReplica {
                    lock: L,
                    replica: ReplicaId(1),
                    site: s,
                    name: "x".into(),
                },
                &mut sink,
            );
        }
        c.on_msg(t(1), S1, acquire(S1), &mut sink);
        sink.drain();
        c.on_msg(t(2), S1, release(S1, 5), &mut sink);
        sink.drain();
        c.on_msg(t(3), S2, acquire(S2), &mut sink);
        sink.drain();
        c.on_send_failed(
            t(4),
            &SendTag::TransferDirective {
                lock: L,
                from: S1,
                dest: S2,
                req: RequestId(1),
            },
            &mut sink,
        );
        sink.drain();
        // Recovery window expires with no responses.
        let token = timer_ns::COORD | RECOVERY_SUB | u64::from(L.as_raw());
        c.on_timer(t(500), token, &mut sink);
        let msgs = sends(&mut sink);
        assert!(msgs.iter().any(|(to, m)| *to == S2
            && matches!(m, Msg::ReplicaData { updates, .. } if updates.is_empty())));
    }

    #[test]
    fn registration_propagates_membership_both_ways() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        c.on_msg(
            t(0),
            S1,
            Msg::RegisterReplica {
                lock: L,
                replica: ReplicaId(7),
                site: S1,
                name: "idx".into(),
            },
            &mut sink,
        );
        assert!(sends(&mut sink).is_empty(), "first member: nobody to tell");
        c.on_msg(
            t(1),
            S2,
            Msg::RegisterReplica {
                lock: L,
                replica: ReplicaId(7),
                site: S2,
                name: "idx".into(),
            },
            &mut sink,
        );
        let msgs = sends(&mut sink);
        // S1 learns about S2 and vice versa.
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == S1
                && matches!(m, Msg::RegisterReplica { site, .. } if *site == S2)));
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == S2
                && matches!(m, Msg::RegisterReplica { site, .. } if *site == S1)));
        assert_eq!(c.lock_members(L), vec![S1, S2]);
    }

    #[test]
    fn lease_hint_overrides_default() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        c.on_msg(
            t(0),
            S1,
            Msg::AcquireLock {
                lock: L,
                site: S1,
                thread: T0,
                lease_hint_ms: 50,
                mode: LockMode::Exclusive,
            },
            &mut sink,
        );
        sink.drain();
        // At t=100 the 50 ms lease has expired; scan should suspect.
        c.on_timer(t(100), SCAN_TOKEN, &mut sink);
        let msgs = sends(&mut sink);
        assert!(msgs.iter().any(|(_, m)| matches!(m, Msg::Heartbeat { .. })));
    }

    #[test]
    fn shared_grants_batch_and_block_exclusive() {
        let mut c = coord();
        let mut sink = CmdSink::new();
        // Two shared holders granted concurrently.
        c.on_msg(t(0), S1, acquire_shared(S1), &mut sink);
        c.on_msg(t(1), S2, acquire_shared(S2), &mut sink);
        let grants = sends(&mut sink)
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Grant { .. }))
            .count();
        assert_eq!(grants, 2, "both shared requests granted immediately");
        assert_eq!(c.lock_holders(L).len(), 2);
        // An exclusive request queues behind them.
        let s3 = SiteId(3);
        c.on_msg(t(2), s3, acquire(s3), &mut sink);
        assert!(sends(&mut sink).is_empty());
        // Releases by both shared holders free it for the exclusive.
        c.on_msg(t(3), S1, release(S1, 0), &mut sink);
        assert!(sends(&mut sink).is_empty(), "one shared holder remains");
        c.on_msg(t(4), S2, release(S2, 0), &mut sink);
        let msgs = sends(&mut sink);
        assert!(grant_flag(&msgs, s3).is_some(), "exclusive granted last");
        assert_eq!(c.lock_holders(L), vec![s3]);
    }

    #[test]
    fn acquire_from_holding_site_with_other_thread_queues() {
        // Regression: a *different* thread at the holding site must queue,
        // not receive a duplicate grant (which would break mutual
        // exclusion). Only the exact (site, thread) holder is re-granted.
        let mut c = coord();
        let mut sink = CmdSink::new();
        c.on_msg(t(0), S1, acquire(S1), &mut sink); // thread T0 holds
        sink.drain();
        c.on_msg(
            t(1),
            S1,
            Msg::AcquireLock {
                lock: L,
                site: S1,
                thread: ThreadId(1), // different thread, same site
                lease_hint_ms: 0,
                mode: LockMode::Exclusive,
            },
            &mut sink,
        );
        assert!(sends(&mut sink).is_empty(), "must queue, not grant");
        assert_eq!(c.lock_holders(L), vec![S1]);
        // The exact holder re-asking (lost grant after takeover) IS
        // re-granted.
        c.on_msg(t(2), S1, acquire(S1), &mut sink); // same (S1, T0)
        let msgs = sends(&mut sink);
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == S1 && matches!(m, Msg::Grant { .. })));
        // Still exactly one holder.
        assert_eq!(c.lock_holders(L), vec![S1]);
    }

    /// Delivers SYNC-port sends between the given coordinators until the
    /// cluster quiesces, collecting every other send as `(to, msg)` for
    /// inspection. Version polls addressed to member daemons are answered
    /// by a stand-in holding nothing (`Version::INITIAL`), so rebuild and
    /// recovery polls conclude instead of stalling the pump.
    fn pump(
        coords: &mut [SyncCoordinator],
        sinks: &mut [CmdSink],
        now: SimTime,
        observed: &mut Vec<(SiteId, Msg)>,
    ) {
        loop {
            let mut queue: Vec<(usize, SiteId, Msg)> = Vec::new();
            for i in 0..coords.len() {
                let from = coords[i].home();
                for cmd in sinks[i].drain() {
                    if let Cmd::Send { to, port, msg, .. } = cmd {
                        if port == ports::SYNC {
                            if let Some(j) = coords.iter().position(|c| c.home() == to) {
                                queue.push((j, from, msg));
                                continue;
                            }
                        }
                        if port == ports::DAEMON {
                            if let Msg::PollVersion { lock, req } = msg {
                                queue.push((
                                    i,
                                    to,
                                    Msg::PollResponse {
                                        lock,
                                        version: Version::INITIAL,
                                        site: to,
                                        req,
                                    },
                                ));
                                continue;
                            }
                        }
                        observed.push((to, msg));
                    }
                }
            }
            if queue.is_empty() {
                break;
            }
            for (j, from, msg) in queue {
                coords[j].on_msg(now, from, msg, &mut sinks[j]);
            }
        }
    }

    fn hash_cfg(threshold: u32) -> MochaConfig {
        let mut cfg = MochaConfig::default();
        cfg.home.hash_directory = true;
        cfg.home.migration = threshold > 0;
        if threshold > 0 {
            cfg.home.migrate_threshold = threshold;
        }
        cfg
    }

    fn hash_pair(threshold: u32) -> (Vec<SyncCoordinator>, Vec<CmdSink>, usize, usize) {
        let cfg = hash_cfg(threshold);
        let sites = [SiteId(0), SiteId(1)];
        let coords: Vec<SyncCoordinator> = sites
            .iter()
            .map(|s| SyncCoordinator::with_directory(*s, cfg, &sites))
            .collect();
        let sinks = vec![CmdSink::new(), CmdSink::new()];
        let home = coords[0].directory().unwrap().home_of(L).unwrap();
        let home_idx = home.0 as usize;
        (coords, sinks, home_idx, 1 - home_idx)
    }

    #[test]
    fn foreign_acquire_redirects_and_forwards() {
        let (mut coords, mut sinks, home_idx, other_idx) = hash_pair(0);
        let requester = SiteId(other_idx as u32); // any site works as sender
        // The acquire lands at the WRONG coordinator: it must NACK the
        // sender's stale directory entry and forward, and the true home
        // must still grant — correctness independent of directory
        // freshness.
        coords[other_idx].on_msg(t(0), requester, acquire(requester), &mut sinks[other_idx]);
        let mut observed = Vec::new();
        pump(&mut coords, &mut sinks, t(0), &mut observed);
        assert_eq!(coords[other_idx].stats().stale_home_redirects, 1);
        let home = coords[0].directory().unwrap().home_of(L).unwrap();
        assert!(observed.iter().any(|(to, m)| *to == requester
            && matches!(m, Msg::StaleHome { lock, home: h, .. } if *lock == L && *h == home)));
        assert!(observed
            .iter()
            .any(|(to, m)| *to == requester && matches!(m, Msg::Grant { .. })));
        assert_eq!(coords[home_idx].lock_owner(L), Some(requester));
        assert!(coords[other_idx].known_locks().is_empty());
    }

    #[test]
    fn hot_lock_migrates_to_dominating_site() {
        let (mut coords, mut sinks, home_idx, hot_idx) = hash_pair(2);
        let hot = SiteId(hot_idx as u32);
        let mut observed = Vec::new();
        // The remote site hammers the lock; every message is addressed to
        // the ORIGINAL home, exercising the post-fence redirect path too.
        for v in 1..=4u64 {
            coords[home_idx].on_msg(t(v), hot, acquire(hot), &mut sinks[home_idx]);
            pump(&mut coords, &mut sinks, t(v), &mut observed);
            coords[home_idx].on_msg(t(v), hot, release(hot, v), &mut sinks[home_idx]);
            pump(&mut coords, &mut sinks, t(v), &mut observed);
        }
        // The home role moved to the hot site, exactly once.
        assert_eq!(coords[home_idx].stats().migrations, 1);
        assert!(coords[home_idx].known_locks().is_empty());
        assert_eq!(coords[hot_idx].known_locks(), vec![L]);
        for c in &coords {
            assert_eq!(c.directory().unwrap().home_of(L), Some(hot));
            assert_eq!(c.directory().unwrap().epoch_of(L), 1);
        }
        // Post-fence traffic to the old home was redirected, not lost:
        // every acquire produced a grant.
        assert!(coords[home_idx].stats().stale_home_redirects >= 1);
        let grants = observed
            .iter()
            .filter(|(to, m)| *to == hot && matches!(m, Msg::Grant { .. }))
            .count();
        assert_eq!(grants, 4);
        // The migrated state carried versions across: the new home knows
        // the last committed version.
        assert_eq!(coords[hot_idx].lock_version(L), Some(Version(4)));
    }

    #[test]
    fn migration_waits_until_lock_is_free() {
        let (mut coords, mut sinks, home_idx, hot_idx) = hash_pair(2);
        let hot = SiteId(hot_idx as u32);
        let mut observed = Vec::new();
        // Build dominance but keep the lock held: re-acquires by the exact
        // holder re-grant without a release.
        coords[home_idx].on_msg(t(0), hot, acquire(hot), &mut sinks[home_idx]);
        pump(&mut coords, &mut sinks, t(0), &mut observed);
        for v in 1..=4u64 {
            coords[home_idx].on_msg(t(v), hot, acquire(hot), &mut sinks[home_idx]);
            pump(&mut coords, &mut sinks, t(v), &mut observed);
        }
        // Held throughout: no migration can have committed.
        assert_eq!(coords[home_idx].stats().migrations, 0);
        assert_eq!(coords[home_idx].lock_owner(L), Some(hot));
        // The release frees the lock and the pending dominance lands it.
        coords[home_idx].on_msg(t(9), hot, release(hot, 1), &mut sinks[home_idx]);
        pump(&mut coords, &mut sinks, t(9), &mut observed);
        assert_eq!(coords[home_idx].stats().migrations, 1);
        assert_eq!(coords[hot_idx].known_locks(), vec![L]);
    }

    #[test]
    fn failed_commit_send_reinstates_retired_lock() {
        let (mut coords, mut sinks, home_idx, hot_idx) = hash_pair(2);
        let hot = SiteId(hot_idx as u32);
        let home = SiteId(home_idx as u32);
        let mut observed = Vec::new();
        coords[home_idx].on_msg(t(1), hot, acquire(hot), &mut sinks[home_idx]);
        pump(&mut coords, &mut sinks, t(1), &mut observed);
        coords[home_idx].on_msg(t(1), hot, release(hot, 1), &mut sinks[home_idx]);
        pump(&mut coords, &mut sinks, t(1), &mut observed);
        coords[home_idx].on_msg(t(2), hot, acquire(hot), &mut sinks[home_idx]);
        pump(&mut coords, &mut sinks, t(2), &mut observed);
        // The second release crosses the threshold: step the handshake by
        // hand so the commit can be failed before delivery.
        coords[home_idx].on_msg(t(2), hot, release(hot, 2), &mut sinks[home_idx]);
        let offer = sinks[home_idx]
            .drain()
            .into_iter()
            .find_map(|c| match c {
                Cmd::Send {
                    msg: m @ Msg::MigrateOffer { .. },
                    ..
                } => Some(m),
                _ => None,
            })
            .expect("offer sent");
        coords[hot_idx].on_msg(t(2), home, offer, &mut sinks[hot_idx]);
        let accept = sinks[hot_idx]
            .drain()
            .into_iter()
            .find_map(|c| match c {
                Cmd::Send {
                    msg: m @ Msg::MigrateAccept { .. },
                    ..
                } => Some(m),
                _ => None,
            })
            .expect("accept sent");
        coords[home_idx].on_msg(t(2), hot, accept, &mut sinks[home_idx]);
        // The fence is down: the lock is retired at the old home...
        assert!(coords[home_idx].known_locks().is_empty());
        // ...but the commit send fails — the new home just died.
        let tag = sinks[home_idx]
            .drain()
            .into_iter()
            .find_map(|c| match c {
                Cmd::Send {
                    tag,
                    msg: Msg::MigrateCommit { .. },
                    ..
                } => Some(tag),
                _ => None,
            })
            .expect("commit sent");
        coords[home_idx].on_send_failed(t(3), &tag, &mut sinks[home_idx]);
        sinks[home_idx].drain();
        // The lock is back home and serves again, under a fresher epoch so
        // the failed fence can never win.
        assert_eq!(coords[home_idx].known_locks(), vec![L]);
        assert_eq!(coords[home_idx].directory().unwrap().home_of(L), Some(home));
        assert_eq!(coords[home_idx].directory().unwrap().epoch_of(L), 2);
        coords[home_idx].on_msg(t(20), home, acquire(home), &mut sinks[home_idx]);
        let msgs = sends(&mut sinks[home_idx]);
        assert!(grant_flag(&msgs, home).is_some());
    }

    /// Drives heat past the migration threshold and steps the handshake by
    /// hand, stopping just after the commit send: the old home has retired
    /// the lock, the new home has only seen (and accepted) the offer.
    /// Returns the captured offer and commit messages plus the commit's
    /// send tag, so tests can replay, lose, or fail them at will.
    fn handshake_to_commit(
        coords: &mut [SyncCoordinator],
        sinks: &mut [CmdSink],
        home_idx: usize,
        hot_idx: usize,
    ) -> (Msg, Msg, SendTag) {
        let hot = SiteId(hot_idx as u32);
        let home = SiteId(home_idx as u32);
        let mut observed = Vec::new();
        coords[home_idx].on_msg(t(1), hot, acquire(hot), &mut sinks[home_idx]);
        pump(coords, sinks, t(1), &mut observed);
        coords[home_idx].on_msg(t(1), hot, release(hot, 1), &mut sinks[home_idx]);
        pump(coords, sinks, t(1), &mut observed);
        coords[home_idx].on_msg(t(2), hot, acquire(hot), &mut sinks[home_idx]);
        pump(coords, sinks, t(2), &mut observed);
        // The second release crosses the threshold and produces the offer.
        coords[home_idx].on_msg(t(2), hot, release(hot, 2), &mut sinks[home_idx]);
        let offer = sinks[home_idx]
            .drain()
            .into_iter()
            .find_map(|c| match c {
                Cmd::Send {
                    msg: m @ Msg::MigrateOffer { .. },
                    ..
                } => Some(m),
                _ => None,
            })
            .expect("offer sent");
        coords[hot_idx].on_msg(t(2), home, offer.clone(), &mut sinks[hot_idx]);
        let accept = sinks[hot_idx]
            .drain()
            .into_iter()
            .find_map(|c| match c {
                Cmd::Send {
                    msg: m @ Msg::MigrateAccept { .. },
                    ..
                } => Some(m),
                _ => None,
            })
            .expect("accept sent");
        coords[home_idx].on_msg(t(2), hot, accept, &mut sinks[home_idx]);
        let (commit, tag) = sinks[home_idx]
            .drain()
            .into_iter()
            .find_map(|c| match c {
                Cmd::Send {
                    msg: m @ Msg::MigrateCommit { .. },
                    tag,
                    ..
                } => Some((m, tag)),
                _ => None,
            })
            .expect("commit sent");
        (offer, commit, tag)
    }

    #[test]
    fn ring_growth_pins_installed_locks() {
        // One-site ring: this coordinator homes every lock and holds live
        // state for L once the first acquire is granted.
        let cfg = hash_cfg(0);
        let shards = cfg.home.virtual_shards;
        let mut coords = vec![SyncCoordinator::with_directory(HOME, cfg, &[HOME])];
        let mut sinks = vec![CmdSink::new()];
        let mut observed = Vec::new();
        coords[0].on_msg(t(0), S1, acquire(S1), &mut sinks[0]);
        pump(&mut coords, &mut sinks, t(0), &mut observed);
        assert!(observed
            .iter()
            .any(|(to, m)| *to == S1 && matches!(m, Msg::Grant { .. })));
        // Pick a joiner the bare ring would hand L to: without the pin,
        // the stateless newcomer would become L's home while this
        // coordinator still serves the granted holder — a split home.
        let joiner = (2..=64)
            .map(SiteId)
            .find(|&s| Directory::new(&[HOME, s], shards).home_of(L) == Some(s))
            .expect("some joiner claims L on the bare ring");
        coords[0].add_ring_site(joiner, &mut sinks[0]);
        let msgs = sends(&mut sinks[0]);
        assert_eq!(coords[0].directory().unwrap().home_of(L), Some(HOME));
        // The pin is gossiped so the joiner's directory agrees.
        assert!(msgs.iter().any(|(to, m)| *to == joiner
            && matches!(m, Msg::HomeUpdate { lock, home, .. } if *lock == L && *home == HOME)));
        // The old home still serves: release + re-acquire flow straight
        // through with no redirect.
        coords[0].on_msg(t(1), S1, release(S1, 1), &mut sinks[0]);
        sinks[0].drain();
        coords[0].on_msg(t(2), S1, acquire(S1), &mut sinks[0]);
        let msgs = sends(&mut sinks[0]);
        assert!(grant_flag(&msgs, S1).is_some());
        assert_eq!(coords[0].stats().stale_home_redirects, 0);
    }

    #[test]
    fn rebuild_poll_adopts_survivor_version() {
        // Single-site ring standing in for the survivor that inherits a
        // dead home's locks: it has no coordinator state for L.
        let mut c = SyncCoordinator::with_directory(HOME, hash_cfg(0), &[HOME]);
        let mut sink = CmdSink::new();
        // A member daemon re-announces its durable version on ring churn.
        c.on_msg(
            t(0),
            S1,
            Msg::SiteRecovered {
                site: S1,
                versions: vec![(L, Version(3))],
            },
            &mut sink,
        );
        sink.drain();
        // The first acquire must NOT be granted VersionOk at INITIAL — it
        // queues behind a member poll.
        c.on_msg(t(1), S2, acquire(S2), &mut sink);
        let msgs = sends(&mut sink);
        assert!(
            grant_flag(&msgs, S2).is_none(),
            "grant deferred behind the rebuild poll"
        );
        let req = msgs
            .iter()
            .find_map(|(_, m)| match m {
                Msg::PollVersion { lock, req } if *lock == L => Some(*req),
                _ => None,
            })
            .expect("rebuild poll sent");
        // Poll answers: S1 still holds version 3, S2 holds nothing.
        c.on_msg(
            t(2),
            S1,
            Msg::PollResponse {
                lock: L,
                version: Version(3),
                site: S1,
                req,
            },
            &mut sink,
        );
        c.on_msg(
            t(2),
            S2,
            Msg::PollResponse {
                lock: L,
                version: Version::INITIAL,
                site: S2,
                req,
            },
            &mut sink,
        );
        let msgs = sends(&mut sink);
        // The grant adopts the freshest surviving version and orders a
        // transfer: the stale requester is never told it is current.
        assert_eq!(grant_flag(&msgs, S2), Some(VersionFlag::NeedNewVersion));
        assert!(msgs.iter().any(|(_, m)| matches!(
            m,
            Msg::Grant { lock, version, .. } if *lock == L && *version == Version(3)
        )));
        assert_eq!(c.lock_version(L), Some(Version(3)));
    }

    #[test]
    fn stranded_migration_buffer_drains_on_timeout() {
        let (mut coords, mut sinks, home_idx, hot_idx) = hash_pair(2);
        let hot = SiteId(hot_idx as u32);
        let home = SiteId(home_idx as u32);
        let mut observed = Vec::new();
        // Build dominance so the second release produces an offer.
        coords[home_idx].on_msg(t(1), hot, acquire(hot), &mut sinks[home_idx]);
        pump(&mut coords, &mut sinks, t(1), &mut observed);
        coords[home_idx].on_msg(t(1), hot, release(hot, 1), &mut sinks[home_idx]);
        pump(&mut coords, &mut sinks, t(1), &mut observed);
        coords[home_idx].on_msg(t(2), hot, acquire(hot), &mut sinks[home_idx]);
        pump(&mut coords, &mut sinks, t(2), &mut observed);
        coords[home_idx].on_msg(t(2), hot, release(hot, 2), &mut sinks[home_idx]);
        let offer = sinks[home_idx]
            .drain()
            .into_iter()
            .find_map(|c| match c {
                Cmd::Send {
                    msg: m @ Msg::MigrateOffer { .. },
                    ..
                } => Some(m),
                _ => None,
            })
            .expect("offer sent");
        // The offer arrives, the accept is LOST, and the offerer never
        // commits: traffic addressed to the proposed new home buffers.
        coords[hot_idx].on_msg(t(2), home, offer, &mut sinks[hot_idx]);
        sinks[hot_idx].drain(); // the accept dies on the wire
        coords[hot_idx].on_msg(t(3), S2, acquire(S2), &mut sinks[hot_idx]);
        assert!(
            sends(&mut sinks[hot_idx]).is_empty(),
            "handshake in flight: the acquire is buffered, not answered"
        );
        // The buffering window expires: the held acquire is re-processed
        // and redirects to the (still-authoritative) old home, which
        // grants — the lock is never permanently swallowed.
        let fired = coords[hot_idx].on_timer(
            t(10),
            timer_ns::COORD | MIGRATE_SUB | u64::from(L.as_raw()),
            &mut sinks[hot_idx],
        );
        assert!(fired);
        observed.clear();
        pump(&mut coords, &mut sinks, t(10), &mut observed);
        assert!(observed.iter().any(|(to, m)| *to == S2
            && matches!(m, Msg::StaleHome { lock, home: h, .. } if *lock == L && *h == home)));
        assert!(observed
            .iter()
            .any(|(to, m)| *to == S2 && matches!(m, Msg::Grant { .. })));
    }

    #[test]
    fn replayed_handshake_messages_are_fenced() {
        let (mut coords, mut sinks, home_idx, hot_idx) = hash_pair(2);
        let hot = SiteId(hot_idx as u32);
        let home = SiteId(home_idx as u32);
        let mut observed = Vec::new();
        let (offer, commit, _tag) =
            handshake_to_commit(&mut coords, &mut sinks, home_idx, hot_idx);
        // The commit lands and the migration completes normally.
        coords[hot_idx].on_msg(t(3), home, commit.clone(), &mut sinks[hot_idx]);
        pump(&mut coords, &mut sinks, t(3), &mut observed);
        assert_eq!(coords[hot_idx].known_locks(), vec![L]);
        assert_eq!(coords[hot_idx].lock_version(L), Some(Version(2)));
        // The new home serves on: the version advances past the commit's
        // snapshot.
        coords[hot_idx].on_msg(t(4), hot, acquire(hot), &mut sinks[hot_idx]);
        pump(&mut coords, &mut sinks, t(4), &mut observed);
        coords[hot_idx].on_msg(t(4), hot, release(hot, 3), &mut sinks[hot_idx]);
        pump(&mut coords, &mut sinks, t(4), &mut observed);
        assert_eq!(coords[hot_idx].lock_version(L), Some(Version(3)));
        // A duplicate of the already-applied commit arrives late: it must
        // not roll the installed state back to the fence-point snapshot.
        coords[hot_idx].on_msg(t(5), home, commit, &mut sinks[hot_idx]);
        let msgs = sends(&mut sinks[hot_idx]);
        assert_eq!(coords[hot_idx].lock_version(L), Some(Version(3)));
        assert!(msgs.iter().any(|(to, m)| *to == home
            && matches!(m, Msg::HomeUpdate { lock, home: h, epoch } if *lock == L && *h == hot && *epoch == 1)));
        // A replayed offer for the installed lock must not start buffering
        // live traffic either: it is answered with the authoritative
        // placement and the lock keeps serving.
        coords[hot_idx].on_msg(t(6), home, offer, &mut sinks[hot_idx]);
        let msgs = sends(&mut sinks[hot_idx]);
        assert!(msgs
            .iter()
            .all(|(_, m)| !matches!(m, Msg::MigrateAccept { .. })));
        assert!(msgs.iter().any(|(to, m)| *to == home
            && matches!(m, Msg::HomeUpdate { lock, home: h, epoch } if *lock == L && *h == hot && *epoch == 1)));
        coords[hot_idx].on_msg(t(7), hot, acquire(hot), &mut sinks[hot_idx]);
        let msgs = sends(&mut sinks[hot_idx]);
        assert!(
            grant_flag(&msgs, hot).is_some(),
            "acquire after the replayed offer is served, not buffered"
        );
    }

    #[test]
    fn stale_home_update_keeps_retired_fallback() {
        let (mut coords, mut sinks, home_idx, hot_idx) = hash_pair(2);
        let hot = SiteId(hot_idx as u32);
        let home = SiteId(home_idx as u32);
        let (_offer, _commit, tag) =
            handshake_to_commit(&mut coords, &mut sinks, home_idx, hot_idx);
        // The fence is down: the lock is retired at the old home.
        assert!(coords[home_idx].known_locks().is_empty());
        // A reordered HomeUpdate from an EARLIER migration attempt (epoch 0
        // predates the fence) arrives while the commit is in flight: it
        // must not discard the fallback kept against commit-send failure.
        coords[home_idx].on_msg(
            t(3),
            hot,
            Msg::HomeUpdate {
                lock: L,
                home: hot,
                epoch: 0,
            },
            &mut sinks[home_idx],
        );
        sinks[home_idx].drain();
        // The commit send then fails — only the retained fallback can
        // bring the lock back.
        coords[home_idx].on_send_failed(t(4), &tag, &mut sinks[home_idx]);
        sinks[home_idx].drain();
        assert_eq!(coords[home_idx].known_locks(), vec![L]);
        assert_eq!(coords[home_idx].directory().unwrap().home_of(L), Some(home));
        assert_eq!(coords[home_idx].directory().unwrap().epoch_of(L), 2);
    }

    #[test]
    fn offerer_departure_releases_buffered_traffic() {
        let (mut coords, mut sinks, home_idx, hot_idx) = hash_pair(2);
        let hot = SiteId(hot_idx as u32);
        let home = SiteId(home_idx as u32);
        let mut observed = Vec::new();
        // Same stranded handshake as the timeout test, but this time the
        // offerer dies before committing.
        coords[home_idx].on_msg(t(1), hot, acquire(hot), &mut sinks[home_idx]);
        pump(&mut coords, &mut sinks, t(1), &mut observed);
        coords[home_idx].on_msg(t(1), hot, release(hot, 1), &mut sinks[home_idx]);
        pump(&mut coords, &mut sinks, t(1), &mut observed);
        coords[home_idx].on_msg(t(2), hot, acquire(hot), &mut sinks[home_idx]);
        pump(&mut coords, &mut sinks, t(2), &mut observed);
        coords[home_idx].on_msg(t(2), hot, release(hot, 2), &mut sinks[home_idx]);
        let offer = sinks[home_idx]
            .drain()
            .into_iter()
            .find_map(|c| match c {
                Cmd::Send {
                    msg: m @ Msg::MigrateOffer { .. },
                    ..
                } => Some(m),
                _ => None,
            })
            .expect("offer sent");
        coords[hot_idx].on_msg(t(2), home, offer, &mut sinks[hot_idx]);
        sinks[hot_idx].drain();
        coords[hot_idx].on_msg(t(3), S2, acquire(S2), &mut sinks[hot_idx]);
        assert!(sends(&mut sinks[hot_idx]).is_empty(), "buffered");
        // The offerer leaves the ring: the commit can never arrive. The
        // buffer must drain immediately — and with the old home gone the
        // surviving coordinator now IS the ring home, so it rebuilds and
        // grants itself.
        coords[hot_idx].remove_ring_site(home, t(4), &mut sinks[hot_idx]);
        let mut survivors = [coords.swap_remove(hot_idx)];
        let mut survivor_sinks = [sinks.swap_remove(hot_idx)];
        observed.clear();
        pump(&mut survivors, &mut survivor_sinks, t(4), &mut observed);
        assert!(
            observed
                .iter()
                .any(|(to, m)| *to == S2 && matches!(m, Msg::Grant { .. })),
            "buffered acquire was re-processed and granted: {observed:?}"
        );
        assert_eq!(survivors[0].lock_owner(L), Some(S2));
    }

    #[test]
    fn break_disabled_never_probes() {
        let cfg = MochaConfig {
            break_locks: false,
            default_lease: Duration::from_millis(10),
            ..MochaConfig::default()
        };
        let mut c = SyncCoordinator::new(HOME, cfg);
        let mut sink = CmdSink::new();
        c.on_msg(t(0), S1, acquire(S1), &mut sink);
        // No scan timer should have been armed.
        let timers = sink
            .drain()
            .iter()
            .filter(|c| matches!(c, Cmd::SetTimer { .. }))
            .count();
        assert_eq!(timers, 0);
    }
}
