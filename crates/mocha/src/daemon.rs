//! The per-site daemon thread (paper §3 Figure 6, plus §4 dissemination).
//!
//! Every site runs one daemon. It has direct access to the site's shared
//! replica objects, which lets it:
//!
//! * serve `TRANSFERREPLICA` directives by marshaling the replicas
//!   associated with a lock and sending them straight to the requesting
//!   site (daemon-to-daemon, never through the coordinator);
//! * apply arriving replica data and pushed updates directly;
//! * answer the coordinator's failure-handling polls (`PollVersion`) and
//!   heartbeats;
//! * perform push-based dissemination at release time when `UR > 1`,
//!   choosing replacement targets when a push times out.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use mocha_net::{ports, MsgClass};
use mocha_sim::{SimTime, Work};
use mocha_store::{EditScript, RecoveredState};
use mocha_wire::codec::CodecKind;
use mocha_wire::delta::PayloadDelta;
use mocha_wire::message::{ReplicaDeltaUpdate, ReplicaUpdate};
use mocha_wire::{LockId, Msg, ReplicaId, ReplicaPayload, RequestId, SiteId, Version};

use crate::cmd::{CmdSink, SendTag, Signal};
use crate::config::{FaultPlan, PushConfig};
use crate::directory::Directory;
use crate::error::MochaError;
use crate::replica::ReplicaSpec;

/// A dissemination task: one release's pushes.
///
/// By default pushes are **sequential and synchronous**: the daemon sends
/// to one target, waits for its `PushAck`, then moves to the next. This
/// matches the simple reliable-send loop of the paper's implementation and
/// is what makes the cost of keeping `UR` copies up to date scale linearly
/// in `UR` ("the overhead for consistency maintenance approximately
/// doubles" when UR goes from 1 to 2 — §5, Figure 12). With
/// [`PushConfig::pipeline`] the same task instead keeps **every** remaining
/// target in flight at once, so release latency is one RTT rather than
/// `UR × RTT`; per-target timeout/replacement semantics are identical in
/// both modes.
#[derive(Debug)]
struct PushTask {
    lock: LockId,
    version: Version,
    /// The values of this release, marshaled once (payloads Arc-shared
    /// with the store): every target receives the same snapshot even if
    /// the store advances mid-window.
    updates: Vec<ReplicaUpdate>,
    /// Targets awaiting acknowledgement (at most one unless pipelining).
    inflight: BTreeSet<SiteId>,
    /// Targets not yet pushed to, in order.
    remaining: VecDeque<SiteId>,
    /// Every site tried so far (successful or not), to avoid retrying the
    /// same dead target.
    tried: BTreeSet<SiteId>,
    /// Targets that acknowledged.
    acked: Vec<SiteId>,
}

/// The most recent edit script a release produced: turns the lock's
/// previous disseminated version into the current one. Push targets and
/// transfer destinations whose last-acked version equals `base` receive
/// this instead of the full payload.
#[derive(Debug)]
struct LockDelta {
    /// Version the scripts apply against.
    base: Version,
    /// Version the scripts produce.
    version: Version,
    /// Per-replica edit scripts.
    scripts: Vec<ReplicaDeltaUpdate>,
    /// Approximate wire size of the scripts.
    cost_bytes: usize,
    /// Wire size of the equivalent full payloads.
    full_bytes: usize,
}

/// Statistics the daemon accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Transfer directives served.
    pub transfers_served: u64,
    /// Replica data messages applied.
    pub updates_applied: u64,
    /// Stale (older-version) data messages discarded.
    pub stale_updates_discarded: u64,
    /// Pushes sent (including replacements and delta pushes).
    pub pushes_sent: u64,
    /// Push targets replaced after timeout.
    pub push_replacements: u64,
    /// Version polls answered.
    pub polls_answered: u64,
    /// Pushes and transfers sent as edit scripts instead of full payloads.
    pub delta_pushes_sent: u64,
    /// Payload bytes avoided by sending edit scripts (full size minus
    /// script size, summed over every delta send).
    pub delta_bytes_saved: u64,
    /// Delta sends refused by the receiver (stale base or failed apply),
    /// each answered with a full-payload resend.
    pub delta_nacks: u64,
    /// Replica payload bytes actually put on the wire by pushes and
    /// transfers (full sends count payload size, delta sends script size).
    pub replica_bytes_sent: u64,
    /// `StaleHome` redirects received: how often this site addressed a
    /// coordinator that had handed the lock off (directory mode only).
    pub home_corrections: u64,
}

/// The daemon thread's state machine.
#[derive(Debug)]
pub struct SiteDaemon {
    me: SiteId,
    home: SiteId,
    codec: CodecKind,
    /// Replica values, directly accessible (the paper registers shared
    /// objects with the local daemon). Payloads are Arc-shared with
    /// in-flight pushes and the delta shadow so dissemination never copies
    /// bytes.
    store: HashMap<ReplicaId, Arc<ReplicaPayload>>,
    names: HashMap<ReplicaId, String>,
    /// Replicas guarded by each lock.
    lock_replicas: HashMap<LockId, BTreeSet<ReplicaId>>,
    /// Known member sites per lock (maintained from coordinator
    /// registration forwards) — the dissemination candidate set.
    lock_members: HashMap<LockId, BTreeSet<SiteId>>,
    /// Newest version held locally per lock.
    lock_version: BTreeMap<LockId, Version>,
    pushes: HashMap<RequestId, PushTask>,
    /// Relay-ablation bookkeeping: transfers expected to pass through this
    /// (home) site on their way to the mapped destination.
    expect_relays: HashMap<RequestId, SiteId>,
    /// Last-writer-wins stamps for *unsynchronized* cached replicas
    /// (Lamport counter, publishing site).
    cache_stamps: HashMap<ReplicaId, (u64, SiteId)>,
    /// Local Lamport clock for cache publications.
    cache_clock: u64,
    next_req: RequestId,
    stats: DaemonStats,
    /// Deliberate faults for oracle testing (inert unless built with the
    /// `fault-injection` feature).
    faults: FaultPlan,
    /// Dissemination tuning (delta transfer, concurrent push window).
    push_cfg: PushConfig,
    /// Shadow copy per lock: the values as of the last disseminated
    /// version, diffed against at the next release (delta mode only;
    /// payloads Arc-shared with the store at snapshot time).
    shadow: HashMap<LockId, (Version, Vec<ReplicaUpdate>)>,
    /// The most recent release's edit script per lock (delta mode only).
    deltas: HashMap<LockId, LockDelta>,
    /// Last version each peer site acknowledged, per lock — the sender's
    /// basis for choosing delta over full transfer.
    acked_versions: HashMap<LockId, BTreeMap<SiteId, Version>>,
    /// Whether this site has a durable store attached. When set, every
    /// applied or released version that is new to the journal emits a
    /// [`Cmd::Persist`] for the driver to append to the write-ahead log.
    /// Off by default: non-durable sites emit nothing and behave
    /// byte-identically to before.
    ///
    /// [`Cmd::Persist`]: crate::cmd::Cmd::Persist
    durable: bool,
    /// Newest version journaled per lock (seeded from the recovered store
    /// at restart). A version identifies its bytes, so a release or an
    /// apply that does not advance past it — every clean release — has
    /// nothing to add to the log.
    journaled: HashMap<LockId, Version>,
    /// Consistent-hash object directory, when the cluster runs with
    /// [`HomeConfig::hash_directory`](crate::config::HomeConfig): decides
    /// which coordinator this site's lock traffic is addressed to, and
    /// absorbs `HomeUpdate` gossip and `StaleHome` corrections. `None` in
    /// the paper-faithful single-home mode — every routing fall back is
    /// then the fixed `home`.
    directory: Option<Directory>,
}

impl SiteDaemon {
    /// Creates the daemon for site `me`, with the coordinator at `home`.
    pub fn new(me: SiteId, home: SiteId, codec: CodecKind) -> SiteDaemon {
        SiteDaemon {
            me,
            home,
            codec,
            store: HashMap::new(),
            names: HashMap::new(),
            lock_replicas: HashMap::new(),
            lock_members: HashMap::new(),
            lock_version: BTreeMap::new(),
            pushes: HashMap::new(),
            expect_relays: HashMap::new(),
            cache_stamps: HashMap::new(),
            cache_clock: 0,
            next_req: RequestId(1),
            stats: DaemonStats::default(),
            faults: FaultPlan::default(),
            push_cfg: PushConfig::default(),
            shadow: HashMap::new(),
            deltas: HashMap::new(),
            acked_versions: HashMap::new(),
            durable: false,
            journaled: HashMap::new(),
            directory: None,
        }
    }

    /// Installs the consistent-hash object directory. Lock traffic from
    /// this site then routes per lock instead of to the fixed home.
    pub fn install_directory(&mut self, dir: Directory) {
        self.directory = Some(dir);
    }

    /// The directory, when one is installed.
    pub fn directory(&self) -> Option<&Directory> {
        self.directory.as_ref()
    }

    /// The coordinator responsible for `lock` according to the local
    /// directory, or `None` in single-home mode (callers fall back to the
    /// fixed [`home`](SiteDaemon::home)). A hint, never an authority: a
    /// stale answer is corrected by the coordinator's `StaleHome` NACK.
    pub fn home_for(&self, lock: LockId) -> Option<SiteId> {
        self.directory.as_ref().and_then(|d| d.home_of(lock))
    }

    /// Where this site addresses coordinator traffic for `lock`: the
    /// directory's answer, else the fixed home (which follows a surrogate
    /// announcement). The one routing decision for daemon and lock client.
    pub(crate) fn sync_home(&self, lock: LockId) -> SiteId {
        self.home_for(lock).unwrap_or(self.home)
    }

    /// Adds a site to the directory ring on membership growth. No-op in
    /// single-home mode.
    ///
    /// The newcomer has no coordinator state, so every lock this daemon
    /// already knows is pinned at its pre-join home with a local override:
    /// traffic keeps flowing to the coordinator that actually holds the
    /// state instead of bouncing off the empty newcomer. The pin sits at
    /// the lock's current epoch, so the coordinators' own `HomeUpdate`
    /// gossip (same or newer epoch) confirms or corrects it.
    pub fn add_ring_site(&mut self, site: SiteId) {
        let Some(dir) = &mut self.directory else {
            return;
        };
        let known: BTreeSet<LockId> = self
            .lock_members
            .keys()
            .copied()
            .chain(self.lock_version.keys().copied())
            .collect();
        let before: Vec<(LockId, SiteId)> = known
            .iter()
            .filter_map(|&lock| dir.home_of(lock).map(|home| (lock, home)))
            .collect();
        dir.add_site(site);
        for (lock, old_home) in before {
            if dir.home_of(lock) != Some(old_home) {
                let epoch = dir.epoch_of(lock);
                dir.record(lock, old_home, epoch);
            }
        }
    }

    /// Drops a departed site from the directory ring, returning the locks
    /// whose migrated home just died (they fall back to ring placement and
    /// need coordinator-side re-homing). No-op in single-home mode.
    ///
    /// For every known lock whose home just moved, this daemon re-announces
    /// its newest version (`SiteRecovered`) to the lock's new ring home —
    /// the raw material the inheriting coordinator's state rebuild polls
    /// and adopts, so a survivor holding a stale replica is never told it
    /// is current.
    pub fn remove_ring_site(&mut self, site: SiteId, sink: &mut CmdSink) -> Vec<LockId> {
        let Some(dir) = &mut self.directory else {
            return Vec::new();
        };
        let known: BTreeSet<LockId> = self
            .lock_members
            .keys()
            .copied()
            .chain(self.lock_version.keys().copied())
            .collect();
        let displaced: Vec<LockId> = known
            .iter()
            .copied()
            .filter(|&lock| dir.home_of(lock) == Some(site))
            .collect();
        let orphaned = dir.remove_site(site);
        let mut by_home: BTreeMap<SiteId, Vec<(LockId, Version)>> = BTreeMap::new();
        for lock in displaced {
            let Some(new_home) = dir.home_of(lock) else {
                continue;
            };
            let version = self
                .lock_version
                .get(&lock)
                .copied()
                .unwrap_or(Version::INITIAL);
            by_home.entry(new_home).or_default().push((lock, version));
        }
        for (home, versions) in by_home {
            sink.send(
                home,
                ports::SYNC,
                Msg::SiteRecovered {
                    site: self.me,
                    versions,
                },
                MsgClass::Control,
            );
        }
        orphaned
    }

    /// Marks this daemon as having a durable store attached, without any
    /// recovered state (a fresh durable site). Applied and released
    /// versions will emit [`Cmd::Persist`](crate::cmd::Cmd::Persist).
    pub fn mark_durable(&mut self) {
        self.durable = true;
    }

    /// Pre-seeds the daemon from state recovered off stable storage
    /// (snapshot + write-ahead log replay) and announces the recovered
    /// versions to the coordinator, so holders can ship
    /// `(recovered → current)` edit scripts instead of full payloads when
    /// this site next needs data. Must run before [`register_local`]
    /// re-registers the site's replicas: registration's `or_insert_with`
    /// keeps recovered values over initial ones.
    ///
    /// Marks the daemon durable as a side effect.
    ///
    /// [`register_local`]: SiteDaemon::register_local
    pub fn restore(&mut self, recovered: &RecoveredState, sink: &mut CmdSink) {
        self.durable = true;
        for (lock, version) in &recovered.lock_versions {
            self.journaled.insert(*lock, *version);
            let mut version = *version;
            // Mutant-harness hook: replaying a stale WAL (one release
            // behind what the site actually held) must trip the oracle's
            // VersionRegression invariant across the incarnation boundary.
            if self.faults.active().stale_recovery && version > Version::INITIAL {
                version = Version(version.0 - 1);
            }
            self.lock_version.insert(*lock, version);
        }
        for (lock, replicas) in &recovered.replicas {
            self.lock_members.entry(*lock).or_default().insert(self.me);
            for (id, payload) in replicas {
                self.store.insert(*id, Arc::clone(payload));
                self.lock_replicas.entry(*lock).or_default().insert(*id);
            }
        }
        // In directory mode different locks live at different coordinators:
        // group the recovered versions per home and announce to each. The
        // single-home path collapses to one message to the fixed home.
        let mut by_home: BTreeMap<SiteId, Vec<(LockId, Version)>> = BTreeMap::new();
        for (lock, version) in &self.lock_version {
            if *version > Version::INITIAL {
                by_home
                    .entry(self.sync_home(*lock))
                    .or_default()
                    .push((*lock, *version));
            }
        }
        for (home, versions) in by_home {
            sink.send(
                home,
                ports::SYNC,
                Msg::SiteRecovered {
                    site: self.me,
                    versions,
                },
                MsgClass::Control,
            );
        }
    }

    /// Emits a [`Cmd::Persist`](crate::cmd::Cmd::Persist) recording the
    /// current `(lock, version, full payloads)` statement, if a durable
    /// store is attached and the version is new to its journal. `script`
    /// is the edit script that produced the version, when this daemon
    /// holds it.
    fn persist_state(&mut self, lock: LockId, script: Option<EditScript>, sink: &mut CmdSink) {
        if !self.durable {
            return;
        }
        let version = self.version_of(lock);
        let journaled = self.journaled.entry(lock).or_insert(Version::INITIAL);
        if version > *journaled {
            *journaled = version;
            sink.persist(lock, version, self.snapshot_for(lock), script);
        }
    }

    /// Installs the deliberate-fault plan (mutant harness only; the flags
    /// are inert unless built with the `fault-injection` feature).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Installs the dissemination tuning (delta transfer, concurrent push
    /// window). Defaults to the paper-faithful sequential/full behaviour.
    pub fn set_push_options(&mut self, push: PushConfig) {
        self.push_cfg = push;
    }

    /// Total push targets currently awaiting acknowledgement across all
    /// in-flight dissemination tasks (the pipeline window occupancy).
    pub fn inflight_pushes(&self) -> usize {
        self.pushes.values().map(|t| t.inflight.len()).sum()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DaemonStats {
        self.stats
    }

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.me
    }

    /// The coordinator's current location as known locally — application
    /// threads "query the local daemon thread to obtain the location of
    /// the newly created surrogate synchronization thread" (§4).
    pub fn home(&self) -> SiteId {
        self.home
    }

    /// Newest locally held version for `lock`.
    pub fn version_of(&self, lock: LockId) -> Version {
        self.lock_version
            .get(&lock)
            .copied()
            .unwrap_or(Version::INITIAL)
    }

    /// Every (lock, newest local version) pair, sorted by lock id — the
    /// invariant oracle's view of this daemon.
    pub fn versions(&self) -> Vec<(LockId, Version)> {
        self.lock_version.iter().map(|(l, v)| (*l, *v)).collect()
    }

    /// Feeds the daemon's protocol-relevant state into `h`, in a
    /// deterministic order, for explorer state fingerprinting.
    pub fn hash_state(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.me.hash(h);
        self.home.hash(h);
        // lock_version is a BTreeMap: iteration order is deterministic.
        for (lock, version) in &self.lock_version {
            lock.hash(h);
            version.hash(h);
            // Where this daemon would route the lock, and behind which
            // fence: two states that differ only in directory knowledge
            // behave differently and must fingerprint differently.
            if let Some(dir) = &self.directory {
                dir.home_of(*lock).hash(h);
                dir.epoch_of(*lock).hash(h);
            }
        }
        // Replica contents, via their wire encoding (payloads hold f64s
        // and so cannot derive Hash). Entries are collected and key-sorted
        // because the maps are HashMaps with arbitrary iteration order.
        let mut replicas: Vec<_> = self.store.iter().collect();
        replicas.sort_unstable_by_key(|(id, _)| *id);
        for (id, payload) in replicas {
            id.hash(h);
            let mut w = mocha_wire::io::ByteWriter::new();
            payload.encode(&mut w);
            w.into_bytes().hash(h);
        }
        // In-flight pushes decide which acks advance the dissemination.
        let mut pushes: Vec<_> = self.pushes.iter().collect();
        pushes.sort_unstable_by_key(|(req, _)| *req);
        for (req, task) in pushes {
            req.hash(h);
            task.lock.hash(h);
            task.version.hash(h);
            // BTreeSet: deterministic iteration order.
            for s in &task.inflight {
                s.hash(h);
            }
            task.remaining.hash(h);
            task.acked.hash(h);
        }
        // Delta-sender state decides whether the next release ships a
        // script or a full payload.
        let mut shadows: Vec<_> = self.shadow.iter().collect();
        shadows.sort_unstable_by_key(|(lock, _)| *lock);
        for (lock, (version, _)) in shadows {
            lock.hash(h);
            version.hash(h);
        }
        let mut deltas: Vec<_> = self.deltas.iter().collect();
        deltas.sort_unstable_by_key(|(lock, _)| *lock);
        for (lock, d) in deltas {
            lock.hash(h);
            d.base.hash(h);
            d.version.hash(h);
            d.cost_bytes.hash(h);
        }
        let mut acked: Vec<_> = self.acked_versions.iter().collect();
        acked.sort_unstable_by_key(|(lock, _)| *lock);
        for (lock, table) in acked {
            lock.hash(h);
            for (site, version) in table {
                site.hash(h);
                version.hash(h);
            }
        }
    }

    /// Reads a replica's current local value.
    ///
    /// # Errors
    ///
    /// Returns [`MochaError::UnknownReplica`] if never registered here.
    pub fn read(&self, replica: ReplicaId) -> Result<&ReplicaPayload, MochaError> {
        self.store
            .get(&replica)
            .map(Arc::as_ref)
            .ok_or(MochaError::UnknownReplica { replica })
    }

    /// Overwrites a replica's local value (caller must hold the guarding
    /// lock; the application layer enforces that).
    ///
    /// # Errors
    ///
    /// Returns [`MochaError::UnknownReplica`] if never registered here.
    pub fn write(&mut self, replica: ReplicaId, payload: ReplicaPayload) -> Result<(), MochaError> {
        match self.store.get_mut(&replica) {
            Some(slot) => {
                *slot = Arc::new(payload);
                Ok(())
            }
            None => Err(MochaError::UnknownReplica { replica }),
        }
    }

    /// Registers replicas guarded by `lock` at this site, with initial
    /// values, and announces the registration to the coordinator.
    pub fn register_local(&mut self, lock: LockId, specs: &[ReplicaSpec], sink: &mut CmdSink) {
        self.lock_members.entry(lock).or_default().insert(self.me);
        let home = self.sync_home(lock);
        for spec in specs {
            let id = spec.id();
            self.store
                .entry(id)
                .or_insert_with(|| Arc::new(spec.initial.clone()));
            self.names.insert(id, spec.name.clone());
            self.lock_replicas.entry(lock).or_default().insert(id);
            sink.send(
                home,
                ports::SYNC,
                Msg::RegisterReplica {
                    lock,
                    replica: id,
                    site: self.me,
                    name: spec.name.clone(),
                },
                MsgClass::Control,
            );
        }
    }

    /// The lock guarding `replica`, if any is known locally.
    pub fn lock_of(&self, replica: ReplicaId) -> Option<LockId> {
        self.lock_replicas
            .iter()
            .find(|(_, ids)| ids.contains(&replica))
            .map(|(lock, _)| *lock)
    }

    /// Registered member sites of `lock` as known locally.
    pub fn members_of(&self, lock: LockId) -> Vec<SiteId> {
        self.lock_members
            .get(&lock)
            .map(|m| m.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Snapshots the current values of `lock`'s replicas. Payloads are
    /// Arc-shared with the store: no bytes are copied.
    fn snapshot_for(&self, lock: LockId) -> Vec<ReplicaUpdate> {
        self.lock_replicas
            .get(&lock)
            .map(|ids| {
                ids.iter()
                    .filter_map(|id| {
                        self.store
                            .get(id)
                            .map(|p| ReplicaUpdate::shared(*id, p.clone()))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Marshals the current values of `lock`'s replicas, charging the
    /// configured codec's cost.
    fn marshal_for(&self, lock: LockId, sink: &mut CmdSink) -> Vec<ReplicaUpdate> {
        let updates = self.snapshot_for(lock);
        let cost = self.codec.marshaller().marshal_cost(&updates);
        sink.charge(Work::marshal_ops(cost.ops));
        updates
    }

    /// Total payload data bytes across `updates`.
    fn payload_bytes(updates: &[ReplicaUpdate]) -> u64 {
        updates.iter().map(|u| u.payload.data_bytes() as u64).sum()
    }

    /// Charges the unmarshal cost for received updates.
    fn charge_unmarshal(&self, updates: &[ReplicaUpdate], sink: &mut CmdSink) {
        let bytes: usize = updates.iter().map(|u| u.payload.data_bytes()).sum();
        let cost = self.codec.marshaller().unmarshal_cost(bytes, updates.len());
        sink.charge(Work::marshal_ops(cost.ops));
    }

    /// Applies replica data if it is at least as new as what we hold.
    /// Returns whether it was applied.
    fn apply(&mut self, lock: LockId, version: Version, updates: Vec<ReplicaUpdate>) -> bool {
        let local = self.version_of(lock);
        // Mutant-harness hook: dropping the staleness guard lets reordered
        // deliveries regress the local version (the bug the oracle's
        // VersionRegression invariant exists to catch).
        if version < local && !self.faults.active().accept_any_version {
            self.stats.stale_updates_discarded += 1;
            return false;
        }
        debug_assert!(
            version >= local || self.faults.active().accept_any_version,
            "daemon {me} applying {version:?} over newer local {local:?} for {lock}",
            me = self.me
        );
        for u in updates {
            // Transfers can carry replicas not yet registered locally
            // (another site created them); adopt them.
            self.store.insert(u.replica, u.payload);
            self.lock_replicas
                .entry(lock)
                .or_default()
                .insert(u.replica);
        }
        self.lock_version.insert(lock, version);
        self.stats.updates_applied += 1;
        true
    }

    /// Publishes the current local value of an *unsynchronized* cached
    /// replica to every registered member — the paper's §7 future work
    /// (non-synchronization-based consistency, Bayou/Rover-style). Updates
    /// are ordered by (Lamport counter, site): concurrent publications
    /// converge to the same last-writer-wins value everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`MochaError::UnknownReplica`] if the replica is not
    /// registered here.
    pub fn publish(&mut self, replica: ReplicaId, sink: &mut CmdSink) -> Result<(), MochaError> {
        let payload = self.read(replica)?.clone();
        self.cache_clock += 1;
        let stamp = (self.cache_clock, self.me);
        self.cache_stamps.insert(replica, stamp);
        let lock = self.lock_of(replica).unwrap_or(crate::app::UNGUARDED);
        let members: Vec<SiteId> = self
            .lock_members
            .get(&lock)
            .map(|m| m.iter().copied().filter(|s| *s != self.me).collect())
            .unwrap_or_default();
        for member in members {
            sink.send(
                member,
                ports::DAEMON,
                Msg::CacheUpdate {
                    replica,
                    counter: stamp.0,
                    origin: self.me,
                    payload: payload.clone(),
                },
                MsgClass::Bulk,
            );
        }
        Ok(())
    }

    /// The LWW stamp of a cached replica, if it was ever published.
    pub fn cache_stamp(&self, replica: ReplicaId) -> Option<(u64, SiteId)> {
        self.cache_stamps.get(&replica).copied()
    }

    /// Performs push-based dissemination at release time (§4): sends the
    /// new value to `ur - 1` other member sites. Returns the target list
    /// (reported to the coordinator in the release message).
    pub fn disseminate(
        &mut self,
        lock: LockId,
        new_version: Version,
        ur: usize,
        sink: &mut CmdSink,
    ) -> Vec<SiteId> {
        self.lock_version.insert(lock, new_version);
        let targets: Vec<SiteId> = self
            .lock_members
            .get(&lock)
            .filter(|_| ur > 1)
            .map(|m| {
                let others = m.iter().copied().filter(|s| *s != self.me);
                others.take(ur - 1).collect()
            })
            .unwrap_or_default();
        if targets.is_empty() {
            self.persist_state(lock, None, sink);
            return Vec::new();
        }
        // Snapshot the release's values once; every target receives this
        // snapshot even if the store advances mid-window.
        let updates = self.snapshot_for(lock);
        if self.push_cfg.pipeline {
            // Pipelined dissemination marshals the window once. (The
            // sequential default instead charges per destination inside
            // `send_push`, matching the paper's per-send pack loop.)
            let cost = self.codec.marshaller().marshal_cost(&updates);
            sink.charge(Work::marshal_ops(cost.ops));
        }
        if self.push_cfg.delta {
            self.refresh_delta(lock, new_version, &updates);
        }
        // Journaled before the first push leaves, as the release's own
        // edit script when one was just cut.
        let script = self
            .deltas
            .get(&lock)
            .filter(|d| self.durable && d.version == new_version)
            .map(|d| EditScript {
                base: d.base,
                scripts: d.scripts.clone(),
            });
        self.persist_state(lock, script, sink);
        let req = self.next_req;
        self.next_req = self.next_req.next();
        let mut task = PushTask {
            lock,
            version: new_version,
            updates,
            inflight: BTreeSet::new(),
            remaining: targets.iter().copied().collect(),
            tried: BTreeSet::new(),
            acked: Vec::new(),
        };
        task.tried.insert(self.me);
        self.pushes.insert(req, task);
        self.fill_window(req, sink);
        targets
    }

    /// Diffs the release's values against the lock's shadow copy, records
    /// the edit script for delta-eligible sends, and advances the shadow
    /// (delta mode only).
    fn refresh_delta(&mut self, lock: LockId, version: Version, updates: &[ReplicaUpdate]) {
        if let Some((base, prev)) = self.shadow.get(&lock) {
            let scripts = Self::diff_updates(prev, updates);
            match scripts {
                Some(scripts) => {
                    let cost_bytes: usize = scripts.iter().map(|s| s.delta.cost_bytes()).sum();
                    let full_bytes = Self::payload_bytes(updates) as usize;
                    if cost_bytes < full_bytes {
                        self.deltas.insert(
                            lock,
                            LockDelta {
                                base: *base,
                                version,
                                scripts,
                                cost_bytes,
                                full_bytes,
                            },
                        );
                    } else {
                        self.deltas.remove(&lock);
                    }
                }
                None => {
                    self.deltas.remove(&lock);
                }
            }
        }
        self.shadow.insert(lock, (version, updates.to_vec()));
    }

    /// Per-replica edit scripts turning `prev` into `next`, or `None` when
    /// the replica sets differ or any payload pair cannot be diffed.
    fn diff_updates(
        prev: &[ReplicaUpdate],
        next: &[ReplicaUpdate],
    ) -> Option<Vec<ReplicaDeltaUpdate>> {
        if prev.len() != next.len() {
            return None;
        }
        prev.iter()
            .zip(next)
            .map(|(a, b)| {
                if a.replica != b.replica {
                    return None;
                }
                PayloadDelta::diff(&a.payload, &b.payload).map(|delta| ReplicaDeltaUpdate {
                    replica: b.replica,
                    delta,
                })
            })
            .collect()
    }

    /// Whether a send to `target` about `lock` at `version` can go as the
    /// recorded edit script instead of the full payload.
    fn delta_eligible(&self, lock: LockId, version: Version, target: SiteId) -> bool {
        self.push_cfg.delta
            && self.deltas.get(&lock).is_some_and(|d| {
                d.version == version
                    && self.acked_versions.get(&lock).and_then(|m| m.get(&target)) == Some(&d.base)
            })
    }

    /// Starts pushes of task `req` until the window is full (one target in
    /// sequential mode, every remaining target when pipelining), or signals
    /// completion when no targets are left anywhere.
    fn fill_window(&mut self, req: RequestId, sink: &mut CmdSink) {
        let window = if self.push_cfg.pipeline {
            usize::MAX
        } else {
            1
        };
        loop {
            let Some(task) = self.pushes.get_mut(&req) else {
                return;
            };
            if task.inflight.is_empty() && task.remaining.is_empty() {
                if let Some(task) = self.pushes.remove(&req) {
                    sink.signal(Signal::PushesComplete {
                        lock: task.lock,
                        acked: task.acked,
                    });
                }
                return;
            }
            if task.inflight.len() >= window {
                return;
            }
            let Some(target) = task.remaining.pop_front() else {
                return;
            };
            task.tried.insert(target);
            task.inflight.insert(target);
            self.send_push(req, target, sink);
        }
    }

    /// Sends one push of task `req` to `target`, as an edit script when the
    /// target's last-acked version matches the recorded delta base, as the
    /// full payload otherwise.
    fn send_push(&mut self, req: RequestId, target: SiteId, sink: &mut CmdSink) {
        let Some(task) = self.pushes.get(&req) else {
            return;
        };
        let (lock, version, updates) = (task.lock, task.version, task.updates.clone());
        self.stats.pushes_sent += 1;
        if self.delta_eligible(lock, version, target) {
            // delta_eligible guarantees the entry; fall through to the
            // full-payload push if it is somehow gone.
            if let Some(d) = self.deltas.get(&lock) {
                let cost = self
                    .codec
                    .marshaller()
                    .unmarshal_cost(d.cost_bytes, d.scripts.len());
                sink.charge(Work::marshal_ops(cost.ops));
                self.stats.delta_pushes_sent += 1;
                self.stats.delta_bytes_saved += (d.full_bytes - d.cost_bytes) as u64;
                self.stats.replica_bytes_sent += d.cost_bytes as u64;
                sink.send_tagged(
                    target,
                    ports::DAEMON,
                    Msg::PushDelta {
                        lock,
                        base_version: d.base,
                        version,
                        deltas: d.scripts.clone(),
                        req,
                    },
                    MsgClass::Bulk,
                    SendTag::Push {
                        lock,
                        to: target,
                        req,
                    },
                );
                return;
            }
        }
        if !self.push_cfg.pipeline {
            // Re-marshaled per destination, as a per-send pack loop would.
            let cost = self.codec.marshaller().marshal_cost(&updates);
            sink.charge(Work::marshal_ops(cost.ops));
        }
        self.stats.replica_bytes_sent += Self::payload_bytes(&updates);
        sink.send_tagged(
            target,
            ports::DAEMON,
            Msg::PushUpdate {
                lock,
                version,
                updates,
                req,
            },
            MsgClass::Bulk,
            SendTag::Push {
                lock,
                to: target,
                req,
            },
        );
    }

    /// Applies per-replica edit scripts atomically: either every script
    /// matches a locally held base of the right shape and the whole set
    /// commits, or nothing changes. Returns whether it committed.
    fn try_apply_delta(
        &mut self,
        lock: LockId,
        version: Version,
        deltas: &[ReplicaDeltaUpdate],
    ) -> bool {
        let mut next = Vec::with_capacity(deltas.len());
        for d in deltas {
            let Some(base) = self.store.get(&d.replica) else {
                return false;
            };
            match d.delta.apply(base) {
                Ok(p) => next.push((d.replica, p)),
                Err(_) => return false,
            }
        }
        for (id, p) in next {
            self.store.insert(id, Arc::new(p));
            self.lock_replicas.entry(lock).or_default().insert(id);
        }
        self.lock_version.insert(lock, version);
        self.stats.updates_applied += 1;
        true
    }

    /// Charges the unmarshal cost of a received edit-script set.
    fn charge_delta_unmarshal(&self, deltas: &[ReplicaDeltaUpdate], sink: &mut CmdSink) {
        let bytes: usize = deltas.iter().map(|d| d.delta.cost_bytes()).sum();
        let cost = self.codec.marshaller().unmarshal_cost(bytes, deltas.len());
        sink.charge(Work::marshal_ops(cost.ops));
    }

    /// Handles a protocol message addressed to the DAEMON port.
    pub fn on_msg(&mut self, _now: SimTime, from: SiteId, msg: Msg, sink: &mut CmdSink) {
        sink.charge(Work::events(1));
        match msg {
            Msg::TransferReplica {
                lock,
                dest,
                version: _,
                req,
            } => {
                self.stats.transfers_served += 1;
                let version = self.version_of(lock);
                // delta_eligible guarantees the entry; fall through to the
                // full transfer if it is somehow gone.
                if self.delta_eligible(lock, version, dest) {
                    if let Some(d) = self.deltas.get(&lock) {
                        self.stats.delta_pushes_sent += 1;
                        self.stats.delta_bytes_saved += (d.full_bytes - d.cost_bytes) as u64;
                        self.stats.replica_bytes_sent += d.cost_bytes as u64;
                        let cost = self
                            .codec
                            .marshaller()
                            .unmarshal_cost(d.cost_bytes, d.scripts.len());
                        sink.charge(Work::marshal_ops(cost.ops));
                        sink.send(
                            dest,
                            ports::DAEMON,
                            Msg::ReplicaDelta {
                                lock,
                                base_version: d.base,
                                version,
                                deltas: d.scripts.clone(),
                                req,
                            },
                            MsgClass::Bulk,
                        );
                        return;
                    }
                }
                let updates = self.marshal_for(lock, sink);
                self.stats.replica_bytes_sent += Self::payload_bytes(&updates);
                sink.send(
                    dest,
                    ports::DAEMON,
                    Msg::ReplicaData {
                        lock,
                        version,
                        updates,
                        req,
                    },
                    MsgClass::Bulk,
                );
            }
            Msg::ReplicaData {
                lock,
                version,
                updates,
                req,
            } => {
                if let Some(dest) = self.expect_relays.remove(&req) {
                    if dest != self.me {
                        // Relay ablation: store-and-forward through this
                        // site. Pays a full unmarshal + remarshal.
                        self.charge_unmarshal(&updates, sink);
                        let cost = self.codec.marshaller().marshal_cost(&updates);
                        sink.charge(Work::marshal_ops(cost.ops));
                        sink.send(
                            dest,
                            ports::DAEMON,
                            Msg::ReplicaData {
                                lock,
                                version,
                                updates,
                                req,
                            },
                            MsgClass::Bulk,
                        );
                        return;
                    }
                }
                self.charge_unmarshal(&updates, sink);
                if self.apply(lock, version, updates) {
                    self.persist_state(lock, None, sink);
                }
                // Even stale data unblocks a waiter: it is the freshest
                // available (weakened consistency path).
                let local = self.version_of(lock);
                sink.signal(Signal::DataArrived {
                    lock,
                    version: local,
                });
            }
            Msg::PushUpdate {
                lock,
                version,
                updates,
                req,
            } => {
                self.charge_unmarshal(&updates, sink);
                let applied = self.apply(lock, version, updates);
                if applied {
                    self.persist_state(lock, None, sink);
                }
                sink.send(
                    from,
                    ports::DAEMON,
                    Msg::PushAck {
                        lock,
                        version,
                        site: self.me,
                        req,
                    },
                    MsgClass::Control,
                );
                if applied {
                    sink.signal(Signal::DataArrived { lock, version });
                }
            }
            Msg::PushDelta {
                lock,
                base_version,
                version,
                deltas,
                req,
            } => {
                let local = self.version_of(lock);
                if local == base_version && self.try_apply_delta(lock, version, &deltas) {
                    self.charge_delta_unmarshal(&deltas, sink);
                    let script = EditScript {
                        base: base_version,
                        scripts: deltas,
                    };
                    self.persist_state(lock, Some(script), sink);
                    sink.send(
                        from,
                        ports::DAEMON,
                        Msg::PushAck {
                            lock,
                            version,
                            site: self.me,
                            req,
                        },
                        MsgClass::Control,
                    );
                    sink.signal(Signal::DataArrived { lock, version });
                } else {
                    // Wrong base (or unappliable script): ask the sender
                    // for the full payload. No ack yet — the sender keeps
                    // this target in flight and resends.
                    sink.send(
                        from,
                        ports::DAEMON,
                        Msg::DeltaNack {
                            lock,
                            site: self.me,
                            have: local,
                            req,
                        },
                        MsgClass::Control,
                    );
                }
            }
            Msg::ReplicaDelta {
                lock,
                base_version,
                version,
                deltas,
                req,
            } => {
                if let Some(dest) = self.expect_relays.get(&req).copied() {
                    if dest != self.me {
                        // Relays cannot forward edit scripts they have no
                        // base for: NACK back to a full transfer. The relay
                        // mapping stays for the resent ReplicaData.
                        sink.send(
                            from,
                            ports::DAEMON,
                            Msg::DeltaNack {
                                lock,
                                site: self.me,
                                have: self.version_of(lock),
                                req,
                            },
                            MsgClass::Control,
                        );
                        return;
                    }
                    self.expect_relays.remove(&req);
                }
                let local = self.version_of(lock);
                if local == base_version && self.try_apply_delta(lock, version, &deltas) {
                    self.charge_delta_unmarshal(&deltas, sink);
                    let script = EditScript {
                        base: base_version,
                        scripts: deltas,
                    };
                    self.persist_state(lock, Some(script), sink);
                    sink.signal(Signal::DataArrived { lock, version });
                } else {
                    // No DataArrived: the full data is on its way back.
                    sink.send(
                        from,
                        ports::DAEMON,
                        Msg::DeltaNack {
                            lock,
                            site: self.me,
                            have: local,
                            req,
                        },
                        MsgClass::Control,
                    );
                }
            }
            Msg::DeltaNack {
                lock,
                site,
                have,
                req,
            } => {
                self.stats.delta_nacks += 1;
                // The refuser's actual version informs future delta choices.
                self.acked_versions
                    .entry(lock)
                    .or_default()
                    .insert(site, have);
                let live = self
                    .pushes
                    .get(&req)
                    .filter(|t| t.lock == lock && t.inflight.contains(&site))
                    .map(|t| (t.version, t.updates.clone()));
                if let Some((version, updates)) = live {
                    // Push path: resend this release's snapshot as a full
                    // payload; the target stays in flight until it acks.
                    if !self.push_cfg.pipeline {
                        let cost = self.codec.marshaller().marshal_cost(&updates);
                        sink.charge(Work::marshal_ops(cost.ops));
                    }
                    self.stats.pushes_sent += 1;
                    self.stats.replica_bytes_sent += Self::payload_bytes(&updates);
                    sink.send_tagged(
                        site,
                        ports::DAEMON,
                        Msg::PushUpdate {
                            lock,
                            version,
                            updates,
                            req,
                        },
                        MsgClass::Bulk,
                        SendTag::Push {
                            lock,
                            to: site,
                            req,
                        },
                    );
                } else {
                    // Transfer path: fresh full ReplicaData under the same
                    // request id (so a pending relay mapping still matches).
                    let updates = self.marshal_for(lock, sink);
                    let version = self.version_of(lock);
                    self.stats.replica_bytes_sent += Self::payload_bytes(&updates);
                    sink.send(
                        from,
                        ports::DAEMON,
                        Msg::ReplicaData {
                            lock,
                            version,
                            updates,
                            req,
                        },
                        MsgClass::Bulk,
                    );
                }
            }
            Msg::PushAck {
                lock,
                version,
                req,
                site,
            } => {
                // Even a stale ack proves the peer holds `version`.
                let slot = self
                    .acked_versions
                    .entry(lock)
                    .or_default()
                    .entry(site)
                    .or_insert(version);
                if version > *slot {
                    *slot = version;
                }
                let advance = self.pushes.get_mut(&req).is_some_and(|task| {
                    if task.inflight.remove(&site) {
                        task.acked.push(site);
                        true
                    } else {
                        false
                    }
                });
                if advance {
                    self.fill_window(req, sink);
                }
            }
            Msg::PollVersion { lock, req } => {
                self.stats.polls_answered += 1;
                // Answer the coordinator that asked: in directory mode the
                // poll can come from any site's coordinator, not the fixed
                // home (legacy: `from` and `home` coincide).
                sink.send(
                    from,
                    ports::SYNC,
                    Msg::PollResponse {
                        lock,
                        version: self.version_of(lock),
                        site: self.me,
                        req,
                    },
                    MsgClass::Control,
                );
            }
            Msg::CacheUpdate {
                replica,
                counter,
                origin,
                payload,
            } => {
                // Lamport clock advance + last-writer-wins merge.
                self.cache_clock = self.cache_clock.max(counter);
                let incoming = (counter, origin);
                let apply = self
                    .cache_stamps
                    .get(&replica)
                    .is_none_or(|local| incoming > *local);
                if apply {
                    self.cache_stamps.insert(replica, incoming);
                    self.store.insert(replica, Arc::new(payload));
                    self.stats.updates_applied += 1;
                } else {
                    self.stats.stale_updates_discarded += 1;
                }
            }
            Msg::SiteRecovered { site, versions } => {
                // Coordinator forward: a rebooted durable peer holds
                // exactly these versions now — whatever it acked in its
                // previous incarnation is moot. Recording them lets the
                // next transfer or push to it go as an edit script off the
                // recovered base; a mismatch just NACKs back to a full
                // transfer.
                for (lock, version) in versions {
                    self.acked_versions
                        .entry(lock)
                        .or_default()
                        .insert(site, version);
                }
            }
            Msg::ExpectRelay { dest, req, .. } => {
                self.expect_relays.insert(req, dest);
            }
            Msg::SyncMoved { new_home } => {
                // Surrogate takeover: redirect all future coordinator
                // traffic and tell local application threads.
                self.home = new_home;
                sink.signal(Signal::HomeChanged { new_home });
            }
            Msg::RegisterReplica {
                lock,
                replica,
                site,
                name,
            } => {
                // Membership forward from the coordinator.
                self.lock_members.entry(lock).or_default().insert(site);
                self.lock_replicas.entry(lock).or_default().insert(replica);
                self.names.entry(replica).or_insert(name);
                self.store
                    .entry(replica)
                    .or_insert_with(|| Arc::new(ReplicaPayload::empty()));
            }
            Msg::StaleHome { lock, home, epoch } => {
                // NACK from a coordinator we addressed after its lock moved
                // away: self-correct the local directory. The original
                // request was forwarded to the true home by the redirecting
                // site, so nothing needs resending here.
                self.stats.home_corrections += 1;
                if let Some(dir) = &mut self.directory {
                    dir.record(lock, home, epoch);
                }
            }
            Msg::HomeUpdate { lock, home, epoch } => {
                // Post-migration gossip from the new home. Epoch fencing in
                // `record` discards reordered announcements from an older
                // migration.
                if let Some(dir) = &mut self.directory {
                    dir.record(lock, home, epoch);
                }
            }
            other => {
                sink.note(format!("daemon {me} ignoring {other:?}", me = self.me));
            }
        }
    }

    /// Handles a push-send failure: pick an untried member as replacement
    /// (§4: "the failure ... can be handled by choosing another daemon
    /// thread at another site to receive a copy"), or move on to the next
    /// target when nobody is left.
    pub fn on_send_failed(&mut self, tag: &SendTag, sink: &mut CmdSink) {
        let SendTag::Push { lock, to, req } = tag else {
            return;
        };
        let replacement = {
            let Some(task) = self.pushes.get_mut(req) else {
                return;
            };
            if !task.inflight.remove(to) {
                return; // stale failure for an already-advanced push
            }
            let replacement = self
                .lock_members
                .get(lock)
                .and_then(|m| m.iter().copied().find(|s| !task.tried.contains(s)));
            if let Some(r) = replacement {
                // Put the replacement at the head of the queue; fill_window
                // will pick it up.
                task.remaining.push_front(r);
            }
            replacement
        };
        if replacement.is_some() {
            self.stats.push_replacements += 1;
        }
        self.fill_window(*req, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::Cmd;
    use crate::replica::replica_id;

    const ME: SiteId = SiteId(1);
    const HOME: SiteId = SiteId(0);
    const S2: SiteId = SiteId(2);
    const S3: SiteId = SiteId(3);
    const S4: SiteId = SiteId(4);
    const L: LockId = LockId(1);

    fn daemon() -> SiteDaemon {
        SiteDaemon::new(ME, HOME, CodecKind::ByteAtATime)
    }

    fn now() -> SimTime {
        SimTime::ZERO
    }

    fn spec(name: &str, data: &[i32]) -> ReplicaSpec {
        ReplicaSpec::new(name, ReplicaPayload::I32s(data.to_vec()))
    }

    fn sends(sink: &mut CmdSink) -> Vec<(SiteId, Msg)> {
        sink.drain()
            .into_iter()
            .filter_map(|c| match c {
                Cmd::Send { to, msg, .. } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    fn signals(sink: &mut CmdSink) -> Vec<Signal> {
        sink.drain()
            .into_iter()
            .filter_map(|c| match c {
                Cmd::Signal(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn register_stores_initial_and_notifies_home() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[1, 2])], &mut sink);
        let msgs = sends(&mut sink);
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == HOME
                && matches!(m, Msg::RegisterReplica { site, .. } if *site == ME)));
        assert_eq!(
            d.read(replica_id("idx")).unwrap(),
            &ReplicaPayload::I32s(vec![1, 2])
        );
    }

    #[test]
    fn write_and_read_roundtrip() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[0])], &mut sink);
        let id = replica_id("idx");
        d.write(id, ReplicaPayload::I32s(vec![9])).unwrap();
        assert_eq!(d.read(id).unwrap(), &ReplicaPayload::I32s(vec![9]));
    }

    #[test]
    fn unknown_replica_errors() {
        let mut d = daemon();
        let id = replica_id("nope");
        assert!(matches!(d.read(id), Err(MochaError::UnknownReplica { .. })));
        assert!(matches!(
            d.write(id, ReplicaPayload::empty()),
            Err(MochaError::UnknownReplica { .. })
        ));
    }

    #[test]
    fn transfer_directive_sends_data_to_dest() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[7])], &mut sink);
        sink.drain();
        d.on_msg(
            now(),
            HOME,
            Msg::TransferReplica {
                lock: L,
                dest: S2,
                version: Version(0),
                req: RequestId(5),
            },
            &mut sink,
        );
        let msgs = sends(&mut sink);
        let (to, data) = &msgs[0];
        assert_eq!(*to, S2);
        match data {
            Msg::ReplicaData {
                lock, updates, req, ..
            } => {
                assert_eq!(*lock, L);
                assert_eq!(updates.len(), 1);
                assert_eq!(*req, RequestId(5));
            }
            other => panic!("expected ReplicaData, got {other:?}"),
        }
        assert_eq!(d.stats().transfers_served, 1);
    }

    #[test]
    fn replica_data_applies_and_signals() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[0])], &mut sink);
        sink.drain();
        let id = replica_id("idx");
        d.on_msg(
            now(),
            S2,
            Msg::ReplicaData {
                lock: L,
                version: Version(3),
                updates: vec![ReplicaUpdate::new(id, ReplicaPayload::I32s(vec![42]))],
                req: RequestId(0),
            },
            &mut sink,
        );
        assert_eq!(d.read(id).unwrap(), &ReplicaPayload::I32s(vec![42]));
        assert_eq!(d.version_of(L), Version(3));
        assert_eq!(
            signals(&mut sink),
            vec![Signal::DataArrived {
                lock: L,
                version: Version(3)
            }]
        );
    }

    #[test]
    fn stale_data_discarded_but_still_signals() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[0])], &mut sink);
        sink.drain();
        let id = replica_id("idx");
        d.on_msg(
            now(),
            S2,
            Msg::ReplicaData {
                lock: L,
                version: Version(5),
                updates: vec![ReplicaUpdate::new(id, ReplicaPayload::I32s(vec![5]))],
                req: RequestId(0),
            },
            &mut sink,
        );
        sink.drain();
        d.on_msg(
            now(),
            S3,
            Msg::ReplicaData {
                lock: L,
                version: Version(2),
                updates: vec![ReplicaUpdate::new(id, ReplicaPayload::I32s(vec![2]))],
                req: RequestId(0),
            },
            &mut sink,
        );
        // v2 < v5: value kept at 5, but the waiter still unblocks with the
        // freshest local version.
        assert_eq!(d.read(id).unwrap(), &ReplicaPayload::I32s(vec![5]));
        assert_eq!(d.stats().stale_updates_discarded, 1);
        assert_eq!(
            signals(&mut sink),
            vec![Signal::DataArrived {
                lock: L,
                version: Version(5)
            }]
        );
    }

    #[test]
    fn push_applies_acks_and_signals() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[0])], &mut sink);
        sink.drain();
        d.on_msg(
            now(),
            S2,
            Msg::PushUpdate {
                lock: L,
                version: Version(1),
                updates: vec![ReplicaUpdate::new(
                    replica_id("idx"),
                    ReplicaPayload::I32s(vec![1]),
                )],
                req: RequestId(9),
            },
            &mut sink,
        );
        let cmds = sink.drain();
        let acked = cmds.iter().any(|c| matches!(c,
            Cmd::Send { to, msg: Msg::PushAck { req, .. }, .. } if *to == S2 && *req == RequestId(9)));
        assert!(acked);
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Cmd::Signal(Signal::DataArrived { .. }))));
    }

    #[test]
    fn disseminate_pushes_to_ur_minus_one_members() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[1])], &mut sink);
        // Learn about members S2, S3 via coordinator forwards.
        for s in [S2, S3] {
            d.on_msg(
                now(),
                HOME,
                Msg::RegisterReplica {
                    lock: L,
                    replica: replica_id("idx"),
                    site: s,
                    name: "idx".into(),
                },
                &mut sink,
            );
        }
        sink.drain();
        let targets = d.disseminate(L, Version(1), 3, &mut sink);
        assert_eq!(targets, vec![S2, S3]);
        // Sequential dissemination: only the first push goes out now.
        let msgs = sends(&mut sink);
        let pushed: Vec<SiteId> = msgs
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::PushUpdate { .. }).then_some(*to))
            .collect();
        assert_eq!(pushed, vec![S2]);
        assert_eq!(d.stats().pushes_sent, 1);
        assert_eq!(d.version_of(L), Version(1));
        // S2's ack releases the push to S3.
        d.on_msg(
            now(),
            S2,
            Msg::PushAck {
                lock: L,
                version: Version(1),
                site: S2,
                req: RequestId(1),
            },
            &mut sink,
        );
        let msgs = sends(&mut sink);
        let pushed: Vec<SiteId> = msgs
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::PushUpdate { .. }).then_some(*to))
            .collect();
        assert_eq!(pushed, vec![S3]);
        assert_eq!(d.stats().pushes_sent, 2);
    }

    #[test]
    fn ur_one_disseminates_nothing() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[1])], &mut sink);
        sink.drain();
        assert!(d.disseminate(L, Version(1), 1, &mut sink).is_empty());
        assert!(sends(&mut sink).is_empty());
    }

    #[test]
    fn all_push_acks_signal_completion() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[1])], &mut sink);
        for s in [S2, S3] {
            d.on_msg(
                now(),
                HOME,
                Msg::RegisterReplica {
                    lock: L,
                    replica: replica_id("idx"),
                    site: s,
                    name: "idx".into(),
                },
                &mut sink,
            );
        }
        sink.drain();
        d.disseminate(L, Version(1), 3, &mut sink);
        sink.drain();
        d.on_msg(
            now(),
            S2,
            Msg::PushAck {
                lock: L,
                version: Version(1),
                site: S2,
                req: RequestId(1),
            },
            &mut sink,
        );
        assert!(signals(&mut sink).is_empty(), "one ack outstanding");
        d.on_msg(
            now(),
            S3,
            Msg::PushAck {
                lock: L,
                version: Version(1),
                site: S3,
                req: RequestId(1),
            },
            &mut sink,
        );
        assert_eq!(
            signals(&mut sink),
            vec![Signal::PushesComplete {
                lock: L,
                acked: vec![S2, S3]
            }]
        );
    }

    #[test]
    fn failed_push_picks_replacement_target() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[1])], &mut sink);
        for s in [S2, S3] {
            d.on_msg(
                now(),
                HOME,
                Msg::RegisterReplica {
                    lock: L,
                    replica: replica_id("idx"),
                    site: s,
                    name: "idx".into(),
                },
                &mut sink,
            );
        }
        sink.drain();
        // UR=2: push to S2 only.
        let targets = d.disseminate(L, Version(1), 2, &mut sink);
        assert_eq!(targets, vec![S2]);
        sink.drain();
        // S2 is dead: the push fails.
        d.on_send_failed(
            &SendTag::Push {
                lock: L,
                to: S2,
                req: RequestId(1),
            },
            &mut sink,
        );
        let msgs = sends(&mut sink);
        // Replacement push went to S3.
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == S3 && matches!(m, Msg::PushUpdate { .. })));
        assert_eq!(d.stats().push_replacements, 1);
    }

    #[test]
    fn exhausted_replacements_complete_the_task() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[1])], &mut sink);
        d.on_msg(
            now(),
            HOME,
            Msg::RegisterReplica {
                lock: L,
                replica: replica_id("idx"),
                site: S2,
                name: "idx".into(),
            },
            &mut sink,
        );
        sink.drain();
        d.disseminate(L, Version(1), 2, &mut sink);
        sink.drain();
        // Only candidate fails and nobody is left.
        d.on_send_failed(
            &SendTag::Push {
                lock: L,
                to: S2,
                req: RequestId(1),
            },
            &mut sink,
        );
        assert_eq!(
            signals(&mut sink),
            vec![Signal::PushesComplete {
                lock: L,
                acked: vec![]
            }]
        );
    }

    #[test]
    fn polls_answered_to_home() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.on_msg(
            now(),
            HOME,
            Msg::PollVersion {
                lock: L,
                req: RequestId(4),
            },
            &mut sink,
        );
        let msgs = sends(&mut sink);
        assert!(msgs.iter().any(|(to, m)| *to == HOME
            && matches!(m, Msg::PollResponse { req, .. } if *req == RequestId(4))));
        assert_eq!(d.stats().polls_answered, 1);
    }

    #[test]
    fn transfer_adopts_unregistered_replicas() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        let foreign = replica_id("createdElsewhere");
        d.on_msg(
            now(),
            S2,
            Msg::ReplicaData {
                lock: L,
                version: Version(1),
                updates: vec![ReplicaUpdate::new(
                    foreign,
                    ReplicaPayload::Utf8("hi".into()),
                )],
                req: RequestId(0),
            },
            &mut sink,
        );
        assert_eq!(d.read(foreign).unwrap(), &ReplicaPayload::Utf8("hi".into()));
    }

    fn member(d: &mut SiteDaemon, s: SiteId, sink: &mut CmdSink) {
        d.on_msg(
            now(),
            HOME,
            Msg::RegisterReplica {
                lock: L,
                replica: replica_id("idx"),
                site: s,
                name: "idx".into(),
            },
            sink,
        );
    }

    fn ack(d: &mut SiteDaemon, s: SiteId, version: Version, req: RequestId, sink: &mut CmdSink) {
        d.on_msg(
            now(),
            s,
            Msg::PushAck {
                lock: L,
                version,
                site: s,
                req,
            },
            sink,
        );
    }

    #[test]
    fn pipeline_mode_fans_out_all_targets_at_once() {
        let mut d = daemon();
        d.set_push_options(PushConfig {
            delta: false,
            pipeline: true,
        });
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[1])], &mut sink);
        for s in [S2, S3, S4] {
            member(&mut d, s, &mut sink);
        }
        sink.drain();
        let targets = d.disseminate(L, Version(1), 4, &mut sink);
        assert_eq!(targets, vec![S2, S3, S4]);
        let msgs = sends(&mut sink);
        let pushed: Vec<SiteId> = msgs
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::PushUpdate { .. }).then_some(*to))
            .collect();
        assert_eq!(pushed, vec![S2, S3, S4], "whole window in flight at once");
        assert_eq!(d.inflight_pushes(), 3);
        // Acks in any order; completion only after the last.
        ack(&mut d, S3, Version(1), RequestId(1), &mut sink);
        ack(&mut d, S2, Version(1), RequestId(1), &mut sink);
        assert!(signals(&mut sink).is_empty());
        ack(&mut d, S4, Version(1), RequestId(1), &mut sink);
        assert_eq!(
            signals(&mut sink),
            vec![Signal::PushesComplete {
                lock: L,
                acked: vec![S3, S2, S4]
            }]
        );
        assert_eq!(d.inflight_pushes(), 0);
    }

    #[test]
    fn pipeline_mid_window_failure_picks_replacement() {
        let mut d = daemon();
        d.set_push_options(PushConfig {
            delta: false,
            pipeline: true,
        });
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[1])], &mut sink);
        for s in [S2, S3, S4] {
            member(&mut d, s, &mut sink);
        }
        sink.drain();
        // UR=3: window is {S2, S3}; S4 is the spare.
        let targets = d.disseminate(L, Version(1), 3, &mut sink);
        assert_eq!(targets, vec![S2, S3]);
        sink.drain();
        d.on_send_failed(
            &SendTag::Push {
                lock: L,
                to: S2,
                req: RequestId(1),
            },
            &mut sink,
        );
        let msgs = sends(&mut sink);
        assert!(
            msgs.iter()
                .any(|(to, m)| *to == S4 && matches!(m, Msg::PushUpdate { .. })),
            "replacement filled the freed window slot"
        );
        assert_eq!(d.stats().push_replacements, 1);
        ack(&mut d, S3, Version(1), RequestId(1), &mut sink);
        ack(&mut d, S4, Version(1), RequestId(1), &mut sink);
        assert_eq!(
            signals(&mut sink),
            vec![Signal::PushesComplete {
                lock: L,
                acked: vec![S3, S4]
            }]
        );
    }

    fn big() -> Vec<i32> {
        (0..256).collect()
    }

    /// Drives a delta-mode daemon through a full v1 push + ack so the next
    /// release is delta-eligible for S2; returns the daemon.
    fn delta_primed() -> (SiteDaemon, CmdSink) {
        let mut d = daemon();
        d.set_push_options(PushConfig {
            delta: true,
            pipeline: false,
        });
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &big())], &mut sink);
        member(&mut d, S2, &mut sink);
        sink.drain();
        d.disseminate(L, Version(1), 2, &mut sink);
        let msgs = sends(&mut sink);
        assert!(
            msgs.iter()
                .any(|(_, m)| matches!(m, Msg::PushUpdate { .. })),
            "first release has no shadow: full push"
        );
        ack(&mut d, S2, Version(1), RequestId(1), &mut sink);
        sink.drain();
        // Small write inside the big object.
        let mut v = big();
        v[7] = -7;
        d.write(replica_id("idx"), ReplicaPayload::I32s(v)).unwrap();
        (d, sink)
    }

    #[test]
    fn second_release_pushes_delta_to_acked_target() {
        let (mut d, mut sink) = delta_primed();
        d.disseminate(L, Version(2), 2, &mut sink);
        let msgs = sends(&mut sink);
        match &msgs[0] {
            (
                to,
                Msg::PushDelta {
                    lock,
                    base_version,
                    version,
                    deltas,
                    ..
                },
            ) => {
                assert_eq!(*to, S2);
                assert_eq!(*lock, L);
                assert_eq!(*base_version, Version(1));
                assert_eq!(*version, Version(2));
                assert_eq!(deltas.len(), 1);
            }
            other => panic!("expected PushDelta, got {other:?}"),
        }
        let s = d.stats();
        assert_eq!(s.delta_pushes_sent, 1);
        assert!(s.delta_bytes_saved > 0);
        // The delta send put far fewer payload bytes on the wire than the
        // full v1 push did.
        assert!(s.replica_bytes_sent < 1024 + 64, "{}", s.replica_bytes_sent);
    }

    #[test]
    fn delta_nack_falls_back_to_full_push() {
        let (mut d, mut sink) = delta_primed();
        d.disseminate(L, Version(2), 2, &mut sink);
        sink.drain();
        // S2 lost its copy meanwhile and refuses the script.
        d.on_msg(
            now(),
            S2,
            Msg::DeltaNack {
                lock: L,
                site: S2,
                have: Version::INITIAL,
                req: RequestId(2),
            },
            &mut sink,
        );
        let msgs = sends(&mut sink);
        assert!(
            msgs.iter().any(|(to, m)| *to == S2
                && matches!(m, Msg::PushUpdate { version, .. } if *version == Version(2))),
            "full resend after NACK"
        );
        assert_eq!(d.stats().delta_nacks, 1);
        // The target stayed in flight; its ack still completes the task.
        ack(&mut d, S2, Version(2), RequestId(2), &mut sink);
        assert_eq!(
            signals(&mut sink),
            vec![Signal::PushesComplete {
                lock: L,
                acked: vec![S2]
            }]
        );
    }

    #[test]
    fn transfer_uses_delta_for_acked_dest() {
        let (mut d, mut sink) = delta_primed();
        d.disseminate(L, Version(2), 2, &mut sink);
        sink.drain();
        // S2 has not acked v2 yet; its last-acked version is the delta
        // base v1, so a coordinator-directed transfer goes as a script.
        d.on_msg(
            now(),
            HOME,
            Msg::TransferReplica {
                lock: L,
                dest: S2,
                version: Version(2),
                req: RequestId(77),
            },
            &mut sink,
        );
        let msgs = sends(&mut sink);
        assert!(
            msgs.iter().any(|(to, m)| *to == S2
                && matches!(m, Msg::ReplicaDelta { base_version, req, .. }
                    if *base_version == Version(1) && *req == RequestId(77))),
            "transfer to an acked dest ships the script"
        );
    }

    #[test]
    fn receiver_applies_push_delta_and_acks() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[1, 2, 3])], &mut sink);
        sink.drain();
        let id = replica_id("idx");
        // Bring the receiver to v1 via a full push.
        d.on_msg(
            now(),
            S2,
            Msg::PushUpdate {
                lock: L,
                version: Version(1),
                updates: vec![ReplicaUpdate::new(id, ReplicaPayload::I32s(vec![1, 2, 3]))],
                req: RequestId(8),
            },
            &mut sink,
        );
        sink.drain();
        let delta = PayloadDelta::diff(
            &ReplicaPayload::I32s(vec![1, 2, 3]),
            &ReplicaPayload::I32s(vec![1, 9, 3]),
        )
        .unwrap();
        d.on_msg(
            now(),
            S2,
            Msg::PushDelta {
                lock: L,
                base_version: Version(1),
                version: Version(2),
                deltas: vec![ReplicaDeltaUpdate { replica: id, delta }],
                req: RequestId(9),
            },
            &mut sink,
        );
        assert_eq!(d.read(id).unwrap(), &ReplicaPayload::I32s(vec![1, 9, 3]));
        assert_eq!(d.version_of(L), Version(2));
        let cmds = sink.drain();
        assert!(cmds.iter().any(|c| matches!(c,
            Cmd::Send { to, msg: Msg::PushAck { req, .. }, .. } if *to == S2 && *req == RequestId(9))));
        assert!(cmds.iter().any(|c| matches!(
            c,
            Cmd::Signal(Signal::DataArrived {
                version: Version(2),
                ..
            })
        )));
    }

    #[test]
    fn stale_base_receiver_nacks_push_delta() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.register_local(L, &[spec("idx", &[1, 2, 3])], &mut sink);
        sink.drain();
        let id = replica_id("idx");
        // Receiver is still at v0; the script needs base v1.
        let delta = PayloadDelta::diff(
            &ReplicaPayload::I32s(vec![1, 2, 3]),
            &ReplicaPayload::I32s(vec![1, 9, 3]),
        )
        .unwrap();
        d.on_msg(
            now(),
            S2,
            Msg::PushDelta {
                lock: L,
                base_version: Version(1),
                version: Version(2),
                deltas: vec![ReplicaDeltaUpdate { replica: id, delta }],
                req: RequestId(9),
            },
            &mut sink,
        );
        // Value untouched, no ack, no wakeup — just the NACK.
        assert_eq!(d.read(id).unwrap(), &ReplicaPayload::I32s(vec![1, 2, 3]));
        assert_eq!(d.version_of(L), Version::INITIAL);
        let cmds = sink.drain();
        assert!(cmds.iter().any(|c| matches!(c,
            Cmd::Send { to, msg: Msg::DeltaNack { have, .. }, .. }
                if *to == S2 && *have == Version::INITIAL)));
        assert!(!cmds
            .iter()
            .any(|c| matches!(c, Cmd::Signal(Signal::DataArrived { .. }))));
        assert!(!cmds.iter().any(|c| matches!(
            c,
            Cmd::Send {
                msg: Msg::PushAck { .. },
                ..
            }
        )));
    }

    #[test]
    fn ring_growth_pins_known_locks_at_their_old_home() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        d.install_directory(Directory::new(&[ME, HOME], 64));
        d.register_local(L, &[spec("idx", &[1])], &mut sink);
        sink.drain();
        let old_home = d.home_for(L).expect("directory installed");
        // Pick a joiner the bare ring would hand L to: without the pin the
        // daemon would start addressing lock traffic to a coordinator that
        // has no state for it.
        let joiner = (3..=64)
            .map(SiteId)
            .find(|&s| Directory::new(&[ME, HOME, s], 64).home_of(L) == Some(s))
            .expect("some joiner claims L on the bare ring");
        d.add_ring_site(joiner);
        assert_eq!(d.home_for(L), Some(old_home));
    }

    #[test]
    fn departure_reannounces_versions_to_the_new_home() {
        let mut d = daemon();
        let mut sink = CmdSink::new();
        // A two-site ring where the OTHER site homes L, so its departure
        // displaces the lock onto this daemon's own site.
        let dying = (2..=64)
            .map(SiteId)
            .find(|&s| Directory::new(&[ME, s], 64).home_of(L) == Some(s))
            .expect("some site homes L");
        d.install_directory(Directory::new(&[ME, dying], 64));
        d.register_local(L, &[spec("idx", &[1])], &mut sink);
        d.disseminate(L, Version(3), 1, &mut sink);
        sink.drain();
        d.remove_ring_site(dying, &mut sink);
        // The survivor inherits the ring home, and the daemon re-announces
        // its newest durable version to the inheriting coordinator — the
        // raw material of the rebuild poll.
        assert_eq!(d.home_for(L), Some(ME));
        let msgs = sends(&mut sink);
        assert!(msgs.iter().any(|(to, m)| *to == ME
            && matches!(
                m,
                Msg::SiteRecovered { site, versions }
                    if *site == ME && versions.contains(&(L, Version(3)))
            )));
    }
}
