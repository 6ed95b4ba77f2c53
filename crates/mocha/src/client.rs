//! The lock client: the application side of the consistency protocol
//! (paper §3 Figure 5, §4 failure handling), once, for every runtime.
//!
//! A [`LockClient`] is a sans-IO state machine like the coordinator and
//! the daemon: requests, messages, signals and timers go in together with
//! the site's [`SiteDaemon`] and a [`CmdSink`]; protocol messages and
//! timers come out through the sink, and what the application can observe
//! comes out as typed [`ClientEvent`]s. The script interpreter
//! ([`crate::app::AppRunner`]) turns those events into records; the
//! real-time runtimes turn them into replies on a caller's channel.
//!
//! Per lock the client keeps at most one request in front of the
//! coordinator. Further local requests wait in a FIFO behind it
//! (Figure 5's leading `wait()`), and a local hand-off still contacts the
//! coordinator ("a local transfer is not permitted to insure ...
//! fairness"). The request in front moves through
//!
//! ```text
//! WaitGrant --GRANT(VERSIONOK)-------------------------> Held
//!     |  ^  \-GRANT(NEEDNEWVERSION)-> WaitData --data--> Held --release--> (gone)
//!     |  |                               |
//!     |  +--------- retry timer ---------+
//!     |  |
//!     |  +--- retry timer / HomeChanged
//!     v  |
//!   WaitHome   (the acquire could not be delivered)
//! ```
//!
//! A release whose dissemination has targets is deferred until the daemon
//! reports the pushes complete, so the release message names only sites
//! that acknowledged (the coordinator's up-to-date set is never
//! optimistic).

use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Duration;

use mocha_net::{ports, MsgClass};
use mocha_sim::SimTime;
use mocha_wire::message::{LockMode, VersionFlag};
use mocha_wire::{LockId, Msg, ReplicaId, SiteId, ThreadId, Version};

use crate::app::UNGUARDED;
use crate::cmd::{timer_ns, CmdSink, SendTag, Signal};
use crate::config::AvailabilityConfig;
use crate::daemon::SiteDaemon;
use crate::error::MochaError;

/// Timer-token flag (within the APP namespace) marking the client's
/// per-lock retry timer; the low 32 bits carry the lock id.
const RETRY_FLAG: u64 = 1 << 32;

/// How long a stranded request waits before re-trying its acquire against
/// the (possibly healed or relocated) home site.
const HOME_RETRY: Duration = Duration::from_secs(2);

/// How long a granted request waits for its replica data before asking the
/// coordinator again. Deliberately far beyond any legitimate transfer
/// time so the retry never interrupts (and needlessly duplicates) a slow
/// large transfer that is actually progressing.
const DATA_RETRY: Duration = Duration::from_secs(20);

/// How fresh the replica state behind a successful `lock()` is.
///
/// `Stale` is the paper's §4 *weakened consistency*: the newest version
/// died with a failed site, and the freshest *surviving* copy was
/// delivered instead. "The home user can recognize unwanted
/// characteristics of the old version and reapply the appropriate
/// updates."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// The replicas carry the most recent committed version.
    Current,
    /// A newer version was lost to a failure; this is the freshest
    /// surviving state.
    Stale,
}

/// What happened to a request, as the application can observe it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEventKind {
    /// The acquire left for the coordinator (after any local wait).
    Requested,
    /// The coordinator granted the lock.
    Granted,
    /// The replica data a `NEEDNEWVERSION` grant promised arrived.
    DataReady,
    /// Replica data arrived, but older than promised: the freshest
    /// surviving version after a failure.
    DataStale,
    /// The lock is held and the replicas are locally consistent: `lock()`
    /// returns.
    Acquired(Freshness),
    /// The coordinator broke the lock while it was held here.
    Revoked,
    /// The hold ended locally (`unlock()` was called).
    Unlocked,
    /// The dissemination a release waited for finished.
    PushesDone,
    /// The release message left for the coordinator: `unlock()` returns.
    Released {
        /// The lock had been revoked while held.
        revoked: bool,
    },
    /// The acquire could not be delivered; the request waits for a
    /// surrogate announcement or the retry timer.
    HomeUnreachable,
    /// The retry timer re-sent the acquire.
    Retried,
    /// A surrogate coordinator announced itself; the acquire was re-sent
    /// to it.
    Reacquired,
}

/// One observable step of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientEvent {
    /// When it happened.
    pub at: SimTime,
    /// The lock concerned.
    pub lock: LockId,
    /// The ticket the request was made under.
    pub ticket: ThreadId,
    /// What happened.
    pub kind: ClientEventKind,
}

#[derive(Debug, Clone, Copy, Hash)]
struct Request {
    /// Names the request to its issuer, and to the coordinator (which
    /// tells requests from one site apart by it).
    ticket: ThreadId,
    lease_ms: u32,
    mode: LockMode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// AcquireLock sent; awaiting GRANT.
    WaitGrant,
    /// The home site stopped answering; waiting for a surrogate
    /// coordinator to announce itself, or for the retry timer.
    WaitHome,
    /// GRANT said NEEDNEWVERSION; awaiting replica data.
    WaitData { need: Version },
    /// Granted and locally consistent.
    Held,
}

/// The request in front of the coordinator.
#[derive(Debug, Hash)]
struct Front {
    req: Request,
    phase: Phase,
    /// Version of the newest grant received. Kept while the data leg is
    /// retried: the coordinator counts this site as the holder from the
    /// grant on, so heartbeats answer "holding" and a revocation sticks.
    granted: Option<Version>,
    revoked: bool,
}

impl Front {
    /// Whether the lock is held — by `who`, if given.
    fn held_by(&self, who: Option<ThreadId>) -> bool {
        self.phase == Phase::Held && who.is_none_or(|t| t == self.req.ticket)
    }

    /// Puts `req` in front of the coordinator.
    fn start(
        site: SiteId,
        lock: LockId,
        req: Request,
        daemon: &SiteDaemon,
        sink: &mut CmdSink,
    ) -> Front {
        send_acquire(site, lock, req, daemon, sink);
        Front {
            req,
            phase: Phase::WaitGrant,
            granted: None,
            revoked: false,
        }
    }

    /// Re-sends the acquire and goes back to waiting for the grant.
    fn ask_again(&mut self, site: SiteId, lock: LockId, daemon: &SiteDaemon, sink: &mut CmdSink) {
        self.phase = Phase::WaitGrant;
        send_acquire(site, lock, self.req, daemon, sink);
    }
}

/// A release waiting for its dissemination to be acknowledged.
#[derive(Debug, Hash)]
struct Deferred {
    ticket: ThreadId,
    new_version: Version,
}

#[derive(Debug, Default, Hash)]
struct PerLock {
    avail: AvailabilityConfig,
    front: Option<Front>,
    queue: VecDeque<Request>,
    releasing: Option<Deferred>,
}

/// Events not yet taken by the caller.
#[derive(Debug, Default)]
struct Events(VecDeque<ClientEvent>);

impl Events {
    fn emit(&mut self, at: SimTime, lock: LockId, ticket: ThreadId, kind: ClientEventKind) {
        self.0.push_back(ClientEvent {
            at,
            lock,
            ticket,
            kind,
        });
    }
}

/// The client half of the lock protocol for every application thread at
/// one site.
#[derive(Debug)]
pub struct LockClient {
    site: SiteId,
    locks: BTreeMap<LockId, PerLock>,
    events: Events,
}

impl LockClient {
    /// Creates the client for `site`.
    pub fn new(site: SiteId) -> LockClient {
        LockClient {
            site,
            locks: BTreeMap::new(),
            events: Events::default(),
        }
    }

    /// Sets the availability (UR) of `lock`'s replica set.
    pub fn set_availability(&mut self, lock: LockId, avail: AvailabilityConfig) {
        self.locks.entry(lock).or_default().avail = avail;
    }

    /// The oldest event not yet taken. Callers drain this after every
    /// call into the client.
    pub fn next_event(&mut self) -> Option<ClientEvent> {
        self.events.0.pop_front()
    }

    /// Locks application threads here hold right now, for the invariant
    /// oracle. Excludes revoked locks (the coordinator has broken them;
    /// the thread just hasn't released yet) and grants still waiting on
    /// replica data (provisional until the data arrives). Sorted by lock.
    pub fn active_holds(&self) -> Vec<(LockId, LockMode)> {
        self.locks
            .iter()
            .filter_map(|(lock, l)| match &l.front {
                Some(f) if f.phase == Phase::Held && !f.revoked => Some((*lock, f.req.mode)),
                _ => None,
            })
            .collect()
    }

    /// Feeds the protocol state into `h`, for the schedule explorer's
    /// state fingerprint.
    pub fn hash_state(&self, h: &mut impl Hasher) {
        self.site.hash(h);
        self.locks.hash(h);
    }

    /// Entry-consistency guard: a replica associated with a lock may only
    /// be accessed while that lock is held here — by `who`, if given — and
    /// written only under an exclusive hold. Unguarded replicas (the
    /// paper's cached image replicas) are always accessible. `Err` names
    /// the lock that is missing.
    pub fn check_guard(
        &self,
        daemon: &SiteDaemon,
        replica: ReplicaId,
        write: bool,
        who: Option<ThreadId>,
    ) -> Result<(), LockId> {
        match daemon.lock_of(replica) {
            Some(lock) if lock != UNGUARDED => {
                let front = self.locks.get(&lock).and_then(|l| l.front.as_ref());
                match front.filter(|f| f.held_by(who)).map(|f| f.req.mode) {
                    Some(LockMode::Exclusive) => Ok(()),
                    Some(LockMode::Shared) if !write => Ok(()),
                    _ => Err(lock),
                }
            }
            _ => Ok(()),
        }
    }

    /// Requests `lock` under `ticket`. [`ClientEventKind::Acquired`]
    /// reports success; nothing reports failure — a request outlives an
    /// unreachable home and is re-sent until granted.
    #[allow(clippy::too_many_arguments)]
    pub fn acquire(
        &mut self,
        now: SimTime,
        ticket: ThreadId,
        lock: LockId,
        lease_ms: u32,
        mode: LockMode,
        daemon: &SiteDaemon,
        sink: &mut CmdSink,
    ) {
        let req = Request {
            ticket,
            lease_ms,
            mode,
        };
        let l = self.locks.entry(lock).or_default();
        if l.front.is_some() {
            l.queue.push_back(req);
        } else {
            l.front = Some(Front::start(self.site, lock, req, daemon, sink));
            self.events
                .emit(now, lock, ticket, ClientEventKind::Requested);
        }
    }

    /// Releases `lock`, held here (by `who`, if given). `dirty` says the
    /// replicas were modified: the version advances and dissemination
    /// runs. Returns the holder's ticket; [`ClientEventKind::Released`]
    /// under that ticket reports that the release message has left.
    ///
    /// # Errors
    ///
    /// [`MochaError::NotLocked`] if the lock is not held.
    pub fn release(
        &mut self,
        now: SimTime,
        lock: LockId,
        dirty: bool,
        who: Option<ThreadId>,
        daemon: &mut SiteDaemon,
        sink: &mut CmdSink,
    ) -> Result<ThreadId, MochaError> {
        let Some((l, front)) = self.locks.get_mut(&lock).and_then(|l| {
            let front = l.front.take_if(|f| f.held_by(who))?;
            Some((l, front))
        }) else {
            return Err(MochaError::NotLocked { lock });
        };
        let ticket = front.req.ticket;
        let granted = front.granted.unwrap_or(Version::INITIAL);
        // Writes under a shared hold were rejected, so a shared release
        // never advances the version.
        let dirty = dirty && front.req.mode == LockMode::Exclusive;
        let new_version = if dirty { granted.next() } else { granted };
        // A broken lock's value is not disseminated.
        let ur = if dirty && !front.revoked {
            l.avail.ur
        } else {
            1
        };
        let disseminated = daemon.disseminate(lock, new_version, ur, sink);
        self.events
            .emit(now, lock, ticket, ClientEventKind::Unlocked);
        // The release goes out (or is deferred until the pushes are
        // acknowledged) BEFORE the local hand-off, so a successor's
        // acquire can never overtake it to the coordinator.
        if disseminated.is_empty() {
            send_release(self.site, lock, new_version, Vec::new(), daemon, sink);
            let revoked = front.revoked;
            self.events
                .emit(now, lock, ticket, ClientEventKind::Released { revoked });
        } else {
            l.releasing = Some(Deferred {
                ticket,
                new_version,
            });
        }
        // Local hand-off: the next queued request contacts the coordinator
        // itself — it is never handed the data locally.
        if let Some(next) = l.queue.pop_front() {
            l.front = Some(Front::start(self.site, lock, next, daemon, sink));
            self.events
                .emit(now, lock, next.ticket, ClientEventKind::Requested);
        }
        Ok(ticket)
    }

    /// Handles a protocol message addressed to the APP port.
    pub fn on_msg(
        &mut self,
        now: SimTime,
        from: SiteId,
        msg: Msg,
        daemon: &SiteDaemon,
        sink: &mut CmdSink,
    ) {
        match msg {
            Msg::Grant {
                lock,
                version,
                flag,
            } => {
                // Not waiting: nobody asked, or a duplicate of a grant
                // already taken.
                let Some(front) =
                    front_of(&mut self.locks, lock).filter(|f| f.phase == Phase::WaitGrant)
                else {
                    return;
                };
                let ticket = front.req.ticket;
                front.granted = Some(version);
                self.events
                    .emit(now, lock, ticket, ClientEventKind::Granted);
                if flag == VersionFlag::VersionOk || daemon.version_of(lock) >= version {
                    front.phase = Phase::Held;
                    let acquired = ClientEventKind::Acquired(Freshness::Current);
                    self.events.emit(now, lock, ticket, acquired);
                } else {
                    front.phase = Phase::WaitData { need: version };
                    // Guard against a failed data leg (e.g. the transfer
                    // source is partitioned from us): re-ask the
                    // coordinator if the data does not arrive. The
                    // coordinator re-grants and re-directs the transfer.
                    sink.set_timer(retry_token(lock), DATA_RETRY);
                }
            }
            Msg::Heartbeat { lock, req } => {
                // Liveness + hold check from the coordinator (§4).
                let holding = front_of(&mut self.locks, lock).is_some_and(|f| f.granted.is_some());
                sink.send(
                    from,
                    ports::SYNC,
                    Msg::HeartbeatAck {
                        site: self.site,
                        req,
                        holding,
                    },
                    MsgClass::Control,
                );
            }
            Msg::LockRevoked { lock, .. } => {
                if let Some(front) = front_of(&mut self.locks, lock).filter(|f| f.granted.is_some())
                {
                    front.revoked = true;
                    self.events
                        .emit(now, lock, front.req.ticket, ClientEventKind::Revoked);
                }
            }
            _ => {}
        }
    }

    /// Handles a local signal from the daemon.
    pub fn on_signal(
        &mut self,
        now: SimTime,
        signal: Signal,
        daemon: &SiteDaemon,
        sink: &mut CmdSink,
    ) {
        match signal {
            Signal::DataArrived { lock, version } => {
                let Some(front) = front_of(&mut self.locks, lock) else {
                    return;
                };
                let Phase::WaitData { need } = front.phase else {
                    return;
                };
                // The thread proceeds with whatever version the daemon
                // now holds; older than promised is §4's weakened
                // consistency.
                front.granted = Some(daemon.version_of(lock));
                front.phase = Phase::Held;
                let ticket = front.req.ticket;
                let (data, freshness) = if version >= need {
                    (ClientEventKind::DataReady, Freshness::Current)
                } else {
                    (ClientEventKind::DataStale, Freshness::Stale)
                };
                self.events.emit(now, lock, ticket, data);
                let acquired = ClientEventKind::Acquired(freshness);
                self.events.emit(now, lock, ticket, acquired);
            }
            Signal::PushesComplete { lock, acked } => {
                let Some(d) = self.locks.get_mut(&lock).and_then(|l| l.releasing.take()) else {
                    return;
                };
                self.events
                    .emit(now, lock, d.ticket, ClientEventKind::PushesDone);
                send_release(self.site, lock, d.new_version, acked, daemon, sink);
                // A revoked release is never disseminated, so never
                // deferred.
                let released = ClientEventKind::Released { revoked: false };
                self.events.emit(now, lock, d.ticket, released);
            }
            Signal::HomeChanged { .. } => {
                // The surrogate announced itself (the daemon already
                // routes to it): re-send every acquire that was
                // outstanding or stranded.
                for (&lock, l) in &mut self.locks {
                    let Some(front) = l
                        .front
                        .as_mut()
                        .filter(|f| matches!(f.phase, Phase::WaitHome | Phase::WaitGrant))
                    else {
                        continue;
                    };
                    front.ask_again(self.site, lock, daemon, sink);
                    let reacquired = ClientEventKind::Reacquired;
                    self.events.emit(now, lock, front.req.ticket, reacquired);
                }
            }
            Signal::SpawnDone { .. } => {}
        }
    }

    /// Handles a timer. Returns `true` if the token was the client's.
    pub fn on_timer(
        &mut self,
        now: SimTime,
        token: u64,
        daemon: &SiteDaemon,
        sink: &mut CmdSink,
    ) -> bool {
        if timer_ns::of(token) != timer_ns::APP || token & RETRY_FLAG == 0 {
            return false;
        }
        // Acquire retry for a request stranded by home unreachability or
        // by a transfer whose data leg failed. It routes through the
        // daemon (§4: threads "query the local daemon thread to obtain
        // the location of the newly created surrogate synchronization
        // thread"), which may have learned a new home meanwhile.
        let lock = LockId((token & 0xffff_ffff) as u32);
        if let Some(front) = front_of(&mut self.locks, lock)
            .filter(|f| matches!(f.phase, Phase::WaitHome | Phase::WaitData { .. }))
        {
            front.ask_again(self.site, lock, daemon, sink);
            self.events
                .emit(now, lock, front.req.ticket, ClientEventKind::Retried);
        }
        true
    }

    /// Handles a transport failure of a tagged send. The request does not
    /// fail: it waits for either a surrogate coordinator announcement
    /// (§4's synchronization-thread recovery) or a periodic retry — the
    /// home may merely be partitioned away and the path may heal.
    pub fn on_send_failed(&mut self, now: SimTime, tag: &SendTag, sink: &mut CmdSink) {
        let SendTag::Acquire { lock } = *tag else {
            return;
        };
        if let Some(front) = front_of(&mut self.locks, lock).filter(|f| f.phase == Phase::WaitGrant)
        {
            front.phase = Phase::WaitHome;
            sink.set_timer(retry_token(lock), HOME_RETRY);
            let unreachable = ClientEventKind::HomeUnreachable;
            self.events.emit(now, lock, front.req.ticket, unreachable);
        }
    }
}

fn front_of(locks: &mut BTreeMap<LockId, PerLock>, lock: LockId) -> Option<&mut Front> {
    locks.get_mut(&lock)?.front.as_mut()
}

fn send_acquire(site: SiteId, lock: LockId, req: Request, daemon: &SiteDaemon, sink: &mut CmdSink) {
    sink.send_tagged(
        daemon.sync_home(lock),
        ports::SYNC,
        Msg::AcquireLock {
            lock,
            site,
            thread: req.ticket,
            lease_hint_ms: req.lease_ms,
            mode: req.mode,
        },
        MsgClass::Control,
        SendTag::Acquire { lock },
    );
}

fn send_release(
    site: SiteId,
    lock: LockId,
    new_version: Version,
    disseminated_to: Vec<SiteId>,
    daemon: &SiteDaemon,
    sink: &mut CmdSink,
) {
    sink.send(
        daemon.sync_home(lock),
        ports::SYNC,
        Msg::ReleaseLock {
            lock,
            site,
            new_version,
            disseminated_to,
        },
        MsgClass::Control,
    );
}

fn retry_token(lock: LockId) -> u64 {
    timer_ns::APP | RETRY_FLAG | u64::from(lock.as_raw())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::Cmd;
    use mocha_wire::codec::CodecKind;
    use mocha_wire::{ReplicaPayload, RequestId};

    const SITE: SiteId = SiteId(1);
    const HOME: SiteId = SiteId(0);
    const L: LockId = LockId(1);
    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn setup() -> (LockClient, SiteDaemon, CmdSink) {
        let mut daemon = SiteDaemon::new(SITE, HOME, CodecKind::ByteAtATime);
        let mut sink = CmdSink::new();
        let x = crate::replica::ReplicaSpec::new("x", ReplicaPayload::empty());
        daemon.register_local(L, &[x], &mut sink);
        sink.drain();
        (LockClient::new(SITE), daemon, sink)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    fn grant(version: u64, flag: VersionFlag) -> Msg {
        Msg::Grant {
            lock: L,
            version: Version(version),
            flag,
        }
    }

    fn acquire(c: &mut LockClient, ticket: ThreadId, d: &SiteDaemon, sink: &mut CmdSink) {
        c.acquire(t(0), ticket, L, 0, LockMode::Exclusive, d, sink);
    }

    /// Everything reported since the last call, as (ticket, kind).
    fn events(c: &mut LockClient) -> Vec<(ThreadId, ClientEventKind)> {
        std::iter::from_fn(|| c.next_event())
            .map(|e| (e.ticket, e.kind))
            .collect()
    }

    /// Destinations of the acquires queued since the last drain.
    fn acquires(sink: &mut CmdSink) -> Vec<(SiteId, ThreadId)> {
        sink.drain()
            .into_iter()
            .filter_map(|c| match c {
                Cmd::Send {
                    to,
                    msg: Msg::AcquireLock { thread, .. },
                    tag,
                    ..
                } => {
                    assert_eq!(tag, SendTag::Acquire { lock: L });
                    Some((to, thread))
                }
                _ => None,
            })
            .collect()
    }

    /// (version, disseminated_to) of the releases queued since the last
    /// drain.
    fn releases(sink: &mut CmdSink) -> Vec<(Version, Vec<SiteId>)> {
        sink.drain()
            .into_iter()
            .filter_map(|c| match c {
                Cmd::Send {
                    msg:
                        Msg::ReleaseLock {
                            new_version,
                            disseminated_to,
                            ..
                        },
                    ..
                } => Some((new_version, disseminated_to)),
                _ => None,
            })
            .collect()
    }

    fn data_arrives(c: &mut LockClient, d: &mut SiteDaemon, sink: &mut CmdSink, version: u64) {
        d.on_msg(
            t(9),
            SiteId(2),
            Msg::ReplicaData {
                lock: L,
                version: Version(version),
                updates: vec![],
                req: RequestId(0),
            },
            sink,
        );
        let signal = Signal::DataArrived {
            lock: L,
            version: Version(version),
        };
        c.on_signal(t(10), signal, d, sink);
    }

    #[test]
    fn acquire_goes_to_the_home_and_waits() {
        let (mut c, d, mut sink) = setup();
        acquire(&mut c, T0, &d, &mut sink);
        assert_eq!(acquires(&mut sink), vec![(HOME, T0)]);
        assert_eq!(events(&mut c), vec![(T0, ClientEventKind::Requested)]);
        assert!(c.active_holds().is_empty());
    }

    #[test]
    fn version_ok_grant_acquires_and_a_clean_release_keeps_the_version() {
        let (mut c, mut d, mut sink) = setup();
        acquire(&mut c, T0, &d, &mut sink);
        c.on_msg(t(5), HOME, grant(3, VersionFlag::VersionOk), &d, &mut sink);
        assert_eq!(c.active_holds(), vec![(L, LockMode::Exclusive)]);
        assert_eq!(c.release(t(6), L, false, None, &mut d, &mut sink), Ok(T0));
        assert_eq!(
            events(&mut c),
            vec![
                (T0, ClientEventKind::Requested),
                (T0, ClientEventKind::Granted),
                (T0, ClientEventKind::Acquired(Freshness::Current)),
                (T0, ClientEventKind::Unlocked),
                (T0, ClientEventKind::Released { revoked: false }),
            ]
        );
        assert_eq!(releases(&mut sink), vec![(Version(3), vec![])]);
        assert!(c.active_holds().is_empty());
    }

    #[test]
    fn a_grant_nobody_waits_for_is_ignored() {
        let (mut c, mut d, mut sink) = setup();
        c.on_msg(t(1), HOME, grant(0, VersionFlag::VersionOk), &d, &mut sink);
        assert!(events(&mut c).is_empty());
        // A duplicate of a grant already taken changes nothing either.
        acquire(&mut c, T0, &d, &mut sink);
        c.on_msg(t(5), HOME, grant(2, VersionFlag::VersionOk), &d, &mut sink);
        c.on_msg(
            t(6),
            HOME,
            grant(9, VersionFlag::NeedNewVersion),
            &d,
            &mut sink,
        );
        assert_eq!(c.active_holds(), vec![(L, LockMode::Exclusive)]);
        c.release(t(7), L, true, None, &mut d, &mut sink).unwrap();
        assert_eq!(releases(&mut sink), vec![(Version(3), vec![])]);
    }

    #[test]
    fn need_new_version_waits_for_data() {
        let (mut c, mut d, mut sink) = setup();
        acquire(&mut c, T0, &d, &mut sink);
        events(&mut c);
        c.on_msg(
            t(5),
            HOME,
            grant(3, VersionFlag::NeedNewVersion),
            &d,
            &mut sink,
        );
        assert_eq!(events(&mut c), vec![(T0, ClientEventKind::Granted)]);
        assert!(c.active_holds().is_empty(), "provisional until the data");
        assert!(sink.drain().iter().any(
            |cmd| matches!(cmd, Cmd::SetTimer { token, after } if *token == retry_token(L) && *after == DATA_RETRY)
        ));
        data_arrives(&mut c, &mut d, &mut sink, 3);
        assert_eq!(
            events(&mut c),
            vec![
                (T0, ClientEventKind::DataReady),
                (T0, ClientEventKind::Acquired(Freshness::Current)),
            ]
        );
        assert_eq!(c.active_holds(), vec![(L, LockMode::Exclusive)]);
    }

    #[test]
    fn stale_data_is_reported_and_still_acquires() {
        let (mut c, mut d, mut sink) = setup();
        acquire(&mut c, T0, &d, &mut sink);
        c.on_msg(
            t(5),
            HOME,
            grant(9, VersionFlag::NeedNewVersion),
            &d,
            &mut sink,
        );
        events(&mut c);
        // Recovery could only find version 2.
        data_arrives(&mut c, &mut d, &mut sink, 2);
        assert_eq!(
            events(&mut c),
            vec![
                (T0, ClientEventKind::DataStale),
                (T0, ClientEventKind::Acquired(Freshness::Stale)),
            ]
        );
        // The next version continues from what the daemon actually holds.
        sink.drain();
        c.release(t(20), L, true, None, &mut d, &mut sink).unwrap();
        assert_eq!(releases(&mut sink), vec![(Version(3), vec![])]);
    }

    #[test]
    fn a_lost_data_leg_re_asks_and_keeps_the_grant() {
        let (mut c, mut d, mut sink) = setup();
        acquire(&mut c, T0, &d, &mut sink);
        c.on_msg(
            t(5),
            HOME,
            grant(3, VersionFlag::NeedNewVersion),
            &d,
            &mut sink,
        );
        sink.drain();
        events(&mut c);
        assert!(c.on_timer(t(20_005), retry_token(L), &d, &mut sink));
        assert_eq!(events(&mut c), vec![(T0, ClientEventKind::Retried)]);
        assert_eq!(acquires(&mut sink), vec![(HOME, T0)]);
        // The coordinator still counts this site as the holder.
        c.on_msg(
            t(20_006),
            HOME,
            Msg::Heartbeat {
                lock: L,
                req: RequestId(7),
            },
            &d,
            &mut sink,
        );
        assert!(sink.drain().iter().any(|cmd| matches!(
            cmd,
            Cmd::Send {
                msg: Msg::HeartbeatAck { holding: true, .. },
                ..
            }
        )));
        // The re-grant restarts the wait; the data then completes it.
        c.on_msg(
            t(20_010),
            HOME,
            grant(3, VersionFlag::NeedNewVersion),
            &d,
            &mut sink,
        );
        data_arrives(&mut c, &mut d, &mut sink, 3);
        assert_eq!(c.active_holds(), vec![(L, LockMode::Exclusive)]);
        // Once held, the timer is nobody's business any more.
        sink.drain();
        assert!(c.on_timer(t(40_010), retry_token(L), &d, &mut sink));
        assert!(sink.is_empty());
    }

    #[test]
    fn dirty_release_advances_the_version() {
        let (mut c, mut d, mut sink) = setup();
        acquire(&mut c, T0, &d, &mut sink);
        c.on_msg(t(5), HOME, grant(4, VersionFlag::VersionOk), &d, &mut sink);
        sink.drain();
        c.release(t(6), L, true, None, &mut d, &mut sink).unwrap();
        assert_eq!(releases(&mut sink), vec![(Version(5), vec![])]);
        assert_eq!(d.version_of(L), Version(5));
    }

    #[test]
    fn a_shared_release_never_advances_the_version() {
        let (mut c, mut d, mut sink) = setup();
        c.acquire(t(0), T0, L, 0, LockMode::Shared, &d, &mut sink);
        c.on_msg(t(5), HOME, grant(4, VersionFlag::VersionOk), &d, &mut sink);
        sink.drain();
        c.release(t(6), L, true, None, &mut d, &mut sink).unwrap();
        assert_eq!(releases(&mut sink), vec![(Version(4), vec![])]);
    }

    #[test]
    fn local_requests_queue_fairly_and_each_contacts_the_coordinator() {
        let (mut c, mut d, mut sink) = setup();
        acquire(&mut c, T0, &d, &mut sink);
        acquire(&mut c, T1, &d, &mut sink);
        // Only one acquire so far (the second request waits locally).
        assert_eq!(acquires(&mut sink), vec![(HOME, T0)]);
        c.on_msg(t(5), HOME, grant(0, VersionFlag::VersionOk), &d, &mut sink);
        assert_eq!(
            c.release(t(6), L, false, Some(T1), &mut d, &mut sink),
            Err(MochaError::NotLocked { lock: L }),
            "the waiter does not hold the lock"
        );
        c.release(t(6), L, false, Some(T0), &mut d, &mut sink)
            .unwrap();
        // The release is queued before the successor's own acquire (no
        // local short-circuit, and it can never overtake the release).
        let cmds = sink.drain();
        let release = cmds.iter().position(|cmd| {
            matches!(
                cmd,
                Cmd::Send {
                    msg: Msg::ReleaseLock { .. },
                    ..
                }
            )
        });
        let acquire = cmds.iter().position(|cmd| {
            matches!(cmd, Cmd::Send { msg: Msg::AcquireLock { thread, .. }, .. } if *thread == T1)
        });
        assert!(release.is_some() && release < acquire, "{cmds:?}");
        c.on_msg(t(8), HOME, grant(0, VersionFlag::VersionOk), &d, &mut sink);
        let acquired: Vec<ThreadId> = events(&mut c)
            .into_iter()
            .filter(|(_, k)| matches!(k, ClientEventKind::Acquired(_)))
            .map(|(ticket, _)| ticket)
            .collect();
        assert_eq!(acquired, vec![T0, T1]);
    }

    #[test]
    fn home_unreachable_waits_for_the_surrogate_and_reacquires() {
        let (mut c, mut d, mut sink) = setup();
        acquire(&mut c, T0, &d, &mut sink);
        sink.drain();
        events(&mut c);
        c.on_send_failed(t(10), &SendTag::Acquire { lock: L }, &mut sink);
        assert_eq!(events(&mut c), vec![(T0, ClientEventKind::HomeUnreachable)]);
        assert!(sink.drain().iter().any(
            |cmd| matches!(cmd, Cmd::SetTimer { token, after } if *token == retry_token(L) && *after == HOME_RETRY)
        ));
        // Nothing announced yet: the retry goes to the same home.
        assert!(c.on_timer(t(2_010), retry_token(L), &d, &mut sink));
        assert_eq!(acquires(&mut sink), vec![(HOME, T0)]);
        assert_eq!(events(&mut c), vec![(T0, ClientEventKind::Retried)]);
        c.on_send_failed(t(2_020), &SendTag::Acquire { lock: L }, &mut sink);
        sink.drain();
        events(&mut c);
        // A surrogate at site 5 announces itself (through the daemon).
        d.on_msg(
            t(3_000),
            SiteId(5),
            Msg::SyncMoved {
                new_home: SiteId(5),
            },
            &mut sink,
        );
        sink.drain();
        c.on_signal(
            t(3_000),
            Signal::HomeChanged {
                new_home: SiteId(5),
            },
            &d,
            &mut sink,
        );
        assert_eq!(acquires(&mut sink), vec![(SiteId(5), T0)]);
        assert_eq!(events(&mut c), vec![(T0, ClientEventKind::Reacquired)]);
        c.on_msg(
            t(3_005),
            SiteId(5),
            grant(0, VersionFlag::VersionOk),
            &d,
            &mut sink,
        );
        assert_eq!(c.active_holds(), vec![(L, LockMode::Exclusive)]);
        // The release follows the coordinator too.
        c.release(t(3_006), L, false, None, &mut d, &mut sink)
            .unwrap();
        assert!(sink.drain().iter().any(|cmd| matches!(cmd,
            Cmd::Send { to, msg: Msg::ReleaseLock { .. }, .. } if *to == SiteId(5))));
    }

    #[test]
    fn revocation_while_held_marks_the_release() {
        let (mut c, mut d, mut sink) = setup();
        c.set_availability(L, AvailabilityConfig { ur: 2 });
        learn_member(&mut d, &mut sink);
        acquire(&mut c, T0, &d, &mut sink);
        c.on_msg(t(5), HOME, grant(0, VersionFlag::VersionOk), &d, &mut sink);
        events(&mut c);
        // While the critical section runs, the coordinator breaks the lock.
        let revoked = Msg::LockRevoked {
            lock: L,
            version: Version(0),
        };
        c.on_msg(t(50), HOME, revoked, &d, &mut sink);
        assert_eq!(events(&mut c), vec![(T0, ClientEventKind::Revoked)]);
        assert!(c.active_holds().is_empty(), "a broken hold is no hold");
        sink.drain();
        c.release(t(105), L, true, None, &mut d, &mut sink).unwrap();
        assert_eq!(
            events(&mut c),
            vec![
                (T0, ClientEventKind::Unlocked),
                (T0, ClientEventKind::Released { revoked: true }),
            ]
        );
        // A broken lock's value is not disseminated.
        assert_eq!(releases(&mut sink), vec![(Version(1), vec![])]);
    }

    /// Teaches the daemon about member site 2 (a coordinator forward), so
    /// dissemination has a target.
    fn learn_member(d: &mut SiteDaemon, sink: &mut CmdSink) {
        d.on_msg(
            t(1),
            HOME,
            Msg::RegisterReplica {
                lock: L,
                replica: crate::replica::replica_id("x"),
                site: SiteId(2),
                name: "x".into(),
            },
            sink,
        );
        sink.drain();
    }

    #[test]
    fn release_is_deferred_until_pushes_complete() {
        let (mut c, mut d, mut sink) = setup();
        c.set_availability(L, AvailabilityConfig { ur: 2 });
        learn_member(&mut d, &mut sink);
        acquire(&mut c, T0, &d, &mut sink);
        acquire(&mut c, T1, &d, &mut sink);
        c.on_msg(t(5), HOME, grant(0, VersionFlag::VersionOk), &d, &mut sink);
        sink.drain();
        events(&mut c);
        c.release(t(6), L, true, None, &mut d, &mut sink).unwrap();
        assert_eq!(
            events(&mut c),
            vec![
                (T0, ClientEventKind::Unlocked),
                (T1, ClientEventKind::Requested),
            ],
            "no Released yet; the local successor already asks"
        );
        let cmds = sink.drain();
        assert!(!cmds.iter().any(|cmd| matches!(
            cmd,
            Cmd::Send {
                msg: Msg::ReleaseLock { .. },
                ..
            }
        )));
        // A deferred release is not a hold any more.
        c.on_msg(
            t(7),
            HOME,
            Msg::Heartbeat {
                lock: L,
                req: RequestId(3),
            },
            &d,
            &mut sink,
        );
        assert!(sink.drain().iter().any(|cmd| matches!(cmd,
            Cmd::Send { to, msg: Msg::HeartbeatAck { holding: false, .. }, .. } if *to == HOME)));
        let done = Signal::PushesComplete {
            lock: L,
            acked: vec![SiteId(2)],
        };
        c.on_signal(t(10), done, &d, &mut sink);
        assert_eq!(
            events(&mut c),
            vec![
                (T0, ClientEventKind::PushesDone),
                (T0, ClientEventKind::Released { revoked: false }),
            ]
        );
        assert_eq!(releases(&mut sink), vec![(Version(1), vec![SiteId(2)])]);
    }

    #[test]
    fn guard_requires_the_hold_the_mode_and_the_holder() {
        let (mut c, d, mut sink) = setup();
        let x = crate::replica::replica_id("x");
        assert_eq!(c.check_guard(&d, x, false, None), Err(L));
        c.acquire(t(0), T0, L, 0, LockMode::Shared, &d, &mut sink);
        assert_eq!(c.check_guard(&d, x, false, None), Err(L), "not granted yet");
        c.on_msg(t(5), HOME, grant(0, VersionFlag::VersionOk), &d, &mut sink);
        assert_eq!(c.check_guard(&d, x, false, None), Ok(()));
        assert_eq!(c.check_guard(&d, x, false, Some(T0)), Ok(()));
        assert_eq!(c.check_guard(&d, x, false, Some(T1)), Err(L));
        assert_eq!(c.check_guard(&d, x, true, Some(T0)), Err(L), "shared hold");
        let unknown = crate::replica::replica_id("elsewhere");
        assert_eq!(c.check_guard(&d, unknown, true, None), Ok(()));
    }

    #[test]
    fn fingerprint_follows_the_protocol_state() {
        let digest = |c: &LockClient| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            c.hash_state(&mut h);
            h.finish()
        };
        let (mut c, d, mut sink) = setup();
        let idle = digest(&c);
        acquire(&mut c, T0, &d, &mut sink);
        let waiting = digest(&c);
        c.on_msg(t(5), HOME, grant(0, VersionFlag::VersionOk), &d, &mut sink);
        let held = digest(&c);
        assert!(idle != waiting && waiting != held);
        // Undrained events are not state.
        events(&mut c);
        assert_eq!(digest(&c), held);
    }
}
