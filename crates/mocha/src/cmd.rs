//! Commands emitted by protocol components and local cross-component
//! signals.
//!
//! Every protocol actor (coordinator, daemon, lock client, site manager)
//! is a state machine: events in, [`Cmd`]s out. A *driver* (the
//! simulator host in [`crate::runtime::sim`], the site event loop in
//! [`crate::runtime::thread`]) executes the commands — sending messages
//! through a transport, charging CPU, arming timers, and routing
//! [`Signal`]s between components on the same site.

use std::time::Duration;

use mocha_net::{MsgClass, Port};
use mocha_sim::Work;
use mocha_store::EditScript;
use mocha_wire::message::ReplicaUpdate;
use mocha_wire::{LockId, Msg, RequestId, SiteId, Version};

use crate::travelbag::TravelBag;

/// Correlates a transport-level send with the protocol intention behind
/// it, so [`TransportEvent::SendFailed`](mocha_net::TransportEvent)
/// notifications can be routed back to the right state machine — the
/// mechanism behind all of §4's "the message times out" failure
/// detections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendTag {
    /// No follow-up needed.
    None,
    /// Coordinator → daemon transfer directive; failure means the daemon
    /// (and so its site) is dead and recovery polling must start.
    TransferDirective {
        /// Lock whose replicas were to be transferred.
        lock: LockId,
        /// The daemon that was asked (the suspect).
        from: SiteId,
        /// Intended recipient of the replica data.
        dest: SiteId,
        /// Directive correlation id.
        req: RequestId,
    },
    /// Daemon → daemon dissemination push; failure means choosing another
    /// target.
    Push {
        /// Lock whose value was pushed.
        lock: LockId,
        /// The dead target.
        to: SiteId,
        /// Push task id.
        req: RequestId,
    },
    /// Coordinator → daemon heartbeat; failure confirms owner death.
    Heartbeat {
        /// Lock whose owner is suspected.
        lock: LockId,
        /// The suspected site.
        site: SiteId,
        /// Heartbeat correlation id.
        req: RequestId,
    },
    /// Application → coordinator lock request; failure means the home site
    /// is unreachable.
    Acquire {
        /// The requested lock.
        lock: LockId,
    },
    /// Coordinator → coordinator home-migration handshake message (offer
    /// or fenced commit); failure aborts the migration — or, for a commit,
    /// reinstates the retired lock at the old home.
    Migrate {
        /// The lock being re-homed.
        lock: LockId,
        /// The unreachable counterpart coordinator.
        site: SiteId,
        /// The migration's fence epoch.
        epoch: u64,
    },
    /// Site manager → remote site spawn request; failure means the
    /// destination is dead and the spawn must report an error.
    Spawn {
        /// The spawn's correlation id.
        req: RequestId,
    },
}

/// A local, same-site notification between components.
#[derive(Debug, Clone, PartialEq)]
pub enum Signal {
    /// The daemon applied replica data for `lock` at `version`; threads
    /// waiting for that data may proceed.
    DataArrived {
        /// The lock whose replica set was updated.
        lock: LockId,
        /// Version now held locally.
        version: Version,
    },
    /// All dissemination pushes for `lock` have been acknowledged (or
    /// abandoned). `acked` lists the sites that confirmed applying the
    /// new value — the accurate dissemination set the release message
    /// reports to the coordinator.
    PushesComplete {
        /// The lock whose pushes finished.
        lock: LockId,
        /// Sites that acknowledged the push.
        acked: Vec<SiteId>,
    },
    /// The synchronization thread moved to a new site (surrogate
    /// recovery); pending coordinator traffic should be redirected.
    HomeChanged {
        /// The surrogate's site.
        new_home: SiteId,
    },
    /// A spawn initiated from this site completed.
    SpawnDone {
        /// The originating request.
        req: RequestId,
        /// The task's result bag (empty on failure).
        result: TravelBag,
        /// Whether the task succeeded.
        ok: bool,
    },
}

/// An instruction from a protocol component to its driver.
#[derive(Debug)]
pub enum Cmd {
    /// Send a protocol message.
    Send {
        /// Destination site.
        to: SiteId,
        /// Destination port.
        port: Port,
        /// The message.
        msg: Msg,
        /// Control or bulk (protocol selection in hybrid mode).
        class: MsgClass,
        /// Correlation tag for failure notifications.
        tag: SendTag,
    },
    /// Charge abstract protocol work to the local CPU.
    Charge(Work),
    /// Charge raw computation time (application work).
    ChargeTime(Duration),
    /// Arm (or re-arm) a component timer.
    SetTimer {
        /// Namespaced token.
        token: u64,
        /// Delay from now.
        after: Duration,
    },
    /// Cancel a component timer.
    CancelTimer {
        /// Namespaced token.
        token: u64,
    },
    /// Journal an applied `(lock, version)` statement in the site's
    /// durable store, if one is attached. Drivers without a store (the
    /// default) drop this command — durability is strictly opt-in.
    Persist {
        /// The lock whose replica set reached `version` locally.
        lock: LockId,
        /// The version now held.
        version: Version,
        /// Full payloads of every replica guarded by the lock.
        updates: Vec<ReplicaUpdate>,
        /// The edit script that produced `version`, when the daemon holds
        /// one (it cut the release's delta, or accepted a delta push). The
        /// store journals it in place of the payloads when its log holds
        /// the script's base.
        script: Option<EditScript>,
    },
    /// Notify another component on the same site.
    Signal(Signal),
    /// Record a diagnostic annotation (goes to the sim trace / log).
    Note(String),
    /// Output from `mochaPrintln` — surfaced to the harness/console.
    Print(String),
}

/// Accumulates commands inside a component.
#[derive(Debug, Default)]
pub struct CmdSink {
    cmds: Vec<Cmd>,
}

impl CmdSink {
    /// Creates an empty sink.
    pub fn new() -> CmdSink {
        CmdSink::default()
    }

    /// Queues a message send.
    pub fn send(&mut self, to: SiteId, port: Port, msg: Msg, class: MsgClass) {
        self.cmds.push(Cmd::Send {
            to,
            port,
            msg,
            class,
            tag: SendTag::None,
        });
    }

    /// Queues a message send with a failure-correlation tag.
    pub fn send_tagged(&mut self, to: SiteId, port: Port, msg: Msg, class: MsgClass, tag: SendTag) {
        self.cmds.push(Cmd::Send {
            to,
            port,
            msg,
            class,
            tag,
        });
    }

    /// Queues a CPU work charge (elided when zero).
    pub fn charge(&mut self, work: Work) {
        if !work.is_none() {
            self.cmds.push(Cmd::Charge(work));
        }
    }

    /// Queues a raw time charge (elided when zero).
    pub fn charge_time(&mut self, d: Duration) {
        if !d.is_zero() {
            self.cmds.push(Cmd::ChargeTime(d));
        }
    }

    /// Queues a timer arm.
    pub fn set_timer(&mut self, token: u64, after: Duration) {
        self.cmds.push(Cmd::SetTimer { token, after });
    }

    /// Queues a timer cancel.
    pub fn cancel_timer(&mut self, token: u64) {
        self.cmds.push(Cmd::CancelTimer { token });
    }

    /// Queues a durable-store append.
    pub fn persist(
        &mut self,
        lock: LockId,
        version: Version,
        updates: Vec<ReplicaUpdate>,
        script: Option<EditScript>,
    ) {
        self.cmds.push(Cmd::Persist {
            lock,
            version,
            updates,
            script,
        });
    }

    /// Queues a local signal.
    pub fn signal(&mut self, s: Signal) {
        self.cmds.push(Cmd::Signal(s));
    }

    /// Queues a diagnostic note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.cmds.push(Cmd::Note(text.into()));
    }

    /// Queues console output.
    pub fn print(&mut self, text: impl Into<String>) {
        self.cmds.push(Cmd::Print(text.into()));
    }

    /// Drains queued commands in order.
    pub fn drain(&mut self) -> Vec<Cmd> {
        std::mem::take(&mut self.cmds)
    }

    /// Whether any commands are queued.
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }
}

/// Timer-token namespaces for the protocol components (transports use
/// `0x01`/`0x02`).
pub mod timer_ns {
    /// The synchronization coordinator.
    pub const COORD: u64 = 0x03 << 56;
    /// Site daemons.
    pub const DAEMON: u64 = 0x04 << 56;
    /// The lock client (per-lock retry timers) and the script runner
    /// (sleep timers).
    pub const APP: u64 = 0x05 << 56;
    /// Site managers.
    pub const MANAGER: u64 = 0x06 << 56;

    /// Extracts the namespace bits of a token.
    pub fn of(token: u64) -> u64 {
        token & (0xff << 56)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocha_net::ports;

    #[test]
    fn sink_preserves_order() {
        let mut sink = CmdSink::new();
        sink.charge(Work::events(1));
        sink.send(
            SiteId(1),
            ports::SYNC,
            Msg::Heartbeat {
                lock: LockId(1),
                req: RequestId(1),
            },
            MsgClass::Control,
        );
        sink.signal(Signal::PushesComplete {
            lock: LockId(1),
            acked: vec![],
        });
        let cmds = sink.drain();
        assert!(matches!(cmds[0], Cmd::Charge(_)));
        assert!(matches!(cmds[1], Cmd::Send { .. }));
        assert!(matches!(cmds[2], Cmd::Signal(_)));
        assert!(sink.is_empty());
    }

    #[test]
    fn zero_charges_elided() {
        let mut sink = CmdSink::new();
        sink.charge(Work::NONE);
        sink.charge_time(Duration::ZERO);
        assert!(sink.is_empty());
    }

    #[test]
    fn namespaces_are_distinct() {
        let all = [
            timer_ns::COORD,
            timer_ns::DAEMON,
            timer_ns::APP,
            timer_ns::MANAGER,
        ];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                if i != j {
                    assert_ne!(timer_ns::of(*a), timer_ns::of(*b));
                }
            }
        }
    }
}
