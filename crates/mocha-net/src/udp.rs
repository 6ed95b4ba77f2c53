//! Real-socket datagram driver for MochaNet.
//!
//! Everything in `mocha-net` is written as event-driven state machines
//! emitting [`Action`](crate::Action)s, so the *protocol* code runs
//! unchanged under the deterministic simulator and under real sockets.
//! This module supplies the missing physical layer for the latter: a thin
//! [`UdpDriver`] that moves MochaNet datagrams over a real
//! [`std::net::UdpSocket`], an [`AddressBook`] mapping Mocha
//! [`SiteId`]s to socket addresses, and a wall-clock [`TimerWheel`] that
//! plays the role the simulator's event queue plays for
//! `SetTimer`/`CancelTimer` actions.
//!
//! ## Wire format
//!
//! Each UDP payload is a small envelope:
//!
//! ```text
//! +----------------+--------------+---------------------------------------+
//! | from: u32 (BE) | to: u32 (BE) | MochaNet datagram (proto byte + body) |
//! +----------------+--------------+---------------------------------------+
//! ```
//!
//! Carrying both the sender's and the destination's [`SiteId`] in-band
//! (rather than reverse-mapping the UDP source address) lets sites live
//! behind ephemeral ports, keeps the driver stateless about peers, and —
//! crucially for the event-driven runtime — lets one shared socket serve
//! many sites: the receiving shard demultiplexes on `to`. The runtime is
//! a research reproduction intended for trusted networks; the envelope
//! is not authenticated.
//!
//! A `from` field of [`WAKE_SENTINEL`] marks a *wake* datagram: an empty
//! self-addressed message used by [`Waker`] to interrupt a site loop
//! blocked in [`UdpDriver::recv`] (the UDP flavor of the self-pipe
//! trick). Wake datagrams never leave the host.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

use mocha_wire::SiteId;

/// `from` value reserved for wake datagrams (never a valid site id).
pub const WAKE_SENTINEL: u32 = u32::MAX;

/// Largest UDP payload the driver will accept. MochaNet fragments at its
/// own MTU (default 1400) well below this; the headroom covers the
/// envelope header plus generous configurations.
pub const MAX_DATAGRAM: usize = 65_000;

/// Maps Mocha site ids to UDP socket addresses (and back).
///
/// Built from a hostfile (`name=ip:port` entries) or assembled
/// programmatically for in-process tests.
#[derive(Debug, Clone, Default)]
pub struct AddressBook {
    by_site: HashMap<SiteId, SocketAddr>,
}

impl AddressBook {
    /// Creates an empty book.
    pub fn new() -> AddressBook {
        AddressBook::default()
    }

    /// Registers (or replaces) the address for `site`.
    pub fn insert(&mut self, site: SiteId, addr: SocketAddr) {
        self.by_site.insert(site, addr);
    }

    /// Looks up the address for `site`.
    pub fn addr_of(&self, site: SiteId) -> Option<SocketAddr> {
        self.by_site.get(&site).copied()
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.by_site.len()
    }

    /// True when no sites are registered.
    pub fn is_empty(&self) -> bool {
        self.by_site.is_empty()
    }

    /// Iterates over `(site, addr)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, SocketAddr)> + '_ {
        self.by_site.iter().map(|(s, a)| (*s, *a))
    }

    /// Resolves `host` (e.g. `"127.0.0.1:7001"` or `"node3:7001"`) and
    /// registers the first resulting address for `site`.
    pub fn insert_resolved(&mut self, site: SiteId, host: &str) -> io::Result<()> {
        let addr = host.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                format!("no address for {host}"),
            )
        })?;
        self.insert(site, addr);
        Ok(())
    }
}

/// One received envelope: who sent it, which site it is addressed to,
/// and the MochaNet datagram inside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incoming {
    /// Claimed originating site.
    pub from: SiteId,
    /// Destination site (a shared socket demultiplexes on this).
    pub to: SiteId,
    /// The MochaNet datagram (protocol discriminator included).
    pub datagram: Vec<u8>,
}

/// What one blocking [`UdpDriver::recv`] call produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// A peer datagram arrived.
    Datagram(Incoming),
    /// A wake datagram arrived (another thread called [`Waker::wake`]).
    Woken,
    /// The timeout elapsed with nothing to read.
    TimedOut,
}

/// Encodes the on-wire envelope for a datagram from `from` to `to`.
fn encode_envelope(from: u32, to: u32, datagram: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + datagram.len());
    buf.extend_from_slice(&from.to_be_bytes());
    buf.extend_from_slice(&to.to_be_bytes());
    buf.extend_from_slice(datagram);
    buf
}

/// Splits an envelope into `(from, to, datagram)`; `None` if malformed.
fn decode_envelope(payload: &[u8]) -> Option<(u32, u32, &[u8])> {
    let head = payload.get(..8)?;
    let from = u32::from_be_bytes([head[0], head[1], head[2], head[3]]);
    let to = u32::from_be_bytes([head[4], head[5], head[6], head[7]]);
    Some((from, to, &payload[8..]))
}

/// Interrupts a site loop blocked in [`UdpDriver::recv`].
///
/// Handles and helper threads keep one and call [`wake`](Waker::wake)
/// after enqueueing work for the loop. Duplicating a waker duplicates an
/// OS socket handle, which can fail (fd exhaustion), so it goes through
/// fallible [`try_clone`](Waker::try_clone) rather than `Clone`.
#[derive(Debug)]
pub struct Waker {
    socket: UdpSocket,
    target: SocketAddr,
}

impl Waker {
    /// Duplicates this waker (a new OS handle to the same socket).
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket handle cannot be duplicated.
    pub fn try_clone(&self) -> io::Result<Waker> {
        Ok(Waker {
            socket: self.socket.try_clone()?,
            target: self.target,
        })
    }

    /// Sends a wake datagram to the owning driver's socket. Errors are
    /// ignored: the loop also wakes on its next timer deadline, so a lost
    /// wake only costs latency, never correctness.
    pub fn wake(&self) {
        let mut payload = [0u8; 8];
        payload[..4].copy_from_slice(&WAKE_SENTINEL.to_be_bytes());
        payload[4..].copy_from_slice(&WAKE_SENTINEL.to_be_bytes());
        let _ = self.socket.send_to(&payload, self.target);
    }
}

/// A real-UDP transport driver for one site.
///
/// Owns the site's bound [`UdpSocket`]. The site loop calls
/// [`recv`](UdpDriver::recv) with a deadline-derived timeout and
/// [`send`](UdpDriver::send) to execute `Transmit` actions; other threads
/// use a [`Waker`] to interrupt the blocking receive.
#[derive(Debug)]
pub struct UdpDriver {
    socket: UdpSocket,
    local_site: SiteId,
    buf: Vec<u8>,
    inject: Option<ErrorInjector>,
    /// The read timeout the socket is currently armed with, so that a
    /// receive it still serves does not pay a `setsockopt`.
    armed: Option<Duration>,
}

impl UdpDriver {
    /// Binds a driver for `local_site` on `addr` (use port 0 for an
    /// ephemeral port, then read it back with
    /// [`local_addr`](UdpDriver::local_addr)).
    pub fn bind(local_site: SiteId, addr: SocketAddr) -> io::Result<UdpDriver> {
        let socket = UdpSocket::bind(addr)?;
        Ok(UdpDriver {
            socket,
            local_site,
            buf: vec![0u8; MAX_DATAGRAM + 8],
            inject: None,
            armed: None,
        })
    }

    /// Testing facility: makes roughly one in `one_in` future
    /// [`recv`](UdpDriver::recv) calls fail with a deterministic
    /// (seeded) transient [`io::Error`], so error-recovery paths can be
    /// exercised without a flapping interface. `one_in == 0` disables
    /// injection.
    pub fn inject_recv_errors(&mut self, seed: u64, one_in: u32) {
        self.inject = if one_in == 0 {
            None
        } else {
            Some(ErrorInjector {
                state: seed | 1,
                one_in,
            })
        };
    }

    /// The site this driver sends as.
    pub fn local_site(&self) -> SiteId {
        self.local_site
    }

    /// The socket's actual bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Creates a [`Waker`] aimed at this driver's socket.
    pub fn waker(&self) -> io::Result<Waker> {
        let target = normalize_self_addr(self.socket.local_addr()?);
        Ok(Waker {
            socket: self.socket.try_clone()?,
            target,
        })
    }

    /// Sends `datagram` from this driver's own site to `to`, wrapped in
    /// the site envelope. See [`send_as`](UdpDriver::send_as).
    pub fn send(&self, book: &AddressBook, to: SiteId, datagram: &[u8]) -> io::Result<bool> {
        self.send_as(self.local_site, book, to, datagram)
    }

    /// Sends `datagram` to `to`, wrapped in the site envelope, claiming
    /// `from` as the originating site. Shards hosting many sites on one
    /// socket use this to send on behalf of each hosted site.
    ///
    /// Returns `Ok(false)` when `to` has no address in `book` or the OS
    /// rejected the send (treated as a silent drop: MochaNet's
    /// retransmission and retry-exhaustion machinery turns persistent
    /// drops into `SendFailed`/`PeerUnreachable` events, which is exactly
    /// the paper's timeout-based failure detection path).
    pub fn send_as(
        &self,
        from: SiteId,
        book: &AddressBook,
        to: SiteId,
        datagram: &[u8],
    ) -> io::Result<bool> {
        let Some(addr) = book.addr_of(to) else {
            return Ok(false);
        };
        let payload = encode_envelope(from.0, to.0, datagram);
        match self.socket.send_to(&payload, addr) {
            Ok(_) => Ok(true),
            // A full socket buffer or ICMP-induced error is a drop, not a
            // driver failure.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::ConnectionRefused
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::PermissionDenied
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Blocks for at most `timeout` waiting for one datagram.
    ///
    /// Malformed or oversized payloads are dropped and reported as
    /// [`Recv::TimedOut`]-free: the call simply keeps its remaining
    /// budget conceptually and returns `Woken`-style noise as
    /// `Recv::TimedOut` only when the clock truly ran out. In practice:
    /// a decodable peer envelope returns [`Recv::Datagram`], a wake
    /// envelope returns [`Recv::Woken`], garbage is skipped.
    pub fn recv(&mut self, timeout: Duration) -> io::Result<Recv> {
        if let Some(inj) = self.inject.as_mut() {
            if inj.should_fail() {
                return Err(io::Error::other("injected transient socket error"));
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            let remaining = deadline.saturating_duration_since(now);
            if remaining.is_zero() {
                return Ok(Recv::TimedOut);
            }
            // set_read_timeout(None) would block forever; clamp to >= 1ms
            // so short remainders still honor the deadline.
            self.arm(remaining.max(Duration::from_millis(1)))?;
            match self.socket.recv_from(&mut self.buf) {
                Ok((n, _peer)) => match decode_envelope(&self.buf[..n]) {
                    Some((WAKE_SENTINEL, _, _)) => return Ok(Recv::Woken),
                    Some((from, to, datagram)) => {
                        return Ok(Recv::Datagram(Incoming {
                            from: SiteId(from),
                            to: SiteId(to),
                            datagram: datagram.to_vec(),
                        }))
                    }
                    None => {} // runt packet: ignore
                },
                // The armed timeout may be shorter than what remains:
                // only the clock says whether the caller's has run out.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                // On some platforms a previous send to a dead peer surfaces
                // here as a connection error; it carries no data, skip it.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionRefused | io::ErrorKind::ConnectionReset
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Arms the socket's read timeout for a receive that wants `wanted`,
    /// keeping the armed value while it is no longer than `wanted` (so the
    /// deadline is never overslept) and at least a quarter of it (so the
    /// receive wakes early at most a few times): a shard loop's successive
    /// deadlines then share one `setsockopt` instead of paying one per
    /// datagram.
    fn arm(&mut self, wanted: Duration) -> io::Result<()> {
        let serves = self
            .armed
            .is_some_and(|armed| armed <= wanted && wanted <= armed.saturating_mul(4));
        if !serves {
            self.socket.set_read_timeout(Some(wanted))?;
            self.armed = Some(wanted);
        }
        Ok(())
    }
}

/// Deterministic (xorshift-seeded) recv-error injector; see
/// [`UdpDriver::inject_recv_errors`].
#[derive(Debug)]
struct ErrorInjector {
    state: u64,
    one_in: u32,
}

impl ErrorInjector {
    fn should_fail(&mut self) -> bool {
        // xorshift64: cheap, deterministic, good enough for fault spacing.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.is_multiple_of(u64::from(self.one_in))
    }
}

/// Bounded exponential backoff for transient I/O errors.
///
/// Starts at `base`, doubles per consecutive failure, saturates at `cap`,
/// and resets on success. Site loops sleep for
/// [`next_delay`](Backoff::next_delay) after a socket error instead of a
/// fixed pause, so a flapping interface neither spins the CPU nor parks
/// the loop for longer than the error persists.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    current: Option<Duration>,
}

impl Backoff {
    /// Creates a backoff that starts at `base` and saturates at `cap`.
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff {
            base,
            cap: cap.max(base),
            current: None,
        }
    }

    /// Records a failure and returns how long to pause before retrying.
    pub fn next_delay(&mut self) -> Duration {
        let next = match self.current {
            None => self.base,
            Some(d) => d.saturating_mul(2).min(self.cap),
        };
        self.current = Some(next);
        next
    }

    /// Records a success, resetting the delay sequence to `base`.
    pub fn reset(&mut self) {
        self.current = None;
    }

    /// True when no failure has been recorded since the last reset.
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }
}

impl Default for Backoff {
    /// One millisecond doubling to a 100 ms cap — snappy recovery for
    /// blips, bounded spin for persistent faults.
    fn default() -> Backoff {
        Backoff::new(Duration::from_millis(1), Duration::from_millis(100))
    }
}

/// Rewrites an unspecified bind address (0.0.0.0 / ::) to the loopback of
/// the same family so wake datagrams sent to ourselves actually arrive.
fn normalize_self_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        match addr {
            SocketAddr::V4(_) => addr.set_ip(std::net::Ipv4Addr::LOCALHOST.into()),
            SocketAddr::V6(_) => addr.set_ip(std::net::Ipv6Addr::LOCALHOST.into()),
        }
    }
    addr
}

/// A wall-clock timer collection with the same semantics the simulator
/// gives `SetTimer`/`CancelTimer` actions: one pending deadline per
/// token, re-arming replaces, canceling forgets.
///
/// The socket runtime keeps a single wheel per site and feeds *both* the
/// transport's timers (token namespaces `0x01`/`0x02`) and the protocol
/// components' timers (`0x03`–`0x06`) through it, mirroring how the
/// simulator owns all timers in one event queue.
#[derive(Debug, Default)]
pub struct TimerWheel {
    /// Deadlines ordered by (time, token) for cheap "next due" queries.
    queue: BTreeSet<(Instant, u64)>,
    /// Current deadline per token (detects stale queue entries).
    armed: HashMap<u64, Instant>,
}

impl TimerWheel {
    /// Creates an empty wheel.
    pub fn new() -> TimerWheel {
        TimerWheel::default()
    }

    /// Arms (or re-arms) `token` to fire `after` from `now`.
    pub fn set(&mut self, token: u64, after: Duration, now: Instant) {
        let when = now + after;
        if let Some(old) = self.armed.insert(token, when) {
            self.queue.remove(&(old, token));
        }
        self.queue.insert((when, token));
    }

    /// Cancels `token` if armed.
    pub fn cancel(&mut self, token: u64) {
        if let Some(old) = self.armed.remove(&token) {
            self.queue.remove(&(old, token));
        }
    }

    /// Earliest pending deadline, if any timer is armed.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.queue.first().map(|(when, _)| *when)
    }

    /// Removes and returns every token due at `now`, in deadline order.
    pub fn pop_due(&mut self, now: Instant) -> Vec<u64> {
        let mut due = Vec::new();
        while let Some(&(when, token)) = self.queue.first() {
            if when > now {
                break;
            }
            self.queue.remove(&(when, token));
            self.armed.remove(&token);
            due.push(token);
        }
        due
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.armed.len()
    }

    /// True when no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sock_available() -> bool {
        UdpSocket::bind("127.0.0.1:0").is_ok()
    }

    #[test]
    fn envelope_roundtrips() {
        let dg = vec![1u8, 2, 3, 4, 5];
        let enc = encode_envelope(42, 7, &dg);
        let (from, to, body) = decode_envelope(&enc).unwrap();
        assert_eq!(from, 42);
        assert_eq!(to, 7);
        assert_eq!(body, &dg[..]);
        assert_eq!(decode_envelope(&[1, 2, 3, 4, 5, 6]), None);
    }

    #[test]
    fn backoff_doubles_saturates_and_resets() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(8));
        assert!(b.is_idle());
        assert_eq!(b.next_delay(), Duration::from_millis(1));
        assert_eq!(b.next_delay(), Duration::from_millis(2));
        assert_eq!(b.next_delay(), Duration::from_millis(4));
        assert_eq!(b.next_delay(), Duration::from_millis(8));
        assert_eq!(b.next_delay(), Duration::from_millis(8)); // saturated
        assert!(!b.is_idle());
        b.reset();
        assert!(b.is_idle());
        assert_eq!(b.next_delay(), Duration::from_millis(1));
        // A cap below base is lifted to base rather than inverting.
        let mut tight = Backoff::new(Duration::from_millis(10), Duration::from_millis(1));
        assert_eq!(tight.next_delay(), Duration::from_millis(10));
        assert_eq!(tight.next_delay(), Duration::from_millis(10));
    }

    #[test]
    fn injected_recv_errors_are_deterministic() {
        if !sock_available() {
            eprintln!("skipping: no loopback sockets in this environment");
            return;
        }
        let run = |seed: u64| {
            let mut d = UdpDriver::bind(SiteId(0), "127.0.0.1:0".parse().unwrap()).unwrap();
            d.inject_recv_errors(seed, 3);
            (0..32)
                .map(|_| d.recv(Duration::from_millis(1)).is_err())
                .collect::<Vec<bool>>()
        };
        let a = run(0xDEAD_BEEF);
        let b = run(0xDEAD_BEEF);
        assert_eq!(a, b, "same seed must inject the same error pattern");
        assert!(a.iter().any(|&e| e), "one-in-3 over 32 calls must fail");
        assert!(!a.iter().all(|&e| e), "injection must not fail every call");
    }

    #[test]
    fn address_book_insert_and_lookup() {
        let mut book = AddressBook::new();
        assert!(book.is_empty());
        book.insert_resolved(SiteId(0), "127.0.0.1:7001").unwrap();
        book.insert(SiteId(1), "127.0.0.1:7002".parse().unwrap());
        assert_eq!(book.len(), 2);
        assert_eq!(
            book.addr_of(SiteId(0)),
            Some("127.0.0.1:7001".parse().unwrap())
        );
        assert_eq!(book.addr_of(SiteId(9)), None);
    }

    #[test]
    fn timer_wheel_orders_cancels_and_rearms() {
        let mut w = TimerWheel::new();
        let t0 = Instant::now();
        assert_eq!(w.next_deadline(), None);
        w.set(1, Duration::from_millis(30), t0);
        w.set(2, Duration::from_millis(10), t0);
        w.set(3, Duration::from_millis(20), t0);
        assert_eq!(w.next_deadline(), Some(t0 + Duration::from_millis(10)));
        // Re-arm 2 later; cancel 3.
        w.set(2, Duration::from_millis(50), t0);
        w.cancel(3);
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_deadline(), Some(t0 + Duration::from_millis(30)));
        assert_eq!(w.pop_due(t0 + Duration::from_millis(29)), Vec::<u64>::new());
        assert_eq!(w.pop_due(t0 + Duration::from_millis(60)), vec![1, 2]);
        assert!(w.is_empty());
    }

    #[test]
    fn kept_read_timeout_neither_shortens_nor_stretches_a_recv() {
        if !sock_available() {
            eprintln!("skipping: no loopback sockets in this environment");
            return;
        }
        let mut d = UdpDriver::bind(SiteId(0), "127.0.0.1:0".parse().unwrap()).unwrap();
        let timed_out_after = |d: &mut UdpDriver, ms: u64| {
            let started = Instant::now();
            assert_eq!(d.recv(Duration::from_millis(ms)).unwrap(), Recv::TimedOut);
            started.elapsed()
        };
        // A receive that is answered at once leaves its 20 ms armed.
        let mut book = AddressBook::new();
        book.insert(SiteId(0), d.local_addr().unwrap());
        assert!(d.send(&book, SiteId(0), &[1]).unwrap());
        assert!(matches!(
            d.recv(Duration::from_millis(20)).unwrap(),
            Recv::Datagram(_)
        ));
        let armed = d.armed.expect("a receive arms the socket");
        assert!(armed <= Duration::from_millis(20) && armed > Duration::from_millis(15));
        // 60 ms is served by the armed 20 ms: the kernel's early timeouts
        // are re-armed for the remainder, not returned.
        assert!(timed_out_after(&mut d, 60) >= Duration::from_millis(60));
        // A longer wait than the kept value serves is armed afresh, and a
        // shorter one after it is not overslept.
        assert!(timed_out_after(&mut d, 400) >= Duration::from_millis(400));
        assert!(timed_out_after(&mut d, 5) < Duration::from_millis(200));
    }

    #[test]
    fn loopback_send_recv_and_wake() {
        if !sock_available() {
            eprintln!("skipping: no loopback sockets in this environment");
            return;
        }
        let mut a = UdpDriver::bind(SiteId(0), "127.0.0.1:0".parse().unwrap()).unwrap();
        let mut b = UdpDriver::bind(SiteId(1), "127.0.0.1:0".parse().unwrap()).unwrap();
        let mut book = AddressBook::new();
        book.insert(SiteId(0), a.local_addr().unwrap());
        book.insert(SiteId(1), b.local_addr().unwrap());

        assert!(a.send(&book, SiteId(1), &[9, 8, 7]).unwrap());
        match b.recv(Duration::from_secs(2)).unwrap() {
            Recv::Datagram(inc) => {
                assert_eq!(inc.from, SiteId(0));
                assert_eq!(inc.to, SiteId(1));
                assert_eq!(inc.datagram, vec![9, 8, 7]);
            }
            other => panic!("expected datagram, got {other:?}"),
        }

        // Unknown destination is a silent drop, not an error.
        assert!(!a.send(&book, SiteId(7), &[1]).unwrap());

        // A waker interrupts a blocking recv well before the timeout
        // (exercised through try_clone: the duplicate must work too).
        let waker = a.waker().unwrap().try_clone().unwrap();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let started = Instant::now();
        assert_eq!(a.recv(Duration::from_secs(10)).unwrap(), Recv::Woken);
        assert!(started.elapsed() < Duration::from_secs(5));
        t.join().unwrap();

        // And with nothing in flight, recv times out on schedule.
        assert_eq!(b.recv(Duration::from_millis(20)).unwrap(), Recv::TimedOut);
    }
}
