//! Std-only stand-in for the part of `crossbeam` the Mocha crates use:
//! unbounded MPSC channels. `std::sync::mpsc` has been a port of
//! `crossbeam-channel` since Rust 1.67, so the cost per message is the
//! published crate's; what is missing is `select!`, bounded channels and
//! cloneable receivers, none of which the Mocha crates use.

#![forbid(unsafe_code)]

/// Multi-producer single-consumer channels.
pub mod channel {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// The sending half. Cloneable; `Send + Sync`.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Queues `msg`; fails only when the receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg)
        }
    }

    /// The receiving half.
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks for the next message.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        /// The next message if one is queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        /// Blocks for the next message for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }

        /// Blocks for the next message until `deadline`.
        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            self.0
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        }

        /// Drains what is queued now without blocking.
        pub fn try_iter(&self) -> mpsc::TryIter<'_, T> {
            self.0.try_iter()
        }

        /// Blocks for each message until every sender is gone.
        pub fn iter(&self) -> mpsc::Iter<'_, T> {
            self.0.iter()
        }
    }

    /// A channel of unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }
}
