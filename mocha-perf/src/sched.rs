//! Which chains may have work in flight. Kept apart from the I/O so the
//! two rules the measurements rest on can be tested without a cluster:
//! a chain never has two operations in flight, and at most `window`
//! chains are inside a cycle at once.

use std::collections::VecDeque;

/// Admission control over `chains` chains.
#[derive(Debug)]
pub struct Scheduler {
    window: usize,
    /// Chains outside a cycle, longest-idle first.
    idle: VecDeque<usize>,
    in_cycle: Vec<bool>,
    in_flight: Vec<bool>,
    active: usize,
}

impl Scheduler {
    /// A scheduler over `chains` chains, of which only those in `eligible`
    /// are ever admitted (the rest were abandoned in an earlier phase).
    /// All start idle; at most `window` run at once.
    pub fn over(
        chains: usize,
        eligible: impl IntoIterator<Item = usize>,
        window: usize,
    ) -> Scheduler {
        assert!(window >= 1, "window must admit at least one chain");
        Scheduler {
            window,
            idle: eligible.into_iter().collect(),
            in_cycle: vec![false; chains],
            in_flight: vec![false; chains],
            active: 0,
        }
    }

    /// Chains currently inside a cycle.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Starts a cycle on the longest-idle chain if the window has room.
    pub fn admit(&mut self) -> Option<usize> {
        if self.active >= self.window {
            return None;
        }
        let chain = self.idle.pop_front()?;
        self.in_cycle[chain] = true;
        self.active += 1;
        Some(chain)
    }

    /// Records that an operation was issued on `chain`.
    ///
    /// # Panics
    ///
    /// If the chain is outside a cycle or already has one in flight —
    /// either would make the measured load something other than stated.
    pub fn issued(&mut self, chain: usize) {
        assert!(self.in_cycle[chain], "chain {chain} issued outside a cycle");
        assert!(
            !self.in_flight[chain],
            "chain {chain} has two operations in flight"
        );
        self.in_flight[chain] = true;
    }

    /// Records that `chain`'s in-flight operation completed.
    pub fn completed(&mut self, chain: usize) {
        assert!(self.in_flight[chain], "chain {chain} completed nothing");
        self.in_flight[chain] = false;
    }

    /// Ends `chain`'s cycle; it queues behind every other idle chain.
    pub fn retire(&mut self, chain: usize) {
        assert!(
            self.in_cycle[chain] && !self.in_flight[chain],
            "chain {chain} retired mid-operation"
        );
        self.in_cycle[chain] = false;
        self.active -= 1;
        self.idle.push_back(chain);
    }

    /// Ends `chain`'s cycle for good (an operation failed; the lock's
    /// state is unknown, so the chain is not walked again).
    pub fn abandon(&mut self, chain: usize) {
        assert!(
            self.in_cycle[chain],
            "chain {chain} abandoned outside a cycle"
        );
        self.in_cycle[chain] = false;
        self.in_flight[chain] = false;
        self.active -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Drives the scheduler the way the wall-clock driver does, with
    /// completions in random order, and checks both rules at every step.
    #[test]
    fn one_operation_per_chain_and_never_more_than_the_window() {
        const STEPS: usize = 4; // acquire, read, write, release
        let (chains, window) = (12, 5);
        let mut s = Scheduler::over(chains, 0..chains, window);
        let mut rng = Rng::new(9);
        let mut step = vec![0usize; chains];
        let mut flying: Vec<usize> = Vec::new();
        let mut cycles = vec![0usize; chains];
        for _ in 0..20_000 {
            while let Some(c) = s.admit() {
                s.issued(c);
                flying.push(c);
                step[c] = 1;
            }
            assert!(s.active() <= window && flying.len() <= window);
            let mut seen = flying.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), flying.len(), "a chain is in flight twice");
            let c = flying.swap_remove(rng.below(flying.len()));
            s.completed(c);
            if step[c] == STEPS {
                s.retire(c);
                cycles[c] += 1;
            } else {
                step[c] += 1;
                s.issued(c);
                flying.push(c);
            }
        }
        // Longest-idle-first admission walks every chain about equally
        // (not exactly: completions here arrive in random order).
        let (lo, hi) = (cycles.iter().min().unwrap(), cycles.iter().max().unwrap());
        assert!(*lo > 0 && (hi - lo) * 10 <= *hi, "{cycles:?}");
    }

    #[test]
    #[should_panic(expected = "two operations in flight")]
    fn double_issue_is_refused() {
        let mut s = Scheduler::over(2, 0..2, 2);
        let c = s.admit().unwrap();
        s.issued(c);
        s.issued(c);
    }

    #[test]
    fn abandoned_chains_leave_the_rotation() {
        let mut s = Scheduler::over(2, 0..2, 1);
        let c = s.admit().unwrap();
        s.issued(c);
        s.abandon(c);
        let d = s.admit().unwrap();
        assert_ne!(c, d);
        s.retire(d);
        assert_eq!(s.admit(), Some(d));
    }
}
