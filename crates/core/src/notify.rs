//! A generation-counted notifier for threads blocked on an external
//! condition.
//!
//! [`crate::frozen::FrozenSample`] publication must wake every thread
//! blocked in `EpochCell::wait_for_epoch` — sample readers, model
//! managers, and the network tier's `SUBSCRIBE_EPOCH` connection
//! threads. [`Notify`] is a condvar over one generation counter: every
//! `notify_all` bumps the generation and wakes every blocked thread.
//!
//! ## The lost-wakeup discipline
//!
//! A waiter
//!
//! 1. reads the generation ([`Notify::generation`]),
//! 2. re-checks the external condition,
//! 3. sleeps in [`Notify::wait_past`] only while the generation still
//!    equals the one read in (1).
//!
//! A notification that lands between (2) and (3) has already bumped the
//! generation, so [`Notify::wait_past`] returns immediately and the
//! caller loops and re-checks. No wakeup can be lost, because the
//! condition is always re-examined after any generation the sleeper has
//! not yet seen.
//!
//! ## Waking only sleepers
//!
//! [`Notify::wait_past`] counts its sleepers under the generation lock,
//! and [`Notify::notify_all`] skips the condvar call when the count is
//! zero, so a publication no one waits for makes no futex call. The
//! generation bump itself is unconditional: it is what a waiter between
//! steps (1) and (3) above relies on.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A generation-counted notifier; see the module docs for the wait
/// protocol.
#[derive(Debug, Default)]
pub struct Notify {
    state: Mutex<State>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct State {
    /// Bumped by every `notify_all`; sleepers wait for it to move.
    generation: u64,
    /// Threads blocked in `wait_past`.
    sleepers: usize,
}

/// Outcome of [`Notify::wait_past`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The generation moved past the one handed in.
    Notified,
    /// The deadline elapsed first.
    TimedOut,
}

impl Notify {
    /// A fresh notifier at generation 0 with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current generation. Read this *before* checking the condition
    /// you intend to sleep on, then hand it to [`Notify::wait_past`].
    pub fn generation(&self) -> u64 {
        self.state.lock().expect("notify lock").generation
    }

    /// Bump the generation and wake every blocked thread, if any.
    pub fn notify_all(&self) {
        let sleepers = {
            let mut state = self.state.lock().expect("notify lock");
            state.generation = state.generation.wrapping_add(1);
            state.sleepers
        };
        if sleepers > 0 {
            self.cv.notify_all();
        }
    }

    /// Block the calling thread until the generation moves past `seen`
    /// or `deadline` passes (`None` = wait forever). Returns immediately
    /// if the generation already differs from `seen`.
    pub fn wait_past(&self, seen: u64, deadline: Option<Instant>) -> WaitOutcome {
        let mut state = self.state.lock().expect("notify lock");
        while state.generation == seen {
            match deadline {
                None => {
                    state.sleepers += 1;
                    state = self.cv.wait(state).expect("notify lock");
                    state.sleepers -= 1;
                }
                Some(deadline) => {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        return WaitOutcome::TimedOut;
                    };
                    state.sleepers += 1;
                    let (guard, timeout) = self.cv.wait_timeout(state, left).expect("notify lock");
                    state = guard;
                    state.sleepers -= 1;
                    if timeout.timed_out() && state.generation == seen {
                        return WaitOutcome::TimedOut;
                    }
                }
            }
        }
        WaitOutcome::Notified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wait_past_returns_immediately_on_stale_generation() {
        let n = Notify::new();
        let seen = n.generation();
        n.notify_all();
        assert_eq!(n.wait_past(seen, None), WaitOutcome::Notified);
    }

    #[test]
    fn notify_without_sleepers_still_bumps_the_generation() {
        let n = Arc::new(Notify::new());
        let seen = n.generation();
        // No sleeper: the condvar is skipped, the generation moves anyway.
        n.notify_all();
        assert_eq!(n.state.lock().unwrap().sleepers, 0);
        assert_eq!(n.wait_past(seen, None), WaitOutcome::Notified);
        // A sleeper parked after that is still counted and woken.
        let seen = n.generation();
        let n2 = Arc::clone(&n);
        let waiter = std::thread::spawn(move || n2.wait_past(seen, None));
        while n.state.lock().unwrap().sleepers != 1 {
            std::thread::yield_now();
        }
        n.notify_all();
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Notified);
        assert_eq!(n.state.lock().unwrap().sleepers, 0);
    }

    #[test]
    fn wait_past_times_out() {
        let n = Notify::new();
        let seen = n.generation();
        let deadline = Instant::now() + Duration::from_millis(10);
        assert_eq!(n.wait_past(seen, Some(deadline)), WaitOutcome::TimedOut);
    }

    #[test]
    fn notify_wakes_a_blocked_thread() {
        let n = Arc::new(Notify::new());
        let seen = n.generation();
        let n2 = Arc::clone(&n);
        let waiter = std::thread::spawn(move || n2.wait_past(seen, None));
        std::thread::sleep(Duration::from_millis(10));
        n.notify_all();
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Notified);
    }
}
