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

use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A generation-counted notifier; see the module docs for the wait
/// protocol.
#[derive(Debug, Default)]
pub struct Notify {
    /// Bumped by every `notify_all`; sleepers wait for it to move.
    generation: Mutex<u64>,
    cv: Condvar,
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
        *self.generation.lock().expect("notify lock")
    }

    /// Bump the generation and wake every blocked thread.
    pub fn notify_all(&self) {
        {
            let mut generation = self.generation.lock().expect("notify lock");
            *generation = generation.wrapping_add(1);
        }
        self.cv.notify_all();
    }

    /// Block the calling thread until the generation moves past `seen`
    /// or `deadline` passes (`None` = wait forever). Returns immediately
    /// if the generation already differs from `seen`.
    pub fn wait_past(&self, seen: u64, deadline: Option<Instant>) -> WaitOutcome {
        let mut generation = self.generation.lock().expect("notify lock");
        while *generation == seen {
            match deadline {
                None => generation = self.cv.wait(generation).expect("notify lock"),
                Some(deadline) => {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        return WaitOutcome::TimedOut;
                    };
                    let (guard, timeout) =
                        self.cv.wait_timeout(generation, left).expect("notify lock");
                    generation = guard;
                    if timeout.timed_out() && *generation == seen {
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
