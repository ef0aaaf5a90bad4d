//! Bounded blocking batch queues for the persistent ingest pipeline.
//!
//! The parallel engine ([`crate::engine`]) connects the driver thread to
//! each long-lived shard worker with one of these queues per direction.
//! Design constraints, in order:
//!
//! 1. **No allocation in steady state** — the ring is a `VecDeque` that
//!    reaches its high-water capacity during warm-up and never grows past
//!    the configured bound, so `push`/`drain_into` never touch the heap
//!    once warm (futex-based `Condvar` waits allocate nothing on Linux).
//! 2. **Amortized locking** — consumers drain *everything* available under
//!    one lock acquisition ([`BatchQueue::drain_into`]); with a fast
//!    producer the queue delivers work in large groups, so per-item lock
//!    traffic vanishes.
//! 3. **Backpressure** — `push` blocks while the queue is at capacity,
//!    and a consumer can block in [`BatchQueue::pop`] until an entry
//!    comes back. The engine uses the latter to bound its in-flight
//!    memory in items: its shared run slots circulate through a small
//!    free queue the driver blocks on.
//!
//! Built on the vendored `parking_lot` shim (`Mutex` + `Condvar`).

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// A bounded multi-producer blocking queue drained in bulk by consumers.
#[derive(Debug)]
pub struct BatchQueue<T> {
    state: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct Inner<T> {
    buf: VecDeque<T>,
    closed: bool,
}

impl<T> BatchQueue<T> {
    /// Create a queue holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(Inner {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue `item`, blocking while the queue is full. Returns `Err` with
    /// the item if the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.buf.len() < self.capacity {
                state.buf.push_back(item);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state);
        }
    }

    /// Enqueue without blocking; `Err` returns the item when the queue is
    /// full or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock();
        if state.closed || state.buf.len() >= self.capacity {
            return Err(item);
        }
        state.buf.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Move every queued entry into `out` (appended in FIFO order),
    /// blocking until at least one entry is available. Returns the number
    /// of entries moved — `0` only after [`BatchQueue::close`] once the
    /// queue has fully drained.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut state = self.state.lock();
        loop {
            if !state.buf.is_empty() {
                let n = state.buf.len();
                out.extend(state.buf.drain(..));
                drop(state);
                self.not_full.notify_all();
                return n;
            }
            if state.closed {
                return 0;
            }
            state = self.not_empty.wait(state);
        }
    }

    /// Block until the queue is non-empty, closed, or `timeout` elapses.
    /// Returns `true` when there may be something to do (entries queued
    /// or the queue closed), `false` on a pure timeout — the engine's
    /// checkpoint wait uses it to sleep between pipeline pulse checks
    /// without taking the entry it waits for.
    pub fn wait_nonempty(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            if !state.buf.is_empty() || state.closed {
                return true;
            }
            let Some(left) = deadline
                .checked_duration_since(std::time::Instant::now())
                .filter(|d| !d.is_zero())
            else {
                return false;
            };
            state = self.not_empty.wait_timeout(state, left).0;
        }
    }

    /// Dequeue a single entry, blocking while the queue is empty.
    /// Returns `None` only after [`BatchQueue::close`] once the queue has
    /// fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.buf.pop_front() {
                drop(state);
                self.not_full.notify_all();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state);
        }
    }

    /// Dequeue a single entry without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        let item = state.buf.pop_front();
        if item.is_some() {
            drop(state);
            self.not_full.notify_all();
        }
        item
    }

    /// Close the queue: pending entries remain drainable, further pushes
    /// fail, and blocked consumers wake with whatever is left.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current number of queued entries.
    pub fn len(&self) -> usize {
        self.state.lock().buf.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`BatchQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_roundtrip() {
        let q = BatchQueue::with_capacity(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_respects_capacity() {
        let q = BatchQueue::with_capacity(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.try_pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn push_blocks_until_drained() {
        let q = Arc::new(BatchQueue::with_capacity(1));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1).unwrap());
        // Give the producer a moment to block on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut out = Vec::new();
        q.drain_into(&mut out);
        producer.join().unwrap();
        out.clear();
        q.drain_into(&mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn drain_blocks_until_pushed() {
        let q = Arc::new(BatchQueue::<u32>::with_capacity(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            q2.drain_into(&mut out);
            out
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), vec![7]);
    }

    #[test]
    fn close_wakes_consumers_and_rejects_producers() {
        let q = Arc::new(BatchQueue::<u32>::with_capacity(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            q2.drain_into(&mut out)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), 0);
        assert_eq!(q.push(1), Err(1));
    }

    #[test]
    fn wait_nonempty_reports_work_and_closure() {
        let q = Arc::new(BatchQueue::<u32>::with_capacity(4));
        assert!(!q.wait_nonempty(std::time::Duration::from_millis(5)));
        q.push(1).unwrap();
        assert!(q.wait_nonempty(std::time::Duration::from_millis(5)));
        assert_eq!(q.try_pop(), Some(1));
        let q2 = Arc::clone(&q);
        let waiter =
            std::thread::spawn(move || q2.wait_nonempty(std::time::Duration::from_secs(10)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert!(waiter.join().unwrap(), "close must wake the waiter");
        assert!(q.is_closed());
    }

    #[test]
    fn pop_blocks_until_pushed_and_ends_at_close() {
        let q = Arc::new(BatchQueue::<u32>::with_capacity(2));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || (q2.pop(), q2.pop()));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(5).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), (Some(5), None));
    }

    #[test]
    fn close_leaves_backlog_drainable() {
        let q = BatchQueue::with_capacity(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out), 2);
        assert_eq!(q.drain_into(&mut out), 0);
    }
}
