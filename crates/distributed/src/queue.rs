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
//! 4. **Wake only a parked thread, and only for finished work** — the
//!    queue counts the consumers parked for an entry and the producers
//!    parked for room, under its lock, at every wait site. A push, pop or
//!    drain with no one parked on the other side makes no futex call.
//!    [`BatchQueue::push_quiet`] enqueues without waking a parked
//!    consumer at all, for an entry the consumer cannot act on alone (an
//!    epoch header, or one shard's fork of an epoch still missing
//!    others); [`BatchQueue::push_wake_if`] decides under the queue lock,
//!    so the entry that completes a unit of work is also the last one of
//!    it enqueued. A push that finds the queue full wakes a parked
//!    consumer before it blocks, so quiet entries can never fill the
//!    queue behind a sleeping consumer.
//!
//! Built on the vendored `parking_lot` shim (`Mutex` + `Condvar`).

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

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
    /// Consumers parked on `not_empty` (drain, pop, `wait_nonempty`).
    takers: usize,
    /// Producers parked on `not_full`.
    givers: usize,
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
                takers: 0,
                givers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue `item`, blocking while the queue is full, and wake a parked
    /// consumer. Returns `Err` with the item if the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        self.push_wake_if(item, || true)
    }

    /// Enqueue `item` like [`BatchQueue::push`] but leave a parked
    /// consumer asleep: it finds the entry at its next wake-up, which a
    /// later waking push, a push blocked on a full queue, or
    /// [`BatchQueue::close`] provides.
    pub fn push_quiet(&self, item: T) -> Result<(), T> {
        self.push_wake_if(item, || false)
    }

    /// Enqueue `item` like [`BatchQueue::push`], waking a parked consumer
    /// only if `wake` returns `true`. `wake` runs under the queue's lock
    /// as the entry is appended, and only if it is appended, so producers
    /// that count their entries inside it agree on which entry came last.
    pub fn push_wake_if(&self, item: T, wake: impl FnOnce() -> bool) -> Result<(), T> {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.buf.len() < self.capacity {
                let wake = wake();
                self.append(state, item, wake);
                return Ok(());
            }
            // Quiet entries may have filled the queue behind a parked
            // consumer: wake it, or no one ever makes room.
            if state.takers > 0 {
                self.not_empty.notify_one();
            }
            state.givers += 1;
            state = self.not_full.wait(state);
            state.givers -= 1;
        }
    }

    /// Enqueue without blocking, waking a parked consumer; `Err` returns
    /// the item when the queue is full or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let state = self.state.lock();
        if state.closed || state.buf.len() >= self.capacity {
            return Err(item);
        }
        self.append(state, item, true);
        Ok(())
    }

    /// Append `item` and release the lock, waking a parked consumer if
    /// `wake` asks for it and one is parked.
    fn append(&self, mut state: MutexGuard<'_, Inner<T>>, item: T, wake: bool) {
        state.buf.push_back(item);
        let notify = wake && state.takers > 0;
        drop(state);
        if notify {
            self.not_empty.notify_one();
        }
    }

    /// Park the calling consumer until an entry may have arrived.
    fn wait_for_entry<'a>(&self, mut state: MutexGuard<'a, Inner<T>>) -> MutexGuard<'a, Inner<T>> {
        state.takers += 1;
        state = self.not_empty.wait(state);
        state.takers -= 1;
        state
    }

    /// Release the lock after entries were taken, waking the producers
    /// parked for room, if any.
    fn made_room(&self, state: MutexGuard<'_, Inner<T>>) {
        let notify = state.givers > 0;
        drop(state);
        if notify {
            self.not_full.notify_all();
        }
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
                self.made_room(state);
                return n;
            }
            if state.closed {
                return 0;
            }
            state = self.wait_for_entry(state);
        }
    }

    /// Block until the queue is non-empty, closed, or `timeout` elapses.
    /// Returns `true` when there may be something to do (entries queued
    /// or the queue closed), `false` on a pure timeout — the engine's
    /// checkpoint wait uses it to sleep between pipeline pulse checks
    /// without taking the entry it waits for.
    pub fn wait_nonempty(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            if !state.buf.is_empty() || state.closed {
                return true;
            }
            let Some(left) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                return false;
            };
            state.takers += 1;
            state = self.not_empty.wait_timeout(state, left).0;
            state.takers -= 1;
        }
    }

    /// Dequeue a single entry, blocking while the queue is empty.
    /// Returns `None` only after [`BatchQueue::close`] once the queue has
    /// fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.buf.pop_front() {
                self.made_room(state);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.wait_for_entry(state);
        }
    }

    /// Dequeue a single entry without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        let item = state.buf.pop_front();
        if item.is_some() {
            self.made_room(state);
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

    /// Run `f` on its own thread and fail the test if it has not
    /// finished within `secs` seconds (a lost wake-up hangs instead).
    fn within<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()).unwrap());
        rx.recv_timeout(std::time::Duration::from_secs(secs))
            .expect("a parked thread was never woken")
    }

    /// Spin until `n` consumers are parked on the queue.
    fn until_parked<T>(q: &BatchQueue<T>, n: usize) {
        while q.state.lock().takers != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn quiet_push_into_a_full_queue_wakes_the_parked_consumer() {
        within(30, || {
            let q = Arc::new(BatchQueue::<u32>::with_capacity(2));
            let q2 = Arc::clone(&q);
            let consumer = std::thread::spawn(move || {
                let mut out = Vec::new();
                q2.drain_into(&mut out);
                out
            });
            until_parked(&q, 1);
            q.push_quiet(1).unwrap();
            q.push_quiet(2).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
            // Quiet: both entries wait and the consumer still sleeps.
            assert_eq!(q.len(), 2);
            assert_eq!(q.state.lock().takers, 1, "a quiet push woke the consumer");
            // Full: this push must wake the consumer before it blocks.
            q.push_quiet(3).unwrap();
            assert_eq!(consumer.join().unwrap(), vec![1, 2]);
            assert_eq!(q.try_pop(), Some(3));
        });
    }

    #[test]
    fn push_wake_if_wakes_only_when_asked() {
        within(30, || {
            let q = Arc::new(BatchQueue::<u32>::with_capacity(4));
            let q2 = Arc::clone(&q);
            let consumer = std::thread::spawn(move || q2.pop());
            until_parked(&q, 1);
            q.push_quiet(1).unwrap();
            assert!(q.push_wake_if(2, || false).is_ok());
            let mut ran = false;
            q.push_wake_if(3, || {
                ran = true;
                true
            })
            .unwrap();
            assert!(ran, "the decision runs even with a parked consumer");
            assert_eq!(consumer.join().unwrap(), Some(1));
            assert_eq!(q.state.lock().takers, 0);
        });
    }

    #[test]
    fn push_wakes_a_consumer_parked_in_wait_nonempty() {
        within(10, || {
            let q = Arc::new(BatchQueue::<u32>::with_capacity(4));
            let q2 = Arc::clone(&q);
            let waiter =
                std::thread::spawn(move || q2.wait_nonempty(std::time::Duration::from_secs(60)));
            until_parked(&q, 1);
            q.try_push(1).unwrap();
            assert!(waiter.join().unwrap());
        });
    }

    #[test]
    fn mixed_quiet_and_waking_pushes_finish_under_close() {
        const PRODUCERS: u64 = 3;
        const PER: u64 = 20_000;
        let (received, sum) = within(60, || {
            let q = Arc::new(BatchQueue::<u64>::with_capacity(4));
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        for i in 0..PER {
                            let v = p * PER + i;
                            // Mostly quiet, a waking push now and then,
                            // and a quiet tail the close must flush.
                            if i % 17 == 0 && i < PER - 100 {
                                q.push(v).unwrap();
                            } else {
                                q.push_quiet(v).unwrap();
                            }
                        }
                    })
                })
                .collect();
            let q2 = Arc::clone(&q);
            let consumer = std::thread::spawn(move || {
                let (mut received, mut sum, mut out) = (0u64, 0u64, Vec::new());
                loop {
                    // Alternate bulk drains with single pops.
                    let n = if received % 2 == 0 {
                        q2.drain_into(&mut out) as u64
                    } else {
                        q2.pop().map_or(0, |v| {
                            out.push(v);
                            1
                        })
                    };
                    if n == 0 {
                        return (received, sum);
                    }
                    received += n;
                    sum += out.drain(..).sum::<u64>();
                }
            });
            for producer in producers {
                producer.join().unwrap();
            }
            q.close();
            consumer.join().unwrap()
        });
        let total = PRODUCERS * PER;
        assert_eq!(received, total);
        assert_eq!(sum, total * (total - 1) / 2);
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
