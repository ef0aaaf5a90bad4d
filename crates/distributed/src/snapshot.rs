//! Epoch-published snapshot cell: the handoff point between the ingest
//! pipeline and concurrent sample readers.
//!
//! The serving problem (Velox's split, see PAPERS.md): model retraining
//! and other consumers need a *consistent* sample while ingest keeps
//! running. The pre-snapshot engine solved consistency by quiescing —
//! every reader stalled every writer. An [`EpochCell`] inverts that: the
//! pipeline *publishes* immutable [`FrozenSample`]s into the cell, tagged
//! with a monotonically increasing **epoch**, and any number of readers
//! pull the latest publication without ever touching the ingest path's
//! queues or locks.
//!
//! ## Read path cost
//!
//! [`EpochCell::published_epoch`] is a single atomic load — the intended
//! hot-poll check ("anything newer than what I hold?"). Only when the
//! epoch moved does a reader call [`EpochCell::latest`], which clones an
//! `Arc` out of the vendored arc-swap slot (a refcount bump under a
//! nanoseconds-scale critical section that no ingest thread ever enters).
//! `temporal_sampling::api::SampleReader` packages exactly this pattern.
//!
//! ## Write path
//!
//! Publishers ([`EpochCell::publish`]) store the new `Arc`, advance the
//! epoch counter (monotonically — a late-arriving older publication can
//! never roll it back), and wake every waiter. When the publisher goes
//! away (engine drop, merger panic) it calls [`EpochCell::close`] so
//! waiters return instead of blocking forever; already-published samples
//! remain readable afterwards.
//!
//! ## Waiting
//!
//! Waiting is built on `tbs_core::notify::Notify`, a condvar over one
//! generation counter. Every blocking variant
//! ([`EpochCell::wait_for_epoch`], [`EpochCell::wait_for_epoch_timeout`])
//! routes through one shared closed-checked loop. The network serving
//! tier's `SUBSCRIBE_EPOCH` long poll blocks its connection thread here
//! in short timed slices, so it notices server shutdown.

use arc_swap::ArcSwapOption;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tbs_core::frozen::FrozenSample;
use tbs_core::notify::{Notify, WaitOutcome};

/// A shared slot publishing epoch-stamped [`FrozenSample`]s from one
/// producer pipeline to any number of concurrent readers.
#[derive(Debug)]
pub struct EpochCell<T> {
    /// Highest epoch published so far; 0 = nothing published yet.
    published: AtomicU64,
    /// The latest publication.
    slot: ArcSwapOption<FrozenSample<T>>,
    /// Set when the publisher is gone for good.
    closed: AtomicBool,
    /// Serializes publishers so stale-check + store + counter-advance is
    /// atomic with respect to other publishers. Readers never take it.
    publish_lock: Mutex<()>,
    /// Wakes every blocked waiter.
    notify: Notify,
}

impl<T> Default for EpochCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EpochCell<T> {
    /// An empty cell: no publication, epoch 0, open.
    pub fn new() -> Self {
        Self {
            published: AtomicU64::new(0),
            slot: ArcSwapOption::empty(),
            closed: AtomicBool::new(false),
            publish_lock: Mutex::new(()),
            notify: Notify::new(),
        }
    }

    /// The highest published epoch (0 until the first publication). One
    /// atomic load — the cheap poll for "is there anything newer?".
    pub fn published_epoch(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// The most recent publication, if any. Never blocks on ingest: the
    /// only synchronization is the arc-swap slot's refcount bump.
    pub fn latest(&self) -> Option<Arc<FrozenSample<T>>> {
        self.slot.load_full()
    }

    /// Whether the publisher has shut down ([`EpochCell::close`]). The
    /// last publication, if any, remains readable.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Publish `frozen` as the newest sample and wake every waiter. The
    /// epoch counter advances monotonically to `frozen.epoch()`; a
    /// **stale** publication (epoch not newer than the counter) is
    /// discarded, so the slot can never hold an older sample than the
    /// counter advertises.
    pub fn publish(&self, frozen: Arc<FrozenSample<T>>) {
        let epoch = frozen.epoch();
        let _guard = self.publish_lock.lock();
        if epoch <= self.published.load(Ordering::Acquire) {
            return;
        }
        // Store the payload before advancing the counter: a reader that
        // observes the new epoch is guaranteed to load a sample at least
        // that new (epochs only move forward in the slot too).
        self.slot.store(Some(frozen));
        self.published.store(epoch, Ordering::Release);
        self.notify.notify_all();
    }

    /// Mark the publisher gone and wake all waiters. Idempotent.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.notify.notify_all();
    }

    /// Re-arm a closed cell for a replacement publisher. The supervised
    /// engine's recovery path respawns its merger and keeps serving the
    /// *same* cell, so reader handles created before the fault keep
    /// working across it; published history is untouched.
    pub fn reopen(&self) {
        self.closed.store(false, Ordering::Release);
    }

    /// The shared wait loop every blocking variant routes through: check
    /// published, check closed, sleep until the notify generation moves
    /// or the deadline passes. Reading the generation *before* the
    /// condition checks closes the lost-wakeup window — a publish/close
    /// landing after the checks bumps the generation, so the sleep
    /// returns immediately and the loop re-checks.
    fn wait_inner(&self, epoch: u64, deadline: Option<Instant>) -> EpochWait<T> {
        loop {
            let seen = self.notify.generation();
            if self.published.load(Ordering::Acquire) >= epoch {
                return match self.latest() {
                    Some(frozen) => EpochWait::Published(frozen),
                    // INVARIANT: the slot is stored before the counter
                    // advances past 0, and never cleared.
                    None => EpochWait::PublisherGone,
                };
            }
            if self.closed.load(Ordering::Acquire) {
                return EpochWait::PublisherGone;
            }
            if self.notify.wait_past(seen, deadline) == WaitOutcome::TimedOut {
                return EpochWait::TimedOut;
            }
        }
    }

    /// Block until a sample of epoch ≥ `epoch` is published, then return
    /// the latest publication (which may be even newer). Returns `None`
    /// if the publisher closed the cell before reaching `epoch` — e.g.
    /// the engine was dropped with the request still in flight. Routed
    /// through the same closed-check path as
    /// [`EpochCell::wait_for_epoch_timeout`], so a publisher dying at any
    /// point relative to the wait never strands the caller.
    pub fn wait_for_epoch(&self, epoch: u64) -> Option<Arc<FrozenSample<T>>> {
        self.wait_inner(epoch, None).published()
    }

    /// [`EpochCell::wait_for_epoch`] with a deadline: never blocks past
    /// `timeout`, so a consumer facing a dead **or stalled** publisher
    /// gets control back in bounded time (the closed flag only covers
    /// publishers that died cleanly enough to run their closers).
    pub fn wait_for_epoch_timeout(&self, epoch: u64, timeout: std::time::Duration) -> EpochWait<T> {
        self.wait_inner(epoch, Some(Instant::now() + timeout))
    }
}

/// Outcome of [`EpochCell::wait_for_epoch_timeout`].
#[derive(Debug, Clone)]
pub enum EpochWait<T> {
    /// A sample of at least the requested epoch was published.
    Published(Arc<FrozenSample<T>>),
    /// The publisher closed the cell before reaching the epoch.
    PublisherGone,
    /// The deadline elapsed with the epoch still unpublished and the
    /// publisher nominally alive.
    TimedOut,
}

impl<T> EpochWait<T> {
    /// The published sample, if this outcome carries one.
    pub fn published(self) -> Option<Arc<FrozenSample<T>>> {
        match self {
            EpochWait::Published(frozen) => Some(frozen),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frozen(epoch: u64, items: Vec<u32>) -> Arc<FrozenSample<u32>> {
        let expected = items.len() as f64;
        Arc::new(FrozenSample::new(epoch, epoch * 10, None, expected, items))
    }

    #[test]
    fn starts_empty_and_publishes_monotonically() {
        let cell: EpochCell<u32> = EpochCell::new();
        assert_eq!(cell.published_epoch(), 0);
        assert!(cell.latest().is_none());
        cell.publish(frozen(1, vec![1]));
        cell.publish(frozen(2, vec![1, 2]));
        assert_eq!(cell.published_epoch(), 2);
        assert_eq!(cell.latest().unwrap().len(), 2);
    }

    #[test]
    fn stale_publications_are_discarded() {
        // The counter and the slot must stay coherent even if a caller
        // publishes out of order: the older sample is dropped, never
        // served under the newer counter.
        let cell: EpochCell<u32> = EpochCell::new();
        cell.publish(frozen(5, vec![1, 2, 3, 4, 5]));
        cell.publish(frozen(3, vec![1, 2, 3]));
        assert_eq!(cell.published_epoch(), 5);
        assert_eq!(cell.latest().unwrap().epoch(), 5);
        assert_eq!(cell.wait_for_epoch(5).unwrap().len(), 5);
    }

    #[test]
    fn wait_returns_immediately_for_past_epochs() {
        let cell: EpochCell<u32> = EpochCell::new();
        cell.publish(frozen(3, vec![7]));
        let got = cell.wait_for_epoch(2).unwrap();
        assert_eq!(got.epoch(), 3);
    }

    #[test]
    fn wait_blocks_until_published() {
        let cell = Arc::new(EpochCell::<u32>::new());
        let cell2 = Arc::clone(&cell);
        let waiter = std::thread::spawn(move || cell2.wait_for_epoch(1));
        std::thread::sleep(std::time::Duration::from_millis(10));
        cell.publish(frozen(1, vec![9]));
        let got = waiter.join().unwrap().unwrap();
        assert_eq!(got.epoch(), 1);
    }

    #[test]
    fn close_unblocks_waiters_with_none() {
        let cell = Arc::new(EpochCell::<u32>::new());
        let cell2 = Arc::clone(&cell);
        let waiter = std::thread::spawn(move || cell2.wait_for_epoch(5));
        std::thread::sleep(std::time::Duration::from_millis(10));
        cell.close();
        assert!(waiter.join().unwrap().is_none());
        assert!(cell.is_closed());
    }

    #[test]
    fn untimed_wait_never_hangs_on_a_publisher_dying_mid_wait() {
        // Regression: the no-timeout wait must route through the same
        // closed-check path as the timeout variant, so a close() landing
        // at *any* point relative to the epoch check — including between
        // the epoch load and the sleep — unblocks it. Hammer the race
        // window: a publisher that closes after a staggered delay while
        // the waiter enters wait_for_epoch.
        for delay_us in [0u64, 50, 200, 1000] {
            let cell = Arc::new(EpochCell::<u32>::new());
            let cell2 = Arc::clone(&cell);
            let closer = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                cell2.close();
            });
            // Must return None promptly — never hang — whichever side of
            // the epoch/closed checks the close landed on.
            assert!(cell.wait_for_epoch(1).is_none(), "delay {delay_us}µs");
            closer.join().unwrap();
        }
    }

    #[test]
    fn wait_timeout_reports_all_three_outcomes() {
        let cell: EpochCell<u32> = EpochCell::new();
        cell.publish(frozen(2, vec![1, 2]));
        let short = std::time::Duration::from_millis(10);
        assert!(matches!(
            cell.wait_for_epoch_timeout(1, short),
            EpochWait::Published(_)
        ));
        let start = std::time::Instant::now();
        assert!(matches!(
            cell.wait_for_epoch_timeout(3, short),
            EpochWait::TimedOut
        ));
        assert!(start.elapsed() >= std::time::Duration::from_millis(5));
        cell.close();
        assert!(matches!(
            cell.wait_for_epoch_timeout(3, short),
            EpochWait::PublisherGone
        ));
    }

    #[test]
    fn timeout_wait_wakes_on_publish_and_close() {
        let cell = Arc::new(EpochCell::<u32>::new());
        let long = std::time::Duration::from_secs(30);
        let cell2 = Arc::clone(&cell);
        let waiter = std::thread::spawn(move || cell2.wait_for_epoch_timeout(1, long).published());
        std::thread::sleep(std::time::Duration::from_millis(10));
        cell.publish(frozen(1, vec![3]));
        assert_eq!(waiter.join().unwrap().unwrap().epoch(), 1);
        // Publisher killed mid-wait: the waiter returns well before the
        // 30s deadline because close() wakes it.
        let cell2 = Arc::clone(&cell);
        let waiter = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let out = cell2.wait_for_epoch_timeout(9, long);
            (start.elapsed(), out)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        cell.close();
        let (elapsed, out) = waiter.join().unwrap();
        assert!(matches!(out, EpochWait::PublisherGone));
        assert!(elapsed < std::time::Duration::from_secs(5));
    }

    #[test]
    fn reopen_rearms_a_closed_cell() {
        let cell: EpochCell<u32> = EpochCell::new();
        cell.publish(frozen(1, vec![1]));
        cell.close();
        assert!(cell.is_closed());
        cell.reopen();
        assert!(!cell.is_closed());
        cell.publish(frozen(2, vec![1, 2]));
        assert_eq!(cell.wait_for_epoch(2).unwrap().epoch(), 2);
    }

    #[test]
    fn closed_cell_still_serves_the_last_publication() {
        let cell: EpochCell<u32> = EpochCell::new();
        cell.publish(frozen(1, vec![4, 5]));
        cell.close();
        assert_eq!(cell.latest().unwrap().items(), &[4, 5]);
        // Epoch 1 was reached before the close, so the wait succeeds.
        assert!(cell.wait_for_epoch(1).is_some());
        assert!(cell.wait_for_epoch(2).is_none());
    }
}
