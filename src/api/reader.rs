//! Concurrent, clonable read handles over epoch-published samples.
//!
//! A [`SampleReader`] is the serving-side counterpart of
//! [`crate::api::Sampler::publish`]: the sampler (or its sharded engine)
//! publishes immutable [`FrozenSample`]s into a shared epoch cell, and any
//! number of reader handles — `Send + Sync + Clone`, one per consumer
//! thread — pull the latest publication without ever touching the ingest
//! path's queues or locks. One `ModelManager` retraining, four dashboard
//! threads polling, and a saturated ingest loop can all run at once.
//!
//! ## Polling cost
//!
//! [`SampleReader::latest`] first checks the published-epoch counter (one
//! atomic load) against the handle's cache and returns the cached `Arc`
//! when nothing new was published — the hot-poll path is lock-free and
//! allocation-free. Only when the epoch moved does it clone the new `Arc`
//! out of the publication slot (a refcount bump under a nanoseconds-scale
//! critical section no ingest thread ever enters).
//!
//! ## Staleness semantics
//!
//! Readers see the newest *published* sample, which trails live ingest by
//! the snapshots still in flight. Every [`FrozenSample`] carries its
//! epoch and the number of batches it reflects
//! ([`FrozenSample::batches_observed`]), so a consumer can decide whether
//! a publication is fresh enough — or call [`SampleReader::wait_for_epoch`]
//! to block until a specific request lands.

use std::sync::Arc;
use std::time::Duration;
use tbs_core::frozen::FrozenSample;
use tbs_distributed::snapshot::{EpochCell, EpochWait};

/// A clonable, thread-safe handle reading epoch-published samples; see
/// the [`crate::api`] module docs and [`crate::api::Sampler::reader`].
#[derive(Debug)]
pub struct SampleReader<T> {
    cell: Arc<EpochCell<T>>,
    /// Epoch of `cached` (0 = nothing seen yet).
    seen_epoch: u64,
    cached: Option<Arc<FrozenSample<T>>>,
}

impl<T> Clone for SampleReader<T> {
    /// Cloning shares the publication cell; the cache travels along, so a
    /// clone handed to another thread starts warm.
    fn clone(&self) -> Self {
        Self {
            cell: Arc::clone(&self.cell),
            seen_epoch: self.seen_epoch,
            cached: self.cached.clone(),
        }
    }
}

impl<T> From<Arc<EpochCell<T>>> for SampleReader<T> {
    /// A reader over any epoch cell — e.g. a serving replica mirroring a
    /// publisher owned elsewhere in the process. Starts cold.
    fn from(cell: Arc<EpochCell<T>>) -> Self {
        Self {
            cell,
            seen_epoch: 0,
            cached: None,
        }
    }
}

impl<T> SampleReader<T> {
    /// The most recently published sample, or `None` before the first
    /// publication. Non-blocking: a poll that finds nothing new is one
    /// atomic load plus an `Arc` clone of the cached value, and never
    /// acquires any lock the ingest path uses.
    pub fn latest(&mut self) -> Option<Arc<FrozenSample<T>>> {
        let published = self.cell.published_epoch();
        if published > self.seen_epoch {
            self.cached = self.cell.latest();
            // Trust the sample's own stamp: a publication newer than the
            // counter we read may already sit in the slot.
            self.seen_epoch = self.cached.as_ref().map_or(0, |f| f.epoch());
        }
        self.cached.clone()
    }

    /// Block until a sample of epoch ≥ `epoch` is published, then return
    /// the latest publication (which may be newer). Returns `None` only
    /// when the publisher shut down — its `Sampler` was dropped — before
    /// reaching `epoch`. Shares the timeout variant's closed-check wait
    /// loop, so a publisher dying at any point relative to the wait
    /// (including between the epoch load and the park) unblocks it.
    pub fn wait_for_epoch(&mut self, epoch: u64) -> Option<Arc<FrozenSample<T>>> {
        let frozen = self.cell.wait_for_epoch(epoch)?;
        self.seen_epoch = frozen.epoch();
        self.cached = Some(Arc::clone(&frozen));
        Some(frozen)
    }

    /// [`SampleReader::wait_for_epoch`] with a deadline: block until a
    /// sample of epoch ≥ `epoch` is published, the publisher dies, or
    /// `timeout` elapses — whichever comes first. A consumer waiting on
    /// a publisher whose pipeline is killed mid-wait returns promptly
    /// with [`EpochWait::PublisherGone`] instead of hanging; a healthy
    /// but slow merge returns [`EpochWait::TimedOut`] so the caller can
    /// fall back to [`SampleReader::latest`] or give up.
    pub fn wait_for_epoch_timeout(&mut self, epoch: u64, timeout: Duration) -> EpochWait<T> {
        let wait = self.cell.wait_for_epoch_timeout(epoch, timeout);
        if let EpochWait::Published(frozen) = &wait {
            self.seen_epoch = frozen.epoch();
            self.cached = Some(Arc::clone(frozen));
        }
        wait
    }

    /// Highest epoch published so far (0 before the first publication) —
    /// one atomic load. Compare with the epoch of the sample you hold to
    /// measure staleness in publications.
    pub fn published_epoch(&self) -> u64 {
        self.cell.published_epoch()
    }

    /// Epoch of the sample this handle currently caches (0 = none).
    pub fn cached_epoch(&self) -> u64 {
        self.seen_epoch
    }

    /// Whether the publishing sampler has been dropped. The last
    /// publication, if any, remains readable via [`SampleReader::latest`].
    pub fn is_publisher_gone(&self) -> bool {
        self.cell.is_closed()
    }
}

#[cfg(test)]
mod tests {
    use crate::api::SamplerConfig;
    use std::time::{Duration, Instant};

    #[test]
    fn untimed_wait_unblocks_when_the_publisher_dies_mid_wait() {
        // Regression: wait_for_epoch (no timeout) must take the same
        // closed-checked path as wait_for_epoch_timeout, so a sampler
        // dropped while the reader is parked — or closing concurrently
        // with the wait's own epoch check — returns None instead of
        // blocking forever. Sweep drop delays to land the close on both
        // sides of the epoch-load → park edge.
        for delay_us in [0u64, 50, 200, 2000] {
            let sampler = SamplerConfig::rtbs(0.1, 64)
                .seed(9)
                .build::<u64>()
                .expect("valid config");
            let mut reader = sampler.reader();
            let dropper = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(delay_us));
                drop(sampler);
            });
            let start = Instant::now();
            assert!(
                reader.wait_for_epoch(1).is_none(),
                "delay {delay_us}µs: wait returned a sample that was never published"
            );
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "delay {delay_us}µs: wait effectively hung"
            );
            assert!(reader.is_publisher_gone());
            dropper.join().unwrap();
        }
    }
}
