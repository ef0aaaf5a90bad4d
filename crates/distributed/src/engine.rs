//! Multi-core sharded ingest engine: persistent worker pipeline over
//! mergeable sampler shards.
//!
//! Where [`crate::drtbs`] *simulates* a distributed cluster (with a cost
//! model standing in for the network), this module is the real thing at
//! single-machine scale: **N long-lived shard threads**, each serving a
//! monomorphized sampler ([`tbs_core::merge::MergeableSample`]) and a
//! jump-ahead RNG substream, fed through bounded blocking queues
//! ([`crate::queue::BatchQueue`]) by a driver thread. This is the paper's
//! `Dist,CP` insight (§5: distributed decisions over co-partitioned data
//! need no per-item coordination) applied to cores instead of cluster
//! nodes: ingest runs with **zero cross-shard coordination**, and shard
//! states are only merged — exactly, via the weight algebra of
//! [`tbs_core::merge`] — when a sample is requested.
//!
//! ## Pipeline anatomy
//!
//! ```text
//!              ┌─────────────┐  work: BatchQueue<ShardMsg>  ┌─────────────┐
//!  ingest() ──▶│  driver:    │ ─── Run(slot) to every ────▶ │ shard 0     │
//!              │ moves each  │     shard                    │ reads its   │
//!              │ batch whole │                              │ range of    │
//!              │ into its    │  runs: 2 shared run slots    │ each batch; │
//!              │ open shared │ ◀── free: slot ids ───────── │ owns R-TBS  │
//!              │ run         │  (the last reader returns)   │ + RNG       │
//!              └─────────────┘                              └─────────────┘
//!                                                                 …× N
//! ```
//!
//! * Batches are split deterministically by a
//!   [`tbs_core::merge::BalancedSplitter`]: every shard's decayed weight
//!   stays within **one item** of `W/K`, which licenses the `⌈n/K⌉ + 1`
//!   adaptive shard capacity (see the `tbs_core::merge` module docs) and
//!   keeps high-K shards on the saturated fast path. Shard `k` takes the
//!   `k`-th contiguous range of every batch.
//! * **Shared runs, no copy on the driver**: the driver never touches an
//!   item. It moves each caller batch whole into one open *shared run*
//!   and records only the batch's `K + 1` split offsets
//!   ([`tbs_core::merge::BalancedSplitter::split_sizes`]) — `O(K)` per
//!   batch. Once the run would pass `K` × 8192 items or 1024 batches (a
//!   larger single batch travels alone), and always before any `Sync`,
//!   `Snapshot`, `Barrier` or `CheckpointFork` and at drop, the driver
//!   hands it to **all** shards at once: it swaps the run into a free
//!   slot and pushes the slot id to every work queue. Every read path
//!   therefore sees exactly the batches fed before it, with no timer.
//!   Each shard copies its range of each batch into its own scratch
//!   buffer and feeds it to its sampler, one sub-batch at a time, in
//!   order, so where a run is cut never moves the sample.
//! * **One owner per shard**: each shard's sampler and RNG live on its
//!   worker thread's stack, moved there at spawn. No other thread can
//!   reach them, so they need no lock, and the shard consumes its
//!   sub-stream strictly in FIFO order. The realized sample is a pure
//!   function of the chunk assignment, never of thread timing.
//! * Two run slots circulate with the driver's open run: one queued, one
//!   being read, one filling. The shard that finishes a slot last (an
//!   atomic countdown) empties it under the slot's write lock, dropping
//!   the spent caller batches on its own thread, and returns its id to
//!   the free queue; the driver blocks there when it needs a slot, swaps
//!   its full run in, and gets the emptied run's buffers back. The
//!   driver's ingest path is thus appends plus, per run, one slot pop,
//!   one swap and K pushes: it never frees an item. In-flight ingest
//!   memory is bounded in *items*
//!   (3 × K × the per-shard run target), and after warm-up no buffer is
//!   ever allocated or grown, so steady-state ingest performs **zero
//!   heap allocations** beyond the caller-provided batch (verified by
//!   the engine's counting-allocator test).
//! * Threads are woken only for work they can finish: every queue skips
//!   its futex call when no thread is parked on the other side (see
//!   [`crate::queue`]).
//! * Workers are spawned **once** at construction — no per-batch thread
//!   spawn anywhere.
//!
//! ## Serving without stopping: snapshot barrier + merger fold
//!
//! `sample()` and `request_snapshot()` both route through the same
//! epoch-snapshot protocol:
//!
//! ```text
//!  request_snapshot() ──▶ Barrier(e) ──▶ shard k: fork_for_merge() ─┐
//!        │                (FIFO, so the fork lands exactly at the    │
//!        │                 batch boundary of the request)            ▼
//!        └── Request{e, driver-RNG state} ─────────────▶ ┌───────────────┐
//!                                                        │ merger thread │
//!                                                        │ merge_replay  │
//!                                                        │ + realize     │
//!                                                        └───────┬───────┘
//!                                                                ▼
//!                                                            EpochCell
//! ```
//!
//! Once an epoch's request header and all K forks have arrived, the
//! merger folds them itself with [`tbs_core::merge::merge_replay`] — the
//! same `⌈log₂K⌉`-depth tree [`ParallelIngestEngine::snapshot_merged`]
//! runs — starting from the recorded driver position, realizes the
//! sample on the post-merge trajectory, and publishes it. Barriers flow
//! FIFO through every shard, so epochs complete, and publish, in request
//! order. The shard workers never see the merge: between runs they sleep
//! on their work queues.
//!
//! The merger wakes once per complete epoch or checkpoint generation.
//! The driver's `Request` and `CkptRequest` headers, and every shard fork
//! but the one that completes its epoch or generation, are enqueued
//! quietly ([`BatchQueue::push_quiet`]). Each shard counts its fork
//! inside the merger queue's lock as it appends it
//! ([`BatchQueue::push_wake_if`]), so the completing fork is also the
//! last message of its epoch enqueued, and it wakes the merger. The
//! merger's message stream, its order and so every published bit are
//! those of a merger woken by every message; a full merger queue or a
//! close wakes it too.
//!
//! [`ParallelIngestEngine::request_snapshot`] consumes **no** driver
//! randomness, and the published [`FrozenSample`] is **bit-identical** to
//! a driver-side [`ParallelIngestEngine::snapshot_merged`] + realization
//! from the same RNG position (the engine-snapshot tests pin this down),
//! while ingest never stops: shards pause only for the `O(n_k)` state
//! fork.
//!
//! ## Choosing a shard count
//!
//! With the balanced split and the `⌈n/K⌉ + 1` adaptive capacity, a shard
//! stays on R-TBS's cheap saturated transition whenever
//! `b/(K(1−e^{−λ})) ≥ n/K + 2` — i.e. per-shard equilibrium weight
//! exceeds per-shard capacity, with only a constant (not
//! decay-geometric) headroom term, so keep the whole-stream equilibrium
//! `b/(1−e^{−λ})` comfortably above `n + 2K`.
//!
//! Every shard is one thread, so K beyond the host's free cores does not
//! add throughput: the extra threads only time-slice the same cores, and
//! each one adds a hand-off and a merge leaf. Keep K at or below the
//! free cores of `std::thread::available_parallelism()`.

use crate::fault::{FaultPlan, PushAction};
use crate::queue::BatchQueue;
use crate::snapshot::{EpochCell, EpochWait};
use parking_lot::{Mutex, RwLock};
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tbs_core::frozen::FrozenSample;
use tbs_core::merge::{BalancedSplitter, MergeableSample, ShardSpec};
use tbs_stats::rng::Xoshiro256PlusPlus;

/// What the engine should do when part of its pipeline dies (a shard
/// worker or the merger panics, or a chunk delivery fails).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Transition to [`EngineHealth::Failed`]: close every queue (so
    /// nothing blocks forever), surface the cause as an [`EngineError`]
    /// from this and every subsequent call. The default — zero steady-
    /// state overhead.
    #[default]
    Fail,
    /// Supervised recovery: each shard's state is recorded at every
    /// barrier/checkpoint fork, the driver keeps a replay log of the
    /// shared runs it handed off since then, and on a fault the engine
    /// rebuilds the whole pipeline from the fork records and replays the
    /// log — restoring **bit-identical** `(seed, K)` state, because splits
    /// and per-shard RNG substreams are deterministic. Costs one state
    /// clone per shard per barrier plus one clone per shared run handed
    /// off (a run holds many batches for all K shards; see the module
    /// docs); the replay log is trimmed at each barrier/checkpoint to the
    /// oldest shard's fork record, so publish or checkpoint periodically
    /// to bound its memory.
    RespawnFromBarrier,
}

/// Typed pipeline-failure causes, surfaced instead of panics.
///
/// With [`RecoveryPolicy::Fail`] the first of these transitions the
/// engine to [`EngineHealth::Failed`] and is returned (cloned) by every
/// later call. With [`RecoveryPolicy::RespawnFromBarrier`] they are
/// handled internally unless recovery itself is impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A shard worker thread is gone (its panic guard closed its
    /// queues), or a push to it failed.
    ShardDead {
        /// The shard whose queue failed.
        shard: usize,
    },
    /// The merger thread is gone; snapshots can no longer publish.
    MergerDead,
    /// A run delivery to a shard queue was dropped (fault-injected lost
    /// push): the shard's state no longer matches the stream.
    ChunkDropped {
        /// Destination shard of the lost run.
        shard: usize,
        /// 1-based global batch number of the sub-batch whose push the
        /// fault plan dropped.
        batch: u64,
    },
    /// A requested epoch can no longer publish (the publisher closed the
    /// cell before reaching it).
    SnapshotLost {
        /// The epoch that was abandoned.
        epoch: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ShardDead { shard } => {
                write!(f, "shard worker {shard} terminated")
            }
            EngineError::MergerDead => write!(f, "merger thread terminated"),
            EngineError::ChunkDropped { shard, batch } => {
                write!(f, "chunk delivery to shard {shard} lost at batch {batch}")
            }
            EngineError::SnapshotLost { epoch } => {
                write!(f, "snapshot epoch {epoch} abandoned by a dying pipeline")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Supervision state of the engine, read with
/// [`ParallelIngestEngine::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineHealth {
    /// No fault has ever been observed.
    Healthy,
    /// The engine recovered from at least one fault. Sampler state is
    /// exact (recovery is bit-identical), but epochs that were in flight
    /// at a fault may have been re-issued under the same numbers.
    Degraded {
        /// Number of supervised recoveries performed.
        recoveries: u64,
    },
    /// The engine is terminally failed: every queue is closed, every
    /// call returns the recorded cause.
    Failed(EngineError),
}

/// Configuration of a [`ParallelIngestEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// The single-node sampler the merged output must be equivalent to,
    /// plus the shard count.
    pub spec: ShardSpec,
    /// Bounded depth of each shard's work queue, in messages: shared
    /// runs of batches plus control messages (sync, snapshot, barrier,
    /// checkpoint). It bounds how many requests can queue up ahead of a
    /// shard; in-flight *items* are bounded separately, by the engine's
    /// fixed set of shared run slots times the run size target (see the
    /// module docs), whatever the depth.
    pub queue_depth: usize,
    /// Master seed; the driver and every shard derive non-overlapping
    /// jump-ahead substreams from it.
    pub seed: u64,
    /// What to do when a worker/merger dies mid-stream.
    pub recovery: RecoveryPolicy,
}

impl EngineConfig {
    /// An engine config with the default queue depth (64 messages) and
    /// [`RecoveryPolicy::Fail`].
    pub fn new(spec: ShardSpec, seed: u64) -> Self {
        Self {
            spec,
            queue_depth: 64,
            seed,
            recovery: RecoveryPolicy::Fail,
        }
    }

    /// This config with `recovery` set.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }
}

/// Steady-state ingest counters for one shard, read with
/// [`ParallelIngestEngine::shard_stats`]. Each shard's worker thread is
/// the only thread that processes its sub-stream, so the counters
/// describe both the shard's share of the stream and its thread's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Items ingested by this shard.
    pub items: u64,
    /// Sub-batches processed by this shard.
    pub batches: u64,
    /// Nanoseconds spent inside `observe` calls (excludes queue waits —
    /// this is the shard's *busy* time, the basis of the scaling bench's
    /// aggregate-capacity metric).
    pub busy_ns: u64,
}

#[derive(Debug, Default)]
struct ShardCounters {
    items: AtomicU64,
    batches: AtomicU64,
    busy_ns: AtomicU64,
}

/// Items per shard at which the driver hands its open run off: a run
/// carries up to `K × RUN_ITEMS` items. Large enough that one queue push
/// and one worker wake-up amortize over thousands of items; small enough
/// that a run stays a few hundred KB per shard and the run left open at a
/// publication drains in microseconds.
const RUN_ITEMS: usize = 8192;
/// Batches per run at which the driver hands it off regardless of its
/// item count (a long streak of empty or tiny batches).
const RUN_BATCHES: usize = 1024;
/// Shared run slots: one queued, one being read by the shards; the
/// driver fills a third run, its open one.
const RUN_SLOTS: usize = 2;

/// A run of consecutive caller batches shared by all K shards: each
/// batch moved in whole, plus the `K + 1` offsets of its balanced split
/// (shard `k` reads `bounds[j(K+1) + k .. j(K+1) + k + 1]` of batch `j`).
#[derive(Clone)]
struct SharedRun<T> {
    batches: Vec<Vec<T>>,
    bounds: Vec<usize>,
    /// Items across all batches.
    items: usize,
    shards: usize,
}

impl<T> SharedRun<T> {
    /// A run buffer for `shards` shards, pre-sized so that filling it
    /// never allocates.
    fn pooled(shards: usize) -> Self {
        Self {
            batches: Vec::with_capacity(RUN_BATCHES),
            bounds: Vec::with_capacity(RUN_BATCHES * (shards + 1)),
            items: 0,
            shards,
        }
    }

    fn len(&self) -> usize {
        self.batches.len()
    }

    fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Whether the run must be handed off before a batch of `b` more
    /// items is appended. An empty run always takes it, so a batch larger
    /// than the target travels alone.
    fn is_full_for(&self, b: usize) -> bool {
        !self.is_empty() && (self.items + b > RUN_ITEMS * self.shards || self.len() == RUN_BATCHES)
    }

    /// Append one batch with its per-shard chunk lengths.
    fn push(&mut self, batch: Vec<T>, sizes: &[usize]) {
        let mut end = 0;
        self.bounds.push(end);
        for &len in sizes {
            end += len;
            self.bounds.push(end);
        }
        self.items += batch.len();
        self.batches.push(batch);
    }

    /// Empty the run for reuse, dropping its caller batches (on the
    /// thread of the run's last reader).
    fn clear(&mut self) {
        self.batches.clear();
        self.bounds.clear();
        self.items = 0;
    }

    /// Copy `shard`'s range of each batch after the first `skip` into
    /// `scratch`, in order, handing each to `observe` (cleared after
    /// each). Returns the number of items fed.
    fn feed(
        &self,
        shard: usize,
        skip: usize,
        scratch: &mut Vec<T>,
        mut observe: impl FnMut(&mut Vec<T>),
    ) -> usize
    where
        T: Clone,
    {
        let mut fed = 0;
        let ranges = self.bounds.chunks_exact(self.shards + 1);
        for (batch, b) in self.batches.iter().zip(ranges).skip(skip) {
            scratch.extend_from_slice(&batch[b[shard]..b[shard + 1]]);
            fed += scratch.len();
            observe(scratch);
            scratch.clear();
        }
        fed
    }
}

/// One shared run slot: the run, and how many shards have yet to read it.
struct RunSlot<T> {
    run: RwLock<SharedRun<T>>,
    /// Set to K (`Release`) by the driver before it pushes the slot id.
    /// Each shard drops its read guard and then decrements (`AcqRel`), so
    /// the shard that takes it to zero empties the run and returns the
    /// slot only after every read has ended; the driver's next write lock
    /// never waits.
    pending: AtomicUsize,
}

/// Injected push verdicts collected for one shard at append time, applied
/// to that shard's push when the open run is handed off (fault-matrix
/// only).
#[derive(Debug, Default, Clone, Copy)]
struct RunFaults {
    /// First batch of the run whose push the plan drops.
    dropped: Option<u64>,
    /// Total stall the plan puts before the push.
    stall: Duration,
}

enum ShardMsg {
    /// Ingest this shard's range of every batch in run slot `usize`.
    Run(usize),
    /// Reply with a clone of the shard sampler plus the shard RNG's
    /// current 256-bit position (quiesces: FIFO order guarantees all
    /// prior batches are absorbed first).
    Snapshot,
    /// Reply with an ack once everything queued ahead has been processed.
    Sync,
    /// Epoch-snapshot barrier: fork the shard state off to the merger
    /// thread (no driver round-trip — the shard keeps ingesting).
    Barrier(u64),
    /// Checkpoint barrier: clone `(sampler, RNG state)` off to the merger,
    /// which assembles generation `gen` once every shard reports. Like
    /// `Barrier`, FIFO placement pins the checkpoint to an exact batch
    /// boundary and the shard keeps ingesting.
    CheckpointFork { gen: u64 },
}

enum ShardResp<S> {
    Snapshot(Box<(S, [u64; 4])>),
    Ack,
}

/// Messages flowing into the background merger thread. FIFO causality
/// makes the per-epoch protocol race-free: the driver enqueues the
/// `Request` *before* any shard can see the matching `Barrier`, so the
/// merger always learns the replay RNG state before the forks arrive.
enum MergerMsg<S: MergeableSample> {
    /// Driver-side epoch header: the RNG position the merge must replay
    /// from (bit-identity with the exact path) and the batches-ingested
    /// staleness stamp for the published metadata.
    Request {
        epoch: u64,
        rng: [u64; 4],
        batches: u64,
    },
    /// One shard's forked state at the barrier.
    Fork {
        epoch: u64,
        shard: usize,
        state: Box<S>,
    },
    /// Driver-side checkpoint header: the driver state that, together
    /// with the K shard forks, forms a complete [`EngineCheckpoint`].
    /// Enqueued before the matching `CheckpointFork` barriers, so FIFO
    /// causality delivers it first, exactly like `Request`.
    CkptRequest {
        gen: u64,
        driver_rng: [u64; 4],
        deviations: Vec<f64>,
        batches: u64,
    },
    /// One shard's `(sampler, RNG state)` at checkpoint generation `gen`.
    CkptFork {
        gen: u64,
        shard: usize,
        state: Box<(S, [u64; 4])>,
    },
}

/// Forks of one kind (epoch or checkpoint) pushed to the merger, per
/// shard. Every shard forks the same barrier sequence in order, so the
/// smallest count is the number of complete epochs (or generations), and
/// the fork that raises it completes one. Counted only inside the merger
/// queue's lock ([`BatchQueue::push_wake_if`]), so that fork is also the
/// last of its epoch enqueued.
struct ForkTally {
    pushed: Vec<u64>,
    complete: u64,
}

impl ForkTally {
    fn new(shards: usize) -> Self {
        Self {
            pushed: vec![0; shards],
            complete: 0,
        }
    }

    /// Count one fork from `shard`; `true` iff it completes its epoch.
    fn completes(&mut self, shard: usize) -> bool {
        self.pushed[shard] += 1;
        // INVARIANT: the engine never builds a pipeline without shards.
        let done = *self.pushed.iter().min().expect("at least one shard");
        let completes = done > self.complete;
        self.complete = done;
        completes
    }
}

/// The driver-facing side of one shard: its queues and counters. The
/// shard's sampler and RNG ([`ShardCore`]) live on its worker thread.
struct ShardQueues<S: MergeableSample> {
    work: BatchQueue<ShardMsg>,
    resp: BatchQueue<ShardResp<S>>,
    counters: ShardCounters,
}

/// One shard's sampler and RNG, owned by its worker thread.
struct ShardCore<S> {
    sampler: S,
    rng: Xoshiro256PlusPlus,
    /// Data batches this logical shard has processed (== the driver's
    /// `batches_ingested` once the shard catches up, since every ingest
    /// appends one sub-batch to every shard's run). Positions
    /// fault-injection sites and stamps recovery fork records.
    seen: u64,
}

/// One shard's resumable state, recorded at every barrier/checkpoint fork
/// (and once at spawn). Under [`RecoveryPolicy::RespawnFromBarrier`] the
/// driver rebuilds a dead pipeline from these plus its replay log.
struct ForkRecord<S> {
    /// The shard's `seen` batch count at the fork.
    batches: u64,
    sampler: S,
    rng: [u64; 4],
}

/// Everything the worker and merger threads share.
struct EngineShared<S: MergeableSample> {
    shards: Vec<ShardQueues<S>>,
    /// The [`RUN_SLOTS`] shared run slots.
    runs: Vec<RunSlot<S::Item>>,
    /// Ids of the slots every shard has finished reading; the driver
    /// blocks here when it needs one.
    free: BatchQueue<usize>,
    /// The merger thread's inbox.
    merger: BatchQueue<MergerMsg<S>>,
    /// Epoch forks and checkpoint forks pushed to the merger; each is
    /// locked only inside the merger queue's lock.
    epoch_forks: Mutex<ForkTally>,
    ckpt_forks: Mutex<ForkTally>,
    spec: ShardSpec,
    /// Per-shard recovery fork records; `Some` iff the policy is
    /// [`RecoveryPolicy::RespawnFromBarrier`].
    recovery: Option<Vec<Mutex<Option<ForkRecord<S>>>>>,
    /// Completed checkpoint generations, oldest evicted on overflow.
    /// Shared by `Arc` so completed generations survive a pipeline
    /// rebuild (the queue outlives any one `EngineShared`).
    ckpts_done: Arc<BatchQueue<(u64, EngineCheckpoint<S>)>>,
    /// Injected-fault schedule; `None` (a single predictable branch per
    /// drained batch group — nothing per item) everywhere outside the
    /// fault-matrix tests.
    faults: Option<Arc<FaultPlan>>,
}

/// The complete durable state of a quiesced [`ParallelIngestEngine`]:
/// every shard's sampler and RNG position, the driver's RNG position, and
/// the balanced splitter's deviation state. Feeding it back through
/// [`ParallelIngestEngine::from_parts`] (same spec, shard count, and
/// queue depth) resumes the stream **bit-identically** to an
/// uninterrupted run — the engine-determinism tests pin this down.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint<S> {
    /// Per-shard `(sampler, RNG state)`, in shard-id order.
    pub shard_states: Vec<(S, [u64; 4])>,
    /// The driver's merge/realization RNG position.
    pub driver_rng: [u64; 4],
    /// The balanced splitter's per-shard deviation state `D_k`, in
    /// shard-id order (all zeros for a fresh engine).
    pub split_deviations: Vec<f64>,
    /// Batches ingested so far — the staleness stamp future snapshot
    /// publications continue from.
    pub batches: u64,
}

/// A sharded, multi-threaded ingest front-end over any
/// [`MergeableSample`] sampler (R-TBS, T-TBS).
///
/// See the [module docs](self) for the pipeline anatomy. The engine is
/// deterministic: the realized sample is a pure function of
/// `(seed, shard count, batch sequence)`, never of thread timing.
pub struct ParallelIngestEngine<S: MergeableSample + Clone + Send + 'static>
where
    S::Item: Send + Sync + 'static,
{
    shared: Arc<EngineShared<S>>,
    worker_joins: Vec<Option<JoinHandle<()>>>,
    merger_join: Option<JoinHandle<()>>,
    /// Epoch-publication cell shared with every reader handle.
    cell: Arc<EpochCell<S::Item>>,
    /// Epoch assigned to the next snapshot request (first epoch is 1).
    next_epoch: u64,
    /// Batches fed through [`ParallelIngestEngine::ingest`] — the
    /// staleness stamp carried by published snapshots.
    batches_ingested: u64,
    /// The deviation-balanced deterministic batch splitter.
    splitter: BalancedSplitter,
    /// Driver-side substream: merge randomization + sample realization.
    driver_rng: Xoshiro256PlusPlus,
    /// The open shared run; its batches are always the last `len()`
    /// ingested. Held by value, so appending takes no lock, and kept
    /// across a pipeline rebuild.
    open: SharedRun<S::Item>,
    /// Injected push verdicts per shard for the open run (fault-matrix
    /// only).
    run_faults: Vec<RunFaults>,
    /// Responses are popped into this scratch vector (capacity 1).
    resp_scratch: Vec<ShardResp<S>>,
    /// The config the pipeline was built from (recovery respawns reuse it).
    cfg: EngineConfig,
    /// Terminal failure, recorded once; every later call returns a clone.
    failure: Option<EngineError>,
    /// Supervised recoveries performed so far.
    recoveries: u64,
    /// Generation assigned to the next checkpoint request (first is 1).
    next_ckpt_gen: u64,
    /// Replay log of the shared runs handed off since the oldest shard
    /// fork record, each with the global number of its last batch; only
    /// filled under `RespawnFromBarrier`.
    replay: VecDeque<(u64, SharedRun<S::Item>)>,
}

impl<S: MergeableSample + Clone + Send + 'static> ParallelIngestEngine<S>
where
    S::Item: Clone + Send + Sync + 'static,
{
    /// Spawn the shard worker threads and return the ready engine.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::build(cfg, None)
    }

    /// An engine with an injected-fault schedule installed — the entry
    /// point of the fault-matrix suite. Production code never installs a
    /// plan; see [`crate::fault`].
    pub fn with_fault_plan(cfg: EngineConfig, plan: Arc<FaultPlan>) -> Self {
        Self::build(cfg, Some(plan))
    }

    fn build(cfg: EngineConfig, faults: Option<Arc<FaultPlan>>) -> Self {
        let mut substreams =
            Xoshiro256PlusPlus::seed_from_u64(cfg.seed).split_streams(cfg.spec.shards + 1);
        let driver_rng = substreams.remove(0);
        let cores = S::make_shards(&cfg.spec)
            .into_iter()
            .zip(substreams)
            .map(|(sampler, rng)| ShardCore {
                sampler,
                rng,
                seen: 0,
            })
            .collect();
        let splitter = BalancedSplitter::new(cfg.spec.lambda, cfg.spec.shards);
        Self::spawn(cfg, cores, driver_rng, splitter, 0, faults)
    }

    /// Rebuild an engine from a quiesced checkpoint (see
    /// [`ParallelIngestEngine::save_parts`]). The config must describe the
    /// same sharding the checkpoint was taken under; `cfg.seed` is ignored
    /// — every RNG resumes from its checkpointed position.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's shard count disagrees with `cfg.spec`.
    pub fn from_parts(cfg: EngineConfig, parts: EngineCheckpoint<S>) -> Self {
        assert_eq!(
            parts.shard_states.len(),
            cfg.spec.shards,
            "checkpoint has {} shards, config wants {}",
            parts.shard_states.len(),
            cfg.spec.shards
        );
        assert_eq!(
            parts.split_deviations.len(),
            cfg.spec.shards,
            "checkpoint carries {} split deviations for {} shards",
            parts.split_deviations.len(),
            cfg.spec.shards
        );
        let cores = parts
            .shard_states
            .into_iter()
            .map(|(sampler, state)| ShardCore {
                sampler,
                rng: Xoshiro256PlusPlus::from_state(state),
                seen: parts.batches,
            })
            .collect();
        let driver_rng = Xoshiro256PlusPlus::from_state(parts.driver_rng);
        let splitter = BalancedSplitter::from_deviations(cfg.spec.lambda, parts.split_deviations);
        Self::spawn(cfg, cores, driver_rng, splitter, parts.batches, None)
    }

    fn spawn(
        cfg: EngineConfig,
        cores: Vec<ShardCore<S>>,
        driver_rng: Xoshiro256PlusPlus,
        splitter: BalancedSplitter,
        batches0: u64,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let cell = Arc::new(EpochCell::new());
        // Completed checkpoints outlive any one pipeline incarnation (a
        // recovery respawn hands the same queue to the new merger), so
        // generations assembled before a fault stay claimable after it.
        let ckpts_done = Arc::new(BatchQueue::with_capacity(4));
        let (shared, worker_joins, merger_join) =
            spawn_pipeline(&cfg, cores, faults, ckpts_done, &cell);
        Self {
            open: SharedRun::pooled(cfg.spec.shards),
            run_faults: vec![RunFaults::default(); cfg.spec.shards],
            replay: VecDeque::new(),
            shared,
            worker_joins,
            merger_join,
            cell,
            next_epoch: 1,
            batches_ingested: batches0,
            splitter,
            driver_rng,
            resp_scratch: Vec::with_capacity(1),
            cfg,
            failure: None,
            recoveries: 0,
            next_ckpt_gen: 1,
        }
    }

    /// The shard count K: one worker thread and one reservoir each.
    pub fn shards(&self) -> usize {
        self.cfg.spec.shards
    }

    /// The single-node-equivalent spec this engine maintains.
    pub fn spec(&self) -> &ShardSpec {
        &self.shared.spec
    }

    /// Feed one arriving batch. The batch is moved whole into the open
    /// shared run together with its balanced split's offsets (see the
    /// module docs) — no item is touched here. The run is handed to the
    /// shards once it reaches the size target, blocking only when the
    /// shards still hold every run slot or a work queue is full —
    /// backpressure, not data loss. Empty batches are delivered too,
    /// since every shard's decay clock must advance.
    ///
    /// If the pipeline died, returns the typed cause under
    /// [`RecoveryPolicy::Fail`]; under
    /// [`RecoveryPolicy::RespawnFromBarrier`] the engine rebuilds itself
    /// (absorbing what it had handed off via the replay log) and returns
    /// `Ok`.
    pub fn ingest(&mut self, batch: Vec<S::Item>) -> Result<(), EngineError> {
        self.check_alive()?;
        if self.open.is_full_for(batch.len()) {
            self.hand_off()?;
        }
        self.batches_ingested += 1;
        let sizes = self.splitter.split_sizes(batch.len());
        self.open.push(batch, sizes);
        if let Some(plan) = &self.shared.faults {
            let batch_no = self.batches_ingested;
            for (shard, faults) in self.run_faults.iter_mut().enumerate() {
                match plan.push_action(shard, batch_no) {
                    PushAction::Drop => {
                        faults.dropped.get_or_insert(batch_no);
                    }
                    PushAction::Delay(stall) => faults.stall += stall,
                    PushAction::Deliver => {}
                }
            }
        }
        Ok(())
    }

    /// Hand the open run to every shard: swap it into a free slot and
    /// push the slot's id to each work queue. The slot's previous run,
    /// already emptied by its last reader, comes back as the new open
    /// run, so nothing is freed here. Under `RespawnFromBarrier` the run is
    /// logged before the pushes, so a push that fails or is dropped is
    /// replayed by the recovery it triggers; a failure before the swap
    /// leaves the run open.
    fn try_hand_off(&mut self) -> Result<(), EngineError> {
        // The free queue closes only when a shard worker dies.
        let Some(id) = self.shared.free.pop() else {
            return Err(self.dead_shard());
        };
        if self.shared.recovery.is_some() {
            self.replay
                .push_back((self.batches_ingested, self.open.clone()));
        }
        let slot = &self.shared.runs[id];
        std::mem::swap(&mut *slot.run.write(), &mut self.open);
        slot.pending
            .store(self.shared.shards.len(), Ordering::Release);
        debug_assert!(self.open.is_empty(), "a free slot holds an emptied run");
        let mut cause = None;
        for (k, queues) in self.shared.shards.iter().enumerate() {
            let faults = std::mem::take(&mut self.run_faults[k]);
            if let Some(batch) = faults.dropped {
                // The enqueue was "lost": the shard's state no longer
                // matches its stream. Surfaced exactly like a dead shard —
                // fail typed, or restore from fork + replay (the log holds
                // the lost run).
                cause.get_or_insert(EngineError::ChunkDropped { shard: k, batch });
                continue;
            }
            if !faults.stall.is_zero() {
                std::thread::sleep(faults.stall);
            }
            if queues.work.push(ShardMsg::Run(id)).is_err() {
                cause.get_or_insert(EngineError::ShardDead { shard: k });
            }
        }
        cause.map_or(Ok(()), Err)
    }

    /// Hand the open run off (nothing to do when it holds no batches) —
    /// the step before any message that must see everything ingested so
    /// far. Failures go through the supervisor; a run still open after a
    /// recovery goes to the fresh pipeline.
    fn hand_off(&mut self) -> Result<(), EngineError> {
        while !self.open.is_empty() {
            if let Err(cause) = self.try_hand_off() {
                self.incident(cause)?;
            }
        }
        Ok(())
    }

    /// The shard whose worker died: its panic guard closed its work queue
    /// before the free queue.
    fn dead_shard(&self) -> EngineError {
        // INVARIANT: the free queue is closed only by a shard worker's
        // exit guard, which closes that shard's work queue first.
        let shard = self
            .shared
            .shards
            .iter()
            .position(|queues| queues.work.is_closed())
            .expect("a closed free queue means a shard's work queue closed");
        EngineError::ShardDead { shard }
    }

    /// Block until every shard has absorbed everything queued so far.
    pub fn quiesce(&mut self) -> Result<(), EngineError> {
        self.check_alive()?;
        self.hand_off()?;
        loop {
            match self.try_sync() {
                Ok(()) => return Ok(()),
                Err(cause) => self.incident(cause)?,
            }
        }
    }

    fn try_sync(&mut self) -> Result<(), EngineError> {
        for (i, queues) in self.shared.shards.iter().enumerate() {
            if queues.work.push(ShardMsg::Sync).is_err() {
                return Err(EngineError::ShardDead { shard: i });
            }
        }
        for (i, queues) in self.shared.shards.iter().enumerate() {
            match pop_resp(i, queues, &mut self.resp_scratch)? {
                ShardResp::Ack => {}
                // INVARIANT: the driver runs one request protocol at a
                // time, so a Sync can only be answered by an Ack.
                ShardResp::Snapshot(_) => unreachable!("sync acked with a snapshot payload"),
            }
        }
        Ok(())
    }

    /// Quiesce and clone out every shard's `(sampler, RNG state)`, in
    /// shard-id order (shards keep running; their live state is
    /// untouched).
    fn try_snapshot_shards(&mut self) -> Result<Vec<(S, [u64; 4])>, EngineError> {
        for (i, queues) in self.shared.shards.iter().enumerate() {
            if queues.work.push(ShardMsg::Snapshot).is_err() {
                return Err(EngineError::ShardDead { shard: i });
            }
        }
        let mut snapshots = Vec::with_capacity(self.shared.shards.len());
        for (i, queues) in self.shared.shards.iter().enumerate() {
            match pop_resp(i, queues, &mut self.resp_scratch)? {
                ShardResp::Snapshot(s) => snapshots.push(*s),
                // INVARIANT: one request protocol at a time (see try_sync).
                ShardResp::Ack => unreachable!("snapshot request acked without payload"),
            }
        }
        Ok(snapshots)
    }

    fn snapshot_shards(&mut self) -> Result<Vec<(S, [u64; 4])>, EngineError> {
        self.check_alive()?;
        self.hand_off()?;
        loop {
            match self.try_snapshot_shards() {
                Ok(snaps) => return Ok(snaps),
                Err(cause) => self.incident(cause)?,
            }
        }
    }

    /// Quiesce, snapshot every shard, and merge the snapshots into a
    /// single-node-equivalent sampler (shards keep running; their live
    /// state is untouched). The merge runs the canonical
    /// [`tbs_core::merge::merge_replay`] tree on the driver thread.
    pub fn snapshot_merged(&mut self) -> Result<S, EngineError> {
        let snapshots = self
            .snapshot_shards()?
            .into_iter()
            .map(|(sampler, _)| sampler)
            .collect();
        Ok(S::merge_shards(
            snapshots,
            &self.shared.spec,
            &mut self.driver_rng,
        ))
    }

    /// Quiesce and capture the engine's complete durable state: every
    /// shard's sampler and RNG position, the driver RNG position, and the
    /// balanced splitter's deviations. Unlike
    /// [`ParallelIngestEngine::sample`], this consumes **no** randomness,
    /// so checkpointing mid-stream leaves the trajectory untouched;
    /// [`ParallelIngestEngine::from_parts`] resumes bit-identically.
    pub fn save_parts(&mut self) -> Result<EngineCheckpoint<S>, EngineError> {
        Ok(EngineCheckpoint {
            shard_states: self.snapshot_shards()?,
            driver_rng: self.driver_rng.state(),
            split_deviations: self.splitter.deviations().to_vec(),
            batches: self.batches_ingested,
        })
    }

    /// Request an asynchronous checkpoint at the current batch boundary
    /// and return its generation number, **without stopping ingest**.
    ///
    /// Like [`ParallelIngestEngine::request_snapshot`], this rides the
    /// barrier machinery: each shard clones its `(sampler, RNG)` exactly
    /// at this boundary and keeps ingesting; the merger assembles the
    /// parts into an [`EngineCheckpoint`] claimable via
    /// [`ParallelIngestEngine::try_take_checkpoint`]. Consumes **no**
    /// driver randomness, and the assembled checkpoint is byte-identical
    /// to what a synchronous [`ParallelIngestEngine::save_parts`] at the
    /// same boundary would return. At most 4 completed generations are
    /// retained; the oldest unclaimed one is evicted.
    pub fn request_checkpoint(&mut self) -> Result<u64, EngineError> {
        self.check_alive()?;
        self.hand_off()?;
        loop {
            let gen = self.next_ckpt_gen;
            let mut cause = None;
            // Header before barriers: FIFO causality, exactly like the
            // snapshot protocol (and quiet for the same reason).
            if self
                .shared
                .merger
                .push_quiet(MergerMsg::CkptRequest {
                    gen,
                    driver_rng: self.driver_rng.state(),
                    deviations: self.splitter.deviations().to_vec(),
                    batches: self.batches_ingested,
                })
                .is_err()
            {
                cause = Some(EngineError::MergerDead);
            }
            if cause.is_none() {
                for (i, queues) in self.shared.shards.iter().enumerate() {
                    if queues.work.push(ShardMsg::CheckpointFork { gen }).is_err() {
                        cause = Some(EngineError::ShardDead { shard: i });
                        break;
                    }
                }
            }
            match cause {
                None => {
                    self.next_ckpt_gen += 1;
                    self.trim_replay();
                    return Ok(gen);
                }
                // After a recovery the generation is re-requested on the
                // fresh pipeline — shard state is restored bit-identical,
                // so the checkpoint is too.
                Some(cause) => self.incident(cause)?,
            }
        }
    }

    /// Claim a completed asynchronous checkpoint, oldest first, without
    /// blocking. Returns `(generation, checkpoint)`.
    pub fn try_take_checkpoint(&mut self) -> Option<(u64, EngineCheckpoint<S>)> {
        self.shared.ckpts_done.try_pop()
    }

    /// Claim a completed asynchronous checkpoint, waiting up to `timeout`
    /// for one to assemble. `Ok(None)` means none completed within the
    /// deadline — including when a fault was detected and recovered
    /// mid-wait, in which case any in-flight generation died with the old
    /// pipeline and must be re-requested.
    pub fn wait_checkpoint(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(u64, EngineCheckpoint<S>)>, EngineError> {
        self.check_alive()?;
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(got) = self.shared.ckpts_done.try_pop() {
                return Ok(Some(got));
            }
            if let Some(cause) = self.detect_dead() {
                self.incident(cause)?;
                return Ok(None);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let wait = (deadline - now).min(Duration::from_millis(5));
            self.shared.ckpts_done.wait_nonempty(wait);
        }
    }

    /// Request publication of an epoch snapshot and return its epoch
    /// number, **without stopping ingest or blocking on the result**.
    ///
    /// A barrier marker is enqueued after everything ingested so far, so
    /// the snapshot reflects exactly the batches fed before this call.
    /// Each shard forks its state at the barrier (an `O(n_k)` copy) and
    /// keeps ingesting; the merger thread folds the forks through
    /// [`tbs_core::merge::merge_replay`] from the recorded driver RNG
    /// position (see the module docs) and publishes an
    /// `Arc<FrozenSample>` into the engine's [`EpochCell`].
    ///
    /// Consumes **no** driver randomness: the merger replays the merge +
    /// realization from the driver RNG's current *position*, so the
    /// published sample is bit-identical to what a driver-side
    /// [`ParallelIngestEngine::snapshot_merged`] + realization would have
    /// produced here, and the engine's own trajectory is untouched (like
    /// [`ParallelIngestEngine::save_parts`]).
    ///
    /// The only blocking is backpressure: if a queue is full the push
    /// waits, exactly as `ingest` does.
    ///
    /// If part of the pipeline has died (a panic guard closes its
    /// queues), the barrier cannot reach every shard and the epoch could
    /// never complete: under [`RecoveryPolicy::Fail`] the engine fails
    /// typed (the dead pipeline's closers have already closed the cell,
    /// so `wait_for_epoch` callers observe publisher death instead of
    /// blocking forever; published epochs stay readable); under
    /// [`RecoveryPolicy::RespawnFromBarrier`] the pipeline is rebuilt and
    /// the request re-issued on it.
    pub fn request_snapshot(&mut self) -> Result<u64, EngineError> {
        self.check_alive()?;
        let pos = self.driver_rng.state();
        self.request_snapshot_at(pos)
    }

    /// Issue a snapshot request replaying merge randomness from driver
    /// position `pos`, retrying on a fresh pipeline after any recovered
    /// fault. Factored out so [`ParallelIngestEngine::sample`] can re-
    /// request a faulted epoch from its original pre-`long_jump` position
    /// — keeping the retried merge bit-identical to a fault-free run.
    fn request_snapshot_at(&mut self, pos: [u64; 4]) -> Result<u64, EngineError> {
        self.hand_off()?;
        loop {
            let epoch = self.next_epoch;
            let mut cause = None;
            // Request before barriers: FIFO causality guarantees the
            // merger sees the epoch header before any fork for it, so the
            // header never completes its epoch and goes quietly.
            if self
                .shared
                .merger
                .push_quiet(MergerMsg::Request {
                    epoch,
                    rng: pos,
                    batches: self.batches_ingested,
                })
                .is_err()
            {
                cause = Some(EngineError::MergerDead);
            }
            if cause.is_none() {
                for (i, queues) in self.shared.shards.iter().enumerate() {
                    if queues.work.push(ShardMsg::Barrier(epoch)).is_err() {
                        cause = Some(EngineError::ShardDead { shard: i });
                        break;
                    }
                }
            }
            match cause {
                None => {
                    self.next_epoch += 1;
                    self.trim_replay();
                    return Ok(epoch);
                }
                Some(cause) => self.incident(cause)?,
            }
        }
    }

    /// The epoch-publication cell snapshots are served through. Clone the
    /// `Arc` into as many reader threads as you like; readers never touch
    /// the ingest path's queues or locks.
    pub fn snapshot_cell(&self) -> Arc<EpochCell<S::Item>> {
        Arc::clone(&self.cell)
    }

    /// Highest epoch published so far (0 until the first
    /// [`ParallelIngestEngine::request_snapshot`] completes).
    pub fn published_epoch(&self) -> u64 {
        self.cell.published_epoch()
    }

    /// Highest epoch requested so far (0 if none). The gap to
    /// [`ParallelIngestEngine::published_epoch`] is the number of
    /// snapshots still in flight.
    pub fn requested_epoch(&self) -> u64 {
        self.next_epoch - 1
    }

    /// Batches fed through [`ParallelIngestEngine::ingest`] so far.
    pub fn batches_ingested(&self) -> u64 {
        self.batches_ingested
    }

    /// Merge and realize the unified sample **on the merger thread**:
    /// request an epoch snapshot, advance the driver past the merge's
    /// RNG-substream block (one `long_jump`, the `merge_replay`
    /// contract), and wait for the merger to publish the epoch.
    ///
    /// The driver thread does O(1) work here — the `⌈log₂K⌉`-depth merge
    /// and the realization run on the merger, overlapping any
    /// still-queued ingest on the shard workers.
    ///
    /// The wait is supervised: it polls in short slices and checks the
    /// pipeline's pulse on each timeout, so a death anywhere surfaces as
    /// a typed error (or a supervised recovery + bit-identical re-merge
    /// from the *same* RNG position) in bounded time — never a hang.
    pub fn sample(&mut self) -> Result<Vec<S::Item>, EngineError> {
        self.check_alive()?;
        let pos = self.driver_rng.state();
        let mut epoch = self.request_snapshot_at(pos)?;
        self.driver_rng.long_jump();
        loop {
            match self
                .cell
                .wait_for_epoch_timeout(epoch, Duration::from_millis(25))
            {
                EpochWait::Published(frozen) => return Ok(frozen.items().to_vec()),
                EpochWait::PublisherGone => {
                    self.incident(EngineError::SnapshotLost { epoch })?;
                    epoch = self.request_snapshot_at(pos)?;
                }
                EpochWait::TimedOut => {
                    if let Some(cause) = self.detect_dead() {
                        self.incident(cause)?;
                        epoch = self.request_snapshot_at(pos)?;
                    }
                    // Otherwise the pipeline is alive and merging — a
                    // slow epoch is legitimate; keep waiting.
                }
            }
        }
    }

    /// Per-shard ingest counters (items, batches, busy nanoseconds).
    /// Exact after a [`ParallelIngestEngine::quiesce`]; otherwise a
    /// point-in-time reading.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shared
            .shards
            .iter()
            .map(|c| ShardStats {
                items: c.counters.items.load(Ordering::Relaxed),
                batches: c.counters.batches.load(Ordering::Relaxed),
                busy_ns: c.counters.busy_ns.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Current supervision state (see [`EngineHealth`]).
    pub fn health(&self) -> EngineHealth {
        match &self.failure {
            Some(cause) => EngineHealth::Failed(cause.clone()),
            None if self.recoveries > 0 => EngineHealth::Degraded {
                recoveries: self.recoveries,
            },
            None => EngineHealth::Healthy,
        }
    }

    /// Number of supervised recoveries performed so far. Consumers with
    /// work in flight across the pipeline (asynchronous checkpoints) can
    /// compare readings to learn that the pipeline was rebuilt under
    /// them.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    fn check_alive(&self) -> Result<(), EngineError> {
        match &self.failure {
            Some(cause) => Err(cause.clone()),
            None => Ok(()),
        }
    }

    /// Pulse check: a closed queue means its owner's panic guard ran.
    fn detect_dead(&self) -> Option<EngineError> {
        if self.shared.merger.is_closed() {
            return Some(EngineError::MergerDead);
        }
        for (i, queues) in self.shared.shards.iter().enumerate() {
            if queues.work.is_closed() {
                return Some(EngineError::ShardDead { shard: i });
            }
        }
        None
    }

    /// Funnel for every detected fault: recover under
    /// [`RecoveryPolicy::RespawnFromBarrier`] (returning `Ok` so the
    /// caller retries on the fresh pipeline), otherwise record the cause,
    /// tear the pipeline down, and return it.
    fn incident(&mut self, cause: EngineError) -> Result<(), EngineError> {
        if self.shared.recovery.is_some() {
            self.recover_from();
            Ok(())
        } else {
            self.fail_now(cause.clone());
            Err(cause)
        }
    }

    /// Transition to [`EngineHealth::Failed`]: close everything so no
    /// thread (ours or a reader's) can block on the dead pipeline, join
    /// what remains, record the cause.
    fn fail_now(&mut self, cause: EngineError) {
        self.failure = Some(cause);
        self.shutdown_pipeline();
        // The merger's closer already closed the cell on its way out;
        // repeat for the case where the merger was long gone.
        self.cell.close();
    }

    /// Stop-the-world: close every work queue, join the workers, close
    /// and join the merger. Join panics are swallowed — by the time we
    /// are here the death has already been converted to a typed cause.
    fn shutdown_pipeline(&mut self) {
        for queues in &self.shared.shards {
            queues.work.close();
        }
        for join in &mut self.worker_joins {
            if let Some(join) = join.take() {
                let _ = join.join();
            }
        }
        self.shared.merger.close();
        if let Some(join) = self.merger_join.take() {
            let _ = join.join();
        }
    }

    /// Supervised recovery: tear the pipeline down, restore every shard
    /// from its last fork record plus the driver's replay log (splits and
    /// RNG substreams are deterministic, so the restored state is
    /// **bit-identical** to the pre-fault stream), and respawn fresh
    /// threads over the same epoch cell.
    fn recover_from(&mut self) {
        self.shutdown_pipeline();
        let mut cores = Vec::with_capacity(self.shared.shards.len());
        let mut scratch = Vec::new();
        {
            // INVARIANT: `incident` only routes here when recovery slots
            // exist, and a record is installed in every slot before the
            // workers spawn — workers replace records, never remove them.
            let slots = self
                .shared
                .recovery
                .as_ref()
                .expect("recovery slots exist under RespawnFromBarrier");
            for (k, slot) in slots.iter().enumerate() {
                let record = slot
                    .lock()
                    .take()
                    .expect("fork record installed before spawn");
                let mut core = ShardCore {
                    sampler: record.sampler,
                    rng: Xoshiro256PlusPlus::from_state(record.rng),
                    seen: record.batches,
                };
                // Replay this shard's range of every logged batch past its
                // fork record.
                for (last, run) in &self.replay {
                    let first = last - run.len() as u64;
                    let seen = core.seen.saturating_sub(first).min(run.len() as u64);
                    run.feed(k, seen as usize, &mut scratch, |batch| {
                        core.sampler.observe_shard(batch, &mut core.rng);
                    });
                    core.seen = core.seen.max(*last);
                }
                cores.push(core);
            }
        }
        self.replay.clear();
        // Same cell: reader handles cloned before the fault stay valid.
        // The dead merger's closer closed it (waking stranded waiters
        // with `PublisherGone`); re-arm it for the new incarnation.
        self.cell.reopen();
        let (shared, worker_joins, merger_join) = spawn_pipeline(
            &self.cfg,
            cores,
            self.shared.faults.clone(),
            Arc::clone(&self.shared.ckpts_done),
            &self.cell,
        );
        // The open run stays in the driver across the rebuild and reaches
        // the new shards at its hand-off.
        self.shared = shared;
        self.worker_joins = worker_joins;
        self.merger_join = merger_join;
        // Epoch numbers that were in flight at the fault are re-issued:
        // the merger publishes from published+1, and `wait_for_epoch`'s
        // `>= epoch` contract hands a re-issued publication to anyone
        // still waiting on a lost number.
        self.next_epoch = self.cell.published_epoch() + 1;
        self.recoveries += 1;
    }

    /// Drop replay-log entries already covered by every shard's latest
    /// fork record. Called after each barrier/checkpoint issuance;
    /// `try_lock` only — a busy or stale record just means trimming less
    /// now and more later.
    fn trim_replay(&mut self) {
        let Some(slots) = &self.shared.recovery else {
            return;
        };
        let mut oldest = u64::MAX;
        for slot in slots {
            match slot.try_lock().as_deref() {
                Some(Some(record)) => oldest = oldest.min(record.batches),
                _ => return,
            }
        }
        while self.replay.front().is_some_and(|(last, _)| *last <= oldest) {
            self.replay.pop_front();
        }
    }
}

/// Blocking single-response pop from a shard's response queue.
///
/// A closed-and-empty response queue means the worker terminated (its
/// panic guard closes the queue on unwind); surface that as a typed
/// error instead of blocking forever.
fn pop_resp<S: MergeableSample>(
    shard: usize,
    queues: &ShardQueues<S>,
    scratch: &mut Vec<ShardResp<S>>,
) -> Result<ShardResp<S>, EngineError> {
    scratch.clear();
    if queues.resp.drain_into(scratch) == 1 {
        // INVARIANT: the driver runs one request protocol at a time, so a
        // successful drain yields exactly the one matching response.
        Ok(scratch.pop().expect("drained response present"))
    } else {
        Err(EngineError::ShardDead { shard })
    }
}

impl<S: MergeableSample + Clone + Send + 'static> Drop for ParallelIngestEngine<S>
where
    S::Item: Send + Sync + 'static,
{
    fn drop(&mut self) {
        // Hand the open run off, then close the work queues: each worker
        // drains its backlog and exits; join re-raises genuine worker
        // panics. A closed free queue or a failed push only means a dead
        // shard, and nothing is left to report it to.
        if !self.open.is_empty() {
            if let Some(id) = self.shared.free.pop() {
                let slot = &self.shared.runs[id];
                std::mem::swap(&mut *slot.run.write(), &mut self.open);
                slot.pending
                    .store(self.shared.shards.len(), Ordering::Release);
                for queues in &self.shared.shards {
                    let _ = queues.work.push(ShardMsg::Run(id));
                }
            }
        }
        for queues in &self.shared.shards {
            queues.work.close();
        }
        let failure_recorded = self.failure.is_some();
        for join in &mut self.worker_joins {
            if let Some(join) = join.take() {
                if let Err(payload) = join.join() {
                    reraise(failure_recorded, payload);
                }
            }
        }
        // Shards first, merger second: a draining shard backlog may still
        // push barrier forks, which the merger must be alive to absorb.
        // After the close the merger folds and publishes whatever epochs
        // completed, closes the cell (waking any wait_for_epoch
        // blockers), and exits.
        self.shared.merger.close();
        if let Some(join) = self.merger_join.take() {
            if let Err(payload) = join.join() {
                reraise(failure_recorded, payload);
            }
        }
    }
}

/// Decide what to do with a panic payload collected while joining a
/// pipeline thread at drop. A death the supervisor already converted to a
/// typed error — or one the fault harness injected on purpose — is not a
/// bug to re-report; anything else propagates (unless we are already
/// unwinding, where a second panic would abort the process).
fn reraise(failure_recorded: bool, payload: Box<dyn std::any::Any + Send>) {
    if failure_recorded || crate::fault::is_injected_panic(payload.as_ref()) {
        return;
    }
    if !std::thread::panicking() {
        std::panic::resume_unwind(payload);
    }
}

/// Build the shared state and spawn the merger + K shard worker threads
/// over an existing epoch cell. Used both at construction and by
/// supervised recovery respawns — which reuse the cell, so reader handles
/// cloned before a fault stay valid across it.
#[allow(clippy::type_complexity)]
fn spawn_pipeline<S: MergeableSample + Clone + Send + 'static>(
    cfg: &EngineConfig,
    cores: Vec<ShardCore<S>>,
    faults: Option<Arc<FaultPlan>>,
    ckpts_done: Arc<BatchQueue<(u64, EngineCheckpoint<S>)>>,
    cell: &Arc<EpochCell<S::Item>>,
) -> (
    Arc<EngineShared<S>>,
    Vec<Option<JoinHandle<()>>>,
    Option<JoinHandle<()>>,
)
where
    S::Item: Clone + Send + Sync + 'static,
{
    let spec = cfg.spec;
    let depth = cfg.queue_depth.max(1);
    let recovery = match cfg.recovery {
        RecoveryPolicy::RespawnFromBarrier => Some(
            cores
                .iter()
                .map(|core| {
                    Mutex::new(Some(ForkRecord {
                        batches: core.seen,
                        sampler: core.sampler.clone(),
                        rng: core.rng.state(),
                    }))
                })
                .collect(),
        ),
        RecoveryPolicy::Fail => None,
    };
    let shard_count = cores.len();
    debug_assert_eq!(shard_count, spec.shards, "sampler count must match shards");
    // Room for a few epochs in flight (each is 1 request + K forks);
    // beyond that the snapshot path exerts backpressure on whoever
    // requests faster than the merger can fold.
    let merger: BatchQueue<MergerMsg<S>> = BatchQueue::with_capacity(4 * (shard_count + 2));
    let shards: Vec<ShardQueues<S>> = (0..shard_count)
        .map(|_| ShardQueues {
            work: BatchQueue::with_capacity(depth),
            resp: BatchQueue::with_capacity(2),
            counters: ShardCounters::default(),
        })
        .collect();
    // Every slot starts free, pre-sized to the run target. Together with
    // the driver's open run they are the only run buffers: the driver
    // blocks on the free queue rather than allocate, so the population
    // never creeps and steady-state ingest never calls the allocator (the
    // counting-allocator test pins this down).
    let runs = (0..RUN_SLOTS)
        .map(|_| RunSlot {
            run: RwLock::new(SharedRun::pooled(shard_count)),
            pending: AtomicUsize::new(0),
        })
        .collect();
    let free = BatchQueue::with_capacity(RUN_SLOTS);
    for id in 0..RUN_SLOTS {
        let _ = free.try_push(id);
    }
    let shared = Arc::new(EngineShared {
        shards,
        runs,
        free,
        merger,
        epoch_forks: Mutex::new(ForkTally::new(shard_count)),
        ckpt_forks: Mutex::new(ForkTally::new(shard_count)),
        spec,
        recovery,
        ckpts_done,
        faults,
    });
    // In-order publication continues wherever the cell left off — a
    // recovery respawn must not restart the epoch sequence at 1.
    let start_pub = cell.published_epoch() + 1;
    // Every thread checks in before this returns. The OS may first run a
    // thread long after its spawn, and the runtime allocates as a thread
    // starts; that start-up would otherwise land mid-stream and break the
    // zero-allocation steady state.
    let started = Arc::new(Barrier::new(shard_count + 2));
    // INVARIANT: thread spawn fails only on OS resource exhaustion
    // (thread limit, out of memory) — an environment failure at
    // construction/recovery time, not a runtime fault the supervisor
    // could meaningfully absorb. Aborting construction is the contract.
    let merger_join = std::thread::Builder::new()
        .name("tbs-merger".into())
        .spawn({
            let shared = Arc::clone(&shared);
            let cell = Arc::clone(cell);
            let started = Arc::clone(&started);
            move || {
                started.wait();
                merger_worker(&shared, &cell, start_pub)
            }
        })
        .expect("spawn merger worker");
    // One worker thread per shard; each takes its core by value, so no
    // other thread can ever touch that shard's sampler or RNG.
    let worker_joins = cores
        .into_iter()
        .enumerate()
        .map(|(i, core)| {
            let shared = Arc::clone(&shared);
            let started = Arc::clone(&started);
            Some(
                std::thread::Builder::new()
                    .name(format!("tbs-shard-{i}"))
                    .spawn(move || shard_worker(i, core, &shared, depth, &started))
                    .expect("spawn shard worker"),
            )
        })
        .collect();
    started.wait();
    (shared, worker_joins, Some(merger_join))
}

/// Process one drained group of messages for shard `shard_id` on its
/// worker thread — the only place shard state advances.
///
/// The shard's range of each batch in a shared run passes through
/// `scratch` one at a time; the last shard to finish a run returns its
/// slot to the free queue.
fn process_shard_msgs<S: MergeableSample + Clone>(
    shard_id: usize,
    core: &mut ShardCore<S>,
    shared: &EngineShared<S>,
    msgs: &mut Vec<ShardMsg>,
    scratch: &mut Vec<S::Item>,
) where
    S::Item: Clone,
{
    let merger = &shared.merger;
    let queues = &shared.shards[shard_id];
    let counters = &queues.counters;
    let mut items = 0u64;
    let mut batches = 0u64;
    let mut busy = 0u64;
    // One timed span per contiguous stretch of runs: each run already
    // coalesces many batches, so the two clock reads amortize to nothing
    // per batch.
    let mut span: Option<Instant> = None;
    let close_span = |span: &mut Option<Instant>, busy: &mut u64| {
        if let Some(t) = span.take() {
            *busy += t.elapsed().as_nanos() as u64;
        }
    };
    // Counters must be flushed *before* any Sync/Snapshot response is
    // sent: the driver reads them right after the ack, and the "exact
    // after quiesce" contract holds only if everything processed ahead
    // of the ack is already visible.
    let flush = |items: &mut u64, batches: &mut u64, busy: &mut u64| {
        counters.items.fetch_add(*items, Ordering::Relaxed);
        counters.batches.fetch_add(*batches, Ordering::Relaxed);
        counters.busy_ns.fetch_add(*busy, Ordering::Relaxed);
        (*items, *batches, *busy) = (0, 0, 0);
    };
    for msg in msgs.drain(..) {
        match msg {
            ShardMsg::Run(id) => {
                if span.is_none() {
                    span = Some(Instant::now());
                }
                let slot = &shared.runs[id];
                {
                    let run = slot.run.read();
                    batches += run.len() as u64;
                    let fed = run.feed(shard_id, 0, scratch, |batch| {
                        if let Some(plan) = &shared.faults {
                            // Injection site: "the worker processing shard
                            // `shard_id`'s `seen`-th batch". Keyed to the
                            // shard's deterministic stream position, not
                            // the (timing-dependent) run boundaries.
                            plan.fire_kill_worker(shard_id, core.seen);
                        }
                        core.seen += 1;
                        core.sampler.observe_shard(batch, &mut core.rng);
                    });
                    items += fed as u64;
                }
                // The read guard is gone: the last reader empties the run
                // (the driver's hand-off never frees a caller batch) and
                // frees the slot, and neither write lock waits on a reader.
                if slot.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    slot.run.write().clear();
                    let _ = shared.free.try_push(id);
                }
            }
            ShardMsg::Snapshot => {
                close_span(&mut span, &mut busy);
                flush(&mut items, &mut batches, &mut busy);
                let _ = queues.resp.push(ShardResp::Snapshot(Box::new((
                    core.sampler.clone(),
                    core.rng.state(),
                ))));
            }
            ShardMsg::Barrier(epoch) => {
                // The fork is charged to the busy span: it is real
                // per-shard pipeline work, and the serving benchmark's
                // ingest-capacity gate must see the snapshot overhead.
                if span.is_none() {
                    span = Some(Instant::now());
                }
                let _ = merger.push_wake_if(
                    MergerMsg::Fork {
                        epoch,
                        shard: shard_id,
                        state: Box::new(core.sampler.fork_for_merge()),
                    },
                    || shared.epoch_forks.lock().completes(shard_id),
                );
                // Refresh the recovery fork record at the same boundary:
                // barriers double as recovery points, bounding the
                // driver's replay log at the publication cadence.
                if let Some(slots) = &shared.recovery {
                    *slots[shard_id].lock() = Some(ForkRecord {
                        batches: core.seen,
                        sampler: core.sampler.clone(),
                        rng: core.rng.state(),
                    });
                }
            }
            ShardMsg::CheckpointFork { gen } => {
                if span.is_none() {
                    span = Some(Instant::now());
                }
                let state = (core.sampler.clone(), core.rng.state());
                if let Some(slots) = &shared.recovery {
                    *slots[shard_id].lock() = Some(ForkRecord {
                        batches: core.seen,
                        sampler: state.0.clone(),
                        rng: state.1,
                    });
                }
                let _ = merger.push_wake_if(
                    MergerMsg::CkptFork {
                        gen,
                        shard: shard_id,
                        state: Box::new(state),
                    },
                    || shared.ckpt_forks.lock().completes(shard_id),
                );
            }
            ShardMsg::Sync => {
                close_span(&mut span, &mut busy);
                flush(&mut items, &mut batches, &mut busy);
                let _ = queues.resp.push(ShardResp::Ack);
            }
        }
    }
    close_span(&mut span, &mut busy);
    flush(&mut items, &mut batches, &mut busy);
}

/// The long-lived shard worker: it owns shard `shard_id`'s `core`,
/// serves the shard's queue, and sleeps on it while it is empty.
fn shard_worker<S: MergeableSample + Clone>(
    shard_id: usize,
    mut core: ShardCore<S>,
    shared: &EngineShared<S>,
    depth: usize,
    started: &Barrier,
) where
    S::Item: Clone,
{
    let my = &shared.shards[shard_id];
    // If the worker unwinds (a sampler panic), close its driver-facing
    // queues and then the free queue: a driver blocked in pop_resp fails
    // fast ("shard worker terminated"), and one blocked on a full work
    // queue or on an empty free queue (a run slot this shard will never
    // release) wakes with an error instead of waiting forever on a
    // consumer that no longer exists. The core dies with this thread, so
    // the supervisor rebuilds the shard from its fork record and the
    // replay log. On normal exit the engine is being dropped and the
    // closes are harmless.
    struct PanicCloser<'a, S: MergeableSample> {
        shared: &'a EngineShared<S>,
        shard: usize,
    }
    impl<S: MergeableSample> Drop for PanicCloser<'_, S> {
        fn drop(&mut self) {
            let queues = &self.shared.shards[self.shard];
            queues.work.close();
            queues.resp.close();
            self.shared.free.close();
        }
    }
    let _closer = PanicCloser {
        shared,
        shard: shard_id,
    };

    // A drained group holds at most `depth` messages (every work queue's
    // bound), and a shard's range of a batch at most the per-shard run
    // target unless one batch alone outgrew the run, so sizing the local
    // buffers up front makes the loop allocation-free from the first
    // message on.
    let mut msgs: Vec<ShardMsg> = Vec::with_capacity(depth);
    let mut scratch: Vec<S::Item> = Vec::with_capacity(RUN_ITEMS);
    started.wait();
    // A 0 return means the queue is closed and fully drained: the
    // shard's stream has ended. A closed queue with a backlog (engine
    // drop) still drains in full first.
    while my.work.drain_into(&mut msgs) > 0 {
        process_shard_msgs(shard_id, &mut core, shared, &mut msgs, &mut scratch);
    }
}

/// Per-epoch assembly state on the merger thread.
struct PendingEpoch<S> {
    /// `(driver RNG position, batches stamp)` from the epoch's `Request`.
    header: Option<([u64; 4], u64)>,
    /// Forked shard states, indexed by shard id.
    forks: Vec<Option<S>>,
    received: usize,
}

impl<S> PendingEpoch<S> {
    fn new(shards: usize) -> Self {
        Self {
            header: None,
            forks: (0..shards).map(|_| None).collect(),
            received: 0,
        }
    }

    fn is_complete(&self, shards: usize) -> bool {
        self.header.is_some() && self.received == shards
    }
}

/// Per-generation checkpoint assembly state on the merger thread.
struct PendingCkpt<S> {
    /// `(driver RNG, split deviations, batches)` from the `CkptRequest`.
    header: Option<([u64; 4], Vec<f64>, u64)>,
    /// `(sampler, RNG state)` parts, indexed by shard id.
    parts: Vec<Option<(S, [u64; 4])>>,
    received: usize,
}

impl<S> PendingCkpt<S> {
    fn new(shards: usize) -> Self {
        Self {
            header: None,
            parts: (0..shards).map(|_| None).collect(),
            received: 0,
        }
    }

    fn is_complete(&self, shards: usize) -> bool {
        self.header.is_some() && self.received == shards
    }
}

/// The background merger: collect each epoch's `Request` header and K
/// shard forks, fold them with [`tbs_core::merge::merge_replay`] from the
/// recorded driver position, realize, and publish epochs **strictly in
/// order**; assemble each checkpoint generation from its header and K
/// shard parts.
fn merger_worker<S: MergeableSample + Clone>(
    shared: &EngineShared<S>,
    cell: &EpochCell<S::Item>,
    start_pub: u64,
) {
    // However this thread exits — queue closed on engine drop, or a
    // panic inside merge — close every merger-facing endpoint:
    //
    // * the cell, so readers blocked in wait_for_epoch wake instead of
    //   waiting on a publisher that no longer exists (published samples
    //   stay readable);
    // * the work queue, so shard workers pushing barrier forks (and the
    //   driver pushing epoch requests) fail fast instead of blocking
    //   forever on a bounded queue no one drains — a merger panic must
    //   not deadlock ingest, mirroring the shard workers' PanicCloser.
    struct PanicCloser<'a, S: MergeableSample> {
        shared: &'a EngineShared<S>,
        cell: &'a EpochCell<S::Item>,
    }
    impl<S: MergeableSample> Drop for PanicCloser<'_, S> {
        fn drop(&mut self) {
            self.shared.merger.close();
            self.cell.close();
        }
    }
    let _closer = PanicCloser { shared, cell };

    let spec = shared.spec;
    let shard_count = shared.shards.len();
    let mut pending: BTreeMap<u64, PendingEpoch<S>> = BTreeMap::new();
    let mut pending_ckpts: BTreeMap<u64, PendingCkpt<S>> = BTreeMap::new();
    // Publication continues wherever the cell left off — 1 for a fresh
    // engine, published+1 for a recovery respawn.
    let mut next_pub: u64 = start_pub;
    // Messages processed by this merger incarnation (fault-site ordinal).
    let mut msg_seen: u64 = 0;
    let mut msgs: Vec<MergerMsg<S>> = Vec::new();
    // Every epoch is folded and published within the drain that completes
    // it, so a 0 return (closed and fully drained) leaves nothing behind.
    while shared.merger.drain_into(&mut msgs) > 0 {
        for msg in msgs.drain(..) {
            if let Some(plan) = &shared.faults {
                plan.fire_kill_merger(msg_seen);
            }
            msg_seen += 1;
            match msg {
                MergerMsg::Request {
                    epoch,
                    rng,
                    batches,
                } => {
                    pending
                        .entry(epoch)
                        .or_insert_with(|| PendingEpoch::new(shard_count))
                        .header = Some((rng, batches));
                }
                MergerMsg::Fork {
                    epoch,
                    shard,
                    state,
                } => {
                    let entry = pending
                        .entry(epoch)
                        .or_insert_with(|| PendingEpoch::new(shard_count));
                    if entry.forks[shard].replace(*state).is_none() {
                        entry.received += 1;
                    }
                }
                MergerMsg::CkptRequest {
                    gen,
                    driver_rng,
                    deviations,
                    batches,
                } => {
                    pending_ckpts
                        .entry(gen)
                        .or_insert_with(|| PendingCkpt::new(shard_count))
                        .header = Some((driver_rng, deviations, batches));
                }
                MergerMsg::CkptFork { gen, shard, state } => {
                    let entry = pending_ckpts
                        .entry(gen)
                        .or_insert_with(|| PendingCkpt::new(shard_count));
                    if entry.parts[shard].replace(*state).is_none() {
                        entry.received += 1;
                    }
                }
            }
        }
        // Assemble every complete checkpoint generation, oldest first.
        while let Some(entry) = pending_ckpts.first_entry() {
            if !entry.get().is_complete(shard_count) {
                break;
            }
            let (gen, state) = entry.remove_entry();
            // INVARIANT: `is_complete` just verified the header and all K
            // shard parts arrived, so the unwraps below cannot fire.
            let (driver_rng, deviations, batches) =
                state.header.expect("complete checkpoint has a header");
            let ckpt = EngineCheckpoint {
                shard_states: state
                    .parts
                    .into_iter()
                    .map(|p| p.expect("complete checkpoint has every shard"))
                    .collect(),
                driver_rng,
                split_deviations: deviations,
                batches,
            };
            if let Err(fresh) = shared.ckpts_done.try_push((gen, ckpt)) {
                // Ring full: evict the oldest unclaimed generation to
                // keep the newest — never block the merge pipeline on a
                // slow checkpoint consumer.
                let _ = shared.ckpts_done.try_pop();
                let _ = shared.ckpts_done.try_push(fresh);
            }
        }
        // Fold and publish every complete epoch, oldest first. Barriers
        // flow FIFO through every shard, so epochs complete in request
        // order and publication never skips one.
        while let Some(entry) = pending.first_entry() {
            if !entry.get().is_complete(shard_count) {
                break;
            }
            let (epoch, state) = entry.remove_entry();
            debug_assert_eq!(epoch, next_pub, "epochs publish in request order");
            // INVARIANT: `is_complete` just verified the header and all K
            // fork states arrived, so the unwraps below cannot fire.
            let (rng_state, batches) = state.header.expect("complete epoch has a header");
            let forks: Vec<S> = state
                .forks
                .into_iter()
                .map(|f| f.expect("complete epoch has every fork"))
                .collect();
            // The driver-side sequence exactly: `merge_shards` (that is,
            // `merge_replay`) from the recorded position, then realize on
            // the post-`long_jump` trajectory.
            let mut rng = Xoshiro256PlusPlus::from_state(rng_state);
            let root = S::merge_shards(forks, &spec, &mut rng);
            let mut items = Vec::new();
            root.realize_into(&mut rng, &mut items);
            cell.publish(Arc::new(FrozenSample::new(
                epoch,
                batches,
                root.total_stream_weight(),
                root.expected_size(),
                items,
            )));
            next_pub += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbs_core::{RTbs, TTbs};

    fn rtbs_engine(lambda: f64, n: usize, k: usize, seed: u64) -> ParallelIngestEngine<RTbs<u64>> {
        ParallelIngestEngine::new(EngineConfig::new(ShardSpec::rtbs(lambda, n, k), seed))
    }

    #[test]
    fn capacity_is_respected() {
        let mut engine = rtbs_engine(0.1, 100, 4, 1);
        for t in 0..50u64 {
            let b = [50u64, 0, 200, 10][t as usize % 4];
            engine.ingest((0..b).collect()).unwrap();
        }
        let sample = engine.sample().unwrap();
        assert!(sample.len() <= 100, "sample overflow: {}", sample.len());
    }

    #[test]
    fn weight_recursion_is_exact() {
        let schedule = [30u64, 0, 80, 5, 5, 0, 0, 120, 10];
        for k in [1usize, 2, 4, 8, 16] {
            let mut engine = rtbs_engine(0.1, 50, k, 7);
            let mut w = 0.0f64;
            for &b in &schedule {
                w = w * (-0.1f64).exp() + b as f64;
                engine.ingest((0..b).collect()).unwrap();
            }
            let merged = engine.snapshot_merged().unwrap();
            assert!(
                (merged.total_weight() - w).abs() < 1e-9,
                "k={k}: W {} vs {w}",
                merged.total_weight()
            );
            assert!((merged.sample_weight() - w.min(50.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_count_all_items() {
        let mut engine = rtbs_engine(0.1, 64, 4, 3);
        let mut total = 0u64;
        for t in 0..40u64 {
            let b = [17u64, 0, 93, 5][t as usize % 4];
            total += b;
            engine.ingest((0..b).collect()).unwrap();
        }
        engine.quiesce().unwrap();
        let stats = engine.shard_stats();
        assert_eq!(stats.iter().map(|s| s.items).sum::<u64>(), total);
        assert_eq!(stats.iter().map(|s| s.batches).sum::<u64>(), 40 * 4);
    }

    #[test]
    fn snapshot_leaves_shards_running() {
        let mut engine = rtbs_engine(0.1, 32, 2, 5);
        engine.ingest((0..100u64).collect()).unwrap();
        let first = engine.snapshot_merged().unwrap();
        engine.ingest((0..100u64).collect()).unwrap();
        let second = engine.snapshot_merged().unwrap();
        assert_eq!(first.batches_observed() + 1, second.batches_observed());
        assert!(second.total_weight() > first.total_weight());
    }

    #[test]
    fn ttbs_engine_tracks_target() {
        let spec = ShardSpec::ttbs(0.1, 200, 100.0, 4);
        let mut engine: ParallelIngestEngine<TTbs<u64>> =
            ParallelIngestEngine::new(EngineConfig::new(spec, 11));
        for t in 0..400u64 {
            engine
                .ingest((0..100).map(|i| t * 100 + i).collect())
                .unwrap();
        }
        let merged = engine.snapshot_merged().unwrap();
        let size = merged.len() as f64;
        assert!(
            (size / 200.0 - 1.0).abs() < 0.25,
            "merged T-TBS size {size} far from target 200"
        );
    }

    #[test]
    fn drop_is_clean_with_backlog() {
        let mut engine = rtbs_engine(0.5, 16, 2, 9);
        for _ in 0..100 {
            engine.ingest((0..50u64).collect()).unwrap();
        }
        drop(engine); // must not hang or panic
    }

    #[test]
    fn drop_is_clean_with_unclaimed_snapshots() {
        // Requests whose merges are still in flight at drop must be
        // completed (or abandoned) without deadlock, and the cell must
        // end up closed.
        let mut engine = rtbs_engine(0.2, 64, 4, 13);
        for t in 0..50u64 {
            engine
                .ingest((0..80).map(|i| t * 100 + i).collect())
                .unwrap();
            if t % 10 == 0 {
                engine.request_snapshot().unwrap();
            }
        }
        let cell = engine.snapshot_cell();
        drop(engine);
        assert!(cell.is_closed());
        assert_eq!(cell.published_epoch(), 5, "all requested epochs publish");
    }

    #[test]
    fn save_parts_resume_is_bit_identical() {
        // Run A: 60 batches straight through. Run B: 30 batches, checkpoint,
        // rebuild a fresh engine from the parts, 30 more. Samples must match
        // exactly — same items, same order.
        for k in [1usize, 2, 4, 8, 16] {
            let batch = |t: u64| -> Vec<u64> {
                let b = [40u64, 0, 150, 7][t as usize % 4];
                (0..b).map(|i| t * 1000 + i).collect()
            };
            let cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 64, k), 42);
            let mut uninterrupted = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
            for t in 0..60 {
                uninterrupted.ingest(batch(t)).unwrap();
            }
            let expect = uninterrupted.sample().unwrap();

            let mut first_half = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
            for t in 0..30 {
                first_half.ingest(batch(t)).unwrap();
            }
            let parts = first_half.save_parts().unwrap();
            assert_eq!(parts.split_deviations.len(), k);
            drop(first_half);
            let mut resumed = ParallelIngestEngine::<RTbs<u64>>::from_parts(cfg, parts);
            for t in 30..60 {
                resumed.ingest(batch(t)).unwrap();
            }
            assert_eq!(resumed.sample().unwrap(), expect, "k={k}: resume diverged");
        }
    }

    #[test]
    fn save_parts_does_not_disturb_the_trajectory() {
        // Checkpointing mid-stream must consume no randomness: a run with a
        // checkpoint taken halfway equals a run without one.
        let cfg = EngineConfig::new(ShardSpec::rtbs(0.1, 32, 2), 5);
        let mut plain = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
        let mut observed = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
        for t in 0..40u64 {
            plain
                .ingest((0..50).map(|i| t * 100 + i).collect())
                .unwrap();
            observed
                .ingest((0..50).map(|i| t * 100 + i).collect())
                .unwrap();
            if t == 20 {
                let _ = observed.save_parts().unwrap();
            }
        }
        assert_eq!(plain.sample().unwrap(), observed.sample().unwrap());
    }

    #[test]
    fn queue_depth_never_changes_the_sample() {
        // Slam a 16-shard engine with a shallow queue (maximizing
        // backpressure stalls) and compare against a second run with a
        // deep queue: same seed ⇒ bit-identical samples, whatever the
        // thread interleaving did.
        let spec = ShardSpec::rtbs(0.1, 200, 16);
        let shallow = EngineConfig {
            spec,
            queue_depth: 2,
            seed: 77,
            recovery: RecoveryPolicy::Fail,
        };
        let deep = EngineConfig {
            spec,
            queue_depth: 256,
            seed: 77,
            recovery: RecoveryPolicy::Fail,
        };
        let drive = |cfg: EngineConfig| -> Vec<u64> {
            let mut engine = ParallelIngestEngine::<RTbs<u64>>::new(cfg);
            for t in 0..300u64 {
                let b = [331u64, 0, 97, 1200, 16][t as usize % 5];
                engine
                    .ingest((0..b).map(|i| t * 10_000 + i).collect())
                    .unwrap();
            }
            engine.sample().unwrap()
        };
        assert_eq!(drive(shallow), drive(deep));
    }
}
