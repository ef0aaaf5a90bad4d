//! Durable checkpoint storage: a ring of CRC-framed generation files.
//!
//! A [`CheckpointStore`] owns one directory and writes each checkpoint
//! blob as an atomically-renamed, CRC-framed generation file
//! (`gen-<seq>.tbsc`), keeping the newest G generations and pruning the
//! rest. The two halves of the durability contract:
//!
//! * **Torn writes never corrupt an older generation.** Every write goes
//!   to a temp file first and reaches its final name only through
//!   `rename` (atomic on POSIX filesystems), after an `fsync`. A crash
//!   mid-write leaves a stray temp file and the previous generations
//!   untouched.
//! * **Corrupt reads are detected, not restored.** The frame carries a
//!   CRC32 over the payload (`tbs_core::checkpoint::frame`); a
//!   bit-flipped or truncated file fails [`CheckpointStore::load`] with
//!   a typed error, and [`crate::api::Sampler::recover`] falls back
//!   through the ring to the newest generation that still validates.
//!
//! The store is deliberately dumb about contents: it moves opaque blobs
//! produced by [`crate::api::Sampler::snapshot`] and leaves
//! interpretation to [`crate::api::Sampler::restore`].

use bytes::Bytes;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use tbs_core::checkpoint::{frame, unframe};

use crate::api::error::TbsError;

/// Map an I/O failure into the API error vocabulary, naming the
/// operation that failed.
fn io_err(op: &'static str, e: std::io::Error) -> TbsError {
    TbsError::CheckpointIo {
        op,
        detail: e.to_string(),
    }
}

/// A directory-backed ring of checkpoint generations; see the module
/// docs above and [`crate::api::Sampler::recover`].
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Ring capacity: how many generation files are retained.
    generations: usize,
    /// Sequence number the next [`CheckpointStore::save`] will use —
    /// strictly greater than every sequence already in the directory.
    next_seq: u64,
    /// Write-behind worker, spawned lazily by the first
    /// [`CheckpointStore::save_behind`]; `None` until then.
    writer: Option<Writer>,
}

/// A job for the write-behind worker.
enum WriterJob {
    /// Persist `blob` as generation `seq` (frame + temp + fsync +
    /// rename + prune, exactly like a synchronous save).
    Save { seq: u64, blob: Vec<u8> },
    /// Acknowledge once every job queued before this one has hit disk.
    Flush(mpsc::Sender<()>),
}

/// The write-behind worker: a thread owning the slow half of `save`
/// (CRC framing, temp-file write, `fsync`, rename, prune) so the ingest
/// thread only pays for serialization. The first I/O failure is parked
/// in `err` and re-raised by the next `save_behind`/`flush` — write-
/// behind defers the *work*, never the *error report* past the next
/// durability point.
struct Writer {
    tx: Option<mpsc::Sender<WriterJob>>,
    join: Option<std::thread::JoinHandle<()>>,
    err: Arc<Mutex<Option<TbsError>>>,
}

impl std::fmt::Debug for Writer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Writer").finish_non_exhaustive()
    }
}

impl Drop for Writer {
    /// Closing the channel ends the worker loop; joining makes every
    /// queued generation durable before the store (and with it the
    /// directory handle) goes away. A worker that panicked is ignored —
    /// its queued saves are lost, which the ring's CRC validation treats
    /// exactly like any other missing/torn generation.
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Persist one framed generation file: temp + `fsync` + atomic rename,
/// then prune the ring down to `generations`. Shared by the synchronous
/// and write-behind paths so the two can never disagree on the format.
fn persist_generation(
    dir: &Path,
    generations: usize,
    seq: u64,
    blob: &[u8],
) -> Result<(), TbsError> {
    let finalpath = dir.join(format!("gen-{seq}.tbsc"));
    let tmp = dir.join(format!("gen-{seq}.tbsc.tmp"));
    let framed = frame(blob);
    let mut file = fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
    file.write_all(&framed).map_err(|e| io_err("write", e))?;
    file.sync_all().map_err(|e| io_err("sync", e))?;
    drop(file);
    fs::rename(&tmp, &finalpath).map_err(|e| io_err("rename", e))?;
    // Prune oldest-first down to the ring capacity. A prune failure is
    // reported but the checkpoint itself is already durable.
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err("scan", e))? {
        let entry = entry.map_err(|e| io_err("scan", e))?;
        if let Some(s) = parse_generation(&entry.file_name()) {
            seqs.push(s);
        }
    }
    seqs.sort_unstable();
    if seqs.len() > generations {
        for &old in &seqs[..seqs.len() - generations] {
            fs::remove_file(dir.join(format!("gen-{old}.tbsc"))).map_err(|e| io_err("prune", e))?;
        }
    }
    Ok(())
}

impl CheckpointStore {
    /// Open (creating if needed) a store over `dir` retaining the newest
    /// `generations` checkpoint files (`generations ≥ 1`).
    ///
    /// Scans the directory so sequence numbers continue monotonically
    /// across process restarts; files that are not `gen-<seq>.tbsc` are
    /// ignored (stray temp files from a crashed writer are harmless).
    pub fn open(dir: impl AsRef<Path>, generations: usize) -> Result<Self, TbsError> {
        if generations == 0 {
            return Err(TbsError::InvalidCheckpointPolicy {
                reason: "the generation ring must retain at least one \
                         checkpoint",
            });
        }
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", e))?;
        let mut store = Self {
            dir,
            generations,
            next_seq: 1,
            writer: None,
        };
        if let Some(&newest) = store.stored_generations()?.last() {
            store.next_seq = newest + 1;
        }
        Ok(store)
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Ring capacity (how many generations are retained).
    pub fn capacity(&self) -> usize {
        self.generations
    }

    /// Sequence numbers of every stored generation, oldest first.
    ///
    /// Reflects what is on disk: write-behind generations still in
    /// flight ([`CheckpointStore::save_behind`]) appear only after a
    /// [`CheckpointStore::flush`].
    pub fn stored_generations(&self) -> Result<Vec<u64>, TbsError> {
        let mut seqs = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("scan", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("scan", e))?;
            if let Some(seq) = parse_generation(&entry.file_name()) {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Write `blob` as the next generation — CRC-framed, temp file +
    /// `fsync` + atomic rename — prune the ring down to capacity, and
    /// return the new sequence number. Synchronous: the generation is
    /// durable when this returns. Any write-behind saves still in flight
    /// are flushed first, so generations always land in sequence order.
    pub fn save(&mut self, blob: &[u8]) -> Result<u64, TbsError> {
        self.flush()?;
        let seq = self.next_seq;
        persist_generation(&self.dir, self.generations, seq, blob)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Queue `blob` as the next generation and return its sequence
    /// number **without waiting for the disk**: the CRC framing, temp
    /// write, `fsync`, rename, and prune all happen on a write-behind
    /// thread (spawned lazily on first use), so an ingest loop pays only
    /// for the serialization it already did. Durability is deferred to
    /// [`CheckpointStore::flush`] (or drop, which joins the writer); a
    /// crash before then loses at most the queued generations — which
    /// [`crate::api::Sampler::recover`] handles exactly like any other
    /// missing or torn generation, by falling back through the ring.
    ///
    /// A failed background save is reported by the *next* `save_behind`,
    /// [`CheckpointStore::save`], or [`CheckpointStore::flush`] call.
    pub fn save_behind(&mut self, blob: &[u8]) -> Result<u64, TbsError> {
        self.take_background_err()?;
        let seq = self.next_seq;
        let writer = match &mut self.writer {
            Some(w) => w,
            None => {
                let err = Arc::new(Mutex::new(None));
                let (tx, rx) = mpsc::channel::<WriterJob>();
                let dir = self.dir.clone();
                let generations = self.generations;
                let slot = Arc::clone(&err);
                let join = std::thread::Builder::new()
                    .name("tbs-ckpt-writer".into())
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            match job {
                                WriterJob::Save { seq, blob } => {
                                    if let Err(e) =
                                        persist_generation(&dir, generations, seq, &blob)
                                    {
                                        let mut slot =
                                            slot.lock().unwrap_or_else(|p| p.into_inner());
                                        slot.get_or_insert(e);
                                    }
                                }
                                WriterJob::Flush(ack) => {
                                    let _ = ack.send(());
                                }
                            }
                        }
                    })
                    // INVARIANT: spawn fails only on OS resource
                    // exhaustion — an environment failure, like running
                    // out of disk, that durability cannot paper over.
                    .expect("spawn checkpoint writer");
                self.writer.insert(Writer {
                    tx: Some(tx),
                    join: Some(join),
                    err,
                })
            }
        };
        let tx = writer
            .tx
            .as_ref()
            .expect("writer channel open while writer exists");
        // INVARIANT: the worker only stops when `tx` drops, so a send
        // cannot find the receiver gone while the handle is alive.
        tx.send(WriterJob::Save {
            seq,
            blob: blob.to_vec(),
        })
        .expect("checkpoint writer alive");
        self.next_seq += 1;
        Ok(seq)
    }

    /// Block until every queued write-behind generation is durable,
    /// re-raising the first background I/O failure if one occurred.
    /// No-op when nothing is queued.
    pub fn flush(&mut self) -> Result<(), TbsError> {
        if let Some(writer) = &self.writer {
            let (ack_tx, ack_rx) = mpsc::channel();
            let tx = writer
                .tx
                .as_ref()
                .expect("writer channel open while writer exists");
            tx.send(WriterJob::Flush(ack_tx))
                .expect("checkpoint writer alive");
            // INVARIANT: the worker acks every flush it receives and
            // only exits when the channel closes, which requires this
            // store (the only sender) to have dropped first.
            ack_rx.recv().expect("checkpoint writer acks flushes");
        }
        self.take_background_err()
    }

    /// Surface (and clear) the first recorded background save failure.
    fn take_background_err(&mut self) -> Result<(), TbsError> {
        if let Some(writer) = &self.writer {
            let mut slot = writer.err.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(e) = slot.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Read generation `seq` back, validating the CRC frame. Corruption
    /// (bit flip, truncation, torn header) is a typed
    /// [`TbsError::Checkpoint`] error, never garbage bytes.
    pub fn load(&self, seq: u64) -> Result<Bytes, TbsError> {
        let raw = fs::read(self.generation_path(seq)).map_err(|e| io_err("read", e))?;
        Ok(unframe(&raw)?)
    }

    /// The file path generation `seq` lives at (exposed for tests and
    /// operational tooling; the file is CRC-framed, not a raw blob).
    pub fn generation_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("gen-{seq}.tbsc"))
    }
}

/// Parse `gen-<seq>.tbsc` file names; anything else is not ours.
fn parse_generation(name: &std::ffi::OsStr) -> Option<u64> {
    let name = name.to_str()?;
    name.strip_prefix("gen-")?
        .strip_suffix(".tbsc")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory per test (no tempfile dependency).
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tbs-store-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn blobs_round_trip_and_sequence_monotonically() {
        let dir = scratch("roundtrip");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        let a = store.save(b"alpha").unwrap();
        let b = store.save(b"beta").unwrap();
        assert!(b > a);
        assert_eq!(&store.load(a).unwrap()[..], b"alpha");
        assert_eq!(&store.load(b).unwrap()[..], b"beta");
        // Reopening continues the sequence instead of overwriting.
        let mut reopened = CheckpointStore::open(&dir, 3).unwrap();
        let c = reopened.save(b"gamma").unwrap();
        assert!(c > b);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ring_prunes_oldest_generations() {
        let dir = scratch("ring");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        for blob in [b"one".as_slice(), b"two", b"three", b"four"] {
            store.save(blob).unwrap();
        }
        let seqs = store.stored_generations().unwrap();
        assert_eq!(seqs, vec![3, 4], "only the newest 2 survive");
        assert!(store.load(1).is_err(), "pruned generation is gone");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected_not_restored() {
        let dir = scratch("corrupt");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        let seq = store.save(b"precious state").unwrap();
        let path = store.generation_path(seq);
        let bytes = fs::read(&path).unwrap();
        let corrupt = tbs_distributed::fault::bit_flip(&bytes, 13 * 8 + 2);
        fs::write(&path, &corrupt).unwrap();
        match store.load(seq) {
            Err(TbsError::Checkpoint(_)) => {}
            other => panic!("corrupt frame must fail typed, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_behind_saves_land_after_flush() {
        let dir = scratch("behind");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        let a = store.save_behind(b"alpha").unwrap();
        let b = store.save_behind(b"beta").unwrap();
        assert!(b > a, "sequence numbers allocate immediately");
        store.flush().unwrap();
        assert_eq!(store.stored_generations().unwrap(), vec![a, b]);
        assert_eq!(&store.load(b).unwrap()[..], b"beta");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_save_after_write_behind_keeps_sequence_order() {
        let dir = scratch("mixed");
        let mut store = CheckpointStore::open(&dir, 8).unwrap();
        let a = store.save_behind(b"queued").unwrap();
        // The synchronous save flushes the queue first, so on return both
        // generations are durable and ordered.
        let b = store.save(b"durable").unwrap();
        assert!(b > a);
        assert_eq!(store.stored_generations().unwrap(), vec![a, b]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_joins_the_writer_making_queued_saves_durable() {
        let dir = scratch("dropjoin");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        let seq = store.save_behind(b"last words").unwrap();
        drop(store);
        let reopened = CheckpointStore::open(&dir, 3).unwrap();
        assert_eq!(&reopened.load(seq).unwrap()[..], b"last words");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_behind_prunes_the_ring_too() {
        let dir = scratch("behindring");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        for blob in [b"one".as_slice(), b"two", b"three", b"four"] {
            store.save_behind(blob).unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.stored_generations().unwrap(), vec![3, 4]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_failures_surface_on_the_next_durability_point() {
        let dir = scratch("behinderr");
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        store.save_behind(b"fine").unwrap();
        store.flush().unwrap();
        // Yank the directory out from under the writer: the queued save
        // fails in the background and the *flush* reports it.
        fs::remove_dir_all(&dir).unwrap();
        store.save_behind(b"doomed").unwrap();
        match store.flush() {
            Err(TbsError::CheckpointIo { .. }) => {}
            other => panic!("background failure must surface typed, got {other:?}"),
        }
        // The error is cleared once reported; the store stays usable.
        store.flush().unwrap();
    }

    #[test]
    fn zero_capacity_ring_is_rejected() {
        assert!(matches!(
            CheckpointStore::open(scratch("zero"), 0),
            Err(TbsError::InvalidCheckpointPolicy { .. })
        ));
    }
}
