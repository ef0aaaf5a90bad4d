//! Versioned binary checkpoint codec — the shared durable-state substrate.
//!
//! §5.1 of the paper: "Both D-T-TBS and D-R-TBS periodically checkpoint
//! the sample as well as other system state variables to ensure fault
//! tolerance." This module is the single home of that byte format, used by
//! every core sampler's `save_state`/`load_state` pair, by the sharded
//! parallel engine in `tbs-distributed`, and by the public
//! `temporal_sampling::api::Sampler::snapshot`/`restore` entry points. A
//! checkpoint is a self-contained blob: configuration, scalar weights,
//! RNG positions, and full reservoir contents — restoring yields a sampler
//! that continues the stream **bit-identically** to an uninterrupted run.
//!
//! Format: little-endian, length-prefixed, versioned (`MAGIC`, `VERSION`
//! leading). No external serialization framework — item payloads go
//! through the [`Wire`] trait, the same encoding the simulated key-value
//! store in `tbs-distributed` charges its network cost model for.
//!
//! The codec lives here (not in `tbs-distributed`) so the core samplers
//! can serialize themselves without the core crate depending on the
//! distributed substrate.

use bytes::{Buf, BufMut, Bytes};

/// Magic tag identifying a TBS checkpoint blob.
pub const MAGIC: u32 = 0x5442_5343; // "TBSC"
/// Current checkpoint format version. Version history:
///
/// * 1 — PR 4: initial shared codec.
/// * 2 — PR 5: sharded-engine payloads carry the batches-ingested
///   staleness stamp (`EngineCheckpoint::batches`) between the rotation
///   counter and the driver RNG state. v1 blobs are rejected with
///   [`CheckpointError::UnsupportedVersion`] rather than misparsed.
/// * 3 — PR 7: the sharded-engine payload's single remainder-rotation
///   counter (`u64`) is replaced by the balanced splitter's K per-shard
///   deviation scalars (`f64` each, shard-id order), and shard samplers
///   carry the adaptive `⌈n/K⌉+1` capacity. v2 blobs are rejected with
///   [`CheckpointError::UnsupportedVersion`] rather than misparsed.
/// * 4 — PR 10: R-TBS payloads carry the batch-granular downsampling
///   state (defer threshold θ, accumulated lazy scale `P`, deferred
///   arrival segments) after the latent sample, so a snapshot taken
///   mid-deferral restores bit-identically without forcing a
///   materialization; the sharded-engine payload leads with the
///   shard-group ledger (logical cell count `G ≤ K`). v3 blobs are
///   rejected with [`CheckpointError::UnsupportedVersion`] rather than
///   misparsed.
/// * 5 — batch-granular downsampling and shard groups are gone,
///   so R-TBS payloads end after the latent sample again and the
///   sharded-engine payload no longer leads with a group ledger (every
///   shard owns one reservoir). v4 blobs are rejected with
///   [`CheckpointError::UnsupportedVersion`] rather than misparsed.
/// * 6 — jump-ahead ingest is gone, so T-TBS payloads end after the
///   sample items: the 9-byte acceptance cursor (primed flag plus
///   pending skip) is dropped. v5 blobs are rejected with
///   [`CheckpointError::UnsupportedVersion`] rather than misparsed.
pub const VERSION: u32 = 6;

/// Errors raised when decoding a checkpoint blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with the checkpoint magic.
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The blob ended before all declared fields were read.
    Truncated,
    /// A field held an invalid value (tag or enum out of range).
    Corrupt(&'static str),
    /// A CRC-framed blob ([`frame`]) failed its integrity check: the
    /// payload was bit-flipped, overwritten, or torn mid-write.
    CrcMismatch {
        /// CRC32 recorded in the frame header.
        expected: u32,
        /// CRC32 of the payload as read back.
        actual: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a TBS checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint field: {what}"),
            CheckpointError::CrcMismatch { expected, actual } => write!(
                f,
                "checkpoint CRC mismatch: frame says {expected:#010x}, payload hashes to {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A value that can be encoded to / decoded from bytes.
///
/// Implemented for the item types the experiments stream; user item types
/// implement it to become checkpointable (and shippable across the
/// simulated network in `tbs-distributed`, whose cost model charges for
/// the encoded size).
///
/// The contract:
///
/// * [`Wire::encode_into`] appends exactly the item's bytes to `out` —
///   no length prefix, and nothing before or after. The checkpoint
///   [`Writer`] calls it straight into its own buffer and frames the
///   item itself, so encoding an item allocates nothing.
/// * [`Wire::try_decode`] must accept exactly what `encode_into` wrote
///   and return the same value. The [`Reader`] hands it a slice borrowed
///   from the blob, so decoding allocates only what the item owns.
/// * The provided [`Wire::encode`] allocates a fresh buffer per call; it
///   is for callers that need an owned copy of one item, never for the
///   checkpoint or wire codec.
pub trait Wire: Clone {
    /// Append the item's bytes (no length prefix) to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Decode from a byte buffer; `None` on a malformed payload (e.g.
    /// too short). Must round-trip [`Wire::encode_into`]. This is the
    /// method the checkpoint reader calls, so untrusted blobs fail
    /// cleanly.
    fn try_decode(data: &[u8]) -> Option<Self>;
    /// Encode into a fresh, owned byte buffer (allocates).
    fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        Bytes::from(out)
    }
    /// Decode from a byte buffer the caller knows is well-formed.
    ///
    /// # Panics
    ///
    /// Panics on a malformed payload; use [`Wire::try_decode`] for
    /// untrusted input.
    fn decode(data: &[u8]) -> Self {
        Self::try_decode(data).expect("malformed wire payload")
    }
    /// Payload size on the wire.
    fn wire_size(&self) -> usize {
        self.encode().len()
    }
}

impl Wire for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u64_le(*self);
    }
    fn try_decode(data: &[u8]) -> Option<Self> {
        Some(u64::from_le_bytes(data.get(..8)?.try_into().ok()?))
    }
    fn wire_size(&self) -> usize {
        8
    }
}

impl Wire for (u32, u32) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u32_le(self.0);
        out.put_u32_le(self.1);
    }
    fn try_decode(data: &[u8]) -> Option<Self> {
        Some((
            u32::from_le_bytes(data.get(..4)?.try_into().ok()?),
            u32::from_le_bytes(data.get(4..8)?.try_into().ok()?),
        ))
    }
    fn wire_size(&self) -> usize {
        8
    }
}

impl Wire for [f64; 2] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_f64_le(self[0]);
        out.put_f64_le(self[1]);
    }
    fn try_decode(data: &[u8]) -> Option<Self> {
        Some([
            f64::from_le_bytes(data.get(..8)?.try_into().ok()?),
            f64::from_le_bytes(data.get(8..16)?.try_into().ok()?),
        ])
    }
    fn wire_size(&self) -> usize {
        16
    }
}

/// Little-endian writer over a growable buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start a checkpoint blob with magic + version.
    pub fn new() -> Self {
        let mut w = Writer {
            buf: Vec::with_capacity(1024),
        };
        w.put_u32(MAGIC);
        w.put_u32(VERSION);
        w
    }

    /// Append a u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Append a u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Append an f64.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.put_slice(b);
    }

    /// Append a 256-bit RNG state.
    pub fn put_rng_state(&mut self, s: [u64; 4]) {
        for word in s {
            self.put_u64(word);
        }
    }

    /// Append one [`Wire`]-encoded item (length-prefixed), encoded in
    /// place: a `u32` placeholder, the item's bytes, then the real length
    /// patched into the placeholder.
    pub fn put_item<T: Wire>(&mut self, item: &T) {
        let at = self.buf.len();
        self.put_u32(0);
        item.encode_into(&mut self.buf);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Append a length-prefixed sequence of [`Wire`]-encoded items.
    pub fn put_items<'a, T: Wire + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.put_u32(items.len() as u32);
        for item in items {
            self.put_item(item);
        }
    }

    /// Finish and return the blob.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Little-endian reader with truncation checks.
#[derive(Debug)]
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    /// Open a blob, validating magic and version.
    pub fn new(blob: Bytes) -> Result<Self, CheckpointError> {
        let mut r = Reader { buf: blob };
        if r.get_u32()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        Ok(r)
    }

    fn need(&self, n: usize) -> Result<(), CheckpointError> {
        if self.buf.remaining() < n {
            Err(CheckpointError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Read a u32.
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Read a u64.
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Read an f64.
    pub fn get_f64(&mut self) -> Result<f64, CheckpointError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Bytes, CheckpointError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        Ok(self.buf.copy_to_bytes(len))
    }

    /// Read a 256-bit RNG state.
    pub fn get_rng_state(&mut self) -> Result<[u64; 4], CheckpointError> {
        Ok([
            self.get_u64()?,
            self.get_u64()?,
            self.get_u64()?,
            self.get_u64()?,
        ])
    }

    /// Read one [`Wire`]-encoded item (length-prefixed), decoded from a
    /// slice borrowed from the blob; a payload the item type cannot
    /// decode is [`CheckpointError::Corrupt`].
    pub fn get_item<T: Wire>(&mut self) -> Result<T, CheckpointError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let item = T::try_decode(&self.buf.chunk()[..len]);
        self.buf.advance(len);
        item.ok_or(CheckpointError::Corrupt("item payload"))
    }

    /// Read a length-prefixed sequence of [`Wire`]-encoded items.
    pub fn get_items<T: Wire>(&mut self) -> Result<Vec<T>, CheckpointError> {
        let count = self.get_u32()? as usize;
        // Each item costs ≥ 4 bytes of length prefix; a corrupt count must
        // fail cleanly instead of attempting a huge allocation.
        self.check_count(count, 4)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.get_item()?);
        }
        Ok(out)
    }

    /// Whether every byte of the blob has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.buf.remaining() == 0
    }

    /// Bytes left to read. `load_state` implementations use this to bound
    /// count-driven allocations *before* calling `Vec::with_capacity` —
    /// a corrupt count larger than the remaining bytes could possibly
    /// encode must fail as [`CheckpointError::Truncated`], not abort the
    /// process on a huge allocation.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Guard for count-driven allocations: error out unless the blob has
    /// at least `count * min_bytes_each` bytes left.
    pub fn check_count(&self, count: usize, min_bytes_each: usize) -> Result<(), CheckpointError> {
        if count.saturating_mul(min_bytes_each) > self.buf.remaining() {
            Err(CheckpointError::Truncated)
        } else {
            Ok(())
        }
    }
}

/// Magic tag identifying a CRC frame around a checkpoint blob ("TBSF").
pub const FRAME_MAGIC: u32 = 0x5442_5346;

/// CRC32 lookup table (IEEE 802.3 reflected polynomial 0xEDB88320),
/// computed at compile time so the framing layer needs no dependencies
/// and no runtime init.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `data` — the integrity check used by [`frame`].
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Wrap a checkpoint blob in a CRC frame for durable storage:
/// `[FRAME_MAGIC][payload len][crc32(payload)][payload]`, all u32s
/// little-endian. [`unframe`] rejects truncation (torn write) and any
/// bit flip inside the header or payload, so a durability layer can fall
/// back to an older generation instead of restoring garbage.
pub fn frame(blob: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + blob.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(blob).to_le_bytes());
    out.extend_from_slice(blob);
    out
}

/// Validate and strip a [`frame`], returning the inner checkpoint blob.
pub fn unframe(framed: &[u8]) -> Result<Bytes, CheckpointError> {
    let word = |at: usize| -> Result<u32, CheckpointError> {
        let raw: [u8; 4] = framed
            .get(at..at + 4)
            .and_then(|s| s.try_into().ok())
            .ok_or(CheckpointError::Truncated)?;
        Ok(u32::from_le_bytes(raw))
    };
    if word(0)? != FRAME_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let len = word(4)? as usize;
    let expected = word(8)?;
    let payload = framed.get(12..12 + len).ok_or(CheckpointError::Truncated)?;
    if framed.len() != 12 + len {
        // Trailing garbage means the file is not the frame we wrote.
        return Err(CheckpointError::Corrupt("frame length"));
    }
    let actual = crc32(payload);
    if actual != expected {
        return Err(CheckpointError::CrcMismatch { expected, actual });
    }
    Ok(Bytes::copy_from_slice(payload))
}

/// Validate an f64 read back from a blob: finite and non-negative (all
/// persisted weights/widths satisfy this; anything else is corruption).
pub fn check_non_negative(v: f64, what: &'static str) -> Result<f64, CheckpointError> {
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(CheckpointError::Corrupt(what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn roundtrip_scalars_and_bytes() {
        let mut w = Writer::new();
        w.put_u32(7);
        w.put_u64(u64::MAX);
        w.put_f64(3.25);
        w.put_u8(1);
        w.put_bytes(b"hello");
        w.put_rng_state([1, 2, 3, 4]);
        let blob = w.finish();

        let mut r = Reader::new(blob).unwrap();
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), 3.25);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(&r.get_bytes().unwrap()[..], b"hello");
        assert_eq!(r.get_rng_state().unwrap(), [1, 2, 3, 4]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn roundtrip_items() {
        let mut w = Writer::new();
        let items: Vec<u64> = vec![1, u64::MAX, 42];
        w.put_items(items.iter());
        let mut r = Reader::new(w.finish()).unwrap();
        assert_eq!(r.get_items::<u64>().unwrap(), items);
    }

    /// A test-local item type with a variable-length encoding: a `u16`
    /// tag, then the body bytes.
    #[derive(Debug, Clone, PartialEq)]
    struct Word {
        tag: u16,
        body: Vec<u8>,
    }

    impl Wire for Word {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.put_slice(&self.tag.to_le_bytes());
            out.put_slice(&self.body);
        }
        fn try_decode(data: &[u8]) -> Option<Self> {
            Some(Word {
                tag: u16::from_le_bytes(data.get(..2)?.try_into().ok()?),
                body: data[2..].to_vec(),
            })
        }
    }

    /// The blob `Writer::new` + `put_items` must produce, assembled by
    /// hand: magic, version 6, a `u32` count, then each item's `u32`
    /// length and its bytes.
    fn hand_built(items: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&0x5442_5343u32.to_le_bytes());
        out.extend_from_slice(&6u32.to_le_bytes());
        out.extend_from_slice(&(items.len() as u32).to_le_bytes());
        for item in items {
            out.extend_from_slice(&(item.len() as u32).to_le_bytes());
            out.extend_from_slice(item);
        }
        out
    }

    fn items_blob<T: Wire>(items: &[T]) -> Bytes {
        let mut w = Writer::new();
        w.put_items(items.iter());
        w.finish()
    }

    #[test]
    fn item_bytes_are_pinned() {
        let le = |fields: &[&[u8]]| fields.concat();

        let u64s = [0u64, 0x0102_0304_0506_0708, u64::MAX];
        let expect: Vec<Vec<u8>> = u64s.iter().map(|v| v.to_le_bytes().to_vec()).collect();
        assert_eq!(&items_blob(&u64s)[..], &hand_built(&expect)[..]);

        let pairs = [(1u32, 2u32), (0xDEAD_BEEF, 0)];
        let expect: Vec<Vec<u8>> = pairs
            .iter()
            .map(|(a, b)| le(&[&a.to_le_bytes(), &b.to_le_bytes()]))
            .collect();
        assert_eq!(&items_blob(&pairs)[..], &hand_built(&expect)[..]);

        let points = [[1.5f64, -2.25], [0.0, f64::MAX], [-0.0, 1e-300]];
        let expect: Vec<Vec<u8>> = points
            .iter()
            .map(|[x, y]| le(&[&x.to_le_bytes(), &y.to_le_bytes()]))
            .collect();
        assert_eq!(&items_blob(&points)[..], &hand_built(&expect)[..]);

        let words = [
            Word {
                tag: 0xBEEF,
                body: b"abc".to_vec(),
            },
            Word {
                tag: 1,
                body: Vec::new(),
            },
            Word {
                tag: 7,
                body: (0..200u8).collect(),
            },
        ];
        let expect: Vec<Vec<u8>> = words
            .iter()
            .map(|w| le(&[&w.tag.to_le_bytes(), &w.body]))
            .collect();
        let blob = items_blob(&words);
        assert_eq!(&blob[..], &hand_built(&expect)[..]);
        let mut r = Reader::new(blob).unwrap();
        assert_eq!(r.get_items::<Word>().unwrap(), words);
        assert!(r.is_exhausted());

        // A lone `put_item` is the same length-prefixed record, no count.
        let mut w = Writer::new();
        w.put_item(&[3.0f64, 4.0]);
        let record = le(&[
            &16u32.to_le_bytes(),
            &3.0f64.to_le_bytes(),
            &4.0f64.to_le_bytes(),
        ]);
        assert_eq!(&w.finish()[8..], &record[..]);
    }

    /// Header, then `len` as an item length prefix, then `payload`.
    fn item_record(len: u32, payload: &[u8]) -> Bytes {
        let mut w = Writer::new();
        w.put_u32(len);
        for &b in payload {
            w.put_u8(b);
        }
        w.finish()
    }

    #[test]
    fn item_length_past_the_end_is_truncated() {
        let mut r = Reader::new(item_record(17, &[0; 16])).unwrap();
        assert_eq!(
            r.get_item::<[f64; 2]>().unwrap_err(),
            CheckpointError::Truncated
        );
        let mut r = Reader::new(item_record(u32::MAX, &[0; 16])).unwrap();
        assert_eq!(r.get_item::<u64>().unwrap_err(), CheckpointError::Truncated);
    }

    #[test]
    fn short_item_payload_is_corrupt() {
        let mut r = Reader::new(item_record(15, &[0; 15])).unwrap();
        assert_eq!(
            r.get_item::<[f64; 2]>().unwrap_err(),
            CheckpointError::Corrupt("item payload")
        );
    }

    #[test]
    fn long_item_payload_decodes_its_prefix_and_consumes_all() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&1.5f64.to_le_bytes());
        payload.extend_from_slice(&(-2.0f64).to_le_bytes());
        payload.extend_from_slice(&[9, 9, 9, 9]);
        payload.extend_from_slice(&0xABCD_u32.to_le_bytes());
        let mut r = Reader::new(item_record(20, &payload)).unwrap();
        assert_eq!(r.get_item::<[f64; 2]>().unwrap(), [1.5, -2.0]);
        assert_eq!(r.get_u32().unwrap(), 0xABCD);
        assert!(r.is_exhausted());
    }

    #[test]
    fn rejects_bad_magic() {
        let blob = Bytes::from_static(&[0u8; 16]);
        assert_eq!(Reader::new(blob).unwrap_err(), CheckpointError::BadMagic);
    }

    #[test]
    fn rejects_future_version() {
        let mut w = BytesMut::new();
        w.put_u32_le(MAGIC);
        w.put_u32_le(99);
        assert_eq!(
            Reader::new(w.freeze()).unwrap_err(),
            CheckpointError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn detects_truncation() {
        let mut w = Writer::new();
        w.put_u64(5);
        let blob = w.finish();
        let truncated = blob.slice(0..blob.len() - 2);
        let mut r = Reader::new(truncated).unwrap();
        assert_eq!(r.get_u64().unwrap_err(), CheckpointError::Truncated);
    }

    #[test]
    fn oversized_item_count_fails_cleanly() {
        // A corrupt count must not trigger a huge Vec::with_capacity.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let mut r = Reader::new(w.finish()).unwrap();
        assert_eq!(
            r.get_items::<u64>().unwrap_err(),
            CheckpointError::Truncated
        );
    }

    #[test]
    fn error_messages_render() {
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::Corrupt("store tag")
            .to_string()
            .contains("store tag"));
    }

    #[test]
    fn wire_u64_roundtrip() {
        for v in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(u64::decode(&v.encode()), v);
            assert_eq!(v.wire_size(), 8);
        }
    }

    #[test]
    fn wire_pair_roundtrip() {
        let v = (7u32, 99u32);
        assert_eq!(<(u32, u32)>::decode(&v.encode()), v);
        assert_eq!(v.wire_size(), 8);
    }

    #[test]
    fn wire_f64_pair_roundtrip() {
        let v = [1.5f64, -2.25];
        assert_eq!(<[f64; 2]>::decode(&v.encode()), v);
        assert_eq!(v.wire_size(), 16);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrips() {
        let blob = b"some checkpoint payload".to_vec();
        let framed = frame(&blob);
        assert_eq!(&unframe(&framed).unwrap()[..], &blob[..]);
    }

    #[test]
    fn frame_rejects_bit_flips_everywhere() {
        let blob: Vec<u8> = (0..64u8).collect();
        let framed = frame(&blob);
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut evil = framed.clone();
                evil[byte] ^= 1 << bit;
                assert!(
                    unframe(&evil).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn frame_rejects_truncation_at_every_length() {
        let blob: Vec<u8> = (0..32u8).collect();
        let framed = frame(&blob);
        for keep in 0..framed.len() {
            assert!(
                unframe(&framed[..keep]).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }

    #[test]
    fn frame_rejects_trailing_garbage() {
        let mut framed = frame(b"payload");
        framed.push(0);
        assert_eq!(
            unframe(&framed).unwrap_err(),
            CheckpointError::Corrupt("frame length")
        );
    }

    #[test]
    fn check_non_negative_guards() {
        assert!(check_non_negative(0.0, "w").is_ok());
        assert!(check_non_negative(5.5, "w").is_ok());
        assert!(check_non_negative(-1.0, "w").is_err());
        assert!(check_non_negative(f64::NAN, "w").is_err());
        assert!(check_non_negative(f64::INFINITY, "w").is_err());
    }
}
