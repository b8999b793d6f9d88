//! Versioned, checksummed binary snapshots of a service's index state.
//!
//! # File format (version 1)
//!
//! All integers little-endian. The file is:
//!
//! ```text
//! magic      8 bytes   b"SABLKSNP"
//! version    u32       1
//! name       string    index configuration fingerprint (IncrementalBlocker::name)
//! schema     u32 count, then that many strings (attribute names)
//! body       see below
//! checksum   u64       FNV-1a 64 over every preceding byte of the file
//! ```
//!
//! where `string` is a `u32` byte length followed by that many UTF-8 bytes,
//! and the body is:
//!
//! ```text
//! records    u32                     ingested id space (next record id)
//! removed    ⌈records/8⌉ bytes       tombstone bitset, LSB-first
//! entities   u32 count, u32 each     entity annotations (dense prefix)
//! running    u64 pairs, u64 tps      running |Γ| / |Γ_tp|
//! batches    u64                     batches ingested
//! compactions u64                    bucket compactions performed
//! threshold  u64                     compaction threshold (f64 bits)
//! bands      u32 count, per band:
//!   buckets  u32 count, per bucket (ascending key order):
//!     key    u64 textual, u64 semantic sub-key
//!     dead   u32
//!     members u32 count, u32 each    record ids, ascending
//! rows       per record (records of them), per schema attribute:
//!   present  u8 (0 | 1); if 1: string value
//! ```
//!
//! Decoding is fully defensive: every length is bounds-checked against the
//! bytes actually remaining before any allocation, strings are UTF-8
//! validated, and the trailing checksum is verified *before* the body is
//! parsed — truncations and bit flips surface as
//! [`ServeError::ChecksumMismatch`], structural nonsense as
//! [`ServeError::Corrupt`], never as a panic. Semantic validation (member
//! ordering, tombstone accounting) happens later, in
//! [`IncrementalSaLshBlocker::restore`](sablock_core::incremental::IncrementalSaLshBlocker::restore).

use std::path::Path;

use sablock_core::incremental::{BucketDump, IndexDump, RunningCounts};
use sablock_datasets::{RecordId, Schema};

use crate::error::{Result, ServeError};
use crate::store::RecordStore;

/// The 8-byte magic every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"SABLKSNP";

/// The snapshot format version this build reads and writes.
pub const VERSION: u32 = 1;

/// A decoded snapshot file: configuration fingerprint, schema attribute
/// names, the index state dump, and the raw record rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFile {
    /// The fingerprint of the index configuration that wrote the snapshot.
    pub name: String,
    /// The schema attribute names of the stored records.
    pub attributes: Vec<String>,
    /// The index runtime state.
    pub dump: IndexDump,
    /// The stored records' values, dense by record id.
    pub rows: Vec<Vec<Option<String>>>,
}

/// FNV-1a 64 over a byte slice — dependency-free corruption detection (not
/// cryptographic; a snapshot is trusted-origin, checksummed against rot).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub(crate) fn push_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn push_len(out: &mut Vec<u8>, len: usize) -> Result<()> {
    let len = u32::try_from(len)
        .map_err(|_| ServeError::Protocol(format!("length {len} exceeds the u32 snapshot format limit")))?;
    push_u32(out, len);
    Ok(())
}

pub(crate) fn push_string(out: &mut Vec<u8>, text: &str) -> Result<()> {
    push_len(out, text.len())?;
    out.extend_from_slice(text.as_bytes());
    Ok(())
}

/// Encodes a snapshot to bytes (see the module docs for the layout).
pub(crate) fn to_bytes(name: &str, schema: &Schema, dump: &IndexDump, store: &RecordStore) -> Result<Vec<u8>> {
    let records = dump.removed.len();
    if store.len() != records {
        return Err(ServeError::Protocol(format!(
            "record log holds {} records but the index covers {records} — refusing to write a torn snapshot",
            store.len()
        )));
    }
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, VERSION);
    push_string(&mut out, name)?;
    push_len(&mut out, schema.names().len())?;
    for attribute in schema.names() {
        push_string(&mut out, attribute)?;
    }

    push_len(&mut out, records)?;
    for flags in dump.removed.chunks(8) {
        let byte = flags
            .iter()
            .enumerate()
            .fold(0u8, |acc, (bit, &removed)| if removed { acc | (1 << bit) } else { acc });
        out.push(byte);
    }
    push_len(&mut out, dump.entity_of.len())?;
    for entity in &dump.entity_of {
        push_u32(&mut out, entity.0);
    }
    push_u64(&mut out, dump.running.pairs);
    push_u64(&mut out, dump.running.true_positives);
    push_u64(&mut out, dump.batches_ingested);
    push_u64(&mut out, dump.compactions);
    push_u64(&mut out, dump.compaction_threshold.to_bits());
    push_len(&mut out, dump.bands.len())?;
    for band in &dump.bands {
        push_len(&mut out, band.len())?;
        for bucket in band {
            push_u64(&mut out, bucket.key.0);
            push_u64(&mut out, bucket.key.1);
            push_u32(&mut out, bucket.dead);
            push_len(&mut out, bucket.members.len())?;
            for member in &bucket.members {
                push_u32(&mut out, member.0);
            }
        }
    }
    for record in store.iter() {
        for value in record.values() {
            match value {
                Some(text) => {
                    out.push(1);
                    push_string(&mut out, text)?;
                }
                None => out.push(0),
            }
        }
    }

    let checksum = fnv1a64(&out);
    push_u64(&mut out, checksum);
    Ok(out)
}

/// A bounds-checked cursor over snapshot bytes. Every read either returns
/// data that is really there or a typed [`ServeError::Corrupt`]. Shared with
/// the WAL module (`wal.rs`), whose record payloads reuse this format's
/// primitives.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `bytes` starting at offset 0.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub(crate) fn corrupt(&self, reason: impl Into<String>) -> ServeError {
        ServeError::Corrupt { offset: self.pos, reason: reason.into() }
    }

    pub(crate) fn take(&mut self, count: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(count)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| self.corrupt(format!("{count} bytes claimed but the file ends")))?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.corrupt(format!("{count} bytes claimed but the file ends")))?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        let bytes = self.take(1)?;
        bytes.first().copied().ok_or_else(|| self.corrupt("1 byte claimed but the file ends"))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let bytes = self.take(4)?;
        let raw: [u8; 4] =
            bytes.try_into().map_err(|_| self.corrupt("4 bytes claimed but the file ends"))?;
        Ok(u32::from_le_bytes(raw))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let bytes = self.take(8)?;
        let raw: [u8; 8] =
            bytes.try_into().map_err(|_| self.corrupt("8 bytes claimed but the file ends"))?;
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads a `u32` count and sanity-checks it against the bytes remaining
    /// (each counted item occupies at least `floor` bytes), so a corrupted
    /// count cannot drive a pathological allocation.
    pub(crate) fn count(&mut self, floor: usize) -> Result<usize> {
        let claimed = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if claimed.checked_mul(floor.max(1)).map_or(true, |need| need > remaining) {
            return Err(self.corrupt(format!("count {claimed} cannot fit in the {remaining} bytes left")));
        }
        Ok(claimed)
    }

    pub(crate) fn string(&mut self) -> Result<String> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decodes snapshot bytes (see the module docs for the check order: magic,
/// checksum, version, then structure).
pub fn from_bytes(bytes: &[u8]) -> Result<SnapshotFile> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(ServeError::BadMagic);
    }
    // Verify the trailing checksum before believing any length field: a
    // truncated or bit-flipped file fails here with the honest error.
    let body_end = bytes.len().checked_sub(8).filter(|&end| end >= MAGIC.len() + 4).ok_or(
        ServeError::Corrupt { offset: bytes.len(), reason: "file too short to carry a checksum".into() },
    )?;
    let mut stored = [0u8; 8];
    stored.copy_from_slice(&bytes[body_end..]);
    let expected = u64::from_le_bytes(stored);
    let found = fnv1a64(&bytes[..body_end]);
    if expected != found {
        return Err(ServeError::ChecksumMismatch { expected, found });
    }

    let mut reader = Reader::new(&bytes[..body_end]);
    reader.take(MAGIC.len())?;
    let version = reader.u32()?;
    if version != VERSION {
        return Err(ServeError::UnsupportedVersion { found: version, supported: VERSION });
    }
    let name = reader.string()?;
    let num_attributes = reader.count(4)?;
    let mut attributes = Vec::with_capacity(num_attributes);
    for _ in 0..num_attributes {
        attributes.push(reader.string()?);
    }

    let records = reader.count(0)?;
    let bitset = reader.take(records.div_ceil(8))?;
    let mut removed = Vec::with_capacity(records);
    for index in 0..records {
        removed.push(bitset[index / 8] & (1 << (index % 8)) != 0);
    }
    let num_entities = reader.count(4)?;
    let mut entity_of = Vec::with_capacity(num_entities);
    for _ in 0..num_entities {
        entity_of.push(sablock_datasets::EntityId(reader.u32()?));
    }
    let running = RunningCounts { pairs: reader.u64()?, true_positives: reader.u64()? };
    let batches_ingested = reader.u64()?;
    let compactions = reader.u64()?;
    let compaction_threshold = f64::from_bits(reader.u64()?);
    let num_bands = reader.count(4)?;
    let mut bands = Vec::with_capacity(num_bands);
    for _ in 0..num_bands {
        let num_buckets = reader.count(24)?;
        let mut buckets = Vec::with_capacity(num_buckets);
        for _ in 0..num_buckets {
            let key = (reader.u64()?, reader.u64()?);
            let dead = reader.u32()?;
            let num_members = reader.count(4)?;
            let mut members = Vec::with_capacity(num_members);
            for _ in 0..num_members {
                members.push(RecordId(reader.u32()?));
            }
            buckets.push(BucketDump { key, members, dead });
        }
        bands.push(buckets);
    }
    let mut rows = Vec::with_capacity(records);
    for _ in 0..records {
        let mut values = Vec::with_capacity(attributes.len());
        for _ in 0..attributes.len() {
            values.push(match reader.u8()? {
                0 => None,
                1 => Some(reader.string()?),
                other => return Err(reader.corrupt(format!("value presence flag must be 0 or 1, got {other}"))),
            });
        }
        rows.push(values);
    }
    if !reader.done() {
        return Err(reader.corrupt("trailing bytes after the snapshot body"));
    }

    let dump = IndexDump {
        bands,
        removed,
        entity_of,
        running,
        batches_ingested,
        compactions,
        compaction_threshold,
    };
    Ok(SnapshotFile { name, attributes, dump, rows })
}

/// Encodes and writes a snapshot file *atomically*: the bytes go to a
/// sibling `.tmp` file which is fsynced and then renamed over the target, so
/// a crash mid-write can leave a stale snapshot or a stray temp file but
/// never a torn one under the target name. The containing directory is
/// fsynced best-effort to persist the rename itself.
pub(crate) fn save_to_path(path: &Path, name: &str, schema: &Schema, dump: &IndexDump, store: &RecordStore) -> Result<()> {
    let bytes = to_bytes(name, schema, dump, store)?;
    write_atomically(path, &bytes)
}

/// The temp-write/fsync/rename discipline behind [`save_to_path`], shared
/// with the WAL module's checkpoint snapshots.
pub(crate) fn write_atomically(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.to_path_buf();
    let file_name = tmp
        .file_name()
        .map(|name| name.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_string());
    tmp.set_file_name(format!("{file_name}.tmp"));
    {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Best-effort fsync of the directory containing `path`, persisting renames
/// and creations. Failures are ignored: not every filesystem supports
/// opening directories, and the rename itself already succeeded.
pub(crate) fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        if let Ok(handle) = std::fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
}

/// Reads and decodes a snapshot file.
pub(crate) fn read_from_path(path: &Path) -> Result<SnapshotFile> {
    let bytes = std::fs::read(path)?;
    from_bytes(&bytes)
}
