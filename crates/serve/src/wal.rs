//! Write-ahead durability for the candidate service.
//!
//! A WAL directory makes the service's epoch sequence crash-safe: every
//! write batch is appended to a checksummed log *before* it is applied, and
//! recovery replays `snapshot + WAL suffix` to exactly the last batch whose
//! record survived on disk intact. The epoch contract extends across
//! restarts — after recovery, the published epoch equals the recovered
//! op-prefix length, the same `epoch ≡ applied-op-prefix` invariant the
//! in-memory service pins.
//!
//! # Directory layout
//!
//! ```text
//! wal-dir/
//!   snap-0000000000000000.snap   checkpoint snapshot covering 0 batches
//!   snap-0000000000000012.snap   checkpoint snapshot covering 12 batches
//!   wal-0000000000000012.log     segment whose first record is seq 12
//!   wal-0000000000000040.log     the active segment (first record seq 40)
//! ```
//!
//! Snapshots are ordinary [`persist`] files (same magic, version, and
//! checksum discipline), named by the number of batches they cover and
//! written atomically (temp + fsync + rename). Segments hold consecutive
//! batch records; a checkpoint rotates to a fresh segment and prunes
//! everything the new snapshot supersedes.
//!
//! # Segment format (version 1)
//!
//! All integers little-endian. A segment is a 28-byte header followed by
//! zero or more records:
//!
//! ```text
//! header:
//!   magic     8 bytes   b"SABLKWAL"
//!   version   u32       1
//!   base      u64       sequence number of the segment's first record
//!   checksum  u64       FNV-1a 64 over the preceding 20 bytes
//! record:
//!   seq       u64       global 0-based batch index (contiguous within a segment)
//!   len       u32       payload length in bytes
//!   payload   len bytes  the batch's ops (persist-format primitives)
//!   checksum  u64       FNV-1a 64 over seq ‖ len ‖ payload (all little-endian)
//! ```
//!
//! The payload is `u32` op count, then per op a `u8` tag: `0` = insert
//! (`u32` record count, then per record `u32` id, `u32` value count, and per
//! value a `u8` presence flag optionally followed by a string), `1` = remove
//! (`u32` id). Strings are `u32`-length-prefixed UTF-8, exactly as in the
//! snapshot format.
//!
//! # Recovery semantics
//!
//! [`recover`] adopts the newest parsable snapshot (corrupt ones are
//! counted and skipped, never trusted), then scans segments forward from
//! the last one starting at or before the snapshot's coverage. Records are
//! believed only while every check holds: header intact, sequence numbers
//! contiguous, length within bounds, checksum matching. The first failed
//! check is treated as the crash point — the tail from there on is
//! discarded (its byte count is reported) unless another segment begins at
//! exactly the expected sequence, which happens when an *earlier* recovery
//! already sealed this tear and rotated; then the scan continues there.
//! A segment beginning *beyond* the expected sequence is a gap — ops exist
//! past a hole — and surfaces as the typed [`ServeError::Recovery`], never
//! a silent skip. Recovery itself never panics on torn, truncated, or
//! bit-flipped files; the exhaustive kill-at-every-byte differential in
//! `tests/service_recovery.rs` drives this for every prefix of a real log.
//!
//! [`persist`]: crate::persist

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::{Result, ServeError};
use crate::fault::FailpointPlan;
use crate::persist::{self, fnv1a64, SnapshotFile};

/// The 8-byte magic every WAL segment starts with.
pub const MAGIC: [u8; 8] = *b"SABLKWAL";

/// The segment format version this build reads and writes.
pub const VERSION: u32 = 1;

/// Segment header length in bytes: magic, version, base, header checksum.
const HEADER_BYTES: usize = 8 + 4 + 8 + 8;

/// Hard cap on a single record payload — a corrupted length field can never
/// drive a larger allocation.
pub const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// One durable write op — an insert batch or a removal — with record ids
/// made explicit so replay re-creates exactly the ids the writer assigned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoggedOp {
    /// Ingest these rows under these (dense) record ids.
    Insert(Vec<(u32, Vec<Option<String>>)>),
    /// Tombstone one record id.
    Remove(u32),
}

/// When the WAL calls `fsync` on its active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every append — strongest durability, one fsync per batch.
    Always,
    /// After every `n` appends (clamped to at least 1). A crash can lose up
    /// to the last `n - 1` *acknowledged* batches, never more.
    EveryN(u64),
    /// Never — durability is left to the OS page cache (tests, bulk loads).
    Never,
}

/// Configuration for a [`Wal`] — fsync cadence, rotation threshold, and the
/// fault-injection plan (armed only in tests).
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// When to fsync the active segment.
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes. Records are never split: a segment always ends on a record
    /// boundary, so this is a soft threshold.
    pub segment_bytes: u64,
    /// Deterministic fault injection for the write path.
    pub failpoints: FailpointPlan,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self { fsync: FsyncPolicy::Always, segment_bytes: 8 * 1024 * 1024, failpoints: FailpointPlan::none() }
    }
}

/// An open write-ahead log: the active segment plus the counters that name
/// the next record and segment. Owned by the service's writer half; all
/// methods take `&mut self`.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    file: File,
    segment_base: u64,
    segment_len: u64,
    next_seq: u64,
    /// Lifetime bytes written across all segments — the failpoint clock.
    written_total: u64,
    fsyncs: u64,
    appends_since_sync: u64,
}

/// What [`recover`] found: the adopted snapshot (if any), the surviving
/// records past it, the re-opened log ready for appends, and the report.
#[derive(Debug)]
pub struct Recovered {
    /// The newest parsable checkpoint snapshot, if one existed.
    pub snapshot: Option<SnapshotFile>,
    /// The batches each surviving record carries, ascending and contiguous
    /// from the snapshot's coverage.
    pub records: Vec<(u64, Vec<LoggedOp>)>,
    /// The log, re-opened on a fresh segment at the recovered sequence.
    pub wal: Wal,
    /// What recovery saw and discarded.
    pub report: RecoveryReport,
}

/// Statistics from one recovery pass — surfaced to operators so silent
/// discards do not look like clean starts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Batches covered by the adopted snapshot (0 when none was adopted).
    pub snapshot_ops: u64,
    /// Snapshot files that failed to parse and were skipped.
    pub skipped_snapshots: u64,
    /// Surviving WAL records replayed past the snapshot.
    pub replayed_records: u64,
    /// Bytes of torn/corrupt tail discarded at the crash point.
    pub discarded_bytes: u64,
    /// The recovered sequence — the service's epoch after replay.
    pub recovered_seq: u64,
    /// Replayed batches the index rejected mid-batch (their applied prefix
    /// still counts, as it did live in the older builds that logged such
    /// batches; this build refuses a write before logging it). Filled in by
    /// the service layer, not by [`recover`] itself.
    pub replay_rejected_batches: u64,
}

fn segment_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("wal-{base:016}.log"))
}

/// The checkpoint snapshot path covering `ops` batches, inside `dir`.
pub fn snapshot_path(dir: &Path, ops: u64) -> PathBuf {
    dir.join(format!("snap-{ops:016}.snap"))
}

/// Parses `wal-{base:016}.log` / `snap-{ops:016}.snap` names; anything else
/// (temp files, strays) is ignored by the directory scan.
fn parse_name(name: &str) -> Option<(FileKind, u64)> {
    let (kind, rest) = if let Some(rest) = name.strip_prefix("wal-") {
        (FileKind::Segment, rest.strip_suffix(".log")?)
    } else if let Some(rest) = name.strip_prefix("snap-") {
        (FileKind::Snapshot, rest.strip_suffix(".snap")?)
    } else {
        return None;
    };
    if rest.len() != 16 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse::<u64>().ok().map(|number| (kind, number))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    Segment,
    Snapshot,
}

fn encode_header(base: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES);
    out.extend_from_slice(&MAGIC);
    persist::push_u32(&mut out, VERSION);
    persist::push_u64(&mut out, base);
    let checksum = fnv1a64(&out);
    persist::push_u64(&mut out, checksum);
    out
}

/// Encodes one batch's ops as a record payload (module docs for the layout).
pub(crate) fn encode_ops(ops: &[LoggedOp]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    persist::push_len(&mut out, ops.len())?;
    for op in ops {
        match op {
            LoggedOp::Insert(rows) => {
                out.push(0);
                persist::push_len(&mut out, rows.len())?;
                for (id, values) in rows {
                    persist::push_u32(&mut out, *id);
                    persist::push_len(&mut out, values.len())?;
                    for value in values {
                        match value {
                            Some(text) => {
                                out.push(1);
                                persist::push_string(&mut out, text)?;
                            }
                            None => out.push(0),
                        }
                    }
                }
            }
            LoggedOp::Remove(id) => {
                out.push(1);
                persist::push_u32(&mut out, *id);
            }
        }
    }
    Ok(out)
}

/// Decodes a record payload back into its ops. The payload checksum has
/// already been verified; structural failures here still surface as typed
/// corruption, never a panic.
pub(crate) fn decode_ops(payload: &[u8]) -> Result<Vec<LoggedOp>> {
    let mut reader = persist::Reader::new(payload);
    let count = reader.count(1)?;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        match reader.u8()? {
            0 => {
                let rows = reader.count(9)?;
                let mut records = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let id = reader.u32()?;
                    let num_values = reader.count(1)?;
                    let mut values = Vec::with_capacity(num_values);
                    for _ in 0..num_values {
                        values.push(match reader.u8()? {
                            0 => None,
                            1 => Some(reader.string()?),
                            other => {
                                return Err(reader
                                    .corrupt(format!("value presence flag must be 0 or 1, got {other}")))
                            }
                        });
                    }
                    records.push((id, values));
                }
                ops.push(LoggedOp::Insert(records));
            }
            1 => ops.push(LoggedOp::Remove(reader.u32()?)),
            other => return Err(reader.corrupt(format!("op tag must be 0 or 1, got {other}"))),
        }
    }
    if !reader.done() {
        return Err(reader.corrupt("trailing bytes after the record's ops"));
    }
    Ok(ops)
}

fn encode_record(seq: u64, payload: &[u8]) -> Result<Vec<u8>> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_RECORD_BYTES)
        .ok_or_else(|| {
            ServeError::Protocol(format!(
                "WAL record payload of {} bytes exceeds the {MAX_RECORD_BYTES}-byte record limit",
                payload.len()
            ))
        })?;
    let mut out = Vec::with_capacity(8 + 4 + payload.len() + 8);
    persist::push_u64(&mut out, seq);
    persist::push_u32(&mut out, len);
    out.extend_from_slice(payload);
    let checksum = fnv1a64(&out);
    persist::push_u64(&mut out, checksum);
    Ok(out)
}

impl Wal {
    /// Creates a fresh log in `dir` (created if missing) starting at
    /// sequence 0. Fails if a segment for sequence 0 already exists — use
    /// [`recover`] to adopt existing state.
    pub fn create(dir: &Path, options: WalOptions) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = segment_path(dir, 0);
        if path.exists() {
            return Err(ServeError::Recovery(format!(
                "WAL directory {} already holds segments; open it with recovery instead of create",
                dir.display()
            )));
        }
        Self::open_segment(dir.to_path_buf(), options, 0, 0, 0, 0)
    }

    /// Opens a brand-new active segment at `base` (truncating any stray file
    /// of the same name — recovery only lands here when that file
    /// contributed nothing) and writes its header.
    fn open_segment(
        dir: PathBuf,
        options: WalOptions,
        base: u64,
        written_total: u64,
        fsyncs: u64,
        appends_since_sync: u64,
    ) -> Result<Self> {
        // sablock-lint: allow(durable-rename): the active segment is append-only and lives at its final name by design; recovery discards a torn tail instead of trusting a rename barrier
        let file = File::create(segment_path(&dir, base))?;
        persist::sync_parent_dir(&segment_path(&dir, base));
        let mut wal = Self {
            dir,
            options,
            file,
            segment_base: base,
            segment_len: 0,
            next_seq: base,
            written_total,
            fsyncs,
            appends_since_sync,
        };
        let header = encode_header(base);
        wal.write_bytes(&header)?;
        Ok(wal)
    }

    /// Appends one batch as a record, rotating to a fresh segment first if
    /// the active one is over the size threshold. Returns the sequence
    /// number the batch was logged under. With [`FsyncPolicy::Always`], the
    /// record is on disk when this returns `Ok`.
    ///
    /// On error the segment may hold a torn record; the caller must treat
    /// the log as unusable (poison its writer) and go through [`recover`].
    pub fn append(&mut self, ops: &[LoggedOp]) -> Result<u64> {
        let payload = encode_ops(ops)?;
        let record = encode_record(self.next_seq, &payload)?;
        // sablock-lint: allow(lossy-id-cast): byte lengths, not record ids — usize → u64 widens losslessly
        if self.segment_len > HEADER_BYTES as u64
            // sablock-lint: allow(lossy-id-cast): byte length of an encoded record, usize → u64 widens losslessly
            && self.segment_len.saturating_add(record.len() as u64) > self.options.segment_bytes
        {
            self.rotate(self.next_seq)?;
        }
        self.write_bytes(&record)?;
        self.appends_since_sync += 1;
        self.maybe_fsync()?;
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Closes the active segment and opens a fresh one whose base is `seq`.
    fn rotate(&mut self, seq: u64) -> Result<()> {
        self.fsync()?;
        let replacement = Self::open_segment(
            self.dir.clone(),
            self.options.clone(),
            seq,
            self.written_total,
            self.fsyncs,
            self.appends_since_sync,
        )?;
        *self = replacement;
        self.next_seq = seq;
        Ok(())
    }

    /// Writes a buffer to the active segment through the failpoint plan:
    /// the allowed prefix really reaches the file before the injected error
    /// is returned, so tests observe honest torn tails.
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        let allowed = self.options.failpoints.allowed_write(self.written_total, bytes.len());
        // sablock-lint: allow(panic-reachability): FailpointPlan::allowed_write returns at most bytes.len(), so the slice is always in bounds
        self.file.write_all(&bytes[..allowed])?;
        self.written_total += allowed as u64;
        self.segment_len += allowed as u64;
        if allowed < bytes.len() {
            return Err(ServeError::Io(std::io::Error::other(format!(
                "injected write failure at WAL byte {}",
                self.written_total
            ))));
        }
        Ok(())
    }

    fn maybe_fsync(&mut self) -> Result<()> {
        let due = match self.options.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if due {
            self.fsync()?;
        }
        Ok(())
    }

    fn fsync(&mut self) -> Result<()> {
        if self.appends_since_sync == 0 {
            return Ok(());
        }
        if !self.options.failpoints.allows_fsync(self.fsyncs) {
            return Err(ServeError::Io(std::io::Error::other(format!(
                "injected fsync failure (fsync #{})",
                self.fsyncs
            ))));
        }
        self.file.sync_all()?;
        self.fsyncs += 1;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Checkpoint bookkeeping: after the caller has atomically written the
    /// snapshot covering `seq` batches ([`snapshot_path`]), this rotates to
    /// a fresh segment based at `seq` and prunes every segment and snapshot
    /// the new snapshot supersedes. `seq` must equal [`Wal::next_seq`] — a
    /// checkpoint is an epoch boundary.
    pub fn checkpoint_rotate(&mut self, seq: u64) -> Result<()> {
        if seq != self.next_seq {
            return Err(ServeError::Protocol(format!(
                "checkpoint at sequence {seq} but the log is at {} — checkpoints must sit on the current epoch",
                self.next_seq
            )));
        }
        self.rotate(seq)?;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = match parse_name(name) {
                Some((FileKind::Segment, base)) => base < seq,
                Some((FileKind::Snapshot, ops)) => ops < seq,
                None => false,
            };
            if stale {
                // Best-effort: a surviving stale file costs disk, not
                // correctness — recovery adopts the newest snapshot anyway.
                let _ = std::fs::remove_file(entry.path());
            }
        }
        persist::sync_parent_dir(&segment_path(&self.dir, seq));
        Ok(())
    }

    /// The sequence number the next appended batch will be logged under.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The active segment's base sequence and current byte length — the
    /// `wal <base>:<bytes>` pair `STATS` reports.
    pub fn position(&self) -> (u64, u64) {
        (self.segment_base, self.segment_len)
    }

    /// The log's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// One parsed segment scan: surviving records, where the scan stopped, and
/// why.
struct SegmentScan {
    records: Vec<(u64, Vec<LoggedOp>)>,
    /// The sequence the next record was expected to carry.
    expected_seq: u64,
    /// Bytes from the failure point to the end of the file (0 on a clean
    /// end).
    torn_bytes: u64,
    /// Whether the segment ended cleanly on a record boundary.
    clean: bool,
}

/// Scans one segment's bytes: header first, then records while every check
/// holds (module docs). `min_seq` drops records the snapshot already covers
/// without re-decoding their payloads.
fn scan_segment(bytes: &[u8], expected_base: u64, min_seq: u64) -> Result<SegmentScan> {
    let failed = |pos: usize, expected_seq: u64, records: Vec<(u64, Vec<LoggedOp>)>| SegmentScan {
        records,
        expected_seq,
        // sablock-lint: allow(lossy-id-cast): a byte count, not a record id — usize → u64 widens losslessly
        torn_bytes: (bytes.len() - pos) as u64,
        clean: false,
    };
    // Header checks: a bad header means nothing in the file is believable.
    if bytes.len() < HEADER_BYTES
        || bytes[..8] != MAGIC
        || u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) != VERSION
    {
        return Ok(failed(0, expected_base, Vec::new()));
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[12..20]);
    let base = u64::from_le_bytes(raw);
    raw.copy_from_slice(&bytes[20..28]);
    let stored = u64::from_le_bytes(raw);
    if fnv1a64(&bytes[..20]) != stored || base != expected_base {
        return Ok(failed(0, expected_base, Vec::new()));
    }

    let mut records = Vec::new();
    let mut expected_seq = base;
    let mut pos = HEADER_BYTES;
    while pos < bytes.len() {
        let start = pos;
        if bytes.len() - pos < 12 {
            return Ok(failed(start, expected_seq, records));
        }
        raw.copy_from_slice(&bytes[pos..pos + 8]);
        let seq = u64::from_le_bytes(raw);
        let len = u32::from_le_bytes([bytes[pos + 8], bytes[pos + 9], bytes[pos + 10], bytes[pos + 11]]);
        pos += 12;
        if seq != expected_seq || len > MAX_RECORD_BYTES || bytes.len() - pos < len as usize + 8 {
            return Ok(failed(start, expected_seq, records));
        }
        let payload = &bytes[pos..pos + len as usize];
        pos += len as usize;
        raw.copy_from_slice(&bytes[pos..pos + 8]);
        let stored = u64::from_le_bytes(raw);
        pos += 8;
        if fnv1a64(&bytes[start..start + 12 + len as usize]) != stored {
            return Ok(failed(start, expected_seq, records));
        }
        if seq >= min_seq {
            // The checksum held, so a decode failure is not a torn tail —
            // but recovery still treats it as the crash point rather than
            // guessing at the writer's intent.
            match decode_ops(payload) {
                Ok(ops) => records.push((seq, ops)),
                Err(_) => return Ok(failed(start, expected_seq, records)),
            }
        }
        expected_seq += 1;
    }
    Ok(SegmentScan { records, expected_seq, torn_bytes: 0, clean: true })
}

/// Recovers a WAL directory (module docs for the full semantics): adopt the
/// newest parsable snapshot, replay the surviving contiguous record suffix,
/// discard the torn tail, and re-open the log on a fresh segment at the
/// recovered sequence. Creates the directory (empty log) if it is missing.
pub fn recover(dir: &Path, options: WalOptions) -> Result<Recovered> {
    std::fs::create_dir_all(dir)?;
    let mut segments: Vec<u64> = Vec::new();
    let mut snapshots: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        match parse_name(name) {
            Some((FileKind::Segment, base)) => segments.push(base),
            Some((FileKind::Snapshot, ops)) => snapshots.push(ops),
            None => {}
        }
    }
    segments.sort_unstable();
    snapshots.sort_unstable();

    let mut report = RecoveryReport::default();
    let mut snapshot: Option<SnapshotFile> = None;
    for &ops in snapshots.iter().rev() {
        match persist::read_from_path(&snapshot_path(dir, ops)) {
            Ok(parsed) => {
                snapshot = Some(parsed);
                report.snapshot_ops = ops;
                break;
            }
            Err(_) => report.skipped_snapshots += 1,
        }
    }
    let base_ops = report.snapshot_ops;

    // The scan starts at the last segment whose base is ≤ the snapshot's
    // coverage; earlier segments are fully superseded.
    let start = segments.iter().rposition(|&base| base <= base_ops);
    if start.is_none() {
        if let Some(&first) = segments.first() {
            return Err(ServeError::Recovery(format!(
                "no segment covers batch {base_ops} (the adopted snapshot's edge) but segment \
                 wal-{first:016}.log holds later batches — the log has a hole"
            )));
        }
    }

    let mut records: Vec<(u64, Vec<LoggedOp>)> = Vec::new();
    let mut recovered_seq = base_ops;
    if let Some(start) = start {
        let mut index = start;
        loop {
            let base = segments[index];
            let bytes = std::fs::read(segment_path(dir, base))?;
            let scan = scan_segment(&bytes, base, base_ops)?;
            records.extend(scan.records);
            recovered_seq = scan.expected_seq.max(base_ops);
            if scan.clean {
                // Clean end: the next segment must continue exactly here.
                match segments.get(index + 1) {
                    Some(&next) if next == scan.expected_seq => index += 1,
                    Some(&next) => {
                        return Err(ServeError::Recovery(format!(
                            "segment wal-{base:016}.log ends at batch {} but the next segment starts at \
                             {next} — the log has a hole",
                            scan.expected_seq
                        )));
                    }
                    None => break,
                }
            } else {
                // A tear. If a later segment begins exactly at the expected
                // sequence, an earlier recovery already sealed this tear and
                // rotated past it — continue there. Otherwise this is the
                // crash point: discard the tail and stop.
                match segments[index + 1..].iter().position(|&next| next == scan.expected_seq) {
                    Some(offset) => index += 1 + offset,
                    None => {
                        report.discarded_bytes += scan.torn_bytes;
                        break;
                    }
                }
            }
        }
    }

    // sablock-lint: allow(lossy-id-cast): a replay tally, not a record id — usize → u64 widens losslessly
    report.replayed_records = records.len() as u64;
    report.recovered_seq = recovered_seq;
    let wal = Wal::open_segment(dir.to_path_buf(), options, recovered_seq, 0, 0, 0)?;
    Ok(Recovered { snapshot, records, wal, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sablock-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_ops(tag: u32) -> Vec<LoggedOp> {
        vec![
            LoggedOp::Insert(vec![
                (tag * 2, vec![Some(format!("record {tag}")), None]),
                (tag * 2 + 1, vec![None, Some("x".into())]),
            ]),
            LoggedOp::Remove(tag),
        ]
    }

    #[test]
    fn ops_round_trip_through_the_payload_format() {
        let ops = sample_ops(3);
        let payload = encode_ops(&ops).unwrap();
        assert_eq!(decode_ops(&payload).unwrap(), ops);
        let empty = encode_ops(&[]).unwrap();
        assert_eq!(decode_ops(&empty).unwrap(), Vec::<LoggedOp>::new());
        // Structural garbage decodes to a typed error, never a panic.
        assert!(decode_ops(&[9, 9, 9]).is_err());
        let mut bad_tag = encode_ops(&[LoggedOp::Remove(1)]).unwrap();
        bad_tag[4] = 7;
        assert!(decode_ops(&bad_tag).is_err());
    }

    #[test]
    fn append_then_recover_replays_every_record() {
        let dir = temp_dir("round-trip");
        let mut wal = Wal::create(&dir, WalOptions::default()).unwrap();
        for tag in 0..5u32 {
            assert_eq!(wal.append(&sample_ops(tag)).unwrap(), u64::from(tag));
        }
        assert_eq!(wal.next_seq(), 5);
        drop(wal);

        let recovered = recover(&dir, WalOptions::default()).unwrap();
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.report.recovered_seq, 5);
        assert_eq!(recovered.report.replayed_records, 5);
        assert_eq!(recovered.report.discarded_bytes, 0);
        assert_eq!(recovered.records.len(), 5);
        for (tag, (seq, ops)) in recovered.records.iter().enumerate() {
            assert_eq!(*seq, tag as u64);
            assert_eq!(*ops, sample_ops(tag as u32));
        }
        // The re-opened log continues the sequence.
        let mut wal = recovered.wal;
        assert_eq!(wal.append(&sample_ops(9)).unwrap(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tails_are_discarded_at_every_truncation_point() {
        let dir = temp_dir("torn");
        let mut wal = Wal::create(&dir, WalOptions::default()).unwrap();
        for tag in 0..3u32 {
            wal.append(&sample_ops(tag)).unwrap();
        }
        drop(wal);
        let path = segment_path(&dir, 0);
        let full = std::fs::read(&path).unwrap();

        for keep in 0..full.len() {
            std::fs::write(&path, &full[..keep]).unwrap();
            let recovered = recover(&dir, WalOptions::default()).unwrap();
            // Every record either survives whole or is discarded whole.
            assert!(recovered.report.recovered_seq <= 3);
            assert_eq!(recovered.records.len() as u64, recovered.report.recovered_seq);
            for (tag, (seq, ops)) in recovered.records.iter().enumerate() {
                assert_eq!(*seq, tag as u64);
                assert_eq!(*ops, sample_ops(tag as u32));
            }
            // Recovery rotated to a fresh segment; remove it so the next
            // truncation sees only the original.
            let fresh = segment_path(&dir, recovered.report.recovered_seq);
            if fresh != path {
                std::fs::remove_file(fresh).unwrap();
            }
        }
        // The full file recovers everything.
        std::fs::write(&path, &full).unwrap();
        let recovered = recover(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.report.recovered_seq, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_never_leak_corrupt_records() {
        let dir = temp_dir("flip");
        let mut wal = Wal::create(&dir, WalOptions::default()).unwrap();
        for tag in 0..2u32 {
            wal.append(&sample_ops(tag)).unwrap();
        }
        drop(wal);
        let path = segment_path(&dir, 0);
        let full = std::fs::read(&path).unwrap();

        for position in 0..full.len() {
            let mut flipped = full.clone();
            flipped[position] ^= 0x40;
            std::fs::write(&path, &flipped).unwrap();
            let recovered = recover(&dir, WalOptions::default()).unwrap();
            // Whatever survives must be a verbatim prefix of what was logged.
            for (tag, (seq, ops)) in recovered.records.iter().enumerate() {
                assert_eq!(*seq, tag as u64);
                assert_eq!(*ops, sample_ops(tag as u32), "corrupt record leaked at flip {position}");
            }
            let fresh = segment_path(&dir, recovered.report.recovered_seq);
            if fresh != path {
                std::fs::remove_file(fresh).unwrap();
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_on_record_boundaries() {
        let dir = temp_dir("rotate");
        let options = WalOptions { segment_bytes: 64, ..WalOptions::default() };
        let mut wal = Wal::create(&dir, options.clone()).unwrap();
        for tag in 0..6u32 {
            wal.append(&sample_ops(tag)).unwrap();
        }
        drop(wal);
        let segments: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|entry| parse_name(entry.unwrap().file_name().to_str().unwrap()))
            .filter(|(kind, _)| *kind == FileKind::Segment)
            .collect();
        assert!(segments.len() > 1, "a 64-byte threshold must force rotation");

        let recovered = recover(&dir, options).unwrap();
        assert_eq!(recovered.report.recovered_seq, 6);
        assert_eq!(recovered.records.len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_failures_leave_recoverable_prefixes() {
        let dir = temp_dir("failpoint");
        // First pass, unfaulted, to learn the full byte extent.
        let mut wal = Wal::create(&dir, WalOptions::default()).unwrap();
        for tag in 0..3u32 {
            wal.append(&sample_ops(tag)).unwrap();
        }
        let (_, extent) = wal.position();
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();

        for kill in 0..extent {
            let options = WalOptions { failpoints: FailpointPlan::kill_at_byte(kill), ..WalOptions::default() };
            let mut wal = match Wal::create(&dir, options) {
                Ok(wal) => wal,
                Err(_) => {
                    // The header write itself was killed; recovery of the
                    // (possibly headerless) directory must still work.
                    let recovered = recover(&dir, WalOptions::default()).unwrap();
                    assert_eq!(recovered.report.recovered_seq, 0);
                    std::fs::remove_dir_all(&dir).unwrap();
                    continue;
                }
            };
            let mut acked = 0u64;
            for tag in 0..3u32 {
                match wal.append(&sample_ops(tag)) {
                    Ok(_) => acked += 1,
                    Err(_) => break,
                }
            }
            drop(wal);
            let recovered = recover(&dir, WalOptions::default()).unwrap();
            let seq = recovered.report.recovered_seq;
            assert!(seq >= acked, "kill at byte {kill}: acked {acked} batches but recovered only {seq}");
            for (tag, (got, ops)) in recovered.records.iter().enumerate() {
                assert_eq!(*got, tag as u64);
                assert_eq!(*ops, sample_ops(tag as u32));
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn checkpoints_prune_superseded_files_and_gaps_are_typed_errors() {
        let dir = temp_dir("checkpoint");
        let mut wal = Wal::create(&dir, WalOptions::default()).unwrap();
        for tag in 0..4u32 {
            wal.append(&sample_ops(tag)).unwrap();
        }
        // A checkpoint off the current epoch is refused.
        assert!(wal.checkpoint_rotate(2).is_err());
        // Pretend a snapshot covering 4 batches was written, then rotate.
        std::fs::write(snapshot_path(&dir, 4), b"placeholder").unwrap();
        wal.checkpoint_rotate(4).unwrap();
        wal.append(&sample_ops(9)).unwrap();
        drop(wal);
        assert!(!segment_path(&dir, 0).exists(), "the superseded segment was pruned");
        assert!(segment_path(&dir, 4).exists());

        // The placeholder snapshot is unparsable → skipped, but then batch
        // 0..4 only exist as a hole in the log: a typed gap error.
        let error = recover(&dir, WalOptions::default()).unwrap_err();
        assert!(matches!(error, ServeError::Recovery(_)), "{error}");

        // With a parsable state the pruned prefix is fine: simulate by
        // removing the bogus snapshot and re-basing expectations — recovery
        // from an explicit later snapshot is exercised end-to-end in
        // tests/service_recovery.rs with real snapshots.
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_a_dirty_directory_and_fsync_failpoints_fire() {
        let dir = temp_dir("dirty");
        let options =
            WalOptions { fsync: FsyncPolicy::Always, failpoints: FailpointPlan::fail_fsyncs_from(0), ..WalOptions::default() };
        let mut wal = Wal::create(&dir, options).unwrap();
        assert!(wal.append(&sample_ops(0)).is_err(), "the first fsync is injected to fail");
        drop(wal);
        assert!(Wal::create(&dir, WalOptions::default()).is_err(), "segments already exist");
        // EveryN batches fsyncs: 3 appends under EveryN(2) → 1 fsync.
        std::fs::remove_dir_all(&dir).unwrap();
        let mut wal = Wal::create(&dir, WalOptions { fsync: FsyncPolicy::EveryN(2), ..WalOptions::default() })
            .unwrap();
        for tag in 0..3u32 {
            wal.append(&sample_ops(tag)).unwrap();
        }
        assert_eq!(wal.fsyncs, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
