//! Snapshot persistence round-trips and corruption handling for the serve
//! layer. Snapshots are the checkpoints a durable service writes into its
//! WAL directory: `checkpoint → recover → checkpoint` must be
//! **byte-identical**, a service recovered or loaded from a checkpoint must
//! behave exactly like the original under further writes, and every
//! flavour of damaged file — truncation at any offset, a bit flip at any
//! offset, a wrong magic/version — must come back as a typed
//! [`ServeError`], never a panic and never a silently-wrong index.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sablock::core::lsh::salsh::SaLshBlockerBuilder;
use sablock::core::semantic::semhash::SemhashFamily;
use sablock::prelude::*;
use sablock::serve::wal::snapshot_path;
use sablock::serve::{persist, FsyncPolicy, RecoveryReport, WalOptions};

fn lsh_builder() -> SaLshBlockerBuilder {
    SaLshBlocker::builder().attributes(["title", "authors"]).qgram(3).rows_per_band(2).bands(8).seed(0xB10C)
}

fn salsh_builder() -> SaLshBlockerBuilder {
    let tree = bibliographic_taxonomy();
    let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
    let family = SemhashFamily::from_all_leaves(&tree).unwrap();
    lsh_builder().semantic(
        SemanticConfig::new(tree, zeta)
            .with_w(2)
            .with_mode(SemanticMode::Or)
            .with_seed(11)
            .with_pinned_family(family),
    )
}

fn schema() -> Arc<Schema> {
    Schema::shared(["title", "authors"]).unwrap()
}

/// A WAL directory under the temp dir, removed with everything in it on
/// drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sablock-serve-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_durable(builder: SaLshBlockerBuilder, dir: &Path) -> (CandidateService, RecoveryReport) {
    let options = WalOptions { fsync: FsyncPolicy::Never, ..WalOptions::default() };
    CandidateService::open_durable(builder.into_incremental().unwrap(), schema(), dir, options).unwrap()
}

/// A durable service with history: three insert batches, two removals, a
/// missing value and a duplicate-ish pair, so its checkpoint carries
/// tombstones, multi-member buckets and `None` attributes.
fn populated_service(builder: SaLshBlockerBuilder, dir: &Path) -> CandidateService {
    let (service, _) = open_durable(builder, dir);
    service
        .insert_rows(vec![
            vec![Some("a theory for record linkage".into()), Some("fellegi".into())],
            vec![Some("a theory of record linkage".into()), Some("sunter".into())],
            vec![None, Some("anonymous".into())],
        ])
        .unwrap();
    service
        .insert_rows(vec![
            vec![Some("semantic aware blocking for entity resolution".into()), Some("wang".into())],
            vec![Some("semantic-aware blocking for entity resolution".into()), None],
        ])
        .unwrap();
    service.remove(RecordId(2)).unwrap();
    service.insert_rows(vec![vec![Some("automatic linkage of vital records".into()), Some("newcombe".into())]]).unwrap();
    service.remove(RecordId(0)).unwrap();
    service
}

/// Checkpoints a durable service opened on `dir`; returns the snapshot's
/// path and bytes.
fn checkpoint(service: &CandidateService, dir: &Path) -> (PathBuf, Vec<u8>) {
    let path = snapshot_path(dir, service.checkpoint().unwrap());
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// Two published states hold the same index and the same stored rows.
fn assert_same_state(context: &str, restored: &EpochState, original: &EpochState) {
    assert_eq!(restored.view().snapshot().blocks(), original.view().snapshot().blocks(), "{context}");
    assert_eq!(restored.view().running_counts(), original.view().running_counts(), "{context}");
    assert_eq!(restored.view().num_records(), original.view().num_records(), "{context}");
    assert_eq!(restored.view().num_live_records(), original.view().num_live_records(), "{context}");
    for index in 0..original.view().num_records() {
        let id = RecordId(u32::try_from(index).unwrap());
        assert_eq!(restored.view().is_live(id), original.view().is_live(id), "{context}: liveness of {index}");
        assert_eq!(
            restored.record(id).map(Record::values),
            original.record(id).map(Record::values),
            "{context}: stored row {index} must round-trip"
        );
    }
}

#[test]
fn checkpoint_recover_checkpoint_is_byte_identical_and_behaviour_preserving() {
    for (tag, builder) in [("lsh", lsh_builder as fn() -> SaLshBlockerBuilder), ("salsh", salsh_builder)] {
        let source = TempDir::new(&format!("{tag}-source"));
        let original = populated_service(builder(), &source.0);
        let (snapshot, first) = checkpoint(&original, &source.0);

        // A directory holding only that checkpoint recovers it, and
        // checkpointing the recovered service rewrites the same bytes.
        let copy = TempDir::new(&format!("{tag}-copy"));
        std::fs::create_dir_all(&copy.0).unwrap();
        std::fs::write(copy.0.join(snapshot.file_name().unwrap()), &first).unwrap();
        let (recovered, report) = open_durable(builder(), &copy.0);
        assert_eq!(report.snapshot_ops, original.current().epoch(), "{tag}: the checkpoint was adopted");
        assert_eq!(report.replayed_records, 0, "{tag}: nothing past the checkpoint to replay");
        let (_, second) = checkpoint(&recovered, &copy.0);
        assert_eq!(first, second, "{tag}: checkpoint → recover → checkpoint must be byte-identical");

        // The same file also loads as an in-memory service.
        let loaded = CandidateService::load(builder().into_incremental().unwrap(), schema(), &snapshot).unwrap();

        // The published state round-tripped wholesale, and the future is
        // identical too: the same writes land the same.
        let before = original.current();
        let next = vec![vec![Some("a theory of record linkage".into()), Some("winkler".into())]];
        let after_original = original.insert_rows(next.clone()).unwrap();
        let (removed_original, tombstoned_original) = original.remove(RecordId(1)).unwrap();
        for (how, restored) in [("recovered", &recovered), ("loaded", &loaded)] {
            let context = format!("{tag}, {how}");
            assert_same_state(&context, &restored.current(), &before);
            let after_restored = restored.insert_rows(next.clone()).unwrap();
            assert_same_state(&context, &after_restored, &after_original);
            let (removed_restored, tombstoned_restored) = restored.remove(RecordId(1)).unwrap();
            assert_eq!(tombstoned_restored, tombstoned_original, "{context}");
            assert_same_state(&context, &removed_restored, &removed_original);
        }
    }
}

#[test]
fn corrupted_snapshots_fail_typed_and_never_panic() {
    let dir = TempDir::new("corrupt");
    let service = populated_service(lsh_builder(), &dir.0);
    let (_, good) = checkpoint(&service, &dir.0);
    let file = dir.0.join("damaged.snap");
    let fresh = || lsh_builder().into_incremental().unwrap();

    // Sanity: the untouched bytes parse.
    persist::from_bytes(&good).unwrap();

    // Truncation at every prefix length: typed error, no panic. (The whole
    // file is a few KiB, so exhaustive truncation is affordable.)
    for cut in 0..good.len() {
        let error = persist::from_bytes(&good[..cut])
            .err()
            .unwrap_or_else(|| panic!("truncation to {cut} bytes must not parse"));
        matches_corruption(&error, cut);
    }

    // A single flipped bit anywhere: the checksum (or an earlier magic
    // check) catches it.
    for offset in (0..good.len()).step_by(7) {
        let mut bytes = good.clone();
        bytes[offset] ^= 0x10;
        let error = persist::from_bytes(&bytes)
            .err()
            .unwrap_or_else(|| panic!("bit flip at {offset} must not parse"));
        matches_corruption(&error, offset);
    }

    // A wrong version with a *recomputed valid checksum* is still rejected,
    // and with the dedicated variant rather than a checksum complaint.
    let mut future = good.clone();
    future[8..12].copy_from_slice(&2u32.to_le_bytes());
    let body_end = future.len() - 8;
    let checksum = persist::fnv1a64(&future[..body_end]);
    future[body_end..].copy_from_slice(&checksum.to_le_bytes());
    assert!(
        matches!(persist::from_bytes(&future), Err(ServeError::UnsupportedVersion { found: 2, .. })),
        "a future format version must be rejected as unsupported"
    );

    // Loading through the service surfaces the same typed errors.
    std::fs::write(&file, &good[..good.len() / 2]).unwrap();
    assert!(CandidateService::load(fresh(), schema(), &file).is_err());
    let missing = dir.0.join("never-written.snap");
    assert!(matches!(CandidateService::load(fresh(), schema(), &missing), Err(ServeError::Io(_))));

    // Config/schema mismatches are their own variants: same bytes, wrong
    // head or wrong schema.
    std::fs::write(&file, &good).unwrap();
    let other_head = SaLshBlocker::builder()
        .attributes(["title"])
        .qgram(2)
        .rows_per_band(2)
        .bands(12)
        .seed(1)
        .into_incremental()
        .unwrap();
    assert!(matches!(
        CandidateService::load(other_head, schema(), &file),
        Err(ServeError::ConfigMismatch { .. })
    ));
    let other_schema = Schema::shared(["title", "authors", "venue"]).unwrap();
    assert!(matches!(
        CandidateService::load(fresh(), other_schema, &file),
        Err(ServeError::SchemaMismatch { .. })
    ));
}

/// Every corruption must map to one of the typed decode errors — which one
/// depends on where the damage landed, but it must never be a mismatch
/// variant that would misdirect the operator, and never a panic.
fn matches_corruption(error: &ServeError, offset: usize) {
    assert!(
        matches!(
            error,
            ServeError::BadMagic
                | ServeError::ChecksumMismatch { .. }
                | ServeError::UnsupportedVersion { .. }
                | ServeError::Corrupt { .. }
        ),
        "offset {offset}: unexpected error flavour: {error}"
    );
}
