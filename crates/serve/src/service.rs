//! The candidate-lookup service: single batched writer, lock-free readers.
//!
//! [`CandidateService`] wraps one [`IncrementalSaLshBlocker`] behind an
//! epoch/snapshot publication scheme:
//!
//! * **Readers** grab the current [`EpochState`] — one `Arc` clone under a
//!   briefly held read lock — and then query it with no locks at all. An
//!   epoch is immutable forever: its [`IndexView`] shares the index's
//!   bucket sub-maps by `Arc` and its [`RecordStore`] shares the record
//!   chunks, so holding an old epoch costs memory, never correctness.
//! * **The writer** serialises all mutations through one internal lock,
//!   validates each write ([`CandidateService::insert_rows`],
//!   [`CandidateService::remove`]), logs it (durable services), applies it
//!   to its private copy-on-write head (the next epoch in the making), and
//!   **atomically publishes** the new epoch by swapping the `Arc`. A write
//!   the index would refuse is refused first: it is neither logged nor
//!   published, so epoch *e* is the state after the first *e* accepted
//!   writes. A reader observes either the state before a write or after it
//!   — never a half-applied one (the concurrency differential test
//!   recounts every published epoch offline to pin this down).
//!
//! Query results are observationally equivalent to one-shot blocking: for a
//! published epoch, [`EpochState::query`] returns exactly the candidate set
//! a from-scratch [`SaLshBlocker::block`] over `corpus ∪ {probe}` would
//! pair the probe with (see [`IndexView::candidates`]; property-tested in
//! `tests/service_equivalence.rs`). [`EpochState::query_top_k`] ranks that
//! set by shingle-set Jaccard similarity against the stored records —
//! candidates, not a raw bucket dump.
//!
//! [`SaLshBlocker::block`]: sablock_core::prelude::SaLshBlocker

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use sablock_core::incremental::{IncrementalBlocker, IncrementalSaLshBlocker, IndexView, RunningCounts};
use sablock_core::prelude::BlockCollection;
use sablock_core::CoreError;
use sablock_datasets::{DatasetError, Record, RecordId, Schema};
use sablock_textual::JaccardScorer;

use crate::error::{Result, ServeError};
use crate::lockorder;
use crate::metrics::ServiceMetrics;
use crate::persist::{self, SnapshotFile};
use crate::store::RecordStore;
use crate::wal::{self, LoggedOp, RecoveryReport, Wal, WalOptions};

/// One mutation the writer logs and applies: a batch insert (records must
/// continue the dense id space) or a single-record tombstone.
#[derive(Debug, Clone)]
pub(crate) enum WriteOp {
    /// Ingest a batch of new records.
    Insert(Vec<Record>),
    /// Tombstone one record. Removing an already-removed id is a no-op.
    Remove(RecordId),
}

/// Admission limits for one ranked query — how much scoring work the caller
/// is willing to pay before the query degrades to its unranked candidate
/// set. The default budget is unlimited.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryBudget {
    /// Degrade if the probe collides with more than this many candidates —
    /// the scoring pass is O(candidates × windows walked), at most one
    /// candidate's windows each, and this bound caps it before any scoring
    /// happens.
    pub max_candidates: Option<usize>,
    /// Degrade as soon as scoring is still running at this instant. Checked
    /// between scoring chunks, so overrun is bounded by one chunk.
    pub deadline: Option<Instant>,
}

impl QueryBudget {
    /// No limits: the query always ranks.
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// Why a ranked query degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The candidate set exceeded [`QueryBudget::max_candidates`].
    CandidateBudget {
        /// How many candidates the probe collided with.
        candidates: usize,
        /// The configured budget it exceeded.
        budget: usize,
    },
    /// The [`QueryBudget::deadline`] fired mid-scoring.
    Deadline,
}

/// The result of a budgeted ranked query: the full ranking when the budget
/// held, or the cheap unranked candidate set — explicitly flagged, never a
/// silent downgrade — when it did not.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// Scored within budget: candidates ranked best-first, truncated to `k`.
    Ranked(Vec<(RecordId, f64)>),
    /// Over budget: the unranked candidate set (sorted by id), plus why.
    Degraded {
        /// The probe's unranked candidate ids.
        candidates: Vec<RecordId>,
        /// Which budget was exceeded.
        reason: DegradeReason,
    },
}

/// One published, immutable epoch of the service: the index view, the
/// record log, and the epoch counter. Cheap to clone-by-`Arc`; readers
/// query it without any synchronisation.
#[derive(Debug)]
pub struct EpochState {
    epoch: u64,
    view: IndexView,
    store: RecordStore,
}

impl EpochState {
    /// The epoch counter — 0 is the initial (possibly empty) publication,
    /// and every accepted write increments it by exactly one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen index view.
    pub fn view(&self) -> &IndexView {
        &self.view
    }

    /// The candidate partners of a probe record in this epoch — sorted by
    /// id, deduplicated, the probe excluded. Equivalent to the probe's
    /// one-shot partner set (module docs).
    pub fn query(&self, record: &Record) -> Result<Vec<RecordId>> {
        self.view.candidates(record).map_err(ServeError::from)
    }

    /// [`EpochState::query`] ranked by shingle-set Jaccard similarity
    /// against the stored records, best first (ties break on ascending id),
    /// truncated to `k`. Candidates whose record is not in the store — which
    /// cannot happen for epochs this crate publishes — score 0. `k = 0`
    /// returns the empty ranking without scoring anything; `k` beyond the
    /// candidate count returns the full ranked set.
    ///
    /// The top `k` are exact, but a candidate's q-gram windows are walked
    /// only until its Jaccard bound shows that it cannot beat the `k`-th
    /// best so far ([`JaccardScorer`]); nothing is cached per record.
    pub fn query_top_k(&self, record: &Record, k: usize) -> Result<Vec<(RecordId, f64)>> {
        match self.query_top_k_budgeted(record, k, &QueryBudget::unlimited())? {
            QueryOutcome::Ranked(ranked) => Ok(ranked),
            QueryOutcome::Degraded { .. } => Err(ServeError::Protocol(
                "an unlimited query budget cannot degrade".into(),
            )),
        }
    }

    /// [`EpochState::query_top_k`] under an admission [`QueryBudget`]: when
    /// the candidate set is over budget or the deadline fires mid-scoring,
    /// the query returns [`QueryOutcome::Degraded`] with the *unranked*
    /// candidates — the cheap path's exact answer — instead of erroring or
    /// silently truncating.
    pub fn query_top_k_budgeted(&self, record: &Record, k: usize, budget: &QueryBudget) -> Result<QueryOutcome> {
        let candidates = self.view.candidates(record)?;
        if k == 0 {
            return Ok(QueryOutcome::Ranked(Vec::new()));
        }
        if let Some(max) = budget.max_candidates {
            if candidates.len() > max {
                let reason = DegradeReason::CandidateBudget { candidates: candidates.len(), budget: max };
                return Ok(QueryOutcome::Degraded { candidates, reason });
            }
        }
        // One probe table and one text buffer serve every candidate.
        // Candidates arrive in ascending id, so every kept entry wins a tie
        // against the current one, which must score strictly above the k-th
        // best to enter: once its Jaccard bound is at most that score, its
        // walk stops.
        let shingler = self.view.shingler();
        let (mut text, mut hashes) = (String::new(), Vec::new());
        shingler.window_hashes_into(record, &mut text, &mut hashes);
        let mut scorer = JaccardScorer::default();
        scorer.load(&hashes);
        // The kept entries, worst on top. Scores are non-negative, where an
        // `f64`'s bits order like its value; the larger id loses a tie.
        let mut best: BinaryHeap<(Reverse<u64>, RecordId)> = BinaryHeap::with_capacity(k.min(candidates.len()));
        for chunk in candidates.chunks(SCORE_CHUNK) {
            if let Some(deadline) = budget.deadline {
                if Instant::now() >= deadline {
                    return Ok(QueryOutcome::Degraded { candidates, reason: DegradeReason::Deadline });
                }
            }
            for &id in chunk {
                let floor = match best.peek() {
                    Some(&(Reverse(worst), _)) if best.len() == k => f64::from_bits(worst),
                    _ => f64::NEG_INFINITY,
                };
                scorer.start(floor);
                // A candidate missing from the store pushes nothing: it scores 0.
                let walked = self.store.get(id).map_or(true, |candidate| {
                    shingler.walk_windows(candidate, &mut text, |hash, rest| scorer.push(hash, rest))
                });
                let score = scorer.jaccard();
                if walked && score > floor {
                    if best.len() == k {
                        best.pop();
                    }
                    best.push((Reverse(score.to_bits()), id));
                }
            }
        }
        let ranked = best.into_sorted_vec().into_iter().map(|(Reverse(bits), id)| (id, f64::from_bits(bits)));
        Ok(QueryOutcome::Ranked(ranked.collect()))
    }

    /// The stored record with the given id (present for every ingested id,
    /// including tombstoned ones — the log is append-only).
    pub fn record(&self, id: RecordId) -> Option<&Record> {
        self.store.get(id)
    }

    /// The epoch's blocking as a [`BlockCollection`] — byte-identical to
    /// one-shot blocking of the epoch's live records.
    pub fn snapshot(&self) -> BlockCollection {
        self.view.snapshot()
    }

    /// The epoch's running `|Γ|` / `|Γ_tp|` counters.
    pub fn running_counts(&self) -> RunningCounts {
        self.view.running_counts()
    }
}

/// Deadline checks during scoring happen every this many candidates — large
/// enough to amortise the clock read, small enough to bound overrun.
const SCORE_CHUNK: usize = 64;

/// The writer's private side: the mutable head index, the record log, the
/// epoch counter, and (for durable services) the write-ahead log. Guarded
/// by [`CandidateService`]'s writer mutex.
#[derive(Debug)]
struct WriterState {
    head: IncrementalSaLshBlocker,
    store: RecordStore,
    epoch: u64,
    /// `Some` for durable services: every batch is appended here before it
    /// is applied. The epoch always equals the log's next sequence number.
    wal: Option<Wal>,
    /// Set when a durability write failed partway: the on-disk log no
    /// longer provably extends the in-memory state, so further writes are
    /// refused ([`ServeError::WriterPoisoned`]) until re-opened through
    /// recovery. Reads keep serving the last published epoch.
    poisoned: Option<String>,
}

/// Blocking as a service (see the module docs). `Send + Sync`: share it by
/// reference (or `Arc`) between one writer role and any number of readers.
#[derive(Debug)]
pub struct CandidateService {
    schema: Arc<Schema>,
    name: String,
    writer: Mutex<WriterState>,
    published: RwLock<Arc<EpochState>>,
    metrics: ServiceMetrics,
}

impl CandidateService {
    /// Wraps a freshly built (empty) incremental blocker. Epoch 0 — the
    /// empty index — is published immediately, so readers always find a
    /// state. Errors when the blocker has already ingested records (its
    /// corpus would be missing from the record log), and when `schema`
    /// lacks one of the blocker's attributes (every insert would be
    /// refused).
    pub fn new(head: IncrementalSaLshBlocker, schema: Arc<Schema>) -> Result<Self> {
        if head.num_records() != 0 {
            return Err(ServeError::Protocol(format!(
                "CandidateService::new requires an empty index, got one with {} records \
                 (use CandidateService::open_durable to resume persisted state)",
                head.num_records()
            )));
        }
        Self::from_parts(head, schema, RecordStore::new(), 0, None)
    }

    /// Opens a *durable* service on a WAL directory: adopts the newest
    /// parsable checkpoint snapshot, replays the surviving log suffix, and
    /// resumes appending. The caller supplies a freshly built (empty)
    /// blocker of the same configuration, exactly as for
    /// [`CandidateService::load`]. The initial published epoch equals the
    /// recovered batch count, extending the `epoch ≡ accepted-write prefix`
    /// contract across the crash. A schema that lacks one of the blocker's
    /// attributes is refused, after the snapshot's own configuration and
    /// schema checks.
    ///
    /// This build never logs a write the index refuses. Logs written by
    /// older builds may hold such batches: replay keeps a refused batch's
    /// applied prefix, as those builds did live, and counts the batch into
    /// [`RecoveryReport::replay_rejected_batches`], so replay stays
    /// deterministic.
    pub fn open_durable(
        head: IncrementalSaLshBlocker,
        schema: Arc<Schema>,
        dir: &Path,
        options: WalOptions,
    ) -> Result<(Self, RecoveryReport)> {
        if head.num_records() != 0 {
            return Err(ServeError::Protocol(
                "CandidateService::open_durable requires a freshly built, empty index to recover into".into(),
            ));
        }
        let recovered = wal::recover(dir, options)?;
        let mut report = recovered.report;
        let (head, store) = match recovered.snapshot {
            Some(snapshot) => Self::adopt_snapshot(head, &schema, snapshot)?,
            None => (head, RecordStore::new()),
        };
        let mut writer = WriterState {
            head,
            store,
            epoch: report.snapshot_ops,
            wal: Some(recovered.wal),
            poisoned: None,
        };
        for (_, logged) in &recovered.records {
            let mut rejected = false;
            for op in logged {
                let applied = Self::replay_op(&schema, op)
                    // sablock-lint: allow(wal-append-before-apply): recovery replay — these ops are already durable in the log being read
                    .and_then(|op| Self::apply_one(&mut writer, op));
                if applied.is_err() {
                    // The writer that logged this batch dropped this op and
                    // the rest of the batch but still published the prefix;
                    // replay mirrors that exactly.
                    rejected = true;
                    break;
                }
            }
            if rejected {
                report.replay_rejected_batches += 1;
            }
            writer.epoch += 1;
        }
        let service = Self::assemble(writer, schema)?;
        Ok((service, report))
    }

    /// Decodes one logged op back into a live [`WriteOp`], re-creating the
    /// records under their original ids.
    fn replay_op(schema: &Arc<Schema>, op: &LoggedOp) -> Result<WriteOp> {
        match op {
            LoggedOp::Insert(rows) => {
                let records = rows
                    .iter()
                    .map(|(id, values)| Record::new(RecordId(*id), Arc::clone(schema), values.clone()))
                    .collect::<std::result::Result<Vec<Record>, _>>()?;
                Ok(WriteOp::Insert(records))
            }
            LoggedOp::Remove(id) => Ok(WriteOp::Remove(RecordId(*id))),
        }
    }

    /// The serializable mirror of a live op batch — record ids made
    /// explicit so replay reassigns exactly what the writer assigned.
    fn log_ops(ops: &[WriteOp]) -> Vec<LoggedOp> {
        ops.iter()
            .map(|op| match op {
                WriteOp::Insert(records) => LoggedOp::Insert(
                    records.iter().map(|record| (record.id().0, record.values().to_vec())).collect(),
                ),
                WriteOp::Remove(id) => LoggedOp::Remove(id.0),
            })
            .collect()
    }

    /// Validates a snapshot against the supplied head/schema and restores
    /// it (shared between [`CandidateService::load`] and
    /// [`CandidateService::open_durable`]).
    fn adopt_snapshot(
        head: IncrementalSaLshBlocker,
        schema: &Arc<Schema>,
        snapshot: SnapshotFile,
    ) -> Result<(IncrementalSaLshBlocker, RecordStore)> {
        if head.name() != snapshot.name {
            return Err(ServeError::ConfigMismatch { expected: head.name(), found: snapshot.name });
        }
        if schema.names() != snapshot.attributes.as_slice() {
            return Err(ServeError::SchemaMismatch {
                expected: schema.names().to_vec(),
                found: snapshot.attributes,
            });
        }
        let claimed = snapshot.dump.removed.len();
        if snapshot.rows.len() != claimed {
            return Err(ServeError::Corrupt {
                offset: 0,
                reason: format!(
                    "snapshot stores {} records but its index covers {claimed}",
                    snapshot.rows.len()
                ),
            });
        }
        let head = head.restore(snapshot.dump)?;
        let records = snapshot
            .rows
            .into_iter()
            .enumerate()
            .map(|(index, values)| {
                let id = RecordId::try_from_index(index)?;
                Record::new(id, Arc::clone(schema), values)
            })
            .collect::<std::result::Result<Vec<Record>, _>>()?;
        let mut store = RecordStore::new();
        store.append(records)?;
        Ok((head, store))
    }

    /// Assembles a service around an index head and the matching record log
    /// (the log must hold exactly the head's ingested records).
    fn from_parts(
        head: IncrementalSaLshBlocker,
        schema: Arc<Schema>,
        store: RecordStore,
        epoch: u64,
        wal: Option<Wal>,
    ) -> Result<Self> {
        Self::assemble(WriterState { head, store, epoch, wal, poisoned: None }, schema)
    }

    /// Publishes the writer's state as the first epoch. Refuses a schema
    /// that lacks one of the index's blocking attributes: every inserted
    /// record carries the service schema, so the index would refuse every
    /// insert.
    fn assemble(writer: WriterState, schema: Arc<Schema>) -> Result<Self> {
        let view = writer.head.publish_view();
        if let Some(missing) = view.shingler().attributes().iter().find(|name| schema.index_of(name).is_none()) {
            return Err(ServeError::Core(CoreError::Config(format!(
                "attribute '{missing}' selected for blocking does not exist in the service schema"
            ))));
        }
        let name = writer.head.name();
        let initial = Arc::new(EpochState { epoch: writer.epoch, view, store: writer.store.clone() });
        Ok(Self {
            schema,
            name,
            writer: Mutex::new(writer),
            published: RwLock::new(initial),
            metrics: ServiceMetrics::new(),
        })
    }

    /// The service's schema — every ingested and probe record must carry it
    /// (or one with the same attributes).
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The configuration fingerprint of the wrapped index
    /// ([`IncrementalBlocker::name`]); persisted snapshots embed it and
    /// refuse to load into a differently configured index.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current published epoch — one `Arc` clone under a briefly held
    /// read lock; everything after that is lock-free.
    pub fn current(&self) -> Arc<EpochState> {
        let _epoch_guard = lockorder::note_epoch_guard();
        Arc::clone(&self.published.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Acquires the writer mutex — the one entry point for every write-side
    /// path, so the `check-invariants` lock-order guard (the runtime twin of
    /// the static `lock-order` rule) sees every acquisition.
    fn lock_writer(&self) -> std::sync::MutexGuard<'_, WriterState> {
        lockorder::check_writer_lock();
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deliberately acquires the locks in the forbidden order (epoch guard
    /// held, then the writer mutex) so tests can prove the runtime guard
    /// trips. Compiled only under `check-invariants` — calling it panics by
    /// design.
    #[cfg(feature = "check-invariants")]
    pub fn debug_trip_lock_order(&self) {
        let _epoch_guard = lockorder::note_epoch_guard();
        let _published = self.published.read().unwrap_or_else(PoisonError::into_inner);
        // sablock-lint: allow(lock-order): deliberate inversion — the check-invariants trip seam proving the runtime guard fires
        let _writer = self.lock_writer();
    }

    /// The shared write path (writer lock held): logs a batch of ops the
    /// caller has validated, applies it to the private head and publishes
    /// the result as one new epoch. Returns the published epoch.
    ///
    /// For durable services the batch is appended to the WAL *before*
    /// anything applies. A WAL failure poisons the writer: nothing is
    /// applied or published, the error is returned, and every later write
    /// fails with [`ServeError::WriterPoisoned`] — the outcome of the
    /// failed batch is unknown until the directory is re-opened through
    /// [`CandidateService::open_durable`], which recovers exactly the
    /// durable prefix. Reads keep serving the last published epoch
    /// throughout.
    ///
    /// Should an op still fail to apply, the applied prefix is published
    /// (readers never see a torn batch), the rest of the batch is dropped
    /// and the error is returned — exactly what replay does with the logged
    /// batch.
    fn apply_locked(&self, writer: &mut WriterState, ops: Vec<WriteOp>) -> Result<Arc<EpochState>> {
        if let Some(reason) = &writer.poisoned {
            return Err(ServeError::WriterPoisoned { reason: reason.clone() });
        }
        if writer.wal.is_some() {
            let logged = Self::log_ops(&ops);
            // Borrow dance: the append must not hold `writer` borrowed when
            // poisoning it on failure.
            let appended = match writer.wal.as_mut() {
                Some(wal) => wal.append(&logged),
                None => Ok(0),
            };
            if let Err(error) = appended {
                writer.poisoned = Some(error.to_string());
                return Err(error);
            }
        }
        let mut failure: Option<ServeError> = None;
        for op in ops {
            if let Err(error) = Self::apply_one(writer, op) {
                failure = Some(error);
                break;
            }
        }
        let state = Self::publish(&self.published, writer);
        match failure {
            Some(error) => Err(error),
            None => Ok(state),
        }
    }

    fn apply_one(writer: &mut WriterState, op: WriteOp) -> Result<()> {
        match op {
            WriteOp::Insert(records) => {
                // The head validates the batch (dense ids, schema attributes)
                // before mutating anything; only then does the log grow, so
                // head and log never disagree.
                writer.head.insert_batch(&records)?;
                writer.store.append(records)?;
                Ok(())
            }
            WriteOp::Remove(id) => {
                writer.head.remove(id)?;
                Ok(())
            }
        }
    }

    fn publish(published: &RwLock<Arc<EpochState>>, writer: &mut WriterState) -> Arc<EpochState> {
        writer.epoch += 1;
        let state = Arc::new(EpochState {
            epoch: writer.epoch,
            view: writer.head.publish_view(),
            store: writer.store.clone(),
        });
        {
            let _epoch_guard = lockorder::note_epoch_guard();
            *published.write().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&state);
        }
        state
    }

    /// Inserts raw value rows: each row is wrapped in a [`Record`] carrying
    /// the service schema and the next dense id (assigned under the writer
    /// lock, so concurrent callers cannot race the id space), then logged
    /// and ingested as one batch/epoch. A row the schema refuses (wrong
    /// arity) or an id past [`sablock_datasets::MAX_RECORD_ID`] refuses the
    /// whole batch before anything is logged.
    pub fn insert_rows(&self, rows: Vec<Vec<Option<String>>>) -> Result<Arc<EpochState>> {
        let mut writer = self.lock_writer();
        let base = writer.head.num_records();
        let records = rows
            .into_iter()
            .enumerate()
            .map(|(offset, values)| {
                let id = RecordId::try_from_index(base + offset)?;
                Record::new(id, Arc::clone(&self.schema), values)
            })
            .collect::<std::result::Result<Vec<Record>, _>>()?;
        self.apply_locked(&mut writer, vec![WriteOp::Insert(records)])
    }

    /// Tombstones one record as its own epoch, and tells whether this call
    /// tombstoned a live record (`false` when the id was already removed).
    /// Decided under the writer lock, so of several concurrent removals of
    /// one id exactly one sees `true`. An id that was never ingested is
    /// refused before anything is logged or published.
    pub fn remove(&self, id: RecordId) -> Result<(Arc<EpochState>, bool)> {
        let mut writer = self.lock_writer();
        if id.index() >= writer.head.num_records() {
            return Err(ServeError::Core(CoreError::Dataset(DatasetError::UnknownRecord(id.0))));
        }
        let removed_before = writer.head.num_removed();
        let state = self.apply_locked(&mut writer, vec![WriteOp::Remove(id)])?;
        Ok((state, writer.head.num_removed() > removed_before))
    }

    /// Wraps probe values in a [`Record`] against the given epoch: the probe
    /// carries the service schema and the epoch's next record id — the id it
    /// *would* get if ingested, which is how the equivalence contract is
    /// phrased (one-shot blocking over `corpus ∪ {probe}`).
    pub fn probe_record(&self, state: &EpochState, values: Vec<Option<String>>) -> Result<Record> {
        Record::new(state.view().next_record_id(), Arc::clone(&self.schema), values).map_err(ServeError::from)
    }

    /// Restores an in-memory service from a checkpoint snapshot
    /// (`snap-*.snap` in a WAL directory, written by
    /// [`CandidateService::checkpoint`]). The caller supplies a freshly built
    /// (empty) blocker of the *same configuration* and the expected schema;
    /// fingerprint or schema disagreement is a typed error
    /// ([`ServeError::ConfigMismatch`] / [`ServeError::SchemaMismatch`]),
    /// as is any corruption of the file. The restored service is
    /// byte-identical to the checkpointed one: same snapshots, same query
    /// results, same behaviour under every future write sequence.
    pub fn load(head: IncrementalSaLshBlocker, schema: Arc<Schema>, path: &Path) -> Result<Self> {
        if head.num_records() != 0 {
            return Err(ServeError::Protocol(
                "CandidateService::load requires a freshly built, empty index to restore into".into(),
            ));
        }
        let snapshot = persist::read_from_path(path)?;
        let (head, store) = Self::adopt_snapshot(head, &schema, snapshot)?;
        Self::from_parts(head, schema, store, 0, None)
    }

    /// Checkpoints a durable service: atomically writes a snapshot covering
    /// the current epoch into the WAL directory, rotates the log, and
    /// prunes everything the snapshot supersedes. Returns the epoch the
    /// checkpoint covers. Taken under the writer lock, so it is a real
    /// epoch boundary; recovery after a checkpoint replays only the ops
    /// past it. Errors on a non-durable service; a post-snapshot rotation
    /// failure poisons the writer (the snapshot itself is atomic, so the
    /// directory is never torn).
    pub fn checkpoint(&self) -> Result<u64> {
        let mut writer = self.lock_writer();
        if let Some(reason) = &writer.poisoned {
            return Err(ServeError::WriterPoisoned { reason: reason.clone() });
        }
        let epoch = writer.epoch;
        let Some(wal) = writer.wal.as_mut() else {
            return Err(ServeError::Protocol("CHECKPOINT requires a durable (WAL-backed) service".into()));
        };
        let path = wal::snapshot_path(wal.dir(), epoch);
        persist::save_to_path(&path, &self.name, &self.schema, &writer.head.dump(), &writer.store)?;
        if let Some(wal) = writer.wal.as_mut() {
            if let Err(error) = wal.checkpoint_rotate(epoch) {
                writer.poisoned = Some(error.to_string());
                return Err(error);
            }
        }
        Ok(epoch)
    }

    /// The durable log's `(segment base, segment byte length)` position, or
    /// `None` for an in-memory service. What `STATS` reports as `wal`.
    pub fn wal_position(&self) -> Option<(u64, u64)> {
        let writer = self.lock_writer();
        writer.wal.as_ref().map(Wal::position)
    }

    /// The service's observability counters (shed/degraded/reaped counts,
    /// query latency percentiles).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sablock_core::prelude::SaLshBlocker;

    fn builder() -> sablock_core::prelude::SaLshBlockerBuilder {
        SaLshBlocker::builder().attributes(["title"]).qgram(2).bands(12).rows_per_band(2).seed(0xB10C)
    }

    fn service() -> CandidateService {
        let schema = Schema::shared(["title"]).unwrap();
        CandidateService::new(builder().into_incremental().unwrap(), schema).unwrap()
    }

    fn row(title: &str) -> Vec<Option<String>> {
        vec![if title.is_empty() { None } else { Some(title.to_string()) }]
    }

    #[test]
    fn epochs_advance_and_old_epochs_stay_frozen() {
        let service = service();
        let initial = service.current();
        assert_eq!(initial.epoch(), 0);
        assert_eq!(initial.view().num_records(), 0);

        let first = service
            .insert_rows(vec![row("a theory for record linkage"), row("a theory of record linkage")])
            .unwrap();
        assert_eq!(first.epoch(), 1);
        assert_eq!(first.view().num_records(), 2);
        assert_eq!(service.current().epoch(), 1);

        let (second, tombstoned) = service.remove(RecordId(1)).unwrap();
        assert!(tombstoned, "the first removal tombstones a live record");
        assert_eq!(second.epoch(), 2);
        assert_eq!(second.view().num_live_records(), 1);
        // The earlier epochs still render their own state.
        assert_eq!(first.view().num_live_records(), 2);
        assert_eq!(initial.view().num_records(), 0);
        assert_eq!(first.record(RecordId(1)).unwrap().value("title"), Some("a theory of record linkage"));

        // Removing it again is a no-op epoch that tombstones nothing...
        let (third, tombstoned) = service.remove(RecordId(1)).unwrap();
        assert!(!tombstoned, "a repeated removal finds no live record");
        assert_eq!(third.epoch(), 3);
        // ...and removing an unknown id is refused without publishing.
        let error = service.remove(RecordId(99)).unwrap_err();
        assert_eq!(error.to_string(), "core error: dataset error: unknown record id: 99");
        assert_eq!(service.current().epoch(), 3);
        assert_eq!(service.current().snapshot().blocks(), second.snapshot().blocks());
    }

    #[test]
    fn construction_refuses_a_seeded_index_and_a_schema_without_the_blocking_attribute() {
        // A service must start from an empty index...
        let mut seeded = builder().into_incremental().unwrap();
        seeded
            .insert_values(&Schema::shared(["title"]).unwrap(), vec![row("x")])
            .unwrap();
        assert!(CandidateService::new(seeded, Schema::shared(["title"]).unwrap()).is_err());

        // ...over a schema that carries every blocking attribute, in memory
        // and durable alike.
        let other = Schema::shared(["name"]).unwrap();
        let error = CandidateService::new(builder().into_incremental().unwrap(), Arc::clone(&other)).unwrap_err();
        assert!(matches!(error, ServeError::Core(_)), "{error}");
        assert!(error.to_string().contains("'title'"), "{error}");
        let dir = temp_wal_dir("schema");
        let durable =
            CandidateService::open_durable(builder().into_incremental().unwrap(), other, &dir, WalOptions::default());
        assert!(matches!(durable, Err(ServeError::Core(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queries_rank_by_similarity_and_exclude_the_probe() {
        let service = service();
        service
            .insert_rows(vec![
                row("a theory for record linkage"),
                row("a theory of record linkage"),
                row("efficient clustering of high dimensional data sets"),
                row(""),
            ])
            .unwrap();
        let state = service.current();
        let probe = service.probe_record(&state, row("a theory of record linkage!")).unwrap();
        assert_eq!(probe.id(), RecordId(4));

        let candidates = state.query(&probe).unwrap();
        assert!(candidates.contains(&RecordId(0)) && candidates.contains(&RecordId(1)), "{candidates:?}");
        assert!(!candidates.contains(&RecordId(4)));

        let ranked = state.query_top_k(&probe, 10).unwrap();
        assert_eq!(ranked.len(), candidates.len());
        assert_eq!(ranked[0].0, RecordId(1), "the near-duplicate ranks first");
        assert!(ranked[0].1 > 0.8);
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1), "scores are descending");
        assert_eq!(state.query_top_k(&probe, 1).unwrap().len(), 1);

        // An empty probe matches nothing; a wrong-schema probe errors.
        let empty = service.probe_record(&state, row("")).unwrap();
        assert!(state.query(&empty).unwrap().is_empty());
        let wrong_schema = Schema::shared(["name"]).unwrap();
        let wrong = Record::new(RecordId(4), wrong_schema, vec![Some("x".into())]).unwrap();
        assert!(state.query(&wrong).is_err());
    }

    fn populated_service() -> CandidateService {
        let service = service();
        service
            .insert_rows(vec![
                row("a theory for record linkage"),
                row("a theory of record linkage"),
                row("the theory of record linkage"),
            ])
            .unwrap();
        service
    }

    #[test]
    fn top_k_clamps_at_both_boundaries() {
        let service = populated_service();
        let state = service.current();
        let probe = service.probe_record(&state, row("a theory of record linkage")).unwrap();
        let candidates = state.query(&probe).unwrap();
        assert!(candidates.len() >= 2, "{candidates:?}");

        // k = 0: empty ranking, no scoring.
        assert!(state.query_top_k(&probe, 0).unwrap().is_empty());
        assert_eq!(
            state.query_top_k_budgeted(&probe, 0, &QueryBudget::unlimited()).unwrap(),
            QueryOutcome::Ranked(Vec::new())
        );
        // k beyond the candidate count: the full ranked set, no padding.
        let all = state.query_top_k(&probe, usize::MAX).unwrap();
        assert_eq!(all.len(), candidates.len());
        // k exactly at the count matches k beyond it.
        assert_eq!(state.query_top_k(&probe, candidates.len()).unwrap(), all);
        assert_eq!(state.query_top_k(&probe, 1).unwrap().as_slice(), &all[..1]);
    }

    #[test]
    fn over_budget_queries_degrade_to_the_unranked_candidate_set() {
        let service = populated_service();
        let state = service.current();
        let probe = service.probe_record(&state, row("a theory of record linkage")).unwrap();
        let candidates = state.query(&probe).unwrap();

        // A candidate budget below the collision count degrades...
        let tight = QueryBudget { max_candidates: Some(candidates.len() - 1), ..QueryBudget::default() };
        match state.query_top_k_budgeted(&probe, 5, &tight).unwrap() {
            QueryOutcome::Degraded { candidates: got, reason } => {
                assert_eq!(got, candidates, "the degraded answer is the exact cheap-path answer");
                assert_eq!(
                    reason,
                    DegradeReason::CandidateBudget { candidates: candidates.len(), budget: candidates.len() - 1 }
                );
            }
            other => panic!("expected degradation, got {other:?}"),
        }
        // ...a budget at the count does not.
        let exact = QueryBudget { max_candidates: Some(candidates.len()), ..QueryBudget::default() };
        assert!(matches!(state.query_top_k_budgeted(&probe, 5, &exact).unwrap(), QueryOutcome::Ranked(_)));

        // An already-expired deadline degrades before any scoring.
        let expired = QueryBudget { deadline: Some(Instant::now() - std::time::Duration::from_secs(1)), ..QueryBudget::default() };
        match state.query_top_k_budgeted(&probe, 5, &expired).unwrap() {
            QueryOutcome::Degraded { reason: DegradeReason::Deadline, candidates: got } => {
                assert_eq!(got, candidates);
            }
            other => panic!("expected a deadline degradation, got {other:?}"),
        }
        // k = 0 wins over every budget: an empty ranking is always in budget.
        assert_eq!(
            state.query_top_k_budgeted(&probe, 0, &expired).unwrap(),
            QueryOutcome::Ranked(Vec::new())
        );
    }

    fn temp_wal_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sablock-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_services_recover_their_epoch_sequence() {
        let dir = temp_wal_dir("durable");
        let schema = Schema::shared(["title"]).unwrap();
        let (service, report) = CandidateService::open_durable(
            builder().into_incremental().unwrap(),
            Arc::clone(&schema),
            &dir,
            WalOptions::default(),
        )
        .unwrap();
        assert_eq!(report.recovered_seq, 0);
        service.insert_rows(vec![row("a theory for record linkage")]).unwrap();
        service.insert_rows(vec![row("a theory of record linkage")]).unwrap();
        service.remove(RecordId(0)).unwrap();
        assert_eq!(service.current().epoch(), 3);
        let before = service.current().snapshot();
        assert!(service.wal_position().is_some());
        drop(service);

        // Re-open: same epoch, same state, and the log keeps extending.
        let (service, report) = CandidateService::open_durable(
            builder().into_incremental().unwrap(),
            Arc::clone(&schema),
            &dir,
            WalOptions::default(),
        )
        .unwrap();
        assert_eq!(report.recovered_seq, 3);
        assert_eq!(report.replayed_records, 3);
        assert_eq!(report.replay_rejected_batches, 0);
        let state = service.current();
        assert_eq!(state.epoch(), 3);
        assert_eq!(state.snapshot().blocks(), before.blocks());
        assert!(!state.view().is_live(RecordId(0)));
        assert_eq!(state.record(RecordId(0)).unwrap().value("title"), Some("a theory for record linkage"));

        // Checkpoint, write past it, recover again: snapshot + suffix.
        assert_eq!(service.checkpoint().unwrap(), 3);
        service.insert_rows(vec![row("the theory of record linkage")]).unwrap();
        drop(service);
        let (service, report) = CandidateService::open_durable(
            builder().into_incremental().unwrap(),
            Arc::clone(&schema),
            &dir,
            WalOptions::default(),
        )
        .unwrap();
        assert_eq!(report.snapshot_ops, 3, "the checkpoint snapshot was adopted");
        assert_eq!(report.replayed_records, 1, "only the post-checkpoint batch replays");
        assert_eq!(service.current().epoch(), 4);
        assert_eq!(service.current().view().num_records(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_refused_removal_is_neither_logged_nor_published() {
        let dir = temp_wal_dir("refused");
        let options = WalOptions { fsync: crate::wal::FsyncPolicy::Always, ..WalOptions::default() };
        let (service, _) = CandidateService::open_durable(
            builder().into_incremental().unwrap(),
            Schema::shared(["title"]).unwrap(),
            &dir,
            options,
        )
        .unwrap();
        service.insert_rows(vec![row("a theory for record linkage")]).unwrap();
        let (epoch, position) = (service.current().epoch(), service.wal_position());
        for _ in 0..2 {
            let error = service.remove(RecordId(99)).unwrap_err();
            assert_eq!(error.to_string(), "core error: dataset error: unknown record id: 99");
            assert_eq!(service.current().epoch(), epoch, "a refused write publishes nothing");
            assert_eq!(service.wal_position(), position, "a refused write logs nothing");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wal_failure_poisons_the_writer_but_not_the_readers() {
        use crate::fault::FailpointPlan;
        let dir = temp_wal_dir("poison");
        let schema = Schema::shared(["title"]).unwrap();
        // Let the header and first record through, then kill mid-second-record.
        let (service, _) = CandidateService::open_durable(
            builder().into_incremental().unwrap(),
            Arc::clone(&schema),
            &dir,
            WalOptions { failpoints: FailpointPlan::fail_fsyncs_from(1), ..WalOptions::default() },
        )
        .unwrap();
        service.insert_rows(vec![row("a theory for record linkage")]).unwrap();
        let error = service.insert_rows(vec![row("a theory of record linkage")]).unwrap_err();
        assert!(matches!(error, ServeError::Io(_)), "{error}");

        // Readers still serve the last published epoch...
        let state = service.current();
        assert_eq!(state.epoch(), 1);
        assert_eq!(state.view().num_records(), 1);
        // ...but every further write (and checkpoint) is refused, typed.
        let refused = service.insert_rows(vec![row("x")]).unwrap_err();
        assert!(matches!(refused, ServeError::WriterPoisoned { .. }), "{refused}");
        let refused = service.checkpoint().unwrap_err();
        assert!(matches!(refused, ServeError::WriterPoisoned { .. }), "{refused}");
        drop(service);

        // Recovery re-opens cleanly; the un-fsynced batch may or may not
        // have survived (it was never acknowledged), but the acknowledged
        // prefix must.
        let (service, report) = CandidateService::open_durable(
            builder().into_incremental().unwrap(),
            Arc::clone(&schema),
            &dir,
            WalOptions::default(),
        )
        .unwrap();
        assert!(report.recovered_seq >= 1);
        assert!(service.current().view().num_records() >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_durable_services_refuse_checkpoints() {
        let service = service();
        assert!(service.wal_position().is_none());
        let error = service.checkpoint().unwrap_err();
        assert!(matches!(error, ServeError::Protocol(_)), "{error}");
        // Metrics start zeroed and are reachable through the service.
        assert_eq!(service.metrics().shed(), 0);
    }
}
