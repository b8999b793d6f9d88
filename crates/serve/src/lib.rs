//! # sablock-serve — blocking as a service
//!
//! The online layer over the incremental SA-LSH index
//! ([`sablock_core::incremental`]): a deployment does not want a snapshot of
//! Γ, it wants *"here is a new record — which stored records might match
//! it?"* answered in milliseconds while the corpus keeps growing. This crate
//! provides exactly that:
//!
//! * [`CandidateService`] — a single-writer/many-reader candidate-lookup
//!   engine. Writers batch inserts/removals and atomically publish immutable
//!   [`EpochState`]s; readers query published epochs lock-free, and every
//!   query is observationally equivalent to one-shot blocking over
//!   `corpus ∪ {probe}` ([`IndexView::candidates`]
//!   contract), optionally top-k ranked by shingle-set Jaccard similarity.
//! * [`persist`] — versioned, checksummed binary snapshots, written by
//!   [`CandidateService::checkpoint`] into a WAL directory and read back by
//!   recovery or by [`CandidateService::load`], so a restart resumes from
//!   disk instead of re-blocking the corpus, with corruption surfacing as
//!   typed [`ServeError`]s.
//! * [`protocol`] — the tab-separated line protocol the `sablock-serve`
//!   binary speaks over stdin or TCP through one session loop
//!   ([`protocol::serve_session`]), with bounded line reads, per-request
//!   deadlines, and explicit `DEGRADED`/`RETRY` overload responses.
//! * [`wal`] — write-ahead durability: checksummed op records appended
//!   before each batch applies, segment rotation and fsync policy knobs,
//!   and crash recovery that replays `snapshot + WAL suffix` to exactly the
//!   last durable batch ([`CandidateService::open_durable`]). A WAL
//!   directory plus `CHECKPOINT` is the one way to persist and resume.
//! * [`frontend`] / [`client`] — a bounded worker-pool TCP front-end with
//!   per-connection timeouts and queue-depth shedding, and a line client
//!   that honours `RETRY` backpressure with exponential backoff.
//! * [`fault`] — deterministic, value-threaded fault injection
//!   ([`FailpointPlan`]) so tests can kill WAL I/O at every byte offset and
//!   assert recovery to a differential-verified epoch.
//!
//! [`IndexView::candidates`]: sablock_core::incremental::IndexView::candidates
//!
//! ## Quick start
//!
//! ```
//! use sablock_core::prelude::*;
//! use sablock_datasets::Schema;
//! use sablock_serve::CandidateService;
//!
//! let schema = Schema::shared(["title"]).unwrap();
//! let blocker = SaLshBlocker::builder()
//!     .attributes(["title"])
//!     .qgram(2)
//!     .bands(12)
//!     .rows_per_band(2)
//!     .into_incremental()
//!     .unwrap();
//! let service = CandidateService::new(blocker, schema).unwrap();
//!
//! service.insert_rows(vec![
//!     vec![Some("a theory for record linkage".into())],
//!     vec![Some("a theory of record linkage".into())],
//! ]).unwrap();
//!
//! let state = service.current();
//! let probe = service.probe_record(&state, vec![Some("a theory of record linkage".into())]).unwrap();
//! let ranked = state.query_top_k(&probe, 5).unwrap();
//! assert_eq!(ranked[0].0.0, 1, "the exact duplicate ranks first");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod fault;
pub mod frontend;
pub(crate) mod lockorder;
pub mod metrics;
pub mod persist;
pub mod protocol;
pub mod service;
pub mod store;
pub mod wal;

pub use client::{Client, RetryPolicy};
pub use error::{Result, ServeError};
pub use fault::FailpointPlan;
pub use frontend::{serve_tcp, FrontendOptions};
pub use metrics::ServiceMetrics;
pub use service::{CandidateService, DegradeReason, EpochState, QueryBudget, QueryOutcome};
pub use store::RecordStore;
pub use wal::{FsyncPolicy, RecoveryReport, WalOptions};
