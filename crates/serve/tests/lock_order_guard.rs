//! The runtime lock-order guard (`check-invariants` only): the dynamic twin
//! of `cargo xtask analyze`'s static `lock-order` rule. One test proves the
//! guard trips on the forbidden order (epoch guard held, then the writer
//! mutex), one proves the canonical order stays silent under real traffic.
#![cfg(feature = "check-invariants")]

use std::sync::Arc;

use sablock_core::prelude::SaLshBlocker;
use sablock_datasets::{Record, RecordId, Schema};
use sablock_serve::{CandidateService, WriteOp};

fn service() -> CandidateService {
    let schema = Schema::shared(["title"]).expect("valid schema");
    let head = SaLshBlocker::builder()
        .attributes(["title"])
        .qgram(2)
        .bands(12)
        .rows_per_band(2)
        .seed(0xB10C)
        .into_incremental()
        .expect("valid builder configuration");
    CandidateService::new(head, schema).expect("schema matches the index attributes")
}

fn record(service: &CandidateService, id: u32, title: &str) -> Record {
    Record::new(RecordId(id), Arc::clone(service.schema()), vec![Some(title.to_string())])
        .expect("record matches the service schema")
}

#[test]
#[should_panic(expected = "lock-order violation")]
fn guard_trips_on_inverted_acquisition() {
    service().debug_trip_lock_order();
}

#[test]
fn canonical_order_never_trips() {
    let service = service();
    for round in 0..4u32 {
        let batch = (0..8u32)
            .map(|i| record(&service, round * 8 + i, &format!("record {round} {i}")))
            .collect();
        // Writer path: mutex first, epoch RwLock second (inside publish).
        let epoch = service.apply(vec![WriteOp::Insert(batch)]).expect("insert publishes an epoch");
        // Reader path: epoch guard alone, then lock-free queries.
        let probe = service
            .probe_record(&epoch, vec![Some(format!("record {round} 0"))])
            .expect("probe record matches the schema");
        let candidates = epoch.query(&probe).expect("query over the published epoch");
        assert!(
            candidates.contains(&RecordId(round * 8)),
            "the exact duplicate must be a candidate"
        );
    }
    assert_eq!(service.current().epoch(), 4);
}
