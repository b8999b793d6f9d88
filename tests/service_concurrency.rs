//! Concurrency differential: N reader threads hammer a [`CandidateService`]
//! while one writer applies a scripted insert/remove op sequence. Every
//! sample a reader takes — `(epoch, probe, result)` — must afterwards match
//! an **offline replay** of that epoch: a fresh mirror blocker fed exactly
//! the first `epoch` ops. That is the linearizability contract of epoch
//! publication: a reader never sees a torn index, only some applied prefix.
//!
//! The file is deliberately *not* gated on `check-invariants`; CI runs the
//! whole workspace test suite a second time with
//! `--features sablock_core/check-invariants`, arming the runtime sanitizer
//! under these same interleavings.

use std::sync::{Arc, Barrier};

use sablock::core::parallel::join_all;
use sablock::core::lsh::salsh::SaLshBlockerBuilder;
use sablock::prelude::*;
use sablock::serve::protocol::handle_line;
use sablock::serve::{FailpointPlan, FsyncPolicy, WalOptions};

fn builder() -> SaLshBlockerBuilder {
    SaLshBlocker::builder().attributes(["title", "authors"]).qgram(3).rows_per_band(2).bands(8).seed(0xB10C)
}

fn schema() -> Arc<Schema> {
    Schema::shared(["title", "authors"]).unwrap()
}

const TITLE_WORDS: &[&str] =
    &["theory", "record", "linkage", "entity", "resolution", "semantic", "blocking", "errors"];

fn row(index: usize) -> Vec<Option<String>> {
    let first = TITLE_WORDS[index % TITLE_WORDS.len()];
    let second = TITLE_WORDS[(index / 2) % TITLE_WORDS.len()];
    vec![Some(format!("{first} {second} study")), Some(format!("author{}", index % 5))]
}

/// The scripted write load, applied once by the writer thread and replayed
/// op-by-op by the offline mirror.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Vec<Option<String>>>),
    Remove(RecordId),
}

/// Deterministic mixed load: batched inserts with interleaved removals of
/// the oldest still-live record every third op.
fn scripted_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    let mut inserted = 0usize;
    let mut next_victim = 0u32;
    for step in 0..24usize {
        if step % 3 == 2 && u64::from(next_victim) < inserted as u64 {
            ops.push(Op::Remove(RecordId(next_victim)));
            next_victim += 1;
        } else {
            let batch: Vec<Vec<Option<String>>> = (0..1 + step % 3).map(|offset| row(inserted + offset)).collect();
            inserted += batch.len();
            ops.push(Op::Insert(batch));
        }
    }
    ops
}

/// The probe rows readers cycle through.
fn probes() -> Vec<Vec<Option<String>>> {
    vec![row(0), row(7), vec![Some("unrelated zebra quartz".into()), None]]
}

/// One reader observation: which epoch it queried, which probe, what came
/// back.
type Sample = (u64, usize, Vec<RecordId>);

/// Replays `ops[..prefix]` into a fresh mirror blocker and computes, for
/// every probe, what a query over that exact prefix must return.
fn replay_expectations(ops: &[Op]) -> Vec<Vec<Vec<RecordId>>> {
    let schema = schema();
    let probe_rows = probes();
    let mut mirror = builder().into_incremental().unwrap();
    let mut next_index = 0usize;
    let mut per_epoch = Vec::with_capacity(ops.len() + 1);
    let expectations = |mirror: &IncrementalSaLshBlocker, next_index: usize| {
        probe_rows
            .iter()
            .map(|values| {
                let probe = Record::new(
                    RecordId::try_from_index(next_index).unwrap(),
                    Arc::clone(&schema),
                    values.clone(),
                )
                .unwrap();
                mirror.query_candidates(&probe).unwrap()
            })
            .collect::<Vec<_>>()
    };
    per_epoch.push(expectations(&mirror, next_index));
    for op in ops {
        match op {
            Op::Insert(rows) => {
                let records: Vec<Record> = rows
                    .iter()
                    .map(|values| {
                        let id = RecordId::try_from_index(next_index).unwrap();
                        next_index += 1;
                        Record::new(id, Arc::clone(&schema), values.clone()).unwrap()
                    })
                    .collect();
                mirror.insert_batch(&records).unwrap();
            }
            Op::Remove(id) => {
                mirror.remove(*id).unwrap();
            }
        }
        per_epoch.push(expectations(&mirror, next_index));
    }
    per_epoch
}

#[test]
fn concurrent_reads_always_match_a_published_epoch_replay() {
    let ops = scripted_ops();
    let probe_rows = probes();
    let service = CandidateService::new(builder().into_incremental().unwrap(), schema()).unwrap();
    let final_epoch = ops.len() as u64;

    type Task<'scope> = Box<dyn FnOnce() -> Vec<Sample> + Send + 'scope>;
    let writer_ops = ops.clone();
    let service_ref = &service;
    let probes_ref = &probe_rows;
    let mut tasks: Vec<Task> = vec![Box::new(move || {
        for op in writer_ops {
            match op {
                Op::Insert(rows) => {
                    service_ref.insert_rows(rows).unwrap();
                }
                Op::Remove(id) => {
                    service_ref.remove(id).unwrap();
                }
            }
        }
        Vec::new()
    })];
    for reader in 0..4usize {
        tasks.push(Box::new(move || {
            let mut samples: Vec<Sample> = Vec::new();
            let mut probe_index = reader; // stagger the probe cycle per reader
            loop {
                let state = service_ref.current();
                let values = &probes_ref[probe_index % probes_ref.len()];
                let probe = service_ref.probe_record(&state, values.clone()).unwrap();
                samples.push((state.epoch(), probe_index % probes_ref.len(), state.query(&probe).unwrap()));
                if state.epoch() >= final_epoch {
                    return samples;
                }
                probe_index += 1;
            }
        }));
    }

    let sampled: Vec<Sample> = join_all(tasks).into_iter().flatten().collect();
    assert!(
        sampled.iter().any(|(epoch, _, _)| *epoch == final_epoch),
        "every reader runs until the final epoch is visible"
    );

    // Offline recount: epoch e is exactly `ops[..e]` applied to a fresh
    // index, so each sample must equal the replay of its epoch.
    let per_epoch = replay_expectations(&ops);
    let mut epochs_seen = vec![false; per_epoch.len()];
    for (epoch, probe_index, result) in &sampled {
        let epoch = usize::try_from(*epoch).unwrap();
        assert!(epoch < per_epoch.len(), "published epoch {epoch} beyond the op script");
        epochs_seen[epoch] = true;
        assert_eq!(
            result, &per_epoch[epoch][*probe_index],
            "reader sample at epoch {epoch} / probe {probe_index} diverged from the offline replay"
        );
    }
    assert!(epochs_seen[ops.len()], "the final epoch was sampled");

    // The published end state agrees with the mirror wholesale, not just on
    // the sampled probes.
    let final_state = service.current();
    assert_eq!(final_state.epoch(), final_epoch);
    let mut mirror = builder().into_incremental().unwrap();
    let mut next_index = 0usize;
    for op in &ops {
        match op {
            Op::Insert(rows) => {
                let records: Vec<Record> = rows
                    .iter()
                    .map(|values| {
                        let id = RecordId::try_from_index(next_index).unwrap();
                        next_index += 1;
                        Record::new(id, Arc::clone(&schema()), values.clone()).unwrap()
                    })
                    .collect();
                mirror.insert_batch(&records).unwrap();
            }
            Op::Remove(id) => {
                mirror.remove(*id).unwrap();
            }
        }
    }
    assert_eq!(final_state.view().snapshot().blocks(), mirror.snapshot().blocks());
    assert_eq!(final_state.view().running_counts(), mirror.running_counts());
}

/// Concurrent `REMOVE`s of the same ids over the protocol: the writer lock
/// decides which request tombstoned the live record, so each id gets
/// exactly one `OK removed` and every other reply is `OK absent`. A barrier
/// lines the workers up before each id, so they race on the same record.
#[test]
fn concurrent_removes_answer_removed_exactly_once_per_id() {
    const IDS: usize = 64;
    const WORKERS: usize = 4;
    let service = CandidateService::new(builder().into_incremental().unwrap(), schema()).unwrap();
    service.insert_rows((0..IDS).map(row).collect()).unwrap();

    let (service_ref, barrier) = (&service, &Barrier::new(WORKERS));
    type Task<'scope> = Box<dyn FnOnce() -> Vec<String> + Send + 'scope>;
    let tasks: Vec<Task> = (0..WORKERS)
        .map(|_| -> Task {
            Box::new(move || {
                (0..IDS)
                    .map(|id| {
                        barrier.wait();
                        handle_line(service_ref, &format!("REMOVE\t{id}")).reply().to_string()
                    })
                    .collect()
            })
        })
        .collect();
    let replies: Vec<String> = join_all(tasks).into_iter().flatten().collect();
    assert_eq!(replies.len(), IDS * WORKERS);
    for id in 0..IDS {
        let count = |word: &str| {
            let prefix = format!("OK {word} {id} epoch ");
            replies.iter().filter(|reply| reply.starts_with(&prefix)).count()
        };
        assert_eq!(count("removed"), 1, "id {id}: exactly one request tombstones it");
        assert_eq!(count("absent"), WORKERS - 1, "id {id}: every other request finds it gone");
    }
    assert_eq!(service.current().view().num_live_records(), 0);
}

/// The durable variant of the harness: the same scripted load runs against
/// a WAL-backed service under concurrent readers, then the process "dies"
/// (the service is dropped) and recovery must land on the final epoch with
/// the exact mirror-replay state. Epoch publication and durability share
/// one contract: epoch n ≡ `ops[..n]`, live or recovered.
#[test]
fn a_durable_writer_recovers_the_replayed_epoch_after_restart() {
    let dir = std::env::temp_dir().join(format!("sablock-concurrency-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options =
        WalOptions { fsync: FsyncPolicy::Never, failpoints: FailpointPlan::none(), ..WalOptions::default() };

    let ops = scripted_ops();
    let probe_rows = probes();
    let final_epoch = ops.len() as u64;
    {
        let (service, report) =
            CandidateService::open_durable(builder().into_incremental().unwrap(), schema(), &dir, options.clone())
                .unwrap();
        assert_eq!(report.recovered_seq, 0, "a fresh WAL directory starts at epoch 0");

        type Task<'scope> = Box<dyn FnOnce() -> Vec<Sample> + Send + 'scope>;
        let writer_ops = ops.clone();
        let service_ref = &service;
        let probes_ref = &probe_rows;
        let mut tasks: Vec<Task> = vec![Box::new(move || {
            for op in writer_ops {
                match op {
                    Op::Insert(rows) => {
                        service_ref.insert_rows(rows).unwrap();
                    }
                    Op::Remove(id) => {
                        service_ref.remove(id).unwrap();
                    }
                }
            }
            Vec::new()
        })];
        for reader in 0..2usize {
            tasks.push(Box::new(move || {
                let mut samples: Vec<Sample> = Vec::new();
                let mut probe_index = reader;
                loop {
                    let state = service_ref.current();
                    let values = &probes_ref[probe_index % probes_ref.len()];
                    let probe = service_ref.probe_record(&state, values.clone()).unwrap();
                    samples.push((state.epoch(), probe_index % probes_ref.len(), state.query(&probe).unwrap()));
                    if state.epoch() >= final_epoch {
                        return samples;
                    }
                    probe_index += 1;
                }
            }));
        }
        let sampled: Vec<Sample> = join_all(tasks).into_iter().flatten().collect();

        // WAL appends on the write path must not weaken the epoch contract.
        let per_epoch = replay_expectations(&ops);
        for (epoch, probe_index, result) in &sampled {
            let epoch = usize::try_from(*epoch).unwrap();
            assert!(epoch < per_epoch.len(), "published epoch {epoch} beyond the op script");
            assert_eq!(
                result, &per_epoch[epoch][*probe_index],
                "durable-writer sample at epoch {epoch} / probe {probe_index} diverged from the replay"
            );
        }
    }

    // "Restart": recover from the WAL directory alone.
    let (recovered, report) =
        CandidateService::open_durable(builder().into_incremental().unwrap(), schema(), &dir, options).unwrap();
    assert_eq!(report.recovered_seq, final_epoch, "recovery lands on the last durable epoch");
    assert_eq!(report.replayed_records, final_epoch, "no checkpoint was taken, so every batch replays");
    assert_eq!(report.replay_rejected_batches, 0);

    let final_state = recovered.current();
    assert_eq!(final_state.epoch(), final_epoch);
    let mut mirror = builder().into_incremental().unwrap();
    let mut next_index = 0usize;
    for op in &ops {
        match op {
            Op::Insert(rows) => {
                let records: Vec<Record> = rows
                    .iter()
                    .map(|values| {
                        let id = RecordId::try_from_index(next_index).unwrap();
                        next_index += 1;
                        Record::new(id, Arc::clone(&schema()), values.clone()).unwrap()
                    })
                    .collect();
                mirror.insert_batch(&records).unwrap();
            }
            Op::Remove(id) => {
                mirror.remove(*id).unwrap();
            }
        }
    }
    assert_eq!(final_state.view().snapshot().blocks(), mirror.snapshot().blocks());
    assert_eq!(final_state.view().running_counts(), mirror.running_counts());
    let _ = std::fs::remove_dir_all(&dir);
}
