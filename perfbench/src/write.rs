//! The write phase: durable one-row writes beside queries, then a crash.
//!
//! Two closed-loop connections run the same seeded cycle of
//! 3 INSERT : 1 REMOVE : 4 QUERY against the server started on the
//! set-up's WAL directory with `--fsync always`; the first also sends
//! `CHECKPOINT` at fixed op counts, the last well before the end. Then the
//! server is SIGKILLed and restarted on the directory several times. The
//! gates check recovery against the pre-crash state and replay every
//! acknowledged write, in epoch order, into an in-process mirror index.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sablock::core::incremental::{IncrementalBlocker, IncrementalSaLshBlocker};
use sablock::core::parallel::join_all;
use sablock::datasets::{Record, RecordId, Schema};
use sablock::serve::protocol::handle_line;
use sablock::serve::wal::{FsyncPolicy, LoggedOp, Wal, WalOptions};
use sablock::serve::CandidateService;

use crate::inputs::{Inputs, BATCH};
use crate::reply::{
    parse_checkpoint, parse_ids, parse_insert, parse_remove, parse_stats, Ack, Outcome, Stats,
    Tally,
};
use crate::report::Report;
use crate::server::{replayed_batches, Profile, Server};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::traffic::{self, CONNECTIONS};
use crate::{procfs, Ctx, Result, Rng};

/// The first connection's op counts after which it sends `CHECKPOINT`.
const CHECKPOINT_AT: [u64; 2] = [400, 800];
/// Restarts after the SIGKILL in a traced run: `recover_s` is their median
/// wall time and `recover_cpu_s` their mean server CPU until listening.
/// Each takes 0.1–0.3 s, so it takes this many to span a few seconds of the
/// host's varying speed and to outgrow the 10 ms ticks. An untraced run,
/// which reports neither, restarts once for the recovery gates.
const RESTARTS: usize = 21;
/// Single-row INSERTs written after a final `CHECKPOINT` that follows the
/// timed traffic: the WAL suffix every restart replays. A fixed suffix
/// keeps recovery independent of how many writes the timed traffic
/// managed.
const SUFFIX: usize = 1_024;
/// Probes whose `QUERY` answers are compared across the crash and with the
/// mirror.
const CHECKED: usize = 32;
/// Samples per in-process write-path timing of the traced run.
const WRITE_SAMPLES: usize = 20;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert,
    Remove,
    Query,
}

/// Each connection's repeating request cycle: 3 INSERT : 1 REMOVE : 4 QUERY.
const CYCLE: [Op; 8] = [
    Op::Insert,
    Op::Query,
    Op::Insert,
    Op::Query,
    Op::Remove,
    Op::Query,
    Op::Insert,
    Op::Query,
];

/// An acknowledged write.
#[derive(Debug, Clone, Copy)]
enum Applied {
    /// Inserted pool row `row` as `ack.id`.
    Insert { row: usize, ack: Ack },
    /// Removed `ack.id`.
    Remove { ack: Ack, live: bool },
}

impl Applied {
    fn epoch(&self) -> u64 {
        match self {
            Applied::Insert { ack, .. } | Applied::Remove { ack, .. } => ack.epoch,
        }
    }
}

/// One connection's view of the traffic. Latencies are those of requests
/// answered `OK`.
#[derive(Default)]
struct Loop {
    query: Samples,
    insert: Samples,
    remove: Samples,
    checkpoint: Samples,
    tally: Tally,
    applied: Vec<Applied>,
    spans: usize,
    unparsed: usize,
}

impl Loop {
    fn absorb_loop(&mut self, other: Loop) {
        self.query.absorb(other.query);
        self.insert.absorb(other.insert);
        self.remove.absorb(other.remove);
        self.checkpoint.absorb(other.checkpoint);
        self.tally.include(&other.tally);
        self.applied.extend(other.applied);
        self.spans += other.spans;
        self.unparsed += other.unparsed;
    }
}

fn connection_loop(
    ctx: &Ctx,
    addr: &str,
    inputs: &Inputs,
    connection: usize,
    deadline: Instant,
    tracer: &mut Tracer,
) -> Result<Loop> {
    let mut client = traffic::client(addr);
    traffic::ask(&mut client, "STATS")?;
    let mut rng = Rng::new(ctx.seed, 10 + connection as u64);
    let mut removable: Vec<u32> = (0..inputs.rows.len())
        .filter(|i| i % CONNECTIONS == connection)
        .filter_map(|i| u32::try_from(i).ok())
        .collect();
    rng.shuffle(&mut removable);
    let own_rows: Vec<usize> = (0..inputs.pool.len())
        .filter(|i| i % CONNECTIONS == connection)
        .collect();
    let probe_lines: Vec<String> = inputs
        .probes
        .iter()
        .map(|row| traffic::line("QUERY", row))
        .collect();
    let mut state = Loop::default();
    let mut next_row = 0usize;
    for (sent, op) in (1u64..).zip(CYCLE.iter().cycle()) {
        if Instant::now() >= deadline {
            break;
        }
        let trace_id = u64::try_from(connection).unwrap_or(0) << 32 | sent;
        match op {
            Op::Insert => {
                let row = own_rows
                    .get(next_row % own_rows.len().max(1))
                    .copied()
                    .ok_or("empty insert pool")?;
                next_row += 1;
                let request = traffic::line(
                    "INSERT",
                    inputs.pool.get(row).ok_or("pool row out of range")?,
                );
                let (outcome, at, elapsed) = traffic::send(&mut client, &request);
                tracer.add_span("tcp.INSERT", at, elapsed, trace_id);
                state.tally.note(&outcome);
                if let Outcome::Ok(payload) = &outcome {
                    state.insert.add(elapsed);
                    match parse_insert(payload) {
                        Some(ack) => state.applied.push(Applied::Insert { row, ack }),
                        None => state.unparsed += 1,
                    }
                }
            }
            Op::Remove => {
                let Some(id) = removable.pop() else { continue };
                let (outcome, at, elapsed) = traffic::send(&mut client, &format!("REMOVE\t{id}"));
                tracer.add_span("tcp.REMOVE", at, elapsed, trace_id);
                state.tally.note(&outcome);
                if let Outcome::Ok(payload) = &outcome {
                    state.remove.add(elapsed);
                    match parse_remove(payload) {
                        Some((live, ack)) => state.applied.push(Applied::Remove { ack, live }),
                        None => state.unparsed += 1,
                    }
                }
            }
            Op::Query => {
                let request = probe_lines
                    .get(rng.below(probe_lines.len()))
                    .ok_or("no probes")?;
                let (outcome, at, elapsed) = traffic::send(&mut client, request);
                tracer.add_span("tcp.QUERY", at, elapsed, trace_id);
                state.tally.note(&outcome);
                if matches!(outcome, Outcome::Ok(_)) {
                    state.query.add(elapsed);
                }
            }
        }
        state.spans += 1;
        if connection == 0 && CHECKPOINT_AT.contains(&sent) {
            let (outcome, at, elapsed) = traffic::send(&mut client, "CHECKPOINT");
            tracer.add_span("tcp.CHECKPOINT", at, elapsed, trace_id);
            state.tally.note(&outcome);
            state.spans += 1;
            if let Outcome::Ok(payload) = &outcome {
                state.checkpoint.add(elapsed);
                if parse_checkpoint(payload).is_none() {
                    state.unparsed += 1;
                }
            }
        }
    }
    Ok(state)
}

/// After the timed traffic: one `CHECKPOINT`, then [`SUFFIX`] untimed
/// single-row INSERTs over both connections — the fixed log suffix that
/// recovery replays.
fn write_suffix(server: &Server, inputs: &Inputs) -> Result<(Vec<Applied>, Tally)> {
    traffic::ask(&mut traffic::client(&server.addr), "CHECKPOINT")?;
    let tasks: Vec<_> = (0..CONNECTIONS)
        .map(|connection| {
            let addr = server.addr.clone();
            move || -> Result<(Vec<Applied>, Tally)> {
                let mut client = traffic::client(&addr);
                let mut applied = Vec::new();
                let mut tally = Tally::default();
                let rows = (0..inputs.pool.len())
                    .rev()
                    .filter(|i| i % CONNECTIONS == connection);
                for row in rows.take(SUFFIX / CONNECTIONS) {
                    let request = traffic::line(
                        "INSERT",
                        inputs.pool.get(row).ok_or("pool row out of range")?,
                    );
                    let (outcome, _, _) = traffic::send(&mut client, &request);
                    tally.note(&outcome);
                    if let Outcome::Ok(payload) = &outcome {
                        let ack = parse_insert(payload).ok_or("unparsable INSERT reply")?;
                        applied.push(Applied::Insert { row, ack });
                    }
                }
                Ok((applied, tally))
            }
        })
        .collect();
    let mut applied = Vec::new();
    let mut tally = Tally::default();
    for result in join_all(tasks) {
        let (writes, counted) = result?;
        applied.extend(writes);
        tally.include(&counted);
    }
    Ok((applied, tally))
}

/// `STATS` and the checked probes' `QUERY` answers.
fn observe(server: &Server, inputs: &Inputs) -> Result<(Stats, Vec<Vec<u32>>)> {
    let mut client = traffic::client(&server.addr);
    let stats =
        parse_stats(&traffic::ask(&mut client, "STATS")?).ok_or("unparsable STATS reply")?;
    let mut answers = Vec::new();
    for row in inputs.probes.iter().take(CHECKED) {
        let payload = traffic::ask(&mut client, &traffic::line("QUERY", row))?;
        answers.push(parse_ids(&payload).ok_or("unparsable QUERY reply")?);
    }
    Ok((stats, answers))
}

/// The mirror's verdict on the acknowledged writes.
struct Mirror {
    index: IncrementalSaLshBlocker,
    problems: Vec<String>,
}

/// Replays the prepared corpus and then every acknowledged write, in
/// epoch order, into a fresh in-process index.
fn replay(
    profile: Profile,
    schema: &Arc<Schema>,
    inputs: &Inputs,
    applied: &[Applied],
    initial_epoch: u64,
) -> Result<Mirror> {
    let mut index = profile.blocker()?;
    for chunk in inputs.rows.chunks(BATCH) {
        index.insert_values(schema, chunk.to_vec())?;
    }
    let mut problems = Vec::new();
    for (expected_epoch, write) in (initial_epoch + 1..).zip(applied) {
        if write.epoch() != expected_epoch {
            problems.push(format!(
                "epoch {} where {expected_epoch} was next",
                write.epoch()
            ));
            break;
        }
        match *write {
            Applied::Insert { row, ack } => {
                let values = inputs
                    .pool
                    .get(row)
                    .cloned()
                    .ok_or("pool row out of range")?;
                index.insert_values(schema, vec![values])?;
                let assigned = index
                    .num_records()
                    .checked_sub(1)
                    .and_then(|last| u32::try_from(last).ok());
                if assigned != Some(ack.id) {
                    problems.push(format!(
                        "insert acked as {} but replays as {assigned:?}",
                        ack.id
                    ));
                }
            }
            Applied::Remove { ack, live } => {
                if !live || !index.remove(RecordId(ack.id))? {
                    problems.push(format!("remove of {} did not hit a live record", ack.id));
                }
            }
        }
    }
    Ok(Mirror { index, problems })
}

fn mirror_answers(
    mirror: &IncrementalSaLshBlocker,
    schema: &Arc<Schema>,
    inputs: &Inputs,
) -> Result<Vec<Vec<u32>>> {
    inputs
        .probes
        .iter()
        .take(CHECKED)
        .map(|row| {
            let probe = Record::new(mirror.next_record_id(), Arc::clone(schema), row.clone())?;
            Ok(mirror
                .query_candidates(&probe)?
                .iter()
                .map(|id| id.0)
                .collect())
        })
        .collect()
}

/// What the write phase and the recovery measured.
pub struct Writes {
    total: Loop,
    wall: Duration,
    server_cpu_s: f64,
    timed_writes: usize,
    recover_s: Vec<f64>,
    recover_cpu_s: Vec<f64>,
    replayed: Option<u64>,
    /// The server's resident-set high-water mark, read before the crash.
    pub server_rss_mb: f64,
    mirror: IncrementalSaLshBlocker,
    spans: Tracer,
    /// The load generator's CPU seconds over the timed phase.
    pub client_cpu_s: f64,
}

/// Runs the write phase against `server`, then crashes and recovers it on
/// `wal_dir`, and records the gates.
pub fn run(
    ctx: &Ctx,
    profile: Profile,
    server: Server,
    inputs: &Inputs,
    wal_dir: &Path,
    initial_epoch: u64,
    report: &mut Report,
) -> Result<Writes> {
    let schema = &profile.schema()?;
    let client_cpu_before = procfs::own_cpu_seconds()?;
    let server_cpu_before = server.cpu_seconds()?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs(ctx.seconds);
    let loops: Vec<_> = (0..CONNECTIONS)
        .map(|connection| {
            let addr = server.addr.clone();
            move || {
                let mut tracer = Tracer::new(ctx.trace, ctx.origin);
                connection_loop(ctx, &addr, inputs, connection, deadline, &mut tracer)
                    .map(|state| (state, tracer))
            }
        })
        .collect();
    let results = join_all(loops);
    let wall = started.elapsed();
    let server_cpu_s = server.cpu_seconds()? - server_cpu_before;
    let client_cpu_s = procfs::own_cpu_seconds()? - client_cpu_before;
    let mut total = Loop::default();
    let mut spans = Tracer::new(ctx.trace, ctx.origin);
    for result in results {
        let (state, tracer) = result?;
        total.absorb_loop(state);
        spans.absorb_spans(tracer);
    }
    let timed_writes = total.applied.len();
    report.phase("mixed", total.tally);
    let (suffix, suffix_tally) = write_suffix(&server, inputs)?;
    report.phase("suffix", suffix_tally);
    let failed = total.tally.failed() + suffix_tally.failed();
    let suffix_writes = suffix.len();
    let mut applied = total.applied.clone();
    applied.extend(suffix);
    applied.sort_by_key(Applied::epoch);

    // Crash and recovery.
    let (before, answers_before) = observe(&server, inputs)?;
    let server_rss_mb = server.peak_rss_mb()?;
    server.kill()?;
    let mut recover_s = Vec::new();
    let mut recover_cpu_s = Vec::new();
    let mut replayed = None;
    let mut recovered = None;
    let restarts = if ctx.trace { RESTARTS } else { 1 };
    for _ in 0..restarts {
        drop(recovered.take());
        let (restarted, ready) = Server::start(&ctx.server, &profile.server_args(wal_dir))?;
        recover_s.push(ready.as_secs_f64());
        recover_cpu_s.push(restarted.cpu_seconds()?);
        replayed = replayed.or(replayed_batches(&restarted.banner));
        recovered = Some(restarted);
    }
    let recovered = recovered.ok_or("no restart ran")?;
    let (after, answers_after) = observe(&recovered, inputs)?;
    recovered.kill()?;

    report.gate(
        "every write-phase request was answered OK and parsed",
        failed == 0 && total.unparsed == 0,
        format!("{failed} failed, {} unparsable OK replies", total.unparsed),
    );
    let same = |s: &Stats| (s.epoch, s.records, s.live, s.pairs);
    report.gate(
        "recovery restores the pre-crash STATS",
        same(&before) == same(&after),
        format!("before {before:?}, after {after:?}"),
    );
    report.gate(
        "recovery restores the pre-crash QUERY answers",
        answers_before == answers_after,
        format!("{} checked probes", answers_before.len()),
    );
    let writes = u64::try_from(applied.len()).unwrap_or(u64::MAX);
    let mirror = replay(profile, schema, inputs, &applied, initial_epoch)?;
    let counts = mirror.index.running_counts();
    let mirrored = (
        initial_epoch + writes,
        u64::try_from(mirror.index.num_records()).unwrap_or(u64::MAX),
        u64::try_from(mirror.index.num_live_records()).unwrap_or(u64::MAX),
        counts.pairs,
    );
    report.gate(
        "acknowledged writes replay into the server's state",
        mirror.problems.is_empty() && mirrored == same(&after),
        format!(
            "mirror (epoch, records, live, |Γ|) {mirrored:?}, server {:?}; {:?}",
            same(&after),
            mirror.problems
        ),
    );
    report.gate(
        "the mirror answers the checked QUERYs like the server",
        mirror_answers(&mirror.index, schema, inputs)? == answers_before,
        format!("{} checked probes", answers_before.len()),
    );
    report.env("write_phase_seconds", format!("{:.3}", wall.as_secs_f64()));
    report.env(
        "acked_writes",
        format!("{timed_writes} timed + {suffix_writes} suffix"),
    );
    report.env("checkpoints", total.checkpoint.count());
    let mut restarts = recover_s.clone();
    restarts.sort_by(f64::total_cmp);
    report.env(
        "restart_s",
        format!(
            "min {:.4} median {:.4} max {:.4}",
            restarts.first().copied().unwrap_or(0.0),
            median(&restarts),
            restarts.last().copied().unwrap_or(0.0)
        ),
    );
    Ok(Writes {
        total,
        wall,
        server_cpu_s,
        timed_writes,
        recover_s,
        recover_cpu_s,
        replayed,
        server_rss_mb,
        mirror: mirror.index,
        spans,
        client_cpu_s,
    })
}

impl Writes {
    /// Client spans of the timed phase and the connection-seconds it
    /// covered, for the traced run's overhead share.
    pub fn spans_and_wall(&self) -> (usize, f64) {
        (
            self.total.spans,
            self.wall.as_secs_f64() * CONNECTIONS as f64,
        )
    }

    /// `mixed_cpu_us`.
    pub fn end_to_end(&self, report: &mut Report) {
        let answered = usize::try_from(self.total.tally.ok).unwrap_or(usize::MAX);
        report.metric(
            "mixed_cpu_us",
            1e6 * self.server_cpu_s / answered.max(1) as f64,
            "us",
            answered,
        );
    }

    /// The traced run's write-path layers: in-process timings against the
    /// mirror index and copies of the WAL directory.
    pub fn layers(
        mut self,
        profile: Profile,
        inputs: &Inputs,
        wal_dir: &Path,
        report: &mut Report,
        tracer: &mut Tracer,
    ) -> Result<()> {
        let schema = &profile.schema()?;
        let scratch = wal_dir.with_file_name("layers");
        let layers = write_path_layers(
            tracer,
            profile,
            &mut self.mirror,
            schema,
            inputs,
            wal_dir,
            &scratch,
        )?;
        let total = &mut self.total;
        report.metric(
            "wire_write_us",
            total.insert.quantile_us(0.5) - layers.handle_insert_us,
            "us",
            total.insert.count(),
        );
        report.metric("insert_cow_ms", layers.insert_cow_ms, "ms", WRITE_SAMPLES);
        report.metric(
            "insert_nocow_ms",
            layers.insert_nocow_ms,
            "ms",
            WRITE_SAMPLES,
        );
        report.metric("remove_cow_ms", layers.remove_cow_ms, "ms", WRITE_SAMPLES);
        report.metric(
            "publish_view_us",
            layers.publish_view_us,
            "us",
            WRITE_SAMPLES,
        );
        report.metric("wal_append_us", layers.wal_append_us, "us", WRITE_SAMPLES);
        report.metric("fsync_us", layers.fsync_us, "us", WRITE_SAMPLES);
        report.metric(
            "wal_bytes_per_write",
            layers.wal_bytes_per_write,
            "bytes",
            WRITE_SAMPLES,
        );
        report.metric(
            "checkpoint_ms",
            total.checkpoint.median_us() / 1e3,
            "ms",
            total.checkpoint.count(),
        );
        report.metric(
            "recover_s",
            median(&self.recover_s),
            "s",
            self.recover_s.len(),
        );
        report.metric(
            "recover_cpu_s",
            self.recover_cpu_s.iter().sum::<f64>() / self.recover_cpu_s.len().max(1) as f64,
            "s",
            self.recover_cpu_s.len(),
        );
        report.metric(
            "replayed_batches",
            self.replayed.unwrap_or(0) as f64,
            "count",
            1,
        );
        // Write latencies, tails beside durable writes and the closed-loop
        // write rate follow host steal far beyond any useful bound, so they
        // are reported here, ungated; `mixed_cpu_us` is the gated cost of
        // the write path.
        report.metric(
            "insert_p50_ms",
            total.insert.quantile_ms(0.5),
            "ms",
            total.insert.count(),
        );
        report.metric(
            "remove_p50_ms",
            total.remove.quantile_ms(0.5),
            "ms",
            total.remove.count(),
        );
        report.metric(
            "mixed_query_p90_us",
            total.query.quantile_us(0.9),
            "us",
            total.query.count(),
        );
        report.metric(
            "insert_p90_ms",
            total.insert.quantile_ms(0.9),
            "ms",
            total.insert.count(),
        );
        report.metric(
            "insert_p99_ms",
            total.insert.quantile_ms(0.99),
            "ms",
            total.insert.beyond(0.99),
        );
        report.metric(
            "write_ops_per_s",
            self.timed_writes as f64 / self.wall.as_secs_f64(),
            "1/s",
            self.timed_writes,
        );
        tracer.absorb_spans(self.spans);
        Ok(())
    }
}

/// Write-path layer timings of the traced run.
struct WriteLayers {
    insert_cow_ms: f64,
    insert_nocow_ms: f64,
    remove_cow_ms: f64,
    publish_view_us: f64,
    wal_append_us: f64,
    fsync_us: f64,
    wal_bytes_per_write: f64,
    handle_insert_us: f64,
}

fn write_path_layers(
    tracer: &mut Tracer,
    profile: Profile,
    mirror: &mut IncrementalSaLshBlocker,
    schema: &Arc<Schema>,
    inputs: &Inputs,
    wal_dir: &Path,
    scratch: &Path,
) -> Result<WriteLayers> {
    let rows = inputs.pool.iter().cycle();
    let mut rows = rows.take(3 * WRITE_SAMPLES);
    let mut next_row = || rows.next().cloned().ok_or("empty insert pool");
    for sample in 0..WRITE_SAMPLES {
        let request = u64::try_from(sample).unwrap_or(0);
        let view = mirror.publish_view();
        let row = next_row()?;
        tracer
            .timed("insert_batch(view held)", 0, request, || {
                mirror.insert_values(schema, vec![row]).map(|_| ())
            })
            .0?;
        drop(view);
        let row = next_row()?;
        tracer
            .timed("insert_batch(no view)", 0, request, || {
                mirror.insert_values(schema, vec![row]).map(|_| ())
            })
            .0?;
        let view = mirror.publish_view();
        let newest = mirror
            .num_records()
            .checked_sub(1)
            .and_then(|last| u32::try_from(last).ok());
        let victim = RecordId(newest.ok_or("the mirror is empty")?);
        tracer
            .timed("remove(view held)", 0, request, || mirror.remove(victim))
            .0?;
        drop(view);
        let (view, _) = tracer.timed("publish_view", 0, request, || mirror.publish_view());
        drop(view);
    }

    // The WAL alone: single-row appends without and with fsync.
    let mut wal_us = |policy: FsyncPolicy, name: &'static str, dir: PathBuf| -> Result<f64> {
        let mut wal = Wal::create(
            &dir,
            WalOptions {
                fsync: policy,
                ..WalOptions::default()
            },
        )?;
        let before = wal.position().1;
        for (sample, row) in (0u32..).zip(inputs.pool.iter().take(WRITE_SAMPLES)) {
            let op = [LoggedOp::Insert(vec![(sample, row.clone())])];
            tracer
                .timed(name, 0, u64::from(sample), || wal.append(&op))
                .0?;
        }
        Ok((wal.position().1 - before) as f64 / WRITE_SAMPLES as f64)
    };
    let wal_bytes_per_write = wal_us(
        FsyncPolicy::Never,
        "Wal::append(never)",
        scratch.join("wal-never"),
    )?;
    wal_us(
        FsyncPolicy::Always,
        "Wal::append(always)",
        scratch.join("wal-always"),
    )?;

    // The durable service in process, on a copy of the crashed directory.
    let copy = scratch.join("wal-copy");
    std::fs::create_dir_all(&copy)?;
    for entry in std::fs::read_dir(wal_dir)? {
        let entry = entry?;
        std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
    }
    let (durable, _) = CandidateService::open_durable(
        profile.blocker()?,
        Arc::clone(schema),
        &copy,
        WalOptions::default(),
    )?;
    for (sample, row) in (0u64..).zip(inputs.pool.iter().take(WRITE_SAMPLES)) {
        let line = traffic::line("INSERT", row);
        tracer.timed("protocol::handle_line(INSERT, durable)", 0, sample, || {
            handle_line(&durable, &line)
        });
    }

    let never_us = tracer.median_us("Wal::append(never)");
    Ok(WriteLayers {
        insert_cow_ms: tracer.median_us("insert_batch(view held)") / 1e3,
        insert_nocow_ms: tracer.median_us("insert_batch(no view)") / 1e3,
        remove_cow_ms: tracer.median_us("remove(view held)") / 1e3,
        publish_view_us: tracer.median_us("publish_view"),
        wal_append_us: never_us,
        fsync_us: tracer.median_us("Wal::append(always)") - never_us,
        wal_bytes_per_write,
        handle_insert_us: tracer.median_us("protocol::handle_line(INSERT, durable)"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_flags_gaps_and_wrong_ids() {
        let profile = Profile::Voter;
        let schema = profile.schema().unwrap();
        let mut inputs = crate::inputs::generate(profile, 3).unwrap();
        inputs.rows.truncate(500);
        let corpus_ids = u32::try_from(inputs.rows.len()).unwrap();
        let good = [
            Applied::Insert {
                row: 0,
                ack: Ack {
                    id: corpus_ids,
                    epoch: 2,
                },
            },
            Applied::Remove {
                ack: Ack { id: 3, epoch: 3 },
                live: true,
            },
        ];
        let mirror = replay(profile, &schema, &inputs, &good, 1).unwrap();
        assert!(mirror.problems.is_empty(), "{:?}", mirror.problems);
        assert_eq!(mirror.index.num_live_records(), inputs.rows.len());
        let gap = [Applied::Insert {
            row: 0,
            ack: Ack {
                id: corpus_ids,
                epoch: 3,
            },
        }];
        assert!(!replay(profile, &schema, &inputs, &gap, 1)
            .unwrap()
            .problems
            .is_empty());
        let wrong_id = [Applied::Insert {
            row: 0,
            ack: Ack { id: 7, epoch: 2 },
        }];
        assert!(!replay(profile, &schema, &inputs, &wrong_id, 1)
            .unwrap()
            .problems
            .is_empty());
        let twice = [
            Applied::Remove {
                ack: Ack { id: 3, epoch: 2 },
                live: true,
            },
            Applied::Remove {
                ack: Ack { id: 3, epoch: 3 },
                live: true,
            },
        ];
        assert!(!replay(profile, &schema, &inputs, &twice, 1)
            .unwrap()
            .problems
            .is_empty());
    }
}
