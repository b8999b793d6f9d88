//! One workload run: set-up, the offline phases, the read phases, the write
//! phase with its crash, then the metrics.
//!
//! Every workload runs every phase, over its own profile's corpus, so each
//! reports the same metrics:
//!
//! 1. set-up, three times: generate the inputs, prepare a WAL directory in
//!    process (`CandidateService::open_durable`, bulk `insert_rows`,
//!    `checkpoint`) and start `serve --profile P --tcp 127.0.0.1:0 --wal
//!    <dir> --fsync always` until it prints `listening on`;
//! 2. the offline pipeline in process over the served corpus
//!    ([`crate::offline`]), while the server idles;
//! 3. `QUERY`, then `QUERYK 10`, over TCP ([`crate::read`]);
//! 4. durable writes beside queries, a crash and recovery
//!    ([`crate::write`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sablock::datasets::Schema;
use sablock::serve::wal::WalOptions;
use sablock::serve::CandidateService;

use crate::inputs::{self, Inputs, BATCH, POOL, PROBES};
use crate::reply::parse_stats;
use crate::report::Report;
use crate::server::{Profile, Server, WorkDir};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::traffic::{self, CONNECTIONS};
use crate::{offline, procfs, read, write, Ctx, Result, SETUP_REPEATS};

/// Single-row in-memory `insert_rows` calls timed for `apply_insert_ms`.
const APPLY_SAMPLES: usize = 20;

/// What one set-up produced.
struct Prepared {
    inputs: Inputs,
    server: Server,
    gen_s: f64,
    build_cpu_s: f64,
    build_batches: Samples,
    initial_epoch: u64,
}

fn prepare(ctx: &Ctx, profile: Profile, schema: &Arc<Schema>, dir: &Path) -> Result<Prepared> {
    let started = Instant::now();
    let inputs = inputs::generate(profile, ctx.seed)?;
    let gen_s = started.elapsed().as_secs_f64();
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let cpu_before = procfs::own_cpu_seconds()?;
    let (service, _) = CandidateService::open_durable(
        profile.blocker()?,
        Arc::clone(schema),
        dir,
        WalOptions::default(),
    )?;
    let mut build_batches = Samples::new();
    for chunk in inputs.rows.chunks(BATCH) {
        let batch_started = Instant::now();
        service.insert_rows(chunk.to_vec())?;
        build_batches.add(batch_started.elapsed());
    }
    let initial_epoch = service.checkpoint()?;
    let build_cpu_s = procfs::own_cpu_seconds()? - cpu_before;
    drop(service);
    let (server, _) = Server::start(&ctx.server, &profile.server_args(dir))?;
    Ok(Prepared {
        inputs,
        server,
        gen_s,
        build_cpu_s,
        build_batches,
        initial_epoch,
    })
}

/// The newest checkpoint snapshot in a WAL directory.
fn newest_snapshot(wal_dir: &Path) -> Result<PathBuf> {
    let mut snapshots: Vec<PathBuf> = std::fs::read_dir(wal_dir)?
        .filter_map(|entry| entry.ok().map(|entry| entry.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "snap"))
        .collect();
    snapshots.sort();
    snapshots
        .pop()
        .ok_or_else(|| "no checkpoint snapshot in the WAL directory".into())
}

/// Runs the workload `ctx` names.
pub fn run(ctx: &Ctx) -> Result<Report> {
    let profile = ctx.workload.profile();
    let mut report = Report::new(ctx.workload.name(), ctx.seed, ctx.trace);
    let work = WorkDir::create(&ctx.work_root, ctx.workload.name())?;
    let schema = profile.schema()?;
    let wal_dir = work.path.join("wal");

    // Set-up, repeated; the last server stays up for the traffic.
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let started = Instant::now();
        let setup = prepare(ctx, profile, &schema, &wal_dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        gen_s.push(setup.gen_s);
        prepared = Some(setup);
    }
    let Prepared {
        inputs,
        server,
        build_cpu_s,
        mut build_batches,
        initial_epoch,
        ..
    } = prepared.ok_or("no set-up ran")?;

    // The in-process copy the read gates and the traced replay query: the
    // set-up's checkpoint, loaded before anything writes.
    let snapshot = newest_snapshot(&wal_dir)?;
    let snapshot_mb = std::fs::metadata(&snapshot)?.len() as f64 / (1024.0 * 1024.0);
    let load_started = Instant::now();
    let oracle = CandidateService::load(profile.blocker()?, Arc::clone(&schema), &snapshot)?;
    let snapshot_load_ms = load_started.elapsed().as_secs_f64() * 1e3;

    // The offline pipeline over the same corpus, while the server idles.
    let mut tracer = Tracer::new(ctx.trace, ctx.origin);
    let budget = Duration::from_secs(ctx.seconds);
    let mut offline = offline::run(profile, &inputs, budget, &mut report, &mut tracer)?;
    let served = parse_stats(&traffic::ask(&mut traffic::client(&server.addr), "STATS")?)
        .ok_or("unparsable STATS reply")?;
    report.gate(
        "the served index holds the offline pipeline's Γ",
        served.epoch == initial_epoch && served.pairs == offline.pairs,
        format!(
            "server epoch {} |Γ| {}; checkpoint epoch {initial_epoch}, offline |Γ| {}",
            served.epoch, served.pairs, offline.pairs
        ),
    );

    // The timed traffic: reads, then writes and the crash.
    let reads = read::run(ctx, profile, &server, &inputs, &oracle, &mut report)?;
    let writes = write::run(
        ctx,
        profile,
        server,
        &inputs,
        &wal_dir,
        initial_epoch,
        &mut report,
    )?;
    let client_cpu_s = reads.client_cpu_s + writes.client_cpu_s;

    report.env("profile", profile.name());
    report.env("corpus_records", inputs.rows.len());
    report.env("probes", PROBES);
    report.env("insert_pool", POOL);
    report.env("connections", format!("1 read, {CONNECTIONS} write"));
    report.env("client_cpu_s", format!("{client_cpu_s:.2}"));
    report.env(
        "server_flags",
        format!(
            "--profile {} --tcp 127.0.0.1:0 --wal <dir> --fsync always (4 workers, queue depth 64)",
            profile.name()
        ),
    );
    report.env(
        "setup_build",
        format!(
            "{} batches of {BATCH}, p50 {:.1} ms, {build_cpu_s:.2} CPU-s",
            build_batches.count(),
            build_batches.quantile_ms(0.5)
        ),
    );

    if !ctx.trace {
        report.metric("setup_s", median(&setup_s), "s", setup_s.len());
        report.metric("peak_rss_mb", writes.server_rss_mb, "MB", 1);
        offline.end_to_end(&mut report);
        reads.end_to_end(&mut report);
        writes.end_to_end(&mut report);
        return Ok(report);
    }

    // Traced run: per-layer numbers, from timed calls into each layer.
    let (read_spans, read_wall) = reads.spans_and_wall();
    let (write_spans, write_wall) = writes.spans_and_wall();
    let timed_spans = offline.spans() + read_spans + write_spans;
    let timed_wall = offline.wall_s() + read_wall + write_wall;
    report.metric("gen_s", median(&gen_s), "s", gen_s.len());
    offline.layers(profile, &inputs, &mut report, &mut tracer)?;
    reads.layers(profile, &inputs, &oracle, &mut report, &mut tracer)?;
    for (request, row) in (0u64..).zip(inputs.pool.iter().rev().take(APPLY_SAMPLES)) {
        tracer
            .timed("CandidateService::insert_rows(memory)", 0, request, || {
                oracle.insert_rows(vec![row.clone()])
            })
            .0?;
    }
    report.metric(
        "apply_insert_ms",
        tracer.median_us("CandidateService::insert_rows(memory)") / 1e3,
        "ms",
        APPLY_SAMPLES,
    );
    report.metric("snapshot_mb", snapshot_mb, "MB", 1);
    report.metric("snapshot_load_ms", snapshot_load_ms, "ms", 1);
    writes.layers(profile, &inputs, &wal_dir, &mut report, &mut tracer)?;
    report.metric("client_cpu_s", client_cpu_s, "s", 1);
    let overhead =
        crate::trace::span_cost(ctx.origin).as_secs_f64() * timed_spans as f64 / timed_wall;
    report.metric("trace_overhead_pct", 100.0 * overhead, "%", timed_spans);
    crate::write_trace(ctx, &tracer)?;
    Ok(report)
}
