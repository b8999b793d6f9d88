//! The read phases: `QUERY` and `QUERYK 10` over TCP, before any write.
//!
//! One closed-loop connection, after a second of untimed `QUERY` warm-up,
//! alternates one-second slices of `QUERY` and `QUERYK 10` for
//! `2 × --seconds`, each phase walking the held-out probes in its own
//! seeded order. The gates compare kept replies with the set-up's
//! checkpoint snapshot loaded in process, and `QUERYK` recall is scored
//! against the benchmark's own exact Jaccard top 10.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use sablock::core::parallel::{default_threads, parallel_map};
use sablock::serve::protocol::handle_line;
use sablock::serve::{CandidateService, Client};
use sablock::textual::hashing::StableHashSet;

use crate::inputs::{Inputs, Row};
use crate::reply::{parse_ids, parse_scored, parse_stats, Outcome, Tally};
use crate::report::Report;
use crate::server::{Profile, Server};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::traffic;
use crate::{procfs, Ctx, Result, Rng};

/// The untimed `QUERY` traffic before the timed phases, so that they start
/// on a warm server.
const WARM_UP: Duration = Duration::from_secs(1);
/// The timed phases alternate in slices of this length, so that each one's
/// figures average the host's speed over the whole read window rather than
/// over one half of it.
const SLICE: Duration = Duration::from_secs(1);
/// Replies each phase keeps for the gates: its first ones, which are
/// distinct probes drawn by the seeded order.
const KEEP: usize = 64;
/// The `k` of `QUERYK`.
const K: usize = 10;
/// `STATS` requests after the read window (their round trips are `stats_us`).
const STATS_CALLS: usize = 10;

/// One kind of read request, sent in slices over the read window. The
/// reads use one connection, so the client thread and the server worker
/// answering it fit the guest's two vCPUs and the round trips do not
/// measure the scheduler.
struct Phase {
    /// One request line per probe.
    lines: Vec<String>,
    /// The probes in this phase's seeded order, walked cyclically.
    order: Vec<usize>,
    sent: usize,
    span: &'static str,
    /// Round trips of the requests answered `OK`.
    latencies: Samples,
    tally: Tally,
    kept: Vec<(usize, String)>,
    /// Server CPU seconds over the phase's slices.
    server_cpu_s: f64,
    wall: Duration,
    spans: Tracer,
}

impl Phase {
    fn new(ctx: &Ctx, lines: Vec<String>, span: &'static str, stream: u64) -> Self {
        let mut order: Vec<usize> = (0..lines.len()).collect();
        Rng::new(ctx.seed, stream).shuffle(&mut order);
        Self {
            lines,
            order,
            sent: 0,
            span,
            latencies: Samples::new(),
            tally: Tally::default(),
            kept: Vec::new(),
            server_cpu_s: 0.0,
            wall: Duration::ZERO,
            spans: Tracer::new(ctx.trace, ctx.origin),
        }
    }

    /// Sends this phase's next requests over `client`, one at a time, for
    /// `length`.
    fn slice(&mut self, client: &mut Client, server: &Server, length: Duration) -> Result<()> {
        let cpu_before = server.cpu_seconds()?;
        let started = Instant::now();
        while started.elapsed() < length {
            let probe = *self
                .order
                .get(self.sent % self.order.len().max(1))
                .ok_or("no probes")?;
            let request = self.lines.get(probe).ok_or("probe index out of range")?;
            let (outcome, sent_at, elapsed) = traffic::send(client, request);
            self.tally.note(&outcome);
            let trace_id = u64::try_from(self.sent).unwrap_or(u64::MAX);
            self.spans.add_span(self.span, sent_at, elapsed, trace_id);
            self.sent += 1;
            if let Outcome::Ok(payload) = outcome {
                self.latencies.add(elapsed);
                if self.kept.len() < KEEP {
                    self.kept.push((probe, payload));
                }
            }
        }
        self.wall += started.elapsed();
        self.server_cpu_s += server.cpu_seconds()? - cpu_before;
        Ok(())
    }

    /// Server CPU per request answered `OK`, in µs.
    fn cpu_us_per_request(&self) -> f64 {
        1e6 * self.server_cpu_s / self.tally.ok.max(1) as f64
    }

    /// Requests answered `OK`.
    fn answered(&self) -> usize {
        usize::try_from(self.tally.ok).unwrap_or(usize::MAX)
    }
}

/// Exact shingle-set Jaccard similarity.
fn jaccard(a: &StableHashSet<u64>, b: &StableHashSet<u64>) -> f64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let shared = small
        .iter()
        .filter(|shingle| large.contains(shingle))
        .count();
    let union = a.len() + b.len() - shared;
    if union == 0 {
        0.0
    } else {
        shared as f64 / union as f64
    }
}

/// What the in-process copy answers for one probe.
struct Expected {
    candidates: Vec<u32>,
    ranked: Vec<(u32, f64)>,
    /// The benchmark's own 10th-best exact score (ties at it count as hits).
    tenth_best: f64,
    /// Exact scores of every candidate, by id.
    exact: Vec<(u32, f64)>,
}

fn expected(profile: Profile, service: &CandidateService, probe_values: &Row) -> Result<Expected> {
    let state = service.current();
    let probe = service.probe_record(&state, probe_values.clone())?;
    let candidates = state.query(&probe)?;
    let ranked = state.query_top_k(&probe, K)?;
    let shingler = profile.stages()?.shingler;
    let probe_shingles = shingler.shingles(&probe);
    let mut exact: Vec<(u32, f64)> = candidates
        .iter()
        .map(|&id| {
            let score = state.record(id).map_or(0.0, |stored| {
                jaccard(&probe_shingles, &shingler.shingles(stored))
            });
            (id.0, score)
        })
        .collect();
    let mut scores: Vec<f64> = exact.iter().map(|&(_, score)| score).collect();
    scores.sort_by(|a, b| b.total_cmp(a));
    let tenth_best = scores.get(K - 1).or(scores.last()).copied().unwrap_or(0.0);
    exact.sort_by_key(|&(id, _)| id);
    Ok(Expected {
        candidates: candidates.iter().map(|id| id.0).collect(),
        ranked: ranked.iter().map(|&(id, score)| (id.0, score)).collect(),
        tenth_best,
        exact,
    })
}

/// What the read phases measured.
pub struct Reads {
    query: Phase,
    queryk: Phase,
    recall: Vec<f64>,
    stats_us: Samples,
    /// The probes whose replies were kept, for the traced replay.
    wanted: Vec<usize>,
    /// The load generator's CPU seconds over the two phases.
    pub client_cpu_s: f64,
}

/// Runs the read phases against `server` and checks the kept replies
/// against `oracle`, the set-up's checkpoint loaded in process.
pub fn run(
    ctx: &Ctx,
    profile: Profile,
    server: &Server,
    inputs: &Inputs,
    oracle: &CandidateService,
    report: &mut Report,
) -> Result<Reads> {
    let query_lines: Vec<String> = inputs
        .probes
        .iter()
        .map(|row| traffic::line("QUERY", row))
        .collect();
    let queryk_lines: Vec<String> = inputs
        .probes
        .iter()
        .map(|row| traffic::line(&format!("QUERYK\t{K}"), row))
        .collect();
    let mut client = traffic::client(&server.addr);
    traffic::ask(&mut client, "STATS")?;
    let mut warm_up = Phase::new(ctx, query_lines.clone(), "tcp.QUERY(warm-up)", 1);
    warm_up.slice(&mut client, server, WARM_UP)?;
    report.phase("QUERY warm-up", warm_up.tally);
    let mut query = Phase::new(ctx, query_lines, "tcp.QUERY", 2);
    let mut queryk = Phase::new(ctx, queryk_lines, "tcp.QUERYK", 3);
    let client_cpu_before = procfs::own_cpu_seconds()?;
    for _ in 0..ctx.seconds {
        query.slice(&mut client, server, SLICE)?;
        queryk.slice(&mut client, server, SLICE)?;
    }
    let client_cpu_s = procfs::own_cpu_seconds()? - client_cpu_before;
    let stats_us = stats_round_trips(server)?;
    let final_stats = parse_stats(&traffic::ask(&mut traffic::client(&server.addr), "STATS")?)
        .ok_or("unparsable STATS reply")?;
    report.phase("QUERY", query.tally);
    report.phase("QUERYK", queryk.tally);

    let wanted: Vec<usize> = query
        .kept
        .iter()
        .chain(&queryk.kept)
        .map(|&(probe, _)| probe)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let answers: Vec<Result<Expected>> = parallel_map(&wanted, default_threads(), |&probe| {
        expected(
            profile,
            oracle,
            inputs.probes.get(probe).ok_or("probe index out of range")?,
        )
    });
    let mut by_probe = Vec::with_capacity(wanted.len());
    for (probe, answer) in wanted.iter().zip(answers) {
        by_probe.push((*probe, answer?));
    }
    let lookup = |probe: usize| by_probe.iter().find(|(p, _)| *p == probe).map(|(_, e)| e);

    let query_mismatches = query
        .kept
        .iter()
        .filter(|(probe, payload)| {
            lookup(*probe).map(|e| &e.candidates) != parse_ids(payload).as_ref()
        })
        .count();
    report.gate(
        "QUERY replies equal EpochState::query",
        query_mismatches == 0 && !query.kept.is_empty(),
        format!(
            "{query_mismatches} of {} kept replies differ",
            query.kept.len()
        ),
    );
    let mut recall = Vec::new();
    let mut queryk_mismatches = 0;
    for (probe, payload) in &queryk.kept {
        let (Some(expected), Some(reply)) = (lookup(*probe), parse_scored(payload)) else {
            queryk_mismatches += 1;
            continue;
        };
        let same = reply.len() == expected.ranked.len()
            && reply
                .iter()
                .zip(&expected.ranked)
                .all(|(got, want)| got.0 == want.0 && (got.1 - want.1).abs() <= 1e-4);
        queryk_mismatches += usize::from(!same);
        let hits = reply
            .iter()
            .filter(|(id, _)| {
                expected
                    .exact
                    .binary_search_by_key(id, |&(candidate, _)| candidate)
                    .ok()
                    .and_then(|at| expected.exact.get(at))
                    .is_some_and(|&(_, score)| score >= expected.tenth_best)
            })
            .count();
        recall.push(if reply.is_empty() {
            1.0
        } else {
            hits as f64 / reply.len() as f64
        });
    }
    report.gate(
        "QUERYK replies equal EpochState::query_top_k",
        queryk_mismatches == 0 && !queryk.kept.is_empty(),
        format!(
            "{queryk_mismatches} of {} kept replies differ",
            queryk.kept.len()
        ),
    );
    let failed = warm_up.tally.failed() + query.tally.failed() + queryk.tally.failed();
    report.gate(
        "every read request was answered OK",
        failed == 0 && final_stats.shed == 0 && final_stats.degraded == 0,
        format!(
            "{failed} failed; STATS shed {} degraded {}",
            final_stats.shed, final_stats.degraded
        ),
    );
    report.env(
        "read_phase_seconds",
        format!(
            "{:.3} / {:.3}",
            query.wall.as_secs_f64(),
            queryk.wall.as_secs_f64()
        ),
    );
    Ok(Reads {
        query,
        queryk,
        recall,
        stats_us,
        wanted,
        client_cpu_s,
    })
}

impl Reads {
    /// Client spans of the timed phases and the connection-seconds they
    /// covered, for the traced run's overhead share.
    pub fn spans_and_wall(&self) -> (usize, f64) {
        (
            self.query.spans.spans().len() + self.queryk.spans.spans().len(),
            (self.query.wall + self.queryk.wall).as_secs_f64(),
        )
    }

    /// The read phases' end-to-end metrics.
    pub fn end_to_end(&self, report: &mut Report) {
        report.metric(
            "queryk_recall_at_10",
            self.recall.iter().sum::<f64>() / self.recall.len().max(1) as f64,
            "ratio",
            self.recall.len(),
        );
        report.metric(
            "queryk_cpu_us",
            self.queryk.cpu_us_per_request(),
            "us",
            self.queryk.answered(),
        );
    }

    /// The traced run's read-path layers: the kept probes replayed in
    /// process against `oracle`, timing the nested public calls.
    pub fn layers(
        mut self,
        profile: Profile,
        inputs: &Inputs,
        oracle: &CandidateService,
        report: &mut Report,
        tracer: &mut Tracer,
    ) -> Result<()> {
        let stages = profile.stages()?;
        let state = oracle.current();
        let mut reply_bytes = Vec::new();
        let mut candidate_counts = Vec::new();
        // One untimed pass first, so the timed pass measures the layers
        // warm, as the server runs them, rather than first-touch costs.
        let mut warm_up = Tracer::new(false, Instant::now());
        for pass in [&mut warm_up, &mut *tracer] {
            reply_bytes.clear();
            candidate_counts.clear();
            for &probe in &self.wanted {
                let values = inputs.probes.get(probe).ok_or("probe index out of range")?;
                let record = oracle.probe_record(&state, values.clone())?;
                let request = u64::try_from(probe).unwrap_or(u64::MAX);
                let query_line = traffic::line("QUERY", values);
                let queryk_line = traffic::line(&format!("QUERYK\t{K}"), values);
                let parent = pass.open_span("replay", 0, request);
                let (reply, _) =
                    pass.timed("protocol::handle_line(QUERY)", parent, request, || {
                        handle_line(oracle, &query_line)
                    });
                reply_bytes.push(reply.reply().len() as f64);
                let (found, _) = pass.timed("EpochState::query", parent, request, || {
                    state.query(&record)
                });
                candidate_counts.push(found?.len() as f64);
                let (found, _) = pass.timed("IndexView::candidates", parent, request, || {
                    state.view().candidates(&record)
                });
                found?;
                pass.timed(
                    "RecordShingler::shingles+MinHasher::signature",
                    parent,
                    request,
                    || {
                        std::hint::black_box(
                            stages.hasher.signature(&stages.shingler.shingles(&record)),
                        )
                    },
                );
                pass.timed(
                    "SemanticFunction::interpret+SemhashFamily::signature",
                    parent,
                    request,
                    || std::hint::black_box(stages.semantic.signature(&record)),
                );
                pass.timed("protocol::handle_line(QUERYK)", parent, request, || {
                    handle_line(oracle, &queryk_line)
                });
                let (ranked, _) = pass.timed("EpochState::query_top_k", parent, request, || {
                    state.query_top_k(&record, K)
                });
                ranked?;
                pass.close_span(parent);
            }
        }
        let median_us = |name: &str| tracer.median_us(name);
        let n = self.wanted.len();
        let handle_query_us = median_us("protocol::handle_line(QUERY)");
        let query_inproc_us = median_us("EpochState::query");
        let queryk_inproc_us = median_us("EpochState::query_top_k");
        let mean_candidates =
            candidate_counts.iter().sum::<f64>() / candidate_counts.len().max(1) as f64;
        report.metric(
            "probe_signature_us",
            median_us("RecordShingler::shingles+MinHasher::signature"),
            "us",
            n,
        );
        report.metric(
            "probe_semhash_us",
            median_us("SemanticFunction::interpret+SemhashFamily::signature"),
            "us",
            n,
        );
        report.metric("candidates_us", median_us("IndexView::candidates"), "us", n);
        report.metric("candidates_per_query", mean_candidates, "count", n);
        report.metric("query_inproc_us", query_inproc_us, "us", n);
        report.metric("queryk_inproc_us", queryk_inproc_us, "us", n);
        report.metric(
            "queryk_yield",
            K as f64 / mean_candidates.max(1.0),
            "ratio",
            n,
        );
        report.metric(
            "protocol_query_us",
            handle_query_us - query_inproc_us,
            "us",
            n,
        );
        report.metric(
            "protocol_queryk_us",
            median_us("protocol::handle_line(QUERYK)") - queryk_inproc_us,
            "us",
            n,
        );
        report.metric(
            "reply_bytes_query",
            reply_bytes.iter().sum::<f64>() / reply_bytes.len().max(1) as f64,
            "bytes",
            n,
        );
        report.metric(
            "wire_query_us",
            self.query.latencies.quantile_us(0.5) - handle_query_us,
            "us",
            self.query.latencies.count(),
        );
        report.metric(
            "stats_us",
            self.stats_us.median_us(),
            "us",
            self.stats_us.count(),
        );
        // The round trips, and the cheap path's server CPU, follow the
        // host's steal episodes far beyond any useful bound, so they are
        // reported here, ungated.
        report.metric(
            "query_cpu_us",
            self.query.cpu_us_per_request(),
            "us",
            self.query.answered(),
        );
        let n = self.query.latencies.count();
        report.metric(
            "query_p50_us",
            self.query.latencies.quantile_us(0.5),
            "us",
            n,
        );
        report.metric(
            "query_p90_us",
            self.query.latencies.quantile_us(0.9),
            "us",
            n,
        );
        let n = self.queryk.latencies.count();
        report.metric(
            "queryk_p50_us",
            self.queryk.latencies.quantile_us(0.5),
            "us",
            n,
        );
        report.metric(
            "queryk_p90_us",
            self.queryk.latencies.quantile_us(0.9),
            "us",
            n,
        );
        report.metric(
            "query_p99_us",
            self.query.latencies.quantile_us(0.99),
            "us",
            self.query.latencies.beyond(0.99),
        );
        report.metric(
            "queryk_p99_us",
            self.queryk.latencies.quantile_us(0.99),
            "us",
            self.queryk.latencies.beyond(0.99),
        );
        tracer.absorb_spans(self.query.spans);
        tracer.absorb_spans(self.queryk.spans);
        Ok(())
    }
}

/// Times [`STATS_CALLS`] `STATS` round trips on a fresh connection.
fn stats_round_trips(server: &Server) -> Result<Samples> {
    let mut client = traffic::client(&server.addr);
    traffic::ask(&mut client, "STATS")?;
    let mut samples = Samples::new();
    for _ in 0..STATS_CALLS {
        let (outcome, _, elapsed) = traffic::send(&mut client, "STATS");
        if !matches!(outcome, Outcome::Ok(_)) {
            return Err(format!("STATS failed: {outcome:?}").into());
        }
        samples.add(elapsed);
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_is_exact() {
        let a: StableHashSet<u64> = [1, 2, 3, 4].into_iter().collect();
        let b: StableHashSet<u64> = [3, 4, 5].into_iter().collect();
        assert!((jaccard(&a, &b) - 2.0 / 5.0).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(
            jaccard(&StableHashSet::default(), &StableHashSet::default()),
            0.0
        );
    }

    #[test]
    fn recall_oracle_ranks_like_the_service_on_a_small_corpus() {
        let profile = Profile::Cora;
        let schema = profile.schema().unwrap();
        let inputs = crate::inputs::generate(profile, 1).unwrap();
        let service = CandidateService::new(profile.blocker().unwrap(), schema).unwrap();
        service.insert_rows(inputs.rows[..2_000].to_vec()).unwrap();
        let probe = inputs
            .probes
            .iter()
            .find(|row| row.iter().flatten().count() > 1)
            .unwrap();
        let expected = expected(profile, &service, probe).unwrap();
        assert!(expected.ranked.len() <= K);
        for (id, score) in &expected.ranked {
            let at = expected
                .exact
                .binary_search_by_key(id, |&(c, _)| c)
                .unwrap();
            assert!(
                (expected.exact[at].1 - score).abs() < 1e-12,
                "the service scores by exact Jaccard today"
            );
            assert!(*score >= expected.tenth_best);
        }
    }
}
