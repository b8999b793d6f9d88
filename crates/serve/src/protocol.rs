//! The line-delimited request protocol of the server binary.
//!
//! One request per line, fields separated by tabs (record values may contain
//! spaces; they may not contain tabs or newlines). Responses are single
//! lines starting with `OK`, `ERR`, or the backpressure verb `RETRY`. The
//! verbs:
//!
//! | request | response |
//! |---|---|
//! | `QUERY\t<v1>\t<v2>…` | `OK <n> <id>…` — the probe row's unranked candidate ids (the cheap path) |
//! | `QUERYK\t<k>\t<v1>…` | `OK <n> <id:score>…` — top-`k` by Jaccard; over budget: `OK DEGRADED <n> <id>…` (unranked) |
//! | `INSERT\t<v1>\t<v2>…` | `OK <id> epoch <e>` — ingests the row, echoes its id |
//! | `REMOVE\t<id>` | `OK removed <id> epoch <e>` (`OK absent …` when already removed) |
//! | `STATS` | `OK epoch <e> records <n> live <l> tombstoned <t> compactions <c> cow <w> pairs <Γ> shed <s> degraded <d> wal <base>:<bytes> q50us <p50> q99us <p99>` |
//! | `CHECKPOINT` | `OK checkpoint <epoch>` — durable services only: snapshot + WAL rotation |
//! | `QUIT` | `OK bye` and the session ends |
//!
//! `STATS` reports `wal -` for an in-memory service and latencies as whole
//! microseconds over the queries served so far. `cow` counts the index
//! sub-maps the writer copied because a published epoch still shared them,
//! since the process started (it is not persisted). An overloaded front-end
//! may answer any request with `RETRY <ms>` — resend after the suggested
//! delay ([`crate::client`] does this automatically).
//!
//! An empty value field means the attribute is missing (`None`); rows
//! shorter than the schema are padded with missing values. Malformed
//! requests get `ERR <reason>` and the session continues — a client typo
//! must not take the service down. [`serve_session`] is the one session
//! loop, over stdin and over each TCP connection alike. It reads lines
//! through [`read_bounded_line`], which rejects anything over
//! [`RequestLimits::max_line_bytes`] *before* buffering it, so a malicious
//! client cannot drive unbounded allocation.

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

use sablock_datasets::RecordId;

use crate::error::{Result, ServeError};
use crate::service::{CandidateService, QueryBudget, QueryOutcome};

/// The default cap on one protocol line: 64 KiB.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Per-request admission limits, owned by whatever drives [`serve_session`]
/// (the TCP front-end, the stdin transport, a test).
#[derive(Debug, Clone, Copy)]
pub struct RequestLimits {
    /// Reject lines longer than this many bytes (newline excluded) with
    /// [`ServeError::LineTooLong`].
    pub max_line_bytes: usize,
    /// Per-request deadline for ranked queries: scoring still running this
    /// long after the request started degrades to the unranked answer.
    pub deadline: Option<Duration>,
    /// Candidate budget for ranked queries ([`QueryBudget::max_candidates`]).
    pub candidate_budget: Option<usize>,
}

impl Default for RequestLimits {
    fn default() -> Self {
        Self { max_line_bytes: MAX_LINE_BYTES, deadline: None, candidate_budget: None }
    }
}

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The unranked candidate ids of a probe row (the cheap path).
    Query(Vec<Option<String>>),
    /// Top-k ranked candidates of a probe row.
    QueryK(usize, Vec<Option<String>>),
    /// Ingest one row.
    Insert(Vec<Option<String>>),
    /// Tombstone one record.
    Remove(RecordId),
    /// Service counters.
    Stats,
    /// Snapshot + WAL rotation at the current epoch (durable services).
    Checkpoint,
    /// End the session.
    Quit,
}

/// What [`handle_line`] tells the caller to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Send this single-line reply and keep serving.
    Reply(String),
    /// Send this reply, then end the session.
    Quit(String),
}

impl Outcome {
    /// The reply line, whichever variant carries it.
    pub fn reply(&self) -> &str {
        match self {
            Self::Reply(line) | Self::Quit(line) => line,
        }
    }
}

/// Reads one newline-terminated line without ever buffering more than
/// `max_bytes + 1` bytes: an overlong line surfaces as
/// [`ServeError::LineTooLong`] (the caller should reply `ERR` and drop the
/// connection — the rest of the oversized line is unread garbage), EOF
/// before any byte as `None`. Invalid UTF-8 is a typed protocol error.
pub fn read_bounded_line(reader: &mut impl BufRead, max_bytes: usize) -> Result<Option<String>> {
    let mut raw = Vec::new();
    let mut limited = std::io::Read::take(&mut *reader, max_bytes as u64 + 1);
    let read = limited.read_until(b'\n', &mut raw)?;
    if read == 0 {
        return Ok(None);
    }
    if raw.last() == Some(&b'\n') {
        raw.pop();
        if raw.last() == Some(&b'\r') {
            raw.pop();
        }
    }
    if raw.len() > max_bytes {
        return Err(ServeError::LineTooLong { limit: max_bytes });
    }
    match String::from_utf8(raw) {
        Ok(line) => Ok(Some(line)),
        Err(_) => Err(ServeError::Protocol("request line is not valid UTF-8".into())),
    }
}

fn values_from(fields: &[&str], width: usize) -> Vec<Option<String>> {
    let mut values: Vec<Option<String>> = fields
        .iter()
        .map(|field| if field.is_empty() { None } else { Some((*field).to_string()) })
        .collect();
    values.resize(width, None);
    values
}

/// Parses one request line (verb and fields; see the module docs). The
/// schema width pads short rows with missing values.
pub fn parse_request(line: &str, schema_width: usize) -> Result<Request> {
    let mut fields = line.split('\t');
    let verb = fields.next().unwrap_or("");
    let rest: Vec<&str> = fields.collect();
    match verb {
        "QUERY" => Ok(Request::Query(values_from(&rest, schema_width))),
        "QUERYK" => {
            let (k, rest) = rest
                .split_first()
                .ok_or_else(|| ServeError::Protocol("QUERYK needs a k field".into()))?;
            let k: usize = k
                .parse()
                .map_err(|_| ServeError::Protocol(format!("QUERYK k must be a non-negative integer, got '{k}'")))?;
            Ok(Request::QueryK(k, values_from(rest, schema_width)))
        }
        "INSERT" => Ok(Request::Insert(values_from(&rest, schema_width))),
        "REMOVE" => {
            let [raw] = rest.as_slice() else {
                return Err(ServeError::Protocol("REMOVE takes exactly one record id".into()));
            };
            let id: u32 = raw
                .parse()
                .map_err(|_| ServeError::Protocol(format!("REMOVE id must be a u32, got '{raw}'")))?;
            Ok(Request::Remove(RecordId(id)))
        }
        "STATS" if rest.is_empty() => Ok(Request::Stats),
        "CHECKPOINT" if rest.is_empty() => Ok(Request::Checkpoint),
        "QUIT" if rest.is_empty() => Ok(Request::Quit),
        other => Err(ServeError::Protocol(format!("unknown request verb '{other}'"))),
    }
}

// Replies are written into one buffer sized for the whole line up front:
// an id takes at most 11 bytes with its separator (`u32::MAX` has 10
// digits) and `:<score>` adds 7 for scores in [0, 1]. Writing into a
// `String` cannot fail, so the `fmt::Result`s are discarded.

fn render_ids(prefix: &str, ids: &[RecordId]) -> String {
    let mut out = String::with_capacity(prefix.len() + 12 + 11 * ids.len());
    let _ = write!(out, "{prefix} {}", ids.len());
    for id in ids {
        let _ = write!(out, " {}", id.0);
    }
    out
}

fn render_scored(scored: &[(RecordId, f64)]) -> String {
    let mut out = String::with_capacity(16 + 18 * scored.len());
    let _ = write!(out, "OK {}", scored.len());
    for (id, score) in scored {
        let _ = write!(out, " {}:{score:.4}", id.0);
    }
    out
}

fn render_stats(service: &CandidateService) -> String {
    let state = service.current();
    let view = state.view();
    let metrics = service.metrics();
    let latency = metrics.query_latency_snapshot();
    let to_us = |secs: f64| (secs * 1e6).round() as u64;
    let wal = match service.wal_position() {
        Some((base, bytes)) => format!("{base}:{bytes}"),
        None => "-".to_string(),
    };
    format!(
        "OK epoch {} records {} live {} tombstoned {} compactions {} cow {} pairs {} shed {} degraded {} \
         wal {wal} q50us {} q99us {}",
        state.epoch(),
        view.num_records(),
        view.num_live_records(),
        view.num_removed(),
        view.num_compactions(),
        view.num_cow_copies(),
        view.running_counts().pairs,
        metrics.shed(),
        metrics.degraded(),
        to_us(latency.p50_secs()),
        to_us(latency.p99_secs()),
    )
}

fn execute(service: &CandidateService, limits: &RequestLimits, request: Request) -> Result<Outcome> {
    match request {
        Request::Query(values) => {
            let started = Instant::now();
            let state = service.current();
            let probe = service.probe_record(&state, values)?;
            let candidates = state.query(&probe)?;
            service.metrics().record_query_latency(started.elapsed());
            Ok(Outcome::Reply(render_ids("OK", &candidates)))
        }
        Request::QueryK(k, values) => {
            let started = Instant::now();
            let budget = QueryBudget {
                max_candidates: limits.candidate_budget,
                deadline: limits.deadline.map(|deadline| started + deadline),
            };
            let state = service.current();
            let probe = service.probe_record(&state, values)?;
            let outcome = state.query_top_k_budgeted(&probe, k, &budget)?;
            service.metrics().record_query_latency(started.elapsed());
            Ok(Outcome::Reply(match outcome {
                QueryOutcome::Ranked(scored) => render_scored(&scored),
                QueryOutcome::Degraded { candidates, .. } => {
                    service.metrics().record_degraded();
                    render_ids("OK DEGRADED", &candidates)
                }
            }))
        }
        Request::Insert(values) => {
            let state = service.insert_rows(vec![values])?;
            let id = state.view().num_records() - 1;
            Ok(Outcome::Reply(format!("OK {id} epoch {}", state.epoch())))
        }
        Request::Remove(id) => {
            let (state, tombstoned) = service.remove(id)?;
            let word = if tombstoned { "removed" } else { "absent" };
            Ok(Outcome::Reply(format!("OK {word} {} epoch {}", id.0, state.epoch())))
        }
        Request::Stats => Ok(Outcome::Reply(render_stats(service))),
        Request::Checkpoint => {
            let epoch = service.checkpoint()?;
            Ok(Outcome::Reply(format!("OK checkpoint {epoch}")))
        }
        Request::Quit => Ok(Outcome::Quit("OK bye".into())),
    }
}

/// [`handle_line`] with explicit per-request limits (the front-end threads
/// its deadline and candidate budget through here).
pub fn handle_line_with(service: &CandidateService, limits: &RequestLimits, line: &str) -> Outcome {
    let line = line.trim_end_matches(['\r', '\n']);
    match parse_request(line, service.schema().len()).and_then(|request| execute(service, limits, request)) {
        Ok(outcome) => outcome,
        Err(error) => Outcome::Reply(format!("ERR {error}")),
    }
}

/// Parses and executes one protocol line against the service with default
/// limits (no deadline, no candidate budget). Every failure — parse or
/// execution — becomes an `ERR` reply; the session always gets exactly one
/// line back and only `QUIT` ends it.
pub fn handle_line(service: &CandidateService, line: &str) -> Outcome {
    handle_line_with(service, &RequestLimits::default(), line)
}

/// Serves one session: reads bounded request lines from `reader` and
/// answers each on `writer` until `QUIT` or EOF. An overlong line gets one
/// `ERR` and ends the session (the rest of the line is unread garbage); a
/// non-UTF-8 line gets an `ERR` and the session continues. Each reply
/// leaves in one `write_all` of the line and its newline, then a flush.
/// Any other read failure, or any write failure, ends the session with
/// that error — over TCP, a timed-out or dead peer.
pub fn serve_session(
    service: &CandidateService,
    limits: &RequestLimits,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> Result<()> {
    loop {
        let (mut reply, last) = match read_bounded_line(&mut reader, limits.max_line_bytes) {
            Ok(None) => return Ok(()),
            Ok(Some(line)) => match handle_line_with(service, limits, &line) {
                Outcome::Reply(reply) => (reply, false),
                Outcome::Quit(reply) => (reply, true),
            },
            Err(error @ ServeError::LineTooLong { .. }) => (format!("ERR {error}"), true),
            Err(error @ ServeError::Protocol(_)) => (format!("ERR {error}"), false),
            Err(error) => return Err(error),
        };
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        writer.flush()?;
        if last {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sablock_core::prelude::SaLshBlocker;
    use sablock_datasets::Schema;

    fn service() -> CandidateService {
        let schema = Schema::shared(["title", "authors"]).unwrap();
        let blocker = SaLshBlocker::builder()
            .attributes(["title"])
            .qgram(2)
            .bands(12)
            .rows_per_band(2)
            .seed(0xB10C)
            .into_incremental()
            .unwrap();
        CandidateService::new(blocker, schema).unwrap()
    }

    #[test]
    fn parses_and_rejects_requests() {
        assert_eq!(
            parse_request("QUERY\ta theory\tsmith", 2).unwrap(),
            Request::Query(vec![Some("a theory".into()), Some("smith".into())])
        );
        assert_eq!(
            parse_request("QUERY\ta theory", 2).unwrap(),
            Request::Query(vec![Some("a theory".into()), None]),
            "short rows pad with missing values"
        );
        assert_eq!(parse_request("QUERYK\t3\tx", 1).unwrap(), Request::QueryK(3, vec![Some("x".into())]));
        assert_eq!(parse_request("INSERT\t\tsmith", 2).unwrap(), Request::Insert(vec![None, Some("smith".into())]));
        assert_eq!(parse_request("REMOVE\t7", 2).unwrap(), Request::Remove(RecordId(7)));
        assert_eq!(parse_request("STATS", 2).unwrap(), Request::Stats);
        assert_eq!(parse_request("CHECKPOINT", 2).unwrap(), Request::Checkpoint);
        assert_eq!(parse_request("QUIT", 2).unwrap(), Request::Quit);
        for bad in [
            "",
            "NOPE",
            "QUERYK\tx\ty",
            "REMOVE\tnot-a-number",
            "REMOVE\t1\t2",
            "SAVE\t/tmp/x.snap",
            "STATS\textra",
            "CHECKPOINT\tnow",
        ] {
            assert!(parse_request(bad, 2).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn end_to_end_session() {
        let service = service();
        assert_eq!(handle_line(&service, "INSERT\ta theory for record linkage\tfellegi").reply(), "OK 0 epoch 1");
        assert_eq!(handle_line(&service, "INSERT\ta theory of record linkage\tsunter\n").reply(), "OK 1 epoch 2");
        let reply = handle_line(&service, "QUERY\ta theory of record linkage");
        assert_eq!(reply.reply(), "OK 2 0 1", "the cheap path returns unranked candidate ids");
        let top1 = handle_line(&service, "QUERYK\t1\ta theory of record linkage");
        assert!(top1.reply().starts_with("OK 1 1:"), "record 1 is the best match: {}", top1.reply());
        assert_eq!(handle_line(&service, "REMOVE\t0").reply(), "OK removed 0 epoch 3");
        assert_eq!(handle_line(&service, "REMOVE\t0").reply(), "OK absent 0 epoch 4");
        assert!(handle_line(&service, "REMOVE\t99").reply().starts_with("ERR "), "unknown ids report an error");
        assert!(handle_line(&service, "BOGUS\tx").reply().starts_with("ERR "));
        assert!(
            handle_line(&service, "CHECKPOINT").reply().starts_with("ERR "),
            "in-memory services refuse checkpoints"
        );
        assert_eq!(handle_line(&service, "QUIT"), Outcome::Quit("OK bye".into()));
    }

    #[test]
    fn stats_format_is_pinned() {
        let service = service();
        // Freshly built, nothing counted: every field renders, in order.
        assert_eq!(
            handle_line(&service, "STATS").reply(),
            "OK epoch 0 records 0 live 0 tombstoned 0 compactions 0 cow 0 pairs 0 shed 0 degraded 0 \
             wal - q50us 0 q99us 0"
        );
        handle_line(&service, "INSERT\ta theory for record linkage\tfellegi");
        handle_line(&service, "INSERT\ta theory of record linkage\tsunter");
        handle_line(&service, "REMOVE\t0");
        let stats = handle_line(&service, "STATS");
        assert_eq!(
            stats.reply().split(" q50us ").next().unwrap(),
            "OK epoch 3 records 2 live 1 tombstoned 1 compactions 12 cow 36 pairs 0 shed 0 degraded 0 wal -"
        );

        // Queries move the latency percentiles off zero...
        handle_line(&service, "QUERYK\t5\ta theory of record linkage");
        let stats = handle_line(&service, "STATS");
        let fields: Vec<&str> = stats.reply().split(' ').collect();
        let q99 = fields.last().unwrap().parse::<u64>().unwrap();
        assert!(q99 > 0, "a served query must register a latency: {}", stats.reply());
        // ...and a degraded query bumps the degraded counter.
        let limits = RequestLimits { candidate_budget: Some(0), ..RequestLimits::default() };
        let reply = handle_line_with(&service, &limits, "QUERYK\t5\ta theory of record linkage");
        assert!(reply.reply().starts_with("OK DEGRADED 1 "), "{}", reply.reply());
        assert!(handle_line(&service, "STATS").reply().contains(" degraded 1 "));
    }

    #[test]
    fn degraded_queries_flag_and_match_the_cheap_path() {
        let service = service();
        handle_line(&service, "INSERT\ta theory for record linkage\tx");
        handle_line(&service, "INSERT\ta theory of record linkage\ty");
        let cheap = handle_line(&service, "QUERY\ta theory of record linkage");
        let limits = RequestLimits { candidate_budget: Some(1), ..RequestLimits::default() };
        let degraded = handle_line_with(&service, &limits, "QUERYK\t5\ta theory of record linkage");
        assert_eq!(
            degraded.reply().replace("OK DEGRADED ", "OK "),
            cheap.reply(),
            "the degraded answer is exactly the cheap path's answer"
        );
        // Within budget the same limits rank normally.
        let roomy = RequestLimits { candidate_budget: Some(100), ..RequestLimits::default() };
        let ranked = handle_line_with(&service, &roomy, "QUERYK\t5\ta theory of record linkage");
        assert!(ranked.reply().contains(':'), "{}", ranked.reply());
    }

    #[test]
    fn bounded_reads_reject_overlong_lines() {
        use std::io::Cursor;
        // Under the limit: read normally, newline stripped.
        let mut input = Cursor::new(b"STATS\r\nQUIT\n".to_vec());
        assert_eq!(read_bounded_line(&mut input, 16).unwrap(), Some("STATS".to_string()));
        assert_eq!(read_bounded_line(&mut input, 16).unwrap(), Some("QUIT".to_string()));
        assert_eq!(read_bounded_line(&mut input, 16).unwrap(), None, "EOF is None");

        // Exactly at the limit is fine; one byte over is a typed error.
        let mut input = Cursor::new(b"1234\n".to_vec());
        assert_eq!(read_bounded_line(&mut input, 4).unwrap(), Some("1234".to_string()));
        let mut input = Cursor::new(b"12345\n".to_vec());
        let error = read_bounded_line(&mut input, 4).unwrap_err();
        assert!(matches!(error, ServeError::LineTooLong { limit: 4 }), "{error}");

        // A huge unterminated flood errors without buffering it all.
        let mut input = Cursor::new(vec![b'x'; 1 << 20]);
        let error = read_bounded_line(&mut input, 64).unwrap_err();
        assert!(matches!(error, ServeError::LineTooLong { limit: 64 }), "{error}");

        // A last line without a newline still arrives.
        let mut input = Cursor::new(b"QUIT".to_vec());
        assert_eq!(read_bounded_line(&mut input, 16).unwrap(), Some("QUIT".to_string()));

        // Invalid UTF-8 is a protocol error, not a panic.
        let mut input = Cursor::new(vec![0xFF, 0xFE, b'\n']);
        assert!(matches!(read_bounded_line(&mut input, 16).unwrap_err(), ServeError::Protocol(_)));
    }
}
