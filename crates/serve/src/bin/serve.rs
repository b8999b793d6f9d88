//! `sablock-serve` — a long-running candidate-lookup server.
//!
//! Speaks the [`sablock_serve::protocol`] line protocol over **stdin**
//! (default) or a **TCP listener** (`--tcp ADDR`); both run the same
//! [`sablock_serve::protocol::serve_session`] loop. The index configuration
//! comes from a named profile. Without `--wal` the index lives in memory
//! only; `--wal DIR` makes the service *durable* and is the one way to
//! persist and resume: every write batch is logged before it applies,
//! `CHECKPOINT` snapshots the index and compacts the log, and a restart
//! recovers to exactly the last durable batch.
//!
//! ```text
//! sablock-serve [--profile cora|voter] [--tcp ADDR]
//!               [--wal DIR] [--fsync always|never|every=N] [--segment-bytes N]
//!               [--workers N] [--queue-depth N] [--max-sessions N]
//!               [--read-timeout-ms N] [--write-timeout-ms N]
//!               [--deadline-ms N] [--budget N] [--max-line-bytes N] [--retry-ms N]
//! ```
//!
//! The TCP front-end is a bounded worker pool ([`sablock_serve::frontend`]):
//! admitted connections are served concurrently under per-connection
//! timeouts and per-request deadlines, and connections past the queue depth
//! get a `RETRY` backoff line instead of waiting unboundedly.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use sablock_core::prelude::*;
use sablock_datasets::generators::cora::CORA_ATTRIBUTES;
use sablock_datasets::generators::ncvoter::NCVOTER_ATTRIBUTES;
use sablock_datasets::Schema;
use sablock_serve::protocol::serve_session;
use sablock_serve::{
    serve_tcp, CandidateService, FrontendOptions, FsyncPolicy, Result, ServeError, WalOptions,
};

/// A named index configuration the server can start with.
struct Profile {
    schema: Arc<Schema>,
    blocker: IncrementalSaLshBlocker,
}

fn profile(name: &str) -> Result<Profile> {
    match name {
        "cora" => {
            let tree = bibliographic_taxonomy();
            let zeta = PatternSemanticFunction::cora_default(&tree)?;
            let family = SemhashFamily::from_all_leaves(&tree)?;
            let semantic = SemanticConfig::new(tree, zeta)
                .with_w(2)
                .with_mode(SemanticMode::Or)
                .with_seed(11)
                .with_pinned_family(family);
            let blocker = SaLshBlocker::builder()
                .attributes(["title", "authors"])
                .qgram(3)
                .bands(8)
                .rows_per_band(2)
                .seed(0xB10C)
                .semantic(semantic)
                .into_incremental()?;
            Ok(Profile { schema: Schema::shared(CORA_ATTRIBUTES)?, blocker })
        }
        "voter" => {
            let blocker = SaLshBlocker::builder()
                .attributes(["first_name", "last_name", "city"])
                .qgram(2)
                .bands(10)
                .rows_per_band(3)
                .seed(0xB10C)
                .into_incremental()?;
            Ok(Profile { schema: Schema::shared(NCVOTER_ATTRIBUTES)?, blocker })
        }
        other => Err(ServeError::Protocol(format!("unknown profile '{other}' (expected cora or voter)"))),
    }
}

struct Options {
    profile: String,
    tcp: Option<String>,
    wal: Option<String>,
    wal_options: WalOptions,
    frontend: FrontendOptions,
}

fn parse_fsync(raw: &str) -> Result<FsyncPolicy> {
    match raw {
        "always" => Ok(FsyncPolicy::Always),
        "never" => Ok(FsyncPolicy::Never),
        other => match other.strip_prefix("every=").and_then(|n| n.parse::<u64>().ok()) {
            Some(n) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
            _ => Err(ServeError::Protocol(format!(
                "--fsync must be always, never, or every=N (N ≥ 1), got '{raw}'"
            ))),
        },
    }
}

fn parse_args(args: &[String]) -> Result<Option<Options>> {
    let mut options = Options {
        profile: "cora".into(),
        tcp: None,
        wal: None,
        wal_options: WalOptions::default(),
        frontend: FrontendOptions::default(),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| ServeError::Protocol(format!("{name} needs a value")))
        };
        let mut number = |name: &str| -> Result<u64> {
            value(name)?
                .parse()
                .map_err(|_| ServeError::Protocol(format!("{name} needs a non-negative integer")))
        };
        match flag.as_str() {
            "--profile" => options.profile = value("--profile")?,
            "--tcp" => options.tcp = Some(value("--tcp")?),
            "--wal" => options.wal = Some(value("--wal")?),
            "--fsync" => options.wal_options.fsync = parse_fsync(&value("--fsync")?)?,
            "--segment-bytes" => options.wal_options.segment_bytes = number("--segment-bytes")?.max(1),
            "--workers" => options.frontend.workers = number("--workers")?.max(1) as usize,
            "--queue-depth" => options.frontend.queue_depth = number("--queue-depth")?.max(1) as usize,
            "--max-sessions" => options.frontend.max_sessions = Some(number("--max-sessions")?),
            "--read-timeout-ms" => {
                options.frontend.read_timeout = Duration::from_millis(number("--read-timeout-ms")?)
            }
            "--write-timeout-ms" => {
                options.frontend.write_timeout = Duration::from_millis(number("--write-timeout-ms")?)
            }
            "--deadline-ms" => {
                options.frontend.limits.deadline = Some(Duration::from_millis(number("--deadline-ms")?))
            }
            "--budget" => options.frontend.limits.candidate_budget = Some(number("--budget")? as usize),
            "--max-line-bytes" => {
                options.frontend.limits.max_line_bytes = number("--max-line-bytes")?.max(1) as usize
            }
            "--retry-ms" => options.frontend.retry_after_ms = number("--retry-ms")?,
            "--help" | "-h" => return Ok(None),
            other => return Err(ServeError::Protocol(format!("unknown flag '{other}' (try --help)"))),
        }
    }
    Ok(Some(options))
}

const USAGE: &str = "sablock-serve [--profile cora|voter] [--tcp ADDR]\n\
                     \x20             [--wal DIR] [--fsync always|never|every=N] [--segment-bytes N]\n\
                     \x20             [--workers N] [--queue-depth N] [--max-sessions N]\n\
                     \x20             [--read-timeout-ms N] [--write-timeout-ms N]\n\
                     \x20             [--deadline-ms N] [--budget N] [--max-line-bytes N] [--retry-ms N]\n\
                     Serves the line protocol (QUERY/QUERYK/INSERT/REMOVE/STATS/CHECKPOINT/QUIT,\n\
                     tab-separated fields) on stdin, or concurrently on ADDR with --tcp.\n\
                     --wal makes writes durable: batches are logged before applying, CHECKPOINT\n\
                     snapshots the index into DIR, and a restart recovers to the last durable batch.";

fn run() -> Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(options) = parse_args(&args)? else {
        println!("{USAGE}");
        return Ok(());
    };
    let Profile { schema, blocker } = profile(&options.profile)?;
    let service = match &options.wal {
        Some(dir) => {
            let (service, report) =
                CandidateService::open_durable(blocker, schema, Path::new(dir), options.wal_options.clone())?;
            eprintln!(
                "sablock-serve: recovered epoch {} (snapshot covered {}, replayed {} batches, \
                 discarded {} torn bytes)",
                report.recovered_seq, report.snapshot_ops, report.replayed_records, report.discarded_bytes
            );
            service
        }
        None => CandidateService::new(blocker, schema)?,
    };
    let state = service.current();
    eprintln!(
        "sablock-serve: profile {} ({}), {} records live",
        options.profile,
        service.name(),
        state.view().num_live_records()
    );

    match &options.tcp {
        Some(address) => {
            let listener = std::net::TcpListener::bind(address)?;
            eprintln!(
                "sablock-serve: listening on {} ({} workers, queue depth {})",
                listener.local_addr()?,
                options.frontend.workers,
                options.frontend.queue_depth
            );
            let accepted = serve_tcp(&service, &listener, &options.frontend)?;
            eprintln!("sablock-serve: served {accepted} connections");
            Ok(())
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_session(&service, &options.frontend.limits, stdin.lock(), stdout.lock())
        }
    }
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("sablock-serve: {error}");
            std::process::ExitCode::FAILURE
        }
    }
}
