//! `perfbench` — the end-to-end and per-layer benchmark of this repository.
//!
//! ```text
//! perfbench --server PATH --workload cora|voter
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `perfbench/run.sh` builds the `serve` binary and this program, then runs
//! it with `--server` filled in. Each workload generates its inputs from
//! `--seed`, runs every phase (set-up, the offline pipeline, reads over TCP,
//! durable writes, a crash and recovery) on its profile's corpus, checks its
//! outputs and prints one JSON result line last. The exit code is 0 when every correctness gate passed, 1 when one
//! failed, and 2 when the run could not complete. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod env;
mod inputs;
mod offline;
mod procfs;
mod read;
mod reply;
mod report;
mod server;
mod stats;
mod trace;
mod traffic;
mod workload;
mod write;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's error type: every failure is reported as text.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Where runs keep their working files, results and traces (relative to the
/// checkout root, which is the working directory).
const WORK_ROOT: &str = ".bench_work";

/// How many times a run performs its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cora-like citations under the `cora` profile (semantic SA-LSH).
    Cora,
    /// NC-Voter-like rows under the `voter` profile (textual LSH).
    Voter,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "cora" => Some(Self::Cora),
            "voter" => Some(Self::Voter),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        self.profile().name()
    }

    /// The server profile the workload runs under.
    pub fn profile(self) -> server::Profile {
        match self {
            Self::Cora => server::Profile::Cora,
            Self::Voter => server::Profile::Voter,
        }
    }
}

/// One run's settings.
pub struct Ctx {
    /// Which workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Length of each timed traffic phase (`QUERY`, `QUERYK`, writes).
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `serve` binary.
    pub server: PathBuf,
    /// `.bench_work` under the checkout.
    pub work_root: PathBuf,
    /// When the run started; `setup_s` and spans count from here.
    pub origin: Instant,
}

/// A seeded SplitMix64 generator: the benchmark derives every input choice
/// from `--seed` through it, so equal seeds give equal inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (0 when `n` is 0).
    pub fn below(&mut self, n: usize) -> usize {
        let n64 = u64::try_from(n).unwrap_or(u64::MAX);
        if n64 == 0 {
            return 0;
        }
        usize::try_from(self.next_u64() % n64).unwrap_or(0)
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

fn usage() -> &'static str {
    "usage: perfbench --server PATH --workload cora|voter \
     [--seed N] [--seconds S] [--trace 0|1]"
}

fn parse_args(args: &[String]) -> Result<Ctx> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut server = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload '{value}'; {}", usage()))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be an integer, got '{value}'"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds must be an integer, got '{value}'"))?;
                if !(1..=600).contains(&seconds) {
                    return Err(format!("--seconds must be in 1..=600, got {seconds}").into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'").into()),
                }
            }
            "--server" => server = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'; {}", usage()).into()),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required; {}", usage()))?;
    let server = server.ok_or_else(|| format!("--server is required; {}", usage()))?;
    if !server.is_file() {
        return Err(format!("server binary {} does not exist", server.display()).into());
    }
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        server,
        work_root: PathBuf::from(WORK_ROOT),
        origin: Instant::now(),
    })
}

fn run() -> Result<bool> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = parse_args(&args)?;
    let host_before = procfs::host_ticks()?;
    let mut report = workload::run(&ctx)?;
    let steal_pct = procfs::host_ticks()?.steal_pct_since(&host_before);
    env::record(&mut report, &ctx, steal_pct)?;
    if ctx.trace {
        report.metric("steal_pct", steal_pct, "%", 1);
    }
    report.finish(&ctx.work_root.join("results"))
}

/// Writes a traced run's spans under `.bench_work/traces/`.
pub fn write_trace(ctx: &Ctx, tracer: &trace::Tracer) -> Result<PathBuf> {
    let path = Path::new(&ctx.work_root).join("traces").join(format!(
        "{}-seed{}.jsonl",
        ctx.workload.name(),
        ctx.seed
    ));
    tracer.write_jsonl(&path)?;
    Ok(path)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: a correctness gate failed (see the gate lines above)");
            ExitCode::from(1)
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        let mut rng = Rng::new(1, 2);
        assert!((0..1000).all(|_| rng.below(10) < 10));
        assert_eq!(rng.below(0), 0);
        let mut items: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..50).collect::<Vec<_>>(),
            "a shuffle is a permutation"
        );
        assert_ne!(items, sorted);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let exe = std::env::current_exe().unwrap();
        let exe = exe.to_str().unwrap();
        let ctx = parse_args(&args(&[
            "--server",
            exe,
            "--workload",
            "voter",
            "--seed",
            "9",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (ctx.workload, ctx.seed, ctx.seconds, ctx.trace),
            (Workload::Voter, 9, 10, true)
        );
        for bad in [
            &["--server", exe][..],
            &["--server", exe, "--workload", "nope"],
            &["--server", exe, "--workload", "cora", "--trace", "2"],
            &["--server", exe, "--workload", "cora", "--seconds", "0"],
            &["--server", exe, "--workload", "cora", "--seed"],
            &["--server", "/nonexistent/serve", "--workload", "cora"],
            &["--workload", "cora"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
