//! The `serve` binary as a child process, and the index profiles it starts
//! with.
//!
//! The binary refuses a snapshot or WAL directory written under another
//! configuration, so the benchmark rebuilds each profile here exactly as
//! `crates/serve/src/bin/serve.rs` does; a drift fails the run at server
//! start-up instead of measuring the wrong index.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sablock::core::incremental::IncrementalSaLshBlocker;
use sablock::core::lsh::salsh::SaLshBlockerBuilder;
use sablock::core::minhash::shingle::RecordShingler;
use sablock::datasets::generators::cora::CORA_ATTRIBUTES;
use sablock::datasets::generators::ncvoter::NCVOTER_ATTRIBUTES;
use sablock::prelude::*;

use crate::{procfs, Result};

/// The server's `--profile` configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Cora citations: title + authors, q=3, l=8, k=2, semantic OR w=2.
    Cora,
    /// NC-Voter rows: first/last name + city, q=2, l=10, k=3, textual only.
    Voter,
}

impl Profile {
    /// The shingled attributes and the minhash configuration.
    fn textual(self) -> (&'static [&'static str], MinhashConfig) {
        match self {
            Profile::Cora => (
                &["title", "authors"],
                MinhashConfig {
                    bands: 8,
                    rows_per_band: 2,
                    qgram: 3,
                    seed: 0xB10C,
                },
            ),
            Profile::Voter => (
                &["first_name", "last_name", "city"],
                MinhashConfig {
                    bands: 10,
                    rows_per_band: 3,
                    qgram: 2,
                    seed: 0xB10C,
                },
            ),
        }
    }

    /// Cora's taxonomy, semantic function and semhash family (all leaves);
    /// the voter profile has no semantic part.
    fn semantic(self) -> Result<Option<SemanticParts>> {
        Ok(match self {
            Profile::Cora => {
                let tree = bibliographic_taxonomy();
                let zeta = PatternSemanticFunction::cora_default(&tree)?;
                let family = SemhashFamily::from_all_leaves(&tree)?;
                Some((tree, zeta, family))
            }
            Profile::Voter => None,
        })
    }

    /// The blocker builder the binary uses for this profile.
    pub fn builder(self) -> Result<SaLshBlockerBuilder> {
        let (attributes, minhash) = self.textual();
        let builder = SaLshBlocker::builder()
            .attributes(attributes.iter().copied())
            .minhash(minhash);
        Ok(match self.semantic()? {
            Some((tree, zeta, family)) => builder.semantic(
                SemanticConfig::new(tree, zeta)
                    .with_w(2)
                    .with_mode(SemanticMode::Or)
                    .with_seed(11)
                    .with_pinned_family(family),
            ),
            None => builder,
        })
    }

    /// A fresh, empty index of this profile.
    pub fn blocker(self) -> Result<IncrementalSaLshBlocker> {
        Ok(self.builder()?.into_incremental()?)
    }

    /// The profile's `--profile` name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Cora => "cora",
            Profile::Voter => "voter",
        }
    }

    /// The server's arguments: this profile on a free local port, durable
    /// on `wal_dir` with an fsync per write batch.
    pub fn server_args(self, wal_dir: &Path) -> Vec<String> {
        let dir = wal_dir.to_string_lossy().into_owned();
        [
            "--profile",
            self.name(),
            "--tcp",
            "127.0.0.1:0",
            "--wal",
            &dir,
            "--fsync",
            "always",
        ]
        .map(String::from)
        .to_vec()
    }

    /// The profile's schema.
    pub fn schema(self) -> Result<Arc<Schema>> {
        Ok(match self {
            Profile::Cora => Schema::shared(CORA_ATTRIBUTES)?,
            Profile::Voter => Schema::shared(NCVOTER_ATTRIBUTES)?,
        })
    }

    /// The probe signature stages of this profile, for the per-layer
    /// timings.
    pub fn stages(self) -> Result<Stages> {
        let (attributes, minhash) = self.textual();
        let semantic = match self.semantic()? {
            Some((tree, zeta, family)) => SemanticLayer {
                tree,
                zeta: Box::new(zeta),
                family,
            },
            None => {
                let zeta = VoterSemanticFunction::default_voter();
                let tree = zeta.taxonomy().clone();
                let family = SemhashFamily::from_all_leaves(&tree)?;
                SemanticLayer {
                    tree,
                    zeta: Box::new(zeta),
                    family,
                }
            }
        };
        Ok(Stages {
            shingler: RecordShingler::new(attributes.iter().copied(), minhash.qgram)?,
            hasher: MinHasher::from_config(&minhash),
            semantic,
        })
    }
}

/// A taxonomy, its semantic function and the semhash family over it.
pub type SemanticParts = (TaxonomyTree, PatternSemanticFunction, SemhashFamily);

/// The semantic layer a profile's rows are timed through: Cora's own
/// function and family, and for voter rows (whose profile serves no
/// semantic part) the NC-Voter function with a family over all its leaves,
/// as the paper's voter operating point uses it.
pub struct SemanticLayer {
    tree: TaxonomyTree,
    zeta: Box<dyn SemanticFunction>,
    family: SemhashFamily,
}

impl SemanticLayer {
    /// `SemanticFunction::interpret` then `SemhashFamily::signature`.
    pub fn signature(&self, record: &Record) -> SemanticSignature {
        self.family
            .signature(&self.tree, &self.zeta.interpret(record))
    }
}

/// A profile's probe signature stages (see [`Profile::stages`]).
pub struct Stages {
    /// Shingles the profile's attributes.
    pub shingler: RecordShingler,
    /// The profile's k·l minhash functions.
    pub hasher: MinHasher,
    /// The semantic layer timed on this profile's rows.
    pub semantic: SemanticLayer,
}

/// A running `serve` process. Dropping it kills the process and waits for
/// it to end.
pub struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    /// The `host:port` it listens on.
    pub addr: String,
    /// Its process id.
    pub pid: u32,
    /// The stderr lines it printed before listening (recovery report, …).
    pub banner: Vec<String>,
}

impl Server {
    /// Starts `binary` with `args` and waits until it prints
    /// `listening on <addr>`. Returns the server and the time that took.
    pub fn start(binary: &Path, args: &[String]) -> Result<(Server, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|error| format!("cannot start {}: {error}", binary.display()))?;
        let Some(stderr) = child.stderr.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stderr was not captured".into());
        };
        let pid = child.id();
        let mut server = Server {
            child,
            stderr: BufReader::new(stderr),
            addr: String::new(),
            pid,
            banner: Vec::new(),
        };
        loop {
            let mut line = String::new();
            if server.stderr.read_line(&mut line)? == 0 {
                return Err(format!(
                    "server exited before listening: {}",
                    server.banner.join(" | ")
                )
                .into());
            }
            let line = line.trim_end().to_string();
            if let Some(rest) = line.split_once("listening on ").map(|(_, rest)| rest) {
                server.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                let ready = started.elapsed();
                server.banner.push(line);
                return Ok((server, ready));
            }
            server.banner.push(line);
        }
    }

    /// CPU seconds the server has used so far.
    pub fn cpu_seconds(&self) -> Result<f64> {
        procfs::cpu_seconds(self.pid)
    }

    /// The server's resident-set high-water mark in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64> {
        procfs::peak_rss_mb(self.pid)
    }

    /// SIGKILLs the server and waits for it to end.
    pub fn kill(mut self) -> Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `replayed N batches` count from a server's recovery banner.
pub fn replayed_batches(banner: &[String]) -> Option<u64> {
    banner.iter().find_map(|line| {
        let (before, _) = line.split_once(" batches")?;
        before.rsplit(' ').next()?.parse().ok()
    })
}

/// A fresh per-run working directory under `root`, removed again by
/// [`WorkDir`]'s drop.
pub struct WorkDir {
    /// The directory.
    pub path: PathBuf,
}

impl WorkDir {
    /// Creates `root/<name>-<pid>`, clearing any leftover of that name.
    pub fn create(root: &Path, name: &str) -> Result<Self> {
        let path = root.join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_banner_yields_the_replay_count() {
        let banner = vec![
            "sablock-serve: recovered epoch 812 (snapshot covered 10, replayed 802 batches, discarded 0 torn bytes)"
                .to_string(),
            "sablock-serve: listening on 127.0.0.1:4000 (4 workers, queue depth 64)".to_string(),
        ];
        assert_eq!(replayed_batches(&banner), Some(802));
        assert_eq!(replayed_batches(&banner[1..]), None);
    }

    #[test]
    fn profiles_build_and_name_their_stages() {
        for profile in [Profile::Cora, Profile::Voter] {
            let blocker = profile.blocker().unwrap();
            assert_eq!(blocker.num_records(), 0);
            assert_eq!(
                profile.semantic().unwrap().is_some(),
                profile == Profile::Cora,
                "only cora serves a semantic part"
            );
        }
    }
}
