//! The run environment recorded with every result: CPUs and threads, the
//! commit, and the host's steal share.

use std::path::Path;

use crate::report::Report;
use crate::{procfs, Ctx, Result};

/// The commit `.git/HEAD` names, when the checkout is a git repository.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)
                .map(|hash| hash.trim().to_string())
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Records the environment fields every result carries.
pub fn record(report: &mut Report, ctx: &Ctx, steal_pct: f64) -> Result<()> {
    let root = Path::new(".");
    report.env("nproc", procfs::allowed_cpus()?);
    report.env(
        "library_threads",
        sablock::core::parallel::default_threads(),
    );
    report.env("cargo_profile", "release");
    report.env("cargo_features", "default (none enabled)");
    report.env("commit", commit(root));
    report.env("steal_pct", format!("{steal_pct:.3}"));
    report.env("seconds", ctx.seconds);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_falls_back_outside_git() {
        let nowhere = Path::new("/nonexistent-perfbench-root");
        assert_eq!(commit(nowhere), "unknown (not a git checkout)");
    }
}
