//! `thread-confinement`: direct `std::thread` use outside `core::parallel`.
//!
//! Determinism across thread counts holds because every parallel path in the
//! workspace goes through `core::parallel` — `parallel_map` /
//! `parallel_map_mut` (chunk in input order, stitch in input order),
//! `join_all` (results in spawn order), or the bounded `worker_pool` /
//! `JobQueue` pair the service front-end runs on — and sizes itself via
//! `resolve_threads`, which `parallel::with_threads` pins for one scope. A
//! stray `std::thread::spawn` elsewhere would create an execution order the
//! determinism tests cannot pin, and a hand-held `JoinHandle` is the
//! telltale of exactly that. The rule fires on any `std::thread` path,
//! `thread::…` call, or `JoinHandle` type mention in every scope — tests
//! included, since a racy test is a flaky test — except inside
//! `crates/core/src/parallel.rs` itself.

use crate::engine::{FileTokens, Finding};

/// The one module allowed to touch `std::thread` directly.
const CONFINED_TO: &str = "crates/core/src/parallel.rs";

pub(super) fn check(file: &FileTokens<'_>, findings: &mut Vec<Finding>) {
    if file.path == CONFINED_TO {
        return;
    }
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if token.is_ident("JoinHandle") {
            findings.push(Finding {
                rule: "thread-confinement",
                message: "`JoinHandle` held outside core::parallel — spawn through the sanctioned \
                          confinement points (parallel_map/parallel_map_mut, join_all, or \
                          worker_pool/JobQueue), which own their joins"
                    .to_string(),
                line: token.line,
                col: token.col,
            });
            continue;
        }
        if !token.is_ident("thread") {
            continue;
        }
        // `std :: thread` or `thread :: <anything>` — both directions catch
        // `use std::thread;` followed by `thread::spawn(…)`.
        let qualified = i >= 3 && file.matches_seq(i - 3, &["std", ":", ":", "thread"]);
        let path_head = file.matches_seq(i, &["thread", ":", ":"]);
        if !(qualified || path_head) {
            continue;
        }
        findings.push(Finding {
            rule: "thread-confinement",
            message: "direct `std::thread` use outside core::parallel — parallelism must go through \
                      the sanctioned confinement points (parallel_map/resolve_threads, join_all, \
                      worker_pool/JobQueue) to stay deterministic across thread counts; pin a worker \
                      count with parallel::with_threads"
                .to_string(),
            line: token.line,
            col: token.col,
        });
    }
}
