//! `panic-reachability`: no panic construct transitively reachable from a
//! `sablock_serve` request entry point.
//!
//! Entry points are the service's request surfaces: `handle_line` /
//! `handle_line_with` (protocol dispatch), the session loop both transports
//! share (`serve_session`; the stdin path reaches it from the binary's
//! `run`, which is not an entry point), the reader `query*` methods, and the
//! front-end (`serve_tcp`, `serve_connection`, `shed`).
//! From those, the rule walks the resolved call graph and reports every
//! panic site — `panic!`-family macros, `.unwrap()` / `.expect(…)`, and (in
//! `crates/serve` only) `x[i]` indexing — together with one shortest call
//! path demonstrating reachability.
//!
//! Indexing outside `crates/serve` is deliberately not a panic site: core's
//! index arithmetic is pervasive, perf-critical, and already covered by the
//! `check-invariants` runtime sanitizer; the serve crate is where a fresh
//! out-of-bounds panic would take a request (or the whole writer) down.

use crate::graph::{path_to, reachable_from, CallGraph, Model};
use crate::parser::PanicKind;

use super::FileFinding;
use crate::engine::Finding;

/// Entry-point names (exact) within `crates/serve/src/`.
const ENTRY_NAMES: &[&str] =
    &["handle_line", "handle_line_with", "serve_session", "serve_tcp", "serve_connection", "shed"];

/// Whether a node is a request entry point.
fn is_entry(model: &Model, graph: &CallGraph, node: usize) -> bool {
    let key = graph.nodes[node];
    let file = &model.files[key.file];
    if !file.path.contains("crates/serve/src/") {
        return false;
    }
    let item = &file.parsed.fns[key.item];
    ENTRY_NAMES.contains(&item.name.as_str()) || item.name.starts_with("query")
}

/// Runs the rule; see the module docs.
pub fn check(model: &Model, graph: &CallGraph) -> Vec<FileFinding> {
    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&n| is_entry(model, graph, n))
        .collect();
    let parents = reachable_from(graph, &entries);
    let mut findings = Vec::new();
    for node in 0..graph.nodes.len() {
        if parents[node].is_none() {
            continue;
        }
        let key = graph.nodes[node];
        let file = &model.files[key.file];
        let in_serve = file.path.contains("crates/serve/");
        let item = &file.parsed.fns[key.item];
        let path = path_to(graph, model, &parents, node).join(" → ");
        for panic in &item.panics {
            if panic.kind == PanicKind::Index && !in_serve {
                continue;
            }
            findings.push((
                key.file,
                Finding {
                    rule: "panic-reachability",
                    message: format!(
                        "`{}` can panic and is reachable from a request entry point via {path}",
                        panic.what
                    ),
                    line: panic.line,
                    col: panic.col,
                },
            ));
        }
    }
    findings
}
