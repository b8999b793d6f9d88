//! `hash-iter-order`: iterating or draining a `std::collections::HashMap` /
//! `HashSet` in library code without an adjacent sort.
//!
//! Every output path of this workspace is pinned byte-identical across runs
//! and thread counts; `HashMap` iteration order (SipHash with a random seed)
//! is different on every process start, so any hash-order-dependent value
//! that escapes a function is a nondeterminism bug — exactly the class the
//! PR-1 `GroundTruth` fix and the `from_key_map` sort exist for. The
//! deterministic `StableHashMap`/`StableHashSet` aliases (seeded FxHash) are
//! exempt.
//!
//! Detection is a light intra-file dataflow: bindings whose declared type or
//! constructor names `HashMap`/`HashSet` are tracked, and iteration-flavoured
//! method calls on them (or `for … in` loops over them) fire unless a sort —
//! or a collect into an ordered container — appears in the same statement or
//! within the next few lines.

use crate::engine::{FileTokens, Finding};
use crate::lexer::TokenKind;

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that expose or consume iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Identifiers whose presence marks the order as restored or irrelevant:
/// explicit sorts, or collection into an ordered container.
const ORDER_RESTORERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sort_by_cached_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// How many lines below the iterating statement a sort still counts as
/// "adjacent".
const SORT_WINDOW_LINES: u32 = 8;

fn is_hash_type(ident: &str) -> bool {
    HASH_TYPES.contains(&ident)
}

/// Collects the names bound to hash-typed values in this file: `name:
/// HashMap<…>` (lets with ascription, fn params, struct fields) and `let
/// [mut] name = HashMap::new()/with_capacity/default/from(…)`.
fn hash_typed_names(file: &FileTokens<'_>) -> Vec<String> {
    let tokens = &file.tokens;
    let mut names = Vec::new();
    for i in 0..tokens.len() {
        // `name : … HashMap …` up to a declaration boundary.
        if tokens[i].kind == TokenKind::Ident && tokens.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            // Skip `::` paths — `x::y` is not a type ascription.
            if tokens.get(i + 2).is_some_and(|t| t.is_punct(':')) || (i > 0 && tokens[i - 1].is_punct(':')) {
                continue;
            }
            let mut j = i + 2;
            while j < tokens.len() && j < i + 24 {
                let t = &tokens[j];
                if t.is_punct('=') || t.is_punct(';') || t.is_punct(',') || t.is_punct(')') || t.is_punct('{') {
                    break;
                }
                if t.kind == TokenKind::Ident && is_hash_type(&t.text) {
                    names.push(tokens[i].text.clone());
                    break;
                }
                j += 1;
            }
        }
        // `let [mut] name = … HashMap :: new/with_capacity/default/from`.
        if tokens[i].is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = tokens.get(j).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            if !tokens.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                continue;
            }
            let (_, stmt_end) = file.statement_range(j + 2);
            let initialised = tokens[j + 2..stmt_end].windows(4).any(|w| {
                w[0].kind == TokenKind::Ident
                    && is_hash_type(&w[0].text)
                    && w[1].is_punct(':')
                    && w[2].is_punct(':')
                    && matches!(w[3].text.as_str(), "new" | "with_capacity" | "default" | "from")
            });
            if initialised {
                names.push(name.text.clone());
            }
        }
    }
    names
}

/// Whether an order-restoring identifier appears inside `range` or within
/// [`SORT_WINDOW_LINES`] lines after it.
fn order_restored(file: &FileTokens<'_>, range: (usize, usize)) -> bool {
    if file.range_has_ident(range, |name| ORDER_RESTORERS.contains(&name)) {
        return true;
    }
    let last_line = file.tokens.get(range.1.saturating_sub(1)).map_or(0, |t| t.line);
    file.tokens[range.1..]
        .iter()
        .take_while(|t| t.line <= last_line + SORT_WINDOW_LINES)
        .any(|t| t.kind == TokenKind::Ident && ORDER_RESTORERS.contains(&t.text.as_str()))
}

pub(super) fn check(file: &FileTokens<'_>, findings: &mut Vec<Finding>) {
    let tracked = hash_typed_names(file);
    let tokens = &file.tokens;
    let is_tracked = |name: &str| tracked.iter().any(|t| t == name) || is_hash_type(name);

    for i in 0..tokens.len() {
        if file.in_test[i] {
            continue;
        }
        let token = &tokens[i];

        // `receiver.iter()` — receiver is a tracked binding, `self.field`
        // with a tracked field, or a HashMap/HashSet path expression.
        let method_call = token.kind == TokenKind::Ident
            && ITER_METHODS.contains(&token.text.as_str())
            && i >= 2
            && tokens[i - 1].is_punct('.')
            && tokens[i - 2].kind == TokenKind::Ident
            && is_tracked(&tokens[i - 2].text)
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('));

        // `for pat in <expr> {` where the loop expression mentions a tracked
        // binding or the hash types directly.
        let for_loop = token.is_ident("for") && {
            let mut j = i + 1;
            let mut in_idx = None;
            while j < tokens.len() && j < i + 40 {
                if tokens[j].is_ident("in") {
                    in_idx = Some(j);
                    break;
                }
                if tokens[j].is_punct('{') || tokens[j].is_punct(';') {
                    break;
                }
                j += 1;
            }
            in_idx.is_some_and(|in_idx| {
                let mut k = in_idx + 1;
                let mut found = false;
                while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
                    if tokens[k].kind == TokenKind::Ident && is_tracked(&tokens[k].text) {
                        found = true;
                        break;
                    }
                    k += 1;
                }
                found
            })
        };

        if !(method_call || for_loop) {
            continue;
        }
        let range = file.statement_range(i);
        if order_restored(file, range) {
            continue;
        }
        findings.push(Finding {
            rule: "hash-iter-order",
            message: format!(
                "{} a HashMap/HashSet in library code without an adjacent sort — iteration order is \
                 nondeterministic across runs",
                if for_loop { "`for` loop over" } else { "iterating" }
            ),
            line: token.line,
            col: token.col,
        });
    }
}
