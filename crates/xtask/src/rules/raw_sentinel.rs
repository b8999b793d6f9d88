//! `raw-sentinel`: raw `u32::MAX` / `0xFFFF_FFFF` literals in record-id or
//! packing contexts.
//!
//! `u32::MAX` is load-bearing: it is the reserved record id, kept free so
//! that a dense id space's length (`next_id = last id + 1`) always fits a
//! `u32`, which is why `MAX_RECORD_ID == u32::MAX - 1` exists.
//! Code that spells the boundary as a raw literal instead of the named
//! constant silently decouples from that invariant — if the sentinel ever
//! moved, grep would not find the stragglers. The rule fires on `u32::MAX`
//! (the token path) and on any integer literal equal to `0xFFFF_FFFF` when
//! the enclosing statement is record-id- or packing-flavoured.

use crate::engine::{FileTokens, Finding};
use crate::lexer::{int_value, TokenKind};
use crate::rules::is_id_flavoured;

/// Beyond id flavour, these identifiers mark a packing context where the
/// sentinel invariant is live.
fn is_pack_flavoured(ident: &str) -> bool {
    is_id_flavoured(ident)
        || crate::engine::ident_segments(ident)
            .iter()
            .any(|s| matches!(s.as_str(), "pack" | "packed" | "sentinel" | "tombstone"))
}

pub(super) fn check(file: &FileTokens<'_>, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let is_u32_max = token.is_ident("u32") && file.matches_seq(i, &["u32", ":", ":", "MAX"]);
        let is_literal = token.kind == TokenKind::Int && int_value(&token.text) == Some(0xFFFF_FFFF);
        if !(is_u32_max || is_literal) {
            continue;
        }
        let range = file.statement_range(i);
        if !file.range_has_ident(range, is_pack_flavoured) {
            continue;
        }
        findings.push(Finding {
            rule: "raw-sentinel",
            message: format!(
                "raw `{}` in a record-id/packing context — name the boundary via MAX_RECORD_ID so the \
                 reserved-sentinel invariant stays greppable",
                if is_u32_max { "u32::MAX" } else { token.text.as_str() }
            ),
            line: token.line,
            col: token.col,
        });
    }
}
