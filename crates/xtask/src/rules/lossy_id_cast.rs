//! `lossy-id-cast`: `as u32` / `as u64` casts in record-id-flavoured
//! statements.
//!
//! The PR-5 hazard this guards: a record index silently truncated by `as
//! u32` wraps to the wrong record, or lands on the reserved `u32::MAX` id
//! whose successor does not fit the id space, without any error. Checked
//! conversions ([`RecordId::try_from_index`], `u32::try_from`) surface the
//! overflow as a typed error instead. `as u64`
//! is included because widening an id and then re-narrowing elsewhere is the
//! same bug split across two lines — id flow should stay in checked or
//! `From`-based conversions throughout.
//!
//! The heuristic: the cast's enclosing statement must mention a
//! record-id-flavoured identifier (`RecordId`, `EntityId`, `ConceptId`,
//! `MAX_RECORD_ID`, or any identifier with an `id`/`record` word segment).
//! Statements casting lengths, hashes or histogram digits stay silent.

use crate::engine::{FileTokens, Finding};
use crate::rules::is_id_flavoured;

pub(super) fn check(file: &FileTokens<'_>, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if file.in_test[i] {
            continue;
        }
        if !tokens[i].is_ident("as") {
            continue;
        }
        let Some(target) = tokens.get(i + 1) else { continue };
        if !(target.is_ident("u32") || target.is_ident("u64")) {
            continue;
        }
        // `u64::from(x)` / `u32::try_from(x)` never lex as `as`; reaching
        // here means a genuine `as` cast. Fire only in id-flavoured context.
        let range = file.statement_range(i);
        if !file.range_has_ident(range, is_id_flavoured) {
            continue;
        }
        findings.push(Finding {
            rule: "lossy-id-cast",
            message: format!(
                "`as {}` on a record-id-flavoured expression — a silent truncation here can land on the \
                 reserved u32::MAX id (use RecordId::try_from_index / try_from / From)",
                target.text
            ),
            line: tokens[i].line,
            col: tokens[i].col,
        });
    }
}
