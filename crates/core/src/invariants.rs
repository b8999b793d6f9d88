//! Runtime invariant checks behind the `check-invariants` cargo feature.
//!
//! `cargo xtask lint` enforces the *source-level* determinism rules (ordered
//! iteration, checked id narrowing, thread confinement — see
//! `docs/LINTS.md`); this module is the dynamic complement: assertions over
//! the actual data structures that no token-level rule can prove. The
//! invariants wired through the blocking and incremental paths are:
//!
//! * **per-batch deltas distinct and pairwise disjoint** — no candidate pair
//!   repeats within one ingest batch's delta, and none is ever reported by
//!   two different batches ([`check_delta_disjoint`]), the property that
//!   makes cumulative delta counts exact;
//! * **seen-sets left clear** — after every insert and removal, the
//!   partner-dedup kernel has cleared every mark it set, and every seen-set
//!   the blocker keeps (one per ingest worker of the last batch) covers the
//!   whole id space ([`check_seen_clear`]), so the next write needs no reset
//!   proportional to the corpus;
//! * **tombstone set ⊆ inserted ids** — the removal bitmap covers exactly
//!   the assigned id range and agrees with the removal counter
//!   ([`check_tombstones`]);
//! * **running counters never go negative** — a removal subtracts at most
//!   what the running Γ/Γ_tp accumulators currently hold, so the `u64`
//!   subtraction can never wrap ([`check_counter_subtraction`]);
//! * **bucket tombstone accounting** — each bucket's dead-member counter
//!   equals the number of its members the tombstone bitmap marks removed,
//!   checked after every removal touch and after every bucket-local
//!   compaction ([`check_bucket_tombstones`]).
//!
//! Every helper compiles to an empty `#[inline]` function unless
//! `sablock_core` is built with `--features check-invariants`, so the hot
//! paths pay nothing in normal builds. CI runs the tier-1 suite once with
//! the feature enabled (`cargo test -q --features
//! sablock_core/check-invariants`).

/// Checks that a freshly built per-batch delta repeats no key and is
/// disjoint from every delta emitted before it, folding the delta's keys
/// into the blocker's lifetime set: each pair is reported exactly once,
/// within a batch and across batches.
#[cfg(feature = "check-invariants")]
pub(crate) fn check_delta_disjoint(
    emitted: &mut std::collections::BTreeSet<u64>,
    delta: &crate::incremental::DeltaPairs,
) {
    for &key in delta.distinct_packed() {
        assert!(
            emitted.insert(key),
            "check-invariants: delta pair {key:#x} was already emitted, earlier in this batch or by an earlier batch",
        );
    }
}

/// Checks every partner-dedup seen-set the blocker keeps, between calls:
/// each covers the assigned id range `0..next_id` and every mark is clear.
#[cfg(feature = "check-invariants")]
pub(crate) fn check_seen_clear<'a>(seen_sets: impl IntoIterator<Item = &'a [bool]>, next_id: u32) {
    for (worker, marks) in seen_sets.into_iter().enumerate() {
        assert!(
            marks.len() >= next_id as usize,
            "check-invariants: seen-set {worker} covers {} ids but {next_id} were assigned",
            marks.len(),
        );
        let marked = marks.iter().filter(|&&mark| mark).count();
        assert!(marked == 0, "check-invariants: {marked} marks left set in seen-set {worker} after a write");
    }
}

/// Checks the tombstone invariants of the incremental blocker: the removal
/// bitmap covers exactly the assigned id range `0..next_id` (so the
/// tombstone set is necessarily a subset of the inserted ids) and the
/// removal counter agrees with the bitmap.
#[cfg(feature = "check-invariants")]
pub(crate) fn check_tombstones(removed: &[bool], removed_count: usize, next_id: u32) {
    assert!(
        removed.len() == next_id as usize,
        "check-invariants: tombstone bitmap covers {} ids but {next_id} were assigned",
        removed.len(),
    );
    let marked = removed.iter().filter(|&&tombstoned| tombstoned).count();
    assert!(
        marked == removed_count,
        "check-invariants: {marked} tombstones in the bitmap but removed_count says {removed_count}",
    );
}

/// Checks that subtracting `subtract` from the running counter `current`
/// cannot underflow — the removal path derives `subtract` by enumerating
/// only pairs that earlier deltas folded *into* the counter, so going
/// negative would mean the back-references and the accumulator disagree.
#[inline]
#[allow(unused_variables)]
pub(crate) fn check_counter_subtraction(current: u64, subtract: u64, context: &str) {
    #[cfg(feature = "check-invariants")]
    assert!(
        subtract <= current,
        "check-invariants: {context}: subtracting {subtract} from {current} would make the running counter negative",
    );
}

/// Checks one bucket's tombstone accounting against the global removal
/// bitmap: the bucket's dead counter must equal the number of its members
/// currently marked removed (0 immediately after a compaction, which purges
/// every dead member).
#[inline]
#[allow(unused_variables)]
pub(crate) fn check_bucket_tombstones(
    members: &[sablock_datasets::RecordId],
    dead: u32,
    removed: &[bool],
    context: &str,
) {
    #[cfg(feature = "check-invariants")]
    {
        let marked = members.iter().filter(|member| removed[member.index()]).count();
        assert!(
            marked == dead as usize,
            "check-invariants: {context}: bucket dead counter says {dead} but {marked} members are tombstoned",
        );
    }
}

// Trip tests: the sanitizer must actually fire on bad data, otherwise a
// cfg/feature plumbing mistake would turn every check into a silent no-op
// and CI's check-invariants step would prove nothing.
#[cfg(all(test, feature = "check-invariants"))]
mod tests {
    use super::*;

    #[test]
    fn accepts_good_state() {
        let mut emitted = std::collections::BTreeSet::new();
        check_seen_clear([&[false, false, false][..]], 3);
        check_seen_clear([&[false, false, false][..], &[false, false][..]], 2);
        check_delta_disjoint(&mut emitted, &crate::incremental::DeltaPairs::empty());
        assert!(emitted.is_empty());
        check_tombstones(&[true, false, true], 2, 3);
        check_counter_subtraction(10, 10, "test");
        check_counter_subtraction(10, 0, "test");
        let ids = [sablock_datasets::RecordId(0), sablock_datasets::RecordId(1)];
        check_bucket_tombstones(&ids, 1, &[true, false], "test");
        check_bucket_tombstones(&ids, 0, &[false, false], "test");
    }

    #[test]
    #[should_panic(expected = "1 marks left set in seen-set 0")]
    fn trips_on_a_dirty_seen_set() {
        check_seen_clear([&[false, true][..]], 2);
    }

    #[test]
    #[should_panic(expected = "seen-set 0 covers 1 ids")]
    fn trips_on_a_seen_set_short_of_the_id_space() {
        check_seen_clear([&[false][..]], 2);
    }

    #[test]
    #[should_panic(expected = "1 marks left set in seen-set 2")]
    fn trips_on_a_dirty_extra_worker_seen_set() {
        check_seen_clear([&[false, false][..], &[false, false][..], &[true, false][..]], 2);
    }

    #[test]
    #[should_panic(expected = "seen-set 1 covers 1 ids")]
    fn trips_on_an_extra_worker_seen_set_short_of_the_id_space() {
        check_seen_clear([&[false, false][..], &[false][..]], 2);
    }

    #[test]
    #[should_panic(expected = "would make the running counter negative")]
    fn trips_on_counter_underflow() {
        check_counter_subtraction(3, 4, "test");
    }

    #[test]
    #[should_panic(expected = "members are tombstoned")]
    fn trips_on_bucket_dead_counter_mismatch() {
        let ids = [sablock_datasets::RecordId(0), sablock_datasets::RecordId(1)];
        check_bucket_tombstones(&ids, 2, &[true, false], "test");
    }

    #[test]
    #[should_panic(expected = "removed_count says")]
    fn trips_on_tombstone_count_mismatch() {
        check_tombstones(&[true, false], 2, 2);
    }
}
