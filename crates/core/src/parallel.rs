//! Parallel computation helpers and the workspace's one worker-count seam.
//!
//! [`parallel_map`] splits a slice across scoped worker threads
//! (`std::thread::scope`, so no `'static` bound on the items) and stitches
//! the results back in order; [`parallel_map_mut`] is its in-place twin.
//! Six hot paths ride on them:
//!
//! * **signatures** — shingling + minhashing is embarrassingly parallel per
//!   record, and with `k · l` often in the hundreds it dominates small-scale
//!   blocking time;
//! * **banding/buckets** — each of the `l` bands builds an independent
//!   bucket index, so the bucket phase shards per band and merges the
//!   per-band block lists back in ascending band order;
//! * **pair counting** — the streaming counter
//!   `BlockCollection::stream_packed_counts` cuts the anchor records into one
//!   contiguous range of equal redundant-pair mass per worker, each running
//!   the partner-dedup kernel with its own seen-set, and sums the counts;
//! * **baseline bucket construction** — the suffix-array, q-gram,
//!   sorted-neighbourhood, canopy and string-map baselines index record
//!   chunks in parallel and merge the per-chunk results back in chunk order;
//! * **meta-blocking graph build** — `BlockingGraph::build` enumerates
//!   `(pair, block)` entries per 256-block chunk in parallel before one
//!   sorted merge;
//! * **incremental ingest** — a batch's signatures go through
//!   [`parallel_map`], each band's bucket map is updated by its own worker
//!   through [`parallel_map_mut`], outcomes stitched in band order, and the
//!   batch's delta anchors are split evenly over [`parallel_map_mut`] workers,
//!   each walking with a seen-set and key buffer the blocker keeps from batch
//!   to batch, their keys concatenated in anchor order.
//!
//! Every path sizes itself on the calling thread, through
//! [`resolve_threads`] (parallel from [`PARALLEL_THRESHOLD`] records up) or
//! [`default_threads`]. [`with_threads`] pins the count for one scope, which
//! is how tests compare 1 and 4 workers. Everything stays deterministic
//! because each output depends only on its own input and results are always
//! stitched in input order.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Applies `f` to every element of `items`, in parallel, preserving order.
///
/// With one worker (or a small input) this degrades to a plain sequential
/// map, so results are identical regardless of thread count.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() < 2 {
        return items.iter().map(&f).collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    let results: Vec<Vec<U>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(|| chunk.iter().map(&f).collect::<Vec<U>>()))
            .collect();
        // sablock-lint: allow(panic-reachability): join only re-raises a panic that already happened on the worker; it introduces no new failure
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });
    results.into_iter().flatten().collect()
}

/// Applies `f` to every element of `items` **in place**, in parallel,
/// returning the per-element results in input order.
///
/// The mutable counterpart of [`parallel_map`], for stages that own a
/// disjoint shard per element — e.g. the incremental blocker's per-band
/// bucket maps, where each worker mutates only its own band's index. As
/// with [`parallel_map`], one worker (or a tiny input) degrades to a plain
/// sequential pass, so results and final element states are identical
/// regardless of thread count.
pub fn parallel_map_mut<T, U, F>(items: &mut [T], threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(&mut T) -> U + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() < 2 {
        return items.iter_mut().map(&f).collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    let results: Vec<Vec<U>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk_size)
            .map(|chunk| scope.spawn(|| chunk.iter_mut().map(&f).collect::<Vec<U>>()))
            .collect();
        // sablock-lint: allow(panic-reachability): join only re-raises a panic that already happened on the worker; it introduces no new failure
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });
    results.into_iter().flatten().collect()
}

/// Runs every task on its own scoped worker thread and returns their results
/// in task order, after all of them finish.
///
/// The fork-join primitive for heterogeneous concurrent workloads — e.g. a
/// service test driving one writer task against N reader tasks. Unlike
/// [`parallel_map`], each task is a distinct closure (no shared element
/// type), and every task always gets its own thread: this is about
/// *concurrency* between different roles, not data-parallel speedup. Scoped
/// threads mean the closures may borrow from the caller's stack.
///
/// All thread use in the workspace is confined to this module
/// (`cargo xtask lint`, rule `thread-confinement`), so concurrent tests and
/// services build on this helper instead of spawning threads themselves.
pub fn join_all<R, F>(tasks: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks.into_iter().map(|task| scope.spawn(task)).collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    })
}

/// Suspends the current worker for `duration`.
///
/// The workspace's only sanctioned sleep: backoff loops (e.g. the serve
/// client's retry-with-exponential-backoff) and test choreography route
/// through here so `std::thread` stays confined to this module
/// (`thread-confinement` lint).
pub fn sleep(duration: Duration) {
    std::thread::sleep(duration);
}

/// The interior of a [`JobQueue`]: pending items plus the closed flag.
#[derive(Debug)]
struct JobQueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer job queue (mutex + condvars).
///
/// The hand-off primitive behind [`worker_pool`]: producers [`JobQueue::push`]
/// (blocking while full — natural backpressure) or [`JobQueue::try_push`]
/// (failing while full — the admission-control probe an overload-shedding
/// front-end needs), consumers [`JobQueue::pop`] until the queue is closed
/// *and* drained. Closing wakes every waiter, so shutdown never hangs.
#[derive(Debug)]
pub struct JobQueue<T> {
    state: Mutex<JobQueueState<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> JobQueue<T> {
    /// A queue holding at most `capacity` pending items (clamped to ≥ 1).
    pub fn bounded(capacity: usize) -> Self {
        Self {
            state: Mutex::new(JobQueueState { items: VecDeque::new(), closed: false }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues an item, blocking while the queue is full. Returns the item
    /// back when the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Enqueues an item only if there is room right now. Returns the item
    /// back when the queue is full or closed — the caller decides whether to
    /// shed, retry, or block.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the next item, blocking while the queue is empty. Returns
    /// `None` once the queue is closed *and* drained — the worker's signal
    /// to exit.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// blocked waiters wake immediately.
    pub fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of items currently queued (a racy snapshot, for stats only).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).items.len()
    }

    /// Whether the queue currently holds no items (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs a producer/consumer pool over a bounded [`JobQueue`]: `workers`
/// scoped threads each loop `pop → consume`, while `producer` runs on the
/// calling thread feeding the queue. When the producer returns, the queue is
/// closed, the workers drain what is left and exit, and the producer's
/// result is returned.
///
/// This is the long-lived sibling of [`join_all`] — the shape a concurrent
/// connection front-end needs (one accept loop fanning sessions out to a
/// bounded set of workers) while keeping every `std::thread` in this module.
/// The queue bound (`capacity`, clamped to ≥ 1) is the admission-control
/// knob: a producer that uses [`JobQueue::try_push`] sees "full" immediately
/// and can shed load instead of accepting work it cannot serve.
pub fn worker_pool<T, R, P, C>(workers: usize, capacity: usize, producer: P, consumer: C) -> R
where
    T: Send,
    R: Send,
    P: FnOnce(&JobQueue<T>) -> R + Send,
    C: Fn(T) + Sync,
{
    let queue = JobQueue::bounded(capacity);
    let queue_ref = &queue;
    let consumer_ref = &consumer;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(move || {
                    while let Some(job) = queue_ref.pop() {
                        consumer_ref(job);
                    }
                })
            })
            .collect();
        let result = producer(queue_ref);
        queue_ref.close();
        for handle in handles {
            // sablock-lint: allow(panic-reachability): join only re-raises a panic that already happened on the worker; it introduces no new failure
            handle.join().expect("worker thread panicked");
        }
        result
    })
}

/// Workloads over at least this many records engage parallel execution when
/// no worker count is pinned (below it, thread spawn overhead outweighs the
/// win). Shared by the SA-LSH blocker and the parallel baselines so they all
/// flip to parallel at the same input size.
pub const PARALLEL_THRESHOLD: usize = 2_000;

thread_local! {
    /// The worker count [`with_threads`] pinned on this thread, if any.
    static PINNED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with the worker count pinned to `threads` (clamped to ≥ 1):
/// every [`resolve_threads`] and [`default_threads`] call `f` makes on this
/// thread returns the pin, whatever the input size. The previous pin (or
/// none) comes back when `f` returns or unwinds, so pins nest.
///
/// The pin is thread-local: workers that `f` starts do not see it, which is
/// why every parallel path resolves its count on the calling thread and
/// passes it down. Output never depends on the count (pinned in
/// `tests/determinism.rs`); the seam exists so tests can compare 1 and 4
/// workers, also on inputs below [`PARALLEL_THRESHOLD`].
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    /// Puts the outer pin back on drop, so a panic in `f` cannot leak it.
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED_THREADS.with(|pinned| pinned.set(self.0));
        }
    }
    let _restore = Restore(PINNED_THREADS.with(|pinned| pinned.replace(Some(threads.max(1)))));
    f()
}

/// Resolves the worker count for a workload of `num_records` records: a
/// [`with_threads`] pin always wins; otherwise inputs of at least
/// [`PARALLEL_THRESHOLD`] records use [`default_threads`] and smaller ones
/// stay sequential.
pub fn resolve_threads(num_records: usize) -> usize {
    match PINNED_THREADS.with(Cell::get) {
        Some(threads) => threads,
        None if num_records >= PARALLEL_THRESHOLD => default_threads(),
        None => 1,
    }
}

/// The [`with_threads`] pin if one is active; otherwise the machine's
/// available parallelism, capped at 8 (signature computation saturates
/// memory bandwidth well before it saturates larger core counts).
pub fn default_threads() -> usize {
    PINNED_THREADS.with(Cell::get).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .min(8)
    })
}

/// Merges two sorted runs into one, *keeping* duplicates and taking from the
/// left run on ties — so concatenating runs produced from ascending input
/// chunks preserves the sequential total order exactly.
pub fn merge_two_sorted<T: Ord>(a: Vec<T>, b: Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.into_iter().peekable();
    let mut ib = b.into_iter().peekable();
    while let (Some(x), Some(y)) = (ia.peek(), ib.peek()) {
        if x <= y {
            out.push(ia.next().expect("peeked"));
        } else {
            out.push(ib.next().expect("peeked"));
        }
    }
    out.extend(ia);
    out.extend(ib);
    out
}

/// Combines sorted runs (e.g. the per-chunk outputs of a [`parallel_map`])
/// into one sorted vector by a balanced binary merge: ⌈log₂ runs⌉ passes,
/// each element moved once per pass, duplicates kept, ties taken from the
/// earlier run. The shape every chunk-then-merge construction in the
/// workspace shares.
pub fn merge_sorted_runs<T: Ord>(mut runs: Vec<Vec<T>>) -> Vec<T> {
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge_two_sorted(a, b)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let got = parallel_map(&items, threads, |x| x * x + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_mut_matches_sequential_and_mutates_in_place() {
        let expected_items: Vec<u64> = (0..500).map(|x| x + 1).collect();
        let expected_results: Vec<u64> = (0..500u64).collect();
        for threads in [1, 2, 4, 8] {
            let mut items: Vec<u64> = (0..500).collect();
            let results = parallel_map_mut(&mut items, threads, |x| {
                let before = *x;
                *x += 1;
                before
            });
            assert_eq!(items, expected_items, "threads = {threads}");
            assert_eq!(results, expected_results, "threads = {threads}");
        }
        let mut empty: Vec<u64> = vec![];
        assert!(parallel_map_mut(&mut empty, 4, |x| *x).is_empty());
        let mut one = vec![9u64];
        assert_eq!(parallel_map_mut(&mut one, 4, |x| *x * 2), vec![18]);
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |x| *x).is_empty());
        assert_eq!(parallel_map(&[42u32], 4, |x| x + 1), vec![43]);
    }

    #[test]
    fn zero_threads_degrades_to_one() {
        let items = vec![1, 2, 3];
        assert_eq!(parallel_map(&items, 0, |x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn borrows_non_static_data() {
        // The whole point of scoped threads: closures may borrow locals.
        let offset = 7u64;
        let items: Vec<u64> = (0..100).collect();
        let got = parallel_map(&items, 4, |x| x + offset);
        assert_eq!(got[0], 7);
        assert_eq!(got[99], 106);
    }

    #[test]
    fn default_threads_is_positive_and_capped() {
        let t = default_threads();
        assert!((1..=8).contains(&t));
    }

    #[test]
    fn with_threads_pins_the_count_for_its_scope_only() {
        // The pin beats the size threshold, and `default_threads` returns it.
        assert_eq!(resolve_threads(10), 1);
        assert_eq!(with_threads(4, || resolve_threads(10)), 4);
        assert_eq!(with_threads(3, default_threads), 3);
        // A nested pin restores the outer one when it ends.
        with_threads(2, || {
            assert_eq!(with_threads(5, || resolve_threads(10)), 5);
            assert_eq!(resolve_threads(10), 2);
        });
        assert_eq!(resolve_threads(10), 1);
        // Zero clamps to one.
        assert_eq!(with_threads(0, || resolve_threads(PARALLEL_THRESHOLD)), 1);
        // Workers do not inherit the pin: it is thread-local.
        assert_eq!(with_threads(4, || join_all(vec![|| resolve_threads(10)])), vec![1]);
        // The pin is restored when the closure unwinds.
        let unwound = std::panic::catch_unwind(|| with_threads(4, || panic!("pinned closure panics")));
        assert!(unwound.is_err());
        assert_eq!(resolve_threads(10), 1);
    }

    #[test]
    fn join_all_runs_every_task_and_preserves_order() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let counter = AtomicU64::new(0);
        let tasks: Vec<_> = (0..6u64)
            .map(|i| {
                let counter = &counter;
                move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    i * 10
                }
            })
            .collect();
        let results = join_all(tasks);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(counter.load(Ordering::Relaxed), 6);
        assert!(join_all(Vec::<fn() -> u8>::new()).is_empty());
    }

    #[test]
    fn job_queue_hand_off_and_close_semantics() {
        let queue: JobQueue<u32> = JobQueue::bounded(2);
        assert!(queue.is_empty());
        queue.push(1).unwrap();
        queue.push(2).unwrap();
        assert_eq!(queue.len(), 2);
        // Full: try_push hands the item back instead of blocking.
        assert_eq!(queue.try_push(3), Err(3));
        assert_eq!(queue.pop(), Some(1));
        queue.try_push(3).unwrap();
        queue.close();
        // Closed: pushes fail, pending items still drain, then None.
        assert_eq!(queue.push(9), Err(9));
        assert_eq!(queue.try_push(9), Err(9));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None, "a drained closed queue stays drained");
        // A zero capacity clamps to one.
        let tiny: JobQueue<u8> = JobQueue::bounded(0);
        tiny.push(7).unwrap();
        assert_eq!(tiny.try_push(8), Err(8));
    }

    #[test]
    fn worker_pool_consumes_every_item_and_returns_the_producer_result() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = AtomicU64::new(0);
        for workers in [1usize, 3] {
            sum.store(0, Ordering::Relaxed);
            let produced = worker_pool(
                workers,
                2,
                |queue: &JobQueue<u64>| {
                    for value in 1..=50u64 {
                        queue.push(value).map_err(|_| ()).expect("queue open while producing");
                    }
                    "done"
                },
                |value| {
                    sum.fetch_add(value, Ordering::Relaxed);
                },
            );
            assert_eq!(produced, "done");
            assert_eq!(sum.load(Ordering::Relaxed), 50 * 51 / 2, "workers = {workers}");
        }
    }

    #[test]
    fn sleep_returns_after_the_requested_pause() {
        let start = std::time::Instant::now();
        sleep(Duration::from_millis(5));
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn merge_sorted_runs_keeps_duplicates_and_sorts() {
        let runs = vec![vec![1u32, 3, 3, 9], vec![2, 3], vec![], vec![0, 3, 9]];
        let expected = {
            let mut all: Vec<u32> = runs.iter().flatten().copied().collect();
            all.sort_unstable();
            all
        };
        assert_eq!(merge_sorted_runs(runs), expected);
        assert!(merge_sorted_runs::<u32>(vec![]).is_empty());
        assert_eq!(merge_sorted_runs(vec![vec![7u32, 9]]), vec![7, 9]);
        assert_eq!(merge_two_sorted(vec![1u32, 4], vec![2, 4]), vec![1, 2, 4, 4]);
    }
}
