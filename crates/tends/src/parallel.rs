//! Work-stealing parallel execution for the TENDS hot paths.
//!
//! Both parallel hot paths — the pairwise correlation matrix and the
//! per-node parent search — are embarrassingly parallel over an index
//! range, but with *wildly* uneven per-index cost: a hub node's parent
//! search can cost orders of magnitude more than a leaf's, and row `i` of
//! the upper-triangular correlation loop does `n − i − 1` cell
//! computations. Static range splitting therefore leaves threads idle;
//! instead, workers repeatedly claim small chunks from a shared atomic
//! counter ([`WorkQueue`]) until the range is drained.
//!
//! Determinism: [`run_indexed_stats`] requires the work function to be a pure
//! function of its index (plus shared read-only captures). Each claimed
//! chunk's results are kept together and the chunks are concatenated in
//! index order, so the output is identical regardless of thread count or
//! claim interleaving — the property the
//! `parallel_search_matches_sequential` and correlation determinism tests
//! pin down.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a thread-count knob: `0` means "all available cores", and the
/// result is clamped to `[1, work_items]` so tiny workloads don't spawn
/// idle threads.
pub fn resolve_threads(requested: usize, work_items: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, work_items.max(1))
}

/// A shared claim counter over `0..total`: each [`claim`](Self::claim)
/// atomically hands out the next chunk of indices.
pub struct WorkQueue {
    next: AtomicUsize,
    total: usize,
    chunk: usize,
}

impl WorkQueue {
    /// A queue over `0..total` handing out chunks of `chunk` indices.
    pub fn new(total: usize, chunk: usize) -> Self {
        WorkQueue {
            next: AtomicUsize::new(0),
            total,
            chunk: chunk.max(1),
        }
    }

    /// Claims the next chunk, or `None` once the range is drained.
    pub fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(start..(start + self.chunk).min(self.total))
    }
}

/// What one [`run_indexed_stats`] invocation did, per worker.
///
/// Worker order is the spawn order of the pool's threads; which *indices*
/// each worker claimed depends on scheduling, so everything here except
/// sums over all workers is nondeterministic. Observability consumers put
/// per-worker breakdowns in runtime-only report sections and only treat
/// aggregates (e.g. summed workspace counters) as reproducible.
#[derive(Clone, Debug)]
pub struct PoolStats<S> {
    /// Number of workers that ran (1 for the sequential path).
    pub threads: usize,
    /// Chunks each worker claimed from the shared queue.
    pub chunks_per_worker: Vec<u64>,
    /// Each worker's final state, in worker order.
    pub states: Vec<S>,
}

/// Computes `work(state, i)` for every `i` in `0..total` on `threads`
/// workers with work-stealing chunk claiming, returning the results in
/// index order with the pool's [`PoolStats`]: per-worker chunk-claim
/// counts and the workers' final states, so callers can report pool
/// utilization and harvest counters accumulated in the scratch state.
///
/// Each worker owns one `state` built by `init` (scratch space such as a
/// counting workspace); `work` must be deterministic given its index, which
/// makes the output independent of the thread count.
pub fn run_indexed_stats<T, S, I, W>(
    total: usize,
    chunk: usize,
    threads: usize,
    init: I,
    work: W,
) -> (Vec<T>, PoolStats<S>)
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    let threads = resolve_threads(threads, total);
    let chunk = chunk.max(1);
    if threads <= 1 {
        let mut state = init();
        let results = (0..total).map(|i| work(&mut state, i)).collect();
        let stats = PoolStats {
            threads: 1,
            chunks_per_worker: vec![total.div_ceil(chunk) as u64],
            states: vec![state],
        };
        return (results, stats);
    }
    let queue = WorkQueue::new(total, chunk);
    run_claimed(total, threads, init, || queue.claim(), work)
}

/// Runs `threads` workers, each with its own `init()` state, that claim
/// index ranges from `claim` until it returns `None` and compute
/// `work(state, i)` for every index claimed; returns the results in index
/// order with the pool's [`PoolStats`]. `claim` must hand out every index
/// of `0..total` exactly once.
///
/// Each claimed chunk's results are staged as one exactly-sized `Vec<T>`.
/// After the join the chunks are moved, in index order, into the output,
/// and each is freed as soon as it is moved. The heap peak is about twice
/// the results, where per-index `Option<T>` slots beside worker-local
/// `(index, value)` pairs cost about four times for an `f64` result.
fn run_claimed<T, S, I, C, W>(
    total: usize,
    threads: usize,
    init: I,
    claim: C,
    work: W,
) -> (Vec<T>, PoolStats<S>)
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    C: Fn() -> Option<Range<usize>> + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    let mut parts: Vec<(usize, Vec<T>)> = Vec::new();
    let mut chunks_per_worker = Vec::with_capacity(threads);
    let mut states = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    while let Some(range) = claim() {
                        let start = range.start;
                        let mut values = Vec::with_capacity(range.len());
                        values.extend(range.map(|i| work(&mut state, i)));
                        local.push((start, values));
                    }
                    (local, state)
                })
            })
            .collect();
        for worker in workers {
            let (local, state) = worker.join().expect("worker panicked");
            chunks_per_worker.push(local.len() as u64);
            parts.extend(local);
            states.push(state);
        }
    });
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut results = Vec::with_capacity(total);
    for (start, values) in parts {
        debug_assert_eq!(start, results.len(), "claimed chunks tile the range");
        results.extend(values);
    }
    assert_eq!(results.len(), total, "every index claimed once");
    let stats = PoolStats {
        threads,
        chunks_per_worker,
        states,
    };
    (results, stats)
}

/// Splits `0..costs.len()` into at most `target_chunks` contiguous ranges
/// of roughly equal *total cost*, for cost-aware scheduling.
///
/// Uniform chunking serializes on expensive indices: one chunk holding a
/// hub node's parent search (or the dense top-left tiles of the pair
/// triangle) dominates the wall clock while other workers sit idle.
/// Weighting chunk boundaries by a per-index cost estimate keeps every
/// claim roughly the same size in *work*, not in indices.
///
/// Each chunk's quota is `remaining_cost / remaining_chunks`, recomputed as
/// chunks close, so a single huge index early on doesn't starve the tail
/// into one giant chunk. All-zero costs fall back to uniform splitting.
/// The boundaries are a pure function of `costs` and `target_chunks`.
pub fn cost_chunks(costs: &[u64], target_chunks: usize) -> Vec<Range<usize>> {
    let n = costs.len();
    if n == 0 {
        return Vec::new();
    }
    let target_chunks = target_chunks.clamp(1, n);
    let total: u64 = costs.iter().sum();
    if total == 0 {
        let chunk = n.div_ceil(target_chunks);
        return (0..n)
            .step_by(chunk)
            .map(|s| s..(s + chunk).min(n))
            .collect();
    }
    let mut out = Vec::with_capacity(target_chunks);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut remaining = total;
    for (i, &c) in costs.iter().enumerate() {
        acc += c;
        let chunks_left = (target_chunks - out.len()) as u64;
        if chunks_left > 1 && acc >= remaining.div_ceil(chunks_left) {
            out.push(start..i + 1);
            start = i + 1;
            remaining -= acc;
            acc = 0;
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

/// [`run_indexed_stats`]'s cost-aware sibling: computes `work(state, i)`
/// for every `i` in `0..costs.len()`, scheduling cost-balanced chunks
/// instead of fixed-size ones, and returns the results with the pool's
/// [`PoolStats`].
///
/// Chunk boundaries are `cost_chunks(costs, threads × chunks_per_thread)`;
/// several chunks per thread keep the work-stealing slack that absorbs cost
/// *estimate* errors. Chunks are concatenated in index order, so the output
/// is bit-identical at every thread count, exactly like
/// [`run_indexed_stats`].
pub fn run_weighted_stats<T, S, I, W>(
    costs: &[u64],
    chunks_per_thread: usize,
    threads: usize,
    init: I,
    work: W,
) -> (Vec<T>, PoolStats<S>)
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    let total = costs.len();
    let threads = resolve_threads(threads, total);
    let chunks = cost_chunks(costs, threads * chunks_per_thread.max(1));
    if threads <= 1 {
        let mut state = init();
        let results = (0..total).map(|i| work(&mut state, i)).collect();
        let stats = PoolStats {
            threads: 1,
            chunks_per_worker: vec![chunks.len() as u64],
            states: vec![state],
        };
        return (results, stats);
    }
    let next = AtomicUsize::new(0);
    let claim = || chunks.get(next.fetch_add(1, Ordering::Relaxed)).cloned();
    run_claimed(total, threads, init, claim, work)
}

/// [`run_weighted_stats`] over owned parts: index `i`'s work also
/// receives `parts[i]` by value — typically a disjoint `&mut` run of one
/// output buffer — so workers write their results in place instead of
/// returning them for a copy.
pub fn run_weighted_parts<P, T, S, I, W>(
    costs: &[u64],
    parts: Vec<P>,
    chunks_per_thread: usize,
    threads: usize,
    init: I,
    work: W,
) -> (Vec<T>, PoolStats<S>)
where
    P: Send,
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize, P) -> T + Sync,
{
    assert_eq!(parts.len(), costs.len(), "one part per index");
    // Each index is claimed exactly once, so every lock is uncontended.
    let parts: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    run_weighted_stats(costs, chunks_per_thread, threads, init, |state, i| {
        let part = parts[i]
            .lock()
            .expect("no worker panics while holding a part")
            .take()
            .expect("each index runs once");
        work(state, i, part)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn resolve_threads_semantics() {
        assert_eq!(resolve_threads(4, 100), 4);
        assert_eq!(resolve_threads(4, 2), 2);
        assert_eq!(resolve_threads(1, 0), 1);
        assert!(resolve_threads(0, 1_000_000) >= 1);
    }

    #[test]
    fn work_queue_drains_exactly_once() {
        let q = WorkQueue::new(103, 7);
        let mut seen = [false; 103];
        while let Some(r) = q.claim() {
            for i in r {
                assert!(!seen[i], "index {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn run_indexed_is_deterministic_and_ordered() {
        let expect: Vec<u64> = (0..500u64).map(|i| i * i).collect();
        for threads in [1, 2, 4, 0] {
            let inits = AtomicUsize::new(0);
            let got = run_indexed_stats(
                500,
                3,
                threads,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i| (i as u64) * (i as u64),
            )
            .0;
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn run_indexed_empty_range() {
        let got: Vec<u8> = run_indexed_stats(0, 8, 4, || (), |_, _| unreachable!()).0;
        assert!(got.is_empty());
    }

    #[test]
    fn pool_stats_account_for_every_chunk_and_state() {
        for threads in [1usize, 3] {
            let (got, stats) = run_indexed_stats(
                103,
                7,
                threads,
                || 0u64,
                |count, i| {
                    *count += 1;
                    i
                },
            );
            assert_eq!(got, (0..103).collect::<Vec<_>>());
            assert_eq!(stats.threads, threads);
            assert_eq!(stats.chunks_per_worker.len(), threads);
            assert_eq!(stats.states.len(), threads);
            // Every chunk claim and every index lands on exactly one worker.
            assert_eq!(
                stats.chunks_per_worker.iter().sum::<u64>(),
                103u64.div_ceil(7)
            );
            assert_eq!(stats.states.iter().sum::<u64>(), 103);
        }
    }

    #[test]
    fn cost_chunks_cover_range_exactly_once() {
        let cases: &[(&[u64], usize)] = &[
            (&[1, 1, 1, 1, 1], 2),
            (&[100, 1, 1, 1, 1, 1, 1, 1], 4),
            (&[0, 0, 0, 0], 3),
            (&[5], 8),
            (&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 4),
            (&[0, 0, 100, 0, 0], 2),
        ];
        for &(costs, target) in cases {
            let chunks = cost_chunks(costs, target);
            assert!(chunks.len() <= target.max(1), "{costs:?} target {target}");
            let mut next = 0usize;
            for r in &chunks {
                assert_eq!(r.start, next, "gap in {chunks:?}");
                assert!(r.end > r.start, "empty chunk in {chunks:?}");
                next = r.end;
            }
            assert_eq!(next, costs.len(), "range not covered: {chunks:?}");
        }
        assert!(cost_chunks(&[], 4).is_empty());
    }

    #[test]
    fn cost_chunks_balance_uneven_costs() {
        // One hub (cost 90) among 9 leaves (cost 1 each), 3 chunks: the
        // hub must not drag half the leaves into its chunk.
        let costs = [90u64, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        let chunks = cost_chunks(&costs, 3);
        assert_eq!(chunks[0], 0..1, "hub isolated in its own chunk");
        // Remaining leaves split roughly evenly.
        for r in &chunks[1..] {
            let w: u64 = costs[r.start..r.end].iter().sum();
            assert!(w <= 5, "tail chunk {r:?} carries {w}");
        }
    }

    #[test]
    fn run_weighted_is_deterministic_and_ordered() {
        let costs: Vec<u64> = (0..200u64).map(|i| i * i).collect();
        let expect: Vec<u64> = (0..200u64).map(|i| i + 7).collect();
        for threads in [1usize, 2, 4, 0] {
            let got = run_weighted_stats(&costs, 4, threads, || (), |_, i| i as u64 + 7).0;
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn run_weighted_stats_account_for_chunks_and_states() {
        let costs = vec![1u64; 50];
        for threads in [1usize, 3] {
            let (got, stats) = run_weighted_stats(
                &costs,
                2,
                threads,
                || 0u64,
                |count, i| {
                    *count += 1;
                    i
                },
            );
            assert_eq!(got, (0..50).collect::<Vec<_>>());
            assert_eq!(stats.threads, threads);
            assert_eq!(stats.chunks_per_worker.len(), threads);
            assert_eq!(stats.states.iter().sum::<u64>(), 50);
            let expected_chunks = cost_chunks(&costs, threads * 2).len() as u64;
            assert_eq!(stats.chunks_per_worker.iter().sum::<u64>(), expected_chunks);
        }
    }

    #[test]
    fn run_weighted_empty_range() {
        let got: Vec<u8> = run_weighted_stats(&[], 4, 4, || (), |_, _| unreachable!()).0;
        assert!(got.is_empty());
    }

    #[test]
    fn per_worker_state_is_reused_within_a_worker() {
        // Sequential path: one state, mutated across all indices.
        let got = run_indexed_stats(
            5,
            1,
            1,
            || 0usize,
            |acc, _| {
                *acc += 1;
                *acc
            },
        )
        .0;
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }
}
