//! Out-of-core streamed IMI: bounded sparse candidate accumulation and
//! node-range sharding, without the dense `n × n` correlation matrix.
//!
//! The dense pipeline materializes [`crate::CorrelationMatrix`] — the
//! upper triangle, `4·n²` bytes, 40 GB at `n = 100,000` — even though
//! everything downstream of the τ threshold only ever consumes per-node
//! candidate *sets* of at most `max_candidates` entries. This module replaces the matrix with
//! three memory-bounded pieces:
//!
//! 1. **τ from a deterministic systematic pair sample** ([`sample_tau`]):
//!    every `stride`-th pair of the canonical upper-triangle rank order is
//!    scored with the per-pair [`NodeColumns::pair_counts`] oracle (bit-
//!    identical to the tiled SIMD kernel) and fed to the same pinned
//!    2-means as the dense path. The sample cap is a pure function of the
//!    pair count and the memory budget — never the thread count, SIMD
//!    tier, or shard — so every streamed run at one budget computes the
//!    same τ, and small inputs (`stride == 1`) reproduce the dense τ
//!    bit-for-bit.
//! 2. **A bounded sparse accumulator** ([`SparseCandidates`]): tile
//!    outputs fold straight into per-node top-`k` lists of above-τ
//!    partners, ordered exactly like the dense candidate lists of
//!    [`crate::BucketIndex::candidate_lists`] (value descending, node id
//!    ascending tie-break). Top-k selection is a
//!    semilattice — `topk(topk(A) ∪ topk(B)) = topk(A ∪ B)` — so
//!    per-worker partial accumulators merge to the same result regardless
//!    of how tiles were scheduled, keeping candidates thread- and
//!    tile-invariant. Every above-τ sighting is counted, so truncation is
//!    reported (`candidate_evictions`), never silent.
//! 3. **Node-range shards** ([`Shard`], [`plan_shards`]): a shard owns a
//!    contiguous node range and folds only the tile blocks that touch it,
//!    bounding accumulator memory to the shard's nodes. Shards of one
//!    logical reconstruction merge by edge union — each child node's
//!    parents are computed by exactly one shard.
//!
//! The tile fold builds its blocks with the one upper-triangle tile
//! schedule (`imi::tile_schedule`) that
//! [`crate::CorrelationMatrix::compute_observed`] and
//! [`crate::PairStats::append`] also use — same
//! [`NodeColumns::pair_tile_size`] tiles, same exact-pair-count claim
//! weights, same emission order — so the streamed path inherits the dense
//! path's SIMD kernel and its bit-identity guarantees; the dense path
//! stays available as the equivalence oracle.

use crate::imi::{tile_schedule, CorrelationMeasure, Log2Table, MiCells};
use crate::kmeans::{pinned_two_means, PinnedKmeans};
use crate::parallel;
use diffnet_graph::NodeId;
use diffnet_simulate::NodeColumns;
use std::cmp::Ordering;
use std::ops::Range;

/// A contiguous node range `start..end` owned by one worker or job of a
/// sharded reconstruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Shard {
    /// First node id in the shard (inclusive).
    pub start: NodeId,
    /// One past the last node id in the shard (exclusive).
    pub end: NodeId,
}

impl Shard {
    /// The full-range shard `0..n` — an unsharded streamed run.
    pub fn full(n: usize) -> Shard {
        Shard {
            start: 0,
            end: n as NodeId,
        }
    }

    /// Number of nodes in the shard.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the shard holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Whether node `i` belongs to this shard.
    #[inline]
    pub fn contains(&self, i: NodeId) -> bool {
        self.start <= i && i < self.end
    }

    fn touches(&self, r: &Range<usize>) -> bool {
        r.start < self.end as usize && r.end > self.start as usize
    }
}

/// Splits `0..n` into `count` contiguous node-range shards via the same
/// [`parallel::cost_chunks`] planner the worker pools use.
///
/// Per-node candidate work is uniform (every node meets exactly `n − 1`
/// pairs), so the costs are uniform and the planner degenerates to an
/// even split — but going through `cost_chunks` keeps the shard map a
/// pure function shared with the scheduler, and leaves one seam to plug
/// in a smarter cost model. Deterministic; trailing shards may be empty
/// when `count > n`.
pub fn plan_shards(n: usize, count: usize) -> Vec<Shard> {
    let costs = vec![1u64; n];
    parallel::cost_chunks(&costs, count.max(1))
        .into_iter()
        .map(|r| Shard {
            start: r.start as NodeId,
            end: r.end as NodeId,
        })
        .collect()
}

/// The candidate order of the fold and of the dense candidate lists: value
/// descending, node id ascending on ties. A total order (via `total_cmp`,
/// so a NaN smuggled into a matrix cannot panic the comparator), which is
/// what makes bounded top-k selection exact and merge-order-independent.
fn rank(a: &(f64, NodeId), b: &(f64, NodeId)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// The ids of the top `max` entries of `list`, in [`rank`] order.
pub(crate) fn top_ids(mut list: Vec<(f64, NodeId)>, max: usize) -> Vec<NodeId> {
    prune(&mut list, max);
    list.sort_unstable_by(rank);
    list.into_iter().map(|(_, id)| id).collect()
}

/// Keeps the top `max` entries of `list` under [`rank`].
fn prune(list: &mut Vec<(f64, NodeId)>, max: usize) {
    if list.len() > max {
        if max == 0 {
            list.clear();
        } else {
            list.select_nth_unstable_by(max, rank);
            list.truncate(max);
        }
    }
}

/// Bounded per-node candidate lists for one node-range shard: the
/// streamed replacement for the dense correlation matrix.
///
/// Holds, per shard node, at most `2·max_candidates + 16` `(value,
/// partner)` entries at any time (amortized pruning), plus one above-τ
/// sighting counter. Inserts must already be above τ — thresholding
/// happens at the tile fold so sub-τ pairs never allocate anything.
#[derive(Clone, Debug)]
pub struct SparseCandidates {
    shard: Shard,
    max_candidates: usize,
    entries: Vec<Vec<(f64, NodeId)>>,
    above_tau_seen: Vec<u64>,
}

impl SparseCandidates {
    /// An empty accumulator for `shard`, keeping at most `max_candidates`
    /// partners per node.
    pub fn new(shard: Shard, max_candidates: usize) -> SparseCandidates {
        let len = shard.len();
        SparseCandidates {
            shard,
            max_candidates,
            entries: vec![Vec::new(); len],
            above_tau_seen: vec![0; len],
        }
    }

    /// Records that `node` saw above-τ correlation `value` with
    /// `partner`. Callers guarantee `value > τ` and
    /// `shard.contains(node)`.
    #[inline]
    pub fn insert(&mut self, node: NodeId, value: f64, partner: NodeId) {
        debug_assert!(self.shard.contains(node));
        let slot = (node - self.shard.start) as usize;
        self.above_tau_seen[slot] += 1;
        if self.max_candidates == 0 {
            return;
        }
        let list = &mut self.entries[slot];
        list.push((value, partner));
        // Amortized bound: prune back to max once the list doubles, so
        // each node's list stays O(max_candidates) no matter how many
        // above-τ partners stream past.
        if list.len() >= 2 * self.max_candidates + 16 {
            prune(list, self.max_candidates);
        }
    }

    /// Folds another partial accumulator (same shard, same bound) into
    /// this one. Top-k of a union is grouping-independent, so any merge
    /// tree yields the same lists.
    pub fn merge(&mut self, other: SparseCandidates) {
        assert_eq!(self.shard, other.shard, "accumulator shard mismatch");
        assert_eq!(self.max_candidates, other.max_candidates);
        for (slot, (mut list, seen)) in other
            .entries
            .into_iter()
            .zip(other.above_tau_seen)
            .enumerate()
        {
            self.above_tau_seen[slot] += seen;
            let dst = &mut self.entries[slot];
            dst.append(&mut list);
            prune(dst, self.max_candidates);
        }
    }

    /// Finalizes into per-node candidate id lists (indexed by
    /// `node − shard.start`), sorted exactly like the dense lists,
    /// plus the total number of above-τ candidates evicted by the top-k
    /// bound — the count that must be surfaced, not silently dropped.
    pub fn finish(self) -> (Vec<Vec<NodeId>>, u64) {
        let mut evictions = 0u64;
        let lists = self
            .entries
            .into_iter()
            .zip(self.above_tau_seen)
            .map(|(list, seen)| {
                let ids = top_ids(list, self.max_candidates);
                evictions += seen - ids.len() as u64;
                ids
            })
            .collect();
        (lists, evictions)
    }
}

/// Outcome of [`sample_tau`]: the pinned 2-means fit over the systematic
/// pair sample, plus the sample geometry for run reports.
#[derive(Clone, Debug)]
pub struct TauSample {
    /// The 2-means fit (τ = `kmeans.tau`, before any threshold scaling).
    pub kmeans: PinnedKmeans,
    /// Pairs actually scored.
    pub sampled_pairs: u64,
    /// Rank stride between sampled pairs (1 ⇒ exhaustive ⇒ τ is
    /// bit-identical to the dense path).
    pub stride: u64,
    /// Total pairs in the upper triangle.
    pub total_pairs: u64,
}

/// Sample cap for τ estimation: a pure function of the pair count and
/// the memory budget ONLY. Folding in threads, SIMD tier, or shard
/// geometry here would make τ — and therefore every downstream candidate
/// set — depend on them, breaking the bit-identity contract. Sharded and
/// unsharded runs must be given the same budget to agree on τ.
pub fn tau_sample_cap(total_pairs: u64, memory_budget: Option<u64>) -> u64 {
    const MIN_CAP: u64 = 1 << 16;
    const MAX_CAP: u64 = 1 << 21;
    // ~128 budget bytes per sampled pair: the sample and the 2-means over
    // it take at most ~24 (see `tau_sample_bytes`), which leaves most of
    // the budget to the columns and the candidate accumulators.
    let cap = (memory_budget.unwrap_or(u64::MAX) / 128).clamp(MIN_CAP, MAX_CAP);
    cap.min(total_pairs).max(1)
}

/// Peak heap bytes of the τ sample step at the cap [`tau_sample_cap`]
/// picks: the sampled values (8 bytes each) plus what [`pinned_two_means`]
/// allocates over them: an 8-byte index key and an 8-byte suffix-sum slot
/// per value, and the bucket bounds.
pub fn tau_sample_bytes(total_pairs: u64, memory_budget: Option<u64>) -> u64 {
    let cap = tau_sample_cap(total_pairs, memory_budget);
    8 * cap + crate::kmeans::two_means_heap_bytes(cap as usize)
}

/// Rank of pair `(i, j)`, `i < j`, in row-major upper-triangle order:
/// `base(i) = i·(n−1) − i·(i−1)/2 = i·(2n − i − 1)/2` pairs precede
/// row `i` (the factored form never underflows at `i = 0`).
fn rank_base(i: u64, n: u64) -> u64 {
    i * (2 * n - i - 1) / 2
}

/// Inverts a canonical upper-triangle rank back to its pair `(i, j)`.
fn pair_at(rank: u64, n: u64) -> (NodeId, NodeId) {
    debug_assert!(n >= 2 && rank < n * (n - 1) / 2);
    // Largest i with base(i) <= rank; base is strictly increasing on
    // 0..n-1 and base(n-1) is the total pair count.
    let (mut lo, mut hi) = (0u64, n - 1);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if rank_base(mid, n) <= rank {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let i = lo;
    let j = i + 1 + (rank - rank_base(i, n));
    (i as NodeId, j as NodeId)
}

/// Estimates τ from a deterministic systematic sample of the pair
/// population: every `stride`-th pair of the canonical rank order, scored
/// with the per-pair oracle kernel and fed to the same
/// [`pinned_two_means`] as the dense path.
///
/// Positional sampling (not reservoir) keeps the sampled multiset a pure
/// function of `(n, budget)`: the 2-means orders the values itself, so
/// the same multiset yields the same τ bits at every thread count, SIMD
/// tier, and shard. When the cap covers all pairs (`stride == 1`, any
/// small n) the sample IS the dense upper triangle and τ matches the dense path
/// bit-for-bit.
pub fn sample_tau(
    cols: &NodeColumns,
    measure: CorrelationMeasure,
    memory_budget: Option<u64>,
    threads: usize,
) -> TauSample {
    let n = cols.num_nodes() as u64;
    let total = n * n.saturating_sub(1) / 2;
    let cap = tau_sample_cap(total, memory_budget);
    // At least 1, so an input without pairs samples nothing.
    let stride = total.div_ceil(cap).max(1);
    let count = total.div_ceil(stride);
    let lut = Log2Table::new(cols.num_processes() as u64);
    let values = parallel::run_indexed(
        count as usize,
        4096,
        threads,
        || (),
        |(), s| {
            let (i, j) = pair_at(s as u64 * stride, n);
            measure.value(&MiCells::from_counts_with(&cols.pair_counts(i, j), &lut))
        },
    );
    TauSample {
        kmeans: pinned_two_means(&values),
        sampled_pairs: count,
        stride,
        total_pairs: total,
    }
}

/// Outcome of [`fold_candidates`].
#[derive(Clone, Debug)]
pub struct FoldOutcome {
    /// Per-node candidate parent lists, indexed by `node − shard.start`,
    /// in the dense lists' order (value descending, id ascending).
    pub candidates: Vec<Vec<NodeId>>,
    /// Pairs above τ with at least one endpoint in the shard (equals the
    /// dense path's global count when the shard is `0..n`).
    pub pairs_above_tau: u64,
    /// Above-τ candidates evicted by the top-k bound.
    pub candidate_evictions: u64,
    /// Tile blocks scanned by this shard.
    pub tiles: u64,
    /// Pairs scanned across those blocks.
    pub scanned_pairs: u64,
    /// Chunk claims per pool worker (runtime diagnostics only).
    pub chunks_per_worker: Vec<u64>,
}

/// Streams the upper triangle tile-by-tile through the SIMD pair kernel
/// and folds every above-τ pair straight into bounded per-node candidate
/// lists for `shard` — the dense matrix never exists.
///
/// Uses the tile schedule of
/// [`crate::CorrelationMatrix::compute_observed`] (same tile size, same
/// exact-pair-count claim weights), restricted to blocks whose row or
/// column range touches the shard; every pair is scored by the same
/// kernel in the same order, so for the full shard the surviving
/// candidate sets are bit-identical to thresholding the dense matrix.
/// Each pool worker folds into its own partial [`SparseCandidates`]
/// (memory: `threads · shard.len() · O(max_candidates)` entries), merged
/// after the scan — deterministic because bounded top-k is
/// grouping-independent.
pub fn fold_candidates(
    cols: &NodeColumns,
    measure: CorrelationMeasure,
    tau: f64,
    max_candidates: usize,
    shard: Shard,
    threads: usize,
) -> FoldOutcome {
    let n = cols.num_nodes();
    debug_assert!(shard.end as usize <= n && shard.start <= shard.end);
    let ones = cols.ones_counts();
    // A pair (i, j) lands in the block whose rows contain i and whose
    // columns contain j, so scanning every block that touches the shard
    // on either axis covers all the shard's pairs.
    let tiles = tile_schedule(n, cols.pair_tile_size(), |rows, jcols| {
        shard.touches(rows) || shard.touches(jcols)
    });
    let costs: Vec<u64> = tiles.iter().map(|t| t.pairs).collect();
    let scanned_pairs: u64 = costs.iter().sum();
    let lut = Log2Table::new(cols.num_processes() as u64);
    let (above_counts, pool) = parallel::run_weighted_stats(
        &costs,
        4,
        threads,
        || SparseCandidates::new(shard, max_candidates),
        |acc, b| {
            let tile = &tiles[b];
            let mut above = 0u64;
            cols.pair_counts_block(
                tile.rows.clone(),
                tile.cols.clone(),
                &ones,
                &mut |i, j, pc| {
                    let v = measure.value(&MiCells::from_counts_with(&pc, &lut));
                    if v > tau {
                        let in_i = shard.contains(i);
                        let in_j = shard.contains(j);
                        if in_i || in_j {
                            above += 1;
                        }
                        if in_i {
                            acc.insert(i, v, j);
                        }
                        if in_j {
                            acc.insert(j, v, i);
                        }
                    }
                },
            );
            above
        },
    );
    let mut states = pool.states.into_iter();
    let mut acc = states
        .next()
        .unwrap_or_else(|| SparseCandidates::new(shard, max_candidates));
    for partial in states {
        acc.merge(partial);
    }
    let (candidates, candidate_evictions) = acc.finish();
    FoldOutcome {
        candidates,
        pairs_above_tau: above_counts.iter().sum(),
        candidate_evictions,
        tiles: tiles.len() as u64,
        scanned_pairs,
        chunks_per_worker: pool.chunks_per_worker,
    }
}

/// Estimated peak heap bytes of a streamed reconstruction, for budget
/// validation at the CLI/daemon boundary (the library itself never
/// rejects a budget — it just sizes the τ sample with it).
///
/// Sum of the resident pieces: the column bitsets
/// (`n · ⌈β/64⌉ · 8`), the per-worker sparse accumulators
/// (`threads · shard_len · (2·max_candidates + 16) · 16` bytes of
/// `(f64, NodeId)` entries plus one counter per node), the τ sample and
/// its 2-means ([`tau_sample_bytes`]: `24 · cap` plus the bucket bounds),
/// and per-worker tile scratch. Deliberately a loose over-estimate — sized
/// so staying under it keeps actual peak RSS under the budget with room
/// for the allocator.
pub fn estimate_streamed_bytes(
    n: usize,
    beta: usize,
    shard_len: usize,
    threads: usize,
    max_candidates: usize,
    memory_budget: Option<u64>,
) -> u64 {
    let columns = (n as u64) * (beta.div_ceil(64).max(1) as u64) * 8;
    let workers = threads.max(1) as u64;
    let per_node = (2 * max_candidates + 16) as u64 * 16 + 8 + 24;
    let accumulators = workers * shard_len as u64 * per_node;
    let total_pairs = (n as u64) * (n as u64).saturating_sub(1) / 2;
    let sample = tau_sample_bytes(total_pairs.max(1), memory_budget);
    let scratch = workers * 64 * 1024;
    columns + accumulators + sample + scratch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_shards_covers_range_without_overlap() {
        for (n, count) in [(10usize, 3usize), (7, 1), (5, 8), (0, 2), (100, 7)] {
            let shards = plan_shards(n, count);
            let mut next = 0;
            for s in &shards {
                assert_eq!(s.start as usize, next);
                assert!(s.end >= s.start);
                next = s.end as usize;
            }
            assert_eq!(next, n, "shards must cover 0..{n}");
        }
    }

    #[test]
    fn pair_rank_inversion_is_exact() {
        for n in [2u64, 3, 5, 17, 100] {
            let total = n * (n - 1) / 2;
            let mut expect = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    expect.push((i as NodeId, j as NodeId));
                }
            }
            for r in 0..total {
                assert_eq!(pair_at(r, n), expect[r as usize], "rank {r} of n={n}");
            }
        }
    }

    #[test]
    fn tau_sample_cap_ignores_everything_but_pairs_and_budget() {
        assert_eq!(tau_sample_cap(100, None), 100);
        assert_eq!(tau_sample_cap(1 << 30, None), 1 << 21);
        assert_eq!(tau_sample_cap(1 << 30, Some(128 << 16)), 1 << 16);
        // Tiny budgets still sample at least the floor.
        assert_eq!(tau_sample_cap(1 << 30, Some(1)), 1 << 16);
    }

    #[test]
    fn sparse_candidates_match_sorted_truncation() {
        let shard = Shard { start: 2, end: 5 };
        let mut acc = SparseCandidates::new(shard, 2);
        // Node 3 sees four above-τ partners; only the top 2 survive.
        acc.insert(3, 0.5, 9);
        acc.insert(3, 0.9, 1);
        acc.insert(3, 0.7, 4);
        acc.insert(3, 0.9, 0); // tie with partner 1 → lower id wins order
        acc.insert(2, 0.1, 7);
        let (lists, evictions) = acc.finish();
        assert_eq!(lists[0], vec![7]); // node 2
        assert_eq!(lists[1], vec![0, 1]); // node 3: ties sorted by id
        assert_eq!(lists[2], Vec::<NodeId>::new()); // node 4 untouched
        assert_eq!(evictions, 2);
    }

    #[test]
    fn sparse_candidates_merge_is_grouping_independent() {
        let shard = Shard { start: 0, end: 1 };
        let pairs: Vec<(f64, NodeId)> = (1..40).map(|k| (1.0 / k as f64, k as NodeId)).collect();
        let build = |items: &[(f64, NodeId)]| {
            let mut acc = SparseCandidates::new(shard, 4);
            for &(v, p) in items {
                acc.insert(0, v, p);
            }
            acc
        };
        let whole = build(&pairs).finish();
        for split in [1usize, 7, 20, 38] {
            let mut left = build(&pairs[..split]);
            left.merge(build(&pairs[split..]));
            assert_eq!(left.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn zero_max_candidates_still_counts_evictions() {
        let mut acc = SparseCandidates::new(Shard { start: 0, end: 2 }, 0);
        acc.insert(0, 0.4, 1);
        acc.insert(1, 0.4, 0);
        let (lists, evictions) = acc.finish();
        assert!(lists.iter().all(Vec::is_empty));
        assert_eq!(evictions, 2);
    }

    #[test]
    fn estimate_includes_every_component() {
        let est = estimate_streamed_bytes(1000, 150, 1000, 4, 8, Some(1 << 30));
        assert!(est > 1000 * 3 * 8, "columns term missing: {est}");
        let sharded = estimate_streamed_bytes(1000, 150, 100, 4, 8, Some(1 << 30));
        assert!(sharded < est, "smaller shard must shrink the estimate");
    }
}
