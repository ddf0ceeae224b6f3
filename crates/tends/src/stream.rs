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
//!    scored from the per-column ones counts and one SIMD AND+popcount for
//!    its `n11` — the counts the tiled kernel derives, so the values are
//!    bit-identical to the dense ones — and fed to the same pinned
//!    2-means as the dense path. Each claimed chunk of samples inverts its
//!    first rank once and then walks the stride. The sample cap is a pure
//!    function of the pair count and the memory budget — never the thread
//!    count, SIMD tier, or shard — so every streamed run at one budget
//!    computes the same τ, and small inputs (`stride == 1`) reproduce the
//!    dense τ bit-for-bit.
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
//!
//! **Verdicts in count space.** For a fixed `β` a pair's measure is a
//! function of three integers, `(n11, ones_i, ones_j)`, so there are far
//! fewer distinct verdicts than pairs once `n² ≫ β³` — the regime the
//! streamed path exists for. Before the pool starts the fold builds one
//! read-only [`VerdictTable`]: for every ordered pair of ones counts that
//! occurs, a bitmask over each feasible `n11` of whether the value is
//! `> τ`, each bit computed by the same [`PairEvaluator`] the per-pair path
//! uses, on the same counts — so every verdict is
//! exact. A pair then costs one row-batched popcount and one bit test, and
//! only pairs that pass evaluate the measure (ranking needs the value).
//! The table is built when it is small against the pairs the shard scans
//! ([`Verdicts::Auto`]), a pure function of `n`, `β`, the ones counts and
//! the shard — never of threads or SIMD tier — and otherwise every pair is
//! evaluated directly; both give the same candidates bit for bit.

use crate::imi::{tile_schedule, CorrelationMeasure, PairEvaluator, Tile};
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
            // Pruning both sides first keeps the union within the
            // capacity the inserts already reached (see
            // `fold_heap_bytes`), so a merge never grows a list past it.
            prune(&mut list, self.max_candidates);
            prune(dst, self.max_candidates);
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

/// The pair `stride` ranks after `(i, j)` in the canonical order. The
/// caller guarantees that rank exists.
fn pair_after(i: NodeId, j: NodeId, stride: u64, n: u64) -> (NodeId, NodeId) {
    let mut i = u64::from(i);
    // Offset within row i, whose pairs are (i, i+1) .. (i, n-1).
    let mut off = u64::from(j) - i - 1 + stride;
    while off >= n - 1 - i {
        off -= n - 1 - i;
        i += 1;
    }
    (i as NodeId, (i + 1 + off) as NodeId)
}

/// Estimates τ from a deterministic systematic sample of the pair
/// population: every `stride`-th pair of the canonical rank order, scored
/// from the ones counts and the SIMD kernel's `n11`, and fed to the same
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
    let eval = PairEvaluator::new(cols.num_processes() as u64, &cols.ones_counts(), measure);
    let kernels = diffnet_simulate::simd::kernels();
    // Each worker remembers the last sample it scored: a claimed chunk's
    // samples are consecutive, so only its first inverts a rank.
    let (values, _) = parallel::run_indexed_stats(
        count as usize,
        4096,
        threads,
        || None::<(usize, NodeId, NodeId)>,
        |last, s| {
            let (i, j) = match *last {
                Some((prev, i, j)) if prev + 1 == s => pair_after(i, j, stride, n),
                _ => pair_at(s as u64 * stride, n),
            };
            *last = Some((s, i, j));
            let n11 = kernels.and_popcount(cols.col(i), cols.col(j));
            eval.value(i as usize, j as usize, n11)
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
    /// Pairs whose measure the fold computed: every scanned pair with an
    /// endpoint in the shard when it evaluates per pair, only the above-τ
    /// ones when it decides through the [`VerdictTable`]. A pure function
    /// of the input and the shard.
    pub values_evaluated: u64,
    /// Chunk claims per pool worker (runtime diagnostics only).
    pub chunks_per_worker: Vec<u64>,
}

/// How [`fold_candidates_with`] decides whether a pair is above τ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdicts {
    /// The verdict table when [`VerdictTable::pays_off`] holds for the
    /// input and shard, per-pair evaluation otherwise — what
    /// [`fold_candidates`] does.
    Auto,
    /// Evaluate the measure of every pair: the reference.
    PerPair,
    /// Decide through the verdict table whenever it fits its size cap,
    /// however few pairs the shard scans.
    Table,
}

/// Largest verdict table the fold builds: per-pair lookups into a table
/// much past the L2 cache would miss instead of saving work.
const VERDICT_TABLE_MAX_BYTES: u64 = 4 << 20;

/// Exact "above τ" verdicts in count space.
///
/// For fixed `β` a pair's joint counts — hence its measure — are a
/// function of `(n11, ones_i, ones_j)`, and `n11` ranges over
/// `max(0, ones_i + ones_j − β) ..= min(ones_i, ones_j)`. The table holds,
/// for every ordered pair `(a, b)` of ones counts that occur among the
/// nodes, one bit per feasible `n11`: whether the measure of those counts
/// is `> τ`. Each bit is computed by the same [`PairEvaluator`] the
/// per-pair path uses, on the same counts, so every verdict is exact.
/// The pair order is kept (`a = ones_i`, `i < j`): the IMI subtracts
/// `|c10|` before `|c01|`, so its float value is not bitwise symmetric.
pub struct VerdictTable {
    /// Each node's ones-count class: the rank of its ones count among the
    /// distinct counts.
    class: Vec<u16>,
    classes: usize,
    /// Per ordered class pair `(a, b)`, row-major: the bit index of `n11 =
    /// 0` (wrapping — the entry's first bit is its smallest feasible
    /// `n11`). The size cap keeps every bit index below `2³²`.
    base: Vec<u32>,
    bits: Vec<u64>,
}

/// The feasible `n11` range of a pair with ones counts `a` and `b`.
#[inline]
fn n11_range(a: u64, b: u64, beta: u64) -> (u64, u64) {
    ((a + b).saturating_sub(beta), a.min(b))
}

impl VerdictTable {
    /// The distinct ones counts in ascending order and the verdict bits
    /// their ordered pairs need, or `None` when the table would exceed its
    /// size cap.
    fn shape(ones: &[u64], beta: u64) -> Option<(Vec<u64>, u64)> {
        let mut seen = vec![false; beta as usize + 1];
        for &o in ones {
            seen[o as usize] = true;
        }
        let values: Vec<u64> = (0..=beta).filter(|&v| seen[v as usize]).collect();
        let k = values.len() as u64;
        if 4 * k * k > VERDICT_TABLE_MAX_BYTES {
            return None;
        }
        let mut bits = 0u64;
        for &a in &values {
            for &b in &values {
                let (lo, hi) = n11_range(a, b, beta);
                bits += hi - lo + 1;
            }
        }
        (4 * k * k + bits.div_ceil(64) * 8 <= VERDICT_TABLE_MAX_BYTES).then_some((values, bits))
    }

    /// Whether the table pays for itself: it stays under its size cap and
    /// computing its bits costs at most an eighth of evaluating the
    /// `scanned_pairs` pairs directly. A pure function of the ones counts,
    /// `β` and the pairs the shard scans.
    pub fn pays_off(ones: &[u64], beta: u64, scanned_pairs: u64) -> bool {
        Self::shape(ones, beta).is_some_and(|(_, bits)| 8 * bits <= scanned_pairs)
    }

    /// Builds the table for nodes with these ones counts over `beta`
    /// processes, or `None` when it would exceed its size cap.
    fn build(ones: &[u64], beta: u64, eval: &PairEvaluator, tau: f64) -> Option<VerdictTable> {
        let (values, total_bits) = Self::shape(ones, beta)?;
        let k = values.len();
        let mut class_of = vec![0u16; beta as usize + 1];
        for (c, &v) in values.iter().enumerate() {
            class_of[v as usize] = c as u16;
        }
        let class = ones.iter().map(|&o| class_of[o as usize]).collect();
        let mut base = Vec::with_capacity(k * k);
        let mut bits = vec![0u64; total_bits.div_ceil(64) as usize];
        let mut next = 0u64;
        for &a in &values {
            for &b in &values {
                let (lo, hi) = n11_range(a, b, beta);
                base.push((next as u32).wrapping_sub(lo as u32));
                let (ma, mb) = (eval.margin(a), eval.margin(b));
                for n11 in lo..=hi {
                    if eval.value_of(n11, ma, mb) > tau {
                        bits[(next >> 6) as usize] |= 1 << (next & 63);
                    }
                    next += 1;
                }
            }
        }
        debug_assert_eq!(next, total_bits);
        Some(VerdictTable {
            class,
            classes: k,
            base,
            bits,
        })
    }

    /// Node `i`'s row of entries, indexed by its partner's class.
    #[inline]
    fn row(&self, i: NodeId) -> &[u32] {
        let c = self.class[i as usize] as usize;
        &self.base[c * self.classes..(c + 1) * self.classes]
    }

    /// Whether pair `(i, j)`, `i < j`, with joint count `n11` is above τ,
    /// given `row = self.row(i)`.
    #[inline]
    fn above(&self, row: &[u32], j: usize, n11: u64) -> bool {
        let bit = row[self.class[j] as usize].wrapping_add(n11 as u32);
        self.bits[(bit >> 6) as usize] >> (bit & 63) & 1 == 1
    }
}

/// Streams the upper triangle tile-by-tile through the SIMD pair kernel
/// and folds every above-τ pair straight into bounded per-node candidate
/// lists for `shard` — the dense matrix never exists. Decides "above τ"
/// through the [`VerdictTable`] when it pays off ([`Verdicts::Auto`]).
pub fn fold_candidates(
    cols: &NodeColumns,
    measure: CorrelationMeasure,
    tau: f64,
    max_candidates: usize,
    shard: Shard,
    threads: usize,
) -> FoldOutcome {
    fold_candidates_with(
        cols,
        measure,
        tau,
        max_candidates,
        shard,
        threads,
        Verdicts::Auto,
    )
}

/// [`fold_candidates`] with an explicit verdict strategy; every strategy
/// yields the same candidates, counts and evictions.
///
/// Uses the tile schedule of
/// [`crate::CorrelationMatrix::compute_observed`] (same tile size, same
/// exact-pair-count claim weights), restricted to blocks whose row or
/// column range touches the shard; every pair's counts come from the same
/// kernel in the same order, so for the full shard the surviving
/// candidate sets are bit-identical to thresholding the dense matrix.
/// Each pool worker folds into its own partial [`SparseCandidates`]
/// (memory: `threads · shard.len() · O(max_candidates)` entries), merged
/// after the scan — deterministic because bounded top-k is
/// grouping-independent.
pub fn fold_candidates_with(
    cols: &NodeColumns,
    measure: CorrelationMeasure,
    tau: f64,
    max_candidates: usize,
    shard: Shard,
    threads: usize,
    verdicts: Verdicts,
) -> FoldOutcome {
    let n = cols.num_nodes();
    debug_assert!(shard.end as usize <= n && shard.start <= shard.end);
    let beta = cols.num_processes() as u64;
    let ones = cols.ones_counts();
    // A pair (i, j) lands in the block whose rows contain i and whose
    // columns contain j, so scanning every block that touches the shard
    // on either axis covers all the shard's pairs.
    let tiles = tile_schedule(n, cols.pair_tile_size(), |rows, jcols| {
        shard.touches(rows) || shard.touches(jcols)
    });
    let costs: Vec<u64> = tiles.iter().map(|t| t.pairs).collect();
    let scanned_pairs: u64 = costs.iter().sum();
    let eval = PairEvaluator::new(beta, &ones, measure);
    let table = match verdicts {
        Verdicts::PerPair => None,
        Verdicts::Table => VerdictTable::build(&ones, beta, &eval, tau),
        Verdicts::Auto => VerdictTable::pays_off(&ones, beta, scanned_pairs)
            .then(|| VerdictTable::build(&ones, beta, &eval, tau))
            .flatten(),
    };
    let (counts, pool) = parallel::run_weighted_stats(
        &costs,
        4,
        threads,
        || SparseCandidates::new(shard, max_candidates),
        |acc, b| {
            // (pairs above τ, values evaluated) in this block.
            let (mut above, mut evaluated) = (0u64, 0u64);
            let tile = &tiles[b];
            cols.pair_n11_block(tile.rows.clone(), tile.cols.clone(), &mut |i, j0, n11s| {
                let in_i = shard.contains(i);
                // Scores pair (i, j) and folds it if it is above τ.
                let mut fold = |j: usize, n11: u64| {
                    let j = j as NodeId;
                    let in_j = shard.contains(j);
                    if !(in_i || in_j) {
                        return;
                    }
                    evaluated += 1;
                    let v = eval.value(i as usize, j as usize, n11);
                    if v > tau {
                        above += 1;
                        if in_i {
                            acc.insert(i, v, j);
                        }
                        if in_j {
                            acc.insert(j, v, i);
                        }
                    }
                };
                match &table {
                    Some(t) => {
                        let row = t.row(i);
                        for (j, &n11) in (j0..).zip(n11s) {
                            if t.above(row, j, n11) {
                                fold(j, n11);
                            }
                        }
                    }
                    None => {
                        for (j, &n11) in (j0..).zip(n11s) {
                            fold(j, n11);
                        }
                    }
                }
            });
            (above, evaluated)
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
        pairs_above_tau: counts.iter().map(|c| c.0).sum(),
        candidate_evictions,
        tiles: tiles.len() as u64,
        scanned_pairs,
        values_evaluated: counts.iter().map(|c| c.1).sum(),
        chunks_per_worker: pool.chunks_per_worker,
    }
}

/// Peak heap bytes of [`fold_candidates`] over `n` nodes and `beta`
/// processes for a shard of `shard_len` nodes: the fold terms of
/// [`estimate_streamed_bytes`].
///
/// Sum of: the per-node ones counts and verdict classes (10 bytes a
/// node); the tile schedule with each block's cost, result and the
/// result's pool staging; the per-worker sparse accumulators — per shard
/// node, one list whose capacity the amortized pruning keeps at
/// `(2·max_candidates + 16)` rounded up to the `Vec` growth's power of
/// two, of 16-byte `(f64, NodeId)` entries, plus the list header and one
/// counter; the finished lists' headers; the verdict table (at most
/// 4 MiB, and never more bits than an eighth of the pairs); and
/// per-worker scratch (pool bookkeeping — the 2 KiB `n11` segment buffer
/// lives on the worker's stack).
pub fn fold_heap_bytes(
    n: usize,
    beta: usize,
    shard_len: usize,
    threads: usize,
    max_candidates: usize,
) -> u64 {
    let (n, b1, shard) = (n as u64, beta as u64 + 1, shard_len as u64);
    let workers = threads.max(1) as u64;
    let nodes = 10 * n;
    let side = NodeColumns::pair_tile_size_for(beta) as u64;
    let blocks = n.div_ceil(side);
    let schedule = blocks * (blocks + 1) / 2 * (std::mem::size_of::<Tile>() as u64 + 8 + 2 * 16);
    let list_cap = match max_candidates {
        0 => 0,
        k => (2 * k as u64 + 16).next_power_of_two(),
    };
    let accumulators = workers * shard * (list_cap * 16 + 24 + 8);
    let finished = shard * 24;
    let pairs = n * n.saturating_sub(1) / 2;
    let bits = b1.saturating_mul(b1).saturating_mul(b1).min(pairs / 8);
    let table =
        (4 * b1.saturating_mul(b1).min(bits) + bits / 8 + 8).min(VERDICT_TABLE_MAX_BYTES) + 2 * b1;
    let scratch = workers * 64 * 1024;
    nodes + schedule + accumulators + finished + table + scratch
}

/// Estimated peak heap bytes of a streamed reconstruction, for budget
/// validation at the CLI/daemon boundary (the library itself never
/// rejects a budget — it just sizes the τ sample with it).
///
/// Sum of the resident pieces: the column bitsets
/// (`n · ⌈β/64⌉ · 8`), the τ sample and its 2-means
/// ([`tau_sample_bytes`]: `24 · cap` plus the bucket bounds), and the
/// fold ([`fold_heap_bytes`]: accumulators, verdict table, tile schedule
/// and per-worker scratch). Deliberately a loose over-estimate — sized so
/// staying under it keeps actual peak RSS under the budget with room for
/// the allocator.
pub fn estimate_streamed_bytes(
    n: usize,
    beta: usize,
    shard_len: usize,
    threads: usize,
    max_candidates: usize,
    memory_budget: Option<u64>,
) -> u64 {
    let columns = (n as u64) * (beta.div_ceil(64).max(1) as u64) * 8;
    let total_pairs = (n as u64) * (n as u64).saturating_sub(1) / 2;
    let sample = tau_sample_bytes(total_pairs.max(1), memory_budget);
    columns + sample + fold_heap_bytes(n, beta, shard_len, threads, max_candidates)
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
    fn stride_walk_matches_rank_inversion() {
        for n in [2u64, 3, 5, 17, 100] {
            let total = n * (n - 1) / 2;
            for stride in [1u64, 2, 3, n - 1, n, n + 1, 2 * n + 3, total] {
                for start in 0..stride.min(total) {
                    let (mut i, mut j) = pair_at(start, n);
                    let mut rank = start + stride;
                    while rank < total {
                        (i, j) = pair_after(i, j, stride, n);
                        assert_eq!(
                            (i, j),
                            pair_at(rank, n),
                            "n={n} stride {stride} rank {rank}"
                        );
                        rank += stride;
                    }
                }
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
