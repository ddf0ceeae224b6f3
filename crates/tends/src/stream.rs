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
//!    partners (value descending, node id ascending tie-break). The dense
//!    pipeline folds its triangle into the same accumulator
//!    ([`crate::CorrelationMatrix::candidates`]), so every pipeline's lists
//!    come from one implementation. Top-k selection is a
//!    semilattice — `topk(topk(A) ∪ topk(B)) = topk(A ∪ B)` — so
//!    per-worker partial accumulators merge to the same result regardless
//!    of how tiles were scheduled, keeping candidates thread- and
//!    tile-invariant. Every above-τ sighting a list drops is counted, so
//!    truncation is reported (`candidate_evictions`), never silent.
//! 3. **Node-range shards** ([`Shard`], [`plan_shards`], [`shard_of`]): a
//!    shard owns a contiguous node range and folds only the tile blocks
//!    that touch it, bounding accumulator memory to the shard's nodes.
//!    Shards of one logical reconstruction merge by edge union — each
//!    child node's parents are computed by exactly one shard.
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
//! exact. A pair then costs one row-batched popcount and one bit of a
//! 64-pair mask, set from its table lookup with no data-dependent branch;
//! only the set bits are walked, and only those pairs evaluate the
//! measure (ranking needs the value). The table is built when it is small
//! against the pairs the shard scans ([`Verdicts::Auto`]), a pure function
//! of `n`, `β`, the ones counts and the shard — never of threads or SIMD
//! tier — and otherwise every pair is evaluated directly, a row segment
//! at a time, and masked against τ the same way; both give the same
//! candidates bit for bit.

use crate::imi::{above_mask, tile_schedule, CorrelationMeasure, PairEvaluator, Tile};
use crate::kmeans::{order_key, pinned_two_means, PinnedKmeans};
use crate::parallel;
use diffnet_graph::NodeId;
use diffnet_simulate::{NodeColumns, N11_SEGMENT};
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
/// in a smarter cost model. Deterministic; `min(count, n)` shards, at
/// least one when `n > 0`: a count past `n` adds no shard, so the list is
/// never longer than the node range. [`shard_of`] names the empty shards
/// past that end.
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

/// Shard `index` of `count` over `0..n`: entry `index` of
/// [`plan_shards`], or the empty shard `n..n` when `index` lies past the
/// shards that own a node (`count > n` leaves the trailing ones empty).
/// `count` comes from a request, so it is never an allocation size: the
/// plan it reads is at most `n` entries long.
pub fn shard_of(n: usize, count: usize, index: usize) -> Shard {
    if index >= n.min(count.max(1)) {
        return Shard {
            start: n as NodeId,
            end: n as NodeId,
        };
    }
    plan_shards(n, count)[index]
}

/// The ids of the top `max` entries of `list` in the candidate order —
/// value descending by `f64::total_cmp`, node id ascending on ties — by
/// a full sort: the definition [`SparseCandidates`] keeps incrementally.
#[cfg(test)]
pub(crate) fn top_ids(mut list: Vec<(f64, NodeId)>, max: usize) -> Vec<NodeId> {
    list.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    list.truncate(max);
    list.into_iter().map(|(_, id)| id).collect()
}

/// A candidate's place in the candidate order as one integer: ascending
/// keys run value descending, then partner id ascending. The value part
/// is the complemented IEEE total-order key, so the order is total — a
/// NaN smuggled into a matrix cannot break it — which is what makes
/// bounded top-k selection exact and merge-order-independent.
#[inline]
fn rank_key(value: f64, partner: NodeId) -> u128 {
    u128::from(!order_key(value)) << 32 | u128::from(partner)
}

/// Bounded per-node candidate lists for one node-range shard: the
/// accumulator every pipeline folds its above-τ pairs into.
///
/// Holds, per shard node, its top `max_candidates` partners so far in
/// the candidate order — value descending in the IEEE total order, node
/// id ascending on ties — as ascending integer keys; plus the pairs seen
/// and the entries dropped. Beside the lists sits a dense per-node
/// **admission floor**: the list's last (`max_candidates`-th) key once it
/// is full, `u128::MAX` before that (and `0` when the bound is 0, whose
/// lists are full from the start). An offer at or past its node's floor
/// is dropped with one comparison against that contiguous array, without
/// loading the list — most offers are, and the partner `j`'s lands in a
/// random list. Inserts must already be above τ — thresholding happens at
/// the fold so sub-τ pairs never allocate anything.
#[derive(Clone, Debug)]
pub struct SparseCandidates {
    shard: Shard,
    max_candidates: usize,
    entries: Vec<Vec<u128>>,
    floors: Vec<u128>,
    pairs_above_tau: u64,
    evictions: u64,
}

/// The finished lists of a [`SparseCandidates`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateLists {
    /// Per-node candidate parent lists, indexed by `node − shard.start`,
    /// value descending, node id ascending on ties.
    pub lists: Vec<Vec<NodeId>>,
    /// Pairs above τ with at least one endpoint in the shard.
    pub pairs_above_tau: u64,
    /// Above-τ candidates the top-`max_candidates` bound dropped: every
    /// in-shard endpoint's sightings minus what its list kept.
    pub candidate_evictions: u64,
}

impl SparseCandidates {
    /// An empty accumulator for `shard`, keeping at most `max_candidates`
    /// partners per node.
    pub fn new(shard: Shard, max_candidates: usize) -> SparseCandidates {
        let open = if max_candidates == 0 { 0 } else { u128::MAX };
        SparseCandidates {
            shard,
            max_candidates,
            entries: vec![Vec::new(); shard.len()],
            floors: vec![open; shard.len()],
            pairs_above_tau: 0,
            evictions: 0,
        }
    }

    /// Records pair `(i, j)` with correlation `value`, which the caller
    /// guarantees is above τ: counted once if either endpoint is in the
    /// shard, and offered to the list of each endpoint that is.
    #[inline]
    pub fn insert_pair(&mut self, i: NodeId, j: NodeId, value: f64) {
        let (in_i, in_j) = (self.shard.contains(i), self.shard.contains(j));
        self.pairs_above_tau += u64::from(in_i || in_j);
        if in_i {
            self.offer(i, rank_key(value, j));
        }
        if in_j {
            self.offer(j, rank_key(value, i));
        }
    }

    /// Offers `entry` to `node`'s list; whatever the bound drops, the
    /// entry or the list's last one, counts as one eviction.
    #[inline]
    fn offer(&mut self, node: NodeId, entry: u128) {
        let at = (node - self.shard.start) as usize;
        // Rank keys stay below 2⁹⁶, so an open floor admits every entry.
        if entry >= self.floors[at] {
            self.evictions += 1;
            return;
        }
        let list = &mut self.entries[at];
        if list.len() == self.max_candidates {
            // Full, and the entry ranks before the last one: it evicts it.
            let last = list.len() - 1;
            list[last] = entry;
            self.evictions += 1;
        } else {
            list.push(entry);
        }
        // Insertion sort's one step: move the entry up past the entries
        // it ranks before.
        let mut k = list.len() - 1;
        while k > 0 && entry < list[k - 1] {
            list[k] = list[k - 1];
            k -= 1;
        }
        list[k] = entry;
        if list.len() == self.max_candidates {
            self.floors[at] = list[list.len() - 1];
        }
    }

    /// Folds another partial accumulator (same shard, same bound) into
    /// this one. Top-k of a union is grouping-independent, so any merge
    /// tree yields the same lists and counts.
    pub fn merge(&mut self, other: SparseCandidates) {
        assert_eq!(self.shard, other.shard, "accumulator shard mismatch");
        assert_eq!(self.max_candidates, other.max_candidates);
        self.pairs_above_tau += other.pairs_above_tau;
        self.evictions += other.evictions;
        for (k, list) in other.entries.into_iter().enumerate() {
            let node = self.shard.start + k as NodeId;
            for entry in list {
                self.offer(node, entry);
            }
        }
    }

    /// Finalizes into the per-node candidate id lists and the counts —
    /// the evictions are surfaced, not silently dropped.
    pub fn finish(self) -> CandidateLists {
        CandidateLists {
            lists: self
                .entries
                .into_iter()
                .map(|list| list.into_iter().map(|key| key as NodeId).collect())
                .collect(),
            pairs_above_tau: self.pairs_above_tau,
            candidate_evictions: self.evictions,
        }
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
    /// The shard's candidate lists and counts (equal to the dense fold's
    /// when the shard is `0..n` and τ is the same).
    pub candidates: CandidateLists,
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

    /// Bit `l` set iff pair `(i, j0 + l)` with joint count `n11s[l]` is
    /// above τ, for up to 64 pairs with `i < j0`, given `row =
    /// self.row(i)`: one table lookup per pair and no data-dependent
    /// branch.
    #[inline]
    fn above_mask(&self, row: &[u32], j0: usize, n11s: &[u64]) -> u64 {
        debug_assert!(n11s.len() <= 64);
        let mut mask = 0u64;
        for (l, (&c, &n11)) in self.class[j0..].iter().zip(n11s).enumerate() {
            let bit = row[c as usize].wrapping_add(n11 as u32);
            mask |= (self.bits[(bit >> 6) as usize] >> (bit & 63) & 1) << l;
        }
        mask
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
            // Values evaluated in this block.
            let mut evaluated = 0u64;
            let tile = &tiles[b];
            cols.pair_n11_block(tile.rows.clone(), tile.cols.clone(), &mut |i, j0, n11s| {
                // The segment's pairs with an endpoint in the shard: all of
                // them when `i` is in it, else those whose `j` is.
                let span = if shard.contains(i) {
                    0..n11s.len()
                } else {
                    let clip = |end: NodeId| (end as usize).saturating_sub(j0).min(n11s.len());
                    clip(shard.start)..clip(shard.end)
                };
                if !span.is_empty() {
                    let (j0, n11s) = (j0 + span.start, &n11s[span]);
                    evaluated += fold_segment(acc, &eval, table.as_ref(), tau, i, j0, n11s);
                }
            });
            evaluated
        },
    );
    let mut states = pool.states.into_iter();
    let mut acc = states
        .next()
        .unwrap_or_else(|| SparseCandidates::new(shard, max_candidates));
    for partial in states {
        acc.merge(partial);
    }
    FoldOutcome {
        candidates: acc.finish(),
        tiles: tiles.len() as u64,
        scanned_pairs,
        values_evaluated: counts.iter().sum(),
        chunks_per_worker: pool.chunks_per_worker,
    }
}

/// Folds one [`NodeColumns::pair_n11_block`] segment — the pairs `(i,
/// j0)`, `(i, j0 + 1)`, … with joint counts `n11s`, each with an endpoint
/// in `acc`'s shard — into `acc`, and returns how many values it
/// evaluated.
///
/// "Above τ" is decided for 64 pairs at a time into a bitmask, with no
/// data-dependent branch: one verdict-table lookup per pair when there is
/// a table, else the segment's values ([`PairEvaluator::row`]) against τ.
/// One walk over the set bits then gathers the survivors' offsets; the
/// table path evaluates their values as a batch (the per-pair path
/// already has them), and they are inserted in order. About one pair in
/// ten passes at paper scale, in no order a branch predictor could learn.
/// The buffers live on the stack, one set per segment: kept in the pool's
/// per-worker state instead, they made the verdict pass slower.
#[inline]
fn fold_segment(
    acc: &mut SparseCandidates,
    eval: &PairEvaluator,
    table: Option<&VerdictTable>,
    tau: f64,
    i: NodeId,
    j0: usize,
    n11s: &[u64],
) -> u64 {
    let len = n11s.len();
    let mut values = [0f64; N11_SEGMENT];
    let mut masks = [0u64; N11_SEGMENT / 64];
    let mut evaluated = 0;
    match table {
        Some(t) => {
            let row = t.row(i);
            for ((mask, chunk), c) in masks.iter_mut().zip(n11s.chunks(64)).zip(0..) {
                *mask = t.above_mask(row, j0 + 64 * c, chunk);
            }
        }
        None => {
            eval.row(i as usize, j0, n11s, &mut values[..len]);
            for (mask, chunk) in masks.iter_mut().zip(values[..len].chunks(64)) {
                *mask = above_mask(chunk, tau);
            }
            evaluated = len;
        }
    }
    let mut offsets = [0u16; N11_SEGMENT];
    let mut survivors = 0;
    for (c, &mask) in masks.iter().enumerate() {
        let mut m = mask;
        while m != 0 {
            offsets[survivors] = (64 * c) as u16 + m.trailing_zeros() as u16;
            survivors += 1;
            m &= m - 1;
        }
    }
    let offsets = &offsets[..survivors];
    if table.is_some() {
        for (v, &o) in values.iter_mut().zip(offsets) {
            let o = usize::from(o);
            *v = eval.value(i as usize, j0 + o, n11s[o]);
        }
        evaluated = survivors;
    } else {
        // Compacted in place: the k-th survivor's offset is at least k.
        for (k, &o) in offsets.iter().enumerate() {
            values[k] = values[usize::from(o)];
        }
    }
    for (&o, &v) in offsets.iter().zip(&values) {
        acc.insert_pair(i, (j0 + usize::from(o)) as NodeId, v);
    }
    evaluated as u64
}

/// Peak heap bytes of [`fold_candidates`] over `n` nodes and `beta`
/// processes for a shard of `shard_len` nodes: the fold terms of
/// [`estimate_streamed_bytes`].
///
/// Sum of: the per-node ones counts and verdict classes (10 bytes a
/// node); the tile schedule with each block's cost, result and the
/// result's pool staging; the per-worker sparse accumulators — per shard
/// node, one list of at most `k = min(max_candidates, n − 1)` 16-byte
/// rank keys, grown by doubling from the 4 entries of a `Vec`'s first
/// allocation, so its capacity is `k` rounded up to a power of two and at
/// least 4 — plus the list header and the node's 16-byte admission
/// floor; the finished lists (a header and `k` 4-byte ids per node); the
/// verdict table (at most 4 MiB, and never more bits than an eighth of
/// the pairs); and per-worker scratch (pool bookkeeping — the `n11`
/// segment buffer and the fold's per-segment values, masks and survivor
/// offsets live on the worker's stack).
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
    let kept = (max_candidates as u64).min(n.saturating_sub(1));
    let list_cap = match kept {
        0 => 0,
        k => k.next_power_of_two().max(4),
    };
    let accumulators = workers * shard * (list_cap * 16 + 24 + 16);
    let finished = shard * (24 + 4 * kept);
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
    fn shard_of_names_empty_shards_past_n() {
        assert_eq!(
            plan_shards(30, 40).len(),
            30,
            "no shard past the node range"
        );
        for k in 0..40 {
            let at = k.min(30) as NodeId;
            let end = if k < 30 { at + 1 } else { at };
            assert_eq!(shard_of(30, 40, k), Shard { start: at, end }, "shard {k}");
        }
        assert!(shard_of(30, 40, 35).is_empty());
        // A request-sized count is never an allocation size.
        assert_eq!(shard_of(30, 1 << 40, 0), Shard { start: 0, end: 1 });
        assert_eq!(shard_of(30, 1 << 40, 35), Shard { start: 30, end: 30 });
        assert_eq!(
            shard_of(30, usize::MAX, usize::MAX - 1),
            Shard { start: 30, end: 30 }
        );
        assert_eq!(shard_of(0, 3, 0), Shard { start: 0, end: 0 });
        assert_eq!(shard_of(7, 0, 0), Shard::full(7));
        assert_eq!(shard_of(10, 3, 2), plan_shards(10, 3)[2]);
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
        acc.insert_pair(3, 9, 0.5);
        acc.insert_pair(1, 3, 0.9);
        acc.insert_pair(3, 8, 0.7);
        acc.insert_pair(0, 3, 0.9); // tie with partner 1 → lower id wins order
        acc.insert_pair(2, 7, 0.1);
        // Both endpoints in the shard: one pair, two sightings.
        acc.insert_pair(2, 4, 0.05);
        // Neither endpoint in the shard: not this shard's pair.
        acc.insert_pair(0, 9, 0.8);
        let found = acc.finish();
        assert_eq!(found.lists[0], vec![7, 4]); // node 2
        assert_eq!(found.lists[1], vec![0, 1]); // node 3: ties sorted by id
        assert_eq!(found.lists[2], vec![2]); // node 4
        assert_eq!(found.pairs_above_tau, 6);
        assert_eq!(found.candidate_evictions, 2);
    }

    #[test]
    fn sparse_candidates_merge_is_grouping_independent() {
        let shard = Shard { start: 0, end: 1 };
        let pairs: Vec<(f64, NodeId)> = (1..40).map(|k| (1.0 / k as f64, k as NodeId)).collect();
        let build = |items: &[(f64, NodeId)]| {
            let mut acc = SparseCandidates::new(shard, 4);
            for &(v, p) in items {
                acc.insert_pair(0, p, v);
            }
            acc
        };
        let whole = build(&pairs).finish();
        for split in [1usize, 7, 20, 38] {
            let mut left = build(&pairs[..split]);
            left.merge(build(&pairs[split..]));
            assert_eq!(left.finish(), whole, "split at {split}");
            let mut right = build(&pairs[split..]);
            right.merge(build(&pairs[..split]));
            assert_eq!(
                right.finish(),
                whole,
                "split at {split}, merged the other way"
            );
        }
    }

    /// Every pair `(i, j)`, `i < j < n`, with an endpoint in `shard`,
    /// valued from a few levels so that ties are common.
    fn shard_pairs(n: NodeId, shard: Shard) -> Vec<(NodeId, NodeId, f64)> {
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if shard.contains(i) || shard.contains(j) {
                    pairs.push((i, j, f64::from((7 * i + 13 * j) % 5) / 4.0));
                }
            }
        }
        pairs
    }

    fn accumulate(shard: Shard, k: usize, pairs: &[(NodeId, NodeId, f64)]) -> SparseCandidates {
        let mut acc = SparseCandidates::new(shard, k);
        for &(i, j, v) in pairs {
            acc.insert_pair(i, j, v);
        }
        acc
    }

    #[test]
    fn floors_keep_the_sorted_top_k_in_any_order() {
        let shard = Shard { start: 3, end: 7 };
        let mut pairs = shard_pairs(30, shard);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        for k in [0usize, 1, 3, 8] {
            for _ in 0..20 {
                for at in (1..pairs.len()).rev() {
                    pairs.swap(at, next(at + 1));
                }
                let found = accumulate(shard, k, &pairs).finish();
                let mut evictions = 0;
                for node in shard.start..shard.end {
                    let seen: Vec<(f64, NodeId)> = pairs
                        .iter()
                        .filter_map(|&(i, j, v)| {
                            if node == i {
                                Some((v, j))
                            } else if node == j {
                                Some((v, i))
                            } else {
                                None
                            }
                        })
                        .collect();
                    evictions += seen.len().saturating_sub(k) as u64;
                    let list = &found.lists[(node - shard.start) as usize];
                    assert_eq!(*list, top_ids(seen, k), "node {node}, k {k}");
                }
                assert_eq!(found.pairs_above_tau, pairs.len() as u64);
                assert_eq!(
                    found.candidate_evictions, evictions,
                    "k {k}: evictions are sightings minus what was kept"
                );
                let split = next(pairs.len() + 1);
                let (head, rest) = pairs.split_at(split);
                for (a, b) in [(head, rest), (rest, head)] {
                    let mut merged = accumulate(shard, k, a);
                    merged.merge(accumulate(shard, k, b));
                    assert_eq!(merged.finish(), found, "k {k}, split at {split}");
                }
            }
        }
    }

    #[test]
    fn full_floor_admits_the_key_below_and_drops_the_key_above() {
        let shard = Shard { start: 0, end: 1 };
        let mut acc = SparseCandidates::new(shard, 3);
        let mut seen = Vec::new();
        let mut offer = |acc: &mut SparseCandidates, v: f64, p: NodeId| {
            acc.insert_pair(0, p, v);
            seen.push((v, p));
            top_ids(seen.clone(), 3)
        };
        for p in [10, 20, 30] {
            offer(&mut acc, 0.5, p);
        }
        // The list is full; its floor is (0.5, 30). One id past it and
        // one value step below it rank after the floor and are dropped.
        let below = f64::from_bits(0.5f64.to_bits() - 1);
        for (v, p) in [(0.5, 31), (below, 1)] {
            let expect = offer(&mut acc, v, p);
            assert_eq!(acc.clone().finish().lists[0], expect, "({v}, {p})");
        }
        // One id before it, then one value step above it, rank before the
        // floor and enter, each evicting the last entry.
        let above = f64::from_bits(0.5f64.to_bits() + 1);
        for (v, p) in [(0.5, 29), (above, 40)] {
            let expect = offer(&mut acc, v, p);
            assert_eq!(acc.clone().finish().lists[0], expect, "({v}, {p})");
        }
        let found = acc.finish();
        assert_eq!(found.lists[0], vec![40, 10, 20]);
        assert_eq!(found.candidate_evictions, 4);
    }

    #[test]
    fn zero_max_candidates_still_counts_evictions() {
        let mut acc = SparseCandidates::new(Shard { start: 0, end: 2 }, 0);
        acc.insert_pair(0, 1, 0.4);
        let found = acc.finish();
        assert!(found.lists.iter().all(Vec::is_empty));
        assert_eq!(found.pairs_above_tau, 1);
        assert_eq!(found.candidate_evictions, 2);
    }

    #[test]
    fn estimate_includes_every_component() {
        let est = estimate_streamed_bytes(1000, 150, 1000, 4, 8, Some(1 << 30));
        assert!(est > 1000 * 3 * 8, "columns term missing: {est}");
        let sharded = estimate_streamed_bytes(1000, 150, 100, 4, 8, Some(1 << 30));
        assert!(sharded < est, "smaller shard must shrink the estimate");
    }
}
