//! The modified 2-means threshold finder (paper §IV-B, Algorithm 1 line 5)
//! and the bucketed index that serves it and the candidate lists (lines
//! 10–12).
//!
//! TENDS partitions all *non-negative* pairwise infection-MI values into two
//! clusters with K-means, `K = 2`, keeping one centroid pinned at 0 through
//! every iteration. The pinned cluster collects the compact mass of
//! near-zero values produced by unrelated node pairs; the threshold `τ` is
//! the largest value assigned to it, so every candidate parent must beat the
//! "noise" cluster.
//!
//! # The bucketed index
//!
//! The 2-means is defined over the values in ascending order, but it only
//! ever looks at the top of that order: `τ` is set by the free cluster,
//! typically the top ~15% of the values. [`BucketIndex`] therefore never
//! sorts the whole input, and never even scatters most of it. It keys every
//! value by the IEEE total order (`−0.0` below `+0.0`) and buckets the
//! values `≥ −0.0` by key prefix (`+∞` included, NaN dropped, the negatives
//! left in place). The prefix width is a pure function of the input length,
//! so tiny inputs do not pay for 2¹⁶ empty buckets — and so a producer of
//! the values can count each bucket as it writes the values: the dense
//! correlation pass fills the `BucketCounts` itself, and the index never
//! reads the triangle to count it. From the counts alone the index picks a
//! cutoff bucket (`BucketIndex::first_cutoff`: the pinned 2-means over the
//! bucket edges estimates `τ`'s bucket, and the cutoff sits one binade
//! below it) and scatters keys, and ranks, only for the buckets at and
//! above it, in one pass over the values. A query that reaches below the
//! cutoff widens it on demand with one more pass. Positions stay global —
//! each bucket's place in the order comes from the counts — and buckets
//! are sorted from the top down, only as far as a query reaches.
//!
//! **Why the sorted region only grows downward.** The free cluster starts
//! as `{v > max/2}` with centroid `c₁ = max`. If `c_{t+1} ≤ c_t`, the next
//! cluster `{v > c_{t+1}/2}` contains the current one; the values it adds
//! are `≤ c_t/2`, below the current mean `c_{t+1}` (every member exceeds
//! `c_t/2`), so the new mean can only fall: `c_{t+2} ≤ c_{t+1}`. By
//! induction the centroid never rises, and each iteration reads a boundary
//! at or below the previous one. The index scatters and sorts down to the
//! bucket holding `c/2` and accumulates the suffix sums from the maximum down —
//! the same summation order as a full sort — so `τ`, the free centroid,
//! both counts and the iteration count come out bit-identical to the
//! sort-based definition. Exactness does not rest on the monotonicity
//! (rounding could in principle nudge a mean up by an ulp, and the index
//! would simply serve that boundary from the already-sorted region); the
//! monotonicity is what bounds the work to the buckets above the final
//! `τ`.
//!
//! **Candidate order from rank ties.** With ranks tracked
//! ([`BucketIndex::new`]), a bucket sorts by (value descending, rank
//! ascending), so walking down from the top visits the values above `τ`
//! in that order. For a fixed node `i`, its
//! pairs' upper-triangle ranks increase with the partner id (pairs `(j, i)`,
//! `j < i`, sit in earlier rows than every `(i, j)`, `j > i`). Appending
//! each visited pair's partner to both endpoints' lists until a list holds
//! `max_candidates` therefore yields exactly the (value descending, id
//! ascending) top-`max_candidates` lists of thresholding every row — in
//! `O(pairs above τ)` instead of `O(n²)`.

use diffnet_graph::NodeId;

/// Outcome of the pinned 2-means clustering.
#[derive(Clone, Debug, PartialEq)]
pub struct PinnedKmeans {
    /// The threshold `τ`: the largest value in the pinned (near-zero)
    /// cluster; 0 if that cluster is empty.
    pub tau: f64,
    /// Final position of the free centroid.
    pub free_centroid: f64,
    /// Number of values assigned to the pinned cluster.
    pub pinned_count: usize,
    /// Number of values assigned to the free cluster.
    pub free_count: usize,
    /// Iterations until convergence.
    pub iterations: usize,
}

/// Runs 2-means over the finite non-negative entries of `values` with one
/// centroid pinned at 0, and returns the threshold `τ`.
///
/// Negative entries are discarded first (the paper removes negative
/// infection-MI values before clustering). Non-finite entries (NaN, ±∞)
/// are discarded with them: a NaN has no cluster distance and an infinite
/// value would drag the free centroid to ∞, collapsing every finite value
/// into the pinned cluster — treating both as "no usable correlation" is
/// the same conservative policy as dropping negatives, and keeps this
/// function total over hostile input. Degenerate inputs have a
/// well-defined `τ`:
///
/// * **empty input** (or every entry negative): `τ = 0`, both clusters
///   empty, zero iterations;
/// * **all zeros** (no strictly positive value): `τ = 0`, every value in
///   the pinned cluster, the free cluster empty;
/// * **a single positive value**: it seeds — and stays in — the free
///   cluster, so the pinned cluster is empty and `τ = 0`.
///
/// In every case `τ = 0` keeps *all* positive correlations above threshold,
/// which is the conservative choice when there is no noise mass to fit.
///
/// Runs on a rank-free [`BucketIndex`]: its peak heap is 16 bytes per
/// value plus the bucket bounds (the τ-sample term of
/// [`crate::stream::estimate_streamed_bytes`] budgets for it), and the
/// result is bit-identical to sorting every kept value (see the module
/// docs).
///
/// # Panics
///
/// Panics if `values` holds more than `u32::MAX` entries.
pub fn pinned_two_means(values: &[f64]) -> PinnedKmeans {
    BucketIndex::build(values, false).pinned_two_means()
}

/// Upper bound on the heap [`pinned_two_means`] allocates for `len`
/// values: 8 bytes per kept value for the keys and 8 per finite kept value
/// for the suffix sums (each reserved once, touched only as far as the
/// queries reach), and the bucket counts.
pub(crate) fn two_means_heap_bytes(len: usize) -> u64 {
    let buckets = (SPAN >> (63 - prefix_bits(len))) + 2;
    16 * (len as u64 + 1) + 4 * buckets
}

const SIGN: u64 = 1 << 63;
/// [`order_key`] of `−0.0`, the smallest indexed value.
const NEG_ZERO_KEY: u64 = !SIGN;
/// Offset of `+∞`'s key above [`NEG_ZERO_KEY`]: indexed values have
/// offsets `0..=SPAN`.
const SPAN: u64 = (0x7FF0_0000_0000_0000 | SIGN) - NEG_ZERO_KEY;

/// The IEEE total-order key of `v`: unsigned comparison of keys is
/// `f64::total_cmp`.
#[inline]
fn order_key(v: f64) -> u64 {
    let b = v.to_bits();
    b ^ (((b as i64) >> 63) as u64 | SIGN)
}

/// Inverse of [`order_key`].
#[inline]
fn from_key(k: u64) -> f64 {
    f64::from_bits(if k & SIGN != 0 { k ^ SIGN } else { !k })
}

/// Bucket-prefix width for `len` values: about one bucket per value, from
/// 2⁴ up to 2¹⁶ buckets. A pure function of the length, so an input always
/// buckets the same way.
fn prefix_bits(len: usize) -> u32 {
    (usize::BITS - len.leading_zeros()).clamp(4, 16)
}

/// How many values of an input fall in each bucket of its [`BucketIndex`]
/// — the index's count pass, kept apart so that a producer of the values
/// (the correlation-matrix pass) can count each value as it writes it, and
/// the index never reads the input to count.
///
/// The prefix width is [`prefix_bits`] of the input length, so counts
/// filled value by value equal a count pass over the finished input.
#[derive(Clone, Debug)]
pub(crate) struct BucketCounts {
    shift: u32,
    /// Slot `b + 1` counts bucket `b`; slot 0 counts the dropped values
    /// (negatives and NaN).
    slots: Vec<u32>,
    infinities: usize,
}

impl BucketCounts {
    /// Empty counts for an input of `len` values.
    pub(crate) fn new(len: usize) -> BucketCounts {
        let shift = 63 - prefix_bits(len);
        BucketCounts {
            shift,
            slots: vec![0; (SPAN >> shift) as usize + 2],
            infinities: 0,
        }
    }

    /// The counts of every value of `values`.
    pub(crate) fn of(values: &[f64]) -> BucketCounts {
        let mut counts = BucketCounts::new(values.len());
        counts.add_all(values);
        counts
    }

    /// Counts every value of `values`. Branch-free: the sign of a
    /// correlation is unpredictable.
    #[inline]
    pub(crate) fn add_all(&mut self, values: &[f64]) {
        for &v in values {
            let d = order_key(v).wrapping_sub(NEG_ZERO_KEY);
            let kept = usize::from(d <= SPAN);
            self.slots[kept * (1 + (d >> self.shift) as usize)] += 1;
            self.infinities += usize::from(d == SPAN);
        }
    }

    /// Adds `other`'s counts (same input length) to these.
    pub(crate) fn merge(&mut self, other: &BucketCounts) {
        debug_assert_eq!(self.shift, other.shift);
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            *a += b;
        }
        self.infinities += other.infinities;
    }
}

/// A bucketed, lazily scattered and lazily sorted index over a slice of
/// correlation values — the candidate step's one pass over the pair
/// population (see the module docs).
///
/// Built from the values' bucket counts, it holds the total-order key
/// of every value `≥ −0.0` (`+∞` included, NaN dropped) of the buckets a
/// query has reached, top bucket first, and, when built with ranks, each
/// value's position in the input (its *rank*): at most 12 bytes per kept
/// value, plus one `u32` per bucket. Negative values stay in the input and
/// are gathered only by a query that reaches below zero.
pub struct BucketIndex<'a> {
    values: &'a [f64],
    shift: u32,
    /// `depth[b]`: how many kept values lie in buckets `b..`. Counted from
    /// the largest value down, bucket `b` holds the values of depth
    /// `depth[b + 1]..depth[b]`; `depth[0]` is the kept count and the last
    /// entry is 0.
    depth: Vec<u32>,
    infinities: usize,
    /// Keys of the values of buckets `scattered..`, by depth (`keys[t]` is
    /// the `t`-th largest once sorted). Capacity for every kept value is
    /// reserved at build; only the scattered part is written.
    keys: Vec<u64>,
    /// Input position of each key, when built with ranks.
    ranks: Vec<u32>,
    with_ranks: bool,
    /// Buckets `scattered..` have their keys in `keys`.
    scattered: usize,
    /// Buckets `unsorted..` are sorted by key descending, ties by rank
    /// ascending; `unsorted ≥ scattered`.
    unsorted: usize,
    scratch: Vec<u128>,
}

impl<'a> BucketIndex<'a> {
    /// Indexes `values` with ranks, ready for both
    /// [`pinned_two_means`](Self::pinned_two_means) and
    /// [`candidate_lists`](Self::candidate_lists).
    ///
    /// # Panics
    ///
    /// Panics if `values` holds more than `u32::MAX` entries — ranks are
    /// `u32`, which bounds the dense path at `n ≤ 92,682` nodes (the
    /// pipeline checks [`crate::MAX_DENSE_NODES`] before it allocates
    /// the triangle; the streamed path has no such limit).
    pub fn new(values: &'a [f64]) -> Self {
        Self::build(values, true)
    }

    fn build(values: &'a [f64], with_ranks: bool) -> Self {
        Self::from_counts(values, BucketCounts::of(values), with_ranks)
    }

    /// The index over `values` from their bucket counts, which must equal
    /// `BucketCounts::of(values)` (however they were filled). Scatters
    /// the buckets down to the first cutoff — one pass over the input.
    pub(crate) fn from_counts(values: &'a [f64], counts: BucketCounts, with_ranks: bool) -> Self {
        let mut index = Self::unscattered(values, counts, with_ranks);
        let cutoff = index.first_cutoff();
        index.scatter(cutoff);
        index
    }

    /// The index with nothing scattered yet.
    fn unscattered(values: &'a [f64], counts: BucketCounts, with_ranks: bool) -> Self {
        assert!(
            values.len() <= u32::MAX as usize,
            "the bucketed index addresses at most u32::MAX values, got {}",
            values.len()
        );
        let BucketCounts {
            shift,
            slots: mut depth,
            infinities,
        } = counts;
        debug_assert_eq!(shift, 63 - prefix_bits(values.len()));
        // Slot `s` counts bucket `s − 1`, so a suffix sum shifted down by
        // one turns the slots into depths in place.
        let mut acc = 0u32;
        for s in (1..depth.len()).rev() {
            let count = depth[s];
            depth[s] = acc;
            acc += count;
        }
        depth[0] = acc;
        let kept = acc as usize;
        let buckets = depth.len() - 1;
        BucketIndex {
            values,
            shift,
            depth,
            infinities,
            keys: Vec::with_capacity(kept),
            ranks: Vec::with_capacity(if with_ranks { kept } else { 0 }),
            with_ranks,
            scattered: buckets,
            unsorted: buckets,
            scratch: Vec::new(),
        }
    }

    /// Number of buckets.
    fn buckets(&self) -> usize {
        self.depth.len() - 1
    }

    /// The kept count.
    fn kept(&self) -> usize {
        self.depth[0] as usize
    }

    /// Bucket of a value `≥ −0.0`.
    fn bucket_of(&self, v: f64) -> usize {
        (((order_key(v) - NEG_ZERO_KEY) >> self.shift) as usize).min(self.buckets() - 1)
    }

    /// Depths of bucket `b`'s values.
    fn bucket(&self, b: usize) -> std::ops::Range<usize> {
        self.depth[b + 1] as usize..self.depth[b] as usize
    }

    /// The bucket the build scatters down to — a pure function of the
    /// bucket counts. The pinned 2-means run over the bucket lower edges
    /// (every value rounded down to its bucket's edge, so each bucket is
    /// one weighted point) estimates the bucket of `τ`; the cutoff is the
    /// bucket of half that bucket's edge, which leaves a binade of room for
    /// the estimate's error and for thresholds scaled down to `τ/2`.
    fn first_cutoff(&self) -> usize {
        let buckets = self.buckets();
        let edge = |b: usize| from_key(NEG_ZERO_KEY + ((b as u64) << self.shift));
        let Some(top) = (0..buckets).rev().find(|&b| !self.bucket(b).is_empty()) else {
            return buckets;
        };
        // Buckets `next..` are summed into the free cluster; like the
        // exact centroid, the estimate only moves down, so the sums only
        // grow.
        let (mut next, mut count, mut sum) = (top + 1, 0u64, 0.0f64);
        let (mut c, mut boundary) = (edge(top), top);
        for _ in 0..100 {
            let half = self.bucket_of(c / 2.0);
            while next > half + 1 {
                next -= 1;
                let members = self.bucket(next).len() as u64;
                count += members;
                sum += members as f64 * edge(next);
            }
            if count == 0 || half == boundary {
                break;
            }
            boundary = half;
            c = sum / count as f64;
        }
        self.bucket_of(edge(boundary) / 2.0)
    }

    /// Scatters the values of buckets `lo..scattered` into their key slots
    /// — one pass over the input — and marks them scattered.
    fn scatter(&mut self, lo: usize) {
        let hi = self.scattered;
        self.keys.resize(self.depth[lo] as usize, 0);
        if self.with_ranks {
            self.ranks.resize(self.keys.len(), 0);
        }
        // Entry `b` is bucket `b`'s write cursor: moved to the bucket's
        // first depth, it ends back at `depth[b]` once the bucket is
        // written.
        for b in lo..hi {
            self.depth[b] = self.depth[b + 1];
        }
        // Chunk by chunk: a branch-free pass picks the chunk's values in
        // range (most values lie below the scattered buckets, where a
        // branch would mispredict), then only the picked ones are written.
        const CHUNK: usize = 1024;
        let mut picked = [0u32; CHUNK];
        let (values, shift) = (self.values, self.shift);
        for (c, chunk) in values.chunks(CHUNK).enumerate() {
            let mut k = 0;
            for (o, &v) in chunk.iter().enumerate() {
                let d = order_key(v).wrapping_sub(NEG_ZERO_KEY);
                let b = (d >> shift) as usize;
                picked[k] = o as u32;
                k += usize::from((d <= SPAN) & (b >= lo) & (b < hi));
            }
            for &o in &picked[..k] {
                let r = c * CHUNK + o as usize;
                let d = order_key(values[r]) - NEG_ZERO_KEY;
                let b = (d >> shift) as usize;
                let pos = self.depth[b] as usize;
                self.depth[b] += 1;
                self.keys[pos] = d + NEG_ZERO_KEY;
                if self.with_ranks {
                    self.ranks[pos] = r as u32;
                }
            }
        }
        self.scattered = lo;
    }

    /// Scatters and sorts buckets from the top down until the `depth`
    /// largest kept values are in order. A query that reaches below the
    /// scattered buckets widens them to the highest bucket holding at
    /// least twice as many values as are scattered, so a walk down the
    /// order costs `O(log kept)` passes over the input at most.
    fn reach(&mut self, depth: usize) {
        let scattered = self.depth[self.scattered] as usize;
        if depth > scattered {
            let want = depth.max(2 * scattered);
            let mut lo = self.scattered;
            while lo > 0 && (self.depth[lo] as usize) < want {
                lo -= 1;
            }
            self.scatter(lo);
        }
        while (self.depth[self.unsorted] as usize) < depth {
            self.unsorted -= 1;
            let range = self.bucket(self.unsorted);
            if range.len() < 2 {
                continue;
            }
            if !self.with_ranks {
                self.keys[range].sort_unstable_by(|a, b| b.cmp(a));
            } else {
                // (key, !rank) packed in one integer, sorted descending:
                // keys descending, ties in ascending rank order.
                self.scratch.clear();
                self.scratch.extend(
                    range
                        .clone()
                        .map(|t| u128::from(self.keys[t]) << 32 | u128::from(!self.ranks[t])),
                );
                self.scratch.sort_unstable_by(|a, b| b.cmp(a));
                for (t, &e) in range.zip(&self.scratch) {
                    self.keys[t] = (e >> 32) as u64;
                    self.ranks[t] = !(e as u32);
                }
            }
        }
    }

    /// Number of kept values whose key is at most `key` (a key of a value
    /// `≥ +0.0`), sorting only the buckets at and above `key`'s.
    fn count_at_most(&mut self, key: u64) -> usize {
        let b = ((key - NEG_ZERO_KEY) >> self.shift) as usize;
        let range = self.bucket(b.min(self.buckets() - 1));
        self.reach(range.end);
        let above = range.start + self.keys[range].partition_point(|&k| k > key);
        self.kept() - above
    }

    /// The pinned 2-means of [`pinned_two_means`] over the indexed values,
    /// bit-identical to the sort-based definition.
    pub fn pinned_two_means(&mut self) -> PinnedKmeans {
        const MAX_ITERS: usize = 100;

        // In ascending order the infinities come last: positions
        // `0..finite` are the finite kept values, and position `p` is the
        // value of depth `kept − 1 − p`.
        let kept = self.kept();
        let finite = kept - self.infinities;
        let positive_max = if finite == 0 {
            0.0
        } else {
            self.reach(self.infinities + 1);
            from_key(self.keys[self.infinities])
        };
        if positive_max <= 0.0 {
            return PinnedKmeans {
                tau: 0.0,
                free_centroid: 0.0,
                pinned_count: finite,
                free_count: 0,
                iterations: 0,
            };
        }

        // `suffix[k]` is the sum of the top `k` finite values, accumulated
        // from the maximum down — the order a right-to-left suffix sum
        // over the fully sorted values uses — so each free-cluster mean is
        // an O(1) lookup.
        let mut suffix: Vec<f64> = Vec::with_capacity(finite + 1);
        suffix.push(0.0);

        // Initialize the free centroid at the maximum so the pinned cluster
        // starts as inclusive as possible and shrinks from there.
        let mut c = positive_max;
        let mut boundary_idx = 0usize; // first position in the free cluster
        let mut iterations = 0usize;

        for it in 1..=MAX_ITERS {
            iterations = it;
            // Assignment: v joins the free cluster iff it is strictly closer
            // to c than to 0, i.e. v > c/2: a partition point of the sorted
            // finite values.
            let half = c / 2.0;
            let new_boundary = self.count_at_most(order_key(half)).min(finite);
            // Update: the free centroid moves to the mean of its members; if
            // it would be empty, keep it at the maximum (it then owns at
            // least the max element next round).
            let new_c = if new_boundary < finite {
                let members = finite - new_boundary;
                while suffix.len() <= members {
                    let top = suffix.len();
                    suffix.push(from_key(self.keys[self.infinities + top - 1]) + suffix[top - 1]);
                }
                suffix[members] / members as f64
            } else {
                positive_max
            };
            let converged = new_boundary == boundary_idx && (new_c - c).abs() < 1e-12;
            boundary_idx = new_boundary;
            c = new_c;
            if converged && it > 1 {
                break;
            }
        }

        let tau = if boundary_idx == 0 {
            0.0
        } else {
            self.reach(kept - boundary_idx + 1);
            from_key(self.keys[kept - boundary_idx])
        };
        PinnedKmeans {
            tau,
            free_centroid: c,
            pinned_count: boundary_idx,
            free_count: finite - boundary_idx,
            iterations,
        }
    }

    /// Calls `visit` with the rank of every value strictly above `tau`
    /// (IEEE `>`, so NaN never qualifies and `+0.0` is not above `−0.0`),
    /// in (value descending, rank ascending) order, and returns how many
    /// there were. Negative values are gathered from the input only when
    /// `tau < 0`.
    fn for_each_above(&mut self, tau: f64, mut visit: impl FnMut(u32)) -> u64 {
        let kept = self.kept();
        let mut t = 0;
        while t < kept {
            self.reach(t + 1);
            while t < self.depth[self.unsorted] as usize {
                let value = from_key(self.keys[t]);
                if value.partial_cmp(&tau) != Some(std::cmp::Ordering::Greater) {
                    return t as u64;
                }
                visit(self.ranks[t]);
                t += 1;
            }
        }
        let mut above = kept as u64;
        // Every kept value is above τ; negatives can be too only if τ < 0.
        if tau < 0.0 {
            let mut negatives: Vec<u128> = self
                .values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v < 0.0 && v > tau)
                .map(|(r, &v)| u128::from(order_key(v)) << 32 | u128::from(!(r as u32)))
                .collect();
            negatives.sort_unstable();
            above += negatives.len() as u64;
            for e in negatives.iter().rev() {
                visit(!(*e as u32));
            }
        }
        above
    }

    /// Algorithm 1 lines 10–12 over an index of the `n`-node upper
    /// triangle (row-major, `(0,1), (0,2), …`): every node's partners with
    /// a value strictly above `tau`, in (value descending, id ascending)
    /// order, truncated to `max_candidates`; plus the number of pairs
    /// above `tau`.
    ///
    /// # Panics
    ///
    /// Panics if the indexed slice is not an `n`-node triangle.
    pub fn candidate_lists(
        &mut self,
        n: usize,
        tau: f64,
        max_candidates: usize,
    ) -> (Vec<Vec<NodeId>>, u64) {
        assert_eq!(
            self.values.len(),
            n * n.saturating_sub(1) / 2,
            "the index must cover the {n}-node upper triangle"
        );
        // `row_end[i]`: one past the last rank of row i.
        let mut row_end = Vec::with_capacity(n);
        let mut end = 0u32;
        for i in 0..n {
            end += (n - 1 - i) as u32;
            row_end.push(end);
        }
        let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let above = self.for_each_above(tau, |rank| {
            let i = row_end.partition_point(|&e| e <= rank);
            let row_start = row_end[i] - (n - 1 - i) as u32;
            let j = i + 1 + (rank - row_start) as usize;
            if lists[i].len() < max_candidates {
                lists[i].push(j as NodeId);
            }
            if lists[j].len() < max_candidates {
                lists[j].push(i as NodeId);
            }
        });
        (lists, above)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imi::CorrelationMatrix;
    use crate::search::candidate_parents;
    use crate::ThresholdMode;
    use proptest::prelude::*;

    /// The sort-based definition the index must reproduce bit for bit:
    /// filter, sort every kept value, suffix sums right to left.
    fn sort_based(values: &[f64]) -> PinnedKmeans {
        const MAX_ITERS: usize = 100;

        let mut vals: Vec<f64> = values
            .iter()
            .copied()
            .filter(|&v| v.is_finite() && v >= 0.0)
            .collect();
        vals.sort_unstable_by(f64::total_cmp);

        let positive_max = vals.last().copied().unwrap_or(0.0);
        if positive_max <= 0.0 {
            return PinnedKmeans {
                tau: 0.0,
                free_centroid: 0.0,
                pinned_count: vals.len(),
                free_count: 0,
                iterations: 0,
            };
        }
        let mut suffix = vec![0.0f64; vals.len() + 1];
        for i in (0..vals.len()).rev() {
            suffix[i] = vals[i] + suffix[i + 1];
        }
        let mut c = positive_max;
        let mut boundary_idx = 0usize;
        let mut iterations = 0usize;
        for it in 1..=MAX_ITERS {
            iterations = it;
            let half = c / 2.0;
            let new_boundary = vals.partition_point(|&v| v <= half);
            let new_c = if new_boundary < vals.len() {
                suffix[new_boundary] / (vals.len() - new_boundary) as f64
            } else {
                positive_max
            };
            let converged = new_boundary == boundary_idx && (new_c - c).abs() < 1e-12;
            boundary_idx = new_boundary;
            c = new_c;
            if converged && it > 1 {
                break;
            }
        }
        let tau = if boundary_idx == 0 {
            0.0
        } else {
            vals[boundary_idx - 1]
        };
        PinnedKmeans {
            tau,
            free_centroid: c,
            pinned_count: boundary_idx,
            free_count: vals.len() - boundary_idx,
            iterations,
        }
    }

    /// All five fields, floats compared as bits.
    fn bits(r: &PinnedKmeans) -> (u64, u64, usize, usize, usize) {
        (
            r.tau.to_bits(),
            r.free_centroid.to_bits(),
            r.pinned_count,
            r.free_count,
            r.iterations,
        )
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// IMI-shaped values: a signed noise mass around 0 and a sparse
    /// positive signal, with exact duplicates.
    fn imi_like(len: usize, seed: u64) -> Vec<f64> {
        let mut next = xorshift(seed);
        (0..len)
            .map(|_| {
                let r = next();
                let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
                match r % 20 {
                    0 => 0.2 + 0.6 * unit,
                    1 => 0.0,
                    2 => 0.125,
                    _ => (unit - 0.45) * 0.01,
                }
            })
            .collect()
    }

    #[test]
    fn a_value_at_exactly_half_the_centroid_stays_pinned() {
        let r = pinned_two_means(&[0.5, 1.0]);
        assert_eq!(bits(&r), bits(&sort_based(&[0.5, 1.0])));
        assert_eq!((r.tau, r.pinned_count, r.free_count), (0.5, 1, 1));
    }

    #[test]
    fn order_keys_follow_the_total_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::from_bits(1),
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        for v in vals {
            assert_eq!(from_key(order_key(v)).to_bits(), v.to_bits());
        }
        assert_eq!(order_key(-0.0), NEG_ZERO_KEY);
        assert_eq!(order_key(f64::INFINITY) - NEG_ZERO_KEY, SPAN);
    }

    #[test]
    fn prefix_width_is_a_function_of_the_length() {
        assert_eq!(prefix_bits(0), 4);
        assert_eq!(prefix_bits(1), 4);
        assert_eq!(prefix_bits(300), 9);
        assert_eq!(prefix_bits(499_500), 16);
        assert_eq!(prefix_bits(usize::MAX), 16);
    }

    #[test]
    fn large_inputs_match_the_sort_based_definition() {
        // 2¹⁶ buckets, many of them empty; the two lengths put the sorted
        // region's boundary in different buckets.
        for (len, seed) in [(100_000usize, 7u64), (499_500, 8)] {
            let vals = imi_like(len, seed);
            let index = pinned_two_means(&vals);
            assert_eq!(bits(&index), bits(&sort_based(&vals)), "len {len}");
            assert!(index.free_count > 0 && index.pinned_count > 0);
            let ranked = BucketIndex::new(&vals).pinned_two_means();
            assert_eq!(bits(&ranked), bits(&index), "ranks must not change τ");
        }
    }

    #[test]
    fn the_index_sorts_only_the_buckets_a_query_reaches() {
        let vals = imi_like(499_500, 9);
        let mut index = BucketIndex::new(&vals);
        let scattered = index.depth[index.scattered] as usize;
        let r = index.pinned_two_means();
        let kept = index.kept();
        let sorted = index.depth[index.unsorted] as usize;
        assert!(
            scattered < kept / 2 && sorted < kept / 2,
            "scattered {scattered} and sorted {sorted} of {kept} kept values"
        );
        assert_eq!(
            index.depth[index.scattered] as usize, scattered,
            "the first cutoff covers the 2-means"
        );
        // τ, the largest pinned value, lies inside the sorted region.
        assert!(sorted > r.free_count + index.infinities);
    }

    /// The index with its first scatter forced down to bucket `cutoff`
    /// (`None`: the top bucket, so every query widens it).
    fn forced(values: &[f64], with_ranks: bool, cutoff: Option<usize>) -> BucketIndex<'_> {
        let mut index = BucketIndex::unscattered(values, BucketCounts::of(values), with_ranks);
        let top = index.buckets() - 1;
        index.scatter(cutoff.unwrap_or(top));
        index
    }

    #[test]
    fn counts_filled_piecewise_equal_a_count_pass() {
        let mut vals = imi_like(10_000, 3);
        vals.extend([f64::INFINITY, f64::NAN, -0.0, f64::MAX, f64::INFINITY]);
        let mut halves = [BucketCounts::new(vals.len()), BucketCounts::new(vals.len())];
        for (k, chunk) in vals.chunks(7).enumerate() {
            halves[k % 2].add_all(chunk);
        }
        let [mut merged, odd] = halves;
        merged.merge(&odd);
        let whole = BucketCounts::of(&vals);
        assert_eq!(
            (merged.slots, merged.infinities),
            (whole.slots, whole.infinities)
        );
    }

    /// Values that stress the index: signed zeros, NaN of both signs, ±∞,
    /// subnormals, extremes, a signed spread, IMI-like magnitudes, and keys
    /// a few ulps either side of a bucket edge at every prefix width.
    fn hostile_value() -> impl Strategy<Value = f64> {
        (
            (0u8..13, any::<u64>()),
            (-1.0f64..1.0, -40i32..2),
            (4u32..=16, -2i64..=2),
        )
            .prop_map(|((kind, raw), (unit, exp), (bits, delta))| match kind {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => -f64::NAN,
                4 => f64::INFINITY,
                5 => f64::NEG_INFINITY,
                6 => f64::MAX,
                7 => f64::MIN_POSITIVE,
                8 => f64::from_bits(raw % (1 << 52)),
                9 => -f64::from_bits(raw % (1 << 52)),
                10 => unit,
                11 => unit.abs() * 2f64.powi(exp),
                _ => {
                    let shift = 63 - bits;
                    let edge = (raw % ((SPAN >> shift) + 1)) << shift;
                    from_key(NEG_ZERO_KEY.wrapping_add(edge.wrapping_add(delta as u64)))
                }
            })
    }

    /// Inputs drawn with replacement from a small pool of hostile values
    /// and their halves, so duplicates are common and the first
    /// assignment's `max/2` often lands exactly on a value; a third are
    /// made all-negative.
    fn hostile_values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
        (
            proptest::collection::vec(hostile_value(), 1..24),
            proptest::collection::vec(any::<usize>(), 0..max_len),
            0u8..3,
        )
            .prop_map(|(pool, picks, sign)| {
                let pool: Vec<f64> = pool.iter().flat_map(|&v| [v, v / 2.0]).collect();
                picks
                    .iter()
                    .map(|p| {
                        let v = pool[p % pool.len()];
                        if sign == 0 {
                            -v.abs()
                        } else {
                            v
                        }
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn index_two_means_is_the_sort_based_one_bit_for_bit(values in hostile_values(300)) {
            let reference = sort_based(&values);
            prop_assert_eq!(bits(&pinned_two_means(&values)), bits(&reference));
            prop_assert_eq!(bits(&BucketIndex::new(&values).pinned_two_means()), bits(&reference));
        }
    }

    /// The threshold modes the candidate step sees, including the ones
    /// that walk below zero.
    fn threshold_mode() -> impl Strategy<Value = ThresholdMode> {
        (0u8..6, -2.0f64..-1e-9, hostile_value(), 0.0f64..3.0).prop_map(
            |(kind, negative, hostile, scale)| match kind {
                0 => ThresholdMode::Auto,
                1 => ThresholdMode::Fixed(0.0),
                2 => ThresholdMode::Fixed(-0.0),
                3 => ThresholdMode::Fixed(negative),
                4 => ThresholdMode::Fixed(hostile),
                _ => ThresholdMode::ScaledAuto(scale),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn index_candidates_match_per_row_thresholding(
            n in 0usize..24,
            pool in hostile_values(300),
            mode in threshold_mode(),
            max_candidates in 0usize..8,
        ) {
            let pairs = n * n.saturating_sub(1) / 2;
            let upper: Vec<f64> = (0..pairs)
                .map(|r| pool.get(r % pool.len().max(1)).copied().unwrap_or(0.5))
                .collect();
            let corr = CorrelationMatrix::from_upper(n, upper);
            let mut index = BucketIndex::new(corr.upper());
            let tau = mode.apply(index.pinned_two_means().tau);
            let (lists, above) = index.candidate_lists(n, tau, max_candidates);
            for (i, list) in lists.iter().enumerate() {
                prop_assert_eq!(
                    list,
                    &candidate_parents(&corr, i as NodeId, tau, max_candidates),
                    "node {} at τ = {}", i, tau
                );
            }
            let direct = corr.upper().iter().filter(|&&v| v > tau).count() as u64;
            prop_assert_eq!(above, direct);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The first scatter forced to the top bucket (every query widens
        /// the index, as far down as it reaches) and to bucket 0 (the
        /// whole input scattered at once): τ, every 2-means field, the
        /// candidate lists and `pairs_above_tau` stay those of the
        /// sort-based reference and per-row thresholding.
        #[test]
        fn forced_cutoffs_keep_every_result(
            n in 0usize..24,
            pool in hostile_values(300),
            mode in threshold_mode(),
            max_candidates in 0usize..8,
        ) {
            let pairs = n * n.saturating_sub(1) / 2;
            let upper: Vec<f64> = (0..pairs)
                .map(|r| pool.get(r % pool.len().max(1)).copied().unwrap_or(0.5))
                .collect();
            let reference = sort_based(&upper);
            let corr = CorrelationMatrix::from_upper(n, upper);
            for cutoff in [None, Some(0)] {
                prop_assert_eq!(
                    bits(&forced(corr.upper(), false, cutoff).pinned_two_means()),
                    bits(&reference)
                );
                let mut index = forced(corr.upper(), true, cutoff);
                let kmeans = index.pinned_two_means();
                prop_assert_eq!(bits(&kmeans), bits(&reference));
                let tau = mode.apply(kmeans.tau);
                let (lists, above) = index.candidate_lists(n, tau, max_candidates);
                for (i, list) in lists.iter().enumerate() {
                    prop_assert_eq!(
                        list,
                        &candidate_parents(&corr, i as NodeId, tau, max_candidates),
                        "node {} at τ = {}, cutoff {:?}", i, tau, cutoff
                    );
                }
                let direct = corr.upper().iter().filter(|&&v| v > tau).count() as u64;
                prop_assert_eq!(above, direct);
            }
        }
    }

    #[test]
    fn forced_cutoffs_on_a_large_input() {
        // 2¹⁶ buckets: widening from the top bucket takes several passes.
        let vals = imi_like(100_000, 17);
        let reference = sort_based(&vals);
        for cutoff in [None, Some(0)] {
            let mut index = forced(&vals, true, cutoff);
            assert_eq!(
                bits(&index.pinned_two_means()),
                bits(&reference),
                "{cutoff:?}"
            );
            let direct = vals.iter().filter(|&&v| v > reference.tau).count() as u64;
            assert_eq!(index.for_each_above(reference.tau, |_| {}), direct);
            let below = -0.001;
            let direct = vals.iter().filter(|&&v| v > below).count() as u64;
            assert_eq!(index.for_each_above(below, |_| {}), direct);
        }
    }

    #[test]
    fn candidate_walk_reads_ties_in_rank_order() {
        // n = 4, triangle ranks: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
        let upper = vec![0.5, 0.9, 0.5, 0.5, -0.25, 0.0];
        let corr = CorrelationMatrix::from_upper(4, upper);
        let mut index = BucketIndex::new(corr.upper());
        let (lists, above) = index.candidate_lists(4, -0.0, 8);
        assert_eq!(above, 4, "+0.0 is not above −0.0");
        assert_eq!(lists[0], vec![2, 1, 3]);
        assert_eq!(lists[1], vec![0, 2]);
        assert_eq!(lists[3], vec![0]);
        let (lists, above) = index.candidate_lists(4, -1.0, 2);
        assert_eq!(above, 6);
        assert_eq!(lists[3], vec![0, 2], "−0.25 ranks below 0.0");
        assert_eq!(lists[1], vec![0, 2]);
    }

    #[test]
    fn two_well_separated_groups() {
        // Noise near 0, signal near 0.8.
        let mut vals = vec![0.001, 0.002, 0.0005, 0.003, 0.0];
        vals.extend([0.75, 0.8, 0.85, 0.78]);
        let r = pinned_two_means(&vals);
        assert!(r.tau >= 0.003 && r.tau < 0.75, "τ = {}", r.tau);
        assert_eq!(r.pinned_count, 5);
        assert_eq!(r.free_count, 4);
        assert!((r.free_centroid - 0.795).abs() < 0.01);
    }

    #[test]
    fn negatives_are_discarded() {
        let vals = vec![-0.5, -0.1, 0.001, 0.9];
        let r = pinned_two_means(&vals);
        assert_eq!(r.pinned_count + r.free_count, 2);
        assert!(r.tau < 0.9);
    }

    #[test]
    fn empty_input() {
        let r = pinned_two_means(&[]);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.free_count, 0);
    }

    #[test]
    fn all_zeros() {
        let r = pinned_two_means(&[0.0, 0.0, 0.0]);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.pinned_count, 3);
        assert_eq!(r.free_count, 0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn all_negatives_behave_like_empty_input() {
        let r = pinned_two_means(&[-0.4, -0.1, -2.0]);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.pinned_count, 0);
        assert_eq!(r.free_count, 0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn single_positive_value_goes_to_free_cluster() {
        let r = pinned_two_means(&[0.7]);
        assert_eq!(r.tau, 0.0, "nothing left in the pinned cluster");
        assert_eq!(r.free_count, 1);
        assert!((r.free_centroid - 0.7).abs() < 1e-12);
    }

    #[test]
    fn uniform_positive_values_split_at_half_centroid() {
        // Values spread uniformly: the pinned cluster takes the lower part.
        let vals: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let r = pinned_two_means(&vals);
        assert!(r.pinned_count > 10 && r.free_count > 10);
        assert!(r.tau > 0.0 && r.tau < 1.0);
        // τ must separate the clusters exactly.
        assert!(vals.iter().filter(|&&v| v <= r.tau).count() == r.pinned_count);
    }

    #[test]
    fn threshold_excludes_signal_in_realistic_mix() {
        // 95% near-zero noise plus 5% strong signal, like real IMI matrices.
        let mut vals: Vec<f64> = (0..950).map(|i| (i % 13) as f64 * 1e-4).collect();
        vals.extend((0..50).map(|i| 0.3 + (i % 7) as f64 * 0.01));
        let r = pinned_two_means(&vals);
        assert!(
            r.tau < 0.3,
            "signal must survive the threshold, τ = {}",
            r.tau
        );
        assert!(r.free_count >= 50);
    }

    #[test]
    fn non_finite_values_are_discarded_not_fatal() {
        // NaN used to panic the sort comparator; +∞ survived the `>= 0`
        // filter and poisoned the free-centroid mean. Both must now act
        // like discarded negatives.
        let with_nan = vec![f64::NAN, 0.001, 0.002, 0.8, 0.85];
        let r = pinned_two_means(&with_nan);
        assert_eq!(r.pinned_count + r.free_count, 4);
        assert!(r.tau >= 0.002 && r.tau < 0.8, "τ = {}", r.tau);

        let with_inf = vec![f64::INFINITY, 0.001, 0.002, 0.8, 0.85];
        let r = pinned_two_means(&with_inf);
        assert!(r.free_centroid.is_finite(), "centroid {}", r.free_centroid);
        assert!(r.tau >= 0.002 && r.tau < 0.8, "τ = {}", r.tau);

        let clean = pinned_two_means(&[0.001, 0.002, 0.8, 0.85]);
        let junk = pinned_two_means(&[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.001,
            0.002,
            0.8,
            0.85,
        ]);
        assert_eq!(junk, clean, "junk values must not shift the result");
    }

    #[test]
    fn all_non_finite_behaves_like_empty_input() {
        let r = pinned_two_means(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.pinned_count, 0);
        assert_eq!(r.free_count, 0);
    }

    #[test]
    fn converges_quickly() {
        let vals: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let r = pinned_two_means(&vals);
        assert!(r.iterations < 50, "iterations {}", r.iterations);
    }
}
