//! The TENDS scoring criterion (paper §IV-A).
//!
//! For node `v_i` with parent set `F_i`, the observed counts `N_ijk` (how
//! often parent-status combination `j` co-occurs with child status `s_k`)
//! determine:
//!
//! * the log-likelihood `log₂ L(v_i, F_i) = Σ_j Σ_k N_ijk log₂(N_ijk/N_ij)`
//!   (Eq. 3) — which, by Theorem 1, can only grow as parents are added;
//! * the penalty `½ Σ_j log₂(N_ij + 1)` — which grows with the number of
//!   *instantiated* combinations and bounds the statistical error;
//! * the local score `g(v_i, F_i)` = likelihood − penalty (Eq. 13), whose
//!   maximizer is a weakly consistent estimator of the true parent set
//!   (Corollary 1, via Nishii 1988);
//! * the Theorem-2 upper bound `|F_i| ≤ log₂(φ_{F_i} + δ_i)` on how many
//!   parents are worth considering at all.
//!
//! All logarithms are base 2, following the paper.

use std::sync::OnceLock;

use crate::imi::Log2Table;

/// Counts `N_ijk` for one parent-status combination `j`: `[N_ij1, N_ij2]`
/// with the paper's convention `s₁ = 0` (uninfected), `s₂ = 1` (infected).
pub type ComboCounts = [u64; 2];

/// Exclusive bound on the cell totals `N_ij` the scoring tables cover.
///
/// A cell total never exceeds β, so at paper scale (β = 150) every cell
/// is a lookup; larger totals fall back to the direct expressions. 256
/// keeps the triangular likelihood table at 257 KiB.
const TABLE_BOUND: u64 = 256;

/// Per-cell terms of the local score for every cell with `N_ij <
/// TABLE_BOUND`, built once per process.
///
/// Each entry is produced by the same expression the fallback evaluates,
/// so a lookup returns the same bits as computing the term directly, and
/// the sums over cells (which keep their order) are bit-identical too.
struct ScoreTables {
    /// Row `t` (starting at `t(t+1)/2`) holds, at column `n1 ≤ t`,
    /// `x_log2_ratio(n1, t) + x_log2_ratio(t − n1, t)`.
    likelihood: Vec<f64>,
    /// `log₂ k` for `k ≤ TABLE_BOUND`: the penalty term `log₂(N_ij + 1)`.
    log2: Log2Table,
}

fn tables() -> &'static ScoreTables {
    static TABLES: OnceLock<ScoreTables> = OnceLock::new();
    TABLES.get_or_init(|| ScoreTables {
        likelihood: (0..TABLE_BOUND)
            .flat_map(|t| (0..=t).map(move |n1| cell_likelihood(n1, t - n1)))
            .collect(),
        log2: Log2Table::new(TABLE_BOUND),
    })
}

/// `x · log₂(x / total)` with the standard convention `0 · log 0 = 0`.
#[inline]
fn x_log2_ratio(x: u64, total: u64) -> f64 {
    if x == 0 {
        0.0
    } else {
        debug_assert!(total >= x);
        x as f64 * (x as f64 / total as f64).log2()
    }
}

/// One cell's likelihood term `Σ_k N_ijk log₂(N_ijk / N_ij)`.
#[inline]
fn cell_likelihood(n1: u64, n2: u64) -> f64 {
    let nij = n1 + n2;
    x_log2_ratio(n1, nij) + x_log2_ratio(n2, nij)
}

impl ScoreTables {
    /// [`cell_likelihood`]`(n1, n2)`.
    #[inline]
    fn likelihood(&self, n1: u64, n2: u64) -> f64 {
        let nij = n1 + n2;
        if nij < TABLE_BOUND {
            self.likelihood[(nij * (nij + 1) / 2 + n1) as usize]
        } else {
            cell_likelihood(n1, n2)
        }
    }

    /// The cell's penalty term `log₂(N_ij + 1)`.
    #[inline]
    fn penalty(&self, n1: u64, n2: u64) -> f64 {
        let nij = n1 + n2;
        if nij < TABLE_BOUND {
            self.log2.log2(nij + 1)
        } else {
            ((nij + 1) as f64).log2()
        }
    }
}

/// `log₂ L(v_i, F_i)` (Eq. 3): the maximized log-likelihood of the child's
/// statuses given its parents' status combinations.
///
/// Always `≤ 0`; equals 0 iff the child's status is a deterministic
/// function of the parents' combination wherever instantiated.
pub fn log_likelihood(counts: &[ComboCounts]) -> f64 {
    let t = tables();
    counts.iter().map(|&[n1, n2]| t.likelihood(n1, n2)).sum()
}

/// The statistical-error penalty `½ Σ_j log₂(N_ij + 1)` of Eq. (12).
pub fn penalty(counts: &[ComboCounts]) -> f64 {
    let t = tables();
    0.5 * counts
        .iter()
        .map(|&[n1, n2]| t.penalty(n1, n2))
        .sum::<f64>()
}

/// The local score `g(v_i, F_i)` (Eq. 13).
pub fn local_score(counts: &[ComboCounts]) -> f64 {
    log_likelihood(counts) - penalty(counts)
}

/// `φ_F`: the number of parent-status combinations with no instance in `S`.
pub fn phi(counts: &[ComboCounts]) -> usize {
    counts.iter().filter(|&&[n1, n2]| n1 + n2 == 0).count()
}

/// [`local_score`] and [`phi`] of one table in a single pass over it,
/// bit-identical to calling both.
///
/// The likelihood and penalty sums add the same terms in the same cell
/// order as [`log_likelihood`] and [`penalty`] do. Empty cells are summed
/// too (they add `+0.0`), so the loop has no data-dependent branch.
pub fn evaluate(counts: &[ComboCounts]) -> CachedScore {
    let t = tables();
    let (mut likelihood, mut penalty, mut phi) = (0.0f64, 0.0f64, 0usize);
    for &[n1, n2] in counts {
        phi += usize::from(n1 + n2 == 0);
        likelihood += t.likelihood(n1, n2);
        penalty += t.penalty(n1, n2);
    }
    CachedScore {
        score: likelihood - 0.5 * penalty,
        phi,
    }
}

/// `δ_i = 2N₁log₂(β/N₁) + 2N₂log₂(β/N₂) + log₂(β+1)` (Theorem 2, Eq. 17),
/// where `N₁`/`N₂` count the processes in which `v_i` is uninfected /
/// infected (`N₁ + N₂ = β`). Terms with `N = 0` vanish (`0·log(β/0) := 0`,
/// consistent with the entropy limit).
///
/// # Panics
///
/// Panics if `n1 + n2 != beta`.
pub fn delta(beta: u64, n1: u64, n2: u64) -> f64 {
    assert_eq!(n1 + n2, beta, "N₁ + N₂ must equal β");
    let term = |n: u64| {
        if n == 0 {
            0.0
        } else {
            2.0 * n as f64 * (beta as f64 / n as f64).log2()
        }
    };
    term(n1) + term(n2) + ((beta + 1) as f64).log2()
}

/// The Theorem-2 bound: the largest admissible parent-set size
/// `log₂(φ + δ)` for a node with non-existent-combination count `φ` and
/// slack `δ` ([`delta`]).
pub fn parent_bound(phi: usize, delta: f64) -> f64 {
    (phi as f64 + delta).max(1.0).log2()
}

/// Whether a parent set of size `size` with non-existent-combination count
/// `phi_f` satisfies Theorem 2's `|F| ≤ log₂(φ_F + δ)`.
pub fn within_bound(size: usize, phi_f: usize, delta: f64) -> bool {
    size as f64 <= parent_bound(phi_f, delta)
}

/// The decomposed global score `g(T) = Σ_i g(v_i, F_i)` (Eq. 12) given each
/// node's combination counts.
pub fn global_score<'a, I>(per_node_counts: I) -> f64
where
    I: IntoIterator<Item = &'a Vec<ComboCounts>>,
{
    per_node_counts.into_iter().map(|c| local_score(c)).sum()
}

/// What the score cache did during one search (or a sum over many).
///
/// Kept separate from `SearchStats` deliberately: the reference search has
/// no cache, and the equivalence oracle asserts the cached path's
/// `SearchStats` are *identical* to the reference's — evaluations still
/// count on a hit, only the workspace refinement is skipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScoreCacheStats {
    /// Evaluations answered from the cache (no workspace refinement).
    pub hits: u64,
    /// Evaluations that refined the workspace and populated the cache.
    pub misses: u64,
}

impl ScoreCacheStats {
    /// Field-wise sum with another stats record.
    pub fn merge(&mut self, other: &ScoreCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// A memoized evaluation of `g(v_i, F)`: everything the search needs to
/// reuse a subset's score without recounting — the local score itself and
/// the `φ_F` that drives the Theorem-2 bound check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CachedScore {
    /// `g(v_i, F)` ([`local_score`]).
    pub score: f64,
    /// `φ_F` ([`phi`]), for [`within_bound`] checks without the counts.
    pub phi: usize,
}

/// Cross-round memo of `g(v_i, F ∪ W)` keyed on the candidate-subset
/// bitmask.
///
/// Every set the greedy search scores is a union of candidate combinations,
/// i.e. a subset of the node's (post-pruning) candidate list — and that
/// list is at most a few dozen nodes, so a subset is one `u64` with bit `t`
/// standing for candidate `t`. Greedy rounds re-probe subsets already
/// scored during enumeration (round one re-scores every combination
/// verbatim), and the exhaustive strategy re-visits every enumerated
/// combination; both hit this cache instead of counting the subset's
/// table again.
///
/// The memo is one open-addressed slot array: a key's home slot is the
/// top bits of its Fibonacci hash (one multiply), and a probe walks
/// forward from there to the key or to the first free slot. The array
/// doubles — re-inserting the live entries — before it gets more than
/// half full, so every probe ends within a few slots. Slots are stamped
/// with a generation, and a slot from an older one counts as free, so
/// [`reset`](Self::reset) clears nothing; only when the 32-bit stamp
/// wraps are the stamps themselves cleared.
///
/// A cached score was computed from the exact counts table (same sorted
/// parent order, same summation order) a fresh evaluation would build, so
/// reuse is bit-identical. The cache is per-child: callers must
/// [`reset`](Self::reset) it between nodes.
///
/// Every [`get`](Self::get) counts a hit or a miss; the search
/// [`insert`](Self::insert)s a subset's score right after the miss that
/// counted it.
#[derive(Clone, Debug)]
pub struct ScoreCache {
    /// Power-of-two slot array (empty until the first insert).
    slots: Vec<Slot>,
    /// `64 − log₂(slots.len())`: the hash bits that pick a home slot.
    shift: u32,
    /// Entries stamped with the current generation.
    len: usize,
    /// The live generation; never 0, the stamp of a never-used slot.
    generation: u32,
    stats: ScoreCacheStats,
}

/// One memo slot: live while `generation` is the cache's.
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: u64,
    generation: u32,
    value: CachedScore,
}

impl Slot {
    const FREE: Slot = Slot {
        key: 0,
        generation: 0,
        value: CachedScore { score: 0.0, phi: 0 },
    };
}

/// Slots of the first allocation: room for 32 entries, about the
/// number of tables one node's search counts at paper scale.
const MIN_SLOTS: usize = 64;

impl Default for ScoreCache {
    fn default() -> Self {
        ScoreCache {
            slots: Vec::new(),
            shift: 64,
            len: 0,
            generation: 1,
            stats: ScoreCacheStats::default(),
        }
    }
}

impl ScoreCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScoreCache::default()
    }

    /// Starts a new child node: every entry becomes stale and the
    /// counters restart, in O(1) — except once every `2^32 − 1` resets,
    /// when the generation wraps and the stamps are cleared.
    pub fn reset(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill(Slot::FREE);
            self.generation = 1;
        }
        self.len = 0;
        self.stats = ScoreCacheStats::default();
    }

    /// The slot holding `key`, or the free slot where it would go.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let slot = &self.slots[at];
            if slot.generation != self.generation || slot.key == key {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// The memoized evaluation of a subset, counting a hit if there is
    /// one and a miss otherwise.
    pub fn get(&mut self, key: u64) -> Option<CachedScore> {
        let value = if self.len == 0 {
            None
        } else {
            let slot = &self.slots[self.probe(key)];
            (slot.generation == self.generation).then_some(slot.value)
        };
        match value {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        value
    }

    /// Memoizes a subset's evaluation, replacing any earlier one.
    pub fn insert(&mut self, key: u64, value: CachedScore) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let at = self.probe(key);
        let slot = &mut self.slots[at];
        if slot.generation != self.generation {
            self.len += 1;
        }
        *slot = Slot {
            key,
            generation: self.generation,
            value,
        };
    }

    /// Doubles the slot array (or allocates the first one) and
    /// re-inserts the live entries.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot::FREE; size]);
        self.shift = 64 - size.trailing_zeros();
        for slot in old {
            if slot.generation == self.generation {
                let at = self.probe(slot.key);
                self.slots[at] = slot;
            }
        }
    }

    /// Hit/miss counters since the last [`reset`](Self::reset).
    pub fn stats(&self) -> ScoreCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The direct formula the likelihood table replaces.
    fn oracle_log_likelihood(counts: &[ComboCounts]) -> f64 {
        counts
            .iter()
            .map(|&[n1, n2]| {
                let nij = n1 + n2;
                x_log2_ratio(n1, nij) + x_log2_ratio(n2, nij)
            })
            .sum()
    }

    /// The direct formula the penalty table replaces.
    fn oracle_penalty(counts: &[ComboCounts]) -> f64 {
        0.5 * counts
            .iter()
            .map(|&[n1, n2]| ((n1 + n2 + 1) as f64).log2())
            .sum::<f64>()
    }

    fn oracle_local_score(counts: &[ComboCounts]) -> f64 {
        oracle_log_likelihood(counts) - oracle_penalty(counts)
    }

    #[test]
    fn tables_match_the_formulas_bit_for_bit_across_the_bound() {
        for total in 0..=TABLE_BOUND + 2 {
            for x in 0..=total {
                let cell = [[x, total - x]];
                assert_eq!(
                    log_likelihood(&cell).to_bits(),
                    oracle_log_likelihood(&cell).to_bits(),
                    "likelihood of {cell:?}"
                );
                assert_eq!(
                    penalty(&cell).to_bits(),
                    oracle_penalty(&cell).to_bits(),
                    "penalty of {cell:?}"
                );
                assert_eq!(
                    local_score(&cell).to_bits(),
                    oracle_local_score(&cell).to_bits(),
                    "local score of {cell:?}"
                );
            }
        }
        assert_eq!(
            local_score(&[]).to_bits(),
            oracle_local_score(&[]).to_bits()
        );
    }

    /// A count cell with a total of at most `max_total`: empty,
    /// one-sided, or two-sided.
    fn cell(max_total: u64) -> impl Strategy<Value = ComboCounts> {
        let half = max_total / 2;
        (0u8..4, 0..=half, 0..=half).prop_map(|(kind, a, b)| match kind {
            0 => [0, 0],
            1 => [a, 0],
            2 => [0, b],
            _ => [a, b],
        })
    }

    /// A counts table of 1 to 2¹⁰ cells whose totals stay below
    /// `2^bits`, for `bits` up to 20. Small scales keep every cell in
    /// the tables; at large ones the big cells dominate the sums.
    fn counts() -> impl Strategy<Value = Vec<ComboCounts>> {
        (0u32..=20).prop_flat_map(|bits| proptest::collection::vec(cell(1 << bits), 1..=1 << 10))
    }

    proptest! {
        #[test]
        fn one_pass_evaluation_matches_score_and_phi(counts in counts()) {
            let got = evaluate(&counts);
            prop_assert_eq!(got.score.to_bits(), local_score(&counts).to_bits());
            prop_assert_eq!(got.phi, phi(&counts));
        }

        #[test]
        fn table_scores_match_the_formulas_bit_for_bit(counts in counts()) {
            prop_assert_eq!(
                log_likelihood(&counts).to_bits(),
                oracle_log_likelihood(&counts).to_bits()
            );
            prop_assert_eq!(penalty(&counts).to_bits(), oracle_penalty(&counts).to_bits());
            prop_assert_eq!(
                local_score(&counts).to_bits(),
                oracle_local_score(&counts).to_bits()
            );
        }
    }

    #[test]
    fn one_pass_evaluation_of_empty_and_all_empty_tables() {
        for counts in [vec![], vec![[0, 0]], vec![[0, 0]; 4]] {
            let got = evaluate(&counts);
            assert_eq!(got.score.to_bits(), local_score(&counts).to_bits());
            assert_eq!(got.phi, phi(&counts));
        }
    }

    #[test]
    fn cache_probes_count_one_miss_per_key() {
        let mut cache = ScoreCache::new();
        let value = CachedScore {
            score: -3.5,
            phi: 1,
        };
        assert_eq!(cache.get(7), None);
        cache.insert(7, value);
        assert_eq!(cache.get(7), Some(value));
        assert_eq!(cache.get(9), None);
        assert_eq!(cache.get(7), Some(value));
        assert_eq!(cache.stats(), ScoreCacheStats { hits: 2, misses: 2 });
        cache.reset();
        assert_eq!(cache.stats(), ScoreCacheStats::default());
        assert_eq!(cache.get(7), None);
    }

    fn value(i: u64) -> CachedScore {
        CachedScore {
            score: -(i as f64) - 0.25,
            phi: i as usize,
        }
    }

    /// The home slot `key` probes from in a cache of `slots` slots.
    fn home(key: u64, slots: usize) -> u64 {
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())
    }

    #[test]
    fn colliding_keys_probe_past_each_other() {
        // Three keys sharing one home slot, and a fourth whose home is
        // the slot after it: each probe has to walk past the others.
        let first = 1u64;
        let slot = home(first, MIN_SLOTS);
        let mut same: Vec<u64> = (2u64..)
            .filter(|&k| home(k, MIN_SLOTS) == slot)
            .take(2)
            .collect();
        same.insert(0, first);
        let next = (2u64..)
            .find(|&k| home(k, MIN_SLOTS) == (slot + 1) % MIN_SLOTS as u64)
            .expect("some key homes in the next slot");
        let mut cache = ScoreCache::new();
        for (i, &key) in same.iter().chain([&next]).enumerate() {
            cache.insert(key, value(i as u64));
        }
        assert_eq!(cache.slots.len(), MIN_SLOTS, "no growth for 4 entries");
        for (i, &key) in same.iter().chain([&next]).enumerate() {
            assert_eq!(cache.get(key), Some(value(i as u64)), "key {key}");
        }
        // A key homing in the same slot but never inserted misses after
        // walking the whole run.
        let absent = (same[2] + 1..)
            .find(|&k| home(k, MIN_SLOTS) == slot)
            .expect("another colliding key");
        assert_eq!(cache.get(absent), None);
        // Re-inserting a key replaces its value without a second entry.
        cache.insert(same[1], value(9));
        assert_eq!(cache.get(same[1]), Some(value(9)));
        assert_eq!(cache.len, 4);
        assert_eq!(cache.stats(), ScoreCacheStats { hits: 5, misses: 1 });
    }

    #[test]
    fn growth_keeps_every_entry() {
        let mut cache = ScoreCache::new();
        // Spread-out keys and dense low ones, past several doublings.
        let keys: Vec<u64> = (0..700u64)
            .map(|i| {
                if i % 2 == 0 {
                    i
                } else {
                    i.wrapping_mul(0xD6E8_FEB8_6659_FD93)
                }
            })
            .collect();
        for (i, &key) in keys.iter().enumerate() {
            cache.insert(key, value(i as u64));
            assert!(2 * cache.len <= cache.slots.len(), "at most half full");
        }
        assert!(cache.slots.len() > MIN_SLOTS);
        assert_eq!(cache.len, keys.len());
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(cache.get(key), Some(value(i as u64)), "key {key}");
        }
        // After a reset the grown array is kept and every entry is stale.
        let slots = cache.slots.len();
        cache.reset();
        assert_eq!(cache.slots.len(), slots);
        assert!(keys.iter().all(|&key| cache.get(key).is_none()));
    }

    #[test]
    fn generation_wrap_leaves_no_stale_hit() {
        let mut cache = ScoreCache::new();
        // An entry stamped with generation 1, then a cache that has been
        // reset `u32::MAX − 1` times since: the next reset wraps the
        // stamp back to 1, the old entry's generation.
        cache.insert(5, value(5));
        cache.generation = u32::MAX;
        cache.insert(6, value(6));
        assert_eq!(cache.get(6), Some(value(6)));
        cache.reset();
        assert_eq!(cache.generation, 1);
        assert_eq!(cache.get(5), None, "entry from the first generation");
        assert_eq!(cache.get(6), None, "entry from the last generation");
        cache.insert(7, value(7));
        assert_eq!(cache.get(7), Some(value(7)));
        assert_eq!(cache.stats(), ScoreCacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn log_likelihood_of_deterministic_child_is_zero() {
        // Child always infected when parent infected, never otherwise.
        let counts = vec![[10, 0], [0, 10]];
        assert_eq!(log_likelihood(&counts), 0.0);
    }

    #[test]
    fn log_likelihood_of_fair_coin() {
        // One combination, child 50/50 over 20 processes: −20 bits.
        let counts = vec![[10, 10]];
        assert!((log_likelihood(&counts) + 20.0).abs() < 1e-9);
    }

    #[test]
    fn log_likelihood_never_positive() {
        for counts in [
            vec![[3, 5]],
            vec![[0, 0], [7, 2]],
            vec![[1, 1], [2, 2], [3, 3], [4, 4]],
        ] {
            assert!(log_likelihood(&counts) <= 1e-12, "{counts:?}");
        }
    }

    #[test]
    fn empty_combinations_contribute_nothing() {
        let with_empty = vec![[5, 5], [0, 0]];
        let without = vec![[5, 5]];
        assert_eq!(log_likelihood(&with_empty), log_likelihood(&without));
        assert_eq!(penalty(&with_empty), penalty(&without));
    }

    #[test]
    fn penalty_matches_formula() {
        let counts = vec![[3, 4], [0, 1]];
        let expect = 0.5 * ((8.0f64).log2() + (2.0f64).log2());
        assert!((penalty(&counts) - expect).abs() < 1e-12);
    }

    #[test]
    fn local_score_is_likelihood_minus_penalty() {
        let counts = vec![[6, 2], [1, 7]];
        assert!(
            (local_score(&counts) - (log_likelihood(&counts) - penalty(&counts))).abs() < 1e-12
        );
    }

    #[test]
    fn phi_counts_empty_combinations() {
        assert_eq!(phi(&[[1, 0], [0, 0], [0, 2], [0, 0]]), 2);
        assert_eq!(phi(&[]), 0);
    }

    #[test]
    fn delta_balanced_case() {
        // β = 100, N₁ = N₂ = 50: δ = 2·50·1 + 2·50·1 + log₂(101).
        let d = delta(100, 50, 50);
        let expect = 200.0 + 101f64.log2();
        assert!((d - expect).abs() < 1e-9);
    }

    #[test]
    fn delta_degenerate_node_is_small() {
        // A node that is never infected carries almost no information:
        // only the log₂(β+1) term survives.
        let d = delta(100, 100, 0);
        assert!((d - 101f64.log2()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must equal β")]
    fn delta_rejects_inconsistent_counts() {
        delta(10, 3, 4);
    }

    #[test]
    fn parent_bound_matches_paper_scale() {
        // β = 150, balanced statuses: δ ≈ 300 + log₂ 151 ⇒ bound ≈ 8.3.
        let d = delta(150, 75, 75);
        let b = parent_bound(0, d);
        assert!(b > 8.0 && b < 8.5, "bound {b}");
        assert!(within_bound(8, 0, d));
        assert!(!within_bound(9, 0, d));
    }

    #[test]
    fn parent_bound_never_negative_infinity() {
        assert!(parent_bound(0, 0.0) >= 0.0);
    }

    #[test]
    fn global_score_decomposes() {
        let a = vec![[5u64, 5u64]];
        let b = vec![[2u64, 8u64], [4u64, 1u64]];
        let total = global_score([&a, &b]);
        assert!((total - (local_score(&a) + local_score(&b))).abs() < 1e-12);
    }

    // Lemma 1: (b/a)^b ≤ (b1/a1)^{b1} (b2/a2)^{b2} in log space, i.e.
    // merging two combinations never increases the log-likelihood.
    #[test]
    fn lemma1_merging_combinations_never_helps() {
        let cases = [
            ((3u64, 5u64), (2u64, 9u64)),
            ((0, 4), (6, 6)),
            ((1, 1), (1, 1)),
            ((10, 12), (0, 3)),
        ];
        for ((b1, extra1), (b2, extra2)) in cases {
            let (a1, a2) = (b1 + extra1, b2 + extra2);
            let split = x_log2_ratio(b1, a1) + x_log2_ratio(b2, a2);
            let merged = x_log2_ratio(b1 + b2, a1 + a2);
            assert!(
                merged <= split + 1e-12,
                "lemma 1 violated for ({b1},{a1}),({b2},{a2})"
            );
        }
    }

    // Theorem 1: refining a parent set (splitting every combination by a
    // new parent's status) never decreases the likelihood.
    #[test]
    fn theorem1_adding_a_parent_never_decreases_likelihood() {
        // Coarse counts and an arbitrary refinement of each combination.
        let coarse = vec![[6u64, 4u64], [3, 7]];
        let refined = vec![[2u64, 1u64], [4, 3], [1, 5], [2, 2]];
        // refined[2j] + refined[2j+1] == coarse[j]
        for j in 0..coarse.len() {
            for k in 0..2 {
                assert_eq!(refined[2 * j][k] + refined[2 * j + 1][k], coarse[j][k]);
            }
        }
        assert!(log_likelihood(&refined) >= log_likelihood(&coarse) - 1e-12);
    }
}
