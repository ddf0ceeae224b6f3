//! Infection mutual information (paper §IV-B, Eqs. 24–25).
//!
//! Plain mutual information cannot distinguish positively correlated
//! infections ("u infected ⇒ v likely infected", the signature of an
//! influence relationship) from negatively correlated ones. The paper
//! therefore scores each pair with the *infection MI*
//!
//! ```text
//! IMI(X_i, X_j) = mi(1,1) + mi(0,0) − |mi(1,0)| − |mi(0,1)|
//! ```
//!
//! where `mi(a,b) = P̂(X_i=a, X_j=b) · log₂ (P̂(a,b) / (P̂(a)·P̂(b)))` is one
//! cell of the MI sum. Concordant cells reward, discordant cells penalize.
//!
//! [`CorrelationMatrix`] keeps only the strictly upper triangle, row-major
//! in rank order `(0,1), (0,2), …, (1,2), …` — the layout the pairwise
//! statistics' `n11` counts use — so a build writes each value once, front
//! to back, with no mirrored copy: `4·n²` bytes instead of `8·n²`. The
//! candidate step reads that slice in place
//! ([`CorrelationMatrix::upper`] feeds [`crate::BucketIndex`]).

use diffnet_simulate::{NodeColumns, PairCounts};
use std::ops::Range;

/// One cell of the mutual-information sum:
/// `p_ab · log₂(p_ab / (p_a · p_b))`, with `0 log 0 = 0`.
///
/// Can be negative (when the joint is rarer than independence predicts).
#[inline]
pub fn mi_cell(p_ab: f64, p_a: f64, p_b: f64) -> f64 {
    if p_ab <= 0.0 || p_a <= 0.0 || p_b <= 0.0 {
        0.0
    } else {
        p_ab * (p_ab / (p_a * p_b)).log2()
    }
}

/// Precomputed `log2 k` for every count `k ∈ 0..=β`, shared across all
/// `n(n−1)/2` pairs of a correlation-matrix build. Each MI cell needs up
/// to four logarithms of integer counts bounded by `β`, so one table of
/// `β + 1` entries replaces millions of `log2` calls with loads.
/// `table[k]` is exactly `(k as f64).log2()`, which keeps lookup-based
/// cells bit-identical to the direct evaluation.
pub struct Log2Table {
    values: Vec<f64>,
}

impl Log2Table {
    /// Builds the table covering counts `0..=beta`.
    pub fn new(beta: u64) -> Log2Table {
        Log2Table {
            values: (0..=beta).map(|k| (k as f64).log2()).collect(),
        }
    }

    #[inline]
    pub(crate) fn log2(&self, k: u64) -> f64 {
        self.values[k as usize]
    }
}

/// The four MI cells of a pair, estimated from joint counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MiCells {
    /// `mi(X_i = 1, X_j = 1)`.
    pub c11: f64,
    /// `mi(X_i = 1, X_j = 0)`.
    pub c10: f64,
    /// `mi(X_i = 0, X_j = 1)`.
    pub c01: f64,
    /// `mi(X_i = 0, X_j = 0)`.
    pub c00: f64,
}

impl MiCells {
    /// Estimates the cells from pair counts over `β` processes.
    ///
    /// All-zero counts (`β = 0`) give all-zero cells. The probabilities
    /// in `mi_cell` are all counts over `β`, so each cell is evaluated
    /// in the count domain as
    /// `(n_ab/β) · (log2 n_ab + log2 β − log2 n_a − log2 n_b)` —
    /// the form [`Log2Table`] turns into table lookups for bulk matrix
    /// builds. Both evaluations call `f64::log2` on the same integer
    /// inputs, so they are bit-identical.
    pub fn from_counts(pc: &PairCounts) -> MiCells {
        Self::cells(pc, |k| (k as f64).log2())
    }

    /// [`from_counts`](Self::from_counts) with every `log2` served from a
    /// precomputed table — bit-identical, and the form every `O(n²)`
    /// correlation-matrix pass uses.
    pub fn from_counts_with(pc: &PairCounts, lut: &Log2Table) -> MiCells {
        Self::cells(pc, |k| lut.log2(k))
    }

    #[inline]
    fn cells(pc: &PairCounts, log2: impl Fn(u64) -> f64) -> MiCells {
        let beta = pc.total();
        if beta == 0 {
            return MiCells {
                c11: 0.0,
                c10: 0.0,
                c01: 0.0,
                c00: 0.0,
            };
        }
        let inv_b = 1.0 / beta as f64;
        let lb = log2(beta);
        let i1 = pc.n11 + pc.n10;
        let i0 = pc.n01 + pc.n00;
        let j1 = pc.n11 + pc.n01;
        let j0 = pc.n10 + pc.n00;
        let cell = |n_ab: u64, n_a: u64, n_b: u64| {
            if n_ab == 0 || n_a == 0 || n_b == 0 {
                0.0
            } else {
                n_ab as f64 * inv_b * (log2(n_ab) + lb - log2(n_a) - log2(n_b))
            }
        };
        MiCells {
            c11: cell(pc.n11, i1, j1),
            c10: cell(pc.n10, i1, j0),
            c01: cell(pc.n01, i0, j1),
            c00: cell(pc.n00, i0, j0),
        }
    }

    /// Traditional mutual information: the sum of all four cells (Eq. 24).
    /// Non-negative up to floating-point noise.
    pub fn mi(&self) -> f64 {
        self.c11 + self.c10 + self.c01 + self.c00
    }

    /// Infection MI (Eq. 25): concordant cells minus the magnitudes of
    /// discordant cells. Negative when infections are anti-correlated,
    /// near 0 when independent, positive when positively correlated.
    pub fn imi(&self) -> f64 {
        self.c11 + self.c00 - self.c10.abs() - self.c01.abs()
    }
}

/// Infection MI of a node pair directly from joint counts.
pub fn imi(pc: &PairCounts) -> f64 {
    MiCells::from_counts(pc).imi()
}

/// Traditional MI of a node pair directly from joint counts.
pub fn mi(pc: &PairCounts) -> f64 {
    MiCells::from_counts(pc).mi()
}

/// Which pairwise correlation measure drives candidate pruning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CorrelationMeasure {
    /// Infection MI (Eq. 25) — the paper's measure.
    #[default]
    Imi,
    /// Traditional MI (Eq. 24) — kept for the paper's Fig. 10–11 ablation.
    Mi,
}

impl CorrelationMeasure {
    /// This measure's value of a pair's MI cells.
    #[inline]
    pub fn value(self, cells: &MiCells) -> f64 {
        match self {
            CorrelationMeasure::Imi => cells.imi(),
            CorrelationMeasure::Mi => cells.mi(),
        }
    }
}

/// One block of the upper-triangle tile schedule: the pairs `(i, j)`,
/// `i < j`, with `i` in `rows` and `j` in `cols`.
pub(crate) struct Tile {
    pub(crate) rows: Range<usize>,
    pub(crate) cols: Range<usize>,
    /// Exact pair count (diagonal blocks are triangular): the block's
    /// scheduling weight.
    pub(crate) pairs: u64,
}

impl Tile {
    /// The block's pairs in the order
    /// [`NodeColumns::pair_counts_block`] emits them: row-major over `i`,
    /// then `j > i` within the column range.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .clone()
            .flat_map(move |i| (self.cols.start.max(i + 1)..self.cols.end).map(move |j| (i, j)))
    }
}

/// The upper-triangle tile schedule every pair-kernel pass shares: `n`
/// nodes cut into `tile`-wide blocks ([`NodeColumns::pair_tile_size`],
/// lane-aligned and chosen so a block's columns stay L1-resident), in
/// row-major block order, keeping the blocks with at least one pair that
/// `keep` accepts.
pub(crate) fn tile_schedule(
    n: usize,
    tile: usize,
    keep: impl Fn(&Range<usize>, &Range<usize>) -> bool,
) -> Vec<Tile> {
    let num_tiles = n.div_ceil(tile);
    let mut tiles = Vec::new();
    for bi in 0..num_tiles {
        let rows = bi * tile..((bi + 1) * tile).min(n);
        for bj in bi..num_tiles {
            let cols = bj * tile..((bj + 1) * tile).min(n);
            let pairs: u64 = rows
                .clone()
                .map(|i| cols.end.saturating_sub(cols.start.max(i + 1)) as u64)
                .sum();
            if pairs > 0 && keep(&rows, &cols) {
                tiles.push(Tile {
                    rows: rows.clone(),
                    cols,
                    pairs,
                });
            }
        }
    }
    tiles
}

/// Symmetric matrix of pairwise correlation values over all node pairs.
///
/// Stores only the strictly upper triangle in rank order (see the module
/// docs). [`get`](Self::get) looks a pair up in either orientation; the
/// diagonal reads 0.
#[derive(Clone, Debug)]
pub struct CorrelationMatrix {
    n: usize,
    upper: Vec<f64>,
}

impl CorrelationMatrix {
    /// Computes all pairwise values from the column view of a status
    /// matrix with the chosen measure. `O(n²)` pair counts, each a few
    /// popcounts per 64 processes. Single-threaded; see
    /// [`compute_parallel`](Self::compute_parallel).
    pub fn compute(cols: &NodeColumns, measure: CorrelationMeasure) -> Self {
        Self::compute_parallel(cols, measure, 1)
    }

    /// Parallel variant of [`compute`](Self::compute): tiles of the upper
    /// triangle are claimed by `threads` workers (0 = all cores). Each
    /// cell is a pure function of its pair, so the result is
    /// bit-identical for every thread count.
    pub fn compute_parallel(
        cols: &NodeColumns,
        measure: CorrelationMeasure,
        threads: usize,
    ) -> Self {
        Self::compute_observed(
            cols,
            measure,
            threads,
            false,
            diffnet_observe::Recorder::disabled(),
        )
        .0
    }

    /// [`compute_parallel`](Self::compute_parallel) that also reports pool
    /// utilization — per-worker chunk claims land in the recorder under
    /// the `correlation_matrix` region — and, with `capture_stats`, the
    /// pairwise *sufficient statistics* ([`PairStats`]: `β`, per-column
    /// ones counts, upper-triangle `n11`) the values were derived from, in
    /// the same kernel pass. The matrix is bit-identical either way and at
    /// every thread count. The statistics are what incremental
    /// re-estimation persists; `n11` costs `4·n²` bytes, so only
    /// checkpointed runs capture it.
    ///
    /// The pair loop is the cache-blocked [`NodeColumns::pair_counts_block`]
    /// kernel over the crate's one tile schedule (`tile_schedule`): `n11`
    /// comes from one row-batched SIMD AND+popcount call per tile row, with
    /// the other three cells derived from the per-column ones counts —
    /// computed once up front and shared by every tile. Each tile's claim weight is its exact pair count, so
    /// the dense diagonal tiles don't serialize the pool. Per-tile results
    /// are *positional* (values in the kernel's deterministic emission
    /// order, a third of the memory of `(i, j, value)` triples) and land in
    /// per-tile slots, keeping the matrix bit-identical at every thread
    /// count.
    pub fn compute_observed(
        cols: &NodeColumns,
        measure: CorrelationMeasure,
        threads: usize,
        capture_stats: bool,
        rec: &diffnet_observe::Recorder,
    ) -> (Self, Option<PairStats>) {
        let n = cols.num_nodes();
        let pairs = n * n.saturating_sub(1) / 2;
        let ones = cols.ones_counts();
        let tiles = tile_schedule(n, cols.pair_tile_size(), |_, _| true);
        let costs: Vec<u64> = tiles.iter().map(|t| t.pairs).collect();
        let lut = Log2Table::new(cols.num_processes() as u64);
        let (outputs, pool) = crate::parallel::run_weighted_stats(
            &costs,
            4,
            threads,
            || (),
            |_, b| {
                let tile = &tiles[b];
                let mut vals: Vec<f64> = Vec::with_capacity(tile.pairs as usize);
                let mut n11s: Vec<u64> = Vec::new();
                if capture_stats {
                    n11s.reserve_exact(tile.pairs as usize);
                }
                cols.pair_counts_block(
                    tile.rows.clone(),
                    tile.cols.clone(),
                    &ones,
                    &mut |_, _, pc| {
                        vals.push(measure.value(&MiCells::from_counts_with(&pc, &lut)));
                        if capture_stats {
                            n11s.push(pc.n11);
                        }
                    },
                );
                (vals, n11s)
            },
        );
        if rec.is_enabled() {
            rec.worker_chunks("correlation_matrix", &pool.chunks_per_worker);
            rec.add("correlation_pairs", pairs as u64);
            rec.add("correlation_tiles", tiles.len() as u64);
        }
        // The schedule is row-block major, so one row block's tiles are
        // adjacent: each triangle row is the concatenation of its segments
        // in those tiles, and the triangle fills front to back. A block's
        // outputs are freed as soon as its rows are written.
        let mut upper = Vec::with_capacity(pairs);
        let mut n11 = Vec::with_capacity(if capture_stats { pairs } else { 0 });
        let mut outputs = outputs.into_iter();
        let mut rest = &tiles[..];
        while let Some(first) = rest.first() {
            let len = rest.iter().take_while(|t| t.rows == first.rows).count();
            let (block, tail) = rest.split_at(len);
            rest = tail;
            let outs: Vec<(Vec<f64>, Vec<u64>)> = outputs.by_ref().take(len).collect();
            let mut offsets = vec![0usize; len];
            for i in first.rows.clone() {
                for ((tile, (vals, n11s)), off) in block.iter().zip(&outs).zip(&mut offsets) {
                    debug_assert_eq!(vals.len() as u64, tile.pairs, "one value per block pair");
                    let seg = tile.cols.end.saturating_sub(tile.cols.start.max(i + 1));
                    upper.extend_from_slice(&vals[*off..*off + seg]);
                    if capture_stats {
                        n11.extend_from_slice(&n11s[*off..*off + seg]);
                    }
                    *off += seg;
                }
            }
        }
        debug_assert_eq!(upper.len(), pairs);
        let stats = capture_stats.then(|| PairStats {
            n,
            beta: cols.num_processes() as u64,
            ones,
            n11,
        });
        (CorrelationMatrix { n, upper }, stats)
    }

    /// The pre-tiling implementation: one [`NodeColumns::pair_counts`]
    /// column walk per pair, single-threaded. Kept as the equivalence
    /// oracle for the tiled kernel (results must stay bit-identical) and
    /// as the baseline the benchmarks compare against.
    pub fn compute_reference(cols: &NodeColumns, measure: CorrelationMeasure) -> Self {
        let lut = Log2Table::new(cols.num_processes() as u64);
        Self::from_pairs(cols.num_nodes(), |i, j| {
            let pc = cols.pair_counts(i as u32, j as u32);
            measure.value(&MiCells::from_counts_with(&pc, &lut))
        })
    }

    /// The matrix with `value(i, j)` at every pair `i < j`, evaluated
    /// once per pair in row-major order.
    fn from_pairs(n: usize, mut value: impl FnMut(usize, usize) -> f64) -> Self {
        let mut upper = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                upper.push(value(i, j));
            }
        }
        CorrelationMatrix { n, upper }
    }

    /// A matrix over `n` nodes from its upper triangle in rank order.
    #[cfg(test)]
    pub(crate) fn from_upper(n: usize, upper: Vec<f64>) -> Self {
        assert_eq!(upper.len(), n * n.saturating_sub(1) / 2);
        CorrelationMatrix { n, upper }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The value for pair `(i, j)` in either orientation; 0 on the
    /// diagonal.
    #[inline]
    pub fn get(&self, i: u32, j: u32) -> f64 {
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        if a == b {
            0.0
        } else {
            self.upper[tri_index(self.n, a as usize, b as usize)]
        }
    }

    /// All strictly-upper-triangle values (each unordered pair once), in
    /// row-major rank order: the input to threshold selection.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }
}

/// Index of pair `(i, j)` (`i < j`) in a row-major upper-triangle layout.
#[inline]
fn tri_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Pairwise sufficient statistics of a status matrix: `β`, the per-column
/// ones counts, and the upper-triangle `n11` joint counts. Together these
/// determine every [`PairCounts`] cell (`n10 = ones_i − n11`, `n01 = ones_j
/// − n11`, `n00 = β + n11 − ones_i − ones_j` — the same derivations
/// [`NodeColumns::pair_counts_block`] uses), hence the exact correlation
/// matrix, τ, and candidate sets of the run that produced them.
///
/// The statistics are *additive over processes*: appending cascades only
/// adds the appended columns' counts cell-wise, so [`append`](Self::append)
/// updates them in one kernel pass over the new columns alone — `O(n²)`
/// popcounts over `β_new` bits, independent of the history length. This is
/// the warm state incremental re-estimation persists in the checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairStats {
    n: usize,
    beta: u64,
    ones: Vec<u64>,
    n11: Vec<u64>,
}

impl PairStats {
    /// Rebuilds statistics from persisted parts, validating shape.
    pub fn from_parts(beta: u64, ones: Vec<u64>, n11: Vec<u64>) -> Result<PairStats, String> {
        let n = ones.len();
        let pairs = n * n.saturating_sub(1) / 2;
        if n11.len() != pairs {
            return Err(format!(
                "pair stats shape mismatch: {n} nodes need {pairs} n11 counts, got {}",
                n11.len()
            ));
        }
        if let Some(i) = ones.iter().position(|&o| o > beta) {
            return Err(format!(
                "pair stats ones[{i}] = {} exceeds beta = {beta}",
                ones[i]
            ));
        }
        // Every 2×2 cell the statistics imply must be a non-negative
        // count, or later derivations would underflow on hand-edited or
        // corrupted input: n11 ≤ min(ones_i, ones_j) and
        // β + n11 ≥ ones_i + ones_j (n00 ≥ 0).
        let mut t = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let v = n11[t];
                if v > ones[i].min(ones[j]) || ones[i] + ones[j] > beta + v {
                    return Err(format!(
                        "pair stats are inconsistent at pair ({i}, {j}): \
                         n11 = {v}, ones = ({}, {}), beta = {beta}",
                        ones[i], ones[j]
                    ));
                }
                t += 1;
            }
        }
        Ok(PairStats { n, beta, ones, n11 })
    }

    /// Computes the statistics directly (test/oracle convenience; the
    /// production path captures them alongside the correlation matrix via
    /// [`CorrelationMatrix::compute_observed`]).
    pub fn compute(cols: &NodeColumns, threads: usize) -> PairStats {
        let disabled = diffnet_observe::Recorder::disabled();
        CorrelationMatrix::compute_observed(cols, CorrelationMeasure::Imi, threads, true, disabled)
            .1
            .expect("statistics were requested")
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Total processes `β` accumulated so far.
    pub fn num_processes(&self) -> u64 {
        self.beta
    }

    /// Per-column ones counts.
    pub fn ones(&self) -> &[u64] {
        &self.ones
    }

    /// Upper-triangle `n11` counts, row-major (`(0,1), (0,2), …`).
    pub fn n11(&self) -> &[u64] {
        &self.n11
    }

    /// The full joint counts of pair `(i, j)`, reconstructed exactly as the
    /// tiled kernel derives them.
    #[inline]
    pub fn pair_counts(&self, i: usize, j: usize) -> PairCounts {
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let n11 = self.n11[tri_index(self.n, a, b)];
        PairCounts::from_n11(n11, self.ones[i], self.ones[j], self.beta)
    }

    /// Folds `appended` process columns into the statistics — the
    /// incremental-update kernel pass. Runs the same cost-aware tile
    /// schedule as the full computation through
    /// [`NodeColumns::pair_n11_block`], but over the appended columns
    /// only; integer addition is order-independent, so the result is exact
    /// at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `appended` has a different node count.
    pub fn append(&mut self, appended: &NodeColumns, threads: usize) {
        assert_eq!(
            appended.num_nodes(),
            self.n,
            "appended cascades must cover the same nodes"
        );
        let ones = appended.ones_counts();
        let tiles = tile_schedule(self.n, appended.pair_tile_size(), |_, _| true);
        let costs: Vec<u64> = tiles.iter().map(|t| t.pairs).collect();
        let (outputs, _) = crate::parallel::run_weighted_stats(
            &costs,
            4,
            threads,
            || (),
            |_, b| {
                let tile = &tiles[b];
                let mut out: Vec<u64> = Vec::with_capacity(tile.pairs as usize);
                appended.pair_n11_block(tile.rows.clone(), tile.cols.clone(), &mut |_, _, n11s| {
                    out.extend_from_slice(n11s);
                });
                out
            },
        );
        for (tile, counts) in tiles.iter().zip(outputs) {
            for ((i, j), c) in tile.pairs().zip(counts) {
                self.n11[tri_index(self.n, i, j)] += c;
            }
        }
        for (o, &a) in self.ones.iter_mut().zip(ones.iter()) {
            *o += a;
        }
        self.beta += appended.num_processes() as u64;
    }

    /// The correlation matrix these statistics determine — bit-identical
    /// to [`CorrelationMatrix::compute_observed`] over the matching status
    /// matrix, because each pair's [`MiCells`] are the same float function
    /// of the same integer counts. Pure float work per pair, so it runs
    /// single-threaded without a kernel pass.
    pub fn correlation(&self, measure: CorrelationMeasure) -> CorrelationMatrix {
        let lut = Log2Table::new(self.beta);
        CorrelationMatrix::from_pairs(self.n, |i, j| {
            measure.value(&MiCells::from_counts_with(&self.pair_counts(i, j), &lut))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffnet_simulate::StatusMatrix;

    fn counts(n11: u64, n10: u64, n01: u64, n00: u64) -> PairCounts {
        PairCounts { n11, n10, n01, n00 }
    }

    #[test]
    fn independent_variables_have_zero_mi_and_imi() {
        // Perfectly factorized joint: p(a,b) = p(a)p(b).
        let pc = counts(25, 25, 25, 25);
        assert!(mi(&pc).abs() < 1e-12);
        assert!(imi(&pc).abs() < 1e-12);
    }

    #[test]
    fn perfectly_positively_correlated() {
        let pc = counts(50, 0, 0, 50);
        assert!((mi(&pc) - 1.0).abs() < 1e-12, "1 bit of MI");
        assert!((imi(&pc) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_negatively_correlated() {
        let pc = counts(0, 50, 50, 0);
        // Traditional MI cannot tell the difference...
        assert!((mi(&pc) - 1.0).abs() < 1e-12);
        // ...but infection MI goes negative.
        assert!(imi(&pc) < -0.9);
    }

    #[test]
    fn positive_correlation_gives_positive_imi() {
        let pc = counts(40, 10, 10, 40);
        assert!(imi(&pc) > 0.1);
        assert!(mi(&pc) > 0.0);
    }

    #[test]
    fn imi_is_symmetric_in_roles() {
        let pc_ij = counts(30, 20, 10, 40);
        let pc_ji = counts(30, 10, 20, 40);
        assert!((imi(&pc_ij) - imi(&pc_ji)).abs() < 1e-12);
    }

    #[test]
    fn zero_beta_is_all_zero() {
        let pc = counts(0, 0, 0, 0);
        assert_eq!(mi(&pc), 0.0);
        assert_eq!(imi(&pc), 0.0);
    }

    #[test]
    fn constant_variable_yields_zero() {
        // X_j always infected: no information about anything.
        let pc = counts(30, 0, 70, 0);
        assert!(mi(&pc).abs() < 1e-12);
        assert!(imi(&pc).abs() < 1e-12);
    }

    #[test]
    fn mi_cell_zero_probability_convention() {
        assert_eq!(mi_cell(0.0, 0.5, 0.5), 0.0);
        assert_eq!(mi_cell(0.2, 0.0, 0.5), 0.0);
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let m = StatusMatrix::from_rows(&[
            vec![true, true, false],
            vec![true, false, false],
            vec![false, true, true],
            vec![true, true, true],
        ]);
        let cm = CorrelationMatrix::compute(&m.columns(), CorrelationMeasure::Imi);
        assert_eq!(cm.num_nodes(), 3);
        for i in 0..3u32 {
            assert_eq!(cm.get(i, i), 0.0);
            for j in 0..3u32 {
                assert_eq!(cm.get(i, j), cm.get(j, i));
            }
        }
        assert_eq!(cm.upper().len(), 3);
        assert_eq!(cm.upper(), &[cm.get(0, 1), cm.get(0, 2), cm.get(1, 2)]);
    }

    #[test]
    fn parallel_compute_is_bit_identical_across_thread_counts() {
        // 40 nodes, 96 processes of deterministic pseudo-random statuses.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut bit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        };
        let rows: Vec<Vec<bool>> = (0..96).map(|_| (0..40).map(|_| bit()).collect()).collect();
        let cols = StatusMatrix::from_rows(&rows).columns();
        for measure in [CorrelationMeasure::Imi, CorrelationMeasure::Mi] {
            let oracle = CorrelationMatrix::compute_reference(&cols, measure);
            for threads in [1usize, 4, 0] {
                let par = CorrelationMatrix::compute_parallel(&cols, measure, threads);
                for i in 0..40u32 {
                    for j in 0..40u32 {
                        assert_eq!(
                            oracle.get(i, j).to_bits(),
                            par.get(i, j).to_bits(),
                            "({i},{j}) differs from reference at {threads} threads"
                        );
                    }
                }
            }
        }
    }

    /// A pseudo-random status matrix with planted constant columns: node 0
    /// never infected, node 1 always infected.
    fn matrix_with_degenerate_columns(beta: usize, n: usize) -> StatusMatrix {
        let mut state = 0xFEED_F00D_DEAD_BEEFu64;
        let mut bit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        };
        let rows: Vec<Vec<bool>> = (0..beta)
            .map(|_| {
                (0..n)
                    .map(|v| match v {
                        0 => false,
                        1 => true,
                        _ => bit(),
                    })
                    .collect()
            })
            .collect();
        StatusMatrix::from_rows(&rows)
    }

    #[test]
    fn multi_tile_matrix_matches_reference_bit_identically() {
        // β = 2051 (not a multiple of 64) gives pair_tile_size 48, so 100
        // nodes span multiple tiles and exercise diagonal + off-diagonal
        // blocks, tail words, and the degenerate-column short-circuit.
        let cols = matrix_with_degenerate_columns(2051, 100).columns();
        assert!(
            cols.pair_tile_size() < 100,
            "test must cover the multi-tile path (tile {})",
            cols.pair_tile_size()
        );
        for measure in [CorrelationMeasure::Imi, CorrelationMeasure::Mi] {
            let oracle = CorrelationMatrix::compute_reference(&cols, measure);
            for threads in [1usize, 3] {
                let tiled = CorrelationMatrix::compute_parallel(&cols, measure, threads);
                for i in 0..100u32 {
                    for j in 0..100u32 {
                        assert_eq!(
                            oracle.get(i, j).to_bits(),
                            tiled.get(i, j).to_bits(),
                            "({i},{j}) differs at {threads} threads, {measure:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_columns_carry_zero_information() {
        // Constant columns have P̂(X=a) = 0 for one status: every mi cell
        // involving them hits the 0·log0 = 0 convention, so both measures
        // are 0 against every other node (up to `1 − o/β` vs `(β−o)/β`
        // rounding noise) — through the short-circuit path, without
        // touching the column words.
        let cols = matrix_with_degenerate_columns(97, 8).columns();
        for measure in [CorrelationMeasure::Imi, CorrelationMeasure::Mi] {
            let m = CorrelationMatrix::compute(&cols, measure);
            for j in 0..8u32 {
                assert!(m.get(0, j).abs() < 1e-12, "never-infected node vs {j}");
                assert!(m.get(1, j).abs() < 1e-12, "always-infected node vs {j}");
            }
        }
        // The never/always pair in both orientations, straight from counts:
        // all four joints are degenerate.
        let pc = cols.pair_counts(0, 1);
        assert_eq!((pc.n11, pc.n10, pc.n00), (0, 0, 0));
        assert_eq!(pc.n01, 97);
        assert_eq!(imi(&pc), 0.0);
        assert_eq!(mi(&pc), 0.0);
    }

    /// Deterministic pseudo-random rows for stats tests.
    fn random_rows(seed: u64, beta: usize, n: usize) -> Vec<Vec<bool>> {
        let mut state = seed;
        let mut bit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        };
        (0..beta).map(|_| (0..n).map(|_| bit()).collect()).collect()
    }

    #[test]
    fn stats_capture_matches_plain_compute_bit_identically() {
        let cols = StatusMatrix::from_rows(&random_rows(0xA5A5, 130, 24)).columns();
        for measure in [CorrelationMeasure::Imi, CorrelationMeasure::Mi] {
            let plain = CorrelationMatrix::compute_parallel(&cols, measure, 3);
            let (with_stats, stats) = CorrelationMatrix::compute_observed(
                &cols,
                measure,
                3,
                true,
                diffnet_observe::Recorder::disabled(),
            );
            let stats = stats.expect("statistics were requested");
            for i in 0..24u32 {
                for j in 0..24u32 {
                    assert_eq!(plain.get(i, j).to_bits(), with_stats.get(i, j).to_bits());
                }
            }
            // The captured integers reproduce the kernel's counts exactly.
            for i in 0..24 {
                for j in (i + 1)..24 {
                    assert_eq!(
                        stats.pair_counts(i, j),
                        cols.pair_counts(i as u32, j as u32)
                    );
                }
            }
            // And the derived matrix is bit-identical to the computed one.
            let derived = stats.correlation(measure);
            for i in 0..24u32 {
                for j in 0..24u32 {
                    assert_eq!(plain.get(i, j).to_bits(), derived.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn appended_stats_equal_fresh_combined_stats() {
        // Degenerate columns in both halves stress the short-circuit paths.
        let mut base_rows = random_rows(0xBEEF, 97, 20);
        for row in &mut base_rows {
            row[3] = false; // never infected in the base
        }
        let appended_rows = random_rows(0xF00D, 33, 20);
        let mut combined_rows = base_rows.clone();
        combined_rows.extend(appended_rows.iter().cloned());

        let base = StatusMatrix::from_rows(&base_rows).columns();
        let appended = StatusMatrix::from_rows(&appended_rows).columns();
        let combined = StatusMatrix::from_rows(&combined_rows).columns();

        for threads in [1usize, 4] {
            let mut stats = PairStats::compute(&base, threads);
            stats.append(&appended, threads);
            let fresh = PairStats::compute(&combined, threads);
            assert_eq!(
                stats, fresh,
                "incremental stats differ at {threads} threads"
            );
            let inc = stats.correlation(CorrelationMeasure::Imi);
            let full = CorrelationMatrix::compute_parallel(&combined, CorrelationMeasure::Imi, 1);
            for i in 0..20u32 {
                for j in 0..20u32 {
                    assert_eq!(inc.get(i, j).to_bits(), full.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn stats_round_trip_through_parts() {
        let cols = StatusMatrix::from_rows(&random_rows(0xCAFE, 70, 12)).columns();
        let stats = PairStats::compute(&cols, 1);
        let rebuilt = PairStats::from_parts(
            stats.num_processes(),
            stats.ones().to_vec(),
            stats.n11().to_vec(),
        )
        .unwrap();
        assert_eq!(stats, rebuilt);
        assert!(PairStats::from_parts(70, vec![1, 2, 3], vec![0]).is_err());
        assert!(PairStats::from_parts(2, vec![5, 1, 1], vec![0, 0, 0]).is_err());
    }

    #[test]
    fn matrix_measures_differ_on_anticorrelated_pairs() {
        // Nodes 0 and 1 perfectly anti-correlated.
        let rows: Vec<Vec<bool>> = (0..40).map(|l| vec![l % 2 == 0, l % 2 == 1]).collect();
        let m = StatusMatrix::from_rows(&rows);
        let imi_m = CorrelationMatrix::compute(&m.columns(), CorrelationMeasure::Imi);
        let mi_m = CorrelationMatrix::compute(&m.columns(), CorrelationMeasure::Mi);
        assert!(imi_m.get(0, 1) < -0.5, "IMI flags anti-correlation");
        assert!(mi_m.get(0, 1) > 0.5, "plain MI mistakes it for correlation");
    }
}
