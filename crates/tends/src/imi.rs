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
//! Every bulk pass evaluates its pairs through one [`PairEvaluator`]: built
//! once per pass from `β`, the per-node ones counts and the measure, it
//! turns a row of `n11` counts into values with table loads instead of
//! logarithms, bit for bit the per-pair definition [`MiCells::from_counts`].
//!
//! [`CorrelationMatrix`] keeps only the strictly upper triangle, row-major
//! in rank order `(0,1), (0,2), …, (1,2), …` — the layout the pairwise
//! statistics' `n11` counts use — so a build writes each value once, into
//! its final slot, with no mirrored copy: `4·n²` bytes instead of `8·n²`.
//! The same pass counts each value into the bucket counts of the τ
//! threshold's index, which reads the slice in place
//! ([`CorrelationMatrix::pinned_two_means`]); the candidate lists above τ
//! come from one scan of the slice into the streamed path's accumulator
//! ([`CorrelationMatrix::candidates`]).

use crate::kmeans::{BucketCounts, BucketIndex, PinnedKmeans};
use crate::stream::{CandidateLists, Shard, SparseCandidates};
use diffnet_graph::NodeId;
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

/// Precomputed `log2 k` for every count `k ∈ 0..=bound`: the logarithms
/// of integer counts the pair evaluator and the scoring tables need,
/// served by loads instead of `log2` calls. `table[k]` is exactly
/// `(k as f64).log2()`, which keeps lookup-based terms bit-identical to
/// the direct evaluation.
#[derive(Clone, Debug)]
pub struct Log2Table {
    values: Vec<f64>,
}

impl Log2Table {
    /// Builds the table covering counts `0..=bound`.
    pub fn new(bound: u64) -> Log2Table {
        Log2Table {
            values: (0..=bound).map(|k| (k as f64).log2()).collect(),
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
    /// `(n_ab·(1/β)) · (((log2 n_ab + log2 β) − log2 n_a) − log2 n_b)`.
    /// This is the per-pair definition; the bulk passes evaluate the same
    /// operations in the same order from tables ([`PairEvaluator`]), so
    /// their values are bit-identical to it.
    pub fn from_counts(pc: &PairCounts) -> MiCells {
        let log2 = |k: u64| (k as f64).log2();
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

/// A node's marginal counts in log form: its ones count, `log₂ ones` and
/// `log₂(β − ones)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Margin {
    ones: u64,
    log1: f64,
    log0: f64,
}

/// The crate's one pair evaluator: turns `n11` counts into IMI or MI
/// values, bit-identical to [`MiCells::from_counts`] followed by
/// [`CorrelationMeasure::value`].
///
/// Built once per pass from `β`, the per-node ones counts and the measure,
/// it precomputes for every count `k ≤ β` the two factors of a cell that
/// depend on its joint count alone, `k·(1/β)` and `log₂ k + log₂ β`, and
/// each node's `Margin`. A pair's four cells are then table loads and
/// the definition's remaining operations in its order,
/// `(n_ab·(1/β)) · (((log₂ n_ab + log₂ β) − log₂ n_a) − log₂ n_b)`, with
/// the `0 log 0 = 0` convention a select on `n_ab = 0` instead of a branch
/// (a positive `n_ab` implies positive margins); the measure combines the
/// cells as [`MiCells::imi`] or [`MiCells::mi`] does. Every operation sees
/// the same inputs as in the definition, so every value keeps its bits.
#[derive(Clone, Debug)]
pub struct PairEvaluator {
    measure: CorrelationMeasure,
    beta: u64,
    /// `[k·(1/β), log₂ k + log₂ β]` for every `k ≤ β`.
    terms: Vec<[f64; 2]>,
    log2: Log2Table,
    margins: Vec<Margin>,
}

impl PairEvaluator {
    /// The evaluator of `measure` over `beta` processes for nodes with the
    /// given ones counts (each at most `beta`).
    pub fn new(beta: u64, ones: &[u64], measure: CorrelationMeasure) -> PairEvaluator {
        let inv_b = 1.0 / beta as f64;
        let log2 = Log2Table::new(beta);
        let lb = log2.log2(beta);
        let terms = (0..=beta)
            .map(|k| [k as f64 * inv_b, log2.log2(k) + lb])
            .collect();
        let mut eval = PairEvaluator {
            measure,
            beta,
            terms,
            log2,
            margins: Vec::new(),
        };
        eval.margins = ones.iter().map(|&o| eval.margin(o)).collect();
        eval
    }

    /// The margin of a node with `ones` infections.
    pub(crate) fn margin(&self, ones: u64) -> Margin {
        Margin {
            ones,
            log1: self.log2.log2(ones),
            log0: self.log2.log2(self.beta - ones),
        }
    }

    /// One MI cell from its joint count and the logarithms of its margins.
    #[inline(always)]
    fn cell(&self, n_ab: u64, log_a: f64, log_b: f64) -> f64 {
        let [scaled, lead] = self.terms[n_ab as usize];
        let v = scaled * ((lead - log_a) - log_b);
        if n_ab == 0 {
            0.0
        } else {
            v
        }
    }

    /// The value of a pair with joint count `n11` whose first node has
    /// margin `a` and second margin `b`. The order matters: the IMI
    /// subtracts `|c10|` before `|c01|`, so it is not bitwise symmetric.
    #[inline(always)]
    pub(crate) fn value_of(&self, n11: u64, a: Margin, b: Margin) -> f64 {
        let c11 = self.cell(n11, a.log1, b.log1);
        let c10 = self.cell(a.ones - n11, a.log1, b.log0);
        let c01 = self.cell(b.ones - n11, a.log0, b.log1);
        // `+ n11` first: `ones_i + ones_j` may exceed `β`.
        let c00 = self.cell(self.beta + n11 - a.ones - b.ones, a.log0, b.log0);
        match self.measure {
            CorrelationMeasure::Imi => c11 + c00 - c10.abs() - c01.abs(),
            CorrelationMeasure::Mi => c11 + c10 + c01 + c00,
        }
    }

    /// The value of pair `(i, j)`, `i < j`, with joint count `n11`.
    #[inline]
    pub fn value(&self, i: usize, j: usize, n11: u64) -> f64 {
        self.value_of(n11, self.margins[i], self.margins[j])
    }

    /// The values of pairs `(i, j0)`, `(i, j0 + 1)`, … from their `n11`
    /// counts, into `out` (one value per count).
    pub fn row(&self, i: usize, j0: usize, n11s: &[u64], out: &mut [f64]) {
        debug_assert_eq!(n11s.len(), out.len());
        let a = self.margins[i];
        for ((o, &n11), &b) in out.iter_mut().zip(n11s).zip(&self.margins[j0..]) {
            *o = self.value_of(n11, a, b);
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

/// One unit of work of a full-triangle pass: a contiguous range of rows
/// with every pair `(i, j)`, `i` in `rows`, `j > i`. Its pairs fill one
/// contiguous run of the triangle; `tiles` are the schedule's tiles
/// sharing its row block, walked in order so a tile's columns stay
/// L1-resident while the part's rows stream past.
struct RowPart {
    rows: Range<usize>,
    tiles: Range<usize>,
    pairs: u64,
}

/// About this many parts per pass, so the pool balances at up to 8
/// workers × 4 claims; never fewer than [`MIN_PART_ROWS`] rows a part, so
/// each tile's columns still serve a run of rows.
const TARGET_PARTS: u64 = 64;
const MIN_PART_ROWS: usize = 32;

/// Cuts a full-triangle tile schedule (every pair kept) into row parts:
/// each row block — the tiles sharing a row range, adjacent in the
/// row-block-major schedule — is split into row ranges of about
/// `1/TARGET_PARTS` of the triangle's pairs. A whole row block is one
/// claim no longer, so a pool of several workers is not left waiting on
/// the widest block (the first holds three quarters of the pairs at
/// n = 1000, tile 512).
fn row_parts(n: usize, tiles: &[Tile]) -> Vec<RowPart> {
    let total: u64 = tiles.iter().map(|t| t.pairs).sum();
    let target = total.div_ceil(TARGET_PARTS).max(1);
    let row_pairs = |i: usize| (n - 1 - i) as u64;
    let mut parts: Vec<RowPart> = Vec::new();
    let mut t = 0;
    while t < tiles.len() {
        let rows = tiles[t].rows.clone();
        let block = t..t + tiles[t..].iter().take_while(|x| x.rows == rows).count();
        t = block.end;
        let mut start = rows.start;
        let mut pairs = 0;
        for i in rows.clone() {
            pairs += row_pairs(i);
            if pairs >= target && i + 1 - start >= MIN_PART_ROWS {
                parts.push(RowPart {
                    rows: start..i + 1,
                    tiles: block.clone(),
                    pairs,
                });
                (start, pairs) = (i + 1, 0);
            }
        }
        if pairs > 0 {
            parts.push(RowPart {
                rows: start..rows.end,
                tiles: block,
                pairs,
            });
        } else if let Some(last) = parts.last_mut().filter(|p| p.tiles == block) {
            // Only pair-free rows (the last node's) remain.
            last.rows.end = rows.end;
        }
    }
    parts
}

/// Splits a buffer holding `unit` elements per pair of the triangle (or
/// an empty buffer, for output that is not kept) into the contiguous runs
/// of the row parts, front to back.
fn split_parts<'t, T>(mut tri: &'t mut [T], parts: &[RowPart], unit: usize) -> Vec<&'t mut [T]> {
    let keep = !tri.is_empty();
    parts
        .iter()
        .map(|part| {
            let len = if keep { part.pairs as usize * unit } else { 0 };
            let (run, rest) = std::mem::take(&mut tri).split_at_mut(len);
            tri = rest;
            run
        })
        .collect()
}

/// Runs `emit(i, j0, at, n11s)` over every pair segment of `part`: the
/// `n11` counts of pairs `(i, j0)`, `(i, j0 + 1)`, … from
/// [`NodeColumns::pair_n11_block`], with `at` the position of pair
/// `(i, j0)` in the part's run.
fn part_segments(
    cols: &NodeColumns,
    tiles: &[Tile],
    part: &RowPart,
    emit: &mut impl FnMut(usize, usize, usize, &[u64]),
) {
    let n = cols.num_nodes();
    let run_start = row_start(n, part.rows.start);
    for tile in &tiles[part.tiles.clone()] {
        cols.pair_n11_block(part.rows.clone(), tile.cols.clone(), &mut |i, j0, seg| {
            let i = i as usize;
            emit(i, j0, row_start(n, i) + (j0 - i - 1) - run_start, seg);
        });
    }
}

/// The largest node count the dense pipeline takes: the τ threshold's
/// bucketed index addresses the `n(n−1)/2` triangle values with `u32`
/// positions, and `92,682 · 92,681 / 2 ≤ u32::MAX`. Larger inputs
/// need the streamed pipeline (a memory budget), which has no such limit;
/// the pipeline checks this before it allocates any pair state.
pub const MAX_DENSE_NODES: usize = 92_682;

/// Symmetric matrix of pairwise correlation values over all node pairs.
///
/// Stores only the strictly upper triangle in rank order (see the module
/// docs), with the bucket counts of its values for the τ threshold's
/// index. [`get`](Self::get) looks a pair up in either orientation; the
/// diagonal reads 0.
#[derive(Clone, Debug)]
pub struct CorrelationMatrix {
    n: usize,
    upper: Vec<f64>,
    counts: BucketCounts,
}

impl CorrelationMatrix {
    /// Computes all pairwise values from the column view of a status
    /// matrix with the chosen measure. `O(n²)` pair counts, each a few
    /// popcounts per 64 processes. Single-threaded; see
    /// [`compute_parallel`](Self::compute_parallel).
    pub fn compute(cols: &NodeColumns, measure: CorrelationMeasure) -> Self {
        Self::compute_parallel(cols, measure, 1)
    }

    /// Parallel variant of [`compute`](Self::compute): row ranges of the
    /// upper triangle are claimed by `threads` workers (0 = all cores).
    /// Each cell is a pure function of its pair, so the result is
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
    /// re-estimation persists; `n11` costs `w·n(n−1)/2` bytes at the
    /// count width `w` = [`count_width`]`(β)` (one byte a pair at
    /// `β ≤ 255`), so only checkpointed runs capture it.
    ///
    /// The pair loop is the cache-blocked [`NodeColumns::pair_n11_block`]
    /// kernel over the crate's one tile schedule (`tile_schedule`): `n11`
    /// comes from one row-batched SIMD AND+popcount call per tile row, and
    /// the [`PairEvaluator`] — built once from the per-column ones counts —
    /// turns each row segment into values. A worker claims row parts
    /// (contiguous row ranges of one row block, weighted by their exact
    /// pair count), whose pairs fill one contiguous run of the triangle, so
    /// each value is written straight into its final slot, and each `n11`
    /// narrowed straight into its slot of the packed statistics, and
    /// counted into the worker's bucket counts as its segment is written;
    /// the counts merge by integer addition, so they too are the same at
    /// every thread count.
    pub fn compute_observed(
        cols: &NodeColumns,
        measure: CorrelationMeasure,
        threads: usize,
        capture_stats: bool,
        rec: &diffnet_observe::Recorder,
    ) -> (Self, Option<PairStats>) {
        let n = cols.num_nodes();
        let pairs = n * n.saturating_sub(1) / 2;
        let beta = cols.num_processes() as u64;
        let ones = cols.ones_counts();
        let eval = PairEvaluator::new(beta, &ones, measure);
        let tiles = tile_schedule(n, cols.pair_tile_size(), |_, _| true);
        let row_parts = row_parts(n, &tiles);
        let costs: Vec<u64> = row_parts.iter().map(|p| p.pairs).collect();
        let mut upper = vec![0.0f64; pairs];
        let width = count_width(beta);
        let packed_len = if capture_stats {
            width * (n + pairs)
        } else {
            0
        };
        let mut packed = vec![0u8; packed_len];
        let (packed_ones, packed_n11) = packed.split_at_mut(packed_len.min(width * n));
        if capture_stats {
            pack(packed_ones, &ones);
        }
        let parts: Vec<(&mut [f64], &mut [u8])> = split_parts(&mut upper, &row_parts, 1)
            .into_iter()
            .zip(split_parts(packed_n11, &row_parts, width))
            .collect();
        let (_, pool) = crate::parallel::run_weighted_parts(
            &costs,
            parts,
            4,
            threads,
            || BucketCounts::new(pairs),
            |counts, p, (values, n11s)| {
                part_segments(cols, &tiles, &row_parts[p], &mut |i, j0, at, seg| {
                    let out = &mut values[at..at + seg.len()];
                    eval.row(i, j0, seg, out);
                    // While the segment is still in L1.
                    counts.add_all(out);
                    if capture_stats {
                        pack(&mut n11s[at * width..(at + seg.len()) * width], seg);
                    }
                });
            },
        );
        if rec.is_enabled() {
            rec.worker_chunks("correlation_matrix", &pool.chunks_per_worker);
            rec.add("correlation_pairs", pairs as u64);
            rec.add("correlation_tiles", tiles.len() as u64);
        }
        let mut states = pool.states.into_iter();
        let mut counts = states.next().unwrap_or_else(|| BucketCounts::new(pairs));
        for partial in states {
            counts.merge(&partial);
        }
        let stats = capture_stats.then_some(PairStats { n, beta, packed });
        (CorrelationMatrix { n, upper, counts }, stats)
    }

    /// The pre-tiling implementation, kept as the equivalence oracle for
    /// the tiled kernel and the evaluator: one [`NodeColumns::pair_counts`]
    /// column walk and one [`MiCells::from_counts`] per pair.
    #[cfg(test)]
    pub(crate) fn compute_reference(cols: &NodeColumns, measure: CorrelationMeasure) -> Self {
        let n = cols.num_nodes();
        let mut upper = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                upper.push(measure.value(&MiCells::from_counts(&cols.pair_counts(i, j))));
            }
        }
        Self::from_upper(n, upper)
    }

    /// A matrix over `n` nodes from its upper triangle in rank order.
    #[cfg(test)]
    pub(crate) fn from_upper(n: usize, upper: Vec<f64>) -> Self {
        assert_eq!(upper.len(), n * n.saturating_sub(1) / 2);
        let counts = BucketCounts::of(&upper);
        CorrelationMatrix { n, upper, counts }
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

    /// The pinned 2-means over [`upper`](Self::upper) (Algorithm 1 line
    /// 5): [`crate::pinned_two_means`] of the triangle, bit for bit, from
    /// the bucket counts the matrix's pass already took instead of a count
    /// pass of its own.
    pub fn pinned_two_means(&self) -> PinnedKmeans {
        BucketIndex::from_counts(&self.upper, self.counts.clone()).pinned_two_means()
    }

    /// Algorithm 1 lines 10–12 over the whole triangle: every pair with a
    /// value strictly above `tau` (IEEE `>`, so NaN never qualifies and
    /// `+0.0` is not above `−0.0`) folded into one [`SparseCandidates`]
    /// over all nodes — the accumulator the streamed path folds its tiles
    /// into, so both paths order and truncate lists one way. Single
    /// threaded: one scan of the triangle, row by row.
    pub fn candidates(&self, tau: f64, max_candidates: usize) -> CandidateLists {
        let n = self.n;
        let mut acc = SparseCandidates::new(Shard::full(n), max_candidates);
        for i in 0..n {
            let row = &self.upper[row_start(n, i)..row_start(n, i + 1)];
            for (c, chunk) in row.chunks(64).enumerate() {
                let mut above = above_mask(chunk, tau);
                while above != 0 {
                    let o = above.trailing_zeros() as usize;
                    above &= above - 1;
                    let j = i + 1 + 64 * c + o;
                    acc.insert_pair(i as NodeId, j as NodeId, chunk[o]);
                }
            }
        }
        acc.finish()
    }
}

/// Bit `b` set iff `values[b] > tau`, for up to 64 values. Branch-free —
/// most values lie below τ, where a branch would mispredict — in groups
/// of 8 the compiler vectorizes. The streamed fold's per-pair path takes
/// its verdicts here too.
#[inline]
pub(crate) fn above_mask(values: &[f64], tau: f64) -> u64 {
    debug_assert!(values.len() <= 64);
    let mut mask = 0u64;
    let mut groups = values.chunks_exact(8);
    for (g, group) in (&mut groups).enumerate() {
        let mut byte = 0u64;
        for (l, &v) in group.iter().enumerate() {
            byte |= u64::from(v > tau) << l;
        }
        mask |= byte << (8 * g);
    }
    let done = values.len() - groups.remainder().len();
    for (l, &v) in groups.remainder().iter().enumerate() {
        mask |= u64::from(v > tau) << (done + l);
    }
    mask
}

/// Index of pair `(i, j)` (`i < j`) in a row-major upper-triangle layout.
#[inline]
fn tri_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    row_start(n, i) + (j - i - 1)
}

/// Index of row `i`'s first pair `(i, i + 1)` in the row-major triangle
/// (for `i ≤ n`; the rows past `n − 2` start at the triangle's end).
#[inline]
fn row_start(n: usize, i: usize) -> usize {
    i * n - i * (i + 1) / 2
}

/// The byte width the statistics of a run over `beta` processes store
/// each count at: the smallest of 1, 2, 4 and 8 that holds `β` (no count
/// exceeds `β`) — one byte at the paper's `β = 150`.
pub fn count_width(beta: u64) -> usize {
    match beta {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

/// Applies `$body` with the const `$w` bound to a count width (1, 2, 4
/// or 8), so each width gets its own monomorphized loop.
macro_rules! with_width {
    ($width:expr, $w:ident => $body:expr) => {
        match $width {
            1 => {
                const $w: usize = 1;
                $body
            }
            2 => {
                const $w: usize = 2;
                $body
            }
            4 => {
                const $w: usize = 4;
                $body
            }
            _ => {
                const $w: usize = 8;
                $body
            }
        }
    };
}

/// One `W`-byte little-endian count.
#[inline(always)]
fn load<const W: usize>(bytes: &[u8; W]) -> u64 {
    let mut le = [0u8; 8];
    le[..W].copy_from_slice(bytes);
    u64::from_le_bytes(le)
}

/// Narrows `counts` into `dst`, `dst.len() / counts.len()` bytes each
/// (every count must fit that width).
fn pack(dst: &mut [u8], counts: &[u64]) {
    fn run<const W: usize>(dst: &mut [u8], counts: &[u64]) {
        for (d, &v) in dst.as_chunks_mut::<W>().0.iter_mut().zip(counts) {
            d.copy_from_slice(&v.to_le_bytes()[..W]);
        }
    }
    if let Some(width) = dst.len().checked_div(counts.len()) {
        with_width!(width, W => run::<W>(dst, counts))
    }
}

/// Widens the counts packed in `src`, `src.len() / dst.len()` bytes each,
/// into `dst`.
fn unpack(src: &[u8], dst: &mut [u64]) {
    fn run<const W: usize>(src: &[u8], dst: &mut [u64]) {
        for (d, s) in dst.iter_mut().zip(src.as_chunks::<W>().0) {
            *d = load(s);
        }
    }
    if let Some(width) = src.len().checked_div(dst.len()) {
        with_width!(width, W => run::<W>(src, dst))
    }
}

/// Adds `counts` in place to the counts packed in `dst`,
/// `dst.len() / counts.len()` bytes each (every sum must fit that width).
fn add_packed(dst: &mut [u8], counts: &[u64]) {
    fn run<const W: usize>(dst: &mut [u8], counts: &[u64]) {
        for (d, &v) in dst.as_chunks_mut::<W>().0.iter_mut().zip(counts) {
            let sum = load(d) + v;
            d.copy_from_slice(&sum.to_le_bytes()[..W]);
        }
    }
    if let Some(width) = dst.len().checked_div(counts.len()) {
        with_width!(width, W => run::<W>(dst, counts))
    }
}

/// Pairwise sufficient statistics of a status matrix: `β`, the per-column
/// ones counts, and the upper-triangle `n11` joint counts. Together these
/// determine every [`PairCounts`] cell (`n10 = ones_i − n11`, `n01 = ones_j
/// − n11`, `n00 = β + n11 − ones_i − ones_j` — the same derivations
/// [`NodeColumns::pair_counts_block`] uses), hence the exact correlation
/// matrix, τ, and candidate sets of the run that produced them.
///
/// Every count is stored at [`count_width`]`(β)` bytes, little-endian:
/// the `n` ones counts, then the `n(n−1)/2` `n11` counts in rank order.
/// Those bytes are the checkpoint's statistics section
/// ([`section`](Self::section)), so a save writes them as they are and a
/// load keeps the bytes it read. At the paper's `β = 150` the triangle
/// costs one byte a pair.
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
    /// Ones, then `n11`, each at `count_width(beta)` bytes.
    packed: Vec<u8>,
}

impl PairStats {
    /// Rebuilds statistics over `nodes` nodes from their packed counts
    /// (the layout of [`section`](Self::section), at
    /// [`count_width`]`(beta)` bytes a count), validating the shape and
    /// that every 2×2 cell they imply is a non-negative count.
    pub fn from_section(beta: u64, nodes: usize, packed: Vec<u8>) -> Result<PairStats, String> {
        let width = count_width(beta);
        let need = nodes
            .checked_mul(nodes.saturating_sub(1))
            .and_then(|p| (p / 2).checked_add(nodes))
            .and_then(|counts| counts.checked_mul(width));
        if need != Some(packed.len()) {
            return Err(format!(
                "pair stats shape mismatch: {nodes} nodes' counts at width {width} are not \
                 {} bytes",
                packed.len()
            ));
        }
        let stats = PairStats {
            n: nodes,
            beta,
            packed,
        };
        let ones = stats.ones();
        if let Some(i) = ones.iter().position(|&o| o > beta) {
            return Err(format!(
                "pair stats ones[{i}] = {} exceeds beta = {beta}",
                ones[i]
            ));
        }
        // Every 2×2 cell the statistics imply must be a non-negative
        // count, or later derivations would underflow on hand-edited or
        // corrupted input: n11 ≤ min(ones_i, ones_j) and
        // β + n11 ≥ ones_i + ones_j (n00 ≥ 0), with β + n11 itself
        // representable.
        let mut row = Vec::with_capacity(nodes.saturating_sub(1));
        for i in 0..nodes {
            stats.widen_row(i, &mut row);
            for (&v, j) in row.iter().zip(i + 1..) {
                let n00_fits = beta
                    .checked_add(v)
                    .zip(ones[i].checked_add(ones[j]))
                    .is_some_and(|(total, margins)| margins <= total);
                if v > ones[i].min(ones[j]) || !n00_fits {
                    return Err(format!(
                        "pair stats are inconsistent at pair ({i}, {j}): \
                         n11 = {v}, ones = ({}, {}), beta = {beta}",
                        ones[i], ones[j]
                    ));
                }
            }
        }
        Ok(stats)
    }

    /// Builds statistics from unpacked counts (test convenience).
    #[cfg(test)]
    pub(crate) fn from_parts(
        beta: u64,
        ones: Vec<u64>,
        n11: Vec<u64>,
    ) -> Result<PairStats, String> {
        let width = count_width(beta);
        let counts: Vec<u64> = ones.iter().chain(&n11).copied().collect();
        let mut packed = vec![0u8; width * counts.len()];
        pack(&mut packed, &counts);
        PairStats::from_section(beta, ones.len(), packed)
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

    /// The byte width each count is stored at: [`count_width`]`(β)`.
    pub fn width(&self) -> usize {
        count_width(self.beta)
    }

    /// Every count as stored: the ones counts, then the upper-triangle
    /// `n11` counts row-major (`(0,1), (0,2), …`), each [`width`](Self::width)
    /// bytes little-endian — the checkpoint's statistics section.
    pub fn section(&self) -> &[u8] {
        &self.packed
    }

    /// Count `k` of the [`section`](Self::section), widened.
    #[inline]
    fn count(&self, k: usize) -> u64 {
        let w = self.width();
        with_width!(w, W => load::<W>(self.packed[k * W..].first_chunk().expect("k is a count")))
    }

    /// Every count of the [`section`](Self::section) in order, widened.
    pub(crate) fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.packed.len() / self.width()).map(|k| self.count(k))
    }

    /// Per-column ones counts.
    pub fn ones(&self) -> Vec<u64> {
        (0..self.n).map(|i| self.count(i)).collect()
    }

    /// Widens row `i`'s `n11` counts — pairs `(i, i + 1)`, …, `(i, n − 1)`
    /// — into `out`, replacing its contents.
    pub fn widen_row(&self, i: usize, out: &mut Vec<u64>) {
        let w = self.width();
        let run = (self.n + row_start(self.n, i)) * w..(self.n + row_start(self.n, i + 1)) * w;
        out.clear();
        out.resize(self.n - 1 - i, 0);
        unpack(&self.packed[run], out);
    }

    /// The full joint counts of pair `(i, j)`, reconstructed exactly as the
    /// tiled kernel derives them.
    #[inline]
    pub fn pair_counts(&self, i: usize, j: usize) -> PairCounts {
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let n11 = self.count(self.n + tri_index(self.n, a, b));
        PairCounts::from_n11(n11, self.count(i), self.count(j), self.beta)
    }

    /// Folds `appended` process columns into the statistics — the
    /// incremental-update kernel pass. When the combined `β` needs a wider
    /// count, the storage is widened once first; then the same row parts
    /// of the tile schedule as the full computation run through
    /// [`NodeColumns::pair_n11_block`], over the appended columns only,
    /// each worker adding its run's counts in place. Integer addition is
    /// order-independent, so the result is exact at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `appended` has a different node count, or if the
    /// combined process count overflows a `u64`.
    pub fn append(&mut self, appended: &NodeColumns, threads: usize) {
        assert_eq!(
            appended.num_nodes(),
            self.n,
            "appended cascades must cover the same nodes"
        );
        let n = self.n;
        let beta = self
            .beta
            .checked_add(appended.num_processes() as u64)
            .expect("combined process count fits a u64");
        let (old, width) = (self.width(), count_width(beta));
        if width != old {
            // Little-endian counts widen by zero-extension.
            let mut wide = vec![0u8; self.packed.len() / old * width];
            for (w, o) in wide
                .chunks_exact_mut(width)
                .zip(self.packed.chunks_exact(old))
            {
                w[..old].copy_from_slice(o);
            }
            self.packed = wide;
        }
        self.beta = beta;
        let (ones, n11) = self.packed.split_at_mut(width * n);
        add_packed(ones, &appended.ones_counts());
        let tiles = tile_schedule(n, appended.pair_tile_size(), |_, _| true);
        let row_parts = row_parts(n, &tiles);
        let costs: Vec<u64> = row_parts.iter().map(|p| p.pairs).collect();
        let parts = split_parts(n11, &row_parts, width);
        crate::parallel::run_weighted_parts(
            &costs,
            parts,
            4,
            threads,
            || (),
            |_, p, n11s| {
                part_segments(appended, &tiles, &row_parts[p], &mut |_, _, at, seg| {
                    add_packed(&mut n11s[at * width..(at + seg.len()) * width], seg);
                });
            },
        );
    }

    /// The correlation matrix these statistics determine — bit-identical
    /// to [`CorrelationMatrix::compute_observed`] over the matching status
    /// matrix, because the same [`PairEvaluator`] turns the same integer
    /// counts, widened one row at a time, into values (and counts them
    /// into the same buckets). Pure float work per pair, so it runs
    /// single-threaded without a kernel pass.
    pub fn correlation(&self, measure: CorrelationMeasure) -> CorrelationMatrix {
        let eval = PairEvaluator::new(self.beta, &self.ones(), measure);
        let pairs = self.n * self.n.saturating_sub(1) / 2;
        let mut upper = vec![0.0f64; pairs];
        let mut counts = BucketCounts::new(pairs);
        let mut row = Vec::with_capacity(self.n.saturating_sub(1));
        for i in 0..self.n {
            self.widen_row(i, &mut row);
            let out = &mut upper[row_start(self.n, i)..row_start(self.n, i + 1)];
            eval.row(i, i + 1, &row, out);
            counts.add_all(out);
        }
        CorrelationMatrix {
            n: self.n,
            upper,
            counts,
        }
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
            stats.ones(),
            stats.counts().skip(12).collect(),
        )
        .unwrap();
        assert_eq!(stats, rebuilt);
        assert!(PairStats::from_parts(70, vec![1, 2, 3], vec![0]).is_err());
        assert!(PairStats::from_parts(2, vec![5, 1, 1], vec![0, 0, 0]).is_err());
    }

    /// `rows` as a status matrix over `n` nodes (any number of rows,
    /// zero included).
    fn matrix(rows: &[Vec<bool>], n: usize) -> StatusMatrix {
        let mut m = StatusMatrix::new(rows.len(), n);
        for (l, row) in rows.iter().enumerate() {
            for (i, _) in row.iter().enumerate().filter(|(_, &b)| b) {
                m.set(l, i as u32);
            }
        }
        m
    }

    /// `beta` rows over `n` nodes with node 0 never and node 1 always
    /// infected, so the stored counts reach both 0 and `β`, the top of
    /// their width.
    fn boundary_rows(seed: u64, beta: usize, n: usize) -> Vec<Vec<bool>> {
        let mut rows = random_rows(seed | 1, beta, n);
        for row in &mut rows {
            (row[0], row[1]) = (false, true);
        }
        rows
    }

    fn assert_same_values(a: &CorrelationMatrix, b: &CorrelationMatrix, what: &str) {
        let bits =
            |m: &CorrelationMatrix| m.upper().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}");
    }

    #[test]
    fn captured_stats_are_stored_at_the_width_of_beta() {
        let n = 6;
        for (beta, width) in [(0, 1), (1, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 4)] {
            let cols = matrix(&boundary_rows(beta as u64, beta, n), n).columns();
            let plain = CorrelationMatrix::compute(&cols, CorrelationMeasure::Imi);
            for threads in [1, 3] {
                let stats = PairStats::compute(&cols, threads);
                assert_eq!(stats.width(), width, "β {beta}");
                assert_eq!(stats.section().len(), width * (n + n * (n - 1) / 2));
                assert_eq!(stats.ones(), cols.ones_counts(), "β {beta}");
                for i in 0..n {
                    for j in (i + 1)..n {
                        assert_eq!(
                            stats.pair_counts(i, j),
                            cols.pair_counts(i as u32, j as u32),
                            "β {beta}, pair ({i}, {j})"
                        );
                    }
                }
                let derived = stats.correlation(CorrelationMeasure::Imi);
                assert_same_values(&derived, &plain, &format!("β {beta}, {threads} threads"));
            }
        }
    }

    #[test]
    fn appends_across_a_width_boundary_equal_fresh_stats() {
        let n = 7;
        for (base, added) in [(255, 1), (200, 100), (65_535, 1), (65_000, 1_000)] {
            let rows = boundary_rows(base as u64 ^ 0xA11, base + added, n);
            let (head, tail) = rows.split_at(base);
            let combined = matrix(&rows, n).columns();
            let fresh = PairStats::compute(&combined, 1);
            assert_ne!(fresh.width(), count_width(base as u64), "{base} + {added}");
            for threads in [1, 4] {
                let mut stats = PairStats::compute(&matrix(head, n).columns(), threads);
                stats.append(&matrix(tail, n).columns(), threads);
                assert_eq!(stats, fresh, "{base} + {added} at {threads} threads");
                assert_same_values(
                    &stats.correlation(CorrelationMeasure::Mi),
                    &CorrelationMatrix::compute(&combined, CorrelationMeasure::Mi),
                    &format!("{base} + {added}"),
                );
            }
        }
    }

    #[test]
    fn counts_whose_cells_overflow_are_rejected() {
        // β + n11 does not fit a u64: refused, neither panicking nor
        // wrapping into an accepted section.
        let max = u64::MAX;
        let err = PairStats::from_parts(max, vec![max, max], vec![max]).expect_err("overflow");
        assert!(err.contains("inconsistent"), "{err}");
        // The same shape one below the limit is a valid (if huge) count.
        let half = max / 2;
        assert!(PairStats::from_parts(half, vec![half, half], vec![half]).is_ok());
    }

    #[test]
    fn row_parts_cover_the_triangle_in_order() {
        for (n, tile) in [
            (0, 8),
            (1, 8),
            (2, 8),
            (40, 8),
            (100, 48),
            (1000, 512),
            (333, 64),
        ] {
            let tiles = tile_schedule(n, tile, |_, _| true);
            let parts = row_parts(n, &tiles);
            let mut next_row = 0;
            let mut pairs = 0;
            for part in &parts {
                assert_eq!(part.rows.start, next_row, "n {n}, tile {tile}: gap");
                assert!(part.pairs > 0, "n {n}, tile {tile}: an empty part");
                let block = &tiles[part.tiles.clone()];
                assert!(block
                    .iter()
                    .all(|t| t.rows.start <= part.rows.start && part.rows.end <= t.rows.end));
                let row_pairs: u64 = part.rows.clone().map(|i| (n - 1 - i) as u64).sum();
                assert_eq!(part.pairs, row_pairs);
                next_row = part.rows.end;
                pairs += part.pairs;
            }
            assert_eq!(pairs as usize, n * n.saturating_sub(1) / 2);
            assert!(parts.is_empty() || next_row == n, "n {n}: rows left over");
        }
        // The paper's shape is no longer two claims, one with 76% of the
        // pairs.
        let parts = row_parts(1000, &tile_schedule(1000, 512, |_, _| true));
        let widest = parts.iter().map(|p| p.pairs).max().unwrap();
        assert!(
            parts.len() >= 16 && widest * 12 < 499_500,
            "{} parts",
            parts.len()
        );
    }

    /// The evaluator's value of a pair and its row path's, as bits,
    /// beside the per-pair definition's.
    fn evaluator_and_definition(
        beta: u64,
        (a, b): (u64, u64),
        n11: u64,
        measure: CorrelationMeasure,
    ) -> ([u64; 2], u64) {
        let eval = PairEvaluator::new(beta, &[a, b], measure);
        let mut row = [f64::NAN];
        eval.row(0, 1, &[n11], &mut row);
        let pc = PairCounts::from_n11(n11, a, b, beta);
        (
            [eval.value(0, 1, n11).to_bits(), row[0].to_bits()],
            measure.value(&MiCells::from_counts(&pc)).to_bits(),
        )
    }

    #[test]
    fn evaluator_matches_the_definition_on_every_small_count() {
        for beta in [0u64, 1, 2, 3, 7, 64, 65] {
            for a in 0..=beta {
                for b in 0..=beta {
                    for n11 in (a + b).saturating_sub(beta)..=a.min(b) {
                        for measure in [CorrelationMeasure::Imi, CorrelationMeasure::Mi] {
                            let (got, want) = evaluator_and_definition(beta, (a, b), n11, measure);
                            assert_eq!(got, [want; 2], "β {beta}, ones ({a}, {b}), n11 {n11}");
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Ones counts drawn with the never- (0) and always-infected (β)
        /// columns over-represented, and `n11` at both feasibility bounds
        /// as often as inside them.
        #[test]
        fn evaluator_is_the_definition_bit_for_bit(
            pick in 0usize..7,
            ones_a in (0u8..4, 0.0f64..=1.0),
            ones_b in (0u8..4, 0.0f64..=1.0),
            at in (0u8..3, 0.0f64..=1.0),
        ) {
            let beta = [0u64, 1, 63, 64, 65, 150, 1200][pick];
            let [a, b] = [ones_a, ones_b].map(|(kind, frac)| match kind {
                0 => 0,
                1 => beta,
                _ => (frac * beta as f64) as u64,
            });
            let (lo, hi) = ((a + b).saturating_sub(beta), a.min(b));
            let n11 = match at.0 {
                0 => lo,
                1 => hi,
                _ => lo + (at.1 * (hi - lo) as f64) as u64,
            };
            for measure in [CorrelationMeasure::Imi, CorrelationMeasure::Mi] {
                let (got, want) = evaluator_and_definition(beta, (a, b), n11, measure);
                proptest::prop_assert_eq!(got, [want; 2], "β {}, ones ({}, {}), n11 {}", beta, a, b, n11);
            }
        }
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
