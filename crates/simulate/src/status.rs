//! Bit-packed infection status matrix and its counting kernels.
//!
//! The status matrix `S ∈ {0,1}^{β×n}` is the *only* input TENDS consumes.
//! Its hot operations are:
//!
//! * pairwise joint counts (for the infection-MI pruning) — served by a
//!   column-major transpose ([`NodeColumns`]) where each count is a few
//!   `popcount`s, and
//! * parent-combination counts `N_ijk` (for the scoring criterion) —
//!   served in the search by [`CountsWorkspace`], which histograms the
//!   child against its whole candidate list once and reads every table as
//!   a marginal of that histogram, with [`NodeColumns::combo_counts`]
//!   (recursive bitset splitting) and [`StatusMatrix::combo_counts`] (a
//!   row scan that assembles each process's combination index bit by bit)
//!   as the oracles it must match.

use diffnet_graph::NodeId;
use std::fmt;

const WORD_BITS: usize = 64;

/// Largest parent set any counting kernel will tabulate: the combination
/// table has `2^|parents|` entries, so 26+ parents would not fit in memory.
/// TENDS's Theorem-2 bound keeps real parent sets far smaller; the limit
/// only guards against hostile or degenerate inputs.
pub const MAX_TABULATED_PARENTS: usize = 25;

/// A parent set too large to tabulate: its `2^|parents|` combination table
/// would exceed [`MAX_TABULATED_PARENTS`].
///
/// Returned (instead of panicking) by every `N_ijk` counting kernel, so
/// hostile inputs surface as a typed error through the search API rather
/// than aborting the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComboSizeError {
    /// The offending parent-set size.
    pub parents: usize,
}

impl fmt::Display for ComboSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parent set of {} nodes is too large to tabulate (limit {})",
            self.parents, MAX_TABULATED_PARENTS
        )
    }
}

impl std::error::Error for ComboSizeError {}

/// Errors unless `parents` fits in a combination table.
#[inline]
fn check_combo_size(parents: usize) -> Result<(), ComboSizeError> {
    if parents > MAX_TABULATED_PARENTS {
        Err(ComboSizeError { parents })
    } else {
        Ok(())
    }
}

/// A `β × n` binary matrix: row `ℓ` holds the final infection statuses of
/// all `n` nodes in the `ℓ`-th diffusion process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatusMatrix {
    beta: usize,
    n: usize,
    words_per_row: usize,
    rows: Vec<u64>,
}

impl StatusMatrix {
    /// An all-uninfected matrix for `beta` processes over `n` nodes.
    pub fn new(beta: usize, n: usize) -> Self {
        let words_per_row = n.div_ceil(WORD_BITS).max(1);
        StatusMatrix {
            beta,
            n,
            words_per_row,
            rows: vec![0; beta * words_per_row],
        }
    }

    /// Builds from boolean rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<bool>]) -> Self {
        let beta = rows.len();
        let n = rows.first().map_or(0, |r| r.len());
        let mut m = StatusMatrix::new(beta, n);
        for (l, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {l} has inconsistent length");
            for (i, &infected) in row.iter().enumerate() {
                if infected {
                    m.set(l, i as NodeId);
                }
            }
        }
        m
    }

    /// Number of processes `β`.
    #[inline]
    pub fn num_processes(&self) -> usize {
        self.beta
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Marks node `i` infected in process `l`.
    #[inline]
    pub fn set(&mut self, l: usize, i: NodeId) {
        debug_assert!(l < self.beta && (i as usize) < self.n);
        let w = l * self.words_per_row + (i as usize) / WORD_BITS;
        self.rows[w] |= 1u64 << ((i as usize) % WORD_BITS);
    }

    /// Whether node `i` is infected in process `l`.
    #[inline]
    pub fn get(&self, l: usize, i: NodeId) -> bool {
        debug_assert!(l < self.beta && (i as usize) < self.n);
        let w = l * self.words_per_row + (i as usize) / WORD_BITS;
        (self.rows[w] >> ((i as usize) % WORD_BITS)) & 1 == 1
    }

    /// Number of infected nodes in process `l`.
    pub fn infected_in_process(&self, l: usize) -> usize {
        let start = l * self.words_per_row;
        self.rows[start..start + self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of processes in which node `i` ends up infected — the paper's
    /// `N₂` for node `i` (`N₁ = β − N₂`).
    pub fn infection_count(&self, i: NodeId) -> usize {
        (0..self.beta).filter(|&l| self.get(l, i)).count()
    }

    /// Counts `N_ijk` for child `i` with ordered parent set `parents`.
    ///
    /// Returns a vector of length `2^|parents|`; entry `j` is `[N_ij1,
    /// N_ij2]`, i.e. the number of processes where the parents' statuses
    /// form combination `j` (parent `t`'s status is bit `t` of `j`) and the
    /// child is uninfected (`k=1`, status 0) / infected (`k=2`, status 1),
    /// following the paper's `s₁ = 0, s₂ = 1` convention.
    ///
    /// # Errors
    ///
    /// Returns [`ComboSizeError`] if `parents.len()` exceeds
    /// [`MAX_TABULATED_PARENTS`] (the combination table would not fit in
    /// memory; TENDS's Theorem-2 bound keeps real parent sets far smaller).
    pub fn combo_counts(
        &self,
        child: NodeId,
        parents: &[NodeId],
    ) -> Result<Vec<[u64; 2]>, ComboSizeError> {
        check_combo_size(parents.len())?;
        let mut counts = vec![[0u64; 2]; 1usize << parents.len()];
        for l in 0..self.beta {
            let mut j = 0usize;
            for (t, &p) in parents.iter().enumerate() {
                if self.get(l, p) {
                    j |= 1 << t;
                }
            }
            let k = usize::from(self.get(l, child));
            counts[j][k] += 1;
        }
        Ok(counts)
    }

    /// Builds the column-major transpose used for fast pairwise counting.
    pub fn columns(&self) -> NodeColumns {
        NodeColumns::from_matrix(self)
    }

    /// Overall infected fraction across all processes and nodes.
    pub fn infected_fraction(&self) -> f64 {
        if self.beta == 0 || self.n == 0 {
            return 0.0;
        }
        let total: usize = (0..self.beta).map(|l| self.infected_in_process(l)).sum();
        total as f64 / (self.beta * self.n) as f64
    }
}

/// Most pairs one [`NodeColumns::pair_n11_block`] segment covers: the
/// length of its on-stack count buffer (2 KiB), so a consumer can size
/// per-segment buffers of its own to it.
pub const N11_SEGMENT: usize = 256;

/// Joint status counts for a node pair across all processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairCounts {
    /// Processes where both are infected.
    pub n11: u64,
    /// Processes where `i` is infected and `j` is not.
    pub n10: u64,
    /// Processes where `j` is infected and `i` is not.
    pub n01: u64,
    /// Processes where neither is infected.
    pub n00: u64,
}

impl PairCounts {
    /// The counts of a pair `(i, j)` from its `n11` and the two nodes' ones
    /// counts over `beta` processes: `n10 = ones_i − n11`,
    /// `n01 = ones_j − n11`, `n00 = β + n11 − ones_i − ones_j`.
    #[inline]
    pub fn from_n11(n11: u64, ones_i: u64, ones_j: u64, beta: u64) -> PairCounts {
        PairCounts {
            n11,
            n10: ones_i - n11,
            n01: ones_j - n11,
            // `+ n11` first: `ones_i + ones_j` may exceed `β`.
            n00: beta + n11 - ones_i - ones_j,
        }
    }

    /// Total number of processes `β`.
    pub fn total(&self) -> u64 {
        self.n11 + self.n10 + self.n01 + self.n00
    }
}

/// Column-major bitset view: one `β`-bit vector per node, so pairwise joint
/// counts are word-parallel `popcount`s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeColumns {
    beta: usize,
    words_per_col: usize,
    cols: Vec<u64>,
}

impl NodeColumns {
    /// An all-uninfected column view for `beta` processes over `n` nodes.
    fn new_empty(beta: usize, n: usize) -> Self {
        let words_per_col = beta.div_ceil(WORD_BITS).max(1);
        NodeColumns {
            beta,
            words_per_col,
            cols: vec![0u64; n * words_per_col],
        }
    }

    fn from_matrix(m: &StatusMatrix) -> Self {
        let mut cols = NodeColumns::new_empty(m.beta, m.n);
        let block_words = WORD_BITS * m.words_per_row;
        for (lw, block) in m.rows.chunks(block_words).enumerate() {
            cols.store_row_block(lw, block, m.words_per_row, m.n);
        }
        cols
    }

    /// Stores the row-major `block` — up to 64 rows of `words_per_row`
    /// words each, processes `64·lw ..` — as process-word `lw` of every
    /// column.
    ///
    /// Cache-blocked bit transpose: each 64×64 tile (one row-word column
    /// by one process-word row) is gathered into registers, transposed
    /// with the Hacker's Delight butterfly network, and scattered into
    /// the column bitsets — `O(n·β/64)` word swaps with linear streaming
    /// over the source rows, instead of `O(n·β)` strided bit probes.
    fn store_row_block(&mut self, lw: usize, block: &[u64], words_per_row: usize, n: usize) {
        let rows_here = block.len() / words_per_row;
        let mut tile = [0u64; WORD_BITS];
        for iw in 0..words_per_row {
            let cols_here = n.saturating_sub(iw * WORD_BITS).min(WORD_BITS);
            for (r, t) in tile.iter_mut().take(rows_here).enumerate() {
                *t = block[r * words_per_row + iw];
            }
            tile[rows_here..].fill(0);
            transpose64(&mut tile);
            for (c, &w) in tile.iter().enumerate().take(cols_here) {
                self.cols[(iw * WORD_BITS + c) * self.words_per_col + lw] = w;
            }
        }
    }

    /// Number of processes `β`.
    pub fn num_processes(&self) -> usize {
        self.beta
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.cols.len().checked_div(self.words_per_col).unwrap_or(0)
    }

    /// Node `i`'s raw `β`-bit infection column (process `l` is bit `l`,
    /// little-endian; padding bits past `β` are zero). The operand shape
    /// the [`simd`](crate::simd) kernels consume — exposed so benchmarks
    /// can time explicit kernel tiers over real column data.
    #[inline]
    pub fn col(&self, i: NodeId) -> &[u64] {
        let i = i as usize;
        &self.cols[i * self.words_per_col..(i + 1) * self.words_per_col]
    }

    /// Number of processes where node `i` is infected.
    pub fn ones(&self, i: NodeId) -> u64 {
        crate::simd::kernels().popcount(self.col(i))
    }

    /// Per-column ones counts for every node, in node order — the
    /// precompute that lets the tiled pairwise kernel derive `n10/n01/n00`
    /// from `n11` alone.
    pub fn ones_counts(&self) -> Vec<u64> {
        (0..self.num_nodes() as u32).map(|i| self.ones(i)).collect()
    }

    /// Suggested tile side for [`pair_counts_block`], lane-width-aware:
    /// the largest `T` such that two tiles of `T` columns — each column's
    /// `⌈β/64⌉` words rounded up to whole 256-bit lane groups, since the
    /// SIMD kernels consume four words per step regardless of the tail —
    /// stay within a 32 KiB L1 budget, clamped to `[16, 1024]` and then
    /// aligned down to a multiple of 16 so tile boundaries land on SIMD
    /// word groups. At the paper's scales (`β = 150`, 3 words ⇒ one
    /// 32-byte lane group per column) this is 512, so the whole working
    /// set of a tile pair stays L1-resident; tiles start mattering once
    /// `β` reaches the tens of thousands, where a single column spans
    /// many cache lines.
    ///
    /// [`pair_counts_block`]: NodeColumns::pair_counts_block
    pub fn pair_tile_size(&self) -> usize {
        Self::pair_tile_size_for(self.beta)
    }

    /// [`pair_tile_size`](Self::pair_tile_size) of any view over `beta`
    /// processes, for sizing a pass before the columns exist.
    pub fn pair_tile_size_for(beta: usize) -> usize {
        const L1_BUDGET_BYTES: usize = 32 * 1024;
        // 256-bit AVX2 lane group: four 64-bit words.
        const LANE_BYTES: usize = 32;
        let words = beta.div_ceil(WORD_BITS).max(1);
        let col_bytes = (words * std::mem::size_of::<u64>()).next_multiple_of(LANE_BYTES);
        let t = (L1_BUDGET_BYTES / (2 * col_bytes)).clamp(16, 1024);
        t - t % 16
    }

    /// `n11` — processes where both nodes are infected — for every pair
    /// `(i, j)` with `i ∈ rows`, `j ∈ cols`, and `i < j`, emitted as row
    /// segments in row-major order: `emit(i, j0, n11s)` covers the pairs
    /// `(i, j0)`, `(i, j0 + 1)`, … in order, one count each.
    ///
    /// Columns are stored contiguously, so a row's partners form one
    /// word run, and one [`Kernels::and_popcount_rows`] call per segment
    /// counts them all: the dispatch is paid once per segment (at most
    /// 256 pairs, counted into an on-stack buffer), not once per pair.
    /// Padding bits past `β` are zero, so never- and always-infected
    /// columns need no special case: their popcounts already are `0` and
    /// the partner's ones count.
    ///
    /// [`Kernels::and_popcount_rows`]: crate::simd::Kernels::and_popcount_rows
    pub fn pair_n11_block(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
        emit: &mut impl FnMut(NodeId, usize, &[u64]),
    ) {
        self.pair_n11_block_with(crate::simd::kernels(), rows, cols, emit);
    }

    /// [`pair_n11_block`](Self::pair_n11_block) through an explicit kernel
    /// table instead of the process-wide dispatcher — the same code path,
    /// with one SIMD tier pinned, for benchmarks that time a tier in
    /// isolation.
    pub fn pair_n11_block_with(
        &self,
        k: &crate::simd::Kernels,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
        emit: &mut impl FnMut(NodeId, usize, &[u64]),
    ) {
        debug_assert!(rows.end <= self.num_nodes() && cols.end <= self.num_nodes());
        let w = self.words_per_col;
        let mut buf = [0u64; N11_SEGMENT];
        for i in rows {
            let ci = self.col(i as NodeId);
            let mut j0 = cols.start.max(i + 1);
            while j0 < cols.end {
                let j1 = (j0 + N11_SEGMENT).min(cols.end);
                let out = &mut buf[..j1 - j0];
                k.and_popcount_rows(&self.cols[j0 * w..j1 * w], w, ci, out);
                emit(i as NodeId, j0, out);
                j0 = j1;
            }
        }
    }

    /// Joint counts for every pair `(i, j)` with `i ∈ rows`, `j ∈ cols`,
    /// and `i < j`, emitted in row-major order.
    ///
    /// This is the tiled counterpart of [`pair_counts`]: callers walk the
    /// upper triangle in `T×T` blocks (see [`pair_tile_size`], which sizes
    /// `T` to the SIMD lane width) so the `j` tile's columns stay hot in L1
    /// while the `i` rows stream past. `n11` comes from
    /// [`pair_n11_block`]'s row-batched AND+popcount through the
    /// runtime-dispatched [`simd`](crate::simd) kernel (AVX2/popcnt/scalar,
    /// resolved once per process), and `n10/n01/n00` are derived from the
    /// precomputed `ones` counts — one popcount stream instead of
    /// [`pair_counts`]' three.
    ///
    /// Counts are bit-identical to [`pair_counts`] for every pair, under
    /// every dispatch tier.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `ones` was not produced by
    /// [`ones_counts`] on this view, or if a range end exceeds the node
    /// count.
    ///
    /// [`pair_counts`]: NodeColumns::pair_counts
    /// [`pair_tile_size`]: NodeColumns::pair_tile_size
    /// [`pair_n11_block`]: NodeColumns::pair_n11_block
    /// [`ones_counts`]: NodeColumns::ones_counts
    pub fn pair_counts_block(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
        ones: &[u64],
        emit: &mut impl FnMut(NodeId, NodeId, PairCounts),
    ) {
        debug_assert_eq!(ones.len(), self.num_nodes());
        let beta = self.beta as u64;
        self.pair_n11_block(rows, cols, &mut |i, j0, n11s| {
            let oi = ones[i as usize];
            for (j, (&n11, &oj)) in (j0..).zip(n11s.iter().zip(&ones[j0..])) {
                emit(i, j as NodeId, PairCounts::from_n11(n11, oi, oj, beta));
            }
        });
    }

    /// Counts `N_ijk` for child `i` with ordered parent set `parents`,
    /// word-parallel.
    ///
    /// Semantics are identical to [`StatusMatrix::combo_counts`] (entry `j`
    /// of the result is `[N_ij1, N_ij2]`, parent `t`'s status is bit `t` of
    /// `j`), but the combination table is built by recursive bitset
    /// intersection: for `f` parents the cost is `O(2^f · ⌈β/64⌉)` word
    /// operations instead of `O(β · f)` bit probes. This is the scoring
    /// hot path of TENDS.
    ///
    /// # Errors
    ///
    /// Returns [`ComboSizeError`] if `parents.len()` exceeds
    /// [`MAX_TABULATED_PARENTS`].
    pub fn combo_counts(
        &self,
        child: NodeId,
        parents: &[NodeId],
    ) -> Result<Vec<[u64; 2]>, ComboSizeError> {
        check_combo_size(parents.len())?;
        let words = self.words_per_col;
        let mut counts = vec![[0u64; 2]; 1usize << parents.len()];
        // One arena allocation holds the root mask plus a (zero, one) mask
        // pair per recursion level; the per-branch vector allocations it
        // replaces dominated the cost of tabulating small candidate sets
        // in bulk (checkpoint tables build one per node).
        let mut arena = vec![0u64; words + 2 * words * parents.len()];
        let (root, rest) = arena.split_at_mut(words);
        self.root_mask_into(root);
        self.combo_rec(child, parents, 0, 0, root, rest, &mut counts);
        Ok(counts)
    }

    #[allow(clippy::too_many_arguments)]
    fn combo_rec(
        &self,
        child: NodeId,
        parents: &[NodeId],
        depth: usize,
        index: usize,
        mask: &[u64],
        arena: &mut [u64],
        counts: &mut [[u64; 2]],
    ) {
        if depth == parents.len() {
            let (infected, total) = crate::simd::kernels().and_self_popcount(mask, self.col(child));
            counts[index] = [total - infected, infected];
            return;
        }
        // Prune empty branches: every deeper combination has N_ij = 0,
        // which is what the zero-initialized table already says.
        if mask.iter().all(|&m| m == 0) {
            return;
        }
        let words = mask.len();
        let pcol = self.col(parents[depth]);
        let (cur, rest) = arena.split_at_mut(2 * words);
        let (zero, one) = cur.split_at_mut(words);
        zero.copy_from_slice(mask);
        one.fill(0);
        crate::simd::kernels().refine_masks(zero, one, pcol);
        self.combo_rec(child, parents, depth + 1, index, zero, rest, counts);
        self.combo_rec(
            child,
            parents,
            depth + 1,
            index | (1 << depth),
            one,
            rest,
            counts,
        );
    }

    /// Writes the all-ones mask over the `β` valid process bits into `out`.
    fn root_mask_into(&self, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.words_per_col);
        out.fill(u64::MAX);
        if !self.beta.is_multiple_of(WORD_BITS) {
            out[self.words_per_col - 1] = (1u64 << (self.beta % WORD_BITS)) - 1;
        }
        if self.beta == 0 {
            out[self.words_per_col - 1] = 0;
        }
    }

    /// Joint counts for the pair `(i, j)` over all `β` processes.
    pub fn pair_counts(&self, i: NodeId, j: NodeId) -> PairCounts {
        let (ci, cj) = (self.col(i), self.col(j));
        let mut n11 = 0u64;
        let mut ones_i = 0u64;
        let mut ones_j = 0u64;
        for (wi, wj) in ci.iter().zip(cj) {
            n11 += (wi & wj).count_ones() as u64;
            ones_i += wi.count_ones() as u64;
            ones_j += wj.count_ones() as u64;
        }
        let n10 = ones_i - n11;
        let n01 = ones_j - n11;
        let n00 = self.beta as u64 - n11 - n10 - n01;
        PairCounts { n11, n10, n01, n00 }
    }
}

/// Builds a [`NodeColumns`] view one row at a time — the allocation
/// target of the streaming status parser
/// ([`crate::io::read_status_columns`]). Rows land in a 64-row row-major
/// block that is bit-transposed into the columns whenever it fills, so
/// building costs what [`StatusMatrix::columns`] does while holding one
/// block of rows instead of the whole matrix.
pub(crate) struct RowsToColumns {
    cols: NodeColumns,
    n: usize,
    words_per_row: usize,
    block: Vec<u64>,
    rows: usize,
}

impl RowsToColumns {
    /// Room for at most `max_rows` rows over `n` nodes.
    pub(crate) fn new(max_rows: usize, n: usize) -> Self {
        let words_per_row = n.div_ceil(WORD_BITS).max(1);
        RowsToColumns {
            cols: NodeColumns::new_empty(max_rows, n),
            n,
            words_per_row,
            block: Vec::with_capacity(WORD_BITS * words_per_row),
            rows: 0,
        }
    }

    /// Starts the next row and returns its zeroed words: node `i` is bit
    /// `i % 64` of word `i / 64`, the [`StatusMatrix`] row layout.
    pub(crate) fn push_row(&mut self) -> &mut [u64] {
        assert!(self.rows < self.cols.beta, "more rows than were reserved");
        if self.block.len() == WORD_BITS * self.words_per_row {
            self.flush();
        }
        let start = self.block.len();
        self.block.resize(start + self.words_per_row, 0);
        self.rows += 1;
        &mut self.block[start..]
    }

    fn flush(&mut self) {
        let lw = (self.rows - 1) / WORD_BITS;
        self.cols
            .store_row_block(lw, &self.block, self.words_per_row, self.n);
        self.block.clear();
    }

    /// Number of nodes per row.
    pub(crate) fn num_nodes(&self) -> usize {
        self.n
    }

    /// The finished view over the rows pushed so far; fewer rows than
    /// `max_rows` shrinks each column to the rows' words.
    pub(crate) fn finish(mut self) -> NodeColumns {
        if !self.block.is_empty() {
            self.flush();
        }
        let mut cols = self.cols;
        let words_per_col = self.rows.div_ceil(WORD_BITS).max(1);
        if words_per_col != cols.words_per_col {
            // Column i moves down to i·words_per_col; sources of later
            // columns lie above every destination written before them.
            for i in 0..self.n {
                let src = i * cols.words_per_col;
                cols.cols
                    .copy_within(src..src + words_per_col, i * words_per_col);
            }
            cols.cols.truncate(self.n * words_per_col);
            cols.words_per_col = words_per_col;
        }
        cols.beta = self.rows;
        cols
    }
}

/// In-place transpose of a 64×64 bit matrix (`a[r]` bit `c` ⇄ `a[c]` bit
/// `r`, both little-endian): the Hacker's Delight butterfly network, six
/// rounds of swapping `2^k × 2^k` sub-blocks entirely in registers.
fn transpose64(a: &mut [u64; WORD_BITS]) {
    let mut j = 32usize;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < WORD_BITS {
            let t = ((a[k] >> j) ^ a[k + j]) & mask;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Longest candidate list [`CountsWorkspace`] builds a subset lattice
/// for: `2^12` entries of 16 bytes, 64 KiB per workspace.
pub const LATTICE_MAX_CANDIDATES: usize = 12;

/// How a [`CountsWorkspace`] reads one table out of the child's
/// histogram. Both routes give the same table, entry for entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableRoute {
    /// `counts[pext(code, U)] += cell` over every histogram cell.
    Scatter,
    /// The subset lattice gathered at the `2^|U|` subsets of `U`, then
    /// `|U|` Möbius passes.
    Lattice,
}

/// Reusable scratch state for the parent search's `N_ijk` tables.
///
/// Every table the search scores for a child is a marginal of one joint
/// table: the child against its whole candidate list. The workspace
/// builds that joint table once per child ([`set_candidates`]) as a
/// sparse histogram — the root mask split along each candidate in
/// ascending node-id order, keeping only the cells some process lands in
/// (at most `min(2^c, β)` of them), then every cell's `[uninfected,
/// infected]` counts from one
/// [`and3_popcount_rows`](crate::simd::Kernels::and3_popcount_rows) call.
/// A cell's code has bit `t` set when candidate `t` (in that order) is
/// infected.
///
/// The table of a candidate subset `U` ([`table`]) is read one of two
/// ways ([`TableRoute`]):
///
/// * **Scatter**: `counts[pext(code, U)] += cell` over the cells
///   ([`marginal_counts`](crate::simd::Kernels::marginal_counts)) — one
///   step per cell, whatever the table's size.
/// * **Lattice**, for lists of at most [`LATTICE_MAX_CANDIDATES`]: the
///   cells are scattered once into the dense `2^c` joint table and `c`
///   in-place superset-sum passes turn it into the subset lattice, where
///   entry `S` counts the processes in which every candidate in `S` is
///   infected. A table gathers the lattice at the subsets of `U` in
///   increasing order — the packed order `pext` gives — and `|U|`
///   in-place Möbius passes turn "all of these infected" into "exactly
///   these infected": `|U|·2^(|U|−1)` steps. The lattice is built on the
///   first table that takes this route.
///
/// [`table`] takes the lattice when its Möbius steps are fewer than the
/// histogram's cells, the scatter otherwise, so small tables over a busy
/// histogram skip the per-cell pass. All arithmetic is exact integer
/// counting, and because code bits follow node-id order the packed index
/// puts the subset's parents in sorted order: either route gives the same
/// table, entry for entry, as `cols.combo_counts(child, &sorted_subset)`,
/// so score sums visit the same terms in the same order and reproduce the
/// same bits. All buffers are retained across calls, so steady-state
/// evaluation performs no allocations.
///
/// [`set_candidates`]: CountsWorkspace::set_candidates
/// [`table`]: CountsWorkspace::table
#[derive(Clone, Debug, Default)]
pub struct CountsWorkspace {
    /// Number of candidates the histogram splits along.
    candidates: usize,
    /// Words per cell code: `⌈candidates / 64⌉`, at least one.
    code_words: usize,
    /// Code of each non-empty cell, `code_words` words each (then stale
    /// words from the build).
    codes: Vec<u64>,
    /// Each cell's `[uninfected, infected]` child counts, in `codes` order.
    cells: Vec<[u64; 2]>,
    /// The cells' process masks during the build, `β/64` words each.
    masks: Vec<u64>,
    /// The build's next-level buffers, swapped with `codes`/`masks` after
    /// each candidate.
    next_codes: Vec<u64>,
    next_masks: Vec<u64>,
    /// All-ones mask over the `β` valid process bits.
    root: Vec<u64>,
    /// Output table, in sorted-subset combination order.
    counts: Vec<[u64; 2]>,
    /// The subset lattice of the current histogram, `2^candidates`
    /// entries, once [`lattice_built`](Self::lattice_built).
    lattice: Vec<[u64; 2]>,
    /// Whether `lattice` holds the current histogram's lattice.
    lattice_built: bool,
    /// A pinned kernel tier ([`with_kernels`](Self::with_kernels)); the
    /// process-wide table otherwise.
    kernels: Option<crate::simd::Kernels>,
    /// Cumulative tables emitted by [`table`](Self::table).
    tables: u64,
    /// Cumulative histograms built by [`set_candidates`](Self::set_candidates).
    histograms: u64,
}

/// Cumulative call counts of one [`CountsWorkspace`]: tables counted
/// against histograms built — each histogram serves every table of one
/// child's search, so runs report both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Tables emitted by [`CountsWorkspace::table`] (one per subset
    /// counted; the search's score-cache misses).
    pub refinements: u64,
    /// Histograms built by [`CountsWorkspace::set_candidates`] (one per
    /// searched node).
    pub rebases: u64,
}

/// Extends `v` with zeros to at least `len` words.
fn grow(v: &mut Vec<u64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0);
    }
}

/// Splits every cell — code `codes[r·cw ..]`, process mask
/// `masks[r·words ..]` — along candidate `t`'s column `pcol` into its
/// `m ∧ ¬p` and `m ∧ p` halves (the latter with code bit `t` set),
/// writing the non-empty ones in that order from the front of
/// `next_codes`/`next_masks` (room for two halves per cell), and returns
/// how many it kept. Every half is written and then kept or overwritten,
/// so the loop has no data-dependent branch.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn split_cells(
    codes: &[u64],
    masks: &[u64],
    cw: usize,
    words: usize,
    pcol: &[u64],
    t: usize,
    next_codes: &mut [u64],
    next_masks: &mut [u64],
) -> usize {
    let mut kept = 0usize;
    for (code, m) in codes.chunks_exact(cw).zip(masks.chunks_exact(words)) {
        for (set, flip) in [(0, u64::MAX), (1u64 << (t % 64), 0)] {
            let out = &mut next_masks[kept * words..(kept + 1) * words];
            let mut any = 0u64;
            for ((o, &w), &c) in out.iter_mut().zip(m).zip(pcol) {
                *o = w & (c ^ flip);
                any |= *o;
            }
            let dst = &mut next_codes[kept * cw..(kept + 1) * cw];
            dst.copy_from_slice(code);
            dst[t / 64] |= set;
            kept += usize::from(any != 0);
        }
    }
    kept
}

impl CountsWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        CountsWorkspace::default()
    }

    /// An empty workspace whose histogram and tables run on `kernels`
    /// instead of the process-wide [`kernels`](crate::simd::kernels)
    /// table — for comparing tiers within one process. Every tier yields
    /// the same tables.
    pub fn with_kernels(kernels: crate::simd::Kernels) -> Self {
        CountsWorkspace {
            kernels: Some(kernels),
            ..CountsWorkspace::default()
        }
    }

    /// Builds the histogram of `child` against `candidates` over `cols`,
    /// replacing any previous one.
    ///
    /// The root mask is split along each candidate in turn and cells left
    /// with no process are dropped, as [`NodeColumns::combo_counts`]
    /// prunes empty branches. The previous histogram's subset lattice is
    /// dropped with it; the first table that takes the lattice route
    /// builds this one's.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is unsorted or duplicated.
    pub fn set_candidates(&mut self, cols: &NodeColumns, child: NodeId, candidates: &[NodeId]) {
        assert!(
            candidates.windows(2).all(|w| w[0] < w[1]),
            "candidate list must be sorted and duplicate-free"
        );
        self.histograms += 1;
        self.lattice_built = false;
        let words = cols.words_per_col;
        let cw = candidates.len().div_ceil(64).max(1);
        self.candidates = candidates.len();
        self.code_words = cw;
        self.root.resize(words, 0);
        cols.root_mask_into(&mut self.root);
        // The buffers only grow: `live` cells of the current level lead
        // `codes`/`masks`, and whatever follows is stale.
        let mut live = usize::from(self.root.iter().any(|&w| w != 0));
        grow(&mut self.codes, cw);
        grow(&mut self.masks, words);
        self.codes[..cw].fill(0);
        self.masks[..words].copy_from_slice(&self.root);
        for (t, &p) in candidates.iter().enumerate() {
            let pcol = &cols.col(p)[..words];
            grow(&mut self.next_codes, 2 * live * cw);
            grow(&mut self.next_masks, 2 * live * words);
            let (codes, masks) = (&self.codes[..live * cw], &self.masks[..live * words]);
            let (next_codes, next_masks) = (&mut self.next_codes, &mut self.next_masks);
            let mut split =
                |cw, words| split_cells(codes, masks, cw, words, pcol, t, next_codes, next_masks);
            // Constant widths for paper-scale inputs (one code word,
            // β ≤ 256) let the word loops unroll.
            live = match (cw, words) {
                (1, 1) => split(1, 1),
                (1, 2) => split(1, 2),
                (1, 3) => split(1, 3),
                (1, 4) => split(1, 4),
                _ => split(cw, words),
            };
            std::mem::swap(&mut self.codes, &mut self.next_codes);
            std::mem::swap(&mut self.masks, &mut self.next_masks);
        }
        let k = self.kernels.unwrap_or(*crate::simd::kernels());
        self.cells.resize(live, [0, 0]);
        k.and3_popcount_rows(
            &self.masks[..live * words],
            words,
            &self.root,
            cols.col(child),
            &mut self.cells,
        );
        for cell in &mut self.cells {
            // [total, infected] → [uninfected, infected].
            cell[0] -= cell[1];
        }
    }

    /// Number of non-empty cells in the current histogram.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Cumulative table/histogram counts since construction.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            refinements: self.tables,
            rebases: self.histograms,
        }
    }

    /// The route [`table`](Self::table) takes for a subset of `size`
    /// candidates: the lattice when the list fits it and its
    /// `size·2^(size−1)` Möbius steps are fewer than the histogram's
    /// cells — the scatter's step count — and the scatter otherwise.
    fn route(&self, size: usize) -> TableRoute {
        let moebius_steps = (size << size) / 2;
        if self.candidates <= LATTICE_MAX_CANDIDATES && moebius_steps < self.cells.len() {
            TableRoute::Lattice
        } else {
            TableRoute::Scatter
        }
    }

    /// Counts `N_ijk` for the child under the candidate subset `subset`:
    /// bit `t % 64` of word `t / 64` selects candidate `t` of the sorted
    /// list the histogram was built over, and `subset` spans that list's
    /// code width (one word up to 64 candidates).
    ///
    /// The table is indexed by sorted-subset combination order and is
    /// bit-identical to `cols.combo_counts(child, &sorted_subset)`. It is
    /// read from the subset lattice when the list has at most
    /// [`LATTICE_MAX_CANDIDATES`] candidates and the table's
    /// `|U|·2^(|U|−1)` Möbius steps are fewer than the histogram's cells,
    /// by the scatter otherwise. Each call counts once toward
    /// [`refinements`](WorkspaceStats::refinements).
    ///
    /// # Errors
    ///
    /// Returns [`ComboSizeError`] — without counting a refinement — if
    /// the subset has more than [`MAX_TABULATED_PARENTS`] nodes.
    ///
    /// # Panics
    ///
    /// Panics if `subset` has the wrong width or selects a position past
    /// the candidate list.
    pub fn table(&mut self, subset: &[u64]) -> Result<&[[u64; 2]], ComboSizeError> {
        let size = self.checked_size(subset)?;
        self.read_table(subset, size, self.route(size))
    }

    /// [`table`](Self::table) read by `route` whatever its size — for
    /// timing and testing the two routes against each other.
    ///
    /// # Errors
    ///
    /// As [`table`](Self::table).
    ///
    /// # Panics
    ///
    /// As [`table`](Self::table), and if `route` is
    /// [`TableRoute::Lattice`] for a list of more than
    /// [`LATTICE_MAX_CANDIDATES`] candidates.
    pub fn table_via(
        &mut self,
        subset: &[u64],
        route: TableRoute,
    ) -> Result<&[[u64; 2]], ComboSizeError> {
        assert!(
            route == TableRoute::Scatter || self.candidates <= LATTICE_MAX_CANDIDATES,
            "the subset lattice covers at most {LATTICE_MAX_CANDIDATES} candidates"
        );
        let size = self.checked_size(subset)?;
        self.read_table(subset, size, route)
    }

    /// The number of candidates `subset` selects, after checking its
    /// width and positions against the list and its size against the
    /// table limit.
    fn checked_size(&self, subset: &[u64]) -> Result<usize, ComboSizeError> {
        assert_eq!(
            subset.len(),
            self.code_words,
            "subset must span the candidate list"
        );
        // Candidate positions the last code word holds: 0 to 64.
        let used = self.candidates - 64 * (self.code_words - 1);
        assert!(
            used == 64 || subset[self.code_words - 1] >> used == 0,
            "subset selects a position past the candidate list"
        );
        let size = subset.iter().map(|w| w.count_ones() as usize).sum();
        check_combo_size(size)?;
        Ok(size)
    }

    fn read_table(
        &mut self,
        subset: &[u64],
        size: usize,
        route: TableRoute,
    ) -> Result<&[[u64; 2]], ComboSizeError> {
        self.tables += 1;
        self.counts.resize(1 << size, [0, 0]);
        match route {
            TableRoute::Scatter => {
                let k = self.kernels.unwrap_or(*crate::simd::kernels());
                k.marginal_counts(
                    &self.codes,
                    self.code_words,
                    &self.cells,
                    subset,
                    &mut self.counts,
                );
            }
            TableRoute::Lattice => {
                if !self.lattice_built {
                    self.build_lattice();
                }
                // At most 12 candidates: one code word. `t` walks the
                // subsets of `s` in increasing order, the `i`-th at
                // packed index `i`.
                let s = subset[0];
                let mut t = 0u64;
                for out in self.counts.iter_mut() {
                    *out = self.lattice[t as usize];
                    t = t.wrapping_sub(s) & s;
                }
                for_each_half(&mut self.counts, size, |lo, hi| *lo -= hi);
            }
        }
        Ok(&self.counts)
    }

    /// Scatters the cells into the dense `2^c` joint table and runs the
    /// superset-sum passes over it, leaving at entry `S` the
    /// `[uninfected, infected]` counts of the processes in which every
    /// candidate in `S` is infected.
    fn build_lattice(&mut self) {
        let c = self.candidates;
        debug_assert!(c <= LATTICE_MAX_CANDIDATES && self.code_words == 1);
        self.lattice.clear();
        self.lattice.resize(1 << c, [0, 0]);
        for (&code, &[n0, n1]) in self.codes.iter().zip(&self.cells) {
            let z = &mut self.lattice[code as usize];
            z[0] += n0;
            z[1] += n1;
        }
        for_each_half(&mut self.lattice, c, |lo, hi| *lo += hi);
        self.lattice_built = true;
    }
}

/// Runs `step(table[j], table[j | 2^b])` on both counts of every index
/// `j` without bit `b`, for every bit `b < bits`, one bit after another:
/// with `+=` the superset-sum (zeta) transform of a `2^bits` table, with
/// `−=` its inverse (Möbius) transform.
///
/// Tables of up to `2^LATTICE_MAX_CANDIDATES` entries — every lattice
/// and every table read from one — run with `bits` a constant, so each
/// pass's run length is known and the loops unroll and vectorize; that
/// halves the cost of an 8-candidate lattice and of a 5-parent table.
#[inline(always)]
fn for_each_half(table: &mut [[u64; 2]], bits: usize, step: impl Fn(&mut u64, u64)) {
    macro_rules! constant_bits {
        ($($b:literal)*) => {
            match bits {
                $($b => halves(&mut table[..1 << $b], $b, step),)*
                _ => halves(table, bits, step),
            }
        };
    }
    constant_bits!(1 2 3 4 5 6 7 8 9 10 11 12)
}

// The arms above stop at the lattice's bound.
const _: () = assert!(LATTICE_MAX_CANDIDATES == 12);

/// The passes of [`for_each_half`] over the table's flat words: each adds
/// one contiguous run onto the run before it.
#[inline(always)]
fn halves(table: &mut [[u64; 2]], bits: usize, step: impl Fn(&mut u64, u64)) {
    let words = table.as_flattened_mut();
    for b in 0..bits {
        let half = 2 << b;
        for block in words.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for (l, &h) in lo.iter_mut().zip(hi.iter()) {
                step(l, h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatusMatrix {
        StatusMatrix::from_rows(&[
            vec![true, false, true],
            vec![true, true, false],
            vec![false, false, false],
            vec![true, true, true],
        ])
    }

    #[test]
    fn get_set_round_trip() {
        let mut m = StatusMatrix::new(3, 130);
        m.set(0, 0);
        m.set(1, 64);
        m.set(2, 129);
        assert!(m.get(0, 0) && m.get(1, 64) && m.get(2, 129));
        assert!(!m.get(0, 1) && !m.get(1, 63) && !m.get(2, 128));
    }

    #[test]
    fn from_rows_matches_get() {
        let m = sample();
        assert_eq!(m.num_processes(), 4);
        assert_eq!(m.num_nodes(), 3);
        assert!(m.get(0, 0) && !m.get(0, 1) && m.get(0, 2));
        assert!(!m.get(2, 0) && !m.get(2, 1) && !m.get(2, 2));
    }

    #[test]
    fn per_process_and_per_node_counts() {
        let m = sample();
        assert_eq!(m.infected_in_process(0), 2);
        assert_eq!(m.infected_in_process(2), 0);
        assert_eq!(m.infection_count(0), 3);
        assert_eq!(m.infection_count(1), 2);
        assert_eq!(m.infection_count(2), 2);
    }

    #[test]
    fn infected_fraction() {
        let m = sample();
        assert!((m.infected_fraction() - 7.0 / 12.0).abs() < 1e-12);
        assert_eq!(StatusMatrix::new(0, 0).infected_fraction(), 0.0);
    }

    #[test]
    fn combo_counts_empty_parent_set() {
        let m = sample();
        let c = m.combo_counts(0, &[]).expect("small parent set");
        assert_eq!(c.len(), 1);
        assert_eq!(c[0], [1, 3]); // node 0 uninfected once, infected 3 times
    }

    #[test]
    fn combo_counts_single_parent() {
        let m = sample();
        // child = 2, parent = 1. Processes: (p1, c2) = (0,1),(1,0),(0,0),(1,1)
        let c = m.combo_counts(2, &[1]).expect("small parent set");
        assert_eq!(c.len(), 2);
        assert_eq!(c[0], [1, 1]); // parent 0: child 0 once (row 2), child 1 once (row 0)
        assert_eq!(c[1], [1, 1]); // parent 1: child 0 once (row 1), child 1 once (row 3)
    }

    #[test]
    fn combo_counts_two_parents_bit_order() {
        let m = sample();
        // child = 2, parents = [0, 1]: bit 0 is node 0's status, bit 1 node 1's.
        let c = m.combo_counts(2, &[0, 1]).expect("small parent set");
        assert_eq!(c.len(), 4);
        // rows: (s0,s1,s2) = (1,0,1),(1,1,0),(0,0,0),(1,1,1)
        assert_eq!(c[0b00], [1, 0]); // row 2
        assert_eq!(c[0b01], [0, 1]); // row 0
        assert_eq!(c[0b10], [0, 0]);
        assert_eq!(c[0b11], [1, 1]); // rows 1 and 3
        let total: u64 = c.iter().map(|kc| kc[0] + kc[1]).sum();
        assert_eq!(total, m.num_processes() as u64, "ΣN_ij = β");
    }

    #[test]
    fn pair_counts_agree_with_bruteforce() {
        let m = sample();
        let cols = m.columns();
        for i in 0..3u32 {
            for j in 0..3u32 {
                let pc = cols.pair_counts(i, j);
                let mut expect = PairCounts {
                    n11: 0,
                    n10: 0,
                    n01: 0,
                    n00: 0,
                };
                for l in 0..m.num_processes() {
                    match (m.get(l, i), m.get(l, j)) {
                        (true, true) => expect.n11 += 1,
                        (true, false) => expect.n10 += 1,
                        (false, true) => expect.n01 += 1,
                        (false, false) => expect.n00 += 1,
                    }
                }
                assert_eq!(pc, expect, "pair ({i},{j})");
                assert_eq!(pc.total(), 4);
            }
        }
    }

    #[test]
    fn columns_across_word_boundary() {
        // β = 70 crosses the 64-bit word boundary in the column bitsets.
        let mut m = StatusMatrix::new(70, 2);
        for l in 0..70 {
            if l % 2 == 0 {
                m.set(l, 0);
            }
            if l % 3 == 0 {
                m.set(l, 1);
            }
        }
        let cols = m.columns();
        assert_eq!(cols.ones(0), 35);
        assert_eq!(cols.ones(1), 24);
        let pc = cols.pair_counts(0, 1);
        assert_eq!(
            pc.n11,
            (0..70).filter(|l| l % 2 == 0 && l % 3 == 0).count() as u64
        );
        assert_eq!(pc.total(), 70);
    }

    #[test]
    fn column_combo_counts_match_row_combo_counts() {
        // Randomized cross-check of the two N_ijk kernels, across a word
        // boundary in β.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let beta = 100;
        let n = 10;
        let mut m = StatusMatrix::new(beta, n);
        for l in 0..beta {
            for i in 0..n {
                if next() % 3 == 0 {
                    m.set(l, i as NodeId);
                }
            }
        }
        let cols = m.columns();
        for parents in [
            vec![],
            vec![1],
            vec![3, 7],
            vec![0, 2, 5],
            vec![1, 4, 6, 9],
            vec![0, 1, 2, 3, 4],
        ] {
            let child = 8;
            assert_eq!(
                cols.combo_counts(child, &parents).expect("small"),
                m.combo_counts(child, &parents).expect("small"),
                "parents {parents:?}"
            );
        }
    }

    fn random_matrix(beta: usize, n: usize, seed: u64) -> StatusMatrix {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut m = StatusMatrix::new(beta, n);
        for l in 0..beta {
            for i in 0..n {
                if next() % 3 == 0 {
                    m.set(l, i as NodeId);
                }
            }
        }
        m
    }

    /// The workspace's table of `subset` (node ids, any order) after a
    /// histogram over the sorted `candidates`.
    fn subset_table(
        ws: &mut CountsWorkspace,
        candidates: &[NodeId],
        subset: &[NodeId],
    ) -> Result<Vec<[u64; 2]>, ComboSizeError> {
        let mut mask = vec![0u64; candidates.len().div_ceil(64).max(1)];
        for p in subset {
            let t = candidates
                .binary_search(p)
                .expect("subset of the candidates");
            mask[t / 64] |= 1 << (t % 64);
        }
        ws.table(&mask).map(<[_]>::to_vec)
    }

    /// `subset`, sorted.
    fn sorted(subset: &[NodeId]) -> Vec<NodeId> {
        let mut s = subset.to_vec();
        s.sort_unstable();
        s
    }

    #[test]
    fn workspace_counts_match_recursive_kernel() {
        // β = 100 crosses the word boundary; subsets pick candidates that
        // interleave with the unselected ones both ways.
        let m = random_matrix(100, 12, 0x9E3779B97F4A7C15);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        let cases: &[(&[NodeId], &[NodeId])] = &[
            (&[], &[]),
            (&[4], &[]),
            (&[4], &[4]),
            (&[0, 2, 7], &[0, 7]),
            (&[1, 3, 5, 9], &[9, 3]),
            (&[0, 2, 4, 6, 8, 10], &[2, 6, 10]),
            (&[0, 1, 2, 3, 4, 5], &[0, 1, 2]),
            (&[0, 1, 2, 9, 10], &[9, 10, 0]),
        ];
        for &(candidates, subset) in cases {
            ws.set_candidates(&cols, 11, candidates);
            let got = subset_table(&mut ws, candidates, subset).expect("small subset");
            assert_eq!(
                got,
                cols.combo_counts(11, &sorted(subset)).expect("small"),
                "candidates {candidates:?} subset {subset:?}"
            );
        }
    }

    #[test]
    fn workspace_reuse_across_rounds_and_shrinking_sets() {
        // One workspace driven the way the search drives it: a histogram
        // per child over candidate lists that grow, then shrink, with
        // varying subset widths read from each.
        let m = random_matrix(70, 10, 0xDEADBEEFCAFE1234);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        let lists: &[&[NodeId]] = &[&[], &[3], &[3, 6], &[0, 1, 3, 6, 9], &[6]];
        for &candidates in lists {
            for child in [5u32, 8] {
                ws.set_candidates(&cols, child, candidates);
                for take in 0..=candidates.len() {
                    let subset = &candidates[candidates.len() - take..];
                    let got = subset_table(&mut ws, candidates, subset).expect("small subset");
                    assert_eq!(
                        got,
                        cols.combo_counts(child, subset).expect("small"),
                        "candidates {candidates:?} subset {subset:?} child {child}"
                    );
                }
            }
        }
    }

    #[test]
    fn marginal_tables_match_per_subset_tables() {
        // Every subset of eight candidates, read from one histogram, must
        // reproduce the recursive kernel's table and charge one
        // refinement each — at β = 150 (cells ≤ β < 2⁸, so the histogram
        // has empty cells) and at β = 12 (most combinations empty).
        for beta in [150usize, 12] {
            let m = random_matrix(beta, 12, 0x1357_9BDF_2468_ACE0);
            let cols = m.columns();
            let candidates: Vec<NodeId> = vec![0, 2, 3, 5, 6, 8, 9, 10];
            let mut ws = CountsWorkspace::new();
            ws.set_candidates(&cols, 11, &candidates);
            assert!(ws.cells() <= beta.min(256));
            for mask in 0u64..256 {
                let subset: Vec<NodeId> = (0..8)
                    .filter(|t| mask >> t & 1 == 1)
                    .map(|t| candidates[t])
                    .collect();
                let got = ws.table(&[mask]).expect("small subset");
                assert_eq!(
                    got,
                    cols.combo_counts(11, &subset).expect("small"),
                    "beta {beta} subset {subset:?}"
                );
            }
            assert_eq!(ws.stats().refinements, 256);
        }
    }

    #[test]
    fn lattice_and_scatter_routes_give_the_same_tables() {
        // Every subset of every list of up to LATTICE_MAX_CANDIDATES
        // candidates, read by both routes from one workspace that moves
        // between children (so a stale lattice would show), against the
        // recursive kernel.
        let m = random_matrix(150, 16, 0x2545_F491_4F6C_DD1D);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        for c in 0..=LATTICE_MAX_CANDIDATES {
            let candidates: Vec<NodeId> = (0..c as NodeId).map(|t| t + t / 4).collect();
            for child in [15, 14] {
                ws.set_candidates(&cols, child, &candidates);
                for mask in 0u64..1 << c {
                    let subset: Vec<NodeId> = (0..c)
                        .filter(|t| mask >> t & 1 == 1)
                        .map(|t| candidates[t])
                        .collect();
                    let want = cols.combo_counts(child, &subset).expect("small");
                    for route in [TableRoute::Lattice, TableRoute::Scatter] {
                        let got = ws.table_via(&[mask], route).expect("small subset");
                        assert_eq!(got, want, "{route:?} child {child} subset {subset:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn tables_take_the_lattice_while_its_steps_undercut_the_cells() {
        let m = random_matrix(150, 14, 0x9E37_79B9_7F4A_7C15);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        let candidates: Vec<NodeId> = (0..8).collect();
        ws.set_candidates(&cols, 13, &candidates);
        let cells = ws.cells();
        assert!(cells > 32 && cells <= 150, "{cells} cells");
        for size in 0..=8 {
            let want = if size * (1 << size) / 2 < cells {
                TableRoute::Lattice
            } else {
                TableRoute::Scatter
            };
            assert_eq!(ws.route(size), want, "size {size} over {cells} cells");
        }
        assert_eq!(ws.route(4), TableRoute::Lattice);
        assert_eq!(ws.route(7), TableRoute::Scatter);
        // Past the lattice's candidate bound every table scatters.
        let long: Vec<NodeId> = (0..13).collect();
        ws.set_candidates(&cols, 13, &long);
        assert!(ws.cells() > 1);
        assert_eq!(ws.route(0), TableRoute::Scatter);
        // With no process there is no cell, so nothing undercuts it.
        let empty = StatusMatrix::new(0, 4).columns();
        ws.set_candidates(&empty, 0, &[1, 2]);
        assert_eq!(ws.route(0), TableRoute::Scatter);
    }

    #[test]
    #[should_panic(expected = "at most 12 candidates")]
    fn lattice_route_rejects_long_candidate_lists() {
        let m = random_matrix(20, 14, 1);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        ws.set_candidates(&cols, 13, &(0..13).collect::<Vec<NodeId>>());
        let _ = ws.table_via(&[1], TableRoute::Lattice);
    }

    #[test]
    fn tables_over_more_than_64_candidates_chain_code_words() {
        // 70 candidates: codes span two words, and a subset's packed
        // index continues from the first word's bits into the second's.
        let m = random_matrix(96, 72, 0x0F0F_1234_5678_9ABC);
        let cols = m.columns();
        let candidates: Vec<NodeId> = (1..71).collect();
        let mut ws = CountsWorkspace::new();
        ws.set_candidates(&cols, 0, &candidates);
        assert!(ws.cells() <= 96);
        for subset in [vec![], vec![70], vec![1, 64, 65], vec![3, 40, 63, 66, 70]] {
            assert_eq!(
                subset_table(&mut ws, &candidates, &subset).expect("small subset"),
                cols.combo_counts(0, &subset).expect("small"),
                "subset {subset:?}"
            );
        }
    }

    #[test]
    fn workspace_zero_beta() {
        let m = StatusMatrix::new(0, 4);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        ws.set_candidates(&cols, 0, &[1, 2]);
        assert_eq!(ws.cells(), 0);
        assert_eq!(
            subset_table(&mut ws, &[1, 2], &[1, 2]).expect("small subset"),
            vec![[0, 0]; 4]
        );
    }

    #[test]
    fn workspace_stats_count_rebases_and_refinements() {
        let m = sample();
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        assert_eq!(ws.stats(), WorkspaceStats::default());
        ws.set_candidates(&cols, 2, &[0, 1]);
        subset_table(&mut ws, &[0, 1], &[0]).expect("small");
        subset_table(&mut ws, &[0, 1], &[1]).expect("small");
        ws.set_candidates(&cols, 0, &[1]);
        subset_table(&mut ws, &[1], &[1]).expect("small");
        let stats = ws.stats();
        assert_eq!(stats.rebases, 2);
        assert_eq!(stats.refinements, 3);
    }

    #[test]
    #[should_panic(expected = "past the candidate list")]
    fn table_rejects_positions_past_the_candidate_list() {
        let m = sample();
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        ws.set_candidates(&cols, 2, &[0, 1]);
        let _ = ws.table(&[0b100]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn workspace_rejects_unsorted_base() {
        let m = sample();
        let cols = m.columns();
        CountsWorkspace::new().set_candidates(&cols, 0, &[2, 1]);
    }

    #[test]
    fn column_combo_counts_zero_beta() {
        let m = StatusMatrix::new(0, 4);
        let cols = m.columns();
        assert_eq!(
            cols.combo_counts(0, &[1, 2]).expect("small"),
            vec![[0, 0]; 4]
        );
    }

    #[test]
    fn combo_counts_rejects_huge_parent_sets_with_typed_error() {
        let m = StatusMatrix::new(1, 30);
        let parents: Vec<NodeId> = (0..26).collect();
        let err = m.combo_counts(29, &parents).unwrap_err();
        assert_eq!(err, ComboSizeError { parents: 26 });
        assert!(err.to_string().contains("too large"));
        let cols = m.columns();
        assert_eq!(cols.combo_counts(29, &parents).unwrap_err(), err);
        // The workspace histograms any number of candidates, but a table
        // of more than the limit errors without counting a refinement.
        let mut ws = CountsWorkspace::new();
        ws.set_candidates(&cols, 29, &parents);
        assert_eq!(ws.table(&[(1 << 26) - 1]).unwrap_err(), err);
        assert_eq!(ws.stats().refinements, 0);
    }

    #[test]
    fn zero_size_matrices() {
        let m = StatusMatrix::new(0, 0);
        assert_eq!(m.num_processes(), 0);
        assert_eq!(m.columns().num_nodes(), 0);
        let m2 = StatusMatrix::new(5, 0);
        assert_eq!(m2.infected_fraction(), 0.0);
    }

    /// A deterministic pseudo-random matrix with planted degenerate columns.
    fn scrambled(beta: usize, n: usize) -> StatusMatrix {
        let mut m = StatusMatrix::new(beta, n);
        let mut state = 0x9e3779b97f4a7c15u64 ^ (beta as u64) << 32 ^ n as u64;
        for l in 0..beta {
            for i in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Node 0 never infected, nodes 1, 2 always infected
                // (degenerate pair on both sides), and the last node
                // always infected so upper-triangle pairs also hit the
                // j-degenerate branch with a non-degenerate i.
                let infected = if i == 0 {
                    false
                } else if i == 1 || i == 2 || i + 1 == n {
                    true
                } else {
                    state >> 33 & 1 == 1
                };
                if infected {
                    m.set(l, i as NodeId);
                }
            }
        }
        m
    }

    #[test]
    fn ones_counts_match_per_node_ones() {
        let cols = scrambled(70, 9).columns();
        let ones = cols.ones_counts();
        assert_eq!(ones.len(), 9);
        for i in 0..9u32 {
            assert_eq!(ones[i as usize], cols.ones(i));
        }
        assert_eq!(ones[0], 0);
        assert_eq!(ones[1], 70);
        assert_eq!(ones[8], 70);
    }

    #[test]
    fn pair_tile_size_tracks_column_footprint() {
        // β = 150 → 3 words/col, lane-padded to 32 B → ⌊32768 / 64⌋ = 512.
        assert_eq!(StatusMatrix::new(150, 4).columns().pair_tile_size(), 512);
        // Tiny β also occupies one full 32-byte lane group per column.
        assert_eq!(StatusMatrix::new(8, 4).columns().pair_tile_size(), 512);
        // β = 65_536 → 1024 words/col → 2 tile columns fit in 32 KiB.
        // The lower clamp keeps tiles from degenerating to single columns.
        assert_eq!(StatusMatrix::new(65_536, 2).columns().pair_tile_size(), 16);
        // β = 2051 → 33 words, lane-padded to 36 → 56, aligned down to 48.
        assert_eq!(StatusMatrix::new(2051, 2).columns().pair_tile_size(), 48);
        // Every tile side lands on a 16-column boundary.
        for beta in [1usize, 100, 999, 4097, 30_000] {
            let t = StatusMatrix::new(beta, 2).columns().pair_tile_size();
            assert_eq!(t % 16, 0, "beta {beta} tile {t}");
            assert!((16..=1024).contains(&t), "beta {beta} tile {t}");
        }
    }

    #[test]
    fn blocked_transpose_matches_bit_probes() {
        // β and n both straddle several 64×64 transpose tiles, with ragged
        // edges on both axes; verify every column bit against the
        // row-major source.
        let m = scrambled(193, 131);
        let cols = m.columns();
        for i in 0..131u32 {
            let col = &cols.cols
                [(i as usize) * cols.words_per_col..(i as usize + 1) * cols.words_per_col];
            for l in 0..193usize {
                let bit = (col[l / WORD_BITS] >> (l % WORD_BITS)) & 1 == 1;
                assert_eq!(bit, m.get(l, i), "process {l} node {i}");
            }
            // Padding bits above β stay clear.
            for l in 193..cols.words_per_col * WORD_BITS {
                assert_eq!((col[l / WORD_BITS] >> (l % WORD_BITS)) & 1, 0);
            }
        }
    }

    #[test]
    fn transpose64_is_an_involution_and_transposes() {
        let mut a = [0u64; WORD_BITS];
        let mut state = 0xA5A5_5A5A_DEAD_BEEFu64;
        for w in a.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *w = state;
        }
        let orig = a;
        transpose64(&mut a);
        for (r, row) in orig.iter().enumerate() {
            for (c, col) in a.iter().enumerate() {
                assert_eq!((col >> r) & 1, (row >> c) & 1, "({r},{c})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    /// All pairs of the upper triangle via the tiled kernel, walked in
    /// `tile`-sized blocks like the production caller.
    fn tiled_pairs(cols: &NodeColumns, tile: usize) -> Vec<(NodeId, NodeId, PairCounts)> {
        let n = cols.num_nodes();
        let ones = cols.ones_counts();
        let mut out = Vec::new();
        for jb in (0..n).step_by(tile) {
            let j_hi = (jb + tile).min(n);
            for ib in (0..j_hi).step_by(tile) {
                let i_hi = (ib + tile).min(j_hi);
                cols.pair_counts_block(ib..i_hi, jb..j_hi, &ones, &mut |i, j, c| {
                    out.push((i, j, c));
                });
            }
        }
        out.sort_unstable_by_key(|&(i, j, _)| (i, j));
        out
    }

    #[test]
    fn tiled_pair_counts_match_per_pair_kernel() {
        // β values straddle word boundaries: 63/64/65 probe tail-word
        // masking, 1 and 130 probe tiny and multi-word columns.
        for beta in [1usize, 63, 64, 65, 130] {
            let cols = scrambled(beta, 13).columns();
            for tile in [1usize, 3, 16] {
                let got = tiled_pairs(&cols, tile);
                assert_eq!(got.len(), 13 * 12 / 2, "beta {beta} tile {tile}");
                for (i, j, c) in got {
                    assert_eq!(
                        c,
                        cols.pair_counts(i, j),
                        "beta {beta} tile {tile} pair ({i},{j})"
                    );
                    assert_eq!(c.total(), beta as u64);
                }
            }
        }
    }

    #[test]
    fn tiled_kernel_crosses_row_segment_boundaries() {
        // Rows longer than one 256-pair n11 segment: a full segment, a
        // partial one, and a tile edge inside the second segment.
        let n = 2 * N11_SEGMENT + 7;
        let cols = scrambled(65, n).columns();
        for tile in [n, N11_SEGMENT + 3] {
            let got = tiled_pairs(&cols, tile);
            assert_eq!(got.len(), n * (n - 1) / 2, "tile {tile}");
            for (i, j, c) in got {
                assert_eq!(c, cols.pair_counts(i, j), "tile {tile} pair ({i},{j})");
            }
        }
    }

    #[test]
    fn tiled_kernel_degenerate_columns() {
        // scrambled() plants never-infected node 0 and always-infected
        // nodes 1, 2: degenerate pairs on the i side, the j side, and
        // both (1,2), whose counts come from the popcount alone.
        let beta = 97u64;
        let cols = scrambled(beta as usize, 6).columns();
        let pairs = tiled_pairs(&cols, 4);
        for &(i, j, c) in &pairs {
            assert_eq!(c, cols.pair_counts(i, j), "pair ({i},{j})");
        }
        let at = |i: NodeId, j: NodeId| pairs.iter().find(|p| (p.0, p.1) == (i, j)).unwrap().2;
        // Never-infected × always-infected: all mass in n01.
        assert_eq!(
            at(0, 1),
            PairCounts {
                n11: 0,
                n10: 0,
                n01: beta,
                n00: 0
            }
        );
        // Always-infected × always-infected: all mass in n11.
        assert_eq!(
            at(1, 2),
            PairCounts {
                n11: beta,
                n10: 0,
                n01: 0,
                n00: 0
            }
        );
        // Never-infected × random j: n11 = n10 = 0, n01 = ones(j).
        let c03 = at(0, 3);
        assert_eq!((c03.n11, c03.n10), (0, 0));
        assert_eq!(c03.n01, cols.ones(3));
        // Random i × always-infected j (node 5 is planted always-on).
        let c35 = at(3, 5);
        assert_eq!((c35.n10, c35.n00), (0, 0));
        assert_eq!(c35.n11, cols.ones(3));
        assert_eq!(c35.n01, beta - cols.ones(3));
    }

    #[test]
    fn tiled_kernel_empty_ranges_emit_nothing() {
        let cols = scrambled(40, 5).columns();
        let ones = cols.ones_counts();
        let mut calls = 0usize;
        cols.pair_counts_block(0..0, 0..5, &ones, &mut |_, _, _| calls += 1);
        cols.pair_counts_block(0..5, 5..5, &ones, &mut |_, _, _| calls += 1);
        // A block strictly below the diagonal emits nothing (i < j filter).
        cols.pair_counts_block(3..5, 0..2, &ones, &mut |_, _, _| calls += 1);
        assert_eq!(calls, 0);
    }
}
