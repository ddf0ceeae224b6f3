//! Bit-packed infection status matrix and its counting kernels.
//!
//! The status matrix `S ∈ {0,1}^{β×n}` is the *only* input TENDS consumes.
//! Its hot operations are:
//!
//! * pairwise joint counts (for the infection-MI pruning) — served by a
//!   column-major transpose ([`NodeColumns`]) where each count is a few
//!   `popcount`s, and
//! * parent-combination counts `N_ijk` (for the scoring criterion) —
//!   served in the search by [`CountsWorkspace`], which caches one parent
//!   set's partition of the processes and scores a whole batch of
//!   extensions of it in one pass ([`ExtensionBatch`]), with
//!   [`NodeColumns::combo_counts`] (recursive bitset splitting) and
//!   [`StatusMatrix::combo_counts`] (a row scan that assembles each
//!   process's combination index bit by bit) as the oracles it must match.

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
/// length of its on-stack count buffer (2 KiB).
const N11_SEGMENT: usize = 256;

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

/// A batch of parent-set extensions `W`, scored together against one
/// cached base by [`CountsWorkspace::extension_counts`].
///
/// Stored as one flat run of node ids per extension, each run sorted on
/// insertion; [`clear`](Self::clear) keeps the buffers, so a caller that
/// builds one batch per greedy round allocates nothing in steady state.
#[derive(Clone, Debug, Default)]
pub struct ExtensionBatch {
    nodes: Vec<NodeId>,
    ends: Vec<usize>,
}

impl ExtensionBatch {
    /// An empty batch.
    pub fn new() -> Self {
        ExtensionBatch::default()
    }

    /// Removes every extension, retaining capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.ends.clear();
    }

    /// Appends one extension (its nodes in any order) and returns its
    /// index in the batch.
    ///
    /// # Panics
    ///
    /// Panics if a node repeats within the extension.
    pub fn push(&mut self, nodes: impl IntoIterator<Item = NodeId>) -> usize {
        let start = self.nodes.len();
        self.nodes.extend(nodes);
        let ext = &mut self.nodes[start..];
        ext.sort_unstable();
        assert!(
            ext.windows(2).all(|w| w[0] < w[1]),
            "extension set must be duplicate-free"
        );
        self.ends.push(self.nodes.len());
        self.ends.len() - 1
    }

    /// Number of extensions.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch holds no extension.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Extension `t`, sorted.
    pub fn get(&self, t: usize) -> &[NodeId] {
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        &self.nodes[start..self.ends[t]]
    }

    fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        (0..self.len()).map(|t| self.get(t))
    }
}

/// Reusable scratch state for incremental `N_ijk` counting.
///
/// The greedy parent search evaluates `g(v_i, F ∪ W)` for one fixed base set
/// `F` and many small extensions `W` per round. The workspace instantiates
/// `F`'s partition once per round ([`set_base`]): the process masks of the
/// combinations of `F`'s statuses that occur at all (at most `min(2^|F|,
/// β)` of them). [`extension_counts`] then scores a whole batch of
/// extensions in one pass over that partition, without copying or
/// refining it per extension:
///
/// * each cell's `(total, infected)` counts are computed once per batch;
/// * each distinct member node `a` of the batch splits every cell once —
///   `(|m ∧ a|, |m ∧ a ∧ child|)` — and every extension containing `a`
///   shares that split;
/// * an extension of `k ≥ 2` nodes adds one split per member subset of two
///   or more nodes (one for a pair: `m ∧ a ∧ b`), and its `2^k` cells per
///   base cell follow by inclusion–exclusion (for a pair: `10 = m∧a − 11`,
///   `01 = m∧b − 11`, `00 = m − m∧a − m∧b + 11`).
///
/// Every split over the partition is one call of the dispatched
/// [`and3_popcount_rows`](crate::simd::Kernels::and3_popcount_rows)
/// kernel. All buffers are retained across calls, so steady-state
/// evaluation performs no allocations.
///
/// Counts are **bit-identical** to `cols.combo_counts(child, &union)` where
/// `union` is the sorted merge of the base and extension sets: entry `j` of
/// each table indexes parent combinations by the sorted-union bit order
/// (parent `t` of the union contributes bit `t`), exactly like the other
/// two kernels. Identical table order means downstream floating-point score
/// sums visit terms in the same order and reproduce the same bits.
///
/// [`set_base`]: CountsWorkspace::set_base
/// [`extension_counts`]: CountsWorkspace::extension_counts
#[derive(Clone, Debug, Default)]
pub struct CountsWorkspace {
    /// The cached base parent set `F` (sorted, deduplicated).
    base_parents: Vec<NodeId>,
    /// Words per process-bitset column; fixed by the `NodeColumns` that the
    /// base was instantiated from.
    words: usize,
    /// All-ones mask over the `β` valid process bits.
    root: Vec<u64>,
    /// Base-order combination index of each non-empty cell of `F`'s
    /// partition.
    cells: Vec<u32>,
    /// Those cells' process masks, `words` words each, in `cells` order.
    masks: Vec<u64>,
    /// [`set_base`](Self::set_base)'s next-level buffers, swapped with
    /// `cells`/`masks` after each parent.
    next_cells: Vec<u32>,
    next_masks: Vec<u64>,
    /// Distinct member nodes of the batch being scored, sorted.
    members: Vec<NodeId>,
    /// Shared `[|m ∧ x|, |m ∧ x ∧ child|]` rows, one entry per cell: row 0
    /// splits by the root mask (the cells' own counts), row `1 + i` by
    /// `members[i]`.
    rows: Vec<[u64; 2]>,
    /// One extension's `2^|W|` rows, one per member subset, turned into its
    /// cells' counts in place.
    work: Vec<[u64; 2]>,
    /// Column intersection of each member subset of one extension.
    ands: Vec<u64>,
    /// Sorted-union index of each cell's base bits, for one extension.
    cell_index: Vec<usize>,
    /// Sorted-union index of each member subset's bits, for one extension.
    subset_index: Vec<usize>,
    /// Output table, in sorted-union combination order.
    counts: Vec<[u64; 2]>,
    /// A pinned kernel tier ([`with_kernels`](Self::with_kernels)); the
    /// process-wide table otherwise.
    kernels: Option<crate::simd::Kernels>,
    /// Cumulative tables emitted by [`extension_counts`](Self::extension_counts).
    refine_calls: u64,
    /// Cumulative [`set_base`](Self::set_base) calls (full recounts).
    rebase_calls: u64,
}

/// Cumulative call counts of one [`CountsWorkspace`], distinguishing cheap
/// incremental refinements from full base recounts — the ratio is the
/// whole point of the incremental engine, so runs report both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Tables emitted by [`CountsWorkspace::extension_counts`] (one per
    /// extension scored against the cached base).
    pub refinements: u64,
    /// [`CountsWorkspace::set_base`] calls (full partition recounts).
    pub rebases: u64,
}

impl CountsWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        CountsWorkspace::default()
    }

    /// An empty workspace whose extension counting runs on `kernels`
    /// instead of the process-wide [`kernels`](crate::simd::kernels)
    /// table — for comparing tiers within one process. Every tier yields
    /// the same tables.
    pub fn with_kernels(kernels: crate::simd::Kernels) -> Self {
        CountsWorkspace {
            kernels: Some(kernels),
            ..CountsWorkspace::default()
        }
    }

    /// Instantiates the partition of `parents` (the round's base set `F`)
    /// over `cols`, replacing any previous base.
    ///
    /// The root mask is split along each parent in turn and cells left
    /// with no process are dropped, as [`NodeColumns::combo_counts`]
    /// prunes empty branches.
    ///
    /// `parents` must be sorted and duplicate-free — the invariant the
    /// greedy search maintains for its accepted parent set.
    ///
    /// # Errors
    ///
    /// Returns [`ComboSizeError`] if `parents.len()` exceeds
    /// [`MAX_TABULATED_PARENTS`].
    ///
    /// # Panics
    ///
    /// Panics if `parents` is unsorted or duplicated (a programmer-contract
    /// violation, unlike the size limit which hostile inputs can reach).
    pub fn set_base(
        &mut self,
        cols: &NodeColumns,
        parents: &[NodeId],
    ) -> Result<(), ComboSizeError> {
        assert!(
            parents.windows(2).all(|w| w[0] < w[1]),
            "base parent set must be sorted and duplicate-free"
        );
        check_combo_size(parents.len())?;
        self.rebase_calls += 1;
        let words = cols.words_per_col;
        self.words = words;
        self.base_parents.clear();
        self.base_parents.extend_from_slice(parents);
        self.root.resize(words, 0);
        cols.root_mask_into(&mut self.root);
        self.cells.clear();
        self.masks.clear();
        if self.root.iter().any(|&w| w != 0) {
            self.cells.push(0);
            self.masks.extend_from_slice(&self.root);
        }
        for (t, &p) in parents.iter().enumerate() {
            let pcol = &cols.col(p)[..words];
            self.next_cells.clear();
            self.next_masks.resize(2 * self.masks.len(), 0);
            let mut kept = 0usize;
            for (&e, m) in self.cells.iter().zip(self.masks.chunks_exact(words)) {
                for (bit, flip) in [(0, u64::MAX), (1u32 << t, 0)] {
                    // The half of `m` where the parent's status is `bit`:
                    // `m ∧ ¬p` for 0, `m ∧ p` for 1.
                    let out = &mut self.next_masks[kept * words..(kept + 1) * words];
                    let mut any = 0u64;
                    for ((o, &w), &c) in out.iter_mut().zip(m).zip(pcol) {
                        *o = w & (c ^ flip);
                        any |= *o;
                    }
                    if any != 0 {
                        self.next_cells.push(e | bit);
                        kept += 1;
                    }
                }
            }
            self.next_masks.truncate(kept * words);
            std::mem::swap(&mut self.cells, &mut self.next_cells);
            std::mem::swap(&mut self.masks, &mut self.next_masks);
        }
        Ok(())
    }

    /// The cached base parent set.
    pub fn base_parents(&self) -> &[NodeId] {
        &self.base_parents
    }

    /// Cumulative refine/rebase call counts since construction.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            refinements: self.refine_calls,
            rebases: self.rebase_calls,
        }
    }

    /// Counts `N_ijk` for `child` under `F ∪ W` for every extension `W` of
    /// `batch`, in one pass over the cached base partition (see the type
    /// docs for the scheme).
    ///
    /// Each extension must be disjoint from the base set; it may be empty
    /// (the table of `F` itself). `sink` receives `(t, counts)` for each
    /// extension index `t` in batch order; the table is indexed by
    /// sorted-union combination order and is bit-identical to
    /// `cols.combo_counts(child, &sorted_union)`. Each extension counts
    /// once toward [`refinements`](WorkspaceStats::refinements).
    ///
    /// # Errors
    ///
    /// Returns [`ComboSizeError`] — before scoring anything or counting any
    /// refinement — for the first extension whose union with the base
    /// exceeds [`MAX_TABULATED_PARENTS`] nodes.
    ///
    /// # Panics
    ///
    /// Panics if an extension overlaps the base set or if `cols` has a
    /// different process count than the base was instantiated from.
    pub fn extension_counts(
        &mut self,
        cols: &NodeColumns,
        child: NodeId,
        batch: &ExtensionBatch,
        mut sink: impl FnMut(usize, &[[u64; 2]]),
    ) -> Result<(), ComboSizeError> {
        assert_eq!(
            self.words, cols.words_per_col,
            "workspace base was instantiated from a different matrix shape"
        );
        let f = self.base_parents.len();
        for ext in batch.iter() {
            assert!(
                ext.iter()
                    .all(|p| self.base_parents.binary_search(p).is_err()),
                "extension set must be disjoint from the base parent set"
            );
            check_combo_size(f + ext.len())?;
        }
        self.refine_calls += batch.len() as u64;

        let k = self.kernels.unwrap_or(*crate::simd::kernels());
        let words = self.words;
        let ccol = cols.col(child);
        let live = self.cells.len();
        self.members.clear();
        self.members.extend_from_slice(&batch.nodes);
        self.members.sort_unstable();
        self.members.dedup();
        let shared = (1 + self.members.len()) * live;
        self.rows.resize(shared, [0, 0]);
        let (cell_row, member_rows) = self.rows.split_at_mut(live);
        k.and3_popcount_rows(&self.masks, words, &self.root, ccol, cell_row);
        for (&a, row) in self
            .members
            .iter()
            .zip(member_rows.chunks_exact_mut(live.max(1)))
        {
            k.and3_popcount_rows(&self.masks, words, cols.col(a), ccol, row);
        }

        for (t, ext) in batch.iter().enumerate() {
            let subsets = 1usize << ext.len();
            // Row S of `work`: [|m ∧ ⋀S|, |m ∧ ⋀S ∧ child|] for each cell,
            // copied from the shared rows for S = ∅ and single members.
            self.work.resize(subsets * live, [0, 0]);
            self.ands.resize(subsets * words, 0);
            for (s, row) in self.work.chunks_exact_mut(live.max(1)).enumerate() {
                if s == 0 {
                    row.copy_from_slice(&self.rows[..live]);
                } else if s.is_power_of_two() {
                    let member = ext[s.trailing_zeros() as usize];
                    let i = self
                        .members
                        .binary_search(&member)
                        .expect("batch members were collected");
                    row.copy_from_slice(&self.rows[(1 + i) * live..(2 + i) * live]);
                } else {
                    // ⋀S = ⋀(S minus its lowest member) ∧ that member.
                    let low = s & s.wrapping_neg();
                    let rest = s ^ low;
                    let (done, todo) = self.ands.split_at_mut(s * words);
                    let prev: &[u64] = if rest.is_power_of_two() {
                        cols.col(ext[rest.trailing_zeros() as usize])
                    } else {
                        &done[rest * words..(rest + 1) * words]
                    };
                    let col = cols.col(ext[low.trailing_zeros() as usize]);
                    let and = &mut todo[..words];
                    for ((o, &p), &c) in and.iter_mut().zip(prev).zip(col) {
                        *o = p & c;
                    }
                    k.and3_popcount_rows(&self.masks, words, and, ccol, row);
                }
            }
            // Superset Möbius inversion: row T becomes the counts of the
            // processes whose members in T are infected and whose other
            // members are not. Every partial sum counts processes, so no
            // subtraction underflows.
            for b in 0..ext.len() {
                let bit = 1usize << b;
                for s in (0..subsets).filter(|s| s & bit == 0) {
                    let (lo, hi) = self.work.split_at_mut((s | bit) * live);
                    for (x, y) in lo[s * live..(s + 1) * live].iter_mut().zip(&hi[..live]) {
                        x[0] -= y[0];
                        x[1] -= y[1];
                    }
                }
            }

            // Sorted-union index of each cell's base bits and of each
            // subset's member bits: member `i` lands after every base
            // parent below it and after the `i` members before it.
            self.cell_index.clear();
            self.cell_index
                .extend(self.cells.iter().map(|&e| e as usize));
            self.subset_index.resize(subsets, 0);
            for (i, &p) in ext.iter().enumerate() {
                let pos = i + self.base_parents.partition_point(|&b| b < p);
                for s in 1usize << i..2usize << i {
                    self.subset_index[s] = self.subset_index[s - (1 << i)] | 1 << pos;
                }
                // Open a zero bit at `pos` in every cell's base index.
                let low = (1usize << pos) - 1;
                for j in &mut self.cell_index {
                    *j = (*j & low) | (*j & !low) << 1;
                }
            }
            self.counts.clear();
            self.counts.resize(1usize << (f + ext.len()), [0, 0]);
            for (row, &js) in self.work.chunks_exact(live.max(1)).zip(&self.subset_index) {
                for (&jc, &[total, infected]) in self.cell_index.iter().zip(row) {
                    self.counts[jc | js] = [total - infected, infected];
                }
            }
            sink(t, &self.counts);
        }
        Ok(())
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

    /// [`CountsWorkspace::extension_counts`] on a batch of one, as an
    /// owned table.
    fn one_table(
        ws: &mut CountsWorkspace,
        cols: &NodeColumns,
        child: NodeId,
        extra: &[NodeId],
    ) -> Result<Vec<[u64; 2]>, ComboSizeError> {
        let mut batch = ExtensionBatch::new();
        batch.push(extra.iter().copied());
        let mut table = Vec::new();
        ws.extension_counts(cols, child, &batch, |_, counts| table = counts.to_vec())?;
        Ok(table)
    }

    #[test]
    fn workspace_counts_match_recursive_kernel() {
        // β = 100 crosses the word boundary; exercise base/extension splits
        // whose sorted unions interleave both ways.
        let m = random_matrix(100, 12, 0x9E3779B97F4A7C15);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        let cases: &[(&[NodeId], &[NodeId])] = &[
            (&[], &[]),
            (&[], &[4]),
            (&[2], &[]),
            (&[2], &[0]),
            (&[2], &[7]),
            (&[1, 5], &[3, 9]),
            (&[0, 4, 8], &[2, 6, 10]),
            (&[3, 4, 5], &[0, 1, 2]),
            (&[0, 1, 2], &[9, 10, 11]),
        ];
        for &(base, extra) in cases {
            ws.set_base(&cols, base).expect("small base");
            let mut union: Vec<NodeId> = base.iter().chain(extra).copied().collect();
            union.sort_unstable();
            let got = one_table(&mut ws, &cols, 11, extra).expect("small union");
            assert_eq!(
                got,
                cols.combo_counts(11, &union).expect("small"),
                "base {base:?} extra {extra:?}"
            );
        }
    }

    #[test]
    fn workspace_reuse_across_rounds_and_shrinking_sets() {
        // One workspace driven the way the greedy search drives it: bases
        // that grow, then shrink, with varying extension widths in between.
        let m = random_matrix(70, 10, 0xDEADBEEFCAFE1234);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        let rounds: &[&[NodeId]] = &[&[], &[3], &[3, 6], &[1, 3, 6], &[6]];
        for &base in rounds {
            ws.set_base(&cols, base).expect("small base");
            assert_eq!(ws.base_parents(), base);
            for extra in [vec![], vec![0], vec![0, 9], vec![2, 4, 9]] {
                if extra.iter().any(|p| base.contains(p)) {
                    continue;
                }
                let mut union: Vec<NodeId> = base.iter().chain(&extra).copied().collect();
                union.sort_unstable();
                for child in [5u32, 8] {
                    let got = one_table(&mut ws, &cols, child, &extra).expect("small union");
                    assert_eq!(
                        got,
                        cols.combo_counts(child, &union).expect("small"),
                        "base {base:?} extra {extra:?} child {child}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_extensions_match_per_extension_tables() {
        // One batch mixing extension sizes 0–3, repeats and shared members
        // must reproduce the recursive kernel's table for every extension,
        // with bases that interleave the extensions both ways and bases
        // with empty cells, and charge one refinement per extension.
        let m = random_matrix(100, 12, 0x1357_9BDF_2468_ACE0);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        let cases: &[(&[NodeId], &[&[NodeId]])] = &[
            (&[], &[&[0]]),
            (&[], &[&[4], &[7, 4], &[], &[11, 4, 7], &[4]]),
            (&[5], &[&[0], &[6, 9], &[9], &[0, 6, 9], &[6, 9]]),
            (&[2, 8], &[&[0, 3], &[5], &[10, 11], &[3, 0], &[0, 5, 11]]),
            (&[0, 1, 2, 3, 4, 5], &[&[6], &[7, 9], &[6, 7, 11]]),
            (&[4, 6, 10], &[&[0, 5, 11], &[11], &[0]]),
        ];
        let mut batch = ExtensionBatch::new();
        for &(base, extras) in cases {
            ws.set_base(&cols, base).expect("small base");
            batch.clear();
            for ext in extras {
                batch.push(ext.iter().copied());
            }
            let before = ws.stats().refinements;
            let mut seen = 0usize;
            ws.extension_counts(&cols, 11, &batch, |t, counts| {
                let mut union: Vec<NodeId> = base.iter().chain(extras[t]).copied().collect();
                union.sort_unstable();
                let expect = cols.combo_counts(11, &union).expect("small union");
                assert_eq!(counts, expect, "base {base:?} extension {:?}", extras[t]);
                assert_eq!(t, seen, "tables arrive in batch order");
                seen += 1;
            })
            .expect("small unions");
            assert_eq!(seen, extras.len());
            assert_eq!(ws.stats().refinements, before + extras.len() as u64);
        }
        // Empty batches do nothing and charge nothing.
        batch.clear();
        let before = ws.stats().refinements;
        ws.extension_counts(&cols, 11, &batch, |_, _| panic!("no extensions"))
            .expect("empty batch");
        assert_eq!(ws.stats().refinements, before);
    }

    #[test]
    fn extension_batch_sorts_each_extension() {
        let mut batch = ExtensionBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.push([9, 2, 5]), 0);
        assert_eq!(batch.push([]), 1);
        assert_eq!(batch.push([3]), 2);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(0), &[2, 5, 9]);
        assert!(batch.get(1).is_empty());
        assert_eq!(batch.get(2), &[3]);
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate-free")]
    fn extension_batch_rejects_repeated_nodes() {
        ExtensionBatch::new().push([4, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn batched_extensions_reject_base_overlap() {
        let m = sample();
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        ws.set_base(&cols, &[1]).expect("small base");
        let mut batch = ExtensionBatch::new();
        batch.push([0]);
        batch.push([1]);
        let _ = ws.extension_counts(&cols, 2, &batch, |_, _| {});
    }

    #[test]
    fn workspace_zero_beta() {
        let m = StatusMatrix::new(0, 4);
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        ws.set_base(&cols, &[1]).expect("small base");
        assert_eq!(
            one_table(&mut ws, &cols, 0, &[2]).expect("small union"),
            vec![[0, 0]; 4]
        );
    }

    #[test]
    fn workspace_stats_count_rebases_and_refinements() {
        let m = sample();
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        assert_eq!(ws.stats(), WorkspaceStats::default());
        ws.set_base(&cols, &[]).expect("empty base");
        one_table(&mut ws, &cols, 2, &[0]).expect("small");
        one_table(&mut ws, &cols, 2, &[1]).expect("small");
        ws.set_base(&cols, &[0]).expect("small base");
        one_table(&mut ws, &cols, 2, &[1]).expect("small");
        let stats = ws.stats();
        assert_eq!(stats.rebases, 2);
        assert_eq!(stats.refinements, 3);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn workspace_rejects_overlapping_extension() {
        let m = sample();
        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        ws.set_base(&cols, &[1]).expect("small base");
        let _ = one_table(&mut ws, &cols, 2, &[1]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn workspace_rejects_unsorted_base() {
        let m = sample();
        let cols = m.columns();
        let _ = CountsWorkspace::new().set_base(&cols, &[2, 1]);
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
        let mut ws = CountsWorkspace::new();
        assert_eq!(ws.set_base(&cols, &parents).unwrap_err(), err);
        // A base/extension split whose union crosses the limit errors too,
        // before scoring any extension of the batch and without counting
        // the failed call as a refinement.
        ws.set_base(&cols, &parents[..20]).expect("20 fits");
        let rebases_before = ws.stats();
        let mut batch = ExtensionBatch::new();
        batch.push([20]);
        batch.push(parents[20..].iter().copied());
        batch.push(parents[21..].iter().copied());
        assert_eq!(
            ws.extension_counts(&cols, 29, &batch, |_, _| panic!("nothing is scored")),
            Err(err)
        );
        assert_eq!(ws.stats().refinements, rebases_before.refinements);
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
