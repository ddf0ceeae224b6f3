//! Parent-set search (paper §IV-A and Algorithm 1 lines 6–20).
//!
//! For each node, TENDS forms a candidate parent set from the
//! infection-MI pruning, enumerates small candidate combinations admissible
//! under the Theorem-2 size bound, and greedily expands the parent set.
//!
//! Algorithm 1 as printed pops combinations in descending standalone-score
//! order and adds *every* one that keeps the union under the size bound —
//! which would make the final parent set the whole candidate set whenever
//! the bound permits, leaving the scoring criterion no veto. The §IV-A
//! prose instead expands with "a node combination that increases the value
//! of the current `g(v_i, F_i)` the most". Both are implemented
//! ([`GreedyStrategy`]); the improvement-driven variant is the default and
//! the literal one is kept for the ablation bench.
//!
//! Every set the search scores is a subset of the node's candidate list,
//! so the search runs in candidate-mask space: bit `t` of a mask stands
//! for the `t`-th candidate in ascending node-id order. A round's union
//! `F ∪ W` is `F | W`, its novelty `W & !F`, and its table is a marginal
//! of the child's histogram against the whole candidate list
//! ([`CountsWorkspace`], built once per node). Every evaluated subset is
//! memoized in a [`ScoreCache`] keyed on its mask, so greedy rounds (and
//! the exhaustive strategy) that re-probe a subset already scored — round
//! one re-scores every enumerated combination verbatim — reuse the score
//! and `φ` instead of recounting. Cached reuse is bit-identical to
//! recounting, which the reference-oracle test pins down.

#[cfg(test)]
use crate::imi::CorrelationMatrix;
use crate::score::{self, CachedScore, ScoreCache, ScoreCacheStats};
use diffnet_graph::NodeId;
use diffnet_simulate::{ComboSizeError, CountsWorkspace, NodeColumns};
use std::cell::Cell;
use std::fmt;

/// How the greedy expansion of a node's parent set accepts combinations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GreedyStrategy {
    /// Repeatedly add the combination whose union with the current parent
    /// set yields the highest local score, accepting only strict
    /// improvements (the §IV-A description). Default.
    #[default]
    BestImprovement,
    /// The literal Algorithm-1 rule: visit combinations in descending
    /// standalone-score order and union in each one that keeps the parent
    /// set under the Theorem-2 bound.
    ScoreOrdered,
    /// Exhaustive search over *all* subsets of the candidate set (subject
    /// to the Theorem-2 bound), returning the global maximizer of
    /// `g(v_i, F_i)`. Exponential in the candidate count — intended for
    /// small candidate sets and for verifying the greedy variants'
    /// optimality gap, not for production runs.
    Exhaustive,
}

/// Why a node's parent search could not run: an input the search API
/// refuses (a repeated candidate, a node id past the matrix), or a
/// configuration its counting kernels cannot tabulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchError {
    /// Some evaluated parent set (or, for [`GreedyStrategy::Exhaustive`],
    /// the candidate set itself) exceeds
    /// [`diffnet_simulate::MAX_TABULATED_PARENTS`]. Unreachable under
    /// [`SearchParams::default`]; hostile or degenerate configurations (a
    /// huge `max_combo_size` over a huge candidate list) surface here
    /// instead of as a process abort.
    ComboSize {
        /// The child node whose search failed.
        child: NodeId,
        /// The underlying kernel error.
        source: ComboSizeError,
    },
    /// The candidate list names `candidate` more than once.
    DuplicateCandidate {
        /// The child node whose search was refused.
        child: NodeId,
        /// The repeated candidate.
        candidate: NodeId,
    },
    /// The child or a candidate is not a node of the status matrix.
    NodeOutOfRange {
        /// The child node whose search was refused.
        child: NodeId,
        /// The offending node id (the child itself or a candidate).
        node: NodeId,
        /// The matrix's node count.
        nodes: usize,
    },
}

impl SearchError {
    /// The child node whose search failed.
    pub fn child(&self) -> NodeId {
        match *self {
            SearchError::ComboSize { child, .. }
            | SearchError::DuplicateCandidate { child, .. }
            | SearchError::NodeOutOfRange { child, .. } => child,
        }
    }
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parent search for node {}: ", self.child())?;
        match self {
            SearchError::ComboSize { source, .. } => source.fmt(f),
            SearchError::DuplicateCandidate { candidate, .. } => {
                write!(f, "candidate {candidate} is listed more than once")
            }
            SearchError::NodeOutOfRange { node, nodes, .. } => {
                write!(f, "node {node} out of range for n = {nodes}")
            }
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::ComboSize { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Refuses a child or candidate id past the matrix and a repeated
/// candidate, which would otherwise index past a column slice or break
/// the workspace's sorted-list contract. `sorted` is the candidate list
/// in ascending order.
fn check_inputs(cols: &NodeColumns, child: NodeId, sorted: &[NodeId]) -> Result<(), SearchError> {
    let nodes = cols.num_nodes();
    let last = sorted.last().map_or(child, |&c| c.max(child));
    if last as usize >= nodes {
        let node = if child as usize >= nodes { child } else { last };
        return Err(SearchError::NodeOutOfRange { child, node, nodes });
    }
    match sorted.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(SearchError::DuplicateCandidate {
            child,
            candidate: w[0],
        }),
        None => Ok(()),
    }
}

/// Tunable parameters of the parent-set search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchParams {
    /// Greedy acceptance rule.
    pub strategy: GreedyStrategy,
    /// Largest candidate combination `W` enumerated into `C_i` (the paper
    /// enumerates every subset of `P_i` admissible under Theorem 2; the
    /// cap is the §IV-D complexity control `η`).
    pub max_combo_size: usize,
    /// Keep at most this many candidates per node (the highest-correlation
    /// ones) before enumeration — the `κ ≪ n` the paper's complexity
    /// analysis assumes (§IV-D).
    ///
    /// This cap doubles as the effective regularizer when the threshold
    /// clustering is permissive: Theorem 2's size bound self-saturates
    /// (its `φ` term grows with `2^{|F_i|}`) and the penalty term cannot
    /// stop cell-splitting once parent-status combinations have only one
    /// or two instances, so `|F_i|` is in practice limited by the number
    /// of available candidates. The default of 8 matches the Theorem-2
    /// bound at the empty parent set (`log₂ δ_i ≈ 8.3` for `β = 150`).
    pub max_candidates: usize,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            strategy: GreedyStrategy::BestImprovement,
            max_combo_size: 2,
            max_candidates: 8,
        }
    }
}

/// A scored candidate combination `W ⊆ P_i`.
#[derive(Clone, Debug)]
pub struct Combo {
    /// Member nodes, sorted.
    pub nodes: Vec<NodeId>,
    /// Standalone local score `g(v_i, W)`.
    pub score: f64,
}

/// Aggregate counters from one parent search, accumulated as plain
/// integers on the hot path (no recorder calls per combination) and
/// ingested into a `diffnet_observe::Recorder` at phase boundaries.
///
/// Every field is a pure function of the node's inputs, so per-node stats
/// — and their sums across nodes — are identical at every thread count.
/// The workspace and reference search paths maintain them identically,
/// which the equivalence oracle test asserts. (Score-cache hits count as
/// evaluations here; the hit/miss split lives in [`ScoreCacheStats`],
/// outside this struct, precisely so the oracle equality holds.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Local-score evaluations (combinations scored, incl. the empty set).
    pub evaluations: usize,
    /// Combinations discarded by the Theorem-2 size bound
    /// `|F| ≤ log₂(φ_F + δ)`, across enumeration and greedy expansion.
    pub bound_rejections: usize,
    /// Greedy expansion rounds: scan passes for
    /// [`GreedyStrategy::BestImprovement`], accepted unions for
    /// [`GreedyStrategy::ScoreOrdered`]; 0 for
    /// [`GreedyStrategy::Exhaustive`] (no greedy loop runs).
    pub greedy_rounds: usize,
}

impl SearchStats {
    /// Field-wise sum with another stats record.
    pub fn merge(&mut self, other: &SearchStats) {
        self.evaluations += other.evaluations;
        self.bound_rejections += other.bound_rejections;
        self.greedy_rounds += other.greedy_rounds;
    }
}

/// Per-worker scratch state for the parent search: the counting
/// workspace plus the cross-round score cache. One instance serves many
/// nodes in sequence, retaining every buffer.
#[derive(Clone, Debug, Default)]
pub struct SearchScratch {
    /// Per-node candidate histogram and its marginal tables.
    pub ws: CountsWorkspace,
    /// Cross-round `g(v_i, F ∪ W)` memo (reset per child).
    pub cache: ScoreCache,
    /// Bitmask of every enumerated combination, [`Ctx::words`] words each.
    masks: Vec<u64>,
}

impl SearchScratch {
    /// Fresh scratch state.
    pub fn new() -> Self {
        SearchScratch::default()
    }
}

/// Per-node outcome of the parent search.
#[derive(Clone, Debug)]
pub struct NodeSearchResult {
    /// The selected parent set `F_i`, sorted.
    pub parents: Vec<NodeId>,
    /// Local score `g(v_i, F_i)` of the selection.
    pub score: f64,
    /// Candidate parents that survived pruning, in descending correlation
    /// order.
    pub candidates: Vec<NodeId>,
    /// Search-effort counters for this node.
    pub stats: SearchStats,
    /// Score-cache hit/miss counters for this node (all zero on the
    /// cacheless reference path).
    pub cache_stats: ScoreCacheStats,
}

/// Candidate parents of `child`: all nodes whose correlation with `child`
/// strictly exceeds `tau`, in descending correlation order, truncated to
/// `max_candidates` (Algorithm 1 lines 10–12) — one row scan per node. The
/// equivalence oracle for [`CorrelationMatrix::candidates`], which the
/// pipeline uses instead.
#[cfg(test)]
pub(crate) fn candidate_parents(
    corr: &CorrelationMatrix,
    child: NodeId,
    tau: f64,
    max_candidates: usize,
) -> Vec<NodeId> {
    let n = corr.num_nodes() as u32;
    let cands: Vec<(f64, NodeId)> = (0..n)
        .filter(|&j| j != child)
        .map(|j| (corr.get(child, j), j))
        .filter(|&(v, _)| v > tau)
        .collect();
    // Select the top `max_candidates` in O(n) under the streamed fold's
    // total order (descending correlation, ascending id), then sort only
    // those — instead of sorting all survivors just to discard most.
    crate::stream::top_ids(cands, max_candidates)
}

/// What one child's search scores against, in candidate-mask space: bit
/// `t % 64` of word `t / 64` of a mask stands for `sorted[t]`.
struct Ctx {
    /// The candidates in ascending node-id order — the histogram's code
    /// order, so a mask's table indexes its parents in sorted order.
    sorted: Vec<NodeId>,
    /// Mask bit of each candidate, in the caller's (correlation) order.
    bit: Vec<usize>,
    /// Words per mask: one whenever the list fits 64 candidates — the
    /// only case in which the score cache is on, keyed on that word.
    words: usize,
    /// Theorem-2 slack `δ_i`.
    delta: f64,
    /// The empty subset's mask.
    empty: Vec<u64>,
    /// [`score::parent_bound`]`(φ, delta)` for small `φ`, NaN until
    /// first needed: most tables have few empty cells, and the bound
    /// check runs on every evaluation, hit or miss.
    bounds: [Cell<f64>; 64],
}

impl Ctx {
    /// The context of `child`'s search over `candidates`, with the
    /// child's own `δ_i`, after [`check_inputs`].
    fn new(cols: &NodeColumns, child: NodeId, candidates: &[NodeId]) -> Result<Self, SearchError> {
        let mut sorted = candidates.to_vec();
        sorted.sort_unstable();
        check_inputs(cols, child, &sorted)?;
        let delta = child_delta(cols, child);
        let bit = candidates
            .iter()
            .map(|c| sorted.binary_search(c).expect("sorted copy"))
            .collect();
        let words = candidates.len().div_ceil(64).max(1);
        Ok(Ctx {
            sorted,
            bit,
            words,
            delta,
            empty: vec![0; words],
            bounds: std::array::from_fn(|_| Cell::new(f64::NAN)),
        })
    }

    /// [`score::within_bound`]`(size, phi, delta)`, the log taken once
    /// per node for each small `φ`.
    fn within_bound(&self, size: usize, phi: usize) -> bool {
        let Some(memo) = self.bounds.get(phi) else {
            return score::within_bound(size, phi, self.delta);
        };
        let mut bound = memo.get();
        if bound.is_nan() {
            bound = score::parent_bound(phi, self.delta);
            memo.set(bound);
        }
        size as f64 <= bound
    }

    /// The cache key of `subset`, if caching is on (at most 64
    /// candidates).
    fn key(&self, subset: &[u64]) -> Option<u64> {
        (self.sorted.len() <= 64).then(|| subset[0])
    }

    /// The sorted node set a mask selects.
    fn nodes(&self, mask: &[u64]) -> Vec<NodeId> {
        let mut nodes = Vec::new();
        for (w, &m) in mask.iter().enumerate() {
            let mut bits = m;
            while bits != 0 {
                nodes.push(self.sorted[64 * w + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        nodes
    }
}

/// Theorem 2's slack `δ_i` for `child` (in range).
fn child_delta(cols: &NodeColumns, child: NodeId) -> f64 {
    let beta = cols.num_processes() as u64;
    let n2 = cols.ones(child);
    score::delta(beta, beta - n2, n2)
}

/// Size of `mask & !exclude`.
fn count_outside(mask: &[u64], exclude: &[u64]) -> usize {
    mask.iter()
        .zip(exclude)
        .map(|(&m, &x)| (m & !x).count_ones() as usize)
        .sum()
}

/// `g(v_i, ·)` and `φ` of the subset `mask`: from the cache when it was
/// scored before, otherwise from its marginal table (memoized when the
/// cache is on).
fn eval(
    ws: &mut CountsWorkspace,
    cache: &mut ScoreCache,
    ctx: &Ctx,
    mask: &[u64],
) -> Result<CachedScore, ComboSizeError> {
    let key = ctx.key(mask);
    if let Some(value) = key.and_then(|k| cache.get(k)) {
        return Ok(value);
    }
    let value = score::evaluate(ws.table(mask)?);
    if let Some(k) = key {
        cache.insert(k, value);
    }
    Ok(value)
}

/// An admitted combination: where its bitmask starts in
/// [`SearchScratch::masks`], and its standalone score.
#[derive(Clone, Copy, Debug)]
struct Scored {
    at: usize,
    score: f64,
}

/// Enumerates and scores every combination `W ⊆ candidates` with
/// `1 ≤ |W| ≤ max_combo_size` that satisfies the Theorem-2 bound
/// `|W| ≤ log₂(φ_W + δ)` (Algorithm 1 lines 13–15).
///
/// # Errors
///
/// Returns [`SearchError::ComboSize`] if `max_combo_size` admits a
/// combination too large to tabulate (more than
/// [`diffnet_simulate::MAX_TABULATED_PARENTS`] nodes), and refuses a
/// repeated candidate or a node id past `cols` the way
/// [`find_parents`] does.
pub fn enumerate_combos(
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    max_combo_size: usize,
    delta: f64,
    stats: &mut SearchStats,
) -> Result<Vec<Combo>, SearchError> {
    let mut scratch = SearchScratch::new();
    let ctx = Ctx {
        delta,
        ..Ctx::new(cols, child, candidates)?
    };
    scratch.ws.set_candidates(cols, child, &ctx.sorted);
    let combos = enumerate(&mut scratch, &ctx, max_combo_size, stats)
        .map_err(|source| SearchError::ComboSize { child, source })?;
    Ok(combos
        .iter()
        .map(|c| Combo {
            nodes: ctx.nodes(&scratch.masks[c.at..c.at + ctx.words]),
            score: c.score,
        })
        .collect())
}

/// [`enumerate_combos`] on caller-provided scratch state, in depth-first
/// order over the candidates' (correlation) order: every combination's
/// bitmask is appended to `scratch.masks`, and its score memoized for the
/// greedy rounds that follow.
fn enumerate(
    scratch: &mut SearchScratch,
    ctx: &Ctx,
    max_combo_size: usize,
    stats: &mut SearchStats,
) -> Result<Vec<Scored>, ComboSizeError> {
    scratch.masks.clear();
    let mut combos = Vec::new();
    let mut mask = vec![0u64; ctx.words];
    enumerate_rec(
        scratch,
        ctx,
        0,
        1,
        max_combo_size.max(1),
        &mut mask,
        &mut combos,
        stats,
    )?;
    Ok(combos)
}

#[allow(clippy::too_many_arguments)]
fn enumerate_rec(
    scratch: &mut SearchScratch,
    ctx: &Ctx,
    start: usize,
    size: usize,
    max_size: usize,
    mask: &mut [u64],
    out: &mut Vec<Scored>,
    stats: &mut SearchStats,
) -> Result<(), ComboSizeError> {
    for idx in start..ctx.bit.len() {
        let b = ctx.bit[idx];
        mask[b / 64] |= 1 << (b % 64);
        let eval = eval(&mut scratch.ws, &mut scratch.cache, ctx, mask)?;
        stats.evaluations += 1;
        if ctx.within_bound(size, eval.phi) {
            out.push(Scored {
                at: scratch.masks.len(),
                score: eval.score,
            });
            scratch.masks.extend_from_slice(mask);
        } else {
            stats.bound_rejections += 1;
        }
        if size < max_size {
            enumerate_rec(scratch, ctx, idx + 1, size + 1, max_size, mask, out, stats)?;
        }
        mask[b / 64] &= !(1 << (b % 64));
    }
    Ok(())
}

/// Hard ceiling on a parent set's size, independent of Theorem 2's bound.
///
/// The Theorem-2 bound `|F| ≤ log₂(φ_F + δ)` self-saturates once
/// `2^{|F|}` exceeds the number of instantiated combinations (φ grows with
/// `2^{|F|}`), so it cannot stop runaway growth by itself. Beyond
/// `2^{|F|} ≥ β` every combination holds at most one process and further
/// parents cannot change any probability estimate, so 20 parents
/// (`2^20 ≫` any realistic β) is unreachable by a score improvement and
/// only guards against pathological inputs.
const MAX_PARENTS: usize = 20;

/// Largest candidate set [`GreedyStrategy::Exhaustive`] will sweep: the
/// subset loop is `2^c` iterations.
const MAX_EXHAUSTIVE_CANDIDATES: usize = 25;

/// Sorted union of a parent set and a combination.
fn union(f: &[NodeId], w: &[NodeId]) -> Vec<NodeId> {
    let mut u: Vec<NodeId> = f.iter().chain(w).copied().collect();
    u.sort_unstable();
    u.dedup();
    u
}

/// Runs the full per-node parent search: enumeration followed by greedy
/// expansion (Algorithm 1 lines 13–20).
///
/// Convenience wrapper over [`find_parents_with`] that builds a fresh
/// [`SearchScratch`]; callers searching many nodes should hold one scratch
/// and call [`find_parents_with`] directly to reuse its buffers.
///
/// # Errors
///
/// Returns [`SearchError::ComboSize`] when the configuration asks the
/// counting kernels to tabulate a parent set beyond
/// [`diffnet_simulate::MAX_TABULATED_PARENTS`] — unreachable with
/// [`SearchParams::default`], reachable with hostile parameters — and
/// [`SearchError::DuplicateCandidate`] or
/// [`SearchError::NodeOutOfRange`], before anything is counted, for a
/// candidate listed twice or a child or candidate id not below
/// `cols.num_nodes()`.
pub fn find_parents(
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    params: &SearchParams,
) -> Result<NodeSearchResult, SearchError> {
    let mut scratch = SearchScratch::new();
    find_parents_with(&mut scratch, cols, child, candidates, params)
}

/// [`find_parents`] on caller-provided scratch state.
///
/// The workspace histograms the child against its whole candidate list
/// once; every strategy then scores each subset `g(v_i, F ∪ W)` as a
/// marginal table of that histogram — unless the subset was already
/// scored this search, in which case the memoized `(score, φ)` pair is
/// reused and the count skipped. Results are bit-identical to
/// [`find_parents_reference`], including all [`SearchStats`] counters.
pub fn find_parents_with(
    scratch: &mut SearchScratch,
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    params: &SearchParams,
) -> Result<NodeSearchResult, SearchError> {
    let wrap = |source: ComboSizeError| SearchError::ComboSize { child, source };
    let ctx = Ctx::new(cols, child, candidates)?;

    let mut stats = SearchStats::default();
    scratch.cache.reset();
    scratch.ws.set_candidates(cols, child, &ctx.sorted);
    let empty_score = eval(&mut scratch.ws, &mut scratch.cache, &ctx, &ctx.empty)
        .map_err(wrap)?
        .score;
    stats.evaluations += 1;

    let mut combos = enumerate(scratch, &ctx, params.max_combo_size, &mut stats).map_err(wrap)?;

    let (mask, final_score) = match params.strategy {
        GreedyStrategy::BestImprovement => {
            greedy_best_improvement(scratch, &ctx, combos, empty_score, &mut stats).map_err(wrap)?
        }
        GreedyStrategy::ScoreOrdered => {
            combos.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("no NaNs"));
            greedy_score_ordered(scratch, &ctx, &combos, empty_score, &mut stats).map_err(wrap)?
        }
        GreedyStrategy::Exhaustive => {
            exhaustive_search(scratch, &ctx, empty_score, &mut stats).map_err(wrap)?
        }
    };

    Ok(NodeSearchResult {
        parents: ctx.nodes(&mask),
        score: final_score,
        candidates: candidates.to_vec(),
        stats,
        cache_stats: scratch.cache.stats(),
    })
}

/// The pre-workspace implementation of [`find_parents`], counting every
/// evaluation from scratch through [`NodeColumns::combo_counts`] with no
/// score cache.
///
/// It is the equivalence oracle for the workspace path (`parents`,
/// `score`, and all [`SearchStats`] counters must match bit-for-bit;
/// `cache_stats` stay zero on this cacheless path) and the baseline the
/// benchmarks compare against — nothing more.
pub fn find_parents_reference(
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    params: &SearchParams,
) -> Result<NodeSearchResult, SearchError> {
    let wrap = |source: ComboSizeError| SearchError::ComboSize { child, source };
    let mut sorted = candidates.to_vec();
    sorted.sort_unstable();
    check_inputs(cols, child, &sorted)?;
    let delta = child_delta(cols, child);

    let mut stats = SearchStats::default();
    let empty_counts = cols.combo_counts(child, &[]).map_err(wrap)?;
    stats.evaluations += 1;
    let empty_score = score::local_score(&empty_counts);

    let mut combos = Vec::new();
    let mut stack: Vec<NodeId> = Vec::new();
    enumerate_rec_reference(
        cols,
        child,
        candidates,
        0,
        params.max_combo_size.max(1),
        delta,
        &mut stack,
        &mut combos,
        &mut stats,
    )
    .map_err(wrap)?;

    let (parents, final_score) = match params.strategy {
        GreedyStrategy::BestImprovement => {
            greedy_best_improvement_reference(cols, child, combos, empty_score, delta, &mut stats)
                .map_err(wrap)?
        }
        GreedyStrategy::ScoreOrdered => {
            combos.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("no NaNs"));
            greedy_score_ordered_reference(cols, child, &combos, empty_score, delta, &mut stats)
                .map_err(wrap)?
        }
        GreedyStrategy::Exhaustive => {
            exhaustive_search_reference(cols, child, candidates, empty_score, delta, &mut stats)
                .map_err(wrap)?
        }
    };

    Ok(NodeSearchResult {
        parents,
        score: final_score,
        candidates: candidates.to_vec(),
        stats,
        cache_stats: ScoreCacheStats::default(),
    })
}

#[allow(clippy::too_many_arguments)]
fn enumerate_rec_reference(
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    start: usize,
    max_size: usize,
    delta: f64,
    stack: &mut Vec<NodeId>,
    out: &mut Vec<Combo>,
    stats: &mut SearchStats,
) -> Result<(), ComboSizeError> {
    for idx in start..candidates.len() {
        stack.push(candidates[idx]);
        let mut w: Vec<NodeId> = stack.clone();
        w.sort_unstable();
        let counts = cols.combo_counts(child, &w)?;
        stats.evaluations += 1;
        if score::within_bound(w.len(), score::phi(&counts), delta) {
            out.push(Combo {
                nodes: w,
                score: score::local_score(&counts),
            });
        } else {
            stats.bound_rejections += 1;
        }
        if stack.len() < max_size {
            enumerate_rec_reference(
                cols,
                child,
                candidates,
                idx + 1,
                max_size,
                delta,
                stack,
                out,
                stats,
            )?;
        }
        stack.pop();
    }
    Ok(())
}

/// §IV-A greedy: each round, evaluate `g(v_i, F ∪ W)` for every remaining
/// admissible combination and take the best strict improvement.
///
/// Each combination is classified by its bitmask — `W ⊆ F` drops it for
/// good, a memoized union comes from the cache, and any other union's
/// table is marginalized from the node's histogram. Returns the accepted
/// parent mask and its score.
fn greedy_best_improvement(
    scratch: &mut SearchScratch,
    ctx: &Ctx,
    mut combos: Vec<Scored>,
    empty_score: f64,
    stats: &mut SearchStats,
) -> Result<(Vec<u64>, f64), ComboSizeError> {
    const EPS: f64 = 1e-9;
    let SearchScratch { ws, cache, masks } = scratch;
    let words = ctx.words;
    let mut mask_f = ctx.empty.clone();
    let mut union = ctx.empty.clone();
    let mut f_len = 0usize;
    let mut current = empty_score;
    let mut keep: Vec<bool> = Vec::new();

    while !combos.is_empty() {
        stats.greedy_rounds += 1;
        keep.clear();
        keep.resize(combos.len(), true);
        let mut best: Option<(usize, f64, usize)> = None;
        for (idx, combo) in combos.iter().enumerate() {
            let w = &masks[combo.at..combo.at + words];
            let ext = count_outside(w, &mask_f);
            if ext == 0 {
                // W ⊆ F already: it can never change the score again.
                keep[idx] = false;
                continue;
            }
            if f_len + ext > MAX_PARENTS {
                continue;
            }
            for ((u, &f), &b) in union.iter_mut().zip(&mask_f).zip(w) {
                *u = f | b;
            }
            let eval = eval(ws, cache, ctx, &union)?;
            stats.evaluations += 1;
            if !ctx.within_bound(f_len + ext, eval.phi) {
                stats.bound_rejections += 1;
                continue;
            }
            if eval.score > current + EPS && best.is_none_or(|(_, bs, _)| eval.score > bs) {
                best = Some((idx, eval.score, ext));
            }
        }

        match best {
            Some((idx, s, ext)) => {
                let at = combos[idx].at;
                for (m, &w) in mask_f.iter_mut().zip(&masks[at..at + words]) {
                    *m |= w;
                }
                f_len += ext;
                current = s;
                keep[idx] = false;
                let mut it = keep.iter();
                combos.retain(|_| *it.next().expect("keep covers combos"));
            }
            None => break,
        }
    }
    Ok((mask_f, current))
}

/// The reference counterpart of [`greedy_best_improvement`], recounting
/// every union from scratch.
fn greedy_best_improvement_reference(
    cols: &NodeColumns,
    child: NodeId,
    mut combos: Vec<Combo>,
    empty_score: f64,
    delta: f64,
    stats: &mut SearchStats,
) -> Result<(Vec<NodeId>, f64), ComboSizeError> {
    const EPS: f64 = 1e-9;
    let mut f: Vec<NodeId> = Vec::new();
    let mut current = empty_score;

    while !combos.is_empty() {
        stats.greedy_rounds += 1;
        let mut best: Option<(usize, Vec<NodeId>, f64)> = None;
        let mut keep = vec![true; combos.len()];
        for (idx, combo) in combos.iter().enumerate() {
            let u = union(&f, &combo.nodes);
            if u.len() == f.len() {
                keep[idx] = false;
                continue;
            }
            if u.len() > MAX_PARENTS {
                continue;
            }
            let counts = cols.combo_counts(child, &u)?;
            stats.evaluations += 1;
            if !score::within_bound(u.len(), score::phi(&counts), delta) {
                stats.bound_rejections += 1;
                continue;
            }
            let s = score::local_score(&counts);
            if s > current + EPS && best.as_ref().is_none_or(|&(_, _, bs)| s > bs) {
                best = Some((idx, u, s));
            }
        }
        match best {
            Some((idx, u, s)) => {
                f = u;
                current = s;
                keep[idx] = false;
                let mut it = keep.iter();
                combos.retain(|_| *it.next().expect("keep covers combos"));
            }
            None => break,
        }
    }
    Ok((f, current))
}

/// Literal Algorithm-1 greedy: pop combinations in descending standalone
/// score; union in each one whose union satisfies the Theorem-2 bound.
fn greedy_score_ordered(
    scratch: &mut SearchScratch,
    ctx: &Ctx,
    combos_sorted: &[Scored],
    empty_score: f64,
    stats: &mut SearchStats,
) -> Result<(Vec<u64>, f64), ComboSizeError> {
    let SearchScratch { ws, cache, masks } = scratch;
    let mut mask_f = ctx.empty.clone();
    let mut union = ctx.empty.clone();
    let mut f_len = 0usize;
    let mut current = empty_score;
    for combo in combos_sorted {
        let w = &masks[combo.at..combo.at + ctx.words];
        let ext = count_outside(w, &mask_f);
        if ext == 0 || f_len + ext > MAX_PARENTS {
            continue;
        }
        for ((u, &f), &b) in union.iter_mut().zip(&mask_f).zip(w) {
            *u = f | b;
        }
        let eval = eval(ws, cache, ctx, &union)?;
        stats.evaluations += 1;
        if ctx.within_bound(f_len + ext, eval.phi) {
            stats.greedy_rounds += 1;
            mask_f.copy_from_slice(&union);
            f_len += ext;
            current = eval.score;
        } else {
            stats.bound_rejections += 1;
        }
    }
    Ok((mask_f, current))
}

/// The reference counterpart of [`greedy_score_ordered`].
fn greedy_score_ordered_reference(
    cols: &NodeColumns,
    child: NodeId,
    combos_sorted: &[Combo],
    empty_score: f64,
    delta: f64,
    stats: &mut SearchStats,
) -> Result<(Vec<NodeId>, f64), ComboSizeError> {
    let mut f: Vec<NodeId> = Vec::new();
    let mut current = empty_score;
    for combo in combos_sorted {
        let u = union(&f, &combo.nodes);
        if u.len() == f.len() || u.len() > MAX_PARENTS {
            continue;
        }
        let counts = cols.combo_counts(child, &u)?;
        stats.evaluations += 1;
        if score::within_bound(u.len(), score::phi(&counts), delta) {
            stats.greedy_rounds += 1;
            f = u;
            current = score::local_score(&counts);
        } else {
            stats.bound_rejections += 1;
        }
    }
    Ok((f, current))
}

/// Exhaustive maximization of the local score over all admissible subsets
/// of the candidate set.
///
/// Subsets larger than [`MAX_PARENTS`] or violating the Theorem-2 bound
/// are skipped. With `c` candidates this evaluates up to `2^c` subsets, in
/// the order of their masks over the candidates' (correlation) order;
/// candidate sets beyond [`MAX_EXHAUSTIVE_CANDIDATES`] are rejected as a
/// typed error. Subsets already scored during enumeration (every `W` with
/// `|W| ≤ max_combo_size`) come straight from the score cache.
fn exhaustive_search(
    scratch: &mut SearchScratch,
    ctx: &Ctx,
    empty_score: f64,
    stats: &mut SearchStats,
) -> Result<(Vec<u64>, f64), ComboSizeError> {
    let c = ctx.bit.len();
    if c > MAX_EXHAUSTIVE_CANDIDATES {
        return Err(ComboSizeError { parents: c });
    }
    let SearchScratch { ws, cache, .. } = scratch;
    let mut best: (u64, f64) = (0, empty_score);
    for order_mask in 1u64..(1u64 << c) {
        let size = order_mask.count_ones() as usize;
        if size > MAX_PARENTS {
            continue;
        }
        // With at most 25 candidates a subset is one mask word.
        let mask = ctx
            .bit
            .iter()
            .enumerate()
            .filter(|&(t, _)| order_mask >> t & 1 == 1)
            .fold(0u64, |m, (_, &b)| m | 1 << b);
        let eval = eval(ws, cache, ctx, &[mask])?;
        stats.evaluations += 1;
        if !ctx.within_bound(size, eval.phi) {
            stats.bound_rejections += 1;
            continue;
        }
        if eval.score > best.1 {
            best = (mask, eval.score);
        }
    }
    Ok((vec![best.0], best.1))
}

/// The reference counterpart of [`exhaustive_search`].
fn exhaustive_search_reference(
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    empty_score: f64,
    delta: f64,
    stats: &mut SearchStats,
) -> Result<(Vec<NodeId>, f64), ComboSizeError> {
    let c = candidates.len();
    if c > MAX_EXHAUSTIVE_CANDIDATES {
        return Err(ComboSizeError { parents: c });
    }
    let mut best: (Vec<NodeId>, f64) = (Vec::new(), empty_score);
    for mask in 1u32..(1u32 << c) {
        if (mask.count_ones() as usize) > MAX_PARENTS {
            continue;
        }
        let mut subset: Vec<NodeId> = (0..c)
            .filter(|&t| mask & (1 << t) != 0)
            .map(|t| candidates[t])
            .collect();
        subset.sort_unstable();
        let counts = cols.combo_counts(child, &subset)?;
        stats.evaluations += 1;
        if !score::within_bound(subset.len(), score::phi(&counts), delta) {
            stats.bound_rejections += 1;
            continue;
        }
        let s = score::local_score(&counts);
        if s > best.1 {
            best = (subset, s);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imi::{CorrelationMatrix, CorrelationMeasure};
    use diffnet_simulate::StatusMatrix;

    /// A status matrix where node 2's infection is (mostly) the OR of
    /// nodes 0 and 1, and node 3 is independent noise.
    fn or_gate_matrix() -> StatusMatrix {
        let mut rows = Vec::new();
        // Deterministic pseudo-random pattern over 160 processes.
        let mut state = 0xABCDEFu64;
        let mut bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) & 1 == 1
        };
        for _ in 0..160 {
            let a = bit();
            let b = bit();
            let noise = bit() && bit() && bit(); // rare flip
            let c = (a || b) ^ noise;
            let d = bit();
            rows.push(vec![a, b, c, d]);
        }
        StatusMatrix::from_rows(&rows)
    }

    #[test]
    fn candidate_parents_ranked_and_thresholded() {
        let m = or_gate_matrix();
        let corr = CorrelationMatrix::compute(&m.columns(), CorrelationMeasure::Imi);
        let cands = candidate_parents(&corr, 2, 0.0, 16);
        // Parents 0 and 1 must rank above the noise node 3.
        assert!(cands.contains(&0) && cands.contains(&1), "cands {cands:?}");
        let pos3 = cands.iter().position(|&c| c == 3);
        for &p in &[0u32, 1] {
            let pp = cands.iter().position(|&c| c == p).expect("present");
            if let Some(p3) = pos3 {
                assert!(pp < p3, "true parent {p} ranked after noise");
            }
        }
    }

    #[test]
    fn candidate_parents_respects_cap() {
        let m = or_gate_matrix();
        let corr = CorrelationMatrix::compute(&m.columns(), CorrelationMeasure::Imi);
        let cands = candidate_parents(&corr, 2, -1.0, 2);
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn enumerate_respects_size_cap() {
        let m = or_gate_matrix();
        let cols = m.columns();
        let delta = score::delta(160, 160 - cols.ones(2), cols.ones(2));
        let mut stats = SearchStats::default();
        let combos = enumerate_combos(&cols, 2, &[0, 1, 3], 2, delta, &mut stats).expect("fits");
        assert!(combos.iter().all(|c| c.nodes.len() <= 2));
        // 3 singles + 3 pairs.
        assert_eq!(combos.len(), 6);
        assert!(stats.evaluations >= 6);
        assert_eq!(
            stats.evaluations,
            combos.len() + stats.bound_rejections,
            "every enumerated combo is either admitted or bound-rejected"
        );
    }

    #[test]
    fn find_parents_recovers_or_gate() {
        let m = or_gate_matrix();
        let cols = m.columns();
        let params = SearchParams::default();
        let res = find_parents(&cols, 2, &[0, 1, 3], &params).expect("search fits");
        assert_eq!(
            res.parents,
            vec![0, 1],
            "should select exactly the OR inputs"
        );
        assert!(res.score > score::local_score(&cols.combo_counts(2, &[]).expect("small")));
    }

    #[test]
    fn find_parents_of_independent_node_is_empty() {
        let m = or_gate_matrix();
        let cols = m.columns();
        let params = SearchParams::default();
        let res = find_parents(&cols, 3, &[0, 1, 2], &params).expect("search fits");
        assert!(
            res.parents.is_empty(),
            "independent node must keep an empty parent set, got {:?}",
            res.parents
        );
    }

    #[test]
    fn score_ordered_is_more_permissive() {
        let m = or_gate_matrix();
        let cols = m.columns();
        let best = find_parents(&cols, 2, &[0, 1, 3], &SearchParams::default()).expect("fits");
        let literal = find_parents(
            &cols,
            2,
            &[0, 1, 3],
            &SearchParams {
                strategy: GreedyStrategy::ScoreOrdered,
                ..Default::default()
            },
        )
        .expect("fits");
        assert!(literal.parents.len() >= best.parents.len());
        for p in &best.parents {
            // not necessarily a subset in general, but for this clean case
            // the literal rule should also pick the true parents
            assert!(literal.parents.contains(p), "literal missed parent {p}");
        }
    }

    #[test]
    fn exhaustive_finds_the_or_gate_exactly() {
        let m = or_gate_matrix();
        let cols = m.columns();
        let params = SearchParams {
            strategy: GreedyStrategy::Exhaustive,
            ..Default::default()
        };
        let res = find_parents(&cols, 2, &[0, 1, 3], &params).expect("search fits");
        assert_eq!(res.parents, vec![0, 1]);
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_candidate_sets() {
        // The optimality check the Exhaustive strategy exists for: on this
        // clean workload the default greedy should attain the global
        // optimum of the local score.
        let m = or_gate_matrix();
        let cols = m.columns();
        for child in 0..4u32 {
            let candidates: Vec<NodeId> = (0..4u32).filter(|&c| c != child).collect();
            let greedy =
                find_parents(&cols, child, &candidates, &SearchParams::default()).expect("fits");
            let exact = find_parents(
                &cols,
                child,
                &candidates,
                &SearchParams {
                    strategy: GreedyStrategy::Exhaustive,
                    ..Default::default()
                },
            )
            .expect("fits");
            assert!(
                greedy.score >= exact.score - 1e-6,
                "node {child}: greedy {} vs exhaustive {}",
                greedy.score,
                exact.score
            );
        }
    }

    #[test]
    fn exhaustive_score_dominates_both_greedy_variants() {
        let m = or_gate_matrix();
        let cols = m.columns();
        let candidates = [0u32, 1, 3];
        let exact = find_parents(
            &cols,
            2,
            &candidates,
            &SearchParams {
                strategy: GreedyStrategy::Exhaustive,
                ..Default::default()
            },
        )
        .expect("fits");
        for strategy in [
            GreedyStrategy::BestImprovement,
            GreedyStrategy::ScoreOrdered,
        ] {
            let g = find_parents(
                &cols,
                2,
                &candidates,
                &SearchParams {
                    strategy,
                    ..Default::default()
                },
            )
            .expect("fits");
            assert!(
                exact.score >= g.score - 1e-9,
                "{strategy:?} beat exhaustive: {} vs {}",
                g.score,
                exact.score
            );
        }
    }

    #[test]
    fn empty_candidates_yield_empty_parents() {
        let m = or_gate_matrix();
        let cols = m.columns();
        let res = find_parents(&cols, 2, &[], &SearchParams::default()).expect("fits");
        assert!(res.parents.is_empty());
        assert_eq!(res.stats.evaluations, 1, "only the empty set is scored");
        assert_eq!(res.stats.bound_rejections, 0);
        assert_eq!(res.stats.greedy_rounds, 0, "nothing to expand");
    }

    #[test]
    fn workspace_path_matches_reference_for_all_strategies() {
        // The contract of the incremental counting engine and the score
        // cache: every strategy must produce bit-identical results
        // (parents, scores, and every SearchStats counter) to the
        // from-scratch, cacheless reference implementation.
        let m = or_gate_matrix();
        let cols = m.columns();
        let mut scratch = SearchScratch::new();
        for strategy in [
            GreedyStrategy::BestImprovement,
            GreedyStrategy::ScoreOrdered,
            GreedyStrategy::Exhaustive,
        ] {
            for child in 0..4u32 {
                let candidates: Vec<NodeId> = (0..4u32).filter(|&c| c != child).collect();
                for max_combo_size in [1, 2, 3] {
                    let params = SearchParams {
                        strategy,
                        max_combo_size,
                        ..Default::default()
                    };
                    let new = find_parents_with(&mut scratch, &cols, child, &candidates, &params)
                        .expect("fits");
                    let old =
                        find_parents_reference(&cols, child, &candidates, &params).expect("fits");
                    assert_eq!(new.parents, old.parents, "{strategy:?} child {child}");
                    assert_eq!(
                        new.score.to_bits(),
                        old.score.to_bits(),
                        "{strategy:?} child {child}: scores must be bit-identical"
                    );
                    assert_eq!(
                        new.stats, old.stats,
                        "{strategy:?} child {child}: all search counters must match"
                    );
                    assert_eq!(new.candidates, old.candidates);
                    assert_eq!(
                        old.cache_stats,
                        ScoreCacheStats::default(),
                        "reference path must not touch a cache"
                    );
                }
            }
        }
    }

    #[test]
    fn bound_rejections_match_reference_for_a_rarely_infected_child() {
        // Node 0 is infected in 3 of 150 processes, so δ is small and the
        // Theorem-2 bound binds once a union's cells are mostly
        // instantiated; node 1 tracks node 0, nodes 2–9 are fair coins.
        let mut state = 0x00DD_BA11_5EED_u64;
        let mut coin = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        };
        let rows: Vec<Vec<bool>> = (0..150)
            .map(|l| {
                let child = l % 50 == 7;
                let mut row = vec![child, child || (coin() && coin() && coin())];
                row.extend((2..10).map(|_| coin()));
                row
            })
            .collect();
        let m = StatusMatrix::from_rows(&rows);
        let cols = m.columns();
        let candidates: Vec<NodeId> = (1..10).collect();
        for strategy in [
            GreedyStrategy::BestImprovement,
            GreedyStrategy::ScoreOrdered,
            GreedyStrategy::Exhaustive,
        ] {
            for max_combo_size in [1, 2, 3] {
                let params = SearchParams {
                    strategy,
                    max_combo_size,
                    max_candidates: 9,
                };
                let new = find_parents(&cols, 0, &candidates, &params).expect("fits");
                let old = find_parents_reference(&cols, 0, &candidates, &params).expect("fits");
                assert_eq!(new.parents, old.parents, "{strategy:?} {max_combo_size}");
                assert_eq!(new.score.to_bits(), old.score.to_bits());
                assert_eq!(new.stats, old.stats, "{strategy:?} {max_combo_size}");
                // The improvement-driven greedy stops before its unions
                // outgrow the bound; the other two reach it.
                if strategy != GreedyStrategy::BestImprovement {
                    assert!(
                        new.stats.bound_rejections > 0,
                        "{strategy:?} {max_combo_size}: the bound must bind"
                    );
                }
            }
        }
    }

    #[test]
    fn more_than_64_candidates_match_reference_without_the_cache() {
        // 70 candidates: masks span two words and the cache is off, so
        // every evaluation reaches the counting kernel.
        let mut state = 0x1234_5678_9ABC_DEF1u64;
        let rows: Vec<Vec<bool>> = (0..96)
            .map(|_| {
                (0..72)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state.is_multiple_of(3)
                    })
                    .collect()
            })
            .collect();
        let m = StatusMatrix::from_rows(&rows);
        let cols = m.columns();
        let candidates: Vec<NodeId> = (1..71).rev().collect();
        for strategy in [
            GreedyStrategy::BestImprovement,
            GreedyStrategy::ScoreOrdered,
        ] {
            let params = SearchParams {
                strategy,
                max_combo_size: 1,
                max_candidates: 70,
            };
            let mut scratch = SearchScratch::new();
            let new =
                find_parents_with(&mut scratch, &cols, 0, &candidates, &params).expect("fits");
            let old = find_parents_reference(&cols, 0, &candidates, &params).expect("fits");
            assert_eq!(new.parents, old.parents, "{strategy:?}");
            assert_eq!(new.score.to_bits(), old.score.to_bits(), "{strategy:?}");
            assert_eq!(new.stats, old.stats, "{strategy:?}");
            assert!(
                new.stats.greedy_rounds > 0,
                "{strategy:?}: the greedy loop ran"
            );
            assert_eq!(new.cache_stats, ScoreCacheStats::default(), "{strategy:?}");
            assert_eq!(
                scratch.ws.stats().refinements,
                new.stats.evaluations as u64,
                "{strategy:?}: with the cache off every evaluation is counted"
            );
        }
    }

    #[test]
    fn score_cache_hits_on_greedy_rounds() {
        // Round one of the greedy re-scores every enumerated combination
        // verbatim, so any search that expands at least once must hit.
        let m = or_gate_matrix();
        let cols = m.columns();
        let res = find_parents(&cols, 2, &[0, 1, 3], &SearchParams::default()).expect("fits");
        assert!(!res.parents.is_empty(), "precondition: expansion happened");
        assert!(
            res.cache_stats.hits > 0,
            "greedy round one must reuse enumeration scores, stats {:?}",
            res.cache_stats
        );
        assert!(res.cache_stats.misses > 0, "distinct subsets must miss");
        // Every evaluation is exactly one hit or one miss.
        assert_eq!(
            res.cache_stats.hits + res.cache_stats.misses,
            res.stats.evaluations as u64
        );
    }

    #[test]
    fn exhaustive_hits_cache_for_enumerated_combos() {
        let m = or_gate_matrix();
        let cols = m.columns();
        let res = find_parents(
            &cols,
            2,
            &[0, 1, 3],
            &SearchParams {
                strategy: GreedyStrategy::Exhaustive,
                ..Default::default()
            },
        )
        .expect("fits");
        // Enumeration scored all 6 subsets of size ≤ 2; the exhaustive
        // sweep re-visits them.
        assert!(res.cache_stats.hits >= 6, "stats {:?}", res.cache_stats);
    }

    #[test]
    fn hostile_combo_size_is_a_typed_error_not_a_panic() {
        let m = StatusMatrix::new(4, 40);
        let cols = m.columns();
        let candidates: Vec<NodeId> = (0..30).collect();
        // Enumeration path: a max_combo_size that admits 26-node subsets.
        let err = find_parents(
            &cols,
            39,
            &candidates,
            &SearchParams {
                max_combo_size: 30,
                max_candidates: 30,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            SearchError::ComboSize {
                child: 39,
                source: ComboSizeError { parents: 26 }
            }
        );
        assert!(err.to_string().contains("node 39"));
        // Reference path agrees.
        let ref_err = find_parents_reference(
            &cols,
            39,
            &candidates,
            &SearchParams {
                max_combo_size: 30,
                max_candidates: 30,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(ref_err, err);
        // Exhaustive path: the candidate set itself is too large.
        let ex_err = find_parents(
            &cols,
            39,
            &candidates,
            &SearchParams {
                strategy: GreedyStrategy::Exhaustive,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            ex_err,
            SearchError::ComboSize {
                child: 39,
                source: ComboSizeError { parents: 30 }
            }
        );
    }

    #[test]
    fn candidate_selection_matches_full_sort() {
        let m = or_gate_matrix();
        let corr = CorrelationMatrix::compute(&m.columns(), CorrelationMeasure::Imi);
        for child in 0..4u32 {
            for cap in 0..5usize {
                // Oracle: full sort + truncate, the pre-selection behavior.
                let mut all: Vec<(f64, NodeId)> = (0..4u32)
                    .filter(|&j| j != child)
                    .map(|j| (corr.get(child, j), j))
                    .filter(|&(v, _)| v > -1.0)
                    .collect();
                all.sort_unstable_by(|a, b| {
                    b.0.partial_cmp(&a.0).expect("no NaNs").then(a.1.cmp(&b.1))
                });
                all.truncate(cap);
                let expect: Vec<NodeId> = all.into_iter().map(|(_, j)| j).collect();
                assert_eq!(
                    candidate_parents(&corr, child, -1.0, cap),
                    expect,
                    "child {child} cap {cap}"
                );
            }
        }
    }

    #[test]
    fn repeated_candidates_are_a_typed_error() {
        let m = or_gate_matrix();
        let cols = m.columns();
        let want = SearchError::DuplicateCandidate {
            child: 2,
            candidate: 1,
        };
        let params = SearchParams::default();
        assert_eq!(
            find_parents(&cols, 2, &[1, 0, 1], &params).unwrap_err(),
            want
        );
        let mut scratch = SearchScratch::new();
        let err = find_parents_with(&mut scratch, &cols, 2, &[3, 1, 0, 1], &params).unwrap_err();
        assert_eq!(err, want);
        assert_eq!(
            find_parents_reference(&cols, 2, &[1, 1], &params).unwrap_err(),
            want
        );
        let mut stats = SearchStats::default();
        let err = enumerate_combos(&cols, 2, &[0, 1, 1], 2, 1.0, &mut stats).unwrap_err();
        assert_eq!(err, want);
        assert_eq!(stats, SearchStats::default(), "nothing was scored");
        assert!(err
            .to_string()
            .contains("candidate 1 is listed more than once"));
        // The scratch state still serves a valid search afterwards.
        let res = find_parents_with(&mut scratch, &cols, 2, &[0, 1, 3], &params).expect("fits");
        assert_eq!(res.parents, vec![0, 1]);
    }

    #[test]
    fn node_ids_past_the_matrix_are_a_typed_error() {
        let m = or_gate_matrix();
        let cols = m.columns();
        let params = SearchParams::default();
        let err = find_parents(&cols, 2, &[0, 4], &params).unwrap_err();
        assert_eq!(
            err,
            SearchError::NodeOutOfRange {
                child: 2,
                node: 4,
                nodes: 4
            }
        );
        assert!(err.to_string().contains("node 4 out of range for n = 4"));
        // An out-of-range child is named even when a candidate is too.
        let err = find_parents(&cols, 9, &[0, 7], &params).unwrap_err();
        assert_eq!(
            err,
            SearchError::NodeOutOfRange {
                child: 9,
                node: 9,
                nodes: 4
            }
        );
        assert_eq!(err.child(), 9);
        let mut scratch = SearchScratch::new();
        assert!(matches!(
            find_parents_with(&mut scratch, &cols, 0, &[u32::MAX], &params),
            Err(SearchError::NodeOutOfRange { node: u32::MAX, .. })
        ));
        assert!(matches!(
            find_parents_reference(&cols, 0, &[5], &params),
            Err(SearchError::NodeOutOfRange { node: 5, .. })
        ));
        let mut stats = SearchStats::default();
        assert!(matches!(
            enumerate_combos(&cols, 4, &[], 2, 1.0, &mut stats),
            Err(SearchError::NodeOutOfRange { node: 4, .. })
        ));
    }

    #[test]
    fn union_helper() {
        assert_eq!(union(&[1, 3], &[2, 3]), vec![1, 2, 3]);
        assert_eq!(union(&[], &[5]), vec![5]);
        assert_eq!(union(&[4], &[]), vec![4]);
    }

    #[test]
    fn candidate_masks_select_candidate_positions() {
        // Mask bits follow ascending node id, whatever the candidates'
        // (correlation) order.
        let cols = StatusMatrix::new(4, 230).columns();
        let ctx = Ctx::new(&cols, 0, &[7, 3, 9, 1]).expect("valid candidates");
        assert_eq!(ctx.words, 1);
        assert_eq!(ctx.bit, vec![2, 1, 3, 0]);
        assert_eq!(ctx.nodes(&ctx.empty), Vec::<NodeId>::new());
        assert_eq!(ctx.nodes(&[0b0001]), vec![1]);
        assert_eq!(ctx.nodes(&[0b1100]), vec![7, 9]);
        assert_eq!(ctx.nodes(&[0b1111]), vec![1, 3, 7, 9]);
        assert_eq!(ctx.key(&[0b0110]), Some(0b0110));
        // The extension of {1, 3} by {3, 7, 9}.
        assert_eq!(count_outside(&[0b1110], &[0b0011]), 2);
        // Past 64 candidates a subset spans several words, uncached.
        let many: Vec<NodeId> = (100..230).rev().collect();
        let ctx = Ctx::new(&cols, 0, &many).expect("valid candidates");
        assert_eq!(ctx.words, 3);
        assert_eq!(ctx.key(&[1, 0, 0]), None);
        let mask = [1u64, 1 << 63, 0b10];
        assert_eq!(ctx.nodes(&mask), vec![100, 227, 229]);
        assert_eq!(count_outside(&mask, &[1, 0, 0]), 2);
    }
}
