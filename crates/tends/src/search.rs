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
//! Every evaluated subset is memoized in a [`ScoreCache`] keyed on its
//! candidate-subset bitmask, so greedy rounds (and the exhaustive
//! strategy) that re-probe a subset already scored — round one re-scores
//! every enumerated combination verbatim — reuse the score and `φ` instead
//! of re-refining the workspace partition. Cached reuse is bit-identical
//! to recounting, which the reference-oracle test pins down.

#[cfg(test)]
use crate::imi::CorrelationMatrix;
use crate::score::{self, CachedScore, ScoreCache, ScoreCacheStats};
use diffnet_graph::NodeId;
use diffnet_simulate::{ComboSizeError, CountsWorkspace, NodeColumns};
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

/// The parent search hit a configuration its counting kernels cannot
/// tabulate: some evaluated parent set (or, for
/// [`GreedyStrategy::Exhaustive`], the candidate set itself) exceeds
/// [`diffnet_simulate::MAX_TABULATED_PARENTS`].
///
/// Unreachable under [`SearchParams::default`]; hostile or degenerate
/// configurations (a huge `max_combo_size` over a huge candidate list)
/// surface here as a typed error instead of a process abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchError {
    /// The child node whose search failed.
    pub child: NodeId,
    /// The underlying kernel error.
    pub source: ComboSizeError,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parent search for node {}: {}", self.child, self.source)
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
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

/// Per-worker scratch state for the parent search: the incremental
/// counting workspace plus the cross-round score cache. One instance
/// serves many nodes in sequence, retaining both structures' buffers.
#[derive(Clone, Debug, Default)]
pub struct SearchScratch {
    /// Incremental `N_ijk` counting engine.
    pub ws: CountsWorkspace,
    /// Cross-round `g(v_i, F ∪ W)` memo (reset per child).
    pub cache: ScoreCache,
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
/// equivalence oracle for [`crate::BucketIndex::candidate_lists`], which
/// the pipeline uses instead.
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

/// The subset bitmask of `nodes` over the candidate list: bit `t` set iff
/// `candidates[t] ∈ nodes`. Callers must ensure `nodes ⊆ candidates` and
/// `candidates.len() ≤ 64` (the cache is disabled otherwise).
fn subset_mask(nodes: &[NodeId], candidates: &[NodeId]) -> u64 {
    let mut mask = 0u64;
    for &v in nodes {
        let pos = candidates
            .iter()
            .position(|&c| c == v)
            .expect("scored subsets are drawn from the candidate list");
        mask |= 1u64 << pos;
    }
    mask
}

/// Scores one subset through the cache: a hit reuses the memoized
/// `(score, φ)` pair; a miss refines the workspace partition along
/// `extra` (the subset minus the workspace's current base) and memoizes
/// the result. `key` is `None` when caching is disabled (more than 64
/// candidates). Bit-identical to always recounting.
fn eval_cached(
    cache: &mut ScoreCache,
    ws: &mut CountsWorkspace,
    cols: &NodeColumns,
    child: NodeId,
    extra: &[NodeId],
    key: Option<u64>,
) -> Result<CachedScore, ComboSizeError> {
    if let Some(k) = key {
        if let Some(cached) = cache.get(k) {
            return Ok(cached);
        }
    }
    let counts = ws.refined_counts(cols, child, extra)?;
    let value = CachedScore {
        score: score::local_score(counts),
        phi: score::phi(counts),
    };
    if let Some(k) = key {
        cache.insert(k, value);
    }
    Ok(value)
}

/// Enumerates and scores every combination `W ⊆ candidates` with
/// `1 ≤ |W| ≤ max_combo_size` that satisfies the Theorem-2 bound
/// `|W| ≤ log₂(φ_W + δ)` (Algorithm 1 lines 13–15).
///
/// # Errors
///
/// Returns [`ComboSizeError`] if `max_combo_size` admits a combination too
/// large to tabulate (more than
/// [`diffnet_simulate::MAX_TABULATED_PARENTS`] nodes).
pub fn enumerate_combos(
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    max_combo_size: usize,
    delta: f64,
    stats: &mut SearchStats,
) -> Result<Vec<Combo>, ComboSizeError> {
    let mut scratch = SearchScratch::new();
    enumerate_combos_with(
        &mut scratch,
        cols,
        child,
        candidates,
        max_combo_size,
        delta,
        stats,
    )
}

/// [`enumerate_combos`] on caller-provided scratch state: every
/// combination is scored through the incremental counting kernel (reusing
/// the workspace's buffers across evaluations) and memoized in the score
/// cache for the greedy rounds that follow.
pub fn enumerate_combos_with(
    scratch: &mut SearchScratch,
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    max_combo_size: usize,
    delta: f64,
    stats: &mut SearchStats,
) -> Result<Vec<Combo>, ComboSizeError> {
    scratch.ws.set_base(cols, &[])?;
    let cache_on = candidates.len() <= 64;
    let mut combos = Vec::new();
    let mut stack: Vec<NodeId> = Vec::new();
    let mut sorted: Vec<NodeId> = Vec::new();
    enumerate_rec(
        scratch,
        cols,
        child,
        candidates,
        cache_on,
        0,
        max_combo_size.max(1),
        delta,
        &mut stack,
        &mut sorted,
        &mut combos,
        stats,
    )?;
    Ok(combos)
}

#[allow(clippy::too_many_arguments)]
fn enumerate_rec(
    scratch: &mut SearchScratch,
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    cache_on: bool,
    start: usize,
    max_size: usize,
    delta: f64,
    stack: &mut Vec<NodeId>,
    sorted: &mut Vec<NodeId>,
    out: &mut Vec<Combo>,
    stats: &mut SearchStats,
) -> Result<(), ComboSizeError> {
    for idx in start..candidates.len() {
        stack.push(candidates[idx]);
        sorted.clear();
        sorted.extend_from_slice(stack);
        sorted.sort_unstable();
        let key = cache_on.then(|| subset_mask(sorted, candidates));
        let eval = eval_cached(
            &mut scratch.cache,
            &mut scratch.ws,
            cols,
            child,
            sorted,
            key,
        )?;
        stats.evaluations += 1;
        if score::within_bound(sorted.len(), eval.phi, delta) {
            out.push(Combo {
                nodes: sorted.clone(),
                score: eval.score,
            });
        } else {
            stats.bound_rejections += 1;
        }
        if stack.len() < max_size {
            enumerate_rec(
                scratch,
                cols,
                child,
                candidates,
                cache_on,
                idx + 1,
                max_size,
                delta,
                stack,
                sorted,
                out,
                stats,
            )?;
        }
        stack.pop();
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
/// Returns [`SearchError`] when the configuration asks the counting
/// kernels to tabulate a parent set beyond
/// [`diffnet_simulate::MAX_TABULATED_PARENTS`] — unreachable with
/// [`SearchParams::default`], reachable with hostile parameters.
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
/// Every strategy scores `g(v_i, F ∪ W)` through the score cache backed by
/// [`CountsWorkspace::refined_counts`]: the accepted parent set `F` is
/// instantiated once per greedy round, each candidate extension refines
/// that cached partition — unless the subset was already scored this
/// search, in which case the memoized `(score, φ)` pair is reused and the
/// refinement skipped. Results are bit-identical to
/// [`find_parents_reference`], including all [`SearchStats`] counters.
pub fn find_parents_with(
    scratch: &mut SearchScratch,
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    params: &SearchParams,
) -> Result<NodeSearchResult, SearchError> {
    let wrap = |source: ComboSizeError| SearchError { child, source };
    let beta = cols.num_processes() as u64;
    let n2 = cols.ones(child);
    let delta = score::delta(beta, beta - n2, n2);
    let cache_on = candidates.len() <= 64;

    let mut stats = SearchStats::default();
    scratch.cache.reset();
    scratch.ws.set_base(cols, &[]).map_err(wrap)?;
    let empty = eval_cached(
        &mut scratch.cache,
        &mut scratch.ws,
        cols,
        child,
        &[],
        cache_on.then_some(0),
    )
    .map_err(wrap)?;
    let empty_score = empty.score;
    stats.evaluations += 1;

    let mut combos = enumerate_combos_with(
        scratch,
        cols,
        child,
        candidates,
        params.max_combo_size,
        delta,
        &mut stats,
    )
    .map_err(wrap)?;

    let (parents, final_score) = match params.strategy {
        GreedyStrategy::BestImprovement => greedy_best_improvement(
            scratch,
            cols,
            child,
            candidates,
            combos,
            empty_score,
            delta,
            &mut stats,
        )
        .map_err(wrap)?,
        GreedyStrategy::ScoreOrdered => {
            combos.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("no NaNs"));
            greedy_score_ordered(
                scratch,
                cols,
                child,
                candidates,
                &combos,
                empty_score,
                delta,
                &mut stats,
            )
            .map_err(wrap)?
        }
        GreedyStrategy::Exhaustive => exhaustive_search(
            scratch,
            cols,
            child,
            candidates,
            empty_score,
            delta,
            &mut stats,
        )
        .map_err(wrap)?,
    };

    Ok(NodeSearchResult {
        parents,
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
    let wrap = |source: ComboSizeError| SearchError { child, source };
    let beta = cols.num_processes() as u64;
    let n2 = cols.ones(child);
    let delta = score::delta(beta, beta - n2, n2);

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

/// The part of `w` not already in the sorted set `f`, preserving `w`'s
/// (sorted) order — the extension the workspace refines along. Empty iff
/// `w ⊆ f`.
fn extension_into(f: &[NodeId], w: &[NodeId], extra: &mut Vec<NodeId>) {
    extra.clear();
    extra.extend(w.iter().filter(|p| f.binary_search(p).is_err()));
}

/// How a combination's evaluation is obtained within one batched greedy
/// round (see [`greedy_best_improvement`]).
enum RoundEval {
    /// Scored already: a cache hit, or a multi-node extension evaluated
    /// through the ordinary incremental path during classification.
    Ready(CachedScore),
    /// A novel single-node extension: entry `t` of the round's batched
    /// workspace pass.
    Batched(usize),
    /// Same cache key as an extension already in the batch; resolved from
    /// the cache after the flush, so the hit/miss split matches the
    /// sequential order (first occurrence misses, later ones hit).
    Dup(u64),
}

/// §IV-A greedy: each round, evaluate `g(v_i, F ∪ W)` for every remaining
/// admissible combination and take the best strict improvement.
///
/// The round's parent set `F` is instantiated in the workspace once and
/// combinations are scored in two passes. Pass one classifies each
/// combination in order: unions already memoized come straight from the
/// score cache, multi-node extensions refine the workspace immediately,
/// and every novel single-node extension — the overwhelmingly common case,
/// since `W \ F` shrinks as `F` grows — is queued. The queue is then
/// flushed through [`CountsWorkspace::refined_counts_single_batch`], which
/// streams the cached base partition **once** for the whole batch instead
/// of copy-refine-tabulating per combination. Pass two replays the
/// sequential acceptance logic in combination order on the collected
/// evaluations.
///
/// Scores, `SearchStats`, score-cache hit/miss totals, and workspace
/// refinement counts are all bit-identical to the sequential path (and so
/// to [`find_parents_reference`]) — the reference-oracle test pins this.
#[allow(clippy::too_many_arguments)]
fn greedy_best_improvement(
    scratch: &mut SearchScratch,
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    mut combos: Vec<Combo>,
    empty_score: f64,
    delta: f64,
    stats: &mut SearchStats,
) -> Result<(Vec<NodeId>, f64), ComboSizeError> {
    const EPS: f64 = 1e-9;
    let SearchScratch { ws, cache } = scratch;
    let cache_on = candidates.len() <= 64;
    let mut f: Vec<NodeId> = Vec::new();
    let mut mask_f = 0u64;
    let mut current = empty_score;
    let mut extra: Vec<NodeId> = Vec::new();

    while !combos.is_empty() {
        stats.greedy_rounds += 1;
        ws.set_base(cols, &f)?;
        let mut best: Option<(usize, f64)> = None;
        let mut keep = vec![true; combos.len()];

        // Pass 1: classify. `pending` records (combo index, |F ∪ W|, how
        // to obtain the evaluation).
        let mut pending: Vec<(usize, usize, RoundEval)> = Vec::new();
        let mut batch_nodes: Vec<NodeId> = Vec::new();
        let mut batch_keys: Vec<Option<u64>> = Vec::new();
        for (idx, combo) in combos.iter().enumerate() {
            extension_into(&f, &combo.nodes, &mut extra);
            if extra.is_empty() {
                // W ⊆ F already: it can never change the score again.
                keep[idx] = false;
                continue;
            }
            if f.len() + extra.len() > MAX_PARENTS {
                continue;
            }
            let key = cache_on.then(|| mask_f | subset_mask(&extra, candidates));
            let state = match key {
                Some(k) => {
                    if let Some(cached) = cache.get(k) {
                        RoundEval::Ready(cached)
                    } else if extra.len() == 1 {
                        if batch_keys.contains(&Some(k)) {
                            RoundEval::Dup(k)
                        } else {
                            batch_nodes.push(extra[0]);
                            batch_keys.push(Some(k));
                            RoundEval::Batched(batch_nodes.len() - 1)
                        }
                    } else {
                        let counts = ws.refined_counts(cols, child, &extra)?;
                        let value = CachedScore {
                            score: score::local_score(counts),
                            phi: score::phi(counts),
                        };
                        cache.insert(k, value);
                        RoundEval::Ready(value)
                    }
                }
                None if extra.len() == 1 => {
                    // Cache off: batch every single, duplicates included —
                    // the sequential path would recount each one too.
                    batch_nodes.push(extra[0]);
                    batch_keys.push(None);
                    RoundEval::Batched(batch_nodes.len() - 1)
                }
                None => {
                    let counts = ws.refined_counts(cols, child, &extra)?;
                    RoundEval::Ready(CachedScore {
                        score: score::local_score(counts),
                        phi: score::phi(counts),
                    })
                }
            };
            pending.push((idx, f.len() + extra.len(), state));
        }

        // Flush: one streaming pass over the base partition scores every
        // queued single-node extension.
        let mut batch_evals: Vec<CachedScore> = Vec::with_capacity(batch_nodes.len());
        ws.refined_counts_single_batch(cols, child, &batch_nodes, |t, counts| {
            let value = CachedScore {
                score: score::local_score(counts),
                phi: score::phi(counts),
            };
            if let Some(k) = batch_keys[t] {
                cache.insert(k, value);
            }
            batch_evals.push(value);
        });

        // Pass 2: the sequential acceptance logic, in combination order.
        for (idx, union_len, state) in pending {
            let eval = match state {
                RoundEval::Ready(value) => value,
                RoundEval::Batched(t) => batch_evals[t],
                RoundEval::Dup(k) => cache.get(k).expect("batched twin was inserted at flush"),
            };
            stats.evaluations += 1;
            if !score::within_bound(union_len, eval.phi, delta) {
                stats.bound_rejections += 1;
                continue;
            }
            if eval.score > current + EPS && best.is_none_or(|(_, bs)| eval.score > bs) {
                best = Some((idx, eval.score));
            }
        }

        match best {
            Some((idx, s)) => {
                if cache_on {
                    mask_f |= subset_mask(&combos[idx].nodes, candidates);
                }
                f = union(&f, &combos[idx].nodes);
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
#[allow(clippy::too_many_arguments)]
fn greedy_score_ordered(
    scratch: &mut SearchScratch,
    cols: &NodeColumns,
    child: NodeId,
    candidates: &[NodeId],
    combos_sorted: &[Combo],
    empty_score: f64,
    delta: f64,
    stats: &mut SearchStats,
) -> Result<(Vec<NodeId>, f64), ComboSizeError> {
    let cache_on = candidates.len() <= 64;
    let mut f: Vec<NodeId> = Vec::new();
    let mut mask_f = 0u64;
    let mut current = empty_score;
    let mut extra: Vec<NodeId> = Vec::new();
    scratch.ws.set_base(cols, &f)?;
    for combo in combos_sorted {
        extension_into(&f, &combo.nodes, &mut extra);
        if extra.is_empty() || f.len() + extra.len() > MAX_PARENTS {
            continue;
        }
        let key = cache_on.then(|| mask_f | subset_mask(&extra, candidates));
        let eval = eval_cached(
            &mut scratch.cache,
            &mut scratch.ws,
            cols,
            child,
            &extra,
            key,
        )?;
        stats.evaluations += 1;
        if score::within_bound(f.len() + extra.len(), eval.phi, delta) {
            stats.greedy_rounds += 1;
            if cache_on {
                mask_f |= subset_mask(&combo.nodes, candidates);
            }
            f = union(&f, &combo.nodes);
            current = eval.score;
            scratch.ws.set_base(cols, &f)?;
        } else {
            stats.bound_rejections += 1;
        }
    }
    Ok((f, current))
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
/// are skipped. With `c` candidates this evaluates up to `2^c` subsets;
/// candidate sets beyond [`MAX_EXHAUSTIVE_CANDIDATES`] are rejected as a
/// typed error. Subsets already scored during enumeration (every `W` with
/// `|W| ≤ max_combo_size`) come straight from the score cache.
fn exhaustive_search(
    scratch: &mut SearchScratch,
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
    scratch.ws.set_base(cols, &[])?;
    let mut best: (Vec<NodeId>, f64) = (Vec::new(), empty_score);
    let mut subset: Vec<NodeId> = Vec::new();
    for mask in 1u32..(1u32 << c) {
        if (mask.count_ones() as usize) > MAX_PARENTS {
            continue;
        }
        subset.clear();
        subset.extend(
            (0..c)
                .filter(|&t| mask & (1 << t) != 0)
                .map(|t| candidates[t]),
        );
        subset.sort_unstable();
        // The loop mask is exactly the candidate-subset bitmask the cache
        // keys on (bit `t` ⇔ `candidates[t]`).
        let eval = eval_cached(
            &mut scratch.cache,
            &mut scratch.ws,
            cols,
            child,
            &subset,
            Some(mask as u64),
        )?;
        stats.evaluations += 1;
        if !score::within_bound(subset.len(), eval.phi, delta) {
            stats.bound_rejections += 1;
            continue;
        }
        if eval.score > best.1 {
            best = (subset.clone(), eval.score);
        }
    }
    Ok(best)
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
        assert_eq!(err.child, 39);
        assert_eq!(err.source.parents, 26);
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
        assert_eq!(ex_err.source.parents, 30);
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
    fn union_helper() {
        assert_eq!(union(&[1, 3], &[2, 3]), vec![1, 2, 3]);
        assert_eq!(union(&[], &[5]), vec![5]);
        assert_eq!(union(&[4], &[]), vec![4]);
    }

    #[test]
    fn subset_mask_uses_candidate_positions() {
        let candidates = [7u32, 3, 9, 1];
        assert_eq!(subset_mask(&[], &candidates), 0);
        assert_eq!(subset_mask(&[7], &candidates), 0b0001);
        assert_eq!(subset_mask(&[1, 9], &candidates), 0b1100);
        assert_eq!(subset_mask(&[3, 7, 1, 9], &candidates), 0b1111);
    }
}
