//! The TENDS algorithm (paper Algorithm 1): end-to-end reconstruction of a
//! diffusion network topology from a status matrix.

use crate::checkpoint::{self, Checkpoint, CheckpointEntry, CheckpointError};
use crate::imi::{CorrelationMatrix, CorrelationMeasure, PairStats, MAX_DENSE_NODES};
use crate::kmeans::PinnedKmeans;
use crate::parallel;
use crate::score::ScoreCacheStats;
use crate::search::{
    find_parents_with, NodeSearchResult, SearchError, SearchParams, SearchScratch, SearchStats,
};
use crate::stream::{self, Shard};
use diffnet_graph::{DiGraph, GraphBuilder, NodeId};
use diffnet_observe::{FaultPlan, Recorder, SpanId};
use diffnet_simulate::{NodeColumns, StatusMatrix, WorkspaceStats};
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// How the pruning threshold `τ` is chosen.
///
/// A pair is a candidate iff its correlation is strictly above `τ` (IEEE
/// `>`). The library accepts any `f64` and applies it literally: a NaN `τ`
/// admits no pair, and a negative one admits anti-correlated pairs. The
/// CLI accepts only a finite scale `≥ 0` for `--threshold-scale`.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ThresholdMode {
    /// Find `τ` with the pinned 2-means over the pairwise correlation
    /// values (Algorithm 1 line 5). Default.
    #[default]
    Auto,
    /// Use a fixed threshold (for sensitivity studies).
    Fixed(f64),
    /// Find `τ` automatically, then scale it by the given factor — the
    /// paper's Fig. 10–11 sweep varies the threshold from `0.4τ` to `2τ`.
    /// Meaningful scales are finite and `≥ 0` (the 2-means `τ` is `≥ 0`,
    /// so these keep `τ ≥ 0`); `0` admits every positive correlation.
    ScaledAuto(f64),
}

impl ThresholdMode {
    /// The threshold this mode applies, given the pinned 2-means `τ`.
    pub fn apply(self, kmeans_tau: f64) -> f64 {
        match self {
            ThresholdMode::Auto => kmeans_tau,
            ThresholdMode::Fixed(t) => t,
            ThresholdMode::ScaledAuto(s) => kmeans_tau * s,
        }
    }
}

/// How inferred edge directions are post-processed.
///
/// Final infection statuses carry no directional information *within* a
/// pair — the likelihood gain of `u` as a parent of `v` equals that of `v`
/// as a parent of `u` — so on networks with one-directional edges TENDS
/// tends to propose both directions. These policies let a user encode
/// domain knowledge about reciprocity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DirectionPolicy {
    /// Keep the per-node selections as-is (the paper's behaviour). Default.
    #[default]
    AsIs,
    /// Whenever `u -> v` is inferred, also add `v -> u`: appropriate when
    /// influence is known to be mutual (coauthorship, physical contact).
    Symmetrize,
    /// Keep only pairs inferred in *both* directions: raises precision on
    /// reciprocal networks by demanding agreement between the two
    /// independent per-node searches.
    MutualOnly,
}

/// Full configuration of a TENDS run.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct TendsConfig {
    /// Pairwise correlation measure for pruning (IMI, or plain MI for the
    /// paper's ablation).
    pub correlation: CorrelationMeasure,
    /// Threshold selection mode.
    pub threshold: ThresholdMode,
    /// Parent-search parameters.
    pub search: SearchParams,
    /// Edge-direction post-processing.
    pub direction: DirectionPolicy,
    /// Worker threads for the per-node parent searches (each node's search
    /// is independent). `0` uses all available cores; `1` (default) runs
    /// single-threaded, which keeps timing comparisons with the
    /// single-threaded baselines honest.
    pub threads: usize,
    /// Peak-memory budget in bytes for the out-of-core streamed IMI path.
    /// Setting this (or [`shard`](TendsConfig::shard)) switches
    /// reconstruction from the dense `n × n` correlation matrix to the
    /// streamed sparse-candidate pipeline (see [`crate::stream`]): τ comes
    /// from a budget-sized systematic pair sample and candidates from
    /// bounded per-node accumulators. `None` (default) keeps the dense
    /// path — the bit-identity oracle. The budget also sizes the τ
    /// sample, so runs must share a budget to share τ bit-for-bit.
    pub memory_budget: Option<u64>,
    /// Restricts the streamed path to one contiguous node range: only the
    /// shard's nodes get candidate lists, parent searches, and edges, so
    /// one logical reconstruction can be split across processes and
    /// merged by edge union. Implies the streamed path. The result's
    /// `node_results` are indexed by `node − shard.start`; the graph
    /// keeps global node ids. Incompatible with
    /// [`DirectionPolicy::MutualOnly`], which needs every node's parent
    /// set: [`Tends::reconstruct_robust`] refuses that combination, and a
    /// shard past the last node, with a typed [`CheckpointError::Format`].
    pub shard: Option<Shard>,
}

/// Result of a TENDS reconstruction.
#[derive(Clone, Debug)]
pub struct TendsResult {
    /// The inferred diffusion network topology.
    pub graph: DiGraph,
    /// The pruning threshold that was applied.
    pub tau: f64,
    /// Details of the threshold clustering (the *unscaled* `τ` lives in
    /// here when [`ThresholdMode::ScaledAuto`] is used).
    pub kmeans: PinnedKmeans,
    /// Per-node search outcomes, indexed by node id — or, on a sharded
    /// streamed run, by `node − shard.start` (only the shard's nodes are
    /// searched).
    pub node_results: Vec<NodeSearchResult>,
    /// The global score `g(T)` of the inferred topology (Eq. 12): the sum
    /// of the per-node local scores.
    pub global_score: f64,
}

/// Why one node's parent search failed.
#[derive(Debug)]
pub enum NodeError {
    /// The search configuration exceeded the counting kernels' limits.
    Search(SearchError),
    /// An I/O failure reached the search (in practice: injected by a
    /// [`FaultPlan`] to exercise degradation paths).
    Io(std::io::Error),
    /// The run was cancelled through [`RobustOptions::cancel`] before this
    /// node was searched; completed nodes stay checkpointed, so a resumed
    /// run picks up exactly here.
    Cancelled,
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Search(e) => e.fmt(f),
            NodeError::Io(e) => write!(f, "I/O error during node search: {e}"),
            NodeError::Cancelled => write!(f, "node search cancelled before it started"),
        }
    }
}

impl std::error::Error for NodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NodeError::Search(e) => Some(e),
            NodeError::Io(e) => Some(e),
            NodeError::Cancelled => None,
        }
    }
}

/// A reconstruction that survived per-node failures instead of aborting:
/// failed nodes simply contribute no parent edges, and the caller decides
/// whether a partial topology is acceptable (the CLI signals it with a
/// dedicated exit code).
#[derive(Debug)]
pub struct PartialReconstruction {
    /// The reconstruction over the nodes that succeeded; failed nodes
    /// have an empty parent set and a zero local score.
    pub result: TendsResult,
    /// Nodes whose parent search failed, in ascending id order.
    pub failed_nodes: Vec<NodeId>,
    /// The failures, parallel to `failed_nodes`.
    pub errors: Vec<(NodeId, NodeError)>,
    /// Nodes restored from a checkpoint instead of searched (0 on an
    /// incremental append, which searches every node).
    pub resumed_nodes: usize,
    /// Checkpoint writes performed during the run (delta batches plus the
    /// final compaction).
    pub checkpoint_flushes: u64,
    /// Append-only delta records written to the checkpoint before the
    /// final compaction rewrite.
    pub delta_records: u64,
}

impl PartialReconstruction {
    /// True when every node's search succeeded.
    pub fn is_complete(&self) -> bool {
        self.failed_nodes.is_empty()
    }

    /// The inferred (possibly partial) topology.
    pub fn graph(&self) -> &DiGraph {
        &self.result.graph
    }
}

/// Options for [`Tends::reconstruct_robust`]: checkpointing, resume, fault
/// injection, cancellation, and cascade appends. [`Default`] is a plain
/// fresh run with none of them.
#[derive(Debug)]
pub struct RobustOptions<'a> {
    /// Checkpoint file to write progress to; `None` disables
    /// checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Load `checkpoint` first and skip the nodes it already contains. A
    /// missing file is treated as an empty checkpoint so restart loops
    /// can pass `resume` unconditionally.
    pub resume: bool,
    /// Flush the checkpoint after this many newly completed nodes
    /// (clamped to ≥ 1).
    pub checkpoint_interval: usize,
    /// Fault-injection plan consulted at the `node_search` and
    /// `checkpoint_flush` sites.
    pub fault: &'a FaultPlan,
    /// Cooperative cancellation flag, polled before each node's search.
    /// Once set, remaining nodes fail with [`NodeError::Cancelled`] while
    /// every already-completed node still reaches the checkpoint's final
    /// flush — this is how a serving daemon checkpoints in-flight jobs on
    /// graceful shutdown. `None` (default) never cancels.
    pub cancel: Option<&'a std::sync::atomic::AtomicBool>,
    /// Sufficient-statistics revision of the input matrix: 0 for the
    /// original submission, bumped once per applied cascade-append batch.
    /// Folded into the checkpoint fingerprint so a resume against a stale
    /// pre-append checkpoint fails with a typed mismatch instead of
    /// silently splicing parents estimated from fewer cascades.
    pub revision: u64,
    /// The processes of a cascade append, as a column view: `Some` turns
    /// the run into an incremental re-estimation that folds these columns
    /// into the checkpointed sufficient statistics instead of recomputing
    /// the correlation matrix (see [`Tends::reconstruct_robust`]). The
    /// run's own columns must then be the combined matrix, `checkpoint`
    /// must name the base run's checkpoint, and `revision` must be the
    /// bumped revision. `None` (default) is an ordinary run.
    pub appended: Option<&'a NodeColumns>,
}

impl Default for RobustOptions<'_> {
    fn default() -> Self {
        RobustOptions {
            checkpoint: None,
            resume: false,
            checkpoint_interval: 8,
            fault: FaultPlan::none(),
            cancel: None,
            revision: 0,
            appended: None,
        }
    }
}

impl TendsResult {
    /// Total number of local-score evaluations across all nodes (a proxy
    /// for search effort, used by the pruning experiments).
    pub fn total_evaluations(&self) -> usize {
        self.node_results.iter().map(|r| r.stats.evaluations).sum()
    }

    /// Mean number of surviving candidate parents per node.
    pub fn mean_candidates(&self) -> f64 {
        if self.node_results.is_empty() {
            return 0.0;
        }
        self.node_results
            .iter()
            .map(|r| r.candidates.len())
            .sum::<usize>() as f64
            / self.node_results.len() as f64
    }
}

/// The TENDS estimator.
///
/// ```
/// use diffnet_graph::DiGraph;
/// use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade};
/// use diffnet_tends::Tends;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // Hidden ground truth: a directed chain.
/// let truth = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
/// let mut rng = StdRng::seed_from_u64(7);
/// let probs = EdgeProbs::constant(&truth, 0.5);
/// let obs = IndependentCascade::new(&truth, &probs)
///     .observe(IcConfig { initial_ratio: 0.2, num_processes: 400 }, &mut rng);
///
/// let result = Tends::new().reconstruct(&obs.statuses).expect("default search fits");
/// assert_eq!(result.graph.node_count(), 6);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Tends {
    config: TendsConfig,
}

impl Tends {
    /// TENDS with the paper's default configuration.
    pub fn new() -> Self {
        Tends::default()
    }

    /// TENDS with an explicit configuration.
    pub fn with_config(config: TendsConfig) -> Self {
        Tends { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TendsConfig {
        &self.config
    }

    /// Reconstructs the diffusion network topology from final infection
    /// statuses (Algorithm 1): [`reconstruct_robust`](Self::reconstruct_robust)
    /// over the matrix's columns, with no recorder and default options.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError`] when the search configuration asks the
    /// counting kernels to tabulate a parent set beyond their limit —
    /// unreachable with default parameters, reachable with hostile ones
    /// (see [`crate::search::find_parents`]).
    ///
    /// # Panics
    ///
    /// Panics on the errors `reconstruct_robust` returns without a
    /// checkpoint: a dense pipeline (no memory budget or shard) over more
    /// than [`crate::MAX_DENSE_NODES`] nodes, or a shard config that does
    /// not fit the matrix.
    pub fn reconstruct(&self, statuses: &StatusMatrix) -> Result<TendsResult, SearchError> {
        let partial = self
            .reconstruct_robust(
                &statuses.columns(),
                Recorder::disabled(),
                &RobustOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        match partial.errors.into_iter().next() {
            None => Ok(partial.result),
            Some((_, NodeError::Search(e))) => Err(e),
            Some((_, e)) => unreachable!("no fault plan or cancellation flag installed: {e}"),
        }
    }

    /// Algorithm 1 over the column bitset view of the statuses, with
    /// instrumentation and the full robustness layer. `cols` comes from
    /// [`StatusMatrix::columns`] or straight off disk
    /// (`diffnet_simulate::io::load_status_columns`); the row-major matrix
    /// is never needed.
    ///
    /// Dispatches on the config: with
    /// [`memory_budget`](TendsConfig::memory_budget) or
    /// [`shard`](TendsConfig::shard) set, candidates come from the
    /// streamed sparse-candidate pipeline (phases `tau_sample`,
    /// `streamed_fold`); otherwise from the dense correlation matrix.
    ///
    /// Each pipeline phase is timed on `rec`, and the load-bearing
    /// internals (pairs above `τ`, candidate-set sizes, Theorem-2
    /// rejections, combinations scored, workspace refinements, pool
    /// utilization) are ingested at phase boundaries — the hot loops only
    /// bump plain integers. Passing [`Recorder::disabled`] makes every
    /// recorder call a branch on a constant. The recorder is a parameter
    /// rather than a `TendsConfig` field because the config is `Copy` (it
    /// is embedded in sweep/ablation tables all over the workspace) and a
    /// collector handle is not.
    ///
    /// Robustness: optional periodic checkpointing of completed per-node
    /// searches, resume from a prior checkpoint, fault injection, and
    /// graceful degradation — per-node failures are collected into the
    /// returned [`PartialReconstruction`] instead of aborting the run.
    ///
    /// Resume is *bit-identical*: because each node's result is a pure
    /// function of its id (and scores/counters are checkpointed
    /// bit-exactly), a run interrupted at any point and resumed at any
    /// thread count produces the same graph and the same deterministic
    /// report sections as an uninterrupted run.
    ///
    /// # Cascade appends
    ///
    /// With [`RobustOptions::appended`] set, the run is an incremental
    /// re-estimation: it folds the appended processes into the
    /// checkpointed sufficient statistics — work proportional to the new
    /// columns only — which yields the exact combined correlation matrix,
    /// τ and candidate lists, then runs the ordinary parent search for
    /// every node over the combined columns. Each node's search depends
    /// only on the columns and its candidate list, so edges, scores, τ and
    /// every search counter equal those of a fresh run over the combined
    /// matrix at every thread count and SIMD tier, by construction.
    ///
    /// `cols` must then contain exactly the base run's processes plus the
    /// appended ones (row order is irrelevant: every statistic is a
    /// function of the row multiset). `options.revision` must be the
    /// *bumped* revision (checkpoint revision + 1) and `options.checkpoint`
    /// must name the base run's checkpoint. The post-append checkpoint
    /// replaces it through the same delta log every run writes: first the
    /// new revision's header (one atomic write), then one delta line per
    /// completed node. A crash before the header lands leaves the old
    /// revision, and a retry redoes the append; a crash after it leaves
    /// the new revision's header plus the delta lines written so far. If
    /// the file already carries the bumped revision, the call degrades to
    /// a plain resume of the combined run, which keeps those nodes and
    /// searches the rest.
    ///
    /// # Errors
    ///
    /// Only checkpoint and config problems are fatal, and every config
    /// problem is reported before any pair state is allocated:
    /// - [`CheckpointError::DenseLimit`] for a dense run over more than
    ///   [`crate::MAX_DENSE_NODES`] nodes;
    /// - [`CheckpointError::Format`] for a shard that does not fit the
    ///   `n` nodes, or [`DirectionPolicy::MutualOnly`] with a partial
    ///   shard (it needs every node's parent set);
    /// - for an append, [`CheckpointError::Format`] when the config is
    ///   streamed, or the checkpoint is missing, carries no sufficient
    ///   statistics (streamed checkpoints), disagrees with the matrix
    ///   shapes, or its revision cannot warm-start `options.revision`;
    /// - an unreadable, corrupt, or mismatched (different inputs/config)
    ///   checkpoint file, or a failed checkpoint write.
    pub fn reconstruct_robust(
        &self,
        cols: &NodeColumns,
        rec: &Recorder,
        options: &RobustOptions<'_>,
    ) -> Result<PartialReconstruction, CheckpointError> {
        if let Some(appended) = options.appended {
            return self.append(cols, appended, rec, options);
        }
        let n = cols.num_nodes();
        let source = if self.config.memory_budget.is_some() || self.config.shard.is_some() {
            let shard = self.config.shard.unwrap_or_else(|| Shard::full(n));
            if shard.start > shard.end || shard.end as usize > n {
                return Err(CheckpointError::Format(format!(
                    "shard {}..{} out of range for n = {n}",
                    shard.start, shard.end,
                )));
            }
            // MutualOnly needs the parent set of every node in the graph;
            // a shard only computes its own range.
            if self.config.direction == DirectionPolicy::MutualOnly && shard.len() != n {
                return Err(CheckpointError::Format(
                    "MutualOnly direction requires an unsharded run".into(),
                ));
            }
            CandidateSource::Sampled { shard }
        } else {
            CandidateSource::Columns {
                capture_stats: options.checkpoint.is_some(),
            }
        };
        self.run(cols, source, rec, options)
    }

    /// The append half of [`reconstruct_robust`](Self::reconstruct_robust):
    /// `combined` holds every process, `appended` the new ones.
    fn append(
        &self,
        combined: &NodeColumns,
        appended: &NodeColumns,
        rec: &Recorder,
        options: &RobustOptions<'_>,
    ) -> Result<PartialReconstruction, CheckpointError> {
        if self.config.memory_budget.is_some() || self.config.shard.is_some() {
            return Err(CheckpointError::Format(
                "incremental append needs the dense pipeline \
                 (memory_budget and shard configs cannot warm-start appends)"
                    .into(),
            ));
        }
        let path = options.checkpoint.clone().ok_or_else(|| {
            CheckpointError::Format("incremental append requires a checkpoint file".into())
        })?;
        // Header and statistics only: the old revision's node entries are
        // never read, because every node is searched over the combined
        // columns.
        let mut ck = {
            let _p = rec.phase("checkpoint_load");
            Checkpoint::load_header(&path)?
        };
        if ck.revision == options.revision {
            // The previous attempt already started this append's revision
            // before being interrupted: plain resume.
            let opts = RobustOptions {
                checkpoint: Some(path),
                resume: true,
                appended: None,
                ..*options
            };
            return self.reconstruct_robust(combined, rec, &opts);
        }
        if ck.revision + 1 != options.revision {
            return Err(CheckpointError::Format(format!(
                "checkpoint revision {} cannot warm-start append revision {}",
                ck.revision, options.revision
            )));
        }
        let stats = ck.stats.take().ok_or_else(|| {
            CheckpointError::Format(
                "checkpoint has no sufficient statistics \
                 (streamed checkpoints cannot warm-start appends)"
                    .into(),
            )
        })?;
        let n = combined.num_nodes();
        if stats.num_nodes() != n || appended.num_nodes() != n {
            return Err(CheckpointError::Format(format!(
                "node counts disagree: checkpoint {}, combined {}, appended {}",
                stats.num_nodes(),
                n,
                appended.num_nodes()
            )));
        }
        if stats.num_processes() + appended.num_processes() as u64
            != combined.num_processes() as u64
        {
            return Err(CheckpointError::Format(format!(
                "process counts disagree: checkpoint {} + appended {} != combined {}",
                stats.num_processes(),
                appended.num_processes(),
                combined.num_processes()
            )));
        }

        // The statistics' integrity was already established when
        // `Checkpoint::load_header` re-verified their content digest. The
        // new revision's header replaces the file.
        let source = CandidateSource::Appended { stats, appended };
        let opts = RobustOptions {
            checkpoint: Some(path),
            resume: false,
            ..*options
        };
        self.run(combined, source, rec, &opts)
    }

    /// Algorithm 1 over `cols`: the candidate step (lines 2–5 and 10–12),
    /// the per-node parent searches (lines 6–20), then edges (line 21).
    fn run(
        &self,
        cols: &NodeColumns,
        source: CandidateSource<'_>,
        rec: &Recorder,
        options: &RobustOptions<'_>,
    ) -> Result<PartialReconstruction, CheckpointError> {
        let nodes = cols.num_nodes();
        if nodes > MAX_DENSE_NODES && !matches!(source, CandidateSource::Sampled { .. }) {
            return Err(CheckpointError::DenseLimit { nodes });
        }
        let (cands, stats) = self.candidates(cols, source, rec);
        let outcome = self.search(cols, &cands, stats, rec, options)?;
        Ok(self.assemble(cols.num_nodes(), cands, outcome, rec))
    }

    /// The candidate step: `τ` and every node's candidate list, plus the
    /// pairwise sufficient statistics when the source captured them, from
    /// one of two sources. The *exact* source is the correlation matrix's
    /// upper triangle — computed from the columns, or derived from
    /// checkpointed statistics after an append fold — with `τ` from the
    /// pinned 2-means over all of it and the candidate lists from a walk of
    /// the same [`BucketIndex`]. The *sampled* source takes `τ` from a
    /// budget-sized systematic pair sample and the candidates from bounded
    /// accumulators folded tile by tile; the triangle never exists (see
    /// [`crate::stream`] for why the result is invariant to threads, SIMD
    /// tier, and shard count, and bit-identical to the exact source
    /// whenever the τ sample is exhaustive).
    fn candidates(
        &self,
        cols: &NodeColumns,
        source: CandidateSource<'_>,
        rec: &Recorder,
    ) -> (Candidates, Option<PairStats>) {
        let cfg = &self.config;
        let (kmeans, tau, shard, lists, above, stats) = match source {
            CandidateSource::Sampled { shard } => {
                let kmeans = {
                    let _p = rec.phase("tau_sample");
                    let sample =
                        stream::sample_tau(cols, cfg.correlation, cfg.memory_budget, cfg.threads);
                    if rec.is_enabled() {
                        rec.add("tau_sample_pairs", sample.sampled_pairs);
                        rec.add("tau_sample_stride", sample.stride);
                        rss_sample(rec, _p.span_id());
                    }
                    sample.kmeans
                };
                let tau = cfg.threshold.apply(kmeans.tau);
                // Above-τ pairs stream straight into the bounded per-node
                // accumulators; lists come out in the dense lists' order.
                let _p = rec.phase("streamed_fold");
                let fold = stream::fold_candidates(
                    cols,
                    cfg.correlation,
                    tau,
                    cfg.search.max_candidates,
                    shard,
                    cfg.threads,
                );
                if rec.is_enabled() {
                    rec.worker_chunks("streamed_fold", &fold.chunks_per_worker);
                    rec.add("candidate_evictions", fold.candidate_evictions);
                    rec.add("correlation_pairs", fold.scanned_pairs);
                    rec.add("correlation_tiles", fold.tiles);
                    rec.add("fold_values_evaluated", fold.values_evaluated);
                    rss_sample(rec, _p.span_id());
                }
                // No sufficient statistics: the streamed path never holds
                // the dense pair state an append would fold into, so its
                // checkpoints resume but do not warm-start appends.
                let above = fold.pairs_above_tau;
                (kmeans, tau, shard, fold.candidates, above, None)
            }
            exact => {
                let (corr, stats) = match exact {
                    // With checkpointing enabled the same tiled pass also
                    // captures the pairwise sufficient statistics that
                    // make later cascade appends incremental.
                    CandidateSource::Columns { capture_stats } => {
                        let _p = rec.phase("correlation_matrix");
                        CorrelationMatrix::compute_observed(
                            cols,
                            cfg.correlation,
                            cfg.threads,
                            capture_stats,
                            rec,
                        )
                    }
                    // Work proportional to the new columns only.
                    CandidateSource::Appended {
                        mut stats,
                        appended,
                    } => {
                        let _p = rec.phase("stats_append");
                        stats.append(appended, cfg.threads);
                        rec.add("append_processes", appended.num_processes() as u64);
                        (stats.correlation(cfg.correlation), Some(stats))
                    }
                    CandidateSource::Sampled { .. } => unreachable!("matched above"),
                };
                // Line 5: pinned 2-means over the whole upper triangle,
                // through one bucketed index that sorts only the buckets
                // the clustering reaches.
                let (kmeans, tau, mut index) = {
                    let _p = rec.phase("threshold");
                    let mut index = corr.index();
                    let kmeans = index.pinned_two_means();
                    let tau = cfg.threshold.apply(kmeans.tau);
                    (kmeans, tau, index)
                };
                // Lines 10–12: every node's candidates, from a walk of the
                // same index over the pairs above τ.
                let _p = rec.phase("candidate_pruning");
                let n = corr.num_nodes();
                let (lists, above) = index.candidate_lists(n, tau, cfg.search.max_candidates);
                (kmeans, tau, Shard::full(n), lists, above, stats)
            }
        };
        if rec.is_enabled() {
            rec.value("tau", tau);
            rec.value("tau_unscaled", kmeans.tau);
            rec.add("pairs_above_tau", above);
            for list in &lists {
                rec.histogram("candidate_set_size", list.len());
            }
        }
        let cands = Candidates {
            kmeans,
            tau,
            shard,
            lists,
        };
        (cands, stats)
    }

    /// Line 21 plus bookkeeping: a directed edge from each inferred parent
    /// to its child under the configured direction policy, then assembly
    /// into a [`PartialReconstruction`]. `outcome.results` index like
    /// `cands.lists`.
    fn assemble(
        &self,
        n: usize,
        cands: Candidates,
        outcome: SearchOutcome,
        rec: &Recorder,
    ) -> PartialReconstruction {
        let node_results = outcome.results;
        let _p = rec.phase("direction");
        let mut builder = GraphBuilder::new(n);
        let mut global_score = 0.0;
        let shard = cands.shard;
        for (k, res) in node_results.iter().enumerate() {
            let child = shard.start + k as NodeId;
            for &p in &res.parents {
                match self.config.direction {
                    DirectionPolicy::AsIs => {
                        builder.add_edge(p, child);
                    }
                    DirectionPolicy::Symmetrize => {
                        builder.add_reciprocal(p, child);
                    }
                    DirectionPolicy::MutualOnly => {
                        // MutualOnly runs are unsharded (asserted on entry),
                        // so shard-local indexing is global indexing.
                        if node_results[(p - shard.start) as usize]
                            .parents
                            .contains(&child)
                        {
                            builder.add_edge(p, child);
                        }
                    }
                }
            }
            global_score += res.score;
        }
        let graph = builder.build();
        drop(_p);
        if rec.is_enabled() {
            rec.add("edges_emitted", graph.edge_count() as u64);
        }

        let failed_nodes: Vec<NodeId> = outcome.failures.iter().map(|&(i, _)| i).collect();
        PartialReconstruction {
            result: TendsResult {
                graph,
                tau: cands.tau,
                kmeans: cands.kmeans,
                node_results,
                global_score,
            },
            failed_nodes,
            errors: outcome.failures,
            resumed_nodes: outcome.resumed_nodes,
            checkpoint_flushes: outcome.flushes,
            delta_records: outcome.delta_records,
        }
    }

    /// Signature of the search-relevant configuration for checkpoint
    /// fingerprints. `threads` is deliberately excluded (results are
    /// thread-count invariant) and so is `direction` (applied after the
    /// search, to fresh and restored results alike). The streamed path
    /// appends its budget and shard: the budget sizes the τ sample (so
    /// different budgets can mean different τ) and a shard's checkpoint
    /// only covers its own node range — neither may silently resume the
    /// other's file.
    fn config_signature(&self) -> String {
        let mut sig = format!(
            "correlation={:?};search={:?}",
            self.config.correlation, self.config.search
        );
        if self.config.memory_budget.is_some() || self.config.shard.is_some() {
            let shard = self.config.shard.map(|s| (s.start, s.end));
            sig.push_str(&format!(
                ";streamed=1;budget={:?};shard={:?}",
                self.config.memory_budget, shard
            ));
        }
        sig
    }

    /// The `parent_search` phase: runs the per-node searches of
    /// `cands.shard` on a cost-aware worker pool, checkpointing each
    /// completed node through the [`delta_writer`].
    ///
    /// A node is *restored* if and only if the checkpoint being resumed
    /// holds it, and *searched* otherwise. A restored entry must have been
    /// searched over the node's freshly computed candidate list and its
    /// parents must lie among those candidates; anything else is a
    /// [`CheckpointError::Format`] naming the node.
    ///
    /// Per-node search cost varies wildly: with `k = |P_i|` candidates a
    /// node enumerates `Θ(k²)` combinations (at the default
    /// `max_combo_size = 2`) while a fully pruned node scores only the
    /// empty set. Chunks are therefore weighted by the `1 + k²` estimate
    /// (see [`parallel::cost_chunks`]) so a handful of hub nodes doesn't
    /// serialize the pool. Each worker owns one [`SearchScratch`]
    /// (counting workspace + score cache) reused across all its nodes;
    /// each node's result depends only on its id, so the output is
    /// identical for every thread count — and so are the summed
    /// search/workspace/cache counters reported through `rec` (per-worker
    /// chunk claims are the one scheduler-dependent datum, and land in the
    /// runtime-only report section).
    ///
    /// Spans, fault sites, and checkpoint entries use global node ids,
    /// while results index by `id − cands.shard.start`.
    fn search(
        &self,
        cols: &NodeColumns,
        cands: &Candidates,
        stats: Option<PairStats>,
        rec: &Recorder,
        options: &RobustOptions<'_>,
    ) -> Result<SearchOutcome, CheckpointError> {
        let phase = rec.phase("parent_search");
        let parent_span = phase.span_id();
        let candidates = &cands.lists;
        let n = candidates.len();
        let base = cands.shard.start;
        let fp = checkpoint::fingerprint(
            cols.num_processes(),
            cols.num_nodes(),
            cands.tau,
            &self.config_signature(),
            options.revision,
            candidates,
        );

        // Prior progress: a resumed node is returned from the checkpoint
        // instead of searched. A missing file is an empty checkpoint.
        let mut restored: BTreeMap<NodeId, CheckpointEntry> = BTreeMap::new();
        if let (Some(path), true) = (&options.checkpoint, options.resume) {
            if path.exists() {
                let ck = {
                    let _span = rec.span_with_parent("checkpoint_load", parent_span);
                    Checkpoint::load(path)?
                };
                if ck.fingerprint != fp {
                    return Err(CheckpointError::Mismatch {
                        expected: format!("{fp:016x}"),
                        found: format!("{:016x}", ck.fingerprint),
                    });
                }
                // The fingerprint covers this run's revision; a header whose
                // own revision disagrees was edited.
                if ck.revision != options.revision {
                    return Err(CheckpointError::Format(format!(
                        "checkpoint revision {} does not match this run's revision {}",
                        ck.revision, options.revision
                    )));
                }
                let stray = ck
                    .entries
                    .range(..base)
                    .next()
                    .or_else(|| ck.entries.range(base + n as NodeId..).next());
                if let Some((&id, _)) = stray {
                    return Err(CheckpointError::Format(if base == 0 {
                        format!("node {id} out of range for n = {n}")
                    } else {
                        format!(
                            "node {id} out of range for shard {base}..{}",
                            base + n as NodeId
                        )
                    }));
                }
                // Entry lines carry no digest, so an edited entry is caught
                // here rather than as an out-of-range edge later.
                for (&id, e) in &ck.entries {
                    if e.candidates != candidates[(id - base) as usize] {
                        return Err(CheckpointError::Format(format!(
                            "node {id}: checkpointed candidates {:?} differ from this run's",
                            e.candidates
                        )));
                    }
                    if let Some(p) = e.parents.iter().find(|p| !e.candidates.contains(p)) {
                        return Err(CheckpointError::Format(format!(
                            "node {id}: checkpointed parent {p} is not among its candidates"
                        )));
                    }
                }
                restored = ck.entries;
            }
        }
        let resumed_nodes = restored.len();
        let fault = options.fault;
        let interval = options.checkpoint_interval.max(1);
        let checkpoint_path = options.checkpoint.as_deref();

        // Checkpointing starts with one atomic write of the header
        // (fingerprint, revision, sufficient statistics) plus any restored
        // entries. From then on the run only *appends* delta records. The
        // writer thread performs the initial save as its first action and
        // then owns every fsync, so the search pool never blocks on
        // checkpoint I/O — not even for the header write.
        let mut initial = checkpoint_path.map(|_| Checkpoint {
            fingerprint: fp,
            revision: options.revision,
            stats,
            entries: restored.clone(),
        });

        let costs: Vec<u64> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if restored.contains_key(&(base + i as NodeId)) {
                    1
                } else {
                    1 + (c.len() * c.len()) as u64
                }
            })
            .collect();

        // Completed-node records accumulate in a shared queue; the channel
        // is only a doorbell, rung once `interval` records are pending, so
        // writer wakeups track flush-sized batches instead of nodes — on a
        // single-core box every extra wakeup is a context switch stolen
        // from the search pool. `Sender` is `Send` but not `Sync` and the
        // pool closure must be `Sync`, so workers take a mutex around the
        // (cheap, non-blocking) ring; without a checkpoint the doorbell is
        // born disconnected and the queue stays empty.
        let (tx, rx) = mpsc::channel::<()>();
        let doorbell = checkpoint_path.map(|_| Mutex::new(tx));
        let queue: Mutex<Vec<(NodeId, CheckpointEntry)>> = Mutex::new(Vec::new());

        let (results, pool, writer_result) = std::thread::scope(|scope| {
            let writer = initial.take().map(|ck| {
                let path = checkpoint_path.expect("checkpoint path");
                let queue = &queue;
                let log = DeltaLog::new(path, fault, rec, parent_span);
                scope.spawn(move || delta_writer(rx, queue, ck, log, interval))
            });
            let (results, pool) = parallel::run_weighted_stats(
                &costs,
                4,
                self.config.threads,
                SearchScratch::new,
                |scratch, i| -> Result<(NodeSearchResult, WorkspaceStats), NodeError> {
                    let id = base + i as NodeId;
                    let cands = &candidates[i];
                    if let Some(entry) = restored.get(&id) {
                        return Ok((entry.clone().into_result(), entry.ws));
                    }
                    if let Some(flag) = options.cancel {
                        if flag.load(std::sync::atomic::Ordering::Relaxed) {
                            return Err(NodeError::Cancelled);
                        }
                    }
                    fault
                        .hit_indexed("node_search", u64::from(id))
                        .map_err(NodeError::Io)?;
                    // One span per freshly searched node, parented under the
                    // parent_search phase span. Ends when the guard drops —
                    // including on the error path, where it records without
                    // cache attributes.
                    let mut span = rec.span_with_parent("node_search", parent_span);
                    span.attr("node", u64::from(id));
                    span.attr("candidates", cands.len() as u64);
                    let before = scratch.ws.stats();
                    let res = find_parents_with(scratch, cols, id, cands, &self.config.search)
                        .map_err(NodeError::Search)?;
                    let after = scratch.ws.stats();
                    span.attr("score_cache_hits", res.cache_stats.hits);
                    span.attr("score_cache_misses", res.cache_stats.misses);
                    drop(span);
                    // The per-node workspace delta, not the pool total: it is
                    // what the checkpoint stores, so a resumed run can report
                    // the same summed counters as an uninterrupted one.
                    let ws = WorkspaceStats {
                        refinements: after.refinements - before.refinements,
                        rebases: after.rebases - before.rebases,
                    };
                    if let Some(bell) = &doorbell {
                        let entry = CheckpointEntry::from_result(&res, ws);
                        let backlog = {
                            let mut q = queue.lock().expect("delta queue lock");
                            q.push((id, entry));
                            q.len()
                        };
                        // Ring only at the durability floor; a busy writer
                        // coalesces repeat rings when it next drains.
                        if backlog >= interval {
                            let _ = bell.lock().expect("doorbell lock").send(());
                        }
                    }
                    Ok((res, ws))
                },
            );
            // Disconnect the doorbell so the writer drains the queue one
            // last time and exits, then collect its outcome before any
            // result leaves this function — the final compaction is
            // durable before edges are reported.
            drop(doorbell);
            let writer_result = writer.map(|h| h.join().expect("delta writer thread panicked"));
            (results, pool, writer_result)
        });
        let (flushes, delta_records) = match writer_result {
            Some(r) => r?,
            None => (0, 0),
        };

        let mut node_results = Vec::with_capacity(n);
        let mut failures: Vec<(NodeId, NodeError)> = Vec::new();
        let (mut refinements, mut rebases) = (0u64, 0u64);
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok((res, ws)) => {
                    refinements += ws.refinements;
                    rebases += ws.rebases;
                    node_results.push(res);
                }
                Err(e) => {
                    failures.push((base + i as NodeId, e));
                    // A failed node degrades to "no inferred parents"; the
                    // placeholder keeps node_results indexable by id.
                    node_results.push(NodeSearchResult {
                        parents: Vec::new(),
                        score: 0.0,
                        candidates: candidates[i].clone(),
                        stats: SearchStats::default(),
                        cache_stats: ScoreCacheStats::default(),
                    });
                }
            }
        }

        if rec.is_enabled() {
            rec.worker_chunks("parent_search", &pool.chunks_per_worker);
            let mut total = SearchStats::default();
            let mut cache = ScoreCacheStats::default();
            for r in &node_results {
                total.merge(&r.stats);
                cache.merge(&r.cache_stats);
            }
            rec.add("combinations_scored", total.evaluations as u64);
            rec.add("bound_rejections", total.bound_rejections as u64);
            rec.add("greedy_rounds", total.greedy_rounds as u64);
            rec.add("score_cache_hits", cache.hits);
            rec.add("score_cache_misses", cache.misses);
            rec.add("workspace_refinements", refinements);
            rec.add("workspace_rebases", rebases);
        }
        Ok(SearchOutcome {
            results: node_results,
            failures,
            resumed_nodes,
            flushes,
            delta_records,
        })
    }
}

/// Where the candidate step takes `τ` and the candidate lists from.
enum CandidateSource<'a> {
    /// Exact: the dense correlation matrix over the columns, capturing
    /// the pairwise sufficient statistics when the run checkpoints.
    Columns { capture_stats: bool },
    /// Exact: the matrix the checkpointed statistics determine once the
    /// appended columns are folded in.
    Appended {
        stats: PairStats,
        appended: &'a NodeColumns,
    },
    /// Sampled: `τ` from a systematic pair sample, candidates from the
    /// bounded streamed fold over the shard's nodes.
    Sampled { shard: Shard },
}

/// Output of the candidate step.
struct Candidates {
    /// The unscaled threshold fit.
    kmeans: PinnedKmeans,
    /// The applied threshold.
    tau: f64,
    /// The nodes the lists cover.
    shard: Shard,
    /// Per-node candidate lists, indexed by `node − shard.start`.
    lists: Vec<Vec<NodeId>>,
}

/// Outcome of the per-node search stage.
struct SearchOutcome {
    /// One entry per node (placeholders for failed nodes).
    results: Vec<NodeSearchResult>,
    /// Per-node failures, ascending node order.
    failures: Vec<(NodeId, NodeError)>,
    /// Nodes restored from the checkpoint being resumed.
    resumed_nodes: usize,
    /// Paced group-commit syncs of the delta log.
    flushes: u64,
    /// Delta records appended before the final compaction.
    delta_records: u64,
}

/// Records the process's current RSS as an `rss_sample` span under
/// `parent` (the streamed path's memory checkpoints).
fn rss_sample(rec: &Recorder, parent: Option<SpanId>) {
    let mut span = rec.span_with_parent("rss_sample", parent);
    if let Some(rss) = diffnet_observe::current_rss_bytes() {
        span.attr("rss_bytes", rss);
    }
}

/// The delta-writer loop: atomically writes the initial checkpoint (header
/// plus restored entries), then drains completed-node records from the
/// shared queue and appends them as single-line delta records.
/// Workers ring the doorbell only once `interval` records are queued, and
/// each wakeup swaps out the *whole* queue — including anything that piled
/// up while the previous fsync was in flight — so a single write+fsync
/// covers the batch and both wakeups and fsyncs track flush-sized batches
/// instead of node count. `interval` is the durability floor: a producer
/// slower than the disk may leave up to `interval - 1` records unflushed
/// until more arrive (or the pool finishes), exactly the granularity the
/// old fixed-batch writer guaranteed.
///
/// Durability is two-tier, database group-commit style. Every
/// `interval`-sized batch is *written* to the log immediately — after the
/// write a process crash loses nothing, the records are in the page
/// cache. `fsync` (power-loss durability) is paced: the first batch syncs
/// at once, then a sync runs only when [`SYNC_PACING`] × the previous
/// sync's own cost has elapsed since it finished, and always once more at
/// the end. On a fast disk that is a sync every few batches; on a slow
/// disk the sync tax stays a bounded fraction of wall-clock instead of
/// serializing the run behind the disk.
///
/// When the doorbell disconnects the remainder is written and synced. The
/// log is compacted — one atomic rewrite of header plus deduplicated
/// entries — only when a delta line superseded an entry already present;
/// a run whose deltas are all fresh nodes leaves header + unique delta
/// lines, which loads to the identical state, so the rewrite (and its
/// fsync) is skipped. A crash mid-run leaves header + delta lines, which
/// [`Checkpoint::load`] compacts on read.
///
/// Returns `(flushes, delta_records)`. The first failure is sticky: later
/// records are still drained (workers must never block on a dead writer)
/// but nothing more is written, and the error surfaces after the pool
/// finishes.
fn delta_writer(
    rx: mpsc::Receiver<()>,
    queue: &Mutex<Vec<(NodeId, CheckpointEntry)>>,
    mut ck: Checkpoint,
    mut log: DeltaLog<'_>,
    interval: usize,
) -> Result<(u64, u64), CheckpointError> {
    // The initial save runs here — on the writer thread, concurrently with
    // the first node searches — and must complete before any delta line is
    // appended; the single-threaded loop below guarantees that ordering. A
    // crash before it lands leaves no (or a stale) checkpoint, which the
    // next run detects by fingerprint and simply restarts.
    log.save(&ck);
    let mut superseded = false;
    let mut open = true;
    while open {
        // Block for one ring (or the disconnect), then swallow any backlog
        // of repeat rings — the queue swap below picks up every record
        // they announced, and the final swap after a disconnect catches a
        // sub-interval tail that never rang at all.
        if rx.recv().is_err() {
            open = false;
        }
        while rx.try_recv().is_ok() {}
        let batch = std::mem::take(&mut *queue.lock().expect("delta queue lock"));
        for (id, entry) in batch {
            if log.error.is_none() {
                log.pending.push(Checkpoint::entry_line(id, &entry));
            }
            superseded |= ck.entries.insert(id, entry).is_some();
        }
        if log.pending.len() >= interval {
            log.write_batch();
            // Group commit: the first sync runs immediately (zero recorded
            // cost), later ones only once their pacing budget has elapsed.
            if log.last_sync_end.elapsed() >= SYNC_PACING * log.sync_cost {
                log.sync();
            }
        }
    }
    log.write_batch();
    log.sync();
    if log.delta_records > 0 && superseded {
        log.save(&ck);
    }
    match log.error {
        Some(e) => Err(e),
        None => Ok((log.flushes, log.delta_records)),
    }
}

/// Group-commit pacing: a delta sync may run only once this multiple of
/// the previous sync's own duration has passed since it finished, keeping
/// the sync tax under ~1/[`SYNC_PACING`] of wall-clock on any disk.
const SYNC_PACING: u32 = 10;

/// The delta log's file and group-commit state. Once `error` is set every
/// method is a no-op: the first failure is sticky.
struct DeltaLog<'a> {
    path: &'a Path,
    fault: &'a FaultPlan,
    /// Where the `checkpoint_write` spans of full saves are recorded.
    rec: &'a Recorder,
    span: Option<SpanId>,
    file: Option<std::fs::File>,
    /// Delta lines not yet written.
    pending: Vec<String>,
    flushes: u64,
    delta_records: u64,
    /// Lines were written since the last sync.
    unsynced: bool,
    sync_cost: Duration,
    last_sync_end: Instant,
    error: Option<CheckpointError>,
}

impl<'a> DeltaLog<'a> {
    fn new(
        path: &'a Path,
        fault: &'a FaultPlan,
        rec: &'a Recorder,
        span: Option<SpanId>,
    ) -> DeltaLog<'a> {
        DeltaLog {
            path,
            fault,
            rec,
            span,
            file: None,
            pending: Vec::new(),
            flushes: 0,
            delta_records: 0,
            unsynced: false,
            sync_cost: Duration::ZERO,
            last_sync_end: Instant::now(),
            error: None,
        }
    }

    /// Atomically rewrites the whole log as `ck`, under a
    /// `checkpoint_write` span that records the bytes written.
    fn save(&mut self, ck: &Checkpoint) {
        if self.error.is_some() {
            return;
        }
        let mut span = self.rec.span_with_parent("checkpoint_write", self.span);
        match ck.save(self.path) {
            Ok(bytes) => span.attr("bytes", bytes as u64),
            Err(e) => self.error = Some(e),
        }
    }

    /// Appends the pending lines to the log (no sync — the bytes are
    /// process-crash durable in the page cache once written).
    fn write_batch(&mut self) {
        if self.error.is_some() || self.pending.is_empty() {
            return;
        }
        let io = (|| -> std::io::Result<()> {
            if self.file.is_none() {
                self.file = Some(std::fs::OpenOptions::new().append(true).open(self.path)?);
            }
            let f = self.file.as_mut().expect("delta log handle");
            let mut buf = String::with_capacity(self.pending.iter().map(|l| l.len() + 1).sum());
            for line in &self.pending {
                buf.push_str(line);
                buf.push('\n');
            }
            f.write_all(buf.as_bytes())
        })();
        match io {
            Ok(()) => {
                self.delta_records += self.pending.len() as u64;
                self.unsynced = true;
                self.pending.clear();
            }
            Err(e) => self.error = Some(CheckpointError::Io(e)),
        }
    }

    /// Syncs everything written since the last sync and records its cost
    /// for the pacing decision.
    fn sync(&mut self) {
        let Some(f) = self.file.as_mut() else { return };
        if self.error.is_some() || !self.unsynced {
            return;
        }
        let started = Instant::now();
        match f.sync_data() {
            Ok(()) => {
                self.sync_cost = started.elapsed();
                self.last_sync_end = Instant::now();
                self.flushes += 1;
                self.unsynced = false;
                // The fault site sits *after* the group is durable: a kill
                // rule here models a crash between delta syncs, leaving a
                // loadable header + delta log on disk; an io rule exercises
                // the fatal flush-failure path.
                if let Err(e) = self.fault.hit("checkpoint_flush") {
                    self.error = Some(CheckpointError::Io(e));
                }
            }
            Err(e) => self.error = Some(CheckpointError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::{replace_once, v3_bytes};
    use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn observe(truth: &DiGraph, p: f64, alpha: f64, beta: usize, seed: u64) -> StatusMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let probs = EdgeProbs::constant(truth, p);
        IndependentCascade::new(truth, &probs)
            .observe(
                IcConfig {
                    initial_ratio: alpha,
                    num_processes: beta,
                },
                &mut rng,
            )
            .statuses
    }

    fn cols(m: &StatusMatrix) -> NodeColumns {
        m.columns()
    }

    fn f_score(truth: &DiGraph, inferred: &DiGraph) -> f64 {
        let tp = inferred
            .edges()
            .filter(|&(u, v)| truth.has_edge(u, v))
            .count();
        let fp = inferred.edge_count() - tp;
        let fn_ = truth.edge_count() - tp;
        if 2 * tp + fp + fn_ == 0 {
            return 0.0;
        }
        2.0 * tp as f64 / (2 * tp + fp + fn_) as f64
    }

    #[test]
    fn chain_topology_recall_is_high() {
        // Final statuses cannot identify edge *direction* within a pair
        // (the likelihood gain of j as parent of i equals that of i as
        // parent of j), so on a one-directional chain TENDS recovers the
        // influence pairs in both directions: recall ≈ 1, precision ≈ ½.
        let truth =
            DiGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let statuses = observe(&truth, 0.6, 0.2, 600, 101);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        let tp = result
            .graph
            .edges()
            .filter(|&(u, v)| truth.has_edge(u, v))
            .count();
        let recall = tp as f64 / truth.edge_count() as f64;
        assert!(recall > 0.85, "recall {recall} too low");
        let f = f_score(&truth, &result.graph);
        assert!(f > 0.55, "F-score {f} too low; inferred {:?}", result.graph);
    }

    #[test]
    fn recovers_reciprocal_chain_exactly() {
        // With mutual influence edges the direction ambiguity vanishes and
        // reconstruction should be near-perfect.
        let mut edges = Vec::new();
        for i in 0..7u32 {
            edges.push((i, i + 1));
            edges.push((i + 1, i));
        }
        let truth = DiGraph::from_edges(8, &edges);
        let statuses = observe(&truth, 0.6, 0.2, 600, 108);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        let f = f_score(&truth, &result.graph);
        assert!(
            f > 0.85,
            "F-score {f}; inferred {:?}",
            result.graph.edge_vec()
        );
    }

    #[test]
    fn recovers_star_topology() {
        // Hub 0 influences 6 leaves.
        let edges: Vec<(NodeId, NodeId)> = (1..7).map(|i| (0, i)).collect();
        let truth = DiGraph::from_edges(7, &edges);
        let statuses = observe(&truth, 0.5, 0.15, 600, 102);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        let f = f_score(&truth, &result.graph);
        assert!(f > 0.6, "F-score {f} too low");
    }

    #[test]
    fn empty_network_stays_mostly_empty() {
        // No edges: all statuses are independent seed draws, so the
        // inferred topology must be (nearly) empty.
        let truth = DiGraph::empty(12);
        let statuses = observe(&truth, 0.5, 0.2, 400, 103);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        assert!(
            result.graph.edge_count() <= 2,
            "spurious edges: {:?}",
            result.graph.edge_vec()
        );
    }

    #[test]
    fn fixed_threshold_is_respected() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 104);
        let cfg = TendsConfig {
            threshold: ThresholdMode::Fixed(10.0), // absurdly high: prunes everything
            ..Default::default()
        };
        let result = Tends::with_config(cfg)
            .reconstruct(&statuses)
            .expect("search fits");
        assert_eq!(result.tau, 10.0);
        assert_eq!(result.graph.edge_count(), 0);
    }

    #[test]
    fn scaled_threshold_scales_auto_tau() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 105);
        let auto = Tends::new().reconstruct(&statuses).expect("search fits");
        let scaled = Tends::with_config(TendsConfig {
            threshold: ThresholdMode::ScaledAuto(2.0),
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits");
        assert!((scaled.tau - 2.0 * auto.tau).abs() < 1e-12);
        assert!((scaled.kmeans.tau - auto.kmeans.tau).abs() < 1e-12);
    }

    #[test]
    fn global_score_is_sum_of_local_scores() {
        let truth = DiGraph::from_edges(6, &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)]);
        let statuses = observe(&truth, 0.4, 0.2, 300, 106);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        let sum: f64 = result.node_results.iter().map(|r| r.score).sum();
        assert!((result.global_score - sum).abs() < 1e-9);
    }

    #[test]
    fn parallel_search_matches_sequential() {
        let truth = DiGraph::from_edges(30, &{
            let mut e = Vec::new();
            for i in 0..29u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let statuses = observe(&truth, 0.4, 0.15, 200, 109);
        let seq = Tends::new().reconstruct(&statuses).expect("search fits");
        let par = Tends::with_config(TendsConfig {
            threads: 4,
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits");
        let par_all = Tends::with_config(TendsConfig {
            threads: 0,
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits");
        assert_eq!(seq.graph, par.graph);
        assert_eq!(seq.graph, par_all.graph);
        assert_eq!(seq.global_score, par.global_score);
    }

    #[test]
    fn symmetrize_policy_makes_graph_reciprocal() {
        let truth = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let statuses = observe(&truth, 0.5, 0.2, 300, 110);
        let cfg = TendsConfig {
            direction: DirectionPolicy::Symmetrize,
            ..Default::default()
        };
        let g = Tends::with_config(cfg)
            .reconstruct(&statuses)
            .expect("search fits")
            .graph;
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u), "({u},{v}) not reciprocal");
        }
    }

    #[test]
    fn mutual_only_is_a_subset_of_as_is() {
        let truth =
            DiGraph::from_edges(8, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (4, 5), (6, 7)]);
        let statuses = observe(&truth, 0.5, 0.2, 300, 111);
        let as_is = Tends::new()
            .reconstruct(&statuses)
            .expect("search fits")
            .graph;
        let mutual = Tends::with_config(TendsConfig {
            direction: DirectionPolicy::MutualOnly,
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits")
        .graph;
        assert!(mutual.edge_count() <= as_is.edge_count());
        for (u, v) in mutual.edges() {
            assert!(as_is.has_edge(u, v));
            assert!(
                mutual.has_edge(v, u),
                "MutualOnly output must be reciprocal"
            );
        }
    }

    #[test]
    fn observed_reconstruction_matches_plain_and_populates_recorder() {
        let truth = DiGraph::from_edges(6, &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]);
        let statuses = observe(&truth, 0.5, 0.2, 300, 112);
        let plain = Tends::new().reconstruct(&statuses).expect("search fits");
        let rec = Recorder::new();
        let observed = Tends::new()
            .reconstruct_robust(&cols(&statuses), &rec, &RobustOptions::default())
            .expect("search fits")
            .result;
        assert_eq!(plain.graph, observed.graph);
        assert_eq!(
            plain.global_score.to_bits(),
            observed.global_score.to_bits()
        );

        let snap = rec.snapshot();
        let names: Vec<_> = snap.phases.iter().map(|(n, _)| *n).collect();
        for phase in [
            "correlation_matrix",
            "threshold",
            "candidate_pruning",
            "parent_search",
            "direction",
        ] {
            assert!(names.contains(&phase), "missing phase {phase}: {names:?}");
        }
        assert!(snap.counters["combinations_scored"] > 0);
        assert_eq!(
            snap.counters["combinations_scored"],
            observed.total_evaluations() as u64
        );
        assert_eq!(snap.values["tau"], observed.tau);
        let hist = &snap.histograms["candidate_set_size"];
        assert_eq!(hist.iter().sum::<u64>(), 6, "one histogram entry per node");
        assert!(snap.worker_chunks.contains_key("parent_search"));
        assert!(snap.counters["workspace_refinements"] > 0);
        assert!(snap.counters["workspace_rebases"] > 0);
        assert!(
            snap.counters["score_cache_hits"] > 0,
            "greedy rounds must reuse scores memoized during enumeration"
        );
        assert_eq!(
            snap.counters["score_cache_hits"] + snap.counters["score_cache_misses"],
            snap.counters["combinations_scored"],
            "every evaluation is exactly one cache hit or miss"
        );
        assert!(
            snap.counters["workspace_refinements"] < snap.counters["combinations_scored"],
            "cache hits must skip workspace refinements ({} vs {})",
            snap.counters["workspace_refinements"],
            snap.counters["combinations_scored"]
        );

        // Span tree: one root span per phase, and one node_search span per
        // node parented under the parent_search phase span.
        let parent = snap
            .spans
            .iter()
            .find(|s| s.name == "parent_search" && s.parent.is_none())
            .expect("parent_search root span");
        let node_spans: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "node_search")
            .collect();
        assert_eq!(node_spans.len(), 6, "one span per freshly searched node");
        let mut seen_nodes: Vec<u64> = Vec::new();
        for span in &node_spans {
            assert_eq!(span.parent, Some(parent.id));
            assert!(span.end_s >= span.start_s);
            let attr = |key: &str| span.attrs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
            seen_nodes.push(attr("node").expect("node attr"));
            assert!(attr("candidates").is_some());
            let hits = attr("score_cache_hits").expect("cache hit attr");
            let misses = attr("score_cache_misses").expect("cache miss attr");
            assert!(hits + misses > 0, "searched nodes evaluate something");
        }
        seen_nodes.sort_unstable();
        assert_eq!(seen_nodes, vec![0, 1, 2, 3, 4, 5]);
    }

    fn temp_checkpoint(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("diffnet_algo_ck_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        // β = 250 is not a multiple of 64, so partial-word column handling
        // is in play too.
        let truth = DiGraph::from_edges(10, &{
            let mut e = Vec::new();
            for i in 0..9u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let statuses = observe(&truth, 0.5, 0.2, 250, 77);

        for threads in [1usize, 4] {
            let tends = Tends::with_config(TendsConfig {
                threads,
                ..Default::default()
            });
            let rec = Recorder::new();
            let full = tends
                .reconstruct_robust(&cols(&statuses), &rec, &RobustOptions::default())
                .expect("search fits")
                .result;
            let full_report = diffnet_observe::RunReport::new("tends", rec.snapshot(), threads);

            // Produce a complete checkpoint, then cut it down to the first
            // k entries — exactly what a crash after k nodes leaves behind.
            let path = temp_checkpoint(&format!("resume_{threads}.json"));
            std::fs::remove_file(&path).ok();
            let opts = RobustOptions {
                checkpoint: Some(path.clone()),
                checkpoint_interval: 3,
                ..Default::default()
            };
            let rec2 = Recorder::new();
            tends
                .reconstruct_robust(&cols(&statuses), &rec2, &opts)
                .expect("checkpointed run");
            let mut ck = Checkpoint::load(&path).expect("load checkpoint");
            assert_eq!(ck.entries.len(), 10, "final flush persists all nodes");
            for k in [1usize, 4, 9] {
                let mut cut = ck.clone();
                cut.entries = ck
                    .entries
                    .iter()
                    .take(k)
                    .map(|(&i, e)| (i, e.clone()))
                    .collect();
                cut.save(&path).expect("save partial");

                let rec3 = Recorder::new();
                let resumed = tends
                    .reconstruct_robust(
                        &cols(&statuses),
                        &rec3,
                        &RobustOptions {
                            checkpoint: Some(path.clone()),
                            resume: true,
                            checkpoint_interval: 3,
                            ..Default::default()
                        },
                    )
                    .expect("resumed run");
                assert!(resumed.is_complete());
                assert_eq!(resumed.resumed_nodes, k);
                assert_eq!(
                    resumed.result.graph, full.graph,
                    "graph (k={k}, t={threads})"
                );
                assert_eq!(
                    resumed.result.global_score.to_bits(),
                    full.global_score.to_bits(),
                    "score bits (k={k}, t={threads})"
                );
                let resumed_report =
                    diffnet_observe::RunReport::new("tends", rec3.snapshot(), threads);
                assert_eq!(
                    resumed_report.deterministic_json(),
                    full_report.deterministic_json(),
                    "deterministic report sections (k={k}, t={threads})"
                );
            }
            ck.entries.clear();
            std::fs::remove_file(&path).ok();
        }
    }

    /// Splits a matrix into its first `at` and remaining processes.
    fn split_statuses(m: &StatusMatrix, at: usize) -> (StatusMatrix, StatusMatrix) {
        let n = m.num_nodes();
        let take = |range: std::ops::Range<usize>| -> StatusMatrix {
            let mut out = StatusMatrix::new(range.len(), n);
            for (l_out, l) in range.enumerate() {
                for i in 0..n {
                    if m.get(l, i as NodeId) {
                        out.set(l_out, i as NodeId);
                    }
                }
            }
            out
        };
        (take(0..at), take(at..m.num_processes()))
    }

    #[test]
    fn incremental_append_is_byte_identical_to_fresh_combined_run() {
        // β = 260 (base 220 + appended 40) is not a multiple of 64, so
        // partial-word handling is in play on both sides of the split.
        let truth = DiGraph::from_edges(10, &{
            let mut e = Vec::new();
            for i in 0..9u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let combined = observe(&truth, 0.5, 0.2, 260, 79);
        let (base, appended) = split_statuses(&combined, 220);

        for threads in [1usize, 4] {
            let tends = Tends::with_config(TendsConfig {
                threads,
                ..Default::default()
            });
            let fresh_path = temp_checkpoint(&format!("append_fresh_{threads}.json"));
            std::fs::remove_file(&fresh_path).ok();
            let fresh_rec = Recorder::new();
            let fresh_opts = RobustOptions {
                checkpoint: Some(fresh_path.clone()),
                ..Default::default()
            };
            let fresh = tends
                .reconstruct_robust(&cols(&combined), &fresh_rec, &fresh_opts)
                .expect("search fits")
                .result;
            std::fs::remove_file(&fresh_path).ok();

            let path = temp_checkpoint(&format!("append_{threads}.json"));
            std::fs::remove_file(&path).ok();
            let base_opts = RobustOptions {
                checkpoint: Some(path.clone()),
                ..Default::default()
            };
            tends
                .reconstruct_robust(&cols(&base), Recorder::disabled(), &base_opts)
                .expect("base run");

            let rec = Recorder::new();
            let warm = tends
                .reconstruct_robust(
                    &cols(&combined),
                    &rec,
                    &RobustOptions {
                        checkpoint: Some(path.clone()),
                        revision: 1,
                        appended: Some(&cols(&appended)),
                        ..Default::default()
                    },
                )
                .expect("incremental append");
            assert!(warm.is_complete());
            assert_eq!(warm.result.graph, fresh.graph, "graph (t={threads})");
            assert_eq!(
                warm.result.global_score.to_bits(),
                fresh.global_score.to_bits(),
                "score bits (t={threads})"
            );
            for (i, (w, f)) in warm
                .result
                .node_results
                .iter()
                .zip(fresh.node_results.iter())
                .enumerate()
            {
                assert_eq!(w.parents, f.parents, "parents of node {i}");
                assert_eq!(w.score.to_bits(), f.score.to_bits(), "score of node {i}");
                assert_eq!(w.candidates, f.candidates, "candidates of node {i}");
                // Every node is searched over the combined columns, so even
                // the effort counters match the fresh combined search.
                assert_eq!(w.stats, f.stats, "search stats of node {i}");
                assert_eq!(w.cache_stats, f.cache_stats, "cache stats of node {i}");
            }
            assert_eq!(warm.resumed_nodes, 0, "an append restores no node");

            let (snap, fresh_snap) = (rec.snapshot(), fresh_rec.snapshot());
            for counter in [
                "combinations_scored",
                "bound_rejections",
                "greedy_rounds",
                "score_cache_hits",
                "score_cache_misses",
                "workspace_refinements",
                "workspace_rebases",
                "pairs_above_tau",
            ] {
                assert_eq!(
                    snap.counters[counter], fresh_snap.counters[counter],
                    "{counter} (t={threads})"
                );
            }
            assert_eq!(snap.counters["append_processes"], 40);

            // The checkpoint advanced to the post-append revision with the
            // combined statistics, ready for the next append.
            let ck = Checkpoint::load(&path).expect("post-append checkpoint");
            assert_eq!(ck.revision, 1);
            let stats = ck.stats.expect("stats persisted");
            assert_eq!(stats.num_processes(), 260);
            assert_eq!(ck.entries.len(), 10);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn chained_appends_stay_byte_identical() {
        // Two appends in sequence: revision 0 → 1 → 2, each warm-started
        // from the previous append's checkpoint.
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2), (5, 6), (6, 5)]);
        let combined = observe(&truth, 0.5, 0.2, 200, 91);
        let (base01, app2) = split_statuses(&combined, 170);
        let (base0, app1) = split_statuses(&base01, 140);

        let tends = Tends::new();
        let path = temp_checkpoint("append_chain.json");
        std::fs::remove_file(&path).ok();
        tends
            .reconstruct_robust(
                &cols(&base0),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    ..Default::default()
                },
            )
            .expect("base run");
        for (revision, combined_so_far, appended) in [(1, &base01, &app1), (2, &combined, &app2)] {
            let warm = tends
                .reconstruct_robust(
                    &cols(combined_so_far),
                    Recorder::disabled(),
                    &RobustOptions {
                        checkpoint: Some(path.clone()),
                        revision,
                        appended: Some(&cols(appended)),
                        ..Default::default()
                    },
                )
                .expect("incremental append");
            let fresh = tends
                .reconstruct_robust(
                    &cols(combined_so_far),
                    Recorder::disabled(),
                    &RobustOptions::default(),
                )
                .expect("fresh combined run")
                .result;
            assert_eq!(
                warm.result.graph, fresh.graph,
                "graph at revision {revision}"
            );
            assert_eq!(
                warm.result.global_score.to_bits(),
                fresh.global_score.to_bits(),
                "score bits at revision {revision}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interrupted_append_resumes_to_the_fresh_combined_result() {
        use std::sync::atomic::AtomicBool;
        let truth = DiGraph::from_edges(10, &{
            let mut e = Vec::new();
            for i in 0..9u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let combined = observe(&truth, 0.5, 0.2, 260, 79);
        let (base, appended) = split_statuses(&combined, 220);
        let (combined_cols, appended_cols) = (combined.columns(), appended.columns());

        for threads in [1usize, 4] {
            let tends = Tends::with_config(TendsConfig {
                threads,
                ..Default::default()
            });
            let path = temp_checkpoint(&format!("append_interrupted_{threads}.json"));
            let checkpointed = |statuses: &StatusMatrix| {
                std::fs::remove_file(&path).ok();
                let opts = RobustOptions {
                    checkpoint: Some(path.clone()),
                    ..Default::default()
                };
                tends
                    .reconstruct_robust(&cols(statuses), Recorder::disabled(), &opts)
                    .expect("checkpointed run")
            };
            let fresh = checkpointed(&combined).result;
            checkpointed(&base);
            let base_ck = std::fs::read(&path).expect("base checkpoint");

            // An append searches every node, so any node can be faulted.
            let faulted = 3u32;
            let cancel = AtomicBool::new(true);
            let node_fault = FaultPlan::new().io_error_at("node_search", u64::from(faulted), 1);
            let flush_fault = FaultPlan::new().io_error("checkpoint_flush", 1);
            let interruptions = [
                ("cancel", FaultPlan::none(), Some(&cancel)),
                ("node_search", &node_fault, None),
                ("checkpoint_flush", &flush_fault, None),
            ];
            for (what, fault, cancel) in interruptions {
                std::fs::write(&path, &base_ck).expect("restore base checkpoint");
                let interrupted = tends.reconstruct_robust(
                    &combined_cols,
                    Recorder::disabled(),
                    &RobustOptions {
                        checkpoint: Some(path.clone()),
                        revision: 1,
                        fault,
                        cancel,
                        appended: Some(&appended_cols),
                        ..Default::default()
                    },
                );
                match interrupted {
                    Ok(partial) if what != "checkpoint_flush" => assert!(
                        partial.failed_nodes.contains(&faulted),
                        "{what} (t={threads}): node {faulted} must fail"
                    ),
                    Err(CheckpointError::Io(_)) if what == "checkpoint_flush" => {}
                    other => panic!("{what} (t={threads}): unexpected {other:?}"),
                }
                let left = Checkpoint::load(&path).expect("interrupted append's checkpoint");
                assert_eq!(
                    left.revision, 1,
                    "{what} (t={threads}): new revision header"
                );

                let retried = tends
                    .reconstruct_robust(
                        &combined_cols,
                        Recorder::disabled(),
                        &RobustOptions {
                            checkpoint: Some(path.clone()),
                            revision: 1,
                            appended: Some(&appended_cols),
                            ..Default::default()
                        },
                    )
                    .expect("retried append");
                assert!(retried.is_complete(), "{what} (t={threads})");
                assert_eq!(retried.result.graph, fresh.graph, "{what} (t={threads})");
                assert_eq!(
                    retried.result.tau.to_bits(),
                    fresh.tau.to_bits(),
                    "{what} τ bits (t={threads})"
                );
                assert_eq!(
                    retried.result.global_score.to_bits(),
                    fresh.global_score.to_bits(),
                    "{what} score bits (t={threads})"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn streamed_configs_refuse_appends_with_a_typed_error() {
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let combined = observe(&truth, 0.5, 0.2, 180, 89);
        let (_, appended) = split_statuses(&combined, 150);
        let streamed = [
            TendsConfig {
                memory_budget: Some(64 << 20),
                ..Default::default()
            },
            TendsConfig {
                shard: Some(Shard { start: 0, end: 4 }),
                ..Default::default()
            },
        ];
        for cfg in streamed {
            let err = Tends::with_config(cfg)
                .reconstruct_robust(
                    &cols(&combined),
                    Recorder::disabled(),
                    &RobustOptions {
                        checkpoint: Some(temp_checkpoint("streamed_append.json")),
                        revision: 1,
                        appended: Some(&cols(&appended)),
                        ..Default::default()
                    },
                )
                .expect_err("streamed configs cannot append");
            assert!(
                matches!(&err, CheckpointError::Format(m) if m.contains("memory_budget and shard")),
                "expected a Format error naming the cause, got {err:?}"
            );
        }
    }

    #[test]
    fn stale_pre_append_checkpoint_is_a_typed_mismatch_on_resume() {
        // Serve bumps the revision when it applies an append; a resume of
        // the combined run must then refuse the stale revision-0 file.
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let combined = observe(&truth, 0.5, 0.2, 180, 83);
        let (base, _appended) = split_statuses(&combined, 150);

        let tends = Tends::new();
        let path = temp_checkpoint("stale_revision.json");
        std::fs::remove_file(&path).ok();
        tends
            .reconstruct_robust(
                &cols(&base),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    ..Default::default()
                },
            )
            .expect("base run");

        let err = tends
            .reconstruct_robust(
                &cols(&combined),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    revision: 1,
                    ..Default::default()
                },
            )
            .expect_err("stale checkpoint must not resume");
        assert!(
            matches!(err, CheckpointError::Mismatch { .. }),
            "expected Mismatch, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hand_edited_checkpoint_is_rejected_by_the_append_path() {
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let combined = observe(&truth, 0.5, 0.2, 180, 87);
        let (base, appended) = split_statuses(&combined, 150);

        let tends = Tends::new();
        let path = temp_checkpoint("hand_edited.json");
        std::fs::remove_file(&path).ok();
        tends
            .reconstruct_robust(
                &cols(&base),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    ..Default::default()
                },
            )
            .expect("base run");
        let pristine = std::fs::read(&path).expect("read checkpoint");
        let (combined_cols, appended_cols) = (combined.columns(), appended.columns());

        let append_opts = |revision| RobustOptions {
            checkpoint: Some(path.clone()),
            revision,
            appended: Some(&appended_cols),
            ..Default::default()
        };
        let append_err = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).expect("write tampered");
            tends
                .reconstruct_robust(&combined_cols, Recorder::disabled(), &append_opts(1))
                .expect_err(what)
        };

        // A wrong revision (double-applied batch, skipped batch) cannot
        // warm-start.
        let tampered = replace_once(&pristine, "\"revision\":0", "\"revision\":5");
        let err = append_err(&tampered, "wrong revision must be rejected");
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("revision")),
            "expected a revision Format error, got {err:?}"
        );

        // The statistics section starts after the header line; β = 150
        // stores every count in one byte.
        let ck = Checkpoint::from_bytes(&pristine, false).expect("parse pristine");
        let stats = ck.stats.as_ref().expect("stats present");
        let section_at = ck.header().0.len() + 1;
        let ones = stats.ones().to_vec();
        assert_eq!(stats.num_processes(), 150);

        // Statistics edited into *impossible* counts (ones[0] = β with
        // unchanged pair counts) fail the consistency validation on load —
        // a typed error, not an underflow panic in the MI derivation.
        let mut tampered = pristine.clone();
        tampered[section_at] = 150;
        assert_ne!(tampered, pristine, "edit must hit the statistics");
        let err = append_err(&tampered, "impossible statistics must be rejected");
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("inconsistent")),
            "expected a Format error about inconsistency, got {err:?}"
        );

        // Statistics edited into *plausible but different* counts no
        // longer match the content digest the base run recorded: typed
        // mismatch, not silently spliced wrong parents. Pair (0,1)'s n11
        // is pushed to its maximum consistent value.
        let mut tampered = pristine.clone();
        tampered[section_at + ones.len()] = ones[0].min(ones[1]) as u8;
        assert_ne!(tampered, pristine, "edit must hit the statistics");
        let err = append_err(&tampered, "tampered statistics must be rejected");
        assert!(
            matches!(err, CheckpointError::Mismatch { .. }),
            "expected Mismatch, got {err:?}"
        );

        // A checkpoint without statistics (streamed producer) cannot
        // warm-start an append either.
        let mut stripped = ck.clone();
        stripped.stats = None;
        stripped.save(&path).expect("save stripped");
        let err = tends
            .reconstruct_robust(&combined_cols, Recorder::disabled(), &append_opts(1))
            .expect_err("stats-free checkpoint must be rejected");
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("sufficient statistics")),
            "expected a Format error about statistics, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_node_failures_degrade_instead_of_aborting() {
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2), (5, 6), (6, 5)]);
        let statuses = observe(&truth, 0.5, 0.2, 300, 113);
        let clean = Tends::new().reconstruct(&statuses).expect("search fits");

        let fault = FaultPlan::new()
            .io_error_at("node_search", 2, 1)
            .io_error_at("node_search", 5, 1);
        let partial = Tends::new()
            .reconstruct_robust(
                &cols(&statuses),
                Recorder::disabled(),
                &RobustOptions {
                    fault: &fault,
                    ..Default::default()
                },
            )
            .expect("degrades, does not abort");
        assert_eq!(
            partial.failed_nodes,
            vec![2, 5],
            "exactly the faulted nodes"
        );
        assert_eq!(partial.errors.len(), 2);
        assert!(matches!(partial.errors[0].1, NodeError::Io(_)));
        assert!(!partial.is_complete());
        // Surviving nodes are untouched by their neighbours' failures.
        for (i, res) in partial.result.node_results.iter().enumerate() {
            if i == 2 || i == 5 {
                assert!(res.parents.is_empty());
                assert_eq!(res.score, 0.0);
            } else {
                assert_eq!(res.parents, clean.node_results[i].parents, "node {i}");
            }
        }
    }

    #[test]
    fn cancelled_run_resumes_to_identical_result() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 0), (2, 3), (3, 2), (5, 6), (6, 5)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 118);
        let clean = Tends::new().reconstruct(&statuses).expect("search fits");

        let path = temp_checkpoint("cancel.json");
        std::fs::remove_file(&path).ok();
        let cancel = AtomicBool::new(true);
        let cancelled = Tends::new()
            .reconstruct_robust(
                &cols(&statuses),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    cancel: Some(&cancel),
                    ..Default::default()
                },
            )
            .expect("cancellation degrades, does not abort");
        assert!(!cancelled.is_complete());
        assert_eq!(cancelled.failed_nodes.len(), 8, "every node cancelled");
        assert!(matches!(cancelled.errors[0].1, NodeError::Cancelled));

        // Clearing the flag and resuming completes the job with the same
        // result as an uninterrupted run.
        cancel.store(false, Ordering::Relaxed);
        let resumed = Tends::new()
            .reconstruct_robust(
                &cols(&statuses),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    cancel: Some(&cancel),
                    ..Default::default()
                },
            )
            .expect("resumed run");
        assert!(resumed.is_complete());
        assert_eq!(resumed.result.graph, clean.graph);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_checkpoint_is_a_typed_error() {
        let truth = DiGraph::from_edges(6, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 114);
        let path = temp_checkpoint("mismatch.json");
        std::fs::remove_file(&path).ok();
        let opts = RobustOptions {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        Tends::new()
            .reconstruct_robust(&cols(&statuses), Recorder::disabled(), &opts)
            .expect("first run");

        // Same file, different threshold → different τ → different searches.
        let other = Tends::with_config(TendsConfig {
            threshold: ThresholdMode::Fixed(0.123),
            ..Default::default()
        });
        let err = other
            .reconstruct_robust(
                &cols(&statuses),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..Default::default()
                },
            )
            .expect_err("fingerprint mismatch");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 0)]);
        let statuses = observe(&truth, 0.5, 0.2, 150, 115);
        let path = temp_checkpoint("corrupt.json");
        std::fs::write(&path, "{\"format\": \"diffnet-checkpoint\", \"ver").expect("write");
        let err = Tends::new()
            .reconstruct_robust(
                &cols(&statuses),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..Default::default()
                },
            )
            .expect_err("corrupt file");
        assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
        assert!(err.to_string().contains("byte"), "offset in {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edited_checkpoint_entries_are_typed_errors_on_resume() {
        // Entry lines carry no digest: a hand-edited entry must surface as
        // a typed error naming the node, not as a panic in graph assembly.
        let truth = DiGraph::from_edges(10, &[(0, 1), (1, 0), (2, 3), (3, 2), (5, 6), (6, 5)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 119);
        let path = temp_checkpoint("edited_entry.json");
        std::fs::remove_file(&path).ok();
        let opts = RobustOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..Default::default()
        };
        Tends::new()
            .reconstruct_robust(&cols(&statuses), Recorder::disabled(), &opts)
            .expect("base run");
        let pristine = Checkpoint::load(&path).expect("base checkpoint");
        let cands = pristine.entries[&0].candidates.clone();
        let outsider = (1..10u32)
            .find(|j| !cands.contains(j))
            .expect("at most 8 of 9 nodes are candidates");
        for what in [
            "parent out of range",
            "parent not a candidate",
            "edited candidates",
        ] {
            let mut ck = pristine.clone();
            let entry = ck.entries.get_mut(&0).expect("node 0 checkpointed");
            match what {
                "parent out of range" => entry.parents = vec![5000],
                "parent not a candidate" => entry.parents = vec![outsider],
                _ => entry.candidates.push(outsider),
            }
            ck.save(&path).expect("save edited");
            let err = Tends::new()
                .reconstruct_robust(&cols(&statuses), Recorder::disabled(), &opts)
                .expect_err(what);
            assert!(
                matches!(&err, CheckpointError::Format(m) if m.starts_with("node 0:")),
                "{what}: expected a Format error naming node 0, got {err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoints_with_legacy_joint_tables_resume_and_append() {
        // Older builds stored a joint contingency table in every entry
        // line, between the candidates and the counters. Such files must
        // keep resuming and warm-starting appends.
        let truth = DiGraph::from_edges(10, &{
            let mut e = Vec::new();
            for i in 0..9u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let combined = observe(&truth, 0.5, 0.2, 260, 79);
        let (base, appended) = split_statuses(&combined, 220);
        let tends = Tends::new();
        let path = temp_checkpoint("legacy_tables.json");
        std::fs::remove_file(&path).ok();
        let base_run = tends
            .reconstruct_robust(
                &cols(&base),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    ..Default::default()
                },
            )
            .expect("base run")
            .result;
        let mut legacy = std::fs::read(&path).expect("base checkpoint");
        for _ in 0..10 {
            legacy = replace_once(
                &legacy,
                "],\"evaluations\"",
                "],\"table\":\"7 1 0 3\",\"evaluations\"",
            );
        }
        assert_eq!(legacy.windows(7).filter(|w| w == b"\"table\"").count(), 10);
        std::fs::write(&path, &legacy).expect("write legacy checkpoint");
        assert_eq!(Checkpoint::load(&path).expect("loads").entries.len(), 10);

        let resumed = tends
            .reconstruct_robust(
                &cols(&base),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..Default::default()
                },
            )
            .expect("resume from legacy checkpoint");
        assert_eq!(resumed.resumed_nodes, 10, "every node restored");
        assert_eq!(resumed.result.graph, base_run.graph);

        std::fs::write(&path, &legacy).expect("write legacy checkpoint");
        let warm = tends
            .reconstruct_robust(
                &cols(&combined),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    revision: 1,
                    appended: Some(&cols(&appended)),
                    ..Default::default()
                },
            )
            .expect("append from legacy checkpoint");
        let fresh = tends.reconstruct(&combined).expect("fresh combined run");
        assert_eq!(warm.result.graph, fresh.graph);
        assert_eq!(warm.result.tau.to_bits(), fresh.tau.to_bits());
        assert_eq!(
            warm.result.global_score.to_bits(),
            fresh.global_score.to_bits()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_3_checkpoints_resume_and_warm_append() {
        // Data directories written before version 4 hold v3 checkpoints:
        // decimal statistics in the header. They must keep resuming and
        // warm-starting appends, and be replaced by v4 files as they go.
        let truth = DiGraph::from_edges(10, &{
            let mut e = Vec::new();
            for i in 0..9u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let combined = observe(&truth, 0.5, 0.2, 260, 83);
        let (base, appended) = split_statuses(&combined, 220);
        let tends = Tends::new();
        let path = temp_checkpoint("version_3.json");
        std::fs::remove_file(&path).ok();
        let base_run = tends
            .reconstruct_robust(
                &cols(&base),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    ..Default::default()
                },
            )
            .expect("base run")
            .result;
        let ck = Checkpoint::load(&path).expect("base checkpoint");
        let v3 = v3_bytes(&ck);
        std::fs::write(&path, &v3).expect("write v3 checkpoint");
        assert_eq!(Checkpoint::load(&path).expect("v3 loads"), ck);
        let v4_header = b"{\"format\":\"diffnet-checkpoint\",\"version\":4,";

        let resumed = tends
            .reconstruct_robust(
                &cols(&base),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..Default::default()
                },
            )
            .expect("resume from a v3 checkpoint");
        assert_eq!(resumed.resumed_nodes, 10, "every node restored");
        assert_eq!(resumed.result.graph, base_run.graph);
        assert_eq!(
            resumed.result.global_score.to_bits(),
            base_run.global_score.to_bits()
        );
        assert!(std::fs::read(&path).unwrap().starts_with(v4_header));
        assert_eq!(Checkpoint::load(&path).expect("v4 loads"), ck);

        std::fs::write(&path, &v3).expect("write v3 checkpoint");
        let warm = tends
            .reconstruct_robust(
                &cols(&combined),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    revision: 1,
                    appended: Some(&cols(&appended)),
                    ..Default::default()
                },
            )
            .expect("append from a v3 checkpoint");
        let fresh = tends.reconstruct(&combined).expect("fresh combined run");
        assert_eq!(warm.result.graph, fresh.graph);
        assert_eq!(warm.result.tau.to_bits(), fresh.tau.to_bits());
        assert_eq!(
            warm.result.global_score.to_bits(),
            fresh.global_score.to_bits()
        );
        assert!(std::fs::read(&path).unwrap().starts_with(v4_header));
        assert_eq!(Checkpoint::load(&path).expect("v4 loads").revision, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_checkpoint_flush_is_fatal_and_typed() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 0)]);
        let statuses = observe(&truth, 0.5, 0.2, 150, 116);
        let path = temp_checkpoint("flushfail.json");
        std::fs::remove_file(&path).ok();
        let fault = FaultPlan::new().io_error("checkpoint_flush", 1);
        let err = Tends::new()
            .reconstruct_robust(
                &cols(&statuses),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    checkpoint_interval: 1,
                    fault: &fault,
                    ..Default::default()
                },
            )
            .expect_err("flush failure surfaces");
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_with_missing_checkpoint_starts_fresh() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 0)]);
        let statuses = observe(&truth, 0.5, 0.2, 150, 117);
        let path = temp_checkpoint("fresh.json");
        std::fs::remove_file(&path).ok();
        let partial = Tends::new()
            .reconstruct_robust(
                &cols(&statuses),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..Default::default()
                },
            )
            .expect("missing file = empty checkpoint");
        assert_eq!(partial.resumed_nodes, 0);
        assert!(partial.is_complete());
        assert!(path.exists(), "final state checkpointed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn result_accessors() {
        let truth = DiGraph::from_edges(5, &[(0, 1), (1, 2)]);
        let statuses = observe(&truth, 0.5, 0.2, 150, 107);
        let result = Tends::new().reconstruct(&statuses).expect("search fits");
        assert_eq!(result.node_results.len(), 5);
        assert!(result.total_evaluations() >= 5);
        assert!(result.mean_candidates() >= 0.0);
    }

    /// Dense-oracle comparison harness for the streamed pipeline: at
    /// small n the τ sample is exhaustive (stride 1), so the streamed run
    /// must be bit-identical to the dense run — graph, τ, and scores.
    fn assert_streamed_matches_dense(statuses: &StatusMatrix, streamed_cfg: TendsConfig) {
        let dense_cfg = TendsConfig {
            memory_budget: None,
            shard: None,
            ..streamed_cfg
        };
        let dense = Tends::with_config(dense_cfg)
            .reconstruct(statuses)
            .expect("search fits");
        let streamed = Tends::with_config(streamed_cfg)
            .reconstruct(statuses)
            .expect("search fits");
        assert_eq!(dense.graph, streamed.graph);
        assert_eq!(dense.tau.to_bits(), streamed.tau.to_bits(), "τ drifted");
        assert_eq!(
            dense.global_score.to_bits(),
            streamed.global_score.to_bits()
        );
        for (d, s) in dense.node_results.iter().zip(&streamed.node_results) {
            assert_eq!(d.candidates, s.candidates);
            assert_eq!(d.parents, s.parents);
            assert_eq!(d.score.to_bits(), s.score.to_bits());
        }
    }

    #[test]
    fn streamed_path_is_bit_identical_to_dense() {
        let truth = DiGraph::from_edges(30, &{
            let mut e = Vec::new();
            for i in 0..29u32 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
            e
        });
        let statuses = observe(&truth, 0.4, 0.15, 300, 120);
        for threads in [1usize, 4] {
            assert_streamed_matches_dense(
                &statuses,
                TendsConfig {
                    memory_budget: Some(64 << 20),
                    threads,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn streamed_tau_matches_dense_tau_exactly() {
        // The satellite regression: τ from the streamed systematic sample
        // equals the dense 2-means τ bit-for-bit whenever the sample
        // covers every pair (always true at small n).
        let truth = DiGraph::from_edges(12, &[(0, 1), (1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]);
        let statuses = observe(&truth, 0.5, 0.2, 250, 121);
        let dense = Tends::new().reconstruct(&statuses).expect("search fits");
        let streamed = Tends::with_config(TendsConfig {
            memory_budget: Some(32 << 20),
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits");
        assert_eq!(dense.tau.to_bits(), streamed.tau.to_bits());
        assert_eq!(dense.kmeans.tau.to_bits(), streamed.kmeans.tau.to_bits());
        // Threshold scaling composes the same way on both paths.
        let scfg = TendsConfig {
            threshold: ThresholdMode::ScaledAuto(1.5),
            memory_budget: Some(32 << 20),
            ..Default::default()
        };
        assert_streamed_matches_dense(&statuses, scfg);
    }

    #[test]
    fn sharded_union_matches_unsharded_run() {
        let truth = DiGraph::from_edges(20, &{
            let mut e = Vec::new();
            for i in 0..19u32 {
                e.push((i, i + 1));
            }
            e.push((0, 10));
            e.push((5, 15));
            e
        });
        let statuses = observe(&truth, 0.5, 0.2, 300, 122);
        let budget = Some(16u64 << 20);
        let whole = Tends::with_config(TendsConfig {
            memory_budget: budget,
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("search fits");
        for count in [2usize, 3, 7] {
            let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
            for shard in crate::stream::plan_shards(statuses.num_nodes(), count) {
                let part = Tends::with_config(TendsConfig {
                    memory_budget: budget,
                    shard: Some(shard),
                    ..Default::default()
                })
                .reconstruct(&statuses)
                .expect("search fits");
                assert_eq!(part.node_results.len(), shard.len());
                edges.extend(part.graph.edges());
            }
            edges.sort_unstable();
            edges.dedup();
            assert_eq!(
                edges,
                whole.graph.edge_vec(),
                "{count}-shard union must equal the unsharded edge set"
            );
        }
    }

    #[test]
    fn sharded_checkpoint_resume_stays_scoped_to_the_shard() {
        let truth = DiGraph::from_edges(10, &[(0, 1), (1, 2), (2, 3), (4, 5), (6, 7), (8, 9)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 123);
        let shard = Shard { start: 3, end: 8 };
        let cfg = TendsConfig {
            memory_budget: Some(8 << 20),
            shard: Some(shard),
            ..Default::default()
        };
        let path = temp_checkpoint("shard.json");
        std::fs::remove_file(&path).ok();
        let first = Tends::with_config(cfg)
            .reconstruct_robust(
                &cols(&statuses),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    checkpoint_interval: 1,
                    ..Default::default()
                },
            )
            .expect("first run");
        assert!(first.is_complete());
        // Resume restores exactly the shard's nodes and reproduces the
        // same edges bit-for-bit.
        let resumed = Tends::with_config(cfg)
            .reconstruct_robust(
                &cols(&statuses),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    ..Default::default()
                },
            )
            .expect("resumed run");
        assert_eq!(resumed.resumed_nodes, shard.len());
        assert_eq!(first.result.graph, resumed.result.graph);
        // A different shard must refuse the checkpoint (fingerprint
        // covers the shard via the config signature).
        let err = Tends::with_config(TendsConfig {
            shard: Some(Shard { start: 0, end: 3 }),
            ..cfg
        })
        .reconstruct_robust(
            &cols(&statuses),
            Recorder::disabled(),
            &RobustOptions {
                checkpoint: Some(path.clone()),
                resume: true,
                ..Default::default()
            },
        )
        .expect_err("shard mismatch must not resume");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_recorder_reports_streamed_phases_and_counters() {
        let truth = DiGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)]);
        let statuses = observe(&truth, 0.5, 0.2, 200, 124);
        let rec = Recorder::new();
        Tends::with_config(TendsConfig {
            memory_budget: Some(8 << 20),
            ..Default::default()
        })
        .reconstruct_robust(&cols(&statuses), &rec, &RobustOptions::default())
        .expect("streamed run");
        let snapshot = rec.snapshot();
        let phases: Vec<&str> = snapshot.phases.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            phases,
            vec!["tau_sample", "streamed_fold", "parent_search", "direction"]
        );
        assert!(snapshot.counters.contains_key("pairs_above_tau"));
        assert!(snapshot.counters.contains_key("candidate_evictions"));
        assert!(snapshot.counters.contains_key("tau_sample_pairs"));
        assert!(snapshot.counters["tau_sample_stride"] >= 1);
    }

    #[test]
    fn eviction_counter_fires_when_top_k_truncates() {
        // A dense clique with a tiny max_candidates bound: every node
        // sees more above-τ partners than it may keep.
        let mut edges = Vec::new();
        for i in 0..8u32 {
            for j in 0..8u32 {
                if i != j {
                    edges.push((i, j));
                }
            }
        }
        let truth = DiGraph::from_edges(8, &edges);
        let statuses = observe(&truth, 0.6, 0.2, 300, 125);
        let rec = Recorder::new();
        let cfg = TendsConfig {
            memory_budget: Some(8 << 20),
            search: SearchParams {
                max_candidates: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        Tends::with_config(cfg)
            .reconstruct_robust(&cols(&statuses), &rec, &RobustOptions::default())
            .expect("streamed run");
        let snapshot = rec.snapshot();
        assert!(
            snapshot.counters["candidate_evictions"] > 0,
            "clique + top-1 bound must evict above-τ candidates"
        );
        // The dense path with the same bound keeps the same candidates.
        assert_streamed_matches_dense(&statuses, cfg);
    }

    #[test]
    fn bad_shard_configs_are_typed_errors() {
        let truth = DiGraph::from_edges(6, &[(0, 1), (1, 0)]);
        let statuses = observe(&truth, 0.5, 0.2, 100, 126);
        let (combined, appended) = (cols(&statuses), cols(&split_statuses(&statuses, 80).1));
        let refused = |cfg: TendsConfig, options: &RobustOptions<'_>| {
            Tends::with_config(cfg)
                .reconstruct_robust(&combined, Recorder::disabled(), options)
                .expect_err("config must be refused")
        };
        let format_naming = |err: CheckpointError, what: &str| {
            assert!(
                matches!(&err, CheckpointError::Format(m) if m.contains(what)),
                "expected a Format error naming {what:?}, got {err:?}"
            );
        };

        let past_n = TendsConfig {
            shard: Some(Shard { start: 2, end: 7 }),
            ..Default::default()
        };
        format_naming(
            refused(past_n, &RobustOptions::default()),
            "shard 2..7 out of range for n = 6",
        );
        let mutual_partial = TendsConfig {
            direction: DirectionPolicy::MutualOnly,
            shard: Some(Shard { start: 0, end: 3 }),
            ..Default::default()
        };
        format_naming(
            refused(mutual_partial, &RobustOptions::default()),
            "MutualOnly direction requires an unsharded run",
        );

        // An append keeps its own refusals: streamed configs cannot
        // warm-start, and an append without a checkpoint has nothing to
        // fold into.
        let path = temp_checkpoint("bad_config_append.json");
        std::fs::remove_file(&path).ok();
        let streamed = TendsConfig {
            memory_budget: Some(8 << 20),
            ..Default::default()
        };
        let streamed_append = RobustOptions {
            checkpoint: Some(path.clone()),
            revision: 1,
            appended: Some(&appended),
            ..Default::default()
        };
        format_naming(
            refused(streamed, &streamed_append),
            "memory_budget and shard",
        );
        let no_checkpoint = RobustOptions {
            revision: 1,
            appended: Some(&appended),
            ..Default::default()
        };
        format_naming(
            refused(TendsConfig::default(), &no_checkpoint),
            "requires a checkpoint file",
        );
        assert!(!path.exists(), "a refused append writes no checkpoint");
    }

    #[test]
    #[should_panic(expected = "MutualOnly direction requires an unsharded run")]
    fn sharded_mutual_only_is_rejected() {
        let truth = DiGraph::from_edges(6, &[(0, 1), (1, 0)]);
        let statuses = observe(&truth, 0.5, 0.2, 100, 126);
        let _ = Tends::with_config(TendsConfig {
            direction: DirectionPolicy::MutualOnly,
            shard: Some(Shard { start: 0, end: 3 }),
            ..Default::default()
        })
        .reconstruct(&statuses);
    }
}
