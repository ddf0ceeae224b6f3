#![warn(missing_docs)]
//! # diffnet-tends
//!
//! TENDS — *Statistical Estimation of Diffusion Network Topologies* (Han,
//! Tian, Zhang, Han, Huang, Gao; ICDE 2020) — reconstructs the edge set of
//! a hidden diffusion network from nothing but the **final infection
//! statuses** of its nodes across `β` historical diffusion processes: no
//! infection timestamps, no diffusion sources, no prior on the edge count.
//!
//! The pipeline (paper §IV):
//!
//! 1. **Pairwise pruning** — score every node pair with the *infection
//!    mutual information* ([`imi`]), which rewards concordant infection
//!    statuses and penalizes discordant ones; cluster the non-negative
//!    values with a 2-means whose first centroid is pinned at 0
//!    ([`kmeans`]) and keep, for each node, only the candidates above the
//!    resulting threshold `τ`.
//! 2. **Local scoring** — evaluate candidate parent sets with the
//!    decomposable criterion `g(v_i, F_i) = log₂ L(v_i, F_i) − ½ Σ_j
//!    log₂(N_ij + 1)` ([`score`]), an MDL-style balance of likelihood and
//!    statistical error whose maximizer is a weakly consistent estimator
//!    of the true parent set.
//! 3. **Greedy search** — expand each node's parent set with the
//!    best-scoring candidate combinations, bounded by Theorem 2's
//!    `|F_i| ≤ log₂(φ_{F_i} + δ_i)` ([`search`]).
//!
//! The top-level entry point is [`Tends::reconstruct`]:
//!
//! ```
//! use diffnet_graph::DiGraph;
//! use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade};
//! use diffnet_tends::Tends;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let truth = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
//! let mut rng = StdRng::seed_from_u64(1);
//! let probs = EdgeProbs::gaussian(&truth, 0.4, 0.05, &mut rng);
//! let obs = IndependentCascade::new(&truth, &probs)
//!     .observe(IcConfig { initial_ratio: 0.2, num_processes: 300 }, &mut rng);
//!
//! let inferred = Tends::new()
//!     .reconstruct(&obs.statuses)
//!     .expect("default search fits")
//!     .graph;
//! assert_eq!(inferred.node_count(), truth.node_count());
//! ```

pub mod ablation;
mod algorithm;
pub mod checkpoint;
pub mod estimate;
pub mod imi;
pub mod kmeans;
pub mod parallel;
pub mod score;
pub mod search;
pub mod stream;

pub use algorithm::{
    DirectionPolicy, NodeError, PartialReconstruction, RobustOptions, Tends, TendsConfig,
    TendsResult, ThresholdMode,
};
pub use checkpoint::{Checkpoint, CheckpointEntry, CheckpointError};
pub use estimate::{
    estimate_propagation_probabilities, estimate_propagation_probabilities_from_columns,
    EstimateConfig, PropagationEstimate,
};
pub use imi::{CorrelationMatrix, CorrelationMeasure, PairEvaluator, PairStats, MAX_DENSE_NODES};
pub use kmeans::{pinned_two_means, BucketIndex, PinnedKmeans};
pub use score::ScoreCacheStats;
pub use search::{GreedyStrategy, SearchError, SearchParams, SearchScratch, SearchStats};
pub use stream::{plan_shards, Shard, SparseCandidates};
