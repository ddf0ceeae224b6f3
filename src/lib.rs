#![warn(missing_docs)]
//! # diffnet
//!
//! A Rust reproduction of **TENDS** — *Statistical Estimation of Diffusion
//! Network Topologies* (Han, Tian, Zhang, Han, Huang, Gao; ICDE 2020) —
//! together with every substrate and baseline the paper's evaluation
//! depends on.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — directed-graph substrate: compact [`graph::DiGraph`], LFR
//!   benchmark and other generators, statistics, edge-list I/O.
//! * [`simulate`] — independent-cascade diffusion simulator, bit-packed
//!   status matrices, cascade/source records.
//! * [`datasets`] — the paper's evaluation networks: the Table-II LFR
//!   suite and NetSci-/DUNF-like topology models.
//! * [`tends`] — the paper's contribution: topology inference from final
//!   infection statuses only ([`tends::Tends`]).
//! * [`baselines`] — NetRate, MulTree, LIFT (paper baselines) plus NetInf
//!   and PATH (extensions).
//! * [`metrics`] — precision / recall / F-score and experiment reporting.
//! * [`apply`] — downstream uses of an inferred topology: influence
//!   maximization (greedy/CELF) and immunization.
//! * [`observe`] — zero-dependency instrumentation: phase timers, counters,
//!   and the structured [`observe::RunReport`] the CLI emits with
//!   `--run-report`.
//! * [`serve`] — a zero-dependency inference daemon: hand-rolled HTTP/1.1
//!   job API with a durable, checkpoint-backed queue ([`serve::Server`]).
//!
//! ## Quickstart
//!
//! ```
//! use diffnet::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 1. A hidden diffusion network (here: a small LFR benchmark graph).
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut lfr = Lfr::new(60, 4.0, 2.0);
//! lfr.orientation = Orientation::Reciprocal;
//! let truth = lfr.generate(&mut rng).expect("valid parameters");
//!
//! // 2. Observe β diffusion processes (final statuses only).
//! let probs = EdgeProbs::gaussian(&truth, 0.3, 0.05, &mut rng);
//! let obs = IndependentCascade::new(&truth, &probs)
//!     .observe(IcConfig { initial_ratio: 0.15, num_processes: 150 }, &mut rng);
//!
//! // 3. Reconstruct the topology with TENDS and score it.
//! let inferred = Tends::new().reconstruct(&obs.statuses).expect("default search fits").graph;
//! let cmp = EdgeSetComparison::against_truth(&truth, &inferred);
//! println!("F-score: {:.3}", cmp.f_score());
//! ```

pub use diffnet_apply as apply;
pub use diffnet_baselines as baselines;
pub use diffnet_datasets as datasets;
pub use diffnet_graph as graph;
pub use diffnet_metrics as metrics;
pub use diffnet_observe as observe;
pub use diffnet_serve as serve;
pub use diffnet_simulate as simulate;
pub use diffnet_tends as tends;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use diffnet_apply::{
        celf_influence_maximization, estimate_spread, greedy_immunization,
        greedy_influence_maximization, SpreadEstimator,
    };
    pub use diffnet_baselines::{
        Lift, MulTree, NetInf, NetRate, PathReconstruction, WeightedGraph,
    };
    pub use diffnet_datasets::{dunf_like, lfr_suite, netsci_like, LfrSpec};
    pub use diffnet_graph::generators::{Lfr, Orientation};
    pub use diffnet_graph::{DiGraph, GraphBuilder, NodeId};
    pub use diffnet_metrics::{timed, EdgeSetComparison, Stopwatch};
    pub use diffnet_observe::{Recorder, RunReport};
    pub use diffnet_simulate::{
        CountsWorkspace, DiffusionRecord, EdgeProbs, IcConfig, IndependentCascade, ObservationSet,
        StatusMatrix,
    };
    pub use diffnet_tends::{
        CorrelationMeasure, GreedyStrategy, SearchParams, Tends, TendsConfig, TendsResult,
        ThresholdMode,
    };
}
