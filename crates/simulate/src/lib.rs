#![warn(missing_docs)]
//! # diffnet-simulate
//!
//! Diffusion-process simulator and observation data structures for diffusion
//! network inference.
//!
//! The TENDS paper observes `β` independent diffusion processes on a hidden
//! network and records, for each process, the **final infection status** of
//! every node. Baseline algorithms additionally consume the information the
//! paper grants them: full cascades (infection times) for NetRate / MulTree
//! and seed sets for LIFT. This crate produces all of it:
//!
//! * [`EdgeProbs`] — per-edge propagation probabilities; the paper draws
//!   them from a Gaussian with mean `μ` and standard deviation 0.05.
//! * [`IndependentCascade`] — the round-synchronous independent-cascade
//!   model: each newly infected node gets exactly one chance to infect each
//!   currently uninfected out-neighbor.
//! * [`StatusMatrix`] — a bit-packed `β × n` matrix of final statuses with
//!   fast counting kernels (`N_ijk` counting is the inner loop of TENDS).
//! * [`ObservationSet`] — statuses plus per-process [`DiffusionRecord`]s
//!   (sources and infection rounds).
//!
//! ## Example
//!
//! ```
//! use diffnet_graph::DiGraph;
//! use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let mut rng = StdRng::seed_from_u64(42);
//! let probs = EdgeProbs::gaussian(&g, 0.3, 0.05, &mut rng);
//! let sim = IndependentCascade::new(&g, &probs);
//! let obs = sim.observe(IcConfig { initial_ratio: 0.25, num_processes: 100 }, &mut rng);
//!
//! assert_eq!(obs.num_processes(), 100);
//! assert_eq!(obs.num_nodes(), 4);
//! ```

mod cascade;
mod ic;
pub mod io;
mod lt;
pub mod mmap;
mod noise;
mod probs;
pub mod simd;
mod status;

pub use cascade::{DiffusionRecord, ObservationSet, UNINFECTED};
pub use ic::{IcConfig, IndependentCascade};
pub use lt::LinearThreshold;
pub use mmap::{open_bytes, FileBytes};
pub use noise::{delay_timestamps, flip_statuses};
pub use probs::{sample_normal, EdgeProbs, ProbShapeError};
pub use simd::{parse_simd, simd_from_env, Kernels, SimdMode};
pub use status::{
    ComboSizeError, CountsWorkspace, NodeColumns, PairCounts, StatusMatrix, TableRoute,
    WorkspaceStats, LATTICE_MAX_CANDIDATES, MAX_TABULATED_PARENTS, N11_SEGMENT,
};
