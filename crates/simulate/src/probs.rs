//! Per-edge propagation probabilities.

use std::fmt;

use diffnet_graph::{DiGraph, NodeId};
use rand::Rng;

/// One draw from a normal distribution via the Box–Muller transform.
///
/// Hand-rolled so the workspace does not need `rand_distr`; adequate for
/// sampling propagation probabilities.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    mu + sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A per-edge weight vector whose length does not match the graph it is
/// used with. Conflating this with "edge absent" silently skips or
/// mis-indexes weights, so shape mismatches are surfaced as this typed
/// error by every `try_*` entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbShapeError {
    /// Edge count of the graph.
    pub expected: usize,
    /// Length of the weight vector.
    pub found: usize,
}

impl fmt::Display for ProbShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "edge weight vector has {} entries but the graph has {} edges",
            self.found, self.expected
        )
    }
}

impl std::error::Error for ProbShapeError {}

/// Propagation probabilities attached to the edges of a [`DiGraph`],
/// indexed by [`DiGraph::edge_index`].
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeProbs {
    probs: Vec<f64>,
}

impl EdgeProbs {
    /// Minimum / maximum probability after clamping; keeps every edge
    /// usable while staying a valid Bernoulli parameter.
    pub const CLAMP: (f64, f64) = (0.001, 0.999);

    /// Draws each edge's probability from `N(mu, sigma²)`, clamped into
    /// [`EdgeProbs::CLAMP`].
    ///
    /// The paper uses `mu ∈ [0.2, 0.4]` with `sigma = 0.05` so that "more
    /// than 95% of all propagation probabilities are within `μ ± 0.1`".
    pub fn gaussian<R: Rng + ?Sized>(g: &DiGraph, mu: f64, sigma: f64, rng: &mut R) -> Self {
        let probs = (0..g.edge_count())
            .map(|_| sample_normal(rng, mu, sigma).clamp(Self::CLAMP.0, Self::CLAMP.1))
            .collect();
        EdgeProbs { probs }
    }

    /// The same probability `p` on every edge.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn constant(g: &DiGraph, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        EdgeProbs {
            probs: vec![p; g.edge_count()],
        }
    }

    /// Builds from an explicit per-edge vector (must match
    /// [`DiGraph::edge_count`] and [`DiGraph::edge_index`] order).
    ///
    /// # Panics
    ///
    /// Panics if the length mismatches or any value is outside `[0, 1]`.
    /// Use [`EdgeProbs::try_from_vec`] when the vector is caller input.
    pub fn from_vec(g: &DiGraph, probs: Vec<f64>) -> Self {
        assert!(
            probs.iter().all(|p| (0.0..=1.0).contains(p)),
            "all probabilities must be in [0, 1]"
        );
        Self::try_from_vec(g, probs).expect("probability vector length must equal edge count")
    }

    /// [`from_vec`](Self::from_vec) with the shape mismatch as a typed
    /// error instead of a panic. Values are still asserted into `[0, 1]`
    /// by [`from_vec`](Self::from_vec); this method only validates the shape, for callers
    /// whose values are already probabilities.
    pub fn try_from_vec(g: &DiGraph, probs: Vec<f64>) -> Result<Self, ProbShapeError> {
        if probs.len() != g.edge_count() {
            return Err(ProbShapeError {
                expected: g.edge_count(),
                found: probs.len(),
            });
        }
        Ok(EdgeProbs { probs })
    }

    /// Checks that this vector covers exactly the edges of `g`; the typed
    /// entry points call this before any per-edge indexing can go wrong.
    pub fn validate_for(&self, g: &DiGraph) -> Result<(), ProbShapeError> {
        if self.probs.len() != g.edge_count() {
            return Err(ProbShapeError {
                expected: g.edge_count(),
                found: self.probs.len(),
            });
        }
        Ok(())
    }

    /// Probability of edge `u -> v` in `g`, or `None` if the edge does not
    /// exist.
    #[inline]
    pub fn get(&self, g: &DiGraph, u: NodeId, v: NodeId) -> Option<f64> {
        g.edge_index(u, v).map(|i| self.probs[i])
    }

    /// Probability at a dense edge index (see [`DiGraph::edge_index`]).
    #[inline]
    pub fn at(&self, edge_index: usize) -> f64 {
        self.probs[edge_index]
    }

    /// Number of edges covered.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether there are no edges.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Mean probability across edges (`NaN`-free; 0 for empty graphs).
    pub fn mean(&self) -> f64 {
        if self.probs.is_empty() {
            0.0
        } else {
            self.probs.iter().sum::<f64>() / self.probs.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_sampling_moments() {
        let mut rng = StdRng::seed_from_u64(31);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| sample_normal(&mut rng, 0.3, 0.05))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 0.3).abs() < 0.005, "mean {mean}");
        assert!((var.sqrt() - 0.05).abs() < 0.005, "std {}", var.sqrt());
    }

    #[test]
    fn paper_spread_property() {
        // "more than 95% of all propagation probabilities are within μ±0.1"
        let mut rng = StdRng::seed_from_u64(32);
        let within = (0..10_000)
            .map(|_| sample_normal(&mut rng, 0.3, 0.05))
            .filter(|p| (p - 0.3).abs() <= 0.1)
            .count();
        assert!(within > 9_500, "only {within}/10000 within ±0.1");
    }

    #[test]
    fn gaussian_probs_are_clamped() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = diffnet_graph::generators::erdos_renyi_gnm(50, 500, &mut rng);
        let probs = EdgeProbs::gaussian(&g, 0.05, 0.5, &mut rng);
        for i in 0..probs.len() {
            let p = probs.at(i);
            assert!((EdgeProbs::CLAMP.0..=EdgeProbs::CLAMP.1).contains(&p));
        }
    }

    #[test]
    fn constant_and_lookup() {
        let g = diffnet_graph::DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let probs = EdgeProbs::constant(&g, 0.4);
        assert_eq!(probs.get(&g, 0, 1), Some(0.4));
        assert_eq!(probs.get(&g, 1, 0), None);
        assert_eq!(probs.mean(), 0.4);
        assert_eq!(probs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn constant_rejects_invalid() {
        let g = diffnet_graph::DiGraph::empty(2);
        EdgeProbs::constant(&g, 1.5);
    }

    #[test]
    #[should_panic(expected = "length must equal")]
    fn from_vec_rejects_wrong_length() {
        let g = diffnet_graph::DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        EdgeProbs::from_vec(&g, vec![0.5]);
    }

    #[test]
    fn try_from_vec_reports_shape_mismatch() {
        let g = diffnet_graph::DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let err = EdgeProbs::try_from_vec(&g, vec![0.5]).expect_err("wrong length");
        assert_eq!(
            err,
            ProbShapeError {
                expected: 2,
                found: 1
            }
        );
        assert!(err.to_string().contains("1 entries"));
        assert!(err.to_string().contains("2 edges"));
    }

    #[test]
    fn validate_for_catches_cross_graph_reuse() {
        let small = diffnet_graph::DiGraph::from_edges(3, &[(0, 1)]);
        let big = diffnet_graph::DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let probs = EdgeProbs::constant(&small, 0.3);
        assert_eq!(probs.validate_for(&small), Ok(()));
        assert_eq!(
            probs.validate_for(&big),
            Err(ProbShapeError {
                expected: 3,
                found: 1
            })
        );
    }

    #[test]
    fn from_vec_matches_edge_index_order() {
        let g = diffnet_graph::DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let probs = EdgeProbs::from_vec(&g, vec![0.1, 0.9]);
        assert_eq!(probs.get(&g, 0, 1), Some(0.1));
        assert_eq!(probs.get(&g, 1, 2), Some(0.9));
    }

    #[test]
    fn empty_graph_probs() {
        let g = diffnet_graph::DiGraph::empty(4);
        let probs = EdgeProbs::constant(&g, 0.3);
        assert!(probs.is_empty());
        assert_eq!(probs.mean(), 0.0);
    }
}
