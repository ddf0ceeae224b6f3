//! The batched, mask-classified parent search against the from-scratch,
//! cacheless reference at the paper's shape: a reciprocal LFR graph of 200
//! nodes (mean degree 4, degree exponent 2), IC-simulated with the paper's
//! α = 0.15 and μ = 0.3 at β = 150 and at β = 1100 (18-word columns), for
//! every strategy and `max_combo_size` 1–3, over every node's IMI
//! candidates.

use diffnet_graph::generators::{Lfr, Orientation};
use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade};
use diffnet_tends::search::{find_parents_reference, find_parents_with};
use diffnet_tends::{
    BucketIndex, CorrelationMatrix, CorrelationMeasure, GreedyStrategy, SearchParams, SearchScratch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn workspace_search_matches_reference_at_paper_shape() {
    let mut lfr = Lfr::new(200, 4.0, 2.0);
    lfr.orientation = Orientation::Reciprocal;
    let truth = lfr
        .generate(&mut StdRng::seed_from_u64(11))
        .expect("LFR parameters are feasible");
    for beta in [150usize, 1100] {
        let mut rng = StdRng::seed_from_u64(12);
        let probs = EdgeProbs::gaussian(&truth, 0.3, 0.05, &mut rng);
        let obs = IndependentCascade::new(&truth, &probs).observe(
            IcConfig {
                initial_ratio: 0.15,
                num_processes: beta,
            },
            &mut rng,
        );
        let cols = obs.statuses.columns();
        let corr = CorrelationMatrix::compute(&cols, CorrelationMeasure::Imi);
        let mut index = BucketIndex::new(corr.upper());
        let tau = index.pinned_two_means().tau;
        let (candidates, _) = index.candidate_lists(
            cols.num_nodes(),
            tau,
            SearchParams::default().max_candidates,
        );
        assert!(
            candidates.iter().filter(|c| c.len() == 8).count() >= 10,
            "β = {beta}: the input must give some nodes a full candidate list"
        );
        let mut scratch = SearchScratch::new();
        for strategy in [
            GreedyStrategy::BestImprovement,
            GreedyStrategy::ScoreOrdered,
            GreedyStrategy::Exhaustive,
        ] {
            for max_combo_size in 1..=3 {
                let params = SearchParams {
                    strategy,
                    max_combo_size,
                    ..Default::default()
                };
                let mut expanded = 0usize;
                for (child, cands) in candidates.iter().enumerate() {
                    let child = child as u32;
                    let what = format!("β {beta} {strategy:?} size {max_combo_size} node {child}");
                    let before = scratch.ws.stats();
                    let new = find_parents_with(&mut scratch, &cols, child, cands, &params)
                        .expect("default-sized search");
                    let after = scratch.ws.stats();
                    let old = find_parents_reference(&cols, child, cands, &params)
                        .expect("default-sized search");
                    assert_eq!(new.parents, old.parents, "{what}");
                    assert_eq!(new.score.to_bits(), old.score.to_bits(), "{what}");
                    assert_eq!(new.stats, old.stats, "{what}");
                    assert_eq!(
                        after.refinements - before.refinements,
                        new.cache_stats.misses,
                        "{what}: one workspace refinement per cache miss"
                    );
                    assert_eq!(
                        new.cache_stats.hits + new.cache_stats.misses,
                        new.stats.evaluations as u64,
                        "{what}: every evaluation is one hit or one miss"
                    );
                    expanded += usize::from(new.parents.len() >= 2);
                }
                assert!(
                    expanded > 20,
                    "β {beta} {strategy:?} size {max_combo_size}: too few multi-parent results"
                );
            }
        }
    }
}
