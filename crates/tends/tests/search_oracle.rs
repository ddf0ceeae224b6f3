//! The mask-space parent search over per-node candidate histograms
//! against the from-scratch, cacheless reference at the paper's shape: a
//! reciprocal LFR graph of 200 nodes (mean degree 4, degree exponent 2),
//! IC-simulated with the paper's α = 0.15 and μ = 0.3 at β = 150 and at
//! β = 1100 (18-word columns), for every strategy and `max_combo_size`
//! 1–3, over every node's IMI candidates — and over 70-candidate lists,
//! where masks span two words and the score cache is off. The score
//! cache's hit and miss totals are pinned per strategy and size.

use diffnet_graph::generators::{Lfr, Orientation};
use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade, NodeColumns};
use diffnet_tends::search::{find_parents_reference, find_parents_with};
use diffnet_tends::{
    CorrelationMatrix, CorrelationMeasure, GreedyStrategy, ScoreCacheStats, SearchParams,
    SearchScratch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper-shaped input's columns at `beta` processes.
fn paper_columns(beta: usize) -> NodeColumns {
    let mut lfr = Lfr::new(200, 4.0, 2.0);
    lfr.orientation = Orientation::Reciprocal;
    let truth = lfr
        .generate(&mut StdRng::seed_from_u64(11))
        .expect("LFR parameters are feasible");
    let mut rng = StdRng::seed_from_u64(12);
    let probs = EdgeProbs::gaussian(&truth, 0.3, 0.05, &mut rng);
    let obs = IndependentCascade::new(&truth, &probs).observe(
        IcConfig {
            initial_ratio: 0.15,
            num_processes: beta,
        },
        &mut rng,
    );
    obs.statuses.columns()
}

#[test]
fn workspace_search_matches_reference_at_paper_shape() {
    for beta in [150usize, 1100] {
        let cols = paper_columns(beta);
        let corr = CorrelationMatrix::compute(&cols, CorrelationMeasure::Imi);
        let tau = corr.pinned_two_means().tau;
        let candidates = corr
            .candidates(tau, SearchParams::default().max_candidates)
            .lists;
        assert!(
            candidates.iter().filter(|c| c.len() == 8).count() >= 10,
            "β = {beta}: the input must give some nodes a full candidate list"
        );
        let mut scratch = SearchScratch::new();
        let mut cache_totals = Vec::new();
        for strategy in [
            GreedyStrategy::BestImprovement,
            GreedyStrategy::ScoreOrdered,
            GreedyStrategy::Exhaustive,
        ] {
            for max_combo_size in 1..=3 {
                let mut totals = ScoreCacheStats::default();
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
                        after.rebases - before.rebases,
                        1,
                        "{what}: one histogram per searched node"
                    );
                    assert_eq!(
                        new.cache_stats.hits + new.cache_stats.misses,
                        new.stats.evaluations as u64,
                        "{what}: every evaluation is one hit or one miss"
                    );
                    expanded += usize::from(new.parents.len() >= 2);
                    totals.merge(&new.cache_stats);
                }
                cache_totals.push((totals.hits, totals.misses));
                assert!(
                    expanded > 20,
                    "β {beta} {strategy:?} size {max_combo_size}: too few multi-parent results"
                );
            }
        }
        // Score-cache (hits, misses) summed over every node, per strategy
        // and combo size 1–3: a memo that forgot, dropped or mixed up
        // entries would move them even where the results still agree.
        let pinned: &[(u64, u64)] = match beta {
            150 => &[
                (725, 2246),
                (3759, 3519),
                (7604, 4997),
                (198, 1452),
                (200, 2661),
                (226, 4424),
                (725, 7860),
                (2118, 7860),
                (3999, 7860),
            ],
            _ => &[
                (711, 2166),
                (3555, 3312),
                (7232, 4643),
                (198, 1424),
                (198, 2541),
                (201, 4130),
                (711, 7302),
                (2016, 7302),
                (3725, 7302),
            ],
        };
        assert_eq!(
            cache_totals, pinned,
            "β {beta}: score-cache hits and misses"
        );
    }
}

#[test]
fn more_than_64_candidates_match_reference_at_paper_shape() {
    // Every node's 70 most correlated others: masks span two words, the
    // score cache is off, and every evaluation counts a table.
    let cols = paper_columns(150);
    let corr = CorrelationMatrix::compute(&cols, CorrelationMeasure::Imi);
    let candidates = corr.candidates(f64::NEG_INFINITY, 70).lists;
    let mut scratch = SearchScratch::new();
    for strategy in [
        GreedyStrategy::BestImprovement,
        GreedyStrategy::ScoreOrdered,
        GreedyStrategy::Exhaustive,
    ] {
        for max_combo_size in 1..=2 {
            let params = SearchParams {
                strategy,
                max_combo_size,
                max_candidates: 70,
            };
            // Pairs of 70 candidates are 2,415 combinations per round on
            // the reference path: fewer nodes keep the debug build quick.
            let stride = [20, 100][max_combo_size - 1];
            for (child, cands) in candidates.iter().enumerate().step_by(stride) {
                let child = child as u32;
                let what = format!("{strategy:?} size {max_combo_size} node {child}");
                assert_eq!(cands.len(), 70, "{what}");
                let before = scratch.ws.stats();
                let new = find_parents_with(&mut scratch, &cols, child, cands, &params);
                let after = scratch.ws.stats();
                let old = find_parents_reference(&cols, child, cands, &params);
                let (new, old) = match (new, old) {
                    (Ok(new), Ok(old)) => (new, old),
                    (new, old) => {
                        // Only the exhaustive sweep refuses 70 candidates,
                        // with the same typed error on both paths.
                        assert_eq!(strategy, GreedyStrategy::Exhaustive, "{what}");
                        assert_eq!(new.unwrap_err(), old.unwrap_err(), "{what}");
                        continue;
                    }
                };
                assert_eq!(new.parents, old.parents, "{what}");
                assert_eq!(new.score.to_bits(), old.score.to_bits(), "{what}");
                assert_eq!(new.stats, old.stats, "{what}");
                assert!(new.stats.greedy_rounds > 0, "{what}: the greedy loop ran");
                assert_eq!(new.cache_stats, ScoreCacheStats::default(), "{what}");
                assert_eq!(
                    after.refinements - before.refinements,
                    new.stats.evaluations as u64,
                    "{what}: with the cache off every evaluation counts a table"
                );
            }
        }
    }
}
