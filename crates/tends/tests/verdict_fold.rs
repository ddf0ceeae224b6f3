//! The streamed fold's two ways of deciding "above τ" — the count-space
//! verdict table and per-pair evaluation — must yield the same candidates,
//! counts and evictions on every shape: word-boundary β, never- and
//! always-infected columns, zero, negative and attained (tied) τ, both
//! measures, sharded runs and several thread counts. The automatic gate is
//! checked through `values_evaluated`, and one streamed reconstruction at a
//! shape where the gate builds the table must match the dense pipeline.

use diffnet_graph::{DiGraph, NodeId};
use diffnet_observe::Recorder;
use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade, NodeColumns, StatusMatrix};
use diffnet_tends::stream::{fold_candidates_with, FoldOutcome, VerdictTable, Verdicts};
use diffnet_tends::{
    plan_shards, CandidateLists, CorrelationMatrix, CorrelationMeasure, RobustOptions, Shard,
    Tends, TendsConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Statuses with correlated columns: each process activates a random
/// subset of eight node groups, and a node is infected with probability
/// 0.7 when its group is active, 0.1 otherwise. Node 0 is never infected,
/// nodes 1 and `n − 1` always are.
fn grouped_statuses(beta: usize, n: usize, seed: u64) -> StatusMatrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut m = StatusMatrix::new(beta, n);
    for l in 0..beta {
        let active: Vec<bool> = (0..8).map(|_| unit() < 0.4).collect();
        for i in 0..n {
            let p = if active[i % 8] { 0.7 } else { 0.1 };
            let infected = match i {
                0 => false,
                1 => true,
                _ if i + 1 == n => true,
                _ => unit() < p,
            };
            if infected {
                m.set(l, i as NodeId);
            }
        }
    }
    m
}

/// Pairs `(i, j)`, `i < j`, with at least one endpoint in `shard`.
fn pairs_touching(n: usize, shard: Shard) -> u64 {
    let mut count = 0u64;
    for i in 0..n as NodeId {
        for j in i + 1..n as NodeId {
            if shard.contains(i) || shard.contains(j) {
                count += 1;
            }
        }
    }
    count
}

fn assert_same_fold(table: &FoldOutcome, per_pair: &FoldOutcome, what: &str) {
    // Lists, pairs above τ and evictions.
    assert_eq!(table.candidates, per_pair.candidates, "{what}: candidates");
    assert_eq!(table.tiles, per_pair.tiles, "{what}: tiles");
    assert_eq!(
        table.scanned_pairs, per_pair.scanned_pairs,
        "{what}: scanned"
    );
}

#[test]
fn table_fold_matches_per_pair_evaluation() {
    let n = 60usize;
    // 2100 shrinks the pair tile to 48 nodes, so the fold crosses blocks.
    for beta in [1usize, 63, 64, 65, 150, 2100] {
        let cols = grouped_statuses(beta, n, beta as u64).columns();
        let ones = cols.ones_counts();
        assert!(ones.contains(&0) && ones.contains(&(beta as u64)));
        for measure in [CorrelationMeasure::Imi, CorrelationMeasure::Mi] {
            let dense = CorrelationMatrix::compute(&cols, measure);
            let mut sorted = dense.upper().to_vec();
            sorted.sort_by(f64::total_cmp);
            // τ = 0, a negative fixed τ, and a value some pair attains
            // (that pair must stay out: "above" is strict).
            let attained = sorted[sorted.len() * 9 / 10];
            for tau in [0.0, -0.05, attained] {
                let strictly_above = sorted.iter().filter(|&&v| v > tau).count() as u64;
                for shards in [1usize, 3] {
                    for shard in plan_shards(n, shards) {
                        for threads in [1usize, 4] {
                            let what = format!(
                                "β {beta} {measure:?} τ {tau} shard {shard:?} threads {threads}"
                            );
                            let fold =
                                |v| fold_candidates_with(&cols, measure, tau, 3, shard, threads, v);
                            let per_pair = fold(Verdicts::PerPair);
                            let table = fold(Verdicts::Table);
                            assert_same_fold(&table, &per_pair, &what);
                            assert_eq!(
                                per_pair.values_evaluated,
                                pairs_touching(n, shard),
                                "{what}: per-pair evaluates every pair of the shard"
                            );
                            assert_eq!(
                                table.values_evaluated, table.candidates.pairs_above_tau,
                                "{what}: the table evaluates only above-τ pairs"
                            );
                            if shards == 1 {
                                assert_eq!(
                                    per_pair.candidates.pairs_above_tau, strictly_above,
                                    "{what}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn automatic_gate_takes_both_branches() {
    let n = 60usize;
    let full = Shard::full(n);
    // β = 1: four verdict bits against 1,770 pairs — the table pays off.
    // β = 150: tens of thousands of bits against the same pairs — it
    // does not, and every pair is evaluated.
    for (beta, builds) in [(1usize, true), (150, false)] {
        let cols = grouped_statuses(beta, n, 7).columns();
        let scanned = (n * (n - 1) / 2) as u64;
        assert_eq!(
            VerdictTable::pays_off(&cols.ones_counts(), beta as u64, scanned),
            builds,
            "β {beta}"
        );
        for threads in [1usize, 4] {
            let fold =
                |v| fold_candidates_with(&cols, CorrelationMeasure::Imi, 0.0, 3, full, threads, v);
            let auto = fold(Verdicts::Auto);
            assert_same_fold(&auto, &fold(Verdicts::PerPair), &format!("β {beta}"));
            assert!(
                auto.candidates.pairs_above_tau < scanned,
                "β {beta}: τ must cut pairs"
            );
            let expect = if builds {
                auto.candidates.pairs_above_tau
            } else {
                scanned
            };
            assert_eq!(auto.values_evaluated, expect, "β {beta} threads {threads}");
        }
    }
}

#[test]
fn gate_holds_at_an_eighth_of_the_scanned_pairs() {
    // The gate reads the ones counts, β and the scanned pairs only: the
    // table's bits may cost at most an eighth of the pairs, so a shard
    // scanning fewer pairs may fall back where the full run builds.
    let ones: Vec<u64> = (0..=20).collect();
    let bits: u64 = (0..=20u64)
        .flat_map(|a| (0..=20u64).map(move |b| a.min(b) - (a + b).saturating_sub(20) + 1))
        .sum();
    assert!(VerdictTable::pays_off(&ones, 20, 8 * bits));
    assert!(!VerdictTable::pays_off(&ones, 20, 8 * bits - 1));
}

/// A reciprocal chain, as in the dense-vs-streamed proptests.
fn chain(n: u32) -> DiGraph {
    let mut edges = Vec::new();
    for i in 0..n - 1 {
        edges.push((i, i + 1));
        edges.push((i + 1, i));
    }
    DiGraph::from_edges(n as usize, &edges)
}

#[test]
fn streamed_matches_dense_where_the_table_is_built() {
    // n = 400, β = 20: 79,800 pairs against at most 21³ verdict bits, and
    // a 64 MiB budget samples every pair, so τ is the dense τ.
    let (n, beta) = (400u32, 20usize);
    let truth = chain(n);
    let mut rng = StdRng::seed_from_u64(4242);
    let statuses = IndependentCascade::new(&truth, &EdgeProbs::constant(&truth, 0.4))
        .observe(
            IcConfig {
                initial_ratio: 0.3,
                num_processes: beta,
            },
            &mut rng,
        )
        .statuses;
    let cols: NodeColumns = statuses.columns();
    let pairs = u64::from(n) * u64::from(n - 1) / 2;
    assert!(VerdictTable::pays_off(
        &cols.ones_counts(),
        beta as u64,
        pairs
    ));
    let dense = Tends::new().reconstruct(&statuses).expect("dense run");
    for threads in [1usize, 4] {
        let rec = Recorder::new();
        let streamed = Tends::with_config(TendsConfig {
            memory_budget: Some(64 << 20),
            threads,
            ..Default::default()
        })
        .reconstruct_robust(&statuses.columns(), &rec, &RobustOptions::default())
        .expect("streamed run")
        .result;
        assert_eq!(dense.tau.to_bits(), streamed.tau.to_bits());
        assert_eq!(dense.graph, streamed.graph);
        for (d, s) in dense.node_results.iter().zip(&streamed.node_results) {
            assert_eq!(d.candidates, s.candidates);
            assert_eq!(d.parents, s.parents);
            assert_eq!(d.score.to_bits(), s.score.to_bits());
        }
        let counters = rec.snapshot().counters;
        assert_eq!(counters["correlation_pairs"], pairs);
        assert_eq!(
            counters["fold_values_evaluated"], counters["pairs_above_tau"],
            "threads {threads}: the table path evaluates only above-τ pairs"
        );
        assert!(counters["fold_values_evaluated"] < pairs);
    }
}

/// The candidate lists of `shard` by a full sort of the dense triangle:
/// per shard node, every partner strictly above `tau`, ordered value
/// descending (IEEE total order) then id ascending and cut at `k`; the
/// pairs with an endpoint in the shard; and the sightings the cut drops.
fn sorted_oracle(dense: &CorrelationMatrix, tau: f64, k: usize, shard: Shard) -> CandidateLists {
    let n = dense.num_nodes();
    let mut seen: Vec<Vec<(f64, NodeId)>> = vec![Vec::new(); shard.len()];
    let mut pairs_above_tau = 0u64;
    for i in 0..n as NodeId {
        for j in i + 1..n as NodeId {
            let v = dense.get(i, j);
            if v > tau && (shard.contains(i) || shard.contains(j)) {
                pairs_above_tau += 1;
                for (me, other) in [(i, j), (j, i)] {
                    if shard.contains(me) {
                        seen[(me - shard.start) as usize].push((v, other));
                    }
                }
            }
        }
    }
    let mut candidate_evictions = 0u64;
    let lists = seen
        .into_iter()
        .map(|mut list| {
            list.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            candidate_evictions += list.len().saturating_sub(k) as u64;
            list.into_iter().take(k).map(|(_, id)| id).collect()
        })
        .collect();
    CandidateLists {
        lists,
        pairs_above_tau,
        candidate_evictions,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The table path, the per-pair path and the dense scan against one
    // sort-based oracle. n is never a multiple of 64, so every row ends
    // in a partial 64-pair chunk; at β ≤ 256 the pair tile is 512 nodes
    // wide, so rows of the first tile run past one 256-pair n11 segment
    // and larger n crosses into a second tile; the drawn shard's bounds
    // fall anywhere, mostly inside a chunk; τ is a value some pair
    // attains, so that pair stays out.
    #[test]
    fn fold_strategies_match_the_sorted_oracle(
        chunks in 4usize..11,
        tail in 1usize..64,
        beta in 20usize..257,
        seed in 0u64..1 << 32,
        cut in 0usize..3,
        quantile in 50usize..99,
        lo in 0.0f64..1.0,
        width in 0.0f64..1.0,
        threads in 1usize..4,
    ) {
        let n = 64 * chunks + tail;
        let k = [0usize, 1, 8][cut];
        let cols = grouped_statuses(beta, n, seed).columns();
        let dense = CorrelationMatrix::compute(&cols, CorrelationMeasure::Imi);
        let mut sorted = dense.upper().to_vec();
        sorted.sort_by(f64::total_cmp);
        let tau = sorted[sorted.len() * quantile / 100];
        let start = (lo * n as f64) as NodeId;
        let end = start + (width * (n as u32 - start) as f64) as NodeId + 1;
        for shard in [Shard::full(n), Shard { start, end: end.min(n as NodeId) }] {
            let fold = |v| fold_candidates_with(&cols, CorrelationMeasure::Imi, tau, k, shard, threads, v);
            let (table, per_pair) = (fold(Verdicts::Table), fold(Verdicts::PerPair));
            let oracle = sorted_oracle(&dense, tau, k, shard);
            // The dense scan covers every node, so only the full shard.
            let scan = (shard == Shard::full(n)).then(|| dense.candidates(tau, k));
            // Lists, pairs above τ and evictions, each path at once.
            let agree = [
                table.candidates == oracle,
                per_pair.candidates == oracle,
                scan.is_none_or(|c| c == oracle),
            ];
            let what = format!("n {n} β {beta} k {k} τ {tau} {shard:?} threads {threads}");
            prop_assert!(agree == [true; 3], "{what}: table, per-pair, dense agree: {agree:?}");
            // Each strategy's own count: the table evaluates the pairs that
            // pass, the per-pair path every pair with an endpoint in the
            // shard.
            prop_assert_eq!(table.values_evaluated, oracle.pairs_above_tau, "{}", what);
            prop_assert_eq!(per_pair.values_evaluated, pairs_touching(n, shard), "{}", what);
        }
    }
}
