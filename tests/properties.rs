//! Cross-crate property-based tests (proptest) for the invariants the
//! paper's theory relies on, exercised on randomized status matrices and
//! graphs rather than hand-picked cases.

use diffnet::prelude::*;
use diffnet::tends::score;
use proptest::prelude::*;

/// Strategy: a random status matrix with β processes over n nodes.
fn status_matrix(
    beta: std::ops::Range<usize>,
    n: std::ops::Range<usize>,
) -> impl Strategy<Value = StatusMatrix> {
    (beta, n).prop_flat_map(|(b, n)| {
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), n), b)
            .prop_map(|rows| StatusMatrix::from_rows(&rows))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Eq. (3) bookkeeping: for any parent set, Σ_j N_ij = β.
    #[test]
    fn combo_counts_partition_the_processes(
        m in status_matrix(1..40, 2..10),
        parents_mask in 0u32..32,
    ) {
        let n = m.num_nodes() as u32;
        let child = 0u32;
        let parents: Vec<NodeId> =
            (1..n).filter(|p| parents_mask & (1 << (p % 5)) != 0).take(4).collect();
        let counts = m.columns().combo_counts(child, &parents).expect("small combo");
        let total: u64 = counts.iter().map(|c| c[0] + c[1]).sum();
        prop_assert_eq!(total, m.num_processes() as u64);
    }

    // The two N_ijk kernels agree everywhere.
    #[test]
    fn counting_kernels_agree(m in status_matrix(1..80, 2..12)) {
        let n = m.num_nodes() as u32;
        let cols = m.columns();
        let parents: Vec<NodeId> = (1..n.min(5)).collect();
        prop_assert_eq!(
            cols.combo_counts(0, &parents).expect("small combo"),
            m.combo_counts(0, &parents).expect("small combo")
        );
    }

    // The workspace's marginal tables agree with the naive row-scan
    // kernel for every random subset of a random candidate list.
    #[test]
    fn workspace_counts_match_naive_kernel(
        m in status_matrix(1..80, 3..12),
        candidate_mask in 0u32..256,
        subset_mask in 0u32..256,
    ) {
        let n = m.num_nodes() as u32;
        let child = 0u32;
        let candidates: Vec<NodeId> =
            (1..n).filter(|p| candidate_mask & (1 << (p % 8)) != 0).take(6).collect();
        let picked: Vec<usize> =
            (0..candidates.len()).filter(|t| subset_mask & (1 << t) != 0).collect();
        let subset: Vec<NodeId> = picked.iter().map(|&t| candidates[t]).collect();

        let cols = m.columns();
        let mut ws = CountsWorkspace::new();
        ws.set_candidates(&cols, child, &candidates);
        let mask = picked.iter().fold(0u64, |acc, &t| acc | 1 << t);
        let counts = ws.table(&[mask]).expect("small combo").to_vec();
        prop_assert_eq!(counts, m.combo_counts(child, &subset).expect("small combo"));
    }

    // The tiled pairwise kernel is bit-identical to the per-pair column
    // walk for every pair and every block shape, across random β —
    // including β not a multiple of 64, where tail-word masking bugs live
    // — and with whatever degenerate (never/always-infected) columns the
    // random matrix happens to contain.
    #[test]
    fn tiled_pair_counts_match_naive(m in status_matrix(1..200, 2..24)) {
        let n = m.num_nodes();
        let cols = m.columns();
        let ones = cols.ones_counts();
        // Several block shapes, not just the tuned pair_tile_size().
        for tile in [1usize, 3, 7, 64] {
            let nb = n.div_ceil(tile);
            let mut seen = 0usize;
            for bi in 0..nb {
                let rows = bi * tile..((bi + 1) * tile).min(n);
                for bj in bi..nb {
                    let jc = bj * tile..((bj + 1) * tile).min(n);
                    cols.pair_counts_block(rows.clone(), jc, &ones, &mut |i, j, pc| {
                        seen += 1;
                        assert_eq!(
                            pc,
                            cols.pair_counts(i, j),
                            "pair ({i},{j}) diverges at tile {tile}, β {}",
                            m.num_processes()
                        );
                    });
                }
            }
            prop_assert_eq!(seen, n * (n - 1) / 2, "tile {} missed pairs", tile);
        }
    }

    // The parallel correlation matrix is bit-identical at every thread
    // count (1, 4, and all-cores).
    #[test]
    fn correlation_matrix_thread_count_invariant(m in status_matrix(2..50, 2..14)) {
        use diffnet::tends::CorrelationMatrix;
        let cols = m.columns();
        let n = m.num_nodes() as u32;
        let seq = CorrelationMatrix::compute_parallel(&cols, CorrelationMeasure::Imi, 1);
        for threads in [4usize, 0] {
            let par =
                CorrelationMatrix::compute_parallel(&cols, CorrelationMeasure::Imi, threads);
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(
                        seq.get(i, j).to_bits(), par.get(i, j).to_bits(),
                        "cell ({},{}) differs at {} threads", i, j, threads);
                }
            }
        }
    }

    // The observability run report is deterministic: for the same status
    // matrix the counters, values, histograms, and phase list are identical
    // at 1 and 4 worker threads once the `runtime` section (wall-clock
    // times, per-worker chunk counts) is stripped.
    #[test]
    fn run_report_thread_count_invariant(m in status_matrix(5..40, 3..10)) {
        let report_at = |threads: usize| {
            let rec = Recorder::new();
            let cfg = TendsConfig { threads, ..Default::default() };
            let result = Tends::with_config(cfg)
                .reconstruct_robust(&m.columns(), &rec, &diffnet::tends::RobustOptions::default())
                .expect("default search fits")
                .result;
            (result, RunReport::new("tends", rec.snapshot(), threads))
        };
        let (res_1, rep_1) = report_at(1);
        let (res_4, rep_4) = report_at(4);
        prop_assert_eq!(res_1.graph.edge_vec(), res_4.graph.edge_vec());
        prop_assert_eq!(
            rep_1.deterministic_json(),
            rep_4.deterministic_json(),
            "deterministic report sections must not depend on thread count"
        );
        // But the full report differs structurally: runtime carries the
        // thread count itself.
        prop_assert!(rep_1.to_json().to_pretty() != rep_4.to_json().to_pretty());
    }

    // Theorem 1: adding any parent never decreases the log-likelihood.
    #[test]
    fn theorem1_likelihood_monotone(m in status_matrix(2..60, 3..10)) {
        let cols = m.columns();
        let n = m.num_nodes() as u32;
        let child = 0u32;
        let base: Vec<NodeId> = vec![1];
        let extended: Vec<NodeId> = vec![1, 2.min(n - 1)];
        if extended[1] == extended[0] || extended[1] == child {
            return Ok(());
        }
        let ll_base = score::log_likelihood(&cols.combo_counts(child, &base).expect("small combo"));
        let ll_ext = score::log_likelihood(&cols.combo_counts(child, &extended).expect("small combo"));
        prop_assert!(ll_ext >= ll_base - 1e-9,
            "L decreased from {} to {}", ll_base, ll_ext);
    }

    // g(T) decomposability: the result's global score is the sum of its
    // per-node local scores recomputed from scratch.
    #[test]
    fn global_score_decomposes(m in status_matrix(5..40, 3..9)) {
        let result = Tends::new().reconstruct(&m).expect("default search fits");
        let cols = m.columns();
        let recomputed: f64 = (0..m.num_nodes() as u32)
            .map(|i| score::local_score(
                &cols.combo_counts(i, &result.node_results[i as usize].parents)
                    .expect("small combo")))
            .sum();
        prop_assert!((result.global_score - recomputed).abs() < 1e-6);
    }

    // IMI symmetry on real matrices.
    #[test]
    fn imi_matrix_is_symmetric(m in status_matrix(2..40, 2..10)) {
        let corr = diffnet::tends::CorrelationMatrix::compute(
            &m.columns(), CorrelationMeasure::Imi);
        let n = m.num_nodes() as u32;
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(corr.get(i, j), corr.get(j, i));
            }
        }
    }

    // The pinned K-means threshold always separates its clusters: every
    // retained candidate pair is strictly above τ, and τ is attained by a
    // pinned-cluster member (or zero).
    #[test]
    fn kmeans_tau_is_a_separator(values in proptest::collection::vec(0.0f64..1.0, 0..200)) {
        let r = diffnet::tends::pinned_two_means(&values);
        let above = values.iter().filter(|&&v| v > r.tau).count();
        prop_assert_eq!(above, r.free_count);
        if r.pinned_count > 0 && !values.is_empty() {
            prop_assert!(values.iter().any(|&v| (v - r.tau).abs() < 1e-15) || r.tau == 0.0);
        }
    }

    // Simulator invariants on random graphs: seeds stay infected and every
    // infected non-seed has a time-(t−1) in-neighbor.
    #[test]
    fn ic_infection_closure(seed in 0u64..1000, p in 0.1f64..0.9) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = diffnet::graph::generators::erdos_renyi_gnm(30, 120, &mut rng);
        let probs = EdgeProbs::constant(&truth, p);
        let obs = IndependentCascade::new(&truth, &probs)
            .observe(IcConfig { initial_ratio: 0.1, num_processes: 5 }, &mut rng);
        for rec in &obs.records {
            for &s in &rec.sources {
                prop_assert_eq!(rec.times[s as usize], 0);
            }
            for i in 0..30u32 {
                let t = rec.times[i as usize];
                if t == diffnet::simulate::UNINFECTED || t == 0 { continue; }
                let ok = truth.in_neighbors(i).iter()
                    .any(|&j| rec.times[j as usize] == t - 1);
                prop_assert!(ok, "node {} infected at {} has no parent at {}", i, t, t - 1);
            }
        }
    }

    // Graph round-trip: any edge set survives CSR construction intact.
    #[test]
    fn graph_edge_round_trip(
        edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60)
    ) {
        let g = DiGraph::from_edges(20, &edges);
        let mut expected: Vec<(NodeId, NodeId)> =
            edges.into_iter().filter(|(u, v)| u != v).collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(g.edge_vec(), expected);
    }

    // F-score identities hold for arbitrary graph pairs.
    #[test]
    fn fscore_identities(
        t_edges in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
        i_edges in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
    ) {
        let truth = DiGraph::from_edges(12, &t_edges);
        let inferred = DiGraph::from_edges(12, &i_edges);
        let cmp = EdgeSetComparison::against_truth(&truth, &inferred);
        prop_assert_eq!(cmp.true_positives + cmp.false_positives, inferred.edge_count());
        prop_assert_eq!(cmp.true_positives + cmp.false_negatives, truth.edge_count());
        let f = cmp.f_score();
        prop_assert!((0.0..=1.0).contains(&f));
        let (p, r) = (cmp.precision(), cmp.recall());
        if p + r > 0.0 {
            prop_assert!((f - 2.0 * p * r / (p + r)).abs() < 1e-9);
        }
    }
}
