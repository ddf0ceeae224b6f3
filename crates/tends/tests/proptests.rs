//! Property-based tests for checkpoint/resume: resuming from *any*
//! prefix of a checkpoint, at any thread count, must reproduce the
//! uninterrupted run bit for bit; corrupting the persisted artifacts in
//! arbitrary ways must yield typed errors, never panics.

use std::path::PathBuf;

use diffnet_graph::DiGraph;
use diffnet_observe::{Recorder, RunReport};
use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade, NodeColumns, StatusMatrix};
use diffnet_tends::{Checkpoint, CheckpointError, RobustOptions, Tends, TendsConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A reciprocal chain: every edge is recoverable, so runs are stable
/// across proptest cases while the observations vary.
fn chain(n: u32) -> DiGraph {
    let mut edges = Vec::new();
    for i in 0..n - 1 {
        edges.push((i, i + 1));
        edges.push((i + 1, i));
    }
    DiGraph::from_edges(n as usize, &edges)
}

fn observe(truth: &DiGraph, beta: usize, seed: u64) -> StatusMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let probs = EdgeProbs::constant(truth, 0.4);
    IndependentCascade::new(truth, &probs)
        .observe(
            IcConfig {
                initial_ratio: 0.3,
                num_processes: beta,
            },
            &mut rng,
        )
        .statuses
}

fn cols(m: &StatusMatrix) -> NodeColumns {
    m.columns()
}

/// Splits a status matrix into its first `at` rows and the rest.
fn split_statuses(m: &StatusMatrix, at: usize) -> (StatusMatrix, StatusMatrix) {
    let n = m.num_nodes();
    let mut base = StatusMatrix::new(at, n);
    let mut rest = StatusMatrix::new(m.num_processes() - at, n);
    for l in 0..m.num_processes() {
        for i in 0..n as u32 {
            if m.get(l, i) {
                if l < at {
                    base.set(l, i);
                } else {
                    rest.set(l - at, i);
                }
            }
        }
    }
    (base, rest)
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("diffnet_tends_proptests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}_{tag}.json", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Crash-after-k-nodes simulation: write a full checkpoint, keep only
    // the first k entries, resume. The graph, the score bits, and the
    // deterministic report sections must all match the uninterrupted run
    // at 1 and 4 threads. β is drawn from 65..128, so the status matrix
    // always has a partial trailing word (β not a multiple of 64).
    #[test]
    fn resume_from_any_prefix_is_bit_identical(
        beta in 65usize..128,
        k in 0usize..8,
        seed in 0u64..1000,
    ) {
        let truth = chain(8);
        let statuses = observe(&truth, beta, seed);
        for threads in [1usize, 4] {
            let tends = Tends::with_config(TendsConfig { threads, ..Default::default() });
            let rec = Recorder::new();
            let full = tends.reconstruct_robust(&cols(&statuses), &rec, &RobustOptions::default()).expect("search fits").result;
            let full_report = RunReport::new("tends", rec.snapshot(), threads);

            let path = temp_path(&format!("prefix_b{beta}_k{k}_s{seed}_t{threads}"));
            std::fs::remove_file(&path).ok();
            let opts = RobustOptions {
                checkpoint: Some(path.clone()),
                checkpoint_interval: 2,
                ..Default::default()
            };
            let rec2 = Recorder::new();
            tends.reconstruct_robust(&cols(&statuses), &rec2, &opts).expect("checkpointed run");

            let ck = Checkpoint::load(&path).expect("load checkpoint");
            prop_assert_eq!(ck.entries.len(), 8);
            let mut cut = ck.clone();
            cut.entries = ck.entries.iter().take(k).map(|(&i, e)| (i, e.clone())).collect();
            cut.save(&path).expect("save prefix");

            let rec3 = Recorder::new();
            let resumed = tends
                .reconstruct_robust(
                    &cols(&statuses),
                    &rec3,
                    &RobustOptions {
                        checkpoint: Some(path.clone()),
                        resume: true,
                        checkpoint_interval: 2,
                        ..Default::default()
                    },
                )
                .expect("resumed run");
            std::fs::remove_file(&path).ok();

            prop_assert!(resumed.is_complete());
            prop_assert_eq!(resumed.resumed_nodes, k);
            prop_assert_eq!(&resumed.result.graph, &full.graph);
            prop_assert_eq!(
                resumed.result.global_score.to_bits(),
                full.global_score.to_bits()
            );
            let resumed_report = RunReport::new("tends", rec3.snapshot(), threads);
            prop_assert_eq!(
                resumed_report.deterministic_json(),
                full_report.deterministic_json()
            );
        }
    }

    // Truncating a valid checkpoint at any byte either fails typed or —
    // because the delta-log format tolerates a torn final line, the
    // signature of a crash mid-append — loads as a faithful *prefix* of
    // the original: same header (fingerprint, revision, stats), every
    // surviving entry byte-equal to the original's. Never a panic, never
    // an I/O error for bytes that were read fine, never an entry the
    // original run didn't write.
    #[test]
    fn truncated_checkpoints_fail_typed(cut in any::<usize>(), seed in 0u64..100) {
        let truth = chain(6);
        let statuses = observe(&truth, 90, seed);
        let path = temp_path(&format!("trunc_s{seed}"));
        std::fs::remove_file(&path).ok();
        let opts = RobustOptions {
            checkpoint: Some(path.clone()),
            checkpoint_interval: 1,
            ..Default::default()
        };
        Tends::with_config(TendsConfig::default())
            .reconstruct_robust(&cols(&statuses), Recorder::disabled(), &opts)
            .expect("checkpointed run");
        let full = Checkpoint::load(&path).expect("load full checkpoint");
        let bytes = std::fs::read(&path).expect("checkpoint bytes");
        let cut = cut % bytes.len();
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        match Checkpoint::load(&path) {
            Ok(ck) => {
                prop_assert_eq!(&ck.fingerprint, &full.fingerprint);
                prop_assert_eq!(ck.revision, full.revision);
                prop_assert_eq!(&ck.stats, &full.stats);
                prop_assert!(ck.entries.len() <= full.entries.len());
                for (id, entry) in &ck.entries {
                    prop_assert_eq!(Some(entry), full.entries.get(id));
                }
            }
            Err(CheckpointError::Parse(_) | CheckpointError::Format(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    // The header and the statistics section are written atomically, so
    // any change to them is corruption: flipping one of their bytes makes
    // the load fail typed or, where the edit leaves a loadable header (a
    // fingerprint or revision digit), makes the resume fail typed. Never
    // a panic, never a silent resume.
    #[test]
    fn flipped_header_or_section_bytes_fail_typed(
        at in any::<usize>(),
        mask in 1u8..=255,
        seed in 0u64..100,
    ) {
        let truth = chain(6);
        let statuses = observe(&truth, 90, seed);
        let path = temp_path(&format!("flip_s{seed}"));
        std::fs::remove_file(&path).ok();
        let tends = Tends::with_config(TendsConfig::default());
        let mut opts = RobustOptions {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        tends
            .reconstruct_robust(&cols(&statuses), Recorder::disabled(), &opts)
            .expect("checkpointed run");
        let (header, section) = Checkpoint::load(&path).expect("load checkpoint").header();
        let mut bytes = std::fs::read(&path).expect("checkpoint bytes");
        // The header line, the section, and their two newlines.
        let at = at % (header.len() + section.len() + 2);
        bytes[at] ^= mask;
        std::fs::write(&path, &bytes).expect("write flipped");
        let loaded = Checkpoint::load(&path);
        opts.resume = true;
        let resumed = tends.reconstruct_robust(&cols(&statuses), Recorder::disabled(), &opts);
        std::fs::remove_file(&path).ok();
        match resumed {
            Err(
                CheckpointError::Parse(_)
                | CheckpointError::Format(_)
                | CheckpointError::Mismatch { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error kind at byte {at}: {other}"),
            Ok(_) => prop_assert!(false, "byte {at} ^ {mask:#04x} resumed silently: {loaded:?}"),
        }
    }

    // Incremental re-estimation oracle: for a random base/append split of
    // a random observation set, warm-starting from the base run's
    // checkpoint must reproduce the fresh combined-matrix run bit for bit
    // — same edges, same scores, same candidates — after folding exactly
    // the appended rows into the statistics. The SIMD axis
    // comes from the process environment: CI re-runs this suite under
    // `DIFFNET_SIMD=scalar`, so both the auto and scalar tiers pin the
    // same property.
    #[test]
    fn incremental_append_matches_fresh_combined_run(
        beta in 65usize..256,
        split_pct in 50usize..95,
        seed in 0u64..1000,
    ) {
        let n = 10u32;
        let truth = chain(n);
        let statuses = observe(&truth, beta, seed);
        let at = (beta * split_pct / 100).max(1);
        let (base, appended) = split_statuses(&statuses, at);
        for threads in [1usize, 4] {
            let tends = Tends::with_config(TendsConfig { threads, ..Default::default() });
            let fresh = tends
                .reconstruct_robust(
                    &cols(&statuses),
                    Recorder::disabled(),
                    &RobustOptions::default(),
                )
                .expect("fresh combined run")
                .result;

            let path = temp_path(&format!("append_b{beta}_p{split_pct}_s{seed}_t{threads}"));
            std::fs::remove_file(&path).ok();
            tends
                .reconstruct_robust(
                    &cols(&base),
                    Recorder::disabled(),
                    &RobustOptions {
                        checkpoint: Some(path.clone()),
                        checkpoint_interval: 4,
                        ..Default::default()
                    },
                )
                .expect("base run");
            let rec = Recorder::new();
            let warm = tends
                .reconstruct_robust(
                    &cols(&statuses),
                    &rec,
                    &RobustOptions {
                        checkpoint: Some(path.clone()),
                        resume: true,
                        checkpoint_interval: 4,
                        revision: 1,
                        appended: Some(&cols(&appended)),
                        ..Default::default()
                    },
                )
                .expect("warm append run");
            std::fs::remove_file(&path).ok();

            prop_assert!(warm.is_complete());
            prop_assert_eq!(&warm.result.graph, &fresh.graph);
            prop_assert_eq!(
                warm.result.global_score.to_bits(),
                fresh.global_score.to_bits()
            );
            for (w, f) in warm.result.node_results.iter().zip(&fresh.node_results) {
                prop_assert_eq!(&w.candidates, &f.candidates);
                prop_assert_eq!(&w.parents, &f.parents);
                prop_assert_eq!(w.score.to_bits(), f.score.to_bits());
            }
            let counters = rec.snapshot().counters;
            prop_assert_eq!(
                counters.get("append_processes").copied(),
                Some(appended.num_processes() as u64)
            );
        }
    }

    // Truncating a saved status matrix at any byte is a typed error (or a
    // still-valid shorter file is impossible thanks to the count header);
    // never a panic, never a silently shorter matrix.
    #[test]
    fn truncated_status_matrices_fail_typed(cut in 0usize..2000, seed in 0u64..100) {
        let truth = chain(6);
        let statuses = observe(&truth, 70, seed);
        let path = temp_path(&format!("status_c{cut}_s{seed}"));
        diffnet_simulate::io::save_status_matrix(&statuses, &path).expect("save");
        let bytes = std::fs::read(&path).expect("status bytes");
        let cut = cut.min(bytes.len().saturating_sub(1));
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        match diffnet_simulate::io::load_status_matrix(&path) {
            // A cut inside the header comment leaves a legacy headerless
            // file with zero rows — an empty matrix, never a silently
            // shorter non-empty one.
            Ok(m) => prop_assert!(
                m == statuses || m.num_processes() == 0,
                "truncated file loaded as a {}-row matrix",
                m.num_processes()
            ),
            Err(e) => {
                // Any typed error is fine; reaching here without a panic
                // is the property. Exercise Display for coverage.
                let _ = e.to_string();
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Streamed-vs-dense oracle: over random n, β, memory budgets, thread
    // counts, and shard counts, the streamed sparse-candidate pipeline
    // must reproduce the dense-matrix pipeline bit for bit — same τ,
    // same per-node candidates and parents, same edge set. β is drawn
    // across a word boundary and up past 2048 so the pair-tile size
    // shrinks and shard boundaries land *inside* tiles, exercising the
    // partial-block filtering of the fold.
    #[test]
    fn streamed_matches_dense_across_shapes(
        n in 10u32..40,
        beta_base in 60usize..130,
        big_beta in 0usize..2,
        budget_mb in 1u64..64,
        threads_sel in 0usize..2,
        shards in 1usize..5,
        seed in 0u64..1000,
    ) {
        // big_beta pushes β past 2048 so the pair tile shrinks to 48
        // nodes and shard boundaries land inside tiles.
        let beta = beta_base + big_beta * 1992;
        let threads = [1usize, 4][threads_sel];
        let truth = chain(n);
        let statuses = observe(&truth, beta, seed);
        let budget = Some(budget_mb << 20);
        let dense = Tends::new().reconstruct(&statuses).expect("dense run");
        let streamed = Tends::with_config(TendsConfig {
            memory_budget: budget,
            threads,
            ..Default::default()
        })
        .reconstruct(&statuses)
        .expect("streamed run");
        prop_assert_eq!(dense.tau.to_bits(), streamed.tau.to_bits());
        prop_assert_eq!(&dense.graph, &streamed.graph);
        for (d, s) in dense.node_results.iter().zip(&streamed.node_results) {
            prop_assert_eq!(&d.candidates, &s.candidates);
            prop_assert_eq!(&d.parents, &s.parents);
            prop_assert_eq!(d.score.to_bits(), s.score.to_bits());
        }
        // Shard the same reconstruction and union the edges: must equal
        // the unsharded (and therefore the dense) edge set. Same budget
        // everywhere, so every shard computes the same τ.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for shard in diffnet_tends::plan_shards(n as usize, shards) {
            let part = Tends::with_config(TendsConfig {
                memory_budget: budget,
                shard: Some(shard),
                threads,
                ..Default::default()
            })
            .reconstruct(&statuses)
            .expect("shard run");
            prop_assert_eq!(part.tau.to_bits(), streamed.tau.to_bits());
            edges.extend(part.graph.edges());
        }
        edges.sort_unstable();
        edges.dedup();
        prop_assert_eq!(edges, dense.graph.edge_vec());
    }

    // Hostile input to the streamed (mmap-backed) column loader: any
    // byte-level truncation of a valid status file must produce a typed
    // error or a correct smaller parse — never a panic, and never a
    // silently wrong column view.
    #[test]
    fn truncated_streamed_columns_fail_typed(cut in 0usize..2000, seed in 0u64..100) {
        let truth = chain(8);
        let statuses = observe(&truth, 40, seed);
        let mut bytes = Vec::new();
        diffnet_simulate::io::write_status_matrix(&statuses, &mut bytes).expect("write");
        let path = temp_path("stream_trunc");
        let cut = cut.min(bytes.len().saturating_sub(1));
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        match diffnet_simulate::io::load_status_columns(&path) {
            Ok(cols) => prop_assert!(
                cols == statuses.columns() || cols.num_processes() == 0,
                "truncated file loaded as a {}-process column view",
                cols.num_processes()
            ),
            Err(e) => {
                let _ = e.to_string();
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
