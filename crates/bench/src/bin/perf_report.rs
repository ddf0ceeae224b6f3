//! Performance report for the TENDS hot paths, written to
//! `BENCH_micro.json` at the repository root.
//!
//! Measures, at two LFR sizes:
//!
//! * the raw pairwise counting kernel: cache-blocked tiles
//!   ([`NodeColumns::pair_counts_block`]) vs the per-pair column walk,
//!   plus the same tiled row-batched sweep pinned to the runtime-resolved
//!   SIMD tier and to the portable scalar fallback (`simd_s` /
//!   `scalar_s`). The
//!   headline rows use a deep workload (β=8192, 128 words per column)
//!   that times the kernels at streaming depth; the nested
//!   `inference_shape` row keeps the β=150 shape the pipeline sees.
//!   Detected CPU features are recorded in the header;
//! * the IMI correlation matrix, single-threaded vs 8 workers, and the
//!   float work alone over precomputed `n11` counts: the pair evaluator
//!   vs the per-pair `MiCells` definition, with a check that both and the
//!   matrix agree bit for bit (`values_bits_equal`);
//! * the τ threshold: a sort-based pinned 2-means (filter, sort every
//!   kept value, suffix sums) vs the bucketed index the pipeline uses, on
//!   the n=1000, β=150 upper triangle (built from the bucket counts the
//!   matrix pass took) and on a 2¹⁹-value streamed τ sample (with its
//!   count pass), with a check that both give the same τ bits;
//! * one full TENDS reconstruction, 1 vs 8 threads;
//! * the `N_ijk` counting kernel: the recursive bitset kernel vs the
//!   incremental [`CountsWorkspace`] scoring one extension of a cached
//!   base;
//! * the full greedy parent search, at both sizes: cached workspace path
//!   vs the from-scratch reference path, both single-threaded, with the
//!   score cache's hit/miss counts and whether every node's parents, score
//!   bits and search counters agree (`results_equal`);
//! * one instrumented reconstruction (`tends_run_report`): per-phase wall
//!   times and the full observability counter set for the small workload;
//! * checkpoint overhead: the robust reconstruction with per-node
//!   progress persisted atomically every 8 nodes vs the same path with
//!   checkpointing disabled;
//! * incremental append: a deep archived base history (β=153600) plus a
//!   +10% cascade batch, re-estimated warm from the checkpoint's
//!   sufficient statistics vs a full checkpointed re-run of the combined
//!   matrix;
//! * the serving layer over loopback: `/v1/healthz` round-trips per
//!   second and the end-to-end submit→done latency of an HTTP-submitted
//!   job (upload, queue, reconstruction, output writes, status poll),
//!   each with client-side p50/p95/p99 from the same log₂ duration
//!   buckets the daemon exposes on `/v1/metrics`;
//! * the streamed pipeline at n=100,000 (β=64, 512 MiB budget): the τ
//!   sample and the candidate fold with its profiled peak RSS, at the
//!   largest thread count whose estimate fits the budget, against the
//!   same fold evaluating every pair's measure (`fold_reference_s`), with
//!   a check that both give the same candidates and counts
//!   (`results_equal`).
//!
//! Multi-thread speedups are only meaningful on multi-core hardware; on a
//! single-CPU machine the thread-scaling rows are marked
//! `"skipped_single_cpu"` instead of reporting ~1.0x noise as a speedup.
//! The report records `hardware_threads` so the numbers are interpretable.
//! `--quick` (or `DIFFNET_QUICK=1`) shrinks the workloads for smoke runs.

use diffnet_bench::harness::{observe, Setting};
use diffnet_datasets::LfrSpec;
use diffnet_metrics::timed;
use diffnet_observe::{DurationHistogram, Json, Recorder, RunReport};
use diffnet_simulate::{
    CountsWorkspace, ExtensionBatch, Kernels, NodeColumns, SimdMode, StatusMatrix,
};
use diffnet_tends::imi::MiCells;
use diffnet_tends::search::{
    find_parents_reference, find_parents_with, NodeSearchResult, SearchParams,
};
use diffnet_tends::stream::Verdicts;
use diffnet_tends::{
    CorrelationMatrix, CorrelationMeasure, PairEvaluator, PairStats, PinnedKmeans, RobustOptions,
    ScoreCacheStats, SearchScratch, Tends, TendsConfig,
};

/// Median wall-clock seconds of `reps` runs of `f`.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, secs) = timed(&mut f);
            std::hint::black_box(out);
            secs
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    times[times.len() / 2]
}

fn status_workload(n: usize, beta: usize, seed: u64) -> StatusMatrix {
    let spec = LfrSpec {
        name: "perf",
        n,
        mean_degree: 4.0,
        degree_exponent: 2.0,
    };
    let truth = spec.generate(2020);
    let setting = Setting {
        beta,
        seed,
        ..Default::default()
    };
    observe(&truth, &setting).statuses
}

/// Splits a status matrix into its first `at` rows and the rest.
fn split_rows(m: &StatusMatrix, at: usize) -> (StatusMatrix, StatusMatrix) {
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

/// A large synthetic status matrix for the streamed-IMI row: xorshift
/// noise at ~12.5% infection. LFR generation at n=100,000 would dominate
/// the bench wall-clock; the fold's cost is data-independent, so noise
/// times the same work as a real diffusion workload.
fn synthetic_statuses(beta: usize, n: usize, seed: u64) -> StatusMatrix {
    let mut m = StatusMatrix::new(beta, n);
    let mut state = seed | 1;
    for l in 0..beta {
        for i in 0..n as u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state & 7 == 0 {
                m.set(l, i);
            }
        }
    }
    m
}

struct KernelRow {
    n: usize,
    recursive_s: f64,
    workspace_s: f64,
}

/// Times the two counting kernels over every node as child, with a cached
/// 3-parent base and a 2-node extension — the shape of one greedy round.
fn kernel_row(n: usize, cols: &NodeColumns, reps: usize) -> KernelRow {
    let base: Vec<u32> = [0u32, 2, 4]
        .into_iter()
        .filter(|&p| (p as usize) < n)
        .collect();
    let extra: Vec<u32> = [1u32, 3]
        .into_iter()
        .filter(|&p| (p as usize) < n)
        .collect();
    let mut union: Vec<u32> = base.iter().chain(&extra).copied().collect();
    union.sort_unstable();

    let children: Vec<u32> = (5..n as u32).collect();
    let recursive_s = median_secs(reps, || {
        let mut acc = 0u64;
        for &child in &children {
            acc += cols.combo_counts(child, &union).expect("small combo")[0][0];
        }
        acc
    });
    let mut ws = CountsWorkspace::new();
    ws.set_base(cols, &base).expect("small base");
    let mut batch = ExtensionBatch::new();
    batch.push(extra.iter().copied());
    let workspace_s = median_secs(reps, || {
        let mut acc = 0u64;
        for &child in &children {
            ws.extension_counts(cols, child, &batch, |_, counts| acc += counts[0][0])
                .expect("small combo");
        }
        acc
    });
    KernelRow {
        n,
        recursive_s,
        workspace_s,
    }
}

/// Times the full greedy parent search over every node of `cols` with its
/// IMI candidates — the from-scratch reference and the workspace path
/// with the score cache, single-threaded — and checks that both give the
/// same parents, score bits and search counters for every node.
fn greedy_row(n: usize, cols: &NodeColumns, reps: usize) -> Json {
    eprintln!("perf_report: greedy search (n={n})");
    let corr = CorrelationMatrix::compute(cols, CorrelationMeasure::Imi);
    let mut index = corr.index();
    let tau = index.pinned_two_means().tau;
    let params = SearchParams::default();
    let (candidates, _) = index.candidate_lists(n, tau, params.max_candidates);
    let search_all = |search: &mut dyn FnMut(u32, &[u32]) -> NodeSearchResult| {
        candidates
            .iter()
            .enumerate()
            .map(|(i, cands)| search(i as u32, cands))
            .collect::<Vec<_>>()
    };
    let reference = || {
        search_all(&mut |i, cands| {
            find_parents_reference(cols, i, cands, &params).expect("default search fits")
        })
    };
    let workspace = || {
        let mut scratch = SearchScratch::new();
        search_all(&mut |i, cands| {
            find_parents_with(&mut scratch, cols, i, cands, &params).expect("default search fits")
        })
    };
    let reference_s = median_secs(reps.min(3), reference);
    let workspace_s = median_secs(reps.min(3), workspace);
    let (old, new) = (reference(), workspace());
    let results_equal = old.iter().zip(&new).all(|(a, b)| {
        a.parents == b.parents && a.score.to_bits() == b.score.to_bits() && a.stats == b.stats
    });
    let mut cache = ScoreCacheStats::default();
    for res in &new {
        cache.merge(&res.cache_stats);
    }
    let mut row = Json::object();
    row.push("n", n as u64);
    row.push("reference_s", reference_s);
    row.push("cached_workspace_s", workspace_s);
    row.push("speedup", reference_s / workspace_s);
    row.push("score_cache_hits", cache.hits);
    row.push("score_cache_misses", cache.misses);
    row.push("results_equal", results_equal);
    row
}

/// Sum of `n11` over the whole pair triangle through the per-pair walk.
fn per_pair_sweep(cols: &NodeColumns) -> u64 {
    let n = cols.num_nodes();
    let mut acc = 0u64;
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            acc += cols.pair_counts(i, j).n11;
        }
    }
    acc
}

/// Sum of `n11` over the whole pair triangle through the tiled kernel.
fn tiled_sweep(cols: &NodeColumns) -> u64 {
    let n = cols.num_nodes();
    let ones = cols.ones_counts();
    let tile = cols.pair_tile_size();
    let num_tiles = n.div_ceil(tile);
    let mut acc = 0u64;
    for bi in 0..num_tiles {
        let rows = bi * tile..((bi + 1) * tile).min(n);
        for bj in bi..num_tiles {
            let jcols = bj * tile..((bj + 1) * tile).min(n);
            cols.pair_counts_block(rows.clone(), jcols, &ones, &mut |_, _, pc| {
                acc += pc.n11;
            });
        }
    }
    acc
}

/// Sum of `n11` over the pair triangle through an explicit kernel table:
/// the pipeline's row-batched [`NodeColumns::pair_n11_block`] over the
/// same tiles as [`tiled_sweep`] — one `and_popcount_rows` call per tile
/// row segment — with one SIMD tier pinned instead of the process-wide
/// dispatcher, so it times that tier in isolation.
fn forced_sweep(cols: &NodeColumns, k: &Kernels) -> u64 {
    let n = cols.num_nodes();
    let tile = cols.pair_tile_size();
    let num_tiles = n.div_ceil(tile);
    let mut acc = 0u64;
    for bi in 0..num_tiles {
        let rows = bi * tile..((bi + 1) * tile).min(n);
        for bj in bi..num_tiles {
            let jcols = bj * tile..((bj + 1) * tile).min(n);
            cols.pair_n11_block_with(k, rows.clone(), jcols, &mut |_, _, n11s| {
                acc += n11s.iter().sum::<u64>();
            });
        }
    }
    acc
}

/// Times the pair evaluator against the per-pair definition on the whole
/// triangle of `stats` (the `n11` counts precomputed, so only the float
/// work is timed), and checks both, and the matrix `compute` builds, agree
/// bit for bit: `(evaluator_s, per_pair_s, values_bits_equal)`.
fn evaluator_row(cols: &NodeColumns, reps: usize) -> (f64, f64, bool) {
    let measure = CorrelationMeasure::Imi;
    let stats = PairStats::compute(cols, 1);
    let n = stats.num_nodes();
    let eval = PairEvaluator::new(stats.num_processes(), stats.ones(), measure);
    let by_evaluator = || {
        let mut out = vec![0.0f64; stats.n11().len()];
        let mut at = 0;
        for i in 0..n {
            let run = at..at + (n - 1 - i);
            eval.row(i, i + 1, &stats.n11()[run.clone()], &mut out[run.clone()]);
            at = run.end;
        }
        out
    };
    let per_pair = || {
        let mut out = Vec::with_capacity(stats.n11().len());
        for i in 0..n {
            for j in (i + 1)..n {
                out.push(measure.value(&MiCells::from_counts(&stats.pair_counts(i, j))));
            }
        }
        out
    };
    let matrix = CorrelationMatrix::compute(cols, measure);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let reference = bits(&per_pair());
    let values_bits_equal = bits(&by_evaluator()) == reference && bits(matrix.upper()) == reference;
    (
        median_secs(reps, by_evaluator),
        median_secs(reps, per_pair),
        values_bits_equal,
    )
}

/// The pinned 2-means by its definition: keep the finite values `≥ 0`,
/// sort all of them, and take suffix sums right to left — the baseline
/// the bucketed index replaces.
fn sort_based_two_means(values: &[f64]) -> PinnedKmeans {
    let mut vals: Vec<f64> = values
        .iter()
        .copied()
        .filter(|&v| v.is_finite() && v >= 0.0)
        .collect();
    vals.sort_unstable_by(f64::total_cmp);
    let positive_max = vals.last().copied().unwrap_or(0.0);
    if positive_max <= 0.0 {
        return PinnedKmeans {
            tau: 0.0,
            free_centroid: 0.0,
            pinned_count: vals.len(),
            free_count: 0,
            iterations: 0,
        };
    }
    let mut suffix = vec![0.0f64; vals.len() + 1];
    for i in (0..vals.len()).rev() {
        suffix[i] = vals[i] + suffix[i + 1];
    }
    let (mut c, mut boundary, mut iterations) = (positive_max, 0usize, 0usize);
    for it in 1..=100 {
        iterations = it;
        let half = c / 2.0;
        let next = vals.partition_point(|&v| v <= half);
        let next_c = if next < vals.len() {
            suffix[next] / (vals.len() - next) as f64
        } else {
            positive_max
        };
        let converged = next == boundary && (next_c - c).abs() < 1e-12;
        boundary = next;
        c = next_c;
        if converged && it > 1 {
            break;
        }
    }
    PinnedKmeans {
        tau: if boundary == 0 {
            0.0
        } else {
            vals[boundary - 1]
        },
        free_centroid: c,
        pinned_count: boundary,
        free_count: vals.len() - boundary,
        iterations,
    }
}

/// IMI values of `count` pairs of `cols`' upper triangle, every
/// `stride`-th in rank order: the shape of the streamed path's τ sample.
fn systematic_sample(cols: &NodeColumns, count: usize) -> Vec<f64> {
    let n = cols.num_nodes();
    let stride = (n * (n - 1) / 2 / count).max(1);
    let mut values = Vec::with_capacity(count);
    let mut rank = 0usize;
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            if rank.is_multiple_of(stride) && values.len() < count {
                values.push(diffnet_tends::imi::imi(&cols.pair_counts(i, j)));
            }
            rank += 1;
        }
    }
    values
}

/// One `threshold` row: the sort-based 2-means vs `index_two_means` on
/// the same values, and whether their τ bits agree.
fn threshold_row(
    input: &str,
    values: &[f64],
    reps: usize,
    index_two_means: impl Fn(&[f64]) -> PinnedKmeans,
) -> Json {
    let tau_bits_equal =
        sort_based_two_means(values).tau.to_bits() == index_two_means(values).tau.to_bits();
    let sort_s = median_secs(reps, || sort_based_two_means(values));
    let index_s = median_secs(reps, || index_two_means(values));
    let mut row = Json::object();
    row.push("input", input);
    row.push("values", values.len() as u64);
    row.push("sort_s", sort_s);
    row.push("index_s", index_s);
    row.push("speedup", sort_s / index_s);
    row.push("tau_bits_equal", tau_bits_equal);
    row
}

/// A thread-scaling row: on a single-CPU box the multi-thread timing is
/// noise, so the row carries a status instead of a fake "speedup".
fn scaling_row(n: usize, t1: f64, t8: Option<f64>) -> Json {
    let mut row = Json::object();
    row.push("n", n as u64);
    row.push("threads_1_s", t1);
    match t8 {
        Some(t8) => {
            row.push("status", "ok");
            row.push("threads_8_s", t8);
            row.push("speedup", t1 / t8);
        }
        None => {
            row.push("status", "skipped_single_cpu");
        }
    }
    row
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("DIFFNET_QUICK").is_ok_and(|v| v == "1");
    let (n_small, n_large, reps) = if quick { (100, 200, 3) } else { (300, 1000, 5) };
    let beta = 150;
    let hardware_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let multi_core = hardware_threads > 1;

    // Kernel-throughput workload: long columns (many AVX2 lane groups per
    // node) so the pair-kernel timings measure word-stream throughput. At
    // β=150 a column is a single lane group and per-pair call overhead
    // dominates; β=8192 streams 128 words per column pair.
    let (n_deep, beta_deep) = if quick { (120, 2048) } else { (400, 8192) };

    eprintln!("perf_report: generating workloads (n={n_small}, n={n_large}, beta={beta})");
    let small = status_workload(n_small, beta, 11);
    let large = status_workload(n_large, beta, 12);
    let deep = status_workload(n_deep, beta_deep, 13);
    let small_cols = small.columns();
    let large_cols = large.columns();
    let deep_cols = deep.columns();

    // Raw pairwise counting: tiled kernel vs per-pair walk, single-thread,
    // no MI float work — the kernel-level win the tiling is for. Timed at
    // both shapes: the β=150 inference shape and the deep kernel shape.
    eprintln!("perf_report: pair kernel (n={n_large} β={beta}, n={n_deep} β={beta_deep})");
    for cols in [&large_cols, &deep_cols] {
        assert_eq!(
            per_pair_sweep(cols),
            tiled_sweep(cols),
            "kernels must agree before being timed"
        );
    }
    let pair_ref = median_secs(reps, || per_pair_sweep(&large_cols));
    let pair_tiled = median_secs(reps, || tiled_sweep(&large_cols));
    // The same sweep with explicit kernel tables: the resolved tier vs the
    // portable scalar fallback, so the report separates what SIMD buys
    // from what the scalar multi-accumulator loop already buys.
    let auto_k = diffnet_simulate::simd::kernels();
    let scalar_k = Kernels::for_mode(SimdMode::Scalar);
    for cols in [&large_cols, &deep_cols] {
        assert_eq!(
            forced_sweep(cols, auto_k),
            forced_sweep(cols, &scalar_k),
            "dispatch tiers must agree before being timed"
        );
    }
    let deep_ref = median_secs(reps, || per_pair_sweep(&deep_cols));
    let deep_tiled = median_secs(reps, || tiled_sweep(&deep_cols));
    let deep_simd = median_secs(reps, || forced_sweep(&deep_cols, auto_k));
    let deep_scalar = median_secs(reps, || forced_sweep(&deep_cols, &scalar_k));

    // IMI matrix at the large size, 1 vs 8 threads.
    eprintln!("perf_report: IMI matrix (n={n_large})");
    let imi_1 = median_secs(reps, || {
        CorrelationMatrix::compute_parallel(&large_cols, CorrelationMeasure::Imi, 1)
    });
    let imi_8 = multi_core.then(|| {
        median_secs(reps, || {
            CorrelationMatrix::compute_parallel(&large_cols, CorrelationMeasure::Imi, 8)
        })
    });
    let (evaluator_s, per_pair_eval_s, values_bits_equal) = evaluator_row(&large_cols, reps);

    // The τ threshold at the large size (the pipeline's threshold phase:
    // a ranked index, then the 2-means) and on a streamed-size τ sample
    // (the rank-free `pinned_two_means` that `sample_tau` calls), each
    // against the sort-based 2-means.
    let sample_len = if quick { 1 << 16 } else { 1 << 19 };
    eprintln!("perf_report: threshold (n={n_large} triangle, {sample_len}-value sample)");
    let large_corr = CorrelationMatrix::compute(&large_cols, CorrelationMeasure::Imi);
    // n=5000 under a 64 MiB budget: the scale-stream shape, whose τ sample
    // cap is 2¹⁹ pairs.
    let sample_cols = status_workload(if quick { 400 } else { 5000 }, beta, 15).columns();
    let sample = systematic_sample(&sample_cols, sample_len);
    assert_eq!(sample.len(), sample_len, "the sample must fill its cap");
    // The pipeline's path: the index built from the bucket counts the
    // matrix pass took, so only its scatter and the 2-means are timed.
    let mut triangle_row = threshold_row("triangle", large_corr.upper(), reps, |_| {
        large_corr.index().pinned_two_means()
    });
    triangle_row.push("n", n_large as u64);
    triangle_row.push("beta", beta as u64);
    let threshold_rows = vec![
        triangle_row,
        threshold_row(
            "streamed_sample",
            &sample,
            reps,
            diffnet_tends::pinned_two_means,
        ),
    ];
    drop(large_corr);

    // Full reconstruction at the small size, 1 vs 8 threads.
    eprintln!("perf_report: reconstruction (n={n_small})");
    let rec_1 = median_secs(reps.min(3), || {
        Tends::with_config(TendsConfig {
            threads: 1,
            ..Default::default()
        })
        .reconstruct(&small)
        .expect("default search fits")
    });
    let rec_8 = multi_core.then(|| {
        median_secs(reps.min(3), || {
            Tends::with_config(TendsConfig {
                threads: 8,
                ..Default::default()
            })
            .reconstruct(&small)
            .expect("default search fits")
        })
    });

    // Counting kernel at both sizes.
    eprintln!("perf_report: counting kernels");
    let kernels = [
        kernel_row(n_small, &small_cols, reps),
        kernel_row(n_large, &large_cols, reps),
    ];

    // Full greedy parent search (cached workspace vs reference),
    // single-threaded, over every node with its IMI candidates, at both
    // sizes — the larger one is the paper's shape.
    let greedy_rows = [
        greedy_row(n_small, &small_cols, reps),
        greedy_row(n_large, &large_cols, reps),
    ];

    // Checkpoint overhead: the same robust reconstruction with per-node
    // progress persisted at the default interval vs without, at n=300 and
    // at the paper's scale (n=1000, β=150), where the statistics section
    // is ~0.5 MB.
    let ck_path = std::env::temp_dir().join("diffnet_perf_checkpoint.json");
    let ck_interval = RobustOptions::default().checkpoint_interval;
    let ck_tends = || {
        Tends::with_config(TendsConfig {
            threads: 1,
            ..Default::default()
        })
    };
    let ck_rows: Vec<Json> = [(n_small, &small), (n_large, &large)]
        .into_iter()
        .map(|(n, statuses)| {
            eprintln!("perf_report: checkpoint overhead (n={n})");
            // The n=300 sides finish in ~10ms, so the 3-rep cap used for
            // the expensive rows leaves the median dominated by scheduler
            // noise; more reps cost little here and keep overhead_ratio
            // stable.
            let ck_reps = reps.max(9);
            let plain_s = median_secs(ck_reps, || {
                ck_tends()
                    .reconstruct_robust(
                        &statuses.columns(),
                        Recorder::disabled(),
                        &RobustOptions::default(),
                    )
                    .expect("robust run")
            });
            let checkpointed_s = median_secs(ck_reps, || {
                std::fs::remove_file(&ck_path).ok();
                ck_tends()
                    .reconstruct_robust(
                        &statuses.columns(),
                        Recorder::disabled(),
                        &RobustOptions {
                            checkpoint: Some(ck_path.clone()),
                            ..Default::default()
                        },
                    )
                    .expect("checkpointed run")
            });
            let bytes = std::fs::metadata(&ck_path).map_or(0, |m| m.len());
            std::fs::remove_file(&ck_path).ok();
            let mut row = Json::object();
            row.push("n", n as u64);
            row.push("beta", beta as u64);
            row.push("interval_nodes", ck_interval as u64);
            row.push("checkpoint_bytes", bytes);
            row.push("plain_s", plain_s);
            row.push("checkpointed_s", checkpointed_s);
            row.push("overhead_ratio", checkpointed_s / plain_s);
            row
        })
        .collect();

    // Incremental re-estimation: +10% appended cascades, warm-started
    // from the checkpoint's persisted sufficient statistics (count fold
    // over the new columns, then every node's search) vs the old append
    // behavior — dropping the checkpoint and re-running the combined
    // matrix from scratch with checkpointing back on. The workload models
    // what the warm path exists for: a deep archived history (β large
    // enough that per-pair recounting dominates the run) receiving a
    // fresh batch, not a toy matrix where fixed costs drown the counting.
    let (append_base_beta, append_beta) = if quick {
        (2_048, 204)
    } else {
        (153_600, 15_360)
    };
    eprintln!(
        "perf_report: incremental append (n={n_large}, β={append_base_beta}, +{append_beta} cascades)"
    );
    let append_combined = status_workload(n_large, append_base_beta + append_beta, 14);
    let (append_base, appended) = split_rows(&append_combined, append_base_beta);
    let ck_append = std::env::temp_dir().join("diffnet_perf_append_checkpoint.json");
    let append_tends = || {
        Tends::with_config(TendsConfig {
            threads: 1,
            ..Default::default()
        })
    };
    std::fs::remove_file(&ck_append).ok();
    append_tends()
        .reconstruct_robust(
            &append_base.columns(),
            Recorder::disabled(),
            &RobustOptions {
                checkpoint: Some(ck_append.clone()),
                ..Default::default()
            },
        )
        .expect("base run");
    let warm_state = std::fs::read(&ck_append).expect("read base checkpoint");
    let full_rerun_s = median_secs(reps.min(3), || {
        std::fs::remove_file(&ck_append).ok();
        append_tends()
            .reconstruct_robust(
                &append_combined.columns(),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(ck_append.clone()),
                    ..Default::default()
                },
            )
            .expect("full re-run")
    });
    let warm_append = || {
        std::fs::write(&ck_append, &warm_state).expect("restore base checkpoint");
        append_tends()
            .reconstruct_robust(
                &append_combined.columns(),
                Recorder::disabled(),
                &RobustOptions {
                    checkpoint: Some(ck_append.clone()),
                    resume: true,
                    revision: 1,
                    appended: Some(&appended.columns()),
                    ..Default::default()
                },
            )
            .expect("incremental append run")
    };
    // The column transposes stay inside the timed region, as the file
    // load does in the daemon's warm path.
    let incremental_s = median_secs(reps.min(3), &warm_append);
    // The exactness check: the warm result must equal the fresh combined
    // run bit for bit.
    let append_full = append_tends()
        .reconstruct_robust(
            &append_combined.columns(),
            Recorder::disabled(),
            &RobustOptions::default(),
        )
        .expect("fresh combined run")
        .result;
    let append_warm = warm_append();
    assert_eq!(
        append_warm.result.graph, append_full.graph,
        "incremental append must reproduce the fresh combined run"
    );
    std::fs::remove_file(&ck_append).ok();

    // The serving layer over loopback: request throughput on the cheapest
    // endpoint, then the full submit→done latency for the small workload —
    // the price of running inference behind the daemon instead of inline.
    eprintln!("perf_report: serve loopback (n={n_small})");
    let serve_dir = std::env::temp_dir().join(format!("diffnet_perf_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&serve_dir);
    let server = diffnet_serve::Server::bind(&diffnet_serve::ServeConfig {
        data_dir: serve_dir.clone(),
        access_log: false,
        ..Default::default()
    })
    .expect("bind loopback server");
    let addr = server.addr();
    let server_thread = std::thread::spawn(move || server.serve_forever());
    let client = diffnet_serve::Client::new(addr);
    // Throughput curves from the loadgen harness: closed-loop healthz at
    // each connection count, with and without keep-alive, so the report
    // shows how the reactor scales with concurrency and what
    // connection-per-request costs. Latency lands in the same fine-grained
    // buckets the daemon exposes on /v1/metrics, so the rows carry tail
    // percentiles (p50/p95/p99), not batch means.
    let lg_window = if quick {
        std::time::Duration::from_millis(800)
    } else {
        std::time::Duration::from_secs(3)
    };
    let mut curves: Vec<(usize, bool, diffnet_loadgen::LoadReport)> = Vec::new();
    for keep_alive in [true, false] {
        for connections in [1usize, 4, 16, 64] {
            eprintln!(
                "perf_report: loadgen healthz ({connections} conns, keep-alive {keep_alive})"
            );
            let cfg = diffnet_loadgen::LoadgenConfig {
                connections,
                duration: lg_window,
                warmup: std::time::Duration::from_millis(300),
                keep_alive,
                ..diffnet_loadgen::LoadgenConfig::new(addr)
            };
            let summary = diffnet_loadgen::run(&cfg).expect("load run");
            curves.push((connections, keep_alive, summary.best().clone()));
        }
    }
    let best_keepalive = curves
        .iter()
        .filter(|&&(_, ka, _)| ka)
        .map(|(_, _, r)| r)
        .max_by(|a, b| a.ok_rps().total_cmp(&b.ok_rps()))
        .expect("keep-alive curve")
        .clone();
    let mut serve_body = Vec::new();
    diffnet_simulate::io::write_status_matrix(&small, &mut serve_body).expect("serialize statuses");
    let mut submit_hist = DurationHistogram::default();
    let submit_to_done_s = median_secs(reps.min(3), || {
        let (_, secs) = timed(|| {
            let (code, job) = client.post_json("/v1/jobs", &serve_body).expect("submit");
            assert_eq!(code, 201, "{}", job.to_pretty());
            let id = job.get("id").and_then(Json::as_f64).expect("job id") as u64;
            let done = client
                .wait_for_job(id, std::time::Duration::from_secs(300))
                .expect("job finishes");
            assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
        });
        submit_hist.record(secs);
    });
    client.shutdown().expect("shutdown");
    server_thread.join().expect("join").expect("serve loop");
    let _ = std::fs::remove_dir_all(&serve_dir);

    // Streamed IMI at out-of-core scale: τ from the deterministic pair
    // sample, then the tiled fold into bounded sparse candidate
    // accumulators — the dense correlation triangle is never allocated,
    // which is what makes this n feasible at all (its f64 storage for
    // n=100,000 would be ~40 GB). Peak RSS is profiled so the row demonstrates the
    // memory bound, not just the throughput. The thread count is the
    // largest one up to min(8, hardware threads) whose estimate fits the
    // budget: each worker holds its own accumulators.
    let (n_stream, beta_stream) = if quick { (10_000, 64) } else { (100_000, 64) };
    let stream_budget: u64 = 512 << 20;
    let max_candidates = SearchParams::default().max_candidates;
    let stream_threads = (1..=hardware_threads.min(8))
        .rev()
        .find(|&t| {
            diffnet_tends::stream::estimate_streamed_bytes(
                n_stream,
                beta_stream,
                n_stream,
                t,
                max_candidates,
                Some(stream_budget),
            ) <= stream_budget
        })
        .unwrap_or(1);
    eprintln!(
        "perf_report: streamed IMI (n={n_stream}, beta={beta_stream}, threads={stream_threads})"
    );
    let stream_statuses = synthetic_statuses(beta_stream, n_stream, 2020);
    let stream_cols = stream_statuses.columns();
    drop(stream_statuses);
    let stream_profiler =
        diffnet_observe::ResourceProfiler::start(diffnet_observe::DEFAULT_SAMPLE_INTERVAL);
    let (tau_sample, tau_sample_s) = timed(|| {
        diffnet_tends::stream::sample_tau(
            &stream_cols,
            CorrelationMeasure::Imi,
            Some(stream_budget),
            stream_threads,
        )
    });
    let stream_fold = |verdicts| {
        timed(|| {
            diffnet_tends::stream::fold_candidates_with(
                &stream_cols,
                CorrelationMeasure::Imi,
                tau_sample.kmeans.tau,
                max_candidates,
                diffnet_tends::Shard::full(stream_cols.num_nodes()),
                stream_threads,
                verdicts,
            )
        })
    };
    let (fold, fold_s) = stream_fold(Verdicts::Auto);
    let stream_profile = stream_profiler.stop();
    // The reference side: the same fold evaluating every pair's measure.
    eprintln!("perf_report: streamed IMI reference fold (per-pair evaluation)");
    let (fold_ref, fold_reference_s) = stream_fold(Verdicts::PerPair);
    let fold_results_equal = fold.candidates == fold_ref.candidates
        && fold.pairs_above_tau == fold_ref.pairs_above_tau
        && fold.candidate_evictions == fold_ref.candidate_evictions;
    drop(fold_ref);
    drop(stream_cols);

    // One instrumented reconstruction for the per-phase breakdown, so the
    // report shows where the wall-clock goes inside a single run.
    eprintln!("perf_report: instrumented phase breakdown (n={n_small})");
    let recorder = Recorder::new();
    // The library starts from columns; the transpose is recorded here so
    // the breakdown still covers the whole run from the row-major matrix.
    let small_cols = {
        let _p = recorder.phase("status_columns");
        small.columns()
    };
    let _ = Tends::with_config(TendsConfig {
        threads: 1,
        ..Default::default()
    })
    .reconstruct_robust(&small_cols, &recorder, &RobustOptions::default())
    .expect("default search fits")
    .result;
    let run_report = RunReport::new("tends", recorder.snapshot(), 1);

    let mut json = Json::object();
    json.push("generated_by", "perf_report");
    json.push("quick", quick);
    json.push("hardware_threads", hardware_threads as u64);
    json.push("beta", beta as u64);
    json.push(
        "cpu_features",
        Json::Arr(
            Kernels::detected_features()
                .into_iter()
                .map(Json::from)
                .collect(),
        ),
    );
    json.push("simd_dispatch", auto_k.dispatch());

    // Headline rows time the kernels at streaming depth (β=2048); the
    // nested inference_shape row keeps the β=150 tiled-vs-per-pair
    // comparison the reconstruction pipeline actually sees.
    let mut pair = Json::object();
    pair.push("n", n_deep as u64);
    pair.push("beta", beta_deep as u64);
    pair.push("tile_size", deep_cols.pair_tile_size() as u64);
    pair.push("dispatch", auto_k.dispatch());
    pair.push("per_pair_s", deep_ref);
    pair.push("tiled_s", deep_tiled);
    pair.push("speedup", deep_ref / deep_tiled);
    pair.push("simd_s", deep_simd);
    pair.push("simd_speedup", deep_ref / deep_simd);
    pair.push("scalar_s", deep_scalar);
    pair.push("scalar_speedup", deep_ref / deep_scalar);
    let mut pair_inf = Json::object();
    pair_inf.push("n", n_large as u64);
    pair_inf.push("beta", beta as u64);
    pair_inf.push("tile_size", large_cols.pair_tile_size() as u64);
    pair_inf.push("per_pair_s", pair_ref);
    pair_inf.push("tiled_s", pair_tiled);
    pair_inf.push("speedup", pair_ref / pair_tiled);
    pair.push("inference_shape", pair_inf);
    json.push("pair_kernel", pair);

    let mut imi_row = scaling_row(n_large, imi_1, imi_8);
    imi_row.push("evaluator_s", evaluator_s);
    imi_row.push("per_pair_s", per_pair_eval_s);
    imi_row.push("evaluator_speedup", per_pair_eval_s / evaluator_s);
    imi_row.push("values_bits_equal", values_bits_equal);
    json.push("imi_matrix", imi_row);
    json.push("threshold", Json::Arr(threshold_rows));
    json.push("reconstruction", scaling_row(n_small, rec_1, rec_8));

    let rows: Vec<Json> = kernels
        .iter()
        .map(|k| {
            let mut row = Json::object();
            row.push("n", k.n as u64);
            row.push("recursive_s", k.recursive_s);
            row.push("workspace_s", k.workspace_s);
            row.push("speedup", k.recursive_s / k.workspace_s);
            row
        })
        .collect();
    json.push("counting_kernel", rows);

    json.push("greedy_search", Json::Arr(greedy_rows.into()));

    json.push("checkpoint_overhead", Json::Arr(ck_rows));

    let mut append_row = Json::object();
    append_row.push("n", n_large as u64);
    append_row.push("base_processes", append_base_beta as u64);
    append_row.push("appended_processes", append_beta as u64);
    append_row.push("checkpoint_bytes", warm_state.len() as u64);
    append_row.push("full_rerun_s", full_rerun_s);
    append_row.push("incremental_s", incremental_s);
    append_row.push("speedup", full_rerun_s / incremental_s);
    json.push("incremental_append", append_row);

    let mut serve = Json::object();
    serve.push("n", n_small as u64);
    serve.push("healthz_rps", best_keepalive.ok_rps());
    serve.push("healthz_p50_s", best_keepalive.hist.quantile(0.50));
    serve.push("healthz_p95_s", best_keepalive.hist.quantile(0.95));
    serve.push("healthz_p99_s", best_keepalive.hist.quantile(0.99));
    let mut throughput = Vec::new();
    for (connections, keep_alive, r) in &curves {
        let mut row = Json::object();
        row.push("connections", *connections as u64);
        row.push("keep_alive", *keep_alive);
        row.push("rps", r.ok_rps());
        row.push("requests", r.requests);
        row.push("errors", r.requests - r.ok);
        row.push("p50_s", r.hist.quantile(0.50));
        row.push("p95_s", r.hist.quantile(0.95));
        row.push("p99_s", r.hist.quantile(0.99));
        throughput.push(row);
    }
    serve.push("throughput", Json::Arr(throughput));
    serve.push("submit_to_done_s", submit_to_done_s);
    serve.push("submit_to_done_p50_s", submit_hist.quantile(0.50));
    serve.push("submit_to_done_p95_s", submit_hist.quantile(0.95));
    serve.push("submit_to_done_p99_s", submit_hist.quantile(0.99));
    json.push("serve_loopback", serve);

    let mut streaming = Json::object();
    streaming.push("n", n_stream as u64);
    streaming.push("beta", beta_stream as u64);
    streaming.push("threads", stream_threads as u64);
    streaming.push("memory_budget_bytes", stream_budget);
    streaming.push("tau_sample_s", tau_sample_s);
    streaming.push("tau_sample_pairs", tau_sample.sampled_pairs);
    streaming.push("tau_sample_stride", tau_sample.stride);
    streaming.push("tau", tau_sample.kmeans.tau);
    streaming.push("fold_s", fold_s);
    streaming.push("fold_reference_s", fold_reference_s);
    streaming.push("fold_speedup", fold_reference_s / fold_s);
    streaming.push("results_equal", fold_results_equal);
    streaming.push("scanned_pairs", fold.scanned_pairs);
    streaming.push("pairs_per_s", fold.scanned_pairs as f64 / fold_s);
    streaming.push("tiles", fold.tiles);
    streaming.push("values_evaluated", fold.values_evaluated);
    streaming.push("pairs_above_tau", fold.pairs_above_tau);
    streaming.push("candidate_evictions", fold.candidate_evictions);
    streaming.push("peak_rss_bytes", stream_profile.peak_rss_bytes);
    streaming.push(
        "under_budget",
        stream_profile.peak_rss_bytes < stream_budget,
    );
    json.push("streaming_imi", streaming);

    json.push("tends_run_report", run_report.to_json());

    let text = json.to_pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");
    std::fs::write(path, &text).expect("write BENCH_micro.json");
    println!("{text}");
    eprintln!("perf_report: wrote {path}");
}
