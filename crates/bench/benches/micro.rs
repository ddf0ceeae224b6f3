//! Criterion micro-benchmarks for the hot paths of the workspace:
//! simulation throughput, the `N_ijk` counting kernels, the IMI matrix,
//! threshold clustering, full TENDS reconstruction, and each baseline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use diffnet_baselines::{Lift, MulTree, NetRate, NetRateConfig};
use diffnet_datasets::lfr_suite;
use diffnet_graph::DiGraph;
use diffnet_simulate::{
    CountsWorkspace, EdgeProbs, ExtensionBatch, IcConfig, IndependentCascade, ObservationSet,
};
use diffnet_tends::search::{find_parents_reference, find_parents_with};
use diffnet_tends::{
    pinned_two_means, BucketIndex, CorrelationMatrix, CorrelationMeasure, SearchParams,
    SearchScratch, Tends,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(n_index: usize) -> (DiGraph, ObservationSet) {
    let spec = &lfr_suite()[n_index];
    let truth = spec.generate(2020);
    let mut rng = StdRng::seed_from_u64(42);
    let probs = EdgeProbs::gaussian(&truth, 0.3, 0.05, &mut rng);
    let obs = IndependentCascade::new(&truth, &probs).observe(
        IcConfig {
            initial_ratio: 0.15,
            num_processes: 150,
        },
        &mut rng,
    );
    (truth, obs)
}

fn bench_simulation(c: &mut Criterion) {
    let spec = &lfr_suite()[2]; // n = 200
    let truth = spec.generate(2020);
    let mut rng = StdRng::seed_from_u64(42);
    let probs = EdgeProbs::gaussian(&truth, 0.3, 0.05, &mut rng);
    let sim = IndependentCascade::new(&truth, &probs);
    c.bench_function("simulate/ic_150_processes_n200", |b| {
        b.iter(|| {
            let obs = sim.observe(
                IcConfig {
                    initial_ratio: 0.15,
                    num_processes: 150,
                },
                &mut rng,
            );
            black_box(obs.statuses.infected_fraction())
        })
    });
}

fn bench_counting_kernels(c: &mut Criterion) {
    let (_, obs) = workload(2);
    let cols = obs.statuses.columns();
    let mut group = c.benchmark_group("counting");
    group.bench_function("pair_counts_all_pairs_n200", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..200u32 {
                for j in (i + 1)..200u32 {
                    acc += cols.pair_counts(i, j).n11;
                }
            }
            black_box(acc)
        })
    });
    for f in [1usize, 3, 5] {
        let parents: Vec<u32> = (1..=f as u32).collect();
        group.bench_with_input(
            BenchmarkId::new("combo_counts_bitset", f),
            &parents,
            |b, parents| b.iter(|| black_box(cols.combo_counts(0, parents))),
        );
        group.bench_with_input(
            BenchmarkId::new("combo_counts_rowscan", f),
            &parents,
            |b, parents| b.iter(|| black_box(obs.statuses.combo_counts(0, parents))),
        );
        // Incremental path: the base partition is cached once and only the
        // last parent is refined per query, as in one greedy round.
        let (base, extra) = parents.split_at(f.saturating_sub(1));
        let mut ws = CountsWorkspace::new();
        ws.set_base(&cols, base).expect("small base");
        let mut batch = ExtensionBatch::new();
        batch.push(extra.iter().copied());
        group.bench_with_input(
            BenchmarkId::new("combo_counts_workspace", f),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let mut first = [0u64; 2];
                    ws.extension_counts(&cols, 0, batch, |_, counts| first = counts[0])
                        .expect("small combo");
                    black_box(first)
                })
            },
        );
    }
    group.finish();
}

fn bench_greedy_search(c: &mut Criterion) {
    // The full per-node parent search (candidate pruning already done),
    // workspace path vs the from-scratch reference path.
    let (_, obs) = workload(2);
    let cols = obs.statuses.columns();
    let corr = CorrelationMatrix::compute(&cols, CorrelationMeasure::Imi);
    let mut index = BucketIndex::new(corr.upper());
    let tau = index.pinned_two_means().tau;
    let params = SearchParams::default();
    let (candidates, _) = index.candidate_lists(cols.num_nodes(), tau, params.max_candidates);
    let mut group = c.benchmark_group("greedy_n200");
    group.sample_size(10);
    group.bench_function("find_parents_reference", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for (i, cands) in candidates.iter().enumerate() {
                acc += find_parents_reference(&cols, i as u32, cands, &params)
                    .expect("default search fits")
                    .stats
                    .evaluations;
            }
            black_box(acc)
        })
    });
    group.bench_function("find_parents_workspace", |b| {
        b.iter(|| {
            let mut scratch = SearchScratch::new();
            let mut acc = 0usize;
            for (i, cands) in candidates.iter().enumerate() {
                acc += find_parents_with(&mut scratch, &cols, i as u32, cands, &params)
                    .expect("default search fits")
                    .stats
                    .evaluations;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_imi_and_kmeans(c: &mut Criterion) {
    let (_, obs) = workload(2);
    let cols = obs.statuses.columns();
    c.bench_function("imi/matrix_n200", |b| {
        b.iter(|| black_box(CorrelationMatrix::compute(&cols, CorrelationMeasure::Imi)))
    });
    let corr = CorrelationMatrix::compute(&cols, CorrelationMeasure::Imi);
    c.bench_function("kmeans/pinned_two_means_n200", |b| {
        b.iter(|| black_box(pinned_two_means(corr.upper())))
    });
}

fn bench_reconstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruct");
    group.sample_size(10);
    for (idx, label) in [(0usize, "n100"), (2, "n200"), (4, "n300")] {
        let (_, obs) = workload(idx);
        group.bench_function(BenchmarkId::new("tends", label), |b| {
            b.iter(|| {
                black_box(
                    Tends::new()
                        .reconstruct(&obs.statuses)
                        .expect("default search fits"),
                )
            })
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let (truth, obs) = workload(2);
    let m = truth.edge_count();
    let mut group = c.benchmark_group("baselines_n200");
    group.sample_size(10);
    group.bench_function("netrate_200_iters", |b| {
        let nr = NetRate::with_config(NetRateConfig {
            max_iters: 200,
            ..Default::default()
        });
        b.iter(|| black_box(nr.infer(&obs)))
    });
    group.bench_function("multree", |b| {
        b.iter(|| black_box(MulTree::new().infer(&obs, m)))
    });
    group.bench_function("lift", |b| b.iter(|| black_box(Lift::new().infer(&obs, m))));
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_counting_kernels,
    bench_greedy_search,
    bench_imi_and_kmeans,
    bench_reconstruction,
    bench_baselines
);
criterion_main!(benches);
