//! Property-based tests for the simulation substrate.

use diffnet_graph::NodeId;
use diffnet_simulate::{
    io, ComboSizeError, CountsWorkspace, DiffusionRecord, EdgeProbs, IcConfig, IndependentCascade,
    Kernels, LinearThreshold, ObservationSet, SimdMode, StatusMatrix, TableRoute,
    LATTICE_MAX_CANDIDATES, UNINFECTED,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn status_matrix(
    beta: std::ops::Range<usize>,
    n: std::ops::Range<usize>,
) -> impl Strategy<Value = StatusMatrix> {
    (beta, n).prop_flat_map(|(b, n)| {
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), n), b)
            .prop_map(|rows| StatusMatrix::from_rows(&rows))
    })
}

/// Status matrices whose process counts stress every SIMD tail shape:
/// `1..=65` covers sub-word, exact-word, and word-plus-one columns; 127
/// and 255 end mid-word past the first; 2051 spans 33 words — multiple
/// AVX2 lane groups plus a scalar tail.
fn simd_matrix() -> impl Strategy<Value = StatusMatrix> {
    let beta = (0usize..68).prop_map(|i| match i {
        0..=64 => i + 1,
        65 => 127,
        66 => 255,
        _ => 2051,
    });
    (beta, 1usize..10).prop_flat_map(|(b, n)| {
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), n), b)
            .prop_map(|rows| StatusMatrix::from_rows(&rows))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Pair counts always partition β, for every pair.
    #[test]
    fn pair_counts_partition(m in status_matrix(0..50, 1..12)) {
        let cols = m.columns();
        let n = m.num_nodes() as u32;
        for i in 0..n {
            for j in 0..n {
                let pc = cols.pair_counts(i, j);
                prop_assert_eq!(pc.total(), m.num_processes() as u64);
            }
        }
    }

    // Column ones equal row-wise infection counts.
    #[test]
    fn column_ones_match_infection_counts(m in status_matrix(0..60, 1..10)) {
        let cols = m.columns();
        for i in 0..m.num_nodes() as u32 {
            prop_assert_eq!(cols.ones(i), m.infection_count(i) as u64);
        }
    }

    // Status-matrix serialization round-trips arbitrary matrices.
    #[test]
    fn status_io_round_trip(m in status_matrix(0..30, 1..20)) {
        let mut buf = Vec::new();
        io::write_status_matrix(&m, &mut buf).expect("write");
        let back = io::read_status_matrix(buf.as_slice()).expect("read");
        prop_assert_eq!(back, m);
    }

    // Observation serialization round-trips arbitrary consistent records.
    #[test]
    fn observation_io_round_trip(
        raw in proptest::collection::vec(
            proptest::collection::vec(proptest::option::of(0u32..8), 1..8),
            0..6,
        )
    ) {
        // Normalize to a consistent record set: times Some(t) = infected.
        let n = raw.first().map_or(1, |r| r.len());
        let records: Vec<DiffusionRecord> = raw
            .into_iter()
            .map(|r| {
                let mut times: Vec<u32> = r
                    .into_iter()
                    .chain(std::iter::repeat(None))
                    .take(n)
                    .map(|t| t.map_or(UNINFECTED, |v| v))
                    .collect();
                // Ensure at least one seed if anything is infected.
                let mut sources: Vec<NodeId> = times
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| t == 0)
                    .map(|(i, _)| i as NodeId)
                    .collect();
                if sources.is_empty() {
                    if let Some(first_infected) =
                        times.iter().position(|&t| t != UNINFECTED)
                    {
                        times[first_infected] = 0;
                        sources.push(first_infected as NodeId);
                    }
                }
                DiffusionRecord { sources, times }
            })
            .collect();
        let mut statuses = StatusMatrix::new(records.len(), n);
        for (l, rec) in records.iter().enumerate() {
            for i in 0..n as NodeId {
                if rec.infected(i) {
                    statuses.set(l, i);
                }
            }
        }
        let obs = ObservationSet::new(statuses, records);
        let mut buf = Vec::new();
        io::write_observations(&obs, &mut buf).expect("write");
        let back = io::read_observations(buf.as_slice()).expect("read");
        prop_assert_eq!(back.records, obs.records);
        prop_assert_eq!(back.statuses, obs.statuses);
    }

    // IC and LT runs agree with their own records on any ER graph.
    #[test]
    fn simulators_are_internally_consistent(
        seed in 0u64..500,
        p in 0.05f64..0.95,
        lt in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = diffnet_graph::generators::erdos_renyi_gnm(25, 80, &mut rng);
        let probs = EdgeProbs::constant(&g, p);
        let cfg = IcConfig { initial_ratio: 0.12, num_processes: 4 };
        let obs = if lt {
            LinearThreshold::new(&g, &probs).observe(cfg, &mut rng)
        } else {
            IndependentCascade::new(&g, &probs).observe(cfg, &mut rng)
        };
        for (l, rec) in obs.records.iter().enumerate() {
            prop_assert_eq!(rec.sources.len(), 3, "⌈0.12·25⌉");
            for i in 0..25u32 {
                prop_assert_eq!(rec.infected(i), obs.statuses.get(l, i as NodeId));
                let t = rec.times[i as usize];
                if t != UNINFECTED && t > 0 {
                    // Infected non-seed must have an infected in-neighbor
                    // strictly earlier.
                    let ok = g.in_neighbors(i).iter()
                        .any(|&j| {
                            let tj = rec.times[j as usize];
                            tj != UNINFECTED && tj < t
                        });
                    prop_assert!(ok, "node {} at {} unexplained", i, t);
                }
            }
        }
    }

    // Every forced dispatch tier computes bit-identical results to the
    // portable scalar kernels on arbitrary word slices. Unavailable tiers
    // degrade (with a warning) to the best available one, so this passes
    // on any host; on AVX2 machines it exercises all three code paths.
    #[test]
    fn simd_tiers_match_scalar_kernels(
        (a, b, c) in (0usize..40).prop_flat_map(|len| {
            let w = || proptest::collection::vec(any::<u64>(), len);
            (w(), w(), w())
        })
    ) {
        let naive_pc = |s: &[u64]| s.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        let and: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        let and3: Vec<u64> = and.iter().zip(&c).map(|(x, y)| x & y).collect();
        for mode in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Popcnt, SimdMode::Scalar] {
            let k = Kernels::for_mode(mode);
            prop_assert_eq!(k.popcount(&a), naive_pc(&a));
            prop_assert_eq!(k.and_popcount(&a, &b), naive_pc(&and));
            prop_assert_eq!(k.and_self_popcount(&a, &b), (naive_pc(&and), naive_pc(&a)));
            if !a.is_empty() {
                let mut one = [[0u64; 2]];
                k.and3_popcount_rows(&a, a.len(), &b, &c, &mut one);
                prop_assert_eq!(one[0], [naive_pc(&and), naive_pc(&and3)]);
            }
            // The row kernel over `a` read as rows of `w` words.
            for w in [1usize, 3, 4, 18] {
                let rows = a.len() / w;
                let mut out = vec![[0u64; 2]; rows];
                k.and3_popcount_rows(&a, w, &b[..w.min(b.len())], &c[..w.min(c.len())], &mut out);
                for (r, o) in out.iter().enumerate() {
                    let m = &a[r * w..(r + 1) * w];
                    let x = &b[..w];
                    let mx: Vec<u64> = m.iter().zip(x).map(|(p, q)| p & q).collect();
                    let mxc: Vec<u64> = mx.iter().zip(&c[..w]).map(|(p, q)| p & q).collect();
                    prop_assert_eq!(*o, [naive_pc(&mx), naive_pc(&mxc)], "row {}", r);
                }
            }
            let mut lo = a.clone();
            let mut hi = vec![0u64; a.len()];
            k.refine_masks(&mut lo, &mut hi, &b);
            let want_lo: Vec<u64> = a.iter().zip(&b).map(|(w, p)| w & !p).collect();
            prop_assert_eq!(&lo, &want_lo, "lo half, {} tier", k.dispatch());
            prop_assert_eq!(&hi, &and, "hi half, {} tier", k.dispatch());
        }
    }

    // Tiled pair counting emits exactly the upper triangle and matches the
    // per-pair scalar oracle for every tile size, including degenerate 1x1
    // tiles and tiles larger than the node count. β spans sub-word,
    // word-aligned, lane-crossing, and multi-lane column shapes.
    #[test]
    fn pair_counts_block_matches_oracle_at_any_tile(
        m in simd_matrix(),
        tile in (0usize..4).prop_map(|i| [1usize, 3, 7, 64][i]),
    ) {
        let cols = m.columns();
        let n = m.num_nodes();
        let ones: Vec<u64> = (0..n).map(|i| cols.ones(i as NodeId)).collect();
        let mut seen = Vec::new();
        let mut i0 = 0;
        while i0 < n {
            let mut j0 = i0;
            while j0 < n {
                cols.pair_counts_block(
                    i0..(i0 + tile).min(n),
                    j0..(j0 + tile).min(n),
                    &ones,
                    &mut |i, j, pc| seen.push((i, j, pc)),
                );
                j0 += tile;
            }
            i0 += tile;
        }
        prop_assert_eq!(seen.len(), n * n.saturating_sub(1) / 2);
        for (i, j, pc) in seen {
            prop_assert!(i < j);
            prop_assert_eq!(pc, cols.pair_counts(i, j), "pair ({}, {})", i, j);
        }
    }

    // The word-parallel combination tables (recursive, and the workspace's
    // marginals of one histogram over every other node: the whole list,
    // every other node, and each node alone) all match the row-major
    // scalar oracle.
    #[test]
    fn combo_tables_match_row_oracle(m in simd_matrix(), seed in 0u64..1000) {
        let n = m.num_nodes();
        if n < 2 {
            return Ok(());
        }
        let cols = m.columns();
        let child = (seed % n as u64) as NodeId;
        let others: Vec<NodeId> = (0..n as NodeId).filter(|&v| v != child).collect();
        let oracle = m.combo_counts(child, &others).expect("within limit");
        let word_parallel = cols.combo_counts(child, &others).expect("within limit");
        prop_assert_eq!(word_parallel.as_slice(), oracle.as_slice());

        let mut ws = CountsWorkspace::new();
        ws.set_candidates(&cols, child, &others);
        let all = (1u64 << others.len()) - 1;
        let mut subsets = vec![all, all & 0x5555_5555_5555_5555];
        subsets.extend((0..others.len()).map(|t| 1u64 << t));
        for subset in subsets {
            let nodes: Vec<NodeId> =
                (0..others.len()).filter(|t| subset >> t & 1 == 1).map(|t| others[t]).collect();
            let got = ws.table(&[subset]).expect("within limit").to_vec();
            prop_assert_eq!(got, m.combo_counts(child, &nodes).expect("within limit"), "subset {:?}", nodes);
        }
    }

    // Every marginal table of a histogram over 0–71 candidates — more
    // than 25 and more than 64 included, so codes span two words — is
    // exactly the recursive kernel's table over the sorted subset, under
    // every SIMD tier the host has (unavailable ones degrade to an
    // available one), at β around the word and lane edges and at the
    // paper's and the archive's β. One subset of every size 0..=c is
    // read, except sizes 17–25, whose tables (up to 512 MiB) are left
    // out; past 25 nodes the table is refused with a typed error. The
    // candidate count lands on both sides of the subset lattice's bound,
    // and at or below it every table is also read by each route.
    #[test]
    fn marginal_tables_match_combo_counts(
        (beta, n, bits) in (
            (0usize..7).prop_map(|i| [0usize, 1, 63, 64, 65, 150, 1100][i]),
            (0usize..4).prop_map(|i| [4usize, 12, 30, 72][i]),
        )
            .prop_flat_map(|(beta, n)| {
                use proptest::strategy::Just;
                (Just(beta), Just(n), proptest::collection::vec(any::<bool>(), beta * n))
            }),
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        let mut m = StatusMatrix::new(beta, n);
        for (cell, &infected) in bits.iter().enumerate() {
            if infected {
                m.set(cell / n, (cell % n) as NodeId);
            }
        }
        let cols = m.columns();
        let mut rng = StdRng::seed_from_u64(seed);
        let child = rng.gen_range(0..n) as NodeId;
        let mut others: Vec<NodeId> = (0..n as NodeId).filter(|&v| v != child).collect();
        let bound = LATTICE_MAX_CANDIDATES;
        let c = match rng.gen_range(0..4) {
            0 => bound - 1,
            1 => bound,
            2 => bound + 1,
            _ => rng.gen_range(0..=others.len()),
        }
        .min(others.len());
        for j in 0..c {
            let r = rng.gen_range(j..others.len());
            others.swap(j, r);
        }
        let mut candidates = others[..c].to_vec();
        candidates.sort_unstable();
        let words = c.div_ceil(64).max(1);
        // One subset per size by a partial shuffle of the positions.
        let mut subsets: Vec<Vec<usize>> = Vec::new();
        for size in (0..=c).filter(|s| !(17..=25).contains(s)) {
            let mut pos: Vec<usize> = (0..c).collect();
            for j in 0..size {
                let r = rng.gen_range(j..c);
                pos.swap(j, r);
            }
            pos.truncate(size);
            subsets.push(pos);
        }
        let routes: &[Option<TableRoute>] = if c <= bound {
            &[None, Some(TableRoute::Lattice), Some(TableRoute::Scatter)]
        } else {
            &[None]
        };
        for mode in [SimdMode::Scalar, SimdMode::Popcnt, SimdMode::Avx2, SimdMode::Auto] {
            let mut ws = CountsWorkspace::with_kernels(Kernels::for_mode(mode));
            ws.set_candidates(&cols, child, &candidates);
            prop_assert!(ws.cells() <= beta.min(1 << c.min(20)));
            let mut tables = 0u64;
            for pos in &subsets {
                let mut mask = vec![0u64; words];
                for &t in pos {
                    mask[t / 64] |= 1 << (t % 64);
                }
                let mut nodes: Vec<NodeId> = pos.iter().map(|&t| candidates[t]).collect();
                nodes.sort_unstable();
                for &route in routes {
                    let got = match route {
                        None => ws.table(&mask),
                        Some(route) => ws.table_via(&mask, route),
                    };
                    match got {
                        Ok(got) => {
                            tables += 1;
                            let want = cols.combo_counts(child, &nodes).expect("small subset");
                            prop_assert_eq!(
                                got, want.as_slice(), "{:?} {:?} subset {:?}", mode, route, &nodes
                            );
                        }
                        Err(err) => {
                            prop_assert_eq!(err, ComboSizeError { parents: nodes.len() });
                            prop_assert!(nodes.len() > 25);
                        }
                    }
                }
            }
            prop_assert_eq!(ws.stats().refinements, tables);
            prop_assert_eq!(ws.stats().rebases, 1);
        }
    }

    // The cascade view is consistent with times and sorted by round.
    #[test]
    fn cascade_view_sorted(m in status_matrix(1..10, 1..8), seed in 0u64..100) {
        let _ = m; // matrix only used for shape variability
        let mut rng = StdRng::seed_from_u64(seed);
        let g = diffnet_graph::generators::erdos_renyi_gnm(10, 30, &mut rng);
        let probs = EdgeProbs::constant(&g, 0.5);
        let rec = IndependentCascade::new(&g, &probs).run_once(&[0, 3], &mut rng);
        let cascade = rec.cascade();
        prop_assert!(cascade.windows(2).all(|w| w[0].1 <= w[1].1));
        prop_assert_eq!(cascade.len(), rec.infected_count());
    }
}
