//! The streamed memory estimate's τ-sample term must cover what the τ
//! sample step allocates: the sampled values plus the peak heap of
//! `pinned_two_means` over them, measured with a counting global
//! allocator on cap-sized samples — and the whole `sample_tau` step,
//! pool staging included, at one and several threads. Its fold terms
//! (`fold_heap_bytes`) must likewise cover `fold_candidates` — verdict
//! table, accumulators and their merge — on both verdict strategies.
//!
//! One test function only: the allocator counts every thread, so a second
//! test running in parallel would pollute the peak.

use diffnet_graph::NodeId;
use diffnet_simulate::StatusMatrix;
use diffnet_tends::pinned_two_means;
use diffnet_tends::stream::{
    fold_candidates_with, fold_heap_bytes, sample_tau, tau_sample_bytes, tau_sample_cap, Verdicts,
};
use diffnet_tends::CorrelationMeasure;
use diffnet_tends::Shard;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    CURRENT.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters around the call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a fresh allocation alive beside the old one, the
        // worst case of a moving realloc.
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak heap growth while `f` runs, over the heap in use when it starts.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = CURRENT.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn two_means_peak_heap_fits_the_estimates_sample_term() {
    // (total pairs, budget): the scale-stream budget's 2¹⁹-pair cap, the
    // 2¹⁶ floor, and an exhaustive sample of a small triangle.
    let shapes = [
        (12_497_500u64, Some(64u64 << 20)),
        (12_497_500, Some(1)),
        (4_950, None),
    ];
    for (total, budget) in shapes {
        let cap = tau_sample_cap(total, budget) as usize;
        let term = tau_sample_bytes(total, budget);
        let mut unit = xorshift(cap as u64);
        // IMI-shaped (signed noise, sparse signal), uniform (the
        // 2-means boundary sits deep, so most buckets get sorted), and
        // one repeated value (a single bucket).
        let samples: [Vec<f64>; 3] = [
            (0..cap)
                .map(|k| {
                    let u = unit();
                    if k % 20 == 0 {
                        0.2 + 0.6 * u
                    } else {
                        (u - 0.45) * 0.01
                    }
                })
                .collect(),
            (0..cap).map(|_| unit()).collect(),
            vec![0.25; cap],
        ];
        for (shape, sample) in samples.iter().enumerate() {
            let (kmeans, peak) = peak_during(|| pinned_two_means(sample));
            assert!(
                kmeans.free_count > 0,
                "shape {shape} must exercise the clustering"
            );
            let used = 8 * sample.len() as u64 + peak as u64;
            assert!(
                used <= term,
                "cap {cap}, shape {shape}: sample + 2-means peak {used} B > estimate term {term} B"
            );
        }
    }

    // The whole step on an input with more pairs than the cap (n = 1100
    // has 604,450 pairs against the 64 MiB budget's 2¹⁹ cap), at one and
    // several threads: the pool's staging of the sampled values must fit
    // the same term, and every thread count samples the same τ.
    let (n, beta) = (1100usize, 150usize);
    let mut bit = xorshift(0x5EED);
    let mut m = StatusMatrix::new(beta, n);
    for l in 0..beta {
        for i in 0..n {
            if bit() < 0.3 {
                m.set(l, i as NodeId);
            }
        }
    }
    let cols = m.columns();
    let budget = Some(64u64 << 20);
    let total = (n * (n - 1) / 2) as u64;
    assert!(
        total > tau_sample_cap(total, budget),
        "precondition: a strided sample"
    );
    let term = tau_sample_bytes(total, budget);
    let mut taus = Vec::new();
    for threads in [1usize, 2, 4] {
        let (sample, peak) =
            peak_during(|| sample_tau(&cols, CorrelationMeasure::Imi, budget, threads));
        assert!(
            peak as u64 <= term,
            "sample_tau at {threads} threads peaked at {peak} B > estimate term {term} B"
        );
        taus.push(sample.kmeans.tau.to_bits());
    }
    assert!(
        taus.windows(2).all(|w| w[0] == w[1]),
        "τ differs by thread count"
    );

    // The fold over the same input at the sampled τ: enough above-τ
    // partners that every accumulator list fills and prunes, on both
    // verdict strategies, for the full range and for a shard.
    let tau = f64::from_bits(taus[0]);
    let max_candidates = 8;
    for shard in [
        Shard::full(n),
        Shard {
            start: 300,
            end: 700,
        },
    ] {
        for threads in [1usize, 2, 4] {
            let term = fold_heap_bytes(n, beta, shard.len(), threads, max_candidates);
            for verdicts in [Verdicts::Table, Verdicts::PerPair] {
                let (fold, peak) = peak_during(|| {
                    fold_candidates_with(
                        &cols,
                        CorrelationMeasure::Imi,
                        tau,
                        max_candidates,
                        shard,
                        threads,
                        verdicts,
                    )
                });
                assert!(
                    fold.candidates.candidate_evictions > 0,
                    "precondition: the top-k bound truncates"
                );
                assert!(
                    peak as u64 <= term,
                    "{verdicts:?} fold of {shard:?} at {threads} threads peaked at {peak} B \
                     > estimate fold terms {term} B"
                );
            }
        }
    }
}
