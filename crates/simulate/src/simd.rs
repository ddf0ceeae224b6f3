//! Runtime-dispatched SIMD kernels for the bitset counting hot paths.
//!
//! Every hot loop over bit-packed statuses reduces to a handful of
//! word-stream primitives: AND+popcount of one column against a run of
//! contiguous columns
//! ([`NodeColumns::pair_n11_block`](crate::NodeColumns::pair_n11_block)),
//! fused mask/child popcounts (the `N_ijk` tabulation), the same fused
//! popcounts over every cell of a parent partition at once, the mask
//! split, and the marginalization of a cell histogram onto a subset of its
//! code bits (the parent search's tables). This module implements those
//! primitives in three tiers behind one-time runtime feature detection:
//!
//! * **avx2** — 256-bit AND plus the Muła nibble-LUT popcount
//!   (`vpshufb` + `vpsadbw`), four 64-bit words per step;
//! * **popcnt** — 4-way-unrolled hardware `popcnt`. The default x86-64
//!   compile target predates the instruction, so a plain `count_ones`
//!   otherwise lowers to a ~13-op software sequence per word;
//! * **scalar** — a portable Harley–Seal carry-save accumulator that
//!   amortizes one software popcount over eight words. Faster than the
//!   word-at-a-time loop on every architecture, and the only tier on
//!   non-x86 targets.
//!
//! Both x86-64 tiers marginalize with BMI2 `pext` where the CPU has a
//! fast one (not AMD before Zen 3, which microcodes it), and otherwise
//! with the scalar tier's bit-serial compaction.
//!
//! The active tier is resolved once per process — from an explicit
//! [`set_mode`] call (the CLI `--simd` flag) or the `DIFFNET_SIMD` env
//! knob (`auto`, `avx2`, `popcnt`, `scalar`; like `DIFFNET_THREADS`, a
//! malformed value warns and falls back to `auto` instead of being
//! silently ignored) — and cached in a [`OnceLock`].
//!
//! **Every tier is bit-identical.** All kernels compute exact integer
//! counts — there is no floating-point accumulation anywhere in the
//! dispatch surface — so the tier choice can never change an inferred
//! edge list. The cross-tier proptests and the `DIFFNET_SIMD=scalar` CI
//! job pin this contract.

// The `unsafe fn` bodies below must not become implicit unsafe blocks:
// every unsafe operation carries its own `// SAFETY:` comment.
#![deny(unsafe_op_in_unsafe_fn)]

use std::fmt;
use std::sync::OnceLock;

/// Which kernel tier to use for the bitset counting primitives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimdMode {
    /// Probe CPU features once and pick the fastest available tier.
    #[default]
    Auto,
    /// Force the AVX2 kernels; warns and falls back if unavailable.
    Avx2,
    /// Force the hardware-popcnt kernels; warns and falls back if
    /// unavailable.
    Popcnt,
    /// Force the portable scalar kernels (always available).
    Scalar,
}

impl SimdMode {
    /// The knob spelling of this mode (`auto`, `avx2`, `popcnt`,
    /// `scalar`).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdMode::Auto => "auto",
            SimdMode::Avx2 => "avx2",
            SimdMode::Popcnt => "popcnt",
            SimdMode::Scalar => "scalar",
        }
    }
}

impl fmt::Display for SimdMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SimdMode {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(SimdMode::Auto),
            "avx2" => Ok(SimdMode::Avx2),
            "popcnt" => Ok(SimdMode::Popcnt),
            "scalar" => Ok(SimdMode::Scalar),
            _ => Err(()),
        }
    }
}

/// Parses a `DIFFNET_SIMD`-style override: `None` (unset) means
/// [`SimdMode::Auto`]; anything else must spell a mode.
///
/// # Errors
///
/// Returns the unparseable raw text so callers can report it.
pub fn parse_simd(raw: Option<&str>) -> Result<SimdMode, &str> {
    match raw {
        None => Ok(SimdMode::Auto),
        Some(text) => text.parse().map_err(|()| text),
    }
}

/// Reads the `DIFFNET_SIMD` override from the environment.
///
/// A malformed value warns on stderr and falls back to `auto` — the same
/// warn-don't-ignore contract as `DIFFNET_THREADS`.
pub fn simd_from_env() -> SimdMode {
    match parse_simd(std::env::var("DIFFNET_SIMD").ok().as_deref()) {
        Ok(mode) => mode,
        Err(raw) => {
            eprintln!(
                "warning: DIFFNET_SIMD={raw:?} is not a SIMD mode \
                 (auto, avx2, popcnt, scalar); using auto"
            );
            SimdMode::Auto
        }
    }
}

/// The resolved kernel table: one safe function pointer per primitive.
///
/// All slice-pair kernels use zip semantics (they process up to the
/// shorter length); in practice callers always pass equal-length column
/// slices. Obtain the process-wide table with [`kernels`], or build an
/// explicit one with [`Kernels::for_mode`] (used by the cross-tier
/// identity tests and the benchmark's forced-scalar sweep — it never
/// touches process state).
#[derive(Clone, Copy, Debug)]
pub struct Kernels {
    dispatch: &'static str,
    and_popcount: fn(&[u64], &[u64]) -> u64,
    and_self_popcount: fn(&[u64], &[u64]) -> (u64, u64),
    and_popcount_rows: AndRowsFn,
    and3_popcount_rows: And3RowsFn,
    popcount: fn(&[u64]) -> u64,
    refine_masks: fn(&mut [u64], &mut [u64], &[u64]),
    marginal_counts: MarginalFn,
}

/// Signature of the row-wise pair kernel: `out[r] = popcount(row_r & x)`
/// for each `words`-word row `row_r` of the first argument.
type AndRowsFn = fn(&[u64], usize, &[u64], &mut [u64]);

/// Signature of the row-wise fused kernel: `out[r] = [popcount(m_r & x),
/// popcount(m_r & x & c)]` for each `words`-word row `m_r` of the first
/// argument.
type And3RowsFn = fn(&[u64], usize, &[u64], &[u64], &mut [[u64; 2]]);

/// Signature of the marginal-table kernel: `out[compact(code_r, subset)]
/// += cells[r]` for each `words`-word code `code_r` of the first argument.
type MarginalFn = fn(&[u64], usize, &[[u64; 2]], &[u64], &mut [[u64; 2]]);

impl Kernels {
    /// Builds the kernel table for `mode` without touching the
    /// process-wide cache. A forced mode whose CPU feature is missing
    /// warns and degrades to the next-fastest available tier.
    pub fn for_mode(mode: SimdMode) -> Kernels {
        match mode {
            SimdMode::Scalar => SCALAR,
            SimdMode::Auto => best_available(),
            SimdMode::Avx2 => {
                if have_avx2() {
                    x86::with_pext(x86::AVX2)
                } else {
                    let fallback = best_available();
                    eprintln!(
                        "warning: DIFFNET_SIMD=avx2 requested but AVX2 is not \
                         available on this CPU; using {}",
                        fallback.dispatch
                    );
                    fallback
                }
            }
            SimdMode::Popcnt => {
                if have_popcnt() {
                    x86::with_pext(x86::POPCNT)
                } else {
                    eprintln!(
                        "warning: DIFFNET_SIMD=popcnt requested but POPCNT is \
                         not available on this CPU; using scalar"
                    );
                    SCALAR
                }
            }
        }
    }

    /// The tier this table dispatches to: `"avx2"`, `"popcnt"`, or
    /// `"scalar"`. Host-dependent under `auto` — report it under runtime
    /// metadata, never in a deterministic report section.
    pub fn dispatch(&self) -> &'static str {
        self.dispatch
    }

    /// CPU features relevant to the kernels that this host actually has,
    /// for benchmark/report headers. Empty on non-x86_64 targets.
    pub fn detected_features() -> Vec<&'static str> {
        let mut features = Vec::new();
        if have_avx2() {
            features.push("avx2");
        }
        if have_popcnt() {
            features.push("popcnt");
        }
        if have_fast_pext() {
            features.push("bmi2");
        }
        features
    }

    /// `popcount(a & b)` over the common prefix of the two slices.
    #[inline]
    pub fn and_popcount(&self, a: &[u64], b: &[u64]) -> u64 {
        (self.and_popcount)(a, b)
    }

    /// `(popcount(mask & child), popcount(mask))` in one pass — the
    /// `N_ijk` tabulation primitive: infected-and-in-combination count
    /// plus the combination total.
    #[inline]
    pub fn and_self_popcount(&self, mask: &[u64], child: &[u64]) -> (u64, u64) {
        (self.and_self_popcount)(mask, child)
    }

    /// `out[r] = popcount(row_r & x)` for each `r < out.len()`, where
    /// `row_r = rows[r·words .. (r+1)·words]`: one column `x` against a
    /// run of contiguous columns. The pairwise primitive: a tile row's
    /// `n11` counts come from one call instead of one dispatch per pair.
    ///
    /// # Panics
    ///
    /// Panics if `rows` holds fewer than `out.len()` rows of `words`
    /// words, or if `words` is 0 while `out` is not empty.
    #[inline]
    pub fn and_popcount_rows(&self, rows: &[u64], words: usize, x: &[u64], out: &mut [u64]) {
        assert!(
            out.is_empty() || (words > 0 && rows.len() >= out.len() * words),
            "column run holds fewer rows than requested"
        );
        (self.and_popcount_rows)(rows, words, x, out)
    }

    /// `out[r] = [popcount(m_r & x), popcount(m_r & x & c)]` for each
    /// `r < out.len()`, where `m_r = masks[r·words .. (r+1)·words]`: how
    /// much of each mask lands in `x`, and how much of that is also in
    /// `c`. The extension-scoring primitive: one call splits every cell of
    /// a parent partition along one column (or column intersection) `x`,
    /// so the dispatch cost is paid once per partition rather than once
    /// per cell.
    ///
    /// # Panics
    ///
    /// Panics if `masks` holds fewer than `out.len()` rows of `words`
    /// words, or if `words` is 0 while `out` is not empty.
    #[inline]
    pub fn and3_popcount_rows(
        &self,
        masks: &[u64],
        words: usize,
        x: &[u64],
        c: &[u64],
        out: &mut [[u64; 2]],
    ) {
        assert!(
            out.is_empty() || (words > 0 && masks.len() >= out.len() * words),
            "mask arena holds fewer rows than requested"
        );
        (self.and3_popcount_rows)(masks, words, x, c, out)
    }

    /// `popcount(a)`.
    #[inline]
    pub fn popcount(&self, a: &[u64]) -> u64 {
        (self.popcount)(a)
    }

    /// Marginalizes a cell histogram onto the code bits `subset`: `out`
    /// is zeroed, then each cell `r` — code `codes[r·words .. (r+1)·words]`
    /// (bit `t % 64` of word `t / 64` is code bit `t`), counts
    /// `cells[r]` — is added to `out[j]`, where `j` packs the code's bits
    /// at `subset`'s set positions in ascending order (bit `i` of `j` is
    /// the `i`-th set bit of `subset`; BMI2 `pext`, chained across words).
    ///
    /// # Panics
    ///
    /// Panics if `subset` is not `words` words long, if `codes` holds
    /// fewer than `cells.len()` codes, or if `out.len()` is not
    /// `2^|subset|`.
    #[inline]
    pub fn marginal_counts(
        &self,
        codes: &[u64],
        words: usize,
        cells: &[[u64; 2]],
        subset: &[u64],
        out: &mut [[u64; 2]],
    ) {
        let size: u32 = subset.iter().map(|w| w.count_ones()).sum();
        assert!(
            subset.len() == words && words > 0 && codes.len() >= cells.len() * words,
            "codes and subset must have the histogram's code width"
        );
        assert!(
            size < usize::BITS && out.len() == 1usize << size,
            "output table must have one entry per subset combination"
        );
        (self.marginal_counts)(codes, words, cells, subset, out)
    }

    /// Splits the masks in `lo` by parent column `p`: afterwards
    /// `lo[k] = old_lo[k] & !p[k]` (parent uninfected) and
    /// `hi[k] = old_lo[k] & p[k]` (parent infected). Processes the common
    /// prefix of the three slices.
    #[inline]
    pub fn refine_masks(&self, lo: &mut [u64], hi: &mut [u64], p: &[u64]) {
        (self.refine_masks)(lo, hi, p)
    }
}

/// The fastest tier this CPU supports.
fn best_available() -> Kernels {
    if have_avx2() {
        x86::with_pext(x86::AVX2)
    } else if have_popcnt() {
        x86::with_pext(x86::POPCNT)
    } else {
        SCALAR
    }
}

static GLOBAL: OnceLock<(SimdMode, Kernels)> = OnceLock::new();

fn global() -> &'static (SimdMode, Kernels) {
    GLOBAL.get_or_init(|| {
        let mode = simd_from_env();
        (mode, Kernels::for_mode(mode))
    })
}

/// The process-wide kernel table, resolving it from `DIFFNET_SIMD` on
/// first use.
pub fn kernels() -> &'static Kernels {
    &global().1
}

/// The mode the process-wide table was requested with (`auto` unless
/// overridden) — host-independent, safe for deterministic reports.
pub fn requested_mode() -> SimdMode {
    global().0
}

/// Requests `mode` process-wide. Must run before the first kernel use
/// (the table resolves once and is then immutable); a later conflicting
/// call warns and keeps the resolved table. Returns the active table.
pub fn set_mode(mode: SimdMode) -> &'static Kernels {
    let resolved = GLOBAL.get_or_init(|| (mode, Kernels::for_mode(mode)));
    if resolved.0 != mode {
        eprintln!(
            "warning: SIMD kernels already resolved for mode {}; ignoring {mode}",
            resolved.0
        );
    }
    &resolved.1
}

#[cfg(target_arch = "x86_64")]
fn have_popcnt() -> bool {
    std::arch::is_x86_feature_detected!("popcnt")
}

#[cfg(not(target_arch = "x86_64"))]
fn have_popcnt() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn have_avx2() -> bool {
    // The AVX2 tier also uses scalar `popcnt` for its tails.
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
}

#[cfg(not(target_arch = "x86_64"))]
fn have_avx2() -> bool {
    false
}

/// Whether the CPU has BMI2 with a hardware `pext`: AMD families before
/// Zen 3 (0x19) microcode it at tens to hundreds of cycles, slower than
/// the bit-serial loop for the few bits a parent table compacts.
#[cfg(target_arch = "x86_64")]
fn have_fast_pext() -> bool {
    use core::arch::x86_64::__cpuid;
    if !std::arch::is_x86_feature_detected!("bmi2") {
        return false;
    }
    // SAFETY: CPUID is available on every x86-64 CPU; leaves 0 and 1
    // always exist.
    #[allow(unused_unsafe)]
    let (vendor, signature) = unsafe { (__cpuid(0), __cpuid(1)) };
    let amd = (vendor.ebx, vendor.edx, vendor.ecx) == (0x6874_7541, 0x6974_6E65, 0x444D_4163);
    let family = (signature.eax >> 8 & 0xF) + (signature.eax >> 20 & 0xFF);
    !amd || family >= 0x19
}

#[cfg(not(target_arch = "x86_64"))]
fn have_fast_pext() -> bool {
    false
}

// ---------------------------------------------------------------------
// Scalar tier: Harley–Seal carry-save accumulation.
// ---------------------------------------------------------------------

const SCALAR: Kernels = Kernels {
    dispatch: "scalar",
    and_popcount: scalar_and_popcount,
    and_self_popcount: scalar_and_self_popcount,
    and_popcount_rows: scalar_and_popcount_rows,
    and3_popcount_rows: scalar_and3_popcount_rows,
    popcount: scalar_popcount,
    refine_masks: scalar_refine_masks,
    marginal_counts: scalar_marginal_counts,
};

/// Carry-save adder: `(sum, carry)` of three bit-vectors, per lane.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Harley–Seal population count: `len` words arriving as 16-word
/// blocks via `block` (called with the block's base index, guaranteed
/// `i + 16 <= len`) plus a word-at-a-time tail via `word`.
///
/// Each 16-word block is reduced as two interleaved 8-word carry-save
/// adder trees on disjoint accumulator sets, so the (software, on
/// baseline x86-64) per-word popcount runs twice per sixteen inputs
/// instead of once per input — roughly 4 ops/word versus ~13 for the
/// naive loop — and the two chains overlap in the pipeline. Taking the
/// block as a materialized `[u64; 16]` keeps the hot loop free of
/// per-index bounds checks.
#[inline(always)]
fn harley_seal(
    len: usize,
    mut block: impl FnMut(usize) -> [u64; 16],
    mut word: impl FnMut(usize) -> u64,
) -> u64 {
    let mut total = 0u64;
    let (mut ones0, mut twos0, mut fours0) = (0u64, 0u64, 0u64);
    let (mut ones1, mut twos1, mut fours1) = (0u64, 0u64, 0u64);
    let mut i = 0usize;
    while i + 16 <= len {
        let w = block(i);
        let (t, twos_a) = csa(ones0, w[0], w[1]);
        let (t, twos_b) = csa(t, w[2], w[3]);
        let (u, twos_e) = csa(ones1, w[8], w[9]);
        let (u, twos_f) = csa(u, w[10], w[11]);
        let (t, twos_c) = csa(t, w[4], w[5]);
        let (t, twos_d) = csa(t, w[6], w[7]);
        let (u, twos_g) = csa(u, w[12], w[13]);
        let (u, twos_h) = csa(u, w[14], w[15]);
        ones0 = t;
        ones1 = u;
        let (t, fours_a) = csa(twos0, twos_a, twos_b);
        let (t, fours_b) = csa(t, twos_c, twos_d);
        let (u, fours_e) = csa(twos1, twos_e, twos_f);
        let (u, fours_f) = csa(u, twos_g, twos_h);
        twos0 = t;
        twos1 = u;
        let (t, eights0) = csa(fours0, fours_a, fours_b);
        let (u, eights1) = csa(fours1, fours_e, fours_f);
        fours0 = t;
        fours1 = u;
        total += eights0.count_ones() as u64 + eights1.count_ones() as u64;
        i += 16;
    }
    total *= 8;
    total += 4 * (fours0.count_ones() as u64 + fours1.count_ones() as u64);
    total += 2 * (twos0.count_ones() as u64 + twos1.count_ones() as u64);
    total += ones0.count_ones() as u64 + ones1.count_ones() as u64;
    while i < len {
        total += word(i).count_ones() as u64;
        i += 1;
    }
    total
}

/// A 16-word block of `s` starting at `i` as a fixed-size array
/// (caller guarantees `i + 16 <= s.len()`).
#[inline(always)]
fn block16(s: &[u64], i: usize) -> &[u64; 16] {
    s[i..i + 16].try_into().expect("16-word block")
}

fn scalar_popcount(a: &[u64]) -> u64 {
    harley_seal(a.len(), |i| *block16(a, i), |i| a[i])
}

// The slices below are truncated to the common length before the index
// closures are built: with the loop bound equal to the slices' exact
// lengths the bounds checks vanish from the tail loops, and the block
// loops only pay one slice check per sixteen words.

fn scalar_and_popcount(a: &[u64], b: &[u64]) -> u64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    harley_seal(
        n,
        |i| {
            let (ca, cb) = (block16(a, i), block16(b, i));
            std::array::from_fn(|k| ca[k] & cb[k])
        },
        |i| a[i] & b[i],
    )
}

fn scalar_and_self_popcount(mask: &[u64], child: &[u64]) -> (u64, u64) {
    let n = mask.len().min(child.len());
    let (mask, child) = (&mask[..n], &child[..n]);
    (
        harley_seal(
            n,
            |i| {
                let (cm, cc) = (block16(mask, i), block16(child, i));
                std::array::from_fn(|k| cm[k] & cc[k])
            },
            |i| mask[i] & child[i],
        ),
        harley_seal(n, |i| *block16(mask, i), |i| mask[i]),
    )
}

fn scalar_and3_popcount(m: &[u64], w: &[u64], c: &[u64]) -> (u64, u64) {
    let n = m.len().min(w.len()).min(c.len());
    let (m, w, c) = (&m[..n], &w[..n], &c[..n]);
    (
        harley_seal(
            n,
            |i| {
                let (cm, cw) = (block16(m, i), block16(w, i));
                std::array::from_fn(|k| cm[k] & cw[k])
            },
            |i| m[i] & w[i],
        ),
        harley_seal(
            n,
            |i| {
                let (cm, cw, cc) = (block16(m, i), block16(w, i), block16(c, i));
                std::array::from_fn(|k| cm[k] & cw[k] & cc[k])
            },
            |i| m[i] & w[i] & c[i],
        ),
    )
}

fn scalar_and_popcount_rows(rows: &[u64], words: usize, x: &[u64], out: &mut [u64]) {
    if !and_popcount_narrow_rows(rows, words, x, out) {
        for (r, o) in rows.chunks_exact(words.max(1)).zip(out) {
            *o = scalar_and_popcount(r, x);
        }
    }
}

/// [`and3_popcount_narrow_rows`]' pairwise sibling: one fully unrolled
/// loop per row width of one to four words, inlined into each tier.
/// Returns `false`, doing nothing, for wider rows.
#[inline(always)]
fn and_popcount_narrow_rows(rows: &[u64], words: usize, x: &[u64], out: &mut [u64]) -> bool {
    #[inline(always)]
    fn run<const W: usize>(rows: &[u64], x: &[u64], out: &mut [u64]) {
        let x: &[u64; W] = x[..W].try_into().expect("W-word operand");
        for (r, o) in rows.chunks_exact(W).zip(out) {
            let mut n = 0u64;
            for i in 0..W {
                n += u64::from((r[i] & x[i]).count_ones());
            }
            *o = n;
        }
    }
    if x.len() < words {
        return false;
    }
    match words {
        1 => run::<1>(rows, x, out),
        2 => run::<2>(rows, x, out),
        3 => run::<3>(rows, x, out),
        4 => run::<4>(rows, x, out),
        _ => return false,
    }
    true
}

fn scalar_and3_popcount_rows(
    masks: &[u64],
    words: usize,
    x: &[u64],
    c: &[u64],
    out: &mut [[u64; 2]],
) {
    if !and3_popcount_narrow_rows(masks, words, x, c, out) {
        for (m, o) in masks.chunks_exact(words.max(1)).zip(out) {
            let (mx, mxc) = scalar_and3_popcount(m, x, c);
            *o = [mx, mxc];
        }
    }
}

/// The row kernel for rows of one to four words (`β ≤ 256`, the paper's
/// scale), where the generic kernels' loop setup outweighs the popcounts:
/// one fully unrolled loop per width. Returns `false`, doing nothing, for
/// wider rows. Inlined into each tier, so `count_ones` compiles to that
/// tier's popcount.
#[inline(always)]
fn and3_popcount_narrow_rows(
    masks: &[u64],
    words: usize,
    x: &[u64],
    c: &[u64],
    out: &mut [[u64; 2]],
) -> bool {
    #[inline(always)]
    fn rows<const W: usize>(masks: &[u64], x: &[u64], c: &[u64], out: &mut [[u64; 2]]) {
        let x: &[u64; W] = x[..W].try_into().expect("W-word operand");
        let c: &[u64; W] = c[..W].try_into().expect("W-word operand");
        for (m, o) in masks.chunks_exact(W).zip(out) {
            let (mut mx, mut mxc) = (0u64, 0u64);
            for i in 0..W {
                let v = m[i] & x[i];
                mx += u64::from(v.count_ones());
                mxc += u64::from((v & c[i]).count_ones());
            }
            *o = [mx, mxc];
        }
    }
    if x.len() < words || c.len() < words {
        return false;
    }
    match words {
        1 => rows::<1>(masks, x, c, out),
        2 => rows::<2>(masks, x, c, out),
        3 => rows::<3>(masks, x, c, out),
        4 => rows::<4>(masks, x, c, out),
        _ => return false,
    }
    true
}

/// `x`'s bits at `mask`'s set positions, packed into the low bits in
/// ascending order — `pext` one mask bit at a time.
#[inline(always)]
fn pext_bit_serial(x: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    let mut bit = 0u32;
    while mask != 0 {
        out |= (x >> mask.trailing_zeros() & 1) << bit;
        mask &= mask - 1;
        bit += 1;
    }
    out
}

/// The marginal-table loop over any bit compaction `pext`: one word per
/// code is the search's case (at most 64 candidates); wider codes chain
/// their words' compactions, each shifted past the bits of the words
/// before it. Inlined into each tier with its own `pext`.
#[inline(always)]
fn marginal_with(
    codes: &[u64],
    words: usize,
    cells: &[[u64; 2]],
    subset: &[u64],
    out: &mut [[u64; 2]],
    pext: impl Fn(u64, u64) -> u64,
) {
    out.fill([0, 0]);
    if let [s] = *subset {
        for (&code, &[n0, n1]) in codes.iter().zip(cells) {
            let o = &mut out[pext(code, s) as usize];
            o[0] += n0;
            o[1] += n1;
        }
        return;
    }
    for (code, &[n0, n1]) in codes.chunks_exact(words).zip(cells) {
        let (mut j, mut shift) = (0usize, 0u32);
        for (&c, &s) in code.iter().zip(subset) {
            j |= (pext(c, s) as usize) << shift;
            shift += s.count_ones();
        }
        let o = &mut out[j];
        o[0] += n0;
        o[1] += n1;
    }
}

fn scalar_marginal_counts(
    codes: &[u64],
    words: usize,
    cells: &[[u64; 2]],
    subset: &[u64],
    out: &mut [[u64; 2]],
) {
    marginal_with(codes, words, cells, subset, out, pext_bit_serial);
}

fn scalar_refine_masks(lo: &mut [u64], hi: &mut [u64], p: &[u64]) {
    let n = lo.len().min(hi.len()).min(p.len());
    for k in 0..n {
        let word = lo[k];
        lo[k] = word & !p[k];
        hi[k] = word & p[k];
    }
}

// ---------------------------------------------------------------------
// x86-64 tiers: hardware popcnt and AVX2.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Kernels;
    use core::arch::x86_64::*;

    pub(super) const POPCNT: Kernels = Kernels {
        dispatch: "popcnt",
        and_popcount: popcnt_and_popcount_safe,
        and_self_popcount: popcnt_and_self_popcount_safe,
        and_popcount_rows: popcnt_and_popcount_rows_safe,
        and3_popcount_rows: popcnt_and3_popcount_rows_safe,
        popcount: popcnt_popcount_safe,
        // Mask refinement is pure AND/ANDN — no popcount to accelerate.
        refine_masks: super::scalar_refine_masks,
        marginal_counts: super::scalar_marginal_counts,
    };

    pub(super) const AVX2: Kernels = Kernels {
        dispatch: "avx2",
        and_popcount: avx2_and_popcount_safe,
        and_self_popcount: avx2_and_self_popcount_safe,
        and_popcount_rows: avx2_and_popcount_rows_safe,
        and3_popcount_rows: avx2_and3_popcount_rows_safe,
        popcount: avx2_popcount_safe,
        refine_masks: avx2_refine_masks_safe,
        marginal_counts: super::scalar_marginal_counts,
    };

    /// `tier` marginalizing with BMI2 `pext` where it is fast.
    pub(super) fn with_pext(tier: Kernels) -> Kernels {
        Kernels {
            marginal_counts: if super::have_fast_pext() {
                bmi2_marginal_counts_safe
            } else {
                tier.marginal_counts
            },
            ..tier
        }
    }

    // Safe wrappers: `#[target_feature]` functions cannot coerce to plain
    // `fn` pointers, so each tier entry is an ordinary function whose only
    // job is the feature-gated call. They are sound because the tier
    // tables above are only ever installed after runtime detection.

    fn popcnt_and_popcount_safe(a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: this wrapper is only reachable through the POPCNT/AVX2
        // kernel tables, which `Kernels::for_mode` installs only after
        // `is_x86_feature_detected!("popcnt")` succeeded.
        unsafe { popcnt_and_popcount(a, b) }
    }

    fn popcnt_and_self_popcount_safe(mask: &[u64], child: &[u64]) -> (u64, u64) {
        // SAFETY: only installed after runtime POPCNT detection (see
        // `Kernels::for_mode`).
        unsafe { popcnt_and_self_popcount(mask, child) }
    }

    fn popcnt_and_popcount_rows_safe(rows: &[u64], words: usize, x: &[u64], out: &mut [u64]) {
        // SAFETY: only installed after runtime POPCNT detection.
        unsafe { popcnt_and_popcount_rows(rows, words, x, out) }
    }

    fn popcnt_and3_popcount_rows_safe(
        masks: &[u64],
        words: usize,
        x: &[u64],
        c: &[u64],
        out: &mut [[u64; 2]],
    ) {
        // SAFETY: only installed after runtime POPCNT detection.
        unsafe { popcnt_and3_popcount_rows(masks, words, x, c, out) }
    }

    fn popcnt_popcount_safe(a: &[u64]) -> u64 {
        // SAFETY: only installed after runtime POPCNT detection.
        unsafe { popcnt_popcount(a) }
    }

    fn avx2_and_popcount_safe(a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: only installed after runtime AVX2+POPCNT detection.
        unsafe { avx2_and_popcount(a, b) }
    }

    fn avx2_and_self_popcount_safe(mask: &[u64], child: &[u64]) -> (u64, u64) {
        // SAFETY: only installed after runtime AVX2+POPCNT detection.
        unsafe { avx2_and_self_popcount(mask, child) }
    }

    fn avx2_and_popcount_rows_safe(rows: &[u64], words: usize, x: &[u64], out: &mut [u64]) {
        // SAFETY: only installed after runtime AVX2+POPCNT detection.
        unsafe { avx2_and_popcount_rows(rows, words, x, out) }
    }

    fn avx2_and3_popcount_rows_safe(
        masks: &[u64],
        words: usize,
        x: &[u64],
        c: &[u64],
        out: &mut [[u64; 2]],
    ) {
        // SAFETY: only installed after runtime AVX2+POPCNT detection.
        unsafe { avx2_and3_popcount_rows(masks, words, x, c, out) }
    }

    fn avx2_popcount_safe(a: &[u64]) -> u64 {
        // SAFETY: only installed after runtime AVX2+POPCNT detection.
        unsafe { avx2_popcount(a) }
    }

    fn avx2_refine_masks_safe(lo: &mut [u64], hi: &mut [u64], p: &[u64]) {
        // SAFETY: only installed after runtime AVX2+POPCNT detection.
        unsafe { avx2_refine_masks(lo, hi, p) }
    }

    fn bmi2_marginal_counts_safe(
        codes: &[u64],
        words: usize,
        cells: &[[u64; 2]],
        subset: &[u64],
        out: &mut [[u64; 2]],
    ) {
        // SAFETY: only installed by `with_pext` after runtime BMI2
        // detection.
        unsafe { bmi2_marginal_counts(codes, words, cells, subset, out) }
    }

    #[target_feature(enable = "bmi2")]
    fn bmi2_marginal_counts(
        codes: &[u64],
        words: usize,
        cells: &[[u64; 2]],
        subset: &[u64],
        out: &mut [[u64; 2]],
    ) {
        super::marginal_with(codes, words, cells, subset, out, |x, m| _pext_u64(x, m));
    }

    // `#[target_feature]` cannot be applied to generic functions, so the
    // popcnt tier spells out each kernel with four independent
    // accumulators (the unrolling hides the 3-cycle popcnt latency behind
    // its 1/cycle throughput).

    #[target_feature(enable = "popcnt")]
    fn popcnt_and_popcount(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
        let mut i = 0usize;
        while i + 4 <= n {
            s0 += (a[i] & b[i]).count_ones() as u64;
            s1 += (a[i + 1] & b[i + 1]).count_ones() as u64;
            s2 += (a[i + 2] & b[i + 2]).count_ones() as u64;
            s3 += (a[i + 3] & b[i + 3]).count_ones() as u64;
            i += 4;
        }
        while i < n {
            s0 += (a[i] & b[i]).count_ones() as u64;
            i += 1;
        }
        s0 + s1 + s2 + s3
    }

    #[target_feature(enable = "popcnt")]
    fn popcnt_and_self_popcount(mask: &[u64], child: &[u64]) -> (u64, u64) {
        let n = mask.len().min(child.len());
        let (mask, child) = (&mask[..n], &child[..n]);
        let (mut and0, mut and1, mut tot0, mut tot1) = (0u64, 0u64, 0u64, 0u64);
        let mut i = 0usize;
        while i + 2 <= n {
            and0 += (mask[i] & child[i]).count_ones() as u64;
            tot0 += mask[i].count_ones() as u64;
            and1 += (mask[i + 1] & child[i + 1]).count_ones() as u64;
            tot1 += mask[i + 1].count_ones() as u64;
            i += 2;
        }
        if i < n {
            and0 += (mask[i] & child[i]).count_ones() as u64;
            tot0 += mask[i].count_ones() as u64;
        }
        (and0 + and1, tot0 + tot1)
    }

    #[target_feature(enable = "popcnt")]
    fn popcnt_and3_popcount(m: &[u64], w: &[u64], c: &[u64]) -> (u64, u64) {
        let n = m.len().min(w.len()).min(c.len());
        let (m, w, c) = (&m[..n], &w[..n], &c[..n]);
        let (mut mw0, mut mw1, mut mwc0, mut mwc1) = (0u64, 0u64, 0u64, 0u64);
        let mut i = 0usize;
        while i + 2 <= n {
            let x0 = m[i] & w[i];
            let x1 = m[i + 1] & w[i + 1];
            mw0 += x0.count_ones() as u64;
            mwc0 += (x0 & c[i]).count_ones() as u64;
            mw1 += x1.count_ones() as u64;
            mwc1 += (x1 & c[i + 1]).count_ones() as u64;
            i += 2;
        }
        if i < n {
            let x = m[i] & w[i];
            mw0 += x.count_ones() as u64;
            mwc0 += (x & c[i]).count_ones() as u64;
        }
        (mw0 + mw1, mwc0 + mwc1)
    }

    #[target_feature(enable = "popcnt")]
    fn popcnt_and_popcount_rows(rows: &[u64], words: usize, x: &[u64], out: &mut [u64]) {
        if super::and_popcount_narrow_rows(rows, words, x, out) {
            return;
        }
        for (r, o) in rows.chunks_exact(words.max(1)).zip(out) {
            *o = popcnt_and_popcount(r, x);
        }
    }

    #[target_feature(enable = "popcnt")]
    fn popcnt_and3_popcount_rows(
        masks: &[u64],
        words: usize,
        x: &[u64],
        c: &[u64],
        out: &mut [[u64; 2]],
    ) {
        if super::and3_popcount_narrow_rows(masks, words, x, c, out) {
            return;
        }
        for (m, o) in masks.chunks_exact(words.max(1)).zip(out) {
            let (mx, mxc) = popcnt_and3_popcount(m, x, c);
            *o = [mx, mxc];
        }
    }

    #[target_feature(enable = "popcnt")]
    fn popcnt_popcount(a: &[u64]) -> u64 {
        let n = a.len();
        let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
        let mut i = 0usize;
        while i + 4 <= n {
            s0 += a[i].count_ones() as u64;
            s1 += a[i + 1].count_ones() as u64;
            s2 += a[i + 2].count_ones() as u64;
            s3 += a[i + 3].count_ones() as u64;
            i += 4;
        }
        while i < n {
            s0 += a[i].count_ones() as u64;
            i += 1;
        }
        s0 + s1 + s2 + s3
    }

    /// Loads 4 words from `s` starting at `i` (caller guarantees
    /// `i + 4 <= s.len()`).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load4(s: &[u64], i: usize) -> __m256i {
        debug_assert!(i + 4 <= s.len());
        // SAFETY: the caller guarantees `s[i..i + 4]` is in bounds, and
        // `_mm256_loadu_si256` has no alignment requirement.
        unsafe { _mm256_loadu_si256(s.as_ptr().add(i).cast()) }
    }

    /// Per-64-bit-lane population count via the Muła nibble-LUT method:
    /// `vpshufb` maps each nibble to its count, `vpsadbw` horizontally
    /// sums the 8 byte-counts of every 64-bit lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn popcnt_epi64(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // lane 0
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // lane 1
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Sums the four 64-bit lanes of an accumulator vector.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn hsum_epi64(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is 32 bytes of writable memory; `storeu` has no
        // alignment requirement.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
        lanes[0] + lanes[1] + lanes[2] + lanes[3]
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    fn avx2_and_popcount(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_and_si256(load4(a, i), load4(b, i));
            acc = _mm256_add_epi64(acc, popcnt_epi64(x));
            i += 4;
        }
        let mut total = hsum_epi64(acc);
        while i < n {
            total += (a[i] & b[i]).count_ones() as u64;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    fn avx2_and_self_popcount(mask: &[u64], child: &[u64]) -> (u64, u64) {
        let n = mask.len().min(child.len());
        let mut acc_and = _mm256_setzero_si256();
        let mut acc_tot = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let (m, c) = (load4(mask, i), load4(child, i));
            acc_and = _mm256_add_epi64(acc_and, popcnt_epi64(_mm256_and_si256(m, c)));
            acc_tot = _mm256_add_epi64(acc_tot, popcnt_epi64(m));
            i += 4;
        }
        let (mut and_total, mut total) = (hsum_epi64(acc_and), hsum_epi64(acc_tot));
        while i < n {
            and_total += (mask[i] & child[i]).count_ones() as u64;
            total += mask[i].count_ones() as u64;
            i += 1;
        }
        (and_total, total)
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    fn avx2_and3_popcount(m: &[u64], w: &[u64], c: &[u64]) -> (u64, u64) {
        let n = m.len().min(w.len()).min(c.len());
        let mut acc_mw = _mm256_setzero_si256();
        let mut acc_mwc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let (mv, wv, cv) = (load4(m, i), load4(w, i), load4(c, i));
            let mw = _mm256_and_si256(mv, wv);
            acc_mw = _mm256_add_epi64(acc_mw, popcnt_epi64(mw));
            acc_mwc = _mm256_add_epi64(acc_mwc, popcnt_epi64(_mm256_and_si256(mw, cv)));
            i += 4;
        }
        let (mut mw_total, mut mwc_total) = (hsum_epi64(acc_mw), hsum_epi64(acc_mwc));
        while i < n {
            let x = m[i] & w[i];
            mw_total += x.count_ones() as u64;
            mwc_total += (x & c[i]).count_ones() as u64;
            i += 1;
        }
        (mw_total, mwc_total)
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    fn avx2_and_popcount_rows(rows: &[u64], words: usize, x: &[u64], out: &mut [u64]) {
        // Rows of at most one lane group take the unrolled popcnt loop.
        if super::and_popcount_narrow_rows(rows, words, x, out) {
            return;
        }
        for (r, o) in rows.chunks_exact(words.max(1)).zip(out) {
            *o = avx2_and_popcount(r, x);
        }
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    fn avx2_and3_popcount_rows(
        masks: &[u64],
        words: usize,
        x: &[u64],
        c: &[u64],
        out: &mut [[u64; 2]],
    ) {
        // Rows of at most one 256-bit lane group gain nothing from the
        // vector loop's accumulator round trip.
        if super::and3_popcount_narrow_rows(masks, words, x, c, out) {
            return;
        }
        for (m, o) in masks.chunks_exact(words.max(1)).zip(out) {
            let (mx, mxc) = avx2_and3_popcount(m, x, c);
            *o = [mx, mxc];
        }
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    fn avx2_popcount(a: &[u64]) -> u64 {
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let x = load4(a, i);
            acc = _mm256_add_epi64(acc, popcnt_epi64(x));
            i += 4;
        }
        let mut total = hsum_epi64(acc);
        while i < n {
            total += a[i].count_ones() as u64;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    fn avx2_refine_masks(lo: &mut [u64], hi: &mut [u64], p: &[u64]) {
        let n = lo.len().min(hi.len()).min(p.len());
        let mut i = 0usize;
        while i + 4 <= n {
            let word = load4(lo, i);
            let pv = load4(p, i);
            // SAFETY: `i + 4 <= n`, the common in-bounds prefix of all
            // three slices; `storeu` has no alignment requirement.
            unsafe {
                _mm256_storeu_si256(lo.as_mut_ptr().add(i).cast(), _mm256_andnot_si256(pv, word));
                _mm256_storeu_si256(hi.as_mut_ptr().add(i).cast(), _mm256_and_si256(word, pv));
            }
            i += 4;
        }
        while i < n {
            let word = lo[i];
            lo[i] = word & !p[i];
            hi[i] = word & p[i];
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift word stream (no `rand` dependency so the
    /// module's tests stay runnable under miri without extra crates).
    fn words(seed: u64, len: usize) -> Vec<u64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    fn naive_popcount(a: &[u64]) -> u64 {
        a.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Lengths exercising every unroll boundary: empty, sub-lane, lane
    /// tails of the 4-word AVX2 step and the 8-word Harley–Seal block.
    const LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 40, 127, 255];

    fn tiers() -> Vec<Kernels> {
        let mut tiers = vec![Kernels::for_mode(SimdMode::Scalar)];
        if have_popcnt() {
            tiers.push(Kernels::for_mode(SimdMode::Popcnt));
        }
        if have_avx2() {
            tiers.push(Kernels::for_mode(SimdMode::Avx2));
        }
        tiers.push(Kernels::for_mode(SimdMode::Auto));
        tiers
    }

    #[test]
    fn all_tiers_match_naive_popcount() {
        for &len in LENS {
            let a = words(0x9E37_79B9, len);
            let expect = naive_popcount(&a);
            for k in tiers() {
                assert_eq!(k.popcount(&a), expect, "{} len {len}", k.dispatch());
            }
        }
    }

    #[test]
    fn all_tiers_match_naive_and_popcount() {
        for &len in LENS {
            let a = words(0xDEAD_BEEF, len);
            let b = words(0x0BAD_F00D, len);
            let expect: u64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x & y).count_ones() as u64)
                .sum();
            for k in tiers() {
                assert_eq!(k.and_popcount(&a, &b), expect, "{} len {len}", k.dispatch());
            }
        }
    }

    #[test]
    fn all_tiers_match_naive_and_self_popcount() {
        for &len in LENS {
            let m = words(0x1234_5678, len);
            let c = words(0x8765_4321, len);
            let expect = (
                m.iter()
                    .zip(&c)
                    .map(|(x, y)| (x & y).count_ones() as u64)
                    .sum::<u64>(),
                naive_popcount(&m),
            );
            for k in tiers() {
                assert_eq!(
                    k.and_self_popcount(&m, &c),
                    expect,
                    "{} len {len}",
                    k.dispatch()
                );
            }
        }
    }

    #[test]
    fn all_tiers_match_naive_and3_popcount() {
        // One row as long as each non-empty unroll-boundary length.
        for &len in LENS.iter().filter(|&&len| len > 0) {
            let m = words(0xAAAA_1111, len);
            let w = words(0xBBBB_2222, len);
            let c = words(0xCCCC_3333, len);
            let expect = [
                m.iter()
                    .zip(&w)
                    .map(|(x, y)| (x & y).count_ones() as u64)
                    .sum::<u64>(),
                m.iter()
                    .zip(&w)
                    .zip(&c)
                    .map(|((x, y), z)| (x & y & z).count_ones() as u64)
                    .sum::<u64>(),
            ];
            for k in tiers() {
                let mut out = [[0u64; 2]];
                k.and3_popcount_rows(&m, len, &w, &c, &mut out);
                assert_eq!(out[0], expect, "{} len {len}", k.dispatch());
            }
        }
    }

    #[test]
    fn all_tiers_match_naive_and3_popcount_rows() {
        // Row widths straddle the 4-word AVX2 lane group and the 16-word
        // Harley–Seal block; row counts include none and one.
        for width in [1usize, 2, 3, 4, 5, 8, 17, 18] {
            for rows in [0usize, 1, 3, 7] {
                let masks = words(0x5151_A0A0, rows * width);
                let x = words(0x6262_B1B1, width);
                let c = words(0x7373_C2C2, width);
                let expect: Vec<[u64; 2]> = masks
                    .chunks_exact(width)
                    .map(|m| {
                        let mx: Vec<u64> = m.iter().zip(&x).map(|(a, b)| a & b).collect();
                        let mxc: Vec<u64> = mx.iter().zip(&c).map(|(a, b)| a & b).collect();
                        [naive_popcount(&mx), naive_popcount(&mxc)]
                    })
                    .collect();
                for k in tiers() {
                    let mut out = vec![[u64::MAX; 2]; rows];
                    k.and3_popcount_rows(&masks, width, &x, &c, &mut out);
                    assert_eq!(out, expect, "{} width {width} rows {rows}", k.dispatch());
                }
            }
        }
    }

    #[test]
    fn all_tiers_match_naive_and_popcount_rows() {
        // Row widths straddle the unrolled 1–4-word loops, the 4-word AVX2
        // lane group and the 16-word Harley–Seal block; row counts include
        // none and one.
        for width in [1usize, 2, 3, 4, 5, 8, 17, 18] {
            for rows in [0usize, 1, 3, 7, 64] {
                let run = words(0x1F1F_2E2E, rows * width);
                let x = words(0x3D3D_4C4C, width);
                let expect: Vec<u64> = run
                    .chunks_exact(width)
                    .map(|r| {
                        r.iter()
                            .zip(&x)
                            .map(|(a, b)| (a & b).count_ones() as u64)
                            .sum()
                    })
                    .collect();
                for k in tiers() {
                    let mut out = vec![u64::MAX; rows];
                    k.and_popcount_rows(&run, width, &x, &mut out);
                    assert_eq!(out, expect, "{} width {width} rows {rows}", k.dispatch());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fewer rows")]
    fn and_popcount_rows_rejects_a_short_run() {
        let mut out = [0u64; 2];
        Kernels::for_mode(SimdMode::Scalar).and_popcount_rows(&[0; 3], 2, &[0; 2], &mut out);
    }

    #[test]
    #[should_panic(expected = "fewer rows")]
    fn and3_popcount_rows_rejects_a_short_arena() {
        let mut out = [[0u64; 2]; 2];
        Kernels::for_mode(SimdMode::Scalar)
            .and3_popcount_rows(&[0; 3], 2, &[0; 2], &[0; 2], &mut out);
    }

    #[test]
    fn all_tiers_match_naive_marginal_counts() {
        // One- and two-word codes; subsets from empty to ten bits,
        // including ones that straddle the word boundary.
        for width in [1usize, 2] {
            let codes = words(0x0DD_C0DE, 37 * width);
            let counts = words(0x0C0_FFEE, 2 * 37);
            let cells: Vec<[u64; 2]> = counts
                .chunks_exact(2)
                .map(|c| [c[0] % 97, c[1] % 89])
                .collect();
            let picks = words(0x5EED, 24);
            for bits in 0..=10usize {
                let mut subset = vec![0u64; width];
                for &p in picks.iter().take(bits) {
                    let t = (p % (64 * width as u64)) as usize;
                    subset[t / 64] |= 1 << (t % 64);
                }
                let size: u32 = subset.iter().map(|w| w.count_ones()).sum();
                let mut expect = vec![[0u64; 2]; 1 << size];
                for (code, cell) in codes.chunks_exact(width).zip(&cells) {
                    // The subset's bits of the code, lowest position first.
                    let mut j = 0usize;
                    let mut k = 0;
                    for t in 0..64 * width {
                        if subset[t / 64] >> (t % 64) & 1 == 1 {
                            j |= ((code[t / 64] >> (t % 64) & 1) as usize) << k;
                            k += 1;
                        }
                    }
                    expect[j][0] += cell[0];
                    expect[j][1] += cell[1];
                }
                for k in tiers() {
                    let mut out = vec![[u64::MAX; 2]; 1 << size];
                    k.marginal_counts(&codes, width, &cells, &subset, &mut out);
                    assert_eq!(
                        out,
                        expect,
                        "{} width {width} subset {subset:x?}",
                        k.dispatch()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one entry per subset combination")]
    fn marginal_counts_rejects_a_wrong_table_size() {
        let mut out = [[0u64; 2]; 2];
        Kernels::for_mode(SimdMode::Scalar).marginal_counts(
            &[0; 3],
            1,
            &[[1, 1]; 3],
            &[0b11],
            &mut out,
        );
    }

    #[test]
    fn all_tiers_refine_masks_identically() {
        for &len in LENS {
            let src = words(0xFEED_FACE, len);
            let p = words(0xCAFE_D00D, len);
            let mut expect_lo = src.clone();
            let mut expect_hi = vec![0u64; len];
            for k in 0..len {
                expect_lo[k] = src[k] & !p[k];
                expect_hi[k] = src[k] & p[k];
            }
            for k in tiers() {
                let mut lo = src.clone();
                let mut hi = vec![0u64; len];
                k.refine_masks(&mut lo, &mut hi, &p);
                assert_eq!(lo, expect_lo, "{} lo len {len}", k.dispatch());
                assert_eq!(hi, expect_hi, "{} hi len {len}", k.dispatch());
                // The split is a partition of the source mask.
                for ((l, h), s) in lo.iter().zip(&hi).zip(&src) {
                    assert_eq!(l | h, *s);
                    assert_eq!(l & h, 0);
                }
            }
        }
    }

    #[test]
    fn refine_masks_ignores_trailing_words_beyond_parent() {
        // Zip semantics: words past the shortest slice stay untouched.
        let mut lo = vec![u64::MAX; 5];
        let mut hi = vec![0u64; 5];
        let p = vec![0xFFu64; 3];
        Kernels::for_mode(SimdMode::Scalar).refine_masks(&mut lo, &mut hi, &p);
        assert_eq!(lo[3], u64::MAX);
        assert_eq!(hi[3], 0);
        assert_eq!(lo[0], !0xFF);
        assert_eq!(hi[0], 0xFF);
    }

    #[test]
    fn parse_simd_accepts_all_modes() {
        assert_eq!(parse_simd(None), Ok(SimdMode::Auto));
        assert_eq!(parse_simd(Some("auto")), Ok(SimdMode::Auto));
        assert_eq!(parse_simd(Some("AVX2")), Ok(SimdMode::Avx2));
        assert_eq!(parse_simd(Some(" popcnt ")), Ok(SimdMode::Popcnt));
        assert_eq!(parse_simd(Some("scalar")), Ok(SimdMode::Scalar));
    }

    #[test]
    fn parse_simd_reports_the_raw_text() {
        assert_eq!(parse_simd(Some("sse9")), Err("sse9"));
        assert_eq!(parse_simd(Some("")), Err(""));
        assert_eq!(parse_simd(Some("2")), Err("2"));
    }

    #[test]
    fn mode_strings_round_trip() {
        for mode in [
            SimdMode::Auto,
            SimdMode::Avx2,
            SimdMode::Popcnt,
            SimdMode::Scalar,
        ] {
            assert_eq!(parse_simd(Some(mode.as_str())), Ok(mode));
            assert_eq!(mode.to_string(), mode.as_str());
        }
    }

    #[test]
    fn forced_scalar_always_dispatches_scalar() {
        assert_eq!(Kernels::for_mode(SimdMode::Scalar).dispatch(), "scalar");
    }

    #[test]
    fn auto_picks_the_best_detected_tier() {
        let auto = Kernels::for_mode(SimdMode::Auto);
        let expect = if have_avx2() {
            "avx2"
        } else if have_popcnt() {
            "popcnt"
        } else {
            "scalar"
        };
        assert_eq!(auto.dispatch(), expect);
    }

    #[test]
    fn process_global_table_is_stable() {
        let first = kernels().dispatch();
        assert_eq!(kernels().dispatch(), first);
        // `requested_mode` resolves consistently with the table.
        let _ = requested_mode();
    }
}
