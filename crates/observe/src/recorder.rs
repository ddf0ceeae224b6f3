//! The recording surface the pipeline is instrumented against.
//!
//! Design (see DESIGN.md): a [`Recorder`] is either *enabled* (backed by a
//! mutex-guarded store) or *disabled* (the shared [`Recorder::disabled`]
//! static). Instrumented code takes `&Recorder` and calls it
//! unconditionally; every entry point checks the `enabled` flag first, so
//! the disabled path is a branch on an immutable bool — no locking, no
//! allocation, no timer reads. That keeps the default (observability off)
//! within noise of uninstrumented code, which the perf acceptance bar
//! (< 2% regression) requires.
//!
//! Aggregation happens at *phase boundaries*: hot loops accumulate plain
//! integers in their own structs (`SearchStats`, `CountsWorkspace`
//! counters, `PoolStats`) and the pipeline ingests those aggregates into
//! the recorder once per phase. The recorder is never touched per
//! combination or per row.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::trace::{SpanId, SpanRecord, SPAN_BUFFER_CAP};

#[derive(Debug, Default)]
struct Inner {
    /// Completed phases in the order they finished, with wall seconds.
    phases: Vec<(&'static str, f64)>,
    /// Monotonic counters.
    counters: BTreeMap<&'static str, u64>,
    /// Scalar observations (e.g. the 2-means threshold τ).
    values: BTreeMap<&'static str, f64>,
    /// Named histograms as raw bucket counts (index = bucket).
    histograms: BTreeMap<&'static str, Vec<u64>>,
    /// Log₂-scaled duration histograms with real second boundaries.
    durations: BTreeMap<&'static str, DurationHistogram>,
    /// Per-worker chunk claims, keyed by the parallel region's name.
    worker_chunks: BTreeMap<&'static str, Vec<u64>>,
    /// Completed spans, oldest first; bounded at [`SPAN_BUFFER_CAP`].
    spans: VecDeque<SpanRecord>,
    /// Spans evicted from the ring once it filled.
    spans_dropped: u64,
}

/// Collects phase timings, counters, values, and histograms for one run.
///
/// Cheap to share by reference; `Sync`, so parallel regions may record
/// into it (though the instrumented pipeline only does so at phase
/// boundaries). Construct with [`Recorder::new`] to record, or use the
/// [`Recorder::disabled`] static for the free no-op.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    inner: Mutex<Inner>,
    /// Epoch for span offsets, set by the first span or phase.
    epoch: OnceLock<Instant>,
    /// Lock-free span id allocator (ids start at 1).
    next_span_id: AtomicU64,
}

/// The process-wide no-op recorder.
static DISABLED: Recorder = Recorder {
    enabled: false,
    inner: Mutex::new(Inner {
        phases: Vec::new(),
        counters: BTreeMap::new(),
        values: BTreeMap::new(),
        histograms: BTreeMap::new(),
        durations: BTreeMap::new(),
        worker_chunks: BTreeMap::new(),
        spans: VecDeque::new(),
        spans_dropped: 0,
    }),
    epoch: OnceLock::new(),
    next_span_id: AtomicU64::new(1),
};

impl Recorder {
    /// A recorder that actually records.
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            inner: Mutex::new(Inner::default()),
            epoch: OnceLock::new(),
            next_span_id: AtomicU64::new(1),
        }
    }

    /// The shared no-op recorder: every call on it is a branch on a
    /// constant `false` and returns immediately.
    pub fn disabled() -> &'static Recorder {
        &DISABLED
    }

    /// Whether this recorder stores anything. Instrumented code uses this
    /// to skip work done *only* to feed the recorder (e.g. O(n²) scans
    /// that summarize a matrix).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds elapsed since this recorder's epoch (the first span or
    /// phase), initializing the epoch on first use.
    fn offset_now(&self) -> f64 {
        let epoch = *self.epoch.get_or_init(Instant::now);
        Instant::now().duration_since(epoch).as_secs_f64()
    }

    /// Starts a named phase; the returned guard records the elapsed wall
    /// time when dropped, and also records a *root span* of the same name
    /// into the trace ring buffer. No-op (no timer read) when disabled.
    pub fn phase(&self, name: &'static str) -> PhaseGuard<'_> {
        let start = if self.enabled {
            let start_s = self.offset_now();
            Some((
                Instant::now(),
                start_s,
                self.next_span_id.fetch_add(1, Ordering::Relaxed),
            ))
        } else {
            None
        };
        PhaseGuard {
            recorder: self,
            name,
            start,
        }
    }

    /// Starts a root span. The guard records the completed span into the
    /// bounded ring buffer when dropped; attach attributes with
    /// [`SpanGuard::attr`]. Free (one branch) when disabled.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_with_parent(name, None)
    }

    /// Starts a span nested under `parent` (a span or phase id obtained
    /// from [`SpanGuard::id`] / [`PhaseGuard::span_id`]). Passing `None`
    /// makes a root span.
    pub fn span_with_parent(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard<'_> {
        let start = if self.enabled {
            Some((
                self.offset_now(),
                self.next_span_id.fetch_add(1, Ordering::Relaxed),
            ))
        } else {
            None
        };
        SpanGuard {
            recorder: self,
            name,
            parent,
            start,
            attrs: Vec::new(),
        }
    }

    /// Pushes a completed span into the ring, evicting the oldest span
    /// once the buffer is full.
    fn finish_span(&self, span: SpanRecord) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        if inner.spans.len() >= SPAN_BUFFER_CAP {
            inner.spans.pop_front();
            inner.spans_dropped += 1;
        }
        inner.spans.push_back(span);
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock().expect("recorder poisoned");
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    /// Records a scalar observation (last write wins).
    pub fn value(&self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock().expect("recorder poisoned");
        inner.values.insert(name, value);
    }

    /// Adds one observation to a histogram bucket, growing the bucket
    /// vector as needed.
    pub fn histogram(&self, name: &'static str, bucket: usize) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let buckets = inner.histograms.entry(name).or_default();
        if buckets.len() <= bucket {
            buckets.resize(bucket + 1, 0);
        }
        buckets[bucket] += 1;
    }

    /// Records one observation into a named log₂-scaled duration
    /// histogram (real second boundaries; see
    /// [`duration_bucket_bounds`]).
    pub fn duration(&self, name: &'static str, seconds: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock().expect("recorder poisoned");
        inner.durations.entry(name).or_default().record(seconds);
    }

    /// Records per-worker chunk claims for a named parallel region
    /// (last write wins). Worker order is scheduler-dependent, so this
    /// lands in the report's `runtime` section, not the deterministic one.
    pub fn worker_chunks(&self, region: &'static str, chunks: &[u64]) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock().expect("recorder poisoned");
        inner.worker_chunks.insert(region, chunks.to_vec());
    }

    /// Reads out a snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("recorder poisoned");
        Snapshot {
            phases: inner.phases.clone(),
            counters: inner.counters.clone(),
            values: inner.values.clone(),
            histograms: inner.histograms.clone(),
            durations: inner.durations.clone(),
            worker_chunks: inner.worker_chunks.clone(),
            spans: inner.spans.iter().cloned().collect(),
            spans_dropped: inner.spans_dropped,
        }
    }

    /// Reads out only what a progress poll shows: the finished phases'
    /// names and the counter totals. Unlike [`snapshot`](Self::snapshot)
    /// it copies no spans, so polling a running job does not clone its
    /// span ring while the job's workers wait on the lock to record.
    pub fn progress(&self) -> Progress {
        let inner = self.inner.lock().expect("recorder poisoned");
        Progress {
            phases: inner.phases.iter().map(|&(name, _)| name).collect(),
            counters: inner.counters.clone(),
        }
    }

    fn finish_phase(&self, name: &'static str, seconds: f64, span: SpanRecord) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        inner.phases.push((name, seconds));
        if inner.spans.len() >= SPAN_BUFFER_CAP {
            inner.spans.pop_front();
            inner.spans_dropped += 1;
        }
        inner.spans.push_back(span);
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

/// RAII guard for one phase; on drop it records the elapsed time *and* a
/// root span of the same name.
#[must_use = "dropping the guard immediately times nothing"]
pub struct PhaseGuard<'a> {
    recorder: &'a Recorder,
    name: &'static str,
    /// `(timer, start offset, span id)` when recording.
    start: Option<(Instant, f64, SpanId)>,
}

impl PhaseGuard<'_> {
    /// The id of the root span this phase will record, for nesting child
    /// spans under it. `None` when the recorder is disabled.
    pub fn span_id(&self) -> Option<SpanId> {
        self.start.map(|(_, _, id)| id)
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some((start, start_s, id)) = self.start {
            let seconds = start.elapsed().as_secs_f64();
            self.recorder.finish_phase(
                self.name,
                seconds,
                SpanRecord {
                    id,
                    parent: None,
                    name: self.name,
                    start_s,
                    end_s: start_s + seconds,
                    thread: current_thread_label(),
                    attrs: Vec::new(),
                },
            );
        }
    }
}

/// RAII guard for one span; records the completed [`SpanRecord`] into the
/// ring buffer on drop.
#[must_use = "dropping the guard immediately records an empty span"]
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    name: &'static str,
    parent: Option<SpanId>,
    /// `(start offset, span id)` when recording.
    start: Option<(f64, SpanId)>,
    attrs: Vec<(&'static str, u64)>,
}

impl SpanGuard<'_> {
    /// This span's id, for nesting children under it. `None` when the
    /// recorder is disabled.
    pub fn id(&self) -> Option<SpanId> {
        self.start.map(|(_, id)| id)
    }

    /// Attaches a static-keyed integer attribute (written with the span
    /// when the guard drops; last write wins per key). No-op when
    /// disabled.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.start.is_none() {
            return;
        }
        match self.attrs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.attrs.push((key, value)),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((start_s, id)) = self.start {
            self.recorder.finish_span(SpanRecord {
                id,
                parent: self.parent,
                name: self.name,
                start_s,
                end_s: self.recorder.offset_now(),
                thread: current_thread_label(),
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }
}

/// The current thread's name, or its `ThreadId` debug form for unnamed
/// threads (e.g. scoped pool workers).
fn current_thread_label() -> String {
    let thread = std::thread::current();
    match thread.name() {
        Some(name) => name.to_string(),
        None => format!("{:?}", thread.id()),
    }
}

/// Linear sub-buckets per octave in a [`DurationHistogram`]. Four
/// sub-buckets bound the quantile overestimate at 25% (the original
/// one-bucket-per-octave scheme was a 2× overestimate, which collapsed
/// p50/p95/p99 of sub-millisecond requests onto one boundary).
pub const DURATION_SUB_BUCKETS: usize = 4;

/// Number of real-second boundaries in a [`DurationHistogram`]:
/// `2^-20 s` (≈1 µs) through `2^5 s` (32 s), each octave split into
/// [`DURATION_SUB_BUCKETS`] linear sub-buckets (HDR-histogram style).
pub const DURATION_BUCKETS: usize = 1 + 25 * DURATION_SUB_BUCKETS;

/// The real second boundaries of a [`DurationHistogram`]: the base bound
/// `2^-20` s followed, per octave `[2^e, 2^(e+1))`, by the linear
/// subdivisions `2^e · (1 + j/4)` for `j = 1..=4`. Every boundary is a
/// dyadic rational, so it is exactly representable in an `f64` and the
/// rendered `le` labels round-trip exactly.
pub fn duration_bucket_bounds() -> [f64; DURATION_BUCKETS] {
    let mut bounds = [0.0; DURATION_BUCKETS];
    bounds[0] = 2.0f64.powi(-20);
    let mut i = 1;
    for e in -20..5 {
        let octave = 2.0f64.powi(e);
        for j in 1..=DURATION_SUB_BUCKETS {
            bounds[i] = octave * (1.0 + j as f64 / DURATION_SUB_BUCKETS as f64);
            i += 1;
        }
    }
    bounds
}

/// A log₂-octave duration histogram with linear sub-buckets and real
/// second boundaries — the latency-shaped sibling of the recorder's
/// index-bucket histograms (whose bucket index *is* the observed
/// value). Observations above the last boundary land only in
/// `overflow`/`count` (the `+Inf` bucket).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurationHistogram {
    /// Per-boundary counts, aligned with [`duration_bucket_bounds`]
    /// (empty until the first observation).
    pub buckets: Vec<u64>,
    /// Observations above the last boundary.
    pub overflow: u64,
    /// Sum of all observed durations, in seconds.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

impl DurationHistogram {
    /// Records one duration. Negative and non-finite observations clamp
    /// to zero (they can only arise from clock anomalies).
    pub fn record(&mut self, seconds: f64) {
        let s = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        if self.buckets.is_empty() {
            self.buckets = vec![0; DURATION_BUCKETS];
        }
        self.sum += s;
        self.count += 1;
        // Bounds are sorted, so the target bucket is a binary search —
        // cheap enough for a load generator recording every request.
        let bounds = duration_bucket_bounds();
        let i = bounds.partition_point(|&b| b < s);
        if i < bounds.len() {
            self.buckets[i] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Folds another histogram's counts into this one — how per-worker
    /// latency histograms aggregate into one report.
    pub fn merge(&mut self, other: &DurationHistogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; DURATION_BUCKETS];
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.overflow += other.overflow;
        self.sum += other.sum;
        self.count += other.count;
    }

    /// The `q`-quantile (0 < q <= 1) as the upper boundary of the bucket
    /// where the cumulative count crosses `q × count` — a ≤25%
    /// overestimate by construction — `+Inf` for observations beyond the
    /// last boundary, `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let bounds = duration_bucket_bounds();
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return bounds[i];
            }
        }
        f64::INFINITY
    }
}

/// An owned copy of a recorder's contents, used to assemble reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(phase name, wall seconds)` in completion order.
    pub phases: Vec<(&'static str, f64)>,
    /// Counter totals, sorted by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Scalar observations, sorted by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Histogram bucket counts, sorted by name.
    pub histograms: BTreeMap<&'static str, Vec<u64>>,
    /// Duration histograms, sorted by name.
    pub durations: BTreeMap<&'static str, DurationHistogram>,
    /// Per-worker chunk claims per parallel region, sorted by name.
    pub worker_chunks: BTreeMap<&'static str, Vec<u64>>,
    /// Completed spans in completion order (ring-bounded).
    pub spans: Vec<SpanRecord>,
    /// Spans evicted once the ring filled.
    pub spans_dropped: u64,
}

/// A recorder's progress so far ([`Recorder::progress`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Progress {
    /// Names of the completed phases, in completion order.
    pub phases: Vec<&'static str>,
    /// Counter totals, sorted by name.
    pub counters: BTreeMap<&'static str, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_is_the_snapshot_without_timings_or_spans() {
        let rec = Recorder::new();
        {
            let _g = rec.phase("load");
            let _s = rec.span("inner");
        }
        rec.add("pairs", 3);
        rec.value("tau", 0.5);
        let (snap, progress) = (rec.snapshot(), rec.progress());
        assert_eq!(progress.phases, vec!["load"]);
        assert_eq!(progress.counters, snap.counters);
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(Recorder::disabled().progress(), Progress::default());
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let _g = rec.phase("load");
        }
        rec.add("pairs", 7);
        rec.value("tau", 0.5);
        rec.histogram("sizes", 3);
        rec.worker_chunks("search", &[1, 2]);
        let snap = rec.snapshot();
        assert_eq!(snap, Snapshot::default());
    }

    #[test]
    fn enabled_recorder_accumulates() {
        let rec = Recorder::new();
        assert!(rec.is_enabled());
        {
            let _g = rec.phase("load");
        }
        rec.add("pairs", 3);
        rec.add("pairs", 4);
        rec.value("tau", 0.25);
        rec.value("tau", 0.5);
        rec.histogram("sizes", 0);
        rec.histogram("sizes", 2);
        rec.histogram("sizes", 2);
        rec.worker_chunks("search", &[5, 6]);
        let snap = rec.snapshot();
        assert_eq!(snap.phases.len(), 1);
        assert_eq!(snap.phases[0].0, "load");
        assert!(snap.phases[0].1 >= 0.0);
        assert_eq!(snap.counters["pairs"], 7);
        assert_eq!(snap.values["tau"], 0.5);
        assert_eq!(snap.histograms["sizes"], vec![1, 0, 2]);
        assert_eq!(snap.worker_chunks["search"], vec![5, 6]);
    }

    #[test]
    fn phases_record_in_completion_order() {
        let rec = Recorder::new();
        {
            let _outer = rec.phase("outer");
            let _inner = rec.phase("inner");
        }
        let snap = rec.snapshot();
        let names: Vec<_> = snap.phases.iter().map(|(n, _)| *n).collect();
        // Inner guard drops first.
        assert_eq!(names, vec!["inner", "outer"]);
    }

    #[test]
    fn recorder_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Recorder>();
    }

    #[test]
    fn phases_record_root_spans() {
        let rec = Recorder::new();
        {
            let _g = rec.phase("load");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let span = &snap.spans[0];
        assert_eq!(span.name, "load");
        assert_eq!(span.parent, None);
        assert!(span.end_s >= span.start_s);
        assert!(!span.thread.is_empty());
        assert_eq!(snap.spans_dropped, 0);
        // The phase timing and the span must agree on duration.
        let phase_s = snap.phases[0].1;
        assert!((span.end_s - span.start_s - phase_s).abs() < 1e-3);
    }

    #[test]
    fn spans_nest_with_ids_and_attrs() {
        let rec = Recorder::new();
        let phase = rec.phase("parent_search");
        let parent_id = phase.span_id().expect("enabled phase has a span id");
        {
            let mut child = rec.span_with_parent("node_search", Some(parent_id));
            assert!(child.id().is_some());
            child.attr("node", 7);
            child.attr("candidates", 3);
            child.attr("node", 8); // last write wins
        }
        drop(phase);
        let snap = rec.snapshot();
        // Child completes (and records) before the phase guard drops.
        assert_eq!(snap.spans.len(), 2);
        let child = &snap.spans[0];
        assert_eq!(child.name, "node_search");
        assert_eq!(child.parent, Some(parent_id));
        assert_eq!(child.attrs, vec![("node", 8), ("candidates", 3)]);
        let root = &snap.spans[1];
        assert_eq!(root.name, "parent_search");
        assert_eq!(root.id, parent_id);
        // Monotonic offsets from one epoch.
        assert!(child.start_s >= root.start_s);
        assert!(root.end_s >= child.end_s);
    }

    #[test]
    fn span_ring_buffer_is_bounded() {
        let rec = Recorder::new();
        for _ in 0..(SPAN_BUFFER_CAP + 10) {
            let _s = rec.span("tick");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), SPAN_BUFFER_CAP);
        assert_eq!(snap.spans_dropped, 10);
        // The survivors are the newest spans.
        assert!(snap.spans[0].id > snap.spans.last().unwrap().id - SPAN_BUFFER_CAP as u64);
    }

    #[test]
    fn disabled_recorder_skips_spans_and_durations() {
        let rec = Recorder::disabled();
        {
            let phase = rec.phase("p");
            assert_eq!(phase.span_id(), None);
            let mut span = rec.span("s");
            assert_eq!(span.id(), None);
            span.attr("k", 1);
        }
        rec.duration("lat", 0.5);
        assert_eq!(rec.snapshot(), Snapshot::default());
    }

    #[test]
    fn duration_histogram_buckets_and_quantiles() {
        let mut h = DurationHistogram::default();
        assert!(h.quantile(0.5).is_nan());
        for _ in 0..90 {
            h.record(0.001); // ≤ 1.25 · 2^-10 s = 0.001220703125
        }
        for _ in 0..10 {
            h.record(1.5); // exactly the 1.5 s sub-boundary
        }
        h.record(1e9); // beyond the last bound → overflow
        assert_eq!(h.count, 101);
        assert!((h.sum - (90.0 * 0.001 + 15.0 + 1e9)).abs() < 1e-6);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.quantile(0.5), 0.001220703125);
        assert_eq!(h.quantile(0.95), 1.5);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
        // Recorder integration.
        let rec = Recorder::new();
        rec.duration("lat", 0.001);
        rec.duration("lat", 0.002);
        let snap = rec.snapshot();
        assert_eq!(snap.durations["lat"].count, 2);
    }

    #[test]
    fn duration_bounds_are_monotone() {
        let bounds = duration_bucket_bounds();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(bounds[0], 2.0f64.powi(-20));
        assert_eq!(bounds[DURATION_BUCKETS - 1], 32.0);
    }

    /// Pins the sub-octave boundary values: every power of two from the
    /// old scheme is still a boundary (existing `le` labels survive),
    /// and the linear subdivisions land exactly where documented — so
    /// microsecond-scale quantiles are distinguishable.
    #[test]
    fn duration_bounds_pin_suboctave_boundaries() {
        let bounds = duration_bucket_bounds();
        assert_eq!(bounds.len(), DURATION_BUCKETS);
        for e in -20..=5 {
            let p = 2.0f64.powi(e);
            assert!(bounds.contains(&p), "2^{e} missing from bounds");
        }
        // One full octave, exactly: [2^-10, 2^-9] in 4 linear steps.
        let start = bounds
            .iter()
            .position(|&b| b == 0.0009765625)
            .expect("2^-10");
        assert_eq!(
            &bounds[start..start + 5],
            &[
                0.0009765625,
                0.001220703125,
                0.00146484375,
                0.001708984375,
                0.001953125,
            ]
        );
        // Sub-millisecond observations that the old one-bucket-per-octave
        // scheme collapsed now resolve to distinct quantiles.
        let mut h = DurationHistogram::default();
        for _ in 0..90 {
            h.record(250e-6);
        }
        for _ in 0..10 {
            h.record(450e-6);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 < p99, "p50 {p50} should be below p99 {p99}");
        assert!((p50 - 0.00030517578125).abs() < 1e-18, "{p50}");
        assert!((p99 - 0.00048828125).abs() < 1e-18, "{p99}");
    }
}
