//! Zero-dependency observability for the diffnet pipeline.
//!
//! The workspace builds with no registry access, so this crate hand-rolls
//! the three pieces an instrumentation layer needs on `std` alone:
//!
//! - [`Recorder`]: phases ([`Recorder::phase`] returning a timing guard),
//!   nested spans ([`Recorder::span`], ring-bounded, serialized under
//!   `runtime.trace`), counters, scalar values, histograms, log₂ duration
//!   histograms ([`DurationHistogram`]), and per-worker chunk stats —
//!   with a no-op disabled mode ([`Recorder::disabled`]) so instrumented
//!   code costs a predictable branch when observability is off;
//! - [`ResourceProfiler`]: a background RSS/CPU sampler over
//!   `/proc/self/statm` + `getrusage(2)`, serialized under
//!   `runtime.resources`;
//! - [`Json`]: a deterministic JSON tree, writer, and minimal parser
//!   (hoisted from the `perf_report` bench binary);
//! - [`RunReport`]: the structured report serialized for `--run-report`,
//!   split into a deterministic section (pure function of seed + config)
//!   and a `runtime` section (wall times, worker scheduling);
//! - [`render_prometheus`]: the Prometheus-style plain-text exposition of
//!   a recorder snapshot, shared by `diffnet-serve`'s `/v1/metrics`
//!   endpoint and any scraping tooling.
//!
//! See DESIGN.md ("Observability") for the rationale behind the
//! no-op-collector pattern and the deterministic/runtime split.

#![warn(missing_docs)]

pub mod fault;
pub mod json;
pub mod prometheus;
pub mod recorder;
pub mod report;
pub mod resources;
pub mod trace;

pub use fault::FaultPlan;
pub use json::{parse as parse_json, Json, ParseError};
pub use prometheus::{lint_exposition, render_prometheus};
pub use recorder::{
    duration_bucket_bounds, DurationHistogram, PhaseGuard, Progress, Recorder, Snapshot, SpanGuard,
    DURATION_BUCKETS, DURATION_SUB_BUCKETS,
};
pub use report::{strip_runtime, validate_report_json, CheckpointInfo, PhaseTiming, RunReport};
pub use resources::{
    current_rss_bytes, ResourceProfile, ResourceProfiler, DEFAULT_SAMPLE_INTERVAL,
};
pub use trace::{
    collapse_stacks, render_timeline, spans_from_json, trace_to_json, ParsedSpan, SpanId,
    SpanRecord, SPAN_BUFFER_CAP,
};
