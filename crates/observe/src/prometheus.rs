//! Prometheus-style plain-text exposition of a recorder [`Snapshot`].
//!
//! One formatter shared by the `diffnet-serve` `/v1/metrics` endpoint and
//! any future scraping tooling. The output follows the Prometheus text
//! exposition format (version 0.0.4): every metric family is preceded by
//! `# HELP` (from the metric-description registry below) and `# TYPE`
//! lines, names are namespaced and sanitized to `[a-zA-Z_][a-zA-Z0-9_]*`,
//! and label values are escaped.
//!
//! The mapping from recorder primitives:
//!
//! | recorder datum  | exposition                                          |
//! |-----------------|-----------------------------------------------------|
//! | counter         | `ns_<name> <value>` (`counter`)                     |
//! | value           | `ns_<name> <value>` (`gauge`)                       |
//! | phase timings   | `ns_phase_seconds{phase="<p>"} <sum>` (`gauge`)     |
//! | histogram       | cumulative `ns_<name>_bucket{le="…"}` + `_sum`/`_count` (`histogram`) |
//! | duration histogram | same, with *real second* log₂ `le` boundaries, plus `ns_<name>_p50/_p95/_p99` gauges |
//! | worker chunks   | `ns_worker_chunks{region="<r>",worker="<i>"}` (`gauge`) |
//!
//! Recorder histograms store raw per-bucket counts where the bucket index
//! *is* the observed value, so the rendered `le` boundaries are the
//! integer indices and `_sum` is exact, not approximated. Duration
//! histograms instead bucket real seconds at powers of two (exactly
//! representable, so the labels round-trip), and their quantile gauges
//! report the upper boundary of the bucket the quantile falls in.
//!
//! Everything is emitted in deterministic order (counters/values/
//! histograms sorted by name, phases in completion order), so the output
//! is stable enough for golden tests. [`lint_exposition`] re-checks an
//! exposition for the failure modes scrapers choke on (duplicate
//! `TYPE`/`HELP`, non-monotone `le` buckets, `_count`/`_sum` drift) and
//! backs the `diffnet metrics-lint` CI command.

use crate::recorder::{duration_bucket_bounds, Snapshot};
use std::fmt::Write as _;

/// Sanitizes a metric-name fragment: every character outside
/// `[a-zA-Z0-9_]` becomes `_`, and a leading digit gets a `_` prefix.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes `# HELP` text per the exposition format: backslash and
/// newline only (quotes are legal in help text).
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Formats a float the way Prometheus expects: finite shortest-round-trip
/// decimal (Rust's `Display` never emits exponents for the magnitudes the
/// recorder produces), with non-finite values spelled `NaN`/`+Inf`/`-Inf`.
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// The metric-description registry: known recorder names and their
/// `# HELP` text. Names not listed here fall back to a kind-derived
/// description, so every family still gets a `HELP` line.
const METRIC_HELP: &[(&str, &str)] = &[
    (
        "accept_faults",
        "Connections dropped by the injected accept fault.",
    ),
    (
        "bound_rejections",
        "Candidate combinations rejected by the Theorem-2 bound.",
    ),
    (
        "candidate_set_size",
        "Surviving candidate parents per node after pruning.",
    ),
    (
        "combinations_scored",
        "Parent-set combinations scored during the search.",
    ),
    (
        "correlation_pairs",
        "Node pairs whose correlation was computed.",
    ),
    (
        "correlation_tiles",
        "Cache tiles processed by the correlation kernel.",
    ),
    (
        "edges_emitted",
        "Directed edges written to the inferred topology.",
    ),
    (
        "fold_values_evaluated",
        "Node pairs whose correlation the streamed fold evaluated.",
    ),
    (
        "greedy_rounds",
        "Greedy refinement rounds across all node searches.",
    ),
    (
        "http_connections_closed",
        "Connections closed by the reactor (any reason).",
    ),
    (
        "http_connections_open",
        "Connections currently registered with the reactor.",
    ),
    (
        "http_connections_opened",
        "Connections accepted and registered with the reactor.",
    ),
    (
        "http_error_responses",
        "HTTP responses with a 4xx or 5xx status.",
    ),
    (
        "http_idle_timeouts",
        "Idle keep-alive connections reaped by the reactor.",
    ),
    (
        "http_keepalive_reuses",
        "Requests served on an already-used keep-alive connection.",
    ),
    (
        "http_protocol_errors",
        "Requests rejected while parsing the HTTP head or body.",
    ),
    (
        "http_read_timeouts",
        "Connections answered 408 for not completing a request in time.",
    ),
    (
        "http_rejected_busy",
        "Requests answered 503 because the request-worker queue was full.",
    ),
    (
        "http_rejected_capacity",
        "Connections answered 503 at the open-connection cap.",
    ),
    ("http_requests", "HTTP requests accepted by the daemon."),
    (
        "http_slow_requests",
        "Requests slower than the configured slow-request threshold.",
    ),
    (
        "http_throttled_429",
        "Requests answered 429 for exceeding the per-connection in-flight budget.",
    ),
    ("jobs_completed", "Jobs that finished with a full result."),
    ("jobs_failed", "Jobs that finished with an error."),
    (
        "jobs_interrupted",
        "Jobs interrupted by shutdown and left resumable.",
    ),
    (
        "jobs_partial",
        "Jobs that finished with a degraded (partial) result.",
    ),
    (
        "jobs_rejected_queue_full",
        "Job submissions answered 503 at the queued-jobs cap.",
    ),
    (
        "pairs_above_tau",
        "Correlation pairs above the selected threshold.",
    ),
    (
        "phase_seconds",
        "Wall seconds summed per completed pipeline phase.",
    ),
    (
        "reactor_wakeups",
        "Times the epoll loop woke up (readiness, doorbell, or timeout).",
    ),
    (
        "process_peak_rss_bytes",
        "Peak resident-set size observed by the resource profiler.",
    ),
    ("process_rss_bytes", "Most recent resident-set size sample."),
    (
        "process_system_cpu_seconds",
        "Kernel-mode CPU seconds consumed by the process.",
    ),
    (
        "process_user_cpu_seconds",
        "User-mode CPU seconds consumed by the process.",
    ),
    (
        "score_cache_hits",
        "Parent-set score lookups served from the cache.",
    ),
    (
        "score_cache_misses",
        "Parent-set score lookups that had to be computed.",
    ),
    ("tau", "Correlation threshold selected by pinned 2-means."),
    (
        "tau_unscaled",
        "The 2-means threshold before --threshold-scale.",
    ),
    (
        "worker_chunks",
        "Chunk claims per worker per parallel region.",
    ),
    (
        "workspace_rebases",
        "Candidate histograms built by the counting workspace (one per searched node).",
    ),
    (
        "workspace_refinements",
        "Parent tables marginalized from candidate histograms (one per score-cache miss).",
    ),
];

/// The `# HELP` text for a recorder metric name: the registry entry when
/// known, otherwise a description derived from the name and kind.
fn help_text(name: &str, kind: &str) -> String {
    if let Some(&(_, text)) = METRIC_HELP.iter().find(|&&(n, _)| n == name) {
        return text.to_string();
    }
    for (suffix, q) in [("_p50", "0.5"), ("_p95", "0.95"), ("_p99", "0.99")] {
        if let Some(base) = name.strip_suffix(suffix) {
            return format!("The {q} quantile of {base} in seconds.");
        }
    }
    if let Some(endpoint) = name.strip_prefix("http_request_seconds_") {
        return format!("Request latency in seconds for the {endpoint} endpoint (log2 buckets).");
    }
    format!("diffnet {kind} {name}.")
}

/// Writes the `# HELP` + `# TYPE` preamble for one metric family.
fn family_preamble(out: &mut String, metric: &str, raw_name: &str, kind: &str) {
    let _ = writeln!(
        out,
        "# HELP {metric} {}",
        escape_help(&help_text(raw_name, kind))
    );
    let _ = writeln!(out, "# TYPE {metric} {kind}");
}

/// Renders `snap` in the Prometheus plain-text exposition format, with
/// every metric name prefixed by `namespace` + `_`.
///
/// ```
/// use diffnet_observe::{render_prometheus, Recorder};
///
/// let rec = Recorder::new();
/// rec.add("jobs_completed", 3);
/// let text = render_prometheus(&rec.snapshot(), "diffnet");
/// assert!(text.contains("# HELP diffnet_jobs_completed Jobs that finished with a full result."));
/// assert!(text.contains("# TYPE diffnet_jobs_completed counter"));
/// assert!(text.contains("diffnet_jobs_completed 3"));
/// ```
pub fn render_prometheus(snap: &Snapshot, namespace: &str) -> String {
    let ns = sanitize(namespace);
    let mut out = String::new();

    for (name, value) in &snap.counters {
        let metric = format!("{ns}_{}", sanitize(name));
        family_preamble(&mut out, &metric, name, "counter");
        let _ = writeln!(out, "{metric} {value}");
    }

    for (name, value) in &snap.values {
        let metric = format!("{ns}_{}", sanitize(name));
        family_preamble(&mut out, &metric, name, "gauge");
        let _ = writeln!(out, "{metric} {}", format_value(*value));
    }

    if !snap.phases.is_empty() {
        let metric = format!("{ns}_phase_seconds");
        family_preamble(&mut out, &metric, "phase_seconds", "gauge");
        // A phase may complete more than once (e.g. a re-estimated job);
        // sum the wall time per name, preserving first-completion order.
        let mut order: Vec<&str> = Vec::new();
        let mut sums: Vec<f64> = Vec::new();
        for &(name, seconds) in &snap.phases {
            match order.iter().position(|&n| n == name) {
                Some(i) => sums[i] += seconds,
                None => {
                    order.push(name);
                    sums.push(seconds);
                }
            }
        }
        for (name, sum) in order.iter().zip(&sums) {
            let _ = writeln!(
                out,
                "{metric}{{phase=\"{}\"}} {}",
                escape_label(name),
                format_value(*sum)
            );
        }
    }

    for (name, buckets) in &snap.histograms {
        let metric = format!("{ns}_{}", sanitize(name));
        family_preamble(&mut out, &metric, name, "histogram");
        let mut cumulative = 0u64;
        let mut sum = 0u64;
        for (index, &count) in buckets.iter().enumerate() {
            cumulative += count;
            sum += index as u64 * count;
            let _ = writeln!(out, "{metric}_bucket{{le=\"{index}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{metric}_sum {sum}");
        let _ = writeln!(out, "{metric}_count {cumulative}");
    }

    let bounds = duration_bucket_bounds();
    for (name, hist) in &snap.durations {
        let metric = format!("{ns}_{}", sanitize(name));
        family_preamble(&mut out, &metric, name, "histogram");
        let mut cumulative = 0u64;
        for (i, &bound) in bounds.iter().enumerate() {
            cumulative += hist.buckets.get(i).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{metric}_bucket{{le=\"{}\"}} {cumulative}",
                format_value(bound)
            );
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{metric}_sum {}", format_value(hist.sum));
        let _ = writeln!(out, "{metric}_count {}", hist.count);
        for (suffix, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            let gauge = format!("{metric}_{suffix}");
            let raw = format!("{name}_{suffix}");
            family_preamble(&mut out, &gauge, &raw, "gauge");
            let _ = writeln!(out, "{gauge} {}", format_value(hist.quantile(q)));
        }
    }

    if !snap.worker_chunks.is_empty() {
        let metric = format!("{ns}_worker_chunks");
        family_preamble(&mut out, &metric, "worker_chunks", "gauge");
        for (region, chunks) in &snap.worker_chunks {
            for (worker, &claims) in chunks.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{metric}{{region=\"{}\",worker=\"{worker}\"}} {claims}",
                    escape_label(region)
                );
            }
        }
    }

    out
}

/// Parses a sample value in exposition spelling.
fn parse_sample_value(raw: &str) -> Option<f64> {
    match raw {
        "NaN" => Some(f64::NAN),
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        other => other.parse().ok(),
    }
}

#[derive(Default)]
struct HistogramSamples {
    /// `(le, cumulative count)` in order of appearance.
    buckets: Vec<(f64, f64)>,
    sum: Option<f64>,
    count: Option<f64>,
}

/// Lints a text exposition for the failure modes scrapers reject:
/// duplicate `# TYPE`/`# HELP` lines, samples for undeclared metrics,
/// non-monotone histogram `le` boundaries or cumulative counts, a missing
/// `+Inf` bucket, and `_count`/`_sum` inconsistency. Returns the number
/// of metric families on success.
pub fn lint_exposition(text: &str) -> Result<usize, String> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut hists: BTreeMap<String, HistogramSamples> = BTreeMap::new();

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest
                .split_whitespace()
                .next()
                .ok_or_else(|| format!("line {lineno}: HELP without a metric name"))?;
            if !helps.insert(name.to_string()) {
                return Err(format!("line {lineno}: duplicate HELP for {name}"));
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without a metric name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE {name} without a kind"))?;
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
        } else if line.starts_with('#') {
            continue; // free-form comment
        } else {
            // A sample: `name value` or `name{labels} value`.
            let (name, labels, value_raw) = match line.find('{') {
                Some(open) => {
                    let close = line
                        .rfind('}')
                        .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                    (
                        &line[..open],
                        &line[open + 1..close],
                        line[close + 1..].trim(),
                    )
                }
                None => {
                    let mut parts = line.split_whitespace();
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: empty sample"))?;
                    let value = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: sample {name} without a value"))?;
                    (name, "", value)
                }
            };
            let value = parse_sample_value(value_raw)
                .ok_or_else(|| format!("line {lineno}: bad sample value {value_raw:?}"))?;
            // Resolve the declaring family: histogram series use the
            // base name + _bucket/_sum/_count.
            let family = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (types.get(base).map(String::as_str) == Some("histogram"))
                    .then_some((base, *suffix))
            });
            match family {
                Some((base, "_bucket")) => {
                    let le_raw = labels
                        .split(',')
                        .find_map(|l| l.trim().strip_prefix("le="))
                        .map(|v| v.trim_matches('"'))
                        .ok_or_else(|| format!("line {lineno}: bucket without an le label"))?;
                    let le = parse_sample_value(le_raw)
                        .ok_or_else(|| format!("line {lineno}: bad le value {le_raw:?}"))?;
                    hists
                        .entry(base.to_string())
                        .or_default()
                        .buckets
                        .push((le, value));
                }
                Some((base, "_sum")) => {
                    hists.entry(base.to_string()).or_default().sum = Some(value);
                }
                Some((base, "_count")) => {
                    hists.entry(base.to_string()).or_default().count = Some(value);
                }
                _ => {
                    if !types.contains_key(name) {
                        return Err(format!(
                            "line {lineno}: sample for undeclared metric {name}"
                        ));
                    }
                }
            }
        }
    }

    for (name, h) in &hists {
        if h.buckets.is_empty() {
            return Err(format!("histogram {name} has no buckets"));
        }
        for pair in h.buckets.windows(2) {
            let ((le_a, n_a), (le_b, n_b)) = (pair[0], pair[1]);
            if le_b <= le_a {
                return Err(format!(
                    "histogram {name}: le boundaries not increasing ({le_a} then {le_b})"
                ));
            }
            if n_b < n_a {
                return Err(format!(
                    "histogram {name}: cumulative counts decrease ({n_a} then {n_b})"
                ));
            }
        }
        let (last_le, last_n) = *h.buckets.last().expect("non-empty");
        if !last_le.is_infinite() {
            return Err(format!("histogram {name} is missing the +Inf bucket"));
        }
        let count = h
            .count
            .ok_or_else(|| format!("histogram {name} is missing _count"))?;
        if h.sum.is_none() {
            return Err(format!("histogram {name} is missing _sum"));
        }
        if count != last_n {
            return Err(format!(
                "histogram {name}: _count {count} != +Inf bucket {last_n}"
            ));
        }
    }

    Ok(types.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn golden_full_exposition() {
        let rec = Recorder::new();
        rec.add("jobs_completed", 3);
        rec.add("http_requests", 17);
        rec.value("tau", 0.25);
        rec.histogram("candidate_set_size", 0);
        rec.histogram("candidate_set_size", 2);
        rec.histogram("candidate_set_size", 2);
        rec.worker_chunks("parent_search", &[5, 2]);
        let mut snap = rec.snapshot();
        // Pin the wall time so the output is byte-exact, and drop the
        // clock-dependent spans the phases recorded.
        snap.phases = vec![("load", 0.5), ("search", 1.25), ("load", 0.25)];
        snap.spans.clear();

        let expected = "\
# HELP diffnet_http_requests HTTP requests accepted by the daemon.
# TYPE diffnet_http_requests counter
diffnet_http_requests 17
# HELP diffnet_jobs_completed Jobs that finished with a full result.
# TYPE diffnet_jobs_completed counter
diffnet_jobs_completed 3
# HELP diffnet_tau Correlation threshold selected by pinned 2-means.
# TYPE diffnet_tau gauge
diffnet_tau 0.25
# HELP diffnet_phase_seconds Wall seconds summed per completed pipeline phase.
# TYPE diffnet_phase_seconds gauge
diffnet_phase_seconds{phase=\"load\"} 0.75
diffnet_phase_seconds{phase=\"search\"} 1.25
# HELP diffnet_candidate_set_size Surviving candidate parents per node after pruning.
# TYPE diffnet_candidate_set_size histogram
diffnet_candidate_set_size_bucket{le=\"0\"} 1
diffnet_candidate_set_size_bucket{le=\"1\"} 1
diffnet_candidate_set_size_bucket{le=\"2\"} 3
diffnet_candidate_set_size_bucket{le=\"+Inf\"} 3
diffnet_candidate_set_size_sum 4
diffnet_candidate_set_size_count 3
# HELP diffnet_worker_chunks Chunk claims per worker per parallel region.
# TYPE diffnet_worker_chunks gauge
diffnet_worker_chunks{region=\"parent_search\",worker=\"0\"} 5
diffnet_worker_chunks{region=\"parent_search\",worker=\"1\"} 2
";
        let rendered = render_prometheus(&snap, "diffnet");
        assert_eq!(rendered, expected);
        lint_exposition(&rendered).expect("golden exposition lints clean");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let snap = Snapshot::default();
        assert_eq!(render_prometheus(&snap, "diffnet"), "");
        assert_eq!(lint_exposition(""), Ok(0));
    }

    #[test]
    fn duration_histograms_render_real_second_bounds_and_quantiles() {
        let rec = Recorder::new();
        rec.duration("http_request_seconds_healthz", 0.001);
        rec.duration("http_request_seconds_healthz", 0.001);
        rec.duration("http_request_seconds_healthz", 1.5);
        let text = render_prometheus(&rec.snapshot(), "diffnet");
        assert!(
            text.contains("# TYPE diffnet_http_request_seconds_healthz histogram"),
            "{text}"
        );
        assert!(
            text.contains("# HELP diffnet_http_request_seconds_healthz Request latency in seconds for the healthz endpoint (log2 buckets)."),
            "{text}"
        );
        // Real second boundaries: 2^-10 = 0.0009765625 has 0 observations,
        // 2^-9 = 0.001953125 has the two 1ms pings.
        assert!(
            text.contains("diffnet_http_request_seconds_healthz_bucket{le=\"0.0009765625\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("diffnet_http_request_seconds_healthz_bucket{le=\"0.001953125\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("diffnet_http_request_seconds_healthz_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("diffnet_http_request_seconds_healthz_count 3"));
        assert!(text.contains("diffnet_http_request_seconds_healthz_sum 1.502"));
        // Quantile gauges with real second values, at sub-octave
        // resolution: the two 1 ms pings resolve to 1.25 · 2^-10 s.
        assert!(
            text.contains("diffnet_http_request_seconds_healthz_p50 0.001220703125"),
            "{text}"
        );
        assert!(
            text.contains("diffnet_http_request_seconds_healthz_p99 1.5"),
            "{text}"
        );
        lint_exposition(&text).expect("duration exposition lints clean");
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("a.b-c"), "a_b_c");
        assert_eq!(sanitize("2fast"), "_2fast");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn sanitize_handles_unicode_and_hostile_fragments() {
        // Unicode letters, spaces, and control characters all collapse
        // to `_`, keeping the name in [a-zA-Z_][a-zA-Z0-9_]*.
        assert_eq!(sanitize("café"), "caf_");
        assert_eq!(sanitize("héllo wörld"), "h_llo_w_rld");
        assert_eq!(sanitize("a\nb"), "a_b");
        assert_eq!(sanitize("a\"b\\c"), "a_b_c");
        assert_eq!(sanitize("7seconds"), "_7seconds");
        assert_eq!(sanitize("99_problems"), "_99_problems");
        assert_eq!(sanitize("日本語"), "___");
        // Already-clean names pass through untouched.
        assert_eq!(sanitize("http_request_seconds"), "http_request_seconds");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn escape_label_edge_cases() {
        // Unicode passes through; the three special characters escape.
        assert_eq!(escape_label("café"), "café");
        assert_eq!(escape_label("\\\\"), "\\\\\\\\");
        assert_eq!(escape_label("\"\""), "\\\"\\\"");
        assert_eq!(escape_label("line1\nline2\n"), "line1\\nline2\\n");
        assert_eq!(escape_label(""), "");
        // A serve-supplied hostile label value stays on one sample line
        // with its quote escaped, so it cannot terminate the label set.
        let hostile = escape_label("x\" 1\ninjected_metric 2");
        assert!(!hostile.contains('\n'), "{hostile}");
        assert!(hostile.contains("\\\""), "{hostile}");
    }

    #[test]
    fn non_finite_gauges_render_prometheus_spellings() {
        assert_eq!(format_value(f64::NAN), "NaN");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_value(1.5), "1.5");
        // Non-finite values flow through gauges without corrupting lines.
        let rec = Recorder::new();
        rec.value("weird", f64::NAN);
        let text = render_prometheus(&rec.snapshot(), "diffnet");
        assert!(text.contains("diffnet_weird NaN"), "{text}");
        lint_exposition(&text).expect("NaN gauge lints clean");
    }

    #[test]
    fn help_registry_and_fallbacks() {
        assert_eq!(
            help_text("jobs_completed", "counter"),
            "Jobs that finished with a full result."
        );
        assert!(help_text("http_request_seconds_submit", "histogram").contains("submit"));
        assert!(help_text("http_request_seconds_submit_p95", "gauge").contains("0.95"));
        assert_eq!(
            help_text("something_novel", "counter"),
            "diffnet counter something_novel."
        );
    }

    #[test]
    fn lint_rejects_duplicate_declarations() {
        let dup_type = "# TYPE m counter\nm 1\n# TYPE m counter\n";
        assert!(lint_exposition(dup_type)
            .unwrap_err()
            .contains("duplicate TYPE"));
        let dup_help = "# HELP m a\n# HELP m b\n# TYPE m counter\nm 1\n";
        assert!(lint_exposition(dup_help)
            .unwrap_err()
            .contains("duplicate HELP"));
    }

    #[test]
    fn lint_rejects_undeclared_samples_and_bad_values() {
        assert!(lint_exposition("mystery 1\n")
            .unwrap_err()
            .contains("undeclared"));
        assert!(lint_exposition("# TYPE m gauge\nm abc\n")
            .unwrap_err()
            .contains("bad sample value"));
    }

    #[test]
    fn lint_rejects_broken_histograms() {
        let shuffled = "\
# TYPE h histogram
h_bucket{le=\"2\"} 1
h_bucket{le=\"1\"} 2
h_bucket{le=\"+Inf\"} 2
h_sum 3
h_count 2
";
        assert!(lint_exposition(shuffled)
            .unwrap_err()
            .contains("not increasing"));

        let decreasing = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 3
h_count 5
";
        assert!(lint_exposition(decreasing)
            .unwrap_err()
            .contains("decrease"));

        let wrong_count = "\
# TYPE h histogram
h_bucket{le=\"1\"} 1
h_bucket{le=\"+Inf\"} 2
h_sum 3
h_count 7
";
        assert!(lint_exposition(wrong_count).unwrap_err().contains("_count"));

        let no_inf = "\
# TYPE h histogram
h_bucket{le=\"1\"} 1
h_sum 3
h_count 1
";
        assert!(lint_exposition(no_inf).unwrap_err().contains("+Inf"));

        let no_sum = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 1
h_count 1
";
        assert!(lint_exposition(no_sum).unwrap_err().contains("_sum"));
    }

    #[test]
    fn lint_counts_families_on_clean_input() {
        let rec = Recorder::new();
        rec.add("http_requests", 2);
        rec.value("tau", 0.5);
        rec.histogram("sizes", 1);
        rec.duration("http_request_seconds_healthz", 0.01);
        let text = render_prometheus(&rec.snapshot(), "diffnet");
        // counter + gauge + histogram + duration histogram + 3 quantile gauges
        assert_eq!(lint_exposition(&text), Ok(7));
    }
}
