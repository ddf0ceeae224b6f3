//! The README's performance table quotes `BENCH_micro.json`. This test
//! fails when a quoted number disagrees with the committed report, so the
//! table is regenerated together with the report (`perf_report`).

use diffnet_observe::{parse_json, Json};

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The value at a dotted path; a numeric segment indexes an array.
fn lookup(root: &Json, path: &str) -> f64 {
    let mut node = root;
    for key in path.split('.') {
        node = match key.parse::<usize>() {
            Ok(i) => node.as_arr().and_then(|a| a.get(i)),
            Err(_) => node.get(key),
        }
        .unwrap_or_else(|| panic!("BENCH_micro.json has no {path}"));
    }
    node.as_f64()
        .unwrap_or_else(|| panic!("BENCH_micro.json {path} is not a number"))
}

/// A decimal number as written, with its count of fractional digits.
/// Digit groups may be separated by single spaces (`7 449`).
fn parse_quoted(text: &str) -> (f64, usize) {
    let digits: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    let value = digits
        .parse::<f64>()
        .unwrap_or_else(|e| panic!("{text:?} is not a number: {e}"));
    let decimals = digits.split_once('.').map_or(0, |(_, f)| f.len());
    (value, decimals)
}

/// The longest suffix of `text` made of characters `part` accepts.
fn trailing(text: &str, part: impl Fn(char) -> bool) -> &str {
    &text[text.trim_end_matches(part).len()..]
}

/// The decimal number in `cell` that directly precedes `suffix`.
fn number_before(cell: &str, suffix: &str) -> (f64, usize) {
    let end = cell
        .rfind(suffix)
        .unwrap_or_else(|| panic!("{cell:?} has no {suffix:?}"));
    parse_quoted(trailing(cell[..end].trim_end(), |c| {
        c.is_ascii_digit() || c == '.'
    }))
}

/// Asserts that `quoted`, rounded to the digits it shows, is `actual`.
fn assert_quotes(what: &str, (quoted, decimals): (f64, usize), actual: f64) {
    let half_unit = 0.5 * 10f64.powi(-(decimals as i32));
    assert!(
        (quoted - actual).abs() <= half_unit * (1.0 + 1e-9),
        "README quotes {what} as {quoted}, BENCH_micro.json says {actual}"
    );
}

#[test]
fn readme_performance_table_matches_bench_micro_json() {
    let bench = parse_json(&repo_file("BENCH_micro.json")).expect("BENCH_micro.json parses");
    assert_eq!(
        bench.get("quick"),
        Some(&Json::Bool(false)),
        "BENCH_micro.json comes from a --quick run; regenerate it with a full perf_report run"
    );
    let readme = repo_file("README.md");

    // README row label → (baseline seconds, optimized seconds, speedup).
    let rows = [
        (
            "pair kernel, streaming",
            [
                "pair_kernel.per_pair_s",
                "pair_kernel.simd_s",
                "pair_kernel.simd_speedup",
            ],
        ),
        (
            "pair kernel, scalar tier only",
            [
                "pair_kernel.per_pair_s",
                "pair_kernel.scalar_s",
                "pair_kernel.scalar_speedup",
            ],
        ),
        (
            "pairwise counts, all pairs",
            [
                "pair_kernel.inference_shape.per_pair_s",
                "pair_kernel.inference_shape.tiled_s",
                "pair_kernel.inference_shape.speedup",
            ],
        ),
        (
            "IMI values from counts, all pairs",
            [
                "imi_matrix.per_pair_s",
                "imi_matrix.evaluator_s",
                "imi_matrix.evaluator_speedup",
            ],
        ),
        (
            "threshold τ, n = 1000 triangle",
            [
                "threshold.0.sort_s",
                "threshold.0.index_s",
                "threshold.0.speedup",
            ],
        ),
        (
            "threshold τ, streamed sample",
            [
                "threshold.1.sort_s",
                "threshold.1.index_s",
                "threshold.1.speedup",
            ],
        ),
        (
            "`N_ijk` counting kernel",
            [
                "counting_kernel.1.recursive_s",
                "counting_kernel.1.workspace_s",
                "counting_kernel.1.speedup",
            ],
        ),
        (
            "greedy search, n = 300",
            [
                "greedy_search.0.reference_s",
                "greedy_search.0.cached_workspace_s",
                "greedy_search.0.speedup",
            ],
        ),
        (
            "greedy search, n = 1000",
            [
                "greedy_search.1.reference_s",
                "greedy_search.1.cached_workspace_s",
                "greedy_search.1.speedup",
            ],
        ),
        (
            "streamed fold",
            [
                "streaming_imi.fold_reference_s",
                "streaming_imi.fold_s",
                "streaming_imi.fold_speedup",
            ],
        ),
    ];
    for (label, [baseline, optimized, speedup]) in rows {
        let line = readme
            .lines()
            .find(|l| l.starts_with(&format!("| {label}")))
            .unwrap_or_else(|| panic!("README has no performance row {label:?}"));
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        assert_eq!(cells.len(), 6, "malformed row {line:?}");
        for (cell, path) in [(cells[2], baseline), (cells[3], optimized)] {
            assert_quotes(
                &format!("{label} ({path})"),
                number_before(cell, " ms"),
                lookup(&bench, path) * 1e3,
            );
        }
        assert_quotes(
            &format!("{label} speedup"),
            number_before(cells[4], "×"),
            lookup(&bench, speedup),
        );
    }

    // The score-cache sentence under the table.
    let sentence = readme
        .lines()
        .collect::<Vec<_>>()
        .join(" ")
        .split_once("the score cache serves ")
        .map(|(_, rest)| rest.to_string())
        .expect("README quotes the score cache's hits and misses");
    let hits = lookup(&bench, "greedy_search.0.score_cache_hits");
    let misses = lookup(&bench, "greedy_search.0.score_cache_misses");
    for (suffix, actual) in [
        (" hits", hits),
        (" misses", misses),
        (" scored combinations", hits + misses),
    ] {
        let end = sentence
            .find(suffix)
            .unwrap_or_else(|| panic!("score-cache sentence lacks {suffix:?}"));
        let quoted = trailing(&sentence[..end], |c| c.is_ascii_digit() || c == ' ');
        assert_quotes(suffix.trim(), parse_quoted(quoted), actual);
    }
}

#[test]
fn readme_streaming_row_matches_bench_micro_json() {
    let bench = parse_json(&repo_file("BENCH_micro.json")).expect("BENCH_micro.json parses");
    let readme = repo_file("README.md").lines().collect::<Vec<_>>().join(" ");
    let sentence = readme
        .split_once("carries the matching `streaming_imi` row")
        .map(|(_, rest)| rest.split_once(". See").map_or(rest, |(s, _)| s))
        .expect("README describes the streaming_imi row");
    assert_quotes(
        "streaming_imi peak RSS",
        number_before(sentence, " MiB peak RSS"),
        lookup(&bench, "streaming_imi.peak_rss_bytes") / f64::from(1u32 << 20),
    );
    let under = bench
        .get("streaming_imi")
        .and_then(|s| s.get("under_budget"))
        .expect("streaming_imi.under_budget");
    assert_eq!(
        sentence.contains("over the budget"),
        under == &Json::Bool(false),
        "README must say whether the streaming_imi row is over its budget"
    );
}
