//! Subcommand implementations.

use crate::args::{ArgError, ParsedArgs};
use diffnet_baselines::{Lift, MulTree, NetInf, NetRate, PathReconstruction};
use diffnet_graph::generators::{
    barabasi_albert, erdos_renyi_gnm, kronecker, watts_strogatz, KroneckerSeed, Lfr, Orientation,
};
use diffnet_graph::stats::GraphStats;
use diffnet_graph::DiGraph;
use diffnet_metrics::EdgeSetComparison;
use diffnet_observe::{CheckpointInfo, FaultPlan, Json, Recorder, RunReport};
use diffnet_serve::{Client, Limits, ServeConfig, Server};
use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade, LinearThreshold, ObservationSet};
use diffnet_tends::{
    estimate_propagation_probabilities, CorrelationMeasure, DirectionPolicy, EstimateConfig,
    RobustOptions, SearchParams, Tends, TendsConfig, ThresholdMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Duration;

/// Exit code for a partial reconstruction: the command produced output,
/// but some nodes failed and are listed in the report.
pub const EXIT_PARTIAL: i32 = 3;

/// The text a successful command prints, plus the process exit code it
/// should carry. Derefs to `str` so callers that only want the text can
/// treat it like one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommandOutput {
    text: String,
    exit_code: i32,
}

impl CommandOutput {
    fn success(text: String) -> CommandOutput {
        CommandOutput { text, exit_code: 0 }
    }

    fn partial(text: String) -> CommandOutput {
        CommandOutput {
            text,
            exit_code: EXIT_PARTIAL,
        }
    }

    /// The exit code the process should terminate with: 0 on full
    /// success, [`EXIT_PARTIAL`] when the output is a degraded result.
    pub fn exit_code(&self) -> i32 {
        self.exit_code
    }
}

impl std::ops::Deref for CommandOutput {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

impl std::fmt::Display for CommandOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Runs a full command line (everything after the program name) and
/// returns the text to print on success together with the exit code.
pub fn run(argv: &[String]) -> Result<CommandOutput, ArgError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(ArgError::new("missing command; try `diffnet help`"));
    };
    // `trace` takes positional operands (`trace render FILE`), which the
    // flag parser rejects by design — dispatch it before parsing.
    if command == "trace" {
        return trace_cmd(rest).map(CommandOutput::success);
    }
    let parsed = ParsedArgs::parse(rest)?;
    match command.as_str() {
        "generate" => generate(&parsed).map(CommandOutput::success),
        "simulate" => simulate(&parsed).map(CommandOutput::success),
        "infer" => infer(&parsed),
        "eval" => eval(&parsed).map(CommandOutput::success),
        "estimate" => estimate(&parsed).map(CommandOutput::success),
        "stats" => stats(&parsed).map(CommandOutput::success),
        "report-check" => report_check(&parsed).map(CommandOutput::success),
        "metrics-lint" => metrics_lint(&parsed).map(CommandOutput::success),
        "serve" => serve(&parsed).map(CommandOutput::success),
        "loadgen" => loadgen(&parsed).map(CommandOutput::success),
        "submit" => submit(&parsed),
        "job" => job_status(&parsed),
        "help" | "--help" | "-h" => Ok(CommandOutput::success(crate::USAGE.to_string())),
        other => Err(ArgError::new(format!(
            "unknown command {other:?}; try `diffnet help`"
        ))),
    }
}

fn io_err(context: &str, e: impl std::fmt::Display) -> ArgError {
    ArgError::new(format!("{context}: {e}"))
}

fn load_graph(path: &str) -> Result<DiGraph, ArgError> {
    diffnet_graph::io::load_edge_list(path, None)
        .map_err(|e| io_err(&format!("cannot load graph {path:?}"), e))
}

fn generate(args: &ParsedArgs) -> Result<String, ArgError> {
    args.expect_known(&[
        "model",
        "out",
        "n",
        "k",
        "t",
        "m",
        "seed",
        "reciprocal",
        "mixing",
        "rewire",
        "power",
    ])?;
    let model = args.required("model")?;
    let out = args.required("out")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let mut rng = StdRng::seed_from_u64(seed);

    let graph = match model {
        "lfr" => {
            let n: usize = args.get_or("n", 200)?;
            let k: f64 = args.get_or("k", 4.0)?;
            let t: f64 = args.get_or("t", 2.0)?;
            let mut cfg = Lfr::new(n, k, t);
            cfg.mixing = args.get_or("mixing", cfg.mixing)?;
            if args.has_flag("reciprocal") {
                cfg.orientation = Orientation::Reciprocal;
            }
            cfg.generate(&mut rng)
                .map_err(|e| io_err("LFR generation failed", e))?
        }
        "er" => {
            let n: usize = args.get_or("n", 200)?;
            let m: usize = args.get_or("m", 4 * 200)?;
            erdos_renyi_gnm(n, m, &mut rng)
        }
        "ba" => {
            let n: usize = args.get_or("n", 200)?;
            let k: usize = args.get_or("k", 3)?;
            barabasi_albert(n, k, &mut rng)
        }
        "ws" => {
            let n: usize = args.get_or("n", 200)?;
            let k: usize = args.get_or("k", 3)?;
            let rewire: f64 = args.get_or("rewire", 0.1)?;
            watts_strogatz(n, k, rewire, &mut rng)
        }
        "kronecker" => {
            let power: u32 = args.get_or("power", 8)?;
            kronecker(&KroneckerSeed::core_periphery(), power, &mut rng)
        }
        "netsci" => diffnet_datasets::netsci_like(seed),
        "dunf" => diffnet_datasets::dunf_like(seed),
        other => {
            return Err(ArgError::new(format!(
                "unknown model {other:?} (lfr, er, ba, ws, kronecker, netsci, dunf)"
            )))
        }
    };

    diffnet_graph::io::save_edge_list(&graph, out)
        .map_err(|e| io_err(&format!("cannot write {out:?}"), e))?;
    Ok(format!(
        "generated {model} network: {} nodes, {} edges -> {out}",
        graph.node_count(),
        graph.edge_count()
    ))
}

fn simulate(args: &ParsedArgs) -> Result<String, ArgError> {
    args.expect_known(&[
        "graph",
        "out",
        "observations",
        "model",
        "alpha",
        "beta",
        "mu",
        "sigma",
        "seed",
    ])?;
    let graph = load_graph(args.required("graph")?)?;
    let out = args.required("out")?;
    let alpha: f64 = args.get_or("alpha", 0.15)?;
    let beta: usize = args.get_or("beta", 150)?;
    let mu: f64 = args.get_or("mu", 0.3)?;
    let sigma: f64 = args.get_or("sigma", 0.05)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let model = args.optional("model").unwrap_or("ic");

    let mut rng = StdRng::seed_from_u64(seed);
    let probs = EdgeProbs::gaussian(&graph, mu, sigma, &mut rng);
    let cfg = IcConfig {
        initial_ratio: alpha,
        num_processes: beta,
    };
    let obs = match model {
        "ic" => IndependentCascade::new(&graph, &probs).observe(cfg, &mut rng),
        "lt" => LinearThreshold::new(&graph, &probs).observe(cfg, &mut rng),
        other => {
            return Err(ArgError::new(format!(
                "unknown diffusion model {other:?} (ic, lt)"
            )))
        }
    };

    diffnet_simulate::io::save_status_matrix(&obs.statuses, out)
        .map_err(|e| io_err(&format!("cannot write {out:?}"), e))?;
    let mut report = format!(
        "simulated {beta} {model} processes on {} nodes (infected fraction {:.1}%) -> {out}",
        graph.node_count(),
        100.0 * obs.statuses.infected_fraction()
    );
    if let Some(obs_path) = args.optional("observations") {
        diffnet_simulate::io::save_observations(&obs, obs_path)
            .map_err(|e| io_err(&format!("cannot write {obs_path:?}"), e))?;
        report.push_str(&format!(
            "\nfull observations (cascades + sources) -> {obs_path}"
        ));
    }
    Ok(report)
}

fn load_observations_arg(args: &ParsedArgs, algo: &str) -> Result<ObservationSet, ArgError> {
    let path = args.optional("observations").ok_or_else(|| {
        ArgError::new(format!(
            "algorithm {algo:?} needs --observations (from `simulate --observations`)"
        ))
    })?;
    diffnet_simulate::io::load_observations(path)
        .map_err(|e| io_err(&format!("cannot load observations {path:?}"), e))
}

fn budget_arg(args: &ParsedArgs, algo: &str) -> Result<usize, ArgError> {
    args.optional("edges")
        .ok_or_else(|| ArgError::new(format!("algorithm {algo:?} needs --edges (the budget m)")))?
        .parse()
        .map_err(|_| ArgError::new("invalid value for --edges"))
}

/// Resolves the `--simd` override (falling back to `DIFFNET_SIMD`) and
/// installs it process-wide before any kernel use. Returns the resolved
/// kernel table so callers can report the dispatch tier.
fn resolve_simd(args: &ParsedArgs) -> Result<&'static diffnet_simulate::Kernels, ArgError> {
    match args.optional("simd") {
        Some(raw) => {
            let mode = diffnet_simulate::parse_simd(Some(raw)).map_err(|bad| {
                ArgError::new(format!(
                    "invalid value for --simd: {bad:?} (auto, avx2, popcnt, scalar)"
                ))
            })?;
            Ok(diffnet_simulate::simd::set_mode(mode))
        }
        None => Ok(diffnet_simulate::simd::kernels()),
    }
}

/// Resolves the `--memory-budget` byte budget (falling back to
/// `DIFFNET_MEMORY_BUDGET`). Accepts a `K`/`M`/`G` suffix: `512M`, `2G`.
/// Setting a budget switches `infer` onto the streamed IMI pipeline.
fn resolve_memory_budget(args: &ParsedArgs) -> Result<Option<u64>, ArgError> {
    if let Some(raw) = args.optional("memory-budget") {
        return diffnet_serve::parse_size(raw).map(Some).ok_or_else(|| {
            ArgError::new(format!(
                "invalid value for --memory-budget: {raw:?} (bytes with optional K/M/G suffix)"
            ))
        });
    }
    match std::env::var("DIFFNET_MEMORY_BUDGET") {
        Ok(raw) => diffnet_serve::parse_size(&raw).map(Some).ok_or_else(|| {
            ArgError::new(format!(
                "invalid DIFFNET_MEMORY_BUDGET: {raw:?} (bytes with optional K/M/G suffix)"
            ))
        }),
        Err(_) => Ok(None),
    }
}

/// Resolves the `--shard-index`/`--shard-count` pair: both or neither,
/// index strictly below count.
fn resolve_shard(args: &ParsedArgs) -> Result<Option<(usize, usize)>, ArgError> {
    match (args.optional("shard-index"), args.optional("shard-count")) {
        (None, None) => Ok(None),
        (Some(_), None) | (None, Some(_)) => Err(ArgError::new(
            "--shard-index and --shard-count must be given together",
        )),
        (Some(_), Some(_)) => {
            let index: usize = args.get_required("shard-index")?;
            let count: usize = args.get_required("shard-count")?;
            if count == 0 || index >= count {
                return Err(ArgError::new(format!(
                    "--shard-index {index} out of range for --shard-count {count}"
                )));
            }
            Ok(Some((index, count)))
        }
    }
}

fn infer(args: &ParsedArgs) -> Result<CommandOutput, ArgError> {
    args.expect_known(&[
        "statuses",
        "observations",
        "out",
        "algorithm",
        "edges",
        "threshold-scale",
        "mi",
        "threads",
        "symmetrize",
        "mutual-only",
        "trace",
        "run-report",
        "checkpoint",
        "resume",
        "checkpoint-interval",
        "simd",
        "memory-budget",
        "shard-index",
        "shard-count",
    ])?;
    let out = args.required("out")?;
    let algo = args.optional("algorithm").unwrap_or("tends");
    let simd_kernels = resolve_simd(args)?;
    if args.has_flag("resume") && args.optional("checkpoint").is_none() {
        return Err(ArgError::new("--resume needs --checkpoint FILE"));
    }
    if algo != "tends" {
        for opt in [
            "checkpoint",
            "checkpoint-interval",
            "memory-budget",
            "shard-index",
            "shard-count",
        ] {
            if args.optional(opt).is_some() {
                return Err(ArgError::new(format!(
                    "--{opt} is only supported by --algorithm tends"
                )));
            }
        }
    }
    let memory_budget = if algo == "tends" {
        resolve_memory_budget(args)?
    } else {
        None
    };
    let shard_spec = resolve_shard(args)?;
    let streamed = algo == "tends" && (memory_budget.is_some() || shard_spec.is_some());
    if shard_spec.is_some() && args.has_flag("mutual-only") {
        return Err(ArgError::new(
            "--mutual-only needs every node's parent set and cannot run on a shard; \
             run unsharded or post-process the merged edges",
        ));
    }

    // One recorder for the whole command: enabled only when the user asked
    // for observability, so the default path keeps the free no-op collector.
    // The streamed path also records, so eviction warnings can read the
    // candidate_evictions counter even without --trace/--run-report.
    let trace = args.has_flag("trace");
    let report_path = args.optional("run-report");
    let observing = trace || report_path.is_some();
    let owned_rec;
    let rec: &Recorder = if observing || streamed {
        owned_rec = Recorder::new();
        &owned_rec
    } else {
        Recorder::disabled()
    };
    // Resource profiling rides along with observability: window-scoped,
    // so the profile covers exactly this command's work.
    let profiler = observing.then(|| {
        diffnet_observe::ResourceProfiler::start(diffnet_observe::DEFAULT_SAMPLE_INTERVAL)
    });
    let mut report_threads = 1usize;
    // Degradation/checkpoint state filled in by the tends arm.
    let mut failed_nodes: Vec<u64> = Vec::new();
    let mut failure_notes: Vec<String> = Vec::new();
    let mut checkpoint_info: Option<CheckpointInfo> = None;
    let mut resumed_nodes = 0usize;

    let mut streamed_notes: Vec<String> = Vec::new();
    let (graph, detail) = match algo {
        "tends" => {
            let statuses_path = args.required("statuses")?;
            let threshold = match args.optional("threshold-scale") {
                Some(raw) => ThresholdMode::ScaledAuto(
                    raw.parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| {
                            ArgError::new(format!(
                                "invalid value for --threshold-scale: {raw:?} \
                                 (expected a finite number >= 0)"
                            ))
                        })?,
                ),
                None => ThresholdMode::Auto,
            };
            let direction = if args.has_flag("symmetrize") {
                DirectionPolicy::Symmetrize
            } else if args.has_flag("mutual-only") {
                DirectionPolicy::MutualOnly
            } else {
                DirectionPolicy::AsIs
            };
            let mut cfg = TendsConfig {
                correlation: if args.has_flag("mi") {
                    CorrelationMeasure::Mi
                } else {
                    CorrelationMeasure::Imi
                },
                threshold,
                search: SearchParams::default(),
                direction,
                threads: args.get_or("threads", 1)?,
                memory_budget,
                shard: None,
            };
            report_threads = cfg.threads.max(1);
            let fault = FaultPlan::from_env()
                .map_err(|e| ArgError::new(format!("invalid DIFFNET_FAULT: {e}")))?;
            let options = RobustOptions {
                checkpoint: args.optional("checkpoint").map(PathBuf::from),
                resume: args.has_flag("resume"),
                checkpoint_interval: args.get_or("checkpoint-interval", 8)?,
                fault: &fault,
                ..Default::default()
            };
            // mmap the statuses straight into the column bitsets: the
            // row-major matrix is never materialized.
            let cols = {
                let _p = rec.phase("load_statuses");
                diffnet_simulate::io::load_status_columns(statuses_path)
                    .map_err(|e| io_err(&format!("cannot load statuses {statuses_path:?}"), e))?
            };
            if streamed {
                // Out-of-core: the dense correlation matrix is never
                // materialized either.
                let shard = shard_spec.map(|(index, count)| {
                    diffnet_tends::plan_shards(cols.num_nodes(), count)[index]
                });
                cfg.shard = shard;
                if let Some(budget) = memory_budget {
                    let estimate = diffnet_tends::stream::estimate_streamed_bytes(
                        cols.num_nodes(),
                        cols.num_processes(),
                        shard.map_or(cols.num_nodes(), |s| s.len()),
                        cfg.threads,
                        cfg.search.max_candidates,
                        memory_budget,
                    );
                    if estimate > budget {
                        streamed_notes.push(format!(
                            "WARNING: estimated peak working set ≈ {} MiB exceeds \
                             --memory-budget {} MiB; split the run across more shards \
                             or fewer threads to stay within the budget",
                            estimate >> 20,
                            budget >> 20
                        ));
                    }
                }
            }
            let partial = Tends::with_config(cfg)
                .reconstruct_robust(&cols, rec, &options)
                .map_err(|e| ArgError::new(e.to_string()))?;
            if streamed {
                let evicted = rec
                    .snapshot()
                    .counters
                    .get("candidate_evictions")
                    .copied()
                    .unwrap_or(0);
                if evicted > 0 {
                    streamed_notes.push(format!(
                        "WARNING: {evicted} above-τ candidate(s) dropped by the top-{} \
                         candidate bound; weak parents may be missed",
                        cfg.search.max_candidates
                    ));
                }
            }
            failed_nodes = partial.failed_nodes.iter().map(|&v| u64::from(v)).collect();
            failure_notes = partial
                .errors
                .iter()
                .map(|(v, e)| format!("node {v}: {e}"))
                .collect();
            resumed_nodes = partial.resumed_nodes;
            if let Some(path) = &options.checkpoint {
                checkpoint_info = Some(CheckpointInfo {
                    path: path.display().to_string(),
                    resumed_nodes: partial.resumed_nodes,
                    flushes: partial.checkpoint_flushes,
                    delta_records: partial.delta_records,
                });
            }
            let result = partial.result;
            (result.graph, format!("τ = {:.4}", result.tau))
        }
        "netrate" => {
            let obs = load_observations_arg(args, algo)?;
            let weighted = NetRate::new().infer_observed(&obs, rec);
            let m = budget_arg(args, algo)?;
            (
                weighted.top_m(m),
                format!("{} scored pairs", weighted.len()),
            )
        }
        "multree" => {
            let obs = load_observations_arg(args, algo)?;
            let m = budget_arg(args, algo)?;
            (MulTree::new().infer(&obs, m), String::new())
        }
        "lift" => {
            let obs = load_observations_arg(args, algo)?;
            let m = budget_arg(args, algo)?;
            (Lift::new().infer(&obs, m), String::new())
        }
        "netinf" => {
            let obs = load_observations_arg(args, algo)?;
            let m = budget_arg(args, algo)?;
            (NetInf::new().infer(&obs, m), String::new())
        }
        "path" => {
            let obs = load_observations_arg(args, algo)?;
            let m = budget_arg(args, algo)?;
            (PathReconstruction::new().infer(&obs, m), String::new())
        }
        other => {
            return Err(ArgError::new(format!(
                "unknown algorithm {other:?} (tends, netrate, multree, lift, netinf, path)"
            )))
        }
    };

    diffnet_graph::io::save_edge_list(&graph, out)
        .map_err(|e| io_err(&format!("cannot write {out:?}"), e))?;
    let mut report = format!("{algo}: inferred {} edges -> {out}", graph.edge_count());
    if !detail.is_empty() {
        report.push_str(&format!(" ({detail})"));
    }
    if resumed_nodes > 0 {
        report.push_str(&format!(
            "\nresumed {resumed_nodes} node(s) from checkpoint"
        ));
    }
    if !failed_nodes.is_empty() {
        report.push_str(&format!(
            "\nWARNING: partial reconstruction; {} node(s) failed: {failed_nodes:?}",
            failed_nodes.len()
        ));
        for note in &failure_notes {
            report.push_str(&format!("\n  {note}"));
        }
    }
    for note in &streamed_notes {
        report.push_str(&format!("\n{note}"));
    }

    if observing {
        let mut run_report = RunReport::new(algo, rec.snapshot(), report_threads);
        run_report.failed_nodes = failed_nodes.clone();
        run_report.checkpoint = checkpoint_info;
        let requested = diffnet_simulate::simd::requested_mode();
        if requested != diffnet_simulate::SimdMode::Auto {
            run_report.simd = Some(requested.to_string());
        }
        run_report.simd_dispatch = Some(simd_kernels.dispatch().to_string());
        if let Some(p) = profiler {
            run_report.resources = Some(p.stop());
        }
        if run_report.snapshot.phases.is_empty() {
            eprintln!("warning: algorithm {algo:?} is not instrumented; run report is empty");
        }
        if trace {
            eprint!("{}", run_report.render_trace());
        }
        if let Some(path) = report_path {
            std::fs::write(path, run_report.to_pretty_json())
                .map_err(|e| io_err(&format!("cannot write run report {path:?}"), e))?;
            report.push_str(&format!("\nrun report -> {path}"));
        }
    }
    Ok(if failed_nodes.is_empty() {
        CommandOutput::success(report)
    } else {
        CommandOutput::partial(report)
    })
}

fn eval(args: &ParsedArgs) -> Result<String, ArgError> {
    args.expect_known(&["truth", "inferred"])?;
    let truth = load_graph(args.required("truth")?)?;
    let inferred = load_graph(args.required("inferred")?)?;
    if truth.node_count() != inferred.node_count() {
        return Err(ArgError::new(format!(
            "node-count mismatch: truth has {}, inferred has {}",
            truth.node_count(),
            inferred.node_count()
        )));
    }
    let cmp = EdgeSetComparison::against_truth(&truth, &inferred);
    Ok(format!(
        "edges: truth {} / inferred {}\nTP {}  FP {}  FN {}\nprecision {:.4}  recall {:.4}  F-score {:.4}",
        truth.edge_count(),
        inferred.edge_count(),
        cmp.true_positives,
        cmp.false_positives,
        cmp.false_negatives,
        cmp.precision(),
        cmp.recall(),
        cmp.f_score()
    ))
}

fn estimate(args: &ParsedArgs) -> Result<String, ArgError> {
    args.expect_known(&["graph", "statuses", "out"])?;
    let graph = load_graph(args.required("graph")?)?;
    let statuses_path = args.required("statuses")?;
    let statuses = diffnet_simulate::io::load_status_matrix(statuses_path)
        .map_err(|e| io_err(&format!("cannot load statuses {statuses_path:?}"), e))?;
    if statuses.num_nodes() != graph.node_count() {
        return Err(ArgError::new(format!(
            "statuses cover {} nodes but the graph has {}",
            statuses.num_nodes(),
            graph.node_count()
        )));
    }
    let est = estimate_propagation_probabilities(&statuses, &graph, &EstimateConfig::default())
        .map_err(|e| ArgError::new(e.to_string()))?;
    let out = args.required("out")?;
    let mut text = String::from("# source target probability\n");
    for (u, v) in graph.edges() {
        let p = est.get(&graph, u, v).expect("edge exists");
        text.push_str(&format!("{u} {v} {p:.6}\n"));
    }
    std::fs::write(out, text).map_err(|e| io_err(&format!("cannot write {out:?}"), e))?;
    let mean = if est.edge_probs.is_empty() {
        0.0
    } else {
        est.edge_probs.iter().sum::<f64>() / est.edge_probs.len() as f64
    };
    Ok(format!(
        "estimated propagation probabilities for {} edges (mean {:.3}) -> {out}",
        graph.edge_count(),
        mean
    ))
}

fn stats(args: &ParsedArgs) -> Result<String, ArgError> {
    args.expect_known(&["graph"])?;
    let graph = load_graph(args.required("graph")?)?;
    let s = GraphStats::of(&graph);
    Ok(format!(
        "nodes {}\nedges {}\nmean out-degree {:.3}\ndegree std {:.3}\nmax degree {}\nreciprocity {:.3}\nclustering {:.3}\nweak components {}",
        s.nodes,
        s.edges,
        s.mean_out_degree,
        s.degree_std,
        s.max_degree,
        s.reciprocity,
        s.clustering,
        s.weak_components
    ))
}

/// Phases a TENDS run report must contain — the `report-check` default.
/// (`infer` loads the statuses straight into columns under
/// `load_statuses`; the library itself never transposes, so a caller
/// starting from a row-major matrix records its own phase for that.)
const TENDS_PHASES: &[&str] = &[
    "load_statuses",
    "correlation_matrix",
    "threshold",
    "candidate_pruning",
    "parent_search",
    "direction",
];

/// Counters that are non-zero on any TENDS run with at least one node —
/// the `report-check` default. (Every node scores at least its empty
/// parent set, which costs one workspace rebase and refinement and one
/// score-cache miss. Cache *hits* need a non-empty candidate set, so they
/// are not in the default list.)
const TENDS_NONZERO_COUNTERS: &[&str] = &[
    "combinations_scored",
    "workspace_refinements",
    "workspace_rebases",
    "score_cache_misses",
];

fn report_check(args: &ParsedArgs) -> Result<String, ArgError> {
    args.expect_known(&["report", "phases", "counters"])?;
    let path = args.required("report")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| io_err(&format!("cannot read report {path:?}"), e))?;
    let split = |raw: &str| -> Vec<String> {
        raw.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect()
    };
    let phases: Vec<String> = match args.optional("phases") {
        Some(raw) => split(raw),
        None => TENDS_PHASES.iter().map(|s| s.to_string()).collect(),
    };
    let counters: Vec<String> = match args.optional("counters") {
        Some(raw) => split(raw),
        None => TENDS_NONZERO_COUNTERS
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    let phase_refs: Vec<&str> = phases.iter().map(String::as_str).collect();
    let counter_refs: Vec<&str> = counters.iter().map(String::as_str).collect();
    diffnet_observe::validate_report_json(&text, &phase_refs, &counter_refs)
        .map_err(|e| ArgError::new(format!("run report {path:?} invalid: {e}")))?;
    Ok(format!(
        "report {path} OK: {} phase(s) timed, {} counter(s) non-zero",
        phase_refs.len(),
        counter_refs.len()
    ))
}

/// `diffnet trace render FILE [--timeline] [--collapsed]`: renders a
/// recorded span tree as a text timeline and/or flamegraph-collapsed
/// stacks. `FILE` may be a `--run-report` file, a `/v1/jobs/{id}/trace`
/// response, or a bare trace object.
fn trace_cmd(rest: &[String]) -> Result<String, ArgError> {
    const TRACE_USAGE: &str = "usage: diffnet trace render FILE [--timeline] [--collapsed]";
    let Some((action, rest)) = rest.split_first() else {
        return Err(ArgError::new(TRACE_USAGE));
    };
    if action != "render" {
        return Err(ArgError::new(format!(
            "unknown trace action {action:?}; {TRACE_USAGE}"
        )));
    }
    let Some((file, flags)) = rest.split_first() else {
        return Err(ArgError::new(TRACE_USAGE));
    };
    let args = ParsedArgs::parse(flags)?;
    args.expect_known(&["timeline", "collapsed"])?;
    let text = std::fs::read_to_string(file)
        .map_err(|e| io_err(&format!("cannot read trace {file:?}"), e))?;
    let root = diffnet_observe::parse_json(&text)
        .map_err(|e| ArgError::new(format!("trace {file:?} is not JSON: {e}")))?;
    let trace = root
        .get("runtime")
        .and_then(|r| r.get("trace"))
        .or_else(|| root.get("trace"))
        .unwrap_or(&root);
    let (spans, dropped) = diffnet_observe::spans_from_json(trace)
        .map_err(|e| ArgError::new(format!("trace {file:?} invalid: {e}")))?;
    let collapsed = args.has_flag("collapsed");
    let timeline = args.has_flag("timeline") || !collapsed;
    let mut out = String::new();
    if timeline {
        out.push_str(&diffnet_observe::render_timeline(&spans, dropped));
    }
    if collapsed {
        if timeline {
            out.push('\n');
        }
        out.push_str(&diffnet_observe::collapse_stacks(&spans));
    }
    Ok(out)
}

/// `diffnet metrics-lint --file FILE`: checks a scraped Prometheus text
/// exposition for format violations.
fn metrics_lint(args: &ParsedArgs) -> Result<String, ArgError> {
    args.expect_known(&["file"])?;
    let path = args.required("file")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| io_err(&format!("cannot read exposition {path:?}"), e))?;
    let families = diffnet_observe::lint_exposition(&text)
        .map_err(|e| ArgError::new(format!("exposition {path:?} invalid: {e}")))?;
    Ok(format!("exposition {path} OK: {families} metric families"))
}

/// Parses an optional duration flag (`5s`, `750ms`, bare seconds) with a
/// default.
fn duration_arg(args: &ParsedArgs, key: &str, default: Duration) -> Result<Duration, ArgError> {
    match args.optional(key) {
        Some(raw) => diffnet_loadgen::parse_duration(raw)
            .map_err(|e| ArgError::new(format!("invalid value for --{key}: {e}"))),
        None => Ok(default),
    }
}

fn serve(args: &ParsedArgs) -> Result<String, ArgError> {
    args.expect_known(&[
        "addr",
        "data-dir",
        "http-workers",
        "job-workers",
        "max-body-bytes",
        "port-file",
        "simd",
        "slow-request-secs",
        "no-access-log",
        "max-connections",
        "max-inflight",
        "idle-timeout",
        "read-timeout",
        "drain-timeout",
        "max-queued-jobs",
    ])?;
    // Jobs run in-process, so the override applies to every job this
    // daemon executes.
    resolve_simd(args)?;
    let defaults = diffnet_serve::Tuning::default();
    let tuning = diffnet_serve::Tuning {
        max_connections: args.get_or("max-connections", defaults.max_connections)?,
        max_inflight_per_conn: args.get_or("max-inflight", defaults.max_inflight_per_conn)?,
        idle_timeout: duration_arg(args, "idle-timeout", defaults.idle_timeout)?,
        request_read_timeout: duration_arg(args, "read-timeout", defaults.request_read_timeout)?,
        drain_timeout: duration_arg(args, "drain-timeout", defaults.drain_timeout)?,
        ..defaults
    };
    let config = ServeConfig {
        addr: args
            .optional("addr")
            .unwrap_or("127.0.0.1:7878")
            .to_string(),
        data_dir: PathBuf::from(args.required("data-dir")?),
        http_workers: args.get_or("http-workers", 4)?,
        job_workers: args.get_or("job-workers", 1)?,
        limits: Limits {
            max_body_bytes: args.get_or("max-body-bytes", Limits::default().max_body_bytes)?,
            ..Limits::default()
        },
        port_file: args.optional("port-file").map(PathBuf::from),
        slow_request_secs: args.get_or("slow-request-secs", 1.0)?,
        access_log: !args.has_flag("no-access-log"),
        tuning,
        max_queued_jobs: args.get_or("max-queued-jobs", ServeConfig::default().max_queued_jobs)?,
    };
    let server = Server::bind(&config).map_err(|e| io_err("cannot start server", e))?;
    let addr = server.addr();
    // Stderr, so scripts capturing stdout only see the final summary.
    eprintln!(
        "diffnet-serve listening on {addr} (data dir {})",
        config.data_dir.display()
    );
    server
        .serve_forever()
        .map_err(|e| io_err("server error", e))?;
    Ok(format!("server on {addr} stopped; jobs are resumable"))
}

/// `diffnet loadgen`: drive a running daemon with configurable traffic
/// and report throughput, latency percentiles, and error classes.
fn loadgen(args: &ParsedArgs) -> Result<String, ArgError> {
    args.expect_known(&[
        "server",
        "connections",
        "duration",
        "warmup",
        "repeats",
        "mix",
        "target-rps",
        "no-keep-alive",
        "timeout",
        "json",
    ])?;
    let addr = resolve_server(args)?;
    let mut config = diffnet_loadgen::LoadgenConfig::new(addr);
    config.connections = args.get_or("connections", config.connections)?;
    config.duration = duration_arg(args, "duration", config.duration)?;
    config.warmup = duration_arg(args, "warmup", config.warmup)?;
    config.repeats = args.get_or("repeats", config.repeats)?;
    config.keep_alive = !args.has_flag("no-keep-alive");
    config.timeout = duration_arg(args, "timeout", config.timeout)?;
    if let Some(raw) = args.optional("target-rps") {
        let rps: f64 = raw
            .parse()
            .map_err(|_| ArgError::new("invalid value for --target-rps"))?;
        if !rps.is_finite() || rps <= 0.0 {
            return Err(ArgError::new("--target-rps must be positive"));
        }
        config.target_rps = Some(rps);
    }
    if let Some(spec) = args.optional("mix") {
        config.mix = diffnet_loadgen::Mix::parse(spec)
            .map_err(|e| ArgError::new(format!("invalid --mix: {e}")))?;
    }
    let summary = diffnet_loadgen::run(&config).map_err(|e| io_err("load run failed", e))?;
    if args.has_flag("json") {
        return Ok(summary.to_json(&config).to_pretty());
    }
    let mut text = String::new();
    for (i, r) in summary.reports.iter().enumerate() {
        text.push_str(&format!(
            "window {i}: {} req in {:.2}s — {:.1} rps ok ({:.1} total) \
             p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms \
             [429:{} 503:{} 4xx:{} 5xx:{} timeout:{} io:{}]\n",
            r.requests,
            r.elapsed.as_secs_f64(),
            r.ok_rps(),
            r.total_rps(),
            r.hist.quantile(0.50) * 1e3,
            r.hist.quantile(0.95) * 1e3,
            r.hist.quantile(0.99) * 1e3,
            r.status_429,
            r.status_503,
            r.other_4xx,
            r.other_5xx,
            r.timeouts,
            r.io_errors,
        ));
    }
    let best = summary.best();
    text.push_str(&format!(
        "best: {:.1} rps over {} connections ({})",
        best.ok_rps(),
        config.connections,
        if config.keep_alive {
            "keep-alive"
        } else {
            "reconnect per request"
        }
    ));
    Ok(text)
}

fn resolve_server(args: &ParsedArgs) -> Result<std::net::SocketAddr, ArgError> {
    use std::net::ToSocketAddrs;
    let raw = args.required("server")?;
    raw.to_socket_addrs()
        .map_err(|e| io_err(&format!("cannot resolve --server {raw:?}"), e))?
        .next()
        .ok_or_else(|| ArgError::new(format!("--server {raw:?} resolved to no address")))
}

fn submit(args: &ParsedArgs) -> Result<CommandOutput, ArgError> {
    args.expect_known(&[
        "server",
        "statuses",
        "observations",
        "algorithm",
        "threads",
        "checkpoint-interval",
        "edges",
        "memory-budget",
        "shards",
        "merged-out",
        "wait",
        "timeout-secs",
    ])?;
    let addr = resolve_server(args)?;
    let algo = args.optional("algorithm").unwrap_or("tends");
    let shards: usize = args.get_or("shards", 1)?;
    if shards == 0 {
        return Err(ArgError::new("--shards must be at least 1"));
    }
    if algo != "tends" {
        for opt in ["memory-budget", "shards"] {
            if args.optional(opt).is_some() {
                return Err(ArgError::new(format!(
                    "--{opt} is only supported by --algorithm tends"
                )));
            }
        }
    }
    if args.optional("merged-out").is_some() && (shards < 2 || !args.has_flag("wait")) {
        return Err(ArgError::new(
            "--merged-out needs --shards >= 2 and --wait (it unions the shard edge lists)",
        ));
    }
    let input = if algo == "tends" {
        args.required("statuses")?
    } else {
        args.optional("observations")
            .ok_or_else(|| ArgError::new(format!("algorithm {algo:?} needs --observations")))?
    };
    let body = std::fs::read(input).map_err(|e| io_err(&format!("cannot read {input:?}"), e))?;
    let mut base_query = format!("/v1/jobs?algorithm={algo}");
    for key in ["threads", "checkpoint-interval", "edges", "memory-budget"] {
        if let Some(value) = args.optional(key) {
            base_query.push_str(&format!("&{key}={value}"));
        }
    }
    let client = Client::new(addr);

    // Submit one job per shard (one logical reconstruction split across
    // the daemon's job queue); unsharded submissions are the 1-shard case.
    let mut ids = Vec::with_capacity(shards);
    let mut text = String::new();
    for index in 0..shards {
        let mut query = base_query.clone();
        if shards > 1 {
            query.push_str(&format!("&shard-index={index}&shard-count={shards}"));
        }
        let (status, json) = client
            .post_json(&query, &body)
            .map_err(|e| io_err("submit failed", e))?;
        if status != 201 {
            return Err(ArgError::new(format!(
                "server rejected submission ({status}): {}",
                json.to_pretty().trim()
            )));
        }
        let id = json.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if shards > 1 {
            text.push_str(&format!(
                "job {id} submitted ({algo} shard {index}/{shards}) to {addr}\n"
            ));
        } else {
            text.push_str(&format!("job {id} submitted ({algo}) to {addr}\n"));
        }
        ids.push(id);
    }
    let mut text = text.trim_end().to_string();
    if !args.has_flag("wait") {
        return Ok(CommandOutput::success(text));
    }

    let deadline = Duration::from_secs(args.get_or("timeout-secs", 600)?);
    let mut any_partial = false;
    for &id in &ids {
        let final_json = client
            .wait_for_job(id, deadline)
            .map_err(|e| io_err("waiting for job", e))?;
        let state = final_json
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        text.push_str(&format!("\njob {id} finished: {state}"));
        match state.as_str() {
            "failed" => {
                return Err(ArgError::new(format!(
                    "job {id} failed: {}",
                    final_json
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown error")
                )))
            }
            "partial" => any_partial = true,
            _ => {}
        }
    }

    // Merge step: shard edge lists are disjoint views of one global
    // reconstruction, so their sorted union is the full edge set.
    if let Some(merged_out) = args.optional("merged-out") {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut nodes = 0usize;
        for &id in &ids {
            let (status, bytes) = client
                .get(&format!("/v1/jobs/{id}/edges"))
                .map_err(|e| io_err(&format!("cannot fetch job {id} edges"), e))?;
            if status != 200 {
                return Err(ArgError::new(format!(
                    "server returned {status} for job {id} edges: {}",
                    String::from_utf8_lossy(&bytes).trim()
                )));
            }
            let part = diffnet_graph::io::read_edge_list(&bytes[..], None)
                .map_err(|e| io_err(&format!("cannot parse job {id} edges"), e))?;
            nodes = nodes.max(part.node_count());
            edges.extend(part.edges());
        }
        edges.sort_unstable();
        edges.dedup();
        let merged = DiGraph::from_edges(nodes, &edges);
        diffnet_graph::io::save_edge_list(&merged, merged_out)
            .map_err(|e| io_err(&format!("cannot write {merged_out:?}"), e))?;
        text.push_str(&format!(
            "\nmerged {} edges from {} shard(s) -> {merged_out}",
            merged.edge_count(),
            ids.len()
        ));
    }
    if any_partial {
        Ok(CommandOutput::partial(text))
    } else {
        Ok(CommandOutput::success(text))
    }
}

fn job_status(args: &ParsedArgs) -> Result<CommandOutput, ArgError> {
    args.expect_known(&[
        "server",
        "id",
        "wait",
        "timeout-secs",
        "edges-out",
        "report-out",
    ])?;
    let addr = resolve_server(args)?;
    let id: u64 = args.get_required("id")?;
    let client = Client::new(addr);
    let json = if args.has_flag("wait") {
        let deadline = Duration::from_secs(args.get_or("timeout-secs", 600)?);
        client
            .wait_for_job(id, deadline)
            .map_err(|e| io_err("waiting for job", e))?
    } else {
        let (status, json) = client
            .get_json(&format!("/v1/jobs/{id}"))
            .map_err(|e| io_err("status query failed", e))?;
        if status != 200 {
            return Err(ArgError::new(format!(
                "server returned {status}: {}",
                json.to_pretty().trim()
            )));
        }
        json
    };
    let state = json
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let mut text = json.to_pretty().trim_end().to_string();
    for (key, route, label) in [
        ("edges-out", "edges", "edges"),
        ("report-out", "report", "run report"),
    ] {
        let Some(path) = args.optional(key) else {
            continue;
        };
        let (status, bytes) = client
            .get(&format!("/v1/jobs/{id}/{route}"))
            .map_err(|e| io_err(&format!("cannot fetch job {label}"), e))?;
        if status != 200 {
            return Err(ArgError::new(format!(
                "server returned {status} for job {id} {label}: {}",
                String::from_utf8_lossy(&bytes).trim()
            )));
        }
        std::fs::write(path, &bytes).map_err(|e| io_err(&format!("cannot write {path:?}"), e))?;
        text.push_str(&format!("\n{label} -> {path}"));
    }
    if state == "partial" {
        Ok(CommandOutput::partial(text))
    } else {
        Ok(CommandOutput::success(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<CommandOutput, ArgError> {
        let owned: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("diffnet_cli_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run_tokens(&["help"]).expect("help");
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run_tokens(&["frobnicate"]).is_err());
    }

    #[test]
    fn full_pipeline_round_trip() {
        let truth = tmp("truth.edges");
        let statuses = tmp("statuses.txt");
        let obs = tmp("obs.txt");
        let inferred = tmp("inferred.edges");

        let g = run_tokens(&[
            "generate",
            "--model",
            "lfr",
            "--n",
            "60",
            "--k",
            "4",
            "--t",
            "2",
            "--seed",
            "5",
            "--reciprocal",
            "--out",
            &truth,
        ])
        .expect("generate");
        assert!(g.contains("60 nodes"));

        let s = run_tokens(&[
            "simulate",
            "--graph",
            &truth,
            "--alpha",
            "0.2",
            "--beta",
            "120",
            "--mu",
            "0.35",
            "--seed",
            "6",
            "--out",
            &statuses,
            "--observations",
            &obs,
        ])
        .expect("simulate");
        assert!(s.contains("120 ic processes"));

        let i = run_tokens(&["infer", "--statuses", &statuses, "--out", &inferred]).expect("infer");
        assert!(i.contains("tends"));

        let e = run_tokens(&["eval", "--truth", &truth, "--inferred", &inferred]).expect("eval");
        assert!(e.contains("F-score"));
        let f: f64 = e
            .lines()
            .last()
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .expect("parse F");
        assert!(f > 0.4, "pipeline F-score {f} too low:\n{e}");

        // Cascade-based algorithm through the same files.
        let i2 = run_tokens(&[
            "infer",
            "--algorithm",
            "multree",
            "--observations",
            &obs,
            "--edges",
            "200",
            "--out",
            &inferred,
        ])
        .expect("multree infer");
        assert!(i2.contains("multree"));
    }

    #[test]
    fn run_report_round_trip_through_report_check() {
        let truth = tmp("report_truth.edges");
        let statuses = tmp("report_statuses.txt");
        let inferred = tmp("report_inferred.edges");
        let report = tmp("report_run.json");

        run_tokens(&[
            "generate", "--model", "er", "--n", "30", "--m", "60", "--seed", "9", "--out", &truth,
        ])
        .expect("generate");
        run_tokens(&[
            "simulate", "--graph", &truth, "--beta", "100", "--seed", "10", "--out", &statuses,
        ])
        .expect("simulate");
        let out = run_tokens(&[
            "infer",
            "--statuses",
            &statuses,
            "--out",
            &inferred,
            "--run-report",
            &report,
        ])
        .expect("infer with report");
        assert!(out.contains("run report ->"));

        // The emitted JSON passes the default TENDS schema check...
        let check = run_tokens(&["report-check", "--report", &report]).expect("report-check");
        assert!(check.contains("OK"));

        // ...and contains the headline observability values.
        let text = std::fs::read_to_string(&report).expect("report written");
        let json = diffnet_observe::parse_json(&text).expect("valid JSON");
        assert!(json.get("values").and_then(|v| v.get("tau")).is_some());
        assert!(json
            .get("histograms")
            .and_then(|h| h.get("candidate_set_size"))
            .is_some());
        assert!(json
            .get("runtime")
            .and_then(|r| r.get("worker_chunks"))
            .and_then(|c| c.get("parent_search"))
            .is_some());

        // Asking for a counter the run cannot produce fails the check.
        let err = run_tokens(&[
            "report-check",
            "--report",
            &report,
            "--counters",
            "no_such_counter",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("no_such_counter"));
    }

    #[test]
    fn report_check_rejects_non_json() {
        let bogus = tmp("bogus_report.json");
        std::fs::write(&bogus, "not json at all").expect("write");
        let err = run_tokens(&["report-check", "--report", &bogus]).unwrap_err();
        assert!(err.to_string().contains("invalid"));
    }

    #[test]
    fn netrate_report_contains_its_phases() {
        let truth = tmp("nr_truth.edges");
        let statuses = tmp("nr_statuses.txt");
        let obs = tmp("nr_obs.txt");
        let inferred = tmp("nr_inferred.edges");
        let report = tmp("nr_run.json");
        run_tokens(&[
            "generate", "--model", "er", "--n", "20", "--m", "40", "--seed", "11", "--out", &truth,
        ])
        .expect("generate");
        run_tokens(&[
            "simulate",
            "--graph",
            &truth,
            "--beta",
            "80",
            "--seed",
            "12",
            "--out",
            &statuses,
            "--observations",
            &obs,
        ])
        .expect("simulate");
        run_tokens(&[
            "infer",
            "--algorithm",
            "netrate",
            "--observations",
            &obs,
            "--edges",
            "40",
            "--out",
            &inferred,
            "--run-report",
            &report,
        ])
        .expect("netrate infer");
        let check = run_tokens(&[
            "report-check",
            "--report",
            &report,
            "--phases",
            "netrate_compile,netrate_ascent",
            "--counters",
            "netrate_pairs,netrate_iterations",
        ])
        .expect("netrate report-check");
        assert!(check.contains("OK"));
    }

    #[test]
    fn stats_reports_counts() {
        let truth = tmp("stats.edges");
        run_tokens(&[
            "generate", "--model", "er", "--n", "30", "--m", "90", "--out", &truth,
        ])
        .expect("generate");
        let out = run_tokens(&["stats", "--graph", &truth]).expect("stats");
        assert!(out.contains("nodes 30"));
        assert!(out.contains("edges 90"));
    }

    #[test]
    fn threshold_scale_must_be_a_finite_non_negative_number() {
        let truth = tmp("scale.edges");
        let statuses = tmp("scale_statuses.txt");
        run_tokens(&[
            "generate", "--model", "er", "--n", "20", "--m", "40", "--out", &truth,
        ])
        .expect("generate");
        run_tokens(&[
            "simulate", "--graph", &truth, "--beta", "30", "--out", &statuses,
        ])
        .expect("simulate");
        for bad in [
            "nan", "NaN", "inf", "-inf", "infinity", "-1", "-0.5", "1e400", "x",
        ] {
            let err = run_tokens(&[
                "infer",
                "--statuses",
                &statuses,
                "--threshold-scale",
                bad,
                "--out",
                &tmp("scale_bad.edges"),
            ])
            .expect_err(bad);
            assert!(
                err.to_string().contains("--threshold-scale"),
                "{bad}: {err}"
            );
        }
        for good in ["0", "-0", "0.4", "2"] {
            run_tokens(&[
                "infer",
                "--statuses",
                &statuses,
                "--threshold-scale",
                good,
                "--out",
                &tmp("scale_good.edges"),
            ])
            .unwrap_or_else(|e| panic!("{good}: {e}"));
        }
    }

    #[test]
    fn cascade_algorithms_require_observations() {
        let err = run_tokens(&["infer", "--algorithm", "netrate", "--out", "x"]).unwrap_err();
        assert!(err.to_string().contains("--observations"));
    }

    #[test]
    fn budget_algorithms_require_edges() {
        let obs = tmp("need_edges_obs.txt");
        let truth = tmp("need_edges.edges");
        run_tokens(&[
            "generate", "--model", "er", "--n", "20", "--m", "40", "--out", &truth,
        ])
        .expect("generate");
        run_tokens(&[
            "simulate",
            "--graph",
            &truth,
            "--beta",
            "10",
            "--out",
            &tmp("need_edges_statuses.txt"),
            "--observations",
            &obs,
        ])
        .expect("simulate");
        let err = run_tokens(&[
            "infer",
            "--algorithm",
            "lift",
            "--observations",
            &obs,
            "--out",
            "x",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--edges"));
    }

    #[test]
    fn lt_model_simulates() {
        let truth = tmp("lt.edges");
        run_tokens(&[
            "generate", "--model", "ba", "--n", "40", "--k", "2", "--out", &truth,
        ])
        .expect("generate");
        let out = run_tokens(&[
            "simulate",
            "--graph",
            &truth,
            "--model",
            "lt",
            "--beta",
            "20",
            "--out",
            &tmp("lt_statuses.txt"),
        ])
        .expect("simulate lt");
        assert!(out.contains("lt processes"));
    }

    #[test]
    fn estimate_writes_probability_file() {
        let truth = tmp("est_truth.edges");
        let statuses = tmp("est_statuses.txt");
        let out = tmp("est_probs.txt");
        run_tokens(&[
            "generate", "--model", "er", "--n", "25", "--m", "75", "--out", &truth,
        ])
        .expect("generate");
        run_tokens(&[
            "simulate", "--graph", &truth, "--beta", "80", "--out", &statuses,
        ])
        .expect("simulate");
        let report = run_tokens(&[
            "estimate",
            "--graph",
            &truth,
            "--statuses",
            &statuses,
            "--out",
            &out,
        ])
        .expect("estimate");
        assert!(report.contains("75 edges"));
        let content = std::fs::read_to_string(&out).expect("file written");
        // Header plus one line per edge, each with a parsable probability.
        let lines: Vec<&str> = content.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines.len(), 75);
        for l in lines {
            let p: f64 = l
                .split_whitespace()
                .nth(2)
                .expect("prob column")
                .parse()
                .expect("parsable");
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn checkpoint_then_resume_is_byte_identical() {
        let truth = tmp("ck_truth.edges");
        let statuses = tmp("ck_statuses.txt");
        let fresh = tmp("ck_fresh.edges");
        let resumed = tmp("ck_resumed.edges");
        let ck = tmp("ck.json");
        let _ = std::fs::remove_file(&ck);
        run_tokens(&[
            "generate", "--model", "er", "--n", "30", "--m", "60", "--seed", "21", "--out", &truth,
        ])
        .expect("generate");
        run_tokens(&[
            "simulate", "--graph", &truth, "--beta", "100", "--seed", "22", "--out", &statuses,
        ])
        .expect("simulate");
        let first = run_tokens(&[
            "infer",
            "--statuses",
            &statuses,
            "--out",
            &fresh,
            "--checkpoint",
            &ck,
            "--checkpoint-interval",
            "4",
        ])
        .expect("infer with checkpoint");
        assert_eq!(first.exit_code(), 0);
        // The second run restores every node from the finished checkpoint
        // and must reproduce the edge list byte for byte.
        let second = run_tokens(&[
            "infer",
            "--statuses",
            &statuses,
            "--out",
            &resumed,
            "--checkpoint",
            &ck,
            "--resume",
        ])
        .expect("resumed infer");
        assert!(second.contains("resumed 30 node(s)"), "{}", &*second);
        assert_eq!(
            std::fs::read(&fresh).expect("fresh"),
            std::fs::read(&resumed).expect("resumed")
        );
    }

    #[test]
    fn resume_requires_checkpoint() {
        let err = run_tokens(&["infer", "--statuses", "x", "--out", "y", "--resume"]).unwrap_err();
        assert!(err.to_string().contains("--checkpoint"));
    }

    #[test]
    fn streamed_infer_matches_dense_infer_byte_for_byte() {
        let truth = tmp("stream_truth.edges");
        let statuses = tmp("stream_statuses.txt");
        let dense = tmp("stream_dense.edges");
        let streamed = tmp("stream_streamed.edges");
        let report = tmp("stream_run.json");
        run_tokens(&[
            "generate", "--model", "er", "--n", "40", "--m", "80", "--seed", "31", "--out", &truth,
        ])
        .expect("generate");
        run_tokens(&[
            "simulate", "--graph", &truth, "--beta", "110", "--seed", "32", "--out", &statuses,
        ])
        .expect("simulate");
        run_tokens(&["infer", "--statuses", &statuses, "--out", &dense]).expect("dense infer");
        let out = run_tokens(&[
            "infer",
            "--statuses",
            &statuses,
            "--out",
            &streamed,
            "--memory-budget",
            "16M",
            "--run-report",
            &report,
        ])
        .expect("streamed infer");
        assert_eq!(out.exit_code(), 0);
        assert_eq!(
            std::fs::read(&dense).expect("dense edges"),
            std::fs::read(&streamed).expect("streamed edges"),
            "streamed pipeline must reproduce the dense edge list byte for byte"
        );

        // The streamed run report has its own phase sequence; report-check
        // passes with the streamed phase list.
        let check = run_tokens(&[
            "report-check",
            "--report",
            &report,
            "--phases",
            "load_statuses,tau_sample,streamed_fold,parent_search,direction",
            "--counters",
            "tau_sample_pairs,correlation_pairs,combinations_scored",
        ])
        .expect("streamed report-check");
        assert!(check.contains("OK"));

        // Sharded runs under the same budget union to the same edge set.
        let mut union: Vec<(u32, u32)> = Vec::new();
        for index in 0..3 {
            let part = tmp(&format!("stream_shard{index}.edges"));
            run_tokens(&[
                "infer",
                "--statuses",
                &statuses,
                "--out",
                &part,
                "--memory-budget",
                "16M",
                "--shard-index",
                &index.to_string(),
                "--shard-count",
                "3",
            ])
            .expect("shard infer");
            let g = diffnet_graph::io::load_edge_list(&part, None).expect("parse shard");
            assert_eq!(g.node_count(), 40, "shard output keeps the global n");
            union.extend(g.edges());
        }
        union.sort_unstable();
        union.dedup();
        let dense_graph = diffnet_graph::io::load_edge_list(&dense, None).expect("parse dense");
        assert_eq!(union, dense_graph.edge_vec());
    }

    #[test]
    fn streamed_options_are_validated() {
        let err = run_tokens(&[
            "infer",
            "--statuses",
            "x",
            "--out",
            "y",
            "--memory-budget",
            "12Q",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("12Q"), "{err}");

        let err = run_tokens(&[
            "infer",
            "--statuses",
            "x",
            "--out",
            "y",
            "--shard-index",
            "0",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--shard-count"), "{err}");

        let err = run_tokens(&[
            "infer",
            "--statuses",
            "x",
            "--out",
            "y",
            "--shard-index",
            "3",
            "--shard-count",
            "3",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        let err = run_tokens(&[
            "infer",
            "--statuses",
            "x",
            "--out",
            "y",
            "--shard-index",
            "0",
            "--shard-count",
            "2",
            "--mutual-only",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--mutual-only"), "{err}");

        let err = run_tokens(&[
            "infer",
            "--algorithm",
            "netrate",
            "--out",
            "y",
            "--memory-budget",
            "1G",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("tends"), "{err}");

        let err = run_tokens(&[
            "submit",
            "--server",
            "127.0.0.1:1",
            "--statuses",
            "x",
            "--shards",
            "0",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");

        let err = run_tokens(&[
            "submit",
            "--server",
            "127.0.0.1:1",
            "--statuses",
            "x",
            "--shards",
            "2",
            "--merged-out",
            "m.edges",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--wait"), "{err}");
    }

    #[test]
    fn checkpoint_is_tends_only() {
        let err = run_tokens(&[
            "infer",
            "--algorithm",
            "netrate",
            "--out",
            "y",
            "--checkpoint",
            "c",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("tends"));
    }

    #[test]
    fn invalid_simd_mode_is_rejected_before_any_work() {
        // Parse failure must surface as a typed ArgError (and must not
        // install anything in the process-wide dispatcher — the tests in
        // this binary share it).
        let err =
            run_tokens(&["infer", "--statuses", "x", "--out", "y", "--simd", "sse9"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("sse9") && msg.contains("scalar"), "{msg}");
    }

    #[test]
    fn unknown_options_are_rejected_per_command() {
        let err = run_tokens(&["eval", "--truth", "a", "--bogus", "b"]).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
    }

    #[test]
    fn hostile_in_degree_fails_cleanly_not_abort() {
        // A user-supplied topology can declare any in-degree; the noisy-OR
        // sufficient statistics are 2^{in-degree} counts per node, so a
        // 26-parent hub must surface as a command error (exercising the
        // typed ComboSizeError path), never a process abort.
        let truth = tmp("hostile_truth.edges");
        let statuses = tmp("hostile_statuses.txt");
        let edges: Vec<(u32, u32)> = (0..26).map(|u| (u, 26)).collect();
        let g = diffnet_graph::DiGraph::from_edges(27, &edges);
        diffnet_graph::io::save_edge_list(&g, &truth).expect("write graph");
        let m = diffnet_simulate::StatusMatrix::new(10, 27);
        diffnet_simulate::io::save_status_matrix(&m, &statuses).expect("write statuses");
        let err = run_tokens(&[
            "estimate",
            "--graph",
            &truth,
            "--statuses",
            &statuses,
            "--out",
            &tmp("hostile_probs.txt"),
        ])
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("26") && msg.contains("too large"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn trace_render_renders_timeline_and_collapsed() {
        let path = tmp("trace_render.json");
        // A bare trace object, as returned by GET /v1/jobs/{id}/trace.
        std::fs::write(
            &path,
            r#"{"spans":[
                {"id":1,"parent":null,"name":"parent_search","start_s":0.0,"end_s":1.0,"thread":"main","attrs":{}},
                {"id":2,"parent":1,"name":"node_search","start_s":0.1,"end_s":0.9,"thread":"worker-0","attrs":{"node":3}}
            ],"dropped":0}"#,
        )
        .expect("write trace");

        let timeline = run_tokens(&["trace", "render", &path]).expect("timeline");
        let text = timeline.to_string();
        assert!(text.contains("parent_search"), "timeline:\n{text}");
        assert!(text.contains("node_search"));

        let collapsed = run_tokens(&["trace", "render", &path, "--collapsed"]).expect("collapsed");
        assert!(
            collapsed.to_string().contains("parent_search;node_search"),
            "collapsed stacks:\n{collapsed}"
        );

        // The same trace nested under runtime.trace (a run report) works too.
        let report_path = tmp("trace_render_report.json");
        let inner = std::fs::read_to_string(&path).expect("read back");
        std::fs::write(
            &report_path,
            format!("{{\"runtime\":{{\"trace\":{inner}}}}}"),
        )
        .expect("write report");
        let nested = run_tokens(&["trace", "render", &report_path]).expect("nested");
        assert!(nested.to_string().contains("parent_search"));

        // Missing action / unknown action are argument errors.
        assert!(run_tokens(&["trace"]).is_err());
        let err = run_tokens(&["trace", "frobnicate", &path]).unwrap_err();
        assert!(err.to_string().contains("unknown trace action"));
    }

    #[test]
    fn metrics_lint_accepts_good_and_rejects_bad() {
        let good = tmp("lint_good.prom");
        std::fs::write(
            &good,
            "# HELP diffnet_jobs_submitted jobs submitted.\n\
             # TYPE diffnet_jobs_submitted counter\n\
             diffnet_jobs_submitted 3\n",
        )
        .expect("write good");
        let out = run_tokens(&["metrics-lint", "--file", &good]).expect("lint good");
        assert!(out.contains("metric families"), "output: {out}");

        let bad = tmp("lint_bad.prom");
        std::fs::write(
            &bad,
            "# TYPE diffnet_x counter\n# TYPE diffnet_x gauge\ndiffnet_x 1\n",
        )
        .expect("write bad");
        let err = run_tokens(&["metrics-lint", "--file", &bad]).unwrap_err();
        assert!(err.to_string().contains("invalid"), "error: {err}");
    }
}
