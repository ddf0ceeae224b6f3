//! The daemon: routing, config, and lifecycle around the epoll reactor.
//!
//! All socket work happens on the single [`crate::reactor`] thread
//! (nonblocking accept, readiness-driven parsing, keep-alive and
//! pipelining, bounded buffers, timeouts); this module owns everything
//! above it: the [`ServeConfig`], the process-wide `Shared` state, the
//! `route` table mapping parsed requests onto the [`JobManager`] API,
//! and the `route_is_heavy` split deciding which routes run inline on
//! the loop versus on the request-worker pool.
//!
//! Shutdown is cooperative and has three triggers that all set the same
//! flag: `SIGTERM`/`SIGINT` (unix), `POST /v1/shutdown`, and
//! [`Server::request_shutdown`]. The reactor notices the flag within one
//! poll interval (immediately when the eventfd doorbell is rung), stops
//! accepting, drains in-flight responses, and then joins the job
//! workers — in-flight jobs checkpoint their finished nodes and stay
//! `running` on disk, so the next start resumes them.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use diffnet_observe::{
    parse_json, render_prometheus, trace_to_json, FaultPlan, Json, Recorder, ResourceProfiler,
    DEFAULT_SAMPLE_INTERVAL,
};

use crate::http::{Limits, Method, Request, Response};
use crate::job::{status_json, JobError, JobManager, JobSpec};
use crate::reactor::{Reactor, Tuning, Wakeup};

/// Fault-injection site hit once per accepted connection.
pub const FAULT_ACCEPT: &str = "accept";

/// How the daemon is wired up. [`Default`] binds an ephemeral loopback
/// port with one job worker — the configuration the tests use.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (or port `0` for ephemeral).
    pub addr: String,
    /// Directory holding the durable job store.
    pub data_dir: PathBuf,
    /// HTTP handler threads.
    pub http_workers: usize,
    /// Inference worker threads (each runs one job at a time).
    pub job_workers: usize,
    /// Request size caps.
    pub limits: Limits,
    /// If set, the bound address is written here once listening — how
    /// spawned-binary tests discover an ephemeral port.
    pub port_file: Option<PathBuf>,
    /// Requests slower than this many seconds are logged and counted as
    /// `http_slow_requests`.
    pub slow_request_secs: f64,
    /// Emit one structured JSON access-log line per request to stderr.
    pub access_log: bool,
    /// Reactor knobs: connection cap, per-connection in-flight budget,
    /// idle/read timeouts, drain deadline, request-worker queue depth.
    pub tuning: Tuning,
    /// Cap on queued (not-yet-running) jobs; submits beyond it are `503`.
    pub max_queued_jobs: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: PathBuf::from("diffnet-data"),
            http_workers: 4,
            job_workers: 1,
            limits: Limits::default(),
            port_file: None,
            slow_request_secs: 1.0,
            access_log: true,
            tuning: Tuning::default(),
            max_queued_jobs: 64,
        }
    }
}

/// Process-wide state the reactor, its request workers, and the route
/// table all share.
pub(crate) struct Shared {
    pub(crate) manager: Arc<JobManager>,
    pub(crate) rec: Arc<Recorder>,
    pub(crate) limits: Limits,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// The reactor's eventfd doorbell: rung by request workers on
    /// completion and by [`Server::request_shutdown`].
    pub(crate) wakeup: Wakeup,
    pub(crate) fault: Arc<FaultPlan>,
    /// Sequence for generated request ids (`req-1`, `req-2`, …).
    next_request_id: AtomicU64,
    /// Process-wide resource sampler; its live profile backs the
    /// `process_*` gauges on `/v1/metrics`.
    profiler: ResourceProfiler,
    pub(crate) slow_request_secs: f64,
    pub(crate) access_log: bool,
}

/// A bound, running daemon. Construct with [`Server::bind`], then either
/// call [`Server::serve_forever`] (the CLI does) or poke it from another
/// thread via [`Server::request_shutdown`] (the tests do).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    http_workers: usize,
    tuning: Tuning,
}

impl Server {
    /// Binds the listener, opens/rescans the job store, starts the job
    /// workers, and (if configured) writes the port file. The reactor
    /// itself starts inside [`Server::serve_forever`].
    pub fn bind(config: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let rec = Arc::new(Recorder::new());
        let fault = Arc::new(
            FaultPlan::from_env().map_err(|e| io::Error::other(format!("DIFFNET_FAULT: {e}")))?,
        );
        let manager = JobManager::new(
            &config.data_dir,
            config.job_workers,
            Arc::clone(&shutdown),
            Arc::clone(&rec),
            Arc::clone(&fault),
        )?;
        manager.set_max_queued(config.max_queued_jobs);
        let shared = Arc::new(Shared {
            manager,
            rec,
            limits: config.limits,
            shutdown,
            wakeup: Wakeup::new()?,
            fault,
            next_request_id: AtomicU64::new(1),
            profiler: ResourceProfiler::start(DEFAULT_SAMPLE_INTERVAL),
            slow_request_secs: config.slow_request_secs,
            access_log: config.access_log,
        });
        if let Some(path) = &config.port_file {
            diffnet_graph::io::save_atomic(path, |w| writeln!(w, "{addr}"))?;
        }
        Ok(Server {
            listener,
            addr,
            shared,
            http_workers: config.http_workers,
            tuning: config.tuning,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown flag; setting it stops the daemon within one poll
    /// interval, exactly like `SIGTERM` or `POST /v1/shutdown`.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Requests a graceful stop from another thread, waking the reactor
    /// immediately via its doorbell.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wakeup.ring();
    }

    /// Runs the epoll reactor until the shutdown flag is set (by a
    /// signal, the shutdown endpoint, or [`Server::request_shutdown`]),
    /// drains in-flight responses, then joins the job workers. In-flight
    /// jobs checkpoint and stay resumable.
    pub fn serve_forever(self) -> io::Result<()> {
        #[cfg(unix)]
        install_signal_handlers();
        let reactor = Reactor::new(
            self.listener,
            Arc::clone(&self.shared),
            self.http_workers,
            self.tuning,
        )?;
        let result = reactor.run();
        // Reached only after the drain: stop the job workers too.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.manager.shutdown_and_join();
        result
    }
}

impl Shared {
    /// The per-request id: the client's `X-Request-Id` when it is short
    /// and header-safe (so it can be echoed without response-splitting
    /// risk), otherwise a generated `req-N`.
    pub(crate) fn request_id(&self, req: &Request) -> String {
        if let Some(raw) = req.header("x-request-id") {
            let ok = !raw.is_empty()
                && raw.len() <= 64
                && raw
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
            if ok {
                return raw.to_string();
            }
        }
        self.generated_request_id()
    }

    pub(crate) fn generated_request_id(&self) -> String {
        format!(
            "req-{}",
            self.next_request_id.fetch_add(1, Ordering::Relaxed)
        )
    }
}

/// Whether a route runs on the request-worker pool (`true`) instead of
/// inline on the reactor thread. Heavy routes are the ones that touch
/// the job store (submits parse + persist, cascade appends rewrite
/// inputs, output reads hit disk); everything else answers from memory
/// fast enough that a worker round-trip would only add latency.
pub(crate) fn route_is_heavy(req: &Request) -> bool {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    matches!(
        (req.method, segments.as_slice()),
        (Method::Post, ["v1", "jobs"])
            | (Method::Post, ["v1", "jobs", _, "cascades"])
            | (Method::Get, ["v1", "jobs", _, "edges" | "report" | "trace"])
    )
}

/// The duration-histogram name for a request's endpoint. Static names
/// keep the recorder allocation-free and bound the label set no matter
/// what paths clients probe.
pub(crate) fn endpoint_metric(req: &Request) -> &'static str {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method, segments.as_slice()) {
        (Method::Get, ["v1", "healthz"]) => "http_request_seconds_healthz",
        (Method::Get, ["v1", "metrics"]) => "http_request_seconds_metrics",
        (Method::Post, ["v1", "shutdown"]) => "http_request_seconds_shutdown",
        (Method::Post, ["v1", "jobs"]) => "http_request_seconds_submit",
        (Method::Get, ["v1", "jobs"]) => "http_request_seconds_jobs_list",
        (Method::Get, ["v1", "jobs", _]) => "http_request_seconds_job_status",
        (Method::Get, ["v1", "jobs", _, "edges"]) => "http_request_seconds_job_edges",
        (Method::Get, ["v1", "jobs", _, "report"]) => "http_request_seconds_job_report",
        (Method::Get, ["v1", "jobs", _, "trace"]) => "http_request_seconds_job_trace",
        (Method::Post, ["v1", "jobs", _, "cascades"]) => "http_request_seconds_job_cascades",
        _ => "http_request_seconds_other",
    }
}

/// Maps one parsed request onto the API.
pub(crate) fn route(shared: &Shared, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method, segments.as_slice()) {
        (Method::Get, ["v1", "healthz"]) => Response::text(200, "ok\n"),
        (Method::Get, ["v1", "metrics"]) => {
            // Refresh the process gauges from the live profiler before
            // rendering, so every scrape sees current RSS/CPU.
            let res = shared.profiler.current();
            shared
                .rec
                .value("process_rss_bytes", res.last_rss_bytes() as f64);
            shared
                .rec
                .value("process_peak_rss_bytes", res.peak_rss_bytes as f64);
            shared
                .rec
                .value("process_user_cpu_seconds", res.user_cpu_seconds);
            shared
                .rec
                .value("process_system_cpu_seconds", res.system_cpu_seconds);
            let snap = shared.rec.snapshot();
            Response::text(200, render_prometheus(&snap, "diffnet"))
        }
        (Method::Post, ["v1", "shutdown"]) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::text(200, "shutting down\n")
        }
        (Method::Post, ["v1", "jobs"]) => match spec_from_query(req) {
            Ok(spec) => match shared.manager.submit(spec, &req.body) {
                Ok(meta) => Response::json(201, &status_json(&meta, None)),
                Err(e) => job_error(e),
            },
            Err(msg) => Response::error(422, msg),
        },
        (Method::Get, ["v1", "jobs"]) => {
            let mut arr = Vec::new();
            for meta in shared.manager.list() {
                arr.push(status_json(&meta, None));
            }
            let mut root = Json::object();
            root.push("jobs", Json::Arr(arr));
            Response::json(200, &root)
        }
        (Method::Get, ["v1", "jobs", id]) => match parse_id(id) {
            Some(id) => match shared.manager.status(id) {
                Some((meta, live)) => Response::json(200, &status_json(&meta, live.as_ref())),
                None => Response::error(404, format!("no job {id}")),
            },
            None => Response::error(404, format!("bad job id {id:?}")),
        },
        (Method::Get, ["v1", "jobs", id, "edges"]) => output(shared, id, "edges.txt"),
        (Method::Get, ["v1", "jobs", id, "report"]) => output(shared, id, "report.json"),
        (Method::Get, ["v1", "jobs", id, "trace"]) => job_trace(shared, id),
        (Method::Post, ["v1", "jobs", id, "cascades"]) => match parse_id(id) {
            Some(id) => match shared.manager.append_cascades(id, &req.body) {
                // 200: applied and re-queued now. 202: the job is still
                // running, so the batch is buffered and will be applied
                // (with one revision bump) when the job next finishes.
                Ok((meta, buffered)) => {
                    let status = if buffered { 202 } else { 200 };
                    Response::json(status, &status_json(&meta, None))
                }
                Err(e) => job_error(e),
            },
            None => Response::error(404, format!("bad job id {id:?}")),
        },
        // Known paths with the wrong verb are 405, unknown paths 404.
        (_, ["v1", "healthz" | "metrics" | "jobs", ..]) | (_, ["v1", "shutdown"]) => {
            Response::error(405, format!("{} not allowed here", req.method))
        }
        _ => Response::error(404, format!("no route for {:?}", req.path)),
    }
}

fn output(shared: &Shared, id: &str, file: &str) -> Response {
    match parse_id(id) {
        Some(id) => match shared.manager.read_output(id, file) {
            Ok(bytes) => Response {
                status: 200,
                content_type: if file.ends_with(".json") {
                    "application/json"
                } else {
                    "text/plain; charset=utf-8"
                },
                headers: Vec::new(),
                body: bytes,
            },
            Err(e) => job_error(e),
        },
        None => Response::error(404, format!("bad job id {id:?}")),
    }
}

/// `GET /v1/jobs/{id}/trace`: the job's span tree. A running job renders
/// live from its recorder; a finished one extracts `runtime.trace` from
/// the persisted report, so the endpoint works across daemon restarts.
fn job_trace(shared: &Shared, id: &str) -> Response {
    let Some(id) = parse_id(id) else {
        return Response::error(404, format!("bad job id {id:?}"));
    };
    let Some((meta, live)) = shared.manager.status(id) else {
        return Response::error(404, format!("no job {id}"));
    };
    let trace = match live {
        Some(snap) => trace_to_json(&snap.spans, snap.spans_dropped),
        None => {
            let bytes = match shared.manager.read_output(id, "report.json") {
                Ok(b) => b,
                Err(e) => return job_error(e),
            };
            let report = match std::str::from_utf8(&bytes)
                .map_err(|e| e.to_string())
                .and_then(|text| parse_json(text).map_err(|e| e.to_string()))
            {
                Ok(json) => json,
                Err(e) => return Response::error(500, format!("corrupt job report: {e}")),
            };
            match report.get("runtime").and_then(|r| r.get("trace")) {
                Some(trace) => trace.clone(),
                None => return Response::error(404, format!("no trace recorded for job {id}")),
            }
        }
    };
    let mut root = Json::object();
    root.push("job", id);
    root.push("state", meta.state.as_str());
    root.push("trace", trace);
    Response::json(200, &root)
}

fn job_error(e: JobError) -> Response {
    Response::error(e.status, e.message)
}

fn parse_id(raw: &str) -> Option<u64> {
    raw.parse().ok()
}

/// Builds a [`JobSpec`] from the submit query string; unknown keys are a
/// typed error so client typos fail loudly instead of silently running
/// with defaults.
fn spec_from_query(req: &Request) -> Result<JobSpec, String> {
    let mut spec = JobSpec::default();
    for (key, value) in &req.query {
        match key.as_str() {
            "algorithm" => spec.algorithm = value.clone(),
            "threads" => {
                spec.threads = value
                    .parse()
                    .map_err(|_| format!("bad threads value {value:?}"))?;
            }
            "checkpoint-interval" => {
                spec.checkpoint_interval = value
                    .parse()
                    .map_err(|_| format!("bad checkpoint-interval value {value:?}"))?;
            }
            "edges" => {
                spec.edges_budget = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad edges value {value:?}"))?,
                );
            }
            "memory-budget" => {
                spec.memory_budget = Some(crate::job::parse_size(value).ok_or_else(|| {
                    format!("bad memory-budget value {value:?} (bytes with optional K/M/G suffix)")
                })?);
            }
            "shard-index" => {
                spec.shard_index = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad shard-index value {value:?}"))?,
                );
            }
            "shard-count" => {
                spec.shard_count = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad shard-count value {value:?}"))?,
                );
            }
            other => return Err(format!("unknown submit option {other:?}")),
        }
    }
    Ok(spec)
}

// ---------------------------------------------------------------------------
// Unix signal handling, with no crates: std already links libc, so the
// two symbols we need can be declared directly. The handler only stores
// to a process-global atomic, which is async-signal-safe.

static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

pub(crate) fn signalled() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn temp_config(tag: &str) -> ServeConfig {
        let dir = std::env::temp_dir().join(format!(
            "diffnet-serve-http-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ServeConfig {
            data_dir: dir,
            http_workers: 2,
            access_log: false,
            ..ServeConfig::default()
        }
    }

    fn start(config: &ServeConfig) -> (SocketAddr, std::thread::JoinHandle<io::Result<()>>) {
        let server = Server::bind(config).expect("bind");
        let addr = server.addr();
        let handle = std::thread::spawn(move || server.serve_forever());
        (addr, handle)
    }

    fn shut_down(
        addr: SocketAddr,
        handle: std::thread::JoinHandle<io::Result<()>>,
        config: &ServeConfig,
    ) {
        let client = crate::client::Client::new(addr);
        client.shutdown().expect("shutdown");
        handle.join().expect("join").expect("serve");
        let _ = std::fs::remove_dir_all(&config.data_dir);
    }

    #[test]
    fn routes_health_metrics_and_errors() {
        let config = temp_config("routes");
        let (addr, handle) = start(&config);
        let client = crate::client::Client::new(addr);

        let (status, body) = client.get("/v1/healthz").expect("healthz");
        assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

        let (status, body) = client.get("/v1/metrics").expect("metrics");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).expect("utf8");
        assert!(
            text.contains("diffnet_http_requests"),
            "metrics exposition missing request counter:\n{text}"
        );

        let (status, _) = client.get("/v1/jobs/999").expect("missing job");
        assert_eq!(status, 404);
        let (status, _) = client.get("/nonsense").expect("bad path");
        assert_eq!(status, 404);

        // Wrong verb on a known path.
        let (status, _) = client
            .request(Method::Post, "/v1/healthz", b"x")
            .expect("post healthz");
        assert_eq!(status, 405);

        shut_down(addr, handle, &config);
    }

    #[test]
    fn request_ids_are_echoed_and_generated() {
        let config = temp_config("reqid");
        let (addr, handle) = start(&config);

        // A well-formed client id round-trips.
        let raw = crate::client::raw_roundtrip(
            addr,
            b"GET /v1/healthz HTTP/1.1\r\nX-Request-Id: my-trace.7\r\n\r\n",
        )
        .expect("raw");
        assert!(raw.contains("X-Request-Id: my-trace.7"), "{raw}");

        // A hostile id (header-splitting attempt via spaces/length) is
        // replaced with a generated one.
        let raw = crate::client::raw_roundtrip(
            addr,
            b"GET /v1/healthz HTTP/1.1\r\nX-Request-Id: evil id\r\n\r\n",
        )
        .expect("raw");
        assert!(!raw.contains("evil id"), "{raw}");
        assert!(raw.contains("X-Request-Id: req-"), "{raw}");

        // Requests without one also get a generated id.
        let raw =
            crate::client::raw_roundtrip(addr, b"GET /v1/healthz HTTP/1.1\r\n\r\n").expect("raw");
        assert!(raw.contains("X-Request-Id: req-"), "{raw}");

        shut_down(addr, handle, &config);
    }

    #[test]
    fn metrics_expose_latency_histograms_and_process_gauges() {
        let mut config = temp_config("latency");
        // Threshold of zero: every request is "slow", so the counter and
        // slow-path logging are exercised deterministically.
        config.slow_request_secs = 0.0;
        let (addr, handle) = start(&config);
        let client = crate::client::Client::new(addr);

        client.get("/v1/healthz").expect("healthz");
        client.get("/v1/healthz").expect("healthz");
        let (status, body) = client.get("/v1/metrics").expect("metrics");
        assert_eq!(status, 200);
        // Second scrape: the first one recorded the metrics endpoint's
        // own latency, so its histogram family is now present too.
        let (_, body2) = client.get("/v1/metrics").expect("metrics again");
        let text = String::from_utf8(body2).expect("utf8");
        drop(body);

        assert!(
            text.contains("# TYPE diffnet_http_request_seconds_healthz histogram"),
            "{text}"
        );
        assert!(
            text.contains("diffnet_http_request_seconds_healthz_count 2"),
            "{text}"
        );
        assert!(
            text.contains("diffnet_http_request_seconds_healthz_p50 "),
            "{text}"
        );
        assert!(
            text.contains("diffnet_http_request_seconds_healthz_p95 "),
            "{text}"
        );
        assert!(
            text.contains("diffnet_http_request_seconds_healthz_p99 "),
            "{text}"
        );
        // Buckets carry real second boundaries, not raw indices.
        assert!(
            text.contains("diffnet_http_request_seconds_healthz_bucket{le=\"0.0009765625\"}"),
            "{text}"
        );
        assert!(text.contains("diffnet_process_rss_bytes "), "{text}");
        assert!(text.contains("diffnet_process_peak_rss_bytes "), "{text}");
        assert!(text.contains("diffnet_process_user_cpu_seconds "), "{text}");
        assert!(text.contains("diffnet_http_slow_requests "), "{text}");
        diffnet_observe::lint_exposition(&text).expect("live exposition lints clean");

        shut_down(addr, handle, &config);
    }

    #[test]
    fn hostile_requests_get_typed_errors_not_hangs() {
        let mut config = temp_config("hostile");
        config.limits = Limits {
            max_head_bytes: 1024,
            max_body_bytes: 4096,
        };
        let (addr, handle) = start(&config);

        // Garbage request line.
        let raw = crate::client::raw_roundtrip(addr, b"\x01\x02garbage\r\n\r\n").expect("raw");
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

        // Declared body over the cap: rejected before reading it.
        let raw = crate::client::raw_roundtrip(
            addr,
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
        )
        .expect("raw");
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");

        // Truncated upload: client closes before delivering the body.
        let raw = crate::client::raw_roundtrip(
            addr,
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
        )
        .expect("raw");
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        assert!(raw.contains("truncated body"), "{raw}");

        // The server is still healthy afterwards.
        let client = crate::client::Client::new(addr);
        let (status, _) = client.get("/v1/healthz").expect("healthz");
        assert_eq!(status, 200);

        shut_down(addr, handle, &config);
    }

    /// A small deterministic status matrix (cascades over a ring) in the
    /// submit wire format.
    fn sample_statuses_body(beta: usize, n: usize) -> Vec<u8> {
        let mut out = String::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for l in 0..beta {
            let mut row = vec![false; n];
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let start = (state >> 33) as usize % n;
            for k in 0..1 + (l % (n / 2)) {
                row[(start + k) % n] = true;
            }
            let cells: Vec<&str> = row.iter().map(|&b| if b { "1" } else { "0" }).collect();
            out.push_str(&cells.join(" "));
            out.push('\n');
        }
        out.into_bytes()
    }

    #[test]
    fn trace_endpoint_returns_span_tree_for_completed_job() {
        let config = temp_config("trace");
        let (addr, handle) = start(&config);
        let client = crate::client::Client::new(addr);

        let (status, submitted) = client
            .post_json("/v1/jobs", &sample_statuses_body(40, 8))
            .expect("submit");
        assert_eq!(status, 201, "{}", submitted.to_pretty());
        let id = submitted.get("id").and_then(Json::as_f64).expect("job id") as u64;
        client
            .wait_for_job(id, Duration::from_secs(30))
            .expect("job finishes");

        let (status, doc) = client
            .get_json(&format!("/v1/jobs/{id}/trace"))
            .expect("trace");
        assert_eq!(status, 200, "{}", doc.to_pretty());
        assert_eq!(doc.get("job").and_then(Json::as_f64), Some(id as f64));
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("done"));
        let trace = doc.get("trace").expect("trace object");
        // The tree is parseable by the same routine `diffnet trace
        // render` uses, and contains the reconstruction span hierarchy.
        let (spans, _) = diffnet_observe::spans_from_json(trace).expect("parseable span tree");
        assert!(spans.iter().any(|s| s.name == "parent_search"));
        assert!(spans
            .iter()
            .any(|s| s.name == "node_search" && s.parent.is_some()));

        let (status, _) = client.get("/v1/jobs/999/trace").expect("missing");
        assert_eq!(status, 404);

        shut_down(addr, handle, &config);
    }

    #[test]
    fn streamed_job_cascade_append_is_a_typed_422() {
        let config = temp_config("streamed-append");
        let (addr, handle) = start(&config);
        let client = crate::client::Client::new(addr);

        let (status, submitted) = client
            .post_json("/v1/jobs?memory-budget=8M", &sample_statuses_body(40, 8))
            .expect("submit");
        assert_eq!(status, 201, "{}", submitted.to_pretty());
        let id = submitted.get("id").and_then(Json::as_f64).expect("job id") as u64;
        client
            .wait_for_job(id, Duration::from_secs(30))
            .expect("job finishes");

        let (status, body) = client
            .post_json(
                &format!("/v1/jobs/{id}/cascades"),
                &sample_statuses_body(5, 8),
            )
            .expect("append");
        assert_eq!(status, 422, "{}", body.to_pretty());
        let message = body.get("error").and_then(Json::as_str).expect("error");
        assert!(message.contains("streamed"), "{message}");

        shut_down(addr, handle, &config);
    }

    #[test]
    fn unknown_submit_option_is_422() {
        let config = temp_config("badopt");
        let (addr, handle) = start(&config);
        let client = crate::client::Client::new(addr);
        let (status, body) = client
            .request(Method::Post, "/v1/jobs?thread=2", b"0 1\n1 0\n")
            .expect("submit");
        assert_eq!(status, 422);
        assert!(
            String::from_utf8(body).expect("utf8").contains("thread"),
            "error should name the bad option"
        );
        shut_down(addr, handle, &config);
    }
}
