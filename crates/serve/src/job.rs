//! The durable job queue behind the daemon.
//!
//! Every job lives in its own directory under the server data dir:
//!
//! ```text
//! data/job-7/
//!   job.json         # JobMeta — id, spec, state machine, shape, errors
//!   statuses.txt     # the status matrix (tends jobs): the upload, verbatim,
//!                    #   plus the rows of every applied append
//!   observations.txt # the uploaded observation set (baseline jobs)
//!   checkpoint.json  # PR-4 tends checkpoint; the durability log
//!   append.txt       # appended-only cascades awaiting the warm re-run
//!   pending-append-N.txt # appends buffered while the job was running
//!   edges.txt        # inferred edge list, written on completion
//!   report.json      # RunReport with a `runtime.job` section
//! ```
//!
//! `job.json` and every output are written with
//! [`diffnet_graph::io::save_atomic`] (temp + fsync + rename), so a
//! `kill -9` at any instant leaves either the old or the new file, never
//! a torn one. On startup [`JobManager::new`] rescans the data dir:
//! `queued` jobs are re-enqueued as-is, `running` jobs are re-enqueued
//! with `resume` semantics — the tends checkpoint restores every node
//! that completed before the crash, so the finished edge list is
//! byte-identical to an uninterrupted run.
//!
//! State machine: `queued → running → done | failed | partial`, plus the
//! transition `running → queued` taken only on disk, implicitly, when the
//! process dies or shuts down gracefully mid-job (the meta still says
//! `running`; the rescan treats that as "resume me"). Appending cascades
//! to a terminal job rewinds it to `queued` with a bumped `revision`; the
//! checkpoint (which carries the pair-count sufficient statistics) is
//! kept as the warm state, and the appended rows land in `append.txt` so
//! the re-run folds them in incrementally instead of re-searching every
//! node. Appends that arrive while the job is queued or running are
//! buffered as `pending-append-N.txt` and folded in — one revision bump
//! per batch — at the next terminal transition.
//!
//! Applying an append never parses the history. `statuses.txt` is
//! rewritten (atomically) as a fresh header carrying the combined
//! process count, the old file's rows copied byte for byte through a
//! bounded buffer, then the batch's rows — so the I/O of an append grows
//! with the batch, not with the job. Every status file a run reads is
//! loaded straight into column bitsets by
//! [`load_status_columns`].

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use diffnet_baselines::{Lift, MulTree, NetInf, NetRate, PathReconstruction};
use diffnet_graph::io::{save_atomic, save_edge_list};
use diffnet_graph::DiGraph;
use diffnet_observe::{
    parse_json, CheckpointInfo, FaultPlan, Json, Progress, Recorder, ResourceProfiler, RunReport,
    Snapshot, DEFAULT_SAMPLE_INTERVAL,
};
use diffnet_simulate::io::{
    copy_status_rows, load_status_columns, read_observations, read_status_columns,
    read_status_header, write_status_header,
};
use diffnet_tends::{shard_of, NodeError, RobustOptions, Tends, TendsConfig, MAX_DENSE_NODES};

/// Algorithms a job may request. `tends` takes a status matrix body;
/// the baselines take an observations body plus an edge budget.
pub const ALGORITHMS: &[&str] = &["tends", "netrate", "multree", "lift", "netinf", "path"];

/// Fault-injection site hit after every `job.json` flush.
pub const FAULT_JOB_FLUSH: &str = "job_flush";

/// Fault-injection site hit when an append has been spliced into
/// `statuses.txt` but `job.json` does not record it yet.
pub const FAULT_APPEND_SPLICE: &str = "append_splice";

const META_FORMAT: &str = "diffnet-job";
const META_VERSION: u64 = 1;

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker (also the rewind target of a cascade append).
    Queued,
    /// A worker owns it. Found on disk at startup ⇒ the process died
    /// mid-job; the rescan re-enqueues it and the checkpoint resumes it.
    Running,
    /// Every node searched; outputs written.
    Done,
    /// The run itself errored (bad input, I/O failure); no outputs.
    Failed,
    /// Finished, but some nodes failed their search — the edge list
    /// covers the rest (mirrors the CLI's dedicated exit code).
    Partial,
}

impl JobState {
    /// Stable string form used on disk and over the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Partial => "partial",
        }
    }

    /// Parses the on-disk form.
    pub fn from_wire(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "partial" => JobState::Partial,
            _ => return None,
        })
    }

    /// True for `done`, `failed`, and `partial`.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Partial)
    }
}

/// Parses a byte-size value with an optional `K`/`M`/`G` suffix
/// (powers of 1024): `"512M"` → 512 MiB, `"65536"` → 65536 bytes.
/// Returns `None` on malformed input or overflow.
pub fn parse_size(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    let (digits, mult) = match raw.as_bytes().last()? {
        b'k' | b'K' => (&raw[..raw.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&raw[..raw.len() - 1], 1u64 << 20),
        b'g' | b'G' => (&raw[..raw.len() - 1], 1u64 << 30),
        _ => (raw, 1u64),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// What the client asked for at submission time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// One of [`ALGORITHMS`].
    pub algorithm: String,
    /// Worker threads for the parent search (tends only; `0` = all cores).
    pub threads: usize,
    /// Checkpoint flush interval in completed nodes (tends only).
    pub checkpoint_interval: usize,
    /// Edge budget `m` — required by the baselines, ignored by tends.
    pub edges_budget: Option<usize>,
    /// Byte budget for the streamed IMI pipeline (tends only). Setting it
    /// switches the job onto the out-of-core sparse-candidate path.
    pub memory_budget: Option<u64>,
    /// This job's shard of a node-range-sharded reconstruction (tends
    /// only; requires `shard_count`). Shard jobs search only their node
    /// range; the client unions the per-shard edge lists.
    pub shard_index: Option<usize>,
    /// Total shards of the sharded reconstruction (tends only).
    pub shard_count: Option<usize>,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            algorithm: "tends".to_string(),
            threads: 1,
            checkpoint_interval: 8,
            edges_budget: None,
            memory_budget: None,
            shard_index: None,
            shard_count: None,
        }
    }
}

impl JobSpec {
    /// Validates algorithm/budget consistency; the message is surfaced to
    /// the client as a `422`.
    pub fn validate(&self) -> Result<(), String> {
        if !ALGORITHMS.contains(&self.algorithm.as_str()) {
            return Err(format!(
                "unknown algorithm {:?} (expected one of {ALGORITHMS:?})",
                self.algorithm
            ));
        }
        if self.algorithm != "tends" && self.edges_budget.is_none() {
            return Err(format!(
                "algorithm {:?} needs \"edges\" (the budget m)",
                self.algorithm
            ));
        }
        if self.algorithm != "tends" && (self.memory_budget.is_some() || self.shard_count.is_some())
        {
            return Err(format!(
                "algorithm {:?} does not support the streamed pipeline \
                 (memory-budget / shard-index / shard-count are tends-only)",
                self.algorithm
            ));
        }
        if self.shard_index.is_some() != self.shard_count.is_some() {
            return Err("shard-index and shard-count must be given together".to_string());
        }
        if let (Some(i), Some(c)) = (self.shard_index, self.shard_count) {
            if c == 0 || i >= c {
                return Err(format!("shard-index {i} out of range for shard-count {c}"));
            }
        }
        Ok(())
    }

    /// Whether the job runs the out-of-core streamed IMI pipeline.
    pub fn is_streamed(&self) -> bool {
        self.memory_budget.is_some() || self.shard_count.is_some()
    }

    /// Whether the job consumes a status matrix (vs an observation set).
    pub fn takes_statuses(&self) -> bool {
        self.algorithm == "tends"
    }
}

/// The persisted per-job record (`job.json`).
#[derive(Clone, Debug, PartialEq)]
pub struct JobMeta {
    /// Server-assigned id, dense from 1.
    pub id: u64,
    /// The submission parameters.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Bumped by every cascade append; lets clients tell a re-estimation
    /// apart from the original run.
    pub revision: u64,
    /// Processes (cascades) in the current input.
    pub processes: usize,
    /// Nodes in the current input.
    pub nodes: usize,
    /// Nodes whose search failed on the last completed run.
    pub failed_nodes: Vec<u64>,
    /// Human-readable failure, when `state` is `failed`.
    pub error: Option<String>,
    /// Sequence number of the last `pending-append-N.txt` folded into the
    /// input (0: none). A batch file numbered at or below it outlived the
    /// apply that recorded it and is deleted, not applied again.
    pub last_applied_append: u64,
}

impl JobMeta {
    fn new(id: u64, spec: JobSpec, processes: usize, nodes: usize) -> JobMeta {
        JobMeta {
            id,
            spec,
            state: JobState::Queued,
            revision: 1,
            processes,
            nodes,
            failed_nodes: Vec::new(),
            error: None,
            last_applied_append: 0,
        }
    }

    /// Serializes to the `job.json` tree.
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.push("format", META_FORMAT);
        root.push("version", META_VERSION);
        root.push("id", self.id);
        root.push("algorithm", self.spec.algorithm.as_str());
        root.push("threads", self.spec.threads);
        root.push("checkpoint_interval", self.spec.checkpoint_interval);
        if let Some(m) = self.spec.edges_budget {
            root.push("edges_budget", m);
        }
        if let Some(b) = self.spec.memory_budget {
            root.push("memory_budget", b);
        }
        if let Some(i) = self.spec.shard_index {
            root.push("shard_index", i);
        }
        if let Some(c) = self.spec.shard_count {
            root.push("shard_count", c);
        }
        root.push("state", self.state.as_str());
        root.push("revision", self.revision);
        root.push("processes", self.processes);
        root.push("nodes", self.nodes);
        root.push("failed_nodes", self.failed_nodes.as_slice());
        if let Some(e) = &self.error {
            root.push("error", e.as_str());
        }
        if self.last_applied_append > 0 {
            root.push("last_applied_append", self.last_applied_append);
        }
        root
    }

    /// Parses a `job.json` tree, rejecting wrong formats and versions.
    pub fn from_json(root: &Json) -> Result<JobMeta, String> {
        let format = root.get("format").and_then(Json::as_str).unwrap_or("");
        if format != META_FORMAT {
            return Err(format!("not a {META_FORMAT} file (format {format:?})"));
        }
        let version = num(root, "version")?;
        if version != META_VERSION {
            return Err(format!("unsupported {META_FORMAT} version {version}"));
        }
        let state_raw = root
            .get("state")
            .and_then(Json::as_str)
            .ok_or("missing string field \"state\"")?;
        let state = JobState::from_wire(state_raw)
            .ok_or_else(|| format!("unknown job state {state_raw:?}"))?;
        let failed_nodes = root
            .get("failed_nodes")
            .and_then(Json::as_arr)
            .ok_or("missing array field \"failed_nodes\"")?
            .iter()
            .map(|v| {
                v.as_f64()
                    .map(|f| f as u64)
                    .ok_or_else(|| "non-numeric entry in \"failed_nodes\"".to_string())
            })
            .collect::<Result<Vec<u64>, String>>()?;
        Ok(JobMeta {
            id: num(root, "id")?,
            spec: JobSpec {
                algorithm: root
                    .get("algorithm")
                    .and_then(Json::as_str)
                    .ok_or("missing string field \"algorithm\"")?
                    .to_string(),
                threads: num(root, "threads")? as usize,
                checkpoint_interval: num(root, "checkpoint_interval")? as usize,
                edges_budget: root
                    .get("edges_budget")
                    .and_then(Json::as_f64)
                    .map(|f| f as usize),
                memory_budget: root
                    .get("memory_budget")
                    .and_then(Json::as_f64)
                    .map(|f| f as u64),
                shard_index: root
                    .get("shard_index")
                    .and_then(Json::as_f64)
                    .map(|f| f as usize),
                shard_count: root
                    .get("shard_count")
                    .and_then(Json::as_f64)
                    .map(|f| f as usize),
            },
            state,
            revision: num(root, "revision")?,
            processes: num(root, "processes")? as usize,
            nodes: num(root, "nodes")? as usize,
            failed_nodes,
            error: root.get("error").and_then(Json::as_str).map(String::from),
            last_applied_append: root
                .get("last_applied_append")
                .and_then(Json::as_f64)
                .map_or(0, |f| f as u64),
        })
    }
}

fn num(root: &Json, key: &str) -> Result<u64, String> {
    root.get(key)
        .and_then(Json::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// An API-facing job error: an HTTP status plus a message for the
/// `{"error": ...}` envelope.
#[derive(Debug)]
pub struct JobError {
    /// The HTTP status this error maps onto.
    pub status: u16,
    /// Human-readable description.
    pub message: String,
}

impl JobError {
    fn new(status: u16, message: impl Into<String>) -> JobError {
        JobError {
            status,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for JobError {}

struct Entry {
    meta: JobMeta,
    /// Live recorder while a worker runs the job, for progress queries.
    live: Option<Arc<Recorder>>,
}

struct ManagerState {
    jobs: BTreeMap<u64, Entry>,
    queue: VecDeque<u64>,
    next_id: u64,
}

/// The queue + worker pool + on-disk store, shared across handler threads.
pub struct JobManager {
    root: PathBuf,
    fault: Arc<FaultPlan>,
    shutdown: Arc<AtomicBool>,
    rec: Arc<Recorder>,
    state: Mutex<ManagerState>,
    available: Condvar,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Cap on jobs waiting in the queue; a submit beyond it is `503`
    /// (the explicit backpressure signal, distinct from the per-request
    /// worker queue). `usize::MAX` (the default) means unbounded.
    max_queued: AtomicUsize,
}

impl JobManager {
    /// Opens (or creates) the data dir, rescans persisted jobs, re-enqueues
    /// the unfinished ones, and starts `job_workers` worker threads.
    ///
    /// `shutdown` is the server-wide flag: once set, workers finish their
    /// cancellation-checkpointed node, persist, and exit. `rec` is the
    /// server recorder feeding `/v1/metrics`.
    pub fn new(
        data_dir: &Path,
        job_workers: usize,
        shutdown: Arc<AtomicBool>,
        rec: Arc<Recorder>,
        fault: Arc<FaultPlan>,
    ) -> io::Result<Arc<JobManager>> {
        fs::create_dir_all(data_dir)?;
        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut next_id = 1u64;
        for entry in fs::read_dir(data_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("job-"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            let meta_path = entry.path().join("job.json");
            let text = fs::read_to_string(&meta_path)
                .map_err(|e| io::Error::other(format!("cannot read {meta_path:?}: {e}")))?;
            let json = parse_json(&text)
                .map_err(|e| io::Error::other(format!("corrupt {meta_path:?}: {e}")))?;
            let meta = JobMeta::from_json(&json)
                .map_err(|e| io::Error::other(format!("corrupt {meta_path:?}: {e}")))?;
            if meta.id != id {
                return Err(io::Error::other(format!(
                    "job dir {name:?} holds job id {}",
                    meta.id
                )));
            }
            next_id = next_id.max(id + 1);
            match meta.state {
                JobState::Queued => queue.push_back(id),
                JobState::Running => {
                    // The previous process died (or shut down) mid-job:
                    // the checkpoint carries the finished nodes, so this
                    // re-run resumes instead of restarting.
                    rec.add("jobs_resumed", 1);
                    queue.push_back(id);
                }
                _ => {}
            }
            jobs.insert(id, Entry { meta, live: None });
        }

        let manager = Arc::new(JobManager {
            root: data_dir.to_path_buf(),
            fault,
            shutdown,
            rec,
            state: Mutex::new(ManagerState {
                jobs,
                queue,
                next_id,
            }),
            available: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            max_queued: AtomicUsize::new(usize::MAX),
        });
        // Appends buffered by a previous process (or spliced in by one that
        // died before recording them): terminal jobs fold them in now;
        // queued/running jobs fold them in when they next finish.
        let stranded: Vec<u64> = {
            let st = manager.state.lock().expect("state lock");
            st.jobs
                .iter()
                .filter(|(id, e)| {
                    e.meta.state.is_terminal() && !pending_paths(&manager.job_dir(**id)).is_empty()
                })
                .map(|(&id, _)| id)
                .collect()
        };
        for id in stranded {
            let mut st = manager.state.lock().expect("state lock");
            // Failure leaves the batch buffered for a later transition.
            let _ = manager.apply_pending_locked(&mut st, id);
        }
        let mut handles = Vec::new();
        for i in 0..job_workers.max(1) {
            let m = Arc::clone(&manager);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("diffnet-job-{i}"))
                    .spawn(move || m.worker_loop())?,
            );
        }
        *manager.workers.lock().expect("workers lock") = handles;
        Ok(manager)
    }

    /// The directory holding job `id`'s files.
    pub fn job_dir(&self, id: u64) -> PathBuf {
        self.root.join(format!("job-{id}"))
    }

    fn input_path(&self, meta: &JobMeta) -> PathBuf {
        let name = if meta.spec.takes_statuses() {
            "statuses.txt"
        } else {
            "observations.txt"
        };
        self.job_dir(meta.id).join(name)
    }

    /// Persists `meta` atomically and hits the `job_flush` fault site —
    /// the injection point for crash tests around state transitions.
    fn save_meta(&self, meta: &JobMeta) -> io::Result<()> {
        let dir = self.job_dir(meta.id);
        fs::create_dir_all(&dir)?;
        let json = meta.to_json();
        save_atomic(dir.join("job.json"), |w| {
            w.write_all(json.to_pretty().as_bytes())
        })?;
        self.fault.hit(FAULT_JOB_FLUSH)?;
        Ok(())
    }

    /// Caps the number of queued (not-yet-running) jobs; submits beyond
    /// the cap are rejected with a `503` so clients back off instead of
    /// growing the queue without bound.
    pub fn set_max_queued(&self, cap: usize) {
        self.max_queued.store(cap.max(1), Ordering::Relaxed);
    }

    /// Accepts a new job: validates the spec, parses the uploaded input
    /// (status matrix or observation set), persists everything, enqueues.
    pub fn submit(&self, spec: JobSpec, body: &[u8]) -> Result<JobMeta, JobError> {
        spec.validate().map_err(|e| JobError::new(422, e))?;
        // Queue-full check up front, before the body is parsed or
        // anything is persisted: shedding should be cheap.
        {
            let st = self.state.lock().expect("state lock");
            let cap = self.max_queued.load(Ordering::Relaxed);
            if st.queue.len() >= cap {
                self.rec.add("jobs_rejected_queue_full", 1);
                return Err(JobError::new(
                    503,
                    format!("job queue full ({} jobs queued, cap {cap})", st.queue.len()),
                ));
            }
        }
        let (processes, nodes) = if spec.takes_statuses() {
            let cols = read_status_columns(body)
                .map_err(|e| JobError::new(422, format!("bad status matrix: {e}")))?;
            if cols.num_processes() == 0 || cols.num_nodes() == 0 {
                return Err(JobError::new(422, "status matrix is empty"));
            }
            // The dense pipeline's limit is known from the upload alone, so
            // an over-limit job is refused here rather than queued to fail.
            if !spec.is_streamed() && cols.num_nodes() > MAX_DENSE_NODES {
                return Err(JobError::new(
                    422,
                    format!(
                        "{} nodes exceed the dense pipeline's limit of {MAX_DENSE_NODES}; \
                         set memory_budget (the memory-budget query parameter) to run \
                         the streamed pipeline",
                        cols.num_nodes()
                    ),
                ));
            }
            (cols.num_processes(), cols.num_nodes())
        } else {
            let obs = read_observations(body)
                .map_err(|e| JobError::new(422, format!("bad observations: {e}")))?;
            if obs.num_processes() == 0 || obs.num_nodes() == 0 {
                return Err(JobError::new(422, "observation set is empty"));
            }
            (obs.num_processes(), obs.num_nodes())
        };

        let mut st = self.state.lock().expect("state lock");
        let id = st.next_id;
        st.next_id += 1;
        let meta = JobMeta::new(id, spec, processes, nodes);
        let dir = self.job_dir(id);
        fs::create_dir_all(&dir)
            .map_err(|e| JobError::new(500, format!("cannot create job dir: {e}")))?;
        save_atomic(self.input_path(&meta), |w| w.write_all(body))
            .map_err(|e| JobError::new(500, format!("cannot store job input: {e}")))?;
        self.save_meta(&meta)
            .map_err(|e| JobError::new(500, format!("cannot persist job: {e}")))?;
        st.jobs.insert(
            id,
            Entry {
                meta: meta.clone(),
                live: None,
            },
        );
        st.queue.push_back(id);
        self.rec.add("jobs_submitted", 1);
        drop(st);
        self.available.notify_one();
        Ok(meta)
    }

    /// Appends cascades (extra status rows) to a tends job.
    ///
    /// The validated upload is stored verbatim as `pending-append-N.txt`.
    /// On a terminal job it is applied immediately: its rows are spliced
    /// onto `statuses.txt`, the appended-only rows land in `append.txt`,
    /// the checkpoint is *kept* (it carries the pair-count sufficient
    /// statistics the warm re-run folds onto), `revision` is bumped, and
    /// the job re-queues for incremental re-estimation.
    ///
    /// While the job is queued or running the batch stays buffered
    /// instead of returning `409`; every buffered batch is folded in —
    /// with a single revision bump — at the next terminal transition.
    /// Returns the job meta plus whether the append was buffered.
    pub fn append_cascades(&self, id: u64, body: &[u8]) -> Result<(JobMeta, bool), JobError> {
        let appended = read_status_columns(body)
            .map_err(|e| JobError::new(422, format!("bad status matrix: {e}")))?;
        if appended.num_processes() == 0 {
            return Err(JobError::new(422, "no cascades in upload"));
        }

        let mut st = self.state.lock().expect("state lock");
        let entry = st
            .jobs
            .get_mut(&id)
            .ok_or_else(|| JobError::new(404, format!("no job {id}")))?;
        if !entry.meta.spec.takes_statuses() {
            return Err(JobError::new(
                409,
                format!(
                    "job {id} runs {:?}, which takes observations; cascade append only \
                     applies to status-matrix jobs",
                    entry.meta.spec.algorithm
                ),
            ));
        }
        if entry.meta.spec.is_streamed() {
            return Err(JobError::new(
                422,
                format!(
                    "job {id} runs the streamed pipeline (memory-budget / shards), which \
                     does not retain the dense sufficient statistics incremental append \
                     needs; submit the combined matrix as a new job instead"
                ),
            ));
        }
        if appended.num_nodes() != entry.meta.nodes {
            return Err(JobError::new(
                422,
                format!(
                    "appended cascades cover {} nodes but the job has {}",
                    appended.num_nodes(),
                    entry.meta.nodes
                ),
            ));
        }

        // Persist the batch before acknowledging: buffered appends must
        // survive a process restart just like every other transition.
        let dir = self.job_dir(id);
        let seq = next_pending_seq(&dir, entry.meta.last_applied_append);
        save_atomic(dir.join(pending_name(seq)), |w| w.write_all(body))
            .map_err(|e| JobError::new(500, format!("cannot store appended cascades: {e}")))?;
        self.rec
            .add("cascades_appended", appended.num_processes() as u64);
        if !entry.meta.state.is_terminal() {
            self.rec.add("appends_buffered", 1);
            return Ok((entry.meta.clone(), true));
        }
        let meta = self.apply_pending_locked(&mut st, id)?;
        drop(st);
        self.available.notify_one();
        Ok((meta, false))
    }

    /// Folds every buffered append batch into the job input, bumps the
    /// revision once, and re-queues. The caller holds the state lock and
    /// has checked the job is terminal. The checkpoint file survives —
    /// it is the warm state [`run_tends`](Self::run_tends) resumes from.
    ///
    /// Only the batches are parsed (for their row counts). The history in
    /// `statuses.txt` is spliced as bytes — a fresh header, its rows, the
    /// batches' rows — so the cost of an append follows the batch size,
    /// not the depth of the history.
    ///
    /// Idempotent across a crash at any point, and across a failure that
    /// leaves the daemon running. `job.json` is the commit point: the
    /// batches are spliced into `append.txt` and `statuses.txt`, then
    /// `job.json` records the new shape and the last batch's sequence
    /// number, and only then are the batch files deleted. So a batch file
    /// numbered at or below `last_applied_append` is a leftover and is
    /// only deleted. A `statuses.txt` header declaring more processes
    /// than the meta means an earlier apply stopped before its record.
    /// Its batches are all still on disk, and since later batches get
    /// later numbers they are the leading batches whose row counts add up
    /// to the excess. They are not spliced again; the batches after them
    /// are.
    fn apply_pending_locked(&self, st: &mut ManagerState, id: u64) -> Result<JobMeta, JobError> {
        let dir = self.job_dir(id);
        let entry = st
            .jobs
            .get_mut(&id)
            .ok_or_else(|| JobError::new(404, format!("no job {id}")))?;
        let mut pending = Vec::new();
        for path in pending_paths(&dir) {
            match pending_seq(&path) {
                Some(seq) if seq <= entry.meta.last_applied_append => {
                    let _ = fs::remove_file(path);
                }
                Some(seq) => pending.push((seq, path)),
                None => {}
            }
        }
        let Some(&(last_seq, _)) = pending.last() else {
            return Ok(entry.meta.clone());
        };
        let paths: Vec<PathBuf> = pending.into_iter().map(|(_, path)| path).collect();
        let mut rows = Vec::with_capacity(paths.len());
        for path in &paths {
            let cols = load_status_columns(path)
                .map_err(|e| JobError::new(500, format!("cannot reload pending append: {e}")))?;
            rows.push(cols.num_processes());
        }
        let input = dir.join("statuses.txt");
        let declared = read_status_header(&input)
            .map_err(|e| JobError::new(500, format!("cannot read job input: {e}")))?
            .map_or(entry.meta.processes, |(processes, _)| processes);
        let spliced = spliced_batches(&rows, declared.saturating_sub(entry.meta.processes))
            .ok_or_else(|| {
                JobError::new(
                    500,
                    format!(
                        "job {id}: statuses.txt declares {declared} processes, which no run \
                         of pending batches accounts for"
                    ),
                )
            })?;
        let batch: usize = rows.iter().sum();
        let nodes = entry.meta.nodes;
        let processes = entry.meta.processes + batch;
        // `append.txt` is the warm path's delta input: exactly the rows
        // not yet folded into the checkpoint's sufficient statistics.
        splice_status_files(&dir.join("append.txt"), batch, nodes, &paths)
            .map_err(|e| JobError::new(500, format!("cannot store appended cascades: {e}")))?;
        if spliced < paths.len() {
            let sources: Vec<PathBuf> = std::iter::once(input.clone())
                .chain(paths[spliced..].iter().cloned())
                .collect();
            splice_status_files(&input, processes, nodes, &sources)
                .map_err(|e| JobError::new(500, format!("cannot store combined input: {e}")))?;
        }
        self.fault
            .hit(FAULT_APPEND_SPLICE)
            .map_err(|e| JobError::new(500, format!("cannot persist job: {e}")))?;

        let mut meta = entry.meta.clone();
        meta.processes = processes;
        meta.revision += 1;
        meta.state = JobState::Queued;
        meta.failed_nodes.clear();
        meta.error = None;
        meta.last_applied_append = last_seq;
        self.save_meta(&meta)
            .map_err(|e| JobError::new(500, format!("cannot persist job: {e}")))?;
        entry.meta = meta.clone();
        for stale in ["edges.txt", "report.json"] {
            let _ = fs::remove_file(dir.join(stale));
        }
        for path in paths {
            let _ = fs::remove_file(path);
        }
        st.queue.push_back(id);
        Ok(meta)
    }

    /// The job's current meta plus, while running, its live recorder.
    /// Only the `Arc` is cloned under the state lock; callers read the
    /// recorder after the lock is released.
    fn live(&self, id: u64) -> Option<(JobMeta, Option<Arc<Recorder>>)> {
        let st = self.state.lock().expect("state lock");
        let entry = st.jobs.get(&id)?;
        Some((entry.meta.clone(), entry.live.clone()))
    }

    /// The job's current meta plus, while running, its progress so far:
    /// everything [`status_json`] shows, without copying the job's spans.
    pub fn status(&self, id: u64) -> Option<(JobMeta, Option<Progress>)> {
        let (meta, live) = self.live(id)?;
        Some((meta, live.map(|rec| rec.progress())))
    }

    /// The job's current meta plus, while running, a full live snapshot
    /// of its recorder (spans included) — what the trace endpoint renders.
    pub fn snapshot(&self, id: u64) -> Option<(JobMeta, Option<Snapshot>)> {
        let (meta, live) = self.live(id)?;
        Some((meta, live.map(|rec| rec.snapshot())))
    }

    /// Registers a job that is running with `rec` as its live recorder,
    /// without queueing it, so no worker picks it up: progress and trace
    /// queries see it mid-run for as long as the test needs.
    #[cfg(test)]
    pub(crate) fn insert_running(&self, rec: Arc<Recorder>) -> u64 {
        let mut st = self.state.lock().expect("state lock");
        let id = st.next_id;
        st.next_id += 1;
        let mut meta = JobMeta::new(id, JobSpec::default(), 40, 8);
        meta.state = JobState::Running;
        let live = Some(rec);
        st.jobs.insert(id, Entry { meta, live });
        id
    }

    /// All jobs, in id order.
    pub fn list(&self) -> Vec<JobMeta> {
        let st = self.state.lock().expect("state lock");
        st.jobs.values().map(|e| e.meta.clone()).collect()
    }

    /// Reads a finished job's output file (`edges.txt` or `report.json`).
    pub fn read_output(&self, id: u64, file: &str) -> Result<Vec<u8>, JobError> {
        let meta = self
            .live(id)
            .ok_or_else(|| JobError::new(404, format!("no job {id}")))?
            .0;
        match meta.state {
            JobState::Done | JobState::Partial => {}
            other => {
                return Err(JobError::new(
                    409,
                    format!(
                        "job {id} is {}; outputs exist once it finishes",
                        other.as_str()
                    ),
                ))
            }
        }
        fs::read(self.job_dir(id).join(file))
            .map_err(|e| JobError::new(500, format!("cannot read job output {file:?}: {e}")))
    }

    /// Signals the workers, wakes them, and joins them. In-flight tends
    /// jobs observe the flag through [`RobustOptions::cancel`], flush
    /// their checkpoint, and stay `running` on disk so the next process
    /// resumes them.
    pub fn shutdown_and_join(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for h in handles {
            let _ = h.join();
        }
    }

    fn worker_loop(&self) {
        loop {
            let id = {
                let mut st = self.state.lock().expect("state lock");
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(id) = st.queue.pop_front() {
                        break id;
                    }
                    st = self
                        .available
                        .wait_timeout(st, Duration::from_millis(200))
                        .expect("state lock")
                        .0;
                }
            };
            self.run_one(id);
        }
    }

    /// Claims job `id`, runs it, and persists the outcome.
    fn run_one(&self, id: u64) {
        let rec = Arc::new(Recorder::new());
        let meta = {
            let mut st = self.state.lock().expect("state lock");
            let Some(entry) = st.jobs.get_mut(&id) else {
                return;
            };
            entry.meta.state = JobState::Running;
            entry.meta.error = None;
            entry.live = Some(Arc::clone(&rec));
            entry.meta.clone()
        };
        if self.save_meta(&meta).is_err() {
            // Cannot record the claim; leave the job queued on disk and
            // give up this attempt rather than running unrecorded.
            let mut st = self.state.lock().expect("state lock");
            if let Some(entry) = st.jobs.get_mut(&id) {
                entry.meta.state = JobState::Queued;
                entry.live = None;
            }
            self.rec.add("jobs_failed", 1);
            return;
        }

        let outcome = if meta.spec.takes_statuses() {
            self.run_tends(&meta, &rec)
        } else {
            self.run_baseline(&meta, &rec)
        };

        let mut st = self.state.lock().expect("state lock");
        let Some(entry) = st.jobs.get_mut(&id) else {
            return;
        };
        entry.live = None;
        match outcome {
            Outcome::Interrupted => {
                // Leave `running` on disk: the startup rescan resumes it.
                self.rec.add("jobs_interrupted", 1);
                entry.meta.state = JobState::Running;
            }
            Outcome::Finished {
                state,
                failed_nodes,
                error,
            } => {
                entry.meta.state = state;
                entry.meta.failed_nodes = failed_nodes;
                entry.meta.error = error;
                let counter = match state {
                    JobState::Done => "jobs_completed",
                    JobState::Partial => "jobs_partial",
                    _ => "jobs_failed",
                };
                self.rec.add(counter, 1);
                let meta = entry.meta.clone();
                drop(st);
                let _ = self.save_meta(&meta);
                // Cascades appended mid-run were buffered; fold them in
                // (one revision bump for the whole batch) and re-queue —
                // unless, while the lock was released, an append already
                // re-queued the job (then the batches wait for its run).
                let mut st = self.state.lock().expect("state lock");
                let terminal = st.jobs.get(&id).is_some_and(|e| e.meta.state.is_terminal());
                if terminal
                    && !pending_paths(&self.job_dir(id)).is_empty()
                    && self.apply_pending_locked(&mut st, id).is_ok()
                {
                    drop(st);
                    self.available.notify_one();
                }
            }
        }
    }

    fn run_tends(&self, meta: &JobMeta, rec: &Recorder) -> Outcome {
        let dir = self.job_dir(meta.id);
        // Window-scoped resource profile for the job; attached to the
        // report's runtime section. Early returns drop the profiler,
        // which just joins its sampler thread.
        let profiler = ResourceProfiler::start(DEFAULT_SAMPLE_INTERVAL);
        let checkpoint = dir.join("checkpoint.json");
        // Mirror the CLI's `infer` path exactly — same loader, same
        // phases, same config defaults — so the report's deterministic
        // section is byte-identical to an offline `diffnet infer` run.
        // The statuses are mmap'ed straight into the column bitsets; the
        // row-major matrix never exists.
        let cols = {
            let _p = rec.phase("load_statuses");
            match load_status_columns(dir.join("statuses.txt")) {
                Ok(c) => c,
                Err(e) => return Outcome::failed(format!("cannot load statuses: {e}")),
            }
        };
        // A memory budget or shard switches to the out-of-core streamed
        // pipeline, which never materializes the dense correlation matrix.
        let shard = match (meta.spec.shard_index, meta.spec.shard_count) {
            (Some(i), Some(c)) => Some(shard_of(cols.num_nodes(), c, i)),
            _ => None,
        };
        let tends = Tends::with_config(TendsConfig {
            threads: meta.spec.threads,
            memory_budget: meta.spec.memory_budget,
            shard,
            ..TendsConfig::default()
        });
        // Warm path: fold only the appended rows into the checkpointed
        // sufficient statistics, then search every node over the combined
        // columns. Only dense jobs have appended rows: appends to streamed
        // jobs are refused when they are posted.
        let append_input = dir.join("append.txt");
        let appended = if append_input.exists() && checkpoint.exists() {
            match load_status_columns(&append_input) {
                Ok(a) => Some(a),
                Err(e) => return Outcome::failed(format!("cannot load appended rows: {e}")),
            }
        } else {
            let _ = fs::remove_file(&append_input);
            None
        };
        let options = RobustOptions {
            checkpoint: Some(checkpoint.clone()),
            resume: true,
            checkpoint_interval: meta.spec.checkpoint_interval,
            fault: self.fault.as_ref(),
            cancel: Some(&self.shutdown),
            // JobMeta revisions are 1-based (fresh submission = 1); the
            // tends sufficient-statistics revision is 0-based.
            revision: meta.revision.saturating_sub(1),
            appended: appended.as_ref(),
        };
        let run = match tends.reconstruct_robust(&cols, rec, &options) {
            // The warm result is byte-identical to a fresh run over the
            // combined matrix, so a failure to warm-start (foreign, stale,
            // or corrupt checkpoint) just drops the checkpoint and falls
            // back to the full re-run.
            Err(e) if appended.is_some() => {
                self.rec.add("append_cold_fallbacks", 1);
                rec.add("append_cold_fallbacks", 1);
                eprintln!(
                    "job {}: warm append failed ({e}); re-running from scratch",
                    meta.id
                );
                let _ = fs::remove_file(&checkpoint);
                let _ = fs::remove_file(&append_input);
                let cold = RobustOptions {
                    appended: None,
                    ..options
                };
                tends.reconstruct_robust(&cols, rec, &cold)
            }
            run => {
                if run.is_ok() {
                    let _ = fs::remove_file(&append_input);
                }
                run
            }
        };
        let partial = match run {
            Ok(p) => p,
            Err(e) => return Outcome::failed(e.to_string()),
        };
        if partial
            .errors
            .iter()
            .any(|(_, e)| matches!(e, NodeError::Cancelled))
        {
            return Outcome::Interrupted;
        }
        let failed_nodes: Vec<u64> = partial.failed_nodes.iter().map(|&v| u64::from(v)).collect();
        let mut report = RunReport::new(
            meta.spec.algorithm.as_str(),
            rec.snapshot(),
            meta.spec.threads.max(1),
        );
        report.failed_nodes = failed_nodes.clone();
        // Same recording rule as the CLI: the override (daemon-wide, set at
        // startup) is deterministic config, the resolved tier is runtime.
        let requested = diffnet_simulate::simd::requested_mode();
        if requested != diffnet_simulate::SimdMode::Auto {
            report.simd = Some(requested.to_string());
        }
        report.simd_dispatch = Some(diffnet_simulate::simd::kernels().dispatch().to_string());
        report.checkpoint = Some(CheckpointInfo {
            path: checkpoint.display().to_string(),
            resumed_nodes: partial.resumed_nodes,
            flushes: partial.checkpoint_flushes,
            delta_records: partial.delta_records,
        });
        report.resources = Some(profiler.stop());
        let state = if failed_nodes.is_empty() {
            JobState::Done
        } else {
            JobState::Partial
        };
        self.write_outputs(meta, state, &partial.result.graph, &report, &failed_nodes)
    }

    fn run_baseline(&self, meta: &JobMeta, rec: &Recorder) -> Outcome {
        let dir = self.job_dir(meta.id);
        let profiler = ResourceProfiler::start(DEFAULT_SAMPLE_INTERVAL);
        let obs = match diffnet_simulate::io::load_observations(dir.join("observations.txt")) {
            Ok(o) => o,
            Err(e) => return Outcome::failed(format!("cannot load observations: {e}")),
        };
        let m = meta.spec.edges_budget.unwrap_or(0);
        let graph: DiGraph = match meta.spec.algorithm.as_str() {
            "netrate" => NetRate::new().infer_observed(&obs, rec).top_m(m),
            "multree" => MulTree::new().infer(&obs, m),
            "lift" => Lift::new().infer(&obs, m),
            "netinf" => NetInf::new().infer(&obs, m),
            "path" => PathReconstruction::new().infer(&obs, m),
            other => return Outcome::failed(format!("unknown algorithm {other:?}")),
        };
        let mut report = RunReport::new(meta.spec.algorithm.as_str(), rec.snapshot(), 1);
        report.resources = Some(profiler.stop());
        self.write_outputs(meta, JobState::Done, &graph, &report, &[])
    }

    fn write_outputs(
        &self,
        meta: &JobMeta,
        state: JobState,
        graph: &DiGraph,
        report: &RunReport,
        failed_nodes: &[u64],
    ) -> Outcome {
        let dir = self.job_dir(meta.id);
        if let Err(e) = save_edge_list(graph, dir.join("edges.txt")) {
            return Outcome::failed(format!("cannot write edges: {e}"));
        }
        let json = job_report_json(report, meta.id, state, meta.revision);
        if let Err(e) = save_atomic(dir.join("report.json"), |w| {
            w.write_all(json.to_pretty().as_bytes())
        }) {
            return Outcome::failed(format!("cannot write report: {e}"));
        }
        Outcome::Finished {
            state,
            failed_nodes: failed_nodes.to_vec(),
            error: None,
        }
    }
}

enum Outcome {
    /// Terminal: persist the state and outputs.
    Finished {
        state: JobState,
        failed_nodes: Vec<u64>,
        error: Option<String>,
    },
    /// Cancelled by shutdown mid-run; leave `running` on disk for resume.
    Interrupted,
}

impl Outcome {
    fn failed(message: String) -> Outcome {
        Outcome::Finished {
            state: JobState::Failed,
            failed_nodes: Vec::new(),
            error: Some(message),
        }
    }
}

/// The job's `report.json`: a normal [`RunReport`] with a `job` record
/// injected into the `runtime` section — the deterministic section stays
/// byte-identical to an offline CLI run on the same input.
pub fn job_report_json(report: &RunReport, id: u64, state: JobState, revision: u64) -> Json {
    let mut root = report.to_json();
    let mut runtime = root.remove("runtime").unwrap_or_else(Json::object);
    let mut job = Json::object();
    job.push("id", id);
    job.push("state", state.as_str());
    job.push("revision", revision);
    runtime.push("job", job);
    root.push("runtime", runtime);
    root
}

fn pending_name(seq: u64) -> String {
    format!("pending-append-{seq:06}.txt")
}

/// Buffered append batches in arrival order (the zero-padded sequence
/// number makes lexicographic order arrival order).
fn pending_paths(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("pending-append-") && name.ends_with(".txt") {
                out.push(entry.path());
            }
        }
    }
    out.sort();
    out
}

fn pending_seq(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("pending-append-")?
        .strip_suffix(".txt")?
        .parse()
        .ok()
}

/// The number for a new batch: above every batch on disk and above the
/// last one applied, so a new batch is never taken for a leftover.
fn next_pending_seq(dir: &Path, last_applied: u64) -> u64 {
    pending_paths(dir)
        .iter()
        .filter_map(|p| pending_seq(p))
        .fold(last_applied, u64::max)
        + 1
}

/// How many leading batches, with these row counts, hold exactly
/// `spliced_rows` rows; `None` when no prefix does. Every batch has at
/// least one row, so the answer is unique.
fn spliced_batches(batch_rows: &[usize], spliced_rows: usize) -> Option<usize> {
    let mut sum = 0;
    for (k, &rows) in batch_rows.iter().enumerate() {
        if sum == spliced_rows {
            return Some(k);
        }
        sum += rows;
    }
    (sum == spliced_rows).then_some(batch_rows.len())
}

/// Atomically writes `dest` as a status file: a fresh header declaring
/// `processes x nodes`, then the rows of every file in `sources`, in
/// order, copied verbatim by [`copy_status_rows`]. `dest` may itself be
/// one of the sources — it is read before the rename replaces it.
fn splice_status_files(
    dest: &Path,
    processes: usize,
    nodes: usize,
    sources: &[PathBuf],
) -> io::Result<()> {
    save_atomic(dest, |w| {
        write_status_header(&mut *w, processes, nodes)?;
        for src in sources {
            copy_status_rows(fs::File::open(src)?, &mut *w)?;
        }
        Ok(())
    })
}

/// Renders the wire form of a job's status for `GET /v1/jobs/{id}`.
pub fn status_json(meta: &JobMeta, live: Option<&Progress>) -> Json {
    let mut root = Json::object();
    root.push("id", meta.id);
    root.push("algorithm", meta.spec.algorithm.as_str());
    root.push("state", meta.state.as_str());
    root.push("revision", meta.revision);
    root.push("processes", meta.processes);
    root.push("nodes", meta.nodes);
    root.push("threads", meta.spec.threads);
    root.push("failed_nodes", meta.failed_nodes.as_slice());
    if let Some(e) = &meta.error {
        root.push("error", e.as_str());
    }
    if let Some(live) = live {
        let mut progress = Json::object();
        progress.push(
            "phases",
            Json::Arr(live.phases.iter().map(|&name| Json::from(name)).collect()),
        );
        let mut counters = Json::object();
        for (&name, &value) in &live.counters {
            counters.push(name, value);
        }
        progress.push("counters", counters);
        root.push("progress", progress);
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffnet_simulate::StatusMatrix;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "diffnet-serve-job-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    /// A small deterministic status matrix with real correlation
    /// structure (cascades over a ring) so tends finds edges.
    fn sample_statuses(beta: usize, n: usize) -> StatusMatrix {
        let mut rows = Vec::with_capacity(beta);
        let mut state = 0x9e3779b97f4a7c15u64;
        for l in 0..beta {
            let mut row = vec![false; n];
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let start = (state >> 33) as usize % n;
            let len = 1 + (l % (n / 2));
            for k in 0..len {
                row[(start + k) % n] = true;
            }
            rows.push(row);
        }
        StatusMatrix::from_rows(&rows)
    }

    fn statuses_bytes(m: &StatusMatrix) -> Vec<u8> {
        let mut buf = Vec::new();
        diffnet_simulate::io::write_status_matrix(m, &mut buf).expect("serialize");
        buf
    }

    /// `m` as a hand-made upload: CRLF line ends, tab and space
    /// separators, comment lines between rows, no trailing newline.
    fn irregular_bytes(m: &StatusMatrix) -> Vec<u8> {
        let mut out = b"# uploaded by hand\r\n".to_vec();
        for l in 0..m.num_processes() {
            if l % 7 == 3 {
                out.extend_from_slice(b"# a comment between rows\r\n");
            }
            let cells: Vec<&str> = (0..m.num_nodes() as u32)
                .map(|i| if m.get(l, i) { "1" } else { "0" })
                .collect();
            let sep = if l % 2 == 0 { " " } else { "\t" };
            out.extend_from_slice(cells.join(sep).as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.truncate(out.len() - 2);
        out
    }

    /// The processes of `parts`, stacked in order into one matrix.
    fn stack(parts: &[&StatusMatrix]) -> StatusMatrix {
        let rows: Vec<Vec<bool>> = parts
            .iter()
            .flat_map(|m| {
                (0..m.num_processes())
                    .map(move |l| (0..m.num_nodes() as u32).map(|i| m.get(l, i)).collect())
            })
            .collect();
        StatusMatrix::from_rows(&rows)
    }

    fn manager(dir: &Path) -> (Arc<JobManager>, Arc<AtomicBool>) {
        let shutdown = Arc::new(AtomicBool::new(false));
        let m = JobManager::new(
            dir,
            1,
            Arc::clone(&shutdown),
            Arc::new(Recorder::new()),
            Arc::new(FaultPlan::disabled()),
        )
        .expect("manager");
        (m, shutdown)
    }

    #[test]
    fn queue_cap_rejects_submits_with_503() {
        let dir = tmp_dir("queue-cap");
        let (m, shutdown) = manager(&dir);
        // Park the worker so nothing dequeues: the cap then applies to a
        // deterministic queue length.
        shutdown.store(true, Ordering::SeqCst);
        m.shutdown_and_join();
        m.set_max_queued(1);
        let body = statuses_bytes(&sample_statuses(10, 6));
        m.submit(JobSpec::default(), &body).expect("first queued");
        let err = m.submit(JobSpec::default(), &body).expect_err("cap hit");
        assert_eq!(err.status, 503);
        assert!(err.message.contains("queue full"), "{}", err.message);
    }

    fn wait_terminal(m: &JobManager, id: u64) -> JobMeta {
        for _ in 0..600 {
            let (meta, _) = m.status(id).expect("job exists");
            if meta.state.is_terminal() {
                return meta;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("job {id} never reached a terminal state");
    }

    #[test]
    fn meta_round_trips_through_json() {
        let mut meta = JobMeta::new(
            7,
            JobSpec {
                algorithm: "netrate".to_string(),
                threads: 4,
                checkpoint_interval: 3,
                edges_budget: Some(12),
                ..JobSpec::default()
            },
            100,
            20,
        );
        meta.state = JobState::Partial;
        meta.revision = 3;
        meta.failed_nodes = vec![2, 9];
        meta.error = Some("boom".to_string());
        let text = meta.to_json().to_pretty();
        let back = JobMeta::from_json(&parse_json(&text).expect("json")).expect("meta");
        assert_eq!(back, meta);
    }

    #[test]
    fn meta_rejects_foreign_and_corrupt_files() {
        let err = JobMeta::from_json(&Json::object()).unwrap_err();
        assert!(err.contains("not a diffnet-job"), "{err}");
        let mut wrong = JobMeta::new(1, JobSpec::default(), 1, 1).to_json();
        wrong.remove("state");
        assert!(JobMeta::from_json(&wrong).unwrap_err().contains("state"));
    }

    #[test]
    fn submit_runs_to_done_with_outputs() {
        let dir = tmp_dir("submit");
        let (m, _) = manager(&dir);
        let statuses = sample_statuses(40, 8);
        let meta = m
            .submit(JobSpec::default(), &statuses_bytes(&statuses))
            .expect("submit");
        assert_eq!(meta.id, 1);
        assert_eq!(meta.state, JobState::Queued);
        assert_eq!(meta.processes, 40);
        assert_eq!(meta.nodes, 8);

        let done = wait_terminal(&m, 1);
        assert_eq!(done.state, JobState::Done);
        let edges = m.read_output(1, "edges.txt").expect("edges");
        assert!(edges.starts_with(b"# nodes: 8\n"));
        let report = m.read_output(1, "report.json").expect("report");
        let text = std::str::from_utf8(&report).expect("utf8");
        diffnet_observe::validate_report_json(text, &["load_statuses", "parent_search"], &[])
            .expect("valid job report");
        let json = parse_json(text).expect("json");
        let job = json.get("runtime").and_then(|r| r.get("job")).expect("job");
        assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));

        // The job report carries the span tree and the resource profile.
        let runtime = json.get("runtime").expect("runtime");
        let spans = runtime
            .get("trace")
            .and_then(|t| t.get("spans"))
            .and_then(Json::as_arr)
            .expect("runtime.trace.spans");
        assert!(
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some("node_search")),
            "trace must include node_search spans"
        );
        let resources = runtime.get("resources").expect("runtime.resources");
        let peak = resources
            .get("peak_rss_bytes")
            .and_then(Json::as_f64)
            .expect("peak_rss_bytes");
        #[cfg(target_os = "linux")]
        assert!(peak > 0.0, "peak RSS must be positive on Linux");
        let _ = peak;

        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_and_sharded_jobs_match_the_dense_job() {
        let dir = tmp_dir("streamed");
        let (m, _) = manager(&dir);
        let statuses = sample_statuses(60, 10);
        let body = statuses_bytes(&statuses);
        // Job 1: dense oracle. Job 2: streamed under a memory budget.
        m.submit(JobSpec::default(), &body).expect("dense submit");
        m.submit(
            JobSpec {
                memory_budget: Some(8 << 20),
                ..JobSpec::default()
            },
            &body,
        )
        .expect("streamed submit");
        assert_eq!(wait_terminal(&m, 1).state, JobState::Done);
        assert_eq!(wait_terminal(&m, 2).state, JobState::Done);
        let dense_edges = m.read_output(1, "edges.txt").expect("dense edges");
        let streamed_edges = m.read_output(2, "edges.txt").expect("streamed edges");
        assert_eq!(
            dense_edges, streamed_edges,
            "streamed job must be byte-identical to the dense job"
        );

        // Shard the same reconstruction across two jobs (same budget, so
        // both compute the same τ) and union the edges client-side.
        let mut union: Vec<(u32, u32)> = Vec::new();
        for index in 0..2 {
            let meta = m
                .submit(
                    JobSpec {
                        memory_budget: Some(8 << 20),
                        shard_index: Some(index),
                        shard_count: Some(2),
                        ..JobSpec::default()
                    },
                    &body,
                )
                .expect("shard submit");
            assert_eq!(wait_terminal(&m, meta.id).state, JobState::Done);
            let bytes = m.read_output(meta.id, "edges.txt").expect("shard edges");
            let part = diffnet_graph::io::read_edge_list(&bytes[..], None).expect("parse shard");
            assert_eq!(part.node_count(), 10, "shard graphs keep the global n");
            union.extend(part.edges());
        }
        union.sort_unstable();
        union.dedup();
        let dense = diffnet_graph::io::read_edge_list(&dense_edges[..], None).expect("parse dense");
        assert_eq!(
            union,
            dense.edge_vec(),
            "shard union must equal the dense edge set"
        );

        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_jobs_past_the_node_count_end_done_with_no_edges() {
        let dir = tmp_dir("empty_shard");
        let (m, _) = manager(&dir);
        let body = statuses_bytes(&sample_statuses(60, 10));
        // 20 shards of 10 nodes: shard 15 owns no node.
        let meta = m
            .submit(
                JobSpec {
                    shard_index: Some(15),
                    shard_count: Some(20),
                    ..JobSpec::default()
                },
                &body,
            )
            .expect("shard submit");
        assert_eq!(wait_terminal(&m, meta.id).state, JobState::Done);
        let bytes = m.read_output(meta.id, "edges.txt").expect("shard edges");
        assert_eq!(bytes, b"# nodes: 10\n# edges: 0\n", "the global n, no edge");

        // A request-sized shard count is never an allocation size: both
        // jobs finish rather than abort the worker.
        for (index, edges) in [
            (0usize, None),
            (35, Some(&b"# nodes: 10\n# edges: 0\n"[..])),
        ] {
            let meta = m
                .submit(
                    JobSpec {
                        shard_index: Some(index),
                        shard_count: Some(1 << 40),
                        ..JobSpec::default()
                    },
                    &body,
                )
                .expect("huge shard-count submit");
            assert_eq!(
                wait_terminal(&m, meta.id).state,
                JobState::Done,
                "shard {index}"
            );
            if let Some(edges) = edges {
                assert_eq!(m.read_output(meta.id, "edges.txt").expect("edges"), edges);
            }
        }

        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_spec_round_trips_and_validates() {
        let spec = JobSpec {
            memory_budget: Some(512 << 20),
            shard_index: Some(1),
            shard_count: Some(4),
            ..JobSpec::default()
        };
        spec.validate().expect("valid spec");
        let meta = JobMeta::new(3, spec, 10, 5);
        let text = meta.to_json().to_pretty();
        let back = JobMeta::from_json(&parse_json(&text).expect("json")).expect("meta");
        assert_eq!(back, meta);

        for bad in [
            JobSpec {
                shard_index: Some(0),
                ..JobSpec::default()
            },
            JobSpec {
                shard_index: Some(2),
                shard_count: Some(2),
                ..JobSpec::default()
            },
            JobSpec {
                algorithm: "netinf".to_string(),
                edges_budget: Some(4),
                memory_budget: Some(1 << 20),
                ..JobSpec::default()
            },
        ] {
            assert!(bad.validate().is_err(), "spec must be rejected: {bad:?}");
        }

        assert_eq!(parse_size("512M"), Some(512 << 20));
        assert_eq!(parse_size("2g"), Some(2 << 30));
        assert_eq!(parse_size("65536"), Some(65536));
        assert_eq!(parse_size("64K"), Some(64 << 10));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("12Q"), None);
        assert_eq!(parse_size("-5M"), None);
    }

    #[test]
    fn submit_rejects_bad_specs_and_inputs() {
        let dir = tmp_dir("reject");
        let (m, _) = manager(&dir);
        let spec = JobSpec {
            algorithm: "psychic".to_string(),
            ..JobSpec::default()
        };
        assert_eq!(m.submit(spec, b"").unwrap_err().status, 422);
        let spec = JobSpec {
            algorithm: "netinf".to_string(),
            edges_budget: None,
            ..JobSpec::default()
        };
        assert_eq!(m.submit(spec, b"").unwrap_err().status, 422);
        // Truncated status matrix: header promises more rows than follow.
        let bad = b"# diffnet status matrix: 5 processes x 3 nodes\n0 1 0\n";
        let err = m.submit(JobSpec::default(), bad).unwrap_err();
        assert_eq!(err.status, 422);
        assert!(err.message.contains("bad status matrix"), "{}", err.message);
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_cascades_requeues_with_bumped_revision() {
        let dir = tmp_dir("append");
        let (m, _) = manager(&dir);
        let first = sample_statuses(30, 8);
        m.submit(JobSpec::default(), &statuses_bytes(&first))
            .expect("submit");
        wait_terminal(&m, 1);

        let more = sample_statuses(10, 8);
        let (meta, buffered) = m
            .append_cascades(1, &statuses_bytes(&more))
            .expect("append");
        assert!(!buffered, "append to a terminal job applies immediately");
        assert_eq!(meta.revision, 2);
        assert_eq!(meta.processes, 40);
        let done = wait_terminal(&m, 1);
        assert_eq!(done.state, JobState::Done);
        // The warm re-run consumed the appended rows and folded them into
        // the kept checkpoint's statistics.
        assert!(!m.job_dir(1).join("append.txt").exists());
        assert!(m.job_dir(1).join("checkpoint.json").exists());

        // The re-estimated result equals a fresh job over the combined
        // input: incremental append is exact, not approximate.
        let combined = stack(&[&first, &more]);
        let fresh = m
            .submit(JobSpec::default(), &statuses_bytes(&combined))
            .expect("submit combined");
        wait_terminal(&m, fresh.id);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(fresh.id, "edges.txt").expect("edges"),
        );

        // The warm run's report shows the statistics fold ran.
        let report = m.read_output(1, "report.json").expect("report");
        let text = std::str::from_utf8(&report).expect("utf8");
        assert!(text.contains("\"append_processes\""), "{text}");

        // Wrong node count is a typed 422.
        let narrow = sample_statuses(4, 5);
        assert_eq!(
            m.append_cascades(1, &statuses_bytes(&narrow))
                .unwrap_err()
                .status,
            422
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_while_running_buffer_and_apply_as_one_batch() {
        let dir = tmp_dir("buffered");
        let (m, _) = manager(&dir);
        let first = sample_statuses(30, 8);
        m.submit(JobSpec::default(), &statuses_bytes(&first))
            .expect("submit");
        wait_terminal(&m, 1);

        // Simulate a worker owning the job: appends must buffer, not 409.
        {
            let mut st = m.state.lock().expect("state lock");
            st.jobs.get_mut(&1).expect("job").meta.state = JobState::Running;
        }
        let more_a = sample_statuses(6, 8);
        let more_b = sample_statuses(4, 8);
        let (meta, buffered) = m
            .append_cascades(1, &statuses_bytes(&more_a))
            .expect("append A");
        assert!(buffered, "append to a running job is buffered");
        assert_eq!(meta.revision, 1, "revision bumps only when applied");
        let (_, buffered) = m
            .append_cascades(1, &statuses_bytes(&more_b))
            .expect("append B");
        assert!(buffered);
        assert_eq!(pending_paths(&m.job_dir(1)).len(), 2);

        // The "running" job finishes: the terminal transition folds both
        // buffered batches in with one revision bump and re-queues.
        m.run_one(1);
        let done = wait_terminal(&m, 1);
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.revision, 2, "one bump per applied batch");
        assert_eq!(done.processes, 40);
        assert!(pending_paths(&m.job_dir(1)).is_empty());

        // Byte-identical to a fresh run over base + A + B.
        let combined = stack(&[&first, &more_a, &more_b]);
        let fresh = m
            .submit(JobSpec::default(), &statuses_bytes(&combined))
            .expect("submit combined");
        wait_terminal(&m, fresh.id);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(fresh.id, "edges.txt").expect("edges"),
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn irregular_upload_splices_with_direct_and_buffered_appends() {
        let dir = tmp_dir("splice");
        let (m, _) = manager(&dir);
        let first = sample_statuses(30, 8);
        m.submit(JobSpec::default(), &irregular_bytes(&first))
            .expect("submit");
        wait_terminal(&m, 1);

        // One append applied at once to the terminal job ...
        let more_a = sample_statuses(6, 8);
        let (_, buffered) = m
            .append_cascades(1, &irregular_bytes(&more_a))
            .expect("append A");
        assert!(!buffered);
        wait_terminal(&m, 1);
        // ... and one buffered while a worker owns the job.
        {
            let mut st = m.state.lock().expect("state lock");
            st.jobs.get_mut(&1).expect("job").meta.state = JobState::Running;
        }
        let more_b = sample_statuses(4, 8);
        let (_, buffered) = m
            .append_cascades(1, &statuses_bytes(&more_b))
            .expect("append B");
        assert!(buffered);
        m.run_one(1);
        let done = wait_terminal(&m, 1);
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.revision, 3);
        assert_eq!(done.processes, 40);

        // The spliced input: one header with the combined count, then
        // every row of the upload and both batches, in order.
        let combined = stack(&[&first, &more_a, &more_b]);
        let text = fs::read(m.job_dir(1).join("statuses.txt")).expect("statuses");
        let comments: Vec<&[u8]> = text
            .split(|&b| b == b'\n')
            .filter(|line| line.starts_with(b"#"))
            .collect();
        assert_eq!(
            comments,
            [b"# diffnet status matrix: 40 processes x 8 nodes".as_slice()]
        );
        assert_eq!(
            read_status_columns(&text).expect("spliced input parses"),
            combined.columns()
        );

        // Byte-identical to a fresh job over the combined matrix.
        let fresh = m
            .submit(JobSpec::default(), &statuses_bytes(&combined))
            .expect("submit combined");
        wait_terminal(&m, fresh.id);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(fresh.id, "edges.txt").expect("edges"),
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_applies_buffered_appends_to_terminal_jobs() {
        let dir = tmp_dir("stranded");
        let first = sample_statuses(30, 8);
        let more = sample_statuses(8, 8);
        {
            let (m, _) = manager(&dir);
            m.submit(JobSpec::default(), &statuses_bytes(&first))
                .expect("submit");
            wait_terminal(&m, 1);
            // Buffer an append as if the process died mid-run: the
            // in-memory Running state is never persisted, so on disk
            // the job stays `done` with a pending batch beside it.
            {
                let mut st = m.state.lock().expect("state lock");
                st.jobs.get_mut(&1).expect("job").meta.state = JobState::Running;
            }
            let (_, buffered) = m
                .append_cascades(1, &statuses_bytes(&more))
                .expect("append");
            assert!(buffered);
            m.shutdown_and_join();
        }
        // Restart: the rescan folds the stranded batch in and re-runs.
        let (m, _) = manager(&dir);
        let done = wait_terminal(&m, 1);
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.revision, 2);
        assert_eq!(done.processes, 38);
        assert!(pending_paths(&m.job_dir(1)).is_empty());
        let combined = stack(&[&first, &more]);
        let fresh = m
            .submit(JobSpec::default(), &statuses_bytes(&combined))
            .expect("submit combined");
        wait_terminal(&m, fresh.id);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(fresh.id, "edges.txt").expect("edges"),
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_interrupted_after_the_splice_applies_once_on_restart() {
        // The fault stops an apply after `statuses.txt` took the batch but
        // before `job.json` recorded it. Then the daemon either restarts
        // at once, or first takes a second append that applies, or one
        // whose apply stops at the same point. The second rule arms the
        // second hit: a firing rule ends the hit before later rules count.
        for (second_append, second_fails) in [(false, false), (true, false), (true, true)] {
            let dir = tmp_dir(&format!("splice-crash-{second_append}-{second_fails}"));
            let first = sample_statuses(30, 8);
            let more = sample_statuses(8, 8);
            let extra = sample_statuses(5, 8);
            let header = || read_status_header(dir.join("job-1/statuses.txt")).expect("header");
            let mut fault = FaultPlan::new().io_error(FAULT_APPEND_SPLICE, 1);
            if second_fails {
                fault = fault.io_error(FAULT_APPEND_SPLICE, 1);
            }
            let mut batches = vec![&first, &more];
            {
                let (m, _) = manager(&dir);
                m.submit(JobSpec::default(), &statuses_bytes(&first))
                    .expect("submit");
                wait_terminal(&m, 1);
                m.shutdown_and_join();
            }
            {
                // A fresh manager, so no worker is still finishing the
                // first run when the appends arrive.
                let m = JobManager::new(
                    &dir,
                    1,
                    Arc::new(AtomicBool::new(false)),
                    Arc::new(Recorder::new()),
                    Arc::new(fault),
                )
                .expect("manager");
                let err = m
                    .append_cascades(1, &statuses_bytes(&more))
                    .expect_err("injected fault");
                assert_eq!(err.status, 500);
                assert_eq!(header(), Some((38, 8)), "the batch is spliced in");
                let (meta, _) = m.status(1).expect("job");
                assert_eq!((meta.state, meta.processes), (JobState::Done, 30));
                if second_append {
                    batches.push(&extra);
                    let applied = m.append_cascades(1, &statuses_bytes(&extra));
                    if second_fails {
                        assert_eq!(applied.expect_err("injected fault").status, 500);
                        assert_eq!(header(), Some((43, 8)), "only the new batch is spliced");
                    } else {
                        let (meta, buffered) = applied.expect("append");
                        assert!(!buffered);
                        assert_eq!((meta.processes, meta.revision), (43, 2));
                        wait_terminal(&m, 1);
                    }
                }
                m.shutdown_and_join();
            }

            // Restart: the rescan finishes any interrupted apply without
            // splicing a batch a second time.
            let (m, _) = manager(&dir);
            let done = wait_terminal(&m, 1);
            let combined = stack(&batches);
            let processes = combined.num_processes();
            assert_eq!(done.state, JobState::Done);
            assert_eq!(done.revision, 2);
            assert_eq!(done.processes, processes);
            assert_eq!(header(), Some((processes, 8)));
            assert!(pending_paths(&m.job_dir(1)).is_empty());
            let text = fs::read(m.job_dir(1).join("statuses.txt")).expect("statuses");
            assert_eq!(
                read_status_columns(&text).expect("input parses"),
                combined.columns()
            );
            let fresh = m
                .submit(JobSpec::default(), &statuses_bytes(&combined))
                .expect("submit combined");
            wait_terminal(&m, fresh.id);
            assert_eq!(
                m.read_output(1, "edges.txt").expect("edges"),
                m.read_output(fresh.id, "edges.txt").expect("edges"),
            );
            m.shutdown_and_join();
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn batch_left_behind_by_a_recorded_apply_is_not_applied_again() {
        // A process that dies after `job.json` records an apply but before
        // the batch file is deleted leaves the file behind.
        let dir = tmp_dir("leftover-batch");
        let first = sample_statuses(30, 8);
        let more = sample_statuses(8, 8);
        let extra = sample_statuses(5, 8);
        {
            let (m, _) = manager(&dir);
            m.submit(JobSpec::default(), &statuses_bytes(&first))
                .expect("submit");
            wait_terminal(&m, 1);
            m.append_cascades(1, &statuses_bytes(&more))
                .expect("append");
            assert_eq!(wait_terminal(&m, 1).last_applied_append, 1);
            m.shutdown_and_join();
        }
        let leftover = dir.join("job-1").join(pending_name(1));
        fs::write(&leftover, statuses_bytes(&more)).expect("leftover batch");

        let (m, _) = manager(&dir);
        let done = wait_terminal(&m, 1);
        assert_eq!((done.revision, done.processes), (2, 38));
        assert!(!leftover.exists(), "the rescan deletes the leftover");
        // The next batch is numbered past the applied one and applies.
        let (meta, _) = m
            .append_cascades(1, &statuses_bytes(&extra))
            .expect("append");
        assert_eq!((meta.revision, meta.processes), (3, 43));
        assert_eq!(meta.last_applied_append, 2);
        wait_terminal(&m, 1);
        let combined = stack(&[&first, &more, &extra]);
        let fresh = m
            .submit(JobSpec::default(), &statuses_bytes(&combined))
            .expect("submit combined");
        wait_terminal(&m, fresh.id);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(fresh.id, "edges.txt").expect("edges"),
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_job_rejects_cascade_append() {
        let dir = tmp_dir("streamed-append");
        let (m, _) = manager(&dir);
        let statuses = sample_statuses(40, 8);
        m.submit(
            JobSpec {
                memory_budget: Some(8 << 20),
                ..JobSpec::default()
            },
            &statuses_bytes(&statuses),
        )
        .expect("submit");
        wait_terminal(&m, 1);
        let err = m
            .append_cascades(1, &statuses_bytes(&sample_statuses(5, 8)))
            .unwrap_err();
        assert_eq!(err.status, 422);
        assert!(err.message.contains("streamed"), "{}", err.message);
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_resumes_persisted_queue() {
        let dir = tmp_dir("restart");
        let statuses = sample_statuses(40, 8);
        {
            let (m, _) = manager(&dir);
            m.submit(JobSpec::default(), &statuses_bytes(&statuses))
                .expect("submit");
            wait_terminal(&m, 1);
            m.shutdown_and_join();
        }
        // A second manager over the same dir sees the finished job and
        // assigns fresh ids after it.
        let (m, _) = manager(&dir);
        let jobs = m.list();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].state, JobState::Done);
        let meta = m
            .submit(JobSpec::default(), &statuses_bytes(&statuses))
            .expect("submit");
        assert_eq!(meta.id, 2);
        wait_terminal(&m, 2);
        assert_eq!(
            m.read_output(1, "edges.txt").expect("edges"),
            m.read_output(2, "edges.txt").expect("edges"),
        );
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn graceful_shutdown_leaves_job_resumable() {
        let dir = tmp_dir("graceful");
        let statuses = sample_statuses(60, 10);
        {
            let shutdown = Arc::new(AtomicBool::new(true)); // cancel immediately
            let m = JobManager::new(
                &dir,
                1,
                Arc::clone(&shutdown),
                Arc::new(Recorder::new()),
                Arc::new(FaultPlan::disabled()),
            )
            .expect("manager");
            // Workers exit instantly on the pre-set flag, so drive the
            // cancelled run directly to exercise the interrupt path.
            let meta = m
                .submit(JobSpec::default(), &statuses_bytes(&statuses))
                .expect("submit");
            m.run_one(meta.id);
            let (meta, _) = m.status(1).expect("job");
            assert_eq!(
                meta.state,
                JobState::Running,
                "interrupted job stays running"
            );
            m.shutdown_and_join();
        }
        // Restart: the rescan re-enqueues the running job and it finishes.
        let (m, _) = manager(&dir);
        let done = wait_terminal(&m, 1);
        assert_eq!(done.state, JobState::Done);
        m.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_report_injects_runtime_job_only() {
        let rec = Recorder::new();
        {
            let _p = rec.phase("load_statuses");
        }
        rec.add("edges_emitted", 3);
        let report = RunReport::new("tends", rec.snapshot(), 2);
        let json = job_report_json(&report, 9, JobState::Done, 4);
        diffnet_observe::validate_report_json(&json.to_pretty(), &["load_statuses"], &[])
            .expect("valid");
        let job = json.get("runtime").and_then(|r| r.get("job")).expect("job");
        assert_eq!(job.get("id").and_then(Json::as_f64), Some(9.0));
        assert_eq!(job.get("revision").and_then(Json::as_f64), Some(4.0));
        // Stripping runtime removes the job record: the deterministic
        // section is unchanged relative to an offline run.
        let mut stripped = json.clone();
        stripped.remove("runtime");
        assert_eq!(stripped.to_pretty(), report.deterministic_json());
    }
}
