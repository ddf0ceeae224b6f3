//! End-to-end daemon tests: spawn the real `diffnet` binary as a server,
//! drive it with the built-in client over loopback, and demand that
//! HTTP-submitted jobs produce output byte-identical to offline
//! `diffnet infer` — including after the server is killed mid-job and
//! restarted, and across concurrent jobs.

use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

use diffnet_observe::Json;
use diffnet_serve::Client;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_diffnet")
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("diffnet_serve_e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name).to_string_lossy().into_owned()
}

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn diffnet");
    assert!(
        out.status.success(),
        "diffnet {args:?} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn make_inputs(tag: &str, seed: u64) -> String {
    let truth = tmp(&format!("{tag}_truth.edges"));
    let statuses = tmp(&format!("{tag}_statuses.txt"));
    run_ok(&[
        "generate",
        "--model",
        "er",
        "--n",
        "30",
        "--m",
        "90",
        "--seed",
        &seed.to_string(),
        "--out",
        &truth,
    ]);
    run_ok(&[
        "simulate",
        "--graph",
        &truth,
        "--beta",
        "120",
        "--seed",
        &(seed + 1).to_string(),
        "--out",
        &statuses,
    ]);
    statuses
}

fn deterministic_report(path: &str) -> Json {
    let text = std::fs::read_to_string(path).expect("report file");
    let mut json = diffnet_observe::parse_json(&text).expect("report JSON");
    json.remove("runtime");
    json
}

/// A spawned server process, killed on drop so a failing assertion never
/// leaks a listener into later tests.
struct ServerProc {
    child: std::process::Child,
}

impl ServerProc {
    /// Waits (bounded) for the process to exit on its own.
    fn wait_exit(&mut self) -> std::process::ExitStatus {
        for _ in 0..600 {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("server process did not exit");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_server(
    data_dir: &str,
    tag: &str,
    extra: &[&str],
    fault: Option<&str>,
) -> (ServerProc, SocketAddr) {
    let port_file = tmp(&format!("{tag}_port.txt"));
    let _ = std::fs::remove_file(&port_file);
    let mut cmd = Command::new(bin());
    cmd.args([
        "serve",
        "--data-dir",
        data_dir,
        "--addr",
        "127.0.0.1:0",
        "--port-file",
        &port_file,
    ])
    .args(extra)
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    if let Some(plan) = fault {
        cmd.env("DIFFNET_FAULT", plan);
    }
    let child = cmd.spawn().expect("spawn server");
    let mut proc = ServerProc { child };
    for _ in 0..200 {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                // The port file is written after bind, so the listener
                // is already accepting.
                return (proc, addr);
            }
        }
        if let Some(status) = proc.child.try_wait().expect("try_wait") {
            panic!("server exited early with {status}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("server never wrote its port file");
}

fn shut_down(mut proc: ServerProc, addr: SocketAddr) {
    Client::new(addr).shutdown().expect("shutdown endpoint");
    let status = proc.wait_exit();
    assert!(status.success(), "clean shutdown exits 0, got {status}");
}

#[test]
fn served_job_matches_offline_infer_at_1_and_4_threads() {
    let statuses = make_inputs("match", 41);
    let data_dir = tmp("match_data");
    let _ = std::fs::remove_dir_all(&data_dir);
    let (proc, addr) = start_server(&data_dir, "match", &[], None);

    for (job_id, threads) in [(1u64, "1"), (2u64, "4")] {
        let ref_out = tmp(&format!("match_ref_{threads}.edges"));
        let ref_report = tmp(&format!("match_ref_{threads}.json"));
        run_ok(&[
            "infer",
            "--statuses",
            &statuses,
            "--threads",
            threads,
            "--out",
            &ref_out,
            "--run-report",
            &ref_report,
        ]);

        // Submit over HTTP with the built-in client subcommands.
        let submitted = run_ok(&[
            "submit",
            "--server",
            &addr.to_string(),
            "--statuses",
            &statuses,
            "--threads",
            threads,
            "--wait",
        ]);
        assert!(
            submitted.contains(&format!("job {job_id} submitted"))
                && submitted.contains("finished: done"),
            "stdout: {submitted}"
        );
        let served_out = tmp(&format!("match_served_{threads}.edges"));
        let served_report = tmp(&format!("match_served_{threads}.json"));
        let fetched = run_ok(&[
            "job",
            "--server",
            &addr.to_string(),
            "--id",
            &job_id.to_string(),
            "--edges-out",
            &served_out,
            "--report-out",
            &served_report,
        ]);
        assert!(fetched.contains("\"state\": \"done\""), "stdout: {fetched}");

        assert_eq!(
            std::fs::read(&ref_out).expect("reference edges"),
            std::fs::read(&served_out).expect("served edges"),
            "threads={threads}: HTTP-submitted edges must be byte-identical"
        );
        assert_eq!(
            deterministic_report(&ref_report),
            deterministic_report(&served_report),
            "threads={threads}: deterministic report sections must match"
        );
        // The served report additionally carries the job record, inside
        // the runtime section only.
        let full = diffnet_observe::parse_json(
            &std::fs::read_to_string(&served_report).expect("served report"),
        )
        .expect("JSON");
        let job = full
            .get("runtime")
            .and_then(|r| r.get("job"))
            .expect("runtime.job");
        assert_eq!(job.get("id").and_then(Json::as_f64), Some(job_id as f64));
        assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));
    }

    // A cascade-based baseline through the same pipe: submit an
    // observation set, run NetInf with an edge budget, compare bytes.
    let obs = tmp("match_obs.txt");
    run_ok(&[
        "simulate",
        "--graph",
        &tmp("match_truth.edges"),
        "--beta",
        "120",
        "--seed",
        "43",
        "--out",
        &tmp("match_statuses2.txt"),
        "--observations",
        &obs,
    ]);
    let ref_out = tmp("match_netinf_ref.edges");
    run_ok(&[
        "infer",
        "--algorithm",
        "netinf",
        "--observations",
        &obs,
        "--edges",
        "90",
        "--out",
        &ref_out,
    ]);
    run_ok(&[
        "submit",
        "--server",
        &addr.to_string(),
        "--algorithm",
        "netinf",
        "--observations",
        &obs,
        "--edges",
        "90",
        "--wait",
    ]);
    let served_out = tmp("match_netinf_served.edges");
    run_ok(&[
        "job",
        "--server",
        &addr.to_string(),
        "--id",
        "3",
        "--edges-out",
        &served_out,
    ]);
    assert_eq!(
        std::fs::read(&ref_out).expect("reference edges"),
        std::fs::read(&served_out).expect("served edges"),
        "netinf: HTTP-submitted edges must be byte-identical"
    );

    // Liveness + metrics over the same socket.
    let client = Client::new(addr);
    assert!(client.healthz().expect("healthz"));
    let metrics = client.metrics().expect("metrics");
    for needle in [
        "# TYPE diffnet_http_requests counter",
        "diffnet_jobs_submitted 3",
        "diffnet_jobs_completed 3",
    ] {
        assert!(
            metrics.contains(needle),
            "metrics missing {needle:?}:\n{metrics}"
        );
    }

    shut_down(proc, addr);
}

#[test]
fn kill_dash_nine_mid_job_then_restart_resumes_byte_identical() {
    let statuses = make_inputs("kill", 51);
    let ref_out = tmp("kill_ref.edges");
    run_ok(&["infer", "--statuses", &statuses, "--out", &ref_out]);

    let data_dir = tmp("kill_data");
    let _ = std::fs::remove_dir_all(&data_dir);
    // The fault plan SIGKILLs the whole server on the first checkpoint
    // flush — mid parent search, after that batch of nodes is durable.
    // Only the first flush has a deterministic ordinal: the greedy delta
    // writer may cover the rest of the run in a single later fsync.
    let (mut proc, addr) = start_server(&data_dir, "kill1", &[], Some("kill:checkpoint_flush:1"));
    let submitted = run_ok(&[
        "submit",
        "--server",
        &addr.to_string(),
        "--statuses",
        &statuses,
        "--checkpoint-interval",
        "2",
    ]);
    assert!(submitted.contains("job 1 submitted"), "stdout: {submitted}");
    let died = proc.wait_exit();
    assert!(!died.success(), "fault injection must abort the server");
    assert!(
        !Path::new(&data_dir).join("job-1/edges.txt").exists(),
        "a killed job must not have produced an edge list"
    );
    drop(proc);

    // Restart over the same data dir: the rescan finds job 1 `running`,
    // resumes it from its checkpoint, and finishes it unprompted.
    let (proc, addr) = start_server(&data_dir, "kill2", &[], None);
    let client = Client::new(addr);
    let status = client
        .wait_for_job(1, Duration::from_secs(60))
        .expect("resumed job finishes");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    let (code, served) = client.get("/v1/jobs/1/edges").expect("edges");
    assert_eq!(code, 200);
    assert_eq!(
        std::fs::read(&ref_out).expect("reference edges"),
        served,
        "edges after kill -9 + restart + resume must be byte-identical"
    );
    // The report proves it resumed rather than recomputed.
    let (code, report) = client.get("/v1/jobs/1/report").expect("report");
    assert_eq!(code, 200);
    let report = diffnet_observe::parse_json(std::str::from_utf8(&report).expect("utf8"))
        .expect("report JSON");
    let resumed = report
        .get("runtime")
        .and_then(|r| r.get("checkpoint"))
        .and_then(|c| c.get("resumed_nodes"))
        .and_then(Json::as_f64)
        .expect("runtime.checkpoint.resumed_nodes");
    assert!(resumed > 0.0, "restart must restore checkpointed nodes");
    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("diffnet_jobs_resumed 1"),
        "metrics must count the resume:\n{metrics}"
    );
    shut_down(proc, addr);
}

#[test]
fn concurrent_jobs_and_cascade_append_stay_exact() {
    let statuses_a = make_inputs("conc_a", 61);
    let statuses_b = make_inputs("conc_b", 71);
    let data_dir = tmp("conc_data");
    let _ = std::fs::remove_dir_all(&data_dir);
    let (proc, addr) = start_server(&data_dir, "conc", &["--job-workers", "2"], None);
    let client = Client::new(addr);

    // Two distinct jobs in flight at once on two job workers.
    let full_a = std::fs::read(&statuses_a).expect("statuses a");
    let full_b = std::fs::read(&statuses_b).expect("statuses b");
    let (code, _) = client.post_json("/v1/jobs", &full_a).expect("submit a");
    assert_eq!(code, 201);
    let (code, _) = client.post_json("/v1/jobs", &full_b).expect("submit b");
    assert_eq!(code, 201);
    for (id, statuses) in [(1u64, &statuses_a), (2u64, &statuses_b)] {
        let state = client
            .wait_for_job(id, Duration::from_secs(60))
            .expect("job finishes");
        assert_eq!(state.get("state").and_then(Json::as_str), Some("done"));
        let ref_out = tmp(&format!("conc_ref_{id}.edges"));
        run_ok(&["infer", "--statuses", statuses, "--out", &ref_out]);
        let (code, served) = client.get(&format!("/v1/jobs/{id}/edges")).expect("edges");
        assert_eq!(code, 200);
        assert_eq!(
            std::fs::read(&ref_out).expect("reference edges"),
            served,
            "job {id}: concurrent jobs must not cross-contaminate"
        );
    }

    // Cascade streaming: a job over the first half of A's cascades, then
    // the second half appended, must equal one job over all of A.
    let matrix = diffnet_simulate::io::load_status_matrix(&statuses_a).expect("matrix");
    let rows: Vec<Vec<bool>> = (0..matrix.num_processes())
        .map(|l| {
            (0..matrix.num_nodes())
                .map(|i| matrix.get(l, i as u32))
                .collect()
        })
        .collect();
    let half = rows.len() / 2;
    let head = diffnet_simulate::StatusMatrix::from_rows(&rows[..half]);
    let tail = diffnet_simulate::StatusMatrix::from_rows(&rows[half..]);
    let mut head_bytes = Vec::new();
    diffnet_simulate::io::write_status_matrix(&head, &mut head_bytes).expect("serialize");
    let mut tail_bytes = Vec::new();
    diffnet_simulate::io::write_status_matrix(&tail, &mut tail_bytes).expect("serialize");

    let (code, job) = client
        .post_json("/v1/jobs", &head_bytes)
        .expect("submit head");
    assert_eq!(code, 201);
    let id = job.get("id").and_then(Json::as_f64).expect("id") as u64;
    client
        .wait_for_job(id, Duration::from_secs(60))
        .expect("head job finishes");

    // Appending while terminal re-queues with a bumped revision…
    let (code, updated) = client
        .post_json(&format!("/v1/jobs/{id}/cascades"), &tail_bytes)
        .expect("append");
    assert_eq!(code, 200, "{}", updated.to_pretty());
    assert_eq!(updated.get("revision").and_then(Json::as_f64), Some(2.0));
    let state = client
        .wait_for_job(id, Duration::from_secs(60))
        .expect("re-estimation finishes");
    assert_eq!(state.get("state").and_then(Json::as_str), Some("done"));
    let (code, served) = client.get(&format!("/v1/jobs/{id}/edges")).expect("edges");
    assert_eq!(code, 200);
    assert_eq!(
        std::fs::read(tmp("conc_ref_1.edges")).expect("reference edges"),
        served,
        "append(half, half) must equal one submission of the full matrix"
    );

    // …while appending to a mismatched shape is a typed client error.
    let narrow = diffnet_simulate::StatusMatrix::from_rows(&[vec![true; 5]]);
    let mut narrow_bytes = Vec::new();
    diffnet_simulate::io::write_status_matrix(&narrow, &mut narrow_bytes).expect("serialize");
    let (code, err) = client
        .post_json(&format!("/v1/jobs/{id}/cascades"), &narrow_bytes)
        .expect("bad append");
    assert_eq!(code, 422, "{}", err.to_pretty());

    shut_down(proc, addr);
}

#[test]
fn kill_between_append_splice_and_meta_save_applies_once() {
    let statuses = make_inputs("splice_kill", 81);
    let matrix = diffnet_simulate::io::load_status_matrix(&statuses).expect("matrix");
    let rows: Vec<Vec<bool>> = (0..matrix.num_processes())
        .map(|l| {
            (0..matrix.num_nodes())
                .map(|i| matrix.get(l, i as u32))
                .collect()
        })
        .collect();
    let half = rows.len() / 2;
    let serialize = |rows: &[Vec<bool>]| {
        let mut bytes = Vec::new();
        diffnet_simulate::io::write_status_matrix(
            &diffnet_simulate::StatusMatrix::from_rows(rows),
            &mut bytes,
        )
        .expect("serialize");
        bytes
    };
    let ref_out = tmp("splice_kill_ref.edges");
    run_ok(&["infer", "--statuses", &statuses, "--out", &ref_out]);

    let data_dir = tmp("splice_kill_data");
    let _ = std::fs::remove_dir_all(&data_dir);
    // The fault plan kills the server once the appended rows are spliced
    // into `statuses.txt`, before `job.json` records them.
    let (mut proc, addr) =
        start_server(&data_dir, "splice_kill1", &[], Some("kill:append_splice:1"));
    let client = Client::new(addr);
    let (code, _) = client
        .post_json("/v1/jobs", &serialize(&rows[..half]))
        .expect("submit head");
    assert_eq!(code, 201);
    client
        .wait_for_job(1, Duration::from_secs(60))
        .expect("head job finishes");
    // The server dies mid-request, so the append gets no response.
    let _ = client.post_json("/v1/jobs/1/cascades", &serialize(&rows[half..]));
    let died = proc.wait_exit();
    assert!(!died.success(), "fault injection must abort the server");
    drop(proc);

    // Restart: the rescan finishes the interrupted apply and re-runs the
    // job over the combined rows, without splicing the batch twice.
    let (proc, addr) = start_server(&data_dir, "splice_kill2", &[], None);
    let client = Client::new(addr);
    let status = client
        .wait_for_job(1, Duration::from_secs(60))
        .expect("re-estimation finishes");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(status.get("revision").and_then(Json::as_f64), Some(2.0));
    let processes = status
        .get("processes")
        .and_then(Json::as_f64)
        .expect("processes") as usize;
    assert_eq!(processes, rows.len());
    let header =
        diffnet_simulate::io::read_status_header(Path::new(&data_dir).join("job-1/statuses.txt"))
            .expect("read header");
    assert_eq!(header, Some((processes, matrix.num_nodes())));
    let (code, served) = client.get("/v1/jobs/1/edges").expect("edges");
    assert_eq!(code, 200);
    assert_eq!(
        std::fs::read(&ref_out).expect("reference edges"),
        served,
        "edges after a crash mid-append must equal one run over all rows"
    );
    shut_down(proc, addr);
}
