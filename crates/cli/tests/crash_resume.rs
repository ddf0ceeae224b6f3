//! End-to-end crash-safety tests: spawn the real `diffnet` binary, kill
//! it mid parent search through `DIFFNET_FAULT`, resume from the
//! checkpoint it left behind, and demand output that is byte-identical
//! to an uninterrupted run — at one worker thread and at four.

use std::path::Path;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_diffnet")
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("diffnet_crash_resume");
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

/// A run report parsed with its (wall-time-bearing) `runtime` section
/// removed: what is left must be identical across resumed runs.
fn deterministic_report(path: &str) -> diffnet_observe::Json {
    let text = std::fs::read_to_string(path).expect("report file");
    let mut json = diffnet_observe::parse_json(&text).expect("report JSON");
    json.remove("runtime");
    json
}

/// Generates a graph and simulates statuses once per test binary run.
fn make_inputs(tag: &str) -> String {
    let truth = tmp(&format!("{tag}_truth.edges"));
    let statuses = tmp(&format!("{tag}_statuses.txt"));
    run_ok(&[
        "generate", "--model", "er", "--n", "30", "--m", "90", "--seed", "31", "--out", &truth,
    ]);
    run_ok(&[
        "simulate", "--graph", &truth, "--beta", "120", "--seed", "32", "--out", &statuses,
    ]);
    statuses
}

#[test]
fn kill_mid_search_then_resume_is_bit_identical() {
    let statuses = make_inputs("kill");
    for threads in ["1", "4"] {
        let ref_out = tmp(&format!("kill_ref_{threads}.edges"));
        let ref_report = tmp(&format!("kill_ref_{threads}.json"));
        let out = tmp(&format!("kill_resumed_{threads}.edges"));
        let report = tmp(&format!("kill_resumed_{threads}.json"));
        let ck = tmp(&format!("kill_ck_{threads}.json"));
        // Leftovers from a previous test-binary run would defeat the
        // "killed run leaves no output" assertions.
        for stale in [&ref_out, &ref_report, &out, &report, &ck] {
            let _ = std::fs::remove_file(stale);
        }

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

        // Crash after the first checkpoint flush: the flushed batch is
        // durable, nothing past it is. The delta writer batches greedily
        // (one fsync covers whatever the pool produced meanwhile), so only
        // the first flush has a deterministic ordinal to arm.
        let crashed = Command::new(bin())
            .args([
                "infer",
                "--statuses",
                &statuses,
                "--threads",
                threads,
                "--out",
                &out,
                "--checkpoint",
                &ck,
                "--checkpoint-interval",
                "2",
            ])
            .env("DIFFNET_FAULT", "kill:checkpoint_flush:1")
            .output()
            .expect("spawn diffnet");
        assert!(
            !crashed.status.success(),
            "fault injection must abort the process"
        );
        assert!(
            !Path::new(&out).exists(),
            "a killed run must not leave an edge list"
        );
        assert!(
            Path::new(&ck).exists(),
            "the crash happens after an atomic flush, so the checkpoint survives"
        );

        let resumed = run_ok(&[
            "infer",
            "--statuses",
            &statuses,
            "--threads",
            threads,
            "--out",
            &out,
            "--checkpoint",
            &ck,
            "--resume",
            "--run-report",
            &report,
        ]);
        assert!(resumed.contains("resumed"), "stdout: {resumed}");
        assert_eq!(
            std::fs::read(&ref_out).expect("reference edges"),
            std::fs::read(&out).expect("resumed edges"),
            "threads={threads}: resumed edge list must be byte-identical"
        );
        assert_eq!(
            deterministic_report(&ref_report),
            deterministic_report(&report),
            "threads={threads}: deterministic report sections must match"
        );
    }
}

#[test]
fn injected_node_failures_exit_partial_with_failed_nodes_listed() {
    let statuses = make_inputs("partial");
    let out = tmp("partial_out.edges");
    let report = tmp("partial_run.json");
    let run = Command::new(bin())
        .args([
            "infer",
            "--statuses",
            &statuses,
            "--out",
            &out,
            "--run-report",
            &report,
        ])
        .env("DIFFNET_FAULT", "io:node_search@3,io:node_search@7")
        .output()
        .expect("spawn diffnet");
    assert_eq!(
        run.status.code(),
        Some(3),
        "partial reconstruction exits 3:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        stdout.contains("partial reconstruction"),
        "stdout: {stdout}"
    );
    assert!(
        Path::new(&out).exists(),
        "the surviving edges are still written"
    );
    let json = deterministic_report(&report);
    let failed: Vec<u64> = json
        .get("failed_nodes")
        .and_then(|f| f.as_arr())
        .expect("failed_nodes array")
        .iter()
        .map(|v| v.as_f64().expect("node id") as u64)
        .collect();
    assert_eq!(failed, vec![3, 7]);
}

#[test]
fn corrupt_checkpoint_is_a_clean_error() {
    let statuses = make_inputs("corrupt");
    let out = tmp("corrupt_out.edges");
    let ck = tmp("corrupt_ck.json");
    std::fs::write(&ck, "{\"format\": \"diffnet-checkpoint\", \"vers").expect("write");
    let run = Command::new(bin())
        .args([
            "infer",
            "--statuses",
            &statuses,
            "--out",
            &out,
            "--checkpoint",
            &ck,
            "--resume",
        ])
        .output()
        .expect("spawn diffnet");
    assert_eq!(run.status.code(), Some(2), "corrupt checkpoint is an error");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("checkpoint"), "stderr: {stderr}");
}

#[test]
fn edited_checkpoint_entry_is_a_clean_error() {
    // Node lines carry no digest; an out-of-range parent edited into one
    // must exit with the error code and name the node, not panic.
    let statuses = make_inputs("edited");
    let out = tmp("edited_out.edges");
    let ck = tmp("edited_ck.json");
    std::fs::remove_file(&ck).ok();
    let args = [
        "infer",
        "--statuses",
        &statuses,
        "--out",
        &out,
        "--checkpoint",
        &ck,
    ];
    run_ok(&args);
    let text = std::fs::read_to_string(&ck).expect("checkpoint");
    let edited: Vec<String> = text
        .lines()
        .map(
            |line| match line.strip_prefix("{\"node\":0,\"parents\":[") {
                Some(rest) => {
                    let tail = &rest[rest.find(']').expect("parents list ends")..];
                    format!("{{\"node\":0,\"parents\":[5000{tail}")
                }
                None => line.to_string(),
            },
        )
        .collect();
    assert_ne!(edited.join("\n"), text.trim_end(), "edit must hit node 0");
    std::fs::write(&ck, edited.join("\n") + "\n").expect("write edited");
    let run = Command::new(bin())
        .args(args)
        .arg("--resume")
        .output()
        .expect("spawn diffnet");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("node 0"), "stderr: {stderr}");
}
