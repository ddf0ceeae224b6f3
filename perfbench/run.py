#!/usr/bin/env python3
"""End-to-end benchmark of the `diffnet` toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload paper-dense --seed 1 --seconds 25 --trace 0

The script builds the `diffnet` binary from source (release profile,
offline, into `$CARGO_TARGET_DIR` or `target/`), generates its inputs from
`--seed` with the binary's own `generate` and `simulate` commands, drives
the binary the way a user does (the `infer` command, or the `serve` daemon
over HTTP), checks every output, and prints one JSON object as the last
line of standard output. Progress and build output go to standard error.

Workloads (BENCHMARK.json says why each exists):

* `paper-dense`    `diffnet infer` on paper-scale inputs (LFR n=1000,
                   beta=150): the dense IMI matrix pipeline.
* `scale-stream`   `diffnet infer --memory-budget 64M` on n=5000: the
                   streamed pipeline (sampled tau, bounded top-k fold).
* `archive-append` cascade batches appended to daemon jobs that already
                   hold a 1000-process archive: the incremental warm path.
* `served-jobs`    one client submitting paper-scale jobs to the daemon
                   back to back: upload, queue, durable writes, output fetch.

One operation is one `infer` run, one served job (submit, poll, fetch the
edges) or one append (post the batch, poll, fetch the edges). On a shared
2-vCPU cloud VM, co-tenants slowed every process by up to ~1.8x for
stretches of several seconds, so a run's median flipped between a fast and
a slow mode from run to run. Timings are therefore each input's fastest
operation, averaged over the inputs: the latency of the program itself,
which is what a change to it can move.

With `--trace 0` the result carries the end-to-end metrics. With
`--trace 1` every operation also fetches the program's run report and the
result carries the per-layer metrics instead: the report's
`runtime.phase_wall_seconds` grouped into layers, everything else in the
operation as `other_ms`, and the pipeline's work counters.
"""

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# Paper defaults (ICDE 2020, Sec. V): LFR graphs with mean degree 4 and
# degree exponent 2, seeding ratio alpha=0.15, mean propagation
# probability mu=0.3.
LFR = ["--model", "lfr", "--k", "4", "--t", "2", "--reciprocal"]
SIM = ["--alpha", "0.15", "--mu", "0.3"]

# An output whose F-score falls below this is wrong, not merely less
# accurate: every workload's inputs score well above it, and random
# guessing scores near 0.
F_SCORE_FLOOR = 0.2

# Client-side status poll period for daemon jobs: short against the
# 100+ ms jobs, long enough not to load the reactor.
POLL_S = 0.002

# Daemon start-ups timed per served-jobs run; one takes a few ms, so a
# single sample would be mostly scheduler noise.
SERVE_SETUPS = 9

# Run-report phases grouped into the layers the per-layer metrics report.
LAYERS = {
    "load": ["load_statuses", "status_columns"],
    "pairwise": ["correlation_matrix", "streamed_fold", "stats_append"],
    "prune": ["threshold", "tau_sample", "candidate_pruning"],
    "search": ["parent_search"],
}

# What a failed operation raises; the run counts it and carries on.
OP_ERRORS = (OSError, ValueError, KeyError, http.client.HTTPException)


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failed step: an operation failed or its output is wrong."""


# ---------------------------------------------------------------- build


def build_binary():
    """Builds `diffnet` from the checkout and returns its absolute path."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "cli"))):
        raise BenchError("run from the repository root (no Cargo.toml / crates/cli here)")
    cmd = ["cargo", "build", "--release", "--offline", "-p", "diffnet-cli", "--bin", "diffnet"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("cargo build failed")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or "target")
    binary = os.path.join(target, "release", "diffnet")
    if not os.path.isfile(binary):
        raise BenchError(f"built binary not found at {binary}")
    return binary


# ---------------------------------------------------------------- inputs


class Cli:
    """Runs `diffnet` subcommands, raising on a non-zero exit."""

    def __init__(self, binary, scratch):
        self.binary = binary
        self.scratch = scratch
        self.peak_rss_mib = 0.0

    def run(self, *args):
        """Runs one command; returns its wall-clock seconds and keeps its
        peak resident set size in `peak_rss_mib`."""
        with tempfile.TemporaryFile(dir=self.scratch) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([self.binary, *args], stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                msg = err.read().decode(errors="replace").strip()
                raise BenchError(f"diffnet {args[0]} exited {proc.returncode}: {msg}")
        self.peak_rss_mib = usage.ru_maxrss / 1024
        return elapsed


def read_edges(data):
    """Parses an edge list (bytes) into a set of (u, v) pairs."""
    edges = set()
    for line in data.decode().splitlines():
        tok = line.split()
        if tok and not tok[0].startswith("#"):
            edges.add((int(tok[0]), int(tok[1])))
    return edges


def f_score(truth, inferred):
    tp = len(truth & inferred)
    if tp == 0:
        return 0.0
    precision = tp / len(inferred)
    recall = tp / len(truth)
    return 2 * precision * recall / (precision + recall)


def status_text(rows, n):
    """A status matrix file holding `rows` (lines of n 0/1 tokens)."""
    return f"# diffnet status matrix: {len(rows)} processes x {n} nodes\n" + "".join(rows)


class Instance:
    """One generated input: a planted LFR truth and its final statuses."""

    def __init__(self, cli, directory, n, beta, rng):
        os.makedirs(directory)
        self.dir = directory
        self.statuses = os.path.join(directory, "statuses.txt")
        truth_path = os.path.join(directory, "truth.edges")
        gen_seed, sim_seed = rng.randrange(1 << 32), rng.randrange(1 << 32)
        self.setup_s = cli.run(
            "generate", *LFR, "--n", str(n), "--seed", str(gen_seed), "--out", truth_path
        )
        self.setup_s += cli.run(
            "simulate", "--graph", truth_path, *SIM, "--beta", str(beta),
            "--seed", str(sim_seed), "--out", self.statuses,
        )
        with open(truth_path, "rb") as f:
            self.truth = read_edges(f.read())

    def rows(self):
        """The status matrix's process rows, header dropped."""
        with open(self.statuses, encoding="ascii") as f:
            return [line for line in f if line.strip() and not line.startswith("#")]

    def check(self, stats, edges):
        """Scores `edges` against the planted truth."""
        score = f_score(self.truth, read_edges(edges))
        if score < F_SCORE_FLOOR:
            stats.fail(f"{self.dir}: F-score {score:.3f} below {F_SCORE_FLOOR}")
        stats.f_scores.append(score)


# ---------------------------------------------------------------- results


class Stats:
    """Per-run accumulator of operation timings, checks and run reports.

    Timings are grouped by input (an instance or an archive): inputs
    differ in cost, so a timing metric is each input's fastest operation
    averaged over the inputs, whatever mix of operations the run managed.
    """

    def __init__(self):
        self.latencies = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setup = []
        self.f_scores = []
        self.peak_rss_mib = []
        self.layers = {name: {} for name in [*LAYERS, "other"]}
        self.counters = []

    def fail(self, msg):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)
        log(f"FAILED: {msg}")

    def record(self, key, latency, report=None, nodes=0):
        """Records one successful operation on input `key`, with its run
        report when traced (`nodes`: the input's node count)."""
        self.latencies.setdefault(key, []).append(latency * 1e3)
        if report is None:
            return
        phases = report["runtime"]["phase_wall_seconds"]
        inside = 0.0
        for layer, names in LAYERS.items():
            secs = sum(phases.get(p, 0.0) for p in names)
            self.layers[layer].setdefault(key, []).append(secs * 1e3)
            inside += secs
        self.layers["other"].setdefault(key, []).append((latency - inside) * 1e3)
        counters = report["counters"]
        # Replayed nodes (append) skip the parent search.
        counters["nodes_searched"] = nodes - counters.get("nodes_reused", 0)
        self.counters.append(counters)

    def result(self, trace):
        if self.errors:
            log("errors: " + "; ".join(self.errors))
        done = bool(self.latencies)
        if not done:
            metrics = {}
        elif trace:
            metrics = self._layer_metrics()
        else:
            metrics = self._end_to_end()
        return {
            "correct": self.failed == 0 and done,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if done else max(self.failed, 1),
            "metrics": metrics,
        }

    def _end_to_end(self):
        return {
            "latency_ms": {"value": fastest(self.latencies), "unit": "ms"},
            "peak_rss_mib": {"value": statistics.mean(self.peak_rss_mib), "unit": "MiB"},
            "f_score": {"value": statistics.mean(self.f_scores), "unit": "ratio"},
            "setup_s": {"value": statistics.median(self.setup), "unit": "s"},
        }

    def _layer_metrics(self):
        out = {
            f"{layer}_ms": {"value": fastest(groups), "unit": "ms"}
            for layer, groups in self.layers.items()
        }

        def mean(key):
            return statistics.mean(c.get(key, 0) for c in self.counters)

        hits, misses = mean("score_cache_hits"), mean("score_cache_misses")
        out["score_cache_hit_ratio"] = {"value": hits / max(hits + misses, 1), "unit": "ratio"}
        for key in ["combinations_scored", "pairs_above_tau", "candidate_evictions",
                    "nodes_searched"]:
            out[key] = {"value": mean(key), "unit": "count"}
        return out


def fastest(groups):
    """Each input's fastest timing, averaged over the inputs."""
    return statistics.mean(min(v) for v in groups.values())


# ---------------------------------------------------------------- offline


def offline_workload(bench, n, beta, instances, infer_args):
    """`diffnet infer` round-robin over generated instances until time is up."""
    cli, stats = bench.cli, bench.stats
    # Set-up, once per instance: generating its inputs plus a first run
    # that fixes the output every timed run must reproduce byte for byte.
    insts, refs = [], []
    for k in range(instances):
        inst = Instance(cli, os.path.join(bench.work, f"inst{k}"), n, beta, bench.rng)
        ref_path = os.path.join(inst.dir, "ref.edges")
        first_s = cli.run("infer", "--statuses", inst.statuses, "--out", ref_path, *infer_args)
        stats.setup.append(inst.setup_s + first_s)
        stats.peak_rss_mib.append(cli.peak_rss_mib)
        with open(ref_path, "rb") as f:
            refs.append(f.read())
        inst.check(stats, refs[-1])
        insts.append(inst)
    log(f"inputs ready (n={n}, beta={beta}, {instances} instances)")

    out = os.path.join(bench.work, "run.edges")
    report_path = os.path.join(bench.work, "run.json")
    trace_args = ["--run-report", report_path] if bench.trace else []
    deadline = time.perf_counter() + bench.seconds
    k = 0
    while time.perf_counter() < deadline:
        i = k % instances
        k += 1
        stats.attempted += 1
        try:
            latency = cli.run(
                "infer", "--statuses", insts[i].statuses, "--out", out, *infer_args, *trace_args
            )
            with open(out, "rb") as f:
                if f.read() != refs[i]:
                    raise BenchError(f"instance {i}: edges differ from its first run")
            report = None
            if bench.trace:
                with open(report_path, encoding="utf-8") as f:
                    report = json.load(f)
            stats.record(i, latency, report, n)
        except (BenchError, *OP_ERRORS) as e:
            stats.fail(str(e))


# ---------------------------------------------------------------- daemon


class Http:
    """A keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, addr):
        host, port = addr.rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=120)

    def request(self, method, path, body=None):
        self.conn.request(method, path, body=body)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def json(self, method, path, body=None, expect=(200,)):
        status, data = self.request(method, path, body)
        if status not in expect:
            raise BenchError(f"{method} {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def finish(self, job_id, revision):
        """Polls job `job_id` until it is done at `revision`; returns its
        edge list."""
        while True:
            doc = self.json("GET", f"/v1/jobs/{job_id}")
            if doc["revision"] == revision and doc["state"] in ("done", "failed", "partial"):
                break
            time.sleep(POLL_S)
        if doc["state"] != "done":
            raise BenchError(f"job {job_id} ended {doc['state']}: {doc.get('error')}")
        status, edges = self.request("GET", f"/v1/jobs/{job_id}/edges")
        if status != 200:
            raise BenchError(f"edges of job {job_id} -> {status}")
        return edges

    def close(self):
        self.conn.close()


RUNNING = []


class Daemon:
    """A `diffnet serve` process on an ephemeral loopback port."""

    def __init__(self, binary, directory):
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        port_file = os.path.join(directory, "port")
        self.log = open(os.path.join(directory, "serve.log"), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "serve", "--addr", "127.0.0.1:0", "--data-dir",
             os.path.join(directory, "data"), "--port-file", port_file, "--no-access-log"],
            stdout=self.log, stderr=self.log,
        )
        RUNNING.append(self)
        while not (os.path.exists(port_file) and os.path.getsize(port_file) > 0):
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited {self.proc.returncode} during start-up")
            if time.perf_counter() - start > 30:
                raise BenchError("daemon did not start within 30 s")
            time.sleep(0.0002)  # start-up takes a few ms; keep the poll fine
        with open(port_file, encoding="ascii") as f:
            self.addr = f.read().strip()
        probe = Http(self.addr)
        if probe.request("GET", "/v1/healthz")[0] != 200:
            raise BenchError("daemon healthz failed")
        probe.close()
        self.start_s = time.perf_counter() - start

    def peak_rss_mib(self):
        """The daemon's peak resident set size so far."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in the daemon's /proc status")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        RUNNING.remove(self)


def report_if(bench, conn, job_id):
    """The job's run report when tracing, else None."""
    return conn.json("GET", f"/v1/jobs/{job_id}/report") if bench.trace else None


# ---------------------------------------------------------------- served


def served_workload(bench, n, beta, instances):
    """One client submitting jobs back to back and fetching their edges."""
    cli, stats = bench.cli, bench.stats
    insts, bodies, refs = [], [], []
    for k in range(instances):
        inst = Instance(cli, os.path.join(bench.work, f"inst{k}"), n, beta, bench.rng)
        ref_path = os.path.join(inst.dir, "offline.edges")
        cli.run("infer", "--statuses", inst.statuses, "--out", ref_path)
        with open(ref_path, "rb") as f:
            refs.append(f.read())
        with open(inst.statuses, "rb") as f:
            bodies.append(f.read())
        inst.check(stats, refs[-1])
        insts.append(inst)

    def job(conn, i):
        """Serves instance i's statuses as a job; returns (latency, id)."""
        t0 = time.perf_counter()
        doc = conn.json("POST", "/v1/jobs", bodies[i], expect=(201,))
        edges = conn.finish(doc["id"], doc["revision"])
        latency = time.perf_counter() - t0
        if edges != refs[i]:
            raise BenchError(f"job {doc['id']}: served edges differ from offline infer")
        return latency, doc["id"]

    # Set-up: the daemon's start on a fresh data dir until it answers
    # healthz, repeated; the last daemon stays up and serves each instance
    # once, untimed, before the measurement.
    for s in range(SERVE_SETUPS):
        if s:
            daemon.stop()
        daemon = Daemon(bench.binary, os.path.join(bench.work, "daemon"))
        stats.setup.append(daemon.start_s)
    conn = Http(daemon.addr)
    for i in range(instances):
        job(conn, i)
    log(f"daemon up at {daemon.addr} (n={n}, beta={beta}, {instances} instances)")

    deadline = time.perf_counter() + bench.seconds
    k = 0
    while time.perf_counter() < deadline:
        i = k % instances
        k += 1
        stats.attempted += 1
        try:
            latency, job_id = job(conn, i)
            stats.record(i, latency, report_if(bench, conn, job_id), n)
        except (BenchError, *OP_ERRORS) as e:
            stats.fail(str(e))
            conn.close()
            conn = Http(daemon.addr)
    conn.close()
    stats.peak_rss_mib.append(daemon.peak_rss_mib())
    daemon.stop()


# ---------------------------------------------------------------- append


def append_workload(bench, n, base_beta, batch, archives, max_appends):
    """Cascade batches appended to archived jobs on a running daemon.

    Each archive is a planted truth, a base history served as one job, and
    fresh batches from the same diffusion model. After `max_appends`
    batches an archive starts over as a new job on its base history, so
    every run times appends onto histories of the same depths.
    """
    cli, stats = bench.cli, bench.stats
    daemon = Daemon(bench.binary, os.path.join(bench.work, "daemon"))
    conn = Http(daemon.addr)
    arch = []
    # Set-up per archive: generating its history plus the daemon's full
    # checkpointed run over the base, which appends warm-start from.
    for a in range(archives):
        inst = Instance(cli, os.path.join(bench.work, f"arch{a}"), n,
                        base_beta + max_appends * batch, bench.rng)
        rows = inst.rows()
        base = status_text(rows[:base_beta], n).encode()
        t0 = time.perf_counter()
        doc = conn.json("POST", "/v1/jobs", base, expect=(201,))
        conn.finish(doc["id"], doc["revision"])
        stats.setup.append(inst.setup_s + time.perf_counter() - t0)
        arch.append({"inst": inst, "rows": rows, "base": base, "id": doc["id"], "applied": 0})
    log(f"{archives} archives ready (n={n}, base beta={base_beta}, batch={batch})")

    def append(ar):
        """Appends the archive's next batch; returns the latency."""
        if ar["applied"] == max_appends:
            doc = conn.json("POST", "/v1/jobs", ar["base"], expect=(201,))
            conn.finish(doc["id"], doc["revision"])
            ar.update(id=doc["id"], applied=0)
        lo = base_beta + ar["applied"] * batch
        body = status_text(ar["rows"][lo:lo + batch], n).encode()
        t0 = time.perf_counter()
        doc = conn.json("POST", f"/v1/jobs/{ar['id']}/cascades", body, expect=(200, 202))
        ar["edges"] = conn.finish(ar["id"], doc["revision"])
        ar["applied"] += 1
        return time.perf_counter() - t0

    # Warm-up: one untimed append per archive. Its edges are scored, so
    # the F-score is a function of the seed alone, not of how many
    # appends a run managed.
    for ar in arch:
        append(ar)
        ar["inst"].check(stats, ar["edges"])

    deadline = time.perf_counter() + bench.seconds
    k = 0
    while time.perf_counter() < deadline:
        a = k % archives
        k += 1
        stats.attempted += 1
        try:
            latency = append(arch[a])
            stats.record(a, latency, report_if(bench, conn, arch[a]["id"]), n)
        except (BenchError, *OP_ERRORS) as e:
            stats.fail(str(e))

    # The incremental result must equal a fresh offline run over the
    # combined history, byte for byte.
    for ar in arch:
        inst = ar["inst"]
        combined = os.path.join(inst.dir, "combined.txt")
        with open(combined, "w", encoding="ascii") as f:
            f.write(status_text(ar["rows"][:base_beta + ar["applied"] * batch], n))
        out = os.path.join(inst.dir, "combined.edges")
        cli.run("infer", "--statuses", combined, "--out", out)
        with open(out, "rb") as f:
            if f.read() != ar["edges"]:
                stats.fail(f"{inst.dir}: appended job's edges differ from an offline run")
    conn.close()
    stats.peak_rss_mib.append(daemon.peak_rss_mib())
    daemon.stop()


# ---------------------------------------------------------------- main


WORKLOADS = {
    "paper-dense": lambda b: offline_workload(b, n=1000, beta=150, instances=6, infer_args=[]),
    "scale-stream": lambda b: offline_workload(
        b, n=5000, beta=150, instances=2, infer_args=["--memory-budget", "64M"]
    ),
    "archive-append": lambda b: append_workload(
        b, n=1000, base_beta=1000, batch=50, archives=4, max_appends=4
    ),
    "served-jobs": lambda b: served_workload(b, n=1000, beta=150, instances=6),
}


class Bench:
    """What a workload needs: the binary, a scratch dir, the seeded RNG."""

    def __init__(self, binary, work, seed, seconds, trace):
        self.binary = binary
        self.cli = Cli(binary, work)
        self.work = work
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.stats = Stats()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # SIGTERM unwinds like Ctrl-C, so the finally block below stops the
    # daemon and removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch_root = os.path.abspath(".bench_work")
    work = os.path.join(scratch_root, f"{args.workload}-{os.getpid()}")
    try:
        binary = build_binary()
        os.makedirs(work)
        bench = Bench(binary, work, args.seed, args.seconds, bool(args.trace))
        log(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
        WORKLOADS[args.workload](bench)
        result = bench.stats.result(bench.trace)
    except (BenchError, *OP_ERRORS) as e:
        log(f"error: {e}")
        return 1
    finally:
        for daemon in list(RUNNING):
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # absent, or another run's scratch is still in it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
