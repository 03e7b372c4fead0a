"""mwlab benchmark: cold window scans on both backends, a warm mixed-query
stream, and a traced per-layer run. Every answer is checked (bench/oracle.py).

    python3 bench/run.py --workload mul-window --seed 1 --seconds 35 --trace 0
    python3 bench/run.py                       # all three workloads in turn

With --trace 0 it times the workload with nothing traced; with --trace 1 it
runs the workload once untraced and once traced at --workers 1 and reports
the per-layer metrics. It prints each metric by name with its unit and, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. The full record (environment, every latency, failures
by query) is written to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import sys
import time
from pathlib import Path

import reference
from child import digest
from oracle import KNOWN_DEFECT, VERIFIABLE, Oracle, load_digests, witness
from tracer import DISPATCH, LAYERS, TraceError
from workloads import STREAM_WORKERS, WARMUP, query_stream, window_commands

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("mul-window", "ec-window", "query-stream")
SETUP_PROBES = 9  # set-ups timed per run; setup_s is their median
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a single-workload run is stopped past this

# Sites (namespace:attribute) each workload must reach in its traced run.
# mwgroup:map_chunks and friends are absent: no CLI command calls them.
_COMMON_SITES = (
    "numth:factor", "numth:is_prime", "numth:primes_in",
    "dependence:member_mod", "dependence:detect_dependence",
    "support:map_chunks", "dependence:map_chunks", "support:split_chunks",
    "dependence:split_chunks", "support:merge_scan_results", "dependence:merge_scan_results",
    "cli:parse_args", "cli:run", "cli:render",
)
EXPECTED_SITES = {
    "mul-window": _COMMON_SITES + (
        "numth:multiplicative_order", "numth:integer_kernel",
        "mwgroup.MultiplicativeGroup:order_mod", "mwgroup.MultiplicativeGroup:good_prime",
        "dependence:exact_membership_multiplicative", "support:scan_erdos_union",
        "primesearch:pattern_density", "primesearch:map_chunks", "primesearch:split_chunks",
    ),
    "ec-window": _COMMON_SITES + (
        "mwgroup.EllipticGroup:group_order_mod", "mwgroup.EllipticGroup:order_mod",
        "mwgroup.EllipticGroup:good_prime", "dependence:subgroup_closure_mod",
        "support:scan_corrales_schoof", "primesearch:pattern_density",
        "primesearch:map_chunks", "primesearch:split_chunks",
    ),
    # Every site but pattern_density: the stream asks find-primes for hits,
    # not densities.
    "query-stream": tuple(
        f"{ns}:{attr}" for _, attr, callers in LAYERS.values() for ns in callers
        if ns != "mwgroup" and attr != "pattern_density"
    ),
}
EXPECTED_DISPATCH_SITES = ("support:map_chunks", "dependence:map_chunks", "primesearch:map_chunks")

# Shares of one command's scan loop (its map_chunks span) recorded in
# ROADMAP.md (2 cores, Python 3.11), and how far this trace may differ from
# them before the check reports a mismatch. The check informs; it does not
# gate, since a faster layer is meant to move its share.
PROFILE_REFERENCE = (
    ("mul-window", "support-check", "factor", 0.40),
    ("ec-window", "cs-check", "point_count", 0.88),
    ("ec-window", "detect", "closure", 0.97),
)
PROFILE_TOLERANCE = 0.15
POOL_MODE_CODE = {"parallel": 1, "serial": 2, "fallback": 3}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Processes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MWLAB_WORKERS", None)  # worker counts come from argv only
    return env


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args: list[str], stdout_path: Path) -> dict:
    """Run one child to completion in its own process group; its stdout and
    stderr go to files. Returns wall time spawn-to-exit, exit code and
    ru_maxrss."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        actions = [
            (os.POSIX_SPAWN_CLOSE, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        t0 = monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], _env(),
                             file_actions=actions, setpgroup=0)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        t1 = monotonic()
    return {
        "spawned_at": t0,
        "wall": t1 - t0,
        "code": os.waitstatus_to_exitcode(status),
        "rss_mb": usage.ru_maxrss / 1024,
    }


def run_child(job: dict, tag: str) -> tuple[dict, dict]:
    """Run bench/child.py on a job; returns (its result, the spawn record)."""
    job = {"src": str(SRC), "warmup": None, "trace": None,
           "min_passes": 1, "max_passes": 1, "seconds": 0, **job}
    job_path, result_path = RESULTS / f"{tag}.job.json", RESULTS / f"{tag}.result.json"
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)
    proc = spawn([str(BENCH / "child.py"), str(job_path), str(result_path)], RESULTS / f"{tag}.out")
    if proc["code"] != 0 or not result_path.exists():
        log = (RESULTS / f"{tag}.err").read_text()[-2000:]
        raise BenchError(f"bench/child.py exited {proc['code']} on {tag}\n{log}")
    return json.loads(result_path.read_text()), proc


def run_cli(argv: list[str], tag: str) -> dict:
    """One command line in a fresh interpreter, as a user runs it."""
    out_path = RESULTS / f"{tag}.out"
    proc = spawn(["-m", "mwlab", *argv], out_path)
    text = out_path.read_text().rstrip("\n")
    return {**proc, "text": text, "sha": digest(text)}


def setup_times(stream: bool, refs: list[float]) -> list[float]:
    """Spawn until mwlab is imported and ready. For the stream, ready means
    the worker pool is up and the warm-up query has returned. A reference
    sample taken before each set-up is appended to refs."""
    samples = []
    for i in range(SETUP_PROBES + 1):  # the first one only warms file caches
        refs.append(reference.sample())
        if stream:
            res, proc = run_child(
                {"warmup": [*WARMUP.split(), "--workers", str(STREAM_WORKERS)], "queries": [], "max_passes": 0},
                "setup",
            )
            ready = res["ready_at"]
        else:
            code = "import time, mwlab.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
            proc = spawn(["-c", code], RESULTS / "setup.out")
            if proc["code"] != 0:
                raise BenchError("cannot import mwlab from src/")
            ready = float((RESULTS / "setup.out").read_text())
        if i:
            samples.append(ready - proc["spawned_at"])
    return samples


# ---------------------------------------------------------------------------
# Checking


class Ledger:
    """Counts attempted and failed queries and lists each failure."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.attempted = 0
        self.failures: list[dict] = []
        self._first: dict[str, dict] = {}

    def record(self, query, answer: dict, where: str) -> None:
        """Check one answer. The first answer to an argv gets the full
        oracle; later ones must repeat it byte for byte."""
        self.attempted += 1 + ("verify" in answer)
        first = self._first.get(query.key)
        if first is None:
            failures = self.oracle.check(query, answer)
            self._first[query.key] = {"answer": answer, "failures": failures}
        else:
            failures = first["failures"]
            if (answer["sha"], answer["code"]) != (first["answer"]["sha"], first["answer"]["code"]) or (
                answer.get("verify", {}).get("sha") != first["answer"].get("verify", {}).get("sha")
            ):
                failures = failures + [("determinism", "answer differs from the first answer to this argv")]
            answer = first["answer"]
        if failures:
            known = Oracle.known_defect(query, answer, failures)
            self.failures.append({
                "where": where,
                "argv": query.key,
                "exit": answer["code"],
                "checks": [f"{check}: {msg}" for check, msg in failures],
                "known_defect": KNOWN_DEFECT if known else None,
            })

    @property
    def correct(self) -> bool:
        return all(f["known_defect"] for f in self.failures)


def verify_window_witness(query, answer: dict) -> None:
    """Window commands run as real command lines, so a witness is re-checked
    by a second command line with --verify."""
    if answer["text"] and query.argv[0] in VERIFIABLE:
        w = witness(answer["text"])
        if w:
            answer["verify"] = run_cli([*query.with_workers(1), "--verify", f"{w[0]}:{w[1]}"], "verify")


# ---------------------------------------------------------------------------
# Timed runs


def quantile(values: list[float], q: float) -> float:
    """Inclusive-method percentile q in (0, 1)."""
    cut = statistics.quantiles(values, n=100, method="inclusive")
    return cut[round(q * 100) - 1]


def end_to_end(setup, passes, goods: int, per_pass: int, rss_mb: float, scale: float) -> dict:
    """The end-to-end metrics from the setup times and, per pass, the latency
    of each command or query in it, all multiplied by scale."""
    pass_times = [scale * sum(p) for p in passes]
    latencies = [scale * t for p in passes for t in p]
    run_s = statistics.median(pass_times)
    return {
        "setup_s": scale * statistics.median(setup),
        "run_s": run_s,
        "good_primes_per_s": goods / run_s,
        "queries_per_s": per_pass / run_s,
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p95_ms": 1000 * quantile(latencies, 0.95),
        "peak_rss_mb": rss_mb,
    }


def scaled_metrics(setup, passes, refs, *args) -> tuple[dict, dict]:
    """Metrics scaled by the run's median reference-kernel time (see
    bench/reference.py), and the record of the raw samples behind them."""
    ref = statistics.median(refs)
    n = sum(len(p) for p in passes)
    detail = {
        "setup_samples": setup,
        "passes": passes,
        "reference_samples": refs,
        "reference_median_s": ref,
        "raw_metrics": end_to_end(setup, passes, *args, 1.0),
        "latency_samples": n,
        # Highest whole percentile with at least ten samples above it.
        "latency_top_percentile": max(0, (100 * (n - 10)) // n),
    }
    return end_to_end(setup, passes, *args, reference.NOMINAL_S / ref), detail


def timed_window(name: str, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    queries = window_commands(name)
    rng = random.Random(f"{name}:{seed}")
    refs: list[float] = []
    setup = setup_times(False, refs)
    passes, rss, order = [], [], []
    began = monotonic()
    while True:
        walls, peak = [], 0.0
        for q in rng.sample(queries, len(queries)):
            refs.append(reference.sample())
            answer = run_cli(q.with_workers(1), "cli")
            verify_window_witness(q, answer)
            ledger.record(q, answer, f"pass {len(passes)}")
            walls.append(answer["wall"])
            peak = max(peak, answer["rss_mb"])
            order.append(q.key)
        passes.append(walls)
        rss.append(peak)
        elapsed = monotonic() - began
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    goods = sum(ledger.oracle.good_primes(q.spec) for q in queries)
    metrics, detail = scaled_metrics(setup, passes, refs, goods, len(queries), statistics.median(rss))
    detail.update({"order": order, "good_primes_per_pass": goods, "workers": 1})
    return metrics, detail


def timed_stream(seed: int, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    stream = query_stream(seed)
    refs: list[float] = []
    setup = setup_times(True, refs)
    res, proc = run_child(
        {
            "warmup": [*WARMUP.split(), "--workers", str(STREAM_WORKERS)],
            "queries": [q.with_workers(STREAM_WORKERS) for q in stream],
            "seconds": seconds,
            "min_passes": MIN_PASSES,
            "max_passes": 10_000,
            "reference": True,
        },
        "stream",
    )
    passes = []
    for i, entries in enumerate(res["passes"]):
        for q, entry in zip(stream, entries):
            ledger.record(q, entry, f"pass {i}")
        passes.append([t for e in entries for t in (e["t"], e.get("verify", {}).get("t")) if t is not None])
    goods = sum(ledger.oracle.good_primes(q.spec) for q in stream)
    metrics, detail = scaled_metrics(setup, passes, refs + res["refs"], goods, len(passes[0]), proc["rss_mb"])
    detail.update({"good_primes_per_pass": goods, "pool_mode": res["pool_mode"],
                   "workers": STREAM_WORKERS, "stream": [q.key for q in stream]})
    return metrics, detail


# ---------------------------------------------------------------------------
# Traced run


def _merge_trace(summaries: list[dict]) -> dict:
    merged = {"metrics": {}, "sites": {}, "extras": {}, "spans": 0,
              "cache": {"factor": [0, 0], "curve_order": [0, 0]}, "profile": {}}
    for s in summaries:
        for name, m in s["metrics"].items():
            t = merged["metrics"].setdefault(name, {"calls": 0, "self_s": 0.0})
            t["calls"] += m["calls"]
            t["self_s"] += m["self_s"]
        for key, calls in s["sites"].items():
            merged["sites"][key] = merged["sites"].get(key, 0) + calls
        for key, val in s["extras"].items():
            merged["extras"][key] = merged["extras"].get(key, 0) + val
        for key in merged["cache"]:
            merged["cache"][key] = [a + b for a, b in zip(merged["cache"][key], s["cache"][key])]
        for key, per_query in s["profile"].items():
            merged["profile"][key] = merged["profile"].get(key, 0.0) + sum(per_query.values())
        merged["spans"] += s["spans"]
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, dispatch: dict, pool_mode: str, traced_s: float, untraced_s: float) -> dict:
    out = {}
    for name in LAYERS:
        m = trace["metrics"].get(name, {"calls": 0, "self_s": 0.0})
        if name in DISPATCH:
            m = dispatch["metrics"].get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = m["calls"]
        out[f"{name}.self_s"] = m["self_s"]
    ex, dx = trace["extras"], dispatch["extras"]
    for name in ("mwgroup.EllipticGroup.good_prime", "mwgroup.MultiplicativeGroup.good_prime", "dependence.member_mod"):
        out[f"{name}.true_ratio"] = _ratio(ex.get(f"{name}.true", 0), out[f"{name}.calls"])
    out["numth.factor.cache_hit_ratio"] = _ratio(trace["cache"]["factor"][0], sum(trace["cache"]["factor"]))
    out["mwgroup.EllipticGroup.group_order_mod.cache_hit_ratio"] = _ratio(
        trace["cache"]["curve_order"][0], sum(trace["cache"]["curve_order"])
    )
    out["numth.primes_in.primes_out"] = ex.get("numth.primes_in.primes_out", 0)
    out["mwgroup.subgroup_closure_mod.points_out"] = ex.get("mwgroup.subgroup_closure_mod.points_out", 0)
    out["parallel.map_chunks.tasks"] = dx.get("parallel.map_chunks.tasks", 0)
    out["parallel.map_chunks.primes_examined"] = dx.get("parallel.map_chunks.primes_examined", 0)
    out["parallel.map_chunks.useful_ratio"] = _ratio(
        dx.get("parallel.map_chunks.primes_useful", 0), dx.get("parallel.map_chunks.primes_examined", 0)
    )
    out["parallel.pool_mode"] = POOL_MODE_CODE[pool_mode]
    for key in ("factor", "point_count", "closure"):
        out[f"profile.{key}_share"] = _ratio(trace["profile"].get(key, 0.0), traced_s)
    out["trace.traced_s"] = traced_s
    out["trace.untraced_s"] = untraced_s
    out["trace.overhead_ratio"] = traced_s / untraced_s - 1
    out["trace.spans"] = trace["spans"]
    return out


def _check_sites(workload: str, sites: dict, expected) -> None:
    missed = [key for key in expected if not sites.get(key)]
    if missed:
        raise TraceError(f"{workload}: traced wrappers never hit: {', '.join(missed)}; "
                         f"the trace no longer sees these layers, update bench/tracer.py")


def _latency(entries: list[dict]) -> float:
    return sum(e["t"] + e.get("verify", {}).get("t", 0.0) for e in entries)


def traced_window(name: str, ledger: Ledger) -> tuple[dict, dict]:
    queries = window_commands(name)
    spans_dir = RESULTS / "spans"
    spans_dir.mkdir(exist_ok=True)
    summaries, untraced_s, traced_s, per_command = [], 0.0, 0.0, []
    for i, q in enumerate(queries):
        base = {"queries": [q.with_workers(1)]}
        plain, _ = run_child(base, "untraced")
        traced, _ = run_child({**base, "trace": list(LAYERS),
                               "spans_path": str(spans_dir / f"{name}-{i}.spans")}, "traced")
        for res, where in ((plain, "untraced"), (traced, "traced")):
            ledger.record(q, res["passes"][0][0], where)
        t_plain, t_traced = _latency(plain["passes"][0]), _latency(traced["passes"][0])
        untraced_s += t_plain
        traced_s += t_traced
        summaries.append(traced["trace"])
        per_command.append({"argv": q.key, "untraced_s": t_plain, "traced_s": t_traced,
                            "profile": {k: sum(v.values()) for k, v in traced["trace"]["profile"].items()},
                            "cache": traced["trace"]["cache"]})
    trace = _merge_trace(summaries)
    _check_sites(name, trace["sites"], EXPECTED_SITES[name])
    if name == "mul-window":
        factor_self_test(queries, per_command, ledger.oracle)
    # Every command ran in its own interpreter at --workers 1; the last
    # one's pool mode stands for all.
    metrics = layer_metrics(trace, trace, traced["pool_mode"], traced_s, untraced_s)
    detail = {"per_command": per_command, "profile_check": profile_check(name, per_command),
              "sites": trace["sites"], "workers": 1}
    return metrics, detail


def factor_self_test(queries, per_command, oracle: Oracle) -> None:
    """Cold-start isolation: a fresh interpreter must factor every p-1 of the
    Erdos scan's good primes once, so the factor cache misses equal the
    distinct p-1 values. Fewer misses mean state leaked in from elsewhere."""
    q, cmd = next((q, c) for q, c in zip(queries, per_command) if q.argv[0] == "support-check")
    lo, hi = q.spec["window"]
    bad = set(oracle.bad_primes(q.spec))
    expected = len({p - 1 for p in oracle.primes(lo, hi) if p not in bad})
    misses = cmd["cache"]["factor"][1]
    if misses != expected:
        raise BenchError(f"self-test: factor missed {misses} times on {q.key}, "
                         f"expected {expected} distinct p-1 values")


def profile_check(name: str, per_command: list[dict]) -> list[dict]:
    out = []
    for workload, command, key, expected in PROFILE_REFERENCE:
        if workload != name:
            continue
        cmd = next(c for c in per_command if c["argv"].split()[0] == command)
        share = cmd["profile"][key] / cmd["profile"]["scan"]
        out.append({"command": cmd["argv"], "layer": key, "share": share, "roadmap": expected,
                    "tolerance": PROFILE_TOLERANCE, "within": abs(share - expected) <= PROFILE_TOLERANCE})
    return out


def traced_stream(seed: int, ledger: Ledger) -> tuple[dict, dict]:
    stream = query_stream(seed)
    warmup = WARMUP.split()
    serial = {"queries": [q.with_workers(1) for q in stream], "warmup": [*warmup, "--workers", "1"]}
    plain, _ = run_child(serial, "untraced")
    traced, _ = run_child({**serial, "trace": list(LAYERS),
                           "spans_path": str(RESULTS / "spans" / "query-stream.spans")}, "traced")
    # Chunk dispatch only shows at the stream's own worker count; below
    # map_chunks the work runs in the pool, out of reach of the wrappers.
    dispatch, _ = run_child({"queries": [q.with_workers(STREAM_WORKERS) for q in stream],
                             "warmup": [*warmup, "--workers", str(STREAM_WORKERS)],
                             "trace": list(DISPATCH)}, "dispatch")
    for res, where in ((plain, "untraced"), (traced, "traced"), (dispatch, "dispatch")):
        for q, entry in zip(stream, res["passes"][0]):
            ledger.record(q, entry, where)
    trace = _merge_trace([traced["trace"]])
    disp = _merge_trace([dispatch["trace"]])
    _check_sites("query-stream", trace["sites"], EXPECTED_SITES["query-stream"])
    _check_sites("query-stream", disp["sites"], EXPECTED_DISPATCH_SITES)
    traced_s, untraced_s = _latency(traced["passes"][0]), _latency(plain["passes"][0])
    metrics = layer_metrics(trace, disp, dispatch["pool_mode"], traced_s, untraced_s)
    detail = {"sites": trace["sites"], "dispatch_sites": disp["sites"], "workers": 1,
              "dispatch_workers": STREAM_WORKERS, "stream": [q.key for q in stream]}
    return metrics, detail


# ---------------------------------------------------------------------------
# Reporting

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "good_primes_per_s": "1/s", "queries_per_s": "1/s",
    "query_p50_ms": "ms", "query_p95_ms": "ms", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("ratio") or stat.endswith("share"):
        return "ratio"
    if stat == "pool_mode":
        return "code"
    return "count"


def environment(seed: int, workload: str, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _git_head(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _git_head() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mwlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, oracle: Oracle) -> dict:
    ledger = Ledger(oracle)
    if trace:
        metrics, detail = (traced_stream(seed, ledger) if workload == "query-stream"
                           else traced_window(workload, ledger))
        units = {name: layer_unit(name) for name in metrics}
    elif workload == "query-stream":
        metrics, detail = timed_stream(seed, seconds, ledger)
    else:
        metrics, detail = timed_window(workload, seed, seconds, ledger)
    if not trace:
        units = END_TO_END_UNITS
    record = {
        "environment": environment(seed, workload, trace),
        "seconds": seconds,
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "failed_share": len(ledger.failures) / ledger.attempted,
        "failures": ledger.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
    }
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    return record


def print_summary(record: dict) -> None:
    env = record["environment"]
    print(f"# {env['workload']} seed={env['seed']} trace={int(env['trace'])} "
          f"python={env['python']} nproc={env['nproc']} commit={env['commit'] or env['source_sha256'][:12]}")
    for name, m in record["metrics"].items():
        print(f"{env['workload']:13s} {name:52s} {m['value']:.6g} {m['unit']}")
    print(f"{env['workload']:13s} {'failed_share':52s} {record['failed_share']:.6g} "
          f"({record['failed']}/{record['attempted']})")
    by_query: dict[str, list[dict]] = {}
    for f in record["failures"]:
        by_query.setdefault(f["argv"], []).append(f)
    for argv, fs in by_query.items():
        f = fs[0]
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"  failed x{len(fs)}: {argv} -> exit {f['exit']}: {'; '.join(f['checks'])} ({tag})")
    detail = record["detail"]
    if "pool_mode" in detail:
        print(f"  pool_mode={detail['pool_mode']}")
    if "raw_metrics" in detail:
        print(f"  latency samples={detail['latency_samples']}; highest percentile with 10 samples "
              f"above it: p{detail['latency_top_percentile']}")
        print(f"  times above are scaled to a reference-kernel time of {reference.NOMINAL_S} s; "
              f"measured median {detail['reference_median_s']:.4f} s; unscaled: "
              + ", ".join(f"{k}={v:.6g}" for k, v in detail["raw_metrics"].items() if k != "peak_rss_mb"))
    for p in detail.get("profile_check", []):
        print(f"  profile {p['layer']} share of `{p['command']}`: {p['share']:.3f} "
              f"(ROADMAP {p['roadmap']:.2f} +/- {p['tolerance']}: {'ok' if p['within'] else 'MISMATCH'})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mwlab" / "__init__.py").is_file():
        print(f"error: no mwlab sources at {SRC.relative_to(ROOT)}/mwlab", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    oracle = Oracle(load_digests())
    records = []
    try:
        for workload in workloads:
            signal.alarm(RUN_LIMIT_S)
            records.append(run_workload(workload, args.seed, args.seconds, bool(args.trace), oracle))
            signal.alarm(0)
    except (BenchError, TraceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for record in records:
        print_summary(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['environment']['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
