"""Runs mwlab queries inside one fresh interpreter, for bench/run.py.

    python3 bench/child.py JOB.json RESULT.json

The job names the queries, an optional warm-up query, how many passes over
the queries to make and for how long, and which functions to trace. The
result carries the moment the process was ready, each query's exit code,
stdout digest and latency, the worker-pool mode and, when traced, the
per-layer summary. Every query goes through cli.parse_args, cli.run and
cli.render, as the command line does.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import reference
from oracle import VERIFIABLE, witness
from tracer import Tracer

REFERENCE_EVERY = 50


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_query(cli, argv: list[str]) -> dict:
    """One query as the command line runs it; latency covers parse to render."""
    error = None
    t0 = time.perf_counter()
    try:
        config = cli.parse_args(argv)
        code, report = cli.run(config)
        text = cli.render(report, config.fmt)
    except cli.UsageError as exc:
        code, text, error = cli.USAGE_ERROR, "", f"usage error: {exc}"
    except (ValueError, ArithmeticError) as exc:
        code, text, error = cli.INTERNAL_ERROR, "", f"error: {exc}"
    latency = time.perf_counter() - t0
    out = {"code": code, "sha": digest(text), "t": latency, "text": text}
    if error:
        out["error"] = error
    return out


def run_pass(cli, queries, tracer, keep_text: bool, refs: list | None) -> list[dict]:
    """Closed loop, one client: each query is sent when the last returns.
    A witness is re-checked at once by its `--verify v:n` query. When refs
    is a list, a reference-kernel sample is appended to it every
    REFERENCE_EVERY queries."""
    entries = []
    for qid, argv in enumerate(queries):
        if tracer is not None:
            tracer.query_id = qid
        if refs is not None and qid % REFERENCE_EVERY == 0:
            refs.append(reference.sample())
        entry = run_query(cli, argv)
        if argv[0] in VERIFIABLE and entry["text"]:
            w = witness(entry["text"])
            if w is not None:
                check = run_query(cli, [*argv, "--verify", f"{w[0]}:{w[1]}"])
                entry["verify"] = check
                if not keep_text:
                    del check["text"]
        if not keep_text:
            del entry["text"]
        entries.append(entry)
    return entries


def pool_mode(parallel) -> str:
    if parallel._BROKEN:
        return "fallback"
    return "parallel" if parallel._POOLS else "serial"


def main(job_path: str, result_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from mwlab import _parallel, cli, dependence, mwgroup, numth, primesearch, reports, support

    if job.get("warmup"):
        run_query(cli, job["warmup"])
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if job.get("trace"):
        modules = {
            "_parallel": _parallel, "cli": cli, "dependence": dependence, "mwgroup": mwgroup,
            "numth": numth, "primesearch": primesearch, "reports": reports, "support": support,
        }
        factor_cache, curve_cache = numth.factor, mwgroup._curve_order_mod
        factor0, curve0 = factor_cache.cache_info(), curve_cache.cache_info()
        tracer = Tracer()
        tracer.install(modules, job["trace"])

    passes: list[list[dict]] = []
    refs = [] if job.get("reference") else None
    began = time.perf_counter()
    while len(passes) < job["max_passes"]:
        passes.append(run_pass(cli, job["queries"], tracer, not passes, refs))
        elapsed = time.perf_counter() - began
        # Start another pass only if it should end within the time given.
        if len(passes) >= job["min_passes"] and elapsed * (len(passes) + 1) / len(passes) > job["seconds"]:
            break

    result = {"ready_at": ready_at, "passes": passes, "pool_mode": pool_mode(_parallel), "refs": refs}
    if tracer is not None:
        factor1, curve1 = factor_cache.cache_info(), curve_cache.cache_info()
        result["trace"] = tracer.summary()
        result["trace"]["cache"] = {
            "factor": [factor1.hits - factor0.hits, factor1.misses - factor0.misses],
            "curve_order": [curve1.hits - curve0.hits, curve1.misses - curve0.misses],
        }
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
