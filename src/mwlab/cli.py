"""Command-line surface: parse inputs, dispatch to the checkers and
searches, emit deterministic structured reports.

Exit codes: 0 condition holds / certificate or witness found, 1 violated or
refuted (a witness is in the report), 2 inconclusive (empty search, bounded
search exhausted, recover scan exhausted), 64 usage error, 70 internal
error. Reports echo semantic inputs only (never worker counts), so identical
configurations give byte-identical output at any parallelism.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from functools import cache

from . import dependence, experiments, mwgroup, numth, primesearch, support
from .numth import PrimeRange
from .primesearch import ValuationPattern

OK, VIOLATED, INCONCLUSIVE, USAGE_ERROR, INTERNAL_ERROR = 0, 1, 2, 64, 70


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    command: str
    backend: object
    scan: PrimeRange | None
    fmt: str
    workers: int
    verify: tuple[int, int] | None
    payload: dict


def _split_points(text: str) -> list[str]:
    """Split a comma-separated list, honoring parentheses in curve points."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return [p for p in parts if p]


def _parse_backend(text: str):
    t = text.strip()
    try:
        if t in ("mul", "multiplicative", "qstar"):
            return mwgroup.MultiplicativeGroup()
        if t.startswith("S={") and t.endswith("}"):
            inner = t[3:-1].strip()
            primes = [int(p) for p in inner.split(",") if p.strip()] if inner else []
            return mwgroup.MultiplicativeGroup(primes)
        if t.startswith("ec:"):
            return mwgroup.EllipticGroup(mwgroup.WeierstrassCurve.parse(t))
    except ValueError as exc:
        raise UsageError(f"bad --backend {text!r}: {exc}") from exc
    raise UsageError(f"bad --backend {text!r} (use mul, S={{p1,p2}}, or ec:a1,a2,a3,a4,a6)")


def _parse_scan(text: str) -> PrimeRange:
    if ".." not in text:
        raise UsageError(f"bad --primes {text!r} (use lo..hi)")
    lo, _, hi = text.partition("..")
    try:
        return PrimeRange(int(lo), int(hi))
    except ValueError as exc:
        raise UsageError(f"bad --primes {text!r}: {exc}") from exc


def _parse_verify(text: str) -> tuple[int, int]:
    if ":" not in text:
        raise UsageError(f"bad --verify {text!r} (use v:n)")
    v, _, n = text.partition(":")
    try:
        v, n = int(v), int(n)
    except ValueError as exc:
        raise UsageError(f"bad --verify {text!r}") from exc
    if not numth.is_prime(v):
        raise UsageError(f"--verify prime {v} is not prime")
    if n < 1:
        raise UsageError(f"--verify n must be >= 1, got {n}")
    return v, n


@cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: `_Parser.error` raises,
    so parsing leaves no state behind in it."""
    parser = _Parser(prog="mwlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, backend=True):
        if backend:
            p.add_argument("--backend", default="mul")
        p.add_argument("--primes", default=None, help="scan window lo..hi")
        p.add_argument("--format", dest="fmt", default="json",
                       choices=("json", "csv", "text"))
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--verify", default=None,
                       help="v:n - recheck a reported witness instead of scanning")

    p = sub.add_parser("support-check", help="support-union condition on natural numbers")
    p.add_argument("--xs", required=True)
    p.add_argument("--ys", required=True)
    common(p, backend=False)

    p = sub.add_parser("cs-check", help="order-divisibility condition on two points")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    common(p)

    p = sub.add_parser("find-primes", help="primes realizing a valuation pattern")
    p.add_argument("--points", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--ks", required=True)
    p.add_argument("--max-hits", type=int, default=10)
    p.add_argument("--density", action="store_true",
                   help="report hit frequency over the window instead of hits")
    common(p)

    p = sub.add_parser("replay", help="witness hunt refuting the one-sided cover")
    p.add_argument("--p", required=True)
    p.add_argument("--qs", required=True)
    p.add_argument("--l", type=int, required=True)
    common(p)

    p = sub.add_parser("detect", help="membership hypothesis scan plus conclusion certificate")
    p.add_argument("--points", required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="generators of the subgroup")
    p.add_argument("--coeff-bound", type=int, default=20)
    common(p)

    p = sub.add_parser("recover", help="solve Q = d*P by reduced discrete logs")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    common(p)

    p = sub.add_parser("experiment", help="seeded randomized oracle-comparison suites")
    p.add_argument("--suite", required=True, choices=("erdos", "cs", "detect", "ec-detect"))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p, backend=False)

    return parser


def parse_args(argv: list[str]) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    backend = _parse_backend(ns.backend) if hasattr(ns, "backend") else mwgroup.MultiplicativeGroup()
    scan = _parse_scan(ns.primes) if ns.primes else None
    if scan is None and ns.command != "experiment":
        scan = PrimeRange(*backend.default_scan)
    workers = ns.workers
    if workers is None:
        text = os.environ.get("MWLAB_WORKERS", "1")
        try:
            workers = int(text)
        except ValueError as exc:
            raise UsageError(f"bad MWLAB_WORKERS {text!r} (need an integer)") from exc
    if workers < 1:
        raise UsageError("--workers must be >= 1")
    verify = _parse_verify(ns.verify) if getattr(ns, "verify", None) else None

    payload: dict = {}
    try:
        if ns.command == "support-check":
            payload["xs"] = tuple(int(x) for x in _split_points(ns.xs))
            payload["ys"] = tuple(int(y) for y in _split_points(ns.ys))
            if not payload["xs"] or not payload["ys"]:
                raise UsageError("--xs and --ys need at least one entry each")
            if any(v < 2 for v in payload["xs"] + payload["ys"]):
                raise UsageError("--xs and --ys entries must be >= 2")
        elif ns.command == "cs-check":
            payload["x"] = backend.parse_point(ns.x)
            payload["y"] = backend.parse_point(ns.y)
        elif ns.command == "find-primes":
            payload["points"] = [backend.parse_point(t) for t in _split_points(ns.points)]
            payload["pattern"] = ValuationPattern(
                ns.l, tuple(int(k) for k in _split_points(ns.ks))
            )
            if len(payload["pattern"].ks) != len(payload["points"]):
                raise UsageError("--ks needs one exponent per entry of --points")
            if ns.max_hits < 1:
                raise UsageError("--max-hits must be >= 1")
            payload["max_hits"] = ns.max_hits
            payload["density"] = ns.density
        elif ns.command == "replay":
            payload["P"] = backend.parse_point(ns.p)
            payload["Qs"] = [backend.parse_point(t) for t in _split_points(ns.qs)]
            if not numth.is_prime(ns.l):
                raise UsageError(f"--l {ns.l} is not prime")
            payload["l"] = ns.l
        elif ns.command == "detect":
            payload["Ps"] = [backend.parse_point(t) for t in _split_points(ns.points)]
            payload["generators"] = [backend.parse_point(t) for t in _split_points(ns.lam)]
            if ns.coeff_bound < 0:
                raise UsageError("--coeff-bound must be >= 0")
            payload["coeff_bound"] = ns.coeff_bound
        elif ns.command == "recover":
            payload["P"] = backend.parse_point(ns.p)
            payload["Q"] = backend.parse_point(ns.q)
        elif ns.command == "experiment":
            payload["suite"] = ns.suite
            payload["trials"] = ns.trials
            payload["seed"] = ns.seed
            if payload["trials"] < 0:
                raise UsageError("--trials must be >= 0")
    except (ValueError, OverflowError) as exc:
        raise UsageError(str(exc)) from exc

    return RunConfig(
        command=ns.command,
        backend=backend,
        scan=scan,
        fmt=ns.fmt,
        workers=workers,
        verify=verify,
        payload=payload,
    )


# ---------------------------------------------------------------------------
# Execution


def _encode_point(val):
    if isinstance(val, (str, int, bool)) or val is None:
        return val
    return val.encode()


def _encode_inputs(config: RunConfig) -> dict:
    out = {}
    for key, val in sorted(config.payload.items()):
        if key == "density":
            continue
        if isinstance(val, ValuationPattern):
            out[key] = {"l": val.l, "ks": list(val.ks)}
        elif isinstance(val, (list, tuple)):
            out[key] = [_encode_point(p) for p in val]
        else:
            out[key] = _encode_point(val)
    return out


def _envelope(config: RunConfig, outcome: dict) -> dict:
    return {
        "command": config.command,
        "backend": config.backend.encode(),
        "scan": {"lo": config.scan.lo, "hi": config.scan.hi} if config.scan else None,
        "inputs": _encode_inputs(config),
        "outcome": outcome,
    }


def _run_verify(config: RunConfig) -> tuple[int, dict]:
    v, n = config.verify
    pl = config.payload
    if config.command == "support-check":
        points = [mwgroup.MulPoint(x) for x in pl["xs"] + pl["ys"]]
        condition, inputs = "erdos_union", {"xs": pl["xs"], "ys": pl["ys"]}
    elif config.command == "cs-check":
        points = [pl["x"], pl["y"]]
        condition, inputs = "corrales_schoof", {"x": pl["x"], "y": pl["y"]}
    elif config.command == "replay":
        points = [pl["P"], *pl["Qs"]]
        condition, inputs = "thm2", {"P": pl["P"], "Qs": pl["Qs"]}
    elif config.command == "detect":
        points = [*pl["Ps"], *pl["generators"]]
    else:
        raise UsageError(f"--verify does not apply to {config.command}")
    if not config.backend.good_prime(points, v):
        raise UsageError(f"--verify prime {v} is a bad prime for these points")
    if config.command == "detect":
        subgroup = dependence.SubgroupSpec(tuple(pl["generators"]), config.backend)
        ok = dependence.verify_detect_witness(pl["Ps"], subgroup, v, n)
    else:
        ok = support.verify_witness(condition, inputs, v, n, backend=config.backend)
    outcome = {"verify": {"v": v, "n": n, "reproduced": bool(ok)}}
    return (OK if ok else INTERNAL_ERROR), outcome


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute a parsed configuration; returns (exit_code, report dict)."""
    if config.verify is not None:
        code, outcome = _run_verify(config)
        return code, _envelope(config, outcome)
    pl = config.payload
    if config.command == "support-check":
        report = support.scan_erdos_union(pl["xs"], pl["ys"], config.scan, config.workers)
        code = OK if report.verdict == "holds_on_scan" else VIOLATED
        return code, _envelope(config, {"report": report.to_dict()})
    if config.command == "cs-check":
        report = support.scan_corrales_schoof(
            pl["x"], pl["y"], config.backend, config.scan, config.workers
        )
        code = OK if report.verdict == "holds_on_scan" else VIOLATED
        return code, _envelope(config, {"report": report.to_dict()})
    if config.command == "find-primes":
        if pl["density"]:
            density = primesearch.pattern_density(
                pl["points"], pl["pattern"], config.backend, config.scan, config.workers
            )
            outcome = {
                "density": {
                    "hits": density.hits,
                    "scanned_good_primes": density.scanned_good_primes,
                    "ratio": density.ratio,
                    "inconclusive": density.inconclusive,
                }
            }
            return (INCONCLUSIVE if density.inconclusive else OK), _envelope(config, outcome)
        hits = primesearch.find_pattern_primes(
            pl["points"], pl["pattern"], config.backend, config.scan,
            pl["max_hits"], config.workers,
        )
        outcome = {
            "hits": [
                {"v": h.v, "orders": list(h.orders), "verified": h.verified}
                for h in hits
            ]
        }
        return (OK if hits else INCONCLUSIVE), _envelope(config, outcome)
    if config.command == "replay":
        witness = primesearch.replay_step1(
            pl["P"], pl["Qs"], pl["l"], config.backend, config.scan, config.workers
        )
        outcome = {"witness": witness.to_dict() if witness else None}
        return (OK if witness else INCONCLUSIVE), _envelope(config, outcome)
    if config.command == "detect":
        subgroup = dependence.SubgroupSpec(tuple(pl["generators"]), config.backend)
        result = dependence.detect_dependence(
            pl["Ps"], subgroup, config.scan, config.workers, pl["coeff_bound"]
        )
        outcome = {
            "report": result.report.to_dict(),
            "certificate": result.certificate.to_dict() if result.certificate else None,
            "certified_index": result.certified_index,
            "note": result.note,
        }
        if result.report.verdict == "violated":
            return VIOLATED, _envelope(config, outcome)
        return (OK if result.certificate else INCONCLUSIVE), _envelope(config, outcome)
    if config.command == "recover":
        result = dependence.recover_exponent(pl["P"], pl["Q"], config.backend, config.scan)
        outcome = {"d": result.d, "detail": result.detail}
        code = {"found": OK, "refuted": VIOLATED, "inconclusive": INCONCLUSIVE}[result.status]
        return code, _envelope(config, outcome)
    if config.command == "experiment":
        aggregate = experiments.run_suite(
            pl["suite"], pl["trials"], pl["seed"], config.scan, config.workers
        )
        code = OK if aggregate["anomalies"] == 0 else VIOLATED
        return code, _envelope(config, {"experiment": aggregate})
    raise UsageError(f"unknown command {config.command!r}")


# ---------------------------------------------------------------------------
# Rendering


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2)
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


def _csv_fields(report: dict) -> tuple[str, str, object, object, str]:
    outcome = report["outcome"]
    if "report" in outcome and outcome["report"]:
        rep = outcome["report"]
        w = rep["witness"] or {}
        return (rep["condition_id"], rep["verdict"], w.get("v", ""), w.get("n", ""),
                w.get("detail", ""))
    if "witness" in outcome:
        w = outcome["witness"] or {}
        verdict = "found" if outcome["witness"] else "absent"
        return (report["command"], verdict, w.get("v", ""), w.get("n", ""), w.get("detail", ""))
    if "d" in outcome:
        verdict = "found" if outcome["d"] is not None else "absent"
        return (report["command"], verdict, "", outcome["d"] if outcome["d"] is not None else "",
                outcome["detail"])
    if "hits" in outcome:
        first = outcome["hits"][0] if outcome["hits"] else {}
        return (report["command"], f"hits={len(outcome['hits'])}", first.get("v", ""), "",
                "orders=" + str(first.get("orders", "")))
    if "experiment" in outcome:
        agg = outcome["experiment"]
        return (f"experiment:{agg['suite']}", f"anomalies={agg['anomalies']}",
                agg["trials"], "", "")
    if "verify" in outcome:
        v = outcome["verify"]
        return (report["command"], "reproduced" if v["reproduced"] else "NOT-reproduced",
                v["v"], v["n"], "")
    if "density" in outcome:
        d = outcome["density"]
        return (report["command"], "inconclusive" if d["inconclusive"] else "measured",
                d["hits"], d["scanned_good_primes"], f"ratio={d['ratio']}")
    return (report["command"], "?", "", "", "")


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("condition_id", "verdict", "v", "n", "detail"))
    writer.writerow(_csv_fields(report))
    return buf.getvalue().rstrip("\n")


def _render_text(report: dict) -> str:
    condition_id, verdict, v, n, detail = _csv_fields(report)
    lines = [f"{report['command']} [{report['backend']}]"]
    if report["scan"]:
        lines.append(f"  primes {report['scan']['lo']}..{report['scan']['hi']}")
    lines.append(f"  {condition_id}: {verdict}")
    if v != "":
        lines.append(f"  witness v={v} n={n}")
    if detail:
        lines.append(f"  {detail}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if config.scan and config.verify is None:
        print(
            f"mwlab: {config.command} scanning primes {config.scan.lo}..{config.scan.hi}",
            file=sys.stderr,
        )
    try:
        code, report = run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    print(render(report, config.fmt))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
