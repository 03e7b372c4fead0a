"""Command-line surface: parse inputs, dispatch to the checkers and
searches, emit deterministic structured reports.

Exit codes: 0 condition holds / certificate or witness found, 1 violated or
refuted (a witness is in the report), 2 inconclusive (empty search, bounded
search exhausted, recover scan exhausted), 64 usage error, 70 internal
error, 74 stdout closed before the report was written (no verdict given).
Reports echo semantic inputs only (never worker counts), so identical
configurations give byte-identical output at any parallelism.

A command imports only the modules it runs: the checkers, searches and
suites are imported in the branch that calls them, the Q* backend only by
a Q* command, and csv only when a report is rendered as csv.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
from collections import namedtuple
from functools import cache

from . import numth
from .numth import PrimeRange

OK, VIOLATED, INCONCLUSIVE, USAGE_ERROR, INTERNAL_ERROR, IO_ERROR = 0, 1, 2, 64, 70, 74


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class RunConfig(
    namedtuple("RunConfig", "command backend scan fmt workers verify payload")
):
    """A parsed command line: what `run` executes and how `render` prints it."""

    __slots__ = ()


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
        if t.startswith("ec:"):
            from .elliptic import EllipticGroup, WeierstrassCurve

            return EllipticGroup(WeierstrassCurve.parse(t))
        from .mwgroup import MultiplicativeGroup

        if t in ("mul", "multiplicative", "qstar"):
            return MultiplicativeGroup()
        if t.startswith("S={") and t.endswith("}"):
            inner = t[3:-1].strip()
            primes = [int(p) for p in inner.split(",") if p.strip()] if inner else []
            return MultiplicativeGroup(primes)
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
    if v >= numth.PSI_13:
        raise UsageError(f"--verify prime {v} is not below {numth.PSI_13}, the proven bound")
    if not numth.is_prime(v):
        raise UsageError(f"--verify prime {v} is not prime")
    if n < 1:
        raise UsageError(f"--verify n must be >= 1, got {n}")
    return v, n


# Each command's help line, then its arguments in the order its help lists
# them. Both the one-command parsers and the full parser are built from here.
_REQUIRED, _REQUIRED_INT = {"required": True}, {"type": int, "required": True}
_BACKEND = ("--backend", {"default": "mul"})
_COMMON = (
    ("--primes", {"help": "scan window lo..hi"}),
    ("--format", {"dest": "fmt", "default": "json", "choices": ("json", "csv", "text")}),
    ("--workers", {"type": int}),
)
# Only the commands whose reports carry a witness can recheck one.
_VERIFY = ("--verify", {"help": "v:n - recheck a reported witness instead of scanning"})
_COMMANDS = {
    "support-check": ("support-union condition on natural numbers",
                      ("--xs", _REQUIRED), ("--ys", _REQUIRED), *_COMMON, _VERIFY),
    "cs-check": ("order-divisibility condition on two points",
                 ("--x", _REQUIRED), ("--y", _REQUIRED), _BACKEND, *_COMMON, _VERIFY),
    "find-primes": ("primes realizing a valuation pattern",
                    ("--points", _REQUIRED), ("--l", _REQUIRED_INT), ("--ks", _REQUIRED),
                    ("--max-hits", {"type": int, "default": 10}),
                    ("--density", {"action": "store_true", "help":
                                   "report hit frequency over the window instead of hits"}),
                    _BACKEND, *_COMMON),
    "replay": ("witness hunt refuting the one-sided cover",
               ("--p", _REQUIRED), ("--qs", _REQUIRED), ("--l", _REQUIRED_INT),
               _BACKEND, *_COMMON, _VERIFY),
    "detect": ("membership hypothesis scan plus conclusion certificate",
               ("--points", _REQUIRED),
               ("--lambda", {"dest": "lam", "required": True,
                             "help": "generators of the subgroup"}),
               ("--coeff-bound", {"type": int, "default": 20}), _BACKEND, *_COMMON, _VERIFY),
    "recover": ("solve Q = d*P by reduced discrete logs",
                ("--p", _REQUIRED), ("--q", _REQUIRED), _BACKEND, *_COMMON),
    "experiment": ("seeded randomized oracle-comparison suites",
                   ("--suite", {"required": True,
                                "choices": ("erdos", "cs", "detect", "ec-detect")}),
                   ("--trials", _REQUIRED_INT), ("--seed", {"type": int, "default": 0}),
                   *_COMMON),
}


def _add_arguments(parser: _Parser, command: str) -> _Parser:
    for flag, kwargs in _COMMANDS[command][1:]:
        parser.add_argument(flag, **kwargs)
    return parser


@cache
def _command_parser(command: str) -> _Parser:
    """One command's parser, built the first time the command is parsed;
    the same parser the full one has for it."""
    return _add_arguments(_Parser(prog=f"mwlab {command}"), command)


@cache
def _build_parser() -> _Parser:
    """The full parser, for a line that names no command: its top-level
    help and errors. Built once per process: `_Parser.error` raises, so
    parsing leaves no state behind in it, nor in a one-command parser."""
    parser = _Parser(prog="mwlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, *_) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_line), command)
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    if argv and argv[0] in _COMMANDS:
        ns = _command_parser(argv[0]).parse_args(argv[1:])
        ns.command = argv[0]
    else:
        ns = _build_parser().parse_args(argv)
    backend = _parse_backend(getattr(ns, "backend", "mul"))
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
            from .primesearch import ValuationPattern

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
            if not payload["Qs"]:
                raise UsageError("--qs needs at least one entry")
            if not numth.is_prime(ns.l):
                raise UsageError(f"--l {ns.l} is not prime")
            payload["l"] = ns.l
        elif ns.command == "detect":
            payload["Ps"] = [backend.parse_point(t) for t in _split_points(ns.points)]
            if not payload["Ps"]:
                raise UsageError("--points needs at least one entry")
            payload["generators"] = [backend.parse_point(t) for t in _split_points(ns.lam)]
            if ns.coeff_bound < 0:
                raise UsageError("--coeff-bound must be >= 0")
            payload["coeff_bound"] = ns.coeff_bound
        elif ns.command == "recover":
            payload["P"] = backend.parse_point(ns.p)
            payload["Q"] = backend.parse_point(ns.q)
            if not backend.is_identity(payload["Q"]) and backend.is_torsion(payload["P"]):
                raise UsageError(f"recover needs a nontorsion base point, got --p {ns.p}")
        elif ns.command == "experiment":
            if ns.suite == "cs" and scan is not None:
                raise UsageError("--suite cs draws its own primes; --primes does not apply")
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
        if key == "pattern":
            out[key] = {"l": val.l, "ks": list(val.ks)}
        elif isinstance(val, (list, tuple)):
            out[key] = [_encode_point(p) for p in val]
        else:
            out[key] = _encode_point(val)
    return out


def _run_verify(config: RunConfig) -> tuple[int, dict]:
    v, n = config.verify
    pl = config.payload
    if config.command == "support-check":
        from .mwgroup import MulPoint

        points = [MulPoint(x) for x in pl["xs"] + pl["ys"]]
        condition, inputs = "erdos_union", {"xs": pl["xs"], "ys": pl["ys"]}
    elif config.command == "cs-check":
        points = [pl["x"], pl["y"]]
        condition, inputs = "corrales_schoof", {"x": pl["x"], "y": pl["y"]}
    elif config.command == "replay":
        points = [pl["P"], *pl["Qs"]]
        condition, inputs = "thm2", {"P": pl["P"], "Qs": pl["Qs"]}
    else:  # detect
        points = [*pl["Ps"], *pl["generators"]]
    if not config.backend.good_prime(points, v):
        raise UsageError(f"--verify prime {v} is a bad prime for these points")
    if config.command == "detect":
        from . import dependence

        subgroup = dependence.SubgroupSpec(tuple(pl["generators"]), config.backend)
        ok = dependence.verify_detect_witness(pl["Ps"], subgroup, v, n)
    else:
        from . import support

        ok = support.verify_witness(condition, inputs, v, n, backend=config.backend)
    outcome = {"verify": {"v": v, "n": n, "reproduced": bool(ok)}}
    return (OK if ok else INTERNAL_ERROR), outcome


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute a parsed configuration; returns (exit_code, report dict)."""
    pl = config.payload
    if config.verify is not None:
        code, outcome = _run_verify(config)
    elif config.command == "support-check":
        from . import support

        report = support.scan_erdos_union(pl["xs"], pl["ys"], config.scan, config.workers)
        code = OK if report.verdict == "holds_on_scan" else VIOLATED
        outcome = {"report": report.to_dict()}
    elif config.command == "cs-check":
        from . import support

        report = support.scan_corrales_schoof(
            pl["x"], pl["y"], config.backend, config.scan, config.workers
        )
        code = OK if report.verdict == "holds_on_scan" else VIOLATED
        outcome = {"report": report.to_dict()}
    elif config.command == "find-primes" and pl["density"]:
        from . import primesearch

        density = primesearch.pattern_density(
            pl["points"], pl["pattern"], config.backend, config.scan, config.workers
        )
        code = INCONCLUSIVE if density.inconclusive else OK
        outcome = {
            "density": {
                "hits": density.hits,
                "scanned_good_primes": density.scanned_good_primes,
                "ratio": density.ratio,
                "inconclusive": density.inconclusive,
            }
        }
    elif config.command == "find-primes":
        from . import primesearch

        hits = primesearch.find_pattern_primes(
            pl["points"], pl["pattern"], config.backend, config.scan,
            pl["max_hits"], config.workers,
        )
        code = OK if hits else INCONCLUSIVE
        outcome = {
            "hits": [
                {"v": h.v, "orders": list(h.orders), "verified": h.verified}
                for h in hits
            ]
        }
    elif config.command == "replay":
        from . import primesearch

        witness = primesearch.replay_step1(
            pl["P"], pl["Qs"], pl["l"], config.backend, config.scan, config.workers
        )
        code = OK if witness else INCONCLUSIVE
        outcome = {"witness": witness.to_dict() if witness else None}
    elif config.command == "detect":
        from . import dependence

        subgroup = dependence.SubgroupSpec(tuple(pl["generators"]), config.backend)
        result = dependence.detect_dependence(
            pl["Ps"], subgroup, config.scan, config.workers, pl["coeff_bound"]
        )
        code = OK if result.certificate else INCONCLUSIVE
        if result.report.verdict == "violated":
            code = VIOLATED
        outcome = {
            "report": result.report.to_dict(),
            "certificate": result.certificate.to_dict() if result.certificate else None,
            "certified_index": result.certified_index,
            "note": result.note,
        }
    elif config.command == "recover":
        from . import dependence

        result = dependence.recover_exponent(pl["P"], pl["Q"], config.backend, config.scan)
        code = {"found": OK, "refuted": VIOLATED, "inconclusive": INCONCLUSIVE}[result.status]
        outcome = {"d": result.d, "detail": result.detail}
    else:  # experiment
        from . import experiments

        aggregate = experiments.run_suite(
            pl["suite"], pl["trials"], pl["seed"], config.scan, config.workers
        )
        code = OK if aggregate["anomalies"] == 0 else VIOLATED
        outcome = {"experiment": aggregate}
    return code, {
        "command": config.command,
        "backend": config.backend.encode(),
        "scan": {"lo": config.scan.lo, "hi": config.scan.hi} if config.scan else None,
        "inputs": _encode_inputs(config),
        "outcome": outcome,
    }


# ---------------------------------------------------------------------------
# Rendering


def render(report: dict, fmt: str) -> str:
    """The report as JSON, or as its csv row; text is the same row under
    the command, backend and window."""
    if fmt == "json":
        return json.dumps(report, indent=2)
    condition_id, verdict, v, n, detail = row = _row(report)
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [("condition_id", "verdict", "v", "n", "detail"), row]
        )
        return buf.getvalue().rstrip("\n")
    lines = [f"{report['command']} [{report['backend']}]"]
    if report["scan"]:
        lines.append(f"  primes {report['scan']['lo']}..{report['scan']['hi']}")
    lines.append(f"  {condition_id}: {verdict}")
    if v is not None:
        lines.append(f"  witness v={v} n={n}")
    if detail:
        lines.append(f"  {detail}")
    return "\n".join(lines)


def _row(report: dict) -> tuple:
    """(condition_id, verdict, v, n, detail) of a report. v and n come only
    from a witness: a condition report's, replay's, or the pair --verify
    rechecked. Everything else the outcome says goes into detail."""
    command, witness, detail = report["command"], None, None
    match report["outcome"]:
        case {"verify": witness}:
            head = command, "reproduced" if witness["reproduced"] else "NOT-reproduced"
        case {"report": rep, **detect}:
            head, witness = (rep["condition_id"], rep["verdict"]), rep["witness"]
            cert, detail = detect.get("certificate"), detect.get("note")
            if cert:
                detail = (f"certificate alpha={cert['alpha']} lambdas={cert['lambdas']} "
                          f"index={cert['index']}")
        case {"witness": witness}:
            head = command, "found" if witness else "absent"
        case {"d": d, "detail": detail}:
            head = command, "absent" if d is None else "found"
            if d is not None:
                detail = f"d={d}; {detail}"
        case {"hits": hits}:
            head = command, f"hits={len(hits)}"
            detail = "; ".join(f"v={h['v']} orders={h['orders']}" for h in hits)
        case {"density": den}:
            head = command, "inconclusive" if den["inconclusive"] else "measured"
            detail = (f"hits={den['hits']} good_primes={den['scanned_good_primes']} "
                      f"ratio={den['ratio']}")
        case {"experiment": agg}:
            head = f"experiment:{agg['suite']}", f"anomalies={agg['anomalies']}"
            detail = f"trials={agg['trials']}"
    witness = witness or {}
    return (*head, witness.get("v"), witness.get("n"), witness.get("detail") or detail)


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
    try:
        print(render(report, config.fmt), flush=True)
    except BrokenPipeError:
        # The reader left: no verdict reached it. Point stdout at devnull so
        # the interpreter's flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return IO_ERROR
    return code


def entry() -> int:
    """The process entry of `python -m mwlab`, `-m mwlab.cli` and the `mwlab`
    script: main, then gc.freeze(), so the collections at exit skip the heap.
    atexit, which reaps the pools, and the stream flushes still run."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
