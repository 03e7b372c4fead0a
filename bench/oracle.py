"""Checks every answer mwlab gives in the benchmark, so that a faster wrong
answer counts as a failure, not a gain.

Each answer passes three checks:
- digest: its stdout matches the digest recorded from the seed commit
  (bench/digests.json), when one is recorded for that argv;
- reverify: every witness re-verifies literally through its `--verify v:n`
  query, and every certificate, recovered exponent, order and count
  re-verifies by the benchmark's own exact arithmetic (bench/arith.py);
- exit: the exit code has its documented meaning (0 found or holds,
  1 violated or refuted with a witness, 2 inconclusive).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from arith import denominators, discriminant, ec_add, ec_mul, mul_order, primes_between

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# The one failure the seed commit is known to have: recover ends with "scan
# exhausted" and exits 1, where the documentation says inconclusive is 2.
KNOWN_DEFECT = "recover exits 1 on an exhausted scan; documented code is 2"
# Commands whose witnesses `--verify v:n` re-checks.
VERIFIABLE = ("support-check", "cs-check", "replay", "detect")


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def verify_key(key: str, witness) -> str:
    return f"{key} --verify {witness[0]}:{witness[1]}"


class Oracle:
    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self._primes: dict[tuple[int, int], list[int]] = {}

    def primes(self, lo: int, hi: int) -> list[int]:
        if (lo, hi) not in self._primes:
            self._primes[(lo, hi)] = primes_between(lo, hi)
        return self._primes[(lo, hi)]

    def bad_primes(self, spec: dict, hi: int | None = None) -> list[int]:
        """Primes of the window (up to hi) where some input point, or the
        curve, has bad reduction."""
        lo, top = spec["window"]
        divisors = [d for P in spec["good_for"] for d in denominators(P)]
        if spec["curve"]:
            divisors.append(abs(discriminant(spec["curve"])))
        return [p for p in self.primes(lo, top) if (hi is None or p <= hi) and any(d % p == 0 for d in divisors)]

    def good_primes(self, spec: dict) -> int:
        lo, hi = spec["window"]
        return len(self.primes(lo, hi)) - len(self.bad_primes(spec))

    def check(self, query, answer: dict) -> list[tuple[str, str]]:
        """The (check, message) pairs the answer fails; empty when it passes.

        `answer` has the exit code, stdout text and digest, and, for an
        answer with a witness, the `verify` answer of its re-check.
        """
        failures = []
        expected = self.digests.get(query.key)
        if expected is not None and answer["sha"] != expected:
            failures.append(("digest", f"stdout digest {answer['sha']} != recorded {expected}"))
        if not answer["text"]:
            return failures + [("exit", f"exit {answer['code']} with no report: {answer.get('error')}")]
        report = json.loads(answer["text"])
        spec = query.spec
        lo, hi = spec["window"]
        if report["scan"] != {"lo": lo, "hi": hi}:
            failures.append(("reverify", f"report scans {report['scan']}, asked for {lo}..{hi}"))
        outcome = report["outcome"]
        command = spec["command"]
        want_code, problems = {
            "support-check": self._condition,
            "cs-check": self._condition,
            "detect": self._condition,
            "find-primes": self._find_primes,
            "replay": self._replay,
            "recover": self._recover,
        }[command](spec, outcome)
        failures += [("reverify", p) for p in problems]
        w = witness(answer["text"])
        if w is not None:
            failures += [("reverify", p) for p in self._check_verify(query, w, answer.get("verify"))]
        if answer["code"] != want_code:
            failures.append(("exit", f"exit {answer['code']}, documented meaning gives {want_code}"))
        return failures

    @staticmethod
    def known_defect(query, answer: dict, failures) -> bool:
        if query.spec["command"] != "recover" or not answer["text"]:
            return False
        detail = json.loads(answer["text"])["outcome"]["detail"]
        return (
            answer["code"] == 1
            and detail.startswith("scan exhausted")
            and [check for check, _ in failures] == ["exit"]
        )

    # -- per command -------------------------------------------------------

    def _check_verify(self, query, w, verify) -> list[str]:
        if verify is None:
            return [f"witness {w} was not re-checked with --verify"]
        problems = []
        key = verify_key(query.key, w)
        expected = self.digests.get(key)
        if expected is not None and verify["sha"] != expected:
            problems.append(f"--verify stdout digest {verify['sha']} != recorded {expected}")
        reproduced = bool(verify.get("text")) and json.loads(verify["text"])["outcome"]["verify"]["reproduced"]
        if verify["code"] != 0 or not reproduced:
            problems.append(f"witness {w} not reproduced by --verify (exit {verify['code']})")
        return problems

    def _check_witness_prime(self, spec, v) -> list[str]:
        lo, hi = spec["window"]
        if not lo <= v <= hi or v not in self.primes(lo, hi) or v in self.bad_primes(spec):
            return [f"witness prime {v} is not a good prime of the window"]
        return []

    def _condition(self, spec, outcome):
        rep = outcome["report"]
        problems = []
        w = rep["witness"]
        if (rep["verdict"] == "violated") != (w is not None):
            problems.append(f"verdict {rep['verdict']} with witness {w}")
        if w is not None:
            problems += self._check_witness_prime(spec, w["v"])
        bads = self.bad_primes(spec, None if w is None else w["v"] - 1)
        if rep["skipped_primes"] != bads:
            problems.append(f"skipped primes {rep['skipped_primes'][:8]}... != bad primes {bads[:8]}...")
        if spec["command"] != "detect":
            return (1 if w else 0), problems
        if w is not None:
            return 1, problems
        cert = outcome["certificate"]
        if cert is None:
            return 2, problems
        problems += _check_membership(spec, cert)
        return 0, problems

    def _find_primes(self, spec, outcome):
        if spec["density"]:
            d = outcome["density"]
            problems = []
            goods = self.good_primes(spec)
            if d["scanned_good_primes"] != goods:
                problems.append(f"density scanned {d['scanned_good_primes']} good primes, window has {goods}")
            if not 0 <= d["hits"] <= goods or d["ratio"] != (d["hits"] / goods if goods else 0.0):
                problems.append(f"density ratio {d['ratio']} != {d['hits']}/{goods}")
            if d["inconclusive"] != (d["hits"] == 0):
                problems.append("density inconclusive flag disagrees with its hit count")
            return (2 if d["inconclusive"] else 0), problems
        if spec["curve"]:
            raise ValueError("no order oracle for elliptic find-primes")
        hits = outcome["hits"]
        problems = []
        if len(hits) > spec["max_hits"] or [h["v"] for h in hits] != sorted({h["v"] for h in hits}):
            problems.append("hits exceed --max-hits or are not strictly ascending")
        for h in hits:
            v = h["v"]
            problems += self._check_witness_prime(spec, v)
            orders = [mul_order(P, v) for P in spec["points"]]
            if h["orders"] != orders or not h["verified"]:
                problems.append(f"hit {v}: orders {h['orders']} != {orders}")
            elif not all(_exact_valuation(spec["l"], k, t) for k, t in zip(spec["ks"], orders)):
                problems.append(f"hit {v}: orders {orders} miss the pattern")
        return (0 if hits else 2), problems

    def _replay(self, spec, outcome):
        w = outcome["witness"]
        if w is None:
            return 2, []
        return 0, self._check_witness_prime(spec, w["v"])

    def _recover(self, spec, outcome):
        d = outcome["d"]
        if d is None:
            # A missing log or a CRT conflict refutes (1); running out of
            # primes is inconclusive (2).
            return (2 if outcome["detail"].startswith("scan exhausted") else 1), []
        P, Q = spec["P"], spec["Q"]
        ok = ec_mul(spec["curve"], d, P) == Q if spec["curve"] else P**d == Q
        return 0, ([] if ok else [f"recovered d={d} but d*P != Q"])


def witness(text: str):
    """(v, n) of the witness a JSON report carries, else None."""
    outcome = json.loads(text)["outcome"]
    w = (outcome.get("report") or {}).get("witness") or outcome.get("witness")
    return (w["v"], w["n"]) if w else None


def _exact_valuation(l: int, k: int, n: int) -> bool:
    e = 0
    while n % l == 0:
        n //= l
        e += 1
    return e == k


def _check_membership(spec, cert) -> list[str]:
    """alpha * P_index == sum lambda_j * L_j, exactly, with alpha >= 1."""
    P = spec["Ps"][cert["index"]]
    alpha, lambdas = cert["alpha"], cert["lambdas"]
    if alpha < 1 or len(lambdas) != len(spec["gens"]):
        return [f"malformed certificate {cert}"]
    c = spec["curve"]
    if c:
        lhs = ec_mul(c, alpha, P)
        rhs = None
        for L, k in zip(spec["gens"], lambdas):
            rhs = ec_add(c, rhs, ec_mul(c, k, L))
    else:
        lhs = P**alpha
        rhs = math.prod((Fraction(L) ** k for L, k in zip(spec["gens"], lambdas)), start=Fraction(1))
    return [] if lhs == rhs else [f"certificate {cert} does not re-verify"]

