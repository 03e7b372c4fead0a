"""Seeded randomized suites pitting the scanning verifiers against exact
oracles or literal brute force. Each suite is deterministic per seed and
reports per-trial rows plus anomaly counts; an anomaly is a witness that
fails independent re-verification, a control scan that does not hold, or a
theorem-forbidden verdict combination.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import support
from .dependence import SubgroupSpec, detect_dependence, exact_membership_multiplicative
from .mwgroup import MulPoint, MultiplicativeGroup, multiplicative_independence
from .numth import PrimeRange, multiplicative_order, primes_in
from .support import scan_corrales_schoof, scan_erdos_union

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# The cs suite draws its single-prime scans from the primes 3.._CS_P_MAX.
_CS_P_MAX = 1000


def _random_entry(rng: random.Random) -> int:
    value = 1
    for p in rng.sample(_SMALL_PRIMES, rng.randint(1, 2)):
        value *= p ** rng.randint(1, 5)
    return value


def _independent_tuple(rng: random.Random, t: int) -> tuple[int, ...]:
    while True:
        xs = tuple(_random_entry(rng) for _ in range(t))
        if len(set(xs)) != t:
            continue
        if multiplicative_independence([MulPoint(x) for x in xs]) is None:
            return xs


def _perturbed_tuple(rng: random.Random, xs: tuple[int, ...]) -> tuple[int, ...]:
    """A nearby but distinct independent tuple: square one entry, or graft a
    fresh prime onto one entry."""
    while True:
        ys = list(xs)
        i = rng.randrange(len(ys))
        if rng.random() < 0.5:
            ys[i] = ys[i] ** 2
        else:
            ys[i] *= rng.choice(_SMALL_PRIMES) ** rng.randint(1, 3)
        ys = tuple(ys)
        if set(ys) == set(xs) or len(set(ys)) != len(ys):
            continue
        if multiplicative_independence([MulPoint(y) for y in ys]) is None:
            return ys


def erdos_suite(trials: int, seed: int, scan: PrimeRange | None = None,
                workers: int = 1) -> dict:
    """Distinct independent tuples must be told apart by some scanned prime;
    identical tuples must always hold. Witnesses re-verify literally."""
    scan = scan or PrimeRange(3, 10_000)
    rng = random.Random(seed)
    rows = []
    violated = reverified = misses = controls_held = 0
    for _ in range(trials):
        xs = _independent_tuple(rng, rng.randint(1, 3))
        if rng.random() < 0.5:
            ys = _perturbed_tuple(rng, xs)
        else:
            while True:
                ys = _independent_tuple(rng, len(xs))
                if set(ys) != set(xs):
                    break
        report = scan_erdos_union(xs, ys, scan, workers=workers)
        control = scan_erdos_union(xs, xs, scan, workers=workers)
        row = {
            "xs": list(xs),
            "ys": list(ys),
            "verdict": report.verdict,
            "witness": report.witness.to_dict() if report.witness else None,
            "witness_reverified": None,
            "control_verdict": control.verdict,
        }
        if control.verdict == "holds_on_scan":
            controls_held += 1
        if report.verdict == "violated":
            violated += 1
            ok = support.verify_witness(
                "erdos_union", {"xs": xs, "ys": ys}, report.witness.v, report.witness.n
            )
            row["witness_reverified"] = ok
            if ok:
                reverified += 1
        else:
            misses += 1
        rows.append(row)
    anomalies = (trials - controls_held) + (violated - reverified)
    return {
        "suite": "erdos",
        "trials": trials,
        "seed": seed,
        "scan": {"lo": scan.lo, "hi": scan.hi},
        "distinct_pairs_violated": violated,
        "witnesses_reverified": reverified,
        "scan_misses": misses,
        "controls_held": controls_held,
        "anomalies": anomalies,
        "rows": rows,
    }


def _cs_brute_force(x: int, y: int, p: int) -> bool:
    """Literal check of: y^n = 1 whenever x^n = 1, for n up to lcm of orders."""
    tx = multiplicative_order(x, p)
    ty = multiplicative_order(y, p)
    bound = math.lcm(tx, ty)
    xn = yn = 1
    for _ in range(bound):
        xn = xn * x % p
        yn = yn * y % p
        if xn == 1 and yn != 1:
            return False
    return True


def cs_suite(trials: int, seed: int) -> dict:
    """Order divisibility against the literal for-all-n implication."""
    rng = random.Random(seed)
    backend = MultiplicativeGroup()
    small_primes = primes_in(PrimeRange(3, _CS_P_MAX))
    rows = []
    agreements = 0
    for _ in range(trials):
        while True:
            x = rng.randint(2, 1000)
            y = rng.randint(2, 1000)
            p = rng.choice(small_primes)
            if x % p != 0 and y % p != 0:
                break
        report = scan_corrales_schoof(MulPoint(x), MulPoint(y), backend, PrimeRange(p, p))
        fast = report.witness is None
        slow = _cs_brute_force(x, y, p)
        agree = fast == slow
        agreements += agree
        rows.append({"x": x, "y": y, "p": p, "fast": fast, "brute": slow, "agree": agree})
    return {
        "suite": "cs",
        "trials": trials,
        "seed": seed,
        "p_max": _CS_P_MAX,
        "agreements": agreements,
        "anomalies": trials - agreements,
        "rows": rows,
    }


def _random_subgroup_member(rng: random.Random, gens: tuple[int, ...]) -> Fraction:
    while True:
        coeffs = [rng.randint(-3, 3) for _ in gens]
        if not any(coeffs):
            continue
        val = Fraction(1)
        for g, c in zip(gens, coeffs):
            val *= Fraction(g) ** c
        if abs(val) != 1:
            return val


def detect_suite(trials: int, seed: int, scan: PrimeRange | None = None,
                 workers: int = 1) -> dict:
    """Scan verdict versus the exact exponent oracle. The forbidden event is
    a scan that holds while the oracle refutes every point."""
    scan = scan or PrimeRange(3, 10_000)
    rng = random.Random(seed)
    backend = MultiplicativeGroup()
    rows = []
    forbidden = 0
    for _ in range(trials):
        gens = _independent_tuple(rng, rng.randint(1, 2))
        subgroup = SubgroupSpec(tuple(MulPoint(g) for g in gens), backend)
        points = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.6:
                points.append(MulPoint(_random_subgroup_member(rng, gens)))
            else:
                extra = rng.choice(_SMALL_PRIMES) ** rng.randint(1, 3)
                points.append(MulPoint(_random_subgroup_member(rng, gens) * extra))
        result = detect_dependence(points, subgroup, scan, workers=workers)
        oracle = [exact_membership_multiplicative(P, subgroup) for P in points]
        oracle_alphas = [c.coefficients[0] if c else None for c in oracle]
        bad = result.report.verdict == "holds_on_scan" and all(
            c is None for c in oracle
        )
        forbidden += bad
        rows.append(
            {
                "generators": list(gens),
                "points": [P.encode() for P in points],
                "verdict": result.report.verdict,
                "witness": result.report.witness.to_dict() if result.report.witness else None,
                "certificate": result.certificate.to_dict() if result.certificate else None,
                "oracle_alphas": oracle_alphas,
                "forbidden_combination": bad,
            }
        )
    return {
        "suite": "detect",
        "trials": trials,
        "seed": seed,
        "scan": {"lo": scan.lo, "hi": scan.hi},
        "forbidden_combinations": forbidden,
        "anomalies": forbidden,
        "rows": rows,
    }


# Curated curves for elliptic trials: (encoding, generator points).
CURATED_CURVES = (
    ("ec:0,0,1,-1,0", ("(0,0)",)),          # rank 1, trivial torsion
    ("ec:0,1,1,0,0", ("(0,0)",)),           # rank 1, trivial torsion
    ("ec:0,1,1,-2,0", ("(0,0)", "(1,0)")),  # rank 2
)


def ec_detect_suite(trials: int, seed: int, scan: PrimeRange | None = None,
                    workers: int = 1, coeff_bound: int = 20) -> dict:
    """Detection consistency on curated curves, where ground truth is known
    by construction: members must scan clean and earn a certificate that
    re-verifies exactly; independent points must be caught by some prime.
    Bounded-search exhaustion on a true statement counts as unresolved, not
    as an anomaly."""
    from .elliptic import EllipticGroup, WeierstrassCurve

    scan = scan or PrimeRange(3, 300)
    rng = random.Random(seed)
    rows = []
    anomalies = unresolved = 0
    for _ in range(trials):
        encoding, gen_texts = CURATED_CURVES[rng.randrange(len(CURATED_CURVES))]
        curve = WeierstrassCurve.parse(encoding)
        backend = EllipticGroup(curve)
        gens = [backend.parse_point(t) for t in gen_texts]
        G = gens[0]
        a = rng.randint(1, 3)
        L = backend.scale(a, G)
        subgroup = SubgroupSpec((L,), backend)
        kinds = ["member", "stretch"]
        if len(gens) > 1:
            kinds.append("independent")
        kind = rng.choice(kinds)
        if kind == "member":
            b = rng.randint(1, 5)
            P = backend.scale(b, L)
            expected_lambda = b
        elif kind == "stretch":
            P = G  # a*P = 1*L holds globally
            expected_lambda = 1
        else:
            P = gens[1]
            expected_lambda = None
        result = detect_dependence([P], subgroup, scan, workers, coeff_bound)
        cert_ok = None
        if result.certificate is not None:
            alpha = result.certificate.coefficients[0]
            lambdas = result.certificate.coefficients[1:]
            combo = backend.identity()
            for Lj, lj in zip(subgroup.generators, lambdas):
                combo = backend.combine(combo, backend.scale(lj, Lj))
            cert_ok = backend.scale(alpha, P) == combo
        # A certificate is only sought when the scan holds, so a failed one
        # (cert_ok False) always comes with a holding scan.
        holds = result.report.verdict == "holds_on_scan"
        if kind == "member":
            bad = not holds or cert_ok is not True
        elif kind == "stretch":
            bad = holds and cert_ok is not True
        else:  # independent: no certificate, verified or failed, may appear
            bad = cert_ok is not None
            unresolved += holds and cert_ok is None
        anomalies += bad
        rows.append(
            {
                "curve": encoding,
                "subgroup_generator": L.encode(),
                "point": P.encode(),
                "kind": kind,
                "expected_lambda": expected_lambda,
                "verdict": result.report.verdict,
                "certificate": result.certificate.to_dict() if result.certificate else None,
                "certificate_reverified": cert_ok,
                "anomaly": bad,
            }
        )
    return {
        "suite": "ec-detect",
        "trials": trials,
        "seed": seed,
        "scan": {"lo": scan.lo, "hi": scan.hi},
        "coeff_bound": coeff_bound,
        "unresolved": unresolved,
        "anomalies": anomalies,
        "rows": rows,
    }


def run_suite(suite: str, trials: int, seed: int, scan: PrimeRange | None = None,
              workers: int = 1) -> dict:
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if suite == "erdos":
        return erdos_suite(trials, seed, scan, workers)
    if suite == "cs":
        if scan is not None:
            raise ValueError("the cs suite draws its own primes; it takes no scan window")
        return cs_suite(trials, seed)
    if suite == "detect":
        return detect_suite(trials, seed, scan, workers)
    if suite == "ec-detect":
        return ec_detect_suite(trials, seed, scan, workers)
    raise ValueError(f"unknown suite {suite!r} (choose erdos, cs, detect, ec-detect)")
