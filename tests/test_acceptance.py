"""Acceptance suite: one test per criterion, pinned tolerances, one printed
pass/fail line each. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
from fractions import Fraction

import pytest

from mwlab import experiments
from mwlab.dependence import recover_exponent
from mwlab.elliptic import EC_IDENTITY, EllipticGroup, WeierstrassCurve, _ec_add_mod
from mwlab.mwgroup import MulPoint, MultiplicativeGroup, torsion_order_stability
from mwlab.numth import PrimeRange, multiplicative_order, primes_in
from mwlab.primesearch import ValuationPattern, find_pattern_primes, replay_step1

SEED_ERDOS = 20240501
SEED_CS = 20240503
SEED_DETECT = 20240507

M = MultiplicativeGroup()
C37 = WeierstrassCurve(0, 0, 1, -1, 0)
CXX = WeierstrassCurve(0, 0, 0, -1, 0)


def _report(num: int, ok: bool, desc: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def erdos_aggregate():
    return experiments.erdos_suite(100, SEED_ERDOS, PrimeRange(3, 10_000), workers=1)


@pytest.fixture(scope="module")
def detect_aggregate():
    return experiments.detect_suite(100, SEED_DETECT, PrimeRange(3, 10_000), workers=1)


def test_criterion_1_order_characterization():
    mismatches = 0
    checked = 0
    primes = primes_in(PrimeRange(2, 200))
    for x in range(2, 21):
        for p in primes:
            if x % p == 0:
                continue
            order = multiplicative_order(x, p)
            acc = 1
            for n in range(1, 501):
                acc = acc * x % p
                divides = acc == 1
                if divides != (n % order == 0):
                    mismatches += 1
                checked += 1
    _report(
        1,
        mismatches == 0,
        f"p | x^n - 1 iff ord_p(x) | n on {checked} triples, {mismatches} mismatches",
    )


def test_criterion_2_erdos_soundness(erdos_aggregate):
    agg = erdos_aggregate
    ok = (
        agg["trials"] == 100
        and agg["controls_held"] == 100
        and agg["witnesses_reverified"] >= 99
        and agg["witnesses_reverified"] == agg["distinct_pairs_violated"]
    )
    _report(
        2,
        ok,
        f"{agg['distinct_pairs_violated']}/100 distinct pairs violated with "
        f"{agg['witnesses_reverified']} re-verifying witnesses "
        f"({agg['scan_misses']} scan-bound misses reported), "
        f"{agg['controls_held']}/100 identical controls held",
    )


def test_criterion_3_corrales_schoof_reduction():
    agg = experiments.cs_suite(500, SEED_CS)
    _report(
        3,
        agg["agreements"] == 500,
        f"order-divisibility vs literal brute force: {agg['agreements']}/500 agree",
    )


def test_criterion_4_lemma_instantiation():
    hits = find_pattern_primes(
        [MulPoint(2), MulPoint(3)],
        ValuationPattern(5, (1, 0)),
        M,
        PrimeRange(3, 1000),
        max_hits=10,
    )
    by_v = {h.v: h for h in hits}
    ok = 41 in by_v and by_v[41].orders == (20, 8) and by_v[41].verified
    # direct exponentiation re-verification, independent of order_mod
    ok = ok and pow(2, 20, 41) == 1 and all(pow(2, 20 // q, 41) != 1 for q in (2, 5))
    ok = ok and pow(3, 8, 41) == 1 and pow(3, 4, 41) != 1
    _report(
        4,
        ok,
        f"pattern l=5, ks=(1,0) over [3,1000]: hit v=41 with orders (20, 8), "
        f"{len(hits)} hits total, all exponentiation-certified",
    )


def test_criterion_5_proof_replay():
    w = replay_step1(MulPoint(2), [MulPoint(3)], 5, M, PrimeRange(3, 1000))
    ok = w is not None
    if ok:
        t2 = multiplicative_order(2, w.v)
        t3 = multiplicative_order(3, w.v)
        ok = w.n % t2 == 0 and w.n % t3 != 0
        ok = ok and pow(2, w.n, w.v) == 1 and pow(3, w.n, w.v) != 1
    absent = replay_step1(MulPoint(2), [MulPoint(4)], 5, M, PrimeRange(3, 1000))
    ok = ok and absent is None
    _report(
        5,
        ok,
        f"witness (v={w.v}, n={w.n}) kills P=2 and not Q=3, recomputed directly; "
        f"P=2 vs Q=4 correctly absent",
    )


def test_criterion_6_exponent_recovery_roundtrip():
    failures = []
    scan = PrimeRange(3, 10_000)
    for P in (MulPoint(2), MulPoint(3), MulPoint(Fraction(5, 2))):
        for d in range(-50, 51):
            if d == 0:
                continue
            result = recover_exponent(P, MulPoint(P.value**d), M, scan)
            if result.d != d or "conflict" in result.detail:
                failures.append((P.encode(), d, result.detail))
    _report(
        6,
        not failures,
        f"recover_exponent(P, P^d) = d for 300 (P, d) pairs, "
        f"zero CRT inconsistencies{'; failures: ' + str(failures[:3]) if failures else ''}",
    )


def test_criterion_7_detection_vs_oracle(detect_aggregate):
    agg = detect_aggregate
    ok = agg["trials"] == 100 and agg["forbidden_combinations"] == 0
    _report(
        7,
        ok,
        f"100 seeded (Ps, Lambda) instances: {agg['forbidden_combinations']} "
        f"theorem-forbidden scan/oracle combinations",
    )


def test_criterion_8_elliptic_sanity():
    E = EllipticGroup(C37)
    G = C37.point(0, 0)
    ok = E.group_order_mod(2) == 5 and E.order_mod(G, 2) == 5
    hasse_ok = True
    for v in primes_in(PrimeRange(2, 500)):
        if 37 % v == 0:
            continue
        if abs(E.group_order_mod(v) - (v + 1)) > 2 * math.sqrt(v):
            hasse_ok = False
    import random

    rng = random.Random(20240508)
    pts = {k: C37.mul(k, G) for k in range(-10, 11)}
    primes = primes_in(PrimeRange(3, 300))
    hom_ok = True
    pairs = 0
    while pairs < 100:
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        P, Q, S = pts[a], pts[b], pts[a + b]
        good = [v for v in primes if E.good_prime([P, Q, S], v)][:20]
        if len(good) < 20:
            continue
        for v in good:
            if E.reduce_raw(S, v) != _ec_add_mod(C37, E.reduce_raw(P, v), E.reduce_raw(Q, v), v):
                hom_ok = False
        pairs += 1
    _report(
        8,
        ok and hasse_ok and hom_ok,
        f"|E(F_2)|=5, ord_2((0,0))=5, Hasse bound at every good prime <= 500, "
        f"reduction homomorphism on {pairs} pairs x 20 primes",
    )


def test_criterion_9_torsion_stability():
    report = torsion_order_stability(M, MulPoint(-1), PrimeRange(3, 10_000))
    ok = report.verdict == "holds_on_scan"
    direct_ok = all(
        M.order_mod(MulPoint(-1), v) == 2 for v in primes_in(PrimeRange(3, 1000))
    )
    E = EllipticGroup(CXX)
    two_torsion = [T for T in E.torsion_elements() if T != EC_IDENTITY]
    ec_ok = len(two_torsion) == 3
    for T in two_torsion:
        rep = torsion_order_stability(E, T, PrimeRange(3, 500))
        ec_ok = ec_ok and rep.verdict == "holds_on_scan"
    _report(
        9,
        ok and direct_ok and ec_ok,
        f"ord_v(-1)=2 at all odd primes <= 10^4; all {len(two_torsion)} "
        f"two-torsion points of y^2=x^3-x stable at good odd primes <= 500",
    )


def test_criterion_10_determinism(erdos_aggregate, detect_aggregate):
    erdos_8 = experiments.erdos_suite(100, SEED_ERDOS, PrimeRange(3, 10_000), workers=8)
    detect_8 = experiments.detect_suite(100, SEED_DETECT, PrimeRange(3, 10_000), workers=8)
    erdos_same = json.dumps(erdos_aggregate) == json.dumps(erdos_8)
    detect_same = json.dumps(detect_aggregate) == json.dumps(detect_8)
    _report(
        10,
        erdos_same and detect_same,
        f"criterion-2 and criterion-7 reports byte-identical at 1 and 8 workers "
        f"(erdos: {erdos_same}, detect: {detect_same})",
    )
