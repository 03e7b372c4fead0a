"""Every chunked scan runs through one driver; these pin what it reports.

EXPECTED holds the full report of a violated and a holding scan for each
condition (on both backends where the condition exists), a replay_step1
witness, a find_pattern_primes hit list and a pattern_density report,
recorded before the per-scan chunk loops were folded into
`_parallel.scan_chunk`. Each must come out the same, byte for byte, at 1, 2
and 5 workers. On elliptic curves torsion injects at every good prime of a
window, so torsion_stability has only a holding elliptic case.
"""

import dataclasses
import json
from fractions import Fraction

import pytest

from mwlab import (
    EllipticGroup, MulPoint, MultiplicativeGroup, PrimeRange, SubgroupSpec, ValuationPattern,
    WeierstrassCurve, detect_dependence, find_pattern_primes, pattern_density, replay_step1,
    scan_cor22, scan_corrales_schoof, scan_erdos_union, scan_thm2, torsion_order_stability,
)

M = MultiplicativeGroup()
E37 = EllipticGroup(WeierstrassCurve.parse("ec:0,0,1,-1,0"))
E2 = EllipticGroup(WeierstrassCurve.parse("ec:0,1,1,-2,0"))
E6 = EllipticGroup(WeierstrassCurve.parse("ec:0,0,0,0,1"))


def m(*vals):
    return [MulPoint(Fraction(v)) for v in vals]


def e(backend, *texts):
    return [backend.parse_point(t) for t in texts]


def cond(scan, *inputs, lo, hi):
    return lambda w: scan(*inputs, PrimeRange(lo, hi), w).to_dict()


def detect(backend, Ps, gens, lo, hi):
    def run(workers):
        r = detect_dependence(Ps, SubgroupSpec(gens, backend), PrimeRange(lo, hi), workers)
        return {
            "report": r.report.to_dict(),
            "certificate": r.certificate.to_dict() if r.certificate else None,
            "note": r.note,
        }
    return run


def torsion(backend, T, lo, hi):
    return lambda w: torsion_order_stability(backend, T, PrimeRange(lo, hi), w).to_dict()


def replay(backend, P, Qs, l, lo, hi):
    def run(workers):
        w = replay_step1(P, Qs, l, backend, PrimeRange(lo, hi), workers)
        return w.to_dict() if w else None
    return run


def hits(backend, points, l, ks, lo, hi, max_hits):
    def run(workers):
        pattern, scan = ValuationPattern(l, ks), PrimeRange(lo, hi)
        found = find_pattern_primes(points, pattern, backend, scan, max_hits, workers)
        return [dataclasses.asdict(h) for h in found]
    return run


def density(backend, points, l, ks, lo, hi):
    def run(workers):
        pattern, scan = ValuationPattern(l, ks), PrimeRange(lo, hi)
        return dataclasses.asdict(pattern_density(points, pattern, backend, scan, workers))
    return run


CASES = {
    "erdos_union-violated": cond(scan_erdos_union, [2, 13], [8, 13], lo=3, hi=200),
    "erdos_union-holds": cond(scan_erdos_union, [6, 10], [10, 6], lo=3, hi=60),
    "corrales_schoof-mul-violated": cond(scan_corrales_schoof, m(36)[0], m(6)[0], M, lo=3, hi=100),
    "corrales_schoof-mul-holds": cond(scan_corrales_schoof, m(6)[0], m(36)[0], M, lo=3, hi=100),
    "corrales_schoof-ec-violated": cond(
        scan_corrales_schoof, e(E37, "(1,0)")[0], e(E37, "(0,0)")[0], E37, lo=3, hi=300
    ),
    "corrales_schoof-ec-holds": cond(
        scan_corrales_schoof, e(E37, "(0,0)")[0], e(E37, "(1,0)")[0], E37, lo=3, hi=300
    ),
    "thm2-mul-violated": cond(scan_thm2, m(2)[0], m(3, 5), M, lo=3, hi=100),
    "thm2-mul-holds": cond(scan_thm2, m(6)[0], m(5, 36), M, lo=3, hi=100),
    "thm2-ec-violated": cond(
        scan_thm2, e(E2, "(-2,-1)")[0], e(E2, "(0,0)", "(1,0)"), E2, lo=3, hi=300
    ),
    "thm2-ec-holds": cond(
        scan_thm2, e(E37, "(0,0)")[0], e(E37, "(1,0)", "(0,-1)"), E37, lo=3, hi=300
    ),
    "cor22-mul-violated": cond(scan_cor22, m(2, 3), m(4, 5), M, lo=3, hi=100),
    "cor22-mul-holds": cond(scan_cor22, m(6, "1/10"), m(10, "1/6"), M, lo=3, hi=100),
    "cor22-ec-violated": cond(scan_cor22, e(E2, "(0,0)"), e(E2, "(1,0)"), E2, lo=3, hi=300),
    "cor22-ec-holds": cond(
        scan_cor22, e(E37, "(0,0)", "(0,-1)"), e(E37, "(0,-1)", "(0,0)"), E37, lo=3, hi=300
    ),
    "detect-mul-violated": detect(M, m(7), m(2, 3), 3, 200),
    "detect-mul-holds": detect(M, m(360), m(6, 10), 3, 200),
    "detect-ec-violated": detect(E2, e(E2, "(0,0)"), e(E2, "(1,0)"), 3, 300),
    "detect-ec-holds": detect(E2, e(E2, "(-2,-1)"), e(E2, "(0,0)", "(1,0)"), 3, 300),
    "torsion_stability-mul-violated": torsion(M, m(-1)[0], 2, 200),
    "torsion_stability-mul-holds": torsion(M, m(-1)[0], 3, 200),
    "torsion_stability-ec-holds": torsion(E6, e(E6, "(2,3)")[0], 2, 300),
    "replay_step1-mul": replay(M, m(2)[0], m(3), 5, 3, 1000),
    "replay_step1-ec": replay(E2, e(E2, "(0,0)")[0], e(E2, "(1,0)"), 2, 3, 300),
    "find_pattern_primes-mul": hits(M, m(2, 3), 5, (1, 0), 3, 1000, 3),
    "find_pattern_primes-ec": hits(E37, e(E37, "(0,0)"), 2, (1,), 3, 600, 4),
    "pattern_density-mul": density(M, m(2, 3), 3, (0, 0), 3, 2000),
    "pattern_density-ec": density(E37, e(E37, "(0,0)"), 2, (0,), 3, 600),
}


EXPECTED = {
    "erdos_union-violated": {
        "condition_id": "erdos_union",
        "verdict": "violated",
        "witness": {
            "v": 7,
            "n": 1,
            "detail": (
                "orders xs=[3, 2] ys=[1, 2]; at n=1 the prime 7 lies in the ys-side support "
                "union only"
            ),
        },
        "scanned": {"lo": 3, "hi": 200},
        "n_bound": None,
        "skipped_primes": [],
    },
    "erdos_union-holds": {
        "condition_id": "erdos_union",
        "verdict": "holds_on_scan",
        "witness": None,
        "scanned": {"lo": 3, "hi": 60},
        "n_bound": None,
        "skipped_primes": [3, 5],
    },
    "corrales_schoof-mul-violated": {
        "condition_id": "corrales_schoof",
        "verdict": "violated",
        "witness": {
            "v": 7,
            "n": 1,
            "detail": "ord_v(x)=1, ord_v(y)=2; n=1 kills x but not y",
        },
        "scanned": {"lo": 3, "hi": 100},
        "n_bound": None,
        "skipped_primes": [3],
    },
    "corrales_schoof-mul-holds": {
        "condition_id": "corrales_schoof",
        "verdict": "holds_on_scan",
        "witness": None,
        "scanned": {"lo": 3, "hi": 100},
        "n_bound": None,
        "skipped_primes": [3],
    },
    "corrales_schoof-ec-violated": {
        "condition_id": "corrales_schoof",
        "verdict": "violated",
        "witness": {
            "v": 5,
            "n": 4,
            "detail": "ord_v(x)=4, ord_v(y)=8; n=4 kills x but not y",
        },
        "scanned": {"lo": 3, "hi": 300},
        "n_bound": None,
        "skipped_primes": [],
    },
    "corrales_schoof-ec-holds": {
        "condition_id": "corrales_schoof",
        "verdict": "holds_on_scan",
        "witness": None,
        "scanned": {"lo": 3, "hi": 300},
        "n_bound": None,
        "skipped_primes": [37],
    },
    "thm2-mul-violated": {
        "condition_id": "thm2",
        "verdict": "violated",
        "witness": {
            "v": 7,
            "n": 3,
            "detail": "ord_v(P)=3, ord_v(Q_i)=[6, 6]; n=3 kills P but no Q_i",
        },
        "scanned": {"lo": 3, "hi": 100},
        "n_bound": None,
        "skipped_primes": [3, 5],
    },
    "thm2-mul-holds": {
        "condition_id": "thm2",
        "verdict": "holds_on_scan",
        "witness": None,
        "scanned": {"lo": 3, "hi": 100},
        "n_bound": None,
        "skipped_primes": [3, 5],
    },
    "thm2-ec-violated": {
        "condition_id": "thm2",
        "verdict": "violated",
        "witness": {
            "v": 17,
            "n": 4,
            "detail": "ord_v(P)=4, ord_v(Q_i)=[12, 6]; n=4 kills P but no Q_i",
        },
        "scanned": {"lo": 3, "hi": 300},
        "n_bound": None,
        "skipped_primes": [],
    },
    "thm2-ec-holds": {
        "condition_id": "thm2",
        "verdict": "holds_on_scan",
        "witness": None,
        "scanned": {"lo": 3, "hi": 300},
        "n_bound": None,
        "skipped_primes": [37],
    },
    "cor22-mul-violated": {
        "condition_id": "cor22",
        "verdict": "violated",
        "witness": {
            "v": 13,
            "n": 3,
            "detail": (
                "orders P=[12, 3] Q=[6, 4]; n=3 kills a point on the P side and none on the "
                "other"
            ),
        },
        "scanned": {"lo": 3, "hi": 100},
        "n_bound": None,
        "skipped_primes": [3, 5],
    },
    "cor22-mul-holds": {
        "condition_id": "cor22",
        "verdict": "holds_on_scan",
        "witness": None,
        "scanned": {"lo": 3, "hi": 100},
        "n_bound": None,
        "skipped_primes": [3, 5],
    },
    "cor22-ec-violated": {
        "condition_id": "cor22",
        "verdict": "violated",
        "witness": {
            "v": 3,
            "n": 3,
            "detail": (
                "orders P=[3] Q=[6]; n=3 kills a point on the P side and none on the other"
            ),
        },
        "scanned": {"lo": 3, "hi": 300},
        "n_bound": None,
        "skipped_primes": [],
    },
    "cor22-ec-holds": {
        "condition_id": "cor22",
        "verdict": "holds_on_scan",
        "witness": None,
        "scanned": {"lo": 3, "hi": 300},
        "n_bound": None,
        "skipped_primes": [37],
    },
    "detect-mul-violated": {
        "report": {
            "condition_id": "detect",
            "verdict": "violated",
            "witness": {
                "v": 23,
                "n": 11,
                "detail": (
                    "no P_i lies in the reduced subgroup at 23; n=11 kills every generator mod "
                    "23 while ord_v(P_i)=[22]"
                ),
            },
            "scanned": {"lo": 3, "hi": 200},
            "n_bound": None,
            "skipped_primes": [3, 7],
        },
        "certificate": None,
        "note": None,
    },
    "detect-mul-holds": {
        "report": {
            "condition_id": "detect",
            "verdict": "holds_on_scan",
            "witness": None,
            "scanned": {"lo": 3, "hi": 200},
            "n_bound": None,
            "skipped_primes": [3, 5],
        },
        "certificate": {
            "kind": "membership",
            "index": 0,
            "alpha": 1,
            "lambdas": [2, 1],
            "residual_torsion": None,
        },
        "note": None,
    },
    "detect-ec-violated": {
        "report": {
            "condition_id": "detect",
            "verdict": "violated",
            "witness": {
                "v": 5,
                "n": 3,
                "detail": (
                    "no P_i lies in the reduced subgroup at 5; n=3 kills every generator mod 5 "
                    "while ord_v(P_i)=[9]"
                ),
            },
            "scanned": {"lo": 3, "hi": 300},
            "n_bound": None,
            "skipped_primes": [],
        },
        "certificate": None,
        "note": None,
    },
    "detect-ec-holds": {
        "report": {
            "condition_id": "detect",
            "verdict": "holds_on_scan",
            "witness": None,
            "scanned": {"lo": 3, "hi": 300},
            "n_bound": None,
            "skipped_primes": [],
        },
        "certificate": {
            "kind": "membership",
            "index": 0,
            "alpha": 1,
            "lambdas": [1, 1],
            "residual_torsion": None,
        },
        "note": None,
    },
    "torsion_stability-mul-violated": {
        "condition_id": "torsion_stability",
        "verdict": "violated",
        "witness": {"v": 2, "n": 1, "detail": (
    "ord_v T = 1 but ord T = 2"
)},
        "scanned": {"lo": 2, "hi": 200},
        "n_bound": None,
        "skipped_primes": [],
    },
    "torsion_stability-mul-holds": {
        "condition_id": "torsion_stability",
        "verdict": "holds_on_scan",
        "witness": None,
        "scanned": {"lo": 3, "hi": 200},
        "n_bound": None,
        "skipped_primes": [],
    },
    "torsion_stability-ec-holds": {
        "condition_id": "torsion_stability",
        "verdict": "holds_on_scan",
        "witness": None,
        "scanned": {"lo": 2, "hi": 300},
        "n_bound": None,
        "skipped_primes": [2, 3],
    },
    "replay_step1-mul": {
        "v": 31,
        "n": 5,
        "detail": (
            "ord_v(P)=5 with ord_v(Q_i)=[30]; n=5 kills P mod 31 and kills no Q_i (5 divides "
            "every ord_v(Q_i))"
        ),
    },
    "replay_step1-ec": {
        "v": 3,
        "n": 3,
        "detail": (
            "ord_v(P)=3 with ord_v(Q_i)=[6]; n=3 kills P mod 3 and kills no Q_i (2 divides "
            "every ord_v(Q_i))"
        ),
    },
    "find_pattern_primes-mul": [
        {"v": 41, "orders": [
    20,
    8,
], "verified": True},
        {"v": 491, "orders": [
    490,
    49,
], "verified": True},
        {"v": 661, "orders": [
    660,
    22,
], "verified": True},
    ],
    "find_pattern_primes-ec": [
        {"v": 17, "orders": [
    18,
], "verified": True},
        {"v": 31, "orders": [
    18,
], "verified": True},
        {"v": 43, "orders": [
    14,
], "verified": True},
        {"v": 67, "orders": [
    30,
], "verified": True},
    ],
    "pattern_density-mul": {
        "l": 3,
        "ks": [0, 0],
        "hits": 163,
        "scanned_good_primes": 301,
        "ratio": 0.5415282392026578,
        "inconclusive": False,
    },
    "pattern_density-ec": {
        "l": 2,
        "ks": [0],
        "hits": 60,
        "scanned_good_primes": 107,
        "ratio": 0.5607476635514018,
        "inconclusive": False,
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_pinned_at_every_worker_count(name):
    want = json.dumps(EXPECTED[name])
    for workers in (1, 2, 5):
        assert json.dumps(CASES[name](workers)) == want, workers
