"""Fast paths against the slow exact oracles they replace: Shanks-Mestre
point counts against enumeration, Sylow-local membership (and Q*
membership by one exponentiation) against subgroup closure, elliptic
discrete logs against enumeration of <P mod v>, and the modular square
root against a table of squares."""

import itertools
import random
from fractions import Fraction

import pytest

from mwlab import dependence, mwgroup
from mwlab.dependence import SubgroupSpec, _member_raw, member_mod
from mwlab.mwgroup import (
    EC_IDENTITY,
    EllipticGroup,
    MulPoint,
    MultiplicativeGroup,
    WeierstrassCurve,
    _count_points_naive,
    _curve_order_mod,
    _ec_add_mod,
    _shanks_mestre_order,
    subgroup_closure_mod,
)
from mwlab.numth import PrimeRange, primes_in, sqrt_mod

C37 = WeierstrassCurve(0, 0, 1, -1, 0)  # rank 1, no CM
C389 = WeierstrassCurve(0, 1, 1, -2, 0)  # rank 2, no CM; (0,0), (1,0) independent
CXX = WeierstrassCurve(0, 0, 0, -1, 0)  # y^2 = x^3 - x: CM, full rational 2-torsion
CX1 = WeierstrassCurve(0, 0, 0, 0, 1)  # y^2 = x^3 + 1: CM
COEFFS = {c: (c.a1, c.a2, c.a3, c.a4, c.a6) for c in (C37, C389, CXX, CX1)}


def good_primes(curve, lo, hi):
    return [v for v in primes_in(PrimeRange(lo, hi)) if curve.discriminant % v]


def affine_points(curve, v, count):
    """The first `count` affine points of E(F_v), by x then y."""
    out = []
    for x in range(v):
        for y in range(v):
            if (y * y + curve.a1 * x * y + curve.a3 * y
                    - x**3 - curve.a2 * x * x - curve.a4 * x - curve.a6) % v == 0:
                out.append((x, y))
                if len(out) == count:
                    return out
    return out


class TestSqrtMod:
    def test_against_square_table(self):
        # 17, 41, 73, 97, 113, 193 are 1 mod 8, where Tonelli-Shanks iterates.
        for p in primes_in(PrimeRange(3, 200)):
            squares = {x * x % p for x in range(p)}
            for a in range(-3, 2 * p):
                r = sqrt_mod(a, p)
                if a % p in squares:
                    assert r is not None and r * r % p == a % p
                else:
                    assert r is None


class TestPointCount:
    @pytest.mark.parametrize("curve", [C37, C389, CXX, CX1], ids=["37a", "389a", "x3-x", "x3+1"])
    def test_against_naive_count(self, curve):
        coeffs = COEFFS[curve]
        for v in good_primes(curve, 2, 5000):
            naive = _count_points_naive(coeffs, v)
            assert _curve_order_mod(coeffs, v) == naive, v
            if v > 2:
                assert _shanks_mestre_order(curve, v) in (None, naive), v

    def test_small_primes(self):
        # v = 2 and v = 3 always take the enumeration.
        assert _curve_order_mod(COEFFS[C37], 2) == _count_points_naive(COEFFS[C37], 2) == 5
        assert _curve_order_mod(COEFFS[C37], 3) == _count_points_naive(COEFFS[C37], 3) == 7
        for curve in (C389, CX1):
            for v in (2, 3):
                if curve.discriminant % v:
                    assert _curve_order_mod(COEFFS[curve], v) == _count_points_naive(COEFFS[curve], v)
        assert _shanks_mestre_order(C37, 3) in (None, 7)

    @pytest.mark.parametrize("curve", [C37, C389], ids=["37a", "389a"])
    def test_shanks_mestre_decides_on_non_cm_curves(self, curve, monkeypatch):
        # A count that always fell back to enumeration would pass the
        # comparison above; it must not pass this.
        primes = good_primes(curve, 101, 5000)
        decided = sum(_shanks_mestre_order(curve, v) is not None for v in primes)
        assert decided >= 0.95 * len(primes)
        fallbacks = []

        def naive(coeffs, v):
            fallbacks.append(v)
            return _count_points_naive(coeffs, v)

        monkeypatch.setattr(mwgroup, "_count_points_naive", naive)
        for v in primes:
            _curve_order_mod.__wrapped__(COEFFS[curve], v)  # bypass the cache
        assert len(fallbacks) <= 0.05 * len(primes)


class TestEllipticDlog:
    @pytest.mark.parametrize("curve", [C37, C389], ids=["37a", "389a"])
    def test_against_enumeration(self, curve):
        # Pairs (P, Q) with Q in <P> (several multiples, the identity) and,
        # at some primes, outside it: B is independent of A on 389a, and A
        # lies in <2A mod v> only where ord_v A is odd.
        E = EllipticGroup(curve)
        A = curve.point(0, 0)
        B = curve.point(1, 0) if curve == C389 else curve.neg(A)
        pairs = [(A, EC_IDENTITY), (A, curve.mul(7, A)), (A, curve.neg(A)),
                 (A, B), (curve.mul(2, A), A), (B, curve.add(curve.mul(3, B), A))]
        answers = set()
        for v in good_primes(curve, 3, 300):
            for P, Q in pairs:
                if not E.good_prime([P, Q], v):
                    continue
                rawP = E.reduce_raw(P, v)
                index, R = {None: 0}, _ec_add_mod(curve, None, rawP, v)
                while R is not None:
                    index[R] = len(index)
                    R = _ec_add_mod(curve, R, rawP, v)
                expected = index.get(E.reduce_raw(Q, v))
                assert E.dlog_mod(P, Q, v) == expected, (v, P, Q)
                answers.add(None if expected is None else min(expected, 1))
        assert answers == {None, 0, 1}


class TestSylowMembership:
    def test_rank_two_curve_against_closure(self, monkeypatch):
        E = EllipticGroup(C389)
        A, B = C389.point(0, 0), C389.point(1, 0)
        AB = C389.add(A, B)
        Ps = [A, B, AB, C389.neg(AB), C389.mul(2, A), C389.add(C389.mul(3, A), B),
              C389.add(C389.mul(2, B), C389.neg(A)), C389.mul(6, B)]
        subsets = [s for r in range(3) for s in itertools.combinations((A, B), r)]
        closures = _count_closures(monkeypatch)
        answers = set()
        for v in good_primes(C389, 3, 1500):
            if not E.good_prime(Ps, v):
                continue
            for gens in subsets:
                closure = subgroup_closure_mod(E, [E.reduce_raw(L, v) for L in gens], v)
                for P in Ps:
                    got = member_mod(P, SubgroupSpec(gens, E), v)
                    assert got == (E.reduce_raw(P, v) in closure), (v, gens, P)
                    answers.add(got)
        assert answers == {True, False}
        assert closures["n"] > 0  # some 2- or 3-Sylow part needed closing

    def test_full_two_torsion_against_closure(self, monkeypatch):
        # Reduced 2-torsion T1, T2 spans E[2] = Z/2 x Z/2, so the 2-Sylow
        # part is never cyclic; r1 and r2 are further points of E(F_v).
        E = EllipticGroup(CXX)
        T1, T2 = CXX.point(0, 0), CXX.point(1, 0)
        closures = _count_closures(monkeypatch)
        answers = set()
        for v in good_primes(CXX, 3, 1500):
            t1, t2 = E.reduce_raw(T1, v), E.reduce_raw(T2, v)
            extra = [p for p in affine_points(CXX, v, 6) if p[1]]
            if len(extra) < 2:
                continue  # at v = 3 every affine point is 2-torsion
            r1, r2 = extra[:2]
            gens = (t1, t2, r1)
            targets = [None, t1, t2, r1, r2, _ec_add_mod(CXX, r1, t2, v),
                       _ec_add_mod(CXX, r2, t1, v), _ec_add_mod(CXX, r1, r2, v),
                       _ec_add_mod(CXX, r1, r1, v)]
            for r in range(len(gens) + 1):
                for subset in itertools.combinations(gens, r):
                    closure = subgroup_closure_mod(E, list(subset), v)
                    for raw in targets:
                        got = _member_raw(E, raw, list(subset), v)
                        assert got == (raw in closure), (v, subset, raw)
                        answers.add(got)
        assert answers == {True, False}
        assert closures["n"] > 0


class TestCyclicMembership:
    def test_qstar_against_closure(self, monkeypatch):
        # F_v* is cyclic: membership is one exponentiation by the lcm of
        # the generator orders, and no order of the target is computed.
        M = MultiplicativeGroup()
        rng = random.Random(53)
        gen_sets = [(2,), (3, 5), (2, 3), (-1, 7), (4, 6, 10), (Fraction(2, 3),)]
        while len(gen_sets) < 10:
            gen_sets.append(tuple(rng.choice([-1, 1]) * rng.randint(2, 30)
                                  for _ in range(rng.randint(1, 3))))
        targets = [MulPoint(x) for x in (-1, 6, 12, 15, Fraction(3, 2), Fraction(5, 7),
                                          *(rng.randint(2, 60) for _ in range(6)))]
        closures = _count_closures(monkeypatch)
        orders = []

        def counted_order(raw, v):
            orders.append(raw)
            return MultiplicativeGroup.raw_order(M, raw, v)

        monkeypatch.setattr(M, "raw_order", counted_order)
        answers = set()
        for gens in gen_sets:
            points = [MulPoint(g) for g in gens]
            for v in primes_in(PrimeRange(3, 2000)):
                if not M.good_prime(points + targets, v):
                    continue
                raws = [M.reduce_raw(L, v) for L in points]
                closure = subgroup_closure_mod(M, raws, v)
                for P in targets:
                    raw = M.reduce_raw(P, v)
                    orders.clear()
                    got = _member_raw(M, raw, raws, v)
                    assert got == (raw in closure), (gens, P, v)
                    assert len(orders) == len(raws)  # generators only
                    answers.add(got)
        assert answers == {True, False}
        assert closures["n"] == 0


def _count_closures(monkeypatch):
    """Count the closures membership runs, without changing them."""
    calls = {"n": 0}
    inner = dependence.subgroup_closure_mod

    def counted(*args):
        calls["n"] += 1
        return inner(*args)

    monkeypatch.setattr(dependence, "subgroup_closure_mod", counted)
    return calls
