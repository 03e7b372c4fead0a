"""Fast paths against the slow exact oracles they replace: Shanks-Mestre
point counts (with the quadratic twist) against enumeration, the symmetric
baby-step giant-step walk against brute force, Sylow-local membership (and Q*
membership by one exponentiation) against subgroup closure, the bound on
E(F_v)'s non-cyclic part against the enumerated group, the subgroup
exponent against the lcm of the generator orders, valuation patterns and
covers decided by multiples against full orders, elliptic discrete logs
against enumeration of <P mod v>, the Jacobian ladder against an affine
double-and-add, the points rescaled onto E or its twist against brute-force
counts of their models, and the bounded elliptic certificate search against
the search that stored every combination's sum. The witness re-checks must
not run the ladder."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from mwlab import cli, dependence, elliptic, numth, primesearch, support
from mwlab._parallel import scan_chunk
from mwlab.dependence import (
    SubgroupSpec,
    _bounded_membership_search,
    member_mod,
)
from mwlab.elliptic import (
    EC_IDENTITY,
    EllipticGroup,
    WeierstrassCurve,
    _count_points_naive,
    _curve_order_mod,
    _ec_add_mod,
    _ec_walk,
    _shanks_mestre_order,
    _short_add,
    _to_short,
)
from mwlab.mwgroup import (
    MulPoint,
    MultiplicativeGroup,
    bounded_combinations,
    subgroup_closure_mod,
)
from mwlab.numth import PrimeRange, exact_valuation, primes_in
from mwlab.primesearch import ValuationPattern, find_pattern_primes, pattern_density
from mwlab.reports import RelationCertificate, Witness

C37 = WeierstrassCurve(0, 0, 1, -1, 0)  # rank 1, no CM
C389 = WeierstrassCurve(0, 1, 1, -2, 0)  # rank 2, no CM; (0,0), (1,0) independent
CXX = WeierstrassCurve(0, 0, 0, -1, 0)  # y^2 = x^3 - x: CM, full rational 2-torsion
CX1 = WeierstrassCurve(0, 0, 0, 0, 1)  # y^2 = x^3 + 1: CM
CN5 = WeierstrassCurve(0, 0, 0, -25, 0)  # y^2 = x^3 - 25x: rank 1, torsion Z/2 x Z/2
CX4 = WeierstrassCurve(0, 0, 0, -4, 0)  # y^2 = x^3 - 4x: CM
CX432 = WeierstrassCurve(0, 0, 0, 0, -432)  # y^2 = x^3 - 432: CM
CA = WeierstrassCurve(1, -1, -1, -3, 0)  # a1, a3 != 0; (0,0) and (0,1) on it
COEFFS = {c: (c.a1, c.a2, c.a3, c.a4, c.a6) for c in (C37, C389, CXX, CX1, CX4, CX432)}


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

        monkeypatch.setattr(elliptic, "_count_points_naive", naive)
        for v in primes:
            _curve_order_mod.__wrapped__(COEFFS[curve], v)  # bypass the cache
        assert len(fallbacks) <= 0.05 * len(primes)
        # The count below _MESTRE_FROM enumerates, so the patch is the one
        # the counts call, and the bound above is not met vacuously.
        _curve_order_mod.__wrapped__(COEFFS[curve], 5)
        assert fallbacks[-1:] == [5]


    @pytest.mark.parametrize("curve", [CXX, CX1, CX4, CX432], ids=["x3-x", "x3+1", "x3-4x", "x3-432"])
    def test_cm_curves_where_one_point_rarely_pins_the_count(self, curve, monkeypatch):
        # On CM curves E(F_v) is often far from cyclic, so a point's order
        # leaves several multiples in the Hasse interval; the count must
        # still be the enumerated one wherever Shanks-Mestre answers, and
        # the single-hit exit must be taken at some points and not at others.
        shortcuts = []
        inner = elliptic._ec_walk

        def counted(a, P, target, k0, k1, limit, v):
            hits = inner(a, P, target, k0, k1, limit, v)
            shortcuts.append(len(hits) == 1)
            return hits

        monkeypatch.setattr(elliptic, "_ec_walk", counted)
        decided = 0
        for v in good_primes(curve, 3, 3000):
            got = _shanks_mestre_order(curve, v)
            assert got in (None, _count_points_naive(COEFFS[curve], v)), v
            decided += got is not None
        assert decided > 0 and True in shortcuts and False in shortcuts

    @pytest.mark.parametrize("curve", [CXX, CX1, CX4, CX432], ids=["x3-x", "x3+1", "x3-4x", "x3-432"])
    def test_cm_curves_count_on_the_twist_not_by_enumeration(self, curve, monkeypatch):
        # Where E's points leave several candidates, points of the quadratic
        # twist decide; no good prime from _MESTRE_FROM on is enumerated.
        # Each point drawn is walked, so the side it is drawn from is read
        # off the generator's Legendre symbol.
        enumerated, twisted = [], []
        inner_points, inner_naive = elliptic._scaled_points, elliptic._count_points_naive

        def points(A, B, v, chi):
            for point in inner_points(A, B, v, chi):
                twisted.append(chi != 1)
                yield point

        def naive(coeffs, v):
            enumerated.append(v)
            return inner_naive(coeffs, v)

        monkeypatch.setattr(elliptic, "_scaled_points", points)
        monkeypatch.setattr(elliptic, "_count_points_naive", naive)
        for v in good_primes(curve, 3, 5000):
            assert _curve_order_mod.__wrapped__(COEFFS[curve], v) == inner_naive(COEFFS[curve], v), v
        assert enumerated and max(enumerated) < elliptic._MESTRE_FROM
        assert True in twisted

    @pytest.mark.parametrize("curve", [C37, CXX, CX1], ids=["37a", "x3-x", "x3+1"])
    def test_scaled_points_against_brute_force_counts(self, curve):
        # Each (a, P) with P = (f*X, f^2) lies on Y^2 = X^3 + a*X + B*f^3;
        # that model has N points when f is a square and 2v+2-N when it is
        # not, and each side yields one point per X of its symbol.
        _, A, B = curve.short_model
        for v in good_primes(curve, 5, 60):
            squares = {t * t % v for t in range(1, v)}

            def count(a, b):
                return 1 + sum((Y * Y - X**3 - a * X - b) % v == 0 for X in range(v) for Y in range(v))

            N = count(A % v, B % v)
            roots = sum((X**3 + A * X + B) % v == 0 for X in range(v))
            for chi, want in ((1, N), (v - 1, 2 * v + 2 - N)):
                got = list(elliptic._scaled_points(A, B, v, chi))
                assert len(got) == (want - 1 - roots) // 2, (v, chi)
                for a, (x, y) in got:
                    fs = [f for f in range(1, v) if f * f % v == y and A * f * f % v == a
                          and (y * y - x**3 - a * x - B * f**3) % v == 0]
                    # With B = 0 both f and -f fit, and their models agree.
                    assert any((f in squares) == (chi == 1) for f in fs), (v, chi, a, x, y)
                    for f in fs:
                        assert count(a, B * f**3 % v) == want, (v, chi, a, f)

    def test_one_walk_per_prime_on_a_non_cm_curve(self, monkeypatch):
        walks = []
        inner = elliptic._ec_walk
        monkeypatch.setattr(elliptic, "_ec_walk", lambda *args: walks.append(1) or inner(*args))
        primes = good_primes(C37, 100_000, 120_000)
        assert all(_shanks_mestre_order(C37, v) is not None for v in primes)
        assert len(primes) <= len(walks) <= 1.1 * len(primes)  # a walk per point tried


class TestEllipticWalk:
    @pytest.mark.parametrize("curve", [C37, CXX, CX1, CA], ids=["37a", "x3-x", "x3+1", "a1a3"])
    def test_hits_against_brute_force(self, curve):
        # Every point at small v, against the multiples listed by repeated
        # addition, over seeded windows, targets and limits. A window of
        # 2s+1 consecutive k holds two hits when ord P <= 2s+1; the orders
        # 2s and 2s+1, past the reach of a repeated baby-step x, must come up.
        rng = random.Random(17)
        _, A, B = curve.short_model
        edges = set()
        for v in good_primes(curve, 5, 60):
            a, b = A % v, B % v
            points = [None] + [(x, y) for x in range(v) for y in range(v)
                               if (y * y - x**3 - a * x - b) % v == 0]
            for P in points:
                multiples, R = [None], P
                while R is not None:
                    multiples.append(R)
                    R = _short_add(a, R, P, v)
                t = len(multiples)
                for _ in range(12):
                    k0 = rng.randint(-3 * t, 3 * t)
                    k1 = k0 + rng.randint(0, 4 * t + 3)
                    target, limit = rng.choice(points), rng.choice((1, 2, 3, 10**9))
                    want = [k for k in range(k0, k1 + 1) if multiples[k % t] == target][:limit]
                    assert _ec_walk(a, P, target, k0, k1, limit, v) == want, (v, P, target, k0, k1)
                    s = math.isqrt((k1 - k0 + 1) // 2) + 1
                    if len(want) >= 2 and t in (2 * s, 2 * s + 1):
                        edges.add(t - 2 * s)
        assert edges == {0, 1}

    def test_short_model_map_is_a_homomorphism(self):
        for v in good_primes(CA, 5, 80):
            a = CA.short_model[1] % v
            points = [None, *affine_points(CA, v, 12)]
            for P in points:
                for Q in points:
                    assert _to_short(CA, _ec_add_mod(CA, P, Q, v), v) == _short_add(
                        a, _to_short(CA, P, v), _to_short(CA, Q, v), v), (v, P, Q)


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


def affine_multiple(curve, n, P, v):
    """Oracle: n*P by double-and-add on `_ec_add_mod` alone."""
    if n < 0:
        n, P = -n, elliptic._ec_neg_mod(curve, P, v)
    acc = None
    while n:
        if n & 1:
            acc = _ec_add_mod(curve, acc, P, v)
        P = _ec_add_mod(curve, P, P, v)
        n >>= 1
    return acc


class TestJacobianLadder:
    FULL_RANGE_BELOW = 30

    def _multipliers(self, curve, P, v, rng):
        """Every n in [-3v, 3v] at small v. Above, the multipliers whose
        ladder prefixes reach each edge of the mixed addition (the
        accumulator at O, at P and at -P) for a point of order t, plus the
        ends of the range and a seeded sample."""
        if v < self.FULL_RANGE_BELOW:
            return range(-3 * v, 3 * v + 1)
        t, R = 1, P
        while R is not None:
            t, R = t + 1, _ec_add_mod(curve, R, P, v)
        near = {j * t + d for j in (1, 2) for d in range(-2, 3)} | {0, 1, 2, 3, 3 * v}
        near |= {rng.randint(-3 * v, 3 * v) for _ in range(8)}
        return sorted(near | {-n for n in near})

    @pytest.mark.parametrize("curve", [C37, C389, CXX, CA], ids=["37a", "389a", "x3-x", "a1a3"])
    def test_against_affine_double_and_add(self, curve):
        E = EllipticGroup(curve)
        rng = random.Random(150)
        for v in good_primes(curve, 2, 150):
            for P in [None, *affine_points(curve, v, 2 * v + 2)]:
                for n in self._multipliers(curve, P, v, rng) if P else range(-3, 4):
                    want = affine_multiple(curve, n, P, v)
                    if v >= 5:  # the ladder on the short model, mapped there
                        got = elliptic._short_mul(curve.short_model[1] % v, n, _to_short(curve, P, v), v)
                        assert got == _to_short(curve, want, v), (v, P, n)
                    else:
                        assert elliptic._ec_mul_affine(curve, n, P, v) == want, (v, P, n)
                    assert E.raw_kills(n, P, v) == (want is None), (v, P, n)

    def test_qstar_kills_against_literal_power(self):
        M = MultiplicativeGroup()
        rng = random.Random(151)
        answers = set()
        for v in primes_in(PrimeRange(3, 400)):
            for _ in range(6):
                raw = rng.randrange(1, v)
                for n in (0, v - 1, (v - 1) // 2, rng.randint(-3 * v, 3 * v), M.raw_order(raw, v)):
                    got = M.raw_kills(n, raw, v)
                    assert got == M.raw_is_identity(M.raw_scale(n, raw, v), v), (v, raw, n)
                    # -|n| * raw is the |n|-th power of the Fermat inverse.
                    inverse = pow(raw, v - 2, v)
                    assert M.raw_scale(-abs(n), raw, v) == pow(inverse, abs(n), v), (v, raw, n)
                    answers.add(got)
        assert answers == {True, False}


def all_points(curve, v):
    """Every point of E(F_v), None for O, by enumeration over x: at odd v,
    y solves (2y + b)^2 = b^2 + 4*(x^3 + a2*x^2 + a4*x + a6), b = a1*x + a3."""
    if v == 2:
        return [None, *affine_points(curve, v, 2 * v + 2)]
    roots: dict = {}
    for r in range(v):
        roots.setdefault(r * r % v, []).append(r)
    half = pow(2, -1, v)
    points = [None]
    for x in range(v):
        b = curve.a1 * x + curve.a3
        rhs = x**3 + curve.a2 * x * x + curve.a4 * x + curve.a6
        points += [(x, (r - b) * half % v) for r in roots.get((b * b + 4 * rhs) % v, ())]
    return points


def exponent_by_enumeration(E, points, v):
    """Oracle: the lcm of the orders of all points, each order by repeated
    affine addition where the lcm so far does not kill the point."""
    m = 1
    for P in points:
        if E.raw_scale(m, P, v) is not None:
            m = math.lcm(m, literal_order(E, P, v))
    return m


class TestNoncyclicBound:
    CURVES = {"11a": (0, -1, 1, -10, -20), "37a": (0, 0, 1, -1, 0), "389a": (0, 1, 1, -2, 0),
              "x3-x": (0, 0, 0, -1, 0), "x3+1": (0, 0, 0, 0, 1), "x3-4x": (0, 0, 0, -4, 0),
              "1,1,1,-10,-10": (1, 1, 1, -10, -10)}

    def test_against_enumerated_group_structure(self):
        # E(F_v) = Z/n1 x Z/n2 with n1 | n2 and n2 its exponent: n1 must
        # divide the bound, and an even bound must mean all of E[2] is
        # rational (four points P with 2P = O).
        odd, noncyclic, even = 0, set(), set()
        for name, coeffs in self.CURVES.items():
            curve = WeierstrassCurve(*coeffs)
            E = EllipticGroup(curve)
            for v in good_primes(curve, 2, 260):
                points = all_points(curve, v)
                n = len(points)
                assert n == E.group_order_mod(v), (name, v)
                n1 = n // exponent_by_enumeration(E, points, v)
                bound = E.noncyclic_bound(v)
                assert bound % n1 == 0, (name, v, n1, bound)
                assert math.gcd(v - 1, n) % bound == 0, (name, v, bound)
                if n1 > 1:
                    noncyclic.add(name)
                if v > 2:
                    odd += 1
                    two_torsion = sum(E.raw_scale(2, P, v) is None for P in points)
                    assert (bound % 2 == 0) == (two_torsion == 4), (name, v, bound, two_torsion)
                    if bound % 2 == 0:
                        even.add(name)
        assert odd == 373
        assert {"x3-x", "x3-4x"} <= even and len(noncyclic) >= 3

    def test_window_detect_closes_few_sylow_parts(self, monkeypatch, capsys):
        # The ec-window detect command: (-2,-1) = (0,0) + (1,0) on 389a.
        # It runs 38 closures; with the bound gcd(v-1, N) it ran 102, with
        # no Legendre test in the bound 50, and with no l-part kill test 43.
        closures = _count_closures(monkeypatch)
        argv = ["detect", "--backend", "ec:0,1,1,-2,0", "--points", "(-2,-1)",
                "--lambda", "(0,0),(1,0)", "--primes", "3..1400", "--workers", "1"]
        assert cli.main(argv) == 0
        assert 0 < closures["n"] <= 40


class TestSylowMembership:
    def test_rank_two_curve_against_closure(self, monkeypatch):
        E = EllipticGroup(C389)
        A, B = C389.point(0, 0), C389.point(1, 0)
        AB = C389.add(A, B)
        Ps = [A, B, AB, C389.neg(AB), C389.mul(2, A), C389.add(C389.mul(3, A), B),
              C389.add(C389.mul(2, B), C389.neg(A)), C389.mul(6, B)]
        subsets = [s for r in range(3) for s in itertools.combinations((A, B), r)]
        closures = _count_closures(monkeypatch)
        watch = _watch_shortcut(monkeypatch, E)
        answers, whole = set(), 0
        for v in good_primes(C389, 3, 1500):
            if not E.good_prime(Ps, v):
                continue
            n = E.group_order_mod(v)
            # A, B and two more points of E(F_v) often generate all of it.
            full = [E.reduce_raw(A, v), E.reduce_raw(B, v), *affine_points(C389, v, 2)]
            for raw_gens in [*([E.reduce_raw(L, v) for L in gens] for gens in subsets), full]:
                closure = subgroup_closure_mod(E, raw_gens, v)
                whole += len(closure) == n
                for P in Ps:
                    got = member_mod(E, E.reduce_raw(P, v), raw_gens, v)
                    assert got == (E.reduce_raw(P, v) in closure), (v, raw_gens, P)
                    assert _shortcut_ok(watch, n, got), (v, raw_gens, P)
                    answers.add(got)
        assert answers == {True, False}
        assert closures["n"] > 0  # some 2- or 3-Sylow part needed closing
        assert whole > 0 and watch["taken"] > 0, (whole, watch)

    def test_full_two_torsion_against_closure(self, monkeypatch):
        # Reduced 2-torsion T1, T2 spans E[2] = Z/2 x Z/2, so the 2-Sylow
        # part is never cyclic; r1 and r2 are further points of E(F_v).
        E = EllipticGroup(CXX)
        T1, T2 = CXX.point(0, 0), CXX.point(1, 0)
        closures = _count_closures(monkeypatch)
        watch = _watch_shortcut(monkeypatch, E)
        answers, whole = set(), 0
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
            n = E.group_order_mod(v)
            for r in range(len(gens) + 1):
                for subset in itertools.combinations(gens, r):
                    closure = subgroup_closure_mod(E, list(subset), v)
                    whole += len(closure) == n
                    for raw in targets:
                        got = member_mod(E, raw, list(subset), v)
                        assert got == (raw in closure), (v, subset, raw)
                        assert _shortcut_ok(watch, n, got), (v, subset, raw)
                        answers.add(got)
        assert answers == {True, False}
        assert closures["n"] > 0
        # E(F_v) is never cyclic here, so even H = G is decided past m.
        assert whole > 0 and watch["taken"] == 0, (whole, watch)


class TestCyclicMembership:
    def test_qstar_against_closure(self, monkeypatch):
        # F_v* is cyclic: membership is one exponentiation by the exponent
        # of the subgroup, and no order at all is computed.
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
        watch = _watch_shortcut(monkeypatch, M)
        answers, whole = set(), 0
        for gens in [*gen_sets, ()]:
            points = [MulPoint(g) for g in gens]
            for v in primes_in(PrimeRange(3, 2000)):
                if not M.good_prime(points + targets, v):
                    continue
                # No generators stands for a primitive root mod v: H = G.
                raws = [M.reduce_raw(L, v) for L in points] or [_primitive_root(v)]
                closure = subgroup_closure_mod(M, raws, v)
                whole += len(closure) == v - 1
                for P in targets:
                    raw = M.reduce_raw(P, v)
                    orders.clear()
                    got = member_mod(M, raw, raws, v)
                    assert got == (raw in closure), (gens, P, v)
                    assert orders == []  # m comes from one strip of v - 1
                    assert _shortcut_ok(watch, v - 1, got), (gens, P, v)
                    answers.add(got)
        assert answers == {True, False}
        assert closures["n"] == 0
        assert whole > 0 and watch["taken"] > 0, (whole, watch)


def _primitive_root(v):
    return next(g for g in range(2, v) if all(
        pow(g, (v - 1) // q, v) != 1 for q, _ in numth.factor(v - 1).factors))


def literal_order(backend, raw, v):
    """Oracle: the least t >= 1 with t * raw = 0, by repeated addition."""
    t, R = 1, raw
    while not backend.raw_is_identity(R, v):
        t, R = t + 1, backend.raw_combine(R, raw, v)
    return t


def strip_exponent(backend, raws, m, v):
    """Oracle: the generic strip each backend's raw_exponent replaced, one
    `raw_kills` call per kill test."""
    for q, _ in numth.factor(m).factors:
        while m % q == 0:
            for raw in raws:
                if not backend.raw_kills(m // q, raw, v):
                    break
            else:
                m //= q
                continue
            break
    return m


class TestSubgroupExponent:
    @pytest.mark.parametrize("backend, gen_sets", [
        (MultiplicativeGroup(), [(2,), (3, 5), (-1, 7), (4, 6, 10), (Fraction(2, 3), 9), ()]),
        (EllipticGroup(C389), [((0, 0),), ((1, 0),), ((0, 0), (1, 0)), ((-2, -1), (0, 0)), ()]),
        (EllipticGroup(CXX), [((0, 0),), ((0, 0), (1, 0)), ((1, 0), (-1, 0)), ()]),
    ], ids=["qstar", "389a", "x3-x"])
    def test_against_lcm_of_generator_orders(self, backend, gen_sets):
        # From v = 2, so the elliptic strip also runs affine, below the short model.
        curve = getattr(backend, "curve", None)
        for gens in gen_sets:
            points = [backend.parse_point(str(g)) if curve is None else curve.point(*g) for g in gens]
            for v in primes_in(PrimeRange(2, 1500)):
                raws = backend.reduce(points, v)
                if raws is None:
                    continue
                want = math.lcm(*(literal_order(backend, g, v) for g in raws))
                n = backend.group_order_mod(v)
                assert backend.raw_exponent(raws, n, v) == want, (gens, v)
                assert strip_exponent(backend, raws, n, v) == want, (gens, v)
                # A multiple of the exponent other than |G| strips to it too.
                assert backend.raw_exponent(raws, 6 * want, v) == want, (gens, v)


    @pytest.mark.parametrize("curve, gen_sets", [
        (C389, [((0, 0),), ((1, 0),), ((0, 0), (1, 0)), ((-2, -1), (0, 0), (1, 0))]),
        (CXX, [((0, 0),), ((0, 0), (1, 0)), ((1, 0), (-1, 0), (0, 0))]),
    ], ids=["389a", "x3-x"])
    def test_elliptic_strip_against_the_all_strip(self, curve, gen_sets):
        # One raw and several, at v < 5 (affine) and v >= 5 (short model),
        # from |E(F_v)| and from multiples of it with more primes to strip.
        E, below_5 = EllipticGroup(curve), 0
        for gens in gen_sets:
            points = [curve.point(*g) for g in gens]
            for v in primes_in(PrimeRange(2, 700)):
                raws = E.reduce(points, v)
                if raws is None:
                    continue
                below_5 += v < 5
                n = E.group_order_mod(v)
                for m in (n, 6 * n, 30 * n, n * n, 2 * 3 * 5 * 7 * 11 * n):
                    assert E.raw_exponent(raws, m, v) == all_strip(curve, raws, m, v), (gens, v, m)
        assert below_5 > 0


def all_strip(curve, raws, m, v):
    """Oracle: EllipticGroup.raw_exponent as it was before its plain loop,
    all() over a generator of kill tests."""
    if v < 5:
        kills = lambda n, raw: elliptic._ec_mul_affine(curve, n, raw, v) is None
    else:
        a, raws = curve.short_model[1] % v, [elliptic._to_short(curve, raw, v) for raw in raws]
        kills = lambda n, P: elliptic._ec_jacobian(a, n, P, v)[2] == 0
    for q, _ in numth.factor(m).factors:
        while m % q == 0 and all(kills(m // q, raw) for raw in raws):
            m //= q
    return m


BAD = "bad prime"


def at_prime(test, args, backend, points, v):
    """What scan_chunk makes of a per-prime test at v: BAD where it skips v
    as a bad prime, else the test's result."""
    res = scan_chunk(test, args, backend, points, [v], None)
    return BAD if res["bads"] else (res["hits"] or [None])[0]


def pattern_test_by_orders(points, pattern, backend, v):
    """Oracle: the pattern read off the full orders at v."""
    if not backend.good_prime(points, v):
        return BAD
    orders = tuple(backend.order_mod(P, v) for P in points)
    if all(exact_valuation(pattern.l, k, t) for k, t in zip(pattern.ks, orders)):
        return v, orders
    return None


class TestPatternByValuations:
    CASES = [
        (MultiplicativeGroup(), ("2", "3"), 3, (0, 0), (3, 20_000)),
        (MultiplicativeGroup(), ("2", "-5/7"), 2, (1, 2), (3, 20_000)),
        (MultiplicativeGroup(), ("6",), 5, (1,), (3, 20_000)),
        (EllipticGroup(C37), ("(0,0)",), 2, (0,), (3, 1500)),
        (EllipticGroup(C389), ("(0,0)", "(1,0)"), 2, (1, 0), (3, 1500)),
        (EllipticGroup(CN5), ("(-4,6)", "(0,0)"), 2, (1, 1), (3, 1500)),
    ]
    IDS = ["qstar-3-00", "qstar-2-12", "qstar-5-1", "37a-2-0", "389a-2-10", "x3-25x-2-11"]

    @pytest.mark.parametrize("backend, texts, l, ks, window", CASES, ids=IDS)
    def test_against_exact_valuation_of_orders(self, backend, texts, l, ks, window, monkeypatch):
        points = [backend.parse_point(t) for t in texts]
        pattern = ValuationPattern(l, ks)
        scan = PrimeRange(*window)
        kinds = set()
        for v in primes_in(scan):
            want = pattern_test_by_orders(points, pattern, backend, v)
            got = at_prime(primesearch._pattern_test, (points, pattern), backend, points, v)
            assert got == want, v
            kinds.add(type(want))
        assert kinds == {type(BAD), type(None), tuple}
        hits = find_pattern_primes(points, pattern, backend, scan, max_hits=25)
        density = pattern_density(points, pattern, backend, scan)

        def by_orders(points, pattern, backend, raws, v):
            # Never called at a bad prime, so BAD never comes back as a hit.
            return pattern_test_by_orders(points, pattern, backend, v)

        monkeypatch.setattr(primesearch, "_pattern_test", by_orders)
        assert hits == find_pattern_primes(points, pattern, backend, scan, max_hits=25)
        assert density == pattern_density(points, pattern, backend, scan)


def cover_test_by_orders(condition_id, P, Qs, backend, v):
    """Oracle: the cover read off the full orders at v, as some ord Q_i
    dividing ord P."""
    if not backend.good_prime([P, *Qs], v):
        return BAD
    tp = backend.order_mod(P, v)
    tq = [backend.order_mod(Q, v) for Q in Qs]
    if any(tp % t == 0 for t in tq):
        return None
    if condition_id == "corrales_schoof":
        detail = f"ord_v(x)={tp}, ord_v(y)={tq[0]}; n={tp} kills x but not y"
    else:
        detail = f"ord_v(P)={tp}, ord_v(Q_i)={tq}; n={tp} kills P but no Q_i"
    return Witness(v=v, n=tp, detail=detail)


class TestCoverByMultiple:
    @pytest.mark.parametrize("backend, P, Qs, window", [
        (MultiplicativeGroup(), "2", ("3",), (3, 5000)),
        (MultiplicativeGroup(), "12", ("2", "-3", "5/7"), (3, 5000)),
        (EllipticGroup(C37), "(1,0)", ("(0,0)",), (3, 1500)),
        (EllipticGroup(C389), "(0,0)", ("(1,0)", "(-2,-1)"), (3, 1500)),
    ], ids=["qstar-cs", "qstar-thm2", "37a-cs", "389a-thm2"])
    def test_against_covers_on_orders(self, backend, P, Qs, window):
        P = backend.parse_point(P)
        Qs = tuple(backend.parse_point(Q) for Q in Qs)
        condition = "corrales_schoof" if len(Qs) == 1 else "thm2"
        kinds = set()
        for v in primes_in(PrimeRange(*window)):
            want = cover_test_by_orders(condition, P, Qs, backend, v)
            assert at_prime(support._cover_test, (condition,), backend, (P, *Qs), v) == want, v
            kinds.add(type(want))
        assert kinds == {type(BAD), type(None), Witness}


def replay1_test_by_orders(P, Qs, l, backend, v):
    """Oracle: the step-1 replay read off the full orders at v."""
    if not backend.good_prime([P, *Qs], v):
        return BAD
    q_orders = [backend.order_mod(Q, v) for Q in Qs]
    n = backend.order_mod(P, v)
    if any(t % l for t in q_orders) or any(n % t == 0 for t in q_orders):
        return None
    detail = (
        f"ord_v(P)={n} with ord_v(Q_i)={q_orders}; n={n} kills P mod {v} "
        f"and kills no Q_i ({l} divides every ord_v(Q_i))"
    )
    return Witness(v=v, n=n, detail=detail)


class TestReplayByKills:
    @pytest.mark.parametrize("backend, P, Qs, l, window", [
        (MultiplicativeGroup(), "2", ("3", "5"), 3, (3, 5000)),
        (MultiplicativeGroup(), "6", ("2", "-7/5"), 2, (3, 5000)),
        (EllipticGroup(C37), "(1,0)", ("(0,0)",), 3, (3, 1500)),
        (EllipticGroup(CN5), "(-4,6)", ("(0,0)", "(5,0)"), 2, (3, 1500)),
        (EllipticGroup(C389), "(0,0)", ("(1,0)", "(-2,-1)"), 2, (3, 1500)),
    ], ids=["qstar-3", "qstar-2", "37a-3", "x3-25x-2", "389a-2"])
    def test_against_orders(self, backend, P, Qs, l, window):
        P = backend.parse_point(P)
        Qs = tuple(backend.parse_point(Q) for Q in Qs)
        kinds = set()
        for v in primes_in(PrimeRange(*window)):
            want = replay1_test_by_orders(P, Qs, l, backend, v)
            assert at_prime(primesearch._replay1_test, (l,), backend, (P, *Qs), v) == want, v
            kinds.add(type(want))
        assert kinds == {type(BAD), type(None), Witness}


def _count_closures(monkeypatch):
    """Count the closures membership runs, without changing them."""
    calls = {"n": 0}
    inner = dependence.subgroup_closure_mod

    def counted(*args):
        calls["n"] += 1
        return inner(*args)

    monkeypatch.setattr(dependence, "subgroup_closure_mod", counted)
    return calls


def _watch_shortcut(monkeypatch, backend):
    """Watch member_mod on one backend, without changing it: "m" is the
    last subgroup exponent it computed, "tests" the kill tests it ran after
    that, and "taken" counts the calls that `_shortcut_ok` saw stop at m."""
    watch = {"m": None, "tests": 0, "taken": 0}
    exponent, kills = backend.raw_exponent, backend.raw_kills

    def watched_exponent(*args):
        watch["m"], watch["tests"] = exponent(*args), 0
        return watch["m"]

    def watched_kills(*args):
        watch["tests"] += 1
        return kills(*args)

    monkeypatch.setattr(backend, "raw_exponent", watched_exponent)
    monkeypatch.setattr(backend, "raw_kills", watched_kills)
    return watch


def _shortcut_ok(watch, n, got):
    """An exponent m = n = |G| must answer True with no test past m; any
    other m must run the kill test by m."""
    if watch["m"] != n:
        return watch["tests"] > 0
    watch["taken"] += 1
    return got and watch["tests"] == 0


def _span_search(P, subgroup, bound):
    """Oracle: store the sum of every combination in [-bound, bound]^s
    (first vector in product order), then look up alpha*P for alpha = 1, 2, ..."""
    backend = subgroup.backend
    span: dict = {}
    for vec, acc in bounded_combinations(backend, subgroup.generators, bound):
        span.setdefault(acc, vec)
    acc = backend.identity()
    for alpha in range(1, bound + 1):
        acc = backend.combine(acc, P)
        if backend.is_identity(acc):
            continue
        vec = span.get(acc)
        if vec is not None:
            return RelationCertificate(kind="membership", coefficients=(alpha, *vec))
    return None


class TestBoundedMembershipSearch:
    def _cases(self, rng, curve, basis, torsion, trials):
        """Seeded (generators, P) pairs: generators are small combinations
        of the basis and torsion points, P another one, scaled by some
        alpha so that a certificate may need alpha > 1."""
        E = EllipticGroup(curve)
        pool = list(basis) + list(torsion)

        def combo():
            acc = EC_IDENTITY
            for Q in pool:
                acc = curve.add(acc, curve.mul(rng.randint(-2, 2), Q))
            return acc

        for _ in range(trials):
            gens = tuple(combo() for _ in range(rng.randint(1, 2)))
            yield SubgroupSpec(gens, E), combo()

    @pytest.mark.parametrize(
        "curve, basis, torsion",
        [
            (C37, [(0, 0)], []),
            (C389, [(0, 0), (1, 0)], []),
            (CN5, [(-4, 6)], [(0, 0), (5, 0)]),
        ],
        ids=["rank-1", "rank-2", "rank-1-torsion"],
    )
    def test_against_span_search(self, curve, basis, torsion):
        rng = random.Random(20)
        basis = [curve.point(*xy) for xy in basis]
        torsion = [curve.point(*xy) for xy in torsion]
        found = set()
        for subgroup, P in self._cases(rng, curve, basis, torsion, 25):
            for bound in (0, 1, 3):
                got = _bounded_membership_search(P, subgroup, bound)
                assert got == _span_search(P, subgroup, bound), (subgroup.generators, P, bound)
                found.add(None if got is None else min(got.coefficients[0], 2))
        assert found == {None, 1, 2}

    def test_chance_matches_at_small_screen_primes(self, monkeypatch):
        # At a screen prime near 200 many combinations match some alpha*P
        # mod v by chance. Each exact sum ends in the one comparison of
        # rational points the search makes, so the comparisons beyond a
        # certificate's own are chance matches that exact arithmetic
        # rejected. Each multiple lambda_j*L_j is scaled once per search.
        sums, scaled = {"n": 0}, []
        eq, scale = elliptic.EcPoint.__eq__, EllipticGroup.scale

        def counted_eq(self, other):
            sums["n"] += 1
            return eq(self, other)

        def counted_scale(self, k, L):
            scaled.append((k, id(L)))
            return scale(self, k, L)

        monkeypatch.setattr(elliptic.EcPoint, "__eq__", counted_eq)
        monkeypatch.setattr(EllipticGroup, "scale", counted_scale)
        rng = random.Random(20)
        cases = []
        for curve, basis, torsion in [
            (C37, [(0, 0)], []),
            (C389, [(0, 0), (1, 0)], []),
            (CN5, [(-4, 6)], [(0, 0), (5, 0)]),
        ]:
            basis = [curve.point(*xy) for xy in basis]
            torsion = [curve.point(*xy) for xy in torsion]
            cases += [(200, subgroup, P, bound)
                      for subgroup, P in self._cases(rng, curve, basis, torsion, 25)
                      for bound in (0, 1, 3)]
        # 23*A lies in <A, B> only with lambda = 23, past the bound. A chance
        # match at a new alpha costs one more exact addition of 23*A, whose
        # multiples grow quadratically in height: about 2 s for all 20 near
        # v = 200, so this search screens near 30000, where 18 chance
        # matches need only alpha <= 9.
        A, B = C389.point(0, 0), C389.point(1, 0)
        cases.append((30000, SubgroupSpec((A, B), EllipticGroup(C389)), C389.mul(23, A), 20))
        chance = {200: 0, 30000: 0}
        for screen, subgroup, P, bound in cases:
            monkeypatch.setattr(dependence, "_SCREEN_FROM", screen)
            before = sums["n"]
            scaled.clear()
            got = _bounded_membership_search(P, subgroup, bound)
            chance[screen] += sums["n"] - before - (got is not None)
            ids = [id(L) for L in subgroup.generators]
            assert all(scaled.count(c) <= ids.count(c[1]) for c in scaled), scaled
            assert got == _span_search(P, subgroup, bound), (subgroup.generators, P, bound)
        assert got is None
        assert min(chance.values()) > 0, chance

    def test_torsion_relations_among_generators(self):
        # G + T1 needs alpha = 2 against <G> alone; with T1 among the
        # generators alpha = 1 has several lambdas, and the first in product
        # order is kept. A torsion P is certified only where alpha*P != O.
        E = EllipticGroup(CN5)
        G, T1, T2 = CN5.point(-4, 6), CN5.point(0, 0), CN5.point(5, 0)
        cases = [
            ((G,), CN5.add(G, T1)),
            ((G, T1), CN5.add(G, T1)),
            ((T1, T2, G), CN5.add(CN5.mul(2, G), T2)),
            ((T1, T2), T1),
            ((T1, T2), CN5.add(T1, T2)),
            ((G,), T1),
            ((CN5.mul(2, G), T1), G),
        ]
        for gens, P in cases:
            subgroup = SubgroupSpec(gens, E)
            for bound in (1, 2, 4):
                got = _bounded_membership_search(P, subgroup, bound)
                assert got == _span_search(P, subgroup, bound), (gens, P, bound)
        cert = _bounded_membership_search(CN5.add(G, T1), SubgroupSpec((G,), E), 4)
        assert cert.coefficients == (2, 2)

    def test_negatives_and_torsion_shifts_at_the_default_bound(self, monkeypatch):
        # P = -L and P = -3L meet their alpha > 1 targets (20*P = -20*L, ...)
        # before alpha = 1 in product order; those are summed only if no
        # alpha = 1 match holds, so alpha*P and lambda*L are formed once each.
        E37, E5 = EllipticGroup(C37), EllipticGroup(CN5)
        L, G, T = C37.point(0, 0), CN5.point(-4, 6), CN5.point(0, 0)
        scales = []
        inner = EllipticGroup.scale

        def counted(self, n, P):
            scales.append(n)
            return inner(self, n, P)

        monkeypatch.setattr(EllipticGroup, "scale", counted)
        cases = [
            (SubgroupSpec((L,), E37), C37.neg(L), (1, -1)),
            (SubgroupSpec((L,), E37), C37.mul(-3, L), (1, -3)),
            (SubgroupSpec((G,), E5), CN5.add(G, T), (2, 2)),
            (SubgroupSpec((G, T), E5), CN5.add(G, T), (1, 1, -19)),
        ]
        for subgroup, P, want in cases:
            scales.clear()
            got = _bounded_membership_search(P, subgroup, 20)
            assert got.coefficients == want
            if len(subgroup.generators) == 1 and want[0] == 1:
                assert len(scales) <= 2, scales
            assert got == _span_search(P, subgroup, 20)


# The literal re-checks of witnesses and hits, which must not share the
# Jacobian ladder with the scans they check.
_RECHECKS = {
    support.verify_witness.__code__,
    dependence.verify_detect_witness.__code__,
    primesearch._verified_order.__code__,
}


class TestRecheckIndependence:
    def test_elliptic_witnesses_and_hits_reverify_without_the_ladder(self, monkeypatch):
        inner = elliptic._ec_jacobian
        calls = {"n": 0}

        def guarded(*args):
            frame = sys._getframe(1)
            while frame is not None:
                assert frame.f_code not in _RECHECKS, f"ladder inside {frame.f_code.co_name}"
                frame = frame.f_back
            calls["n"] += 1
            return inner(*args)

        monkeypatch.setattr(elliptic, "_ec_jacobian", guarded)
        rng = random.Random(2008)
        groups = [(C37, [(0, 0)]), (C389, [(0, 0), (1, 0)]), (CN5, [(-4, 6), (0, 0)]),
                  (CA, [(0, 0)])]
        scan = PrimeRange(3, 700)
        checked = {"cs": 0, "detect": 0, "hits": 0}
        for curve, basis in groups:
            E = EllipticGroup(curve)
            basis = [curve.point(*xy) for xy in basis]

            def combo():
                acc = EC_IDENTITY
                for Q in basis:
                    acc = curve.add(acc, curve.mul(rng.randint(-3, 3), Q))
                return acc

            for _ in range(4):
                x, y = combo(), combo()
                if E.is_torsion(x) or E.is_torsion(y):
                    continue
                w = support.scan_corrales_schoof(x, y, E, scan).witness
                if w is not None:
                    assert support.verify_witness("corrales_schoof", {"x": x, "y": y}, w.v, w.n,
                                                  backend=E)
                    checked["cs"] += 1
                subgroup = SubgroupSpec((y,), E)
                w = dependence.detect_dependence([x], subgroup, scan, coeff_bound=3).report.witness
                if w is not None:
                    assert dependence.verify_detect_witness([x], subgroup, w.v, w.n)
                    checked["detect"] += 1
                pattern = ValuationPattern(rng.choice([2, 3]), (rng.randint(0, 2),))
                hits = find_pattern_primes([x], pattern, E, scan, max_hits=3)
                assert all(h.verified for h in hits)
                checked["hits"] += len(hits)
        assert min(checked.values()) > 0 and calls["n"] > 0, checked
