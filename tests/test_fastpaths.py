"""Fast paths against the slow exact oracles they replace: Shanks-Mestre
point counts against enumeration, Sylow-local membership (and Q*
membership by one exponentiation) against subgroup closure, the subgroup
exponent against the lcm of the generator orders, valuation patterns and
covers decided by multiples against full orders, elliptic discrete logs
against enumeration of <P mod v>, the modular square root against a table
of squares, and the bounded elliptic certificate search against the search
that stored every combination's sum."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from mwlab import dependence, mwgroup, primesearch, support
from mwlab._parallel import BAD_PRIME
from mwlab.dependence import (
    SubgroupSpec,
    _bounded_membership_search,
    _member_raw,
    _subgroup_exponent,
    member_mod,
)
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
    bounded_combinations,
    subgroup_closure_mod,
)
from mwlab.numth import PrimeRange, exact_valuation, primes_in, sqrt_mod
from mwlab.primesearch import ValuationPattern, find_pattern_primes, pattern_density
from mwlab.reports import RelationCertificate, Witness

C37 = WeierstrassCurve(0, 0, 1, -1, 0)  # rank 1, no CM
C389 = WeierstrassCurve(0, 1, 1, -2, 0)  # rank 2, no CM; (0,0), (1,0) independent
CXX = WeierstrassCurve(0, 0, 0, -1, 0)  # y^2 = x^3 - x: CM, full rational 2-torsion
CX1 = WeierstrassCurve(0, 0, 0, 0, 1)  # y^2 = x^3 + 1: CM
CN5 = WeierstrassCurve(0, 0, 0, -25, 0)  # y^2 = x^3 - 25x: rank 1, torsion Z/2 x Z/2
CX4 = WeierstrassCurve(0, 0, 0, -4, 0)  # y^2 = x^3 - 4x: CM
CX432 = WeierstrassCurve(0, 0, 0, 0, -432)  # y^2 = x^3 - 432: CM
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


    @pytest.mark.parametrize("curve", [CXX, CX1, CX4, CX432], ids=["x3-x", "x3+1", "x3-4x", "x3-432"])
    def test_cm_curves_where_one_point_rarely_pins_the_count(self, curve, monkeypatch):
        # On CM curves E(F_v) is often far from cyclic, so a point's order
        # leaves several multiples in the Hasse interval; the count must
        # still be the enumerated one wherever Shanks-Mestre answers, and
        # the single-multiple exit must be taken at some primes.
        shortcuts = []
        inner = mwgroup._ec_bsgs

        def counted(curve_, P, target, k0, count, v):
            k = inner(curve_, P, target, k0, count, v)
            if k0 == 1 and target is None:
                shortcuts.append(k is None)
            return k

        monkeypatch.setattr(mwgroup, "_ec_bsgs", counted)
        decided = 0
        for v in good_primes(curve, 3, 3000):
            got = _shanks_mestre_order(curve, v)
            assert got in (None, _count_points_naive(COEFFS[curve], v)), v
            decided += got is not None
        assert decided > 0 and True in shortcuts and False in shortcuts


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
                    assert orders == []  # m comes from one strip of v - 1
                    answers.add(got)
        assert answers == {True, False}
        assert closures["n"] == 0


class TestSubgroupExponent:
    @pytest.mark.parametrize("backend, gen_sets", [
        (MultiplicativeGroup(), [(2,), (3, 5), (-1, 7), (4, 6, 10), (Fraction(2, 3), 9), ()]),
        (EllipticGroup(C389), [((0, 0),), ((1, 0),), ((0, 0), (1, 0)), ((-2, -1), (0, 0)), ()]),
        (EllipticGroup(CXX), [((0, 0),), ((0, 0), (1, 0)), ((1, 0), (-1, 0)), ()]),
    ], ids=["qstar", "389a", "x3-x"])
    def test_against_lcm_of_generator_orders(self, backend, gen_sets):
        curve = getattr(backend, "curve", None)
        for gens in gen_sets:
            points = [backend.parse_point(str(g)) if curve is None else curve.point(*g) for g in gens]
            for v in primes_in(PrimeRange(3, 1500)):
                if not backend.good_prime(points, v):
                    continue
                raws = [backend.reduce_raw(L, v) for L in points]
                want = math.lcm(*(backend.raw_order(g, v) for g in raws))
                assert _subgroup_exponent(backend, raws, backend.group_order_mod(v), v) == want


def pattern_test_by_orders(points, pattern, backend, v):
    """Oracle: the pattern read off the full orders at v."""
    if not backend.good_prime(points, v):
        return BAD_PRIME
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
            assert primesearch._pattern_test(points, pattern, backend, v) == want, v
            kinds.add(type(want))
        assert kinds == {type(BAD_PRIME), type(None), tuple}
        hits = find_pattern_primes(points, pattern, backend, scan, max_hits=25)
        density = pattern_density(points, pattern, backend, scan)
        monkeypatch.setattr(primesearch, "_pattern_test", pattern_test_by_orders)
        assert hits == find_pattern_primes(points, pattern, backend, scan, max_hits=25)
        assert density == pattern_density(points, pattern, backend, scan)


def cover_test_by_orders(condition_id, P, Qs, backend, v):
    """Oracle: the cover read off the full orders at v with `covers`."""
    if not backend.good_prime([P, *Qs], v):
        return BAD_PRIME
    tp = backend.order_mod(P, v)
    tq = [backend.order_mod(Q, v) for Q in Qs]
    if support.covers(tp, tq):
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
            assert support._cover_test(condition, P, Qs, backend, v) == want, v
            kinds.add(type(want))
        assert kinds == {type(BAD_PRIME), type(None), Witness}


def _count_closures(monkeypatch):
    """Count the closures membership runs, without changing them."""
    calls = {"n": 0}
    inner = dependence.subgroup_closure_mod

    def counted(*args):
        calls["n"] += 1
        return inner(*args)

    monkeypatch.setattr(dependence, "subgroup_closure_mod", counted)
    return calls


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
