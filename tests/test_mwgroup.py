import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlab import elliptic
from mwlab.elliptic import EC_IDENTITY, EcPoint, EllipticGroup, WeierstrassCurve
from mwlab.mwgroup import (
    MulPoint,
    MultiplicativeGroup,
    multiplicative_independence,
    torsion_order_stability,
    unit_relations,
)
from mwlab.numth import PrimeRange, factor, primes_in

C37 = WeierstrassCurve(0, 0, 1, -1, 0)  # y^2 + y = x^3 - x, discriminant 37
CXX = WeierstrassCurve(0, 0, 0, -1, 0)  # y^2 = x^3 - x, discriminant 64


def brute_curve_order(curve, v):
    """Oracle: point count by direct enumeration of all affine pairs."""
    count = 1
    for x in range(v):
        for y in range(v):
            lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % v
            rhs = (x**3 + curve.a2 * x * x + curve.a4 * x + curve.a6) % v
            if lhs == rhs:
                count += 1
    return count


def brute_torsion(curve, x_max=500):
    """Oracle: every point with x = a/4, |x| <= x_max, and order at most 12.

    Mazur's bound makes 12 the largest order of a rational torsion point,
    and on an integral Weierstrass model a torsion point has 4x integral.
    """
    found = {EC_IDENTITY}
    for a in range(-4 * x_max, 4 * x_max + 1):
        x = Fraction(a, 4)
        # y^2 + (a1 x + a3) y = f(x): y = (-(a1 x + a3) +- sqrt(disc)) / 2
        b = curve.a1 * x + curve.a3
        disc = b * b + 4 * (x**3 + curve.a2 * x * x + curve.a4 * x + curve.a6)
        if disc < 0:
            continue
        root_num, root_den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
        if Fraction(root_num, root_den) ** 2 != disc:
            continue
        for sign in (1, -1):
            P = curve.point(x, (-b + sign * Fraction(root_num, root_den)) / 2)
            acc = P
            for _ in range(12):
                if acc.is_identity:
                    found.add(P)
                    break
                acc = curve.add(acc, P)
    return found


def divisors(n):
    out = [1]
    for p, e in factor(n).factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return out


def nagell_lutz_torsion(curve):
    """Oracle: the older `torsion_elements`, a Nagell-Lutz enumeration on the
    integral short model Y^2 = X^3 + A*X + B. It factors 16*|4A^3 + 27B^2|,
    tries Y = 0 and every Y whose square divides that, takes the integer
    roots X of X^3 + A*X + B - Y^2 among the divisors of its constant term,
    and keeps the points of order at most 12 (Mazur)."""
    shift, A, B = curve.short_model
    root = 1
    for p, e in factor(16 * abs(4 * A**3 + 27 * B * B)).factors:
        root *= p ** (e // 2)
    found = {EC_IDENTITY}
    for Y in [0] + divisors(root):
        C = B - Y * Y
        if C == 0:  # X = 0, or X^2 = -A
            r = math.isqrt(max(-A, 0))
            xs = [0, r, -r] if r * r == -A else [0]
        else:
            xs = [s * d for d in divisors(abs(C)) for s in (1, -1)]
        for X in xs:
            if X**3 + A * X + C != 0:
                continue
            x = Fraction(X - shift, 36)
            for y in (Y, -Y):
                P = acc = EcPoint(x, (Fraction(y, 108) - curve.a1 * x - curve.a3) / 2)
                for _ in range(12):
                    if acc.is_identity:
                        found.add(P)
                        break
                    acc = curve.add(acc, P)
    return found


def product(values, vec):
    acc = Fraction(1)
    for val, e in zip(values, vec):
        acc *= Fraction(val) ** e
    return acc


def in_integer_span(basis, target):
    """Oracle: solve sum c_i basis_i = target over Q by Gauss-Jordan
    elimination and accept when the solution exists and is integral. The
    basis must be linearly independent, so the solution is unique."""
    k = len(basis)
    rows = [[Fraction(b[i]) for b in basis] + [Fraction(x)] for i, x in enumerate(target)]
    for c in range(k):
        piv = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        assert piv is not None, "basis vectors are linearly dependent"
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    if any(row[-1] != 0 for row in rows[k:]):
        return False
    return all(rows[i][-1].denominator == 1 for i in range(k))


# Signed and dependent inputs, where the sign of a kernel vector matters.
RELATION_INPUTS = [
    (-2, 2),
    (4, 8),
    (-1,),
    (Fraction(2, 3), Fraction(3, 2)),
    (-1, -1),
    (2, 3),
    (-4, 2, -8),
    (-8, -2, Fraction(1, 4)),
    (6, -10, 15, Fraction(-2, 3)),
]


def brute_relation_exists(values, bound=5):
    """Oracle: search exponent vectors with entries in [-bound, bound]."""
    t = len(values)
    for vec in itertools.product(range(-bound, bound + 1), repeat=t):
        if not any(vec):
            continue
        acc = Fraction(1)
        for val, e in zip(values, vec):
            acc *= Fraction(val) ** e
        if acc == 1:
            return True
    return False


class TestCurve:
    def test_discriminants(self):
        assert C37.discriminant == 37
        assert CXX.discriminant == 64

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            WeierstrassCurve(0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            WeierstrassCurve(0, 0, 0, -3, 2)  # y^2 = (x-1)^2 (x+2)

    def test_parse_encode_roundtrip(self):
        assert WeierstrassCurve.parse("ec:0,0,1,-1,0") == C37
        assert C37.encode() == "ec:0,0,1,-1,0"
        with pytest.raises(ValueError):
            WeierstrassCurve.parse("0,0,1,-1,0")
        with pytest.raises(ValueError):
            WeierstrassCurve.parse("ec:1,2,3")

    def test_point_validation(self):
        assert C37.point(0, 0) == EcPoint(Fraction(0), Fraction(0))
        with pytest.raises(ValueError):
            C37.point(2, 1)

    # Curves with a point of infinite order; the last has a1 and a3 nonzero.
    BASES = [(C37, (0, 0)), (WeierstrassCurve(0, 1, 1, -2, 0), (1, 0)),
             (WeierstrassCurve(0, 0, 0, -25, 0), (-4, 6)), (WeierstrassCurve(1, -1, -1, -3, 0), (0, 1))]

    @given(st.sampled_from(BASES), st.integers(-12, 12),
           st.fractions(max_denominator=60), st.fractions(max_denominator=60))
    @settings(max_examples=300, deadline=None)
    def test_contains_against_the_fraction_formula(self, base, n, dx, dy):
        # n*P lies on the curve; moving either coordinate by a fraction
        # mostly leaves it, and (dx, dy) is a point anywhere.
        curve, xy = base
        Q = curve.mul(n, curve.point(*xy))
        assert curve.contains(Q)
        if Q.is_identity:
            Q = EcPoint(dx, dy)
        for R in (Q, EcPoint(Q.x + dx, Q.y), EcPoint(Q.x, Q.y + dy), EcPoint(dx, dy)):
            x, y = R.x, R.y
            on = y * y + curve.a1 * x * y + curve.a3 * y == (
                x**3 + curve.a2 * x * x + curve.a4 * x + curve.a6)
            assert curve.contains(R) == on, (curve, R)


class TestGroupLaw:
    def test_identity_laws(self):
        P = C37.point(0, 0)
        assert C37.add(P, EC_IDENTITY) == P
        assert C37.add(EC_IDENTITY, P) == P
        assert C37.add(P, C37.neg(P)) == EC_IDENTITY

    def test_doubling_known_value(self):
        assert C37.mul(2, C37.point(0, 0)) == C37.point(1, 0)

    def test_results_stay_on_curve(self):
        G = C37.point(0, 0)
        for k in range(-12, 13):
            assert C37.contains(C37.mul(k, G))

    def test_associative_and_commutative(self):
        G = C37.point(0, 0)
        pts = [C37.mul(k, G) for k in range(-4, 5)]
        rng = random.Random(11)
        for _ in range(60):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert C37.add(P, Q) == C37.add(Q, P)
            assert C37.add(C37.add(P, Q), R) == C37.add(P, C37.add(Q, R))

    def test_scalar_mul_matches_repeated_addition(self):
        G = C37.point(0, 0)
        acc = EC_IDENTITY
        for k in range(1, 9):
            acc = C37.add(acc, G)
            assert C37.mul(k, G) == acc
        assert C37.mul(0, G) == EC_IDENTITY
        assert C37.mul(-3, G) == C37.neg(C37.mul(3, G))

    def test_two_torsion_doubling(self):
        for x in (0, 1, -1):
            T = CXX.point(x, 0)
            assert CXX.mul(2, T) == EC_IDENTITY

    def test_int_coordinates_coerced(self):
        P = EcPoint(2, -3)
        assert isinstance(P.x, Fraction)
        assert C37.add(P, P) == C37.mul(2, P)
        with pytest.raises(ValueError):
            EcPoint(2, None)


class TestGoodPrimeAndReduce:
    def test_multiplicative_good(self):
        M = MultiplicativeGroup()
        assert M.good_prime([MulPoint(2), MulPoint(3)], 7) is True
        assert M.good_prime([MulPoint(2)], 2) is False
        assert M.good_prime([MulPoint(Fraction(3, 2))], 2) is False
        assert MultiplicativeGroup([7]).good_prime([MulPoint(2)], 7) is False

    def test_elliptic_good(self):
        E = EllipticGroup(C37)
        assert E.good_prime([C37.point(0, 0)], 37) is False
        assert E.good_prime([C37.point(0, 0)], 5) is True
        # denominators divisible by v disqualify that v
        P = C37.mul(5, C37.point(0, 0))
        assert P == EcPoint(Fraction(1, 4), Fraction(-5, 8))
        assert E.good_prime([P], 2) is False

    def test_reduce_identity_to_identity(self):
        M = MultiplicativeGroup()
        assert M.reduce_raw(MulPoint(1), 13) == 1
        E = EllipticGroup(C37)
        assert E.reduce_raw(EC_IDENTITY, 13) is None

    def test_reduce_known_values(self):
        M = MultiplicativeGroup()
        assert M.reduce_raw(MulPoint(Fraction(3, 2)), 5) == 4
        E = EllipticGroup(C37)
        assert E.reduce_raw(C37.point(0, 0), 5) == (0, 0)

    def test_reduce_rejects_bad_prime(self):
        assert MultiplicativeGroup().good_prime([MulPoint(Fraction(3, 2))], 2) is False
        with pytest.raises(ValueError):
            MultiplicativeGroup().reduce_raw(MulPoint(Fraction(3, 2)), 2)
        assert EllipticGroup(C37).good_prime([C37.point(0, 0)], 37) is False

    @staticmethod
    def good_prime_by_points(backend, points, v):
        """Oracle: the per-point bad-prime test that `reduce` replaced."""
        if backend.kind == "multiplicative":
            return v not in backend.excluded and all(
                P.numerator % v and P.denominator % v for P in points)
        return backend.curve.discriminant % v != 0 and all(
            P.is_identity or (P.x.denominator % v and P.y.denominator % v) for P in points)

    @pytest.mark.parametrize("backend, points", [
        (MultiplicativeGroup([5, 11]), [2, -3, Fraction(3, 7), Fraction(-22, 35), 1, -1, 13]),
        (MultiplicativeGroup(), [Fraction(-9, 4), 6, Fraction(1, 221)]),
        # 5*(0,0) = (1/4, -5/8) and 7*(0,0) = (-5/9, 8/27) have denominators.
        (EllipticGroup(C37), [(0, 0), (Fraction(1, 4), Fraction(-5, 8)),
                              (Fraction(-5, 9), Fraction(8, 27)), "O"]),
        (EllipticGroup(CXX), [(0, 0), (1, 0), (-1, 0), "O"]),
    ], ids=["qstar-S", "qstar", "37a", "x3-x"])
    def test_reduce_against_good_prime_then_reduce_raw(self, backend, points):
        if backend.kind == "multiplicative":
            points = [MulPoint(x) for x in points]
        else:
            points = [EC_IDENTITY if P == "O" else backend.curve.point(*P) for P in points]
        seen = set()
        for v in primes_in(PrimeRange(2, 600)):
            for pts in (points, *([P] for P in points), []):
                good = self.good_prime_by_points(backend, pts, v)
                want = [backend.reduce_raw(P, v) for P in pts] if good else None
                assert backend.reduce(pts, v) == want, (pts, v)
                assert backend.good_prime(pts, v) is good
                seen.add(good)
        assert seen == {True, False}


    @staticmethod
    def fraction_reduction(P, v):
        """Oracle: P mod v by Fraction arithmetic alone, O as None and "bad"
        where v divides a denominator: each coordinate c is the r in 0..v-1
        with v dividing the numerator of c - r."""
        if P.is_identity:
            return None
        if P.x.denominator % v == 0 or P.y.denominator % v == 0:
            return "bad"
        return tuple(next(r for r in range(v) if (c - r).numerator % v == 0) for c in (P.x, P.y))

    @pytest.mark.parametrize("curve, multiples", [
        # k*(0,0) on 37a: integral for k = 1..4 and 6, with denominators 4,
        # 9, 25, 121 and more for the rest; 0*(0,0) is O.
        (C37, range(-3, 13)),
        (CXX, None),
    ], ids=["37a", "x3-x"])
    def test_elliptic_reduce_against_fraction_arithmetic(self, curve, multiples):
        E = EllipticGroup(curve)
        if multiples is None:
            points = [curve.point(0, 0), curve.point(1, 0), curve.point(-1, 0), EC_IDENTITY]
        else:
            points = [curve.mul(k, curve.point(0, 0)) for k in multiples]
        assert any(P.x.denominator > 1 for P in points if not P.is_identity) is (curve is C37)
        for v in primes_in(PrimeRange(2, 600)):
            want = [self.fraction_reduction(P, v) for P in points]
            good = curve.discriminant % v != 0
            for pts, raws in ((points, want), *(([P], [w]) for P, w in zip(points, want))):
                expected = None if not good or "bad" in raws else raws
                assert E.reduce(pts, v) == expected, (pts, v)
            for P, w in zip(points, want):
                if w == "bad":
                    with pytest.raises(ValueError):
                        E.reduce_raw(P, v)
                else:
                    assert E.reduce_raw(P, v) == w, (P, v)


class TestCurveOrder:
    def test_known_values(self):
        assert EllipticGroup(C37).group_order_mod(2) == 5
        assert EllipticGroup(C37).group_order_mod(3) == 7

    def test_against_enumeration_oracle(self):
        E = EllipticGroup(C37)
        for v in primes_in(PrimeRange(2, 60)):
            if 37 % v == 0:
                continue
            assert E.group_order_mod(v) == brute_curve_order(C37, v)
        EX = EllipticGroup(CXX)
        for v in primes_in(PrimeRange(3, 60)):
            assert EX.group_order_mod(v) == brute_curve_order(CXX, v)

    def test_hasse_window(self):
        E = EllipticGroup(C37)
        for v in primes_in(PrimeRange(2, 500)):
            if 37 % v == 0:
                continue
            assert abs(E.group_order_mod(v) - (v + 1)) <= 2 * math.sqrt(v)


class TestOrderMod:
    def test_multiplicative(self):
        M = MultiplicativeGroup()
        assert M.order_mod(MulPoint(1), 13) == 1
        assert M.order_mod(MulPoint(2), 41) == 20
        assert M.order_mod(MulPoint(Fraction(3, 2)), 5) == 2  # 4^2 = 16 = 1 mod 5

    def test_elliptic_known_value(self):
        E = EllipticGroup(C37)
        assert E.order_mod(C37.point(0, 0), 2) == 5

    def test_order_divides_group_order(self):
        M = MultiplicativeGroup()
        E = EllipticGroup(C37)
        G = C37.point(0, 0)
        for v in primes_in(PrimeRange(3, 200)):
            assert (v - 1) % M.order_mod(MulPoint(2), v) == 0
            if 37 % v:
                assert E.group_order_mod(v) % E.order_mod(G, v) == 0

    def test_raw_orders_matches_order_mod_per_point(self):
        # Signed and fractional points on Q*, and the identity, a point and
        # its negative on 37a, at every prime good for all of them.
        M, E = MultiplicativeGroup(), EllipticGroup(C37)
        G = C37.point(0, 0)
        cases = (
            (M, [MulPoint(v) for v in (2, -3, Fraction(5, 7), 2, 1, -1)]),
            (E, [G, C37.neg(G), C37.mul(2, G), EC_IDENTITY, G]),
        )
        for group, points in cases:
            for v in primes_in(PrimeRange(2, 400)):
                if group.good_prime(points, v):
                    want = [group.order_mod(P, v) for P in points]
                    raws = [group.reduce_raw(P, v) for P in points]
                    assert group.raw_orders(raws, v) == want, (group, v)

    def test_scalar_consistency(self):
        # ord_v(nP) = ord_v(P) / gcd(n, ord_v(P))
        M = MultiplicativeGroup()
        E = EllipticGroup(C37)
        G = C37.point(0, 0)
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 30)
            v = rng.choice(primes_in(PrimeRange(3, 300)))
            t = M.order_mod(MulPoint(2), v)
            assert M.order_mod(MulPoint(2**n), v) == t // math.gcd(n, t)
        for _ in range(15):
            n = rng.randint(1, 8)
            v = rng.choice([p for p in primes_in(PrimeRange(3, 100)) if 37 % p])
            P = C37.mul(n, G)
            if not E.good_prime([P], v):
                continue
            t = E.order_mod(G, v)
            assert E.order_mod(P, v) == t // math.gcd(n, t)


class TestModularGroupLaw:
    def test_axioms_on_random_curves(self):
        # The mod-v law is exercised independently of the rational one:
        # closure, commutativity, associativity, inverses on full point sets.
        rng = random.Random(61)
        trials = 0
        while trials < 12:
            v = rng.choice([5, 7, 11, 13, 17])
            coeffs = tuple(rng.randint(-2, 2) for _ in range(5))
            try:
                curve = WeierstrassCurve(*coeffs)
            except ValueError:
                continue
            if curve.discriminant % v == 0:
                continue
            trials += 1
            points = [None]
            for x in range(v):
                for y in range(v):
                    lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % v
                    rhs = (x**3 + curve.a2 * x * x + curve.a4 * x + curve.a6) % v
                    if lhs == rhs:
                        points.append((x, y))
            assert len(points) == EllipticGroup(curve).group_order_mod(v)
            for _ in range(60):
                P, Q, R = (rng.choice(points) for _ in range(3))
                PQ = elliptic._ec_add_mod(curve, P, Q, v)
                assert PQ in points
                assert PQ == elliptic._ec_add_mod(curve, Q, P, v)
                lhs = elliptic._ec_add_mod(curve, PQ, R, v)
                rhs = elliptic._ec_add_mod(
                    curve, P, elliptic._ec_add_mod(curve, Q, R, v), v
                )
                assert lhs == rhs
            for P in points:
                neg = elliptic._ec_neg_mod(curve, P, v)
                assert elliptic._ec_add_mod(curve, P, neg, v) is None


class TestReductionHomomorphism:
    def test_multiplicative(self):
        M = MultiplicativeGroup()
        rng = random.Random(7)
        primes = primes_in(PrimeRange(3, 200))
        for _ in range(100):
            a = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            b = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            P, Q = MulPoint(a), MulPoint(b)
            S = MulPoint(a * b)
            good = [v for v in primes if M.good_prime([P, Q, S], v)][:20]
            assert len(good) >= 5
            for v in good:
                lhs = M.reduce_raw(S, v)
                rhs = M.reduce_raw(P, v) * M.reduce_raw(Q, v) % v
                assert lhs == rhs

    def test_elliptic(self):
        E = EllipticGroup(C37)
        G = C37.point(0, 0)
        pts = {k: C37.mul(k, G) for k in range(-10, 11)}
        rng = random.Random(9)
        primes = primes_in(PrimeRange(3, 300))
        for _ in range(100):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            P, Q, S = pts[a], pts[b], pts[a + b]
            good = [v for v in primes if E.good_prime([P, Q, S], v)][:20]
            assert len(good) >= 10
            for v in good:
                lhs = E.reduce_raw(S, v)
                rhs = elliptic._ec_add_mod(C37, E.reduce_raw(P, v), E.reduce_raw(Q, v), v)
                assert lhs == rhs


class TestTorsion:
    def test_multiplicative(self):
        M = MultiplicativeGroup()
        assert {t.value for t in M.torsion_elements()} == {1, -1}
        assert M.torsion_order(MulPoint(-1)) == 2
        with pytest.raises(ValueError):
            M.torsion_order(MulPoint(2))

    def test_trivial_torsion_37a1(self):
        assert EllipticGroup(C37).torsion_elements() == (EC_IDENTITY,)

    def test_full_two_torsion(self):
        got = EllipticGroup(CXX).torsion_elements()
        expected = {
            EC_IDENTITY,
            CXX.point(0, 0),
            CXX.point(1, 0),
            CXX.point(-1, 0),
        }
        assert set(got) == expected
        assert len(got) == 4

    def test_nontrivial_rational_torsion_point(self):
        # y^2 + y = x^3 - x^2 has a 5-torsion point (0, 0)
        c = WeierstrassCurve(0, -1, 1, 0, 0)
        E = EllipticGroup(c)
        torsion = E.torsion_elements()
        assert len(torsion) == 5
        assert c.point(0, 0) in torsion
        assert E.torsion_order(c.point(0, 0)) == 5

    def test_six_torsion_curve(self):
        # y^2 = x^3 + 1: the six torsion points are hand-checkable
        c = WeierstrassCurve(0, 0, 0, 0, 1)
        got = set(EllipticGroup(c).torsion_elements())
        expected = {
            EC_IDENTITY,
            c.point(-1, 0),
            c.point(0, 1),
            c.point(0, -1),
            c.point(2, 3),
            c.point(2, -3),
        }
        assert got == expected

    def test_three_torsion_curve(self):
        # y^2 + y = x^3: (0,0) doubles to its own negative
        c = WeierstrassCurve(0, 0, 1, 0, 0)
        got = set(EllipticGroup(c).torsion_elements())
        assert got == {EC_IDENTITY, c.point(0, 0), c.point(0, -1)}

    def test_full_two_torsion_scaled(self):
        # y^2 = x^3 - 4x splits completely: roots 0, 2, -2
        c = WeierstrassCurve(0, 0, 0, -4, 0)
        got = set(EllipticGroup(c).torsion_elements())
        expected = {EC_IDENTITY, c.point(0, 0), c.point(2, 0), c.point(-2, 0)}
        assert got == expected

    @pytest.mark.parametrize(
        "coeffs, group",
        [((1, 1, 1, 35, -28), (8,)), ((1, 1, 1, -10, -10), (2, 4)), ((1, 0, 0, -4, -1), (2, 4)),
         ((1, -1, 1, -1, -14), (4,)), ((0, -1, 1, 0, 0), (5,)), ((0, 0, 1, -1, 0), ()),
         ((0, 0, 0, 0, 1), (6,)), ((0, 0, 0, -1, 0), (2, 2)),
         # With those, one curve for each of the 15 groups in Mazur's list.
         ((1, -1, 0, -10, -12), (2,)), ((0, 0, 1, 0, 0), (3,)), ((1, -1, 1, -3, 3), (7,)),
         ((1, -1, 1, -14, 29), (9,)), ((1, 0, 0, -45, 81), (10,)), ((1, -1, 1, -122, 1721), (12,)),
         ((1, 0, 1, -19, 26), (2, 6)), ((1, 0, 0, -1070, 7812), (2, 8))],
        ids=["15a-Z8", "15a-Z2xZ4", "21a-Z2xZ4", "17a-Z4", "11a-Z5", "37a", "x3+1", "x3-x",
             "Z2", "Z3", "Z7", "Z9", "Z10", "Z12", "Z2xZ6", "Z2xZ8"],
    )
    def test_against_brute_force(self, coeffs, group):
        # The first six have good reduction at 2, where |E(F_2)| can be
        # smaller than the 2-power torsion: 15a with Z/8 has |E(F_2)| = 4.
        c = WeierstrassCurve(*coeffs)
        got = EllipticGroup(c).torsion_elements()
        brute = brute_torsion(c)
        assert len(got) == len(set(got))
        assert set(got) == brute == nagell_lutz_torsion(c)
        # The order and the 2-torsion tell Z/2 x Z/2m from Z/4m.
        assert len(brute) == math.prod(group)
        assert sum(c.add(T, T).is_identity for T in brute) == 2 ** sum(n % 2 == 0 for n in group)

    def test_against_nagell_lutz(self):
        # A quarter each: random coefficients; y^2 = x^3 + a*x^2 + b*x, where
        # (0,0) has order 2; and Tate normal forms where (0,0) has order 5 or 7.
        rng = random.Random(21)
        curves = []
        while len(curves) < 100:
            a, b, t = rng.randint(-12, 12), rng.randint(-12, 12), rng.randint(-6, 6)
            family = [tuple(rng.randint(-12, 12) for _ in range(5)), (0, a, 0, b, 0),
                      (1 - t, -t, -t, 0, 0), (1 + t - t * t, t * t - t**3, t * t - t**3, 0, 0)]
            try:
                curves.append(WeierstrassCurve(*family[len(curves) % 4]))
            except ValueError:  # singular
                pass
        for c in curves:
            expected = tuple(sorted(nagell_lutz_torsion(c), key=elliptic._order_key))
            assert EllipticGroup(c).torsion_elements() == expected, c

    def test_order_eight_points(self):
        c = WeierstrassCurve(1, 1, 1, 35, -28)
        assert c.discriminant % 2 == 1 and brute_curve_order(c, 2) == 4
        E = EllipticGroup(c)
        assert sorted(E.torsion_order(T) for T in E.torsion_elements()) == [1, 2, 4, 4, 8, 8, 8, 8]
        for xy in ((2, 6), (2, -9), (32, -204), (32, 171)):
            assert E.torsion_order(c.point(*xy)) == 8 and E.is_torsion(c.point(*xy))

    def test_torsion_closed_under_addition(self):
        for coeffs in ((0, -1, 1, 0, 0), (0, 0, 0, 0, 1), (1, 0, 1, -1, 0)):
            c = WeierstrassCurve(*coeffs)
            torsion = set(EllipticGroup(c).torsion_elements())
            for P in torsion:
                assert c.neg(P) in torsion
                for Q in torsion:
                    assert c.add(P, Q) in torsion

    def test_stability_minus_one(self):
        M = MultiplicativeGroup()
        report = torsion_order_stability(M, MulPoint(-1), PrimeRange(3, 1000))
        assert report.verdict == "holds_on_scan"
        report = torsion_order_stability(M, MulPoint(1), PrimeRange(3, 1000))
        assert report.verdict == "holds_on_scan"

    def test_stability_two_torsion(self):
        E = EllipticGroup(CXX)
        report = torsion_order_stability(E, CXX.point(0, 0), PrimeRange(3, 500))
        assert report.verdict == "holds_on_scan"

    def test_stability_detects_small_prime_collapse(self):
        # -1 reduces to 1 mod 2, so a window containing 2 must report it
        M = MultiplicativeGroup()
        report = torsion_order_stability(M, MulPoint(-1), PrimeRange(2, 50))
        assert report.verdict == "violated"
        assert report.witness.v == 2 and report.witness.n == 1


class TestIndependence:
    def test_known_values(self):
        assert multiplicative_independence([MulPoint(2), MulPoint(3)]) is None
        assert multiplicative_independence([MulPoint(2), MulPoint(8)]) == (3, -1)
        assert multiplicative_independence([MulPoint(4), MulPoint(8)]) == (3, -2)

    def test_torsion_relations(self):
        assert multiplicative_independence([MulPoint(-1)]) == (2,)
        rel = multiplicative_independence([MulPoint(-2), MulPoint(2)])
        assert rel is not None
        acc = Fraction(1)
        for val, e in zip((-2, 2), rel):
            acc *= Fraction(val) ** e
        assert acc == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            multiplicative_independence([0, 2])

    def test_against_brute_force(self):
        rng = random.Random(13)
        small = [2, 3, 5, 7, 11, 13, 17, 19]
        for _ in range(120):
            t = rng.randint(2, 3)
            values = []
            for _ in range(t):
                val = Fraction(1)
                for p in rng.sample(small, rng.randint(1, 2)):
                    val *= Fraction(p) ** rng.randint(-2, 2)
                if rng.random() < 0.2:
                    val = -val
                if val in (1, -1):
                    val *= rng.choice(small)
                values.append(val)
            rel = multiplicative_independence([MulPoint(v) for v in values])
            if rel is None:
                assert not brute_relation_exists(values, bound=4)
            else:
                acc = Fraction(1)
                for val, e in zip(values, rel):
                    acc *= val**e
                assert acc == 1 and any(rel)


class TestUnitRelations:
    def test_known_values(self):
        assert unit_relations([-1]) == [[2]]
        assert unit_relations([2, 3]) == []
        assert unit_relations([-2, 2]) == [[-2, 2]]

    @pytest.mark.parametrize("values", RELATION_INPUTS, ids=str)
    def test_basis_multiplies_to_one(self, values):
        for vec in unit_relations(values):
            assert any(vec) and product(values, vec) == 1

    @pytest.mark.parametrize("values", RELATION_INPUTS, ids=str)
    def test_small_relations_lie_in_span(self, values):
        basis = unit_relations(values)
        for vec in itertools.product(range(-3, 4), repeat=len(values)):
            if product(values, vec) == 1:
                assert in_integer_span(basis, vec), (values, vec, basis)

    def test_random_against_box_search(self):
        rng = random.Random(17)
        small = [2, 3, 5]
        for _ in range(40):
            values = []
            for _ in range(rng.randint(1, 3)):
                val = Fraction(rng.choice((1, -1)))
                for p in rng.sample(small, rng.randint(0, 2)):
                    val *= Fraction(p) ** rng.randint(-2, 2)
                values.append(val)
            basis = unit_relations(values)
            assert all(product(values, vec) == 1 for vec in basis)
            for vec in itertools.product(range(-3, 4), repeat=len(values)):
                if product(values, vec) == 1:
                    assert in_integer_span(basis, vec), (values, vec, basis)


class TestEllipticIndependenceCheck:
    def test_multiples_flagged_dependent(self):
        E = EllipticGroup(C37)
        G = C37.point(0, 0)
        assert elliptic.elliptic_independence_check(E, [G, C37.mul(3, G)], bound=4) is False

    def test_torsion_flagged_dependent(self):
        E = EllipticGroup(CXX)
        assert elliptic.elliptic_independence_check(E, [CXX.point(0, 0)], bound=4) is False

    def test_independent_pair_passes(self):
        # rank-2 curve: (0,0) and (1,0) are independent generators
        c = WeierstrassCurve(0, 1, 1, -2, 0)
        E = EllipticGroup(c)
        assert elliptic.elliptic_independence_check(E, [c.point(0, 0), c.point(1, 0)], bound=4) is True

    def test_single_nontorsion_passes(self):
        E = EllipticGroup(C37)
        assert elliptic.elliptic_independence_check(E, [C37.point(0, 0)], bound=6) is True


class TestEncodings:
    def test_mul_point(self):
        assert MulPoint.parse("-3/2").value == Fraction(-3, 2)
        assert MulPoint.parse("7").encode() == "7"
        assert MulPoint(Fraction(-1, 2)).encode() == "-1/2"
        with pytest.raises(ValueError):
            MulPoint.parse("0")
        with pytest.raises(ValueError):
            MulPoint.parse("x")

    def test_ec_point(self):
        assert EcPoint.parse("O") == EC_IDENTITY
        P = EcPoint.parse("(1/2,-3/4)")
        assert (P.x, P.y) == (Fraction(1, 2), Fraction(-3, 4))
        assert P.encode() == "(1/2,-3/4)"
        with pytest.raises(ValueError):
            EcPoint.parse("(1,2,3)")

    def test_backend_encodings(self):
        assert MultiplicativeGroup().encode() == "mul"
        assert MultiplicativeGroup([5, 2]).encode() == "S={2,5}"
        assert EllipticGroup(C37).encode() == "ec:0,0,1,-1,0"
