import json
import math
import random
from fractions import Fraction

import pytest

from mwlab import support
from mwlab._parallel import scan_chunk
from mwlab.dependence import SubgroupSpec, verify_detect_witness
from mwlab.elliptic import EllipticGroup, WeierstrassCurve
from mwlab.mwgroup import MulPoint, MultiplicativeGroup
from mwlab.numth import PrimeRange, factor, multiplicative_order, primes_in
from mwlab.reports import Witness
from mwlab.support import (
    scan_cor22,
    scan_corrales_schoof,
    scan_erdos_union,
    scan_thm2,
    support_of,
    support_union_at_n,
    verify_conclusion_match,
    verify_witness,
)

M = MultiplicativeGroup()
E37 = EllipticGroup(WeierstrassCurve(0, 0, 1, -1, 0))  # 37a, discriminant 37


def literal_support_union(xs, n, bound):
    """Oracle: factor x^n - 1 outright and collect small primes."""
    out = set()
    for x in xs:
        value = x**n - 1
        if value > 0:
            out.update(p for p in factor(value).primes if p <= bound)
    return out


def brute_erdos_at_prime(xs, ys, p, n_bound):
    """Oracle: compare support-union membership at p for every n up to bound."""
    for n in range(1, n_bound + 1):
        in_x = any(pow(x, n, p) == 1 for x in xs)
        in_y = any(pow(y, n, p) == 1 for y in ys)
        if in_x != in_y:
            return False
    return True


BAD = "bad prime"


def at_prime(test, args, backend, points, v):
    """What scan_chunk makes of a per-prime test at v: BAD where it skips v
    as a bad prime, else the test's result."""
    res = scan_chunk(test, args, backend, points, [v], None)
    return BAD if res["bads"] else (res["hits"] or [None])[0]


def two_sided_test(condition_id, Ps, Qs, backend, v):
    """support._two_sided_test on the points and indices its scans pass it."""
    points, pi, qi = support._two_sided_args(Ps, Qs)
    return at_prime(support._two_sided_test, (condition_id, pi, qi), backend, points, v)


def erdos_test(xs, ys, p):
    """The erdos_union test on the points scan_erdos_union passes it."""
    return two_sided_test("erdos_union", map(MulPoint, xs), map(MulPoint, ys), M, p)


def erdos_test_per_entry(xs, ys, p):
    """Oracle for the erdos_union test: one order per list entry, repeats
    included, and the same witness."""
    if any(val % p == 0 for val in (*xs, *ys)):
        return BAD
    a = [multiplicative_order(x, p) for x in xs]
    b = [multiplicative_order(y, p) for y in ys]
    gap = support.two_sided_gap(a, b)
    if gap is None:
        return None
    n, side = gap
    return Witness(
        v=p,
        n=n,
        detail=(
            f"orders xs={a} ys={b}; at n={n} the prime {p} lies in the "
            f"{('xs', 'ys')[side]}-side support union only"
        ),
    )


def cor22_test_per_entry(Ps, Qs, backend, v):
    """Oracle for the cor22 test: one order_mod per list entry, repeats
    included, and the same witness."""
    if not backend.good_prime([*Ps, *Qs], v):
        return BAD
    a = [backend.order_mod(P, v) for P in Ps]
    b = [backend.order_mod(Q, v) for Q in Qs]
    gap = support.two_sided_gap(a, b)
    if gap is None:
        return None
    n, side = gap
    return Witness(
        v=v,
        n=n,
        detail=(
            f"orders P={a} Q={b}; n={n} kills a point on the {('P', 'Q')[side]} side "
            f"and none on the other"
        ),
    )


class TestSupportOf:
    def test_known_values(self):
        assert support_of(1) == set()
        assert support_of(15) == {3, 5}
        assert support_of(63) == {3, 7}
        assert support_of(2**6 - 1) == {3, 7}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            support_of(0)


class TestSupportUnion:
    def test_known_values(self):
        assert support_union_at_n([2], 4, 100) == frozenset({3, 5})
        assert support_union_at_n([2], 1, 100) == frozenset()
        assert support_union_at_n([2, 3], 2, 100) == frozenset({2, 3})

    def test_rejects_n_below_one(self):
        # 2^0 - 1 = 0, which every prime divides: no finite answer to give.
        for n in (0, -1):
            with pytest.raises(ValueError):
                support_union_at_n([2], n, 10)

    def test_against_literal_factorization(self):
        for xs in ([2], [3], [2, 5], [6, 10]):
            for n in (1, 2, 3, 4, 6, 12):
                got = support_union_at_n(xs, n, 200)
                assert got == literal_support_union(xs, n, 200)

    def test_large_n_never_materialized(self):
        # n astronomically large; must still answer instantly via orders
        got = support_union_at_n([2], 2**64, 50)
        assert 3 in got and 5 in got and 7 not in got


class TestErdosExact:
    def test_identical_lists(self):
        assert erdos_test((2, 3), (2, 3), 7) is None

    def test_power_tuple_counterexample(self):
        assert erdos_test((2,), (8,), 7) is not None

    def test_permutation_invariance(self):
        assert erdos_test((2, 3), (3, 2), 11) is None

    def test_one_order_per_base_matches_per_entry_orders(self):
        rng = random.Random(41)
        pairs = [([2, 3, 5], [5, 3, 2]), ([2, 2], [4]), ([3], [3, 9, 3])]
        while len(pairs) < 12:
            xs = [rng.randint(2, 12) for _ in range(rng.randint(1, 4))]
            ys = [rng.randint(2, 12) for _ in range(rng.randint(1, 4))]
            if len(set(xs + ys)) < len(xs + ys):  # some base repeats
                pairs.append((xs, ys))
        kinds = set()
        for p in primes_in(PrimeRange(2, 3000)):
            for xs, ys in pairs:
                want = erdos_test_per_entry(xs, ys, p)
                assert erdos_test(xs, ys, p) == want, (xs, ys, p)
                kinds.add(type(want))
        assert kinds == {type(BAD), type(None), Witness}

    def test_repeated_elliptic_points_match_per_entry_orders(self):
        # On 37a: a point repeated on both sides, and a point beside its
        # negative, which reduces to a distinct point of the same order.
        c = E37.curve
        P = c.point(0, 0)
        pairs = [
            ([P, P], [P]),
            ([P, P, c.mul(2, P)], [c.mul(2, P), P, c.mul(2, P)]),
            ([P, P], [c.mul(2, P), c.mul(2, P)]),
            ([P, c.neg(P)], [c.neg(P)]),
            ([P, c.neg(P)], [c.mul(3, P), c.neg(P)]),
        ]
        kinds = set()
        for v in primes_in(PrimeRange(2, 600)):
            for Ps, Qs in pairs:
                want = cor22_test_per_entry(Ps, Qs, E37, v)
                assert two_sided_test("cor22", Ps, Qs, E37, v) == want, (Ps, Qs, v)
                kinds.add(type(want))
        assert kinds == {type(BAD), type(None), Witness}

    def test_against_brute_force(self):
        rng = random.Random(3)
        primes = primes_in(PrimeRange(3, 200))
        for _ in range(150):
            xs = [rng.randint(2, 30) for _ in range(rng.randint(1, 3))]
            ys = [rng.randint(2, 30) for _ in range(rng.randint(1, 3))]
            p = rng.choice(primes)
            if any(v % p == 0 for v in xs + ys):
                continue
            orders = [multiplicative_order(v, p) for v in xs + ys]
            bound = 2 * math.lcm(*orders)
            holds = erdos_test(xs, ys, p) is None
            assert holds == brute_erdos_at_prime(xs, ys, p, bound)


def cs_holds(x, y, p):
    points = (MulPoint(x), MulPoint(y))
    return at_prime(support._cover_test, ("corrales_schoof",), M, points, p) is None


def thm2_holds(P, Qs, v):
    return at_prime(support._cover_test, ("thm2",), M, (P, *Qs), v) is None


def cor22_holds(Ps, Qs, v):
    return two_sided_test("cor22", Ps, Qs, M, v) is None


class TestCorralesSchoof:
    def test_known_values(self):
        assert cs_holds(2, 4, 7) is True
        assert cs_holds(2, 8, 7) is True
        assert cs_holds(8, 2, 7) is False

    def test_against_literal_implication(self):
        rng = random.Random(17)
        primes = primes_in(PrimeRange(3, 500))
        for _ in range(200):
            x, y = rng.randint(2, 100), rng.randint(2, 100)
            p = rng.choice(primes)
            if x % p == 0 or y % p == 0:
                continue
            tx, ty = multiplicative_order(x, p), multiplicative_order(y, p)
            literal = True
            xn = yn = 1
            for _ in range(math.lcm(tx, ty)):
                xn, yn = xn * x % p, yn * y % p
                if xn == 1 and yn != 1:
                    literal = False
                    break
            assert cs_holds(x, y, p) == literal


def list_two_sided_gap(a, b):
    """Oracle for support.two_sided_gap: collect each side's unmatched
    orders, then take the least of them and its side."""
    unmatched_a = [ai for ai in a if not any(ai % bj == 0 for bj in b)]
    unmatched_b = [bj for bj in b if not any(bj % ai == 0 for ai in a)]
    if not (unmatched_a or unmatched_b):
        return None
    n = min(unmatched_a + unmatched_b)
    return n, 0 if n in unmatched_a else 1


class TestDivisibilityCover:
    def test_gap_against_the_list_oracle(self):
        # Orders from 1..12 divide each other often; sides may be empty and
        # repeat entries.
        rng = random.Random(24)
        cases = [([], []), ([], [3]), ([3], []), ([1], [2]), ([1, 1], [1]), ([2, 2], [4, 4])]
        while len(cases) < 20000:
            cases.append(tuple([rng.randint(1, 12) for _ in range(rng.randint(0, 4))]
                               for _ in range(2)))
        gaps = set()
        for a, b in cases:
            want = list_two_sided_gap(a, b)
            assert support.two_sided_gap(a, b) == want, (a, b)
            gaps.add(None if want is None else want[1])
        assert gaps == {None, 0, 1}

    def test_self_cover(self):
        assert thm2_holds(MulPoint(2), [MulPoint(2)], 11)

    def test_known_values(self):
        assert thm2_holds(MulPoint(2), [MulPoint(9)], 7)
        assert not thm2_holds(MulPoint(8), [MulPoint(2)], 7)

    def test_two_sided_symmetry(self):
        rng = random.Random(23)
        primes = primes_in(PrimeRange(3, 300))
        for _ in range(100):
            Ps = [MulPoint(rng.randint(2, 50)) for _ in range(rng.randint(1, 3))]
            Qs = [MulPoint(rng.randint(2, 50)) for _ in range(rng.randint(1, 3))]
            v = rng.choice(primes)
            if not M.good_prime(Ps + Qs, v):
                continue
            assert cor22_holds(Ps, Qs, v) == cor22_holds(Qs, Ps, v)


class TestScans:
    def test_erdos_known_witness(self):
        report = scan_erdos_union([2], [8], PrimeRange(3, 100))
        assert report.verdict == "violated"
        assert (report.witness.v, report.witness.n) == (7, 1)
        assert verify_witness(
            "erdos_union", {"xs": [2], "ys": [8]}, report.witness.v, report.witness.n
        )

    def test_witness_reverifies_by_literal_factorization(self):
        report = scan_erdos_union([2], [8], PrimeRange(3, 100))
        v, n = report.witness.v, report.witness.n
        xs_side = support_of(2**n - 1) if 2**n > 1 else set()
        ys_side = support_of(8**n - 1) if 8**n > 1 else set()
        assert (v in xs_side) != (v in ys_side)

    def test_equal_inputs_hold(self):
        for maker in (
            lambda: scan_erdos_union([2, 3], [2, 3], PrimeRange(3, 1000)),
            lambda: scan_cor22([MulPoint(6)], [MulPoint(6)], M, PrimeRange(3, 1000)),
        ):
            assert maker().verdict == "holds_on_scan"

    def test_thm2_power_always_holds(self):
        report = scan_thm2(MulPoint(2), [MulPoint(1024)], M, PrimeRange(3, 1000))
        assert report.verdict == "holds_on_scan"

    def test_thm2_violation_reverifies(self):
        report = scan_thm2(MulPoint(8), [MulPoint(2)], M, PrimeRange(3, 1000))
        assert report.verdict == "violated"
        assert report.witness.v == 7
        assert verify_witness(
            "thm2",
            {"P": MulPoint(8), "Qs": [MulPoint(2)]},
            report.witness.v,
            report.witness.n,
            backend=M,
        )

    def test_cs_scan_and_witness(self):
        report = scan_corrales_schoof(MulPoint(8), MulPoint(2), M, PrimeRange(3, 100))
        assert report.verdict == "violated"
        assert verify_witness(
            "corrales_schoof",
            {"x": MulPoint(8), "y": MulPoint(2)},
            report.witness.v,
            report.witness.n,
            backend=M,
        )

    def test_skipped_primes_recorded(self):
        report = scan_erdos_union([3], [3], PrimeRange(3, 50))
        assert report.skipped_primes == (3,)
        assert report.verdict == "holds_on_scan"

    def test_cor22_two_sided_violation(self):
        report = scan_cor22(
            [MulPoint(8)], [MulPoint(2)], M, PrimeRange(3, 100)
        )
        assert report.verdict == "violated"
        assert verify_witness(
            "cor22",
            {"Ps": [MulPoint(8)], "Qs": [MulPoint(2)]},
            report.witness.v,
            report.witness.n,
            backend=M,
        )

    def test_scan_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            scan_erdos_union([1], [2], PrimeRange(3, 100))

    # An empty side would hold vacuously and report a witness at the first
    # good prime.
    def test_erdos_union_rejects_an_empty_side(self):
        for xs, ys in (([], [3]), ([3], []), ([], [])):
            with pytest.raises(ValueError, match="at least one point on each side"):
                scan_erdos_union(xs, ys, PrimeRange(3, 100))

    def test_cor22_rejects_an_empty_side(self):
        Q = E37.curve.point(0, 0)
        for backend, Ps, Qs in ((E37, [], [Q]), (E37, [Q], []), (M, [], [MulPoint(2)])):
            with pytest.raises(ValueError, match="at least one point on each side"):
                scan_cor22(Ps, Qs, backend, PrimeRange(3, 100))

    def test_thm2_rejects_no_q(self):
        for backend, P in ((M, MulPoint(2)), (E37, E37.curve.point(0, 0))):
            with pytest.raises(ValueError, match="at least one Q"):
                scan_thm2(P, [], backend, PrimeRange(3, 100))

    @pytest.mark.parametrize("backend", [M, E37], ids=["qstar", "37a"])
    def test_rechecks_against_the_per_point_form(self, backend):
        # Oracle: each condition's old form, one reduction and one literal
        # multiple per point, and the Erdos condition by pow on naturals.
        if backend is M:
            points = [MulPoint(x) for x in (2, 3, 6, 5, Fraction(4, 9), -1)]
        else:
            G = E37.curve.point(0, 0)
            points = [E37.curve.mul(k, G) for k in (1, 2, 3, -1, 5, 0)]

        def killed(P, v, n):
            return backend.raw_scale(n, backend.reduce([P], v)[0], v) == backend.raw_identity(v)

        rng = random.Random(61)
        answers = set()
        for v in primes_in(PrimeRange(3, 300)):
            if backend.reduce(points, v) is None:
                continue
            for _ in range(4):
                ps, qs = rng.sample(points, rng.randint(1, 3)), rng.sample(points, rng.randint(1, 3))
                n = backend.order_mod(rng.choice(points), v) * rng.choice((1, 2, 3))
                kp, kq = [killed(P, v, n) for P in ps], [killed(Q, v, n) for Q in qs]
                want = {"thm2": kp[0] and not any(kq), "cor22": any(kp) != any(kq),
                        "detect": all(kp) and not any(kq)}
                got = {"thm2": verify_witness("thm2", {"P": ps[0], "Qs": qs}, v, n, backend=backend),
                       "cor22": verify_witness("cor22", {"Ps": ps, "Qs": qs}, v, n, backend=backend),
                       "detect": verify_witness("detect", {"Ls": ps, "Ps": qs}, v, n, backend=backend)}
                assert got == want, (v, n, ps, qs)
                answers.update(want.values())
                if backend is M and all(P.value > 1 and P.denominator == 1 for P in ps + qs):
                    xs, ys = [P.numerator for P in ps], [Q.numerator for Q in qs]
                    literal = any(pow(x, n, v) == 1 for x in xs) != any(pow(y, n, v) == 1 for y in ys)
                    assert verify_witness("erdos_union", {"xs": xs, "ys": ys}, v, n) == literal
        assert answers == {True, False}

    @pytest.mark.parametrize("backend, P, Q, v, n", [
        (MultiplicativeGroup([7]), MulPoint(2), MulPoint(3), 7, 3),  # 7 is in S
        (E37, E37.curve.point(1, 0), E37.curve.point(0, 0), 37, 19),  # 37 divides the discriminant
    ], ids=["S={7}", "37a"])
    def test_rechecks_refuse_a_bad_prime(self, backend, P, Q, v, n):
        # Every scan skips v. n kills P and not Q there, so each re-check
        # would reproduce a witness if it reduced the points anyway.
        checks = [
            lambda: verify_witness("corrales_schoof", {"x": P, "y": Q}, v, n, backend=backend),
            lambda: verify_witness("thm2", {"P": P, "Qs": (Q,)}, v, n, backend=backend),
            lambda: verify_witness("cor22", {"Ps": (P,), "Qs": (Q,)}, v, n, backend=backend),
            lambda: verify_detect_witness([Q], SubgroupSpec((P,), backend), v, n),
        ]
        if backend.kind == "multiplicative":  # 7 divides an x: bad for the Erdos condition
            checks.append(lambda: verify_witness("erdos_union", {"xs": [2, 7], "ys": [3]}, v, n))
        assert backend.reduce([P, Q], v) is None
        for check in checks:
            with pytest.raises(ValueError, match="bad prime"):
                check()


class TestTwoSidedBackends:
    def test_erdos_union_and_cor22_agree_on_q_star(self):
        # The Erdos condition on naturals is cor22 on their MulPoints: same
        # verdict, witness (v, n) and skipped primes; only the detail differs.
        rng = random.Random(17)
        scan = PrimeRange(3, 3000)
        verdicts = set()

        def key(report):
            witness = report.witness and (report.witness.v, report.witness.n)
            return report.verdict, witness, report.skipped_primes

        for _ in range(100):
            xs = [rng.randint(2, 60) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                ys = rng.sample(xs, len(xs))
            else:
                ys = [rng.randint(2, 60) for _ in range(rng.randint(1, 3))]
            for workers in (1, 2):
                erdos = scan_erdos_union(xs, ys, scan, workers=workers)
                cor22 = scan_cor22(
                    [MulPoint(x) for x in xs], [MulPoint(y) for y in ys], M, scan, workers=workers
                )
                assert key(erdos) == key(cor22), (xs, ys, workers)
                verdicts.add(erdos.verdict)
        assert verdicts == {"violated", "holds_on_scan"}


class TestWorkerDeterminism:
    def test_reports_identical_across_worker_counts(self):
        for xs, ys in (([2], [8]), ([6, 10], [6, 10])):
            blobs = set()
            for workers in (1, 2, 8):
                report = scan_erdos_union(xs, ys, PrimeRange(3, 5000), workers=workers)
                blobs.add(json.dumps(report.to_dict()))
            assert len(blobs) == 1


class TestSerialization:
    def test_stable_key_order(self):
        report = scan_erdos_union([2], [8], PrimeRange(3, 100))
        blob = json.dumps(report.to_dict())
        assert blob.index('"condition_id"') < blob.index('"verdict"')
        assert blob.index('"verdict"') < blob.index('"witness"')
        assert blob.index('"witness"') < blob.index('"scanned"')
        assert blob.index('"scanned"') < blob.index('"skipped_primes"')

    def test_verdict_witness_coupling(self):
        from mwlab.reports import ConditionReport, Witness

        with pytest.raises(ValueError):
            ConditionReport("thm2", "violated", (3, 100), None)
        with pytest.raises(ValueError):
            ConditionReport("thm2", "holds_on_scan", (3, 100), Witness(7, 1, "x"))


class TestConclusionMatch:
    def test_swap(self):
        cert = verify_conclusion_match([MulPoint(2), MulPoint(3)], [MulPoint(3), MulPoint(2)])
        assert cert.coefficients == (1, 0, 1, 1)

    def test_refutation(self):
        assert verify_conclusion_match([MulPoint(2), MulPoint(3)], [MulPoint(2), MulPoint(5)]) is None

    def test_sign_matching(self):
        cert = verify_conclusion_match(
            [MulPoint(2), MulPoint(5)], [MulPoint(Fraction(1, 2)), MulPoint(5)]
        )
        assert cert.coefficients == (0, 1, -1, 1)

    def test_needs_bijection(self):
        # y list has 2 twice; x list needs 2 and 3: no bijection
        assert verify_conclusion_match([MulPoint(2), MulPoint(3)], [MulPoint(2), MulPoint(2)]) is None
        # but duplicates on both sides match fine
        cert = verify_conclusion_match([MulPoint(2), MulPoint(2)], [MulPoint(2), MulPoint(2)])
        assert cert is not None

    def test_certificate_identity_reverifies(self):
        xs = [MulPoint(Fraction(2, 3)), MulPoint(5), MulPoint(-7)]
        ys = [MulPoint(-7), MulPoint(Fraction(3, 2)), MulPoint(5)]
        cert = verify_conclusion_match(xs, ys)
        assert cert is not None
        t = len(xs)
        sigma, deltas = cert.coefficients[:t], cert.coefficients[t:]
        assert sorted(sigma) == list(range(t))
        for i in range(t):
            assert xs[i].value == ys[sigma[i]].value ** deltas[i]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            verify_conclusion_match([MulPoint(2)], [MulPoint(2), MulPoint(3)])

    def test_greedy_against_backtracking(self):
        # Oracle: the first (sigma, deltas) in search order that matches
        # every x, with backtracking over the free ys.
        def backtrack(xs, ys, i=0, used=()):
            if i == len(xs):
                return (), ()
            for j, y in enumerate(ys):
                for delta in (1, -1):
                    if j in used or xs[i].value != y.value**delta:
                        continue
                    if delta == -1 and xs[i].value == y.value:
                        continue
                    rest = backtrack(xs, ys, i + 1, used + (j,))
                    if rest is not None:
                        return (j, *rest[0]), (delta, *rest[1])
            return None

        rng = random.Random(4)
        values = [2, Fraction(1, 2), 3, Fraction(1, 3), -1, 1, -2]
        outcomes = set()
        for _ in range(300):
            t = rng.randint(1, 4)
            xs = [MulPoint(rng.choice(values)) for _ in range(t)]
            ys = [MulPoint(rng.choice(values)) for _ in range(t)]
            want = backtrack(xs, ys)
            cert = verify_conclusion_match(xs, ys)
            got = None if cert is None else (cert.coefficients[:t], cert.coefficients[t:])
            assert got == want, (xs, ys)
            outcomes.add(cert is None)
        assert outcomes == {True, False}
