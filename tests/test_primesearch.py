import itertools
import pathlib
import random
import subprocess
import sys

import pytest

from mwlab import primesearch
from mwlab.elliptic import EllipticGroup, WeierstrassCurve
from mwlab.mwgroup import MulPoint, MultiplicativeGroup, multiplicative_independence
from mwlab.numth import PrimeRange, exact_valuation, factor, primes_in
from mwlab.primesearch import (
    ValuationPattern,
    find_pattern_primes,
    pattern_density,
    replay_step1,
    replay_step2_lcm,
)

M = MultiplicativeGroup()
E37 = EllipticGroup(WeierstrassCurve.parse("ec:0,0,1,-1,0"))
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def direct_order_check(backend, P, v, claimed):
    """Oracle: certify an order by raw exponentiation."""
    raw, one = backend.reduce([P], v)[0], backend.raw_identity(v)
    if backend.raw_scale(claimed, raw, v) != one:
        return False
    return all(backend.raw_scale(claimed // q, raw, v) != one for q, _ in factor(claimed).factors)


class TestPattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            ValuationPattern(4, (1,))
        with pytest.raises(ValueError):
            ValuationPattern(5, ())
        with pytest.raises(ValueError):
            ValuationPattern(5, (1, -1))

    def test_documented_hit_41(self):
        hits = find_pattern_primes(
            [MulPoint(2), MulPoint(3)],
            ValuationPattern(5, (1, 0)),
            M,
            PrimeRange(3, 1000),
            max_hits=5,
        )
        by_v = {h.v: h for h in hits}
        assert 41 in by_v
        assert by_v[41].orders == (20, 8)
        assert by_v[41].verified
        # independent recomputation of each claimed order
        for h in hits:
            for P, t in zip((MulPoint(2), MulPoint(3)), h.orders):
                assert direct_order_check(M, P, h.v, t)
            assert exact_valuation(5, 1, h.orders[0])
            assert exact_valuation(5, 0, h.orders[1])

    def test_odd_order_pattern(self):
        hits = find_pattern_primes(
            [MulPoint(2)], ValuationPattern(2, (0,)), M, PrimeRange(3, 100), max_hits=50
        )
        assert 7 in [h.v for h in hits]
        for h in hits:
            assert h.orders[0] % 2 == 1

    def test_huge_l_all_zero_pattern_hits_everywhere(self):
        hits = find_pattern_primes(
            [MulPoint(2)],
            ValuationPattern(10**9 + 7, (0,)),
            M,
            PrimeRange(3, 60),
            max_hits=100,
        )
        assert [h.v for h in hits] == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_max_hits_truncation(self):
        hits = find_pattern_primes(
            [MulPoint(2)], ValuationPattern(2, (0,)), M, PrimeRange(3, 10000), max_hits=4
        )
        assert len(hits) == 4
        assert hits == sorted(hits, key=lambda h: h.v)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            find_pattern_primes([MulPoint(2)], ValuationPattern(5, (1, 0)), M, PrimeRange(3, 50))
        with pytest.raises(ValueError):
            find_pattern_primes([MulPoint(2)], ValuationPattern(5, (1,)), M, PrimeRange(3, 50), max_hits=0)

    def test_worker_determinism(self):
        args = ([MulPoint(2), MulPoint(3)], ValuationPattern(5, (1, 0)), M, PrimeRange(3, 5000))
        h1 = find_pattern_primes(*args, max_hits=8, workers=1)
        h8 = find_pattern_primes(*args, max_hits=8, workers=8)
        assert h1 == h8

    def test_lemma_instantiation_small_patterns(self):
        # Independent points with small patterns find at least one prime in a
        # desk-size window; an empty result here is a failure of the promise.
        rng = random.Random(41)
        for l, ks in ((2, (1, 0)), (3, (0, 1)), (5, (2,)), (7, (1, 1))):
            while True:
                points = [MulPoint(rng.choice([2, 3, 5, 6, 7, 10])) for _ in ks]
                if len({p.value for p in points}) == len(ks) and (
                    len(ks) == 1 or multiplicative_independence(points) is None
                ):
                    break
            hits = find_pattern_primes(
                points, ValuationPattern(l, ks), M, PrimeRange(3, 100_000), max_hits=1
            )
            assert hits, (l, ks, [p.encode() for p in points])

    @pytest.mark.parametrize("backend, points, l", [
        ("mul", "2", "3"), ("ec:0,0,1,-1,0", "(0,0)", "2"),
    ], ids=["qstar", "37a"])
    def test_exponent_past_every_group_order_ends_at_once(self, backend, points, l):
        # l**k for k = 10**20 has about 10**20 digits; no |G| in the window
        # has that valuation, so no prime is a hit and no power is formed.
        proc = subprocess.run(
            [sys.executable, "-m", "mwlab", "find-primes", "--backend", backend,
             "--points", points, "--l", l, "--ks", "99999999999999999999", "--primes", "3..50"],
            capture_output=True, text=True, cwd=SRC, timeout=20,
        )
        assert proc.returncode == 2
        assert '"hits": []' in proc.stdout

    @pytest.mark.parametrize("backend, points", [
        (M, [MulPoint(2), MulPoint(-3)]),
        (E37, [E37.parse_point("(0,0)"), E37.parse_point("(1,0)")]),
    ], ids=["qstar", "37a"])
    def test_pattern_test_matches_the_unguarded_test(self, backend, points):
        # The test before the k > v_l(|G|) guard, kept as the oracle: both
        # kill tests at every k, whatever |G| is.
        def unguarded(pattern, raws, v):
            l, n = pattern.l, backend.group_order_mod(v)
            while n % l == 0:
                n //= l
            for raw, k in zip(raws, pattern.ks):
                if not backend.raw_kills(n * l**k, raw, v):
                    return None
                if k and backend.raw_kills(n * l ** (k - 1), raw, v):
                    return None
            return v, tuple(backend.order_mod(P, v) for P in points)

        reductions = {v: backend.reduce(points, v) for v in primes_in(PrimeRange(3, 400))}
        for l, ks in itertools.product((2, 3, 5), itertools.product(range(8), repeat=2)):
            pattern = ValuationPattern(l, ks)
            for v, raws in reductions.items():
                if raws is None:
                    continue  # a bad prime
                assert (primesearch._pattern_test(points, pattern, backend, raws, v)
                        == unguarded(pattern, raws, v)), (l, ks, v)


class TestReplayStep1:
    def test_documented_witness_31(self):
        w = replay_step1(MulPoint(2), [MulPoint(3)], 5, M, PrimeRange(3, 1000))
        assert (w.v, w.n) == (31, 5)
        # soundness by direct recomputation
        assert M.order_mod(MulPoint(2), 31) == 5
        assert M.order_mod(MulPoint(3), 31) == 30
        assert pow(2, w.n, 31) == 1
        assert pow(3, w.n, 31) != 1

    def test_power_relation_never_refutes(self):
        assert replay_step1(MulPoint(2), [MulPoint(4)], 5, M, PrimeRange(3, 1000)) is None

    def test_two_targets(self):
        w = replay_step1(MulPoint(2), [MulPoint(3), MulPoint(5)], 7, M, PrimeRange(3, 10000))
        assert w is not None
        n = w.n
        assert M.order_mod(MulPoint(2), w.v) == n
        for q in (3, 5):
            t = M.order_mod(MulPoint(q), w.v)
            assert t % 7 == 0 and n % t != 0
            assert pow(q, n, w.v) != 1
        assert pow(2, n, w.v) == 1

    def test_rejects_composite_l(self):
        with pytest.raises(ValueError):
            replay_step1(MulPoint(2), [MulPoint(3)], 6, M, PrimeRange(3, 100))

    def test_rejects_no_q(self):
        # With no Q_i, "l divides every ord_v(Q_i)" holds vacuously at v = 3.
        with pytest.raises(ValueError, match="at least one Q"):
            replay_step1(MulPoint(2), [], 3, M, PrimeRange(3, 50))

    def test_worker_determinism(self):
        w1 = replay_step1(MulPoint(2), [MulPoint(3)], 5, M, PrimeRange(3, 2000), workers=1)
        w8 = replay_step1(MulPoint(2), [MulPoint(3)], 5, M, PrimeRange(3, 2000), workers=8)
        assert w1 == w8


class TestReplayStep2:
    def test_known_values(self):
        assert replay_step2_lcm([20, 8], [5, 1]) == 8
        assert replay_step2_lcm([6], [1]) == 6
        assert replay_step2_lcm([25, 5], [25, 5]) == 1

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            replay_step2_lcm([20, 8], [3, 1])
        with pytest.raises(ValueError):
            replay_step2_lcm([20], [5, 1])
        with pytest.raises(ValueError):
            replay_step2_lcm([], [])


class TestDensity:
    def test_strictly_between_zero_and_one(self):
        report = pattern_density(
            [MulPoint(2)], ValuationPattern(2, (0,)), M, PrimeRange(3, 10000)
        )
        assert 0.0 < report.ratio < 1.0
        assert not report.inconclusive
        assert report.hits + 0 <= report.scanned_good_primes

    def test_trivial_pattern_ratio_one(self):
        report = pattern_density(
            [MulPoint(2)], ValuationPattern(10**9 + 7, (0,)), M, PrimeRange(3, 100)
        )
        assert report.ratio == 1.0

    def test_impossible_pattern_inconclusive(self):
        report = pattern_density(
            [MulPoint(2)], ValuationPattern(2, (40,)), M, PrimeRange(3, 100)
        )
        assert report.ratio == 0.0 and report.inconclusive

    def test_counts_consistent_with_find(self):
        points = [MulPoint(2), MulPoint(3)]
        pattern = ValuationPattern(5, (1, 0))
        scan = PrimeRange(3, 2000)
        report = pattern_density(points, pattern, M, scan)
        hits = find_pattern_primes(points, pattern, M, scan, max_hits=10**6)
        assert report.hits == len(hits)
