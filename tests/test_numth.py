import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlab import (
    EllipticGroup, MulPoint, MultiplicativeGroup, SubgroupSpec, WeierstrassCurve,
    detect_dependence, numth, scan_corrales_schoof, scan_erdos_union,
)
from mwlab.numth import (
    Factorization,
    PrimeRange,
    bsgs_dlog,
    crt,
    exact_valuation,
    factor,
    integer_kernel,
    is_prime,
    multiplicative_order,
    multiplicative_orders,
    primes_in,
)


def trial_division_primes(lo, hi):
    """Oracle: primality by trial division."""
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def naive_factor(n):
    """Oracle: prime-power factors by trial division over every d >= 2."""
    out, d = [], 2
    while n > 1:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return tuple(out)


def trial_factor(n):
    """Oracle: the older trial division of `factor`, by 2, 3, 5 and then
    every odd d from 7 up to 10**6, far past the table of primes up to
    2**12, with the same Miller-Rabin and rho path beyond it."""
    value = n
    found = {}
    for p in (2, 3, 5):
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    d = 7
    while d <= 10**6 and d * d <= n:
        while n % d == 0:
            found[d] = found.get(d, 0) + 1
            n //= d
        d += 2
    if d * d > n:
        if n > 1:
            found[n] = 1
        return Factorization(value, tuple(sorted(found.items())))
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        g = numth._rho_split(m)
        stack.append(g)
        stack.append(m // g)
    return Factorization(value, tuple(sorted(found.items())))


def brute_order(a, p):
    """Oracle: multiplicative order by direct exponentiation."""
    x = a % p
    acc = x
    for n in range(1, p):
        if acc == 1:
            return n
        acc = acc * x % p
    raise AssertionError("no order found")


class TestFactor:
    def test_one_has_empty_factorization(self):
        assert factor(1).factors == ()

    def test_known_values(self):
        assert factor(15).factors == ((3, 1), (5, 1))
        assert factor(24).factors == ((2, 3), (3, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor(0)
        with pytest.raises(ValueError):
            factor(-12)

    def test_rho_path_beyond_trial_bound(self):
        # both factors exceed the table of trial divisors, the primes up to 2**12
        p, q = 1000003, 1000033
        assert factor(p * q).factors == ((p, 1), (q, 1))

    def test_large_prime(self):
        p = 10**12 + 39
        assert is_prime(p)
        assert factor(p).factors == ((p, 1),)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_recompose_roundtrip(self, n):
        f = factor(n)
        acc = 1
        for p, e in f.factors:
            acc *= p**e
        assert acc == n
        assert list(f.primes) == sorted(f.primes)

    def test_against_naive_trial_division(self):
        for n in range(1, 20_001):
            assert factor(n).factors == naive_factor(n), n

    def test_against_trial_division_by_every_odd_d(self):
        # Uncached, so every n runs the table of small primes; the seeded
        # values near 10**14 also reach Miller-Rabin and rho, where the
        # oracle still divides by every odd d up to 10**6.
        rng = random.Random(14)
        large = [rng.randrange(10**14, 2 * 10**14) for _ in range(6)]
        large += [4093 * 4099 * 1_000_003, 2**5 * 4091**2 * 999_983, 3 * 1_000_003 * 1_000_033]
        # The seams of the one trial-division loop: the last table prime
        # 4093 (a power of it leaves cofactor 1), the next prime 4099, and
        # the prime 16752653 between their squares. Then the seams of the
        # oracle's own trial bound: the primes next to 999999**2, and
        # (10**6 + 1)**2.
        large += [4093**2, 4093**3, 4093 * 4099, 4099**2, 16_752_653,
                  999_997_999_981, 999_999**2, 999_998_000_009,
                  1_000_001**2, 1_000_003 * 1_000_033]
        for n in [*range(1, 300_000), *large]:
            assert numth.factor.__wrapped__(n) == trial_factor(n), n

    @pytest.mark.parametrize("n, factors", [
        (999_983, ((999_983, 1),)),
        (1_000_003, ((1_000_003, 1),)),
        (1_000_003**2, ((1_000_003, 2),)),
        (999_983 * 1_000_003, ((999_983, 1), (1_000_003, 1))),
        (999_999_999_989, ((999_999_999_989, 1),)),
        (2 * 1_000_003 * 1_000_033, ((2, 1), (1_000_003, 1), (1_000_033, 1))),
        (4093**2, ((4093, 2),)),
        (4093 * 4099, ((4093, 1), (4099, 1))),
        (999_997_999_981, ((999_997_999_981, 1),)),  # the prime just below 999999**2
        (999_998_000_009, ((999_998_000_009, 1),)),  # the prime just above it
        (1_000_001**2, ((101, 2), (9901, 2))),
        (1_000_003 * 1_000_033, ((1_000_003, 1), (1_000_033, 1))),
        (4093**3, ((4093, 3),)),
        (4099**2, ((4099, 2),)),
        (16_752_653, ((16_752_653, 1),)),  # the least prime above 4093**2
    ])
    def test_at_the_trial_bound(self, n, factors):
        # Uncached: each case runs the trial division and the cofactor rule.
        f = numth.factor.__wrapped__(n)
        assert f.factors == factors
        assert math.prod(p**e for p, e in f.factors) == n
        assert all(is_prime(p) for p in f.primes)

    def test_cofactor_below_the_trial_square_needs_no_primality_test(self, monkeypatch):
        calls = []
        inner = numth.is_prime

        def counted(n):
            calls.append(n)
            return inner(n)

        monkeypatch.setattr(numth, "is_prime", counted)
        rng = random.Random(17)
        # Below 4093**2 the table of primes up to 2**12 reaches the square
        # root of every cofactor, as at the prime 4093**2 - 2. So does
        # 4093**2 itself, which leaves 1.
        below = [4091 * 4093, 4093**2 - 2, 4093**2, 999_983, 1_000_003,
                 *range(1, 3000), *(rng.randrange(1, 4093**2) for _ in range(200))]
        for n in below:
            numth.factor.__wrapped__(n)
        assert calls == []
        # A cofactor with no factor up to 4093 meets Miller-Rabin.
        for n in (4099**2, 4099 * 4111):
            numth.factor.__wrapped__(n)
            assert calls
            calls.clear()

    def test_against_trial_division_at_height(self):
        # p - 1 for the first 40 primes of seeded windows near 10**9, 10**12
        # and 10**15, where a cofactor past 4093**2 goes to rho.
        for seed, height in ((9, 10**9), (12, 10**12), (15, 10**15)):
            lo = random.Random(seed).randrange(height, 2 * height)
            ps = [n for n in range(lo, lo + 4000) if is_prime(n)][:40]
            assert len(ps) == 40
            for p in ps:
                assert numth.factor.__wrapped__(p - 1) == trial_factor(p - 1), p

    @pytest.mark.parametrize("q, r", [(4099, 4111), (999_983, 1_000_003)])
    def test_rho_splits_prime_powers_and_products(self, q, r):
        # Primes just past the table of trial divisors and near 10**6.
        for n, factors in ((q**2, ((q, 2),)), (q**3, ((q, 3),)), (q**5, ((q, 5),)),
                           (q * r, ((q, 1), (r, 1)))):
            g = numth._rho_split(n)
            assert 1 < g < n and n % g == 0, n
            assert numth.factor.__wrapped__(n).factors == factors

    def test_invalid_factorization_rejected(self):
        with pytest.raises(ValueError):
            Factorization(6, ((3, 1), (2, 1)))
        with pytest.raises(ValueError):
            Factorization(6, ((2, 1),))


class TestPrimes:
    def test_known_windows(self):
        assert primes_in(PrimeRange(2, 10)) == [2, 3, 5, 7]
        assert primes_in(PrimeRange(14, 16)) == []
        assert primes_in(PrimeRange(97, 97)) == [97]

    def test_matches_trial_division(self):
        assert primes_in(PrimeRange(2, 2000)) == trial_division_primes(2, 2000)
        assert primes_in(PrimeRange(500, 700)) == trial_division_primes(500, 700)

    def test_segmented_window(self):
        lo, hi = 5_000_000, 5_000_200
        assert primes_in(PrimeRange(lo, hi)) == trial_division_primes(lo, hi)

    def test_against_is_prime(self):
        # Windows that start above 2: tiny, mid-range and seeded random ones,
        # and one whose lower end is far above its base primes.
        rng = random.Random(5)
        windows = [(3, 3), (4, 4), (3, 5000), (49, 49), (1000, 3000), (3_999_000, 4_001_000)]
        for _ in range(20):
            lo = rng.randint(3, 4_000_000)
            windows.append((lo, lo + rng.randint(0, 3000)))
        windows.append((10**10, 10**10 + 10**5))
        for lo, hi in windows:
            want = [n for n in range(lo, hi + 1) if is_prime(n)]
            assert primes_in(PrimeRange(lo, hi)) == want, (lo, hi)

    def test_recent_windows_are_cached(self):
        numth._recent_window.cache_clear()
        windows = [(3, 10_000), (10**6, 10**6 + 5000), (3, 10_000), (10**10, 10**10 + 2000)]
        for lo, hi in windows + windows:
            first, again = primes_in(PrimeRange(lo, hi)), primes_in(PrimeRange(lo, hi))
            assert first == again == numth._sieve_window(lo, hi)
            # Each call hands out its own list.
            first.append(0)
            assert primes_in(PrimeRange(lo, hi)) == again
        assert numth._recent_window.cache_info().currsize == 3

    def test_wide_window_is_not_cached(self):
        numth._recent_window.cache_clear()
        lo = 10**12
        primes_in(PrimeRange(lo, lo + 10**6 - 1))
        assert numth._recent_window.cache_info().currsize == 1
        wide = PrimeRange(lo, lo + 10**6)
        assert primes_in(wide) == primes_in(wide)
        assert numth._recent_window.cache_info().currsize == 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            PrimeRange(1, 10)
        with pytest.raises(ValueError):
            PrimeRange(11, 5)

    def test_window_width_limit(self):
        # Construction only: primes_in would sieve 10**8 integers.
        assert PrimeRange(2, 10**8 + 1).hi == 10**8 + 1
        with pytest.raises(ValueError, match="limit of 100000000 integers"):
            PrimeRange(2, 10**8 + 2)
        with pytest.raises(ValueError, match="limit"):
            PrimeRange(10**10, 10**10 + 2 * 10**8)
        # The base primes of a window at 10**16 come from a sieve of 10**8
        # integers, and from (10**8 + 2)**2 on that sieve is wider than the
        # limit however narrow the window is.
        assert PrimeRange(10**16, 10**16 + 2000).lo == 10**16
        edge = (10**8 + 2) ** 2
        assert PrimeRange(edge - 2000, edge - 1).hi == edge - 1
        with pytest.raises(ValueError, match="needs base primes up to 100000002"):
            PrimeRange(edge - 2000, edge)
        with pytest.raises(ValueError, match="limit of 100000000 integers"):
            PrimeRange(10**20, 10**20 + 2000)

    def test_psi_12_is_composite(self):
        # The least strong pseudoprime to the prime bases 2..37; base 41
        # exposes it (Sorenson and Webster 2017).
        psi_12 = 318665857834031151167461
        assert pow(41, psi_12 - 1, psi_12) != 1
        assert not is_prime(psi_12)

    def test_largest_prime_below_psi_13(self):
        n = numth.PSI_13 - 168
        assert is_prime(n)
        assert not any(is_prime(m) for m in range(n + 1, numth.PSI_13))
        # Lucas: 2 has order n - 1 mod n, so n is prime whatever is_prime says.
        assert pow(2, n - 1, n) == 1
        assert all(pow(2, (n - 1) // q, n) != 1 for q in factor(n - 1).primes)

    def test_a_pass_from_psi_13_on_is_refused(self):
        # psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to every
        # base up to 41, so neither is_prime nor factor may call it prime.
        assert numth.PSI_13 == 1287836182261 * 2575672364521
        with pytest.raises(ValueError, match="cannot prove"):
            is_prime(numth.PSI_13)
        with pytest.raises(ValueError, match="cannot prove"):
            factor(numth.PSI_13)
        # 5003 is past the table of trial divisors, so rho splits it off
        # first, and psi_13 is still refused.
        with pytest.raises(ValueError, match="cannot prove"):
            numth.factor.__wrapped__(5003 * numth.PSI_13)
        # A composite verdict is a proof at any size, so rho still splits a
        # cofactor past psi_13 whose parts lie below it.
        p = numth.PSI_13 - 168
        assert not is_prime(p * 1000003)
        assert factor(p * 1000003).factors == ((1000003, 1), (p, 1))

    def test_pocklington_proves_some_primes_past_psi_13(self):
        # 2^89 - 2 has a part made of primes up to 2^12 above the square root
        # of 2^89 - 1; 2^127 - 2 and psi_13 - 1 do not.
        assert is_prime(2**89 - 1)
        assert factor(3 * (2**89 - 1)).factors == ((3, 1), (2**89 - 1, 1))
        for n in (2**127 - 1, numth.PSI_13):
            assert not numth._pocklington(n)
            with pytest.raises(ValueError, match="cannot prove"):
                is_prime(n)
        # The Carmichael number 43 * 127 * 211 is prime to every base, so
        # a^(n-1) == 1 for each, and n - 1 = 2 * 3^2 * 5 * 7 * 31 * 59 is
        # whole: only the gcd test stands between it and a proof.
        assert not numth._pocklington(43 * 127 * 211)

    def test_is_prime_against_sieve(self):
        flags = set(trial_division_primes(2, 5000))
        for n in range(2, 5000):
            assert is_prime(n) == (n in flags)


class TestMultiplicativeOrder:
    def test_identity(self):
        assert multiplicative_order(1, 13) == 1

    def test_known_values(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(2, 41) == 20

    def test_rejects_divisible_base(self):
        with pytest.raises(ValueError):
            multiplicative_order(14, 7)

    def test_against_brute_force(self):
        for p in primes_in(PrimeRange(3, 100)):
            for a in range(2, 20):
                if a % p == 0:
                    continue
                assert multiplicative_order(a, p) == brute_order(a, p)

    def test_order_divides_group_order(self):
        for p in primes_in(PrimeRange(3, 300)):
            for a in (2, 3, 5, 10):
                if a % p:
                    assert (p - 1) % multiplicative_order(a, p) == 0

    def test_minimality_via_divisors(self):
        for a, p in ((2, 101), (3, 257), (7, 409)):
            t = multiplicative_order(a, p)
            assert pow(a, t, p) == 1
            for d in range(1, t):
                if t % d == 0:
                    assert pow(a, d, p) != 1


    def test_orders_in_one_pass_against_one_order_per_base(self):
        rng = random.Random(29)
        for p in primes_in(PrimeRange(3, 20_000)):
            bases = [2, p - 1, 10**6 + 3, *(rng.randrange(1, p) for _ in range(3))]
            bases = [b for b in bases if b % p]
            assert multiplicative_orders(bases, p) == [multiplicative_order(b, p) for b in bases]

    def test_orders_in_one_pass_against_brute_force(self):
        for p in primes_in(PrimeRange(3, 300)):
            bases = [b for b in (2, 3, 5, 6, 7, 10, 12, p - 1) if b % p]
            assert multiplicative_orders(bases, p) == [brute_order(b, p) for b in bases]

    def test_unreduced_base(self):
        for p in primes_in(PrimeRange(3, 300)):
            assert multiplicative_order(p + 2, p) == multiplicative_order(2, p)


class TestFactorCache:
    def test_warm_working_set_fits(self):
        # A query-stream-shaped mix, run twice in one process: the second
        # round must find every factorization it needs still cached.
        window, M = PrimeRange(3, 10_000), MultiplicativeGroup()

        def mix():
            for xs, ys in (([2, 3], [3, 2]), ([6, 10], [10, 6])):
                assert scan_erdos_union(xs, ys, window, workers=1).verdict == "holds_on_scan"
            for g1, g2 in ((6, 10), (2, 3), (3, 5), (2, 7), (10, 21), (5, 6)):
                gens = [MulPoint(Fraction(g1)), MulPoint(Fraction(g2))]
                P = MulPoint(Fraction(g1 * g2))
                assert detect_dependence([P], SubgroupSpec(gens, M), window, workers=1).certificate
            for curve in ("ec:0,0,1,-1,0", "ec:0,1,1,-2,0", "ec:0,0,1,1,0"):
                E = EllipticGroup(WeierstrassCurve.parse(curve))
                P = E.parse_point("(0,0)")
                report = scan_corrales_schoof(P, E.scale(2, P), E, PrimeRange(3, 900), workers=1)
                assert report.verdict == "holds_on_scan"

        factor.cache_clear()
        mix()
        misses = factor.cache_info().misses
        mix()
        info = factor.cache_info()
        assert info.misses == misses
        assert info.currsize < info.maxsize


class TestExactValuation:
    def test_known_values(self):
        assert exact_valuation(2, 3, 24) is True
        assert exact_valuation(5, 2, 20) is False
        assert exact_valuation(3, 0, 8) is True

    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_factor_exponent(self, l, k, n):
        assert exact_valuation(l, k, n) == (factor(n).exponent_of(l) == k)

    def test_exponent_past_the_bit_length(self):
        # l**k is never formed: 2**(10**20) would not fit in memory.
        assert exact_valuation(2, 10**20, 24) is False
        assert exact_valuation(3, 10**20, 3**40) is False
        # Against the formula without the guard, at every k up to past it.
        for l, n in itertools.product((2, 3, 7), (1, 2, 8, 24, 81, 3**5 * 7, 2**20)):
            for k in range(n.bit_length() + 3):
                lk = l**k
                expected = n % l != 0 if k == 0 else n % lk == 0 and n % (lk * l) != 0
                assert exact_valuation(l, k, n) is expected, (l, k, n)


class TestCrt:
    def test_known_values(self):
        assert crt([(2, 3), (3, 5)]) == (8, 15)
        assert crt([(0, 1)]) == (0, 1)
        assert crt([(1, 2), (0, 2)]) is None

    def test_non_coprime_compatible(self):
        value, modulus = crt([(2, 4), (2, 6)])
        assert modulus == 12 and value % 4 == 2 and value % 6 == 2

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 30)), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_solution_satisfies_all(self, congruences):
        result = crt(congruences)
        if result is None:
            # brute-force confirm there really is no solution
            bound = math.lcm(*(m for _, m in congruences))
            assert not any(
                all((t - r) % m == 0 for r, m in congruences) for t in range(bound)
            )
        else:
            value, modulus = result
            assert 0 <= value < modulus
            assert all((value - r) % m == 0 for r, m in congruences)
            assert modulus == math.lcm(*(m for _, m in congruences))


class TestBsgs:
    def test_known_values(self):
        assert bsgs_dlog(2, 1, 7, 3) == 0
        assert bsgs_dlog(2, 3, 5, 4) == 3
        assert bsgs_dlog(2, 3, 7, 3) is None

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            bsgs_dlog(7, 3, 7, 1)
        with pytest.raises(ValueError):
            bsgs_dlog(3, 7, 7, 6)

    def test_exhaustive_agreement(self):
        for p in (11, 13, 101):
            for base in (2, 3, 7):
                t = multiplicative_order(base, p)
                powers = {}
                acc = 1
                for e in range(t):
                    powers.setdefault(acc, e)
                    acc = acc * base % p
                for target in range(1, p):
                    assert bsgs_dlog(base, target, p, t) == powers.get(target)


class TestIntegerKernel:
    def test_zero_matrix(self):
        basis = integer_kernel([[0, 0]], 2)
        assert len(basis) == 2

    def test_full_rank_trivial_kernel(self):
        assert integer_kernel([[1, 0], [0, 1]], 2) == []

    def test_kernel_vectors_annihilate(self):
        rows = [[2, 4, 6], [1, 3, 5], [0, 1, 2]]
        for vec in integer_kernel(rows, 3):
            assert all(sum(r[i] * vec[i] for i in range(3)) == 0 for r in rows)

    @pytest.mark.parametrize(
        "rows,ncols",
        [
            ([[2, 4, 6], [1, 3, 5]], 3),
            ([[1, 1, 0], [0, 0, 2]], 3),
            ([[2, 1], [0, 0]], 2),
            ([[6, 10, 15]], 3),
        ],
    )
    def test_kernel_is_saturated(self, rows, ncols):
        # Every small integer solution must be an integer combination of the
        # basis; catches bases spanning only a finite-index sublattice.
        import itertools

        basis = integer_kernel(rows, ncols)

        def in_lattice(vec):
            if not basis:
                return not any(vec)
            return any(
                all(
                    sum(c * b[i] for c, b in zip(coeffs, basis)) == vec[i]
                    for i in range(ncols)
                )
                for coeffs in itertools.product(range(-20, 21), repeat=len(basis))
            )

        for v in itertools.product(range(-4, 5), repeat=ncols):
            if all(sum(r[i] * v[i] for i in range(ncols)) == 0 for r in rows):
                assert in_lattice(list(v)), f"kernel vector {v} outside basis lattice"
