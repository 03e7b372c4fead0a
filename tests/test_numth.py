import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlab import numth
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
    """Oracle: factor before the table of small primes, dividing by 2, 3, 5
    and then every odd d from 7 up to 10**6, with the same rho path."""
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
        # both factors exceed the trial-division bound
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
        # values near 10**14 also reach the odd d past the table and rho.
        rng = random.Random(14)
        large = [rng.randrange(10**14, 2 * 10**14) for _ in range(6)]
        large += [4093 * 4099 * 1_000_003, 2**5 * 4091**2 * 999_983, 3 * 1_000_003 * 1_000_033]
        for n in [*range(1, 300_000), *large]:
            assert numth.factor.__wrapped__(n) == trial_factor(n), n

    @pytest.mark.parametrize("n, factors", [
        (999_983, ((999_983, 1),)),
        (1_000_003, ((1_000_003, 1),)),
        (1_000_003**2, ((1_000_003, 2),)),
        (999_983 * 1_000_003, ((999_983, 1), (1_000_003, 1))),
        (999_999_999_989, ((999_999_999_989, 1),)),
        (2 * 1_000_003 * 1_000_033, ((2, 1), (1_000_003, 1), (1_000_033, 1))),
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
        below = [999_983, 1_000_003, 999_983 * 1_000_003, 999_999_999_989,
                 *range(1, 3000), *(rng.randrange(1, 10**12) for _ in range(200))]
        for n in below:
            numth.factor.__wrapped__(n)
        assert calls == []
        # Above 10**12 with no factor up to 10**6, Miller-Rabin still runs.
        numth.factor.__wrapped__(1_000_003**2)
        assert calls

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
