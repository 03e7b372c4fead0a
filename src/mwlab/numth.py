"""Exact integer arithmetic: primes, factoring, modular orders, CRT, discrete logs.

Everything here returns exact values on arbitrary-precision ints. The intended
input scale is "desk size": scan primes fit in 64 bits, factored quantities are
group orders (p-1 or a curve order), never cryptographic composites.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

# Widest sieve: sieving allocates one byte per integer, so a window wider
# than this, or one whose base primes up to sqrt(hi) need a wider sieve
# (hi past about 10**16), is refused rather than exhausting memory.
_MAX_WINDOW = 10**8

# Widest window primes_in keeps in its cache of recent windows.
_CACHED_WINDOW = 10**6

# Miller-Rabin to the first 13 primes is exact below PSI_13, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


class Factorization(namedtuple("Factorization", "value factors")):
    """Prime-power decomposition: value == prod(p**e), primes strictly increasing."""

    __slots__ = ()

    def __new__(cls, value, factors):
        if value < 1:
            raise ValueError(f"factorization of non-positive value {value}")
        prev = 1
        acc = 1
        for p, e in factors:
            if p <= prev:
                raise ValueError("factor primes must be strictly increasing")
            if e < 1:
                raise ValueError("factor exponents must be >= 1")
            prev = p
            acc *= p**e
        if acc != value:
            raise ValueError(f"factors do not recompose to {value}")
        return super().__new__(cls, value, factors)

    def exponent_of(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


class PrimeRange(namedtuple("PrimeRange", "lo hi")):
    """Closed prime scan window [lo, hi]; `primes_in` lists the primes in it."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        if lo < 2:
            raise ValueError(f"prime range must start at 2 or above, got {lo}")
        if hi < lo:
            raise ValueError(f"inverted prime range [{lo}, {hi}]")
        if hi - lo + 1 > _MAX_WINDOW:
            raise ValueError(
                f"prime range [{lo}, {hi}] is wider than the limit of "
                f"{_MAX_WINDOW} integers"
            )
        if math.isqrt(hi) - 1 > _MAX_WINDOW:
            raise ValueError(
                f"prime range [{lo}, {hi}] needs base primes up to {math.isqrt(hi)}, "
                f"a sieve wider than the limit of {_MAX_WINDOW} integers"
            )
        return super().__new__(cls, lo, hi)


def primes_in(window: PrimeRange) -> list[int]:
    """Exactly the primes p with lo <= p <= hi, ascending, as a new list.

    The last few windows of at most _CACHED_WINDOW integers are kept, so a
    process that scans a window again does not sieve it again; wider
    windows are sieved each time rather than held in memory.
    """
    lo, hi = window.lo, window.hi
    if hi - lo + 1 > _CACHED_WINDOW:
        return _sieve_window(lo, hi)
    return list(_recent_window(lo, hi))


@lru_cache(maxsize=8)
def _recent_window(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(_sieve_window(lo, hi))


def _sieve_window(lo: int, hi: int) -> list[int]:
    """Segmented sieve: only the window itself is flagged, by the primes up
    to sqrt(hi), which come from sieving the window 2..isqrt(hi) the same
    way (no base primes at all once isqrt(hi) < 2)."""
    root = math.isqrt(hi)
    flags = bytearray(b"\x01") * (hi - lo + 1)
    for p in _sieve_window(2, root) if root >= 2 else ():
        start = max(p * p, -(-lo // p) * p)
        if start <= hi:
            flags[start - lo :: p] = b"\x00" * ((hi - start) // p + 1)
    return list(itertools.compress(range(lo, hi + 1), flags))


# The odd primes up to 2**12: the trial divisors of `factor` and the part of
# n - 1 that `_pocklington` looks at.
_ODD_PRIMES = tuple(_sieve_window(3, 1 << 12))


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases: exact for n < PSI_13 =
    3317044064679887385961981. From PSI_13 on, False is still a proof, but a
    strong pseudoprime passes, so a pass must also meet `_pocklington` and
    raises ValueError when it does not."""
    if n < 2:
        return False
    if n in _MR_WITNESSES:
        return True
    if any(n % p == 0 for p in _MR_WITNESSES):
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PSI_13 and not _pocklington(n):
        raise ValueError(f"cannot prove {n} prime: Miller-Rabin is exact only below {PSI_13}")
    return True


def _pocklington(n: int) -> bool:
    """True when F*F > n for the part F of n-1 made of 2 and the odd primes
    up to 2**12, and each prime q | F has a base a with
    gcd(a^((n-1)/q) - 1, n) == 1: then n is prime (Brillhart, Lehmer and
    Selfridge, Math. Comp. 29, 1975). The Miller-Rabin pass has already
    shown a^(n-1) == 1 for every base a."""
    F, qs = 1, [q for q in (2, *_ODD_PRIMES) if (n - 1) % q == 0]
    for q in qs:
        while (n - 1) % (F * q) == 0:
            F *= q
    return F * F > n and all(
        any(math.gcd(pow(a, (n - 1) // q, n) - 1, n) == 1 for a in _MR_WITNESSES) for q in qs)


def _rho_split(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n.

    Parameters advance deterministically so factorizations are reproducible.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m = 2, 128
        g = q = r = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable at desk scale


# Only a warm process scanning windows again reads a factorization again: a
# query-stream pass asks for 1,941 distinct values, so 2**12 holds them twice.
@lru_cache(maxsize=1 << 12)
def factor(n: int) -> Factorization:
    """Exact factorization: trial division by the primes up to 2**12, then
    Miller-Rabin and Pollard rho.

    The power of 2 comes off by bit arithmetic, then one loop divides by the
    odd primes up to 2**12. When p*p exceeds the cofactor, the cofactor is 1
    or prime and is recorded without a primality test; only a cofactor left
    after the last table prime, 4093, meets Miller-Rabin and rho, so no n
    below 4093**2 does.
    Raises ValueError for n <= 0. factor(1) has no factors.
    """
    if n <= 0:
        raise ValueError(f"cannot factor non-positive {n}")
    value = n
    found: dict[int, int] = {}
    twos = (n & -n).bit_length() - 1
    if twos:
        found[2] = twos
        n >>= twos
    for p in _ODD_PRIMES:
        if p * p > n:
            # Trial division passed sqrt(n): the cofactor is 1 or prime.
            if n > 1:
                found[n] = 1
            return Factorization(value, tuple(found.items()))
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            found[p] = e
    # The cofactor has no prime factor up to 2**12: 1 (when what was left
    # was a power of 4093), prime, or a product of such primes.
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        g = _rho_split(m)
        stack.append(g)
        stack.append(m // g)
    return Factorization(value, tuple(sorted(found.items())))


def multiplicative_order(a: int, p: int) -> int:
    """Least n >= 1 with a**n == 1 (mod p), via factoring p-1 and stripping."""
    a %= p
    if a == 0:
        raise ValueError(f"{p} divides the base; no multiplicative order")
    return multiplicative_orders((a,), p)[0]


def multiplicative_orders(bases, p: int) -> list[int]:
    """The orders of bases prime to p, each stripped from p-1 over one
    factorization of p-1. A base divisible by p is the caller's error and
    is not checked; `scan_chunk` hands `MultiplicativeGroup.raw_orders` only
    points reduced at a good prime."""
    factors = factor(p - 1).factors
    orders = []
    for x in bases:
        t = p - 1
        for q, _ in factors:
            while t % q == 0 and pow(x, t // q, p) == 1:
                t //= q
        orders.append(t)
    return orders


def exact_valuation(l: int, k: int, n: int) -> bool:
    """True iff l**k exactly divides n (for k=0: true iff l does not divide n)."""
    if n < 1:
        raise ValueError(f"valuation of non-positive {n}")
    if k == 0:
        return n % l != 0
    if k >= n.bit_length():  # l**k >= 2**k > n, and l**k is never formed
        return False
    lk = l**k
    return n % lk == 0 and n % (lk * l) != 0


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y == g == gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def crt(congruences: list[tuple[int, int]]) -> tuple[int, int] | None:
    """Combine x = r (mod m) congruences; moduli need not be coprime.

    Returns (value, modulus) with modulus = lcm of inputs and
    0 <= value < modulus, or None when the congruences contradict.
    """
    r0, m0 = 0, 1
    for r, m in congruences:
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        r %= m
        g, s, _ = xgcd(m0, m)
        if (r - r0) % g != 0:
            return None
        lcm = m0 // g * m
        r0 = (r0 + (r - r0) // g % (m // g) * s % (m // g) * m0) % lcm
        m0 = lcm
    return r0, m0


def bsgs_dlog(base: int, target: int, p: int, order_of_base: int) -> int | None:
    """Least e in [0, order_of_base) with base**e == target (mod p), else None.

    Baby-step giant-step, O(sqrt(order)) time and space. Requires the exact
    order of base mod p.
    """
    base %= p
    target %= p
    if base == 0 or target == 0:
        raise ValueError("baby-step giant-step needs arguments coprime to p")
    m = math.isqrt(order_of_base) + 1
    table: dict[int, int] = {}
    e = 1
    for j in range(m):
        table.setdefault(e, j)
        e = e * base % p
    giant = pow(pow(base, p - 2, p), m, p)
    gamma = target
    for i in range(m + 1):
        j = table.get(gamma)
        if j is not None:
            found = i * m + j
            if found < order_of_base:
                return found
        gamma = gamma * giant % p
    return None


def integer_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the integer kernel {c : M @ c == 0} of an integer matrix.

    Row-reduces the transpose augmented with the identity using exact xgcd
    elimination (a Hermite-form sweep); rows whose transpose part vanishes
    carry a lattice basis of the kernel in their identity part. The returned
    basis generates ALL integer kernel vectors, not just a finite-index
    sublattice.
    """
    nrows = len(rows)
    width = nrows + ncols
    # work[i] = (column i of M) + (i-th unit vector)
    work = [[rows[r][i] for r in range(nrows)] + [0] * ncols for i in range(ncols)]
    for i in range(ncols):
        work[i][nrows + i] = 1
    pivot_row = 0
    for col in range(nrows):
        piv = next((i for i in range(pivot_row, ncols) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[pivot_row], work[piv] = work[piv], work[pivot_row]
        for i in range(pivot_row + 1, ncols):
            if work[i][col] == 0:
                continue
            a, b = work[pivot_row][col], work[i][col]
            g, x, y = xgcd(a, b)
            u, v = a // g, b // g
            for j in range(width):
                rj, sj = work[pivot_row][j], work[i][j]
                work[pivot_row][j] = x * rj + y * sj
                work[i][j] = u * sj - v * rj
        pivot_row += 1
        if pivot_row == ncols:
            break
    basis = []
    for i in range(ncols):
        if all(work[i][c] == 0 for c in range(nrows)):
            vec = work[i][nrows:]
            if any(vec):
                basis.append(vec)
    return basis
