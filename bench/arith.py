"""Exact arithmetic the benchmark uses to build inputs and to re-check
mwlab's answers. It is written apart from mwlab on purpose, so that a check
never trusts the code it is checking.

Curve points are None (the identity) or (x, y) pairs of Fractions on
y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6, with c = (a1, a2, a3, a4, a6).
"""

from __future__ import annotations

from fractions import Fraction


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by a plain sieve."""
    if hi < 2:
        return []
    flags = bytearray([1]) * (hi + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= hi:
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, hi + 1, p)))
        p += 1
    return [q for q in range(max(lo, 2), hi + 1) if flags[q]]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 by trial division (n is small here)."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def discriminant(c) -> int:
    a1, a2, a3, a4, a6 = c
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def on_curve(c, P) -> bool:
    if P is None:
        return True
    a1, a2, a3, a4, a6 = c
    x, y = P
    return y * y + a1 * x * y + a3 * y == x**3 + a2 * x * x + a4 * x + a6


def ec_neg(c, P):
    if P is None:
        return None
    a1, _, a3, _, _ = c
    return (P[0], -P[1] - a1 * P[0] - a3)


def ec_add(c, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, _ = c
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:
        return None
    if x1 == x2:
        slope = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope + a1 * slope - a2 - x1 - x2
    y3 = -(slope + a1) * x3 - (y1 - slope * x1) - a3
    return (x3, y3)


def ec_mul(c, k: int, P):
    if k < 0:
        return ec_mul(c, -k, ec_neg(c, P))
    acc, addend = None, P
    while k:
        if k & 1:
            acc = ec_add(c, acc, addend)
        addend = ec_add(c, addend, addend)
        k >>= 1
    return acc


def parse_point(text: str):
    """Inverse of mwlab's point encodings: '3/2' or '(x,y)' or 'O'."""
    text = text.strip()
    if text == "O":
        return None
    if text.startswith("("):
        x, y = text[1:-1].split(",")
        return (Fraction(x), Fraction(y))
    return Fraction(text)


def encode_point(P) -> str:
    if P is None:
        return "O"
    if isinstance(P, tuple):
        return f"({P[0]},{P[1]})"
    return str(P)


def denominators(P) -> list[int]:
    """The integers whose prime divisors make a prime bad for P."""
    if P is None:
        return []
    if isinstance(P, tuple):
        return [P[0].denominator, P[1].denominator]
    return [abs(P.numerator), P.denominator]


def mul_order(value: Fraction, v: int) -> int:
    """Order of a rational unit mod the prime v, from the definition."""
    a = value.numerator % v * pow(value.denominator % v, -1, v) % v
    t = v - 1
    for q in prime_factors(v - 1):
        while t % q == 0 and pow(a, t // q, v) == 1:
            t //= q
    return t
