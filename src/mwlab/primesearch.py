"""Searches for primes realizing prescribed l-adic valuation patterns on
point orders, and replays of the witness constructions those patterns feed.

Existence of such primes (for linearly independent points) is a theorem;
their location is not, so everything here is scan-and-verify: a window is
swept and every hit is certified by recomputation. An empty result is a
reported outcome, never an error.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import numth
from ._parallel import map_chunks, pool_size, scan_chunk, split_chunks
from .numth import PrimeRange
from .reports import Witness


class ValuationPattern(namedtuple("ValuationPattern", "l ks")):
    """Prime l with target exponents: l^k exactly divides ord_v P_i (k > 0),
    or l does not divide ord_v P_i at all (k = 0)."""

    __slots__ = ()

    def __new__(cls, l, ks):
        if not numth.is_prime(l):
            raise ValueError(f"pattern prime {l} is not prime")
        if not ks:
            raise ValueError("pattern needs at least one exponent")
        if any(k < 0 for k in ks):
            raise ValueError("pattern exponents must be nonnegative")
        return super().__new__(cls, l, ks)


class PatternHit(namedtuple("PatternHit", "v orders verified")):
    """A prime realizing the pattern, with recomputed orders."""

    __slots__ = ()


class DensityReport(
    namedtuple("DensityReport", "l ks hits scanned_good_primes ratio inconclusive")
):
    """Empirical frequency of pattern primes over a scan window."""

    __slots__ = ()


def _verified_order(backend, P, v: int, order: int) -> bool:
    """Certify an order by direct exponentiation, independently of how it
    was computed: order kills the reduction, order/q does not for q | order."""
    raw = backend.reduce_raw(P, v)
    if not backend.raw_is_identity(backend.raw_scale(order, raw, v), v):
        return False
    for q, _ in numth.factor(order).factors:
        if backend.raw_is_identity(backend.raw_scale(order // q, raw, v), v):
            return False
    return True


def _pattern_test(points, pattern, backend, raws, v):
    """The orders at v when they realize the pattern; shared by the hit
    search and the density count.

    v_l(ord P) is the least j with (n * l^j) * P = 0, n the l-free part of
    N = |G|, so it is k exactly when n * l^k kills P and, for k > 0,
    n * l^(k-1) does not: at most two kill tests per point. Only a match
    computes its orders.
    """
    l, e = pattern.l, 0
    n = backend.group_order_mod(v)
    while n % l == 0:
        n //= l
        e += 1
    for raw, k in zip(raws, pattern.ks):
        if k > e:
            return None  # v_l(ord P) <= v_l(N) = e; l**k is never formed
        if not backend.raw_kills(n * l**k, raw, v):
            return None  # v_l(ord P) > k
        if k and backend.raw_kills(n * l ** (k - 1), raw, v):
            return None  # v_l(ord P) < k
    # From the points, not the raws: on Q* windows these hits are the only
    # callers of MultiplicativeGroup.order_mod and numth.multiplicative_order,
    # two sites bench/run.py's trace must see.
    return v, tuple(backend.order_mod(P, v) for P in points)


def _scan(test, args, backend, points, scan: PrimeRange, workers: int,
          limit: int | None = 1) -> list[dict]:
    """The chunk results of one scan of the window, in ascending order."""
    chunks = split_chunks(numth.primes_in(scan), pool_size(workers))
    tasks = [(test, args, backend, points, c, limit) for c in chunks]
    return map_chunks(scan_chunk, tasks, workers)


def find_pattern_primes(points, pattern: ValuationPattern, backend, scan: PrimeRange,
                        max_hits: int = 10, workers: int = 1) -> list[PatternHit]:
    """Up to max_hits good primes in the window realizing the exact pattern,
    ascending, each hit carrying exponentiation-certified orders.

    The points are taken to be linearly independent by assertion; dependent
    inputs may legitimately produce no hits.
    """
    points = list(points)
    if len(points) != len(pattern.ks):
        raise ValueError("one pattern exponent per point required")
    if max_hits < 1:
        raise ValueError("max_hits must be positive")
    results = _scan(_pattern_test, (points, pattern), backend, points, scan, workers, max_hits)
    found = [hit for res in results for hit in res["hits"]][:max_hits]
    # Certified after the merge: only the hits returned pay for it.
    return [
        PatternHit(
            v=v,
            orders=orders,
            verified=all(_verified_order(backend, P, v, t) for P, t in zip(points, orders)),
        )
        for v, orders in found
    ]


def _replay1_test(l, backend, raws, v):
    """raws are P and the Q_i. l | ord_v(Q_i) exactly when m, the l-free
    part of N = |G|, does not kill Q_i; the orders of the Q_i are computed
    only for a witness."""
    rqs = raws[1:]
    m = backend.group_order_mod(v)
    while m % l == 0:
        m //= l
    if any(backend.raw_kills(m, raw, v) for raw in rqs):
        return None
    n = backend.raw_order(raws[0], v)
    if any(backend.raw_kills(n, raw, v) for raw in rqs):
        return None
    q_orders = backend.raw_orders(rqs, v)
    detail = (
        f"ord_v(P)={n} with ord_v(Q_i)={q_orders}; n={n} kills P mod {v} "
        f"and kills no Q_i ({l} divides every ord_v(Q_i))"
    )
    return Witness(v=v, n=n, detail=detail)


def replay_step1(P, Qs, l: int, backend, scan: PrimeRange, workers: int = 1) -> Witness | None:
    """Hunt a prime where l divides every ord_v(Q_i) and n = ord_v(P) kills
    P mod v but no Q_i, refuting the one-sided vanishing-cover condition
    there. Returns the first such (v, n), or None when the window has none
    (in particular whenever the condition actually holds identically).
    """
    if not numth.is_prime(l):
        raise ValueError(f"{l} is not prime")
    if not Qs:
        raise ValueError("the replay needs at least one Q")
    results = _scan(_replay1_test, (l,), backend, (P, *Qs), scan, workers)
    for res in results:
        if res["witness"] is not None:
            return res["witness"]
    return None


def replay_step2_lcm(orders, divisors) -> int:
    """lcm of the orders after dividing out prescribed exact powers.

    Mirrors the witness-exponent construction: given ord_v values and the
    power of l to strip from each, form lcm(ord_1/d_1, ..., ord_m/d_m).
    """
    orders = list(orders)
    divisors = list(divisors)
    if len(orders) != len(divisors) or not orders:
        raise ValueError("need one divisor per order")
    parts = []
    for t, d in zip(orders, divisors):
        if d < 1 or t % d != 0:
            raise ValueError(f"{d} does not divide the order {t}")
        parts.append(t // d)
    return math.lcm(*parts)


def pattern_density(points, pattern: ValuationPattern, backend, scan: PrimeRange,
                    workers: int = 1) -> DensityReport:
    """Hit frequency of the pattern over all good primes in the window.

    A zero ratio on a finite window is flagged inconclusive: it says nothing
    about larger primes.
    """
    points = list(points)
    if len(points) != len(pattern.ks):
        raise ValueError("one pattern exponent per point required")
    results = _scan(_pattern_test, (points, pattern), backend, points, scan, workers, None)
    hits = sum(len(r["hits"]) for r in results)
    goods = sum(r["goods"] for r in results)
    ratio = hits / goods if goods else 0.0
    return DensityReport(
        l=pattern.l,
        ks=pattern.ks,
        hits=hits,
        scanned_good_primes=goods,
        ratio=ratio,
        inconclusive=(hits == 0),
    )
