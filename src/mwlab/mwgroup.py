"""Mordell-Weil type groups over Q with reduction maps at good primes.

Two backends share one surface: the multiplicative group Q* (optionally with
an excluded prime set S, the S-unit view) here, elliptic curves over Q in
long Weierstrass form in `mwlab.elliptic`. Both expose reduction at a prime,
exact orders mod v, torsion, and group arithmetic written additively
(combine / scale); what serves both is here too, `torsion_order` among it."""

from __future__ import annotations

import math
from fractions import Fraction

from . import numth
from ._parallel import map_chunks, pool_size, scan_chunk, split_chunks
from .numth import PrimeRange
from .reports import ConditionReport, Witness, merge_scan_results


def __getattr__(name):  # two elliptic names bench/ pins here, until ROADMAP item 1a
    if name in ("EllipticGroup", "_curve_order_mod"):
        from . import elliptic
        return getattr(elliptic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# The multiplicative backend


class MulPoint:
    """Nonzero rational, kept in lowest terms with explicit sign.

    numerator is |value.numerator| and signed its signed form; scans read
    these ints at every prime, so they are stored, not derived.
    """

    __slots__ = ("value", "numerator", "denominator", "signed")

    def __init__(self, value):
        f = value if isinstance(value, Fraction) else Fraction(value)
        if f == 0:
            raise ValueError("0 is not a point of the multiplicative group")
        self.value = f
        self.signed = f.numerator
        self.numerator = abs(f.numerator)
        self.denominator = f.denominator

    def __reduce__(self):
        return MulPoint, (self.value,)

    def encode(self) -> str:
        n, d = self.value.numerator, self.value.denominator
        return f"{n}" if d == 1 else f"{n}/{d}"

    @classmethod
    def parse(cls, text: str) -> "MulPoint":
        try:
            return cls(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad multiplicative point {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, MulPoint) and self.value == other.value

    def __hash__(self):
        return hash(("MulPoint", self.value))

    def __repr__(self):
        return f"MulPoint({self.encode()})"


class MultiplicativeGroup:
    """Q* written additively; S is a finite excluded prime set (the S-unit view)."""

    kind = "multiplicative"
    default_scan = (3, 10_000)

    def __init__(self, excluded_primes=()):
        self.excluded = frozenset(int(p) for p in excluded_primes)
        for p in sorted(self.excluded):
            if not numth.is_prime(p):
                raise ValueError(f"S entry {p} is not prime")

    def identity(self) -> MulPoint:
        return MulPoint(1)

    def is_identity(self, P: MulPoint) -> bool:
        return P.value == 1

    def combine(self, P: MulPoint, Q: MulPoint) -> MulPoint:
        return MulPoint(P.value * Q.value)

    def scale(self, n: int, P: MulPoint) -> MulPoint:
        return MulPoint(P.value**n)

    def torsion_elements(self) -> tuple[MulPoint, ...]:
        return (MulPoint(1), MulPoint(-1))

    def height_bound(self, P: MulPoint, Q: MulPoint) -> int:
        """Bound on |d| for Q = d*P with P nontorsion, from the sizes of the
        numerators and denominators."""
        top = max(Q.numerator, Q.denominator)
        base = min(x for x in (P.numerator, P.denominator) if x > 1)
        return math.ceil(math.log(top) / math.log(base)) + 1 if top > 1 else 1

    def reduce(self, points, v: int) -> list[int] | None:
        """The residues mod v, or None where v is in S or divides a numerator or a denominator."""
        if v in self.excluded:
            return None
        raws = []
        for P in points:
            num, den = P.signed % v, P.denominator % v
            if not (num and den):
                return None
            raws.append(num if den == 1 else num * pow(den, -1, v) % v)
        return raws

    def good_prime(self, points, v: int) -> bool:
        return self.reduce(points, v) is not None

    def group_order_mod(self, v: int) -> int:
        return v - 1

    def noncyclic_bound(self, v: int) -> int:
        """F_v* is cyclic."""
        return 1

    def order_mod(self, P: MulPoint, v: int) -> int:
        if not self.good_prime([P], v):
            raise ValueError(f"{v} is a bad prime for {P!r}")
        return numth.multiplicative_order(self.reduce([P], v)[0], v)

    def raw_orders(self, raws, v: int) -> list[int]:
        """The orders of reduced residues, over one factorization of v-1."""
        return numth.multiplicative_orders(raws, v)

    def raw_identity(self, v: int):
        return 1

    def raw_combine(self, a, b, v: int):
        return a * b % v

    def raw_scale(self, n: int, raw, v: int):
        return pow(raw, n, v)

    def raw_kills(self, n: int, raw, v: int) -> bool:
        """n * raw = 1 in F_v*."""
        return pow(raw, n, v) == 1

    def raw_exponent(self, raws, m: int, v: int) -> int:
        """The exponent of the subgroup raws generate (of one raw, its order):
        m, a multiple of it, stripped prime by prime while m/q kills every raw."""
        for q, _ in numth.factor(m).factors:
            while m % q == 0:
                e = m // q
                for raw in raws:  # a plain loop: all() on a generator costs a third more
                    if pow(raw, e, v) != 1:
                        break
                else:
                    m = e
                    continue
                break
        return m

    def dlog_mod(self, P: MulPoint, Q: MulPoint, v: int) -> tuple[int | None, int]:
        """(e, t): t = ord_v P, and e the least e >= 0 with e*P = Q (mod v),
        or None when Q is outside <P>."""
        t, raws = self.order_mod(P, v), self.reduce([P, Q], v)
        if raws is None:
            raise ValueError(f"{v} is a bad prime for {Q!r}")
        return numth.bsgs_dlog(*raws, v, t), t

    def encode(self) -> str:
        if not self.excluded:
            return "mul"
        return "S={" + ",".join(str(p) for p in sorted(self.excluded)) + "}"

    def parse_point(self, text: str) -> MulPoint:
        return MulPoint.parse(text)

    def __eq__(self, other):
        return isinstance(other, MultiplicativeGroup) and self.excluded == other.excluded

    def __hash__(self):
        return hash(("MultiplicativeGroup", self.excluded))

    def __repr__(self):
        return f"MultiplicativeGroup({sorted(self.excluded)})"


# ---------------------------------------------------------------------------
# Module-level operation surface


def _torsion_stability_test(expected: int, backend, raws, v: int):
    got = backend.raw_orders(raws, v)[0]
    if got == expected:
        return None
    return Witness(v=v, n=got, detail=f"ord_v T = {got} but ord T = {expected}")


def torsion_order(backend, T) -> int:
    """The order of a torsion point: the least k with k*T = 0, which is at
    most |torsion_elements()| (Lagrange). ValueError for a nontorsion point."""
    acc = T
    for k in range(1, len(backend.torsion_elements()) + 1):
        if backend.is_identity(acc):
            return k
        acc = backend.combine(acc, T)
    raise ValueError(f"{T!r} is not torsion")


def torsion_order_stability(backend, T, scan: PrimeRange, workers: int = 1) -> ConditionReport:
    """Check ord_v T = ord T at every good prime in the window.

    Violations are expected only at finitely many small primes; any hit is
    reported as a witness with n = the divergent local order.
    """
    expected = torsion_order(backend, T)
    chunks = split_chunks(numth.primes_in(scan), pool_size(workers))
    tasks = [(_torsion_stability_test, (expected,), backend, (T,), c) for c in chunks]
    return merge_scan_results("torsion_stability", scan, map_chunks(scan_chunk, tasks, workers))


def unit_relations(values) -> list[list[int]]:
    """Basis of the lattice {e : prod values[i]**e[i] == 1} of a list of
    nonzero rationals, the sign included.

    The integer kernel of the prime-exponent matrix holds the vectors whose
    product is +1 or -1; the product is -1 exactly when the exponents on the
    negative entries have an odd sum. The +1 vectors have index at most 2 in
    that kernel, so they are spanned by the even kernel vectors, each odd one
    minus the first odd one (the pivot), and twice the pivot.
    """
    values = [Fraction(x) for x in values]
    if any(x == 0 for x in values):
        raise ValueError("0 is not a point of the multiplicative group")
    parts = [(numth.factor(abs(x.numerator)), numth.factor(x.denominator)) for x in values]
    primes = sorted({p for pair in parts for f in pair for p in f.primes})
    rows = [[num.exponent_of(p) - den.exponent_of(p) for num, den in parts] for p in primes]
    kernel = numth.integer_kernel(rows, len(values))

    def odd(vec) -> bool:
        return sum(e for x, e in zip(values, vec) if x < 0) % 2 == 1

    evens = [b for b in kernel if not odd(b)]
    odds = [b for b in kernel if odd(b)]
    if not odds:
        return evens
    pivot = odds[0]
    return evens + [[u - w for u, w in zip(b, pivot)] for b in odds[1:]] + [[2 * u for u in pivot]]


def multiplicative_independence(points) -> tuple[int, ...] | None:
    """None when the rationals are multiplicatively independent, else a
    nonzero integer vector (e_1, ..., e_t) with prod x_i**e_i == 1: the first
    vector of `unit_relations`, its first nonzero entry made positive."""
    values = [P.value if isinstance(P, MulPoint) else Fraction(P) for P in points]
    basis = unit_relations(values)
    if not basis:
        return None
    rel = basis[0]
    if next(c for c in rel if c) < 0:
        rel = [-c for c in rel]
    assert math.prod(x**e for x, e in zip(values, rel)) == 1, "relation failed re-verification"
    return tuple(rel)


def bounded_combinations(backend, points, bound: int):
    """Yield (vec, sum vec_i * P_i) for every vec in [-bound, bound]^s, in
    itertools.product order, from one table of multiples per point."""
    tables = []
    for P in points:
        multiples = [backend.identity()]
        for _ in range(bound):
            multiples.append(backend.combine(multiples[-1], P))
        negatives = [backend.scale(-1, M) for M in reversed(multiples[1:])]
        tables.append(list(zip(range(-bound, bound + 1), negatives + multiples)))

    def extend(vec, acc):
        if len(vec) == len(tables):
            yield vec, acc
            return
        for k, M in tables[len(vec)]:
            yield from extend(vec + (k,), backend.combine(acc, M))

    return extend((), backend.identity())


def subgroup_closure_mod(backend, raw_gens, v: int) -> set:
    """All elements of the reduced group generated by reduced generators.

    Built coset by coset; the result size always divides the group order.
    """
    closure = {backend.raw_identity(v)}
    for g in raw_gens:
        if g in closure:
            continue
        # Smallest k >= 1 with k*g already inside the current closure.
        k = 1
        acc = g
        while acc not in closure:
            k += 1
            acc = backend.raw_combine(acc, g, v)
        cosets = set(closure)
        step = backend.raw_identity(v)
        for _ in range(1, k):
            step = backend.raw_combine(step, g, v)
            cosets.update(backend.raw_combine(h, step, v) for h in closure)
        closure = cosets
    return closure
