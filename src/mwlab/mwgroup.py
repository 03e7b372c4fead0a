"""Mordell-Weil type groups over Q with reduction maps at good primes.

Two backends share one surface: the multiplicative group Q* (optionally with
an excluded prime set S, the S-unit view) and elliptic curves over Q in long
Weierstrass form. Both expose reduction at a prime, exact orders mod v,
torsion, and group arithmetic written additively (combine / invert / scale).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from . import numth
from ._parallel import BAD_PRIME, map_chunks, pool_size, scan_chunk, split_chunks
from .numth import PrimeRange
from .reports import ConditionReport, Witness, merge_scan_results


# ---------------------------------------------------------------------------
# Points


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


class EcPoint:
    """Affine rational point or the identity marker (x = y = None)."""

    __slots__ = ("x", "y")

    def __init__(self, x=None, y=None):
        if (x is None) != (y is None):
            raise ValueError("both coordinates or neither")
        # Coerce to exact rationals; int coordinates would otherwise leak
        # float division into the group law.
        self.x = x if x is None or isinstance(x, Fraction) else Fraction(x)
        self.y = y if y is None or isinstance(y, Fraction) else Fraction(y)

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def encode(self) -> str:
        if self.is_identity:
            return "O"
        return f"({self.x},{self.y})"

    @classmethod
    def parse(cls, text: str) -> "EcPoint":
        t = text.strip()
        if t in ("O", "o", "0"):
            return EC_IDENTITY
        if not (t.startswith("(") and t.endswith(")")):
            raise ValueError(f"bad curve point {text!r}")
        parts = t[1:-1].split(",")
        if len(parts) != 2:
            raise ValueError(f"bad curve point {text!r}")
        try:
            return cls(Fraction(parts[0].strip()), Fraction(parts[1].strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad curve point {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, EcPoint) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"EcPoint({self.encode()})"


EC_IDENTITY = EcPoint(None, None)


def _order_key(P: EcPoint):
    return (0,) if P.is_identity else (1, P.x, P.y)


# ---------------------------------------------------------------------------
# Curves


class WeierstrassCurve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 with integer coefficients."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "discriminant", "short_model")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int):
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        # Stored: good_prime reads it at every prime of a scan.
        b2, b4, b6, b8 = self.b_invariants
        self.discriminant = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if self.discriminant == 0:
            raise ValueError("singular curve (discriminant 0)")
        # (3*b2, A, B): X = 36x + 3*b2, Y = 108*(2y + a1*x + a3) maps the
        # curve onto Y^2 = X^3 + A*X + B, with A = -27*c4 and B = -54*c6.
        c4, c6 = b2 * b2 - 24 * b4, -b2**3 + 36 * b2 * b4 - 216 * b6
        self.short_model = (3 * b2, -27 * c4, -54 * c6)

    @property
    def coefficients(self) -> tuple[int, int, int, int, int]:
        return self.a1, self.a2, self.a3, self.a4, self.a6

    @property
    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def contains(self, P: EcPoint) -> bool:
        """The equation at x = X/u, y = Y/w, multiplied by u^3 w^2, in integers."""
        if P.is_identity:
            return True
        X, u, Y, w = P.x.numerator, P.x.denominator, P.y.numerator, P.y.denominator
        uu = u * u
        lhs = uu * Y * (Y * u + (self.a1 * X + self.a3 * u) * w)
        return lhs == w * w * (X * (X * (X + self.a2 * u) + self.a4 * uu) + self.a6 * uu * u)

    def point(self, x, y) -> EcPoint:
        P = EcPoint(Fraction(x), Fraction(y))
        if not self.contains(P):
            raise ValueError(f"({x},{y}) is not on {self.encode()}")
        return P

    def neg(self, P: EcPoint) -> EcPoint:
        if P.is_identity:
            return P
        return EcPoint(P.x, -P.y - self.a1 * P.x - self.a3)

    def add(self, P: EcPoint, Q: EcPoint) -> EcPoint:
        """Chord-tangent group law in exact rational arithmetic."""
        if P.is_identity:
            return Q
        if Q.is_identity:
            return P
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        if x1 == x2 and y2 == -y1 - a1 * x1 - a3:
            return EC_IDENTITY
        if x1 == x2:
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (
                2 * y1 + a1 * x1 + a3
            )
        else:
            lam = (y2 - y1) / (x2 - x1)
        nu = y1 - lam * x1
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        y3 = -(lam + a1) * x3 - nu - a3
        return EcPoint(x3, y3)

    def mul(self, n: int, P: EcPoint) -> EcPoint:
        """n*P by double-and-add; n may be negative or zero."""
        if n < 0:
            return self.mul(-n, self.neg(P))
        acc = EC_IDENTITY
        addend = P
        while n:
            if n & 1:
                acc = self.add(acc, addend)
            addend = self.add(addend, addend)
            n >>= 1
        return acc

    def encode(self) -> str:
        return f"ec:{self.a1},{self.a2},{self.a3},{self.a4},{self.a6}"

    def __eq__(self, other):
        return isinstance(other, WeierstrassCurve) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"WeierstrassCurve({self.encode()})"

    @classmethod
    def parse(cls, text: str) -> "WeierstrassCurve":
        t = text.strip()
        if not t.startswith("ec:"):
            raise ValueError(f"bad curve encoding {text!r}")
        parts = t[3:].split(",")
        if len(parts) != 5:
            raise ValueError(f"bad curve encoding {text!r} (need 5 coefficients)")
        try:
            coefficients = [int(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"bad curve encoding {text!r}") from exc
        return cls(*coefficients)


# Modular group law on raw points: None is the identity, otherwise (x, y) ints.


def _ec_add_mod(curve: WeierstrassCurve, P, Q, v: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    a1, a2, a3, a4 = curve.a1, curve.a2, curve.a3, curve.a4
    if x1 == x2 and (y1 + y2 + a1 * x1 + a3) % v == 0:
        return None
    if x1 == x2:
        num = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) % v
        den = (2 * y1 + a1 * x1 + a3) % v
    else:
        num = (y2 - y1) % v
        den = (x2 - x1) % v
    lam = num * pow(den, -1, v) % v
    nu = (y1 - lam * x1) % v
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % v
    y3 = (-(lam + a1) * x3 - nu - a3) % v
    return (x3, y3)


def _ec_neg_mod(curve: WeierstrassCurve, P, v: int):
    if P is None:
        return None
    x, y = P
    return (x, (-y - curve.a1 * x - curve.a3) % v)


def _ec_mul_affine(curve: WeierstrassCurve, n: int, P, v: int):
    """n*P by affine double-and-add, one inversion per group operation: the
    literal multiple of the witness re-checks, and every multiple at v < 5."""
    if n < 0:
        return _ec_mul_affine(curve, -n, _ec_neg_mod(curve, P, v), v)
    acc = None
    addend = P
    while n:
        if n & 1:
            acc = _ec_add_mod(curve, acc, addend, v)
        addend = _ec_add_mod(curve, addend, addend, v)
        n >>= 1
    return acc


def _to_short(curve: WeierstrassCurve, P, v: int):
    """A raw point on the short model Y^2 = X^3 - 27*c4*X - 54*c6, by
    X = 36x + 3*b2, Y = 108*(2y + a1*x + a3): an isomorphism for v >= 5."""
    if P is None:
        return None
    return (36 * P[0] + curve.short_model[0]) % v, 108 * (2 * P[1] + curve.a1 * P[0] + curve.a3) % v


def _ec_jacobian(a: int, n: int, P, v: int):
    """n*P (n >= 0, v >= 5) on a short model Y^2 = X^3 + a*X + b by
    left-to-right double-and-add, no inversion: Jacobian (X, Y, Z) for
    (X/Z^2, Y/Z^3), Z = 0 at O; P is the affine addend."""
    if P is None or n == 0:
        return 0, 1, 0
    x, y = P
    X, Y, Z = x, y, 1
    for bit in bin(n)[3:]:
        # Doubling; Z = 2*Y*Z reads O at O and at a point of order 2.
        YY = Y * Y % v
        S = 4 * X * YY % v
        ZZ = Z * Z % v
        M = (3 * X * X + a * ZZ * ZZ) % v
        Z = 2 * Y * Z % v
        X = (M * M - 2 * S) % v
        Y = (M * (S - X) - 8 * YY * YY) % v
        if bit == "0":
            continue
        if Z == 0:  # O + P
            X, Y, Z = x, y, 1
            continue
        ZZ = Z * Z % v
        H = (x * ZZ - X) % v
        r = (y * ZZ * Z - Y) % v
        if H == 0:  # the accumulator is -P (r != 0), or P and the sum is 2P
            X, Y, Z = (X, Y, 0) if r else _ec_jacobian(a, 2, P, v)
            continue
        HH = H * H % v
        HHH = H * HH % v
        V = X * HH % v
        X = (r * r - HHH - 2 * V) % v
        Y = (r * (V - X) - Y * HHH) % v
        Z = Z * H % v
    return X, Y, Z


def _short_add(a: int, P, Q, v: int):
    """P + Q on a short model Y^2 = X^3 + a*X + b over F_v, v >= 5."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % v == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, v) % v
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, v) % v
    x3 = (lam * lam - x1 - x2) % v
    return x3, (lam * (x1 - x3) - y1) % v


def _short_mul(a: int, n: int, P, v: int):
    """n*P: the Jacobian ladder and one inversion back."""
    if n < 0 and P:
        n, P = -n, (P[0], -P[1] % v)
    X, Y, Z = _ec_jacobian(a, n, P, v)
    if Z == 0:
        return None
    t = pow(Z, -1, v)
    return X * t * t % v, Y * t * t * t % v


def _ec_walk(a: int, P, target, k0: int, k1: int, limit: int, v: int) -> list[int]:
    """The k in [k0, k1] with k*P = target on a short model, ascending, at
    most `limit` of them: the one baby-step giant-step on E(F_v).

    Baby steps j*P, j = 1..s, are keyed by x, so -j*P matches too and the
    giant stride is (2s+1)*P. A window of 2s+1 k holds two hits only when
    ord P <= 2s+1, which a baby step at y = 0 (ord P = 2j), a repeated x
    (j*P = -i*P, ord P = i+j) or the stride at O (ord P = 2s+1) shows; then
    the table holds <P> up to sign, and the hits are one class mod ord P.
    """
    if P is None:
        return list(range(k0, k1 + 1)[:limit]) if target is None else []
    s = math.isqrt((k1 - k0 + 1) // 2) + 1
    baby: dict = {None: (0, None)}  # x -> (j, y); O is j = 0
    R = x, y = P
    for j in range(1, s + 1):
        xr, yr = R
        i = baby.setdefault(xr, (j, yr))[0]
        if i < j or yr == 0:
            order = i + j
            break
        lam = ((yr - y) * pow(xr - x, -1, v) if j > 1 else (3 * x * x + a) * pow(2 * y, -1, v)) % v
        x3 = (lam * lam - xr - x) % v
        R = x3, (lam * (x - x3) - y) % v
    else:
        G = _short_add(a, R, (xr, yr), v)  # (s+1)*P + s*P
        order = None if G else 2 * s + 1
    if order:
        key = target and target[0]
        if key not in baby:
            return []
        j, yj = baby[key]
        e = order - j if target and target[1] != yj else j
        return list(range(k0 + (e - k0) % order, k1 + 1, order)[:limit])
    G = G[0], -G[1] % v  # the giant stride, -(2s+1)*P
    c = k0 + s
    T = _short_add(a, target, _short_mul(a, -c, P, v), v)  # target - c*P
    hits = []
    while c - s <= k1:
        key = T and T[0]
        if key in baby:
            j, yj = baby[key]
            k = c - j if T and T[1] != yj else c + j
            if k > k1:
                break
            hits.append(k)
            if len(hits) == limit:
                break
        c += 2 * s + 1
        T = _short_add(a, T, G, v)
    return hits


# Primes below _MESTRE_FROM are counted by enumeration, which is cheaper
# there. Shanks-Mestre gives up after _MESTRE_POINTS points.
_MESTRE_FROM = 67
_MESTRE_POINTS = 8


def _scaled_points(A: int, B: int, v: int, chi: int):
    """(a, P) for X = 0, 1, ... whose f = X^3 + A*X + B has Legendre symbol
    chi: P = (f*X, f^2) lies on Y^2 = X^3 + a*X + B*f^3 with a = A*f^2,
    which is E for a square f (chi = 1) and its quadratic twist for a
    non-square f (chi = v - 1)."""
    for X in range(v):
        f = (X * X * X + A * X + B) % v
        if f and pow(f, (v - 1) // 2, v) == chi:
            yield A * f * f % v, (f * X % v, f * f % v)


def _shanks_mestre_order(curve: WeierstrassCurve, v: int) -> int | None:
    """|E(F_v)| from point orders in the Hasse interval, or None when the
    points tried leave more than one candidate (and at v < 5).

    N lies in [v+1-floor(2 sqrt v), v+1+floor(2 sqrt v)], and the quadratic
    twist of E has 2v+2-N points. The candidates are r + k*M there. A point
    P of E has N*P = O, one of the twist (2v+2-N)*P = O, so the k it allows
    are one class mod ord(M*P), the gap of its first two hits; one hit pins
    N. Points come from `_scaled_points`, on E and its twist in turn (a side
    out of points adds nothing); v must be good.
    """
    if v < 5:
        return None
    _, A, B = curve.short_model
    sides = ((_scaled_points(A, B, v, 1), 0), (_scaled_points(A, B, v, v - 1), 2 * v + 2))
    lo, hi = v + 1 - math.isqrt(4 * v), v + 1 + math.isqrt(4 * v)
    r, M = 0, 1
    for i in range(_MESTRE_POINTS):
        points, shift = sides[i % 2]
        a, P = next(points, (0, None))
        # N = r + k*M: on E, k*M*P = -r*P; on the twist, k*M*P = (2v+2-r)*P.
        target = _short_mul(a, shift - r, P, v)
        hits = _ec_walk(a, _short_mul(a, M, P, v), target, -((r - lo) // M), (hi - r) // M, 2, v)
        if len(hits) < 2:
            return r + hits[0] * M if hits else None
        r, M = r + hits[0] * M, M * (hits[1] - hits[0])
        if r + M > hi:
            return r
    return None


@lru_cache(maxsize=4096)
def _curve_order_mod(coeffs: tuple[int, int, int, int, int], v: int) -> int:
    """|E(F_v)| at a prime of good reduction: Shanks-Mestre, falling back to
    enumeration at small v and wherever the point orders stay ambiguous."""
    if v >= _MESTRE_FROM:
        order = _shanks_mestre_order(WeierstrassCurve(*coeffs), v)
        if order is not None:
            return order
    return _count_points_naive(coeffs, v)


def _count_points_naive(coeffs: tuple[int, int, int, int, int], v: int) -> int:
    """|E(F_v)| by direct enumeration (quadratic-residue table for odd v)."""
    a1, a2, a3, a4, a6 = coeffs
    if v == 2:
        count = 1
        for x in range(2):
            for y in range(2):
                lhs = (y * y + a1 * x * y + a3 * y) % 2
                rhs = (x**3 + a2 * x * x + a4 * x + a6) % 2
                if lhs == rhs:
                    count += 1
        return count
    squares = bytearray(v)
    for t in range((v + 1) // 2):
        squares[t * t % v] = 1
    count = 1
    for x in range(v):
        # Complete the square: (2y + a1 x + a3)^2 = 4*rhs + (a1 x + a3)^2.
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % v
        u = (a1 * x + a3) % v
        d = (4 * rhs + u * u) % v
        if d == 0:
            count += 1
        elif squares[d]:
            count += 2
    return count


# ---------------------------------------------------------------------------
# Backends


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

    def invert(self, P: MulPoint) -> MulPoint:
        return MulPoint(1 / P.value)

    def scale(self, n: int, P: MulPoint) -> MulPoint:
        return MulPoint(P.value**n)

    def torsion_elements(self) -> tuple[MulPoint, ...]:
        return (MulPoint(1), MulPoint(-1))

    def is_torsion(self, P: MulPoint) -> bool:
        return abs(P.value) == 1

    def height_bound(self, P: MulPoint, Q: MulPoint) -> int:
        """Bound on |d| for Q = d*P with P nontorsion, from the sizes of the
        numerators and denominators."""
        top = max(Q.numerator, Q.denominator)
        base = min(x for x in (P.numerator, P.denominator) if x > 1)
        return math.ceil(math.log(top) / math.log(base)) + 1 if top > 1 else 1

    def torsion_order(self, T: MulPoint) -> int:
        if T.value == 1:
            return 1
        if T.value == -1:
            return 2
        raise ValueError(f"{T!r} is not torsion in Q*")

    def good_prime(self, points, v: int) -> bool:
        if v in self.excluded:
            return False
        for P in points:
            if P.numerator % v == 0 or P.denominator % v == 0:
                return False
        return True

    def reduce_raw(self, P: MulPoint, v: int) -> int:
        num = P.signed % v
        den = P.denominator % v
        if num == 0 or den == 0:
            raise ValueError(f"{v} is a bad prime for {P!r}")
        return num if den == 1 else num * pow(den, -1, v) % v

    def group_order_mod(self, v: int) -> int:
        return v - 1

    def noncyclic_bound(self, v: int) -> int:
        """F_v* is cyclic."""
        return 1

    def order_mod(self, P: MulPoint, v: int) -> int:
        if not self.good_prime([P], v):
            raise ValueError(f"{v} is a bad prime for {P!r}")
        return self.raw_order(self.reduce_raw(P, v), v)

    def raw_order(self, raw, v: int) -> int:
        """Exact order of a reduced residue in F_v*."""
        return numth.multiplicative_order(raw, v)

    def raw_identity(self, v: int):
        return 1

    def raw_is_identity(self, raw, v: int) -> bool:
        return raw == 1

    def raw_combine(self, a, b, v: int):
        return a * b % v

    def raw_scale(self, n: int, raw, v: int):
        return pow(raw, n, v)

    def raw_kills(self, n: int, raw, v: int) -> bool:
        """n * raw = 1 in F_v*."""
        return pow(raw, n, v) == 1

    def dlog_mod(self, P: MulPoint, Q: MulPoint, v: int) -> int | None:
        """Least e >= 0 with e*P = Q (mod v), or None when Q is outside <P>."""
        t = self.order_mod(P, v)
        return numth.bsgs_dlog(self.reduce_raw(P, v), self.reduce_raw(Q, v), v, t)

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


class EllipticGroup:
    """E(Q) for a fixed long Weierstrass curve with integer coefficients."""

    kind = "elliptic"
    default_scan = (3, 2_000)

    def __init__(self, curve: WeierstrassCurve):
        self.curve = curve

    def identity(self) -> EcPoint:
        return EC_IDENTITY

    def is_identity(self, P: EcPoint) -> bool:
        return P.is_identity

    def combine(self, P: EcPoint, Q: EcPoint) -> EcPoint:
        return self.curve.add(P, Q)

    def invert(self, P: EcPoint) -> EcPoint:
        return self.curve.neg(P)

    def scale(self, n: int, P: EcPoint) -> EcPoint:
        return self.curve.mul(n, P)

    def good_prime(self, points, v: int) -> bool:
        if self.curve.discriminant % v == 0:
            return False
        for P in points:
            if P.is_identity:
                continue
            if P.x.denominator % v == 0 or P.y.denominator % v == 0:
                return False
        return True

    def reduce_raw(self, P: EcPoint, v: int):
        if P.is_identity:
            return None
        x = P.x.numerator % v * pow(P.x.denominator % v, -1, v) % v
        y = P.y.numerator % v * pow(P.y.denominator % v, -1, v) % v
        return (x, y)

    def group_order_mod(self, v: int) -> int:
        if self.curve.discriminant % v == 0:
            raise ValueError(f"{v} divides the discriminant")
        order = _curve_order_mod(self.curve.coefficients, v)
        if abs(order - (v + 1)) > math.isqrt(4 * v):
            raise ArithmeticError(f"point count {order} violates the Hasse bound at {v}")
        return order

    def noncyclic_bound(self, v: int) -> int:
        """A multiple of n1, where E(F_v) is Z/n1 x Z/n2 with n1 | n2: n1
        divides v-1 (the Weil pairing), n1^2 divides N = |E(F_v)|, and n1 is
        even only when all of E[2] is rational, which makes the discriminant
        a square mod v (an Euler criterion, read only when 2 | N)."""
        return math.gcd(v - 1, math.prod(
            l ** (e // 2) for l, e in numth.factor(self.group_order_mod(v)).factors
            if l > 2 or pow(self.curve.discriminant, (v - 1) // 2, v) == 1))

    def order_mod(self, P: EcPoint, v: int) -> int:
        if not self.good_prime([P], v):
            raise ValueError(f"{v} is a bad prime for {P!r}")
        return self.raw_order(self.reduce_raw(P, v), v)

    def raw_order(self, raw, v: int) -> int:
        """Exact order of a reduced point, stripped from |E(F_v)|."""
        if raw is None:
            return 1
        return exponent_from_multiple(self, (raw,), self.group_order_mod(v), v)

    def raw_identity(self, v: int):
        return None

    def raw_is_identity(self, raw, v: int) -> bool:
        return raw is None

    def raw_combine(self, a, b, v: int):
        return _ec_add_mod(self.curve, a, b, v)

    def raw_scale(self, n: int, raw, v: int):
        """n * raw by affine double-and-add, the witness re-checks' multiple."""
        return _ec_mul_affine(self.curve, n, raw, v)

    def raw_kills(self, n: int, raw, v: int) -> bool:
        """n * raw = O, read off the Jacobian ladder's Z without an
        inversion; affine at v < 5, where the short model is not isomorphic."""
        if v < 5:
            return _ec_mul_affine(self.curve, n, raw, v) is None
        a = self.curve.short_model[1] % v
        return _ec_jacobian(a, abs(n), _to_short(self.curve, raw, v), v)[2] == 0

    def dlog_mod(self, P: EcPoint, Q: EcPoint, v: int) -> int | None:
        """Least e >= 0 with e*P = Q (mod v), or None when Q is outside <P>."""
        c, t = self.curve, self.order_mod(P, v)
        p, q = self.reduce_raw(P, v), self.reduce_raw(Q, v)
        if v < 5:  # no short model; E(F_v) has at most 9 points
            return next((e for e in range(t) if _ec_mul_affine(c, e, p, v) == q), None)
        hits = _ec_walk(c.short_model[1] % v, _to_short(c, p, v), _to_short(c, q, v), 0, t - 1, 1, v)
        return hits[0] if hits else None

    # -- torsion ------------------------------------------------------------

    def torsion_elements(self) -> tuple[EcPoint, ...]:
        """All rational torsion points, O first, then by (x, y).

        |E(Q)_tors| divides gcd |E(F_v)| over the first 8 odd good primes
        (torsion injects into E(F_v) for odd good v, Silverman AEC VII.3.1;
        at v = 2 it need not: 15a with Z/8 has |E(F_2)| = 4). A point of
        order n <= 12 (Mazur) has on Y^2 = F(X) = X^3 + A*X + B an integral
        X (Nagell-Lutz), a root of F (n = 2) or of g_n, which are simple mod
        a good v >= 13: lifted v-adically, X is kept if F(X) is a square and
        n kills the point.
        """
        return self._torsion

    def is_torsion(self, P: EcPoint) -> bool:
        return P in self._torsion

    def height_bound(self, P: EcPoint, Q: EcPoint) -> int:
        """Heuristic bound on |d| for Q = d*P from the naive heights of the
        x-coordinates; exponent recovery grows it when a lift fails."""
        hq = max(abs(Q.x.numerator).bit_length(), Q.x.denominator.bit_length())
        hp = max(abs(P.x.numerator).bit_length(), P.x.denominator.bit_length(), 1)
        return 8 + 4 * math.isqrt((hq + 1) // hp + 1)

    def torsion_order(self, T: EcPoint) -> int:
        acc = T
        for k in range(1, 13):
            if acc.is_identity:
                return k
            acc = self.curve.add(acc, T)
        raise ValueError(f"{T!r} is not torsion (no order up to 12)")

    @cached_property
    def _torsion(self) -> tuple[EcPoint, ...]:
        """`torsion_elements`, computed once per group."""
        good = []
        v = 3
        while len(good) < 8:
            if numth.is_prime(v) and self.curve.discriminant % v != 0:
                good.append(v)
            v += 1
        bound = math.gcd(*(self.group_order_mod(v) for v in good))
        if bound == 1:
            return (EC_IDENTITY,)
        shift, A, B = self.curve.short_model
        R = math.isqrt(abs(4 * A**3 + 27 * B * B) + abs(A) + abs(B)) + 1  # |X| < R, as Y = 0 or Y^2 | 4A^3 + 27B^2
        v = next(p for p in good if p >= 13)  # at most 4 of the 8 lie below 13
        torsion = {EC_IDENTITY}
        for n in [n for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12) if bound % n == 0]:
            for r in [r for r in range(v) if _division_value(n, r, A, B, v) == 0]:
                # g(r + t*q) = g(r) + t*q*g'(r) mod q*v; c = 1/g'(r) mod v, a unit at a simple root.
                c = pow((_division_value(n, r + v, A, B, v * v) - _division_value(n, r, A, B, v * v)) // v, -1, v)
                q = v
                while q <= 2 * R:
                    r = (r - _division_value(n, r, A, B, q * v) // q * c * q) % (q * v)
                    q *= v
                X = r if 2 * r < q else r - q
                F = X**3 + A * X + B
                Y = math.isqrt(max(F, 0))
                if Y * Y != F:
                    continue
                x = Fraction(X - shift, 36)
                for y in (Y, -Y):
                    P = EcPoint(x, Fraction(Fraction(y, 108) - self.curve.a1 * x - self.curve.a3, 2))
                    if self.curve.mul(n, P).is_identity:
                        torsion.add(P)
        return tuple(sorted(torsion, key=_order_key))

    def encode(self) -> str:
        return self.curve.encode()

    def parse_point(self, text: str) -> EcPoint:
        P = EcPoint.parse(text)
        if not P.is_identity and not self.curve.contains(P):
            raise ValueError(f"{text!r} is not on {self.curve.encode()}")
        return P

    def __eq__(self, other):
        return isinstance(other, EllipticGroup) and self.curve == other.curve

    def __hash__(self):
        return hash(("EllipticGroup", self.curve))

    def __repr__(self):
        return f"EllipticGroup({self.curve.encode()!r})"


def _division_value(n: int, x: int, A: int, B: int, m: int) -> int:
    """F(x) at n = 2, else g_n(x), mod an odd m, on Y^2 = F(X) = X^3 + A*X + B:
    g_n is psi_n, over Y for even n, by its recurrence with F^2 for Y^4 (AEC Ex. 3.7)."""
    F = (x**3 + A * x + B) % m
    if n == 2:
        return F
    g = [0, 1, 2, (3 * x**4 + 6 * A * x * x + 12 * B * x - A * A) % m,
         4 * (x**6 + 5 * A * x**4 + 20 * B * x**3 - 5 * A * A * x * x - 4 * A * B * x - 8 * B * B - A**3) % m]
    for k in range(5, n + 1):
        h = k // 2
        if k % 2:
            s, t = g[h + 2] * g[h] ** 3, g[h - 1] * g[h + 1] ** 3
            g.append((s * F * F - t if h % 2 == 0 else s - t * F * F) % m)
        else:
            g.append(g[h] * (g[h + 2] * g[h - 1] ** 2 - g[h - 2] * g[h + 1] ** 2) * ((m + 1) // 2) % m)
    return g[n]


# ---------------------------------------------------------------------------
# Module-level operation surface


def _torsion_stability_test(backend, T, expected: int, v: int):
    if not backend.good_prime([T], v):
        return BAD_PRIME
    got = backend.order_mod(T, v)
    if got == expected:
        return None
    return Witness(v=v, n=got, detail=f"ord_v T = {got} but ord T = {expected}")


def torsion_order_stability(backend, T, scan: PrimeRange, workers: int = 1) -> ConditionReport:
    """Check ord_v T = ord T at every good prime in the window.

    Violations are expected only at finitely many small primes; any hit is
    reported as a witness with n = the divergent local order.
    """
    expected = backend.torsion_order(T)
    primes = numth.primes_in(scan)
    chunks = split_chunks(primes, pool_size(workers))
    results = map_chunks(
        scan_chunk, [(_torsion_stability_test, (backend, T, expected), c) for c in chunks], workers
    )
    return merge_scan_results("torsion_stability", scan, results)


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


def elliptic_independence_check(backend: EllipticGroup, points, bound: int = 10) -> bool:
    """Exact cross-check of an independence assertion.

    Independence of elliptic points is accepted as a user assertion (no
    height-pairing machinery here); this check hunts for small integer
    relations sum n_i * P_i = identity with |n_i| <= bound in exact
    arithmetic. True means no such relation exists; False means the points
    are dependent.
    """
    return not any(
        any(vec) and backend.is_identity(acc)
        for vec, acc in bounded_combinations(backend, points, bound)
    )


def bounded_combinations(backend, points, bound: int):
    """Yield (vec, sum vec_i * P_i) for every vec in [-bound, bound]^s, in
    itertools.product order, from one table of multiples per point."""
    tables = []
    for P in points:
        multiples = [backend.identity()]
        for _ in range(bound):
            multiples.append(backend.combine(multiples[-1], P))
        negatives = [backend.invert(M) for M in reversed(multiples[1:])]
        tables.append(list(zip(range(-bound, bound + 1), negatives + multiples)))

    def extend(vec, acc):
        if len(vec) == len(tables):
            yield vec, acc
            return
        for k, M in tables[len(vec)]:
            yield from extend(vec + (k,), backend.combine(acc, M))

    return extend((), backend.identity())


def exponent_from_multiple(backend, raws, m: int, v: int) -> int:
    """The exponent of the subgroup the reduced points raws generate (of one
    raw, its order): m, a multiple of it, stripped prime by prime while
    (m/q) * raw = 0 for every raw, without computing any one order."""
    kills = backend.raw_kills
    for q, _ in numth.factor(m).factors:
        while m % q == 0:
            for raw in raws:
                if not kills(m // q, raw, v):
                    break
            else:
                m //= q
                continue
            break
    return m


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
