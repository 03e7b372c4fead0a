"""Linear-dependence detection through reduction maps: per-prime membership
tests, a scanning detector, and exact conclusion certificates.

The multiplicative backend has a genuine oracle (the signed lattice of
integer relations, `mwgroup.unit_relations`); the elliptic backend certifies by
bounded coefficient search and reports exhaustion as inconclusive rather
than refuting.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache

from . import numth
from ._parallel import map_chunks, pool_size, scan_chunk, split_chunks
from .mwgroup import bounded_combinations, subgroup_closure_mod, unit_relations
from .numth import PrimeRange
from .reports import ConditionReport, RelationCertificate, Witness, merge_scan_results
from .support import verify_witness


class SubgroupSpec(namedtuple("SubgroupSpec", "generators backend")):
    """A finitely generated subgroup, given by its generator points
    (nontorsion basis plus any torsion generators, in one list)."""

    __slots__ = ()

    def __new__(cls, generators, backend):
        return super().__new__(cls, tuple(generators), backend)


class DetectionResult(
    namedtuple("DetectionResult", "report certificate certified_index note")
):
    """Scan report plus the conclusion certificate the scan earned (if any)."""

    __slots__ = ()


class RecoveryResult(namedtuple("RecoveryResult", "d detail status")):
    """Recovered exponent d with Q = d*P, or d = None with the reason.

    status is "found" (d is set), "refuted" (a missing log, a CRT conflict,
    or a lift that keeps failing exact verification) or "inconclusive" (the
    scan ran out of primes first).
    """

    __slots__ = ()


def member_mod(backend, raw, raw_gens, v: int) -> bool:
    """Is the reduced point raw in the subgroup H of the reduced group G
    generated by raw_gens?

    raw lies in H exactly when, for every prime l | ord raw, its l-part lies
    in the l-part of H. Where the l-Sylow subgroup of G is cyclic, its
    subgroups are ordered by size, so the l-valuations of the orders decide;
    together over all l that is ord raw dividing the exponent m of H (the
    lcm of the generator orders), i.e. m * raw = 0. The l-Sylow subgroup can
    be non-cyclic only when l divides the backend's `noncyclic_bound`. For
    such an l | m, one kill test by m with its l-part removed says whether
    the l-part of raw is 0; only where it is not are the l-parts, scaled by
    c = N / l^e (N = |G|, e = v_l(N), an automorphism of the l-Sylow
    subgroup), closed explicitly. ord raw is never computed. An exponent m
    equal to N makes G cyclic and H = G, so then raw is in H at once.
    """
    n = backend.group_order_mod(v)
    m = backend.raw_exponent(raw_gens, n, v)
    if m == n:
        return True
    if not backend.raw_kills(m, raw, v):
        return False
    bound = math.gcd(backend.noncyclic_bound(v), m)
    for l, _ in numth.factor(bound).factors if bound > 1 else ():
        le = l ** numth.factor(n).exponent_of(l)
        if backend.raw_kills(m // math.gcd(m, le), raw, v):
            continue
        c = n // le
        parts = [backend.raw_scale(c, g, v) for g in raw_gens]
        if backend.raw_scale(c, raw, v) not in subgroup_closure_mod(backend, parts, v):
            return False
    return True


def _detect_test(k, backend, raws, v):
    """raws are the k points P_i, then the generators."""
    raw_gens = raws[k:]
    for raw in raws[:k]:
        if member_mod(backend, raw, raw_gens, v):
            return None
    n = backend.raw_exponent(raw_gens, backend.group_order_mod(v), v)
    orders = backend.raw_orders(raws[:k], v)
    return Witness(v=v, n=n, detail=(
        f"no P_i lies in the reduced subgroup at {v}; n={n} kills every "
        f"generator mod {v} while ord_v(P_i)={orders}"))


def detect_dependence(Ps, subgroup: SubgroupSpec, scan: PrimeRange,
                      workers: int = 1, coeff_bound: int = 20) -> DetectionResult:
    """Scan the membership hypothesis, then try to certify the conclusion.

    Violated: some good v has every P_i outside the reduced subgroup (the
    witness carries n = lcm of reduced generator orders). Holds: an exact
    certificate alpha * P_i in the subgroup is attempted, via the exponent
    oracle (multiplicative) or bounded search (elliptic). An identity P_i,
    which lies in every subgroup, is certified with alpha = 1 and every
    lambda 0 before either is asked.
    """
    Ps = list(Ps)
    if not Ps:
        raise ValueError("detection needs at least one point")
    backend = subgroup.backend
    chunks = split_chunks(numth.primes_in(scan), pool_size(workers))
    points = (*Ps, *subgroup.generators)
    tasks = [(_detect_test, (len(Ps),), backend, points, c) for c in chunks]
    report = merge_scan_results("detect", scan, map_chunks(scan_chunk, tasks, workers))
    if report.verdict == "violated":
        return DetectionResult(report, None, None, None)
    if backend.kind == "multiplicative":
        certify = exact_membership_multiplicative
        note = "hypothesis holds on scan but the exact oracle refutes every point"
    else:
        def certify(P, subgroup):
            return _bounded_membership_search(P, subgroup, coeff_bound)
        note = f"inconclusive (elliptic bounded search exhausted at |coefficients| <= {coeff_bound})"
    for i, P in enumerate(Ps):
        if backend.is_identity(P):
            cert = RelationCertificate("membership", (1,) + (0,) * len(subgroup.generators))
        else:
            cert = certify(P, subgroup)
        if cert is not None:
            return DetectionResult(report, cert._replace(index=i), i, None)
    return DetectionResult(report, None, None, note)


def verify_detect_witness(Ps, subgroup: SubgroupSpec, v: int, n: int) -> bool:
    """Independent recomputation of a detect witness at (v, n); a bad prime raises ValueError."""
    backend, k = subgroup.backend, len(subgroup.generators)
    if backend.kind == "multiplicative":
        return verify_witness("detect", {"Ps": Ps, "Ls": subgroup.generators}, v, n, backend=backend)
    raws = backend.reduce([*subgroup.generators, *Ps], v)
    if raws is None:
        raise ValueError(f"{v} is a bad prime for these points")
    if any(backend.raw_scale(n, g, v) != backend.raw_identity(v) for g in raws[:k]):
        return False
    closure = subgroup_closure_mod(backend, raws[:k], v)
    return all(raw not in closure for raw in raws[k:])


# ---------------------------------------------------------------------------
# Exact oracle on the relation lattice (multiplicative backend)


def exact_membership_multiplicative(P, subgroup: SubgroupSpec) -> RelationCertificate | None:
    """Minimal alpha > 0 with P^alpha a nontrivial element of the subgroup,
    plus its expression in the generators; None when no power of P lands
    in the subgroup (other than the identity itself).

    A relation (e_1, ..., e_s, e) among L_1, ..., L_s, P from
    `unit_relations` says P^(-e) = prod L_j^e_j, so the least alpha is the
    gcd of the last coordinates of its basis. alpha with P^alpha = 1 is
    never certified: for nontorsion P it cannot occur, and for torsion P the
    interesting question is whether P itself (an odd power) is inside.
    """
    p_val = P.value
    gen_vals = [L.value for L in subgroup.generators]
    if p_val == 1:
        return None  # only trivial powers; nothing nontrivial to certify
    d, combo = 0, None
    for b in unit_relations([*gen_vals, p_val]):
        if b[-1] == 0:
            continue
        if combo is None:
            d, combo = b[-1], b
        else:
            d, x, y = numth.xgcd(d, b[-1])
            combo = [x * u + y * w for u, w in zip(combo, b)]
    if combo is None:
        return None
    if d > 0:
        combo = [-c for c in combo]  # make the exponent of P equal to -alpha
    alpha = abs(d)
    if abs(p_val) == 1 and alpha % 2 == 0:
        return None  # P^alpha would be the identity; not a real membership
    lambdas = combo[:-1]
    check = math.prod(g**l for g, l in zip(gen_vals, lambdas))
    assert check == p_val**alpha, "membership certificate failed re-verification"
    return RelationCertificate(kind="membership", coefficients=(alpha, *lambdas))


# ---------------------------------------------------------------------------
# Bounded elliptic search


# The bounded search walks the combinations on their reductions at the first
# good prime above this. Exact arithmetic decides every match, so it only
# sets how rarely an exact sum is spent on a match by chance.
_SCREEN_FROM = 1 << 31


class _AtPrime:
    """The backend's group law on reductions at one prime v, the three
    methods `bounded_combinations` calls."""

    def __init__(self, backend, v):
        self.backend, self.v = backend, v

    def identity(self):
        return self.backend.raw_identity(self.v)

    def combine(self, a, b):
        return self.backend.raw_combine(a, b, self.v)

    def scale(self, n, a):
        return self.backend.raw_scale(n, a, self.v)


def _bounded_membership_search(P, subgroup: SubgroupSpec, bound: int) -> RelationCertificate | None:
    """Search alpha in [1, bound], |lambda_j| <= bound for alpha*P = sum lambda_j L_j.

    The least such alpha wins, with the first lambda in product order. The
    walk over the combinations runs on reductions at one good prime v, with
    the targets alpha*P keyed by their reductions; an exact match matches
    mod v, so none is missed. A match with alpha = 1 is summed in exact
    arithmetic at once and ends the walk when it holds; the matches with
    alpha > 1 are summed only after the walk, by alpha and then in walk
    order, up to the first that holds. Exhaustion is inconclusive, never a
    refutation. Certificates with alpha*P = identity are not real
    memberships and are skipped.
    """
    backend = subgroup.backend
    generators = subgroup.generators
    if backend.is_identity(P):
        return None  # every alpha*P is the identity
    v = _SCREEN_FROM + 1
    while not numth.is_prime(v) or (raws := backend.reduce([P, *generators], v)) is None:
        v += 1
    law = _AtPrime(backend, v)
    rP, *raw_gens = raws
    targets: dict = {}  # reduction of alpha*P -> its alphas, ascending
    acc = law.identity()
    for alpha in range(1, bound + 1):
        acc = law.combine(acc, rP)
        targets.setdefault(acc, []).append(alpha)

    def matches():  # (alpha, lambda) in the order they are summed exactly
        later = []  # the matches with alpha > 1, in walk order
        for vec, acc in bounded_combinations(law, raw_gens, bound):
            for alpha in targets.get(acc, ()):
                if alpha > 1:
                    later.append((alpha, vec))
                else:
                    yield alpha, vec
        yield from sorted(later, key=lambda match: match[0])

    # Formed exactly only when a match first needs them: alpha ascends past
    # the alpha = 1 matches, so alpha*P is a running sum.
    multiples = [backend.identity()]  # alpha*P at index alpha
    term = cache(lambda j, k: backend.scale(k, generators[j]))  # k*L_j
    for alpha, vec in matches():
        while len(multiples) <= alpha:
            multiples.append(backend.combine(multiples[-1], P))
        if backend.is_identity(multiples[alpha]):
            continue
        total = backend.identity()
        for j, k in enumerate(vec):
            total = backend.combine(total, term(j, k))
        if total == multiples[alpha]:
            return RelationCertificate(kind="membership", coefficients=(alpha, *vec))
    return None


# ---------------------------------------------------------------------------
# Exponent recovery by CRT over reduced discrete logs


def recover_exponent(P, Q, backend, scan: PrimeRange) -> RecoveryResult:
    """Find the integer d with Q = d*P by combining discrete logs mod many
    primes, or report why none exists.

    At each good v the log of Q in <P mod v> pins d mod ord_v(P); logs are
    CRT-combined in ascending v until the modulus exceeds twice a height
    bound on |d|, then lifted to a signed integer and verified exactly.
    A missing log or a CRT conflict at some v refutes Q in <P>; running out
    of primes first is inconclusive.
    """
    if backend.is_identity(Q):
        return RecoveryResult(0, "Q is the identity, d = 0", "found")
    if P in backend.torsion_elements():
        raise ValueError("exponent recovery needs a nontorsion base point")
    height_bound = backend.height_bound(P, Q)
    residue, modulus = 0, 1
    logs: list[tuple[int, int, int]] = []
    failed_lifts = 0
    for v in numth.primes_in(scan):
        if backend.reduce([P, Q], v) is None:
            continue
        e, t = backend.dlog_mod(P, Q, v)
        if e is None:
            return RecoveryResult(
                None, f"Q is outside the cyclic group generated by P mod {v}", "refuted"
            )
        combined = numth.crt([(residue, modulus), (e, t)])
        if combined is None:
            culprit = next(
                (u for u, eu, tu in logs if numth.crt([(eu, tu), (e, t)]) is None),
                None,
            )
            where = (
                f"between primes {culprit} and {v}"
                if culprit is not None
                else f"at prime {v} against the accumulated congruence"
            )
            return RecoveryResult(
                None,
                f"discrete logs conflict {where}: "
                f"d = {e} (mod {t}) at {v} vs d = {residue} (mod {modulus})",
                "refuted",
            )
        residue, modulus = combined
        logs.append((v, e, t))
        if modulus > 2 * height_bound:
            d = residue if residue <= modulus // 2 else residue - modulus
            if backend.scale(d, P) == Q:
                return RecoveryResult(d, f"verified exactly with modulus {modulus}", "found")
            failed_lifts += 1
            if failed_lifts >= 3:
                return RecoveryResult(
                    None, f"lift d = {d} (mod {modulus}) fails exact verification", "refuted"
                )
            height_bound *= 4  # heuristic bound too small; keep scanning
    return RecoveryResult(
        None, f"scan exhausted at {scan.hi} without a verified lift", "inconclusive"
    )
