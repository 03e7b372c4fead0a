"""Linear-dependence detection through reduction maps: per-prime membership
tests, a scanning detector, and exact conclusion certificates.

The multiplicative backend has a genuine oracle (integer linear algebra on
exponent vectors with a sign coordinate); the elliptic backend certifies by
bounded coefficient search and reports exhaustion as inconclusive rather
than refuting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import numth
from ._parallel import BAD_PRIME, map_chunks, scan_chunk, split_chunks
from .mwgroup import exponent_vector, rational_support, subgroup_closure_mod
from .numth import PrimeRange
from .reports import ConditionReport, RelationCertificate, Witness, merge_scan_results
from .support import verify_witness


@dataclass(frozen=True)
class SubgroupSpec:
    """A finitely generated subgroup, given by its generator points
    (nontorsion basis plus any torsion generators, in one list)."""

    generators: tuple
    backend: object

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))


@dataclass(frozen=True)
class DetectionResult:
    """Scan report plus the conclusion certificate the scan earned (if any)."""

    report: ConditionReport
    certificate: RelationCertificate | None
    certified_index: int | None
    note: str | None


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered exponent d with Q = d*P, or d = None with the reason.

    status is "found" (d is set), "refuted" (a missing log, a CRT conflict,
    or a lift that keeps failing exact verification) or "inconclusive" (the
    scan ran out of primes first).
    """

    d: int | None
    detail: str
    status: str


def member_mod(P, subgroup: SubgroupSpec, v: int) -> bool:
    """Is the reduction of P at v inside the reduced subgroup?

    Multiplicative: F_v* is cyclic, so membership in the subgroup generated
    by the L_j (whose order is lcm_j ord_v L_j) is exactly ord_v(P) dividing
    that lcm. Elliptic: Sylow subgroup by Sylow subgroup, see
    `_elliptic_member_raw`.
    """
    backend = subgroup.backend
    if not backend.good_prime([P] + list(subgroup.generators), v):
        raise ValueError(f"{v} is a bad prime for these points")
    if backend.kind == "multiplicative":
        target = math.lcm(*(backend.order_mod(L, v) for L in subgroup.generators)) if subgroup.generators else 1
        return target % backend.order_mod(P, v) == 0
    raws = [backend.reduce_raw(L, v) for L in subgroup.generators]
    return _elliptic_member_raw(backend, backend.reduce_raw(P, v), raws, v)


def _elliptic_member_raw(backend, raw, raw_gens, v: int) -> bool:
    """Is the reduced point raw in the subgroup H of E(F_v) generated by raw_gens?

    raw lies in H exactly when, for every prime l | ord raw, its l-part lies
    in the l-part of H; scaling by c = N / l^e (N = |E(F_v)|, e = v_l(N)) is
    an automorphism of the l-Sylow subgroup, so c*raw and the c*L_j stand
    for the l-parts. E(F_v) is Z/n1 x Z/n2 with n1 | n2 and n1 | v-1 (Weil pairing),
    so the l-Sylow subgroup is cyclic unless l | v-1 and l^2 | N. In a cyclic
    l-group, subgroups are ordered by size, so the l-valuations of the orders
    decide; otherwise the l-parts, at most l^e points, are closed explicitly.
    """
    order = backend.raw_order(raw, v)
    n = backend.group_order_mod(v)
    gen_orders = [numth.factor(backend.raw_order(g, v)) for g in raw_gens]
    for l, k in numth.factor(order).factors:
        if k > max((f.exponent_of(l) for f in gen_orders), default=0):
            return False
        e = numth.factor(n).exponent_of(l)
        if e >= 2 and (v - 1) % l == 0:
            c = n // l**e
            parts = [backend.raw_scale(c, g, v) for g in raw_gens]
            if backend.raw_scale(c, raw, v) not in subgroup_closure_mod(backend, parts, v):
                return False
    return True


def _detect_test(Ps, subgroup: SubgroupSpec, v):
    backend, generators = subgroup.backend, subgroup.generators
    if not backend.good_prime([*Ps, *generators], v):
        return BAD_PRIME
    if any(member_mod(P, subgroup, v) for P in Ps):
        return None
    n = math.lcm(*(backend.order_mod(L, v) for L in generators)) if generators else 1
    orders = [backend.order_mod(P, v) for P in Ps]
    return Witness(
        v=v,
        n=n,
        detail=(
            f"no P_i lies in the reduced subgroup at {v}; n={n} kills every "
            f"generator mod {v} while ord_v(P_i)={orders}"
        ),
    )


def detect_dependence(Ps, subgroup: SubgroupSpec, scan: PrimeRange,
                      workers: int = 1, coeff_bound: int = 20) -> DetectionResult:
    """Scan the membership hypothesis, then try to certify the conclusion.

    Violated: some good v has every P_i outside the reduced subgroup (the
    witness carries n = lcm of reduced generator orders). Holds: an exact
    certificate alpha * P_i in the subgroup is attempted, via the exponent
    oracle (multiplicative) or bounded search (elliptic).
    """
    Ps = list(Ps)
    backend = subgroup.backend
    primes = numth.primes_in(scan)
    chunks = split_chunks(primes, workers)
    results = map_chunks(
        scan_chunk, [(_detect_test, (tuple(Ps), subgroup), c) for c in chunks], workers
    )
    report = merge_scan_results("detect", scan, results)
    if report.verdict == "violated":
        return DetectionResult(report, None, None, None)
    if backend.kind == "multiplicative":
        for i, P in enumerate(Ps):
            cert = exact_membership_multiplicative(P, subgroup)
            if cert is not None:
                cert = RelationCertificate(
                    kind="membership", coefficients=cert.coefficients, index=i
                )
                return DetectionResult(report, cert, i, None)
        return DetectionResult(
            report, None, None, "hypothesis holds on scan but the exact oracle refutes every point"
        )
    for i, P in enumerate(Ps):
        cert = _bounded_membership_search(P, subgroup, coeff_bound)
        if cert is not None:
            cert = RelationCertificate(
                kind="membership", coefficients=cert.coefficients, index=i
            )
            return DetectionResult(report, cert, i, None)
    return DetectionResult(
        report, None, None, f"inconclusive (elliptic bounded search exhausted at |coefficients| <= {coeff_bound})"
    )


def verify_detect_witness(Ps, subgroup: SubgroupSpec, v: int, n: int) -> bool:
    """Independent recomputation of a detect witness at (v, n)."""
    backend = subgroup.backend
    if backend.kind == "multiplicative":
        return verify_witness(
            "detect",
            {"Ps": list(Ps), "Ls": list(subgroup.generators)},
            v,
            n,
            backend=backend,
        )
    raws = [backend.reduce_raw(L, v) for L in subgroup.generators]
    closure = subgroup_closure_mod(backend, raws, v)
    return all(backend.reduce_raw(P, v) not in closure for P in Ps)


# ---------------------------------------------------------------------------
# Exact oracle on the exponent lattice (multiplicative backend)


def exact_membership_multiplicative(P, subgroup: SubgroupSpec) -> RelationCertificate | None:
    """Minimal alpha > 0 with P^alpha a nontrivial element of the subgroup,
    plus its expression in the generators; None when no power of P lands
    in the subgroup (other than the identity itself).

    Solves the integer linear system on prime-exponent vectors and fixes the
    torsion sign {1, -1} by a mod-2 coordinate. alpha with P^alpha = 1 is
    never certified: for nontorsion P it cannot occur, and for torsion P the
    interesting question is whether P itself (an odd power) is inside.
    """
    gens = list(subgroup.generators)
    p_val = P.value
    gen_vals = [L.value for L in gens]
    if p_val == 1:
        return None  # only trivial powers; nothing nontrivial to certify
    primes = sorted(
        set().union(rational_support(p_val), *(rational_support(g) for g in gen_vals))
    )
    s = len(gens)
    e_p = exponent_vector(p_val, primes)
    e_gen = [exponent_vector(g, primes) for g in gen_vals]
    # Unknowns c = (lambda_1, ..., lambda_s, alpha); rows demand
    # sum_j lambda_j e_j = alpha * e_P on every prime coordinate.
    rows = [[e_gen[j][i] for j in range(s)] + [-e_p[i]] for i in range(len(primes))]
    kernel = numth.integer_kernel(rows, s + 1)
    if not kernel:
        return None
    # Smallest achievable positive alpha is the gcd of kernel alpha-coords.
    d, combo = 0, None
    for b in kernel:
        a = b[-1]
        if a == 0:
            continue
        if combo is None:
            d, combo = a, list(b)
        else:
            g, x, y = numth.xgcd(d, a)
            combo = [x * u + y * w for u, w in zip(combo, b)]
            d = g
    if combo is None:
        return None
    if d < 0:
        d, combo = -d, [-c for c in combo]
    # Lattice of alpha = 0 solutions, for adjusting the sign coordinate.
    zero_basis = []
    for b in kernel:
        z = [u - (b[-1] // d) * w for u, w in zip(b, combo)]
        if any(z):
            zero_basis.append(z)

    sign_p = 0 if p_val > 0 else 1
    sign_gen = [0 if g > 0 else 1 for g in gen_vals]

    def sign_gap(vec) -> int:
        # alpha * s_P - sum lambda_j s_j mod 2: zero means the signs match.
        return (vec[-1] * sign_p + sum(l * sg for l, sg in zip(vec[:-1], sign_gen))) % 2

    for m in (1, 2):
        alpha = m * d
        if abs(p_val) == 1 and alpha % 2 == 0:
            continue  # P^alpha would be the identity; not a real membership
        base = [m * c for c in combo]
        if sign_gap(base) == 0:
            chosen = base
        else:
            fix = next((z for z in zero_basis if sign_gap(z) == 1), None)
            if fix is None:
                continue
            chosen = [u + w for u, w in zip(base, fix)]
        lambdas = chosen[:-1]
        check = Fraction(1)
        for g, l in zip(gen_vals, lambdas):
            check *= g**l
        assert check == p_val**alpha, "membership certificate failed re-verification"
        return RelationCertificate(
            kind="membership", coefficients=(alpha, *lambdas)
        )
    return None


# ---------------------------------------------------------------------------
# Bounded elliptic search


def _bounded_membership_search(P, subgroup: SubgroupSpec, bound: int) -> RelationCertificate | None:
    """Search alpha in [1, bound], |lambda_j| <= bound for alpha*P = sum lambda_j L_j.

    Exhaustion is inconclusive, never a refutation. Certificates with
    alpha*P = identity are not real memberships and are skipped.
    """
    backend = subgroup.backend
    gens = list(subgroup.generators)
    multiples = []
    for L in gens:
        table = {0: backend.identity()}
        for k in range(1, bound + 1):
            table[k] = backend.combine(table[k - 1], L)
            table[-k] = backend.invert(table[k])
        multiples.append(table)
    lambda_vectors = [()]
    for _ in gens:
        lambda_vectors = [
            vec + (k,) for vec in lambda_vectors for k in range(-bound, bound + 1)
        ]
    span: dict = {}
    for vec in lambda_vectors:
        acc = backend.identity()
        for table, k in zip(multiples, vec):
            acc = backend.combine(acc, table[k])
        span.setdefault(_freeze(acc), vec)
    acc = backend.identity()
    for alpha in range(1, bound + 1):
        acc = backend.combine(acc, P)
        if backend.is_identity(acc):
            continue
        vec = span.get(_freeze(acc))
        if vec is not None:
            return RelationCertificate(kind="membership", coefficients=(alpha, *vec))
    return None


def _freeze(point):
    return (point.x, point.y)


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
    if backend.is_torsion(P):
        raise ValueError("exponent recovery needs a nontorsion base point")
    height_bound = backend.height_bound(P, Q)
    residue, modulus = 0, 1
    logs: list[tuple[int, int, int]] = []
    failed_lifts = 0
    for v in numth.primes_in(scan):
        if not backend.good_prime([P, Q], v):
            continue
        e = backend.dlog_mod(P, Q, v)
        if e is None:
            return RecoveryResult(
                None, f"Q is outside the cyclic group generated by P mod {v}", "refuted"
            )
        t = backend.order_mod(P, v)
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
