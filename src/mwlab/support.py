"""Support sets and the support-style conditions, each reduced to an exact
per-prime order-divisibility test plus a prime-window scanning verifier.

The "for all n" quantifier in every condition collapses at a fixed prime:
p divides x^n - 1 exactly when ord_p(x) divides n, so set statements about
supports become finite divisibility statements about orders. Scans therefore
bound only the prime, never n.
"""

from __future__ import annotations

from . import numth
from ._parallel import map_chunks, pool_size, scan_chunk, split_chunks
from .numth import PrimeRange
from .reports import ConditionReport, RelationCertificate, Witness, merge_scan_results


def support_of(m: int) -> set[int]:
    """The set of primes dividing m (empty for m = 1)."""
    if m <= 0:
        raise ValueError(f"support of non-positive {m}")
    return set(numth.factor(m).primes)


def support_union_at_n(xs, n: int, bound: int) -> frozenset[int]:
    """{p <= bound : p | x^n - 1 for some x}, without forming x^n - 1.

    For n >= 1, p | x^n - 1 iff p does not divide x and ord_p(x) | n; at
    n = 0, x^n - 1 = 0 has no finite support, so n < 1 is refused.
    """
    if n < 1:
        raise ValueError(f"support unions need n >= 1, got {n}")
    if any(x < 2 for x in xs):
        raise ValueError("support unions take natural numbers >= 2")
    hits = set()
    for p in numth.primes_in(PrimeRange(2, bound)):
        for x in xs:
            if x % p != 0 and n % numth.multiplicative_order(x, p) == 0:
                hits.add(p)
                break
    return frozenset(hits)


def two_sided_gap(a, b) -> tuple[int, int] | None:
    """Two-sided cover of two order lists: every a_i is a multiple of some
    b_j and every b_j a multiple of some a_i. None when it holds; otherwise
    the least unmatched order n and its side (0 for a, 1 for b). At n a point
    of that side is killed and none of the other side is.
    """
    gap = None
    for side, u, w in ((0, a, b), (1, b, a)):
        for t in u:
            for s in w:
                if t % s == 0:
                    break
            else:
                if gap is None or t < gap[0]:
                    gap = t, side
    return gap


# ---------------------------------------------------------------------------
# Per-prime tests and scanning verifiers. scan_chunk skips the bad primes
# and hands each test the scan's points reduced at a good prime v; tests are
# module level so worker processes can pickle them, and return None or a
# Witness.


def _two_sided_args(Ps, Qs):
    """The distinct points of Ps and Qs, and the index tuples of Ps and Qs
    into them: the points a two-sided scan reduces and the indices of
    `_two_sided_test`."""
    Ps, Qs = tuple(Ps), tuple(Qs)
    if not (Ps and Qs):
        raise ValueError("a two-sided condition needs at least one point on each side")
    points = tuple(dict.fromkeys((*Ps, *Qs)))
    index = {P: i for i, P in enumerate(points)}
    return points, tuple(index[P] for P in Ps), tuple(index[Q] for Q in Qs)


def _two_sided_test(condition_id, pi, qi, backend, raws, v):
    """erdos_union and cor22: every order on the P side is a multiple of
    some order on the Q side and vice versa. On Q* with natural points this
    says the n-sets of the two support unions agree at v.

    raws are the distinct points of both sides; pi and qi index into them.
    """
    orders = backend.raw_orders(raws, v)
    a = [orders[i] for i in pi]
    b = [orders[i] for i in qi]
    gap = two_sided_gap(a, b)
    if gap is None:
        return None
    n, side = gap
    if condition_id == "erdos_union":
        detail = (f"orders xs={a} ys={b}; at n={n} the prime {v} lies in the "
                  f"{('xs', 'ys')[side]}-side support union only")
    else:
        detail = (f"orders P={a} Q={b}; n={n} kills a point on the {('P', 'Q')[side]} side "
                  f"and none on the other")
    return Witness(v=v, n=n, detail=detail)


def _cover_test(condition_id, backend, raws, v):
    """corrales_schoof (one Q) and thm2: n = ord_v(P) kills P but no Q_i;
    raws are P and the Q_i.

    ord_v(Q_i) divides n exactly when n * Q_i = 0, so the orders of the Q_i
    are computed only for a witness.
    """
    tp = backend.raw_orders(raws[:1], v)[0]
    if any(backend.raw_kills(tp, raw, v) for raw in raws[1:]):
        return None
    tq = backend.raw_orders(raws[1:], v)
    if condition_id == "corrales_schoof":
        detail = f"ord_v(x)={tp}, ord_v(y)={tq[0]}; n={tp} kills x but not y"
    else:
        detail = f"ord_v(P)={tp}, ord_v(Q_i)={tq}; n={tp} kills P but no Q_i"
    return Witness(v=v, n=tp, detail=detail)


def _scan(test, args, backend, points, scan: PrimeRange, workers: int) -> ConditionReport:
    """The report of one scan; args[0] is the condition id."""
    chunks = split_chunks(numth.primes_in(scan), pool_size(workers))
    tasks = [(test, args, backend, points, c) for c in chunks]
    return merge_scan_results(args[0], scan, map_chunks(scan_chunk, tasks, workers))


def scan_erdos_union(xs, ys, scan: PrimeRange, workers: int = 1) -> ConditionReport:
    """Scan the support-union condition for natural numbers xs, ys >= 2."""
    from .mwgroup import MulPoint, MultiplicativeGroup  # only Q* scans load the Q* backend

    xs, ys = tuple(int(x) for x in xs), tuple(int(y) for y in ys)
    if any(v < 2 for v in xs + ys):
        raise ValueError("support-union condition takes natural numbers >= 2")
    points, pi, qi = _two_sided_args(map(MulPoint, xs), map(MulPoint, ys))
    return _scan(_two_sided_test, ("erdos_union", pi, qi), MultiplicativeGroup(), points,
                 scan, workers)


def scan_corrales_schoof(x, y, backend, scan: PrimeRange, workers: int = 1) -> ConditionReport:
    return _scan(_cover_test, ("corrales_schoof",), backend, (x, y), scan, workers)


def scan_thm2(P, Qs, backend, scan: PrimeRange, workers: int = 1) -> ConditionReport:
    if not Qs:
        raise ValueError("thm2 needs at least one Q")
    return _scan(_cover_test, ("thm2",), backend, (P, *Qs), scan, workers)


def scan_cor22(Ps, Qs, backend, scan: PrimeRange, workers: int = 1) -> ConditionReport:
    points, pi, qi = _two_sided_args(Ps, Qs)
    return _scan(_two_sided_test, ("cor22", pi, qi), backend, points, scan, workers)


def verify_witness(condition_id: str, inputs: dict, v: int, n: int, backend=None) -> bool:
    """Recompute a reported violation at (v, n) literally, without order
    machinery: raise points to the n-th power (or n-th multiple) mod v and
    check the condition fails exactly as claimed. A bad prime raises ValueError.
    """
    if condition_id == "erdos_union":  # cor22 on Q*, for naturals
        from .mwgroup import MulPoint, MultiplicativeGroup

        condition_id, backend = "cor22", MultiplicativeGroup()
        inputs = {"Ps": [MulPoint(x) for x in inputs["xs"]], "Qs": [MulPoint(y) for y in inputs["ys"]]}
    if backend is None:
        raise ValueError("point conditions need a backend to re-verify")
    if condition_id == "corrales_schoof":
        condition_id, inputs = "thm2", {"P": inputs["x"], "Qs": (inputs["y"],)}
    if condition_id == "thm2":
        condition_id, inputs = "detect", {"Ls": (inputs["P"],), "Ps": inputs["Qs"]}
    if condition_id not in ("cor22", "detect"):
        raise ValueError(f"unknown condition {condition_id!r}")
    # cor22: some P is killed or some Q, not both; detect: every L and no P
    firsts, seconds = (inputs["Ps"], inputs["Qs"]) if condition_id == "cor22" else (inputs["Ls"], inputs["Ps"])
    raws = backend.reduce([*firsts, *seconds], v)
    if raws is None:
        raise ValueError(f"{v} is a bad prime for these points")

    def killed(raw) -> bool:
        return backend.raw_scale(n, raw, v) == backend.raw_identity(v)

    kf, ks = map(killed, raws[: len(firsts)]), map(killed, raws[len(firsts) :])
    return any(kf) != any(ks) if condition_id == "cor22" else all(kf) and not any(ks)


# ---------------------------------------------------------------------------
# Conclusion certification (the multiplicative backend has an exact oracle)


def verify_conclusion_match(xs, ys) -> RelationCertificate | None:
    """Match {x_i} with {delta_i * y_sigma(i)}, deltas in {-1, 1}; None if no
    perfect matching exists. Signs act by inversion: delta = -1 pairs x with
    1/y. Exact rational comparison throughout.

    "x = y or x = 1/y" is an equivalence, so taking the first free match for
    each x in turn never blocks a later x: greedy matching is exact.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError("conclusion match takes lists of equal length")
    used = [False] * len(ys)
    sigma, deltas = [], []
    for x in xs:
        j = next(
            (j for j, y in enumerate(ys) if not used[j] and x.value in (y.value, 1 / y.value)),
            None,
        )
        if j is None:
            return None
        used[j] = True
        sigma.append(j)
        deltas.append(1 if x.value == ys[j].value else -1)
    return RelationCertificate(
        kind="match", coefficients=tuple(sigma) + tuple(deltas)
    )
