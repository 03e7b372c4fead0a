import itertools
import math
import random
from fractions import Fraction

import pytest

from mwlab import dependence
from mwlab.dependence import (
    SubgroupSpec,
    detect_dependence,
    exact_membership_multiplicative,
    member_mod,
    recover_exponent,
    verify_detect_witness,
)
from mwlab.elliptic import EC_IDENTITY, EllipticGroup, WeierstrassCurve
from mwlab.mwgroup import MulPoint, MultiplicativeGroup
from mwlab.numth import PrimeRange, primes_in

M = MultiplicativeGroup()
C37 = WeierstrassCurve(0, 0, 1, -1, 0)


def enumerate_subgroup(gens, p):
    """Oracle: literal closure of generator residues in F_p*."""
    out = {1}
    frontier = [1]
    gens = [g % p for g in gens]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur * g % p
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


def brute_membership(p_val, gen_vals, alpha_bound=6, lam_bound=8):
    """Oracle: search small alpha, lambda with P^alpha = prod L^lambda != 1."""
    for alpha in range(1, alpha_bound + 1):
        target = Fraction(p_val) ** alpha
        if target == 1:
            continue
        for vec in itertools.product(range(-lam_bound, lam_bound + 1), repeat=len(gen_vals)):
            acc = Fraction(1)
            for g, l in zip(gen_vals, vec):
                acc *= Fraction(g) ** l
            if acc == target:
                return alpha, vec
    return None


class TestMemberMod:
    def test_generator_is_member(self):
        assert member_mod(M, 3, [3], 11) is True

    def test_known_values(self):
        assert member_mod(M, 2, [3], 11) is False
        assert member_mod(M, 4, [3], 11) is True

    def test_rejects_bad_prime(self):
        # The raw-level test takes reductions; at a bad prime there are none.
        assert M.reduce([MulPoint(22)], 11) is None

    def test_against_enumeration(self):
        rng = random.Random(29)
        primes = primes_in(PrimeRange(3, 1000))
        checked = 0
        while checked < 200:
            p = rng.choice(primes)
            gens = [rng.randint(2, 40) for _ in range(rng.randint(1,  3))]
            x = rng.randint(2, 40)
            if any(g % p == 0 for g in gens) or x % p == 0:
                continue
            raw, *raws = M.reduce([MulPoint(x), *map(MulPoint, gens)], p)
            literal = x % p in enumerate_subgroup(gens, p)
            assert member_mod(M, raw, raws, p) == literal
            checked += 1

    def test_elliptic_closure_and_lagrange(self):
        E = EllipticGroup(C37)
        G = C37.point(0, 0)
        from mwlab.mwgroup import subgroup_closure_mod

        for v in primes_in(PrimeRange(3, 100)):
            if 37 % v == 0:
                continue
            raw, *raw_gens = E.reduce([G, C37.mul(2, G)], v)
            closure = subgroup_closure_mod(E, raw_gens, v)
            assert E.group_order_mod(v) % len(closure) == 0
            assert member_mod(E, raw, raw_gens, v) == (raw in closure)


class TestExactMembership:
    def test_lattice_member_360(self):
        lam = SubgroupSpec((MulPoint(6), MulPoint(10)), M)
        cert = exact_membership_multiplicative(MulPoint(360), lam)
        assert cert.coefficients == (1, 2, 1)

    def test_minus_one_refuted(self):
        lam = SubgroupSpec((MulPoint(2),), M)
        assert exact_membership_multiplicative(MulPoint(-1), lam) is None

    def test_two_in_four_needs_square(self):
        lam = SubgroupSpec((MulPoint(4),), M)
        cert = exact_membership_multiplicative(MulPoint(2), lam)
        assert cert.coefficients == (2, 1)

    def test_sign_fixed_by_doubling(self):
        lam = SubgroupSpec((MulPoint(2),), M)
        cert = exact_membership_multiplicative(MulPoint(-2), lam)
        assert cert.coefficients == (2, 2)  # (-2)^2 = 2^2

    def test_torsion_generator_gives_odd_alpha(self):
        lam = SubgroupSpec((MulPoint(-2), MulPoint(2)), M)
        cert = exact_membership_multiplicative(MulPoint(-1), lam)
        alpha, lambdas = cert.coefficients[0], cert.coefficients[1:]
        assert alpha == 1
        acc = Fraction(1)
        for g, l in zip((-2, 2), lambdas):
            acc *= Fraction(g) ** l
        assert acc == -1

    def test_prime_outside_lattice_refuted(self):
        lam = SubgroupSpec((MulPoint(6), MulPoint(10)), M)
        assert exact_membership_multiplicative(MulPoint(7), lam) is None

    def test_identity_input_refused(self):
        lam = SubgroupSpec((MulPoint(2),), M)
        assert exact_membership_multiplicative(MulPoint(1), lam) is None

    def test_rational_members(self):
        lam = SubgroupSpec((MulPoint(Fraction(3, 2)), MulPoint(5)), M)
        cert = exact_membership_multiplicative(MulPoint(Fraction(9, 4)), lam)
        assert cert.coefficients == (1, 2, 0)

    @pytest.mark.parametrize(
        "gens", [(-2, 2), (4, 8), (-1,), (Fraction(2, 3), Fraction(3, 2)), (-4, 6)], ids=str
    )
    def test_alpha_is_least_on_signed_and_dependent_generators(self, gens):
        points = [1, -1, 2, -2, 4, -4, 8, -8, 16, 64, Fraction(1, 2), Fraction(-1, 8),
                  3, 6, Fraction(9, 4), Fraction(-3, 2), Fraction(2, 3), Fraction(4, 9)]
        lam = SubgroupSpec(tuple(MulPoint(g) for g in gens), M)
        for x in points:
            cert = exact_membership_multiplicative(MulPoint(x), lam)
            brute = brute_membership(x, gens, alpha_bound=6, lam_bound=6)
            if brute is None:
                assert cert is None or cert.coefficients[0] > 6 or max(
                    abs(l) for l in cert.coefficients[1:]) > 6, (x, gens, cert)
            else:
                assert cert is not None and cert.coefficients[0] == brute[0], (x, gens, cert)

    @pytest.mark.parametrize(
        "p_val, gens",
        [(16, (2, 4, 8)), (360, (6, 10, 60)), (-8, (-2, 4)), (-1, (-2, 2, 4)), (3, (9, 27)),
         (Fraction(9, 4), (Fraction(3, 2), 9, Fraction(2, 3)))],
        ids=str,
    )
    def test_gcd_fold_over_a_changed_basis(self, monkeypatch, p_val, gens):
        # integer_kernel's echelon order leaves at most one relation w with a
        # nonzero P exponent, so the xgcd fold only runs on another basis of
        # the same lattice: with u another basis vector, (w, u) becomes
        # (2w + u, 3w + u), whose P exponents 2e and 3e have gcd e.
        lam = SubgroupSpec(tuple(MulPoint(g) for g in gens), M)
        want = exact_membership_multiplicative(MulPoint(p_val), lam)
        inner = dependence.unit_relations

        def changed_basis(values):
            basis = inner(values)
            w = next(b for b in basis if b[-1])
            u = next(b for b in basis if b is not w)
            rest = [b for b in basis if b is not w and b is not u]
            return [[2 * x + y for x, y in zip(w, u)], [3 * x + y for x, y in zip(w, u)], *rest]

        monkeypatch.setattr(dependence, "unit_relations", changed_basis)
        assert len({b[-1] for b in changed_basis([*gens, p_val]) if b[-1]}) == 2
        got = exact_membership_multiplicative(MulPoint(p_val), lam)
        assert got.coefficients[0] == want.coefficients[0]
        alpha, lambdas = got.coefficients[0], got.coefficients[1:]
        check = math.prod(Fraction(g) ** l for g, l in zip(gens, lambdas))
        assert check == Fraction(p_val) ** alpha

    def test_against_brute_force(self):
        rng = random.Random(31)
        small = [2, 3, 5, 7, 11]
        for _ in range(120):
            gens = []
            for _ in range(rng.randint(1, 2)):
                val = 1
                for p in rng.sample(small, rng.randint(1, 2)):
                    val *= p ** rng.randint(1, 3)
                gens.append(val)
            x = 1
            for p in rng.sample(small, rng.randint(1, 2)):
                x *= p ** rng.randint(1, 3)
            lam = SubgroupSpec(tuple(MulPoint(g) for g in gens), M)
            cert = exact_membership_multiplicative(MulPoint(x), lam)
            brute = brute_membership(x, gens)
            if brute is not None and brute[0] >= 1:
                assert cert is not None, (x, gens, brute)
                alpha, lambdas = cert.coefficients[0], cert.coefficients[1:]
                assert alpha <= brute[0]  # the oracle alpha is globally minimal
                if all(abs(l) <= 8 for l in lambdas):
                    # brute force covered this certificate, so minima agree
                    assert alpha == brute[0]
                acc = Fraction(1)
                for g, l in zip(gens, lambdas):
                    acc *= Fraction(g) ** l
                assert acc == Fraction(x) ** alpha
            elif cert is not None:
                alpha, lambdas = cert.coefficients[0], cert.coefficients[1:]
                acc = Fraction(1)
                for g, l in zip(gens, lambdas):
                    acc *= Fraction(g) ** l
                assert acc == Fraction(x) ** alpha  # beyond brute bounds but exact


class TestDetect:
    def test_rejects_no_points(self):
        # No P_i would make every good prime a vacuous witness, ord_v(P_i)=[].
        for backend, gens in ((M, (MulPoint(2),)), (EllipticGroup(C37), (C37.point(0, 0),))):
            with pytest.raises(ValueError, match="at least one point"):
                detect_dependence([], SubgroupSpec(gens, backend), PrimeRange(3, 50))

    def test_member_certified(self):
        lam = SubgroupSpec((MulPoint(6), MulPoint(10)), M)
        result = detect_dependence([MulPoint(360)], lam, PrimeRange(7, 10000))
        assert result.report.verdict == "holds_on_scan"
        assert result.certificate.to_dict()["alpha"] == 1
        assert result.certified_index == 0

    def test_non_member_violated_with_reverifying_witness(self):
        lam = SubgroupSpec((MulPoint(6), MulPoint(10)), M)
        result = detect_dependence([MulPoint(7)], lam, PrimeRange(7, 10000))
        assert result.report.verdict == "violated"
        w = result.report.witness
        assert verify_detect_witness([MulPoint(7)], lam, w.v, w.n)
        assert exact_membership_multiplicative(MulPoint(7), lam) is None

    def test_generator_in_own_subgroup(self):
        lam = SubgroupSpec((MulPoint(6), MulPoint(10)), M)
        result = detect_dependence([MulPoint(6)], lam, PrimeRange(7, 2000))
        assert result.report.verdict == "holds_on_scan"
        assert result.certificate.to_dict() == {
            "kind": "membership",
            "index": 0,
            "alpha": 1,
            "lambdas": [1, 0],
            "residual_torsion": None,
        }

    def test_some_point_member_suffices(self):
        lam = SubgroupSpec((MulPoint(6), MulPoint(10)), M)
        result = detect_dependence(
            [MulPoint(7), MulPoint(360)], lam, PrimeRange(7, 5000)
        )
        assert result.report.verdict == "holds_on_scan"
        assert result.certified_index == 1

    def test_elliptic_member_certified(self):
        E = EllipticGroup(C37)
        G = C37.point(0, 0)
        lam = SubgroupSpec((G,), E)
        result = detect_dependence([C37.mul(2, G)], lam, PrimeRange(3, 300))
        assert result.report.verdict == "holds_on_scan"
        assert result.certificate.to_dict()["alpha"] == 1
        assert result.certificate.to_dict()["lambdas"] == [2]

    def test_elliptic_violation(self):
        E = EllipticGroup(C37)
        G = C37.point(0, 0)
        lam = SubgroupSpec((C37.mul(2, G),), E)
        result = detect_dependence([G], lam, PrimeRange(3, 300))
        assert result.report.verdict == "violated"
        w = result.report.witness
        assert verify_detect_witness([G], lam, w.v, w.n)

    def test_elliptic_witness_needs_n_killing_every_generator(self):
        # (0,0) is outside <(1,-1)> mod 5, and ord_5 (1,-1) = 4.
        E = EllipticGroup(C37)
        lam = SubgroupSpec((C37.point(1, -1),), E)
        Ps = [C37.point(0, 0)]
        assert verify_detect_witness(Ps, lam, 5, 4)
        assert verify_detect_witness(Ps, lam, 5, 8)
        for n in (1, 2, 3, 7):
            assert not verify_detect_witness(Ps, lam, 5, n)

    def test_elliptic_bounded_search_exhaustion(self):
        E = EllipticGroup(C37)
        G = C37.point(0, 0)
        lam = SubgroupSpec((G,), E)
        P = C37.mul(21, G)
        result = detect_dependence([P], lam, PrimeRange(3, 200), coeff_bound=20)
        assert result.report.verdict == "holds_on_scan"
        assert result.certificate is None
        assert "inconclusive" in result.note
        widened = detect_dependence([P], lam, PrimeRange(3, 200), coeff_bound=25)
        assert widened.certificate.to_dict()["lambdas"] == [21]

    def test_scan_oracle_consistency_random(self):
        rng = random.Random(37)
        for _ in range(15):
            gens = tuple(MulPoint(rng.choice([6, 10, 15, 14, 21])) for _ in range(2))
            lam = SubgroupSpec(gens, M)
            val = Fraction(1)
            for g in gens:
                val *= g.value ** rng.randint(-2, 2)
            if abs(val) == 1:
                continue
            val = MulPoint(val)
            result = detect_dependence([val], lam, PrimeRange(3, 10000))
            oracle = exact_membership_multiplicative(val, lam)
            forbidden = result.report.verdict == "holds_on_scan" and oracle is None
            assert not forbidden


class TestRecover:
    def test_known_values(self):
        assert recover_exponent(MulPoint(2), MulPoint(1024), M, PrimeRange(3, 10000)).d == 10
        assert recover_exponent(MulPoint(2), MulPoint(2), M, PrimeRange(3, 10000)).d == 1
        assert recover_exponent(MulPoint(2), MulPoint(3), M, PrimeRange(3, 10000)).d is None

    def test_identity_target(self):
        assert recover_exponent(MulPoint(2), MulPoint(1), M, PrimeRange(3, 100)).d == 0

    def test_torsion_base_rejected(self):
        with pytest.raises(ValueError):
            recover_exponent(MulPoint(-1), MulPoint(2), M, PrimeRange(3, 100))

    def test_negative_and_rational(self):
        P = MulPoint(Fraction(5, 2))
        for d in (-17, -2, 3, 25):
            Q = MulPoint(P.value**d)
            assert recover_exponent(P, Q, M, PrimeRange(3, 10000)).d == d

    def test_crt_conflict_detected(self):
        result = recover_exponent(MulPoint(2), MulPoint(-1024), M, PrimeRange(3, 10000))
        assert result.d is None
        assert "conflict" in result.detail or "outside" in result.detail

    def test_elliptic_roundtrip(self):
        E = EllipticGroup(C37)
        G = C37.point(0, 0)
        for d in (-9, -1, 1, 7, 12):
            Q = C37.mul(d, G)
            assert recover_exponent(G, Q, E, PrimeRange(3, 2000)).d == d

    def test_each_good_prime_strips_once(self, monkeypatch):
        # recover_exponent reads t off dlog_mod: one strip of |E(F_v)| per
        # good prime, and four reductions there (its good_prime, order_mod's
        # good_prime and reduce, dlog_mod's reduce); one at a bad prime.
        E, G = EllipticGroup(C37), C37.point(0, 0)
        reductions, strips = [], []

        def counted_reduce(points, v):
            raws = EllipticGroup.reduce(E, points, v)
            reductions.append((v, raws is None))
            return raws

        def counted_raw_exponent(raws, m, v):
            strips.append(v)
            return EllipticGroup.raw_exponent(E, raws, m, v)

        monkeypatch.setattr(E, "reduce", counted_reduce)
        monkeypatch.setattr(E, "raw_exponent", counted_raw_exponent)
        assert recover_exponent(G, C37.mul(7, G), E, PrimeRange(3, 400)).d == 7
        bads = {v for v, bad in reductions if bad}
        goods = sorted({v for v, _ in reductions} - bads)
        assert bads and goods and strips == goods
        assert len(reductions) == 4 * len(goods) + len(bads)

    def test_elliptic_non_member(self):
        # rank-2 curve y^2 + y = x^3 + x^2 - 2x; (0,0) and (1,0) are
        # independent nontorsion points, so no multiple of one is the other
        c = WeierstrassCurve(0, 1, 1, -2, 0)
        assert c.discriminant == 389
        E = EllipticGroup(c)
        P, Q = c.point(0, 0), c.point(1, 0)
        result = recover_exponent(P, Q, E, PrimeRange(3, 500))
        assert result.d is None
        assert result.status == "refuted"

    def test_failed_lifts(self, monkeypatch):
        # With a height bound of 1 the lift is tried once the modulus passes
        # 2: d = 2 (mod 4) and d = -2 (mod 12) fail exact verification, the
        # bound grows 4-fold after each, and d = 10 (mod 60) verifies.
        monkeypatch.setattr(MultiplicativeGroup, "height_bound", lambda self, P, Q: 1)
        lifts = []
        scale = MultiplicativeGroup.scale

        def recorded_scale(self, n, P):
            lifts.append(n)
            return scale(self, n, P)

        monkeypatch.setattr(MultiplicativeGroup, "scale", recorded_scale)
        result = recover_exponent(MulPoint(2), MulPoint(1024), M, PrimeRange(3, 100))
        assert (result.d, result.status) == (10, "found")
        assert lifts == [2, -2, 10]
        assert result.detail == "verified exactly with modulus 60"
        # A third failed lift gives up.
        result = recover_exponent(MulPoint(2), MulPoint(2**40), M, PrimeRange(3, 100))
        assert result.d is None
        assert result.detail.startswith("lift d = ")

    def test_status(self):
        assert recover_exponent(MulPoint(2), MulPoint(1024), M, PrimeRange(3, 100)).status == "found"
        assert recover_exponent(MulPoint(2), MulPoint(1), M, PrimeRange(3, 100)).status == "found"
        assert recover_exponent(MulPoint(2), MulPoint(3), M, PrimeRange(3, 100)).status == "refuted"
        exhausted = recover_exponent(MulPoint(2), MulPoint(1024), M, PrimeRange(3, 7))
        assert (exhausted.d, exhausted.status) == (None, "inconclusive")
        assert exhausted.detail.startswith("scan exhausted")
