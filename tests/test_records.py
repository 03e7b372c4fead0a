"""The records the scans return and the pool pickles: constructor checks,
pickle round trips, equality and hashing."""

import pickle
from fractions import Fraction

import pytest

from mwlab.dependence import DetectionResult, RecoveryResult, SubgroupSpec
from mwlab.elliptic import EC_IDENTITY, EcPoint, EllipticGroup, WeierstrassCurve
from mwlab.mwgroup import MultiplicativeGroup
from mwlab.numth import Factorization, PrimeRange, factor
from mwlab.primesearch import DensityReport, PatternHit, ValuationPattern
from mwlab.reports import ConditionReport, RelationCertificate, Witness

C37 = WeierstrassCurve(0, 0, 1, -1, 0)
W = Witness(7, 3, "ord_7 2 = 3")


class TestConstructorChecks:
    @pytest.mark.parametrize("lo, hi", [(1, 10), (0, 10), (50, 3), (2, 2 + 10**8)],
                             ids=["lo-1", "lo-0", "inverted", "too-wide"])
    def test_prime_range(self, lo, hi):
        with pytest.raises(ValueError):
            PrimeRange(lo, hi)

    def test_prime_range_widest_allowed(self):
        assert PrimeRange(2, 10**8 + 1) == PrimeRange(2, 10**8 + 1)

    @pytest.mark.parametrize("value, factors", [
        (12, ((2, 2), (3, 2))),   # does not recompose
        (12, ((3, 1), (2, 2))),   # primes out of order
        (12, ((2, 2), (3, 1), (5, 0))),
        (0, ()),
    ])
    def test_factorization(self, value, factors):
        with pytest.raises(ValueError):
            Factorization(value, factors)

    def test_condition_report(self):
        with pytest.raises(ValueError, match="unknown condition id"):
            ConditionReport("support", "holds_on_scan", (3, 100), None)
        with pytest.raises(ValueError, match="unknown verdict"):
            ConditionReport("thm2", "maybe", (3, 100), None)
        with pytest.raises(ValueError, match="disagree"):
            ConditionReport("thm2", "violated", (3, 100), None)
        with pytest.raises(ValueError, match="disagree"):
            ConditionReport("thm2", "holds_on_scan", (3, 100), W)
        assert ConditionReport("thm2", "holds_on_scan", (3, 100), None).skipped_primes == ()

    def test_relation_certificate(self):
        with pytest.raises(ValueError, match="unknown certificate kind"):
            RelationCertificate("lattice", (1, 2))
        assert RelationCertificate("match", (1, -1)).index is None

    @pytest.mark.parametrize("l, ks", [(4, (1,)), (1, (1,)), (3, ()), (3, (-1,))])
    def test_valuation_pattern(self, l, ks):
        with pytest.raises(ValueError):
            ValuationPattern(l, ks)

    @pytest.mark.parametrize("x, y", [(1, None), (None, 1)])
    def test_half_identity_point(self, x, y):
        with pytest.raises(ValueError, match="both coordinates or neither"):
            EcPoint(x, y)

    def test_singular_curve(self):
        with pytest.raises(ValueError, match="singular"):
            WeierstrassCurve(0, 0, 0, -3, 2)

    def test_subgroup_generators_become_a_tuple(self):
        spec = SubgroupSpec([EcPoint(0, 0)], EllipticGroup(C37))
        assert spec.generators == (EcPoint(0, 0),)

    def test_replace_keeps_the_type(self):
        cert = RelationCertificate("membership", (2, 1))._replace(index=1)
        assert type(cert) is RelationCertificate
        assert cert.to_dict()["index"] == 1


def _cached_group() -> EllipticGroup:
    E = EllipticGroup(WeierstrassCurve(0, 0, 0, -1, 0))
    assert E.curve.discriminant == 64
    assert len(E.torsion_elements()) == 4
    return E


RECORDS = {
    "PrimeRange": lambda: PrimeRange(3, 2000),
    "Factorization": lambda: factor(360),
    "Witness": lambda: W,
    "ConditionReport": lambda: ConditionReport("erdos_union", "violated", (3, 100), W, (3, 5)),
    "RelationCertificate": lambda: RelationCertificate("membership", (2, -1, 3), 0),
    "ValuationPattern": lambda: ValuationPattern(3, (1, 0)),
    "PatternHit": lambda: PatternHit(41, (20, 8), True),
    "DensityReport": lambda: DensityReport(3, (1, 0), 13, 166, 13 / 166, False),
    "SubgroupSpec": lambda: SubgroupSpec((EcPoint(0, 0),), EllipticGroup(C37)),
    "DetectionResult": lambda: DetectionResult(
        ConditionReport("detect", "holds_on_scan", (3, 50), None),
        RelationCertificate("membership", (1, 2), 0), 0, None,
    ),
    "RecoveryResult": lambda: RecoveryResult(10, "verified exactly with modulus 60", "found"),
    "EcPoint": lambda: EcPoint(Fraction(1, 4), Fraction(-5, 8)),
    "EC_IDENTITY": lambda: EC_IDENTITY,
    "WeierstrassCurve": lambda: C37,
    "EllipticGroup-cached": _cached_group,
    "MultiplicativeGroup": lambda: MultiplicativeGroup([5, 7]),
}


class TestPickle:
    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
    def test_round_trip_keeps_type_and_equality(self, make):
        obj = make()
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj)
        assert back == obj
        assert hash(back) == hash(obj)

    def test_cached_group_keeps_its_caches(self):
        E = _cached_group()
        back = pickle.loads(pickle.dumps(E))
        assert back.curve.discriminant == 64
        assert back.torsion_elements() == E.torsion_elements()


class TestEquality:
    def test_points_are_not_tuples(self):
        assert EcPoint(0, 0) != (0, 0)
        assert (0, 0) != EcPoint(0, 0)
        assert EcPoint() == EC_IDENTITY
        assert EcPoint(0, 0) != EC_IDENTITY

    def test_curves_compare_by_coefficients(self):
        assert WeierstrassCurve(0, 0, 1, -1, 0) == C37
        assert C37 != WeierstrassCurve(0, 1, 1, -2, 0)
        assert C37 != (0, 0, 1, -1, 0)

    def test_hashes_are_the_field_tuple_hashes(self):
        # Sets of points and curves iterate in hash order; these are the
        # hashes the earlier frozen dataclasses had, so that order holds.
        P = EcPoint(Fraction(1, 4), Fraction(-5, 8))
        assert hash(P) == hash((Fraction(1, 4), Fraction(-5, 8)))
        assert hash(EC_IDENTITY) == hash((None, None))
        assert hash(C37) == hash((0, 0, 1, -1, 0))
