"""Outcome artifacts shared across the condition checkers and detectors.

Serialization is deliberately boring: fixed key order, plain JSON types,
no timestamps, so that identical inputs give byte-identical reports.
"""

from __future__ import annotations

from collections import namedtuple


class Witness(namedtuple("Witness", "v n detail")):
    """A concrete (v, n) at which a condition fails; re-verifiable independently."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"v": self.v, "n": self.n, "detail": self.detail}


CONDITION_IDS = (
    "erdos_union",
    "corrales_schoof",
    "thm2",
    "cor22",
    "detect",
    "torsion_stability",
)


class ConditionReport(
    namedtuple("ConditionReport", "condition_id verdict scanned witness skipped_primes")
):
    """Outcome of scanning one condition over a prime window.

    verdict is "violated" exactly when a witness is present; skipped_primes
    lists the bad primes encountered before the witness (or in the whole
    window when the scan holds).
    """

    __slots__ = ()

    def __new__(cls, condition_id, verdict, scanned, witness, skipped_primes=()):
        if condition_id not in CONDITION_IDS:
            raise ValueError(f"unknown condition id {condition_id!r}")
        if (verdict == "violated") != (witness is not None):
            raise ValueError("verdict and witness presence disagree")
        if verdict not in ("violated", "holds_on_scan"):
            raise ValueError(f"unknown verdict {verdict!r}")
        return super().__new__(cls, condition_id, verdict, scanned, witness, skipped_primes)

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "verdict": self.verdict,
            "witness": self.witness.to_dict() if self.witness else None,
            "scanned": {"lo": self.scanned[0], "hi": self.scanned[1]},
            "n_bound": None,  # retired field, kept so report bytes stay stable
            "skipped_primes": list(self.skipped_primes),
        }


def merge_scan_results(condition_id: str, scan, results) -> ConditionReport:
    """Combine per-chunk scan results into a chunk-count-independent report.

    `results` follow ascending chunk order; each is a dict with keys
    "witness" (Witness or None) and "bads" (bad primes seen). The merged
    witness is the smallest-v one and skipped primes are trimmed below it,
    which makes the report identical for every chunking of the same window.
    """
    witness = None
    for res in results:
        if res["witness"] is not None:
            witness = res["witness"]
            break
    bads: list[int] = []
    for res in results:
        bads.extend(res["bads"])
    if witness is not None:
        bads = [b for b in bads if b < witness.v]
    return ConditionReport(
        condition_id=condition_id,
        verdict="violated" if witness else "holds_on_scan",
        scanned=(scan.lo, scan.hi),
        witness=witness,
        skipped_primes=tuple(sorted(bads)),
    )


class RelationCertificate(namedtuple("RelationCertificate", "kind coefficients index")):
    """Exact conclusion artifact; every certified identity re-verifies in B(Q).

    kind "membership": coefficients = (alpha, *lambdas), index names which
    point; kind "match": coefficients = (*sigma, *deltas) for a permutation
    with signs.
    """

    __slots__ = ()

    def __new__(cls, kind, coefficients, index=None):
        if kind not in ("membership", "match"):
            raise ValueError(f"unknown certificate kind {kind!r}")
        return super().__new__(cls, kind, coefficients, index)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "membership":
            out["index"] = self.index
            out["alpha"] = self.coefficients[0]
            out["lambdas"] = list(self.coefficients[1:])
        else:
            half = len(self.coefficients) // 2
            out["sigma"] = list(self.coefficients[:half])
            out["deltas"] = list(self.coefficients[half:])
        out["residual_torsion"] = None  # retired field, kept for stable bytes
        return out
