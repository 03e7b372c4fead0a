"""Local-global toolkit for Mordell-Weil type groups over Q.

Checks support-style conditions by exact per-prime order divisibility,
hunts primes realizing prescribed valuation patterns on point orders,
detects linear dependence through reduction maps, and certifies every
conclusion with exact arithmetic. Two backends: the multiplicative group
of Q (S-units) and elliptic curves over Q.

The public names and the submodules load on first access (PEP 562), so
`import mwlab` and `python -m mwlab <command>` import only what they use.
"""

import importlib

# submodule -> the public names it provides
_EXPORTS = {
    "dependence": (
        "DetectionResult", "RecoveryResult", "SubgroupSpec", "detect_dependence",
        "exact_membership_multiplicative", "member_mod", "recover_exponent",
    ),
    "elliptic": ("EC_IDENTITY", "EcPoint", "EllipticGroup", "WeierstrassCurve",
                 "elliptic_independence_check"),
    "mwgroup": (
        "MulPoint", "MultiplicativeGroup", "multiplicative_independence", "torsion_order_stability",
    ),
    "numth": (
        "Factorization", "PrimeRange", "bsgs_dlog", "crt", "exact_valuation", "factor",
        "is_prime", "multiplicative_order", "primes_in",
    ),
    "primesearch": (
        "DensityReport", "PatternHit", "ValuationPattern", "find_pattern_primes",
        "pattern_density", "replay_step1", "replay_step2_lcm",
    ),
    "reports": ("ConditionReport", "RelationCertificate", "Witness"),
    "support": (
        "scan_cor22", "scan_corrales_schoof", "scan_erdos_union", "scan_thm2", "support_of",
        "support_union_at_n", "verify_conclusion_match", "verify_witness",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("_parallel", "cli", "experiments", *_EXPORTS)

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
