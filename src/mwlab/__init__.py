"""Local-global toolkit for Mordell-Weil type groups over Q.

Checks support-style conditions by exact per-prime order divisibility,
hunts primes realizing prescribed valuation patterns on point orders,
detects linear dependence through reduction maps, and certifies every
conclusion with exact arithmetic. Two backends: the multiplicative group
of Q (S-units) and elliptic curves over Q.
"""

from .dependence import (
    DetectionResult,
    RecoveryResult,
    SubgroupSpec,
    detect_dependence,
    exact_membership_multiplicative,
    member_mod,
    recover_exponent,
)
from .mwgroup import (
    EC_IDENTITY,
    EcPoint,
    EllipticGroup,
    MulPoint,
    MultiplicativeGroup,
    ReducedPoint,
    WeierstrassCurve,
    curve_group_order,
    elliptic_independence_check,
    multiplicative_independence,
    torsion_order_stability,
)
from .numth import (
    Factorization,
    PrimeRange,
    bsgs_dlog,
    crt,
    exact_valuation,
    factor,
    is_prime,
    multiplicative_order,
    primes_in,
)
from .primesearch import (
    DensityReport,
    PatternHit,
    ValuationPattern,
    find_pattern_primes,
    pattern_density,
    replay_step1,
    replay_step2_lcm,
)
from .reports import ConditionReport, RelationCertificate, Witness
from .support import (
    SupportSet,
    corrales_schoof_at_prime,
    divisibility_cover_at_prime,
    erdos_exact_at_prime,
    scan_condition,
    scan_cor22,
    scan_corrales_schoof,
    scan_erdos_union,
    scan_thm2,
    support_of,
    support_union_at_n,
    verify_conclusion_match,
    verify_witness,
)

__version__ = "0.1.0"
