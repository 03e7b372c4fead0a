"""The elliptic backend: exact rational points, reductions, orders, torsion.

Everything the multiplicative demos do carries over to a curve: reduction
at a good prime is a group homomorphism onto E(F_v), point orders come from
the curve's group order by exponent stripping, and the same local-global
machinery detects dependence. Point counting is Shanks-Mestre (point
orders by baby-step giant-step in the Hasse interval), with enumeration
where the orders leave the count ambiguous, cross-checked by the Hasse
bound on every call.
"""

try:
    import mwlab
except ImportError:
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    import mwlab

from mwlab import (
    EllipticGroup,
    PrimeRange,
    SubgroupSpec,
    WeierstrassCurve,
    detect_dependence,
    elliptic_independence_check,
    recover_exponent,
    torsion_order_stability,
)

curve = WeierstrassCurve.parse("ec:0,0,1,-1,0")  # y^2 + y = x^3 - x
E = EllipticGroup(curve)
G = curve.point(0, 0)

print(f"curve {curve.encode()}, discriminant {curve.discriminant}")
print("multiples of the generator (0,0):")
P = G
for k in range(1, 7):
    print(f"  {k}G = {P.encode()}")
    P = curve.add(P, G)

print()
print("point counts over small fields (all inside the Hasse window):")
for v in (2, 3, 5, 7, 11, 13):
    print(f"  |E(F_{v})| = {E.group_order_mod(v)},  ord of G mod {v} = {E.order_mod(G, v)}")

print()
print("torsion: this curve has none beyond the identity; y^2 = x^3 - x has")
print("full 2-torsion, located by division polynomials and certified stable:")
cxx = WeierstrassCurve(0, 0, 0, -1, 0)
EX = EllipticGroup(cxx)
for T in EX.torsion_elements():
    print(f"  {T.encode()}")
report = torsion_order_stability(EX, cxx.point(0, 0), PrimeRange(3, 500))
print(f"  ord_v((0,0)) = ord((0,0)) at every good prime in [3,500]: {report.verdict}")

print()
print("dependence detection on the curve (bounded search instead of an oracle):")
subgroup = SubgroupSpec((G,), E)
result = detect_dependence([curve.mul(2, G)], subgroup, PrimeRange(3, 300))
print(f"  2G against <G>: {result.report.verdict}, certificate {result.certificate.to_dict()}")

result = detect_dependence([G], SubgroupSpec((curve.mul(2, G),), E), PrimeRange(3, 300))
print(f"  G against <2G>: {result.report.verdict} at v = {result.report.witness.v}")

print()
print("exponent recovery and an independence cross-check:")
r = recover_exponent(G, curve.mul(-9, G), E, PrimeRange(3, 2000))
print(f"  solve Q = d*G for Q = -9G: d = {r.d}")
rank2 = WeierstrassCurve(0, 1, 1, -2, 0)
E2 = EllipticGroup(rank2)
ok = elliptic_independence_check(E2, [rank2.point(0, 0), rank2.point(1, 0)], bound=6)
print(f"  (0,0), (1,0) on {rank2.encode()} pass the independence screen: {ok}")
