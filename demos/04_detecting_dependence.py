"""Detecting linear dependence by reduction maps.

Membership of P in a subgroup can be tested locally: reduce everything mod
v and ask whether P lands in the reduced subgroup. If that holds for almost
all primes, some nonzero multiple of P lies in the subgroup globally. The
multiplicative backend certifies that conclusion exactly, by integer linear
algebra on exponent vectors; conversely a failing prime is a reusable
counterexample. Exponent recovery (given Q = P^d, find d) runs the same
local-to-global loop with discrete logs glued by the Chinese remainder
theorem.
"""

from fractions import Fraction

try:
    import mwlab
except ImportError:
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    import mwlab

from mwlab import (
    MulPoint,
    MultiplicativeGroup,
    PrimeRange,
    SubgroupSpec,
    detect_dependence,
    exact_membership_multiplicative,
    member_mod,
    recover_exponent,
)

backend = MultiplicativeGroup()
subgroup = SubgroupSpec((MulPoint(6), MulPoint(10)), backend)

print("local looks at 360 against the subgroup generated by 6 and 10:")
for v in (7, 11, 13, 101):
    raw, *raw_gens = backend.reduce([MulPoint(360), *subgroup.generators], v)
    member = member_mod(backend, raw, raw_gens, v)
    print(f"  mod {v}: member = {member}")

print()
print("scan plus exact certificate:")
result = detect_dependence([MulPoint(360)], subgroup, PrimeRange(7, 10_000))
print(f"  scan verdict: {result.report.verdict}")
print(f"  certificate: {result.certificate.to_dict()}")
print("  i.e. 360^1 = 6^2 * 10^1, checked in exact rational arithmetic")

print()
print("a non-member is caught by some small prime and refuted exactly:")
result = detect_dependence([MulPoint(7)], subgroup, PrimeRange(7, 10_000))
w = result.report.witness
print(f"  scan verdict: {result.report.verdict} at v = {w.v} (n = {w.n})")
print(f"  oracle: {exact_membership_multiplicative(MulPoint(7), subgroup)}")

print()
print("sign handling is exact: -1 is never a power-member of <2>,")
print("but it is inside <-2, 2>:")
print(f"  -1 in <2>:    {exact_membership_multiplicative(MulPoint(-1), SubgroupSpec((MulPoint(2),), backend))}")
cert = exact_membership_multiplicative(MulPoint(-1), SubgroupSpec((MulPoint(-2), MulPoint(2)), backend))
print(f"  -1 in <-2,2>: {cert.to_dict()}")

print()
print("exponent recovery through reduced discrete logs:")
for P, Q in ((MulPoint(2), MulPoint(1024)), (MulPoint("5/2"), MulPoint(Fraction(5, 2) ** -17)),
             (MulPoint(2), MulPoint(3))):
    r = recover_exponent(P, Q, backend, PrimeRange(3, 10_000))
    print(f"  P = {P.encode():>4}, Q = {Q.encode():>22}: d = {r.d}  ({r.detail})")
