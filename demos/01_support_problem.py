"""The support problem, made executable.

supp(m) is the set of primes dividing m. Two natural numbers x and y can be
compared through the supports of x^n - 1 and y^n - 1 for every exponent n:
if the supports always agree, the numbers must essentially be the same. The
quantifier over all n sounds uncheckable, but at a fixed prime p it
collapses: p divides x^n - 1 exactly when ord_p(x) divides n, so the whole
condition becomes a finite divisibility statement about orders. This script
walks that reduction and then scans for a prime telling {2} and {8} apart.
"""

try:
    import mwlab
except ImportError:  # running from a source checkout
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    import mwlab

from mwlab import (
    MulPoint,
    PrimeRange,
    scan_erdos_union,
    support_of,
    support_union_at_n,
    verify_conclusion_match,
    verify_witness,
)

print("supports of small numbers")
for m in (1, 15, 63, 2**10 - 1):
    print(f"  supp({m}) = {sorted(support_of(m))}")

print()
print("supp(2^n - 1) for a few n, computed from orders (never forming 2^n - 1):")
for n in (1, 4, 11, 2**40):
    primes = sorted(support_union_at_n([2], n, 200))
    print(f"  n = {n}: primes up to 200 dividing 2^n - 1: {primes}")

print()
print("Does the support union of {2} match the support union of {8} at all n?")
report = scan_erdos_union([2], [8], PrimeRange(3, 10_000))
w = report.witness
print(f"  verdict: {report.verdict}")
print(f"  witness: prime v = {w.v}, exponent n = {w.n}")
print(f"  ({w.detail})")

# The witness re-verifies without any order machinery: just exponentiate.
assert verify_witness("erdos_union", {"xs": [2], "ys": [8]}, w.v, w.n)
print(f"  literal recheck: supp(2^{w.n} - 1) = {sorted(support_of(2**w.n - 1)) if 2**w.n > 1 else []}, "
      f"supp(8^{w.n} - 1) = {sorted(support_of(8**w.n - 1))}")

print()
print("When the condition DOES hold for tuples, the conclusion is a matching")
print("up to inversion. Exact certificate for {2/3, 5} vs {5, 3/2}:")
cert = verify_conclusion_match(
    [MulPoint("2/3"), MulPoint(5)], [MulPoint(5), MulPoint("3/2")]
)
print(f"  {cert.to_dict()}")
