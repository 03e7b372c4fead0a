"""Replaying the witness constructions behind the support-problem theorems.

The key move: given P and Q_1, ..., Q_t, find a prime v where some exponent
n kills P mod v but kills no Q_i. Such a pair (v, n) concretely refutes the
vanishing-cover condition "nP = 0 (mod v) implies nQ_i = 0 (mod v) for some
i". Step 1 locates v through an l-divisibility pattern on the orders and
takes n = ord_v P; step 2 builds refutation exponents as an lcm of orders
with prescribed l-powers stripped.
"""

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
    replay_step1,
    replay_step2_lcm,
)

backend = MultiplicativeGroup()

print("refuting the cover condition for P = 2 against Q = 3 (pattern prime l = 5):")
w = replay_step1(MulPoint(2), [MulPoint(3)], 5, backend, PrimeRange(3, 1000))
print(f"  witness v = {w.v}, n = {w.n}")
print(f"  check: ord_{w.v}(2) = {backend.order_mod(MulPoint(2), w.v)}, "
      f"ord_{w.v}(3) = {backend.order_mod(MulPoint(3), w.v)}")
print(f"  2^{w.n} mod {w.v} = {pow(2, w.n, w.v)},  3^{w.n} mod {w.v} = {pow(3, w.n, w.v)}")

print()
print("for Q = 4 = 2^2 no witness can exist: ord_v(4) always divides ord_v(2),")
print("so every n killing 2 also kills 4. The search honestly comes back empty:")
print(f"  replay_step1(2, [4], l=5) -> {replay_step1(MulPoint(2), [MulPoint(4)], 5, backend, PrimeRange(3, 1000))}")

print()
print("lcm construction: strip prescribed l-powers from orders, take the lcm")
for orders, divisors in (((20, 8), (5, 1)), ((6,), (1,)), ((25, 5), (25, 5))):
    n = replay_step2_lcm(list(orders), list(divisors))
    print(f"  orders {orders}, stripped by {divisors} -> n = {n}")
