#!/usr/bin/env python3
"""Potent matrices, their exact counts, and integer-certified upper bounds.

A matrix is (k+1)-potent when A^(k+1) = A.  Over a field whose unit group
contains the k-th roots of unity this is the same as being diagonalizable
with spectrum inside {0, 1, w, ..., w^(k-1)}, so the spectrum counts apply.
Otherwise x^(k+1) - x has repeated or non-linear factors, and the count
joins nilpotent parts over extension fields; the scan confirms both.
The upper bounds are certified by raising both sides to the (k+1)-th power
and comparing exact integers, so even tight cases are decided honestly.
"""

import math

from eigencount import (
    RingSpec,
    bound_finite_ring,
    bound_matrix_ring,
    oracle,
    potent_count,
    roots_of_unity,
)

print("=== spectra of potent matrices ===")
for p, k in [(7, 3), (5, 2), (5, 4), (13, 4)]:
    roots = roots_of_unity(p, k)
    print(f"F_{p}, k={k}: k-th roots of unity {roots}; spectrum {{0}} U roots")

print()
print("=== exact potent counts, formula and scan ===")
for n, p, k in [(2, 2, 1), (2, 3, 2), (2, 7, 3), (2, 5, 4)]:
    field = oracle.PrimeField(p)
    scan = oracle.count_potent(n, field, k)
    formula = potent_count(n, p, k)
    print(f"A^{k + 1}=A in M_{n}(F_{p}): formula {formula}, scan {scan.count}")

print()
print("=== formula and scan agree where x^(k+1)-x has repeated or non-linear factors ===")
for n, p, k, why in [
    (2, 2, 2, "x^3-x = x(x+1)^2; three solutions are not diagonalizable"),
    (2, 5, 3, "x^4-x = x(x-1)(x^2+x+1); some solutions have no eigenvalue in F_5"),
]:
    scan = oracle.count_potent(n, oracle.PrimeField(p), k)
    print(f"A^{k + 1}=A in M_{n}(F_{p}): formula {potent_count(n, p, k)}, scan {scan.count} ({why})")

print()
print("=== certified upper bounds ===")
cases = [(1, 3, 1), (2, 2, 1), (2, 3, 2), (2, 7, 3), (2, 2, 2), (4, 3, 3)]
for n, p, k in cases:
    count = potent_count(n, p, k)
    verdict = bound_matrix_ring(n, p, k, count)
    tight = " (certificates equal: tight)" if (
        verdict.lhs_certificate == verdict.rhs_certificate
    ) else ""
    print(
        f"M_{n}(F_{p}), k={k}: count {count}; "
        f"{verdict.lhs_certificate} <= {verdict.rhs_certificate}: "
        f"{'holds' if verdict.holds else 'VIOLATED'}{tight}"
    )

print()
print("=== bounds for rings that are not matrix algebras ===")
z6 = RingSpec(((2, 1), (3, 1)))
print(f"Z/6 (idempotents {{0,1,3,4}}, count 4), |R|={z6.cardinality}")
for mode in ("theorem3", "corollary"):
    verdict = bound_finite_ring(z6, 1, 4, mode)
    print(
        f"  mode {mode}: {verdict.lhs_certificate} <= {verdict.rhs_certificate}: "
        f"{'holds' if verdict.holds else 'VIOLATED'}"
    )

print()
print("=== proof-internal composition estimates (informational only) ===")
# The bound's derivation uses N(s) <= (n-1)^s for s >= 3 and
# (k+1)(n-1)^(k+1) <= (k+1)^n; neither is load-bearing for the final
# inequality, so failures here are flagged, not asserted.
for n in range(2, 9):
    for s in range(3, n + 1):
        if math.comb(n - 1, s - 1) > (n - 1) ** s:
            print(f"  note: N({s}) > (n-1)^{s} at n={n}")
for n in range(2, 9):
    for k in range(2, n + 1):
        if (k + 1) * (n - 1) ** (k + 1) > (k + 1) ** n:
            print(f"  note: (k+1)(n-1)^(k+1) > (k+1)^n at n={n}, k={k}")
print("  done scanning n <= 8")
