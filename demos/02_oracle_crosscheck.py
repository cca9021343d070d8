#!/usr/bin/env python3
"""Brute force against closed form: scan every matrix and recount.

The oracle enumerates all p^(n*n) matrices over a small prime field and
tests the defining conditions directly, sharing nothing with the formulas.
This script crosschecks both spectrum counts on small fields and then
verifies the orbit-stabilizer picture behind the class-size formula.
"""

import itertools

from eigencount import class_size_poly, count_e_poly, count_m_poly, gl_order_poly, oracle

print("=== formula vs exhaustive scan ===")
for n, p in [(2, 2), (2, 3), (3, 2)]:
    field = oracle.PrimeField(p)
    spectra = [a for size in range(1, min(n + 1, p) + 1) for a in itertools.combinations(range(p), size)]
    # one scan for them all: per spectrum, the annihilated matrices, then
    # those of them that have every alpha as an eigenvalue
    for alphas, (m_scan, e_scan) in zip(spectra, oracle.count_spectra(n, field, spectra)):
        m_formula = count_m_poly(n, len(alphas))(p)
        e_formula = count_e_poly(n, len(alphas))(p)
        tag = "ok" if (m_scan.count, e_scan.count) == (m_formula, e_formula) else "MISMATCH"
        print(
            f"n={n} p={p} spectrum={set(alphas)}: "
            f"inside {m_scan.count}={m_formula}, exact {e_scan.count}={e_formula} [{tag}]"
        )

print()
print("=== why the class size is a ratio of group orders ===")
F3 = oracle.PrimeField(3)
for parts in [(2,), (1, 1), (1, 2), (1, 1, 1)]:
    n = sum(parts)
    orbit = oracle.orbit_size(parts, F3)
    stab = oracle.centralizer_size(parts, F3)
    gl = gl_order_poly(n)(3)
    print(
        f"multiplicities {parts}: orbit {orbit} x centralizer {stab} = {orbit * stab} "
        f"= |GL_{n}(F_3)| = {gl}; formula {class_size_poly(parts)(3)}"
    )

print()
print("=== the six rank-one idempotents of M_2(F_2) ===")
F2 = oracle.PrimeField(2)
rep = oracle.block_diag_rep((1, 1), F2).tolist()  # diag(0, 1)


def mul2(x, y):
    """2x2 product over F_2."""
    return [[(x[i][0] * y[0][j] + x[i][1] * y[1][j]) % 2 for j in range(2)] for i in range(2)]


seen = set()
for a, b, c, d in itertools.product(range(2), repeat=4):
    if (a * d - b * c) % 2 == 0:
        continue
    # determinant 1: the inverse is the adjugate
    inv = [[d, -b % 2], [-c % 2, a]]
    seen.add(tuple(map(tuple, mul2(mul2([[a, b], [c, d]], rep), inv))))
for m in sorted(seen):
    print(" ", [list(row) for row in m])
print("orbit size:", len(seen))
