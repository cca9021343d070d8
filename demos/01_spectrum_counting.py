#!/usr/bin/env python3
"""How many n-by-n matrices over F_q are diagonalizable with a given spectrum?

Walks through the pieces of the closed-form count: compositions of n,
general-linear-group orders, conjugacy-class sizes, and the two flavors of
count (spectrum contained in a set vs spectrum exactly a set).  Everything
is an exact polynomial in the field size q.
"""

import itertools
import math

from eigencount import (
    IntPoly,
    class_size_poly,
    count_e_poly,
    count_m_poly,
    gl_order_poly,
    strict_compositions,
    table_rows,
)

print("=== group orders ===")
for n in range(5):
    poly = gl_order_poly(n)
    print(f"|GL_{n}| = {poly}   at q=2: {poly(2)}")

print()
print("=== compositions of 4 into 2 parts ===")
print("strict:", list(strict_compositions(4, 2)))
# weak compositions of 4 are the strict ones of 4+2 with every part less one
print("weak  :", [tuple(p - 1 for p in c) for c in strict_compositions(6, 2)])

print()
print("=== class sizes for diagonal representatives, n = 4 ===")
for parts in strict_compositions(4, 2):
    print(f"multiplicities {parts}: class size {class_size_poly(parts)}")

print("the exact-spectrum counts below sum these sizes without listing the")
print("compositions: they split off one eigenspace at a time, q^(j(n-j)) [n choose j]_q ways")

print()
print("=== counts for n = 2, two prescribed eigenvalues ===")
m = count_m_poly(2, 2)
e = count_e_poly(2, 2)
print(f"spectrum inside the set : {m}")
print(f"spectrum exactly the set: {e}")
print("the difference, 2, is the two scalar matrices")
for q in (2, 3, 5, 7):
    print(f"  q={q}: inside={m(q)}  exact={e(q)}")

print()
print("=== spectrum inside k values: choose the s values that occur ===")
print("M(2,k) = sum over s of C(k,s) E(2,s); its cost does not grow with k")
for k in (1, 2, 3, 10**6):
    # coefficient by coefficient, on the plain-integer coefficient tuples
    terms = [[math.comb(k, s) * c for c in count_e_poly(2, s).coeffs] for s in (1, 2)]
    via_e = IntPoly(map(sum, itertools.zip_longest(*terms, fillvalue=0)))
    print(f"  k={k}: count_m_poly = {count_m_poly(2, k)}   sum = {via_e}")

print()
print("=== the n = 3..6 reference table ===")
for n, k, poly in table_rows(6):
    print(f"n={n} k={k}: {poly}")

print()
print("=== the count does not depend on which eigenvalues you pick ===")
print("idempotents (A^2=A) of M_2(F_5)      :", count_m_poly(2, 2)(5))
print("involutions (A^2=I) of M_2(F_5)      :", count_m_poly(2, 2)(5))
print("any other two-element spectrum gives  :", count_m_poly(2, 2)(5))
