"""Acceptance suite: one test per criterion, one printed line per criterion.

Every comparison is exact integer or exact polynomial equality; there are
no tolerances anywhere.  Stated runtime ceilings are asserted as well,
with wide margins.  Asymptotic looseness of the upper bounds at large n
is out of reach of desk-scale enumeration by design; the bound criteria
here rest entirely on exact certificate comparisons.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import functools
import itertools
import math
import time
from contextlib import contextmanager

from conftest import poly_add, poly_mul, poly_scale

from eigencount import bounds, cli, counting, oracle
from eigencount.qpoly import IntPoly


@contextmanager
def criterion(label, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"{label} took {elapsed:.2f}s, limit {limit_seconds}s"
    print(f"[acceptance] {label}: PASS ({elapsed:.2f}s)")


GRID = [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2)]


def test_criterion_1_reference_table(capsys):
    with criterion("1 reference table regeneration", 1.0):
        code = cli.main(["table", "--n-max", "6"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 14
        assert all("verdict=match" in line for line in lines)
        # hand-expanded rows pinned independently of the fixture module
        rows = {(n, k): str(p) for n, k, p in counting.table_rows(6)}
        assert rows[(3, 2)] == "2q^4+2q^3+2q^2"
        assert rows[(3, 3)] == "q^6+2q^5+2q^4+q^3"
        assert rows[(4, 4)] == "q^12+3q^11+5q^10+6q^9+5q^8+3q^7+q^6"
        # oracle adjudication hook at q=2 for the binary-checkable row
        assert rows[(3, 2)] == str(
            IntPoly([0, 0, 2, 2, 2])
        ) and oracle.count_spectra(3, oracle.PrimeField(2), [[0, 1]])[0][1].count == (
            counting.count_e_poly(3, 2)(2)
        )
    print()


def test_criterion_2_formula_oracle_grid():
    with criterion("2 formula-oracle equivalence grid", 180.0):
        comparisons = 0
        for n, p in GRID:
            spectra = [
                alphas
                for size in range(1, min(n + 1, p) + 1)
                for alphas in itertools.combinations(range(p), size)
            ]
            # every spectrum of the shape from one scan
            pairs = oracle.count_spectra(n, oracle.PrimeField(p), spectra)
            for alphas, (m_scan, e_scan) in zip(spectra, pairs, strict=True):
                m_formula = counting.count_m_poly(n, len(alphas))(p)
                e_formula = counting.count_e_poly(n, len(alphas))(p)
                assert m_scan.count == m_formula, (n, p, alphas, "m")
                assert e_scan.count == e_formula, (n, p, alphas, "e")
                comparisons += 2
        assert comparisons == 2 * (3 + 7 + 25 + 63 + 3 + 7 + 3)
    print()


def test_criterion_3_anchored_values():
    with criterion("3 anchored values", 30.0):
        F2, F3, F7 = (oracle.PrimeField(p) for p in (2, 3, 7))
        # idempotents of M_2(F_2)
        assert counting.count_m_poly(2, 2)(2) == 8
        assert oracle.count_spectra(2, F2, [[0, 1]])[0][0].count == 8
        assert oracle.count_potent(2, F2, 1).count == 8
        # exact spectrum {0,1} in M_3(F_2)
        assert counting.count_e_poly(3, 2)(2) == 56
        assert oracle.count_spectra(3, F2, [[0, 1]])[0][1].count == 56
        # 4-potents of M_2(F_7)
        assert counting.potent_count(2, 7, 3) == 340
        assert oracle.count_potent(2, F7, 3).count == 340
        # 3-potents of M_2(F_3)
        assert counting.potent_count(2, 3, 2) == 39
        assert oracle.count_potent(2, F3, 2).count == 39
        # A^3 = A over M_2(F_2), where x^3 - x = x(x-1)^2 has a repeated
        # factor: 8 idempotents and 3 non-diagonalizable solutions
        assert counting.potent_count(2, 2, 2) == 11
        assert oracle.count_potent(2, F2, 2).count == 11
    print()


def test_criterion_4_eigenvalue_anonymity():
    with criterion("4 eigenvalue anonymity over F_5", 30.0):
        field = oracle.PrimeField(5)
        expected = counting.count_m_poly(2, 2)(5)
        assert expected == 32
        spectra = list(itertools.combinations(range(5), 2))
        assert len(spectra) == 10
        counts = {m.count for m, _ in oracle.count_spectra(2, field, spectra)}
        assert counts == {32}
    print()


def test_criterion_5_orbit_stabilizer():
    with criterion("5 orbit-stabilizer suite", 30.0):
        for n, p in [(2, 2), (2, 3), (2, 5), (3, 2)]:
            field = oracle.PrimeField(p)
            gl = counting.gl_order_poly(n)(p)
            # block representatives need as many distinct eigenvalues as parts
            for s in range(1, min(n, p) + 1):
                for parts in counting.strict_compositions(n, s):
                    orbit = oracle.orbit_size(parts, field)
                    stab = oracle.centralizer_size(parts, field)
                    assert orbit * stab == gl, (n, p, parts)
                    assert orbit == counting.class_size_poly(parts)(p), (n, p, parts)
    print()


def test_criterion_6_bound_certification():
    with criterion("6 bound certification", 1.0):
        # the tight case: certificates agree exactly
        tight = bounds.bound_matrix_ring(1, 3, 1, counting.potent_count(1, 3, 1))
        assert tight.holds
        assert tight.lhs_certificate == tight.rhs_certificate == 36

        # every potent count on the grid for k = 1..p+1, whether or not k
        # divides p-1: the inequality is claimed for every k
        checked = 0
        for n, p in GRID:
            for k in range(1, p + 2):
                count = counting.potent_count(n, p, k)
                verdict = bounds.bound_matrix_ring(n, p, k, count)
                assert verdict.holds, (n, p, k, count)
                ring = bounds.RingSpec(((p, n * n),))
                assert bounds.bound_finite_ring(ring, k, count, "theorem2").holds
                assert bounds.bound_finite_ring(ring, k, count, "theorem3").holds
                assert bounds.bound_finite_ring(ring, k, count, "corollary").holds
                checked += 1
        assert checked == sum(p + 1 for _, p in GRID)

        # anchored potent counts from criterion 3
        for n, p, k, count in [(2, 2, 1, 8), (2, 7, 3, 340), (2, 3, 2, 39)]:
            assert bounds.bound_matrix_ring(n, p, k, count).holds

        # a genuinely composite ring: idempotents of Z/6 are {0,1,3,4}
        z6 = bounds.RingSpec(((2, 1), (3, 1)))
        assert bounds.bound_finite_ring(z6, 1, 4, "theorem3").holds
        assert bounds.bound_finite_ring(z6, 1, 4, "corollary").holds
    print()


def test_criterion_7_polynomial_identities():
    with criterion("7 polynomial identities", 5.0):
        for n in range(1, 9):
            for k in range(1, 9):
                rhs = poly_add(*(
                    poly_scale(math.comb(k, s), counting.count_e_poly(n, s).coeffs)
                    for s in range(1, k + 1)
                ))
                assert counting.count_m_poly(n, k).coeffs == rhs, (n, k)
        # orbit-stabilizer: class size times centralizer order is |GL_n|,
        # for every composition up to n = 12
        for n in range(1, 13):
            for s in range(1, n + 1):
                for parts in counting.strict_compositions(n, s):
                    stabilizer = functools.reduce(
                        poly_mul, (counting.gl_order_poly(m).coeffs for m in parts), (1,)
                    )
                    assert poly_mul(counting.class_size_poly(parts).coeffs, stabilizer) == (
                        counting.gl_order_poly(n).coeffs
                    ), parts
    print()
