"""Counting formulas: compositions, group orders, class sizes, M/E counts."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencount.counting import (
    MAX_SHAPE,
    UnsupportedField,
    class_size_poly,
    count_e_poly,
    count_m_poly,
    gl_order_poly,
    is_prime,
    is_prime_power,
    potent_count,
    roots_of_unity,
    strict_compositions,
    table_rows,
    validate_spectrum,
)
from eigencount.qpoly import IntPoly
from eigencount.reference import REFERENCE_E_TABLE


# By-definition reference for the counts, in plain integers at one field
# size q.  It enumerates compositions and divides group orders, and shares
# no code with the recurrence in eigencount.counting.


def weak_compositions(n, k):
    """Ordered k-tuples of nonnegative integers summing to n, lexicographic.

    Shifting every part up by one is a bijection with the strict
    compositions of n+k into k parts.
    """
    for parts in strict_compositions(n + k, k):
        yield tuple(part - 1 for part in parts)


def gl_order(n, q):
    """|GL_n(F_q)|: the number of ordered bases of F_q^n."""
    return math.prod(q**n - q**i for i in range(n))


def class_size(parts, q):
    """|GL_n(F_q)| / prod |GL_{n_i}(F_q)|, asserting the division is exact."""
    size, remainder = divmod(
        gl_order(sum(parts), q), math.prod(gl_order(m, q) for m in parts)
    )
    assert remainder == 0, (parts, q)
    return size


def composition_sum(n, k, strict, q):
    comps = strict_compositions(n, k) if strict else weak_compositions(n, k)
    return sum(class_size(parts, q) for parts in comps)


class TestCompositions:
    def test_weak_small(self):
        assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]

    def test_weak_zero_total(self):
        assert list(weak_compositions(0, 3)) == [(0, 0, 0)]

    def test_weak_count(self):
        assert sum(1 for _ in weak_compositions(4, 3)) == 15
        assert 15 == math.comb(6, 2)

    def test_strict_small(self):
        assert list(strict_compositions(3, 2)) == [(1, 2), (2, 1)]

    def test_strict_all_ones(self):
        assert list(strict_compositions(5, 5)) == [(1, 1, 1, 1, 1)]

    def test_strict_count(self):
        assert sum(1 for _ in strict_compositions(6, 3)) == 10

    def test_strict_empty_when_too_many_parts(self):
        assert list(strict_compositions(2, 3)) == []

    def test_lexicographic_and_unique(self):
        for gen, n, k in [(weak_compositions, 5, 3), (strict_compositions, 7, 3)]:
            seen = list(gen(n, k))
            assert seen == sorted(seen)
            assert len(seen) == len(set(seen))
            assert all(sum(c) == n and len(c) == k for c in seen)

    def test_stream_length_matches_n_strict(self):
        # N(s), the number of strict compositions into s parts, is C(n-1, s-1)
        for n in range(1, 21):
            for s in range(1, n + 1):
                assert sum(1 for _ in strict_compositions(n, s)) == math.comb(n - 1, s - 1)


class TestGlOrder:
    def test_empty_group(self):
        assert gl_order_poly(0) == IntPoly((1,))

    def test_units_of_field(self):
        assert str(gl_order_poly(1)) == "q-1"

    def test_two_by_two(self):
        assert str(gl_order_poly(2)) == "q^4-q^3-q^2+q"
        assert gl_order_poly(2)(2) == 6

    def test_known_orders(self):
        # |GL_3(F_2)| = 168, |GL_2(F_3)| = 48, |GL_2(F_5)| = 480
        assert gl_order_poly(3)(2) == 168
        assert gl_order_poly(2)(3) == 48
        assert gl_order_poly(2)(5) == 480


class TestClassSize:
    def test_single_block_is_scalar(self):
        for n in (1, 2, 5):
            assert class_size_poly((n,)) == IntPoly((1,))

    def test_two_singletons(self):
        assert str(class_size_poly((1, 1))) == "q^2+q"

    def test_one_two_split(self):
        assert str(class_size_poly((1, 2))) == "q^4+q^3+q^2"

    def test_order_invariance(self):
        assert class_size_poly((1, 2)) == class_size_poly((2, 1))

    def test_zero_parts_drop_out(self):
        assert class_size_poly((0, 2)) == IntPoly((1,))
        assert class_size_poly((0, 1, 1)) == class_size_poly((1, 1))

    def test_positive_at_small_field_sizes(self):
        for n in range(1, 9):
            for s in range(1, n + 1):
                for parts in strict_compositions(n, s):
                    poly = class_size_poly(parts)
                    for q in (2, 3, 5, 11):
                        assert poly(q) >= 1

    def test_never_inexact_up_to_twelve(self):
        # every composition of every n <= 12 is the exact group-order quotient
        for n in range(1, 13):
            for s in range(1, n + 1):
                for parts in strict_compositions(n, s):
                    assert class_size_poly(parts)(2) == class_size(parts, 2), parts


class TestCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_single_eigenvalue(self, n):
        assert count_m_poly(n, 1) == IntPoly((1,))
        assert count_e_poly(n, 1) == IntPoly((1,))

    def test_m_two_by_two(self):
        assert str(count_m_poly(2, 2)) == "q^2+q+2"
        assert count_m_poly(2, 2)(2) == 8
        assert count_m_poly(2, 2)(5) == 32

    def test_m_three_by_three(self):
        assert str(count_m_poly(3, 2)) == "2q^4+2q^3+2q^2+2"

    def test_e_first_rows(self):
        assert str(count_e_poly(3, 2)) == "2q^4+2q^3+2q^2"
        assert str(count_e_poly(3, 3)) == "q^6+2q^5+2q^4+q^3"

    def test_e_too_many_eigenvalues(self):
        assert count_e_poly(2, 3).is_zero()
        assert count_e_poly(3, 7).is_zero()

    def test_decomposition_identity(self):
        # M sums the class sizes over the weak compositions of n into k
        # parts; both sides have degree at most n^2 - n in q, so agreeing at
        # n^2 points makes them the same polynomial
        for n in range(1, 6):
            for k in range(1, 6):
                m = count_m_poly(n, k)
                assert m.degree <= n * n - n, (n, k)
                for q in range(2, n * n + 2):
                    assert m(q) == composition_sum(n, k, False, q), (n, k, q)

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 10**3, 10**6, 10**18])
    def test_at_q_equal_one(self, k):
        # at q = 1 a class size is a multinomial coefficient, so M counts
        # all maps from n points to k values and E the surjective ones
        for n in range(1, 9):
            # k! S(n, k) by inclusion-exclusion, 0 when k > n
            surjections = sum(
                (-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)
            ) if k <= n else 0
            assert count_m_poly(n, k)(1) == k**n, n
            assert count_e_poly(n, k)(1) == surjections, n


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 8), st.integers(1, 6)),
        # k up to 3n, well past n, where E vanishes and M stops growing in cost
        st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 3 * n))),
    ),
    strict=st.booleans(),
)
def test_recurrence_matches_composition_sum(shape, strict):
    n, k = shape
    poly = count_e_poly(n, k) if strict else count_m_poly(n, k)
    # both sides have degree at most n^2 - n, so n^2 points pin the polynomial
    for q in range(2, n * n + 2):
        assert poly(q) == composition_sum(n, k, strict, q), q


class TestTable:
    def test_all_rows_match_reference(self):
        rows = {(n, k): str(p) for n, k, p in table_rows(6)}
        assert len(rows) == 14
        for n, k, expected in REFERENCE_E_TABLE:
            assert rows[(n, k)] == expected, (n, k)

    def test_specific_rows(self):
        rows = {(n, k): str(p) for n, k, p in table_rows(6)}
        assert rows[(4, 4)] == "q^12+3q^11+5q^10+6q^9+5q^8+3q^7+q^6"
        assert (
            rows[(5, 2)] == "2q^12+2q^11+4q^10+4q^9+6q^8+4q^7+4q^6+2q^5+2q^4"
        )

    def test_last_row_leading_term(self):
        poly = dict(((n, k), p) for n, k, p in table_rows(6))[(6, 6)]
        assert poly.degree == 30
        assert poly.coeffs[30] == 1

    def test_small_table(self):
        assert [(n, k) for n, k, _ in table_rows(3)] == [(3, 2), (3, 3)]

    def test_extends_past_reference(self):
        rows = table_rows(7)
        assert len(rows) == 14 + 6


class TestRootsOfUnity:
    def test_cubes_mod_seven(self):
        assert roots_of_unity(7, 3) == [1, 2, 4]

    def test_square_roots_mod_five(self):
        assert roots_of_unity(5, 2) == [1, 4]

    def test_trivial(self):
        assert roots_of_unity(5, 1) == [1]

    def test_length_is_gcd(self):
        for p in (2, 3, 5, 7, 11, 13):
            for k in range(1, 13):
                assert len(roots_of_unity(p, k)) == math.gcd(k, p - 1)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            roots_of_unity(6, 2)


class TestPotentCount:
    def test_idempotents_of_scalar_field(self):
        assert potent_count(1, 3, 1) == 2

    def test_four_potents(self):
        assert potent_count(2, 7, 3) == 340

    def test_three_potents(self):
        assert potent_count(2, 3, 2) == 39

    def test_full_field_spectrum(self):
        # x^5 = x catches every diagonalizable matrix over F_5
        assert potent_count(2, 5, 4) == count_m_poly(2, 5)(5)

    @pytest.mark.parametrize("n,p,k", [(2, 3, 3), (2, 2, 2), (1, 7, 4)])
    def test_unsupported_when_k_does_not_divide(self, n, p, k):
        with pytest.raises(UnsupportedField):
            potent_count(n, p, k)


class TestSpectrumValidation:
    def test_accepts(self):
        assert validate_spectrum(5, [0, 4, 2]) == (0, 4, 2)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            validate_spectrum(6, [0, 1])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            validate_spectrum(5, [1, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_spectrum(5, [5])
        with pytest.raises(ValueError):
            validate_spectrum(5, [-1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_spectrum(5, [])


def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)
    assert is_prime(257)
    assert not is_prime(257 * 263)


@pytest.mark.parametrize(
    "n, expected",
    [
        (10**18 + 3, True),
        (2**61 - 1, True),
        (2**89 - 1, True),  # above the exact range: a base-2 strong probable prime
        (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5, 7
        (318665857834031151167461, False),  # strong pseudoprime to the bases 2..37
        ((2**61 - 1) * (2**31 - 1), False),
    ],
)
def test_is_prime_large(n, expected):
    assert is_prime(n) == expected


def test_is_prime_power_by_factoring():
    for q in range(5000):
        primes = {f for f in range(2, q + 1) if q % f == 0 and is_prime(f)}
        assert is_prime_power(q) == (len(primes) == 1), q


@pytest.mark.parametrize(
    "q, expected",
    [
        (2**61 - 1, True),
        ((2**61 - 1) ** 3, True),
        (1093**2, True),  # 2^(q-1) = 1 mod q: a base-2 Fermat test alone is fooled
        (3**200, True),
        (2**127, True),
        ((2**61 - 1) * (2**31 - 1), False),
        (3825123056546413051, False),  # strong pseudoprime to the bases 2..23
        (10**30, False),
        (6**40, False),
    ],
)
def test_is_prime_power_large(q, expected):
    assert is_prime_power(q) == expected


class TestSizeLimit:
    # (n, k) of the benchmark's WIDE and DEEP count jobs, the largest table
    # row, and the largest shape the acceptance identities build
    ADMITTED = [(10, 10), (9, 9), (12, 6), (40, 2), (30, 3), (20, 4), (30, 2), (8, 8)]

    @pytest.mark.parametrize("n, k", ADMITTED)
    def test_admits_used_shapes(self, n, k):
        assert k * n**3 <= MAX_SHAPE

    @pytest.mark.parametrize("n, k", [(40, 10), (41, 2), (20, 20)])
    @pytest.mark.parametrize("strict", [False, True])
    def test_refuses_large_shapes(self, n, k, strict):
        build = count_e_poly if strict else count_m_poly
        with pytest.raises(ValueError, match="size limit"):
            build(n, k)

    @pytest.mark.parametrize("strict", [False, True])
    def test_large_k_answers(self, strict):
        # the limit bounds min(n, k) * n^3; E-counts with k > n are 0
        if strict:
            assert count_e_poly(1, 10**9).is_zero()
        else:
            assert count_m_poly(1, 10**9) == IntPoly((10**9,))

    def test_refusal_names_rule_and_eigenvalue_count(self):
        # A^3 = A prescribes the spectrum {0, 1, -1}: three values, not k = 2
        with pytest.raises(ValueError, match=r"n=50 with 3 prescribed eigenvalues .* min\(n,k\)\*n\^3"):
            potent_count(50, 3, 2)
