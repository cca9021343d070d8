"""Counting formulas: compositions, group orders, class sizes, M/E counts."""

import ast
import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from conftest import canonical, poly_add, poly_mul, poly_scale
from hypothesis import strategies as st

from eigencount import counting
from eigencount.counting import (
    MAX_SHAPE,
    _exact_row,
    _join,
    _nilpotent_count,
    _split_rows,
    _strict_sums,
    _unpack,
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
from eigencount.qpoly import ZERO, IntPoly
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
    """|GL_n(F_q)| / prod |GL_{n_i}(F_q)|, asserting the division is exact.

    It depends only on the multiset of nonzero parts, so it is divided out
    once per multiset and q, however many compositions share it.
    """
    return _class_size(tuple(sorted(m for m in parts if m)), q)


@functools.cache
def _class_size(parts, q):
    size, remainder = divmod(
        gl_order(sum(parts), q), math.prod(gl_order(m, q) for m in parts)
    )
    assert remainder == 0, (parts, q)
    return size


def composition_sum(n, k, strict, q):
    comps = strict_compositions(n, k) if strict else weak_compositions(n, k)
    return sum(class_size(parts, q) for parts in comps)


# By-definition reference for potent counts: A^(k+1) = A holds exactly when
# the minimal polynomial of A divides x (x^k' - 1)^e, e the p-part of k.  So
# a solution's conjugacy class is fixed by a Jordan type lambda_phi for each
# irreducible factor phi of degree d, with parts at most e (at most 1 for
# phi = x), and its centralizer is the product of the centralizers of
# nilpotents of those types over F_(p^d).  The sum of |GL_n| / |centralizer|
# is taken in exact fractions, factor by factor and partition by partition.


def partitions(m, top):
    """Nonincreasing tuples of parts in 1..top summing to m."""
    return [
        c[::-1]
        for size in range(m + 1)
        for c in itertools.combinations_with_replacement(range(1, top + 1), size)
        if sum(c) == m
    ]


def nilpotent_centralizer(parts, q):
    """Macdonald, ch. II (1.6): q^(sum lambda'_i^2) prod_i prod_{j <= m_i} (1 - q^-j)."""
    conj = [sum(1 for x in parts if x > i) for i in range(max(parts, default=0))]
    order = Fraction(q) ** sum(c * c for c in conj)
    for i in set(parts):
        for j in range(1, parts.count(i) + 1):
            order *= 1 - Fraction(1, q**j)
    return order


def factor_degrees(p, k):
    """Degrees of the irreducible factors of x^k - 1 over F_p, p not dividing
    k: the sizes of the orbits of multiplication by p on Z/k."""
    seen, degrees = set(), []
    for r in range(k):
        if r not in seen:
            orbit = {r * p**i % k for i in range(k)}
            seen |= orbit
            degrees.append(len(orbit))
    return degrees


def potent_reference(n, p, k):
    e = 1
    while k % (p * e) == 0:
        e *= p
    slots = [(1, 1)] + [(d, e) for d in factor_degrees(p, k // e) if d <= n]

    def classes(i, left):  # sum of 1 / |centralizer| over slots i, i+1, ...
        if i == len(slots):
            return Fraction(left == 0)
        d, top = slots[i]
        return sum(
            (classes(i + 1, left - d * m) / nilpotent_centralizer(parts, p**d)
             for m in range(left // d + 1) for parts in partitions(m, top)),
            Fraction(0),
        )

    total = classes(0, n) * gl_order(n, p)
    assert total.denominator == 1
    return int(total)


# Polynomial reference for the packed recurrence in eigencount.counting: the
# same q-Pascal rule and peeling recurrence, on coefficient tuples by
# polynomial products, with no integer evaluation and no digit read-back.


def times_q_power(poly, power):
    return (0,) * power + poly if poly else ()


def gaussian_rows(n):
    """Rows of Gaussian binomials [m choose j]_q, j = 0..m, for m = 0..n, by
    [m, j] = [m-1, j-1] + q^j [m-1, j]."""
    rows = [((1,),)]
    for m in range(1, n + 1):
        above = rows[-1]
        rows.append(tuple(
            (1,) if j in (0, m) else poly_add(above[j - 1], times_q_power(above[j], j))
            for j in range(m + 1)
        ))
    return rows


def split_size(row, j):
    """U_m / (U_j U_{m-j}) = q^(j(m-j)) [m choose j]_q, given the row of m."""
    return times_q_power(row[j], j * (len(row) - 1 - j))


def reference_strict_sums(n, w):
    """E(n, s), s = 1..w: P_1(m) = [m >= 1] and P_s(m) the sum over j of
    split_size(m, j) * P_{s-1}(m - j), all as polynomials."""
    rows = gaussian_rows(n)
    sums = [[(1,) if m else () for m in range(n + 1)]]
    for i in range(1, w):
        sums.append([
            poly_add(*(poly_mul(split_size(rows[m], j), sums[i - 1][m - j])
                       for j in range(1, m - i + 1)))
            for m in range(n + 1)
        ])
    return tuple(row[n] for row in sums)


def reference_class_size(parts):
    rows = gaussian_rows(sum(parts))
    size = (1,)
    for part, placed in zip(parts, itertools.accumulate(parts)):
        size = poly_mul(size, split_size(rows[placed], part))
    return size


def positive_tuples(n, s):
    """Ordered s-tuples of positive integers summing to at most n."""
    if s == 0:
        yield ()
        return
    for first in range(1, n - s + 2):
        yield from ((first, *rest) for rest in positive_tuples(n - first, s - 1))


def join_reference(n, q, factors, base):
    """The values at n after each factor of a join, term by term: after
    factors 1..i, the sum over s_1..s_i of prod c_l[s_l], and over ordered
    dimensions of the s_1 + ... + s_i parts, of the class size of those
    parts and the rest, prod h(part) and base(rest)."""
    values = []
    for i in range(1, len(factors) + 1):
        total = 0
        for ss in itertools.product(*(range(len(c)) for _, c in factors[:i])):
            hs = [h for (h, _), s in zip(factors, ss) for _ in range(s)]
            weight = math.prod(c[s] for (_, c), s in zip(factors, ss))
            for parts in positive_tuples(n, len(hs)):
                rest = n - sum(parts)
                terms = math.prod(h[m] for h, m in zip(hs, parts)) * base[rest]
                total += weight * class_size((*parts, rest), q) * terms
        values.append(total)
    return values


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
        assert count_e_poly(2, 3) == ZERO
        assert count_e_poly(3, 7) == ZERO

    def test_decomposition_identity(self):
        # M sums the class sizes over the weak compositions of n into k
        # parts; both sides have degree at most n^2 - n in q, so agreeing at
        # n^2 points makes them the same polynomial
        for n in range(1, 6):
            for k in range(1, 6):
                m = count_m_poly(n, k)
                assert len(m.coeffs) - 1 <= n * n - n, (n, k)
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


class TestPackedRecurrence:
    """The closed forms, built on integers at q = 2^B and read back as
    base-2^B digits, equal the polynomial recurrence."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), k=st.one_of(st.integers(1, 40), st.integers(1, 10**18)))
    def test_e_row_equals_polynomial_recurrence(self, n, k):
        expected = reference_strict_sums(n, min(n, k))
        assert tuple(e.coeffs for e in _strict_sums(n, min(n, k))) == expected
        assert count_e_poly(n, k).coeffs == (expected[-1] if k <= n else ())
        assert count_m_poly(n, k).coeffs == poly_add(
            *(poly_scale(math.comb(k, s), e) for s, e in enumerate(expected, 1))
        )

    def test_class_sizes_equal_polynomial_products(self):
        for n in range(1, 9):
            for s in range(1, n + 1):
                for parts in strict_compositions(n, s):
                    assert class_size_poly(parts).coeffs == reference_class_size(parts), parts
        for n in range(5):
            for parts in weak_compositions(n, 4):
                assert class_size_poly(parts).coeffs == reference_class_size(parts), parts
        assert class_size_poly(()) == IntPoly((1,))

    def test_split_rows_are_group_order_quotients(self):
        for q in (2, 3, 7, 1 << 40):
            for m, row in enumerate(_split_rows(9, q)):
                assert row == [class_size((j, m - j), q) for j in range(m + 1)], (q, m)

    def test_slots_hold_every_coefficient(self):
        # each coefficient of E(n, s) stays below 2^(B-1), B = bit_length(w^n) + 1,
        # so no base-2^B digit ever carries into the next
        for n in range(1, 20):
            for w in range(1, n + 1):
                bits = (w**n).bit_length() + 1
                for s, e in enumerate(_exact_row(n, w), 1):
                    assert all(0 <= c < 1 << (bits - 1) for c in e.coeffs), (n, w, s)
                    # at q = 1, the surjections from n points onto s values
                    assert e(1) == sum(
                        (-1) ** j * math.comb(s, j) * (s - j) ** n for j in range(s + 1)
                    ), (n, w, s)
        # U_n's coefficients alternate in sign, and their absolute values sum
        # to at most 2^n, below 2^(B-1) at B = n + 2
        for n in range(41):
            assert sum(abs(c) for c in gl_order_poly(n).coeffs) <= 1 << n, n
            assert all(abs(c) < 1 << (n + 1) for c in gl_order_poly(n).coeffs), n

    def test_gl_order_equals_polynomial_product(self):
        # q^(n(n-1)/2) (q-1)(q^2-1)...(q^n-1), multiplied out factor by factor
        for n in range(41):
            expected = times_q_power((1,), n * (n - 1) // 2)
            for i in range(1, n + 1):
                expected = poly_mul(expected, (-1,) + (0,) * (i - 1) + (1,))
            assert gl_order_poly(n).coeffs == expected, n

    @settings(max_examples=200, deadline=None)
    @given(
        packed=st.integers(2, 64).flatmap(lambda bits: st.tuples(
            st.just(bits),
            st.lists(st.one_of(
                st.just(0), st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
            ), max_size=12),
        )),
    )
    def test_signed_unpack_reads_balanced_digits(self, packed):
        # any coefficients in [-2^(B-1), 2^(B-1)), negative leading ones and
        # the empty list included, come back canonical from their value at 2^B
        bits, coeffs = packed
        value = sum(c << (bits * i) for i, c in enumerate(coeffs))
        assert _unpack(value, bits).coeffs == canonical(coeffs)

    @pytest.mark.parametrize("bits,coeffs", [
        (2, ()),
        (2, (-2,)),
        (2, (-1, 1)),
        (3, (0, 0, 0, -1)),
        (5, (15, -16, 15, -16)),
        (8, (-128, -128, 127)),
        (64, (-(1 << 63), (1 << 63) - 1, -1)),
        (64, ()),
        (7, (0, 0, -64)),
        (7, (63, -64, -64)),
        (64, (0, -(1 << 63))),
    ])
    def test_signed_unpack_edge_digits(self, bits, coeffs):
        # the ends of the digit range, value 0, a top digit of -2^(B-1),
        # and zeros under a negative leading coefficient
        value = sum(c << (bits * i) for i, c in enumerate(coeffs))
        assert _unpack(value, bits).coeffs == coeffs


@st.composite
def join_factor(draw, n):
    """(h, c): h(0) = 0 and h nonzero only on multiples of its least
    nonzero dimension d, as in potent_count, and any coefficients c."""
    d = draw(st.integers(1, n + 1))
    h = [draw(st.integers(-50, 50)) if m and m % d == 0 else 0 for m in range(n + 1)]
    return h, draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4))


class TestJoin:
    """counting._join, the one routine every closed form joins by."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.integers(0, 6).flatmap(lambda n: st.tuples(
            st.just(n),
            st.one_of(st.sampled_from([2, 3, 4, 5, 7]), st.integers(1, 80).map(lambda b: 1 << b)),
            st.lists(join_factor(n), min_size=1, max_size=3),
            st.lists(st.integers(-30, 30), min_size=n + 1, max_size=n + 1),
        )),
    )
    def test_join_equals_per_composition_sum(self, case):
        n, q, factors, base = case
        assert _join(n, q, factors, base) == join_reference(n, q, factors, base)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), w=st.integers(1, 6),
           q=st.one_of(st.sampled_from([2, 3, 4, 5, 7]), st.integers(1, 80).map(lambda b: 1 << b)))
    def test_e_row_is_the_join_of_copies_of_ones(self, n, w, q):
        # w copies of ([0, 1, 1, ...], [0, 1]) on the unit [1, 0, ...] give E(n, 1..w)
        row = _join(n, q, [([0] + [1] * n, [0, 1])] * w, [1] + [0] * n)
        assert row == [sum(c * q**i for i, c in enumerate(e)) for e in reference_strict_sums(n, w)]

    def test_split_rows_feed_only_the_join_and_class_sizes(self):
        # every closed form that sums over split sizes does so through _join
        tree = ast.parse(Path(counting.__file__).read_text())
        callers = {
            function.name
            for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_split_rows"
        }
        assert callers == {"_join", "class_size_poly"}


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
        assert len(poly.coeffs) - 1 == 30
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
        # shapes with k not dividing p-1, once refused, now answer
        assert potent_count(n, p, k) == {(2, 3, 3): 22, (2, 2, 2): 11, (1, 7, 4): 3}[n, p, k]

    @pytest.mark.parametrize(
        "n,p,k,count",
        [
            (2, 2, 2, 11), (3, 2, 2, 163), (2, 3, 3, 22), (2, 3, 6, 55),
            (4, 2, 4, 14137), (2, 5, 3, 52), (2, 11, 4, 509), (3, 2, 7, 106),
        ],
    )
    def test_oracle_values(self, n, p, k, count):
        # repeated factors (p | k) and non-linear ones (k not dividing p-1),
        # each value counted by an exhaustive scan
        assert potent_count(n, p, k) == count

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25])
    def test_nilpotent_sum_is_fine_herstein(self, q):
        # with the index unbounded, the Jordan-type sum counts every nilpotent
        for m in range(1, 7):
            assert _nilpotent_count(m, m, q) == q ** (m * m - m), m
            assert _nilpotent_count(m, 1, q) == 1  # N = 0 only

    def test_split_shapes_are_m_counts(self):
        # k | p-1: the solutions are the diagonalizable matrices with spectrum
        # inside {0} and the k-th roots of unity
        for p in (2, 3, 5, 7, 11, 13):
            for k in (k for k in range(1, 13) if (p - 1) % k == 0):
                for n in (n for n in range(1, 14) if min(n, k + 1) * n**3 <= MAX_SHAPE):
                    assert potent_count(n, p, k) == count_m_poly(n, k + 1)(p), (n, p, k)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 5),
        p=st.sampled_from([2, 3, 5, 7, 11, 13]),
        k=st.integers(1, 30),
    )
    def test_matches_class_sum_reference(self, n, p, k):
        assert potent_count(n, p, k) == potent_reference(n, p, k)

    def test_reference_agrees_with_split_and_oracle_values(self):
        assert potent_reference(2, 7, 3) == 340
        assert potent_reference(2, 2, 2) == 11
        assert potent_reference(4, 2, 4) == 14137
        assert potent_reference(2, 11, 4) == 509


class TestSpectrumValidation:
    def test_accepts(self):
        assert validate_spectrum(5, [0, 4, 2]) == (0, 4, 2)
        spectrum = validate_spectrum(5, iter([True, 3]))
        assert spectrum == (1, 3) and all(type(a) is int for a in spectrum)

    def test_rejects_non_integers(self):
        for bad in ([0.5], [1.0], ["1"], [None]):
            with pytest.raises(ValueError, match="integers"):
                validate_spectrum(5, bad)

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
            assert count_e_poly(1, 10**9) == ZERO
        else:
            assert count_m_poly(1, 10**9) == IntPoly((10**9,))

    def test_refusal_names_rule_and_eigenvalue_count(self):
        # A^3 = A prescribes the spectrum {0, 1, -1}: three values, not k = 2
        with pytest.raises(ValueError, match=r"n=50 with 3 prescribed eigenvalues .* min\(n,k\)\*n\^3"):
            potent_count(50, 3, 2)
