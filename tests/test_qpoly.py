"""IntPoly as a record: canonical form, exact evaluation, canonical text,
and the coefficient-tuple reference arithmetic the tests check it with."""

import random

import pytest
from conftest import canonical, poly_add, poly_mul, poly_scale

from eigencount.counting import gl_order_poly
from eigencount.qpoly import ZERO, IntPoly

Q = (0, 1)


def poly(*coeffs):
    return IntPoly(coeffs)


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)

    def test_zero_is_empty(self):
        assert IntPoly([0, 0, 0]).coeffs == ()
        assert not IntPoly() and IntPoly() == ZERO

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            IntPoly([1.5])


class TestArithmetic:
    """The coefficient-tuple arithmetic that the tests use as their reference
    for polynomial identities, pinned on hand expansions."""

    def test_difference_of_squares(self):
        assert poly_mul(poly_add(Q, (-1,)), poly_add(Q, (1,))) == (-1, 0, 1)

    def test_zero_absorbs(self):
        assert poly_mul((), (5, 0, 0, 1)) == ()
        assert poly_scale(0, (5, 0, 0, 1)) == ()

    def test_gl2_order_by_hand_expansion(self):
        # (q-1)(q^2-1)q expanded by hand: q^4 - q^3 - q^2 + q
        product = poly_mul(poly_mul((-1, 1), (-1, 0, 1)), Q)
        assert product == (0, 1, -1, -1, 1) == gl_order_poly(2).coeffs
        assert str(IntPoly(product)) == "q^4-q^3-q^2+q"

    def test_sum_builtin(self):
        assert poly_add(Q, Q, (1,)) == (1, 2)
        assert poly_add() == ()

    def test_pow(self):
        q_plus_1 = (1, 1)
        assert poly_mul(q_plus_1, q_plus_1) == (1, 2, 1)
        assert poly_mul((1,), (-1, 1)) == (-1, 1)

    def test_degree_additivity(self):
        a = (3, 0, 2)
        b = (-1, 7)
        assert len(poly_mul(a, b)) - 1 == (len(a) - 1) + (len(b) - 1)
        # cancelling terms leave the tuple canonical
        assert poly_add((1, 2, 3), (0, 0, -3)) == (1, 2)


def _random_poly(rng, max_degree=12):
    degree = rng.randrange(max_degree + 1)
    return canonical(rng.randrange(-9, 10) for _ in range(degree + 1))


def test_evaluation_homomorphism():
    # Horner evaluation of IntPoly against the reference arithmetic
    rng = random.Random(991)
    for _ in range(100):
        a = _random_poly(rng)
        b = _random_poly(rng)
        for x in (-3, -1, 0, 1, 2, 7, 10**6):
            assert IntPoly(poly_mul(a, b))(x) == IntPoly(a)(x) * IntPoly(b)(x)
            assert IntPoly(poly_add(a, b))(x) == IntPoly(a)(x) + IntPoly(b)(x)


class TestEvaluation:
    def test_table_row_value(self):
        # 2*16 + 2*8 + 2*4 = 56
        assert poly(0, 0, 2, 2, 2)(2) == 56

    def test_zero(self):
        assert ZERO(7) == 0

    def test_idempotent_count_value(self):
        assert poly(2, 1, 1)(2) == 8

    def test_big_point_exact(self):
        # far beyond 64-bit: coefficients and point both large
        p = poly(1, 0, 0, 0, 10**30)
        assert p(10**6) == 10**30 * 10**24 + 1


class TestText:
    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ((), "0"),
            ((7,), "7"),
            ((-7,), "-7"),
            ((0, 1), "q"),
            ((0, -1), "-q"),
            ((0, 0, 2, 2, 2), "2q^4+2q^3+2q^2"),
            ((0, 1, -1, -1, 1), "q^4-q^3-q^2+q"),
            ((2, 1, 1), "q^2+q+2"),
        ],
    )
    def test_canonical_render(self, coeffs, text):
        assert str(IntPoly(coeffs)) == text


def test_hash_consistency():
    assert hash(poly(2, 1, 1)) == hash(IntPoly((2, 1, 1)))
    assert {poly(2, 1, 1): 1}[IntPoly([2, 1, 1, 0])] == 1


def test_no_equality_with_ints():
    # a record compares equal only to a record
    assert poly(1) != 1
    assert ZERO != 0
    assert poly(1) == IntPoly((1,))
