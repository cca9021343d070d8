"""Exact polynomial arithmetic: ring laws, evaluation, text round trips."""

import random

import pytest

from eigencount.qpoly import ONE, Q, ZERO, IntPoly


def poly(*coeffs):
    return IntPoly(coeffs)


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)

    def test_zero_is_empty(self):
        assert IntPoly([0, 0, 0]).coeffs == ()
        assert IntPoly().is_zero()

    def test_degree(self):
        assert poly(5).degree == 0
        assert poly(0, 0, 3).degree == 2
        assert ZERO.degree == float("-inf")
        assert ZERO.degree < poly(1).degree

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            IntPoly([1.5])


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (Q - 1) * (Q + 1) == poly(-1, 0, 1)

    def test_zero_absorbs(self):
        assert ZERO * poly(5, 0, 0, 1) == ZERO

    def test_gl2_order_by_hand_expansion(self):
        # (q-1)(q^2-1)q expanded by hand: q^4 - q^3 - q^2 + q
        product = (Q - 1) * (Q * Q - 1) * Q
        assert product == poly(0, 1, -1, -1, 1)
        assert str(product) == "q^4-q^3-q^2+q"

    def test_sum_builtin(self):
        assert sum([Q, Q, ONE]) == poly(1, 2)

    def test_pow(self):
        assert (Q + 1) ** 2 == poly(1, 2, 1)
        assert (Q - 1) ** 0 == ONE

    def test_degree_additivity(self):
        a = poly(3, 0, 2)
        b = poly(-1, 7)
        assert (a * b).degree == a.degree + b.degree


def _random_poly(rng, max_degree=12):
    degree = rng.randrange(max_degree + 1)
    return IntPoly([rng.randrange(-9, 10) for _ in range(degree + 1)])


def test_evaluation_homomorphism():
    rng = random.Random(991)
    for _ in range(100):
        a = _random_poly(rng)
        b = _random_poly(rng)
        for x in (-3, -1, 0, 1, 2, 7, 10**6):
            assert (a * b)(x) == a(x) * b(x)
            assert (a + b)(x) == a(x) + b(x)


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

    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "q",
            "-q",
            "q^2+q+2",
            "2q^4+2q^3+2q^2",
            "q^4-q^3-q^2+q",
            "q^30+5q^29+14q^28",
        ],
    )
    def test_parse_round_trip(self, text):
        assert str(IntPoly.parse(text)) == text

    def test_parse_tolerates_spaces(self):
        assert IntPoly.parse("q^2 + q + 2") == poly(2, 1, 1)

    def test_str_parse_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(100):
            a = _random_poly(rng)
            assert IntPoly.parse(str(a)) == a

    @pytest.mark.parametrize("bad", ["", "q^", "qq", "+", "2x", "q^-1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            IntPoly.parse(bad)


def test_hash_consistency():
    assert hash(poly(2, 1, 1)) == hash(IntPoly((2, 1, 1)))
    assert poly(1) == 1
    assert ZERO == 0
