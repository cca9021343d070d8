"""Integer-certified bound verdicts for potent counts."""

import copy
import pickle

import pytest

from eigencount import oracle
from eigencount.bounds import (
    BoundVerdict,
    ModeMismatch,
    RingSpec,
    bound_finite_ring,
    bound_matrix_ring,
)


class TestMatrixRingBound:
    def test_tight_case_certificates_equal(self):
        verdict = bound_matrix_ring(n=1, p=3, k=1, count=2)
        assert verdict.holds
        assert verdict.lhs_certificate == 36
        assert verdict.rhs_certificate == 36

    def test_idempotents_two_by_two_binary(self):
        verdict = bound_matrix_ring(n=2, p=2, k=1, count=8)
        assert verdict.holds
        assert verdict.lhs_certificate == 256
        assert verdict.rhs_certificate == 4 * 2**8

    def test_four_potents_seven(self):
        # exponent 2*n*n*k = 24 for n=2, k=3
        verdict = bound_matrix_ring(n=2, p=7, k=3, count=340)
        assert verdict.holds
        assert verdict.lhs_certificate == (340 * 7) ** 4
        assert verdict.rhs_certificate == 4**4 * 7**24

    def test_violation_detected(self):
        verdict = bound_matrix_ring(n=1, p=2, k=1, count=100)
        assert not verdict.holds

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            bound_matrix_ring(n=1, p=4, k=1, count=1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            bound_matrix_ring(n=1, p=2, k=1, count=-1)


class TestRingSpec:
    def test_cardinality(self):
        assert RingSpec(((2, 4),)).cardinality == 16
        assert RingSpec(((2, 1), (3, 1))).cardinality == 6

    def test_smallest_prime(self):
        assert RingSpec(((5, 1), (2, 2), (3, 1))).smallest_prime == 2

    def test_parse_round_trip(self):
        spec = RingSpec.parse("2^1,3^1")
        assert spec.prime_powers == ((2, 1), (3, 1))
        assert str(spec) == "2^1,3^1"
        assert RingSpec.parse("2^4").cardinality == 16

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            RingSpec.parse("2*4")
        with pytest.raises(ValueError):
            RingSpec.parse("")

    def test_duplicate_primes_rejected(self):
        with pytest.raises(ValueError):
            RingSpec(((2, 1), (2, 2)))

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            RingSpec(((4, 1),))

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            RingSpec(((2, 0),))


class TestFiniteRingBound:
    def test_matrix_ring_as_abstract_ring(self):
        # M_2(F_2) has 16 elements and 8 idempotents
        verdict = bound_finite_ring(RingSpec(((2, 4),)), k=1, count=8, mode="theorem2")
        assert verdict.holds
        assert verdict.lhs_certificate == 256
        assert verdict.rhs_certificate == 4 * 16**2

    def test_whole_field_three_potent(self):
        # every element of F_3 satisfies x^3 = x
        verdict = bound_finite_ring(RingSpec(((3, 1),)), k=2, count=3, mode="theorem2")
        assert verdict.holds
        assert verdict.lhs_certificate == 729
        assert verdict.rhs_certificate == 27 * 3**4

    def test_idempotents_of_z6_theorem3(self):
        # idempotents of Z/6 are {0,1,3,4}; certificates meet exactly
        verdict = bound_finite_ring(
            RingSpec(((2, 1), (3, 1))), k=1, count=4, mode="theorem3"
        )
        assert verdict.holds
        assert verdict.lhs_certificate == (4 * 6) ** 2
        assert verdict.rhs_certificate == 2**4 * 6**2
        assert verdict.lhs_certificate == verdict.rhs_certificate

    def test_idempotents_of_z6_corollary(self):
        verdict = bound_finite_ring(
            RingSpec(((2, 1), (3, 1))), k=1, count=4, mode="corollary"
        )
        assert verdict.holds
        assert verdict.lhs_certificate == (4 * 2**2) ** 2
        assert verdict.rhs_certificate == 2**4 * 6**2

    def test_theorem2_needs_single_prime(self):
        with pytest.raises(ModeMismatch):
            bound_finite_ring(RingSpec(((2, 1), (3, 1))), k=1, count=4, mode="theorem2")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            bound_finite_ring(RingSpec(((2, 1),)), k=1, count=1, mode="lemma")

    def test_corollary_is_the_looser_form(self):
        # replacing every prime by the smallest shrinks the lhs certificate,
        # so the corollary holds whenever the distinct-prime form does
        spec = RingSpec(((2, 2), (5, 1), (7, 1)))
        for k in (1, 2, 3):
            for count in (0, 10, 1000):
                t3 = bound_finite_ring(spec, k, count, "theorem3")
                cor = bound_finite_ring(spec, k, count, "corollary")
                assert cor.lhs_certificate <= t3.lhs_certificate
                assert cor.rhs_certificate == t3.rhs_certificate
                if t3.holds:
                    assert cor.holds


def test_verdict_holds_matches_comparison():
    assert BoundVerdict(5, 5).holds
    assert BoundVerdict(4, 5).holds
    assert not BoundVerdict(6, 5).holds


@pytest.mark.parametrize(
    "record",
    [
        BoundVerdict(6, 5),
        RingSpec(((2, 1), (3, 2))),
        oracle.OracleCountReport(2, 3, "potent:k=1", 21, 81, 0.5),
        oracle.PrimeField(7),
    ],
    ids=["verdict", "ring", "report", "field"],
)
def test_records_survive_copy_and_pickle(record):
    # a record is a tuple of its fields, equal to the plain tuple of them
    assert record == tuple(getattr(record, name) for name in record._fields)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        for name in clone._fields:
            with pytest.raises(AttributeError):
                setattr(clone, name, None)
            with pytest.raises(AttributeError):
                delattr(clone, name)
        assert clone == record


@pytest.mark.parametrize(
    "record, invalid, refusal",
    [
        (RingSpec(((2, 1), (3, 2))), ((2, 1), (9, 2)), "9 is not prime"),
        (RingSpec(((2, 1),)), ((2, 0),), "exponents must be at least 1"),
        (oracle.PrimeField(7), 4, "4 is not prime"),
        (oracle.PrimeField(7), 263, "p=263 outside supported range [2, 257]"),
    ],
)
def test_records_refuse_invalid_values_however_built(record, invalid, refusal):
    # _make and _replace of a plain named tuple would skip the checks
    (field,) = record._fields
    kind = type(record)
    builds = (
        lambda: kind(invalid),
        lambda: kind._make([invalid]),
        lambda: record._replace(**{field: invalid}),
    )
    for build in builds:
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == refusal
