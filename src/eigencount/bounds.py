"""Integer-certified upper bounds for counts of (k+1)-potent elements.

Every bound here has the shape count <= C * |R|^(2k/(k+1)) / D with integer
C and D, so instead of evaluating fractional powers both sides are raised
to the (k+1)-th power and compared as exact integers.  A verdict stores
the two certificates actually compared; no floating point is involved,
which keeps tight cases (certificates equal) honest.
"""

from __future__ import annotations

import re
from math import prod

from .counting import is_prime

__all__ = [
    "BoundVerdict",
    "RingSpec",
    "ModeMismatch",
    "bound_matrix_ring",
    "bound_finite_ring",
    "check_matrix_size",
    "RING_MODES",
    "MAX_CERTIFICATE_BITS",
]

RING_MODES = ("theorem2", "theorem3", "corollary")

# Certificates are refused when their size, estimated from bit lengths
# before any power is taken, exceeds this: 2^20 bits (about 316,000 digits)
# takes milliseconds to compute, while a (k+1)-th power of a large count,
# or |R|^(2k) of a large ring, can take longer than any caller waits.
MAX_CERTIFICATE_BITS = 1 << 20


class ModeMismatch(ValueError):
    """The requested bound mode does not apply to this ring shape."""


class _Frozen:
    """An immutable record whose fields are its __slots__: equal to records
    of its own class with equal fields, hashable, and shown by field."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which validates
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class BoundVerdict(_Frozen):
    """Outcome of one integer-certified comparison.

    ``holds`` is defined as lhs <= rhs, with both certificates already
    raised to the (k+1)-th power to clear fractional exponents.
    """

    __slots__ = ("lhs_certificate", "rhs_certificate")

    def __init__(self, lhs_certificate: int, rhs_certificate: int):
        super().__init__(lhs_certificate, rhs_certificate)

    @property
    def holds(self) -> bool:
        return self.lhs_certificate <= self.rhs_certificate


class RingSpec(_Frozen):
    """A finite ring described by the prime factorization of its cardinality."""

    __slots__ = ("prime_powers",)

    def __init__(self, prime_powers: tuple[tuple[int, int], ...]):
        if not prime_powers:
            raise ValueError("ring spec needs at least one prime power")
        primes = [p for p, _ in prime_powers]
        if len(set(primes)) != len(primes):
            raise ValueError("primes must be pairwise distinct")
        for p, r in prime_powers:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if r < 1:
                raise ValueError("exponents must be at least 1")
        super().__init__(prime_powers)

    @property
    def cardinality(self) -> int:
        return prod(p**r for p, r in self.prime_powers)

    @property
    def smallest_prime(self) -> int:
        return min(p for p, _ in self.prime_powers)

    @property
    def num_primes(self) -> int:
        return len(self.prime_powers)

    @classmethod
    def parse(cls, text: str) -> RingSpec:
        """Parse a factor list like ``2^4`` or ``2^1,3^1`` (p^r pairs)."""
        factors = []
        for token in text.split(","):
            m = re.fullmatch(r"\s*(\d+)\s*\^\s*(\d+)\s*", token)
            if m is None:
                raise ValueError(f"malformed prime power {token!r}; expected p^r")
            factors.append((int(m.group(1)), int(m.group(2))))
        return cls(tuple(factors))

    def __str__(self):
        return ",".join(f"{p}^{r}" for p, r in self.prime_powers)


def bound_matrix_ring(n: int, p: int, k: int, count: int) -> BoundVerdict:
    """Certify count <= (k+1) * p^(2n^2k/(k+1) - 1) over n-by-n matrices.

    The ring of n-by-n matrices over F_p has p^(n^2) elements, so this is
    the ``theorem2`` bound: (count*p)^(k+1) <= (k+1)^(k+1) * p^(2n^2k).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return bound_finite_ring(RingSpec(((p, n * n),)), k, count, "theorem2")


def check_matrix_size(n: int, p: int, k: int) -> None:
    """Refuse a matrix bound whose certificates are past MAX_CERTIFICATE_BITS
    whatever the count: |R|^(2k) alone is too large.  It needs no count, so
    a caller that has to compute the count runs it first."""
    _check_size(0, ((p, n * n),), k)


def _check_size(lhs_bits: int, prime_powers: tuple[tuple[int, int], ...], k: int) -> None:
    """Refuse certificates past MAX_CERTIFICATE_BITS: (k+1)^(s(k+1)) |R|^(2k)
    and a left-hand side of lhs_bits, s the number of primes."""
    # bit_length(a^e) <= e * bit_length(a), and likewise for products
    bits = max(
        lhs_bits,
        len(prime_powers) * (k + 1) * (k + 1).bit_length()
        + 2 * k * sum(r * p.bit_length() for p, r in prime_powers),
    )
    if bits > MAX_CERTIFICATE_BITS:
        raise ValueError(
            f"the certificates would take about {bits} bits, past the bound's "
            f"size limit of {MAX_CERTIFICATE_BITS} bits"
        )


def bound_finite_ring(
    ring: RingSpec, k: int, count: int, mode: str = "theorem2"
) -> BoundVerdict:
    """Certify the selected potent-count bound for a finite ring.

    With s distinct primes p_i and m their product, every mode certifies
    (count*m)^(k+1) <= (k+1)^(s(k+1)) * |R|^(2k):

    * ``theorem2``  single-prime rings only (s = 1, m = p)
    * ``theorem3``  general rings, m = p_1...p_s
    * ``corollary`` general rings, m = p^s for the smallest prime p
    """
    if k < 1:
        raise ValueError("k must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if mode not in RING_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {RING_MODES}")
    s = ring.num_primes
    if mode == "theorem2" and s != 1:
        raise ModeMismatch(
            "theorem2 mode needs a single-prime ring; got primes "
            + ",".join(str(p) for p, _ in ring.prime_powers)
        )
    if mode == "corollary":
        m = ring.smallest_prime**s
    else:
        m = prod(p for p, _ in ring.prime_powers)
    _check_size((k + 1) * (count * m).bit_length(), ring.prime_powers, k)
    lhs = (count * m) ** (k + 1)
    rhs = (k + 1) ** (s * (k + 1)) * ring.cardinality ** (2 * k)
    return BoundVerdict(lhs, rhs)
