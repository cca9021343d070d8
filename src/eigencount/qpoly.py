"""Exact arithmetic on integer polynomials in the field-size variable q.

Matrix counts over a q-element field are integer polynomials in q, so
everything here is exact: coefficients are Python ints of any size and
no operation rounds.  A polynomial is stored as a coefficient tuple
indexed by power whose last entry is nonzero; the zero polynomial is the
empty tuple.  The canonical form makes equality and hashing structural and
keeps the text rendering unambiguous, which the golden-table comparisons
rely on.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

__all__ = ["IntPoly", "ZERO", "ONE", "Q"]


class IntPoly:
    """Dense univariate polynomial over the integers, always canonical."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        self._coeffs = tuple(cs)

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> IntPoly:
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls([0] * power + [coeff])

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; minus infinity for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self._coeffs

    # ------------------------------------------------------------------
    # ring operations

    @staticmethod
    def _coerce(other) -> "IntPoly | None":
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self._coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative exponent")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x: int) -> int:
        """Exact value at an integer point, by Horner's rule."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    # ------------------------------------------------------------------
    # comparison and rendering

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"IntPoly({list(self._coeffs)!r})"

    def __str__(self):
        """Canonical text: descending powers, caret exponents, e.g. 2q^4+2q^3."""
        if not self._coeffs:
            return "0"
        chunks = []
        for power in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                var = "q" if power == 1 else f"q^{power}"
                body = var if mag == 1 else f"{mag}{var}"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        parts = [first_body if first_sign == "+" else "-" + first_body]
        parts.extend(sign + body for sign, body in chunks[1:])
        return "".join(parts)

    @classmethod
    def parse(cls, text: str) -> IntPoly:
        """Inverse of str(); accepts text like ``2q^4+2q^3+2q^2`` or ``q^2-1``."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        if s in ("0", "+0", "-0"):
            return cls()
        coeffs: dict[int, int] = {}
        for token in re.findall(r"[+-]?[^+-]+", s):
            m = _TERM_RE.fullmatch(token)
            if m is None or (m.group(2) is None and m.group(3) is None):
                raise ValueError(f"malformed polynomial term {token!r}")
            sign = -1 if m.group(1) == "-" else 1
            coeff = int(m.group(2)) if m.group(2) is not None else 1
            if m.group(3) is None:
                power = 0
            elif m.group(4) is not None:
                power = int(m.group(4))
            else:
                power = 1
            coeffs[power] = coeffs.get(power, 0) + sign * coeff
        out = [0] * (max(coeffs) + 1)
        for power, c in coeffs.items():
            out[power] = c
        return cls(out)


_TERM_RE = re.compile(r"([+-]?)(\d+)?(q(?:\^(\d+))?)?")

ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))
