"""Integer polynomials in the field-size variable q, as exact records.

Matrix counts over a q-element field are integer polynomials in q.  The
closed forms in ``counting`` build each one as a single integer at a
power-of-two q and read its coefficients back, so a polynomial here is
only a record: coefficients are Python ints of any size, stored as a tuple
indexed by power whose last entry is nonzero, the zero polynomial being
the empty tuple.  It does no arithmetic on polynomials; it evaluates
exactly at an integer point and renders as canonical text.  The canonical
form makes equality and hashing structural and keeps the text rendering
unambiguous, which the golden-table comparisons rely on.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["IntPoly", "ZERO"]


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

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def __call__(self, x: int) -> int:
        """Exact value at an integer point, by Horner's rule."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    # ------------------------------------------------------------------
    # comparison and rendering

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
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


ZERO = IntPoly()
