"""Closed-form counts of diagonalizable matrices with a prescribed spectrum.

For k distinct elements a_1..a_k of a q-element field, the counted sets
inside the n-by-n matrices are

* the M-set: matrices annihilated by (x-a_1)...(x-a_k), i.e. the
  diagonalizable matrices whose eigenvalues all lie among the a_i;
* the E-set: M-set members for which every a_i actually occurs.

Each set is a disjoint union of conjugacy classes of diagonal matrices,
one class per composition of n into k parts (weak for M, strict for E),
and each class has size U_n / (U_{n_1} ... U_{n_k}) where U_m is the order
of the invertible m-by-m matrices.  Those ratios are integer polynomials
in q, so both counts are too, and they depend only on (n, k), never on
which eigenvalues were prescribed.

The sums are never formed term by term.  Splitting an r-dimensional space
into a j-dimensional part and the rest has S(r, j) = U_r / (U_j U_{r-j}) =
q^(j(r-j)) [r choose j]_q ways, row by row by the q-Pascal rule, and
sequences join by (a*b)(r) = sum over j of S(r, j) a(j) b(r-j), the
product of their q-exponential generating functions.  One routine, _join,
does every such sum; it takes its factors as data and forms one row of
split sizes at a time, so nothing divides polynomials or enumerates
compositions.  E(n, 1..n) is the join of copies of [0, 1, 1, ...], one
copy per eigenvalue.  It runs on plain integers at q = 2^B, where a
product by a power of q is a left shift, B wide enough for every
coefficient, read back as balanced base-2^B digits (Kronecker
substitution), as is U_n itself.  A weak composition is a strict one of
its s nonzero parts, so M(n, k) = sum over s of C(k, s) E(n, s), summed on
plain-integer coefficients, and its cost does not grow with k.

Potent counts, A^(k+1) = A over F_p for any k, are one join in integers at
q = p, of the nilpotent primary parts over extension fields.

Everything returns exact polynomials or exact integers; nothing here
touches the brute-force oracle, which independently recounts these sets.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from collections.abc import Iterator, Sequence

from .qpoly import ZERO, IntPoly

__all__ = [
    "strict_compositions",
    "gl_order_poly",
    "class_size_poly",
    "count_m_poly",
    "count_e_poly",
    "table_rows",
    "roots_of_unity",
    "potent_count",
    "check_potent",
    "validate_spectrum",
    "is_prime",
    "is_prime_power",
    "MAX_SHAPE",
]

# The closed forms refuse (n, k) with min(n, k) * n^3 above this, which
# bounds their recurrence: min(n, k) rows of n + 1 polynomials of degree up
# to n^2.  It admits (40, 2), (30, 3), (12, 6) and any k at n <= 19, keeps
# every admitted build to a few seconds, and is checked before building.
MAX_SHAPE = 1 << 17

# Miller-Rabin to all of these bases is exact below _EXACT_BELOW (3.3 * 10^24).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=32)
def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, exact below 3.3 * 10^24.

    There it runs every base in _WITNESSES.  Above it no fixed set of
    bases is exact, and it is a strong probable-prime test to base 2
    alone, which costs one modular power of n: about 1 s for a 2150-digit
    n on a 2-core host.  The last few answers are cached, so a command
    that checks its p in several layers tests it once.
    """
    if n < 2 or any(n % b == 0 for b in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _WITNESSES if n < _EXACT_BELOW else _WITNESSES[:1]:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _exact_root(q: int, e: int) -> int | None:
    """The integer r with r^e = q, if there is one (q >= 2, e >= 2)."""
    x = math.log2(q) / e
    # integer Newton iteration from above, seeded by the float estimate
    r = 1 << math.ceil(x) if x > 1000 else int(2**x * (1 + 1e-11)) + 1
    while (s := ((e - 1) * r + q // r ** (e - 1)) // e) < r:
        r = s
    return r if r**e == q else None


def is_prime_power(q: int) -> bool:
    """Whether q = r^e for a prime r and e >= 1, i.e. a q-element field exists.

    A q with a factor in _WITNESSES is a prime power only as a power of
    that factor.  Any other q has its roots of prime degree taken while
    there are any, and the remaining base goes to is_prime.
    """
    if q < 2:
        return False
    for f in _WITNESSES:
        if q % f == 0:
            while q % f == 0:
                q //= f
            return q == 1
    e = 2
    while 43**e <= q:  # the base is at least 43, the next prime after _WITNESSES
        root = _exact_root(q, e)
        if root is not None:
            q = root
            continue
        e += 1
        while not is_prime(e):
            e += 1
    return is_prime(q)


def strict_compositions(n: int, s: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of s positive integers summing to n, lexicographic.

    Empty when s > n.  There are C(n-1, s-1) tuples, one per choice of
    s-1 cut points among the n-1 gaps.
    """
    if n < 1 or s < 1:
        raise ValueError("n and s must be positive")
    if s > n:
        return
    for cuts in itertools.combinations(range(1, n), s - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


@lru_cache(maxsize=None)
def gl_order_poly(n: int) -> IntPoly:
    """Order of the invertible n-by-n matrices as a polynomial in q.

    q^(n(n-1)/2) * (q-1)(q^2-1)...(q^n-1); the empty product makes the
    0-by-0 case the constant 1.  Packed at B = n + 2: the coefficients
    alternate in sign, and their absolute values sum to at most 2^n, the
    value at q = 1 of the same product with every -1 made +1.
    """
    if n < 0:
        raise ValueError("matrix dimension must be nonnegative")
    return _unpack(_gl_order(n, 1 << (n + 2)), n + 2)


def _split_rows(n: int, q: int) -> Iterator[list[int]]:
    """Rows m = 0..n of split sizes at q, row[j] = U_m / (U_j U_(m-j)) =
    q^(j(m-j)) [m choose j]_q: the ways to split an m-space into a j-space
    and a complement, each row from the one before by the q-Pascal rule.
    At q = 2^B a product by q^e is a left shift by B e."""
    times = operator.lshift if q & (q - 1) == 0 else operator.mul
    power = [(q.bit_length() - 1) * i if times is operator.lshift else q**i for i in range(2 * n + 1)]
    row = [1]
    yield row
    for m in range(1, n + 1):
        above = [0, *row, 0]
        row = [times(above[j], power[m - j]) + times(above[j + 1], power[2 * j]) for j in range(m + 1)]
        yield row


# Kronecker substitution: the closed forms are built as plain integers at
# q = 2^bits and read back as balanced base-2^bits digits, each in
# [-2^(bits-1), 2^(bits-1)).  Every packed value on the way is the exact
# value of its polynomial at that q, so only the final polynomials need
# every coefficient's absolute value below 2^(bits-1); each caller bounds
# them by their absolute sum, which for nonnegative coefficients is the
# value at q = 1.
def _unpack(value: int, bits: int) -> IntPoly:
    """The polynomial whose balanced base-2^bits digits make up value: with
    2^(bits-1) added at every place each digit is a plain one, in
    [0, 2^bits), read off and less 2^(bits-1)."""
    half = 1 << (bits - 1)
    places = value.bit_length() // bits + 2  # the top digit's place, and one more
    text = f"{value + half * ((1 << bits * places) - 1) // ((1 << bits) - 1):0{bits * places}b}"
    return IntPoly(int(text[i - bits : i], 2) - half for i in range(len(text), 0, -bits))


def class_size_poly(parts: Sequence[int]) -> IntPoly:
    """Conjugacy-class size of the diagonal matrix with block multiplicities.

    For distinct eigenvalues with multiplicities ``parts``, the class size
    is U_n divided by the product of the U_{n_i}; zero parts contribute a
    factor of one.  The quotient telescopes into the product of the split
    sizes that place each block next to the blocks before it, so no
    division is needed.  Packed: at q = 1 it is a multinomial, <= len(parts)^n.
    """
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError("multiplicities must be nonnegative")
    n = sum(parts)
    bits = (len(parts) ** n).bit_length() + 1
    rows = list(_split_rows(n, 1 << bits))
    return _unpack(math.prod(rows[m][j] for j, m in zip(parts, itertools.accumulate(parts))), bits)


def _join(n: int, q: int, factors: list[tuple[list[int], Sequence[int]]], base: list[int]) -> list[int]:
    """Values at n of base joined with each factor in turn, all at q.

    Sequences join by (a*b)(r) = sum over j of S(r, j) a(j) b(r-j), S the
    split size: the product of their q-exponential generating functions
    sum a(m) x^m / U_m.  A factor (h, c), h(0) = 0, maps b to the sum over
    s of c[s] h^(*s) * b, by Horner's rule from the top s down, and the
    next factor takes that as its b.  As h^(*s) is 0 below s d, d the least
    dimension where h is nonzero, the partial sum from s up is kept only
    up to n - s d, and the last factor's sum only at n.  One row of split
    sizes is formed at a time, and every factor advances by it.
    """
    # each h list's least nonzero dimension d, and each row's products with it, formed once per list
    kinds = {id(h): (h, next((j for j in range(1, n + 1) if h[j]), n + 1)) for h, _ in factors}
    plan = [(id(h), c, kinds[id(h)][1], [[] for _ in range(len(c) + 1)]) for h, c in factors]  # acc[s][r]
    for r, row in enumerate(_split_rows(n, q)):
        value = base[r]
        terms = {key: [row[j] * h[j] for j in range(d, r + 1)] for key, (h, d) in kinds.items()}
        for i, (key, c, d, acc) in enumerate(plan):
            for s in reversed(range(len(c))):
                if r + s * d <= n and (s or r == n or i + 1 < len(plan)):
                    above = acc[s + 1][r - d::-1]  # at r - j for the terms' j = d..r; none at the top s
                    acc[s].append(c[s] * value + (sum(map(operator.mul, terms[key], above)) if above else 0))
            value = acc[0][-1] if acc[0] else 0
    return [acc[0][-1] for *_, acc in plan]


@lru_cache(maxsize=None)
def _strict_sums(n: int, w: int) -> tuple[IntPoly, ...]:
    """E(n, s), s = 1..w: class sizes summed over strict compositions of n.

    E(n, s) = h^(*s)(n) for h = [0, 1, 1, ...], one way to make each
    nonzero dimension an eigenspace: the join of w copies of (h, [0, 1]),
    read after each copy.  Packed, as E(n, s)(1) = s! S(n, s) <= w^n.
    """
    bits = (w**n).bit_length() + 1
    return tuple(_unpack(e, bits) for e in _join(n, 1 << bits, [([0] + [1] * n, (0, 1))] * w, [1] + [0] * n))


def _check_shape(n: int, k: int) -> None:
    """Refuse n-by-n counts with k prescribed eigenvalues past MAX_SHAPE."""
    if min(n, k) * n**3 > MAX_SHAPE:
        raise ValueError(
            f"n={n} with {k} prescribed eigenvalues is past the closed forms' "
            f"size limit min(n,k)*n^3 <= {MAX_SHAPE}"
        )


def _exact_row(n: int, k: int) -> tuple[IntPoly, ...]:
    """E(n, s) for s = 1..min(n, k), once (n, k) has passed the size limit."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    _check_shape(n, k)
    return _strict_sums(n, min(n, k))


def count_m_poly(n: int, k: int) -> IntPoly:
    """Count of diagonalizable matrices with spectrum inside a fixed k-set.

    Sum of class sizes over the weak compositions of n into k parts, i.e.
    the sum over s of C(k, s) E(n, s): choose the s values that occur,
    summed coefficient by coefficient.
    """
    total: list[int] = []
    for s, e in enumerate(_exact_row(n, k), 1):
        c = math.comb(k, s)
        total = [a + c * b for a, b in itertools.zip_longest(total, e.coeffs, fillvalue=0)]
    return IntPoly(total)


def count_e_poly(n: int, k: int) -> IntPoly:
    """Count of diagonalizable matrices with spectrum exactly a fixed k-set.

    Sum of class sizes over the strict compositions; the zero polynomial
    when k > n since n-by-n matrices carry at most n distinct eigenvalues.
    """
    return ZERO if k > n >= 1 else _exact_row(n, k)[-1]


def table_rows(n_max: int = 6) -> list[tuple[int, int, IntPoly]]:
    """Exact-spectrum count polynomials for n = 3..n_max and k = 2..n.

    Row order is n ascending, then k ascending; n_max = 6 yields the
    fourteen reference rows.
    """
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    return [
        (n, k, e) for n in range(3, n_max + 1) for k, e in enumerate(_exact_row(n, n)[1:], 2)
    ]


def roots_of_unity(p: int, k: int) -> list[int]:
    """All k-th roots of unity in the p-element field, ascending.

    The list has gcd(k, p-1) entries because the unit group is cyclic of
    order p-1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be positive")
    return [x for x in range(1, p) if pow(x, k, p) == 1]


def _gl_order(m: int, q: int) -> int:
    """Order of the invertible m-by-m matrices over a q-element field."""
    return q ** (m * (m - 1) // 2) * math.prod(q**i - 1 for i in range(1, m + 1))


def _partitions(m: int, top: int) -> Iterator[tuple[int, ...]]:
    """Partitions of m into parts of at most top, largest part first."""
    if m == 0:
        yield ()
    for first in range(min(m, top), 0, -1):
        yield from ((first, *rest) for rest in _partitions(m - first, first))


def _nilpotent_count(m: int, e: int, q: int) -> int:
    """Number of m-by-m matrices N over the q-element field with N^e = 0:
    |GL_m| / |C_lambda| summed over the Jordan types lambda with parts at
    most e, |C_lambda| = q^(sum lambda'_i^2 - sum m_i^2) prod |GL_(m_i)| and
    m_i the number of parts equal to i (Macdonald, ch. II and IV)."""
    total = 0
    for parts in _partitions(m, e):
        mult = [parts.count(i) for i in set(parts)]
        conj_sq = sum((2 * j + 1) * part for j, part in enumerate(parts))  # sum of lambda'_i^2
        cent = q ** (conj_sq - sum(v * v for v in mult)) * math.prod(_gl_order(v, q) for v in mult)
        size, rem = divmod(_gl_order(m, q), cent)
        assert rem == 0, (m, q, parts)
        total += size
    return total


def check_potent(n: int, p: int, k: int) -> None:
    """Refuse what potent_count does not count: p not prime, n or k below 1,
    or n past MAX_SHAPE for the k + 1 eigenvalues of x^(k+1) - x."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    _check_shape(n, k + 1)


def potent_count(n: int, p: int, k: int) -> int:
    """Number of n-by-n matrices A over the p-element field with A^(k+1) = A.

    With e the largest power of p dividing k = k' e, x^(k+1) - x is
    x (x^k' - 1)^e, x^k' - 1 squarefree: A is 0 on its x-primary part and
    phi(A)^e = 0 on that of each irreducible factor phi of x^k' - 1.  It
    is one join at q = p: the x part is the base, and each degree d with
    N_d factors, gcd(k', p^d - 1) = sum over f | d of f N_f, is one factor
    (h_d, C(N_d, s)), h_d(d m) the parts of one factor on d m dimensions.
    If k | p-1 this is M(n, k+1) at p.
    """
    check_potent(n, p, k)
    e = next(p**i for i in itertools.count() if k % p ** (i + 1))  # the p-part of k
    factors, counts = [], {}  # counts[d] = N_d
    for d in range(1, n + 1):
        roots = math.gcd(k // e, p**d - 1)  # the k'-th roots of unity in F_(p^d)
        counts[d] = (roots - sum(f * counts[f] for f in range(1, d) if d % f == 0)) // d
        if counts[d]:  # one factor on d*m dimensions: F_q-nilpotents of index <= e, q^(m^2-m) if e >= m
            h, q = [0] * (n + 1), p**d
            for m in range(1, n // d + 1):
                nil = q ** (m * m - m) if e >= m else 1 if e == 1 else _nilpotent_count(m, e, q)
                h[d * m] = nil * p ** (m * m * d * (d - 1) // 2) * math.prod(  # |GL_dm(p)| / |GL_m(q)|
                    p**i - 1 for i in range(1, d * m + 1) if i % d)
            factors.append((h, [math.comb(counts[d], s) for s in range(min(n // d, counts[d]) + 1)]))
    return _join(n, p, factors, [1] * (n + 1))[-1]  # the x part: A = 0 on it


def validate_spectrum(p: int, alphas: Sequence[int]) -> tuple[int, ...]:
    """Check a concrete spectrum: p prime, alphas distinct residues mod p,
    returned as Python ints.  is_prime caches its answer, so checking many
    spectra of one p tests p once."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    try:
        alphas = tuple(map(operator.index, alphas))
    except TypeError:
        raise ValueError("spectrum entries must be integers") from None
    if not alphas:
        raise ValueError("spectrum must be nonempty")
    if any(a < 0 or a >= p for a in alphas):
        raise ValueError(f"spectrum entries must lie in [0, {p})")
    if len(set(alphas)) != len(alphas):
        raise ValueError("spectrum entries must be pairwise distinct")
    return alphas

