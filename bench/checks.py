"""Reference values the benchmark checks eigencount's outputs against.

Nothing here imports eigencount.  Every value is recomputed by a route of
its own: spectrum counts by the Gaussian-binomial recurrence on integers,
potent counts from group orders over extension fields, certificates with
Python ints, and the q=1, degree and leading-coefficient identities from
closed expressions.  ``selfcheck`` tests each of these against brute force
on small cases, so a bug in a checker fails the run instead of passing a
wrong output.

Run ``python3 bench/checks.py`` to run the self-check alone.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from math import comb, factorial, gcd, prod

__all__ = [
    "CheckFailed",
    "gl_order",
    "spectrum_count",
    "value_at_one",
    "degree_and_lead",
    "potent_count",
    "matrix_certificates",
    "ring_certificates",
    "parse_poly",
    "poly_value",
    "check_spectrum_poly",
    "parse_records",
    "selfcheck",
]


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own value."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# group orders and spectrum counts


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = q^(n(n-1)/2) (q-1)(q^2-1)...(q^n-1)."""
    return q ** (n * (n - 1) // 2) * prod(q**i - 1 for i in range(1, n + 1))


def _gaussian_binomials(n: int, q: int) -> list[list[int]]:
    """rows[m][j] = [m choose j]_q for 0 <= j <= m <= n, by the Pascal rule
    [m, j] = [m-1, j-1] + q^j [m-1, j]."""
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1]
        rows.append([1] + [prev[j - 1] + q**j * prev[j] for j in range(1, m)] + [1])
    return rows


def spectrum_count(n: int, k: int, q: int, exact: bool) -> int:
    """M(n,k)(q), or E(n,k)(q) when ``exact``, evaluated on integers.

    Peels one eigenvalue at a time: giving it multiplicity j splits the
    class size as U_n / (U_j U_{n-j}) = q^(j(n-j)) [n choose j]_q times a
    class size in dimension n-j.  For E every multiplicity is at least one.
    """
    binom = _gaussian_binomials(n, q)
    low = 1 if exact else 0
    counts = [1] + [0] * n  # no eigenvalues yet: only dimension 0 is reachable
    for _ in range(k):
        counts = [
            sum(q ** (j * (m - j)) * binom[m][j] * counts[m - j] for j in range(low, m + 1))
            for m in range(n + 1)
        ]
    return counts[n]


def _stirling2(n: int, k: int) -> int:
    table = [[1] + [0] * k]
    for m in range(1, n + 1):
        prev = table[-1]
        table.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, k + 1)])
    return table[n][k]


def value_at_one(n: int, k: int, exact: bool) -> int:
    """M(n,k)(1) = k^n and E(n,k)(1) = k! S(n,k): maps and surjections n -> k."""
    return factorial(k) * _stirling2(n, k) if exact else k**n


def degree_and_lead(n: int, k: int) -> tuple[int, int]:
    """Degree and leading coefficient of M(n,k), and of E(n,k) for k <= n.

    Each class size is monic of degree n^2 - sum n_i^2.  The sum is least
    on the most balanced compositions: r = n mod k parts of n//k + 1 and
    the rest n//k, which can be placed in C(k, r) ways.
    """
    b, r = divmod(n, k)
    return n * n - r * (b + 1) ** 2 - (k - r) * b * b, comb(k, r)


# ----------------------------------------------------------------------
# potent counts


def _multiplicative_order(p: int, d: int) -> int:
    e, x = 1, p % d
    while x != 1 % d:
        x = x * p % d
        e += 1
    return e


def _totient(d: int) -> int:
    return sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)


def _potent_factor_degrees(p: int, k: int) -> list[int]:
    """Degrees of the irreducible factors of x^(k+1) - x over F_p, p not dividing k.

    x^(k+1) - x = x * prod over d | k of the cyclotomic polynomial Phi_d,
    and Phi_d splits into phi(d)/e factors of degree e = ord_d(p).
    """
    degrees = [1]
    for d in range(1, k + 1):
        if k % d == 0:
            e = _multiplicative_order(p, d)
            degrees += [e] * (_totient(d) // e)
    return degrees


def _multiplicities(n: int, degrees: list[int]):
    """All tuples (m_i) of nonnegative integers with sum d_i m_i = n."""
    if not degrees:
        if n == 0:
            yield ()
        return
    d, rest = degrees[0], degrees[1:]
    for m in range(n // d + 1):
        for tail in _multiplicities(n - d * m, rest):
            yield (m,) + tail


def potent_count(n: int, p: int, k: int) -> int:
    """Number of n-by-n matrices over F_p with A^(k+1) = A, for p not dividing k.

    x^(k+1) - x is then squarefree, so the solutions are the semisimple
    matrices whose minimal polynomial divides it: one conjugacy class per
    choice of multiplicities m_i of its irreducible factors f_i (degree
    d_i, sum d_i m_i = n), of size |GL_n(p)| / prod |GL_{m_i}(p^{d_i})|.
    """
    if k % p == 0:
        raise ValueError(f"p={p} divides k={k}: x^(k+1)-x has repeated factors")
    degrees = _potent_factor_degrees(p, k)
    total = 0
    for ms in _multiplicities(n, degrees):
        den = prod(gl_order(m, p**d) for m, d in zip(ms, degrees))
        size, rem = divmod(gl_order(n, p), den)
        if rem:
            raise ArithmeticError(f"class size {gl_order(n, p)}/{den} is not an integer")
        total += size
    return total


# ----------------------------------------------------------------------
# bound certificates


def matrix_certificates(n: int, p: int, k: int, count: int) -> tuple[int, int]:
    """(count*p)^(k+1) and (k+1)^(k+1) * p^(2 n^2 k)."""
    return (count * p) ** (k + 1), (k + 1) ** (k + 1) * p ** (2 * n * n * k)


def ring_certificates(
    factors: list[tuple[int, int]], k: int, count: int, mode: str
) -> tuple[int, int]:
    """Both sides of the theorem2/theorem3/corollary bound, raised to the (k+1)-th power."""
    card = prod(p**r for p, r in factors)
    s = len(factors)
    primes = [p for p, _ in factors]
    if mode == "theorem2":
        return (count * primes[0]) ** (k + 1), (k + 1) ** (k + 1) * card ** (2 * k)
    scale = prod(primes) if mode == "theorem3" else min(primes) ** s
    return (count * scale) ** (k + 1), (k + 1) ** (s * (k + 1)) * card ** (2 * k)


# ----------------------------------------------------------------------
# reading the program's output


_TERM = re.compile(r"([+-]?)(\d*)(q(?:\^(\d+))?)?")


def parse_poly(text: str) -> list[int]:
    """Coefficients by ascending power of a rendered polynomial like 2q^4-q+3."""
    if text == "0":
        return []
    coeffs: dict[int, int] = {}
    for token in re.findall(r"[+-]?[^+-]+", text):
        m = _TERM.fullmatch(token)
        expect(m is not None and (m.group(2) or m.group(3)), f"bad term {token!r} in {text!r}")
        power = 0 if m.group(3) is None else int(m.group(4) or 1)
        expect(power not in coeffs, f"repeated power {power} in {text!r}")
        coeffs[power] = (-1 if m.group(1) == "-" else 1) * int(m.group(2) or 1)
    out = [0] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    expect(out[-1] != 0 and all(c != 0 for c in coeffs.values()), f"zero term in {text!r}")
    return out


def poly_value(coeffs: list[int], x: int) -> int:
    return sum(c * x**i for i, c in enumerate(coeffs))


def check_spectrum_poly(text: str, n: int, k: int, exact: bool, point: int) -> list[int]:
    """Check a rendered M(n,k) or E(n,k) polynomial; returns its coefficients.

    Checks the value at q=1, the degree and leading coefficient, and the
    value at ``point`` against the integer recurrence.
    """
    coeffs = parse_poly(text)
    what = f"{'E' if exact else 'M'}({n},{k})"
    if exact and k > n:
        expect(coeffs == [], f"{what} should be 0, got {text}")
        return coeffs
    expect(sum(coeffs) == value_at_one(n, k, exact), f"{what}(1) != {value_at_one(n, k, exact)}")
    degree, lead = degree_and_lead(n, k)
    expect(len(coeffs) - 1 == degree, f"{what} has degree {len(coeffs) - 1}, expected {degree}")
    expect(coeffs[-1] == lead, f"{what} has leading coefficient {coeffs[-1]}, expected {lead}")
    expected = spectrum_count(n, k, point, exact)
    expect(poly_value(coeffs, point) == expected, f"{what}({point}) != {expected}")
    return coeffs


def parse_records(out: str, fmt: str) -> list[dict[str, str]]:
    """Flatten the program's stdout records into dicts of strings.

    Each record maps ``command``, its parameters, and whichever of
    polynomial, value, verdict and provenance it carries.
    """
    records = []
    if fmt == "json":
        for line in out.splitlines():
            obj = json.loads(line)
            rec = {k: str(v) for k, v in obj.items() if k != "parameters"}
            rec.update(obj.get("parameters", {}))
            records.append(rec)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        expect(rows and rows[0][:2] == ["command", "parameters"], "csv header missing")
        header = rows[0]
        for row in rows[1:]:
            rec = {"command": row[0]}
            rec.update(kv.split("=", 1) for kv in row[1].split())
            rec.update((h, v) for h, v in zip(header[2:], row[2:]) if v)
            records.append(rec)
    else:
        for line in out.splitlines():
            command, *pairs = line.split(" ")
            rec = {"command": command}
            rec.update(pair.split("=", 1) for pair in pairs)
            records.append(rec)
    return records


# ----------------------------------------------------------------------
# brute force on small cases


def _matmul(a, b, n, p):
    return tuple(
        sum(a[i * n + t] * b[t * n + j] for t in range(n)) % p
        for i in range(n)
        for j in range(n)
    )


def _det(a, n, p):
    if n == 1:
        return a[0] % p
    if n == 2:
        return (a[0] * a[3] - a[1] * a[2]) % p
    return (
        a[0] * (a[4] * a[8] - a[5] * a[7])
        - a[1] * (a[3] * a[8] - a[5] * a[6])
        + a[2] * (a[3] * a[7] - a[4] * a[6])
    ) % p


def _shift(a, n, p, alpha):
    return tuple((v - alpha if i % (n + 1) == 0 else v) % p for i, v in enumerate(a))


def selfcheck() -> None:
    """Test every checker above against brute force; raises CheckFailed."""
    for n, p in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        mats = list(itertools.product(range(p), repeat=n * n))
        zero = (0,) * (n * n)
        expect(sum(_det(a, n, p) != 0 for a in mats) == gl_order(n, p), f"|GL_{n}({p})|")
        for size in range(1, p + 1):
            for alphas in itertools.combinations(range(p), size):
                m_hits = e_hits = 0
                for a in mats:
                    product = _shift(a, n, p, alphas[0])
                    for alpha in alphas[1:]:
                        product = _matmul(product, _shift(a, n, p, alpha), n, p)
                    if product == zero:
                        m_hits += 1
                        e_hits += all(_det(_shift(a, n, p, x), n, p) == 0 for x in alphas)
                expect(m_hits == spectrum_count(n, size, p, False), f"M({n},{size})({p})")
                expect(e_hits == spectrum_count(n, size, p, True), f"E({n},{size})({p})")
        for k in range(1, 5):
            if k % p == 0:
                continue
            hits = 0
            for a in mats:
                power = a
                for _ in range(k):
                    power = _matmul(power, a, n, p)
                hits += power == a
            expect(hits == potent_count(n, p, k), f"potent n={n} p={p} k={k}")
        # centralizer of diag(0, 1, ...) is GL_1 x GL_(n-1); its orbit fills the rest
        if n >= 2:
            rep = tuple(int(i == j and i > 0) for i in range(n) for j in range(n))
            cent = sum(
                _det(a, n, p) != 0 and _matmul(a, rep, n, p) == _matmul(rep, a, n, p)
                for a in mats
            )
            expect(cent == gl_order(1, p) * gl_order(n - 1, p), f"centralizer n={n} p={p}")
    for n in range(1, 6):
        for k in range(1, 6):
            maps = list(itertools.product(range(k), repeat=n))
            expect(len(maps) == value_at_one(n, k, False), f"maps {n}->{k}")
            onto = sum(len(set(f)) == k for f in maps)
            expect(onto == value_at_one(n, k, True), f"surjections {n}->{k}")
            # degree and leading coefficient over all weak and all strict compositions
            comps = [c for c in itertools.product(range(n + 1), repeat=k) if sum(c) == n]
            for low in (0, 1) if k <= n else (0,):
                degrees = [n * n - sum(x * x for x in c) for c in comps if min(c) >= low]
                top = max(degrees)
                expect(degree_and_lead(n, k) == (top, degrees.count(top)), f"degree n={n} k={k}")
    expect(matrix_certificates(1, 3, 1, 2) == (36, 36), "tight certificate")
    expect(ring_certificates([(2, 1), (3, 1)], 1, 4, "theorem3") == (576, 576), "ring theorem3")
    expect(parse_poly("2q^4+2q^3+2q^2") == [0, 0, 2, 2, 2], "parse 2q^4+2q^3+2q^2")
    expect(parse_poly("-q^2+3q-1") == [-1, 3, -1], "parse -q^2+3q-1")
    expect(potent_count(3, 5, 3) == 32552, "potent n=3 p=5 k=3")


if __name__ == "__main__":
    selfcheck()
    print("checks: self-check passed")
