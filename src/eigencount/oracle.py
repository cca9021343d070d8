"""Brute-force ground truth over small prime fields.

Every count here comes from scanning matrices and testing the defining
condition directly: annihilation by the prescribed linear factors for
spectrum counts, singularity of every A - alpha*I for exact spectra,
A^(k+1) = A for potency, commutation and invertibility for centralizers,
explicit conjugation for orbits.  Nothing is shared with the closed-form
counting path, so agreement between the two is evidence, not tautology.

A full scan enumerates all p^(n*n) matrices.  Matrix number t has entry
digits of t in base p, least significant digit first, row-major; the scan
walks t ascending, which makes results reproducible and lets the index
range be split into contiguous pieces for parallel workers.  Each chunk
of matrices is decoded into entry planes: an int32 array of shape
(n*n, B) whose row i*n + j holds entry (i, j) of every matrix.  int32 is
exact for every shape a scan admits: entries are reduced mod p after each
product, so no intermediate reaches (n+1)*p^2, which is largest (about
2^17.6) at n=2, p=257.

Spectrum and potent scans first apply a cheap necessary condition on the
planes by matrix-vector products: column 0 of prod(A - alpha*I) is zero
(v <- (A - alpha*I) v from v = e_1), or A^k (A e_1) = A e_1 (A^k applied
by binary powering, so O(log k) squarings).  The full condition implies
it -- a zero product has a zero first column, and A^(k+1) = A sends e_1
to A e_1 -- so the filter drops no matrix the full test would count.
Only its survivors become an int64 (B', n, n) batch and take the full
defining test; exact spectra then refine by batched Gauss-Jordan
elimination mod p, which also gives invertibility and inverses for
centralizers and orbits.  Every count sums a per-chunk hit function over
the index range.  Scans above the budget (default 2^26 matrices) are
refused unless forced, and shapes whose p^(n*n) overflows the int64
index always.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counting import is_prime

__all__ = [
    "PrimeField",
    "OracleCountReport",
    "BudgetExceeded",
    "DuplicateAlpha",
    "count_m",
    "count_e",
    "count_potent",
    "centralizer_size",
    "orbit_size",
    "block_diag_rep",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 1 << 26
_CHUNK = 1 << 16
_INDEX_MAX = (1 << 63) - 1


class BudgetExceeded(RuntimeError):
    """A scan would enumerate more matrices than the budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"scanning needs {required} matrices but the budget is {budget}; "
            "raise the budget or force the scan"
        )
        self.required = required
        self.budget = budget


class DuplicateAlpha(ValueError):
    """A prescribed spectrum contains a repeated value."""


class PrimeField:
    """A prime field F_p with 2 <= p <= 257, checked at construction."""

    __slots__ = ("p",)

    MIN_P = 2
    MAX_P = 257

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"{p!r} is not prime")
        if not (self.MIN_P <= p <= self.MAX_P):
            raise ValueError(f"p={p} outside supported range [2, 257]")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


@dataclass
class OracleCountReport:
    """One exhaustive count with the scan parameters that produced it."""

    n: int
    p: int
    spec: str
    count: int
    scanned: int
    seconds: float


def _check_alphas(field: PrimeField, alphas: Sequence[int]) -> tuple[int, ...]:
    alphas = tuple(int(a) for a in alphas)
    if not alphas:
        raise ValueError("spectrum must be nonempty")
    if any(a < 0 or a >= field.p for a in alphas):
        raise ValueError(f"spectrum entries must lie in [0, {field.p})")
    if len(set(alphas)) != len(alphas):
        raise DuplicateAlpha(f"repeated value in spectrum {alphas}")
    return alphas


def _scan_size(n: int, p: int, budget: int, force: bool, jobs: int = 1, scans: int = 1) -> int:
    """The p^(n*n) matrices of a scan shape, after refusing scans not to run.

    The budget covers ``scans`` scans of that shape together, so a caller
    about to run several can refuse them all before the first one.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    total = p ** (n * n)
    if total > _INDEX_MAX:
        raise ValueError(f"{p}^{n * n} matrices overflow the int64 scan index")
    if not force and scans * total > budget:
        raise BudgetExceeded(scans * total, budget)
    return total


# ----------------------------------------------------------------------
# the batch kernels


def _decode(start: int, stop: int, n: int, p: int) -> np.ndarray:
    """Matrices number start..stop-1 as int32 entry planes of shape (n*n, B)."""
    idx = np.arange(start, stop, dtype=np.int64)
    planes = np.empty((n * n, idx.size), dtype=np.int32)
    for j in range(n * n):
        quotient = idx // p
        planes[j] = idx - quotient * p
        idx = quotient
    return planes


def _matrices(planes: np.ndarray) -> np.ndarray:
    """The int64 (B, n, n) batch of the matrices in entry planes."""
    n = math.isqrt(len(planes))
    return np.ascontiguousarray(planes.T, dtype=np.int64).reshape(-1, n, n)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place: numpy floor-divides by a scalar several times
    faster than it takes the remainder."""
    quotient = x // p
    quotient *= p
    x -= quotient
    return x


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v, not reduced, for planes a of shape (n, n, B) and vectors v of shape (n, B)."""
    w = a[:, 0] * v[0]
    for j in range(1, len(v)):
        w += a[:, j] * v[j]
    return w


def _square(a: np.ndarray, p: int) -> np.ndarray:
    """A A mod p for planes a of shape (n, n, B)."""
    sq = a[:, 0, None] * a[None, 0]
    for t in range(1, len(a)):
        sq += a[:, t, None] * a[None, t]
    return _reduce(sq, p)


def _first_column_annihilated(planes: np.ndarray, alphas: tuple[int, ...], p: int) -> np.ndarray:
    """True where column 0 of prod(A - alpha*I) vanishes, by v <- (A - alpha*I) v
    from v = e_1: necessary for the whole product to vanish."""
    n = math.isqrt(len(planes))
    a = planes.reshape(n, n, -1)
    v = a[:, 0].copy()  # A e_1
    v[0] += p - alphas[0]
    v = _reduce(v, p)
    for alpha in alphas[1:]:
        w = _matvec(a, v)
        w += (p - alpha) * v
        v = _reduce(w, p)
    return ~v.any(axis=0)


def _first_column_potent(planes: np.ndarray, k: int, p: int) -> np.ndarray:
    """True where A^k (A e_1) = A e_1, with A^k applied by binary powering:
    necessary for A^(k+1) = A."""
    n = math.isqrt(len(planes))
    base = planes.reshape(n, n, -1)
    column = base[:, 0]
    v = column
    while k:
        if k & 1:
            v = _reduce(_matvec(base, v), p)
        k >>= 1
        if k:
            base = _square(base, p)
    return (v == column).all(axis=0)


def _annihilated_mask(mats: np.ndarray, alphas: tuple[int, ...], p: int) -> np.ndarray:
    """True where the product of (A - alpha*I) over all alphas vanishes."""
    n = mats.shape[1]
    eye = np.eye(n, dtype=np.int64)
    prod = _reduce(mats - alphas[0] * eye, p)
    for a in alphas[1:]:
        prod = _reduce(prod @ _reduce(mats - a * eye, p), p)
    return ~prod.any(axis=(1, 2))


def _pow_batch(mats: np.ndarray, exponent: int, p: int) -> np.ndarray:
    n = mats.shape[1]
    result = np.broadcast_to(np.eye(n, dtype=np.int64), mats.shape).copy()
    base = _reduce(mats.copy(), p)
    while exponent:
        if exponent & 1:
            result = _reduce(result @ base, p)
        exponent >>= 1
        if exponent:
            base = _reduce(base @ base, p)
    return result


def _gauss_jordan(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Invertible mask and inverses mod p of an int64 (B, n, n) batch.

    Eliminates [A | I] for the whole batch at once.  Column c takes as
    pivot the first row at or below c with a nonzero entry there; a
    matrix without one is singular, and its slot in the returned inverses
    holds no meaning.
    """
    b, n, _ = mats.shape
    inverse_of = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), mats.shape)
    work = _reduce(np.concatenate((mats, eye), axis=2), p)
    invertible = np.ones(b, dtype=bool)
    batch = np.arange(b)
    for col in range(n):
        nonzero = work[:, col:, col] != 0
        invertible &= nonzero.any(axis=1)
        pivot = col + nonzero.argmax(axis=1)
        top = work[:, col].copy()
        work[:, col] = work[batch, pivot]
        work[batch, pivot] = top
        work[:, col] = _reduce(work[:, col] * inverse_of[work[:, col, col]][:, None], p)
        factors = work[:, :, col].copy()
        factors[:, col] = 0
        work -= factors[:, :, None] * work[:, None, col]
        _reduce(work, p)
    return invertible, work[:, :, n:]


# ----------------------------------------------------------------------
# the scan driver and its per-chunk hit functions hit(planes, payload, p),
# kept at module level so the worker pool can pickle them


def _annihilated(planes: np.ndarray, alphas: tuple[int, ...], p: int) -> np.ndarray:
    """The int64 batch of matrices annihilated by prod(A - alpha*I): the
    first-column filter, then the full product on its survivors."""
    mats = _matrices(planes[:, _first_column_annihilated(planes, alphas, p)])
    return mats[_annihilated_mask(mats, alphas, p)]


def _hits_m(planes: np.ndarray, alphas: tuple[int, ...], p: int) -> int:
    return len(_annihilated(planes, alphas, p))


def _hits_e(planes: np.ndarray, alphas: tuple[int, ...], p: int) -> int:
    """Annihilated matrices for which every A - alpha*I is singular."""
    mats = _annihilated(planes, alphas, p)
    eye = np.eye(mats.shape[1], dtype=np.int64)
    for a in alphas:
        invertible, _ = _gauss_jordan(mats - a * eye, p)
        mats = mats[~invertible]
    return len(mats)


def _hits_potent(planes: np.ndarray, k: int, p: int) -> int:
    """Matrices with A^(k+1) = A: the first-column filter, then the full
    power on its survivors."""
    mats = _matrices(planes[:, _first_column_potent(planes, k, p)])
    return int((_pow_batch(mats, k + 1, p) == mats).all(axis=(1, 2)).sum())


def _hits_centralizer(planes: np.ndarray, rep: np.ndarray, p: int) -> int:
    """Invertible matrices among those commuting with rep."""
    mats = _matrices(planes)
    commuting = (_reduce(mats @ rep, p) == _reduce(rep @ mats, p)).all(axis=(1, 2))
    invertible, _ = _gauss_jordan(mats[commuting], p)
    return int(invertible.sum())


def _chunks(start: int, stop: int, n: int, p: int):
    """Entry planes of matrices start..stop-1, at most _CHUNK of them at a time."""
    for cs in range(start, stop, _CHUNK):
        yield _decode(cs, min(cs + _CHUNK, stop), n, p)


def _scan_range(task) -> int:
    """Sum the hits in matrix index range [start, stop); worker entry point."""
    hit, n, p, payload, start, stop = task
    return sum(hit(planes, payload, p) for planes in _chunks(start, stop, n, p))


def _run_scan(hit, n: int, p: int, payload, total: int, jobs: int) -> int:
    """Sum the hits over all matrices on at most jobs worker processes,
    clamped to the cores and to the chunks so none starts without work."""
    workers = min(jobs, os.cpu_count() or 1, -(-total // _CHUNK))
    if workers <= 1:
        return _scan_range((hit, n, p, payload, 0, total))
    step = -(-total // workers)
    tasks = [(hit, n, p, payload, s, min(s + step, total)) for s in range(0, total, step)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_scan_range, tasks))


def _count(n, field, spec, hit, payload, budget, force, jobs) -> OracleCountReport:
    total = _scan_size(n, field.p, budget, force, jobs)
    t0 = time.perf_counter()
    hits = _run_scan(hit, n, field.p, payload, total, jobs)
    seconds = time.perf_counter() - t0
    return OracleCountReport(n, field.p, spec, count=hits, scanned=total, seconds=seconds)


def count_m(
    n: int,
    field: PrimeField,
    alphas: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
    jobs: int = 1,
) -> OracleCountReport:
    """Exhaustively count matrices annihilated by prod(A - alpha*I).

    These are the diagonalizable matrices whose spectrum lies inside the
    prescribed set.
    """
    alphas = _check_alphas(field, alphas)
    spec = "m:{" + ",".join(map(str, alphas)) + "}"
    return _count(n, field, spec, _hits_m, alphas, budget, force, jobs)


def count_e(
    n: int,
    field: PrimeField,
    alphas: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
    jobs: int = 1,
) -> OracleCountReport:
    """Exhaustively count diagonalizable matrices with spectrum exactly alphas.

    The annihilation test is refined by requiring A - alpha*I to be
    singular for every prescribed alpha, i.e. each one really occurs as an
    eigenvalue.
    """
    alphas = _check_alphas(field, alphas)
    spec = "e:{" + ",".join(map(str, alphas)) + "}"
    return _count(n, field, spec, _hits_e, alphas, budget, force, jobs)


def count_potent(
    n: int,
    field: PrimeField,
    k: int,
    *,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
    jobs: int = 1,
) -> OracleCountReport:
    """Exhaustively count matrices with A^(k+1) = A.

    Valid for every p and k, including fields without k-th roots of unity
    where the closed form does not apply; this count is then the only
    authority.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return _count(n, field, f"potent:k={k}", _hits_potent, k, budget, force, jobs)


# ----------------------------------------------------------------------
# conjugacy-class geometry for diagonal representatives


def block_diag_rep(parts: Sequence[int], field: PrimeField) -> np.ndarray:
    """Diagonal int64 matrix with eigenvalue i-1 repeated parts[i-1] times.

    Zero parts contribute no rows but still consume their eigenvalue, so
    the representative matches the composition it came from.  Needs
    len(parts) <= p distinct eigenvalues.
    """
    parts = tuple(parts)
    if not parts or any(s < 0 for s in parts):
        raise ValueError("parts must be nonnegative with at least one entry")
    if sum(parts) < 1:
        raise ValueError("parts must sum to a positive dimension")
    if len(parts) > field.p:
        raise ValueError(f"{len(parts)} distinct eigenvalues do not fit in F_{field.p}")
    return np.diag(np.repeat(np.arange(len(parts), dtype=np.int64), parts))


def centralizer_size(
    parts: Sequence[int],
    field: PrimeField,
    *,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
) -> int:
    """Count invertible matrices commuting with the block-diagonal rep."""
    rep = block_diag_rep(parts, field)
    n, p = len(rep), field.p
    total = _scan_size(n, p, budget, force)
    return _run_scan(_hits_centralizer, n, p, rep, total, 1)


def orbit_size(
    parts: Sequence[int],
    field: PrimeField,
    *,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
) -> int:
    """Size of the conjugacy class of the block-diagonal rep.

    Built explicitly: conjugate the representative by every invertible
    matrix and deduplicate, each conjugate keyed by its scan index.
    """
    rep = block_diag_rep(parts, field)
    n, p = len(rep), field.p
    total = _scan_size(n, p, budget, force)
    digit_weights = p ** np.arange(n * n, dtype=np.int64)
    seen = np.empty(0, dtype=np.int64)
    for planes in _chunks(0, total, n, p):
        g = _matrices(planes)
        invertible, g_inv = _gauss_jordan(g, p)
        conjugates = _reduce(_reduce(g[invertible] @ rep, p) @ g_inv[invertible], p)
        seen = np.union1d(seen, conjugates.reshape(-1, n * n) @ digit_weights)
    return int(seen.size)
