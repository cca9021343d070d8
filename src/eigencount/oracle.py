"""Brute-force ground truth over small prime fields.

Every count here comes from scanning matrices and testing the defining
condition directly: annihilation by the prescribed linear factors for
spectrum counts, the set of alpha with A - alpha*I singular for exact
spectra, A^(k+1) = A for potency, commutation and invertibility for
centralizers, and for orbits A g = g D with g invertible, which holds for
some g exactly when each A - i*I has as large a kernel as D - i*I.
Nothing is shared with the closed-form counting path, so agreement
between the two is evidence, not tautology.

Fields and count reports are named tuples: immutable, hashable, equal
and shown field by field.  A field checks p however it is built, by its
constructor, _make, _replace, copy or pickle.

A full scan enumerates all p^(n*n) matrices.  Matrix number t has entry
digits of t in base p, least significant digit first, row-major; the scan
walks t ascending, which makes results reproducible and lets the index
range be split into contiguous pieces for parallel workers.  Each chunk
of matrices is decoded into entry planes: an integer array of shape
(n*n, B) whose row i*n + j holds entry (i, j) of every matrix.  A chunk
is a whole number of runs of p^j matrices that differ only in their low
j digits, so one template holds those digits, written by broadcasting
arange(p) in the planes' type, and each chunk fills in the rest by
broadcast, into one buffer reused across a range.  Entries are
reduced mod p after each product, so no intermediate reaches (n+1)*p^2,
and the planes are the narrowest of int8/int16/int32 that holds it.
Within the default budget that is int8 or int16, except int32 at n=1
for p >= 131; unbudgeted shapes such as (2, 257) take int32 too.

A chunk's planes take at most _CHUNK_BYTES, about 120 KiB, whatever the
shape and type, which is why the bound is in bytes and not in matrices:
every (n, n, B) temporary of the kernels is then no larger than the
planes and stays below glibc's default 128 KiB mmap threshold, so it is
served from the heap and reused chunk after chunk instead of being
mapped, faulted in and returned to the system each time.

Spectrum and potent scans run one test on the planes, f(A) = 0 for a
monic f with coefficients mod p, one column at a time by matrix-vector
products: column j of f(A) is, by Horner's rule, v <- A v + c*e_j from
v = A e_j, one step for each lower coefficient c of f.  A matrix is zero
exactly when all its columns are, so this is the definition itself.
Spectra are scanned together, with f = prod(x - alpha) over U, their
union: an annihilated A is diagonalizable over F_p, so alpha is an
eigenvalue exactly when (A - alpha*I)^(p-1) != I (Fermat's test), one
binary powering on whole matrices per alpha in U.  A scan's hits are the
histogram of the annihilated matrices' eigenvalue sets, and each
spectrum S reads from it its E count, the bin of S, and its M count, the
bins of the subsets of S.  Both potent scans and the invertibility test
rest on one constant, E = lcm(p^d - 1, d <= n) * p^a with p^a >= n,
a >= 1 (_exponent): B^E = I for every invertible n-by-n B over F_p.  A
potent scan, A^(k+1) = A, first replaces k by g = gcd(k, E), which has
the same solutions (a solution is 0 on its nilpotent Fitting part and of
order dividing k, so dividing g, on its invertible part), and takes
f = x^(g+1) - x and U empty, one bin.  Its g matvecs are used while
g <= n*(g.bit_length() + g.bit_count() - 2) + 1, the matvec cost of
binary powering: its g.bit_length() + g.bit_count() - 2 products take
about n matvecs each, and one more applies A^g.  Past that A^g is formed
by binary powering and A^g A = A tested on whole matrices.
Centralizers test invertibility by the same constant on the same planes:
A^E = I for every invertible A and A^E is singular for every singular A.
An orbit, the class of the diagonal D with eigenvalue i on parts[i]
columns, is the matrices A with A g = g D for an invertible g, whose
columns in the block of i are a basis of the kernel of A - i*I.  So it
is scanned as f(A) = 0 for f = prod(x - i) over the i with
parts[i] > 0, then each such kernel counted on the p^n vectors: it must
hold exactly p^parts[i], 0 included.

Every count comes from one driver, _scan_range, in two stages, for the
one item of a scan ((f, U) for an annihilation, a potent exponent past
the matvec crossover, a centralizer's representative, (f, blocks) for an
orbit).  A scan kind is a (column, finish) pair: column(a, item, j, p)
is where column j of the planes passes the kind's defining test
(_annihilated, _powered, _commuting), and finish gives the hits among
matrices whose column 0 passed as counts that add element-wise, so the
hits of pools and workers are summed before any report is formed.
Stage 1 runs column 0 on each chunk, which at n=3, p=5 only 0.8% ({0})
to 18% (k=4, or all of F_5) of the matrices pass, and copies their
planes into a pool as large as a chunk.  When the pool would overflow,
and at the end of the range, stage 2 finishes it at once: _passing runs
columns 1..n-1, only the matrices whose columns so far pass going on to
the next, then Fermat's test makes the histogram of eigenvalue sets,
invertibility counts centralizers and kernel sizes count orbits.  So
stage 2 runs on the survivors of many chunks together rather than as
many small numpy calls per chunk.  _powered tests whole matrices in
stage 1 instead, A^k formed once per chunk, so its pool holds only hits
and stage 2 counts them.  Going column by column would mean carrying A^k
along and compacting it with the planes, and would save little: at n=3,
p=5 k = 10^18 becomes gcd(k, 3720) = 40, 41% of the matrices pass
column 0 and 96% of those column 1.  Every scan is sized and charged
by _admit before anything is built: scans above the budget (default 2^26
matrices; budget=None lifts it) are refused, and shapes whose p^(n*n)
overflows the int64 index always; the budget counts an M and an E scan
per spectrum.

A parallel scan splits the index range on chunk boundaries into one
range per process.  The caller scans the first range itself and forks a
child for each other one.  A child sends its hits back as decimal text on
a pipe and leaves by os._exit, so it never returns into the caller's code
and never writes output the caller buffered before the fork.  The caller
reaps every child, and kills the children still running when it fails or
is interrupted.  Without os.fork, scans run serially.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import sys
import time
from collections import namedtuple
from collections.abc import Collection, Iterable, Sequence

# numpy's OpenBLAS would start a thread pool that these integer kernels
# never use: import it single-threaded unless the caller chose otherwise,
# then leave the environment as it was
_BLAS_THREADS = "OPENBLAS_NUM_THREADS"
_blas_threads_unset = _BLAS_THREADS not in os.environ
os.environ.setdefault(_BLAS_THREADS, "1")
try:
    import numpy as np
finally:
    if _blas_threads_unset:
        del os.environ[_BLAS_THREADS]

from .counting import is_prime, validate_spectrum

__all__ = [
    "PrimeField",
    "OracleCountReport",
    "BudgetExceeded",
    "count_spectra",
    "count_potent",
    "centralizer_size",
    "orbit_size",
    "block_diag_rep",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 1 << 26
# the most bytes of entry planes in one chunk: with malloc's chunk header a
# buffer this size still falls below glibc's default 128 KiB mmap threshold
_CHUNK_BYTES = 120 << 10
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


class PrimeField(namedtuple("PrimeField", "p")):
    """A prime field F_p with 2 <= p <= 257, checked at construction."""

    __slots__ = ()

    MIN_P = 2
    MAX_P = 257

    def __new__(cls, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"{p!r} is not prime")
        if not (cls.MIN_P <= p <= cls.MAX_P):
            raise ValueError(f"p={p} outside supported range [2, 257]")
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, iterable) -> PrimeField:
        # _replace builds through _make, which would otherwise skip __new__
        return cls(*iterable)


class OracleCountReport(namedtuple("OracleCountReport", "n p spec count scanned seconds")):
    """One exhaustive count with the scan parameters that produced it."""

    __slots__ = ()


def _admit(n: int, p: int, budget: int | None, scans: int = 1, jobs: int = 1) -> int:
    """The p^(n*n) matrices of a scan shape, refused unless scans of them
    fit in budget, which None lifts: as p >= 2, n*n >= 63 overflows the
    int64 index before any power is formed, and no budget admits that."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if n * n >= 63 or p ** (n * n) > _INDEX_MAX:
        raise ValueError(f"{p}^{n * n} matrices overflow the int64 scan index")
    total = p ** (n * n)
    if budget is not None and scans * total > budget:
        raise BudgetExceeded(scans * total, budget)
    return total


# ----------------------------------------------------------------------
# the batch kernels


def _chunk_layout(n: int, p: int) -> tuple[int, int, int]:
    """(j, p^j, size) for the largest j <= n*n with p^j <= cap, the most
    matrices whose _plane_dtype planes fit in _CHUNK_BYTES: matrices differ
    only in their low j digits within each run of p^j, and a chunk holds
    size matrices, the most whole runs that fit in cap."""
    cap = _CHUNK_BYTES // (n * n * np.dtype(_plane_dtype(n, p)).itemsize)
    j = 0
    while j < n * n and p ** (j + 1) <= cap:
        j += 1
    run = p**j
    return j, run, run * min(cap // run, p ** (n * n - j))


_PLANE_TYPES = [(np.iinfo(t).max, t) for t in (np.int8, np.int16, np.int32)]


def _plane_dtype(n: int, p: int) -> type:
    """The narrowest signed integer type holding (n+1)*p^2, above every
    intermediate of the plane kernels: a matvec or product sum is at most
    n*(p-1)^2, and a Horner step of _annihilated adds at most p-1 to it."""
    return next(t for top, t in _PLANE_TYPES if top >= (n + 1) * p * p)


def _chunks(start: int, stop: int, n: int, p: int):
    """Entry planes of matrices start..stop-1, one chunk at a time, decoded
    into one _plane_dtype buffer of shape (n*n, size) that each chunk
    overwrites.

    Chunks are aligned to multiples of size.  The low j digits repeat in
    every run of p^j matrices, so they are written once: digit d < j of
    index t is (t // p^d) % p, so row d viewed as (size / p^(d+1), p, p^d)
    takes the value i at [:, i, :], broadcast from arange(p) in the planes'
    type.  Per chunk only the higher digits, constant over each run, are
    filled in, all by one broadcast: digit d >= j of the matrices of run r
    (index r*p^j onwards) is (r // p^(d-j)) % p.
    """
    j, run, size = _chunk_layout(n, p)
    buffer = np.empty((n * n, size), dtype=_plane_dtype(n, p))
    digits = np.arange(p, dtype=buffer.dtype)[:, None]
    for d in range(j):
        buffer[d].reshape(-1, p, p**d)[:] = digits
    high = buffer[j:].reshape(n * n - j, size // run, run)  # [d - j, r] is constant
    # p^(d-j), capped where it passes every int64 index and the digit is 0
    places = np.array([min(p**e, _INDEX_MAX) for e in range(n * n - j)], dtype=np.int64)[:, None]
    for cs in range(start - start % size, stop, size):
        end = min(stop, cs + size) - cs
        # with no high digits (j = n*n) high has no rows, and this writes nothing
        runs = np.arange(cs // run, cs // run - (-end // run), dtype=np.int64)
        # cast before broadcasting: a cast while broadcasting is several times slower
        high[:, : len(runs)] = (runs // places % p).astype(buffer.dtype)[:, :, None]
        yield buffer[:, max(start - cs, 0) : end]


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


def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """A B mod p for planes a of shape (n, n, B) and b of shape (n, m, B)."""
    prod = a[:, 0, None] * b[None, 0]
    for t in range(1, len(a)):
        prod += a[:, t, None] * b[None, t]
    return _reduce(prod, p)


def _exponent(n: int, p: int) -> int:
    """E = lcm(p^d - 1, d <= n) * p^a for the least a >= 1 with p^a >= n:
    B^E = I for every invertible n-by-n B over F_p.

    The semisimple part of B has its eigenvalues in the fields F_(p^d),
    d <= n, so its order divides lcm(p^d - 1, d <= n); the unipotent part
    has Jordan blocks of size at most n, so its order divides any p^a >= n.
    For n >= 2 this is the exponent of GL_n(F_p), the lcm of its element
    orders; at n = 1 it is p times that, so E - 1 >= 1 even for p = 2.
    """
    unipotent = next(p**a for a in itertools.count(1) if p**a >= n)
    return math.lcm(*(p**d - 1 for d in range(1, n + 1))) * unipotent


def _power(a: np.ndarray, k: int, p: int) -> np.ndarray:
    """A^k mod p for planes a of shape (n, n, B) and k >= 1, by binary
    powering in O(log k) products."""
    power = None
    while k:
        if k & 1:
            power = a if power is None else _mul(power, a, p)
        k >>= 1
        if k:
            a = _mul(a, a, p)
    return power


def _invertible(a: np.ndarray, p: int) -> np.ndarray:
    """Where planes a of shape (n, n, B) are invertible mod p: exactly where
    A^E = I (_exponent), as a singular A has a singular A^E."""
    n = len(a)
    return (_power(a, _exponent(n, p), p) == np.eye(n, dtype=a.dtype)[:, :, None]).all(axis=(0, 1))


# ----------------------------------------------------------------------
# the scan kinds, each a (column, finish) pair: column(a, item, j, p) is
# where column j of planes a, of shape (n, n, B), passes item's defining
# test, and finish(a, item, p) the hits of planes a pooled from several
# chunks, matrices whose column 0 passed, as counts that add element-wise


def _monic(roots: Iterable[int], p: int) -> tuple[int, ...]:
    """prod(x - alpha) over roots, its coefficients mod p, lowest first."""
    f = [1]
    for alpha in roots:
        f = [(low - alpha * high) % p for low, high in zip([0, *f], [*f, 0])]
    return tuple(f)


def _annihilated(a: np.ndarray, item: tuple, j: int, p: int) -> np.ndarray:
    """Where column j of f(A) mod p vanishes, for f = item[0] monic with
    coefficients mod p, lowest first, of degree at least 1: by Horner's
    rule, v = A e_j, then v <- A v + c*e_j for each lower coefficient c,
    the highest first.  v < p before each matvec, so no step passes
    n*(p-1)^2 + p-1."""
    f = item[0]
    v = a[:, j]  # A e_j, already reduced
    if f[-2]:
        v = v.copy()
        v[j] += f[-2]
        _reduce(v[j], p)  # the only row changed
    for c in f[-3::-1]:
        v = _matvec(a, v)
        if c:
            v[j] += c
        v = _reduce(v, p)
    return ~v.any(axis=0)


def _passing(a: np.ndarray, column, item, p: int) -> np.ndarray:
    """Planes of the matrices of a whose columns 1..n-1 pass column's test,
    column 0 known to pass; only the matrices whose columns so far pass go
    on to the next."""
    for j in range(1, len(a)):
        a = a.take(np.flatnonzero(column(a, item, j, p)), axis=2)
    return a


def _set_key(alphas: Sequence[int], union: tuple[int, ...]) -> int:
    """The key of the eigenvalues alphas, ascending in the ascending union:
    i + 1 for each union[i] as base-(|U|+1) digits, the first the lowest."""
    return sum((union.index(alpha) + 1) * (len(union) + 1) ** k for k, alpha in enumerate(alphas))


def _eigenvalue_keys(a: np.ndarray, union: tuple[int, ...], p: int) -> np.ndarray:
    """The _set_key of each matrix's eigenvalues, for planes a of shape
    (n, n, B) annihilated by prod(A - alpha*I) over the ascending union, in
    the narrowest unsigned type holding (|U|+1)^n.

    Such an A is diagonalizable over F_p, so by Fermat's test alpha is an
    eigenvalue exactly where (A - alpha*I)^(p-1) != I: one binary powering
    per element of the union.
    """
    n = len(a)
    eye = np.eye(n, dtype=a.dtype)[:, :, None]
    keys = np.zeros(a.shape[-1], dtype=np.min_scalar_type((len(union) + 1) ** n))
    for i in reversed(range(len(union))):  # Horner steps, the highest digit first
        found = (_power(_reduce(a + (p - union[i]) * eye, p), p - 1, p) != eye).any(axis=(0, 1))
        keys[found] = keys[found] * (len(union) + 1) + i + 1
    return keys


def _finish_annihilated(a: np.ndarray, item: tuple, p: int) -> np.ndarray:
    """The histogram of the eigenvalue sets of the matrices with f(A) = 0,
    for item = (f, U) with f = prod(x - alpha) over the ascending U: bin
    _set_key(S, U) counts those whose eigenvalues are S.  With U = (), for
    any f, it is one bin, their number."""
    union = item[1]
    a = _passing(a, _annihilated, item, p)
    # (|U|+1)^n bins hold the key of every set of at most n eigenvalues;
    # np.unique would fault in ~0.4 MB of its own machinery in every process
    return np.bincount(_eigenvalue_keys(a, union, p), minlength=(len(union) + 1) ** len(a))


def _spectrum_counts(counts: Sequence[int], union: tuple, alphas: Sequence[int], n: int) -> tuple[int, int]:
    """The M and E counts of spectrum alphas from the histogram counts of a
    scan over union: M sums the bins of the sets of at most n eigenvalues
    inside alphas, E is the bin of alphas, or 0 if it has more than n."""
    alphas = sorted(alphas)
    subsets = (s for size in range(1, n + 1) for s in itertools.combinations(alphas, size))
    exact = counts[_set_key(alphas, union)] if len(alphas) <= n else 0
    return sum(counts[_set_key(s, union)] for s in subsets), exact


def _powered(a: np.ndarray, k: int, j: int, p: int) -> np.ndarray:
    """Where A^k A = A, tested on whole matrices whatever j, with A^k formed
    by binary powering: column 0 of a potent scan past _by_matvecs, so its
    pool holds only hits."""
    return (_mul(_power(a, k, p), a, p) == a).all(axis=(0, 1))


def _finish_powered(a: np.ndarray, k: int, p: int) -> tuple[int]:
    """The number of pooled matrices, each a hit of _powered."""
    return (a.shape[-1],)


def _commuting(a: np.ndarray, rep: np.ndarray, j: int, p: int) -> np.ndarray:
    """Where column j of A*rep equals that of rep*A, for rep given as
    planes of shape (n, n, 1)."""
    return (_reduce(_matvec(a, rep[:, j]), p) == _reduce(_matvec(rep, a[:, j]), p)).all(axis=0)


def _finish_centralizer(a: np.ndarray, rep: np.ndarray, p: int) -> tuple[int]:
    """Invertible matrices commuting with rep."""
    return (int(_invertible(_passing(a, _commuting, rep, p), p).sum()),)


def _finish_orbit(a: np.ndarray, item: tuple, p: int) -> tuple[int]:
    """The matrices with f(A) = 0 whose A - i*I has a kernel of exactly
    p^size vectors, 0 included, for item = (f, blocks), blocks the pairs
    (i, size) with size > 0 and f = prod(x - i) over their i: each of the
    p^n vectors is tried on every matrix, one block at a time, and only
    the matrices that pass go on to the next."""
    a = _passing(a, _annihilated, item, p)
    n = len(a)
    eye = np.eye(n, dtype=a.dtype)[:, :, None]
    vectors = np.array(list(itertools.product(range(p), repeat=n)), dtype=a.dtype)[:, :, None]
    for i, size in item[1]:
        b = _reduce(a + (p - i) * eye, p)
        kernel = sum(~_reduce(_matvec(b, v), p).any(axis=0) for v in vectors)
        a = a.take(np.flatnonzero(kernel == p**size), axis=2)
    return (a.shape[-1],)


_ANNIHILATED = (_annihilated, _finish_annihilated)
_POWERED = (_powered, _finish_powered)
_CENTRALIZER = (_commuting, _finish_centralizer)
_ORBIT = (_annihilated, _finish_orbit)


def _by_matvecs(k: int, n: int) -> bool:
    """Whether A^k (A e_j) costs no more as k matvecs than by binary powering.

    Binary powering forms A^k in k.bit_length() - 1 squarings and
    k.bit_count() - 1 further products, each about n matvecs, and then
    takes one matvec by A^k."""
    return k <= n * (k.bit_length() + k.bit_count() - 2) + 1


def _potent_scan(k: int, n: int, p: int) -> tuple[tuple, object]:
    """The kind and item of a scan for A^(k+1) = A: f(A) = 0 for
    f = x^(k+1) - x, k matvecs a column, where they cost no more
    (_by_matvecs), else A^k A = A on whole matrices."""
    if _by_matvecs(k, n):
        return _ANNIHILATED, ((0, p - 1, *[0] * (k - 1), 1), ())
    return _POWERED, k


# ----------------------------------------------------------------------
# the scan driver


def _scan_range(test, n: int, p: int, item, start: int, stop: int) -> tuple[int, ...]:
    """The hits of item over matrix index range [start, stop).

    test is a (column, finish) pair.  Stage 1 runs column 0 of the test on
    every chunk and copies the passing matrices into one pool of a chunk's
    size; when they would overflow it, and at the end, stage 2 finishes the
    pool, so it batches the survivors of many chunks.
    """
    column, finish = test
    # (n*n, B) like the chunk: taking into an (n, n, B) pool raised the peak
    # RSS of a serial potent scan at (3, 5) by about 0.1 MB
    pool = np.empty((n * n, _chunk_layout(n, p)[2]), dtype=_plane_dtype(n, p))
    # summed pool by pool: a list of every pool's hits takes memory in pools x reports
    hits, fill = 0, 0
    for planes in _chunks(start, stop, n, p):
        keep = column(planes.reshape(n, n, -1), item, 0, p)
        kept = np.count_nonzero(keep)
        if fill + kept > pool.shape[1]:
            hits = np.add(hits, finish(pool[:, :fill].reshape(n, n, -1), item, p))
            fill = 0
        np.compress(keep, planes, axis=1, out=pool[:, fill : fill + kept])
        fill += kept
    return tuple(np.add(hits, finish(pool[:, :fill].reshape(n, n, -1), item, p)).tolist())


def _ranges(total: int, size: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ranges covering matrix indices [0, total), at most one per
    worker, that split on multiples of the chunk size: each takes
    ceil(chunks/workers) chunks and the last the rest."""
    chunks = -(-total // size)
    step = -(-chunks // workers) * size
    return [(start, min(start + step, total)) for start in range(0, total, step)]


def _fork_scan(test, n: int, p: int, item, start: int, stop: int) -> tuple[int, int]:
    """Fork a child that scans [start, stop) and writes its hits to a pipe
    as decimal text; the child's pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    # the child leaves here whatever happens: it never returns into the
    # caller's stack, whose exit handlers and buffered output are the caller's
    status = 1
    try:
        os.close(read)
        hits = _scan_range(test, n, p, item, start, stop)
        with open(write, "wb") as pipe:  # writes every byte, however many
            pipe.write(" ".join(map(str, hits)).encode())
        status = 0
    except Exception:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _run_scan(test, n: int, p: int, item, total: int, jobs: int) -> tuple[tuple[int, ...], float]:
    """The hits summed over all matrices, and the seconds the scan took, on
    at most jobs processes, the caller included, clamped to the cores and
    to the chunks so none starts without work.  No child outlives the
    call: each is reaped on success, and killed and reaped when the caller
    or a child fails."""
    t0 = time.perf_counter()
    size = _chunk_layout(n, p)[2]
    workers = min(jobs, os.cpu_count() or 1, -(-total // size)) if hasattr(os, "fork") else 1
    first, *others = _ranges(total, size, workers)
    children = []  # (pid, pipe read end) of each child not yet reaped
    try:
        for start, stop in others:
            children.append(_fork_scan(test, n, p, item, start, stop))
        hits = [_scan_range(test, n, p, item, *first)]
        while children:
            pid, read = children[-1]
            text = b"".join(iter(lambda: os.read(read, 1 << 16), b""))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop()
            os.close(read)
            if status:
                raise RuntimeError(f"scan worker {pid} failed with exit status {status}")
            hits.append(tuple(map(int, text.split())))
        return tuple(map(sum, zip(*hits))), time.perf_counter() - t0
    finally:
        if children:
            import signal

            for pid, read in children:
                os.close(read)
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except ProcessLookupError:  # reaped just before the exception
                    pass


def count_spectra(
    n: int,
    field: PrimeField,
    spectra: Collection[Sequence[int]],
    *,
    budget: int | None = DEFAULT_BUDGET,
    jobs: int = 1,
) -> list[tuple[OracleCountReport, OracleCountReport]]:
    """The M and E reports of each spectrum in turn, all from one scan.

    M counts the matrices annihilated by prod(A - alpha*I), the
    diagonalizable ones with spectrum inside alphas; E those of them with
    every alpha an eigenvalue.  The scan's work per matrix grows with the
    size of the spectra's union, not with their number, but the budget
    still counts an M and an E scan per spectrum: one scan would admit
    --all-subsets at (2, 89), a pass over 62.7M matrices that took 142 s
    with budget=None, which admits a scan of any size (one in-process run
    on a 2-core x86_64 host).
    The spectra are a sized family: an overflowing shape, or one whose
    scans are over budget, is refused by its len() before any spectrum is
    listed or checked.
    """
    total = _admit(n, field.p, budget, 2 * len(spectra), jobs)
    spectra = [validate_spectrum(field.p, alphas) for alphas in spectra]
    if not spectra:
        return []
    union = tuple(sorted(set().union(*spectra)))
    counts, seconds = _run_scan(_ANNIHILATED, n, field.p, (_monic(union, field.p), union), total, jobs)
    return [
        tuple(
            OracleCountReport(n, field.p, f"{mode}:{{{','.join(map(str, alphas))}}}", count, total, seconds)
            for mode, count in zip("me", _spectrum_counts(counts, union, alphas, n))
        )
        for alphas in spectra
    ]


def count_potent(
    n: int,
    field: PrimeField,
    k: int,
    *,
    budget: int | None = DEFAULT_BUDGET,
    jobs: int = 1,
) -> OracleCountReport:
    """Exhaustively count matrices with A^(k+1) = A.

    The scan tests A^(g+1) = A for g = gcd(k, E), E = _exponent(n, p), which
    has the same solutions: on the nilpotent Fitting part of a solution A,
    N = N^(k+1) forces N = 0, and on the invertible part B^k = I holds
    exactly when the order of B, a divisor of E, divides g.  So g <= k and
    a k of any size costs what its gcd does.

    Valid for every p and k, including fields without k-th roots of unity;
    it checks counting.potent_count, which shares none of its logic.  The
    scan is refused over budget; budget=None admits a scan of any size.
    """
    if k < 1:
        raise ValueError("k must be positive")
    total = _admit(n, field.p, budget, jobs=jobs)  # bounds n before the exponent's lcm of n terms
    kind, item = _potent_scan(math.gcd(k, _exponent(n, field.p)), n, field.p)
    (count,), seconds = _run_scan(kind, n, field.p, item, total, jobs)
    return OracleCountReport(n, field.p, f"potent:k={k}", count, total, seconds)


# ----------------------------------------------------------------------
# conjugacy-class geometry for diagonal representatives


def _checked_parts(parts: Sequence[int], field: PrimeField) -> tuple[int, ...]:
    """parts as a tuple of Python ints, checked: integers, nonnegative,
    summing to a positive dimension, with at most p distinct eigenvalues."""
    try:
        parts = tuple(map(operator.index, parts))
    except TypeError:
        raise ValueError("parts must be integers") from None
    if not parts or any(s < 0 for s in parts):
        raise ValueError("parts must be nonnegative with at least one entry")
    if sum(parts) < 1:
        raise ValueError("parts must sum to a positive dimension")
    if len(parts) > field.p:
        raise ValueError(f"{len(parts)} distinct eigenvalues do not fit in F_{field.p}")
    return parts


def block_diag_rep(parts: Sequence[int], field: PrimeField) -> np.ndarray:
    """Diagonal int64 matrix with eigenvalue i-1 repeated parts[i-1] times.

    Zero parts contribute no rows but still consume their eigenvalue, so
    the representative matches the composition it came from.  Needs
    len(parts) <= p distinct eigenvalues.
    """
    parts = _checked_parts(parts, field)
    return np.diag(np.repeat(np.arange(len(parts), dtype=np.int64), parts))


def centralizer_size(
    parts: Sequence[int],
    field: PrimeField,
    *,
    budget: int | None = DEFAULT_BUDGET,
) -> int:
    """Count invertible matrices commuting with the block-diagonal rep.

    The scan is refused over budget; budget=None admits a scan of any size.
    Either way the shape is admitted before the rep is built, which for a
    huge n would not fit in memory."""
    parts = _checked_parts(parts, field)
    n = sum(parts)
    total = _admit(n, field.p, budget)
    rep = block_diag_rep(parts, field).astype(_plane_dtype(n, field.p))[:, :, None]
    (count,), _ = _run_scan(_CENTRALIZER, n, field.p, rep, total, 1)
    return count


def orbit_size(
    parts: Sequence[int],
    field: PrimeField,
    *,
    budget: int | None = DEFAULT_BUDGET,
) -> int:
    """Size of the conjugacy class of the block-diagonal rep D.

    A is in it exactly when A g = g D for an invertible g.  The columns of
    g in the block of eigenvalue i are then a basis of the kernel of
    A - i*I, so such a g exists exactly when A is annihilated by
    f = prod(x - i) over the i with parts[i] > 0 and each such kernel has
    p^parts[i] vectors (_finish_orbit).  The scan is refused over budget;
    budget=None admits a scan of any size.
    """
    parts = _checked_parts(parts, field)
    total = _admit(sum(parts), field.p, budget)
    blocks = [(i, size) for i, size in enumerate(parts) if size]
    item = (_monic([i for i, _ in blocks], field.p), blocks)
    (count,), _ = _run_scan(_ORBIT, sum(parts), field.p, item, total, 1)
    return count
