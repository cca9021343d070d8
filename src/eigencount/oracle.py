"""Brute-force ground truth over small prime fields.

Every count here comes from scanning matrices and testing the defining
condition directly: annihilation by the prescribed linear factors for
spectrum counts, the set of alpha with A - alpha*I singular for exact
spectra, A^(k+1) = A for potency, commutation and invertibility for
centralizers, explicit conjugation for orbits.
Nothing is shared with the closed-form counting path, so agreement
between the two is evidence, not tautology.

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
for p >= 131; forced shapes such as (2, 257) take int32 too.

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
bins of the subsets of S.  A potent scan, A^(k+1) = A with k first cut
by a period of all n-by-n powers, takes f = x^(k+1) - x and U empty, one
bin.  Its k matvecs are used while
k <= n*(k.bit_length() + k.bit_count() - 2) + 1, the matvec cost of
binary powering: its k.bit_length() + k.bit_count() - 2 products take
about n matvecs each, and one more applies A^k.  Past that, as for large
period-cut exponents, A^k is formed by binary powering and A^k A = A
tested on whole matrices.
Centralizers and orbits invert on the same planes: by the Fitting
decomposition behind that period, A^period = I for every invertible A and
A^period is singular for every singular A, so A^(period-1) is the inverse
exactly where A * A^(period-1) = I.

Every count comes from one driver, _scan_range, in two stages, for the
one item of a scan ((f, U) for an annihilation, a potent exponent past
the matvec crossover, a centralizer's representative).  A scan kind is a
(column, finish) pair: column(a, item, j, p) is where column j of the
planes passes the kind's defining test (_annihilated, _powered,
_commuting), and finish gives the hits among matrices whose column 0
passed as counts that add element-wise, so the hits of pools and
workers are summed before any report is formed.  Stage 1 runs column 0
on each chunk, which at n=3, p=5 only 0.8% ({0}) to 18% (k=4, or all of
F_5) of the matrices pass, and copies their planes into a pool as large
as a chunk.  When the pool would overflow, and at the end of the range,
stage 2 finishes it at once: _passing runs columns 1..n-1, only the
matrices whose columns so far pass going on to the next, then Fermat's
test makes the histogram of eigenvalue sets and invertibility counts
centralizers.  So stage 2 runs on the survivors of many chunks together
rather than as many small numpy calls per chunk.  _powered tests whole
matrices in stage 1 instead, A^k formed once per chunk, so its pool
holds only hits and stage 2 counts them.  Going column by column would
mean carrying A^k along and compacting it with the planes, and would
save little: at n=3, p=5 the period cuts k = 10^18 to 1000, 41% of the
matrices pass column 0 and 96% of those column 1.  Scans above the
budget (default 2^26 matrices) are refused unless forced, and shapes
whose p^(n*n) overflows the int64 index always; the budget counts an M
and an E scan per spectrum.

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
import os
import sys
import time
from collections.abc import Iterable, Sequence

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


class OracleCountReport:
    """One exhaustive count with the scan parameters that produced it: a
    record whose fields are its __slots__, equal to reports with equal
    fields and shown by field."""

    __slots__ = ("n", "p", "spec", "count", "scanned", "seconds")

    def __init__(self, n: int, p: int, spec: str, count: int, scanned: int, seconds: float):
        self.n, self.p, self.spec = n, p, spec
        self.count, self.scanned, self.seconds = count, scanned, seconds

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # the fields may be reassigned

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


def _scan_size(n: int, p: int, jobs: int = 1) -> int:
    """The p^(n*n) matrices of a scan shape, refusing those no budget admits:
    as p >= 2, n*n >= 63 overflows the int64 index before any power is formed."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if n * n >= 63 or p ** (n * n) > _INDEX_MAX:
        raise ValueError(f"{p}^{n * n} matrices overflow the int64 scan index")
    return p ** (n * n)


def _charge(required: int, budget: int, force: bool) -> None:
    """Refuse to scan required matrices in all over budget, unless forced."""
    if not force and required > budget:
        raise BudgetExceeded(required, budget)


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
        if j < n * n:  # else the template holds every digit
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


def _period(n: int, p: int) -> int:
    """A period of the powers A^i, i >= n, of every n-by-n A over F_p.

    A is nilpotent on one Fitting part and invertible on the other, of
    dimension <= n, where its semisimple order divides lcm(p^d - 1, d <= n)
    and its unipotent order divides any p^e >= n, such as p^n.  So
    A^(i + period) = A^i for i >= n, and A^period = I when A is invertible.
    """
    return math.lcm(*(p**d - 1 for d in range(1, n + 1))) * p**n


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


def _invertible(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Invertible mask and inverses mod p of planes a of shape (n, n, B).

    The inverse is A^(period-1) (_period), and A is invertible exactly where
    A times it is I: a singular A has a singular A^period.  The inverse
    planes of a singular matrix hold no meaning.
    """
    n = len(a)
    inverse = _power(a, _period(n, p) - 1, p)
    eye = np.eye(n, dtype=a.dtype)[:, :, None]
    return (_mul(a, inverse, p) == eye).all(axis=(0, 1)), inverse


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


def _passing(a: np.ndarray, column, item, p: int, first: int) -> np.ndarray:
    """Planes of the matrices of a whose columns first..n-1 pass column's
    test, the earlier ones known to pass; only the matrices whose columns
    so far pass go on to the next."""
    for j in range(first, len(a)):
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
    a = _passing(a, _annihilated, item, p, 1)
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
    return (int(_invertible(_passing(a, _commuting, rep, p, 1), p)[0].sum()),)


_ANNIHILATED = (_annihilated, _finish_annihilated)
_POWERED = (_powered, _finish_powered)
_CENTRALIZER = (_commuting, _finish_centralizer)


def _by_matvecs(k: int, n: int) -> bool:
    """Whether A^k (A e_j) costs no more as k matvecs than by binary powering.

    Binary powering forms A^k in k.bit_length() - 1 squarings and
    k.bit_count() - 1 further products, each about n matvecs, and then
    takes one matvec by A^k."""
    return k <= n * (k.bit_length() + k.bit_count() - 2) + 1


def _potent_exponent(k: int, n: int, p: int) -> int:
    """An exponent no larger than k with the same solutions of A^(k+1) = A,
    k cut by the period of the powers A^i, i >= n (_period)."""
    period = _period(n, p)
    return n + (k - n) % period if k > n + period else k


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
    spectra: Iterable[Sequence[int]],
    *,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
    jobs: int = 1,
) -> list[tuple[OracleCountReport, OracleCountReport]]:
    """The M and E reports of each spectrum in turn, all from one scan.

    M counts the matrices annihilated by prod(A - alpha*I), the
    diagonalizable ones with spectrum inside alphas; E those of them with
    every alpha an eigenvalue.  The scan's work per matrix grows with the
    size of the spectra's union, not with their number, but the budget
    still counts an M and an E scan per spectrum: one scan would admit
    --all-subsets at (2, 89), a pass over 62.7M matrices that took 142 s
    forced (one in-process run on a 2-core x86_64 host).
    An overflowing shape, or one whose single scan is over budget, is
    refused before the spectra are listed, so they may come lazily.
    """
    total = _scan_size(n, field.p, jobs)
    if not force and total > budget:
        raise BudgetExceeded(2 * total * sum(1 for _ in spectra), budget)
    spectra = list(spectra)
    _charge(2 * len(spectra) * total, budget, force)  # before each spectrum is checked
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
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
    jobs: int = 1,
) -> OracleCountReport:
    """Exhaustively count matrices with A^(k+1) = A.

    Valid for every p and k, including fields without k-th roots of unity;
    it checks counting.potent_count, which shares none of its logic.
    """
    if k < 1:
        raise ValueError("k must be positive")
    total = _scan_size(n, field.p, jobs)  # bounds n before the period's lcm of n terms
    _charge(total, budget, force)
    kind, item = _potent_scan(_potent_exponent(k, n, field.p), n, field.p)
    (count,), seconds = _run_scan(kind, n, field.p, item, total, jobs)
    return OracleCountReport(n, field.p, f"potent:k={k}", count, total, seconds)


# ----------------------------------------------------------------------
# conjugacy-class geometry for diagonal representatives


def _union(seen: np.ndarray, batch: list[np.ndarray]) -> np.ndarray:
    """The distinct values of seen and the arrays of batch, sorted.
    np.unique hashes integer keys in numpy >= 2.3, several times slower
    than sorting them."""
    keys = np.sort(np.concatenate([seen, *batch]))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _distinct(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """The distinct int64 keys of all the arrays, sorted.  Arrays wait in a
    batch that joins the sorted set only once it outnumbers the set, so all
    the sorts together handle at most three times as many keys as the
    arrays hold, where joining each array as it comes sorts the whole set
    every time."""
    seen, batch, waiting = np.empty(0, dtype=np.int64), [], 0
    for keys in arrays:
        batch.append(keys)
        waiting += len(keys)
        if waiting > len(seen):
            seen, batch, waiting = _union(seen, batch), [], 0
    return _union(seen, batch)


def _scan_index(planes: np.ndarray, p: int) -> np.ndarray:
    """The int64 scan index of each matrix in entry planes of shape (n*n, B),
    digit d of it in row d, by Horner steps from the top digit on one int64
    row: no step exceeds the index itself, which _scan_size keeps in int64."""
    index = planes[-1].astype(np.int64)
    for row in planes[-2::-1]:
        index *= p
        index += row
    return index


def _checked_parts(parts: Sequence[int], field: PrimeField) -> tuple[int, ...]:
    """parts as a tuple, checked: nonnegative, summing to a positive
    dimension, with at most p distinct eigenvalues."""
    parts = tuple(parts)
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


def _representative(parts, field: PrimeField, budget: int, force: bool) -> tuple[np.ndarray, int]:
    """The block-diagonal rep of parts as planes of shape (n, n, 1), and the
    p^(n*n) matrices to scan.  The shape is refused before the n-by-n rep
    is built, which for a huge n would not fit in memory."""
    parts = _checked_parts(parts, field)
    n, p = sum(parts), field.p
    total = _scan_size(n, p)
    _charge(total, budget, force)
    return block_diag_rep(parts, field)[:, :, None].astype(_plane_dtype(n, p)), total


def centralizer_size(
    parts: Sequence[int],
    field: PrimeField,
    *,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
) -> int:
    """Count invertible matrices commuting with the block-diagonal rep."""
    rep, total = _representative(parts, field, budget, force)
    (count,), _ = _run_scan(_CENTRALIZER, len(rep), field.p, rep, total, 1)
    return count


def orbit_size(
    parts: Sequence[int],
    field: PrimeField,
    *,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
) -> int:
    """Size of the conjugacy class of the block-diagonal rep.

    Built explicitly: conjugate the representative by every invertible
    matrix and deduplicate (_distinct), each conjugate keyed by its scan
    index.
    """
    rep, total = _representative(parts, field, budget, force)
    n, p = len(rep), field.p

    def conjugate_keys(planes):
        g = planes.reshape(n, n, -1)
        invertible, g_inv = _invertible(g, p)
        keep = np.flatnonzero(invertible)
        conjugates = _mul(_mul(g.take(keep, axis=2), rep, p), g_inv.take(keep, axis=2), p)
        return _scan_index(conjugates.reshape(n * n, -1), p)

    return len(_distinct(conjugate_keys(planes) for planes in _chunks(0, total, n, p)))
