"""Brute-force oracle: batch kernels, exhaustive counts, orbit geometry."""

import ast
import itertools
import math
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import run_capped, run_python
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencount import counting, oracle
from eigencount.oracle import (
    _ANNIHILATED,
    _CENTRALIZER,
    _CHUNK_BYTES,
    _POWERED,
    DEFAULT_BUDGET,
    BudgetExceeded,
    PrimeField,
    _admit,
    _annihilated,
    _by_matvecs,
    _chunk_layout,
    _chunks,
    _eigenvalue_keys,
    _exponent,
    _invertible,
    _monic,
    _passing,
    _plane_dtype,
    _potent_scan,
    _power,
    _ranges,
    _run_scan,
    _scan_range,
    _set_key,
    _spectrum_counts,
    block_diag_rep,
    centralizer_size,
    count_potent,
    count_spectra,
    orbit_size,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def batch(*rows):
    """An int64 (B, n, n) batch from nested row lists."""
    return np.array(rows, dtype=np.int64)


def eye(n, b=1):
    return np.broadcast_to(np.eye(n, dtype=np.int64), (b, n, n))


# by-definition references in plain Python, sharing nothing with the oracle


def det_mod(rows, p):
    """Determinant mod p by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0] % p
    total = 0
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * entry * det_mod(minor, p)
    return total % p


def matmul_mod(x, y, p):
    n = len(x)
    return [[sum(x[i][t] * y[t][j] for t in range(n)) % p for j in range(n)] for i in range(n)]


def inverse_mod(rows, p):
    """The inverse mod p of an invertible matrix, its adjugate over its
    determinant: entry (i, j) is (-1)^(i+j) det_mod of the minor without
    row j and column i."""
    n, scale = len(rows), pow(det_mod(rows, p), -1, p)
    if n == 1:
        return [[scale]]

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i]
        return (-1) ** (i + j) * det_mod(minor, p)

    return [[cofactor(j, i) * scale % p for j in range(n)] for i in range(n)]


def conjugacy_class_sizes(n, p):
    """The size of the class of every diagonal matrix of M_n(F_p), keyed by
    its diagonal: g D g^-1 formed for every invertible g and the distinct
    results counted."""
    units = []
    for entries in itertools.product(range(p), repeat=n * n):
        g = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
        if det_mod(g, p):
            units.append((g, inverse_mod(g, p)))
    sizes = {}
    for diagonal in itertools.product(range(p), repeat=n):
        d = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
        conjugates = {tuple(map(tuple, matmul_mod(matmul_mod(g, d, p), g_inv, p))) for g, g_inv in units}
        sizes[diagonal] = len(conjugates)
    return sizes


def power_mod(rows, exponent, p):
    """rows^exponent mod p by repeated squaring."""
    n = len(rows)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    while exponent:
        if exponent & 1:
            result = matmul_mod(result, rows, p)
        rows = matmul_mod(rows, rows, p)
        exponent >>= 1
    return result


def exact_spectrum_counts(n, p):
    """Diagonalizable matrices of M_n(F_p) counted by their set of eigenvalues.

    The eigenvalues of A are the alpha with det(A - alpha*I) = 0; A is
    diagonalizable over F_p exactly when the product of (A - alpha*I)
    over its eigenvalues vanishes.
    """
    counts = {}
    for entries in itertools.product(range(p), repeat=n * n):
        rows = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
        shifted = {
            a: [[(v - a) % p if i == j else v for j, v in enumerate(row)] for i, row in enumerate(rows)]
            for a in range(p)
        }
        spectrum = tuple(a for a in range(p) if det_mod(shifted[a], p) == 0)
        if not spectrum:
            continue
        prod = shifted[spectrum[0]]
        for a in spectrum[1:]:
            prod = matmul_mod(prod, shifted[a], p)
        if not any(any(row) for row in prod):
            counts[spectrum] = counts.get(spectrum, 0) + 1
    return counts


def decode(start, stop, n, p):
    """Entry planes of matrices start..stop-1, copied out of the scan's
    chunks, which share one buffer."""
    return np.concatenate([planes.copy() for planes in _chunks(start, stop, n, p)], axis=1)


def matrices(planes):
    """The int64 (B, n, n) batch of the matrices in entry planes."""
    n = math.isqrt(len(planes))
    return np.ascontiguousarray(planes.T, dtype=np.int64).reshape(-1, n, n)


def planes_of(mats, p):
    """Entry planes in _plane_dtype of an int64 (B, n, n) batch."""
    return np.ascontiguousarray(mats.reshape(len(mats), -1).T, dtype=_plane_dtype(mats.shape[1], p))


def invert(mats, p):
    """_invertible on the planes of an int64 (B, n, n) batch, and A^(E-1) by
    _power, the inverse wherever the mask holds, returned as a batch: the
    mask is A^E = I, so E - 1 must invert every matrix it passes."""
    n = mats.shape[1]
    planes = planes_of(mats, p).reshape(n, n, -1)
    inverse = _power(planes, _exponent(n, p) - 1, p)
    return _invertible(planes, p), matrices(inverse.reshape(n * n, -1))


def scan_index(planes, p):
    """The int64 scan index of each matrix in entry planes of shape (n*n, B),
    digit d of it in row d, by Horner steps from the top digit: no step
    exceeds the index itself, which a scan keeps in int64."""
    index = planes[-1].astype(np.int64)
    for row in planes[-2::-1]:
        index = index * p + row
    return index


def det_batch(mats, p):
    """Determinants mod p of an int64 (B, n, n) batch: det_mod's cofactor
    expansion along the first row, on the whole batch at once, each minor
    on the bottom rows and a set of columns computed once."""
    n = mats.shape[1]
    minors = {(): np.ones(len(mats), dtype=np.int64)}
    for row in range(n - 1, -1, -1):
        minors = {
            cols: sum(
                (-1) ** i * mats[:, row, c] * minors[cols[:i] + cols[i + 1 :]]
                for i, c in enumerate(cols)
            ) % p
            for cols in itertools.combinations(range(n), n - row)
        }
    return minors[tuple(range(n))]


def annihilated_mask(mats, alphas, p):
    """True where the product of (A - alpha*I) over all alphas vanishes, by
    whole int64 matrix products."""
    eye = np.eye(mats.shape[1], dtype=np.int64)
    prod = (mats - alphas[0] * eye) % p
    for a in alphas[1:]:
        prod = prod @ ((mats - a * eye) % p) % p
    return ~prod.any(axis=(1, 2))


def pow_batch(mats, exponent, p):
    """mats^exponent mod p by repeated squaring of whole int64 matrices."""
    n = mats.shape[1]
    result = np.broadcast_to(np.eye(n, dtype=np.int64), mats.shape).copy()
    base = mats % p
    while exponent:
        if exponent & 1:
            result = result @ base % p
        exponent >>= 1
        base = base @ base % p
    return result


def full_batch_hits(mats, alphas, p):
    """M and E hits of an int64 batch by whole-matrix products, each alpha
    an eigenvalue where det(A - alpha*I) = 0."""
    annihilated = mats[annihilated_mask(mats, alphas, p)]
    exact = annihilated
    for a in alphas:
        exact = exact[det_batch(exact - a * np.eye(mats.shape[1], dtype=np.int64), p) == 0]
    return len(annihilated), len(exact)


def potent_mask(mats, k, p):
    """A^(k+1) = A by the whole int64 power."""
    return (pow_batch(mats, k + 1, p) == mats).all(axis=(1, 2))


def boundary_planes(n, p):
    """Entry planes in _plane_dtype(n, p) of matrices with entries in
    {0, p-2, p-1}: all of them if there are at most 4096, else a seeded
    sample of 4096 with every diagonal one and the all-(p-1) one."""
    values = [0, p - 2, p - 1]
    if 3 ** (n * n) <= 4096:
        mats = np.array(list(itertools.product(values, repeat=n * n)))
    else:
        diagonal = [np.diag(d).ravel() for d in itertools.product(values, repeat=n)]
        drawn = np.random.default_rng(0).choice(values, size=(4096, n * n))
        mats = np.concatenate([drawn, diagonal, np.full((1, n * n), p - 1)])
    return mats.T.astype(_plane_dtype(n, p))


def plane_bytes(n, p):
    """The bytes of one matrix's entry planes."""
    return n * n * np.dtype(_plane_dtype(n, p)).itemsize


def two_stage(test, planes, item, p):
    """The hits of item on entry planes by the scan's two stages on them
    alone, as a tuple: the matrices passing column 0 finished at once
    without a pool."""
    column, finish = test
    n = math.isqrt(len(planes))
    a = planes.reshape(n, n, -1)
    return tuple(np.add(0, finish(a.take(np.flatnonzero(column(a, item, 0, p)), axis=2), item, p)).tolist())


def spectra_item(spectra, p):
    """The item of a scan of spectra, as count_spectra builds it: the monic
    polynomial of their ascending union U, and U."""
    union = tuple(sorted(set().union(*spectra)))
    return _monic(union, p), union


def kept_planes(planes, f, p):
    """Entry planes of the matrices with f(A) = 0, for f monic with
    coefficients mod p, lowest first: column 0 tested here, the others by
    _passing."""
    n = math.isqrt(len(planes))
    a = planes.reshape(n, n, -1)
    a = a.take(np.flatnonzero(_annihilated(a, (f, ()), 0, p)), axis=2)
    return _passing(a, _annihilated, (f, ()), p).reshape(n * n, -1)


def annihilated_planes(planes, alphas, p):
    """Entry planes of the matrices annihilated by prod(A - alpha*I)."""
    return kept_planes(planes, _monic(alphas, p), p)


def spectrum_reports(counts, spectra, n, p):
    """The M and E hits of every spectrum in turn, read from the histogram
    counts of a scan of their union."""
    union = spectra_item(spectra, p)[1]
    return tuple(h for alphas in spectra for h in _spectrum_counts(counts, union, alphas, n))


def spectra_hits(planes, spectra, p):
    """The M and E hits of every spectrum in turn on entry planes, from one
    two_stage scan of their union."""
    n = math.isqrt(len(planes))
    return spectrum_reports(two_stage(_ANNIHILATED, planes, spectra_item(spectra, p), p), spectra, n, p)


def potent_hits(planes, k, p):
    """The hits of a potent scan for exponent k, uncut, on entry planes by
    two_stage, of the kind _potent_scan picks."""
    kind, item = _potent_scan(k, math.isqrt(len(planes)), p)
    return two_stage(kind, planes, item, p)


def scan_started(*args):
    raise AssertionError("a scan started that should have been refused")


class Unlisted:
    """A family of size spectra that fails if it is listed."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __iter__(self):
        raise AssertionError("the spectra were listed")


def one_spectrum(n, field, alphas, **scan):
    """The M and E reports of one spectrum, from count_spectra."""
    [pair] = count_spectra(n, field, [alphas], **scan)
    return pair


class TestPrimeField:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 257):
            assert PrimeField(p).p == p

    @pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 258, 259])
    def test_rejects_bad_moduli(self, bad):
        with pytest.raises(ValueError):
            PrimeField(bad)


class TestFqMatrix:
    """Matrix arithmetic over F_q: the scan decoder _chunks, the int64
    reference pow_batch, and _power and _invertible on the planes."""

    def test_identity_multiplication(self):
        a = batch([[1, 2], [3, 4]])
        identity = pow_batch(a, 0, 5)
        assert np.array_equal(identity @ a % 5, a)
        assert np.array_equal(a @ identity % 5, a)

    def test_transvection_squares_to_identity_char2(self):
        t = batch([[1, 1], [0, 1]])
        assert np.array_equal(pow_batch(t, 2, 2), eye(2))

    def test_hand_multiplication_mod3(self):
        m = batch([[0, 1], [2, 0]])
        assert pow_batch(m, 2, 3).tolist() == [[[2, 0], [0, 2]]]

    def test_pow_zero_is_identity(self):
        a = batch([[2, 3], [1, 4]])
        assert np.array_equal(pow_batch(a, 0, 5), eye(2))

    def test_nilpotent_square(self):
        for p in (2, 3, 7):
            m = batch([[0, 1], [0, 0]])
            assert not pow_batch(m, 2, p).any()

    def test_cube_over_f2(self):
        m = batch([[0, 1], [1, 1]])
        assert np.array_equal(pow_batch(m, 3, 2), eye(2))

    def test_rank_zero_and_full(self):
        for n in (1, 2, 3):
            invertible, _ = invert(np.zeros((1, n, n), dtype=np.int64), 3)
            assert not invertible.any()
            for p in (2, 5):
                invertible, inverse = invert(eye(n), p)
                assert invertible.all()
                assert np.array_equal(inverse, eye(n))

    def test_rank_dependent_rows(self):
        invertible, _ = invert(batch([[1, 2], [2, 4]]), 5)
        assert not invertible.any()

    def test_inverse(self):
        m = batch([[1, 2], [3, 4]])
        invertible, inverse = invert(m, 5)
        assert invertible.all()
        assert np.array_equal(m @ inverse % 5, eye(2))
        assert np.array_equal(inverse @ m % 5, eye(2))

    def test_singular_matrix_flagged_within_batch(self):
        # a singular matrix is flagged, not raised, and leaves its
        # neighbours' inverses intact
        mats = batch([[1, 2], [3, 4]], [[1, 2], [2, 4]], [[0, 1], [1, 0]])
        invertible, inverse = invert(mats, 5)
        assert invertible.tolist() == [True, False, True]
        assert np.array_equal(mats[invertible] @ inverse[invertible] % 5, eye(2, 2))

    def test_from_index_round_trip(self):
        # scan order: plane j holds digit j of the index, which is entry
        # (j // n, j % n) of the matrix
        planes = decode(0, 3**4, 2, 3)
        assert planes.dtype == _plane_dtype(2, 3) and planes.shape == (4, 81)
        assert len({column.tobytes() for column in planes.T}) == 81
        index = (3 ** np.arange(4)) @ planes
        assert index.tolist() == list(range(81))
        assert decode(7, 8, 2, 3).tolist() == [[1], [2], [0], [0]]
        mats = matrices(decode(7, 8, 2, 3))
        assert mats.dtype == np.int64 and mats.tolist() == [[[1, 2], [0, 0]]]
        # the top of the 7x7 binary index range ends at the all-ones matrix
        assert decode(2**49 - 2, 2**49, 7, 2).tolist() == [[0, 1]] + [[1, 1]] * 48

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 7),
        p=st.sampled_from([2, 3, 5, 7, 257]),
        data=st.data(),
    )
    def test_chunks_are_whole_runs_of_the_index(self, n, p, data):
        # every chunk but a range's first starts at a multiple of the chunk
        # size, a multiple of p^j, and the digits match divmod
        total = min(p ** (n * n), (1 << 63) - 1)
        j, run, size = _chunk_layout(n, p)
        assert run == p**j and size % run == 0
        start = data.draw(st.integers(0, total - 1))
        stop = data.draw(st.integers(start + 1, min(total, start + 3 * size)))
        position, firsts = start, []
        for planes in _chunks(start, stop, n, p):
            assert planes.dtype == _plane_dtype(n, p) and 0 < planes.shape[1] <= size
            firsts.append(position)
            for offset in {0, planes.shape[1] // 2, planes.shape[1] - 1}:
                digits = [(position + offset) // p**d % p for d in range(n * n)]
                assert planes[:, offset].tolist() == digits
            position += planes.shape[1]
        assert position == stop
        assert all(first % size == 0 for first in firsts[1:])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        p=st.sampled_from([2, 3, 5, 7]),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 40),
    )
    def test_kernel_matches_cofactor_determinant(self, n, p, seed, size):
        mats = np.random.default_rng(seed).integers(0, p, size=(size, n, n), dtype=np.int64)
        invertible, inverse = invert(mats, p)
        expected = [det_mod(m.tolist(), p) != 0 for m in mats]
        assert invertible.tolist() == expected
        assert np.array_equal(inverse[invertible] @ mats[invertible] % p, eye(n, int(invertible.sum())))

    @pytest.mark.parametrize("n, p", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_invertible_over_every_matrix(self, n, p):
        mats = matrices(decode(0, p ** (n * n), n, p))
        invertible, inverse = invert(mats, p)
        assert invertible.tolist() == [det_mod(m.tolist(), p) != 0 for m in mats]
        assert invertible.sum() == counting.gl_order_poly(n)(p)
        units = eye(n, int(invertible.sum()))
        assert np.array_equal(inverse[invertible] @ mats[invertible] % p, units)
        assert np.array_equal(mats[invertible] @ inverse[invertible] % p, units)

    @pytest.mark.parametrize(
        "planes, p",
        [(decode(0, 3**4, 2, 3), 3), (decode(0, 2**9, 3, 2), 2), (boundary_planes(3, 7), 7)],
        ids=["n2-p3", "n3-p2", "n3-p7"],
    )
    def test_power_matches_whole_int64_power(self, planes, p):
        n = math.isqrt(len(planes))
        mats = matrices(planes)
        for k in (*range(1, 9), 10**18):
            power = _power(planes.reshape(n, n, -1), k, p)
            assert np.array_equal(matrices(power.reshape(n * n, -1)), pow_batch(mats, k, p)), k

    @pytest.mark.parametrize("n, p", [(1, 257), (2, 3), (3, 5), (4, 2), (7, 2), (3, 127)])
    def test_scan_index_inverts_the_decode(self, n, p):
        # on random unaligned ranges and on the last chunk, where (3, 127)
        # comes closest to the int64 top: 127^9 is about 8.6e18
        total = p ** (n * n)
        size = _chunk_layout(n, p)[2]
        rng = np.random.default_rng(1000 * n + p)
        ranges = [((total - 1) // size * size, total)]
        for start in rng.integers(0, total, size=5).tolist():
            ranges.append((start, min(total, start + int(rng.integers(1, 3 * size)))))
        for start, stop in ranges:
            index = np.concatenate([scan_index(planes, p) for planes in _chunks(start, stop, n, p)])
            assert index.dtype == np.int64
            assert np.array_equal(index, np.arange(start, stop)), (start, stop)

    def test_chunk_planes_stay_within_the_byte_bound(self):
        # at every shape a scan admits, unbudgeted or within the default budget,
        # a chunk's planes take at most _CHUNK_BYTES, below glibc's 128 KiB
        # mmap threshold, and the chunk is the most whole runs of the
        # largest p^j that fit: one more run, or a p times longer run,
        # would not
        shapes = [
            (n, p)
            for n in range(1, 8)
            for p in range(2, 258)
            if counting.is_prime(p) and p ** (n * n) <= (1 << 63) - 1
        ]
        assert _CHUNK_BYTES < 128 << 10
        assert sum(p ** (n * n) <= DEFAULT_BUDGET for n, p in shapes) == 86
        for n, p in shapes:
            j, run, size = _chunk_layout(n, p)
            matrix_bytes = plane_bytes(n, p)
            assert run == p**j and size % run == 0, (n, p)
            assert size * matrix_bytes <= _CHUNK_BYTES, (n, p)
            assert size == p ** (n * n) or (size + run) * matrix_bytes > _CHUNK_BYTES, (n, p)
            assert j == n * n or p * run * matrix_bytes > _CHUNK_BYTES, (n, p)

    def test_plane_dtype_is_the_narrowest_exact_one(self):
        # over every shape a scan admits, the planes' type holds the largest
        # intermediate of the kernels, a matvec sum plus the annihilation
        # step, and the next narrower type would not hold (n+1)*p^2
        widths = [np.int8, np.int16, np.int32]
        shapes = [
            (n, p)
            for n in range(1, 8)
            for p in range(2, 258)
            if counting.is_prime(p) and p ** (n * n) <= (1 << 63) - 1
        ]
        assert len(shapes) == 153
        for n, p in shapes:
            dtype = _plane_dtype(n, p)
            assert n * (p - 1) ** 2 + p * (p - 1) <= np.iinfo(dtype).max, (n, p)
            narrower = widths[: widths.index(dtype)]
            assert not narrower or np.iinfo(narrower[-1]).max < (n + 1) * p * p, (n, p)


def poly_mask(mats, f, p):
    """True where f(A) mod p vanishes, for f given by its coefficients
    lowest first, by Horner's rule on whole int64 matrices."""
    eye = np.eye(mats.shape[1], dtype=np.int64)
    value = np.zeros_like(mats)
    for c in reversed(f):
        value = (value @ mats + c * eye) % p
    return ~value.any(axis=(1, 2))


def kernel_matrices(n, p):
    """Every n-by-n matrix over F_p if there are at most 20,000, else a
    seeded sample of 4096 with every matrix whose only off-diagonal entry is
    (0, 1), Jordan blocks among them."""
    if p ** (n * n) <= 20000:
        return matrices(decode(0, p ** (n * n), n, p))
    drawn = np.random.default_rng(n * p).integers(0, p, size=(4096, n, n))
    shaped = np.zeros((p ** (n + 1), n, n), dtype=np.int64)
    entries = np.array(list(itertools.product(range(p), repeat=n + 1)))
    shaped[:, range(n), range(n)] = entries[:, :n]
    shaped[:, 0, 1] = entries[:, n]
    return np.concatenate([drawn, shaped])


class TestPolynomialKernel:
    """_annihilated tests f(A) = 0 for any monic f mod p, one column at a
    time by Horner's rule, on entry planes: spectrum scans take f =
    prod(x - alpha) (_monic), potent scans x^(k+1) - x."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 3),
        p=st.sampled_from([2, 3, 5, 7]),
        data=st.data(),
    )
    def test_kernel_keeps_exactly_the_matrices_f_annihilates(self, n, p, data):
        # any coefficients, so repeated roots and irreducible factors occur
        low = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5), label="low")
        f = (*low, 1)
        mats = kernel_matrices(n, p)
        kept = kept_planes(planes_of(mats, p), f, p)
        assert kept.dtype == _plane_dtype(n, p)
        assert np.array_equal(matrices(kept), mats[poly_mask(mats, f, p)])

    def test_kernel_sees_repeated_and_irreducible_factors(self):
        # over F_3: (x - 1)^2 keeps I and the Jordan block J(1, 2), which
        # x - 1 does not; x^2 + 1 has no root, and keeps the rotation by
        # a quarter turn but no scalar matrix
        mats = matrices(decode(0, 3**4, 2, 3))
        jordan = np.array([[1, 1], [0, 1]])
        rotation = np.array([[0, 2], [1, 0]])
        for f, inside, outside in [((1, 1, 1), jordan, 2 * np.eye(2, dtype=np.int64)),
                                   ((1, 0, 1), rotation, np.eye(2, dtype=np.int64)),
                                   ((2, 1), np.eye(2, dtype=np.int64), jordan)]:
            kept = matrices(kept_planes(planes_of(mats, 3), f, 3))
            assert np.array_equal(kept, mats[poly_mask(mats, f, 3)]), f
            assert (kept == inside).all(axis=(1, 2)).any() and not (kept == outside).all(axis=(1, 2)).any(), f

    @settings(max_examples=100, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7, 257]), roots=st.lists(st.integers(0, 300), max_size=6))
    def test_monic_is_the_expanded_product(self, p, roots):
        # the coefficient of x^(d-i) is (-1)^i times the i-th elementary
        # symmetric sum of the roots, repeated ones too
        d = len(roots)
        expected = [
            (-1) ** (d - j) * sum(math.prod(c) for c in itertools.combinations(roots, d - j)) % p
            for j in range(d + 1)
        ]
        assert _monic(roots, p) == tuple(expected)
        assert _monic([r % p for r in roots], p) == tuple(expected)


class TestFirstColumnFilter:
    """The column-by-column tests on entry planes accept exactly the
    matrices the whole-matrix int64 references accept."""

    @pytest.mark.parametrize("n, p", [(1, 5), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3)])
    def test_filtered_hits_equal_full_batch(self, n, p):
        planes = decode(0, p ** (n * n), n, p)
        mats = matrices(planes)
        # every spectrum on the same planes, an M and an E hit each
        expected = [hit for alphas in spectra(p) for hit in full_batch_hits(mats, alphas, p)]
        assert spectra_hits(planes, spectra(p), p) == tuple(expected)
        for k in range(1, 9):
            assert potent_hits(planes, k, p) == (potent_mask(mats, k, p).sum(),), k

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 4),
        p=st.sampled_from([2, 3, 5, 7]),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 30),
        lift=st.integers(1, 10**30),
    )
    def test_filter_keeps_every_accepted_matrix(self, n, p, k, seed, size, lift):
        rng = np.random.default_rng(seed)
        alphas = tuple(rng.permutation(p)[: rng.integers(1, p + 1)].tolist())
        roots = [x for x in range(p) if pow(x, k + 1, p) == x]
        # random matrices, then conjugates G D G^-1 of diagonal matrices
        # that pass the annihilation and the potency test; G^-1 is
        # G^(period-1), checked here by its product with G
        period = math.lcm(*(p**d - 1 for d in range(1, n + 1))) * p**n
        g = rng.integers(0, p, size=(size, n, n))
        g = g[det_batch(g, p) != 0]
        g_inv = pow_batch(g, period - 1, p)
        assert np.array_equal(g @ g_inv % p, eye(n, len(g)))

        def conjugates(values):
            return (g * rng.choice(values, size=(len(g), 1, n))) @ g_inv % p

        mats = np.concatenate(
            [rng.integers(0, p, size=(size, n, n)), conjugates(alphas), conjugates(roots)]
        )
        planes = planes_of(mats, p)
        assert np.array_equal(matrices(planes), mats)
        annihilated = annihilated_mask(mats, alphas, p)
        potent = potent_mask(mats, k, p)
        assert annihilated[size : size + len(g)].all() and potent[size + len(g) :].all()
        assert np.array_equal(matrices(annihilated_planes(planes, alphas, p)), mats[annihilated])
        assert potent_hits(planes, k, p) == (potent.sum(),)
        # a scan for gcd(lift, E) accepts the matrices of the whole int64
        # power to lift + 1
        expected = (potent_mask(mats, lift, p).sum(),)
        assert potent_hits(planes, math.gcd(lift, _exponent(n, p)), p) == expected

    @pytest.mark.parametrize(
        "planes, p",
        [
            # (2, 257) has the largest intermediates a scan admits, in
            # int32: every entry and every alpha at 256, with 0 and 255
            # beside them
            (boundary_planes(2, 257), 257),
            # (7, 2) from the top of its index range
            (decode(2**49 - 4096, 2**49, 7, 2), 2),
            # (4, 5) and (2, 103) come closest to the top of int8 and
            # int16: (n+1)*p^2 is 125 and 31,827
            (boundary_planes(4, 5), 5),
            (boundary_planes(2, 103), 103),
        ],
        ids=["n2-p257", "n7-p2", "n4-p5-int8", "n2-p103-int16"],
    )
    def test_int32_planes_match_int64(self, planes, p):
        planes = np.ascontiguousarray(planes)
        n = math.isqrt(len(planes))
        assert planes.dtype == _plane_dtype(n, p)
        wide = planes.astype(np.int64)
        mats = matrices(planes)
        for alphas in [(p - 1,), (p - 2, p - 1), (0, p - 1), (0, 1, p - 2, p - 1)]:
            alphas = tuple(dict.fromkeys(alphas))
            expected = mats[annihilated_mask(mats, alphas, p)]
            assert np.array_equal(matrices(annihilated_planes(planes, alphas, p)), expected)
            assert np.array_equal(matrices(annihilated_planes(wide, alphas, p)), expected)
            assert spectra_hits(planes, [alphas], p) == full_batch_hits(mats, alphas, p)
        for k in (*range(1, 9), p - 1, p, 4 * p + 3, 10**18):
            expected = (potent_mask(mats, k, p).sum(),)
            assert potent_hits(planes, k, p) == potent_hits(wide, k, p) == expected

    @pytest.mark.parametrize("n, p", [(1, 257), (2, 3), (2, 5), (3, 2)])
    def test_potent_paths_straddle_the_crossover(self, n, p):
        # k matvecs while they cost no more than binary powering; past
        # k = 31 binary powering always costs less for n <= 3 (at most
        # 3*(6 + 6 - 2) + 1 = 31 matvecs for a 6-bit k).  Every k up to 3 past
        # the last matvec one, on every matrix
        last = max(k for k in range(1, 32) if _by_matvecs(k, n))
        assert last == {1: 3, 2: 11, 3: 19}[n]
        ks = range(1, last + 4)
        assert {_by_matvecs(k, n) for k in ks} == {True, False}
        planes = decode(0, p ** (n * n), n, p)
        mats = matrices(planes)
        for k in ks:
            assert potent_hits(planes, k, p) == (potent_mask(mats, k, p).sum(),), k

    def test_small_exponents_skip_binary_powering(self, monkeypatch):
        exponents = []
        power = oracle._power

        def recording_power(a, k, p):
            exponents.append(k)
            return power(a, k, p)

        monkeypatch.setattr(oracle, "_power", recording_power)
        for k in (3, 4):
            assert count_potent(3, F5, k).count == counting.potent_count(3, 5, k)
        assert exponents == []
        assert count_potent(3, F5, 10**18).count == counting.potent_count(3, 5, 10**18)
        # the scan powers to gcd(10^18, 3720) = 40
        assert _exponent(3, 5) == 3720
        assert exponents and set(exponents) == {40}

    def test_power_path_powers_each_matrix_once(self, monkeypatch):
        # past _by_matvecs stage 1 tests A^k A = A on every chunk, so the
        # pool holds only hits and is never powered again: the batches that
        # _power takes hold each of the 5^9 matrices once
        widths = []
        power = oracle._power

        def recording_power(a, k, p):
            widths.append(a.shape[-1])
            return power(a, k, p)

        monkeypatch.setattr(oracle, "_power", recording_power)
        assert count_potent(3, F5, 10**18).count == counting.potent_count(3, 5, 10**18)
        assert sum(widths) == 5**9

    @pytest.mark.parametrize("n, p", [(1, 257), (2, 3), (3, 5)])
    def test_potent_scan_picks_its_kind_at_the_crossover(self, n, p):
        # f(A) = 0 for f = x^(k+1) - x by k matvecs a column while
        # _by_matvecs holds, else A^k A = A on whole matrices
        for k in range(1, 40):
            kind, item = _potent_scan(k, n, p)
            if _by_matvecs(k, n):
                assert kind == _ANNIHILATED and item == ((0, p - 1, *[0] * (k - 1), 1), ()), k
            else:
                assert kind == _POWERED and item == k, k

    def test_huge_k_answers_at_once(self):
        # binary powering costs O(log k) squarings; a loop linear in k
        # would not finish before the timeout
        code = (
            "from eigencount import oracle\n"
            "print(oracle.count_potent(2, oracle.PrimeField(3), 10**18).count)"
        )
        proc = run_python(code, timeout=30)
        assert proc.returncode == 0, proc.stderr
        k = 10**18
        expected = 0
        for entries in itertools.product(range(3), repeat=4):
            rows = [list(entries[:2]), list(entries[2:])]
            expected += power_mod(rows, k + 1, 3) == rows
        assert int(proc.stdout) == expected


class TestPooledDriver:
    """_scan_range pools the survivors of stage 1 over chunks and finishes
    them when the pool would overflow and at the end of the range; the
    hits match the whole-matrix int64 references on every range."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(1, 7), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]),
        chunk=st.sampled_from([1, 2, 5, 64, 1 << 20]),
        data=st.data(),
    )
    def test_pooled_hits_match_full_batch(self, shape, chunk, data):
        # at most chunk matrices per chunk, so small values give many chunks
        # and pool fills; one-matrix ranges; up to 12 spectra in one scan of
        # their union; k past the last one done by matvecs (3, 11, 19 at
        # n = 1, 2, 3); diagonal representatives, scalar ones passing every
        # matrix
        n, p = shape
        total = p ** (n * n)
        start = data.draw(st.integers(0, total - 1), label="start")
        length = data.draw(st.one_of(st.just(1), st.integers(1, 40 * chunk)), label="length")
        stop = min(total, start + length)
        alphas = st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True).map(tuple)
        spectra = data.draw(st.lists(alphas, min_size=1, max_size=12), label="spectra")
        k = data.draw(st.sampled_from([1, 2, 3, 4, 11, 12, 19, 20, 25, 10**18]), label="k")
        r = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(np.diag), label="rep")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_CHUNK_BYTES", chunk * plane_bytes(n, p))
            counts = _scan_range(_ANNIHILATED, n, p, spectra_item(spectra, p), start, stop)
            kind, item = _potent_scan(k, n, p)
            potent_hits = _scan_range(kind, n, p, item, start, stop)
            rep_planes = r[:, :, None].astype(_plane_dtype(n, p))
            centralizer_hits = _scan_range(_CENTRALIZER, n, p, rep_planes, start, stop)
        mats = matrices(decode(start, stop, n, p))
        assert spectrum_reports(counts, spectra, n, p) == tuple(
            h for alphas in spectra for h in full_batch_hits(mats, alphas, p)
        )
        assert potent_hits == (int(potent_mask(mats, k, p).sum()),)
        invertible = det_batch(mats, p) != 0
        assert centralizer_hits == (
            int((invertible & (mats @ r % p == r @ mats % p).all(axis=(1, 2))).sum()),
        )

    def test_pool_settles_when_it_would_overflow_and_at_the_end(self, monkeypatch):
        # chunks of 9 matrices at (2, 3), every matrix passing stage 1: the
        # first chunk fills the pool exactly, each later one finishes it,
        # and the last 4 matrices are finished at the end
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", 9 * plane_bytes(2, 3))
        assert _chunk_layout(2, 3)[2] == 9
        finished = []

        def finish(a, item, p):
            finished.append((item, a.shape[-1]))
            return a.shape[-1], int(scan_index(a.reshape(4, -1), p).sum())

        hits = _scan_range((every_matrix, finish), 2, 3, "a", 0, 31)
        assert hits == (31, sum(range(31)))
        assert finished == [("a", 9), ("a", 9), ("a", 9), ("a", 4)]


def traced_peak(work):
    """The peak bytes traced while work() runs.  numpy reports its array
    buffers to tracemalloc, so the peak repeats exactly from run to run."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def all_subsets(p, largest):
    """Every nonempty subset of F_p with at most largest elements, as verify
    --all-subsets lists them for n = largest - 1."""
    return [a for size in range(1, largest + 1) for a in itertools.combinations(range(p), size)]


class TestWorkingSet:
    """Peak bytes of the oracle's kernels.  A scan keeps a chunk's planes,
    at most _CHUNK_BYTES (about 120 KiB), a pool of the same size and a few
    (n, B) vectors; one more (n, n, B) temporary adds up to a chunk, an int64
    copy of the planes eight.  Each bound is below the peak the 2^16-matrix
    chunks of earlier versions reached at the same shape (decode 590,625 B
    and potent or spectrum 1,265,625 B at (3, 5), orbit 974,308 B at (3, 3)),
    and the pool's memory does not grow with the number of spectra, which
    are one scan of their union.  An orbit is a scan like the others: no
    inverse or conjugate is formed, and its kernels are tried one vector at
    a time on the pool."""

    @pytest.mark.parametrize(
        "n, p, test, item",
        [(3, 5, None, None), (3, 5, *_potent_scan(3, 3, 5)), (3, 5, *_potent_scan(4, 3, 5)),
         (3, 5, _ANNIHILATED, spectra_item([(0, 1, 2)], 5)),
         (2, 13, _ANNIHILATED, spectra_item([(0, 1, 2)], 13)),
         (2, 13, _ANNIHILATED, spectra_item(all_subsets(13, 3), 13)),
         (3, 5, _ANNIHILATED, spectra_item(all_subsets(5, 4), 5))],
        ids=["decode", "potent-k3", "potent-k4", "spectrum-012", "n2-p13-spectrum-012",
             "n2-p13-all-377-subsets", "n3-p5-all-30-subsets"],
    )
    def test_scan_peak_over_two_chunks(self, n, p, test, item):
        stop = 2 * _chunk_layout(n, p)[2]
        if test is None:
            peak = traced_peak(lambda: all(planes.size for planes in _chunks(0, stop, n, p)))
            assert peak <= 1.05 * _CHUNK_BYTES, peak
        else:
            peak = traced_peak(lambda: _scan_range(test, n, p, item, 0, stop))
            assert peak <= 4.5 * _CHUNK_BYTES, peak

    def test_orbit_peak(self):
        # a chunk, the pool and column 0's temporaries: 357,809 B, 2.91
        # chunks, at (1, 2) over F_3 and 445,125 B at (1, 1, 1) over F_5
        peak = traced_peak(lambda: orbit_size((1, 2), F3))
        assert peak <= 3 * _CHUNK_BYTES, peak
        peak = traced_peak(lambda: orbit_size((1, 1, 1), F5))
        assert peak <= 3.75 * _CHUNK_BYTES, peak


SPECTRUM_SHAPES = [(2, 3), (2, 5), (3, 2), (3, 3), (2, 7)]


def spectra(p):
    """Every nonempty subset of F_p, smallest first."""
    return [a for size in range(1, p + 1) for a in itertools.combinations(range(p), size)]


def key_set(key, union):
    """The eigenvalues a key holds: its base-(|U|+1) digits, i + 1 for each
    union[i]."""
    alphas = set()
    while key:
        key, digit = divmod(key, len(union) + 1)
        alphas.add(union[digit - 1])
    return alphas


class TestSpectrumPass:
    """One annihilation over the union of the spectra per chunk gives every
    M and E count: Fermat's test keys each annihilated matrix by its set of
    eigenvalues, computed in the planes' own type, and a histogram of the
    keys gives the counts."""

    @pytest.mark.parametrize("n, p", SPECTRUM_SHAPES)
    def test_fermat_test_is_the_singularity_definition(self, n, p):
        planes = decode(0, p ** (n * n), n, p)
        eye = np.eye(n, dtype=np.int64)
        for union in spectra(p):
            survivors = annihilated_planes(planes, union, p)
            assert survivors.dtype == _plane_dtype(n, p)
            mats = matrices(survivors)
            # the alpha with A - alpha*I singular, by cofactor determinants
            singular = {a: det_batch(mats - a * eye, p) == 0 for a in range(p)}
            expected = [{a for a in range(p) if singular[a][i]} for i in range(len(mats))]
            keys = _eigenvalue_keys(survivors.reshape(n, n, -1), union, p)
            # keys are below (|U|+1)^n, in the narrowest unsigned type holding it
            assert keys.dtype == np.min_scalar_type((len(union) + 1) ** n), union
            assert (keys < (len(union) + 1) ** n).all(), union
            assert [key_set(key, union) for key in keys.tolist()] == expected, union
            assert keys.tolist() == [_set_key(sorted(alphas), union) for alphas in expected], union

    @pytest.mark.parametrize("n, p", SPECTRUM_SHAPES)
    def test_count_spectrum_equals_separate_counts(self, n, p, monkeypatch, forks):
        field = PrimeField(p)
        # p chunks and two cores, so jobs=2 really forks a worker: one for
        # all the spectra of the shape
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", p ** (n * n - 1) * plane_bytes(n, p))
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
        mats = matrices(decode(0, p ** (n * n), n, p))
        separate = []
        for alphas in spectra(p):
            m, e = full_batch_hits(mats, alphas, p)
            spectrum = "{" + ",".join(map(str, alphas)) + "}"
            separate += [("m:" + spectrum, m, p ** (n * n)), ("e:" + spectrum, e, p ** (n * n))]
        for jobs in (1, 2):
            reports = [r for pair in count_spectra(n, field, spectra(p), jobs=jobs) for r in pair]
            assert [(r.spec, r.count, r.scanned) for r in reports] == separate, jobs
            assert len({r.seconds for r in reports}) == 1
        assert len(forks) == 1

    # every shape with p^(n*n) <= 2^16, n = 1 with every admitted prime
    @pytest.mark.parametrize(
        "n, p",
        [(1, p) for p in range(2, PrimeField.MAX_P + 1) if counting.is_prime(p)]
        + [(2, 2), (2, 3), (2, 5), (2, 7), (2, 11), (2, 13), (3, 2), (3, 3), (4, 2)],
    )
    def test_histogram_over_the_field_counts_the_potent_scan(self, n, p, monkeypatch, forks):
        # A^p = A exactly when A is diagonalizable over F_p, that is when it
        # is annihilated by the product of (A - alpha*I) over all of F_p: two
        # independent oracle paths, the histogram and the potent column test
        field = PrimeField(p)
        # two or three chunks and two cores, so jobs=2 forks a worker for
        # each scan
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", -(-(p ** (n * n)) // 2) * plane_bytes(n, p))
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
        for jobs in (1, 2):
            [(m, _)] = count_spectra(n, field, [range(p)], jobs=jobs)
            assert m.count == count_potent(n, field, p - 1, jobs=jobs).count, jobs
        assert len(forks) == 2

    def test_fermat_test_costs_one_power_per_union_element(self, monkeypatch):
        # every 1-by-1 matrix over F_257 against the whole field: binary
        # powering to p-1 takes under 2*(p-1).bit_length() products per
        # alpha, a cost that does not grow with the other elements of U
        p = 257
        union = tuple(range(p))
        calls = []
        for name in ("_mul", "_matvec"):
            kernel = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda *args, kernel=kernel: calls.append(1) or kernel(*args))
        planes = np.arange(p, dtype=_plane_dtype(1, p)).reshape(1, 1, p)
        keys = _eigenvalue_keys(planes, union, p)
        assert keys.tolist() == [_set_key([alpha], union) for alpha in union]
        assert 0 < len(calls) <= len(union) * 2 * (p - 1).bit_length(), len(calls)

    def test_keys_count_positions_in_the_union_not_eigenvalues(self):
        # the 1-by-1 matrix [p-1] at the largest field: its key is its
        # position in the union, so the histogram has |U|+1 bins, not p+1
        p = 257
        planes = np.array([[[p - 1]]], dtype=_plane_dtype(1, p))
        assert _eigenvalue_keys(planes, (p - 1,), p).tolist() == [1]
        assert _eigenvalue_keys(planes, (0, p - 1), p).tolist() == [2]
        item = spectra_item([(p - 1,), (0, p - 1)], p)
        assert item[1] == (0, p - 1)
        # the matrices [0] and [p-1], keys 1 and 2; bin 0, the empty set, is
        # the E count of (0, p-1), which a 1-by-1 matrix cannot have
        counts = _scan_range(_ANNIHILATED, 1, p, item, 0, p)
        assert counts == (0, 1, 1)
        assert [_spectrum_counts(counts, item[1], s, 1) for s in [(p - 1,), (0, p - 1)]] == [(1, 1), (2, 0)]
        reports = []
        peak = traced_peak(lambda: reports.extend(count_spectra(1, PrimeField(p), [(p - 1,), (0, p - 1)])))
        assert [(m.count, e.count) for m, e in reports] == [(1, 1), (2, 0)]
        assert peak <= 4.5 * _CHUNK_BYTES, peak

    @settings(max_examples=25, deadline=None)
    @given(
        alphas=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True).map(tuple),
        start=st.integers(0, 5**9 - 1),
        length=st.integers(1, 3 * 62500),
    )
    def test_spectrum_hits_over_unaligned_ranges(self, alphas, start, length):
        n, p = 3, 5
        stop = min(start + length, p ** (n * n))
        counts = _scan_range(_ANNIHILATED, n, p, spectra_item([alphas], p), start, stop)
        both = spectrum_reports(counts, [alphas], n, p)
        assert both == full_batch_hits(matrices(decode(start, stop, n, p)), alphas, p)

    def test_budget_counts_an_m_and_an_e_scan(self, monkeypatch):
        monkeypatch.setattr(oracle, "_chunks", scan_started)
        with pytest.raises(BudgetExceeded) as refused:
            one_spectrum(2, F3, [0, 1], budget=161)
        assert refused.value.required == 162
        # per spectrum, though one scan tests them all
        with pytest.raises(BudgetExceeded) as refused:
            count_spectra(2, F3, [[0, 1], [2]], budget=323)
        assert refused.value.required == 324
        monkeypatch.undo()
        m, e = one_spectrum(2, F3, [0, 1], budget=162)
        assert (m.spec, m.count, e.spec, e.count) == ("m:{0,1}", 14, "e:{0,1}", 12)
        (m, e), (m2, e2) = count_spectra(2, F3, [[0, 1], [2]], budget=324)
        assert (m.count, e.count, m2.spec, m2.count, e2.spec, e2.count) == (14, 12, "m:{2}", 1, "e:{2}", 1)

    def test_refused_before_the_spectra_are_listed(self, monkeypatch):
        monkeypatch.setattr(oracle, "_chunks", scan_started)
        # an overflowing shape takes not one spectrum, even with no budget
        with pytest.raises(ValueError, match="int64"):
            count_spectra(3, PrimeField(257), Unlisted(1), budget=None)
        # one scan over budget: the spectra are counted by len(), where a
        # list of them would hold 8 MB of pointers
        def refuse():
            with pytest.raises(BudgetExceeded) as refused:
                count_spectra(2, F3, Unlisted(10**6), budget=80)
            assert refused.value.required == 2 * 81 * 10**6

        peak = traced_peak(refuse)
        assert peak < 10**5, peak
        # one scan within budget: the spectra are listed, and all of them
        # refused before any is checked
        with pytest.raises(BudgetExceeded) as refused:
            count_spectra(2, F3, [[0, 1], [1, 1]], budget=200)
        assert refused.value.required == 324
        with pytest.raises(ValueError, match="distinct"):
            count_spectra(2, F3, [[0, 1], [1, 1]], budget=400)

    def test_no_spectra_need_no_budget(self, monkeypatch):
        # no spectra are no scans, however large the shape: nothing is
        # refused and nothing is counted
        monkeypatch.setattr(oracle, "_chunks", scan_started)
        assert count_spectra(3, F5, [], budget=100) == []
        assert count_spectra(3, F5, [], budget=0, jobs=2) == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_threads():
    # numpy's OpenBLAS starts its thread pool at import unless told not to;
    # the oracle's integer kernels never use it
    code = (
        "import os, sys\n"
        "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
        "from eigencount import oracle\n"
        "print(len(os.listdir('/proc/self/task')), 'OPENBLAS_NUM_THREADS' in os.environ)\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = run_python(code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]
    # a caller's own setting is kept
    code = (
        "import os\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
        "from eigencount import oracle\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    proc = run_python(code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"]


def test_serial_scans_load_no_worker_pool():
    # scans fork their workers: no scan loads a process pool's modules
    code = (
        "import sys\n"
        "import eigencount.oracle as oracle\n"
        "print(oracle.count_spectra(2, oracle.PrimeField(3), [[0, 1]])[0][0].count)\n"
        "assert not {'concurrent.futures', 'multiprocessing'} & sys.modules.keys()\n"
    )
    proc = run_python(code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(counting.count_m_poly(2, 2)(3))]



def two_process_scan(column, finish=lambda a, item, p: (a.shape[-1],)):
    """The hits of _run_scan of (column, finish) over the 17^4 matrices of
    n = 2, p = 17: six chunks in two ranges on two cores, the first scanned
    by the caller, the second by one forked worker."""
    return _run_scan((column, finish), 2, 17, None, 17**4, 2)[0]


def every_matrix(a, item, j, p):
    """A column test that every matrix passes."""
    return np.ones(a.shape[-1], dtype=bool)


class TestForkedScans:
    """No worker outlives a scan: a failing worker is reported and reaped,
    and a failing caller kills and reaps its workers."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)

    def test_hits_come_back_from_the_worker(self, forks):
        def finish(a, item, p):
            return a.shape[-1], int(a.sum())

        assert two_process_scan(every_matrix, finish) == (17**4, 4 * 17**3 * (16 * 17 // 2))
        assert len(forks) == 1

    def test_failing_worker_is_reported_and_reaped(self, forks, capfd):
        caller = os.getpid()

        def column(a, item, j, p):
            if os.getpid() != caller:
                raise ArithmeticError("the worker fails")
            return every_matrix(a, item, j, p)

        with pytest.raises(RuntimeError, match="exit status 1"):
            two_process_scan(column)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert "ArithmeticError: the worker fails" in capfd.readouterr().err

    @pytest.mark.parametrize("error", [ArithmeticError, KeyboardInterrupt])
    def test_failing_caller_kills_and_reaps_its_worker(self, forks, error):
        # the worker would run for a minute; the caller fails at once
        caller = os.getpid()

        def column(a, item, j, p):
            if os.getpid() == caller:
                raise error("the caller fails")
            time.sleep(60)

        t0 = time.perf_counter()
        with pytest.raises(error, match="the caller fails"):
            two_process_scan(column)
        assert time.perf_counter() - t0 < 30
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def package_imports(source):
    """{module: names taken from it} for the eigencount modules that the
    source of a module in the package imports anywhere in its code."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, set()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["eigencount" if node.level else "", node.module]))
            names = {alias.name for alias in node.names}
            pairs = [(f"{module}.{n}", set()) for n in names] if module == "eigencount" else [(module, names)]
        else:
            continue
        for module, names in pairs:
            if module.startswith("eigencount."):
                found.setdefault(module, set()).update(names)
    return found


def test_one_driver_decodes_every_scan():
    # every count reaches the matrices through _scan_range, whose chunks
    # no other function of the oracle walks
    tree = ast.parse(Path(oracle.__file__).read_text())
    callers = {
        function.name
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_chunks"
    }
    assert callers == {"_scan_range"}


def test_oracle_shares_no_counting_logic():
    # the oracle's agreement with the closed forms is evidence only while it
    # takes nothing from them but input checks, and they nothing from it
    def imports(name):
        return package_imports(Path(oracle.__file__).with_name(f"{name}.py").read_text())

    every_form = "from . import oracle\nimport eigencount.oracle\nfrom .oracle import orbit_size"
    assert package_imports(every_form) == {"eigencount.oracle": {"orbit_size"}}
    assert imports("oracle")["eigencount.counting"] == {"is_prime", "validate_spectrum"}
    assert "eigencount.qpoly" not in imports("oracle") and "eigencount.bounds" not in imports("oracle")
    for name in ("counting", "qpoly", "bounds"):
        assert "eigencount.oracle" not in imports(name), name

class TestSpectrumCounts:
    def test_idempotent_matrices_binary(self):
        assert one_spectrum(2, F2, [0, 1])[0].count == 8

    def test_only_zero_matrix_has_spectrum_zero(self):
        # nilpotent matrices are excluded by the annihilation test
        assert one_spectrum(2, F3, [0])[0].count == 1

    def test_three_by_three_binary(self):
        assert one_spectrum(3, F2, [0, 1])[0].count == 58

    def test_exact_spectrum_three_by_three(self):
        assert one_spectrum(3, F2, [0, 1])[1].count == 56

    def test_exact_spectrum_impossible(self):
        assert one_spectrum(2, F3, [0, 1, 2])[1].count == 0

    def test_exact_spectrum_two_values_mod5(self):
        assert one_spectrum(2, F5, [1, 4])[1].count == 30

    def test_report_metadata(self):
        m, e = one_spectrum(2, F3, [0, 1])
        assert m.scanned == e.scanned == 3**4
        assert m.n == e.n == 2 and m.p == e.p == 3
        assert (m.spec, e.spec) == ("m:{0,1}", "e:{0,1}")

    def test_alpha_order_irrelevant(self):
        orders = list(itertools.permutations([0, 2, 4]))
        counts = {(m.count, e.count) for m, e in count_spectra(2, F5, orders)}
        assert counts == {tuple(r.count for r in one_spectrum(2, F5, [0, 2, 4]))}

    def test_duplicate_alpha_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            one_spectrum(2, F3, [1, 1])

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ValueError):
            one_spectrum(2, F3, [])

    def test_out_of_range_alpha_rejected(self):
        with pytest.raises(ValueError):
            one_spectrum(2, F3, [3])

    def test_budget_guard(self):
        # an M and an E scan of 3^4 matrices each
        with pytest.raises(BudgetExceeded) as excinfo:
            one_spectrum(2, F3, [0], budget=10)
        assert excinfo.value.required == 2 * 81
        assert excinfo.value.budget == 10
        # None admits a scan of any size
        assert one_spectrum(2, F3, [0], budget=None)[0].count == 1

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 9),
        p=st.sampled_from([2, 3, 257]),
        jobs=st.integers(0, 2),
        scans=st.integers(0, 2),
        budget=st.sampled_from(["none", "zero", "below", "at"]),
    )
    def test_admit_refuses_as_the_size_and_charge_it_replaced(self, n, p, jobs, scans, budget):
        # _admit answers as the two steps it folds together did: a shape
        # sized, then scans of it charged unless forced, now budget=None
        def sized_and_charged(n, p, budget, scans, jobs):
            if n < 1:
                raise ValueError("dimension must be positive")
            if jobs < 1:
                raise ValueError("jobs must be at least 1")
            if n * n >= 63 or p ** (n * n) > (1 << 63) - 1:
                raise ValueError(f"{p}^{n * n} matrices overflow the int64 scan index")
            force, required = budget is None, scans * p ** (n * n)
            if not force and required > budget:
                raise BudgetExceeded(required, budget)
            return p ** (n * n)

        def outcome(admit):
            try:
                return admit(n, p, budget, scans, jobs)
            except (ValueError, BudgetExceeded) as exc:
                return type(exc), str(exc)

        total = p ** (n * n)
        budget = {"none": None, "zero": 0, "below": total - 1, "at": total}[budget]
        assert outcome(_admit) == outcome(sized_and_charged)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_refused(self, monkeypatch, jobs):
        monkeypatch.setattr(oracle, "_chunks", scan_started)
        for scan in (lambda: one_spectrum(2, F3, [0], jobs=jobs), lambda: count_potent(2, F3, 1, jobs=jobs)):
            with pytest.raises(ValueError, match="jobs"):
                scan()

    def test_parallel_scan_matches_serial(self):
        serial = one_spectrum(2, F5, [0, 1])[0].count
        parallel = one_spectrum(2, F5, [0, 1], jobs=2)[0].count
        assert serial == parallel == counting.count_m_poly(2, 2)(5)

    def test_multi_chunk_scan(self):
        # 5^9 matrices span ~30 scan chunks and several worker ranges
        expected = counting.count_m_poly(3, 3)(5)
        assert one_spectrum(3, F5, [0, 2, 4])[0].count == expected
        assert one_spectrum(3, F5, [0, 2, 4], jobs=4)[0].count == expected

    @pytest.mark.parametrize("n, p", [(2, 3), (2, 5), (3, 2)])
    def test_exact_spectrum_matches_plain_python_count(self, n, p):
        reference = exact_spectrum_counts(n, p)
        for alphas, (_, e) in zip(spectra(p), count_spectra(n, PrimeField(p), spectra(p))):
            assert e.count == reference.get(alphas, 0), alphas

    def test_int64_overflowing_shape_refused_even_forced(self, monkeypatch):
        # 257^9 > 2^63 - 1: no budget, None included, makes this scannable.
        # A scan that starts anyway fails here instead of running for ever.
        monkeypatch.setattr(oracle, "_chunks", scan_started)
        with pytest.raises(ValueError, match="int64"):
            one_spectrum(3, PrimeField(257), [0], budget=None)
        with pytest.raises(ValueError, match="int64"):
            count_potent(8, F2, 1, budget=None)

    def test_workers_clamped_to_cores_and_chunks(self, monkeypatch, forks):
        # a scan on w processes forks w - 1 workers: the caller is the other
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
        # 5^9 matrices fill 157 chunks: the 3 cores bound the processes
        m = one_spectrum(3, F5, [0, 2, 4], jobs=64)[0]
        assert m.count == counting.count_m_poly(3, 3)(5)
        assert len(forks) == 2
        # its 156 chunks of 12,500 and one of 3,125 split 53, 53, 51 on
        # chunk boundaries
        size = _chunk_layout(3, 5)[2]
        assert size == 12500
        assert _ranges(5**9, size, 3) == [(0, 53 * size), (53 * size, 106 * size), (106 * size, 5**9)]
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
        # 13^4 matrices fill 3 chunks, 17^4 fill 6, 5^4 fill 1
        assert [-(-p**4 // _chunk_layout(2, p)[2]) for p in (13, 17, 5)] == [3, 6, 1]
        m13 = one_spectrum(2, PrimeField(13), [1, 5], jobs=64)[0]
        e17 = one_spectrum(2, PrimeField(17), [0, 3], jobs=64)[1]
        m5 = one_spectrum(2, F5, [0, 1], jobs=64)[0]
        assert m13.count == counting.count_m_poly(2, 2)(13)
        assert e17.count == counting.count_e_poly(2, 2)(17)
        assert m5.count == counting.count_m_poly(2, 2)(5)
        assert len(forks) == 2 + 2 + 5
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 1)
        m13 = one_spectrum(2, PrimeField(13), [1, 5], jobs=8)[0]
        assert m13.count == counting.count_m_poly(2, 2)(13)
        assert len(forks) == 9

    def test_ranges_split_on_chunk_boundaries(self):
        # at most one range per process, each of ceil(chunks/workers) chunks
        # and the last of the rest, so a worker never starts without work
        assert _ranges(625, 625, 1) == [(0, 625)]
        assert _ranges(83521, 63869, 2) == [(0, 63869), (63869, 83521)]
        assert _ranges(5 * 100, 100, 5) == [(s, s + 100) for s in range(0, 500, 100)]
        assert _ranges(4 * 100 - 1, 100, 3) == [(0, 200), (200, 399)]
        for total, size, workers in [(5**9, 62500, 3), (3**9, 81, 2), (7**4, 2401, 4)]:
            ranges = _ranges(total, size, workers)
            assert ranges[0][0] == 0 and ranges[-1][1] == total
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            assert all(start % size == 0 for start, _ in ranges)
            assert len(ranges) <= workers

    def test_m_partitions_into_e_over_subsets(self):
        spectrum = (0, 1, 2)
        total = one_spectrum(2, F3, spectrum)[0].count
        parts = 0
        for size in range(1, len(spectrum) + 1):
            for sub in itertools.combinations(spectrum, size):
                parts += one_spectrum(2, F3, sub)[1].count
        assert total == parts


class TestPotentCounts:
    def test_idempotents(self):
        assert count_potent(2, F2, 1).count == 8

    def test_four_potent_mod7(self):
        assert count_potent(2, F7, 3).count == 340

    def test_three_potent_mod3(self):
        assert count_potent(2, F3, 2).count == 39

    def test_formula_matches_where_applicable(self):
        for n, field, k in [(2, F2, 1), (2, F3, 2), (2, F5, 2), (2, F5, 4), (3, F2, 1)]:
            assert count_potent(n, field, k).count == counting.potent_count(
                n, field.p, k
            )

    def test_oracle_only_case_char_divides_k(self):
        # x^3 = x over F_2 admits non-diagonalizable solutions: the 8
        # idempotents plus the 3 conjugates of the transvection; the scan
        # alone used to count this case
        assert count_potent(2, F2, 2).count == 11
        assert counting.potent_count(2, 2, 2) == 11

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(
            [(n, p) for n in (1, 2, 3) for p in (2, 3, 5, 7) if p ** (n * n) <= 1 << 20]
        ),
        k=st.integers(1, 12),
    )
    def test_formula_matches_scan_for_every_k(self, shape, k):
        n, p = shape
        assert counting.potent_count(n, p, k) == count_potent(n, PrimeField(p), k).count

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            count_potent(2, F2, 0)

    @pytest.mark.parametrize("n, p", [(1, 2), (1, 3), (1, 7), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
    def test_exponent_is_the_lcm_of_the_element_orders(self, n, p):
        # the order of every invertible matrix, by repeated products of
        # whole int64 matrices: E is their lcm for n >= 2, and p times it
        # at n = 1
        mats = np.array(list(itertools.product(range(p), repeat=n * n))).reshape(-1, n, n)
        units = mats[det_batch(mats, p) != 0]
        orders = np.zeros(len(units), dtype=np.int64)
        power = units.copy()
        for t in itertools.count(1):
            done = (orders == 0) & (power == eye(n, len(units))).all(axis=(1, 2))
            orders[done] = t
            if orders.all():
                break
            power = power @ units % p
        exponent = math.lcm(*orders.tolist())
        assert _exponent(n, p) == (exponent * p if n == 1 else exponent)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(
            [(n, p) for n in (1, 2, 3) for p in (2, 3, 5, 7) if p ** (n * n) <= 3**9]
        ),
        k=st.integers(1, 64) | st.integers(1, 10**30),
    )
    def test_k_counts_what_its_gcd_with_the_exponent_counts(self, shape, k):
        n, p = shape
        field = PrimeField(p)
        g = math.gcd(k, _exponent(n, p))
        count = count_potent(n, field, k).count
        assert count == count_potent(n, field, g).count == counting.potent_count(n, p, k)


class TestOrbitGeometry:
    def test_centralizer_examples(self):
        assert centralizer_size((1, 1), F2) == 1
        assert centralizer_size((1, 1), F3) == 4
        assert centralizer_size((2,), F2) == 6

    def test_orbit_examples(self):
        assert orbit_size((1, 1), F2) == 6
        assert orbit_size((2,), F2) == 1
        assert orbit_size((2,), F5) == 1
        assert orbit_size((1, 1), F3) == 12

    def test_orbit_stabilizer_product(self):
        for parts, field in [
            ((1, 1), F2),
            ((2,), F3),
            ((1, 1), F5),
            ((1, 2), F3),
            ((1, 1, 1), F3),
        ]:
            n = sum(parts)
            orbit = orbit_size(parts, field)
            stab = centralizer_size(parts, field)
            assert orbit * stab == counting.gl_order_poly(n)(field.p)

    def test_orbit_matches_class_size_poly(self):
        for parts, field in [((1, 1), F2), ((1, 2), F2), ((1, 2), F3)]:
            assert orbit_size(parts, field) == counting.class_size_poly(parts)(field.p)

    @pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (2, 5), (3, 2)])
    def test_orbit_is_the_explicit_conjugacy_class(self, n, p):
        # every parts of n with at most p entries, zero parts included,
        # against g D g^-1 formed for every invertible g in plain Python
        sizes = conjugacy_class_sizes(n, p)
        field = PrimeField(p)
        every_parts = [
            parts
            for length in range(1, p + 1)
            for parts in itertools.product(range(n + 1), repeat=length)
            if sum(parts) == n
        ]
        for parts in every_parts:
            diagonal = tuple(i for i, size in enumerate(parts) for _ in range(size))
            assert orbit_size(parts, field) == sizes[diagonal], parts

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(1, 7), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]),
        data=st.data(),
    )
    def test_orbit_ignores_the_order_of_the_eigenvalues(self, shape, data):
        # the class of D depends on its eigenvalues only through the sizes
        # of their blocks, so any arrangement of the nonzero parts, on any
        # eigenvalues, has the size class_size_poly gives
        n, p = shape
        sizes = data.draw(st.sampled_from([
            blocks
            for length in range(1, min(n, p) + 1)
            for blocks in itertools.product(range(1, n + 1), repeat=length)
            if sum(blocks) == n
        ]))
        length = data.draw(st.integers(len(sizes), p))
        positions = data.draw(st.permutations(range(length)).map(lambda order: sorted(order[: len(sizes)])))
        arranged = data.draw(st.permutations(sizes))
        parts = [0] * length
        for position, size in zip(positions, arranged):
            parts[position] = size
        field = PrimeField(p)
        expected = counting.class_size_poly(tuple(parts))(p)
        assert orbit_size(parts, field) == orbit_size(sorted(sizes), field) == expected, parts

    def test_orbit_pools_over_many_chunks(self, monkeypatch):
        # 243 chunks of 81 matrices, whose column-0 survivors fill and
        # finish many pools
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", 81 * plane_bytes(3, 3))
        assert _chunk_layout(3, 3)[2] == 81
        for parts in [(1, 2), (1, 1, 1), (3,)]:
            assert orbit_size(parts, F3) == counting.class_size_poly(parts)(3), parts

    @pytest.mark.parametrize("p", [2, 3, 5, 257])
    def test_one_by_one(self, p):
        # GL_1(F_p) is abelian of order p - 1; at n = 1 invertibility is
        # A^E = I with E = p(p-1), 2 at p = 2
        field = PrimeField(p)
        for parts in [(1,), (0, 1)]:
            assert centralizer_size(parts, field) == p - 1
            assert orbit_size(parts, field) == 1

    def test_zero_parts_shift_eigenvalues_not_sizes(self):
        assert orbit_size((0, 2), F3) == orbit_size((2,), F3) == 1
        assert centralizer_size((0, 1, 1), F3) == centralizer_size((1, 1), F3)

    def test_representative_layout(self):
        rep = block_diag_rep((2, 1), F3)
        assert rep.dtype == np.int64
        assert rep.tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
        rep = block_diag_rep((0, 2), F3)
        assert rep.tolist() == [[1, 0], [0, 1]]
        # numpy integers are integers
        assert block_diag_rep((np.int64(1), 1), F3).tolist() == [[0, 0], [0, 1]]

    def test_int64_overflowing_shape_refused_even_forced(self, monkeypatch):
        monkeypatch.setattr(oracle, "_chunks", scan_started)
        big = PrimeField(257)
        with pytest.raises(ValueError, match="int64"):
            orbit_size((1, 2), big, budget=None)
        with pytest.raises(ValueError, match="int64"):
            centralizer_size((1, 2), big, budget=None)

    @pytest.mark.parametrize("size", ["orbit_size", "centralizer_size"])
    def test_huge_parts_refused_before_the_rep_is_built(self, size):
        # the dense 20000-by-20000 int64 representative alone would take
        # 3.2 GB, over the child's 2 GiB cap
        oracle_module = "__import__('eigencount.oracle').oracle"
        proc = run_capped(f"{oracle_module}.{size}((20000,), {oracle_module}.PrimeField(2))")
        assert (proc.returncode, proc.stdout) == (1, "")
        last = proc.stderr.splitlines()[-1]
        assert last == "ValueError: 2^400000000 matrices overflow the int64 scan index", proc.stderr

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            orbit_size((1, 2), F3, budget=100)
        with pytest.raises(BudgetExceeded):
            centralizer_size((1, 2), F3, budget=100)
        assert centralizer_size((1, 2), F3, budget=None) == 96

    def test_too_many_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            block_diag_rep((1, 1, 1), F2)

    @pytest.mark.parametrize("size", [block_diag_rep, orbit_size, centralizer_size])
    @pytest.mark.parametrize("parts", [(1.5, 1), (1.0, 1), ("1", 1), (None,)])
    def test_parts_must_be_integers(self, size, parts, monkeypatch):
        # 1.5 + 1 is no dimension, and 1.0 is refused as validate_spectrum
        # refuses it, however close it is to one
        monkeypatch.setattr(oracle, "_chunks", scan_started)
        with pytest.raises(ValueError, match="^parts must be integers$"):
            size(parts, F3)
