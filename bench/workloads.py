"""The benchmark's workloads: seeded job lists, each job with its own check.

A job is one process: an ``eigencount`` CLI invocation, or the library
job that runs ``oracle.orbit_size``/``centralizer_size`` through
``job.py orbits``.  The seed picks the concrete spectra, the evaluation
points and the order of the jobs; by eigenvalue anonymity no count
depends on it, and the checks compute every expected value from the
generated arguments alone.

Why each workload exists:

* ``formulas``: closed forms only (``counting`` and ``qpoly``), in the
  wide regime (many compositions) and the deep regime (degree 300-800,
  where exact division dominates), plus ``table``, ``bound`` and calls
  where start-up dominates.  The oracle does no work here.
* ``scans``: serial exhaustive scans (``oracle``), whose cost is decode,
  annihilation, exact-spectrum refinement, ``_pow_batch`` and the scalar
  orbit/centralizer path.  The formulas do almost no work here.
* ``scans-parallel``: the n=3, p=5 scans of ``scans`` through the
  ``--jobs 2`` worker pool.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import checks
from checks import expect

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (mode, n, k, evaluation): "q" passes --q, "p" passes --p/--alphas, None
# asks for the polynomial alone (then checked at a seeded point).
WIDE = [("m", 10, 10, "q"), ("m", 9, 9, "p"), ("m", 12, 6, None), ("e", 12, 6, "q")]
DEEP = [("m", 40, 2, "q"), ("m", 30, 3, "p"), ("m", 20, 4, None), ("e", 30, 2, "q")]
# start-up dominated calls: (mode, n, k, evaluation, format)
MINIMAL = [
    ("m", 1, 1, None, "text"), ("e", 2, 2, "q", "text"), ("m", 2, 2, "p", "csv"),
    ("e", 3, 2, None, "json"), ("m", 2, 3, "q", "csv"),
]

SCAN_N, SCAN_P = 3, 5
ALL_SUBSETS = [(4, 2), (3, 3)]
ORBIT_GRID = [(2, 2), (2, 3), (2, 5), (3, 2)]

SETUP_ARGV = ["count", "--mode", "m", "--n", "1", "--k", "1"]

# The one operation kept although it fails: the program raises ValueError
# from bounds.bound_matrix_ring for n=0 and exits 1 with a traceback, where
# its contract is exit 2 with a one-line reason.
REFUSAL_ARGV = ["bound", "--kind", "matrix", "--n", "0", "--p", "3", "--k", "1", "--count", "1"]


@dataclass
class Job:
    argv: list[str]
    check: Callable[[int, str, str], None]  # (exit code, stdout, stderr); raises CheckFailed
    library: bool = False  # run through job.py orbits instead of the CLI
    known_fault: bool = False
    label: str = field(default="")

    def __post_init__(self):
        self.label = self.label or " ".join(self.argv)


def _exit(rc: int, expected: int = 0):
    expect(rc == expected, f"exit code {rc}, expected {expected}")


def _single(out: str, fmt: str) -> dict[str, str]:
    records = checks.parse_records(out, fmt)
    expect(len(records) == 1, f"{len(records)} records, expected 1")
    return records[0]


def _params(rec: dict[str, str], **expected):
    for key, value in expected.items():
        expect(rec.get(key) == str(value), f"{key}={rec.get(key)}, expected {value}")


# ----------------------------------------------------------------------
# formulas


def count_job(mode, n, k, fmt, rng, evaluation) -> Job:
    exact = mode == "e"
    argv = ["count", "--mode", mode, "--n", str(n)]
    spectrum = None
    if evaluation == "p":
        p = rng.choice([p for p in PRIMES if p >= k])
        spectrum = sorted(rng.sample(range(p), k))
        argv += ["--p", str(p), "--alphas", ",".join(map(str, spectrum))]
        point = p
    else:
        argv += ["--k", str(k)]
        point = rng.choice(PRIME_POWERS)
        if evaluation == "q":
            argv += ["--q", str(point)]
    argv += ["--format", fmt]

    def check(rc, out, err):
        _exit(rc)
        rec = _single(out, fmt)
        _params(rec, command="count", mode=mode, n=n, k=k, provenance="formula")
        if spectrum is not None:
            _params(rec, p=point, spectrum=",".join(map(str, spectrum)))
        coeffs = checks.check_spectrum_poly(rec["polynomial"], n, k, exact, point)
        if evaluation is None:
            expect("value" not in rec, "value printed without an evaluation point")
        else:
            expected = checks.spectrum_count(n, k, point, exact)
            expect(rec.get("value") == str(expected), f"value {rec.get('value')} != {expected}")
            expect(checks.poly_value(coeffs, point) == expected, "polynomial disagrees with value")

    return Job(argv, check)


def table_job(rng) -> Job:
    n_max = 8
    point = rng.choice(PRIME_POWERS)

    def check(rc, out, err):
        _exit(rc)
        records = checks.parse_records(out, "csv")
        rows = [(int(r["n"]), int(r["k"])) for r in records]
        expected_rows = [(n, k) for n in range(3, n_max + 1) for k in range(2, n + 1)]
        expect(rows == expected_rows, f"table rows {rows}")
        for (n, k), rec in zip(rows, records):
            _params(rec, command="table", provenance="formula")
            expect(rec.get("verdict", "match") == "match", f"row ({n},{k}) {rec.get('verdict')}")
            checks.check_spectrum_poly(rec["polynomial"], n, k, True, point)

    return Job(["table", "--n-max", str(n_max), "--format", "csv"], check)


def bound_matrix_job(n, p, k, count, fmt) -> Job:
    """``bound --kind matrix``; the count is computed by the program when None."""
    argv = ["bound", "--kind", "matrix", "--n", str(n), "--p", str(p), "--k", str(k)]
    if count is not None:
        argv += ["--count", str(count)]
    argv += ["--format", fmt]

    def check(rc, out, err):
        rec = _single(out, fmt)
        if count is None:
            expected_count = checks.potent_count(n, p, k)
            if (p - 1) % k == 0:
                expect(expected_count == checks.spectrum_count(n, k + 1, p, False),
                       "split potent count disagrees with M(n,k+1)(p)")
            _params(rec, source="computed", provenance="formula")
        else:
            expected_count = count
            _params(rec, source="explicit")
        lhs, rhs = checks.matrix_certificates(n, p, k, expected_count)
        _params(rec, command="bound", kind="matrix", n=n, p=p, k=k, value=expected_count,
                lhs=lhs, rhs=rhs, verdict="holds" if lhs <= rhs else "violated")
        _exit(rc, 0 if lhs <= rhs else 6)

    return Job(argv, check)


def bound_ring_job(factors, k, count, mode) -> Job:
    text = ",".join(f"{p}^{r}" for p, r in factors)
    argv = ["bound", "--kind", "ring", "--factors", text, "--k", str(k), "--count", str(count),
            "--mode", mode, "--format", "json"]

    def check(rc, out, err):
        rec = _single(out, "json")
        lhs, rhs = checks.ring_certificates(factors, k, count, mode)
        _params(rec, command="bound", kind="ring", factors=text, k=k, mode=mode, value=count,
                lhs=lhs, rhs=rhs, verdict="holds" if lhs <= rhs else "violated")
        _exit(rc, 0 if lhs <= rhs else 6)

    return Job(argv, check)


def refusal_job() -> Job:
    def check(rc, out, err):
        _exit(rc, 2)
        expect(out == "", "refusal printed a record")
        expect(len(err.strip().splitlines()) == 1, "refusal reason is not one line")

    return Job(REFUSAL_ARGV, check, known_fault=True)


def formulas(rng: random.Random) -> list[Job]:
    fmts = itertools.cycle(("json", "text", "csv"))
    jobs = [count_job(mode, n, k, next(fmts), rng, ev) for mode, n, k, ev in WIDE + DEEP]
    jobs.append(table_job(rng))
    jobs.append(bound_matrix_job(4, rng.choice(PRIMES[1:]), 2, None, "json"))
    jobs.append(bound_ring_job([(2, 2), (3, 1)], 1, rng.randint(1, 12), "theorem3"))
    jobs += [count_job(mode, n, k, fmt, rng, ev) for mode, n, k, ev, fmt in MINIMAL]
    jobs.append(bound_matrix_job(1, 3, 1, 2, "text"))  # the tight case: both certificates are 36
    jobs.append(refusal_job())
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# scans


def _check_verify_spectrum(rec, n, p, alphas):
    mode = rec.get("mode")
    expect(mode in ("m", "e"), f"verify mode {mode}")
    exact = mode == "e"
    expected = checks.spectrum_count(n, len(alphas), p, exact)
    _params(rec, command="verify", n=n, p=p, spectrum=",".join(map(str, alphas)),
            scanned=p ** (n * n), value=expected, verdict="pass", provenance="both")
    checks.check_spectrum_poly(rec["polynomial"], n, len(alphas), exact, p)


def spectrum_job(n, p, alphas, jobs) -> Job:
    argv = ["verify", "--n", str(n), "--p", str(p), "--spectrum", ",".join(map(str, alphas)),
            "--jobs", str(jobs), "--format", "json"]

    def check(rc, out, err):
        _exit(rc)
        records = checks.parse_records(out, "json")
        expect([r.get("mode") for r in records] == ["m", "e"], "expected an M and an E record")
        for rec in records:
            _check_verify_spectrum(rec, n, p, alphas)

    return Job(argv, check)


def all_subsets_job(n, p) -> Job:
    argv = ["verify", "--n", str(n), "--p", str(p), "--all-subsets", "--jobs", "1",
            "--format", "json"]
    subsets = [s for size in range(1, min(n + 1, p) + 1) for s in itertools.combinations(range(p), size)]

    def check(rc, out, err):
        _exit(rc)
        records = checks.parse_records(out, "json")
        expect(len(records) == 2 * len(subsets), f"{len(records)} records for {len(subsets)} subsets")
        for i, rec in enumerate(records):
            _params(rec, mode="me"[i % 2])
            _check_verify_spectrum(rec, n, p, subsets[i // 2])

    return Job(argv, check)


def potent_job(n, p, k, jobs) -> Job:
    argv = ["verify", "--n", str(n), "--p", str(p), "--potent", str(k), "--jobs", str(jobs),
            "--format", "json"]
    split = (p - 1) % k == 0

    def check(rc, out, err):
        _exit(rc)
        rec = _single(out, "json")
        expected = checks.potent_count(n, p, k)
        _params(rec, command="verify", n=n, p=p, k=k, scanned=p ** (n * n), value=expected)
        if split:
            expect(expected == checks.spectrum_count(n, k + 1, p, False),
                   "split potent count disagrees with M(n,k+1)(p)")
            _params(rec, verdict="pass", provenance="both")
            checks.check_spectrum_poly(rec["polynomial"], n, k + 1, False, p)
        else:
            expect(rec.get("verdict") in ("oracle-only", "pass"), f"verdict {rec.get('verdict')}")

    return Job(argv, check)


def orbit_job(rng) -> Job:
    specs = [
        (p, parts)
        for n, p in ORBIT_GRID
        for s in range(1, min(n, p) + 1)
        for parts in _strict_compositions(n, s)
    ] + [(3, (1, 2))]
    rng.shuffle(specs)
    argv = [f"{p}:{','.join(map(str, parts))}" for p, parts in specs]

    def check(rc, out, err):
        _exit(rc)
        lines = out.splitlines()
        expect(len(lines) == len(specs), f"{len(lines)} orbit records for {len(specs)} specs")
        for (p, parts), line in zip(specs, lines):
            rec = json.loads(line)
            n = sum(parts)
            expect(rec["p"] == p and tuple(rec["parts"]) == parts, f"orbit record {rec}")
            expect(rec["orbit"] * rec["centralizer"] == checks.gl_order(n, p),
                   f"orbit x centralizer != |GL_{n}({p})| for parts {parts}")
            expected_cent = 1
            for m in parts:
                expected_cent *= checks.gl_order(m, p)
            expect(rec["centralizer"] == expected_cent, f"centralizer of {parts} over F_{p}")

    return Job(argv, check, library=True, label="orbits " + " ".join(argv))


def _strict_compositions(n, s):
    for cuts in itertools.combinations(range(1, n), s - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _scan_core(rng, jobs) -> list[Job]:
    """The n=3, p=5 runs shared by scans and scans-parallel."""
    return [
        spectrum_job(SCAN_N, SCAN_P, sorted(rng.sample(range(SCAN_P), 2)), jobs),
        spectrum_job(SCAN_N, SCAN_P, sorted(rng.sample(range(SCAN_P), 3)), jobs),
        potent_job(SCAN_N, SCAN_P, 4, jobs),  # x^5-x splits over F_5
        potent_job(SCAN_N, SCAN_P, 3, jobs),  # x^4-x = x(x-1)(x^2+x+1): squarefree, not split
    ]


def scans(rng: random.Random) -> list[Job]:
    jobs = _scan_core(rng, 1) + [all_subsets_job(n, p) for n, p in ALL_SUBSETS] + [orbit_job(rng)]
    rng.shuffle(jobs)
    return jobs


def scans_parallel(rng: random.Random) -> list[Job]:
    jobs = _scan_core(rng, 2)
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"formulas": formulas, "scans": scans, "scans-parallel": scans_parallel}


def setup_job() -> Job:
    """The minimal command whose wall time is setup_s."""

    def check(rc, out, err):
        _exit(rc)
        rec = _single(out, "text")
        _params(rec, command="count", polynomial="1")

    return Job(SETUP_ARGV, check)


def build(name: str, seed: int) -> list[Job]:
    return WORKLOADS[name](random.Random(seed))
