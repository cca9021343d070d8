"""Command-line front end for the counting formulas, oracle, and bounds.

Subcommands: ``count`` (closed-form polynomials and evaluations),
``table`` (regenerate the reference table and diff it), ``verify``
(formula against exhaustive oracle), ``bound`` (integer-certified
inequalities).  This module parses arguments, checks what only the
command line can get wrong (flag pairs and conflicts, the ``--n-max``
range, the evaluation point, ``EIGENCOUNT_BUDGET``), and writes records;
every other refusal is the library's ``ValueError``, reported the same
way.  Records go to stdout as text, one-JSON-object-per-line, or CSV;
diagnostics (scan timings, warnings) go to stderr so identical
invocations produce bit-identical stdout.  Each command imports only the
modules it uses: ``table`` the reference fixture, ``bound`` the bounds,
``verify`` the oracle and with it numpy, and only the JSON and CSV
formats their writers.

Exit codes: 0 success, 2 usage error, 3 table mismatch, 4 verification
mismatch, 5 enumeration budget exceeded, 6 bound violated, and 141
(128 + SIGPIPE) when stdout is closed before the records are written.
The scan budget defaults to 2^26 matrices per invocation and can be
overridden with the EIGENCOUNT_BUDGET environment variable.

``run`` is the ``eigencount`` command itself: it flushes stdout and
stderr and ends the process with os._exit, skipping interpreter teardown.
``main`` returns its exit code like any function, for callers that go on.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import counting

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TABLE_MISMATCH = 3
EXIT_VERIFY_MISMATCH = 4
EXIT_BUDGET = 5
EXIT_BOUND_VIOLATED = 6
EXIT_BROKEN_PIPE = 141

# bounds.RING_MODES, spelled out so that building the parser loads no bounds
_RING_MODES = ("theorem2", "theorem3", "corollary")

_FIELDS = ("polynomial", "value", "verdict", "provenance")


class Emitter:
    """Writes records to a stream as text lines, JSON lines or CSV rows."""

    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        self._csv = None

    def emit(
        self, command: str, params: dict[str, object], *, mark: str = "",
        polynomial=None, value=None, verdict=None, provenance=None,
    ):
        """One record: the command, its parameters, then the fields that are
        not None, all as strings, the fields in _FIELDS order.  ``mark``
        prefixes the text line only."""
        given = zip(_FIELDS, (polynomial, value, verdict, provenance))
        try:
            params = {name: str(v) for name, v in params.items()}
            fields = {name: str(v) for name, v in given if v is not None}
        except ValueError:  # an integer past Python's int-to-str digit limit
            limit = sys.get_int_max_str_digits()
            raise ValueError(
                f"the record is too long to print: a number in it has more than {limit} digits"
            ) from None
        if self.fmt == "csv":
            if self._csv is None:
                import csv

                self._csv = csv.writer(self.stream, lineterminator="\n")
                self._csv.writerow(["command", "parameters", *_FIELDS])
            pairs = " ".join(f"{k}={v}" for k, v in params.items())
            self._csv.writerow([command, pairs, *(fields.get(name, "") for name in _FIELDS)])
            return
        if self.fmt == "json":
            import json

            line = json.dumps({"command": command, "parameters": params, **fields})
        else:
            pairs = [*params.items(), *fields.items()]
            line = mark + " ".join([command, *(f"{k}={v}" for k, v in pairs)])
        self.stream.write(line + "\n")


def _diag(message: str):
    print(message, file=sys.stderr)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed {what} {text!r}; expected comma-separated integers") from exc


def _spectrum_text(alphas) -> str:
    return ",".join(str(a) for a in alphas)


# ----------------------------------------------------------------------
# count


def _cmd_count(args, emitter: Emitter) -> int:
    if args.p is not None or args.alphas is not None:
        if args.p is None or args.alphas is None:
            raise ValueError("--p and --alphas must be given together")
        if args.q is not None:
            raise ValueError("--q conflicts with --p/--alphas; pick one evaluation point")
        alphas = counting.validate_spectrum(args.p, _parse_int_list(args.alphas, "spectrum"))
        k = len(alphas)
        if args.k is not None and args.k != k:
            raise ValueError(f"--k {args.k} disagrees with {k} spectrum values")
        eval_at = args.p
    else:
        if args.k is None:
            raise ValueError("--k is required unless --alphas is given")
        k, alphas, eval_at = args.k, None, args.q
    if eval_at is not None and eval_at < 1:
        raise ValueError("evaluation point must be at least 1")

    poly = counting.count_m_poly(args.n, k) if args.mode == "m" else counting.count_e_poly(args.n, k)
    params = {"mode": args.mode, "n": str(args.n), "k": str(k)}
    if alphas is not None:
        params["p"] = str(args.p)
        params["spectrum"] = _spectrum_text(alphas)
    elif args.q is not None:
        params["q"] = str(args.q)
    emitter.emit(
        "count", params,
        polynomial=poly, value=poly(eval_at) if eval_at is not None else None,
        provenance="formula",
    )
    # warnings follow the record, so a record refused while rendering
    # (a value past Python's int-to-str digit limit) leaves one error line
    if args.q is not None and not counting.is_prime_power(args.q):
        _diag(f"warning: q={args.q} is not a prime power; no field has that many elements")
    if args.mode == "e" and eval_at is not None and eval_at < k:
        _diag(
            f"warning: exact-spectrum count evaluated at q={eval_at} < k={k}; "
            "no field that small carries k distinct eigenvalues"
        )
    return EXIT_OK


# ----------------------------------------------------------------------
# table


def _cmd_table(args, emitter: Emitter) -> int:
    from .reference import REFERENCE_BY_NK

    if not (3 <= args.n_max <= 8):
        raise ValueError("--n-max must be between 3 and 8")
    mismatches = 0
    for n, k, poly in counting.table_rows(args.n_max):
        text = str(poly)
        expected = REFERENCE_BY_NK.get((n, k))
        params = {"n": str(n), "k": str(k)}
        verdict = None if expected is None else "match" if text == expected else "mismatch"
        if verdict == "mismatch":
            params["expected"] = expected
            mismatches += 1
        emitter.emit(
            "table", params, mark="! " if verdict == "mismatch" else "",
            polynomial=text, verdict=verdict, provenance="formula",
        )
    if mismatches:
        _diag(f"{mismatches} table row(s) differ from the reference fixture")
        return EXIT_TABLE_MISMATCH
    return EXIT_OK


# ----------------------------------------------------------------------
# verify


def _scan_line(what: str, rep):
    """The stderr line of a command's one scan, from one of its reports."""
    _diag(f"scan {what} n={rep.n} p={rep.p}: {rep.scanned} matrices in {int(rep.seconds * 1000)} ms")


def _spectra(args, p: int):
    """The spectra to verify, anew on each call: the one given, or each nonempty
    subset of F_p with at most n+1 elements (larger ones add no information)."""
    if args.spectrum is not None:
        alphas = _parse_int_list(args.spectrum, "spectrum")
        return [counting.validate_spectrum(p, alphas)]
    sizes = range(1, min(args.n + 1, p) + 1)
    return itertools.chain.from_iterable(itertools.combinations(range(p), size) for size in sizes)


def _verify_record(emitter: Emitter, rep, params: dict[str, str], poly, formula) -> bool:
    """One verify record comparing the oracle's count with ``formula``, the
    value at p of ``poly`` when there is one; False on a mismatch."""
    params = {**params, "scanned": str(rep.scanned)}
    equal = formula == rep.count
    if not equal:
        params.update(formula=str(formula), oracle=str(rep.count))
    emitter.emit(
        "verify", params,
        polynomial=poly, value=rep.count, verdict="pass" if equal else "fail",
        provenance="both",
    )
    return equal


def _cmd_verify(args, emitter: Emitter) -> int:
    from . import oracle

    fld = oracle.PrimeField(args.p)
    raw = os.environ.get("EIGENCOUNT_BUDGET", str(oracle.DEFAULT_BUDGET))
    try:
        budget = int(raw)
    except ValueError as exc:
        raise ValueError(f"EIGENCOUNT_BUDGET={raw!r} is not an integer") from exc
    if budget < 1:
        raise ValueError("EIGENCOUNT_BUDGET must be positive")
    scan = {"budget": budget, "force": args.force, "jobs": args.jobs}

    if args.potent is not None:
        k = args.potent
        rep = oracle.count_potent(args.n, fld, k, **scan)
        _scan_line(rep.spec, rep)
        poly = counting.count_m_poly(args.n, k + 1) if (fld.p - 1) % k == 0 else None
        params = {"n": str(args.n), "p": str(fld.p), "k": str(k)}
        ok = _verify_record(emitter, rep, params, poly, counting.potent_count(args.n, fld.p, k))
        return EXIT_OK if ok else EXIT_VERIFY_MISMATCH

    pairs = oracle.count_spectra(args.n, fld, _spectra(args, fld.p), **scan)
    _scan_line(f"spectra={len(pairs)}", pairs[0][0])
    ok = True
    for alphas, pair in zip(_spectra(args, fld.p), pairs):
        for mode, formula_poly, rep in zip("me", (counting.count_m_poly, counting.count_e_poly), pair):
            poly = formula_poly(args.n, len(alphas))
            params = {
                "mode": mode, "n": str(args.n), "p": str(fld.p),
                "spectrum": _spectrum_text(alphas),
            }
            ok &= _verify_record(emitter, rep, params, poly, poly(fld.p))
    return EXIT_OK if ok else EXIT_VERIFY_MISMATCH


# ----------------------------------------------------------------------
# bound


def _cmd_bound(args, emitter: Emitter) -> int:
    from . import bounds

    provenance, count = None, args.count
    if args.kind == "matrix":
        if args.factors is not None or args.mode is not None:
            raise ValueError("--factors and --mode apply to ring bounds only")
        if args.n is None or args.p is None:
            raise ValueError("matrix bounds need --n and --p")
        params = {"kind": "matrix", "n": str(args.n), "p": str(args.p), "k": str(args.k)}
        if count is None:
            params["source"], provenance = "computed", "formula"
            try:  # refuse certificates too large for any count before computing one,
                bounds.check_matrix_size(args.n, args.p, args.k)
            except ValueError:
                counting.check_potent(args.n, args.p, args.k)  # but after the count's own refusals
                raise
            count = counting.potent_count(args.n, args.p, args.k)
        else:
            params["source"] = "explicit"
        verdict = bounds.bound_matrix_ring(args.n, args.p, args.k, count)
    else:
        if args.n is not None or args.p is not None:
            raise ValueError("--n and --p apply to matrix bounds only")
        if args.factors is None:
            raise ValueError("ring bounds need --factors")
        if count is None:
            raise ValueError("ring bounds need an explicit --count")
        ring = bounds.RingSpec.parse(args.factors)
        mode = args.mode or ("theorem2" if ring.num_primes == 1 else "theorem3")
        # certified first: it refuses a ring too large to render
        verdict = bounds.bound_finite_ring(ring, args.k, count, mode)
        params = {
            "kind": "ring",
            "factors": str(ring),
            "cardinality": str(ring.cardinality),
            "k": str(args.k),
            "mode": mode,
            "source": "explicit",
        }

    params["lhs"] = verdict.lhs_certificate
    params["rhs"] = verdict.rhs_certificate
    emitter.emit(
        "bound", params,
        value=count, verdict="holds" if verdict.holds else "violated", provenance=provenance,
    )
    return EXIT_OK if verdict.holds else EXIT_BOUND_VIOLATED


# ----------------------------------------------------------------------
# parser plumbing


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: a prefix of a flag is refused, not taken for it
    parser = argparse.ArgumentParser(
        prog="eigencount",
        allow_abbrev=False,
        description="Exact counts of diagonalizable matrices over finite fields, "
        "with brute-force verification and potent-count bounds.",
    )
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format for stdout records",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_count = sub.add_parser("count", parents=[common], allow_abbrev=False, help="closed-form counts")
    p_count.add_argument("--mode", choices=("m", "e"), required=True)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--k", type=int)
    p_count.add_argument("--q", type=int, help="evaluate the polynomial at this field size")
    p_count.add_argument("--p", type=int, help="prime modulus for a concrete spectrum")
    p_count.add_argument("--alphas", help="comma-separated distinct residues mod p")
    p_count.set_defaults(handler=_cmd_count)

    p_table = sub.add_parser("table", parents=[common], allow_abbrev=False, help="regenerate the reference table")
    p_table.add_argument("--n-max", type=int, default=6)
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", parents=[common], allow_abbrev=False, help="formula vs oracle")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--p", type=int, required=True)
    scope = p_verify.add_mutually_exclusive_group(required=True)
    scope.add_argument("--all-subsets", action="store_true")
    scope.add_argument("--spectrum", help="comma-separated distinct residues mod p")
    scope.add_argument("--potent", type=int, metavar="K", help="verify A^(K+1)=A counts")
    p_verify.add_argument("--force", action="store_true", help="ignore the scan budget")
    p_verify.add_argument("--jobs", type=int, default=1, help="parallel scan workers")
    p_verify.set_defaults(handler=_cmd_verify)

    p_bound = sub.add_parser("bound", parents=[common], allow_abbrev=False, help="certify an upper bound")
    p_bound.add_argument("--kind", choices=("matrix", "ring"), required=True)
    p_bound.add_argument("--n", type=int, help="matrix dimension (matrix kind)")
    p_bound.add_argument("--p", type=int, help="field prime (matrix kind)")
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--count", type=int, help="potent count; computed if omitted (matrix kind)")
    p_bound.add_argument("--factors", help="ring cardinality as p^r[,p^r...] (ring kind)")
    p_bound.add_argument("--mode", choices=_RING_MODES, help="ring bound variant")
    p_bound.set_defaults(handler=_cmd_bound)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    emitter = Emitter(args.format, sys.stdout)
    try:
        return args.handler(args, emitter)
    except ValueError as exc:
        # the command line's own refusals and the library's
        _diag(f"error: {exc}")
        return EXIT_USAGE
    except RuntimeError as exc:
        from .oracle import BudgetExceeded  # loaded already: only a scan raises it

        if not isinstance(exc, BudgetExceeded):
            raise
        _diag(
            f"error: {exc} (budget {exc.budget}, required {exc.required}; "
            "set EIGENCOUNT_BUDGET or pass --force)"
        )
        return EXIT_BUDGET


def run() -> None:
    """The ``eigencount`` command: main(), then a flush of stdout and stderr
    and os._exit with its code, which skips interpreter teardown.  When
    stdout's reader has gone, the exit status is EXIT_BROKEN_PIPE."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    sys.stderr.flush()
    os._exit(code)
