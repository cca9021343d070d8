"""Command-line front end for the counting formulas, oracle, and bounds.

Subcommands: ``count`` (closed-form polynomials and evaluations),
``table`` (regenerate the reference table and diff it), ``verify``
(formula against exhaustive oracle), ``bound`` (integer-certified
inequalities).  Results go to stdout as text, one-JSON-object-per-line,
or CSV; diagnostics (scan timings, warnings) go to stderr so identical
invocations produce bit-identical stdout.  Only ``verify`` and the
oracle fallback of ``bound`` import the oracle, and with it numpy.

Exit codes: 0 success, 2 usage error, 3 table mismatch, 4 verification
mismatch, 5 enumeration budget exceeded, 6 bound violated.  The scan
budget defaults to 2^26 matrices and can be overridden with the
EIGENCOUNT_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import dataclass, field

from . import bounds, counting
from .reference import REFERENCE_BY_NK

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TABLE_MISMATCH = 3
EXIT_VERIFY_MISMATCH = 4
EXIT_BUDGET = 5
EXIT_BOUND_VIOLATED = 6


class UsageError(ValueError):
    """Invalid flag combination or parameter value; maps to exit code 2."""


_OPTIONAL_FIELDS = ("polynomial", "value", "verdict", "provenance")


@dataclass
class OutputRecord:
    command: str
    parameters: dict[str, str] = field(default_factory=dict)
    polynomial: str | None = None
    value: int | None = None
    verdict: str | None = None
    provenance: str | None = None

    def _set_fields(self) -> dict[str, str]:
        """The optional fields that are set, in output order."""
        values = {name: getattr(self, name) for name in _OPTIONAL_FIELDS}
        return {name: str(v) for name, v in values.items() if v is not None}

    def text_line(self) -> str:
        pairs = [*self.parameters.items(), *self._set_fields().items()]
        return " ".join([self.command, *(f"{k}={v}" for k, v in pairs)])

    def json_line(self) -> str:
        return json.dumps(
            {"command": self.command, "parameters": self.parameters, **self._set_fields()}
        )

    def csv_row(self) -> list[str]:
        params = " ".join(f"{k}={v}" for k, v in self.parameters.items())
        fields = self._set_fields()
        return [self.command, params, *(fields.get(name, "") for name in _OPTIONAL_FIELDS)]


class Emitter:
    _CSV_HEADER = ["command", "parameters", *_OPTIONAL_FIELDS]

    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        self._csv = None

    def emit(self, rec: OutputRecord):
        if self.fmt == "json":
            self.stream.write(rec.json_line() + "\n")
        elif self.fmt == "csv":
            if self._csv is None:
                self._csv = csv.writer(self.stream, lineterminator="\n")
                self._csv.writerow(self._CSV_HEADER)
            self._csv.writerow(rec.csv_row())
        else:
            self.stream.write(rec.text_line() + "\n")


def _diag(message: str):
    print(message, file=sys.stderr)


def _diag_scan(rep):
    _diag(
        f"scan {rep.spec} n={rep.n} p={rep.p}: {rep.scanned} matrices in "
        f"{rep.record()['millis']} ms"
    )


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"malformed {what} {text!r}; expected comma-separated integers") from exc


def _budget_from_env(default: int) -> int:
    raw = os.environ.get("EIGENCOUNT_BUDGET")
    if raw is None:
        return default
    try:
        budget = int(raw)
    except ValueError as exc:
        raise UsageError(f"EIGENCOUNT_BUDGET={raw!r} is not an integer") from exc
    if budget < 1:
        raise UsageError("EIGENCOUNT_BUDGET must be positive")
    return budget


def _spectrum_text(alphas) -> str:
    return ",".join(str(a) for a in alphas)


# ----------------------------------------------------------------------
# count


def _cmd_count(args, emitter: Emitter) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    have_concrete = args.p is not None or args.alphas is not None
    if have_concrete:
        if args.p is None or args.alphas is None:
            raise UsageError("--p and --alphas must be given together")
        if args.q is not None:
            raise UsageError("--q conflicts with --p/--alphas; pick one evaluation point")
        alphas = counting.validate_spectrum(args.p, _parse_int_list(args.alphas, "spectrum"))
        k = len(alphas)
        if args.k is not None and args.k != k:
            raise UsageError(f"--k {args.k} disagrees with {k} spectrum values")
        eval_at = args.p
    else:
        if args.k is None:
            raise UsageError("--k is required unless --alphas is given")
        k = args.k
        alphas = None
        eval_at = args.q
    if k < 1:
        raise UsageError("--k must be at least 1")
    if eval_at is not None and eval_at < 1:
        raise UsageError("evaluation point must be at least 1")

    poly = counting.count_m_poly(args.n, k) if args.mode == "m" else counting.count_e_poly(args.n, k)
    if args.mode == "e" and eval_at is not None and eval_at < k:
        _diag(
            f"warning: exact-spectrum count evaluated at q={eval_at} < k={k}; "
            "no field that small carries k distinct eigenvalues"
        )
    params = {"mode": args.mode, "n": str(args.n), "k": str(k)}
    if alphas is not None:
        params["p"] = str(args.p)
        params["spectrum"] = _spectrum_text(alphas)
    elif args.q is not None:
        params["q"] = str(args.q)
    rec = OutputRecord(
        command="count",
        parameters=params,
        polynomial=str(poly),
        value=poly(eval_at) if eval_at is not None else None,
        provenance="formula",
    )
    emitter.emit(rec)
    return EXIT_OK


# ----------------------------------------------------------------------
# table


def _cmd_table(args, emitter: Emitter) -> int:
    if not (3 <= args.n_max <= 8):
        raise UsageError("--n-max must be between 3 and 8")
    mismatches = 0
    for n, k, poly in counting.table_rows(args.n_max):
        text = str(poly)
        expected = REFERENCE_BY_NK.get((n, k))
        params = {"n": str(n), "k": str(k)}
        verdict = None
        if expected is not None:
            if text == expected:
                verdict = "match"
            else:
                verdict = "mismatch"
                params["expected"] = expected
                mismatches += 1
        rec = OutputRecord(
            command="table",
            parameters=params,
            polynomial=text,
            verdict=verdict,
            provenance="formula",
        )
        if verdict == "mismatch" and emitter.fmt == "text":
            emitter.stream.write("! " + rec.text_line() + "\n")
        else:
            emitter.emit(rec)
    if mismatches:
        _diag(f"{mismatches} table row(s) differ from the reference fixture")
        return EXIT_TABLE_MISMATCH
    return EXIT_OK


# ----------------------------------------------------------------------
# verify


def _verify_spectrum_records(n, fld, alphas, budget, force, jobs, emitter) -> bool:
    """Emit formula-vs-oracle records for one spectrum; True if all equal."""
    from . import oracle

    all_equal = True
    k = len(alphas)
    for mode in ("m", "e"):
        if mode == "m":
            poly = counting.count_m_poly(n, k)
            rep = oracle.count_m(n, fld, alphas, budget=budget, force=force, jobs=jobs)
        else:
            poly = counting.count_e_poly(n, k)
            rep = oracle.count_e(n, fld, alphas, budget=budget, force=force, jobs=jobs)
        formula_value = poly(fld.p)
        equal = formula_value == rep.count
        all_equal &= equal
        params = {
            "mode": mode,
            "n": str(n),
            "p": str(fld.p),
            "spectrum": _spectrum_text(alphas),
            "scanned": str(rep.scanned),
        }
        if not equal:
            params["formula"] = str(formula_value)
            params["oracle"] = str(rep.count)
        _diag_scan(rep)
        emitter.emit(
            OutputRecord(
                command="verify",
                parameters=params,
                polynomial=str(poly),
                value=rep.count,
                verdict="pass" if equal else "fail",
                provenance="both",
            )
        )
    return all_equal


def _cmd_verify(args, emitter: Emitter) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    from . import oracle

    fld = oracle.PrimeField(args.p)
    budget = _budget_from_env(oracle.DEFAULT_BUDGET)
    ok = True

    if args.potent is not None:
        k = args.potent
        if k < 1:
            raise UsageError("--potent k must be at least 1")
        rep = oracle.count_potent(
            args.n, fld, k, budget=budget, force=args.force, jobs=args.jobs
        )
        _diag_scan(rep)
        params = {
            "n": str(args.n),
            "p": str(fld.p),
            "k": str(k),
            "scanned": str(rep.scanned),
        }
        try:
            formula_value = counting.potent_count(args.n, fld.p, k)
        except counting.UnsupportedField as exc:
            _diag(f"note: {exc}")
            emitter.emit(
                OutputRecord(
                    command="verify",
                    parameters=params,
                    value=rep.count,
                    verdict="oracle-only",
                    provenance="oracle",
                )
            )
            return EXIT_OK
        equal = formula_value == rep.count
        if not equal:
            params["formula"] = str(formula_value)
            params["oracle"] = str(rep.count)
        emitter.emit(
            OutputRecord(
                command="verify",
                parameters=params,
                polynomial=str(counting.count_m_poly(args.n, k + 1)),
                value=rep.count,
                verdict="pass" if equal else "fail",
                provenance="both",
            )
        )
        return EXIT_OK if equal else EXIT_VERIFY_MISMATCH

    if args.spectrum is not None:
        alphas = counting.validate_spectrum(fld.p, _parse_int_list(args.spectrum, "spectrum"))
        ok = _verify_spectrum_records(
            args.n, fld, alphas, budget, args.force, args.jobs, emitter
        )
        return EXIT_OK if ok else EXIT_VERIFY_MISMATCH

    # all nonempty subsets of F_p; sizes beyond n+1 add no new information
    max_size = min(args.n + 1, fld.p)
    for size in range(1, max_size + 1):
        for alphas in itertools.combinations(range(fld.p), size):
            ok &= _verify_spectrum_records(
                args.n, fld, alphas, budget, args.force, args.jobs, emitter
            )
    return EXIT_OK if ok else EXIT_VERIFY_MISMATCH


# ----------------------------------------------------------------------
# bound


def _cmd_bound(args, emitter: Emitter) -> int:
    if args.k < 1:
        raise UsageError("--k must be at least 1")
    if args.count is not None and args.count < 0:
        raise UsageError("--count must be nonnegative")

    if args.kind == "matrix":
        if args.n is None or args.p is None:
            raise UsageError("matrix bounds need --n and --p")
        if not counting.is_prime(args.p):
            raise UsageError(f"{args.p} is not prime")
        params = {
            "kind": "matrix",
            "n": str(args.n),
            "p": str(args.p),
            "k": str(args.k),
        }
        provenance = None
        if args.count is not None:
            count = args.count
            params["source"] = "explicit"
        else:
            try:
                count = counting.potent_count(args.n, args.p, args.k)
                provenance = "formula"
            except counting.UnsupportedField as exc:
                _diag(f"note: {exc}")
                from . import oracle

                fld = oracle.PrimeField(args.p)
                budget = _budget_from_env(oracle.DEFAULT_BUDGET)
                rep = oracle.count_potent(args.n, fld, args.k, budget=budget)
                count = rep.count
                provenance = "oracle"
            params["source"] = "computed"
        verdict = bounds.bound_matrix_ring(args.n, args.p, args.k, count)
    else:
        if args.factors is None:
            raise UsageError("ring bounds need --factors")
        if args.count is None:
            raise UsageError("ring bounds need an explicit --count")
        ring = bounds.RingSpec.parse(args.factors)
        mode = args.mode
        if mode is None:
            mode = "theorem2" if ring.num_primes == 1 else "theorem3"
        count = args.count
        provenance = None
        params = {
            "kind": "ring",
            "factors": str(ring),
            "cardinality": str(ring.cardinality),
            "k": str(args.k),
            "mode": mode,
            "source": "explicit",
        }
        verdict = bounds.bound_finite_ring(ring, args.k, count, mode)

    params["lhs"] = str(verdict.lhs_certificate)
    params["rhs"] = str(verdict.rhs_certificate)
    emitter.emit(
        OutputRecord(
            command="bound",
            parameters=params,
            value=count,
            verdict="holds" if verdict.holds else "violated",
            provenance=provenance,
        )
    )
    return EXIT_OK if verdict.holds else EXIT_BOUND_VIOLATED


# ----------------------------------------------------------------------
# parser plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigencount",
        description="Exact counts of diagonalizable matrices over finite fields, "
        "with brute-force verification and potent-count bounds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format for stdout records",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_count = sub.add_parser("count", parents=[common], help="closed-form counts")
    p_count.add_argument("--mode", choices=("m", "e"), required=True)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--k", type=int)
    p_count.add_argument("--q", type=int, help="evaluate the polynomial at this field size")
    p_count.add_argument("--p", type=int, help="prime modulus for a concrete spectrum")
    p_count.add_argument("--alphas", help="comma-separated distinct residues mod p")
    p_count.set_defaults(handler=_cmd_count)

    p_table = sub.add_parser("table", parents=[common], help="regenerate the reference table")
    p_table.add_argument("--n-max", type=int, default=6)
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", parents=[common], help="formula vs oracle")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--p", type=int, required=True)
    scope = p_verify.add_mutually_exclusive_group(required=True)
    scope.add_argument("--all-subsets", action="store_true")
    scope.add_argument("--spectrum", help="comma-separated distinct residues mod p")
    scope.add_argument("--potent", type=int, metavar="K", help="verify A^(K+1)=A counts")
    p_verify.add_argument("--force", action="store_true", help="ignore the scan budget")
    p_verify.add_argument("--jobs", type=int, default=1, help="parallel scan workers")
    p_verify.set_defaults(handler=_cmd_verify)

    p_bound = sub.add_parser("bound", parents=[common], help="certify an upper bound")
    p_bound.add_argument("--kind", choices=("matrix", "ring"), required=True)
    p_bound.add_argument("--n", type=int, help="matrix dimension (matrix kind)")
    p_bound.add_argument("--p", type=int, help="field prime (matrix kind)")
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--count", type=int, help="potent count; computed if omitted (matrix kind)")
    p_bound.add_argument("--factors", help="ring cardinality as p^r[,p^r...] (ring kind)")
    p_bound.add_argument("--mode", choices=bounds.RING_MODES, help="ring bound variant")
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
        # UsageError, and the library's refusals of out-of-range parameters
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
    raise SystemExit(main())
