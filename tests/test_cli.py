"""Command-line contract: outputs, exit codes, formats, determinism."""

import argparse
import ast
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import python_env, run_capped, run_python
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencount import bounds, cli, counting, oracle, reference


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_primality_test(capsys, argv, p):
    """argv runs without a failed verdict and runs Miller-Rabin once, on p:
    is_prime's cache misses once, and p is then in it."""
    counting.is_prime.cache_clear()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "verdict=fail" not in out
    assert counting.is_prime.cache_info().misses == 1
    assert counting.is_prime(p) and counting.is_prime.cache_info().misses == 1


def budget_refusal(required, budget=oracle.DEFAULT_BUDGET):
    """The error line of a verify refused over budget."""
    return (
        f"error: scanning needs {required} matrices but the budget is {budget}; raise the budget "
        f"or force the scan (budget {budget}, required {required}; set EIGENCOUNT_BUDGET or "
        "pass --force)\n"
    )


def subset_scans(n, p):
    """The M and E scans the budget counts for verify --all-subsets: two per
    nonempty subset of F_p with at most n+1 elements."""
    return 2 * sum(math.comb(p, size) for size in range(1, min(n + 1, p) + 1))


def weak_sum_n3(k, q):
    """M(3, k) at q by definition: class sizes U_3 / prod U_{n_i} over the
    weak compositions of 3 into k parts, grouped by their nonzero parts
    (3), (2, 1) and (1, 1, 1)."""
    def gl(n):
        return math.prod(q**n - q**i for i in range(n))

    return k + k * (k - 1) * (gl(3) // (gl(2) * gl(1))) + math.comb(k, 3) * (gl(3) // gl(1) ** 3)


class TestCount:
    def test_e_polynomial_only(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--mode", "e", "--n", "3", "--k", "2")
        assert code == 0
        assert "polynomial=2q^4+2q^3+2q^2" in out
        assert "value=" not in out

    def test_m_with_evaluation(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--mode", "m", "--n", "2", "--k", "2", "--q", "2"
        )
        assert code == 0
        assert "polynomial=q^2+q+2" in out
        assert "value=8" in out

    def test_e_impossible_spectrum_size(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--mode", "e", "--n", "2", "--k", "3")
        assert code == 0
        assert "polynomial=0" in out

    def test_concrete_spectrum_sets_k_and_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--mode", "m", "--n", "2", "--p", "5", "--alphas", "0,3"
        )
        assert code == 0
        assert "value=32" in out
        assert "spectrum=0,3" in out

    def test_small_field_warning_for_e_mode(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--mode", "e", "--n", "3", "--k", "3", "--q", "2"
        )
        assert code == 0
        assert "warning" in err
        assert "value=" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--mode", "m", "--n", "2", "--k", "0"),
            ("count", "--mode", "m", "--n", "0", "--k", "1"),
            ("count", "--mode", "m", "--n", "2"),
            ("count", "--mode", "m", "--n", "2", "--p", "6", "--alphas", "0,1"),
            ("count", "--mode", "m", "--n", "2", "--p", "5", "--alphas", "1,1"),
            ("count", "--mode", "m", "--n", "2", "--p", "5", "--alphas", "0,7"),
            ("count", "--mode", "m", "--n", "2", "--k", "3", "--p", "5", "--alphas", "0,1"),
            ("count", "--mode", "m", "--n", "2", "--k", "2", "--q", "2", "--p", "5", "--alphas", "0,1"),
            ("count", "--mode", "x", "--n", "2", "--k", "2"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2

    def test_q_not_a_prime_power_warns(self, capsys):
        code, out, err = run_cli(capsys, "count", "--mode", "m", "--n", "2", "--k", "2", "--q", "6")
        assert code == 0
        assert out == "count mode=m n=2 k=2 q=6 polynomial=q^2+q+2 value=44 provenance=formula\n"
        assert len(err.splitlines()) == 1 and "q=6 is not a prime power" in err
        code, _, err = run_cli(capsys, "count", "--mode", "m", "--n", "2", "--k", "2", "--q", "4")
        assert code == 0 and err == ""

    def test_large_prime_accepted_at_once(self):
        # 10^18 + 3 is prime; trial division up to its square root takes minutes
        proc = run_python(
            "import sys; from eigencount import cli; sys.exit(cli.main(["
            "'count', '--mode', 'm', '--n', '1', '--p', '1000000000000000003', '--alphas', '0']))",
            timeout=20,
        )
        assert proc.returncode == 0
        assert proc.stdout == (
            "count mode=m n=1 k=1 p=1000000000000000003 spectrum=0 "
            "polynomial=1 value=1 provenance=formula\n"
        )
        assert proc.stderr == ""

    @pytest.mark.parametrize("shape", [("40", "10"), ("41", "2"), ("20", "20")])
    def test_size_limit_refused_before_building(self, shape):
        proc = run_capped(f"cli.main(['count', '--mode', 'm', '--n', {shape[0]!r}, '--k', {shape[1]!r}])")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and "size limit min(n,k)*n^3" in proc.stderr
        assert f"n={shape[0]} with {shape[1]} prescribed eigenvalues" in proc.stderr

    def test_large_k_answered_under_memory_cap(self):
        # the cost of an M-count does not grow with k, so these answer at once
        proc = run_capped("cli.main(['count', '--mode', 'm', '--n', '1', '--k', '1000000000'])")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "count mode=m n=1 k=1000000000 polynomial=1000000000 provenance=formula\n"
        big = 10**18
        proc = run_capped(
            f"cli.main(['count', '--mode', 'm', '--n', '3', '--k', '{big}', '--q', '7'])"
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.endswith(f" value={weak_sum_n3(big, 7)} provenance=formula\n")
        # A^(k+1) = A with k = p - 1 over a prime p above 10^18: M(3, p) at q = p
        p = big + 3
        proc = run_capped(f"print(counting.potent_count(3, {p}, {p - 1}))")
        assert proc.returncode == 0 and proc.stderr == ""
        assert int(proc.stdout) == weak_sum_n3(p, p)
        # k = 10^18 does not divide p - 1: the semisimple solutions may also
        # carry an irreducible quadratic or cubic factor of x^k - 1
        proc = run_capped(f"print(counting.potent_count(3, {p}, {big}))")
        assert proc.returncode == 0 and proc.stderr == ""
        linear = 1 + math.gcd(big, p - 1)  # 0 and the k-th roots of unity in F_p
        quadratic = (math.gcd(big, p**2 - 1) - linear + 1) // 2
        cubic = (math.gcd(big, p**3 - 1) - linear + 1) // 3
        gl3 = math.prod(p**3 - p**i for i in range(3))
        assert int(proc.stdout) == (
            weak_sum_n3(linear, p)
            + quadratic * linear * gl3 // ((p**2 - 1) * (p - 1))
            + cubic * gl3 // (p**3 - 1)
        )

    def test_record_too_long_to_print_refused_in_own_words(self):
        # C(k, 2) of a 4299-digit k passes Python's int-to-str digit limit
        k = "9" * 4299
        proc = run_python(
            f"import sys; from eigencount import cli; sys.exit(cli.main(['count', '--mode', 'm', "
            f"'--n', '19', '--k', '{k}']))",
            timeout=30,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: the record is too long to print")
        assert "digits" in proc.stderr and "sys." not in proc.stderr


class TestTable:
    def test_reference_range_all_match(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 14
        assert all("verdict=match" in line for line in lines)

    def test_minimum_range(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_specific_row_text(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--n-max", "4")
        assert "n=4 k=3 polynomial=3q^10+6q^9+9q^8+9q^7+6q^6+3q^5" in out

    def test_rows_beyond_reference_have_no_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "7")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 20
        assert sum("verdict" not in row for row in rows) == 6

    @pytest.mark.parametrize("bad", ["2", "9"])
    def test_range_validation(self, capsys, bad):
        code, _, _ = run_cli(capsys, "table", "--n-max", bad)
        assert code == 2

    def test_mismatch_marked_and_exit_3(self, capsys, monkeypatch):
        monkeypatch.setitem(reference.REFERENCE_BY_NK, (3, 2), "2q^4+2q^3+2q^2+1")
        code, out, err = run_cli(capsys, "table", "--n-max", "3")
        assert code == 3
        assert out.startswith("! ")
        assert "verdict=mismatch" in out
        assert "expected=2q^4+2q^3+2q^2+1" in out
        assert "differ" in err


class TestVerify:
    def test_all_subsets_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--p", "3", "--all-subsets")
        assert code == 0
        lines = out.strip().splitlines()
        # 7 nonempty subsets, one m record and one e record each
        assert len(lines) == 14
        assert all("verdict=pass" in line for line in lines)
        assert all("provenance=both" in line for line in lines)

    def test_single_spectrum(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--p", "5", "--spectrum", "1,4"
        )
        assert code == 0
        assert "mode=e" in out and "mode=m" in out

    def test_potent_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--p", "7", "--potent", "3")
        assert code == 0
        assert "value=340" in out
        assert "verdict=pass" in out

    def test_potent_non_split_passes_without_polynomial(self, capsys):
        # x^3 - x = x (x - 1)^2 over F_2: the count is no M-polynomial in q,
        # and formula and scan still agree
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--p", "2", "--potent", "2")
        assert code == 0
        assert out == "verify n=2 p=2 k=2 scanned=16 value=11 verdict=pass provenance=both\n"
        assert err.startswith("scan ") and len(err.splitlines()) == 1

    def test_potent_scan_cost_does_not_grow_with_digits_of_k(self):
        # the scan reduces k by a period of the n-by-n matrix powers, so a
        # 4001-digit k costs about what a small one does; powering to the
        # full k would not finish before the child's time cap
        k = 10**4000 + 7
        proc = run_capped(f"cli.main(['verify', '--n', '3', '--p', '5', '--potent', str({k})])")
        assert proc.returncode == 0, proc.stderr
        value = counting.potent_count(3, 5, k)
        assert proc.stdout == (
            f"verify n=3 p=5 k={k} scanned=1953125 value={value} verdict=pass provenance=both\n"
        )

    def test_scan_timing_goes_to_stderr(self, capsys):
        _, out, err = run_cli(capsys, "verify", "--n", "2", "--p", "2", "--all-subsets")
        assert "millis" not in out and "ms" not in out
        assert "matrices" in err

    @staticmethod
    def skew_spectrum(monkeypatch, which):
        """Make oracle.count_spectra report one too many matrices in the M
        (which=0) or E (which=1) count of every spectrum."""
        real = oracle.count_spectra

        def skewed(*args, **kwargs):
            pairs = real(*args, **kwargs)
            for pair in pairs:
                pair[which].count += 1
            return pairs

        monkeypatch.setattr(oracle, "count_spectra", skewed)

    def test_mismatch_exits_4(self, capsys, monkeypatch):
        self.skew_spectrum(monkeypatch, 0)
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--p", "2", "--spectrum", "0,1"
        )
        assert code == 4
        m, e = out.splitlines()
        assert "mode=m" in m and "verdict=fail" in m
        assert "formula=8" in m and "oracle=9" in m
        assert "mode=e" in e and "verdict=pass" in e

    def test_exact_spectrum_mismatch_exits_4(self, capsys, monkeypatch):
        self.skew_spectrum(monkeypatch, 1)
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--p", "2", "--spectrum", "0,1"
        )
        assert code == 4
        m, e = out.splitlines()
        assert "mode=m" in m and "verdict=pass" in m
        assert "mode=e" in e and "verdict=fail" in e
        assert "formula=6" in e and "oracle=7" in e

    @pytest.mark.parametrize("scope", [("--n", "1", "--p", "31", "--all-subsets"),
                                       ("--n", "2", "--p", "5", "--spectrum", "0,1")])
    def test_p_tested_for_primality_once(self, capsys, scope):
        # the PrimeField tests p; the 496 spectra of (1, 31), like the
        # 33,153 of (1, 257), find it in is_prime's cache
        assert_one_primality_test(capsys, ("verify", *scope), int(scope[3]))

    def test_one_fork_per_command(self, capsys, monkeypatch, forks):
        # chunks of 81 matrices, 9 int8 entries each, give every scan
        # enough work for two processes: the caller and one forked worker
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", 81 * 9)
        argv = ("verify", "--n", "3", "--p", "3")
        code, out, _ = run_cli(capsys, *argv, "--spectrum", "0,1", "--jobs", "2")
        assert code == 0 and out.count("verdict=pass") == 2
        assert len(forks) == 1
        code, out, _ = run_cli(capsys, *argv, "--all-subsets", "--jobs", "2")
        # 3 + 3 + 1 spectra, an M and an E record each, from one scan
        assert code == 0 and out.count("verdict=pass") == 14
        assert len(forks) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "scope, what",
        [(("--spectrum", "0,1"), "spectra=1"), (("--all-subsets",), "spectra=7"),
         (("--potent", "2"), "potent:k=2")],
    )
    def test_one_scan_line_per_command(self, capsys, scope, what, jobs):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--p", "3", *scope, "--jobs", jobs)
        assert code == 0 and "verdict=pass" in out
        [line] = err.splitlines()
        assert re.fullmatch(rf"scan {re.escape(what)} n=2 p=3: 81 matrices in \d+ ms", line), line

    def test_forked_workers_write_none_of_the_callers_output(self):
        # stdout is a pipe, so the line printed before the scan is still in
        # the buffer each worker inherits: a worker must leave without
        # flushing it.  A real fork loads no process-pool module.
        code = (
            "import sys\n"
            "from eigencount import cli, oracle\n"
            "oracle.os.cpu_count = lambda: 2\n"
            "forks, real_fork = [], oracle.os.fork\n"
            "def fork():\n"
            "    pid = real_fork()\n"
            "    forks.extend([pid] if pid else [])\n"
            "    return pid\n"
            "oracle.os.fork = fork\n"
            "print('before the scan')\n"
            "code = cli.main(['verify', '--n', '2', '--p', '17', '--spectrum', '0,1', '--jobs', JOBS])\n"
            "pools = {'concurrent.futures', 'multiprocessing'} & sys.modules.keys()\n"
            "print(len(forks), sorted(pools), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        outs = []
        for jobs in (1, 2):
            # 17^4 matrices fill 2 chunks: --jobs 2 forks one worker
            proc = run_python(code.replace("JOBS", repr(str(jobs))))
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.count("before the scan") == 1
            assert proc.stderr.splitlines()[-1] == f"{jobs - 1} []"
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_budget_exceeded_exits_5(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENCOUNT_BUDGET", "10")
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--p", "3", "--all-subsets")
        assert code == 5
        assert "budget" in err

    # 14 scans (--all-subsets) or 2 (--spectrum) of 81 matrices each: one
    # fits a budget of 100, all of an invocation's scans do not
    @pytest.mark.parametrize(
        "scope, required", [(("--all-subsets",), 1134), (("--spectrum", "0"), 162)]
    )
    def test_budget_covers_every_scan_of_an_invocation(
        self, capsys, monkeypatch, scope, required
    ):
        monkeypatch.setenv("EIGENCOUNT_BUDGET", "100")
        monkeypatch.setattr(oracle, "_chunks", lambda *a: pytest.fail("a scan started"))
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--p", "3", *scope)
        assert code == 5
        assert out == ""
        assert len(err.splitlines()) == 1 and f"required {required}" in err

    def test_jobs_refused_before_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENCOUNT_BUDGET", "10")
        code, out, err = run_cli(
            capsys, "verify", "--n", "2", "--p", "3", "--spectrum", "0", "--jobs", "0"
        )
        assert code == 2
        assert out == ""
        assert err == "error: jobs must be at least 1\n"

    def test_force_overrides_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENCOUNT_BUDGET", "10")
        code, _, _ = run_cli(
            capsys, "verify", "--n", "2", "--p", "2", "--spectrum", "0", "--force"
        )
        assert code == 0

    def test_bad_budget_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENCOUNT_BUDGET", "lots")
        code, _, _ = run_cli(capsys, "verify", "--n", "2", "--p", "2", "--all-subsets")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--n", "2", "--p", "4", "--all-subsets"),
            ("verify", "--n", "2", "--p", "3", "--spectrum", "1,1"),
            ("verify", "--n", "2", "--p", "3", "--potent", "0"),
            ("verify", "--n", "2", "--p", "3"),
            ("verify", "--n", "2", "--p", "3", "--spectrum", "0", "--jobs", "0"),
            ("verify", "--n", "2", "--p", "3", "--spectrum", "0", "--jobs", "-3"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, env, code, err",
        [
            # listing the C(257, 4) ~ 1.8e8 subsets first would pass the cap
            (("--n", "3", "--p", "257", "--all-subsets"), None, 2,
             "error: 257^9 matrices overflow the int64 scan index\n"),
            # one scan over budget: the subsets are counted, not listed
            (("--n", "3", "--p", "101", "--all-subsets"), None, 5,
             budget_refusal(subset_scans(3, 101) * 101**9)),
            (("--n", "2", "--p", "257", "--all-subsets"), None, 5,
             budget_refusal(subset_scans(2, 257) * 257**4)),
            # one scan fits, the 117,569 spectra's do not
            (("--n", "2", "--p", "89", "--all-subsets"), None, 5,
             budget_refusal(subset_scans(2, 89) * 89**4)),
            (("--n", "3", "--p", "7", "--spectrum", "0,1"), None, 5, budget_refusal(2 * 7**9)),
            # the command line checks --spectrum before the oracle's budget
            (("--n", "4", "--p", "7", "--spectrum", "0,0"), None, 2,
             "error: spectrum entries must be pairwise distinct\n"),
            (("--n", "2", "--p", "3", "--spectrum", "0,1"), {"EIGENCOUNT_BUDGET": "161"}, 5,
             budget_refusal(162, 161)),
            (("--n", "2", "--p", "3", "--spectrum", "0,1"), {"EIGENCOUNT_BUDGET": "162"}, 0, None),
        ],
    )
    def test_refusals_come_before_the_spectra_are_listed(self, argv, env, code, err):
        proc = run_capped(f"cli.main(['verify', *{argv!r}])", env=env)
        assert proc.returncode == code, proc.stderr
        if err is None:
            assert proc.stdout.count("verdict=pass") == 2
            assert proc.stderr.startswith("scan spectra=1 n=2 p=3: 81 matrices in ")
        else:
            assert (proc.stdout, proc.stderr) == ("", err)

    @pytest.mark.parametrize("scope", [("--potent", "1"), ("--spectrum", "0"), ("--all-subsets",)])
    def test_huge_dimension_refused_at_once(self, scope):
        # n*n >= 63 overflows the index for every p: refused before
        # 2^(n*n), the period of the n-by-n powers or any subset is formed
        proc = run_capped(f"cli.main(['verify', '--n', '100000', '--p', '2', *{scope!r}])")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: 2^10000000000 matrices overflow the int64 scan index\n"

    def test_int64_overflowing_shape_refused_even_forced(self):
        # 257^9 matrices: a scan would run for ever and overflow the index
        proc = run_python(
            "import sys; from eigencount import cli; sys.exit(cli.main(["
            "'verify', '--n', '3', '--p', '257', '--spectrum', '0', '--force']))"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and "int64" in proc.stderr


class TestBound:
    def test_matrix_tight_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--kind", "matrix", "--n", "1", "--p", "3", "--k", "1",
            "--count", "2",
        )
        assert code == 0
        assert "lhs=36" in out and "rhs=36" in out
        assert "verdict=holds" in out

    def test_matrix_computed_count_formula(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--kind", "matrix", "--n", "2", "--p", "7", "--k", "3"
        )
        assert code == 0
        assert "value=340" in out
        assert "source=computed" in out
        assert "provenance=formula" in out

    def test_matrix_computed_count_tests_p_once(self, capsys):
        # the count's check and the ring's both test p; the second finds it
        # in is_prime's cache
        argv = ("bound", "--kind", "matrix", "--n", "2", "--p", "7", "--k", "3")
        assert_one_primality_test(capsys, argv, 7)

    def test_matrix_computed_count_non_split(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--kind", "matrix", "--n", "2", "--p", "2", "--k", "2"
        )
        assert code == 0
        assert "value=11" in out
        assert "provenance=formula" in out
        assert err == ""

    def test_matrix_computed_count_never_scans(self, capsys, monkeypatch):
        # neither the scan budget nor the scan itself takes part
        monkeypatch.setenv("EIGENCOUNT_BUDGET", "10")
        monkeypatch.setattr(oracle, "_chunks", lambda *a: pytest.fail("a scan started"))
        code, out, err = run_cli(
            capsys, "bound", "--kind", "matrix", "--n", "2", "--p", "2", "--k", "2"
        )
        assert code == 0 and err == ""
        assert "value=11" in out

    @pytest.mark.parametrize(
        "n, p, k", [(2, 263, 5), (3, 101, 3), (4, 3, 3), (10, 2, 6), (12, 5, 3)]
    )
    def test_matrix_computed_count_past_the_oracle(self, capsys, n, p, k):
        # a field past the scan's 257, shapes past its budget, and large n
        code, out, err = run_cli(
            capsys, "bound", "--kind", "matrix", "--n", str(n), "--p", str(p), "--k", str(k)
        )
        assert code == 0 and err == ""
        assert f" value={counting.potent_count(n, p, k)} " in out
        assert "verdict=holds provenance=formula" in out

    def test_ring_single_prime(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--kind", "ring", "--factors", "2^4", "--k", "1",
            "--count", "8",
        )
        assert code == 0
        assert "mode=theorem2" in out
        assert "verdict=holds" in out

    def test_ring_multi_prime_default_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--kind", "ring", "--factors", "2^1,3^1", "--k", "1",
            "--count", "4",
        )
        assert code == 0
        assert "mode=theorem3" in out
        assert "lhs=576" in out and "rhs=576" in out

    def test_violated_exits_6(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--kind", "matrix", "--n", "1", "--p", "2", "--k", "1",
            "--count", "100",
        )
        assert code == 6
        assert "verdict=violated" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--kind", "matrix", "--k", "1", "--count", "2"),
            ("bound", "--kind", "matrix", "--n", "1", "--p", "4", "--k", "1", "--count", "2"),
            ("bound", "--kind", "ring", "--k", "1", "--count", "4"),
            ("bound", "--kind", "ring", "--factors", "2^1,3^1", "--k", "1"),
            ("bound", "--kind", "ring", "--factors", "2^1,3^1", "--k", "1", "--count", "4", "--mode", "theorem2"),
            ("bound", "--kind", "ring", "--factors", "junk", "--k", "1", "--count", "4"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, stray",
        [
            (("matrix", "--n", "2", "--p", "3", "--k", "1", "--mode", "corollary"), "--mode"),
            (("matrix", "--n", "2", "--p", "3", "--k", "1", "--factors", "2^4"), "--factors"),
            (("matrix", "--n", "2", "--p", "3", "--k", "1", "--count", "5", "--mode", "theorem2"),
             "--mode"),
            (("ring", "--factors", "2^4", "--k", "1", "--count", "3", "--n", "5", "--p", "7"), "--n"),
            (("ring", "--factors", "2^4", "--k", "1", "--count", "3", "--n", "5"), "--n"),
            (("ring", "--factors", "2^4", "--k", "1", "--count", "3", "--p", "7"), "--p"),
        ],
    )
    def test_flags_of_the_other_kind_refused(self, capsys, argv, stray):
        # a flag that does not apply to --kind is refused, not ignored,
        # as count refuses --q together with --p
        code, out, err = run_cli(capsys, "bound", "--kind", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and stray in err and "bounds only" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("matrix", "--n", "3", "--p", "3", "--k", "10000000", "--count", "5"),
            ("ring", "--factors", "2^1000000000000", "--k", "1", "--count", "1"),
            ("matrix", "--n", "100000", "--p", "3", "--k", "1", "--count", "1"),
            ("matrix", "--n", "3", "--p", "1000000000000000003", "--k", "1000000000000000002"),
        ],
    )
    def test_oversized_certificates_refused_before_any_power(self, argv):
        proc = run_capped(f"cli.main(['bound', '--kind', *{argv!r}])")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and "size limit" in proc.stderr

    @pytest.mark.parametrize(
        "n, p, k, refusal",
        [
            ("19", str(2**3217 - 1), str(2**3217 - 2), "the certificates would take about"),
            # the count's own refusals still come first
            ("19", str(10**300), "2", f"{10**300} is not prime"),
            ("0", "3", "1000000", "n and k must be positive"),
        ],
    )
    def test_oversized_certificates_refused_before_the_count(self, capsys, monkeypatch, n, p, k, refusal):
        # |R|^(2k) alone is past the size limit, whatever the count
        def no_count(*args):
            raise ValueError("the count was computed")

        monkeypatch.setattr(counting, "potent_count", no_count)
        code, out, err = run_cli(capsys, "bound", "--kind", "matrix", "--n", n, "--p", p, "--k", k)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {refusal}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("shape", [("25", "29", "7"), ("19", "2", "32")])
    def test_certificate_past_digit_limit_is_one_line_exit_2(self, capsys, shape, fmt):
        # the certificates have more digits than Python converts to text
        n, p, k = shape
        code, out, err = run_cli(
            capsys, "bound", "--kind", "matrix", "--n", n, "--p", p, "--k", k, "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: the record is too long to print: a number in it has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ]

    @pytest.mark.parametrize("count", [("--count", "1"), ()])
    def test_library_refusal_is_one_line_exit_2(self, capsys, count):
        # bounds.bound_matrix_ring / potent_count raise ValueError for n=0
        code, out, err = run_cli(
            capsys, "bound", "--kind", "matrix", "--n", "0", "--p", "3", "--k", "1", *count
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestFormats:
    def test_json_lines_parse_and_keep_exact_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--mode", "m", "--n", "2", "--k", "2", "--q", "2",
            "--format", "json",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 1
        rec = records[0]
        assert rec["value"] == "8"
        assert rec["polynomial"] == "q^2+q+2"
        assert rec["parameters"]["n"] == "2"

    def test_json_big_value_no_scientific_notation(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--mode", "e", "--n", "6", "--k", "6", "--q", "1000003",
            "--format", "json",
        )
        assert code == 0
        value = json.loads(out)["value"]
        assert value.isdigit()
        assert "e" not in value and "." not in value

    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["command", "parameters", "polynomial", "value", "verdict", "provenance"]
        assert len(rows) == 3
        assert rows[1][2] == "2q^4+2q^3+2q^2"

    def test_identical_invocations_identical_bytes(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "verify", "--n", "2", "--p", "3", "--all-subsets",
                "--format", "json",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


    def test_record_bytes_pinned(self):
        full = (
            "verify",
            {"mode": "m", "n": "2", "spectrum": "0,1"},
            {"polynomial": "q^2+q+2", "value": 8, "verdict": "pass", "provenance": "both"},
        )
        bare = ("table", {"n": "3", "k": "2"}, {})
        expected = {
            "text": (
                "verify mode=m n=2 spectrum=0,1 polynomial=q^2+q+2 value=8 verdict=pass "
                "provenance=both\n"
                "table n=3 k=2\n"
            ),
            "json": (
                '{"command": "verify", "parameters": {"mode": "m", "n": "2", "spectrum": "0,1"}, '
                '"polynomial": "q^2+q+2", "value": "8", "verdict": "pass", "provenance": "both"}\n'
                '{"command": "table", "parameters": {"n": "3", "k": "2"}}\n'
            ),
            "csv": (
                "command,parameters,polynomial,value,verdict,provenance\n"
                'verify,"mode=m n=2 spectrum=0,1",q^2+q+2,8,pass,both\n'
                "table,n=3 k=2,,,,\n"
            ),
        }
        for fmt, text in expected.items():
            stream = io.StringIO()
            emitter = cli.Emitter(fmt, stream)
            for command, params, fields in (full, bare):
                emitter.emit(command, params, **fields)
            assert stream.getvalue() == text, fmt


def private_reads(source):
    """The underscore-prefixed names of eigencount modules that source
    reads, as module.name: names imported from such a module, and
    attributes of a name bound to one.  Dunder names are left out."""
    modules, reads = {}, set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = ".".join(filter(None, ["eigencount" if node.level else "", node.module]))
        for alias in node.names:
            if module == "eigencount":
                modules[alias.asname or alias.name] = alias.name
            elif module.startswith("eigencount.") and alias.name.startswith("_"):
                reads.add(f"{module.removeprefix('eigencount.')}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and node.attr.startswith("_")
            and not node.attr.endswith("__")
        ):
            reads.add(f"{modules[node.value.id]}.{node.attr}")
    return reads


class TestParserPlumbing:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["table", "--bogus"]) == 2

    @pytest.mark.parametrize(
        "argv", [("table", "--n", "3"), ("verify", "--n", "2", "--p", "3", "--spec", "0,1")], ids=["n", "spec"]
    )
    def test_prefix_of_a_flag_is_usage_error(self, capsys, argv):
        # not taken for --n-max or --spectrum, of which it is a prefix
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:], err

    def test_each_command_loads_only_what_it_uses(self):
        # typing and re are left out: a site hook may load them first
        proc = run_python(
            "import io, sys\n"
            "from eigencount import cli\n"
            "heavy = {'numpy', 'eigencount.oracle', 'eigencount.bounds', 'dataclasses',\n"
            "         'inspect', 'concurrent.futures', 'multiprocessing'}\n"
            "sys.stdout = io.StringIO()\n"
            "assert cli.main(['count', '--mode', 'm', '--n', '3', '--k', '2', '--q', '5']) == 0\n"
            "assert cli.main(['table', '--n-max', '4']) == 0\n"
            "loaded = sorted(heavy & sys.modules.keys())\n"
            "before = set(sys.modules)\n"
            "assert cli.main(['bound', '--kind', 'matrix', '--n', '4', '--p', '5', '--k', '2']) == 0\n"
            "bound = sorted(set(sys.modules) - before)\n"
            "assert cli.main(['verify', '--n', '2', '--p', '3', '--spectrum', '0,1']) == 0\n"
            "sys.stdout = sys.__stdout__\n"
            "print(loaded, bound, 'dataclasses' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        # verify loads numpy and the oracle, but its reports need no dataclasses
        assert proc.stdout == "[] ['eigencount.bounds'] False\n"

    def test_ring_modes_are_the_bounds_own(self):
        assert cli._RING_MODES == bounds.RING_MODES

    def test_cli_reads_no_private_name_of_the_library(self):
        # the command line goes through each module's public names only
        assert private_reads(Path(cli.__file__).read_text()) == set()
        reach = (
            "from . import oracle\n"
            "from eigencount import qpoly as q\n"
            "from .counting import _unpack, is_prime\n"
            "def f():\n"
            "    return oracle._scan_size(1, 2, 3), oracle.count_potent, q._x, q.__name__\n"
        )
        assert private_reads(reach) == {"oracle._scan_size", "qpoly._x", "counting._unpack"}

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (["count", "--mode", "m", "--n", "2", "--k", "2"], 0,
             "count mode=m n=2 k=2 polynomial=q^2+q+2 provenance=formula\n", ""),
            (["count", "--mode", "m", "--n", "2"], 2,
             "", "error: --k is required unless --alphas is given\n"),
            (["table", "--n-max", "3", "--format", "csv"], 0,
             "command,parameters,polynomial,value,verdict,provenance\n"
             "table,n=3 k=2,2q^4+2q^3+2q^2,,match,formula\n"
             "table,n=3 k=3,q^6+2q^5+2q^4+q^3,,match,formula\n", ""),
        ],
    )
    def test_command_flushes_before_it_exits(self, argv, code, out, err):
        # run() ends the process by os._exit, after flushing both streams
        proc = subprocess.run(
            [sys.executable, "-m", "eigencount", *argv], env=python_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    def test_closed_stdout_exits_141_without_traceback(self):
        # the pipe's reader is gone before the command starts, so every
        # write to stdout fails
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "eigencount", "table", "--n-max", "8"],
                env=python_env(), stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert proc.stderr == ""

    def test_formula_commands_do_not_import_numpy(self):
        proc = run_python(
            "import io, sys, contextlib\n"
            "from eigencount import *\n"
            "from eigencount import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(a) for a in (\n"
            "        ['count', '--mode', 'm', '--n', '3', '--k', '2', '--q', '5'],\n"
            "        ['table', '--n-max', '4'],\n"
            "        ['bound', '--kind', 'matrix', '--n', '4', '--p', '5', '--k', '2'],\n"
            "        ['bound', '--kind', 'matrix', '--n', '2', '--p', '2', '--k', '2'],\n"
            "        ['bound', '--kind', 'matrix', '--n', '4', '--p', '3', '--k', '3'],\n"
            "    )]\n"
            "assert codes == [0, 0, 0, 0, 0], codes\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        assert proc.returncode == 0, proc.stderr


def parser_flags():
    """{subcommand: (its flags' argparse actions, its groups of mutually
    exclusive actions)} as cli._build_parser() defines them, --help left
    out."""
    parser = cli._build_parser()
    [commands] = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return {
        name: (
            [a for a in sub._actions if a.option_strings and not isinstance(a, argparse._HelpAction)],
            [group._group_actions for group in sub._mutually_exclusive_groups],
        )
        for name, sub in commands.choices.items()
    }


# the edge values of each flag that takes a free value, a valid one first;
# with --force every scan stays within 5^9 matrices (n <= 3, p <= 5 prime),
# n = 8 or more overflows the scan index, and 4300 digits is the most that
# Python reads as an int.  A flag added without a pool fails the test.
HUGE = "9" * 4300
EDGE_VALUES = {
    "--n": ["2", "3", "1", "0", "-1", "8", "1000000", "1.5"],
    "--p": ["3", "5", "2", "1", "0", "-1", "4", "x"],
    "--k": ["2", "1", "3", "0", "-1", "1000000000000000000", HUGE],
    "--potent": ["2", "1", "4", "0", "-1", "1000000000000000000", HUGE],
    "--q": ["4", "5", "1", "0", "-1", "6", "1000000000000000003"],
    "--alphas": ["0,1", "0", "4,2,0", "", "0,0", "-1", "0,,1", "a"],
    "--spectrum": ["0,1", "0", "4,2,0", "", "0,0", "-1", "0,9", "a"],
    "--n-max": ["3", "4", "8", "2", "0", "-1", "9"],
    "--jobs": ["1", "2", "0", "-1"],
    "--count": ["39", "1", "0", "-1", "1000000000000000000000000000000", HUGE],
    "--factors": ["2^1", "2^2,3^1", "4^1", "", "2^0", "2^1,2^1", "x^y"],
}


def one_time_in(draw, n):
    """True one draw in n; False is the simpler value."""
    return draw(st.sampled_from([False] * (n - 1) + [True]))


@st.composite
def command_lines(draw, name):
    """A draw of subcommand name's flags, each flag's value one of its
    choices, one time in ten an invalid one, or from EDGE_VALUES.  A
    required flag is left out one time in ten; of a mutually exclusive
    group one flag is given, one time in ten all of them; any other flag
    is given one time in three.  One time in four a flag that only another
    subcommand has follows, with a valid value, on a line that gives every
    required flag and one of each group, and all of whose own flags take
    their first, valid, value: the foreign flag is the line's one fault."""
    actions, groups = parser_flags()[name]
    foreign = one_time_in(draw, 4)
    chosen = set()
    for group in groups:
        chosen.update(group if not foreign and one_time_in(draw, 10) else [draw(st.sampled_from(group))])
    argv = [name]
    for action in actions:
        if any(action in group for group in groups):
            given = action in chosen
        elif action.required:
            given = foreign or not one_time_in(draw, 10)
        else:
            given = one_time_in(draw, 3)
        if not given:
            continue
        flag = action.option_strings[-1]
        if action.nargs == 0:
            argv.append(flag)
        elif foreign:
            argv += [flag, action.choices[0] if action.choices else EDGE_VALUES[flag][0]]
        elif action.choices:
            argv += [flag, "bogus" if one_time_in(draw, 10) else draw(st.sampled_from(action.choices))]
        else:
            argv += [flag, draw(st.sampled_from(EDGE_VALUES[flag]))]
    if foreign:
        own = own_flags(name)
        others = [a for other, _ in parser_flags().values() for a in other if own.isdisjoint(a.option_strings)]
        action = draw(st.sampled_from(others))
        flag = action.option_strings[-1]
        if action.nargs == 0:
            argv.append(flag)
        else:
            argv += [flag, action.choices[0] if action.choices else EDGE_VALUES[flag][0]]
    return argv


def own_flags(name):
    """The option strings of subcommand name."""
    return {flag for action in parser_flags()[name][0] for flag in action.option_strings}


@functools.lru_cache(maxsize=None)
def capped_main(argv):
    """cli.main(argv) in run_capped under a small budget, once per command
    line: hypothesis draws some of them more than once."""
    return run_capped(f"cli.main({list(argv)!r})", env={"EIGENCOUNT_BUDGET": "100000"})


@pytest.mark.parametrize("name", sorted(parser_flags()))
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_command_line_answers_or_refuses(name, data):
    # the contract: an answer, or a refusal with its documented exit code
    # and one error line, never a traceback; json and csv output parses
    argv = data.draw(command_lines(name))
    proc = capped_main(tuple(argv))
    assert proc.returncode in {0, 2, 3, 4, 5, 6}, (argv, proc.stderr)
    assert "Traceback" not in proc.stderr, argv
    foreign = [arg for arg in argv if arg.startswith("--") and arg not in own_flags(name)]
    if foreign:
        assert proc.returncode == cli.EXIT_USAGE, (argv, proc.stderr)
        assert "unrecognized arguments: " + foreign[0] in proc.stderr, (argv, proc.stderr)
    if proc.returncode in (cli.EXIT_USAGE, cli.EXIT_BUDGET):
        assert proc.stdout == "", argv
        lines = proc.stderr.splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:], (argv, proc.stderr)
        return
    assert proc.stdout, argv
    formats = [value for flag, value in zip(argv, argv[1:]) if flag == "--format"]
    fmt = formats[-1] if formats else "text"
    if fmt == "json":
        assert all(isinstance(json.loads(line), dict) for line in proc.stdout.splitlines()), argv
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(proc.stdout))
        assert header == ["command", "parameters", "polynomial", "value", "verdict", "provenance"]
        assert rows and all(len(row) == len(header) for row in rows), argv
