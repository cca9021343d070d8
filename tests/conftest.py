"""Helpers shared by the test modules."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


# Coefficient-tuple arithmetic: the tests' own reference for polynomial
# identities, since IntPoly is only a record.  A tuple is indexed by power
# and kept canonical as in IntPoly.coeffs: no trailing zeros, and the zero
# polynomial is empty.


def canonical(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(*polys):
    return canonical(map(sum, itertools.zip_longest(*polys, fillvalue=0)))


def poly_scale(c, poly):
    return canonical(c * x for x in poly)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return canonical(out)


def python_env():
    """The environment of a fresh interpreter that imports eigencount from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(code, timeout=60, env=None, flags=()):
    """Run code in a fresh interpreter that imports eigencount from src/,
    with the variables in env added to its environment and the interpreter
    options in flags."""
    return subprocess.run(
        [sys.executable, *flags, "-c", code], env={**python_env(), **(env or {})}, capture_output=True,
        text=True, timeout=timeout,
    )


def run_capped(statement, env=None):
    """Run one statement with cli and counting imported, in a child whose
    address space is capped at 2 GiB and whose run is cut at 20 s, so a
    build that should not start fails fast instead of filling the
    machine's memory; the statement's value is the exit code.  The
    variables in env are added to the child's environment."""
    return run_python(
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
        "from eigencount import cli, counting\n"
        f"sys.exit({statement})\n",
        timeout=20,
        env=env,
    )


@pytest.fixture
def forks(monkeypatch):
    """The pids of the scan workers forked during the test, recorded by
    wrapping the real os.fork that the oracle calls; a child returns from
    the wrapper unrecorded.  At teardown no child of the test's process
    may be left, running or unreaped."""
    from eigencount import oracle

    pids = []
    real_fork = oracle.os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(oracle.os, "fork", fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
