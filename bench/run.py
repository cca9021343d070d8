"""Benchmark eigencount end to end and layer by layer.

    python3 bench/run.py --workload formulas --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; nothing needs installing, the
program is imported from ``src/``.  Each workload (see workloads.py) is a
closed loop with one caller: one fresh process per job, the next started
when the last has exited.  A run repeats whole rounds of the workload's
job list while the next round is predicted to end within ``--seconds``,
and checks every output against the benchmark's own values (checks.py).

``--trace 0`` reports the end-to-end metrics: the wall time of the job
list (``wall_s``) and the CPU time of every process it started, pool
workers included (``cpu_s``), each summed over the jobs from each job's
least time over the run's rounds; the median wall time of the minimal
command over SETUP_RUNS runs before the rounds (``setup_s``); and the
largest resident set of any process of the run (``peak_rss_mb``).  Least
times are summed because the noise of a shared host only ever adds time:
its speed drifts by up to a fifth over minutes, and each job's best round
tracks the program's own cost most closely.

``--trace 1`` alternates untraced rounds with rounds in which every job
runs under ``job.py --trace``, and reports the per-layer metrics of the
traced rounds (medians), with the traced job list's wall time as
``trace.wall_s`` and its excess over the untraced one as ``trace.overhead_s``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in
turn and prints one such line each, with a ``workload`` key added.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
import workloads
from job import TRACE_PREFIX

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 11
JOB_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.numpy_loaded": "count",
    "cli.self_s": "s",
    "qpoly.mul_calls": "count",
    "qpoly.mul_s": "s",
    "qpoly.add_calls": "count",
    "qpoly.add_s": "s",
    "qpoly.divexact_calls": "count",
    "qpoly.divexact_s": "s",
    "qpoly.eval_calls": "count",
    "qpoly.eval_s": "s",
    "qpoly.render_s": "s",
    "counting.count_m_poly_s": "s",
    "counting.count_e_poly_s": "s",
    "counting.compositions": "count",
    "counting.class_size_calls": "count",
    "counting.class_size_s": "s",
    "counting.divisions_per_class_size": "ratio",
    "counting.gl_order_s": "s",
    "counting.cache_hits": "count",
    "counting.cache_misses": "count",
    "oracle.count_m_s": "s",
    "oracle.count_e_s": "s",
    "oracle.count_potent_s": "s",
    "oracle.m_matrices_per_s": "1/s",
    "oracle.e_matrices_per_s": "1/s",
    "oracle.potent_matrices_per_s": "1/s",
    "oracle.e_over_m": "ratio",
    "oracle.orbit_s": "s",
    "oracle.centralizer_s": "s",
    "oracle.orbit_matrices_per_s": "1/s",
    "oracle.worker_cpu_s": "s",
    "oracle.pool_efficiency": "ratio",
    "bounds.certify_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _children_usage() -> tuple[float, float]:
    """CPU seconds and peak resident MB over all finished child processes."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from the summed traces of one round's jobs."""
    calls, secs, extra = trace["calls"], trace["seconds"], trace["extra"]
    return {
        "cli.import_s": trace["import_s"],
        "cli.numpy_loaded": trace["numpy_loaded"],
        "cli.self_s": trace["self_seconds"]["main"],
        "qpoly.mul_calls": calls["mul"],
        "qpoly.mul_s": secs["mul"],
        "qpoly.add_calls": calls["add"],
        "qpoly.add_s": secs["add"],
        "qpoly.divexact_calls": calls["divexact"],
        "qpoly.divexact_s": secs["divexact"],
        "qpoly.eval_calls": calls["eval"],
        "qpoly.eval_s": secs["eval"],
        "qpoly.render_s": secs["render"],
        "counting.count_m_poly_s": secs["count_m_poly"],
        "counting.count_e_poly_s": secs["count_e_poly"],
        "counting.compositions": extra["compositions"],
        "counting.class_size_calls": calls["class_size_poly"],
        "counting.class_size_s": secs["class_size_poly"],
        "counting.divisions_per_class_size": _ratio(calls["divexact"], calls["class_size_poly"]),
        "counting.gl_order_s": secs["gl_order_poly"],
        "counting.cache_hits": extra["cache_hits"],
        "counting.cache_misses": extra["cache_misses"],
        "oracle.count_m_s": secs["count_m"],
        "oracle.count_e_s": secs["count_e"],
        "oracle.count_potent_s": secs["count_potent"],
        "oracle.m_matrices_per_s": _ratio(extra["m_matrices"], secs["count_m"]),
        "oracle.e_matrices_per_s": _ratio(extra["e_matrices"], secs["count_e"]),
        "oracle.potent_matrices_per_s": _ratio(extra["potent_matrices"], secs["count_potent"]),
        "oracle.e_over_m": _ratio(secs["count_e"], secs["count_m"]),
        "oracle.orbit_s": secs["orbit_size"],
        "oracle.centralizer_s": secs["centralizer_size"],
        "oracle.orbit_matrices_per_s": _ratio(
            extra["orbit_matrices"], secs["orbit_size"] + secs["centralizer_size"]
        ),
        "oracle.worker_cpu_s": extra["worker_cpu_s"],
        "oracle.pool_efficiency": _ratio(extra["worker_cpu_s"], extra["pool_capacity_s"]),
        "bounds.certify_s": secs["certify"],
    }


class Runner:
    """Runs jobs one at a time, checks them and keeps the operation tally."""

    def __init__(self):
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failures of operations not known to be faulty

    def spawn(self, job: workloads.Job, traced: bool):
        """Run one job: exit code, stdout, stderr, its trace or None, and the
        wall and CPU seconds of its process tree."""
        job_py = str(BENCH / "job.py")
        flag = ["--trace"] if traced else []
        if job.library:
            argv = [sys.executable, job_py, *flag, "orbits", *job.argv]
        elif traced:
            argv = [sys.executable, job_py, *flag, "cli", *job.argv]
        else:
            argv = [sys.executable, "-m", "eigencount", *job.argv]
        cpu0, _ = _children_usage()
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        cpu = _children_usage()[0] - cpu0
        trace, err_lines = None, []
        for line in proc.stderr.splitlines():
            if line.startswith(TRACE_PREFIX):
                trace = json.loads(line[len(TRACE_PREFIX):])
            else:
                err_lines.append(line)
        if traced and trace is None:
            raise RuntimeError(f"traced job wrote no trace: {job.label}")
        return proc.returncode, proc.stdout, "\n".join(err_lines), trace, wall, cpu

    def check(self, job: workloads.Job, rc: int, out: str, err: str) -> None:
        try:
            job.check(rc, out, err)
        except Exception:  # a malformed output fails its operation, whatever it breaks
            self.failed += 1
            if not job.known_fault:
                self.unexpected += 1
                print(f"FAILED {job.label}\n{traceback.format_exc()}{err[-2000:]}",
                      file=sys.stderr)

    def round(self, jobs: list[workloads.Job], traced: bool = False):
        """One pass over the job list: each job's wall and CPU seconds, and
        the traces summed over the jobs."""
        total = {"calls": Counter(), "seconds": Counter(), "self_seconds": Counter(),
                 "extra": Counter(), "import_s": 0.0, "numpy_loaded": 0}
        walls, cpus = [], []
        for job in jobs:
            rc, out, err, trace, wall, cpu = self.spawn(job, traced)
            walls.append(wall)
            cpus.append(cpu)
            self.attempted += 1
            self.check(job, rc, out, err)
            if trace is not None:
                for key in ("calls", "seconds", "self_seconds", "extra"):
                    total[key].update(trace[key])
                total["import_s"] += trace["import_s"]
                total["numpy_loaded"] += trace["numpy_loaded"]
        return walls, cpus, total


def _best_sum(per_round: list[list[float]]) -> float:
    """Each job's least time over the rounds, summed over the job list."""
    return sum(min(times) for times in zip(*per_round))


def _repeat(seconds: float, step) -> list:
    """Call step() at least once, and again while the next call, taking as
    long as the median so far, would end within ``seconds``."""
    start = time.perf_counter()
    results, walls = [], []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = workloads.build(name, seed)
    runner = Runner()
    if trace:
        pairs = _repeat(seconds, lambda: (runner.round(jobs), runner.round(jobs, traced=True)))
        plain = _best_sum([u[0] for u, _ in pairs])
        traced = _best_sum([t[0] for _, t in pairs])
        per_round = [layer_metrics(t[2]) for _, t in pairs]
        metrics = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_s"] = traced - plain
        units = PER_LAYER
    else:
        setup = workloads.setup_job()
        setup_walls = []
        for _ in range(SETUP_RUNS):
            rc, out, err, _, wall, _ = runner.spawn(setup, traced=False)
            setup_walls.append(wall)
            setup.check(rc, out, err)
        rounds = _repeat(seconds, lambda: runner.round(jobs))
        metrics = {
            "wall_s": _best_sum([r[0] for r in rounds]),
            "cpu_s": _best_sum([r[1] for r in rounds]),
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": _children_usage()[1],
        }
        units = END_TO_END
    return {
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eigencount" / "__init__.py").is_file():
        print(f"error: no eigencount sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    checks.selfcheck()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
