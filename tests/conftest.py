"""Helpers shared by the test modules."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code, timeout=60):
    """Run code in a fresh interpreter that imports eigencount from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture
def recording_pool(monkeypatch):
    """An in-process stand-in for concurrent.futures.ProcessPoolExecutor,
    which the oracle looks up when a scan starts workers.  Each pool started
    appends its max_workers to ``workers`` and its tasks' index ranges to
    ``ranges``, then runs the tasks here; no process is started."""

    class RecordingPool:
        workers, ranges = [], []

        def __init__(self, max_workers):
            self.workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            self.ranges.append([task[4:] for task in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool
