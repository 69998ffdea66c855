"""Run command lists through ``cvrep.cli.main`` and judge what they print.

One client, closed loop, in this process: each command starts when the
previous one has returned.  Only the ``main`` call is timed; capturing its
output and checking it against the reference happen outside that region.
"""

from __future__ import annotations

import gc
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import bootstrap
from cvrep import cli

RANK_WARNING = "rank decision badly conditioned"
USAGE = 2  # the exit code of a usage error
SETUP_REPEATS = 9

# Reference seconds.  On a shared machine whose speed drifts by tens of
# percent over minutes, raw times do not repeat from run to run.  So a fixed
# calibration kernel runs just before every command, and times are reported
# scaled by REFERENCE_CALIBRATION_S / (median kernel time in the same pass):
# the time the command would take on a machine where the kernel takes
# exactly REFERENCE_CALIBRATION_S.  The kernel calls no cvrep code.
REFERENCE_CALIBRATION_S = 0.5e-3
_CAL_SQUARE = np.random.default_rng(0).standard_normal((80, 80))
_CAL_TALL = np.random.default_rng(1).standard_normal((60, 40))


def _calibration_kernel() -> float:
    """Fixed work in the program's own mix: tiny NumPy blocks and a Python
    loop (as in gate application), a BLAS product (as in folding) and a
    LAPACK factorisation (as in rank tests)."""
    small = np.eye(8)
    acc = 0.0
    for _ in range(12):
        block = np.block([[small, small], [small, small]])
        acc += float(np.max(np.abs(block @ block.T - block)))
        acc += sum(j * j for j in range(40))
    acc += float((np.eye(80) @ _CAL_SQUARE).sum())
    acc += float(np.linalg.qr(_CAL_TALL)[1][0, 0])
    return acc


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes now."""
    t0 = perf_counter()
    _calibration_kernel()
    return perf_counter() - t0


@dataclass(frozen=True)
class Outcome:
    exit: int | None  # None when main raised instead of returning
    stdout: str
    stderr: str
    error: str | None
    seconds: float
    rank_warnings: int


def execute(cmd) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = code = None
    with warnings.catch_warnings(record=True) as caught:
        # Every warning is recorded, so repeated passes do identical work.
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(list(cmd.argv))
            except SystemExit as exc:
                error = f"SystemExit({exc.code})"
            except Exception as exc:  # a crash is a failed command, not a harness failure
                error = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
    n_rank = sum(str(w.message).startswith(RANK_WARNING) for w in caught)
    return Outcome(code, out.getvalue(), err.getvalue(), error, seconds, n_rank)


def judge(cmd, outcome: Outcome) -> tuple[str, str]:
    """("ok" | "failed" | "wrong", detail).

    "failed" is a crash or a usage error (exit 2, with which a command
    declines to answer its input).  "wrong" is any other unexpected exit
    code, or an output that contradicts the reference: a command that
    reports a failed verification where the reference says it holds gave
    a wrong answer.  Both count as failed commands.
    """
    if outcome.error is not None:
        return "failed", outcome.error
    if outcome.exit != cmd.expect_exit:
        status = "failed" if outcome.exit == USAGE else "wrong"
        last = outcome.stderr.strip().splitlines()[-1:] or [""]
        return status, f"exit {outcome.exit}, expected {cmd.expect_exit}: {last[0][:120]}"
    try:
        problem = cmd.check(outcome.stdout)
    except (ValueError, LookupError, TypeError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    return ("ok", "") if problem is None else ("wrong", problem)


@dataclass(frozen=True)
class Pass:
    """One pass over the command list.  Each output is judged as soon as its
    command returns and then dropped, so memory use does not grow with the
    number of passes a run makes."""

    seconds: list[float]  # measured time of each command
    verdicts: list[tuple[str, str]]  # judge() of each command
    rank_warnings: int
    calibration_s: float  # median calibration-kernel time during the pass
    elapsed_s: float  # wall clock, calibration and checks included

    @property
    def scale(self) -> float:
        """Factor from measured to reference seconds."""
        return REFERENCE_CALIBRATION_S / self.calibration_s

    @property
    def raw_s(self) -> float:
        """Time spent in the commands themselves."""
        return sum(self.seconds)


def run_pass(cmds) -> Pass:
    gc.collect()
    t0 = perf_counter()
    calibration, seconds, verdicts, rank_warnings = [], [], [], 0
    for cmd in cmds:
        calibration.append(calibrate())
        outcome = execute(cmd)
        seconds.append(outcome.seconds)
        verdicts.append(judge(cmd, outcome))
        rank_warnings += outcome.rank_warnings
    return Pass(seconds, verdicts, rank_warnings, statistics.median(calibration), perf_counter() - t0)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


# Runs in a fresh interpreter: time the import and parser, then time the
# calibration kernel in the same process (it may run on another CPU than
# this one, at another speed).
_SETUP_CODE = """\
import time
t0 = time.perf_counter()
import cvrep.cli
cvrep.cli.build_parser()
t1 = time.perf_counter()
import statistics, sys
sys.path.insert(0, sys.argv[1])
import harness
calibration = [harness.calibrate() for _ in range(25)][5:]
print(t1 - t0)
print(statistics.median(calibration))
print(cvrep.__file__)
"""


def setup_seconds() -> tuple[float, float]:
    """Median time for a fresh interpreter to import cvrep.cli and build its
    parser, in reference and in measured seconds."""
    env = dict(os.environ, PYTHONPATH=str(bootstrap.SRC))
    times, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):  # the first run only warms the file cache
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(Path(__file__).parent)],
            cwd=bootstrap.ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, calibration, origin = proc.stdout.splitlines()
        if not origin.startswith(str(bootstrap.SRC)):
            raise RuntimeError(f"set-up imported cvrep from {origin}")
        times.append(float(seconds))
        scaled.append(float(seconds) * REFERENCE_CALIBRATION_S / float(calibration))
    return statistics.median(scaled[1:]), statistics.median(times[1:])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_rev() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=bootstrap.ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(bootstrap.ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "blas_threads": bootstrap.THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_rev": _git_rev(),
    }
