"""One measured run, its correctness checks, and the end-to-end summary.

A run is one call of ``run_experiment`` (``get_backend`` ->
``ExperimentPlan.from_config`` -> ``backend.run``), timed from the call to
the returned ``RunResult``:

* ``run_s`` — that whole interval;
* ``setup_s`` — ``run_s`` minus the training loop (``RunResult.wall_time``):
  plan build, proc spawn and handshake, teardown;
* ``updates_per_s`` — ``total_updates / RunResult.wall_time``;
* ``test_error`` — ``RunResult.final_test_error`` at the update budget;
* ``peak_rss_mb`` — peak resident memory of this process plus its children
  during the run.

The three timings are host-adjusted.  On a shared 2-vCPU host the CPU runs
the same code up to ~1.5x slower in phases lasting seconds to minutes,
which spreads the median wall time of a 30-second invocation by 17-29%
(quartile distance over median, ten invocations); adjusted timings spread
5-10%.  Every run is therefore bracketed by a fixed pure-Python reference
loop that imports nothing from the program, and the run's own work is scaled
by ``REFERENCE_S / reference loop time`` — seconds on a host that runs the
loop in :data:`REFERENCE_S`.  That is the set-up, and the training loop when
it runs in this process.  A proc workload's loop runs in child processes
that oversubscribe the cores; its speed barely follows the reference loop
(log-log slope -0.13 against -0.84 on sim), so it stays raw wall time.  The
raw wall-clock figures are printed beside the adjusted ones.

The benchmark sets no ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS``: proc
children inherit the environment, so a value set here would change what is
measured.  :func:`environment` records what the run inherited instead.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy

from repro.core.metrics import RunResult
from repro.data.synthetic import SyntheticCIFAR10
from repro.runtime.backends import run_experiment

from perfbench.workloads import Workload

#: a run "learns" when its test error stays under this share of chance
ERROR_CEILING = 0.6
#: how often the memory sampler looks at the child processes
RSS_POLL_S = 0.05
#: iterations of the host-speed reference loop (~12 ms)
REFERENCE_ITERATIONS = 200_000
#: the reference loop's time on an idle 2-vCPU x86 host under Python 3.11;
#: host-adjusted timings are seconds on a host that runs the loop this fast
REFERENCE_S = 0.0115


@dataclass
class Run:
    """One finished run and what the benchmark measured around it."""

    run_id: str
    seed: int
    run_s: float
    peak_rss_mb: float
    result: RunResult
    #: mean time of the reference loop just before and just after the run
    reference_s: float
    #: whether the training loop ran in this process, so is host-adjusted too
    loop_adjusted: bool

    @property
    def host_scale(self) -> float:
        """Factor that turns this run's wall times into host-adjusted ones."""
        return REFERENCE_S / self.reference_s

    @property
    def adjusted_setup_s(self) -> float:
        return self.setup_s * self.host_scale

    @property
    def adjusted_loop_s(self) -> float:
        return self.result.wall_time * (self.host_scale if self.loop_adjusted else 1.0)

    @property
    def setup_s(self) -> float:
        return self.run_s - self.result.wall_time

    @property
    def updates_per_s(self) -> float:
        return self.result.total_updates / self.result.wall_time

    @property
    def test_error(self) -> float:
        return self.result.final_test_error


# ---------------------------------------------------------------------- #
# memory
# ---------------------------------------------------------------------- #
def _status_kb(pid: str, key: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _child_pids() -> List[str]:
    pids: List[str] = []
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.extend(fh.read().split())
    except OSError:
        pass
    return pids


class PeakRss:
    """Peak resident set of this process plus its children over a ``with`` block.

    This process's peak (``VmHWM``) is reset on entry where the kernel
    allows it.  Children are sampled by a background thread; each child's
    own ``VmHWM`` is kept, so a sample taken late still sees that child's
    peak.  The result is the sum of the per-process peaks, in MiB.
    """

    def __init__(self) -> None:
        self.mb = 0.0
        self._children: Dict[str, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="perfbench-rss", daemon=True)

    def _sample(self) -> None:
        for pid in _child_pids():
            self._children[pid] = max(self._children.get(pid, 0), _status_kb(pid, "VmHWM"))

    def _poll(self) -> None:
        while not self._stop.wait(RSS_POLL_S):
            self._sample()

    def __enter__(self) -> "PeakRss":
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")  # reset this process's VmHWM
        except OSError:
            pass  # the peak then covers the process lifetime
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        own = _status_kb("self", "VmHWM")
        self.mb = (own + sum(self._children.values())) / 1024.0


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #
def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def run_once(workload: Workload, seed: int, run_id: str, obs: bool = False) -> Run:
    """Execute one run of ``workload``; ``obs`` attaches a live trace recorder."""
    config = workload.config(seed)
    before = reference_loop_s()
    with PeakRss() as rss:
        start = time.perf_counter()
        result = run_experiment(config, workload.backend, obs=obs, **workload.backend_options)
        run_s = time.perf_counter() - start
    after = reference_loop_s()
    return Run(run_id, seed, run_s, rss.mb, result, (before + after) / 2.0,
               loop_adjusted=workload.backend != "proc")


def check_run(workload: Workload, run: Run) -> List[str]:
    """What is wrong with a finished run (empty when it is correct)."""
    result = run.result
    problems = []
    if result.total_updates != workload.max_updates:
        problems.append(
            f"completed {result.total_updates} updates, budget {workload.max_updates}"
        )
    chance = 1.0 - 1.0 / SyntheticCIFAR10.num_classes  # every workload's dataset
    error = result.final_test_error if result.curve else float("nan")
    if not (math.isfinite(error) and error < ERROR_CEILING * chance):
        problems.append(f"test error {error} not well below chance {chance:.3f}")
    if workload.concurrent and not result.staleness["mean"] > 0:
        problems.append("no staleness on a concurrent backend")
    if workload.algorithm == "lc-asgd" and not (
        result.loss_prediction_pairs and result.step_prediction_pairs
    ):
        problems.append("lc-asgd run recorded no loss/step prediction pairs")
    return problems


def check_repeat(first: Run, second: Run) -> List[str]:
    """Two runs of one seed on a non-concurrent workload must agree exactly."""
    if first.seed != second.seed:
        raise ValueError("check_repeat compares two runs of the same seed")
    if first.result.curve != second.result.curve:
        return [f"seed {first.seed}: two runs produced different curves"]
    return []


def attempt(
    workload: Workload,
    seed: int,
    run_id: str,
    tally: Tally,
    obs: bool = False,
    reference: Optional[Run] = None,
) -> Optional[Run]:
    """One run, checked and counted; None when it raised or failed a check.

    ``reference`` is an earlier run of the same seed that this one must
    reproduce exactly (non-concurrent workloads only).
    """
    try:
        run = run_once(workload, seed, run_id, obs=obs)
    except Exception:  # a failed run is counted, not fatal to the invocation
        traceback.print_exc()
        tally.record(["raised"])
        return None
    problems = check_run(workload, run)
    if reference is not None:
        problems += check_repeat(reference, run)
    for problem in problems:
        print(f"check failed [{run_id}]: {problem}", file=sys.stderr)
    gc.collect()  # outside the timed region: one run's garbage stays out of the next
    return run if tally.record(problems) else None


# ---------------------------------------------------------------------- #
# summary
# ---------------------------------------------------------------------- #
@dataclass
class Tally:
    """Runs attempted and failed, over every run an invocation made."""

    attempted: int = 0
    failed: int = 0

    def record(self, problems: Sequence[str]) -> bool:
        """Count one run; True when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
        return not problems

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (``statistics.quantiles``, n=4)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def per_run(runs: Sequence[Run]) -> Dict[str, List[float]]:
    """Each end-to-end metric's value in every run, in run order.

    Timings are host-adjusted (see the module docstring).
    """
    return {
        "run_s": [r.adjusted_setup_s + r.adjusted_loop_s for r in runs],
        "setup_s": [r.adjusted_setup_s for r in runs],
        "updates_per_s": [r.result.total_updates / r.adjusted_loop_s for r in runs],
        "test_error": [r.test_error for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }


def end_to_end(values: Dict[str, List[float]]) -> Dict[str, float]:
    """The end-to-end metrics from :func:`per_run` values.

    Timings and memory are medians over runs.  ``test_error`` is the mean
    over the runs' training seeds: a quality average across seeds, whose
    spread comes from the seeds rather than from timing noise.
    """
    return {
        name: (statistics.fmean if name == "test_error" else statistics.median)(v)
        for name, v in values.items()
    }


def environment() -> Dict[str, Optional[str]]:
    """What the benchmark ran under: cores, interpreter, numpy/BLAS, threads."""
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        pass  # numpy < 1.25 has no dict mode
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
