"""The benchmark's workloads: which algorithm, backend and size each runs.

All three are closed loops — each worker pulls again only after its own
gradient is pushed — over the ``throughput_workload`` shape (MLP-64+BN on
the 8x8 CIFAR stand-in, batch 64) with a fixed update budget.  They are
chosen so that every layer is exercised by one workload and bypassed by
another:

* ``asgd-sim`` — the default backend, the path every paper bench runs.
  Worker forward/backward dominate, runs are bit-reproducible, and there
  are no predictors, threads or sockets.
* ``lcasgd-thread`` — the paper's algorithm on real threads.  The two LSTM
  predictors saturate the server thread; there is no spawn and no socket,
  so a predictor change shows here and a wire change does not.
* ``asgd-proc`` — the only workload that spawns processes and moves every
  message over loopback sockets (raw32 codec).  Four processes share the
  cores, so it uses the compute layer differently from ``asgd-sim``;
  predictors are absent and the server is mostly idle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.bench.workloads import throughput_workload
from repro.core.config import TrainingConfig

#: caps on one concurrent run's training loop and proc start-up (runs take
#: seconds), so a hung run fails well inside the benchmark's time limit
#: instead of at the backends' 600 s / 120 s defaults
RUN_TIMEOUT_S = 40.0
STARTUP_TIMEOUT_S = 20.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a config family plus the backend that runs it."""

    name: str
    algorithm: str
    num_workers: int
    backend: str
    max_updates: int
    #: name of the thread that drives the parameter server on this backend
    server_thread: str
    backend_options: Dict[str, float] = field(default_factory=dict)

    def config(self, seed: int) -> TrainingConfig:
        """The run's configuration; everything random derives from ``seed``."""
        return throughput_workload(
            algorithm=self.algorithm,
            num_workers=self.num_workers,
            seed=seed,
            max_updates=self.max_updates,
            comm_codec="raw32",
        )

    @property
    def concurrent(self) -> bool:
        """Whether workers race for real.

        Staleness must then be > 0; otherwise the run is bit-reproducible,
        which is checked by running one seed twice.
        """
        return self.backend != "sim"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="asgd-sim",
            algorithm="asgd",
            num_workers=16,
            backend="sim",
            max_updates=640,
            server_thread="MainThread",
        ),
        Workload(
            name="lcasgd-thread",
            algorithm="lc-asgd",
            num_workers=4,
            backend="thread",
            # a run's time swings ~15% with thread scheduling whatever its
            # length, so short runs give the median more samples per window
            max_updates=80,
            server_thread="repro-server",
            backend_options={"timeout": RUN_TIMEOUT_S},
        ),
        Workload(
            name="asgd-proc",
            algorithm="asgd",
            num_workers=4,
            backend="proc",
            max_updates=320,
            server_thread="repro-proc-server",
            backend_options={"timeout": RUN_TIMEOUT_S, "startup_timeout": STARTUP_TIMEOUT_S},
        ),
    )
}

#: prefix of the worker threads' names on the thread backend
WORKER_THREAD_PREFIX = "repro-worker-"
