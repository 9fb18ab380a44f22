"""Message payloads exchanged between workers and the parameter server.

``WorkerState`` is the ``state_m`` record of Algorithm 1:
``{loss, mean:{}, var:{}, t_comm, t_comp}`` — the loss of the current batch,
per-BN-layer batch statistics, and the measured communication/computation
costs the step predictor consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, List, Tuple

import numpy as np

#: array annotations name their wire role (``repro.runtime.codecs``): a
#: codec may treat the roles differently — only gradients are sparsified
Gradient = Annotated[np.ndarray, "grad"]
Weights = Annotated[np.ndarray, "weights"]
BnStat = Annotated[np.ndarray, "bn"]

#: one ``(mean, var)`` pair per BN layer
BnPair = Tuple[BnStat, BnStat]
BnStats = List[BnPair]


@dataclass
class WorkerState:
    """The ``state_m`` push of Algorithm 1 (line 8)."""

    worker: int
    loss: float
    bn_stats: BnStats = field(default_factory=list)
    t_comm: float = 0.0
    t_comp: float = 0.0
    pull_version: int = -1  # server model version the worker is holding

    def __post_init__(self) -> None:
        if not np.isfinite(self.loss):
            raise ValueError(f"worker {self.worker} produced non-finite loss {self.loss}")


@dataclass
class GradientPayload:
    """The gradient push of Algorithm 1 (line 12)."""

    worker: int
    grad: Gradient
    pull_version: int
    loss: float = 0.0
    nbytes: int = 0

    def __post_init__(self) -> None:
        self.grad = np.asarray(self.grad, dtype=np.float64)
        if self.nbytes == 0:
            self.nbytes = self.grad.size * 4  # float32 on the wire


@dataclass
class CompensationReply:
    """The server -> worker reply carrying ``l_delay`` (Algorithm 2, line 5)."""

    worker: int
    l_delay: float
    predicted_step: int
    sensitivity: float = 0.0  # d(l_delay)/d(l_m), used by the "sensitivity" coupling
