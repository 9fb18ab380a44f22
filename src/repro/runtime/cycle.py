"""The worker cycle of Algorithm 1, written once for every backend.

:func:`worker_cycle` is one pull -> forward -> state push ->
[compensation] -> backward -> push pass as a generator.  It does the
worker's math and yields a step wherever it needs the backend:
:class:`Send`, :class:`Recv` (the reply is sent back in) and
:class:`Compute` (a pass the driver runs and times; ``(result, seconds)``
is sent back).  The simulator's events and :func:`run_cycle` (thread
workers, proc children) drive it; :func:`repro.runtime.server_actor.serve`
is the server side.  ``t_comm``/``t_comp`` come from
:class:`VirtualTiming` (the plan's compute and network models, one link
sample per message in travel order: sim, deterministic threads) or
:class:`RealTiming` (a clock: free-running threads, proc children).
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Generator, List, NamedTuple, Union

from repro.core.worker import DistributedWorker
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.messages import (
    CombinedPush,
    GradientPush,
    Message,
    PullRequest,
    Shutdown,
    StatePush,
)
from repro.runtime.session import REQUEST_BYTES
from repro.utils.timer import Timer

#: share of one batch's compute time spent in the forward / backward pass
FORWARD = 1.0 / 3.0
BACKWARD = 2.0 / 3.0


class Send(NamedTuple):
    """``message`` (``nbytes`` logical bytes) leaves for the server."""

    message: Message
    nbytes: int


class Recv(NamedTuple):
    """Wait for the server's reply of ``nbytes`` logical bytes."""

    nbytes: int


class Compute(NamedTuple):
    """Run ``run()``, a ``fraction`` of one batch's compute time."""

    fraction: float
    run: Callable[[], Any]


Cycle = Generator[Union[Send, Recv, Compute], Any, None]


def worker_cycle(worker: DistributedWorker, spec, clock: Callable[[], float]) -> Cycle:
    """One pass of Algorithm 1 for ``worker``.

    ``spec`` (an :class:`~repro.runtime.session.ExperimentPlan` or
    :class:`~repro.runtime.session.WorkerRuntime`) carries the config,
    the wire sizes and ``requires_compensation``; ``t_comm`` is measured
    on the driver's ``clock`` from the pull request to the weights.
    """
    m = worker.worker_id
    compensated = spec.requires_compensation
    yield Send(PullRequest(m, sent_at=clock()), REQUEST_BYTES)
    pulled = yield Recv(spec.model_bytes)
    worker.load_params(pulled.weights, pulled.version, clock() - pulled.request_sent_at)
    state, _ = yield Compute(FORWARD, worker.forward)
    reply = None
    if compensated:
        yield Send(StatePush(m, state=state), spec.state_bytes)
        reply = (yield Recv(REQUEST_BYTES)).reply
    backward = functools.partial(
        worker.backward,
        reply=reply,
        lc_lambda=spec.config.lc_lambda,
        compensation=spec.config.compensation,
    )
    payload, worker.last_t_comp = yield Compute(BACKWARD, backward)
    if compensated:
        yield Send(GradientPush(m, payload=payload), spec.model_bytes)
    else:
        push = CombinedPush(m, state=state, payload=payload)
        yield Send(push, spec.model_bytes + spec.state_bytes)


def start_times(plan) -> List[float]:
    """Each worker's first pull, in virtual seconds: a small seeded jitter."""
    jitter = plan.rng_tree.child("start").generator("jitter")
    return [float(jitter.uniform(0.0, 1e-4)) for _ in range(plan.config.num_workers)]


class _Timing:
    """Runs a pass under the worker's ``model_lock`` and in ``timer``."""

    def __init__(self, worker: DistributedWorker, compute, timer: Timer) -> None:
        self.worker, self.compute, self.timer = worker, compute, timer

    def _compute(self, step: Compute) -> Any:
        with self.worker.model_lock, self.timer.section("worker-compute"):
            return step.run()


class VirtualTiming(_Timing):
    """A worker's virtual clock, advanced by samples of the timing models.

    ``now`` is the worker's last event and ``offset`` the compute sampled
    since; a send lands at ``now + (offset + uplink)``, the simulator's
    float association, so every virtual driver reproduces its timestamps.
    """

    def __init__(self, worker, compute, network, timer: Timer, start: float) -> None:
        super().__init__(worker, compute, timer)
        self.network = network
        self.now = start
        self.offset = 0.0

    def clock(self) -> float:
        return self.now

    def run(self, step: Compute):
        result = self._compute(step)
        seconds = self.compute.duration(self.worker.worker_id, fraction=step.fraction)
        self.offset += seconds
        return result, seconds

    def sending(self, nbytes: int) -> None:
        """Advance ``now`` to the message's arrival at the server."""
        up = self.network.transfer_time(self.worker.worker_id, nbytes)
        self.now = self.now + (self.offset + up)
        self.offset = 0.0

    def received(self, nbytes: int) -> None:
        self.now = self.now + self.network.transfer_time(self.worker.worker_id, nbytes)

    def finished(self) -> None:
        pass


class RealTiming(_Timing):
    """Timing read off ``clock``, plus emulated compute delay.

    Each pass sleeps ``compute_scale`` real seconds per virtual second of
    the compute model.  A live ``recorder`` gets ``span`` events on
    ``clock``: ``compute`` (a pass and its sleep), ``wire`` (a send until
    its reply arrived) and ``encode`` (the final push).
    """

    def __init__(
        self, worker, compute, clock, timer: Timer, compute_scale=0.0, recorder=NULL_RECORDER
    ) -> None:
        super().__init__(worker, compute, timer)
        self.clock = clock
        self.compute_scale = float(compute_scale)
        self.recorder = recorder
        self._sent_at = 0.0

    def _span(self, phase: str, seconds: float) -> None:
        if self.recorder.enabled:
            self.recorder.emit(
                self.clock(), "span", self.worker.worker_id, phase=phase, dur_ms=seconds * 1e3
            )

    def run(self, step: Compute):
        start = self.clock()
        result = self._compute(step)
        if self.compute_scale > 0:
            virtual = self.compute.duration(self.worker.worker_id, fraction=step.fraction)
            time.sleep(self.compute_scale * virtual)
        seconds = self.clock() - start
        self._span("compute", seconds)
        return result, seconds

    def sending(self, nbytes: int) -> None:
        self._sent_at = self.clock()

    def received(self, nbytes: int) -> None:
        self._span("wire", self.clock() - self._sent_at)

    def finished(self) -> None:
        self._span("encode", self.clock() - self._sent_at)


def run_cycle(
    cycle: Cycle,
    timing,
    send: Callable[[Message, int], None],
    recv: Callable[[], Message],
) -> bool:
    """Drive one cycle over a blocking link; False once Shutdown arrives."""
    value = None
    while True:
        try:
            step = cycle.send(value)
        except StopIteration:
            timing.finished()
            return True
        value = None
        if type(step) is Compute:
            value = timing.run(step)
        elif type(step) is Send:
            timing.sending(step.nbytes)
            send(step.message, step.nbytes)
        else:
            value = recv()
            if isinstance(value, Shutdown):
                cycle.close()
                return False
            timing.received(step.nbytes)
