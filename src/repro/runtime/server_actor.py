"""Algorithm 2's dispatch, and the actor loop that runs it on threads.

:func:`serve` is the server side of every message of the worker cycle
(:mod:`repro.runtime.cycle`); replies leave through a ``send(worker,
message, nbytes)`` hook.  The simulator calls it from arrival events
(:class:`~repro.core.trainer.DistributedTrainer`).  In the thread and proc
backends :func:`server_actor_loop` calls it: one thread owns the server
and is the only one that calls its handlers, so the math needs no locks.
The loop reads anything with the :class:`~repro.runtime.transport.
InProcTransport` surface (``server_inbox`` / ``to_worker`` /
``wake_all_workers``): in-process mailboxes or the proc backend's sockets.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.analysis.lockorder import make_lock
from repro.runtime.messages import (
    CombinedPush,
    CompensationMessage,
    GradientPush,
    Message,
    PullReply,
    PullRequest,
    Shutdown,
    StatePush,
)
from repro.runtime.session import REQUEST_BYTES, ExperimentSession


class RunControl:
    """Shared run state: the wall clock, the done flag, the first error."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self._start = 0.0
        self._error: Optional[BaseException] = None  # guarded-by: _error_lock
        self._error_lock = make_lock("RunControl._error_lock")

    def start_clock(self) -> None:
        self._start = time.perf_counter()

    def clock(self) -> float:
        """Real seconds since the run started."""
        return time.perf_counter() - self._start

    def fail(self, exc: BaseException) -> None:
        """Record the first failure and unblock everyone."""
        with self._error_lock:
            if self._error is None:
                self._error = exc
        self.done.set()

    @property
    def error(self) -> Optional[BaseException]:
        with self._error_lock:
            return self._error

    def raise_if_failed(self) -> None:
        """Re-raise the first recorded failure with its original traceback.

        The exception object still carries the frames of the worker/server
        thread that raised it; re-raising via ``with_traceback`` keeps them
        at the head of the chain so the crash site stays visible.
        """
        error = self.error
        if error is not None:
            raise error.with_traceback(error.__traceback__)


def serve(
    session: ExperimentSession,
    msg: Message,
    clock: Callable[[], float],
    send: Callable[[int, Message, int], None],
) -> bool:
    """Algorithm 2 for one worker message; True once the update budget is met.

    ``clock`` is the backend's "now" and ``send(worker, message, nbytes)``
    carries replies down a worker's link.  Every server-side effect of a
    message lives here: the handler call, its trace records and
    ``staleness`` event, serving the pulls an SSGD round held back, and
    epoch evaluation.
    """
    plan = session.plan
    server = plan.server
    trace = session.trace
    now = clock()
    m = msg.worker
    if isinstance(msg, PullRequest):
        weights = server.handle_pull(m, request_time=msg.sent_at)
        trace.record(now, "pull", m, version=server.version)
        if weights is not None:  # None: queued behind the SSGD barrier
            reply_msg = PullReply(
                m, weights=weights, version=server.pull_versions[m], request_sent_at=msg.sent_at
            )
            send(m, reply_msg, plan.model_bytes)
        return False
    if isinstance(msg, StatePush):
        reply = server.handle_state(msg.state)
        trace.record(now, "state", m, version=server.version, value=msg.state.loss)
        send(m, CompensationMessage(m, reply=reply), REQUEST_BYTES)
        return False
    if isinstance(msg, CombinedPush):
        advanced, staleness = server.handle_combined(msg.state, msg.payload)
    elif isinstance(msg, GradientPush):
        trace.record(now, "gradient", m, version=server.version)
        advanced, staleness = server.handle_gradient(msg.payload)
    else:
        raise TypeError(f"server received {type(msg).__name__}")
    trace.record(
        now, "update", m, version=server.version, staleness=staleness, value=msg.payload.loss
    )
    # same site, same value as the ClusterTrace update event, so the
    # trace's staleness histogram matches RunResult.staleness
    recorder = plan.recorder
    if recorder.enabled and staleness >= 0:
        recorder.emit(now, "staleness", m, value=float(int(staleness)), version=server.version)
    if advanced:
        for worker, t0 in server.drain_pending_pulls():
            reply_msg = PullReply(
                worker,
                weights=server.params.copy(),
                version=server.pull_versions[worker],
                request_sent_at=t0,
            )
            send(worker, reply_msg, plan.model_bytes)
    session.maybe_evaluate(clock())
    return server.batches_processed >= plan.total_updates


def server_actor_loop(session: ExperimentSession, transport, ctl: RunControl) -> None:
    """Drain the server inbox, serving each message until Shutdown.

    ``transport`` is anything with the InProcTransport surface.  Failures
    propagate to the backend through ``ctl``; workers are woken so nobody
    blocks on a mailbox that will never fill again.
    """
    recorder = session.plan.recorder
    try:
        while True:
            msg = transport.server_inbox.get()
            if isinstance(msg, Shutdown):
                return
            if ctl.done.is_set():
                continue  # budget met: drop straggler traffic
            if recorder.enabled:
                recorder.emit(
                    ctl.clock(), "queue_depth", msg.worker,
                    queue="server_inbox", depth=transport.server_inbox.approx_len(),
                )
            if serve(session, msg, ctl.clock, transport.to_worker):
                ctl.done.set()
                transport.wake_all_workers(Shutdown())
    except BaseException as exc:  # propagate to the caller via ctl
        ctl.fail(exc)
        transport.wake_all_workers(Shutdown())
