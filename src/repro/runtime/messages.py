"""Typed message envelopes exchanged over a runtime Transport.

These mirror the arrows of the worker cycle in :mod:`repro.runtime.cycle`
(served by :func:`repro.runtime.server_actor.serve`): pull request, pull
reply (weights down), ``state_m`` push, compensation reply, gradient push
— plus the fused state+gradient arrival the non-LC algorithms use, and a
Shutdown sentinel that wakes any thread blocked on a mailbox.

Envelope fields carry only what crosses the wire; the mathematics stays in
:class:`~repro.core.state.WorkerState` / :class:`~repro.core.state.
GradientPayload` / :class:`~repro.core.state.CompensationReply`.  Every
backend, the simulator included, passes these same envelopes between the
cycle and the server, so all of them speak one protocol.

The field annotations *are* the wire schema: :mod:`repro.runtime.wire`
derives every codec from them, so a new envelope is a new dataclass here
and nothing else.  Defining a subclass registers it under its class name
(:data:`MESSAGE_TYPES`), the only kinds a receiver will ever build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type, Union

from repro.core.state import (
    BnPair,
    CompensationReply,
    GradientPayload,
    Weights,
    WorkerState,
)

#: one trace row as it crosses the wire: ``[t, kind, worker, *fields]``
#: (the :func:`repro.obs.events.encode_record` format)
TraceRow = List[Union[bool, int, float, str, None]]

#: every concrete envelope by wire kind (its class name)
MESSAGE_TYPES: Dict[str, Type["Message"]] = {}


@dataclass(frozen=True)
class Message:
    """Base envelope: every message names its worker endpoint."""

    worker: int

    #: control messages cancel pending delivery deadlines in a Mailbox:
    #: once the run is over, nobody should wait out an emulated link delay
    #: just to learn about it (class attribute, not a wire field)
    expedite = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        prior = MESSAGE_TYPES.get(cls.__name__)
        if prior is not None and (prior.__module__, prior.__qualname__) != (
            cls.__module__,
            cls.__qualname__,
        ):
            raise TypeError(
                f"message kind {cls.__name__!r} is already taken by "
                f"{prior.__module__}.{prior.__qualname__}"
            )
        MESSAGE_TYPES[cls.__name__] = cls


@dataclass(frozen=True)
class PullRequest(Message):
    """Worker -> server: ask for the current weights (Algorithm 2, l. 11)."""

    sent_at: float = 0.0  # backend clock when the request left the worker


@dataclass(frozen=True)
class PullReply(Message):
    """Server -> worker: the weights at ``version`` (Algorithm 2, l. 12)."""

    weights: Optional[Weights] = None
    version: int = -1
    request_sent_at: float = 0.0  # echoed so the worker can measure t_comm


@dataclass(frozen=True)
class StatePush(Message):
    """Worker -> server: the ``state_m`` record (Algorithm 1, l. 8)."""

    state: Optional[WorkerState] = None


@dataclass(frozen=True)
class CompensationMessage(Message):
    """Server -> worker: the ``l_delay`` reply (Algorithm 2, l. 5)."""

    reply: Optional[CompensationReply] = None


@dataclass(frozen=True)
class GradientPush(Message):
    """Worker -> server: the compensated gradient (Algorithm 1, l. 12)."""

    payload: Optional[GradientPayload] = None


@dataclass(frozen=True)
class CombinedPush(Message):
    """Worker -> server: fused state+gradient for the non-LC algorithms."""

    state: Optional[WorkerState] = None
    payload: Optional[GradientPayload] = None


@dataclass(frozen=True)
class BnStatsPush(Message):
    """Worker -> parent at shutdown: the replica's BN *running* statistics.

    Only the proc backend uses this, and only under ``bn_mode="local"``:
    evaluation borrows worker 0's running statistics, which live in a
    child's address space there.  The child streams them once, right
    after it receives Shutdown, so the parent can install them into the
    eval model before the final evaluation.  ``stats`` is one
    ``(running_mean, running_var)`` pair per BN layer, in
    :func:`~repro.nn.norm.bn_layers` order.
    """

    stats: Tuple[BnPair, ...] = ()


@dataclass(frozen=True)
class TracePush(Message):
    """Worker -> parent at shutdown: the child's retained trace rows.

    Only instrumented (``obs on``) proc runs send this: the child's
    :class:`~repro.obs.recorder.TraceRecorder` lives in its own address
    space, so after Shutdown the child ships its encoded wire rows
    (:func:`~repro.obs.events.encode_record` format) once, and the parent
    merges them into the plan's recorder before the result is built.
    ``rows`` is a tuple of ``[t, kind, worker, *fields]`` lists; each is
    validated against the event registry on ingestion, never trusted.
    An obs child always sends one push — even empty — so the parent can
    wait for all ``M`` of them deterministically.
    """

    rows: Tuple[TraceRow, ...] = ()


@dataclass(frozen=True)
class WeightExchange(Message):
    """Worker -> worker: one side of an AD-PSGD pairwise average.

    ``worker`` is the *sender*.  Both members of a matched pair send their
    flat parameter vector (plus BN running statistics, so the averaged
    model evaluates consistently) before either blocks on receiving the
    partner's — the send-then-receive ordering that, together with atomic
    pairing, keeps gossip deadlock-free.  ``step`` is the sender's local
    step count, used for the staleness/version-gap accounting.
    """

    weights: Optional[Weights] = None
    bn_stats: Tuple[BnPair, ...] = ()
    step: int = 0


@dataclass(frozen=True)
class GossipReport(Message):
    """Worker -> coordinator: one local step finished (gossip runtime).

    The coordinator thread owns the trace/curve/evaluation exactly like
    the server actor does for the centralized backends; workers report
    each completed local step (with its loss and staleness) instead of
    pushing gradients.
    """

    loss: float = 0.0
    staleness: int = 0
    local_step: int = 0


@dataclass(frozen=True)
class Shutdown(Message):
    """Either direction: unblock the receiver and end its loop."""

    worker: int = -1
    expedite = True
