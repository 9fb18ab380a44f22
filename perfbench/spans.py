"""Per-layer attribution for the traced run.

The program is not modified: :class:`SpanRecorder` replaces the public
functions named in :data:`LAYER_FUNCTIONS` with timing wrappers while a
traced run executes and restores them afterwards.  Each call records one
:class:`Span` — name, start, end, the span that was open on the same thread
when it began (its parent), and the run id.  Spans stay in memory and are
written out once, when the benchmark ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover, so ``server.handle_combined`` is charged its own
bookkeeping but not the ``handle_gradient`` it calls, and
``server.handle_state`` not the predictor calls inside it.

Proc children are other processes and cannot be wrapped; their compute,
encode and wait times come from the ``span`` obs events the children
already emit when the plan carries a live trace recorder.

Timings are self ms per call unless the metric name says ``per_update``
or the unit in ``BENCHMARK.json`` is per update.  A layer a workload does
not reach reads 0 there: ``proc.startup_s`` is 0 off the proc backend and
``sim.loop_self_ms`` off the sim backend.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.predictors.loss_predictor import LSTMLossPredictor
from repro.core.predictors.step_predictor import LSTMStepPredictor
from repro.core.server import ParameterServer
from repro.core.worker import DistributedWorker
from repro.runtime import wire
from repro.runtime.session import ExperimentPlan, ExperimentSession
from repro.runtime.transport import Mailbox

from perfbench.measure import Run
from perfbench.workloads import WORKER_THREAD_PREFIX, Workload

#: (owner, attribute, span name): the layer boundaries the traced run wraps
LAYER_FUNCTIONS: Tuple[Tuple[Any, str, str], ...] = (
    (ExperimentPlan, "from_config", "session.plan_build"),
    (ExperimentSession, "evaluate", "session.evaluate"),
    (DistributedWorker, "forward", "worker.fwd"),
    (DistributedWorker, "backward", "worker.bwd"),
    (DistributedWorker, "load_params", "worker.load_params"),
    (ParameterServer, "handle_pull", "server.handle_pull"),
    (ParameterServer, "handle_state", "server.handle_state"),
    (ParameterServer, "handle_gradient", "server.handle_gradient"),
    (ParameterServer, "handle_combined", "server.handle_combined"),
    (LSTMLossPredictor, "observe", "loss_pred.observe"),
    (LSTMLossPredictor, "predict_next", "loss_pred.predict_next"),
    (LSTMLossPredictor, "predict_delay", "loss_pred.predict_delay"),
    (LSTMStepPredictor, "observe", "step_pred.observe"),
    (LSTMStepPredictor, "predict", "step_pred.predict"),
    (Mailbox, "get", "transport.mailbox_get"),
    (wire.FrameConnection, "send_message", "wire.send"),
    (wire, "decode_frame", "wire.decode"),
)

#: reported as self ms per call ("<name>_ms"); a mailbox wait is reported
#: per update instead, split by the thread that waited
PER_CALL = tuple(name for _, _, name in LAYER_FUNCTIONS if name != "transport.mailbox_get")
#: also reported as calls per update ("<name>_per_update")
PER_UPDATE_CALLS = tuple(
    name for name in PER_CALL if name.startswith(("worker.", "loss_pred.", "step_pred."))
)
#: proc-child obs span phase -> per-update metric
CHILD_PHASES = {
    "compute": "worker.child_compute_ms",
    "encode": "wire.child_encode_ms",
    "wire": "wire.child_wait_ms",
}


class Span(NamedTuple):
    span_id: int
    parent_id: Optional[int]
    name: str
    thread: str
    start: float
    end: float
    run_id: str


class SpanRecorder:
    """Collects spans from wrapped functions on any thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: tag for spans recorded from now on; set before each traced run
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record one span per call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                # list.append is atomic under the GIL: no lock on the hot path
                recorder.spans.append(Span(
                    span_id, parent, name, threading.current_thread().name,
                    start, end, recorder.run_id,
                ))

        return wrapper

    def __enter__(self) -> "SpanRecorder":
        """Replace each of :data:`LAYER_FUNCTIONS` with its timing wrapper."""
        for owner, attr, name in LAYER_FUNCTIONS:
            original = inspect.getattr_static(owner, attr)
            own = attr in vars(owner)
            if isinstance(original, classmethod):
                replacement = classmethod(self.timed(name, original.__func__))
            else:
                replacement = self.timed(name, original)
            setattr(owner, attr, replacement)
            self._patched.append((owner, attr, original, own))
        return self

    def __exit__(self, *exc) -> None:
        """Put every wrapped function back as it was."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump_jsonl(self, path: str, header: Dict[str, Any]) -> None:
        """Write ``header`` as the first line, then one row per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #
def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus what its children cover, by span id."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - covered(span.start, span.end, children.get(span.span_id, ()))
        for span in spans
    }


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
def layer_metrics(
    workload: Workload,
    spans: Sequence[Span],
    traced: Sequence[Run],
    untraced: Sequence[Run],
) -> Dict[str, float]:
    """Every per-layer metric of a traced invocation.

    ``spans`` are everything recorded during the ``traced`` runs.  The
    interleaved ``untraced`` runs give the loop time the tracing overhead is
    measured against and the set-up time ``proc.startup_s`` explains.
    """
    if not traced:
        raise ValueError("layer metrics need at least one traced run")
    kept = {run.run_id for run in traced}
    spans = [span for span in spans if span.run_id in kept]  # drop failed runs' spans
    results = [run.result for run in traced]
    updates = sum(r.total_updates for r in results)
    wall = sum(r.wall_time for r in results)
    own = self_times(spans)

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    server_idle = worker_wait = server_covered = 0.0
    plan_build: List[float] = []
    for span in spans:
        self_s[span.name] += own[span.span_id]
        calls[span.name] += 1
        if span.name == "session.plan_build":
            plan_build.append(span.end - span.start)
            continue
        on_server = span.thread == workload.server_thread
        if span.name == "transport.mailbox_get":
            if on_server:
                server_idle += span.end - span.start
            elif span.thread.startswith(WORKER_THREAD_PREFIX):
                worker_wait += span.end - span.start
        if on_server and span.parent_id is None:
            server_covered += span.end - span.start

    def per_call_ms(name: str) -> float:
        return 1e3 * self_s[name] / calls[name] if calls[name] else 0.0

    out: Dict[str, float] = {f"{name}_ms": per_call_ms(name) for name in PER_CALL}
    out.update({f"{name}_per_update": calls[name] / updates for name in PER_UPDATE_CALLS})
    out["session.evaluate_calls"] = calls["session.evaluate"] / len(traced)

    child_ms: Dict[str, float] = defaultdict(float)
    for r in results:
        for phase, ms in r.obs.get("spans_ms", {}).items():
            child_ms[phase] += ms
    out.update({metric: child_ms[phase] / updates for phase, metric in CHILD_PHASES.items()})

    out["server.idle_frac"] = server_idle / wall
    out["server.staleness_mean"] = statistics.fmean(r.staleness["mean"] for r in results)
    out["server.staleness_max"] = max(r.staleness["max"] for r in results)
    # nan without prediction pairs: the predictors did not run
    loss_err = [e for e in (r.loss_prediction_error() for r in results) if math.isfinite(e)]
    step_err = [e for e in (r.step_prediction_error() for r in results) if math.isfinite(e)]
    out["loss_pred.abs_err"] = statistics.fmean(loss_err) if loss_err else 0.0
    out["step_pred.abs_err"] = statistics.fmean(step_err) if step_err else 0.0

    out["transport.worker_wait_ms"] = 1e3 * worker_wait / updates
    out["transport.messages_per_update"] = (
        sum(r.comm.get("messages", 0.0) for r in results) / updates
    )
    out["wire.bytes_per_update"] = sum(r.comm.get("wire_bytes", 0.0) for r in results) / updates

    # set-up from the untraced runs: a traced proc run also waits for the
    # children to stream their trace rows before it ends
    out["proc.startup_s"] = (
        statistics.median(run.setup_s for run in untraced) - statistics.median(plan_build)
        if workload.backend == "proc" else 0.0
    )
    out["sim.loop_self_ms"] = (
        1e3 * max(wall - server_covered, 0.0) / updates if workload.backend == "sim" else 0.0
    )
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(r.wall_time for r in results)
        / statistics.median(r.result.wall_time for r in untraced)
        - 1.0
    )
    return out
