"""The DistributedTrainer: Algorithms 1-4 on the virtual-time simulator.

Execution model (DESIGN.md §5): real mathematics runs inside virtual-time
event callbacks.  One worker cycle is

1. **pull request** — worker -> server (small message up the link);
2. **pull reply** — server -> worker (full model down the link);
   ``t_comm`` = reply arrival minus request issue (Algorithm 1, line 3);
3. **forward** — real forward pass; virtual duration is 1/3 of the
   worker's sampled batch time;
4. **state push** — ``state_m`` up the link (loss + BN stats + costs);
5. *(LC-ASGD only)* **compensation reply** — the server's ``l_delay``
   travels back down before backward can start (the extra round trip whose
   cost appears in the wall-clock figures);
6. **backward** — real backward pass (seeded with the compensation);
   virtual duration is 2/3 of the batch time; the worker then immediately
   begins its next cycle (it never waits for the server to apply);
7. **gradient push** — gradient up the link; the server applies the
   update rule, advancing the version.

For the non-LC algorithms, steps 4-6 fuse: state and gradient travel
together and no reply is awaited.  SSGD additionally queues pulls at the
server until the round's barrier closes.

Backend split (``repro.runtime``): the experiment *wiring* — datasets,
identically-initialized replicas, the server with its predictors and BN
strategy, the cluster timing models — lives in
:class:`repro.runtime.session.ExperimentPlan`, and the shared evaluation/
trace/result machinery in :class:`repro.runtime.session.ExperimentSession`.
This module is now only the **sim flavor** of executing a plan: it maps the
seven arrows above onto :class:`~repro.cluster.simulator.Simulator` events.
The thread flavor (:class:`repro.runtime.thread_backend.ThreadBackend`)
runs the *same* plan on real threads with wall-clock staleness; both are
selected by name through :func:`repro.runtime.run_experiment` or
``repro run --backend {sim,thread}``.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.cluster.simulator import Simulator
from repro.core.config import TrainingConfig
from repro.core.metrics import CurvePoint, RunResult
from repro.core.state import CompensationReply, GradientPayload, WorkerState
from repro.utils.logging import get_logger

logger = get_logger("core.trainer")

_REQUEST_BYTES = 256  # pull request / small control messages


class DistributedTrainer:
    """Run one configured experiment end to end and return a RunResult.

    Accepts either a :class:`~repro.core.config.TrainingConfig` (a plan is
    built internally) or a pre-built :class:`~repro.runtime.session.
    ExperimentPlan` via ``plan=`` (how :class:`~repro.runtime.backends.
    SimBackend` drives it).  Plan components are exposed as attributes
    (``workers``, ``server``, ``compute``, ...) for tests and tooling.
    """

    def __init__(self, config: Optional[TrainingConfig] = None, plan=None) -> None:
        from repro.runtime.session import ExperimentPlan, ExperimentSession

        if plan is None:
            if config is None:
                raise ValueError("DistributedTrainer needs a config or a plan")
            plan = ExperimentPlan.from_config(config)
        if plan.config.algorithm == "ad-psgd":
            # no parameter server exists in a decentralized run; silently
            # treating the gossip rule as a server rule would "work" but
            # simulate the wrong system
            raise ValueError(
                "DistributedTrainer simulates a parameter server; run "
                "'ad-psgd' through run_experiment(..., backend='sim') so it "
                "dispatches to the gossip runtime"
            )
        self.plan = plan
        self.session = ExperimentSession(plan)

        # plan aliases (stable public surface) -------------------------------------------
        self.config = plan.config
        self.rng_tree = plan.rng_tree
        self.timer = plan.timer
        self.trace = self.session.trace
        self.train_set = plan.train_set
        self.test_set = plan.test_set
        self.num_classes = plan.num_classes
        self.eval_model = plan.eval_model
        self.workers = plan.workers
        self.server = plan.server
        self.compute = plan.compute
        self.network = plan.network
        self.iters_per_epoch = plan.iters_per_epoch
        self.total_updates = plan.total_updates
        self.model_bytes = plan.model_bytes
        self.state_bytes = plan.state_bytes

        self.sim = Simulator()

    # ------------------------------------------------------------------ #
    # event handlers (the cycle of the module docstring)
    # ------------------------------------------------------------------ #
    def _begin_cycle(self, m: int) -> None:
        if self.server.batches_processed >= self.total_updates:
            return
        t0 = self.sim.now
        up = self.network.transfer_time(m, _REQUEST_BYTES)
        self.sim.schedule(up, lambda: self._server_pull(m, t0), label=f"pull-req-{m}")

    def _server_pull(self, m: int, t0: float) -> None:
        weights = self.server.handle_pull(m, request_time=t0)
        self.trace.record(self.sim.now, "pull", m, version=self.server.version)
        if weights is None:
            return  # queued behind the SSGD barrier
        self._send_weights(m, t0, weights)

    def _send_weights(self, m: int, t0: float, weights: np.ndarray) -> None:
        down = self.network.transfer_time(m, self.model_bytes)
        version = self.server.pull_versions[m]
        self.sim.schedule(
            down, lambda: self._worker_weights(m, t0, weights, version), label=f"weights-{m}"
        )

    def _worker_weights(self, m: int, t0: float, weights: np.ndarray, version: int) -> None:
        worker = self.workers[m]
        t_comm = self.sim.now - t0
        worker.load_params(weights, version, t_comm)
        with self.timer.section("worker-compute"):
            state = worker.forward()
        dur_fwd = self.compute.duration(m, fraction=1.0 / 3.0)
        if self.server.rule.requires_compensation:
            up = self.network.transfer_time(m, self.state_bytes)
            self.sim.schedule(
                dur_fwd + up, lambda: self._server_state(m, state), label=f"state-{m}"
            )
        else:
            with self.timer.section("worker-compute"):
                payload = worker.backward(reply=None, t_comp=0.0)
            dur_bwd = self.compute.duration(m, fraction=2.0 / 3.0)
            worker.last_t_comp = dur_bwd
            up = self.network.transfer_time(m, self.model_bytes + self.state_bytes)
            self.sim.schedule(
                dur_fwd + dur_bwd + up,
                lambda: self._server_combined(m, state, payload),
                label=f"grad-{m}",
            )
            # FIFO per connection: the next pull request leaves with (and is
            # processed after) the gradient push, so a worker always sees its
            # own update — sequential SGD is exactly staleness-0.
            self.sim.schedule(dur_fwd + dur_bwd + up, lambda: self._begin_cycle(m))

    def _server_state(self, m: int, state: WorkerState) -> None:
        reply = self.server.handle_state(state)
        self.trace.record(self.sim.now, "state", m, version=self.server.version, value=state.loss)
        down = self.network.transfer_time(m, _REQUEST_BYTES)
        self.sim.schedule(down, lambda: self._worker_compensation(m, reply), label=f"comp-{m}")

    def _worker_compensation(self, m: int, reply: Optional[CompensationReply]) -> None:
        worker = self.workers[m]
        dur_bwd = self.compute.duration(m, fraction=2.0 / 3.0)
        with self.timer.section("worker-compute"):
            payload = worker.backward(
                reply=reply,
                lc_lambda=self.config.lc_lambda,
                compensation=self.config.compensation,
                t_comp=dur_bwd,
            )
        up = self.network.transfer_time(m, self.model_bytes)
        self.sim.schedule(
            dur_bwd + up, lambda: self._server_gradient(m, payload), label=f"grad-{m}"
        )
        # FIFO per connection (see _worker_weights): pull follows the push.
        self.sim.schedule(dur_bwd + up, lambda: self._begin_cycle(m))

    def _server_combined(self, m: int, state: WorkerState, payload: GradientPayload) -> None:
        """Fused state+gradient arrival for the non-LC algorithms."""
        advanced, staleness = self.server.handle_combined(state, payload)
        self._after_gradient(m, payload, advanced, staleness)

    def _server_gradient(self, m: int, payload: GradientPayload) -> None:
        self.trace.record(self.sim.now, "gradient", m, version=self.server.version)
        advanced, staleness = self.server.handle_gradient(payload)
        self._after_gradient(m, payload, advanced, staleness)

    def _after_gradient(
        self, m: int, payload: GradientPayload, advanced: bool, staleness: int
    ) -> None:
        self.trace.record(
            self.sim.now,
            "update",
            m,
            version=self.server.version,
            staleness=staleness,
            value=payload.loss,
        )
        # same site, same value as the ClusterTrace update event (and as the
        # concurrent server actor's emission), so the trace's staleness
        # histogram matches RunResult.staleness; t is *virtual* seconds,
        # which is what makes sim traces bit-reproducible
        recorder = self.plan.recorder
        if recorder.enabled and staleness >= 0:
            recorder.emit(
                self.sim.now, "staleness", m,
                value=float(int(staleness)), version=self.server.version,
            )
        if advanced:
            for worker_id, t0 in self.server.drain_pending_pulls():
                self._send_weights(worker_id, t0, self.server.params.copy())
        self.session.maybe_evaluate(self.sim.now)
        if self.server.batches_processed >= self.total_updates:
            self.sim.stop()

    # ------------------------------------------------------------------ #
    def run(self) -> RunResult:
        """Execute the configured run and collect the result."""
        # wall_time is reporting-only, never fed back into the simulation
        # (virtual time drives everything else)  # lint-ok: determinism
        wall_start = time.perf_counter()
        start_jitter = self.rng_tree.child("start").generator("jitter")
        for m in range(self.config.num_workers):
            delay = float(start_jitter.uniform(0.0, 1e-4))
            self.sim.schedule(delay, lambda m=m: self._begin_cycle(m))
        # generous event budget: each update takes a bounded handful of events
        self.sim.run(max_events=40 * self.total_updates + 10_000)

        # degenerate runs (e.g. max_updates smaller than one epoch and the
        # finish-eval raced the stop): take one final snapshot
        self.session.ensure_final_eval(self.sim.now)
        return self.session.build_result(
            self.sim.now,
            backend="sim",
            wall_time=time.perf_counter() - wall_start,  # lint-ok: determinism
        )

    # backward-compat shims (pre-runtime callers/tests) ----------------------------------
    @property
    def _curve(self) -> List[CurvePoint]:
        return self.session.curve

    def _evaluate(self) -> CurvePoint:
        return self.session.evaluate(self.sim.now)

    def _sync_eval_model(self) -> None:
        self.session.sync_eval_model()
