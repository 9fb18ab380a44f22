"""The DistributedTrainer: Algorithms 1-4 on the virtual-time simulator.

Real mathematics runs inside virtual-time event callbacks.  The worker
cycle is :func:`repro.runtime.cycle.worker_cycle` and the server side
:func:`repro.runtime.server_actor.serve` — the code every backend runs;
this module only maps them onto :class:`~repro.cluster.simulator.Simulator`
events.  A cycle runs inside its worker's events until it waits for a
reply; pass durations and link times are sampled from the plan's models
(:class:`~repro.runtime.cycle.VirtualTiming`), so ``t_comm`` is the
weights' arrival minus the pull request's issue (Algorithm 1, line 3).  A
message becomes an arrival event that calls ``serve``, whose replies are
scheduled back after a downlink sample.  After a push the worker's next
pull leaves at the push's arrival, after the server handled it: it never
waits for the update yet always sees its own (sequential SGD is exactly
staleness-0).  Ties in virtual time break by insertion order, so runs
reproduce bit for bit.
"""

from __future__ import annotations

import functools
import time
from typing import Optional

from repro.cluster.simulator import Simulator
from repro.core.config import TrainingConfig
from repro.core.metrics import RunResult
from repro.runtime.cycle import Compute, Send, VirtualTiming, start_times, worker_cycle
from repro.runtime.server_actor import serve
from repro.runtime.session import ExperimentPlan, ExperimentSession


class DistributedTrainer:
    """Run one configured experiment end to end and return a RunResult.

    Accepts either a :class:`~repro.core.config.TrainingConfig` (a plan is
    built internally) or a pre-built :class:`~repro.runtime.session.
    ExperimentPlan` via ``plan=`` (how :class:`~repro.runtime.backends.
    SimBackend` drives it).  Plan components are exposed as attributes
    (``workers``, ``server``, ``compute``, ...) for tests and tooling.
    """

    def __init__(self, config: Optional[TrainingConfig] = None, plan=None) -> None:
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
        self.trace = self.session.trace
        self.train_set = plan.train_set
        self.workers = plan.workers
        self.server = plan.server
        self.compute = plan.compute
        self.model_bytes = plan.model_bytes

        self.sim = Simulator()
        self._timings = [
            VirtualTiming(worker, plan.compute, plan.network, plan.timer, start=start)
            for worker, start in zip(plan.workers, start_times(plan))
        ]
        self._cycles = [None] * len(plan.workers)

    # ------------------------------------------------------------------ #
    # the driver: worker cycles and server arrivals as simulator events
    # ------------------------------------------------------------------ #
    def _begin_cycle(self, m: int) -> None:
        self._cycles[m] = worker_cycle(self.workers[m], self.plan, self._timings[m].clock)
        self._advance(m, None)

    def _deliver(self, m: int, message) -> None:
        """A server reply reaches worker ``m``: resume its cycle."""
        self._timings[m].now = self.sim.now
        self._advance(m, message)

    def _advance(self, m: int, value) -> None:
        cycle, timing = self._cycles[m], self._timings[m]
        while True:
            try:
                step = cycle.send(value)
            except StopIteration:
                # FIFO per connection: the next pull leaves with (and is
                # processed after) the gradient push, so a worker always
                # sees its own update
                self.sim.schedule_at(timing.now, functools.partial(self._begin_cycle, m))
                return
            value = None
            if type(step) is Compute:
                value = timing.run(step)
            elif type(step) is Send:
                timing.sending(step.nbytes)
                self.sim.schedule_at(timing.now, functools.partial(self._arrive, step.message))
            else:
                return  # Recv: parked until _to_worker's delivery event

    def _arrive(self, message) -> None:
        """A worker message reaches the server."""
        if serve(self.session, message, self._clock, self._to_worker):
            self.sim.stop()

    def _to_worker(self, m: int, message, nbytes: int) -> None:
        down = self.plan.network.transfer_time(m, nbytes)
        self.sim.schedule(down, functools.partial(self._deliver, m, message))

    def _clock(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------ #
    def run(self) -> RunResult:
        """Execute the configured run and collect the result."""
        # wall_time is reporting-only, never fed back into the simulation
        # (virtual time drives everything else)  # lint-ok: determinism
        wall_start = time.perf_counter()
        for m, timing in enumerate(self._timings):
            self.sim.schedule(timing.now, functools.partial(self._begin_cycle, m))
        # generous event budget: each update takes a bounded handful of events
        self.sim.run(max_events=40 * self.plan.total_updates + 10_000)

        # degenerate runs (e.g. max_updates smaller than one epoch and the
        # finish-eval raced the stop): take one final snapshot
        self.session.ensure_final_eval(self.sim.now)
        return self.session.build_result(
            self.sim.now,
            backend="sim",
            wall_time=time.perf_counter() - wall_start,  # lint-ok: determinism
        )
