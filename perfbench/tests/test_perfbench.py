"""The benchmark's own code: span self time, metric names, host adjustment, failure counting."""

import dataclasses
import inspect
import json
import math
import re
import threading
import time
from pathlib import Path

from perfbench import measure
from perfbench.spans import LAYER_FUNCTIONS, Span, SpanRecorder, covered, layer_metrics, self_times
from perfbench.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: asgd-sim shrunk so a real run takes well under a second yet still learns
TINY = dataclasses.replace(WORKLOADS["asgd-sim"], num_workers=2, max_updates=32)


def _span(span_id, parent, start, end, name="x", thread="t"):
    return Span(span_id, parent, name, thread, start, end, "run")


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0), (-5.0, -1.0)]) == 4.0
        assert covered(0.0, 10.0, []) == 0.0

    def test_self_time_subtracts_only_direct_children(self):
        spans = [
            _span(1, None, 0.0, 10.0),
            _span(2, 1, 1.0, 5.0),
            _span(3, 2, 2.0, 4.0),  # grandchild: charged to span 2, not span 1
            _span(4, 1, 6.0, 7.0),
        ]
        own = self_times(spans)
        assert own == {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0}

    def test_recorder_nests_per_thread(self):
        recorder = SpanRecorder()
        inner = recorder.timed("inner", lambda: time.sleep(0.01))

        def body():
            time.sleep(0.01)
            inner()

        outer = recorder.timed("outer", body)
        threads = [threading.Thread(target=outer) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        by_id = {s.span_id: s for s in recorder.spans}
        own = self_times(recorder.spans)
        inners = [s for s in recorder.spans if s.name == "inner"]
        assert len(inners) == 3
        for s in inners:
            parent = by_id[s.parent_id]
            assert parent.name == "outer" and parent.thread == s.thread
            assert own[parent.span_id] == (parent.end - parent.start) - (s.end - s.start)

    def test_install_wraps_and_restores_every_function(self):
        def current():
            return [inspect.getattr_static(owner, attr) for owner, attr, _ in LAYER_FUNCTIONS]

        before = current()
        with SpanRecorder():
            assert all(now is not was for now, was in zip(current(), before))
        assert all(now is was for now, was in zip(current(), before))


class TestMetricNames:
    def test_names_are_well_formed_and_unique(self):
        catalogue = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in catalogue] + ["fail_frac"]
        assert len(set(names)) == len(names)
        for m in catalogue:
            assert NAME_PATTERN.fullmatch(m["name"]), m["name"]
            assert m["better"] in ("higher", "lower")
            assert m["unit"]
        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

    def test_traced_run_reports_every_layer_metric(self):
        with SpanRecorder() as recorder:
            recorder.run_id = "tiny"
            run = measure.run_once(TINY, seed=3, run_id="tiny", obs=True)
        layers = layer_metrics(TINY, recorder.spans, [run], [run])
        assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
        assert layers["worker.fwd_ms"] > 0 and layers["session.plan_build_ms"] > 0
        assert layers["sim.loop_self_ms"] > 0 and layers["proc.startup_s"] == 0.0

    def test_untraced_run_reports_every_end_to_end_metric(self):
        run = measure.run_once(TINY, seed=3, run_id="tiny")
        e2e = measure.end_to_end(measure.per_run([run]))
        assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(value > 0 for value in e2e.values())


class TestHostAdjustment:
    def test_timings_scale_with_the_reference_loop(self):
        run = measure.run_once(TINY, seed=3, run_id="tiny")
        assert run.reference_s > 0
        # the same run on a host that ran the reference loop twice as slowly
        slow = dataclasses.replace(run, reference_s=2 * run.reference_s)
        now, halved = measure.per_run([run]), measure.per_run([slow])
        for name in ("run_s", "setup_s"):
            assert math.isclose(halved[name][0], now[name][0] / 2)
        assert math.isclose(halved["updates_per_s"][0], 2 * now["updates_per_s"][0])
        assert halved["test_error"] == now["test_error"]
        assert halved["peak_rss_mb"] == now["peak_rss_mb"]
        # a loop that ran in child processes keeps its raw wall time
        children = measure.per_run([dataclasses.replace(slow, loop_adjusted=False)])
        assert math.isclose(children["setup_s"][0], halved["setup_s"][0])
        assert math.isclose(children["updates_per_s"][0], run.updates_per_s)
        assert math.isclose(
            children["run_s"][0], halved["setup_s"][0] + run.result.wall_time
        )


class TestFailureCounting:
    def test_failed_check_raises_fail_frac(self):
        run = measure.run_once(TINY, seed=3, run_id="tiny")
        tally = measure.Tally()
        assert tally.record(measure.check_run(TINY, run))
        assert tally.fail_frac == 0.0
        # the same run judged against a budget it did not complete
        wrong_budget = dataclasses.replace(TINY, max_updates=TINY.max_updates + 1)
        problems = measure.check_run(wrong_budget, run)
        assert problems and not tally.record(problems)
        assert (tally.attempted, tally.failed, tally.fail_frac) == (2, 1, 0.5)

    def test_repeat_check_flags_diverging_curves(self):
        first = measure.run_once(TINY, seed=3, run_id="a")
        second = measure.run_once(TINY, seed=3, run_id="b")
        assert measure.check_repeat(first, second) == []
        second.result.curve[-1] = dataclasses.replace(second.result.curve[-1], test_error=0.5)
        assert measure.check_repeat(first, second)
