"""The shared worker cycle: the sim is pinned, and virtual timing agrees.

``test_sim_pinned`` holds values captured from the simulator before its
worker cycle and server dispatch were shared with the thread and proc
backends, so a refactor of either cannot shift the schedule unnoticed.
Everything scheduling-related is exact (it depends only on the seeded
timing models); losses get a tolerance so other BLAS builds still pass.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import TrainingConfig
from repro.core.server import ParameterServer
from repro.runtime import ExperimentPlan, SimBackend, ThreadBackend

SEED = 11

#: algorithm, M -> staleness, finishing order, total virtual time, and
#: (epoch, train_loss, test_loss) per curve point
PINNED = {
    ("asgd", 4): (
        {"mean": 2.7083333333333335, "median": 3.0, "max": 3.0, "count": 24.0},
        [2, 3, 1, 0, 2, 3, 1, 0, 2, 3, 1, 0, 2, 3, 1, 0, 2, 3, 1, 0, 2, 3, 1, 2],
        0.22081182428803076,
        [
            (1, 2.0951688289642334, 2.336050510406494),
            (2, 1.6197431087493896, 1.9530794620513916),
            (3, 1.2790606021881104, 1.6997431516647339),
        ],
    ),
    ("ssgd", 4): (
        {"mean": 0.0, "median": 0.0, "max": 0.0, "count": 24.0},
        [2, 3, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 2, 3, 1, 0, 2, 1, 3, 0, 2, 3, 1, 0],
        0.2209275224511619,
        [
            (1, 2.6460752487182617, 2.778715133666992),
            (2, 2.4174070358276367, 2.5859549045562744),
            (3, 2.238365888595581, 2.4592342376708984),
        ],
    ),
    ("lc-asgd", 4): (
        {"mean": 2.75, "median": 3.0, "max": 3.0, "count": 24.0},
        [2, 3, 1, 0] * 6,
        0.23454647360877665,
        [
            (1, 2.096666097640991, 2.337458610534668),
            (2, 1.6232554912567139, 1.9581489562988281),
            (3, 1.332716703414917, 1.7368561029434204),
        ],
    ),
    ("sgd", 1): (
        {"mean": 0.0, "median": 0.0, "max": 0.0, "count": 24.0},
        [0] * 24,
        0.7207750791318257,
        [
            (1, 2.085685968399048, 2.382126569747925),
            (2, 1.5882220268249512, 1.9836281538009644),
            (3, 1.2662162780761719, 1.7197078466415405),
        ],
    ),
}


@pytest.mark.parametrize("algorithm,num_workers", sorted(PINNED))
def test_sim_pinned(algorithm, num_workers):
    staleness, order, virtual_time, curve = PINNED[(algorithm, num_workers)]
    cfg = TrainingConfig.tiny(algorithm=algorithm, num_workers=num_workers, seed=SEED)
    result = SimBackend().run(ExperimentPlan.from_config(cfg))

    assert result.staleness == staleness
    assert result.finishing_order == order
    assert Counter(result.finishing_order) == Counter(order)  # per-worker updates
    expected_pairs = len(order) if algorithm == "lc-asgd" else 0
    assert len(result.loss_prediction_pairs) == expected_pairs
    assert result.total_virtual_time == pytest.approx(virtual_time, rel=1e-12, abs=0)
    assert [p.epoch for p in result.curve] == [epoch for epoch, _, _ in curve]
    np.testing.assert_allclose(
        [(p.train_loss, p.test_loss) for p in result.curve],
        [(train, test) for _, train, test in curve],
        rtol=1e-9,
        atol=0,
    )


def _features_seen_by_server(monkeypatch, backend, cfg):
    """Every ``(t_comm, t_comp)`` the server receives, in arrival order."""
    seen = []
    handle_state = ParameterServer.handle_state
    handle_combined = ParameterServer.handle_combined

    def record_state(self, state):
        seen.append((state.t_comm, state.t_comp))
        return handle_state(self, state)

    def record_combined(self, state, payload):
        seen.append((state.t_comm, state.t_comp))
        return handle_combined(self, state, payload)

    with monkeypatch.context() as patch:
        patch.setattr(ParameterServer, "handle_state", record_state)
        patch.setattr(ParameterServer, "handle_combined", record_combined)
        backend.run(ExperimentPlan.from_config(cfg))
    return seen


@pytest.mark.parametrize("algorithm", ["asgd", "lc-asgd"])
def test_virtual_timing_features_match_sim(monkeypatch, algorithm):
    """Deterministic threads sample the sim's link/compute streams in order.

    At M=1 both backends run one schedule, so the step predictor's inputs
    (Algorithm 4) must be bit-identical, cycle after cycle.
    """
    cfg = TrainingConfig.tiny(algorithm=algorithm, num_workers=1, epochs=2, seed=5)
    sim = _features_seen_by_server(monkeypatch, SimBackend(), cfg)
    thread = _features_seen_by_server(
        monkeypatch, ThreadBackend(deterministic=True, timeout=120.0), cfg
    )
    assert len(sim) == cfg.epochs * 8
    assert thread == sim
