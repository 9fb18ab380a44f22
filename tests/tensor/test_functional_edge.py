"""Edge cases and error handling of the functional primitives."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor import functional as F


def test_cross_entropy_validates_shapes(rng):
    logits = Tensor(rng.standard_normal((4, 3)))
    with pytest.raises(ValueError, match="2-D logits"):
        F.cross_entropy(Tensor(rng.standard_normal(4)), np.array([0]))
    with pytest.raises(ValueError, match="batch size"):
        F.cross_entropy(logits, np.array([0, 1]))
    with pytest.raises(ValueError, match="out of range"):
        F.cross_entropy(logits, np.array([0, 1, 2, 3]))
    with pytest.raises(ValueError, match="reduction"):
        F.cross_entropy(logits, np.array([0, 1, 2, 0]), reduction="bogus")


def test_cross_entropy_matches_manual(rng):
    logits = Tensor(rng.standard_normal((8, 5)))
    y = rng.integers(0, 5, 8)
    loss = F.cross_entropy(logits, y)
    probs = np.exp(logits.data) / np.exp(logits.data).sum(1, keepdims=True)
    manual = -np.log(probs[np.arange(8), y]).mean()
    assert float(loss.data) == pytest.approx(manual, rel=1e-6)


def test_cross_entropy_stable_with_huge_logits():
    logits = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
    loss = F.cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(float(loss.data))
    assert float(loss.data) == pytest.approx(0.0, abs=1e-6)


def test_softmax_rows_sum_to_one(rng):
    s = F.softmax(Tensor(rng.standard_normal((6, 9))))
    np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(6), rtol=1e-6)


def test_conv_shape_validation(rng):
    x = Tensor(rng.standard_normal((2, 3, 5, 5)))
    w_bad = Tensor(rng.standard_normal((4, 2, 3, 3)))
    with pytest.raises(ValueError, match="channels"):
        F.conv2d(x, w_bad)
    with pytest.raises(ValueError, match="4-D input"):
        F.conv2d(Tensor(rng.standard_normal((3, 5, 5))), w_bad)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)))
    with pytest.raises(ValueError, match="padding"):
        F.conv2d(x, w, padding=-1)
    big = Tensor(rng.standard_normal((4, 3, 9, 9)))
    with pytest.raises(ValueError, match="kernel larger"):
        F.conv2d(x, big)


def test_conv_output_shape(rng):
    x = Tensor(rng.standard_normal((2, 3, 8, 8)))
    w = Tensor(rng.standard_normal((5, 3, 3, 3)))
    assert F.conv2d(x, w, stride=1, padding=1).shape == (2, 5, 8, 8)
    assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)
    assert F.conv2d(x, w, stride=1, padding=0).shape == (2, 5, 6, 6)


def test_conv_matches_naive_reference(rng):
    """im2col conv must equal the direct quadruple-loop definition."""
    x = rng.standard_normal((2, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    out = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    expected = np.zeros_like(out)
    for n in range(2):
        for f in range(3):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    patch = xp[n, :, i * 2 : i * 2 + 3, j * 2 : j * 2 + 3]
                    expected[n, f, i, j] = (patch * w[f]).sum()
    np.testing.assert_allclose(out, expected, rtol=1e-6)


def test_max_pool_matches_naive(rng):
    x = rng.standard_normal((1, 2, 6, 6))
    out = F.max_pool2d(Tensor(x), 2).data
    expected = x.reshape(1, 2, 3, 2, 3, 2).max(axis=(3, 5))
    np.testing.assert_allclose(out, expected)


def test_avg_pool_matches_naive(rng):
    x = rng.standard_normal((1, 2, 6, 6))
    out = F.avg_pool2d(Tensor(x), 3).data
    expected = x.reshape(1, 2, 2, 3, 2, 3).mean(axis=(3, 5))
    np.testing.assert_allclose(out, expected, rtol=1e-6)


def test_batch_norm_normalizes(rng):
    x = Tensor(rng.standard_normal((64, 5)) * 3.0 + 2.0)
    g = Tensor(np.ones(5)); b = Tensor(np.zeros(5))
    out, mean, var = F.batch_norm(x, g, b, training=True)
    np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(5), atol=1e-6)
    np.testing.assert_allclose(out.data.std(axis=0), np.ones(5), atol=1e-2)
    np.testing.assert_allclose(mean, x.data.mean(axis=0), rtol=1e-6)


def test_batch_norm_eval_requires_stats(rng):
    x = Tensor(rng.standard_normal((4, 3)))
    g = Tensor(np.ones(3)); b = Tensor(np.zeros(3))
    with pytest.raises(ValueError, match="running statistics"):
        F.batch_norm(x, g, b, training=False)


def test_batch_norm_rejects_3d(rng):
    x = Tensor(rng.standard_normal((4, 3, 2)))
    g = Tensor(np.ones(3)); b = Tensor(np.zeros(3))
    with pytest.raises(ValueError, match="2-D or 4-D"):
        F.batch_norm(x, g, b)


def test_no_grad_disables_graph(rng):
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    with no_grad():
        assert not is_grad_enabled()
        y = (x * 2.0).sum()
    assert not y.requires_grad
    assert is_grad_enabled()


def test_no_grad_restores_on_exception():
    try:
        with no_grad():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert is_grad_enabled()
