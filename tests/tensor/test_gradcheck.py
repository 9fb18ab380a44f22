"""Central-difference gradient checks for every differentiable op.

These are the ground-truth correctness tests of the autograd engine: any
backward-formula mistake anywhere in the stack fails here first.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, concat, stack
from repro.tensor import functional as F

from tests.conftest import assert_gradcheck, randt


class TestElementwise:
    def test_add_broadcast(self, rng):
        a = randt(rng, 3, 4)
        b = randt(rng, 4)
        assert_gradcheck(lambda: (a + b).sum(), [a, b])

    def test_sub_scalar(self, rng):
        a = randt(rng, 5)
        assert_gradcheck(lambda: (a - 2.5).sum(), [a])
        assert_gradcheck(lambda: (2.5 - a).sum(), [a])

    def test_mul_broadcast(self, rng):
        a = randt(rng, 2, 3)
        b = randt(rng, 3)
        assert_gradcheck(lambda: (a * b).sum(), [a, b])

    def test_div(self, rng):
        a = randt(rng, 4)
        b = Tensor(rng.standard_normal(4) + 3.0, requires_grad=True)
        assert_gradcheck(lambda: (a / b).sum(), [a, b])

    def test_neg(self, rng):
        a = randt(rng, 3)
        assert_gradcheck(lambda: (-a).sum(), [a])

    def test_pow(self, rng):
        a = Tensor(np.abs(rng.standard_normal(5)) + 0.5, requires_grad=True)
        assert_gradcheck(lambda: (a**3).sum(), [a])
        assert_gradcheck(lambda: (a**0.5).sum(), [a])

    def test_exp_log(self, rng):
        a = Tensor(np.abs(rng.standard_normal(4)) + 0.5, requires_grad=True)
        assert_gradcheck(lambda: a.exp().sum(), [a])
        assert_gradcheck(lambda: a.log().sum(), [a])

    def test_sqrt(self, rng):
        a = Tensor(np.abs(rng.standard_normal(4)) + 0.5, requires_grad=True)
        assert_gradcheck(lambda: a.sqrt().sum(), [a])

    def test_tanh_sigmoid(self, rng):
        a = randt(rng, 6)
        assert_gradcheck(lambda: a.tanh().sum(), [a])
        assert_gradcheck(lambda: a.sigmoid().sum(), [a])

    def test_relu_away_from_kink(self, rng):
        data = rng.standard_normal(8)
        data[np.abs(data) < 0.1] = 0.5
        a = Tensor(data, requires_grad=True)
        assert_gradcheck(lambda: a.relu().sum(), [a])

    def test_abs_away_from_kink(self, rng):
        data = rng.standard_normal(8)
        data[np.abs(data) < 0.1] = -0.7
        a = Tensor(data, requires_grad=True)
        assert_gradcheck(lambda: a.abs().sum(), [a])

    def test_clip_interior(self, rng):
        a = Tensor(rng.uniform(-0.4, 0.4, 6), requires_grad=True)
        assert_gradcheck(lambda: a.clip(-0.5, 0.5).sum(), [a])


class TestMatmul:
    def test_mat_mat(self, rng):
        a, b = randt(rng, 3, 4), randt(rng, 4, 5)
        assert_gradcheck(lambda: (a @ b).sum(), [a, b])

    def test_mat_vec(self, rng):
        a, b = randt(rng, 3, 4), randt(rng, 4)
        assert_gradcheck(lambda: (a @ b).sum(), [a, b])

    def test_vec_mat(self, rng):
        a, b = randt(rng, 3), randt(rng, 3, 5)
        assert_gradcheck(lambda: (a @ b).sum(), [a, b])

    def test_vec_vec(self, rng):
        a, b = randt(rng, 4), randt(rng, 4)
        assert_gradcheck(lambda: (a @ b), [a, b])

    def test_batched(self, rng):
        a, b = randt(rng, 2, 3, 4), randt(rng, 2, 4, 5)
        assert_gradcheck(lambda: (a @ b).sum(), [a, b])

    def test_batched_broadcast_rhs(self, rng):
        a, b = randt(rng, 2, 3, 4), randt(rng, 4, 5)
        assert_gradcheck(lambda: (a @ b).sum(), [a, b])

    def test_batched_mat_vec(self, rng):
        a, b = randt(rng, 2, 3, 4), randt(rng, 4)
        assert_gradcheck(lambda: (a @ b).sum(), [a, b])


class TestReductions:
    def test_sum_all(self, rng):
        a = randt(rng, 3, 4)
        assert_gradcheck(lambda: a.sum(), [a])

    def test_sum_axis(self, rng):
        a = randt(rng, 3, 4)
        assert_gradcheck(lambda: (a.sum(axis=0) ** 2).sum(), [a])
        assert_gradcheck(lambda: (a.sum(axis=1, keepdims=True) ** 2).sum(), [a])

    def test_sum_multi_axis(self, rng):
        a = randt(rng, 2, 3, 4)
        assert_gradcheck(lambda: (a.sum(axis=(0, 2)) ** 2).sum(), [a])

    def test_mean(self, rng):
        a = randt(rng, 3, 4)
        assert_gradcheck(lambda: (a.mean(axis=1) ** 2).sum(), [a])
        assert_gradcheck(lambda: a.mean(), [a])

    def test_max_unique(self, rng):
        # ensure unique maxima so the subgradient is unambiguous
        data = rng.permutation(12).astype(np.float64).reshape(3, 4)
        a = Tensor(data, requires_grad=True)
        assert_gradcheck(lambda: (a.max(axis=1) ** 2).sum(), [a])
        assert_gradcheck(lambda: a.max(), [a])

    def test_var(self, rng):
        a = randt(rng, 4, 5)
        assert_gradcheck(lambda: a.var(axis=0).sum(), [a])


class TestShapeOps:
    def test_reshape(self, rng):
        a = randt(rng, 3, 4)
        assert_gradcheck(lambda: (a.reshape(2, 6) ** 2).sum(), [a])
        assert_gradcheck(lambda: (a.reshape((12,)) ** 2).sum(), [a])

    def test_transpose(self, rng):
        a = randt(rng, 3, 4, 2)
        assert_gradcheck(lambda: (a.transpose() ** 2).sum(), [a])
        assert_gradcheck(lambda: (a.transpose(1, 0, 2) ** 2).sum(), [a])

    def test_getitem_slice(self, rng):
        a = randt(rng, 4, 5)
        assert_gradcheck(lambda: (a[1:3, ::2] ** 2).sum(), [a])

    def test_getitem_advanced(self, rng):
        a = randt(rng, 4, 5)
        idx = (np.array([0, 2, 3]), np.array([1, 1, 4]))
        assert_gradcheck(lambda: (a[idx] ** 2).sum(), [a])

    def test_pad2d(self, rng):
        a = randt(rng, 2, 3, 4, 4)
        assert_gradcheck(lambda: (a.pad2d(1) ** 2).sum(), [a])

    def test_concat(self, rng):
        a, b = randt(rng, 2, 3), randt(rng, 2, 2)
        assert_gradcheck(lambda: (concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack(self, rng):
        a, b = randt(rng, 2, 3), randt(rng, 2, 3)
        assert_gradcheck(lambda: (stack([a, b], axis=1) ** 2).sum(), [a, b])


class TestFunctional:
    def test_softmax(self, rng):
        a = randt(rng, 3, 5)
        assert_gradcheck(lambda: (F.softmax(a) ** 2).sum(), [a])

    def test_log_softmax(self, rng):
        a = randt(rng, 3, 5)
        assert_gradcheck(lambda: (F.log_softmax(a) ** 2).sum(), [a])

    def test_cross_entropy_mean(self, rng):
        a = randt(rng, 4, 6)
        y = np.array([0, 5, 2, 3])
        assert_gradcheck(lambda: F.cross_entropy(a, y), [a])

    def test_cross_entropy_sum(self, rng):
        a = randt(rng, 3, 4)
        y = np.array([1, 0, 3])
        assert_gradcheck(lambda: F.cross_entropy(a, y, reduction="sum"), [a])

    def test_mse(self, rng):
        a = randt(rng, 4, 3)
        target = rng.standard_normal((4, 3))
        assert_gradcheck(lambda: F.mse_loss(a, target), [a])

    def test_linear(self, rng):
        x, w, b = randt(rng, 4, 3), randt(rng, 5, 3), randt(rng, 5)
        assert_gradcheck(lambda: (F.linear(x, w, b) ** 2).sum(), [x, w, b])

    def test_conv2d(self, rng):
        x, w, b = randt(rng, 2, 3, 6, 6), randt(rng, 4, 3, 3, 3), randt(rng, 4)
        assert_gradcheck(lambda: (F.conv2d(x, w, b, stride=1, padding=1) ** 2).sum(), [x, w, b])

    def test_conv2d_stride2_nopad(self, rng):
        x, w = randt(rng, 2, 2, 7, 7), randt(rng, 3, 2, 3, 3)
        assert_gradcheck(lambda: (F.conv2d(x, w, stride=2, padding=0) ** 2).sum(), [x, w])

    def test_conv2d_1x1(self, rng):
        x, w = randt(rng, 2, 3, 4, 4), randt(rng, 5, 3, 1, 1)
        assert_gradcheck(lambda: (F.conv2d(x, w) ** 2).sum(), [x, w])

    def test_max_pool(self, rng):
        data = rng.permutation(2 * 2 * 6 * 6).astype(np.float64).reshape(2, 2, 6, 6)
        x = Tensor(data, requires_grad=True)
        assert_gradcheck(lambda: (F.max_pool2d(x, 2) ** 2).sum(), [x])

    def test_avg_pool(self, rng):
        x = randt(rng, 2, 3, 6, 6)
        assert_gradcheck(lambda: (F.avg_pool2d(x, 3) ** 2).sum(), [x])

    def test_global_avg_pool(self, rng):
        x = randt(rng, 2, 3, 5, 5)
        assert_gradcheck(lambda: (F.global_avg_pool2d(x) ** 2).sum(), [x])

    def test_batch_norm_train_2d(self, rng):
        x, g, b = randt(rng, 6, 4), randt(rng, 4), randt(rng, 4)
        assert_gradcheck(lambda: (F.batch_norm(x, g, b, training=True)[0] ** 2).sum(), [x, g, b])

    def test_batch_norm_train_4d(self, rng):
        x, g, b = randt(rng, 3, 2, 4, 4), randt(rng, 2), randt(rng, 2)
        assert_gradcheck(lambda: (F.batch_norm(x, g, b, training=True)[0] ** 2).sum(), [x, g, b])

    def test_batch_norm_eval(self, rng):
        x, g, b = randt(rng, 5, 3), randt(rng, 3), randt(rng, 3)
        mean = rng.standard_normal(3)
        var = np.abs(rng.standard_normal(3)) + 0.5
        assert_gradcheck(
            lambda: (
                F.batch_norm(x, g, b, running_mean=mean, running_var=var, training=False)[0] ** 2
            ).sum(),
            [x, g, b],
        )


class TestGraphMechanics:
    def test_gradient_accumulates_over_reuse(self, rng):
        a = randt(rng, 3)
        assert_gradcheck(lambda: (a * a + a).sum(), [a])

    def test_diamond_graph(self, rng):
        a = randt(rng, 4)
        def loss():
            b = a * 2.0
            c = a + 1.0
            return (b * c).sum()
        assert_gradcheck(loss, [a])

    def test_deep_chain(self, rng):
        a = randt(rng, 3)
        def loss():
            x = a
            for _ in range(30):
                x = x * 0.9 + 0.01
            return x.sum()
        assert_gradcheck(loss, [a])
