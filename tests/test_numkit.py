import math

import numpy as np
import pytest

from hwsynth.numkit import (
    ActivationKind,
    ContractViolation,
    MaskedLinear,
    NumericAbort,
    activation_backward,
    activation_forward,
    make_rng,
    sgd_step,
)
from oracles import fd_layer_gradients, max_rel_err


class TestActivations:
    def test_sigmoid_zero(self):
        assert activation_forward(ActivationKind.SIGMOID, np.array([0.0]))[0] == 0.5

    def test_tanh_and_relu(self):
        assert activation_forward(ActivationKind.TANH, np.array([0.0]))[0] == 0.0
        assert activation_forward(ActivationKind.RELU, np.array([-1.0]))[0] == 0.0

    def test_sigmoid_derivative_at_zero(self):
        out = activation_forward(ActivationKind.SIGMOID, np.array([0.0]))
        d = activation_backward(ActivationKind.SIGMOID, out, np.array([1.0]))
        assert d[0] == pytest.approx(0.25)

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_derivative_matches_fd(self, kind):
        rng = make_rng(11)
        v = rng.uniform(-2, 2, size=64)
        v = v[np.abs(v) > 1e-3]  # stay away from the relu kink
        eps = 1e-6
        fd = (activation_forward(kind, v + eps) - activation_forward(kind, v - eps)) / (2 * eps)
        out = activation_forward(kind, v)
        assert max_rel_err(activation_backward(kind, out, np.ones_like(v)), fd) < 1e-6

    def test_sigmoid_extreme_inputs_stable(self):
        out = activation_forward(ActivationKind.SIGMOID, np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0


def small_layer(seed, out_dim=3, in_dim=2, density=0.6):
    rng = make_rng(seed)
    layer = MaskedLinear(
        w=rng.standard_normal((out_dim, in_dim)),
        mask=(rng.random((out_dim, in_dim)) < density).astype(float),
        b=rng.standard_normal(out_dim),
        name=f"t{seed}")
    return layer, rng


class TestMaskedAffine:
    def test_fully_pruned_is_zero(self):
        layer = MaskedLinear(w=np.ones((2, 3)), mask=np.zeros((2, 3)),
                             b=np.zeros(2))
        assert np.array_equal(layer.forward(np.ones(3)), np.zeros(2))

    def test_all_one_mask_matches_dense(self):
        rng = make_rng(5)
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        layer = MaskedLinear(w=w.copy(), mask=np.ones((4, 3)), b=b.copy())
        x = rng.standard_normal(3)
        assert np.allclose(layer.forward(x), w @ x + b)

    def test_hand_evaluation(self):
        layer = MaskedLinear(w=np.array([[1.0, 2.0], [3.0, 4.0]]),
                             mask=np.array([[1.0, 0.0], [0.0, 1.0]]),
                             b=np.zeros(2))
        assert np.array_equal(layer.forward(np.array([1.0, 1.0])),
                              np.array([1.0, 4.0]))

    def test_length_mismatch(self):
        layer, _ = small_layer(1)
        with pytest.raises(ContractViolation):
            layer.forward(np.ones(5))

    def test_zero_upstream_gradient(self):
        layer, rng = small_layer(2)
        before = layer.grad_w.copy()
        dx = layer.backward(rng.standard_normal((1, 2)), np.zeros((1, 3)))
        assert np.array_equal(dx, np.zeros((1, 2)))
        assert np.array_equal(layer.grad_w, before)

    def test_dense_transpose_rule(self):
        rng = make_rng(3)
        layer = MaskedLinear(w=rng.standard_normal((3, 2)),
                             mask=np.ones((3, 2)), b=np.zeros(3))
        dy = rng.standard_normal(3)
        dx = layer.backward(rng.standard_normal((1, 2)), dy[None])
        assert np.allclose(dx[0], layer.w.T @ dy)

    def test_gradients_match_fd_including_dormant(self):
        layer, rng = small_layer(4)
        x = rng.standard_normal(2)
        r = rng.standard_normal(3)  # random linear functional as scalar loss
        layer.backward(x[None], r[None])
        fd = fd_layer_gradients(layer, lambda: float(r @ layer.forward(x)))
        assert max_rel_err(layer.grad_w, fd, floor=1e-6) < 1e-6

    def test_gradient_fidelity_random_layers(self):
        # invariant: all entries, masked and dormant, match fd at 1e-5
        for seed in range(10):
            layer, rng = small_layer(100 + seed, out_dim=4, in_dim=5, density=0.5)
            x = rng.standard_normal(5)
            r = rng.standard_normal(4)
            layer.backward(x[None], r[None])
            fd = fd_layer_gradients(layer, lambda: float(r @ layer.forward(x)))
            assert max_rel_err(layer.grad_w, fd, floor=1e-6) < 1e-5

    def test_batched_backward_matches_sum_of_vectors(self):
        layer, rng = small_layer(9)
        xs = rng.standard_normal((4, 2))
        dys = rng.standard_normal((4, 3))
        layer.backward(xs, dys)
        batched = layer.grad_w.copy()
        layer.zero_grads()
        for x, dy in zip(xs, dys):
            layer.backward(x[None], dy[None])
        assert np.allclose(layer.grad_w, batched)

    def test_backward_refuses_vectors(self):
        layer, rng = small_layer(10)
        with pytest.raises(ContractViolation):
            layer.backward(rng.standard_normal(2), rng.standard_normal(3))
        with pytest.raises(ContractViolation):
            layer.backward(rng.standard_normal((1, 2)), rng.standard_normal(3))


class TestSgdStep:
    def test_lr_zero_no_change(self):
        layer, rng = small_layer(6)
        layer.backward(rng.standard_normal((1, 2)), rng.standard_normal((1, 3)))
        before = layer.w.copy()
        sgd_step(layer, lr=0.0)
        assert np.array_equal(layer.w, before)

    def test_fully_masked_stays_zero(self):
        layer = MaskedLinear(w=np.ones((2, 2)), mask=np.zeros((2, 2)),
                             b=np.zeros(2))
        layer.grad_w[...] = 1.0
        sgd_step(layer, lr=0.5)
        assert np.array_equal(layer.w, np.zeros((2, 2)))

    def test_hand_arithmetic(self):
        layer = MaskedLinear(w=np.array([[1.0]]), mask=np.ones((1, 1)),
                             b=np.zeros(1))
        layer.grad_w[0, 0] = 0.5
        sgd_step(layer, lr=0.1, weight_decay=0.0)
        assert layer.w[0, 0] == pytest.approx(0.95)

    def test_clears_gradients(self):
        layer, rng = small_layer(7)
        layer.backward(rng.standard_normal((1, 2)), rng.standard_normal((1, 3)))
        sgd_step(layer, lr=0.01)
        assert np.array_equal(layer.grad_w, np.zeros_like(layer.grad_w))
        assert np.array_equal(layer.grad_b, np.zeros_like(layer.grad_b))

    def test_mask_consistency_after_step(self):
        for seed in range(5):
            layer, rng = small_layer(seed, 6, 5, density=0.4)
            layer.backward(rng.standard_normal((1, 5)), rng.standard_normal((1, 6)))
            sgd_step(layer, lr=0.3, weight_decay=0.01)
            assert np.all(layer.w[layer.mask == 0.0] == 0.0)

    def test_nonfinite_gradient_names_layer(self):
        layer, _ = small_layer(8)
        layer.grad_w[0, 0] = math.nan
        with pytest.raises(NumericAbort, match="t8"):
            sgd_step(layer, lr=0.1)
