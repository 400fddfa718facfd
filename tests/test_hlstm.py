import math

import numpy as np
import pytest

from hwsynth.growprune import coordinated_rc_prune_counts
from hwsynth.hlstm import (
    GATES,
    HLSTMCellParams,
    HLSTMState,
    LMModel,
    bptt,
    cell_backward,
    cell_forward,
    perplexity,
    softmax,
    unroll_forward,
)
from hwsynth.numkit import ContractViolation, MaskedLinear, make_rng
from oracles import (
    fd_dense_gradients,
    fd_layer_gradients,
    max_rel_err,
    per_gate_cell_step,
)


def zeroed_cell(d_x=2, d_s=3, d_h=2):
    rng = make_rng(0)
    cell = HLSTMCellParams.create(d_x, d_s, d_h, rng)
    for layer in cell.layers():
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    return cell


def random_model(seed, vocab, d_x, d_s, d_h, density=0.7, T=4, batch=1):
    """Sparse random model with nonzero biases (keeps relu pre-activations
    away from the kink at exactly zero, where fd oracles are undefined)."""
    rng = make_rng(seed)
    model = LMModel.create(vocab, d_x, d_s, d_h, rng)
    for layer in model.masked_layers():
        layer.mask[...] = rng.random(layer.mask.shape) < density
        layer.b[...] = rng.uniform(-0.3, 0.3, size=layer.b.shape)
        layer.apply_mask()
    tokens = rng.integers(0, vocab, size=(batch, T))
    targets = rng.integers(0, vocab, size=(batch, T))
    return model, tokens, targets


def total_nll(model, tokens, targets):
    logits, _, _ = unroll_forward(model, tokens)
    probs = softmax(logits)
    B, T = tokens.shape
    rows = np.repeat(np.arange(B), T)
    cols = np.tile(np.arange(T), B)
    return float(-np.log(probs[rows, cols, targets.reshape(-1)]).sum())


class TestCellForward:
    def test_all_zero_weights(self):
        cell = zeroed_cell()
        c_prev = np.array([[0.2, -0.4, 1.0]])
        state, _ = cell_forward(cell, np.ones((1, 2)),
                                HLSTMState(h=np.zeros((1, 3)), c=c_prev))
        assert np.allclose(state.c, 0.5 * c_prev)
        assert np.allclose(state.h, 0.5 * np.tanh(0.5 * c_prev))

    def test_scalar_cell_hand_trace(self):
        rng = make_rng(1)
        cell = HLSTMCellParams.create(1, 1, 1, rng)
        vals = {"f": (0.3, -0.2, 0.5, 0.1), "i": (0.7, 0.4, -0.6, 0.2),
                "o": (-0.5, 0.6, 0.8, -0.1), "g": (0.2, 0.9, -0.4, 0.3)}
        for gate, (wh1, wh2, wo, bo) in vals.items():
            cell.h_layers[gate].w[...] = [[wh1, wh2]]
            cell.h_layers[gate].b[...] = 0.05
            cell.o_layers[gate].w[...] = [[wo]]
            cell.o_layers[gate].b[...] = bo
        x, h0, c0 = 0.4, -0.3, 0.6
        state, _ = cell_forward(cell, np.array([[x]]),
                                HLSTMState(h=np.array([[h0]]), c=np.array([[c0]])))
        # independent hand evaluation of the six-equation chain
        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))
        acts = {}
        for gate, (wh1, wh2, wo, bo) in vals.items():
            hidden = max(wh1 * x + wh2 * h0 + 0.05, 0.0)
            acts[gate] = wo * hidden + bo
        f, i, o = sig(acts["f"]), sig(acts["i"]), sig(acts["o"])
        g = math.tanh(acts["g"])
        c = f * c0 + i * g
        h = o * math.tanh(c)
        assert state.c[0, 0] == pytest.approx(c, rel=1e-12)
        assert state.h[0, 0] == pytest.approx(h, rel=1e-12)

    def test_zero_cell_state_and_zero_g_weights(self):
        rng = make_rng(2)
        cell = HLSTMCellParams.create(2, 3, 2, rng)
        cell.o_layers["g"].w[...] = 0.0
        cell.o_layers["g"].b[...] = 0.0
        state, _ = cell_forward(cell, rng.standard_normal((1, 2)), HLSTMState.zeros(3, 1))
        assert np.array_equal(state.c, np.zeros((1, 3)))
        assert np.array_equal(state.h, np.zeros((1, 3)))

    def test_gate_bounds(self):
        rng = make_rng(3)
        cell = HLSTMCellParams.create(3, 4, 5, rng)
        state = HLSTMState.zeros(4, 1)
        for _ in range(20):
            state, cache = cell_forward(cell, rng.uniform(-3, 3, size=(1, 3)), state)
            assert np.all(np.abs(state.h) < 1.0)
            sig = cache.gate_out[:3]    # f, i, o
            assert np.all((sig > 0) & (sig < 1))

    def test_pruned_input_column_invariance(self):
        rng = make_rng(5)
        cell = HLSTMCellParams.create(4, 3, 3, rng)
        j = 2
        for gate in GATES:
            cell.h_layers[gate].mask[:, j] = 0.0
            cell.h_layers[gate].apply_mask()
        x = rng.standard_normal((1, 4))
        prev = HLSTMState(h=rng.standard_normal((1, 3)), c=rng.standard_normal((1, 3)))
        s1, _ = cell_forward(cell, x, prev)
        x2 = x.copy()
        x2[0, j] = 99.0
        s2, _ = cell_forward(cell, x2, prev)
        assert np.array_equal(s1.h, s2.h)
        assert np.array_equal(s1.c, s2.c)

    def test_eval_mode_bitwise_reproducible(self):
        model, tokens, _ = random_model(6, vocab=5, d_x=2, d_s=3, d_h=3)
        model.dropout_h = 0.5  # must be ignored when train=False
        l1, _, _ = unroll_forward(model, tokens, train=False)
        l2, _, _ = unroll_forward(model, tokens, train=False)
        assert l1.tobytes() == l2.tobytes()

    def test_vector_step_rejected(self):
        cell = zeroed_cell()
        with pytest.raises(ContractViolation):
            cell_forward(cell, np.ones(2), HLSTMState.zeros(3, 1))


class TestCellBackward:
    def test_zero_upstream(self):
        rng = make_rng(7)
        cell = HLSTMCellParams.create(2, 3, 2, rng)
        _, cache = cell_forward(cell, rng.standard_normal((1, 2)), HLSTMState.zeros(3, 1))
        d_x, d_prev = cell_backward(cell, cache, np.zeros((1, 3)), np.zeros((1, 3)))
        assert np.array_equal(d_x, np.zeros((1, 2)))
        assert np.array_equal(d_prev.h, np.zeros((1, 3)))
        for layer in cell.layers():
            assert np.array_equal(layer.grad_w, np.zeros_like(layer.grad_w))

    def test_zero_weight_cell_c_prev_gradient(self):
        cell = zeroed_cell(d_x=2, d_s=3, d_h=2)
        c_prev = np.array([[0.1, 0.2, 0.3]])
        _, cache = cell_forward(cell, np.ones((1, 2)),
                                HLSTMState(h=np.zeros((1, 3)), c=c_prev))
        d_c = np.array([[1.0, -2.0, 0.5]])
        _, d_prev = cell_backward(cell, cache, np.zeros((1, 3)), d_c)
        assert np.allclose(d_prev.c, 0.5 * d_c)  # c_t = 0.5 * c_prev

    def test_cache_reuse_rejected(self):
        rng = make_rng(8)
        cell = HLSTMCellParams.create(2, 2, 2, rng)
        _, cache = cell_forward(cell, rng.standard_normal((1, 2)), HLSTMState.zeros(2, 1))
        cell_backward(cell, cache, np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ContractViolation):
            cell_backward(cell, cache, np.zeros((1, 2)), np.zeros((1, 2)))

    def test_parameter_gradients_match_fd(self):
        rng = make_rng(9)
        cell = HLSTMCellParams.create(3, 4, 5, rng)
        for layer in cell.layers():
            layer.mask[...] = rng.random(layer.mask.shape) < 0.7
            layer.b[...] = rng.uniform(-0.3, 0.3, size=layer.b.shape)
            layer.apply_mask()
        x = rng.standard_normal((1, 3))
        prev = HLSTMState(h=rng.standard_normal((1, 4)) * 0.5,
                          c=rng.standard_normal((1, 4)) * 0.5)
        r_h = rng.standard_normal((1, 4))
        r_c = rng.standard_normal((1, 4))

        def loss():
            state, _ = cell_forward(cell, x, prev)
            return float((r_h * state.h).sum() + (r_c * state.c).sum())

        _, cache = cell_forward(cell, x, prev)
        cell_backward(cell, cache, r_h, r_c)
        for layer in cell.layers():
            fd = fd_layer_gradients(layer, loss)
            assert max_rel_err(layer.grad_w, fd) < 1e-5, layer.name


def pruned_cell(seed, d_x=16, d_s=40, d_h=36):
    """Sparse cell with nonzero biases and some whole units pruned."""
    rng = make_rng(seed)
    cell = HLSTMCellParams.create(d_x, d_s, d_h, rng)
    for layer in cell.layers():
        layer.mask[...] = rng.random(layer.mask.shape) < 0.7
        layer.b[...] = rng.uniform(-0.3, 0.3, size=layer.b.shape)
        layer.apply_mask()
    head = MaskedLinear.dense(9, d_s, rng, name="head")
    coordinated_rc_prune_counts(cell, head, 5, 4)
    return cell, rng


class TestStackedKernelsMatchPerGate:
    """cell_forward/cell_backward against the per-gate reference step."""

    def step_inputs(self, rng, cell, batch):
        return [rng.standard_normal((batch, n)) * 0.7
                for n in (cell.d_x, cell.d_s, cell.d_s, cell.d_s, cell.d_s)]

    def run_both(self, batch, dropout, seed):
        """(key, library array, reference array) for every compared output."""
        cell, rng = pruned_cell(seed)
        assert cell.active_dims() == (35, 32)
        x, h_prev, c_prev, d_h, d_c = self.step_inputs(rng, cell, batch)
        state, cache = cell_forward(cell, x, HLSTMState(h=h_prev, c=c_prev),
                                    train=dropout > 0, rng=make_rng(seed + 1),
                                    dropout_h=dropout)
        d_x, d_prev = cell_backward(cell, cache, d_h, d_c)
        ref = per_gate_cell_step(cell, x, h_prev, c_prev, d_h, d_c,
                                 rng=make_rng(seed + 1), dropout=dropout)
        out = [("h", state.h, ref["h"]), ("c", state.c, ref["c"]),
               ("d_x", d_x, ref["d_x"]), ("d_h_prev", d_prev.h, ref["d_h_prev"]),
               ("d_c_prev", d_prev.c, ref["d_c_prev"])]
        for k, g in enumerate(GATES):
            want = ref["gate_out"][g]
            out.append((f"gate {g}", cache.gate_out[k], want))
        for layer in cell.layers():
            grad_w, grad_b = ref["grads"][layer.name]
            out.append((f"{layer.name}.grad_w", layer.grad_w, grad_w))
            out.append((f"{layer.name}.grad_b", layer.grad_b, grad_b))
        return out

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("batch", [1, 4, 16, 32])
    def test_batched_bitwise(self, batch, dropout):
        for key, got, want in self.run_both(batch, dropout, seed=20 + batch):
            assert got.shape == want.shape and np.array_equal(got, want), key


class TestUnrollAndBptt:
    def test_T1_reduces_to_cell_plus_head(self):
        model, tokens, _ = random_model(10, vocab=5, d_x=2, d_s=3, d_h=3, T=1)
        logits, _, _ = unroll_forward(model, tokens)
        x = model.embedding[tokens[:, 0]]
        state, _ = cell_forward(model.cell, x, HLSTMState.zeros(3, 1))
        assert np.allclose(logits[:, 0], model.head.forward(state.h))

    def test_all_zero_model_uniform_softmax(self):
        rng = make_rng(11)
        model = LMModel.create(2, 2, 2, 2, rng)
        model.embedding[...] = 0.0
        for layer in model.masked_layers():
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        logits, _, _ = unroll_forward(model, np.array([[0, 1, 0]]))
        assert np.array_equal(logits, np.zeros_like(logits))
        assert np.allclose(softmax(logits), 0.5)

    def test_T3_compositional_oracle(self):
        model, tokens, _ = random_model(12, vocab=6, d_x=2, d_s=3, d_h=3, T=3)
        logits, _, _ = unroll_forward(model, tokens)
        state = HLSTMState.zeros(3, 1)
        for t in range(3):
            state, _ = cell_forward(model.cell, model.embedding[tokens[:, t]], state)
            assert np.allclose(logits[:, t], model.head.forward(state.h))

    def test_token_out_of_range(self):
        model, _, _ = random_model(13, vocab=4, d_x=2, d_s=2, d_h=2)
        with pytest.raises(ContractViolation):
            unroll_forward(model, np.array([[0, 4]]))

    def test_unbatched_tokens_rejected(self):
        model, tokens, _ = random_model(13, vocab=4, d_x=2, d_s=2, d_h=2)
        with pytest.raises(ContractViolation):
            unroll_forward(model, tokens[0])

    def test_cells_alias_is_the_cell(self):
        model, _, _ = random_model(13, vocab=4, d_x=2, d_s=2, d_h=2)
        assert model.cells == [model.cell] and model.cells[0] is model.cell

    def test_uniform_logits_nll_is_log_v(self):
        rng = make_rng(14)
        model = LMModel.create(7, 2, 2, 2, rng)
        model.embedding[...] = 0.0
        for layer in model.masked_layers():
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        tokens = rng.integers(0, 7, size=(1, 5))
        targets = rng.integers(0, 7, size=(1, 5))
        logits, caches, _ = unroll_forward(model, tokens)
        loss = bptt(model, logits, caches, tokens, targets)
        assert loss == pytest.approx(5 * math.log(7), rel=1e-12)

    def test_T1_equals_single_step_cross_entropy_gradient(self):
        model, tokens, targets = random_model(15, vocab=4, d_x=2, d_s=2, d_h=2, T=1)
        logits, caches, _ = unroll_forward(model, tokens)
        bptt(model, logits, caches, tokens, targets)
        probs = softmax(logits[0, 0])
        expected = probs.copy()
        expected[targets[0, 0]] -= 1.0
        top_h = caches[0].gate_out[GATES.index("o")][0] * caches[0].tanh_c[0]
        assert np.allclose(model.head.grad_w, np.outer(expected, top_h))

    def test_whole_model_fd(self):
        model, tokens, targets = random_model(16, vocab=4, d_x=2, d_s=3, d_h=3,
                                              T=4, density=0.6)
        logits, caches, _ = unroll_forward(model, tokens)
        bptt(model, logits, caches, tokens, targets)
        loss_fn = lambda: total_nll(model, tokens, targets)
        for layer in model.masked_layers():
            fd = fd_layer_gradients(layer, loss_fn)
            assert max_rel_err(layer.grad_w, fd) < 1e-5, layer.name
        fd_emb = fd_dense_gradients(model.embedding, loss_fn)
        assert max_rel_err(model.embedding_grad, fd_emb) < 1e-5

    def test_batched_matches_sum_of_streams(self):
        model, tokens, targets = random_model(17, vocab=5, d_x=2, d_s=3, d_h=3,
                                              T=3, batch=2)
        logits, caches, _ = unroll_forward(model, tokens)
        loss_b = bptt(model, logits, caches, tokens, targets)
        loss_s = sum(total_nll(model, tokens[b:b + 1], targets[b:b + 1]) for b in range(2))
        assert loss_b == pytest.approx(loss_s, rel=1e-12)


class TestPerplexity:
    def test_uniform_predictor(self):
        assert perplexity(math.log(10)) == pytest.approx(10.0)

    def test_zero_nll(self):
        assert perplexity(0.0) == 1.0

    def test_exp_ln_identity(self):
        assert perplexity(math.log(50)) == pytest.approx(50.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolation):
            perplexity(math.inf)
