import copy
import math
import warnings

import numpy as np
import pytest

from hwsynth.growprune import coordinated_rc_prune_counts
from hwsynth.hlstm import (
    GATES,
    FrozenModel,
    HLSTMCellParams,
    HLSTMState,
    LMModel,
    _BackwardPass,
    _layout,
    _read_units,
    bptt,
    cell_backward,
    cell_forward,
    evaluate,
    freeze,
    perplexity,
    read_dims,
    softmax,
    training_copy,
    unroll_forward,
)
from hwsynth.numkit import ARRAYS, ContractViolation, MaskedLinear, NumericAbort, make_rng
from hwsynth.corpus import batch_windows
from oracles import (
    cell_step,
    cell_step_backward,
    fd_dense_gradients,
    fd_layer_gradients,
    full_shape_forward,
    max_rel_err,
    per_gate_cell_step,
    reference_bptt,
    reference_forward_only,
    rel_max_diff,
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
        state, _ = cell_step(cell, np.ones((1, 2)),
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
        state, _ = cell_step(cell, np.array([[x]]),
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
        state, _ = cell_step(cell, rng.standard_normal((1, 2)), HLSTMState.zeros(3, 1))
        assert np.array_equal(state.c, np.zeros((1, 3)))
        assert np.array_equal(state.h, np.zeros((1, 3)))

    def test_gate_bounds(self):
        rng = make_rng(3)
        cell = HLSTMCellParams.create(3, 4, 5, rng)
        state = HLSTMState.zeros(4, 1)
        for _ in range(20):
            state, rec = cell_step(cell, rng.uniform(-3, 3, size=(1, 3)), state)
            assert np.all(np.abs(state.h) < 1.0)
            sig = rec.gates[0, :3]    # f, i, o
            assert np.all((sig > 0) & (sig < 1))

    def test_saturated_gates_are_exact(self):
        # O pre-activations of +-800: the gates' sigmoid, (1 + tanh(v/2)) / 2,
        # must reach exactly 1.0 and 0.0 without overflowing
        cell = zeroed_cell(d_s=2)
        cell.O.b[:, 0], cell.O.b[:, 1] = 800.0, -800.0
        prev = HLSTMState(h=np.zeros((3, 2)), c=np.full((3, 2), 0.7))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state, rec = cell_step(cell, np.ones((3, 2)), prev)
        sig = rec.gates[0, :3]    # f, i, o
        assert np.all(sig[:, :, 0] == 1.0) and np.all(sig[:, :, 1] == 0.0)
        assert np.all(np.isfinite(state.c)) and np.all(np.isfinite(state.h))

    def test_pruned_input_column_invariance(self):
        rng = make_rng(5)
        cell = HLSTMCellParams.create(4, 3, 3, rng)
        j = 2
        for gate in GATES:
            cell.h_layers[gate].mask[:, j] = 0.0
            cell.h_layers[gate].apply_mask()
        x = rng.standard_normal((1, 4))
        prev = HLSTMState(h=rng.standard_normal((1, 3)), c=rng.standard_normal((1, 3)))
        s1, _ = cell_step(cell, x, prev)
        x2 = x.copy()
        x2[0, j] = 99.0
        s2, _ = cell_step(cell, x2, prev)
        assert np.array_equal(s1.h, s2.h)
        assert np.array_equal(s1.c, s2.c)

    def test_eval_mode_bitwise_reproducible(self):
        model, tokens, _ = random_model(6, vocab=5, d_x=2, d_s=3, d_h=3)
        l1, _, _ = unroll_forward(model, tokens, train=False)
        l2, _, _ = unroll_forward(model, tokens, train=False)
        assert l1.tobytes() == l2.tobytes()

    def test_vector_step_rejected(self):
        cell = zeroed_cell()
        with pytest.raises(ContractViolation):
            cell_step(cell, np.ones(2), HLSTMState.zeros(3, 1))


class TestCellBackward:
    def test_zero_upstream(self):
        rng = make_rng(7)
        cell = HLSTMCellParams.create(2, 3, 2, rng)
        x = rng.standard_normal((1, 2))
        _, rec = cell_step(cell, x, HLSTMState.zeros(3, 1))
        d_x, d_prev = cell_step_backward(cell, rec, x, np.zeros((1, 3)), np.zeros((1, 3)))
        assert np.array_equal(d_x, np.zeros((1, 2)))
        assert np.array_equal(d_prev.h, np.zeros((1, 3)))
        for layer in cell.layers():
            assert np.array_equal(layer.grad_w, np.zeros_like(layer.grad_w))

    def test_zero_weight_cell_c_prev_gradient(self):
        cell = zeroed_cell(d_x=2, d_s=3, d_h=2)
        c_prev = np.array([[0.1, 0.2, 0.3]])
        _, rec = cell_step(cell, np.ones((1, 2)),
                           HLSTMState(h=np.zeros((1, 3)), c=c_prev))
        d_c = np.array([[1.0, -2.0, 0.5]])
        _, d_prev = cell_backward(_BackwardPass(cell, 1), rec, 0, np.zeros((1, 3)), d_c)
        assert np.allclose(d_prev.c, 0.5 * d_c)  # c_t = 0.5 * c_prev

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
            state, _ = cell_step(cell, x, prev)
            return float((r_h * state.h).sum() + (r_c * state.c).sum())

        _, rec = cell_step(cell, x, prev)
        cell_step_backward(cell, rec, x, r_h, r_c)
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

    def run_both(self, batch, seed):
        """(key, library array, reference array) for every compared output."""
        cell, rng = pruned_cell(seed)
        assert cell.active_dims() == (35, 32)
        x, h_prev, c_prev, d_h, d_c = self.step_inputs(rng, cell, batch)
        state, rec = cell_step(cell, x, HLSTMState(h=h_prev, c=c_prev))
        d_x, d_prev = cell_step_backward(cell, rec, x, d_h, d_c)
        ref = per_gate_cell_step(cell, x, h_prev, c_prev, d_h, d_c)
        out = [("h", state.h, ref["h"]), ("c", state.c, ref["c"]),
               ("d_x", d_x, ref["d_x"]), ("d_h_prev", d_prev.h, ref["d_h_prev"]),
               ("d_c_prev", d_prev.c, ref["d_c_prev"])]
        for k, g in enumerate(GATES):
            want = ref["gate_out"][g]
            out.append((f"gate {g}", rec.gates[0, k], want))
        for layer in cell.layers():
            grad_w, grad_b = ref["grads"][layer.name]
            out.append((f"{layer.name}.grad_w", layer.grad_w, grad_w))
            out.append((f"{layer.name}.grad_b", layer.grad_b, grad_b))
        return out

    @pytest.mark.parametrize("batch", [1, 4, 16, 32])
    def test_batched_bitwise(self, batch):
        for key, got, want in self.run_both(batch, seed=20 + batch):
            assert got.shape == want.shape and rel_max_diff(got, want) <= 1e-12, key


class TestUnrollAndBptt:
    def test_T1_reduces_to_cell_plus_head(self):
        model, tokens, _ = random_model(10, vocab=5, d_x=2, d_s=3, d_h=3, T=1)
        logits, _, _ = unroll_forward(model, tokens)
        x = model.embedding[tokens[:, 0]]
        state, _ = cell_step(model.cell, x, HLSTMState.zeros(3, 1))
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
            state, _ = cell_step(model.cell, model.embedding[tokens[:, t]], state)
            assert np.allclose(logits[:, t], model.head.forward(state.h))

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("entry", ["train", "forward", "evaluate", "cell_forward"])
    def test_token_out_of_range(self, entry, bad):
        # the steps gather table rows unchecked (mode="clip"), so without the
        # check an id past either end would silently read the first or last row
        model, _, _ = random_model(13, vocab=4, d_x=2, d_s=2, d_h=2)
        tokens = np.array([[0, 1, 2], [3, bad, 0]])
        with pytest.raises(ContractViolation, match="vocabulary"):
            if entry == "train":
                unroll_forward(model, tokens, train=True)
            elif entry == "forward":
                unroll_forward(model, tokens)
            elif entry == "evaluate":
                evaluate(model, np.array([0, bad, 2, 3, 1, 0, 2]), seq_len=3)
            else:
                table, operands = _layout(model.cell, model.embedding)
                cell_forward(operands, table, np.ascontiguousarray(tokens.T),
                             HLSTMState.zeros(2, 2), np.empty((3, 2, 2)))

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
        logits, caches, _ = unroll_forward(model, tokens, train=True)
        loss = bptt(model, logits, caches, tokens, targets)
        assert loss == pytest.approx(5 * math.log(7), rel=1e-12)

    def test_T1_equals_single_step_cross_entropy_gradient(self):
        model, tokens, targets = random_model(15, vocab=4, d_x=2, d_s=2, d_h=2, T=1)
        logits, caches, _ = unroll_forward(model, tokens, train=True)
        bptt(model, logits, caches, tokens, targets)
        probs = softmax(logits[0, 0])
        expected = probs.copy()
        expected[targets[0, 0]] -= 1.0
        top_h = caches.gates[0, GATES.index("o"), 0] * caches.tanh_c[0, 0]
        assert np.allclose(model.head.grad_w, np.outer(expected, top_h))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_whole_model_fd(self, batch):
        # at batch 3 tokens repeat across batch and time, so the head, the x
        # part of H and the embedding gradient each sum over repeated rows
        model, tokens, targets = random_model(16, vocab=4, d_x=2, d_s=3, d_h=3,
                                              T=5, density=0.6, batch=batch)
        logits, caches, _ = unroll_forward(model, tokens, train=True)
        bptt(model, logits, caches, tokens, targets)
        loss_fn = lambda: total_nll(model, tokens, targets)
        for layer in model.masked_layers():
            fd = fd_layer_gradients(layer, loss_fn)
            assert max_rel_err(layer.grad_w, fd) < 1e-5, layer.name
        fd_emb = fd_dense_gradients(model.embedding, loss_fn)
        assert max_rel_err(model.embedding_grad, fd_emb) < 1e-5

    @pytest.mark.parametrize("poison,train", [("embedding", False), ("embedding", True),
                                              ("init", True)])
    def test_non_finite_cell_state_aborts(self, poison, train):
        model, tokens, _ = random_model(18, vocab=5, d_x=2, d_s=3, d_h=3, T=4, batch=2)
        init = None
        if poison == "embedding":
            model.embedding[tokens[1, 2]] = np.nan
        else:
            init = HLSTMState(h=np.zeros((2, 3)), c=np.full((2, 3), np.inf))
        with pytest.raises(NumericAbort, match="non-finite value in cell state"):
            unroll_forward(model, tokens, init=init, train=train)

    def test_recording_reuse_rejected(self):
        model, tokens, targets = random_model(8, vocab=4, d_x=2, d_s=2, d_h=2, T=3, batch=2)
        logits, rec, _ = unroll_forward(model, tokens, train=True)
        bptt(model, logits, rec, tokens, targets)
        grads = [layer.grad_w.copy() for layer in model.masked_layers()]
        with pytest.raises(ContractViolation, match="consumed"):
            bptt(model, logits, rec, tokens, targets)
        for layer, before in zip(model.masked_layers(), grads):
            assert np.array_equal(layer.grad_w, before), layer.name

    def test_batched_matches_sum_of_streams(self):
        model, tokens, targets = random_model(17, vocab=5, d_x=2, d_s=3, d_h=3,
                                              T=3, batch=2)
        logits, caches, _ = unroll_forward(model, tokens, train=True)
        loss_b = bptt(model, logits, caches, tokens, targets)
        loss_s = sum(total_nll(model, tokens[b:b + 1], targets[b:b + 1]) for b in range(2))
        assert loss_b == pytest.approx(loss_s, rel=1e-12)


def unread_model(seed, vocab=9, d_x=5, d_s=14, d_h=12):
    """Sparse model with nonzero biases and units of three kinds:
    rc-pruned (cut out by coordinated_rc_prune_counts), emptied but read
    (all incoming connections gone, as wp leaves them, yet a nonzero bias
    and live outgoing columns), read by the head alone, and unread (live
    incoming connections, no live outgoing column)."""
    rng = make_rng(seed)
    model = LMModel.create(vocab, d_x, d_s, d_h, rng)
    cell = model.cell
    for layer in model.masked_layers():
        layer.mask[...] = rng.random(layer.mask.shape) < 0.7
        layer.b[...] = rng.uniform(-0.5, 0.5, size=layer.b.shape)
        layer.apply_mask()
    coordinated_rc_prune_counts(cell, model.head, 3, 2)
    s_act, h_act = (np.flatnonzero(a) for a in cell.active_units())
    emptied_s, unread_s, head_only_s = s_act[:3]
    emptied_h, unread_h = h_act[:2]
    assert model.head.mask[:, head_only_s].any()
    cell.H.mask[:, :, d_x + head_only_s] = 0.0
    cell.O.mask[:, emptied_s, :] = 0.0            # state moves by the O bias only
    cell.H.mask[:, emptied_h, :] = 0.0            # activation relu(H bias) only
    cell.H.b[:, emptied_h] = 0.4
    cell.H.mask[:, :, d_x + unread_s] = 0.0
    model.head.mask[:, unread_s] = 0.0
    cell.O.mask[:, :, unread_h] = 0.0
    for layer in model.masked_layers():
        layer.apply_mask()
    return model, rng


def frozen_dims(frozen):
    """(d_s, d_h) of a frozen model: its head's input and its table's width."""
    return frozen.head.in_dim, frozen.table.shape[2]


class TestCompact:
    """Forward-only passes run the units freeze(model) keeps and match the
    full-shape masked forward to 1e-12 (normwise relative)."""

    def test_rc_pruned_cell_is_sliced_to_its_active_units(self):
        rng = make_rng(30)
        model = LMModel.create(9, 5, 20, 16, rng)
        coordinated_rc_prune_counts(model.cell, model.head, 7, 4)
        frozen = freeze(model)
        assert frozen_dims(frozen) == (13, 12) == model.cell.active_dims()
        assert frozen.table.shape[1] == frozen.head.out_dim == model.vocab_size
        tokens = rng.integers(0, 9, size=(3, 11))
        got, caches, _ = unroll_forward(model, tokens)
        assert caches == []
        assert rel_max_diff(got, full_shape_forward(model, tokens)[0]) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_emptied_but_read_units_are_kept(self, seed):
        model, rng = unread_model(seed)
        # 3 and 2 units were rc-pruned, one of each kind is unread
        assert frozen_dims(freeze(model)) == (14 - 3 - 1, 12 - 2 - 1)
        assert model.cell.active_dims() == (14 - 3 - 1, 12 - 2 - 1)
        tokens = rng.integers(0, 9, size=(4, 13))
        got, _, _ = unroll_forward(model, tokens)
        assert rel_max_diff(got, full_shape_forward(model, tokens)[0]) <= 1e-12

    def test_dense_model_is_its_own_compaction(self):
        model, tokens, _ = random_model(31, vocab=6, d_x=3, d_s=5, d_h=4, batch=3, T=6,
                                        density=1.0)
        frozen = freeze(model)
        assert frozen.head is model.head and frozen_dims(frozen) == (5, 4)
        got, caches, state = unroll_forward(model, tokens)
        ref, _, ref_state = full_shape_forward(model, tokens)
        assert caches == []
        assert got.tobytes() == ref.tobytes()
        assert np.array_equal(state.h, ref_state.h) and np.array_equal(state.c, ref_state.c)

    def test_stateful_evaluate_matches_full_shape(self):
        model, rng = unread_model(33)
        ids = rng.integers(0, 9, size=400)
        total, count, state = 0.0, 0, None
        for xs, ys in batch_windows(ids, 3, 16):
            logits, _, state = full_shape_forward(model, xs, init=state)
            probs = softmax(logits)
            total -= np.log(np.take_along_axis(probs, ys[..., None], axis=-1)).sum()
            count += xs.size
        assert count >= 3 * 16 * 5     # several windows
        assert abs(evaluate(model, ids, seq_len=16, batch=3) - total / count) \
            <= 1e-12 * (total / count)

    def test_forward_only_moves_no_parameter_or_gradient(self):
        model, rng = unread_model(34)
        for layer in model.masked_layers():
            layer.grad_w[...] = rng.standard_normal(layer.grad_w.shape)
            layer.grad_b[...] = rng.standard_normal(layer.grad_b.shape)
        model.embedding_grad[...] = rng.standard_normal(model.embedding_grad.shape)
        before = copy.deepcopy(model)
        tokens = rng.integers(0, 9, size=(2, 9))
        unroll_forward(model, tokens)
        evaluate(model, rng.integers(0, 9, size=200), seq_len=8, batch=2)
        assert np.array_equal(model.embedding, before.embedding)
        assert np.array_equal(model.embedding_grad, before.embedding_grad)
        for a, b in zip(model.masked_layers(), before.masked_layers()):
            for attr in ARRAYS:
                assert np.array_equal(getattr(a, attr), getattr(b, attr)), (a.name, attr)

    def test_frozen_model_shares_only_the_head_bias(self):
        model, rng = unread_model(35)
        frozen = freeze(model)
        arrays = [model.embedding] + [getattr(layer, attr) for layer in model.masked_layers()
                                      for attr in ARRAYS]
        for new in [frozen.table, *frozen.operands, frozen.head.w, frozen.head.mask]:
            assert not any(np.shares_memory(new, old) for old in arrays)
        assert frozen.head.b is model.head.b
        # it keeps the cell weights it was frozen with
        tokens = rng.integers(0, 9, size=(3, 7))
        before, state = frozen.forward(tokens)
        kept = [a.copy() for a in (before, state.h, state.c)]
        edit_live_weights(model, rng)
        again, state = frozen.forward(tokens)
        for old, new in zip(kept, (again, state.h, state.c)):
            assert new.tobytes() == old.tobytes()

    def test_forward_only_leaves_a_passed_in_state(self, monkeypatch):
        """FrozenModel.forward reads the state it is given and returns a new
        one, in a direct call and in each of evaluate's windows, which start
        from the last window's state."""
        model, rng = unread_model(39)
        frozen = freeze(model)
        d_s = frozen.head.in_dim
        given = HLSTMState(h=rng.standard_normal((2, d_s)), c=rng.standard_normal((2, d_s)))
        kept = [(given, given.h.copy(), given.c.copy())]
        _, state = frozen.forward(rng.integers(0, 9, size=(2, 7)), given)
        assert not np.shares_memory(state.c, given.c)
        forward = FrozenModel.forward

        def keeping(self, tokens, state=None):
            if state is not None:
                kept.append((state, state.h.copy(), state.c.copy()))
            return forward(self, tokens, state)

        monkeypatch.setattr(FrozenModel, "forward", keeping)
        evaluate(model, rng.integers(0, 9, size=200), seq_len=8, batch=2)
        assert len(kept) >= 10
        for state, h, c in kept:
            assert state.h.tobytes() == h.tobytes() and state.c.tobytes() == c.tobytes()

    def test_forward_only_refuses_an_init(self):
        # stateful forward-only windows go through evaluate
        model, tokens, _ = random_model(36, vocab=4, d_x=2, d_s=2, d_h=2)
        with pytest.raises(ContractViolation, match="init"):
            unroll_forward(model, tokens, init=HLSTMState.zeros(2, 1))

    def test_bptt_refuses_forward_only_caches(self):
        model, tokens, targets = random_model(37, vocab=4, d_x=2, d_s=2, d_h=2)
        logits, caches, _ = unroll_forward(model, tokens)
        with pytest.raises(ContractViolation, match="train=True"):
            bptt(model, logits, caches, tokens, targets)

    def test_train_pass_is_the_full_shape_pass(self):
        model, rng = unread_model(38)
        tokens = rng.integers(0, 9, size=(3, 8))
        got, caches, state = unroll_forward(model, tokens, train=True)
        ref, ref_caches, ref_state = full_shape_forward(model, tokens)
        assert got.tobytes() == ref.tobytes() and len(caches.act) == 8
        assert state.h.tobytes() == ref_state.h.tobytes()
        assert np.array_equal(caches.act, ref_caches.act)


def edit_live_weights(model, rng):
    """Move every live cell weight and every gate bias in place, as SGD does
    between windows (w[mask == 0] == 0 still holds)."""
    for block in (model.cell.H, model.cell.O):
        block.w *= 1.0 + rng.uniform(-0.5, 0.5, size=block.w.shape)
        block.b += rng.uniform(-0.3, 0.3, size=block.b.shape)


class TestReadUnits:
    """_read_units (a GEMV column sum per mask block) against the definition:
    a d_s unit is read while any head column or H recurrent column of it is
    nonzero, a d_h unit while any O column of it is."""

    D_X, D_S, D_H = 3, 6, 5

    @staticmethod
    def by_definition(model):
        cell = model.cell
        return ((model.head.mask != 0).any(axis=0)
                | (cell.H.mask[:, :, model.d_x:] != 0).any(axis=(0, 1)),
                (cell.O.mask != 0).any(axis=(0, 1)))

    def empty_model(self):
        model = LMModel.create(7, self.D_X, self.D_S, self.D_H, make_rng(70))
        for layer in model.masked_layers():
            layer.mask[...] = 0.0
        return model

    def assert_flags(self, model, read_s, read_h):
        got, want = _read_units(model), self.by_definition(model)
        for flags, ref, expected in zip(got, want, (read_s, read_h)):
            assert flags.dtype == bool and np.array_equal(flags, ref)
            assert list(np.flatnonzero(flags)) == expected
        assert read_dims(model) == frozen_dims(freeze(model)) == (len(read_s), len(read_h))

    @pytest.mark.parametrize("gate", range(len(GATES)))
    def test_a_single_live_entry(self, gate):
        model, D_X = self.empty_model(), self.D_X
        self.assert_flags(model, [], [])
        model.cell.H.mask[gate, 2, D_X - 1] = 1.0      # an x column reads no unit
        self.assert_flags(model, [], [])
        model.cell.H.mask[gate, 2, D_X - 1] = 0.0
        model.cell.H.mask[gate, 4, D_X + 3] = 1.0      # only H's recurrent column 3
        self.assert_flags(model, [3], [])
        model.cell.H.mask[gate, 4, D_X + 3] = 0.0
        model.cell.O.mask[gate, 0, 4] = 1.0            # only O's column 4
        self.assert_flags(model, [], [4])
        model.cell.O.mask[gate, 0, 4] = 0.0
        model.head.mask[6, 5] = 1.0                    # only the head's column 5
        self.assert_flags(model, [5], [])

    @pytest.mark.parametrize("gate", range(len(GATES)))
    @pytest.mark.parametrize("seed", range(3))
    def test_a_gate_all_zero(self, gate, seed):
        rng = make_rng(seed)
        model = self.empty_model()
        for layer in model.masked_layers():
            layer.mask[...] = rng.random(layer.mask.shape) < 0.15
        model.cell.H.mask[gate] = 0.0
        model.cell.O.mask[gate] = 0.0
        read_s, read_h = (list(np.flatnonzero(f)) for f in self.by_definition(model))
        self.assert_flags(model, read_s, read_h)


class TestStepOperands:
    """Each pass lays out its step operands (the recurrent part of H and the
    gate-scaled O and O bias) from the weights it is given."""

    @staticmethod
    def model(dense, seed):
        """A dense model (frozen whole) or one freeze() slices."""
        if dense:
            model = random_model(seed, vocab=9, d_x=5, d_s=6, d_h=5, density=1.0)[0]
            return model, make_rng(seed)
        return unread_model(seed)

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("dense", [False, True])
    def test_weights_edited_between_calls_are_read(self, dense, train):
        model, rng = self.model(dense, 40)
        tokens = rng.integers(0, 9, size=(3, 9))
        before, _, _ = unroll_forward(model, tokens, train=train)
        edit_live_weights(model, rng)
        got, _, _ = unroll_forward(model, tokens, train=train)
        ref = full_shape_forward(copy.deepcopy(model), tokens)[0]
        assert rel_max_diff(before, ref) > 1e-3      # the edit moved the logits
        assert rel_max_diff(got, ref) <= 1e-12

    @pytest.mark.parametrize("dense", [False, True])
    def test_evaluate_reads_weights_edited_between_calls(self, dense):
        model, rng = self.model(dense, 41)
        ids = rng.integers(0, 9, size=200)
        first = evaluate(model, ids, seq_len=8, batch=2)
        edit_live_weights(model, rng)
        fresh = copy.deepcopy(model)
        assert evaluate(model, ids, seq_len=8, batch=2) == evaluate(fresh, ids, seq_len=8,
                                                                    batch=2) != first

    @pytest.mark.parametrize("d", [128, 32])
    def test_infer_shape_matches_full_shape(self, d):
        """The bench's infer shape: batch 16 on a dense d=128 model and on a
        d=128 model rc-pruned to a compact d=32."""
        rng = make_rng(42)
        model = LMModel.create(49, 32, 128, 128, rng)
        for layer in model.masked_layers():
            layer.b[...] = rng.uniform(-0.3, 0.3, size=layer.b.shape)
        coordinated_rc_prune_counts(model.cell, model.head, 128 - d, 128 - d)
        assert read_dims(model) == (d, d)
        tokens = rng.integers(0, 49, size=(16, 12))
        got, _, state = unroll_forward(model, tokens)
        ref, _, ref_state = full_shape_forward(model, tokens)
        assert rel_max_diff(got, ref) <= 1e-12
        # the forward-only state is freeze(model)'s: the rc-pruned units drop out
        kept = np.flatnonzero(model.cell.active_units()[0])
        assert state.c.shape == (16, d)
        assert rel_max_diff(state.c, ref_state.c[:, kept]) <= 1e-12


def bench_shape_model(d, seed=60):
    """The bench's infer input: a 50%-sparse d=128 model with nonzero biases,
    rc-pruned to d when d < 128."""
    rng = make_rng(seed)
    model = LMModel.create(49, 32, 128, 128, rng)
    for layer in model.masked_layers():
        layer.mask[...] = rng.random(layer.mask.shape) < 0.5
        layer.b[...] = rng.uniform(-0.3, 0.3, size=layer.b.shape)
        layer.apply_mask()
    coordinated_rc_prune_counts(model.cell, model.head, 128 - d, 128 - d)
    return model, rng


def oracle_model(kind, seed):
    """A forward-only oracle input: the bench's d=128 model (every unit read),
    the bench model rc-pruned to d=32 (kind 128 or 32), or unread_model. Each
    read d_s unit has a nonzero O bias in all four gates, which the bench's
    seed models (O.b == 0) lack, so a wrongly broadcast bias shows."""
    model, rng = unread_model(seed) if kind == "unread" else bench_shape_model(kind, seed)
    assert np.all(model.cell.O.b[:, _read_units(model)[0]] != 0.0)
    return model, rng


class TestForwardOnlyMatchesReference:
    """The forward-only passes (operands gathered from the read units, all
    steps in one call on buffers made once per pass) against
    `oracles.reference_forward_only`, the read units' dense copy stepped on
    fresh arrays: equal bit for bit."""

    @staticmethod
    def assert_same(got, ref):
        (logits, _, state), (ref_logits, ref_state) = got, ref
        assert logits.tobytes() == ref_logits.tobytes()
        assert state.h.tobytes() == ref_state.h.tobytes()
        assert state.c.tobytes() == ref_state.c.tobytes()

    @pytest.mark.parametrize("d", [128, 51, 32])
    def test_bench_infer_shapes(self, d):
        model, rng = bench_shape_model(d)
        frozen = freeze(model)
        assert read_dims(model) == (d, d) and (frozen.head is model.head) == (d == 128)
        tokens = rng.integers(0, 49, size=(16, 64))
        ref = reference_forward_only(model, tokens)
        self.assert_same(unroll_forward(model, tokens), ref)
        logits, state = frozen.forward(tokens)
        self.assert_same((logits, None, state), ref)

    @pytest.mark.parametrize("batch", [16, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_unread_model(self, seed, batch):
        model, rng = unread_model(seed)
        tokens = rng.integers(0, 9, size=(batch, 13))
        self.assert_same(unroll_forward(model, tokens), reference_forward_only(model, tokens))

    @pytest.mark.parametrize("batch", [1, 4, 16])
    @pytest.mark.parametrize("kind", [128, 32, "unread"])
    def test_batches(self, kind, batch):
        model, rng = oracle_model(kind, 62)
        tokens = rng.integers(0, model.vocab_size, size=(batch, 64))
        self.assert_same(unroll_forward(model, tokens), reference_forward_only(model, tokens))

    @pytest.mark.parametrize("d", [128, 32, "unread"])
    def test_evaluate(self, d):
        """evaluate's stateful B=4 NLL is the sum over reference windows that
        carry their state through `init`."""
        model, rng = oracle_model(d, 60)
        ids = rng.integers(0, model.vocab_size, size=2000)
        total, count, state = 0.0, 0, None
        for xs, ys in batch_windows(ids, 4, 64):
            logits, state = reference_forward_only(model, xs, init=state)
            total += float(-np.log(softmax(logits)[(*np.indices(ys.shape), ys)]).sum())
            count += xs.size
        assert count == 4 * 64 * 7
        assert evaluate(model, ids, seq_len=64, batch=4) == total / count

    @pytest.mark.parametrize("pruned", [False, True])
    def test_later_passes_leave_what_a_caller_keeps(self, pruned):
        """The step buffers are a pass's own: a second forward-only pass and an
        evaluate on the same model leave the first pass's logits and state."""
        model, rng = unread_model(61) if pruned else bench_shape_model(128, seed=61)
        vocab = model.vocab_size
        tokens = rng.integers(0, vocab, size=(4, 10))
        first = unroll_forward(model, tokens)
        kept = [a.copy() for a in (first[0], first[2].h, first[2].c)]
        unroll_forward(model, rng.integers(0, vocab, size=(4, 10)))
        evaluate(model, rng.integers(0, vocab, size=300), seq_len=10, batch=4)
        for before, after in zip(kept, (first[0], first[2].h, first[2].c)):
            assert after.tobytes() == before.tobytes()


class TestBpttMatchesReference:
    """bptt (per-symbol reverse of the input table, fused gate derivatives,
    per-pass gradient buffers) against the per-step backward it replaced,
    `oracles.reference_bptt`: within 1e-12 on every gradient."""

    VOCAB, SEEN = 12, 7          # tokens repeat over symbols 0..6; 7..11 never occur

    @staticmethod
    def gradients(model):
        grads = {"embedding": model.embedding_grad}
        for layer in model.masked_layers():
            grads[f"{layer.name}.grad_w"] = layer.grad_w
            grads[f"{layer.name}.grad_b"] = layer.grad_b
        return grads

    def compare(self, model, tokens, targets):
        """Both backwards from one forward each of `model` and a deep copy;
        returns bptt's embedding gradient."""
        ref = copy.deepcopy(model)
        runs = []
        for m, backward in ((model, bptt), (ref, reference_bptt)):
            logits, caches, _ = unroll_forward(m, tokens, train=True)
            runs.append(backward(m, logits, caches, tokens, targets,
                                 grad_scale=1.0 / tokens.size))
        assert runs[0] == runs[1]
        got, want = self.gradients(model), self.gradients(ref)
        for key, ref_grad in want.items():
            assert got[key].shape == ref_grad.shape, key
            if not ref_grad.any():       # e.g. f's gradients at T=1: c_prev is 0
                assert not got[key].any(), key
            else:
                assert rel_max_diff(got[key], ref_grad) <= 1e-12, key
        return model.embedding_grad

    def tokens(self, rng, batch, T):
        return (rng.integers(0, self.SEEN, size=(batch, T)),
                rng.integers(0, self.VOCAB, size=(batch, T)))

    @pytest.mark.parametrize("T", [1, 16])
    @pytest.mark.parametrize("batch", [1, 4, 32])
    def test_matches_reference(self, batch, T):
        model = random_model(50 + batch + T, vocab=self.VOCAB, d_x=6, d_s=20, d_h=16)[0]
        tokens, targets = self.tokens(make_rng(batch * T), batch, T)
        emb_grad = self.compare(model, tokens, targets)
        unseen = np.setdiff1d(np.arange(self.VOCAB), tokens)
        assert unseen.size >= self.VOCAB - self.SEEN
        assert not emb_grad[unseen].any()

    def test_compacted_training_copy(self):
        model, rng = unread_model(51, vocab=self.VOCAB)
        with training_copy(model) as small:
            assert (small.cell.d_s, small.cell.d_h) == (14 - 3, 12 - 2)
            tokens, targets = self.tokens(rng, 8, 16)
            self.compare(small, tokens, targets)

    def test_gradients_accumulate(self):
        """A second pass adds to the gradients the first left: every one doubles."""
        model = random_model(55, vocab=self.VOCAB, d_x=6, d_s=20, d_h=16)[0]
        tokens, targets = self.tokens(make_rng(56), 4, 16)
        once = {}
        for _ in range(2):
            logits, caches, _ = unroll_forward(model, tokens, train=True)
            bptt(model, logits, caches, tokens, targets)
            once = once or {key: grad.copy() for key, grad in self.gradients(model).items()}
        for key, grad in self.gradients(model).items():
            assert np.array_equal(grad, 2.0 * once[key]), key

    def test_embedding_gradient_matches_fd(self):
        """Repeated tokens sum into their symbol's row; a symbol that never
        occurs gets an exactly zero row."""
        model = random_model(53, vocab=6, d_x=2, d_s=3, d_h=3)[0]
        rng = make_rng(54)
        tokens, targets = rng.integers(0, 3, size=(2, 5)), rng.integers(0, 6, size=(2, 5))
        logits, caches, _ = unroll_forward(model, tokens, train=True)
        bptt(model, logits, caches, tokens, targets)
        fd = fd_dense_gradients(model.embedding, lambda: total_nll(model, tokens, targets))
        assert max_rel_err(model.embedding_grad, fd) < 1e-5
        assert not model.embedding_grad[3:].any() and model.embedding_grad[:3].all()


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
