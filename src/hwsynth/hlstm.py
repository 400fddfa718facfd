"""H-LSTM cell, sequence unrolling with BPTT, and the perplexity metric.

The cell has four control gates (forget, input, output, update); each gate
is a small feed-forward net: one masked ReLU hidden layer followed by a
masked output layer. Gate equations per step, with z = [x_t, h_{t-1}]:

    f,i,o = sigmoid(O_gate(relu(H_gate(z))))    g = tanh(O_g(relu(H_g(z))))
    c_t   = f * c_{t-1} + i * g                 h_t = o * tanh(c_t)

The language model is one such cell between an embedding and a softmax head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import (
    FLOAT,
    ActivationKind,
    ContractViolation,
    MaskedLinear,
    NumericAbort,
    activation_backward,
    activation_forward,
)
from .corpus import batch_windows

GATES = ("f", "i", "o", "g")


@dataclass
class HLSTMState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, d_s: int, batch: int | None = None) -> "HLSTMState":
        shape = (d_s,) if batch is None else (batch, d_s)
        return cls(h=np.zeros(shape, dtype=FLOAT), c=np.zeros(shape, dtype=FLOAT))


@dataclass
class HLSTMCellParams:
    """Parameters of one H-LSTM cell.

    All four gates share identical (d_x, d_s, d_h); coordinated structured
    pruning keeps them equal.
    """

    d_x: int
    d_s: int
    d_h: int
    h_layers: dict[str, MaskedLinear] = field(default_factory=dict)
    o_layers: dict[str, MaskedLinear] = field(default_factory=dict)

    @classmethod
    def create(cls, d_x: int, d_s: int, d_h: int, rng: np.random.Generator,
               name: str = "cell") -> "HLSTMCellParams":
        cell = cls(d_x=d_x, d_s=d_s, d_h=d_h)
        for gate in GATES:
            cell.h_layers[gate] = MaskedLinear.dense(
                d_h, d_x + d_s, rng, name=f"{name}.H{gate}")
            cell.o_layers[gate] = MaskedLinear.dense(
                d_s, d_h, rng, name=f"{name}.O{gate}")
        return cell

    def layers(self) -> list[MaskedLinear]:
        return [layer for gate in GATES
                for layer in (self.h_layers[gate], self.o_layers[gate])]

    def active_dims(self) -> tuple[int, int]:
        """(active d_s units, active d_h units) read off the gate masks."""
        s_active = np.zeros(self.d_s, dtype=bool)
        h_active = np.zeros(self.d_h, dtype=bool)
        for gate in GATES:
            s_active |= self.o_layers[gate].mask.any(axis=1)
            h_active |= self.h_layers[gate].mask.any(axis=1)
        return int(s_active.sum()), int(h_active.sum())


@dataclass
class StepCache:
    """Intermediates of one cell step, consumed exactly once by backward."""

    z: np.ndarray
    h_act: dict
    drop_mask: dict
    gate_in: dict          # input seen by the output layer of each gate
    gate_out: dict
    c_prev: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    consumed: bool = False


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericAbort(f"non-finite value in {what}")


def cell_forward(params: HLSTMCellParams, x_t: np.ndarray, prev: HLSTMState,
                 train: bool = False, rng: np.random.Generator | None = None,
                 dropout_h: float = 0.0) -> tuple[HLSTMState, StepCache]:
    x_t = np.asarray(x_t, dtype=FLOAT)
    if x_t.shape[-1] != params.d_x:
        raise ContractViolation(f"x width {x_t.shape[-1]} != d_x {params.d_x}")
    z = np.concatenate([x_t, prev.h], axis=-1)
    cache = StepCache(z=z, h_act={}, drop_mask={}, gate_in={},
                      gate_out={}, c_prev=prev.c, c=None, tanh_c=None)
    gates = {}
    for gate in GATES:
        act = activation_forward(ActivationKind.RELU, params.h_layers[gate].forward(z))
        cache.h_act[gate] = act  # pre-dropout activation, for backward
        gate_in = act
        if train and dropout_h > 0.0:
            if rng is None:
                raise ContractViolation("dropout during training needs an rng")
            keep = (rng.random(act.shape) >= dropout_h) / (1.0 - dropout_h)
            cache.drop_mask[gate] = keep
            gate_in = act * keep
        cache.gate_in[gate] = gate_in
        pre_out = params.o_layers[gate].forward(gate_in)
        kind = ActivationKind.TANH if gate == "g" else ActivationKind.SIGMOID
        gates[gate] = activation_forward(kind, pre_out)
        cache.gate_out[gate] = gates[gate]
    c = gates["f"] * prev.c + gates["i"] * gates["g"]
    _check_finite(c, "cell state")
    tanh_c = np.tanh(c)
    h = gates["o"] * tanh_c
    cache.c = c
    cache.tanh_c = tanh_c
    return HLSTMState(h=h, c=c), cache


def cell_backward(params: HLSTMCellParams, cache: StepCache, d_h_t: np.ndarray,
                  d_c_t: np.ndarray) -> tuple[np.ndarray, HLSTMState]:
    """Exact reverse of cell_forward; accumulates all gate-layer gradients."""
    if cache.consumed:
        raise ContractViolation("StepCache already consumed by a backward pass")
    cache.consumed = True
    g = cache.gate_out
    d_o = d_h_t * cache.tanh_c
    d_c = d_c_t + d_h_t * g["o"] * (1.0 - cache.tanh_c ** 2)
    d_gate = {
        "f": d_c * cache.c_prev,
        "i": d_c * g["g"],
        "g": d_c * g["i"],
        "o": d_o,
    }
    d_c_prev = d_c * g["f"]
    d_z = np.zeros_like(cache.z)
    for gate in GATES:
        kind = ActivationKind.TANH if gate == "g" else ActivationKind.SIGMOID
        d_pre_out = activation_backward(kind, g[gate], d_gate[gate])
        d_in = params.o_layers[gate].backward(cache.gate_in[gate], d_pre_out)
        if gate in cache.drop_mask:
            d_in = d_in * cache.drop_mask[gate]
        d_pre = activation_backward(ActivationKind.RELU, cache.h_act[gate], d_in)
        d_z += params.h_layers[gate].backward(cache.z, d_pre)
    d_x = d_z[..., :params.d_x]
    d_h_prev = d_z[..., params.d_x:]
    return d_x, HLSTMState(h=d_h_prev, c=d_c_prev)


@dataclass
class LMModel:
    """Character-level language model: embedding -> H-LSTM cell -> head."""

    embedding: np.ndarray          # (V, d_x)
    cells: list[HLSTMCellParams]
    head: MaskedLinear             # (V, d_s)
    dropout_h: float = 0.0
    embedding_grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.embedding = np.asarray(self.embedding, dtype=FLOAT)
        self.embedding_grad = np.zeros_like(self.embedding)

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def d_x(self) -> int:
        return self.embedding.shape[1]

    @property
    def d_s(self) -> int:
        return self.cells[0].d_s

    def masked_layers(self) -> list[MaskedLinear]:
        out = []
        for cell in self.cells:
            out.extend(cell.layers())
        out.append(self.head)
        return out

    def zero_grads(self) -> None:
        self.embedding_grad[...] = 0.0
        for layer in self.masked_layers():
            layer.zero_grads()

    @classmethod
    def create(cls, vocab_size: int, d_x: int, d_s: int, d_h: int,
               rng: np.random.Generator, dropout_h: float = 0.0) -> "LMModel":
        if vocab_size < 2:
            raise ContractViolation("vocabulary must have at least 2 symbols")
        emb = rng.uniform(-0.1, 0.1, size=(vocab_size, d_x))
        cells = [HLSTMCellParams.create(d_x, d_s, d_h, rng, name="cell0")]
        head = MaskedLinear.dense(vocab_size, d_s, rng, name="head")
        return cls(embedding=emb, cells=cells, head=head, dropout_h=dropout_h)


def unroll_forward(model: LMModel, tokens: np.ndarray,
                   init: list[HLSTMState] | None = None, train: bool = False,
                   rng: np.random.Generator | None = None):
    """Run T steps; returns (logits, caches, final states).

    tokens has shape (T,) or (B, T); logits (T, V) or (B, T, V). Final
    states allow stateful continuation across minibatches.
    """
    tokens = np.asarray(tokens)
    batched = tokens.ndim == 2
    if np.any(tokens < 0) or np.any(tokens >= model.vocab_size):
        raise ContractViolation("token id out of vocabulary range")
    T = tokens.shape[-1]
    batch = tokens.shape[0] if batched else None
    if init is None:
        init = [HLSTMState.zeros(cell.d_s, batch) for cell in model.cells]
    states = list(init)
    logits_shape = (batch, T, model.vocab_size) if batched else (T, model.vocab_size)
    logits = np.zeros(logits_shape, dtype=FLOAT)
    caches: list[list[StepCache]] = []
    for t in range(T):
        x = model.embedding[tokens[:, t] if batched else tokens[t]]
        step_caches = []
        for li, cell in enumerate(model.cells):
            states[li], cache = cell_forward(cell, x, states[li], train=train,
                                             rng=rng, dropout_h=model.dropout_h)
            step_caches.append(cache)
            x = states[li].h
        if batched:
            logits[:, t, :] = model.head.forward(x)
        else:
            logits[t, :] = model.head.forward(x)
        caches.append(step_caches)
    return logits, caches, states


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_nll(logits: np.ndarray, targets: np.ndarray):
    """(probs, index of each target's probability in (batch, step) order,
    summed NLL of the targets)."""
    probs = softmax(logits)
    idx = (*np.indices(targets.shape).reshape(targets.ndim, -1), targets.reshape(-1))
    return probs, idx, float(-np.log(probs[idx]).sum())


def bptt(model: LMModel, logits: np.ndarray, caches, tokens: np.ndarray,
         targets: np.ndarray, grad_scale: float = 1.0) -> float:
    """Cross-entropy over all steps; accumulates every parameter gradient.

    Returns the summed NLL (not the mean). grad_scale rescales accumulated
    gradients (training uses 1/(B*T); the finite-difference oracle uses 1).
    """
    tokens = np.asarray(tokens)
    targets = np.asarray(targets)
    batched = tokens.ndim == 2
    if targets.shape != tokens.shape:
        raise ContractViolation("targets must match tokens shape")
    T = tokens.shape[-1]
    probs, idx, total_nll = _softmax_nll(logits, targets)
    d_logits = probs.copy()
    d_logits[idx] -= 1.0
    d_logits *= grad_scale

    n_cells = len(model.cells)
    d_states = [HLSTMState(h=np.zeros_like(caches[0][li].c),
                           c=np.zeros_like(caches[0][li].c))
                for li in range(n_cells)]
    for t in range(T - 1, -1, -1):
        dy = d_logits[:, t, :] if batched else d_logits[t, :]
        top_h = caches[t][-1].gate_out["o"] * caches[t][-1].tanh_c
        d_h = model.head.backward(top_h, dy)
        for li in range(n_cells - 1, -1, -1):
            d_h_total = d_h + d_states[li].h
            d_x, d_prev = cell_backward(model.cells[li], caches[t][li],
                                        d_h_total, d_states[li].c)
            d_states[li] = d_prev
            d_h = d_x
        tok = tokens[:, t] if batched else tokens[t]
        np.add.at(model.embedding_grad, tok, d_h)
    return total_nll


def perplexity(mean_nll: float) -> float:
    if not math.isfinite(mean_nll):
        raise ContractViolation("mean NLL must be finite")
    return math.exp(mean_nll)


def evaluate(model: LMModel, tokens: np.ndarray, seq_len: int = 64,
             batch: int = 1) -> float:
    """Mean per-token NLL of a token stream, stateful across windows."""
    total_nll = 0.0
    count = 0
    states = None
    for xs, ys in batch_windows(np.asarray(tokens), batch, seq_len):
        logits, _, states = unroll_forward(model, xs, init=states, train=False)
        total_nll += _softmax_nll(logits, ys)[2]
        count += xs.size
    if count == 0:
        raise ContractViolation("token stream too short to evaluate")
    return total_nll / count
