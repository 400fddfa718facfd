"""H-LSTM cell, sequence unrolling with BPTT, and the perplexity metric.

The cell has four control gates (forget, input, output, update); each gate
is a small feed-forward net: one masked ReLU hidden layer followed by a
masked output layer. Gate equations per step, with z = [x_t, h_{t-1}]:

    f,i,o = sigmoid(O_gate(relu(H_gate(z))))    g = tanh(O_g(relu(H_g(z))))
    c_t   = f * c_{t-1} + i * g                 h_t = o * tanh(c_t)

The gates' layers live in two stacked blocks, H (4, d_h, d_x+d_s) and O
(4, d_s, d_h), so a step is one batched matmul per layer kind; each gate's
H and O layer (what grow/prune and SGD work on) is a MaskedLinear view of
its slice. The kernels read w as W*Msk: w[mask == 0] == 0 always holds.

The language model is one such cell (`LMModel.cell`) between an embedding
and a softmax head. Every input is a batch: tokens are (B, T), a step's x
and state are (B, width); other shapes raise ContractViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import (
    FLOAT,
    ARRAYS,
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
    def zeros(cls, d_s: int, batch: int) -> "HLSTMState":
        return cls(h=np.zeros((batch, d_s), dtype=FLOAT),
                   c=np.zeros((batch, d_s), dtype=FLOAT))


@dataclass
class GateBlock:
    """One layer kind (H or O) of the four gates, stacked on axis 0 in GATES
    order: w, mask and grad_w are (4, out, in), b and grad_b (4, out)."""

    w: np.ndarray
    mask: np.ndarray
    b: np.ndarray
    grad_w: np.ndarray
    grad_b: np.ndarray

    @classmethod
    def zeros(cls, out_dim: int, in_dim: int) -> "GateBlock":
        shape = (len(GATES), out_dim, in_dim)
        return cls(w=np.zeros(shape), mask=np.ones(shape), b=np.zeros(shape[:2]),
                   grad_w=np.zeros(shape), grad_b=np.zeros(shape[:2]))


class HLSTMCellParams:
    """Parameters of one H-LSTM cell.

    All four gates share identical (d_x, d_s, d_h); coordinated structured
    pruning keeps them equal. The parameters live in two stacked blocks,
    H (4, d_h, d_x+d_s) and O (4, d_s, d_h); h_layers[g] and o_layers[g]
    are MaskedLinear views of gate g's slice of each.
    """

    def __init__(self, d_x: int, d_s: int, d_h: int, name: str = "cell"):
        self.d_x, self.d_s, self.d_h, self.name = d_x, d_s, d_h, name
        self.H = GateBlock.zeros(d_h, d_x + d_s)
        self.O = GateBlock.zeros(d_s, d_h)
        self.h_layers = {g: MaskedLinear.view(self.H, k, f"{name}.H{g}")
                         for k, g in enumerate(GATES)}
        self.o_layers = {g: MaskedLinear.view(self.O, k, f"{name}.O{g}")
                         for k, g in enumerate(GATES)}

    @classmethod
    def create(cls, d_x: int, d_s: int, d_h: int, rng: np.random.Generator,
               name: str = "cell") -> "HLSTMCellParams":
        cell = cls(d_x=d_x, d_s=d_s, d_h=d_h, name=name)
        for layer in cell.layers():
            bound = 1.0 / math.sqrt(max(layer.in_dim, 1))
            layer.w[...] = rng.uniform(-bound, bound, size=layer.w.shape)
        return cell

    def __deepcopy__(self, memo) -> "HLSTMCellParams":
        # a view copied on its own would detach from its block
        dup = HLSTMCellParams(self.d_x, self.d_s, self.d_h, self.name)
        for old, new in zip(self.layers(), dup.layers()):
            for attr in ARRAYS:
                getattr(new, attr)[...] = getattr(old, attr)
            new.name = old.name
            memo[id(old)] = new
        return dup

    def layers(self) -> list[MaskedLinear]:
        return [layer for gate in GATES
                for layer in (self.h_layers[gate], self.o_layers[gate])]

    def active_units(self) -> tuple[np.ndarray, np.ndarray]:
        """Active flags of the d_s and d_h units: a unit is active while any
        gate's O row (d_s) or H row (d_h) of it carries a connection."""
        return self.O.mask.any(axis=(0, 2)), self.H.mask.any(axis=(0, 2))

    def active_dims(self) -> tuple[int, int]:
        """(active d_s units, active d_h units) read off the gate masks."""
        s_active, h_active = self.active_units()
        return int(s_active.sum()), int(h_active.sum())


@dataclass
class StepCache:
    """Intermediates of one cell step, consumed exactly once by backward.
    Gate arrays are (4, B, width) in GATES order; the others (B, width)."""

    z: np.ndarray
    h_act: np.ndarray         # relu output of the H layers, before dropout
    keep: np.ndarray | None   # dropout scale
    gate_in: np.ndarray       # input of the O layers
    gate_out: np.ndarray
    c_prev: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray
    consumed: bool = False


def cell_forward(params: HLSTMCellParams, x_t: np.ndarray, prev: HLSTMState,
                 train: bool = False, rng: np.random.Generator | None = None,
                 dropout_h: float = 0.0) -> tuple[HLSTMState, StepCache]:
    """One step for all four gates at once: one batched matmul per layer
    kind, which rounds exactly like four per-gate products (one GEMM over
    the concatenated 4*d_h rows does not). The kernels read w as W*Msk,
    relying on w[mask == 0] == 0."""
    x_t = np.asarray(x_t, dtype=FLOAT)
    if x_t.ndim != 2 or x_t.shape[1] != params.d_x:
        raise ContractViolation(f"x shape {x_t.shape} is not (B, d_x={params.d_x})")
    H, O = params.H, params.O
    z = np.concatenate([x_t, prev.h], axis=1)
    c_prev = prev.c
    act = activation_forward(ActivationKind.RELU,
                             np.matmul(z, H.w.transpose(0, 2, 1)) + H.b[:, None])
    gate_in, keep = act, None
    if train and dropout_h > 0.0:
        if rng is None:
            raise ContractViolation("dropout during training needs an rng")
        keep = (rng.random(act.shape) >= dropout_h) / (1.0 - dropout_h)
        gate_in = act * keep
    pre_out = np.matmul(gate_in, O.w.transpose(0, 2, 1)) + O.b[:, None]
    gates = np.empty_like(pre_out)
    gates[:3] = activation_forward(ActivationKind.SIGMOID, pre_out[:3])
    gates[3] = activation_forward(ActivationKind.TANH, pre_out[3])
    f, i, o, g = gates
    c = f * c_prev + i * g
    if not np.all(np.isfinite(c)):
        raise NumericAbort("non-finite value in cell state")
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return HLSTMState(h=h, c=c), StepCache(z=z, h_act=act, keep=keep, gate_in=gate_in,
                                           gate_out=gates, c_prev=c_prev,
                                           tanh_c=tanh_c, h=h)


def cell_backward(params: HLSTMCellParams, cache: StepCache, d_h_t: np.ndarray,
                  d_c_t: np.ndarray) -> tuple[np.ndarray, HLSTMState]:
    """Exact reverse of cell_forward; accumulates all gate-layer gradients."""
    if cache.consumed:
        raise ContractViolation("StepCache already consumed by a backward pass")
    cache.consumed = True
    H, O = params.H, params.O
    f, i, o, g = cache.gate_out
    d_c = d_c_t + d_h_t * o * (1.0 - cache.tanh_c ** 2)
    d_pre_out = np.stack([d_c * cache.c_prev, d_c * g, d_h_t * cache.tanh_c, d_c * i])
    d_pre_out[:3] = activation_backward(ActivationKind.SIGMOID, cache.gate_out[:3],
                                        d_pre_out[:3])
    d_pre_out[3] = activation_backward(ActivationKind.TANH, g, d_pre_out[3])
    O.grad_w += np.matmul(d_pre_out.transpose(0, 2, 1), cache.gate_in)
    O.grad_b += d_pre_out.sum(axis=1)
    d_in = np.matmul(d_pre_out, O.w)
    if cache.keep is not None:
        d_in = d_in * cache.keep
    d_pre = activation_backward(ActivationKind.RELU, cache.h_act, d_in)
    H.grad_w += np.matmul(d_pre.transpose(0, 2, 1), cache.z)
    H.grad_b += d_pre.sum(axis=1)
    # summed gate by gate in GATES order; one GEMM over all 4*d_h would round differently
    d_z = np.zeros_like(cache.z)
    for part in np.matmul(d_pre, H.w):
        d_z += part
    return d_z[:, :params.d_x], HLSTMState(h=d_z[:, params.d_x:], c=d_c * f)


@dataclass
class LMModel:
    """Character-level language model: embedding -> H-LSTM cell -> head."""

    embedding: np.ndarray          # (V, d_x)
    cell: HLSTMCellParams
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
    def cells(self) -> list[HLSTMCellParams]:
        # read-only alias kept for the benchmark script, which reads cells[0]
        return [self.cell]

    def masked_layers(self) -> list[MaskedLinear]:
        return self.cell.layers() + [self.head]

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
        cell = HLSTMCellParams.create(d_x, d_s, d_h, rng, name="cell0")
        head = MaskedLinear.dense(vocab_size, d_s, rng, name="head")
        return cls(embedding=emb, cell=cell, head=head, dropout_h=dropout_h)


def unroll_forward(model: LMModel, tokens: np.ndarray,
                   init: HLSTMState | None = None, train: bool = False,
                   rng: np.random.Generator | None = None):
    """Run T steps; returns (logits, caches, final state).

    tokens has shape (B, T) and logits (B, T, V); caches holds one
    StepCache per step. The final state allows stateful continuation
    across minibatches.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ContractViolation(f"tokens shape {tokens.shape} is not (B, T)")
    if np.any(tokens < 0) or np.any(tokens >= model.vocab_size):
        raise ContractViolation("token id out of vocabulary range")
    batch, T = tokens.shape
    state = HLSTMState.zeros(model.cell.d_s, batch) if init is None else init
    logits = np.zeros(tokens.shape + (model.vocab_size,), dtype=FLOAT)
    caches: list[StepCache] = []
    for t in range(T):
        state, cache = cell_forward(model.cell, model.embedding[tokens[:, t]], state,
                                    train=train, rng=rng, dropout_h=model.dropout_h)
        logits[:, t, :] = model.head.forward(state.h)
        caches.append(cache)
    return logits, caches, state


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
    if targets.shape != tokens.shape:
        raise ContractViolation("targets must match tokens shape")
    probs, idx, total_nll = _softmax_nll(logits, targets)
    d_logits = probs.copy()
    d_logits[idx] -= 1.0
    d_logits *= grad_scale

    d_next = HLSTMState(h=np.zeros_like(caches[0].h), c=np.zeros_like(caches[0].h))
    for t in range(tokens.shape[1] - 1, -1, -1):
        d_h = model.head.backward(caches[t].h, d_logits[:, t, :])
        d_x, d_next = cell_backward(model.cell, caches[t], d_h + d_next.h, d_next.c)
        np.add.at(model.embedding_grad, tokens[:, t], d_x)
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
    state = None
    for xs, ys in batch_windows(np.asarray(tokens), batch, seq_len):
        logits, _, state = unroll_forward(model, xs, init=state, train=False)
        total_nll += _softmax_nll(logits, ys)[2]
        count += xs.size
    if count == 0:
        raise ContractViolation("token stream too short to evaluate")
    return total_nll / count
