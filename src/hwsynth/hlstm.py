"""H-LSTM cell, sequence unrolling with BPTT, and the perplexity metric.

The cell has four control gates (forget, input, output, update); each gate
is a small feed-forward net: one masked ReLU hidden layer followed by a
masked output layer. Gate equations per step, with z = [x_t, h_{t-1}]:

    f,i,o = sigmoid(O_gate(relu(H_gate(z))))    g = tanh(O_g(relu(H_g(z))))
    c_t   = f * c_{t-1} + i * g                 h_t = o * tanh(c_t)

The gates' layers live in two stacked blocks, H (4, d_h, d_x+d_s) and O
(4, d_s, d_h); each gate's H and O layer (what grow/prune and SGD work on)
is a MaskedLinear view of its slice. The kernels read w as W*Msk:
w[mask == 0] == 0 always holds.

The language model is one such cell (`LMModel.cell`) between an embedding
and a softmax head. Every input is a batch: tokens are (B, T) and a step's
state (B, d_s); other shapes raise ContractViolation. Training and
forward-only passes compute the same steps, in `cell_forward`: one call and
one step body per pass, whose steps write into the pass's recording (the
relu output, gates and cell state), a slot per step for `bptt` to reverse
(a forward-only pass reuses one slot). A step does only the work that
depends on h_{t-1}: it gathers the x part of H, bias included, from a
per-symbol table (4, V, d_h) made before the loop, then runs one batched
matmul per layer kind and one tanh for all four gates, with sigmoid(v) =
(1 + tanh(v/2)) / 2; the head runs once on the (T, B, d_s) h stack after
the loop. This matches the per-step, per-gate computation to rounding, not bit
for bit. `bptt` reverses the table per symbol: one one-hot GEMM sums each
symbol's steps, then the V-row embedding projects them back; its step
derives all four gates by one formula. Each pass (in training, each window)
lays out what its steps read once and contiguous, as OpenBLAS runs
transposed views slower: `_layout`, and `_BackwardPass` with the backward's
buffers and gradient sums.

Pruned units cost no time in any pass that feeds no growth. Inference
runs `freeze(model)`: the read units' table, step operands and head, laid
out once, so each forward pays only for its steps and leaves the state it
starts from as it was. `unroll_forward(train=False)` freezes the model per
call; `evaluate` and real-mode latency (`synthflow.measure_model_latency`,
`hwsynth bench`) freeze once and run every window on the frozen model, and
the report reads its dims off `read_dims(model)`. Training epochs run on
`training_copy(model)`, a dense copy that also keeps the units something
writes (so weight decay reaches their live entries) and is written back
after the epoch. Only the passes whose gradients rank dormant entries for
growth (grad_sink epochs, rcg's bridging pass) run
`unroll_forward(train=True)` and `bptt` on the full model, since a dead
unit's entries need gradients there.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import cycle
from typing import NamedTuple

import numpy as np

from .numkit import (
    FLOAT,
    ARRAYS,
    ContractViolation,
    MaskedLinear,
    NumericAbort,
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
class _Recording:
    """A pass's step arrays, one slot per step (a forward-only pass reuses
    one): `act`, the H layers' relu output and the O layers' input, (slots,
    4, B, d_h); the `gates` (slots, 4, B, d_s); `c` and `tanh_c` (slots, B,
    d_s). `init` is the state before step 0, `hs` the (T, B, d_s) h stack."""

    init: HLSTMState
    hs: np.ndarray
    act: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    consumed: bool = False


# One tanh serves all four gates: sigmoid(v) = (1 + tanh(v/2)) / 2 for f, i, o.
_GATE_SCALE = np.array([0.5, 0.5, 0.5, 1.0])[:, None, None]


def _layout(params: HLSTMCellParams, x: np.ndarray,
            units: tuple[np.ndarray, np.ndarray] | None = None
            ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """What a pass's steps read. First the x part of every H layer's
    pre-activation, bias included: x (N, d_x) -> (4, N, d_h), on the
    embedding a per-symbol table. Then the step operands: H's recurrent part
    as a contiguous (4, d_s, d_h) array, O as a contiguous (4, d_h, d_s)
    array and O's bias, both times _GATE_SCALE; scaling by 1/2 or 1 is
    exact, so it changes no value. With units (s, h), index arrays, only
    those d_s and d_h units: each block's rows are gathered once, then its
    columns."""
    H, O, d_x = params.H, params.O, params.d_x
    h_w, h_b, o_w, o_b = H.w, H.b, O.w, O.b
    h_rec = h_w[:, :, d_x:]
    if units is not None:
        s, h = units
        h_w, h_b = h_w.take(h, axis=1), h_b.take(h, axis=1)
        h_rec = h_w.take(d_x + s, axis=2)
        o_w, o_b = o_w.take(s, axis=1).take(h, axis=2), o_b.take(s, axis=1)
    table = np.matmul(x, h_w[:, :, :d_x].transpose(0, 2, 1)) + h_b[:, None]
    return table, (np.ascontiguousarray(h_rec.transpose(0, 2, 1)),
                   np.multiply(o_w.transpose(0, 2, 1), _GATE_SCALE, order="C"),
                   o_b[:, None] * _GATE_SCALE)


def _project_input_backward(params: HLSTMCellParams, x: np.ndarray,
                            d_xw: np.ndarray) -> np.ndarray:
    """Reverse of _layout's x part: accumulates the x part of H.grad_w and
    H.grad_b from d_xw (4, N, d_h) and returns dL/dx (N, d_x)."""
    H, d_x = params.H, params.d_x
    H.grad_w[:, :, :d_x] += np.matmul(d_xw.transpose(0, 2, 1), x)
    H.grad_b += d_xw.sum(axis=1)
    return np.matmul(d_xw, H.w[:, :, :d_x]).sum(axis=0)


def cell_forward(operands: tuple[np.ndarray, ...], table: np.ndarray, ids: np.ndarray,
                 init: HLSTMState, hs: np.ndarray, record: bool = True
                 ) -> tuple[HLSTMState, _Recording]:
    """A pass's T steps, all four gates at once, given the pass's step
    operands and table (4, V, d_h), the x part of the H layers'
    pre-activations per symbol (see _layout), and ids (T, B), each step's
    symbols. A step gathers its (4, B, d_h) rows of the table into one
    reused buffer, then runs one NN batched matmul that adds the recurrent
    part, another that runs the O layers, and one tanh that computes every
    gate. The ids are checked against V once here, so the steps gather
    without a bounds check. Step t's h goes into hs[t] (hs is (T, B, d_s)).
    The operands read w as W*Msk, relying on w[mask == 0] == 0. Every step
    writes into the pass's _Recording, made here: a slot per step when
    `record`, else one slot that every step reuses; the O layers read the
    relu output `act` itself. Returns the final state (h is hs[T-1]; `init`
    is left as it was) and the recording."""
    h_rec, o_w, o_b = operands
    batch, d_h = len(init.h), h_rec.shape[2]
    if table.ndim != 3 or table.shape[::2] != (len(GATES), d_h) or ids.shape[1:] != (batch,):
        raise ContractViolation(f"table {table.shape} and ids {ids.shape} are not "
                                f"(4, V, d_h={d_h}) and (T, B={batch})")
    if np.any(ids < 0) or np.any(ids >= table.shape[1]):
        raise ContractViolation("token id out of vocabulary range")
    slots, gate_shape = len(ids) if record else 1, (len(GATES), batch, o_w.shape[2])
    x_t, scratch = np.empty((len(GATES), batch, d_h)), np.empty(gate_shape[1:])
    # a same-shape add runs as one inner loop, a (4, 1, d_s) one as 4 B loops of d_s
    o_b = np.broadcast_to(o_b, gate_shape).copy()
    rec = _Recording(init, hs, np.empty((slots, len(GATES), batch, d_h)),
                     np.empty((slots, *gate_shape)), *np.empty((2, slots, *gate_shape[1:])))
    # each slot's views, made once per pass: slicing per step outweighs a small step
    views = [(rec.act[k], rec.gates[k], rec.gates[k, :3], *rec.gates[k], rec.c[k],
              rec.tanh_c[k]) for k in range(slots)]
    h, c = init.h, init.c
    for step_ids, h_t, (act, gates, sigmoids, f, i, o, g, c_t, tanh_c) \
            in zip(ids, hs, cycle(views)):
        np.matmul(h, h_rec, out=act)
        # "clip" skips the bounds check, which with "raise" also buffers out
        act += table.take(step_ids, axis=1, out=x_t, mode="clip")
        np.maximum(act, 0.0, out=act)
        np.matmul(act, o_w, out=gates)
        gates += o_b
        np.tanh(gates, out=gates)
        sigmoids += 1.0
        sigmoids *= 0.5
        c = np.multiply(f, c, out=c_t)
        c += np.multiply(i, g, out=scratch)
        h = np.multiply(o, np.tanh(c, out=tanh_c), out=h_t)
    return HLSTMState(h=h, c=c), rec


class _BackwardPass:
    """A bptt pass's step operands (H's recurrent part, contiguous; O.w is),
    step buffers and gradient accumulators, which `flush` adds to the cell."""

    def __init__(self, params: HLSTMCellParams, batch: int):
        self.h_rec = np.ascontiguousarray(params.H.w[:, :, params.d_x:])
        self.o_w = params.O.w
        self.grad_h, self.step_h = np.zeros((2, *self.h_rec.shape))
        self.grad_o, self.step_o = np.zeros((2, *self.o_w.shape))
        self.grad_o_b = np.zeros_like(params.O.b)
        self.d_gates, self.deriv = np.empty((2, len(GATES), batch, params.d_s))
        self.d_in = np.empty((len(GATES), batch, params.d_h))

    def flush(self, params: HLSTMCellParams) -> None:
        params.H.grad_w[:, :, params.d_x:] += self.grad_h
        params.O.grad_w += self.grad_o
        params.O.grad_b += self.grad_o_b


# A gate's derivative via its output y: y (A - y) + B, so y (1 - y) or 1 - y^2.
_DERIV_A = np.array([1.0, 1.0, 1.0, 0.0])[:, None, None]
_DERIV_B = np.array([0.0, 0.0, 0.0, 1.0])[:, None, None]


def cell_backward(bwd: _BackwardPass, rec: _Recording, t: int, d_h_t: np.ndarray,
                  d_c_t: np.ndarray, out: np.ndarray | None = None
                  ) -> tuple[np.ndarray, HLSTMState]:
    """Exact reverse of step t of the recording `rec` (at t = 0 the previous
    state is rec.init): returns (dL/dxw_t, the gradient of the step's
    gathered table rows, into `out` if given, dL/d previous state) and sums
    the O blocks' and H's recurrent gradients in `bwd` (see `flush`). The x
    part of H.grad_w and H.grad_b belong to the table's projection (see
    _project_input_backward)."""
    h_prev, c_prev = (rec.hs[t - 1], rec.c[t - 1]) if t else (rec.init.h, rec.init.c)
    gates, tanh_c, d_gates = rec.gates[t], rec.tanh_c[t], bwd.d_gates
    f, i, o, g = gates
    d_c = d_c_t + d_h_t * o * (1.0 - tanh_c * tanh_c)
    for k, (u, v) in enumerate([(d_c, c_prev), (d_c, g), (d_h_t, tanh_c), (d_c, i)]):
        np.multiply(u, v, out=d_gates[k])
    np.multiply(np.subtract(_DERIV_A, gates, out=bwd.deriv), gates, out=bwd.deriv)
    d_gates *= np.add(bwd.deriv, _DERIV_B, out=bwd.deriv)
    bwd.grad_o += np.matmul(d_gates.transpose(0, 2, 1), rec.act[t], out=bwd.step_o)
    bwd.grad_o_b += d_gates.sum(axis=1)
    d_in = np.matmul(d_gates, bwd.o_w, out=bwd.d_in)
    d_pre = np.multiply(d_in, rec.act[t] > 0.0, out=out)
    bwd.grad_h += np.matmul(d_pre.transpose(0, 2, 1), h_prev, out=bwd.step_h)
    # d_gates is spent: its buffer takes the four gates' terms of dL/dh_prev
    d_h_prev = np.matmul(d_pre, bwd.h_rec, out=d_gates).sum(axis=0)
    return d_pre, HLSTMState(h=d_h_prev, c=d_c * f)


@dataclass
class LMModel:
    """Character-level language model: embedding -> H-LSTM cell -> head."""

    embedding: np.ndarray          # (V, d_x)
    cell: HLSTMCellParams
    head: MaskedLinear             # (V, d_s)
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
               rng: np.random.Generator) -> "LMModel":
        if vocab_size < 2:
            raise ContractViolation("vocabulary must have at least 2 symbols")
        emb = rng.uniform(-0.1, 0.1, size=(vocab_size, d_x))
        cell = HLSTMCellParams.create(d_x, d_s, d_h, rng, name="cell0")
        head = MaskedLinear.dense(vocab_size, d_s, rng, name="head")
        return cls(embedding=emb, cell=cell, head=head)


def _read_units(model: LMModel) -> tuple[np.ndarray, np.ndarray]:
    """Flags of the d_s and d_h units something reads (see freeze): one GEMV
    column sum per mask block, exact as its entries are 0 or 1."""
    cell, d_x = model.cell, model.d_x
    s_head, s_h, h_o = (np.ones(m.size // m.shape[-1]) @ m.reshape(-1, m.shape[-1])
                        for m in (model.head.mask, cell.H.mask[:, :, d_x:], cell.O.mask))
    return s_head + s_h > 0.0, h_o > 0.0


def read_dims(model: LMModel) -> tuple[int, int]:
    """(d_s, d_h) of freeze(model), without building it."""
    read_s, read_h = _read_units(model)
    return int(read_s.sum()), int(read_h.sum())


def _take_units(model: LMModel, s: np.ndarray, h: np.ndarray) -> LMModel:
    """A dense copy of `model` holding only its d_s units s and d_h units h
    (sorted index arrays); the embedding and d_x stay whole."""
    cell, head, d_x = model.cell, model.head, model.d_x
    cols = np.concatenate([np.arange(d_x), d_x + s])
    small = HLSTMCellParams(d_x, s.size, h.size, cell.name)
    for attr in ("w", "mask"):
        getattr(small.H, attr)[...] = getattr(cell.H, attr).take(h, axis=1).take(cols, axis=2)
        getattr(small.O, attr)[...] = getattr(cell.O, attr).take(s, axis=1).take(h, axis=2)
    small.H.b[...] = cell.H.b[:, h]
    small.O.b[...] = cell.O.b[:, s]
    small_head = MaskedLinear(head.w[:, s], head.mask[:, s], head.b.copy(), head.name)
    return LMModel(model.embedding.copy(), small, small_head)


def _put_units(model: LMModel, small: LMModel, s: np.ndarray, h: np.ndarray) -> None:
    """Write the weights, biases and embedding of `small`, a
    `_take_units(model, s, h)` copy, back into `model`. Masks stay: training
    does not change them."""
    cell, head, d_x = model.cell, model.head, model.d_x
    cols = np.concatenate([np.arange(d_x), d_x + s])
    cell.H.w[:, h[:, None], cols] = small.cell.H.w
    cell.O.w[:, s[:, None], h] = small.cell.O.w
    cell.H.b[:, h] = small.cell.H.b
    cell.O.b[:, s] = small.cell.O.b
    head.w[:, s] = small.head.w
    head.b[...] = small.head.b
    model.embedding[...] = small.embedding


@contextmanager
def training_copy(model: LMModel):
    """Yields a model to train in place of `model`: a dense copy holding
    only the units that are read (see freeze) or written (`active_units()`).
    On a normal exit the copy's weights, biases and embedding are written
    back into `model`. With no unit to drop, `model` itself.

    Training the copy matches training the model up to BLAS summation
    order. A dropped unit is unread and has no live entry, so it only adds
    zero terms and SGD never touches it; an unread unit with live entries
    (wp leaves such units) stays, so weight decay still reaches them; the
    masks and row liveness of the kept slice are unchanged."""
    read_s, read_h = _read_units(model)
    active_s, active_h = model.cell.active_units()
    keep_s, keep_h = read_s | active_s, read_h | active_h
    if keep_s.all() and keep_h.all():
        yield model
        return
    s, h = np.flatnonzero(keep_s), np.flatnonzero(keep_h)
    small = _take_units(model, s, h)
    yield small
    _put_units(model, small, s, h)


class FrozenModel(NamedTuple):
    """An inference model, laid out once (see `freeze`): `table`, the x
    part of H per symbol (4, V, d_h), bias included; the step `operands`
    (see _layout); and the `head`. A recording pass reads the same fields
    of the whole model."""

    table: np.ndarray
    operands: tuple[np.ndarray, np.ndarray, np.ndarray]
    head: MaskedLinear

    def forward(self, tokens: np.ndarray, state: HLSTMState | None = None
                ) -> tuple[np.ndarray, HLSTMState]:
        """(logits (B, T, V), final state) of a window of tokens (B, T) from
        `state` (None: zero state), which it leaves as it was."""
        logits, _, state = _unroll(self, tokens, state)
        return logits, state


def freeze(model: LMModel) -> FrozenModel:
    """`model` as an inference model of only the units something reads, laid
    out once: the same logits up to BLAS summation order. A d_s unit is read
    while a head column or an H column d_x+s of it is live, a d_h unit while
    an O column of it is; an unread unit only adds zero terms, and a unit wp
    emptied may still be read (its bias flows on). It shares the head's bias
    with `model`, and the whole head when every unit is read; its other
    arrays are new, so it keeps the weights it was frozen with."""
    cell, head = model.cell, model.head
    read_s, read_h = _read_units(model)
    if read_s.all() and read_h.all():
        return FrozenModel(*_layout(cell, model.embedding), head)
    s, h = np.flatnonzero(read_s), np.flatnonzero(read_h)
    # gathered from a valid layer, so it keeps the invariants unchecked; the bench
    # counts MACs in MaskedLinear.forward. w[:, s] stays column-major: a row-major
    # copy changes the head GEMM's rounding
    head = MaskedLinear.on_arrays(head.name, w=head.w[:, s], mask=head.mask[:, s], b=head.b)
    return FrozenModel(*_layout(cell, model.embedding, (s, h)), head)


def _unroll(frozen: FrozenModel, tokens: np.ndarray, state: HLSTMState | None,
            record: bool = False):
    """One pass: one cell_forward call, then the head once on the h stack.
    Returns (logits, a (B, T, V) view of the head's (T, B, V), recording, state)."""
    table, operands, head = frozen
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ContractViolation(f"tokens shape {tokens.shape} is not (B, T)")
    batch, T = tokens.shape
    d_s = head.in_dim
    if state is None:
        state = HLSTMState.zeros(d_s, batch)
    # step-major, so each step reads and writes a contiguous h
    hs = np.empty((T, batch, d_s), dtype=FLOAT)
    state, rec = cell_forward(operands, table, np.ascontiguousarray(tokens.T), state, hs,
                              record)
    # a non-finite c stays non-finite through f * c + i * g
    if not np.all(np.isfinite(state.c)):
        raise NumericAbort("non-finite value in cell state")
    logits = head.forward(hs.reshape(-1, d_s)).reshape(T, batch, head.out_dim)
    return logits.transpose(1, 0, 2), rec, state


def unroll_forward(model: LMModel, tokens: np.ndarray,
                   init: HLSTMState | None = None, train: bool = False):
    """Run T steps from `init` (None: zero state); returns (logits,
    recording, final state). tokens has shape (B, T) and logits (B, T, V).

    train=True keeps every step's arrays for `bptt` (see cell_forward), at
    the shape of the model given, and the final state (full-shape) continues
    the next window. train=False runs `freeze(model).forward(tokens)` from a
    zero state and takes no init; its recording is an empty list. Stateful
    forward-only windows run on a frozen model, as in `evaluate`.
    """
    if train:
        layout = FrozenModel(*_layout(model.cell, model.embedding), model.head)
        return _unroll(layout, tokens, init, record=True)
    if init is not None:
        raise ContractViolation("a forward-only pass takes no init (see evaluate)")
    logits, state = freeze(model).forward(tokens)
    return logits, [], state


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


def bptt(model: LMModel, logits: np.ndarray, rec: _Recording, tokens: np.ndarray,
         targets: np.ndarray, grad_scale: float = 1.0) -> float:
    """Cross-entropy over all steps; accumulates every parameter gradient.

    Returns the summed NLL (not the mean). grad_scale rescales accumulated
    gradients (training uses 1/(B*T); the finite-difference oracle uses 1).
    `rec` is the recording of a train=True unroll_forward, consumed here:
    a second bptt on it raises ContractViolation.
    """
    tokens, targets = np.asarray(tokens), np.asarray(targets)
    if targets.shape != tokens.shape:
        raise ContractViolation("targets must match tokens shape")
    if not isinstance(rec, _Recording) or len(rec.act) != tokens.shape[1]:
        raise ContractViolation("bptt needs the recording of a train=True unroll_forward")
    if rec.consumed:
        raise ContractViolation("recording already consumed by a backward pass")
    rec.consumed = True
    probs, idx, total_nll = _softmax_nll(logits, targets)
    d_logits = probs.copy()
    d_logits[idx] -= 1.0
    d_logits *= grad_scale

    batch, T = tokens.shape
    cell, head = model.cell, model.head
    # in (B, T) order, so the head's gradient sums its rows as the logits run
    hs = rec.hs.transpose(1, 0, 2).reshape(batch * T, cell.d_s)
    d_hs = head.backward(hs, d_logits.reshape(batch * T, -1)).reshape(batch, T, -1)
    d_xw = np.empty((len(GATES), T, batch, cell.d_h), dtype=FLOAT)
    bwd = _BackwardPass(cell, batch)
    d_next = HLSTMState.zeros(cell.d_s, batch)
    for t in range(T - 1, -1, -1):
        _, d_next = cell_backward(bwd, rec, t, d_hs[:, t] + d_next.h, d_next.c, out=d_xw[:, t])
    bwd.flush(cell)
    one_hot = (np.arange(model.vocab_size)[:, None] == tokens.T.reshape(-1)).astype(FLOAT)
    d_table = np.matmul(one_hot, d_xw.reshape(len(GATES), T * batch, cell.d_h))
    model.embedding_grad += _project_input_backward(cell, model.embedding, d_table)
    return total_nll


def perplexity(mean_nll: float) -> float:
    if not math.isfinite(mean_nll):
        raise ContractViolation("mean NLL must be finite")
    return math.exp(mean_nll)


def evaluate(model: LMModel, tokens: np.ndarray, seq_len: int = 64,
             batch: int = 1) -> float:
    """Mean per-token NLL of a token stream, stateful across windows, which
    run on `freeze(model)`."""
    frozen = freeze(model)
    total_nll = 0.0
    count = 0
    state = None
    for xs, ys in batch_windows(np.asarray(tokens), batch, seq_len):
        logits, state = frozen.forward(xs, state)
        total_nll += _softmax_nll(logits, ys)[2]
        count += xs.size
    if count == 0:
        raise ContractViolation("token stream too short to evaluate")
    return total_nll / count
