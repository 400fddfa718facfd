"""H-LSTM cell, sequence unrolling with BPTT, and the perplexity metric.

The cell has four control gates (forget, input, output, update); each gate
is a small feed-forward net: one masked ReLU hidden layer followed by a
masked output layer. Gate equations per step, with z = [x_t, h_{t-1}]:

    f,i,o = sigmoid(O_gate(relu(H_gate(z))))    g = tanh(O_g(relu(H_g(z))))
    c_t   = f * c_{t-1} + i * g                 h_t = o * tanh(c_t)

The gates' layers live in two stacked blocks, H (4, d_h, d_x+d_s) and O
(4, d_s, d_h), the cell's only state; each gate's H and O layer (what
grow/prune and SGD work on) is a MaskedLinear view of its slice, made when
asked for. The kernels read w as W*Msk: w[mask == 0] == 0 always holds.

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
derives the three sigmoid gates at once and the tanh gate apart. Each pass
(in training, each window) lays out what its steps read once and
contiguous, as OpenBLAS runs transposed views slower: `_layout`, and
`Backward.load`.

One `Backward` per epoch owns bptt's buffers and two weight-gradient sums:
cell_backward writes each step's terms into it, bptt hands it steps to sum.
Its subclass `GradHelper` (a numkit.Child; Trainer.epoch forks one on a large
enough pass, in a process that may run on two cores) sums them in a helper
process beside the recurrence, bit for bit as an in-process one does.

A model is stored at its live dims: a prune removes from the arrays every
unit that nothing reads or writes (`growprune.sweep`) and growth appends
units, so every pass runs the model's own shape and a pruned unit costs no
time. Inference runs `freeze(model)`: the table, step operands and head,
laid out once, so each forward pays only for its steps and leaves the state
it starts from as it was. `unroll_forward(train=False)` freezes the model
per call; `evaluate` and real-mode latency (`synthflow.measure_model_latency`,
`hwsynth bench`) freeze once and run every window on the frozen model.

Precision: a model computes in the dtype of its arrays, which
`LMModel.create` sets (`dtype`, default numkit.DTYPE); every array a pass
makes takes the dtype of the arrays it reads. A constant a pass applies is a
Python scalar or an array made in that dtype, never a float64 array, which
numpy would cast through a buffered loop on every call. Everything the
flow, the CLI and the benchmark create is float32, the precision a deployed
LSTM runs. float64 models serve only the oracle tests (finite differences,
1e-12 and bitwise references) and checkpoints written before models ran in
float32, which load in float64.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass, field
from itertools import cycle
from typing import NamedTuple

import numpy as np

from .numkit import (
    ARRAYS,
    DTYPE,
    Child,
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
    def zeros(cls, d_s: int, batch: int, dtype=DTYPE) -> "HLSTMState":
        return cls(*np.zeros((2, batch, d_s), dtype))


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
    def zeros(cls, out_dim: int, in_dim: int, dtype, mask: float = 1.0) -> "GateBlock":
        """Zero weights, biases and gradients; every mask entry is `mask`."""
        shape = (len(GATES), out_dim, in_dim)
        return cls(w=np.zeros(shape, dtype), mask=np.full(shape, mask, dtype),
                   b=np.zeros(shape[:2], dtype), grad_w=np.zeros(shape, dtype),
                   grad_b=np.zeros(shape[:2], dtype))


class HLSTMCellParams:
    """Parameters of one H-LSTM cell: its two stacked blocks, H (4, d_h,
    d_x+d_s) and O (4, d_s, d_h), and nothing else; d_s, d_h and the dtype
    are read off them. All four gates share identical (d_x, d_s, d_h);
    coordinated structured pruning keeps them equal. h_layers[g] and
    o_layers[g] are MaskedLinear views of gate g's slice of each block,
    made on each access, so a view made before a resize (`growprune._resize`
    assigns new blocks) reads the old blocks.
    """

    def __init__(self, d_x: int, d_s: int, d_h: int, name: str = "cell", dtype=DTYPE):
        self.d_x, self.name = d_x, name
        self.H = GateBlock.zeros(d_h, d_x + d_s, dtype)
        self.O = GateBlock.zeros(d_s, d_h, dtype)

    @classmethod
    def create(cls, d_x: int, d_s: int, d_h: int, rng: np.random.Generator,
               name: str = "cell", dtype=DTYPE) -> "HLSTMCellParams":
        cell = cls(d_x=d_x, d_s=d_s, d_h=d_h, name=name, dtype=dtype)
        for layer in cell.layers():
            bound = 1.0 / math.sqrt(max(layer.in_dim, 1))
            layer.w[...] = rng.uniform(-bound, bound, size=layer.w.shape)
        return cell

    @property
    def d_s(self) -> int:
        return self.O.w.shape[1]

    @property
    def d_h(self) -> int:
        return self.O.w.shape[2]

    @property
    def dtype(self) -> np.dtype:
        return self.H.w.dtype

    def _views(self, kind: str) -> dict[str, MaskedLinear]:
        """Each gate's new MaskedLinear view of its slice of block `kind`."""
        block = getattr(self, kind)
        return {gate: MaskedLinear.on_arrays(f"{self.name}.{kind}{gate}",
                                             **{attr: getattr(block, attr)[k] for attr in ARRAYS})
                for k, gate in enumerate(GATES)}

    h_layers = property(lambda self: self._views("H"))
    o_layers = property(lambda self: self._views("O"))

    def layers(self) -> list[MaskedLinear]:
        h_layers, o_layers = self.h_layers, self.o_layers
        return [layer for gate in GATES for layer in (h_layers[gate], o_layers[gate])]

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


def _layout(params: HLSTMCellParams, x: np.ndarray
            ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """What a pass's steps read. First the x part of every H layer's
    pre-activation, bias included: x (N, d_x) -> (4, N, d_h), on the
    embedding a per-symbol table. Then the step operands: H's recurrent part
    as a contiguous (4, d_s, d_h) array, O as a contiguous (4, d_h, d_s)
    array and O's bias, both scaled per gate in the cell's dtype, by 1/2 for
    f, i and o and by 1 for g: one tanh then serves all four gates, as
    sigmoid(v) = (1 + tanh(v/2)) / 2. Scaling by 1/2 or 1 is exact, so it
    changes no value."""
    H, O, d_x = params.H, params.O, params.d_x
    scale = np.array([0.5, 0.5, 0.5, 1.0], params.dtype)[:, None, None]
    table = np.matmul(x, H.w[:, :, :d_x].transpose(0, 2, 1)) + H.b[:, None]
    return table, (np.ascontiguousarray(H.w[:, :, d_x:].transpose(0, 2, 1)),
                   np.multiply(O.w.transpose(0, 2, 1), scale, order="C"),
                   O.b[:, None] * scale)


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
    dtype = table.dtype
    x_t, scratch = np.empty((len(GATES), batch, d_h), dtype), np.empty(gate_shape[1:], dtype)
    # a same-shape add runs as one inner loop, a (4, 1, d_s) one as 4 B loops of d_s
    o_b = np.broadcast_to(o_b, gate_shape).copy()
    rec = _Recording(init, hs, np.empty((slots, len(GATES), batch, d_h), dtype),
                     np.empty((slots, *gate_shape), dtype),
                     *np.empty((2, slots, *gate_shape[1:]), dtype))
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


def usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Backward:
    """The buffers and weight-gradient sums of bptt's passes of one shape
    (Trainer.epoch makes one per epoch, `for_pass`, as dims, B and T are
    fixed within one). `load` starts a window; cell_backward writes each
    step's d_gates into its slot and its d_pre into `d_xw[:, t]`; `submit`
    sums the weight gradients no later step reads, grad_o += d_gates^T act
    (the O blocks) and grad_h += d_pre^T h_prev (H's recurrent part); `flush`
    adds the sums to the cell. In-process, CHUNK is 1: each step's sums run
    right after it, on one reused d_gates slot, reading the recording in place."""

    CHUNK = 1       # steps per `submit`

    @staticmethod
    def for_pass(cell: HLSTMCellParams, batch: int, seq_len: int) -> Backward:
        """A GradHelper for passes of this shape, or an in-process Backward
        below GradHelper.MIN_WORK or when this process may run on one core
        only (`usable_cores`), where the helper would overlap nothing."""
        if cell.d_s * cell.d_h * batch < GradHelper.MIN_WORK or usable_cores() < 2:
            return Backward(cell, batch, seq_len)
        return GradHelper(cell, batch, seq_len)

    def __init__(self, cell: HLSTMCellParams, batch: int, seq_len: int):
        T, d_s, d_h, gates, dtype = seq_len, cell.d_s, cell.d_h, len(GATES), cell.dtype
        self.rec_shapes = ((T, gates, batch, d_h), (T, batch, d_s))
        step, o, h, o_b = (gates, batch, d_s), (gates, d_s, d_h), (gates, d_h, d_s), (gates, d_s)
        vars(self).update(self._arrays(
            dtype, d_gates=(1, *step), d_xw=(gates, T, batch, d_h), grad_o=o, grad_h=h,
            step_o=o, step_h=h, h_rec=h, grad_o_b=o_b, step_o_b=o_b, deriv=step, d_prev=step,
            d_in=(gates, batch, d_h)))

    def _arrays(self, dtype: np.dtype, **shapes) -> dict[str, np.ndarray]:
        """Arrays of these shapes in one `_block`, each on a cache line: a step's
        weight-gradient GEMMs ran 5-11 % slower 16 bytes past one (d = 64, 128)."""
        sizes = [-(-math.prod(shape) * dtype.itemsize // 64) * 64 for shape in shapes.values()]
        memory, offset, arrays = self._block(sum(sizes)), 0, {}
        for (name, shape), size in zip(shapes.items(), sizes):
            arrays[name] = np.ndarray(shape, dtype, memory, offset)
            offset += size
        return arrays

    def _block(self, size: int):
        raw = np.empty(size + 64, np.uint8)
        return raw[-raw.ctypes.data % 64:][:size]        # from its first cache line

    # a `with` target, as a GradHelper is
    __enter__, __exit__ = (lambda self: self), (lambda self, *_exc: None)

    def load(self, cell: HLSTMCellParams, rec: _Recording) -> None:
        """Start a window: take its recording (`_read`) and the cell's step
        operands (H's recurrent part, made contiguous; O.w is); zero the sums."""
        if (rec.act.shape, rec.hs.shape) != self.rec_shapes:
            raise ContractViolation(f"recording act {rec.act.shape} and hs {rec.hs.shape} do not "
                                    f"fit the backward's {self.rec_shapes}")
        self._read(rec)
        np.copyto(self.h_rec, cell.H.w[:, :, cell.d_x:])
        self.o_w = cell.O.w
        for sums in (self.grad_o, self.grad_h, self.grad_o_b):
            sums[...] = 0.0

    def _read(self, rec: _Recording) -> None:
        self.act, self.hs, self.init_h = rec.act, rec.hs, rec.init.h

    def submit(self, t: int) -> None:
        """Sum steps min(t + CHUNK, T) - 1 down to t, in that order: bptt
        calls this at every t that CHUNK divides, once those steps are
        written."""
        for step in range(min(t + self.CHUNK, len(self.act)) - 1, t - 1, -1):
            d_gates = self.d_gates[step % len(self.d_gates)]
            self.grad_o += np.matmul(d_gates.transpose(0, 2, 1), self.act[step], out=self.step_o)
            self.grad_h += np.matmul(self.d_xw[:, step].transpose(0, 2, 1),
                                     self.hs[step - 1] if step else self.init_h, out=self.step_h)

    def flush(self, cell: HLSTMCellParams) -> None:
        """Add the window's sums to the cell."""
        cell.H.grad_w[:, :, cell.d_x:] += self.grad_h
        cell.O.grad_w += self.grad_o
        cell.O.grad_b += self.grad_o_b


class GradHelper(Child, Backward):
    """A Backward whose two weight-gradient sums run in a helper process
    beside the recurrence, as nothing reads them before the window's SGD
    step (Appleyard, Kocisky, Blunsom, arXiv 1604.01946, overlap these GEMMs).

    A numkit.Child whose work is `_serve`: making one forks the helper;
    `stop`, also on leaving a `with` block, stops and reaps it. Its arrays
    live in a shared mmap made before the fork, into which `load` copies the
    window's recording. `submit` hands the helper steps through the `cmd`
    pipe, CHUNK at a time, which it sums as an in-process Backward does, bit
    for bit. `flush` waits for the window's sums, and raises, naming the
    helper and its exit code, if the helper died."""

    CHUNK = 8
    # d_s * d_h * B below which `for_pass` forks no helper, whose fork and copy-on-write
    # faults cost more than it saves: at B = 32 the bench's d = 64 (2^17) flows ran 10-19 %
    # slower with one, at d = 128 (2^19) a T = 64 window's backward fell from 29 to 20 ms
    MIN_WORK = 1 << 18

    def __init__(self, cell: HLSTMCellParams, batch: int, seq_len: int):
        Backward.__init__(self, cell, batch, seq_len)
        Child.__init__(self, self._serve)

    def _arrays(self, dtype: np.dtype, **shapes) -> dict[str, np.ndarray]:
        # the recording's arrays the helper reads, and a d_gates slot per step
        act, hs = self.rec_shapes
        shapes = {"act": act, "hs": hs, "init_h": hs[1:], **shapes}
        shapes["d_gates"] = (act[0], *shapes["d_gates"][1:])
        return super()._arrays(dtype, **shapes)

    def _block(self, size: int) -> mmap.mmap:
        return mmap.mmap(-1, size)          # shared with the helper once it forks

    def _serve(self, cmd: int, done: int) -> None:
        """The helper's work: sums the steps each message from `cmd` hands it,
        writes a byte to `done` after a window's step 0, and returns at EOF."""
        while message := os.read(cmd, 4):
            t = int.from_bytes(message, "little")
            super().submit(t)
            if t == 0:
                os.write(done, b"\0")

    def _read(self, rec: _Recording) -> None:
        # copied while the helper idles between windows
        np.copyto(self.act, rec.act)
        np.copyto(self.hs, rec.hs)
        np.copyto(self.init_h, rec.init.h)

    def submit(self, t: int) -> None:
        try:
            os.write(self.cmd, t.to_bytes(4, "little"))
        except BrokenPipeError:
            self._died()

    def flush(self, cell: HLSTMCellParams) -> None:
        if os.read(self.reply, 1) != b"\0":      # the window's sums are done
            self._died()
        super().flush(cell)

    def _died(self):
        raise RuntimeError(f"bptt: its weight-gradient helper process {self.pid} exited with "
                           f"code {self.stop()}")


def cell_backward(bwd: Backward, rec: _Recording, t: int, d_h_t: np.ndarray,
                  d_c_t: np.ndarray) -> tuple[np.ndarray, HLSTMState]:
    """Exact reverse of step t of the recording `rec` (at t = 0 the previous
    state is rec.init): returns (dL/dxw_t, the gradient of the step's
    gathered table rows, written into bwd.d_xw[:, t], dL/d previous state),
    leaves the step's d_gates in bwd's slot for `bwd.submit` to sum the
    weight gradients from, and sums O.grad_b in `bwd`. The x part of H.grad_w
    and H.grad_b belong to the table's projection (_project_input_backward).
    Each gate's derivative comes from its recorded output y, (1 - y) y for f,
    i and o and 1 - y^2 for g, in the recording's dtype with Python-scalar
    constants, so a step casts nothing."""
    c_prev = rec.c[t - 1] if t else rec.init.c
    gates, tanh_c, d_gates = rec.gates[t], rec.tanh_c[t], bwd.d_gates[t % len(bwd.d_gates)]
    f, i, o, g = gates
    d_c = d_c_t + d_h_t * o * (1.0 - tanh_c * tanh_c)
    np.multiply(d_c, c_prev, out=d_gates[0])
    np.multiply(d_c, g, out=d_gates[1])
    np.multiply(d_h_t, tanh_c, out=d_gates[2])
    np.multiply(d_c, i, out=d_gates[3])
    deriv, sigmoids = bwd.deriv, gates[:3]
    np.multiply(np.subtract(1.0, sigmoids, out=deriv[:3]), sigmoids, out=deriv[:3])
    np.subtract(1.0, np.multiply(g, g, out=deriv[3]), out=deriv[3])
    d_gates *= deriv
    bwd.grad_o_b += d_gates.sum(axis=1, out=bwd.step_o_b)
    d_in = np.matmul(d_gates, bwd.o_w, out=bwd.d_in)
    d_pre = np.multiply(d_in, rec.act[t] > 0.0, out=bwd.d_xw[:, t])
    d_h_prev = np.matmul(d_pre, bwd.h_rec, out=bwd.d_prev).sum(axis=0)
    return d_pre, HLSTMState(h=d_h_prev, c=d_c * f)


@dataclass
class LMModel:
    """Character-level language model: embedding -> H-LSTM cell -> head."""

    embedding: np.ndarray          # (V, d_x)
    cell: HLSTMCellParams
    head: MaskedLinear             # (V, d_s)
    embedding_grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.embedding = np.asarray(self.embedding, dtype=self.cell.dtype)
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

    @classmethod
    def create(cls, vocab_size: int, d_x: int, d_s: int, d_h: int,
               rng: np.random.Generator, dtype=DTYPE) -> "LMModel":
        """A dense model whose every array has `dtype`. The draws are the same
        for every dtype: float64 ones, rounded."""
        if vocab_size < 2:
            raise ContractViolation("vocabulary must have at least 2 symbols")
        emb = rng.uniform(-0.1, 0.1, size=(vocab_size, d_x))
        cell = HLSTMCellParams.create(d_x, d_s, d_h, rng, name="cell0", dtype=dtype)
        head = MaskedLinear.dense(vocab_size, d_s, rng, name="head", dtype=dtype)
        return cls(embedding=emb, cell=cell, head=head)


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
    """`model` as an inference model, laid out once: the same logits as a
    recording pass up to BLAS summation order. It shares no array with
    `model`, so it keeps the weights, biases and dims it was frozen with."""
    head = model.head
    # copies of a valid layer, so they keep the invariants unchecked (np.copy keeps
    # the layout, which sets the head GEMM's rounding); the bench counts MACs in
    # MaskedLinear.forward
    head = MaskedLinear.on_arrays(head.name, w=np.copy(head.w), mask=np.copy(head.mask),
                                  b=np.copy(head.b))
    return FrozenModel(*_layout(model.cell, model.embedding), head)


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
        state = HLSTMState.zeros(d_s, batch, table.dtype)
    # step-major, so each step reads and writes a contiguous h
    hs = np.empty((T, batch, d_s), table.dtype)
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

    train=True keeps every step's arrays for `bptt` (see cell_forward), and
    the final state continues the next window. train=False runs
    `freeze(model).forward(tokens)` from a zero state and takes no init; its
    recording is an empty list. Stateful forward-only windows run on a
    frozen model, as in `evaluate`.
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
         targets: np.ndarray, grad_scale: float = 1.0,
         backward: Backward | None = None) -> float:
    """Cross-entropy over all steps; accumulates every parameter gradient.

    Returns the summed NLL (not the mean). grad_scale rescales accumulated
    gradients (training uses 1/(B*T); the finite-difference oracle uses 1).
    `rec` is the recording of a train=True unroll_forward, consumed here:
    a second bptt on it raises ContractViolation.

    `backward` (a Backward sized for the window; None: an in-process one)
    holds the pass's buffers and sums the O blocks' and H's recurrent weight
    gradients, CHUNK steps at a time (`submit`), while this runs the
    recurrence, then the one-hot table and the embedding backward; `flush`
    adds its sums to the cell.
    """
    tokens, targets = np.asarray(tokens), np.asarray(targets)
    if targets.shape != tokens.shape:
        raise ContractViolation("targets must match tokens shape")
    if not isinstance(rec, _Recording) or len(rec.act) != tokens.shape[1]:
        raise ContractViolation("bptt needs the recording of a train=True unroll_forward")
    if rec.consumed:
        raise ContractViolation("recording already consumed by a backward pass")
    rec.consumed = True
    batch, T = tokens.shape
    cell, head = model.cell, model.head
    bwd = Backward(cell, batch, T) if backward is None else backward
    bwd.load(cell, rec)
    probs, idx, total_nll = _softmax_nll(logits, targets)
    d_logits = probs.copy()
    d_logits[idx] -= 1.0
    d_logits *= grad_scale

    # in (B, T) order, so the head's gradient sums its rows as the logits run
    hs = rec.hs.transpose(1, 0, 2).reshape(batch * T, cell.d_s)
    d_hs = head.backward(hs, d_logits.reshape(batch * T, -1)).reshape(batch, T, -1)
    # step-major, so each step reads a contiguous d_hs[t]
    d_hs = np.ascontiguousarray(d_hs.transpose(1, 0, 2))
    d_next = HLSTMState.zeros(cell.d_s, batch, cell.dtype)
    for t in range(T - 1, -1, -1):
        d_hs[t] += d_next.h
        _, d_next = cell_backward(bwd, rec, t, d_hs[t], d_next.c)
        if t % bwd.CHUNK == 0:
            bwd.submit(t)
    one_hot = np.zeros((model.vocab_size, T * batch), cell.dtype)
    one_hot[tokens.T.reshape(-1), np.arange(T * batch)] = 1.0
    d_table = np.matmul(one_hot, bwd.d_xw.reshape(len(GATES), T * batch, cell.d_h))
    model.embedding_grad += _project_input_backward(cell, model.embedding, d_table)
    bwd.flush(cell)
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
