"""Dense numeric kernels and masked affine layers.

Everything downstream (the H-LSTM cell, the grow/prune algorithms, the
synthesis flow) is built on the primitives here: masked linear layers whose
gradients are accumulated for *all* entries (dormant connections included,
so growth can rank them later), a mask-respecting SGD step, and the atomic
file write every artifact goes through. Layer gradients take batches only:
(B, width).
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

FLOAT = np.float64


class ContractViolation(ValueError):
    """A caller broke an operation precondition (shape/range mismatch)."""


class NumericAbort(RuntimeError):
    """A non-finite value surfaced where the contract requires finiteness."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded RNG; identical seed gives an identical draw sequence."""
    return np.random.Generator(np.random.PCG64(seed))


ARRAYS = ("w", "mask", "b", "grad_w", "grad_b")


class MaskedLinear:
    """Affine layer y = (W*Msk) x + b with full-gradient accumulation.

    The mask gates the forward value and the SGD update, *not* the gradient:
    grad_w is accumulated for every entry so dormant connections keep a
    usable gradient signal for the growth algorithms.

    Every mask change zeroes the weights it masks, so w[mask == 0] == 0 and
    the forward reads w as W*Msk. The arrays may be views into a stacked
    block (see `view`), so they are written in place, never rebound.
    """

    def __init__(self, w: np.ndarray, mask: np.ndarray, b: np.ndarray,
                 name: str = "layer"):
        self.name = name
        w = np.asarray(w, dtype=FLOAT)
        mask = np.asarray(mask, dtype=FLOAT)
        b = np.asarray(b, dtype=FLOAT)
        if w.ndim != 2 or w.shape != mask.shape:
            raise ContractViolation(
                f"{name}: W{w.shape} and Msk{mask.shape} must be equal 2-D shapes")
        if b.shape != (w.shape[0],):
            raise ContractViolation(f"{name}: bias shape {b.shape} != ({w.shape[0]},)")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ContractViolation(f"{name}: mask entries must be 0 or 1")
        self.w, self.mask, self.b = w, mask, b
        self.grad_w = np.zeros_like(w)
        self.grad_b = np.zeros_like(b)
        self.apply_mask()

    @classmethod
    def view(cls, block, k: int, name: str) -> "MaskedLinear":
        """Layer k of a stacked block: each array is `block.<array>[k]`, so
        writes through the layer land in the block and vice versa."""
        return cls.on_arrays(name, **{attr: getattr(block, attr)[k] for attr in ARRAYS})

    @classmethod
    def on_arrays(cls, name: str, **arrays: np.ndarray) -> "MaskedLinear":
        """A layer on arrays that already keep its invariants, taken as they
        are: no check, copy or mask applied. A frozen model's head (see
        hlstm.freeze) has just w, mask and b."""
        layer = cls.__new__(cls)
        layer.name = name
        for attr, value in arrays.items():
            setattr(layer, attr, value)
        return layer

    def __setattr__(self, attr, value):
        # `layer.w -= ...` rebinds the same array, which is allowed
        if attr in ARRAYS and attr in self.__dict__ and value is not self.__dict__[attr]:
            raise ContractViolation(
                f"{self.name}: write {attr} in place ({attr}[...] = ...), not by rebinding")
        object.__setattr__(self, attr, value)

    @classmethod
    def dense(cls, out_dim: int, in_dim: int, rng: np.random.Generator,
              name: str = "layer") -> "MaskedLinear":
        bound = 1.0 / math.sqrt(max(in_dim, 1))
        w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        return cls(w=w, mask=np.ones((out_dim, in_dim)), b=np.zeros(out_dim), name=name)

    @property
    def out_dim(self) -> int:
        return self.w.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    def apply_mask(self) -> None:
        self.w *= self.mask

    def active_count(self) -> int:
        return int(self.mask.sum())

    def zero_grads(self) -> None:
        self.grad_w[...] = 0.0
        self.grad_b[...] = 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        """y = (W*Msk) x + b for a batch (B, in); a vector (in,) also works."""
        x = np.asarray(x, dtype=FLOAT)
        if x.shape[-1] != self.in_dim:
            raise ContractViolation(
                f"{self.name}: input width {x.shape[-1]} != expected {self.in_dim}")
        y = x @ self.w.T
        y += self.b
        return y

    def backward(self, x: np.ndarray, d_y: np.ndarray) -> np.ndarray:
        """Accumulate grad_w (unmasked) and grad_b over a batch x (B, in),
        d_y (B, out); return dL/dx (B, in).

        grad_w is intentionally *not* masked: dormant-connection gradients
        must survive for growth ranking.
        """
        x = np.asarray(x, dtype=FLOAT)
        d_y = np.asarray(d_y, dtype=FLOAT)
        if x.ndim != 2 or x.shape[1] != self.in_dim or d_y.shape != (len(x), self.out_dim):
            raise ContractViolation(
                f"{self.name}: backward shapes x{x.shape}, dy{d_y.shape} vs "
                f"W{self.w.shape}; both must be batches")
        self.grad_w += d_y.T @ x
        self.grad_b += d_y.sum(axis=0)
        return d_y @ self.w

    def active_cols(self) -> np.ndarray:
        return np.flatnonzero(self.mask.any(axis=0))


def sgd_step(layer: MaskedLinear, lr: float, weight_decay: float = 0.0) -> None:
    """W <- W - lr (grad + wd W) on active entries only, so w[mask == 0]
    stays 0; gradients cleared.

    Bias updates are applied only to rows that still have at least one
    active connection, so dead output units keep a zero bias.
    """
    if not np.all(np.isfinite(layer.grad_w)) or not np.all(np.isfinite(layer.grad_b)):
        raise NumericAbort(f"non-finite gradient in layer {layer.name!r}")
    layer.w -= lr * layer.mask * (layer.grad_w + weight_decay * layer.w)
    live = layer.mask.any(axis=1)
    layer.b[live] -= lr * (layer.grad_b[live] + weight_decay * layer.b[live])
    layer.zero_grads()


def sgd_update(value: np.ndarray, grad: np.ndarray, lr: float, weight_decay: float = 0.0) -> None:
    """Plain (unmasked) SGD update for dense parameters such as embeddings."""
    if not np.all(np.isfinite(grad)):
        raise NumericAbort("non-finite gradient in dense parameter")
    value -= lr * (grad + weight_decay * value)


def write_atomic(path: str | Path, write) -> None:
    """write(fh) to a temp file beside `path`, then rename it over `path`:
    readers see the old file or the new one, never a partial one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
