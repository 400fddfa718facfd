"""Mask-mutation algorithms: weight growth/pruning, structured unit
growth/pruning coordinated across the four gates of a cell, and the
ratio-halving schedule.

Weight growth activates the dormant connections with the largest gradient
magnitudes, at lr * gradient (sign-carrying); pruning removes the active
connections or units with the smallest weight magnitudes, a unit scoring
the sum over the connections it owns (`unit_importance`). Selection counts
use ceil(ratio * n) with ties broken by lower index (`_pick`), so every
decision is deterministic and checkable against a full-sort oracle.

A cell is stored at its live dims. A unit cut (`coordinated_rc_prune_counts`)
leaves the arrays, and so, after that cut, each of the flow's weight prunes
and a checkpoint load, does each unit that nothing reads or writes
(`sweep`). Unit growth appends units with zero weights
(`coordinated_rc_grow_counts`). All three resize the cell and the head
through `_resize`, the one place that knows where a unit lives in them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .hlstm import GateBlock, HLSTMCellParams
from .numkit import ContractViolation, MaskedLinear


class DegenerateLayerError(ValueError):
    """A prune request would remove every row or every column of a layer."""


@dataclass(frozen=True)
class GrowPruneConfig:
    g_w: float = 0.1              # weight growth ratio per application
    p_w: float = 0.7              # initial weight pruning ratio
    p_r: float = 0.2              # row pruning ratio
    p_c: float = 0.2              # column pruning ratio
    accuracy_threshold: float = math.inf   # perplexity upper bound
    halving_floor: float = 0.01   # below this, switch to single-row/column mode
    retrain_patience: int = 2     # retrain epochs per prune iteration

    def __post_init__(self):
        for name in ("g_w", "p_w", "p_r", "p_c"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ContractViolation(f"ratio {name}={v} outside [0, 1]")
        if not self.accuracy_threshold > 0:
            raise ContractViolation("accuracy threshold must be positive")
        if self.retrain_patience < 0:
            raise ContractViolation(f"retrain_patience={self.retrain_patience} is negative")


def _ceil_count(ratio: float, n: int) -> int:
    return int(math.ceil(ratio * n))


def _pick(candidates: np.ndarray, scores: np.ndarray, k: int,
          largest: bool) -> np.ndarray:
    """The min(k, len(candidates)) candidates with the largest (or
    smallest) scores, in index order; ties favor the lower index."""
    ranked = scores[candidates]
    order = np.argsort(-ranked if largest else ranked, kind="stable")
    return candidates[np.sort(order[:max(k, 0)])]


def weight_grow(layer: MaskedLinear, grad: np.ndarray, g_w: float, lr: float) -> int:
    """Activate the most effective dormant connections by |gradient|.

    Activates the top ceil(g_w * total_entries) dormant entries ranked by
    |grad|; fewer if not enough entries are dormant. New weights start at
    lr * grad. Returns the number of activations.
    """
    if not 0.0 <= g_w <= 1.0:
        raise ContractViolation(f"growth ratio {g_w} outside [0, 1]")
    grad = np.asarray(grad)
    if grad.shape != layer.w.shape:
        raise ContractViolation(
            f"{layer.name}: gradient shape {grad.shape} != {layer.w.shape}")
    dormant = np.flatnonzero(layer.mask.ravel() == 0.0)
    chosen = _pick(dormant, np.abs(grad.ravel()), _ceil_count(g_w, layer.w.size),
                   largest=True)
    # .flat writes in place whatever the layout; ravel() copies a column-major array
    layer.mask.flat[chosen] = 1.0
    layer.w.flat[chosen] = lr * grad.ravel()[chosen]
    return chosen.size


def weight_prune(layer: MaskedLinear, p_w: float) -> int:
    """Deactivate the ceil(p_w * active) smallest-|W| active connections."""
    if not 0.0 <= p_w <= 1.0:
        raise ContractViolation(f"pruning ratio {p_w} outside [0, 1]")
    active = np.flatnonzero(layer.mask.ravel() == 1.0)
    chosen = _pick(active, np.abs(layer.w.ravel()), _ceil_count(p_w, active.size),
                   largest=False)
    layer.mask.flat[chosen] = 0.0
    layer.w.flat[chosen] = 0.0
    return chosen.size


# --- coordinated multi-gate structured operations ---------------------------

def unit_importance(cell: HLSTMCellParams, head: MaskedLinear):
    """Importance of every d_s and d_h unit: |W| of a unit's rows summed
    over their layer's active columns plus of its columns summed over their
    layer's active rows, across the four gates and the head (a d_s unit owns
    a head column); since w[mask == 0] == 0, the sum over every entry the
    unit owns."""

    def add(layer, row_imp, col_imp, col0=0):
        m = np.abs(layer.w)
        row_imp += m[:, layer.active_cols()].sum(axis=1)
        col_imp += m[layer.mask.any(axis=1), col0:].sum(axis=0)

    s_imp = np.zeros(cell.d_s)
    h_imp = np.zeros(cell.d_h)
    for h_layer, o_layer in zip(cell.h_layers.values(), cell.o_layers.values()):
        add(o_layer, s_imp, h_imp)
        add(h_layer, h_imp, s_imp, col0=cell.d_x)
    add(head, np.zeros(head.out_dim), s_imp)   # head rows are outputs, not units
    return s_imp, h_imp


def _resize(cell: HLSTMCellParams, head: MaskedLinear, s: np.ndarray, h: np.ndarray,
            new_s: int = 0, new_h: int = 0) -> None:
    """Resize the cell and the head in place to the d_s units s and d_h
    units h (index arrays), then new_s and new_h units with nothing
    connected: zero weights, masks and biases. A d_s unit is row s of each
    O layer, column d_x+s of each H layer and column s of the head; a d_h
    unit is row h of each H layer and column h of each O layer. The blocks,
    the head's w and mask and every resized gradient are new arrays; the
    head's are column-major, the layout a gather of columns gives (a
    row-major one changes the head GEMM's rounding), and its bias stays."""
    d_x, dtype = cell.d_x, cell.dtype
    H = GateBlock.zeros(h.size + new_h, d_x + s.size + new_s, dtype, mask=0.0)
    O = GateBlock.zeros(s.size + new_s, h.size + new_h, dtype, mask=0.0)
    cols = np.concatenate([np.arange(d_x), d_x + s])
    resized = {}
    for attr in ("w", "mask"):
        getattr(H, attr)[:, :h.size, :cols.size] = \
            getattr(cell.H, attr).take(h, axis=1).take(cols, axis=2)
        getattr(O, attr)[:, :s.size, :h.size] = \
            getattr(cell.O, attr).take(s, axis=1).take(h, axis=2)
        resized[attr] = np.zeros((head.out_dim, s.size + new_s), dtype, order="F")
        resized[attr][:, :s.size] = getattr(head, attr)[:, s]
    H.b[:, :h.size], O.b[:, :s.size] = cell.H.b[:, h], cell.O.b[:, s]
    cell.H, cell.O = H, O
    head.rebind(**resized, grad_w=np.zeros_like(resized["w"]))


def sweep(cell: HLSTMCellParams, head: MaskedLinear) -> None:
    """Remove every d_s and d_h unit that is neither read nor written, in
    place. A d_s unit is read while a head column or an H recurrent column
    of it is live, a d_h unit while an O column of it is; a unit is written
    while a row of it is live (`active_units`). Such a unit adds only zero
    terms to every logit and gradient, and SGD moves none of its entries, so
    its removal changes no logit, active count or live row. One pass finds
    them all: a removal drops only columns that were already empty."""
    written_s, written_h = cell.active_units()
    keep_s = (written_s | head.mask.any(axis=0)
              | cell.H.mask[:, :, cell.d_x:].any(axis=(0, 1)))
    keep_h = written_h | cell.O.mask.any(axis=(0, 1))
    if not (keep_s.all() and keep_h.all()):
        _resize(cell, head, np.flatnonzero(keep_s), np.flatnonzero(keep_h))


def coordinated_rc_prune(cell: HLSTMCellParams, head: MaskedLinear,
                         p_r: float, p_c: float) -> tuple[int, int]:
    """Prune d_s units (ratio p_r) and d_h units (ratio p_c) across all
    gates at once, keeping the four gates dimensionally identical.

    Returns the new active (d_s, d_h).
    """
    n_s, n_h = cell.active_dims()
    return coordinated_rc_prune_counts(cell, head, _ceil_count(p_r, n_s),
                                       _ceil_count(p_c, n_h))


def coordinated_rc_prune_counts(cell: HLSTMCellParams, head: MaskedLinear,
                                k_s: int, k_h: int) -> tuple[int, int]:
    s_active, h_active = cell.active_units()
    for k, n, what in ((k_s, int(s_active.sum()), "hidden-state"),
                       (k_h, int(h_active.sum()), "gate hidden")):
        if k >= n and k > 0:
            raise DegenerateLayerError(f"pruning all {n} {what} units")
    s_imp, h_imp = unit_importance(cell, head)
    s_idx = _pick(np.flatnonzero(s_active), s_imp, k_s, largest=False)
    h_idx = _pick(np.flatnonzero(h_active), h_imp, k_h, largest=False)
    _resize(cell, head, np.setdiff1d(np.arange(cell.d_s), s_idx),
                np.setdiff1d(np.arange(cell.d_h), h_idx))
    sweep(cell, head)
    return cell.active_dims()


def coordinated_rc_grow_counts(cell: HLSTMCellParams, head: MaskedLinear,
                               k_s: int, k_h: int) -> tuple[int, int]:
    """Append k_s d_s units and k_h d_h units across all gates at once.

    Each new unit's rows join its layers' live columns and its columns join
    their live rows, as they were before growth, so growth never touches the
    previously active region and new units do not connect to one another.
    New weights and biases are 0: the lr * G that growth into the units
    rcp had cut gave, since every gradient of such a unit is exactly 0.
    Returns the new active (d_s, d_h).
    """
    d_s, d_h, d_x = cell.d_s, cell.d_h, cell.d_x
    _resize(cell, head, np.arange(d_s), np.arange(d_h), k_s, k_h)
    new_s, new_h = np.arange(d_s, d_s + k_s), np.arange(d_h, d_h + k_h)

    def connect(layer, rows=(), cols=()):
        live_r, live_c = np.flatnonzero(layer.mask.any(axis=1)), layer.active_cols()
        for idx in (np.ix_(rows, live_c), np.ix_(live_r, cols)):
            layer.mask[idx] = 1.0

    for h_layer, o_layer in zip(cell.h_layers.values(), cell.o_layers.values()):
        connect(h_layer, rows=new_h, cols=d_x + new_s)
        connect(o_layer, rows=new_s, cols=new_h)
    connect(head, cols=new_s)
    return cell.active_dims()


# --- ratio-halving schedule --------------------------------------------------

class HalveDecision(Enum):
    CONTINUE = "continue"        # metric within threshold; keep current ratios
    HALVED = "halved"            # violation; revert last prune, ratios halved
    SINGLE_MODE = "single_mode"  # ratios fell below floor; single-unit pruning
    STOP = "stop"                # violation in single-unit mode; flow ends


def halve_on_violation(cfg: GrowPruneConfig, achieved_metric: float,
                       single_mode: bool) -> tuple[GrowPruneConfig, HalveDecision]:
    """Apply the halving rule after a prune+retrain iteration.

    The caller owns checkpoint revert; this only evolves the schedule state.
    """
    if not math.isfinite(achieved_metric):
        raise ContractViolation("achieved metric must be finite")
    if achieved_metric <= cfg.accuracy_threshold:
        return cfg, HalveDecision.CONTINUE
    if single_mode:
        return cfg, HalveDecision.STOP
    new_cfg = replace(cfg, p_r=cfg.p_r / 2.0, p_c=cfg.p_c / 2.0)
    if new_cfg.p_r < cfg.halving_floor and new_cfg.p_c < cfg.halving_floor:
        return new_cfg, HalveDecision.SINGLE_MODE
    return new_cfg, HalveDecision.HALVED


def halve_weight_ratio(cfg: GrowPruneConfig, achieved_metric: float
                       ) -> tuple[GrowPruneConfig, HalveDecision]:
    """Same rule for the weight-pruning ratio; stops at the floor."""
    if achieved_metric <= cfg.accuracy_threshold:
        return cfg, HalveDecision.CONTINUE
    new_cfg = replace(cfg, p_w=cfg.p_w / 2.0)
    if new_cfg.p_w < cfg.halving_floor:
        return new_cfg, HalveDecision.STOP
    return new_cfg, HalveDecision.HALVED
