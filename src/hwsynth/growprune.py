"""Mask-mutation algorithms: weight growth/pruning, structured unit
growth/pruning coordinated across the four gates of a cell, and the
ratio-halving schedule.

Growth and pruning are one rule read in two directions: growth activates
the dormant connections or units with the largest gradient magnitudes,
pruning removes the active ones with the smallest weight magnitudes. A
unit scores the sum over the connections it owns (`unit_importance`).
Selection counts use ceil(ratio * n) with ties broken by lower index
(`_pick`), so every decision is deterministic and checkable against a
full-sort oracle. Grown weights are initialized to lr * gradient
(sign-carrying), for both single-weight and unit growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .hlstm import GATES, HLSTMCellParams
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
    layer.mask.ravel()[chosen] = 1.0
    layer.w.ravel()[chosen] = lr * grad.ravel()[chosen]
    return chosen.size


def weight_prune(layer: MaskedLinear, p_w: float) -> int:
    """Deactivate the ceil(p_w * active) smallest-|W| active connections."""
    if not 0.0 <= p_w <= 1.0:
        raise ContractViolation(f"pruning ratio {p_w} outside [0, 1]")
    active = np.flatnonzero(layer.mask.ravel() == 1.0)
    chosen = _pick(active, np.abs(layer.w.ravel()), _ceil_count(p_w, active.size),
                   largest=False)
    layer.mask.ravel()[chosen] = 0.0
    layer.w.ravel()[chosen] = 0.0
    return chosen.size


# --- coordinated multi-gate structured operations ---------------------------

def unit_importance(cell: HLSTMCellParams, head: MaskedLinear,
                    grads: dict[int, np.ndarray] | None = None):
    """Importance of every d_s and d_h unit, one rule for both directions:
    a unit's rows summed over their layer's active columns plus its columns
    summed over their layer's active rows, across the four gates and the
    head (a d_s unit owns a head column). The summand is |W| to prune and
    |G| to grow; grads maps id(layer) -> gradient matrix. For pruning this
    is the sum over every entry the unit owns, since w[mask == 0] == 0; for
    growth it is the |G| of the connections the unit would gain.

    Growth ranks the units rcp cut out by index alone: `_apply_unit_prune`
    zeroes all their weights and biases, so their state and hidden outputs
    are 0 and nothing reads them, every gradient growth reads for them is
    exactly 0, and their scores tie.
    """
    read = (lambda layer: layer.w) if grads is None else (lambda layer: grads[id(layer)])

    def add(layer, row_imp, col_imp, col0=0):
        m = np.abs(read(layer))
        row_imp += m[:, layer.active_cols()].sum(axis=1)
        col_imp += m[layer.mask.any(axis=1), col0:].sum(axis=0)

    s_imp = np.zeros(cell.d_s)
    h_imp = np.zeros(cell.d_h)
    for gate in GATES:
        add(cell.o_layers[gate], s_imp, h_imp)
        add(cell.h_layers[gate], h_imp, s_imp, col0=cell.d_x)
    add(head, np.zeros(head.out_dim), s_imp)   # head rows are outputs, not units
    return s_imp, h_imp


def _apply_unit_prune(cell: HLSTMCellParams, head: MaskedLinear,
                      s_idx: np.ndarray, h_idx: np.ndarray) -> None:
    """Cut the units out of every gate at once: a d_s unit is row s of each
    O layer, column d_x+s of each H layer and column s of the head; a d_h
    unit is row h of each H layer and column h of each O layer."""
    H, O = cell.H, cell.O
    O.mask[:, s_idx, :] = O.w[:, s_idx, :] = 0.0
    O.b[:, s_idx] = 0.0
    O.mask[:, :, h_idx] = O.w[:, :, h_idx] = 0.0
    H.mask[:, :, cell.d_x + s_idx] = H.w[:, :, cell.d_x + s_idx] = 0.0
    H.mask[:, h_idx, :] = H.w[:, h_idx, :] = 0.0
    H.b[:, h_idx] = 0.0
    head.mask[:, s_idx] = head.w[:, s_idx] = 0.0


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
    _apply_unit_prune(cell, head, s_idx, h_idx)
    return cell.active_dims()


def coordinated_rc_grow_counts(cell: HLSTMCellParams, head: MaskedLinear,
                               grads: dict[int, np.ndarray], k_s: int, k_h: int,
                               lr: float) -> tuple[int, int]:
    """Reactivate the dormant d_s/d_h units with the largest |G| sums.

    Growth touches only the cross-connections into currently active units
    (never the previously fully active region); new weights are lr * G.
    """
    s_active, h_active = cell.active_units()
    s_imp, h_imp = unit_importance(cell, head, grads=grads)
    s_idx = _pick(np.flatnonzero(~s_active), s_imp, k_s, largest=True)
    h_idx = _pick(np.flatnonzero(~h_active), h_imp, k_h, largest=True)

    def activate(layer, rows=(), cols=()):
        g = np.asarray(grads[id(layer)])
        live_r, live_c = np.flatnonzero(layer.mask.any(axis=1)), layer.active_cols()
        for idx in (np.ix_(rows, live_c), np.ix_(live_r, cols)):
            layer.mask[idx] = 1.0
            layer.w[idx] = lr * g[idx]

    for gate in GATES:
        activate(cell.h_layers[gate], rows=h_idx, cols=cell.d_x + s_idx)
        activate(cell.o_layers[gate], rows=s_idx, cols=h_idx)
    activate(head, cols=s_idx)
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
