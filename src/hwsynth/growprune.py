"""Mask-mutation algorithms: weight growth/pruning, structured unit
growth/pruning coordinated across the four gates of a cell, and the
ratio-halving schedule.

Selection counts use ceil(ratio * n) with ties broken by lower index, so
every decision is deterministic and checkable against a full-sort oracle.
Grown weights are initialized to lr * gradient (sign-carrying), for both
single-weight and unit growth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .hlstm import GATES, HLSTMCellParams
from .numkit import ContractViolation, MaskedLinear, write_atomic


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


def _ceil_count(ratio: float, n: int) -> int:
    return int(math.ceil(ratio * n))


def _top_k_stable(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores; ties favor the lower index."""
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k])


def _bottom_k_stable(scores: np.ndarray, k: int) -> np.ndarray:
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(scores, kind="stable")
    return np.sort(order[:k])


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
    k = min(_ceil_count(g_w, layer.w.size), dormant.size)
    if k == 0:
        return 0
    scores = np.abs(grad.ravel()[dormant])
    chosen = dormant[_top_k_stable(scores, k)]
    flat_m = layer.mask.ravel()
    flat_w = layer.w.ravel()
    flat_m[chosen] = 1.0
    flat_w[chosen] = lr * grad.ravel()[chosen]
    return k


def weight_prune(layer: MaskedLinear, p_w: float) -> int:
    """Deactivate the ceil(p_w * active) smallest-|W| active connections."""
    if not 0.0 <= p_w <= 1.0:
        raise ContractViolation(f"pruning ratio {p_w} outside [0, 1]")
    active = np.flatnonzero(layer.mask.ravel() == 1.0)
    k = min(_ceil_count(p_w, active.size), active.size)
    if k == 0:
        return 0
    scores = np.abs(layer.w.ravel()[active])
    chosen = active[_bottom_k_stable(scores, k)]
    flat_m = layer.mask.ravel()
    flat_w = layer.w.ravel()
    flat_m[chosen] = 0.0
    flat_w[chosen] = 0.0
    return k


# --- coordinated multi-gate structured operations ---------------------------

def unit_importance(cell: HLSTMCellParams, head: MaskedLinear,
                    grads: dict[int, np.ndarray] | None = None):
    """Summed row/column importances per d_s and d_h structural unit; a d_s
    unit's column of the head counts too.

    With grads=None importance is sum(|W|) (pruning); otherwise it is
    sum(|G|) restricted to the active complement (growth). grads maps
    id(layer) -> gradient matrix.
    """
    def mat(layer):
        if grads is None:
            return np.abs(layer.w)
        return np.abs(np.asarray(grads[id(layer)]))

    s_imp = np.zeros(cell.d_s)
    h_imp = np.zeros(cell.d_h)
    for gate in GATES:
        o_layer = cell.o_layers[gate]
        o_cols = o_layer.active_cols()
        o_rows = o_layer.active_rows()
        om = mat(o_layer)
        if grads is None:
            s_imp += om.sum(axis=1)
        else:
            s_imp += om[:, o_cols].sum(axis=1) if o_cols.size else 0.0
        h_layer = cell.h_layers[gate]
        hm = mat(h_layer)
        h_rows = h_layer.active_rows()
        h_cols = h_layer.active_cols()
        if grads is None:
            h_imp += hm.sum(axis=1) + om.sum(axis=0)[:cell.d_h]
            s_imp += hm[:, cell.d_x:].sum(axis=0)
        else:
            h_imp += (hm[:, h_cols].sum(axis=1) if h_cols.size else 0.0)
            h_imp += (om[o_rows, :].sum(axis=0) if o_rows.size else 0.0)
            s_imp += (hm[h_rows, cell.d_x:].sum(axis=0) if h_rows.size else 0.0)
    hd = mat(head)
    if grads is None:
        s_imp += hd.sum(axis=0)
    else:
        s_imp += hd[head.active_rows(), :].sum(axis=0)
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
    s_active, h_active = cell.active_units()
    k_s = min(_ceil_count(p_r, int(s_active.sum())), int(s_active.sum()))
    k_h = min(_ceil_count(p_c, int(h_active.sum())), int(h_active.sum()))
    return coordinated_rc_prune_counts(cell, head, k_s, k_h)


def coordinated_rc_prune_counts(cell: HLSTMCellParams, head: MaskedLinear,
                                k_s: int, k_h: int) -> tuple[int, int]:
    s_active, h_active = cell.active_units()
    n_s = int(s_active.sum())
    n_h = int(h_active.sum())
    if k_s >= n_s and k_s > 0:
        raise DegenerateLayerError(f"pruning all {n_s} hidden-state units")
    if k_h >= n_h and k_h > 0:
        raise DegenerateLayerError(f"pruning all {n_h} gate hidden units")
    s_imp, h_imp = unit_importance(cell, head)
    s_cand = np.flatnonzero(s_active)
    s_idx = s_cand[_bottom_k_stable(s_imp[s_cand], k_s)]
    h_cand = np.flatnonzero(h_active)
    h_idx = h_cand[_bottom_k_stable(h_imp[h_cand], k_h)]
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
    s_dormant = np.flatnonzero(~s_active)
    s_idx = s_dormant[_top_k_stable(s_imp[s_dormant], min(k_s, s_dormant.size))]
    h_dormant = np.flatnonzero(~h_active)
    h_idx = h_dormant[_top_k_stable(h_imp[h_dormant], min(k_h, h_dormant.size))]

    def activate(layer, rows=(), cols=()):
        g = np.asarray(grads[id(layer)])
        live_r, live_c = layer.active_rows(), layer.active_cols()
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


# --- mask snapshot export ----------------------------------------------------

def export_masks(layers: list[MaskedLinear], out_dir: str | Path,
                 tag: str) -> Path:
    """Write one portable bitmap (P1) per layer plus a JSON manifest, each
    file atomically."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, layer in enumerate(layers):
        fname = f"{tag}_{i:02d}_{layer.name.replace('.', '_')}.pbm"
        m, n = layer.mask.shape
        rows = "\n".join(" ".join(str(int(v)) for v in row) for row in layer.mask)
        pbm = f"P1\n{n} {m}\n{rows}\n".encode("utf-8")
        write_atomic(out_dir / fname, lambda fh: fh.write(pbm))
        entries.append({"layer": layer.name, "file": fname,
                        "shape": [m, n], "active": layer.active_count()})
    manifest = out_dir / f"{tag}_manifest.json"
    text = json.dumps({"tag": tag, "layers": entries}, indent=2).encode("utf-8")
    write_atomic(manifest, lambda fh: fh.write(text))
    return manifest
