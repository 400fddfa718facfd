"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's selection/backward code paths: all
ranking is done by full sorts over explicit score lists, and all gradients
by central finite differences through the public forward functions.
"""

import numpy as np


def fd_layer_gradients(layer, loss_fn, eps=1e-5):
    """Central finite differences of loss_fn() w.r.t. every weight entry.

    Dormant entries are probed with their mask temporarily raised to 1:
    the accumulated gradient is d(loss)/d(effective weight), which for a
    masked entry is the derivative the growth algorithms need.
    """
    grad = np.zeros_like(layer.w)
    for idx in np.ndindex(layer.w.shape):
        m_old = layer.mask[idx]
        layer.mask[idx] = 1.0
        old = layer.w[idx]
        layer.w[idx] = old + eps
        lp = loss_fn()
        layer.w[idx] = old - eps
        lm = loss_fn()
        layer.w[idx] = old
        layer.mask[idx] = m_old
        grad[idx] = (lp - lm) / (2.0 * eps)
    return grad


def fd_dense_gradients(arr, loss_fn, eps=1e-5):
    grad = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        old = arr[idx]
        arr[idx] = old + eps
        lp = loss_fn()
        arr[idx] = old - eps
        lm = loss_fn()
        arr[idx] = old
        grad[idx] = (lp - lm) / (2.0 * eps)
    return grad


def max_rel_err(a, b, floor=1e-3):
    """Worst relative error with a scale floor absorbing fd noise on
    near-zero entries."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float((np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)).max())


def select_bottom_k(scores, candidates, k):
    """Indices of the k smallest scores among candidates; ties by index."""
    ranked = sorted(candidates, key=lambda i: (scores[i], i))
    return sorted(ranked[:k])


def select_top_k(scores, candidates, k):
    ranked = sorted(candidates, key=lambda i: (-scores[i], i))
    return sorted(ranked[:k])


def prefix_min_lhps(grid, latencies):
    """Hand-run prefix-minimum scan."""
    best = float("inf")
    out = []
    for d, lat in zip(grid, latencies):
        if lat < best:
            best = lat
            out.append(d)
    return out


# --- coordinated unit pruning and growth ---------------------------------------
#
# A d_s unit u owns row u of every gate's O layer, column d_x+u of every
# gate's H layer and column u of the head; a d_h unit k owns row k of every
# H layer and column k of every O layer. A unit is active while any of its
# O rows (d_s) or H rows (d_h) carries a connection.

def active_units(cell):
    gates = [(cell.h_layers[g], cell.o_layers[g]) for g in "fiog"]
    s = [u for u in range(cell.d_s) if any(o.mask[u].any() for _, o in gates)]
    h = [k for k in range(cell.d_h) if any(hl.mask[k].any() for hl, _ in gates)]
    return s, h


def unit_prune_oracle(cell, head, k_s, k_h):
    """The k_s d_s units and k_h d_h units, among the active ones, with the
    smallest |W| sums over every row and column they own."""
    s_imp, h_imp = np.zeros(cell.d_s), np.zeros(cell.d_h)
    for g in "fiog":
        o = np.abs(cell.o_layers[g].w * cell.o_layers[g].mask)
        h = np.abs(cell.h_layers[g].w * cell.h_layers[g].mask)
        s_imp += o.sum(axis=1) + h[:, cell.d_x:].sum(axis=0)
        h_imp += h.sum(axis=1) + o.sum(axis=0)
    s_imp += np.abs(head.w * head.mask).sum(axis=0)
    s_act, h_act = active_units(cell)
    return select_bottom_k(s_imp, s_act, k_s), select_bottom_k(h_imp, h_act, k_h)


def pruned_masks(cell, head, s_idx, h_idx):
    """Every gate mask and the head mask, keyed by layer name, with the
    given units cut out."""
    cols = [cell.d_x + u for u in s_idx]
    out = {}
    for g in "fiog":
        hm, om = cell.h_layers[g].mask.copy(), cell.o_layers[g].mask.copy()
        hm[list(h_idx), :] = 0.0
        hm[:, cols] = 0.0
        om[list(s_idx), :] = 0.0
        om[:, list(h_idx)] = 0.0
        out[cell.h_layers[g].name], out[cell.o_layers[g].name] = hm, om
    hd = head.mask.copy()
    hd[:, list(s_idx)] = 0.0
    out[head.name] = hd
    return out


def unit_grow_oracle(cell, head, grads, k_s, k_h):
    """The k_s d_s units and k_h d_h units (fewer if fewer are dormant),
    among the dormant ones, with the largest |G| sums over the connections
    they would gain to active rows and columns."""
    s_imp, h_imp = np.zeros(cell.d_s), np.zeros(cell.d_h)
    for g in "fiog":
        o, h = cell.o_layers[g], cell.h_layers[g]
        go, gh = np.abs(grads[id(o)]), np.abs(grads[id(h)])
        s_imp += go[:, o.mask.any(axis=0)].sum(axis=1)
        s_imp += gh[h.mask.any(axis=1), cell.d_x:].sum(axis=0)
        h_imp += gh[:, h.mask.any(axis=0)].sum(axis=1)
        h_imp += go[o.mask.any(axis=1), :].sum(axis=0)
    s_imp += np.abs(grads[id(head)])[head.mask.any(axis=1), :].sum(axis=0)
    s_act, h_act = active_units(cell)
    s_dormant = [u for u in range(cell.d_s) if u not in s_act]
    h_dormant = [k for k in range(cell.d_h) if k not in h_act]
    return (select_top_k(s_imp, s_dormant, min(k_s, len(s_dormant))),
            select_top_k(h_imp, h_dormant, min(k_h, len(h_dormant))))


def grown_masks(cell, head, s_idx, h_idx):
    """Every gate mask and the head mask, keyed by layer name, with each
    grown row joined to the layer's active columns and each grown column
    to its active rows (both as they were before growth)."""
    def grow(mask, rows, cols):
        out = mask.copy()
        live_r, live_c = mask.any(axis=1), mask.any(axis=0)
        for r in rows:
            out[r, live_c] = 1.0
        for c in cols:
            out[live_r, c] = 1.0
        return out

    out = {}
    for g in "fiog":
        h, o = cell.h_layers[g], cell.o_layers[g]
        out[h.name] = grow(h.mask, h_idx, [cell.d_x + u for u in s_idx])
        out[o.name] = grow(o.mask, s_idx, h_idx)
    out[head.name] = grow(head.mask, [], s_idx)
    return out
