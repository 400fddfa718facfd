"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's selection/backward code paths: all
ranking is done by full sorts over explicit score lists, gradients by
central finite differences through the public forward functions, and the
H-LSTM step by eight separate per-gate layer products.
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


# --- per-gate reference H-LSTM step ---------------------------------------------
#
# One cell step as eight separate layer products (an H and an O layer per
# gate, through W*Msk) with the sign-split sigmoid. The stacked kernels in
# hlstm run the same float ops in the same order, so on batched input they
# must match this bit for bit.

def _sigmoid_split(v):
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def per_gate_cell_step(cell, x, h_prev, c_prev, d_h, d_c, rng=None, dropout=0.0):
    """Forward then backward of one step of a (B, width) batch.

    With dropout > 0 each gate's keep mask is drawn from rng, gate by gate
    in f, i, o, g order. Returns a dict: h, c, gate_out (per gate), d_x,
    d_h_prev, d_c_prev and grads {layer name: (grad_w, grad_b)}.
    """
    z = np.concatenate([x, h_prev], axis=1)
    hid, keep, gin, out = {}, {}, {}, {}
    for g in "fiog":
        hl, ol = cell.h_layers[g], cell.o_layers[g]
        hid[g] = np.maximum(z @ (hl.w * hl.mask).T + hl.b, 0.0)
        gin[g] = hid[g]
        if dropout > 0.0:
            keep[g] = (rng.random(hid[g].shape) >= dropout) / (1.0 - dropout)
            gin[g] = hid[g] * keep[g]
        pre = gin[g] @ (ol.w * ol.mask).T + ol.b
        out[g] = np.tanh(pre) if g == "g" else _sigmoid_split(pre)
    c = out["f"] * c_prev + out["i"] * out["g"]
    tanh_c = np.tanh(c)
    h = out["o"] * tanh_c

    d_cc = d_c + d_h * out["o"] * (1.0 - tanh_c ** 2)
    d_gate = {"f": d_cc * c_prev, "i": d_cc * out["g"], "o": d_h * tanh_c,
              "g": d_cc * out["i"]}
    grads = {}
    d_z = np.zeros_like(z)
    for g in "fiog":
        hl, ol = cell.h_layers[g], cell.o_layers[g]
        y = out[g]
        if g == "g":
            d_pre_out = d_gate[g] * (1.0 - y * y)
        else:
            d_pre_out = d_gate[g] * y * (1.0 - y)
        d_in = d_pre_out @ (ol.w * ol.mask)
        if g in keep:
            d_in = d_in * keep[g]
        d_pre = d_in * (hid[g] > 0.0)
        for layer, d_y, inp in ((ol, d_pre_out, gin[g]), (hl, d_pre, z)):
            grads[layer.name] = (d_y.T @ inp, d_y.sum(axis=0))
        d_z += d_pre @ (hl.w * hl.mask)
    d_x_width = x.shape[1]
    return {"h": h, "c": c, "gate_out": out, "d_x": d_z[:, :d_x_width],
            "d_h_prev": d_z[:, d_x_width:], "d_c_prev": d_cc * out["f"],
            "grads": grads}
