"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's selection/backward code paths: all
ranking is done by full sorts over explicit score lists, gradients by
central finite differences through the public forward functions, and the
H-LSTM step by eight separate per-gate layer products.
"""

import copy

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


def kept_units(cell, head, masks):
    """The d_s and d_h units of `cell` that something reads or writes, when
    its layers and `head` have the masks `masks` (keyed by layer name, as
    pruned_masks returns them): a d_s unit is kept while any of its O rows,
    H recurrent columns or head column has a live entry, a d_h unit while
    any of its H rows or O columns does."""
    gates = [(masks[cell.h_layers[g].name], masks[cell.o_layers[g].name]) for g in "fiog"]
    hd, d_x = masks[head.name], cell.d_x
    s = [u for u in range(cell.d_s)
         if hd[:, u].any() or any(o[u].any() or h[:, d_x + u].any() for h, o in gates)]
    k = [k for k in range(cell.d_h) if any(h[k].any() or o[:, k].any() for h, o in gates)]
    return s, k


def compact_masks(cell, head, masks):
    """`masks` (keyed by layer name) with only the rows and columns of the
    kept_units: the masks of the cell once every unit that is neither read
    nor written has left its arrays."""
    s, k = kept_units(cell, head, masks)
    cols = list(range(cell.d_x)) + [cell.d_x + u for u in s]
    out = {head.name: masks[head.name][:, s]}
    for g in "fiog":
        out[cell.h_layers[g].name] = masks[cell.h_layers[g].name][np.ix_(k, cols)]
        out[cell.o_layers[g].name] = masks[cell.o_layers[g].name][np.ix_(s, k)]
    return out


def appended_masks(cell, head, k_s, k_h):
    """Every gate mask and the head mask, keyed by layer name, after k_s
    d_s units and k_h d_h units are appended: each new row joined to its
    layer's active columns and each new column to its active rows (both as
    they were before growth), and nothing else."""
    d_x, d_s, d_h = cell.d_x, cell.d_s, cell.d_h
    new_s, new_h = range(d_s, d_s + k_s), range(d_h, d_h + k_h)

    def grow(mask, rows, cols, shape):
        out = np.zeros(shape)
        out[:mask.shape[0], :mask.shape[1]] = mask
        live_r, live_c = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
        for r in rows:
            out[r, live_c] = 1.0
        for c in cols:
            out[live_r, c] = 1.0
        return out

    out = {}
    for g in "fiog":
        h, o = cell.h_layers[g], cell.o_layers[g]
        out[h.name] = grow(h.mask, new_h, [d_x + u for u in new_s], (d_h + k_h, d_x + d_s + k_s))
        out[o.name] = grow(o.mask, new_s, new_h, (d_s + k_s, d_h + k_h))
    out[head.name] = grow(head.mask, [], new_s, (head.out_dim, d_s + k_s))
    return out


def cut_units(model, s_idx, h_idx):
    """A copy of `model` at its full shape with the given d_s and d_h units
    cut as pruned_masks cuts them, their weights and biases zeroed too: the
    model the flow kept before a cut unit left the arrays."""
    full = copy.deepcopy(model)
    cell, head = full.cell, full.head
    for name, mask in pruned_masks(cell, head, s_idx, h_idx).items():
        layer = next(l for l in full.masked_layers() if l.name == name)
        layer.mask[...] = mask
        layer.apply_mask()
    cell.O.b[:, list(s_idx)] = 0.0
    cell.H.b[:, list(h_idx)] = 0.0
    return full


# --- per-gate reference H-LSTM step ---------------------------------------------
#
# One cell step as eight separate layer products (an H and an O layer per
# gate, through W*Msk) with the sign-split sigmoid. The stacked kernels in
# hlstm project the input separately from the recurrent part and compute
# the sigmoid through tanh, so they match this to rounding (1e-12 normwise).

def _sigmoid_split(v):
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def per_gate_cell_step(cell, x, h_prev, c_prev, d_h, d_c):
    """Forward then backward of one step of a (B, width) batch.

    Returns a dict: h, c, gate_out (per gate), d_x, d_h_prev, d_c_prev and
    grads {layer name: (grad_w, grad_b)}.
    """
    z = np.concatenate([x, h_prev], axis=1)
    hid, out = {}, {}
    for g in "fiog":
        hl, ol = cell.h_layers[g], cell.o_layers[g]
        hid[g] = np.maximum(z @ (hl.w * hl.mask).T + hl.b, 0.0)
        pre = hid[g] @ (ol.w * ol.mask).T + ol.b
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
        d_pre = d_pre_out @ (ol.w * ol.mask) * (hid[g] > 0.0)
        for layer, d_y, inp in ((ol, d_pre_out, hid[g]), (hl, d_pre, z)):
            grads[layer.name] = (d_y.T @ inp, d_y.sum(axis=0))
        d_z += d_pre @ (hl.w * hl.mask)
    d_x_width = x.shape[1]
    return {"h": h, "c": c, "gate_out": out, "d_x": d_z[:, :d_x_width],
            "d_h_prev": d_z[:, d_x_width:], "d_c_prev": d_cc * out["f"],
            "grads": grads}


# --- one library step on raw input ---------------------------------------------------
#
# cell_forward runs a pass's steps on the pass's layout (the x part of
# every H layer's pre-activation with the bias, per symbol, and the step
# operands: the recurrent part of H and the gate-scaled O, laid out once per
# pass) and the steps' symbol ids, and cell_backward returns the gradient of
# one recorded step's projected input. These adapters run one step from a
# (B, d_x) input through the library's own layout: its B rows are the
# table, and row b is batch row b's symbol.

def cell_step(cell, x, prev):
    """One cell_forward step on a (B, d_x) input: (state, its one-step
    recording)."""
    from hwsynth.hlstm import _layout, cell_forward

    table, operands = _layout(cell, np.asarray(x, dtype=cell.dtype))
    hs = np.empty((1, *prev.h.shape), cell.dtype)
    return cell_forward(operands, table, np.arange(len(x))[None], prev, hs)


def cell_step_backward(cell, rec, x, d_h, d_c):
    """cell_backward of a cell_step's recording on input x, with its
    gradients added into the cell and the x part of H.grad_w and H.grad_b.
    Returns (dL/dx, dL/d previous state)."""
    from hwsynth.hlstm import Backward, _project_input_backward, cell_backward

    bwd = Backward(cell, len(d_h), 1)
    bwd.load(cell, rec)
    d_xw, d_prev = cell_backward(bwd, rec, 0, d_h, d_c)
    bwd.submit(0)
    bwd.flush(cell)
    return _project_input_backward(cell, x, d_xw), d_prev


def with_dtype(model, dtype):
    """A copy of `model` with every array in `dtype`, names and masks kept:
    a float64 oracle model from one the library made in float32."""
    from hwsynth.hlstm import HLSTMCellParams, LMModel
    from hwsynth.numkit import ARRAYS, MaskedLinear

    cell, head = model.cell, model.head
    dup = HLSTMCellParams(cell.d_x, cell.d_s, cell.d_h, cell.name, dtype)
    for old, new in zip(cell.layers(), dup.layers()):
        for attr in ARRAYS:
            getattr(new, attr)[...] = getattr(old, attr)
    dup_head = MaskedLinear(head.w.astype(dtype), head.mask.astype(dtype),
                            head.b.astype(dtype), head.name)
    return LMModel(model.embedding.astype(dtype), dup, dup_head)


# --- full-shape forward ------------------------------------------------------------
#
# The unroll every pass ran before forward-only passes were compacted: all
# d_s and d_h units of the masked model, dead ones included (a model kept at
# its full shape, as `cut_units` makes one, has them), one recorded step at
# a time. It projects the input, lays out the step operands and
# applies the head step by step where the library does each once per pass,
# so a training pass matches it bit for bit only while the BLAS rounds a GEMM
# row the same whatever the row count (as OpenBLAS does for B > 1);
# forward-only passes match it up to BLAS summation order.

def full_shape_forward(model, tokens, init=None):
    """(logits (B, T, V), recording, final full-shape state) of the masked
    model. The recording is one bptt accepts: the steps' one-step
    recordings joined along their slot axis."""
    from hwsynth.hlstm import HLSTMState, _Recording

    batch, T = tokens.shape
    state = HLSTMState.zeros(model.cell.d_s, batch) if init is None else init
    logits = np.zeros((batch, T, model.vocab_size))
    steps = []
    for t in range(T):
        state, step = cell_step(model.cell, model.embedding[tokens[:, t]], state)
        logits[:, t] = model.head.forward(state.h)
        steps.append(step)

    def joined(name):
        return np.concatenate([getattr(step, name) for step in steps])

    names = ("hs", "act", "gates", "c", "tanh_c")
    return logits, _Recording(steps[0].init, *map(joined, names)), state


# --- reference forward-only pass ----------------------------------------------------
#
# The forward-only pass before it ran its steps in one call on reused
# buffers: it lays out the model's table and step operands, and runs one
# step at a time on fresh arrays, written out here in the order of
# operations cell_forward keeps (O bias broadcast from (4, 1, d_s), sigmoids
# as (1 + tanh) / 2). The library's forward-only passes match it bit for bit.

def reference_forward_only(model, tokens, init=None):
    """(logits (B, T, V), final state) of `model` from `init` (None: zero
    state), each step on fresh arrays."""
    from hwsynth.hlstm import HLSTMState, _layout

    cell = model.cell
    table, (h_rec, o_w, o_b) = _layout(cell, model.embedding)
    batch, T = tokens.shape
    state = HLSTMState.zeros(cell.d_s, batch) if init is None else init
    h, c = state.h, state.c
    xw = table[:, tokens.T]
    hs = np.empty((batch, T, cell.d_s))
    for t in range(T):
        act = np.maximum(np.matmul(h, h_rec) + xw[:, t], 0.0)
        gates = np.tanh(np.matmul(act, o_w) + o_b)
        f, i, o = (gates[:3] + 1.0) * 0.5
        c = f * c + i * gates[3]
        h = o * np.tanh(c)
        hs[:, t] = h
    logits = model.head.forward(hs.reshape(batch * T, cell.d_s))
    return logits.reshape(batch, T, model.vocab_size), HLSTMState(h=h, c=c)


# --- reference backward ------------------------------------------------------------
#
# The backward bptt ran before it reversed the per-symbol table and fused
# the gate derivatives: each step adds its gradients straight into the
# cell's blocks, through each gate kind's derivative written out from its
# output y (y (1 - y) for the sigmoids, 1 - y^2 for tanh, [y > 0] for the
# relu), and the x part of H runs on every step's gathered embedding row,
# scattered back into the embedding gradient with np.add.at.

def reference_cell_backward(cell, rec, t, d_h_t, d_c_t):
    """(dL/dxw_t, dL/dh_prev, dL/dc_prev) of step t of a recording;
    accumulates the O blocks' gradients and the recurrent part of H.grad_w
    into the cell."""
    H, O, d_x = cell.H, cell.O, cell.d_x
    h_prev, c_prev = (rec.hs[t - 1], rec.c[t - 1]) if t > 0 else (rec.init.h, rec.init.c)
    gate_out, tanh_c = rec.gates[t], rec.tanh_c[t]
    f, i, o, g = gate_out
    d_c = d_c_t + d_h_t * o * (1.0 - tanh_c ** 2)
    d_pre_out = np.stack([d_c * c_prev, d_c * g, d_h_t * tanh_c, d_c * i])
    sig = gate_out[:3]
    d_pre_out[:3] = d_pre_out[:3] * sig * (1.0 - sig)
    d_pre_out[3] = d_pre_out[3] * (1.0 - g * g)
    O.grad_w += np.matmul(d_pre_out.transpose(0, 2, 1), rec.act[t])
    O.grad_b += d_pre_out.sum(axis=1)
    d_pre = np.matmul(d_pre_out, O.w) * (rec.act[t] > 0.0)
    H.grad_w[:, :, d_x:] += np.matmul(d_pre.transpose(0, 2, 1), h_prev)
    return d_pre, np.matmul(d_pre, H.w[:, :, d_x:]).sum(axis=0), d_c * f


def reference_bptt(model, logits, rec, tokens, targets, grad_scale=1.0):
    """bptt's contract (summed NLL returned, every gradient accumulated)
    through the reference backward, from a train=True recording."""
    from hwsynth.hlstm import softmax

    probs = softmax(logits)
    idx = (*np.indices(targets.shape).reshape(2, -1), targets.reshape(-1))
    nll = float(-np.log(probs[idx]).sum())
    d_logits = probs.copy()
    d_logits[idx] -= 1.0
    d_logits *= grad_scale
    batch, T = tokens.shape
    cell = model.cell
    H, d_x = cell.H, cell.d_x
    hs = rec.hs.transpose(1, 0, 2)       # (B, T, d_s)
    d_hs = model.head.backward(hs.reshape(batch * T, cell.d_s),
                               d_logits.reshape(batch * T, model.vocab_size))
    d_hs = d_hs.reshape(batch, T, cell.d_s)
    d_xw = np.empty((4, T, batch, cell.d_h))
    d_h = d_c = np.zeros((batch, cell.d_s))
    for t in range(T - 1, -1, -1):
        d_xw[:, t], d_h, d_c = reference_cell_backward(cell, rec, t, d_hs[:, t] + d_h, d_c)
    steps = tokens.T.reshape(-1)
    x = model.embedding[steps]
    d_xw = d_xw.reshape(4, T * batch, cell.d_h)
    H.grad_w[:, :, :d_x] += np.matmul(d_xw.transpose(0, 2, 1), x)
    H.grad_b += d_xw.sum(axis=1)
    np.add.at(model.embedding_grad, steps, np.matmul(d_xw, H.w[:, :, :d_x]).sum(axis=0))
    return nll


# --- backward with cast constants ---------------------------------------------------
#
# bptt and cell_backward as they ran before a training pass stopped casting:
# each step derives its gates as y (A - y) + B, with A and B float64 (4, 1, 1)
# constants that the ufuncs cast to the pass's dtype on every call, and
# writes its four gate terms in a loop; bptt reads each step's d_hs[:, t] out
# of a (B, T, d_s) array and builds the one-hot by comparing int64 ids, then
# casting. It is the same IEEE arithmetic in the same order, so the library
# matches it bit for bit in float32 and float64.

_DERIV_A = np.array([1.0, 1.0, 1.0, 0.0])[:, None, None]
_DERIV_B = np.array([0.0, 0.0, 0.0, 1.0])[:, None, None]


def cast_cell_backward(bwd, rec, t, d_h_t, d_c_t):
    """cell_backward's contract on an in-process Backward, through the cast
    derivative; the step sums its weight gradients itself, so no `submit`
    follows it."""
    from hwsynth.hlstm import HLSTMState

    h_prev, c_prev = (rec.hs[t - 1], rec.c[t - 1]) if t else (rec.init.h, rec.init.c)
    gates, tanh_c, d_gates = rec.gates[t], rec.tanh_c[t], bwd.d_gates[0]
    f, i, o, g = gates
    d_c = d_c_t + d_h_t * o * (1.0 - tanh_c * tanh_c)
    for k, (u, v) in enumerate([(d_c, c_prev), (d_c, g), (d_h_t, tanh_c), (d_c, i)]):
        np.multiply(u, v, out=d_gates[k])
    dtype = gates.dtype
    np.multiply(np.subtract(_DERIV_A, gates, out=bwd.deriv, dtype=dtype), gates, out=bwd.deriv)
    d_gates *= np.add(bwd.deriv, _DERIV_B, out=bwd.deriv, dtype=dtype)
    bwd.grad_o += np.matmul(d_gates.transpose(0, 2, 1), rec.act[t], out=bwd.step_o)
    bwd.grad_o_b += d_gates.sum(axis=1)
    d_in = np.matmul(d_gates, bwd.o_w, out=bwd.d_in)
    d_pre = np.multiply(d_in, rec.act[t] > 0.0, out=bwd.d_xw[:, t])
    bwd.grad_h += np.matmul(d_pre.transpose(0, 2, 1), h_prev, out=bwd.step_h)
    d_h_prev = np.matmul(d_pre, bwd.h_rec, out=d_gates).sum(axis=0)
    return d_pre, HLSTMState(h=d_h_prev, c=d_c * f)


def cast_bptt(model, logits, rec, tokens, targets, grad_scale=1.0):
    """bptt's contract through cast_cell_backward; returns (summed NLL,
    d_xw (4, T, B, d_h))."""
    from hwsynth.hlstm import Backward, HLSTMState, _project_input_backward, _softmax_nll

    probs, idx, total_nll = _softmax_nll(logits, targets)
    d_logits = probs.copy()
    d_logits[idx] -= 1.0
    d_logits *= grad_scale
    batch, T = tokens.shape
    cell, head = model.cell, model.head
    hs = rec.hs.transpose(1, 0, 2).reshape(batch * T, cell.d_s)
    d_hs = head.backward(hs, d_logits.reshape(batch * T, -1)).reshape(batch, T, -1)
    bwd = Backward(cell, batch, T)
    bwd.load(cell, rec)
    d_next = HLSTMState.zeros(cell.d_s, batch, cell.dtype)
    for t in range(T - 1, -1, -1):
        _, d_next = cast_cell_backward(bwd, rec, t, d_hs[:, t] + d_next.h, d_next.c)
    bwd.flush(cell)
    d_xw = bwd.d_xw
    one_hot = (np.arange(model.vocab_size)[:, None] == tokens.T.reshape(-1)).astype(cell.dtype)
    d_table = np.matmul(one_hot, d_xw.reshape(4, T * batch, cell.d_h))
    model.embedding_grad += _project_input_backward(cell, model.embedding, d_table)
    return total_nll, d_xw


def rel_max_diff(got, ref):
    """max |got - ref| over max |ref|: a normwise relative error that stays
    meaningful on logits near zero."""
    return float(np.abs(got - ref).max() / np.abs(ref).max())
