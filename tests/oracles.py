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

    table, operands = _layout(cell, np.asarray(x, dtype=float))
    hs = np.empty((1, *prev.h.shape))
    return cell_forward(operands, table, np.arange(len(x))[None], prev, hs)


def cell_step_backward(cell, rec, x, d_h, d_c):
    """cell_backward of a cell_step's recording on input x, with its
    gradients added into the cell and the x part of H.grad_w and H.grad_b.
    Returns (dL/dx, dL/d previous state)."""
    from hwsynth.hlstm import _BackwardPass, _project_input_backward, cell_backward

    bwd = _BackwardPass(cell, len(d_h))
    d_xw, d_prev = cell_backward(bwd, rec, 0, d_h, d_c)
    bwd.flush(cell)
    return _project_input_backward(cell, x, d_xw), d_prev


# --- full-shape forward ------------------------------------------------------------
#
# The unroll every pass ran before forward-only passes were compacted: all
# d_s and d_h units of the masked model, dead ones included, one recorded
# step at a time. It projects the input, lays out the step operands and
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
# The forward-only pass before it gathered its operands from the read units
# and ran its steps in one call on reused buffers: it builds a dense copy of
# the read units (the model itself when every unit is read), lays out that
# copy's table and step operands, and runs one step at a time
# on fresh arrays, written out here in the order of operations cell_forward
# keeps (O bias broadcast from (4, 1, d_s), sigmoids as (1 + tanh) / 2). The
# library's forward-only passes match it bit for bit.

def reference_forward_only(model, tokens, init=None):
    """(logits (B, T, V), final state) of the read units' dense copy from
    `init` (None: zero state), each step on fresh arrays."""
    from hwsynth.hlstm import HLSTMState, _layout, _read_units, _take_units

    read_s, read_h = _read_units(model)
    small = model if read_s.all() and read_h.all() else _take_units(
        model, np.flatnonzero(read_s), np.flatnonzero(read_h))
    cell = small.cell
    table, (h_rec, o_w, o_b) = _layout(cell, small.embedding)
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
    logits = small.head.forward(hs.reshape(batch * T, cell.d_s))
    return logits.reshape(batch, T, small.vocab_size), HLSTMState(h=h, c=c)


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


def rel_max_diff(got, ref):
    """max |got - ref| over max |ref|: a normwise relative error that stays
    meaningful on logits near zero."""
    return float(np.abs(got - ref).max() / np.abs(ref).max())
