"""End-to-end acceptance suite.

Each test prints a one-line PASS summary with the measured figure and the
tolerance it was held to. The toy synthesis flow (criteria 5 and 8) runs
twice in a shared fixture; everything else is self-contained.
"""

import math
import time

import numpy as np
import pytest

from hwsynth import latlab
from hwsynth.growprune import (
    GrowPruneConfig,
    coordinated_rc_grow_counts,
    coordinated_rc_prune_counts,
    weight_grow,
    weight_prune,
)
from hwsynth.hlstm import GATES, HLSTMCellParams, LMModel, bptt, softmax, unroll_forward
from hwsynth.numkit import MaskedLinear, make_rng
from hwsynth.synthflow import (
    FlowConfig,
    LatencyConfig,
    OptimizerConfig,
    SynthesisFlow,
    run_flow,
)
from oracles import (
    fd_dense_gradients,
    fd_layer_gradients,
    active_units,
    grown_masks,
    max_rel_err,
    prefix_min_lhps,
    pruned_masks,
    select_bottom_k,
    select_top_k,
    unit_grow_oracle,
    unit_prune_oracle,
)


# --- criterion 1: gradient fidelity -------------------------------------------

def _fd_model(seed):
    rng = make_rng(seed)
    model = LMModel.create(6, 3, 4, 5, rng)
    for layer in model.masked_layers():
        layer.mask[...] = rng.random(layer.mask.shape) < 0.6
        # nonzero biases keep relu pre-activations off the kink at exactly 0,
        # where one-sided finite differences are undefined
        layer.b[...] = rng.uniform(-0.3, 0.3, size=layer.b.shape)
        layer.apply_mask()
    tokens = rng.integers(0, 6, size=(1, 4))
    targets = rng.integers(0, 6, size=(1, 4))
    return model, tokens, targets


def _total_nll(model, tokens, targets):
    logits, _, _ = unroll_forward(model, tokens)
    probs = softmax(logits[0])
    picked = probs[np.arange(tokens.shape[1]), targets[0]]
    return float(-np.log(picked).sum())


def test_criterion_1_gradient_fidelity():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        model, tokens, targets = _fd_model(seed)
        logits, caches, _ = unroll_forward(model, tokens, train=True)
        bptt(model, logits, caches, tokens, targets)
        loss_fn = lambda: _total_nll(model, tokens, targets)
        for layer in model.masked_layers():
            fd = fd_layer_gradients(layer, loss_fn)
            err = max_rel_err(layer.grad_w, fd)
            assert err <= 1e-5, f"seed {seed} layer {layer.name}: {err}"
            worst = max(worst, err)
        fd = fd_dense_gradients(model.embedding, loss_fn)
        err = max_rel_err(model.embedding_grad, fd)
        assert err <= 1e-5, f"seed {seed} embedding: {err}"
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 1 PASS: worst rel err {worst:.2e} <= 1e-5 over 20 seeds "
          f"(9 layers + embedding), {elapsed:.1f}s < 10s")


# --- criterion 2: oracle equivalence ------------------------------------------

def test_criterion_2_selection_oracles():
    t0 = time.monotonic()
    rng = make_rng(2024)

    def layer_of(m, n, density):
        layer = MaskedLinear(w=rng.standard_normal((m, n)),
                             mask=(rng.random((m, n)) < density).astype(float),
                             b=rng.standard_normal(m))
        layer.apply_mask()
        return layer

    for _ in range(1000):  # weight_grow
        m, n = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        layer = layer_of(m, n, float(rng.random()))
        grad = rng.standard_normal((m, n))
        before = layer.mask.copy()
        g_w = float(rng.random())
        weight_grow(layer, grad, g_w, lr=0.5)
        dormant = np.flatnonzero(before.ravel() == 0.0).tolist()
        k = min(math.ceil(g_w * m * n), len(dormant))
        expected = select_top_k(np.abs(grad.ravel()), dormant, k)
        assert np.flatnonzero((layer.mask - before).ravel()).tolist() == expected

    for _ in range(1000):  # weight_prune
        m, n = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        layer = layer_of(m, n, float(rng.random()))
        before = layer.mask.copy()
        scores = np.abs(layer.w.ravel()).copy()
        p_w = float(rng.random())
        weight_prune(layer, p_w)
        active = np.flatnonzero(before.ravel() == 1.0).tolist()
        k = min(math.ceil(p_w * len(active)), len(active))
        expected = select_bottom_k(scores, active, k)
        assert np.flatnonzero((before - layer.mask).ravel()).tolist() == expected

    def sparse_cell(d_s, d_h):
        cell = HLSTMCellParams.create(2, d_s, d_h, rng)
        head = MaskedLinear.dense(4, d_s, rng, name="head")
        for layer in cell.layers() + [head]:
            layer.mask[...] = rng.random(layer.mask.shape) < rng.uniform(0.3, 1.0)
            layer.apply_mask()
        return cell, head

    def masks_of(cell, head):
        return {l.name: l.mask for l in cell.layers() + [head]}

    done = 0
    while done < 1000:  # coordinated unit pruning, both unit kinds, sparse cells
        cell, head = sparse_cell(int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        s_act, h_act = active_units(cell)
        # prune some units first, so the candidates are a strict subset
        coordinated_rc_prune_counts(cell, head, int(rng.integers(0, max(len(s_act) - 1, 1))),
                                    int(rng.integers(0, max(len(h_act) - 1, 1))))
        s_act, h_act = active_units(cell)
        if len(s_act) < 2 or len(h_act) < 2:
            continue
        done += 1
        k_s = int(rng.integers(1, len(s_act)))
        k_h = int(rng.integers(1, len(h_act)))
        expected = pruned_masks(cell, head, *unit_prune_oracle(cell, head, k_s, k_h))
        coordinated_rc_prune_counts(cell, head, k_s, k_h)
        got = masks_of(cell, head)
        assert all(np.array_equal(got[n], expected[n]) for n in expected)

    for _ in range(1000):  # coordinated unit growth into the pruned units
        cell, head = sparse_cell(int(rng.integers(2, 7)), int(rng.integers(2, 6)))
        s_act, h_act = active_units(cell)
        coordinated_rc_prune_counts(cell, head, int(rng.integers(0, max(len(s_act), 1))),
                                    int(rng.integers(0, max(len(h_act), 1))))
        grads = {id(l): rng.standard_normal(l.w.shape) for l in cell.layers() + [head]}
        k_s, k_h = int(rng.integers(0, cell.d_s + 1)), int(rng.integers(0, cell.d_h + 1))
        s_idx, h_idx = unit_grow_oracle(cell, head, grads, k_s, k_h)
        expected = grown_masks(cell, head, s_idx, h_idx)
        before = {n: m.copy() for n, m in masks_of(cell, head).items()}
        coordinated_rc_grow_counts(cell, head, grads, k_s, k_h, lr=0.1)
        for layer in cell.layers() + [head]:
            assert np.array_equal(layer.mask, expected[layer.name])
            new = (layer.mask - before[layer.name]) == 1.0
            assert np.array_equal(layer.w[new], 0.1 * grads[id(layer)][new])

    for _ in range(1000):  # coordinated d_s pruning, dense cells
        d_x, d_s, d_h = 2, int(rng.integers(3, 7)), int(rng.integers(2, 6))
        cell = HLSTMCellParams.create(d_x, d_s, d_h, rng)
        head = MaskedLinear.dense(4, d_s, rng, name="head")
        k_s = int(rng.integers(1, d_s))
        # independent importance: |W| sums over each unit's rows and columns
        imp = np.zeros(d_s)
        for gate in GATES:
            imp += np.abs(cell.o_layers[gate].w * cell.o_layers[gate].mask).sum(axis=1)
            imp += np.abs(cell.h_layers[gate].w * cell.h_layers[gate].mask)[:, d_x:].sum(axis=0)
        imp += np.abs(head.w * head.mask).sum(axis=0)
        expected = select_bottom_k(imp, list(range(d_s)), k_s)
        coordinated_rc_prune_counts(cell, head, k_s=k_s, k_h=0)
        s_active = np.zeros(d_s, dtype=bool)
        for gate in GATES:
            s_active |= cell.o_layers[gate].mask.any(axis=1)
        assert np.flatnonzero(~s_active).tolist() == expected

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 2 PASS: exact oracle match, 1000 trials per operation "
          f"(5 operations), {elapsed:.1f}s < 30s")


# --- criterion 3: LHP detection exactness --------------------------------------

def test_criterion_3_lhp_exactness():
    t0 = time.monotonic()
    spec = latlab.SyntheticCurveSpec()  # period 64
    grid = list(range(1, 641))
    lats = [spec.latency_ns(d) for d in grid]
    samples = [latlab.SampleStats(v, v, v, 5) for v in lats]
    profile = latlab.LatencyProfile(hardware_id="t", batch=16, grid=grid,
                                    samples=samples)
    hmap = latlab.detect_lhps(profile)
    expected = prefix_min_lhps(grid, lats)
    assert hmap.lhp_set == expected
    assert hmap.redundancy == 1.0 - len(expected) / 640
    assert hmap.redundancy > 0.9
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 3 PASS: LHP set exact ({len(expected)} of 640 points), "
          f"redundancy {hmap.redundancy:.4f} > 0.9, {elapsed:.2f}s < 1s")


# --- criterion 4: LHP dominance -------------------------------------------------

def test_criterion_4_lhp_dominance():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 80))
        grid = np.sort(rng.choice(np.arange(1, 400), size=n,
                                  replace=False)).tolist()
        lats = rng.uniform(1.0, 1000.0, size=n)
        samples = [latlab.SampleStats(v, v, v, 5) for v in lats]
        profile = latlab.LatencyProfile(hardware_id="t", batch=16, grid=grid,
                                        samples=samples)
        hmap = latlab.detect_lhps(profile)
        lut = dict(zip(grid, lats))
        for d in grid:
            target = latlab.nearest_lhp(hmap, d)
            if target is not None:
                assert lut[target] <= lut[d]
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 4 PASS: L(nearest_lhp(d)) <= L(d) exact at {checked} "
          f"query points over 1000 random curves, {elapsed:.1f}s < 5s")


# --- criteria 5 and 8: toy synthesis flow ---------------------------------------

def toy_flow_config(seed=0):
    return FlowConfig(
        d_x=32, d_s=128, d_h=128, seed_sparsity=0.5,
        growprune=GrowPruneConfig(retrain_patience=2),
        baseline_epochs=2, wg_epochs=4, growth_epochs=3, rcg_epochs=2,
        batch=32, seq_len=64,
        profile_grid=(1, 128, 1),
        latency=LatencyConfig(curve=latlab.SyntheticCurveSpec(period=16)),
        max_prune_iters=4, seed=seed)


@pytest.fixture(scope="module")
def toy_flow_runs(tmp_path_factory):
    quiet = lambda *a, **k: None
    out1 = tmp_path_factory.mktemp("flow1")
    out2 = tmp_path_factory.mktemp("flow2")
    t0 = time.monotonic()
    r1 = run_flow(toy_flow_config(), out1, log=quiet)
    elapsed = time.monotonic() - t0
    r2 = run_flow(toy_flow_config(), out2, log=quiet)
    return r1, r2, out1, out2, elapsed


def test_criterion_5_end_to_end_toy_synthesis(toy_flow_runs):
    report, _, _, _, elapsed = toy_flow_runs
    assert report.complete
    steps = [r.step for r in report.rows]
    assert steps == ["baseline", "wg", "rcp", "rcg", "wp"]
    rows = {r.step: r for r in report.rows}
    dense_active = rows["baseline"].active_params
    final = rows["wp"]
    assert final.active_params <= 0.5 * dense_active
    assert final.valid_ppl <= report.threshold
    # rcg recovered the tied dimension to the nearest LHP of the rcp dim
    grid = list(range(1, 129))
    curve = latlab.SyntheticCurveSpec(period=16)
    samples = [latlab.SampleStats(v, v, v, 5)
               for v in (curve.latency_ns(d) for d in grid)]
    hmap = latlab.detect_lhps(latlab.LatencyProfile(
        hardware_id="t", batch=16, grid=grid, samples=samples))
    tied = max(rows["rcp"].d_s, rows["rcp"].d_h)
    target = latlab.nearest_lhp(hmap, tied)
    assert report.lhp_target == target
    if target is not None:
        assert rows["rcg"].d_s == target
    # parameter trajectory follows the step semantics
    assert rows["rcp"].active_params <= rows["wg"].active_params
    assert rows["rcg"].active_params >= rows["rcp"].active_params
    assert rows["wp"].active_params <= rows["rcg"].active_params
    assert elapsed < 1800.0
    print(f"criterion 5 PASS: 5 report rows, final active {final.active_params} "
          f"<= 0.5 x dense {dense_active}, ppl {final.valid_ppl:.3f} <= "
          f"threshold {report.threshold:.3f}, rcg dim {rows['rcg'].d_s} == "
          f"nearest LHP of {tied}, {elapsed:.0f}s < 1800s")


def test_criterion_8_bitwise_determinism(toy_flow_runs):
    r1, r2, out1, out2, _ = toy_flow_runs
    csv1 = (out1 / "report.csv").read_bytes()
    csv2 = (out2 / "report.csv").read_bytes()
    assert csv1 == csv2
    assert r1.to_json() == r2.to_json()
    print(f"criterion 8 PASS: report CSVs bitwise identical "
          f"({len(csv1)} bytes) across two seeded virtual-clock runs")


# --- criterion 6: mask invariants fuzz -------------------------------------------

def _check_invariants(model, where):
    for layer in model.masked_layers():
        assert np.all(layer.w[layer.mask == 0.0] == 0.0), \
            f"{where}: live weight under zero mask in {layer.name}"
        assert np.array_equal(layer.active_cols(),
                              np.flatnonzero(layer.mask.any(axis=0)))


def test_criterion_6_mask_invariants_fuzz(tmp_path):
    rng = np.random.default_rng(6)
    text = "".join(rng.choice(list("abcdefgh "), size=3000))
    corpus = tmp_path / "fuzz.txt"
    corpus.write_text(text, encoding="utf-8")
    quiet = lambda *a, **k: None
    for trial in range(20):
        sparsity = float(rng.uniform(0.3, 0.7))
        ratio = float(rng.uniform(0.1, 0.3))
        cfg = FlowConfig(
            corpus_path=str(corpus), d_x=4, d_s=12, d_h=12,
            seed_sparsity=sparsity,
            growprune=GrowPruneConfig(p_r=ratio, p_c=ratio,
                                      accuracy_threshold=1e9,
                                      retrain_patience=1),
            optimizer=OptimizerConfig(lr=0.5),
            baseline_epochs=1, wg_epochs=1, growth_epochs=1, rcg_epochs=1,
            batch=8, seq_len=16, profile_grid=(1, 12, 1),
            latency=LatencyConfig(curve=latlab.SyntheticCurveSpec(period=4)),
            max_prune_iters=2, seed=trial)
        flow = SynthesisFlow(cfg)
        flow.log = quiet
        flow.train_baseline()
        for step in (flow.step_weight_growth, flow.step_rc_prune,
                     flow.step_rc_grow, flow.step_weight_prune):
            step()
            _check_invariants(flow.model, f"trial {trial} after {flow.state.phase}")
    print("criterion 6 PASS: mask/weight and active-set invariants held "
          "after every phase of 20 randomized flows")


# --- criterion 7: real-hardware smoke ---------------------------------------------

def test_criterion_7_native_sweep_trend():
    t0 = time.monotonic()
    grid = list(range(64, 513, 16))
    assert len(grid) == 29
    profile = latlab.sweep(latlab.NativeBackend(seed=7), grid, batch=16,
                           cfg=latlab.SweepConfig(warmup_runs=5,
                                                  measured_runs=30,
                                                  hardware_id="smoke"))
    for stats in profile.samples:
        assert stats.mean_ns > 0 and stats.median_ns > 0 and stats.p95_ns > 0
        assert stats.runs == 30
    rho = latlab.spearman(grid, profile.medians())
    assert rho > 0.8
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 7 PASS: 29-point native sweep populated, "
          f"Spearman(dim, median) = {rho:.3f} > 0.8, {elapsed:.1f}s < 120s")
