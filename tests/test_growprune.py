import copy
import math

import numpy as np
import pytest

from hwsynth.growprune import (
    DegenerateLayerError,
    GrowPruneConfig,
    HalveDecision,
    coordinated_rc_grow_counts,
    coordinated_rc_prune,
    coordinated_rc_prune_counts,
    halve_on_violation,
    halve_weight_ratio,
    unit_importance,
    weight_grow,
    weight_prune,
)
from hwsynth.hlstm import GATES, HLSTMCellParams
from hwsynth.numkit import DTYPE, ContractViolation, MaskedLinear, make_rng
from oracles import (
    active_units,
    appended_masks,
    compact_masks,
    pruned_masks,
    select_bottom_k,
    select_top_k,
    unit_prune_oracle,
)


def random_layer(rng, m, n, density=0.5):
    return MaskedLinear(
        w=rng.standard_normal((m, n)),
        mask=(rng.random((m, n)) < density).astype(float),
        b=rng.standard_normal(m),
        name="t")


class TestWeightGrow:
    def test_single_dormant_entry(self):
        layer = MaskedLinear(w=np.zeros((1, 2)), mask=np.array([[1.0, 0.0]]),
                             b=np.zeros(1))
        layer.w[0, 0] = 3.0
        grad = np.array([[5.0, -2.0]])
        n = weight_grow(layer, grad, g_w=0.5, lr=0.1)
        assert n == 1
        assert layer.mask[0, 1] == 1.0
        assert layer.w[0, 1] == pytest.approx(0.1 * -2.0)

    def test_fully_active_grows_nothing(self):
        layer = MaskedLinear(w=np.ones((2, 2)), mask=np.ones((2, 2)),
                             b=np.zeros(2))
        assert weight_grow(layer, np.ones((2, 2)), 0.5, 0.1) == 0

    def test_count_is_ceil(self):
        # 3x3 all dormant, g_w=0.4 -> ceil(0.4*9) = 4 activations
        layer = MaskedLinear(w=np.zeros((3, 3)), mask=np.zeros((3, 3)),
                             b=np.zeros(3))
        grad = np.arange(9, dtype=float).reshape(3, 3)
        assert weight_grow(layer, grad, 0.4, 1.0) == 4
        assert layer.active_count() == 4
        # the four largest |grad| entries live in the last four slots
        assert np.array_equal(np.flatnonzero(layer.mask.ravel()),
                              np.array([5, 6, 7, 8]))

    def test_shape_mismatch(self):
        layer = MaskedLinear(w=np.zeros((2, 2)), mask=np.zeros((2, 2)),
                             b=np.zeros(2))
        with pytest.raises(ContractViolation):
            weight_grow(layer, np.zeros((3, 2)), 0.5, 0.1)

    def test_matches_sort_oracle(self):
        rng = make_rng(100)
        for trial in range(1000):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(1, 11))
            layer = random_layer(rng, m, n, density=float(rng.random()))
            layer.apply_mask()
            grad = rng.standard_normal((m, n))
            g_w = float(rng.random())
            before = layer.mask.copy()
            count = weight_grow(layer, grad, g_w, lr=0.5)
            dormant = np.flatnonzero(before.ravel() == 0.0).tolist()
            k = min(math.ceil(g_w * m * n), len(dormant))
            scores = np.abs(grad.ravel())
            expected = select_top_k(scores, dormant, k)
            grown = np.flatnonzero((layer.mask - before).ravel() == 1.0).tolist()
            assert count == k
            assert grown == expected, f"trial {trial}"
            for idx in expected:
                assert layer.w.ravel()[idx] == 0.5 * grad.ravel()[idx]


class TestWeightPrune:
    def test_smallest_magnitude_goes_first(self):
        layer = MaskedLinear(w=np.array([[0.1, -5.0, 2.0]]),
                             mask=np.ones((1, 3)), b=np.zeros(1))
        assert weight_prune(layer, 0.4) == 2  # ceil(0.4*3)
        assert np.array_equal(layer.mask, [[0.0, 1.0, 0.0]])
        assert layer.w[0, 0] == 0.0 and layer.w[0, 2] == 0.0

    def test_empty_layer_noop(self):
        layer = MaskedLinear(w=np.zeros((2, 2)), mask=np.zeros((2, 2)),
                             b=np.zeros(2))
        assert weight_prune(layer, 0.5) == 0

    def test_ratio_one_removes_everything(self):
        rng = make_rng(1)
        layer = random_layer(rng, 4, 4, density=1.0)
        assert weight_prune(layer, 1.0) == 16
        assert layer.active_count() == 0
        assert np.array_equal(layer.w, np.zeros((4, 4)))

    def test_matches_sort_oracle(self):
        rng = make_rng(200)
        for trial in range(1000):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(1, 11))
            layer = random_layer(rng, m, n, density=float(rng.random()))
            layer.apply_mask()
            p_w = float(rng.random())
            before = layer.mask.copy()
            scores = np.abs(layer.w.ravel()).copy()
            count = weight_prune(layer, p_w)
            active = np.flatnonzero(before.ravel() == 1.0).tolist()
            k = min(math.ceil(p_w * len(active)), len(active))
            expected = select_bottom_k(scores, active, k)
            removed = np.flatnonzero((before - layer.mask).ravel() == 1.0).tolist()
            assert count == k
            assert removed == expected, f"trial {trial}"

    def test_idempotent_at_zero_ratio(self):
        rng = make_rng(2)
        layer = random_layer(rng, 3, 3)
        before = layer.mask.copy()
        assert weight_prune(layer, 0.0) == 0
        assert np.array_equal(layer.mask, before)


def make_cell(seed, d_x=3, d_s=5, d_h=4, density=0.8, dtype=DTYPE):
    rng = make_rng(seed)
    cell = HLSTMCellParams.create(d_x, d_s, d_h, rng, dtype=dtype)
    for layer in cell.layers():
        layer.mask[...] = rng.random(layer.mask.shape) < density
        layer.apply_mask()
    head = MaskedLinear.dense(7, d_s, rng, name="head", dtype=dtype)
    return cell, head, rng


def live_rows(layer):
    return np.flatnonzero(layer.mask.any(axis=1))


def layer_masks(cell, head):
    return {layer.name: layer.mask.copy() for layer in cell.layers() + [head]}


class TestCoordinatedPrune:
    def test_gates_stay_dimensionally_identical(self):
        cell, head, _ = make_cell(6, density=1.0)
        coordinated_rc_prune(cell, head, p_r=0.4, p_c=0.25)
        ref_rows = live_rows(cell.o_layers["f"])
        ref_hrows = live_rows(cell.h_layers["f"])
        for gate in GATES:
            assert np.array_equal(live_rows(cell.o_layers[gate]), ref_rows)
            assert np.array_equal(live_rows(cell.h_layers[gate]), ref_hrows)

    def test_counts_and_structural_consequences(self):
        cell, head, _ = make_cell(7, d_s=5, d_h=4, density=1.0)
        # each unit's index in its first O and H bias, to find the cut units
        cell.O.b[0], cell.H.b[0] = np.arange(5), np.arange(4)
        before = copy.deepcopy((cell, head))
        d_s, d_h = coordinated_rc_prune(cell, head, p_r=0.2, p_c=0.25)
        assert (d_s, d_h) == (4, 3) == (cell.d_s, cell.d_h)
        # every row and column the cut units owned left the arrays, in every gate
        s, h = cell.O.b[0].astype(int), cell.H.b[0].astype(int)
        assert len(set(range(5)) - set(s)) == 1 and len(set(range(4)) - set(h)) == 1
        old_cell, old_head = before
        cols = np.concatenate([np.arange(cell.d_x), cell.d_x + s])
        for block, old, rows, kept_cols in ((cell.H, old_cell.H, h, cols),
                                            (cell.O, old_cell.O, s, h)):
            for attr in ("w", "mask", "b"):
                want = getattr(old, attr)[:, rows]
                if attr != "b":
                    want = want[:, :, kept_cols]
                assert np.array_equal(getattr(block, attr), want), attr
        assert np.array_equal(head.w, old_head.w[:, s])
        assert head.in_dim == 4 and all(layer.in_dim == cell.d_x + 4 for layer in
                                        cell.h_layers.values())

    def test_prune_importance_matches_manual_sums(self):
        cell, head, _ = make_cell(8, d_s=4, d_h=3, density=1.0)
        s_imp, h_imp = unit_importance(cell, head)
        d_x = cell.d_x
        exp_s = np.zeros(4)
        exp_h = np.zeros(3)
        for gate in GATES:
            o = np.abs(cell.o_layers[gate].w * cell.o_layers[gate].mask)
            h = np.abs(cell.h_layers[gate].w * cell.h_layers[gate].mask)
            exp_s += o.sum(axis=1) + h[:, d_x:].sum(axis=0)
            exp_h += h.sum(axis=1) + o.sum(axis=0)
        exp_s += np.abs(head.w * head.mask).sum(axis=0)
        assert np.allclose(s_imp, exp_s)
        assert np.allclose(h_imp, exp_h)

    def test_refuses_full_wipe(self):
        cell, head, _ = make_cell(9, density=1.0)
        with pytest.raises(DegenerateLayerError):
            coordinated_rc_prune_counts(cell, head, k_s=cell.d_s, k_h=0)
        # the count is checked against the active units, not the allocation: d_h
        # unit 0 loses its H rows, yet its O columns keep it in the arrays
        coordinated_rc_prune_counts(cell, head, k_s=1, k_h=1)
        for layer in cell.h_layers.values():
            layer.mask[0] = layer.w[0] = 0.0
        assert cell.active_dims()[1] == cell.d_h - 1
        with pytest.raises(DegenerateLayerError):
            coordinated_rc_prune_counts(cell, head, k_s=0, k_h=cell.d_h - 1)

    def test_least_important_unit(self):
        cell, head, _ = make_cell(14, d_s=3, d_h=4, density=1.0)
        for layer in cell.layers() + [head]:
            layer.w[...] = 1.0
        for gate in GATES:  # every row and column unit 0 owns is light
            cell.o_layers[gate].w[0, :] = 0.1
            cell.h_layers[gate].w[:, cell.d_x] = 0.1
        head.w[:, 0] = 0.1
        assert coordinated_rc_prune(cell, head, p_r=1 / 3, p_c=0.0) == (2, 4)
        # unit 0, the one with the light weights, left the arrays
        assert (cell.d_s, cell.d_h) == (2, 4)
        for layer in cell.layers() + [head]:
            assert layer.mask.all() and np.all(layer.w == 1.0)

    def test_count_base_is_active_units(self):
        # ratios count against the units still active, not the allocation
        cell, head, _ = make_cell(15, d_s=5, d_h=4, density=1.0)
        coordinated_rc_prune_counts(cell, head, k_s=1, k_h=1)
        # ceil(0.5 * 4 active) = 2 and ceil(0.5 * 3 active) = 2
        assert coordinated_rc_prune(cell, head, p_r=0.5, p_c=0.5) == (2, 1)

    def test_matches_sort_oracle(self):
        rng = make_rng(300)
        trials = 0
        while trials < 500:
            cell, head, _ = make_cell(int(rng.integers(1 << 30)),
                                      d_s=int(rng.integers(2, 8)),
                                      d_h=int(rng.integers(2, 8)),
                                      density=float(rng.uniform(0.3, 1.0)))
            s_act, h_act = active_units(cell)
            # prune some units first, so the candidates are a strict subset
            coordinated_rc_prune_counts(cell, head, int(rng.integers(0, max(len(s_act) - 1, 1))),
                                        int(rng.integers(0, max(len(h_act) - 1, 1))))
            s_act, h_act = active_units(cell)
            if len(s_act) < 2 or len(h_act) < 2:
                continue
            trials += 1
            p_r, p_c = float(rng.uniform(0, 0.45)), float(rng.uniform(0, 0.45))
            k_s, k_h = math.ceil(p_r * len(s_act)), math.ceil(p_c * len(h_act))
            s_idx, h_idx = unit_prune_oracle(cell, head, k_s, k_h)
            expected = compact_masks(cell, head, pruned_masks(cell, head, s_idx, h_idx))
            dims = coordinated_rc_prune(cell, head, p_r, p_c)
            assert layer_masks(cell, head).keys() == expected.keys()
            for name, mask in layer_masks(cell, head).items():
                assert np.array_equal(mask, expected[name]), f"trial {trials} {name}"
            assert dims == tuple(len(a) for a in active_units(cell))
            assert dims[0] <= len(s_act) - k_s and dims[1] <= len(h_act) - k_h

    def test_active_dims_drop_by_exact_counts(self):
        for seed in range(5):
            cell, head, _ = make_cell(20 + seed, d_s=6, d_h=5, density=1.0)
            d_s, d_h = coordinated_rc_prune_counts(cell, head, k_s=2, k_h=3)
            assert (d_s, d_h) == (4, 2)


class TestCoordinatedGrow:
    def grown_cell(self, seed, k_s, k_h, d_s=6, d_h=5):
        cell, head, rng = make_cell(seed, d_s=d_s, d_h=d_h, density=1.0)
        coordinated_rc_prune_counts(cell, head, k_s=3, k_h=2)
        dims = coordinated_rc_grow_counts(cell, head, k_s, k_h)
        return cell, head, dims

    def test_restores_requested_dims(self):
        cell, head, dims = self.grown_cell(10, k_s=2, k_h=1)
        assert dims == (5, 4) == (cell.d_s, cell.d_h) and head.in_dim == 5

    def test_gates_identical_after_grow(self):
        cell, _, _ = self.grown_cell(11, k_s=1, k_h=2)
        ref = live_rows(cell.o_layers["f"])
        for gate in GATES:
            assert np.array_equal(live_rows(cell.o_layers[gate]), ref)

    def test_grow_never_touches_active_region(self):
        cell, head, rng = make_cell(12, d_s=6, d_h=5, density=1.0)
        coordinated_rc_prune_counts(cell, head, k_s=3, k_h=2)
        snaps = []
        for layer in cell.layers() + [head]:
            region = np.ix_(live_rows(layer), layer.active_cols())
            snaps.append((layer, region, layer.w[region].copy()))
        coordinated_rc_grow_counts(cell, head, k_s=2, k_h=2)
        for layer, region, w_before in snaps:
            assert np.array_equal(layer.w[region], w_before)

    def test_appends_units_at_the_end(self):
        cell, head, _ = make_cell(16, d_s=4, d_h=3, density=1.0)
        coordinated_rc_prune_counts(cell, head, k_s=2, k_h=0)
        before = copy.deepcopy((cell, head))
        assert coordinated_rc_grow_counts(cell, head, k_s=1, k_h=0) == (3, 3)
        old_cell, old_head = before
        for gate in GATES:
            o_layer, old = cell.o_layers[gate], old_cell.o_layers[gate]
            assert o_layer.mask[2, :].all() and o_layer.b[2] == 0.0   # the new unit, last
            assert np.array_equal(o_layer.w[:2], old.w)
            h_layer, old = cell.h_layers[gate], old_cell.h_layers[gate]
            assert h_layer.mask[:, -1].all()
            assert np.array_equal(h_layer.w[:, :-1], old.w)
        assert head.mask[:, 2].all() and np.array_equal(head.w[:, :2], old_head.w)

    def test_matches_append_oracle(self):
        rng = make_rng(400)
        for trial in range(500):
            cell, head, _ = make_cell(int(rng.integers(1 << 30)),
                                      d_s=int(rng.integers(2, 8)),
                                      d_h=int(rng.integers(2, 8)),
                                      density=float(rng.uniform(0.3, 1.0)))
            s_act, h_act = active_units(cell)
            coordinated_rc_prune_counts(cell, head, int(rng.integers(0, max(len(s_act), 1))),
                                        int(rng.integers(0, max(len(h_act), 1))))
            k_s, k_h = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            expected = appended_masks(cell, head, k_s, k_h)
            before = copy.deepcopy(cell.layers() + [head])
            coordinated_rc_grow_counts(cell, head, k_s, k_h)
            for layer, old in zip(cell.layers() + [head], before):
                assert np.array_equal(layer.mask, expected[layer.name]), \
                    f"trial {trial} {layer.name}"
                rows, cols = old.w.shape
                assert np.array_equal(layer.w[:rows, :cols], old.w)
                assert not layer.w[rows:].any() and not layer.w[:, cols:].any()

    def test_new_weights_are_zero(self):
        cell, head, _ = make_cell(13, d_s=6, d_h=5, density=1.0)
        coordinated_rc_prune_counts(cell, head, k_s=3, k_h=2)
        coordinated_rc_grow_counts(cell, head, k_s=1, k_h=1)
        assert (cell.d_s, cell.d_h) == (4, 4)
        for block in (cell.H, cell.O):
            assert not block.b[:, -1].any()
        for layer in cell.h_layers.values():
            assert layer.mask[-1].any() and not layer.w[-1].any()
            assert layer.mask[:, -1].any() and not layer.w[:, -1].any()
        for layer in list(cell.o_layers.values()) + [head]:
            assert layer.mask[:, -1].any() and not layer.w[:, -1].any()


class TestRcPrune:
    """Row/column pruning refusals, run on the coordinated unit op."""

    def test_refuses_pruning_all_rows(self):
        cell, head, _ = make_cell(3, density=1.0)
        with pytest.raises(DegenerateLayerError):
            coordinated_rc_prune(cell, head, p_r=1.0, p_c=0.0)

    def test_refuses_pruning_all_cols(self):
        cell, head, _ = make_cell(4, density=1.0)
        with pytest.raises(DegenerateLayerError):
            coordinated_rc_prune(cell, head, p_r=0.0, p_c=1.0)


class TestRcGrow:
    """Row/column growth invariants, run on the coordinated unit op."""

    def test_never_touches_fully_active_region(self):
        for seed in range(200):
            cell, head, rng = make_cell(1000 + seed, d_s=6, d_h=5,
                                        density=float(make_rng(seed).uniform(0.5, 1.0)))
            s_act, h_act = active_units(cell)
            coordinated_rc_prune_counts(cell, head, k_s=int(rng.integers(0, len(s_act))),
                                        k_h=int(rng.integers(0, len(h_act))))
            snaps = []
            for layer in cell.layers() + [head]:
                region = np.ix_(live_rows(layer), layer.active_cols())
                snaps.append((layer, region, layer.w[region].copy(),
                              layer.mask[region].copy()))
            coordinated_rc_grow_counts(cell, head, k_s=int(rng.integers(0, 7)),
                                       k_h=int(rng.integers(0, 6)))
            for layer, region, w_before, m_before in snaps:
                assert np.array_equal(layer.w[region], w_before), f"seed {seed}"
                assert np.array_equal(layer.mask[region], m_before), f"seed {seed}"


class TestHalvingSchedule:
    def cfg(self, **kw):
        return GrowPruneConfig(accuracy_threshold=100.0, **kw)

    def test_within_threshold_continues(self):
        cfg, d = halve_on_violation(self.cfg(), 99.0, single_mode=False)
        assert d is HalveDecision.CONTINUE
        assert cfg.p_r == 0.2

    def test_violation_halves(self):
        cfg, d = halve_on_violation(self.cfg(), 101.0, single_mode=False)
        assert d is HalveDecision.HALVED
        assert cfg.p_r == 0.1 and cfg.p_c == 0.1

    def test_floor_triggers_single_mode(self):
        cfg, d = halve_on_violation(self.cfg(p_r=0.015, p_c=0.015), 101.0,
                                    single_mode=False)
        assert d is HalveDecision.SINGLE_MODE

    def test_single_mode_violation_stops(self):
        _, d = halve_on_violation(self.cfg(), 101.0, single_mode=True)
        assert d is HalveDecision.STOP

    def test_exact_threshold_is_not_a_violation(self):
        _, d = halve_on_violation(self.cfg(), 100.0, single_mode=False)
        assert d is HalveDecision.CONTINUE

    def test_nonfinite_metric_rejected(self):
        with pytest.raises(ContractViolation):
            halve_on_violation(self.cfg(), math.nan, single_mode=False)

    def test_weight_ratio_halves_then_stops(self):
        cfg = self.cfg(p_w=0.03)
        cfg, d = halve_weight_ratio(cfg, 101.0)
        assert d is HalveDecision.HALVED and cfg.p_w == 0.015
        cfg, d = halve_weight_ratio(cfg, 101.0)
        assert d is HalveDecision.STOP

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ContractViolation):
            GrowPruneConfig(p_w=1.5)

    def test_negative_retrain_patience_rejected(self):
        # -1 used to reach rcp's prune loop, which read an unset ppl
        with pytest.raises(ContractViolation, match="retrain_patience"):
            GrowPruneConfig(retrain_patience=-1)
        GrowPruneConfig(retrain_patience=0)
