import copy
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hwsynth import growprune, hlstm, latlab, synthflow
from hwsynth.corpus import batch_windows, bundled_corpus_path, load_corpus
from hwsynth.growprune import (
    GrowPruneConfig,
    coordinated_rc_prune_counts,
    weight_grow,
    weight_prune,
)
from hwsynth.hlstm import GATES, Backward, GradHelper, LMModel, bptt, freeze, unroll_forward
from hwsynth.numkit import (ARRAYS, Child, ContractViolation, MaskedLinear, NumericAbort,
                            make_rng, sgd_step, sgd_update)
from hwsynth.synthflow import (
    CheckpointError,
    ConfigError,
    FlowConfig,
    FlowState,
    LatencyConfig,
    OptimizerConfig,
    SynthesisFlow,
    Trainer,
    checkpoint_load,
    checkpoint_save,
    make_seed,
    measure_model_latency,
    param_count,
    run_flow,
)
from hwsynth.cli import main
from oracles import (cast_bptt, cut_units, full_shape_forward, kept_units, rel_max_diff,
                     unit_prune_oracle, with_dtype)
from test_hlstm import random_model, unread_model

# oracles that compare bit for bit or within 1e-12 against a float64 reference
# run on float64 copies of the seed models
F64 = np.float64


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    rng = np.random.default_rng(7)
    text = "".join(rng.choice(list("abcdefgh "), size=3000))
    path = tmp_path_factory.mktemp("corpus") / "tiny.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_profile(path, top, period=4):
    """A profile CSV of a synthetic curve over dims 1..top (no rows for 0)."""
    curve = latlab.SyntheticCurveSpec(period=period)
    grid = list(range(1, top + 1))
    latlab.save_profile(latlab.LatencyProfile(
        hardware_id="t", batch=16, grid=grid,
        samples=[latlab.SampleStats(m, m, m, 5) for m in map(curve.latency_ns, grid)]),
        path)
    return str(path)


def tiny_config(tiny_corpus, **overrides):
    base = dict(
        corpus_path=tiny_corpus,
        d_x=4, d_s=12, d_h=12,
        seed_sparsity=0.5,
        growprune=GrowPruneConfig(accuracy_threshold=1e9, retrain_patience=1),
        optimizer=OptimizerConfig(lr=0.5),
        baseline_epochs=1, wg_epochs=2, growth_epochs=1, rcg_epochs=1,
        batch=8, seq_len=16,
        profile_grid=(1, 12, 1),
        latency=LatencyConfig(curve=latlab.SyntheticCurveSpec(period=4)),
        max_prune_iters=2,
        seed=3,
    )
    base.update(overrides)
    return FlowConfig(**base)


class TestFlowConfig:
    def test_tied_dims_enforced(self):
        with pytest.raises(ConfigError):
            FlowConfig(d_s=16, d_h=8)

    def test_sparsity_bounds(self):
        with pytest.raises(ConfigError):
            FlowConfig(seed_sparsity=1.0)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ConfigError):
            FlowConfig(wg_epochs=-1)

    @pytest.mark.parametrize("wg,growth", [(2, 3), (0, 1), (4, 5)])
    def test_growth_epochs_beyond_wg_epochs_rejected(self, wg, growth, tmp_path):
        # growth runs in wg's epochs only, so the flow used to grow wg_epochs times
        with pytest.raises(ConfigError, match="^growth_epochs .* exceeds wg_epochs"):
            FlowConfig(wg_epochs=wg, growth_epochs=growth)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"wg_epochs": wg, "growth_epochs": growth}),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="^growth_epochs .* exceeds wg_epochs"):
            FlowConfig.from_json(path)

    @pytest.mark.parametrize("wg,growth", [(0, 0), (2, 2), (4, 3)])
    def test_growth_epochs_within_wg_epochs_accepted(self, wg, growth):
        cfg = FlowConfig(wg_epochs=wg, growth_epochs=growth)
        assert (cfg.wg_epochs, cfg.growth_epochs) == (wg, growth)

    @pytest.mark.parametrize("optimizer,key", [
        (dict(lr=-1.0), "lr"), (dict(lr=0.0), "lr"), (dict(lr=math.inf), "lr"),
        (dict(weight_decay=math.nan), "weight_decay"), (dict(lr_decay=math.nan), "lr_decay"),
        (dict(weight_decay=-5.0), "weight_decay"), (dict(lr_decay=-1.0), "lr_decay"),
        (dict(lr_decay=0.0), "lr_decay"), (dict(lr_decay=1.5), "lr_decay"),
        (dict(lr_patience=-1), "lr_patience")])
    def test_bad_optimizer_rejected(self, optimizer, key, tmp_path):
        # weight_decay=-5.0 used to diverge, and lr_decay=-1.0 to flip the sign
        # of lr at the first plateau
        with pytest.raises(ConfigError, match=f"^optimizer.{key} must be"):
            OptimizerConfig(**optimizer)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"optimizer": optimizer}), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^optimizer.{key} must be"):
            FlowConfig.from_json(path)

    @pytest.mark.parametrize("override,error,key", [
        ({"max_prune_iters": -3}, ConfigError, "max_prune_iters"),
        ({"growprune": {"retrain_patience": -1}}, ContractViolation, "retrain_patience")])
    def test_negative_prune_loop_counts_rejected(self, override, error, key, tmp_path):
        # -3 iterations used to complete a flow that pruned nothing; -1 retrain
        # epochs to fail in rcp after baseline and wg had trained
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(override), encoding="utf-8")
        with pytest.raises(error, match=key):
            FlowConfig.from_json(path)

    @pytest.mark.parametrize("latency,key", [
        (dict(mode="Virtual"), "mode"), (dict(mode="wallclock"), "mode"),
        (dict(runs=0), "runs"), (dict(mode="real", runs=-1), "runs"),
        (dict(measure_batch=0), "measure_batch"), (dict(measure_seq=0), "measure_seq"),
        # real mode times exactly `runs` forwards, as many as `hwsynth bench --reps`
        (dict(runs=4), "runs"), (dict(mode="real", runs=1), "runs")])
    def test_bad_latency_rejected(self, latency, key, tmp_path):
        # "Virtual" used to run the real-mode sweep and wall-clock timing
        with pytest.raises(ConfigError, match=f"latency.{key}"):
            FlowConfig(latency=LatencyConfig(**latency))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"latency": latency}), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"latency.{key}"):
            FlowConfig.from_json(path)

    @pytest.mark.parametrize("sizes", [
        dict(d_s=0, d_h=0), dict(d_x=0), dict(d_s=-2), dict(batch=0), dict(seq_len=-1)])
    def test_non_positive_size_rejected(self, sizes, tmp_path):
        # d_s = d_h = 0 used to complete a flow of a 0x0 cell, d_x = 0 one that
        # never reads its input
        key = next(iter(sizes))
        with pytest.raises(ConfigError, match=f"^{key} must be at least 1"):
            FlowConfig(**sizes)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(sizes), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{key} must be at least 1"):
            FlowConfig.from_json(path)

    def test_negative_seed_rejected(self, tmp_path):
        # it used to train the baseline, then fail in make_rng with exit 1
        with pytest.raises(ConfigError, match="^seed must be non-negative"):
            FlowConfig(seed=-1)
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": -1}', encoding="utf-8")
        with pytest.raises(ConfigError, match="^seed must be non-negative"):
            FlowConfig.from_json(path)

    @pytest.mark.parametrize("key", [
        "d_x", "d_s", "d_h", "baseline_epochs", "wg_epochs", "growth_epochs", "rcg_epochs",
        "batch", "seq_len", "seed", "max_prune_iters",
        "latency.measure_batch", "latency.measure_seq", "latency.runs",
        "growprune.retrain_patience", "optimizer.lr_patience", "latency.curve.period",
        "latency.curve.seed"])
    @pytest.mark.parametrize("kind", ["fraction", "bool"])
    def test_integer_field_refuses_other_values(self, key, kind):
        # seed=1.5 used to pass, then fail with a TypeError after the LHP sweep and
        # the corpus load; batch=2.5 or seed=True ran. retrain_patience=1.5 failed
        # after training, curve.seed=1.5 at the sweep; lr_patience=0.5 and
        # period=2.5 ran
        *sections, name = key.split(".")
        chain = [FlowConfig()]
        for section in sections:
            chain.append(getattr(chain[-1], section))
        value = getattr(chain[-1], name) + 0.5 if kind == "fraction" else True
        kwargs = {name: value}
        for section, default in zip(reversed(sections), reversed(chain[1:])):
            kwargs = {section: type(default)(**kwargs)}
        with pytest.raises(ConfigError, match=f"^{key} must be an integer, got {value!r}$"):
            FlowConfig(**kwargs)

    @pytest.mark.parametrize("period", [0, -16])
    def test_bad_curve_period_rejected(self, period, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"latency": {"curve": {"period": period}}}),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="latency.curve.period"):
            FlowConfig.from_json(path)

    def test_from_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "version": 1,
            "d_s": 16, "d_h": 16, "seq_len": 8,
            "growprune": {"p_w": 0.5},
            "optimizer": {"lr": 0.25},
            "latency": {"mode": "virtual", "curve": {"period": 8}},
            "profile_grid": [1, 16, 1],
        }), encoding="utf-8")
        cfg = FlowConfig.from_json(path)
        assert cfg.d_s == 16 and cfg.seq_len == 8
        assert cfg.growprune.p_w == 0.5
        assert cfg.optimizer.lr == 0.25
        assert cfg.latency.curve.period == 8
        assert cfg.profile_grid == (1, 16, 1)

    def test_from_json_bad_version(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(ConfigError, match="version"):
            FlowConfig.from_json(path)

    def test_from_json_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"no_such_knob": 1}', encoding="utf-8")
        with pytest.raises(ConfigError):
            FlowConfig.from_json(path)

    def test_from_json_missing_file(self):
        with pytest.raises(ConfigError):
            FlowConfig.from_json("/nonexistent/cfg.json")

    def test_from_json_depth_rejected(self, tmp_path):
        # the model is one cell, so depth is not a config key
        path = tmp_path / "cfg.json"
        path.write_text('{"depth": 2}', encoding="utf-8")
        with pytest.raises(ConfigError, match="depth"):
            FlowConfig.from_json(path)

    # a fractional entry used to raise range()'s bare TypeError, and a bool one
    # counted as 0 or 1, so (1, True, 1) passed
    @pytest.mark.parametrize("grid", [(0, 12, 1), (1, 12, 0), (5, 4, 1), (1, 12),
                                      (1, 12.5, 1), (1, True, 1), (False, 12, 1)])
    def test_malformed_profile_grid_rejected(self, grid):
        with pytest.raises(ConfigError, match="profile_grid"):
            FlowConfig(d_s=12, d_h=12, profile_grid=grid)
        with pytest.raises(ConfigError, match="profile_grid"):
            FlowConfig(d_s=1, d_h=1, profile_grid=grid)

    def test_profile_grid_must_reach_d_s_when_sweeping(self, tiny_corpus, tmp_path):
        # (1, 12, 2) stops at 11 < d_s: refused before the corpus is even read
        with pytest.raises(ConfigError, match="profile_grid"):
            SynthesisFlow(tiny_config("/nonexistent/corpus.txt", profile_grid=(1, 12, 2)))
        with pytest.raises(ConfigError, match="profile_grid"):
            SynthesisFlow(tiny_config(tiny_corpus, profile_grid=(1, 8, 1)))
        # no sweep, no requirement: cpu_mode and a loaded profile skip it
        SynthesisFlow(tiny_config(tiny_corpus, profile_grid=(1, 8, 1), cpu_mode=True))
        SynthesisFlow(tiny_config(tiny_corpus, profile_grid=(1, 8, 1),
                                  profile_path=write_profile(tmp_path / "p.csv", 12)))
        SynthesisFlow(tiny_config(tiny_corpus, profile_grid=(2, 12, 2)))

    @pytest.mark.parametrize("split,batch,seq_len,tokens", [("train", 40, 60, 2400),
                                                           ("valid", 1, 75, 300)])
    def test_a_split_without_a_window_is_refused_before_training(
            self, tiny_corpus, tmp_path, monkeypatch, split, batch, seq_len, tokens):
        # a valid window has VALID_BATCH = 4 lanes: in each case the other split has one
        assert len(getattr(SynthesisFlow(tiny_config(tiny_corpus)).corpus, split)) == tokens
        lanes = batch if split == "train" else synthflow.VALID_BATCH
        epochs = count_calls(monkeypatch, Trainer, "epoch")
        out = tmp_path / "flow"
        with pytest.raises(ConfigError, match=f"^{split} split of .*tiny.txt has {tokens} "
                                              f"tokens; .* needs {lanes * seq_len + 1}$"):
            run_flow(tiny_config(tiny_corpus, batch=batch, seq_len=seq_len), out,
                     log=lambda *a, **k: None)
        assert epochs == [] and not out.exists()
        SynthesisFlow(tiny_config(tiny_corpus, batch=batch, seq_len=seq_len - 1))

    @pytest.mark.parametrize("top", [0, 11])
    def test_loaded_profile_must_reach_d_s(self, tiny_corpus, tmp_path, top):
        # no rows, or a largest dim below d_s = 12: refused before any training
        path = write_profile(tmp_path / "short.csv", top)
        with pytest.raises(ConfigError, match="short.csv"):
            SynthesisFlow(tiny_config(tiny_corpus, profile_path=path))
        SynthesisFlow(tiny_config(tiny_corpus, profile_path=path, cpu_mode=True))

    def test_lhp_map_is_built_once_at_construction(self, tiny_corpus, monkeypatch):
        sweeps = count_calls(monkeypatch, latlab, "sweep")
        analyses = count_calls(monkeypatch, latlab, "detect_lhps")
        flow = SynthesisFlow(tiny_config(tiny_corpus))
        flow.log = lambda *a, **k: None
        assert (len(sweeps), len(analyses)) == (1, 1)
        assert flow.hmap.profile.grid == list(range(1, 13))
        report = flow.run()
        assert (len(sweeps), len(analyses)) == (1, 1)
        assert report.complete and report.lhp_target in flow.hmap.lhp_set

    def test_rcg_reuses_the_loaded_profile(self, tiny_corpus, tmp_path):
        path = write_profile(tmp_path / "p.csv", 12)
        flow = SynthesisFlow(tiny_config(tiny_corpus, profile_path=path))
        flow.log = lambda *a, **k: None
        os.remove(path)         # read once, up front; rcg must not read it again
        report = flow.run()
        assert report.complete and report.lhp_target is not None


class TestFlowState:
    def test_forward_only(self):
        state = FlowState()
        state.advance("rcp")
        state.advance("rcg")
        with pytest.raises(ContractViolation):
            state.advance("wg")

    def test_same_phase_allowed(self):
        state = FlowState()
        state.advance("wg")
        assert state.phase == "wg"


class TestMakeSeed:
    def test_exact_active_counts(self, tiny_corpus):
        cfg = tiny_config(tiny_corpus, seed_sparsity=0.5)
        model = make_seed(cfg, vocab_size=9, rng=make_rng(0))
        for layer in model.masked_layers():
            expected = math.ceil(0.5 * layer.w.size)
            assert layer.active_count() == expected, layer.name
            assert np.all(layer.w[layer.mask == 0.0] == 0.0)

    def test_sparsity_90pct(self, tiny_corpus):
        cfg = tiny_config(tiny_corpus, seed_sparsity=0.9)
        model = make_seed(cfg, vocab_size=9, rng=make_rng(0))
        for layer in model.masked_layers():
            assert layer.active_count() == math.ceil(0.1 * layer.w.size)

    def test_deterministic_per_seed(self, tiny_corpus):
        cfg = tiny_config(tiny_corpus)
        m1 = make_seed(cfg, 9, make_rng(5))
        m2 = make_seed(cfg, 9, make_rng(5))
        for l1, l2 in zip(m1.masked_layers(), m2.masked_layers()):
            assert np.array_equal(l1.mask, l2.mask)
            assert np.array_equal(l1.w, l2.w)


def assert_views_own_blocks(model, others=()):
    """Every gate layer's arrays are views of its gate's slice of its own
    cell's blocks, and share no memory with any cell of `others`."""
    cell = model.cell
    for block, layers in ((cell.H, cell.h_layers), (cell.O, cell.o_layers)):
        for k, gate in enumerate(GATES):
            for attr in ARRAYS:
                view, own = getattr(layers[gate], attr), getattr(block, attr)[k]
                assert view.shape == own.shape and np.shares_memory(view, own)
                for other in others:
                    assert not np.shares_memory(view, getattr(other.cell.H, attr))
                    assert not np.shares_memory(view, getattr(other.cell.O, attr))


class TestGateViews:
    def test_create_and_make_seed(self, tiny_corpus):
        assert_views_own_blocks(LMModel.create(9, 4, 6, 5, make_rng(0)))
        assert_views_own_blocks(make_seed(tiny_config(tiny_corpus), 9, make_rng(0)))

    def test_deepcopy_rebuilds_views_over_copied_blocks(self, tiny_corpus):
        model = make_seed(tiny_config(tiny_corpus), 9, make_rng(0))
        dup = copy.deepcopy(model)
        assert_views_own_blocks(dup, others=[model])
        assert [l.name for l in dup.masked_layers()] == \
            [l.name for l in model.masked_layers()]
        dup.cell.h_layers["o"].w[...] = 0.0
        assert not dup.cell.H.w[GATES.index("o")].any()
        assert model.cell.H.w[GATES.index("o")].any()

    def test_checkpoint_load(self, tiny_corpus, tmp_path):
        model = make_seed(tiny_config(tiny_corpus), 9, make_rng(0))
        checkpoint_save(model, {}, tmp_path / "ck.npz")
        loaded, _ = checkpoint_load(tmp_path / "ck.npz")
        assert_views_own_blocks(loaded, others=[model])

    def test_flow_restore(self, tiny_corpus):
        flow = SynthesisFlow(tiny_config(tiny_corpus))
        flow.model = make_seed(flow.cfg, flow.corpus.vocab_size, make_rng(0))
        flow.trainer = Trainer(flow.cfg.optimizer)
        before = flow.model
        snap = flow._snapshot()
        flow._restore(snap)
        # the restored model is the snapshot's own copy, detached from `before`
        assert flow.model is snap[0]
        assert_views_own_blocks(flow.model, others=[before])

    def test_views_follow_every_resize(self, tiny_corpus):
        """After an rcp cut, an rcg append and a sweep, every view made then
        shares memory with the cell's new blocks and writes through to them;
        a view made before the resize still reads the old blocks."""
        model = make_seed(tiny_config(tiny_corpus), 9, make_rng(0))
        cell = model.cell

        def kill_d_h_unit():
            # d_h unit 0 neither read (O column) nor written (H row): sweep drops it
            for arr in (cell.H.mask, cell.H.w):
                arr[:, 0] = 0.0
            for arr in (cell.O.mask, cell.O.w):
                arr[:, :, 0] = 0.0
            growprune.sweep(cell, model.head)

        for resize, dims in (
                (lambda: coordinated_rc_prune_counts(cell, model.head, 3, 2), (9, 10)),
                (lambda: growprune.coordinated_rc_grow_counts(cell, model.head, 2, 1), (11, 11)),
                (kill_d_h_unit, (11, 10))):
            old, stale = (cell.H, cell.O), cell.h_layers["f"]
            resize()
            assert (cell.d_s, cell.d_h) == dims
            assert cell.H is not old[0] and cell.O is not old[1]
            assert_views_own_blocks(model)
            assert not np.shares_memory(stale.w, cell.H.w)
            for block, layers in ((cell.H, cell.h_layers), (cell.O, cell.o_layers)):
                for k, gate in enumerate(GATES):
                    for attr in ARRAYS:
                        view = getattr(layers[gate], attr)
                        kept = view.flat[-1]
                        view.flat[-1] = 7.0
                        assert getattr(block, attr)[k].flat[-1] == 7.0, (gate, attr)
                        view.flat[-1] = kept

    def test_cell_stores_only_its_blocks(self, tiny_corpus):
        model = make_seed(tiny_config(tiny_corpus), 9, make_rng(0))
        cells = [model.cell]
        coordinated_rc_prune_counts(model.cell, model.head, 3, 2)
        cells += [model.cell, copy.deepcopy(model).cell]
        for cell in cells:
            assert sorted(vars(cell)) == ["H", "O", "d_x", "name"]
            assert not any(isinstance(v, (MaskedLinear, dict, list)) for v in vars(cell).values())
        assert [l.name for l in cells[-1].layers()] == \
            [f"cell0.{kind}{g}" for g in GATES for kind in "HO"]

    def test_rebinding_refused(self):
        layer = LMModel.create(9, 4, 6, 5, make_rng(0)).cell.o_layers["f"]
        for attr in ARRAYS:
            with pytest.raises(ContractViolation, match=attr):
                setattr(layer, attr, getattr(layer, attr).copy())
        layer.w *= 1.0          # in place through the same array: allowed

    def test_grow_and_prune_through_a_view_reach_the_kernels(self, tiny_corpus):
        model = make_seed(tiny_config(tiny_corpus), 9, make_rng(0))
        tokens = make_rng(1).integers(0, 9, size=(2, 6))
        cell = model.cell
        base, _, _ = unroll_forward(model, tokens)
        assert weight_prune(cell.h_layers["i"], 0.5) > 0
        pruned, _, _ = unroll_forward(model, tokens)
        assert not np.array_equal(pruned, base)
        grad = make_rng(2).standard_normal(cell.o_layers["g"].w.shape)
        assert weight_grow(cell.o_layers["g"], grad, 0.2, lr=1.0) > 0
        grown, _, _ = unroll_forward(model, tokens)
        assert not np.array_equal(grown, pruned)


class TestParamCount:
    def test_dense_model_hand_count(self):
        V, d_x, d_s, d_h = 9, 4, 6, 6
        model = LMModel.create(V, d_x, d_s, d_h, make_rng(0))
        total, active = param_count(model)
        per_gate = d_h * (d_x + d_s) + d_h + d_s * d_h + d_s
        assert total == 4 * per_gate + (V * d_s + V) + V * d_x
        assert active == total

    def test_active_drops_with_mask(self):
        model = LMModel.create(5, 2, 3, 3, make_rng(1))
        total, before = param_count(model)
        model.head.mask[...] = 0.0
        model.head.apply_mask()
        # the head keeps its weights and biases in the total, but none is active
        assert param_count(model) == (total, before - (5 * 3 + 5))


class TestCheckpoint:
    def model(self):
        model = LMModel.create(6, 3, 4, 4, make_rng(2))
        for layer in model.masked_layers():
            layer.mask[...] = make_rng(3).random(layer.mask.shape) < 0.6
            layer.apply_mask()
        return model

    def test_round_trip_bitwise(self, tmp_path):
        model = self.model()
        path = tmp_path / "ck.npz"
        checkpoint_save(model, {"phase": "rcp"}, path)
        loaded, meta = checkpoint_load(path)
        assert meta["phase"] == "rcp"
        tokens = make_rng(4).integers(0, 6, size=(1, 8))
        a, _, _ = unroll_forward(model, tokens)
        b, _, _ = unroll_forward(loaded, tokens)
        assert a.tobytes() == b.tobytes()
        for l1, l2 in zip(model.masked_layers(), loaded.masked_layers()):
            assert np.array_equal(l1.mask, l2.mask)
            assert l1.name == l2.name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_arrays_keep_the_model_dtype(self, tmp_path, dtype):
        """The file holds the model's arrays as they are (float32 halves the
        weights' bytes); the loaded model takes its stored embedding's dtype."""
        model = with_dtype(self.model(), dtype)
        path = tmp_path / "ck.npz"
        checkpoint_save(model, {}, path)
        data = np.load(path)
        assert {data[k].dtype for k in data.files
                if k.split("_")[0] in ("embedding", "w", "b")} == {np.dtype(dtype)}
        loaded, _ = checkpoint_load(path)
        assert loaded.embedding.dtype == dtype
        assert loaded.embedding.tobytes() == model.embedding.tobytes()
        for l1, l2 in zip(model.masked_layers(), loaded.masked_layers()):
            for attr in ARRAYS:
                assert getattr(l2, attr).dtype == dtype, (l2.name, attr)
            for attr in ("w", "mask", "b"):
                assert getattr(l1, attr).tobytes() == getattr(l2, attr).tobytes()

    def test_non_float_embedding_refused(self, tmp_path):
        def edit(data):
            data["embedding"] = data["embedding"].astype(np.int64)
        with pytest.raises(CheckpointError, match=r"edited\.npz: embedding is int64"):
            checkpoint_load(self.resave(tmp_path, edit))

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.npz"
        checkpoint_save(self.model(), {"phase": "wg"}, path)
        before = path.read_bytes()

        def fail_part_way(fh, **arrays):
            fh.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail_part_way)
        with pytest.raises(OSError, match="disk full"):
            checkpoint_save(self.model(), {"phase": "rcp"}, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ck.npz"]

    def test_masks_stored_as_uint8(self, tmp_path):
        path = tmp_path / "ck.npz"
        checkpoint_save(self.model(), {}, path)
        data = np.load(path)
        assert {data[f"mask_{i}"].dtype for i in range(9)} == {np.dtype(np.uint8)}

    def resave(self, tmp_path, edit):
        """Save a checkpoint, let `edit` change its arrays, write them back
        through np.savez, and return the new path."""
        path = tmp_path / "ck.npz"
        checkpoint_save(self.model(), {}, path)
        data = dict(np.load(path))
        edit(data)
        out = tmp_path / "edited.npz"
        with open(out, "wb") as fh:
            np.savez(fh, **data)
        return out

    def test_bad_mask_value_refused(self, tmp_path):
        def edit(data):
            data["mask_3"][0, 0] = 2
        with pytest.raises(CheckpointError, match="mask_3"):
            checkpoint_load(self.resave(tmp_path, edit))

    def test_missing_array_named(self, tmp_path):
        # it used to escape as a bare KeyError
        with pytest.raises(CheckpointError, match=r"edited\.npz: w_3 is missing"):
            checkpoint_load(self.resave(tmp_path, lambda data: data.pop("w_3")))

    def test_misshaped_array_named(self, tmp_path):
        # it used to escape as numpy's broadcast ValueError
        def edit(data):
            data["w_3"] = data["w_3"][:, :-1]
        with pytest.raises(CheckpointError,
                           match=r"edited\.npz: w_3 is \(4, 3\), and its meta's dims make it "
                                 r"\(4, 4\)"):
            checkpoint_load(self.resave(tmp_path, edit))

    def test_missing_meta_key_named(self, tmp_path):
        def edit(data):
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            del meta["d_h"]
            data["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with pytest.raises(CheckpointError, match=r"edited\.npz: its meta has no 'd_h' key"):
            checkpoint_load(self.resave(tmp_path, edit))

    def test_float64_masks_still_load(self, tmp_path):
        def edit(data):
            for i in range(9):
                data[f"mask_{i}"] = data[f"mask_{i}"].astype(np.float64)
        model = self.model()
        loaded, _ = checkpoint_load(self.resave(tmp_path, edit))
        for l1, l2 in zip(model.masked_layers(), loaded.masked_layers()):
            for attr in ("w", "mask", "b"):
                assert getattr(l1, attr).tobytes() == getattr(l2, attr).tobytes()

    def test_version_refusal(self, tmp_path):
        path = tmp_path / "ck.npz"
        checkpoint_save(self.model(), {}, path)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        meta["version"] = 99
        data["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                          dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(CheckpointError, match="99"):
            checkpoint_load(bad)

    @pytest.mark.parametrize("key,value", [("hidden_depth", 0), ("depth", 2)])
    def test_other_cell_shapes_refused(self, tmp_path, key, value):
        path = tmp_path / "ck.npz"
        checkpoint_save(self.model(), {}, path)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        assert meta[key] == 1
        meta[key] = value
        data["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                          dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(CheckpointError, match=key):
            checkpoint_load(bad)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    @pytest.mark.parametrize("names", [["cell0.Hf", "cell0.Of", "head"], "head", None])
    def test_layer_names_not_one_per_layer_refused(self, tmp_path, capsys, names):
        # a 3-name list used to escape as IndexError, which `hwsynth bench`
        # printed as "failure: list index out of range"
        def edit(data):
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            meta["layer_names"] = names
            data["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        path = self.resave(tmp_path, edit)
        with pytest.raises(CheckpointError, match=r"edited\.npz: its meta's layer_names .* "
                                                  r"is not one name per masked layer \(9\)"):
            checkpoint_load(path)
        assert main(["bench", "--checkpoint", str(path), "--virtual"]) == 1
        assert "edited.npz" in capsys.readouterr().err

    @pytest.mark.parametrize("meta", [["phase", "wp"], "wp", 3, None])
    def test_meta_not_an_object_refused(self, tmp_path, capsys, meta):
        # a list used to escape as AttributeError: 'list' object has no attribute 'get'
        def edit(data):
            data["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        path = self.resave(tmp_path, edit)
        with pytest.raises(CheckpointError,
                           match=r"edited\.npz: its meta_json is not a JSON object"):
            checkpoint_load(path)
        assert main(["bench", "--checkpoint", str(path), "--virtual"]) == 1
        assert "edited.npz" in capsys.readouterr().err

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        """The model is built from the stored arrays; nothing is drawn only
        to be overwritten."""
        model = self.model()
        checkpoint_save(model, {}, tmp_path / "ck.npz")

        def drawing(*args, **kwargs):
            raise AssertionError("checkpoint_load drew random weights")
        for owner, name in ((LMModel, "create"), (synthflow.HLSTMCellParams, "create"),
                            (synthflow.MaskedLinear, "dense")):
            monkeypatch.setattr(owner, name, drawing)
        loaded, _ = checkpoint_load(tmp_path / "ck.npz")
        for l1, l2 in zip(model.masked_layers(), loaded.masked_layers()):
            for attr in ("w", "mask", "b"):
                assert getattr(l1, attr).tobytes() == getattr(l2, attr).tobytes()


class TestFullShapeCheckpoint:
    """A checkpoint written when every layer kept the seed's dims, with the
    units rcp cut zero-masked, loads at its read-or-written dims with the
    same logits, and `hwsynth bench` reports the same virtual latency."""

    @pytest.fixture(scope="class")
    def saved(self, tiny_corpus, tmp_path_factory):
        model = with_dtype(make_seed(tiny_config(tiny_corpus), 9, make_rng(8)), F64)
        for layer in model.masked_layers():
            layer.b[...] = make_rng(9).uniform(-0.3, 0.3, size=layer.b.shape)
        full = cut_units(model, *unit_prune_oracle(model.cell, model.head, 4, 3))
        assert (full.cell.d_s, full.cell.d_h) == (12, 12)
        path = tmp_path_factory.mktemp("full") / "checkpoint_rcp.npz"
        checkpoint_save(full, {"phase": "rcp"}, path)
        return full, path

    def test_loads_at_its_read_or_written_dims(self, saved):
        full, path = saved
        loaded, meta = checkpoint_load(path)
        assert meta["d_s"] == meta["d_h"] == 12
        s, h = kept_units(full.cell, full.head, {l.name: l.mask for l in full.masked_layers()})
        assert (loaded.cell.d_s, loaded.cell.d_h) == (len(s), len(h)) == (8, 9)
        assert_compact_of(loaded, full, np.array(s), np.array(h), tol=0.0)
        tokens = make_rng(10).integers(0, 9, size=(4, 20))
        got, _, _ = unroll_forward(loaded, tokens)
        assert rel_max_diff(got, full_shape_forward(full, tokens)[0]) <= 1e-12
        assert param_count(loaded)[1] == param_count(full)[1]

    def test_bench_prints_the_same_latency_and_the_live_dims(self, saved, capsys):
        full, path = saved
        assert main(["bench", "--checkpoint", str(path), "--virtual"]) == 0
        out = capsys.readouterr().out
        want = measure_model_latency(full, LatencyConfig(measure_batch=16, runs=9))
        assert f"median_ns={want.median_ns!r} " in out
        assert out.rstrip().endswith("compact_d_s=8 compact_d_h=9")


class TestSweepKeepsBehaviour:
    """Over random sparse float64 models, after rcp's cut and after a
    weight prune plus sweep: the shape is the read-or-written units of the
    model the sweep was given, and the logits, active parameter count and
    virtual latency are those of that model; a model frozen before the
    prune still runs at its own dims."""

    LAT = LatencyConfig(curve=latlab.SyntheticCurveSpec(period=4), measure_seq=8)

    @staticmethod
    def random_model(rng):
        model = LMModel.create(int(rng.integers(3, 9)), int(rng.integers(2, 5)),
                               int(rng.integers(3, 10)), int(rng.integers(3, 10)), rng,
                               dtype=F64)
        density = rng.uniform(0.15, 0.9)
        for layer in model.masked_layers():
            layer.mask[...] = rng.random(layer.mask.shape) < density
            layer.b[...] = rng.uniform(-0.5, 0.5, size=layer.b.shape)
            layer.apply_mask()
        return model

    def check(self, model, ref, frozen, before, tokens):
        """`model` is `ref`, a model of the same units at full shape, swept;
        `frozen` was frozen before the prune, when it gave the logits `before`."""
        s, h = kept_units(ref.cell, ref.head, {l.name: l.mask for l in ref.masked_layers()})
        assert (model.cell.d_s, model.cell.d_h) == (len(s), len(h))
        assert_compact_of(model, ref, np.array(s, int), np.array(h, int), tol=0.0)
        got = unroll_forward(model, tokens)[0]
        assert rel_max_diff(got, unroll_forward(ref, tokens)[0]) <= 1e-12
        assert param_count(model)[1] == param_count(ref)[1]
        assert measure_model_latency(model, self.LAT) == measure_model_latency(ref, self.LAT)
        logits, _ = frozen.forward(tokens)
        assert logits.tobytes() == before.tobytes()

    def test_after_rc_prune_and_after_weight_prune(self):
        rng = make_rng(2025)
        trials = {"rcp": 0, "wp": 0}
        while min(trials.values()) < 200:
            model = self.random_model(rng)
            tokens = rng.integers(0, model.vocab_size, size=(3, 7))
            frozen = freeze(model)
            before = frozen.forward(tokens)[0]
            n_s, n_h = model.cell.active_dims()
            assert (frozen.head.in_dim, frozen.table.shape[2]) == (model.cell.d_s, model.cell.d_h)
            if trials["rcp"] <= trials["wp"]:
                if n_s < 2 or n_h < 2:
                    continue
                k_s, k_h = int(rng.integers(0, n_s)), int(rng.integers(0, n_h))
                ref = cut_units(model, *unit_prune_oracle(model.cell, model.head, k_s, k_h))
                coordinated_rc_prune_counts(model.cell, model.head, k_s, k_h)
                trials["rcp"] += 1
            else:
                for layer in model.masked_layers():
                    weight_prune(layer, float(rng.uniform(0.3, 0.95)))
                ref = copy.deepcopy(model)
                growprune.sweep(model.cell, model.head)
                trials["wp"] += 1
            self.check(model, ref, frozen, before, tokens)


class TestVirtualLatency:
    def test_hand_computed_sum(self):
        model = LMModel.create(9, 4, 12, 12, make_rng(0))
        curve = latlab.SyntheticCurveSpec(period=4)
        lat = LatencyConfig(curve=curve, measure_seq=16)
        stats = measure_model_latency(model, lat)
        expected = 16 * (4 * curve.latency_ns(12) + 4 * curve.latency_ns(12)
                         + curve.latency_ns(9))
        assert stats.median_ns == expected
        assert stats.mean_ns == expected

    def test_latency_drops_pruning_off_lhp_dim_to_lhp(self):
        # 10 sits inside a hysteresis bin (period 4); 8 is the LHP below it
        model = LMModel.create(9, 4, 10, 10, make_rng(0))
        lat = LatencyConfig(curve=latlab.SyntheticCurveSpec(period=4))
        before = measure_model_latency(model, lat).median_ns
        for gate in "fiog":
            layer = model.cell.o_layers[gate]
            layer.mask[8:, :] = 0.0
            layer.apply_mask()
        after = measure_model_latency(model, lat).median_ns
        assert after < before

    def test_deterministic(self):
        model = LMModel.create(9, 4, 12, 12, make_rng(0))
        lat = LatencyConfig(curve=latlab.SyntheticCurveSpec(period=4))
        assert measure_model_latency(model, lat) == measure_model_latency(model, lat)

    def test_real_mode_positive(self):
        model = LMModel.create(9, 4, 6, 6, make_rng(0))
        lat = LatencyConfig(mode="real", measure_batch=2, measure_seq=4, runs=5)
        stats = measure_model_latency(model, lat)
        assert stats.median_ns > 0


def bench_variant(d, seed=1):
    """The benchmark's infer-stage model: the 50%-sparse d=128 seed on the
    bundled corpus, rc-pruned to d units of each kind."""
    corpus = load_corpus(bundled_corpus_path())
    cfg = FlowConfig(d_x=32, d_s=128, d_h=128, seed_sparsity=0.5, seed=seed)
    model = make_seed(cfg, corpus.vocab_size, make_rng(seed))
    if d < 128:
        coordinated_rc_prune_counts(model.cell, model.head, 128 - d, 128 - d)
    return model


class TestCompactedLatency:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bench_d32_variant_compacts_to_32(self, seed):
        frozen = freeze(bench_variant(32, seed))
        assert (frozen.head.in_dim, frozen.table.shape[2]) == (32, 32)

    def test_real_mode_times_the_compacted_model(self):
        # acceptance: pruning 128 -> 32 units must show in real-mode latency
        lat = LatencyConfig(mode="real", measure_batch=16, measure_seq=64, runs=9)
        dense = measure_model_latency(bench_variant(128), lat).median_ns
        pruned = measure_model_latency(bench_variant(32), lat).median_ns
        assert pruned < 0.6 * dense

    def test_real_mode_lays_the_model_out_once(self, monkeypatch):
        laid_out = []
        layout = hlstm._layout
        monkeypatch.setattr(hlstm, "_layout", lambda *a: laid_out.append(1) or layout(*a))
        lat = LatencyConfig(mode="real", measure_batch=2, measure_seq=8, runs=5)
        assert measure_model_latency(bench_variant(32), lat).runs == 5
        assert len(laid_out) == 1     # one freeze, then a warm-up and 5 timed forwards


class TestTrainingPassesKeepFullShape:
    """Epochs, those that feed growth included, run the rc-pruned model at
    its own shape and match the full-shape unroll of that shape
    (oracles.full_shape_forward) bit for bit in NLL and gradients."""

    def setup_model(self, tiny_corpus):
        cfg = tiny_config(tiny_corpus, optimizer=OptimizerConfig(lr=0.5))
        ids = load_corpus(tiny_corpus).train
        model = with_dtype(make_seed(cfg, 9, make_rng(4)), F64)
        coordinated_rc_prune_counts(model.cell, model.head, 4, 3)
        assert (model.cell.d_s, model.cell.d_h) == (8, 9)
        return model, ids

    def test_growth_epoch_gradients_bitwise(self, tiny_corpus):
        model, ids = self.setup_model(tiny_corpus)
        ref = copy.deepcopy(model)
        sink = []
        nll = Trainer(OptimizerConfig(lr=0.5)).epoch(model, ids, 8, 16, grad_sink=sink)
        sums = [np.zeros_like(l.w) for l in ref.masked_layers()]
        assert nll == oracle_epoch(ref, ids, 0.5, OptimizerConfig().weight_decay, sums)
        windows = sum(1 for _ in batch_windows(ids, 8, 16))
        layers = model.masked_layers()
        assert len(sink) == len(sums) == len(layers)
        for got, grad, want in zip(layers, sink, sums):
            assert np.array_equal(grad, want / windows), got.name
            assert not got.grad_w.any()
        assert any(grad[l.mask == 0].any() for l, grad in zip(layers, sink))

    def test_training_epoch_nll_bitwise(self, tiny_corpus):
        model, ids = self.setup_model(tiny_corpus)
        ref = copy.deepcopy(model)
        trainer = Trainer(OptimizerConfig(lr=0.5))
        nll = trainer.epoch(model, ids, 8, 16)
        assert nll == oracle_epoch(ref, ids, 0.5, trainer.cfg.weight_decay)
        for got, want in zip(model.masked_layers(), ref.masked_layers()):
            assert rel_max_diff(got.w, want.w) <= 1e-12, got.name


def oracle_epoch(ref, ids, lr, weight_decay, sums=None):
    """One training epoch of `ref` at its shape: full_shape_forward, bptt
    and sgd_step per window, adding each window's weight gradients into
    `sums` (a list in masked_layers() order) when given. Returns the mean NLL."""
    total = count = 0
    state = None
    for xs, ys in batch_windows(ids, 8, 16):
        logits, caches, state = full_shape_forward(ref, xs, init=state)
        total += bptt(ref, logits, caches, xs, ys, grad_scale=1.0 / xs.size)
        count += xs.size
        for k, layer in enumerate(ref.masked_layers()):
            if sums is not None:
                sums[k] += layer.grad_w
            sgd_step(layer, lr, weight_decay)
        sgd_update(ref.embedding, ref.embedding_grad, lr, weight_decay)
        ref.embedding_grad[...] = 0.0
    return total / count


def assert_compact_of(model, full, s, h, tol=1e-12):
    """`model` holds the d_s units s and d_h units h of `full`, a model kept
    at full shape: masks equal, w, b and the embedding within `tol`
    (normwise relative)."""
    def close(got, want):
        return np.array_equal(got, want) or rel_max_diff(got, want) <= tol

    d_x = model.d_x
    cols = np.concatenate([np.arange(d_x), d_x + s])
    pairs = [(model.cell.H, full.cell.H, h, cols), (model.cell.O, full.cell.O, s, h)]
    for block, ref, rows, kept in pairs:
        assert np.array_equal(block.mask, ref.mask[:, rows][:, :, kept])
        assert close(block.w, ref.w[:, rows][:, :, kept])
        assert close(block.b, ref.b[:, rows])
    assert np.array_equal(model.head.mask, full.head.mask[:, s])
    assert close(model.head.w, full.head.w[:, s])
    assert close(model.head.b, full.head.b)
    assert close(model.embedding, full.embedding)


class TestCompactedTraining:
    """Epochs train the model's own shape, what a prune left of it, in
    place; a model kept at full shape ends where its epoch leaves the same
    units."""

    cfg = OptimizerConfig(lr=0.5)

    def setup_model(self, tiny_corpus, dtype=None):
        """The seed model, as made or as a `dtype` copy, and the train ids."""
        ids = load_corpus(tiny_corpus).train
        model = make_seed(tiny_config(tiny_corpus, optimizer=self.cfg), 9, make_rng(4))
        return (model if dtype is None else with_dtype(model, dtype)), ids

    def assert_matches(self, model, ref):
        """Masks equal to the oracle's (which never changes them); w, b and
        the embedding within 1e-12 of it."""
        for got, want in zip(model.masked_layers(), ref.masked_layers()):
            assert np.array_equal(got.mask, want.mask), got.name
            for attr in ("w", "b"):
                assert rel_max_diff(getattr(got, attr), getattr(want, attr)) <= 1e-12, \
                    (got.name, attr)
        assert rel_max_diff(model.embedding, ref.embedding) <= 1e-12

    def test_rc_pruned_units_stay_empty(self, tiny_corpus):
        """An epoch of the rc-pruned model matches one of the same cut kept
        at full shape, whose cut units stay empty: their leaving the arrays
        changes nothing the epoch computes."""
        model, ids = self.setup_model(tiny_corpus, F64)
        s_cut, h_cut = (np.array(u, int) for u in unit_prune_oracle(model.cell, model.head, 4, 3))
        full = cut_units(model, s_cut, h_cut)
        coordinated_rc_prune_counts(model.cell, model.head, 4, 3)
        assert (model.cell.d_s, model.cell.d_h) == (8, 9)
        trainer = Trainer(self.cfg)
        nll = trainer.epoch(model, ids, 8, 16)
        assert abs(nll - oracle_epoch(full, ids, 0.5, trainer.cfg.weight_decay)) <= 1e-12 * nll
        assert_compact_of(model, full, np.setdiff1d(np.arange(12), s_cut),
                          np.setdiff1d(np.arange(12), h_cut))
        H, O, d_x = full.cell.H, full.cell.O, model.d_x
        for arrays in (H.w[:, h_cut], H.w[:, :, d_x + s_cut], H.mask[:, h_cut],
                       H.b[:, h_cut], O.w[:, s_cut], O.w[:, :, h_cut], O.mask[:, s_cut],
                       O.b[:, s_cut], full.head.w[:, s_cut], full.head.mask[:, s_cut]):
            assert not arrays.any()

    def test_emptied_units_are_kept(self, tiny_corpus):
        # d_s unit u is written but unread; d_h unit k is read but unwritten,
        # and the relu of its bias still feeds the O layers
        model, ids = self.setup_model(tiny_corpus, F64)
        Trainer(self.cfg).epoch(model, ids, 8, 16)
        coordinated_rc_prune_counts(model.cell, model.head, 4, 3)
        cell, d_x = model.cell, model.d_x
        s_active, h_active = cell.active_units()
        u = int(np.flatnonzero(s_active)[0])
        k = int(np.flatnonzero(h_active & (cell.H.b > 0).any(axis=0))[0])
        for arr in (cell.H.mask, cell.H.w):
            arr[:, :, d_x + u] = 0.0
            arr[:, k] = 0.0
        model.head.mask[:, u] = model.head.w[:, u] = 0.0
        live = cell.O.mask[:, u] == 1.0
        assert live.any() and cell.O.mask[:, :, k].any()
        growprune.sweep(cell, model.head)
        assert (cell.d_s, cell.d_h) == (8, 9) and cell.active_dims() == (8, 8)
        before = cell.O.w[:, u].copy()
        ref = copy.deepcopy(model)
        trainer = Trainer(self.cfg)
        trainer.epoch(model, ids, 8, 16)
        oracle_epoch(ref, ids, 0.5, trainer.cfg.weight_decay)
        self.assert_matches(model, ref)
        after = cell.O.w[:, u]
        assert np.array_equal(after, ref.cell.O.w[:, u])    # nothing reads u: decay only
        assert np.all(np.abs(after[live]) < np.abs(before[live]))

    def test_report_row_names_the_compact_shape(self, tiny_corpus):
        # as above: d_s unit u is written but unread, d_h unit k read but
        # unwritten; the row's dims are the model's, which keeps both
        model, _ = self.setup_model(tiny_corpus)
        coordinated_rc_prune_counts(model.cell, model.head, 4, 3)
        cell, d_x = model.cell, model.d_x
        s_active, h_active = cell.active_units()
        u, k = int(np.flatnonzero(s_active)[0]), int(np.flatnonzero(h_active)[0])
        for arr in (cell.H.mask, cell.H.w):
            arr[:, :, d_x + u] = 0.0
            arr[:, k] = 0.0
        model.head.mask[:, u] = model.head.w[:, u] = 0.0
        assert cell.O.mask[:, u].any() and cell.O.mask[:, :, k].any()
        growprune.sweep(cell, model.head)
        timed = freeze(model)
        assert cell.active_dims() == (8, 8)
        assert (timed.head.in_dim, timed.table.shape[2]) == (8, 9)
        row = SynthesisFlow(tiny_config(tiny_corpus))._row("wp", model, 1.0)
        assert (row.d_s, row.d_h) == (8, 9)
        assert row.total_params == param_count(model)[0]

    def test_rng_argument_is_ignored(self, tiny_corpus):
        # bench/run.py still passes an rng positionally, ahead of grad_sink
        model, ids = self.setup_model(tiny_corpus)
        ref = copy.deepcopy(model)
        assert Trainer(self.cfg).epoch(model, ids, 8, 16, make_rng(9)) == \
            Trainer(self.cfg).epoch(ref, ids, 8, 16)
        for got, want in zip(model.masked_layers(), ref.masked_layers()):
            assert np.array_equal(got.w, want.w) and np.array_equal(got.b, want.b)

    def test_dense_model_trains_in_place(self, tiny_corpus):
        seed, ids = self.setup_model(tiny_corpus, F64)
        for model in (seed, LMModel.create(9, 4, 12, 12, make_rng(0), dtype=F64)):
            blocks = (model.cell.H, model.cell.O, model.head.w)
            ref = copy.deepcopy(model)
            trainer = Trainer(self.cfg)
            nll = trainer.epoch(model, ids, 8, 16)
            assert all(a is b for a, b in zip(blocks, (model.cell.H, model.cell.O,
                                                       model.head.w)))
            assert nll == oracle_epoch(ref, ids, 0.5, trainer.cfg.weight_decay)
            for got, want in zip(model.masked_layers(), ref.masked_layers()):
                assert np.array_equal(got.w, want.w) and np.array_equal(got.b, want.b)

    def test_growth_epoch_gets_dead_unit_gradients(self, tiny_corpus):
        # a unit emptied after training keeps its biases, so it still feeds
        # the state and the gates its dormant entries would join; no sweep
        # ran, so it is still in the arrays the epoch runs
        model, ids = self.setup_model(tiny_corpus)
        Trainer(self.cfg).epoch(model, ids, 8, 16)
        cell, d_x = model.cell, model.d_x
        u = 0
        k = int(np.flatnonzero((cell.H.b > 0).any(axis=0))[0])
        for arr in (cell.O.mask, cell.O.w):
            arr[:, u] = 0.0
            arr[:, :, k] = 0.0
        for arr in (cell.H.mask, cell.H.w):
            arr[:, k] = 0.0
            arr[:, :, d_x + u] = 0.0
        model.head.mask[:, u] = model.head.w[:, u] = 0.0
        sink = []
        Trainer(self.cfg).epoch(model, ids, 8, 16, grad_sink=sink)
        grads = dict(zip((layer.name for layer in model.masked_layers()), sink))
        assert grads["head"][:, u].any()
        assert any(grads[f"{cell.name}.H{g}"][:, d_x + u].any() for g in GATES)
        assert any(grads[f"{cell.name}.O{g}"][:, k].any() for g in GATES)

    def test_epoch_log_names_the_trained_shape(self, tiny_corpus):
        lines = []
        run_flow(tiny_config(tiny_corpus), log=lines.append)
        shapes = {line.split("]")[0][1:]: line.rsplit(" ", 1)[1]
                  for line in lines if " epoch " in line}
        assert shapes["baseline"] == shapes["wg"] == "12x12"
        assert shapes["rcp"] != "12x12"


class TestRestore:
    def test_reverted_prune_rewinds_the_trainer(self, tiny_corpus):
        # no perplexity meets a threshold of 1, so every rcp prune is reverted
        flow = SynthesisFlow(tiny_config(
            tiny_corpus, growprune=GrowPruneConfig(accuracy_threshold=1.0,
                                                   retrain_patience=1)))
        lines = []
        flow.log = lines.append
        flow.train_baseline()
        flow.step_weight_growth()
        t = flow.trainer
        at_snapshot = (t.lr, t.best_valid, t.stale)
        before = copy.deepcopy(flow.model)
        flow.step_rc_prune()
        verdicts = [line for line in lines if "prune" in line]
        assert verdicts and all("reverted prune" in line for line in verdicts)
        assert (t.lr, t.best_valid, t.stale) == at_snapshot
        for a, b in zip(flow.model.masked_layers(), before.masked_layers()):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.mask, b.mask)


class TestBaseline:
    def test_threshold_defaults_to_baseline_ppl(self, tiny_corpus):
        flow = SynthesisFlow(tiny_config(
            tiny_corpus, growprune=GrowPruneConfig(retrain_patience=1)))
        flow.log = lambda *a, **k: None
        ppl = flow.train_baseline()
        assert math.isfinite(ppl)
        assert flow.gp.accuracy_threshold == ppl
        assert flow.report.threshold == ppl
        assert flow.report.rows[0].step == "baseline"

    def test_explicit_threshold_kept(self, tiny_corpus):
        flow = SynthesisFlow(tiny_config(tiny_corpus))
        flow.log = lambda *a, **k: None
        flow.train_baseline()
        assert flow.gp.accuracy_threshold == 1e9


@pytest.fixture(scope="module")
def flow_result(tiny_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("flow")
    cfg = tiny_config(tiny_corpus)
    report = run_flow(cfg, out, log=lambda *a, **k: None)
    return cfg, report, out


class TestFullFlow:
    def test_phase_order_and_completion(self, flow_result):
        _, report, _ = flow_result
        assert [r.step for r in report.rows] == \
            ["baseline", "wg", "rcp", "rcg", "wp"]
        assert report.complete

    def test_rcp_reduces_dims_and_rcg_recovers_to_lhp(self, flow_result):
        cfg, report, _ = flow_result
        rows = {r.step: r for r in report.rows}
        assert rows["rcp"].d_s < cfg.d_s
        # recovery target: smallest LHP at or above the pruned tied dim
        grid = list(range(1, cfg.d_s + 1))
        profile = latlab.LatencyProfile(
            hardware_id="t", batch=16, grid=grid,
            samples=[latlab.SampleStats(m, m, m, 5) for m in
                     (cfg.latency.curve.latency_ns(d) for d in grid)])
        hmap = latlab.detect_lhps(profile)
        tied = max(rows["rcp"].d_s, rows["rcp"].d_h)
        target = latlab.nearest_lhp(hmap, tied)
        assert report.lhp_target == target
        if target is not None and target > tied:
            assert rows["rcg"].d_s == target
            assert rows["rcg"].d_h == target

    def test_rcg_latency_not_above_rcp(self, flow_result):
        _, report, _ = flow_result
        rows = {r.step: r for r in report.rows}
        assert rows["rcg"].latency_median_ns <= rows["rcp"].latency_median_ns

    def test_weight_prune_shrinks_active_params(self, flow_result):
        _, report, _ = flow_result
        rows = {r.step: r for r in report.rows}
        assert rows["wp"].active_params < rows["wg"].active_params
        assert rows["wp"].valid_ppl <= report.threshold

    def test_artifacts_on_disk(self, flow_result):
        # one checkpoint per phase is the one record of its masks
        _, _, out = flow_result
        assert sorted(p.name for p in out.iterdir()) == [
            f"checkpoint_{tag}.npz" for tag in ("rcg", "rcp", "wg", "wp")
        ] + ["report.csv", "report.json"]
        data = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert data["complete"] is True

    def test_final_checkpoint_masks_consistent(self, flow_result):
        _, _, out = flow_result
        model, meta = checkpoint_load(out / "checkpoint_wp.npz")
        assert meta["phase"] == "wp"
        for layer in model.masked_layers():
            assert np.all(layer.w[layer.mask == 0.0] == 0.0)

    def test_checkpoint_round_trip_keeps_layer_names(self, flow_result, tmp_path):
        _, _, out = flow_result
        names = [f"cell0.{kind}{g}" for g in GATES for kind in "HO"] + ["head"]
        for path in sorted(out.glob("checkpoint_*.npz")):
            model, meta = checkpoint_load(path)
            assert meta["layer_names"] == [l.name for l in model.masked_layers()] == names
            checkpoint_save(model, meta, tmp_path / path.name)
            again, meta = checkpoint_load(tmp_path / path.name)
            assert meta["layer_names"] == [l.name for l in again.masked_layers()] == names

    def test_report_csv_header(self, flow_result):
        _, report, out = flow_result
        text = (out / "report.csv").read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(report.CSV_HEADER)
        assert len(text.splitlines()) == 1 + len(report.rows)


class TestCpuMode:
    def test_skips_dimension_steps(self, tiny_corpus):
        cfg = tiny_config(tiny_corpus, cpu_mode=True)
        report = run_flow(cfg, log=lambda *a, **k: None)
        assert [r.step for r in report.rows] == ["baseline", "wg", "wp"]
        assert report.lhp_target is None  # no hysteresis analysis ran
        rows = {r.step: r for r in report.rows}
        # no structured pruning: the full allocation is untouched even though
        # weight pruning may incidentally empty individual rows
        assert rows["wp"].total_params == rows["wg"].total_params
        assert rows["wp"].d_s <= cfg.d_s


class TestLhpTarget:
    def test_no_lhp_at_or_above_the_pruned_dim_is_null(self, tiny_corpus, tmp_path):
        # the curve rises over the whole grid, so its one LHP is dim 1
        curve = latlab.SyntheticCurveSpec(slope_ns=10, period=64)
        flow = SynthesisFlow(tiny_config(tiny_corpus, latency=LatencyConfig(curve=curve)),
                             tmp_path)
        flow.log = lambda *a, **k: None
        report = flow.run()
        assert flow.hmap.lhp_set == [1]
        rows = {r.step: r for r in report.rows}
        assert rows["rcp"].d_s > 1
        assert report.lhp_target is None
        assert (rows["rcg"].d_s, rows["rcg"].d_h) == (rows["rcp"].d_s, rows["rcp"].d_h)
        data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert data["lhp_target"] is None

    def test_an_lhp_past_d_s_is_no_target(self, tiny_corpus, tmp_path):
        # a loaded profile may reach past d_s = 12: its LHPs are 1 and 16, and
        # growth capped at 12 would land on no LHP, so rcg grows nothing
        path = write_profile(tmp_path / "p16.csv", 16, period=16)
        flow = SynthesisFlow(tiny_config(tiny_corpus, profile_path=path), tmp_path)
        flow.log = lambda *a, **k: None
        report = flow.run()
        assert flow.hmap.lhp_set == [1, 16]
        rows = {r.step: r for r in report.rows}
        assert 1 < rows["rcp"].d_s < 12
        assert report.lhp_target is None
        assert (rows["rcg"].d_s, rows["rcg"].d_h) == (rows["rcp"].d_s, rows["rcp"].d_h)
        data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert data["lhp_target"] is None

    def test_a_tied_dim_that_is_an_lhp_is_the_target(self, tiny_corpus, tmp_path):
        # latency falls over the whole grid, so every dim is an LHP
        curve = latlab.SyntheticCurveSpec(slope_ns=-10.0, period=1000)
        flow = SynthesisFlow(tiny_config(tiny_corpus, latency=LatencyConfig(curve=curve)),
                             tmp_path)
        lines = []
        flow.log = lines.append
        report = flow.run()
        assert flow.hmap.lhp_set == list(range(1, 13))
        rows = {r.step: r for r in report.rows}
        tied = max(rows["rcp"].d_s, rows["rcp"].d_h)
        assert report.lhp_target == tied
        assert f"[rcg] tied dim {tied} is already an LHP; no growth" in lines
        assert not [line for line in lines if line.startswith("[rcg] no LHP")]
        assert (rows["rcg"].d_s, rows["rcg"].d_h) == (rows["rcp"].d_s, rows["rcp"].d_h)
        data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert data["lhp_target"] == tied


class TestCompletion:
    @pytest.mark.parametrize("cpu_mode", [False, True])
    def test_final_model_above_threshold_is_incomplete(self, tiny_corpus, tmp_path,
                                                       cpu_mode):
        # every model of this config scores about 9 ppl
        lines = []
        cfg = tiny_config(tiny_corpus, cpu_mode=cpu_mode, growprune=GrowPruneConfig(
            accuracy_threshold=1.5, retrain_patience=1))
        report = run_flow(cfg, tmp_path, log=lines.append)
        steps = ["baseline", "wg", "wp"] if cpu_mode else ["baseline", "wg", "rcp", "rcg", "wp"]
        assert [r.step for r in report.rows] == steps
        assert report.rows[-1].valid_ppl > report.threshold == 1.5
        assert not report.complete
        data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert data["complete"] is False
        assert lines[-1].endswith("above threshold 1.500")


class TestZeroEpochs:
    def test_every_phase_evaluates_once(self, tiny_corpus):
        cfg = tiny_config(tiny_corpus, baseline_epochs=0, wg_epochs=0, growth_epochs=0,
                          rcg_epochs=0)
        report = run_flow(cfg, log=lambda *a, **k: None)
        assert report.complete
        assert [r.step for r in report.rows] == ["baseline", "wg", "rcp", "rcg", "wp"]
        for row in report.rows:
            assert math.isfinite(row.valid_ppl), row.step


class TestValidationPasses:
    def test_one_validation_pass_per_epoch(self, tiny_corpus, monkeypatch):
        """The prune phases start from the score the previous phase reported.
        The counts are this process's: the baseline's epochs and validation
        passes run in its forked child, so they are not counted here."""
        events = []
        evaluate, epoch = synthflow.evaluate, Trainer.epoch

        def counting_evaluate(*args, **kwargs):
            events.append("eval")
            return evaluate(*args, **kwargs)

        def counting_epoch(self, *args, **kwargs):
            events.append("epoch")
            return epoch(self, *args, **kwargs)

        monkeypatch.setattr(synthflow, "evaluate", counting_evaluate)
        monkeypatch.setattr(Trainer, "epoch", counting_epoch)
        report = run_flow(tiny_config(tiny_corpus), log=lambda *a, **k: None)
        assert report.complete
        assert events.count("eval") == events.count("epoch")
        assert events[::2] == ["epoch"] * (len(events) // 2)


class TestDeterminism:
    def test_identical_reports_across_runs(self, tiny_corpus):
        cfg = tiny_config(tiny_corpus, baseline_epochs=2)
        logs = [], []
        r1 = run_flow(cfg, log=logs[0].append)
        r2 = run_flow(copy.deepcopy(cfg), log=logs[1].append)
        assert r1.to_csv() == r2.to_csv()
        assert r1.to_json() == r2.to_json()
        assert logs[0] == logs[1]
        # the baseline's lines, each once, directly after wg's last epoch line
        labels = [line.split("]")[0][1:] for line in logs[0]]
        first = labels.index("baseline")
        assert labels.count("baseline") == 2 and "wg" not in labels[first:]
        assert [line.split(" valid")[0] for line in logs[0][first - 1:first + 2]] == \
            ["[wg] epoch 2/2", "[baseline] epoch 1/2", "[baseline] epoch 2/2"]

    @pytest.mark.parametrize("cpu_mode", [False, True])
    def test_run_writes_what_the_steps_write_with_the_baseline_first(
            self, tiny_corpus, tmp_path, cpu_mode):
        # run() trains the baseline beside wg; trained first and alone, it gives
        # the same reports and checkpoints byte for byte
        cfg = tiny_config(tiny_corpus, cpu_mode=cpu_mode)
        run_flow(cfg, tmp_path / "run", log=lambda *a, **k: None)
        flow = SynthesisFlow(copy.deepcopy(cfg), tmp_path / "steps")
        flow.log = lambda *a, **k: None
        flow.train_baseline()
        steps = [flow.step_weight_growth, flow.step_weight_prune]
        if not cpu_mode:
            steps[1:1] = [flow.step_rc_prune, flow.step_rc_grow]
        for step in steps:
            step()
        flow.report.complete = flow.report.rows[-1].valid_ppl <= flow.report.threshold
        (tmp_path / "steps" / "report.csv").write_text(flow.report.to_csv(), encoding="utf-8")
        (tmp_path / "steps" / "report.json").write_text(flow.report.to_json(),
                                                        encoding="utf-8")
        names = sorted(path.name for path in (tmp_path / "run").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "steps").iterdir())
        assert len(names) == (4 if cpu_mode else 6)
        for name in names:
            assert (tmp_path / "run" / name).read_bytes() == \
                (tmp_path / "steps" / name).read_bytes(), name


def patch_epochs(monkeypatch, in_child=None, in_parent=None):
    """Call in_child() before each Trainer.epoch run in a forked child of this
    process, and in_parent() before each one run in this process."""
    pid, epoch = os.getpid(), Trainer.epoch

    def patched(self, *args, **kwargs):
        action = in_parent if os.getpid() == pid else in_child
        if action is not None:
            action()
        return epoch(self, *args, **kwargs)

    monkeypatch.setattr(Trainer, "epoch", patched)


def raising(exc):
    def action():
        raise exc
    return action


def assert_no_child_process():
    """This process has no child left, running or exited and unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def every_epoch_forks_a_helper(monkeypatch):
    """Trainer.epoch forks its weight-gradient helper even for a tiny model
    (here and in a child forked from this process), on any number of cores."""
    monkeypatch.setattr(GradHelper, "MIN_WORK", 0)
    monkeypatch.setattr(hlstm, "usable_cores", lambda: 2)


def tiny_epoch_case(seed=5):
    """A float32 model with d_s != d_h and a stream of 3 windows at B=32, T=10."""
    model, _, _ = random_model(seed, 9, 4, 10, 7)
    return model, make_rng(seed).integers(0, 9, size=32 * 10 * 3 + 1)


@pytest.mark.usefixtures("every_epoch_forks_a_helper")
class TestHelperProcess:
    """Trainer.epoch forks bptt's weight-gradient helper; however the epoch
    ends, the caller gets its exception within 30 s and no process is left."""

    def run_epoch(self, model, ids):
        t0 = time.monotonic()
        try:
            return Trainer(OptimizerConfig(lr=0.5)).epoch(model, ids, 32, 10)
        finally:
            assert time.monotonic() - t0 < 30
            assert_no_child_process()

    def test_epoch_returns(self):
        forks = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        model, ids = tiny_epoch_case()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "fork", counting_fork)
            assert math.isfinite(self.run_epoch(model, ids))
        assert len(forks) == 1

    def test_non_finite_gradient(self):
        model, ids = tiny_epoch_case()
        model.head.b[0] = np.nan        # NaN logits: every gradient of the window is NaN
        with pytest.raises(NumericAbort, match="^non-finite gradient in layer"):
            self.run_epoch(model, ids)

    def test_window_raises_while_the_helper_sums(self, monkeypatch):
        # after the first chunk went to the helper, in the second window
        steps, cell_backward = [], hlstm.cell_backward

        def failing_backward(bwd, rec, t, *args, **kwargs):
            steps.append(t)
            if len(steps) == 10 + GradHelper.CHUNK + 1:
                raise NumericAbort("stopped mid-window")
            return cell_backward(bwd, rec, t, *args, **kwargs)

        monkeypatch.setattr(hlstm, "cell_backward", failing_backward)
        with pytest.raises(NumericAbort, match="^stopped mid-window$"):
            self.run_epoch(*tiny_epoch_case())

    def test_helper_that_dies(self, monkeypatch):
        # the helper sums its steps through Backward.submit, the parent never does
        parent, submit = os.getpid(), hlstm.Backward.submit

        def dying_in_the_helper(*args):
            if os.getpid() != parent:
                os._exit(5)
            submit(*args)

        monkeypatch.setattr(hlstm.Backward, "submit", dying_in_the_helper)
        with pytest.raises(RuntimeError, match=r"^bptt: its weight-gradient helper process "
                                               r"\d+ exited with code 5$"):
            self.run_epoch(*tiny_epoch_case())

    @pytest.mark.parametrize("kind", ["helper", "baseline"])
    def test_helper_holds_no_inherited_descriptor(self, kind, tiny_corpus, tmp_path,
                                                  monkeypatch):
        # a pipe's write end this process held at the fork: once this process
        # closes it, the read end reaches EOF while the child still runs (an
        # idle helper, or the baseline's child, held in its epoch until stopped)
        if kind == "baseline":
            patch_epochs(monkeypatch, in_child=lambda: time.sleep(60))
            flow = SynthesisFlow(tiny_config(tiny_corpus), tmp_path)
        read_end, write_end = os.pipe()
        try:
            with (GradHelper(tiny_epoch_case()[0].cell, 32, 10) if kind == "helper"
                  else Child(flow._train_dense)) as child:
                os.close(write_end)
                assert select.select([read_end], [], [], 30)[0] == [read_end]
                assert os.read(read_end, 1) == b""
                assert os.waitpid(child.pid, os.WNOHANG) == (0, 0)
        finally:
            os.close(read_end)
        assert_no_child_process()

    def test_small_pass_forks_no_helper(self, monkeypatch):
        monkeypatch.setattr(GradHelper, "MIN_WORK", 10 * 7 * 32 + 1)
        monkeypatch.setattr(os, "fork", raising(AssertionError("forked")))
        model, ids = tiny_epoch_case()
        assert math.isfinite(self.run_epoch(model, ids))

    def test_one_core_forks_no_helper(self, monkeypatch):
        # a process pinned to one core, as by `taskset -c 0`
        monkeypatch.setattr(hlstm, "usable_cores", lambda: 1)
        monkeypatch.setattr(os, "fork", raising(AssertionError("forked")))
        model, ids = tiny_epoch_case()
        assert math.isfinite(self.run_epoch(model, ids))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no sched_getaffinity")
def test_usable_cores_follows_the_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert hlstm.usable_cores() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5})
    assert hlstm.usable_cores() == 2


class TestEpochMatchesCastOracle:
    """A multi-window Trainer.epoch, whose Backward sums bptt's weight
    gradients in-process or in its helper process, reusing its buffers
    across windows, gives byte for byte what an epoch loop over
    oracles.cast_bptt gives (in-process, the cast formulation): NLL,
    weights, biases, the embedding and the grad_sink entries."""

    @staticmethod
    def cast_epoch(model, ids, batch, seq_len, cfg, sums=None):
        total = count = windows = 0
        state = None
        for xs, ys in batch_windows(ids, batch, seq_len):
            logits, rec, state = unroll_forward(model, xs, init=state, train=True)
            total += cast_bptt(model, logits, rec, xs, ys, grad_scale=1.0 / xs.size)[0]
            count += xs.size
            windows += 1
            for k, layer in enumerate(model.masked_layers()):
                if sums is not None:
                    sums[k] += layer.grad_w
                sgd_step(layer, cfg.lr, cfg.weight_decay)
            sgd_update(model.embedding, model.embedding_grad, cfg.lr, cfg.weight_decay)
            model.embedding_grad[...] = 0.0
        return total / count, None if sums is None else [acc / windows for acc in sums]

    @pytest.mark.parametrize("name", ["d_s_ne_d_h", "rc_cut"])
    def test_epoch(self, name, every_epoch_forks_a_helper):
        self.check_epoch(name)

    @pytest.mark.parametrize("name", ["d_s_ne_d_h", "rc_cut"])
    def test_epoch_in_process(self, name, monkeypatch):
        # below GradHelper.MIN_WORK
        monkeypatch.setattr(os, "fork", raising(AssertionError("forked")))
        self.check_epoch(name)

    def check_epoch(self, name):
        if name == "rc_cut":
            model, rng = unread_model(81)
            ids = rng.integers(0, model.vocab_size, size=32 * 12 * 3 + 5)
        else:
            model, _, _ = random_model(82, 11, 6, 16, 13)
            ids = make_rng(83).integers(0, 11, size=32 * 12 * 3 + 5)
        assert model.cell.dtype == np.float32
        ref, cfg = copy.deepcopy(model), OptimizerConfig(lr=0.5)
        sink = [] if name == "rc_cut" else None
        nll = Trainer(cfg).epoch(model, ids, 32, 12, grad_sink=sink)
        want_nll, want_sink = self.cast_epoch(
            ref, ids, 32, 12, cfg, [np.zeros_like(l.w) for l in ref.masked_layers()]
            if sink is not None else None)
        assert np.float64(nll).tobytes() == np.float64(want_nll).tobytes()
        got = [model.embedding] + [getattr(l, attr) for l in model.masked_layers()
                                   for attr in ("w", "b")]
        want = [ref.embedding] + [getattr(l, attr) for l in ref.masked_layers()
                                  for attr in ("w", "b")]
        for a, b in zip(got + (sink or []), want + (want_sink or [])):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert_no_child_process()


@pytest.mark.parametrize("kind", [Backward, GradHelper])
def test_a_backward_refuses_a_recording_of_another_shape(kind):
    model, ids = tiny_epoch_case()
    tokens = ids[:32 * 10].reshape(32, 10)
    with kind(model.cell, 32, 10) as backward:
        for xs in (tokens[:, :9], tokens[:16]):         # another T, another B
            logits, rec, _ = unroll_forward(model, xs, train=True)
            with pytest.raises(ContractViolation, match="do not fit the backward's"):
                bptt(model, logits, rec, xs, xs, backward=backward)
    assert_no_child_process()


@pytest.mark.usefixtures("every_epoch_forks_a_helper")
class TestBaselineProcess:
    """The baseline trains in a child forked by run(); no run leaves it behind,
    or a helper of its epochs or of the flow's, and every way it can end
    reaches the caller."""

    def read_report(self, out):
        return json.loads((out / "report.json").read_text(encoding="utf-8"))

    def test_complete_flow(self, tiny_corpus, tmp_path):
        report = run_flow(tiny_config(tiny_corpus), tmp_path, log=lambda *a, **k: None)
        assert report.complete and report.rows[0].step == "baseline"
        assert_no_child_process()

    def test_numeric_abort_in_the_baseline(self, tiny_corpus, tmp_path, monkeypatch):
        patch_epochs(monkeypatch, in_child=raising(
            NumericAbort("non-finite gradient in layer 'cell0.H'")))
        with pytest.raises(NumericAbort, match="^non-finite gradient in layer 'cell0.H'$"):
            run_flow(tiny_config(tiny_corpus), tmp_path, log=lambda *a, **k: None)
        assert_no_child_process()
        data = self.read_report(tmp_path)    # it surfaced when wg's epochs ended
        assert (data["complete"], data["rows"]) == (False, [])

    def test_wg_failure_stops_the_training_baseline(self, tiny_corpus, tmp_path,
                                                    monkeypatch):
        patch_epochs(monkeypatch, in_child=lambda: time.sleep(60),
                     in_parent=raising(RuntimeError("wg failed")))
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="^wg failed$"):
            run_flow(tiny_config(tiny_corpus), tmp_path, log=lambda *a, **k: None)
        assert time.monotonic() - t0 < 30       # terminated, not awaited
        assert_no_child_process()
        assert self.read_report(tmp_path)["rows"] == []

    def test_terminated_baseline_reaps_its_helper(self, tiny_corpus, tmp_path, monkeypatch):
        # the flow fails while the child is inside an epoch whose helper is alive
        noted, parent, real_bptt = tmp_path / "helper_pid", os.getpid(), synthflow.bptt

        def bptt_in_child(*args, backward, **kwargs):
            if os.getpid() != parent:
                (tmp_path / "pid.tmp").write_text(str(backward.pid), encoding="utf-8")
                os.replace(tmp_path / "pid.tmp", noted)
                time.sleep(60)
            return real_bptt(*args, backward=backward, **kwargs)

        def fail_once_the_helper_runs():
            deadline = time.monotonic() + 30
            while not noted.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RuntimeError("wg failed")

        monkeypatch.setattr(synthflow, "bptt", bptt_in_child)
        patch_epochs(monkeypatch, in_parent=fail_once_the_helper_runs)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="^wg failed$"):
            run_flow(tiny_config(tiny_corpus), tmp_path / "out", log=lambda *a, **k: None)
        assert time.monotonic() - t0 < 30
        # reaped by the child before it exited: not even a zombie is left
        with pytest.raises(ProcessLookupError):
            os.kill(int(noted.read_text(encoding="utf-8")), 0)
        assert_no_child_process()

    @pytest.mark.parametrize("via_run", [True, False])
    def test_a_child_that_dies_without_a_reply(self, tiny_corpus, tmp_path, monkeypatch,
                                               via_run):
        patch_epochs(monkeypatch, in_child=lambda: os._exit(3))
        flow = SynthesisFlow(tiny_config(tiny_corpus), tmp_path)
        flow.log = lambda *a, **k: None
        with pytest.raises(RuntimeError, match="^baseline: its training process exited "
                                               "with code 3 and sent no model$"):
            flow.run() if via_run else flow.train_baseline()
        assert_no_child_process()

    def test_fork_with_a_running_blas_thread_pool(self, tiny_corpus, tmp_path):
        # two BLAS threads, busy with a GEMM before the flow forks: the child
        # must not hang on a lock a pool thread held at the fork. Nor may a
        # weight-gradient helper, forked by an epoch at d = 128 and B = 32
        # (above GradHelper.MIN_WORK, as no monkeypatch reaches the subprocess)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus_path": tiny_corpus, "d_x": 4, "d_s": 12, "d_h": 12,
            "baseline_epochs": 1, "wg_epochs": 1, "growth_epochs": 1, "rcg_epochs": 1,
            "batch": 8, "seq_len": 16, "profile_grid": [1, 12, 1], "max_prune_iters": 2,
            "growprune": {"accuracy_threshold": 1e9, "retrain_patience": 1},
            "latency": {"curve": {"period": 4}}}), encoding="utf-8")
        code = ("import sys, numpy as np\n"
                "a = np.ones((512, 512), np.float32)\n"
                "assert (a @ a)[0, 0] == 512\n"
                "from hwsynth.hlstm import GradHelper, LMModel\n"
                "from hwsynth.numkit import make_rng\n"
                "from hwsynth.synthflow import OptimizerConfig, Trainer\n"
                "model = LMModel.create(9, 4, 128, 128, make_rng(0))\n"
                "assert GradHelper.MIN_WORK <= 128 * 128 * 32\n"
                "ids = make_rng(1).integers(0, 9, size=32 * 16 * 2 + 1)\n"
                "print('epoch nll', Trainer(OptimizerConfig()).epoch(model, ids, 32, 16))\n"
                "from hwsynth.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(synthflow.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code, "synthesize", "--config", str(cfg),
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "epoch nll " in proc.stdout
        assert "[baseline] epoch 1/1" in proc.stdout
        assert self.read_report(tmp_path / "out")["complete"] is True


@pytest.mark.usefixtures("every_epoch_forks_a_helper")
@pytest.mark.parametrize("kind", ["baseline", "helper"])
def test_a_child_ignores_sigint(kind, tiny_corpus, tmp_path, monkeypatch):
    # a terminal's Ctrl-C signals every process of its group; the parent acts
    # on it, and a child works on until the parent stops it
    def interrupt(pid):
        os.kill(pid, signal.SIGINT)
        time.sleep(0.2)             # delivered before the child works on

    if kind == "baseline":          # sent while the child trains
        ready = tmp_path / "ready"
        patch_epochs(monkeypatch, in_child=lambda: (ready.touch(), time.sleep(0.5)))
        flow = SynthesisFlow(tiny_config(tiny_corpus), tmp_path)
        flow.log = lambda *a, **k: None
        flow._baseline = Child(flow._train_dense)      # as run() forks it
        deadline = time.monotonic() + 30
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        interrupt(flow._baseline.pid)
        assert math.isfinite(flow.train_baseline())
    else:                           # sent once the helper has summed a window
        calls, real_bptt = [], synthflow.bptt

        def interrupting_bptt(*args, backward, **kwargs):
            calls.append(backward.pid)
            if len(calls) == 2:
                interrupt(backward.pid)
            return real_bptt(*args, backward=backward, **kwargs)

        monkeypatch.setattr(synthflow, "bptt", interrupting_bptt)
        model, ids = tiny_epoch_case()
        assert math.isfinite(Trainer(OptimizerConfig(lr=0.5)).epoch(model, ids, 32, 10))
        assert len(calls) == 3
    assert_no_child_process()


class TestPartialReport:
    def test_failure_still_writes_partial_report(self, tiny_corpus, tmp_path,
                                                 monkeypatch):
        def fail(*_args):
            raise RuntimeError("LHP analysis failed")
        monkeypatch.setattr(latlab, "nearest_lhp", fail)
        with pytest.raises(RuntimeError, match="LHP"):
            run_flow(tiny_config(tiny_corpus), tmp_path, log=lambda *a, **k: None)
        data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert data["complete"] is False
        steps = [r["step"] for r in data["rows"]]
        assert steps == ["baseline", "wg", "rcp"]  # died entering rcg

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")     # the diverging run overflows
    def test_failure_before_the_baseline_writes_strict_json(self, tiny_corpus, tmp_path):
        # no threshold yet: null, not the Infinity a strict parser refuses
        cfg = tiny_config(tiny_corpus, optimizer=OptimizerConfig(lr=1e30))
        with pytest.raises(NumericAbort):
            run_flow(cfg, tmp_path, log=lambda *a, **k: None)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"),
                          parse_constant=refuse)
        assert (data["complete"], data["threshold"], data["rows"]) == (False, None, [])


# --- the prune loop's revert paths, with scripted retrain scores ---------------

def scripted_flow(tiny_corpus, ppls, iters=10, **gp):
    """A tiny flow after wg whose `_fit` trains nothing: it records a copy
    of the model it is handed and returns the next of `ppls`. The accuracy
    threshold is 10, so 5 passes and 20 violates."""
    cfg = tiny_config(tiny_corpus, max_prune_iters=iters, growprune=GrowPruneConfig(
        accuracy_threshold=10.0, retrain_patience=1, **gp))
    flow = SynthesisFlow(cfg)
    flow.log = lambda *a, **k: None
    flow.train_baseline()
    flow.step_weight_growth()
    seen = []
    scores = iter(ppls)

    def fit(label, model, trainer, epochs, growth_epochs=0):
        seen.append(copy.deepcopy(model))
        return next(scores)

    flow._fit = fit
    return flow, seen


def assert_same_params(a, b):
    assert np.array_equal(a.embedding, b.embedding)
    for la, lb in zip(a.masked_layers(), b.masked_layers()):
        for attr in ("w", "mask", "b"):
            assert np.array_equal(getattr(la, attr), getattr(lb, attr)), la.name


def count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestPruneLoopPaths:
    def test_halved_restores_the_snapshot_and_halves_the_ratios(self, tiny_corpus):
        flow, seen = scripted_flow(tiny_corpus, [20.0], iters=1, p_r=0.4, p_c=0.3)
        t = flow.trainer
        before, at_snapshot = copy.deepcopy(flow.model), (t.lr, t.best_valid, t.stale)
        flow.step_rc_prune()
        assert len(seen) == 1
        assert all(a < b for a, b in zip(seen[0].cell.active_dims(),
                                         before.cell.active_dims()))
        assert_same_params(flow.model, before)
        assert (t.lr, t.best_valid, t.stale) == at_snapshot
        assert (flow.gp.p_r, flow.gp.p_c) == (0.2, 0.15)

    def test_single_mode_prunes_one_unit_of_each_kind(self, tiny_corpus):
        # 0.5 halves to 0.25, below the 0.3 floor: single-unit mode
        flow, seen = scripted_flow(tiny_corpus, [20.0, 5.0, 5.0], iters=3, p_r=0.5,
                                   p_c=0.5, halving_floor=0.3)
        n_s, n_h = flow.model.cell.active_dims()
        flow.step_rc_prune()
        dims = [m.cell.active_dims() for m in seen]
        assert dims[0][0] < n_s - 1 and dims[0][1] < n_h - 1
        assert dims[1:] == [(n_s - 1, n_h - 1), (n_s - 2, n_h - 2)]
        assert (flow.gp.p_r, flow.gp.p_c) == (0.25, 0.25)
        assert flow.model.cell.active_dims() == (n_s - 2, n_h - 2)

    def test_stop_ends_on_the_last_passing_model(self, tiny_corpus, monkeypatch):
        # kept, SINGLE_MODE (reverted), kept single-unit prune, STOP (reverted)
        flow, seen = scripted_flow(tiny_corpus, [5.0, 20.0, 5.0, 20.0], p_r=0.5,
                                   p_c=0.5, halving_floor=0.3)
        prunes = count_calls(monkeypatch, growprune, "coordinated_rc_prune_counts")
        flow.step_rc_prune()
        assert len(seen) == 4 and len(prunes) == 4   # of 10 allowed iterations
        assert_same_params(flow.model, seen[2])
        assert flow.report.rows[-1].valid_ppl == 5.0

    def test_degenerate_prune_restores_and_ends_the_phase(self, tiny_corpus):
        flow, seen = scripted_flow(tiny_corpus, [])
        before = copy.deepcopy(flow.model)
        attempts = []

        def prune_once(_gp, single_mode):
            attempts.append(single_mode)
            for layer in flow.model.masked_layers():
                layer.w[...] = 0.0        # a half-done prune, then the refusal
            raise growprune.DegenerateLayerError("refused")

        ppl = flow._prune_loop("rcp", prune_once, growprune.halve_on_violation)
        assert attempts == [False] and seen == []
        assert_same_params(flow.model, before)
        assert ppl == flow.report.rows[-1].valid_ppl

    def test_degenerate_after_kept_prunes_keeps_the_last(self, tiny_corpus, monkeypatch):
        # every prune passes, so only a refused prune (every unit left
        # asked for) ends the phase early; the model pruned last stays
        flow, seen = scripted_flow(tiny_corpus, [5.0] * 10, p_r=0.6, p_c=0.6)
        prunes = count_calls(monkeypatch, growprune, "coordinated_rc_prune_counts")
        flow.step_rc_prune()
        assert 1 <= len(seen) < 10 and len(prunes) == len(seen) + 1
        assert_same_params(flow.model, seen[-1])

    def test_prune_that_removes_nothing_ends_the_phase(self, tiny_corpus, monkeypatch):
        flow, seen = scripted_flow(tiny_corpus, [], p_w=0.0)
        prunes = count_calls(monkeypatch, growprune, "weight_prune")
        before = copy.deepcopy(flow.model)
        flow.step_weight_prune()
        assert seen == []
        assert len(prunes) == len(flow.model.masked_layers())
        assert_same_params(flow.model, before)
        assert flow.report.rows[-1].valid_ppl == flow.report.rows[-2].valid_ppl
        assert flow.state.phase == "done"


# --- a real-mode flow: the rcg target comes from a native matmul sweep --------

class TestRealModeFlow:
    def test_failing_sweep_stops_before_training(self, tiny_corpus, tmp_path,
                                                 monkeypatch):
        def broken(self, dim, batch, warmup_runs, measured_runs):
            raise RuntimeError("no kernel")
        monkeypatch.setattr(latlab.NativeBackend, "measure", broken)
        epochs = count_calls(monkeypatch, Trainer, "epoch")
        cfg = tiny_config(tiny_corpus, latency=LatencyConfig(
            mode="real", measure_batch=2, measure_seq=4, runs=5))
        with pytest.raises(latlab.MeasurementError, match="dim 1"):
            run_flow(cfg, tmp_path, log=lambda *a, **k: None)
        assert epochs == []
        assert not (tmp_path / "report.csv").exists()
        assert not (tmp_path / "report.json").exists()

    def test_completes_and_rcg_follows_the_swept_lhp(self, tiny_corpus, monkeypatch):
        tasks = count_calls(monkeypatch, latlab.NativeBackend, "measure")
        cfg = tiny_config(tiny_corpus, d_s=8, d_h=8, profile_grid=(1, 8, 1),
                          latency=LatencyConfig(mode="real", measure_batch=2,
                                                measure_seq=4, runs=5))
        report = run_flow(cfg, log=lambda *a, **k: None)
        assert report.complete
        assert [r.step for r in report.rows] == ["baseline", "wg", "rcp", "rcg", "wp"]
        assert len(tasks) == 8                  # one sweep point per grid dim
        rows = {r.step: r for r in report.rows}
        tied = max(rows["rcp"].d_s, rows["rcp"].d_h)
        target = report.lhp_target
        assert target is None or tied <= target <= cfg.d_s
        if target is not None and target > tied:
            assert (rows["rcg"].d_s, rows["rcg"].d_h) == (target,) * 2
        else:
            assert (rows["rcg"].d_s, rows["rcg"].d_h) == (rows["rcp"].d_s, rows["rcp"].d_h)
        assert all(r.latency_median_ns > 0 for r in report.rows)
