import copy
import json
import math
import os

import numpy as np
import pytest

from hwsynth import latlab, synthflow
from hwsynth.growprune import GrowPruneConfig, weight_grow, weight_prune
from hwsynth.hlstm import GATES, LMModel, unroll_forward
from hwsynth.numkit import ARRAYS, ContractViolation, make_rng
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


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    rng = np.random.default_rng(7)
    text = "".join(rng.choice(list("abcdefgh "), size=3000))
    path = tmp_path_factory.mktemp("corpus") / "tiny.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_profile(path, top):
    """A profile CSV of a period-4 synthetic curve over dims 1..top (no rows for 0)."""
    curve = latlab.SyntheticCurveSpec(period=4)
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

    @pytest.mark.parametrize("grid", [(0, 12, 1), (1, 12, 0), (5, 4, 1), (1, 12)])
    def test_malformed_profile_grid_rejected(self, grid):
        with pytest.raises(ConfigError, match="profile_grid"):
            FlowConfig(d_s=12, d_h=12, profile_grid=grid)

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

    @pytest.mark.parametrize("top", [0, 11])
    def test_loaded_profile_must_reach_d_s(self, tiny_corpus, tmp_path, top):
        # no rows, or a largest dim below d_s = 12: refused before any training
        path = write_profile(tmp_path / "short.csv", top)
        with pytest.raises(ConfigError, match="short.csv"):
            SynthesisFlow(tiny_config(tiny_corpus, profile_path=path))
        SynthesisFlow(tiny_config(tiny_corpus, profile_path=path, cpu_mode=True))

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
        assert report.lhp_target == target.dim
        if target.found and target.dim > tied:
            assert rows["rcg"].d_s == target.dim
            assert rows["rcg"].d_h == target.dim

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
        _, _, out = flow_result
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        for tag in ("wg", "rcp", "rcg", "wp"):
            assert (out / f"checkpoint_{tag}.npz").exists()
        assert (out / "masks" / "wp_manifest.json").exists()
        data = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert data["complete"] is True

    def test_final_checkpoint_masks_consistent(self, flow_result):
        _, _, out = flow_result
        model, meta = checkpoint_load(out / "checkpoint_wp.npz")
        assert meta["phase"] == "wp"
        for layer in model.masked_layers():
            assert np.all(layer.w[layer.mask == 0.0] == 0.0)

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


class TestZeroEpochs:
    def test_every_phase_evaluates_once(self, tiny_corpus):
        cfg = tiny_config(tiny_corpus, baseline_epochs=0, wg_epochs=0, rcg_epochs=0)
        report = run_flow(cfg, log=lambda *a, **k: None)
        assert report.complete
        assert [r.step for r in report.rows] == ["baseline", "wg", "rcp", "rcg", "wp"]
        for row in report.rows:
            assert math.isfinite(row.valid_ppl), row.step


class TestValidationPasses:
    def test_one_validation_pass_per_epoch(self, tiny_corpus, monkeypatch):
        # the prune phases start from the score the previous phase reported
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
        cfg1 = tiny_config(tiny_corpus)
        cfg2 = tiny_config(tiny_corpus)
        r1 = run_flow(cfg1, log=lambda *a, **k: None)
        r2 = run_flow(cfg2, log=lambda *a, **k: None)
        assert r1.to_csv() == r2.to_csv()
        assert r1.to_json() == r2.to_json()


class TestPartialReport:
    def test_failure_still_writes_partial_report(self, tiny_corpus, tmp_path,
                                                 monkeypatch):
        def fail(_profile):
            raise RuntimeError("LHP analysis failed")
        monkeypatch.setattr(latlab, "detect_lhps", fail)
        with pytest.raises(RuntimeError, match="LHP"):
            run_flow(tiny_config(tiny_corpus), tmp_path, log=lambda *a, **k: None)
        data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert data["complete"] is False
        steps = [r["step"] for r in data["rows"]]
        assert steps == ["baseline", "wg", "rcp"]  # died entering rcg
