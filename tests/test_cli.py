import json
import os
import re

import numpy as np
import pytest

from hwsynth import latlab, synthflow
from hwsynth.cli import main
from hwsynth.corpus import load_corpus
from hwsynth.hlstm import evaluate, freeze, perplexity
from hwsynth.synthflow import checkpoint_load, checkpoint_save
from oracles import with_dtype


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def curve_file(workdir):
    path = workdir / "curve.json"
    path.write_text('{"period": 4}', encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    rng = np.random.default_rng(7)
    text = "".join(rng.choice(list("abcdefgh "), size=3000))
    path = tmp_path_factory.mktemp("corpus") / "tiny.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def flow_config(workdir, tiny_corpus):
    path = workdir / "flow.json"
    path.write_text(json.dumps({
        "version": 1,
        "corpus_path": tiny_corpus,
        "d_x": 4, "d_s": 12, "d_h": 12,
        "growprune": {"accuracy_threshold": 1e9, "retrain_patience": 1},
        "optimizer": {"lr": 0.5},
        "baseline_epochs": 1, "wg_epochs": 1, "growth_epochs": 1,
        "rcg_epochs": 1, "batch": 8, "seq_len": 16,
        "profile_grid": [1, 12, 1],
        "latency": {"mode": "virtual", "curve": {"period": 4}},
        "max_prune_iters": 2,
    }), encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_bad_grid_is_usage_error(self, workdir, capsys):
        rc = main(["profile", "--grid", "10:2:1", "--out",
                   str(workdir / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_grid(self, workdir):
        assert main(["profile", "--grid", "banana", "--out",
                     str(workdir / "x.csv")]) == 2

    def test_unknown_backend(self, workdir):
        assert main(["profile", "--grid", "1:4:1", "--backend", "fpga",
                     "--out", str(workdir / "x.csv")]) == 2

    def test_missing_profile_is_runtime_failure(self, workdir, capsys):
        rc = main(["analyze", "--profile", str(workdir / "nope.csv"),
                   "--out", str(workdir / "h.json")])
        assert rc == 1
        assert "failure:" in capsys.readouterr().err

    def test_malformed_profile_is_usage_error(self, workdir, capsys):
        # rows that disagree on batch: the profile has no one batch to load
        mixed = workdir / "mixed_batch.csv"
        mixed.write_text(",".join(latlab.CSV_HEADER) + "\n1,8,1.0,1.0,1.0,5\n"
                         "2,16,1.0,1.0,1.0,5\n", encoding="utf-8")
        assert main(["analyze", "--profile", str(mixed),
                     "--out", str(workdir / "mixed.json")]) == 2
        assert "mixed_batch.csv:3: batch 16" in capsys.readouterr().err
        assert not (workdir / "mixed.json").exists()

    def test_profile_from_two_hosts_is_usage_error(self, workdir, capsys):
        hosts = workdir / "two_hosts.csv"
        hosts.write_text(",".join(latlab.CSV_HEADER) + "\n1,8,1.0,1.0,1.0,5,host-a\n"
                         "2,8,1.0,1.0,1.0,5,host-b\n", encoding="utf-8")
        assert main(["analyze", "--profile", str(hosts),
                     "--out", str(workdir / "hosts.json")]) == 2
        assert "two_hosts.csv:3: hardware_id 'host-b'" in capsys.readouterr().err
        assert not (workdir / "hosts.json").exists()

    def test_nan_profile_is_usage_error(self, workdir, capsys):
        # no NaN median is a prefix minimum, so analysis would find no LHP
        nan = workdir / "nan.csv"
        nan.write_text("dim,batch,mean_ns,median_ns,p95_ns,runs\n"
                       + "".join(f"{d},8,nan,nan,nan,5\n" for d in (1, 2)), encoding="utf-8")
        assert main(["analyze", "--profile", str(nan),
                     "--out", str(workdir / "nan.json")]) == 2
        assert "nan.csv:2: mean_ns nan" in capsys.readouterr().err
        assert not (workdir / "nan.json").exists()

    def test_nan_profile_fails_before_training(self, workdir, flow_config, capsys):
        nan = workdir / "nan_flow.csv"
        nan.write_text("dim,batch,mean_ns,median_ns,p95_ns,runs\n"
                       + "".join(f"{d},16,1.0,{'nan' if d == 5 else 1.0},1.0,5\n"
                                 for d in range(1, 13)), encoding="utf-8")
        out = workdir / "nan_profile_out"
        assert main(["synthesize", "--config", flow_config, "--profile", str(nan),
                     "--out", str(out)]) == 2
        assert "nan_flow.csv:6: median_ns nan" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_bad_config_json(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["synthesize", "--config", str(bad),
                     "--out", str(workdir / "o")]) == 2

    @pytest.mark.parametrize("text,key", [("[1, 2]", "flow config"),
                                          ('{"latency": null}', "latency of flow config"),
                                          ('{"latency": {"curve": [4]}}', "latency.curve")])
    def test_config_section_not_an_object(self, workdir, text, key, capsys):
        bad = workdir / "not_an_object.json"
        bad.write_text(text, encoding="utf-8")
        out = workdir / "not_an_object_out"
        assert main(["synthesize", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{key} " in err and "not_an_object.json is not a JSON object" in err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        {"depth": 2}, {"profile_grid": [1, 8, 1]},
        {"latency": {"mode": "Virtual", "curve": {"period": 4}}},
        {"latency": {"mode": "virtual", "runs": 0, "curve": {"period": 4}}},
        {"d_s": 0, "d_h": 0}, {"d_x": 0}, {"d_s": -2},
        {"latency": {"mode": "virtual", "runs": 4, "curve": {"period": 4}}},
        {"latency": {"mode": "virtual", "curve": {"period": 0}}},
        {"latency": {"mode": "virtual", "curve": {"period": -16}}},
        {"growprune": {"accuracy_threshold": 1e9, "retrain_patience": -1}},
        {"max_prune_iters": -3},
        {"optimizer": {"lr": 0.5, "weight_decay": -5.0}},
        {"optimizer": {"lr": 0.5, "lr_decay": -1.0}},
        # the optimizer has no hidden-layer dropout, not even at the old default 0
        {"optimizer": {"lr": 0.5, "dropout_h": 0.0}},
        {"optimizer": {"lr": 0.5, "momentum": 0.9}},
        {"optimizer": {"lr": -1.0}},
        # 2 growth epochs in a 1-epoch wg used to grow once, silently
        {"wg_epochs": 1, "growth_epochs": 2}])
    def test_bad_flow_config_fails_before_training(self, workdir, flow_config,
                                                   override, capsys):
        data = json.loads(open(flow_config, encoding="utf-8").read())
        data.update(override)
        bad = workdir / "bad_flow.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        out = workdir / "bad_flow_out"
        assert main(["synthesize", "--config", str(bad), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_dropout_config_fails_before_training(self, workdir, flow_config, monkeypatch,
                                                  capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("a config naming dropout_h reached training")
        monkeypatch.setattr(synthflow.Trainer, "epoch", no_training)
        data = json.loads(open(flow_config, encoding="utf-8").read())
        data["optimizer"]["dropout_h"] = 0.1
        bad = workdir / "dropout_flow.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        out = workdir / "dropout_flow_out"
        assert main(["synthesize", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dropout_h" in err
        assert not out.exists()

    # each used to pass the config check: a negative seed failed after the
    # baseline had trained (exit 1), a NaN curve in detect_lhps, a negative
    # noise mid-sweep, a fractional seed after the sweep and the corpus load
    # (exit 1), and a fractional batch or a bool seed ran
    @pytest.mark.parametrize("field,value", [
        ("seed", -1), ("seed", 1.5), ("seed", True), ("batch", 2.5), ("latency.runs", 9.5),
        ("latency.curve.base_ns", float("nan")),
        ("latency.curve.slope_ns", float("inf")), ("latency.curve.jump_ns", float("nan")),
        ("latency.curve.noise_ns", float("nan")), ("latency.curve.noise_ns", -5.0)])
    def test_bad_value_fails_before_training_naming_its_field(
            self, workdir, flow_config, monkeypatch, field, value, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("a bad config reached the sweep or training")
        monkeypatch.setattr(synthflow.Trainer, "epoch", no_work)
        monkeypatch.setattr(latlab, "sweep", no_work)
        data = json.loads(open(flow_config, encoding="utf-8").read())
        *parents, key = field.split(".")
        section = data
        for parent in parents:
            section = section[parent]
        section[key] = value
        bad = workdir / "bad_value_flow.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        out = workdir / "bad_value_flow_out"
        assert main(["synthesize", "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert not out.exists()

    # a fractional entry used to fail with range()'s TypeError, which does not name
    # the field, and a bool one ran, as the dim 1
    @pytest.mark.parametrize("entry", [12.5, True])
    def test_non_integer_profile_grid_entry_fails_naming_it(self, workdir, flow_config,
                                                             entry, capsys):
        data = json.loads(open(flow_config, encoding="utf-8").read())
        data.update(d_s=1, d_h=1, profile_grid=[1, entry, 1])
        bad = workdir / "bad_grid_flow.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        out = workdir / "bad_grid_flow_out"
        assert main(["synthesize", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: profile_grid[1] must be an integer, got {entry!r}")
        assert not out.exists()

    # retrain_patience=1.5 used to fail after training, curve.seed=1.5 at the
    # sweep; lr_patience=0.5 and period=2.5 or true ran
    @pytest.mark.parametrize("key, value", [
        ("growprune.retrain_patience", 1.5), ("optimizer.lr_patience", 0.5),
        ("latency.curve.period", 2.5), ("latency.curve.period", True),
        ("latency.curve.seed", 1.5)])
    def test_non_integer_nested_field_fails_naming_it(self, workdir, flow_config, key,
                                                      value, capsys):
        data = json.loads(open(flow_config, encoding="utf-8").read())
        *sections, name = key.split(".")
        section = data
        for part in sections:
            section = section.setdefault(part, {})
        section[name] = value
        bad = workdir / "bad_nested_flow.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        out = workdir / "bad_nested_flow_out"
        assert main(["synthesize", "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {key} must be an integer, got {value!r}")
        assert not out.exists()

    def test_flow_above_its_threshold_exits_1(self, workdir, flow_config, capsys):
        # every model of this config scores about 9 ppl
        data = json.loads(open(flow_config, encoding="utf-8").read())
        data["growprune"]["accuracy_threshold"] = 1.5
        cfg = workdir / "strict_flow.json"
        cfg.write_text(json.dumps(data), encoding="utf-8")
        out = workdir / "strict_flow_out"
        assert main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 1
        assert "flow INCOMPLETE" in capsys.readouterr().out
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["complete"] is False

    def test_short_profile_fails_before_training(self, workdir, flow_config, capsys):
        # the flow's d_s is 12; this profile stops at 8
        short = workdir / "short.csv"
        short.write_text("dim,batch,mean_ns,median_ns,p95_ns,runs\n"
                         + "".join(f"{d},16,1.0,1.0,1.0,5\n" for d in range(1, 9)),
                         encoding="utf-8")
        out = workdir / "short_profile_out"
        assert main(["synthesize", "--config", flow_config, "--profile", str(short),
                     "--out", str(out)]) == 2
        assert "short.csv" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestProfileAnalyzePipeline:
    def test_profile_then_analyze(self, workdir, curve_file, capsys):
        csv_path = workdir / "prof.csv"
        rc = main(["profile", "--grid", "1:12:1", "--runs", "5",
                   "--backend", f"synthetic:{curve_file}",
                   "--out", str(csv_path)])
        assert rc == 0
        assert "12-point profile" in capsys.readouterr().out

        report_path = workdir / "hyst.json"
        svg_path = workdir / "prof.svg"
        rc = main(["analyze", "--profile", str(csv_path),
                   "--out", str(report_path), "--svg", str(svg_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 LHPs over 12 grid points" in out  # {1, 4, 8, 12}
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert data["lhp_set"] == [1, 4, 8, 12]
        assert svg_path.read_text(encoding="utf-8").startswith("<svg ")


    def test_analyze_report_names_the_host(self, workdir, curve_file, capsys):
        csv_path = workdir / "host_prof.csv"
        assert main(["profile", "--grid", "1:8:1", "--runs", "5",
                     "--backend", f"synthetic:{curve_file}", "--out", str(csv_path)]) == 0
        report_path = workdir / "host_hyst.json"
        assert main(["analyze", "--profile", str(csv_path), "--out", str(report_path)]) == 0
        capsys.readouterr()
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert data["hardware_id"] == os.uname().nodename != ""


class TestAtomicWrites:
    @pytest.mark.parametrize("target", ["prof.csv", "hyst.json", "prof.svg"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, curve_file, target,
                                                  monkeypatch, capsys):
        def profile(grid, out):
            return ["profile", "--grid", grid, "--runs", "5",
                    "--backend", f"synthetic:{curve_file}", "--out", str(tmp_path / out)]

        def analyze(prof):
            return ["analyze", "--profile", str(tmp_path / prof), "--out",
                    str(tmp_path / "hyst.json"), "--svg", str(tmp_path / "prof.svg")]

        for argv in (profile("1:12:1", "prof.csv"), profile("1:6:1", "prof6.csv"),
                     analyze("prof.csv")):
            assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == target:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        # rewrite the target from the 6-point profile, so a write that landed would show
        argv = profile("1:6:1", "prof.csv") if target == "prof.csv" else analyze("prof6.csv")
        assert main(argv) == 1
        assert "disk full" in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(after) == sorted(before)        # no temp file left behind
        assert after[target] == before[target]


@pytest.fixture(scope="module")
def flow_out(workdir, flow_config):
    out = workdir / "flow"
    rc = main(["synthesize", "--config", flow_config, "--out", str(out)])
    assert rc == 0
    return out


class TestSynthesizeEvalReportBench:
    def test_synthesize_outputs(self, flow_out, capsys):
        assert (flow_out / "report.csv").exists()
        data = json.loads((flow_out / "report.json").read_text(encoding="utf-8"))
        assert data["complete"] is True
        capsys.readouterr()

    def test_report_command_prints_rows(self, flow_out, capsys):
        assert main(["report", "--flow", str(flow_out)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("step")
        assert "baseline" in out and "wp" in out
        assert "WARNING" not in out

    def test_report_missing_flow_dir(self, workdir, capsys):
        assert main(["report", "--flow", str(workdir / "ghost")]) == 2
        capsys.readouterr()

    def test_eval_checkpoint(self, flow_out, tiny_corpus, capsys):
        path = flow_out / "checkpoint_wp.npz"
        rc = main(["eval", "--checkpoint", str(path), "--corpus", tiny_corpus])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase=wp" in out
        assert "valid_perplexity=" in out
        # the test split, scored as the valid one: the flow's splits and window
        model, meta = checkpoint_load(path)
        test = load_corpus(tiny_corpus, meta["train_frac"], meta["valid_frac"]).test
        want = perplexity(evaluate(model, test, seq_len=meta["seq_len"],
                                   batch=synthflow.VALID_BATCH))
        assert f" test_perplexity={want!r}" in out

    def test_eval_of_a_float64_checkpoint(self, flow_out, tiny_corpus, tmp_path, capsys):
        """Checkpoints written before models ran in float32 hold float64
        arrays. checkpoint_save writes a model's arrays as they are, so a
        float64 model saves to the file such a run wrote. It loads in
        float64, and `hwsynth eval` scores the NLL of the model it came from."""
        model, meta = checkpoint_load(flow_out / "checkpoint_wp.npz")
        old = with_dtype(model, np.float64)
        path = tmp_path / "float64.npz"
        checkpoint_save(old, meta, path)
        data = np.load(path)
        assert {data[k].dtype for k in data.files} == {
            np.dtype(np.float64), np.dtype(np.uint8)}     # masks and meta are uint8
        loaded, _ = checkpoint_load(path)
        assert loaded.embedding.dtype == loaded.cell.dtype == loaded.head.w.dtype == np.float64
        valid = load_corpus(tiny_corpus, meta["train_frac"], meta["valid_frac"]).valid
        nll = evaluate(old, valid, seq_len=meta["seq_len"], batch=synthflow.VALID_BATCH)
        assert evaluate(loaded, valid, seq_len=meta["seq_len"],
                        batch=synthflow.VALID_BATCH) == nll
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--corpus", tiny_corpus]) == 0
        assert f"valid_perplexity={perplexity(nll)!r}" in capsys.readouterr().out

    def test_eval_of_a_test_split_shorter_than_a_window(self, flow_out, tiny_corpus,
                                                         tmp_path, capsys):
        model, meta = checkpoint_load(flow_out / "checkpoint_wp.npz")
        short = tmp_path / "short_test.npz"
        # 3000 characters leave a 30-token test split, under one 4 x 16 window
        checkpoint_save(model, dict(meta, train_frac=0.5, valid_frac=0.49), short)
        assert main(["eval", "--checkpoint", str(short), "--corpus", tiny_corpus]) == 0
        out = capsys.readouterr().out
        assert "valid_perplexity=" in out and out.rstrip().endswith(" test_perplexity=none")

    def test_eval_scores_each_checkpoint_as_the_flow_did(self, workdir, flow_config,
                                                         capsys):
        # seq_len 16 and a 0.7 train split, neither of them eval's fallback
        data = json.loads(open(flow_config, encoding="utf-8").read())
        data["train_frac"] = 0.7
        config = workdir / "split_flow.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        out = workdir / "split_flow"
        assert main(["synthesize", "--config", str(config), "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"]
        capsys.readouterr()
        for row in rows[1:]:
            assert main(["eval", "--checkpoint", str(out / f"checkpoint_{row['step']}.npz"),
                         "--corpus", data["corpus_path"]]) == 0
            got = re.search(r"valid_perplexity=(\S+)", capsys.readouterr().out)[1]
            assert float(got) == row["valid_ppl"], row["step"]

    def test_eval_of_a_checkpoint_without_split_meta(self, flow_out, tiny_corpus,
                                                     tmp_path, capsys):
        model, _ = checkpoint_load(flow_out / "checkpoint_wp.npz")
        old = tmp_path / "old.npz"
        checkpoint_save(model, {"phase": "wp", "seed": 0}, old)
        assert main(["eval", "--checkpoint", str(old), "--corpus", tiny_corpus]) == 0
        want = perplexity(evaluate(model, load_corpus(tiny_corpus, 0.8, 0.1).valid,
                                   seq_len=64, batch=4))
        assert f"valid_perplexity={want!r}" in capsys.readouterr().out

    def test_eval_ignores_an_old_dropout_key(self, flow_out, tiny_corpus, tmp_path, capsys):
        # checkpoints of models that had a dropout_h field carry it in their meta
        path = flow_out / "checkpoint_wp.npz"
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        assert "dropout_h" not in meta
        data["meta_json"] = np.frombuffer(json.dumps(dict(meta, dropout_h=0.0)).encode("utf-8"),
                                          dtype=np.uint8)
        old = tmp_path / "dropout_key.npz"
        with open(old, "wb") as fh:
            np.savez(fh, **data)
        scores = []
        for checkpoint in (path, old):
            assert main(["eval", "--checkpoint", str(checkpoint), "--corpus", tiny_corpus]) == 0
            scores.append(re.findall(r"(?:valid|test)_perplexity=\S+", capsys.readouterr().out))
        assert len(scores[0]) == 2 and scores[0] == scores[1]

    def test_eval_vocab_mismatch(self, flow_out, tmp_path, capsys):
        other = tmp_path / "other.txt"
        other.write_text("ab" * 200, encoding="utf-8")
        rc = main(["eval", "--checkpoint", str(flow_out / "checkpoint_wp.npz"),
                   "--corpus", str(other)])
        assert rc == 2
        capsys.readouterr()

    def test_bench_virtual_deterministic(self, flow_out, capsys):
        args = ["bench", "--checkpoint", str(flow_out / "checkpoint_wp.npz"),
                "--virtual"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "median_ns=" in first


    @staticmethod
    def bench_median_ns(path, capsys):
        assert main(["bench", "--checkpoint", str(path), "--virtual"]) == 0
        return float(re.search(r"median_ns=(\S+)", capsys.readouterr().out)[1])

    def test_bench_virtual_times_the_flows_curve(self, flow_out, capsys):
        rows = json.loads((flow_out / "report.json").read_text(encoding="utf-8"))["rows"]
        for row in rows[1:]:      # every phase's checkpoint (the baseline writes none)
            path = flow_out / f"checkpoint_{row['step']}.npz"
            assert checkpoint_load(path)[1]["latency_curve"]["period"] == 4
            assert self.bench_median_ns(path, capsys) == row["latency_median_ns"]

    def test_bench_virtual_of_a_checkpoint_without_a_curve(self, flow_out, workdir, capsys):
        # written before checkpoints kept the flow's curve: timed on LatencyConfig()'s
        model, meta = checkpoint_load(flow_out / "checkpoint_wp.npz")
        del meta["latency_curve"]
        path = workdir / "no_curve.npz"
        checkpoint_save(model, meta, path)
        want = synthflow.measure_model_latency(model, synthflow.LatencyConfig()).median_ns
        assert want != self.bench_median_ns(flow_out / "checkpoint_wp.npz", capsys)
        assert self.bench_median_ns(path, capsys) == want

    @pytest.mark.parametrize("curve", [{"period": 0}, {"knee": 3}, [4]])
    def test_bench_virtual_refuses_a_bad_curve(self, flow_out, workdir, curve, capsys):
        model, meta = checkpoint_load(flow_out / "checkpoint_wp.npz")
        path = workdir / "bad_curve.npz"
        checkpoint_save(model, {**meta, "latency_curve": curve}, path)
        assert main(["bench", "--checkpoint", str(path), "--virtual"]) == 1
        assert "latency_curve" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--virtual"], ["--reps", "5", "--batch", "2"]])
    def test_bench_names_the_timed_shape(self, flow_out, mode, capsys):
        path = flow_out / "checkpoint_rcp.npz"
        timed = freeze(checkpoint_load(path)[0])
        assert main(["bench", "--checkpoint", str(path)] + mode) == 0
        out = capsys.readouterr().out
        dims = re.search(r"compact_d_s=(\d+) compact_d_h=(\d+)", out)
        assert dims and (int(dims[1]), int(dims[2])) == (timed.head.in_dim,
                                                         timed.table.shape[2])
        assert timed.head.in_dim < 12     # rcp pruned units, so the timed shape is smaller


    @pytest.mark.parametrize("bad", [["--batch", "0"], ["--batch", "-3"], ["--reps", "0"],
                                     ["--reps", "4"]])
    def test_bench_rejects_bad_timing_args_before_timing(self, flow_out, bad, monkeypatch,
                                                         capsys):
        timed = []
        monkeypatch.setattr(synthflow, "measure_model_latency",
                            lambda *args: timed.append(args))
        assert main(["bench", "--checkpoint", str(flow_out / "checkpoint_wp.npz")]
                    + bad) == 2
        assert bad[0] in capsys.readouterr().err
        assert timed == []

    @pytest.mark.parametrize("bad", [["--batch", "0"], ["--warmup", "-3"]])
    def test_profile_rejects_bad_timing_args_before_timing(self, workdir, curve_file, bad,
                                                           monkeypatch, capsys):
        swept = []
        monkeypatch.setattr(latlab, "sweep", lambda *args: swept.append(args))
        out = workdir / "bad_timing.csv"
        assert main(["profile", "--grid", "1:4:1", "--runs", "5", "--backend",
                     f"synthetic:{curve_file}", "--out", str(out)] + bad) == 2
        assert bad[0] in capsys.readouterr().err
        assert swept == [] and not out.exists()

    # a usage error (exit 2) that names the spec file, like a bad --config; a NaN
    # base used to write a profile hwsynth analyze refused, a negative noise to
    # fail mid-sweep
    @pytest.mark.parametrize("text, named", [
        ('{"period": 0}', "period"), ('{"period": -16}', "period"),
        ('period: 4', "Expecting value"), ('[4]', "mapping"),
        ('{"period": 4, "bogus": 1}', "bogus"),
        ('{"base_ns": NaN}', "base_ns must be finite"),
        ('{"slope_ns": -Infinity}', "slope_ns must be finite"),
        ('{"jump_ns": Infinity}', "jump_ns must be finite"),
        ('{"noise_ns": NaN}', "noise_ns must be finite and non-negative"),
        ('{"noise_ns": -5}', "noise_ns must be finite and non-negative")],
        ids=["0", "-16", "not-json", "not-an-object", "unknown-field", "nan-base",
             "inf-slope", "inf-jump", "nan-noise", "negative-noise"])
    def test_profile_rejects_a_bad_curve_period(self, tmp_path, text, named, capsys):
        spec = tmp_path / "curve.json"
        spec.write_text(text, encoding="utf-8")
        out = tmp_path / "profile.csv"
        assert main(["profile", "--grid", "1:4:1", "--runs", "5",
                     "--backend", f"synthetic:{spec}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and str(spec) in err
        assert not out.exists()


class TestPartialReportWarning:
    def test_report_flags_incomplete_flow(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text(json.dumps({
            "complete": False, "threshold": 1.0, "lhp_target": None,
            "rows": []}), encoding="utf-8")
        assert main(["report", "--flow", str(tmp_path)]) == 0
        assert "WARNING: partial report" in capsys.readouterr().out
