import json

import numpy as np
import pytest

from hwsynth.cli import main


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

    def test_bad_config_json(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["synthesize", "--config", str(bad),
                     "--out", str(workdir / "o")]) == 2

    @pytest.mark.parametrize("override", [{"depth": 2}, {"profile_grid": [1, 8, 1]}])
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
        rc = main(["eval", "--checkpoint", str(flow_out / "checkpoint_wp.npz"),
                   "--corpus", tiny_corpus])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase=wp" in out
        assert "valid_perplexity=" in out

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


class TestPartialReportWarning:
    def test_report_flags_incomplete_flow(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text(json.dumps({
            "complete": False, "threshold": 1.0, "lhp_target": None,
            "rows": []}), encoding="utf-8")
        assert main(["report", "--flow", str(tmp_path)]) == 0
        assert "WARNING: partial report" in capsys.readouterr().out
