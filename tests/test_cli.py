import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evfuse
from evfuse.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small generated dataset plus a short training run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main([
        "generate-data", "--classes", "3", "--per-class", "40",
        "--dims", "3,3", "--sep", "4,4", "--seed", "5", "--out", str(data),
    ]) == 0
    assert main([
        "train", "--data", str(data), "--out", str(run),
        "--epochs", "8", "--hidden", "8", "--seed", "5",
    ]) == 0
    return data, run


class TestGenerateData:
    def test_writes_expected_files(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = _run(
            capsys, "generate-data", "--per-class", "10", "--out", str(out)
        )
        assert code == 0
        for name in ("train.csv", "val.csv", "test.csv", "dataset.json"):
            assert (out / name).exists()
        sidecar = json.loads((out / "dataset.json").read_text())
        assert "config_hash" in sidecar and sidecar["config_hash"] in stdout

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["generate-data", "--per-class", "10", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("train.csv", "val.csv", "test.csv", "dataset.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_flags_exit_1(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "generate-data", "--classes", "1", "--out", str(tmp_path / "x")
        )
        assert code == 1 and "error" in err


class TestTrain:
    def test_artifact_contents(self, pipeline):
        _, run = pipeline
        artifact = json.loads((run / "artifact.json").read_text())
        assert artifact["config"]["lam"] == 0.5
        assert len(artifact["epoch_losses"]) == 8
        assert artifact["epoch_losses"][-1] < artifact["epoch_losses"][0]
        assert artifact["run_id"]
        ckpt = json.loads((run / "checkpoint.json").read_text())
        assert ckpt["config_hash"] == artifact["run_id"]
        assert "standardization" in ckpt

    def test_deterministic_rerun(self, pipeline, tmp_path):
        data, run = pipeline
        rerun = tmp_path / "rerun"
        assert main([
            "train", "--data", str(data), "--out", str(rerun),
            "--epochs", "8", "--hidden", "8", "--seed", "5",
        ]) == 0
        assert (run / "checkpoint.json").read_bytes() == (rerun / "checkpoint.json").read_bytes()
        assert (run / "artifact.json").read_bytes() == (rerun / "artifact.json").read_bytes()

    def test_zero_epochs_checkpoint_is_initialization(self, pipeline, tmp_path):
        data, _ = pipeline
        out0 = tmp_path / "zero"
        assert main([
            "train", "--data", str(data), "--out", str(out0),
            "--epochs", "0", "--hidden", "8", "--seed", "5",
        ]) == 0
        from evfuse.model import EncoderSpec, MultimodalClassifier

        ckpt = json.loads((out0 / "checkpoint.json").read_text())
        fresh = MultimodalClassifier(
            [EncoderSpec(3, (8,), "tanh")] * 2, 3, seed=5
        )
        assert ckpt["model"] == fresh.state_dict()

    def test_zero_epochs_summary_has_no_loss(self, pipeline, tmp_path, capsys):
        data, _ = pipeline
        code, stdout, _ = _run(
            capsys, "train", "--data", str(data), "--out", str(tmp_path / "zero"),
            "--epochs", "0", "--hidden", "8",
        )
        assert code == 0
        assert stdout.startswith("trained 0 epochs; checkpoint") and "nan" not in stdout

    def test_negative_epochs_exit_1(self, pipeline, tmp_path, capsys):
        data, _ = pipeline
        code, stdout, err = _run(
            capsys, "train", "--data", str(data), "--out", str(tmp_path / "neg"),
            "--epochs", "-3", "--hidden", "8",
        )
        assert code == 1 and stdout == ""
        assert err.startswith("error:") and "max_epochs must be >= 0" in err
        assert not (tmp_path / "neg").exists()

    def test_missing_data_exit_2(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "train", "--data", str(tmp_path / "none"), "--out", str(tmp_path / "o")
        )
        assert code == 2 and "error" in err

    def test_config_file_precedence(self, pipeline, tmp_path):
        data, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "lam": 0.25}))
        out = tmp_path / "cfgrun"
        # flag overrides config; config overrides default
        assert main([
            "train", "--data", str(data), "--out", str(out),
            "--config", str(cfg), "--epochs", "3", "--hidden", "8",
        ]) == 0
        artifact = json.loads((out / "artifact.json").read_text())
        assert len(artifact["epoch_losses"]) == 3
        assert artifact["config"]["lam"] == 0.25

    def test_unknown_config_key_exit_1(self, pipeline, tmp_path, capsys):
        data, _ = pipeline
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"learning": 1}))
        code, _, err = _run(
            capsys, "train", "--data", str(data), "--out", str(tmp_path / "o"),
            "--config", str(cfg),
        )
        assert code == 1 and "unknown config keys" in err


class TestEvaluate:
    def test_metrics_written(self, pipeline, tmp_path, capsys):
        data, run = pipeline
        out = tmp_path / "eval"
        code, stdout, _ = _run(
            capsys, "evaluate", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), "--out", str(out),
        )
        assert code == 0 and "acc=" in stdout
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["config_hash"]
        m = doc["metrics"]
        assert 0.0 <= m["acc"] <= 1.0 and m["n_samples"] == 18
        lines = (out / "reliability.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert len(lines) == 12  # comment + header + 10 bins

    def test_byte_identical_metric_json(self, pipeline, tmp_path):
        data, run = pipeline
        a, b = tmp_path / "e1", tmp_path / "e2"
        args = ["evaluate", "--checkpoint", str(run / "checkpoint.json"),
                "--data", str(data)]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()

    def test_wrong_weight_shape_exit_1(self, pipeline, tmp_path, capsys):
        data, run = pipeline
        ckpt = json.loads((run / "checkpoint.json").read_text())
        ckpt["model"]["encoders"][0]["biases"][0] = [0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ckpt))
        code, _, err = _run(
            capsys, "evaluate", "--checkpoint", str(bad), "--data", str(data),
            "--out", str(tmp_path / "eval"),
        )
        assert code == 1
        assert err.startswith("error:") and "encoders[0].biases[0]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "noise-sweep", "report"])
    @pytest.mark.parametrize("defect", ["bias_object", "no_standardization"])
    def test_malformed_checkpoint_exit_1(self, pipeline, tmp_path, capsys, command, defect):
        data, run = pipeline
        ckpt = json.loads((run / "checkpoint.json").read_text())
        if defect == "bias_object":
            ckpt["model"]["heads"][0]["bias"] = {"not": "an array"}
        else:
            del ckpt["standardization"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ckpt))
        code, _, err = _run(
            capsys, command, "--checkpoint", str(bad), "--data", str(data),
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert err.startswith("error: bad checkpoint contents")
        assert "Traceback" not in err

    def test_weighted_kappa_config_key_exit_1(self, pipeline, tmp_path, capsys):
        data, run = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weighted_kappa": True}))
        code, _, err = _run(
            capsys, "evaluate", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), "--out", str(tmp_path / "eval"), "--config", str(cfg),
        )
        assert code == 1 and "unknown config keys: ['weighted_kappa']" in err

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda s: s["std"].__setitem__(0, [1.0]),
             "standardization std[0] has shape (1,), expected (3,)"),
            (lambda s: s["std"][1].__setitem__(0, 0.0), "standardization std[1] must be finite and > 0"),
            (lambda s: s["mean"][0].__setitem__(2, float("nan")), "standardization mean[0] must be finite"),
            (lambda s: (s["mean"].pop(), s["std"].pop()),
             "standardization mean holds 1 arrays, expected 2"),
        ],
        ids=["std-shape", "zero-std", "nan-mean", "missing-modality"],
    )
    def test_bad_standardization_exit_1(self, pipeline, tmp_path, capsys, mutate, message):
        data, run = pipeline
        ckpt = json.loads((run / "checkpoint.json").read_text())
        mutate(ckpt["standardization"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ckpt))
        code, stdout, err = _run(
            capsys, "evaluate", "--checkpoint", str(bad), "--data", str(data),
            "--out", str(tmp_path / "eval"),
        )
        assert code == 1 and stdout == ""
        assert err == f"error: bad checkpoint contents: {message}\n"

    def test_non_finite_csv_cell_exit_1(self, pipeline, tmp_path, capsys):
        data, run = pipeline
        copy = tmp_path / "data"
        copy.mkdir()
        for f in data.iterdir():
            (copy / f.name).write_bytes(f.read_bytes())
        lines = (copy / "test.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[4] = "nan"
        lines[2] = ",".join(cells)
        (copy / "test.csv").write_text("\n".join(lines) + "\n")
        code, _, err = _run(
            capsys, "evaluate", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(copy), "--out", str(tmp_path / "eval"),
        )
        assert code == 1
        assert err.startswith("error:") and "row 3, column 5: non-finite cell 'nan'" in err
        assert not (tmp_path / "eval").exists()


class TestNoiseSweepAndReport:
    def test_sweep_tables(self, pipeline, tmp_path, capsys):
        data, run = pipeline
        out = tmp_path / "sweep"
        code, _, _ = _run(
            capsys, "noise-sweep", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), "--sigmas", "0,0.5", "--modality", "2",
            "--noise-seeds", "1,2", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert len(doc["rows"]) == 4
        assert {r["sigma"] for r in doc["rows"]} == {0.0, 0.5}
        csv_lines = (out / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 6  # comment + header + 4 rows

    def test_bad_modality_exit_1(self, pipeline, tmp_path, capsys):
        data, run = pipeline
        code, _, _ = _run(
            capsys, "noise-sweep", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), "--modality", "9", "--out", str(tmp_path / "x"),
        )
        assert code == 1

    def test_report_density(self, pipeline, tmp_path, capsys):
        data, run = pipeline
        out = tmp_path / "rep"
        code, _, _ = _run(
            capsys, "report", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), "--modality", "1", "--sigma", "1.0",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "density.json").read_text())
        for counts in doc["histograms"].values():
            assert sum(counts) == 18
        lines = (out / "density.csv").read_text().splitlines()
        assert lines[1].split(",")[:2] == ["bin_lo", "bin_hi"]

    def test_sigma_without_modality_exit_1(self, pipeline, tmp_path, capsys):
        data, run = pipeline
        code, _, _ = _run(
            capsys, "report", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), "--sigma", "1.0", "--out", str(tmp_path / "x"),
        )
        assert code == 1


class TestFuse:
    def test_hand_anchor(self, tmp_path, capsys):
        f = tmp_path / "in.json"
        f.write_text("[[0, 1, 4], [1, 2, 6]]")
        code, stdout, _ = _run(capsys, "fuse", "--in", str(f))
        assert code == 0
        doc = json.loads(stdout)
        assert doc == {
            "u": 0.0, "sigma": 1.25, "v": 4.0,
            "source_index": 0, "y_hat": 0.0, "uncertainty": 2.5,
        }

    def test_single_input_echoed(self, tmp_path, capsys):
        f = tmp_path / "in.json"
        f.write_text('[{"u": 2, "sigma": 3, "v": 6}]')
        code, stdout, _ = _run(capsys, "fuse", "--in", str(f))
        doc = json.loads(stdout)
        assert code == 0
        assert (doc["u"], doc["sigma"], doc["v"]) == (2.0, 3.0, 6.0)
        assert doc["uncertainty"] == pytest.approx(4.5)

    def test_invalid_dof_exit_1(self, tmp_path, capsys):
        f = tmp_path / "in.json"
        f.write_text("[[0, 1, 2]]")
        code, _, err = _run(capsys, "fuse", "--in", str(f))
        assert code == 1 and "v must be > 2" in err

    @pytest.mark.parametrize(
        "doc, code, message",
        [
            ("[1, 2]", 1, "entry 0: expected [u, sigma, v]"),
            ('["abc"]', 1, "entry 0: expected [u, sigma, v]"),
            ("[[NaN, 1, 3], [1, 2, 6]]", 1, "entry 0: u must be finite"),
            ("[[0, 1, 3], [0, Infinity, 6]]", 1, "entry 1: sigma must be finite"),
            ('[{"u": 0, "sigma": 1, "v": Infinity}]', 1, "entry 0: v must be finite"),
            ("[[0, 1e308, 3], [0, 1e308, 3]]", 3, "fused result is not finite"),
        ],
    )
    def test_malformed_or_non_finite_input_rejected(self, tmp_path, capsys, doc, code, message):
        f = tmp_path / "in.json"
        f.write_text(doc)
        got, stdout, err = _run(capsys, "fuse", "--in", str(f))
        assert got == code
        assert stdout == ""
        assert err.startswith("error:") and message in err

    def test_overflow_prints_only_the_error_line(self, tmp_path):
        # in a fresh process, so that a numpy warning would reach stderr
        f = tmp_path / "in.json"
        f.write_text("[[0, 1e308, 3], [0, 1e308, 3]]")
        env = dict(os.environ, PYTHONPATH=str(Path(evfuse.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "evfuse.cli", "fuse", "--in", str(f)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "error: fused result is not finite: sigma must be finite, got inf\n"

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = _run(capsys, "fuse", "--in", "/does/not/exist.json")
        assert code == 2

    def test_unknown_command_exit_1(self, capsys):
        code, _, _ = _run(capsys, "frobnicate")
        assert code == 1
