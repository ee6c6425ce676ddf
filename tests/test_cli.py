import argparse
import contextlib
import copy
import dataclasses
import inspect
import io
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evfuse
import evfuse.cli
from evfuse.cli import main
from evfuse.data import Standardization, SyntheticSpec
from evfuse.evaluation import NoiseSpec, _score_fused, ece, evaluate_model, uncertainty_density
from evfuse.model import EncoderSpec, MultimodalClassifier, TrainConfig


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
            capsys, "generate-data", "--per-class", "10", "--seed", "9", "--split", "20,5,5",
            "--out", str(out),
        )
        assert code == 0
        for name in ("train.csv", "val.csv", "test.csv", "dataset.json"):
            assert (out / name).exists()
        sidecar = json.loads((out / "dataset.json").read_text())
        assert "config_hash" in sidecar and sidecar["config_hash"] in stdout
        assert sidecar == {
            "n_classes": 3, "n_per_class": 10, "dims": [4, 4], "separation": [3.0, 3.0],
            "seed": 9, "split_sizes": [20, 5, 5], "config_hash": sidecar["config_hash"],
        }

    @pytest.mark.parametrize(
        "flags, run_id",
        [(["--per-class", "60", "--seed", "3"], "54461e9c2efc0820"),
         (["--dims", "3,2,4", "--sep", "2,3,1", "--split", "50,20,30", "--per-class", "40"],
          "9bea917c98deb403")],
        ids=["defaults", "three-modalities"],
    )
    def test_config_hash_pinned(self, tmp_path, capsys, flags, run_id):
        out = tmp_path / "d"
        code, stdout, _ = _run(capsys, "generate-data", *flags, "--out", str(out))
        assert code == 0 and stdout.endswith(f"(run {run_id})\n")
        assert json.loads((out / "dataset.json").read_text())["config_hash"] == run_id

    def test_config_strings_write_the_flags_dataset(self, tmp_path, capsys):
        # a list option read from a --config string is parsed as the flag is
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": "4,5,3", "sep": "2,3,1.5"}))
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        assert main(["generate-data", "--per-class", "10", "--dims", "4,5,3", "--sep", "2,3,1.5",
                     "--out", str(by_flags)]) == 0
        assert main(["generate-data", "--per-class", "10", "--config", str(cfg),
                     "--out", str(by_config)]) == 0
        for name in ("train.csv", "dataset.json"):
            assert (by_flags / name).read_bytes() == (by_config / name).read_bytes()

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["generate-data", "--per-class", "10", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("train.csv", "val.csv", "test.csv", "dataset.json",
                     "train.csv.npz", "val.csv.npz", "test.csv.npz"):
            content = (a / name).read_bytes()
            assert content and content == (b / name).read_bytes(), name

    def test_reading_commands_never_write_the_data_directory(self, tmp_path):
        # without binary copies the splits are parsed, and no command writes new copies
        data = tmp_path / "data"
        assert main(["generate-data", "--per-class", "10", "--seed", "7", "--out", str(data)]) == 0
        for copy in data.glob("*.csv.npz"):
            copy.unlink()
        snapshot = {p.name: p.read_bytes() for p in data.iterdir()}
        ckpt = str(tmp_path / "run" / "checkpoint.json")
        for argv in (
            ["train", "--out", str(tmp_path / "run"), "--epochs", "2", "--hidden", "8"],
            ["evaluate", "--checkpoint", ckpt, "--out", str(tmp_path / "eval")],
            ["noise-sweep", "--checkpoint", ckpt, "--sigmas", "0,0.5", "--out", str(tmp_path / "sweep")],
            ["report", "--checkpoint", ckpt, "--out", str(tmp_path / "report")],
        ):
            assert main(argv + ["--data", str(data)]) == 0, argv[0]
        assert {p.name: p.read_bytes() for p in data.iterdir()} == snapshot

    def test_invalid_flags_exit_1(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "generate-data", "--classes", "1", "--out", str(tmp_path / "x")
        )
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("sep", ["nan,3", "3,inf"])
    def test_non_finite_separation_exit_1(self, tmp_path, capsys, sep):
        out = tmp_path / "d"
        code, _, err = _run(capsys, "generate-data", "--sep", sep, "--out", str(out))
        assert code == 1 and err.startswith("error:") and "separation must be finite" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "dims, sep, message",
        [("4,4,4", "3,3", "same length"), (",", ",", "at least one modality")],
    )
    def test_modality_count_checked(self, tmp_path, capsys, dims, sep, message):
        out = tmp_path / "d"
        code, _, err = _run(capsys, "generate-data", "--dims", dims, "--sep", sep, "--out", str(out))
        assert code == 1 and err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_split_size_exit_1(self, tmp_path, capsys, source):
        out, cfg = tmp_path / "d", tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"split": "-5,10,10"}))
        given = ["--split=-5,10,10"] if source == "flag" else ["--config", str(cfg)]
        code, stdout, err = _run(capsys, "generate-data", "--per-class", "20", *given, "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == "error: split_sizes must be >= 0\n"
        assert not out.exists()

    def test_three_modality_chain(self, tmp_path, capsys):
        data, run = tmp_path / "data", tmp_path / "run"
        ckpt = str(run / "checkpoint.json")
        steps = [
            ["generate-data", "--per-class", "30", "--dims", "2,3,2", "--sep", "4,4,1",
             "--seed", "3", "--out", str(data)],
            ["train", "--data", str(data), "--out", str(run), "--epochs", "3", "--hidden", "8"],
            ["evaluate", "--checkpoint", ckpt, "--data", str(data), "--out", str(tmp_path / "eval")],
            ["noise-sweep", "--checkpoint", ckpt, "--data", str(data), "--modality", "3",
             "--sigmas", "0,1", "--noise-seeds", "1", "--out", str(tmp_path / "sweep")],
            ["report", "--checkpoint", ckpt, "--data", str(data), "--modality", "3",
             "--sigma", "1.0", "--out", str(tmp_path / "rep")],
        ]
        for argv in steps:
            code, _, err = _run(capsys, *argv)
            assert code == 0, (argv[0], err)
        assert json.loads((data / "dataset.json").read_text())["dims"] == [2, 3, 2]
        assert (data / "test.csv").read_text().splitlines()[1].endswith(",m2_2,m3_0,m3_1")
        assert json.loads((tmp_path / "eval" / "metrics.json").read_text())["metrics"]["n_samples"] == 13
        assert len(json.loads((tmp_path / "sweep" / "sweep.json").read_text())["rows"]) == 2
        density = json.loads((tmp_path / "rep" / "density.json").read_text())
        assert {"modality_1", "modality_2", "modality_3"} <= set(density["histograms"])


class TestImports:
    @pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(evfuse.__path__)))
    def test_each_module_imports_first_in_a_fresh_process(self, name):
        # model and evaluation share the readout: no import order may find a cycle
        env = dict(os.environ, PYTHONPATH=str(Path(evfuse.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", f"import evfuse.{name}"], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_no_command_loads_scipy(self, pipeline, tmp_path):
        # a fresh process: this one has scipy loaded already
        data, run = pipeline
        fuse_in = tmp_path / "in.json"
        fuse_in.write_text("[[0, 1, 4], [1, 2, 6]]")
        scored = ["--checkpoint", str(run / "checkpoint.json"), "--data", str(data)]
        script = f"""
import contextlib, io, json, sys
import evfuse.cli
loaded = {{"import": "scipy" in sys.modules}}
for argv in (
    ["fuse", "--in", {str(fuse_in)!r}],
    ["generate-data", "--per-class", "10", "--out", {str(tmp_path / "gen")!r}],
    ["evaluate", *{scored!r}, "--out", {str(tmp_path / "eval")!r}],
    ["noise-sweep", *{scored!r}, "--sigmas", "0,0.5", "--out", {str(tmp_path / "sweep")!r}],
    ["report", *{scored!r}, "--modality", "1", "--sigma", "0.5", "--out", {str(tmp_path / "rep")!r}],
    ["train", "--data", {str(data)!r}, "--out", {str(tmp_path / "run")!r}, "--epochs", "1",
     "--hidden", "4"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert evfuse.cli.main(argv) == 0, argv
    loaded[argv[0]] = "scipy" in sys.modules
print(json.dumps(loaded))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(evfuse.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == dict.fromkeys(
            ["import", "fuse", "generate-data", "evaluate", "noise-sweep", "report", "train"], False
        )


# Each library setting, a dataclass field or function parameter with a default, and
# the dest of the flag that sets it (`EncoderSpec.input_dim` has no default: `train`
# reads it from the sidecar).  `uncertainty_density`'s `spec` is None, no noise,
# when `--sigma` is unset.  `_score_fused` bins a noise sweep's ECE, so a sweep
# bins as a default `evaluate` does.
SETTING_FLAGS = {
    SyntheticSpec: ("generate-data", {"n_classes": "classes", "n_per_class": "per_class",
                                      "dims": "dims", "separation": "sep", "seed": "seed",
                                      "split_sizes": "split"}),
    TrainConfig: ("train", {"learning_rate": "lr", "max_epochs": "epochs", "batch_size": "batch_size",
                            "lam": "lam", "seed": "seed", "freeze_encoders": "freeze_encoders",
                            "keep_best": "keep_best"}),
    EncoderSpec: ("train", {"hidden_dims": "hidden", "activation": "activation"}),
    NoiseSpec: ("report", {"seed": "noise_seed"}),
    ece: ("evaluate", {"n_bins": "bins"}),
    evaluate_model: ("evaluate", {"n_bins": "bins"}),
    _score_fused: ("evaluate", {"n_bins": "bins"}),
    uncertainty_density: ("report", {"spec": "sigma", "n_hist_bins": "hist_bins"}),
}


def _subparsers() -> dict:
    """Each command's subparser, by name."""
    return next(a for a in evfuse.cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("spec", list(SETTING_FLAGS), ids=lambda spec: spec.__name__)
def test_every_setting_has_a_flag_with_its_default(spec):
    # a setting that no flag sets is a setting no caller sets
    command, flags = SETTING_FLAGS[spec]
    options = evfuse.cli._options(_subparsers()[command])
    if dataclasses.is_dataclass(spec):
        fields = {f.name: f.default for f in dataclasses.fields(spec) if f.default is not dataclasses.MISSING}
    else:
        fields = {name: p.default for name, p in inspect.signature(spec).parameters.items()
                  if p.default is not p.empty}
    assert set(flags) == set(fields)
    for name, dest in flags.items():
        assert options[dest].default == fields[name], name


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

    def test_same_bytes_from_processes_with_other_hash_seeds(self, tmp_path):
        # the reruns above share this process and its PYTHONHASHSEED
        src = str(Path(evfuse.__file__).parents[1])
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            data, run = tmp_path / hash_seed / "data", tmp_path / hash_seed / "run"
            for argv in (["generate-data", "--per-class", "20", "--seed", "1", "--out", str(data)],
                         ["train", "--data", str(data), "--out", str(run), "--epochs", "2",
                          "--hidden", "8"]):
                proc = subprocess.run([sys.executable, "-m", "evfuse.cli", *argv],
                                      capture_output=True, text=True, env=env, timeout=120)
                assert proc.returncode == 0, proc.stderr
        for name in ("data/test.csv", "data/test.csv.npz", "run/checkpoint.json", "run/artifact.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

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

    def test_empty_validation_split_exit_1(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "run"
        assert _run(capsys, "generate-data", "--per-class", "20", "--seed", "1",
                    "--split", "40,0,20", "--out", str(data))[0] == 0
        code, stdout, err = _run(
            capsys, "train", "--data", str(data), "--out", str(out), "--epochs", "2", "--hidden", "8"
        )
        assert code == 1 and stdout == ""
        assert err == "error: validation dataset is empty\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"freeze_encoders": "no"}', 'config freeze_encoders must be true or false, got "no"'),
            ('{"keep_best": 1}', "config keep_best must be true or false, got 1"),
            ('{"epochs": 1.7}', "config epochs must be an integer, got 1.7"),
            ('{"batch_size": true}', "config batch_size must be an integer, got true"),
            ('{"epochs": null}', "config epochs must be an integer, got null"),
            ('{"lr": "0.1"}', 'config lr must be a number, got "0.1"'),
            ('{"lr": NaN}', "config lr must be finite, got NaN"),
            ('{"lam": 1' + "0" * 400 + "}", "config lam must be finite, got 1" + "0" * 400),
            ('{"hidden": [8]}', "config hidden must be a string, got [8]"),
            ('{"activation": "sigmoid"}', 'config activation must be one of relu, tanh, got "sigmoid"'),
            ('["lr"]', 'config must be an object, got ["lr"]'),
        ],
        ids=["bool-str", "bool-int", "int-float", "int-bool", "int-null", "float-str", "float-nan",
             "float-huge-int", "str-list", "choice", "list"],
    )
    def test_config_value_of_wrong_type_exit_1(self, pipeline, tmp_path, capsys, doc, message):
        data, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        out = tmp_path / "o"
        code, stdout, err = _run(
            capsys, "train", "--data", str(data), "--out", str(out), "--config", str(cfg),
            "--epochs", "1", "--hidden", "4",
        )
        assert code == 1 and stdout == ""
        assert err.startswith("error:") and err.endswith(f"{message}\n") and err.count("\n") == 1
        assert not out.exists()

    def test_config_integer_for_float_option(self, pipeline, tmp_path):
        data, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 1, "freeze_encoders": True}))
        out = tmp_path / "o"
        assert main([
            "train", "--data", str(data), "--out", str(out), "--config", str(cfg),
            "--epochs", "1", "--hidden", "4",
        ]) == 0
        config = json.loads((out / "artifact.json").read_text())["config"]
        assert config["lam"] == 1.0 and isinstance(config["lam"], float)
        assert config["freeze_encoders"] is True

    def test_no_switch_overrides_a_config_true(self, pipeline, tmp_path):
        data, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"freeze_encoders": True, "keep_best": True}))
        common = ["train", "--data", str(data), "--epochs", "2", "--hidden", "4"]
        assert main([*common, "--out", str(tmp_path / "off"), "--config", str(cfg),
                     "--no-freeze-encoders", "--no-keep-best"]) == 0
        assert main([*common, "--out", str(tmp_path / "plain")]) == 0
        off, plain = (json.loads((tmp_path / name / "artifact.json").read_text())
                      for name in ("off", "plain"))
        assert off["config"]["freeze_encoders"] is False and off["config"]["keep_best"] is False
        assert off["best_epoch"] is None
        # the same options as a run without the file: the same run and checkpoint
        assert off["run_id"] == plain["run_id"]
        assert ((tmp_path / "off" / "checkpoint.json").read_bytes()
                == (tmp_path / "plain" / "checkpoint.json").read_bytes())

    @pytest.fixture(scope="class")
    def pinned_data(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("pinned") / "data"
        assert main(["generate-data", "--per-class", "60", "--seed", "3", "--out", str(data)]) == 0
        return data

    def test_config_hash_pinned(self, pinned_data, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"lam": 1, "epochs": 3, "hidden": "8,4", "freeze_encoders": True, "lr": 0.001}
        ))
        runs = {"config": ["--config", str(cfg), "--epochs", "4"], "defaults": ["--epochs", "1"]}
        for name, flags in runs.items():
            assert main(["train", "--data", str(pinned_data), "--out", str(tmp_path / name),
                         *flags]) == 0
        artifacts = {name: json.loads((tmp_path / name / "artifact.json").read_text())
                     for name in runs}
        assert artifacts["config"]["run_id"] == "fcdace8c2e7ec34d"
        assert artifacts["defaults"]["run_id"] == "3aeb2bfe078c70db"
        assert artifacts["config"]["config"] == {
            "command": "train", "data": {"n_classes": 3, "dims": [4, 4], "seed": 3},
            "lr": 0.001, "epochs": 4, "batch_size": 16, "lam": 1.0, "seed": 0, "hidden": [8, 4],
            "activation": "tanh", "freeze_encoders": True, "keep_best": False,
        }
        assert isinstance(artifacts["config"]["config"]["lam"], float)

    def test_null_config_value_where_the_default_is_null(self, pipeline, tmp_path):
        data, run = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modality": None, "sigma": None, "split": "val"}))
        assert main([
            "report", "--checkpoint", str(run / "checkpoint.json"), "--data", str(data),
            "--out", str(tmp_path / "rep"), "--config", str(cfg),
        ]) == 0


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

    def test_nan_metric_exit_3_without_metrics_file(self, pipeline, tmp_path, capsys, monkeypatch):
        def nan_ece(*args, **kwargs):
            res = evaluate_model(*args, **kwargs)
            res.report.ece = float("nan")
            return res

        monkeypatch.setattr(evfuse.cli, "evaluate_model", nan_ece)
        data, run = pipeline
        out = tmp_path / "e"
        code, stdout, err = _run(
            capsys, "evaluate", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), "--out", str(out),
        )
        assert code == 3 and stdout == ""
        assert err.startswith("error: not writing") and "metrics.json" in err
        assert not (out / "metrics.json").exists()

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
    @pytest.mark.parametrize(
        "defect", ["bias_object", "no_standardization", "hash_list", "bool_seed", "negative_seed"]
    )
    def test_malformed_checkpoint_exit_1(self, pipeline, tmp_path, capsys, command, defect):
        data, run = pipeline
        ckpt = json.loads((run / "checkpoint.json").read_text())
        if defect == "bias_object":
            ckpt["model"]["heads"][0]["bias"] = {"not": "an array"}
        elif defect == "hash_list":
            ckpt["config_hash"] = [1, 2]
        elif defect == "bool_seed":
            ckpt["model"]["seed"] = True
        elif defect == "negative_seed":
            ckpt["model"]["seed"] = -1
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

    @pytest.mark.parametrize("command", ["evaluate", "noise-sweep", "report"])
    def test_sidecar_dims_must_match_the_checkpoint(self, pipeline, tmp_path, capsys, command):
        """The checkpoint's six columns split as 2 + 4 instead of 3 + 3, and
        its three classes against a generated two-class dataset."""
        data, run = pipeline
        split_2_4 = tmp_path / "data"
        split_2_4.mkdir()
        sidecar = json.loads((data / "dataset.json").read_text())
        sidecar["dims"] = [2, 4]
        (split_2_4 / "dataset.json").write_text(json.dumps(sidecar))
        for split in ("train", "val", "test"):
            lines = (data / f"{split}.csv").read_text().splitlines()
            lines[1] = "label,m1_0,m1_1,m2_0,m2_1,m2_2,m2_3"  # under the config_hash line
            (split_2_4 / f"{split}.csv").write_text("\n".join(lines) + "\n")
        two_classes = tmp_path / "data-2"
        assert main([
            "generate-data", "--classes", "2", "--per-class", "20", "--dims", "3,3",
            "--out", str(two_classes),
        ]) == 0
        capsys.readouterr()
        for bad, message in [
            (split_2_4, "dataset sidecar dims must be the checkpoint's [3, 3], got [2, 4]"),
            (two_classes, "dataset sidecar n_classes must be the checkpoint's 3, got 2"),
        ]:
            code, stdout, err = _run(
                capsys, command, "--checkpoint", str(run / "checkpoint.json"),
                "--data", str(bad), "--out", str(tmp_path / "out"),
            )
            assert code == 1 and stdout == ""
            assert err == f"error: {message}\n"
            assert not (tmp_path / "out").exists()

    def test_class_count_checked_before_the_csv_is_parsed(self, pipeline, tmp_path, capsys):
        """A 2-class dataset whose test split ends in a malformed row: the
        class-count mismatch is refused before any CSV is read."""
        _, run = pipeline
        data = tmp_path / "data-2"
        assert main([
            "generate-data", "--classes", "2", "--per-class", "20", "--dims", "3,3",
            "--out", str(data),
        ]) == 0
        with open(data / "test.csv", "a") as f:
            f.write("0,not-a-number\n")
        capsys.readouterr()
        code, stdout, err = _run(
            capsys, "evaluate", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), "--out", str(tmp_path / "out"),
        )
        assert code == 1 and stdout == ""
        assert err == "error: dataset sidecar n_classes must be the checkpoint's 3, got 2\n"

    @pytest.mark.parametrize("bins", ["0", "-1"])
    def test_bins_below_one_exit_1_before_encoding(self, pipeline, tmp_path, capsys, encoder_calls, bins):
        # refused only by ECE, after the whole split was encoded
        data, run = pipeline
        out = tmp_path / "eval"
        code, stdout, err = _run(
            capsys, "evaluate", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), f"--bins={bins}", "--out", str(out),
        )
        assert code == 1 and stdout == "" and err == "error: n_bins must be >= 1\n"
        assert encoder_calls == [] and not out.exists()

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
            (lambda s: s["mean"][0].__setitem__(1, "0.5"), 'standardization mean[0][1] must be a number, got "0.5"'),
            (lambda s: s["std"][1].__setitem__(0, True), "standardization std[1][0] must be a number, got true"),
        ],
        ids=["std-shape", "zero-std", "nan-mean", "missing-modality", "string-mean", "bool-std"],
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

    @pytest.mark.parametrize(
        "target, doc, message",
        [
            ("sidecar", "{}", "dataset sidecar dims is missing"),
            ("sidecar", "[1, 2]", "dataset sidecar must be an object, got [1, 2]"),
            ("sidecar", '{"dims": "ab", "n_classes": 3}', 'dataset sidecar dims must be a list, got "ab"'),
            ("sidecar", '{"dims": [3, 3], "n_classes": "3"}',
             'dataset sidecar n_classes must be an integer, got "3"'),
            ("sidecar", '{"dims": [], "n_classes": 3}',
             "dataset sidecar dims must be one or more sizes >= 1, got []"),
            ("sidecar", '{"dims": [3, 3], "n_classes": 1}', "dataset sidecar n_classes must be >= 2, got 1"),
            ("checkpoint", '{"model": 5, "standardization": {}}',
             "bad checkpoint contents: checkpoint model must be an object, got 5"),
            ("config", "5", "config must be an object, got 5"),
            ("config", "[" * 100_000, "cfg.json: maximum recursion depth exceeded"),
        ],
        ids=["sidecar-empty", "sidecar-list", "sidecar-dims-str", "sidecar-classes-str",
             "sidecar-no-dims", "sidecar-one-class", "checkpoint-model-int", "config-int",
             "config-deep"],
    )
    def test_malformed_json_input_exit_1(self, pipeline, tmp_path, capsys, target, doc, message):
        data, run = pipeline
        shutil.copytree(data, tmp_path / "data")
        files = {"sidecar": tmp_path / "data" / "dataset.json",
                 "checkpoint": tmp_path / "checkpoint.json", "config": tmp_path / "cfg.json"}
        shutil.copy(run / "checkpoint.json", files["checkpoint"])
        files["config"].write_text("{}")
        files[target].write_text(doc)
        code, stdout, err = _run(
            capsys, "evaluate", "--checkpoint", str(files["checkpoint"]),
            "--data", str(tmp_path / "data"), "--config", str(files["config"]),
            "--out", str(tmp_path / "eval"),
        )
        assert code == 1 and stdout == ""
        assert err.startswith("error:") and message in err and err.count("\n") == 1
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

    @pytest.mark.parametrize("flag", ["--sigmas", "--noise-seeds"])
    def test_empty_sweep_list_exit_1(self, pipeline, tmp_path, capsys, flag):
        data, run = pipeline
        out = tmp_path / "sweep"
        code, _, err = _run(
            capsys, "noise-sweep", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), flag, ",", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: noise sweep needs at least one sigma and one seed")
        assert not out.exists()

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

    @pytest.mark.parametrize("bins", ["0", "-1"])
    def test_hist_bins_below_one_exit_1(self, pipeline, tmp_path, capsys, bins):
        data, run = pipeline
        out = tmp_path / "rep"
        code, _, err = _run(
            capsys, "report", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), f"--hist-bins={bins}", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: n_hist_bins must be >= 1")
        assert not out.exists()

    def test_sigma_without_modality_exit_1(self, pipeline, tmp_path, capsys):
        data, run = pipeline
        code, _, _ = _run(
            capsys, "report", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), "--sigma", "1.0", "--out", str(tmp_path / "x"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "modality",
        [["--modality", "3", "--sigma", "1"], ["--modality", "9", "--sigma", "1"],
         ["--modality", "0", "--sigma", "1"], ["--modality", "5"]],
        ids=["3-noised", "9-noised", "0-noised", "5-clean"],
    )
    def test_report_modality_range_checked(self, pipeline, tmp_path, capsys, modality):
        data, run = pipeline
        out = tmp_path / "rep"
        code, stdout, err = _run(
            capsys, "report", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), *modality, "--out", str(out),
        )
        assert code == 1 and stdout == ""
        assert err == "error: --modality must be in [1, 2]\n"
        assert not out.exists()

    @pytest.mark.parametrize("sigmas", ["nan", "inf", "1e400", "0.1,-1"])
    def test_bad_sweep_sigma_exit_1_before_encoding(self, pipeline, tmp_path, capsys, encoder_calls, sigmas):
        data, run = pipeline
        out = tmp_path / "sweep"
        code, _, err = _run(
            capsys, "noise-sweep", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), "--sigmas", sigmas, "--out", str(out),
        )
        assert code == 1 and err.startswith("error: sigma must be finite and >= 0")
        assert encoder_calls == [] and not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--sigmas", "0.5,0.5", "noise sweep sigma 0.5 is repeated"),
        ("--sigmas", "0,-0", "noise sweep sigma -0.0 is repeated"),
        ("--noise-seeds", "1,2,1", "noise sweep seed 1 is repeated"),
    ])
    def test_repeated_sweep_value_exit_1_before_encoding(
        self, pipeline, tmp_path, capsys, encoder_calls, flag, value, message
    ):
        data, run = pipeline
        out = tmp_path / "sweep"
        code, stdout, err = _run(
            capsys, "noise-sweep", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), flag, value, "--out", str(out),
        )
        assert code == 1 and stdout == "" and err == f"error: {message}\n"
        assert encoder_calls == [] and not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "1e400"])
    def test_non_finite_report_sigma_exit_1(self, pipeline, tmp_path, capsys, sigma):
        data, run = pipeline
        out = tmp_path / "rep"
        code, _, err = _run(
            capsys, "report", "--checkpoint", str(run / "checkpoint.json"),
            "--data", str(data), "--modality", "1", "--sigma", sigma, "--out", str(out),
        )
        assert code == 1 and err.startswith("error: sigma must be finite and >= 0")
        assert not out.exists()


# sizes whose arrays numpy refuses at once (8 PB or more); never one that could be allocated
_PIB = "1000000000000000"


@pytest.mark.parametrize("command, flags", [
    ("generate-data", ["--per-class", _PIB]),
    ("evaluate", ["--bins", _PIB]),
    ("report", ["--hist-bins", _PIB]),
])
def test_refused_allocation_exit_1(pipeline, tmp_path, capsys, command, flags):
    # a bin count is refused by its rule (`MAX_BINS`), before numpy is asked for the bins
    data, run = pipeline
    if command != "generate-data":
        flags = flags + ["--checkpoint", str(run / "checkpoint.json"), "--data", str(data)]
    message = {"generate-data": "Unable to allocate", "evaluate": f"n_bins must be <= 1000000, got {_PIB}",
               "report": f"n_hist_bins must be <= 1000000, got {_PIB}"}[command]
    code, stdout, err = _run(capsys, command, *flags, "--out", str(tmp_path / "out"))
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# noise so large that finite features overflow: the error names the noise, not the data
_OVERFLOW = "modality 1 has a non-finite feature in row 3 under noise sigma 1e+308 with seed 0"


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--lr", "1e400"], "learning_rate must be finite and > 0, got inf"),
    ("train", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("generate-data", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("noise-sweep", ["--noise-seeds", "1,-1"], "seed must be >= 0, got -1"),
    ("report", ["--modality", "1", "--sigma", "1", "--noise-seed", "-1"], "seed must be >= 0, got -1"),
    ("noise-sweep", ["--sigmas", "0,1e308"], _OVERFLOW),
    ("report", ["--modality", "1", "--sigma", "1e308"], _OVERFLOW),
], ids=["lr-inf", "train-seed", "data-seed", "sweep-seed", "report-seed", "sweep-overflow", "report-overflow"])
def test_out_of_range_value_exit_1_naming_the_field(pipeline, tmp_path, capsys, command, flags, message):
    data, run = pipeline
    inputs = {
        "generate-data": [],
        "train": ["--data", str(data)],
    }.get(command, ["--checkpoint", str(run / "checkpoint.json"), "--data", str(data)])
    code, stdout, err = _run(capsys, command, *inputs, *flags, "--out", str(tmp_path / "out"))
    assert code == 1 and stdout == "" and err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_numerical_failure_prints_one_line(pipeline, tmp_path, command):
    """Training at a learning rate of 1e300, or scoring with head weights of
    +-1e300, overflows: exit 3 with one `error:` line.  In a fresh process,
    where numpy's warnings would reach stderr (pytest makes them errors)."""
    data, run = pipeline
    if command == "train":
        argv = ["train", "--data", str(data), "--lr", "1e300", "--epochs", "2", "--hidden", "8"]
        message = "error: non-finite loss at epoch 0, batch "
    else:
        ckpt = json.loads((run / "checkpoint.json").read_text())
        for head in ckpt["model"]["heads"]:
            shape = np.shape(head["weight"])
            head["weight"] = np.where(np.indices(shape).sum(axis=0) % 2, 1e300, -1e300).tolist()
        (tmp_path / "huge.json").write_text(json.dumps(ckpt))
        argv = ["evaluate", "--checkpoint", str(tmp_path / "huge.json"), "--data", str(data)]
        message = "error: the fused class posterior is not finite\n"
    env = dict(os.environ, PYTHONPATH=str(Path(evfuse.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "evfuse.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "out").exists()


_EMPTY_ITEMS = [
    ("generate-data", "--dims", "4,,4"),
    ("generate-data", "--sep", "3,3,"),
    ("generate-data", "--split", "10,,10"),
    ("train", "--hidden", "8,"),
    ("noise-sweep", "--sigmas", "0,,1"),
    ("noise-sweep", "--noise-seeds", ",1"),
]


@pytest.mark.parametrize(
    "source, command, flag, value",
    [pytest.param("flag", *case, id="-".join(case)) for case in _EMPTY_ITEMS]
    + [pytest.param("config", *case, id="-".join(("config",) + case)) for case in _EMPTY_ITEMS],
)
def test_empty_list_item_exit_1(pipeline, tmp_path, capsys, source, command, flag, value):
    # a --config string is parsed by the flag's own type, so it fails the same way
    data, run = pipeline
    inputs = {
        "generate-data": [],
        "train": ["--data", str(data)],
        "noise-sweep": ["--checkpoint", str(run / "checkpoint.json"), "--data", str(data)],
    }[command]
    if source == "flag":
        inputs += [flag, value]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        inputs += ["--config", str(cfg)]
    out = tmp_path / "out"
    code, stdout, err = _run(capsys, command, *inputs, "--out", str(out))
    assert code == 1 and stdout == ""
    assert err == f"error: {flag}: empty item in {value!r}\n"
    assert not out.exists()


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

    def test_v_above_bound_exit_1(self, tmp_path, capsys):
        f = tmp_path / "in.json"
        f.write_text("[[0, 1, 1e300]]")
        code, stdout, err = _run(capsys, "fuse", "--in", str(f))
        assert code == 1 and stdout == ""
        assert err == "error: entry 0: v must be at most 1e+150, got 1e+300\n"

    def test_v_at_bound_fuses(self, tmp_path, capsys):
        f = tmp_path / "in.json"
        f.write_text("[[0, 1, 1e150], [1, 2, 1e150]]")
        code, stdout, _ = _run(capsys, "fuse", "--in", str(f))
        doc = json.loads(stdout)
        assert code == 0
        assert (doc["u"], doc["sigma"], doc["v"], doc["source_index"]) == (0.0, 1.5, 1e150, 0)

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
            ('[{"u": 0, "sigma": 1}]', 1, "entry 0: v is missing"),
            ('[[0, 1, 4], {"u": 0, "sigma": 1, "v": null}]', 1, "entry 1: v must be a number, got null"),
        ],
    )
    def test_malformed_or_non_finite_input_rejected(self, tmp_path, capsys, doc, code, message):
        f = tmp_path / "in.json"
        f.write_text(doc)
        got, stdout, err = _run(capsys, "fuse", "--in", str(f))
        assert got == code
        assert stdout == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("[[true, 1, 4], [1, 2, 6]]", "entry 0: u must be a number, got true"),
            ('[["0", "1", "4"], [1, 2, 6]]', 'entry 0: u must be a number, got "0"'),
            ('[[0, 1, 4], {"u": 1, "sigma": false, "v": 6}]', "entry 1: sigma must be a number, got false"),
            ('[{"u": "0", "sigma": 1, "v": 4}]', 'entry 0: u must be a number, got "0"'),
            ("[[0, 1, [4]]]", "entry 0: v must be a number, got [4]"),
        ],
        ids=["bool-u", "string-triple", "bool-sigma", "string-u", "list-v"],
    )
    def test_non_number_exit_1(self, tmp_path, capsys, doc, message):
        f = tmp_path / "in.json"
        f.write_text(doc)
        code, stdout, err = _run(capsys, "fuse", "--in", str(f))
        assert code == 1 and stdout == ""
        assert err == f"error: {message}\n"

    def test_integer_beyond_float_range_exit_1(self, tmp_path, capsys):
        f = tmp_path / "in.json"
        f.write_text("[[0, 1, 1" + "0" * 400 + "]]")
        code, stdout, err = _run(capsys, "fuse", "--in", str(f))
        assert code == 1 and stdout == ""
        assert err == "error: entry 0: int too large to convert to float\n"

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


# ---------------------------------------------------------------------------
# exit-code fuzz over the JSON inputs: config, sidecar, checkpoint, fuse input

_OTHER_VALUES = ["x", 0, 0.5, True, None, [], {}]


def _positions(doc, path=(), every=False):
    """Every position in a JSON document, as its keys from the top level; a
    long list contributes only its ends unless `every`."""
    yield path
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
        items = items if every or len(items) <= 2 else [items[0], items[-1]]
    else:
        return
    for key, value in items:
        yield from _positions(value, path + (key,), every)


def _field_names(target, path):
    """The names an error line may give the value at `path`: its own, that of
    the array or object holding it, or that of the one holding that (a declared
    size names the encoder spec it belongs to), as the input's messages spell
    them.  A checkpoint's model part names its fields without `model.` and its
    standardization part with its own prefix; a `fuse` entry is `entry i`."""
    def spelled(keys):
        if target == "fuse":
            entry, *field = keys
            return f"entry {entry}" + "".join(
                f": {('u', 'sigma', 'v')[k] if isinstance(k, int) else k}" for k in field)
        return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")

    parts = 1 if target == "checkpoint" and path[0] in ("model", "standardization") else 0
    chain = [path[:n] for n in (len(path), len(path) - 1, len(path) - 2) if n > parts]
    names = [spelled(keys[parts:]) for keys in chain] or [path[0]]
    # the config key `lr` sets TrainConfig's `learning_rate`, whose rule names it
    return names + ["learning_rate"] * (path == ("lr",))


@st.composite
def _mutated(draw, doc):
    """The text of `doc` with one key dropped, one value replaced by a value
    of another JSON type or nested in a list, the text truncated, or the top
    level replaced by a scalar or a list; with the mutation's kind and the
    position it changed (None for a truncation or a new top level)."""
    kind = draw(st.sampled_from(["drop", "swap", "nest", "truncate", "top"]))
    if kind == "truncate":
        text = json.dumps(doc)
        return kind, None, text[: draw(st.integers(0, len(text) - 1))]
    if kind == "top":
        return kind, None, json.dumps(draw(st.sampled_from([5, "x", None, False, [], [1, 2]])))
    doc = copy.deepcopy(doc)
    position = draw(st.sampled_from(list(_positions(doc))[1:]))
    *path, key = position
    parent = doc
    for k in path:
        parent = parent[k]
    if kind == "drop":
        del parent[key]
    elif kind == "nest":
        parent[key] = [parent[key]]
    else:
        parent[key] = draw(
            st.sampled_from([v for v in _OTHER_VALUES if type(v) is not type(parent[key])])
        )
    return kind, position, json.dumps(doc)


@pytest.fixture(scope="module")
def fuzz_inputs(pipeline, tmp_path_factory):
    """A valid document per JSON input, the file each is written to, and the
    command that reads that file."""
    data, run = pipeline
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(data, root / "data")
    ckpt, out = str(run / "checkpoint.json"), str(root / "out")
    train_config = {"lr": 0.001, "epochs": 1, "batch_size": 16, "lam": 0.5, "seed": 3,
                    "hidden": "4", "activation": "tanh", "freeze_encoders": False,
                    "keep_best": True}
    report_config = {"split": "val", "modality": 2, "sigma": 0.5, "noise_seed": 1,
                     "hist_bins": 8}
    return {
        "train-config": (train_config, root / "train.json",
                         ["train", "--data", str(data), "--out", out, "--epochs", "1",
                          "--config", str(root / "train.json")]),
        "report-config": (report_config, root / "report.json",
                          ["report", "--checkpoint", ckpt, "--data", str(data), "--out", out,
                           "--config", str(root / "report.json")]),
        "sidecar": (json.loads((data / "dataset.json").read_text()), root / "data" / "dataset.json",
                    ["evaluate", "--checkpoint", ckpt, "--data", str(root / "data"), "--out", out]),
        "checkpoint": (json.loads((run / "checkpoint.json").read_text()), root / "ckpt.json",
                       ["evaluate", "--checkpoint", str(root / "ckpt.json"), "--data", str(data),
                        "--out", out]),
        "fuse": ([{"u": 0, "sigma": 1, "v": 4}, [1, 2, 6]], root / "fuse.json",
                 ["fuse", "--in", str(root / "fuse.json")]),
    }


@pytest.mark.parametrize("target", ["train-config", "report-config", "sidecar", "checkpoint", "fuse"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_json_exits_with_one_error_line(fuzz_inputs, target, data):
    doc, path, argv = fuzz_inputs[target]
    kind, position, text = data.draw(_mutated(doc))
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
        # a parse error names no field; a drop, swap or nest names the one it changed
        if position is not None:
            assert any(name in lines[0] for name in _field_names(target, position)), (position, lines[0])
    else:
        assert err.getvalue() == ""


# Every value a census mutation writes: a number of each kind, each other JSON
# type, a list and an object each holding a value, and three edge numbers.
_CENSUS_VALUES = [5, 2.5, True, None, "s", [], {}, [7], {"a": 1}, -1, 0, 1e20]


def test_checkpoint_census_names_every_refused_field(tmp_path):
    """Each value of `_CENSUS_VALUES` at each position of a tiny checkpoint is
    accepted, or refused with exit code 1 and a message naming the field."""
    model = MultimodalClassifier(
        [EncoderSpec(2, (3,), "tanh"), EncoderSpec(3, (2, 2), "relu")], n_classes=2, seed=4
    )
    stats = Standardization([np.zeros(2), np.zeros(3)], [np.ones(2), np.ones(3)])
    doc = {"model": model.state_dict(), "standardization": stats.to_dict(), "config_hash": "0123"}
    path = tmp_path / "checkpoint.json"
    refused = 0
    for position in list(_positions(doc, every=True))[1:]:
        for value in _CENSUS_VALUES:
            mutated = copy.deepcopy(doc)
            *keys, key = position
            parent = mutated
            for k in keys:
                parent = parent[k]
            parent[key] = value
            path.write_text(json.dumps(mutated))
            try:
                evfuse.cli._load_checkpoint(path)
            except evfuse.cli.CliError as e:
                refused += 1
                assert e.code == 1
                assert any(name in str(e) for name in _field_names("checkpoint", position)), (
                    position, value, str(e))
    assert refused > 1000


# Every option of every command: the values that break one of its rules with no file
# read, as a `--config` object, each with that rule's message; or why it has none.
_PATH = "a path: the file is read once every value has been checked"
_WRITES = {"out": "a path: the output directory is created last",
           "config": "a path: the file holds values that are checked as flags are"}
_CHOICE = "argparse and `--config` check it against the flag's choices"
_SWITCH = "a switch: both of its values are valid"
_MODALITY = "its bound is the checkpoint's modality count"
OPTION_RULES = {
    "generate-data": {
        **_WRITES,
        "classes": [({"classes": 1}, "n_classes must be >= 2")],
        "per_class": [({"per_class": 0}, "n_per_class must be >= 1")],
        "dims": [({"dims": "0,4"}, "dims must be >= 1")],
        "sep": [({"sep": "3,-1"}, "separation must be finite and >= 0")],
        "seed": [({"seed": -1}, "seed must be >= 0, got -1")],
        "split": [({"split": "-5,10,10"}, "split_sizes must be >= 0")],
    },
    "train": {
        **_WRITES,
        "data": _PATH,
        "lr": [({"lr": 0}, "learning_rate must be finite and > 0, got 0.0")],
        "epochs": [({"epochs": -1}, "max_epochs must be >= 0")],
        "batch_size": [({"batch_size": 0}, "batch_size must be >= 1")],
        "lam": [({"lam": 2}, "lam must be in [0, 1]")],
        "seed": [({"seed": -1}, "seed must be >= 0, got -1")],
        "hidden": [({"hidden": "0"}, "hidden_dims must be one or more sizes >= 1, got [0]"),
                   ({"hidden": "0,4"}, "hidden_dims must be one or more sizes >= 1, got [0, 4]")],
        "activation": _CHOICE,
        "freeze_encoders": _SWITCH,
        "keep_best": _SWITCH,
    },
    "evaluate": {
        **_WRITES,
        "checkpoint": _PATH,
        "data": _PATH,
        "split": _CHOICE,
        "bins": [({"bins": 0}, "n_bins must be >= 1"),
                 ({"bins": 10**6 + 1}, "n_bins must be <= 1000000, got 1000001")],
    },
    "noise-sweep": {
        **_WRITES,
        "checkpoint": _PATH,
        "data": _PATH,
        "split": _CHOICE,
        "sigmas": [({"sigmas": "-1"}, "sigma must be finite and >= 0, got -1.0"),
                   ({"sigmas": "1,1"}, "noise sweep sigma 1.0 is repeated")],
        "modality": _MODALITY,
        "noise_seeds": [({"noise_seeds": "-1"}, "seed must be >= 0, got -1")],
    },
    "report": {
        **_WRITES,
        "checkpoint": _PATH,
        "data": _PATH,
        "split": _CHOICE,
        "modality": _MODALITY,
        "sigma": [({"sigma": 1}, "--sigma requires --modality"),
                  ({"modality": 1, "sigma": -1}, "sigma must be finite and >= 0, got -1.0")],
        "noise_seed": [({"noise_seed": -1}, "seed must be >= 0, got -1")],
        "hist_bins": [({"hist_bins": 0}, "n_hist_bins must be >= 1"),
                      ({"hist_bins": 10**6 + 1}, "n_hist_bins must be <= 1000000, got 1000001")],
    },
    "fuse": {"infile": _PATH},
}


def test_option_rules_name_every_option():
    subparsers = _subparsers()
    assert set(OPTION_RULES) == set(subparsers)
    for command, subparser in subparsers.items():
        assert set(OPTION_RULES[command]) == {a.dest for a in subparser._actions if a.dest != "help"}, command


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, dest, values, message", [
    pytest.param(command, dest, values, message, id=f"{command}-{dest}-{i}")
    for command, options in OPTION_RULES.items() for dest, cases in options.items()
    if not isinstance(cases, str) for i, (values, message) in enumerate(cases)
])
def test_value_refused_by_its_rule_before_any_file_is_read(tmp_path, capsys, source, command, dest,
                                                           values, message):
    """Each data-free bad value exits 1 with its rule's one line, given as flags or
    through `--config`, with the checkpoint and the dataset missing."""
    missing = str(tmp_path / "missing")
    argv = [command, *{"generate-data": [], "train": ["--data", missing]}.get(
        command, ["--checkpoint", f"{missing}/checkpoint.json", "--data", missing])]
    if source == "flag":
        flags = {a.dest: a.option_strings[0] for a in _subparsers()[command]._actions}
        argv += [f"{flags[key]}={value}" for key, value in values.items()]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps(values))
        argv += ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    code, stdout, err = _run(capsys, *argv, "--out", str(out))
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()
