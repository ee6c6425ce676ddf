"""The benchmark's workloads: set-up, one timed operation, and output checks.

Each workload draws every input from its seed.  `setup()` builds the inputs
and is timed on its own; `op()` is the unit whose wall time is reported;
`check()` verifies the op's outputs outside the timed region and returns the
number of ops attempted, how many of them failed, and what failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from evfuse import cli
from evfuse.data import CsvSchema, Dataset, SyntheticSpec, generate_synthetic, load_csv, standardize
from evfuse.evaluation import accuracy, evaluate_model, noise_sweep
from evfuse.model import EncoderSpec, MultimodalClassifier, TrainConfig, train

# the tests/conftest.py reference recipe, with the workload seed in place of 42
N_CLASSES = 3
DIMS = (6, 6)
SEPARATION = (3.0, 3.0)
REF_SPLIT = (500, 100, 100)
HIDDEN = (64,)

SIGMAS = (0.0, 0.1, 0.3, 0.5, 1.0)
NOISY_MODALITY = 0  # "modality 1" in the CLI's 1-based numbering
FUSE_INPUT = [[0, 1, 4], [1, 2, 6]]  # README anchor: sigma 1.25, uncertainty 2.5

# Criterion 6 of tests/test_acceptance.py fixes acc >= 0.90 and ECE <= 0.15 at
# seed 42 on 100 test rows.  Across seeds 0-99 the seed code scores 0.84-1.00,
# so the 0.90 floor is reported as a finding and the gate is set well above
# the 1/3 chance level instead.  ECE <= 0.15 held on every probed seed.
ACC_GATE = 0.75
CRITERION6_ACC = 0.90
ECE_GATE = 0.15
# Criterion 7 asks the fused accuracy drop at sigma 1.0 to stay below half the
# corrupted modality's own drop.  At 100k rows many seeds miss that factor, so
# the ratio is reported as a finding, not counted as a failed op.
CRITERION7_RATIO = 0.5


@dataclass(frozen=True)
class Sizes:
    epochs: int = 100
    sweep_rows: int = 100_000
    cli_rows: int = 100_000
    forward_check_rows: int = 1000
    # the reference set-up takes under a millisecond: time it many times,
    # some before the ops and some between them, so that its median covers
    # the same swings of host speed as the ops do
    train_setups: int = 11
    train_setups_per_op: int = 4
    setups: int = 3


FULL = Sizes()
TINY = Sizes(epochs=2, sweep_rows=300, cli_rows=300, forward_check_rows=10, train_setups=1, train_setups_per_op=1, setups=1)


def median(values):
    return statistics.median(values) if values else math.nan


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def checkpoint_sha256(model: MultimodalClassifier) -> str:
    # the same bytes MultimodalClassifier.save writes
    return hashlib.sha256(json.dumps(model.state_dict()).encode("utf-8")).hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _large_spec(seed: int, n_test: int) -> SyntheticSpec:
    # one generate_synthetic call makes train, val and the large test split:
    # modality-2 class means depend on the total row count
    total = REF_SPLIT[0] + REF_SPLIT[1] + n_test
    return SyntheticSpec(
        n_classes=N_CLASSES,
        n_per_class=-(-total // N_CLASSES),
        dims=DIMS,
        separation=SEPARATION,
        seed=seed,
        split_sizes=(REF_SPLIT[0], REF_SPLIT[1], n_test),
    )


def _new_model(seed: int) -> MultimodalClassifier:
    return MultimodalClassifier([EncoderSpec(d, HIDDEN, "tanh") for d in DIMS], N_CLASSES, seed=seed)


class Workload:
    name = ""
    ops_per_op = 1  # counted operations in one op()
    # timed next to every op; see reference.py
    reference_kernel = staticmethod(reference.small_batch)

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.findings: dict[str, object] = {}  # reported, not gated

    @property
    def setup_repeats(self) -> int:
        """Timed set-ups before the first op."""
        return self.sizes.setups

    @property
    def setups_per_op(self) -> int:
        """Timed set-ups before each op, besides those before the first."""
        return 0

    @property
    def steps_per_op(self) -> int:
        """Adam steps in one op (the base of `calls_per_step`)."""
        return 0

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, in_process: bool = False) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> tuple[int, int, list[str]]:
        raise NotImplementedError

    def final_check(self) -> tuple[int, int, list[str]]:
        """Run-level checks, counted as ops of their own; none by default."""
        return 0, 0, []

    def layer_extras(self) -> dict[str, float]:
        """Per-layer values measured outside the traced calls."""
        return {}

    def end_to_end(self, outs: list[dict]) -> dict[str, float]:
        """Workload-specific end-to-end values besides setup_s and op_rel."""
        raise NotImplementedError

    def named_metrics(self, outs: list[dict]) -> dict[str, tuple[float, str]]:
        """The workload's own metrics by their descriptive names, for the report."""
        raise NotImplementedError


class TrainRef(Workload):
    name = "train-ref"

    first_sha = None  # checkpoint sha256 of the run's first op

    @property
    def setup_repeats(self) -> int:
        return self.sizes.train_setups

    @property
    def setups_per_op(self) -> int:
        return self.sizes.train_setups_per_op

    @property
    def steps_per_op(self) -> int:
        return self.sizes.epochs * -(-REF_SPLIT[0] // TrainConfig.batch_size)

    def setup(self) -> None:
        spec = SyntheticSpec(N_CLASSES, 234, DIMS, SEPARATION, self.seed, REF_SPLIT)
        (self.train_ds, self.val_ds, self.test_ds), _ = standardize(*generate_synthetic(spec))

    def op(self, in_process: bool = False) -> dict:
        model = _new_model(self.seed)
        config = TrainConfig(seed=self.seed, max_epochs=self.sizes.epochs)
        t0 = time.perf_counter()
        model, record = train(model, self.train_ds, config, val_dataset=self.val_ds)
        return {"op_s": time.perf_counter() - t0, "model": model, "record": record}

    def check(self, out: dict) -> tuple[int, int, list[str]]:
        record, model = out["record"], out.pop("model")
        res = evaluate_model(model, self.test_ds)
        out["test_acc"] = res.report.acc
        sha = checkpoint_sha256(model)
        if self.first_sha is None:
            self.first_sha = sha
        labels = self.test_ds.labels
        fails = []
        losses = record.epoch_losses
        if not (len(losses) == self.sizes.epochs and all(math.isfinite(x) for x in losses)):
            fails.append("epoch losses missing or not finite")
        elif not losses[-1] <= losses[0]:
            fails.append(f"last epoch loss {losses[-1]} above first {losses[0]}")
        if res.report.acc != float(np.mean(res.preds == labels)):
            fails.append("reported accuracy differs from predictions")
        if not res.report.acc >= ACC_GATE:
            fails.append(f"test accuracy {res.report.acc} below {ACC_GATE}")
        if not res.report.ece <= ECE_GATE:
            fails.append(f"test ECE {res.report.ece} above {ECE_GATE}")
        if sha != self.first_sha:
            fails.append("checkpoint bytes differ between runs of the same seed")
        self.findings.update(
            checkpoint_sha256=sha,
            criterion6_acc_floor=f"acc {res.report.acc} {'>=' if res.report.acc >= CRITERION6_ACC else '<'} {CRITERION6_ACC}",
        )
        return 1, int(bool(fails)), fails

    def end_to_end(self, outs):
        return {
            "peak_rss_mb": self_peak_rss_mb(),
            "test_acc": median([o["test_acc"] for o in outs]),
        }

    def named_metrics(self, outs):
        return {"train_s": (median([o["op_s"] for o in outs]), "s")}


class EvalSweep(Workload):
    name = "eval-sweep"
    ops_per_op = len(SIGMAS) * 2
    reference_kernel = staticmethod(reference.large_array)

    def setup(self) -> None:
        train_raw, val_raw, test_raw = generate_synthetic(_large_spec(self.seed, self.sizes.sweep_rows))
        (train_ds, val_ds, self.test_ds), _ = standardize(train_raw, val_raw, test_raw)
        model = _new_model(self.seed)
        self.model, _ = train(model, train_ds, TrainConfig(seed=self.seed, max_epochs=self.sizes.epochs), val_dataset=val_ds)
        self.clean = evaluate_model(self.model, self.test_ds)
        rng = np.random.default_rng(self.seed)
        self.noise_seeds = tuple(int(s) for s in rng.integers(0, 2**31 - 1, size=2))

    def op(self, in_process: bool = False) -> dict:
        t0 = time.perf_counter()
        sweep = noise_sweep(self.model, self.test_ds, SIGMAS, NOISY_MODALITY, self.noise_seeds)
        dt = time.perf_counter() - t0
        rows = len(SIGMAS) * len(self.noise_seeds) * len(self.test_ds)
        return {"op_s": dt, "rows_per_s": rows / dt, "sweep": sweep}

    def _clean_row(self) -> dict:
        c = self.clean
        row = {
            "acc": c.report.acc,
            "kappa": c.report.kappa,
            "ece": c.report.ece,
            "mean_unc_fused": float(c.fused_uncertainty.mean()),
        }
        for m in range(self.model.n_modalities):
            row[f"mean_unc_m{m + 1}"] = float(c.modality_uncertainty[m].mean())
            row[f"mean_ep_m{m + 1}"] = float(c.modality_epistemic[m].mean())
            row[f"acc_m{m + 1}"] = accuracy(c.modality_preds[m], self.test_ds.labels)
        return row

    def check(self, out: dict) -> tuple[int, int, list[str]]:
        rows = out.pop("sweep")["rows"]
        expected = [(s, n) for s in SIGMAS for n in self.noise_seeds]
        if [(r["sigma"], r["seed"]) for r in rows] != expected:
            return self.ops_per_op, self.ops_per_op, [f"sweep rows {len(rows)} do not cover sigmas x seeds"]
        clean = self._clean_row()
        untouched = [k for k in clean if k.endswith(f"_m{NOISY_MODALITY + 2}")]
        failed = {}
        for i, r in enumerate(rows):
            bad = [k for k in clean if not math.isfinite(r[k])]
            if r["sigma"] == 0.0:
                bad += [k for k in clean if r[k] != clean[k]]
            # the clean modality's readouts must not move when modality 1 is noised
            bad += [k for k in untouched if r[k] != clean[k]]
            if bad:
                failed[i] = f"sigma {r['sigma']} seed {r['seed']}: {sorted(set(bad))} wrong"
        noisy = [r for r in rows if r["sigma"] == SIGMAS[-1]]
        acc_key = f"acc_m{NOISY_MODALITY + 1}"
        uni_drop = clean[acc_key] - statistics.fmean(r[acc_key] for r in noisy)
        fused_drop = clean["acc"] - statistics.fmean(r["acc"] for r in noisy)
        if not uni_drop > 0:
            for i, r in enumerate(rows):
                if r["sigma"] == SIGMAS[-1]:
                    failed.setdefault(i, f"noise at sigma {r['sigma']} did not lower modality {NOISY_MODALITY + 1}")
        ratio = fused_drop / uni_drop if uni_drop > 0 else math.inf
        self.findings.update(
            criterion7_shield_ratio=f"fused drop {fused_drop:.4f} / modality-1 drop {uni_drop:.4f} = {ratio:.3f}"
            f" ({'<' if ratio < CRITERION7_RATIO else '>='} {CRITERION7_RATIO})",
        )
        return self.ops_per_op, len(failed), list(failed.values())

    def final_check(self) -> tuple[int, int, list[str]]:
        n = min(self.sizes.forward_check_rows, len(self.test_ds))
        single = [
            self.model.forward([x[i] for x in self.test_ds.features]).predicted_class for i in range(n)
        ]
        batch = self.clean.preds[:n].tolist()
        mismatched = sum(a != b for a, b in zip(single, batch))
        if mismatched:
            return 1, 1, [f"{mismatched} of {n} single-sample predictions differ from the batch"]
        return 1, 0, []

    def end_to_end(self, outs):
        return {
            "peak_rss_mb": self_peak_rss_mb(),
            "test_acc": self.clean.report.acc,
        }

    def named_metrics(self, outs):
        return {"sweep_rows_per_s": (median([o["rows_per_s"] for o in outs]), "rows/s")}


class CliRoundtrip(Workload):
    name = "cli-roundtrip"
    ops_per_op = 3
    reference_kernel = staticmethod(reference.text_and_array)

    def _gen_argv(self, out: Path) -> list[str]:
        spec = _large_spec(self.seed, self.sizes.cli_rows)
        return [
            "generate-data", "--classes", str(spec.n_classes), "--per-class", str(spec.n_per_class),
            "--dims", ",".join(map(str, spec.dims)), "--sep", ",".join(map(str, spec.separation)),
            "--seed", str(self.seed), "--split", ",".join(map(str, spec.split_sizes)), "--out", str(out),
        ]

    def _cli(self, argv: list[str], in_process: bool) -> tuple[int, str, float]:
        """Run one evfuse command; returns (exit code, stdout, wall seconds)."""
        t0 = time.perf_counter()
        if in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue(), time.perf_counter() - t0
        proc = subprocess.run(
            [sys.executable, "-m", "evfuse.cli", *argv],
            capture_output=True, text=True, timeout=150, env=child_env(), cwd=self.workdir,
        )
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout, dt

    def setup(self) -> None:
        base = self.workdir / "setup"
        shutil.rmtree(base, ignore_errors=True)
        self.data = base / "data"
        self.run = base / "run"
        for argv in (self._gen_argv(self.data), ["train", "--data", str(self.data), "--out", str(self.run),
                                                 "--seed", str(self.seed), "--epochs", str(self.sizes.epochs)]):
            code, _, _ = self._cli(argv, in_process=False)
            if code != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {code}")
        self.csv_sha = {p.name: file_sha256(p) for p in sorted(self.data.glob("*.csv"))}
        ckpt = json.loads((self.run / "checkpoint.json").read_text(encoding="utf-8"))
        model = MultimodalClassifier.from_state_dict(ckpt["model"])
        raw = load_csv(self.data / "test.csv", CsvSchema(DIMS, N_CLASSES))
        stats = ckpt["standardization"]
        feats = [(x - np.array(m)) / np.array(s) for x, m, s in zip(raw.features, stats["mean"], stats["std"])]
        self.ref_acc = evaluate_model(model, Dataset(feats, raw.labels)).report.acc
        self.fuse_in = base / "in.json"
        self.fuse_in.write_text(json.dumps(FUSE_INPUT), encoding="utf-8")
        self.findings["checkpoint_sha256"] = file_sha256(self.run / "checkpoint.json")

    def op(self, in_process: bool = False) -> dict:
        rnd = self.workdir / "round"
        shutil.rmtree(rnd, ignore_errors=True)
        out = {"dir": rnd}
        for key, argv in (
            ("generate", self._gen_argv(rnd / "data")),
            ("evaluate", ["evaluate", "--checkpoint", str(self.run / "checkpoint.json"),
                          "--data", str(rnd / "data"), "--split", "test", "--out", str(rnd / "eval")]),
            ("fuse", ["fuse", "--in", str(self.fuse_in)]),
        ):
            out[key] = self._cli(argv, in_process)
        out["op_s"] = sum(out[k][2] for k in ("generate", "evaluate", "fuse"))
        return out

    def check(self, out: dict) -> tuple[int, int, list[str]]:
        rnd = out.pop("dir")
        fails = [f"{k} exited {out[k][0]}" for k in ("generate", "evaluate", "fuse") if out[k][0] != 0]
        if out["generate"][0] == 0:
            got = {p.name: file_sha256(p) for p in sorted((rnd / "data").glob("*.csv"))}
            if got != self.csv_sha:
                fails.append("regenerated CSVs differ from the set-up ones")
        if out["evaluate"][0] == 0:
            metrics = json.loads((rnd / "eval" / "metrics.json").read_text(encoding="utf-8"))["metrics"]
            out["test_acc"] = metrics["acc"]
            if metrics["acc"] != self.ref_acc:
                fails.append(f"metrics.json acc {metrics['acc']} != in-process {self.ref_acc}")
        if out["fuse"][0] == 0:
            try:
                fused = json.loads(out["fuse"][1])
                ok = math.isclose(fused["sigma"], 1.25, rel_tol=1e-12) and math.isclose(
                    fused["uncertainty"], 2.5, rel_tol=1e-12
                )
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                fails.append(f"fuse printed {out['fuse'][1].strip()!r}, expected sigma 1.25, uncertainty 2.5")
        # each invocation contributes at most one message
        return self.ops_per_op, len(fails), fails

    def layer_extras(self) -> dict[str, float]:
        def fresh(code: str) -> tuple[float, str]:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  timeout=60, env=child_env(), cwd=self.workdir, check=True)
            return time.perf_counter() - t0, proc.stdout

        bare = [fresh("pass")[0] for _ in range(5)]
        probe = "import time; t = time.perf_counter(); import evfuse.cli; print(time.perf_counter() - t)"
        imports = [float(fresh(probe)[1]) for _ in range(5)]
        return {"cli.interpreter_s": median(bare), "cli.import_s": median(imports)}

    def end_to_end(self, outs):
        return {
            "peak_rss_mb": children_peak_rss_mb(),
            "test_acc": median([o["test_acc"] for o in outs if "test_acc" in o]),
        }

    def named_metrics(self, outs):
        return {
            "cli_generate_s": (median([o["generate"][2] for o in outs]), "s"),
            "cli_evaluate_s": (median([o["evaluate"][2] for o in outs]), "s"),
            "cli_cold_start_s": (median([o["fuse"][2] for o in outs]), "s"),
        }


WORKLOADS = {w.name: w for w in (TrainRef, EvalSweep, CliRoundtrip)}


def src_dir() -> Path:
    return Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """The bench's environment (one BLAS thread) with evfuse importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src_dir()), env.get("PYTHONPATH")) if p)
    return env
