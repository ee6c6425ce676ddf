"""Command-line front end: data generation, training, evaluation, sweeps.

Every command is deterministic given its flags (seeds are always explicit
flags).  Option values resolve as: command-line flag > `--config` JSON file
> built-in default.  All output files embed the run's config hash so
artifacts can be traced back to the exact configuration that produced them;
wall-clock timestamps live in a separate meta file and never enter the
deterministic outputs.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .data import (
    CsvSchema,
    Dataset,
    Standardization,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_sidecar,
    save_csv,
    save_sidecar,
    standardize,
)
from .distributions import QuadratureConvergenceError, StudentT
from .evaluation import (
    NoiseSpec,
    evaluate_model,
    noise_sweep,
    sweep_to_csv,
    uncertainty_density,
    write_json,
)
from .fusion import fuse_many, fused_prediction
from .model import (
    EncoderSpec,
    MultimodalClassifier,
    TrainConfig,
    TrainingDivergedError,
    config_hash,
    train,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for I/O
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message, EXIT_VALIDATION)


def _parse_tuple(text: str, n: int, kind, name: str):
    parts = [p for p in text.split(",") if p != ""]
    if n is not None and len(parts) != n:
        raise CliError(f"--{name} expects {n} comma-separated values", EXIT_VALIDATION)
    try:
        return tuple(kind(p) for p in parts)
    except ValueError:
        raise CliError(f"--{name}: could not parse {text!r}", EXIT_VALIDATION) from None


def _resolve(args, config_path, defaults: dict) -> dict:
    """Merge flag values over a JSON config file over built-in defaults."""
    merged = dict(defaults)
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as f:
                file_cfg = json.load(f)
        except OSError as e:
            raise CliError(f"cannot read config file: {e}", EXIT_IO) from None
        except json.JSONDecodeError as e:
            raise CliError(f"bad config file: {e}", EXIT_VALIDATION) from None
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise CliError(
                f"unknown config keys: {sorted(unknown)}", EXIT_VALIDATION
            )
        merged.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _outdir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot create output directory: {e}", EXIT_IO) from None
    return out


# ---------------------------------------------------------------------------
# dataset directory layout: train/val/test.csv plus a dataset.json sidecar


def _load_split(data_dir, split: str) -> tuple[Dataset, dict]:
    data_dir = Path(data_dir)
    sidecar_path = data_dir / "dataset.json"
    try:
        sidecar = load_sidecar(sidecar_path)
    except OSError as e:
        raise CliError(f"cannot read dataset sidecar: {e}", EXIT_IO) from None
    schema = CsvSchema(tuple(sidecar["dims"]), sidecar["n_classes"])
    csv_path = data_dir / f"{split}.csv"
    if not csv_path.exists():
        raise CliError(f"missing dataset file: {csv_path}", EXIT_IO)
    ds = load_csv(csv_path, schema)
    ds.split = split
    return ds, sidecar


def _load_checkpoint(path) -> tuple[MultimodalClassifier, Standardization, str]:
    """The model, its standardization and the run's config hash."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise CliError(f"cannot read checkpoint: {e}", EXIT_IO) from None
    except json.JSONDecodeError as e:
        raise CliError(f"corrupt checkpoint: {e}", EXIT_VALIDATION) from None
    try:
        model = MultimodalClassifier.from_state_dict(doc["model"])
        stats = Standardization.from_dict(
            doc["standardization"], [spec.input_dim for spec in model.encoder_specs]
        )
    except KeyError as e:
        raise CliError(f"bad checkpoint contents: missing key {e}", EXIT_VALIDATION) from None
    except (TypeError, ValueError) as e:
        raise CliError(f"bad checkpoint contents: {e}", EXIT_VALIDATION) from None
    return model, stats, doc.get("config_hash", "")


def _write_meta(out: Path, run_id: str) -> None:
    # wall-clock provenance lives here, outside the deterministic artifacts
    write_json(
        {"run_id": run_id, "written_at_unix": time.time(), "version": __version__},
        out / "run_meta.json",
    )


# ---------------------------------------------------------------------------
# commands


_GEN_DEFAULTS = {
    "classes": 3,
    "per_class": 200,
    "dims": "4,4",
    "sep": "3,3",
    "seed": 0,
    "split": None,
}


def cmd_generate_data(args) -> int:
    cfg = _resolve(args, args.config, _GEN_DEFAULTS)
    dims = _parse_tuple(str(cfg["dims"]), 2, int, "dims")
    sep = _parse_tuple(str(cfg["sep"]), 2, float, "sep")
    split = (
        _parse_tuple(str(cfg["split"]), 3, int, "split")
        if cfg["split"] is not None
        else None
    )
    try:
        spec = SyntheticSpec(
            n_classes=int(cfg["classes"]),
            n_per_class=int(cfg["per_class"]),
            dims=dims,
            separation=sep,
            seed=int(cfg["seed"]),
            split_sizes=split,
        )
    except ValueError as e:
        raise CliError(str(e), EXIT_VALIDATION) from None
    run_id = config_hash(
        {
            "command": "generate-data",
            "classes": spec.n_classes,
            "per_class": spec.n_per_class,
            "dims": list(spec.dims),
            "sep": list(spec.separation),
            "seed": spec.seed,
            "split": list(spec.split_sizes) if spec.split_sizes else None,
        }
    )
    out = _outdir(args.out)
    train_ds, val_ds, test_ds = generate_synthetic(spec)
    for name, ds in (("train", train_ds), ("val", val_ds), ("test", test_ds)):
        save_csv(ds, out / f"{name}.csv", comment=f"config_hash={run_id}")
    save_sidecar(out / "dataset.json", spec, run_id)
    _write_meta(out, run_id)
    print(f"wrote train/val/test CSVs and sidecar to {out} (run {run_id})")
    return EXIT_OK


_TRAIN_DEFAULTS = {
    "lr": 1e-4,
    "epochs": 100,
    "batch_size": 16,
    "lam": 0.5,
    "seed": 0,
    "hidden": "64",
    "activation": "tanh",
    "freeze_encoders": False,
    "keep_best": False,
}


def cmd_train(args) -> int:
    cfg = _resolve(args, args.config, _TRAIN_DEFAULTS)
    hidden = _parse_tuple(str(cfg["hidden"]), None, int, "hidden")
    try:
        tc = TrainConfig(
            learning_rate=float(cfg["lr"]),
            max_epochs=int(cfg["epochs"]),
            batch_size=int(cfg["batch_size"]),
            lam=float(cfg["lam"]),
            seed=int(cfg["seed"]),
            freeze_encoders=bool(cfg["freeze_encoders"]),
            keep_best=bool(cfg["keep_best"]),
        )
    except ValueError as e:
        raise CliError(str(e), EXIT_VALIDATION) from None

    train_raw, sidecar = _load_split(args.data, "train")
    val_raw, _ = _load_split(args.data, "val")
    (train_ds, val_ds), stats = standardize(train_raw, val_raw)

    try:
        specs = [
            EncoderSpec(d, hidden, str(cfg["activation"])) for d in sidecar["dims"]
        ]
        model = MultimodalClassifier(specs, sidecar["n_classes"], seed=tc.seed)
    except ValueError as e:
        raise CliError(str(e), EXIT_VALIDATION) from None

    full_cfg = {
        "command": "train",
        "data": {k: sidecar[k] for k in ("n_classes", "dims", "seed")},
        "lr": tc.learning_rate,
        "epochs": tc.max_epochs,
        "batch_size": tc.batch_size,
        "lam": tc.lam,
        "seed": tc.seed,
        "hidden": list(hidden),
        "activation": cfg["activation"],
        "freeze_encoders": tc.freeze_encoders,
        "keep_best": tc.keep_best,
    }
    run_id = config_hash(full_cfg)
    out = _outdir(args.out)

    model, record = train(model, train_ds, tc, val_dataset=val_ds)

    ckpt_path = out / "checkpoint.json"
    write_json(
        {
            "config_hash": run_id,
            "model": model.state_dict(),
            "standardization": stats.to_dict(),
            "train_config": record.to_dict()["config"],
        },
        ckpt_path,
    )
    artifact = {
        "run_id": run_id,
        "config": full_cfg,
        "seed": tc.seed,
        "epoch_losses": record.epoch_losses,
        "val_losses": record.val_losses,
        "best_epoch": record.best_epoch,
        "files": {"checkpoint": ckpt_path.name},
        "version": __version__,
    }
    write_json(artifact, out / "artifact.json")
    _write_meta(out, run_id)
    losses = record.epoch_losses
    arrow = f" (loss {losses[0]:.4f} -> {losses[-1]:.4f})" if losses else ""
    print(f"trained {tc.max_epochs} epochs{arrow}; checkpoint + artifact in {out} (run {run_id})")
    return EXIT_OK


_EVAL_DEFAULTS = {"split": "test", "bins": 10}


def cmd_evaluate(args) -> int:
    cfg = _resolve(args, args.config, _EVAL_DEFAULTS)
    model, stats, run_id = _load_checkpoint(args.checkpoint)
    ds = stats.apply(_load_split(args.data, str(cfg["split"]))[0])
    res = evaluate_model(model, ds, n_bins=int(cfg["bins"]))
    out = _outdir(args.out)
    doc = {
        "config_hash": run_id,
        "split": cfg["split"],
        "metrics": res.report.to_dict(),
    }
    write_json(doc, out / "metrics.json")
    with open(out / "reliability.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# config_hash={run_id}\n")
        f.write("bin,mean_confidence,accuracy,count\n")
        for b, (mc, acc_b, count) in enumerate(res.report.per_bin):
            f.write(f"{b},{mc!r},{acc_b!r},{count}\n")
    _write_meta(out, run_id)
    r = res.report
    print(
        f"{cfg['split']}: acc={r.acc:.4f} kappa={r.kappa:.4f} ece={r.ece:.4f} "
        f"(n={r.n_samples}); metrics in {out}"
    )
    return EXIT_OK


_SWEEP_DEFAULTS = {
    "split": "test",
    "sigmas": "0,0.1,0.3,0.5,1.0",
    "modality": 1,
    "noise_seeds": "0,1,2",
}


def cmd_noise_sweep(args) -> int:
    cfg = _resolve(args, args.config, _SWEEP_DEFAULTS)
    sigmas = _parse_tuple(str(cfg["sigmas"]), None, float, "sigmas")
    seeds = _parse_tuple(str(cfg["noise_seeds"]), None, int, "noise-seeds")
    modality = int(cfg["modality"])
    model, stats, run_id = _load_checkpoint(args.checkpoint)
    if not (1 <= modality <= model.n_modalities):
        raise CliError(
            f"--modality must be in [1, {model.n_modalities}]", EXIT_VALIDATION
        )
    ds = stats.apply(_load_split(args.data, str(cfg["split"]))[0])
    sweep = noise_sweep(model, ds, sigmas, modality - 1, seeds)
    out = _outdir(args.out)
    write_json({"config_hash": run_id, **sweep}, out / "sweep.json")
    sweep_to_csv(sweep, out / "sweep.csv", comment=f"config_hash={run_id}")
    _write_meta(out, run_id)
    print(
        f"swept {len(sigmas)} sigmas x {len(seeds)} seeds on modality {modality}; "
        f"tables in {out}"
    )
    return EXIT_OK


_REPORT_DEFAULTS = {
    "split": "test",
    "modality": None,
    "sigma": None,
    "noise_seed": 0,
    "hist_bins": 64,
}


def cmd_report(args) -> int:
    cfg = _resolve(args, args.config, _REPORT_DEFAULTS)
    model, stats, run_id = _load_checkpoint(args.checkpoint)
    ds = stats.apply(_load_split(args.data, str(cfg["split"]))[0])
    noise = None
    if cfg["sigma"] is not None:
        if cfg["modality"] is None:
            raise CliError("--sigma requires --modality", EXIT_VALIDATION)
        try:
            noise = NoiseSpec(
                int(cfg["modality"]) - 1, float(cfg["sigma"]), int(cfg["noise_seed"])
            )
        except ValueError as e:
            raise CliError(str(e), EXIT_VALIDATION) from None
    density = uncertainty_density(model, ds, noise, n_hist_bins=int(cfg["hist_bins"]))
    out = _outdir(args.out)
    write_json({"config_hash": run_id, **density}, out / "density.json")
    edges = density["bin_edges"]
    names = sorted(density["histograms"])
    with open(out / "density.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# config_hash={run_id}\n")
        f.write("bin_lo,bin_hi," + ",".join(names) + "\n")
        for i in range(len(edges) - 1):
            counts = ",".join(str(density["histograms"][n][i]) for n in names)
            f.write(f"{edges[i]!r},{edges[i + 1]!r},{counts}\n")
    _write_meta(out, run_id)
    print(f"uncertainty density tables in {out}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise CliError(f"cannot read input: {e}", EXIT_IO) from None
    except json.JSONDecodeError as e:
        raise CliError(f"bad JSON input: {e}", EXIT_VALIDATION) from None
    if not isinstance(doc, list) or not doc:
        raise CliError("input must be a non-empty JSON list", EXIT_VALIDATION)
    inputs = []
    for i, item in enumerate(doc):
        triple = None
        if isinstance(item, dict):
            triple = (item.get("u"), item.get("sigma"), item.get("v"))
        elif isinstance(item, list) and len(item) == 3:
            triple = tuple(item)
        if triple is None or any(t is None for t in triple):
            raise CliError(
                f"entry {i}: expected [u, sigma, v] or {{u, sigma, v}}",
                EXIT_VALIDATION,
            )
        try:
            inputs.append(StudentT(float(triple[0]), float(triple[1]), float(triple[2])))
        except (TypeError, ValueError) as e:
            raise CliError(f"entry {i}: {e}", EXIT_VALIDATION) from None
    try:
        fused = fuse_many(inputs)
        y_hat, uncertainty = fused_prediction(fused)
        out = {
            "u": fused.st.u,
            "sigma": fused.st.sigma,
            "v": fused.st.v,
            "source_index": fused.source_index,
            "y_hat": y_hat,
            "uncertainty": uncertainty,
        }
        text = json.dumps(out, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise CliError(f"fused result is not finite: {e}", EXIT_NUMERICAL) from None
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evfuse", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="JSON file with option defaults")

    p = sub.add_parser("generate-data", help="write synthetic two-modality CSVs")
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--dims", help="per-modality feature dims, e.g. 4,4")
    p.add_argument("--sep", help="per-modality class separations, e.g. 3,3")
    p.add_argument("--seed", type=int)
    p.add_argument("--split", help="explicit train,val,test sizes, e.g. 500,100,100")
    p.add_argument("--out", required=True)
    add_config(p)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train", help="train a classifier on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden", help="encoder hidden dims, e.g. 64 or 128,64")
    p.add_argument("--activation", choices=["relu", "tanh"])
    p.add_argument("--freeze-encoders", dest="freeze_encoders", action="store_const", const=True)
    p.add_argument("--keep-best", dest="keep_best", action="store_const", const=True)
    add_config(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test"])
    p.add_argument("--bins", type=int)
    p.add_argument("--out", required=True)
    add_config(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("noise-sweep", help="evaluate under per-modality noise")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test"])
    p.add_argument("--sigmas", help="comma-separated noise levels")
    p.add_argument("--modality", type=int, help="1-based corrupted modality")
    p.add_argument("--noise-seeds", dest="noise_seeds", help="comma-separated seeds")
    p.add_argument("--out", required=True)
    add_config(p)
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("report", help="emit uncertainty-density tables")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test"])
    p.add_argument("--modality", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--noise-seed", dest="noise_seed", type=int)
    p.add_argument("--hist-bins", dest="hist_bins", type=int)
    p.add_argument("--out", required=True)
    add_config(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fuse", help="fuse Student's t parameters from a JSON file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_fuse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TrainingDivergedError, QuadratureConvergenceError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
