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
    save_csv,
    standardize,
)
from .distributions import StudentT
from .evaluation import (
    NoiseSpec,
    evaluate_model,
    noise_sweep,
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
    """Comma-separated values; text without any value ("" or ",") is the
    empty tuple, which the caller's own checks reject."""
    parts = text.split(",") if text.strip(",") else []
    if "" in parts:
        raise CliError(f"--{name}: empty item in {text!r}", EXIT_VALIDATION)
    if n is not None and len(parts) != n:
        raise CliError(f"--{name} expects {n} comma-separated values", EXIT_VALIDATION)
    try:
        return tuple(kind(p) for p in parts)
    except ValueError:
        raise CliError(f"--{name}: could not parse {text!r}", EXIT_VALIDATION) from None


def _read_json(path, what: str, kind: type):
    """The JSON document at `path`, whose top level must be a `kind` (dict or
    list).  An unreadable file raises its OSError; text that is not JSON, or
    a top level of another type, exits 1 with an error naming `what`."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    # a JSONDecodeError, UnicodeDecodeError or too deep a nesting names no file
    except (ValueError, RecursionError) as e:
        raise CliError(f"bad {what}: {path}: {e}", EXIT_VALIDATION) from None
    if not isinstance(doc, kind):
        name = {dict: "object", list: "list"}[kind]
        raise CliError(
            f"bad {what}: {path}: expected a JSON {name}, got {type(doc).__name__}",
            EXIT_VALIDATION,
        )
    return doc


# The JSON values a config key takes, by the type of its flag (a switch is a
# bool): an integer flag takes only an integer, a float flag any finite number.
_CONFIG_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a finite number"),
    str: ((str,), "a string"),
}


def _resolve(args, defaults: dict) -> dict:
    """Merge flag values over the `--config` JSON object over built-in
    defaults.  A config value must have its flag's type (and be one of the
    flag's choices, if it has them); it may be null where the default is."""
    merged = dict(defaults)
    if args.config is not None:
        file_cfg = _read_json(args.config, "config file", dict)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}", EXIT_VALIDATION)
        for key, val in file_cfg.items():
            if val is None and defaults[key] is None:
                continue
            flag = args.flags[key]
            types, want = _CONFIG_TYPES[bool if flag.const is True else flag.type or str]
            if flag.choices:
                want = f"one of {', '.join(flag.choices)}"
            # `not <=` also rejects NaN, and an integer too large for a float
            if (type(val) not in types or flag.choices and val not in flag.choices
                    or flag.type is float and not abs(val) <= sys.float_info.max):
                raise CliError(
                    f"config {key}: expected {want}, got {json.dumps(val)}", EXIT_VALIDATION
                )
        merged.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# dataset directory layout: train/val/test.csv plus a dataset.json sidecar


def _load_splits(data_dir, *splits: str) -> tuple[dict, list[Dataset]]:
    """The dataset directory's sidecar and the named splits."""
    data_dir = Path(data_dir)
    sidecar = _read_json(data_dir / "dataset.json", "dataset sidecar", dict)
    dims, n_classes = sidecar.get("dims"), sidecar.get("n_classes")
    if not (isinstance(dims, list) and dims and all(type(d) is int and d >= 1 for d in dims)):
        raise CliError(
            "bad dataset sidecar: dims must be a non-empty list of positive integers",
            EXIT_VALIDATION,
        )
    if not (type(n_classes) is int and n_classes >= 2):
        raise CliError("bad dataset sidecar: n_classes must be an integer >= 2", EXIT_VALIDATION)
    schema = CsvSchema(tuple(dims), n_classes)
    datasets = []
    for split in splits:
        ds = load_csv(data_dir / f"{split}.csv", schema)
        ds.split = split
        datasets.append(ds)
    return sidecar, datasets


def _load_checkpoint(path) -> tuple[MultimodalClassifier, Standardization, str]:
    """The model, its standardization and the run's config hash."""
    doc = _read_json(path, "checkpoint", dict)
    try:
        model = MultimodalClassifier.from_state_dict(doc["model"])
        stats = Standardization.from_dict(
            doc["standardization"], [spec.input_dim for spec in model.encoder_specs]
        )
    except KeyError as e:
        raise CliError(f"bad checkpoint contents: missing key {e}", EXIT_VALIDATION) from None
    # AttributeError: a JSON value other than an object where one is expected
    except (AttributeError, TypeError, ValueError) as e:
        raise CliError(f"bad checkpoint contents: {e}", EXIT_VALIDATION) from None
    run_id = doc.get("config_hash", "")
    if not isinstance(run_id, str):
        raise CliError("bad checkpoint contents: config_hash must be a string", EXIT_VALIDATION)
    return model, stats, run_id


def _scoring_inputs(args, defaults: dict):
    """What `evaluate`, `noise-sweep` and `report` read: the resolved options,
    the checkpoint's model, its standardized `split` and the run's config
    hash.  A 1-based `modality` option, where set, must be in [1, M], and
    the dataset's modality dims and class count must be the model's."""
    cfg = _resolve(args, defaults)
    model, stats, run_id = _load_checkpoint(args.checkpoint)
    modality = cfg.get("modality")
    if modality is not None and not 1 <= modality <= model.n_modalities:
        raise CliError(f"--modality must be in [1, {model.n_modalities}]", EXIT_VALIDATION)
    sidecar, (ds,) = _load_splits(args.data, cfg["split"])
    dims = [spec.input_dim for spec in model.encoder_specs]
    if sidecar["dims"] != dims:
        raise CliError(
            f"dataset dims {sidecar['dims']} do not match the checkpoint's input dims {dims}",
            EXIT_VALIDATION,
        )
    if sidecar["n_classes"] != model.n_classes:
        raise CliError(
            f"dataset n_classes {sidecar['n_classes']} does not match the checkpoint's "
            f"n_classes {model.n_classes}",
            EXIT_VALIDATION,
        )
    return cfg, model, stats.apply(ds), run_id


def _write_table(path, run_id: str, header, rows) -> None:
    """A CSV artifact: the `# config_hash=` line, the header, then the rows,
    a float cell as its `repr` and any other cell as its `str`."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# config_hash={run_id}\n" + ",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(c) if isinstance(c, float) else str(c) for c in row) + "\n")


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
    cfg = _resolve(args, _GEN_DEFAULTS)
    spec = SyntheticSpec(
        n_classes=cfg["classes"],
        n_per_class=cfg["per_class"],
        dims=_parse_tuple(cfg["dims"], None, int, "dims"),
        separation=_parse_tuple(cfg["sep"], None, float, "sep"),
        seed=cfg["seed"],
        split_sizes=(
            _parse_tuple(cfg["split"], 3, int, "split") if cfg["split"] is not None else None
        ),
    )
    dims, sep = list(spec.dims), list(spec.separation)
    split = list(spec.split_sizes) if spec.split_sizes else None
    run_id = config_hash(
        {
            "command": "generate-data",
            "classes": spec.n_classes,
            "per_class": spec.n_per_class,
            "dims": dims,
            "sep": sep,
            "seed": spec.seed,
            "split": split,
        }
    )
    out = _outdir(args.out)
    train_ds, val_ds, test_ds = generate_synthetic(spec)
    for name, ds in (("train", train_ds), ("val", val_ds), ("test", test_ds)):
        save_csv(ds, out / f"{name}.csv", comment=f"config_hash={run_id}")
    sidecar = {"n_classes": spec.n_classes, "n_per_class": spec.n_per_class, "dims": dims,
               "separation": sep, "seed": spec.seed, "split_sizes": split, "config_hash": run_id}
    write_json(sidecar, out / "dataset.json")
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
    cfg = _resolve(args, _TRAIN_DEFAULTS)
    hidden = _parse_tuple(cfg["hidden"], None, int, "hidden")
    tc = TrainConfig(
        learning_rate=float(cfg["lr"]),
        max_epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        lam=float(cfg["lam"]),
        seed=cfg["seed"],
        freeze_encoders=cfg["freeze_encoders"],
        keep_best=cfg["keep_best"],
    )

    sidecar, (train_raw, val_raw) = _load_splits(args.data, "train", "val")
    (train_ds, val_ds), stats = standardize(train_raw, val_raw)

    specs = [EncoderSpec(d, hidden, cfg["activation"]) for d in sidecar["dims"]]
    model = MultimodalClassifier(specs, sidecar["n_classes"], seed=tc.seed)

    full_cfg = {
        "command": "train",
        "data": {k: sidecar.get(k) for k in ("n_classes", "dims", "seed")},
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
    cfg, model, ds, run_id = _scoring_inputs(args, _EVAL_DEFAULTS)
    r = evaluate_model(model, ds, n_bins=cfg["bins"]).report
    out = _outdir(args.out)
    write_json({"config_hash": run_id, "split": cfg["split"], "metrics": r.to_dict()},
               out / "metrics.json")
    _write_table(
        out / "reliability.csv", run_id, ("bin", "mean_confidence", "accuracy", "count"),
        ((b, *cells) for b, cells in enumerate(r.per_bin)),
    )
    _write_meta(out, run_id)
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
    cfg, model, ds, run_id = _scoring_inputs(args, _SWEEP_DEFAULTS)
    sigmas = _parse_tuple(cfg["sigmas"], None, float, "sigmas")
    seeds = _parse_tuple(cfg["noise_seeds"], None, int, "noise-seeds")
    sweep = noise_sweep(model, ds, sigmas, cfg["modality"] - 1, seeds)
    out = _outdir(args.out)
    write_json({"config_hash": run_id, **sweep}, out / "sweep.json")
    cols = list(sweep["rows"][0])
    _write_table(out / "sweep.csv", run_id, cols, ([r[c] for c in cols] for r in sweep["rows"]))
    _write_meta(out, run_id)
    print(
        f"swept {len(sigmas)} sigmas x {len(seeds)} seeds on modality {cfg['modality']}; "
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
    cfg, model, ds, run_id = _scoring_inputs(args, _REPORT_DEFAULTS)
    noise = None
    if cfg["sigma"] is not None:
        if cfg["modality"] is None:
            raise CliError("--sigma requires --modality", EXIT_VALIDATION)
        noise = NoiseSpec(cfg["modality"] - 1, float(cfg["sigma"]), cfg["noise_seed"])
    density = uncertainty_density(model, ds, noise, n_hist_bins=cfg["hist_bins"])
    out = _outdir(args.out)
    write_json({"config_hash": run_id, **density}, out / "density.json")
    edges, names = density["bin_edges"], sorted(density["histograms"])
    _write_table(
        out / "density.csv", run_id, ("bin_lo", "bin_hi", *names),
        zip(edges[:-1], edges[1:], *(density["histograms"][n] for n in names)),
    )
    _write_meta(out, run_id)
    print(f"uncertainty density tables in {out}")
    return EXIT_OK


# The fusion's tail correction multiplies two degrees of freedom, which
# overflows once v passes about 1.3e154; `fuse` accepts v up to this bound.
FUSE_MAX_V = 1e150


def cmd_fuse(args) -> int:
    doc = _read_json(args.infile, "fuse input", list)
    if not doc:
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
        except (TypeError, ValueError, OverflowError) as e:
            raise CliError(f"entry {i}: {e}", EXIT_VALIDATION) from None
        if inputs[-1].v > FUSE_MAX_V:
            raise CliError(
                f"entry {i}: v must be at most {FUSE_MAX_V:g}, got {inputs[-1].v!r}",
                EXIT_VALIDATION,
            )
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

    def command(name, func, help, scores=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if scores:  # reads a checkpoint and scores one split of a dataset
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--data", required=True)
            p.add_argument("--split", choices=["train", "val", "test"])
        return p

    p = command("generate-data", cmd_generate_data, "write synthetic CSVs with one or more modalities")
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--dims", help="feature dims, one per modality, e.g. 4,4")
    p.add_argument("--sep", help="class separations, one per modality, e.g. 3,3")
    p.add_argument("--seed", type=int)
    p.add_argument("--split", help="explicit train,val,test sizes, e.g. 500,100,100")

    p = command("train", cmd_train, "train a classifier on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden", help="encoder hidden dims, e.g. 64 or 128,64")
    p.add_argument("--activation", choices=["relu", "tanh"])
    p.add_argument("--freeze-encoders", dest="freeze_encoders", action="store_const", const=True)
    p.add_argument("--keep-best", dest="keep_best", action="store_const", const=True)

    p = command("evaluate", cmd_evaluate, "score a checkpoint on one split", scores=True)
    p.add_argument("--bins", type=int)

    p = command("noise-sweep", cmd_noise_sweep, "evaluate under per-modality noise", scores=True)
    p.add_argument("--sigmas", help="comma-separated noise levels")
    p.add_argument("--modality", type=int, help="1-based corrupted modality")
    p.add_argument("--noise-seeds", dest="noise_seeds", help="comma-separated seeds")

    p = command("report", cmd_report, "emit uncertainty-density tables", scores=True)
    p.add_argument("--modality", type=int, help="1-based noised modality")
    p.add_argument("--sigma", type=float)
    p.add_argument("--noise-seed", dest="noise_seed", type=int)
    p.add_argument("--hist-bins", dest="hist_bins", type=int)

    # every command but `fuse` writes a directory and takes option defaults,
    # whose config values `_resolve` checks against these flags
    for p in sub.choices.values():
        p.add_argument("--out", required=True)
        p.add_argument("--config", help="JSON file with option defaults")
        p.set_defaults(flags={a.dest: a for a in p._actions})

    p = command("fuse", cmd_fuse, "fuse Student's t parameters from a JSON file")
    p.add_argument("--in", dest="infile", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        err, code = e, e.code
    except ValueError as e:
        err, code = e, EXIT_VALIDATION
    except (TrainingDivergedError, FloatingPointError) as e:
        err, code = e, EXIT_NUMERICAL
    except OSError as e:
        err, code = e, EXIT_IO
    print(f"error: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
