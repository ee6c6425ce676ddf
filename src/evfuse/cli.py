"""Command-line front end: data generation, training, evaluation, sweeps.

Every command is deterministic given its flags (seeds are always explicit
flags).  Each option's built-in default is on its flag, read from the library
where it holds one, and the library's rules check each value before any file
is opened, but for `--modality`'s upper bound; a `--config` JSON file's values
become the command's defaults, which flags given on the command line override.
All output files embed the run's config hash so artifacts can be traced back
to the exact configuration that produced them; wall-clock timestamps live in a
separate meta file and never enter the deterministic outputs.

Exit codes: 0 success, 1 validation error (an array too large for numpy
to allocate included), 2 I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    CsvSchema,
    Standardization,
    SyntheticSpec,
    check_json,
    generate_synthetic,
    load_csv,
    save_csv,
    standardize,
)
from .distributions import StudentT
from .evaluation import (
    N_BINS,
    N_HIST_BINS,
    NoiseSpec,
    _check_bins,
    _sweep_specs,
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
    _check_model_sizes,
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


def _parse_tuple(flag: str, kind, n: int | None = None):
    """A list flag's `type`: comma-separated values of `kind` (`n` of them if
    given); "" or "," is the empty tuple, which the command rejects.  argparse
    also parses a `--config` string through it and does not catch CliError."""
    def parse(text: str) -> tuple:
        parts = text.split(",") if text.strip(",") else []
        if "" in parts:
            raise CliError(f"{flag}: empty item in {text!r}", EXIT_VALIDATION)
        if n is not None and len(parts) != n:
            raise CliError(f"{flag} expects {n} comma-separated values", EXIT_VALIDATION)
        try:
            return tuple(kind(p) for p in parts)
        except ValueError:
            raise CliError(f"{flag}: could not parse {text!r}", EXIT_VALIDATION) from None
    return parse


def _read_json(path, what: str, shape):
    """The JSON document at `path`, checked against its declared `shape`
    (`check_json`).  An unreadable file raises its OSError; text that is not
    JSON exits 1 with an error naming `what` and the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    # a JSONDecodeError, UnicodeDecodeError or too deep a nesting names no file
    except (ValueError, RecursionError) as e:
        raise CliError(f"bad {what}: {path}: {e}", EXIT_VALIDATION) from None
    check_json(doc, shape, what)
    return doc


def _options(subparser) -> dict:
    """A command's options, its flags by dest: all but the required ones,
    --help and --config.  A `--config` file may set any of them."""
    return {a.dest: a for a in subparser._actions
            if not a.required and a.dest not in ("help", "config")}


def _config_defaults(path, options: dict) -> dict:
    """The `--config` JSON object at `path`, checked against the command's
    `options`.  A value must have its flag's JSON type (true or false for a
    switch, a string for a list flag) and be one of the flag's choices, if it
    has them; it may be null where the flag's default is.  A float flag's
    value must be finite, and is read as a float."""
    file_cfg = _read_json(path, "config", dict)
    unknown = set(file_cfg) - set(options)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}", EXIT_VALIDATION)
    for key, val in file_cfg.items():
        flag = options[key]
        if val is None and flag.default is None:
            continue
        check_json(val, bool if flag.nargs == 0 else flag.type if flag.type in (int, float) else str,
                   f"config {key}")
        # `not <=` also rejects NaN, and an integer too large for a float
        finite = flag.type is not float or abs(val) <= sys.float_info.max
        if flag.choices and val not in flag.choices or not finite:
            want = f"one of {', '.join(flag.choices)}" if flag.choices else "finite"
            raise CliError(f"config {key} must be {want}, got {json.dumps(val)}", EXIT_VALIDATION)
        if flag.type is float:
            file_cfg[key] = float(val)
    return file_cfg


def _run_config(args, **inputs) -> dict:
    """What a run's config hash covers: the command, its option values, and
    any other `inputs`."""
    return {"command": args.command,
            **{dest: getattr(args, dest) for dest in _options(args.subparser)}, **inputs}


def config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# dataset directory layout: train/val/test.csv plus a dataset.json sidecar


def _read_sidecar(data_dir) -> dict:
    """The dataset directory's sidecar, its dims and n_classes checked; its other keys are provenance."""
    path = Path(data_dir) / "dataset.json"
    sidecar = _read_json(path, "dataset sidecar", {"dims": [int], "n_classes": int})
    if not sidecar["dims"] or min(sidecar["dims"]) < 1:
        raise ValueError(f"dataset sidecar dims must be one or more sizes >= 1, got {sidecar['dims']}")
    _check_model_sizes(len(sidecar["dims"]), sidecar["n_classes"], 0, "dataset sidecar ")
    return sidecar


def _load_split(data_dir, sidecar: dict, split: str):
    """The named split's CSV, read under the columns the sidecar declares."""
    schema = CsvSchema(tuple(sidecar["dims"]), sidecar["n_classes"])
    return load_csv(Path(data_dir) / f"{split}.csv", schema)


def _load_checkpoint(path) -> tuple[MultimodalClassifier, Standardization, str]:
    """The model, its standardization and the run's config hash."""
    doc = _read_json(path, "checkpoint", dict)
    try:
        # the model part's format version says how to read the rest of it
        check_json(doc, {"model": {"format_version": int}, "standardization": dict, "config_hash": str},
                   "checkpoint")
        model = MultimodalClassifier.from_state_dict(doc["model"])
        stats = Standardization.from_dict(
            doc["standardization"], [spec.input_dim for spec in model.encoder_specs]
        )
    except ValueError as e:
        raise CliError(f"bad checkpoint contents: {e}", EXIT_VALIDATION) from None
    return model, stats, doc["config_hash"]


def _scoring_inputs(args):
    """What `evaluate`, `noise-sweep` and `report` read: the checkpoint's
    model, its standardized `--split` of the dataset and the run's config
    hash.  A 1-based `modality` option, where set, must be in [1, M], and
    the dataset's modality dims and class count must be the model's; both
    are checked before the split's CSV is opened."""
    model, stats, run_id = _load_checkpoint(args.checkpoint)
    modality = getattr(args, "modality", None)
    if modality is not None and not 1 <= modality <= model.n_modalities:
        raise CliError(f"--modality must be in [1, {model.n_modalities}]", EXIT_VALIDATION)
    sidecar = _read_sidecar(args.data)
    for key, want in (("dims", [spec.input_dim for spec in model.encoder_specs]),
                      ("n_classes", model.n_classes)):
        if sidecar[key] != want:
            raise ValueError(f"dataset sidecar {key} must be the checkpoint's {want}, got {sidecar[key]}")
    return model, stats.apply(_load_split(args.data, sidecar, args.split)), run_id


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


def cmd_generate_data(args) -> int:
    spec = SyntheticSpec(
        n_classes=args.classes,
        n_per_class=args.per_class,
        dims=args.dims,
        separation=args.sep,
        seed=args.seed,
        split_sizes=args.split,
    )
    run_id = config_hash(_run_config(args))
    train_ds, val_ds, test_ds = generate_synthetic(spec)
    out = _outdir(args.out)
    for name, ds in (("train", train_ds), ("val", val_ds), ("test", test_ds)):
        save_csv(ds, out / f"{name}.csv", comment=f"config_hash={run_id}")
    write_json({**asdict(spec), "config_hash": run_id}, out / "dataset.json")
    _write_meta(out, run_id)
    print(f"wrote train/val/test CSVs and sidecar to {out} (run {run_id})")
    return EXIT_OK


def cmd_train(args) -> int:
    tc = TrainConfig(
        learning_rate=args.lr,
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        lam=args.lam,
        seed=args.seed,
        freeze_encoders=args.freeze_encoders,
        keep_best=args.keep_best,
    )
    encoder = EncoderSpec(1, args.hidden, args.activation)  # input_dim is each modality's, from the sidecar

    sidecar = _read_sidecar(args.data)
    (train_ds, val_ds), stats = standardize(
        *(_load_split(args.data, sidecar, split) for split in ("train", "val"))
    )

    specs = [replace(encoder, input_dim=d) for d in sidecar["dims"]]
    model = MultimodalClassifier(specs, sidecar["n_classes"], seed=tc.seed)

    full_cfg = _run_config(args, data={k: sidecar.get(k) for k in ("n_classes", "dims", "seed")})
    run_id = config_hash(full_cfg)

    model, record = train(model, train_ds, tc, val_dataset=val_ds)

    out = _outdir(args.out)
    ckpt_path = out / "checkpoint.json"
    write_json(
        {
            "config_hash": run_id,
            "model": model.state_dict(),
            "standardization": stats.to_dict(),
            "train_config": asdict(tc),
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


def cmd_evaluate(args) -> int:
    _check_bins(args.bins)
    model, ds, run_id = _scoring_inputs(args)
    r = evaluate_model(model, ds, n_bins=args.bins).report
    out = _outdir(args.out)
    write_json({"config_hash": run_id, "split": args.split, "metrics": r.to_dict()},
               out / "metrics.json")
    _write_table(
        out / "reliability.csv", run_id, ("bin", "mean_confidence", "accuracy", "count"),
        ((b, *cells) for b, cells in enumerate(r.per_bin)),
    )
    _write_meta(out, run_id)
    print(
        f"{args.split}: acc={r.acc:.4f} kappa={r.kappa:.4f} ece={r.ece:.4f} "
        f"(n={r.n_samples}); metrics in {out}"
    )
    return EXIT_OK


def cmd_noise_sweep(args) -> int:
    _sweep_specs(args.sigmas, args.modality - 1, args.noise_seeds)
    model, ds, run_id = _scoring_inputs(args)
    sweep = noise_sweep(model, ds, args.sigmas, args.modality - 1, args.noise_seeds)
    out = _outdir(args.out)
    write_json({"config_hash": run_id, **sweep}, out / "sweep.json")
    cols = list(sweep["rows"][0])
    _write_table(out / "sweep.csv", run_id, cols, ([r[c] for c in cols] for r in sweep["rows"]))
    _write_meta(out, run_id)
    print(
        f"swept {len(args.sigmas)} sigmas x {len(args.noise_seeds)} seeds "
        f"on modality {args.modality}; tables in {out}"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    if args.sigma is not None and args.modality is None:
        raise CliError("--sigma requires --modality", EXIT_VALIDATION)
    noise = NoiseSpec(0 if args.modality is None else args.modality - 1, args.sigma or 0.0, args.noise_seed)
    _check_bins(args.hist_bins, "n_hist_bins")
    model, ds, run_id = _scoring_inputs(args)
    density = uncertainty_density(model, ds, noise, n_hist_bins=args.hist_bins)
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


# A `fuse` input entry: an object of these keys or a list of their values.
_FUSE_ENTRY_SHAPE = {"u": float, "sigma": float, "v": float}


def cmd_fuse(args) -> int:
    doc = _read_json(args.infile, "fuse input", list)
    if not doc:
        raise CliError("input must be a non-empty JSON list", EXIT_VALIDATION)
    inputs = []
    for i, item in enumerate(doc):
        if isinstance(item, list) and len(item) == 3:
            item = dict(zip(_FUSE_ENTRY_SHAPE, item))
        elif not isinstance(item, dict):
            raise CliError(f"entry {i}: expected [u, sigma, v] or {{u, sigma, v}}", EXIT_VALIDATION)
        check_json(item, _FUSE_ENTRY_SHAPE, f"entry {i}:")
        try:
            inputs.append(StudentT(*(float(item[k]) for k in _FUSE_ENTRY_SHAPE)))
        except (ValueError, OverflowError) as e:
            raise CliError(f"entry {i}: {e}", EXIT_VALIDATION) from None
        if inputs[-1].v > FUSE_MAX_V:
            raise CliError(f"entry {i}: v must be at most {FUSE_MAX_V:g}, got {inputs[-1].v!r}",
                           EXIT_VALIDATION)
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
            p.add_argument("--split", choices=["train", "val", "test"], default="test")
        return p

    def list_option(p, flag, kind, n=None, **kwargs):  # comma-separated values
        p.add_argument(flag, type=_parse_tuple(flag, kind, n), **kwargs)

    p = command("generate-data", cmd_generate_data, "write synthetic CSVs with one or more modalities")
    p.add_argument("--classes", type=int, default=SyntheticSpec.n_classes)
    p.add_argument("--per-class", type=int, default=SyntheticSpec.n_per_class)
    list_option(p, "--dims", int, default=SyntheticSpec.dims,
                help="feature dims, one per modality, e.g. 4,4")
    list_option(p, "--sep", float, default=SyntheticSpec.separation,
                help="class separations, one per modality, e.g. 3,3")
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    list_option(p, "--split", int, 3, help="explicit train,val,test sizes, e.g. 500,100,100")

    p = command("train", cmd_train, "train a classifier on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lambda", dest="lam", type=float, default=TrainConfig.lam)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    list_option(p, "--hidden", int, default=EncoderSpec.hidden_dims,
                help="encoder hidden dims, e.g. 64 or 128,64")
    p.add_argument("--activation", choices=["relu", "tanh"], default=EncoderSpec.activation)
    p.add_argument("--freeze-encoders", action=argparse.BooleanOptionalAction,
                   default=TrainConfig.freeze_encoders)
    p.add_argument("--keep-best", action=argparse.BooleanOptionalAction,
                   default=TrainConfig.keep_best)

    p = command("evaluate", cmd_evaluate, "score a checkpoint on one split", scores=True)
    p.add_argument("--bins", type=int, default=N_BINS)

    p = command("noise-sweep", cmd_noise_sweep, "evaluate under per-modality noise", scores=True)
    list_option(p, "--sigmas", float, default=(0.0, 0.1, 0.3, 0.5, 1.0),
                help="comma-separated noise levels")
    p.add_argument("--modality", type=int, default=1, help="1-based corrupted modality")
    list_option(p, "--noise-seeds", int, default=(0, 1, 2), help="comma-separated seeds")

    p = command("report", cmd_report, "emit uncertainty-density tables", scores=True)
    p.add_argument("--modality", type=int, help="1-based noised modality")
    p.add_argument("--sigma", type=float)
    p.add_argument("--noise-seed", type=int, default=NoiseSpec.seed)
    p.add_argument("--hist-bins", type=int, default=N_HIST_BINS)

    # every command but `fuse` writes a directory and takes its option
    # defaults from a `--config` file, which `main` checks against the flags
    for p in sub.choices.values():
        p.add_argument("--out", required=True)
        p.add_argument("--config", help="JSON file with option defaults")
        p.set_defaults(subparser=p)

    p = command("fuse", cmd_fuse, "fuse Student's t parameters from a JSON file")
    p.add_argument("--in", dest="infile", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # the file's values become the command's defaults; flags still win
            args.subparser.set_defaults(**_config_defaults(args.config, _options(args.subparser)))
            args = parser.parse_args(argv)
        # a non-finite result is reported by the check that finds it, in one line
        with np.errstate(all="ignore"):
            return args.func(args)
    except CliError as e:
        err, code = e, e.code
    except ValueError as e:
        err, code = e, EXIT_VALIDATION
    except MemoryError as e:  # numpy refuses an array sized by an option or a file
        err, code = str(e) or "out of memory", EXIT_VALIDATION
    except (TrainingDivergedError, FloatingPointError) as e:
        err, code = e, EXIT_NUMERICAL
    except OSError as e:
        err, code = e, EXIT_IO
    print(f"error: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
