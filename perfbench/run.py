"""Benchmark of evfuse: three workloads, end-to-end metrics, traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload train-ref --seed 1 --seconds 25 --trace 0

`--workload` is one of train-ref, eval-sweep, cli-roundtrip, or `all` (each in
its own process, one after the other).  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run.  The environment,
the findings and the failed checks go to `.perfbench-run/` next to the
results, and the spans of a traced run to a JSONL file there.  The exit code
is 0 only if every output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-run"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-ref", "eval-sweep", "cli-roundtrip")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_rel": "ratio", "test_acc": "fraction"}
PER_LAYER = {
    "model.train.self_s": "s",
    "model.forward_batch.calls": "count",
    "model.forward_batch.rows": "rows",
    "model.forward_batch.self_s": "s",
    "losses.total_loss_and_grads_arrays.calls": "count",
    "losses.total_loss_and_grads_arrays.self_s": "s",
    "fusion.fuse_stack.calls": "count",
    "fusion.fuse_stack.calls_per_step": "count",
    "fusion.fuse_stack.self_s": "s",
    "fusion.fuse_stack_backward.calls": "count",
    "fusion.fuse_stack_backward.calls_per_step": "count",
    "fusion.fuse_stack_backward.self_s": "s",
    "evaluation.evaluate_model.self_s": "s",
    "evaluation.class_posterior.self_s": "s",
    "evaluation.cohen_kappa.self_s": "s",
    "evaluation.ece.self_s": "s",
    "evaluation.inject_noise.self_s": "s",
    "evaluation.noise_sweep.self_s": "s",
    "evaluation.write_json.self_s": "s",
    "data.generate_synthetic.self_s": "s",
    "data.standardize.self_s": "s",
    "data.save_csv.self_s": "s",
    "data.save_csv.mb_per_s": "MB/s",
    "data.load_csv.self_s": "s",
    "data.load_csv.mb_per_s": "MB/s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.generate-data.self_s": "s",
    "cli.main.evaluate.self_s": "s",
    "cli.main.fuse.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
EXTRAS = ("cli.interpreter_s", "cli.import_s", "trace.overhead_ratio")


def pin_to_one_core() -> None:
    """Run this process and every child on one core, with one BLAS thread.

    Children inherit the affinity.  The reference kernel then runs on the
    core the op runs on; with the CLI children free to land on either of
    two cores, their time hardly correlated with the kernel's.  Call before
    numpy is imported: OpenBLAS reads its thread count when it loads.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def git_commit() -> str:
    # read .git directly: running git in a checkout without one would search
    # the parent directories
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def layer_metrics(per_op: list[dict], steps_per_op: int, extras: dict, missing: dict) -> dict:
    """Per-layer metric values: medians over traced ops of per-op figures.

    A metric whose target could not be patched is left out (it is reported
    as missing); a target that exists but is not called by the workload
    reads 0.
    """
    out = {}
    for name in PER_LAYER:
        if name in EXTRAS:
            out[name] = extras.get(name, 0.0)
            continue
        layer, field = name.rsplit(".", 1)
        if any(layer == t or layer.startswith(t + ".") for t in missing):
            continue
        if field == "rows":
            fn = lambda r: r["count"]
        elif field == "calls_per_step":
            fn = lambda r: r["calls"] / steps_per_op if steps_per_op else 0.0
        elif field == "mb_per_s":
            fn = lambda r: r["count"] / 1e6 / r["self_s"] if r["self_s"] > 0 else 0.0
        else:
            fn = lambda r, f=field: r[f]
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0}
        out[name] = statistics.median(fn(op.get(layer, zero)) for op in per_op)
    return out


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, messages: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages += messages


def _timed_setups(wl, n: int, times: list[float]) -> None:
    for _ in range(n):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)


def _kernel_s(wl) -> float:
    t0 = time.perf_counter()
    wl.reference_kernel()
    return time.perf_counter() - t0


def _op_rel(outs: list[dict]) -> float:
    """Total op wall time over total reference-kernel time."""
    return sum(o["op_s"] for o in outs) / sum(o["ref_s"] for o in outs)


def _run_ops(wl, seconds: float, tally: Tally, in_process: bool = False, tracer=None,
             setup_times: list[float] | None = None) -> list[dict]:
    """Run op + check until `seconds` have passed (at least one op).

    The workload's reference kernel runs before every op and once after the
    last, and each op gets `ref_s`, the mean of the kernel times on either
    side of it.  With `setup_times`, the workload's `setups_per_op` timed
    set-ups run before each op and their times are appended there.
    """
    outs, refs = [], []
    _kernel_s(wl)  # warm-up
    deadline = time.perf_counter() + seconds
    while not outs or time.perf_counter() < deadline:
        i = len(outs)
        if setup_times is not None:
            _timed_setups(wl, wl.setups_per_op, setup_times)
        refs.append(_kernel_s(wl))
        try:
            if tracer is not None:
                tracer.run_id = f"op{i}"
            out = wl.op(in_process=in_process)
            if tracer is not None:
                tracer.run_id = f"check{i}"
            tally.add(*wl.check(out))
        except Exception:
            # a crashing op is a failed op; keep measuring the rest
            traceback.print_exc()
            tally.add(wl.ops_per_op, wl.ops_per_op, [f"op {i} raised"])
            out = None
        outs.append(out)
        if out is None and i >= 2 and all(o is None for o in outs):
            break
    refs.append(_kernel_s(wl))
    for i, out in enumerate(outs):
        if out is not None:
            out["ref_s"] = (refs[i] + refs[i + 1]) / 2
    return [o for o in outs if o is not None]


def _end_to_end_run(wl, seconds: float, tally: Tally, result: dict) -> tuple[list[dict], dict]:
    setup_times = []
    _timed_setups(wl, wl.setup_repeats, setup_times)
    outs = _run_ops(wl, seconds, tally, setup_times=setup_times)
    tally.add(*wl.final_check())
    values = {
        "setup_s": statistics.median(setup_times),
        "op_rel": _op_rel(outs),
        **wl.end_to_end(outs),
    } if outs else {}
    named = wl.named_metrics(outs) if outs else {}
    named["fail_ratio"] = (tally.failed / max(tally.attempted, 1), "ratio")
    result["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    result["setup_runs"] = setup_times
    return outs, values


def _traced_run(wl, seconds: float, tally: Tally, result: dict) -> tuple[list[dict], dict]:
    wl.setup()
    plain = _run_ops(wl, seconds / 2, tally, in_process=True)
    tracer = Tracer()
    with tracer:
        traced = _run_ops(wl, seconds / 2, tally, in_process=True, tracer=tracer)
    tally.add(*wl.final_check())
    summary = summarize(tracer.spans)
    per_op = [summary.get(f"op{i}", {}) for i in range(len(traced))]
    extras = wl.layer_extras()
    if plain and traced:
        # relative to the reference kernel, as op_rel is: the two halves of
        # the run may see the host at different speeds
        extras["trace.overhead_ratio"] = _op_rel(traced) / _op_rel(plain)
    values = layer_metrics(per_op, wl.steps_per_op, extras, tracer.missing) if per_op else {}
    result["missing"] = tracer.missing
    result["layers"] = per_op
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as f:
        for s in tracer.spans:
            f.write(json.dumps(s.to_dict()) + "\n")
    result["spans_file"] = str(spans_path.relative_to(ROOT))
    return traced, values


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run of one workload; returns everything it reports."""
    from workloads import FULL, WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    wl = WORKLOADS[name](seed, sizes or FULL, workdir)
    tally = Tally()
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        outs, values = (_traced_run if trace else _end_to_end_run)(wl, seconds, tally, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    result["metrics"] = {}
    for k, unit in units.items():
        if math.isfinite(values.get(k, math.nan)):
            result["metrics"][k] = {"value": values[k], "unit": unit}
        elif not trace:  # a traced run lists what it could not patch under "missing"
            tally.add(0, 0, [f"metric {k} was not measured"])
    result["op_walls"] = [o["op_s"] for o in outs]
    result["ref_walls"] = [o["ref_s"] for o in outs]
    result["op_s_median"] = statistics.median(result["op_walls"]) if outs else math.nan
    result["ops"] = len(outs)
    result.update(
        correct=tally.failed == 0 and not tally.messages,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.messages,
        findings=wl.findings,
    )
    return result


def print_report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['ops']} ops, {result['attempted']} attempted, {result['failed']} failed")
    print(f"  {'op_s (median op wall time)':44s} {result['op_s_median']:.6g} s")
    for section in ("named", "metrics"):
        for k, m in result.get(section, {}).items():
            print(f"  {k:44s} {m['value']:.6g} {m['unit']}")
    for k, reason in result.get("missing", {}).items():
        print(f"  missing {k}: {reason}")
    for k, v in result["findings"].items():
        print(f"  finding {k}: {v}")
    for msg, n in Counter(result["failures"]).items():
        print(f"  check FAILED ({n}x): {msg}")


def run_all(args) -> int:
    """Each workload in its own process; a combined summary at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evfuse" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'evfuse'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_to_one_core()
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["env"] = env
    print_report(result)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
