"""In-memory span tracing of evfuse's layer functions, from outside the package.

A `Tracer` wraps each target callable and records one span per call: name,
start, end, parent span and workload-run id.  Spans stay in memory until the
run writes them out.  Self time is computed from the spans afterwards: a
span's duration minus the part of its interval that its child spans cover.

A target is patched at every module attribute that binds it: `fuse_stack`
is bound in `evfuse.fusion`, `evfuse.model` and `evfuse.losses`, and `train`
in `evfuse.model`, `evfuse.cli`, `evfuse` and any caller that imported it by
name.  Calls through any of those names are seen, once each.  A target that
cannot be found is reported as missing, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced callable: `attr` may be `Class.method`."""

    layer_name: str  # e.g. "fusion.fuse_stack"
    module: str  # module that defines it, e.g. "evfuse.fusion"
    attr: str
    # optional per-call work count from (args, kwargs, result), e.g. rows
    count: Callable | None = None
    # optional span-name suffix from (args, kwargs), e.g. the CLI command
    label: Callable | None = None


def _rows(args, kwargs, result):
    features = args[1] if len(args) > 1 else kwargs["features"]
    return len(features[0])


def _bytes_of_path_arg(index: int):
    def count(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs["path"]
        return os.path.getsize(path)

    return count


def _cli_command(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


TARGETS = (
    Target("model.train", "evfuse.model", "train"),
    Target("model.forward_batch", "evfuse.model", "MultimodalClassifier.forward_batch", count=_rows),
    Target("losses.total_loss_and_grads_arrays", "evfuse.losses", "total_loss_and_grads_arrays"),
    Target("fusion.fuse_stack", "evfuse.fusion", "fuse_stack"),
    Target("fusion.fuse_stack_backward", "evfuse.fusion", "fuse_stack_backward"),
    Target("evaluation.evaluate_model", "evfuse.evaluation", "evaluate_model"),
    Target("evaluation.class_posterior", "evfuse.evaluation", "class_posterior"),
    Target("evaluation.cohen_kappa", "evfuse.evaluation", "cohen_kappa"),
    Target("evaluation.ece", "evfuse.evaluation", "ece"),
    Target("evaluation.inject_noise", "evfuse.evaluation", "inject_noise"),
    Target("evaluation.noise_sweep", "evfuse.evaluation", "noise_sweep"),
    Target("evaluation.write_json", "evfuse.evaluation", "write_json"),
    Target("data.generate_synthetic", "evfuse.data", "generate_synthetic"),
    Target("data.standardize", "evfuse.data", "standardize"),
    # bytes come from the file after the call: written by save, read by load
    Target("data.save_csv", "evfuse.data", "save_csv", count=_bytes_of_path_arg(1)),
    Target("data.load_csv", "evfuse.data", "load_csv", count=_bytes_of_path_arg(0)),
    Target("cli.main", "evfuse.cli", "main", label=_cli_command),
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    count: float = 0.0  # work done in the call (rows, bytes), if counted

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run_id,
            "count": self.count,
        }


@dataclass
class Tracer:
    """Holds spans of one process; single-threaded, like evfuse itself."""

    spans: list[Span] = field(default_factory=list)
    run_id: str = ""
    missing: dict[str, str] = field(default_factory=dict)  # layer name -> reason
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, target: Target, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = target.layer_name
            if target.label is not None:
                name = f"{name}.{target.label(args, kwargs)}"
            span = Span(len(tracer.spans), name, 0.0, 0.0,
                        tracer._stack[-1] if tracer._stack else None, tracer.run_id)
            tracer.spans.append(span)
            tracer._stack.append(span.span_id)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if target.count is not None:
                span.count = target.count(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Patch every binding of every target; record the ones not found."""
        modules = {}
        # import everything first, so bindings made by later imports are seen
        for target in targets:
            try:
                modules[target.module] = importlib.import_module(target.module)
            except ImportError as e:
                self.missing[target.layer_name] = f"cannot import {target.module}: {e}"
        # names bound to functions in every loaded module, so that callers which
        # imported a target by name are patched too
        module_bindings: dict[int, list[tuple[object, str]]] = {}
        for mod in list(sys.modules.values()):
            for k, v in list(getattr(mod, "__dict__", {}).items()):
                if callable(v):
                    module_bindings.setdefault(id(v), []).append((mod, k))
        for target in targets:
            module = modules.get(target.module)
            if module is None:
                continue
            owner, attr = module, target.attr
            if "." in attr:
                cls_name, attr = attr.split(".", 1)
                owner = getattr(module, cls_name, None)
                if owner is None:
                    self.missing[target.layer_name] = f"{target.module}.{cls_name} not found"
                    continue
            original = vars(owner).get(attr)
            if not callable(original):
                self.missing[target.layer_name] = f"{target.module}.{target.attr} not found"
                continue
            wrapper = self._wrap(target, original)
            bindings = [(owner, attr)]
            if owner is module:
                bindings += [b for b in module_bindings.get(id(original), ()) if b[0] is not module]
            for obj, name in bindings:
                self._patches.append((obj, name, original))
                setattr(obj, name, wrapper)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, dict[str, float]]]:
    """Per run id, per span name: calls, total_s, self_s and summed count."""
    selfs = self_times(spans)
    out: dict[str, dict[str, dict[str, float]]] = {}
    for s in spans:
        row = out.setdefault(s.run_id, {}).setdefault(
            s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[s.span_id]
        row["count"] += s.count
    return out
