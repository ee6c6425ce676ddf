"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(i, start, end, parent=None, run_id="op0"):
    return spans.Span(i, f"s{i}", start, end, parent, run_id)


def test_self_time_is_duration_minus_children():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 7.0, parent=0),
        _span(4, 20.0, 21.0, run_id="op1"),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 10.0 - 3.0 - 2.0, 1: 3.0 - 1.0, 2: 1.0, 3: 2.0, 4: 1.0}
    summary = spans.summarize(tree)
    assert summary["op0"]["s0"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0, "count": 0.0}
    assert set(summary) == {"op0", "op1"}


def test_target_is_patched_at_every_binding_and_restored():
    import evfuse
    import evfuse.cli
    import evfuse.fusion
    import evfuse.losses
    import evfuse.model

    original = evfuse.fusion.fuse_stack
    tracer = spans.Tracer()
    with tracer:
        wrapped = evfuse.fusion.fuse_stack
        assert wrapped is not original
        assert evfuse.model.fuse_stack is wrapped
        assert evfuse.losses.fuse_stack is wrapped
        assert evfuse.train is evfuse.cli.train is evfuse.model.train
        assert evfuse.train.__wrapped__ is not None
        assert not tracer.missing
    assert evfuse.model.fuse_stack is original and evfuse.losses.fuse_stack is original
    assert not hasattr(evfuse.train, "__wrapped__")


def test_missing_target_is_reported_not_zero():
    tracer = spans.Tracer()
    tracer.install([spans.Target("fusion.gone", "evfuse.fusion", "no_such_function")])
    tracer.uninstall()
    assert "fusion.gone" in tracer.missing
    values = run.layer_metrics([{}], 0, {}, {"fusion.fuse_stack": "gone"})
    assert not any(k.startswith("fusion.fuse_stack.") for k in values)
    assert "fusion.fuse_stack_backward.self_s" in values


def test_metric_lists_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    run.pin_to_one_core()
    result = run.measure(name, 7, 0.01, trace, sizes=workloads.TINY)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    if trace and name == "train-ref":
        # per step and per validation pass: two fuse_stack calls, one backward
        values = {k: m["value"] for k, m in result["metrics"].items()}
        assert values["fusion.fuse_stack.calls_per_step"] == 2.0625
        assert values["fusion.fuse_stack_backward.calls_per_step"] == 1.03125
