"""The benchmark tracer wraps functions and a few methods by name, and the
benchmark reports per-layer metrics under those names; each must still
exist, or a metric reads 0 instead of failing."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
# computed by the harness from other counters, not read off one function
DERIVED = {"multicast.rank_calls_per_edge"}


def _traced_methods():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no METHODS")


def _per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer"] if m["name"] not in DERIVED]


@pytest.mark.parametrize("layer, cls_name, method", _traced_methods())
def test_traced_method_is_defined_on_its_class(layer, cls_name, method):
    cls = getattr(importlib.import_module(f"srlnc.{layer}"), cls_name)
    assert method in cls.__dict__


@pytest.mark.parametrize("metric", _per_layer_metrics())
def test_benchmark_metric_names_a_traced_public_name(metric):
    layer, name, *rest = metric.split(".")
    module = importlib.import_module(f"srlnc.{layer}")
    assert not name.startswith("_")
    obj = getattr(module, name, None)
    if inspect.isclass(obj):
        assert (layer, name, rest[0]) in _traced_methods(), metric
    else:
        # the tracer wraps the public functions a layer defines itself
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, metric
