"""Every span in benchmarks/layers.json names a function the benchmark's tracer
can wrap, resolved as benchmarks/tracing.py resolves it: a plain name is an
attribute of tandemopt.<module>, and Class.method is in the class's own
namespace. So renaming a traced function fails here, not in a traced run."""

import importlib
import json
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.json"
SPANS = json.loads(LAYERS.read_text(encoding="utf-8"))["spans"]


@pytest.mark.parametrize("span", SPANS, ids=lambda s: f"{s['module']}.{s['function']}")
def test_span_resolves(span):
    module = importlib.import_module(f"tandemopt.{span['module']}")
    owner_name, _, name = span["function"].rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert isinstance(owner, type), f"{owner_name} is not a class"
        assert name in vars(owner), f"{name} is not defined on {owner_name} itself"
    else:
        assert callable(getattr(module, name))
