"""The traced benchmark finds the functions it wraps by name: each must exist.

bench/spans.py lists (module, attribute) pairs and replaces each with a
wrapper; a pair that no longer resolves fails a traced run with
AttributeError. The file is compiled from source here, so no bytecode cache
is written beside it.
"""
from __future__ import annotations

import importlib
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "spans.py")


def _wrapped_names():
    with open(SPANS, encoding="utf-8") as f:
        namespace = {"__name__": "bench_spans"}
        exec(compile(f.read(), SPANS, "exec"), namespace)
    return namespace["SPANNED"] + namespace["COUNTED"]


@pytest.mark.parametrize(
    "module, attr", _wrapped_names(), ids=lambda part: part
)
def test_wrapped_name_resolves(module, attr):
    owner = importlib.import_module(module)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        # the wrapper replaces the class's own attribute, not an inherited one
        assert name in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, name))
