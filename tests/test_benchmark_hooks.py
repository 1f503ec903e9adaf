"""The traced benchmark wraps library functions by name; every name must resolve.

``perfbench/spans.py`` patches the functions its ``SPANS`` table names, plus
``make_backend``, ``make_group`` and ``direct_product``, in their
``dualitylab`` modules.  A rename there would silently drop a span, so this
test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NAMES = [(mod, fname) for mod, functions in load_spans().SPANS.items() for fname in functions]
NAMES += [("scalars", "make_backend"), ("groups", "make_group"), ("groups", "direct_product")]


@pytest.mark.parametrize("module,name", NAMES)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"dualitylab.{module}"), name, None))
