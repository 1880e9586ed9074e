"""The benchmark's traced run rebinds library functions by name.

``bench/spans.py`` lists every ``(module, attribute path)`` it wraps in
``BINDINGS`` and replaces ``owner.__dict__[attr]``; a binding that a
refactor removes or moves makes every ``--trace 1`` run stop with a
KeyError.  The file is loaded read-only, without running the harness.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_bindings():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


@pytest.mark.parametrize(
    "module,path", [(module, path) for module, path, _, _ in load_bindings()]
)
def test_binding_resolves(module, path):
    owner = importlib.import_module(f"latzeta.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"latzeta.{module}.{path}"
    assert callable(getattr(owner, attr))
