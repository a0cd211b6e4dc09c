"""The names the benchmark's tracer wraps must exist in the program.

``perfbench/spans.py`` replaces each listed function or method by name;
a name that no longer resolves would crash ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, path) for mod, path, _ in spans.SPANS + spans.COUNTS]


@pytest.mark.parametrize("mod, path", traced_names())
def test_traced_name_resolves(mod, path):
    owner = importlib.import_module(f"leibcohom.{mod}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
