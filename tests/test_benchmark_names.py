"""The names the benchmark wraps from outside exist on the package.

``perfbench/spans.py`` replaces the attributes it lists in ``TRACED`` with
timing wrappers, and its worker hooks ``adom.run``. A rename or deletion of
one of them breaks the benchmark; this catches it without running it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("owner_path, attr, span", _traced(), ids=str)
def test_traced_name_resolves(owner_path, attr, span):
    module, *rest = owner_path.split(".")
    owner = importlib.import_module(f"netbary.{module}")
    for part in rest:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr, None)), f"netbary.{owner_path}.{attr}"
