"""Each public name is declared once, in its layer module's ``__all__``."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netbary
from netbary import adom, entot, harness, netgraph

LAYERS = (netgraph, adom, entot, harness)


@pytest.mark.parametrize("module", LAYERS, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_no_name_is_exported_by_two_layers():
    for first, second in itertools.combinations(LAYERS, 2):
        assert set(first.__all__) & set(second.__all__) == set()


def test_package_exposes_only_its_layers():
    # A fresh interpreter: importing ``netbary.cli`` anywhere in the suite
    # sets ``netbary.cli`` too.
    script = (
        "import netbary\n"
        "print(sorted(n for n in vars(netbary) if not n.startswith('_')))\n"
        "print(isinstance(netbary.__version__, str))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(netbary.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['adom', 'entot', 'harness', 'netgraph']", "True"]
