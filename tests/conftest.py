import os
import subprocess
import sys
from pathlib import Path

import pytest

import netbary
from netbary import entot

# The oracle's evaluation paths: the Gibbs-kernel scaling form, for every
# cost, and its log-domain fallbacks, for a cost matrix and for a GridCost.
KERNELS = (
    "_scaling_conj_grad_stack",
    "_conj_grad_stack",
    "_grid_conj_grad_stack",
)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of the oracle kernels called during the test, in order."""
    calls = []
    for name in KERNELS:
        inner = getattr(entot, name)

        def spy(*args, _inner=inner, _name=name):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(entot, name, spy)
    return calls


@pytest.fixture
def fresh_python():
    """Runs a script in a new interpreter that imports this tree's netbary
    and returns its stdout; the script must exit 0 and write no stderr.
    Keyword arguments are set in the interpreter's environment."""

    def run(script, **environ):
        env = dict(os.environ, **environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(netbary.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        return proc.stdout

    return run
