import os
import subprocess
import sys
from pathlib import Path

import pytest

import netbary
from netbary import entot

# The oracle's evaluation paths, each serving every cost: the Gibbs-kernel
# scaling form, and its log-domain fallback, whose rows lie within 1e-13
# relative of a 40-digit evaluation at |z| / gamma near 1e4
# (test_entot.py::TestLogDomainAccuracy).
KERNELS = (
    "_scaling_conj_grad_stack",
    "_log_conj_grad_stack",
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
