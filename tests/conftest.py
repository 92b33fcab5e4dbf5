import pytest

from netbary import entot

# The oracle's evaluation paths: the Gibbs-kernel scaling form and its
# log-domain fallback, for a cost matrix and for a GridCost.
KERNELS = (
    "_scaling_conj_grad_stack",
    "_conj_grad_stack",
    "_grid_scaling_conj_grad_stack",
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
