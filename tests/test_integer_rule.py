"""The one integer rule, ``netgraph._integer``, at every parameter that
takes a count, a size or an index."""

import operator
import re
import struct

import numpy as np
import pytest

from netbary import adom, cli, entot, harness, netgraph
from oracles import QuadraticOracle

SWEEP_CONFIG = """\
m = 3
d = 6
family = cycle
gamma = 0.05
r = 0.01
n_iters = 4
record_every = 2
delta = 1e-4
"""


def _params():
    return adom.derive_params(0.1, 1.0, netgraph.SpectralBounds(1.0, 3.0))


def _run(n_iters, record_every):
    schedule = netgraph.NetworkSchedule("cycle", 3)
    return adom.run(schedule, QuadraticOracle(1.0, 2), _params(), n_iters, record_every)


def _load_mnist(count, tmp_path):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 3, 2, 2) + bytes(range(1, 13)))
    labels.write_bytes(struct.pack(">II", 0x801, 3) + bytes([7, 1, 7]))
    return harness.load_mnist(images, labels, 7, count)


def _args(argv, **values):
    args = cli._build_parser().parse_args(argv)
    vars(args).update(values)
    return args


def _sweep(jobs, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    argv = ["sweep", "--config", str(config), "--families", "cycle", "--out", str(tmp_path / "out")]
    return cli._cmd_sweep(_args(argv, jobs=jobs))


# (id, name in the message, least, none_ok, call). ``call(value, tmp_path)``
# passes ``value`` as the one parameter under test, every other argument
# valid. Only epoch_len takes None, as a static schedule.
PARAMETERS = [
    ("NetworkSchedule.m", "m", 2, False, lambda v, t: netgraph.NetworkSchedule("cycle", v)),
    (
        "NetworkSchedule.epoch_len", "epoch_len", 1, True,
        lambda v, t: netgraph.NetworkSchedule("cycle", 3, epoch_len=v),
    ),
    (
        "NetworkSchedule.seed", "seed", 0, False,
        lambda v, t: netgraph.NetworkSchedule("erdos_renyi", 3, seed=v, p=0.5),
    ),
    ("epoch_of", "n", 0, False, lambda v, t: netgraph.NetworkSchedule("cycle", 3, 2).epoch_of(v)),
    (
        "epoch_count", "horizon", 1, False,
        lambda v, t: netgraph.NetworkSchedule("cycle", 3, 2).epoch_count(v),
    ),
    ("laplacian_from_edges", "m", 1, False, lambda v, t: netgraph.laplacian_from_edges(v, [])),
    ("initial_state.m", "m", 1, False, lambda v, t: adom.initial_state(v, 2)),
    ("initial_state.dim", "dim", 1, False, lambda v, t: adom.initial_state(2, v)),
    ("run.n_iters", "n_iters", 1, False, lambda v, t: _run(v, 1)),
    ("run.record_every", "record_every", 1, False, lambda v, t: _run(2, v)),
    ("c2_bound", "m", 1, False, lambda v, t: adom.c2_bound(_params(), v, 1.0)),
    ("GridCost.rows", "rows", 1, False, lambda v, t: entot.GridCost(v, 2)),
    ("GridCost.cols", "cols", 1, False, lambda v, t: entot.GridCost(2, v)),
    ("k_bound", "d", 1, False, lambda v, t: entot.k_bound(v, 0.1, 0.5)),
    ("params_for_eps.m", "m", 1, False, lambda v, t: entot.params_for_eps(0.1, v, 4, 0.01)),
    ("params_for_eps.d", "d", 2, False, lambda v, t: entot.params_for_eps(0.1, 3, v, 0.01)),
    ("gaussian_grid", "d", 2, False, lambda v, t: harness.gaussian_grid(v)),
    (
        "draw_gaussian_specs", "m", 1, False,
        lambda v, t: harness.draw_gaussian_specs(v, harness.gaussian_grid(5), 0),
    ),
    ("load_mnist", "count", 1, False, _load_mnist),
    (
        "ExperimentConfig.n_iters", "n_iters", 1, False,
        lambda v, t: harness.ExperimentConfig(n_iters=v, out=str(t / "out")),
    ),
    (
        "ExperimentConfig.record_every", "record_every", 1, False,
        lambda v, t: harness.ExperimentConfig(record_every=v, out=str(t / "out")),
    ),
    ("sweep --jobs", "--jobs", 1, False, _sweep),
    (
        "oracle-check --d", "--d", 2, False,
        lambda v, t: cli._cmd_oracle_check(_args(["oracle-check"], d=v)),
    ),
    (
        "oracle-check --seed", "--seed", 0, False,
        lambda v, t: cli._cmd_oracle_check(_args(["oracle-check"], seed=v)),
    ),
]

# Stands for least - 1 of each parameter.
BELOW = "least - 1"

REFUSED = [
    pytest.param(row, value, id=f"{row[0]}-{value!r}")
    for row in PARAMETERS
    for value in (2.5, 3.0, "3", None, BELOW)
    if not (value is None and row[3])
]


@pytest.mark.parametrize("row, value", REFUSED)
def test_refused_with_the_rules_message(row, value, tmp_path, monkeypatch):
    _, name, least, _, call = row
    if value is BELOW:
        value = least - 1

    def no_draw(*args):
        raise AssertionError("a graph was drawn before the check")

    # A schedule refuses before any graph is drawn, and a config or a
    # sweep before any output is written.
    monkeypatch.setattr(netgraph, "_draw_edges", no_draw)
    message = f"{name} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value, tmp_path)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row", [pytest.param(row, id=row[0]) for row in PARAMETERS])
def test_a_numpy_integer_at_the_least_value_is_accepted(row, tmp_path):
    _, _, least, none_ok, call = row
    call(np.int64(least), tmp_path)
    if none_ok:
        call(None, tmp_path)


@pytest.mark.parametrize(
    "value, least, ok",
    [
        (0, 0, True), (-1, 0, False), (True, 1, True), (np.uint8(255), 255, True),
        (np.int32(-5), -5, True), (2**70, 1, True), (np.float64(2.0), 1, False),
        (np.array(3), 1, True), (np.array([3]), 1, False), ([3], 1, False),
    ],
)
def test_the_rule_reads_integers_as_operator_index_does(value, least, ok):
    if ok:
        got = netgraph._integer("x", value, least)
        assert type(got) is int and got == operator.index(value)
    else:
        with pytest.raises(ValueError, match=r"^x must be an integer >= -?\d+, got "):
            netgraph._integer("x", value, least)


def test_a_narrow_numpy_m_builds_the_python_int_laplacian():
    # A uint8 m of 20 made m * m wrap to 144 before the rule converted it.
    path = [(i, i + 1) for i in range(19)]
    got = netgraph.laplacian_from_edges(np.uint8(20), path)
    want = netgraph.laplacian_from_edges(20, path)
    np.testing.assert_array_equal(got.entries, want.entries)


def test_a_narrow_numpy_schedule_counts_its_epochs_in_python_ints():
    # -horizon // epoch_len overflowed a uint8 epoch_len.
    schedule = netgraph.NetworkSchedule(
        "cycle", np.uint8(20), epoch_len=np.uint8(3), seed=np.uint8(7)
    )
    assert schedule.epoch_count(1000) == 334
    assert schedule.epoch_of(np.uint8(200)) == 66
    assert all(type(value) is int for value in (schedule.m, schedule.epoch_len, schedule.seed))
    assert schedule == netgraph.NetworkSchedule("cycle", 20, epoch_len=3, seed=7)
