"""Time-varying communication graphs: construction, scheduling, spectra.

The solver talks to the network layer through three objects. A ``Laplacian``
wraps the mixing matrix of one communication round. A ``NetworkSchedule``
deterministically generates Laplacians indexed by iteration, re-drawing the
topology at epoch boundaries. Each epoch's graph is drawn the first time it
is asked for and stored on the schedule as a compact edge array, so
``spectral_bounds`` and the solver loop share one realization.
``SpectralBounds`` records the extreme eigenvalues seen over a schedule,
which calibrate the solver's step sizes: ``lambda_min_plus`` is the smallest
positive eigenvalue over all scheduled graphs and ``lambda_max`` the largest
eigenvalue.

Every scheduled graph is connected, so each Laplacian has kernel exactly
span{1} and the positive part of the spectrum is well defined.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

__all__ = [
    "FAMILIES",
    "DisconnectedGraphError",
    "Laplacian",
    "NetworkSchedule",
    "SpectralBounds",
    "laplacian_from_edges",
    "schedule_laplacian",
    "spectral_bounds",
]

FAMILIES = ("cycle", "star", "complete", "erdos_renyi", "mst_of_er")

# Families whose epochs differ only by a relabeling of the nodes. A
# relabeling is a permutation similarity, so the spectrum of every epoch
# equals the spectrum of epoch 0.
_RELABEL_FAMILIES = frozenset({"cycle", "star", "complete"})

# Families that need an edge probability.
_RANDOM_FAMILIES = frozenset({"erdos_renyi", "mst_of_er"})

# Draws attempted before falling back to unioning a random spanning tree.
_ER_MAX_DRAWS = 1000

# |lowest eigenvalue| of a Laplacian may not exceed this times max(1, lambda_max).
_EIG_FLOOR = 1e-10

# An epoch's eigen-solve is skipped only when a proof puts both of its
# extremes inside the running ones by at least this share of lambda_max
# (see _certified_inside).
_CERT_MARGIN = 1e-8

_EPS = float(np.finfo(float).eps)

# Below this many nodes every epoch is eigen-solved: the certificate costs
# more than the solve it would spare. Microseconds per ER Laplacian (edge
# probability 4/m + 0.15, 40 graphs), the certificate run through its
# Cholesky call, which succeeded on all 40; one BLAS thread, 2-vCPU VM,
# median of three timeit runs:
#
#   m             6     8    10    12    14    16    18    20    30    50
#   certificate  12.7  12.9  13.3  13.7  13.8  14.2  14.5  15.5  18.2  34.2
#   eigvalsh      6.5   8.1   9.9  11.9  13.7  16.0  18.9  21.8  39.3  96.9
_CERT_MIN_NODES = 16


def _integer(name: str, value, least: int) -> int:
    """``value`` as a Python int, or a ValueError naming ``name`` unless it
    is an integer >= ``least``. An integer is what ``operator.index`` takes:
    Python and numpy integers, not floats (3.0 included), strings or None.
    The value is returned converted, so a numpy fixed-width integer cannot
    overflow in the caller's arithmetic (a uint8 m of 20 made m * m wrap),
    and each caller keeps the returned value. The one copy of the rule for
    every count, size and index of the package."""
    try:
        index = operator.index(value)
    except TypeError:
        pass
    else:
        if index >= least:
            return index
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


class DisconnectedGraphError(ValueError):
    """The edge list does not describe a connected graph."""


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class Laplacian:
    """Combinatorial Laplacian D - A of one communication round."""

    entries: np.ndarray

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    def apply(self, stack: np.ndarray) -> np.ndarray:
        """Multiply an (m, d) node stack by the Laplacian.

        Equivalent to acting with the block matrix ``kron(entries, I_d)`` on
        the stacked vector, without ever forming the Kronecker product. The
        stack is not checked: the solver builds every stack it passes with
        the schedule's m.
        """
        return self.entries @ stack

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending (symmetric dense solve)."""
        return np.linalg.eigvalsh(self.entries)


@dataclass(frozen=True)
class SpectralBounds:
    """Extreme Laplacian eigenvalues over a schedule's realized graphs."""

    lambda_min_plus: float
    lambda_max: float

    def __post_init__(self):
        if not (0.0 < self.lambda_min_plus <= self.lambda_max < math.inf):
            raise ValueError(
                "need 0 < lambda_min_plus <= lambda_max < inf, got "
                f"({self.lambda_min_plus}, {self.lambda_max})"
            )


@dataclass(frozen=True)
class NetworkSchedule:
    """Deterministic generator of per-iteration communication graphs.

    Parameters
    ----------
    family : str
        One of ``FAMILIES``. Fixed-shape families (cycle, star, complete)
        are relabeled uniformly at random each epoch; random families are
        re-drawn each epoch.
    m : int
        Node count, at least 2.
    epoch_len : int or None
        Iterations between topology re-draws. ``None`` means static: the
        epoch-0 graph is used forever.
    seed : int
        Root seed. Together with the epoch index it fully determines each
        epoch's graph, independent of query order.
    p : float or None
        Edge probability, required by the random families.

    A schedule keeps every epoch graph it has drawn (see ``_epoch_edges``).
    The store is not part of the schedule's value: it is left out of
    equality, hashing and repr.
    """

    family: str
    m: int
    epoch_len: int | None = None
    seed: int = 0
    p: float | None = None
    _edges: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        object.__setattr__(self, "m", _integer("m", self.m, 2))
        if self.epoch_len is not None:
            object.__setattr__(self, "epoch_len", _integer("epoch_len", self.epoch_len, 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        if self.family in _RANDOM_FAMILIES:
            if self.p is None:
                raise ValueError(f"family {self.family!r} requires an edge probability p")
            if not (0.0 <= self.p <= 1.0):
                raise ValueError(f"p must lie in [0, 1], got {self.p}")

    def epoch_of(self, n: int) -> int:
        n = _integer("n", n, 0)
        if self.epoch_len is None:
            return 0
        return n // self.epoch_len

    def epoch_count(self, horizon: int) -> int:
        """Number of distinct epochs hit by iterations 0..horizon-1."""
        horizon = _integer("horizon", horizon, 1)
        if self.epoch_len is None:
            return 1
        return -(-horizon // self.epoch_len)


def _epoch_rng(schedule: NetworkSchedule, epoch: int) -> np.random.Generator:
    # Entropy namespaced under stream 0; dataset draws elsewhere use stream 1.
    return np.random.default_rng([schedule.seed, 0, epoch])


def _random_spanning_tree(rng: np.random.Generator, m: int) -> np.ndarray:
    """Uniform random labeled tree via a Pruefer sequence."""
    prufer = rng.integers(0, m, size=m - 2)
    degree = [1] * m
    for v in prufer:
        degree[v] += 1
    leaves = [i for i in range(m) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return np.array(edges)


@functools.lru_cache(maxsize=16)
def _upper_pairs(m: int) -> np.ndarray:
    """Every pair (i, j) with i < j, row-major, as a read-only (E, 2) array."""
    pairs = np.column_stack(np.triu_indices(m, k=1))
    pairs.flags.writeable = False
    return pairs


def _reach(link: np.ndarray, start: int) -> tuple[np.ndarray, int]:
    """The nodes joined to ``start`` by a path, as a boolean mask, and
    their count.

    ``link`` is the (m, m) boolean adjacency with its diagonal set on every
    node that has an edge (or on every node), so a reached node stays
    reached and each boolean product ``reach @ link`` only grows the set.
    The sweep stops once every node is reached or a product adds none. The
    mask includes ``start`` when its diagonal entry is set.
    """
    reach = link[start]
    count = np.count_nonzero(reach)
    while count < link.shape[0]:
        reach = reach @ link
        grown = np.count_nonzero(reach)
        if grown == count:
            break
        count = grown
    return reach, count


def _adjacency(m: int, pairs: np.ndarray) -> np.ndarray:
    """Boolean adjacency of in-range (E, 2) edges, diagonal set: ``_reach``'s
    ``link``."""
    link = np.eye(m, dtype=bool)
    link[pairs[:, 0], pairs[:, 1]] = True
    link[pairs[:, 1], pairs[:, 0]] = True
    return link


def _er_draw(rng: np.random.Generator, m: int, p: float) -> np.ndarray:
    pairs = _upper_pairs(m)
    # compress takes the same rows as a boolean index, at a third of its cost.
    return pairs.compress(rng.random(pairs.shape[0]) < p, axis=0)


def _connected_er(rng: np.random.Generator, m: int, p: float) -> np.ndarray:
    """Erdos-Renyi draw, rejection-sampled for connectivity.

    After ``_ER_MAX_DRAWS`` failures the last draw is unioned with a random
    spanning tree, which forces connectivity without biasing dense regimes.
    The union is returned sorted, as (i, j) pairs with i < j.
    """
    for _ in range(_ER_MAX_DRAWS):
        edges = _er_draw(rng, m, p)
        if _reach(_adjacency(m, edges), 0)[1] == m:
            return edges
    merged = np.concatenate([edges, np.sort(_random_spanning_tree(rng, m), axis=1)])
    keys = np.unique(merged[:, 0] * m + merged[:, 1])
    return np.column_stack(np.divmod(keys, m))


def _kruskal_mst(m: int, edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    order = np.argsort(weights, kind="stable")
    uf = _UnionFind(m)
    tree = []
    for a, b in edges[order].tolist():
        if uf.union(a, b):
            tree.append((a, b))
            if len(tree) == m - 1:
                break
    return np.array(tree)


def _epoch_edges(schedule: NetworkSchedule, epoch: int) -> np.ndarray:
    """Edges of the graph in force during ``epoch``, drawn on the first request.

    The draw is stored on the schedule as a read-only array of the smallest
    unsigned dtype that holds m - 1 (uint8 up to m = 256). Each epoch has its
    own random stream, so the order of requests does not change any graph.
    The complete family consumes no randomness and stores one array.
    """
    key = 0 if schedule.family == "complete" else epoch
    edges = schedule._edges.get(key)
    if edges is None:
        edges = _draw_edges(schedule, epoch).astype(np.min_scalar_type(schedule.m - 1))
        edges.flags.writeable = False
        schedule._edges[key] = edges
    return edges


def _draw_edges(schedule: NetworkSchedule, epoch: int) -> np.ndarray:
    m = schedule.m
    if schedule.family == "complete":
        # Invariant under relabeling; no randomness consumed.
        return _upper_pairs(m)
    rng = _epoch_rng(schedule, epoch)
    if schedule.family == "cycle":
        perm = rng.permutation(m)
        if m == 2:
            return perm[None, :]
        return np.column_stack([perm, np.roll(perm, -1)])
    if schedule.family == "star":
        perm = rng.permutation(m)
        return np.column_stack([np.full(m - 1, perm[0]), perm[1:]])
    if schedule.family == "erdos_renyi":
        return _connected_er(rng, m, schedule.p)
    # mst_of_er: spanning tree of a connected ER draw under random weights.
    edges = _connected_er(rng, m, schedule.p)
    weights = rng.random(len(edges))
    return _kruskal_mst(m, edges, weights)


def _edge_array(m: int, edges) -> np.ndarray:
    """The edge list as an (E, 2) array of its own integer dtype; an empty
    list gives E = 0.

    numpy reads a list of Python ints as int64 when they all fit, else as
    float64 or object. Such a list has an endpoint outside int64, so out of
    range for every m, and goes to ``_reject`` as the ints it holds."""
    listed = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        pairs = np.asarray(listed)
    except ValueError:
        raise ValueError("edges must be pairs of node indices, got a ragged sequence") from None
    if pairs.ndim == 1 and pairs.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must have shape (E, 2), got {pairs.shape}")
    if pairs.dtype.kind not in "iu":
        if not isinstance(edges, np.ndarray) and all(isinstance(v, int) for pair in listed for v in pair):
            _reject(m, np.array(listed, dtype=object))
        raise ValueError(f"edge endpoints must be integers, got dtype {pairs.dtype}")
    return pairs


def _reject(m: int, pairs: np.ndarray) -> NoReturn:
    """Raise the error that names what is wrong with an edge array the fast
    checks refused: the first edge, in input order, that is out of range, a
    self-loop, or a repeat of an earlier edge in either orientation; else
    the component count, one ``_reach`` sweep per component, each from the
    smallest node not yet reached."""
    seen = set()
    for a, b in pairs.tolist():
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"edge ({a}, {b}) out of range for m={m}")
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
    link = _adjacency(m, pairs.astype(np.intp))
    reached = np.zeros(m, dtype=bool)
    comps = 0
    while not reached.all():
        reached |= _reach(link, int(np.argmin(reached)))[0]
        comps += 1
    raise DisconnectedGraphError(
        f"graph has {comps} components; Laplacian kernel dimension would "
        f"be {comps}, expected 1"
    )


def laplacian_from_edges(m: int, edges) -> Laplacian:
    """Build the Laplacian D - A of an undirected simple graph.

    ``edges`` is any sequence of node pairs or an (E, 2) integer array.
    Rejects non-pairs, self-loops, duplicate or out-of-range edges (naming
    the first in input order), and disconnected graphs (a disconnected graph
    would give the Laplacian a kernel of dimension > 1, breaking the
    solver's consensus geometry).

    The checks run on the whole graph at once: a range test, the adjacency
    counts (an entry above 1 is a repeat or a self-loop) and a reachability
    sweep from node 0. Only a graph they refuse goes to ``_reject``, which
    finds the first offending edge or counts the components.
    """
    m = _integer("m", m, 1)
    pairs = _edge_array(m, edges)
    if pairs.size and (
        pairs.max() >= m or (pairs.dtype.kind == "i" and pairs.min() < 0)
    ):
        _reject(m, pairs)
    pairs = pairs.astype(np.intp, copy=False)
    adj = np.bincount(pairs[:, 0] * m + pairs[:, 1], minlength=m * m).reshape(m, m)
    adj = adj + adj.T
    if adj.max() > 1:
        _reject(m, pairs)
    # 0.0 - adj, not -adj: the zeros must stay +0.0.
    entries = 0.0 - adj
    entries.ravel()[:: m + 1] = np.bincount(pairs.ravel(), minlength=m)
    # Nonzeros of entries: the edges plus the diagonal of every node with an
    # edge, as _reach needs them.
    if m > 1 and _reach(entries != 0, 0)[1] < m:  # one node needs no edge
        _reject(m, pairs)
    entries.flags.writeable = False
    return Laplacian(entries)


def schedule_laplacian(schedule: NetworkSchedule, n: int) -> Laplacian:
    """Laplacian in force at iteration n (constant within an epoch)."""
    epoch = schedule.epoch_of(n)
    return laplacian_from_edges(schedule.m, _epoch_edges(schedule, epoch))


def _positive_extremes(eigs: np.ndarray) -> tuple[float, float]:
    lam_max = float(eigs[-1])
    floor = _EIG_FLOOR * max(1.0, lam_max)
    if eigs[0] < -floor:
        raise ValueError(f"Laplacian has negative eigenvalue {eigs[0]}")
    if abs(eigs[0]) > floor:
        raise ValueError(f"Laplacian lost its zero eigenvalue: {eigs[0]}")
    lam_min_plus = float(eigs[1])
    if lam_min_plus <= floor:
        raise DisconnectedGraphError(
            f"second-smallest eigenvalue {lam_min_plus} is not positive; graph disconnected"
        )
    return lam_min_plus, lam_max


def _certified_inside(lap: Laplacian, lo: float, hi: float) -> bool:
    """True when a proof shows that an eigen-solve of ``lap`` could move
    neither running extreme: its lambda_min+ lies above ``lo`` and its
    lambda_max below ``hi``, each by more than the margin.

    Degree checks first, read off L's diagonal: lambda_max >= d_max + 1
    (Grone & Merris) and lambda_min+ <= m / (m - 1) d_min (Fiedler). When
    either bound puts the epoch within the margin of a running extreme, or
    past it, no certificate can succeed, and the answer is False at once.
    This is the common case for dense graphs, where a node of degree m - 1
    makes lambda_max exactly m. An unset extreme (``hi`` = 0) always fails.

    Then one Cholesky call on two matrices, with s = lo + margin:
    A = L + (s + 1)/m 11^T - s I has eigenvalue 1 on the constants and
    lambda_k - s on their complement, so it is positive definite iff
    lambda_min+ > s; B = (hi - margin) I - L is iff lambda_max < hi - margin.
    A factorization that fails is no proof, and the answer is False.

    The margin is 1e-8 hi. Both matrices have 2-norm at most hi, since a
    graph with an edge has lambda_max >= 2. A Cholesky factorization that
    succeeds in floating point proves positive definite a matrix within
    about m^2 u hi of the one given (u = 2^-53, the unit roundoff), so a
    success still puts each exact extreme inside its running one by more
    than margin - m^2 u hi. ``eigvalsh`` is backward stable too: its
    computed extremes lie within about the same distance of the exact
    ones. At m = 50, m^2 u is 2.8e-13, and at m = 200 it is 4.4e-12, far
    below 1e-8; so a skipped epoch's computed extremes would lie strictly
    inside the running ones, and skipping it changes no bit of the
    result. Past m of about 3000, where 4 m^2 eps overtakes 1e-8, the
    margin grows with it.
    """
    m = lap.m
    margin = max(_CERT_MARGIN, 4 * m * m * _EPS) * hi
    degrees = np.diagonal(lap.entries)
    if degrees.max() + 1.0 >= hi - margin or m / (m - 1) * degrees.min() <= lo + margin:
        return False
    s = lo + margin
    pair = np.empty((2, m, m))
    np.add(lap.entries, (s + 1.0) / m, out=pair[0])
    np.negative(lap.entries, out=pair[1])
    # Both diagonals through one strided view; adding -s rounds as
    # subtracting s does.
    pair.reshape(2, m * m)[:, :: m + 1] += np.array([[-s], [hi - margin]])
    try:
        np.linalg.cholesky(pair)
    except np.linalg.LinAlgError:
        return False
    return True


def spectral_bounds(schedule: NetworkSchedule, horizon: int) -> SpectralBounds:
    """Extreme eigenvalues over all epochs realized in iterations 0..horizon-1.

    The stacked block mixing matrix kron(W, I_d) shares W's eigenvalues (each
    with multiplicity d), so bounds computed on the m x m matrices apply to
    the stacked operator. For relabeled families one epoch suffices: the
    spectrum is permutation-invariant. The epochs read here stay stored on
    the schedule, so a solver run on the same schedule draws none of them
    again.

    Every epoch's Laplacian is built and checked, but from
    ``_CERT_MIN_NODES`` nodes on only the epochs that ``_certified_inside``
    cannot exclude are eigen-solved; epoch 0 always is. Smaller schedules
    solve every epoch. A skipped epoch's extremes would lie strictly inside
    the running ones, so the result is bit for bit that of solving every
    epoch. A skipped graph is connected: its lambda_min+ exceeds a positive
    one.
    """
    epochs = schedule.epoch_count(horizon)
    if schedule.family in _RELABEL_FAMILIES:
        epochs = 1
    lam_min_plus = math.inf
    lam_max = 0.0
    certify = schedule.m >= _CERT_MIN_NODES
    for epoch in range(epochs):
        lap = laplacian_from_edges(schedule.m, _epoch_edges(schedule, epoch))
        if certify and _certified_inside(lap, lam_min_plus, lam_max):
            continue
        lo, hi = _positive_extremes(lap.eigenvalues())
        lam_min_plus = min(lam_min_plus, lo)
        lam_max = max(lam_max, hi)
    return SpectralBounds(lambda_min_plus=lam_min_plus, lambda_max=lam_max)
