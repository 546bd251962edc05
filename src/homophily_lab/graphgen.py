"""Seeded sampling of labeled two-group graphs.

Nodes 0..n0-1 form the minority group and n0..N-1 the majority; membership
is positional, never stored per node. Every unordered pair is an
independent Bernoulli edge: probability h00 inside the minority block, h11
inside the majority block, and (h01 + h10) / 2 for cross pairs, so realized
pair-class edge counts are binomial with means equal to the closed forms in
:mod:`homophily_lab.model`.

Randomness comes from numpy's PCG64 bit generator seeded with a 64-bit
integer. Pairs are consumed in a fixed order (minority block, then majority
block, then cross block, each row-major), which makes a ``GenSpec`` pin the
output exactly for a given library version. Two sampling paths produce the
same distribution: a dense per-pair path used up to ``DENSE_MAX_NODES``
nodes, and a geometric skip path (gap lengths between successes) whose cost
scales with the number of edges rather than pairs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .model import ModelParams, ValidationError

DENSE_MAX_NODES = 20_000
DEFAULT_MAX_NODES = 1_000_000

_SEED_MAX = 2**64
_CHUNK = 1 << 24  # uniforms drawn per dense batch; bounds peak memory
_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)


class CapacityError(ValidationError):
    """Requested network size exceeds the configured maximum."""


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Simple undirected graph over nodes 0..n_total-1 with the first
    n_minority nodes forming group 0.

    ``edges`` is an (m, 2) int64 array with u < v per row, sorted
    lexicographically; this canonical form makes equal graphs byte-equal.
    The array is frozen after construction so instances can be shared
    read-only. Construction checks shapes and group sizes only; call
    :meth:`validate` for the full structural invariants.
    """

    n_total: int
    n_minority: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_minority <= self.n_total - 1:
            raise ValidationError(
                f"n_minority must be in [1, n_total - 1], "
                f"got {self.n_minority} of {self.n_total}"
            )
        edges = np.ascontiguousarray(self.edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValidationError(f"edges must have shape (m, 2), got {edges.shape}")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def n_majority(self) -> int:
        return self.n_total - self.n_minority

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def validate(self) -> None:
        """Check all structural invariants, raising ValidationError on failure:
        index range, u < v, lexicographic order, no duplicates."""
        e = self.edges
        if e.shape[0] == 0:
            return
        if e.min() < 0 or e.max() >= self.n_total:
            raise ValidationError("edge endpoint out of range")
        if not np.all(e[:, 0] < e[:, 1]):
            raise ValidationError("edges must satisfy u < v (no self-loops)")
        key = e[:, 0] * self.n_total + e[:, 1]
        if not np.all(np.diff(key) > 0):
            raise ValidationError("edges must be strictly lexicographically sorted")


@dataclass(frozen=True)
class GenSpec:
    """Everything needed to regenerate one graph: parameters plus a 64-bit seed."""

    params: ModelParams
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < _SEED_MAX:
            raise ValidationError(f"seed out of range [0, 2^64): {self.seed}")


def _dense_hits(rng: np.random.Generator, n_pairs: int, p: float) -> np.ndarray:
    """Indices of successes among n_pairs Bernoulli(p) trials, drawn per pair."""
    hits = []
    start = 0
    while start < n_pairs:
        size = min(_CHUNK, n_pairs - start)
        u = rng.random(size)
        chunk = np.flatnonzero(u < p).astype(np.int64)
        if chunk.size:
            hits.append(chunk + start)
        start += size
    return np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)


def _skip_hits(rng: np.random.Generator, n_pairs: int, p: float) -> np.ndarray:
    """Same distribution as :func:`_dense_hits`, sampling geometric gaps
    between successes instead of one uniform per pair."""
    hits = []
    pos = -1
    while pos < n_pairs - 1:
        expect = int((n_pairs - 1 - pos) * p * 1.05) + 16
        size = min(max(expect, 256), 1 << 22)
        gaps = rng.geometric(p, size=size)
        steps = pos + np.cumsum(gaps)
        cut = int(np.searchsorted(steps, n_pairs, side="left"))
        if cut:
            hits.append(steps[:cut].astype(np.int64))
        if cut < steps.size:
            break
        pos = int(steps[-1])
    return np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)


def _block_hits(rng: np.random.Generator, n_pairs: int, p: float, dense: bool) -> np.ndarray:
    if n_pairs == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        # deterministic block: consume no randomness on either path
        return np.arange(n_pairs, dtype=np.int64)
    return _dense_hits(rng, n_pairs, p) if dense else _skip_hits(rng, n_pairs, p)


def _intra_pairs(hits: np.ndarray, m: int, offset: int) -> np.ndarray:
    """Map row-major linear pair indices within an m-node block to (u, v).

    Row i holds the pairs (i, i+1..m-1), so row starts are the running sums
    of the shrinking row lengths; a binary search recovers the row of each
    hit.
    """
    if hits.size == 0:
        return _EMPTY_EDGES
    row_starts = np.concatenate(
        ([0], np.cumsum(np.arange(m - 1, 0, -1, dtype=np.int64)))
    )
    i = np.searchsorted(row_starts, hits, side="right") - 1
    j = hits - row_starts[i] + i + 1
    return np.stack([i + offset, j + offset], axis=1)


def _cross_pairs(hits: np.ndarray, n_minority: int, n_majority: int) -> np.ndarray:
    """Map row-major linear cross-pair indices to (minority u, majority v)."""
    if hits.size == 0:
        return _EMPTY_EDGES
    u = hits // n_majority
    v = n_minority + (hits - u * n_majority)
    return np.stack([u, v], axis=1)


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable merge of two lexicographically sorted edge arrays where, for
    any shared u, every v in ``a`` precedes every v in ``b``."""
    if a.shape[0] == 0:
        return b
    if b.shape[0] == 0:
        return a
    pos_a = np.arange(a.shape[0]) + np.searchsorted(b[:, 0], a[:, 0], side="left")
    pos_b = np.arange(b.shape[0]) + np.searchsorted(a[:, 0], b[:, 0], side="right")
    out = np.empty((a.shape[0] + b.shape[0], 2), dtype=np.int64)
    out[pos_a] = a
    out[pos_b] = b
    return out


def check_capacity(n_total: int, max_nodes: int = DEFAULT_MAX_NODES) -> None:
    """Raise CapacityError when a network of n_total nodes is too large."""
    if n_total > max_nodes:
        raise CapacityError(f"n_total={n_total} exceeds the configured maximum {max_nodes}")


def generate(
    spec: GenSpec,
    *,
    method: str = "auto",
    max_nodes: int = DEFAULT_MAX_NODES,
) -> LabeledGraph:
    """Sample one graph from its spec; deterministic in the seed.

    ``method`` selects the sampling path: "dense" draws one uniform per
    pair, "skip" draws geometric gaps between edges, "auto" picks dense up
    to DENSE_MAX_NODES nodes. The paths share one edge distribution.
    """
    params = spec.params
    check_capacity(params.n_total, max_nodes)
    if method not in ("auto", "dense", "skip"):
        raise ValidationError(f"unknown sampling method: {method!r}")
    dense = method == "dense" or (method == "auto" and params.n_total <= DENSE_MAX_NODES)

    n0 = params.n_minority
    n1 = params.n_majority
    rng = np.random.Generator(np.random.PCG64(spec.seed))

    minority_hits = _block_hits(rng, n0 * (n0 - 1) // 2, params.h_intra_minority, dense)
    majority_hits = _block_hits(rng, n1 * (n1 - 1) // 2, params.h_intra_majority, dense)
    cross_hits = _block_hits(rng, n0 * n1, params.p_cross, dense)

    # canonical lexicographic order without a global sort: the low-u rows
    # interleave the (already sorted) minority and cross blocks, and every
    # majority-block edge has u >= n0, so it appends after them
    low = _merge_sorted(
        _intra_pairs(minority_hits, n0, 0), _cross_pairs(cross_hits, n0, n1)
    )
    edges = np.concatenate([low, _intra_pairs(majority_hits, n1, n0)])
    return LabeledGraph(params.n_total, n0, edges)


def node_degrees(graph: LabeledGraph) -> np.ndarray:
    """Degree of every node as an int64 array of length n_total."""
    return np.bincount(graph.edges.ravel(), minlength=graph.n_total).astype(np.int64)


def empirical_group_degrees(graph: LabeledGraph) -> tuple[float, float]:
    """Exact mean degree of each group.

    Group degree sums are integers, so n0*k0 + n1*k1 recovers twice the
    edge count up to float division only.
    """
    degrees = node_degrees(graph)
    s0 = int(degrees[: graph.n_minority].sum())
    s1 = int(degrees[graph.n_minority :].sum())
    return s0 / graph.n_minority, s1 / graph.n_majority


def pair_class_counts(graph: LabeledGraph) -> tuple[int, int, int]:
    """Realized edge counts (intra-minority, intra-majority, cross)."""
    n0 = graph.n_minority
    in_minority = graph.edges < n0
    both_minority = int(np.count_nonzero(in_minority.all(axis=1)))
    both_majority = int(np.count_nonzero((~in_minority).all(axis=1)))
    cross = graph.edge_count - both_minority - both_majority
    return both_minority, both_majority, cross


_HEADER_RE = re.compile(
    r"^# N=(\d+) n0=(\d+) seed=(\d+) h00=(\S+) h11=(\S+)\s*$"
)


def write_edge_list(out: IO[str], graph: LabeledGraph, *, seed: int, h00: float, h11: float) -> None:
    """Write the canonical text edge-list format.

    One header line carrying the generation metadata, then one ``u v`` line
    per edge in ascending order. Floats use shortest round-trip notation, so
    an import/export cycle is byte-identical.
    """
    out.write(f"# N={graph.n_total} n0={graph.n_minority} seed={seed} h00={h00!r} h11={h11!r}\n")
    for u, v in graph.edges:
        out.write(f"{u} {v}\n")


def read_edge_list(lines: Iterable[str]) -> tuple[LabeledGraph, dict]:
    """Parse the edge-list format back into a validated graph plus its
    header metadata (keys: seed, h00, h11)."""
    it = iter(lines)
    try:
        header = next(it)
    except StopIteration:
        raise ValidationError("empty edge-list input") from None
    match = _HEADER_RE.match(header)
    if match is None:
        raise ValidationError(f"malformed edge-list header: {header.rstrip()!r}")
    n_total, n_minority, seed = int(match[1]), int(match[2]), int(match[3])
    meta = {"seed": seed, "h00": float(match[4]), "h11": float(match[5])}
    pairs = []
    for line in it:
        line = line.strip()
        if not line:
            continue
        u, v = line.split()
        pairs.append((int(u), int(v)))
    edges = np.array(pairs, dtype=np.int64) if pairs else _EMPTY_EDGES
    graph = LabeledGraph(n_total, n_minority, edges)
    graph.validate()
    return graph, meta
