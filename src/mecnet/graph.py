"""Undirected simple graphs with the graph-state rewrite rules.

Vertices are dense integer ids ``0..vertex_count-1``.  Adjacency is stored
as one Python-int bitmask per vertex, so neighborhood algebra (complement,
local complementation, compatibility tests) runs on machine words.

A graph is its adjacency.  Vertex deletion keeps ids stable: a deleted
vertex keeps its slot as an isolated vertex, which is what the Z rule
leaves and what the tableau oracle reads (a bare X generator).  All
operations return new Graph values; instances are immutable from the
caller's perspective.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Optional, Sequence

import numpy as np

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "MeasurementRecord",
    "bits",
    "components",
    "graph_to_edgelist",
    "graph_from_edgelist",
]

# The most vertices that ``Graph(...)`` builds, and so the most data vertices
# of a network read from a file, from OpenFlights data or from a config; a
# larger count is refused before anything is allocated.  At this size
# ``generate_inter_qnet`` peaks at about 150 MB of resident memory (64-bit
# CPython 3.11, numpy 2.4).
MAX_VERTICES = 4096


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def masks_to_matrix(masks: Sequence[int], n: int) -> np.ndarray:
    """The ``len(masks)``×``n`` boolean matrix whose cell ``[i, j]`` is bit
    ``j`` of ``masks[i]`` (little-endian).  Every mask must be below
    ``2**n``, rounded up to whole bytes."""
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    grid = np.frombuffer(raw, np.uint8).reshape(len(masks), width)
    return np.unpackbits(grid, axis=1, count=n, bitorder="little").view(bool)


def matrix_to_masks(matrix: np.ndarray) -> list[int]:
    """One mask per row of a 2-d boolean or 0/1 matrix, bit ``j`` set iff
    column ``j`` is nonzero; the inverse of :func:`masks_to_matrix`.  A
    transposed view is packed from a C-contiguous copy, which is faster."""
    packed = np.packbits(np.ascontiguousarray(matrix), axis=1, bitorder="little")
    step, raw = packed.shape[1], packed.tobytes()
    return [int.from_bytes(raw[i * step : (i + 1) * step], "little") for i in range(len(packed))]


def components(adj: Sequence[int], mask: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph induced on
    ``mask``, ordered by lowest vertex.  ``adj[v]`` is the neighbor mask of
    vertex ``v``."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        mask ^= comp
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= adj[low.bit_length() - 1]
            frontier = reach & mask
            mask ^= frontier
            comp |= frontier
        comps.append(comp)
    return comps


def _local_complement(adj: list[int], v: int) -> None:
    """Complement, in place, the induced subgraph on the open neighborhood
    of ``v`` in the neighbor masks ``adj``."""
    nv = m = adj[v]
    while m:
        low = m & -m
        m ^= low
        adj[low.bit_length() - 1] ^= nv ^ low


def _keep(adj: list[int], mask: int) -> None:
    """Delete, in place, every vertex outside ``mask`` from the neighbor
    masks ``adj``: its row is cleared, and its bit in every other row."""
    adj[:] = [a & mask if mask >> v & 1 else 0 for v, a in enumerate(adj)]


@dataclass(frozen=True)
class MeasurementRecord:
    """Symbolic record of a single-qubit Pauli measurement on a graph state.

    The outcome-dependent local-Clifford byproduct is never applied to the
    graph; the basis, the vertex and ``special_neighbor``, the designated
    neighbor of the X-measurement rule (absent for Z), fix it.  No code
    computes the byproduct yet.
    """

    vertex: int
    basis: Literal["X", "Z"]
    special_neighbor: Optional[int] = None

    def __post_init__(self) -> None:
        if self.basis == "X" and self.special_neighbor is None:
            raise ValueError("X measurement requires a special neighbor")
        if self.basis == "Z" and self.special_neighbor is not None:
            raise ValueError("Z measurement takes no special neighbor")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Graph:
    """Immutable undirected simple graph over stable integer ids."""

    vertex_count: int
    _adj: tuple[int, ...]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        vertex_count = operator.index(vertex_count)
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        if vertex_count > MAX_VERTICES:
            raise ValueError(f"vertex_count {vertex_count} is above the vertex limit {MAX_VERTICES}")
        adj = [0] * vertex_count
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) outside 0..{vertex_count - 1}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "_adj", tuple(adj))

    @classmethod
    def _from_parts(cls, vertex_count: int, adj: tuple[int, ...]) -> "Graph":
        g = cls.__new__(cls)
        object.__setattr__(g, "vertex_count", vertex_count)
        object.__setattr__(g, "_adj", adj)
        return g

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, edges={self.edges()!r})"

    # -- queries ---------------------------------------------------------

    @property
    def adjacency(self) -> tuple[int, ...]:
        """The neighbor mask of every slot by id, 0 for an isolated one.  Unlike
        :meth:`neighbor_mask` it checks no id: a negative one wraps around."""
        return self._adj

    def neighbor_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v]

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.neighbor_mask(v)))

    def has_edge(self, u: int, v: int) -> bool:
        u, v = operator.index(u), operator.index(v)
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u, a in enumerate(self._adj):
            m = a >> (u + 1)
            while m:
                low = m & -m
                m ^= low
                out.append((u, u + low.bit_length()))
        return out

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self._adj) // 2

    def connected(self) -> bool:
        """True iff all slots form one connected component."""
        return len(components(self._adj, (1 << self.vertex_count) - 1)) <= 1

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"invalid vertex id {v}")

    # -- rewrite rules -----------------------------------------------------

    def measure_x(self, v: int, k0: int) -> tuple["Graph", MeasurementRecord]:
        """Pauli-X measurement rule at the graph level.

        Applies local complementation at the special neighbor ``k0``, then at
        ``v``, deletes ``v`` as the Z rule does, and complements at ``k0``
        again, all on one copy of the masks.  ``k0`` must be adjacent to
        ``v``.  The outcome-dependent local-Clifford byproduct is not
        applied; the returned record's basis, vertex and special neighbor
        ``k0`` fix it, and no code computes it yet.
        """
        v, k0 = operator.index(v), operator.index(k0)
        if not self.has_edge(v, k0):
            raise ValueError(f"k0={k0} is not adjacent to measured vertex {v}")
        full = (1 << self.vertex_count) - 1
        adj = list(self._adj)
        _local_complement(adj, k0)
        _local_complement(adj, v)
        _keep(adj, full ^ 1 << v)
        _local_complement(adj, k0)
        return Graph._from_parts(self.vertex_count, tuple(adj)), MeasurementRecord(v, "X", k0)

    def measure_z(self, v: int) -> tuple["Graph", MeasurementRecord]:
        """Pauli-Z measurement rule: vertex deletion, ``v``'s slot left isolated."""
        v = operator.index(v)
        self._check_vertex(v)
        full = (1 << self.vertex_count) - 1
        return self.keep(full ^ 1 << v), MeasurementRecord(v, "Z")

    def keep(self, mask: int) -> "Graph":
        """Induced subgraph on the vertices in ``mask``: the Z rule applied
        to every vertex outside it, whose rows are cleared and whose slots
        stay, isolated.
        """
        adj = list(self._adj)
        _keep(adj, mask)
        return Graph._from_parts(self.vertex_count, tuple(adj))

    # -- restriction -------------------------------------------------------

    def restrict(self, count: int) -> "Graph":
        """Subgraph on the id range ``0..count-1`` as a fresh graph.

        Raises if a dropped slot keeps an edge into the kept range; intended
        for dropping trailing isolated slots (e.g. measured-out control
        vertices).
        """
        if not (0 <= count <= self.vertex_count):
            raise ValueError("restriction size out of range")
        low = (1 << count) - 1
        for u, a in enumerate(self._adj[count:], count):
            if a & low:
                raise ValueError(f"edge from dropped vertex {u} crosses the cut")
        return Graph._from_parts(count, self._adj[:count])


# -- serialization ----------------------------------------------------------


def graph_to_edgelist(g: Graph) -> str:
    """Serialize to the edge-list text format: header ``n=<count>``, then
    one ``u v`` line per edge in sorted order.  Every graph is
    representable: a deleted vertex is an isolated slot."""
    lines = [f"n={g.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_edgelist(text: str) -> Graph:
    """Parse the edge-list text format produced by :func:`graph_to_edgelist`.

    Blank lines and ``#`` comments are skipped.  A malformed line raises
    ValueError naming it.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n="):
        first = f" before {lines[0]!r}" if lines else ""
        raise ValueError(f"missing 'n=<vertex_count>' header{first}")
    (n,) = _int_fields(lines[0], lines[0][2:].split(), 1)
    edges = [_int_fields(ln, ln.split(), 2) for ln in lines[1:]]
    try:
        return Graph(n, edges)
    except ValueError as exc:
        # Graph refuses a count out of range or its first bad edge: name the line
        bad = (ln for ln, (u, v) in zip(lines[1:], edges) if u == v or not (0 <= u < n and 0 <= v < n))
        line = lines[0] if not 0 <= n <= MAX_VERTICES else next(bad)
        raise ValueError(f"malformed line: {line!r}: {exc}") from None


def _int_fields(line: str, fields: Iterable[str], count: Optional[int] = None) -> tuple[int, ...]:
    """The integers in ``fields``, blank ones skipped.  Raises ValueError
    naming ``line`` if one is not an integer or, given ``count``, if there
    are not exactly that many."""
    try:
        ints = tuple(int(f) for f in fields if f.strip())
    except ValueError:
        ints = None
    if ints is None or count is not None and len(ints) != count:
        raise ValueError(f"malformed line: {line!r}")
    return ints
