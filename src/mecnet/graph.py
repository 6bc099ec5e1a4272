"""Undirected simple graphs with the graph-state rewrite rules.

Vertices are dense integer ids ``0..vertex_count-1``.  Adjacency is stored
as one Python-int bitmask per vertex, so neighborhood algebra (complement,
the measurement rules, compatibility tests) runs on machine words.

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


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """Symbolic record of a single-qubit Pauli measurement on a graph state.

    The outcome-dependent local-Clifford byproduct is never applied to the
    graph; the vertex and ``special_neighbor``, the designated neighbor of
    the X-measurement rule (None for a Z measurement), fix it.  The basis is
    read off the neighbor, so a record cannot disagree with itself.  No code
    computes the byproduct yet.
    """

    vertex: int
    special_neighbor: Optional[int] = None

    @property
    def basis(self) -> Literal["X", "Z"]:
        return "Z" if self.special_neighbor is None else "X"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Graph:
    """Immutable undirected simple graph over stable integer ids.

    Its one field, ``adjacency``, holds the neighbor mask of every slot by
    id, 0 for an isolated one; the vertex count is its length.  Unlike
    :meth:`neighbor_mask`, indexing it checks no id: a negative one wraps
    around.
    """

    adjacency: tuple[int, ...]

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
        object.__setattr__(self, "adjacency", tuple(adj))

    @classmethod
    def _from_parts(cls, adj: tuple[int, ...]) -> "Graph":
        g = cls.__new__(cls)
        object.__setattr__(g, "adjacency", adj)
        return g

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, edges={self.edges()!r})"

    # -- queries ---------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def neighbor_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self.adjacency[v]

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.neighbor_mask(v)))

    def has_edge(self, u: int, v: int) -> bool:
        u, v = operator.index(u), operator.index(v)
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adjacency[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u, a in enumerate(self.adjacency):
            m = a >> (u + 1)
            while m:
                low = m & -m
                m ^= low
                out.append((u, u + low.bit_length()))
        return out

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2

    def connected(self) -> bool:
        """True iff all slots form one connected component."""
        return len(components(self.adjacency, (1 << len(self.adjacency)) - 1)) <= 1

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < len(self.adjacency)):
            raise ValueError(f"invalid vertex id {v}")

    # -- rewrite rules -----------------------------------------------------

    def measure_x(self, v: int, k0: int) -> tuple["Graph", MeasurementRecord]:
        """Pauli-X measurement rule at the graph level, in one pass.

        With ``na = N(v) - {k0}``, ``nb = N(k0) - {v}``, ``C = na & nb``,
        ``A = na - C`` and ``B = nb - C``, every edge between two of A, B
        and C is toggled, A gains k0, B loses it, A and C lose v, k0's
        neighbors become ``na`` and v's slot is left isolated.  This is the
        literal rule τ_k0 τ_v (delete v) τ_k0 (Hein, Eisert & Briegel, PRA
        69, 062311, 2004): deleting v commutes with the last τ_k0, and
        τ_k0 τ_v τ_k0 on the edge v–k0 is the pivot (Bouchet 1988), which
        toggles those edges and swaps the neighborhoods of v and k0.  ``k0``
        must be adjacent to ``v``.  The local-Clifford byproduct is not
        applied; the returned record, ``MeasurementRecord(v, k0)``, fixes it.
        """
        v, k0 = operator.index(v), operator.index(k0)
        if not self.has_edge(v, k0):
            raise ValueError(f"k0={k0} is not adjacent to measured vertex {v}")
        adj = list(self.adjacency)
        vb, kb = 1 << v, 1 << k0
        na, nb = adj[v] ^ kb, adj[k0] ^ vb
        c = na & nb
        a, b = na ^ c, nb ^ c
        for m, flip in ((a, b | c | kb | vb), (b, a | c | kb), (c, a | b | vb)):
            while m:
                low = m & -m
                m ^= low
                adj[low.bit_length() - 1] ^= flip
        adj[k0], adj[v] = na, 0
        return Graph._from_parts(tuple(adj)), MeasurementRecord(v, k0)

    def measure_z(self, v: int) -> tuple["Graph", MeasurementRecord]:
        """Pauli-Z measurement rule: vertex deletion, ``v``'s slot left
        isolated.  The record, ``MeasurementRecord(v)``, has no special
        neighbor."""
        v = operator.index(v)
        self._check_vertex(v)
        full = (1 << len(self.adjacency)) - 1
        return self.keep(full ^ 1 << v), MeasurementRecord(v)

    def keep(self, mask: int) -> "Graph":
        """Induced subgraph on the vertices in ``mask``: the Z rule applied
        to every vertex outside it, whose rows are cleared and whose slots
        stay, isolated.
        """
        adj = [a & mask if mask >> v & 1 else 0 for v, a in enumerate(self.adjacency)]
        return Graph._from_parts(tuple(adj))

    # -- restriction -------------------------------------------------------

    def restrict(self, count: int) -> "Graph":
        """Subgraph on the id range ``0..count-1`` as a fresh graph.

        Raises if a dropped slot keeps an edge into the kept range; intended
        for dropping trailing isolated slots (e.g. measured-out control
        vertices).
        """
        if not (0 <= count <= len(self.adjacency)):
            raise ValueError("restriction size out of range")
        low = (1 << count) - 1
        for u, a in enumerate(self.adjacency[count:], count):
            if a & low:
                raise ValueError(f"edge from dropped vertex {u} crosses the cut")
        return Graph._from_parts(self.adjacency[:count])


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
