"""Parallel-pair compatibility and the Dynamic Parallel Pairs scheduler.

Two existing edges can host simultaneous EPR extractions when their
endpoint sets are disjoint and no endpoint of one lies in a neighborhood
of the other (checked in both directions).  The scheduler partitions a
batch of remote requests into groups that are pairwise compatible, working
on the cross-domain complement of the controlled network.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .graph import Graph, bits
from .qnet import ControlledInterQNet, InterQNet, complement_inter_qnet

__all__ = [
    "RequestError",
    "RequestNotInComplement",
    "ParallelPairViolation",
    "RequestSet",
    "CandidateList",
    "ParallelPairTable",
    "canonical_edge",
    "compatible",
    "parallel_pair_candidates",
    "check_parallel_pairable",
    "dynamic_parallel_pairs",
    "min_partition_oracle",
    "table_to_text",
]

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class RequestError(ValueError):
    """A request pair violates the intake contract."""


class RequestNotInComplement(RequestError):
    pass


class ParallelPairViolation(RuntimeError):
    """A group failed the conflict-free extraction contract."""

    def __init__(self, message: str, extra_edges: tuple[Edge, ...] = ()):
        super().__init__(message)
        self.extra_edges = extra_edges


@dataclass(frozen=True)
class RequestSet:
    """Batch of source-destination pairs, as ``sample_requests`` draws them
    without replacement from the edge list of the cross-domain complement:
    canonical, distinct, inter-domain and non-adjacent in the original
    network.

    The constructor checks nothing.  :func:`dynamic_parallel_pairs` is the
    one intake check for requests from anywhere: a pair that is not a
    complement edge (inside one QNet, or already adjacent) raises
    RequestNotInComplement, and a duplicate raises RequestError.
    """

    requests: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)


@dataclass(frozen=True)
class CandidateList:
    """Per-request sets of compatible edges, over the whole edge set.

    An edge is compatible with the target ``t = (a, b)`` exactly when both
    its endpoints lie outside ``reach(t) = {a, b} | N(a) | N(b)``, so the
    candidate list of ``t`` is the edge set of the subgraph induced on
    ``free[t] = alive & ~reach(t)``.  Only that mask is stored; a lookup
    decodes the edge set.
    """

    graph: Graph
    free: Mapping[Edge, int]

    def __getitem__(self, e: Edge) -> frozenset[Edge]:
        return frozenset(self.graph.keep(self.free[e]).edges())


@dataclass(frozen=True)
class ParallelPairTable:
    groups: tuple[frozenset[Edge], ...]

    @property
    def rho(self) -> int:
        return len(self.groups)


# -- pairwise predicate --------------------------------------------------------


def compatible(g: Graph, e1: Edge, e2: Edge) -> bool:
    """Disjoint endpoints and mutual neighborhood exclusion for two edges."""
    a, b = e1
    c, d = e2
    if not g.has_edge(a, b):
        raise ValueError(f"{e1} is not an edge")
    if not g.has_edge(c, d):
        raise ValueError(f"{e2} is not an edge")
    m1 = (1 << a) | (1 << b)
    m2 = (1 << c) | (1 << d)
    if m1 & m2:
        return False
    n1 = g.neighbor_mask(a) | g.neighbor_mask(b)
    n2 = g.neighbor_mask(c) | g.neighbor_mask(d)
    return not (m2 & n1) and not (m1 & n2)


def parallel_pair_candidates(g: Graph, targets: Iterable[Edge]) -> CandidateList:
    """For each target edge, every other edge of ``g`` compatible with it.

    One free-vertex mask per target (see :class:`CandidateList`).
    """
    alive = g.alive_mask
    free: dict[Edge, int] = {}
    for t in targets:
        a, b = t = canonical_edge(*t)
        if not (a >= 0 and b < g.vertex_count and g.has_edge(a, b)):
            raise ValueError(f"target {t} is not an edge")
        reach = (1 << a) | (1 << b) | g.neighbor_mask(a) | g.neighbor_mask(b)
        free[t] = alive & ~reach
    return CandidateList(g, free)


def _compat_rows(g: Graph, edges: Sequence[Edge]) -> list[int]:
    """Compatibility matrix of ``edges`` as one bitmask row per edge.

    Bit ``j`` of row ``i`` is set iff ``edges[i]`` and ``edges[j]`` are
    compatible (never for ``j == i``).  Each vertex maps to the mask of the
    edges that touch it, and ``near[v]`` to the edges touching ``v`` or one
    of its neighbors.  An edge ``(a, b)`` conflicts with every edge touching
    its endpoints or their neighbors, that is with ``near[a] | near[b]``.
    The callers check that every entry of ``edges`` is an edge of ``g``.
    """
    touching = [0] * g.vertex_count
    touched = 0
    for i, (a, b) in enumerate(edges):
        touching[a] |= 1 << i
        touching[b] |= 1 << i
        touched |= (1 << a) | (1 << b)
    near = touching[:]
    for v in bits(touched):
        for u in bits(g.neighbor_mask(v) & touched):
            near[v] |= touching[u]
    full = (1 << len(edges)) - 1
    return [full & ~(near[a] | near[b]) for a, b in edges]


def check_parallel_pairable(g: Graph, edges: Iterable[Edge]) -> bool:
    """True iff the given edges are pairwise compatible.

    Reads the compatibility matrix of the edges themselves: each row must
    cover every other member.  Raises ValueError for a non-edge when more
    than one distinct edge is given.
    """
    edge_set = sorted({canonical_edge(u, v) for u, v in edges})
    if len(edge_set) <= 1:
        return True
    for a, b in edge_set:
        if not g.has_edge(a, b):
            raise ValueError(f"({a},{b}) is not an edge")
    full = (1 << len(edge_set)) - 1
    rows = _compat_rows(g, edge_set)
    return all((row | 1 << i) == full for i, row in enumerate(rows))


# -- scheduler -----------------------------------------------------------------


def _greedy_seed(
    heap: list[tuple[int, int]], rows: Sequence[int], remaining: int
) -> Optional[int]:
    """The remaining request with the most compatible partners among the
    remaining requests, the lowest index on ties; None when that count is 0.

    A request's count ``(rows[i] & remaining).bit_count()`` never rises as
    ``remaining`` shrinks, so a count taken earlier is an upper bound.  The
    requests sit in ``heap`` keyed ``(-bound, index)``.  The top is re-counted
    and accepted only when its count still equals its bound: it is then at
    least every other bound, so every other count, and any request with the
    same count has the same bound and so a higher index.
    """
    while True:
        bound, i = heap[0]
        if not remaining >> i & 1:
            heapq.heappop(heap)
            continue
        count = (rows[i] & remaining).bit_count()
        if count == -bound:
            heapq.heappop(heap)
            # the highest count is 0: every remaining request is alone
            return i if count else None
        heapq.heapreplace(heap, (-count, i))


def dynamic_parallel_pairs(
    cg: ControlledInterQNet,
    r: "RequestSet | Iterable[Edge]",
    complement: Optional[InterQNet] = None,
) -> ParallelPairTable:
    """Partition the request batch into parallel-pairable groups.

    The batch is interpreted on the cross-domain complement of the
    controlled network; a caller that already holds it (as
    ``complement_inter_qnet(cg.data)``) passes it as ``complement`` so
    that it is not rebuilt.  Each group is the paper's
    greedy: it starts from the remaining request with the most compatible
    partners among the remaining ones and grows by the candidate with the
    most, the lowest index on ties, intersecting the shared candidate set
    after each addition; a pairwise compatible batch thus forms a single
    group.  Requests are indexed in sorted order and the scheduler runs on
    their compatibility matrix, built once per batch, so it never scans
    edges outside the batch.  Each request is checked here, once, to be a
    complement edge.  The result is checked against the whole-edge-set
    candidate lists before it is returned.
    """
    if complement is None:
        complement = complement_inter_qnet(cg.data)
    cgraph = complement.graph
    requests = [canonical_edge(*e) for e in r]
    for e in requests:
        if not cgraph.has_edge(*e):
            raise RequestNotInComplement(f"request {e} is not a complement edge")
    if len(set(requests)) != len(requests):
        raise RequestError("duplicate requests")

    edges = sorted(requests)
    rows = _compat_rows(cgraph, edges)
    heap = [(-row.bit_count(), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    groups: list[frozenset[Edge]] = []
    remaining = (1 << len(edges)) - 1
    while remaining:
        seed = _greedy_seed(heap, rows, remaining)
        if seed is None:
            groups.extend(frozenset((edges[i],)) for i in bits(remaining))
            break
        group = 1 << seed
        shared = rows[seed] & remaining
        # candidates only drop out of ``shared`` as the group grows, so one
        # ranking by partners left at group start gives each step's pick:
        # the first candidate in it still shared
        for i in sorted(bits(shared), key=lambda j: -(rows[j] & remaining).bit_count()):
            if shared >> i & 1:
                group |= 1 << i
                shared &= rows[i]
        remaining ^= group
        groups.append(frozenset(edges[i] for i in bits(group)))
    table = ParallelPairTable(tuple(groups))
    _assert_table_valid(cgraph, table, requests)
    return table


def _assert_table_valid(g: Graph, table: ParallelPairTable, requests: Sequence[Edge]) -> None:
    """Check ``table`` against the paper's whole-edge-set formulation.

    The groups must partition ``requests``, and every member's candidate
    list must hold the rest of its group.  With candidate lists held as
    free-vertex masks, that is one mask test per member: the endpoints of
    the rest of its group lie in its free mask.  A shared endpoint fails
    too, as the other end of either edge neighbors it.  Raises
    ParallelPairViolation.
    """
    got = sorted(e for grp in table.groups for e in grp)
    if got != sorted(requests):
        raise ParallelPairViolation("groups must partition the request set")
    cl = parallel_pair_candidates(g, requests)
    for grp in table.groups:
        ends = 0
        for a, b in grp:
            ends |= (1 << a) | (1 << b)
        for e in sorted(grp):
            if ends & ~((1 << e[0]) | (1 << e[1])) & ~cl.free[e]:
                extra = sorted(grp - {e} - cl[e])
                raise ParallelPairViolation(
                    f"group member {e} conflicts with {extra}",
                    extra_edges=tuple(extra),
                )


def min_partition_oracle(g: Graph, r: Iterable[Edge]) -> int:
    """Exact minimum number of parallel-pairable groups, |r| <= 10.

    Exhaustive set-partition search with branch-and-bound on the running
    best; compatibility is precomputed pairwise.
    """
    edges = sorted({canonical_edge(u, v) for u, v in r})
    if len(edges) > 10:
        raise ValueError("exact partition oracle is limited to 10 requests")
    if not edges:
        return 0
    comp = {
        (i, j): compatible(g, edges[i], edges[j])
        for i, j in itertools.combinations(range(len(edges)), 2)
    }

    def ok(i: int, group: list[int]) -> bool:
        return all(comp[(j, i)] for j in group)

    best = len(edges)

    def assign(i: int, groups: list[list[int]]) -> None:
        nonlocal best
        if len(groups) >= best:
            return
        if i == len(edges):
            best = len(groups)
            return
        for grp in groups:
            if ok(i, grp):
                grp.append(i)
                assign(i + 1, groups)
                grp.pop()
        groups.append([i])
        assign(i + 1, groups)
        groups.pop()

    assign(0, [])
    return best


# -- text output ---------------------------------------------------------------


def table_to_text(table: ParallelPairTable) -> str:
    lines = []
    for j, grp in enumerate(table.groups, start=1):
        body = " ".join(f"({s},{d})" for s, d in sorted(grp))
        lines.append(f"T{j}: {body}")
    return "\n".join(lines) + "\n"
