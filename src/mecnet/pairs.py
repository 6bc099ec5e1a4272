"""Parallel-pair compatibility and the Dynamic Parallel Pairs scheduler.

Two existing edges can host simultaneous EPR extractions when their
endpoint sets are disjoint and no endpoint of one lies in a neighborhood
of the other (checked in both directions).  The scheduler partitions a
batch of remote requests into groups that are pairwise compatible, working
on the cross-domain complement of the controlled network.  It holds a batch
as indices into its sorted endpoint lists and each round as a list of those
indices, checks the rounds in that form, and builds the groups of edges only
when a caller reads them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .graph import Graph, bits, matrix_to_masks
from .qnet import ControlledInterQNet, complement_inter_qnet

__all__ = [
    "RequestError",
    "RequestNotInComplement",
    "ParallelPairViolation",
    "RequestSet",
    "ParallelPairTable",
    "compatible",
    "parallel_pair_candidates",
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
    without replacement from the network's own cross-domain complement:
    canonical, distinct, inter-domain and non-adjacent in the network.

    The constructor takes the pairs alone and checks nothing.
    ``sample_requests`` also keeps its draw on the result: ``index``, the
    positions of the requests in ``pool``, a read-only array in draw order,
    and ``pool``, the ``edge_arrays`` object of the complement it drew
    from.  Only ``sample_requests`` sets them; on any other batch both are
    ``None``.  Neither takes part in ``==``, ``hash`` or ``repr``.
    ``index`` has two readers, :func:`dynamic_parallel_pairs` and
    ``cqr.cqr_batch``, which reads the data network's hop table at it, and
    one invariant: each trusts ``index`` only when ``pool`` is the very
    ``edge_arrays`` object of the complement of the network it works on (a
    shallow copy shares it; an unpickled or deep copy does not, and a
    ``dataclasses.replace`` copy has no draw), as then the indices are
    distinct complement edges by construction.  Any other batch, an equal
    network's draw included, ``cqr_batch`` routes pair by pair, and the
    scheduler checks pair by pair, as
    :func:`min_partition_oracle` checks every batch: the first failing pair,
    in input order, names the error (its first bad id), and a repeat is
    reported only once every pair has passed.
    """

    requests: tuple[Edge, ...]
    index: Optional[np.ndarray] = field(default=None, init=False, compare=False, repr=False)
    pool: Optional[tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, compare=False, repr=False
    )

    @classmethod
    def _drawn(
        cls, requests: tuple[Edge, ...], index: np.ndarray, pool: tuple[np.ndarray, np.ndarray]
    ) -> "RequestSet":
        """The batch ``sample_requests`` returns: ``requests`` are the edges
        of ``pool`` at ``index``, in that order."""
        r = cls(requests)
        object.__setattr__(r, "index", index)
        object.__setattr__(r, "pool", pool)
        return r

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)


@dataclass(frozen=True, eq=False, repr=False)
class ParallelPairTable:
    """A partition of a batch of requests into rounds, in the scheduler's
    index form: request ``i`` is the edge ``(a[i], b[i])`` (the batch sorted,
    each edge lower end first), ``rounds`` holds the member indices of each
    grown round in greedy order, and bit ``i`` of ``singles`` marks request
    ``i`` as a round of its own.  The lists are never changed once built.

    ``groups`` decodes them on first read and keeps the result: the grown
    rounds in greedy order, then the singletons by index, each a frozenset
    of edges.  ``rho`` is read off the index form.  ``==``, ``hash`` and
    ``repr`` go through ``groups``.
    """

    a: Sequence[int]
    b: Sequence[int]
    rounds: Sequence[Sequence[int]]
    singles: int = 0

    @property
    def rho(self) -> int:
        return len(self.rounds) + self.singles.bit_count()

    @cached_property
    def groups(self) -> tuple[frozenset[Edge], ...]:
        edges = list(zip(self.a, self.b))
        grown = [frozenset([edges[i] for i in mem]) for mem in self.rounds]
        return (*grown, *(frozenset((edges[i],)) for i in bits(self.singles)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.groups == other.groups

    def __hash__(self) -> int:
        return hash((self.groups,))

    def __repr__(self) -> str:
        return f"ParallelPairTable(groups={self.groups!r})"


# -- pairwise predicate --------------------------------------------------------


def compatible(g: Graph, e1: Edge, e2: Edge) -> bool:
    """Disjoint endpoints and mutual neighborhood exclusion for two edges."""
    a, b = map(operator.index, e1)
    c, d = map(operator.index, e2)
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


def parallel_pair_candidates(g: Graph, targets: Iterable[Edge]) -> dict[Edge, int]:
    """For each target edge, the free-vertex mask of its candidate list.

    An edge is compatible with the target ``t = (a, b)`` exactly when both
    its endpoints lie outside ``reach(t) = {a, b} | N(a) | N(b)``, so the
    candidate list of ``t``, every other edge of ``g`` compatible with it,
    is the edge set of the subgraph induced on ``free[t]``, every slot
    outside ``reach(t)``.  Only that mask is returned.
    """
    adj, n = g.adjacency, g.vertex_count
    full = (1 << n) - 1
    free: dict[Edge, int] = {}
    for a, b in targets:
        if a > b:
            a, b = b, a
        if not (a >= 0 and b < n and adj[a] >> b & 1):
            raise ValueError(f"target {(a, b)} is not an edge")
        free[a, b] = full & ~((1 << a) | (1 << b) | adj[a] | adj[b])
    return free


def _compat_rows(matrix: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[int]:
    """Compatibility matrix of the edges ``(a[i], b[i])`` of the graph with
    boolean adjacency matrix ``matrix``, as one bitmask row per edge.

    Bit ``j`` of row ``i`` is set iff edges ``i`` and ``j`` are compatible
    (never for ``j == i``).  An edge's reach, its endpoints and their
    neighbors, is ``N(a) | N(b)``, as each endpoint neighbors the other:
    the OR of two rows of ``matrix``.  The transpose of the m×n reach
    matrix maps each vertex ``v`` to ``near[v]``, the mask of the edges
    whose reach holds ``v``, and an edge ``(a, b)`` conflicts with every
    edge whose reach holds ``a`` or ``b``, that is with
    ``near[a] | near[b]``.  The callers check that every pair is an edge.
    """
    near = matrix_to_masks((matrix[a] | matrix[b]).T)
    full = (1 << len(a)) - 1
    return [full & ~(near[x] | near[y]) for x, y in zip(a.tolist(), b.tolist())]


def _request_edges(g: Graph, r: Iterable[Edge]) -> list[Edge]:
    """The pairs ``r`` as sorted edges of the complement ``g``, each written
    lower end first; an id is anything ``operator.index`` takes.  The first
    pair, in input order, that is not an edge raises ValueError naming its
    first bad id (outside ``0..n-1``, or not an integer), else
    RequestNotInComplement (inside one QNet, or already adjacent); once every
    pair has passed, a repeat (in either orientation) raises RequestError.
    The one intake check of the scheduler and the exact-partition oracle."""
    adj, n = g.adjacency, g.vertex_count
    edges = []
    for u, v in r:
        try:
            a, b = canonical_edge(operator.index(u), operator.index(v))
            found = a >= 0 and b < n and adj[a] >> b & 1
        except TypeError:
            found = False
        if not found:
            for x in (u, v):
                if not (hasattr(x, "__index__") and 0 <= x < n):
                    raise ValueError(f"invalid vertex id {x}")
            raise RequestNotInComplement(f"request {(a, b)} is not a complement edge")
        edges.append((a, b))
    if len(set(edges)) < len(edges):
        raise RequestError("duplicate requests")
    return sorted(edges)


# -- scheduler -----------------------------------------------------------------


def _count_planes(rows: Sequence[int]) -> list[int]:
    """Bit-sliced partner counts: bit ``i`` of ``planes[b]`` is bit ``b`` of
    ``rows[i].bit_count()``, one plane per bit of the highest count, read
    off the row popcounts (symmetry is not needed here; ``_decrement`` needs
    it).  The scheduler keeps each remaining count at
    ``(rows[i] & remaining).bit_count()``.
    """
    counts = np.array([row.bit_count() for row in rows], dtype=np.int64)
    sliced = counts >> np.arange(int(counts.max(initial=0)).bit_length())[:, None] & 1
    return matrix_to_masks(sliced)


def _decrement(planes: list[int], mask: int) -> None:
    """Subtract 1 from each (positive) count in ``mask`` with a borrow.

    A borrow that runs past the top plane, from a count of 0, is dropped
    silently: that count wraps modulo ``2**len(planes)`` and no plane is
    added.
    """
    for b, p in enumerate(planes):
        if not mask:
            return
        planes[b], mask = p ^ mask, mask & ~p


def _argmax(planes: Sequence[int], s: int) -> int:
    """The bit of the highest count in ``s``, the lowest index on ties."""
    for p in reversed(planes):
        if s & p:
            s &= p
    return s & -s


def dynamic_parallel_pairs(cg: ControlledInterQNet, r: Iterable[Edge]) -> ParallelPairTable:
    """Partition the request batch into parallel-pairable groups.

    The batch is interpreted on the cross-domain complement of the
    controlled network, ``complement_inter_qnet(cg.data)``, which the data
    network keeps once built.  Each group is the paper's greedy: it starts
    from the remaining request with the most compatible partners among the
    remaining ones and grows by the shared candidate with the most at group
    start, the lowest index on ties, intersecting the shared candidate set
    after each addition; a pairwise compatible batch thus forms a single
    group.  Requests are indexed in sorted order and the scheduler runs on
    their compatibility matrix, built once per batch, with the counts held
    bit-sliced (``_count_planes``), so each pick is a few mask operations.

    A batch that ``sample_requests`` drew from this very complement (its
    ``pool`` is the complement's ``edge_arrays`` object) enters as its pool
    indices, distinct complement edges by construction; any other batch is
    checked here, once, pair by pair (:func:`_request_edges`, the oracle's
    intake too): the first failing pair, in input order, names the error
    (its first bad id), and a repeat is reported only once every pair has
    passed.  The batch is kept as its sorted endpoint lists and each round
    as its member indices, with the trailing singletons as one mask, so the
    table's ``rho`` is known when the greedy ends; that index form is
    checked against the whole-edge-set candidate lists
    (:func:`_assert_table_valid`), and the groups of edges are built only
    when ``ParallelPairTable.groups`` is read.
    """
    comp = complement_inter_qnet(cg.data)
    pool = comp.edge_arrays
    if isinstance(r, RequestSet) and r.pool is pool:
        index = np.sort(r.index)
        a, b = pool[0][index], pool[1][index]
    else:
        ends = itertools.chain.from_iterable(_request_edges(comp.graph, r))
        a, b = np.fromiter(ends, np.intp).reshape(-1, 2).T
    rows = _compat_rows(comp.adjacency_matrix, a, b)
    planes = _count_planes(rows)
    rounds: list[list[int]] = []
    remaining = (1 << len(rows)) - 1
    while remaining:
        group = _argmax(planes, remaining)
        members = [group.bit_length() - 1]
        shared = rows[members[0]] & remaining
        if not shared:
            # the highest count is 0: every remaining request is alone,
            # and the remaining mask is the table's singles
            break
        # the counts stay frozen at their group-start values while it grows
        while shared:
            pick = _argmax(planes, shared)
            group |= pick
            members.append(pick.bit_length() - 1)
            shared &= rows[members[-1]]
        remaining ^= group
        for i in members:
            _decrement(planes, rows[i] & remaining)
        rounds.append(members)
    table = ParallelPairTable(a.tolist(), b.tolist(), rounds, remaining)
    _assert_table_valid(comp.graph, table)
    return table


def _assert_table_valid(g: Graph, table: ParallelPairTable) -> None:
    """Check ``table``'s index form against the paper's whole-edge-set
    formulation.

    Its rounds and singles must partition the request indices ``0..m-1``,
    each index in exactly one round, and in every round of two or more the
    endpoints of the rest of the round must lie in the free mask of every
    member but the last (:func:`parallel_pair_candidates`), that is in its
    candidate list.  Compatibility is symmetric, so this tests each pair of
    members once.  A shared endpoint fails too, as the other end of either
    edge neighbors it.  A failing round names its lowest failing member, in
    sorted order, and the members it conflicts with.  Raises
    ParallelPairViolation.
    """
    a, b, rounds = table.a, table.b, table.rounds
    m = len(a)
    seen = table.singles
    for mem in rounds:
        for i in mem:
            seen |= 1 << i
    if seen != (1 << m) - 1 or sum(map(len, rounds)) + table.singles.bit_count() != m:
        raise ParallelPairViolation("groups must partition the request set")
    multi = [mem for mem in rounds if len(mem) > 1]
    free = parallel_pair_candidates(g, [(a[i], b[i]) for mem in multi for i in mem[:-1]])
    for mem in multi:
        ends = 0
        for i in mem:
            ends |= 1 << a[i] | 1 << b[i]
        for i in mem[:-1]:
            if ends & ~free[a[i], b[i]] != (1 << a[i] | 1 << b[i]):
                break
        else:
            continue
        # a member fails: name the lowest failing one, in sorted order; each
        # pair is read off the free mask of a member other than the last
        def clash(x: int, y: int) -> int:
            return (1 << a[y] | 1 << b[y]) & ~free[a[x], b[x]]

        members = sorted(mem)
        for e in members:
            extra = [
                (a[f], b[f]) for f in members
                if f != e and (clash(e, f) if e != mem[-1] else clash(f, e))
            ]
            if extra:
                raise ParallelPairViolation(
                    f"group member {(a[e], b[e])} conflicts with {extra}",
                    extra_edges=tuple(extra),
                )


def min_partition_oracle(g: Graph, r: Iterable[Edge]) -> int:
    """Exact minimum number of parallel-pairable groups, |r| <= 10.

    The batch enters through the scheduler's check, :func:`_request_edges`
    on the complement ``g``, so both refuse the same batches with the same
    exception and message (a refused pair names its first bad id).
    Exhaustive set-partition search with branch-and-bound on the running
    best; compatibility is precomputed pairwise.
    """
    edges = _request_edges(g, r)
    if len(edges) > 10:
        raise ValueError("exact partition oracle is limited to 10 requests")
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
