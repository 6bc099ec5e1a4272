"""Shortest-path routing baseline over the controlled network.

Requests are served one at a time on unit-weight shortest paths, with
control vertices allowed as intermediates.  A remote (non-adjacent,
cross-domain) pair always has a route of at most three hops: source to
its control, control clique, control to destination.  Routes are read
off neighbor masks in closed form; no search is needed.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .qnet import ControlledInterQNet

__all__ = ["CqrPath", "cqr_batch"]


class _CqrFields(NamedTuple):
    request: tuple[int, int]
    hops: int
    intermediates: tuple[int, ...]
    via_control: bool


class CqrPath(_CqrFields):
    """A route as a tuple record, its hop count checked however it is built."""

    __slots__ = ()

    def __new__(cls, request, hops, intermediates, via_control):
        if hops != len(intermediates) + 1:
            raise ValueError(f"{hops} hops need {hops - 1} intermediates, got {len(intermediates)}")
        return tuple.__new__(cls, (request, hops, intermediates, via_control))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it


def cqr_batch(
    cg: ControlledInterQNet,
    requests: Iterable[tuple[int, int]],
) -> tuple[list[CqrPath], int]:
    """Route every request independently (time-multiplexed service), each on
    a unit-weight shortest path of the controlled graph, whose controls are
    the ids from ``data_count`` on; deterministic tie-break.

    Among shortest paths the lexicographically smallest vertex sequence is
    chosen.  In a controlled network every pair is at most three hops
    apart, so the route follows from the neighbor masks ``N``: one hop if
    ``d`` is in ``N(s)``; else two via the lowest vertex of
    ``N(s) & N(d)``; else three via the first ``v`` of ``N(s)`` whose
    ``N(v)`` meets ``N(d)``, then the lowest vertex of ``N(v) & N(d)``.
    That ``v`` is the lowest vertex of ``N(s) & N2(d)``, where ``N2(d)``,
    the OR of ``N(u)`` over ``u`` in ``N(d)``, is built at most once per
    destination in the batch.

    Returns the paths and their total intermediate count ``chi``, from which
    the mean hop count ``(len(requests) + chi) / len(requests)`` (each path
    has one more hop than intermediates) and ``metrics.arqf_cqr`` follow.
    """
    adj, data_count = cg.graph.adjacency, cg.partition.data_count
    n = len(adj)
    near2: dict[int, int] = {}
    paths: list[CqrPath] = []
    chi = 0
    for s, d in requests:
        if s == d:
            raise ValueError("source equals destination")
        if not (0 <= s < n and 0 <= d < n):
            raise ValueError(f"invalid vertex id {s if not 0 <= s < n else d}")
        ns, nd = adj[s], adj[d]
        if ns >> d & 1:
            paths.append(CqrPath((s, d), 1, (), False))
            continue
        shared = ns & nd
        if shared:
            v = (shared & -shared).bit_length() - 1
            paths.append(CqrPath((s, d), 2, (v,), v >= data_count))
            chi += 1
            continue
        n2 = near2.get(d)
        if n2 is None:
            n2, rest = 0, nd
            while rest:
                low = rest & -rest
                rest ^= low
                n2 |= adj[low.bit_length() - 1]
            near2[d] = n2
        first = ns & n2
        if not first:
            raise ValueError(f"request {(s, d)} has no route of at most three hops")
        v = (first & -first).bit_length() - 1
        last = adj[v] & nd
        w = (last & -last).bit_length() - 1
        paths.append(CqrPath((s, d), 3, (v, w), v >= data_count or w >= data_count))
        chi += 2
    return paths, chi
