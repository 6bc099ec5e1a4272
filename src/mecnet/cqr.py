"""Shortest-path routing baseline over the controlled network.

Requests are served one at a time on unit-weight shortest paths, with
control vertices allowed as intermediates.  A remote (non-adjacent,
cross-domain) pair always has a route of at most three hops: source to
its control, control clique, control to destination.  Routes are read
off neighbor masks in closed form; no search is needed.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

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


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _route(adj: Sequence[int], data_count: int, s: int, d: int) -> CqrPath:
    """Unit-weight shortest path for request ``(s, d)`` on the neighbor
    masks ``adj`` of the controlled graph, whose controls are the ids from
    ``data_count`` on; deterministic tie-break.

    Among shortest paths the lexicographically smallest vertex sequence is
    chosen.  In a controlled network every pair is at most three hops
    apart, so the route follows from the neighbor masks ``N``: one hop if
    ``d`` is in ``N(s)``; else two via the lowest vertex of
    ``N(s) & N(d)``; else three via the first ``v`` of ``N(s)`` whose
    ``N(v)`` meets ``N(d)``, then the lowest vertex of ``N(v) & N(d)``.
    """
    if s == d:
        raise ValueError("source equals destination")
    n = len(adj)
    if not (0 <= s < n and 0 <= d < n):
        raise ValueError(f"invalid vertex id {s if not 0 <= s < n else d}")
    ns, nd = adj[s], adj[d]
    if ns >> d & 1:
        inter: tuple[int, ...] = ()
    elif ns & nd:
        inter = (_low(ns & nd),)
    else:
        while ns:
            low = ns & -ns
            ns ^= low
            v = low.bit_length() - 1
            shared = adj[v] & nd
            if shared:
                inter = (v, _low(shared))
                break
        else:
            raise ValueError(f"request {(s, d)} has no route of at most three hops")
    return CqrPath((s, d), len(inter) + 1, inter, max(inter, default=-1) >= data_count)


def cqr_batch(
    cg: ControlledInterQNet,
    requests: Iterable[tuple[int, int]],
) -> tuple[list[CqrPath], int]:
    """Route every request independently (time-multiplexed service).

    Returns the paths and their total intermediate count ``chi``, from which
    the mean hop count ``(len(requests) + chi) / len(requests)`` (each path
    has one more hop than intermediates) and ``metrics.arqf_cqr`` follow.
    """
    adj, data_count = cg.graph.adjacency, cg.partition.data_count
    paths = [_route(adj, data_count, s, d) for s, d in requests]
    return paths, sum(len(p.intermediates) for p in paths)

