"""Synthetic inter-domain network generator and request sampler.

Connectivity first, density second: a uniformly random spanning tree over
the cross-domain candidate pairs is laid down (Wilson's loop-erased
random walk on the complete multipartite graph), then every remaining
cross-domain pair is added independently with probability p, one draw per
pair in lexicographic order.  Everything is deterministic given the seed.

The walk draws its steps in blocks and then rewinds the generator and
redraws exactly the steps it used, so the edge draws after it read the
same stream as after one draw per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph import Graph, matrix_to_masks
from .pairs import RequestSet
from .qnet import InterQNet, QNetPartition, complement_inter_qnet

__all__ = ["GenConfig", "InsufficientPairsError", "generate_inter_qnet", "sample_requests"]


class InsufficientPairsError(ValueError):
    """Fewer eligible request pairs exist than were asked for."""


@dataclass(frozen=True)
class GenConfig:
    k: int
    sizes: tuple[int, ...]
    p: float
    rng_seed: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("need at least two QNets")
        if len(self.sizes) != self.k:
            raise ValueError("one size per QNet required")
        if any(s < 1 for s in self.sizes):
            raise ValueError("QNet sizes must be positive")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("edge probability must lie in [0,1]")


def _membership(cfg: GenConfig) -> tuple[int, ...]:
    return tuple(a for a, s in enumerate(cfg.sizes, start=1) for _ in range(s))


def _uniform_spanning_tree(
    membership: Sequence[int], rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Wilson's algorithm on the complete multipartite candidate graph.

    The walk reads its steps, the root and each same-QNet rejection
    included, in order from blocks of ``rng.integers(n, size=n)``.  At the
    end the generator is put back to its state before the walk and draws
    the number of steps used in one call, which leaves it where one
    ``rng.integers(n)`` call per step would: a block of m draws equals m
    scalar draws, value for value and in the state after them.
    """
    n = len(membership)
    saved = rng.bit_generator.state
    draws = rng.integers(n, size=n).tolist()
    used = 1
    in_tree = [False] * n
    nxt: list[Optional[int]] = [None] * n
    root = draws[0]
    in_tree[root] = True
    for start in range(n):
        if in_tree[start]:
            continue
        u = start
        while not in_tree[u]:
            # uniform neighbor = uniform vertex of a different QNet
            while True:
                if used == len(draws):
                    draws += rng.integers(n, size=n).tolist()
                v = draws[used]
                used += 1
                if membership[v] != membership[u]:
                    break
            nxt[u] = v
            u = v
        u = start
        while not in_tree[u]:  # loop-erased path joins the tree
            in_tree[u] = True
            u = nxt[u]  # type: ignore[assignment]
    rng.bit_generator.state = saved
    rng.integers(n, size=used)
    edges = []
    for u in range(n):
        if u == root:
            continue
        parent = nxt[u]
        if parent is None:
            raise RuntimeError(f"vertex {u} was never joined to the spanning tree")
        edges.append((u, parent))
    return edges


def generate_inter_qnet(cfg: GenConfig) -> InterQNet:
    """Connected cross-domain graph: random spanning tree plus Bernoulli(p)
    on every remaining cross-domain pair, built as one n×n boolean matrix."""
    rng = np.random.default_rng(cfg.rng_seed)
    membership = _membership(cfg)
    n = sum(cfg.sizes)
    adj = np.zeros((n, n), dtype=bool)
    for u, v in _uniform_spanning_tree(membership, rng):
        adj[u, v] = adj[v, u] = True
    qnet = np.array(membership)
    candidates = np.triu(qnet[:, None] != qnet[None, :], 1) & ~adj
    # a mask assignment fills cells row-major: pairs u < v, lexicographically
    adj[candidates] = rng.random(np.count_nonzero(candidates)) < cfg.p
    masks = tuple(matrix_to_masks(adj | adj.T))
    iq = InterQNet(Graph._from_parts(n, masks), QNetPartition(cfg.k, membership))
    if not iq.connected:
        raise RuntimeError("spanning-tree construction must yield a connected graph")
    return iq


def sample_requests(iq: InterQNet, count: int, rng_seed: int) -> RequestSet:
    """Uniform sample, without replacement, of cross-domain non-adjacent pairs.

    Those pairs are the ``edge_arrays`` of ``complement_inter_qnet(iq)``, in
    lexicographic order, built with the complement and kept for every batch.
    The result keeps the drawn indices, in draw order, with that pool, so
    that ``dynamic_parallel_pairs`` on this network's complement takes the
    batch as indices without an intake check; on any other network object,
    an equal one included, it checks the pairs.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    pool = complement_inter_qnet(iq).edge_arrays
    us, vs = pool
    if count > len(us):
        raise InsufficientPairsError(
            f"asked for {count} requests, only {len(us)} eligible pairs exist"
        )
    chosen = np.random.default_rng(rng_seed).choice(len(us), size=count, replace=False)
    chosen.flags.writeable = False
    return RequestSet._drawn(tuple(zip(us[chosen].tolist(), vs[chosen].tolist())), chosen, pool)
