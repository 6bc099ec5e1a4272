"""Output checks, run after the timed region and written apart from the
code being timed.

Sweeps: every request batch must be partitioned by its table, every group
must be pairwise compatible on a cross-domain complement built here, and
every CQR hop count must equal the networkx shortest-path length.

Oracle: graph-rule predictions are recomputed here, and verdicts are
certified with an invariant of local-Clifford equivalence: the cut-rank
of a vertex set A (GF(2) rank of the adjacency block between A and the
other vertices) equals the entanglement entropy of A in the graph state,
and the entropy of a stabilizer state is ``rank(generators restricted to
A) - |A|``.  Both are unchanged by single-qubit Cliffords, so a set A on
which the two differ proves that the states are not equivalent.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from typing import Iterable, Sequence

CSV_NAMES = ("hops", "parallelism", "arqf", "throughput")


def csv_digest(out_dir: str) -> str:
    """sha256 over the four CSV tables, in a fixed order."""
    h = hashlib.sha256()
    for name in CSV_NAMES:
        with open(os.path.join(out_dir, f"{name}.csv"), "rb") as fh:
            data = fh.read()
        h.update(f"{name}.csv {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


# -- sweeps ------------------------------------------------------------------


def cross_domain_complement(edges: Iterable[tuple[int, int]], membership: Sequence[int]) -> set:
    """Absent cross-domain pairs among the data vertices ``0..len-1``."""
    d = len(membership)
    present = {(min(u, v), max(u, v)) for u, v in edges if u < d and v < d}
    return {
        (u, v)
        for u in range(d)
        for v in range(u + 1, d)
        if membership[u] != membership[v] and (u, v) not in present
    }


def check_batch(batch, nx) -> list[str]:
    """Problems found in one scheduled and routed request batch."""
    from mecnet.graph import Graph
    from mecnet.pairs import compatible

    cg = batch.cg
    part = cg.partition
    problems = []
    comp_edges = cross_domain_complement(cg.graph.edges(), part.membership)
    requests = sorted((min(s, d), max(s, d)) for s, d in batch.requests)
    members = sorted(e for grp in batch.groups for e in grp)
    if len(set(requests)) != len(requests):
        problems.append("duplicate requests in the batch")
    if members != requests:
        problems.append("groups do not partition the requests")
    outside = [e for e in requests if e not in comp_edges]
    if outside:
        problems.append(f"requests not in the cross-domain complement: {outside[:3]}")
    else:
        comp = Graph(part.data_count, sorted(comp_edges))
        for grp in batch.groups:
            for e1, e2 in itertools.combinations(sorted(grp), 2):
                if not compatible(comp, e1, e2):
                    problems.append(f"incompatible pair {e1} {e2} in one group")

    g = nx.Graph()
    g.add_nodes_from(range(cg.graph.vertex_count))
    g.add_edges_from(cg.graph.edges())
    if len(batch.paths) != len(batch.requests):
        problems.append("CQR routed a different number of requests")
    for req, path in zip(batch.requests, batch.paths):
        s, d = req
        if tuple(path.request) != (s, d):
            problems.append(f"CQR path for {path.request} answers request {req}")
            continue
        walk = (s, *path.intermediates, d)
        if path.hops != len(walk) - 1 or not all(g.has_edge(a, b) for a, b in zip(walk, walk[1:])):
            problems.append(f"CQR path {walk} is not a walk of {path.hops} hops")
        want = nx.shortest_path_length(g, s, d)
        if path.hops != want:
            problems.append(f"CQR hops {path.hops} != shortest path {want} for {req}")
    return problems


# -- oracle ------------------------------------------------------------------


def gf2_rank(vectors: Iterable[int]) -> int:
    pivots: dict[int, int] = {}  # leading bit -> basis vector
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def cut_rank(adj: Sequence[int], a_mask: int, keep_mask: int) -> int:
    """GF(2) rank of the adjacency block between A and ``keep - A``."""
    other = keep_mask & ~a_mask
    return gf2_rank(adj[q] & other for q in _bits(a_mask))


def tableau_entropy(rows: Sequence[tuple[int, int, int]], a_mask: int, n: int) -> int:
    """Entanglement entropy of qubit set A in a stabilizer state."""
    return gf2_rank(((x & a_mask) << n) | (z & a_mask) for x, z, _ in rows) - bin(a_mask).count("1")


def small_sets(vertices: Sequence[int], max_size: int):
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(vertices, size):
            mask = 0
            for q in combo:
                mask |= 1 << q
            yield mask


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _local_complement(adj: list[int], v: int) -> None:
    nv = adj[v]
    for u in _bits(nv):
        adj[u] ^= nv & ~(1 << u)


def rule_prediction(adj: Sequence[int], v: int, basis: str, k0: int) -> tuple[int, ...]:
    """Graph after measuring ``v``: Z deletes it; X is the rule
    tau_k0 tau_v (delete v) tau_k0 with special neighbour ``k0``."""
    out = list(adj)
    if basis == "X":
        _local_complement(out, k0)
        _local_complement(out, v)
    bit = 1 << v
    for u in _bits(out[v]):
        out[u] &= ~bit
    out[v] = 0
    if basis == "X":
        _local_complement(out, k0)
    return tuple(out)


def complement_prediction(data_adj: Sequence[int], membership: Sequence[int], n: int) -> tuple[int, ...]:
    """Adjacency over ``n`` qubits whose data part is the cross-domain
    complement; control slots are isolated."""
    d = len(membership)
    edges = [(u, v) for u in range(d) for v in _bits(data_adj[u]) if u < v]
    out = [0] * n
    for u, v in cross_domain_complement(edges, membership):
        out[u] |= 1 << v
        out[v] |= 1 << u
    return tuple(out)


def entropy_matches(rows, adj: Sequence[int], survivors: Sequence[int], n: int, max_size: int = 2) -> bool:
    """Tableau entropies equal graph cut-ranks on every survivor set of
    at most ``max_size`` qubits."""
    keep = sum(1 << q for q in survivors)
    return all(
        tableau_entropy(rows, a, n) == cut_rank(adj, a, keep)
        for a in small_sets(survivors, max_size)
    )


def find_inequivalent_flip(adj: Sequence[int], survivors: Sequence[int], rnd, tries: int = 60):
    """Flip one survivor edge so that some set of at most three survivors
    changes cut-rank; returns (mutant adjacency, distinguishing set mask).

    Only sets holding exactly one endpoint of the flipped pair can change,
    so only those are compared.  When no tried flip changes a cut-rank,
    the busiest survivor is cut off instead, which changes its own.
    """
    keep = sum(1 << q for q in survivors)
    pairs = list(itertools.combinations(survivors, 2))
    rnd.shuffle(pairs)
    for u, w in pairs[:tries]:
        others = [q for q in survivors if q != u and q != w]
        for end, far in ((u, w), (w, u)):
            sets = itertools.chain([()], itertools.combinations(others, 1), itertools.combinations(others, 2))
            for rest in sets:
                a = 1 << end
                for q in rest:
                    a |= 1 << q
                other = keep & ~a
                # Only row ``end`` changes, by the bit of ``far``: the rank
                # changes iff exactly one of the two rows lies in the span
                # of the other rows of A.
                span = {0}
                for q in rest:
                    row = adj[q] & other
                    span |= {x ^ row for x in span}
                row = adj[end] & other
                if (row in span) != (row ^ (1 << far) in span):
                    mutant = list(adj)
                    mutant[u] ^= 1 << w
                    mutant[w] ^= 1 << u
                    return tuple(mutant), a
    hub = max(survivors, key=lambda q: (bin(adj[q] & keep).count("1"), -q))
    if not adj[hub] & keep & ~(1 << hub):
        return None
    mutant = list(adj)
    for q in _bits(adj[hub] & keep):
        mutant[q] &= ~(1 << hub)
    mutant[hub] &= ~keep
    return tuple(mutant), 1 << hub
