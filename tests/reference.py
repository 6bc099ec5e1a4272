"""The literal references the tests check the library against, one copy
each, imported by the test files and not collected by pytest.  Each is the
paper's formulation or the library's first, edge-by-edge version of the
stage its docstring names; :func:`reference_run_instance` chains them, with
``derive_seed`` the only library stage it reads.  :func:`state_vector`,
:func:`apply_pauli` and :func:`project` hold the stabilizer tableau to
amplitudes, up to 12 qubits.
:func:`random_network` is no reference: it seeds the library generator from
a test's ``random.Random``.
"""

import itertools
import os

import numpy as np

from mecnet.cqr import CqrPath
from mecnet.experiments import derive_seed
from mecnet.graph import Graph, bits
from mecnet.netgen import GenConfig, generate_inter_qnet
from mecnet.pairs import compatible
from mecnet.qnet import InterQNet, QNetPartition

EVAL_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "eval.json")


def local_complement(g, v):
    """τ_v, the local complementation at ``v``, from its definition: every
    pair of ``v``'s neighbours gains the edge it lacks or loses the one it
    has."""
    edges = set(g.edges())
    edges ^= set(itertools.combinations(sorted(g.neighbors(v)), 2))
    return Graph(g.vertex_count, edges)


def complement_edges(iq):
    """The cross-domain pairs of ``iq`` that are not links, in lexicographic
    order: the edges of ``complement_inter_qnet``, and the request pool."""
    m, g = iq.partition.membership, iq.graph
    return [
        (u, v)
        for u, v in itertools.combinations(range(len(m)), 2)
        if m[u] != m[v] and not g.has_edge(u, v)
    ]


def cross_pair_count(sizes):
    """The number of vertex pairs in different QNets of these sizes."""
    n = sum(sizes)
    return (n * (n - 1) - sum(s * (s - 1) for s in sizes)) // 2


def random_network(k, sizes, p, rnd):
    """``generate_inter_qnet`` on these QNet sizes, seeded by a draw of ``rnd``."""
    return generate_inter_qnet(GenConfig(k, tuple(sizes), p, rnd.getrandbits(32)))


def reference_spanning_tree(membership, rng):
    """Wilson's loop-erased random walk on the complete multipartite graph,
    one ``rng.integers(n)`` call per step: the walk that drew every
    committed network.  Returns each non-root vertex's tree edge to its
    successor, in vertex order."""
    n = len(membership)
    in_tree = [False] * n
    nxt = [None] * n
    root = int(rng.integers(n))
    in_tree[root] = True
    for start in range(n):
        if in_tree[start]:
            continue
        u = start
        while not in_tree[u]:
            # uniform neighbor = uniform vertex of a different QNet
            v = int(rng.integers(n))
            while membership[v] == membership[u]:
                v = int(rng.integers(n))
            nxt[u] = v
            u = v
        u = start
        while not in_tree[u]:  # loop-erased path joins the tree
            in_tree[u] = True
            u = nxt[u]
    return [(u, nxt[u]) for u in range(n) if u != root]


def edge_list_generate(cfg):
    """``generate_inter_qnet`` as it was built from edge lists, which
    produced every committed report: the tree of
    :func:`reference_spanning_tree` as a validated network, its
    cross-domain complement's edges as the candidates, one draw each, and a
    second network built edge by edge."""
    rng = np.random.default_rng(cfg.rng_seed)
    membership = tuple(a for a, s in enumerate(cfg.sizes, start=1) for _ in range(s))
    n = len(membership)
    part = QNetPartition(cfg.k, membership)
    tree = InterQNet(Graph(n, reference_spanning_tree(membership, rng)), part)
    candidates = complement_edges(tree)
    draws = rng.random(len(candidates))
    edges = tree.graph.edges() + [e for e, x in zip(candidates, draws) if x < cfg.p]
    return InterQNet(Graph(n, edges), part)


def edge_list_controlled(iq):
    """``build_controlled``'s graph, edge by edge: the data links, then the
    control clique, then control a joined to each member of QNet a."""
    part = iq.partition
    d, kp = part.data_count, part.k_prime
    edges = iq.graph.edges() + list(itertools.combinations(range(d, d + kp), 2))
    for a in range(1, part.k + 1):
        edges += [(v, d + a - 1) for v in part.members(a)]
    return Graph(d + kp, edges)


def bfs_dist(g, src):
    """Each vertex's hop distance from ``src`` (-1 where unreachable)."""
    dist = [-1] * g.vertex_count
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in bits(g.neighbor_mask(u)):
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def reference_route(cg, req, dist=None):
    """``cqr_batch``'s route by breadth-first search: walk from the source,
    always taking the smallest neighbor that still shrinks the distance to
    the destination.  ``dist`` may hold the distances to the destination,
    computed once for many sources."""
    s, d = req
    g = cg.graph
    if dist is None:
        dist = bfs_dist(g, d)
    if dist[s] < 0:
        raise ValueError("request endpoints are disconnected")
    path = [s]
    while path[-1] != d:
        cur = path[-1]
        path.append(next(v for v in bits(g.neighbor_mask(cur)) if dist[v] == dist[cur] - 1))
    inter = tuple(path[1:-1])
    return CqrPath(
        request=(s, d),
        hops=len(path) - 1,
        intermediates=inter,
        via_control=any(v in cg.partition.control_nodes for v in inter),
    )


def brute_force_pairable(g, edges):
    """The all-pairs verdict: every two of ``edges`` pass ``compatible``."""
    return all(compatible(g, a, b) for a, b in itertools.combinations(edges, 2))


def reference_candidates(g, targets):
    """``parallel_pair_candidates``'s lists as first written: one pass over
    the whole edge set per target, keeping every edge with no endpoint in the
    target's reach."""
    out = {}
    for t in targets:
        a, b = sorted(t)
        reach = (1 << a) | (1 << b) | g.neighbor_mask(a) | g.neighbor_mask(b)
        out[(a, b)] = frozenset(
            (u, v) for u, v in g.edges() if not reach >> u & 1 and not reach >> v & 1
        )
    return out


def reference_compat_rows(g, edges):
    """``_compat_rows`` as first written: each vertex maps to the mask of
    the edges touching it, ``near[v]`` ORs that mask over ``v`` and its
    neighbours one set bit at a time, and an edge ``(a, b)`` conflicts with
    ``near[a] | near[b]``."""
    adj = g.adjacency
    touching = [0] * g.vertex_count
    touched = 0
    for i, (a, b) in enumerate(edges):
        touching[a] |= 1 << i
        touching[b] |= 1 << i
        touched |= (1 << a) | (1 << b)
    near = []
    for v, t in enumerate(touching):
        us = adj[v] & touched if t else 0
        while us:
            low = us & -us
            us ^= low
            t |= touching[low.bit_length() - 1]
        near.append(t)
    full = (1 << len(edges)) - 1
    return [full & ~(near[a] | near[b]) for a, b in edges]


def reference_dynamic_parallel_pairs(comp, requests):
    """``dynamic_parallel_pairs``'s greedy as first written, on candidate
    lists over the whole edge set of the complement graph ``comp`` (each one
    a function of the graph alone, so it is scanned once per request),
    restricted to the remaining requests at every group start."""
    def pick(pool, cand_in_r):
        return max(sorted(pool), key=lambda e: len(cand_in_r[e]))

    remaining = [tuple(sorted(e)) for e in requests]
    cl = reference_candidates(comp, remaining)
    groups = []
    while remaining:
        rset = set(remaining)
        cand_in_r = {e: set(cl[e]) & rset for e in remaining}
        seed = pick(remaining, cand_in_r)
        group = {seed}
        remaining.remove(seed)
        shared = cand_in_r[seed] & set(remaining)
        while shared:
            nxt = pick(sorted(shared), cand_in_r)
            group.add(nxt)
            remaining.remove(nxt)
            shared = shared & set(cl[nxt])
            shared.discard(nxt)
        groups.append(frozenset(group))
    return tuple(groups)


def connected_graphs(n):
    """Every connected labelled graph on ``n`` vertices, one per edge subset:
    the inputs of the exhaustive stabilizer checks."""
    pairs = list(itertools.combinations(range(n), 2))
    for sel in range(1 << len(pairs)):
        g = Graph(n, [pairs[i] for i in range(len(pairs)) if sel >> i & 1])
        if g.connected():
            yield g


STATE_VECTOR_CAP = 12  # qubits: 4,096 amplitudes


def state_vector(g):
    """The graph state of ``g`` as amplitudes, qubit q at bit q of the
    basis index: |+>^n with CZ on each edge, so the amplitude of |b> is
    2**(-n/2) times -1 per edge inside b."""
    n = g.vertex_count
    if n > STATE_VECTOR_CAP:
        raise ValueError(f"state vectors stop at {STATE_VECTOR_CAP} qubits, got {n}")
    idx = np.arange(1 << n)
    odd = np.zeros(1 << n, dtype=np.int64)
    for u, v in g.edges():
        odd ^= idx >> u & idx >> v & 1
    return (1 - 2 * odd) / np.sqrt(1 << n)


def apply_pauli(psi, row):
    """P psi for the tableau row ``(x, z, phase)``, P = i**phase X**x Z**z:
    Z**z signs each amplitude, then X**x moves amplitude j to j ^ x."""
    x, z, phase = row
    idx = np.arange(len(psi))
    signed = np.where(np.bitwise_count(idx & z) % 2, -psi, psi)
    return 1j**phase * signed[idx ^ x]


def project(psi, row, outcome):
    """The normalised (1 + outcome * P) psi / 2, the post-measurement state
    of outcome ±1 for the Hermitian Pauli ``row``; ValueError if that
    outcome has probability zero."""
    out = (psi + outcome * apply_pauli(psi, row)) / 2
    norm = np.linalg.norm(out)
    if norm < 1e-9:
        raise ValueError(f"outcome {outcome} has probability zero")
    return out / norm


def reference_run_instance(seed, nodes, k, p, rep, volumes):
    """``run_experiment``'s ``(skipped, rho, chi)`` per volume of grid cell
    ``(k, p, rep)`` under this ``seed`` and ``nodes``: the network of
    :func:`edge_list_generate` on QNet sizes that differ by at most one, the
    larger first; volume ``vi`` drawn from :func:`complement_edges` with seed
    ``derive_seed(request_seed, vi)``, or skipped if larger than the pool; ρ
    by :func:`reference_dynamic_parallel_pairs` on the pool's graph; χ, each
    request's distance less one, by :func:`bfs_dist` on
    :func:`edge_list_controlled`."""
    cell = (seed, k, int(p * 1_000_000), rep)
    sizes = tuple(nodes // k + (i < nodes % k) for i in range(k))
    iq = edge_list_generate(GenConfig(k, sizes, p, derive_seed(*cell)))
    request_seed = derive_seed(*cell, 17)
    pool = complement_edges(iq)
    comp = Graph(nodes, pool)
    controlled = edge_list_controlled(iq)
    out = []
    for vi, volume in enumerate(volumes):
        if volume > len(pool):
            out.append((True, 0, 0))
            continue
        rng = np.random.default_rng(derive_seed(request_seed, vi))
        requests = [pool[i] for i in rng.choice(len(pool), size=volume, replace=False)]
        rho = len(reference_dynamic_parallel_pairs(comp, requests))
        chi = sum(bfs_dist(controlled, d)[s] - 1 for s, d in requests)
        out.append((False, rho, chi))
    return out
