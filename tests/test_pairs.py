"""Compatibility predicate, candidate generation, compatibility rows,
dynamic partitioning, exact-partition oracle."""

import contextlib
import copy
import dataclasses
import itertools
import os
import pickle
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    EVAL_CONFIG,
    brute_force_pairable,
    complement_edges,
    index_table,
    reference_candidates,
    reference_compat_rows,
    reference_dynamic_parallel_pairs,
    random_network,
)

import mecnet
import mecnet.experiments as experiments
import mecnet.pairs as pairs_module
from mecnet.experiments import ExperimentConfig, derive_seed, even_sizes, run_experiment
from mecnet.graph import Graph, bits, masks_to_matrix
from mecnet.netgen import GenConfig, generate_inter_qnet, sample_requests
from mecnet.pairs import (
    ParallelPairTable,
    ParallelPairViolation,
    RequestError,
    RequestNotInComplement,
    RequestSet,
    _argmax,
    _assert_table_valid,
    _compat_rows,
    _count_planes,
    _decrement,
    canonical_edge,
    compatible,
    dynamic_parallel_pairs,
    min_partition_oracle,
    parallel_pair_candidates,
    table_to_text,
)
from mecnet.qnet import (
    InterQNet,
    QNetPartition,
    build_controlled,
    complement_inter_qnet,
    instance_from_text,
    instance_to_text,
)


def compat_rows(g, edges):
    """``_compat_rows`` on a graph and a list of its edges: the graph's bit
    matrix and the edges' endpoint arrays."""
    a, b = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    return _compat_rows(masks_to_matrix(g.adjacency, g.vertex_count), a, b)


def candidate_lists(g, targets):
    """Each target's candidate list, decoded from its free-vertex mask."""
    free = parallel_pair_candidates(g, targets)
    return {t: frozenset(g.keep(mask).edges()) for t, mask in free.items()}


def candidate_pairable(g, edges):
    """The paper's formulation: each edge's candidate list over the whole
    edge set holds every other member."""
    edge_set = {canonical_edge(*e) for e in edges}
    cl = reference_candidates(g, edge_set)
    return all(edge_set - {e} <= cl[e] for e in edge_set)


def descending(members):
    """A round's members from the highest index down, so that the check
    reads no mask of the lowest."""
    return sorted(members, reverse=True)


@st.composite
def graph_and_subset(draw):
    n = draw(st.integers(2, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    sub = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=8, unique=True))
    return Graph(n, edges), sub


class TestCompatible:
    def test_shared_vertex(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert compatible(g, (0, 1), (1, 2)) is False

    def test_disjoint_components(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert compatible(g, (0, 1), (2, 3)) is True

    def test_path_neighborhood_conflict(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert compatible(g, (0, 1), (2, 3)) is False

    def test_symmetry(self):
        rnd = random.Random(30)
        for _ in range(300):
            n = rnd.randint(4, 10)
            edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.4]
            if len(edges) < 2:
                continue
            g = Graph(n, edges)
            e1, e2 = rnd.sample(edges, 2)
            assert compatible(g, e1, e2) == compatible(g, e2, e1)

    def test_non_edge_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            compatible(g, (0, 2), (2, 3))

    def test_numpy_ids_past_bit_63(self):
        # 1 << np.int64(70) raised OverflowError
        g = Graph(100, [(0, 70), (1, 80), (70, 90), (2, 3)])
        for e1, e2 in itertools.permutations([(0, 70), (1, 80), (2, 3), (90, 70)], 2):
            as_numpy = tuple(np.int64(v) for v in e1), tuple(np.int64(v) for v in e2)
            assert compatible(g, *as_numpy) is compatible(g, e1, e2)


@st.composite
def graph_with_dead_slots(draw):
    n = draw(st.integers(2, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    g = Graph(n, edges).keep(draw(st.integers(0, (1 << n) - 1)))
    if g.edge_count == 0:
        g = Graph(n, edges)
    return g


@st.composite
def graph_and_partition(draw):
    """A graph with dead slots, a batch of its edges and a partition of the
    batch into groups in drawn order; the graphs are small, so members of a
    group often share an endpoint or neighbour one another."""
    g = draw(graph_with_dead_slots())
    batch = draw(st.lists(st.sampled_from(g.edges()), min_size=1, max_size=10, unique=True))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(batch), max_size=len(batch)))
    groups = [frozenset(e for e, j in zip(batch, labels) if j == label) for label in set(labels)]
    return g, batch, tuple(draw(st.permutations(groups)))


@st.composite
def controlled_batches(draw):
    """A controlled network with at most 12 data vertices and a batch of its
    complement edges."""
    k = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 12 // k), min_size=k, max_size=k))
    iq = random_network(k, sizes, draw(st.sampled_from([0.2, 0.5, 0.8])),
                           random.Random(draw(st.integers(0, 2**32))))
    avail = complement_inter_qnet(iq).graph.edges()
    picks = draw(st.lists(st.sampled_from(avail), unique=True)) if avail else []
    return iq, build_controlled(iq), picks


@st.composite
def tie_heavy_batches(draw):
    """A controlled network whose complement is built for tied partner
    counts, and a batch of its complement edges.

    Either the complement is disjoint copies of one small gadget, each copy
    holding the same requests, or it is circulant: QNets of equal size
    ``s``, with vertex ``j`` of one QNet joined to vertex ``l`` of a later
    one exactly when ``(l - j) mod s`` lies in a drawn residue set, and the
    requests are the edges of a drawn subset of those residues.
    """
    if draw(st.booleans()):
        k = draw(st.integers(2, 3))
        m = draw(st.integers(k, 5))
        extra = draw(st.lists(st.integers(1, k), min_size=m - k, max_size=m - k))
        gadget_qnets = tuple(draw(st.permutations(list(range(1, k + 1)) + extra)))
        cross = [(u, v) for u, v in itertools.combinations(range(m), 2)
                 if gadget_qnets[u] != gadget_qnets[v]]
        gadget = draw(st.lists(st.sampled_from(cross), min_size=1, unique=True))
        asked = draw(st.lists(st.sampled_from(gadget), min_size=1, unique=True))
        copies = draw(st.integers(2, 4))
        membership = gadget_qnets * copies
        comp_edges = [(u + c * m, v + c * m) for c in range(copies) for u, v in gadget]
        requests = [(u + c * m, v + c * m) for c in range(copies) for u, v in asked]
    else:
        k = draw(st.integers(2, 4))
        size = draw(st.integers(1, 3))
        residues = draw(st.sets(st.integers(0, size - 1), min_size=1))
        asked = draw(st.sets(st.sampled_from(sorted(residues)), min_size=1))
        membership = tuple(a for a in range(1, k + 1) for _ in range(size))
        comp_edges, requests = [], []
        for a, b in itertools.combinations(range(k), 2):
            for j, l in itertools.product(range(size), repeat=2):
                e = (a * size + j, b * size + l)
                if (l - j) % size in residues:
                    comp_edges.append(e)
                if (l - j) % size in asked:
                    requests.append(e)
    comp = InterQNet(Graph(len(membership), comp_edges), QNetPartition(k, membership))
    iq = complement_inter_qnet(comp)
    return build_controlled(iq), comp, requests


class TestCandidates:
    @settings(max_examples=300, deadline=None)
    @given(graph_with_dead_slots())
    def test_free_masks_equal_per_edge_scan(self, g):
        targets = g.edges()
        cl = candidate_lists(g, targets)
        want = reference_candidates(g, targets)
        for t in targets:
            assert cl[t] == want[t]

    def test_non_edge_target_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        for t in [(0, 2), (1, 7), (3, 3)]:
            with pytest.raises(ValueError, match="is not an edge"):
                parallel_pair_candidates(g, [t])

    def test_single_edge_graph(self):
        g = Graph(2, [(0, 1)])
        cl = candidate_lists(g, [(0, 1)])
        assert cl[(0, 1)] == frozenset()

    def test_perfect_matching(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        cl = candidate_lists(g, g.edges())
        for e in g.edges():
            assert cl[e] == frozenset(set(g.edges()) - {e})

    def test_candidates_span_whole_edge_set(self):
        # candidate sets may contain edges outside the target list
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        cl = candidate_lists(g, [(0, 1)])
        assert cl[(0, 1)] == frozenset({(2, 3), (4, 5)})

    def test_agrees_with_pairwise_predicate(self):
        rnd = random.Random(31)
        for _ in range(100):
            n = rnd.randint(4, 10)
            edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.4]
            if not edges:
                continue
            g = Graph(n, edges)
            targets = rnd.sample(edges, k=min(4, len(edges)))
            cl = candidate_lists(g, targets)
            for t in targets:
                want = {e for e in edges if e != t and compatible(g, t, e)}
                assert cl[t] == want


class TestCheckParallelPairable:
    """The all-pairs verdict of the compatibility rows and of the candidate
    lists against the pairwise predicate."""

    @settings(max_examples=300, deadline=None)
    @given(graph_and_subset())
    def test_matrix_candidates_and_pairwise_agree(self, case):
        g, sub = case
        want = brute_force_pairable(g, sub)
        assert candidate_pairable(g, sub) == want
        rows = compat_rows(g, sub)
        for i, j in itertools.permutations(range(len(sub)), 2):
            assert bool(rows[i] >> j & 1) == compatible(g, sub[i], sub[j])
        assert all(not row >> i & 1 for i, row in enumerate(rows))


# sizes on both sides of a byte of the transpose, and past one 64-bit word
BYTE_SIZES = [1, 7, 8, 9, 15, 16, 17, 63, 64, 65]


@st.composite
def wide_graph_and_batch(draw):
    """A graph of up to 80 vertices, some slots dead, and a batch of up to 40
    of its edges in drawn order, the sizes biased to byte boundaries."""
    n = draw(st.one_of(st.sampled_from([v for v in BYTE_SIZES if v > 1]), st.integers(2, 80)))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < density])
    if draw(st.booleans()):
        g = g.keep(rnd.getrandbits(n))
    m = draw(st.one_of(st.sampled_from(BYTE_SIZES[:7]), st.integers(0, 40)))
    edges = g.edges()
    return g, rnd.sample(edges, min(m, len(edges)))


class TestCompatRows:
    """The bit-matrix transpose behind ``_compat_rows`` against the
    per-vertex walk it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(wide_graph_and_batch())
    def test_equal_to_the_vertex_walk(self, case):
        g, edges = case
        assert compat_rows(g, edges) == reference_compat_rows(g, edges)

    @pytest.mark.parametrize("n", [v for v in BYTE_SIZES if v > 1] + [72, 129])
    @pytest.mark.parametrize("m", BYTE_SIZES[:7])
    def test_equal_at_byte_boundaries(self, n, m):
        rnd = random.Random(n * 1000 + m)
        density = 0.9 if n < 12 else 0.3
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < density])
        edges = g.edges()
        assert len(edges) >= m
        batch = rnd.sample(edges, m)
        rows = compat_rows(g, batch)
        assert rows == reference_compat_rows(g, batch)
        assert len(rows) == m and all(row >> m == 0 for row in rows)

    @pytest.mark.parametrize("n", [2, 9, 65])
    def test_empty_and_single_batches(self, n):
        g = Graph(n, [(0, n - 1)])
        assert compat_rows(g, []) == []
        assert compat_rows(g, [(0, n - 1)]) == [0]

    @pytest.mark.parametrize("k", [4, 10])
    @pytest.mark.parametrize("p", [0.2, 0.8])
    def test_equal_on_eval_batches(self, k, p):
        for rep in range(3):
            iq = generate_inter_qnet(GenConfig(k, even_sizes(50, k), p, derive_seed(5, k, int(p * 10), rep)))
            g = complement_inter_qnet(iq).graph
            eligible = g.edge_count
            for vol in (50, 100, 150, 200):
                rs = sample_requests(iq, min(vol, eligible), derive_seed(6, k, vol, rep))
                edges = sorted(rs.requests)
                assert compat_rows(g, edges) == reference_compat_rows(g, edges)

    @pytest.mark.parametrize("n", [400, 800])
    @pytest.mark.parametrize("p", [0.2, 0.8])
    def test_equal_at_scale(self, n, p):
        iq = generate_inter_qnet(GenConfig(4, even_sizes(n, 4), p, derive_seed(7, n, int(p * 10))))
        g = complement_inter_qnet(iq).graph
        edges = sorted(sample_requests(iq, 4 * n, derive_seed(8, n)).requests)
        assert compat_rows(g, edges) == reference_compat_rows(g, edges)


def plane_counts(planes, m):
    """Each of the ``m`` requests' counts, read back from the bit planes."""
    return [sum((p >> i & 1) << b for b, p in enumerate(planes)) for i in range(m)]


def ripple_count_planes(rows):
    """The partner counts' bit planes built by adding the rows with a ripple
    carry, a plane appended on overflow: bit ``i`` of the planes sums column
    ``i``, which is the count of row ``i`` when the rows are symmetric."""
    planes = []
    for carry in rows:
        for b, p in enumerate(planes):
            if not carry:
                break
            planes[b], carry = p ^ carry, p & carry
        if carry:
            planes.append(carry)
    return planes


def recounted_greedy(rows):
    """The scheduler's greedy as group masks over the compatibility rows,
    every partner count recomputed from the rows at each group start."""
    remaining = (1 << len(rows)) - 1
    groups = []
    while remaining:
        count = {i: (rows[i] & remaining).bit_count() for i in bits(remaining)}
        seed = min(count, key=lambda i: (-count[i], i))
        if not count[seed]:
            groups.extend(1 << i for i in bits(remaining))
            break
        group, shared = 1 << seed, rows[seed] & remaining
        while shared:
            pick = min(bits(shared), key=lambda i: (-count[i], i))
            group |= 1 << pick
            shared &= rows[pick]
        remaining ^= group
        groups.append(group)
    return groups


@st.composite
def symmetric_rows(draw, sizes=st.integers(0, 40)):
    """Rows of a random symmetric bit matrix with a zero diagonal."""
    m = draw(sizes)
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    rows = [0] * m
    for i, j in itertools.combinations(range(m), 2):
        if rnd.random() < density:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


class TestCountPlanes:
    """The scheduler's bit-sliced partner counts against popcounts of the
    rows, through a random sequence of group removals."""

    @staticmethod
    def _check_removals(rows, rnd):
        m = len(rows)
        planes = _count_planes(rows)
        assert len(planes) == max((row.bit_count() for row in rows), default=0).bit_length()
        remaining = (1 << m) - 1
        order = list(range(m))
        rnd.shuffle(order)
        while True:
            counts = plane_counts(planes, m)
            for i in bits(remaining):
                assert counts[i] == (rows[i] & remaining).bit_count()
            if not remaining:
                return
            for s in (remaining, remaining & rnd.getrandbits(m) or remaining):
                best = min(bits(s), key=lambda i: (-counts[i], i))
                assert _argmax(planes, s) == 1 << best
            size = rnd.randint(1, 4)
            group, order = order[:size], order[size:]
            for g in group:
                remaining ^= 1 << g
            for g in group:
                _decrement(planes, rows[g] & remaining)

    @settings(max_examples=300, deadline=None)
    @given(symmetric_rows(), st.randoms(use_true_random=False))
    def test_planes_track_popcounts_on_symmetric_rows(self, rows, rnd):
        self._check_removals(rows, rnd)

    @settings(max_examples=200, deadline=None)
    @given(controlled_batches(), st.randoms(use_true_random=False))
    def test_planes_track_popcounts_on_compat_rows(self, case, rnd):
        iq, _, picks = case
        self._check_removals(compat_rows(complement_inter_qnet(iq).graph, sorted(picks)), rnd)

    @settings(max_examples=200, deadline=None)
    @given(controlled_batches())
    def test_compat_rows_are_symmetric(self, case):
        # a group leaving the batch decrements the counts of its members'
        # partners read along its rows, which are their columns only
        # because the rows are symmetric
        iq, _, picks = case
        rows = compat_rows(complement_inter_qnet(iq).graph, sorted(picks))
        for i, j in itertools.combinations(range(len(rows)), 2):
            assert rows[i] >> j & 1 == rows[j] >> i & 1

    @settings(max_examples=60, deadline=None)
    @given(symmetric_rows(st.sampled_from([0, 1, 7, 8, 9, 200, 300])))
    def test_equal_to_the_ripple_carry_on_symmetric_rows(self, rows):
        # byte boundaries of m, all-zero rows (density 0) and, at m = 300,
        # counts past 255
        assert _count_planes(rows) == ripple_count_planes(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**70 - 1), max_size=70))
    def test_planes_hold_row_popcounts_without_symmetry(self, rows):
        counts = [row.bit_count() for row in rows]
        planes = _count_planes(rows)
        assert len(planes) == max(counts, default=0).bit_length()
        assert plane_counts(planes, len(rows)) == counts

    def test_decrement_stops_at_the_top_plane(self):
        # counts 1 and 0 over two planes; the borrow from the 0 runs past
        # the top plane, is dropped, and leaves that count at 3 (0 - 1 mod 4)
        planes = [0b01, 0b00]
        _decrement(planes, 0b10)
        assert planes == [0b11, 0b10]
        assert plane_counts(planes, 2) == [1, 3]
        planes = []
        _decrement(planes, 0b1)
        assert planes == []

    def test_empty_batch(self):
        assert _count_planes([]) == []
        cg = build_controlled(two_domains_of_three())
        assert dynamic_parallel_pairs(cg, []).groups == ()

    def test_all_incompatible_batch_has_no_plane(self):
        # the complement is a star on vertex 0, so every request shares it
        iq = InterQNet(Graph(6, []), QNetPartition(2, (1, 2, 2, 2, 2, 2)))
        comp = complement_inter_qnet(iq).graph
        requests = comp.edges()
        assert _count_planes(compat_rows(comp, requests)) == []
        table = dynamic_parallel_pairs(build_controlled(iq), requests[::-1])
        assert table.groups == tuple(frozenset((e,)) for e in requests)

    @pytest.mark.parametrize("m", [2, 3, 5, 9, 17, 300])
    def test_counts_at_powers_of_two_append_a_plane(self, m):
        # m = 300 takes the counts past 255
        # all pairs compatible: every count is m - 1
        full = (1 << m) - 1
        planes = _count_planes([full ^ 1 << i for i in range(m)])
        assert len(planes) == (m - 1).bit_length()
        assert plane_counts(planes, m) == [m - 1] * m
        # a star: the centre's count reaches m - 1 one leaf row at a time
        planes = _count_planes([full ^ 1] + [1] * (m - 1))
        assert len(planes) == (m - 1).bit_length()
        assert plane_counts(planes, m) == [m - 1] + [1] * (m - 1)
        # two QNets whose complement is the perfect matching (i, m + i)
        links = [(i, m + j) for i in range(m) for j in range(m) if i != j]
        cg = build_controlled(InterQNet(Graph(2 * m, links), QNetPartition(2, (1,) * m + (2,) * m)))
        requests = [(i, m + i) for i in range(m)]
        assert dynamic_parallel_pairs(cg, requests).groups == (frozenset(requests),)


def two_domains_of_three():
    """QNets {0, 1, 2} and {3, 4, 5} with links 0-3, 0-4, 1-4 and 2-5."""
    return InterQNet(
        Graph(6, [(0, 3), (1, 4), (2, 5), (0, 4)]),
        QNetPartition(2, (1, 1, 1, 2, 2, 2)),
    )


class TestDynamicParallelPairs:
    def _instance(self, seed, k=3, sizes=(3, 3, 2), p=0.5):
        rnd = random.Random(seed)
        iq = random_network(k, sizes, p, rnd)
        return iq, build_controlled(iq)

    def test_already_pairable_single_group(self):
        iq = InterQNet(Graph(4, [(0, 3), (1, 2)]), QNetPartition(2, (1, 1, 2, 2)))
        cg = build_controlled(iq)
        table = dynamic_parallel_pairs(cg, [(0, 2), (1, 3)])
        assert table.rho == 1 and table.groups[0] == frozenset({(0, 2), (1, 3)})

    def test_shared_endpoint_two_groups(self):
        cg = build_controlled(two_domains_of_three())
        table = dynamic_parallel_pairs(cg, [(0, 5), (1, 5)])
        assert table.rho == 2
        assert sorted(sorted(g) for g in table.groups) == [[(0, 5)], [(1, 5)]]

    def test_rejects_pair_outside_complement(self):
        iq = InterQNet(Graph(4, [(0, 3), (1, 2)]), QNetPartition(2, (1, 1, 2, 2)))
        cg = build_controlled(iq)
        with pytest.raises(RequestNotInComplement):
            dynamic_parallel_pairs(cg, [(0, 3)])  # an original link, not remote

    def test_same_qnet_and_adjacent_requests_rejected(self):
        # the scheduler is the one intake check for request pairs
        cg = build_controlled(two_domains_of_three())
        for bad in [(0, 1), (3, 0)]:  # inside QNet 1; an original link, reversed
            with pytest.raises(RequestNotInComplement, match=rf"request \({min(bad)}, {max(bad)}\) "):
                dynamic_parallel_pairs(cg, [(0, 5), bad])

    def test_reversed_duplicate_rejected(self):
        cg = build_controlled(two_domains_of_three())
        with pytest.raises(RequestError, match="duplicate requests"):
            dynamic_parallel_pairs(cg, [(0, 5), (5, 0)])

    def test_out_of_range_ids_rejected(self):
        # the last complement vertex neighbors 1, so a negative id that
        # wrapped around would read (-1, 1) as a complement edge
        cg = build_controlled(two_domains_of_three())
        comp = complement_inter_qnet(cg.data).graph
        n = comp.vertex_count
        assert comp.has_edge(n - 1, 1)
        for bad, name in [((-1, 1), -1), ((0, n), n)]:
            with pytest.raises(ValueError, match=rf"^invalid vertex id {name}$"):
                dynamic_parallel_pairs(cg, [(0, 5), bad])
            with pytest.raises(ValueError, match=rf"^target \({bad[0]}, {bad[1]}\) is not an edge$"):
                parallel_pair_candidates(comp, [bad])

    def test_partitions_and_groups_pairable(self):
        rnd = random.Random(33)
        for seed in range(40):
            iq, cg = self._instance(seed)
            comp = complement_inter_qnet(iq)
            avail = comp.graph.edges()
            if len(avail) < 2:
                continue
            picks = rnd.sample(avail, k=min(len(avail), rnd.randint(2, 8)))
            table = dynamic_parallel_pairs(cg, picks)
            got = sorted(e for grp in table.groups for e in grp)
            assert got == sorted(set(picks))
            for grp in table.groups:
                assert brute_force_pairable(comp.graph, sorted(grp))
            assert 1 <= table.rho <= len(picks)

    def test_rho_one_iff_pairable(self):
        rnd = random.Random(34)
        for seed in range(30):
            iq, cg = self._instance(seed, k=2, sizes=(4, 4), p=0.4)
            comp = complement_inter_qnet(iq)
            avail = comp.graph.edges()
            if len(avail) < 2:
                continue
            picks = rnd.sample(avail, k=min(len(avail), 5))
            table = dynamic_parallel_pairs(cg, picks)
            assert (table.rho == 1) == brute_force_pairable(comp.graph, picks)

    def test_schedule_is_deterministic(self):
        iq, cg = self._instance(7)
        comp = complement_inter_qnet(iq)
        picks = comp.graph.edges()[:6]
        assert dynamic_parallel_pairs(cg, picks).groups == dynamic_parallel_pairs(cg, picks).groups

    @pytest.mark.parametrize("k", [4, 10])
    @pytest.mark.parametrize("p", [0.2, 0.8])
    def test_matches_whole_edge_set_loop_at_eval_scale(self, k, p):
        iq = generate_inter_qnet(GenConfig(k, even_sizes(50, k), p, derive_seed(1, k, int(p * 10))))
        cg = build_controlled(iq)
        pool = complement_edges(iq)
        comp = Graph(50, pool)
        for vol in (50, 200):
            rs = sample_requests(iq, min(vol, len(pool)), derive_seed(2, k, vol))
            assert dynamic_parallel_pairs(cg, rs).groups == reference_dynamic_parallel_pairs(comp, rs)

    def test_groups_are_decoded_once_and_the_table_is_frozen(self):
        iq = generate_inter_qnet(GenConfig(4, even_sizes(50, 4), 0.8, derive_seed(3, 4)))
        cg = build_controlled(iq)
        rs = sample_requests(iq, 100, derive_seed(4, 4))
        table = dynamic_parallel_pairs(cg, rs)
        groups = table.groups
        assert table.groups is groups
        for name, value in [("groups", ()), ("rounds", []), ("singles", 0)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, name, value)
        assert table.groups is groups
        for again in (dynamic_parallel_pairs(cg, rs), dynamic_parallel_pairs(cg, list(rs.requests))):
            assert again is not table and again == table and hash(again) == hash(table)
            assert again.groups == groups and again.groups is not groups

    def test_matches_recounted_greedy_at_scale(self):
        # 800 requests on 200 data vertices at p=0.8; the whole-edge-set
        # loop takes most of a minute here, so the reference recounts every
        # partner from the compatibility rows at each group start instead
        iq = generate_inter_qnet(GenConfig(4, even_sizes(200, 4), 0.8, derive_seed(1, 4, 8)))
        rs = sample_requests(iq, 800, derive_seed(2, 4, 800))
        edges = sorted(rs.requests)
        rows = compat_rows(complement_inter_qnet(iq).graph, edges)
        assert max(row.bit_count() for row in rows) >= 64
        want = tuple(frozenset(edges[i] for i in bits(g)) for g in recounted_greedy(rows))
        assert dynamic_parallel_pairs(build_controlled(iq), rs).groups == want

    @settings(max_examples=200, deadline=None)
    @given(controlled_batches())
    def test_matches_whole_edge_set_loop_on_random_networks(self, case):
        iq, cg, picks = case
        want = reference_dynamic_parallel_pairs(Graph(iq.graph.vertex_count, complement_edges(iq)), picks)
        assert dynamic_parallel_pairs(cg, picks).groups == want

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_batches())
    def test_matches_whole_edge_set_loop_on_tie_heavy_batches(self, case):
        cg, comp, requests = case
        assert complement_inter_qnet(cg.data).graph == comp.graph
        want = reference_dynamic_parallel_pairs(comp.graph, requests)
        assert dynamic_parallel_pairs(cg, requests).groups == want

    @settings(max_examples=300, deadline=None)
    @given(graph_and_subset())
    def test_check_agrees_with_per_edge_candidates(self, case):
        g, sub = case
        sub = sorted({canonical_edge(*e) for e in sub})
        want = reference_candidates(g, sub)
        conflicts = [(e, sorted(set(sub) - {e} - want[e])) for e in sub]
        bad = [(e, extra) for e, extra in conflicts if extra]
        # the check reads no mask of a round's last member, so the round is
        # listed in both orders
        for order in (sorted, descending):
            table = index_table([sub], sub, order)
            if not bad:
                _assert_table_valid(g, table)
                continue
            with pytest.raises(ParallelPairViolation) as info:
                _assert_table_valid(g, table)
            e, extra = bad[0]
            assert str(info.value) == f"group member {e} conflicts with {extra}"
            assert info.value.extra_edges == tuple(extra)

    @settings(max_examples=500, deadline=None)
    @given(graph_and_partition())
    def test_check_agrees_with_per_edge_candidates_on_partitions(self, case):
        # the first member, in table order and sorted within its group,
        # whose candidate list misses another member of its group
        g, batch, groups = case
        want = reference_candidates(g, batch)
        bad = [
            (e, extra)
            for grp in groups if len(grp) > 1
            for e in sorted(grp)
            if (extra := sorted(grp - {e} - want[e]))
        ]
        for order in (sorted, descending):
            table = index_table(groups, batch, order)
            if not bad:
                _assert_table_valid(g, table)
                continue
            with pytest.raises(ParallelPairViolation) as info:
                _assert_table_valid(g, table)
            e, extra = bad[0]
            assert str(info.value) == f"group member {e} conflicts with {extra}"
            assert info.value.extra_edges == tuple(extra)

    @staticmethod
    def _sparse_batch():
        """An eval-scale batch at p=0.2, where most groups are singletons,
        its table and the indices of its singletons."""
        iq = generate_inter_qnet(GenConfig(4, even_sizes(50, 4), 0.2, derive_seed(1, 4, 2)))
        comp = complement_inter_qnet(iq)
        rs = sample_requests(iq, 200, derive_seed(2, 4, 200))
        table = dynamic_parallel_pairs(build_controlled(iq), rs)
        singles = list(bits(table.singles))
        assert len(singles) > table.rho // 2
        return comp.graph, table, singles

    def test_check_finds_one_conflicting_pair_among_singletons(self):
        g, table, singles = self._sparse_batch()

        def edge(i):
            return table.a[i], table.b[i]

        pairs = itertools.combinations(singles, 2)
        i, j = next((i, j) for i, j in pairs if not compatible(g, edge(i), edge(j)))
        rounds = list(table.rounds)
        # the higher index first, so the mask of the named member is not read
        rounds.insert(len(rounds) // 2, [j, i])
        merged = ParallelPairTable(table.a, table.b, rounds, table.singles ^ (1 << i | 1 << j))
        with pytest.raises(ParallelPairViolation) as info:
            _assert_table_valid(g, merged)
        assert str(info.value) == f"group member {edge(i)} conflicts with {[edge(j)]}"
        assert info.value.extra_edges == (edge(j),)

    def test_check_refuses_a_repeated_request_in_place_of_another(self):
        g, table, singles = self._sparse_batch()
        rounds = [*table.rounds, [singles[0]]]
        repeated = ParallelPairTable(table.a, table.b, rounds, table.singles ^ 1 << singles[1])
        # the count of members is right, so only the set of indices differs
        assert repeated.rho == table.rho
        with pytest.raises(ParallelPairViolation, match="^groups must partition the request set$"):
            _assert_table_valid(g, repeated)

    def test_table_violations_raise_under_optimize(self):
        script = "\n".join([
            "from mecnet.graph import Graph",
            "from mecnet.pairs import ParallelPairTable, ParallelPairViolation, _assert_table_valid",
            "print('debug', __debug__)",
            "g = Graph(3, [(0, 1), (1, 2)])",
            "for rounds in [[[0, 1]], [[0]]]:",
            "    try:",
            "        _assert_table_valid(g, ParallelPairTable([0, 1], [1, 2], rounds))",
            "    except ParallelPairViolation as exc:",
            "        print('raised', exc)",
        ])
        src = os.path.dirname(os.path.dirname(mecnet.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "debug False"
        assert lines[1] == "raised group member (0, 1) conflicts with [(1, 2)]"
        assert lines[2] == "raised groups must partition the request set"

    def test_table_text(self):
        iq = InterQNet(Graph(4, [(0, 3), (1, 2)]), QNetPartition(2, (1, 1, 2, 2)))
        cg = build_controlled(iq)
        table = dynamic_parallel_pairs(cg, [(0, 2), (1, 3)])
        assert table_to_text(table) == "T1: (0,2) (1,3)\n"


@contextlib.contextmanager
def request_edge_checks():
    """The batches the scheduler checks pair by pair through
    ``_request_edges``, its intake check, while the block runs."""
    seen = []
    check = pairs_module._request_edges

    def counted(g, r):
        seen.append(r)
        return check(g, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairs_module, "_request_edges", counted)
        yield seen


def check_both_paths(cg, rs):
    """Schedule a drawn batch as its pool indices and as pairs (as drawn and
    reversed), check the tables and the compatibility rows against the
    references, and return the table."""
    comp = complement_inter_qnet(cg.data)
    with request_edge_checks() as seen:
        table = dynamic_parallel_pairs(cg, rs)
        assert seen == []
        assert dynamic_parallel_pairs(cg, list(rs.requests)) == table
        assert dynamic_parallel_pairs(cg, [(v, u) for u, v in rs.requests]) == table
        assert len(seen) == 2
    want = reference_dynamic_parallel_pairs(Graph(comp.graph.vertex_count, complement_edges(cg.data)), rs)
    assert table.groups == want and table.rho == len(want)
    assert all(type(x) is int for grp in table.groups for e in grp for x in e)
    edges = sorted(rs.requests)
    a, b = (ends[np.sort(rs.index)] for ends in comp.edge_arrays)
    assert list(zip(a.tolist(), b.tolist())) == edges
    assert _compat_rows(comp.adjacency_matrix, a, b) == reference_compat_rows(comp.graph, edges)
    return table


@st.composite
def odd_k_draws(draw):
    """A network of 3 or 5 QNets, so with a parity-padding control, and a
    batch that ``sample_requests`` draws from it."""
    k = draw(st.sampled_from([3, 5]))
    sizes = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    p = draw(st.sampled_from([0.1, 0.5, 0.9]))
    iq = generate_inter_qnet(GenConfig(k, tuple(sizes), p, draw(st.integers(0, 2**32))))
    count = draw(st.integers(0, complement_inter_qnet(iq).graph.edge_count))
    return iq, sample_requests(iq, count, draw(st.integers(0, 2**32)))


class TestIntake:
    """A batch enters the scheduler as pool indices when drawn from the very
    complement it is scheduled on, and through one check of its pairs
    otherwise."""

    def test_both_paths_match_the_references_on_eval_batches(self, monkeypatch):
        cfg = dataclasses.replace(ExperimentConfig.from_json(EVAL_CONFIG), repetitions=4, jobs=1)
        tables = []

        def checked(cg, rs):
            tables.append(check_both_paths(cg, rs))
            return tables[-1]

        monkeypatch.setattr(experiments, "dynamic_parallel_pairs", checked)
        results = run_experiment(cfg)
        assert [t.rho for t in tables] == [v.rho for r in results for v in r.volumes if not v.skipped]
        assert len(tables) > 100

    @settings(max_examples=100, deadline=None)
    @given(odd_k_draws())
    def test_both_paths_match_the_references_with_odd_k(self, case):
        iq, rs = case
        assert iq.partition.k_prime == iq.partition.k + 1
        check_both_paths(build_controlled(iq), rs)

    def test_an_equal_network_maps_the_pairs(self):
        iq = generate_inter_qnet(GenConfig(4, even_sizes(50, 4), 0.2, derive_seed(11, 4)))
        rs = sample_requests(iq, 150, derive_seed(12, 4))
        twin = instance_from_text(instance_to_text(iq))
        assert twin == iq and twin is not iq
        with request_edge_checks() as seen:
            table = dynamic_parallel_pairs(build_controlled(twin), rs)
            assert len(seen) == 1
            assert dynamic_parallel_pairs(build_controlled(iq), rs) == table
            assert len(seen) == 1

    def test_another_networks_draw_is_checked(self):
        # every index of the draw is a position in this pool too, so only
        # the pool's identity keeps the scheduler from reading the wrong edges
        here = generate_inter_qnet(GenConfig(4, even_sizes(50, 4), 0.2, derive_seed(13, 4)))
        there = generate_inter_qnet(GenConfig(4, even_sizes(50, 4), 0.8, derive_seed(14, 4)))
        rs = sample_requests(there, 100, derive_seed(15, 4))
        comp = complement_inter_qnet(here).graph
        assert int(rs.index.max()) < comp.edge_count
        first = next(e for e in rs.requests if not comp.has_edge(*e))
        assert first != rs.requests[0]
        with pytest.raises(RequestNotInComplement, match=rf"^request \({first[0]}, {first[1]}\) is not"):
            dynamic_parallel_pairs(build_controlled(here), rs)

    def test_first_bad_request_in_input_order_is_named(self):
        # (0, 1) is inside QNet 1 and (0, 3) a link; both sort before (1, 4)
        cg = build_controlled(two_domains_of_three())
        with pytest.raises(RequestNotInComplement, match=r"^request \(1, 4\) is not a complement edge$"):
            dynamic_parallel_pairs(cg, [(0, 5), (4, 1), (0, 3), (0, 1)])
        with pytest.raises(RequestNotInComplement, match=r"^request \(1, 4\) "):
            dynamic_parallel_pairs(cg, [(1, 4), (0, 9)])
        with pytest.raises(ValueError, match=r"^invalid vertex id 9$"):
            dynamic_parallel_pairs(cg, [(9, 0), (1, 4)])

    @pytest.mark.parametrize(
        "bad, name",
        [((0.5, 4), "0.5"), ((4, np.float64(2.0)), "2.0"), ((0, 2**70), str(2**70))],
        ids=["float", "numpy-float", "past-int64"],
    )
    def test_first_bad_request_decides_whatever_the_id_types(self, bad, name):
        # (0, 1) is inside QNet 1
        cg = build_controlled(two_domains_of_three())
        with pytest.raises(RequestNotInComplement, match=r"^request \(0, 1\) is not a complement edge$"):
            dynamic_parallel_pairs(cg, [(0, 1), bad])
        with pytest.raises(ValueError, match=rf"^invalid vertex id {re.escape(name)}$"):
            dynamic_parallel_pairs(cg, [bad, (0, 1)])
        # a repeat is reported only once every pair has passed
        with pytest.raises(RequestNotInComplement, match=r"^request \(0, 1\) "):
            dynamic_parallel_pairs(cg, [(0, 5), (5, 0), (0, 1), bad])

    @pytest.mark.parametrize(
        "bad, name", [((2**70, 1), 2**70), ((1, -(2**70)), -(2**70)), ((0.5, 3), 0.5), ((-1, 6), -1)]
    )
    def test_ids_out_of_range_or_not_integers(self, bad, name):
        cg = build_controlled(two_domains_of_three())
        with pytest.raises(ValueError, match=rf"^invalid vertex id {re.escape(str(name))}$"):
            dynamic_parallel_pairs(cg, [(0, 5), bad])

    def test_numpy_ids_schedule_as_their_python_ints(self):
        iq = generate_inter_qnet(GenConfig(4, even_sizes(50, 4), 0.2, derive_seed(18, 4)))
        rs = sample_requests(iq, 120, derive_seed(19, 4))
        us, vs = complement_inter_qnet(iq).edge_arrays
        drawn = list(zip(us[rs.index], vs[rs.index]))
        assert {type(x) for e in drawn for x in e} == {np.int64}
        cg = build_controlled(iq)
        table = dynamic_parallel_pairs(cg, list(rs.requests))
        for pairs in (drawn, [(v, u) for u, v in drawn]):
            # the table holds Python ints, so even the reprs agree
            assert repr(dynamic_parallel_pairs(cg, pairs)) == repr(table)
        assert repr(table) == f"ParallelPairTable(groups={table.groups!r})"
        # and so does a refusal's message
        with pytest.raises(RequestNotInComplement, match=r"^request \(0, 1\) is not a complement edge$"):
            dynamic_parallel_pairs(build_controlled(two_domains_of_three()), [(np.int64(1), np.int64(0))])

    def test_reversed_pairs_are_canonicalised(self):
        cg = build_controlled(two_domains_of_three())
        table = dynamic_parallel_pairs(cg, [(5, 0), (3, 1), (4, 2)])
        assert table == dynamic_parallel_pairs(cg, [(0, 5), (1, 3), (2, 4)])
        assert set().union(*table.groups) == {(0, 5), (1, 3), (2, 4)}

    def test_duplicate_rejected_after_every_pair_is_found(self):
        cg = build_controlled(two_domains_of_three())
        with pytest.raises(RequestError, match="^duplicate requests$"):
            dynamic_parallel_pairs(cg, [(0, 5), (1, 3), (0, 5)])
        with pytest.raises(RequestNotInComplement):
            dynamic_parallel_pairs(cg, [(0, 5), (0, 5), (1, 4)])

    def test_empty_pool(self):
        cg = build_controlled(generate_inter_qnet(GenConfig(3, (3, 4, 2), 1.0, 5)))
        assert complement_inter_qnet(cg.data).graph.edge_count == 0
        assert dynamic_parallel_pairs(cg, []).groups == ()
        for bad in [(0, 3), (0, 1), (8, 0)]:
            with pytest.raises(RequestNotInComplement, match=rf"^request \({min(bad)}, {max(bad)}\) "):
                dynamic_parallel_pairs(cg, [bad])
        with pytest.raises(ValueError, match="^invalid vertex id 9$"):
            dynamic_parallel_pairs(cg, [(0, 9)])

    def test_request_set_is_a_value(self):
        iq = generate_inter_qnet(GenConfig(4, even_sizes(50, 4), 0.2, derive_seed(16, 4)))
        rs = sample_requests(iq, 40, derive_seed(17, 4))
        pool = complement_inter_qnet(iq).edge_arrays
        assert rs.pool is pool
        assert [(pool[0][i], pool[1][i]) for i in rs.index] == list(rs.requests)
        assert not rs.index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rs.index[0] = 0
        plain = RequestSet(rs.requests)
        assert plain.index is None and plain.pool is None
        assert rs == plain and hash(rs) == hash(plain) and repr(rs) == repr(plain)
        assert repr(rs) == f"RequestSet(requests={rs.requests!r})"
        cg = build_controlled(iq)
        table = dynamic_parallel_pairs(cg, rs)
        # an unpickled or deep copy holds copied arrays, and a replace copy
        # has no draw, so each is checked like any other batch
        for again in (pickle.loads(pickle.dumps(rs)), copy.deepcopy(rs), dataclasses.replace(rs)):
            assert again == rs and again.pool is not pool
            with request_edge_checks() as seen:
                assert dynamic_parallel_pairs(cg, again) == table
                assert seen == [again]
        # a shallow copy shares the pool, so it is still the draw
        shallow = copy.copy(rs)
        assert shallow.pool is pool and shallow.index is rs.index
        with request_edge_checks() as seen:
            assert dynamic_parallel_pairs(cg, shallow) == table
            assert seen == []

    def test_hand_built_request_set_cannot_claim_a_pool(self):
        # Passing the complement's own pool with indices that do not match
        # the pairs would schedule the edges at those indices unchecked:
        # (0, 3) and (0, 7) for a request, (0, 1), that lies inside one QNet.
        iq = generate_inter_qnet(GenConfig(4, (3, 3, 3, 3), 0.5, 7))
        cg = build_controlled(iq)
        pool = complement_inter_qnet(iq).edge_arrays
        for args, kwargs in (((((0, 1),), np.array([0, 1]), pool), {}),
                             ((((0, 1),),), {"index": np.array([0, 1]), "pool": pool})):
            with pytest.raises(TypeError):
                RequestSet(*args, **kwargs)
        with pytest.raises(dataclasses.FrozenInstanceError):
            RequestSet(((0, 1),)).pool = pool
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(sample_requests(iq, 2, 3), pool=pool)
        with request_edge_checks() as seen:
            with pytest.raises(RequestNotInComplement, match=r"^request \(0, 1\) is not a complement edge$"):
                dynamic_parallel_pairs(cg, RequestSet(((0, 1),)))
            assert len(seen) == 1


def one_intake_network():
    """The complement of a 12-vertex network, and its controlled network."""
    iq = generate_inter_qnet(GenConfig(4, (3, 3, 3, 3), 0.5, 7))
    return complement_inter_qnet(iq), build_controlled(iq)


class TestMinPartitionOracle:
    @pytest.mark.parametrize(
        "r, error, message",
        [
            ([(0, 1)], RequestNotInComplement, "request (0, 1) is not a complement edge"),
            ([(0, 99)], ValueError, "invalid vertex id 99"),
            ([(3, 0), (0, 3)], RequestError, "duplicate requests"),
            ([(0, 3), (0, 3)], RequestError, "duplicate requests"),
            ([(0, 3), (0, "a")], ValueError, "invalid vertex id a"),
            ([(None, 1)], ValueError, "invalid vertex id None"),
            ([(1j, 2)], ValueError, "invalid vertex id 1j"),
            ([(12, -1)], ValueError, "invalid vertex id 12"),
        ],
        ids=["non-edge", "out-of-range", "reversed-repeat", "exact-repeat", "str", "none", "complex",
             "both-bad-higher-first"],
    )
    def test_refuses_what_the_scheduler_refuses(self, r, error, message):
        comp, cg = one_intake_network()
        assert comp.graph.vertex_count == 12 and comp.graph.has_edge(0, 3)
        for run in (lambda: min_partition_oracle(comp.graph, r), lambda: dynamic_parallel_pairs(cg, r)):
            with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
                run()
            assert type(raised.value) is error

    def test_empty_batch(self):
        comp, cg = one_intake_network()
        assert min_partition_oracle(comp.graph, []) == 0
        assert dynamic_parallel_pairs(cg, []).groups == ()

    def test_numpy_ids_read_as_their_python_ints(self):
        comp, _ = one_intake_network()
        us, vs = comp.edge_arrays
        drawn = list(zip(us[::4], vs[::4]))
        assert {type(x) for e in drawn for x in e} == {np.int64} and 2 <= len(drawn) <= 10
        want = min_partition_oracle(comp.graph, [(int(u), int(v)) for u, v in drawn])
        assert min_partition_oracle(comp.graph, drawn) == want
        assert min_partition_oracle(comp.graph, [(v, u) for u, v in drawn]) == want

    def test_pairwise_compatible_is_one(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        assert min_partition_oracle(g, g.edges()) == 1

    def test_pairwise_incompatible_is_m(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
        edges = [(0, 1), (1, 2), (2, 3)]
        assert min_partition_oracle(g, edges) == 3

    def test_size_limit(self):
        g = Graph(22, [(2 * i, 2 * i + 1) for i in range(11)])
        with pytest.raises(ValueError):
            min_partition_oracle(g, g.edges())

    def test_lower_bounds_greedy(self):
        rnd = random.Random(35)
        for seed in range(40):
            iq = random_network(3, [3, 3, 3], 0.5, random.Random(seed))
            cg = build_controlled(iq)
            comp = complement_inter_qnet(iq)
            avail = comp.graph.edges()
            if len(avail) < 2:
                continue
            picks = rnd.sample(avail, k=min(len(avail), 7))
            table = dynamic_parallel_pairs(cg, picks)
            assert min_partition_oracle(comp.graph, picks) <= table.rho
