"""Compatibility predicate, candidate generation, pairable check,
dynamic partitioning, exact-partition oracle."""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mecnet
from mecnet.experiments import derive_seed, even_sizes
from mecnet.graph import Graph
from mecnet.netgen import GenConfig, generate_inter_qnet, sample_requests
from mecnet.pairs import (
    ParallelPairTable,
    ParallelPairViolation,
    RequestError,
    RequestNotInComplement,
    _assert_table_valid,
    _compat_rows,
    canonical_edge,
    check_parallel_pairable,
    compatible,
    dynamic_parallel_pairs,
    min_partition_oracle,
    parallel_pair_candidates,
    table_to_text,
)
from mecnet.qnet import InterQNet, QNetPartition, build_controlled, complement_inter_qnet
from mecnet.verify import random_inter_qnet


def brute_force_pairable(g, edges):
    return all(compatible(g, a, b) for a, b in itertools.combinations(edges, 2))


def candidate_pairable(g, edges):
    """The paper's formulation: each edge's candidate list over the whole
    edge set holds every other member."""
    edge_set = {canonical_edge(*e) for e in edges}
    cl = parallel_pair_candidates(g, edge_set)
    return all(edge_set - {e} <= cl[e] for e in edge_set)


def reference_candidates(g, targets):
    """Candidate lists as first written: one pass over the whole edge set
    per target, keeping every edge with no endpoint in the target's reach."""
    out = {}
    for t in targets:
        a, b = canonical_edge(*t)
        reach = (1 << a) | (1 << b) | g.neighbor_mask(a) | g.neighbor_mask(b)
        out[(a, b)] = frozenset(
            (u, v) for u, v in g.edges() if not reach >> u & 1 and not reach >> v & 1
        )
    return out


def reference_dynamic_parallel_pairs(cg, requests):
    """The greedy scheduler as first written: candidate lists over the whole
    complement edge set, rebuilt at every group start."""
    def pick(pool, cand_in_r):
        return max(sorted(pool), key=lambda e: len(cand_in_r[e]))

    cgraph = complement_inter_qnet(cg.data).graph
    remaining = [canonical_edge(*e) for e in requests]
    groups = []
    while remaining:
        cl = parallel_pair_candidates(cgraph, remaining)
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
def controlled_batches(draw):
    """A controlled network with at most 12 data vertices and a batch of its
    complement edges."""
    k = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 12 // k), min_size=k, max_size=k))
    iq = random_inter_qnet(k, sizes, draw(st.sampled_from([0.2, 0.5, 0.8])),
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
        cl = parallel_pair_candidates(g, targets)
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
        cl = parallel_pair_candidates(g, [(0, 1)])
        assert cl[(0, 1)] == frozenset()

    def test_perfect_matching(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        cl = parallel_pair_candidates(g, g.edges())
        for e in g.edges():
            assert cl[e] == frozenset(set(g.edges()) - {e})

    def test_candidates_span_whole_edge_set(self):
        # candidate sets may contain edges outside the target list
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        cl = parallel_pair_candidates(g, [(0, 1)])
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
            cl = parallel_pair_candidates(g, targets)
            for t in targets:
                want = {e for e in edges if e != t and compatible(g, t, e)}
                assert cl[t] == want


class TestCheckParallelPairable:
    def test_singleton(self):
        g = Graph(2, [(0, 1)])
        assert check_parallel_pairable(g, [(0, 1)]) is True

    def test_shared_vertex_false(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert check_parallel_pairable(g, [(0, 1), (1, 2)]) is False

    def test_non_edge_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            check_parallel_pairable(g, [(0, 1), (1, 2)])

    @settings(max_examples=300, deadline=None)
    @given(graph_and_subset())
    def test_matrix_candidates_and_pairwise_agree(self, case):
        g, sub = case
        want = brute_force_pairable(g, sub)
        assert check_parallel_pairable(g, sub) == want
        assert candidate_pairable(g, sub) == want
        rows = _compat_rows(g, sub)
        for i, j in itertools.permutations(range(len(sub)), 2):
            assert bool(rows[i] >> j & 1) == compatible(g, sub[i], sub[j])
        assert all(not row >> i & 1 for i, row in enumerate(rows))

    def test_brute_force_agreement(self):
        rnd = random.Random(32)
        for _ in range(2000):
            n = rnd.randint(4, 11)
            edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.35]
            if not edges:
                continue
            g = Graph(n, edges)
            sub = rnd.sample(edges, k=min(len(edges), rnd.randint(1, 8)))
            assert check_parallel_pairable(g, sub) == brute_force_pairable(g, sub)


def two_domains_of_three():
    """QNets {0, 1, 2} and {3, 4, 5} with links 0-3, 0-4, 1-4 and 2-5."""
    return InterQNet(
        Graph(6, [(0, 3), (1, 4), (2, 5), (0, 4)]),
        QNetPartition(2, (1, 1, 1, 2, 2, 2)),
    )


class TestDynamicParallelPairs:
    def _instance(self, seed, k=3, sizes=(3, 3, 2), p=0.5):
        rnd = random.Random(seed)
        iq = random_inter_qnet(k, list(sizes), p, rnd)
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

    def test_policies_deterministic(self):
        iq, cg = self._instance(7)
        comp = complement_inter_qnet(iq)
        picks = comp.graph.edges()[:6]
        assert dynamic_parallel_pairs(cg, picks).groups == dynamic_parallel_pairs(cg, picks).groups

    @pytest.mark.parametrize("k", [4, 10])
    @pytest.mark.parametrize("p", [0.2, 0.8])
    def test_matches_whole_edge_set_loop_at_eval_scale(self, k, p):
        iq = generate_inter_qnet(GenConfig(k, even_sizes(50, k), p, derive_seed(1, k, int(p * 10))))
        cg = build_controlled(iq)
        eligible = len(complement_inter_qnet(iq).graph.edges())
        for vol in (50, 200):
            rs = sample_requests(iq, min(vol, eligible), derive_seed(2, k, vol))
            assert dynamic_parallel_pairs(cg, rs).groups == reference_dynamic_parallel_pairs(cg, rs)

    @settings(max_examples=200, deadline=None)
    @given(controlled_batches())
    def test_matches_whole_edge_set_loop_on_random_networks(self, case):
        iq, cg, picks = case
        comp = complement_inter_qnet(iq)
        want = reference_dynamic_parallel_pairs(cg, picks)
        assert dynamic_parallel_pairs(cg, picks).groups == want
        assert dynamic_parallel_pairs(cg, picks, complement=comp).groups == want

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_batches())
    def test_matches_whole_edge_set_loop_on_tie_heavy_batches(self, case):
        cg, comp, requests = case
        assert complement_inter_qnet(cg.data).graph == comp.graph
        want = reference_dynamic_parallel_pairs(cg, requests)
        assert dynamic_parallel_pairs(cg, requests).groups == want

    @settings(max_examples=300, deadline=None)
    @given(graph_and_subset())
    def test_check_agrees_with_per_edge_candidates(self, case):
        g, sub = case
        sub = sorted({canonical_edge(*e) for e in sub})
        want = reference_candidates(g, sub)
        conflicts = [(e, sorted(set(sub) - {e} - want[e])) for e in sub]
        bad = [(e, extra) for e, extra in conflicts if extra]
        table = ParallelPairTable((frozenset(sub),))
        if not bad:
            _assert_table_valid(g, table, sub)
            return
        with pytest.raises(ParallelPairViolation) as info:
            _assert_table_valid(g, table, sub)
        e, extra = bad[0]
        assert str(info.value) == f"group member {e} conflicts with {extra}"
        assert info.value.extra_edges == tuple(extra)

    def test_table_violations_raise_under_optimize(self):
        script = "\n".join([
            "from mecnet.graph import Graph",
            "from mecnet.pairs import ParallelPairTable, ParallelPairViolation, _assert_table_valid",
            "print('debug', __debug__)",
            "g = Graph(3, [(0, 1), (1, 2)])",
            "for groups in [(frozenset({(0, 1), (1, 2)}),), (frozenset({(0, 1)}),)]:",
            "    try:",
            "        _assert_table_valid(g, ParallelPairTable(groups), [(0, 1), (1, 2)])",
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


class TestMinPartitionOracle:
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
            iq = random_inter_qnet(3, [3, 3, 3], 0.5, random.Random(seed))
            cg = build_controlled(iq)
            comp = complement_inter_qnet(iq)
            avail = comp.graph.edges()
            if len(avail) < 2:
                continue
            picks = rnd.sample(avail, k=min(len(avail), 7))
            table = dynamic_parallel_pairs(cg, picks)
            assert min_partition_oracle(comp.graph, picks) <= table.rho
