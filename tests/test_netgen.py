"""Synthetic generator: structure, density, determinism, request sampling."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from reference import (
    EVAL_CONFIG,
    complement_edges,
    cross_pair_count,
    edge_list_generate,
    reference_spanning_tree,
)

import mecnet
import mecnet.netgen as netgen
from mecnet.experiments import ExperimentConfig, derive_seed, even_sizes
from mecnet.graph import Graph
from mecnet.netgen import GenConfig, InsufficientPairsError, generate_inter_qnet, sample_requests
from mecnet.qnet import InterQNet, QNetPartition, complement_inter_qnet, instance_to_text

class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(1, (3,), 0.5, 0)
        with pytest.raises(ValueError):
            GenConfig(2, (3,), 0.5, 0)
        with pytest.raises(ValueError):
            GenConfig(2, (3, 0), 0.5, 0)
        with pytest.raises(ValueError):
            GenConfig(2, (3, 3), 1.5, 0)


class TestGenerate:
    def test_p_zero_is_spanning_tree(self):
        for seed in range(20):
            iq = generate_inter_qnet(GenConfig(3, (4, 3, 3), 0.0, seed))
            assert iq.graph.edge_count == 9  # nodes - 1
            assert iq.connected

    def test_p_one_is_complete_multipartite(self):
        iq = generate_inter_qnet(GenConfig(3, (3, 2, 2), 1.0, 5))
        assert iq.graph.edge_count == cross_pair_count((3, 2, 2))

    def test_always_connected_and_cross_domain(self):
        rnd = random.Random(60)
        for _ in range(50):
            k = rnd.choice([2, 3, 4])
            sizes = tuple(rnd.randint(1, 6) for _ in range(k))
            p = rnd.random()
            iq = generate_inter_qnet(GenConfig(k, sizes, p, rnd.randrange(10**6)))
            assert iq.connected
            m = iq.partition.membership
            for u, v in iq.graph.edges():
                assert m[u] != m[v]

    def test_reproducible_bit_exact(self):
        cfg = GenConfig(4, (5, 5, 5, 5), 0.4, 1234)
        a = generate_inter_qnet(cfg)
        b = generate_inter_qnet(cfg)
        assert instance_to_text(a) == instance_to_text(b)

    def test_seed_changes_graph(self):
        a = generate_inter_qnet(GenConfig(3, (4, 4, 4), 0.5, 1))
        b = generate_inter_qnet(GenConfig(3, (4, 4, 4), 0.5, 2))
        assert a.graph != b.graph

    def test_density_matches_expectation(self):
        # beyond the tree, each remaining cross pair appears with chance p;
        # the observed mean edge count over many instances stays within
        # three standard errors of the expectation
        sizes = (6, 6, 6)
        p = 0.3
        cross = cross_pair_count(sizes)
        n = sum(sizes)
        counts = [
            generate_inter_qnet(GenConfig(3, sizes, p, seed)).graph.edge_count
            for seed in range(400)
        ]
        extra = cross - (n - 1)
        expect = (n - 1) + extra * p
        sigma = math.sqrt(extra * p * (1 - p))
        assert abs(np.mean(counts) - expect) < 3 * sigma / math.sqrt(len(counts)) + 0.5


class TestSameGraphsAsEdgeLists:
    """The matrix build against :func:`edge_list_generate`: same draws, same
    graph, same partition."""

    def check(self, cfg):
        got = generate_inter_qnet(cfg)
        assert got == edge_list_generate(cfg)
        assert Graph(got.graph.vertex_count, got.graph.edges()) == got.graph

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    @pytest.mark.parametrize("p", [0.2, 0.8])
    def test_eval_cells(self, k, p):
        # the seeds of configs/eval.json's first repetitions
        for rep in range(4):
            self.check(GenConfig(k, even_sizes(50, k), p, derive_seed(1, k, int(p * 1_000_000), rep)))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0])
    def test_few_qnets_and_extreme_p(self, k, p):
        for seed in range(5):
            self.check(GenConfig(k, even_sizes(17, k), p, seed))

    @pytest.mark.parametrize("sizes", [(1, 1), (1, 2, 1), (3, 1, 9, 2, 7)])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_small_and_uneven_sizes(self, sizes, p):
        for seed in range(5):
            self.check(GenConfig(len(sizes), sizes, p, seed))

    @pytest.mark.parametrize("n, k", [(400, 4), (800, 8)])
    def test_large_dense(self, n, k):
        self.check(GenConfig(k, even_sizes(n, k), 0.8, derive_seed(n, k)))

    def test_one_network_and_no_edge_lists(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return InterQNet(*args)

        def refused(*args, **kwargs):
            raise AssertionError("the generator builds no edge list")

        monkeypatch.setattr(netgen, "InterQNet", counted)
        monkeypatch.setattr(netgen, "complement_inter_qnet", refused)
        monkeypatch.setattr(Graph, "__init__", refused)
        monkeypatch.setattr(Graph, "edges", refused)
        iq = generate_inter_qnet(GenConfig(4, (5, 5, 5, 5), 0.4, 3))
        assert len(built) == 1 and iq.connected


def spanning_tree_count(membership):
    """Kirchhoff's matrix-tree theorem on the complete multipartite graph of
    these QNet labels: the determinant of its Laplacian with the first row
    and column removed, by exact elimination (the matrix is positive
    definite, so no pivot is zero)."""
    n = len(membership)
    lap = [
        [
            Fraction(sum(membership[w] != membership[u] for w in range(n)) if u == v
                     else -(membership[u] != membership[v]))
            for v in range(1, n)
        ]
        for u in range(1, n)
    ]
    det = Fraction(1)
    for c in range(n - 1):
        det *= lap[c][c]
        for r in range(c + 1, n - 1):
            f = lap[r][c] / lap[c][c]
            lap[r] = [a - f * b for a, b in zip(lap[r], lap[c])]
    return int(det)


def chi_square_quantile(df, q):
    """The ``q`` quantile of the chi-square distribution with ``df`` degrees
    of freedom, by the Wilson–Hilferty cube-root normal approximation."""
    z = NormalDist().inv_cdf(q)
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


class TestUniformSpanningTree:
    @pytest.mark.parametrize(
        "membership, trees",
        [((1, 2, 2, 3, 3), 45), ((1, 2, 3, 4, 4, 4), 324), ((1, 1, 2, 2, 3, 3), 384)],
    )
    def test_every_tree_equally_likely(self, membership, trees):
        # the closed form n^(k-2) * prod (n - n_i)^(n_i - 1) agrees
        assert spanning_tree_count(membership) == trees
        per_tree = 30
        rng = np.random.default_rng(derive_seed(len(membership), trees))
        counts = Counter()
        for _ in range(per_tree * trees):
            edges = netgen._uniform_spanning_tree(membership, rng)
            tree = frozenset(tuple(sorted(e)) for e in edges)
            assert len(tree) == len(membership) - 1
            assert all(membership[u] != membership[v] for u, v in tree)
            g = Graph(len(membership), sorted(tree))
            assert InterQNet(g, QNetPartition(max(membership), membership)).connected
            counts[tree] += 1
        assert len(counts) <= trees
        # each tree is expected per_tree times; a tree never drawn counts too
        stat = sum((c - per_tree) ** 2 for c in counts.values()) / per_tree
        stat += (trees - len(counts)) * per_tree
        assert stat < chi_square_quantile(trees - 1, 0.999), (stat, trees)


class TestSpanningTreeStream:
    """The library walk against :func:`reference_spanning_tree`: the same
    tree, and the generator left where the per-step walk leaves it, so the
    edge draws that follow do not move.  The walk draws in blocks, which
    holds only while a block of ``rng.integers(n, size=m)`` equals ``m``
    scalar draws; a numpy version that breaks that fails here."""

    def check(self, sizes, seed):
        membership = tuple(a for a, s in enumerate(sizes, start=1) for _ in range(s))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert netgen._uniform_spanning_tree(membership, got_rng) == reference_spanning_tree(
            membership, want_rng
        )
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()

    def test_eval_cells(self):
        cfg = ExperimentConfig.from_json(EVAL_CONFIG)
        for k, p in itertools.product(cfg.qnet_counts, cfg.densities):
            for rep in range(4):
                self.check(even_sizes(cfg.nodes, k), derive_seed(cfg.seed, k, int(p * 1_000_000), rep))

    @pytest.mark.parametrize("sizes", [(1, 1), (1, 2), (5, 1), (1, 1, 1), (2, 7, 1), (9, 3, 4)])
    def test_two_and_three_qnets_of_uneven_sizes(self, sizes):
        for seed in range(10):
            self.check(sizes, derive_seed(seed, *sizes))

    @pytest.mark.parametrize("n, k", [(400, 4), (800, 8)])
    def test_large(self, n, k):
        self.check(even_sizes(n, k), derive_seed(n, k))


def stored_pool(iq):
    """The request pool the network's complement keeps, as a list of pairs."""
    us, vs = complement_inter_qnet(iq).edge_arrays
    return list(zip(us.tolist(), vs.tolist()))


class TestSampleRequests:
    def test_complete_graph_has_no_pairs(self):
        iq = generate_inter_qnet(GenConfig(2, (3, 3), 1.0, 0))
        with pytest.raises(InsufficientPairsError):
            sample_requests(iq, 1, 0)

    def test_pool_is_the_complement_edge_list_on_eval_cells(self):
        cfg = ExperimentConfig.from_json(EVAL_CONFIG)
        for k, p in itertools.product(cfg.qnet_counts, cfg.densities):
            for rep in range(4):
                seed = derive_seed(cfg.seed, k, int(p * 1_000_000), rep)
                iq = generate_inter_qnet(GenConfig(k, even_sizes(cfg.nodes, k), p, seed))
                pool = stored_pool(iq)
                assert pool == complement_inter_qnet(iq).graph.edges() and pool, (k, p, rep)

    def test_complete_multipartite_network_has_an_empty_pool(self):
        iq = generate_inter_qnet(GenConfig(3, (3, 4, 2), 1.0, 5))
        assert iq.graph.edge_count == 3 * 4 + 3 * 2 + 4 * 2
        assert stored_pool(iq) == complement_inter_qnet(iq).graph.edges() == []
        assert sample_requests(iq, 0, 7).requests == ()
        with pytest.raises(InsufficientPairsError, match="only 0 eligible pairs"):
            sample_requests(iq, 1, 7)

    def test_zero_count(self):
        iq = generate_inter_qnet(GenConfig(2, (3, 3), 0.0, 0))
        assert sample_requests(iq, 0, 0).requests == ()

    def test_requests_valid_and_deterministic(self):
        iq = generate_inter_qnet(GenConfig(3, (5, 5, 5), 0.2, 3))
        a = sample_requests(iq, 10, 99)
        b = sample_requests(iq, 10, 99)
        assert a.requests == b.requests
        m = iq.partition.membership
        for s, d in a.requests:
            assert m[s] != m[d]
            assert not iq.graph.has_edge(s, d)

    def test_without_replacement(self):
        iq = generate_inter_qnet(GenConfig(3, (4, 4, 4), 0.1, 4))
        rs = sample_requests(iq, 15, 7)
        assert len(set(rs.requests)) == 15

    @pytest.mark.parametrize(
        "k, p, volume, seed, digest",
        [
            (4, 0.2, 50, 11, "05a305d0e754809d"),
            (6, 0.8, 40, 12, "0e01c38c42c9adca"),
            (10, 0.2, 200, 13, "2dca169ef915e387"),
            (8, 0.5, 150, 14, "42eb1b45f5c00faf"),
        ],
    )
    def test_sample_unchanged(self, k, p, volume, seed, digest):
        # the pool is the complement's edge list; it used to be the double
        # loop of complement_edges, and the digests were recorded from the
        # double-loop sampler
        iq = generate_inter_qnet(GenConfig(k, even_sizes(50, k), p, derive_seed(seed, k)))
        pool = complement_edges(iq)
        assert complement_inter_qnet(iq).graph.edges() == pool
        rng = np.random.default_rng(derive_seed(seed, volume))
        want = tuple(pool[i] for i in rng.choice(len(pool), size=volume, replace=False))
        got = sample_requests(iq, volume, derive_seed(seed, volume))
        assert got.requests == want
        assert hashlib.sha256(repr(got.requests).encode()).hexdigest()[:16] == digest


def test_generator_invariant_raises_under_optimize():
    script = "\n".join([
        "import mecnet.netgen as netgen",
        "print('debug', __debug__)",
        "netgen._uniform_spanning_tree = lambda membership, rng: []  # no tree",
        "try:",
        "    netgen.generate_inter_qnet(netgen.GenConfig(2, (2, 2), 0.0, 0))",
        "except RuntimeError as exc:",
        "    print('raised', exc)",
    ])
    src = os.path.dirname(os.path.dirname(mecnet.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False",
        "raised spanning-tree construction must yield a connected graph",
    ]
