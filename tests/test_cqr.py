"""Shortest-path baseline: hop model, tie-breaking, batch statistics.

``cqr_batch`` reads routes off neighbor masks in closed form; the
breadth-first search of ``reference.py`` is the reference it is checked
against.
"""

import copy
import dataclasses
import itertools
import pickle
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import EVAL_CONFIG, bfs_dist, complement_edges, random_network, reference_route

import mecnet.experiments as experiments
from mecnet.cqr import CqrPath, cqr_batch
from mecnet.experiments import ExperimentConfig, derive_seed, even_sizes, run_experiment
from mecnet.graph import Graph
from mecnet.netgen import GenConfig, generate_inter_qnet, sample_requests
from mecnet.qnet import InterQNet, QNetPartition, build_controlled, complement_inter_qnet

def _cg(edges, k, membership):
    iq = InterQNet(Graph(len(membership), edges), QNetPartition(k, membership))
    return build_controlled(iq)


def route_one(cg, req):
    """The route of ``req`` served alone."""
    return cqr_batch(cg, [req])[0][0]


@st.composite
def controlled_networks(draw):
    """Controlled networks with 2-4 domains and at most 12 data vertices."""
    k = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 12 // k), min_size=k, max_size=k))
    membership = tuple(a for a, size in enumerate(sizes, start=1) for _ in range(size))
    cross = [
        (u, v)
        for u, v in itertools.combinations(range(len(membership)), 2)
        if membership[u] != membership[v]
    ]
    edges = draw(st.lists(st.sampled_from(cross), unique=True))
    return _cg(edges, k, membership)


class TestRouteCqr:
    def test_two_hops_via_mediator(self):
        # 0 and 3 share the mediator 4 in a third domain
        cg = _cg([(0, 4), (3, 4), (0, 3)][:2] + [(1, 3)], 3, (1, 1, 2, 2, 3))
        path = route_one(cg, (0, 3))
        assert path.hops == 2 and path.intermediates == (4,) and not path.via_control

    def test_three_hops_via_controls(self):
        # 0 and 3 touch nothing but their own controls, so the only route
        # is source control to destination control
        cg = _cg([(1, 2)], 2, (1, 1, 2, 2))
        path = route_one(cg, (0, 3))
        assert path.hops == 3
        assert path.via_control
        assert path.intermediates == tuple(cg.partition.control_nodes)

    def test_three_hops_mixed_intermediates_allowed(self):
        # a data vertex may appear inside a 3-hop route when it ties
        cg = _cg([(0, 3), (1, 2)], 2, (1, 1, 2, 2))
        path = route_one(cg, (0, 2))
        assert path.hops == 3 and path.via_control

    def test_adjacent_pair_is_one_hop(self):
        cg = _cg([(0, 3), (1, 2)], 2, (1, 1, 2, 2))
        path = route_one(cg, (0, 3))
        assert path.hops == 1 and path.intermediates == ()

    def test_lexicographic_tie_break(self):
        # mediators 2 and 3 both work for (0, 5); the smaller one wins
        cg = _cg([(0, 2), (0, 3), (2, 5), (3, 5)], 3, (1, 1, 2, 2, 3, 3))
        assert route_one(cg, (0, 5)).intermediates == (2,)

    def test_remote_hops_bounded(self):
        for seed in range(30):
            iq = random_network(3, [3, 3, 3], 0.3, random.Random(seed))
            cg = build_controlled(iq)
            for req in complement_edges(iq):
                assert 2 <= route_one(cg, req).hops <= 3

    def test_unreachable_pair_raises(self):
        # not a controlled network: a bare path of five vertices
        net = SimpleNamespace(
            graph=Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            partition=SimpleNamespace(data_count=5),  # no controls
        )
        assert route_one(net, (0, 3)).intermediates == (1, 2)
        with pytest.raises(ValueError, match="at most three hops"):
            route_one(net, (0, 4))

    def test_same_endpoints_rejected(self):
        # the message names the request, as the other intake errors do
        cg = _cg([(0, 3)], 2, (1, 1, 2, 2))
        for req in [(1, 1), [1, 1]]:
            with pytest.raises(ValueError, match=r"^request \(1, 1\) has source equal to destination$"):
                cqr_batch(cg, [(0, 3), req])

    def test_out_of_range_ids_rejected(self):
        # the last vertex (a control) neighbors 3, so a negative id that
        # wrapped around would route (-1, 3) in one hop
        cg = _cg([(0, 3), (1, 2)], 2, (1, 1, 2, 2))
        n = cg.graph.vertex_count
        assert cg.graph.has_edge(n - 1, 3)
        for bad, name in [((-1, 3), -1), ((0, n), n)]:
            with pytest.raises(ValueError, match=rf"^invalid vertex id {name}$"):
                route_one(cg, bad)
            with pytest.raises(ValueError, match=rf"^invalid vertex id {name}$"):
                cqr_batch(cg, [(0, 3), bad])

    @pytest.mark.parametrize("k", [4, 10])
    @pytest.mark.parametrize("p", [0.2, 0.8])
    def test_matches_bfs_reference_at_eval_scale(self, k, p):
        # every ordered pair of data vertices on three 50-vertex instances
        for rep in range(3):
            gen_seed = derive_seed(3, k, int(p * 1_000_000), rep)
            cg = build_controlled(generate_inter_qnet(GenConfig(k, even_sizes(50, k), p, gen_seed)))
            for d in range(50):
                dist = bfs_dist(cg.graph, d)
                for s in range(50):
                    if s != d:
                        assert route_one(cg, (s, d)) == reference_route(cg, (s, d), dist)


class TestCqrPath:
    def test_hops_must_match_intermediates(self):
        with pytest.raises(ValueError, match="3 hops need 2 intermediates, got 1"):
            CqrPath((0, 1), 3, (5,), False)

    def test_keyword_construction_validates_alike(self):
        path = CqrPath(request=(0, 1), hops=2, intermediates=(5,), via_control=False)
        assert path == CqrPath((0, 1), 2, (5,), False)
        with pytest.raises(ValueError, match="^3 hops need 2 intermediates, got 1$"):
            CqrPath(request=(0, 1), hops=3, intermediates=(5,), via_control=False)

    def test_make_and_replace_validate(self):
        path = CqrPath((0, 1), 2, (5,), False)
        assert CqrPath._make([(0, 1), 2, (5,), False]) == path
        assert type(path._replace(via_control=True)) is CqrPath
        with pytest.raises(ValueError, match="^3 hops need 2 intermediates, got 1$"):
            CqrPath._make([(0, 1), 3, (5,), False])
        with pytest.raises(ValueError, match="^1 hops need 0 intermediates, got 1$"):
            path._replace(hops=1)

    def test_fields_cannot_be_assigned(self):
        path = CqrPath((0, 1), 2, (5,), False)
        with pytest.raises(AttributeError):
            path.hops = 1
        with pytest.raises(AttributeError):
            path.note = "x"
        assert path == ((0, 1), 2, (5,), False)

    def test_pickle_round_trip(self):
        path = route_one(_cg([(1, 2)], 2, (1, 1, 2, 2)), (0, 3))
        back = pickle.loads(pickle.dumps(path))
        assert back == path and type(back) is CqrPath and back.via_control


class TestCqrBatch:
    def test_all_two_hop(self):
        cg = _cg([(0, 4), (3, 4), (1, 4)], 3, (1, 1, 2, 2, 3))
        paths, chi = cqr_batch(cg, [(0, 3), (1, 3)])
        assert [p.hops for p in paths] == [2, 2] and chi == 2

    def test_empty_batch(self):
        cg = _cg([(0, 3), (1, 2)], 2, (1, 1, 2, 2))
        paths, chi = cqr_batch(cg, [])
        assert paths == [] and chi == 0

    @settings(max_examples=150, deadline=None)
    @given(controlled_networks())
    def test_agrees_with_one_request_batches_and_bfs_reference(self, cg):
        n = cg.graph.vertex_count
        reqs = list(itertools.permutations(range(n), 2))
        dists = [bfs_dist(cg.graph, d) for d in range(n)]
        want = [reference_route(cg, (s, d), dists[d]) for s, d in reqs]
        paths, chi = cqr_batch(cg, reqs)
        assert paths == [route_one(cg, r) for r in reqs] == want
        # records compare as tuples, so check that each is a CqrPath
        assert all(type(p) is CqrPath for p in paths)
        assert chi == sum(len(p.intermediates) for p in want)
        # so the mean hop count is (|R| + chi) / |R|
        assert sum(p.hops for p in want) == len(want) + chi
        controls = cg.partition.control_nodes
        assert [p.via_control for p in paths] == [any(v in controls for v in p.intermediates) for p in paths]


class TestDrawnBatch:
    """A batch drawn from the network's own pool is counted off its hop
    table, and its paths are routed only when read."""

    @staticmethod
    def drawn(p=0.2, seed=5):
        iq = generate_inter_qnet(GenConfig(4, even_sizes(50, 4), p, derive_seed(seed)))
        return iq, sample_requests(iq, 100, derive_seed(seed, 1))

    def test_equals_the_eager_loop_on_every_eval_batch(self, monkeypatch):
        seen = []

        def both(cg, rs):
            routes, chi = cqr_batch(cg, rs)
            paths, want = cqr_batch(cg, rs.requests)
            assert type(paths) is list and not isinstance(routes, list)
            assert chi == want and type(chi) is int
            assert routes.hops.tolist() == [p.hops for p in paths]
            assert list(routes) == paths and len(routes) == len(paths)
            seen.append(len(paths))
            return routes, chi

        monkeypatch.setattr(experiments, "cqr_batch", both)
        cfg = dataclasses.replace(ExperimentConfig.from_json(EVAL_CONFIG), repetitions=4, jobs=1)
        results = run_experiment(cfg)
        assert len(seen) == sum(not v.skipped for r in results for v in r.volumes) > 100

    @pytest.mark.parametrize(
        "network",
        [
            lambda iq: pickle.loads(pickle.dumps(iq)),
            copy.deepcopy,
            lambda iq: generate_inter_qnet(GenConfig(4, even_sizes(50, 4), 0.2, derive_seed(5))),
            lambda iq: generate_inter_qnet(GenConfig(4, even_sizes(50, 4), 0.8, derive_seed(6))),
        ],
        ids=["pickled", "deepcopied", "equal", "other"],
    )
    def test_a_draw_on_another_network_object_takes_the_eager_loop(self, network):
        iq, rs = self.drawn()
        cg = build_controlled(network(iq))
        assert cg.data is not iq
        got = cqr_batch(cg, rs)
        assert type(got[0]) is list and got == cqr_batch(cg, rs.requests)

    @pytest.mark.parametrize(
        "batch",
        [lambda rs: dataclasses.replace(rs), lambda rs: pickle.loads(pickle.dumps(rs))],
        ids=["replaced", "pickled"],
    )
    def test_a_copied_draw_takes_the_eager_loop(self, batch):
        iq, rs = self.drawn()
        cg = build_controlled(iq)
        got = cqr_batch(cg, batch(rs))
        assert type(got[0]) is list and got == cqr_batch(cg, rs.requests)
        # a shallow copy shares the pool, so it is counted off the table
        routes, chi = cqr_batch(cg, copy.copy(rs))
        assert not isinstance(routes, list) and (list(routes), chi) == got

    def test_routes_are_read_only_and_built_once(self):
        iq, rs = self.drawn(0.8)
        routes, _ = cqr_batch(build_controlled(iq), rs)
        with pytest.raises(TypeError):
            routes[0] = routes[1]
        with pytest.raises(ValueError):
            routes.hops[0] = 1
        first = list(routes)
        assert all(a is b for a, b in zip(first, routes)) and routes[-1] is first[-1]
        assert routes[:2] == first[:2] and routes.index(first[3]) == 3

    def test_table_is_read_only_and_left_out_of_a_pickle(self):
        iq, _ = self.drawn()
        table = iq._cqr_intermediates
        assert not table.flags.writeable and set(table.tolist()) == {1, 2}
        back = pickle.loads(pickle.dumps(iq))
        assert "_cqr_intermediates" not in vars(back)
        assert back._cqr_intermediates.tolist() == table.tolist()

    def test_numpy_ids_past_63_route_as_python_ints(self):
        cg = build_controlled(generate_inter_qnet(GenConfig(2, (40, 40), 0.05, 3)))
        want = cqr_batch(cg, [(0, 71)])
        assert cqr_batch(cg, [(np.int64(0), np.int64(71))]) == want
        assert want[0][0].hops == 3


class TestHopRule:
    """A remote request routes in two hops through a common neighbour, or
    else in three through the control clique: its hop count is
    ``2 + (N(s) & N(d) == 0)``, whichever of the data or the controlled
    network gives the neighbourhoods."""

    @settings(max_examples=200, deadline=None)
    @given(controlled_networks())
    def test_remote_hops_are_two_plus_no_common_neighbour(self, cg):
        # k = 3 is drawn too, whose padding control touches no data vertex
        data, adj = cg.data.graph.adjacency, cg.graph.adjacency
        m = cg.partition.membership
        remote = [
            (s, d)
            for s, d in itertools.permutations(range(cg.data_count), 2)
            if m[s] != m[d] and not data[s] >> d & 1
        ]
        hops, _ = cqr_batch(cg, remote)
        for (s, d), path in zip(remote, hops):
            assert path.hops == 2 + (adj[s] & adj[d] == 0) == 2 + (data[s] & data[d] == 0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 25), min_size=2, max_size=2),
        st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]),
        st.integers(0, 2**32),
        st.integers(0, 2**32),
    )
    def test_two_domains_always_take_three_hops(self, sizes, p, gen_seed, req_seed):
        # a common neighbour of s in QNet 1 and d in QNet 2 would lie in a third
        iq = generate_inter_qnet(GenConfig(2, sizes, p, gen_seed))
        eligible = complement_inter_qnet(iq).graph.edge_count
        if not eligible:
            return
        rs = sample_requests(iq, min(eligible, 50), req_seed)
        paths, chi = cqr_batch(build_controlled(iq), rs)
        assert {p.hops for p in paths} == {3} and chi == 2 * len(rs)

    def test_mean_field_hbar_on_the_eval_grid(self):
        # Mean field: fold the spanning tree into one edge probability
        # p_eff = p + (1 - p)(n - 1)/|cross pairs|.  A request between QNets
        # A and B has no common neighbour, so takes three hops, with chance
        # q = (1 - p_eff^2)^(n - |A| - |B|), and h_bar = 2 + q.
        cfg = ExperimentConfig.from_json(EVAL_CONFIG)
        cfg = dataclasses.replace(cfg, repetitions=20, jobs=1)
        measured = {}
        for res in run_experiment(cfg):
            for v in res.volumes:
                if not v.skipped and v.volume:
                    h_bar = (v.volume + v.chi) / v.volume
                    measured.setdefault((res.k, res.p, v.volume), []).append(h_bar)
        assert len(measured) == 32
        for (k, p, volume), h_bars in measured.items():
            sizes, n = even_sizes(cfg.nodes, k), cfg.nodes
            between = [(a * b, n - a - b) for a, b in itertools.combinations(sizes, 2)]
            cross = sum(w for w, _ in between)
            p_eff = p + (1 - p) * (n - 1) / cross
            q = sum(w * (1 - p_eff**2) ** rest for w, rest in between) / cross
            # 20 networks leave a standard error of at most 0.018 hops on a
            # row (k=4, p=0.2, volume 50); 0.05 is about three of those, and
            # a quarter of the 0.2-hop spread between the p=0.2 and p=0.8 rows
            assert abs(sum(h_bars) / len(h_bars) - (2 + q)) < 0.05, (k, p, volume)
