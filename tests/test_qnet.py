"""Controlled networks: construction, complementation, restoration,
instance files."""

import copy
import itertools
import pickle
import random
import re
from functools import cached_property
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import complement_edges, edge_list_controlled, random_network

from mecnet.experiments import derive_seed, even_sizes, run_instance
from mecnet.graph import Graph, MeasurementRecord
from mecnet.netgen import GenConfig, generate_inter_qnet
from mecnet.qnet import (
    ControlledInterQNet,
    InterQNet,
    QNetPartition,
    build_controlled,
    complement_inter_qnet,
    instance_from_text,
    instance_to_text,
    mec_complementation,
    restore_original,
)


def butterfly():
    """Two domains of two vertices with crossed links."""
    return InterQNet(Graph(4, [(0, 3), (1, 2)]), QNetPartition(2, (1, 1, 2, 2)))


def intermediate_contract(cg, d):
    """Literal edge-set construction for the state after measuring the
    first d controls (d even): remaining controls form a clique, domains
    already processed hang off every remaining control, untouched domains
    keep their own control, and links among processed domains are
    complemented while all other links stay original."""
    part = cg.partition
    orig = cg.data.graph
    n_d = part.data_count
    controls = part.control_nodes
    rem = controls[d:]
    edges = list(itertools.combinations(rem, 2))
    for v in range(n_d):
        a = part.membership[v]
        if a <= d:
            edges.extend((v, c) for c in rem)
        elif a <= part.k:
            edges.append((v, controls[a - 1]))
    for u in range(n_d):
        for v in range(u + 1, n_d):
            au, av = part.membership[u], part.membership[v]
            if au == av:
                continue
            if max(au, av) <= d:
                if not orig.has_edge(u, v):
                    edges.append((u, v))
            elif orig.has_edge(u, v):
                edges.append((u, v))
    g = Graph(cg.graph.vertex_count, edges)
    for c in controls[:d]:
        g, _ = g.measure_z(c)
    return g


@st.composite
def partitioned_graphs(draw):
    """A partition of at most 12 vertices into QNets, members in any order,
    and any graph on those vertices, links inside a QNet included."""
    k = draw(st.integers(1, 4))
    extra = draw(st.lists(st.integers(1, k), max_size=12 - k))
    membership = tuple(draw(st.permutations(list(range(1, k + 1)) + extra)))
    pairs = list(itertools.combinations(range(len(membership)), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(len(membership), edges), QNetPartition(k, membership)


@st.composite
def partitions(draw):
    """A partition of at most 20 vertices into k QNets, k odd or even, with
    single-vertex QNets as likely as larger ones."""
    k = draw(st.integers(1, 9))
    extra = draw(st.lists(st.integers(1, k), max_size=20 - k))
    return QNetPartition(k, tuple(draw(st.permutations(list(range(1, k + 1)) + extra))))


def cross_domain(g, part):
    """``g`` without its links inside a QNet, as an InterQNet."""
    m = part.membership
    return InterQNet(Graph(g.vertex_count, [(u, v) for u, v in g.edges() if m[u] != m[v]]), part)


class TestPartition:
    def test_control_count_parity(self):
        assert QNetPartition(2, (1, 2)).k_prime == 2
        assert QNetPartition(3, (1, 2, 3)).k_prime == 4

    def test_empty_qnet_rejected(self):
        with pytest.raises(ValueError, match="^QNet 3 is empty$"):
            QNetPartition(3, (1, 1, 2))

    @pytest.mark.parametrize(
        "k, membership, message",
        [
            (0, (), "need at least one QNet"),
            # QNet 3 is empty too, but the range is checked first
            (3, (1, 4, 2), "membership values must lie in 1..k"),
            (3, (0, 1, 2), "membership values must lie in 1..k"),
            (4, (2, 4, 1, 4), "QNet 3 is empty"),
            (1, (), "QNet 1 is empty"),
            # more QNets than vertices: named without building k masks
            (10**12, (2, 1), "QNet 3 is empty"),
            (10**12, (1, 3, 3), "QNet 2 is empty"),
        ],
        ids=["k_0", "value_above_k", "value_0", "third_empty", "no_vertex", "k_1e12_third_empty", "k_1e12_second_empty"],
    )
    def test_refusal_is_named(self, k, membership, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QNetPartition(k, membership)

    @settings(max_examples=300, deadline=None)
    @given(partitions())
    def test_masks_hold_the_membership(self, part):
        masks, m = part.masks, part.membership
        assert len(masks) == part.k
        assert all(a & b == 0 for a, b in itertools.combinations(masks, 2))
        assert sum(masks) == (1 << len(m)) - 1
        for v, a in enumerate(m):
            assert [mask >> v & 1 for mask in masks] == [int(b == a) for b in range(1, part.k + 1)]

    def test_masks_are_built_once_per_partition(self, monkeypatch):
        seen = []
        build = QNetPartition.__dict__["masks"].func

        def counted(self):
            seen.append(self)
            return build(self)

        prop = cached_property(counted)
        prop.__set_name__(QNetPartition, "masks")
        monkeypatch.setattr(QNetPartition, "masks", prop)
        iq = generate_inter_qnet(GenConfig(4, even_sizes(20, 4), 0.5, 3))
        run_instance(iq, (4, 6), 5, 0.5, 0)
        instance_to_text(iq)
        assert len(seen) == 1 and seen[0] is iq.partition
        assert len(pickle.loads(pickle.dumps(iq.partition)).masks) == 4


class TestBuildControlled:
    def test_two_singletons(self):
        iq = InterQNet(Graph(2, [(0, 1)]), QNetPartition(2, (1, 2)))
        cg = build_controlled(iq)
        assert cg.graph.vertex_count == 4
        assert sorted(cg.graph.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_odd_k_pads_control_clique(self):
        iq = InterQNet(Graph(3, [(0, 1), (1, 2), (0, 2)]), QNetPartition(3, (1, 2, 3)))
        cg = build_controlled(iq)
        pad = cg.partition.control_nodes[-1]
        assert cg.partition.k_prime == 4
        assert cg.graph.neighbors(pad) == set(cg.partition.control_nodes) - {pad}

    def test_fig_four_shape(self):
        # 4 domains sized 3,2,2,2: 9 data vertices, 4 controls, a 6-edge
        # control clique and one star per domain
        membership = (1, 1, 1, 2, 2, 3, 3, 4, 4)
        iq = random_network(4, [3, 2, 2, 2], 0.5, random.Random(0))
        cg = build_controlled(iq)
        assert cg.partition.membership == membership
        assert cg.graph.vertex_count == 13
        controls = cg.partition.control_nodes
        clique = [
            (u, v) for u, v in itertools.combinations(controls, 2)
        ]
        assert all(cg.graph.has_edge(u, v) for u, v in clique) and len(clique) == 6
        for v, a in enumerate(membership):
            assert cg.graph.has_edge(v, controls[a - 1])

    @settings(max_examples=300, deadline=None)
    @given(partitioned_graphs())
    def test_matches_edge_list_construction(self, case):
        iq = cross_domain(*case)
        cg = ControlledInterQNet(iq)
        d, kp = iq.partition.data_count, iq.partition.k_prime
        assert cg.graph == edge_list_controlled(iq)
        assert cg.partition is iq.partition
        assert cg.partition.control_nodes == tuple(range(d, d + kp))
        assert cg.data is iq and build_controlled(iq) == cg


def edge_scan_cross_domain_error(graph, part):
    """The cross-domain check as first written: the first edge of the edge
    list that stays inside one QNet."""
    m = part.membership
    for u, v in graph.edges():
        if m[u] == m[v]:
            return f"edge ({u},{v}) stays inside QNet {m[u]}"
    return None


class TestCrossDomainCheck:
    @pytest.mark.parametrize(
        "k, membership, edges, message",
        [
            (2, (1, 1, 2, 2), [(0, 3), (1, 2), (2, 3)], "edge (2,3) stays inside QNet 2"),
            (3, (3, 1, 2, 3, 1), [(0, 1), (1, 4), (0, 3)], "edge (0,3) stays inside QNet 3"),
        ],
        ids=["even_k", "odd_k"],
    )
    def test_first_inner_edge_is_named(self, k, membership, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            InterQNet(Graph(len(membership), edges), QNetPartition(k, membership))

    @settings(max_examples=300, deadline=None)
    @given(partitioned_graphs())
    def test_matches_edge_scan(self, case):
        g, part = case
        want = edge_scan_cross_domain_error(g, part)
        # the file text of the graph, links inside a QNet included; the
        # reader checks it
        text = instance_to_text(SimpleNamespace(graph=g, partition=part))
        for build in (lambda: InterQNet(g, part), lambda: instance_from_text(text)):
            if want is None:
                build()
                continue
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == want


def counted_property(name, seen):
    """``InterQNet``'s cached property ``name``, appending the network to
    ``seen`` each time it is built."""
    build = InterQNet.__dict__[name].func

    def counted(self):
        seen.append(self)
        return build(self)

    prop = cached_property(counted)
    prop.__set_name__(InterQNet, name)
    return prop


class TestComplement:
    @settings(max_examples=300, deadline=None)
    @given(partitioned_graphs())
    def test_matches_edge_list_construction(self, case):
        g, part = case
        iq = cross_domain(g, part)
        want = Graph(g.vertex_count, complement_edges(iq))
        got = complement_inter_qnet(iq)
        assert got.graph == want and got.partition == part
        assert got.graph.connected() == want.connected()

    def test_complete_bipartite_empties(self):
        iq = InterQNet(Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), QNetPartition(2, (1, 1, 2, 2)))
        assert complement_inter_qnet(iq).graph.edges() == []

    def test_butterfly_switches_pairs(self):
        got = complement_inter_qnet(butterfly())
        assert sorted(got.graph.edges()) == [(0, 2), (1, 3)]

    def test_involution(self):
        rnd = random.Random(21)
        for _ in range(100):
            k = rnd.choice([2, 3, 4])
            iq = random_network(k, [rnd.randint(1, 4) for _ in range(k)], 0.5, rnd)
            assert complement_inter_qnet(complement_inter_qnet(iq)).graph == iq.graph

    def test_disconnected_permitted_and_flagged(self):
        iq = InterQNet(Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), QNetPartition(2, (1, 1, 2, 2)))
        comp = complement_inter_qnet(iq)
        assert comp.graph.connected() is False

    def test_built_once_per_network(self):
        iq = random_network(3, [3, 3, 2], 0.4, random.Random(23))
        comp = complement_inter_qnet(iq)
        assert complement_inter_qnet(iq) is comp
        assert complement_inter_qnet(build_controlled(iq).data) is comp
        assert comp.edge_arrays is comp.edge_arrays
        assert not any(a.flags.writeable for a in comp.edge_arrays)
        assert comp.adjacency_matrix is comp.adjacency_matrix
        assert not comp.adjacency_matrix.flags.writeable
        n = comp.graph.vertex_count
        assert comp.adjacency_matrix.tolist() == [[comp.graph.has_edge(u, v) for v in range(n)] for u in range(n)]

    @pytest.mark.parametrize(
        "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_networks_round_trip_without_the_cached_complement(self, clone):
        iq = random_network(3, [3, 3, 2], 0.4, random.Random(24))
        comp = complement_inter_qnet(iq)  # cached on iq before the copy
        cg = build_controlled(iq)
        got, got_cg = clone(iq), clone(cg)
        assert got == iq and got_cg == cg
        assert got_cg.graph == cg.graph and got_cg.partition == cg.partition
        for net in (got, got_cg.data):
            again = complement_inter_qnet(net)
            assert again == comp and again is not comp
            assert [a.tolist() for a in again.edge_arrays] == [a.tolist() for a in comp.edge_arrays]
            assert not any(a.flags.writeable for a in again.edge_arrays)
            assert not again.adjacency_matrix.flags.writeable

    def test_one_build_for_a_run_of_four_volumes(self, monkeypatch):
        # the hop table reads the data network's own matrix, after the pool
        builds = {"_complement": [], "edge_arrays": [], "adjacency_matrix": [], "_cqr_intermediates": []}
        for name, seen in builds.items():
            monkeypatch.setattr(InterQNet, name, counted_property(name, seen))
        iq = generate_inter_qnet(GenConfig(4, even_sizes(50, 4), 0.2, derive_seed(1, 4, 200000, 0)))
        res = run_instance(iq, (50, 100, 150, 200), derive_seed(2), 0.2, 0)
        assert not any(v.skipped for v in res.volumes)
        comp = complement_inter_qnet(iq)
        assert builds == {
            "_complement": [iq],
            "edge_arrays": [comp],
            "adjacency_matrix": [comp, iq],
            "_cqr_intermediates": [iq],
        }

    def test_intra_domain_pairs_stay_absent(self):
        rnd = random.Random(22)
        iq = random_network(3, [3, 3, 2], 0.4, rnd)
        comp = complement_inter_qnet(iq)
        m = iq.partition.membership
        for u, v in comp.graph.edges():
            assert m[u] != m[v]


class TestMecComplementation:
    def test_butterfly(self):
        cg = build_controlled(butterfly())
        got, records = mec_complementation(cg)
        assert sorted(got.graph.edges()) == [(0, 2), (1, 3)]

    def test_special_neighbor_is_the_lowest_vertex_of_qnet_1(self):
        # k odd, so the control layer has a parity control; one X record per
        # control, in order, each with k0
        cg = build_controlled(random_network(3, [3, 2, 2], 0.5, random.Random(21)))
        k0 = cg.partition.membership.index(1)
        _, records = mec_complementation(cg)
        assert records == [MeasurementRecord(c, k0) for c in cg.partition.control_nodes]

    def test_even_step_intermediates_match_contract(self):
        rnd = random.Random(24)
        for _ in range(150):
            k = rnd.choice([2, 3, 4])
            iq = random_network(k, [rnd.randint(1, 3) for _ in range(k)], rnd.choice([0.2, 0.5, 0.8]), rnd)
            cg = build_controlled(iq)
            g = cg.graph
            k0 = cg.partition.membership.index(1)
            for step, c in enumerate(cg.partition.control_nodes, start=1):
                g, _ = g.measure_x(c, k0)
                if step % 2 == 0:
                    assert g == intermediate_contract(cg, step)


class TestRestore:
    def test_roundtrip_randomized(self):
        rnd = random.Random(25)
        for _ in range(100):
            k = rnd.choice([2, 3, 4])
            iq = random_network(k, [rnd.randint(1, 4) for _ in range(k)], 0.5, rnd)
            assert restore_original(build_controlled(iq)).graph == iq.graph

    def test_fig_four_roundtrip(self):
        iq = random_network(4, [3, 2, 2, 2], 0.6, random.Random(26))
        assert restore_original(build_controlled(iq)).graph == iq.graph


class TestInstanceFiles:
    def test_roundtrip_plain(self):
        iq = random_network(3, [2, 2, 2], 0.5, random.Random(27))
        back = instance_from_text(instance_to_text(iq))
        assert isinstance(back, InterQNet)
        assert back.graph == iq.graph and back.partition == iq.partition

    def test_format_sections(self):
        iq = InterQNet(Graph(3, [(0, 1), (1, 2)]), QNetPartition(2, (1, 2, 1)))
        assert instance_to_text(iq) == "n=3\n0 1\n1 2\nqnet 1: 0,2\nqnet 2: 1\n"

    def test_control_line_given_twice(self):
        with pytest.raises(ValueError, match="^malformed line: 'control: 2,3'$"):
            instance_from_text("n=4\n0 1\n0 2\n1 3\n2 3\nqnet 1: 0\nqnet 2: 1\ncontrol: 2,3\ncontrol: 2,3\n")

    def test_bad_qnet_ids(self):
        with pytest.raises(ValueError, match=r"^malformed instance: QNet 1 has no data vertex \(ids run 1..3\)$"):
            instance_from_text("n=2\n0 1\nqnet 2: 0\nqnet 3: 1\n")

    @pytest.mark.parametrize(
        "qnets, missing, k",
        [("qnet 1: 0\nqnet 3: 1", 2, 3), ("qnet 1: 0,1\nqnet 2:", 2, 2)],
        ids=["gap", "no-member"],
    )
    def test_qnet_id_gap_is_named(self, qnets, missing, k):
        msg = f"^malformed instance: QNet {missing} has no data vertex \\(ids run 1..{k}\\)$"
        with pytest.raises(ValueError, match=msg):
            instance_from_text(f"n=2\n0 1\n{qnets}\n")

    @pytest.mark.parametrize("bad", ["qnet 0: 0", "qnet -1: 0"])
    def test_qnet_id_below_one_is_named(self, bad):
        with pytest.raises(ValueError, match=f"^malformed line: '{bad}': QNet ids start at 1$"):
            instance_from_text(f"n=2\n0 1\n{bad}\nqnet 1: 1\n")

    @pytest.mark.parametrize("bad, reason", [("0 0", "self-loop at 0"), ("0 5", "edge (0,5) outside 0..2")])
    def test_edge_line_the_graph_refuses_is_named(self, bad, reason):
        with pytest.raises(ValueError, match="^" + re.escape(f"malformed line: '{bad}': {reason}") + "$"):
            instance_from_text(f"n=3\n{bad}\nqnet 1: 0\nqnet 2: 1,2\n")

    @pytest.mark.parametrize(
        "bad",
        [
            "qnet: 0,1",  # no QNet id
            "qnet x: 0",  # non-integer QNet id
            "qnet 1 2: 0",  # two QNet ids
            "qnet 1 0",  # no colon
            "qnet 1: 1",  # QNet listed twice
            "qnet 1: 0,y",  # non-integer vertex id
            "control: 2,z",  # a control line, which no instance file holds
            "0",  # short edge line
            "0 x",  # non-integer edge endpoint
        ],
    )
    def test_malformed_line_is_named(self, bad):
        text = f"n=2\n0 1\nqnet 1: 0\nqnet 2: 1\n{bad}\n"
        with pytest.raises(ValueError, match=f"^malformed line: '{bad}'$"):
            instance_from_text(text)

    def test_vertex_in_two_qnets(self):
        with pytest.raises(ValueError, match="'qnet 2: 0,1': vertex 0 is already in QNet 1"):
            instance_from_text("n=2\n0 1\nqnet 1: 0\nqnet 2: 0,1\n")

    def test_vertex_in_no_qnet(self):
        with pytest.raises(ValueError, match="data vertex 1 is in no QNet"):
            instance_from_text("n=3\n0 2\nqnet 1: 0\nqnet 2: 2\n")
        # the top vertex of the header, in no edge and no QNet line
        with pytest.raises(ValueError, match="^malformed instance: data vertex 2 is in no QNet$"):
            instance_from_text("n=3\n0 1\nqnet 1: 0\nqnet 2: 1\n")

    @pytest.mark.parametrize(
        "n, bad, v",
        [(3, "qnet 2: 1,7", 7), (2, "qnet 2: -1,1", -1), (2, "qnet 2: 1,2", 2)],
    )
    def test_member_outside_the_header_is_named(self, n, bad, v):
        text = f"n={n}\n0 1\nqnet 1: 0\n{bad}\n"
        with pytest.raises(ValueError, match=f"^malformed line: '{bad}': vertex {v} is not a data vertex \\(n={n}\\)$"):
            instance_from_text(text)

    def test_header_must_come_before_the_edges(self):
        with pytest.raises(ValueError, match="header before '0 1'"):
            instance_from_text("0 1\nn=2\nqnet 1: 0\nqnet 2: 1\n")

