"""Controlled networks: construction, complementation, restoration,
EPR extraction, instance files."""

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecnet.graph import Graph, graph_to_edgelist
from mecnet.pairs import ParallelPairViolation, check_parallel_pairable
from mecnet.qnet import (
    ControlledInterQNet,
    InterQNet,
    QNetPartition,
    build_controlled,
    complement_inter_qnet,
    extract_epr,
    instance_from_text,
    instance_to_text,
    mec_complementation,
    restore_original,
)
from mecnet import verify
from mecnet.verify import random_inter_qnet


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
        g = g.delete_vertex(c)
    return g


def edge_list_controlled(iq):
    """The controlled graph as first built, edge by edge: the data links,
    then the control clique, then control a joined to each member of QNet a."""
    part = iq.partition
    d = part.data_count
    kp = part.k_prime
    controls = tuple(range(d, d + kp))
    edges = iq.graph.edges()
    for i in range(kp):
        for j in range(i + 1, kp):
            edges.append((controls[i], controls[j]))
    for a in range(1, part.k + 1):
        for v in part.members(a):
            edges.append((v, controls[a - 1]))
    return Graph(d + kp, edges)


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


def cross_domain(g, part):
    """``g`` without its links inside a QNet, as an InterQNet."""
    m = part.membership
    return InterQNet(Graph(g.vertex_count, [(u, v) for u, v in g.edges() if m[u] != m[v]]), part)


class TestPartition:
    def test_control_count_parity(self):
        assert QNetPartition(2, (1, 2)).k_prime == 2
        assert QNetPartition(3, (1, 2, 3)).k_prime == 4

    def test_empty_qnet_rejected(self):
        with pytest.raises(ValueError):
            QNetPartition(3, (1, 1, 2))

    def test_wrong_control_count(self):
        with pytest.raises(ValueError):
            QNetPartition(3, (1, 2, 3), (10, 11, 12))


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
        iq = random_inter_qnet(4, [3, 2, 2, 2], 0.5, random.Random(0))
        cg = build_controlled(iq)
        assert cg.partition.membership == membership
        assert cg.graph.vertex_count == 13
        controls = cg.partition.control_nodes
        clique = [
            (u, v) for u, v in itertools.combinations(controls, 2)
        ]
        assert all(cg.graph.has_edge(u, v) for u, v in clique) and len(clique) == 6
        for a, c in enumerate(controls, start=1):
            for v in cg.partition.members(a):
                assert cg.graph.has_edge(v, c)

    def test_validation_rejects_broken_control(self):
        iq = InterQNet(Graph(2, [(0, 1)]), QNetPartition(2, (1, 2)))
        cg = build_controlled(iq)
        bad = Graph(4, cg.graph.delete_vertex(3).edges())
        text = instance_to_text(cg).replace(graph_to_edgelist(cg.graph), graph_to_edgelist(bad))
        with pytest.raises(ValueError, match="vertex 1 lacks or adds a control link"):
            instance_from_text(text)

    @settings(max_examples=300, deadline=None)
    @given(partitioned_graphs())
    def test_matches_edge_list_construction(self, case):
        iq = cross_domain(*case)
        cg = ControlledInterQNet(iq)
        d, kp = iq.partition.data_count, iq.partition.k_prime
        assert cg.graph == edge_list_controlled(iq)
        assert cg.partition.control_nodes == tuple(range(d, d + kp))
        assert cg.partition.membership == iq.partition.membership
        assert cg.data is iq and build_controlled(iq) == cg


def edge_scan_cross_domain_error(graph, part):
    """The cross-domain check as first written: the first edge of the edge
    list that stays inside one QNet."""
    m = part.membership
    for u, v in graph.edges():
        if u < part.data_count and v < part.data_count and m[u] == m[v]:
            return f"edge ({u},{v}) stays inside QNet {m[u]}"
    return None


class TestCrossDomainCheck:
    @settings(max_examples=300, deadline=None)
    @given(partitioned_graphs())
    def test_matches_edge_scan(self, case):
        g, part = case
        d = part.data_count
        controls = tuple(range(d, d + part.k_prime))
        control_edges = list(itertools.combinations(controls, 2))
        control_edges += [(v, controls[a - 1]) for v, a in enumerate(part.membership)]
        controlled = Graph(d + part.k_prime, g.edges() + control_edges)
        want = edge_scan_cross_domain_error(g, part)
        assert edge_scan_cross_domain_error(controlled, part) == want
        # the file text of the controlled graph; the reader checks it
        text = instance_to_text(SimpleNamespace(
            graph=controlled, partition=QNetPartition(part.k, part.membership, controls)
        ))
        for build in (lambda: InterQNet(g, part), lambda: instance_from_text(text)):
            if want is None:
                build()
                continue
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == want


class TestComplement:
    @settings(max_examples=300, deadline=None)
    @given(partitioned_graphs())
    def test_matches_edge_list_construction(self, case):
        g, part = case
        m = part.membership
        n = g.vertex_count
        iq = cross_domain(g, part)
        want = Graph(n, [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if m[u] != m[v] and not iq.graph.has_edge(u, v)
        ])
        got = complement_inter_qnet(iq)
        assert got.graph == want and got.partition == part
        assert got.connected == want.connected()

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
            iq = random_inter_qnet(k, [rnd.randint(1, 4) for _ in range(k)], 0.5, rnd)
            assert complement_inter_qnet(complement_inter_qnet(iq)).graph == iq.graph

    def test_disconnected_permitted_and_flagged(self):
        iq = InterQNet(Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), QNetPartition(2, (1, 1, 2, 2)))
        comp = complement_inter_qnet(iq)
        assert comp.connected is False

    def test_intra_domain_pairs_stay_absent(self):
        rnd = random.Random(22)
        iq = random_inter_qnet(3, [3, 3, 2], 0.4, rnd)
        comp = complement_inter_qnet(iq)
        m = iq.partition.membership
        for u, v in comp.graph.edges():
            assert m[u] != m[v]


class TestMecComplementation:
    def test_butterfly(self):
        cg = build_controlled(butterfly())
        got, records = mec_complementation(cg)
        assert sorted(got.graph.edges()) == [(0, 2), (1, 3)]
        assert [r.vertex for r in records] == list(cg.partition.control_nodes)
        assert all(r.basis == "X" for r in records)

    def test_k0_policy_records_special_neighbor(self):
        cg = build_controlled(butterfly())
        _, records = mec_complementation(cg)
        assert all(r.special_neighbor == 0 for r in records)

    def test_matches_complement_randomized(self):
        rnd = random.Random(23)
        for _ in range(300):
            k = rnd.choice([2, 3, 4])
            iq = random_inter_qnet(k, [rnd.randint(1, 4) for _ in range(k)], rnd.choice([0.2, 0.8]), rnd)
            got, _ = mec_complementation(build_controlled(iq))
            assert got.graph == complement_inter_qnet(iq).graph

    def test_even_step_intermediates_match_contract(self):
        rnd = random.Random(24)
        for _ in range(150):
            k = rnd.choice([2, 3, 4])
            iq = random_inter_qnet(k, [rnd.randint(1, 3) for _ in range(k)], rnd.choice([0.2, 0.5, 0.8]), rnd)
            cg = build_controlled(iq)
            g = cg.graph
            k0 = min(cg.partition.members(1))
            for step, c in enumerate(cg.partition.control_nodes, start=1):
                g, _ = g.measure_x(c, k0)
                if step % 2 == 0:
                    assert g == intermediate_contract(cg, step)


class TestRestore:
    def test_roundtrip_randomized(self):
        rnd = random.Random(25)
        for _ in range(100):
            k = rnd.choice([2, 3, 4])
            iq = random_inter_qnet(k, [rnd.randint(1, 4) for _ in range(k)], 0.5, rnd)
            assert restore_original(build_controlled(iq)).graph == iq.graph

    def test_fig_four_roundtrip(self):
        iq = random_inter_qnet(4, [3, 2, 2, 2], 0.6, random.Random(26))
        assert restore_original(build_controlled(iq)).graph == iq.graph


class TestExtractEpr:
    def test_single_edge(self):
        comp = complement_inter_qnet(butterfly())
        g, _ = extract_epr(comp, [(0, 2)])
        assert g.edges() == [(0, 2)] and g.vertices() == [0, 2]

    def test_two_compatible_edges(self):
        comp = complement_inter_qnet(butterfly())
        g, recs = extract_epr(comp, [(0, 2), (1, 3)])
        assert sorted(g.edges()) == [(0, 2), (1, 3)]
        assert recs == []  # all four vertices are endpoints

    def test_neighborhood_violation_leaves_residue(self):
        # path a-b-c-d: measuring nothing still leaves the b-c link between
        # the two requested pairs, showing why the exclusion rule exists
        iq = InterQNet(
            Graph(4, [(0, 1), (1, 2), (2, 3)]),
            QNetPartition(2, (1, 2, 1, 2)),
        )
        with pytest.raises(ParallelPairViolation) as err:
            extract_epr(iq, [(0, 1), (2, 3)])
        assert err.value.extra_edges == ((1, 2),)

    def test_shared_endpoint_rejected(self):
        # two requests meeting at vertex 1 would leave the 3-vertex path,
        # which is not two EPR pairs
        iq = InterQNet(Graph(3, [(0, 1), (1, 2)]), QNetPartition(2, (1, 2, 1)))
        assert not check_parallel_pairable(iq.graph, [(0, 1), (1, 2)])
        with pytest.raises(ParallelPairViolation, match="share an endpoint"):
            extract_epr(iq, [(0, 1), (1, 2)])

    def test_agrees_with_pairable_check_randomized(self):
        rnd = random.Random(29)
        for _ in range(200):
            k = rnd.choice([2, 3, 4])
            iq = random_inter_qnet(k, [rnd.randint(1, 4) for _ in range(k)], 0.5, rnd)
            edges = iq.graph.edges()
            if not edges:
                continue
            group = rnd.sample(edges, k=min(len(edges), rnd.randint(1, 3)))
            try:
                g, recs = extract_epr(iq, group)
            except ParallelPairViolation:
                assert not check_parallel_pairable(iq.graph, group)
                continue
            assert check_parallel_pairable(iq.graph, group)
            want = iq.graph
            for v in range(want.vertex_count):
                if not any(v in e for e in group):
                    want, _ = want.measure_z(v)
            assert g == want
            measured = [v for v in range(g.vertex_count) if not g.is_alive(v)]
            assert [(r.vertex, r.basis) for r in recs] == [(v, "Z") for v in measured]

    def test_checked_mode_rejects_upfront(self):
        iq = InterQNet(
            Graph(4, [(0, 1), (1, 2), (2, 3)]),
            QNetPartition(2, (1, 2, 1, 2)),
        )
        with pytest.raises(ParallelPairViolation):
            extract_epr(iq, [(0, 1), (2, 3)])

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            extract_epr(butterfly(), [(0, 2)])


class TestInstanceFiles:
    def test_roundtrip_plain(self):
        iq = random_inter_qnet(3, [2, 2, 2], 0.5, random.Random(27))
        back = instance_from_text(instance_to_text(iq))
        assert isinstance(back, InterQNet)
        assert back.graph == iq.graph and back.partition == iq.partition

    def test_roundtrip_controlled(self):
        cg = build_controlled(random_inter_qnet(3, [2, 1, 2], 0.5, random.Random(28)))
        back = instance_from_text(instance_to_text(cg))
        assert isinstance(back, ControlledInterQNet)
        assert back.graph == cg.graph and back.partition == cg.partition

    def test_format_sections(self):
        iq = InterQNet(Graph(2, [(0, 1)]), QNetPartition(2, (1, 2)))
        text = instance_to_text(build_controlled(iq))
        assert text == "n=4\n0 1\n0 2\n1 3\n2 3\nqnet 1: 0\nqnet 2: 1\ncontrol: 2,3\n"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("1 3\n", "", "vertex 1 lacks or adds a control link"),  # missing control edge
            ("0 2\n", "0 2\n0 3\n", "vertex 0 lacks or adds a control link"),  # extra data-control edge
            ("control: 2,3", "control: 3,2", r"control ids \(3, 2\), expected \(2, 3\)"),
            ("control: 2,3", "control: 2,2", r"control ids \(2, 2\), expected \(2, 3\)"),
            ("control: 2,3", "control: 2,3,4", r"control ids \(2, 3, 4\), expected \(2, 3\)"),
            ("control: 2,3", "control: 2", r"control ids \(2,\), expected \(2, 3\)"),
            ("n=4", "n=5", "5 vertices, expected 4"),
        ],
    )
    def test_controlled_file_must_hold_the_built_control_layer(self, old, new, message):
        iq = InterQNet(Graph(2, [(0, 1)]), QNetPartition(2, (1, 2)))
        text = instance_to_text(build_controlled(iq))
        assert old in text
        with pytest.raises(ValueError, match=f"^malformed instance: {message}$"):
            instance_from_text(text.replace(old, new))

    def test_padding_control_takes_no_data_vertex(self):
        iq = InterQNet(Graph(3, [(0, 1), (1, 2)]), QNetPartition(3, (1, 2, 3)))
        text = instance_to_text(build_controlled(iq))
        assert "control: 3,4,5,6\n" in text
        with pytest.raises(ValueError, match="vertex 0 lacks or adds a control link"):
            instance_from_text(text.replace("n=7\n", "n=7\n0 6\n"))

    def test_control_line_given_twice(self):
        with pytest.raises(ValueError, match="^malformed line: 'control: 2,3'$"):
            instance_from_text("n=4\n0 1\n0 2\n1 3\n2 3\nqnet 1: 0\nqnet 2: 1\ncontrol: 2,3\ncontrol: 2,3\n")

    def test_bad_qnet_ids(self):
        with pytest.raises(ValueError):
            instance_from_text("n=2\n0 1\nqnet 2: 0\nqnet 3: 1\n")

    @pytest.mark.parametrize(
        "bad",
        [
            "qnet: 0,1",  # no QNet id
            "qnet x: 0",  # non-integer QNet id
            "qnet 1 2: 0",  # two QNet ids
            "qnet 1 0",  # no colon
            "qnet 1: 1",  # QNet listed twice
            "qnet 1: 0,y",  # non-integer vertex id
            "control: 2,z",  # non-integer control id
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

    def test_header_must_come_before_the_edges(self):
        with pytest.raises(ValueError, match="header before '0 1'"):
            instance_from_text("0 1\nn=2\nqnet 1: 0\nqnet 2: 1\n")


class TestRandomInterQNet:
    @pytest.fixture
    def no_sampling(self, monkeypatch):
        """Make the first draw of the sampling loop fail, so a missing guard
        fails the test instead of looping forever."""

        def sampled(*args):
            raise AssertionError("entered the sampling loop")

        monkeypatch.setattr(verify, "Graph", sampled)

    def test_one_qnet_rejected(self, no_sampling):
        with pytest.raises(ValueError, match="no connected cross-domain graph"):
            random_inter_qnet(1, [2], 0.5, random.Random(0))

    def test_zero_density_rejected(self, no_sampling):
        with pytest.raises(ValueError, match="no connected cross-domain graph"):
            random_inter_qnet(2, [2, 2], 0.0, random.Random(0))

    def test_single_vertex_accepted(self):
        iq = random_inter_qnet(1, [1], 0.0, random.Random(0))
        assert iq.graph.vertex_count == 1 and iq.connected
