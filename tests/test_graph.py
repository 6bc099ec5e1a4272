"""Graph rewrite rules: complement, local complementation, deletion by the
Z rule, measurement rules, serialization."""

import copy
import itertools
import pickle
import random
import re

import networkx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import local_complement

from mecnet.graph import (
    MAX_VERTICES,
    Graph,
    MeasurementRecord,
    _local_complement,
    bits,
    components,
    graph_from_edgelist,
    graph_to_edgelist,
    masks_to_matrix,
    matrix_to_masks,
)


@st.composite
def graph_with_deleted_slots_and_mask(draw):
    n = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, edges)
    for v in draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []:
        g, _ = g.measure_z(v)
    # bits past the last slot must be ignored
    return g, draw(st.integers(0, (1 << (n + 2)) - 1))


def complemented(g, v):
    """``g`` after the X rule's in-place local complementation at ``v``, run
    on a copy of its masks."""
    adj = list(g.adjacency)
    _local_complement(adj, v)
    return Graph._from_parts(g.vertex_count, tuple(adj))


class TestLocalComplement:
    def test_star_gains_triangle(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        got = complemented(star, 0)
        assert got.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_path_center_to_triangle(self):
        # 3-vertex case worked out by hand from the definition
        assert complemented(Graph(3, [(0, 1), (1, 2)]), 1).edges() == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]

    def test_involution_random(self):
        rnd = random.Random(2)
        for _ in range(300):
            n = rnd.randint(2, 9)
            g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.5])
            v = rnd.randrange(n)
            assert complemented(complemented(g, v), v) == g

    @settings(max_examples=300, deadline=None)
    @given(graph_with_deleted_slots_and_mask(), st.data())
    def test_matches_the_definition(self, case, data):
        g = case[0]
        assume(g.vertex_count)
        v = data.draw(st.integers(0, g.vertex_count - 1))
        assert complemented(g, v) == local_complement(g, v)


class TestDeleteVertex:
    """The Z rule deletes the measured vertex and leaves its slot isolated."""

    def test_triangle_minus_vertex(self):
        g, _ = Graph(3, [(0, 1), (0, 2), (1, 2)]).measure_z(0)
        assert g.edges() == [(1, 2)]
        assert g.vertex_count == 3 and g.adjacency[0] == 0

    def test_k4_minus_vertex_is_k3(self):
        k4 = Graph(4, [e for e in itertools.combinations(range(4), 2)])
        assert k4.measure_z(3)[0].edges() == [(0, 1), (0, 2), (1, 2)]

    def test_ids_stay_stable(self):
        g, _ = Graph(4, [(0, 1), (1, 2), (2, 3)]).measure_z(1)
        assert g.vertex_count == 4 and g.adjacency[1] == 0
        assert g.edges() == [(2, 3)]

    @settings(max_examples=300, deadline=None)
    @given(graph_with_deleted_slots_and_mask(), st.data())
    def test_rules_at_an_isolated_vertex_change_nothing(self, case, data):
        # a deleted vertex is an isolated slot, and deleting it again, or
        # complementing its empty neighbourhood, does nothing
        g, mask = case
        g = g.keep(mask)
        isolated = [v for v, a in enumerate(g.adjacency) if not a]
        assume(isolated)
        v = data.draw(st.sampled_from(isolated))
        assert complemented(g, v) == g
        assert g.measure_z(v)[0] == g


class TestMeasureX:
    def test_single_edge(self):
        g, rec = Graph(2, [(0, 1)]).measure_x(1, 0)
        assert g == Graph(2)
        assert rec == MeasurementRecord(1, "X", 0)

    def test_star_center(self):
        # hand-run of the three-step rule on the 4-vertex star
        g, _ = Graph(4, [(0, 1), (0, 2), (0, 3)]).measure_x(0, 1)
        assert g.edges() == [(1, 2), (1, 3)]

    def test_nonadjacent_k0_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1)]).measure_x(0, 2)

    def test_isolated_vertex_or_k0_rejected(self):
        g, _ = Graph(3, [(0, 1), (1, 2)]).measure_z(0)
        for v, k0 in [(0, 1), (1, 0), (0, 2)]:
            with pytest.raises(ValueError, match=f"^k0={k0} is not adjacent to measured vertex {v}$"):
                g.measure_x(v, k0)

    def test_measured_vertex_never_survives(self):
        rnd = random.Random(3)
        for _ in range(200):
            n = rnd.randint(2, 8)
            g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.6])
            options = [(v, k) for v in range(n) for k in g.neighbors(v)]
            if not options:
                continue
            v, k0 = rnd.choice(options)
            got, _ = g.measure_x(v, k0)
            assert got.adjacency[v] == 0

    def test_untouched_region_preserved(self):
        # vertices outside N(v), N(k0) and {v} keep their mutual edges
        rnd = random.Random(4)
        for _ in range(200):
            n = rnd.randint(4, 9)
            g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.4])
            options = [(v, k) for v in range(n) for k in g.neighbors(v)]
            if not options:
                continue
            v, k0 = rnd.choice(options)
            got, _ = g.measure_x(v, k0)
            touched = g.neighbors(v) | g.neighbors(k0) | {v, k0}
            outside = [u for u in range(n) if u not in touched]
            for a, b in itertools.combinations(outside, 2):
                assert got.has_edge(a, b) == g.has_edge(a, b)

    @settings(max_examples=300, deadline=None)
    @given(graph_with_deleted_slots_and_mask(), st.data())
    def test_matches_the_literal_rule(self, case, data):
        # τ_k0, τ_v, the Z rule at v and τ_k0, each on a graph of its own
        g = case[0]
        options = [(v, k0) for v in range(g.vertex_count) for k0 in g.neighbors(v)]
        assume(options)
        v, k0 = data.draw(st.sampled_from(options))
        want = local_complement(local_complement(g, k0), v).measure_z(v)[0]
        assert g.measure_x(v, k0) == (local_complement(want, k0), MeasurementRecord(v, "X", k0))


class TestMeasureZ:
    def test_triangle(self):
        g, rec = Graph(3, [(0, 1), (0, 2), (1, 2)]).measure_z(0)
        assert g.edges() == [(1, 2)]
        assert rec.basis == "Z" and rec.special_neighbor is None

    def test_isolated(self):
        g, _ = Graph(3, [(0, 1)]).measure_z(2)
        assert g.edges() == [(0, 1)]

    def test_four_cycle_opposite(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        g, _ = c4.measure_z(0)
        g, _ = g.measure_z(2)
        assert g == Graph(4)

    def test_invalid_vertex(self):
        for v in (-1, 3):
            with pytest.raises(ValueError, match=f"^invalid vertex id {v}$"):
                Graph(3, [(0, 1)]).measure_z(v)


class TestKeep:
    def test_path_keeps_end_pair(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)]).keep(0b1001)
        assert g == Graph(4)

    def test_induced_edges_stay(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).keep(0b0111)
        assert g.edges() == [(0, 1), (1, 2)] and g.adjacency[3] == 0

    @settings(max_examples=300, deadline=None)
    @given(graph_with_deleted_slots_and_mask(), st.data())
    def test_matches_the_edges_with_both_ends_kept(self, case, data):
        # the Z rule on one vertex and on every vertex outside a mask,
        # against the edge list filtered by hand
        g, mask = case
        n = g.vertex_count
        got = g.keep(mask)
        assert Graph(n, got.edges()) == got
        assert got == Graph(n, [(u, v) for u, v in g.edges() if mask >> u & mask >> v & 1])
        if n:
            v = data.draw(st.integers(0, n - 1))
            got, rec = g.measure_z(v)
            assert got == Graph(n, [e for e in g.edges() if v not in e])
            assert rec == MeasurementRecord(v, "Z")


class TestAdjacency:
    @settings(max_examples=300, deadline=None)
    @given(graph_with_deleted_slots_and_mask())
    def test_edges_and_adjacency_agree_with_neighbor_masks(self, case):
        g, mask = case
        g = g.keep(mask)
        n = g.vertex_count
        assert g.adjacency == tuple(g.neighbor_mask(v) for v in range(n))
        pairs = itertools.combinations(range(n), 2)
        assert g.edges() == [(u, v) for u, v in pairs if g.has_edge(u, v)]


@st.composite
def masks_of_width(draw):
    """A width ``n`` (around the byte and word edges) and up to 12 masks
    below ``2**n``, some with bit ``n - 1`` set."""
    n = draw(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 200, 800]))
    count = draw(st.integers(0, 12))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=count, max_size=count))
    tops = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    top = 1 << n - 1 if n else 0
    return n, [m | top if t else m for m, t in zip(masks, tops)]


class TestMaskMatrix:
    @settings(max_examples=300, deadline=None)
    @given(masks_of_width())
    def test_round_trip(self, case):
        n, masks = case
        matrix = masks_to_matrix(masks, n)
        assert matrix.shape == (len(masks), n) and matrix.dtype == bool
        assert matrix_to_masks(matrix) == masks
        # a 0/1 integer matrix packs the same way
        assert matrix_to_masks(matrix.astype(np.int64)) == masks

    @settings(max_examples=100, deadline=None)
    @given(masks_of_width())
    def test_bit_j_of_mask_i_is_cell_i_j(self, case):
        n, masks = case
        matrix = masks_to_matrix(masks, n)
        assert matrix.tolist() == [[bool(m >> j & 1) for j in range(n)] for m in masks]

    def test_top_bit_is_the_last_column(self):
        for n in (1, 7, 8, 9, 63, 64, 65, 200, 800):
            matrix = masks_to_matrix([1 << n - 1, 1], n)
            assert matrix[0].nonzero()[0].tolist() == [n - 1]
            assert matrix[1].nonzero()[0].tolist() == [0]

    @pytest.mark.parametrize("n", [7, 8, 9, 65])
    def test_memory_layout_does_not_change_the_masks(self, n):
        rnd = np.random.default_rng(n)
        for m in (2, 63, 200):
            matrix = (rnd.random((n, m)) < 0.4).T  # an m×n transposed view
            want = [sum(1 << int(j) for j in row.nonzero()[0]) for row in matrix]
            assert not matrix.flags.c_contiguous
            assert matrix_to_masks(matrix) == want
            assert matrix_to_masks(np.asfortranarray(matrix)) == want
            assert matrix_to_masks(np.ascontiguousarray(matrix)) == want

    @pytest.mark.parametrize("n", [0, 1, 9, 64])
    def test_no_rows(self, n):
        assert matrix_to_masks(np.zeros((0, n), dtype=bool)) == []
        assert masks_to_matrix([], n).shape == (0, n)


class TestComponents:
    @settings(max_examples=300, deadline=None)
    @given(graph_with_deleted_slots_and_mask())
    def test_matches_networkx_by_lowest_vertex(self, case):
        g, mask = case
        g = g.keep(mask)
        ref = networkx.Graph()
        ref.add_nodes_from(range(g.vertex_count))
        ref.add_edges_from(g.edges())
        want = sorted(sorted(c) for c in networkx.connected_components(ref))
        adj = [g.neighbor_mask(v) for v in range(g.vertex_count)]
        assert [list(bits(c)) for c in components(adj, (1 << g.vertex_count) - 1)] == want
        assert g.connected() == (len(want) <= 1)

    def test_induced_on_mask(self):
        # a path 0-1-2 without its middle vertex splits in two
        adj = [0b010, 0b101, 0b010]
        assert components(adj, 0b101) == [0b001, 0b100]
        assert components(adj, 0b111) == [0b111]
        assert components(adj, 0) == []


class TestRecordInvariants:
    def test_x_needs_neighbor(self):
        with pytest.raises(ValueError):
            MeasurementRecord(0, "X", None)

    def test_z_takes_none(self):
        with pytest.raises(ValueError):
            MeasurementRecord(0, "Z", 1)


class TestStructure:
    def test_no_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])

    @pytest.mark.parametrize("n", [10, 40, 100])
    def test_numpy_ids_build_the_python_int_graph(self, n):
        # 1 << np.int64(70) is 0, so numpy masks would lose edges past bit 63;
        # the rules, given numpy ids, built graphs of numpy masks that broke
        # edges() and a later rule
        rnd = random.Random(n)
        edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.2]
        edges += [(0, n - 1), (1, n - 1)]
        want = Graph(n, edges)
        got = Graph(np.int64(n), [(np.int64(u), np.int64(v)) for u, v in edges])
        assert got == want and got.edges() == want.edges()
        assert type(got.vertex_count) is int and {type(m) for m in got.adjacency} == {int}
        assert got.measure_z(n - 1) == want.measure_z(n - 1)
        ids = (0, 1, n * 3 // 4, n - 1)
        for u, v in itertools.product(ids, ids):
            if u != v:
                assert want.has_edge(np.int64(u), np.int64(v)) is want.has_edge(u, v)
        for (g, record), py in (
            (want.measure_x(np.int64(n - 1), np.int64(0)), want.measure_x(n - 1, 0)),
            (want.measure_z(np.int64(n - 1)), want.measure_z(n - 1)),
        ):
            assert (g, record) == py and g.edges() == py[0].edges()
            assert {type(m) for m in g.adjacency} == {int} and type(record.vertex) is int
            v = next(u for u in range(n) if g.neighbor_mask(u))
            k0 = min(g.neighbors(v))
            assert g.measure_x(v, k0) == py[0].measure_x(v, k0)

    def test_count_above_the_vertex_limit_is_refused_before_allocating(self):
        # 10**30 slots could never be allocated: the check comes first
        assert Graph(MAX_VERTICES).vertex_count == MAX_VERTICES
        for n in (MAX_VERTICES + 1, 10**30):
            with pytest.raises(ValueError, match=f"^vertex_count {n} is above the vertex limit {MAX_VERTICES}$"):
                Graph(n)
        # the trusted path that the controlled network takes, whose controls
        # follow as many data vertices as the limit allows, checks no count
        assert Graph._from_parts(MAX_VERTICES + 2, (0,) * (MAX_VERTICES + 2)).vertex_count == MAX_VERTICES + 2

    def test_immutability(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.vertex_count = 7

    @pytest.mark.parametrize(
        "clone",
        [lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickle_and_copy_round_trip(self, clone):
        g, _ = Graph(4, [(0, 1), (1, 2), (2, 3)]).measure_z(3)
        got = clone(g)
        assert got == g and got.vertex_count == 4 and got.adjacency == g.adjacency
        assert got.edges() == [(0, 1), (1, 2)]
        with pytest.raises(AttributeError):
            got.vertex_count = 7

    def test_check_passes_after_ops(self):
        rnd = random.Random(6)
        for _ in range(100):
            n = rnd.randint(2, 8)
            g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.5])
            v = rnd.randrange(n)
            for h in (g, g.measure_z(v)[0], *(g.measure_x(v, k0)[0] for k0 in g.neighbors(v))):
                assert Graph(n, h.edges()) == h
        # the edge round-trip refuses a one-sided edge either way round and
        # a self-loop, and an out-of-range bit makes Graph raise
        for adj in ((0b10, 0), (0, 0b01), (0b01, 0)):
            broken = Graph._from_parts(2, adj)
            assert Graph(2, broken.edges()) != broken
        with pytest.raises(ValueError, match=r"^edge \(0,2\) outside 0..1$"):
            Graph(2, Graph._from_parts(2, (0b100, 0)).edges())

    def test_connected(self):
        assert Graph(3, [(0, 1), (1, 2)]).connected()
        assert not Graph(3, [(0, 1)]).connected()
        assert Graph(0).connected()

    def test_restrict(self):
        g = Graph(4, [(0, 1), (2, 3)]).keep(0b0011)
        assert g.restrict(2) == Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            Graph(4, [(1, 3)]).restrict(2)


class TestSerialization:
    def test_roundtrip(self):
        g = Graph(5, [(0, 4), (1, 2), (2, 3)])
        assert graph_from_edgelist(graph_to_edgelist(g)) == g

    def test_header_format(self):
        text = graph_to_edgelist(Graph(3, [(0, 2)]))
        assert text.splitlines()[0] == "n=3"
        assert text.splitlines()[1] == "0 2"

    def test_missing_header(self):
        with pytest.raises(ValueError):
            graph_from_edgelist("0 1\n")

    @pytest.mark.parametrize(
        "text, line",
        [("n=2\n0\n", "0"), ("n=2\n0 x\n", "0 x"), ("n=2\n0 1 1\n", "0 1 1"), ("n=x\n", "n=x")],
    )
    def test_malformed_line_is_named(self, text, line):
        with pytest.raises(ValueError, match=f"^malformed line: '{line}'$"):
            graph_from_edgelist(text)

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("n=3\n0 1\n0 0\n", "0 0", "self-loop at 0"),
            ("n=3\n0 5\n", "0 5", "edge (0,5) outside 0..2"),
            ("n=3\n1 2\n-1 1\n", "-1 1", "edge (-1,1) outside 0..2"),
            ("n=-1\n0 1\n", "n=-1", "vertex_count must be non-negative"),
            # the header is named whether or not an edge line follows
            ("n=4097\n0 1\n", "n=4097", f"vertex_count 4097 is above the vertex limit {MAX_VERTICES}"),
            ("n=4097\n", "n=4097", f"vertex_count 4097 is above the vertex limit {MAX_VERTICES}"),
        ],
    )
    def test_line_the_graph_refuses_is_named(self, text, line, reason):
        # Graph's own message follows the line it refuses
        with pytest.raises(ValueError, match="^" + re.escape(f"malformed line: '{line}': {reason}") + "$"):
            graph_from_edgelist(text)

    def test_header_must_come_first(self):
        with pytest.raises(ValueError, match="header before '0 1'"):
            graph_from_edgelist("# comment\n0 1\nn=2\n")

    @settings(max_examples=100, deadline=None)
    @given(graph_with_deleted_slots_and_mask())
    def test_deleted_vertices_round_trip(self, case):
        # a deleted vertex is an isolated slot, which the header keeps
        g, mask = case
        g = g.keep(mask)
        assert graph_from_edgelist(graph_to_edgelist(g)) == g
