"""Stabilizer tableau oracle: graph states, measurements, restriction,
local-Clifford equivalence."""

import itertools
import os
import random
import subprocess
import sys

import pytest

import mecnet
from mecnet.graph import Graph
from mecnet.stabilizer import (
    ORACLE_MAX_QUBITS,
    StabilizerTableau,
    equal_up_to_local_clifford,
    graph_form,
    graph_state,
    measure_pauli,
    outcome_deterministic,
    restrict_to,
)


def random_graph(rnd, n, p=0.5):
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < p])


class TestGraphState:
    def test_single_vertex(self):
        t = graph_state(Graph(1))
        assert t.rows == ((1, 0, 0),)
        assert t.signs() == (1,)

    def test_edge(self):
        t = graph_state(Graph(2, [(0, 1)]))
        assert t.rows == ((1, 2, 0), (2, 1, 0))  # X0 Z1, Z0 X1

    def test_triangle(self):
        t = graph_state(Graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert t.rows == ((1, 6, 0), (2, 5, 0), (4, 3, 0))

    def test_invariants_random(self):
        rnd = random.Random(10)
        for _ in range(100):
            graph_state(random_graph(rnd, rnd.randint(1, 10))).check()

    def test_size_limit(self):
        with pytest.raises(ValueError):
            graph_state(Graph(ORACLE_MAX_QUBITS + 1))


class TestMeasurePauli:
    def test_x_on_isolated_is_deterministic_plus(self):
        t = graph_state(Graph(1))
        assert outcome_deterministic(t, 0, "X")
        post, outcome = measure_pauli(t, 0, "X")
        assert outcome == 1 and post == t

    def test_z_on_edge_both_branches(self):
        # frozen from the hand-run tableau update: the post-state group
        # contains sign*Z0 and sign*X1
        t = graph_state(Graph(2, [(0, 1)]))
        assert not outcome_deterministic(t, 0, "Z")
        for forced in (1, -1):
            post, outcome = measure_pauli(t, 0, "Z", forced_outcome=forced)
            assert outcome == forced
            post.check()
            survivor = restrict_to(post, [1])
            assert survivor.rows == ((1, 0, 0 if forced == 1 else 2),)

    def test_forced_ignored_when_deterministic(self):
        t = graph_state(Graph(1))
        _, outcome = measure_pauli(t, 0, "X", forced_outcome=-1)
        assert outcome == 1

    def test_determinism_matches_anticommutation(self):
        rnd = random.Random(11)
        for _ in range(150):
            g = random_graph(rnd, rnd.randint(1, 8))
            t = graph_state(g)
            q = rnd.randrange(g.vertex_count)
            basis = rnd.choice(["X", "Z"])
            det = outcome_deterministic(t, q, basis)
            # a graph-state Z outcome is random iff the vertex is alive with
            # generator X_q present; X is random iff q has a neighbor
            if basis == "Z":
                assert det is False  # every slot carries an X_q generator
            else:
                assert det == (g.neighbor_mask(q) == 0)

    def test_invalid_qubit(self):
        with pytest.raises(ValueError):
            measure_pauli(graph_state(Graph(2)), 5, "X")

    def test_repeated_measurement_is_stable(self):
        rnd = random.Random(12)
        for _ in range(50):
            g = random_graph(rnd, rnd.randint(2, 7))
            t = graph_state(g)
            q = rnd.randrange(g.vertex_count)
            post, out1 = measure_pauli(t, q, "Z", forced_outcome=1)
            again, out2 = measure_pauli(post, q, "Z")
            assert out2 == out1 and again == post


class TestTableauCheck:
    @pytest.mark.parametrize(
        "n, rows, message",
        [
            (2, ((1, 0, 0),), "expected 2 generators, got 1"),
            (1, ((2, 0, 0),), "generator 0 acts outside 1 qubits"),
            (1, ((1, 0, 0), (0, 1, 0)), "expected 1 generators, got 2"),
            (2, ((1, 0, 0), (1, 0, 0)), "generators must be independent"),
            (2, ((1, 0, 0), (0, 1, 0)), "generators must commute"),
        ],
    )
    def test_invalid_tableau_raises_value_error(self, n, rows, message):
        with pytest.raises(ValueError, match=message):
            StabilizerTableau(n, rows).check()

    def test_check_raises_under_optimize(self):
        script = "\n".join([
            "from mecnet.stabilizer import StabilizerTableau",
            "print('debug', __debug__)",
            "try:",
            "    StabilizerTableau(2, ((1, 0, 0), (0, 1, 0))).check()  # X0 and Z0",
            "except ValueError as exc:",
            "    print('raised', exc)",
        ])
        src = os.path.dirname(os.path.dirname(mecnet.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["debug False", "raised generators must commute"]


class TestRestrict:
    def test_product_state_splits(self):
        t = graph_state(Graph(3, [(0, 1)]))
        sub = restrict_to(t, [0, 1])
        assert sub.rows == ((1, 2, 0), (2, 1, 0))

    def test_entangled_cut_returns_none(self):
        t = graph_state(Graph(2, [(0, 1)]))
        assert restrict_to(t, [0]) is None


class TestGraphForm:
    def test_graph_state_is_its_own_form(self):
        rnd = random.Random(13)
        for _ in range(100):
            g = random_graph(rnd, rnd.randint(1, 9))
            adj = graph_form(graph_state(g))
            assert adj == tuple(g.neighbor_mask(v) for v in range(g.vertex_count))

    def test_z_rows_get_hadamard(self):
        # |0>|0> state: pure Z rows must still reduce to a graph form
        t = StabilizerTableau(2, ((0, 1, 0), (0, 2, 0)))
        assert graph_form(t) == (0, 0)


class TestLocalCliffordEquivalence:
    def test_identical(self):
        t = graph_state(Graph(3, [(0, 1), (1, 2)]))
        assert equal_up_to_local_clifford(t, t)

    def test_edge_vs_product_false(self):
        a = graph_state(Graph(2, [(0, 1)]))
        b = graph_state(Graph(2))
        assert not equal_up_to_local_clifford(a, b)

    def test_star_vs_complete_true(self):
        # same orbit: complete graphs and stars are locally equivalent
        star = graph_state(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        comp = graph_state(Graph(4, list(itertools.combinations(range(4), 2))))
        assert equal_up_to_local_clifford(star, comp)

    def test_sign_patterns_never_obstruct(self):
        # flipping generator signs is a local Pauli away from the original
        rnd = random.Random(14)
        for _ in range(60):
            g = random_graph(rnd, rnd.randint(1, 7))
            t = graph_state(g)
            rows = tuple(
                (x, z, (p + rnd.choice([0, 2])) % 4) for x, z, p in t.rows
            )
            assert equal_up_to_local_clifford(t, StabilizerTableau(t.n, rows))

    def test_different_entanglement_partition_false(self):
        a = graph_state(Graph(4, [(0, 1), (2, 3)]))
        b = graph_state(Graph(4, [(0, 2), (1, 3)]))
        assert not equal_up_to_local_clifford(a, b)

    def test_path_four_not_equivalent_to_star(self):
        # P4 and the 4-star sit in different local orbits
        p4 = graph_state(Graph(4, [(0, 1), (1, 2), (2, 3)]))
        star = graph_state(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert not equal_up_to_local_clifford(p4, star)

    def test_mask_comparison(self):
        t = graph_state(Graph(3, [(0, 1)]))
        post, _ = measure_pauli(t, 2, "X", forced_outcome=-1)
        assert equal_up_to_local_clifford(post, t, mask=[0, 1])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            equal_up_to_local_clifford(graph_state(Graph(1)), graph_state(Graph(2)))


class TestEquivalenceAgainstOrbitClosure:
    """Two graph states are related by single-qubit Cliffords exactly when
    their graphs are related by local complementations (label-fixed), so
    the reachability closure under the rewrite is an independent oracle
    for the equivalence check, in both directions."""

    @staticmethod
    def _closure(g):
        seen = {g}
        frontier = [g]
        while frontier:
            nxt = []
            for h in frontier:
                for v in h.vertices():
                    t = h.local_complement(v)
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        return seen

    def test_all_pairs_n4(self):
        graphs = list(_all_connected(4))
        closures = {g: self._closure(g) for g in graphs}
        states = {g: graph_state(g) for g in graphs}
        for a, b in itertools.combinations(graphs, 2):
            assert equal_up_to_local_clifford(states[a], states[b]) == (b in closures[a])

    def test_sampled_pairs_n5(self):
        rnd = random.Random(55)
        graphs = list(_all_connected(5))
        sample = rnd.sample(graphs, 40)
        closures = {g: self._closure(g) for g in sample}
        for a in sample:
            for b in rnd.sample(graphs, 30):
                want = b in closures[a]
                got = equal_up_to_local_clifford(graph_state(a), graph_state(b))
                assert got == want, (a.edges(), b.edges())


class TestMeasurementRulesAgainstOracle:
    """The micro-oracle: graph-level rules versus tableau measurement."""

    def test_star_measurement_example(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        predicted, _ = g.measure_x(0, 1)
        base = graph_state(g)
        for forced in (1, -1):
            post, _ = measure_pauli(base, 0, "X", forced_outcome=forced)
            assert equal_up_to_local_clifford(post, graph_state(predicted), [1, 2, 3])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_tiny(self, n):
        for g in _all_connected(n):
            base = graph_state(g)
            for v in range(n):
                pz, _ = g.measure_z(v)
                survivors = [q for q in range(n) if q != v]
                for forced in (1, -1):
                    post, _ = measure_pauli(base, v, "Z", forced_outcome=forced)
                    assert equal_up_to_local_clifford(post, graph_state(pz), survivors)
                for k0 in g.neighbors(v):
                    px, _ = g.measure_x(v, k0)
                    for forced in (1, -1):
                        post, _ = measure_pauli(base, v, "X", forced_outcome=forced)
                        assert equal_up_to_local_clifford(
                            post, graph_state(px), survivors
                        )


def _all_connected(n):
    for edges in _power_edges(n):
        g = Graph(n, edges)
        if g.connected():
            yield g


def _power_edges(n):
    pairs = list(itertools.combinations(range(n), 2))
    for sel in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if sel >> i & 1]
