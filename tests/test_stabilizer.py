"""Stabilizer tableau oracle: graph states, measurements, kept parts,
local-Clifford equivalence."""

import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    EVAL_CONFIG,
    apply_pauli,
    connected_graphs,
    local_complement,
    project,
    random_network,
    state_vector,
)

import mecnet
import mecnet.stabilizer as stabilizer_module
from mecnet.experiments import ExperimentConfig, derive_seed, even_sizes
from mecnet.graph import Graph, bits
from mecnet.netgen import GenConfig, generate_inter_qnet, sample_requests
from mecnet.pairs import compatible, dynamic_parallel_pairs
from mecnet.qnet import build_controlled, complement_inter_qnet
from mecnet.stabilizer import (
    _LC_SEARCH_CAP,
    StabilizerTableau,
    _kernel,
    _lc_columns,
    _row_mul,
    _symmetric,
    equal_up_to_local_clifford,
    graph_form,
    graph_state,
    measure_pauli,
)


def random_graph(rnd, n, p=0.5):
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < p])


def state_form(t):
    """The graph form of ``t``, which graph_form gives only for a
    stabilizer state, signs aside; each row must also be Hermitian."""
    assert all((p - (x & z).bit_count()) % 2 == 0 for x, z, p in t.rows)
    return graph_form(t)


class TestGraphState:
    def test_single_vertex(self):
        t = graph_state(Graph(1))
        assert t.rows == ((1, 0, 0),)

    def test_edge(self):
        t = graph_state(Graph(2, [(0, 1)]))
        assert t.rows == ((1, 2, 0), (2, 1, 0))  # X0 Z1, Z0 X1

    def test_triangle(self):
        t = graph_state(Graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert t.rows == ((1, 6, 0), (2, 5, 0), (4, 3, 0))

    def test_invariants_random(self):
        rnd = random.Random(10)
        for _ in range(100):
            g = random_graph(rnd, rnd.randint(1, 10))
            assert state_form(graph_state(g)) == g.adjacency


class TestMeasurePauli:
    def test_x_on_isolated_is_deterministic_plus(self):
        t = graph_state(Graph(1))
        post, outcome = measure_pauli(t, 0, "X")  # raises if the outcome were random
        assert outcome == 1 and post == t

    def test_z_on_edge_both_branches(self):
        # frozen from the hand-run tableau update: the post-state group
        # contains sign*Z0 and sign*X1
        t = graph_state(Graph(2, [(0, 1)]))
        for forced in (1, -1):
            post, outcome = measure_pauli(t, 0, "Z", forced_outcome=forced)
            assert outcome == forced
            state_form(post)
            survivor = ref_restrict_to(post, [1])
            assert survivor.rows == ((1, 0, 0 if forced == 1 else 2),)

    def test_random_outcome_without_forced_branch_rejected(self):
        # nothing is drawn: a random outcome needs its branch named
        t = graph_state(Graph(2, [(0, 1)]))
        for q, basis in [(0, "Z"), (1, "X")]:
            with pytest.raises(ValueError, match=rf"^{basis} on qubit {q} has a random outcome; pass forced_outcome$"):
                measure_pauli(t, q, basis)

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
            try:
                measure_pauli(t, q, basis)
                det = True
            except ValueError as exc:
                assert "has a random outcome" in str(exc)
                det = False
            # a graph-state Z outcome is random iff the vertex is alive with
            # generator X_q present; X is random iff q has a neighbor
            if basis == "Z":
                assert det is False  # every slot carries an X_q generator
            else:
                assert det == (g.neighbor_mask(q) == 0)

    def test_invalid_qubit(self):
        with pytest.raises(ValueError):
            measure_pauli(graph_state(Graph(2)), 5, "X")

    @pytest.mark.parametrize("n", [10, 40, 100])
    def test_numpy_qubit_ids_read_as_python_ints(self, n):
        # 1 << np.int64(q) is an np.int64, which mixed into the rows and
        # wrapped past bit 63; both branches must see the Python int
        t = graph_state(random_graph(random.Random(n), n, 0.2))
        for q in (3, n * 3 // 4, n - 1):
            for basis in "XZ":
                for forced in (1, -1):
                    want = measure_pauli(t, q, basis, forced_outcome=forced)
                    got = measure_pauli(t, np.int64(q), basis, forced_outcome=forced)
                    assert got == want and {type(v) for r in got[0].rows for v in r} == {int}
                    assert graph_form(got[0]) == graph_form(want[0])
                    # measured again, the outcome is deterministic
                    assert measure_pauli(want[0], np.int64(q), basis) == measure_pauli(want[0], q, basis)

    def test_repeated_measurement_is_stable(self):
        rnd = random.Random(12)
        for _ in range(50):
            g = random_graph(rnd, rnd.randint(2, 7))
            t = graph_state(g)
            q = rnd.randrange(g.vertex_count)
            post, out1 = measure_pauli(t, q, "Z", forced_outcome=1)
            again, out2 = measure_pauli(post, q, "Z")
            assert out2 == out1 and again == post


class TestRestrict:
    """The reference restriction, which the equivalence check is held to."""

    def test_product_state_splits(self):
        t = graph_state(Graph(3, [(0, 1)]))
        sub = ref_restrict_to(t, [0, 1])
        assert sub.rows == ((1, 2, 0), (2, 1, 0))

    def test_entangled_cut_returns_none(self):
        t = graph_state(Graph(2, [(0, 1)]))
        assert ref_restrict_to(t, [0]) is None


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

    def test_hadamard_on_the_top_non_pivot_column(self):
        # The star X-measured at its centre leaves X block columns 1, 2
        # and 3 spanning two dimensions: taken from the top down, column 1
        # is the one outside the basis and takes the Hadamard, and the
        # form is a star centred at 1.  A Hadamard on column 3, the
        # bottom-up choice, would give the star centred at 3, (0, 8, 8, 6).
        post, _ = measure_pauli(graph_state(Graph(4, [(0, 1), (0, 2), (0, 3)])), 0, "X", forced_outcome=1)
        assert post.rows == ((1, 14, 0), (1, 0, 0), (6, 0, 0), (10, 0, 0))
        assert graph_form(post) == (0, 12, 2, 2)


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
                for v in range(h.vertex_count):
                    t = local_complement(h, v)
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        return seen

    def test_all_pairs_n4(self):
        graphs = list(connected_graphs(4))
        closures = {g: self._closure(g) for g in graphs}
        states = {g: graph_state(g) for g in graphs}
        for a, b in itertools.combinations(graphs, 2):
            assert equal_up_to_local_clifford(states[a], states[b]) == (b in closures[a])

    def test_sampled_pairs_n5(self):
        rnd = random.Random(55)
        graphs = list(connected_graphs(5))
        sample = rnd.sample(graphs, 40)
        closures = {g: self._closure(g) for g in sample}
        for a in sample:
            for b in rnd.sample(graphs, 30):
                want = b in closures[a]
                got = equal_up_to_local_clifford(graph_state(a), graph_state(b))
                assert got == want, (a.edges(), b.edges())


class TestMeasurementRulesAgainstOracle:
    """The micro-oracle: graph-level rules versus tableau measurement, which
    acceptance criterion 3 runs on every connected graph of 2 to 5 vertices."""

    def test_star_measurement_example(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        predicted, _ = g.measure_x(0, 1)
        base = graph_state(g)
        for forced in (1, -1):
            post, _ = measure_pauli(base, 0, "X", forced_outcome=forced)
            assert equal_up_to_local_clifford(post, graph_state(predicted), [1, 2, 3])


# -- bit-by-bit references ----------------------------------------------------
#
# The earlier implementation of the GF(2) bookkeeping, written one bit at a
# time.  The bitset internals above must agree with it: same null spaces,
# same gathered bits, same equivalence verdicts.


def ref_deterministic_outcome(t, b):
    """Sign of the commuting Pauli row ``b`` in the stabilizer group of ``t``."""
    pivots = []
    for x, z, p in t.rows:
        vec = (x << t.n) | z
        row = (x, z, p)
        for pb, pv, pr in pivots:
            if vec >> pb & 1:
                vec ^= pv
                row = _row_mul(row, pr)
        if vec:
            pivots.append((vec.bit_length() - 1, vec, row))
            pivots.sort(reverse=True)
    target = (b[0] << t.n) | b[1]
    acc = (0, 0, 0)
    for pb, pv, pr in pivots:
        if target >> pb & 1:
            target ^= pv
            acc = _row_mul(acc, pr)
    assert target == 0 and acc[:2] == b[:2]
    return 1 if acc[2] % 4 == 0 else -1


def ref_measure_pauli(t, q, basis, forced):
    """The measurement update, with the rows that anticommute with the
    measured Pauli selected by the full symplectic product."""
    b = (1 << q, 0, 0) if basis == "X" else (0, 1 << q, 0)
    anti = [i for i, (x, z, _) in enumerate(t.rows) if ((x & b[1]).bit_count() + (z & b[0]).bit_count()) % 2]
    if not anti:
        return t, ref_deterministic_outcome(t, b)
    rows = list(t.rows)
    for i in anti[1:]:
        rows[i] = _row_mul(rows[i], rows[anti[0]])
    rows[anti[0]] = (b[0], b[1], 0 if forced == 1 else 2)
    return StabilizerTableau(t.n, tuple(rows)), forced


def ref_compress(mask_bits, positions):
    out = 0
    for i, p in enumerate(positions):
        if mask_bits >> p & 1:
            out |= 1 << i
    return out


def ref_restrict_to(t, keep):
    positions = sorted(set(keep))
    m = len(positions)
    outside = [q for q in range(t.n) if q not in positions]
    rows = list(t.rows)
    used = set()
    for q in outside:
        for part in (0, 1):
            pivot = None
            for i, r in enumerate(rows):
                if i in used:
                    continue
                if r[part] >> q & 1:
                    pivot = i
                    break
            if pivot is None:
                continue
            used.add(pivot)
            for i, r in enumerate(rows):
                if i != pivot and r[part] >> q & 1:
                    rows[i] = _row_mul(r, rows[pivot])
    out_mask = 0
    for q in outside:
        out_mask |= 1 << q
    kept_rows = [
        (ref_compress(x, positions), ref_compress(z, positions), p)
        for x, z, p in rows
        if not (x & out_mask or z & out_mask)
    ]
    if len(kept_rows) != m:
        return None
    return StabilizerTableau(m, tuple(kept_rows))


def ref_graph_form(t):
    m = t.n
    xs = [r[0] for r in t.rows]
    zs = [r[1] for r in t.rows]
    for _ in range(m + 1):
        r = 0
        pivot_cols = []
        for col in range(m):
            sel = None
            for i in range(r, m):
                if xs[i] >> col & 1:
                    sel = i
                    break
            if sel is None:
                continue
            xs[r], xs[sel] = xs[sel], xs[r]
            zs[r], zs[sel] = zs[sel], zs[r]
            for i in range(m):
                if i != r and xs[i] >> col & 1:
                    xs[i] ^= xs[r]
                    zs[i] ^= zs[r]
            pivot_cols.append(col)
            r += 1
        if r == m:
            break
        fixed = False
        pivot_mask = 0
        for c in pivot_cols:
            pivot_mask |= 1 << c
        for i in range(r, m):
            free = zs[i] & ~pivot_mask
            if free:
                q = (free & -free).bit_length() - 1
                bit = 1 << q
                for j in range(m):
                    xq = xs[j] & bit
                    zq = zs[j] & bit
                    xs[j] = (xs[j] & ~bit) | zq
                    zs[j] = (zs[j] & ~bit) | xq
                fixed = True
                break
        if not fixed:
            raise ValueError("valid tableau must admit a graph form")
    else:
        raise AssertionError("graph-form reduction did not converge")
    order = sorted(range(m), key=lambda i: (xs[i] & -xs[i]).bit_length())
    xs = [xs[i] for i in order]
    zs = [zs[i] for i in order]
    for j in range(m):
        if xs[j] != 1 << j:
            raise ValueError("X block must reduce to identity")
        if zs[j] >> j & 1:
            zs[j] ^= 1 << j
    for j in range(m):
        for l in bits(zs[j]):
            if not zs[l] >> j & 1:
                raise ValueError("graph adjacency must be symmetric")
    return tuple(zs)


def ref_top_down_hadamards(t):
    """``t`` after Hadamards on the columns outside the greedy basis of the
    X block's columns taken from the top one down, which graph_form treats
    as its non-pivots.  The X block is then invertible, so ref_graph_form
    applies no Hadamard of its own, and the graph form is unique."""
    basis, flip = [], 0
    for c in reversed(range(t.n)):
        col = sum((x >> c & 1) << i for i, (x, _, _) in enumerate(t.rows))
        for b in basis:
            col = min(col, col ^ b)
        if col:
            basis.append(col)
            basis.sort(reverse=True)
        else:
            flip |= 1 << c
    return StabilizerTableau(t.n, tuple((x & ~flip | z & flip, z & ~flip | x & flip, p) for x, z, p in t.rows))


def ref_components(adj):
    m = len(adj)
    seen = 0
    comps = []
    for v in range(m):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= adj[u]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        comps.append(frozenset(bits(comp)))
    return comps


def ref_nullspace(rows, width):
    pivots = {}
    for row in rows:
        for col, prow in pivots.items():
            if row >> col & 1:
                row ^= prow
        if not row:
            continue
        col = row.bit_length() - 1
        for c2 in list(pivots):
            if pivots[c2] >> col & 1:
                pivots[c2] ^= row
        pivots[col] = row
    free_cols = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = 1 << fc
        for pc, prow in pivots.items():
            if prow >> fc & 1:
                v |= 1 << pc
        basis.append(v)
    return basis


def ref_lc_equations(ra, rb):
    """The local-Clifford system one equation (i, j) at a time, unknowns
    (a | b | c | d) from the low bits up."""
    m = len(ra)
    eqs = []
    for i in range(m):
        for j in range(m):
            row = 0
            if rb[i] >> j & 1:
                row |= 1 << i
            if i == j:
                row |= 1 << (m + i)
            row |= (ra[i] & rb[j]) << (2 * m)
            if ra[i] >> j & 1:
                row |= 1 << (3 * m + j)
            if row:
                eqs.append(row)
    return eqs


def ref_component_lc_match(ga, gb, verts):
    m = len(verts)
    ra = [ref_compress(ga[v], verts) for v in verts]
    rb = [ref_compress(gb[v], verts) for v in verts]
    if ra == rb:
        return True
    eqs = ref_lc_equations(ra, rb)
    basis = ref_nullspace(eqs, 4 * m)
    if not basis:
        return False
    if 1 << len(basis) > _LC_SEARCH_CAP:
        raise RuntimeError("local-Clifford search space exceeds the oracle limit")
    lo = (1 << m) - 1
    sol = 0
    for counter in range(1, 1 << len(basis)):
        sol ^= basis[(counter & -counter).bit_length() - 1]
        a = sol & lo
        b = sol >> m & lo
        c = sol >> (2 * m) & lo
        d = sol >> (3 * m) & lo
        if ((a & d) ^ (b & c)) == lo:
            return True
    return False


def ref_equal_up_to_local_clifford(a, b, mask=None):
    if a.n != b.n:
        raise ValueError("tableaux must have the same qubit count")
    keep = sorted(set(range(a.n) if mask is None else mask))
    if not keep:
        return True
    ra = ref_restrict_to(a, keep)
    rb = ref_restrict_to(b, keep)
    if ra is None or rb is None:
        return False
    ga = ref_graph_form(ra)
    gb = ref_graph_form(rb)
    ca = ref_components(ga)
    cb = ref_components(gb)
    if set(ca) != set(cb):
        return False
    for comp in ca:
        if len(comp) < 2:
            continue
        if not ref_component_lc_match(ga, gb, sorted(comp)):
            return False
    return True


def _span(vectors):
    """Reduced basis of the span, as a sorted tuple (a canonical form)."""
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = [min(b, b ^ v) for b in basis] + [v]
    return tuple(sorted(basis))


def _verdict(check, a, b, mask):
    try:
        return check(a, b, mask)
    except RuntimeError as exc:
        return str(exc)


@st.composite
def gf2_systems(draw):
    width = draw(st.integers(1, 40))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=3 * width))
    return rows, width


@st.composite
def graphs(draw, min_n=2, max_n=16):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    p = draw(st.sampled_from([0.15, 0.35, 0.6, 0.9]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph(n, [e for e in pairs if rnd.random() < p])


@st.composite
def x_identity_tableaux(draw):
    """Graph states with bare X slots of deleted vertices, Y in place of X
    on some generators (a Hermitian Z-diagonal entry) and random signs."""
    g = draw(graphs(min_n=1))
    n = g.vertex_count
    for v in sorted(draw(st.sets(st.integers(0, n - 1), max_size=n // 3))):
        g, _ = g.measure_z(v)
    rows = []
    for i, (x, z, p) in enumerate(graph_state(g).rows):
        if draw(st.booleans()):
            z, p = z | 1 << i, 1
        rows.append((x, z, (p + draw(st.sampled_from((0, 2)))) % 4))
    t = StabilizerTableau(n, tuple(rows))
    state_form(t)
    return t


class TestBitsetInternalsAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(gf2_systems())
    def test_nullspace_span_and_dimension(self, system):
        # the column kernel reads the transpose: one mask over the
        # equations per unknown
        rows, width = system
        columns = [sum((row >> u & 1) << e for e, row in enumerate(rows)) for u in range(width)]
        got = _kernel(columns)
        want = ref_nullspace(rows, width)
        assert len(got) == len(want)
        assert _span(got) == _span(want)
        for v in got:
            assert v and all((row & v).bit_count() % 2 == 0 for row in rows)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda m: st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m)))
    def test_symmetric(self, adj):
        want = all(adj[i] >> j & 1 == adj[j] >> i & 1 for i in range(len(adj)) for j in range(len(adj)))
        assert _symmetric(adj) == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 70), st.integers(0, 2**32 - 1), st.booleans())
    def test_symmetric_at_any_width(self, width, seed, flip):
        # symmetric matrices, some with one bit flipped, at widths past one
        # machine word and on either side of the power-of-two strides that
        # the block transpose pads to
        rnd = random.Random(seed)
        for m in (width, 16, 17, 32, 33, 63, 64, 65):
            adj = [0] * m
            for i, j in itertools.combinations(range(m), 2):
                if rnd.random() < 0.5:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            if flip:
                adj[rnd.randrange(m)] ^= 1 << rnd.randrange(m)
            want = all(adj[i] >> j & 1 == adj[j] >> i & 1 for i in range(m) for j in range(m))
            assert _symmetric(adj) == want

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_lc_orbit_is_equivalent(self, g, data):
        h = g
        for v in data.draw(st.lists(st.integers(0, g.vertex_count - 1), max_size=8)):
            h = local_complement(h, v)
        a, b = graph_state(g), graph_state(h)
        assert equal_up_to_local_clifford(a, b)
        assert ref_equal_up_to_local_clifford(a, b)

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_edge_flip_verdict_matches_reference(self, g, data):
        n = g.vertex_count
        u, v = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
        flipped = Graph(n, set(g.edges()) ^ {(u, v)})
        a, b = graph_state(g), graph_state(flipped)
        assert _verdict(equal_up_to_local_clifford, a, b, None) == _verdict(
            ref_equal_up_to_local_clifford, a, b, None
        )

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=8), graphs(max_n=8), st.data())
    def test_disconnected_verdict_matches_reference(self, g1, g2, data):
        n1, n = g1.vertex_count, g1.vertex_count + g2.vertex_count
        edges = g1.edges() + [(u + n1, v + n1) for u, v in g2.edges()]
        g = Graph(n, edges)
        h = g
        for v in data.draw(st.lists(st.integers(0, n - 1), max_size=6)):
            h = local_complement(h, v)
        if data.draw(st.booleans()):
            u, v = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
            h = Graph(n, set(h.edges()) ^ {(u, v)})
        a, b = graph_state(g), graph_state(h)
        assert _verdict(equal_up_to_local_clifford, a, b, None) == _verdict(
            ref_equal_up_to_local_clifford, a, b, None
        )

    @settings(max_examples=150, deadline=None)
    @given(graphs(min_n=3), st.data())
    def test_masked_verdict_matches_reference(self, g, data):
        # measure qubits out so that the survivor mask has gaps (several Z
        # measurements, or one X measurement, whose byproducts would change
        # the basis of later ones), then compare with the predicted graph
        # and with a one-edge mutant of it
        n = g.vertex_count
        post, predicted = graph_state(g), g
        forced = data.draw(st.sampled_from((1, -1)))
        hubs = [v for v in range(n) if g.neighbor_mask(v)]
        if hubs and data.draw(st.booleans()):
            v = data.draw(st.sampled_from(hubs))
            gone = {v}
            post, _ = measure_pauli(post, v, "X", forced_outcome=forced)
            predicted, _ = g.measure_x(v, data.draw(st.sampled_from(sorted(g.neighbors(v)))))
        else:
            gone = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 2))
            for v in sorted(gone):
                post, _ = measure_pauli(post, v, "Z", forced_outcome=forced)
                predicted, _ = predicted.measure_z(v)
        survivors = [q for q in range(n) if q not in gone]
        u, v = data.draw(st.sampled_from(list(itertools.combinations(survivors, 2))))
        mutant = Graph(n, set(predicted.edges()) ^ {(u, v)})
        mask = data.draw(st.permutations(survivors + survivors[:1]))  # unsorted, one repeat
        for target in (graph_state(predicted), graph_state(mutant)):
            assert _verdict(equal_up_to_local_clifford, post, target, mask) == _verdict(
                ref_equal_up_to_local_clifford, post, target, mask
            )
        assert equal_up_to_local_clifford(post, graph_state(predicted), mask)

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_restrict_and_graph_form_match_reference(self, g, data):
        # The check finds a state equal to itself on keep iff its kept part
        # is pure, which is when ref_restrict_to returns a tableau.
        n = g.vertex_count
        post = graph_state(g)
        for v in data.draw(st.sets(st.integers(0, n - 1), max_size=3)):
            basis = data.draw(st.sampled_from("XZ"))
            post, _ = measure_pauli(post, v, basis, forced_outcome=data.draw(st.sampled_from((1, -1))))
        keep = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        kept = ref_restrict_to(post, keep)
        assert equal_up_to_local_clifford(post, post, keep) == (kept is not None)
        if kept is not None:
            # a different Hadamard set may give another graph of the same orbit
            form = graph_form(kept)
            m = kept.n
            same_orbit = graph_state(Graph(m, [(i, j) for i in range(m) for j in bits(form[i]) if i < j]))
            assert ref_equal_up_to_local_clifford(kept, same_orbit)
            if all(x == 1 << i for i, (x, _, _) in enumerate(kept.rows)):
                assert form == ref_graph_form(kept)

    @settings(max_examples=150, deadline=None)
    @given(graphs(min_n=1, max_n=10), st.data())
    def test_deterministic_outcome_matches_reference(self, g, data):
        t = graph_state(g)
        for _ in range(data.draw(st.integers(1, 6))):
            q = data.draw(st.integers(0, g.vertex_count - 1))
            basis = data.draw(st.sampled_from("XZ"))
            try:
                post, outcome = measure_pauli(t, q, basis)
            except ValueError as exc:
                assert "has a random outcome" in str(exc)
                t, _ = measure_pauli(t, q, basis, forced_outcome=data.draw(st.sampled_from((1, -1))))
            else:
                b = (1 << q, 0, 0) if basis == "X" else (0, 1 << q, 0)
                assert post is t and outcome == ref_deterministic_outcome(t, b)

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_lc_system_null_space_matches_rows(self, g, data):
        # LC-orbit pairs, some with one edge flipped: the column-built
        # system has the row system's null space, so the search cap raises
        # on exactly the same inputs
        h = g
        for v in data.draw(st.lists(st.integers(0, g.vertex_count - 1), max_size=8)):
            h = local_complement(h, v)
        if data.draw(st.booleans()):
            u, v = data.draw(st.sampled_from(list(itertools.combinations(range(g.vertex_count), 2))))
            h = Graph(g.vertex_count, set(h.edges()) ^ {(u, v)})
        ra, rb = g.adjacency, h.adjacency
        m, lo = len(ra), (1 << len(ra)) - 1
        got = _kernel(_lc_columns(ra, rb, lo))
        want = ref_nullspace(ref_lc_equations(ra, rb), 4 * m)
        assert len(got) == len(want)
        assert _span(_reference_unknown_order(got, m)) == _span(want)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=8), st.data())
    def test_lc_system_on_a_strict_component_matches_relabelled_rows(self, g, data):
        # The component sits at scattered places among n qubits, beside a
        # second component that differs between the operands; the system
        # over the full-width masks has the null space of the relabelled one.
        k = g.vertex_count
        g = Graph(k, set(g.edges()) | {(i, i + 1) for i in range(k - 1)})
        h = g
        for v in data.draw(st.lists(st.integers(0, k - 1), max_size=8)):
            h = local_complement(h, v)
        if data.draw(st.booleans()):
            u, v = data.draw(st.sampled_from(list(itertools.combinations(range(k), 2))))
            flipped = Graph(k, set(h.edges()) ^ {(u, v)})
            if len(ref_components(flipped.adjacency)) == 1:
                h = flipped
        n = data.draw(st.integers(k + 2, 16))
        verts = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k)))
        rest = [q for q in range(n) if q not in verts]
        comp = sum(1 << v for v in verts)

        def embed(small, other):
            adj = [0] * n
            for i, v in enumerate(verts):
                adj[v] = sum(1 << verts[j] for j in bits(small[i]))
            adj[rest[0]] = adj[rest[1]] = 1 << rest[0] | 1 << rest[1]
            for u, v in other:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            return adj

        pairs = list(itertools.combinations(rest, 2))
        ga = embed(g.adjacency, data.draw(st.sets(st.sampled_from(pairs))))
        gb = embed(h.adjacency, data.draw(st.sets(st.sampled_from(pairs))))
        got = _kernel(_lc_columns(ga, gb, comp))
        ra = [ref_compress(ga[v], verts) for v in verts]
        rb = [ref_compress(gb[v], verts) for v in verts]
        want = ref_nullspace(ref_lc_equations(ra, rb), 4 * k)
        assert len(got) == len(want)
        assert _span(_reference_unknown_order(got, k)) == _span(want)


def _reference_unknown_order(vectors, m):
    """The library orders the unknowns (c | a | b | d), the reference
    (a | b | c | d)."""
    lo = (1 << m) - 1
    return [v >> m & (lo | lo << m) | (v & lo) << 2 * m | v & lo << 3 * m for v in vectors]


class TestMeasurePauliRowSelection:
    @settings(max_examples=100, deadline=None)
    @given(x_identity_tableaux(), st.data())
    def test_matches_the_symplectic_product(self, t, data):
        # Y entries, random signs and earlier X/Z measurements give rows
        # with X and Z parts on the measured qubit; every qubit, both bases
        # and both forced branches are compared with the reference
        for v in data.draw(st.lists(st.integers(0, t.n - 1), max_size=3)):
            basis = data.draw(st.sampled_from("XZ"))
            t, _ = measure_pauli(t, v, basis, forced_outcome=data.draw(st.sampled_from((1, -1))))
        for q in range(t.n):
            for basis in "XZ":
                for forced in (1, -1):
                    assert measure_pauli(t, q, basis, forced_outcome=forced) == ref_measure_pauli(t, q, basis, forced)


class TestTableauAgainstTheStateVector:
    """Every signed row of a graph state and of each measured post-state
    stabilises the state vector, projected onto the same outcomes, and a
    deterministic outcome is the expectation of the measured Pauli."""

    @staticmethod
    def assert_stabilised(t, psi):
        for row in t.rows:
            assert np.allclose(apply_pauli(psi, row), psi), row

    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=1, max_n=12))
    def test_graph_state_rows_stabilise_the_vector(self, g):
        self.assert_stabilised(graph_state(g), state_vector(g))

    @settings(max_examples=150, deadline=None)
    @given(graphs(min_n=1, max_n=10), st.data())
    def test_measured_rows_stabilise_the_projected_vector(self, g, data):
        t, psi = graph_state(g), state_vector(g)
        for _ in range(data.draw(st.integers(1, 4))):
            q = data.draw(st.integers(0, t.n - 1))
            basis = data.draw(st.sampled_from("XZ"))
            b = (1 << q, 0, 0) if basis == "X" else (0, 1 << q, 0)
            forced = data.draw(st.sampled_from((1, -1)))
            post, outcome = measure_pauli(t, q, basis, forced_outcome=forced)
            if post is t:
                assert np.vdot(psi, apply_pauli(psi, b)) == pytest.approx(outcome)
            else:
                assert outcome == forced
                psi = project(psi, b, outcome)
            t = post
            self.assert_stabilised(t, psi)


def _clifford_gate(rows, gate, q, t):
    """Conjugate every row by H or S on qubit q, or by CNOT from q to t,
    under P = i**phase X**x Z**z."""
    b = 1 << q
    out = []
    for x, z, p in rows:
        if gate == "H":  # X <-> Z, and X Z -> Z X = -X Z
            if x & z & b:
                p += 2
            x, z = x & ~b | z & b, z & ~b | x & b
        elif gate == "S":  # X -> i X Z
            if x & b:
                z ^= b
                p += 1
        else:  # X_q -> X_q X_t and Z_t -> Z_q Z_t, no phase
            x ^= (x >> q & 1) << t
            z ^= (z >> t & 1) << q
        out.append((x, z, p % 4))
    return out


@st.composite
def clifford_tableaux(draw):
    """Stabilizer states of 1 to 14 qubits from random H, S and CNOT gates
    on |0...0> and random row products: X blocks of every rank, all-Z ones
    included, not only the singular ones that measured graph states give."""
    n = draw(st.integers(1, 14))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [(0, 1 << i, 0) for i in range(n)]
    for _ in range(draw(st.integers(0, 4 * n * n))):
        q = rnd.randrange(n)
        gate = rnd.choice("HSC" if n > 1 else "HS")
        rows = _clifford_gate(rows, gate, q, (q + rnd.randrange(1, n)) % n if gate == "C" else q)
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i, j = rnd.sample(range(n), 2)
        rows[i] = _row_mul(rows[i], rows[j])
    return StabilizerTableau(n, tuple(rows))


class TestGraphFormOfCliffordStates:
    @settings(max_examples=300, deadline=None)
    @given(clifford_tableaux())
    def test_matches_reference_with_top_down_hadamards(self, t):
        assert state_form(t) == ref_graph_form(ref_top_down_hadamards(t))


class TestGraphFormAtAnyWidth:
    """graph_state, measure_pauli and graph_form take any width: graph
    states of 17 to 64 qubits match the bit-by-bit reference."""

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=17, max_n=64), st.data())
    def test_matches_reference_after_measurements(self, g, data):
        # After a measurement the X block may be singular, and the two pick
        # different Hadamard sets (different graphs of one local orbit), so
        # the reference is given graph_form's set, found bit by bit.
        t = graph_state(g)
        assert graph_form(t) == g.adjacency == ref_graph_form(t)
        for v in data.draw(st.sets(st.integers(0, t.n - 1), min_size=1, max_size=3)):
            basis = data.draw(st.sampled_from("XZ"))
            t, _ = measure_pauli(t, v, basis, forced_outcome=data.draw(st.sampled_from((1, -1))))
            assert graph_form(t) == ref_graph_form(ref_top_down_hadamards(t))

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=17, max_n=64), st.data())
    def test_one_flipped_z_bit_raises(self, g, data):
        t = graph_state(g)
        i = data.draw(st.integers(0, t.n - 1))
        j = data.draw(st.integers(0, t.n - 2))
        j += j >= i
        rows = list(t.rows)
        x, z, p = rows[i]
        rows[i] = (x, z ^ 1 << j, p)
        bad = StabilizerTableau(t.n, tuple(rows))
        for form in (graph_form, ref_graph_form):
            with pytest.raises(ValueError, match="^graph adjacency must be symmetric$"):
                form(bad)


class TestGraphFormIsKept:
    """graph_form reduces a tableau at most once, and rows already in graph
    form skip the elimination but not the count, range or symmetry checks."""

    @settings(max_examples=150, deadline=None)
    @given(graphs(min_n=1), st.data())
    def test_graph_state_form_is_its_adjacency(self, g, data):
        # measured-out slots are bare X rows, still in graph form
        n = g.vertex_count
        for v in sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n // 3))):
            g, _ = g.measure_z(v)
        t = graph_state(g)
        assert graph_form(t) == g.adjacency == ref_graph_form(t)

    @settings(max_examples=150, deadline=None)
    @given(x_identity_tableaux())
    def test_y_entries_and_signs_take_the_same_form(self, t):
        assert graph_form(t) == ref_graph_form(t)

    def test_second_call_reuses_the_form(self, monkeypatch):
        reduce = stabilizer_module._reduce
        reduced = []
        monkeypatch.setattr(stabilizer_module, "_reduce", lambda t: reduced.append(t) or reduce(t))
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        post, _ = measure_pauli(graph_state(g), 1, "X", forced_outcome=-1)
        for t in (graph_state(g), post):
            form = graph_form(t)
            assert graph_form(t) == form
            assert equal_up_to_local_clifford(t, t)
            assert reduced == [t]
            reduced.clear()
        # an equal tableau is another object, reduced on its own
        again = StabilizerTableau(post.n, post.rows)
        assert graph_form(again) == graph_form(post) and reduced == [again]

    @pytest.mark.parametrize("bit", [3, 4, 70])
    def test_stray_z_bit_raises_on_every_call(self, bit):
        # the X block is the identity, so these rows take the shortcut
        good = graph_state(Graph(3, [(0, 1), (1, 2)]))
        x, z, p = good.rows[1]
        t = StabilizerTableau(3, (good.rows[0], (x, z | 1 << bit, p), good.rows[2]))
        for _ in range(3):
            with pytest.raises(ValueError, match="^generator 1 acts outside 3 qubits$"):
                graph_form(t)
            for a, b in ((t, good), (good, t)):
                with pytest.raises(ValueError, match="^generator 1 acts outside 3 qubits$"):
                    equal_up_to_local_clifford(a, b)

    def test_asymmetric_graph_state_is_refused(self):
        # An asymmetric graph, such as a broken rewrite rule could build
        # through Graph._from_parts, is refused by the symmetry test of its
        # graph state's form on every call, for either operand.
        bad = graph_state(Graph._from_parts(3, (2, 0, 0)))
        good = graph_state(Graph(3))
        for _ in range(2):
            for a, b in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match="^graph adjacency must be symmetric$"):
                    equal_up_to_local_clifford(a, b)
            with pytest.raises(ValueError, match="^graph adjacency must be symmetric$"):
                graph_form(bad)


class TestXRuleOnTheTableauAtEvaluationScale:
    """The paper's rule at the scale of configs/eval.json (54 to 60 qubits):
    X-measuring every control leaves the cross-domain complement on the data
    qubits, up to single-qubit Cliffords."""

    def test_every_eval_cell(self):
        cfg = ExperimentConfig.from_json(EVAL_CONFIG)
        rnd = random.Random(35)
        for k, p, rep in itertools.product(cfg.qnet_counts, cfg.densities, range(2)):
            seed = derive_seed(cfg.seed, k, int(p * 1_000_000), rep)
            iq = generate_inter_qnet(GenConfig(k, even_sizes(cfg.nodes, k), p, seed))
            cg = build_controlled(iq)
            n, data = cg.graph.vertex_count, range(cg.data_count)
            want = complement_inter_qnet(iq).graph.edges()
            flipped = set(want) ^ {tuple(sorted(rnd.sample(data, 2)))}
            start = graph_state(cg.graph)
            for _ in range(2):
                post = start
                for c in cg.partition.control_nodes:
                    post, _ = measure_pauli(post, c, "X", forced_outcome=rnd.choice((1, -1)))
                assert equal_up_to_local_clifford(post, graph_state(Graph(n, want)), data)
                assert not equal_up_to_local_clifford(post, graph_state(Graph(n, flipped)), data)


def endpoint_mask(pairs):
    return sum((1 << u) | (1 << v) for u, v in pairs)


def extracts(t, data, group, rnd):
    """Whether Z-measuring every qubit of ``data`` outside the endpoints of
    ``group``, each in a seeded forced branch, leaves one Bell pair per
    request on the endpoints, up to single-qubit Cliffords.  Requests that
    share an endpoint hold fewer than two qubits per pair and never do."""
    ends = endpoint_mask(group)
    if ends.bit_count() != 2 * len(group):
        return False
    for v in data:
        if not ends >> v & 1:
            t, _ = measure_pauli(t, v, "Z", forced_outcome=rnd.choice((1, -1)))
    return equal_up_to_local_clifford(t, graph_state(Graph(t.n, group)), bits(ends))


def conflicting_swap(comp, group, rnd):
    """``group`` with one member swapped for a complement edge that avoids
    every endpoint of the round but conflicts with the rest of it."""
    rest = sorted(group)
    rest.pop(rnd.randrange(len(rest)))
    ends = endpoint_mask(group)
    reach = 0
    for v in bits(endpoint_mask(rest)):
        reach |= comp.neighbor_mask(v)
    swaps = [f for f in comp.edges() if endpoint_mask([f]) & reach and not endpoint_mask([f]) & ends]
    negative = [*rest, rnd.choice(swaps)]
    assert not all(compatible(comp, e, f) for e, f in itertools.combinations(negative, 2))
    return negative


class TestRoundsOnTheTableau:
    """Parallel EPR extraction: after the controls are X-measured, Z-measuring
    every other data qubit leaves a round's requests as disjoint Bell pairs
    iff the round is pairwise compatible."""

    def test_served_rounds_on_every_eval_cell(self):
        # The volume-50 batch that `mecnet run` serves, on two networks per
        # configs/eval.json cell (156 rounds of two or more requests).  Each
        # round's negative swaps one member for a complement edge that avoids
        # every endpoint of the round but conflicts with the rest of it.
        cfg = ExperimentConfig.from_json(EVAL_CONFIG)
        rnd = random.Random(36)
        rounds = 0
        for k, p, rep in itertools.product(cfg.qnet_counts, cfg.densities, range(2)):
            cell = (cfg.seed, k, int(p * 1_000_000), rep)
            iq = generate_inter_qnet(GenConfig(k, even_sizes(cfg.nodes, k), p, derive_seed(*cell)))
            cg = build_controlled(iq)
            batch = sample_requests(iq, cfg.request_volumes[0], derive_seed(derive_seed(*cell, 17), 0))
            comp = complement_inter_qnet(iq).graph
            post = graph_state(cg.graph)
            for c in cg.partition.control_nodes:
                post, _ = measure_pauli(post, c, "X", forced_outcome=rnd.choice((1, -1)))
            data = range(cg.data_count)
            for group in dynamic_parallel_pairs(cg, batch).groups:
                if len(group) < 2:
                    continue
                assert extracts(post, data, group, rnd), (k, p, rep, sorted(group))
                negative = conflicting_swap(comp, group, rnd)
                assert not extracts(post, data, negative, rnd), (k, p, rep, negative)
                rounds += 1
        assert rounds > 100

    def test_extracts_iff_pairwise_compatible_randomized(self):
        rnd = random.Random(29)
        seen = set()
        for _ in range(200):
            k = rnd.choice([2, 3, 4])
            g = random_network(k, [rnd.randint(1, 4) for _ in range(k)], 0.5, rnd).graph
            edges = g.edges()
            if not edges:
                continue
            group = rnd.sample(edges, k=min(len(edges), rnd.randint(1, 3)))
            pairable = all(compatible(g, e, f) for e, f in itertools.combinations(group, 2))
            assert extracts(graph_state(g), range(g.vertex_count), group, rnd) == pairable
            seen.add(pairable)
        assert seen == {True, False}

    def test_path_leaves_a_residue_link(self):
        # path a-b-c-d: every qubit is an endpoint, so nothing is measured,
        # and the b-c link keeps the two requested pairs entangled
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert not compatible(path, (0, 1), (2, 3))
        assert not equal_up_to_local_clifford(graph_state(path), graph_state(Graph(4, [(0, 1), (2, 3)])))


def x_measured(n, k, p):
    """The network of n data vertices in k QNets at density p, its
    controlled network, and its tableau after every control is X-measured,
    each in a seeded forced branch."""
    seed = derive_seed(1, n, k, int(p * 1_000_000))
    iq = generate_inter_qnet(GenConfig(k, even_sizes(n, k), p, seed))
    cg = build_controlled(iq)
    rnd = random.Random(seed)
    post = graph_state(cg.graph)
    for c in cg.partition.control_nodes:
        post, _ = measure_pauli(post, c, "X", forced_outcome=rnd.choice((1, -1)))
    return iq, cg, post


class TestMechanismOnTheTableauAtScale:
    """The X rule and parallel extraction past the eval size, toward the
    abstract's scalability claim: 200 data vertices on every (k, p) of
    configs/eval.json, and 400 and 800 at k = 4 (204 to 804 qubits).  No
    rule has a size-dependent path, but the tableau's masks grow with n.

    The flipped-pair negative runs the full local-Clifford system, 4n
    columns of n^2 bits, so it stops at n = 400: at n = 800 one took 1.3 to
    3.3 s and about 450 MB, where each positive reads equal graph forms."""

    @pytest.mark.parametrize(
        "n, k, p", [(200, k, p) for k in (4, 6, 8, 10) for p in (0.2, 0.8)] + [(400, 4, 0.2), (400, 4, 0.8)]
    )
    def test_x_rule_and_flipped_pair(self, n, k, p):
        iq, cg, post = x_measured(n, k, p)
        nq, data = cg.graph.vertex_count, range(cg.data_count)
        want = complement_inter_qnet(iq).graph.edges()
        flipped = set(want) ^ {tuple(sorted(random.Random(n + k).sample(data, 2)))}
        assert equal_up_to_local_clifford(post, graph_state(Graph(nq, want)), data)
        assert not equal_up_to_local_clifford(post, graph_state(Graph(nq, flipped)), data)

    @pytest.mark.parametrize("p", [0.2, 0.8])
    def test_x_rule_and_served_rounds_at_800(self, p):
        # the three largest rounds of a volume-n batch, each against its
        # conflicting swap; Z measurements on distinct qubits commute, so
        # the qubits outside both rounds' endpoints are measured once
        iq, cg, post = x_measured(800, 4, p)
        nq, data = cg.graph.vertex_count, range(cg.data_count)
        comp = complement_inter_qnet(iq).graph
        assert equal_up_to_local_clifford(post, graph_state(Graph(nq, comp.edges())), data)
        rnd = random.Random(26)
        batch = sample_requests(iq, 800, derive_seed(1, 800, 4, int(p * 1_000_000), 17))
        groups = sorted(dynamic_parallel_pairs(cg, batch).groups, key=len, reverse=True)[:3]
        assert min(map(len, groups)) >= 3
        for group in groups:
            negative = conflicting_swap(comp, group, rnd)
            both = endpoint_mask(group) | endpoint_mask(negative)
            t = post
            for v in data:
                if not both >> v & 1:
                    t, _ = measure_pauli(t, v, "Z", forced_outcome=rnd.choice((1, -1)))
            assert extracts(t, bits(both), group, rnd), sorted(group)
            assert not extracts(t, bits(both), negative, rnd), negative


class TestLcSearchGuard:
    """The local-Clifford search is the oracle's one cost guard.  The star
    S_n is the complete graph K_n after one local complementation at its
    centre, and the system between the two has an (n + 1)-dimensional null
    space, so 17 vertices stay under the cap and 20 exceed it."""

    @staticmethod
    def _complete_and_star(n):
        complete = Graph(n, itertools.combinations(range(n), 2))
        star = local_complement(complete, 0)
        assert star == Graph(n, [(0, v) for v in range(1, n)])
        assert len(_kernel(_lc_columns(complete.adjacency, star.adjacency, (1 << n) - 1))) == n + 1
        return graph_state(complete), graph_state(star)

    def test_complete_graph_against_star_past_sixteen_qubits(self):
        assert equal_up_to_local_clifford(*self._complete_and_star(17))

    def test_search_past_the_cap_raises(self):
        with pytest.raises(RuntimeError, match="^local-Clifford search space exceeds the oracle limit$"):
            equal_up_to_local_clifford(*self._complete_and_star(20))


class TestGraphStateOperandsReadDirectly:
    """Each operand is reduced once, to its full-width graph form; its kept
    part is pure iff no edge of that form leaves the kept set."""

    @settings(max_examples=300, deadline=None)
    @given(x_identity_tableaux(), st.data())
    def test_direct_read_equals_restricted_graph_form(self, t, data):
        # Keep sets are drawn freely, so either operand's kept part may be
        # mixed; the other operand is t after up to three X or Z measurements.
        # The reference restricts each operand before taking its graph form.
        n = t.n
        post = t
        for v in data.draw(st.sets(st.integers(0, n - 1), max_size=3)):
            basis = data.draw(st.sampled_from("XZ"))
            post, _ = measure_pauli(post, v, basis, forced_outcome=data.draw(st.sampled_from((1, -1))))
        keep = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        for a, b in ((t, post), (post, t), (t, t)):
            assert _verdict(equal_up_to_local_clifford, a, b, keep) == _verdict(
                ref_equal_up_to_local_clifford, a, b, keep
            )
        kept = ref_restrict_to(t, keep)
        if kept is not None and all(x == 1 << i for i, (x, _, _) in enumerate(kept.rows)):
            assert graph_form(kept) == ref_graph_form(kept)

    def test_mixed_kept_part_is_none(self):
        # The edge (1, 2) leaves the kept sets {0, 1} and {0, 2}.  Without
        # it the graph induces the same edge on {0, 1} and its kept part is
        # pure, so checking one operand's purity is not enough.
        mixed = graph_state(Graph(3, [(0, 1), (1, 2)]))
        pure = graph_state(Graph(3, [(0, 1)]))
        for keep in ([0, 1], [0, 2]):
            assert ref_restrict_to(mixed, keep) is None
            assert not equal_up_to_local_clifford(mixed, mixed, keep)
        for a, b in ((pure, mixed), (mixed, pure)):
            assert not equal_up_to_local_clifford(a, b, [0, 1])
            assert not ref_equal_up_to_local_clifford(a, b, [0, 1])
        assert equal_up_to_local_clifford(pure, pure, [0, 1])
        assert equal_up_to_local_clifford(mixed, mixed, [0, 1, 2])

    def test_asymmetric_z_block_raises_after_both_restrictions(self):
        # X0 Z1 and X1 anticommute: no graph form exists.  Both operands are
        # reduced before their kept parts are compared, so the tableau
        # raises whatever the other operand is, a mixed one included.
        bad = StabilizerTableau(3, ((1, 2, 0), (2, 0, 0), (4, 0, 0)))
        for other in (graph_state(Graph(3)), graph_state(Graph(3, [(1, 2)]))):
            for mask in (None, [0, 1]):
                for a, b in ((bad, other), (other, bad)):
                    with pytest.raises(ValueError, match="^graph adjacency must be symmetric$"):
                        equal_up_to_local_clifford(a, b, mask)

    @pytest.mark.parametrize("mask, message", [([0, 5], "invalid qubit 5"), ([7, 1, -1], "invalid qubit -1")])
    def test_mask_qubit_out_of_range(self, mask, message):
        t = graph_state(Graph(3, [(0, 1), (1, 2)]))
        post, _ = measure_pauli(t, 1, "X", forced_outcome=1)
        for a, b in ((t, t), (post, t), (t, post), (post, post)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                equal_up_to_local_clifford(a, b, mask)

    def test_numpy_mask_ids_read_as_python_ints(self):
        # one edge leaves the kept set {0, 1, 2}, none leaves the whole set
        a = graph_state(Graph(4, [(0, 1), (1, 2), (2, 3)]))
        b = graph_state(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)]))
        for mask in (range(4), range(3)):
            for x, y in ((a, b), (a, a), (b, b)):
                want = equal_up_to_local_clifford(x, y, list(mask))
                assert equal_up_to_local_clifford(x, y, np.arange(mask.stop)) == want
        with pytest.raises(TypeError):
            equal_up_to_local_clifford(a, a, [0, 0.5])


class TestBadInputFailsLoudly:
    def test_mask_qubit_beyond_range(self):
        t = graph_state(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(ValueError, match="invalid qubit 5"):
            equal_up_to_local_clifford(t, t, [0, 5])

    def test_negative_keep_qubit(self):
        t = graph_state(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(ValueError, match="invalid qubit -1"):
            equal_up_to_local_clifford(t, t, [-1, 0, 1, 2])

    @pytest.mark.parametrize("forced", [0, 2, -2, 0.5, "1"])
    def test_forced_outcome_must_be_plus_or_minus_one(self, forced):
        t = graph_state(Graph(2, [(0, 1)]))
        with pytest.raises(ValueError, match="forced outcome must be"):
            measure_pauli(t, 0, "Z", forced_outcome=forced)
        with pytest.raises(ValueError, match="forced outcome must be"):
            measure_pauli(graph_state(Graph(1)), 0, "X", forced_outcome=forced)  # deterministic

    def test_graph_form_rejects_asymmetric_block(self):
        # X0 Z1 and X1 anticommute, so no graph form exists
        with pytest.raises(ValueError, match="graph adjacency must be symmetric"):
            graph_form(StabilizerTableau(2, ((1, 2, 0), (2, 0, 0))))

    def test_empty_mask_still_refuses_bad_operands(self):
        # nothing kept is trivially equal, but only for valid operands
        good = graph_state(Graph(2, [(0, 1)]))
        for bad, message in (
            (StabilizerTableau(2, ((1, 2, 0), (2, 0, 0))), "^graph adjacency must be symmetric$"),
            (StabilizerTableau(2, ((1, 0, 0),)), "^expected 2 generators, got 1$"),
            (StabilizerTableau(2, ((1, 0, 0), (1, 0, 0))), "^generators are dependent or do not commute$"),  # dependent
            (StabilizerTableau(2, ((1, 0, 0), (0, 1, 0))), "^generators are dependent or do not commute$"),  # X0, Z0
        ):
            with pytest.raises(ValueError, match=message):
                graph_form(bad)
            for a, b in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match=message):
                    equal_up_to_local_clifford(a, b, [])
        assert equal_up_to_local_clifford(good, graph_state(Graph(2)), [])

    @pytest.mark.parametrize("rows", [((1, 0, 0),), ((1, 0, 0), (2, 0, 0), (1, 0, 0))], ids=["short", "long"])
    def test_wrong_generator_count_raises(self, rows):
        # one generator short is a mixed state, one over is no tableau at all
        t, good = StabilizerTableau(2, rows), graph_state(Graph(2))
        message = f"^expected 2 generators, got {len(rows)}$"
        with pytest.raises(ValueError, match=message):
            graph_form(t)
        for a, b in ((t, good), (good, t)):
            with pytest.raises(ValueError, match=message):
                equal_up_to_local_clifford(a, b)

    def test_graph_form_rejects_generator_outside(self):
        with pytest.raises(ValueError, match="generator 1 acts outside 2 qubits"):
            graph_form(StabilizerTableau(2, ((1, 0, 0), (4, 0, 0))))

    @pytest.mark.parametrize("mask", [[0, 2], [1, 2], [0, 1], None])
    @pytest.mark.parametrize("rows, bad", [
        (((1, 8, 0), (2, 0, 0), (4, 0, 0)), 0),  # Z on qubit 3, X block the identity
        (((1, 0, 0), (2, 0, 0), (4, 16, 0)), 2),  # Z on qubit 4, X block the identity
        (((1, 0, 0), (10, 0, 0), (4, 0, 0)), 1),  # X on qubit 3
    ], ids=["z3", "z4", "x3"])
    def test_generator_outside_n_qubits_raises_for_every_mask(self, rows, bad, mask):
        # a stray bit must not be compressed away by the repack of a mask
        t = StabilizerTableau(3, rows)
        message = f"^generator {bad} acts outside 3 qubits$"
        with pytest.raises(ValueError, match=message):
            graph_form(t)
        good = graph_state(Graph(3, [(0, 1)]))
        for a, b in ((t, t), (t, good), (good, t)):
            with pytest.raises(ValueError, match=message):
                equal_up_to_local_clifford(a, b, mask)

    def test_invalid_qubits_raise_under_optimize(self):
        script = "\n".join([
            "from mecnet.graph import Graph",
            "from mecnet.stabilizer import StabilizerTableau, equal_up_to_local_clifford, graph_form, graph_state, measure_pauli",
            "t = graph_state(Graph(3, [(0, 1), (1, 2)]))",
            "print('debug', __debug__)",
            "for call in (lambda: equal_up_to_local_clifford(t, t, [0, 5]),",
            "             lambda: graph_form(StabilizerTableau(2, ((1, 0, 0), (4, 0, 0)))),",
            "             lambda: graph_form(StabilizerTableau(2, ((1, 0, 0), (0, 1, 0)))),",
            "             lambda: measure_pauli(t, 0, 'Z', forced_outcome=0)):",
            "    try:",
            "        call()",
            "    except ValueError as exc:",
            "        print('raised', exc)",
        ])
        src = os.path.dirname(os.path.dirname(mecnet.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "debug False",
            "raised invalid qubit 5",
            "raised generator 1 acts outside 2 qubits",
            "raised generators are dependent or do not commute",
            "raised forced outcome must be +1 or -1, got 0",
        ]
