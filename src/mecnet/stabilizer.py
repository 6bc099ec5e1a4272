"""Desk-scale stabilizer-tableau simulator used as ground truth.

A state on ``n`` qubits is held as ``n`` independent, mutually commuting
Pauli generators.  Each generator is ``(x, z, phase)`` with ``x``/``z``
bitmasks and ``phase`` mod 4, under the convention

    P = i**phase * (X**x) * (Z**z)

applied qubit-wise.  A generator is Hermitian with sign +1 when
``phase == popcount(x & z) (mod 4)`` and sign -1 when they differ by 2.

The equivalence check ``equal_up_to_local_clifford`` decides whether two
states are related by a tensor product of single-qubit Cliffords on a set
of surviving qubits.  Sign patterns never matter for that question: once
the generator spans match under per-qubit symplectic maps, any residual
sign mismatch is a group character and is realized by single-qubit Pauli
conjugations.  The span matching itself reduces, per connected component
of the graph form, to a GF(2) linear system over per-qubit 2x2 blocks
with an invertibility side condition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graph import Graph, bits

__all__ = [
    "ORACLE_MAX_QUBITS",
    "StabilizerTableau",
    "graph_state",
    "measure_pauli",
    "outcome_deterministic",
    "restrict_to",
    "graph_form",
    "equal_up_to_local_clifford",
]

ORACLE_MAX_QUBITS = 16

Row = tuple[int, int, int]


def _row_mul(r1: Row, r2: Row) -> Row:
    x1, z1, p1 = r1
    x2, z2, p2 = r2
    # Z**z1 past X**x2 contributes (-1) per overlapping qubit.
    phase = (p1 + p2 + 2 * (z1 & x2).bit_count()) % 4
    return (x1 ^ x2, z1 ^ z2, phase)


def _anticommute(r1: Row, r2: Row) -> bool:
    x1, z1, _ = r1
    x2, z2, _ = r2
    return ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 1


def _row_sign(row: Row) -> int:
    x, z, p = row
    y = (x & z).bit_count()
    if (p - y) % 2:
        raise ValueError("non-Hermitian Pauli row")
    return 1 if (p - y) % 4 == 0 else -1


@dataclass(frozen=True)
class StabilizerTableau:
    """n mutually commuting, independent signed Pauli generators."""

    n: int
    rows: tuple[Row, ...]

    def signs(self) -> tuple[int, ...]:
        return tuple(_row_sign(r) for r in self.rows)

    def check(self) -> None:
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} generators, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for i, r in enumerate(self.rows):
            if r[0] & ~full or r[1] & ~full:
                raise ValueError(f"generator {i} acts outside {self.n} qubits")
            _row_sign(r)
            for r2 in self.rows[i + 1 :]:
                if _anticommute(r, r2):
                    raise ValueError("generators must commute")
        vecs = [(x << self.n) | z for x, z, _ in self.rows]
        if _gf2_rank(vecs) != self.n:
            raise ValueError("generators must be independent")


def _gf2_rank(vectors: Iterable[int]) -> int:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def graph_state(g: Graph) -> StabilizerTableau:
    """Tableau of the graph state of ``g``: generator i is X_i Z_{N(i)}.

    Deleted vertices keep their qubit slot in the |+> state (a bare X_i
    generator), so measured-out graphs stay comparable at full width.
    """
    if g.vertex_count > ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle limit is {ORACLE_MAX_QUBITS} qubits")
    rows = tuple((1 << i, g.neighbor_mask(i), 0) for i in range(g.vertex_count))
    return StabilizerTableau(g.vertex_count, rows)


def outcome_deterministic(t: StabilizerTableau, q: int, basis: str) -> bool:
    """True iff measuring ``basis`` on qubit ``q`` has a forced outcome."""
    b = _basis_row(t.n, q, basis)
    return not any(_anticommute(r, b) for r in t.rows)


def _basis_row(n: int, q: int, basis: str) -> Row:
    if not 0 <= q < n:
        raise ValueError(f"invalid qubit {q}")
    if basis == "X":
        return (1 << q, 0, 0)
    if basis == "Z":
        return (0, 1 << q, 0)
    raise ValueError(f"unsupported basis {basis!r}")


def measure_pauli(
    t: StabilizerTableau,
    q: int,
    basis: str,
    forced_outcome: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> tuple[StabilizerTableau, int]:
    """Measure X or Z on qubit ``q``; returns the post-state and the ±1 outcome.

    When the outcome is random, ``forced_outcome`` selects the branch; with
    neither ``forced_outcome`` nor ``rng`` given, a module-default RNG is
    used.  A deterministic outcome ignores ``forced_outcome``.
    """
    b = _basis_row(t.n, q, basis)
    anti = [i for i, r in enumerate(t.rows) if _anticommute(r, b)]
    if anti:
        if forced_outcome is not None:
            outcome = 1 if forced_outcome > 0 else -1
        else:
            outcome = (rng or random).choice((1, -1))
        rows = list(t.rows)
        pivot = anti[0]
        for i in anti[1:]:
            rows[i] = _row_mul(rows[i], rows[pivot])
        rows[pivot] = (b[0], b[1], 0 if outcome == 1 else 2)
        return StabilizerTableau(t.n, tuple(rows)), outcome
    # Deterministic: express b as a product of generators and read the sign.
    pivots: list[tuple[int, int, Row]] = []
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
    acc: Row = (0, 0, 0)
    for pb, pv, pr in pivots:
        if target >> pb & 1:
            target ^= pv
            acc = _row_mul(acc, pr)
    if target != 0 or acc[0] != b[0] or acc[1] != b[1]:
        raise ValueError("commuting Pauli must lie in the stabilizer group")
    outcome = 1 if acc[2] % 4 == 0 else -1
    return t, outcome


# -- restriction to a subsystem ----------------------------------------------


def _compress(mask_bits: int, positions: Sequence[int]) -> int:
    out = 0
    for i, p in enumerate(positions):
        if mask_bits >> p & 1:
            out |= 1 << i
    return out


def restrict_to(t: StabilizerTableau, keep: Iterable[int]) -> Optional[StabilizerTableau]:
    """Stabilizer subgroup supported on ``keep``, repacked to len(keep) qubits.

    Returns None when the kept subsystem is not in a pure (product) state,
    i.e. when fewer than len(keep) independent generators act trivially on
    the discarded qubits.
    """
    positions = sorted(set(keep))
    m = len(positions)
    outside = [q for q in range(t.n) if q not in positions]
    rows = list(t.rows)
    # Eliminate x then z support on each discarded qubit.
    used: set[int] = set()
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
        (_compress(x, positions), _compress(z, positions), p)
        for x, z, p in rows
        if not (x & out_mask or z & out_mask)
    ]
    if len(kept_rows) != m:
        return None
    return StabilizerTableau(m, tuple(kept_rows))


# -- graph form and local-Clifford equivalence --------------------------------


def graph_form(t: StabilizerTableau) -> tuple[int, ...]:
    """Adjacency masks of a graph state locally Clifford-equivalent to ``t``.

    Signs are irrelevant here and are dropped.
    """
    m = t.n
    xs = [r[0] for r in t.rows]
    zs = [r[1] for r in t.rows]
    for _ in range(m + 1):
        # Row-reduce the X block.
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
        # Pure-Z rows exist; a Hadamard on a non-pivot support column
        # strictly raises the X rank (guaranteed by commutation).
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
    # Reorder rows so row j carries X pivot j, then clear the diagonal
    # of the Z block with phase-gate column maps.
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


def _components(adj: Sequence[int]) -> list[frozenset[int]]:
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


def _nullspace(rows: list[int], width: int) -> list[int]:
    """Null-space basis of a GF(2) system given as coefficient row masks."""
    pivots: dict[int, int] = {}
    for row in rows:
        for col, prow in pivots.items():
            if row >> col & 1:
                row ^= prow
        if not row:
            continue
        col = row.bit_length() - 1
        # Keep full RREF: clear the new pivot column from existing rows.
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


_LC_SEARCH_CAP = 1 << 20


def _component_lc_match(ga: Sequence[int], gb: Sequence[int], verts: Sequence[int]) -> bool:
    """Per-qubit symplectic map existence between two graph adjacencies,
    restricted to one connected component."""
    idx = {v: i for i, v in enumerate(verts)}
    m = len(verts)
    ra = [_compress(ga[v], verts) for v in verts]
    rb = [_compress(gb[v], verts) for v in verts]
    if ra == rb:
        return True
    # Unknowns: diagonals (a | b | c | d), 4m bits.  For every entry (i, j):
    #   a_i*GB_ij + b_i*[i==j] + sum_l c_l*GA_il*GB_lj + d_j*GA_ij = 0
    eqs = []
    for i in range(m):
        for j in range(m):
            row = 0
            if rb[i] >> j & 1:
                row |= 1 << i
            if i == j:
                row |= 1 << (m + i)
            cmask = ra[i] & rb[j]  # symmetric adjacency: column j == row j
            row |= cmask << (2 * m)
            if ra[i] >> j & 1:
                row |= 1 << (3 * m + j)
            if row:
                eqs.append(row)
    basis = _nullspace(eqs, 4 * m)
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
        # Every per-qubit 2x2 block must be invertible: a*d xor b*c == 1.
        if ((a & d) ^ (b & c)) == lo:
            return True
    return False


def equal_up_to_local_clifford(
    a: StabilizerTableau,
    b: StabilizerTableau,
    mask: Optional[Iterable[int]] = None,
) -> bool:
    """True iff some tensor product of single-qubit Cliffords on the masked
    qubits maps a's stabilizer group onto b's.

    Qubits outside the mask must be disentangled from it in both states
    (they are discarded before comparison); otherwise False is returned.
    """
    if a.n != b.n:
        raise ValueError("tableaux must have the same qubit count")
    keep = sorted(set(range(a.n) if mask is None else mask))
    if not keep:
        return True
    ra = restrict_to(a, keep)
    rb = restrict_to(b, keep)
    if ra is None or rb is None:
        return False
    ga = graph_form(ra)
    gb = graph_form(rb)
    ca = _components(ga)
    cb = _components(gb)
    if set(ca) != set(cb):
        return False
    for comp in ca:
        if len(comp) < 2:
            continue  # single-qubit states are always locally related
        if not _component_lc_match(ga, gb, sorted(comp)):
            return False
    return True
