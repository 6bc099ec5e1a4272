"""Desk-scale stabilizer-tableau simulator used as ground truth.

A state on ``n`` qubits is held as ``n`` independent, mutually commuting
Pauli generators.  Each generator is ``(x, z, phase)`` with ``x``/``z``
bitmasks and ``phase`` mod 4, under the convention

    P = i**phase * (X**x) * (Z**z)

applied qubit-wise.  A generator is Hermitian with sign +1 when
``phase == popcount(x & z) (mod 4)`` and sign -1 when they differ by 2.

A tableau is checked only by ``graph_form``, which refuses any that is
not a stabilizer state, signs aside, and reduces each tableau at most once.
Rows in graph form (generator i has X part X_i, as from ``graph_state``)
skip the elimination but not the count, range or symmetry checks.  Others
take a Hadamard on each column outside the X block's top-down greedy
basis, then one elimination of the swapped rows.

The equivalence check ``equal_up_to_local_clifford`` decides whether two
states are related by a tensor product of single-qubit Cliffords on a set
of surviving qubits.  Sign patterns never matter for that question: once
the generator spans match under per-qubit symplectic maps, any residual
sign mismatch is a group character and is realized by single-qubit Pauli
conjugations.  The span matching itself reduces, per connected component
of the graph form, to a GF(2) linear system over per-qubit 2x2 blocks
with an invertibility side condition.

Every function takes any width: the one cost guard, ``_LC_SEARCH_CAP``,
bounds the local-Clifford search, not the qubit count.  The measurement
selects the rows that anticommute with X_q or Z_q by bit q of their Z or
X part, and the graph form's symmetry test is one block transpose of the
packed rows (Warren, Hacker's Delight, §7-3), in log2(width) steps.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graph import Graph, bits, components

__all__ = [
    "StabilizerTableau",
    "graph_state",
    "measure_pauli",
    "graph_form",
    "equal_up_to_local_clifford",
]

Row = tuple[int, int, int]


def _row_mul(r1: Row, r2: Row) -> Row:
    x1, z1, p1 = r1
    x2, z2, p2 = r2
    # Z**z1 past X**x2 contributes (-1) per overlapping qubit.
    phase = (p1 + p2 + 2 * (z1 & x2).bit_count()) % 4
    return (x1 ^ x2, z1 ^ z2, phase)


@dataclass(frozen=True)
class StabilizerTableau:
    """n mutually commuting, independent signed Pauli generators.

    The constructor checks nothing: :func:`graph_form` refuses any tableau
    that is not a stabilizer state, signs aside.
    """

    n: int
    rows: tuple[Row, ...]

    @functools.cached_property
    def _graph_form(self) -> tuple[int, ...]:
        # The rows are immutable, so the form cannot go stale; a refusal
        # raises out of the property and is not cached.
        return _reduce(self)


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """Echelon basis ``{top bit: row}`` of the GF(2) span of ``rows``.

    Each row is reduced only by the pivots on its own successive top bits:
    every step clears the current top bit, and a row whose top bit has no
    pivot yet becomes that pivot.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            prow = pivots.get(top)
            if prow is None:
                pivots[top] = row
                break
            row ^= prow
    return pivots


def graph_state(g: Graph) -> StabilizerTableau:
    """Tableau of the graph state of ``g``: generator i is X_i Z_{N(i)}.

    A deleted vertex is an isolated slot, so its qubit is in the |+> state
    (a bare X_i generator) and measured-out graphs stay comparable at full
    width.  Any vertex count is accepted.
    """
    rows = tuple((1 << i, m, 0) for i, m in enumerate(g.adjacency))
    return StabilizerTableau(g.vertex_count, rows)


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
) -> tuple[StabilizerTableau, int]:
    """Measure X or Z on qubit ``q``; returns the post-state and the ±1 outcome.

    When the outcome is random, ``forced_outcome`` (+1 or -1) selects the
    branch, and without it ValueError is raised: nothing is drawn.  A
    deterministic outcome ignores ``forced_outcome``.
    """
    q = operator.index(q)
    b = _basis_row(t.n, q, basis)
    if forced_outcome is not None and forced_outcome not in (1, -1):
        raise ValueError(f"forced outcome must be +1 or -1, got {forced_outcome!r}")
    # A row anticommutes with X_q iff it has Z on q, and with Z_q iff X.
    part = 1 if basis == "X" else 0
    anti = [i for i, r in enumerate(t.rows) if r[part] >> q & 1]
    if anti:
        if forced_outcome is None:
            raise ValueError(f"{basis} on qubit {q} has a random outcome; pass forced_outcome")
        outcome = 1 if forced_outcome == 1 else -1
        rows = list(t.rows)
        pivot = anti[0]
        px, pz, pp = rows[pivot]
        # rows[i] times the pivot, as _row_mul(rows[i], rows[pivot])
        for i in anti[1:]:
            x, z, p = rows[i]
            rows[i] = (x ^ px, z ^ pz, (p + pp + 2 * (z & px).bit_count()) % 4)
        rows[pivot] = (b[0], b[1], 0 if outcome == 1 else 2)
        return StabilizerTableau(t.n, tuple(rows)), outcome
    # Deterministic: express b as a product of generators and read the sign.
    # Below its Pauli part each vector is tagged with the generators it
    # combines (bits 0..k-1) and with b itself (bit k).  If b lies in the
    # group, it reduces to a pure tag whose top bit is k.
    k = len(t.rows)
    vecs = [(x << t.n | z) << (k + 1) | 1 << i for i, (x, z, _) in enumerate(t.rows)]
    vecs.append((b[0] << t.n | b[1]) << (k + 1) | 1 << k)
    combo = _echelon(vecs).get(k)
    if combo is None:
        raise ValueError("commuting Pauli must lie in the stabilizer group")
    acc: Row = (0, 0, 0)
    for i in bits(combo ^ 1 << k):
        acc = _row_mul(acc, t.rows[i])
    outcome = 1 if acc[2] % 4 == 0 else -1
    return t, outcome


# -- kept qubits --------------------------------------------------------------


def _qubit_mask(n: int, qubits: Iterable[int]) -> int:
    """Bit mask of ``qubits``, any ids that ``operator.index`` takes; a
    qubit outside ``range(n)`` raises ValueError that names the lowest such
    qubit."""
    qubits = tuple(qubits)
    mask = 0
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"invalid qubit {min(q for q in qubits if not 0 <= q < n)}")
        mask |= 1 << operator.index(q)
    return mask


# -- graph form and local-Clifford equivalence --------------------------------


@functools.cache
def _transpose_stages(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each stage of the block transpose of a w×w bit
    matrix, w a power of two, with entry (i, j) at bit i*w + j.

    The stage for s = w/2, ..., 1 swaps entry (i, j) with (i + s, j - s)
    wherever bit s is clear in i and set in j: ``mask`` holds the first of
    each pair, and the second sits ``s * (w - 1)`` places above it.  The
    stages swap disjoint bits of the row and column index, so together
    they exchange the two indices (Warren, Hacker's Delight, §7-3).
    """
    stages = []
    s = w >> 1
    while s:
        high_cols = sum(1 << j for j in range(w) if j & s)
        stages.append((s * (w - 1), sum(high_cols << (i * w) for i in range(w) if not i & s)))
        s >>= 1
    return tuple(stages)


def _symmetric(adj: Sequence[int]) -> bool:
    """True iff the bit matrix with rows ``adj`` (masks over ``len(adj)``
    columns) equals its transpose.

    The rows are packed at the power-of-two stride w >= len(adj), zero
    padded, and the block transpose of that w×w matrix takes log2(w)
    whole-matrix swap stages ``t = (x ^ x >> shift) & mask;
    x ^= t ^ t << shift`` (see ``_transpose_stages``); then one comparison
    with the packed rows decides.
    """
    w = 1 << (len(adj) - 1).bit_length()
    packed = 0
    for i, row in enumerate(adj):
        packed |= row << (i * w)
    x = packed
    for shift, mask in _transpose_stages(w):
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return x == packed


def graph_form(t: StabilizerTableau) -> tuple[int, ...]:
    """Adjacency masks of a graph state locally Clifford-equivalent to ``t``.

    Signs are irrelevant here and are dropped.  ValueError is raised on
    each of the four ways a tableau fails to be a stabilizer state: a
    count other than ``t.n`` generators, a generator with a bit outside
    ``t.n`` qubits, dependent generators (no graph form) and generators
    that do not commute (an asymmetric adjacency, or no graph form).

    A tableau is reduced at most once: it keeps its form, and every later
    call returns the same tuple.  A refusal is not kept, so a bad tableau
    raises on every call.
    """
    return t._graph_form


def _reduce(t: StabilizerTableau) -> tuple[int, ...]:
    """The reduction behind :func:`graph_form`, which see."""
    m = t.n
    if len(t.rows) != m:
        raise ValueError(f"expected {m} generators, got {len(t.rows)}")
    full = (1 << m) - 1
    for i, (x, z, _) in enumerate(t.rows):
        if (x | z) & ~full:
            raise ValueError(f"generator {i} acts outside {m} qubits")
    if all(r[0] == 1 << i for i, r in enumerate(t.rows)):
        # Rows already in graph form, X_i Z^z as a graph state has them:
        # each row would be its own pivot, with no Hadamard columns, and
        # back-substitution would change nothing.
        adj = tuple(z & ~(1 << i) for i, (_, z, _) in enumerate(t.rows))
    else:
        # Hadamards on h, the columns outside the X block's top-down greedy
        # basis, make it invertible: the X-free products span the Z vectors
        # orthogonal to the X rows, which map one-to-one onto h.  The swapped
        # rows, X block first, are eliminated once: column c pivots at m + c.
        h = full
        for top in _echelon([x for x, _, _ in t.rows]):
            h ^= 1 << top
        k = full ^ h
        pivots = _echelon([(x & k | z & h) << m | z & k | x & h for x, z, _ in t.rows])
        # Back-substitute, lowest pivot first, so that row c becomes
        # X_c Z^zs[c]; then clear the diagonal of the Z block with
        # phase-gate column maps.
        zs: list[int] = []
        for c in range(m):
            row = pivots.get(m + c)
            if row is None:
                raise ValueError("generators are dependent or do not commute")
            x = row >> m ^ 1 << c
            z = row & full
            while x:
                low = x & -x
                x ^= low
                z ^= zs[low.bit_length() - 1]
            zs.append(z)
        adj = tuple(z & ~(1 << c) for c, z in enumerate(zs))
    if not _symmetric(adj):
        raise ValueError("graph adjacency must be symmetric")
    return adj


def _kernel(columns: Sequence[int]) -> list[int]:
    """Null-space basis of the GF(2) system whose unknown ``u`` has the
    coefficient column ``columns[u]``, a mask over the equations.

    Each column is tagged with its unknown's bit below the column bits, so
    one echelon pass finds the combinations of columns that sum to zero:
    exactly the pivots whose top bit falls in the tag.
    """
    w = len(columns)
    pivots = _echelon(col << w | 1 << u for u, col in enumerate(columns))
    return [row for top, row in pivots.items() if top < w]


def _lc_columns(ga: Sequence[int], gb: Sequence[int], comp: int) -> list[int]:
    """Coefficient columns of the local-Clifford system between two
    symmetric adjacencies on ``n`` vertices, over a connected component
    ``comp`` of both: unknowns (c | a | b | d), one per vertex of ``comp``
    in ascending order.

    Per-qubit blocks [[a, b], [c, d]] map ``ga``'s graph state onto
    ``gb``'s on ``comp`` exactly when, for every entry (i, j),

        a_i*GB_ij + b_i*[i==j] + sum_l c_l*GA_il*GB_lj + d_j*GA_ij = 0

    (Van den Nest, Dehaene & De Moor, PRA 70, 034302, 2004).  Equation
    (i, j) is bit i*n + j of each column; no row of ``comp`` has a bit
    outside it, so equations outside ``comp`` have no term.  ``spread``
    holds GA_il at bit i*n: by symmetry that is column l of the rows of
    ``comp`` packed n bits apart, one shift-and-mask, and times ``gb[l]``
    (n bits) it lays row GB_l at each of those places with no carries.
    """
    n = len(ga)
    packed = 0
    for i in bits(comp):
        packed |= ga[i] << (i * n)
    ones = ((1 << n * n) - 1) // ((1 << n) - 1)
    c, a, b, d = [], [], [], []
    for l in bits(comp):
        spread = packed >> l & ones
        c.append(spread * gb[l])
        a.append(gb[l] << (l * n))
        b.append(1 << (l * n + l))
        d.append(spread << l)
    return c + a + b + d


_LC_SEARCH_CAP = 1 << 20


def _component_lc_match(ga: Sequence[int], gb: Sequence[int], comp: int) -> bool:
    """Per-qubit symplectic map existence between two graph adjacencies,
    restricted to the connected component with vertex mask ``comp``."""
    if all(ga[v] == gb[v] for v in bits(comp)):
        return True
    m = comp.bit_count()
    basis = _kernel(_lc_columns(ga, gb, comp))
    if not basis:
        return False
    if 1 << len(basis) > _LC_SEARCH_CAP:
        raise RuntimeError("local-Clifford search space exceeds the oracle limit")
    lo = (1 << m) - 1
    sol = 0
    for counter in range(1, 1 << len(basis)):
        sol ^= basis[(counter & -counter).bit_length() - 1]
        c = sol & lo
        a = sol >> m & lo
        b = sol >> (2 * m) & lo
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
    A mask qubit outside ``range(a.n)``, or an operand that
    :func:`graph_form` refuses, raises ValueError; a component whose
    local-Clifford search exceeds ``_LC_SEARCH_CAP`` raises RuntimeError.
    """
    if a.n != b.n:
        raise ValueError("tableaux must have the same qubit count")
    keep_mask = (1 << a.n) - 1 if mask is None else _qubit_mask(a.n, mask)
    # Both operands are reduced even when nothing is kept, so that a bad
    # one raises whatever the mask; an empty keep set then passes below.
    ga, gb = graph_form(a), graph_form(b)
    # Single-qubit Cliffords keep the support of every Pauli, so they carry
    # the subgroup supported on the kept qubits onto that of the graph form.
    # There it is whole, and the kept part pure, iff no edge leaves the kept
    # set; the kept part is then the graph state of the induced subgraph.
    # The same pass finds equal kept forms, which need no component split
    # (most oracle checks).
    equal = True
    for q in bits(keep_mask):
        ra, rb = ga[q], gb[q]
        if (ra | rb) & ~keep_mask:
            return False
        if ra != rb:
            equal = False
    if equal:
        return True
    comps = components(ga, keep_mask)
    if comps != components(gb, keep_mask):
        return False
    # single-qubit components are always locally related
    return all(c & (c - 1) == 0 or _component_lc_match(ga, gb, c) for c in comps)
