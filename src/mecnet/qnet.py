"""Inter-QNet structures and the controlled complementation procedure.

An Inter-QNet partitions data vertices into k domains ("QNets") and keeps
only cross-domain edges.  A Controlled Inter-QNet appends k' control
vertices (k' = k + k mod 2) forming a clique, with control a attached to
every vertex of QNet a; the parity-padding control, present when k is
odd, sits only in the clique.

X-measuring the controls in order turns the data graph into its
cross-domain complement; Z-measuring them restores the original network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import Graph, MeasurementRecord, bits, graph_from_edgelist, graph_to_edgelist
from .graph import _int_fields, masks_to_matrix

__all__ = [
    "QNetPartition",
    "InterQNet",
    "ControlledInterQNet",
    "build_controlled",
    "complement_inter_qnet",
    "mec_complementation",
    "restore_original",
    "instance_to_text",
    "instance_from_text",
]


@dataclass(frozen=True)
class QNetPartition:
    """Assignment of data vertices to QNets 1..k.

    ``membership[v]`` is the QNet index of data vertex ``v``, and
    ``masks[a - 1]`` holds QNet a's members as a bitmask, built once.
    """

    k: int
    membership: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one QNet")
        if any(not 1 <= a <= self.k for a in self.membership):
            raise ValueError("membership values must lie in 1..k")
        if self.k > self.data_count:
            # some QNet up to d + 1 is empty; name it without building k masks
            empty = min(set(range(1, self.data_count + 2)).difference(self.membership))
            raise ValueError(f"QNet {empty} is empty")
        if not all(self.masks):
            raise ValueError(f"QNet {self.masks.index(0) + 1} is empty")

    @property
    def k_prime(self) -> int:
        return self.k + (self.k % 2)

    @property
    def data_count(self) -> int:
        return len(self.membership)

    @cached_property
    def control_nodes(self) -> tuple[int, ...]:
        """Ids of the k' controls of the controlled network, right after the
        data vertices; control a joins QNet a, and when k is odd the last
        one has no QNet of its own."""
        d, kp = self.data_count, self.k_prime
        return tuple(range(d, d + kp))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """QNet a's members as a bitmask, at index a - 1."""
        masks = [0] * self.k
        for v, a in enumerate(self.membership):
            masks[a - 1] |= 1 << v
        return tuple(masks)


def _check_cross_domain(graph: Graph, part: QNetPartition) -> None:
    """Raise ValueError on the first edge, in edge-list order, that joins two
    data vertices of one QNet.

    The first data vertex ``u`` with such a neighbour has none below it
    (that neighbour would have been found first), so its lowest one gives
    that edge.
    """
    masks = part.masks
    for u, a in enumerate(part.membership):
        inside = graph.neighbor_mask(u) & masks[a - 1]
        if inside:
            v = (inside & -inside).bit_length() - 1
            raise ValueError(f"edge ({u},{v}) stays inside QNet {a}")


@dataclass(frozen=True)
class InterQNet:
    """Cross-domain graph over the data vertices of a QNetPartition.

    Complement networks are allowed to be disconnected.
    """

    graph: Graph
    partition: QNetPartition

    def __post_init__(self) -> None:
        if self.graph.vertex_count != self.partition.data_count:
            raise ValueError("graph size does not match the partition")
        _check_cross_domain(self.graph, self.partition)

    def __getstate__(self) -> dict:
        # the cached complement, matrix, pool and hop table are left out, as
        # their read-only arrays would come back writeable; they are rebuilt
        # on first use
        return {"graph": self.graph, "partition": self.partition}

    @cached_property
    def _complement(self) -> "InterQNet":
        part = self.partition
        masks, full = part.masks, (1 << part.data_count) - 1
        adj = tuple(full & ~masks[a - 1] & ~m for m, a in zip(self.graph.adjacency, part.membership))
        comp = InterQNet(Graph._from_parts(adj), part)
        comp.edge_arrays  # the pool and its bit matrix, built here rather than in a batch
        return comp

    @cached_property
    def _cqr_intermediates(self) -> np.ndarray:
        """The intermediate count of the CQR route of each complement edge,
        in ``edge_arrays`` order, read-only: 1 where its two ends share a
        data neighbour here, else 2, through their two controls (two remote
        ends share no control).  The float32 product counts common
        neighbours exactly: a count is at most ``graph.MAX_VERTICES``,
        below 2**24."""
        us, vs = self._complement.edge_arrays
        m = self.adjacency_matrix.astype(np.float32)
        table = np.where((m @ m)[us, vs] > 0, np.int8(1), np.int8(2))
        table.flags.writeable = False  # shared by every batch drawn from the pool
        return table

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """The n×n boolean adjacency matrix (``graph.masks_to_matrix`` of the
        neighbour masks); on a complement, the scheduler reads its requests'
        reach off its rows."""
        g = self.graph
        m = masks_to_matrix(g.adjacency, g.vertex_count)
        m.flags.writeable = False  # shared by every caller
        return m

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges ``(u, v)``, ``u < v``, as two index arrays in ``Graph.edges()``
        order (lexicographic); on a complement, the pool ``sample_requests``
        draws from."""
        us, vs = np.nonzero(np.triu(self.adjacency_matrix, 1))
        us.flags.writeable = vs.flags.writeable = False  # shared by every caller
        return us, vs


@dataclass(frozen=True)
class ControlledInterQNet:
    """Inter-QNet augmented with a fully connected control layer.

    ``graph`` is built from ``data``, the only field, and ``partition`` is
    the data network's own: controls ``partition.control_nodes`` follow the
    ``d`` data vertices."""

    data: InterQNet
    graph: Graph = field(init=False, repr=False, compare=False)
    partition: QNetPartition = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        part, g = self.data.partition, self.data.graph
        d, kp = part.data_count, part.k_prime
        # data vertex v keeps its links and gains its QNet's control; each
        # control gets the clique minus itself plus its QNet's members
        clique = ((1 << kp) - 1) << d
        members = part.masks + (0,) * (kp - part.k)
        adj = [m | 1 << (d + a - 1) for m, a in zip(g.adjacency, part.membership)]
        adj += [clique & ~(1 << c) | m for c, m in zip(part.control_nodes, members)]
        graph = Graph._from_parts(tuple(adj))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "partition", part)

    @property
    def data_count(self) -> int:
        return self.partition.data_count


def build_controlled(iq: InterQNet) -> ControlledInterQNet:
    """Append k' fresh controls: a clique, plus control a joined to QNet a."""
    return ControlledInterQNet(iq)


def complement_inter_qnet(iq: InterQNet) -> InterQNet:
    """Cross-domain complement: keep exactly the absent cross-QNet pairs.
    It is built once per network, with its ``edge_arrays`` and the CQR hop
    table over them, and kept on ``iq``."""
    iq._cqr_intermediates  # the table, built here rather than in a batch
    return iq._complement


def mec_complementation(cg: ControlledInterQNet) -> tuple[InterQNet, list[MeasurementRecord]]:
    """X-measure every control node in order; the surviving data graph is
    the cross-domain complement of the underlying network.

    The special neighbor of every control is ``k0``, the lowest vertex of
    QNet 1.  It neighbors the first control, and from the first measurement
    on it neighbors every remaining control, so each measurement is defined.
    """
    first = cg.partition.masks[0]
    k0 = (first & -first).bit_length() - 1
    g = cg.graph
    records: list[MeasurementRecord] = []
    for c in cg.partition.control_nodes:
        g, rec = g.measure_x(c, k0)
        records.append(rec)
    return InterQNet(g.restrict(cg.data_count), cg.partition), records


def restore_original(cg: ControlledInterQNet) -> InterQNet:
    """Z-measure every control node, recovering the original network."""
    g = cg.graph.keep((1 << cg.data_count) - 1)
    return InterQNet(g.restrict(cg.data_count), cg.partition)


# -- instance files ----------------------------------------------------------


def instance_to_text(iq: InterQNet) -> str:
    """Serialize a data network: the :func:`graph_to_edgelist` text, then
    one ``qnet a: v,...`` line per QNet.  The control layer is not written;
    :func:`build_controlled` makes it from the data network alone."""
    lines = [f"qnet {a}: " + ",".join(map(str, bits(m))) for a, m in enumerate(iq.partition.masks, 1)]
    return graph_to_edgelist(iq.graph) + "\n".join(lines) + "\n"


def instance_from_text(text: str) -> InterQNet:
    """Parse :func:`instance_to_text` output.

    The ``qnet`` lines are read here and every other line by
    :func:`graph_from_edgelist`, so the ``n=`` header must come before the
    edges; each of the ``n`` vertices must be in exactly one QNet, and
    every id from 1 to the highest must hold a vertex.  A malformed line
    raises ValueError naming it.
    """
    graph_lines, qnet_lines = [], []
    for raw in text.splitlines():
        line = raw.strip()
        is_qnet = line.partition(":")[0].split()[:1] == ["qnet"]
        (qnet_lines if is_qnet else graph_lines).append(line)
    g = graph_from_edgelist("\n".join(graph_lines))
    n = g.vertex_count
    qnet_ids: set[int] = set()
    qnet_of: dict[int, int] = {}
    for line in qnet_lines:
        head, sep, body = line.partition(":")
        (a,) = _int_fields(line, head.split()[1:], 1)
        if not sep or a in qnet_ids:
            raise ValueError(f"malformed line: {line!r}")
        if a < 1:
            raise ValueError(f"malformed line: {line!r}: QNet ids start at 1")
        qnet_ids.add(a)
        for v in _int_fields(line, body.split(",")):
            if not 0 <= v < n:
                raise ValueError(f"malformed line: {line!r}: vertex {v} is not a data vertex (n={n})")
            if v in qnet_of:
                raise ValueError(
                    f"malformed line: {line!r}: vertex {v} is already in QNet {qnet_of[v]}"
                )
            qnet_of[v] = a
    missing = [v for v in range(n) if v not in qnet_of]
    if missing:
        raise ValueError(f"malformed instance: data vertex {missing[0]} is in no QNet")
    k = max(qnet_ids, default=0)
    members = set(qnet_of.values())
    for a in range(1, k + 1):
        if a not in members:
            raise ValueError(f"malformed instance: QNet {a} has no data vertex (ids run 1..{k})")
    return InterQNet(g, QNetPartition(k, tuple(qnet_of[v] for v in range(n))))
