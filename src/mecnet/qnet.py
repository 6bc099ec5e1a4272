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

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, MeasurementRecord, bits, graph_from_edgelist, graph_to_edgelist, z_record
from .graph import _int_fields

__all__ = [
    "QNetPartition",
    "InterQNet",
    "ControlledInterQNet",
    "build_controlled",
    "complement_inter_qnet",
    "mec_complementation",
    "restore_original",
    "extract_epr",
    "instance_to_text",
    "instance_from_text",
]


@dataclass(frozen=True)
class QNetPartition:
    """Assignment of data vertices to QNets 1..k plus control-node ids.

    ``membership[v]`` is the QNet index of data vertex ``v``.  Control ids
    live outside the membership range; when k is odd the final control has
    no QNet of its own.
    """

    k: int
    membership: tuple[int, ...]
    control_nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one QNet")
        if any(not 1 <= a <= self.k for a in self.membership):
            raise ValueError("membership values must lie in 1..k")
        for a in range(1, self.k + 1):
            if a not in self.membership:
                raise ValueError(f"QNet {a} is empty")
        if self.control_nodes and len(self.control_nodes) != self.k_prime:
            raise ValueError(
                f"expected {self.k_prime} control nodes, got {len(self.control_nodes)}"
            )
        if set(self.control_nodes) & set(range(self.data_count)):
            raise ValueError("control nodes must not be data vertices")

    @property
    def k_prime(self) -> int:
        return self.k + (self.k % 2)

    @property
    def data_count(self) -> int:
        return len(self.membership)

    def members(self, a: int) -> list[int]:
        return [v for v, qa in enumerate(self.membership) if qa == a]

    def sizes(self) -> list[int]:
        out = [0] * self.k
        for a in self.membership:
            out[a - 1] += 1
        return out

    def qnet_masks(self) -> list[int]:
        """Bitmask of members per QNet, index 0 unused."""
        masks = [0] * (self.k + 1)
        for v, a in enumerate(self.membership):
            masks[a] |= 1 << v
        return masks

    def without_controls(self) -> "QNetPartition":
        return QNetPartition(self.k, self.membership, ())


def _check_cross_domain(graph: Graph, part: QNetPartition) -> None:
    """Raise ValueError on the first edge, in edge-list order, that joins two
    data vertices of one QNet.

    The first data vertex ``u`` with such a neighbour has none below it
    (that neighbour would have been found first), so its lowest one gives
    that edge.
    """
    qmasks = part.qnet_masks()
    for u, a in enumerate(part.membership):
        inside = graph.neighbor_mask(u) & qmasks[a]
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
        if self.partition.control_nodes:
            raise ValueError("InterQNet carries no control nodes")
        if self.graph.vertex_count != self.partition.data_count:
            raise ValueError("graph size does not match the partition")
        if self.graph.alive_count != self.graph.vertex_count:
            raise ValueError("InterQNet graphs must have no deleted vertices")
        _check_cross_domain(self.graph, self.partition)

    @property
    def connected(self) -> bool:
        """Whether the network is interactive (one connected component)."""
        return self.graph.connected()


@dataclass(frozen=True)
class ControlledInterQNet:
    """Inter-QNet augmented with a fully connected control layer."""

    graph: Graph
    partition: QNetPartition

    def __post_init__(self) -> None:
        part = self.partition
        if not part.control_nodes:
            raise ValueError("ControlledInterQNet requires control nodes")
        g = self.graph
        if g.alive_count != g.vertex_count:
            raise ValueError("controlled graphs must have no deleted vertices")
        if g.vertex_count != part.data_count + part.k_prime:
            raise ValueError("graph size does not match partition plus controls")
        _check_cross_domain(g, part)
        controls = part.control_nodes
        cmask = 0
        for c in controls:
            cmask |= 1 << c
        qmasks = part.qnet_masks()
        for a, c in enumerate(controls, start=1):
            want = cmask & ~(1 << c)
            if a <= part.k:
                want |= qmasks[a]
            if g.neighbor_mask(c) != want:
                raise ValueError(f"control node {c} has the wrong neighborhood")

    @property
    def data_count(self) -> int:
        return self.partition.data_count

    def data_network(self) -> InterQNet:
        """The underlying Inter-QNet (controls stripped, not measured)."""
        d = self.data_count
        edges = [(u, v) for u, v in self.graph.edges() if u < d and v < d]
        return InterQNet(Graph(d, edges), self.partition.without_controls())


def build_controlled(iq: InterQNet) -> ControlledInterQNet:
    """Append k' fresh controls: a clique, plus control a joined to QNet a."""
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
    g = Graph(d + kp, edges)
    return ControlledInterQNet(g, QNetPartition(part.k, part.membership, controls))


def complement_inter_qnet(iq: InterQNet) -> InterQNet:
    """Cross-domain complement: keep exactly the absent cross-QNet pairs."""
    part = iq.partition
    qmasks = part.qnet_masks()
    full = (1 << part.data_count) - 1
    adj = tuple(
        full & ~qmasks[a] & ~iq.graph.neighbor_mask(u)
        for u, a in enumerate(part.membership)
    )
    return InterQNet(Graph._from_parts(part.data_count, adj, full), part)


def mec_complementation(cg: ControlledInterQNet) -> tuple[InterQNet, list[MeasurementRecord]]:
    """X-measure every control node in order; the surviving data graph is
    the cross-domain complement of the underlying network.

    The special neighbor of every control is ``k0``, the lowest vertex of
    QNet 1.  It neighbors the first control, and from the first measurement
    on it neighbors every remaining control, so each measurement is defined.
    """
    k0 = min(cg.partition.members(1))
    g = cg.graph
    records: list[MeasurementRecord] = []
    for c in cg.partition.control_nodes:
        g, rec = g.measure_x(c, k0)
        records.append(rec)
    data = g.restrict(cg.data_count)
    return InterQNet(data, cg.partition.without_controls()), records


def restore_original(cg: ControlledInterQNet) -> InterQNet:
    """Z-measure every control node, recovering the original network."""
    g = cg.graph.keep((1 << cg.data_count) - 1)
    return InterQNet(g.restrict(cg.data_count), cg.partition.without_controls())


def extract_epr(
    iq: InterQNet,
    group: Iterable[tuple[int, int]],
) -> tuple[Graph, list[MeasurementRecord]]:
    """Z-measure every vertex that is not an endpoint of ``group``.

    The result is the subgraph induced on the endpoints, which holds every
    requested edge.  It is exactly the |group| disjoint edges iff the
    endpoints are pairwise distinct and no other edge joins them, which is
    pairwise compatibility; otherwise ParallelPairViolation is raised,
    carrying the extra edges.  Returns the graph and one Z record per
    measured vertex, ascending.

    This is the reference extraction for tests and demos; the pipeline
    checks its rounds with the scheduler's check on the complement
    instead.
    """
    from .pairs import ParallelPairViolation

    g = iq.graph
    wanted = {(min(u, v), max(u, v)) for u, v in group}
    endpoints = 0
    for u, v in wanted:
        if not g.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge of the network")
        endpoints |= (1 << u) | (1 << v)
    if endpoints.bit_count() != 2 * len(wanted):
        raise ParallelPairViolation("requested pairs share an endpoint")
    kept = g.keep(endpoints)
    extra = set(kept.edges()) - wanted
    if extra:
        raise ParallelPairViolation(
            "post-measurement graph is not the requested matching",
            extra_edges=tuple(sorted(extra)),
        )
    return kept, [z_record(v) for v in bits(g.alive_mask & ~endpoints)]


# -- instance files ----------------------------------------------------------


def instance_to_text(net: "InterQNet | ControlledInterQNet") -> str:
    """Serialize a network: the :func:`graph_to_edgelist` text, then one
    ``qnet a: v,...`` line per QNet and, if present, a ``control:`` line."""
    part = net.partition
    lines = [
        f"qnet {a}: " + ",".join(str(v) for v in part.members(a))
        for a in range(1, part.k + 1)
    ]
    if part.control_nodes:
        lines.append("control: " + ",".join(str(c) for c in part.control_nodes))
    return graph_to_edgelist(net.graph) + "\n".join(lines) + "\n"


def instance_from_text(text: str) -> "InterQNet | ControlledInterQNet":
    """Parse :func:`instance_to_text` output.

    The ``qnet`` and ``control`` lines are read here and every other line
    by :func:`graph_from_edgelist`, so the ``n=`` header must come before
    the edges.  A malformed line raises ValueError naming it.
    """
    graph_lines = []
    qnet_ids: set[int] = set()
    qnet_of: dict[int, int] = {}
    controls: tuple[int, ...] = ()
    for raw in text.splitlines():
        line = raw.strip()
        head, sep, body = line.partition(":")
        words = head.split()
        if words[:1] == ["qnet"]:
            (a,) = _int_fields(line, words[1:], 1)
            if not sep or a in qnet_ids:
                raise ValueError(f"malformed line: {line!r}")
            qnet_ids.add(a)
            for v in _int_fields(line, body.split(",")):
                if v in qnet_of:
                    raise ValueError(
                        f"malformed line: {line!r}: vertex {v} is already in QNet {qnet_of[v]}"
                    )
                qnet_of[v] = a
        elif words == ["control"] and sep:
            controls = _int_fields(line, body.split(","))
        else:
            graph_lines.append(line)
    g = graph_from_edgelist("\n".join(graph_lines))
    data = range(len(qnet_of))
    missing = [v for v in data if v not in qnet_of]
    if missing:
        raise ValueError(f"malformed instance: data vertex {missing[0]} is in no QNet")
    # QNetPartition rejects QNet ids outside 1..k and empty QNets
    k = max(qnet_ids, default=0)
    part = QNetPartition(k, tuple(qnet_of[v] for v in data), controls)
    if controls:
        return ControlledInterQNet(g, part)
    return InterQNet(g, part)
