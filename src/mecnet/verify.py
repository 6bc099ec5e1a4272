"""Self-contained oracle suites behind the ``verify`` subcommand.

Each suite pits an implementation path against independent code: the
measurement sequence against the combinatorial complement, graph rules
against the stabilizer tableau, the scheduler's compatibility rows against
``compatible``, and the closed-form throughput against the block walkers.
The complement and measurement suites draw their networks from
:func:`mecnet.netgen.generate_inter_qnet`, the generator the experiments
use.  Failures carry a serialized counterexample for triage.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import pairs
from .graph import Graph, masks_to_matrix
from .metrics import TimingParams, cqr_cycles, mec_cycles
from .netgen import GenConfig, even_sizes, generate_inter_qnet
from .qnet import (
    build_controlled,
    complement_inter_qnet,
    instance_to_text,
    mec_complementation,
)
from .stabilizer import equal_up_to_local_clifford, graph_state, measure_pauli
from .timeline import walk_cqr_window, walk_mec_window

__all__ = ["SuiteResult", "ALL_SUITES"]

ORACLE_MAX_QUBITS = 16  # the measurement suite's largest exhaustively checked graph
# the controlled networks whose controls the measurement suite X-measures in
# sequence: (k, p) on EVAL_DATA_VERTICES data vertices, which must equal the
# "nodes" of configs/eval.json (tests/test_cli.py holds the two equal); one k
# is odd, so that k' = k + 1
EVAL_DATA_VERTICES = 50
EVAL_NETWORKS = ((4, 0.2), (5, 0.8), (8, 0.8), (10, 0.2))


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {state} ({self.checked} checks, {len(self.failures)} failures)"


def suite_complement(trials: int = 1000, seed: int = 20240) -> SuiteResult:
    """Measurement-sequence complementation versus the edge-set complement,
    on networks of 2 to 4 QNets of 1 to 4 vertices at p = 0.2 or 0.8."""
    res = SuiteResult("complementation-vs-complement")
    rnd = random.Random(seed)
    for _ in range(trials):
        k = rnd.choice([2, 3, 4])
        sizes = [rnd.randint(1, 4) for _ in range(k)]
        p = rnd.choice([0.2, 0.8])
        iq = generate_inter_qnet(GenConfig(k, tuple(sizes), p, rnd.getrandbits(32)))
        cg = build_controlled(iq)
        want = complement_inter_qnet(iq)
        res.checked += 1
        try:
            got, _ = mec_complementation(cg)
            ok = got.graph == want.graph
        except (ValueError, AssertionError):
            ok = False  # a broken rule may derail the sequence entirely
        if not ok:
            res.failures.append(instance_to_text(iq))
    return res


def suite_measurement_oracle(seed: int = 77) -> SuiteResult:
    """Graph-level X and Z rules versus the stabilizer tableau, all branches,
    on 60 connected graphs of 2 to ``ORACLE_MAX_QUBITS`` vertices: networks
    with one vertex per domain at p = 0.5.  The tableau takes any width;
    the range only keeps the exhaustive branch count small.

    Then the paper's mechanism at evaluation size: on each controlled
    network of ``EVAL_NETWORKS``, X-measuring every control in order, each
    in a seeded branch, must leave the data qubits in the graph state of
    the network's cross-domain complement, up to single-qubit Cliffords;
    a failure is the network's ``instance_to_text``."""
    res = SuiteResult("measurement-rules-vs-tableau")
    rnd = random.Random(seed)
    for _ in range(60):
        n = rnd.randint(2, ORACLE_MAX_QUBITS)
        # one vertex per domain: every pair is a candidate link
        g = generate_inter_qnet(GenConfig(n, (1,) * n, 0.5, rnd.getrandbits(32))).graph
        base = graph_state(g)
        for v in range(n):
            survivors = [q for q in range(n) if q != v]
            predicted_z, _ = g.measure_z(v)
            for forced in (1, -1):
                post, _ = measure_pauli(base, v, "Z", forced_outcome=forced)
                res.checked += 1
                if not equal_up_to_local_clifford(post, graph_state(predicted_z), survivors):
                    res.failures.append(f"Z {g.edges()} v={v} branch={forced}")
            for k0 in g.neighbors(v):
                predicted_x, _ = g.measure_x(v, k0)
                for forced in (1, -1):
                    post, _ = measure_pauli(base, v, "X", forced_outcome=forced)
                    res.checked += 1
                    if not equal_up_to_local_clifford(
                        post, graph_state(predicted_x), survivors
                    ):
                        res.failures.append(
                            f"X {g.edges()} v={v} k0={k0} branch={forced}"
                        )
    for k, p in EVAL_NETWORKS:
        iq = generate_inter_qnet(
            GenConfig(k, even_sizes(EVAL_DATA_VERTICES, k), p, rnd.getrandbits(32))
        )
        cg = build_controlled(iq)
        n = cg.graph.vertex_count
        post = graph_state(cg.graph)
        for c in cg.partition.control_nodes:
            post, _ = measure_pauli(post, c, "X", forced_outcome=rnd.choice((1, -1)))
        want = graph_state(Graph(n, complement_inter_qnet(iq).graph.edges()))
        res.checked += 1
        if not equal_up_to_local_clifford(post, want, range(cg.partition.data_count)):
            res.failures.append(instance_to_text(iq))
    return res


def suite_pairable_bruteforce(trials: int = 10000, seed: int = 5150) -> SuiteResult:
    """The scheduler's compatibility rows, looked up on :mod:`mecnet.pairs` at
    each call and fed the graph's bit matrix and the batch's endpoint
    arrays, versus ``compatible`` bit by bit, with an empty diagonal.

    Graphs of 4 to 24 vertices and batches of 1 to 16 edges cross the byte
    boundaries of the rows' bit-matrix transpose on both axes."""
    res = SuiteResult("pairable-vs-bruteforce")
    rnd = random.Random(seed)
    for _ in range(trials):
        n = rnd.randint(4, 24)
        edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.35]
        if not edges:
            continue
        g = Graph(n, edges)
        sub = rnd.sample(edges, k=min(len(edges), rnd.randint(1, 16)))
        want = [
            sum(1 << j for j, f in enumerate(sub) if f != e and pairs.compatible(g, e, f))
            for e in sub
        ]
        res.checked += 1
        a, b = np.array(sub).T
        if pairs._compat_rows(masks_to_matrix(g.adjacency, n), a, b) != want:
            res.failures.append(f"edges={edges} sub={sub}")
    return res


def suite_timeline(trials: int = 10000, seed: int = 909) -> SuiteResult:
    """Closed-form cycle counts versus the block walkers wherever the closed
    form claims exactness: every on-demand window, and proactive windows
    that are starved (lam < trm) or hold whole cycles (lam >= tpm + trm).
    The saturated proactive band, where the walker copies the closed form's
    middle case, is not checked here; acceptance criterion 9b checks it
    against :func:`mecnet.timeline.simulate_mec_long_run`."""
    res = SuiteResult("throughput-vs-walkers")
    rnd = random.Random(seed)
    for _ in range(trials):
        lam = rnd.randint(1, 100)
        tpm, trm = rnd.randint(0, 30), rnd.randint(0, 30)
        tpb, trb = rnd.randint(0, 30), rnd.randint(0, 30)
        if tpm + trm == 0 or tpb + trb == 0:
            continue
        t = TimingParams(lam, tpm, trm, tpb, trb)
        res.checked += 1
        if lam >= tpm + trm or lam < trm:
            if mec_cycles(t) != walk_mec_window(t):
                res.failures.append(f"mec {t}")
        if cqr_cycles(t) != walk_cqr_window(t):
            res.failures.append(f"cqr {t}")
    return res


ALL_SUITES: dict[str, Callable[[], SuiteResult]] = {
    "complement": suite_complement,
    "measurement": suite_measurement_oracle,
    "pairable": suite_pairable_bruteforce,
    "timeline": suite_timeline,
}
