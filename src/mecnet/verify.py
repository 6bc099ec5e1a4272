"""Self-contained oracle suites behind the ``verify`` subcommand.

Each suite pits an implementation path against independent code: the
measurement sequence against the combinatorial complement, graph rules
against the stabilizer tableau, the pairable check against all-pairs
brute force, and the closed-form throughput against the block walkers.
Failures carry a serialized counterexample for triage.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .graph import Graph
from .metrics import TimingParams, cqr_cycles, mec_cycles
from .pairs import check_parallel_pairable, compatible
from .qnet import (
    InterQNet,
    QNetPartition,
    build_controlled,
    complement_inter_qnet,
    instance_to_text,
    mec_complementation,
)
from .stabilizer import (
    ORACLE_MAX_QUBITS,
    equal_up_to_local_clifford,
    graph_state,
    measure_pauli,
)
from .timeline import walk_cqr_window, walk_mec_window

__all__ = ["SuiteResult", "ALL_SUITES", "random_inter_qnet"]


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    skipped: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.skipped:
            return f"{self.name}: SKIPPED ({self.skipped})"
        state = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {state} ({self.checked} checks, {len(self.failures)} failures)"


def random_inter_qnet(
    k: int, sizes: list[int], p: float, rnd: random.Random
) -> InterQNet:
    """Rejection-sampled connected cross-domain graph (test-grade generator,
    independent of the production spanning-tree generator).

    Raises ValueError when no connected draw can exist: more than one vertex
    and no cross-domain pair, or ``p <= 0``.
    """
    membership = tuple(a for a, s in enumerate(sizes, start=1) for _ in range(s))
    n = len(membership)
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if membership[u] != membership[v]
    ]
    if n > 1 and (not pairs or p <= 0):
        raise ValueError(
            f"no connected cross-domain graph on sizes {sizes} with p={p}"
        )
    while True:
        edges = [e for e in pairs if rnd.random() < p]
        g = Graph(n, edges)
        if g.connected():
            return InterQNet(g, QNetPartition(k, membership))


def suite_complement(trials: int = 1000, seed: int = 20240) -> SuiteResult:
    """Measurement-sequence complementation versus the edge-set complement."""
    res = SuiteResult("complementation-vs-complement")
    rnd = random.Random(seed)
    for _ in range(trials):
        k = rnd.choice([2, 3, 4])
        sizes = [rnd.randint(1, 4) for _ in range(k)]
        p = rnd.choice([0.2, 0.8])
        iq = random_inter_qnet(k, sizes, p, rnd)
        cg = build_controlled(iq)
        want = complement_inter_qnet(iq)
        res.checked += 1
        try:
            got, _ = mec_complementation(cg)
            ok = got.graph == want.graph
        except (ValueError, AssertionError):
            ok = False  # a broken rule may derail the sequence entirely
        if not ok:
            res.failures.append(instance_to_text(cg))
    return res


def suite_measurement_oracle(seed: int = 77, max_vertices: int = 5) -> SuiteResult:
    """Graph-level X and Z rules versus the stabilizer tableau, all branches."""
    res = SuiteResult("measurement-rules-vs-tableau")
    if max_vertices > ORACLE_MAX_QUBITS:
        res.skipped = "exceeds the oracle qubit limit"
        return res
    rnd = random.Random(seed)
    for _ in range(60):
        n = rnd.randint(2, max_vertices)
        while True:
            edges = [
                e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.5
            ]
            g = Graph(n, edges)
            if g.connected():
                break
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
    return res


def suite_pairable_bruteforce(trials: int = 10000, seed: int = 5150) -> SuiteResult:
    """Matrix pairable check versus all-pairs evaluation."""
    res = SuiteResult("pairable-vs-bruteforce")
    rnd = random.Random(seed)
    for _ in range(trials):
        n = rnd.randint(4, 12)
        edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.35]
        if not edges:
            continue
        g = Graph(n, edges)
        sub = rnd.sample(edges, k=min(len(edges), rnd.randint(1, 8)))
        brute = all(
            compatible(g, e1, e2) for e1, e2 in itertools.combinations(sub, 2)
        )
        res.checked += 1
        if check_parallel_pairable(g, sub) != brute:
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
