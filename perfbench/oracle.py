"""Oracle workload: graph rewrite rules against the stabilizer tableau at
the 16-qubit cap of ``mecnet.stabilizer``.

Cases alternate between two kinds:

* a controlled network of 16 qubits in total (k = 2, 3, 4 in turn, so 14
  or 12 data vertices), whose controls are all X-measured on the tableau
  in two seeded forced branches and compared with the graph state of the
  predicted cross-domain complement;
* a random connected graph of 12 to 16 vertices, on which two seeded
  vertices are each Z- and X-measured and compared with the graph rules.

Each case also holds one negative control: a predicted graph with one
edge flipped, used only when a cut-rank of at most three vertices changes,
which proves the states inequivalent (see ``checks``).  A random flip
alone can leave the state locally equivalent, so it would not do.

A case is one instance; 16 consecutive cases form one batch.  The
workload never calls ``pairs``, ``cqr`` or ``netgen``.
"""

from __future__ import annotations

import itertools
import math
import random
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from mecnet import qnet, stabilizer
from mecnet.graph import Graph

import checks
from calibrate import HostSpeed
from result import RunResult, finish_scaling, peak_rss_mb
from tracing import Tracer, installed

QUBITS = 16
DENSITIES = (0.2, 0.5, 0.8)
BLOCK = 256  # cases made, run and checked at a time (about one second)
# Cases per batch: network and rules cases alternate and differ about 3x
# in cost, so a batch holds several of each and its time is unimodal.
BATCH = 16
# Batches between host-speed samples (about 0.08 s of cases; see ``calibrate``).
SAMPLE_EVERY = 2
ENTROPY_SAMPLE = 32  # every 32nd positive also gets the full entropy check
# Seconds per case on the reference host (see ``calibrate``); a run of
# ``seconds`` does ceil(seconds / (this * block)) blocks, so a seed always
# gives the same work, whatever the speed of host or program.
NOMINAL_CASE_S = 0.0024


@dataclass
class Case:
    index: int
    seed: int
    graph: Graph
    network: Optional[qnet.InterQNet] = None
    branches: tuple = ()
    measurements: tuple = ()  # rules cases: (v, basis, k0, forced outcome)
    negative_of: int = 0  # the positive whose prediction is mutated
    mutant: Optional[tuple] = None  # (Graph, adjacency, distinguishing set)

    @property
    def checks(self) -> int:
        return (len(self.branches) if self.network is not None else len(self.measurements)) + 1


@dataclass
class Verdict:
    case: int
    negative: bool
    got: bool
    survivors: tuple
    predicted: tuple  # adjacency masks the tableau state is compared with
    post_rows: Optional[tuple]  # kept for the entropy checks only
    witness: int = 0
    rule: tuple = ()  # (v, basis, k0) for a rules positive


def _connected(n: int, pairs, p: float, rnd: random.Random) -> Graph:
    while True:
        g = Graph(n, [e for e in pairs if rnd.random() < p])
        if g.connected():
            return g


def make_case(seed: int, index: int) -> Case:
    case_seed = seed * 1_000_003 + index
    rnd = random.Random(case_seed)
    p = rnd.choice(DENSITIES)
    if index % 2 == 0:
        k = (2, 3, 4)[index // 2 % 3]
        d = QUBITS - (k + k % 2)
        base, extra = divmod(d, k)
        membership = tuple(
            a for a in range(1, k + 1) for _ in range(base + (1 if a <= extra else 0))
        )
        pairs = [
            (u, v) for u, v in itertools.combinations(range(d), 2) if membership[u] != membership[v]
        ]
        g = _connected(d, pairs, p, rnd)
        net = qnet.InterQNet(g, qnet.QNetPartition(k, membership))
        controls = k + k % 2
        branches = tuple(tuple(rnd.choice((1, -1)) for _ in range(controls)) for _ in range(2))
        return Case(index, case_seed, g, net, branches=branches, negative_of=rnd.randrange(2))
    n = rnd.randint(12, QUBITS)
    g = _connected(n, list(itertools.combinations(range(n), 2)), p, rnd)
    meas = []
    for v in rnd.sample(range(n), 2):
        meas.append((v, "Z", None, rnd.choice((1, -1))))
        meas.append((v, "X", rnd.choice(sorted(g.neighbors(v))), rnd.choice((1, -1))))
    return Case(index, case_seed, g, measurements=tuple(meas), negative_of=rnd.randrange(len(meas)))


def _adjacency(g: Graph) -> tuple[int, ...]:
    return tuple(g.neighbor_mask(v) for v in range(g.vertex_count))


def _positives(case: Case) -> list[tuple]:
    """(post-measurement tableau, predicted adjacency, survivors, verdict,
    rule) for every positive check of the case."""
    out = []
    if case.network is not None:
        cg = qnet.build_controlled(case.network)
        predicted, _ = qnet.mec_complementation(cg)
        full = Graph(cg.graph.vertex_count, predicted.graph.edges())
        target = stabilizer.graph_state(full)
        start = stabilizer.graph_state(cg.graph)
        survivors = tuple(range(cg.data_count))
        adj = _adjacency(full)
        for branch in case.branches:
            post = start
            for c, o in zip(cg.partition.control_nodes, branch):
                post, _ = stabilizer.measure_pauli(post, c, "X", forced_outcome=o)
            got = stabilizer.equal_up_to_local_clifford(post, target, survivors)
            out.append((post, adj, survivors, got, ()))
        return out
    g = case.graph
    start = stabilizer.graph_state(g)
    for v, basis, k0, o in case.measurements:
        pg, _ = g.measure_z(v) if basis == "Z" else g.measure_x(v, k0)
        post, _ = stabilizer.measure_pauli(start, v, basis, forced_outcome=o)
        survivors = tuple(q for q in range(g.vertex_count) if q != v)
        got = stabilizer.equal_up_to_local_clifford(post, stabilizer.graph_state(pg), survivors)
        out.append((post, _adjacency(pg), survivors, got, (v, basis, k0)))
    return out


def run_case(case: Case, verdicts: list, sample: list) -> float:
    """Run every check of ``case``; returns the timed seconds (building the
    negative control the first time is not timed)."""
    t0 = perf_counter()
    positives = _positives(case)
    timed = perf_counter() - t0
    for post, adj, survivors, got, rule in positives:
        sample[0] += 1
        keep = post.rows if sample[0] % ENTROPY_SAMPLE == 0 else None
        verdicts.append(Verdict(case.index, False, got, survivors, adj, keep, rule=rule))
    post, adj, survivors, _, _ = positives[case.negative_of]
    if case.mutant is None:
        rnd = random.Random(case.seed + 1)
        found = checks.find_inequivalent_flip(adj, survivors, rnd)
        if found is None:
            raise RuntimeError(f"case {case.index}: no provably inequivalent mutant")
        mutant_adj, witness = found
        n = len(mutant_adj)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if mutant_adj[u] >> v & 1]
        case.mutant = (Graph(n, edges), mutant_adj, witness)
    mg, mutant_adj, witness = case.mutant
    t1 = perf_counter()
    got = stabilizer.equal_up_to_local_clifford(post, stabilizer.graph_state(mg), survivors)
    timed += perf_counter() - t1
    verdicts.append(Verdict(case.index, True, got, survivors, mutant_adj, post.rows, witness))
    return timed


def check_verdict(v: Verdict, case: Case) -> Optional[str]:
    n = len(v.predicted)
    keep = sum(1 << q for q in v.survivors)
    if v.negative:
        if v.got:
            return "inequivalent mutant accepted"
        if checks.tableau_entropy(v.post_rows, v.witness, n) == checks.cut_rank(v.predicted, v.witness, keep):
            return "negative control not certified by the tableau entropy"
        return None
    if not v.got:
        return "graph-rule prediction rejected"
    g_adj = _adjacency(case.graph)
    if case.network is not None:
        want = checks.complement_prediction(g_adj, case.network.partition.membership, n)
    else:
        want = checks.rule_prediction(g_adj, *v.rule)
    if v.predicted != want:
        return "predicted graph differs from the independent rule"
    if v.post_rows is not None and not checks.entropy_matches(v.post_rows, v.predicted, v.survivors, n):
        return "tableau entropies differ from the predicted cut-ranks"
    return None


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_root: str,
    block: int = BLOCK,
    between=None,
) -> RunResult:
    """Run about ``seconds`` (at reference speed) of distinct cases,
    ``block`` at a time.  Each block's cases are made before it and its
    verdicts checked after it, outside the timed region.  The host-speed
    kernel runs before every ``SAMPLE_EVERY`` batches, and
    ``between(timed seconds so far)``, if given, before each block."""
    res = RunResult()
    tracer = Tracer() if trace else None
    host = HostSpeed()
    failed_checks = 0
    negatives = entropy_checked = 0
    sample = [0]

    def attempt(case: Case, traced: bool, verdicts: list) -> Optional[float]:
        nonlocal failed_checks
        res.attempted += case.checks
        start = len(verdicts)
        try:
            if traced:
                with installed(tracer):
                    tracer.batch = case.index
                    return run_case(case, verdicts, sample)
            return run_case(case, verdicts, sample)
        except Exception:
            del verdicts[start:]
            failed_checks += case.checks
            res.problems.append(f"case {case.index} raised:\n{traceback.format_exc()}")
            return None

    blocks = max(1, math.ceil(seconds / (NOMINAL_CASE_S * block)))
    for first in range(0, blocks * block, block):
        if between is not None:
            between(res.timed_s)
        cases = [make_case(seed, i) for i in range(first, first + block)]
        verdicts: list[Verdict] = []
        batch_s = 0.0
        for case in cases:
            if case.index % (SAMPLE_EVERY * BATCH) == 0:
                host.sample()
            dt = attempt(case, False, verdicts)
            if dt is None:
                continue
            res.timed_s += dt
            res.instances += 1
            res.work_units += case.checks
            batch_s += dt
            if case.index % BATCH == BATCH - 1:
                res.batch_ms.append(batch_s * 1000.0)
                host.record(batch_s, [batch_s * 1000.0])
                batch_s = 0.0
            if trace:
                tdt = attempt(case, True, verdicts)
                if tdt is not None:
                    res.traced_s += tdt
                    res.paired_untraced_s += dt
                    res.traced_units += case.checks
        res.peak_rss_mb = max(res.peak_rss_mb, peak_rss_mb())
        by_index = {case.index: case for case in cases}
        for v in verdicts:
            negatives += v.negative
            entropy_checked += not v.negative and v.post_rows is not None
            msg = check_verdict(v, by_index[v.case])
            if msg:
                failed_checks += 1
                res.problems.append(f"case {v.case} {'negative' if v.negative else 'positive'}: {msg}")
    host.sample()
    finish_scaling(res, host)
    res.tracer = tracer
    res.failed = failed_checks
    res.notes["negatives_checked"] = negatives
    res.notes["entropy_checked_positives"] = entropy_checked
    return res
