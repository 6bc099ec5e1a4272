"""Tests of the benchmark itself: every workload at a tiny size, and the
checkers against planted faults.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from statistics import median

import pytest

import bootstrap

bootstrap.import_mecnet()

import networkx as nx
from mecnet import stabilizer
from mecnet.cqr import CqrPath, cqr_batch
from mecnet.graph import Graph
from mecnet.netgen import GenConfig, generate_inter_qnet, sample_requests
from mecnet.pairs import compatible, dynamic_parallel_pairs
from mecnet.qnet import build_controlled

import calibrate
import checks
import oracle
import sweep
import tracing
from result import p50, tail

TINY_GRID = dict(sweep.EVAL_GRID, nodes=12, qnet_counts=[3, 4], request_volumes=[4, 8])
NO_DIGEST = {"seed": 1, "csv_sha256": None}


@pytest.mark.parametrize("workload", sorted(sweep.DENSITY))
@pytest.mark.parametrize("trace", [False, True])
def test_sweep_runs_clean_at_tiny_size(tmp_path, workload, trace):
    res = sweep.run(workload, 5, 1e-9, trace, str(tmp_path), TINY_GRID, NO_DIGEST)
    assert res.problems == [] and res.failed == 0
    # One cycle over k, then the (tiny) time is up.
    assert res.instances == len(TINY_GRID["qnet_counts"]) and res.batch_ms
    assert res.attempted == 1 + (2 if trace else 1) * res.instances
    if trace:
        assert res.tracer.calls("pairs.dynamic_parallel_pairs") > 0
        assert res.tracer.calls("experiments.run_instance") == res.traced_units


@pytest.mark.parametrize("trace", [False, True])
def test_oracle_runs_clean_at_tiny_size(tmp_path, trace):
    res = oracle.run("oracle-16q", 5, 1e-9, trace, str(tmp_path), block=16)
    assert res.problems == [] and res.failed == 0
    assert res.instances == 16 and len(res.batch_ms) == 1
    assert res.notes["negatives_checked"] == 16 * (2 if trace else 1)
    if trace:
        assert res.tracer.calls("stabilizer.equal_up_to_local_clifford") == res.traced_units
        assert res.tracer.calls("pairs.dynamic_parallel_pairs") == 0


def test_reference_digest_mismatch_fails_the_run(tmp_path):
    res = sweep.run("sweep-dense", 5, 1e-9, False, str(tmp_path), TINY_GRID, {"seed": 1, "csv_sha256": "0" * 64})
    assert res.failed == 1
    assert any("digest" in p for p in res.problems)


def _batch(p: float = 0.2, volume: int = 20):
    iq = generate_inter_qnet(GenConfig(4, (5, 5, 5, 5), p, 3))
    cg = build_controlled(iq)
    rs = sample_requests(iq, volume, 4)
    table = dynamic_parallel_pairs(cg, rs)
    paths = cqr_batch(cg, rs.requests)[0]
    return sweep.Batch(("test", 4), cg, rs.requests, table.groups, paths, 0.0, 0.0, 0.0)


def test_checker_accepts_the_library_output():
    assert checks.check_batch(_batch(), nx) == []


def test_checker_flags_two_incompatible_requests_merged():
    b = _batch()
    comp = Graph(
        b.cg.partition.data_count,
        sorted(checks.cross_domain_complement(b.cg.graph.edges(), b.cg.partition.membership)),
    )
    for g1, g2 in itertools.combinations(range(len(b.groups)), 2):
        if any(not compatible(comp, e1, e2) for e1 in b.groups[g1] for e2 in b.groups[g2]):
            break
    else:
        pytest.fail("no incompatible pair across groups to plant")
    groups = [g for i, g in enumerate(b.groups) if i not in (g1, g2)]
    groups.append(b.groups[g1] | b.groups[g2])
    b.groups = tuple(groups)
    assert any("incompatible pair" in msg for msg in checks.check_batch(b, nx))


def test_checker_flags_a_wrong_cqr_hop_count():
    b = _batch()
    first = b.paths[0]
    detour = CqrPath(first.request, first.hops + 1, first.intermediates + (first.request[0],), True)
    b.paths = [detour] + b.paths[1:]
    assert any("shortest path" in msg for msg in checks.check_batch(b, nx))


def test_oracle_negatives_catch_an_equivalence_test_that_accepts_everything(tmp_path, monkeypatch):
    monkeypatch.setattr(stabilizer, "equal_up_to_local_clifford", lambda *a, **k: True)
    res = oracle.run("oracle-16q", 5, 1e-9, False, str(tmp_path), block=16)
    assert res.failed == 16
    assert all("mutant accepted" in p for p in res.problems)


def test_mutants_are_certified_by_a_cut_rank():
    rnd = random.Random(9)
    for _ in range(50):
        n = rnd.randint(6, 14)
        g = oracle._connected(n, list(itertools.combinations(range(n), 2)), rnd.choice(oracle.DENSITIES), rnd)
        adj = oracle._adjacency(g)
        survivors = tuple(range(n))
        mutant, witness = checks.find_inequivalent_flip(adj, survivors, rnd)
        keep = (1 << n) - 1
        assert checks.cut_rank(adj, witness, keep) != checks.cut_rank(mutant, witness, keep)
        # Cut-ranks of a graph are the tableau entropies of its graph state.
        rows = stabilizer.graph_state(g).rows
        assert checks.entropy_matches(rows, adj, survivors, n, max_size=3)


def test_checker_rules_match_the_library_rules():
    rnd = random.Random(4)
    for _ in range(30):
        n = rnd.randint(3, 10)
        g = oracle._connected(n, list(itertools.combinations(range(n), 2)), 0.5, rnd)
        v = rnd.randrange(n)
        k0 = rnd.choice(sorted(g.neighbors(v)))
        adj = oracle._adjacency(g)
        assert checks.rule_prediction(adj, v, "Z", None) == oracle._adjacency(g.measure_z(v)[0])
        assert checks.rule_prediction(adj, v, "X", k0) == oracle._adjacency(g.measure_x(v, k0)[0])


def test_tracer_skips_names_the_library_no_longer_has(monkeypatch):
    gone = ("pairs.gone", ("mecnet.pairs",), "no_such_function", False, None)
    monkeypatch.setattr(tracing, "TRACE_POINTS", tracing.TRACE_POINTS + (gone,))
    tr = tracing.Tracer()
    with tracing.installed(tr):
        _batch()
    assert tr.calls("pairs.gone") == 0
    assert tr.calls("pairs.parallel_pair_candidates") > 0
    assert sum(tr.layer_self_s().values()) > 0


def test_host_speed_scales_each_stretch_by_its_own_samples():
    host = calibrate.HostSpeed()
    ref = calibrate.REFERENCE_S
    # Samples at [0, 1], [3, 4] and [6, 7] read 1x, 3x and 3x slow, so the
    # two segments between them are scaled by 2x and 3x.
    host.starts, host.ends, host.samples = [0.0, 3.0, 6.0], [1.0, 4.0, 7.0], [ref, 3 * ref, 3 * ref]
    # A unit over [0.5, 6.5] holds one batch in each segment; kernel time
    # and time outside the unit do not count.
    host.record_interval(0.5, 6.5, [(1.0, 2.0), (4.0, 5.0)])
    total, batches = host.scaled()
    assert total == pytest.approx(2.0 / 2.0 + 2.0 / 3.0)
    assert batches == pytest.approx([1000.0 / 2.0, 1000.0 / 3.0])


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    assert tail(values) == (89, 90.0)
    assert tail([3.0, 1.0]) == (3.0, 100.0)


def test_p50_is_the_median_of_symmetric_samples_and_moves_smoothly():
    assert p50([7.0]) == 7.0
    assert p50([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)
    # Two clusters with the middle in the gap: the sample median is the
    # mean of the two inner extremes, so moving one of them moves it most.
    low, high = [100.0 + i for i in range(10)], [500.0 + i for i in range(10)]
    moved = low + [400.0] + high[1:]
    assert abs(p50(moved) - p50(low + high)) < abs(median(moved) - median(low + high)) / 2


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_cli_prints_the_contract_line():
    p = _run_cli(bootstrap.ROOT, "--workload", "oracle-16q", "--seed", "2", "--seconds", "0.2", "--trace", "0")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "instances_per_s", "batch_p50_ms", "batch_tail_ms", "peak_rss_mb"}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(bootstrap.ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    p = _run_cli(tmp_path, "--workload", "sweep-dense", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert "correct" not in p.stdout
