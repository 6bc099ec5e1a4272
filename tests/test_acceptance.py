"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` to see them).

Criterion 9b checks the saturated band (routing fits in a window, a full
cycle does not) against what each model promises: one window serves exactly
one batch, the published middle case, while the long-run serial schedule
averages lam/(tpm+trm) per window.  The two differ by construction (see the
:mod:`mecnet.timeline` module docstring); the test prints how often they
agree within 10%.
"""

import itertools
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from reference import connected_graphs, random_network

from mecnet import verify
from mecnet.cqr import cqr_batch
from mecnet.experiments import derive_seed, even_sizes
from mecnet.graph import Graph
from mecnet.metrics import TimingParams, arqf_cqr, arqf_mec, cqr_cycles, mec_cycles
from mecnet.netgen import GenConfig, InsufficientPairsError, generate_inter_qnet, sample_requests
from mecnet.openflights import build_real_instance, parse_openflights
from mecnet.pairs import dynamic_parallel_pairs, min_partition_oracle
from mecnet.qnet import build_controlled, complement_inter_qnet, mec_complementation
from mecnet.stabilizer import equal_up_to_local_clifford, graph_state, measure_pauli
from mecnet.timeline import simulate_mec_long_run, walk_cqr_window, walk_mec_window

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "openflights")


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>4}: FAIL  {label}")
        raise
    print(f"ACCEPTANCE {num:>4}: PASS  {label}")


# -- shared experiment sweep (criteria 5 and 10) -------------------------------


@pytest.fixture(scope="module")
def sweep():
    """Representative experiment sweep at the evaluation scale: 50 data
    vertices, both density regimes, several domain counts."""
    rows = []
    for k in (4, 6):
        for p in (0.2, 0.8):
            for rep in range(12):
                iq = generate_inter_qnet(
                    GenConfig(k, even_sizes(50, k), p, derive_seed(101, k, int(p * 10), rep))
                )
                cg = build_controlled(iq)
                measured, _ = mec_complementation(cg)
                assert measured.graph == complement_inter_qnet(iq).graph
                for vol in (20, 30):
                    try:
                        rs = sample_requests(iq, vol, derive_seed(102, k, int(p * 10), rep, vol))
                    except InsufficientPairsError:
                        continue
                    table = dynamic_parallel_pairs(cg, rs)
                    extractions = 0
                    for group in table.groups:
                        # the Z rule: measuring every other vertex keeps the
                        # subgraph induced on the round's endpoints
                        ends = sum((1 << u) | (1 << v) for u, v in group)
                        assert measured.graph.keep(ends).edges() == sorted(group)
                        extractions += 1
                    paths, chi = cqr_batch(cg, rs.requests)
                    rows.append(
                        {
                            "k": k,
                            "p": p,
                            "vol": vol,
                            "n_requests": len(rs.requests),
                            "rho": table.rho,
                            "groups": extractions,
                            "h_bar": sum(p.hops for p in paths) / len(paths),
                            "chi": chi,
                            "k_prime": cg.partition.k_prime,
                            "sizes": list(map(cg.partition.membership.count, range(1, k + 1))),
                        }
                    )
    return rows


# -- criteria -------------------------------------------------------------------


def test_criterion_1_complementation_equivalence():
    with criterion(1, "measurement sequence equals edge-set complement, 1000 networks"):
        t0 = time.perf_counter()
        res = verify.suite_complement(trials=1000, seed=424242)
        elapsed = time.perf_counter() - t0
        assert res.passed and res.checked == 1000, res.failures[:1]
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def _grid_cells():
    for k in (2, 3, 4):
        kp = k + k % 2
        for sizes in itertools.combinations_with_replacement((1, 2, 3), k):
            if sum(sizes) + kp <= 12:
                yield k, sizes


def _branch_check(cg):
    predicted, _ = mec_complementation(cg)
    full = Graph(cg.graph.vertex_count, predicted.graph.edges())
    target = graph_state(full)
    controls = cg.partition.control_nodes
    survivors = [q for q in range(cg.graph.vertex_count) if q not in controls]
    k0 = cg.partition.membership.index(1)
    checks = 0
    for outcomes in itertools.product((1, -1), repeat=len(controls)):
        post = graph_state(cg.graph)
        for c, o in zip(controls, outcomes):
            post, _ = measure_pauli(post, c, "X", forced_outcome=o)
        assert equal_up_to_local_clifford(post, target, survivors)
        checks += 1
    return checks


def test_criterion_2_quantum_oracle_branches():
    with criterion(2, "stabilizer oracle equivalence on every forced branch"):
        t0 = time.perf_counter()
        rnd = random.Random(77077)
        networks = []
        for k, sizes in _grid_cells():
            networks.append(generate_inter_qnet(GenConfig(k, sizes, 0.0, 11)))
            networks.append(generate_inter_qnet(GenConfig(k, sizes, 1.0, 12)))
            networks.append(random_network(k, sizes, 0.5, rnd))
        count = 0
        while count < 200:
            k = rnd.choice([2, 3, 4])
            sizes = [rnd.randint(1, 3) for _ in range(k)]
            if sum(sizes) + k + k % 2 > 12:
                continue
            networks.append(random_network(k, sizes, rnd.choice([0.2, 0.5, 0.8]), rnd))
            count += 1
        total = 0
        for iq in networks:
            total += _branch_check(build_controlled(iq))
        elapsed = time.perf_counter() - t0
        assert total >= 1000
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def _connected_classes_6():
    networkx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    for G in graph_atlas_g():
        if G.number_of_nodes() == 6 and G.number_of_edges() and networkx.is_connected(G):
            yield Graph(6, list(G.edges()))


def test_criterion_3_measurement_micro_oracle():
    with criterion(3, "graph rules match the tableau on all small graphs"):
        checks = 0
        graphs = [g for n in range(2, 6) for g in connected_graphs(n)] + list(_connected_classes_6())
        for g in graphs:
            n = g.vertex_count
            base = graph_state(g)
            for v in range(n):
                survivors = [q for q in range(n) if q != v]
                pz, _ = g.measure_z(v)
                tz = graph_state(pz)
                for forced in (1, -1):
                    post, _ = measure_pauli(base, v, "Z", forced_outcome=forced)
                    assert equal_up_to_local_clifford(post, tz, survivors)
                    checks += 1
                for k0 in sorted(g.neighbors(v)):
                    px, _ = g.measure_x(v, k0)
                    tx = graph_state(px)
                    for forced in (1, -1):
                        post, _ = measure_pauli(base, v, "X", forced_outcome=forced)
                        assert equal_up_to_local_clifford(post, tx, survivors)
                        checks += 1
        assert checks > 20000


def test_criterion_4_pairable_vs_bruteforce():
    with criterion(4, "the compatibility rows agree with the pairwise predicate bit by bit, 10^4 draws"):
        res = verify.suite_pairable_bruteforce(trials=10000, seed=515151)
        assert res.passed and res.checked > 9900, res.failures[:1]


def test_criterion_5_scheduler_validity(sweep):
    with criterion(5, "every group partitions, passes the check, and extracts cleanly"):
        assert len(sweep) >= 80
        assert all(row["groups"] == row["rho"] for row in sweep)
        assert sum(row["groups"] for row in sweep) > 500


def test_criterion_6_greedy_vs_exact_partition():
    with criterion(6, "greedy cycle count bounded by the exact minimum"):
        rnd = random.Random(606060)
        within_two = 0
        total = 0
        while total < 500:
            k = rnd.choice([3, 4])
            iq = random_network(k, [rnd.randint(2, 4) for _ in range(k)], rnd.choice([0.3, 0.5, 0.7]), rnd)
            comp = complement_inter_qnet(iq)
            avail = comp.graph.edges()
            if len(avail) < 4:
                continue
            picks = rnd.sample(avail, k=min(len(avail), rnd.randint(4, 8)))
            cg = build_controlled(iq)
            table = dynamic_parallel_pairs(cg, picks)
            best = min_partition_oracle(comp.graph, picks)
            assert best <= table.rho
            within_two += table.rho <= best + 2
            total += 1
        assert within_two / total >= 0.90, f"only {within_two}/{total} within min+2"


def _timed_dp(iq, volume, seed):
    cg = build_controlled(iq)
    comp = complement_inter_qnet(iq)
    rs = sample_requests(iq, volume, seed)
    t0 = time.perf_counter()
    dynamic_parallel_pairs(cg, rs)
    return time.perf_counter() - t0, comp.graph.edge_count


def _fit_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def test_criterion_7_complexity_scaling():
    with criterion(7, "scheduler runtime exponents within the quadratic/linear budget"):
        # sweep the batch size at a roughly fixed complement size
        iq_r = generate_inter_qnet(GenConfig(4, even_sizes(126, 4), 0.5, 7001))
        xs, ts = [], []
        for volume in (8, 16, 32, 64, 128):
            best = min(
                _timed_dp(iq_r, volume, derive_seed(7002, volume, rep))[0]
                for rep in range(3)
            )
            xs.append(volume)
            ts.append(max(best, 1e-5))
        slope_r = _fit_slope(xs, ts)
        # sweep the complement size at a fixed batch size
        xs_e, ts_e = [], []
        for n in (28, 90, 240):
            iq_e = generate_inter_qnet(GenConfig(4, even_sizes(n, 4), 0.5, 7003 + n))
            best, edge_count = min(
                _timed_dp(iq_e, 32, derive_seed(7004, n, rep)) for rep in range(3)
            )
            xs_e.append(edge_count)
            ts_e.append(max(best, 1e-5))
        slope_e = _fit_slope(xs_e, ts_e)
        assert slope_r <= 2.3, f"batch-size exponent {slope_r:.2f}"
        assert slope_e <= 1.2, f"edge-count exponent {slope_e:.2f}"


def test_criterion_8_hop_count_reproduction():
    with criterion(8, "hop statistics: unit hop after complementation, baseline band"):
        t0 = time.perf_counter()
        reductions = {}
        for p in (0.2, 0.8):
            hbars = []
            for rep in range(1000):
                iq = generate_inter_qnet(
                    GenConfig(4, even_sizes(50, 4), p, derive_seed(808, int(p * 10), rep))
                )
                cg = build_controlled(iq)
                try:
                    rs = sample_requests(iq, 20, derive_seed(809, int(p * 10), rep))
                except InsufficientPairsError:
                    continue
                # after complementation every requested pair is adjacent
                measured, _ = mec_complementation(cg)
                assert all(measured.graph.has_edge(s, d) for s, d in rs.requests)
                paths, _ = cqr_batch(cg, rs.requests)
                hbars.append(sum(p.hops for p in paths) / len(paths))
            mean_h = sum(hbars) / len(hbars)
            assert len(hbars) >= 900
            assert 2.0 - 0.3 <= mean_h <= 2.5 + 0.3, f"p={p}: mean hops {mean_h:.3f}"
            reductions[p] = 1 - 1 / mean_h
        assert 0.50 <= reductions[0.8] <= 0.60, f"dense reduction {reductions[0.8]:.3f}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        print(
            f"    hop reduction: sparse {reductions[0.2]:.1%}, dense {reductions[0.8]:.1%}"
        )


def test_criterion_9_throughput_exact_cases():
    with criterion(9, "closed forms match the walkers wherever exactness is claimed"):
        rnd = random.Random(909090)
        seen = {"multi_cycle": 0, "starved": 0, "ondemand_served": 0, "ondemand_zero": 0}
        done = 0
        while done < 10000:
            lam = rnd.randint(1, 100)
            tpm, trm = rnd.randint(0, 30), rnd.randint(0, 30)
            tpb, trb = rnd.randint(0, 30), rnd.randint(0, 30)
            if tpm + trm == 0 or tpb + trb == 0:
                continue
            t = TimingParams(lam, tpm, trm, tpb, trb)
            if lam >= tpm + trm:
                assert walk_mec_window(t) == mec_cycles(t)
                seen["multi_cycle"] += 1
            elif lam < trm:
                assert walk_mec_window(t) == mec_cycles(t) == 0
                seen["starved"] += 1
            if lam >= tpb + trb:
                assert walk_cqr_window(t) == cqr_cycles(t)
                seen["ondemand_served"] += 1
            else:
                assert walk_cqr_window(t) == cqr_cycles(t) == 0
                seen["ondemand_zero"] += 1
            done += 1
        assert all(v > 100 for v in seen.values()), seen


def test_criterion_9_throughput_saturated_band():
    """Saturated regime, trm <= lam < tpm + trm: a block-laying run of one
    window serves exactly the one batch the published middle case counts,
    and the run carried over many windows averages lam/(tpm+trm), since one
    routing qubit per node keeps preparation from being pipelined (see the
    :mod:`mecnet.timeline` module docstring)."""
    with criterion("9b", "one window serves one batch; long run averages lam/(tpm+trm)"):
        rnd = random.Random(911911)
        windows = 2048
        margin = Fraction(1, windows)
        close = 0
        for _ in range(200):
            tpm = rnd.randint(2, 30)
            trm = rnd.randint(1, 30)
            lam = rnd.randint(trm, tpm + trm - 1) if tpm + trm - 1 > trm else trm
            t = TimingParams(lam, tpm, trm, 1, 1)
            one = simulate_mec_long_run(t, windows=1)
            assert one.completions == mec_cycles(t) == 1, t
            res = simulate_mec_long_run(t, windows=windows)
            rate = Fraction(lam, tpm + trm)
            assert abs(Fraction(res.per_window) - rate) <= margin, t
            assert abs(Fraction(res.deviation_from_unit) - (1 - rate)) <= margin, t
            close += 1 - rate <= Fraction(1, 10)
        print(f"    middle case within 10% of the long-run average at {close}/200 points")


def test_criterion_10_footprint_identities_and_ordering(sweep):
    # The ordering claim is made for the four-control configuration (the
    # footprint experiment fixes the control layer at four); identities
    # are exact everywhere.
    with criterion(10, "footprint identities exact; on-demand beats baseline when dense"):
        dense_wins = dense_total = 0
        for row in sweep:
            n, rho, k_prime, sizes = row["n_requests"], row["rho"], row["k_prime"], row["sizes"]
            q_cqr = arqf_cqr(n, row["chi"])
            q_pro = arqf_mec(rho, k_prime, sizes, n, "proactive")
            q_ond = arqf_mec(rho, k_prime, sizes, n, "on_demand")
            assert q_cqr == 2 * n + 2 * row["chi"]
            assert q_pro == rho * (k_prime + sum(sizes))
            assert q_ond == 2 * n + rho * k_prime
            if row["p"] == 0.8 and k_prime == 4:
                dense_total += 1
                dense_wins += q_ond <= q_cqr
        assert dense_total > 0
        frac = dense_wins / dense_total
        assert frac >= 0.80, f"on-demand <= baseline in only {frac:.0%} of dense instances"
        print(f"    dense ordering holds in {frac:.0%} of four-control instances")


def test_criterion_11_real_data_pipeline():
    with criterion(11, "vendored fixture ingests to a valid network; full data reported"):
        parsed = parse_openflights(
            os.path.join(FIXTURES, "airports.dat"), os.path.join(FIXTURES, "routes.dat")
        )
        iq, meta = build_real_instance(parsed)
        assert iq.graph.connected()
        m = iq.partition.membership
        for u, v in iq.graph.edges():
            assert m[u] != m[v]
        assert meta["snapshot_hash"]
        cg = build_controlled(iq)
        got, _ = mec_complementation(cg)
        assert got.graph == complement_inter_qnet(iq).graph

        full_dir = os.environ.get("MECNET_OPENFLIGHTS", "")
        airports = os.path.join(full_dir, "airports.dat")
        routes = os.path.join(full_dir, "routes.dat")
        if full_dir and os.path.exists(airports) and os.path.exists(routes):
            full = parse_openflights(airports, routes)
            fiq, fmeta = build_real_instance(full)
            node_drift = abs(fmeta["cities"] - 3140) / 3140
            edge_drift = abs(len(full.links) - 67663) / 67663
            print(
                f"    full dataset: {fmeta['cities']} cities ({node_drift:.1%} drift), "
                f"{len(full.links)} international links ({edge_drift:.1%} drift)"
            )
        else:
            print(
                "    full dataset not present (set MECNET_OPENFLIGHTS to a directory "
                "with airports.dat and routes.dat); reference counts 3140 nodes / "
                "67663 edges not evaluated"
            )


def test_criterion_11_full_data_branch(monkeypatch, capsys):
    # the fixture stands in for a full snapshot, so the branch that reads one runs
    monkeypatch.setenv("MECNET_OPENFLIGHTS", FIXTURES)
    test_criterion_11_real_data_pipeline()
    assert "43 international links" in capsys.readouterr().out
