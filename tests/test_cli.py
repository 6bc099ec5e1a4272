"""CLI and experiment pipeline: subcommands, exit codes, reproducibility,
fault injection."""

import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path
from statistics import mean
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import EVAL_CONFIG, cross_pair_count, local_complement, reference_run_instance, run_capped

import mecnet
import mecnet.cli as cli
import mecnet.experiments as experiments
import mecnet.pairs as pairs
import mecnet.svgplot as svgplot
import mecnet.verify as verify
from mecnet.cqr import cqr_batch
from mecnet.experiments import (
    ExperimentConfig,
    PipelineMismatch,
    derive_seed,
    even_sizes,
    generate_instances,
    render_figures,
    run_experiment,
    run_instance,
    write_reports,
)
from mecnet.graph import MAX_VERTICES, Graph
from mecnet.metrics import TimingParams, throughput_cqr, throughput_mec
from mecnet.netgen import GenConfig, generate_inter_qnet, sample_requests
from mecnet.qnet import InterQNet, build_controlled, instance_from_text, instance_to_text

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "openflights")


def small_config(tmp_path, **over):
    cfg = {
        "seed": 9,
        "output_dir": str(tmp_path / "out"),
        "repetitions": 2,
        "nodes": 18,
        "qnet_counts": [3],
        "densities": [0.2, 0.8],
        "request_volumes": [4, 6],
        "timing_grid": [{"lam": 10, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1}],
        "jobs": 1,
    }
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def all_compatible_rows(matrix, a, b):
    """A planted rows fault: every request compatible with every other."""
    full = (1 << len(a)) - 1
    return [full & ~(1 << i) for i in range(len(a))]


def near_a_only_rows(matrix, a, b):
    """A planted rows fault, one-sided: each edge conflicts only with the
    edges touching its lower endpoint or one of that endpoint's neighbours."""
    edges = list(zip(a.tolist(), b.tolist()))

    def near(v):
        reach = {v, *matrix[v].nonzero()[0].tolist()}
        return sum(1 << j for j, (c, d) in enumerate(edges) if c in reach or d in reach)

    full = (1 << len(edges)) - 1
    return [full & ~near(min(e)) for e in edges]


def read_table(path):
    """A report CSV as a list of row dicts (the schema line skipped)."""
    lines = Path(path).read_text().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestRunCommand:
    def test_end_to_end(self, tmp_path, capsys):
        cfg_path, cfg = small_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK
        out = cfg["output_dir"]
        for name in ("hops", "parallelism", "arqf", "throughput"):
            assert os.path.exists(os.path.join(out, f"{name}.csv"))
        for name in ("hops", "parallelism_rbar", "parallelism_rho", "arqf", "throughput"):
            assert os.path.exists(os.path.join(out, f"{name}.svg"))

    def test_reproducible(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path)
        cli.main(["run", "--config", cfg_path])
        first = Path(cfg["output_dir"], "hops.csv").read_text()
        cli.main(["run", "--config", cfg_path])
        second = Path(cfg["output_dir"], "hops.csv").read_text()
        assert first == second

    def test_schema_header(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path)
        cli.main(["run", "--config", cfg_path])
        head = Path(cfg["output_dir"], "hops.csv").read_text().splitlines()[0]
        assert head.startswith("# mecnet.hops.v")

    def test_parallel_jobs_identical(self, tmp_path):
        # the reports are computed from the volume results the workers pickle
        cfg_path, cfg = small_config(tmp_path)
        cli.main(["run", "--config", cfg_path])
        cli.main(["run", "--config", cfg_path, "--jobs", "2", "--out", str(tmp_path / "o2")])
        for name in ("hops", "parallelism", "arqf", "throughput"):
            serial = Path(cfg["output_dir"], f"{name}.csv").read_text()
            parallel = (tmp_path / "o2" / f"{name}.csv").read_text()
            assert serial == parallel, name

    def test_a_serial_run_loads_no_process_pool(self, tmp_path):
        # the pool class and multiprocessing load only when a run starts a pool
        cfg_path, cfg = small_config(tmp_path, repetitions=1, densities=[0.2], request_volumes=[3])
        code = "\n".join([
            "import sys",
            "from mecnet import cli",
            "status = cli.main(sys.argv[1:])",
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))",
            "sys.exit(status)",
        ])
        proc = run_capped(code, "run", "--config", cfg_path)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert os.path.exists(os.path.join(cfg["output_dir"], "hops.csv"))

    def test_throughput_rows_follow_the_timing_grid(self, tmp_path):
        grid = [{"lam": lam, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1} for lam in (10, 20, 40)]
        cfg_path, cfg = small_config(tmp_path, timing_grid=grid)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK
        rows = read_table(os.path.join(cfg["output_dir"], "throughput.csv"))
        r_bar = {
            (r["p"], r["k"], r["volume"]): r["r_bar_mean"]
            for r in read_table(os.path.join(cfg["output_dir"], "parallelism.csv"))
        }
        results: dict[tuple, list] = {}
        for res in run_experiment(ExperimentConfig.from_json(cfg_path)):
            for v in res.volumes:
                if not v.skipped:
                    results.setdefault((str(res.p), str(res.k), str(v.volume)), []).append(v)
        cells = {(r["p"], r["k"], r["volume"]) for r in rows}
        assert cells and cells == set(r_bar) == set(results)
        assert len(rows) == len(grid) * len(cells)
        for i in range(0, len(rows), len(grid)):
            cell_rows = rows[i : i + len(grid)]
            cell = (cell_rows[0]["p"], cell_rows[0]["k"], cell_rows[0]["volume"])
            assert {(r["p"], r["k"], r["volume"]) for r in cell_rows} == {cell}
            for t, r in zip(grid, cell_rows):
                timing = TimingParams(**t)
                assert [float(r[name]) for name in ("lambda", "tpm", "trm", "tpb", "trb")] == [
                    float(t[name]) for name in ("lam", "tpm", "trm", "tpb", "trb")
                ]
                assert r["r_bar"] == r_bar[cell]
                n = int(cell[2])
                fm = round(mean(throughput_mec(timing, n / v.rho) for v in results[cell]), 6)
                assert float(r["fm"]) == fm
                assert float(r["fb"]) == round(throughput_cqr(timing), 6)

    def test_mec_column_is_unity(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path)
        cli.main(["run", "--config", cfg_path])
        lines = Path(cfg["output_dir"], "hops.csv").read_text().splitlines()
        for row in lines[2:]:
            assert row.split(",")[4] == "1.0"


class TestRunInstance:
    def test_volume_results_hold_the_closed_forms(self, tmp_path):
        # k = 3 is odd, so its k′ = 4 control vertices differ from k, and a
        # footprint taken with k in place of k′ shows in the reports
        results, cells = [], {}
        for p in (0.2, 0.8):
            for rep in range(3):
                iq = generate_inter_qnet(GenConfig(3, even_sizes(18, 3), p, derive_seed(5, rep)))
                res = run_instance(iq, (4, 6, 500), derive_seed(6, rep), p, rep)
                assert (res.k, res.p, res.rep, res.k_prime, res.sizes) == (3, p, rep, 4, (6, 6, 6))
                assert [v.volume for v in res.volumes] == [4, 6, 500]
                assert res.volumes[-1].skipped
                results.append(res)
                for vi, v in enumerate(res.volumes[:2]):
                    # h̄ = (|R| + χ)/|R| is the baseline's own mean hop count
                    rs = sample_requests(iq, v.volume, derive_seed(derive_seed(6, rep), vi))
                    paths = cqr_batch(build_controlled(iq), rs.requests)[0]
                    assert sum(p.hops for p in paths) / len(paths) == (v.volume + v.chi) / v.volume
                    cells.setdefault((str(p), str(v.volume)), []).append(v)
        write_reports(results, str(tmp_path), [TimingParams(10, 3, 1, 4, 1)])
        rows = {}
        for name in ("hops", "parallelism", "arqf"):
            for r in read_table(tmp_path / f"{name}.csv"):
                rows.setdefault((r["p"], r["volume"]), {}).update(r)
        assert set(rows) == set(cells) and len(cells) == 4
        for (p, volume), vs in cells.items():
            n = int(volume)
            want = {
                "cqr_hops_mean": mean((n + v.chi) / n for v in vs),
                "r_bar_mean": mean(n / v.rho for v in vs),
                "q_cqr_mean": mean(2 * n + 2 * v.chi for v in vs),
                "q_mec_pro_mean": mean(v.rho * (4 + 18) for v in vs),
                "q_mec_ond_mean": mean(2 * n + v.rho * 4 for v in vs),
            }
            assert {col: float(rows[p, volume][col]) for col in want} == pytest.approx(want, abs=1e-6)


@st.composite
def small_configs(draw):
    """One QNet count k from 2 to 5 on at most 24 data vertices, and volumes
    up to one past the cross-domain pair count, so past the pool at any p."""
    k = draw(st.integers(2, 5))
    nodes = draw(st.integers(k, 24))
    cross = cross_pair_count(even_sizes(nodes, k))
    densities = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), min_size=1, max_size=2, unique=True))
    volumes = draw(st.lists(st.integers(0, cross + 1), min_size=1, max_size=4, unique=True))
    return ExperimentConfig(
        seed=draw(st.integers(0, 2**32)), repetitions=draw(st.integers(1, 2)), nodes=nodes,
        qnet_counts=(k,), densities=tuple(densities), request_volumes=tuple(volumes),
    )


class TestRunMatchesTheReferences:
    """``run_experiment`` end to end against ``reference_run_instance``, so
    that a rewrite of a handover between stages (the pool a batch is drawn
    from, the seed a volume gets, the graph a batch is scheduled or routed
    on) shows even when every stage's own tests pass."""

    @staticmethod
    def check(cfg):
        results = run_experiment(cfg)
        cells = list(itertools.product(cfg.qnet_counts, cfg.densities, range(cfg.repetitions)))
        assert [(r.k, r.p, r.rep) for r in results] == cells
        for (k, p, rep), res in zip(cells, results):
            want = reference_run_instance(cfg.seed, cfg.nodes, k, p, rep, cfg.request_volumes)
            assert [(v.skipped, v.rho, v.chi) for v in res.volumes] == want, (k, p, rep)
        return [v for r in results for v in r.volumes]

    def test_every_eval_cell(self):
        cfg = dataclasses.replace(ExperimentConfig.from_json(EVAL_CONFIG), repetitions=1, jobs=1)
        assert not any(v.skipped for v in self.check(cfg))

    def test_odd_k_and_a_volume_past_the_pool(self):
        cfg = ExperimentConfig(
            seed=3, repetitions=2, nodes=15, qnet_counts=(3, 5), densities=(0.2, 0.8),
            request_volumes=(0, 6, 25, 200),
        )
        volumes = self.check(cfg)
        assert {v.volume for v in volumes if v.skipped} == {25, 200}
        assert {v.volume for v in volumes if not v.skipped} == {0, 6, 25}

    @settings(max_examples=100, deadline=None)
    @given(small_configs())
    def test_drawn_configs(self, cfg):
        self.check(cfg)


class TestGenerateAndRunFromFiles:
    def test_instance_files_flow(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path, repetitions=2)
        assert cli.main(["generate", "--config", cfg_path]) == cli.EXIT_OK
        inst_dir = os.path.join(cfg["output_dir"], "instances")
        files = sorted(os.listdir(inst_dir))
        assert "metadata.jsonl" in files
        instances = [os.path.join(inst_dir, f) for f in files if f.endswith(".txt")]
        assert len(instances) == 4  # one k, two densities, two reps
        run_cfg = ExperimentConfig(
            seed=1,
            request_volumes=(3,),
            instance_files=tuple(instances),
        )
        results = run_experiment(run_cfg)
        assert len(results) == len(instances)

    @staticmethod
    def _two_files(tmp_path):
        cfg_path, cfg = small_config(tmp_path, repetitions=1)
        assert cli.main(["generate", "--config", cfg_path]) == cli.EXIT_OK
        inst_dir = os.path.join(cfg["output_dir"], "instances")
        files = sorted(os.path.join(inst_dir, f) for f in os.listdir(inst_dir) if f.endswith(".txt"))
        assert len(files) == 2  # one k, two densities, one rep
        return files

    def test_instance_files_identical_at_two_jobs(self, tmp_path):
        files = self._two_files(tmp_path)
        outs = []
        for jobs in (1, 2):
            run_dir = tmp_path / f"jobs{jobs}"
            run_dir.mkdir()
            cfg_path, cfg = small_config(run_dir, instance_files=files, jobs=jobs)
            assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK
            outs.append(cfg["output_dir"])
        for name in ("hops", "parallelism", "arqf", "throughput"):
            serial = Path(outs[0], f"{name}.csv").read_bytes()
            assert serial == Path(outs[1], f"{name}.csv").read_bytes(), name

    def test_instance_files_reach_the_process_pool(self, tmp_path, monkeypatch):
        files = self._two_files(tmp_path)
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                seen.extend(t[2] for t in tasks)
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        results = run_experiment(ExperimentConfig(request_volumes=(3,), instance_files=tuple(files), jobs=2))
        assert seen == [2, *files]
        assert [r.rep for r in results] == [0, 1]
        seen.clear()
        run_experiment(ExperimentConfig(request_volumes=(3,), instance_files=tuple(files), jobs=1))
        assert seen == []

    def test_pool_is_no_larger_than_the_work(self, tmp_path, monkeypatch):
        # a pool forks all its workers at the first submit, so it is sized
        # to the task count; the stand-in runs at most two real workers, and
        # the CPU count is set past every case's, whatever the host has
        files = self._two_files(tmp_path)
        real = concurrent.futures.ProcessPoolExecutor
        seen = []
        monkeypatch.setattr(os, "cpu_count", lambda: 16)

        def capped_pool(max_workers):
            seen.append(max_workers)
            return real(max_workers=min(max_workers, 2))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", capped_pool)
        one_cell = dict(nodes=18, qnet_counts=(3,), densities=(0.2,), repetitions=1)
        for over, tasks in [
            (dict(instance_files=tuple(files[:1]), jobs=16), 1),
            (dict(instance_files=tuple(files), jobs=16), 2),
            (dict(one_cell, jobs=16), 1),
            (dict(one_cell, repetitions=3, jobs=2), 3),
        ]:
            assert len(run_experiment(ExperimentConfig(request_volumes=(3,), **over))) == tasks
        assert seen == [1, 2, 1, 2]

    def test_worker_mismatch_on_an_instance_file_dumps_it(self, tmp_path, monkeypatch):
        files = self._two_files(tmp_path)

        def corrupted(self, v, k0):
            return self.measure_z(v)[0], original(Graph(2, [(0, 1)]), 1, 0)[1]

        original = Graph.measure_x
        monkeypatch.setattr(Graph, "measure_x", corrupted)
        cfg_path, cfg = small_config(tmp_path, instance_files=files, jobs=2)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_VERIFY
        dump = Path(cfg["output_dir"], "mismatch_instance.txt").read_text()
        assert dump == Path(files[0]).read_text()

    def test_flags_override_the_config_file(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path)
        assert cli.main(["generate", "--config", cfg_path, "--reps", "1", "--nodes", "12"]) == cli.EXIT_OK
        inst_dir = os.path.join(cfg["output_dir"], "instances")
        assert len([f for f in os.listdir(inst_dir) if f.endswith(".txt")]) == 2
        meta = [json.loads(l) for l in Path(inst_dir, "metadata.jsonl").read_text().splitlines()]
        assert len(meta) == 2 and all(m["nodes"] == 12 for m in meta)
        assert cli.main(["run", "--config", cfg_path, "--reps", "1"]) == cli.EXIT_OK
        rows = read_table(os.path.join(cfg["output_dir"], "hops.csv"))
        assert rows and all(r["instances"] == "1" for r in rows)

    def test_generated_files_are_the_networks_run_builds(self, tmp_path, monkeypatch):
        cfg_path, cfg = small_config(tmp_path)
        built = {}

        def capture(iq, volumes, request_seed, p, rep):
            built[iq.partition.k, p, rep] = iq
            part = iq.partition
            return experiments.InstanceResult(part.k, p, rep, part.k_prime, tuple(map(part.membership.count, range(1, part.k + 1))))

        monkeypatch.setattr(experiments, "run_instance", capture)
        run_experiment(ExperimentConfig.from_json(cfg_path))
        assert cli.main(["generate", "--config", cfg_path]) == cli.EXIT_OK
        inst_dir = os.path.join(cfg["output_dir"], "instances")
        meta = [json.loads(l) for l in Path(inst_dir, "metadata.jsonl").read_text().splitlines()]
        assert sorted((m["k"], m["p"], m["rep"]) for m in meta) == sorted(built)
        for m in meta:
            with open(os.path.join(inst_dir, m["file"]), encoding="utf-8") as fh:
                net = instance_from_text(fh.read())
            want = built[m["k"], m["p"], m["rep"]]
            assert net.graph == want.graph and net.partition == want.partition

    def test_malformed_instance_file_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "bad.txt"
        inst.write_text("n=2\n0 1\nqnet: 0,1\n")
        cfg_path, _ = small_config(tmp_path, instance_files=[str(inst)])
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: {inst}: malformed line: 'qnet: 0,1'\n"

    def test_qnet_id_below_one_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "bad.txt"
        inst.write_text("n=2\n0 1\nqnet 0: 0\nqnet 1: 1\n")
        cfg_path, _ = small_config(tmp_path, instance_files=[str(inst)])
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE == 1
        err = capsys.readouterr().err
        assert err == f"usage error: {inst}: malformed line: 'qnet 0: 0': QNet ids start at 1\n"

    def test_qnet_id_gap_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "bad.txt"
        inst.write_text("n=2\n0 1\nqnet 1: 0\nqnet 3: 1\n")
        cfg_path, _ = small_config(tmp_path, instance_files=[str(inst)])
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE == 1
        err = capsys.readouterr().err
        assert err == f"usage error: {inst}: malformed instance: QNet 2 has no data vertex (ids run 1..3)\n"

    def test_malformed_second_instance_file_is_named(self, tmp_path, capsys):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text(instance_to_text(generate_inter_qnet(GenConfig(3, [4, 4, 4], 0.5, 1))))
        bad.write_text("n=2\n0 1\nqnet: 0,1\n")
        cfg_path, _ = small_config(tmp_path, instance_files=[str(good), str(bad)])
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: {bad}: malformed line: 'qnet: 0,1'\n"
        assert not os.path.exists(tmp_path / "out")

    def test_controlled_file_with_a_foreign_control_layer_is_usage_error(self, tmp_path, capsys):
        # an instance file holds the data network only; a control line is
        # refused whatever control layer it names
        inst = tmp_path / "bad.txt"
        inst.write_text("n=4\n0 1\n0 2\n1 3\n2 3\nqnet 1: 0\nqnet 2: 1\ncontrol: 3,2\n")
        cfg_path, _ = small_config(tmp_path, instance_files=[str(inst)])
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: {inst}: malformed line: 'control: 3,2'\n"
        assert not os.path.exists(tmp_path / "out")

    def test_metadata_contents(self, tmp_path):
        cfg = ExperimentConfig(seed=3, repetitions=1, nodes=12, qnet_counts=(3,), densities=(0.5,))
        generate_instances(cfg, str(tmp_path))
        meta = [json.loads(l) for l in (tmp_path / "metadata.jsonl").read_text().splitlines()]
        assert len(meta) == 1
        assert meta[0]["nodes"] == 12 and "seed" in meta[0]


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert cli.main(["verify"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            "complementation-vs-complement: PASS",
            "measurement-rules-vs-tableau: PASS",
            "pairable-vs-bruteforce: PASS",
            "throughput-vs-walkers: PASS",
        ]

    def test_fault_injection_caught(self, monkeypatch, capsys):
        # corrupt the X rule: drop the final complementation step
        original = Graph.measure_x

        def corrupted(self, v, k0):
            g = local_complement(local_complement(self, k0), v).measure_z(v)[0]
            rec = original(Graph(2, [(0, 1)]), 1, 0)[1]
            return g, rec

        monkeypatch.setattr(Graph, "measure_x", corrupted)
        res = verify.suite_complement(trials=50, seed=1)
        assert not res.passed
        assert res.failures and "n=" in res.failures[0]

    def test_cli_exit_code_on_failure(self, monkeypatch):
        def corrupted(self, v, k0):
            return self.measure_z(v)[0], original(Graph(2, [(0, 1)]), 1, 0)[1]

        original = Graph.measure_x
        monkeypatch.setattr(Graph, "measure_x", corrupted)
        assert cli.main(["verify", "--suite", "complement"]) == cli.EXIT_VERIFY

    @pytest.mark.parametrize(
        "fault", [all_compatible_rows, near_a_only_rows], ids=["all_compatible", "near_a_only"]
    )
    def test_planted_rows_fault_fails_pairable_suite(self, monkeypatch, capsys, fault):
        # the suite reads the scheduler's rows bit by bit, so even a rows
        # function that only drops the conflicts of one endpoint fails it
        monkeypatch.setattr(pairs, "_compat_rows", fault)
        assert cli.main(["verify", "--suite", "pairable"]) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        assert "pairable-vs-bruteforce: FAIL" in out
        assert "  counterexample: edges=" in out

    def test_measurement_suite_reaches_the_oracle_limit(self, monkeypatch):
        sizes = []

        def recording(g):
            sizes.append(g.vertex_count)
            return graph_state(g)

        graph_state = verify.graph_state
        monkeypatch.setattr(verify, "graph_state", recording)
        res = verify.suite_measurement_oracle()
        assert res.passed and res.failures == [] and res.checked > 0
        small = [n for n in sizes if n <= verify.ORACLE_MAX_QUBITS]
        assert max(small) == verify.ORACLE_MAX_QUBITS
        assert sum(n > 5 for n in small) > len(small) // 2
        # then each eval-sized controlled network and its complement's state:
        # the eval config's 50 data vertices and k' controls, k' = 4, 6 (k = 5),
        # 8 and 10
        assert verify.EVAL_DATA_VERTICES == ExperimentConfig.from_json(EVAL_CONFIG).nodes == 50
        assert sorted(n for n in sizes if n > verify.ORACLE_MAX_QUBITS) == [54, 54, 56, 56, 58, 58, 60, 60]

    def test_measurement_suite_reports_an_eval_network(self, monkeypatch):
        # a wrong target for the controls' X measurements, the network
        # itself for its complement, fails every eval-sized network and no
        # small graph, and each failure is the network's instance file
        monkeypatch.setattr(verify, "complement_inter_qnet", lambda iq: iq)
        res = verify.suite_measurement_oracle()
        assert len(res.failures) == len(verify.EVAL_NETWORKS)
        for failure, (k, _) in zip(res.failures, verify.EVAL_NETWORKS):
            iq = instance_from_text(failure)
            assert iq.partition.data_count == verify.EVAL_DATA_VERTICES and iq.partition.k == k


INGEST_FILES = ("real_instance.txt", "real_instance.meta.jsonl")

# sha256 of each ingest output, in INGEST_FILES order, for four argument
# sets over the vendored fixture: no filter, a two-country filter, a
# subsample of every country, and a subsample of nine EU countries
INGEST_DIGESTS = {
    "all": (
        (),
        (
            "a6a21987513942ceacffd8b98db037c84332ff540304df0f7b8824c18f4e39b2",
            "f54354112b86c87376d969169bb53d29d701b597016ee69c64b2a045b7db4aeb",
        ),
    ),
    "france_germany": (
        ("--countries", "France", "Germany"),
        (
            "3b07325a6c80f9391619ec1861bf68465c2830783335631bc8917434401e1af8",
            "4295728209a95bd80a3303261193b6049aea1bc176ef73d10fa9df3ddb3b746a",
        ),
    ),
    "sample_20_seed_5": (
        ("--sample", "20", "--seed", "5"),
        (
            "c19c957f91da291ac8b110f109a7fd4a1ee21c1f4fdfdfad04cdee174ce7565c",
            "21d18acda0cab98f47a4589612ae7c6cab62adb23efb6421d88f2c6d52f4bbad",
        ),
    ),
    "eu9_sample_12_seed_3": (
        ("--countries", "France", "Germany", "Spain", "Italy", "Netherlands", "Austria",
         "Portugal", "Poland", "Ireland", "--sample", "12", "--seed", "3"),
        (
            "8ff43355f7f8aebf7293e9b4c3a6e90884aaa42a71faefb98c59fc32d2783383",
            "bcbe97bfd6a2055972319d9f2cdb1e74473ffd8f0e3b2569a84383866a845999",
        ),
    ),
}


class TestIngestCommand:
    def test_fixture_ingest(self, tmp_path, capsys):
        rc = cli.main(
            [
                "ingest",
                "--airports",
                os.path.join(FIXTURES, "airports.dat"),
                "--routes",
                os.path.join(FIXTURES, "routes.dat"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == cli.EXIT_OK
        assert os.path.exists(tmp_path / "real_instance.txt")
        meta = json.loads((tmp_path / "real_instance.meta.jsonl").read_text())
        assert meta["parse"]["join_failures"] == 2

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_sample_size_below_one_is_usage_error(self, tmp_path, capsys, size):
        rc = cli.main(
            [
                "ingest",
                "--airports",
                os.path.join(FIXTURES, "airports.dat"),
                "--routes",
                os.path.join(FIXTURES, "routes.dat"),
                "--sample",
                size,
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: sample size must be at least 1, got {size}" in err
        assert not os.path.exists(tmp_path / "real_instance.txt")

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["ingest", "--airports", os.path.join(FIXTURES, "airports.dat"),
                       "--routes", os.path.join(FIXTURES, "routes.dat"),
                       "--sample", "5", "--seed", "-3", "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error: subsample seed must be non-negative, got -3" in err
        assert not os.path.exists(tmp_path / "out")

    def test_seed_without_sample_is_usage_error(self, tmp_path, capsys):
        fixture = ["--airports", os.path.join(FIXTURES, "airports.dat"),
                   "--routes", os.path.join(FIXTURES, "routes.dat")]
        rc = cli.main(["ingest", *fixture, "--seed", "9", "--out", str(tmp_path / "a")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error:" in err and "--seed" in err and "--sample" in err
        assert not os.path.exists(tmp_path / "a")
        # --sample alone keeps seed 0, as sidecars written before record
        metas = []
        for name, seed in (("b", []), ("c", ["--seed", "0"])):
            out = tmp_path / name
            assert cli.main(["ingest", *fixture, "--sample", "20", *seed, "--out", str(out)]) == cli.EXIT_OK
            metas.append((out / "real_instance.meta.jsonl").read_text())
            assert (out / "real_instance.txt").read_text() == (tmp_path / "b" / "real_instance.txt").read_text()
        assert metas[0] == metas[1] and json.loads(metas[0])["subsample"] == [20, 0]

    def test_missing_file_is_io_error(self, tmp_path):
        rc = cli.main(
            ["ingest", "--airports", "/nonexistent.dat", "--routes", "/nope.dat"]
        )
        assert rc == cli.EXIT_IO

    def test_countries_without_names_is_usage_error(self, tmp_path, capsys):
        # an empty list would read as no filter and ingest every country
        rc = cli.main(["ingest", "--airports", os.path.join(FIXTURES, "airports.dat"),
                       "--routes", os.path.join(FIXTURES, "routes.dat"),
                       "--countries", "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_USAGE
        assert "--countries: expected at least one argument" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("name", sorted(INGEST_DIGESTS))
    def test_ingest_bytes_are_pinned(self, tmp_path, name):
        args, digests = INGEST_DIGESTS[name]
        fixture = ["--airports", os.path.join(FIXTURES, "airports.dat"),
                   "--routes", os.path.join(FIXTURES, "routes.dat")]
        assert cli.main(["ingest", *fixture, *args, "--out", str(tmp_path)]) == cli.EXIT_OK
        got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in INGEST_FILES)
        assert dict(zip(INGEST_FILES, got)) == dict(zip(INGEST_FILES, digests))


REPORT_FILES = (
    "arqf.csv", "hops.csv", "parallelism.csv", "throughput.csv",
    "arqf.svg", "hops.svg", "parallelism_rbar.svg", "parallelism_rho.svg", "throughput.svg",
)

# sha256 of each report file, in REPORT_FILES order, for two small runs:
# "mixed" has a volume of 0, a volume skipped in some instances and in whole
# cells, and two timing points; "all_skipped" skips its one volume
# everywhere, so its CSVs hold only the schema line and the header
REPORT_DIGESTS = {
    "mixed": (
        {
            "seed": 5, "repetitions": 3, "nodes": 12, "qnet_counts": [3],
            "densities": [0.2, 0.8], "request_volumes": [0, 5, 12, 30],
            "timing_grid": [
                {"lam": 10, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1},
                {"lam": 2.5, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1},
            ],
        },
        (
            "61b9c3323e2889204f12b0f0bfaf7a4e32ea137c803a6f0e5b75046185a88f01",
            "142e0eb027ad2e110ff5fcc0399da2dd7f37d8f349a09fd97cc0ca6c2c506e07",
            "d06176d26bb177d61468e74eb1922845d47264ea116b8413923a9103bd7c07bd",
            "88cd0487c851a99e27571993dae348ca1385fe0c545f07fd23c22ef6106d275d",
            "7651fed710be8798d6db95c8f42659db96e712be131f8f60e3dad2e3fc341651",
            "ff2c7dbb0cc8eb92ed0032a72fdaca214d87b4257eda91ebbe7c6d3ea5557d9a",
            "2717b4ee7da1a29dbc547ee586c72a1d483bac202de714f0a99bfa5d67d37289",
            "12041ac0b891a0ca73c645d88c1dce08b8f0b5c79ace8e0d59d155621888c0fa",
            "5a69b4afde9a8f7876f9bb7e8d2961b645b29c1d8a1c4f75a8055065191630b2",
        ),
    ),
    "all_skipped": (
        {
            "seed": 5, "repetitions": 1, "nodes": 12, "qnet_counts": [3],
            "densities": [0.5], "request_volumes": [100],
        },
        (
            "03b8c0ac0a19ea59206049b7c4e814810a72b906eb06cf1dbcec0e1aebd87258",
            "1f8b398c396f2f7290bc354f9b5685fd969cb3c6053a551f6d2f9834013b2dc7",
            "70b9d5a345fce3f5f4a977ccfb3d8a367dc9e3edb8c2c21fcab5e97c10bc5bfd",
            "0eeb5b1e2a8a363c5b13211f73ce6df7d0fca39fe6699bdc2f03b1e771d50763",
            "48b1a46e9c6ff3f48dc0e188f65330a5a988de9ed83da76fb3492f1f910df75d",
            "12918421e4a3221b998d01d7c6075aa13eac3ba23ea75e9c6ba9f007ddccab69",
            "abadd29ee4327028ba35b1785cd0c2762cbb29378e9b176a10b4a1c35a33ee3e",
            "7c6951a2809ce04aec5015f215d4816068ba415f27ec16feb7db205f14a8df79",
            "097aa7120fc6977733cb5d98780b30a12bea16dd3160a6b03a371b8482d08292",
        ),
    ),
}

# sha256 of the four CSVs of the whole configs/eval.json run (8000 instances);
# the same at any --jobs
EVAL_DIGESTS = {
    "hops.csv": "2c95fbe9d8966b6babe7f190bcd2189bd24374ce21f670ea4c9119b750676d96",
    "parallelism.csv": "c97d64580219927d9bdd3e2627eed3e4bf25f7f553c2667deb13cc3c631cc12b",
    "arqf.csv": "043ebf1f939661d08f6227b5699b8a64d7aa5d90b82575cdd6f195789e332eb2",
    "throughput.csv": "62863aca1e55fbf7654f41041cf3854adeda4f7072ee42a73a26052fe3ad1ff3",
}


class TestReportCommand:
    @pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
    def test_report_bytes_are_pinned(self, tmp_path, name):
        cfg, digests = REPORT_DIGESTS[name]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(cfg, output_dir=str(tmp_path / "out"))))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_OK
        got = tuple(
            hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in REPORT_FILES
        )
        assert dict(zip(REPORT_FILES, got)) == dict(zip(REPORT_FILES, digests))

    def test_full_eval_digests_are_pinned(self, tmp_path):
        jobs = min(2, os.cpu_count() or 1)
        argv = ["run", "--config", EVAL_CONFIG, "--out", str(tmp_path), "--jobs", str(jobs)]
        assert cli.main(argv) == cli.EXIT_OK
        got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in EVAL_DIGESTS}
        assert got == EVAL_DIGESTS

    def test_rerender_from_csv_only(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path)
        cli.main(["run", "--config", cfg_path])
        out = cfg["output_dir"]
        for name in ("hops", "arqf"):
            os.remove(os.path.join(out, f"{name}.svg"))
        assert cli.main(["report", "--out", out]) == cli.EXIT_OK
        assert os.path.exists(os.path.join(out, "hops.svg"))

    def test_report_refuses_a_table_with_another_schema_tag(self, tmp_path, capsys):
        cfg_path, cfg = small_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK
        out = cfg["output_dir"]
        table = os.path.join(out, "parallelism.csv")
        text = Path(table).read_text()
        assert text.startswith("# mecnet.parallelism.v1\n")
        with open(table, "w") as fh:
            fh.write(text.replace("# mecnet.parallelism.v1", "# mecnet.parallelism.v0", 1))
        assert cli.main(["report", "--out", out]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: {table} has schema tag 'mecnet.parallelism.v0', "
            "expected 'mecnet.parallelism.v1'\n"
        )

    def test_svg_pure_function_of_csv(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path)
        cli.main(["run", "--config", cfg_path])
        out = cfg["output_dir"]
        first = Path(out, "hops.svg").read_text()
        render_figures(out)
        assert Path(out, "hops.svg").read_text() == first

    @staticmethod
    def _edit_hops_line(out, lineno, edit):
        """Rewrite one line of ``hops.csv`` (1-based) through ``edit``."""
        table = os.path.join(out, "hops.csv")
        lines = Path(table).read_text().split("\n")
        lines[lineno - 1] = edit(lines[lineno - 1])
        with open(table, "w") as fh:
            fh.write("\n".join(lines))
        return table

    def test_report_refuses_a_short_row(self, tmp_path, capsys):
        cfg_path, cfg = small_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK
        table = self._edit_hops_line(
            cfg["output_dir"], 4, lambda line: ",".join(line.split(",")[:5])
        )
        assert cli.main(["report", "--out", cfg["output_dir"]]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {table} line 4 has 5 fields, expected 8\n"

    def test_report_refuses_a_renamed_header_column(self, tmp_path, capsys):
        cfg_path, cfg = small_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK
        header = experiments.TABLES["hops"][1]
        renamed = header.replace("cqr_hops_mean", "cqr_hops_avg")
        table = self._edit_hops_line(cfg["output_dir"], 2, lambda line: renamed)
        assert cli.main(["report", "--out", cfg["output_dir"]]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: {table} line 2 has header {renamed!r}, expected {header!r}\n"
        )

    def _report_with_a_hops_cell(self, tmp_path, capsys, value):
        """Run the small config, put ``value`` in line 4's ``cqr_hops_mean``
        cell of ``hops.csv``, and return the table's path and the report's
        stderr, once the report has exited with a usage error."""
        cfg_path, cfg = small_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK
        col = experiments.TABLES["hops"][1].split(",").index("cqr_hops_mean")

        def edit(line):
            cells = line.split(",")
            assert cells[col] != ""
            cells[col] = value
            return ",".join(cells)

        table = self._edit_hops_line(cfg["output_dir"], 4, edit)
        capsys.readouterr()
        assert cli.main(["report", "--out", cfg["output_dir"]]) == cli.EXIT_USAGE
        return table, capsys.readouterr().err

    def test_report_names_the_cell_that_is_not_a_number(self, tmp_path, capsys):
        table, err = self._report_with_a_hops_cell(tmp_path, capsys, "abc")
        assert err == f"usage error: {table} line 4, column 'cqr_hops_mean': 'abc' is not a number\n"

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_report_names_the_cell_that_is_not_finite(self, tmp_path, capsys, value):
        # float() reads each of these, and the figure would plot it as nan
        table, err = self._report_with_a_hops_cell(tmp_path, capsys, value)
        assert err == (
            f"usage error: {table} line 4, column 'cqr_hops_mean': '{value}' is not a finite number\n"
        )

    def test_svg_text_from_the_tables_is_escaped(self, tmp_path):
        # every figure puts k into a legend name or a group label
        cfg_path, cfg = small_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK
        out = cfg["output_dir"]
        for name in experiments.TABLES:
            table = os.path.join(out, f"{name}.csv")
            lines = Path(table).read_text().splitlines()
            for i in range(2, len(lines)):
                cells = lines[i].split(",")
                cells[1] = "a<b&c>"
                lines[i] = ",".join(cells)
            with open(table, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        assert cli.main(["report", "--out", out]) == cli.EXIT_OK
        for f in REPORT_FILES[4:]:
            root = ElementTree.parse(os.path.join(out, f)).getroot()
            assert any("k=a<b&c>" in (node.text or "") for node in root.iter()), f
        for svg, labels in (
            (svgplot.line_chart({"s<1>": [(1.0, 2.0)]}, "t&i<t>le", "x<", "y&"), set()),
            (svgplot.grouped_bars(["g&<>"], {"s<1>": [2.0]}, "t&i<t>le", "x<", "y&"), {"g&<>"}),
        ):
            texts = {node.text for node in ElementTree.fromstring(svg).iter()}
            assert {"t&i<t>le", "x<", "y&", "s<1>"} | labels <= texts

    def test_rerun_into_the_same_directory_leaves_no_stale_bytes(self, tmp_path):
        # the larger run writes longer files, so a stale tail would show
        for side in ("big", "small", "fresh"):
            (tmp_path / side).mkdir()
        big_path, _ = small_config(
            tmp_path / "big", repetitions=3, request_volumes=[4, 6, 8],
            timing_grid=[{"lam": lam, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1} for lam in (10, 20)],
            output_dir=str(tmp_path / "shared"),
        )
        small_path, _ = small_config(tmp_path / "small", output_dir=str(tmp_path / "shared"))
        fresh_path, _ = small_config(tmp_path / "fresh", output_dir=str(tmp_path / "fresh_out"))
        assert cli.main(["run", "--config", big_path]) == cli.EXIT_OK
        big_sizes = {f: os.path.getsize(tmp_path / "shared" / f) for f in REPORT_FILES}
        assert cli.main(["run", "--config", small_path]) == cli.EXIT_OK
        assert cli.main(["run", "--config", fresh_path]) == cli.EXIT_OK
        for f in REPORT_FILES:
            fresh = (tmp_path / "fresh_out" / f).read_bytes()
            assert len(fresh) < big_sizes[f], f
            assert (tmp_path / "shared" / f).read_bytes() == fresh, f

    @pytest.mark.parametrize("blocked", ["hops.csv", "hops.svg"])
    def test_unwritable_report_path_is_io_error(self, tmp_path, capsys, blocked):
        cfg_path, cfg = small_config(tmp_path)
        os.makedirs(os.path.join(cfg["output_dir"], blocked))
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("I/O error: ")


def _whole_mean_ints(draw_xs_and_mean):
    """Ints with one value appended so that their mean is the drawn int."""
    xs, m = draw_xs_and_mean
    return xs + [(len(xs) + 1) * m - sum(xs)]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# 1 - 1/h for a mean hop count h = hops / requests of at least two hops
_ONE_MINUS_INV_H = st.integers(1, 300).flatmap(
    lambda n: st.integers(2 * n, 8 * n).map(lambda hops: 1 - 1 / (hops / n))
)
MEAN_INPUTS = {
    "ints": st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=12),
    "ints_whole_mean": st.tuples(
        st.lists(st.integers(-1000, 1000), max_size=11), st.integers(-1000, 1000)
    ).map(_whole_mean_ints),
    "floats": st.lists(_FINITE, min_size=1, max_size=12),
    "mixed": st.lists(st.one_of(st.integers(-(10**6), 10**6), _FINITE), min_size=1, max_size=12),
    "one_minus_inv_h": st.lists(_ONE_MINUS_INV_H, min_size=1, max_size=12),
}


class TestMean:
    @pytest.mark.parametrize("kind", sorted(MEAN_INPUTS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mean_equals_the_rounded_statistics_mean(self, kind, data):
        xs = data.draw(MEAN_INPUTS[kind])
        got, want = experiments._mean(xs), round(mean(xs), 6)
        assert type(got) is type(want)
        assert repr(got) == repr(want)

    def test_mean_of_no_values_is_blank(self):
        assert experiments._mean(iter(())) == ""


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["top", "run"])
    def test_help_exits_ok(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("usage: mecnet") and err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
            (["run", "--bogus"], "unrecognized arguments: --bogus"),
            (["verify", "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
        ],
        ids=["no_command", "unknown_command", "unknown_flag", "unknown_suite"],
    )
    def test_argparse_error_is_usage_error(self, capsys, argv, message):
        # the usage line, then argparse's message after "error: ", on stderr
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        usage, _, last = err.rstrip("\n").rpartition("\n")
        assert out == "" and usage.startswith("usage: mecnet") and "error:" not in usage
        assert last.startswith(f"error: {message}") and err.endswith("\n")

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "over, named",
        [
            (
                {"densities": [0.2, 1.5], "repetitions": 40, "request_volumes": [50, 100]},
                "grid cell nodes=18, qnet_counts[0]=3, densities[1]=1.5: "
                "edge probability must lie in [0,1]",
            ),
            ({"request_volumes": [10, -5]}, "request_volumes[1] must be non-negative, got -5"),
            (
                {"qnet_counts": [1], "densities": [0.2]},
                "grid cell nodes=18, qnet_counts[0]=1, densities[0]=0.2: need at least two QNets",
            ),
            # no QNet at all: refused the same way, not by a division by zero
            (
                {"qnet_counts": [0], "densities": [0.2]},
                "grid cell nodes=18, qnet_counts[0]=0, densities[0]=0.2: need at least two QNets",
            ),
            (
                {"nodes": 3, "qnet_counts": [4], "densities": [0.8]},
                "grid cell nodes=3, qnet_counts[0]=4, densities[0]=0.8: QNet sizes must be positive",
            ),
            # numpy's seeding would refuse it at the first instance, naming no key
            ({"seed": -1}, "seed must be non-negative, got -1"),
            # an empty grid would run nothing and write header-only tables
            ({"densities": []}, "no experiment selected"),
            # write_reports would fail on it after every instance had run
            ({"output_dir": ""}, "output_dir must name a directory, got ''"),
        ],
        ids=[
            "density", "volume", "one_qnet", "no_qnet", "nodes", "negative_seed", "no_density",
            "empty_output_dir",
        ],
    )
    def test_bad_grid_value_refused_when_the_config_is_read(
        self, tmp_path, capsys, monkeypatch, over, named, jobs
    ):
        def never(*args):
            raise AssertionError("run_instance ran on a refused config")

        monkeypatch.setattr(experiments, "run_instance", never)
        cfg_path, _ = small_config(tmp_path, jobs=jobs, **over)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {named}\n"
        assert not os.path.exists(tmp_path / "out")

    def test_invalid_density_is_usage_error(self, tmp_path):
        cfg_path, _ = small_config(tmp_path, densities=[2.0])
        assert cli.main(["generate", "--config", cfg_path]) == cli.EXIT_USAGE

    def test_unknown_seed_policy_is_usage_error(self, tmp_path, capsys):
        # the scheduler is the paper's greedy; the key accepts only its name
        assert ExperimentConfig.from_dict({"seed_policy": "greedy_max"}) == ExperimentConfig()
        for policy in ("greedy", "lowest_id"):
            with pytest.raises(ValueError, match="the only scheduler is 'greedy_max'"):
                ExperimentConfig.from_dict({"seed_policy": policy})
            cfg_path, _ = small_config(tmp_path, seed_policy=policy)
            assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
            assert f"usage error: unknown seed_policy {policy!r}" in capsys.readouterr().err
            assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"tpm": 0, "trm": 0}, "cycle time tpm + trm must be positive"),
            ({"tpb": 0, "trb": 0}, "cycle time tpb + trb must be positive"),
            # JSON's Infinity and NaN are floats that no exact rational holds
            ({"lam": math.inf}, "lam must be finite, got inf"),
            ({"trm": math.nan}, "trm must be finite, got nan"),
            # a JSON integer is exact, but the reports write it as a float
            ({"lam": 10**400}, "lam is too large for a float"),
        ],
        ids=["tpm-trm", "tpb-trb", "lam-inf", "trm-nan", "lam-huge"],
    )
    def test_bad_timing_value_is_usage_error(self, tmp_path, capsys, over, message):
        timing = {"lam": 10, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1, **over}
        cfg_path, _ = small_config(tmp_path, timing_grid=[timing])
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: bad config value(s): timing_grid[0]: {message}\n"
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize(
        "key, values",
        [
            ("qnet_counts", [3, 3]),
            ("densities", [0.2, 0.8, 0.2]),
            ("request_volumes", [4, 4]),
            ("timing_grid", [{"lam": 4, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1}] * 2),
            # 10 and 10.0 are the same point, and would write the same row
            ("timing_grid", [{"lam": 10, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1},
                             {"lam": 10.0, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1}]),
        ],
    )
    def test_repeated_grid_value_is_usage_error(self, tmp_path, capsys, key, values):
        cfg_path, _ = small_config(tmp_path, **{key: values})
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        if key == "timing_grid":
            values = [TimingParams(**t) for t in values]
        assert err == f"usage error: {key} repeats a value: {values}\n"
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize(
        "densities, i, shared",
        [
            ([0.5, 0.2, 0.2000001], 1, "seed material 200000 and file tag p0.2"),
            ([0.01, 0.0100001], 0, "seed material 10000"),
            ([0.2999996, 0.3000004], 0, "file tag p0.3"),
            ([0.2, 0.2000001, math.nan], 0, "seed material 200000 and file tag p0.2; grid cell nodes=18, "
             "qnet_counts[0]=3, densities[2]=nan: edge probability must lie in [0,1]"),
        ],
        ids=["both", "seed-only", "tag-only", "beside-nan"],
    )
    def test_densities_sharing_seeds_or_file_names_are_usage_error(self, tmp_path, capsys, densities, i, shared):
        # a shared seed gives two cells one network; a shared tag, one file
        cfg_path, _ = small_config(tmp_path, densities=densities)
        pair = f"densities[{i}]={densities[i]} and densities[{i + 1}]={densities[i + 1]}"
        for command in ("generate", "run"):
            assert cli.main([command, "--config", cfg_path]) == cli.EXIT_USAGE
            assert capsys.readouterr().err == f"usage error: {pair} share the {shared}\n"
        assert not os.path.exists(tmp_path / "out")

    def test_densities_one_millionth_apart_get_their_own_seeds_and_files(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path, densities=[0.200001, 0.200002], repetitions=1)
        assert cli.main(["generate", "--config", cfg_path]) == cli.EXIT_OK
        inst_dir = Path(cfg["output_dir"], "instances")
        meta = [json.loads(line) for line in (inst_dir / "metadata.jsonl").read_text().splitlines()]
        files = sorted(f.name for f in inst_dir.glob("*.txt"))
        assert [m["file"] for m in meta] == files == ["k3_p0.200001_r0.txt", "k3_p0.200002_r0.txt"]
        assert meta[0]["seed"] != meta[1]["seed"]

    @pytest.mark.parametrize("text, kind", [("5", "int"), ('[{"a": 1}]', "list")])
    def test_config_not_an_object_is_usage_error(self, tmp_path, capsys, text, kind):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: config must be a JSON object, got {kind}" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "out")

    def test_unknown_config_keys_are_usage_error(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="unknown config key\\(s\\) 'repetition', 'denisties'"):
            ExperimentConfig.from_dict({"repetition": 2, "seed": 3, "denisties": [0.2]})
        cfg_path, _ = small_config(tmp_path, repetition=2)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown config key(s) 'repetition'" in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"repetitions": "2"}, "repetitions must be int, got str '2'"),
            ({"densities": 0.2}, "densities must be a list, got float 0.2"),
        ],
    )
    def test_wrong_value_type_is_usage_error(self, tmp_path, capsys, over, message):
        cfg_path, _ = small_config(tmp_path, **over)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
        assert f"usage error: bad config value(s): {message}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_every_bad_value_named_in_one_error(self):
        timing = {"lam": 10, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1}
        cases = [
            (
                {
                    "jobs": True,
                    "qnet_counts": [4, 6.0],
                    "timing_grid": [{"lam": 10, "tpm": 3, "trm": 1, "tpb": 4}],
                    "output_dir": "out",
                    "seed_policy": 3,
                },
                "bad config value(s): jobs must be int, got bool True; "
                "qnet_counts[1] must be int, got float 6.0; "
                "timing_grid[0] must be an object of numbers with keys lam, tpm, trm, tpb, trb, "
                "got {'lam': 10, 'tpm': 3, 'trm': 1, 'tpb': 4}; "
                "seed_policy must be str, got int 3",
            ),
            # a value its type refuses is named by its path next to the type errors
            (
                {"jobs": True, "timing_grid": [timing, dict(timing, lam=0)]},
                "bad config value(s): jobs must be int, got bool True; "
                "timing_grid[1]: lam must be positive",
            ),
            (
                {"jobs": True, "timing_grid": [dict(timing, lam=0)]},
                "bad config value(s): jobs must be int, got bool True; "
                "timing_grid[0]: lam must be positive",
            ),
            # every failed check of the whole config, not only the first
            ({"jobs": 0, "repetitions": 0}, "repetitions must be at least 1; jobs must be positive"),
            (
                {"jobs": 0, "repetitions": 0, "request_volumes": [4, 4]},
                "repetitions must be at least 1; jobs must be positive; "
                "request_volumes repeats a value: [4, 4]",
            ),
        ]
        for config, message in cases:
            with pytest.raises(ValueError) as info:
                ExperimentConfig.from_dict(config)
            assert str(info.value) == message
        cfg = ExperimentConfig.from_dict({"densities": [1, 0.5], "instance_files": ["a.txt"]})
        assert cfg.densities == (1, 0.5) and cfg.instance_files == ("a.txt",)

    def test_config_defaults_come_from_the_dataclass(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()
        cfg = ExperimentConfig.from_dict({"densities": [0.5], "timing_grid": [
            {"lam": 20, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1}]})
        assert cfg.densities == (0.5,) and cfg.timing_grid[0].lam == 20
        assert cfg.repetitions == ExperimentConfig().repetitions

    def test_shipped_config_uses_known_keys(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = ExperimentConfig.from_json(os.path.join(root, "configs", "eval.json"))
        assert cfg.repetitions == 1000 and len(cfg.timing_grid) == 3

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MECNET_OUT", str(tmp_path / "envout"))
        cfg_path, cfg = small_config(tmp_path)
        # flag absent: env var wins over the config file value
        cli.main(["run", "--config", cfg_path, "--reps", "1"])
        assert os.path.exists(tmp_path / "envout" / "hops.csv")

    @pytest.mark.parametrize(
        "argv, work, source",
        [
            pytest.param(argv, work, source, id=name if source == "--out" else f"{name}-MECNET_OUT")
            for name, argv, work in [
                ("generate", ["generate"], "generate_instances"),
                ("ingest", ["ingest", "--airports", os.path.join(FIXTURES, "airports.dat"),
                            "--routes", os.path.join(FIXTURES, "routes.dat")], "parse_openflights"),
                ("run", ["run"], "run_experiment"),
                ("report", ["report"], "render_figures"),
            ]
            for source in ("--out", "MECNET_OUT")
        ],
    )
    def test_empty_out_flag_is_usage_error(self, tmp_path, monkeypatch, capsys, argv, work, source):
        # an empty --out or MECNET_OUT is not read as an absent one: nothing
        # runs, and nothing is written to MECNET_OUT, the config's directory
        # or the default one in its place
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, work, lambda *a, **kw: pytest.fail(f"{work} ran"))
        if source == "--out":
            monkeypatch.setenv("MECNET_OUT", str(tmp_path / "envout"))
            argv = [*argv, "--out", ""]
            message = "--out is empty; name a directory or leave the flag out"
        else:
            monkeypatch.setenv("MECNET_OUT", "")
            message = "MECNET_OUT is set but empty; name a directory or unset it"
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert os.listdir(tmp_path) == []


# Runs the CLI on sys.argv[1:], prints the seconds it took and exits with its
# status.
TIMED_CLI = """
import sys, time
from mecnet import cli
start = time.perf_counter()
status = cli.main(sys.argv[1:])
print(f"{time.perf_counter() - start:.3f}")
sys.exit(status)
"""


class TestSizeLimits:
    @pytest.mark.parametrize(
        "over, named",
        [
            (
                {"qnet_counts": [10**9]},
                "grid cell nodes=18, qnet_counts[0]=1000000000, densities[0]=0.2: "
                "QNet sizes must be positive",
            ),
            (
                {"qnet_counts": [10**29]},
                f"grid cell nodes=18, qnet_counts[0]={10**29}, densities[0]=0.2: "
                "QNet sizes must be positive",
            ),
            ({"nodes": 10**12}, f"nodes 1000000000000 is above the vertex limit {MAX_VERTICES}"),
            (
                {"repetitions": 10**8, "request_volumes": [3]},
                "repetitions 100000000 makes a grid of 100000000 instances, "
                f"above the instance limit {experiments.MAX_INSTANCES}",
            ),
            # an instance file, written by the test, whose header is that
            (
                {"instance_files": "n=300000000\nqnet 1: 0\n"},
                f"malformed line: 'n=300000000': vertex_count 300000000 is above the vertex limit {MAX_VERTICES}",
            ),
        ],
        ids=["count_1e9", "count_1e29", "nodes_1e12", "repetitions_1e8", "instance_header"],
    )
    def test_a_size_no_memory_holds_is_refused_at_once(self, tmp_path, over, named):
        # each of these once sized an allocation from the value (a tuple of
        # k QNet sizes, a list of n vertices, a task per grid instance) and
        # ran out of memory; under a capped address space a regression fails
        # here, not in the runner
        if "instance_files" in over:
            big = tmp_path / "big.txt"
            big.write_text(over["instance_files"])
            over, named = {"instance_files": [str(big)]}, f"{big}: {named}"
        cfg_path, _ = small_config(tmp_path, densities=[0.2], **over)
        proc = run_capped(TIMED_CLI, "run", "--config", cfg_path)
        assert proc.returncode == cli.EXIT_USAGE, proc.stderr
        assert proc.stderr == f"usage error: {named}\n"
        assert float(proc.stdout) < 2.0
        assert not os.path.exists(tmp_path / "out")

    def test_generate_refuses_reps_past_the_instance_limit(self, tmp_path):
        cfg_path, _ = small_config(tmp_path, densities=[0.2])
        proc = run_capped(TIMED_CLI, "generate", "--config", cfg_path, "--reps", 10**8)
        assert proc.returncode == cli.EXIT_USAGE, proc.stderr
        assert proc.stderr == (
            "usage error: repetitions 100000000 makes a grid of 100000000 instances, "
            f"above the instance limit {experiments.MAX_INSTANCES}\n"
        )
        assert float(proc.stdout) < 2.0
        assert not os.path.exists(tmp_path / "out")

    def test_instance_limit_is_inclusive(self):
        # building the config allocates nothing per instance
        limit = experiments.MAX_INSTANCES
        grid = dict(nodes=18, qnet_counts=(3, 6), densities=(0.2,))
        assert ExperimentConfig(repetitions=limit // 2, **grid).repetitions == limit // 2
        with pytest.raises(ValueError, match=f"^repetitions {limit // 2 + 1} makes a grid of {limit + 2} instances"):
            ExperimentConfig(repetitions=limit // 2 + 1, **grid)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # the stand-in runs the tasks in this process: no worker is started
        seen = []

        class InProcessPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = ExperimentConfig(
            nodes=18, qnet_counts=(3,), densities=(0.2,), request_volumes=(3,), repetitions=5, jobs=8000
        )
        for cpus in (3, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert len(run_experiment(cfg)) == 5
        assert seen == [3, 1]

    def test_parsers_raise_value_error_and_nothing_else(self):
        # the properties of tests/fuzz_parsers.py, in one capped child
        proc = run_capped("import runpy; runpy.run_module('fuzz_parsers', run_name='__main__')")
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert proc.stdout == "4 properties held\n"


class TestSkippedVolumesSelectSparserNetworks:
    def test_survivors_read_a_lower_r_bar(self):
        # a volume is skipped on a network whose complement holds fewer
        # pairs, so the networks that serve volume 200 are the sparser
        # complements, which serve fewer requests per round at every volume
        volumes = (50, 100, 150, 200)
        cfg = ExperimentConfig(
            seed=1, nodes=50, qnet_counts=(6,), densities=(0.8,), request_volumes=volumes, repetitions=100
        )
        results = run_experiment(cfg)
        survivors = [r for r in results if not r.volumes[-1].skipped]
        assert 0 < len(survivors) < len(results)
        for i, vol in enumerate(volumes[:-1]):
            assert not any(r.volumes[i].skipped for r in results)
            r_bar = [mean(vol / r.volumes[i].rho for r in rs) for rs in (survivors, results)]
            assert r_bar[0] < r_bar[1], vol


class TestPipelineMismatchPath:
    def test_mismatch_dumps_instance(self, tmp_path, monkeypatch):
        def corrupted(self, v, k0):
            return self.measure_z(v)[0], original(Graph(2, [(0, 1)]), 1, 0)[1]

        original = Graph.measure_x
        monkeypatch.setattr(Graph, "measure_x", corrupted)
        cfg_path, cfg = small_config(tmp_path, repetitions=1, densities=[0.5])
        rc = cli.main(["run", "--config", cfg_path])
        assert rc == cli.EXIT_VERIFY
        assert os.path.exists(os.path.join(cfg["output_dir"], "mismatch_instance.txt"))

    def test_one_hop_baseline_route_dumps_instance(self, tmp_path, monkeypatch):
        # the fault sits in the hop table that both the hop counts and χ
        # are read from: every pool pair routes in one hop
        original = InterQNet.__dict__["_cqr_intermediates"].func
        monkeypatch.setattr(InterQNet, "_cqr_intermediates", property(lambda self: np.zeros_like(original(self))))
        cfg_path, cfg = small_config(tmp_path, repetitions=1, densities=[0.5])
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_VERIFY
        assert os.path.exists(os.path.join(cfg["output_dir"], "mismatch_instance.txt"))

    def test_mismatch_survives_pickling(self):
        back = pickle.loads(pickle.dumps(PipelineMismatch("m", "n=2\n")))
        assert type(back) is PipelineMismatch
        assert str(back) == "m" and back.instance_text == "n=2\n"

    def test_worker_mismatch_dumps_instance(self, tmp_path, monkeypatch):
        # the corrupted rule reaches the worker processes through fork
        def corrupted(self, v, k0):
            return self.measure_z(v)[0], original(Graph(2, [(0, 1)]), 1, 0)[1]

        original = Graph.measure_x
        monkeypatch.setattr(Graph, "measure_x", corrupted)
        cfg_path, cfg = small_config(tmp_path, repetitions=1, densities=[0.5], jobs=2)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_VERIFY
        dump_path = os.path.join(cfg["output_dir"], "mismatch_instance.txt")
        dump = Path(dump_path).read_text()
        assert dump.startswith("n=") and "control:" not in dump
        # the dump replays: the same fault again while the rule is corrupted,
        # a clean run once it is restored
        replay = tmp_path / "replay"
        replay.mkdir()
        replay_cfg, replay_over = small_config(replay, instance_files=[dump_path])
        assert cli.main(["run", "--config", replay_cfg]) == cli.EXIT_VERIFY
        assert Path(replay_over["output_dir"], "mismatch_instance.txt").read_text() == dump
        monkeypatch.setattr(Graph, "measure_x", original)
        assert cli.main(["run", "--config", replay_cfg]) == cli.EXIT_OK

    def test_parallel_pair_violation_dumps_instance(self, tmp_path, monkeypatch, capsys):
        # rows that call every request compatible, or keep only the conflicts
        # of each request's lower endpoint, put conflicting requests in one
        # round, and the scheduler's own check of the round must fail; the
        # small config's volumes 4 and 6 never merge a conflicting pair
        # under the one-sided fault, so that case runs 10 and 20
        for fault, volumes in [(all_compatible_rows, [4, 6]), (near_a_only_rows, [10, 20])]:
            monkeypatch.setattr(pairs, "_compat_rows", fault)
            case = tmp_path / fault.__name__
            case.mkdir()
            cfg_path, cfg = small_config(case, repetitions=1, densities=[0.2], request_volumes=volumes)
            assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_VERIFY
            assert os.path.exists(os.path.join(cfg["output_dir"], "mismatch_instance.txt"))
            assert "parallel-pair violation: group member" in capsys.readouterr().err


class TestRunReadsNoGroup:
    def test_run_builds_no_group(self, tmp_path, monkeypatch):
        # a run reads each table's rho alone, so groups that cannot be
        # decoded leave it and its reports as they are
        outs = []
        for case in ("decoded", "undecodable"):
            if case == "undecodable":
                def refuse(table):
                    raise AssertionError("a run read ParallelPairTable.groups")

                monkeypatch.setattr(pairs.ParallelPairTable, "groups", property(refuse))
            (tmp_path / case).mkdir()
            cfg_path, cfg = small_config(tmp_path / case)
            assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_OK
            outs.append(cfg["output_dir"])
        for name in ("hops", "parallelism", "arqf", "throughput"):
            assert Path(outs[0], f"{name}.csv").read_bytes() == Path(outs[1], f"{name}.csv").read_bytes(), name


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        src = os.path.dirname(os.path.dirname(mecnet.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "mecnet", "verify", "--suite", "pairable"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert "PASS" in proc.stdout
