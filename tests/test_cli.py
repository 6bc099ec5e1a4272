"""CLI and experiment pipeline: subcommands, exit codes, reproducibility,
fault injection."""

import json
import os
import pickle
import subprocess
import sys
from statistics import mean

import pytest

import mecnet
import mecnet.cli as cli
import mecnet.experiments as experiments
import mecnet.pairs as pairs
import mecnet.verify as verify
from mecnet.cqr import CqrPath
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
from mecnet.graph import Graph
from mecnet.metrics import TimingParams, arqf_cqr, arqf_mec, throughput_cqr, throughput_mec
from mecnet.netgen import GenConfig, generate_inter_qnet
from mecnet.qnet import instance_from_text

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


def read_table(path):
    """A report CSV as a list of row dicts (the schema line skipped)."""
    lines = open(path).read().splitlines()
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
        first = open(os.path.join(cfg["output_dir"], "hops.csv")).read()
        cli.main(["run", "--config", cfg_path])
        second = open(os.path.join(cfg["output_dir"], "hops.csv")).read()
        assert first == second

    def test_schema_header(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path)
        cli.main(["run", "--config", cfg_path])
        head = open(os.path.join(cfg["output_dir"], "hops.csv")).readline()
        assert head.startswith("# mecnet.hops.v")

    def test_parallel_jobs_identical(self, tmp_path):
        # the reports are computed from the volume results the workers pickle
        cfg_path, cfg = small_config(tmp_path)
        cli.main(["run", "--config", cfg_path])
        cli.main(["run", "--config", cfg_path, "--jobs", "2", "--out", str(tmp_path / "o2")])
        for name in ("hops", "parallelism", "arqf", "throughput"):
            serial = open(os.path.join(cfg["output_dir"], f"{name}.csv")).read()
            parallel = open(os.path.join(tmp_path / "o2", f"{name}.csv")).read()
            assert serial == parallel, name

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
                fm = round(mean(throughput_mec(timing, v.r_bar) for v in results[cell]), 6)
                assert float(r["fm"]) == fm
                assert float(r["fb"]) == round(throughput_cqr(timing), 6)

    def test_mec_column_is_unity(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path)
        cli.main(["run", "--config", cfg_path])
        lines = open(os.path.join(cfg["output_dir"], "hops.csv")).read().splitlines()
        for row in lines[2:]:
            assert row.split(",")[4] == "1.0"


class TestRunInstance:
    def test_volume_results_hold_the_closed_forms(self):
        checked = 0
        for p in (0.2, 0.8):
            for rep in range(3):
                iq = generate_inter_qnet(GenConfig(3, even_sizes(18, 3), p, derive_seed(5, rep)))
                part = iq.partition
                res = run_instance(iq, (4, 6, 500), derive_seed(6, rep), 3, p, rep)
                assert [v.volume for v in res.volumes] == [4, 6, 500]
                assert res.volumes[-1].skipped
                for v in res.volumes:
                    if v.skipped:
                        continue
                    n = v.volume
                    assert v.q_cqr == arqf_cqr(n, v.chi)
                    assert v.q_pro == arqf_mec(v.rho, part.k_prime, part.sizes(), n, "proactive")
                    assert v.q_ond == arqf_mec(v.rho, part.k_prime, part.sizes(), n, "on_demand")
                    assert v.r_bar * v.rho == pytest.approx(n)
                    checked += 1
        assert checked > 0


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

    def test_flags_override_the_config_file(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path)
        assert cli.main(["generate", "--config", cfg_path, "--reps", "1", "--nodes", "12"]) == cli.EXIT_OK
        inst_dir = os.path.join(cfg["output_dir"], "instances")
        assert len([f for f in os.listdir(inst_dir) if f.endswith(".txt")]) == 2
        meta = [json.loads(l) for l in open(os.path.join(inst_dir, "metadata.jsonl"))]
        assert len(meta) == 2 and all(m["nodes"] == 12 for m in meta)
        assert cli.main(["run", "--config", cfg_path, "--reps", "1"]) == cli.EXIT_OK
        rows = read_table(os.path.join(cfg["output_dir"], "hops.csv"))
        assert rows and all(r["instances"] == "1" for r in rows)

    def test_generated_files_are_the_networks_run_builds(self, tmp_path, monkeypatch):
        cfg_path, cfg = small_config(tmp_path)
        built = {}

        def capture(iq, volumes, request_seed, k, p, rep):
            built[k, p, rep] = iq
            return experiments.InstanceResult(k=k, p=p, rep=rep)

        monkeypatch.setattr(experiments, "run_instance", capture)
        run_experiment(ExperimentConfig.from_json(cfg_path))
        assert cli.main(["generate", "--config", cfg_path]) == cli.EXIT_OK
        inst_dir = os.path.join(cfg["output_dir"], "instances")
        meta = [json.loads(l) for l in open(os.path.join(inst_dir, "metadata.jsonl"))]
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
        assert err == "usage error: malformed line: 'qnet: 0,1'\n"

    def test_controlled_file_with_a_foreign_control_layer_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "bad.txt"
        inst.write_text("n=4\n0 1\n0 2\n1 3\n2 3\nqnet 1: 0\nqnet 2: 1\ncontrol: 3,2\n")
        cfg_path, _ = small_config(tmp_path, instance_files=[str(inst)])
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: malformed instance: control ids (3, 2), expected (2, 3)\n"
        assert not os.path.exists(tmp_path / "out")

    def test_metadata_contents(self, tmp_path):
        cfg = ExperimentConfig(seed=3, repetitions=1, nodes=12, qnet_counts=(3,), densities=(0.5,))
        generate_instances(cfg, str(tmp_path))
        meta = [json.loads(l) for l in open(tmp_path / "metadata.jsonl")]
        assert len(meta) == 1
        assert meta[0]["nodes"] == 12 and "seed" in meta[0]


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert cli.main(["verify", "--suite", "pairable"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_fault_injection_caught(self, monkeypatch, capsys):
        # corrupt the X rule: drop the final complementation step
        original = Graph.measure_x

        def corrupted(self, v, k0):
            g = self.local_complement(k0).local_complement(v).delete_vertex(v)
            rec = original(Graph(2, [(0, 1)]), 1, 0)[1]
            return g, rec

        monkeypatch.setattr(Graph, "measure_x", corrupted)
        res = verify.suite_complement(trials=50, seed=1)
        assert not res.passed
        assert res.failures and "n=" in res.failures[0]

    def test_cli_exit_code_on_failure(self, monkeypatch):
        def corrupted(self, v, k0):
            return self.delete_vertex(v), original(Graph(2, [(0, 1)]), 1, 0)[1]

        original = Graph.measure_x
        monkeypatch.setattr(Graph, "measure_x", corrupted)
        assert cli.main(["verify", "--suite", "complement"]) == cli.EXIT_VERIFY

    def test_oracle_limit_skips_instead_of_failing(self):
        res = verify.suite_measurement_oracle(max_vertices=40)
        assert res.skipped and res.passed
        assert "SKIPPED" in res.summary()


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
        meta = json.loads(open(tmp_path / "real_instance.meta.jsonl").read())
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
            metas.append(open(out / "real_instance.meta.jsonl").read())
            assert (out / "real_instance.txt").read_text() == open(tmp_path / "b" / "real_instance.txt").read()
        assert metas[0] == metas[1] and json.loads(metas[0])["subsample"] == [20, 0]

    def test_missing_file_is_io_error(self, tmp_path):
        rc = cli.main(
            ["ingest", "--airports", "/nonexistent.dat", "--routes", "/nope.dat"]
        )
        assert rc == cli.EXIT_IO


class TestReportCommand:
    def test_rerender_from_csv_only(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path)
        cli.main(["run", "--config", cfg_path])
        out = cfg["output_dir"]
        for name in ("hops", "arqf"):
            os.remove(os.path.join(out, f"{name}.svg"))
        assert cli.main(["report", "--out", out]) == cli.EXIT_OK
        assert os.path.exists(os.path.join(out, "hops.svg"))

    def test_svg_pure_function_of_csv(self, tmp_path):
        cfg_path, cfg = small_config(tmp_path)
        cli.main(["run", "--config", cfg_path])
        out = cfg["output_dir"]
        first = open(os.path.join(out, "hops.svg")).read()
        render_figures(out)
        assert open(os.path.join(out, "hops.svg")).read() == first


class TestUsageErrors:
    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

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

    @pytest.mark.parametrize("prep, route", [("tpm", "trm"), ("tpb", "trb")])
    def test_zero_cycle_time_is_usage_error(self, tmp_path, capsys, prep, route):
        timing = {"lam": 10, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1, prep: 0, route: 0}
        cfg_path, _ = small_config(tmp_path, timing_grid=[timing])
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: cycle time {prep} + {route} must be positive\n"
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize(
        "key, values",
        [("qnet_counts", [3, 3]), ("densities", [0.2, 0.8, 0.2]), ("request_volumes", [4, 4])],
    )
    def test_repeated_grid_value_is_usage_error(self, tmp_path, capsys, key, values):
        cfg_path, _ = small_config(tmp_path, **{key: values})
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: {key} repeats a value: {values}\n"
        assert not os.path.exists(tmp_path / "out")

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
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_dict({
                "jobs": True,
                "qnet_counts": [4, 6.0],
                "timing_grid": [{"lam": 10, "tpm": 3, "trm": 1, "tpb": 4}],
                "output_dir": "out",
                "seed_policy": 3,
            })
        assert str(info.value) == (
            "bad config value(s): jobs must be int, got bool True; "
            "qnet_counts[1] must be int, got float 6.0; "
            "timing_grid[0] must be an object of numbers with keys lam, tpm, trm, tpb, trb, "
            "got {'lam': 10, 'tpm': 3, 'trm': 1, 'tpb': 4}; "
            "seed_policy must be str, got int 3"
        )
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


class TestPipelineMismatchPath:
    def test_mismatch_dumps_instance(self, tmp_path, monkeypatch):
        def corrupted(self, v, k0):
            return self.delete_vertex(v), original(Graph(2, [(0, 1)]), 1, 0)[1]

        original = Graph.measure_x
        monkeypatch.setattr(Graph, "measure_x", corrupted)
        cfg_path, cfg = small_config(tmp_path, repetitions=1, densities=[0.5])
        rc = cli.main(["run", "--config", cfg_path])
        assert rc == cli.EXIT_VERIFY
        assert os.path.exists(os.path.join(cfg["output_dir"], "mismatch_instance.txt"))

    def test_one_hop_baseline_route_dumps_instance(self, tmp_path, monkeypatch):
        def one_hop_first(cg, requests):
            paths, h_bar, chi = original(cg, requests)
            paths[0] = CqrPath(paths[0].request, 1, (), False)
            return paths, h_bar, chi

        original = experiments.cqr_batch
        monkeypatch.setattr(experiments, "cqr_batch", one_hop_first)
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
            return self.delete_vertex(v), original(Graph(2, [(0, 1)]), 1, 0)[1]

        original = Graph.measure_x
        monkeypatch.setattr(Graph, "measure_x", corrupted)
        cfg_path, cfg = small_config(tmp_path, repetitions=1, densities=[0.5], jobs=2)
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_VERIFY
        dump = open(os.path.join(cfg["output_dir"], "mismatch_instance.txt")).read()
        assert dump.startswith("n=") and "control:" in dump

    def test_parallel_pair_violation_dumps_instance(self, tmp_path, monkeypatch, capsys):
        # every request declared compatible: the scheduler's own check of
        # the resulting single group must fail
        def all_compatible(g, edges):
            full = (1 << len(edges)) - 1
            return [full & ~(1 << i) for i in range(len(edges))]

        monkeypatch.setattr(pairs, "_compat_rows", all_compatible)
        cfg_path, cfg = small_config(tmp_path, repetitions=1, densities=[0.2])
        assert cli.main(["run", "--config", cfg_path]) == cli.EXIT_VERIFY
        assert os.path.exists(os.path.join(cfg["output_dir"], "mismatch_instance.txt"))
        assert "parallel-pair violation: group member" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        src = os.path.dirname(os.path.dirname(mecnet.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "mecnet", "verify", "--suite", "pairable"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert "PASS" in proc.stdout
