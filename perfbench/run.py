"""Benchmark command for mecnet.

    python3 perfbench/run.py --workload sweep-sparse --seed 3 --seconds 20 --trace 0

Runs one workload from the root of a source checkout (``src/`` is put on
the path; nothing is installed), in one process with a closed loop: one
caller, the next unit of work starts when the previous one returns.  The
outputs are checked after the timed region.

Prints one ``metric`` line per figure, the environment, and as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a run that times every unit untraced and then traced) with
``--trace 1``.  Spans and a full record go to ``.perfbench_out/``.

Exit codes: 0 ok; 1 an output failed its check (the result line is still
printed); 2 no mecnet source tree or bad arguments (nothing printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from statistics import median
from time import perf_counter

import bootstrap
from result import p50, tail

WORKLOADS = ("sweep-sparse", "sweep-dense", "oracle-16q")
SETUP_SAMPLES = 7
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


class SetupSampler:
    """Times fresh interpreters from start to the set-up probe's ``ready``.

    The samples are spread over the run (see ``between``), so one slow
    stretch of the shared host does not set them all.  Their median is
    scaled by the run's mean host slowdown: one probe does not follow the
    kernel samples around it, but a run's set-up times follow the run's
    mean slowdown (see the README).
    """

    def __init__(self, workload: str, seed: int, seconds: float, samples: int = SETUP_SAMPLES) -> None:
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
        self.spacing = seconds / samples
        self.samples = samples
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        with subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        self.times.append(elapsed)

    def between(self, elapsed: float) -> None:
        """Called between units with the timed seconds so far."""
        if len(self.times) < self.samples and elapsed >= len(self.times) * self.spacing:
            self.sample()

    def finish(self) -> list[float]:
        while len(self.times) < self.samples:
            self.sample()
        return self.times


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(bootstrap.ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=bootstrap.ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(args) -> dict:
    import networkx
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(bootstrap.SRC, "mecnet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def end_to_end(res, workload: str, setup_times: list[float]) -> tuple[dict, list[str]]:
    """Metrics with the times of the workload scaled to the reference host;
    the raw figures go on the printed lines."""
    tail_ms, tail_pct = tail(res.scaled_batch_ms)
    metrics = {
        "setup_s": (median(setup_times) / res.slowdown, "s"),
        "instances_per_s": (res.instances / res.scaled_s, "1/s"),
        "batch_p50_ms": (p50(res.scaled_batch_ms), "ms"),
        "batch_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res.peak_rss_mb, "MB"),
    }
    lines = []
    if workload == "oracle-16q":
        lines.append(f"metric checks_per_s {res.work_units / res.scaled_s:.6g} 1/s")
    lines += [
        f"batch_tail_ms is p{tail_pct:.1f} of {len(res.scaled_batch_ms)} batches",
        f"host slowdown {res.slowdown:.4f} (kernel mean / reference)",
        f"raw instances_per_s {res.instances / res.timed_s:.6g}, batch_p50_ms {p50(res.batch_ms):.6g}, "
        f"batch_tail_ms {tail(res.batch_ms)[0]:.6g}",
        f"raw setup_s {median(setup_times):.6g}, samples {[round(t, 4) for t in setup_times]}",
    ]
    return metrics, lines


def per_layer(res) -> tuple[dict, list[str]]:
    tr = res.tracer
    u = max(res.traced_units, 1)

    def own(*names):
        return sum(tr.self_s(n) for n in names) / u

    def incl(name):
        return tr.stats.get(name, [0, 0.0, 0.0])[1] / u

    def calls(*names):
        return sum(tr.calls(n) for n in names) / u

    counts = tr.counts
    rounds = counts.get("pairs.rounds", 0)
    routes = counts.get("cqr.routes", 0)
    covered = sum(tr.layer_self_s().values())
    s, c = "s/unit", "1/unit"
    metrics = {
        "pairs.schedule_s": (own("pairs.dynamic_parallel_pairs"), s),
        "pairs.schedule_incl_s": (incl("pairs.dynamic_parallel_pairs"), s),
        "pairs.candidates_s": (own("pairs.parallel_pair_candidates"), s),
        "pairs.candidates_calls": (calls("pairs.parallel_pair_candidates"), c),
        "pairs.pairable_check_s": (own("pairs.check_parallel_pairable"), s),
        "pairs.pairable_check_calls": (calls("pairs.check_parallel_pairable"), c),
        "pairs.requests": (counts.get("pairs.requests", 0) / u, c),
        "pairs.rounds": (rounds / u, c),
        "pairs.requests_per_round": (counts.get("pairs.requests", 0) / rounds if rounds else 0.0, "req/round"),
        "qnet.extract_epr_s": (own("qnet.extract_epr"), s),
        "qnet.extract_epr_incl_s": (incl("qnet.extract_epr"), s),
        "qnet.extract_epr_calls": (calls("qnet.extract_epr"), c),
        "qnet.z_measurements": (counts.get("qnet.z_measurements", 0) / u, c),
        "qnet.build_controlled_s": (own("qnet.build_controlled"), s),
        "qnet.complement_s": (own("qnet.complement_inter_qnet"), s),
        "qnet.mec_complementation_s": (own("qnet.mec_complementation"), s),
        "cqr.batch_s": (own("cqr.cqr_batch", "cqr.route_cqr"), s),
        "cqr.routes": (routes / u, c),
        "cqr.hops_mean": (counts.get("cqr.hops", 0) / routes if routes else 0.0, "hops"),
        "netgen.generate_s": (own("netgen.generate_inter_qnet"), s),
        "netgen.sample_requests_s": (own("netgen.sample_requests"), s),
        "netgen.skipped_volumes": (
            counts.get("netgen.sample_requests.raised.InsufficientPairsError", 0) / u,
            c,
        ),
        "metrics.build_s": (own("metrics.MetricsRecord.build"), s),
        "experiments.run_instance_self_s": (own("experiments.run_instance"), s),
        "experiments.report_s": (own("experiments.write_reports", "experiments.render_figures"), s),
        "graph.measure_s": (own("graph.Graph.measure_x", "graph.Graph.measure_z"), s),
        "graph.measure_calls": (calls("graph.Graph.measure_x", "graph.Graph.measure_z"), c),
        "stabilizer.graph_state_s": (own("stabilizer.graph_state"), s),
        "stabilizer.measure_pauli_s": (own("stabilizer.measure_pauli"), s),
        "stabilizer.restrict_to_s": (own("stabilizer.restrict_to"), s),
        "stabilizer.graph_form_s": (own("stabilizer.graph_form"), s),
        "stabilizer.equal_lc_s": (own("stabilizer.equal_up_to_local_clifford"), s),
        "stabilizer.equal_lc_calls": (calls("stabilizer.equal_up_to_local_clifford"), c),
        "bench.self_s": ((res.traced_s - covered) / u, s),
        "trace.units_per_s": (res.traced_units / res.traced_s, "1/s"),
        "trace.overhead_pct": (100.0 * (res.traced_s / res.paired_untraced_s - 1.0), "%"),
        "trace.coverage_pct": (100.0 * covered / res.traced_s, "%"),
    }
    lines = [f"traced units {res.traced_units} in {res.traced_s:.3f} s (same units untraced: {res.paired_untraced_s:.3f} s)"]
    for layer, own_s in sorted(tr.layer_self_s().items(), key=lambda kv: -kv[1]):
        lines.append(f"layer {layer:<12} self {own_s:9.4f} s  {100.0 * own_s / res.traced_s:5.1f}% of traced wall")
    lines.append(f"layer {'bench':<12} self {res.traced_s - covered:9.4f} s  {100.0 * (res.traced_s - covered) / res.traced_s:5.1f}% of traced wall")
    if tr.counts.get("trace.hook_errors"):
        lines.append(f"trace hook errors {tr.counts['trace.hook_errors']}")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.import_mecnet()
    except (bootstrap.MissingProgram, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import oracle
    import sweep

    out_root = os.path.join(bootstrap.OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_root, exist_ok=True)
    problems = []
    setup = None if args.trace else SetupSampler(args.workload, args.seed, args.seconds)
    workload = oracle if args.workload == "oracle-16q" else sweep
    try:
        res = workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace), out_root,
            between=setup.between if setup else None,
        )
        setup_times = setup.finish() if setup else []
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: set-up probe failed: {exc}", file=sys.stderr)
        return 1
    problems.extend(res.problems)

    metrics, lines = {}, []
    if not res.batch_ms or res.timed_s <= 0:
        problems.append("no unit of work completed")
    elif args.trace:
        metrics, lines = per_layer(res)
        res.tracer.write_spans(os.path.join(out_root, "spans.csv"))
    elif setup is not None:
        metrics, lines = end_to_end(res, args.workload, setup_times)
    correct = res.failed == 0 and not problems
    env = environment(args)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for line in lines:
        print(line)
    print(f"metric failed_frac {res.failed / max(res.attempted, 1):.6g} ({res.failed}/{res.attempted}; skipped volumes {res.skipped})")
    for key, value in res.notes.items():
        print(f"note {key} {value}")
    for msg in problems[:20]:
        print(f"problem {msg}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": max(res.attempted, 1),
        "failed": res.failed if correct or res.failed else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(out_root, "result.json"), "w", encoding="utf-8") as fh:
        record = {"result": result, "env": env, "notes": res.notes, "problems": problems, "lines": lines}
        record["batch_ms"] = {"raw": res.batch_ms, "scaled": res.scaled_batch_ms}
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
