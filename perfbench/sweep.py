"""Sweep workloads: the evaluation grid slice at one density, driven
through the calls ``mecnet run`` makes (run_experiment, write_reports,
render_figures) in one process with jobs=1.

A unit of work is one ``mecnet run`` over one grid cell (one k, one
repetition, all four request volumes).  Units cycle k = 4, 6, 8, 10 and a
run does whole cycles, so its instance mix stays balanced.
"""

from __future__ import annotations

import json
import math
import os
import traceback
from dataclasses import dataclass
from time import perf_counter

from mecnet import experiments
from mecnet.netgen import InsufficientPairsError

import checks
from calibrate import HostSpeed
from result import RunResult, finish_scaling, peak_rss_mb
from tracing import Tracer, installed

HERE = os.path.dirname(os.path.abspath(__file__))

# The grid of configs/eval.json, copied so that a change to that file
# does not change the benchmark's inputs.
EVAL_TIMING = [{"lam": lam, "tpm": 3, "trm": 1, "tpb": 4, "trb": 1} for lam in (10, 20, 40)]
EVAL_GRID = {
    "nodes": 50,
    "qnet_counts": [4, 6, 8, 10],
    "request_volumes": [50, 100, 150, 200],
    "timing_grid": EVAL_TIMING,
    "seed_policy": "greedy_max",
}
DENSITY = {"sweep-sparse": 0.2, "sweep-dense": 0.8}
# Seconds per instance on the reference host (see ``calibrate``); a run of
# ``seconds`` does ceil(seconds / (this * len(k))) full cycles over k, so
# a seed always gives the same work, whatever the speed of host or program.
NOMINAL_INSTANCE_S = {"sweep-sparse": 2.0, "sweep-dense": 0.65}
# Inside a unit, a host-speed sample is skipped when the latest one ended
# less than this many seconds ago (see ``calibrate``).
SAMPLE_GAP_S = 0.1


def config(seed: int, p: float, qnet_counts, out_dir: str, grid: dict = EVAL_GRID):
    return experiments.ExperimentConfig.from_dict(
        dict(
            grid,
            seed=seed,
            densities=[p],
            qnet_counts=list(qnet_counts),
            repetitions=1,
            jobs=1,
            output_dir=out_dir,
        )
    )


def unit_seed(seed: int, i: int) -> int:
    return seed * 100_000 + i


def reference(workload: str) -> dict:
    """Recorded seed and CSV digest of the workload's reference run."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


@dataclass
class Batch:
    instance: tuple
    cg: object
    requests: tuple
    groups: tuple
    paths: list
    start: float
    end: float
    seconds: float  # end - start, less the host-speed sample inside


class BatchProbe:
    """Times each request batch, from ``sample_requests`` to the return of
    ``cqr_batch`` (the table is validated in between), and keeps the
    outputs for the checker.  Installed on the three names
    ``mecnet.experiments`` looks up; it adds two clock reads per batch.

    When ``host`` is set, a host-speed sample runs before each batch's
    clock starts and another when the scheduler returns, so that a long
    scheduler call is bracketed closely; either is skipped when the latest
    sample is less than ``SAMPLE_GAP_S`` old.  ``kernel_s`` adds up their
    time, and the second sample is left out of the batch's seconds."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.batches: list[Batch] = []
        self.skipped = 0
        self.unit: tuple = ()
        self.tracer = tracer
        self.host: HostSpeed | None = None
        self.kernel_s = 0.0
        self._start = 0.0
        self._paused = 0.0
        self._table = None

    def install(self, patches) -> None:
        sample = experiments.sample_requests
        schedule = experiments.dynamic_parallel_pairs
        route = experiments.cqr_batch

        def sample_requests(*args, **kwargs):
            if self.host is not None:
                self.kernel_s += self.host.sample(SAMPLE_GAP_S)
            self._start = perf_counter()
            self._paused = 0.0
            if self.tracer is not None:
                self.tracer.batch = len(self.batches)
            try:
                return sample(*args, **kwargs)
            except InsufficientPairsError:
                self.skipped += 1
                raise

        def dynamic_parallel_pairs(*args, **kwargs):
            self._table = schedule(*args, **kwargs)
            if self.host is not None:
                self._paused = self.host.sample(SAMPLE_GAP_S)
                self.kernel_s += self._paused
            return self._table

        def cqr_batch(cg, requests, *args, **kwargs):
            out = route(cg, requests, *args, **kwargs)
            end = perf_counter()
            self.batches.append(
                Batch(
                    (*self.unit, cg.partition.k),
                    cg,
                    tuple(requests),
                    tuple(self._table.groups),
                    list(out[0]),
                    self._start,
                    end,
                    end - self._start - self._paused,
                )
            )
            if self.tracer is not None:
                self.tracer.batch = -1
            return out

        patches.replace(experiments, "sample_requests", sample_requests)
        patches.replace(experiments, "dynamic_parallel_pairs", dynamic_parallel_pairs)
        patches.replace(experiments, "cqr_batch", cqr_batch)


def run_unit(cfg) -> int:
    """One ``mecnet run``; returns the number of instances processed."""
    results = experiments.run_experiment(cfg)
    experiments.write_reports(results, cfg.output_dir, cfg.timing_grid)
    experiments.render_figures(cfg.output_dir)
    return len(results)


def _attempt(res: RunResult, failed: set, key: tuple, cfg, probe, tracer=None, host=None) -> tuple[float, int]:
    """Run one unit; returns its seconds, less any host-speed samples
    taken inside it, and the instances done.  With ``host``, the unit's
    interval and batches are recorded for scaling."""
    probe.unit = key
    probe.host, probe.kernel_s = host, 0.0
    first = len(probe.batches)
    installers = (tracer, probe) if tracer is not None else (probe,)
    t0 = perf_counter()
    try:
        with installed(*installers):
            done = run_unit(cfg)
    except Exception:
        done = 0
        failed.add(key)
        res.problems.append(f"unit {key} raised:\n{traceback.format_exc()}")
    t1 = perf_counter()
    if host is not None:
        host.record_interval(t0, t1, [(b.start, b.end) for b in probe.batches[first:]])
    probe.host = None
    return t1 - t0 - probe.kernel_s, done


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_root: str,
    grid: dict = EVAL_GRID,
    ref: dict | None = None,
    between=None,
) -> RunResult:
    """Run about ``seconds`` of units (at reference speed), then check
    the outputs.

    ``between(timed seconds so far)``, if given, is called between units,
    outside the timed region.  ``ref`` holds the reference run's seed and
    expected CSV digest (``csv_sha256``, None to skip the comparison); by
    default the entry recorded in ``reference.json`` for this workload.
    """
    ref = reference(workload) if ref is None else ref
    p = DENSITY[workload]
    ks = grid["qnet_counts"]
    res = RunResult()
    failed: set = set()
    tracer = Tracer() if trace else None
    probe = BatchProbe(tracer)
    host = HostSpeed()

    # Warm-up: the reference run over the first grid cell at the recorded
    # seed; its CSVs must match the recorded digest bit for bit.
    ref_dir = os.path.join(out_root, "reference")
    ref_cfg = config(ref["seed"], p, ks[:1], ref_dir, grid)
    _, done = _attempt(res, failed, ("reference",), ref_cfg, probe)
    res.attempted += 1
    if done:
        got = checks.csv_digest(ref_dir)
        want = ref["csv_sha256"]
        res.notes["reference_csv_sha256"] = got
        if want is not None and got != want:
            failed.add(("reference",))
            res.problems.append(f"reference CSV digest {got} != recorded {want}")

    # The timed region: distinct grid cells, k cycling, whole cycles only,
    # so every k weighs the same.  The host-speed kernel runs before every
    # unit and inside it (see ``BatchProbe``); its time is left out of the
    # timed figures.
    unit_dir = os.path.join(out_root, "unit")
    cycles = max(1, math.ceil(seconds / (NOMINAL_INSTANCE_S[workload] * len(ks))))
    for i in range(cycles * len(ks)):
        if between is not None:
            between(res.timed_s)
        cfg = config(unit_seed(seed, i), p, (ks[i % len(ks)],), unit_dir, grid)
        host.sample()
        first = len(probe.batches)
        dt, done = _attempt(res, failed, (i, "untraced"), cfg, probe, host=host)
        res.timed_s += dt
        res.instances += done
        res.attempted += 1
        res.batch_ms.extend(b.seconds * 1000.0 for b in probe.batches[first:])
        if trace:
            tdt, tdone = _attempt(res, failed, (i, "traced"), cfg, probe, tracer)
            res.traced_s += tdt
            res.paired_untraced_s += dt
            res.traced_units += tdone
            res.attempted += 1
    host.sample()
    finish_scaling(res, host)
    res.peak_rss_mb = peak_rss_mb()
    res.skipped = probe.skipped
    res.tracer = tracer

    import networkx as nx

    for b in probe.batches:
        found = checks.check_batch(b, nx)
        if found:
            failed.add(b.instance[:-1])
            res.problems.extend(f"batch {b.instance}: {msg}" for msg in found)
    res.notes["batches_checked"] = len(probe.batches)
    res.failed = len(failed)
    return res
