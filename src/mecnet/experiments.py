"""Experiment pipeline: instances -> routing comparison -> CSV/SVG reports.

Per instance, the pipeline builds the controlled network, checks that the
measurement sequence reproduces the combinatorial complement (aborting
with a serialized counterexample if not), partitions each request batch
into rounds, routes the same batch with the shortest-path baseline, and
records one result per request volume: ρ, r̄, h̄, χ and the footprints.
None of these depend on timing; the reports apply the timing grid once,
computing each grid point's throughput pair from the volume results.
Each round is checked once, by the scheduler's conflict-free check on the
complement, which equals the measured graph.  Aggregates are
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from statistics import mean, pstdev
from typing import Any, Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .cqr import cqr_batch
from .metrics import TimingParams, arqf_cqr, arqf_mec, throughput_cqr, throughput_mec
from .netgen import GenConfig, InsufficientPairsError, generate_inter_qnet, sample_requests
from .pairs import ParallelPairViolation, dynamic_parallel_pairs
from .qnet import (
    InterQNet,
    build_controlled,
    complement_inter_qnet,
    instance_from_text,
    instance_to_text,
    mec_complementation,
)
from .svgplot import grouped_bars, line_chart

__all__ = [
    "ExperimentConfig",
    "PipelineMismatch",
    "InstanceResult",
    "run_instance",
    "run_experiment",
    "write_reports",
    "render_figures",
    "generate_instances",
]

SCHEMAS = {
    "hops": "mecnet.hops.v1",
    "parallelism": "mecnet.parallelism.v1",
    "arqf": "mecnet.arqf.v1",
    "throughput": "mecnet.throughput.v1",
}


class PipelineMismatch(AssertionError):
    """A pipeline invariant failed on an instance: the measurement sequence
    disagreed with the complement oracle, a scheduled round failed the
    scheduler's parallel-pairability check on the complement (which equals
    the measured graph), or a remote request routed in one hop."""

    def __init__(self, message: str, instance_text: str):
        super().__init__(message)
        self.instance_text = instance_text

    def __reduce__(self):
        # pickled by a worker process, so both arguments must travel
        return type(self), (self.args[0], self.instance_text)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 1
    output_dir: str = "out"
    repetitions: int = 10
    nodes: int = 50
    qnet_counts: tuple[int, ...] = (4,)
    densities: tuple[float, ...] = (0.2, 0.8)
    request_volumes: tuple[int, ...] = (10, 20)
    # the scheduler is the paper's greedy; the key stays so that configs
    # naming it still parse
    seed_policy: str = "greedy_max"
    timing_grid: tuple[TimingParams, ...] = (TimingParams(10, 3, 1, 4, 1),)
    jobs: int = 1
    instance_files: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not (self.qnet_counts or self.instance_files):
            raise ValueError("no experiment selected")
        if not self.request_volumes or not self.timing_grid:
            raise ValueError("need at least one request volume and timing point")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        for key in ("qnet_counts", "densities", "request_volumes"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ValueError(f"{key} repeats a value: {list(values)}")
        if self.seed_policy != "greedy_max":
            raise ValueError(
                f"unknown seed_policy {self.seed_policy!r}; the only scheduler is 'greedy_max'"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build a config from a JSON object; absent keys keep the field
        defaults.  Unknown keys are rejected with one ValueError, and so are
        values that do not match their field's annotation, each bad field
        named, and a value that is not an object."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__} {d!r}")
        hints = get_type_hints(cls)
        unknown = [key for key in d if key not in hints]
        if unknown:
            raise ValueError(
                f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                f"known keys: {', '.join(hints)}"
            )
        kwargs = {}
        bad = []
        for name, value in d.items():
            try:
                kwargs[name] = _config_value(name, value, hints[name])
            except TypeError as exc:
                bad.append(str(exc))
        if bad:
            raise ValueError(f"bad config value(s): {'; '.join(bad)}")
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


_TIMING_KEYS = tuple(f.name for f in fields(TimingParams))


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _config_value(name: str, value: Any, hint: Any) -> Any:
    """A JSON config value as the field type ``hint``: tuple fields from a
    list, checked element by element, and timing points from objects.
    Raises TypeError naming the field (and the element) on a mismatch."""
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"{name} must be a list, got {type(value).__name__} {value!r}")
        elem = get_args(hint)[0]
        return tuple(_config_value(f"{name}[{i}]", v, elem) for i, v in enumerate(value))
    if hint is TimingParams:
        if not (
            isinstance(value, dict)
            and set(value) == set(_TIMING_KEYS)
            and all(_is_number(v) for v in value.values())
        ):
            raise TypeError(
                f"{name} must be an object of numbers with keys "
                f"{', '.join(_TIMING_KEYS)}, got {value!r}"
            )
        return TimingParams(**value)
    if hint is float:
        ok = _is_number(value)
    else:
        ok = isinstance(value, hint) and not isinstance(value, bool)
    if not ok:
        raise TypeError(
            f"{name} must be {hint.__name__}, got {type(value).__name__} {value!r}"
        )
    return value


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def even_sizes(nodes: int, k: int) -> tuple[int, ...]:
    base, extra = divmod(nodes, k)
    return tuple(base + (1 if i < extra else 0) for i in range(k))


@dataclass
class VolumeResult:
    volume: int
    skipped: bool = False
    rho: int = 0
    r_bar: float = 0.0
    h_bar: Optional[float] = None
    chi: int = 0
    q_cqr: int = 0
    q_pro: int = 0
    q_ond: int = 0


@dataclass
class InstanceResult:
    k: int
    p: float
    rep: int
    volumes: list[VolumeResult] = field(default_factory=list)


def run_instance(
    iq: InterQNet,
    volumes: Sequence[int],
    request_seed: int,
    k: int,
    p: float,
    rep: int,
) -> InstanceResult:
    cg = build_controlled(iq)
    oracle = complement_inter_qnet(iq)
    try:
        measured, _ = mec_complementation(cg)
    except ValueError as exc:
        raise PipelineMismatch(
            f"measurement sequence failed: {exc}", instance_to_text(cg)
        ) from exc
    if measured.graph != oracle.graph:
        raise PipelineMismatch(
            "complementation mismatch against the edge-set oracle",
            instance_to_text(cg),
        )
    # the complement just checked against the measured graph is also the
    # one every batch is sampled from and scheduled on, so the scheduler's
    # round check stands for extraction on the measured graph
    pool = oracle.graph.edges()
    out = InstanceResult(k=k, p=p, rep=rep)
    part = iq.partition
    for vi, vol in enumerate(volumes):
        vr = VolumeResult(volume=vol)
        try:
            rs = sample_requests(iq, vol, derive_seed(request_seed, vi), pool=pool)
        except InsufficientPairsError:
            vr.skipped = True
            out.volumes.append(vr)
            continue
        try:
            table = dynamic_parallel_pairs(cg, rs, complement=oracle)
        except ParallelPairViolation as exc:
            raise PipelineMismatch(
                f"parallel-pair violation: {exc}", instance_to_text(cg)
            ) from exc
        paths, h_bar, chi = cqr_batch(cg, rs.requests)
        adjacent = [p_.request for p_ in paths if p_.hops < 2]
        if adjacent:
            raise PipelineMismatch(
                f"requests {adjacent} route in one hop; remote requests start non-adjacent",
                instance_to_text(cg),
            )
        n = len(rs.requests)
        vr.rho = table.rho
        vr.r_bar = n / table.rho if table.rho else 0.0
        vr.h_bar = h_bar
        vr.chi = chi
        vr.q_cqr = arqf_cqr(n, chi)
        vr.q_pro = arqf_mec(table.rho, part.k_prime, part.sizes(), n, "proactive")
        vr.q_ond = arqf_mec(table.rho, part.k_prime, part.sizes(), n, "on_demand")
        out.volumes.append(vr)
    return out


def _generated(cfg_seed: int, nodes: int, k: int, p: float, rep: int) -> tuple[int, InterQNet]:
    """The generator seed and the network of grid cell ``(k, p, rep)``."""
    gen_seed = derive_seed(cfg_seed, k, int(p * 1_000_000), rep)
    return gen_seed, generate_inter_qnet(GenConfig(k, even_sizes(nodes, k), p, gen_seed))


def _run_task(args: tuple) -> InstanceResult:
    cfg_seed, nodes, k, p, rep, volumes = args
    _, iq = _generated(cfg_seed, nodes, k, p, rep)
    req_seed = derive_seed(cfg_seed, k, int(p * 1_000_000), rep, 17)
    return run_instance(iq, volumes, req_seed, k, p, rep)


def generate_instances(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    """Write one instance file per (k, density, repetition); returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    meta_lines = []
    for k in cfg.qnet_counts:
        for p in cfg.densities:
            for rep in range(cfg.repetitions):
                gen_seed, iq = _generated(cfg.seed, cfg.nodes, k, p, rep)
                name = f"k{k}_p{p:g}_r{rep}.txt"
                path = os.path.join(out_dir, name)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(instance_to_text(iq))
                paths.append(path)
                meta_lines.append(
                    json.dumps(
                        {
                            "file": name,
                            "k": k,
                            "p": p,
                            "rep": rep,
                            "seed": gen_seed,
                            "nodes": iq.graph.vertex_count,
                            "edges": iq.graph.edge_count,
                        },
                        sort_keys=True,
                    )
                )
    with open(os.path.join(out_dir, "metadata.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(meta_lines) + "\n")
    return paths


def run_experiment(cfg: ExperimentConfig) -> list[InstanceResult]:
    if cfg.instance_files:
        results = []
        for i, path in enumerate(cfg.instance_files):
            with open(path, encoding="utf-8") as fh:
                net = instance_from_text(fh.read())
            iq = net if isinstance(net, InterQNet) else net.data
            req_seed = derive_seed(cfg.seed, i, 17)
            results.append(
                run_instance(iq, cfg.request_volumes, req_seed, iq.partition.k, -1.0, i)
            )
        return results
    tasks = [
        (cfg.seed, cfg.nodes, k, p, rep, cfg.request_volumes)
        for k in cfg.qnet_counts
        for p in cfg.densities
        for rep in range(cfg.repetitions)
    ]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]
    return results


# -- aggregation and reports ---------------------------------------------------


def _csv_text(schema: str, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(f"# {schema}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _group_key(r: InstanceResult, v: VolumeResult) -> tuple:
    return (r.p, r.k, v.volume)


def write_reports(
    results: list[InstanceResult],
    out_dir: str,
    timing_grid: Sequence[TimingParams],
) -> dict[str, str]:
    """Aggregate across repetitions and write the CSV tables; returns paths.

    Each cell of ``throughput.csv`` has one row per point of ``timing_grid``,
    in grid order: ``fm`` is the mean of each volume result's own f_M (the
    per-result product, not one taken from the mean r̄), and ``fb`` depends
    on the grid point alone."""
    os.makedirs(out_dir, exist_ok=True)
    cells: dict[tuple, list[VolumeResult]] = {}
    for r in results:
        for v in r.volumes:
            if not v.skipped:
                cells.setdefault(_group_key(r, v), []).append(v)

    hops_rows, par_rows, arqf_rows, thr_rows = [], [], [], []
    for key in sorted(cells):
        p, k, vol = key
        vs = cells[key]
        n = len(vs)
        r_bar_mean = round(mean(v.r_bar for v in vs), 6)
        hbars = [v.h_bar for v in vs if v.h_bar is not None]
        hops_rows.append(
            [
                p,
                k,
                vol,
                n,
                1.0,
                round(mean(hbars), 6) if hbars else "",
                round(pstdev(hbars), 6) if len(hbars) > 1 else 0.0,
                round(mean(1 - 1 / h for h in hbars), 6) if hbars else "",
            ]
        )
        par_rows.append(
            [
                p,
                k,
                vol,
                n,
                r_bar_mean,
                round(pstdev([v.r_bar for v in vs]), 6) if n > 1 else 0.0,
                round(mean(v.rho for v in vs), 6),
                round(pstdev([v.rho for v in vs]), 6) if n > 1 else 0.0,
            ]
        )
        ond_le = mean(1.0 if v.q_ond <= v.q_cqr else 0.0 for v in vs)
        arqf_rows.append(
            [
                p,
                k,
                vol,
                n,
                round(mean(v.q_cqr for v in vs), 6),
                round(mean(v.q_pro for v in vs), 6),
                round(mean(v.q_ond for v in vs), 6),
                round(ond_le, 6),
            ]
        )
        for t in timing_grid:
            thr_rows.append(
                [
                    p,
                    k,
                    vol,
                    float(t.lam),
                    float(t.tpm),
                    float(t.trm),
                    float(t.tpb),
                    float(t.trb),
                    r_bar_mean,
                    round(mean(throughput_mec(t, v.r_bar) for v in vs), 6),
                    round(throughput_cqr(t), 6),
                ]
            )

    paths = {}
    tables = {
        "hops": (
            ["p", "k", "volume", "instances", "mec_hops", "cqr_hops_mean", "cqr_hops_std", "hop_reduction"],
            hops_rows,
        ),
        "parallelism": (
            ["p", "k", "volume", "instances", "r_bar_mean", "r_bar_std", "rho_mean", "rho_std"],
            par_rows,
        ),
        "arqf": (
            ["p", "k", "volume", "instances", "q_cqr_mean", "q_mec_pro_mean", "q_mec_ond_mean", "ond_le_cqr_frac"],
            arqf_rows,
        ),
        "throughput": (
            ["p", "k", "volume", "lambda", "tpm", "trm", "tpb", "trb", "r_bar", "fm", "fb"],
            thr_rows,
        ),
    }
    for name, (header, rows) in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_csv_text(SCHEMAS[name], header, rows))
        paths[name] = path
    return paths


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def render_figures(out_dir: str) -> list[str]:
    """Rebuild the SVG figures purely from the CSV tables in ``out_dir``."""
    written = []

    header, rows = _read_csv(os.path.join(out_dir, "hops.csv"))
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        rec = dict(zip(header, row))
        if rec["cqr_hops_mean"] == "":
            continue
        label = f"CQR k={rec['k']} p={rec['p']}"
        series.setdefault(label, []).append(
            (float(rec["volume"]), float(rec["cqr_hops_mean"]))
        )
        series.setdefault("MEC (all regimes)", []).append((float(rec["volume"]), 1.0))
    path = os.path.join(out_dir, "hops.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line_chart(series, "Average hops per request", "requests", "hops"))
    written.append(path)

    header, rows = _read_csv(os.path.join(out_dir, "parallelism.csv"))
    rbar: dict[str, list[tuple[float, float]]] = {}
    rho: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        rec = dict(zip(header, row))
        label = f"k={rec['k']} p={rec['p']}"
        rbar.setdefault(label, []).append((float(rec["volume"]), float(rec["r_bar_mean"])))
        rho.setdefault(label, []).append((float(rec["volume"]), float(rec["rho_mean"])))
    for name, data, ylab in (
        ("parallelism_rbar", rbar, "parallel requests per cycle"),
        ("parallelism_rho", rho, "cycles"),
    ):
        path = os.path.join(out_dir, f"{name}.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line_chart(data, "Scheduler parallelism", "requests", ylab))
        written.append(path)

    header, rows = _read_csv(os.path.join(out_dir, "arqf.csv"))
    groups = []
    qc, qp, qo = [], [], []
    for row in rows:
        rec = dict(zip(header, row))
        groups.append(f"k={rec['k']} p={rec['p']} |R|={rec['volume']}")
        qc.append(float(rec["q_cqr_mean"]))
        qp.append(float(rec["q_mec_pro_mean"]))
        qo.append(float(rec["q_mec_ond_mean"]))
    path = os.path.join(out_dir, "arqf.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            grouped_bars(
                groups,
                {"CQR": qc, "proactive": qp, "on-demand": qo},
                "Aggregate routing-qubit footprint",
                "configuration",
                "qubits",
            )
        )
    written.append(path)

    header, rows = _read_csv(os.path.join(out_dir, "throughput.csv"))
    fm: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        rec = dict(zip(header, row))
        label = f"k={rec['k']} p={rec['p']} lam={rec['lambda']}"
        fm.setdefault(f"MEC {label}", []).append((float(rec["volume"]), float(rec["fm"])))
        fm.setdefault(f"CQR {label}", []).append((float(rec["volume"]), float(rec["fb"])))
    path = os.path.join(out_dir, "throughput.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line_chart(fm, "Throughput", "requests", "served per time unit"))
    written.append(path)
    return written
