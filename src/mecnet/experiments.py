"""Experiment pipeline: instances -> routing comparison -> CSV/SVG reports.

Per instance, the pipeline builds the controlled network, checks that the
measurement sequence reproduces the combinatorial complement (aborting
with a serialized counterexample if not), partitions each request batch
into rounds, routes the same batch with the shortest-path baseline, and
records what it measured per request volume: whether it was skipped, ρ and
χ.  The reports derive r̄, h̄, the footprints and each timing point's
throughput pair from those, the volume and the instance's partition, once.
Each round is checked once, by the scheduler's conflict-free check on the
complement, which equals the measured graph.  Aggregates are
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields
from statistics import pstdev
from typing import Any, Iterator, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .cqr import cqr_batch
from .graph import MAX_VERTICES
from .metrics import TimingParams, arqf_cqr, arqf_mec, throughput_cqr, throughput_mec
from .netgen import GenConfig, InsufficientPairsError, even_sizes, generate_inter_qnet, sample_requests
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
    "MAX_INSTANCES",
    "ExperimentConfig",
    "PipelineMismatch",
    "InstanceResult",
    "run_instance",
    "run_experiment",
    "write_reports",
    "render_figures",
    "generate_instances",
]

# The most grid instances, (k, p, rep) cells, that a config may ask for: a
# run holds every task and result at once, about 0.1 KB of task and 0.7 KB
# of result per instance with four request volumes, so about 0.8 GB at this
# limit (64-bit CPython 3.11); a larger grid is refused before any task is
# built.
MAX_INSTANCES = 1_000_000


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
        """Raises one ValueError that names every failed check."""
        failed = []
        if self.seed < 0:
            failed.append(f"seed must be non-negative, got {self.seed}")
        if self.repetitions < 1:
            failed.append("repetitions must be at least 1")
        instances = len(self.qnet_counts) * len(self.densities) * self.repetitions
        if instances > MAX_INSTANCES:
            failed.append(
                f"repetitions {self.repetitions} makes a grid of {instances} instances, "
                f"above the instance limit {MAX_INSTANCES}"
            )
        if not self.output_dir:
            failed.append("output_dir must name a directory, got ''")
        if not ((self.qnet_counts and self.densities) or self.instance_files):
            failed.append("no experiment selected")
        if not self.request_volumes or not self.timing_grid:
            failed.append("need at least one request volume and timing point")
        if self.jobs < 1:
            failed.append("jobs must be positive")
        for key in ("qnet_counts", "densities", "request_volumes", "timing_grid"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                failed.append(f"{key} repeats a value: {list(values)}")
        # a density's seeds take int(p * 1_000_000) and its instance file
        # names take f"{p:g}", so two densities that share either would
        # share their networks or overwrite each other's files; NaN and the
        # infinities, which int() refuses, fail the grid check below
        in_range = [(i, p) for i, p in enumerate(self.densities) if 0.0 <= p <= 1.0]
        for (i, p), (j, q) in itertools.combinations(in_range, 2):
            shared = []
            if int(p * 1_000_000) == int(q * 1_000_000):
                shared.append(f"seed material {int(p * 1_000_000)}")
            if f"{p:g}" == f"{q:g}":
                shared.append(f"file tag p{p:g}")
            if p != q and shared:
                failed.append(
                    f"densities[{i}]={p} and densities[{j}]={q} share the {' and '.join(shared)}"
                )
        if self.seed_policy != "greedy_max":
            failed.append(
                f"unknown seed_policy {self.seed_policy!r}; the only scheduler is 'greedy_max'"
            )
        if self.nodes > MAX_VERTICES:
            failed.append(f"nodes {self.nodes} is above the vertex limit {MAX_VERTICES}")
        # each grid cell must give a network that GenConfig, where the
        # generator's rules are stated, accepts; a count above nodes (or
        # above the limit nodes is held to) leaves a QNet empty, and is
        # refused before even_sizes builds a tuple that long
        for i, k in enumerate(self.qnet_counts):
            for j, p in enumerate(self.densities):
                try:
                    if k > 1 and k > min(self.nodes, MAX_VERTICES):
                        raise ValueError("QNet sizes must be positive")
                    GenConfig(k, even_sizes(self.nodes, k) if k > 0 else (), p, 0)
                except ValueError as exc:
                    cell = f"nodes={self.nodes}, qnet_counts[{i}]={k}, densities[{j}]={p}"
                    failed.append(f"grid cell {cell}: {exc}")
        failed += [
            f"request_volumes[{i}] must be non-negative, got {vol}"
            for i, vol in enumerate(self.request_volumes) if vol < 0
        ]
        if failed:
            raise ValueError("; ".join(failed))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build a config from a JSON object; absent keys keep the field
        defaults.  Unknown keys are rejected with one ValueError, and so are
        values that do not match their field's annotation or that their type
        refuses, each named by its path, and a value that is not an object."""
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
            except (TypeError, ValueError) as exc:
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
    Raises TypeError naming the field (and the element) on a mismatch, and
    ValueError with that name prefixed when ``TimingParams`` refuses a point."""
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
        try:
            return TimingParams(**value)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
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


@dataclass(slots=True)
class VolumeResult:
    """What one request batch measured; its request count |R| is ``volume``."""

    volume: int
    skipped: bool = False
    rho: int = 0
    chi: int = 0


@dataclass(slots=True)
class InstanceResult:
    k: int
    p: float
    rep: int
    k_prime: int
    sizes: tuple[int, ...]
    volumes: list[VolumeResult] = field(default_factory=list)


def run_instance(
    iq: InterQNet, volumes: Sequence[int], request_seed: int, p: float, rep: int
) -> InstanceResult:
    cg = build_controlled(iq)
    try:
        measured, _ = mec_complementation(cg)
    except ValueError as exc:
        raise PipelineMismatch(
            f"measurement sequence failed: {exc}", instance_to_text(iq)
        ) from exc
    if measured.graph != complement_inter_qnet(iq).graph:
        raise PipelineMismatch(
            "complementation mismatch against the edge-set oracle",
            instance_to_text(iq),
        )
    part = iq.partition
    out = InstanceResult(part.k, p, rep, part.k_prime, tuple(m.bit_count() for m in part.masks))
    for vi, vol in enumerate(volumes):
        vr = VolumeResult(volume=vol)
        try:
            rs = sample_requests(iq, vol, derive_seed(request_seed, vi))
        except InsufficientPairsError:
            vr.skipped = True
            out.volumes.append(vr)
            continue
        try:
            table = dynamic_parallel_pairs(cg, rs)
        except ParallelPairViolation as exc:
            raise PipelineMismatch(
                f"parallel-pair violation: {exc}", instance_to_text(iq)
            ) from exc
        # only the hop counts are read, so no path is built.  Pool pairs are
        # non-adjacent, so a sound table holds no one-hop route and this
        # check cannot fire in a run; it stays as a guard on the table
        routes, chi = cqr_batch(cg, rs)
        one_hop = np.flatnonzero(routes.hops < 2)
        if one_hop.size:
            raise PipelineMismatch(
                f"requests {[rs.requests[i] for i in one_hop]} route in one hop; "
                "remote requests start non-adjacent",
                instance_to_text(iq),
            )
        vr.rho, vr.chi = table.rho, chi
        out.volumes.append(vr)
    return out


def _grid(cfg: ExperimentConfig) -> Iterator[tuple[int, float, int]]:
    """The grid cells ``(k, p, rep)`` in the order they are generated and run."""
    return itertools.product(cfg.qnet_counts, cfg.densities, range(cfg.repetitions))


def _generated(cfg_seed: int, nodes: int, k: int, p: float, rep: int) -> tuple[int, InterQNet]:
    """The generator seed and the network of grid cell ``(k, p, rep)``."""
    gen_seed = derive_seed(cfg_seed, k, int(p * 1_000_000), rep)
    return gen_seed, generate_inter_qnet(GenConfig(k, even_sizes(nodes, k), p, gen_seed))


def _run_task(args: tuple) -> InstanceResult:
    cfg_seed, nodes, k, p, rep, volumes = args
    _, iq = _generated(cfg_seed, nodes, k, p, rep)
    req_seed = derive_seed(cfg_seed, k, int(p * 1_000_000), rep, 17)
    return run_instance(iq, volumes, req_seed, p, rep)


def _run_file(args: tuple) -> InstanceResult:
    cfg_seed, i, path, volumes = args
    with open(path, encoding="utf-8") as fh:
        try:
            iq = instance_from_text(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return run_instance(iq, volumes, derive_seed(cfg_seed, i, 17), -1.0, i)


def generate_instances(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    """Write one instance file per (k, density, repetition); returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    meta_lines = []
    for k, p, rep in _grid(cfg):
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
    """One result per instance file, or per grid cell ``(k, p, rep)``, in
    order; ``jobs > 1`` runs them on a process pool."""
    if cfg.instance_files:
        task = _run_file
        tasks = [(cfg.seed, i, path, cfg.request_volumes) for i, path in enumerate(cfg.instance_files)]
    else:
        task = _run_task
        tasks = [(cfg.seed, cfg.nodes, k, p, rep, cfg.request_volumes) for k, p, rep in _grid(cfg)]
    if cfg.jobs > 1:
        # a pool starts all its workers at the first submit, so it gets no
        # more than there are tasks, or than there are CPUs to run them
        workers = min(cfg.jobs, len(tasks), os.cpu_count() or 1)
        # the pool class, and with it multiprocessing, loads on first use
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, tasks))
    return [task(t) for t in tasks]


# -- aggregation and reports ---------------------------------------------------

# table name -> (schema tag, header line).  A table's tag is bumped on its
# own whenever its columns change; ``render_figures`` refuses any other tag.
TABLES = {
    "hops": ("mecnet.hops.v1", "p,k,volume,instances,mec_hops,cqr_hops_mean,cqr_hops_std,hop_reduction"),
    "parallelism": ("mecnet.parallelism.v1", "p,k,volume,instances,r_bar_mean,r_bar_std,rho_mean,rho_std"),
    "arqf": ("mecnet.arqf.v1", "p,k,volume,instances,q_cqr_mean,q_mec_pro_mean,q_mec_ond_mean,ond_le_cqr_frac"),
    "throughput": ("mecnet.throughput.v1", "p,k,volume,lambda,tpm,trm,tpb,trb,r_bar,fm,fb"),
}


def _mean(xs) -> Any:
    """The mean rounded to 6 places (a whole mean of ints stays an int); blank for no values.

    The sum is exact: every value's ``as_integer_ratio`` has a power-of-two
    denominator, so the largest one is common to all, and the one int/int
    division is correctly rounded, as ``statistics.mean`` is."""
    xs = list(xs)
    if not xs:
        return ""
    ratios = [x.as_integer_ratio() for x in xs]
    den = max(d for _, d in ratios)
    num = sum(n * (den // d) for n, d in ratios)
    count = len(xs) * den
    if den == 1 and num % count == 0 and all(isinstance(x, int) for x in xs):
        return num // count
    return round(num / count, 6)


def _std(xs) -> float:
    """The population standard deviation rounded to 6 places; 0.0 for one value."""
    xs = list(xs)
    return round(pstdev(xs), 6) if len(xs) > 1 else 0.0


def write_reports(
    results: list[InstanceResult],
    out_dir: str,
    timing_grid: Sequence[TimingParams],
) -> dict[str, str]:
    """Aggregate across repetitions and write the CSV tables; returns paths.

    This is the one place the measured facts become the paper's figures.
    Per volume result, with |R| its volume: r̄ = |R|/ρ (0.0 when ρ = 0),
    h̄ = (|R| + χ)/|R| (none when |R| = 0), the footprints through
    ``arqf_cqr`` and ``arqf_mec`` of the instance's k′ and QNet sizes, and
    f_M from r̄.  Each cell of ``throughput.csv`` has one row per point of
    ``timing_grid``, in grid order: ``fm`` is the mean of each volume
    result's own f_M (the per-result product, not one taken from the mean
    r̄), and ``fb`` depends on the grid point alone."""
    os.makedirs(out_dir, exist_ok=True)
    cells: dict[tuple, list[tuple[InstanceResult, VolumeResult]]] = {}
    for r in results:
        for v in r.volumes:
            if not v.skipped:
                cells.setdefault((r.p, r.k, v.volume), []).append((r, v))

    # the timing columns and fb depend on the grid point alone
    points = [
        (t, [float(getattr(t, key)) for key in _TIMING_KEYS], round(throughput_cqr(t), 6))
        for t in timing_grid
    ]
    rows: dict[str, list[list]] = {name: [] for name in TABLES}
    for (p, k, n), rvs in sorted(cells.items()):
        rhos = [v.rho for _, v in rvs]
        r_bars = [n / rho if rho else 0.0 for rho in rhos]
        hbars = [(n + v.chi) / n for _, v in rvs] if n else []
        q_cqr = [arqf_cqr(n, v.chi) for _, v in rvs]
        q_pro = [arqf_mec(v.rho, r.k_prime, r.sizes, n, "proactive") for r, v in rvs]
        q_ond = [arqf_mec(v.rho, r.k_prime, r.sizes, n, "on_demand") for r, v in rvs]
        r_bar = _mean(r_bars)
        cell = [p, k, n, len(rvs)]
        rows["hops"].append(cell + [1.0, _mean(hbars), _std(hbars), _mean(1 - 1 / h for h in hbars)])
        rows["parallelism"].append(cell + [r_bar, _std(r_bars), _mean(rhos), _std(rhos)])
        ond_le = _mean(1.0 if o <= c else 0.0 for o, c in zip(q_ond, q_cqr))
        rows["arqf"].append(cell + [_mean(q_cqr), _mean(q_pro), _mean(q_ond), ond_le])
        for t, timing, fb in points:
            fm = _mean(throughput_mec(t, rb) for rb in r_bars)
            rows["throughput"].append([p, k, n, *timing, r_bar, fm, fb])

    paths = {}
    for name, (tag, header) in TABLES.items():
        paths[name] = os.path.join(out_dir, f"{name}.csv")
        text = io.StringIO()
        text.write(f"# {tag}\n{header}\n")
        csv.writer(text, lineterminator="\n").writerows(rows[name])
        _write_in_place(paths[name], text.getvalue())
    return paths


def _write_in_place(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 over the old bytes, then cut the
    file at the end of the new content.

    Opening without ``O_TRUNC`` matters on ext4 (``auto_da_alloc``), which
    flushes a file truncated to zero and rewritten when it is closed: each
    report rewrite then costs about ten times as much."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


# figure -> (table, title, y label, {series label: column}).  A label is a
# template filled from the table row.  ``arqf`` draws one bar group per row;
# the others plot each column against ``volume``, leaving out a row with a
# blank value (the hops of volume 0).
_FIGURES = {
    "hops": (
        "hops",
        "Average hops per request",
        "hops",
        {"CQR k={k} p={p}": "cqr_hops_mean", "MEC (all regimes)": "mec_hops"},
    ),
    "parallelism_rbar": (
        "parallelism",
        "Scheduler parallelism",
        "parallel requests per cycle",
        {"k={k} p={p}": "r_bar_mean"},
    ),
    "parallelism_rho": (
        "parallelism",
        "Scheduler parallelism",
        "cycles",
        {"k={k} p={p}": "rho_mean"},
    ),
    "arqf": (
        "arqf",
        "Aggregate routing-qubit footprint",
        "qubits",
        {"CQR": "q_cqr_mean", "proactive": "q_mec_pro_mean", "on-demand": "q_mec_ond_mean"},
    ),
    "throughput": (
        "throughput",
        "Throughput",
        "served per time unit",
        {"MEC k={k} p={p} lam={lambda}": "fm", "CQR k={k} p={p} lam={lambda}": "fb"},
    ),
}


def _read_table(path: str, tag: str, header: str) -> list[tuple[int, dict[str, str]]]:
    """The rows of one report table, each with its line number.

    Raises ValueError, naming the file, when the schema line is not ``tag``
    or line 2 is not ``header``, and naming the line as well when a row has
    another number of fields than the header.  Blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        found = fh.readline().rstrip("\n").removeprefix("# ")
        if found != tag:
            raise ValueError(f"{path} has schema tag {found!r}, expected {tag!r}")
        found = fh.readline().rstrip("\n")
        if found != header:
            raise ValueError(f"{path} line 2 has header {found!r}, expected {header!r}")
        columns = header.split(",")
        rows = []
        reader = csv.reader(fh)
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(columns):
                raise ValueError(
                    f"{path} line {reader.line_num + 2} has {len(cells)} fields, "
                    f"expected {len(columns)}"
                )
            rows.append((reader.line_num + 2, dict(zip(columns, cells))))
    return rows


def _number(path: str, line: int, row: dict[str, str], column: str) -> float:
    """One cell of a report table as a float; a ValueError names the file,
    the line and the column of a cell that is not a finite number."""
    cell = row[column]
    try:
        value = float(cell)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        finite = "" if value is None else "finite "
        raise ValueError(f"{path} line {line}, column {column!r}: {cell!r} is not a {finite}number")
    return value


def render_figures(out_dir: str) -> list[str]:
    """Rebuild the SVG figures purely from the CSV tables in ``out_dir``.

    Raises ValueError, naming the file, when a table's schema line or
    header is not the one that ``TABLES`` holds for it, and naming the line
    too for a row of the wrong length or a cell that is not a finite number."""
    tables = {}
    for name, (tag, header) in TABLES.items():
        path = os.path.join(out_dir, f"{name}.csv")
        tables[name] = (path, _read_table(path, tag, header))

    written = []
    for name, (table, title, ylabel, columns) in _FIGURES.items():
        path, rows = tables[table]
        if name == "arqf":
            svg = grouped_bars(
                [f"k={row['k']} p={row['p']} |R|={row['volume']}" for _, row in rows],
                {
                    label: [_number(path, line, row, col) for line, row in rows]
                    for label, col in columns.items()
                },
                title,
                "configuration",
                ylabel,
            )
        else:
            series: dict[str, list[tuple[float, float]]] = {}
            for line, row in rows:
                if "" not in (row[col] for col in columns.values()):
                    volume = _number(path, line, row, "volume")
                    for label, col in columns.items():
                        series.setdefault(label.format(**row), []).append(
                            (volume, _number(path, line, row, col))
                        )
            svg = line_chart(series, title, "requests", ylabel)
        written.append(os.path.join(out_dir, f"{name}.svg"))
        _write_in_place(written[-1], svg)
    return written
