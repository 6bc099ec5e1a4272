"""Span tracing installed from outside the program.

Wrappers replace the names that mecnet's modules look up at call time
(module globals and class attributes), so calls the library makes to
itself are seen without changing it.  Each call records a span (id, name,
start, end, parent id, batch id) and adds its duration to the per-name
call count, inclusive time and self time (duration minus the time its
child spans cover).  A name that a later version of the library no longer
has is skipped and reports zero calls.

Calls made thousands of times per request batch (the graph measurement
rules) are "leaf" points: they keep their counts and self time, and their
time is still subtracted from the parent span, but they write no span
record of their own.
"""

from __future__ import annotations

import csv
import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


@contextmanager
def installed(*installers):
    """Install each object's wrappers, in order, for the body of the block."""
    patches = Patches()
    try:
        for inst in installers:
            inst.install(patches)
        yield
    finally:
        patches.restore()


def resolve(path: str) -> Optional[object]:
    """``"pkg.module"`` or ``"pkg.module:Class"`` to the object, or None."""
    mod_name, _, cls_name = path.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    return getattr(owner, cls_name, None) if cls_name else owner


def _table_counts(tr: "Tracer", table) -> None:
    tr.add("pairs.requests", sum(len(g) for g in table.groups))
    tr.add("pairs.rounds", len(table.groups))


def _extract_counts(tr: "Tracer", result) -> None:
    tr.add("qnet.z_measurements", len(result[1]))


def _cqr_counts(tr: "Tracer", result) -> None:
    paths = result[0]
    tr.add("cqr.routes", len(paths))
    tr.add("cqr.hops", sum(p.hops for p in paths))


EXP = "mecnet.experiments"

# (span name, owners that look the name up, attribute, leaf, counter hook)
TRACE_POINTS: tuple[tuple[str, tuple[str, ...], str, bool, Optional[Callable]], ...] = (
    ("experiments.run_experiment", (EXP,), "run_experiment", False, None),
    ("experiments.run_instance", (EXP,), "run_instance", False, None),
    ("experiments.write_reports", (EXP,), "write_reports", False, None),
    ("experiments.render_figures", (EXP,), "render_figures", False, None),
    ("netgen.generate_inter_qnet", (EXP,), "generate_inter_qnet", False, None),
    ("netgen.sample_requests", (EXP,), "sample_requests", False, None),
    ("qnet.build_controlled", (EXP, "mecnet.qnet"), "build_controlled", False, None),
    ("qnet.complement_inter_qnet", (EXP, "mecnet.pairs"), "complement_inter_qnet", False, None),
    ("qnet.mec_complementation", (EXP, "mecnet.qnet"), "mec_complementation", False, None),
    ("qnet.extract_epr", (EXP,), "extract_epr", False, _extract_counts),
    ("pairs.dynamic_parallel_pairs", (EXP,), "dynamic_parallel_pairs", False, _table_counts),
    ("pairs.parallel_pair_candidates", ("mecnet.pairs",), "parallel_pair_candidates", False, None),
    ("pairs.check_parallel_pairable", ("mecnet.pairs",), "check_parallel_pairable", False, None),
    ("cqr.cqr_batch", (EXP,), "cqr_batch", False, _cqr_counts),
    ("cqr.route_cqr", ("mecnet.cqr",), "route_cqr", False, None),
    ("metrics.MetricsRecord.build", ("mecnet.metrics:MetricsRecord",), "build", False, None),
    ("graph.Graph.measure_x", ("mecnet.graph:Graph",), "measure_x", True, None),
    ("graph.Graph.measure_z", ("mecnet.graph:Graph",), "measure_z", True, None),
    ("stabilizer.graph_state", ("mecnet.stabilizer",), "graph_state", False, None),
    ("stabilizer.measure_pauli", ("mecnet.stabilizer",), "measure_pauli", False, None),
    ("stabilizer.restrict_to", ("mecnet.stabilizer",), "restrict_to", False, None),
    ("stabilizer.graph_form", ("mecnet.stabilizer",), "graph_form", False, None),
    (
        "stabilizer.equal_up_to_local_clifford",
        ("mecnet.stabilizer",),
        "equal_up_to_local_clifford",
        False,
        None,
    ),
)


class Tracer:
    """Spans and counters for one run; install with :func:`installed`."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.batch = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def install(self, patches: Patches) -> None:
        for name, owners, attr, leaf, hook in TRACE_POINTS:
            for path in owners:
                owner = resolve(path)
                if owner is None or attr not in vars(owner):
                    continue
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, leaf, hook))
                elif callable(raw):
                    new = self._wrap(name, raw, leaf, hook)
                else:
                    continue
                patches.replace(owner, attr, new)

    def _wrap(self, name: str, fn: Callable, leaf: bool, hook: Optional[Callable]) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.add(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if not leaf:
                    spans.append((sid, name, t0, t1, parent, self.batch))
            if hook is not None:
                try:
                    hook(self, result)
                except (AttributeError, TypeError, IndexError):
                    self.add("trace.hook_errors")
            return result

        return functools.update_wrapper(traced, fn)

    # -- summaries ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, _, own) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["id", "name", "start_s", "end_s", "parent", "batch"])
            for sid, name, t0, t1, parent, batch in self.spans:
                w.writerow([sid, name, f"{t0:.9f}", f"{t1:.9f}", parent, batch])
