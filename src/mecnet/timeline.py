"""Discrete-event walkers for the service-cycle timing model.

Independent of the closed forms in :mod:`mecnet.metrics`: the walkers lay
preparation and routing blocks on the time axis step by step and count
completions, instead of doing floor arithmetic.  Used as the oracle for
the throughput formulas.

Within one window the proactive walker charges a cycle only when its
re-preparation deadline still falls inside the window, which is what
keeps a resource ready at the next batch arrival; the first preparation
happened before the window opened.  The on-demand walker starts preparing
at the batch arrival and counts fully contained cycles.

The saturated regime (routing fits, a full cycle does not) is additionally
simulated over many windows with the readiness time carried across
window boundaries, to measure the long-run average completions per
window.  Under the one-qubit-per-node constraint preparation cannot be
pipelined, so that average converges to lam / (prep + routing), not to
the single-window value of one; the deviation is reported, not hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .metrics import TimingParams

__all__ = [
    "walk_mec_window",
    "walk_cqr_window",
    "LongRunResult",
    "simulate_mec_long_run",
]


def walk_mec_window(t: TimingParams) -> int:
    """Completed proactive cycles in one window, by laying blocks."""
    lam, tp, tr = Fraction(t.lam), Fraction(t.tpm), Fraction(t.trm)
    if lam < tr:
        return 0  # routing alone overruns the window
    if lam < tp + tr:
        return 1  # routing fits, re-preparation does not
    count = 0
    clock = Fraction(0)
    while clock + tp <= lam:
        count += 1
        clock += tp + tr
    return count


def walk_cqr_window(t: TimingParams) -> int:
    """Completed on-demand cycles in one window, by laying blocks."""
    lam, tp, tr = Fraction(t.lam), Fraction(t.tpb), Fraction(t.trb)
    count = 0
    clock = Fraction(0)
    while clock + tp + tr <= lam:
        count += 1
        clock += tp + tr
    return count


@dataclass(frozen=True)
class LongRunResult:
    windows: int
    completions: int
    per_window: float
    deviation_from_unit: float


def simulate_mec_long_run(t: TimingParams, windows: int = 4096) -> LongRunResult:
    """Serve back-to-back batches with readiness carried across windows.

    A service starts as soon as the resource is ready (never before the
    first arrival), the routing stage completes after trm, and the next
    resource is ready a further tpm later.  Completions are binned into
    the window they fall in; the most recent batch is always the one
    served.  A service that completes exactly at the end of the horizon
    counts, as in :func:`mecnet.metrics.mec_cycles`, where a window with
    ``lam == trm`` still hosts the routing stage.
    """
    if windows < 1:
        raise ValueError(f"windows must be at least 1, got {windows}")
    lam, tp, tr = Fraction(t.lam), Fraction(t.tpm), Fraction(t.trm)
    horizon = lam * windows
    ready = Fraction(0)  # proactively prepared before the first arrival
    completions = 0
    while True:
        done = ready + tr
        if done > horizon:
            break
        completions += 1
        ready = done + tp
    per_window = completions / windows
    return LongRunResult(
        windows=windows,
        completions=completions,
        per_window=per_window,
        deviation_from_unit=abs(per_window - 1.0),
    )
