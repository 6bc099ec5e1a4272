"""Closed-form throughput and aggregate routing-qubit footprint.

Time is dimensionless; hardware values are deliberately left to the
caller.  Arithmetic runs on exact rationals internally so the piecewise
case boundaries are sharp for integer or rational inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from fractions import Fraction
from typing import Sequence, Union

__all__ = [
    "TimingParams",
    "mec_cycles",
    "cqr_cycles",
    "throughput_mec",
    "throughput_cqr",
    "arqf_cqr",
    "arqf_mec",
]

Num = Union[int, float, Fraction]


@dataclass(frozen=True)
class TimingParams:
    """Request inter-arrival time and per-paradigm preparation/routing times.

    lam    : interval between request batches
    tpm/trm: preparation / routing time per cycle, complementation routing
    tpb/trb: preparation / routing time per cycle, swap-based routing
    """

    lam: Num
    tpm: Num
    trm: Num
    tpb: Num
    trb: Num

    def __post_init__(self) -> None:
        # the reports write each field as a float, so it must fit one
        for f in fields(self):
            x = getattr(self, f.name)
            try:
                finite = math.isfinite(x)
            except OverflowError:
                raise ValueError(f"{f.name} is too large for a float") from None
            if not finite:
                raise ValueError(f"{f.name} must be finite, got {x}")
        if Fraction(self.lam) <= 0:
            raise ValueError("lam must be positive")
        for name in ("tpm", "trm", "tpb", "trb"):
            if Fraction(getattr(self, name)) < 0:
                raise ValueError(f"{name} must be non-negative")
        for prep, route in (("tpm", "trm"), ("tpb", "trb")):
            if Fraction(getattr(self, prep)) + Fraction(getattr(self, route)) == 0:
                raise ValueError(f"cycle time {prep} + {route} must be positive")


@lru_cache(maxsize=1024)
def mec_cycles(t: TimingParams) -> int:
    """Service cycles per window under proactive complementation routing.

    Zero when the window cannot even host the routing stage; one when it
    hosts routing but not a full re-preparation; otherwise the number of
    cycles whose re-preparation deadline falls inside the window.  The
    count depends on ``t`` alone, so it is memoised per timing point.
    """
    lam, tp, tr = Fraction(t.lam), Fraction(t.tpm), Fraction(t.trm)
    if lam < tr:
        return 0
    if lam < tp + tr:
        return 1
    return int((lam - tp) // (tp + tr)) + 1


def cqr_cycles(t: TimingParams) -> int:
    """Service cycles per window when preparation starts at request arrival."""
    lam, tp, tr = Fraction(t.lam), Fraction(t.tpb), Fraction(t.trb)
    if lam < tp + tr:
        return 0
    return int(lam // (tp + tr))


def throughput_mec(t: TimingParams, r_bar: float) -> float:
    """Served requests per time unit under complementation routing."""
    if r_bar < 0:
        raise ValueError("r_bar must be non-negative")
    return mec_cycles(t) * r_bar / float(t.lam)


def throughput_cqr(t: TimingParams) -> float:
    """Served requests per time unit under swap-based routing (one per cycle)."""
    return cqr_cycles(t) / float(t.lam)


def arqf_cqr(r_size: int, chi: int) -> int:
    """Aggregate routing-qubit footprint of swap-based routing:
    two qubits per request endpoint pair plus two per intermediate."""
    if r_size < 0 or chi < 0:
        raise ValueError("inputs must be non-negative")
    return 2 * r_size + 2 * chi


def arqf_mec(
    rho: int,
    k_prime: int,
    qnet_sizes: Sequence[int],
    r_size: int,
    mode: str,
) -> int:
    """Aggregate routing-qubit footprint of complementation routing.

    Proactive provisioning charges every vertex of the controlled network
    once per cycle; on-demand charges the request endpoints plus the
    control layer per cycle.
    """
    if rho < 0 or k_prime < 0 or r_size < 0 or any(s < 0 for s in qnet_sizes):
        raise ValueError("inputs must be non-negative")
    if mode == "proactive":
        return rho * (k_prime + sum(qnet_sizes))
    if mode == "on_demand":
        return 2 * r_size + rho * k_prime
    raise ValueError(f"unknown mode {mode!r}")
