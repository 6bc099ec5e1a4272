"""Throughput closed forms, footprint identities, and the block walkers."""

import math
import random
from fractions import Fraction

import pytest

from mecnet.metrics import (
    TimingParams,
    arqf_cqr,
    arqf_mec,
    cqr_cycles,
    mec_cycles,
    throughput_cqr,
    throughput_mec,
)
from mecnet.timeline import simulate_mec_long_run, walk_cqr_window, walk_mec_window


class TestTimingParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimingParams(0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            TimingParams(1, -1, 1, 1, 1)

    def test_zero_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle time tpm \\+ trm must be positive"):
            TimingParams(5, 0, 0, 1, 1)
        with pytest.raises(ValueError, match="cycle time tpb \\+ trb must be positive"):
            TimingParams(5, 1, 1, 0, 0)
        t = TimingParams(5, 0, 1, 0, 1)  # one zero term alone is a valid cycle
        assert mec_cycles(t) == walk_mec_window(t) == 6

    @pytest.mark.parametrize("name", ["lam", "tpm", "trm", "tpb", "trb"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, name, bad):
        point = {"lam": 5, "tpm": 1, "trm": 1, "tpb": 1, "trb": 1, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
            TimingParams(**point)

    @pytest.mark.parametrize("name", ["lam", "tpm", "trm", "tpb", "trb"])
    @pytest.mark.parametrize("huge", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    def test_value_too_large_for_a_float_rejected(self, name, huge):
        # exact, but the reports write each field as a float
        point = {"lam": 5, "tpm": 1, "trm": 1, "tpb": 1, "trb": 1, name: huge}
        with pytest.raises(ValueError, match=f"^{name} is too large for a float$"):
            TimingParams(**point)


class TestThroughputMec:
    def test_worked_example(self):
        # (lam, prep, route) = (10, 3, 1): two cycles fit, each serving 4
        t = TimingParams(10, 3, 1, 4, 1)
        assert mec_cycles(t) == 2
        assert throughput_mec(t, 4.0) == pytest.approx(0.8)

    def test_window_too_short_for_routing(self):
        t = TimingParams(1, 5, 2, 1, 1)
        assert throughput_mec(t, 3.0) == 0.0

    def test_boundary_continuity(self):
        # lam exactly one full cycle: both adjacent cases give one cycle
        t = TimingParams(4, 3, 1, 1, 1)
        assert mec_cycles(t) == 1
        assert throughput_mec(t, 2.0) == pytest.approx(0.5)

    def test_saturated_band_counts_one(self):
        t = TimingParams(3, 3, 1, 1, 1)  # trm <= lam < tpm + trm
        assert mec_cycles(t) == 1

    def test_monotone_in_times(self):
        rnd = random.Random(50)
        for _ in range(400):
            lam = rnd.randint(2, 50)
            tp, tr = rnd.randint(1, 20), rnd.randint(1, 20)
            base = throughput_mec(TimingParams(lam, tp, tr, 1, 1), 2.0)
            more_prep = throughput_mec(TimingParams(lam, tp + 1, tr, 1, 1), 2.0)
            more_route = throughput_mec(TimingParams(lam, tp, tr + 1, 1, 1), 2.0)
            assert more_prep <= base and more_route <= base


class TestThroughputCqr:
    def test_worked_example(self):
        t = TimingParams(10, 3, 1, 4, 1)
        assert cqr_cycles(t) == 2
        assert throughput_cqr(t) == pytest.approx(0.2)

    def test_short_window_zero(self):
        assert throughput_cqr(TimingParams(4, 1, 1, 4, 1)) == 0.0

    def test_exact_multiple(self):
        t = TimingParams(15, 1, 1, 4, 1)
        assert cqr_cycles(t) == 3

    def test_monotone(self):
        rnd = random.Random(51)
        for _ in range(400):
            lam = rnd.randint(2, 50)
            tp, tr = rnd.randint(1, 20), rnd.randint(1, 20)
            base = throughput_cqr(TimingParams(lam, 1, 1, tp, tr))
            assert throughput_cqr(TimingParams(lam, 1, 1, tp + 1, tr)) <= base
            assert throughput_cqr(TimingParams(lam, 1, 1, tp, tr + 1)) <= base


class TestWalkers:
    def test_match_closed_forms_exact_regimes(self):
        rnd = random.Random(52)
        for _ in range(5000):
            lam = rnd.randint(1, 80)
            tpm, trm = rnd.randint(0, 25), rnd.randint(0, 25)
            tpb, trb = rnd.randint(0, 25), rnd.randint(0, 25)
            if tpm + trm == 0 or tpb + trb == 0:
                continue
            t = TimingParams(lam, tpm, trm, tpb, trb)
            if lam >= tpm + trm or lam < trm:
                assert walk_mec_window(t) == mec_cycles(t)
            assert walk_cqr_window(t) == cqr_cycles(t)

    def test_rational_boundaries(self):
        t = TimingParams(Fraction(9, 2), Fraction(7, 2), 1, 1, 1)
        assert walk_mec_window(t) == mec_cycles(t) == 1

    def test_long_run_saturated_average(self):
        # readiness drifts: the long-run average is lam over the cycle time
        t = TimingParams(5, 4, 2, 1, 1)
        res = simulate_mec_long_run(t, windows=3000)
        assert res.per_window == pytest.approx(5 / 6, abs=2e-3)
        assert res.deviation_from_unit == pytest.approx(1 / 6, abs=2e-3)

    def test_long_run_counts_service_ending_at_horizon(self):
        # lam == trm: the routing stage ends exactly at the window's end
        t = TimingParams(5, 4, 5, 1, 1)
        assert simulate_mec_long_run(t, windows=1).completions == mec_cycles(t) == 1

    @pytest.mark.parametrize("windows", [0, -5])
    def test_long_run_refuses_fewer_than_one_window(self, windows):
        # no window gave a division by zero (0) or a negative count (-5)
        t = TimingParams(5, 4, 2, 1, 1)
        with pytest.raises(ValueError, match=f"^windows must be at least 1, got {windows}$"):
            simulate_mec_long_run(t, windows=windows)


class TestFootprints:
    def test_cqr_examples(self):
        assert arqf_cqr(1, 1) == 4
        assert arqf_cqr(3, 0) == 6

    def test_butterfly_shared_intermediates(self):
        # two requests, each using the same two intermediates: each
        # intermediate holds 4 qubits, aggregate 2|R| + 2*chi = 12
        assert arqf_cqr(2, 4) == 12

    def test_mec_examples(self):
        assert arqf_mec(2, 4, [3, 3, 3, 3], 0, "proactive") == 32
        assert arqf_mec(3, 4, [], 10, "on_demand") == 32

    def test_on_demand_endpoint_cost_is_two_per_request(self):
        base = arqf_mec(1, 4, [], 0, "on_demand")
        assert arqf_mec(1, 4, [], 5, "on_demand") - base == 10

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            arqf_mec(1, 2, [1], 1, "lazy")
