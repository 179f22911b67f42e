"""Energy ledgers, the n log n processing model, battery storage, and
microgrid mode transitions."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foggrid import (
    BessState,
    EnergyLedger,
    MicrogridMode,
    NegativeDuration,
    NonpositiveN,
    OverCapacity,
    ProcessingModel,
    Underflow,
    accrue_energy,
    bess_charge,
    bess_charge_curtailed,
    bess_discharge,
    default_cloud_spec,
    default_fog_spec,
    mode_transition,
    processing_time,
)


class TestEnergyLedger:
    def test_one_active_hour_on_gateway_hardware(self):
        led = accrue_energy(EnergyLedger(node=1), default_fog_spec(), 3600.0, 0.0)
        assert led.energy_mj == 716400.0  # 3600 s * 199 mW
        assert led.active_time_s == 3600.0
        assert led.idle_time_s == 0.0

    def test_one_active_hour_on_backend_hardware(self):
        led = accrue_energy(EnergyLedger(node=0), default_cloud_spec(), 3600.0, 0.0)
        assert led.energy_mj == 1760400.0  # 3600 s * 489 mW

    def test_power_ratio_is_exact(self):
        fog = accrue_energy(EnergyLedger(node=1), default_fog_spec(), 3600.0, 0.0)
        cloud = accrue_energy(EnergyLedger(node=0), default_cloud_spec(), 3600.0, 0.0)
        assert fog.energy_mj / cloud.energy_mj == 199.0 / 489.0

    def test_idle_time_uses_idle_power(self):
        spec = default_fog_spec()
        led = accrue_energy(EnergyLedger(node=1), spec, 0.0, 100.0)
        assert led.energy_mj == 100.0 * spec.power_idle_mw
        assert led.idle_time_s == 100.0

    def test_accrual_is_additive(self):
        spec = default_fog_spec()
        once = accrue_energy(EnergyLedger(node=1), spec, 30.0, 10.0)
        twice = accrue_energy(
            accrue_energy(EnergyLedger(node=1), spec, 20.0, 4.0), spec, 10.0, 6.0
        )
        assert once == twice

    def test_negative_duration(self):
        with pytest.raises(NegativeDuration):
            accrue_energy(EnergyLedger(node=1), default_fog_spec(), -1.0, 0.0)
        with pytest.raises(NegativeDuration):
            accrue_energy(EnergyLedger(node=1), default_fog_spec(), 0.0, -1.0)


class TestProcessingModel:
    def test_single_item_is_free(self):
        assert processing_time(ProcessingModel(), 1) == 0.0

    def test_doubling_scales_by_exactly_2_2(self):
        m = ProcessingModel(c_ms=3.7)
        ratio = processing_time(m, 2048) / processing_time(m, 1024)
        assert ratio == 2.2

    def test_rejects_nonpositive_n(self):
        with pytest.raises(NonpositiveN):
            processing_time(ProcessingModel(), 0)
        with pytest.raises(NonpositiveN):
            processing_time(ProcessingModel(), -5)

    @given(k=st.integers(0, 40), c=st.floats(1e-3, 1e3))
    def test_dyadic_sizes_are_exact(self, k, c):
        # log2 of a power of two is the exact integer, so T(2^k) = c * 2^k * k.
        n = 2**k
        assert processing_time(ProcessingModel(c_ms=c), n) == c * n * k

    def test_beyond_the_float_range_is_infinite(self):
        # Just inside the range the product already overflows to inf.
        assert processing_time(ProcessingModel(), 10**307) == math.inf
        assert processing_time(ProcessingModel(), 10**400) == math.inf

    @given(n=st.integers(2, 10**9))
    def test_superlinear_growth(self, n):
        m = ProcessingModel()
        assert processing_time(m, 2 * n) > 2 * processing_time(m, n)


class TestBess:
    def test_charge_then_discharge(self):
        b = BessState(capacity_kwh=10.0, soc_kwh=2.0)
        b = bess_charge(b, 3.0)
        assert b.soc_kwh == 5.0
        b = bess_discharge(b, 4.0)
        assert b.soc_kwh == 1.0

    def test_efficiency_scales_stored_energy(self):
        b = BessState(capacity_kwh=10.0, soc_kwh=0.0, efficiency=0.8)
        assert bess_charge(b, 5.0).soc_kwh == 4.0

    def test_over_capacity(self):
        b = BessState(capacity_kwh=10.0, soc_kwh=9.0)
        with pytest.raises(OverCapacity):
            bess_charge(b, 2.0)

    def test_underflow(self):
        b = BessState(capacity_kwh=10.0, soc_kwh=1.0)
        with pytest.raises(Underflow):
            bess_discharge(b, 1.5)

    def test_exact_boundaries_allowed(self):
        b = BessState(capacity_kwh=10.0, soc_kwh=4.0)
        assert bess_charge(b, 6.0).soc_kwh == 10.0
        assert bess_discharge(b, 4.0).soc_kwh == 0.0

    def test_negative_amounts_rejected(self):
        b = BessState(capacity_kwh=10.0, soc_kwh=5.0)
        with pytest.raises(ValueError):
            bess_charge(b, -1.0)
        with pytest.raises(ValueError):
            bess_discharge(b, -1.0)

    @given(
        cap=st.floats(1.0, 100.0),
        frac=st.floats(0.0, 1.0),
        eff=st.floats(0.1, 1.0),
        amount=st.floats(0.0, 100.0),
    )
    def test_soc_stays_in_range(self, cap, frac, eff, amount):
        b = BessState(capacity_kwh=cap, soc_kwh=cap * frac, efficiency=eff)
        try:
            b = bess_charge(b, amount)
        except OverCapacity:
            return
        assert 0.0 <= b.soc_kwh <= cap

    def test_curtailed_charge_stops_at_capacity(self):
        # 5 kWh at 90% would store 4.5 kWh; only 1 kWh of headroom is left.
        b = BessState(capacity_kwh=10.0, soc_kwh=9.0, efficiency=0.9)
        assert bess_charge_curtailed(b, 5.0) == BessState(10.0, 10.0, 0.9)
        full = BessState(capacity_kwh=10.0, soc_kwh=10.0)
        assert bess_charge_curtailed(full, 3.0).soc_kwh == 10.0
        with pytest.raises(ValueError):
            bess_charge_curtailed(b, -1.0)

    @given(
        cap=st.floats(1.0, 100.0),
        frac=st.floats(0.0, 1.0),
        eff=st.floats(0.1, 1.0),
        amount=st.floats(0.0, 100.0),
    )
    def test_curtailed_charge_stores_what_fits(self, cap, frac, eff, amount):
        b = BessState(capacity_kwh=cap, soc_kwh=cap * frac, efficiency=eff)
        stored = bess_charge_curtailed(b, amount)
        assert (stored.capacity_kwh, stored.efficiency) == (cap, eff)
        assert math.isclose(stored.soc_kwh, min(b.soc_kwh + amount * eff, cap))


class TestMicrogridMode:
    def test_islanding(self):
        assert (
            mode_transition(MicrogridMode.GRID_CONNECTED, False)
            is MicrogridMode.AUTONOMOUS
        )

    def test_reconnection(self):
        assert (
            mode_transition(MicrogridMode.AUTONOMOUS, True)
            is MicrogridMode.GRID_CONNECTED
        )

    def test_depends_only_on_availability(self):
        for mode in MicrogridMode:
            assert mode_transition(mode, True) is MicrogridMode.GRID_CONNECTED
            assert mode_transition(mode, False) is MicrogridMode.AUTONOMOUS
