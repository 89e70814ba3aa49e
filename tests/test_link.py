import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leoho import link, orbital
from leoho.env import HandoverEnv, ScenarioConfig


def test_fspl_reference_point():
    # 20 log10(f) + 20 log10(d) + 92.45 with both log terms zero.
    assert link.fspl(1.0, 1.0) == pytest.approx(92.45)


def test_fspl_ka_band_600km():
    expected = 20 * math.log10(30) + 20 * math.log10(600) + 92.45
    assert link.fspl(30.0, 600.0) == pytest.approx(expected, rel=1e-12)
    assert link.fspl(30.0, 600.0) == pytest.approx(177.55, abs=0.01)


def test_fspl_s_band_600km():
    assert link.fspl(2.0, 600.0) == pytest.approx(154.03, abs=0.01)


def test_fspl_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        link.fspl(0.0, 100.0)
    with pytest.raises(ValueError):
        link.fspl(2.0, -1.0)


def spreadsheet_cnr(
    tx_dbm, gain_dbi, f_ghz, d_km, atmo, shadow, scint, g_over_t, bandwidth_hz
):
    # Independent link-budget oracle, written out term by term.
    eirp_dbw = (tx_dbm - 30.0) + gain_dbi
    path_loss = 20 * math.log10(f_ghz) + 20 * math.log10(d_km) + 92.45
    noise = -228.6 + 10 * math.log10(bandwidth_hz)
    return eirp_dbw - path_loss - atmo - shadow - scint + g_over_t - noise


def test_cnr_vsat_600km_matches_oracle():
    expected = spreadsheet_cnr(33.0, 43.2, 30.0, 600.0, 0.5, 0.0, 0.3, 13.0, 400e6)
    assert link.cnr(link.VSAT, 600.0) == pytest.approx(expected, abs=1e-9)
    # Sits in the VSAT curve's plotted range.
    assert expected == pytest.approx(23.4, abs=0.05)


def test_cnr_handheld_600km_matches_oracle():
    expected = spreadsheet_cnr(23.0, 0.0, 2.0, 600.0, 0.1, 3.0, 2.2, 1.1, 0.4e6)
    assert link.cnr(link.HANDHELD, 600.0) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(7.3, abs=0.05)


def test_cnr_distance_doubling_law():
    for d in (300.0, 600.0, 1234.5):
        drop = link.cnr(link.VSAT, d) - link.cnr(link.VSAT, 2 * d)
        assert drop == pytest.approx(20 * math.log10(2), rel=1e-9)


def test_cnr_additive_in_transmit_power():
    import dataclasses

    boosted = dataclasses.replace(link.VSAT, tx_power_dbm=link.VSAT.tx_power_dbm + 7.5)
    assert link.cnr(boosted, 600.0) == pytest.approx(link.cnr(link.VSAT, 600.0) + 7.5)


@given(st.floats(min_value=100, max_value=3000), st.floats(min_value=1, max_value=500))
def test_cnr_strictly_decreasing_in_distance(d, extra):
    assert link.cnr(link.HANDHELD, d + extra) < link.cnr(link.HANDHELD, d)


def test_rsrp_proxy_values():
    assert link.rsrp_proxy(10.0, 600.0, 2.0) == pytest.approx(40.0 - link.fspl(2.0, 600.0))
    assert link.rsrp_proxy(10.0, 600.0, 2.0) == pytest.approx(-114.03, abs=0.01)
    # Equal geometry and shadowing means equal received power.
    assert link.rsrp_proxy(10.0, 800.0, 2.0, 1.5) == link.rsrp_proxy(10.0, 800.0, 2.0, 1.5)
    # Halving the distance buys the distance law back.
    gain = link.rsrp_proxy(10.0, 300.0, 2.0) - link.rsrp_proxy(10.0, 600.0, 2.0)
    assert gain == pytest.approx(20 * math.log10(2), rel=1e-9)


@settings(deadline=None)
@given(
    d_km=st.floats(1.0, 5e4),
    eirp=st.floats(-20.0, 60.0),
    f_ghz=st.floats(0.5, 40.0),
)
def test_rsrp_dbm_matches_the_scalar_proxy(d_km, eirp, f_ghz):
    got = link.rsrp_dbm(np.array([d_km, 2 * d_km]), eirp, f_ghz)
    want = [link.rsrp_proxy(eirp, d, f_ghz) for d in (d_km, 2 * d_km)]
    assert np.allclose(got, want, rtol=0.0, atol=1e-9)


def test_rsrp_dbm_is_bit_equal_to_the_samples_the_env_folds():
    # One sample per slot and a filter that keeps only the latest sample, so
    # the filtered state holds each folded sample as it is.
    cfg = ScenarioConfig(
        num_ues=5, horizon=4, shadowing_sigma_db=0.0, measurement_period_s=0.3, iir_order=0.0
    )
    env = HandoverEnv(cfg)
    env.reset(episodes=[1, 2, 3])
    sat_positions, velocities = orbital.default_constellation(
        cfg.altitude_m, cfg.num_planes, cfg.slot_s, cfg.horizon, cfg.area_m
    )
    for slot in range(cfg.horizon):
        # The initial sample, then each slot's one sample at its end.
        time = 0.0 if slot == 0 else (slot - 1) * cfg.slot_s + cfg.measurement_period_s
        positions = sat_positions + time * velocities
        d_km = orbital.nearest_distances_km(positions, env.state.ue_positions)
        # The env's association before the link budget moved into link, on
        # the fixed downlink: 10 dBW EIRP on the 2 GHz handheld carrier.
        const = 10.0 + 30.0 - (20.0 * np.log10(2.0) + 92.45)
        want = const - 20.0 * np.log10(d_km)
        folded = env.measurements()
        assert np.array_equal(link.rsrp_dbm(d_km), want)
        assert np.array_equal(folded.l1_dbm, want) and np.array_equal(folded.l3_dbm, want)
        env.step(np.zeros(env.state.accessed.shape, dtype=np.int64))


def test_l3_filter_midpoint():
    # Forgetting factor 0.5 averages the new sample with the old state.
    assert link.l3_filter(-100.0, -90.0, 0.5) == pytest.approx(-95.0)


def test_l3_filter_beta_one_tracks_input():
    assert link.l3_filter(-120.0, -87.3, 1.0) == -87.3


def test_l3_filter_converges_geometrically():
    value = -120.0
    for _ in range(60):
        value = link.l3_filter(value, -90.0, 0.5)
    assert value == pytest.approx(-90.0, abs=1e-12)


def test_l3_filter_rejects_bad_beta():
    for beta in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            link.l3_filter(-100.0, -90.0, beta)


@given(
    st.lists(st.floats(min_value=-140, max_value=-60), min_size=1, max_size=30),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_l3_filter_stays_within_input_bounds(samples, beta):
    state = samples[0]
    lo, hi = samples[0], samples[0]
    for s in samples[1:]:
        state = link.l3_filter(state, s, beta)
        lo, hi = min(lo, s), max(hi, s)
        assert lo - 1e-9 <= state <= hi + 1e-9


def test_beta_from_iir_order():
    assert link.beta_from_iir_order(4) == pytest.approx(0.5)


def a3_flag(serving: float, target: float, offset_db: float) -> bool:
    """The A3 condition one measurement state reports for one target."""
    ms = link.MeasurementState.initialise(np.array([[serving, target]]))
    return bool(ms.a3_flags(offset_db)[0, 0])


def test_a3_event_boundary_and_offset():
    # Exactly offset above the serving signal does not trigger (strict).
    assert a3_flag(-100.0, -99.0, 1.0) is False
    assert a3_flag(-100.0, -98.0, 1.0) is True
    assert a3_flag(-100.0, -100.0, 1.0) is False


@given(
    st.floats(min_value=-140, max_value=-60),
    st.floats(min_value=-140, max_value=-60),
    st.floats(min_value=0, max_value=10),
    st.floats(min_value=-50, max_value=50),
)
def test_a3_event_invariant_to_common_shift(serving, target, offset, shift):
    assert a3_flag(serving, target, offset) == a3_flag(serving + shift, target + shift, offset)


def test_measurement_state_fold_and_flags():
    first = np.array([[-100.0, -95.0, -105.0]])
    ms = link.MeasurementState.initialise(first, beta_l3=0.5)
    assert np.array_equal(ms.l3_dbm, first)
    ms.fold_sample(np.array([[-90.0, -95.0, -95.0]]))
    assert np.allclose(ms.l3_dbm, [[-95.0, -95.0, -100.0]])
    flags = ms.a3_flags(1.0)
    # Serving filtered to -95: a target triggers only above -94.
    assert flags.tolist() == [[False, False]]
    ms.fold_sample(np.array([[-110.0, -70.0, -110.0]]))
    # Filtered: serving -102.5, targets -82.5 and -105; offset 1 dB.
    assert ms.a3_flags(1.0).tolist() == [[True, False]]


def test_handheld_and_vsat_presets():
    assert (link.HANDHELD.name, link.VSAT.name) == ("handheld", "vsat")
    assert link.VSAT.bandwidth_hz == 400e6
    assert link.HANDHELD.carrier_ghz == 2.0
    assert link.VSAT.eirp_dbw == pytest.approx(46.2)
