import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from leoho import orbital

GM = 3.986004418e14
R_EARTH = 6.371e6


def closed_form_speed(altitude_m: float) -> float:
    # Independent oracle: plug into sqrt(GM / (R + h)) directly.
    return math.sqrt(GM / (R_EARTH + altitude_m))


def test_orbital_speed_at_550km_matches_published_value():
    v = orbital.orbital_speed(550e3)
    assert v == pytest.approx(closed_form_speed(550e3), rel=1e-12)
    assert v == pytest.approx(7.59e3, rel=5e-3)


def test_orbital_speed_at_sea_level():
    assert orbital.orbital_speed(0.0) == pytest.approx(closed_form_speed(0.0), rel=1e-12)
    assert orbital.orbital_speed(0.0) == pytest.approx(7.91e3, rel=5e-3)


def test_orbital_speed_at_geostationary_altitude():
    assert orbital.orbital_speed(35786e3) == pytest.approx(3.07e3, rel=5e-3)


def test_orbital_speed_rejects_negative_altitude():
    with pytest.raises(ValueError):
        orbital.orbital_speed(-1.0)


@given(st.floats(min_value=0, max_value=3e7), st.floats(min_value=1.0, max_value=3e6))
def test_orbital_speed_strictly_decreasing(altitude, bump):
    assert orbital.orbital_speed(altitude + bump) < orbital.orbital_speed(altitude)


SLOT_S = 0.3


@pytest.fixture
def tracks():
    return orbital.default_constellation(
        altitude_m=550e3, num_planes=3, slot_duration_s=SLOT_S, horizon=20, area_m=1000.0
    )


def test_propagate_zero_steps_is_identity(tracks):
    positions, velocities = tracks
    assert np.array_equal(orbital.propagate(positions, velocities, 0.0), positions)


def test_propagate_single_step_displacement(tracks):
    positions, velocities = tracks
    after = orbital.propagate(positions, velocities, SLOT_S)
    moved = np.linalg.norm(after - positions, axis=-1)
    expected = SLOT_S * orbital.orbital_speed(550e3)
    assert np.allclose(moved, expected)
    assert expected == pytest.approx(2277.0, abs=1.0)


def test_propagate_semigroup(tracks):
    positions, velocities = tracks
    once = orbital.propagate(positions, velocities, SLOT_S)
    twice = orbital.propagate(once, velocities, SLOT_S)
    direct = orbital.propagate(positions, velocities, 2 * SLOT_S)
    assert np.allclose(twice, direct, atol=1e-3)
    # A (S, 1, 1) dt gives S instants at once, each as its own call does.
    times = np.array([0.0, SLOT_S, 2 * SLOT_S])
    stacked = orbital.propagate(positions, velocities, times[:, None, None])
    for t, block in zip(times, stacked):
        assert np.array_equal(block, orbital.propagate(positions, velocities, t))


def test_propagate_linear_in_steps_after_many_steps(tracks):
    positions, velocities = tracks
    stepped = positions
    for _ in range(10_000):
        stepped = orbital.propagate(stepped, velocities, SLOT_S)
    closed = positions + 10_000 * SLOT_S * velocities
    scale = np.abs(closed).max()
    assert np.abs(stepped - closed).max() / scale < 1e-6


def test_slant_distance_cases():
    assert orbital.slant_distance(np.array([0.0, 0.0, 550e3]), np.zeros(3)) == pytest.approx(550e3)
    assert orbital.slant_distance(np.ones(3), np.ones(3)) == 0.0
    assert orbital.slant_distance(np.array([3e5, 4e5, 0.0]), np.zeros(3)) == pytest.approx(5e5)


def test_slant_distance_symmetric():
    a = np.array([1.0, -2.0, 3.0])
    b = np.array([-4.0, 5.0, -6.0])
    assert orbital.slant_distance(a, b) == orbital.slant_distance(b, a)


def test_propagation_delay_cases():
    assert orbital.propagation_delay(550e3) == pytest.approx(550e3 / 2.997e8, rel=1e-12)
    assert orbital.propagation_delay(550e3) == pytest.approx(1.835e-3, rel=1e-3)
    assert orbital.propagation_delay(0.0) == 0.0
    with pytest.raises(ValueError):
        orbital.propagation_delay(-5.0)


def test_default_constellation_geometry(tracks):
    positions, velocities = tracks
    # One satellite per plane, and every plane's track passes directly over
    # the area centre at mid-episode.
    assert positions.shape == velocities.shape == (3, 3)
    mid = orbital.propagate(positions, velocities, 10 * SLOT_S)
    overhead = np.array([500.0, 500.0, 550e3])
    for k in range(3):
        assert np.linalg.norm(mid[k] - overhead) < 1.0


def test_constellation_speed_uniform(tracks):
    _, velocities = tracks
    speeds = np.linalg.norm(velocities, axis=-1)
    assert np.allclose(speeds, orbital.orbital_speed(550e3))


def test_nearest_distances_consistent_between_fast_and_general_paths():
    rng = np.random.default_rng(0)
    positions = rng.uniform(-1e6, 1e6, size=(3, 3))
    ues = rng.uniform(0, 1e3, size=(7, 3))
    fast = orbital.nearest_distances_km(positions, ues)
    general = np.array(
        [[orbital.slant_distance(positions[k], u) / 1e3 for k in range(3)] for u in ues]
    )
    assert np.allclose(fast, general)
    batched = orbital.nearest_distances_km(np.stack([positions, positions + 10.0]), ues)
    assert np.allclose(batched[0], fast)


def python_float_distances_km(positions, ues):
    # Per-element oracle in Python floats: (x^2 + z^2) + y^2 for each
    # plane's satellite, then kilometres.
    lead_s, lead_e = positions.shape[:-2], ues.shape[:-2]
    out = np.empty(lead_s + lead_e + ues.shape[-2:-1] + positions.shape[-2:-1])
    for s in np.ndindex(lead_s):
        for e in np.ndindex(lead_e):
            for j, ue in enumerate(ues[e]):
                for k, sat in enumerate(positions[s]):
                    dx, dy, dz = (float(sat[c]) - float(ue[c]) for c in range(3))
                    out[s + e + (j, k)] = math.sqrt((dx * dx + dz * dz) + dy * dy) / 1e3
    return out


@pytest.mark.parametrize("sample_axes, episode_axes", [((), ()), ((2,), ()), ((), (3,)), ((2,), (2, 3))])
def test_nearest_distances_match_the_python_float_oracle_bit_for_bit(sample_axes, episode_axes):
    rng = np.random.default_rng(1)
    positions = rng.uniform(-2e6, 2e6, size=sample_axes + (3, 3))
    positions[..., 2] += 550e3
    # Explicit 3-D terminal positions, heights included.
    ues = rng.uniform(0.0, 1e4, size=episode_axes + (4, 3))
    got = orbital.nearest_distances_km(positions, ues)
    want = python_float_distances_km(positions, ues)
    assert got.shape == sample_axes + episode_axes + (4, 3)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
