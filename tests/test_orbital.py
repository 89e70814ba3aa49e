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


@pytest.fixture
def config():
    return orbital.default_constellation(
        altitude_m=550e3, num_planes=3, slot_duration_s=0.3, horizon=20, area_m=1000.0
    )


def test_propagate_zero_steps_is_identity(config):
    state = orbital.initial_state(config)
    after = orbital.propagate(state, config, 0)
    assert after is state


def test_propagate_single_step_displacement(config):
    state = orbital.initial_state(config)
    after = orbital.propagate(state, config, 1)
    moved = np.linalg.norm(after.positions - state.positions, axis=-1)
    expected = 0.3 * orbital.orbital_speed(550e3)
    assert np.allclose(moved, expected)
    assert expected == pytest.approx(2277.0, abs=1.0)
    assert after.slot_index == 1


def test_propagate_semigroup(config):
    state = orbital.initial_state(config)
    twice = orbital.propagate(orbital.propagate(state, config, 1), config, 1)
    direct = orbital.propagate(state, config, 2)
    assert np.allclose(twice.positions, direct.positions, atol=1e-3)
    assert twice.slot_index == direct.slot_index == 2


def test_propagate_linear_in_steps_after_many_steps(config):
    state = orbital.initial_state(config)
    stepped = state
    for _ in range(10_000):
        stepped = orbital.propagate(stepped, config, 1)
    closed = state.positions + 10_000 * config.slot_duration_s * state.velocities
    scale = np.abs(closed).max()
    assert np.abs(stepped.positions - closed).max() / scale < 1e-6


def test_propagate_rejects_negative_steps(config):
    with pytest.raises(ValueError):
        orbital.propagate(orbital.initial_state(config), config, -1)


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


def test_default_constellation_geometry(config):
    # Unit velocity directions, one satellite per plane by default.
    assert np.allclose(np.linalg.norm(config.plane_velocity_dirs, axis=1), 1.0)
    assert config.initial_positions.shape == (3, 1, 3)
    # Every plane passes directly over the area centre at mid-episode.
    state = orbital.propagate(orbital.initial_state(config), config, 10)
    overhead = np.array([500.0, 500.0, 550e3])
    for k in range(3):
        assert np.linalg.norm(state.positions[k, 0] - overhead) < 1.0


def test_constellation_speed_uniform(config):
    state = orbital.initial_state(config)
    speeds = np.linalg.norm(state.velocities, axis=-1)
    assert np.allclose(speeds, orbital.orbital_speed(550e3))


def test_nearest_distances_consistent_between_fast_and_general_paths():
    rng = np.random.default_rng(0)
    positions = rng.uniform(-1e6, 1e6, size=(3, 1, 3))
    ues = rng.uniform(0, 1e3, size=(7, 3))
    fast = orbital.nearest_distances_km(positions, ues)
    general = np.array(
        [[orbital.slant_distance(positions[k, 0], u) / 1e3 for k in range(3)] for u in ues]
    )
    assert np.allclose(fast, general)
    batched = orbital.nearest_distances_km(np.stack([positions, positions + 10.0]), ues)
    assert np.allclose(batched[0], fast)


def test_nearest_distances_picks_closest_satellite_per_plane():
    positions = np.array([[[0.0, 0.0, 550e3], [0.0, 9e6, 550e3]]])  # one plane, two sats
    ues = np.zeros((1, 3))
    d = orbital.nearest_distances_km(positions, ues)
    assert d[0, 0] == pytest.approx(550.0)


def python_float_distances_km(positions, ues):
    # Per-element oracle in Python floats: (x^2 + z^2) + y^2, the nearest
    # satellite of each plane, then kilometres.
    lead_s, lead_e = positions.shape[:-3], ues.shape[:-2]
    out = np.empty(lead_s + lead_e + ues.shape[-2:-1] + positions.shape[-3:-2])
    for s in np.ndindex(lead_s):
        for e in np.ndindex(lead_e):
            for j, ue in enumerate(ues[e]):
                for k, plane in enumerate(positions[s]):
                    nearest = math.inf
                    for sat in plane:
                        dx, dy, dz = (float(sat[c]) - float(ue[c]) for c in range(3))
                        nearest = min(nearest, math.sqrt((dx * dx + dz * dz) + dy * dy))
                    out[s + e + (j, k)] = nearest / 1e3
    return out


@pytest.mark.parametrize("sats_per_plane", [1, 3])
@pytest.mark.parametrize("sample_axes, episode_axes", [((), ()), ((2,), ()), ((), (3,)), ((2,), (2, 3))])
def test_nearest_distances_match_the_python_float_oracle_bit_for_bit(
    sats_per_plane, sample_axes, episode_axes
):
    rng = np.random.default_rng(sats_per_plane)
    positions = rng.uniform(-2e6, 2e6, size=sample_axes + (3, sats_per_plane, 3))
    positions[..., 2] += 550e3
    # Explicit 3-D terminal positions, heights included.
    ues = rng.uniform(0.0, 1e4, size=episode_axes + (4, 3))
    got = orbital.nearest_distances_km(positions, ues)
    want = python_float_distances_km(positions, ues)
    assert got.shape == sample_axes + episode_axes + (4, 3)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_invalid_configs_rejected():
    good = orbital.default_constellation(550e3, 3, 0.3, 20, 1000.0)
    with pytest.raises(ValueError):
        orbital.OrbitalConfig(
            altitude_m=550e3,
            num_planes=3,
            sats_per_plane=1,
            plane_velocity_dirs=good.plane_velocity_dirs * 2.0,  # not unit
            initial_positions=good.initial_positions,
            slot_duration_s=0.3,
        )
    with pytest.raises(ValueError):
        orbital.OrbitalConfig(
            altitude_m=-1.0,
            num_planes=3,
            sats_per_plane=1,
            plane_velocity_dirs=good.plane_velocity_dirs,
            initial_positions=good.initial_positions,
            slot_duration_s=0.3,
        )
