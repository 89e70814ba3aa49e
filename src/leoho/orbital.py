"""Constellation kinematics in a flat, area-local Cartesian frame.

Satellites move in straight lines at orbital speed for the few seconds an
episode lasts; that is the discrete-time state-space model the rest of the
simulator consumes.  All positions are metres, velocities metres per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GM_EARTH = 3.986004418e14  # m^3/s^2
R_EARTH = 6.371e6  # m
SPEED_OF_LIGHT = 2.997e8  # m/s


def orbital_speed(altitude_m: float) -> float:
    """Circular-orbit speed at the given altitude, sqrt(GM / (R + h))."""
    if altitude_m < 0:
        raise ValueError(f"altitude must be non-negative, got {altitude_m}")
    return math.sqrt(GM_EARTH / (R_EARTH + altitude_m))


def slant_distance(sat_pos: np.ndarray, ue_pos: np.ndarray) -> float:
    """Euclidean distance between a satellite and a terminal, metres."""
    return float(np.linalg.norm(np.asarray(sat_pos, dtype=float) - np.asarray(ue_pos, dtype=float)))


def propagation_delay(distance_m: float) -> float:
    """One-way propagation delay over a link of the given length, seconds."""
    if distance_m < 0:
        raise ValueError(f"distance must be non-negative, got {distance_m}")
    return distance_m / SPEED_OF_LIGHT


@dataclass(frozen=True)
class OrbitalConfig:
    """Static constellation geometry.

    ``plane_velocity_dirs`` holds one unit vector per plane; every satellite
    on a plane shares it.  ``initial_positions`` is (num_planes,
    sats_per_plane, 3) at slot 0.  Plane 0 is the serving plane.
    """

    altitude_m: float
    num_planes: int
    sats_per_plane: int
    plane_velocity_dirs: np.ndarray  # (K, 3) unit vectors
    initial_positions: np.ndarray  # (K, I, 3) m
    slot_duration_s: float

    def __post_init__(self) -> None:
        dirs = np.asarray(self.plane_velocity_dirs, dtype=float)
        pos = np.asarray(self.initial_positions, dtype=float)
        object.__setattr__(self, "plane_velocity_dirs", dirs)
        object.__setattr__(self, "initial_positions", pos)
        if self.altitude_m <= 0:
            raise ValueError("altitude_m must be positive")
        if self.num_planes < 2:
            raise ValueError("need at least a serving plane and one target plane")
        if self.sats_per_plane < 1:
            raise ValueError("sats_per_plane must be >= 1")
        if dirs.shape != (self.num_planes, 3):
            raise ValueError(f"plane_velocity_dirs must be ({self.num_planes}, 3)")
        if pos.shape != (self.num_planes, self.sats_per_plane, 3):
            raise ValueError(
                f"initial_positions must be ({self.num_planes}, {self.sats_per_plane}, 3)"
            )
        norms = np.linalg.norm(dirs, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("velocity directions must be unit vectors")
        if self.slot_duration_s <= 0:
            raise ValueError("slot_duration_s must be positive")

    @property
    def speed(self) -> float:
        return orbital_speed(self.altitude_m)


@dataclass(frozen=True)
class ConstellationState:
    """Satellite positions/velocities at one slot."""

    positions: np.ndarray  # (K, I, 3) m
    velocities: np.ndarray  # (K, I, 3) m/s
    slot_index: int = 0


def initial_state(config: OrbitalConfig) -> ConstellationState:
    velocities = config.speed * config.plane_velocity_dirs[:, None, :]
    velocities = np.broadcast_to(velocities, config.initial_positions.shape).copy()
    return ConstellationState(
        positions=config.initial_positions.copy(),
        velocities=velocities,
        slot_index=0,
    )


def propagate(state: ConstellationState, config: OrbitalConfig, steps: int) -> ConstellationState:
    """Advance every satellite by ``steps`` slots of straight-line motion."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps == 0:
        return state
    dt = steps * config.slot_duration_s
    return ConstellationState(
        positions=state.positions + dt * state.velocities,
        velocities=state.velocities,
        slot_index=state.slot_index + steps,
    )


def default_constellation(
    altitude_m: float,
    num_planes: int,
    slot_duration_s: float,
    horizon: int,
    area_m: float,
    sats_per_plane: int = 1,
) -> OrbitalConfig:
    """Canonical episode geometry over a square ground area.

    Each plane's satellite is placed half an episode's travel behind the
    point directly above the area centre, so it passes overhead mid-episode.
    The serving plane heads along +y; target planes approach on diagonal
    tracks crossing the same overhead point.
    """
    speed = orbital_speed(altitude_m)
    dirs = [np.array([0.0, 1.0, 0.0])]
    s = 1.0 / math.sqrt(2.0)
    diagonals = [np.array([s, s, 0.0]), np.array([-s, s, 0.0])]
    for k in range(1, num_planes):
        dirs.append(diagonals[(k - 1) % 2])
    dirs_arr = np.stack(dirs)

    overhead = np.array([area_m / 2.0, area_m / 2.0, altitude_m])
    back_off = horizon * slot_duration_s * speed / 2.0
    # Same-plane satellites sit one equal arc apart along the track.
    arc = 2.0 * math.pi * (R_EARTH + altitude_m) / sats_per_plane
    positions = np.empty((num_planes, sats_per_plane, 3))
    for k in range(num_planes):
        for i in range(sats_per_plane):
            positions[k, i] = overhead - (back_off + i * arc) * dirs_arr[k]
    return OrbitalConfig(
        altitude_m=altitude_m,
        num_planes=num_planes,
        sats_per_plane=sats_per_plane,
        plane_velocity_dirs=dirs_arr,
        initial_positions=positions,
        slot_duration_s=slot_duration_s,
    )


def nearest_distances_km(positions: np.ndarray, ue_positions: np.ndarray) -> np.ndarray:
    """Distance from each terminal to the nearest satellite of each plane.

    The field of view is assumed to hold one visible satellite per plane;
    with several per plane we take the closest.  ``positions`` is (S..., K,
    I, 3), with leading axes for several sample instants at once, and
    ``ue_positions`` is (E..., J, 3), with leading axes for several
    episodes.  Returns (S..., E..., J, K) kilometres, a view of a
    (S..., K, E..., J) block.

    The work runs one coordinate at a time over whole (S..., K, I, E...,
    J) planes, and the squares are summed in the fixed order (x^2 + z^2) +
    y^2, so every distance is ``sqrt((dx*dx + dz*dz) + dy*dy) / 1e3``
    whatever the shapes.
    """
    lead = positions.shape[:-3]
    sats_per_plane = positions.shape[-2]
    sat_shape = positions.shape[:-1] + (1,) * (ue_positions.ndim - 1)

    def square(axis: int) -> np.ndarray:
        d = positions[..., axis].reshape(sat_shape) - ue_positions[..., axis]
        return np.multiply(d, d, out=d)

    total = square(0)
    total += square(2)
    total += square(1)
    np.sqrt(total, out=total)
    i_axis = len(lead) + 1
    nearest = total.min(axis=i_axis) if sats_per_plane > 1 else total.squeeze(i_axis)
    nearest /= 1e3
    return np.moveaxis(nearest, len(lead), -1)
