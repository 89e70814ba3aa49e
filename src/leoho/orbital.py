"""Constellation kinematics in a flat, area-local Cartesian frame.

Satellites move in straight lines at orbital speed for the few seconds an
episode lasts; that is the discrete-time state-space model the rest of the
simulator consumes.  All positions are metres, velocities metres per second.
"""

from __future__ import annotations

import math

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


def propagate(positions: np.ndarray, velocities: np.ndarray, dt: float | np.ndarray) -> np.ndarray:
    """Satellite positions ``dt`` seconds on, by straight-line motion.

    ``positions`` and ``velocities`` are (K, 3); ``dt`` is a scalar or an
    array that broadcasts against them, e.g. (S, 1, 1) for S instants.
    """
    return positions + dt * velocities


def default_constellation(
    altitude_m: float,
    num_planes: int,
    slot_duration_s: float,
    horizon: int,
    area_m: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical episode geometry over a square ground area.

    Returns the (K, 3) positions at slot 0 and the velocities of one
    satellite per plane; plane 0 is the serving plane.  Each satellite is
    placed half an episode's travel behind the point directly above the
    area centre, so it passes overhead mid-episode.  The serving plane heads
    along +y; target planes approach on diagonal tracks crossing the same
    overhead point.
    """
    speed = orbital_speed(altitude_m)
    s = 1.0 / math.sqrt(2.0)
    diagonals = np.array([[s, s, 0.0], [-s, s, 0.0]])
    dirs = np.vstack([[0.0, 1.0, 0.0], diagonals[np.arange(num_planes - 1) % 2]])

    overhead = np.array([area_m / 2.0, area_m / 2.0, altitude_m])
    back_off = horizon * slot_duration_s * speed / 2.0
    return overhead - back_off * dirs, speed * dirs


def nearest_distances_km(positions: np.ndarray, ue_positions: np.ndarray) -> np.ndarray:
    """Distance from each terminal to each plane's satellite.

    The field of view is assumed to hold one visible satellite per plane.
    ``positions`` is (S..., K, 3), with leading axes for several sample
    instants at once, and ``ue_positions`` is (E..., J, 3), with leading
    axes for several episodes.  Returns (S..., E..., J, K) kilometres, a
    view of a (S..., K, E..., J) block.

    The work runs one coordinate at a time over whole (S..., K, E..., J)
    planes, and the squares are summed in the fixed order (x^2 + z^2) +
    y^2, so every distance is ``sqrt((dx*dx + dz*dz) + dy*dy) / 1e3``
    whatever the shapes.
    """
    lead = positions.shape[:-2]
    sat_shape = positions.shape[:-1] + (1,) * (ue_positions.ndim - 1)

    def square(axis: int) -> np.ndarray:
        d = positions[..., axis].reshape(sat_shape) - ue_positions[..., axis]
        return np.multiply(d, d, out=d)

    total = square(0)
    total += square(2)
    total += square(1)
    np.sqrt(total, out=total)
    total /= 1e3
    return np.moveaxis(total, len(lead), -1)
