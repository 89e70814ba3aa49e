"""Link-budget arithmetic and measurement filtering.

Free-space path loss, uplink carrier-to-noise ratio for the two 3GPP NTN
terminal classes, downlink RSRP for event evaluation (the scalar proxy and
the vectorised form the environment folds), the L3 IIR measurement filter,
and the A3 entering condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOLTZMANN_DBW_PER_K_PER_HZ = -228.6


def fspl(f_ghz: float, d_km: float) -> float:
    """Free-space path loss in dB for frequency in GHz and distance in km."""
    if f_ghz <= 0 or d_km <= 0:
        raise ValueError(f"frequency and distance must be positive, got f={f_ghz}, d={d_km}")
    return 20.0 * math.log10(f_ghz) + 20.0 * math.log10(d_km) + 92.45


@dataclass(frozen=True)
class TerminalProfile:
    """Uplink budget parameters for one terminal class."""

    name: str
    carrier_ghz: float
    bandwidth_hz: float
    tx_power_dbm: float
    tx_antenna_gain_dbi: float
    atmospheric_loss_db: float
    shadow_margin_db: float
    scintillation_loss_db: float
    g_over_t_db_per_k: float
    boltzmann_dbw_per_k_per_hz: float = BOLTZMANN_DBW_PER_K_PER_HZ

    def __post_init__(self) -> None:
        if self.carrier_ghz <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("carrier frequency and bandwidth must be positive")
        for loss in (self.atmospheric_loss_db, self.shadow_margin_db, self.scintillation_loss_db):
            if loss < 0:
                raise ValueError("loss terms must be non-negative")

    @property
    def eirp_dbw(self) -> float:
        return (self.tx_power_dbm - 30.0) + self.tx_antenna_gain_dbi


HANDHELD = TerminalProfile(
    name="handheld",
    carrier_ghz=2.0,
    bandwidth_hz=0.4e6,
    tx_power_dbm=23.0,
    tx_antenna_gain_dbi=0.0,
    atmospheric_loss_db=0.1,
    shadow_margin_db=3.0,
    scintillation_loss_db=2.2,
    g_over_t_db_per_k=1.1,
)

VSAT = TerminalProfile(
    name="vsat",
    carrier_ghz=30.0,
    bandwidth_hz=400e6,
    tx_power_dbm=33.0,
    tx_antenna_gain_dbi=43.2,
    atmospheric_loss_db=0.5,
    shadow_margin_db=0.0,
    scintillation_loss_db=0.3,
    g_over_t_db_per_k=13.0,
)

# The downlink every environment measures: a fixed satellite EIRP on the
# handheld S-band carrier.  The A3 event and the conventional agent compare
# filtered RSRP of targets with serving or with each other, and the L3 filter
# is linear, so an absolute offset here could not change a decision.
DL_EIRP_DBW = 10.0
DL_CARRIER_GHZ = HANDHELD.carrier_ghz


def cnr(profile: TerminalProfile, d_km: float) -> float:
    """Uplink carrier-to-noise ratio in dB at the given link distance."""
    return (
        profile.eirp_dbw
        - fspl(profile.carrier_ghz, d_km)
        - profile.atmospheric_loss_db
        - profile.shadow_margin_db
        - profile.scintillation_loss_db
        + profile.g_over_t_db_per_k
        - profile.boltzmann_dbw_per_k_per_hz
        - 10.0 * math.log10(profile.bandwidth_hz)
    )


def rsrp_proxy(eirp_dbw: float, d_km: float, f_ghz: float, shadowing_db: float = 0.0) -> float:
    """Downlink received power in dBm.

    Only differences between satellites matter for event evaluation, so the
    absolute calibration of ``eirp_dbw`` is irrelevant.
    """
    return eirp_dbw + 30.0 - fspl(f_ghz, d_km) + shadowing_db


def rsrp_dbm(
    d_km: np.ndarray, eirp_dbw: float = DL_EIRP_DBW, f_ghz: float = DL_CARRIER_GHZ
) -> np.ndarray:
    """Downlink received power in dBm, without shadowing, at every distance.

    The vectorised :func:`rsrp_proxy`, associated as ``(eirp + 30 - (20
    log10 f + 92.45)) - 20 log10 d``, in a new C-ordered array of
    ``d_km``'s shape.  The defaults are the environment's fixed downlink.
    """
    const = eirp_dbw + 30.0 - (20.0 * np.log10(f_ghz) + 92.45)
    out = np.log10(d_km, out=np.empty(np.shape(d_km)))
    out *= 20.0
    return np.subtract(const, out, out=out)


def l3_filter(m_l3_prev, m_l1, beta_l3: float):
    """One update of the L3 IIR filter with forgetting factor ``beta_l3``."""
    if not 0.0 < beta_l3 <= 1.0:
        raise ValueError(f"forgetting factor must be in (0, 1], got {beta_l3}")
    return beta_l3 * m_l1 + (1.0 - beta_l3) * m_l3_prev


def beta_from_iir_order(k_iir: float) -> float:
    """Forgetting factor implied by an IIR filter order, 1 / 2^(k/4)."""
    return 1.0 / 2.0 ** (k_iir / 4.0)


@dataclass
class MeasurementState:
    """Per (terminal, plane) L1/L3 measurement memory for one episode.

    ``l1_dbm`` holds the latest instantaneous sample and ``l3_dbm`` the
    filtered value, both shaped (..., J, K) with plane 0 the serving plane
    and optional leading episode axes.  The episode folds each L1 sample
    into the filter as it is taken.
    """

    l1_dbm: np.ndarray
    l3_dbm: np.ndarray
    beta_l3: float = 0.5

    @classmethod
    def initialise(cls, first_l1_dbm: np.ndarray, beta_l3: float = 0.5) -> "MeasurementState":
        first = np.asarray(first_l1_dbm, dtype=float)
        return cls(l1_dbm=first.copy(), l3_dbm=first.copy(), beta_l3=beta_l3)

    def fold_sample(self, l1_dbm: np.ndarray) -> None:
        self.l1_dbm = np.asarray(l1_dbm, dtype=float)
        self.l3_dbm = l3_filter(self.l3_dbm, self.l1_dbm, self.beta_l3)

    def a3_flags(self, offset_db: float) -> np.ndarray:
        """Boolean (..., J, K-1) A3 conditions, target planes vs. serving."""
        serving = self.l3_dbm[..., :1]
        return self.l3_dbm[..., 1:] > serving + offset_db
