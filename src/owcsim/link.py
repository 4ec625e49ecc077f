"""Receiver noise budget, electrical SNR, and achievable rate.

`noise_variance`, `sinr`, `achievable_rate` and `sum_rate` take either
Python floats or float64 ndarrays in their per-user and power-dependent
arguments, so one copy of each formula serves a single operating point and a
whole (users, points) block. Arrays go through the same operations in the same
order as floats and give bitwise the same elements; a float input returns a
float. On arrays the steps run in place where the operands allow it (the same
products and sums), so a large block holds few temporaries at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelGain

ELECTRON_CHARGE = 1.602176634e-19  # C, exact

RATE_SNR_SCALE = math.e / (2.0 * math.pi)


@dataclass(frozen=True)
class NoiseParams:
    """Receiver-chain noise for intensity-modulation direct detection."""

    rin_db_per_hz: float = -155.0
    noise_current_density: float = 4.47e-12  # A/sqrt(Hz)
    tia_noise_figure_db: float = 5.0
    bandwidth_b: float = 1.5e9  # Hz

    def __post_init__(self) -> None:
        if self.bandwidth_b <= 0.0:
            raise ValueError(f"bandwidth_b must be positive, got {self.bandwidth_b}")
        if self.noise_current_density < 0.0:
            raise ValueError(
                f"noise_current_density must be nonnegative, got {self.noise_current_density}"
            )
        if self.rin_db_per_hz >= 0.0:
            raise ValueError(
                f"rin_db_per_hz must be negative, got {self.rin_db_per_hz}"
            )


@dataclass(frozen=True)
class LinkResult:
    """Per-user link outcome: received power, noise, electrical SNR, rate."""

    received_optical_power: float  # W
    noise_variance: float  # A^2
    sinr: float
    rate: float  # bit/s
    gain: ChannelGain | None = None

    def __post_init__(self) -> None:
        for name in ("received_optical_power", "noise_variance", "sinr", "rate"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


def thermal_noise_variance(params: NoiseParams) -> float:
    """Input-referred preamplifier noise floor, independent of received power."""
    noise_figure = 10.0 ** (params.tia_noise_figure_db / 10.0)
    return params.noise_current_density**2 * params.bandwidth_b * noise_figure


def noise_variance(
    params: NoiseParams,
    received_optical_power: float | np.ndarray,
    responsivity: float | np.ndarray,
) -> float | np.ndarray:
    """Total shot + thermal + RIN current variance in A^2.

    shot    = 2 q R P B
    thermal = i_n^2 B 10^(NF_dB / 10)
    rin     = 10^(RIN_dB / 10) (R P)^2 B

    Strictly increasing in received power; the thermal floor keeps the
    variance positive in the dark.
    """
    if np.less(received_optical_power, 0.0).any():
        raise ValueError("received_optical_power must be nonnegative")
    if np.less(responsivity, 0.0).any():
        raise ValueError("responsivity must be nonnegative")
    photocurrent = responsivity * received_optical_power
    shot = 2.0 * ELECTRON_CHARGE * photocurrent
    shot *= params.bandwidth_b
    rin = photocurrent * photocurrent
    del photocurrent
    rin *= 10.0 ** (params.rin_db_per_hz / 10.0)
    rin *= params.bandwidth_b
    shot += thermal_noise_variance(params)
    shot += rin
    return shot


def sinr(
    gain: ChannelGain | float | np.ndarray,
    transmit_power: float | np.ndarray,
    responsivity: float | np.ndarray,
    sigma2: float | np.ndarray,
) -> float | np.ndarray:
    """Electrical SNR (R q P)^2 / sigma^2, with P the power of each aimed beam.

    There is no interference term: every beam serves one user, so the
    model is noise-limited and the value is an SNR.
    `gain` is a ChannelGain or its total gain q, a float or an array.
    """
    if np.less_equal(sigma2, 0.0).any():
        raise ValueError("nonpositive noise variance")
    q = gain.q if isinstance(gain, ChannelGain) else gain
    signal = responsivity * q * transmit_power
    signal *= signal
    return signal / sigma2


def achievable_rate(gamma: float | np.ndarray, bandwidth: float) -> float | np.ndarray:
    """Rate bound B log2(1 + (e / 2 pi) gamma) in bit/s."""
    if np.less(gamma, 0.0).any():
        raise ValueError(f"gamma must be nonnegative, got {_first_negative(gamma)}")
    if bandwidth <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    rate = RATE_SNR_SCALE * gamma
    rate += 1.0
    if isinstance(rate, np.ndarray):
        np.log2(rate, out=rate)
        rate *= bandwidth
        return rate
    return float(bandwidth * np.log2(rate))


def sum_rate(rates: Sequence[float] | Sequence[np.ndarray]) -> float | np.ndarray:
    """Sum of per-user rates, or of per-user rate arrays elementwise.

    The users are added one at a time, left to right, so a sum of arrays
    equals the sum of the floats at each element.
    """
    total = 0.0
    for rate in rates:
        if np.less(rate, 0.0).any():
            raise ValueError(f"rates must be nonnegative, got {_first_negative(rate)}")
        total = total + rate
    return total


def _first_negative(values: float | np.ndarray) -> float:
    """The value to name in a nonnegativity message: the first negative element."""
    if isinstance(values, np.ndarray):
        return float(values[values < 0.0].flat[0])
    return values
