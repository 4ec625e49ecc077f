"""Receiver noise budget, electrical SNR, and achievable rate.

`noise_variance`, `sinr`, `achievable_rate` and `sum_rate` take either
Python floats or float64 ndarrays in their per-user and power-dependent
arguments, so one copy of each formula serves a single operating point and a
(users, points) chunk of a sweep, as `network` passes them. Arrays go through
the same operations in the same order as floats and give bitwise the same
elements, whatever the chunk; a float input returns a float. On arrays the
steps run in place where the operands allow it (the same products and sums),
so a chunk holds few temporaries at once. `sum_rate` of a (users, points)
block makes one nonnegativity check and one reduce that adds the user rows in
order, as the loop over users does, when the block has two or more points;
numpy sums a single column pairwise.

`LinkResult` is one user's whole outcome, from channel gains to rate. This
module imports no other owcsim module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
        for name, sign, ok in (  # each test is written so that NaN fails it
            ("rin_db_per_hz", "negative", -math.inf < self.rin_db_per_hz < 0.0),
            ("noise_current_density", "nonnegative", 0.0 <= self.noise_current_density < math.inf),
            ("tia_noise_figure_db", "nonnegative", 0.0 <= self.tia_noise_figure_db < math.inf),
            ("bandwidth_b", "positive", 0.0 < self.bandwidth_b < math.inf),
        ):
            if not ok:
                raise ValueError(f"noise.{name} must be finite and {sign}, got {vars(self)[name]}")
        try:
            floor = thermal_noise_variance(self)
        except OverflowError:  # 10 ** (NF / 10) past the float range
            floor = math.inf
        # Every SNR divides by the floor, so it must be positive too.
        if not 0.0 < floor < math.inf:
            raise ValueError(
                "noise.noise_current_density, noise.tia_noise_figure_db and noise.bandwidth_b "
                "must give a positive, finite thermal noise floor, density^2 x bandwidth x "
                f"10^(NF/10), got {floor}"
            )


@dataclass(frozen=True)
class LinkResult:
    """One user's outcome: gains, serving receiver branches (None for none),
    received power, noise, electrical SNR and rate. Each gain is a fraction of
    its own beam, so h_los is in [0, 1] while h_nlos, a sum over one beam per
    assigned mirror, may exceed 1; q is their sum."""

    h_los: float
    h_nlos: float
    q: float
    serving_branch_los: int | None
    serving_branch_nlos: int | None
    received_optical_power: float  # W
    noise_variance: float  # A^2
    sinr: float
    rate: float  # bit/s

    def __post_init__(self) -> None:
        # Each test is written so that NaN fails it.
        if not 0.0 <= self.h_los <= 1.0:
            raise ValueError(f"h_los must be in [0, 1], got {self.h_los}")
        for name in ("h_nlos", "received_optical_power", "noise_variance", "sinr", "rate"):
            if not 0.0 <= (value := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.q != self.h_los + self.h_nlos:
            raise ValueError("q must equal h_los + h_nlos exactly")


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
    q: float | np.ndarray,
    transmit_power: float | np.ndarray,
    responsivity: float | np.ndarray,
    sigma2: float | np.ndarray,
) -> float | np.ndarray:
    """Electrical SNR (R q P)^2 / sigma^2, with q the total channel gain and P
    the power of each aimed beam.

    There is no interference term: every beam serves one user, so the
    model is noise-limited and the value is an SNR.
    """
    if np.less_equal(sigma2, 0.0).any():
        raise ValueError("nonpositive noise variance")
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


def sum_rate(rates: Sequence[float] | Sequence[np.ndarray] | np.ndarray) -> float | np.ndarray:
    """Sum of per-user rates, or of per-user rate arrays elementwise.

    The users are added one at a time, left to right, so a sum of arrays
    equals the sum of the floats at each element. A 2-D ndarray is a
    (users, points) block: one check covers all of it, and one
    `np.add.reduce` over its rows gives bitwise the loop's sum, as numpy adds
    the rows of a C-contiguous block in order when it has two or more points.
    A (users, 1) block numpy sums pairwise, which from eight users on may
    differ from the loop in the last bit. A (0, points) block sums to
    zeros. A negative rate is named as the loop would name it, the first in
    row-major order.
    """
    if isinstance(rates, np.ndarray) and rates.ndim == 2:
        block = np.ascontiguousarray(rates)  # other layouts may add in another order
        if np.less(block, 0.0).any():
            raise ValueError(f"rates must be nonnegative, got {_first_negative(block)}")
        return np.add.reduce(block, axis=0)
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
