"""Receiver noise budget, electrical SNR, and achievable rate.

`noise_variance`, `sinr`, `achievable_rate` and `sum_rate` take either
Python floats or float64 ndarrays in their per-user and power-dependent
arguments, so one copy of each formula serves a single operating point and a
chunk of a sweep: `network` passes a (users, 1) column of gains and a row of
powers, for a block of users over all of a case's points. Arrays go through
the same operations in the same order as floats and give bitwise the same
elements, whatever the chunk; a float input returns a float. Given `out=`
(float64 buffers of the result's shape, which may be strided views, as the
slice of a sweep table's user-major block that `network` passes for the
rate; `noise_variance` takes the variance's and a scratch one, which may
hold the received power), each formula runs its steps in place in them and
returns the one holding the result, bitwise the call without;
`achievable_rate`'s may be `gamma`. Each sign guard is one reduction, made
before any buffer is written. `sum_rate` of a (users, points) block makes one
nonnegativity check and one sum that adds the user rows in order, as the
loop over users does, at any number of points.

`LinkResult` is one user's whole outcome, from channel gains to rate. Of the
owcsim modules, this one imports only `schema`, whose rows `NoiseParams` meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .schema import check_fields

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
        # Each field is named as its noise.* key. The rows bound the thermal
        # floor to [1e-25, 1e-3] A^2, so every SNR can divide by it.
        check_fields(*((f"noise.{name}", value) for name, value in vars(self).items()))


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
    out=None,
) -> float | np.ndarray:
    """Total shot + thermal + RIN current variance in A^2.

    shot    = 2 q R P B
    thermal = i_n^2 B 10^(NF_dB / 10)
    rin     = 10^(RIN_dB / 10) (R P)^2 B

    Strictly increasing in received power; the thermal floor keeps the
    variance positive in the dark.
    """
    if _least(received_optical_power) < 0.0:
        raise ValueError("received_optical_power must be nonnegative")
    if _least(responsivity) < 0.0:
        raise ValueError("responsivity must be nonnegative")
    variance, scratch = out or (None, None)
    photocurrent = _product(responsivity, received_optical_power, scratch)
    shot = _product(2.0 * ELECTRON_CHARGE, photocurrent, variance)
    shot *= params.bandwidth_b
    rin = _product(photocurrent, photocurrent, scratch)
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
    out=None,
) -> float | np.ndarray:
    """Electrical SNR (R q P)^2 / sigma^2, with q the total channel gain and P
    the power of each aimed beam.

    There is no interference term: every beam serves one user, so the
    model is noise-limited and the value is an SNR.
    """
    if _least(sigma2) <= 0.0:
        raise ValueError("nonpositive noise variance")
    signal = _product(responsivity * q, transmit_power, out)
    signal *= signal
    return signal / sigma2 if out is None else np.divide(signal, sigma2, out=out)


def achievable_rate(gamma: float | np.ndarray, bandwidth: float, out=None) -> float | np.ndarray:
    """Rate bound B log2(1 + (e / 2 pi) gamma) in bit/s."""
    if _least(gamma) < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {_first_negative(gamma)}")
    if bandwidth <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    rate = _product(RATE_SNR_SCALE, gamma, out)
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
    (users, points) block: one check covers all of it, and its sum over the
    rows, in order, is bitwise the loop's. numpy's `np.add.reduce` adds the
    rows of a C-contiguous block in order when it has two or more points, but
    a single column it sums pairwise, so a (users, 1) block is summed by
    `np.add.accumulate`, which runs down the column one row at a time. A
    (0, points) block sums to zeros. A negative rate is named as the loop
    would name it, the first in row-major order.
    """
    if isinstance(rates, np.ndarray) and rates.ndim == 2:
        block = np.ascontiguousarray(rates)  # other layouts may add in another order
        if _least(block) < 0.0:
            raise ValueError(f"rates must be nonnegative, got {_first_negative(block)}")
        if block.shape[1] == 1 and len(block):
            return np.add.accumulate(block, axis=0)[-1]
        return np.add.reduce(block, axis=0)
    total = 0.0
    for rate in rates:
        if _least(rate) < 0.0:
            raise ValueError(f"rates must be nonnegative, got {_first_negative(rate)}")
        total = total + rate
    return total


def _product(a: float | np.ndarray, b: float | np.ndarray, out: np.ndarray | None):
    """a * b, written into `out` when it is given."""
    return a * b if out is None else np.multiply(a, b, out=out)


def _least(values: float | np.ndarray) -> float:
    """The least element of `values`, skipping NaN (+inf for an array of none),
    so `_least(x) < bound` holds where the elementwise `x < bound` finds one."""
    if isinstance(values, np.ndarray):
        return np.fmin.reduce(values, axis=None) if values.size else math.inf
    return values


def _first_negative(values: float | np.ndarray) -> float:
    """The value to name in a nonnegativity message: the first negative element."""
    if isinstance(values, np.ndarray):
        return float(values[values < 0.0].flat[0])
    return values
