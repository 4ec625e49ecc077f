import math
import random

import numpy as np
import pytest

from owcsim.channel import ChannelGain
from owcsim.link import (
    ELECTRON_CHARGE,
    LinkResult,
    NoiseParams,
    achievable_rate,
    noise_variance,
    sinr,
    sum_rate,
    thermal_noise_variance,
)

TABLE = NoiseParams()  # all defaults


def gain_of(q: float) -> ChannelGain:
    return ChannelGain(q, 0.0, q, 0, None)


class TestNoiseParams:
    def test_defaults(self):
        assert TABLE.rin_db_per_hz == -155.0
        assert TABLE.noise_current_density == 4.47e-12
        assert TABLE.tia_noise_figure_db == 5.0
        assert TABLE.bandwidth_b == 1.5e9

    def test_validation(self):
        with pytest.raises(ValueError, match="bandwidth_b"):
            NoiseParams(bandwidth_b=-1.0)
        with pytest.raises(ValueError, match="noise_current_density"):
            NoiseParams(noise_current_density=-1e-12)
        with pytest.raises(ValueError, match="rin_db_per_hz"):
            NoiseParams(rin_db_per_hz=3.0)


class TestNoiseVariance:
    def test_dark_detector_thermal_floor(self):
        # hand evaluation: (4.47e-12)^2 * 1.5e9 * 10^0.5 = 9.4777730550e-14
        sigma2 = noise_variance(TABLE, 0.0, 0.4)
        assert abs(sigma2 - 9.4777730550e-14) / 9.4777730550e-14 < 1e-9
        assert abs(sigma2 - 9.478e-14) / 9.478e-14 < 1e-3
        assert sigma2 == thermal_noise_variance(TABLE)

    def test_component_sizes_at_microwatt_level(self):
        # hand evaluation at P = 1.45e-6 W, R = 0.4:
        # shot 2.787e-16, rin 1.595e-19, total 9.5059e-14 (thermal dominated)
        p_r, resp = 1.45e-6, 0.4
        shot = 2.0 * ELECTRON_CHARGE * resp * p_r * TABLE.bandwidth_b
        rin = 10.0 ** (TABLE.rin_db_per_hz / 10.0) * (resp * p_r) ** 2 * TABLE.bandwidth_b
        assert abs(shot - 2.79e-16) / 2.79e-16 < 2e-3
        assert abs(rin - 1.60e-19) / 1.60e-19 < 5e-3
        total = noise_variance(TABLE, p_r, resp)
        assert abs(total - (shot + thermal_noise_variance(TABLE) + rin)) < 1e-25
        assert abs(total - 9.506e-14) / 9.506e-14 < 1e-3

    def test_doubling_bandwidth_doubles_everything(self):
        doubled = NoiseParams(bandwidth_b=2 * TABLE.bandwidth_b)
        for p_r in (0.0, 1e-7, 1e-5):
            assert noise_variance(doubled, p_r, 0.4) == pytest.approx(
                2.0 * noise_variance(TABLE, p_r, 0.4), rel=1e-12
            )

    def test_strictly_increasing_in_power(self):
        values = [noise_variance(TABLE, p, 0.4) for p in (0.0, 1e-9, 1e-7, 1e-5, 1e-3)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_floor_is_thermal(self):
        rng = random.Random(31)
        floor = thermal_noise_variance(TABLE)
        for _ in range(100):
            p = rng.uniform(0.0, 1e-3)
            sigma2 = noise_variance(TABLE, p, 0.4)
            assert sigma2 >= floor
            assert (sigma2 == floor) == (p == 0.0)


class TestSinr:
    def test_zero_gain(self):
        assert sinr(gain_of(0.0), 0.01, 0.4, 1e-13) == 0.0

    def test_unity_when_signal_equals_noise_std(self):
        sigma2 = 4e-14
        q = math.sqrt(sigma2) / (0.4 * 0.01)
        assert sinr(gain_of(q), 0.01, 0.4, sigma2) == pytest.approx(1.0, rel=1e-12)

    def test_hand_derived_chain_value(self):
        # q = 1.4528220319e-4, P = 10 mW, R = 0.4, sigma2 = 9.5057212042e-14
        # gives gamma = 3.5527098865
        gamma = sinr(gain_of(1.4528220319e-4), 0.01, 0.4, 9.5057212042e-14)
        assert abs(gamma - 3.5527098865) < 1e-8
        assert abs(gamma - 3.553) / 3.553 < 5e-3

    def test_rescaling_invariance(self):
        # (q, P) -> (c q, P / c) leaves the signal product, hence the SNR, unchanged
        rng = random.Random(32)
        for _ in range(100):
            q = rng.uniform(1e-6, 1e-3)
            p = rng.uniform(1e-4, 1e-1)
            sigma2 = rng.uniform(1e-15, 1e-12)
            c = rng.uniform(0.1, 100.0)
            base = sinr(gain_of(q), p, 0.4, sigma2)
            scaled = sinr(gain_of(q * c), p / c, 0.4, sigma2)
            assert abs(scaled - base) / base < 1e-12

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError, match="nonpositive noise variance"):
            sinr(gain_of(1e-4), 0.01, 0.4, 0.0)


class TestAchievableRate:
    def test_zero(self):
        assert achievable_rate(0.0, 1.5e9) == 0.0

    def test_doubling_point(self):
        # gamma = 2 pi / e makes the log argument exactly 2
        rate = achievable_rate(2.0 * math.pi / math.e, 1.5e9)
        assert abs(rate - 1.5e9) <= 1e-12 * 1.5e9

    def test_hand_derived_chain_value(self):
        # gamma = 3.5527098865 at 1.5 GHz: 2.0146867601e9 bit/s
        rate = achievable_rate(3.5527098865, 1.5e9)
        assert abs(rate - 2.0146867601e9) / 2.0146867601e9 < 1e-9
        assert abs(rate - 2.005e9) / 2.005e9 < 5e-3

    def test_monotone_in_gamma_and_bandwidth(self):
        gammas = [0.0, 0.1, 1.0, 10.0, 100.0]
        rates = [achievable_rate(g, 1.5e9) for g in gammas]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert achievable_rate(5.0, 3e9) > achievable_rate(5.0, 1.5e9)

    def test_concave_in_gamma(self):
        grid = [0.5 * i for i in range(1, 40)]
        rates = [achievable_rate(g, 1.5e9) for g in grid]
        for i in range(1, len(grid) - 1):
            second_diff = rates[i + 1] - 2 * rates[i] + rates[i - 1]
            assert second_diff < 1e-6

    def test_below_ideal_capacity_form(self):
        rng = random.Random(33)
        for _ in range(100):
            gamma = rng.uniform(0.0, 1e4)
            assert achievable_rate(gamma, 1.5e9) <= 1.5e9 * math.log2(1.0 + gamma) + 1e-9

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            achievable_rate(-0.1, 1.5e9)


class TestSumRate:
    def test_empty(self):
        assert sum_rate([]) == 0.0

    def test_simple(self):
        assert sum_rate([1e9, 2e9]) == 3e9

    def test_symmetry(self):
        assert sum_rate([2.5e9] * 6) == pytest.approx(6 * 2.5e9, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sum_rate([1e9, -1.0])


class TestArrayInputs:
    """Each formula takes a float or a float64 array of operating points."""

    N = 20_000

    def values(self, seed, low, high):
        rng = np.random.default_rng(seed)
        return 10.0 ** rng.uniform(low, high, self.N)

    def test_float_in_float_out(self):
        sigma2 = noise_variance(TABLE, 1e-6, 0.4)
        gamma = sinr(gain_of(1e-4), 0.01, 0.4, sigma2)
        rate = achievable_rate(gamma, 1.5e9)
        for value in (sigma2, gamma, rate, sum_rate([rate, rate])):
            assert type(value) is float

    def test_noise_variance_elementwise_bitwise(self):
        powers = np.concatenate(([0.0], self.values(41, -12.0, 1.0)))
        got = noise_variance(TABLE, powers, 0.4)
        assert got.dtype == np.float64 and got.shape == powers.shape
        assert got.tolist() == [noise_variance(TABLE, p, 0.4) for p in powers.tolist()]

    def test_sinr_elementwise_bitwise(self):
        powers = self.values(42, -6.0, 2.0)
        sigma2 = self.values(43, -15.0, -8.0)
        got = sinr(gain_of(1.7e-4), powers, 0.4, sigma2)
        expected = [
            sinr(gain_of(1.7e-4), p, 0.4, s2) for p, s2 in zip(powers.tolist(), sigma2.tolist())
        ]
        assert got.tolist() == expected

    def test_achievable_rate_elementwise_bitwise(self):
        gammas = np.concatenate(([0.0], self.values(44, -8.0, 14.0)))
        got = achievable_rate(gammas, 1.5e9)
        assert got.tolist() == [achievable_rate(g, 1.5e9) for g in gammas.tolist()]

    def test_user_block_elementwise_bitwise(self):
        # A (users, points) block: per-user responsivity and total gain q as
        # (users, 1) columns, transmit powers as one row.
        powers = self.values(46, -6.0, 0.0)
        responsivity = np.array([[0.4], [0.55], [0.3]])
        q = np.array([[1.7e-4], [0.0], [3.1e-3]])
        received = q * powers
        sigma2 = noise_variance(TABLE, received, responsivity)
        gamma = sinr(q, powers, responsivity, sigma2)
        rate = achievable_rate(gamma, 1.5e9)
        assert rate.shape == (3, len(powers))
        for u, (r, g) in enumerate(zip(responsivity[:, 0].tolist(), q[:, 0].tolist())):
            for j, p in enumerate(powers.tolist()):
                s2 = noise_variance(TABLE, received[u, j], r)
                assert sigma2[u, j] == s2
                assert gamma[u, j] == sinr(gain_of(g), p, r, s2)
                assert rate[u, j] == achievable_rate(gamma[u, j], 1.5e9)

    def test_scalar_rate_is_a_python_float(self):
        assert type(achievable_rate(3.0, 1.5e9)) is float
        assert type(achievable_rate(np.float64(3.0), 1.5e9)) is float

    def test_sum_rate_adds_users_left_to_right(self):
        rng = np.random.default_rng(45)
        rates = rng.uniform(0.0, 1e10, (7, 500))
        got = sum_rate(rates)
        assert got.tolist() == [sum_rate(column) for column in rates.T.tolist()]

    def test_one_negative_element_raises_scalar_message(self):
        powers = np.array([1e-6, 2e-6, -3e-7, -1.0])
        with pytest.raises(ValueError) as scalar:
            noise_variance(TABLE, -3e-7, 0.4)
        with pytest.raises(ValueError) as array:
            noise_variance(TABLE, powers, 0.4)
        assert str(array.value) == str(scalar.value)

        with pytest.raises(ValueError) as scalar:
            sinr(gain_of(1e-4), 0.01, 0.4, 0.0)
        with pytest.raises(ValueError) as array:
            sinr(gain_of(1e-4), np.full(3, 0.01), 0.4, np.array([1e-13, 0.0, 1e-13]))
        assert str(array.value) == str(scalar.value)

        with pytest.raises(ValueError) as scalar:
            achievable_rate(-0.1, 1.5e9)
        with pytest.raises(ValueError) as array:
            achievable_rate(np.array([1.0, -0.1, -2.0]), 1.5e9)
        assert str(array.value) == str(scalar.value) == "gamma must be nonnegative, got -0.1"

        with pytest.raises(ValueError) as scalar:
            sum_rate([1e9, -1.0])
        with pytest.raises(ValueError) as array:
            sum_rate([np.array([1e9, 2e9]), np.array([3e9, -1.0])])
        assert str(array.value) == str(scalar.value)


class TestLinkResult:
    def test_nonnegative_enforced(self):
        LinkResult(1e-6, 1e-13, 2.0, 1e9)
        with pytest.raises(ValueError, match="sinr"):
            LinkResult(1e-6, 1e-13, -2.0, 1e9)
