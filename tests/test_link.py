import math
import random

import numpy as np
import pytest

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
        assert sinr(0.0, 0.01, 0.4, 1e-13) == 0.0

    def test_unity_when_signal_equals_noise_std(self):
        sigma2 = 4e-14
        q = math.sqrt(sigma2) / (0.4 * 0.01)
        assert sinr(q, 0.01, 0.4, sigma2) == pytest.approx(1.0, rel=1e-12)

    def test_hand_derived_chain_value(self):
        # q = 1.4528220319e-4, P = 10 mW, R = 0.4, sigma2 = 9.5057212042e-14
        # gives gamma = 3.5527098865
        gamma = sinr(1.4528220319e-4, 0.01, 0.4, 9.5057212042e-14)
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
            base = sinr(q, p, 0.4, sigma2)
            scaled = sinr(q * c, p / c, 0.4, sigma2)
            assert abs(scaled - base) / base < 1e-12

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError, match="nonpositive noise variance"):
            sinr(1e-4, 0.01, 0.4, 0.0)


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
        gamma = sinr(1e-4, 0.01, 0.4, sigma2)
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
        got = sinr(1.7e-4, powers, 0.4, sigma2)
        expected = [
            sinr(1.7e-4, p, 0.4, s2) for p, s2 in zip(powers.tolist(), sigma2.tolist())
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
                assert gamma[u, j] == sinr(g, p, r, s2)
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
            sinr(1e-4, 0.01, 0.4, 0.0)
        with pytest.raises(ValueError) as array:
            sinr(1e-4, np.full(3, 0.01), 0.4, np.array([1e-13, 0.0, 1e-13]))
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


class TestOutBuffers:
    """Given `out=`, each rate-path formula runs in place in the buffers it is
    given, returns the one holding its result and is bitwise the call without
    `out`; each guard raises first, with the same message, writing nothing."""

    # Per-beam powers: zeros, subnormals and huge values, then the usual range.
    POWERS = [0.0, 5e-324, 2.2e-310, 1e-300, 1e150, 3.3e120, *np.logspace(-9, 1, 11).tolist()]
    Q = np.array([[1.7e-4], [0.0], [3.1e-3], [1e-307], [0.62]])

    @staticmethod
    def buffers(count, shape):
        """`count` C-contiguous views of the leading elements of NaN-filled
        flat buffers, larger than `shape`, as `_rate_table` hands them out."""
        size = math.prod(shape)
        return [np.full(size + 5, np.nan)[:size].reshape(shape) for _ in range(count)]

    def chunk(self, width):
        powers = np.resize(np.array(self.POWERS), width)
        return powers, self.Q * powers

    @staticmethod
    def assert_same_bits(got, expected):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", [1, 2, 17, 513])
    def test_each_formula_returns_its_buffer_bitwise(self, width):
        powers, received = self.chunk(width)
        sigma2 = noise_variance(TABLE, received, 0.4)
        gamma = sinr(self.Q, powers, 0.4, sigma2)
        rate = achievable_rate(gamma, 1.5e9)

        variance, scratch, out = self.buffers(3, received.shape)
        got = noise_variance(TABLE, received, 0.4, out=(variance, scratch))
        assert np.shares_memory(got, variance)
        self.assert_same_bits(got, sigma2)
        # The scratch buffer holding the received power, as a sweep passes it.
        scratch[...] = received
        got = noise_variance(TABLE, scratch, 0.4, out=(variance, scratch))
        assert np.shares_memory(got, variance)
        self.assert_same_bits(got, sigma2)
        got = sinr(self.Q, powers, 0.4, sigma2, out=out)
        assert np.shares_memory(got, out)
        self.assert_same_bits(got, gamma)
        (fresh,) = self.buffers(1, received.shape)
        got = achievable_rate(gamma, 1.5e9, out=fresh)
        assert np.shares_memory(got, fresh)
        self.assert_same_bits(got, rate)
        # In place over gamma itself, as a sweep passes it.
        got = achievable_rate(out, 1.5e9, out=out)
        assert np.shares_memory(got, out)
        self.assert_same_bits(got, rate)
        assert rate[1].tolist() == [0.0] * width  # q = 0: dark, zero rate

    def test_rows_equal_the_float_path(self):
        powers, received = self.chunk(17)
        variance, scratch, out = self.buffers(3, received.shape)
        sigma2 = noise_variance(TABLE, received, 0.4, out=(variance, scratch))
        rate = achievable_rate(sinr(self.Q, powers, 0.4, sigma2, out=out), 1.5e9, out=out)
        for u, q in enumerate(self.Q[:, 0].tolist()):
            for j, p in enumerate(powers.tolist()):
                s2 = noise_variance(TABLE, q * p, 0.4)
                assert sigma2[u, j] == s2
                assert rate[u, j] == achievable_rate(sinr(q, p, 0.4, s2), 1.5e9)

    def test_guards_raise_the_same_message_and_write_nothing(self):
        negative = np.array([[1e-6, -3e-7, 0.0]])
        zero = np.array([[1e-13, 0.0, 1e-13]])
        calls = [
            lambda out: noise_variance(TABLE, negative, 0.4, **out),
            lambda out: noise_variance(TABLE, np.abs(negative), -np.ones((1, 3)), **out),
            lambda out: sinr(1e-4, np.full(3, 0.01), 0.4, zero, **out),
            lambda out: achievable_rate(np.array([[1.0, -0.1, -2.0]]), 1.5e9, **out),
            lambda out: achievable_rate(np.ones((1, 3)), 0.0, **out),
        ]
        for i, call in enumerate(calls):
            with pytest.raises(ValueError) as without:
                call({})
            buffers = self.buffers(2, (1, 3))
            with pytest.raises(ValueError) as given:
                call({"out": tuple(buffers) if i < 2 else buffers[0]})
            assert str(given.value) == str(without.value)
            assert all(np.isnan(buffer).all() for buffer in buffers)


# One user's outcome, every field in range.
RESULT = {
    "h_los": 1e-4,
    "h_nlos": 2e-4,
    "q": 1e-4 + 2e-4,
    "serving_branch_los": 0,
    "serving_branch_nlos": 1,
    "received_optical_power": 3e-6,
    "noise_variance": 1e-13,
    "sinr": 2.0,
    "rate": 1e9,
}


class TestLinkResult:
    def test_nonnegative_enforced(self):
        LinkResult(**RESULT)
        with pytest.raises(ValueError, match="sinr"):
            LinkResult(**{**RESULT, "sinr": -2.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        ["h_los", "h_nlos", "q", "received_optical_power", "noise_variance", "sinr", "rate"],
    )
    def test_nonfinite_field_rejected_naming_it(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            LinkResult(**{**RESULT, field: value})


class TestSumRateBlock:
    """A (users, points) ndarray is checked once and reduced over its rows;
    lists of floats or arrays run the loop over users, the reference here."""

    def block(self, seed, users, points):
        # Rates over twelve decades, so that adding in another order changes bits.
        return 10.0 ** np.random.default_rng(seed).uniform(0.0, 12.0, (users, points))

    @pytest.mark.parametrize(
        "layout",
        [
            lambda b: b,
            np.asfortranarray,
            lambda b: b[::2, 1::3],
        ],
        ids=["c-order", "fortran-order", "strided-slice"],
    )
    def test_block_equals_the_row_loop_bitwise(self, layout):
        rates = layout(self.block(47, 64, 1201))
        got = sum_rate(rates)
        want = sum_rate(list(rates))
        assert got.dtype == np.float64 and got.shape == (rates.shape[1],)
        assert got.tobytes() == want.tobytes()

    def test_300_users_equal_the_row_loop_bitwise(self):
        rates = self.block(48, 300, 257)
        assert sum_rate(rates).tobytes() == sum_rate(list(rates)).tobytes()

    def test_no_users_sum_to_zeros(self):
        got = sum_rate(np.zeros((0, 5)))
        assert got.dtype == np.float64
        assert got.tobytes() == np.zeros(5).tobytes()

    def test_negative_named_as_the_list_of_arrays_names_it(self):
        rates = np.array([[1e9, 2e9, 3e9], [4e9, -5.0, -1.0], [-7.0, 1e9, 1e9]])
        for block in (rates, np.asfortranarray(rates)):
            with pytest.raises(ValueError) as listed:
                sum_rate(list(block))
            with pytest.raises(ValueError) as blocked:
                sum_rate(block)
            assert str(blocked.value) == str(listed.value) == "rates must be nonnegative, got -5.0"


def _sum_rate_of(x):
    """`sum_rate` of a float as a one-rate list, else of the array itself."""
    return sum_rate([x] if isinstance(x, float) else x)


# Each guard: the call, the elementwise test that raises, and its message
# ("{}" is the first failing value, row-major).
GUARDS = {
    "received_optical_power": (
        lambda x: noise_variance(TABLE, x, 0.4), np.less,
        "received_optical_power must be nonnegative",
    ),
    "responsivity": (
        lambda x: noise_variance(TABLE, 1e-6, x), np.less, "responsivity must be nonnegative"
    ),
    "sigma2": (lambda x: sinr(1e-4, 0.01, 0.4, x), np.less_equal, "nonpositive noise variance"),
    "gamma": (lambda x: achievable_rate(x, 1.5e9), np.less, "gamma must be nonnegative, got {}"),
    "rates": (_sum_rate_of, np.less, "rates must be nonnegative, got {}"),
}
GUARD_VALUES = [
    [0.5, -2.0, 0.25, -3.0],
    [0.5, math.nan, 0.25, 1.0],
    [math.nan, 0.5, -2.0, 1.0],
    [0.0, 0.5, -0.0, 1.0],
    [0.5, 1.0, 2.0, math.inf],
    [-math.inf, 1.0, math.nan, 2.0],
    [-5e-324, 1.0, 2.0, 3.0],
]


def _guard_inputs():
    for i, values in enumerate(GUARD_VALUES):
        array = np.array(values)
        yield from ((f"{i}-float{j}", value) for j, value in enumerate(values))
        yield f"{i}-1d", array
        yield f"{i}-2d", array.reshape(2, 2)
    yield "empty-1d", np.zeros(0)
    yield "empty-2d", np.zeros((2, 0))
    yield "int-1d", np.array([3, 2, 0, 1])
    yield "int-2d", np.array([[3, -2], [0, 1]])


class TestGuardsAsReductions:
    """Each sign guard is one reduction; it raises exactly where the
    elementwise test finds an element, with the same message. NaN is never
    below a bound, so NaN alone passes, as it does elementwise."""

    @pytest.mark.parametrize("guard", GUARDS)
    @pytest.mark.parametrize("x", [x for _, x in _guard_inputs()],
                             ids=[name for name, _ in _guard_inputs()])
    def test_raises_where_the_elementwise_test_does(self, guard, x):
        call, test, message = GUARDS[guard]
        failing = np.asarray(x)[test(x, 0.0)]
        if not failing.size:
            call(x)
            return
        with pytest.raises(ValueError) as err:
            call(x)
        assert str(err.value) == message.format(float(failing.flat[0]))
