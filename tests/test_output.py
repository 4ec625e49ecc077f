import hashlib

import numpy as np
import pytest

from owcsim.cli import run_command
from owcsim.output import (
    CSV_HEADER,
    ResultRow,
    ResultTable,
    read_result_csv,
    render_line_plot,
    write_csv,
)


def sample_table() -> ResultTable:
    rows = [
        ResultRow(10.0, "none", 1.5e9, (1.0e9, 0.5e9)),
        ResultRow(0.0, "none", 1.0e9, (0.75e9, 0.25e9)),
        ResultRow(0.0, "5x5", 2.0e9, (1.5e9, 0.5e9)),
        ResultRow(10.0, "5x5", 3.0e9, (2.0e9, 1.0e9)),
    ]
    return ResultTable.from_rows(rows)


class TestResultTable:
    def test_rows_sorted_by_variant_then_sweep_var(self):
        table = sample_table()
        keys = [(r.variant, r.sweep_var) for r in table.rows]
        assert keys == sorted(keys)

    def test_rates_must_be_finite_nonnegative(self):
        # The table checks its rate block once when it is built; a row alone
        # checks nothing.
        with pytest.raises(ValueError, match="sum_rate_bps at row 0"):
            ResultTable.from_rows([ResultRow(0.0, "none", -1.0, ())])
        with pytest.raises(ValueError, match="sum_rate_bps at row 0"):
            ResultTable.from_rows([ResultRow(0.0, "none", float("nan"), ())])
        with pytest.raises(ValueError, match=r"user rate at \(row 0, user 0\)"):
            ResultTable.from_rows([ResultRow(0.0, "none", 1.0, (float("inf"),))])
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="must be finite and nonnegative"):
                ResultTable.from_block([0.0], ["none"], np.array([[1.0, bad]]), [1.0])

    def test_columns_must_agree_in_row_count(self):
        with pytest.raises(ValueError, match="row count"):
            ResultTable.from_block([0.0, 1.0], ["none"], np.ones((2, 1)), [1.0, 1.0])
        with pytest.raises(ValueError, match="row count"):
            ResultTable.from_block([0.0], ["none"], np.ones((1, 2)), [2.0], [2, 2])

    def test_error_names_first_bad_row_and_user(self):
        # Rows are checked in table order, (variant, sweep_var): the input's
        # third row becomes row 1, and its user 2 comes before row 2's user 0.
        block = np.array([[1.0, 1.0, 1.0], [-2.0, 1.0, 1.0], [1.0, 1.0, float("nan")]])
        with pytest.raises(ValueError) as err:
            ResultTable.from_block([5.0, 9.0, 7.0], ["a", "a", "a"], block, [3.0, 1.0, 2.0])
        assert str(err.value) == (
            "user rate at (row 1, user 2) must be finite and nonnegative, got nan"
        )

    def test_rows_are_a_cached_view_of_the_block(self):
        table = sample_table()
        assert "rows" not in vars(table)
        assert table.rows is table.rows
        assert table.rows[0] == ResultRow(0.0, "5x5", 2.0e9, (1.5e9, 0.5e9))
        assert table.user_rates_bps.shape == (4, 2)
        assert not table.user_rates_bps.flags.writeable

    def test_ragged_rows_keep_their_lengths(self):
        rows = [ResultRow(2.0, "none", 3.0, (1.0, 2.0)), ResultRow(1.0, "none", 1.0, (1.0,))]
        table = ResultTable.from_rows(rows)
        assert table.user_counts.tolist() == [1, 2]
        assert table.user_rates_bps.tolist() == [[1.0, 0.0], [1.0, 2.0]]
        assert table.rows == tuple(reversed(rows))

    def test_order_is_stable_for_duplicate_points(self):
        block = np.array([[1.0], [2.0], [3.0], [4.0]])
        table = ResultTable.from_block(
            [7.0, 5.0, 7.0, 5.0], ["b", "b", "a", "b"], block, [1, 2, 3, 4]
        )
        assert table.variant == ("a", "b", "b", "b")
        assert table.sweep_var.tolist() == [7.0, 5.0, 5.0, 7.0]
        assert table.sum_rate_bps.tolist() == [3.0, 2.0, 4.0, 1.0]

    def test_array_columns_equal_list_columns(self):
        # Interleaved variants with repeated sweep values: the stable order
        # keeps each (variant, sweep_var) tie in input order.
        sweep = [7.0, 5.0, 7.0, 5.0, 7.0, 5.0, 5.0]
        labels = ["b", "a", "a", "b", "b", "a", "b"]
        block = np.arange(14.0).reshape(7, 2)
        sums = [float(i) for i in range(7)]
        counts = [2, 1, 2, 2, 1, 2, 2]
        listed = ResultTable.from_block(sweep, labels, block, sums, counts)
        arrays = ResultTable.from_block(
            np.array(sweep), tuple(labels), block, np.array(sums), np.array(counts)
        )
        assert arrays == listed
        assert listed.variant == ("a", "a", "a", "b", "b", "b", "b")
        assert listed.sweep_var.tolist() == [5.0, 5.0, 7.0, 5.0, 5.0, 7.0, 7.0]
        assert listed.sum_rate_bps.tolist() == [1.0, 5.0, 2.0, 3.0, 6.0, 0.0, 4.0]
        assert listed.user_counts.dtype == np.intp
        one_variant = ResultTable.from_block(np.array(sweep), ["a"] * 7, block, np.array(sums))
        assert one_variant.sum_rate_bps.tolist() == [1.0, 3.0, 5.0, 6.0, 0.0, 2.0, 4.0]
        assert one_variant.user_counts.tolist() == [2] * 7

    @pytest.mark.parametrize(
        "sweep", [[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]], ids=["sorted", "unsorted"]
    )
    def test_from_block_never_aliases_the_callers_arrays(self, sweep):
        # Rows already in order still gather into new arrays: the caller's
        # stay writable, and writing them leaves the table as it was.
        columns = {
            "sweep_var": np.array(sweep),
            "user_rates_bps": np.arange(6.0).reshape(3, 2),
            "sum_rate_bps": np.array([1.0, 5.0, 9.0]),
            "user_counts": np.array([2, 2, 2], dtype=np.intp),
        }
        table = ResultTable.from_block(variant=["a"] * 3, **columns)
        before = ResultTable.from_block(
            variant=["a"] * 3, **{name: array.copy() for name, array in columns.items()}
        )
        for name, array in columns.items():
            assert not np.shares_memory(getattr(table, name), array), name
            assert array.flags.writeable
            array[...] = 0
        assert table == before

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (0, 3), (3, 0), (0, 0)])
    @pytest.mark.parametrize(
        "bad", [None, -1.0, -0.0, float("nan"), float("inf"), -float("inf"), -5e-324]
    )
    def test_rate_check_names_what_the_elementwise_test_finds(self, shape, bad):
        # One min and one max decide whether the block passes; the message
        # names the first element, row-major, that the elementwise test fails.
        rng = np.random.default_rng(len(shape) + shape[0] * 7 + shape[1])
        block = rng.uniform(0.0, 1e9, shape)
        if bad is not None and block.size:
            block.flat[rng.integers(block.size)] = bad
            block.flat[-1] = bad
        failing = np.argwhere(~((block >= 0.0) & (block < float("inf"))))
        rows = shape[0]

        def build():
            return ResultTable.from_block([0.0] * rows, ["a"] * rows, block, [0.0] * rows)

        if not len(failing):
            assert build().user_rates_bps.tolist() == block.tolist()
            return
        row, user = failing[0].tolist()
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == (
            f"user rate at (row {row}, user {user}) must be finite and nonnegative, "
            f"got {float(block[row, user])}"
        )

    @pytest.mark.parametrize("shape", [(3,), (), (1, 3, 1)])
    def test_rate_block_must_be_2d(self, shape):
        with pytest.raises(ValueError) as err:
            ResultTable.from_block([0.0], ["none"], np.ones(shape), [1.0])
        assert str(err.value) == f"user_rates_bps must be a (rows, users) block, got shape {shape}"

    def test_equality_is_bitwise(self):
        assert sample_table() == sample_table()
        rows = list(sample_table().rows)
        zero = ResultTable.from_rows(rows[:-1] + [ResultRow(10.0, "none", 1.5e9, (1.0e9, 0.0))])
        signed = ResultTable.from_rows(rows[:-1] + [ResultRow(10.0, "none", 1.5e9, (1.0e9, -0.0))])
        assert zero.rows == signed.rows  # 0.0 == -0.0 as floats
        assert zero != signed
        assert sample_table() != ResultTable.from_rows(rows[:-1])

    def test_series_extraction(self):
        table = sample_table()
        assert table.series("5x5") == ((0.0, 2.0e9), (10.0, 3.0e9))
        assert table.variants() == ("5x5", "none")


class TestWriteCsv:
    def test_header_only_for_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(ResultTable.from_rows([]), path)
        assert path.read_bytes() == (CSV_HEADER + "\n").encode()

    def test_single_row_layout(self, tmp_path):
        path = tmp_path / "one.csv"
        write_csv(ResultTable.from_rows([ResultRow(5.0, "none", 1.25e9, (1.25e9,))]), path)
        data = path.read_bytes()
        assert data.endswith(b"\n")
        assert b"\r" not in data
        lines = data.decode().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "5,none,1.250000000e+09,1.250000000e+09"

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        write_csv(
            ResultTable.from_rows([ResultRow(1.0, "x", 1234567891.2345, (987654321.123,))]),
            path,
        )
        line = path.read_text().strip().split("\n")[1]
        assert "1.234567891e+09" in line
        assert "9.876543211e+08" in line

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(sample_table(), a)
        write_csv(sample_table(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        table = sample_table()
        write_csv(table, path)
        assert read_result_csv(path) == table

    @pytest.mark.parametrize(
        "text",
        [
            CSV_HEADER + "\n",
            CSV_HEADER + "\n1,x,1.234567891e+09,1.234567891e+09\n",
            CSV_HEADER + "\n1,none,3.000000000e+00,1.000000000e+00;2.000000000e+00\n"
            "2,none,1.000000000e+00,\n"
            "3,none,6.000000000e+00,1.000000000e+00;2.000000000e+00;3.000000000e+00\n",
        ],
        ids=["empty", "one-row", "ragged"],
    )
    def test_read_then_write_is_byte_identical(self, tmp_path, text):
        source, copy = tmp_path / "source.csv", tmp_path / "copy.csv"
        source.write_bytes(text.encode())
        write_csv(read_result_csv(source), copy)
        assert copy.read_bytes() == source.read_bytes()

    @pytest.mark.parametrize(
        "command, filename",
        [("simulate", "simulate.csv"), ("sweep-snr", "fig2.csv"), ("sweep-users", "fig3.csv")],
    )
    def test_cli_csv_read_then_write_is_byte_identical(self, tmp_path, command, filename):
        assert run_command(command, out_dir=str(tmp_path)) == 0
        source, copy = tmp_path / filename, tmp_path / "copy.csv"
        table = read_result_csv(source)
        write_csv(table, copy)
        assert copy.read_bytes() == source.read_bytes()
        assert read_result_csv(copy) == table


# Tables the golden figures never draw, as (sweep_var, variant, sum rate) rows
# whose one user carries the sum, each with the sha256 of its SVG.
PINNED_SVGS = {
    "palette_wraps": (
        [(float(x), f"v{i}", 1e8 * (i + 1) * (x + 1)) for i in range(7) for x in range(3)],
        "cb2a2527f602346c742310159a4510729b611a3703293157bbd32da899f87346",
    ),
    "one_row": (
        [(3.0, "only", 2.5e9)],
        "79fd5cf39b3c6d214298b233343e4c4e594a27081f19b57125a8fa2b624b026c",
    ),
    "zero_rates": (
        [(x, v, 0.0) for v in ("none", "5x5") for x in (60.0, 70.0, 80.0)],
        "127f7090a24cc580e85c9859406b6a6d7fd5c95846d46e860e9c47b3ce0c6cd4",
    ),
    "negative_fractional": (
        [
            (-12.5, "a", 1.25e9), (-0.75, "a", 2.5e8), (3.125, "a", 7.5e8),
            (-12.5, "b", 3.3e8), (-0.75, "b", 1.7e9), (3.125, "b", 0.0),
        ],
        "065671cfb6f43dfcbcce273f19c0fe95f5ae181e5e40a93cdb1a83c8b7af8848",
    ),
    "one_variant": (
        [(float(k), "10x10", 4.2e8 * k) for k in range(1, 9)],
        "9a5e73c809d5be27c049af2dbf5ca1833cecb5b6ba3697b99ddb2a346875c9ef",
    ),
}


class TestRenderLinePlot:
    @pytest.mark.parametrize("name", list(PINNED_SVGS))
    def test_pinned_bytes(self, tmp_path, name):
        # A palette that wraps, zero x and y spans, negative and fractional
        # sweep values, and one variant: each SVG byte for byte as pinned.
        rows, digest = PINNED_SVGS[name]
        table = ResultTable.from_rows([ResultRow(x, v, s, (s,)) for x, v, s in rows])
        render_line_plot(table, "Sum rate", "x label", "y label", tmp_path / "p.svg")
        assert hashlib.sha256((tmp_path / "p.svg").read_bytes()).hexdigest() == digest

    def test_svg_structure(self, tmp_path):
        path = tmp_path / "plot.svg"
        render_line_plot(sample_table(), "title", "x", "y", path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2  # one per variant
        assert "none" in text and "5x5" in text

    def test_plot_is_a_view_of_the_emitted_csv(self, tmp_path):
        # rendering from the written-and-reparsed table must reproduce the
        # plot byte for byte: the plot never recomputes anything
        table = sample_table()
        csv_path = tmp_path / "data.csv"
        write_csv(table, csv_path)
        direct = tmp_path / "direct.svg"
        reparsed = tmp_path / "reparsed.svg"
        render_line_plot(table, "t", "x", "y", direct)
        render_line_plot(read_result_csv(csv_path), "t", "x", "y", reparsed)
        assert direct.read_bytes() == reparsed.read_bytes()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_line_plot(ResultTable.from_rows([]), "t", "x", "y", tmp_path / "e.svg")

    def test_single_point_series(self, tmp_path):
        table = ResultTable.from_rows([ResultRow(1.0, "only", 1e9, (1e9,))])
        render_line_plot(table, "t", "x", "y", tmp_path / "p.svg")
