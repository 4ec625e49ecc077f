"""Result tables, deterministic CSV emission, and standalone SVG line plots.

Plots are rendered directly from the same table object that the CSV writer
serialises, so every plot is a view of emitted data, never a recomputation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

CSV_HEADER = "sweep_var,variant,sum_rate_bps,user_rates_bps"

_PALETTE = ("#0072b2", "#d55e00", "#009e73", "#cc79a7", "#56b4e9", "#e69f00")

_PLOT_WIDTH = 720.0
_PLOT_HEIGHT = 480.0
_MARGIN_LEFT = 90.0
_MARGIN_RIGHT = 150.0
_MARGIN_TOP = 42.0
_MARGIN_BOTTOM = 58.0


@dataclass(frozen=True, slots=True)  # a dense sweep's `rows` holds thousands of these
class ResultRow:
    """One sweep point for one variant, with the per-user rate breakdown."""

    sweep_var: float
    variant: str
    sum_rate_bps: float
    user_rates_bps: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Sweep results held as arrays, rows sorted by (variant, sweep_var).

    `user_rates_bps` is a read-only float64 (rows, users) block; row i holds
    `user_counts[i]` rates and zeros after them, as a user sweep's rows differ
    in length. Build one with `from_block` or `from_rows`, which sort the rows
    stably and check every rate once. `==` compares every array bitwise.
    """

    sweep_var: np.ndarray  # (rows,)
    variant: tuple[str, ...]  # (rows,)
    sum_rate_bps: np.ndarray  # (rows,)
    user_rates_bps: np.ndarray  # (rows, users)
    user_counts: np.ndarray  # (rows,)

    @classmethod
    def from_block(
        cls,
        sweep_var: Sequence[float] | np.ndarray,
        variant: Sequence[str],
        user_rates_bps: np.ndarray,
        sum_rate_bps: Sequence[float] | np.ndarray,
        user_counts: Sequence[int] | np.ndarray | None = None,
    ) -> ResultTable:
        """Table of rows given as columns and a (rows, users) rate block, each
        row `user_counts[i]` rates long (all of its width when None).

        The columns may be sequences or arrays. One stable `np.lexsort` over
        the float64 sweep column and an integer code per variant name orders
        the rows, gathered in that order into new arrays, none the caller's.
        Raises ValueError for a rate block that is not 2-D, and naming the
        first rate that is not finite and nonnegative.
        """
        rates = np.asarray(user_rates_bps, dtype=np.float64)
        if rates.ndim != 2:
            raise ValueError(
                f"user_rates_bps must be a (rows, users) block, got shape {rates.shape}"
            )
        sweep, sums = (np.asarray(c, dtype=np.float64) for c in (sweep_var, sum_rate_bps))
        counts = (
            np.full(len(rates), rates.shape[1], dtype=np.intp) if user_counts is None
            else np.asarray(user_counts, dtype=np.intp)
        )
        if not len(sweep) == len(variant) == len(rates) == len(sums) == len(counts):
            raise ValueError("result columns and rate block differ in row count")
        codes = {name: i for i, name in enumerate(sorted(set(variant)))}
        code = np.fromiter(map(codes.__getitem__, variant), np.intp, len(variant))
        order = np.lexsort((sweep, code))
        labels = tuple(map(variant.__getitem__, order.tolist()))
        return cls._adopt(sweep[order], labels, sums[order], rates[order], counts[order])

    @classmethod
    def _adopt(cls, sweep_var, variant, sum_rate_bps, user_rates_bps, user_counts) -> ResultTable:
        """The table of columns already in (variant, sweep_var) order, frozen in
        place and checked as `from_block` ends: the caller keeps no reference."""
        for array in (sweep_var, sum_rate_bps, user_rates_bps, user_counts):
            array.flags.writeable = False
        _check_rates(user_rates_bps, "user rate at (row {}, user {})")
        _check_rates(sum_rate_bps[:, None], "sum_rate_bps at row {}")
        return cls(sweep_var, variant, sum_rate_bps, user_rates_bps, user_counts)

    @classmethod
    def from_rows(cls, rows: Iterable[ResultRow]) -> ResultTable:
        rows = list(rows)
        counts = [len(row.user_rates_bps) for row in rows]
        block = np.zeros((len(rows), max(counts, default=0)))
        for i, row in enumerate(rows):
            block[i, : counts[i]] = row.user_rates_bps
        columns = ([row.sweep_var for row in rows], [row.variant for row in rows])
        return cls.from_block(*columns, block, [row.sum_rate_bps for row in rows], counts)

    @cached_property
    def rows(self) -> tuple[ResultRow, ...]:
        """The rows as `ResultRow` values, built on first read."""
        return tuple(ResultRow(*r) for r in self._records())

    def _records(self) -> Iterator[tuple[float, str, float, tuple[float, ...]]]:
        """(sweep_var, variant, sum_rate_bps, user rates) of each row."""
        columns = (self.sweep_var.tolist(), self.sum_rate_bps.tolist(), self.user_counts.tolist())
        for label, x, total, n, rates in zip(self.variant, *columns, self.user_rates_bps):
            yield x, label, total, tuple(rates[:n].tolist())

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.sweep_var, self.sum_rate_bps, self.user_rates_bps, self.user_counts

    def __len__(self) -> int:
        return len(self.variant)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return self.variant == other.variant and all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(self._arrays(), other._arrays())
        )

    def variants(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.variant))

    def series(self, variant: str) -> tuple[tuple[float, float], ...]:
        points = zip(self.variant, self.sweep_var.tolist(), self.sum_rate_bps.tolist())
        return tuple((x, y) for label, x, y in points if label == variant)


def _check_rates(block: np.ndarray, where: str) -> None:
    """Raise ValueError naming the first element of the 2-D `block` that is
    not finite and nonnegative. One min and one max decide (NaN carries through
    both); only a failing block builds the mask that finds the element."""
    if not block.size or (block.min() >= 0.0 and block.max() < math.inf):
        return
    index = tuple(np.argwhere(~((block >= 0.0) & (block < math.inf)))[0].tolist())
    raise ValueError(
        f"{where.format(*index)} must be finite and nonnegative, got {float(block[index])}"
    )


def write_csv(table: ResultTable, path: str | Path) -> None:
    """Emit the table as UTF-8 CSV with LF endings, byte-deterministic."""
    lines = [CSV_HEADER]
    for x, label, total, rates in table._records():
        user_rates = ";".join(f"{r:.9e}" for r in rates)
        lines.append(f"{x:.10g},{label},{total:.9e},{user_rates}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_result_csv(path: str | Path) -> ResultTable:
    """Parse a CSV produced by write_csv back into a ResultTable."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    rows = []
    for line in lines[1:]:
        sweep_var, variant, sum_rate, rates = line.split(",")
        user_rates = tuple(float(r) for r in rates.split(";")) if rates else ()
        rows.append(ResultRow(float(sweep_var), variant, float(sum_rate), user_rates))
    return ResultTable.from_rows(rows)


def _line(x1: float, y1: float, x2: float, y2: float, color="#333333", width=1) -> str:
    return (
        f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
        f'stroke="{color}" stroke-width="{width}"/>'
    )


def _text(
    x: float | str, y: float | str, size: int, body: str, anchor: str = "middle", tail: str = ""
) -> str:
    """A sans-serif text element: a str coordinate as given, a float to 2
    decimals; no text-anchor when `anchor` is empty; `tail` adds attributes."""
    x, y = (v if isinstance(v, str) else f"{v:.2f}" for v in (x, y))
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{tail}>{body}</text>'
    )


def render_line_plot(
    table: ResultTable,
    title: str,
    x_label: str,
    y_label: str,
    path: str | Path,
) -> None:
    """Write a standalone SVG line chart of sum rate per variant, its y axis from 0."""
    if not len(table):
        raise ValueError("cannot plot an empty table")
    xs = table.sweep_var.tolist()
    x_lo = min(xs)
    x_span = (max(xs) - x_lo) or 1.0
    y_span = max(table.sum_rate_bps.tolist()) or 1.0
    inner_w = _PLOT_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    inner_h = _PLOT_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + inner_h  # the axes' corner

    def px(x: float) -> float:
        return x0 + (x - x_lo) / x_span * inner_w

    def py(y: float) -> float:
        return y0 - y / y_span * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_WIDTH:.0f}" '
        f'height="{_PLOT_HEIGHT:.0f}" viewBox="0 0 {_PLOT_WIDTH:.0f} {_PLOT_HEIGHT:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        _text(_PLOT_WIDTH / 2, "24", 16, title),
        _line(x0, y0, x0 + inner_w, y0),
        _line(x0, y0, x0, _MARGIN_TOP),
    ]
    for i in range(6):  # six ticks per axis, at fifths of its span
        x_val, y_val = x_lo + i / 5 * x_span, i / 5 * y_span
        parts += (
            _line(px(x_val), y0, px(x_val), y0 + 5),
            _text(px(x_val), y0 + 20, 11, f"{x_val:.4g}"),
            _line(x0 - 5, py(y_val), x0, py(y_val)),
            _text(x0 - 8, py(y_val) + 4, 11, f"{y_val:.3g}", "end"),
        )
    mid_y = _MARGIN_TOP + inner_h / 2
    parts += (
        _text(x0 + inner_w / 2, _PLOT_HEIGHT - 14, 13, x_label),
        _text("20", mid_y, 13, y_label, tail=f' transform="rotate(-90 20 {mid_y:.2f})"'),
    )
    legend_x = x0 + inner_w + 14
    for idx, variant in enumerate(table.variants()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = [(px(x), py(y)) for x, y in table.series(variant)]
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts += (f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>' for x, y in points)
        legend_y = _MARGIN_TOP + 16 + 20 * idx
        parts += (
            _line(legend_x, legend_y, legend_x + 24, legend_y, color, 2),
            _text(legend_x + 30, legend_y + 4, 12, variant, anchor=""),
        )
    parts.append("</svg>")
    Path(path).write_bytes(("\n".join(parts) + "\n").encode("utf-8"))
