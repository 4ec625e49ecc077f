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
        sweep_var: Sequence[float],
        variant: Sequence[str],
        user_rates_bps: np.ndarray,
        sum_rate_bps: Sequence[float],
        user_counts: Sequence[int] | None = None,
    ) -> ResultTable:
        """Table of rows given as columns and a (rows, users) rate block, each
        row `user_counts[i]` rates long (all of its width when None). Raises
        ValueError naming the first rate that is not finite and nonnegative."""
        rates = np.asarray(user_rates_bps, dtype=np.float64)
        counts = [rates.shape[1]] * len(variant) if user_counts is None else user_counts
        if not len(sweep_var) == len(variant) == len(rates) == len(sum_rate_bps) == len(counts):
            raise ValueError("result columns and rate block differ in row count")
        codes = {name: i for i, name in enumerate(sorted(set(variant)))}
        order = np.lexsort((sweep_var, [codes[name] for name in variant]))
        columns = [np.asarray(c, dtype=np.float64) for c in (sweep_var, sum_rate_bps, rates)]
        arrays = [c[order] for c in (*columns, np.asarray(counts, dtype=np.intp))]
        for array in arrays:
            array.flags.writeable = False
        _check_rates(arrays[2], "user rate at (row {}, user {})")
        _check_rates(arrays[1][:, None], "sum_rate_bps at row {}")
        return cls(arrays[0], tuple(variant[i] for i in order.tolist()), *arrays[1:])

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
    not finite and nonnegative."""
    bad = ~((block >= 0.0) & (block < math.inf))
    if bad.any():
        index = tuple(np.argwhere(bad)[0].tolist())
        raise ValueError(
            f"{where.format(*index)} must be finite and nonnegative, got {float(block[index])}"
        )


def format_rate(value: float) -> str:
    return f"{value:.9e}"


def write_csv(table: ResultTable, path: str | Path) -> None:
    """Emit the table as UTF-8 CSV with LF endings, byte-deterministic."""
    lines = [CSV_HEADER]
    for x, label, total, rates in table._records():
        user_rates = ";".join(format_rate(r) for r in rates)
        lines.append(f"{x:.10g},{label},{format_rate(total)},{user_rates}")
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


def render_line_plot(
    table: ResultTable,
    title: str,
    x_label: str,
    y_label: str,
    path: str | Path,
) -> None:
    """Write a standalone SVG line chart of sum rate per variant."""
    if not len(table):
        raise ValueError("cannot plot an empty table")
    xs = table.sweep_var.tolist()
    ys = table.sum_rate_bps.tolist()
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    inner_w = _PLOT_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    inner_h = _PLOT_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = _MARGIN_LEFT + (x - x_lo) / x_span * inner_w
        py = _MARGIN_TOP + inner_h - (y - y_lo) / y_span * inner_h
        return px, py

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_WIDTH:.0f}" '
        f'height="{_PLOT_HEIGHT:.0f}" viewBox="0 0 {_PLOT_WIDTH:.0f} {_PLOT_HEIGHT:.0f}">'
    )
    parts.append('<rect width="100%" height="100%" fill="white"/>')
    parts.append(
        f'<text x="{_PLOT_WIDTH / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>'
    )

    axis_color = "#333333"
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + inner_h
    parts.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0 + inner_w:.2f}" y2="{y0:.2f}" '
        f'stroke="{axis_color}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{_MARGIN_TOP:.2f}" '
        f'stroke="{axis_color}" stroke-width="1"/>'
    )

    n_ticks = 6
    for i in range(n_ticks):
        frac = i / (n_ticks - 1)
        x_val = x_lo + frac * x_span
        px, _ = to_px(x_val, y_lo)
        parts.append(
            f'<line x1="{px:.2f}" y1="{y0:.2f}" x2="{px:.2f}" y2="{y0 + 5:.2f}" '
            f'stroke="{axis_color}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x_val:.4g}</text>'
        )
        y_val = y_lo + frac * y_span
        _, py = to_px(x_lo, y_val)
        parts.append(
            f'<line x1="{x0 - 5:.2f}" y1="{py:.2f}" x2="{x0:.2f}" y2="{py:.2f}" '
            f'stroke="{axis_color}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y_val:.3g}</text>'
        )

    parts.append(
        f'<text x="{x0 + inner_w / 2:.2f}" y="{_PLOT_HEIGHT - 14:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="20" y="{_MARGIN_TOP + inner_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + inner_h / 2:.2f})">{y_label}</text>'
    )

    for idx, variant in enumerate(table.variants()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = table.series(variant)
        coords = " ".join(
            "{:.2f},{:.2f}".format(*to_px(x, y)) for x, y in points
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in points:
            px, py = to_px(x, y)
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}"/>')
        legend_y = _MARGIN_TOP + 16 + 20 * idx
        legend_x = _MARGIN_LEFT + inner_w + 14
        parts.append(
            f'<line x1="{legend_x:.2f}" y1="{legend_y:.2f}" x2="{legend_x + 24:.2f}" '
            f'y2="{legend_y:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 30:.2f}" y="{legend_y + 4:.2f}" '
            f'font-family="sans-serif" font-size="12">{variant}</text>'
        )

    parts.append("</svg>")
    Path(path).write_bytes(("\n".join(parts) + "\n").encode("utf-8"))
