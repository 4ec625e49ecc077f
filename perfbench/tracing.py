"""Span tracer that times owcsim layers from outside the package.

The tracer replaces a public function at the name its caller looks up (for
example `owcsim.network.irs_gain`, which `irs_gain_matrix` resolves from the
network module's globals) with a wrapper that records one span per call:
name, start, end, parent span and op id. Spans stay in flat arrays in memory
and are written out once, at the end of the run. Calls that are too frequent
to be worth a span are counted instead.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

# (span name, module whose attribute is replaced, attribute). Each row is the
# lookup a caller actually performs: the benchmark itself resolves
# `owcsim.parse_config` and `owcsim.sweep_snr`; the CLI resolves its imports
# from `owcsim.cli`; network code resolves helpers from `owcsim.network`.
SPANNED = (
    ("cli.run_command", "owcsim.cli", "run_command"),
    ("config.parse_config", "owcsim", "parse_config"),
    ("config.parse_config", "owcsim.cli", "parse_config"),
    ("network.sweep_snr", "owcsim", "sweep_snr"),
    ("network.sweep_snr", "owcsim.cli", "sweep_snr"),
    ("network.sweep_users", "owcsim.cli", "sweep_users"),
    ("output.write_csv", "owcsim.cli", "write_csv"),
    ("output.render_line_plot", "owcsim.cli", "render_line_plot"),
    ("network.serving_branch_index", "owcsim.network", "serving_branch_index"),
    ("network.irs_gain_matrix", "owcsim.network", "irs_gain_matrix"),
    ("network.assign_mirrors", "owcsim.network", "assign_mirrors"),
    ("network.evaluate_user", "owcsim.network", "evaluate_user"),
    ("geometry.steer_mirror", "owcsim.network", "steer_mirror"),
    ("channel.irs_gain", "owcsim.network", "irs_gain"),
    ("channel.los_gain", "owcsim.network", "los_gain"),
    ("link.noise_variance", "owcsim.network", "noise_variance"),
    ("link.achievable_rate", "owcsim.network", "achievable_rate"),
)

# Counted, not spanned: the beam closed forms run several times per pair.
COUNTED = (
    ("link.sinr", "owcsim.network", "sinr"),
    ("beam.power_through_rectangle", "owcsim.channel", "power_through_rectangle"),
    ("beam.power_through_circle", "owcsim.channel", "power_through_circle"),
)


def _irs_gain_extra(counts: dict, args: tuple, kwargs: dict, result) -> None:
    if result[0] > 0.0:
        counts["channel.irs_gain.nonzero"] += 1


def _gain_matrix_extra(counts: dict, args: tuple, kwargs: dict, result) -> None:
    counts["network.irs_gain_matrix.pairs"] += sum(len(row) for row in result)


def _assign_extra(counts: dict, args: tuple, kwargs: dict, result) -> None:
    gains = args[1] if len(args) > 1 else kwargs["gains"]
    counts["network.assign_mirrors.entries"] += sum(g > 0.0 for row in gains for g in row)
    counts["network.assign_mirrors.assigned"] += sum(len(m) for m in result.per_user)


def _bytes_extra(counts: dict, args: tuple, kwargs: dict, result) -> None:
    path = kwargs.get("path", args[-1])
    counts["output.bytes"] += os.path.getsize(path)


EXTRAS_COUNTERS = (
    "channel.irs_gain.nonzero",
    "network.irs_gain_matrix.pairs",
    "network.assign_mirrors.entries",
    "network.assign_mirrors.assigned",
    "output.bytes",
)

EXTRAS: dict[str, Callable] = {
    "channel.irs_gain": _irs_gain_extra,
    "network.irs_gain_matrix": _gain_matrix_extra,
    "network.assign_mirrors": _assign_extra,
    "output.write_csv": _bytes_extra,
    "output.render_line_plot": _bytes_extra,
}


class Tracer:
    """In-memory span log plus per-name counters for one benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.op = array("i")
        self.counts = dict.fromkeys(
            EXTRAS_COUNTERS + tuple(name + ".calls" for name, _, _ in COUNTED), 0
        )
        self.op_id = -1
        self.op_scale: dict[int, float] = {}  # host-speed scale per op id
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def spanned(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        extra = EXTRAS.get(name)
        counts = self.counts
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if extra is not None:
                extra(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        key = name + ".calls"

        def count(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        count.__wrapped__ = fn
        return count

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Replace every traced name while the block runs, then restore it."""
        saved = []
        try:
            for rows, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
                for name, module_name, attr in rows:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, make(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count.

        Durations are scaled by their op's entry in `op_scale` (1 where it
        has none). Self time is a span's duration minus the durations of its
        direct children; spans nest without overlap because the run is one
        thread.
        """
        spans = self.span_arrays()
        scale = np.ones(self.op_id + 1)
        for op, value in self.op_scale.items():
            scale[op] = value
        duration = (spans["end"] - spans["start"]) * scale[spans["op"]]
        parent = spans["parent"]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        own = duration - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = spans["name"] == nid
            out[name] = {
                "s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
                "calls": int(mask.sum()),
            }
        return out

    def save(self, path: os.PathLike) -> None:
        np.savez(path, names=np.array(self.names), **self.span_arrays())
