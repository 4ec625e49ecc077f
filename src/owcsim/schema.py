"""The config schema: one row per key, the one statement of its range.

SCHEMA maps each dotted key path to its default and the check that parses it
(type, finite, range). `config` reads documents against it, and every type
that holds a key's value checks it against the same row with `check_fields`,
so a value built in code fails as a document's would. It imports only numpy.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Callable

import numpy as np

# Each check is a plain class: a dataclass would generate and exec its methods at import.
Check = Callable[[str, object], object]


class Number:
    """A finite int or float in [lo, hi], or [lo, hi) when hi_open."""

    def __init__(self, lo: float, hi: float, hi_open: bool = False) -> None:
        self.lo, self.hi, self.hi_open = lo, hi, hi_open

    def __call__(self, path: str, value: object) -> float:
        # Both bounds are finite, so NaN and the infinities fail the range test.
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not self.lo <= value <= self.hi
            or (self.hi_open and value == self.hi)
        ):
            raise ValueError(f"{path} must be a {self}, got {value!r}")
        return float(value)

    def __str__(self) -> str:
        return f"number in [{self.lo:g}, {self.hi:g}{')' if self.hi_open else ']'}"


class Integer:
    """An int (not a bool) in [lo, hi], or >= lo when hi is None."""

    def __init__(self, lo: int, hi: int | None = None) -> None:
        self.lo, self.hi = lo, hi

    def __call__(self, path: str, value: object) -> int:
        if (
            isinstance(value, bool)
            or not isinstance(value, int)
            or value < self.lo
            or (self.hi is not None and value > self.hi)
        ):
            raise ValueError(f"{path} must be an {self}, got {value!r}")
        return value

    def __str__(self) -> str:
        return f"integer >= {self.lo}" if self.hi is None else f"integer in [{self.lo}, {self.hi}]"


class OneOf:
    def __init__(self, options: tuple[object, ...]) -> None:
        self.options = options

    def __call__(self, path: str, value: object) -> object:
        # Compare types too: 1 == True, yet 1 is no JSON boolean.
        if not any(type(value) is type(o) and value == o for o in self.options):
            raise ValueError(f"{path} must be {self}, got {value!r}")
        return value

    def __str__(self) -> str:
        return "one of " + ", ".join(json.dumps(option) for option in self.options)


class ListOf:
    """A JSON list of at least min_len items, or of exactly `length` items
    when it is set, each parsed by `item`."""

    def __init__(self, item: Check, min_len: int = 1, length: int | None = None) -> None:
        self.item, self.min_len, self.length = item, min_len, length

    def __call__(self, path: str, value: object) -> tuple:
        if (
            not isinstance(value, (list, tuple))
            or len(value) < self.min_len
            or (self.length is not None and len(value) != self.length)
        ):
            raise ValueError(f"{path} must be a {self}")
        try:
            return tuple(self.item(path, entry) for entry in value)
        except ValueError:
            pass
        # An entry's path is built only once some entry fails: the rerun names
        # each entry, outside the handler, so its error chains nothing.
        return tuple(self.item(f"{path}[{i}]", entry) for i, entry in enumerate(value))

    def __str__(self) -> str:
        if self.length is not None:
            return f"{self.length}-item list of ({self.item})"
        return f"{'nonempty list' if self.min_len else 'list'} of ({self.item})"


_SEQUENCES, _REALS = frozenset((list, tuple)), frozenset((int, float))  # exact types


class Points(ListOf):
    """`ListOf(POINT)`, tried first as one array: plain lists or tuples of three
    ints or floats (no bools), found by two type scans that run in C, and one
    range test. Any other input, or a failed test, reruns the entry-by-entry
    walk, which names what is wrong."""

    def __init__(self) -> None:
        super().__init__(POINT)

    def __call__(self, path: str, value: object) -> tuple:
        try:
            if (
                isinstance(value, (list, tuple))
                and value
                and set(map(type, value)) <= _SEQUENCES
                and set(map(type, chain.from_iterable(value))) <= _REALS
            ):
                xyz = np.array(value, dtype=np.float64)
                inside = LENGTH.lo <= xyz.min() <= xyz.max() <= LENGTH.hi  # NaN is not
                if xyz.shape == (len(value), 3) and inside:
                    return tuple(map(tuple, xyz.tolist()))
        except (TypeError, ValueError, OverflowError):  # ragged, or an int past the float range
            pass
        return super().__call__(path, value)


class Nullable:
    def __init__(self, check: Check) -> None:
        self.check = check

    def __call__(self, path: str, value: object) -> object:
        return None if value is None else self.check(path, value)

    def __str__(self) -> str:
        return f"{self.check} or null"


FLAG = OneOf((True, False))
LENGTH = Number(0.0, 1000.0)  # m: a coordinate inside the room
POINT = ListOf(LENGTH, length=3)

# One row per key: dotted path -> (default, check). The ranges keep every
# derived quantity finite, e.g. 10**(dB / 10), and the thermal floor positive.
SCHEMA: dict[str, tuple[object, Check]] = {
    "seed": (7, Integer(0)),
    "room.dims": ([5.0, 5.0, 3.0], ListOf(Number(0.1, 1000.0), length=3)),
    "room.receiver_z": (0.0, LENGTH),
    "adt.center": (None, Nullable(POINT)),
    "adt.side_offset_m": (0.3, Number(0.0, 10.0)),
    "adt.beam_waist_m": (5.0e-6, Number(1e-6, 2e-5)),
    "adt.wavelength_m": (1.55e-6, Number(3.5e-7, 2e-6)),
    "irs.enabled": (True, FLAG),
    "irs.wall": ("y_max", OneOf(("x_min", "x_max", "y_min", "y_max"))),
    "irs.grid_m": (5, Integer(1, 100)),
    "irs.element_width_m": (0.15, Number(1e-3, 10.0)),
    "irs.element_height_m": (0.10, Number(1e-3, 10.0)),
    "irs.reflectivity": (0.95, Number(0.0, 1.0)),
    "irs.center_height_m": (1.5, LENGTH),
    "irs.center_along_m": (None, Nullable(LENGTH)),
    "users.k": (4, Integer(1, 1000)),
    "users.positions": (None, Nullable(Points())),
    "users.blocked": ([], ListOf(Integer(0), min_len=0)),
    "users.pd_area_m2": (2.0e-5, Number(1e-8, 1e-4)),
    "users.responsivity_a_per_w": (0.4, Number(0.01, 1.5)),
    "users.branch_azimuths_deg": (
        [0.0, 90.0, 180.0, 270.0],
        ListOf(Number(0.0, 360.0, hi_open=True)),
    ),
    "users.branch_elevation_deg": (60.0, Number(0.0, 90.0)),
    "users.fov_deg": (25.0, Number(0.1, 90.0)),
    "noise.rin_db_per_hz": (-155.0, Number(-200.0, -100.0)),
    "noise.noise_current_density": (4.47e-12, Number(1e-14, 1e-9)),
    "noise.tia_noise_figure_db": (5.0, Number(0.0, 30.0)),
    "noise.bandwidth_b": (1.5e9, Number(1e3, 1e12)),
    "power.p_tot_w": (0.01, Number(1e-6, 100.0)),
    "power.eye_safety_cap_w": (1.0, Number(1e-6, 100.0)),
    "power.max_mirrors_per_user": (None, Nullable(Integer(1))),
    "sweep.snr_points_db": (
        [float(db) for db in range(60, 121, 5)],
        ListOf(Number(-50.0, 200.0)),
    ),
    "sweep.k_values": (list(range(1, 9)), ListOf(Integer(1, 1000))),
    "output.svg": (True, FLAG),
}


# Each key's default as its check returns it, checked once here: tuples, not
# the lists above, so no run can change one.
CHECKED_DEFAULTS = {path: check(path, default) for path, (default, check) in SCHEMA.items()}


def check_fields(*fields: tuple[str, object]) -> None:
    """Check each (key, value) pair against the key's SCHEMA row, in order; the
    first value outside its row raises that row's ValueError, naming the key.
    A key's checked default object, which a parse passes on, is not reread."""
    for key, value in fields:
        if value is not CHECKED_DEFAULTS[key]:
            SCHEMA[key][1](key, value)
