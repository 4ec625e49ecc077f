"""Scenario types, mirror assignment, per-user evaluation, and sweeps.

Everything here takes a built Scenario; reading a config document into one is
the job of `config`. `AdtSpec`, `IrsPanel` and `Scenario` hold each field a
config key sets to that key's `schema.SCHEMA` row, and add only the checks no
row states. A Scenario is immutable after validation, and is the one room
check: transmitter apertures and users inside the room, and the mirror wall
centred on its wall's plane and within that wall. It holds the users'
positions, blocked flags and one receiver, and the one photodiode
responsivity, of every user and of the transmit-SNR axis. Every user is
served by one transmitter branch, which devotes one aimed beam to the user's
receiver and one to each mirror assigned to that user. Each beam carries the
transmit power `p_tot`, held under the per-beam eye-safety cap, so a user
with total gain q = h_los + h_nlos receives q·p_tot: the power that gives the
signal (R q p_tot)^2 also gives the shot and RIN noise. Evaluations are pure
functions of the scenario, so sweep points can be computed in any order.

Only the transmit power changes between sweep points, so the gains and the
assignment are computed once per variant, and the rate path (received power,
noise, SNR and rate) runs over chunks of users, each over all of its case's
points and about `_RATE_ELEMENTS` elements. The table's rate block is
user-major, and each case's rows are one run of it, in the row order found
once, so every chunk writes its rates straight into their final place; an
evaluation at the scenario's own power passes one point. `sweep_snr` keeps
the powers of the last SNR grid it priced, so a grid swept again over new
users is priced once.

A Scenario computes two gain tables once, each holding gains and serving
receiver branches, from the (users, 3) positions that validation holds:
`direct_table` (one `channel.aimed_los_gain_table` call, on the pairs that
validation `aim`ed) and `mirror_table` (one `channel.irs_gain_table` call
over every user, each from its serving transmitter branch, and the wall's
`MirrorColumns`: an (M, M) grid whose centres along the wall are one row,
whose heights are one column, and whose plane coordinate, sizes and
reflectivity are single values, so the kernel's first stage works on rows
and columns). Evaluation reads them, runs no scalar gain code and builds
no `UserSpec`: the scalar `los_gain`, `irs_gain` and `serving_branch_index`
that the kernels are tested against live in `owcsim.reference`, which no
evaluation module imports.

An `Assignment` is an owner vector over the wall, the user holding each mirror
or -1. With no per-user cap each mirror goes to its best user, the lowest index
on a tie; only a finite cap runs the greedy loop. Every user's h_nlos is one
`np.bincount` over the wall, added in mirror order, and only `evaluate_scenario`
and `evaluate_user` build `LinkResult` records.

Seeded placement follows numpy's PCG64 stream, `default_rng(seed).random((k, 2))`,
computed in pure Python, so no run imports `numpy.random`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, wraps
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import (
    AdrBranch,
    MirrorColumns,
    aim,
    aimed_los_gain_table,
    coordinates,
    irs_gain_table,
)
from .geometry import Orientation, Vec3
from .link import (
    LinkResult,
    NoiseParams,
    achievable_rate,
    noise_variance,
    sinr,
    sum_rate,
    thermal_noise_variance,
)
from .output import ResultTable
from .schema import SCHEMA, check_fields

if TYPE_CHECKING:
    from .reference import MirrorElement

# Each wall: its inward normal, the axis its width runs along (0 = x, 1 = y),
# and where its plane sits on the other horizontal axis, as a fraction of
# room.dims (0 at the *_min wall, 1 at the *_max wall).
_WALLS = {
    "x_min": (Vec3(1.0, 0.0, 0.0), 1, 0.0),
    "x_max": (Vec3(-1.0, 0.0, 0.0), 1, 1.0),
    "y_min": (Vec3(0.0, 1.0, 0.0), 0, 0.0),
    "y_max": (Vec3(0.0, -1.0, 0.0), 0, 1.0),
}


def one_entry_memo(build):
    """`build` with its last result kept, keyed on `repr` of its arguments.

    A scene's parts repeat from one config document to the next while its
    users change, so one entry is enough. The `repr` key keeps apart values
    that compare equal but are written differently, such as -0.0 and 0.0 or
    1 and 1.0, so a result equals a fresh build's field for field and in
    `repr`. A build that raises keeps nothing. `cache_clear()` drops the entry.
    """
    last: list = [(None, None)]

    @wraps(build)
    def memoized(*args):
        key = repr(args)
        seen, value = last[0]
        if key != seen:
            value = build(*args)
            last[0] = key, value
        return value

    memoized.cache_clear = lambda: last.__setitem__(0, (None, None))
    return memoized


@dataclass(frozen=True)
class AdtSpec:
    """Ceiling transmitter: a central branch plus four side branches.

    A branch is an aperture position: every beam is aimed from it at its
    target, a user's receiver or a mirror centre, so no branch has a
    pointing of its own.
    """

    center_pos: Vec3
    beam_waist: float  # m
    beam_wavelength: float  # m
    side_offset: float = 0.3  # m, horizontal displacement of side branches

    def __post_init__(self) -> None:
        check_fields(
            ("adt.beam_waist_m", self.beam_waist),
            ("adt.wavelength_m", self.beam_wavelength),
            ("adt.side_offset_m", self.side_offset),
        )

    def branch_positions(self) -> tuple[Vec3, ...]:
        """Branch apertures: the first sits at the centre, the four side
        branches `side_offset` away at azimuths 0, 90, 180 and 270 deg."""
        return self._positions

    @cached_property
    def _positions(self) -> tuple[Vec3, ...]:
        return (self.center_pos,) + tuple(
            self.center_pos + Vec3(math.cos(az), math.sin(az), 0.0).scaled(self.side_offset)
            for az in map(math.radians, (0.0, 90.0, 180.0, 270.0))
        )


@dataclass(frozen=True)
class IrsPanel:
    """M x M contiguous mirror tiling on one wall, normals facing the room,
    stored as `columns`, an (M, M) grid, row-major by height then along the
    wall."""

    wall: str
    grid_m: int
    element_size: tuple[float, float]  # (width, height), m
    reflectivity: float
    panel_center: Vec3

    def __post_init__(self) -> None:
        width, height = self.element_size
        check_fields(
            ("irs.wall", self.wall),
            ("irs.grid_m", self.grid_m),
            ("irs.element_width_m", width),
            ("irs.element_height_m", height),
            ("irs.reflectivity", self.reflectivity),
        )

    @cached_property
    def columns(self) -> MirrorColumns:
        """The mirrors as read-only arrays, built on first read: the centres
        along the wall as a (1, M) row, their heights as an (M, 1) column, and
        the plane coordinate, width, height and reflectivity as 0-d values.
        Panels of one value share one `MirrorColumns`, the last one built."""
        return _panel_columns(
            self.wall, self.grid_m, self.element_size, self.reflectivity, self.panel_center
        )

    @cached_property
    def elements(self) -> tuple[MirrorElement, ...]:
        """The mirrors as `MirrorElement` values for the scalar reference, built on first read."""
        from .reference import MirrorElement

        c, inward = self.columns, _WALLS[self.wall][0]
        width, height = self.element_size
        centres = (np.broadcast_to(axis, c.shape).ravel().tolist() for axis in (c.cx, c.cy, c.cz))
        return tuple(
            MirrorElement(Vec3(x, y, z), inward, width, height, self.reflectivity)
            for x, y, z in zip(*centres)
        )

    @property
    def center_along(self) -> float:
        """The panel centre's coordinate along its wall's width."""
        return self.panel_center.as_tuple()[_WALLS[self.wall][1]]

    def label(self) -> str:
        return f"{self.grid_m}x{self.grid_m}"


@one_entry_memo
def _panel_columns(
    wall: str, grid_m: int, element_size: tuple[float, float], reflectivity: float,
    panel_center: Vec3,
) -> MirrorColumns:
    """`IrsPanel.columns` of a panel of these fields."""
    _, along, _ = _WALLS[wall]
    width, height = element_size
    values = [*panel_center.as_tuple(), width, height, reflectivity]
    fields = [np.array(value) for value in values]
    offsets = np.arange(grid_m) - (grid_m - 1) / 2.0
    fields[along] = (values[along] + offsets * width).reshape(1, -1)
    fields[2] = (values[2] + offsets * height).reshape(-1, 1)
    for field in fields:
        field.flags.writeable = False
    return MirrorColumns(*fields)


@dataclass(frozen=True)
class UserSpec:
    """One user: floor position, blockage flag, and the scenario's `receiver`."""

    position: Vec3
    blocked: bool
    branches: tuple[AdrBranch, ...]


@dataclass(frozen=True)
class Scenario:
    """Validated room, transmitter, mirror wall, users, and power budget.

    Users are `positions`, as the `users.positions` row returns them, and
    `blocked` flags, all carrying one `receiver`: branches of one elevation,
    field of view and photodiode area. Validation keeps the read-only (users,
    3) `_xyz` and `_aimed`, `channel.aim` of every (user, aperture) pair; they
    and the cached `users`, `direct_table`, `serving_branches` and
    `mirror_table` start empty on `replace`, outside `==`, `hash` and `repr`.
    """

    room_dims: tuple[float, float, float]
    receiver_z: float
    adt: AdtSpec
    irs: IrsPanel | None
    positions: tuple[tuple[float, float, float], ...]  # m, of each user
    blocked: tuple[bool, ...]  # of each user
    receiver: tuple[AdrBranch, ...]  # of every user
    responsivity: float  # A/W, of every photodiode of every user
    noise: NoiseParams
    p_tot: float  # W, carried by each aimed beam
    eye_safety_cap: float  # W, per-beam limit
    max_mirrors_per_user: int | None
    rng_seed: int

    def __post_init__(self) -> None:
        check_fields(
            ("seed", self.rng_seed),
            ("room.dims", self.room_dims),
            ("users.k", len(self.positions)),
            ("users.responsivity_a_per_w", self.responsivity),
            ("power.p_tot_w", self.p_tot),
            ("power.eye_safety_cap_w", self.eye_safety_cap),
            ("power.max_mirrors_per_user", self.max_mirrors_per_user),
        )
        if len(self.blocked) != len(self.positions):
            raise ValueError("users.blocked must hold one flag per entry of users.positions")
        if not 0.0 <= self.receiver_z <= self.room_dims[2]:
            raise ValueError(
                f"room.receiver_z must be inside the room height, got {self.receiver_z}"
            )
        # One mask over every transmitter aperture and every user. A user on an
        # aperture, or a subnormal distance from one, has no beam direction; the
        # first such user and its lowest such branch are named.
        apertures = len(self.adt.branch_positions())
        points = [*map(Vec3.as_tuple, self.adt.branch_positions()), *self.positions]
        xyz = np.array(points, dtype=np.float64)
        xyz.flags.writeable = False
        outside = ~((xyz >= 0.0) & (xyz <= self.room_dims)).all(axis=1)
        if outside.any():
            k = int(outside.argmax())
            i = k - apertures  # the user index, negative for an aperture
            name = (
                f"users.positions[{i}]" if i >= 0
                else "adt.center" if k == 0
                else f"adt branch {k} (adt.center, adt.side_offset_m)"
            )
            raise ValueError(f"{name}: position out of bounds of room.dims {tuple(points[k])}")
        vars(self).update(_xyz=xyz[apertures:], _aimed=aim(xyz[:apertures], xyz[apertures:]))
        if self._aimed[2].any():
            i, b = np.argwhere(self._aimed[2])[0].tolist()
            raise ValueError(
                f"users.positions[{i}] is at the aperture of transmitter branch {b} "
                "(adt.center, adt.side_offset_m), or too near it for a beam to be aimed at it"
            )
        # The one receiver, of the one kind a config writes.
        receiver = self.receiver
        kinds = {(b.orientation.elevation_deg, b.fov_half_angle_deg, b.pd_area) for b in receiver}
        if len(kinds) != 1:
            raise ValueError(
                "receiver holds branches a config cannot write: users.branch_azimuths_deg, "
                "users.branch_elevation_deg, users.fov_deg and users.pd_area_m2 set one receiver "
                "of one or more branches for every user"
            )
        check_fields(
            ("users.pd_area_m2", receiver[0].pd_area),
            ("users.fov_deg", receiver[0].fov_half_angle_deg),
        )
        panel = self.irs
        if panel is not None:
            # On its wall's plane, then within the wall; a NaN centre fails each test.
            _, along, side = _WALLS[panel.wall]
            center = panel.panel_center.as_tuple()
            if center[1 - along] != side * self.room_dims[1 - along]:
                raise ValueError(
                    f"irs panel centre {center} is off the plane of its wall: irs.wall "
                    f"{panel.wall} with irs.center_along_m and irs.center_height_m must "
                    "place it on that wall of room.dims"
                )
            half_w, half_h = (panel.grid_m * size / 2.0 for size in panel.element_size)
            low, high = center[along] - half_w, center[along] + half_w
            if not (0.0 <= low and high <= self.room_dims[along]):
                raise ValueError(
                    "irs panel exceeds the wall extent along its width: irs.grid_m x "
                    "irs.element_width_m centred at irs.center_along_m must fit room.dims"
                )
            if not (0.0 <= center[2] - half_h and center[2] + half_h <= self.room_dims[2]):
                raise ValueError(
                    "irs panel exceeds the wall extent along its height: irs.grid_m x "
                    "irs.element_height_m centred at irs.center_height_m must fit room.dims"
                )
        if self.p_tot > self.eye_safety_cap:
            raise ValueError(
                "power.p_tot_w exceeds power.eye_safety_cap_w: every aimed beam carries p_tot_w"
            )

    @cached_property
    def users(self) -> tuple[UserSpec, ...]:
        """The users as `UserSpec`s for the scalar reference, built on first read."""
        flags = zip(self.positions, self.blocked)
        return tuple(UserSpec(Vec3(*xyz), blocked, self.receiver) for xyz, blocked in flags)

    @cached_property
    def direct_table(self) -> tuple[np.ndarray, np.ndarray]:
        """`los_gain_table` of every (user, transmitter branch), computed once.

        Read-only (users, branches) arrays of the direct gain and of the
        serving receiver branch, -1 where there is none.
        """
        table = aimed_los_gain_table(
            self._aimed, self.receiver, self.blocked, self.adt.beam_waist, self.adt.beam_wavelength
        )
        for array in table:
            array.flags.writeable = False
        return table

    @cached_property
    def serving_branches(self) -> tuple[int, ...]:
        """`serving_branch_index` of every user, read from `direct_table`; a
        user no branch sees takes `_fallback_branch`, for all users at once."""
        gain = self.direct_table[0]
        # Nearest the wall's centre, or the user: `aim` sums the squares in
        # `Vec3.distance_to`'s order, and argmin takes the lowest index on a tie.
        fallback = self._aimed[0].argmin(axis=1) if self.irs is None else _fallback_branch(self, 0)
        # argmax takes the first maximum: the lowest index wins a tie.
        return tuple(np.where(gain.max(axis=1) > 0.0, gain.argmax(axis=1), fallback).tolist())

    @cached_property
    def mirror_table(self) -> tuple[np.ndarray, np.ndarray]:
        """`irs_gain_table` of every user from its serving branch, computed once.

        Read-only (users, mirrors) arrays of the mirror-path gain and of the
        serving receiver branch, -1 where there is none.
        """
        shape = (len(self.positions), 0)
        table = (np.zeros(shape), np.full(shape, -1))
        if self.irs is not None:
            table = irs_gain_table(
                coordinates(self.adt.branch_positions())[list(self.serving_branches)],
                self.irs.columns,
                self._xyz,
                self.receiver,
                self.adt.beam_waist,
                self.adt.beam_wavelength,
            )
        for array in table:
            array.flags.writeable = False
        return table

    def _first_users(self, k: int) -> Scenario:
        """The first k users, k >= 1, built from this checked scenario's
        fields without checking them again, the per-user arrays sliced rather
        than recomputed.

        The first k of checked users pass every check the whole passes, and
        a user's aim, direct-path row, serving branch and mirror-path row
        depend on that user and the wall alone.
        """
        prefix = object.__new__(type(self))
        separation, directions, unaimable = self._aimed
        vars(prefix).update(
            {name: value for name, value in vars(self).items() if name != "users"},
            positions=self.positions[:k], blocked=self.blocked[:k], _xyz=self._xyz[:k],
            _aimed=(separation[:k], tuple(array[:k] for array in directions), unaimable[:k]),
            direct_table=tuple(array[:k] for array in self.direct_table),
            mirror_table=tuple(array[:k] for array in self.mirror_table),
            serving_branches=self.serving_branches[:k],
        )
        return prefix

@dataclass(frozen=True, eq=False)
class Assignment:
    """The user holding each mirror of the wall, -1 for none, out of `users`.

    `owner` is a read-only copy of the integer vector given, each entry in
    [-1, users), so no mirror can be held twice. `per_user` lists each user's
    mirrors, ascending, built on first read. `==` compares users and owners.
    """

    owner: np.ndarray
    users: int

    def __post_init__(self) -> None:
        given = np.asarray(self.owner)
        integral = given.dtype.kind in "iu" or given.size == 0
        if operator.index(self.users) < 0 or given.ndim != 1 or not integral:
            raise ValueError(f"owner must be an integer vector, users >= 0: {given}, {self.users}")
        owner = given.astype(np.intp)  # a copy, so no caller can write it
        outside = (owner < -1) | (owner >= self.users)
        if outside.any():
            mirror = int(outside.argmax())
            raise ValueError(
                f"owner[{mirror}] must be a user in [-1, {self.users}), got {owner[mirror]}"
            )
        owner.flags.writeable = False
        object.__setattr__(self, "owner", owner)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self.users == other.users and np.array_equal(self.owner, other.owner)

    @cached_property
    def per_user(self) -> tuple[tuple[int, ...], ...]:
        """Each user's mirrors, ascending: one stable argsort groups the mirrors
        by owner and the owners' counts split it."""
        order = np.argsort(self.owner, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.owner + 1, minlength=self.users + 1)).tolist()
        return tuple(tuple(order[start:end]) for start, end in zip(ends, ends[1:]))


def default_adr_branches(
    azimuths_deg: Sequence[float] = (0.0, 90.0, 180.0, 270.0),
    elevation_deg: float = 60.0,
    fov_deg: float = 25.0,
    pd_area: float = 2.0e-5,
) -> tuple[AdrBranch, ...]:
    return tuple(AdrBranch(Orientation(az, elevation_deg), fov_deg, pd_area) for az in azimuths_deg)


def build_irs_panel(
    room_dims: tuple[float, float, float],
    wall: str = "y_max",
    grid_m: int = 5,
    element_width: float = 0.15,
    element_height: float = 0.10,
    reflectivity: float = 0.95,
    center_height: float = 1.5,
    center_along: float | None = None,
) -> IrsPanel:
    """Tile an M x M mirror array on the chosen wall, centred as requested
    (mid-wall by default); `Scenario` checks that it fits the room."""
    check_fields(("irs.wall", wall))
    _, along, side = _WALLS[wall]
    center = [0.0, 0.0, center_height]
    center[along] = room_dims[along] / 2.0 if center_along is None else center_along
    center[1 - along] = side * room_dims[1 - along]
    return IrsPanel(wall, grid_m, (element_width, element_height), reflectivity, Vec3(*center))


def place_users_uniform(
    k: int,
    room_dims: tuple[float, float, float],
    seed: int,
    plane_z: float = 0.0,
) -> list[Vec3]:
    """Seeded i.i.d. uniform positions on the receiver plane: the rows of
    `np.random.default_rng(seed).random((k, 2))` scaled by the room, drawn by
    `_pcg64_uniforms`. `seed` is a nonnegative integer; there is no entropy draw.

    Draws are prefix-stable: the first k positions of a (seed, k + n) draw
    equal the (seed, k) draw, which keeps nested user sweeps consistent.
    """
    if k < 1:
        raise ValueError(f"user count must be >= 1, got {k}")
    draws = _pcg64_uniforms(seed, 2 * k)
    return [
        Vec3(u * room_dims[0], v * room_dims[1], plane_z) for u, v in zip(draws[::2], draws[1::2])
    ]


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _pcg64_uniforms(seed: int, n: int) -> list[float]:
    """The first n doubles of `np.random.default_rng(seed).random()`, bit for bit,
    without importing `numpy.random` (its import costs more than 1000 users' draws).

    `SeedSequence` hashes the seed's 32-bit words into a pool of four and
    expands the pool into PCG64's 128-bit state and increment. PCG64 steps a
    128-bit LCG and outputs XSL-RR, and each double is the top 53 bits of one
    64-bit output.
    """
    seed = operator.index(seed)  # None, floats and strings raise TypeError
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [mix(entry, hashmix(word)) for entry in pool]
    # Eight 32-bit outputs, read as four little-endian 64-bit words w0..w3:
    # the LCG is seeded with w0:w1 and its increment derives from w2:w3.
    hash_b, packed = 0x8B51F9DD, 0
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        packed |= (value ^ value >> 16) << (64 * (3 - i // 2) + 32 * (i % 2))
    inc = (packed & _M128) << 1 & _M128 | 1
    multiplier = 0x2360ED051FC65DA44385DF649FCCF645
    state = ((inc + (packed >> 128)) * multiplier + inc) & _M128
    draws = []
    for _ in range(n):
        state = (state * multiplier + inc) & _M128
        value, rot = (state >> 64 ^ state) & _M64, state >> 122
        draws.append((((value >> rot | value << (64 - rot)) & _M64) >> 11) * 2.0**-53)
    return draws


def with_irs_grid(scenario: Scenario, grid_m: int) -> Scenario:
    """Same scenario with the mirror wall rebuilt at a new grid size (the
    default wall when it has none). At the wall's own grid size this is the
    scenario itself, with its cached tables."""
    if scenario.irs is not None and scenario.irs.grid_m == grid_m:
        return scenario
    base = scenario.irs or build_irs_panel(scenario.room_dims)
    return replace(scenario, irs=replace(base, grid_m=grid_m))


def without_irs(scenario: Scenario) -> Scenario:
    """Same scenario without its mirror wall: the scenario itself when it has none."""
    return scenario if scenario.irs is None else replace(scenario, irs=None)


# ---------------------------------------------------------------------------
# Serving-branch choice, gain matrix, and assignment


def _fallback_branch(scenario: Scenario, user_index: int) -> int:
    """Branch for a user no branch reaches directly: the one nearest the
    mirror wall's centre, or the user when there is no wall."""
    irs, positions = scenario.irs, scenario.adt.branch_positions()
    target = irs.panel_center if irs is not None else Vec3(*scenario.positions[user_index])
    distances = [pos.distance_to(target) for pos in positions]
    return min(range(len(positions)), key=lambda b: (distances[b], b))


def irs_gain_matrix(scenario: Scenario) -> np.ndarray:
    """Reflected-path gain per (user, mirror), each mirror steered per pair:
    the read-only (users, mirrors) float64 gains of `Scenario.mirror_table`."""
    return scenario.mirror_table[0]


def assign_mirrors(
    scenario: Scenario,
    gains: Sequence[Sequence[float]] | np.ndarray,
    max_per_user: int | None = None,
) -> Assignment:
    """Greedy assignment: repeatedly grant the largest remaining gain.

    Mirrors stay disjoint across users and each user holds at most
    max_per_user mirrors (unlimited when None). Ties break toward the lowest
    (user index, mirror index). Zero-gain pairs are never assigned. Without
    a cap this gives each mirror to its best user, the lowest index on a
    tie: a column argmax, and only a finite cap runs the greedy loop. `gains`
    is a (users, mirrors) array of finite gains or a list of equal-length rows.
    """
    if len(gains) != len(scenario.positions):
        raise ValueError(
            f"dimension mismatch: gains has {len(gains)} rows for {len(scenario.positions)} users"
        )
    if not isinstance(gains, np.ndarray) and len({len(row) for row in gains}) > 1:
        raise ValueError("dimension mismatch: gains rows have unequal lengths")
    matrix = np.asarray(gains, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"dimension mismatch: gains must be 2-D, got shape {matrix.shape}")
    if max_per_user is not None and max_per_user < 1:
        raise ValueError(f"max_per_user must be >= 1 or None, got {max_per_user}")
    usable = (matrix >= 0.0) & (matrix < math.inf)
    if not usable.all():
        user_index, mirror_index = np.argwhere(~usable)[0]
        raise ValueError(
            f"gains must be finite and nonnegative, got "
            f"{float(matrix[user_index, mirror_index])} at ({user_index}, {mirror_index})"
        )

    if max_per_user is None:
        # argmax takes the first maximum: the lowest user index wins a tie.
        owner = matrix.argmax(axis=0)
        owner[matrix[owner, np.arange(matrix.shape[1])] == 0.0] = -1
    else:
        users, mirrors = np.nonzero(matrix > 0.0)
        order = np.lexsort((mirrors, users, -matrix[users, mirrors]))
        held, counts = [-1] * matrix.shape[1], [0] * len(matrix)
        for user_index, mirror_index in zip(users[order].tolist(), mirrors[order].tolist()):
            if held[mirror_index] < 0 and counts[user_index] < max_per_user:
                held[mirror_index] = user_index
                counts[user_index] += 1
        owner = np.array(held, dtype=np.intp)
    return Assignment(owner, len(matrix))


def scenario_assignment(scenario: Scenario) -> Assignment:
    return assign_mirrors(scenario, irs_gain_matrix(scenario), scenario.max_mirrors_per_user)


# ---------------------------------------------------------------------------
# Per-user evaluation


def _gains(scenario: Scenario, assignment: Assignment) -> tuple[np.ndarray, ...]:
    """Every user's h_los, h_nlos and q, and LoS and NLoS receiver branches
    (-1 for none), read from the Scenario's tables: direct at the serving
    transmitter branch, and each held mirror's, summed in mirror order. The
    mirror path's receiver branch is the best held mirror's, the lowest
    mirror index on a tie. Temporaries have a size fixed by the scene."""
    users = np.arange(len(scenario.positions))
    gain, receiver = scenario.direct_table
    branch = np.array(scenario.serving_branches)
    h_los, los_branch = gain[users, branch], receiver[users, branch]
    mirror_gain, mirror_receiver = scenario.mirror_table
    owner, mirrors = assignment.owner, mirror_gain.shape[1]
    if owner.shape != (mirrors,) or assignment.users != len(users):
        raise ValueError(f"the assignment must cover {mirrors} mirrors and {len(users)} users")
    h_nlos, nlos_branch = np.zeros(len(users)), np.full(len(users), -1)
    if mirrors:  # else there is no wall
        # An unheld mirror (owner -1) reads the last user's row into bin 0, which is dropped.
        column = np.arange(mirrors)
        held = mirror_gain[owner, column]
        h_nlos = np.bincount(owner + 1, held, len(users) + 1)[1:]
        # Each held gain in its owner's row, shifted down one as in the bincount,
        # and -1 elsewhere: argmax takes the first maximum, so the lowest
        # mirror index wins a tie.
        rows = np.full((len(users) + 1, mirrors), -1.0)
        rows[owner + 1, column] = held
        best = rows[1:].argmax(axis=1)
        # A user holding no mirror gets mirror 0, which that user does not hold.
        nlos_branch = np.where(owner[best] == users, mirror_receiver[users, best], -1)
    return h_los, h_nlos, h_los + h_nlos, los_branch, nlos_branch


def _link(
    scenario: Scenario, q: np.ndarray, p_tot: np.ndarray, sigma2=None, rate=None
) -> tuple[np.ndarray, ...]:
    """The rate path for a (users, 1) column of total gains `q`: the (users,
    points) received power q·p_tot, noise variance, SNR and rate at each
    per-beam power in `p_tot`, all users at once, into the buffers given,
    where `rate`'s holds the received power, then the SNR, then the rate."""
    received = np.multiply(q, p_tot, out=rate)
    sigma2 = noise_variance(scenario.noise, received, scenario.responsivity, out=(sigma2, rate))
    gamma = sinr(q, p_tot, scenario.responsivity, sigma2, out=rate)
    return received, sigma2, gamma, achievable_rate(gamma, scenario.noise.bandwidth_b, out=rate)


def _link_results(scenario: Scenario, assignment: Assignment) -> list[LinkResult]:
    gains = _gains(scenario, assignment)
    link = _link(scenario, gains[2][:, None], np.array([scenario.p_tot]))
    h_los, h_nlos, q = (values.tolist() for values in gains[:3])
    los, nlos = ([None if b < 0 else b for b in values.tolist()] for values in gains[3:])
    outcome = (values[:, 0].tolist() for values in link)
    return list(map(LinkResult, h_los, h_nlos, q, los, nlos, *outcome))


def evaluate_user(scenario: Scenario, assignment: Assignment, user_index: int) -> LinkResult:
    """Full link for one user: gains, received power q·p_tot, noise, SNR, and rate."""
    return _link_results(scenario, assignment)[user_index]


def evaluate_scenario(scenario: Scenario) -> list[LinkResult]:
    """Assignment plus per-user link results for the whole scenario."""
    return _link_results(scenario, scenario_assignment(scenario))


# (user, point) elements per chunk of `_rate_table`'s rate path, a block of
# users over all of a case's points: its variance buffer and its slice of the
# table then stay in cache, as `channel._BLOCK_PAIRS` keeps the mirror
# kernel's temporaries.
_RATE_ELEMENTS = 16384


def _rate_table(
    cases: Sequence[tuple[str, Scenario]],
    sweep_var: Sequence[float] | np.ndarray,
    p_tot: np.ndarray,
) -> ResultTable:
    """Rates of every (labelled scenario, transmit power) pair, as table rows
    with the given sweep values; cases sharing a label have one point each.
    `ResultTable.from_block`'s row order is found up front, so each case's
    rows are one run of the user-major (users, rows) block, its points in
    ascending sweep order, stable. Run by run, each scenario's gains and
    assignment are computed once; its rate path runs in chunks of
    `_RATE_ELEMENTS // points` users (at least one) written in place into the
    run, the variance in one flat buffer, and its sums are one `sum_rate`."""
    points, users = len(p_tot), [len(variant.positions) for _, variant in cases]
    names = sorted({label for label, _ in cases})
    code = np.repeat([names.index(label) for label, _ in cases], points)
    sweep = np.asarray(sweep_var, dtype=np.float64)
    order = np.lexsort((sweep, code))
    power = np.tile(p_tot, len(cases))[order]  # each row's per-beam power
    block, sums = np.empty((max(users), len(order))), np.empty(len(order))
    step = max(1, _RATE_ELEMENTS // points)  # users per chunk
    variance = np.empty(min(step, max(users)) * points)
    for start in range(0, len(order), points):  # one run of rows per case
        c, run = int(order[start]) // points, slice(start, start + points)
        variant = cases[c][1]
        q = _gains(variant, scenario_assignment(variant))[2][:, None]
        for u in range(0, users[c], step):
            n = min(step, users[c] - u)
            scratch = variance[: n * points].reshape(n, points)
            _link(variant, q[u : u + n], power[run], scratch, block[u : u + n, run])
        sums[run] = sum_rate(block[: users[c], run])
        block[users[c] :, run] = 0.0  # a case with fewer users pads its rows with zeros
    labels = []
    for name in names:  # one run of rows per variant name, as the order sorts them
        labels += [name] * (points * sum(label == name for label, _ in cases))
    counts = np.repeat(users, points)[order]
    return ResultTable._adopt(sweep[order], tuple(labels), sums, block.T, counts)


# ---------------------------------------------------------------------------
# Experiment sweeps


def transmit_snr_db(noise: NoiseParams, responsivity: float, p_tot: float) -> float:
    """Transmit SNR (R P)^2 over the thermal floor, in dB."""
    return 10.0 * math.log10((responsivity * p_tot) ** 2 / thermal_noise_variance(noise))


def power_for_transmit_snr(
    noise: NoiseParams, responsivity: float, snr_db: float | Sequence[float]
) -> float | np.ndarray:
    """Transmit power that realises a given transmit SNR in dB: a float for
    one SNR, a float64 array for a sequence of them. A point above about
    3,082 dB, whose power ratio overflows a float, raises ValueError naming
    it: `snr_db`, or `snr_points_db[i]` of a sequence."""
    scalar = np.ndim(snr_db) == 0
    ratios = []
    for i, db in enumerate([snr_db] if scalar else snr_db):
        try:
            # Python's ** per point: numpy's power differs from libm's in the last bit.
            ratios.append(10.0 ** (db / 10.0))
        except OverflowError:
            name = "snr_db" if scalar else f"snr_points_db[{i}]"
            raise ValueError(
                f"{name} must be at most about 3082 dB, whose power ratio "
                f"10^(dB/10) fits a float, got {db}"
            ) from None
    power = np.sqrt(np.array(ratios) * thermal_noise_variance(noise)) / responsivity
    return float(power[0]) if scalar else power


def _variant_scenario(scenario: Scenario, label: str) -> Scenario:
    """The scenario with a variant's wall, none or M x M; a wall that does not fit names it."""
    if label == "none":
        return without_irs(scenario)
    head, _, tail = label.partition("x")
    if not (head.isdigit() and tail == head):
        raise ValueError(f"unknown variant label: {label!r}")
    try:
        return with_irs_grid(scenario, int(head))
    except ValueError as exc:
        raise ValueError(f"variant {label}: {exc}") from exc


@lru_cache(maxsize=1)
def _grid_powers(column: bytes, noise: NoiseParams, responsivity: float) -> np.ndarray:
    """The read-only per-beam powers of an SNR grid, given as the bytes of its
    float64 column; only the last grid is kept, as a sweep over many user
    drops repeats one grid. A point whose power ratio overflows raises in
    here, so an error is never kept."""
    power = power_for_transmit_snr(noise, responsivity, np.frombuffer(column).tolist())
    power.flags.writeable = False
    return power


def sweep_snr(
    scenario: Scenario,
    snr_points_db: Sequence[float],
    variants: Sequence[str] = ("none", "5x5", "10x10"),
) -> ResultTable:
    """Sum rate against transmit SNR for each mirror-wall variant.

    All variants see identical users; per-variant gains and assignments are
    power-independent and computed once. A variant label given twice raises
    ValueError naming it and both indices. A grid swept again is priced once:
    the per-beam powers of the last grid are kept, keyed by the exact bits
    of the points (so -0.0 and 0.0 stay apart), the noise and the
    responsivity. Every call still checks its own points: the first point, in
    the order given, that is not finite is rejected, then the first whose
    power ratio overflows a float, then the first whose per-beam power
    exceeds this scenario's eye-safety cap, all before any rate is computed.
    Then each variant's rate path runs per chunk of users over all the
    points (`_rate_table`), giving every user's rate at every point.
    """
    column = np.fromiter(map(float, snr_points_db), np.float64)
    if not column.size or not variants:
        raise ValueError("snr_points_db and variants must be nonempty")
    for j, label in enumerate(variants):
        if label in variants[:j]:
            raise ValueError(f"variants[{j}] repeats variants[{variants.index(label)}]: {label!r}")
    finite = np.isfinite(column)
    if not finite.all():
        first = int(finite.argmin())
        raise ValueError(f"snr_points_db[{first}] must be finite, got {float(column[first])}")
    p_tot = _grid_powers(column.tobytes(), scenario.noise, scenario.responsivity)
    over = p_tot > scenario.eye_safety_cap
    if over.any():
        first = int(over.argmax())
        raise ValueError(
            f"per-beam power {p_tot[first]:.6g} W at {float(column[first]):g} dB exceeds "
            f"power.eye_safety_cap_w {scenario.eye_safety_cap:.6g} W"
        )
    cases = [(label, _variant_scenario(scenario, label)) for label in variants]
    return _rate_table(cases, np.tile(column, len(cases)), p_tot)


def sweep_users(scenario: Scenario, k_values: Sequence[int]) -> ResultTable:
    """Sum rate against user count, with and without the mirror wall.

    User draws are nested prefixes of one seeded stream, so growing K keeps
    every existing user in place and the curves stay nondecreasing under
    dedicated-beam service. Every placed user is unblocked and carries the
    scenario's receiver. A user's direct-path row, serving branch and
    mirror-path row depend on that user alone, so all three are computed
    once for the largest K and sliced. A scenario without a mirror wall has
    nothing to compare, and raises ValueError naming `irs.enabled`.
    """
    if scenario.irs is None:
        raise ValueError("sweep-users compares against the mirror wall: irs.enabled must be true")
    # The sweep.k_values row, with numpy integers taken as ints; int() of every
    # value would read 2.5 as 2 and True as 1.
    ks = SCHEMA["sweep.k_values"][1](
        "k_values", [int(k) if isinstance(k, np.integer) else k for k in k_values]
    )
    placed = place_users_uniform(
        max(ks), scenario.room_dims, scenario.rng_seed, scenario.receiver_z
    )
    users = {"positions": tuple(map(Vec3.as_tuple, placed)), "blocked": (False,) * len(placed)}
    variants = (
        ("none", replace(scenario, irs=None, **users)),
        (scenario.irs.label(), replace(scenario, **users)),
    )
    cases = [(label, variant._first_users(k)) for k in ks for label, variant in variants]
    sweep_var = [float(k) for k in ks for _ in variants]
    return _rate_table(cases, sweep_var, np.array([scenario.p_tot]))


def simulate_scenario(scenario: Scenario) -> ResultTable:
    """Single evaluation of the configured scenario as a one-variant table."""
    label = "none" if scenario.irs is None else scenario.irs.label()
    snr_db = transmit_snr_db(scenario.noise, scenario.responsivity, scenario.p_tot)
    return _rate_table([(label, scenario)], [snr_db], np.array([scenario.p_tot]))


# perfbench (tracing.py, workloads.py) still looks the scalar reference up on
# this module; ROADMAP item 1 deletes this forwarder.
def __getattr__(name: str):
    if name in ("irs_gain", "los_gain", "steer_mirror", "serving_branch_index"):
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
