"""Per-user optical channel gains: the direct path and the mirror path.

A transmitter branch enters only as an aperture position: each beam leaves
it aimed at its target, the user's receiver or a mirror centre, so a gain
depends on where the branch sits and not on how it is pointed. Each gain is
a power fraction of the beam that carries it, dimensionless in [0, 1]; a
user's mirror-path total sums one such fraction per assigned mirror, and
`network` adds the two paths into each user's q. The mirror path uses the
unfolded-path model: an ideal planar specular reflection preserves the
Gaussian profile, so the reflected field is the same beam continued to the
total folded distance, with the finite mirror entering as a multiplicative
intercept fraction. Receiver combining is select-best across the
branches of the angle-diversity receiver.

Both paths have a numpy kernel, and a scalar reference in
`owcsim.reference` (`los_gain` for one (transmitter branch, user) pair,
`irs_gain` for one (transmitter branch, mirror, user) triple) that the
network evaluation never runs. The kernels repeat the references'
arithmetic step for step and also return the serving receiver branch:
`los_gain_table` scores every (user, transmitter branch) pair at once and
equals `los_gain` bitwise (`aimed_los_gain_table` is its half after `aim`,
for pairs already aimed); `irs_gain_table` scores every (user,
`MirrorColumns` mirror) pair and agrees with `irs_gain` to rounding. It runs
in two stages. A mirror steered to a user reflects the beam along the leg
from its centre to that user, so whether any receiver branch can see a pair
is known from that leg before the mirror is steered: the first stage, over
blocks of users, keeps only the pairs whose leg arrives inside some branch's
field of view widened by a small margin, and the second steers and scores the
pairs kept, gathered into 1-D arrays, with the arithmetic of the reference.
A wall's `MirrorColumns` keep each field in the shape it varies over (a
panel's centres as a row along the wall and a column of heights, and its
shared plane coordinate, sizes and reflectivity as 0-d values), so the first
stage computes per-row and per-column terms once per row or column, and the
second gathers only the fields that vary. A list of mirrors runs the same
code with one (n,) column per field.
Where a lower bound on the mirror's intercept, first taken from the incidence
cosine alone, clears the photodiode capture, the capture is the minimum, as
it is with the true intercept; only the other pairs build the mirror axes,
and fewer still call erf. Both kernels take points as `Vec3`s or an (n, 3)
array, and one receiver, carried by every user, whose branches share one
photodiode and field of view, so a pair has one captured fraction. Both gate
the field of view with one helper that compares cosines and takes acos only
at the edge, and pick the serving branch with another.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import Orientation, Vec3, direction_from_orientation

if TYPE_CHECKING:
    from .reference import MirrorElement


@dataclass(frozen=True)
class AdrBranch:
    """One upward-facing photodiode branch of an angle diversity receiver."""

    orientation: Orientation
    fov_half_angle_deg: float
    pd_area: float  # m^2

    def __post_init__(self) -> None:
        if not self.pd_area > 0.0:  # NaN too
            raise ValueError(f"pd_area must be positive, got {self.pd_area}")
        if not 0.0 < self.fov_half_angle_deg <= 90.0:
            raise ValueError(
                f"fov_half_angle_deg must be in (0, 90], got {self.fov_half_angle_deg}"
            )

    def normal(self) -> Vec3:
        return direction_from_orientation(self.orientation)

    def aperture_radius(self) -> float:
        return math.sqrt(self.pd_area / math.pi)

    def fov_half_angle_rad(self) -> float:
        return math.radians(self.fov_half_angle_deg)


@dataclass(frozen=True, eq=False)
class MirrorColumns:
    """A wall of mirrors as columns: centre coordinates, sizes, reflectivity.

    Each field is an array that broadcasts to the wall's `shape`, of one or
    two axes, whose entries in row-major order are the mirrors. A field is
    0-d where every mirror shares it, and otherwise has every axis of
    `shape`, of length 1 along the axes it does not vary over: `of` gives
    (n,) columns, and `IrsPanel.columns` an (M, M) grid whose centres along
    the wall are a (1, M) row, whose heights are an (M, 1) column and whose
    other fields are 0-d. The elements' normals are not kept:
    `irs_gain_table` steers every mirror itself.
    """

    cx: np.ndarray
    cy: np.ndarray
    cz: np.ndarray
    width: np.ndarray
    height: np.ndarray
    reflectivity: np.ndarray

    @classmethod
    def of(cls, mirrors: Sequence[MirrorElement]) -> MirrorColumns:
        rows = [
            (m.center.x, m.center.y, m.center.z, m.width, m.height, m.reflectivity)
            for m in mirrors
        ]
        return cls(*np.array(rows, dtype=np.float64).reshape(len(rows), 6).T.copy())

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        """The shape every field broadcasts to."""
        return np.broadcast(*self.fields()).shape

    def fields(self) -> tuple[np.ndarray, ...]:
        return self.cx, self.cy, self.cz, self.width, self.height, self.reflectivity

    def __len__(self) -> int:
        return math.prod(self.shape)

    def take(self, j: np.ndarray) -> MirrorColumns:
        """The mirrors at flat indices `j`: each field that varies gathered to
        one entry per index, and each 0-d field as it is."""
        at = {}
        if len(self.shape) == 2:
            # Row-major: flat index j of a (rows, cols) shape is row * cols + col.
            rows, cols = self.shape
            at[rows, 1], at[1, cols] = np.divmod(j, cols)
        return MirrorColumns(*(
            field if field.ndim == 0 else field.reshape(-1)[at.get(field.shape, j)]
            for field in self.fields()
        ))


# (user, mirror) pairs per block of stage 2 of `irs_gain_table`: its few
# dozen temporaries of this many floats then stay under a megabyte.
_BLOCK_PAIRS = 4096
# Most (user, mirror) pairs per block of stage 1, `_reachable`: each of its
# full-size temporaries then stays under 128 KiB, glibc malloc's default
# size from which an array gets freshly mapped pages.
_REACH_PAIRS = 15 * 1024

_ERF_1 = math.erf(1.0)
_COSINE_GUARD, _TILT_GUARD = 1e-2, 1.0 - 1e-4  # for the cosine bound: least |n.u|, most |n_z|
# How far past the field of view's cosine `_reachable` keeps a pair; see
# `irs_gain_table` for why this margin holds.
_REACH = 1e-5


def irs_gain_table(
    ap_branch_positions: Sequence[Vec3] | np.ndarray,
    mirrors: MirrorColumns,
    user_positions: Sequence[Vec3] | np.ndarray,
    receiver: Sequence[AdrBranch],
    waist_w0: float,
    wavelength: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Mirror-path gain to every user via every mirror, each mirror steered per pair.

    Vectorised form of `reference.steer_mirror` followed by `reference.irs_gain`
    for a unit-power beam of the given waist and wavelength, with user i served
    from the transmitter branch at `ap_branch_positions[i]` and every user
    carrying `receiver`; either positions argument may be an (n, 3) array, taken
    as it is. Returns two (users, mirrors) arrays: the gain of mirror j steered
    to bounce that branch onto user i, and the serving receiver branch (-1 for
    None). Pairs the reference scores 0 (zero-length leg, degenerate steering,
    an endpoint behind the steered plane, no branch inside its field of view)
    are exactly 0 here too. A receiver whose branches differ in photodiode area
    or field of view raises ValueError.

    Stage 1, `_reachable`, drops the pairs no branch can see. Steering makes
    the reflected direction r the outgoing leg's unit vector l^ = (user -
    centre) / |user - centre|: with u the incoming direction, d = l^ - u and
    n = d / |d|, u.n = -|d| / 2, so r = u - 2 (u.n) n = u + d = l^. Computed,
    r differs from l^ by about 1e-15 / |d|, under 1e-6 on any pair that can
    score, as steering needs |d| >= 1e-9. So a pair whose leg l has l.b >=
    (`_REACH` - cos fov) |l| for every branch normal b arrives at least
    `_REACH` - 1e-6 outside every field of view in cosine, beyond the 1e-9
    band where the gate takes acos, and the exact pass would score it 0,
    served by -1. A NaN leg fails the comparison and is dropped; the exact
    pass scores it 0 too. The tables are bitwise those of a call keeping
    every pair. The test runs on the mirrors' own shape, with the users
    prepended as an axis (see `_reachable`).

    Stage 2, `_irs_gain_pairs`, steers and scores the pairs kept, `_BLOCK_PAIRS`
    at a time, as 1-D arrays gathered from the coordinates and from the
    mirror fields that vary (`MirrorColumns.take`; a 0-d field broadcasts as
    it is), and writes them into the tables. Each pair goes through the
    reference's operations in its order: dot and cross products are written
    out by component; erf and acos go through `math`, as numpy has no erf and
    its acos may differ from libm's in the last bit. A valid pair some
    receiver branch sees scores its capture where a lower bound on its
    intercept, erf(1) min(a, 1) over both erf arguments a, clears the
    capture, as min(intercept, captured) then is the capture bitwise. The
    bound is first taken from each size times the incidence cosine |n.u|, its
    projection's least; only the pairs left build the mirror axes, and erf
    runs on those whose bound still falls short.
    """
    radius, fov = _photodiode(receiver)
    gain = np.zeros((len(user_positions), len(mirrors)))
    index = np.full(gain.shape, -1)
    ap, users = (coordinates(points).T.copy() for points in (ap_branch_positions, user_positions))
    kept = _reachable(mirrors, users, receiver, fov)
    for start in range(0, len(kept), _BLOCK_PAIRS):
        flat = kept[start : start + _BLOCK_PAIRS]
        i, j = np.divmod(flat, len(mirrors))
        gain.reshape(-1)[flat], index.reshape(-1)[flat] = _irs_gain_pairs(
            ap[:, i], mirrors.take(j), users[:, i], receiver, radius, fov, waist_w0, wavelength
        )
    return gain, index


def _reachable(
    mirrors: MirrorColumns, users: np.ndarray, receiver: Sequence[AdrBranch], fov: float
) -> np.ndarray:
    """The flat (user, mirror) indices, in row order, of the pairs whose
    outgoing leg l, from the mirror centre to the user, arrives inside some
    branch's field of view widened by `_REACH`: l.b < (_REACH - cos fov) |l|
    for some branch normal b. The users are (3, users) coordinates, taken in
    blocks of at most `_REACH_PAIRS` pairs.

    A block's users axis is prepended to the mirrors' shape, and broadcasting
    builds the legs, so each leg component, and each term built from
    components alone, keeps only the axes its centre coordinate varies over:
    on a grid, the squares and the horizontal dot products l_x b_x + l_y b_y
    are per row or per column. Branches of one elevation share b_z, and so
    the edge bound - l_z b_z, and some l.b is below the edge exactly where
    the least of them is (a NaN fails both), so the least is taken on those
    small arrays and compared once. Only the sum of squares, its root, the
    bound, the edge, the compare and its nonzero indices span every (user,
    mirror) pair."""
    # Each elevation's (b_x, b_y) pairs, stacked on an axis ahead of a block's.
    pairs: dict[float, list] = {}
    for bx, by, bz in (branch.normal().as_tuple() for branch in receiver):
        pairs.setdefault(bz, []).append((bx, by))
    ahead = (1,) * (1 + len(mirrors.shape))
    elevations = [(bz, *np.array(xy).T.reshape((2, -1) + ahead)) for bz, xy in pairs.items()]
    reach = _REACH - math.cos(fov)
    step = max(1, _REACH_PAIRS // max(1, len(mirrors)))
    kept = [np.empty(0, dtype=np.intp)]
    for start in range(0, users.shape[1], step):
        block = users[:, start : start + step].reshape((3, -1) + ahead[1:])
        lx, ly, lz = block[0] - mirrors.cx, block[1] - mirrors.cy, block[2] - mirrors.cz
        # The root, the bound and the last elevation's edge are taken in
        # place, so a receiver of one elevation holds one (users, mirrors)
        # float array at a time.
        bound = lx * lx + ly * ly + lz * lz
        np.sqrt(bound, out=bound)
        bound *= reach
        hits = [
            (lx * bx + ly * by).min(axis=0)
            < np.subtract(bound, lz * bz, out=bound if k == len(elevations) - 1 else None)
            for k, (bz, bx, by) in enumerate(elevations)
        ]
        kept.append(np.flatnonzero(functools.reduce(operator.or_, hits)) + start * len(mirrors))
    return np.concatenate(kept)


def _irs_gain_pairs(
    ap: np.ndarray,
    mirrors: MirrorColumns,
    users: np.ndarray,
    receiver: Sequence[AdrBranch],
    radius: float,
    fov: float,
    waist_w0: float,
    wavelength: float,
) -> tuple[np.ndarray, np.ndarray]:
    """`irs_gain_table` of n pairs, from (3, n) transmitter and user
    coordinates and n mirror columns, with the receiver's shared photodiode
    radius and field of view in radians."""
    ax, ay, az = ap
    px, py, pz = users
    with np.errstate(divide="ignore", invalid="ignore"):
        # Steering: the normal bisects the incoming and outgoing directions.
        tx, ty, tz = mirrors.cx - ax, mirrors.cy - ay, mirrors.cz - az
        mirror_range = np.sqrt(tx * tx + ty * ty + tz * tz)
        inv = 1.0 / mirror_range
        uix, uiy, uiz = tx * inv, ty * inv, tz * inv
        # Each name is dropped after its last read, so that few pair arrays
        # are alive at once.
        del tx, ty, tz
        lx, ly, lz = px - mirrors.cx, py - mirrors.cy, pz - mirrors.cz
        leg_out = np.sqrt(lx * lx + ly * ly + lz * lz)
        inv = 1.0 / leg_out
        dx, dy, dz = lx * inv - uix, ly * inv - uiy, lz * inv - uiz
        diff = np.sqrt(dx * dx + dy * dy + dz * dz)
        inv = 1.0 / diff
        nx, ny, nz = dx * inv, dy * inv, dz * inv
        del dx, dy, dz, inv
        # NaN from a zero-length leg fails every comparison, so it lands here.
        valid = (diff >= 1e-9) & (lx * nx + ly * ny + lz * nz > 0.0)
        valid &= (ax - mirrors.cx) * nx + (ay - mirrors.cy) * ny + (az - mirrors.cz) * nz > 0.0
        del lx, ly, lz, diff

        twice = 2.0 * (uix * nx + uiy * ny + uiz * nz)
        seen = _fov_masks(receiver, fov, uix - nx * twice, uiy - ny * twice, uiz - nz * twice)
        cosine = 0.5 * np.abs(twice)  # |n.u|, of the incidence angle
        del twice
        # Only a valid pair that some branch sees can score above 0.
        live = valid & seen.any(axis=0)
        del valid

        w_total = _beam_radius(mirror_range + leg_out, waist_w0, wavelength)
        captured = -np.expm1(-2.0 * radius * radius / (w_total * w_total))
        del leg_out, w_total
        scale = math.sqrt(2.0) / _beam_radius(mirror_range, waist_w0, wavelength)
        # A projected size is at least the size times the cosine, as
        # 1 - (w.u)^2 = (h.u)^2 + (n.u)^2. Computed, it can fall short of that
        # by about 7e-16 / cosine^2 relative, more for n near vertical; inside
        # the guards by under 1e-11, far inside `_clears`'s margin.
        least = scale * cosine
        settled = live & (cosine > _COSINE_GUARD) & (np.abs(nz) < _TILT_GUARD)
        settled &= _clears(least * (0.5 * mirrors.width), least * (0.5 * mirrors.height), captured)
        gain = np.where(settled, mirrors.reflectivity * captured, 0.0)
        left = live ^ settled
        del cosine, live, settled, least
        if left.any():
            width_eff, height_eff = _projected_sizes(mirrors, nx, ny, nz, uix, uiy, uiz)
            # The reference scores a zero projected width or height 0; so does
            # the zero intercept such a pair keeps here, without calling erf.
            sized = left & (width_eff > 0.0) & (height_eff > 0.0)
            arg_w, arg_h = scale * (0.5 * width_eff), scale * (0.5 * height_eff)
            needs_erf = sized & ~_clears(arg_w, arg_h, captured)
            intercept = np.where(sized, np.inf, 0.0)
            erf_w, erf_h = _map(math.erf, arg_w[needs_erf]), _map(math.erf, arg_h[needs_erf])
            # erf is odd, so the reference's erf(a) - erf(-a) is exactly erf(a) + erf(a).
            intercept[needs_erf] = 0.25 * (erf_w + erf_w) * (erf_h + erf_h)
            # A pair that is not sized keeps a zero intercept, so it scores 0.
            gain = np.where(left, mirrors.reflectivity * np.minimum(intercept, captured), gain)
    return _select_best(gain, seen)


def _clears(arg_w: np.ndarray, arg_h: np.ndarray, captured: np.ndarray) -> np.ndarray:
    """Where an intercept of erf arguments at least (arg_w, arg_h) clears the
    capture, with a margin for rounding: erf is concave on [0, inf), so
    erf(a) >= erf(1) min(a, 1), and the product of the two is at most it."""
    bound = (_ERF_1 * np.minimum(arg_w, 1.0)) * (_ERF_1 * np.minimum(arg_h, 1.0))
    return bound * (1.0 - 1e-9) > captured


def _projected_sizes(mirrors: MirrorColumns, nx, ny, nz, uix, uiy, uiz) -> tuple:
    """Each mirror's width and height as the incoming direction u sees them,
    size x sqrt(1 - (axis.u)^2), on `reference.mirror_plane_axes` of normal n."""
    # mirror_plane_axes: project +z (+x for near-horizontal mirrors).
    flat = np.abs(nz) > 1.0 - 1e-9
    along_ref = np.where(flat, nx, nz)
    hx = np.where(flat, 1.0, 0.0) - nx * along_ref
    hy = 0.0 - ny * along_ref
    hz = np.where(flat, 0.0, 1.0) - nz * along_ref
    inv = 1.0 / np.sqrt(hx * hx + hy * hy + hz * hz)
    hx, hy, hz = hx * inv, hy * inv, hz * inv
    wx, wy, wz = hy * nz - hz * ny, hz * nx - hx * nz, hx * ny - hy * nx
    along_w = wx * uix + wy * uiy + wz * uiz
    along_h = hx * uix + hy * uiy + hz * uiz
    width_eff = mirrors.width * np.sqrt(np.maximum(0.0, 1.0 - along_w * along_w))
    return width_eff, mirrors.height * np.sqrt(np.maximum(0.0, 1.0 - along_h * along_h))


def los_gain_table(
    ap_branch_positions: Sequence[Vec3],
    user_positions: Sequence[Vec3],
    receiver: Sequence[AdrBranch],
    blocked: Sequence[bool],
    waist_w0: float,
    wavelength: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct-path gain from every transmitter branch to every user.

    Vectorised form of `los_gain` with a unit-power beam of the given waist
    and wavelength aimed at the user, every user carrying `receiver`, over
    all pairs at once. Returns two (users, branches) arrays: the gain, and
    the serving receiver branch, -1 where `los_gain` gives None. Both equal
    the reference bitwise: the arithmetic follows its order, and acos (near
    the field-of-view edge, where it decides) and expm1 go through `math`, as
    numpy's may differ from libm's in the last bit. A receiver whose branches
    differ in photodiode area or field of view raises ValueError. Any other
    error is the one the reference meets first, looping over users, then
    transmitter branches, and building each aimed beam before anything else.
    """
    _photodiode(receiver)  # a receiver's error comes before any beam's
    aimed = aim(coordinates(ap_branch_positions), coordinates(user_positions))
    if aimed[2].any():
        # Rebuild the first failing beam, in the reference's loop order, on the
        # scalar path, so the error is the reference's own.
        from .beam import GaussianBeam

        i, b = np.argwhere(aimed[2])[0].tolist()
        origin = ap_branch_positions[b]
        GaussianBeam(waist_w0, wavelength, 1.0, origin, (user_positions[i] - origin).normalized())
    return aimed_los_gain_table(aimed, receiver, blocked, waist_w0, wavelength)


def aimed_los_gain_table(
    aimed: tuple, receiver: Sequence[AdrBranch], blocked: Sequence[bool], waist_w0: float,
    wavelength: float,
) -> tuple[np.ndarray, np.ndarray]:
    """`los_gain_table` from `aim` of its pairs, none unaimable, as a Scenario
    holds them from its validation."""
    radius, fov = _photodiode(receiver)
    separation, (ux, uy, uz), _ = aimed
    w_d = _beam_radius(separation, waist_w0, wavelength)
    captured = -_map(math.expm1, -2.0 * radius * radius / (w_d * w_d))
    # No branch sees a blocked user.
    seen = _fov_masks(receiver, fov, ux, uy, uz) & ~np.array(blocked, dtype=bool)[:, None]
    return _select_best(captured, seen)


def aim(
    ap: np.ndarray, users: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The separation and unit direction of every (user, aperture) pair, as
    (users, apertures) arrays from (n, 3) `coordinates`, and the mask of the
    pairs that have no direction, which `los_gain_table` rejects."""
    dx, dy, dz = (users[:, axis, None] - ap[:, axis] for axis in range(3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        separation = np.sqrt(dx * dx + dy * dy + dz * dz)
        inv = 1.0 / separation
        ux, uy, uz = dx * inv, dy * inv, dz * inv
        # Each aimed beam needs a unit direction. A zero separation (NaN here),
        # or one whose square underflows, fails as `Vec3.normalized` or
        # `GaussianBeam` would.
        bad = ~(np.abs(np.sqrt(ux * ux + uy * uy + uz * uz) - 1.0) <= 1e-9)
    return separation, (ux, uy, uz), bad


def coordinates(points: Sequence[Vec3] | np.ndarray) -> np.ndarray:
    """The points as an (n, 3) float array: an array is returned as it is."""
    if isinstance(points, np.ndarray):
        return points
    return np.array([c for p in points for c in p.as_tuple()], dtype=np.float64).reshape(-1, 3)


def _photodiode(receiver: Sequence[AdrBranch]) -> tuple[float, float]:
    """The aperture radius and field of view in radians of the receiver's one
    photodiode; no branch, or branches that differ in either, raise ValueError."""
    kinds = {(branch.pd_area, branch.fov_half_angle_deg) for branch in receiver}
    if len(kinds) != 1:
        raise ValueError(
            "receiver needs one or more branches sharing one pd_area and one "
            f"fov_half_angle_deg, got {sorted(kinds)}"
        )
    return receiver[0].aperture_radius(), receiver[0].fov_half_angle_rad()


def _fov_masks(
    receiver: Sequence[AdrBranch], fov: float, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """The (branches, ...) stack of `_fov_seen` of arrivals (x, y, z) at each branch."""
    normals = (branch.normal().as_tuple() for branch in receiver)
    return np.array([_fov_seen(-(x * bx + y * by + z * bz), fov) for bx, by, bz in normals])


def _select_best(gain: np.ndarray, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Select-best combining over `seen`, the stacked branch masks, when every
    branch reads one `gain`: the reference keeps a branch only on a strict
    gain > the best so far, from 0, so a pair some branch sees scores its gain
    where that is above 0, served by the lowest-index such branch; any other
    pair scores 0, served by -1. That branch is read from the largest rank,
    n - r for branch r, that sees the pair (0 for none): `argmax` along the
    branch axis gives the same and takes twice as long. The ranks take the
    smallest unsigned type that holds n, and the branch is cast back to intp."""
    n = len(seen)
    ranks = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))
    rank = (seen * ranks.reshape((n,) + (1,) * (seen.ndim - 1))).max(axis=0)
    served = (rank > 0) & (gain > 0.0)
    return np.where(served, gain, 0.0), np.where(served, (n - rank).astype(np.intp), -1)


def _fov_seen(cosine: np.ndarray, fov: float) -> np.ndarray:
    """`fov_gate` of each arrival, given -cos of its angle to the branch normal.

    The reference gates on acos(cosine), clipped to [-1, 1], <= fov. More than
    1e-9 from cos(fov), the angle is too (|d acos / dc| >= 1), so comparing
    cosines decides the same; nearer the edge, take acos as it does.
    """
    cos_fov = math.cos(fov)
    seen = cosine > cos_fov
    edge = np.abs(cosine - cos_fov) <= 1e-9
    if edge.any():
        seen[edge] = _map(math.acos, np.clip(cosine[edge], -1.0, 1.0)) <= fov
    return seen


def _beam_radius(distance: np.ndarray, waist_w0: float, wavelength: float) -> np.ndarray:
    """`beam.waist_at` of every distance, in its order of operations."""
    spread = wavelength * distance / (math.pi * waist_w0**2)
    return waist_w0 * np.sqrt(1.0 + spread * spread)


def _map(fn, values: np.ndarray) -> np.ndarray:
    flat = np.fromiter(map(fn, values.ravel().tolist()), np.float64, values.size)
    return flat.reshape(values.shape)


# perfbench (tracing.py, workloads.py) still looks these names up on this
# module; ROADMAP item 1 deletes these forwarders.
def __getattr__(name: str):
    if name in ("irs_gain", "los_gain"):
        from . import reference

        return getattr(reference, name)
    if name in ("power_through_rectangle", "power_through_circle"):
        from . import beam

        return getattr(beam, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
