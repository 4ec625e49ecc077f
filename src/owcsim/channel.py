"""Per-user optical channel gains: the direct path and the mirror path.

A transmitter branch enters only as an aperture position: each beam leaves
it aimed at its target, the user's receiver or a mirror centre, so a gain
depends on where the branch sits and not on how it is pointed. Each gain is
a power fraction of the beam that carries it, dimensionless in [0, 1]; a
user's mirror-path total sums one such fraction per assigned mirror, and
`ChannelGain` holds both paths and their sum q. The mirror path uses the
unfolded-path model: an ideal planar specular reflection preserves the
Gaussian profile, so the reflected field is the same beam continued to the
total folded distance, with the finite mirror entering as a multiplicative
intercept fraction. Receiver combining is select-best across the
angle-diversity receiver branches.

Both paths have a scalar reference and a numpy kernel. The references work
on `Vec3` values: `los_gain` scores one (transmitter branch, user) pair, and
`irs_gain` one (transmitter branch, mirror, user) triple, taking a mirror
already steered for it. The network evaluation runs only the kernels, which
repeat the references' arithmetic step for step and also return the serving
receiver branch: `los_gain_table` scores every (user, transmitter branch) pair
at once and equals `los_gain` bitwise; `irs_gain_table` steers and scores every
(user, `MirrorColumns` mirror) pair, users in blocks, and agrees with
`irs_gain` to rounding. It calls erf only where a lower bound on the mirror's
intercept does not clear every photodiode capture; elsewhere the capture is
the minimum, as it is with the true intercept. Both kernels score the
captured fraction once per distinct photodiode radius, not once per receiver
branch, and both gate the field of view with one helper that compares
cosines and takes acos only at the edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .beam import GaussianBeam, power_through_circle, power_through_rectangle
from .geometry import (
    MirrorElement,
    Orientation,
    Vec3,
    direction_from_orientation,
    fov_gate,
    incidence_angle,
    mirror_plane_axes,
    specular_reflect,
)


@dataclass(frozen=True)
class AdrBranch:
    """One upward-facing photodiode branch of an angle diversity receiver."""

    orientation: Orientation
    fov_half_angle_deg: float
    pd_area: float  # m^2

    def __post_init__(self) -> None:
        if self.pd_area <= 0.0:
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


@dataclass(frozen=True)
class ChannelGain:
    """Direct gain, summed mirror gain, their total, and serving branches.

    Each gain is a fraction of its own beam, so h_los is in [0, 1] while
    h_nlos, a sum over one beam per assigned mirror, may exceed 1.
    """

    h_los: float
    h_nlos: float
    q: float
    serving_branch_los: int | None
    serving_branch_nlos: int | None

    def __post_init__(self) -> None:
        if not 0.0 <= self.h_los <= 1.0:
            raise ValueError(f"h_los must be in [0, 1], got {self.h_los}")
        if not self.h_nlos >= 0.0:
            raise ValueError(f"h_nlos must be nonnegative, got {self.h_nlos}")
        if self.q != self.h_los + self.h_nlos:
            raise ValueError("q must equal h_los + h_nlos exactly")


def los_gain(
    ap_branch_pos: Vec3,
    user_pos: Vec3,
    user_branches: Sequence[AdrBranch],
    beam: GaussianBeam,
    blocked: bool,
) -> tuple[float, int | None]:
    """Best-branch direct-path gain and the index of the serving branch.

    The beam is aimed at the user, so the photodiode sits on the beam axis
    and the captured fraction follows the circular-aperture form, gated by
    each branch's field of view. Returns (0.0, None) when the path is
    blocked or no branch sees the arrival direction.
    """
    if blocked:
        return 0.0, None
    separation = ap_branch_pos.distance_to(user_pos)
    arrival = (user_pos - ap_branch_pos).normalized()
    unit_beam = replace(beam, power_pt=1.0)
    return _best_branch(unit_beam, separation, arrival, user_branches)


def irs_gain(
    ap_branch_pos: Vec3,
    mirror: MirrorElement,
    user_pos: Vec3,
    user_branches: Sequence[AdrBranch],
    beam: GaussianBeam,
) -> tuple[float, int | None]:
    """Best-branch mirror-path gain for a beam aimed at the mirror centre.

    The intercept fraction is the power captured by the mirror rectangle
    projected onto the transverse plane at the mirror range. The reflected
    field is the same beam continued to the folded distance d1 + d2, and the
    photodiode capture is clipped so it never exceeds what the mirror
    intercepted. The mirror is expected to be steered for this geometry so
    the reflected axis passes through the user.
    """
    to_mirror = mirror.center - ap_branch_pos
    mirror_range = to_mirror.norm()
    u_in = to_mirror.normalized()
    leg_out = user_pos - mirror.center
    # Either endpoint behind the mirror plane cannot couple through it.
    if leg_out.dot(mirror.normal) <= 0.0:
        return 0.0, None
    if (ap_branch_pos - mirror.center).dot(mirror.normal) <= 0.0:
        return 0.0, None
    arrival = specular_reflect(u_in, mirror.normal)
    width_axis, height_axis = mirror_plane_axes(mirror.normal)
    width_eff = mirror.width * _projected_scale(width_axis, u_in)
    height_eff = mirror.height * _projected_scale(height_axis, u_in)
    if width_eff <= 0.0 or height_eff <= 0.0:
        return 0.0, None
    unit_beam = replace(beam, power_pt=1.0)
    intercept = power_through_rectangle(unit_beam, width_eff, height_eff, mirror_range)
    total_range = mirror_range + leg_out.norm()

    best_gain = 0.0
    best_index: int | None = None
    for index, branch in enumerate(user_branches):
        if not fov_gate(incidence_angle(arrival, branch.normal()), branch.fov_half_angle_rad()):
            continue
        captured = power_through_circle(unit_beam, branch.aperture_radius(), total_range)
        gain = mirror.reflectivity * min(intercept, captured)
        if gain > best_gain:
            best_gain, best_index = gain, index
    return best_gain, best_index


@dataclass(frozen=True, eq=False)
class MirrorColumns:
    """A wall of mirrors as columns: centre coordinates, sizes, reflectivity.

    The elements' normals are not kept: `irs_gain_table` steers every mirror
    itself.
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

    def __len__(self) -> int:
        return len(self.cx)


# (user, mirror) pairs per block of `irs_gain_table`: its few dozen
# temporaries of this many floats then stay under a megabyte.
_BLOCK_PAIRS = 4096

_ERF_1 = math.erf(1.0)


def irs_gain_table(
    ap_branch_positions: Sequence[Vec3],
    mirrors: MirrorColumns,
    user_positions: Sequence[Vec3],
    user_branches: Sequence[Sequence[AdrBranch]],
    waist_w0: float,
    wavelength: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Mirror-path gain to every user via every mirror, each mirror steered per pair.

    Vectorised form of `steer_mirror` followed by `irs_gain` for a unit-power
    beam of the given waist and wavelength, with user i served from the
    transmitter branch at `ap_branch_positions[i]`. Returns two (users,
    mirrors) arrays: the gain of mirror j steered to bounce that branch onto
    user i, and the serving receiver branch (-1 for None). Pairs the reference
    scores 0 (zero-length leg, degenerate steering, an endpoint behind the
    steered plane, no branch inside its field of view) are exactly 0 here too.
    Dot and cross products are written out by component in the reference's
    order; erf and acos go through `math`, as numpy has no erf and its acos
    may differ from libm's in the last bit. Users sharing receiver branches
    are scored together, `_BLOCK_PAIRS` pairs at a time. erf runs only on the
    pairs that are geometrically valid, seen by some receiver branch, and
    whose intercept's lower bound, a product of erf(1) min(a, 1) over the two
    erf arguments a, does not clear the largest photodiode capture: elsewhere
    min(intercept, captured) is the capture whatever the intercept, so the
    gains stay bitwise those erf would give. The capture and the gain are
    computed once per distinct photodiode radius.
    """
    gain = np.zeros((len(user_positions), len(mirrors)))
    receiver = np.full(gain.shape, -1)
    ap = coordinates(ap_branch_positions)
    users = coordinates(user_positions)
    step = max(1, _BLOCK_PAIRS // max(1, len(mirrors)))
    for branches, rows in _branch_groups(user_branches).items():
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            gain[block], receiver[block] = _irs_gain_block(
                ap[block], mirrors, users[block], branches, waist_w0, wavelength
            )
    return gain, receiver


def _irs_gain_block(
    ap: np.ndarray,
    mirrors: MirrorColumns,
    users: np.ndarray,
    branches: tuple[AdrBranch, ...],
    waist_w0: float,
    wavelength: float,
) -> tuple[np.ndarray, np.ndarray]:
    """`irs_gain_table` for (block, 3) transmitter and user coordinates that
    share one tuple of receiver branches."""
    ax, ay, az = ap[:, 0:1], ap[:, 1:2], ap[:, 2:3]
    px, py, pz = users[:, 0:1], users[:, 1:2], users[:, 2:3]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Steering: the normal bisects the incoming and outgoing directions.
        tx, ty, tz = mirrors.cx - ax, mirrors.cy - ay, mirrors.cz - az
        mirror_range = np.sqrt(tx * tx + ty * ty + tz * tz)
        inv = 1.0 / mirror_range
        uix, uiy, uiz = tx * inv, ty * inv, tz * inv
        # Each name is dropped after its last read, so that few (block,
        # mirrors) arrays are alive at once.
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
        rx, ry, rz = uix - nx * twice, uiy - ny * twice, uiz - nz * twice
        seen = []
        for branch in branches:
            bx, by, bz = branch.normal().as_tuple()
            seen.append(_fov_seen(-(rx * bx + ry * by + rz * bz), branch.fov_half_angle_rad()))
        del rx, ry, rz, twice
        # Only a valid pair that some branch sees can score above 0.
        live = valid & np.logical_or.reduce(seen)
        del valid

        # mirror_plane_axes: project +z (+x for near-horizontal mirrors).
        flat = np.abs(nz) > 1.0 - 1e-9
        along_ref = np.where(flat, nx, nz)
        hx = np.where(flat, 1.0, 0.0) - nx * along_ref
        hy = 0.0 - ny * along_ref
        hz = np.where(flat, 0.0, 1.0) - nz * along_ref
        inv = 1.0 / np.sqrt(hx * hx + hy * hy + hz * hz)
        hx, hy, hz = hx * inv, hy * inv, hz * inv
        del flat, along_ref, inv
        wx, wy, wz = hy * nz - hz * ny, hz * nx - hx * nz, hx * ny - hy * nx
        along_w = wx * uix + wy * uiy + wz * uiz
        del wx, wy, wz, nx, ny, nz
        along_h = hx * uix + hy * uiy + hz * uiz
        del hx, hy, hz, uix, uiy, uiz
        width_eff = mirrors.width * np.sqrt(np.maximum(0.0, 1.0 - along_w * along_w))
        height_eff = mirrors.height * np.sqrt(np.maximum(0.0, 1.0 - along_h * along_h))
        del along_w, along_h
        # The reference scores a zero projected width or height 0; so does the
        # zero intercept such a pair keeps here, without calling erf.
        sized = live & (width_eff > 0.0) & (height_eff > 0.0)

        w_total = _beam_radius(mirror_range + leg_out, waist_w0, wavelength)
        beam_area = w_total * w_total
        del leg_out, w_total
        captured = {
            radius: -np.expm1(-2.0 * radius * radius / beam_area)
            for radius in dict.fromkeys(branch.aperture_radius() for branch in branches)
        }
        del beam_area

        scale = math.sqrt(2.0) / _beam_radius(mirror_range, waist_w0, wavelength)
        arg_w, arg_h = scale * (0.5 * width_eff), scale * (0.5 * height_eff)
        del scale, width_eff, height_eff
        # erf is concave on [0, inf), so erf(a) >= erf(1) min(a, 1), and the
        # product of the two bounds is at most the intercept. Where it clears
        # every capture, with a margin for rounding, min() takes the capture,
        # and an infinite intercept stands in without calling erf.
        bound = (_ERF_1 * np.minimum(arg_w, 1.0)) * (_ERF_1 * np.minimum(arg_h, 1.0))
        most = functools.reduce(np.maximum, captured.values())
        needs_erf = sized & ~(bound * (1.0 - 1e-9) > most)
        intercept = np.where(sized, np.inf, 0.0)
        erf_w, erf_h = _map(math.erf, arg_w[needs_erf]), _map(math.erf, arg_h[needs_erf])
        # erf is odd, so the reference's erf(a) - erf(-a) is exactly erf(a) + erf(a).
        intercept[needs_erf] = 0.25 * (erf_w + erf_w) * (erf_h + erf_h)
        del arg_w, arg_h, bound, most, needs_erf, erf_w, erf_h

        gains = {
            radius: mirrors.reflectivity * np.minimum(intercept, capture)
            for radius, capture in captured.items()
        }
        del intercept, captured
        best = np.zeros(live.shape)
        index = np.full(live.shape, -1)
        for r, branch in enumerate(branches):
            gain = gains[branch.aperture_radius()]
            # Strict: the lowest-index receiver branch wins a tie, as in `irs_gain`.
            better = live & seen[r] & (gain > best)
            best = np.where(better, gain, best)
            index = np.where(better, r, index)
    return best, index


def los_gain_table(
    ap_branch_positions: Sequence[Vec3],
    user_positions: Sequence[Vec3],
    user_branches: Sequence[Sequence[AdrBranch]],
    blocked: Sequence[bool],
    waist_w0: float,
    wavelength: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct-path gain from every transmitter branch to every user.

    Vectorised form of `los_gain` with a unit-power beam of the given waist
    and wavelength aimed at the user, over all pairs at once. Returns two
    (users, branches) arrays: the gain, and the serving receiver branch, -1
    where `los_gain` gives None. Both equal the reference bitwise: the
    arithmetic follows its order, and acos (near the field-of-view edge, where
    it decides) and expm1 go through `math`, as numpy's may differ from libm's
    in the last bit. An error is the one the reference meets first, looping
    over users, then transmitter branches, and building each aimed beam
    before anything else.
    """
    ap, users = coordinates(ap_branch_positions), coordinates(user_positions)
    separation, (ux, uy, uz), bad = aim(ap, users)
    if bad.any():
        # Rebuild the first failing beam, in the reference's loop order, on the
        # scalar path, so the error is the reference's own.
        i, b = np.argwhere(bad)[0].tolist()
        origin = ap_branch_positions[b]
        GaussianBeam(waist_w0, wavelength, 1.0, origin, (user_positions[i] - origin).normalized())

    w_d = _beam_radius(separation, waist_w0, wavelength)
    beam_area = w_d * w_d
    gain = np.zeros(separation.shape)
    receiver = np.full(separation.shape, -1)
    for branches, rows in _branch_groups(user_branches).items():
        gx, gy, gz, area = ux[rows], uy[rows], uz[rows], beam_area[rows]
        captured = {
            radius: -_map(math.expm1, -2.0 * radius * radius / area)
            for radius in dict.fromkeys(branch.aperture_radius() for branch in branches)
        }
        best = np.zeros(area.shape)
        index = np.full(area.shape, -1)
        for r, branch in enumerate(branches):
            nx, ny, nz = branch.normal().as_tuple()
            seen = _fov_seen(-(gx * nx + gy * ny + gz * nz), branch.fov_half_angle_rad())
            capture = captured[branch.aperture_radius()]
            # Strict: the lowest-index receiver branch wins a tie, as in `_best_branch`.
            better = seen & (capture > best)
            best = np.where(better, capture, best)
            index = np.where(better, r, index)
        gain[rows], receiver[rows] = best, index
    is_blocked = np.array(blocked, dtype=bool)
    gain[is_blocked], receiver[is_blocked] = 0.0, -1
    return gain, receiver


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


def _best_branch(
    unit_beam: GaussianBeam,
    total_distance: float,
    arrival: Vec3,
    branches: Sequence[AdrBranch],
) -> tuple[float, int | None]:
    best_gain = 0.0
    best_index: int | None = None
    for index, branch in enumerate(branches):
        if not fov_gate(incidence_angle(arrival, branch.normal()), branch.fov_half_angle_rad()):
            continue
        captured = power_through_circle(unit_beam, branch.aperture_radius(), total_distance)
        if captured > best_gain:
            best_gain, best_index = captured, index
    return best_gain, best_index


def coordinates(points: Sequence[Vec3]) -> np.ndarray:
    """The points as an (n, 3) float array."""
    return np.array([c for p in points for c in p.as_tuple()], dtype=np.float64).reshape(-1, 3)


def _branch_groups(
    user_branches: Sequence[Sequence[AdrBranch]],
) -> dict[tuple[AdrBranch, ...], np.ndarray]:
    """The indices of the users holding each tuple of receiver branches."""
    groups: dict[tuple[AdrBranch, ...], list[int]] = {}
    for i, branches in enumerate(user_branches):
        groups.setdefault(tuple(branches), []).append(i)
    return {branches: np.array(rows) for branches, rows in groups.items()}


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


def _projected_scale(axis: Vec3, beam_dir: Vec3) -> float:
    along = axis.dot(beam_dir)
    return math.sqrt(max(0.0, 1.0 - along * along))
