"""A scene's parts built once: the memos behind `parse_config` and the panel's
columns, and the field-of-view gate that takes each elevation once.

Documents that differ only in their users share one transmitter, one
receiver and one `MirrorColumns`; values that compare equal but are written
differently (-0.0 and 0.0, 1 and 1.0) never share an entry, so every built
field reads as an unmemoized build's. `_fov_masks` decides every arrival as
the per-branch gate it replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import owcsim.config
import owcsim.network
from owcsim.channel import _fov_masks
from owcsim.config import parse_config
from owcsim.geometry import Vec3
from owcsim.network import IrsPanel, build_irs_panel, default_adr_branches, one_entry_memo

from test_gain_kernel import wall_scale_document

MEMOS = (owcsim.config._adt, owcsim.config._receiver, owcsim.network._panel_columns)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def fresh(document):
    """The scenario of `document` with no memo holding anything."""
    clear_memos()
    return parse_config(document)[0]


class TestSharedScene:
    def test_documents_differing_in_users_share_the_scene(self):
        a, b = (parse_config(wall_scale_document(seed))[0] for seed in (1, 2))
        assert a.positions != b.positions
        assert a.adt is b.adt and a.receiver is b.receiver
        assert a.adt.branch_positions() is b.adt.branch_positions()
        assert a.irs.columns is b.irs.columns
        # The panel is not shared, so neither are its scalar elements.
        assert a.irs is not b.irs and a.irs == b.irs
        assert a.irs.elements is not b.irs.elements

    def test_shared_scene_gives_the_tables_of_a_fresh_one(self):
        document = wall_scale_document(3)
        parse_config(wall_scale_document(4))
        shared = parse_config(document)[0]
        alone = fresh(document)
        assert shared.adt is not alone.adt
        for got, want in zip(shared.mirror_table + shared.direct_table,
                             alone.mirror_table + alone.direct_table):
            assert got.tobytes() == want.tobytes()

    def test_builders_stay_plain(self):
        assert build_irs_panel((5.0, 5.0, 3.0)) is not build_irs_panel((5.0, 5.0, 3.0))
        assert default_adr_branches() is not default_adr_branches()

    def test_another_scene_is_built_anew(self):
        a = parse_config({"irs": {"grid_m": 5}})[0]
        b = parse_config({"irs": {"grid_m": 6}, "users": {"fov_deg": 30.0}})[0]
        assert a.irs.columns is not b.irs.columns and b.irs.columns.shape == (6, 6)
        assert a.receiver is not b.receiver and b.receiver[0].fov_half_angle_deg == 30.0
        assert a.adt is b.adt


class TestKeysKeepWrittenValuesApart:
    @pytest.mark.parametrize(
        "first, second",
        [
            ({"adt": {"side_offset_m": -0.0}}, {"adt": {"side_offset_m": 0.0}}),
            ({"adt": {"side_offset_m": 0.0}}, {"adt": {"side_offset_m": -0.0}}),
            ({"users": {"fov_deg": 1}}, {"users": {"fov_deg": 1.0}}),
            ({"adt": {"center": [2, 2, 3]}}, {"adt": {"center": [2.0, 2.0, 3.0]}}),
            ({"adt": {"center": [2.0, 2.0, 3.0]}}, {"adt": {"center": [2, 2, 3]}}),
        ],
    )
    def test_each_document_reads_as_an_unmemoized_build(self, first, second):
        for document in (first, second):
            alone = fresh(document)
            parse_config(second if document is first else first)
            got = parse_config(document)[0]
            for name in ("adt", "receiver", "irs"):
                assert repr(getattr(got, name)) == repr(getattr(alone, name))
            assert repr(got.adt.branch_positions()) == repr(alone.adt.branch_positions())
            fields = (got.irs.columns.fields(), alone.irs.columns.fields())
            assert [repr(f) for f in fields[0]] == [repr(f) for f in fields[1]]

    def test_signed_zero_reaches_the_scene(self):
        assert repr(parse_config({"adt": {"side_offset_m": -0.0}})[0].adt.side_offset) == "-0.0"
        assert repr(parse_config({"adt": {"side_offset_m": 0.0}})[0].adt.side_offset) == "0.0"

    @pytest.mark.parametrize("plane", [0.0, -0.0])
    def test_panel_columns_keep_the_plane_coordinate_written(self, plane):
        # A panel on the x_min wall whose plane coordinate is written -0.0 or
        # 0.0, and then a panel of the other: each 0-d field reads its own.
        def panel(x, width):
            return IrsPanel("x_min", 3, (width, 0.1), 0.95, Vec3(x, 2.5, 1.5))

        for x, width in ((-plane, 1), (plane, 1.0), (plane, 1)):
            columns = panel(x, width).columns
            alone = owcsim.network._panel_columns.__wrapped__("x_min", 3, (width, 0.1), 0.95,
                                                               Vec3(x, 2.5, 1.5))
            assert [repr(f) for f in columns.fields()] == [repr(f) for f in alone.fields()]
            assert math.copysign(1.0, columns.cx) == math.copysign(1.0, x)
            assert columns.width.dtype == np.asarray(width).dtype

    def test_memo_keys_on_repr(self):
        memo = one_entry_memo(lambda *args: list(args))
        assert memo(1) is memo(1)
        assert repr(memo(1.0)) == "[1.0]" and repr(memo(1)) == "[1]"
        assert repr(memo(-0.0)) == "[-0.0]" and repr(memo(0.0)) == "[0.0]"
        kept = memo((0.0, 2))
        memo.cache_clear()
        assert memo((0.0, 2)) is not kept

    def test_a_failed_build_keeps_nothing(self):
        good = parse_config({})[0]
        with pytest.raises(ValueError, match="adt.side_offset_m"):
            parse_config({"adt": {"side_offset_m": -1.0}})
        assert parse_config({})[0].adt is good.adt


def test_branch_normal_is_computed_once_outside_equality():
    branch = default_adr_branches()[1]
    assert branch.normal() is branch.normal()
    twin = default_adr_branches()[1]
    assert twin == branch and hash(twin) == hash(branch) and repr(twin) == repr(branch)
    assert "_normal" not in repr(branch)


def per_branch_fov_masks(receiver, fov, x, y, z):
    """The gate `_fov_masks` replaced: per branch, c = -(x b_x + y b_y + z b_z),
    seen where c > cos(fov), and acos within 1e-9 of cos(fov)."""
    cos_fov = math.cos(fov)
    masks = []
    for branch in receiver:
        bx, by, bz = branch.normal().as_tuple()
        cosine = -(x * bx + y * by + z * bz)
        seen = cosine > cos_fov
        edge = np.abs(cosine - cos_fov) <= 1e-9
        if edge.any():
            angles = [math.acos(c) for c in np.clip(cosine[edge], -1.0, 1.0).tolist()]
            seen[edge] = np.array(angles) <= fov
        masks.append(seen)
    return np.array(masks)


def planted_arrivals(receiver, fov):
    """Arrivals near each branch's field-of-view edge, at cos(fov) and 5e-10,
    1e-9 and 2e-9 either side of it, plus signed zeros and NaNs."""
    cos_fov = math.cos(fov)
    rows = [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, 0.0), (math.nan, 0.0, -1.0),
            (0.0, math.nan, 0.0), (0.0, 0.0, math.nan)]
    for branch in receiver:
        b = branch.normal().as_tuple()
        # A unit vector perpendicular to b, in the plane of b and +z or +x.
        ref = (1.0, 0.0, 0.0) if abs(b[2]) > 0.9 else (0.0, 0.0, 1.0)
        along = sum(r * c for r, c in zip(ref, b))
        perp = [r - along * c for r, c in zip(ref, b)]
        norm = math.sqrt(sum(p * p for p in perp))
        for step in (-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9):
            c = min(1.0, cos_fov + step)
            s = math.sqrt(max(0.0, 1.0 - c * c))
            rows.append(tuple(-(c * bc + s * pc / norm) for bc, pc in zip(b, perp)))
    return rows


component = st.one_of(
    st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, math.nan, 1.0, -1.0])
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    azimuths=st.lists(st.floats(0.0, 359.0), min_size=1, max_size=5),
    elevation=st.sampled_from([0.0, -0.0, 30.0, 60.0, 90.0]).flatmap(
        lambda e: st.just(e) | st.floats(0.0, 90.0)
    ),
    fov_deg=st.sampled_from([90.0, 25.0, 60.0]).flatmap(
        lambda f: st.just(f) | st.floats(1.0, 90.0)
    ),
    drawn=st.lists(st.tuples(component, component, component), max_size=20),
)
@example(azimuths=[0.0, 90.0, 180.0, 270.0], elevation=60.0, fov_deg=25.0, drawn=[])
@example(azimuths=[0.0, 90.0], elevation=0.0, fov_deg=90.0, drawn=[(-0.0, 0.0, -0.0)])
@example(azimuths=[45.0], elevation=-0.0, fov_deg=90.0, drawn=[(0.0, 0.0, 1.0)])
@example(azimuths=[10.0, 200.0], elevation=90.0, fov_deg=1.0, drawn=[(math.nan,) * 3])
def test_fov_masks_decide_as_the_per_branch_gate(azimuths, elevation, fov_deg, drawn):
    receiver = default_adr_branches(azimuths, elevation, fov_deg)
    fov = receiver[0].fov_half_angle_rad()
    arrivals = np.array(planted_arrivals(receiver, fov) + drawn, dtype=np.float64)
    x, y, z = arrivals.T.copy()
    with np.errstate(invalid="ignore"):
        for shape in (x.shape, (1, -1), (-1, 1)):
            got = _fov_masks(receiver, fov, *(a.reshape(shape) for a in (x, y, z)))
            want = per_branch_fov_masks(receiver, fov, *(a.reshape(shape) for a in (x, y, z)))
            assert got.dtype == want.dtype == bool
            assert got.shape == want.shape and np.array_equal(got, want)


def test_planted_arrivals_reach_the_edge_band():
    receiver = default_adr_branches()
    fov = receiver[0].fov_half_angle_rad()
    x, y, z = np.array(planted_arrivals(receiver, fov)).T
    bx, by, bz = receiver[0].normal().as_tuple()
    with np.errstate(invalid="ignore"):
        off = -(x * bx + y * by + z * bz) - math.cos(fov)
    band = np.abs(off) <= 1e-9
    assert band.sum() >= 3 and (off[band] > 0.0).any() and (off[band] < 0.0).any()
