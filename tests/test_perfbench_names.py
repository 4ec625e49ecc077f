"""Every owcsim name the benchmark looks up must resolve, and each workload's
op must pass its own check.

`perfbench/tracing.py` wraps functions by `(module, attribute)` and
`perfbench/workloads.py` reads a few more names and fields directly. The
benchmark's own tests are not part of this suite, so this is what catches a
refactor that deletes or moves one of those names, or changes a field a
workload's check reads.
"""

import importlib
from pathlib import Path

import pytest

import owcsim
import owcsim.network
from owcsim.config import build_default_scenario
from owcsim.geometry import MirrorElement

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads")


def run_one_op(workload) -> bytes:
    """One op of a workload, on its first input, through its own check."""
    given = workload.next_input()
    return workload.check(given, workload.run(given))


def test_wall_scale_op_passes_its_check(workloads):
    assert run_one_op(workloads.WallScale(1, grid_m=3, users=2))


def test_full_size_wall_scale_op_passes_its_check(workloads):
    # The benchmark's own size: a 30x30 wall and 16 users, whose check
    # recomputes 256 sampled (user, mirror) pairs on the scalar path.
    workload = workloads.WallScale(1)
    assert (workload.grid_m, workload.users) == (30, 16)
    assert run_one_op(workload)


def test_snr_dense_op_passes_its_check(workloads):
    assert run_one_op(workloads.SnrDense(1, users=4, points_db=(60.0, 70.0, 80.0)))


def test_full_size_snr_dense_op_passes_its_check(workloads):
    # The benchmark's own size: 64 users at 1,201 SNR points, whose check
    # reads every row and requires each user's rate to rise with the SNR.
    workload = workloads.SnrDense(1)
    assert (workload.users, len(workload.points_db)) == (64, 1201)
    assert run_one_op(workload)


def test_paper_op_passes_its_check(workloads, tmp_path):
    src = Path(owcsim.__file__).resolve().parents[1]
    assert run_one_op(workloads.Paper(1, tmp_path / "out", src, in_process=True))


def test_every_traced_name_resolves(tracing):
    rows = tracing.SPANNED + tracing.COUNTED
    assert rows
    for _, module_name, attr in rows:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize(
    "module, attr",
    [
        (owcsim, "parse_config"),
        (owcsim, "evaluate_scenario"),
        (owcsim, "sweep_snr"),
        (owcsim, "read_result_csv"),
        (owcsim, "GaussianBeam"),
        (owcsim, "GeometryError"),
        (owcsim.network, "serving_branch_index"),
        (owcsim.network, "irs_gain_matrix"),
        (owcsim.network, "assign_mirrors"),
        ("owcsim.cli", "run_command"),
        ("owcsim.channel", "irs_gain"),
        ("owcsim.geometry", "steer_mirror"),
    ],
)
def test_workload_names_resolve(module, attr):
    if isinstance(module, str):
        module = importlib.import_module(module)
    assert hasattr(module, attr)


def test_panel_elements_resolve():
    panel = build_default_scenario({"irs": {"grid_m": 3}}).irs
    assert len(panel.elements) == 9
    assert all(isinstance(m, MirrorElement) for m in panel.elements)


@pytest.mark.parametrize("cap", [None, 2])
def test_wall_scale_captures_one_assignment_of_sorted_int_tuples(monkeypatch, cap):
    # The `wall-scale` op wraps `network.assign_mirrors` by attribute and
    # hashes `repr(per_user)`: `evaluate_scenario` must call it once, through
    # the module attribute, and `per_user` must keep its exact types.
    calls = []
    original = owcsim.network.assign_mirrors

    def capture(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(owcsim.network, "assign_mirrors", capture)
    scenario = build_default_scenario(
        {"irs": {"grid_m": 10}, "power": {"max_mirrors_per_user": cap}}
    )
    results = owcsim.evaluate_scenario(scenario)
    assert len(calls) == 1
    per_user = calls[0].per_user
    assert type(per_user) is tuple and len(per_user) == len(results)
    assert any(per_user)
    for mirrors in per_user:
        assert type(mirrors) is tuple
        assert all(type(m) is int for m in mirrors)
        assert list(mirrors) == sorted(mirrors)
