"""Tests for the benchmark itself: tiny smoke runs and mutation checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import owcsim.network  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny_wall(seed: int = 5) -> workloads.WallScale:
    # 3 users x 36 mirrors: the SPOT_CHECK_PAIRS sample covers every pair,
    # and the first draw of seed 5 has nonzero gains.
    return workloads.WallScale(seed, grid_m=6, users=3)


def tiny_snr(seed: int = 3) -> workloads.SnrDense:
    return workloads.SnrDense(seed, users=3, points_db=[60.0 + 5.0 * i for i in range(13)])


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("make", [tiny_wall, tiny_snr])
def test_tiny_in_process_workloads_pass_their_checks(make):
    records = run.closed_loop(make(), seconds=0.05)
    assert len(records) >= 2
    assert all(r["error"] is None and r["digest"] for r in records), records


def test_same_seed_gives_same_digests():
    first = run.closed_loop(tiny_snr(5), seconds=0.0)
    second = run.closed_loop(tiny_snr(5), seconds=0.0)
    assert [r["digest"] for r in first] == [r["digest"] for r in second]


@pytest.mark.parametrize("in_process", [True, False])
def test_paper_op_passes_its_check(tmp_path, in_process):
    paper = workloads.Paper(1, tmp_path / "work", ROOT / "src", in_process=in_process)
    record = run.run_op(paper, paper.next_input(), run.host_speed(paper))
    assert record["error"] is None and record["digest"]
    # Only the CLI children's own peak RSS counts, and only when there are any.
    assert (paper.peak_rss_mb > 0.0) == (not in_process)


def test_run_child_reports_exit_code_and_own_peak_rss():
    code, rss_mb = workloads.run_child(
        [sys.executable, "-c", "import sys; b = bytearray(64 << 20); sys.exit(3)"], {}
    )
    assert code == 3 and rss_mb > 64.0


def test_traced_run_reports_every_per_layer_metric():
    tracer = tracing.Tracer()
    records = run.closed_loop(tiny_wall(), seconds=0.05, tracer=tracer)
    assert all(r["error"] is None for r in records)
    assert len(records) == 1 + 2 * run.TRACED_OPS
    metrics = run.per_layer_metrics(records, tracer, import_s=[{"s": 0.1}])
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    assert metrics["network.irs_gain_matrix.pairs"][0] == 3 * 36
    assert metrics["network.evaluate_user.calls"][0] == 3
    assert metrics["trace.cover_frac"][0] > 0.5
    # Wrappers are gone once the ops are over.
    assert not hasattr(owcsim.network.irs_gain, "__wrapped__")


def test_traced_counts_do_not_depend_on_seconds():
    counts = []
    for seconds in (0.0, 5.0):
        tracer = tracing.Tracer()
        run.closed_loop(tiny_snr(), seconds=seconds, tracer=tracer)
        counts.append((dict(tracer.counts), {k: v["calls"] for k, v in tracer.totals().items()}))
    assert counts[0] == counts[1]


def test_perturbed_gain_fails_the_wall_scale_op(monkeypatch):
    original = owcsim.network.irs_gain_matrix

    def perturbed(scenario):
        gains = [list(row) for row in original(scenario)]
        user, mirror = max(
            ((u, m) for u in range(len(gains)) for m in range(len(gains[u]))),
            key=lambda pair: gains[pair[0]][pair[1]],
        )
        assert gains[user][mirror] > 0.0
        gains[user][mirror] *= 1.0 + 1e-9
        return gains

    monkeypatch.setattr(owcsim.network, "irs_gain_matrix", perturbed)
    records = run.closed_loop(tiny_wall(), seconds=0.0)
    assert len(records) == 1 and "scalar path" in (records[0]["error"] or "")


@pytest.mark.parametrize("cut", ["last_line", "mid_line"])
def test_truncated_csv_fails_the_paper_op(tmp_path, monkeypatch, cut):
    paper = workloads.Paper(1, tmp_path / "work", ROOT / "src", in_process=True)
    real_run = paper.run

    def run_then_truncate(seeds):
        codes = real_run(seeds)
        path = paper.work_dir / "fig2.csv"
        data = path.read_bytes()
        if cut == "last_line":
            data = data[: data.rstrip(b"\n").rfind(b"\n") + 1]
        else:
            data = data[: len(data) // 2]
        path.write_bytes(data)
        return codes

    monkeypatch.setattr(paper, "run", run_then_truncate)
    records = run.closed_loop(paper, seconds=0.0)
    assert records and all("OpFailed" in (r["error"] or "") for r in records)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_contract_json_last(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "snr-dense",
         "--seed", "2", "--seconds", "0.2", "--trace", trace],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
