"""Run one owcsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wall-scale --seed 1 --seconds 30 --trace 0

Workloads: paper, wall-scale, snr-dense (see perfbench/README.md). With
`--trace 0` the run measures the end-to-end metrics with nothing wrapped;
with `--trace 1` it runs a fixed number of inputs twice each, untraced then
traced, whatever `--seconds` says, and reports per-layer metrics per op plus
the tracing overhead. Every op's output is
checked. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a results file with the
environment stamp, every op's time and output digest goes to perfbench/out/.

Every time reported is normalised to host speed (see reference.py): a fixed
reference task is timed right before and right after each timed region, and
the raw time is scaled to the reference's nominal duration. Raw times stay
in the results file and on the human-readable lines.

The package is imported from src/ beside this directory, never from an
installed copy; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from reference import (
    LOOP_NOMINAL_S,
    PROCESS_NOMINAL_S,
    HostSpeed,
    loop_seconds,
    process_seconds,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("paper", "wall-scale", "snr-dense")
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
# Traced pairs per run, fixed so that per-op counts depend on the seed alone;
# it also bounds the in-memory span log (~150k spans per snr-dense op).
TRACED_OPS = 12
P90_MIN_OPS = 100  # op_s_p90 needs at least ten samples beyond it

END_TO_END = (
    ("op_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.import_s", "s"),
    ("config.parse_config.s", "s"),
    ("cli.run_command.s", "s"),
    ("output.write_csv.s", "s"),
    ("output.render_line_plot.s", "s"),
    ("output.bytes", "bytes"),
    ("network.sweep_users.s", "s"),
    ("network.sweep_snr.s", "s"),
    ("network.sweep_snr.self_s", "s"),
    ("network.serving_branch_index.calls", "count"),
    ("network.serving_branch_index.s", "s"),
    ("network.irs_gain_matrix.s", "s"),
    ("network.irs_gain_matrix.self_s", "s"),
    ("network.irs_gain_matrix.pairs", "count"),
    ("geometry.steer_mirror.calls", "count"),
    ("geometry.steer_mirror.s", "s"),
    ("channel.irs_gain.calls", "count"),
    ("channel.irs_gain.s", "s"),
    ("channel.irs_gain.useful_frac", "ratio"),
    ("beam.power_through_rectangle.calls", "count"),
    ("beam.power_through_circle.calls", "count"),
    ("network.evaluate_user.calls", "count"),
    ("network.evaluate_user.s", "s"),
    ("network.assign_mirrors.s", "s"),
    ("network.assign_mirrors.entries", "count"),
    ("network.assign_mirrors.assigned", "count"),
    ("channel.los_gain.calls", "count"),
    ("channel.los_gain.s", "s"),
    ("link.noise_variance.calls", "count"),
    ("link.noise_variance.s", "s"),
    ("link.sinr.calls", "count"),
    ("link.achievable_rate.calls", "count"),
    ("link.achievable_rate.s", "s"),
    ("trace.op_s_p50", "s"),
    ("trace.untraced_op_s_p50", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.cover_frac", "ratio"),
    ("trace.spans", "count"),
)

# Layers whose time the wall-scale op should be made of; trace.cover_frac
# is their summed inclusive time over the traced op time.
COVER = ("network.irs_gain_matrix", "network.assign_mirrors", "network.evaluate_user")

# Fresh-interpreter probes: the clock starts after interpreter start-up, just
# before the first owcsim import.
PROBE_CODE = """
import json, sys, time
document = json.loads(sys.argv[1])
start = time.perf_counter()
{body}
print(repr(time.perf_counter() - start))
"""
SETUP_BODY = "import owcsim\nowcsim.parse_config(document)"
IMPORT_BODY = "import owcsim.cli"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def process_speed() -> HostSpeed:
    return HostSpeed(lambda: process_seconds(child_env()), PROCESS_NOMINAL_S)


def host_speed(workload) -> HostSpeed:
    """The reference that tracks the kind of work the workload's op does."""
    if workload.in_child:
        return process_speed()
    return HostSpeed(loop_seconds, LOOP_NOMINAL_S)


def probe_child(body: str, document: dict) -> float:
    done = subprocess.run(
        [sys.executable, "-c", PROBE_CODE.format(body=body), json.dumps(document)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def fresh_interpreter_seconds(body: str, document: dict, repeats: int) -> list[dict]:
    """Seconds `body` takes in fresh interpreters, raw and normalised.

    The child's own clock gives the raw time; process-reference passes in
    this process, around each child, give the scale.
    """
    speed = process_speed()
    samples = [speed.timed(probe_child, body, document) for _ in range(repeats)]
    return [
        {"raw_s": raw, "scale": speed.scale(before), "s": raw * speed.scale(before)}
        for raw, _, before in samples
    ]


def git_commit() -> str:
    """Commit of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def package_version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def environment_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def make_workload(name: str, seed: int, in_process: bool, work_dir: Path):
    import workloads

    if name == "paper":
        return workloads.Paper(seed, work_dir, SRC, in_process=in_process)
    if name == "wall-scale":
        return workloads.WallScale(seed)
    return workloads.SnrDense(seed)


def run_op(workload, inp, speed: HostSpeed, tracer=None) -> dict:
    """One op: the timed run, then the output check outside the timed region.

    Any exception from either counts as a failed op; the run goes on.
    """
    record: dict = {"raw_s": None, "scale": None, "s": None, "digest": None, "error": None}
    try:
        if tracer is None:
            out, raw, before = speed.timed(workload.run, inp)
        else:
            tracer.op_id += 1
            record["op_id"] = tracer.op_id
            with tracer.installed():
                out, raw, before = speed.timed(tracer.spanned(workload.run, "op"), inp)
        record.update(raw_s=raw, ref_pass=before)
        record["digest"] = hashlib.sha256(workload.check(inp, out)).hexdigest()
    except Exception:  # noqa: BLE001 - the op boundary records and reports every failure
        record["error"] = traceback.format_exc(limit=4)
    return record


def closed_loop(workload, seconds: float, speed: HostSpeed | None = None,
                tracer=None) -> list[dict]:
    """Warm up with one op, then run ops back to back until `seconds` pass.

    With a tracer, `seconds` is ignored: exactly TRACED_OPS inputs run, each
    untraced and then traced, so both halves of a pair see the same input
    and nearly the same host speed, and the per-op counts cover the same
    inputs on any host. Op times are normalised once the loop is over, when
    the reference passes after each op are known too.
    """
    speed = speed or host_speed(workload)
    warmup = run_op(workload, workload.next_input(), speed)
    warmup["warmup"] = True
    records = [warmup]
    if tracer is not None:
        for _ in range(TRACED_OPS):
            inp = workload.next_input()
            records.append(run_op(workload, inp, speed))
            traced = run_op(workload, inp, speed, tracer)
            traced["traced"] = True
            records.append(traced)
    else:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            records.append(run_op(workload, workload.next_input(), speed))
    for record in records:
        if record["raw_s"] is not None:
            record["scale"] = speed.scale(record["ref_pass"])
            record["s"] = record["raw_s"] * record["scale"]
            if tracer is not None and "op_id" in record:
                tracer.op_scale[record["op_id"]] = record["scale"]
    return records


def op_times(records: list[dict], key: str, traced: bool = False) -> list[float]:
    return [
        r[key]
        for r in records
        if r[key] is not None and not r.get("warmup") and bool(r.get("traced")) == traced
    ]


def end_to_end_metrics(workload, records: list[dict], setup: list[dict]) -> dict:
    """The op's process does the work: the CLI children for `paper`, else this one."""
    if workload.in_child:
        peak_rss_mb = workload.peak_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "op_s_p50": statistics.median(op_times(records, "s")),
        "setup_s": statistics.median(sample["s"] for sample in setup),
        "peak_rss_mb": peak_rss_mb,
    }
    return {key: (values[key], unit) for key, unit in END_TO_END}


def per_layer_metrics(records: list[dict], tracer, import_s: list[dict]) -> dict:
    traced = op_times(records, "s", traced=True)
    ops = max(len(traced), 1)
    totals = tracer.totals()
    counts = tracer.counts
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0}

    def field(metric: str) -> float:
        if metric in counts:
            return counts[metric] / ops
        layer, _, kind = metric.rpartition(".")
        return totals.get(layer, zero)[kind] / ops

    values: dict[str, float] = {
        "cli.import_s": statistics.median(sample["s"] for sample in import_s),
        "trace.op_s_p50": statistics.median(traced),
        "trace.untraced_op_s_p50": statistics.median(op_times(records, "s")),
        "trace.spans": len(tracer.start) / ops,
    }
    irs_calls = totals.get("channel.irs_gain", zero)["calls"]
    values["channel.irs_gain.useful_frac"] = (
        counts["channel.irs_gain.nonzero"] / irs_calls if irs_calls else 0.0
    )
    values["trace.overhead_frac"] = (
        values["trace.op_s_p50"] / values["trace.untraced_op_s_p50"] - 1.0
    )
    op_total = totals.get("op", zero)["s"]
    values["trace.cover_frac"] = (
        sum(totals.get(layer, zero)["s"] for layer in COVER) / op_total if op_total else 0.0
    )
    for metric, _unit in PER_LAYER:
        if metric not in values:
            values[metric] = field(metric)
    return {metric: (values[metric], unit) for metric, unit in PER_LAYER}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "owcsim" / "__init__.py").is_file():
        print(f"perfbench: no owcsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import owcsim

    if Path(owcsim.__file__).resolve().parent != SRC / "owcsim":
        print(f"perfbench: imported owcsim from {owcsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing

    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    stamp = environment_stamp()
    workload = make_workload(args.workload, args.seed, bool(args.trace), work_dir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if args.trace:
            probe = fresh_interpreter_seconds(IMPORT_BODY, {}, IMPORT_REPEATS)
        else:
            probe = fresh_interpreter_seconds(
                SETUP_BODY, workload.setup_document(), SETUP_REPEATS
            )
        speed = host_speed(workload)
        records = closed_loop(workload, args.seconds, speed, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    stamp["loadavg_end"] = list(os.getloadavg())
    if not op_times(records, "s") or (args.trace and not op_times(records, "s", traced=True)):
        print(f"perfbench: no op completed:\n{records[-1]['error']}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer_metrics(records, tracer, probe)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
        tracer.save(spans_path)
    else:
        metrics = end_to_end_metrics(workload, records, probe)

    failed = [r for r in records if r["error"] is not None]
    attempted = len(records)
    timed_ops = op_times(records, "s", traced=False)
    run_digest = hashlib.sha256(
        "".join(r["digest"] or "-" for r in records).encode()
    ).hexdigest()
    raw = {
        "op_s_p50_raw": statistics.median(op_times(records, "raw_s")),
        "probe_s_raw": statistics.median(sample["raw_s"] for sample in probe),
        "host_scale_p50": statistics.median(op_times(records, "scale")),
    }
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": stamp,
        "attempted": attempted,
        "failed": len(failed),
        "failed_frac": len(failed) / attempted,
        "run_digest": run_digest,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": raw,
        "probe_samples": probe,
        "reference_passes_s": speed.passes,
        "ops": records,
    }
    results_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    for record in failed[:3]:
        print(f"perfbench: failed op:\n{record['error']}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"results {results_path.relative_to(ROOT)}")
    print(f"{'failed_frac':<38} {len(failed) / attempted:.6g} ratio  "
          f"({len(failed)} of {attempted} ops)")
    if not args.trace:
        if len(timed_ops) >= P90_MIN_OPS:
            p90 = statistics.quantiles(timed_ops, n=10)[8]
            print(f"{'op_s_p90':<38} {p90:.6g} s  ({len(timed_ops)} ops)")
        else:
            print(f"{'op_s_p90':<38} omitted: {len(timed_ops)} ops < {P90_MIN_OPS}")
    for name, (value, unit) in metrics.items():
        note = "  (no calls on this workload)" if args.trace and value == 0.0 else ""
        print(f"{name:<38} {value:.6g} {unit}{note}")
    for name, value in raw.items():
        print(f"{name:<38} {value:.6g}")
    print(f"{'output_digest':<38} {run_digest}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
