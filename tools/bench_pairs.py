"""Alternating perfbench pairs of two owcsim checkouts, summarised into a BENCH set.

    python3 tools/bench_pairs.py PARENT CHANGE --workload snr-dense --seeds 1 --pairs 10 \\
        --seconds 30 --out BENCH_32.json
    python3 tools/bench_pairs.py PARENT CHANGE --workload wall-scale --seeds 1 --pairs 10 \\
        --seconds 30 --bytecode --out BENCH_32.json

PARENT and CHANGE are checkouts: directories that each hold `src/owcsim` and
`perfbench`. Every run copies its tree's `src` and `perfbench` afresh (no
`__pycache__`, no `perfbench/out`) into a directory whose path has the same
length for both trees, runs `perfbench/run.py --trace 0` there, reads the
result line and the results file, and deletes the copy. The pairs of a seed
alternate which tree runs first: even-numbered pairs, counting from 0, run
the parent first. By default each run compiles the package from source
(PYTHONDONTWRITEBYTECODE=1); with `--bytecode` each fresh copy is
byte-compiled first (`python -m compileall src perfbench`) and the run loads
that bytecode, with PYTHONDONTWRITEBYTECODE unset.

The set, named by its workload, seeds and mode (as "wall-scale seed 1,
bytecode compiled"), goes into the `--out` JSON file, beside any sets
already there, in the layout of `BENCH_31.json`: `runs[name]` holds each
pair (which tree ran first, each side's `correct`, `attempted`, `failed` and
end-to-end metrics, its environment stamp, and whether the per-op sha256
digests agree over the ops both runs completed), and `summary[name]` holds,
per metric, each side's median and quartiles over the pairs (inclusive
linear interpolation, as numpy's default percentile), `rel_change` (change
median over parent median, minus 1) and `pairs_change_lower` (the pairs in
which the change read strictly lower), plus the pair count, the digest
agreement over every pair, the failed ops of each side and the command. Both
trees are stamped with `interleave_ab.tree_hash` of their `src`, in the set
and in the file's `trees`; a file whose `trees` name other trees is refused
before any run, so one file never mixes the sets of different trees.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
# The same tree stamp and quartile rule as the in-process A/B.
from interleave_ab import quartiles, tree_hash  # noqa: E402

SIDES = ("parent", "change")  # names of one length, so both copies' paths have one length
METRICS = ("op_s_p50", "setup_s", "peak_rss_mb")


def fresh_copy(tree: Path, dest: Path) -> Path:
    """`src` and `perfbench` of a checkout, copied without caches or results."""
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for part in ("src", "perfbench"):
        shutil.copytree(tree / part, dest / part, ignore=ignore)
    return dest


def run_env(bytecode: bool) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def perfbench_run(
    tree: Path, dest: Path, workload: str, seed: int, seconds: float, bytecode: bool
) -> dict:
    """One `perfbench/run.py --trace 0` in a fresh copy of `tree` at `dest`: its
    result line, environment stamp and per-op digests. A run that exits
    nonzero raises RuntimeError with the end of its standard error."""
    fresh_copy(tree, dest)
    env = run_env(bytecode)
    try:
        if bytecode:
            compile_cmd = [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
            subprocess.run(compile_cmd, cwd=dest, env=env, check=True, capture_output=True)
        argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", *argv, "--trace", "0"],
            cwd=dest, env=env, capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"perfbench in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}"
            )
        line = json.loads(done.stdout.strip().splitlines()[-1])
        results_path = dest / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
        results = json.loads(results_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    return {
        "result": {key: line[key] for key in ("correct", "attempted", "failed", "metrics")},
        "environment": results["environment"],
        "digests": [op["digest"] for op in results["ops"]],
    }


def digests_agree(a: list, b: list) -> bool:
    """Whether two runs' per-op digests are equal at every op both completed.
    Both runs draw their inputs from one seed, so op i is the same input in
    each; a failed op (digest None) and the ops past the shorter run are skipped."""
    return all(x == y for x, y in zip(a, b) if x is not None and y is not None)


def summarize(pairs: list[dict]) -> dict:
    """Per metric, each side's median and quartiles over the pairs, the change
    median's relative change and the pairs in which the change read lower."""
    summary: dict = {
        "pairs": len(pairs),
        "per_op_digests_equal": all(p["per_op_digests_equal_over_common_ops"] for p in pairs),
        "failed_ops": sum(p["change"]["failed"] for p in pairs),
        "parent_failed_ops": sum(p["parent"]["failed"] for p in pairs),
    }
    for metric in METRICS:
        values = {side: [p[side]["metrics"][metric]["value"] for p in pairs] for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        entry["rel_change"] = entry["change_median"] / entry["parent_median"] - 1.0
        entry["pairs_change_lower"] = sum(c < p for p, c in zip(values["parent"], values["change"]))
        summary[metric] = entry
    return summary


def run_pairs(
    trees: dict, workload: str, seeds: list[int], pairs: int, seconds: float, bytecode: bool,
    work: Path,
) -> list[dict]:
    """`pairs` alternating pairs per seed, in BENCH_31.json's pair layout."""
    records = []
    for seed in seeds:
        for index in range(pairs):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            record: dict = {"seed": seed, "first": order[0]}
            digests = {}
            for side in order:
                dest = work / f"{side}-{seed}-{index:03d}"
                run = perfbench_run(trees[side], dest, workload, seed, seconds, bytecode)
                record[side], record[f"{side}_environment"] = run["result"], run["environment"]
                digests[side] = run["digests"]
                value = run["result"]["metrics"]["op_s_p50"]["value"]
                print(f"seed {seed} pair {index} {side}: op_s_p50 {value:.6g} s", file=sys.stderr)
            agree = digests_agree(digests["parent"], digests["change"])
            record["per_op_digests_equal_over_common_ops"] = agree
            records.append(record)
    return records


def read_sets(path: Path, hashes: dict) -> dict:
    """The BENCH file at `path`, empty if there is none; a file of other trees
    raises ValueError."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    trees = data.get("trees", {})
    held = {side: trees.get(side, {}).get("tree_hash", hashes[side]) for side in SIDES}
    if held != hashes:
        raise ValueError(f"{path} holds sets of other trees: {held}, not {hashes}")
    return data


def update_sets(path: Path, hashes: dict, add) -> None:
    """Rewrite the BENCH file at `path`, as it reads now, with both trees
    stamped and `add` applied to its data."""
    data = read_sets(path, hashes)
    trees = data.setdefault("trees", {})
    for side in SIDES:
        trees.setdefault(side, {})["tree_hash"] = hashes[side]
    add(data)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def write_set(path: Path, name: str, hashes: dict, records: list[dict], summary: dict) -> None:
    """Add the set to the BENCH file at `path`, as it reads now."""

    def add(data: dict) -> None:
        data.setdefault("runs", {})[name] = records
        data.setdefault("summary", {})[name] = summary

    update_sets(path, hashes, add)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    parser.add_argument("--workload", choices=("paper", "wall-scale", "snr-dense"), required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--bytecode", action="store_true", help="load bytecode compiled first")
    parser.add_argument("--out", type=Path, required=True, help="BENCH JSON file to add to")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    hashes = {side: tree_hash(trees[side] / "src") for side in SIDES}
    name = f"{args.workload} seed {' '.join(map(str, args.seeds))}" + (
        ", bytecode compiled" if args.bytecode else ""
    )
    read_sets(args.out, hashes)  # a file of other trees is refused before any run
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        records = run_pairs(
            trees, args.workload, args.seeds, args.pairs, args.seconds, args.bytecode, Path(work)
        )
    summary = summarize(records)
    summary.update(
        workload=args.workload,
        seeds=args.seeds,
        seconds=args.seconds,
        mode="bytecode" if args.bytecode else "source",
        trees=hashes,
        command=shlex.join([
            "python3", "tools/bench_pairs.py", "PARENT", "CHANGE", "--workload", args.workload,
            "--seeds", *map(str, args.seeds), "--pairs", str(args.pairs),
            "--seconds", f"{args.seconds:g}", *(["--bytecode"] if args.bytecode else []),
            "--out", args.out.name,
        ]),
    )
    write_set(args.out, name, hashes, records, summary)
    for metric in METRICS:
        entry = summary[metric]
        print(
            f"{metric:<12} parent {entry['parent_median']:.6g}  change {entry['change_median']:.6g}"
            f"  rel_change {entry['rel_change']:+.4f}  change lower in "
            f"{entry['pairs_change_lower']} of {summary['pairs']}"
        )
    print(f"per-op digests equal: {summary['per_op_digests_equal']}  failed ops: "
          f"parent {summary['parent_failed_ops']}, change {summary['failed_ops']}")
    print(json.dumps({"name": name, **summary}))
    return 0 if summary["per_op_digests_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
