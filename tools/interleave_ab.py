"""Interleaved in-process A/B of two owcsim source trees on a perfbench workload.

    python3 tools/interleave_ab.py A_SRC B_SRC --workload snr-dense --inputs 300
    python3 tools/interleave_ab.py A_SRC B_SRC --workload paper --inputs 40
    python3 tools/interleave_ab.py A_SRC B_SRC --workload setup --inputs 60

A_SRC and B_SRC are directories that each hold an `owcsim` package, such as
the `src` of two checkouts. They load into one interpreter as the distinct
packages `owcsim_a` and `owcsim_b`. perfbench's own workload class
(`perfbench/workloads.py`, imported unedited) draws each input once, and both
trees run it, in an order that alternates from input to input; perfbench's
check of each op runs right after it, outside the timed region, as it does in
a perfbench run. Both trees thus share one heap, one host speed and the same
inputs, which separates changes of a few percent that perfbench's
process-to-process spread hides.

`paper` runs each input through one perfbench `Paper` per tree: its two CLI
commands run as child processes with PYTHONPATH set to that tree, each tree
in a work directory of its own, and the check reads the outputs with that
tree's package. The op digest covers the bytes of every output file, SVGs
included; the result adds each tree's largest child peak RSS
(`a_peak_rss_mb`, `b_peak_rss_mb`).

`setup` times perfbench's setup body (`SETUP_BODY` in `perfbench/run.py`,
imported unedited: `import owcsim`, then `parse_config` of a workload's setup
document) in a fresh interpreter per op, with PYTHONPATH set to the op's
tree, by the child's own clock, as perfbench's `setup_s` probe does. The
inputs take the setup documents of `paper`, `wall-scale` and `snr-dense` at
`--seed` in turn, and the result adds the median ratio per document
(`ratio_p50_by_document`). A child has no output to compare and its faults
are its own, so this workload reports no digests and no fault columns; a
child that fails stops the run.

Prints each tree's median op time, the quartiles over inputs of the
per-input ratio B/A (`ratio_q1`, `ratio_p50`, `ratio_q3`, inclusive linear
interpolation, as numpy's default percentile), the share of inputs on which
B ran faster (`b_faster_frac`, the in-process form of a perfbench pair
count), and whether every op's output digest agrees between the trees; the
last line is the same as one JSON object, which also stamps each tree with
`tree_hash` (`a_tree`, `b_tree`), so a result names the code it measured,
and holds the seed.

Each side's median count of minor page faults per op is reported too
(`a_minflt_per_op_p50`, `b_minflt_per_op_p50`): `ru_minflt` of this process
read right before and right after each op's timed run. Each op's output is
released after its check, before the next op runs, as perfbench's `run_op`
does, so no op's faults depend on whether the previous table is still held.
A `paper` op's work runs in child processes, whose faults this process does
not count.

With `--out BENCH_n.json`, the JSON line, with the command added, is also
appended to that file's `interleave_ab.runs`, A stamped as the file's parent
tree and B as its change, as `tools/bench_pairs.py` stamps its sets; a file
whose sets ran on other trees is refused before any op runs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("channel", "cli", "geometry", "network")  # the ones workloads.py imports


def tree_hash(src: str | Path) -> str:
    """sha256 over the sorted relative paths and the bytes of `owcsim/**/*.py`
    under `src`; each file's path and length frame its bytes."""
    root = Path(src).resolve()
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(root).as_posix() for path in root.glob("owcsim/**/*.py")):
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def load_tree(src: str | Path, name: str) -> ModuleType:
    """The `owcsim` package under `src`, imported as the top-level package `name`.

    Any package loaded earlier under `name`, with its submodules, is first
    dropped from `sys.modules`, so a second load under one name binds the
    new tree's submodules, not the first load's."""
    for loaded in [key for key in sys.modules if key == name or key.startswith(f"{name}.")]:
        del sys.modules[loaded]
    init = Path(src).resolve() / "owcsim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    return package


def import_workloads(package: ModuleType) -> ModuleType:
    """perfbench's `workloads` module, its `import owcsim` bound to `package`.

    `sys.modules` maps `owcsim` to `package` only while the module imports, so
    no other copy of owcsim loads; `interleave` rebinds the module's `owcsim`
    before every op.
    """
    names = ["owcsim", *(f"owcsim.{sub}" for sub in SUBMODULES)]
    saved = {name: sys.modules.get(name) for name in names}
    sys.modules["owcsim"] = package
    for sub in SUBMODULES:
        sys.modules[f"owcsim.{sub}"] = getattr(package, sub)
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def paper_sides(workloads: ModuleType, seed: int, srcs: tuple, work_root: Path) -> tuple:
    """One perfbench `Paper` per tree, its CLI children run on that tree's
    `src` and writing under a work directory of its own in `work_root`."""
    return tuple(
        workloads.Paper(seed, Path(work_root) / side, Path(src).resolve())
        for side, src in zip("ab", srcs)
    )


def perfbench_run() -> ModuleType:
    """perfbench's `run.py`, imported unedited for its probe code."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # for its `from reference import`
    try:
        path = ROOT / "perfbench" / "run.py"
        spec = importlib.util.spec_from_file_location("perfbench_run", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return module


def setup_documents(workloads: ModuleType, seed: int) -> list[tuple[str, dict]]:
    """Each workload's perfbench setup document at `seed`, with its name."""
    kinds = (
        workloads.Paper(seed, Path(os.devnull), ROOT / "src"),  # never run
        workloads.WallScale(seed),
        workloads.SnrDense(seed),
    )
    return [(kind.name, kind.setup_document()) for kind in kinds]


def probe_setup(code: str, src: str | Path, document: dict) -> float:
    """Seconds the probe `code` takes on `document` in a fresh interpreter
    that imports owcsim from `src`, by the child's own clock."""
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(document)],
        env=dict(os.environ, PYTHONPATH=str(Path(src).resolve())),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def interleave_setup(srcs: tuple, documents: list[tuple[str, dict]], inputs: int) -> dict:
    """Time perfbench's setup body on `inputs` inputs, each the next of
    `documents`, in a fresh interpreter per tree, the first side alternating;
    one untimed warm-up child per side first."""
    run = perfbench_run()
    code = run.PROBE_CODE.format(body=run.SETUP_BODY)
    for src in srcs:
        probe_setup(code, src, documents[0][1])
    times: tuple[list[float], list[float]] = ([], [])
    names = []
    for i in range(inputs):
        name, document = documents[i % len(documents)]
        names.append(name)
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            times[side].append(probe_setup(code, srcs[side], document))
    by_document = {
        name: statistics.median(b / a for a, b, n in zip(*times, names) if n == name)
        for name in dict.fromkeys(names)
    }
    return {
        "workload": "setup",
        "inputs": inputs,
        **ratio_summary(times),
        "ratio_p50_by_document": by_document,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by inclusive linear
    interpolation (numpy's default percentile); one value is its own quartiles."""
    if len(values) == 1:  # quantiles() needs two values
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def ratio_summary(times: tuple[list[float], list[float]]) -> dict:
    """Each side's median time, the quartiles of the per-input ratio B/A and
    the share of inputs on which B ran faster."""
    ratios = [b / a for a, b in zip(*times)]
    q1, _, q3 = quartiles(ratios)
    return {
        "a_op_s_p50": statistics.median(times[0]),
        "b_op_s_p50": statistics.median(times[1]),
        "ratio_q1": q1,
        "ratio_p50": statistics.median(ratios),
        "ratio_q3": q3,
        "b_faster_frac": sum(b < a for a, b in zip(*times)) / len(ratios),
    }


def minor_faults() -> int:
    """This process's minor page faults so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def interleave(
    workloads: ModuleType, workload, packages: tuple, inputs: int, runners: tuple = ()
) -> dict:
    """Run `inputs` inputs drawn by `workload` on both packages, the first side
    alternating, each op checked after it runs; one untimed warm-up op per side
    first. `runners`, when given, holds the workload object that runs and
    checks each side's ops (a `paper` side's own tree and work directory)."""
    runners = runners or (workload, workload)

    def op(side: int, inp) -> tuple[float, str, int]:
        workloads.owcsim = packages[side]
        faults = minor_faults()
        start = time.perf_counter()
        out = runners[side].run(inp)
        elapsed = time.perf_counter() - start
        faults = minor_faults() - faults
        digest = hashlib.sha256(runners[side].check(inp, out)).hexdigest()
        del out  # released before the next op, as perfbench's run_op does
        return elapsed, digest, faults

    warmup = workload.next_input()
    for side in (0, 1):
        op(side, warmup)
    times: tuple[list[float], list[float]] = ([], [])
    faults: tuple[list[int], list[int]] = ([], [])
    same = True
    for i in range(inputs):
        inp = workload.next_input()
        sides = (0, 1) if i % 2 == 0 else (1, 0)
        digests = {}
        for side in sides:
            elapsed, digests[side], op_faults = op(side, inp)
            times[side].append(elapsed)
            faults[side].append(op_faults)
        same = same and digests[0] == digests[1]
    return {
        "workload": workload.name,
        "inputs": inputs,
        **ratio_summary(times),
        "digests_equal": same,
        "a_minflt_per_op_p50": statistics.median(faults[0]),
        "b_minflt_per_op_p50": statistics.median(faults[1]),
    }


def bench_pairs() -> ModuleType:
    """`tools/bench_pairs.py`, imported on first use, as it imports this module."""
    tools = str(Path(__file__).resolve().parent)
    if tools not in sys.path:
        sys.path.insert(0, tools)
    return importlib.import_module("bench_pairs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src", help="directory holding the A tree's owcsim package")
    parser.add_argument("b_src", help="directory holding the B tree's owcsim package")
    parser.add_argument(
        "--workload", choices=("snr-dense", "wall-scale", "paper", "setup"), default="snr-dense"
    )
    parser.add_argument("--inputs", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="BENCH JSON file to append the result line to")
    args = parser.parse_args(argv)
    hashes = {"parent": tree_hash(args.a_src), "change": tree_hash(args.b_src)}
    if args.out is not None:
        sets = bench_pairs()
        sets.read_sets(args.out, hashes)  # a file of other trees is refused before any op
    packages = (load_tree(args.a_src, "owcsim_a"), load_tree(args.b_src, "owcsim_b"))
    workloads = import_workloads(packages[0])
    if args.workload == "setup":
        documents = setup_documents(workloads, args.seed)
        result = interleave_setup((args.a_src, args.b_src), documents, args.inputs)
    elif args.workload == "paper":
        with tempfile.TemporaryDirectory() as work:
            sides = paper_sides(workloads, args.seed, (args.a_src, args.b_src), Path(work))
            result = interleave(workloads, sides[0], packages, args.inputs, sides)
        result.update(a_peak_rss_mb=sides[0].peak_rss_mb, b_peak_rss_mb=sides[1].peak_rss_mb)
    else:
        kind = workloads.SnrDense if args.workload == "snr-dense" else workloads.WallScale
        result = interleave(workloads, kind(args.seed), packages, args.inputs)
    result.update(a_tree=hashes["parent"], b_tree=hashes["change"], seed=args.seed)
    print(f"workload {result['workload']}  seed {args.seed}  inputs {args.inputs}")
    print(f"A op_s_p50 {result['a_op_s_p50']:.6g} s  ({args.a_src}, tree {result['a_tree']})")
    print(f"B op_s_p50 {result['b_op_s_p50']:.6g} s  ({args.b_src}, tree {result['b_tree']})")
    print(
        f"per-op ratio B/A  median {result['ratio_p50']:.4f}  "
        f"quartiles {result['ratio_q1']:.4f} {result['ratio_q3']:.4f}"
    )
    faster = round(result["b_faster_frac"] * args.inputs)
    print(f"B faster on {faster} of {args.inputs} inputs ({result['b_faster_frac']:.3f})")
    if "a_peak_rss_mb" in result:
        rss = (result["a_peak_rss_mb"], result["b_peak_rss_mb"])
        print("peak child RSS  A {:.2f} MB  B {:.2f} MB".format(*rss))
    if "ratio_p50_by_document" in result:
        by_document = result["ratio_p50_by_document"].items()
        print("median B/A per setup document  " + "  ".join(f"{k} {v:.4f}" for k, v in by_document))
    else:
        faults = (result["a_minflt_per_op_p50"], result["b_minflt_per_op_p50"])
        print("minor page faults per op, median  A {:g}  B {:g}".format(*faults))
        print(f"per-op digests equal: {result['digests_equal']}")
    print(json.dumps(result))
    if args.out is not None:
        command = shlex.join([
            "python3", "tools/interleave_ab.py", "PARENT/src", "CHANGE/src", "--workload",
            args.workload, "--inputs", str(args.inputs), "--seed", str(args.seed),
            "--out", args.out.name,
        ])
        line = {**result, "command": command}
        sets.update_sets(
            args.out, hashes,
            lambda data: data.setdefault("interleave_ab", {}).setdefault("runs", []).append(line),
        )
    return 0 if result.get("digests_equal", True) else 1


if __name__ == "__main__":
    sys.exit(main())
