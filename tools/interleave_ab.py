"""Interleaved in-process A/B of two owcsim source trees on a perfbench workload.

    python3 tools/interleave_ab.py A_SRC B_SRC --workload snr-dense --inputs 300

A_SRC and B_SRC are directories that each hold an `owcsim` package, such as
the `src` of two checkouts. They load into one interpreter as the distinct
packages `owcsim_a` and `owcsim_b`. perfbench's own workload class
(`perfbench/workloads.py`, imported unedited) draws each input once, and both
trees run it, in an order that alternates from input to input; perfbench's
check of each op runs right after it, outside the timed region, as it does in
a perfbench run. Both trees thus share one heap, one host speed and the same
inputs, which separates changes of a few percent that perfbench's
process-to-process spread hides.

Prints each tree's median op time, the quartiles over inputs of the
per-input ratio B/A (`ratio_q1`, `ratio_p50`, `ratio_q3`, inclusive linear
interpolation, as numpy's default percentile), the share of inputs on which
B ran faster (`b_faster_frac`, the in-process form of a perfbench pair
count), and whether every op's output digest agrees between the trees; the
last line is the same as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("channel", "cli", "geometry", "network")  # the ones workloads.py imports


def load_tree(src: str | Path, name: str) -> ModuleType:
    """The `owcsim` package under `src`, imported as the top-level package `name`."""
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


def interleave(workloads: ModuleType, workload, packages: tuple, inputs: int) -> dict:
    """Run `inputs` drawn inputs on both packages, the first side alternating,
    each op checked after it runs; one untimed warm-up op per side first."""

    def op(package, inp) -> tuple[float, str]:
        workloads.owcsim = package
        start = time.perf_counter()
        out = workload.run(inp)
        elapsed = time.perf_counter() - start
        return elapsed, hashlib.sha256(workload.check(inp, out)).hexdigest()

    warmup = workload.next_input()
    for package in packages:
        op(package, warmup)
    times: tuple[list[float], list[float]] = ([], [])
    same = True
    for i in range(inputs):
        inp = workload.next_input()
        sides = (0, 1) if i % 2 == 0 else (1, 0)
        digests = {}
        for side in sides:
            elapsed, digests[side] = op(packages[side], inp)
            times[side].append(elapsed)
        same = same and digests[0] == digests[1]
    ratios = [b / a for a, b in zip(*times)]
    # quantiles() needs two ratios; one ratio is its own quartiles.
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if inputs > 1 else ratios * 3
    return {
        "workload": workload.name,
        "inputs": inputs,
        "a_op_s_p50": statistics.median(times[0]),
        "b_op_s_p50": statistics.median(times[1]),
        "ratio_q1": q1,
        "ratio_p50": statistics.median(ratios),
        "ratio_q3": q3,
        "b_faster_frac": sum(b < a for a, b in zip(*times)) / inputs,
        "digests_equal": same,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src", help="directory holding the A tree's owcsim package")
    parser.add_argument("b_src", help="directory holding the B tree's owcsim package")
    parser.add_argument("--workload", choices=("snr-dense", "wall-scale"), default="snr-dense")
    parser.add_argument("--inputs", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    packages = (load_tree(args.a_src, "owcsim_a"), load_tree(args.b_src, "owcsim_b"))
    workloads = import_workloads(packages[0])
    kind = workloads.SnrDense if args.workload == "snr-dense" else workloads.WallScale
    result = interleave(workloads, kind(args.seed), packages, args.inputs)
    print(f"workload {result['workload']}  seed {args.seed}  inputs {args.inputs}")
    print(f"A op_s_p50 {result['a_op_s_p50']:.6g} s  ({args.a_src})")
    print(f"B op_s_p50 {result['b_op_s_p50']:.6g} s  ({args.b_src})")
    print(
        f"per-op ratio B/A  median {result['ratio_p50']:.4f}  "
        f"quartiles {result['ratio_q1']:.4f} {result['ratio_q3']:.4f}"
    )
    faster = round(result["b_faster_frac"] * args.inputs)
    print(f"B faster on {faster} of {args.inputs} inputs ({result['b_faster_frac']:.3f})")
    print(f"per-op digests equal: {result['digests_equal']}")
    print(json.dumps(result))
    return 0 if result["digests_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
