"""The process entry of `python -m owcsim` and of the `owcsim` console script.

A CLI run is one short process: interpreter start, the numpy import and
owcsim's own, a few milliseconds of compute and output, then exit. The cyclic
collector would walk the whole import-time heap, numpy's included, at every
full collection and once more at interpreter teardown. None of that heap is
garbage, so `main` imports with the collector off, moves everything imported
into the permanent generation with `gc.freeze()`, and only then turns the
collector back on: objects the run itself makes are collected as usual, and
nothing walks the frozen heap again. That took a `sweep-snr` run from 232 to
208 ms (medians of 30 alternating fresh-process pairs, 2 CPUs, Python
3.11.7, numpy 2.4.6, no bytecode cache); the freeze alone, with the
collector on during import, gave 234 -> 211 ms. `cli.main` and
`cli.run_command` leave the collector alone, as tests call them in-process.
"""

import gc
import sys


def main() -> int:
    gc.disable()
    try:
        from .cli import main as run  # numpy and the run path import here
    finally:
        gc.freeze()
        gc.enable()
    return run()


if __name__ == "__main__":
    sys.exit(main())
