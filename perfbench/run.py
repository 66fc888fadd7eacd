"""Benchmark of the twobridge engine.

    python3 perfbench/run.py --workload census14 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.
Prints a readable report (lines starting with ``#`` and one
``name value unit`` line per metric), then one JSON result line.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["census14", "fibonacci", "deep_chain", "check"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "twobridge" / "__init__.py").is_file():
        print(f"error: the twobridge sources are missing: no {SRC / 'twobridge'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import measure
    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC)


if __name__ == "__main__":
    raise SystemExit(main())
