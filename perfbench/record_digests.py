"""Record the digests of each workload's pass output for the shipped seeds.

    python3 perfbench/record_digests.py [workload ...]

Each output is first checked the way a run checks a seed with no stored
digest (edgewise oracle, emitted links, exit codes); nothing is written
unless every output passes.  Only rerun this when the engine's output is
meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import measure  # noqa: E402
import workloads  # noqa: E402

SEEDS = tuple(range(20)) + (measure.HELD_OUT_SEED,)


def main(names) -> int:
    table = measure.load_digests() if measure.DIGESTS.exists() else {}
    for name in names or workloads.WORKLOADS:
        seeds = ("*",) if name == "check" else SEEDS
        table[name] = {}
        for seed in seeds:
            inputs = workloads.make_inputs(name, 0 if seed == "*" else seed)
            out = workloads.run_pass(name, inputs)
            failed, reasons = measure.oracle_failures(inputs, out)
            if failed:
                print(f"{name} seed {seed}: {reasons}", file=sys.stderr)
                return 1
            table[name][str(seed)] = measure.sha256(out.data)
            print(f"{name} seed {seed}: {table[name][str(seed)]}")
    with open(measure.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
