#!/usr/bin/env python3
"""Census of 2-bridge links beyond the embedded tables.

Computes slope families for every link type up to a crossing bound and
prints per-crossing counts, the largest family sets, and timing.  The
engine has no intrinsic bound; the embedded reference data stops at ten
crossings, so everything above that is fresh output.

Usage: python scripts/extended_census.py [MAX_CROSSINGS]

MAX_CROSSINGS (default 12) is read as ``--max-crossings`` is: ASCII
digits, at least 2.  A bad value gets a usage line and exit code 2.
"""

import argparse
import time
from collections import Counter

from twobridge.arith import crossing_number, enumerate_links
from twobridge.cli import _crossing_bound
from twobridge.slopes import slope_families


def main() -> int:
    parser = argparse.ArgumentParser(description="Census of 2-bridge links "
                                                 "beyond the embedded tables.")
    parser.add_argument("max_crossings", nargs="?", type=_crossing_bound,
                        default=12, metavar="MAX_CROSSINGS")
    bound = parser.parse_args().max_crossings
    t0 = time.monotonic()
    links = enumerate_links(bound)
    by_crossings = Counter(crossing_number(l) for l in links)
    print(f"{len(links)} link types through {bound} crossings:")
    for n in sorted(by_crossings):
        print(f"  {n} crossings: {by_crossings[n]}")

    largest = []
    for link in links:
        result = slope_families(link)
        largest.append((len(result.families), link))
    largest.sort(reverse=True)
    print("largest family sets:")
    for size, link in largest[:5]:
        print(f"  {link}: {size} families")
    print(f"total time {time.monotonic() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
