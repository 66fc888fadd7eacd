#!/usr/bin/env python3
"""Census of 2-bridge links beyond the embedded tables.

Computes slope families for every link type up to a crossing bound and
prints one JSON line per crossing number n, over the link types with
exactly n crossings:

    {"crossings": n, "links": ..., "families": ..., "seconds": ...}

``families`` is the number of slope families of those links, summed,
and ``seconds`` the wall time ``slope_families`` took on them.  The
engine has no intrinsic bound; the embedded reference data stops at ten
crossings, so everything above that is fresh output.

Usage: python scripts/extended_census.py [MAX_CROSSINGS]

MAX_CROSSINGS (default 12) is read as ``--max-crossings`` is: ASCII
digits, at least 2.  A bad value gets a usage line and exit code 2.
"""

import argparse
import json
import time

from twobridge.arith import crossing_number, enumerate_links
from twobridge.cli import _crossing_bound
from twobridge.slopes import slope_families


def main() -> int:
    parser = argparse.ArgumentParser(description="Census of 2-bridge links "
                                                 "beyond the embedded tables.")
    parser.add_argument("max_crossings", nargs="?", type=_crossing_bound,
                        default=12, metavar="MAX_CROSSINGS")
    bound = parser.parse_args().max_crossings
    by_crossings: dict[int, list] = {}
    for link in enumerate_links(bound):
        by_crossings.setdefault(crossing_number(link), []).append(link)
    for n in sorted(by_crossings):
        links = by_crossings[n]
        t0 = time.perf_counter()
        families = sum(len(slope_families(link).families) for link in links)
        seconds = time.perf_counter() - t0
        print(json.dumps({"crossings": n, "links": len(links),
                          "families": families, "seconds": round(seconds, 3)}),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
