#!/usr/bin/env python3
"""Print the boundary-slope families of the surgery family (4k-1)/(8k),
the links obtained by 1/k surgery on one component of the Borromean
rings, for a range of k.

Usage: python scripts/surgery_family.py [KMAX]

KMAX (default 3) is ASCII digits, at least 1; the links k = 1..KMAX are
printed.  A bad value gets a usage line and exit code 2.
"""

import argparse

from twobridge.arith import make_link
from twobridge.cli import _integer
from twobridge.slopes import slope_families
from twobridge.tables import render_family


def _kmax(text: str) -> int:
    k = _integer(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {k}")
    return k


def describe(k: int) -> None:
    result = slope_families(make_link(4 * k - 1, 8 * k))
    link = result.link
    print(f"k = {k}: link {link}, linking number {result.linking_number}")
    for fam in result.families:
        lo, hi = fam.domain
        if fam.branch == "T":
            dom = f"{lo} <= t <= {hi}"
        elif fam.branch == "S":
            dom = f"{lo} <= s <= {hi}"
        else:
            dom = "t -> inf" if fam.phi == "second" else "t -> 0"
        pair = "(%s, %s)" % render_family(fam)
        print(f"  {pair:<28} {dom}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description="Boundary slopes of the "
                                                 "surgery family (4k-1)/(8k).")
    parser.add_argument("kmax", nargs="?", type=_kmax, default=3,
                        metavar="KMAX")
    kmax = parser.parse_args().kmax
    for k in range(1, kmax + 1):
        describe(k)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
