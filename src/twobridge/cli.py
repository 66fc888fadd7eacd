"""Command-line front end.

Results go to stdout, diagnostics to stderr; ``slopes`` and ``table``
write their encoded output to stdout's byte buffer, ``table`` one link
at a time as each is computed.  Exit codes: 0 on success, 1 when a
verification or equivalence check fails, 2 on usage errors, 3 on an
internal error (a bug), reported as one line on stderr, and 141,
silently, when the reader closes stdout before the output is written.
The help gets the same 141 when stdout is buffered; unbuffered,
argparse drops its failed write itself and the help exits 0, silently.
Each flag value is checked by its argparse type, integers as ASCII
digits with an optional sign: a bad one gets argparse's usage line and
``error: argument ...``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

from .arith import (INFINITY, crossing_number, enumerate_links, make_link,
                    rolfsen_name)
from .diagram import Diagrams, minimal_paths
from .slopes import _family_order, oracle_check, slope_families
from .tables import _stream, render_families, render_family, verify_corpus

_PQ_HELP = ("the link's fraction as two integers, such as 3/8; "
            "write a negative P as --pq=-3/8")


def _integer(text: str) -> int:
    """ASCII digits with an optional sign; ``int`` alone would also take
    spaces, digit separators and non-ASCII digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _link(text: str):
    """A --pq value: P/Q, two integers that make a 2-bridge link."""
    p, _, q = text.partition("/")
    try:
        return make_link(_integer(p), _integer(q))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expects P/Q, two integers such as 3/8, got {text!r}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(low: int):
    """The argparse type of an integer flag whose values start at low."""
    def integer(text: str) -> int:
        n = _integer(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return integer


def _families(link):
    """``slope_families(link)``, with each diagnostic written to stderr."""
    result = slope_families(link)
    for note in result.diagnostics:
        print(f"{link}: {note}", file=sys.stderr)
    return result


def _byte_writer():
    """The function that writes encoded output to stdout: straight to
    its byte buffer, after the text written before it, or decoded to a
    stdout with no buffer, such as an ``io.StringIO`` that
    ``contextlib.redirect_stdout`` put there."""
    if getattr(sys.stdout, "buffer", None) is None:
        return lambda data: sys.stdout.write(data.decode())
    sys.stdout.flush()
    return sys.stdout.buffer.write


def _cmd_slopes(args) -> int:
    result = _families(args.pq)
    write = _byte_writer()
    if args.format == "text":
        write((render_families(result) + "\n").encode())
    else:
        _stream([result], args.format, write)
    return 0


def _cmd_enumerate(args) -> int:
    links = enumerate_links(args.max_crossings, args.identify_mirrors)
    for link in links:
        name = rolfsen_name(link)
        print(f"{link}\t{crossing_number(link)}\t{name or '-'}")
    return 0


def _cmd_table(args) -> int:
    # Streamed: each link's piece is written as soon as its families are
    # known, so a failure leaves the links before it on stdout.
    results = map(_families, enumerate_links(args.max_crossings, True))
    _stream(results, args.format, _byte_writer())
    return 0


def _cmd_census(args) -> int:
    # One line per crossing number n, over the links with exactly n
    # crossings, flushed as soon as it is known; ``seconds`` is the wall
    # time of their slope families.
    links = enumerate_links(args.max_crossings, True)
    for n, group in itertools.groupby(links, crossing_number):
        group = list(group)
        t0 = time.perf_counter()
        families = sum(1 for link in group for _ in _family_order(_families(link)))
        seconds = time.perf_counter() - t0
        print(json.dumps({"crossings": n, "links": len(group),
                          "families": families, "seconds": round(seconds, 3)}),
              flush=True)
    return 0


def _cmd_surgery(args) -> int:
    # The links (4k-1)/8k of 1/k surgery on one component of the
    # Borromean rings, each family with its domain.
    for k in range(1, args.kmax + 1):
        result = _families(make_link(4 * k - 1, 8 * k))
        print(f"k = {k}: link {result.link}, "
              f"linking number {result.linking_number}")
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
    return 0


def _cmd_verify(args) -> int:
    report = verify_corpus(args.max_crossings)
    for link, status, missing, extra in report.entries:
        if status != "match":
            print(f"{link}: {status}", file=sys.stderr)
            for key in sorted(missing):
                print(f"  expected but not computed: {key}", file=sys.stderr)
            for key in sorted(extra):
                print(f"  computed but not expected: {key}", file=sys.stderr)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_paths(args) -> int:
    link = args.pq
    cx = getattr(Diagrams(link), args.diagram)
    paths = minimal_paths(cx, INFINITY, link.fraction())
    if args.format == "json":
        payload = {
            "link": {"p": link.p, "q": link.q},
            "diagram": cx.kind,
            "vertices": [str(v) for v in cx.vertices()],
            "edges": [{"type": e.etype, "tail": str(e.tail),
                       "head": str(e.head), "matrix": str(e.g)}
                      for e in cx.edges],
            "paths": [{"vertices": [str(v) for v in p.vertices()],
                       "edges": [f"{etype}{'-' if t & 1 else '+'}"
                                 for etype, t in zip(p.edge_types(), p.trav)]}
                      for p in paths],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        print(f"{len(paths)} minimal paths in {cx.kind} "
              f"from 1/0 to {link.fraction()}")
        for p in paths:
            print(f"  {p}")
    return 0


def _cmd_oracle_check(args) -> int:
    bad = 0
    links = enumerate_links(args.max_crossings, True)
    n_paths = 0
    for link in links:
        report = oracle_check(link)
        n_paths += report.dt_paths + report.d1_paths
        for path, push, track in report.disagreements:
            bad += 1
            print(f"{link}: {path}: {push} != {track}", file=sys.stderr)
    print(f"checked {len(links)} links, {n_paths} paths: "
          f"{'all agree' if bad == 0 else f'{bad} disagreements'}")
    return 0 if bad == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twobridge",
        description="Boundary slopes of 2-bridge links, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Every --max-crossings: no link diagram has fewer than 2 crossings,
    # so a lower bound would check or list nothing.
    crossing_bound = _at_least(2)

    p = sub.add_parser("slopes", help="slope families of one link")
    p.add_argument("--pq", type=_link, required=True, metavar="P/Q",
                   help=_PQ_HELP)
    p.add_argument("--format", default="text",
                   choices=["text", "json", "csv", "tex"])
    p.set_defaults(func=_cmd_slopes)

    p = sub.add_parser("enumerate", help="list link types by crossing number")
    p.add_argument("--max-crossings", type=crossing_bound, required=True)
    p.add_argument("--identify-mirrors", action=argparse.BooleanOptionalAction,
                   default=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table", help="slope tables for all links up to a bound")
    p.add_argument("--max-crossings", type=crossing_bound, required=True)
    p.add_argument("--format", default="text",
                   choices=["text", "json", "csv", "tex"])
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("census", help="slope-family counts by crossing "
                                      "number, one JSON line each")
    p.add_argument("--max-crossings", type=crossing_bound, required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("surgery", help="slope families of the links "
                                       "(4k-1)/8k for k = 1..KMAX")
    # The surgery family starts at k = 1.
    p.add_argument("--kmax", type=_at_least(1), default=3)
    p.set_defaults(func=_cmd_surgery)

    p = sub.add_parser("verify", help="check computed slopes against the "
                                      "embedded reference tables")
    p.add_argument("--max-crossings", type=crossing_bound, default=10)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("paths", help="dump minimal edge paths")
    p.add_argument("--pq", type=_link, required=True, metavar="P/Q",
                   help=_PQ_HELP)
    p.add_argument("--diagram", default="dt", choices=["dt", "d0", "d1"])
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("oracle-check", help="check that the two independent "
                                            "slope computations agree on every "
                                            "minimal path")
    p.add_argument("--max-crossings", type=crossing_bound, default=10)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def _run(argv) -> int:
    """The command's status, or argparse's after it printed help or a
    usage error and raised SystemExit."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return args.func(args)


def main(argv=None) -> int:
    try:
        status = _run(argv)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does: no bug.  Fd 1
        # goes to devnull so that the exit flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Exception as exc:        # anything else is a bug, not a failed check
        detail = " ".join(f"{type(exc).__name__}: {exc}".splitlines())
        print(f"internal error: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
