"""Workload inputs and the pass that each workload times.

Every input is derived from the seed before timing starts; the engine
only ever sees the resulting links (or, for ``check``, fixed command
lines).  The engine is reached through module attributes at call time
(``twobridge.slope_families``, ``twobridge.cli.main``) so that the traced
run can substitute wrappers without editing the engine.
"""

from __future__ import annotations

import contextlib
import io
import random
from typing import NamedTuple

import twobridge
import twobridge.cli
from twobridge.arith import ContFrac, TwoBridgeLink

from speed import clock

WORKLOADS = ("census14", "fibonacci", "deep_chain", "check")

# Fibonacci-type links: positive expansions with every term in {1, 2},
# 20 to 26 crossings, q even.  Expansions of all 1s (then a final 2) give
# the most minimal paths for their crossing number: 6765/10946,
# 28657/46368 and 121393/196418 at 20, 23 and 26 crossings.  The other
# slots take one inner 2 at a position drawn from the seed; the path count
# barely depends on that position, so the work stays the same from seed
# to seed while the links change.  (crossing number, one inner 2?)
FIBONACCI_SLOTS = ((20, False), (21, True), (22, True),
                   (23, False), (24, True), (26, False))

# Deep chains: four links per slot of 50, 70, ..., 250 quadrilaterals of
# chain, one of each shape with one or two large expansion terms: 1/n,
# 3/(3n-8) and [a, n-a] with n twice the slot (100 to 500 crossings), and
# (2k-1)/4k = [2, m, 2] with m two less than the slot, whose chain is as
# long at half the crossings.  Sizing by chain length keeps the work per
# slot nearly the same for every shape.  The odd term a is drawn from the
# seed within a fifth of n/2: the linking number costs O(q), and
# q = a(n-a)+1 would otherwise swing the cost of the link by a tenth.
# The recursive path search needs one stack frame per path step, against
# Python's default limit of 1000: 1/n paths take 1.5n steps, so 1/700
# fails, and [2, m, 2] paths about 3m, so they fail from about 330
# crossings.
DEEP_SLOTS = tuple(range(50, 251, 20))

CHECK_COMMANDS = (("verify",), ("oracle-check", "--max-crossings", "12"))


def link_from_body(body: tuple[int, ...]) -> TwoBridgeLink:
    """The link p/q whose positive expansion is [0, *body]."""
    frac = ContFrac((0,) + tuple(body)).value()
    return twobridge.make_link(frac.num, frac.den)


def fractions_of_type(link: TwoBridgeLink) -> list[TwoBridgeLink]:
    """The fractions p/q naming the link type of ``link`` or its mirror:
    p, its inverse mod q, q - p and that one's inverse."""
    p, q = link
    ps = {p, pow(p, -1, q), q - p, pow(q - p, -1, q)}
    return [TwoBridgeLink(x, q) for x in sorted(ps)]


def _fibonacci_bodies(n: int, inner_two: bool) -> list[tuple[int, ...]]:
    """Expansions of 1s and a final 2 summing to n, with one inner 2 or
    none, whose q is even."""
    if not inner_two:
        bodies = [(1,) * (n - 2) + (2,)]
    else:
        bodies = [(1,) * j + (2,) + (1,) * (n - 4 - j) + (2,) for j in range(n - 3)]
    return [b for b in bodies if ContFrac((0,) + b).value().den % 2 == 0]


def _deep_bodies(slot: int, rng: random.Random) -> list[tuple[int, ...]]:
    """The four expansions of a slot whose chains have ``slot``
    quadrilaterals."""
    n = 2 * slot
    a = rng.randrange(slot - slot // 5, slot + slot // 5) | 1
    return [(n,), (n - 3, 3), (a, n - a), (2, slot - 2, 2)]


def make_inputs(name: str, seed: int):
    """The workload's inputs for a seed: a list of links, or for
    ``check`` the command lines."""
    rng = random.Random(seed)
    if name == "census14":
        links = [ln for ln in twobridge.enumerate_links(14)
                 if twobridge.crossing_number(ln) == 14]
    elif name == "fibonacci":
        links = [rng.choice(fractions_of_type(link_from_body(
                     rng.choice(_fibonacci_bodies(n, inner)))))
                 for n, inner in FIBONACCI_SLOTS]
    elif name == "deep_chain":
        links = [rng.choice(fractions_of_type(link_from_body(body)))
                 for slot in DEEP_SLOTS for body in _deep_bodies(slot, rng)]
    elif name == "check":
        return CHECK_COMMANDS
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(links)
    return links


class PassOutput(NamedTuple):
    """What one pass produced: the bytes checked against the digest, the
    number of links it covered, the seconds spent in the engine, per-link
    seconds (empty for ``check``), the slope results (empty for ``check``)
    and a failure reason, if any."""

    data: bytes
    links: int
    seconds: float
    latencies: list
    results: list
    error: str | None


def slope_pass(links, pause) -> PassOutput:
    """``slope_families`` on every link, then one JSON emit.  ``pause()``
    runs between links, outside the timed calls."""
    results, latencies = [], []
    for link in links:
        t0 = clock()
        results.append(twobridge.slope_families(link))
        latencies.append(clock() - t0)
        pause()
    t0 = clock()
    data = twobridge.emit(results, "json")
    seconds = sum(latencies) + clock() - t0
    return PassOutput(data, len(links), seconds, latencies, results, None)


def check_pass(commands) -> PassOutput:
    """``verify`` and ``oracle-check`` through the CLI, output captured.

    The links are the verified corpus rows plus the oracle-checked links,
    read back from the two summary lines.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes = [twobridge.cli.main(list(argv)) for argv in commands]
    seconds = clock() - t0
    text = out.getvalue()
    error = None
    if any(codes):
        error = f"exit codes {codes}"
    elif "56/56 match" not in text or "all agree" not in text:
        error = f"unexpected check output {text!r}"
    links = 0
    for line in text.splitlines():
        if line.endswith(" match"):
            links += int(line.split("/")[1].split()[0])
        elif line.startswith("checked "):
            links += int(line.split()[1])
    # A run that printed no summary still attempted one operation.
    return PassOutput(text.encode(), max(links, 1), seconds, [], [], error)


def run_pass(name: str, inputs, pause=lambda: None) -> PassOutput:
    if name == "check":
        return check_pass(inputs)
    return slope_pass(inputs, pause)


def oracle_mismatches(results) -> int:
    """Links whose slope forms the edgewise algorithm does not reproduce.

    For each link every minimal Dt path must give the same form by the
    push and the edgewise computations, the rebased edgewise forms must
    be exactly the link's reported forms, and every t = 1 path through an
    odd diagonal must agree symbolically.
    """
    from twobridge.diagram import Diagrams, minimal_paths
    from twobridge.slopes import (m_form, m_form_edgewise, s_form_symbolic,
                                  to_preferred)

    bad = 0
    for res in results:
        link = res.link
        diagrams = Diagrams(link)
        target = link.fraction()
        edgewise = set()
        ok = True
        for path in minimal_paths(diagrams.dt, twobridge.INFINITY, target):
            form = m_form_edgewise(path)
            ok &= form == m_form(path)
            edgewise.add(to_preferred(form, res.linking_number))
        ok &= tuple(sorted(edgewise)) == res.mforms
        for path in minimal_paths(diagrams.d1, twobridge.INFINITY, target):
            if "C" in path.edge_types():
                ok &= s_form_symbolic(path) == m_form_edgewise(path)
        bad += not ok
    return bad
