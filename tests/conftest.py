"""Fixtures shared by the test modules."""

import gc
from typing import Iterator, NamedTuple

import pytest

from twobridge import diagram
from twobridge.arith import (INFINITY, TwoBridgeLink, crossing_number,
                             enumerate_links)
from twobridge.diagram import Diagrams, TypedPath, minimal_paths
from twobridge.slopes import LinkSlopes, slope_families

from oracles import deep_links


class LinkPaths(NamedTuple):
    """One link, its diagrams and its minimal Dt and D1 paths from 1/0."""

    link: TwoBridgeLink
    crossings: int
    diagrams: Diagrams
    dt: list[TypedPath]
    d1: list[TypedPath]


@pytest.fixture(scope="session")
def paths_through_14() -> Iterator[list[LinkPaths]]:
    """Every link through 14 crossings with its paths, in the order of
    ``enumerate_links(14)``.  The path search is the costly part of the
    checks that walk these paths, so it runs once per session.

    The paths and complexes are about 660,000 objects the collector
    tracks, alive to the end of the session.  Each link's objects go to
    the collector's permanent generation as soon as they are built, so
    that no later collection walks them again.  (On Python 3.11 and two
    CPUs a full collection over all of them takes 0.3 s; without the
    freeze, the build alone ran eight and took 2.6 s instead of 1.45 s.)
    """
    out = []
    for link in enumerate_links(14):
        d = Diagrams(link)
        target = link.fraction()
        out.append(LinkPaths(link, crossing_number(link), d,
                             minimal_paths(d.dt, INFINITY, target),
                             minimal_paths(d.d1, INFINITY, target)))
        gc.freeze()
    yield out
    gc.unfreeze()


@pytest.fixture(scope="session")
def paths_through_12(paths_through_14) -> list[LinkPaths]:
    """The links of ``paths_through_14`` with at most 12 crossings, in
    the order of ``enumerate_links(12)``."""
    return [r for r in paths_through_14 if r.crossings <= 12]


@pytest.fixture(scope="session")
def families_through_12() -> list[LinkSlopes]:
    """``slope_families`` of every link through 12 crossings, in the
    order of ``enumerate_links(12)``, for the checks that read them."""
    return [slope_families(link) for link in enumerate_links(12)]


@pytest.fixture(scope="session")
def deep_chains() -> Iterator[list[Diagrams]]:
    """``Diagrams`` of every link of ``deep_links()``, in its order, each
    chain walked once.  The chains (about 210,000 objects) go to the
    collector's permanent generation, as in ``paths_through_14``."""
    out = [Diagrams(link) for link in deep_links()]
    gc.freeze()
    yield out
    gc.unfreeze()


@pytest.fixture(scope="session")
def deep_paths(deep_chains) -> list[LinkPaths]:
    """Every fourth chain of ``deep_chains`` with its minimal Dt and D1
    paths from 1/0.  Those chains keep their Dt and D1 on their
    ``Diagrams`` to the end of the session (about 27 MB with the
    paths), so that the checks that read them build them once."""
    out = []
    for d in deep_chains[::4]:
        target = d.link.fraction()
        out.append(LinkPaths(d.link, crossing_number(d.link), d,
                             minimal_paths(d.dt, INFINITY, target),
                             minimal_paths(d.d1, INFINITY, target)))
    return out


@pytest.fixture
def wrong_limits(monkeypatch):
    """Breaks the limit check of ``slope_families`` (``not_limits``):
    every collapsed Dt path loses its first step, so no t = 1 path is
    matched."""
    real_collapse = diagram.collapse

    def drop_first_step(path, target):
        down = real_collapse(path, target)
        return TypedPath(target, down.trav[1:])

    monkeypatch.setattr(diagram, "collapse", drop_first_step)
