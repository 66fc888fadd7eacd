"""Step-by-step references for what the engine computes in one pass.

The engine gets the straightening sums of a path from one function that
says what a traversal adds (``twobridge.diagram._stepper``): the path
search adds it up as it steps, and ``TypedPath.sums`` folds it over a
path built otherwise.  The references here take one path at a time
and follow the paper: straighten the path into its rational vertices,
sum the determinants over them and count the cells it was pushed
across.  The sense of a D1 diagonal is found from the geometry, not
from the traversal sign the step reads.  Alongside are the frame
matrices and side list of a quadrilateral, the minimality test of a
path and the traversals that can lead on to a vertex, which only the
construction and path checks use, and a strategy that draws links by
expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import assume, strategies as st

from twobridge.arith import ContFrac, Frac, GMat, frac_cmp, make_link
from twobridge.diagram import Corner

ROT = GMat.make(1, -1, 2, -1)    # half-turn of the base quadrilateral
SHIFT = GMat.make(1, 1, 0, 1)    # next frame around the vertex 1/0


def sides(quad):
    """The four sides of a quadrilateral, numbered as in ``Quad``."""
    p1, p2, p3, p4 = quad.vertices()
    return ((p1, p2), (p2, p4), (p4, p3), (p3, p1))


def on_side(u: Frac, v: Frac) -> Corner:
    """The midpoint of the side {u, v}, its endpoints in increasing
    order (1/0 above all): the order the Dt builder gives them."""
    return Corner(u, v) if frac_cmp(u, v) < 0 else Corner(v, u)


def edge_cells(cx, e: int) -> frozenset:
    """The cells of cx that edge e lies in, from the two cell numbers
    the complex keeps for it (equal when it lies in one)."""
    return frozenset((cx._c0[e], cx._c1[e]))


def traversed(path):
    """Each step of the path as (edge, sign, source, target): traversal
    t runs ``cx.edges[t >> 1]`` forward (sign +1) when t is even."""
    edges = path.cx.edges
    for t in path.trav:
        edge = edges[t >> 1]
        if t & 1:
            yield edge, -1, edge.head, edge.tail
        else:
            yield edge, 1, edge.tail, edge.head


def is_minimal(cx, path) -> bool:
    """Whether no two consecutive steps of the path, a path of cx, share
    a cell of cx."""
    prev = None
    for t in path.trav:
        cells = edge_cells(cx, t >> 1)
        if prev is not None and prev & cells:
            return False
        prev = cells
    return True


def live_reference(cx) -> dict:
    """For every vertex of cx as the end, the traversals (2*e for edge e
    from tail to head, 2*e + 1 back) that lead on to it: those entering
    it, and those with a live successor, a traversal leaving their head
    along an edge that shares no cell with theirs.  The successor
    relation is built once, pair by pair; each live set grows from the
    traversals into its end to its fixpoint, each new member adding
    those of its predecessors not yet in it."""
    leaving, entering = {}, {}
    for e, edge in enumerate(cx.edges):
        for t, tail, head in ((2 * e, edge.tail, edge.head),
                              (2 * e + 1, edge.head, edge.tail)):
            leaving.setdefault(tail, []).append(t)
            entering.setdefault(head, []).append(t)
    predecessors = {t: [] for t in range(2 * len(cx.edges))}
    for v, into in entering.items():
        for t in into:
            for u in leaving[v]:
                if edge_cells(cx, t >> 1).isdisjoint(edge_cells(cx, u >> 1)):
                    predecessors[u].append(t)
    out = {}
    for end, into in entering.items():
        live = out[end] = set(into)
        todo = list(live)
        while todo:
            for t in predecessors[todo.pop()]:
                if t not in live:
                    live.add(t)
                    todo.append(t)
    return out


@dataclass
class PushLedger:
    """Signed counts of cell crossings used to straighten a path: corner
    triangles at even vertices (n0), at odd vertices (n1), and the
    rectangle (n4)."""

    n0: int = 0
    n1: int = 0
    n4: int = 0


def delta_sum(vertices) -> int:
    """Determinant sum over consecutive rational vertices: each pair
    contributes p_i*q_{i+1} - p_{i+1}*q_i, or 0 when either is 1/0."""
    verts = list(vertices)
    total = 0
    for a, b in zip(verts, verts[1:]):
        if a.den == 0 or b.den == 0:
            continue
        total += a.num * b.den - b.num * a.den
    return total


def straighten(path) -> tuple[list[Frac], PushLedger]:
    """Replace every rectangle-side edge of a Dt path by the two side
    halves around its corner triangle, recording the crossings.

    A C edge crossed with the grain of its triangle boundary counts
    positively into n0, a D edge into n1; traversals against the grain
    count negatively.  The result is the rational vertex sequence of the
    straightened path.
    """
    if path.kind != "Dt":
        raise ValueError("only Dt paths are straightened")
    ledger = PushLedger()
    seq: list = [path.start]
    for edge, sign, _, target in traversed(path):
        if edge.etype in ("A", "B"):
            seq.append(target)
            continue
        # Boundary of the corner triangle runs against a C edge and with
        # a D edge, so the crossing sense differs by edge type.
        if edge.etype == "C":
            ledger.n0 -= sign
        else:
            ledger.n1 += sign
        seq.append(edge.detour)
        seq.append(target)
    rationals = [v for v in seq if isinstance(v, Frac)]
    return rationals, ledger


def d1_pushes(path) -> tuple[list[Frac], list[int]]:
    """The straightened vertex sequence of a D1 path and the sense of
    each odd diagonal it pushes across its triangle at p1: +1 when the
    step leaves the quadrilateral's p2, which is the second column of
    the diagonal's frame, and -1 when it arrives there."""
    if path.kind != "D1":
        raise ValueError("s_form takes a D1 path")
    seq: list[Frac] = [path.start]
    senses: list[int] = []
    for edge, _, source, target in traversed(path):
        if edge.etype == "A":
            seq.append(target)
            continue
        senses.append(1 if source == edge.g.col2() else -1)
        seq.append(edge.detour)
        seq.append(target)
    return seq, senses


def sums_reference(path) -> tuple[int, int, int]:
    """(k, a, b) of a path, as ``TypedPath.sums`` holds them.  D0 has no
    edge to straighten, so a D0 path's k is the determinant sum over its
    own vertices and a = b = 0."""
    if path.kind == "Dt":
        rationals, ledger = straighten(path)
        return (delta_sum(rationals), ledger.n0, ledger.n1)
    if path.kind == "D0":
        return (delta_sum(path.rationals()), 0, 0)
    seq, senses = d1_pushes(path)
    return (delta_sum(seq), senses.count(1), senses.count(-1))


@st.composite
def links_by_expansion(draw, max_crossings=24, min_crossings=2):
    """Links of ``min_crossings`` to ``max_crossings`` crossings (one
    more when a last term of 1 is raised to 2), drawn as positive
    expansions; expansions with an odd denominator (knots) are skipped."""
    remaining = draw(st.integers(min_crossings, max_crossings))
    body = []
    while remaining > 0:
        body.append(draw(st.integers(1, remaining)))
        remaining -= body[-1]
    body[-1] = max(body[-1], 2)
    value = ContFrac((0,) + tuple(body)).value()
    assume(value.den % 2 == 0)
    return make_link(value.num, value.den)
