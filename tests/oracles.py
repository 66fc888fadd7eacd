"""Step-by-step references for what the engine computes in one pass.

The engine gets the straightening sums of a path from one function that
says what a traversal adds (``twobridge.diagram._stepper``): the path
search adds it up as it goes, and ``TypedPath.sums`` folds it over a
path built otherwise.  The references here take one path at a time
and follow the paper: straighten the path into its rational vertices,
sum the determinants over them and count the cells it was pushed
across.  The sense of a D1 diagonal is found from the geometry, not
from the traversal sign the step reads.  Alongside are the frame
matrices and side list of a quadrilateral, the chain span of a vertex,
the lookup of a traversal by its two vertices, with which the collapse
checks redo ``collapse`` by value, the minimality test of a path, the
traversals that can lead on to a vertex and the minimal paths found by
plain recursion, which only the construction and path checks use, the
push-against-edgewise comparison path by path that
``slopes.oracle_check`` replaces with a certificate, with the faults
planted to test it, the forms and families of ``slope_families``
assembled path by path and form by form, and the links the tests draw
or walk: the one conversion of an expansion into a link, the
enumeration of link types by recursion over expansions, the strategy
that draws links by expansion, and the deep chains.  Last come the
small helpers more than one test module reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from hypothesis import strategies as st

from twobridge.arith import (INFINITY, ContFrac, Frac, GMat, TwoBridgeLink,
                             canonical_rep, crossing_number, frac_cmp,
                             linking_number, make_link)
from twobridge.diagram import (Corner, Diagrams, TypedPath, _stepper,
                               link_paths, minimal_paths)
from twobridge.slopes import (MForm, SlopeFamily, _track_contribution, m_form,
                              m_form_edgewise, s_form, s_form_symbolic,
                              to_preferred)

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


def chain_spans(cx) -> list[tuple[int, int]]:
    """The chain span of each vertex of cx, by id: the first and the last
    quadrilateral of its chain that hold it, as a vertex or, in Dt, as
    the midpoint of a side."""
    spans = {}
    for i, quad in enumerate(cx.chain):
        held = list(quad.vertices())
        if cx.kind == "Dt":
            held += [on_side(u, v) for u, v in sides(quad)]
        for v in held:
            spans[v] = (spans.get(v, (i, i))[0], i)
    return [spans[v] for v in cx._verts]


def edge_cells(cx, e: int) -> frozenset:
    """The cells of cx that edge e lies in, from the two cell numbers
    the complex keeps for it (equal when it lies in one)."""
    return frozenset((cx._c0[e], cx._c1[e]))


def traversal(cx, u, v) -> int:
    """The number of the traversal of cx from vertex u to vertex v,
    looked up by value: 2*e when edge e runs from u to v, 2*e + 1 when
    it runs back; a KeyError when no edge joins them."""
    n, iu, iv = len(cx._ids), cx._ids[u], cx._ids[v]
    e = cx._index.get(iu * n + iv)
    return 2 * cx._index[iv * n + iu] + 1 if e is None else 2 * e


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


def reference_paths(cx, start, end):
    """Minimal paths by plain recursion over the edge list: from each
    vertex, edges are tried by type, then far endpoint (rationals by
    value, then midpoints by their endpoints); no two edges join the
    same pair.  Each path is collected as its traversal numbers."""
    def vertex_key(v):
        if isinstance(v, Frac):
            return (0, v.key(), v.key())
        return (1, v.lo.key(), v.hi.key())

    leaving = {}
    for idx, edge in enumerate(cx.edges):
        leaving.setdefault(edge.tail, []).append((2 * idx, edge.head))
        leaving.setdefault(edge.head, []).append((2 * idx + 1, edge.tail))
    for items in leaving.values():
        items.sort(key=lambda item: (
            "ABCD".index(cx.edges[item[0] >> 1].etype), vertex_key(item[1])))

    found, trav = [], []

    def walk(vertex, visited, last_cells):
        if vertex == end:
            found.append(TypedPath(cx, tuple(trav)))
            return
        for t, target in leaving[vertex]:
            cells = edge_cells(cx, t >> 1)
            if target in visited or last_cells & cells:
                continue
            trav.append(t)
            walk(target, visited | {target}, cells)
            trav.pop()

    walk(start, frozenset({start}), frozenset())
    return found


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
        raise ValueError("straighten takes a Dt path")
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
        raise ValueError("d1_pushes takes a D1 path")
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


def compare_paths(link):
    """``slopes.oracle_check`` the plain way, as (Dt paths, t = 1 paths
    through an odd diagonal, disagreements): every path of
    ``link_paths`` listed, and each one whose push value (``m_form`` or
    ``s_form_symbolic``) differs from its ``m_form_edgewise`` given as
    (diagram kind, traversals, push value, edgewise value)."""
    _diagrams, dt, c = link_paths(link)
    bad = [(path.kind, path.trav, push, track)
           for paths, push_form in ((dt, m_form), (c, s_form_symbolic))
           for path in paths
           if (push := push_form(path)) != (track := m_form_edgewise(path))]
    return len(dt), len(c), bad


def c_count(d1_paths):
    """How many of the t = 1 paths take an odd diagonal."""
    return sum(1 for p in d1_paths if p.sums[1] + p.sums[2] > 0)


RANK = {"T": 0, "endpoint": 1, "S": 2}


def reference_families(mforms, sforms):
    """The families of the preferred forms, assembled one form at a
    time and sorted by branch rank (T, endpoint, S), then as tuples."""
    out = []
    for x, y, z in mforms:
        if x == z:
            out.append(SlopeFamily("T", (x, y, z), ("0", "inf")))
        else:
            out.append(SlopeFamily("T", (x, y, z), ("1", "inf")))
            out.append(SlopeFamily("T", (z, y, x), ("0", "1")))
        if y == 0:
            out.append(SlopeFamily("endpoint", (x,), ("inf", "inf"), phi="second"))
            out.append(SlopeFamily("endpoint", (x,), ("0", "0"), phi="first"))
    out += [SlopeFamily("S", (x, y), ("-1", "1")) for x, y in sforms]
    return tuple(sorted(out, key=lambda f: (RANK[f.branch], f.coeffs, f.domain, f.phi)))


def reference_slopes(link, dt, d1):
    """What ``slope_families`` reports, from the link's minimal Dt and
    t = 1 paths, the way it was first assembled: ``m_form`` of every Dt
    path and ``s_form`` of every t = 1 path through an odd diagonal,
    deduplicated and sorted; those rebased by ``to_preferred``; and the
    families of the rebased forms (``reference_families``).  Returned
    as a dict keyed by the names of the ``LinkSlopes`` fields and
    properties."""
    l = linking_number(link)
    mraw = tuple(sorted({m_form(p) for p in dt}))
    sraw = tuple(sorted({s_form(p) for p in d1 if "C" in p.edge_types()}))
    mforms = tuple(to_preferred(m, l) for m in mraw)
    sforms = tuple(to_preferred(s, l) for s in sraw)
    return {"mforms_raw": mraw, "sforms_raw": sraw, "mforms": mforms,
            "sforms": sforms, "families": reference_families(mforms, sforms)}


def assert_matches_reference(result, dt, d1):
    """Every form and family of the ``LinkSlopes`` equals
    ``reference_slopes`` of the paths, and each family's coefficients
    are a plain tuple."""
    for name, want in reference_slopes(result.link, dt, d1).items():
        assert getattr(result, name) == want, (result.link, name)
    assert all(type(f.coeffs) is tuple for f in result.families), result.link


def shifted_track_contribution(etype, g, sign):
    """A fault on the edgewise side, for ``slopes._track_contribution``:
    every edge adds 2 more to M1's alpha coefficient, which keeps every
    parity."""
    a, b, c, d = _track_contribution(etype, g, sign)
    return a + 2, b, c, d


def shifted_stepper(cx):
    """A fault on the push side, for ``_stepper`` in ``diagram`` and in
    ``slopes``: every traversal of a C edge (a rectangle side cutting off
    an even vertex, or an odd diagonal) adds 2 more to the determinant
    sum, which keeps every parity."""
    step, types = _stepper(cx), cx._types

    def shifted(u, pn, pd):
        dk, da, db, qn, qd = step(u, pn, pd)
        return dk + 2 * (types[u >> 1] == "C"), da, db, qn, qd

    return shifted


def link_of(*terms):
    """The link 1/(t1 + 1/(t2 + ...)) of the expansion [terms]; a
    ValueError when its denominator is odd (a knot)."""
    value = ContFrac((0,) + terms).value()
    return make_link(value.num, value.den)


def expansions_with_sum(total):
    """Term lists [a2..an], all >= 1 and the last >= 2, summing to total,
    by plain recursion."""
    if total >= 2:
        yield (total,)
    for first in range(1, total - 1):
        for rest in expansions_with_sum(total - first):
            yield (first,) + rest


def reference_links(max_crossings, identify_mirrors=True):
    """The link types through ``max_crossings`` the plain way: the value
    of every expansion of each term sum, one canonical fraction per
    type, sorted by ``crossing_number``, then q, then p."""
    seen = set()
    for total in range(2, max_crossings + 1):
        for body in expansions_with_sum(total):
            value = ContFrac((0,) + body).value()
            if value.den % 2 == 0:
                seen.add(canonical_rep(TwoBridgeLink(*value), identify_mirrors))
    return sorted(seen, key=lambda ln: (crossing_number(ln), ln.q, ln.p))


@st.composite
def links(draw, min_crossings=2, max_crossings=14):
    """Links drawn as positive expansions whose terms sum to
    ``min_crossings`` to ``max_crossings``, a last term of 1 raised to 2.
    An odd denominator is repaired, so no draw is thrown away: bumping the
    last term (one more crossing) works when the second-to-last continuant
    is odd, appending a 2 (two more) when it is even."""
    remaining = draw(st.integers(min_crossings, max_crossings))
    body = []
    while remaining > 0:
        body.append(draw(st.integers(1, remaining)))
        remaining -= body[-1]
    body[-1] = max(body[-1], 2)
    for terms in (body, body[:-1] + [body[-1] + 1], body + [2]):
        try:
            return link_of(*terms)
        except ValueError:
            continue
    raise AssertionError("parity repair failed")


def fractions_of_type(link):
    """Every fraction p/q naming the link type of ``link``: its inverse,
    its mirror and the mirror's inverse, in increasing order."""
    p, q = link
    return [TwoBridgeLink(x, q)
            for x in sorted({p, pow(p, -1, q), q - p, pow(q - p, -1, q)})]


def deep_links():
    """1/n, 3/(3n-8), [a, n-a] with a odd near n/2 and [2, n, 2] for n
    from 100 to 500, under every fraction naming their link type."""
    out = []
    for n in range(100, 501, 40):
        a = n // 2 | 1
        for body in ((n,), (n - 3, 3), (a, n - a), (2, n, 2)):
            out.extend(fractions_of_type(link_of(*body)))
    return out


frac = Frac.make


def dt_paths(link):
    """The minimal Dt paths of the link from 1/0 to p/q."""
    return minimal_paths(Diagrams(link).dt, INFINITY, link.fraction())


def expected_surgery_mforms(k):
    """The intersection forms of the minimal Dt paths of the surgery
    link (4k-1)/8k, with their multiplicities, in the blackboard
    framing."""
    forms = [MForm(1, 2, 1), MForm(1, 0, 1), MForm(1, 0, 1),
             MForm(1, -2, 3 - 4 * k), MForm(1 - 4 * k, 0, -1)]
    if k > 1:
        forms.append(MForm(1, -2, 1))
    return Counter(forms)
