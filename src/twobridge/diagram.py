"""Quadrilateral chains and the three edge-path diagrams over them.

The hyperbolic plane is tiled by the images of the ideal quadrilateral
with vertices 1/0, 0/1, 1/2, 1/1 under the determinant-one matrices with
even lower-left entry.  A quadrilateral is stored as one such matrix g
and its vertices: the columns give two opposite ideal vertices a/c and
b/d, and the other two vertices are (a+b)/(c+d) and (a+2b)/(c+2d).  The two vertices with
even denominator (1/0 counts as even) span one diagonal, the two odd
ones the other.

Between 1/0 and any p/q there is a unique minimal chain of
quadrilaterals (the edge-path setting of Hatcher and Thurston).  Since
the tiling is the orbit of the base quadrilateral, the chain is walked
by frame products: the target is kept in the current frame, w = g^-1(p/q),
three sign tests on w pick the side whose boundary arc holds it, and the
quadrilateral across side s has frame g*M_s for one of four fixed
matrices M_s, after which w becomes M_s^-1(w).  The walk stops when w is
a vertex of the base quadrilateral.

Three diagrams are built over a chain:

* D1: the sides of every quadrilateral plus the diagonal joining its two
  odd vertices; each quadrilateral is cut into two triangle cells.
* D0: the same sides plus the opposite (even) diagonal; again two
  triangles per quadrilateral.
* Dt: the deformed diagram.  Every side acquires a midpoint vertex and
  each quadrilateral an inscribed rectangle through its four midpoints,
  giving five cells per quadrilateral: four corner triangles and the
  rectangle.  Edges fall into four oriented classes:

    A  even vertex -> midpoint        (half of a side)
    B  odd vertex -> midpoint         (the other half)
    C  rectangle side cutting off an even vertex
    D  rectangle side cutting off an odd vertex

Each quadrilateral after the first shares exactly one side with the
chain before it, and brings two new rationals.  One walk over a chain
numbers its rationals in that order, records each quadrilateral's four
ids and shared side, and ranks the rationals by value, once: the chain's
skeleton (``Chain.skeleton``).  Every complex over the chain takes its
rationals' ids and ranks from it, and Dt numbers its midpoints after
them.  The builders number edges and cells by position, since only the
shared side's edges already exist, and append each new edge, its two
cells among them, to flat per-edge lists of ints and shared values.  A
path is a tuple of traversal numbers (``2*e`` runs edge e forward,
``2*e + 1`` backward), and every view of it is read from those ints;
the ``Edge`` objects of a complex are made, all at once, only when
something displays them.

An edge path is minimal if no two consecutive edges lie in a common
cell; such a walk never comes back to a vertex.  Minimal paths from 1/0
to p/q index the spanning surfaces and stay inside the chain.  One
function (``_walk_graph``) gives the walks between two vertices as
successor lists: a backward pass from the end marks the traversals that
lead on to it, and a pass forward from the start lists, for each
traversal it reaches, the marked ones that may follow it.  A
depth-first search over those lists finds every minimal path
(``minimal_paths``), and a forward pass over the same lists, put in
order (``walk_order``), counts or sums over the paths without listing
them.  Most of the search's steps have no choice to make, so it moves
over forced runs, one move per run where a plain search makes one per
edge.

The slope algorithms straighten each Dt or D1 path across its cells and
add per-step terms: a determinant sum and signed push counts.  One
function, the straightening step (``_stepper``), says what a traversal
adds, given the last rational vertex before it.  The search stores the
step's terms summed over each run beside the run and adds them as it
moves, so each path comes out with its sums and no path is walked again
from 1/0; ``TypedPath.sums`` folds the same step over a path built
otherwise.

``link_paths`` lists the paths every slope comes from; ``not_limits``,
the t = 1 paths among them that are the ``collapse`` of no Dt path.
The first ``collapse`` into D1 or D0 maps every Dt traversal there at
once, by ids alone: a rational keeps its id, a midpoint goes to the id
of its side's odd endpoint in D1 and of its even one in D0, and each Dt
edge to the target edge between its ends' images.  A path then
collapses by reading off its traversals' images.  Only the skeleton's
walk, Dt's numbering of its midpoints and the two ends of a search look
a vertex up by value; ``collapse`` looks up none.

``minimal_paths`` runs with the cyclic garbage collector paused
(``_paused``), as the engine makes no reference cycles for it to free.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import cached_property, wraps
from itertools import repeat
from operator import add, itemgetter, mul
from typing import NamedTuple

from .arith import Frac, GMat, INFINITY, TwoBridgeLink, make_link


class Corner(NamedTuple):
    """Rectangle vertex sitting on a quadrilateral side, shared with the
    neighbouring quadrilateral across that side."""

    lo: Frac
    hi: Frac

    def __str__(self) -> str:
        return f"mid({self.lo},{self.hi})"


Vertex = Frac | Corner


# NamedTuple's generated ``__new__`` is a Python function that calls
# tuple.__new__(cls, fields); the hot constructors below call the latter
# directly and skip that frame.
_new = tuple.__new__


def _paused(fn):
    """fn, run with the cyclic garbage collector paused and its state
    put back after, on return or raise; a call made while it is already
    off leaves it alone.  The engine makes no reference cycles, so a
    collection during a call could free nothing, yet would walk every
    path and complex the call holds (tier-1 checks this:
    ``tests/test_diagram.py::TestCollectorPause::test_the_engine_makes_no_cycles``).
    A cycle made all the same is freed by the first collection after."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _point(num: int, den: int) -> Frac:
    """The Frac of a coprime pair, as the columns of a determinant-one
    matrix and their mediants are: only the sign needs normalising."""
    if den > 0:
        return _new(Frac, (num, den))
    if den < 0:
        return _new(Frac, (-num, -den))
    return INFINITY


def _frame(a: int, b: int, c: int, d: int) -> GMat:
    """The GMat of a product of determinant-one matrices: the product
    needs only the sign normalised, not the determinant checked."""
    if c < 0 or (c == 0 and a < 0):
        return _new(GMat, (-a, -b, -c, -d))
    return _new(GMat, (a, b, c, d))


class Quad(NamedTuple):
    """One quadrilateral of the tiling, framed by a matrix with even b
    (each quadrilateral has exactly one such frame up to sign), with its
    four vertices and the frames of its sides computed once by
    ``Quad.of`` (from g as ``GMat.make`` normalises it).

    The sides are numbered 0: {p1, p2}, 1: {p2, p4}, 2: {p4, p3} and
    3: {p3, p1}.  Side 0 is carried from the reference side {1/0, 0/1}
    by g, side 3 by gs = g*[[1, 1], [0, 1]] (the next frame around p1),
    side 2 by gr = g*[[1, -1], [2, -1]] (the half-turn of the base
    quadrilateral) and side 1 by grs = gr*[[1, 1], [0, 1]]."""

    g: GMat
    p1: Frac                       # even denominator
    p2: Frac                       # odd denominator
    p3: Frac                       # odd denominator
    p4: Frac                       # even denominator
    gs: GMat
    gr: GMat
    grs: GMat

    @staticmethod
    def of(g: GMat) -> "Quad":
        a, b, c, d = g
        gr = e, f, h, k = _frame(a + 2 * b, -a - b, c + 2 * d, -c - d)
        return _new(Quad, (g, _point(a, c), _point(b, d),
                           _point(a + b, c + d), _point(a + 2 * b, c + 2 * d),
                           _new(GMat, (a, a + b, c, c + d)), gr,
                           _new(GMat, (e, e + f, h, h + k))))

    def vertices(self) -> tuple[Frac, Frac, Frac, Frac]:
        return (self.p1, self.p2, self.p3, self.p4)


# Crossing side s of the base quadrilateral (sides numbered as in
# Quad) leads to the quadrilateral framed by M_s; the target then
# moves by M_s^-1.  Each entry is (M_s, M_s^-1), taken up to sign.
_CROSSINGS = (
    ((-1, 0, 2, -1), (1, 0, 2, 1)),        # {1/0, 0/1}
    ((1, 0, 2, 1), (1, 0, -2, 1)),         # {0/1, 1/2}
    ((1, -2, 2, -3), (3, -2, 2, -1)),      # {1/2, 1/1}
    ((3, -2, 2, -1), (1, -2, 2, -3)),      # {1/1, 1/0}
)


class _Skeleton:
    """The numbering that every complex over one chain shares.

    ``ids`` numbers the chain's rationals in the order they are first
    seen, so its keys list them by id.  ``quads[i]`` is (id of p1, p2,
    p3, p4, shared side) for quadrilateral i, the shared side numbered as
    in ``Quad`` (None for the first quadrilateral): each one after the
    first shares exactly one side with the chain before it, and its two
    vertices off that side are new.  ``rank[i]`` is the place of rational
    i in value order, 1/0 last.
    """

    __slots__ = ("ids", "quads", "rank")

    def __init__(self, chain: list[Quad]):
        self.ids = ids = {}
        self.quads = quads = []

        def new(v: Frac) -> int:
            if v in ids:
                raise RuntimeError(f"vertex {v} of the chain numbered twice")
            vid = ids[v] = len(ids)
            return vid

        for quad in chain:
            p1, p2, p3, p4 = quad.vertices()
            if not ids:
                quads.append((new(p1), new(p2), new(p3), new(p4), None))
                continue
            try:
                if p1 in ids:
                    i1, i4 = ids[p1], new(p4)
                    quads.append((i1, ids[p2], new(p3), i4, 0) if p2 in ids
                                 else (i1, new(p2), ids[p3], i4, 3))
                else:
                    i1, i4 = new(p1), ids[p4]
                    quads.append((i1, ids[p2], new(p3), i4, 1) if p2 in ids
                                 else (i1, new(p2), ids[p3], i4, 2))
            except KeyError:
                raise RuntimeError(f"quadrilateral {quad.g} shares no side "
                                   f"with the chain before it") from None
        self.rank = rank = [0] * len(ids)
        for r, v in enumerate(sorted(ids, key=Frac.key)):
            rank[ids[v]] = r


class Chain(list):
    """The quadrilaterals of a chain, in order, as ``quad_chain`` gives
    them.  ``skeleton``, made on first use, numbers the chain's rationals
    for every complex built over it."""

    @cached_property
    def skeleton(self) -> _Skeleton:
        return _Skeleton(self)


def quad_chain(link: TwoBridgeLink) -> Chain:
    """The minimal chain of quadrilaterals from 1/0 to p/q.

    Starts at the base quadrilateral and repeatedly crosses the side
    whose boundary arc contains p/q, stopping once p/q is a vertex.  The
    target is kept in the current frame as an integer pair (n, m), so
    each step is one matrix product and three sign tests.
    """
    n, m = link.p, link.q
    g = GMat(1, 0, 0, 1)
    chain = Chain([Quad.of(g)])
    while True:
        if m < 0:
            n, m = -n, -m
        # Stop at a vertex of the base quadrilateral: 1/0, 0/1, 1/1, 1/2.
        if m == 0 or n == 0 or n == m or 2 * n == m:
            return chain
        s = 0 if n < 0 else 1 if 2 * n < m else 2 if n < m else 3
        if len(chain) == 1 and s in (0, 3):
            # Only targets outside (0, 1) lie beyond a side at 1/0.
            raise RuntimeError(f"{link.fraction()} lies in no side arc of "
                               f"{chain[0].g} ({link})")
        (e, f, h, k), (u, v, x, y) = _CROSSINGS[s]
        a, b, c, d = g
        g = _frame(a * e + b * h, a * f + b * k, c * e + d * h, c * f + d * k)
        n, m = u * n + v * m, x * n + y * m
        chain.append(Quad.of(g))


class Edge(NamedTuple):
    """Oriented edge of a diagram.

    ``g`` carries the reference edge of the class onto this edge; a path
    traverses the edge with sign +1 (tail to head) or -1.  ``detour`` is
    the vertex the edge can be pushed across when eliminating it.
    """

    etype: str
    tail: Vertex
    head: Vertex
    g: GMat
    detour: Frac | None = None

    def __str__(self) -> str:
        return f"{self.etype}:{self.tail}->{self.head}"


def _stepper(cx: DiagramComplex):
    """The straightening step of cx: ``step(u, pn, pd)`` gives what
    traversal u adds to the sums (k, a, b) of a path whose last rational
    vertex so far is pn/pd (pd 0 when that is 1/0 or there is none yet),
    as (dk, da, db, qn, qd), with qn/qd the last rational vertex after
    u.

    Straightening replaces every edge with a detour (a rectangle side of
    Dt, an odd diagonal of D1) by the two edges around its detour
    vertex.  k is the determinant sum over consecutive rational vertices
    of the straightened path (a pair with 1/0 adds nothing).  On Dt, a
    and b are the signed counts of corner triangles crossed at even
    vertices (C edges, counted against the grain) and at odd vertices (D
    edges, with it).  On D1, a and b count the odd diagonals crossed in
    their positive and in their negative pushing sense.  A diagonal is
    built from p3 to p2 of its quadrilateral and its positive sense runs
    from p2, so it is pushed positively exactly when it is traversed
    backward.  D0 edges have no detour, so there a and b stay 0.

    ``step`` reads the complex's lists from its closure, not from cx on
    every call.  ``tests/oracles.py`` keeps the step-by-step reference
    for these sums: the path straightened into its rational vertices,
    their determinant sum, and the diagonals' senses found from the
    geometry.
    """
    types, detours, verts, heads = cx._types, cx._detours, cx._verts, cx._heads
    d1 = cx.kind == "D1"

    def step(u: int, pn: int, pd: int) -> tuple[int, int, int, int, int]:
        back = u & 1                # the sign of the traversal is 1 - 2*back
        dk = da = db = 0
        v = detours[u >> 1]
        if v is not None:
            if d1:
                da, db = back, 1 - back
            elif types[u >> 1] == "C":
                da = 2 * back - 1
            else:
                db = 1 - 2 * back
            vn, vd = v
            if pd and vd:
                dk = pn * vd - vn * pd
            pn, pd = vn, vd
        v = verts[heads[u]]
        if isinstance(v, Frac):
            vn, vd = v
            if pd and vd:
                dk += pn * vd - vn * pd
            pn, pd = vn, vd
        return dk, da, db, pn, pd

    return step


def _fold(cx: DiagramComplex, trav: tuple[int, ...]) -> tuple[int, int, int]:
    """The sums (k, a, b) of the traversals ``trav``, a path of cx: the
    straightening step folded over them from the path's start."""
    step = _stepper(cx)
    k = a = b = 0
    start = cx._verts[cx._ends[trav[0]]]
    pn, pd = start if isinstance(start, Frac) else (0, 0)
    for t in trav:
        dk, da, db, pn, pd = step(t, pn, pd)
        k += dk
        a += da
        b += db
    return k, a, b


@dataclass(slots=True, unsafe_hash=True)
class TypedPath:
    """A vertex-to-vertex edge path in the complex ``cx``, one of the
    three diagrams: the tuple ``trav`` of its traversal numbers, from
    which every other view is read.

    ``sums`` is the (k, a, b) that the straightening step (``_stepper``)
    adds up over the whole path: what ``m_form``, ``s_form`` and
    ``s_form_symbolic`` read, and (k, 0, 0) on D0.  ``minimal_paths``
    fills it in as it finds the path; a path built otherwise folds the
    step over its traversals on first use (``_fold``).  It is immutable
    by convention: a frozen dataclass costs several times as much to
    construct.
    """

    cx: DiagramComplex
    trav: tuple[int, ...]
    _sums: tuple[int, int, int] | None = field(default=None, compare=False,
                                               repr=False)

    @property
    def kind(self) -> str:
        return self.cx.kind

    @property
    def sums(self) -> tuple[int, int, int]:
        if self._sums is None:
            self._sums = _fold(self.cx, self.trav)
        return self._sums

    @property
    def start(self) -> Vertex:
        return self.cx._verts[self.cx._ends[self.trav[0]]]

    @property
    def end(self) -> Vertex:
        return self.cx._verts[self.cx._heads[self.trav[-1]]]

    def vertices(self) -> list[Vertex]:
        return [self.start, *map(self.cx._verts.__getitem__,
                                 map(self.cx._heads.__getitem__, self.trav))]

    def rationals(self) -> list[Frac]:
        return [v for v in self.vertices() if isinstance(v, Frac)]

    def edge_types(self) -> str:
        types = self.cx._types
        return "".join([types[t >> 1] for t in self.trav])

    def __str__(self) -> str:
        types, verts, heads = self.cx._types, self.cx._verts, self.cx._heads
        bits = [str(self.start)]
        for t in self.trav:
            bits.append(f"[{types[t >> 1]}{'-' if t & 1 else '+'}]")
            bits.append(str(verts[heads[t]]))
        return " ".join(bits)


_TYPE_RANK = {"A": 0, "B": 1, "C": 2, "D": 3}


class _Shape:
    """The edges a builder files for each quadrilateral, in filing
    order: their type letters and the side (numbered as in ``Quad``, -1
    inside) each lies on.  ``on_side[s]`` lists the edges on side s.
    ``keep[s]``, for the side s shared with the chain before (None for
    the first quadrilateral), is (pick, pick2, types): ``pick`` takes
    the new edges' entries from a tuple with one entry per edge,
    ``pick2`` from one with two, and ``types`` are their letters."""

    def __init__(self, types: str, sides: tuple[int, ...]):
        self.types = types
        self.on_side = {s: [e for e, x in enumerate(sides) if x == s]
                        for s in range(4)}
        self.keep = {}
        for s in (None, 0, 1, 2, 3):
            kept = [e for e, x in enumerate(sides) if x != s]
            self.keep[s] = (itemgetter(*kept),
                            itemgetter(*[i for e in kept for i in (2 * e, 2 * e + 1)]),
                            [types[e] for e in kept])


class DiagramComplex:
    """Vertices, typed edges and 2-cells of one diagram over a chain.

    ``_ids`` numbers the vertices, so its keys list them by id: first the
    rationals, with the ids of the chain's skeleton (``Chain.skeleton``),
    then, in Dt, the midpoints in the order the builder meets them.  The
    midpoint with id (number of rationals) + j lies on the side whose
    even and odd endpoints have the ids ``_mid_ends[2*j]`` and
    ``_mid_ends[2*j + 1]``.  ``_rank[v]`` is the place of vertex v in
    ``vertices()``; a complex filed by hand, with no ranks from a
    skeleton, keeps the order in which it numbered its vertices.

    Cell j of quadrilateral i is cell i * (cells per quadrilateral) + j,
    in the order each builder gives.  An edge lies in one cell of each
    quadrilateral it belongs to, so in at most two.  The builders file
    edge e as entry e of flat per-edge lists of ints and shared values:
    ``_types`` (its letter), ``_ends`` (the ids of its tail at 2*e and
    head at 2*e + 1), ``_frames``, ``_detours`` and ``_cells`` (its cells
    at 2*e and 2*e + 1, the same cell twice until a second quadrilateral
    adds its own).  ``_freeze`` splits the cells into ``_c0`` and ``_c1``
    (edge e lies in cells ``_c0[e]`` and ``_c1[e]``) and makes
    ``_index``, which maps tail id * |V| + head id to the edge.
    Traversals are numbered 2*e (edge e tail to head) and 2*e + 1 (head
    to tail); traversal t leaves vertex ``_ends[t]`` and reaches vertex
    ``_heads[t]``.  ``_out[v]`` lists the traversals leaving vertex v in
    the order the path search tries them.  ``edges[e]`` is the ``Edge``
    of edge e, made for display on the first read.  ``_image``, filled by
    the first ``collapse`` into this complex, lists the image here of
    every traversal of the Dt complex over the same chain.
    """

    def __init__(self, kind: str, chain: list[Quad]):
        self.kind = kind
        self.chain = chain if isinstance(chain, Chain) else Chain(chain)
        self._ids: dict[Vertex, int] = {}
        self._rank: list[int] | None = None
        self._mid_ends: list[int] = []
        self._types: list[str] = []
        self._ends: list[int] = []
        self._frames: list[GMat] = []
        self._detours: list[Frac | None] = []
        self._cells: list[int] = []
        # (type, tail id, head id, frame, detour, cell) of each edge
        # built again on a shared side, checked by _freeze.
        self._rebuilt: list[tuple] = []
        self._image: list[int] | None = None

    # -- construction ------------------------------------------------

    def _new_vertex(self, v: Vertex) -> int:
        if v in self._ids:
            raise RuntimeError(f"vertex {v} of {self.kind} numbered twice")
        vid = self._ids[v] = len(self._ids)
        return vid

    def _number_rationals(self) -> list[tuple[int, int, int, int, int | None]]:
        """Give the complex the ids and value ranks of its chain's
        rationals, from the skeleton; return the skeleton's ``quads``."""
        skeleton = self.chain.skeleton
        self._ids, self._rank = dict(skeleton.ids), skeleton.rank
        return skeleton.quads

    def _file(self, shape: _Shape, shared: int | None, ends: tuple,
              frames: tuple, detours: tuple, cells: tuple) -> None:
        """File one quadrilateral's edges, given in ``shape``'s order:
        ``ends`` and ``cells`` with two entries per edge (as in
        ``_ends`` and ``_cells``), the others with one.  The edges on the
        side ``shared`` exist already and go to ``_rebuilt``; the others
        are new and are appended."""
        pick, pick2, types = shape.keep[shared]
        if shared is not None:
            for e in shape.on_side[shared]:
                self._rebuilt.append((shape.types[e], ends[2 * e], ends[2 * e + 1],
                                      frames[e], detours[e], cells[2 * e]))
        self._types += types
        self._ends += pick2(ends)
        self._frames += pick(frames)
        self._detours += pick(detours)
        self._cells += pick2(cells)

    def _freeze(self) -> None:
        types, ends, cells = self._types, self._ends, self._cells
        frames, detours = self._frames, self._detours
        self._verts = verts = list(self._ids)
        n = len(verts)
        tails, heads = ends[0::2], ends[1::2]
        # No two distinct edges of one diagram join the same vertex pair,
        # so the pair alone identifies an edge.
        self._index = index = dict(zip(
            map(add, map(mul, tails, repeat(n)), heads), range(len(types))))
        # An edge built again on a shared side must be the edge filed
        # there, in the same direction, and in no second quadrilateral
        # yet; it adds its cell to that edge.
        for etype, tail, head, frame, detour, cell in self._rebuilt:
            e = index.get(tail * n + head)
            if (e is None or cells[2 * e] != cells[2 * e + 1]
                    or (types[e], frames[e], detours[e]) != (etype, frame, detour)):
                raise RuntimeError(f"inconsistent edge rebuild: "
                                   f"{etype}:{verts[tail]}->{verts[head]} is not "
                                   f"the edge filed between them")
            cells[2 * e + 1] = cell
        self._c0, self._c1 = cells[0::2], cells[1::2]
        self._heads = reached = ends[:]
        reached[0::2], reached[1::2] = heads, tails
        # The builders give the rationals their value ranks; Dt's
        # midpoints follow, ordered by the ranks of their side's lower
        # endpoint, then of its upper one.
        rank = self._rank
        if rank is None:
            rank = list(range(n))
        elif self._mid_ends:
            r, mid = len(rank), self._mid_ends
            even = list(map(rank.__getitem__, mid[0::2]))
            odd = list(map(rank.__getitem__, mid[1::2]))
            keys = list(map(add, map(mul, map(min, even, odd), repeat(r)),
                            map(max, even, odd)))
            rank = rank + [0] * len(keys)
            for i, j in enumerate(sorted(range(len(keys)), key=keys.__getitem__), r):
                rank[r + j] = i
        self._rank = rank
        # Traversals leave a vertex by edge type, then by the rank of
        # their end vertex.  No two edges join the same pair, so this
        # integer key tells apart all traversals leaving one vertex.
        keys = [0] * len(ends)
        keys[0::2] = keys[1::2] = list(map(mul, map(_TYPE_RANK.__getitem__, types),
                                           repeat(n)))
        keys = list(map(add, keys, map(rank.__getitem__, reached)))
        self._out: list[list[int]] = [[] for _ in verts]
        for t, v in enumerate(ends):
            self._out[v].append(t)
        for out in self._out:
            out.sort(key=keys.__getitem__)
        del self._cells, self._rebuilt

    @cached_property
    def edges(self) -> list[Edge]:
        verts = self._verts
        return list(map(Edge, self._types, map(verts.__getitem__, self._ends[0::2]),
                        map(verts.__getitem__, self._ends[1::2]),
                        self._frames, self._detours))

    # -- queries -----------------------------------------------------

    def vertices(self) -> list[Vertex]:
        """The vertices in order: the rationals by value, then the
        midpoints by the values of their side's endpoints."""
        order: list = [None] * len(self._verts)
        for v, r in zip(self._verts, self._rank):
            order[r] = v
        return order


# Each builder files its edges per quadrilateral in this order.  Dt: the
# A edges on sides 0, 3, 2, 1, the B edges on the same, then the
# rectangle's sides C (at p1, p4) and D (at p2, p3).  D1 and D0: the
# sides 0 to 3, then the diagonal.
_DT = _Shape("AAAABBBBCCDD", (0, 3, 2, 1, 0, 3, 2, 1, -1, -1, -1, -1))
# Dt's new midpoints are numbered in the order of their sides, 0 to 3,
# past the shared one.  ``_NEW_SIDES[shared]`` picks their sides' (even,
# odd) endpoint ids from the pairs of all four sides, (p1, p2), (p4, p2),
# (p4, p3) and (p1, p3).
_NEW_SIDES = {s: itemgetter(*[i for t in range(4) if t != s for i in (2 * t, 2 * t + 1)])
              for s in (None, 0, 1, 2, 3)}
_D1 = _Shape("AAAAC", (0, 1, 2, 3, -1))
_D0 = _Shape("BBBBD", (0, 1, 2, 3, -1))


def _build_dt(cx: DiagramComplex) -> None:
    quads = cx._number_rationals()
    ids, new, file, mid_ends = cx._ids, cx._new_vertex, cx._file, cx._mid_ends
    for qi, (quad, (i1, i2, i3, i4, shared)) in enumerate(zip(cx.chain, quads)):
        g, p1, p2, p3, p4, gs, gr, grs = quad
        # The midpoints of sides 0 to 3, each with the lower endpoint of
        # its side first.  A side's frame, normalised with determinant
        # one, carries 1/0 and 0/1 to its endpoints x/z and y/w.  Here
        # y/w is odd, so w is not 0, and x/z - y/w is 1/(zw): x/z is
        # below y/w (1/0 above all) exactly when w < 0.
        mids = (_new(Corner, (p1, p2) if g.d < 0 else (p2, p1)),
                _new(Corner, (p4, p2) if grs.d < 0 else (p2, p4)),
                _new(Corner, (p4, p3) if gr.d < 0 else (p3, p4)),
                _new(Corner, (p1, p3) if gs.d < 0 else (p3, p1)))
        j12, j24, j43, j31 = [ids[m] if s == shared else new(m)
                              for s, m in enumerate(mids)]
        mid_ends += _NEW_SIDES[shared]((i1, i2, i4, i2, i4, i3, i1, i3))
        c = 5 * qi       # corners at p1, p4, p2, p3, then the rectangle
        file(_DT, shared,
             (i1, j12, i1, j31, i4, j43, i4, j24,
              i2, j12, i3, j31, i3, j43, i2, j24,
              j31, j12, j24, j43, j24, j12, j31, j43),
             (g, gs, gr, grs, g, gs, gr, grs, g, gr, g, gr),
             (None, None, None, None, None, None, None, None, p1, p4, p2, p3),
             (c, c, c, c, c + 1, c + 1, c + 1, c + 1,
              c + 2, c + 2, c + 3, c + 3, c + 3, c + 3, c + 2, c + 2,
              c, c + 4, c + 1, c + 4, c + 2, c + 4, c + 3, c + 4))


def _build_d1(cx: DiagramComplex) -> None:
    quads, file = cx._number_rationals(), cx._file
    for qi, (quad, (i1, i2, i3, i4, shared)) in enumerate(zip(cx.chain, quads)):
        g, p1, p2, p3, p4, gs, gr, grs = quad
        a, b, c, d = g
        k = 2 * qi       # triangles at p1 and p4
        file(_D1, shared, (i1, i2, i4, i2, i4, i3, i1, i3, i3, i2),
             (g, grs, gr, gs, _frame(a + b, b, c + d, d)),
             (None, None, None, None, p1),
             (k, k, k + 1, k + 1, k + 1, k + 1, k, k, k, k + 1))


def _build_d0(cx: DiagramComplex) -> None:
    quads, file = cx._number_rationals(), cx._file
    for qi, (quad, (i1, i2, i3, i4, shared)) in enumerate(zip(cx.chain, quads)):
        g, p1, p2, p3, p4, gs, gr, grs = quad
        c = 2 * qi       # triangles at p2 and p3
        file(_D0, shared, (i2, i1, i2, i4, i3, i4, i3, i1, i1, i4),
             (g, grs, gr, gs, g), (None, None, None, None, None),
             (c, c, c, c, c + 1, c + 1, c + 1, c + 1, c, c + 1))


_BUILDERS = {"Dt": _build_dt, "D1": _build_d1, "D0": _build_d0}


def build_diagram(chain: list[Quad], kind: str) -> DiagramComplex:
    """Build the D0, D1 or Dt complex over a chain of quadrilaterals."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown diagram kind {kind!r}")
    cx = DiagramComplex(kind, chain)
    _BUILDERS[kind](cx)
    cx._freeze()
    return cx


def _live(cx: DiagramComplex, last: int) -> bytearray:
    """Which traversals of cx lead on to vertex ``last``: entry t is 1
    when t enters ``last``, or when some traversal leaving t's head
    that shares no cell with t is live: when t starts a walk to
    ``last``, which is a minimal path (``walk_order``).

    Worked backward from the traversals into ``last``: when a traversal
    u leaving v becomes live, so does every traversal into v that shares
    no cell with u.  ``waiting[v]`` lists the traversals leaving v whose
    reverses, into v, are still dead after some live one left v.  A
    traversal into v shares a cell with at most three of those leaving
    v (its own reverse, and the other edge at v of each of its at most
    two cells), so it waits through at most three of them, and the pass
    is linear in the number of edges.
    """
    out, ends, c0, c1 = cx._out, cx._ends, cx._c0, cx._c1
    live = bytearray(len(ends))
    # Traversals whose reverses are live but not yet worked back from.
    work = out[last][:]
    waiting: list[list[int] | None] = [None] * len(out)
    waiting[last] = []              # every traversal into it is live
    while work:
        x = work.pop()
        u = x ^ 1
        live[u] = 1
        v = ends[u]
        w = waiting[v]
        if w is None:
            # No traversal into v is live before one leaving v is.
            w = out[v]
        elif not w:
            continue
        x0, x1 = c0[x >> 1], c1[x >> 1]
        waiting[v] = keep = []
        for t in w:
            if x0 != c0[t >> 1] != x1 and x0 != c1[t >> 1] != x1:
                work.append(t)
            else:
                keep.append(t)
    return live


def _end_ids(cx: DiagramComplex, start: Vertex, end: Vertex) -> tuple[int, int]:
    """The vertex ids of start and end, two vertices of cx; a
    ``ValueError`` otherwise."""
    first, last = cx._ids.get(start), cx._ids.get(end)
    if first is None or last is None or first == last:
        raise ValueError(f"{start} and {end} are not two vertices of the complex")
    return first, last


def _walk_graph(cx: DiagramComplex, first: int,
                last: int) -> tuple[list[int], list[list[int] | None]]:
    """The walks of cx from vertex ``first`` to vertex ``last`` as
    successor lists, (starts, after).  ``starts`` lists the traversals
    leaving ``first`` that ``_live`` marks as leading on to ``last``.
    For every traversal t that a walk from ``first`` reaches,
    ``after[t]`` lists, in ``_out`` order, the live traversals that may
    follow t: those leaving t's head that share no cell with t, none
    when t enters ``last``.  ``after[t]`` is None for every other
    traversal.

    A stack over the traversals reached builds each one's list once, so
    the pass ends even where walks go round for ever; ``walk_order`` and
    ``minimal_paths`` raise on those."""
    out, heads, c0, c1 = cx._out, cx._heads, cx._c0, cx._c1
    live = _live(cx, last)
    starts = [u for u in out[first] if live[u]]
    after: list[list[int] | None] = [None] * len(heads)
    todo = starts[:]
    while todo:
        t = todo.pop()
        if after[t] is not None:
            continue
        v = heads[t]
        if v == last:
            after[t] = []
            continue
        x0, x1 = c0[t >> 1], c1[t >> 1]
        after[t] = nexts = [w for w in out[v] if live[w]
                            and x0 != c0[w >> 1] != x1 and x0 != c1[w >> 1] != x1]
        todo += nexts
    return starts, after


def _revisit(cx: DiagramComplex, start: Vertex, end: Vertex) -> RuntimeError:
    """The error for a walk of cx that comes back to a vertex."""
    return RuntimeError(f"{cx.kind}: a walk from {start} to {end} comes back to a vertex")


def walk_order(cx: DiagramComplex, start: Vertex,
               end: Vertex) -> list[tuple[int, list[int]]]:
    """The traversals a walk from start to end can take, each with those
    that may follow it, in an order in which every traversal comes before
    all that may follow it.  A traversal into end has none after it.

    A walk takes traversals that ``_live`` marks as leading on to end,
    each leaving the head of the one before and sharing no cell with it,
    and stops at end; ``_walk_graph`` lists them.  No walk comes back to
    a vertex, so the walks are the minimal paths from start to end: a
    forward pass over this order that adds up integers counts them, or
    sums anything else over them, without listing them.

    Were v the first vertex a walk reaches twice, it would go round a
    loop between the visits, bounding a disk R of cells (the chain's
    quadrilaterals, glued along sides into a tree, make a disk).  At an
    ear, a vertex of the loop where R has one cell alone, the loop's two
    edges are sides of that cell, which a walk allows only at v; yet R
    has two ears.  In D1 and D0 no vertex is inside the disk, so R is a
    polygon that triangles triangulate: the two-ears theorem.  In Dt,
    within one quadrilateral R has ears at the rationals of two corner
    triangles, at the corners of a lone cell, or at the rectangle's two
    corners off a lone triangle.  Else the quadrilaterals holding R form
    a tree with two leaves or more, and a leaf joined to the rest across
    its side s has an ear off s: at a rational whose corner triangle is
    in R; else, with the rectangle in R, at the midpoint of the side
    opposite s; else at the far midpoint of a triangle at an end of s.

    The successor lists of ``_walk_graph`` are put in order by
    repeatedly taking a vertex that no traversal not yet placed enters,
    starting at start, and placing every traversal that leaves it.  That
    needs no cycle among the vertices of all the walks together.  No
    order tried has met one: the tests try every pair of vertices through
    7 crossings and the walks from 1/0 to p/q on the deep chains (every
    fourth one), and CI's ``oracle-check`` those on every link through 16
    crossings.  On one this raises (``_revisit``).
    """
    first, last = _end_ids(cx, start, end)
    out, heads = cx._out, cx._heads
    after = _walk_graph(cx, first, last)[1]
    # entering[v] counts the traversals reached into v that are not yet
    # in order.
    entering = [0] * len(out)
    for t, nexts in enumerate(after):
        if nexts is not None:
            entering[heads[t]] += 1
    order = []
    ready = [] if entering[first] else [first]
    while ready:
        for t in out[ready.pop()]:
            if after[t] is not None:
                order.append((t, after[t]))
                v = heads[t]
                entering[v] -= 1
                if not entering[v]:
                    ready.append(v)
    if any(entering):               # a traversal reached is not placed
        raise _revisit(cx, start, end)
    return order


@_paused
def minimal_paths(cx: DiagramComplex, start: Vertex, end: Vertex) -> list[TypedPath]:
    """All minimal edge paths from start to end, with their sums.

    Depth-first search over traversal numbers that reads only the
    complex's int lists and makes no ``Edge``; a step is allowed when
    the new edge shares no cell with the previous one.  No such walk
    comes back to a vertex (``walk_order``), so the search holds no set
    of them; it raises (``_revisit``) when a path or a run (below) takes
    more steps than the complex has vertices less one.  It keeps its own
    stack, and builds runs in a loop, so path length is not bounded by
    the interpreter's recursion limit.

    The search reads the successor lists of ``_walk_graph``, so it
    takes only traversals that ``_live`` marks as leading on to
    ``end``, every step of a path to it among them: it loses no path and
    keeps the order of the others.

    Most traversals have exactly one that may follow them, so the search
    moves over forced runs, not single steps.  The run from u takes u,
    then the one traversal that may follow it, and so on; it stops at
    ``end`` or at a traversal with a choice to make.  A path that takes
    u takes the rest of the run: its steps are live, and it ends only at
    ``end``.  So one move stands for the run's steps one by one.

    The straightening step (``_stepper``) of u depends on u and the last
    rational vertex of the straightened path before it, and after a
    traversal t that vertex is fixed by t alone: t's head if rational,
    else t's detour, else t's tail.  So a run adds the same terms
    (dk, da, db) whenever it follows t.  ``table[t]`` lists the runs
    that may follow t, built the first time t is reached, each as
    (traversals, dk, da, db, last, num, den, done): its traversals, its
    terms, its last traversal and the last rational vertex after that
    (den 0 for 1/0 or none), from which the runs that follow are built,
    and whether it reaches ``end``.  The search keeps one frame per
    move: the runs not yet tried after it, the sums (k, a, b) of the
    path through it, and its run.  A move pushes a frame; a dead end
    pops one and takes its run back off the path.  A path's sums are
    those of the last frame plus the terms of its last run.  The lists
    and ``table`` depend on ``end``, so they live for one call.
    """
    first, last = _end_ids(cx, start, end)
    found: list[TypedPath] = []
    heads = cx._heads
    firsts, after = _walk_graph(cx, first, last)
    step = _stepper(cx)
    longest = len(cx._out) - 1      # steps of a path that revisits no vertex
    table: list[list[tuple] | None] = [None] * len(heads)

    def runs(starts: list[int], pn: int, pd: int) -> list[tuple]:
        # The runs that start with a traversal of ``starts``, after a
        # last rational vertex pn/pd.
        entries = []
        for u in starts:
            k, a, b, qn, qd = step(u, pn, pd)
            run, v = [u], u
            while len(nexts := after[v]) == 1:
                if len(run) == longest:
                    raise _revisit(cx, start, end)
                v = nexts[0]
                dk, da, db, qn, qd = step(v, qn, qd)
                k += dk
                a += da
                b += db
                run.append(v)
            entries.append((tuple(run), k, a, b, v, qn, qd, heads[v] == last))
        return entries

    path: list[int] = []
    pn, pd = start if isinstance(start, Frac) else (0, 0)
    # The first frame is the start's, with no run.
    stack = [(iter(runs(firsts, pn, pd)), 0, 0, 0, ())]
    while stack:
        todo, k, a, b, _ = stack[-1]
        for run, dk, da, db, t, pn, pd, done in todo:
            if len(path) + len(run) > longest:
                raise _revisit(cx, start, end)
            if done:
                found.append(TypedPath(cx, (*path, *run), (k + dk, a + da, b + db)))
                continue
            entries = table[t]
            if entries is None:
                table[t] = entries = runs(after[t], pn, pd)
            path += run
            stack.append((iter(entries), k + dk, a + da, b + db, run))
            break
        else:
            run = stack.pop()[4]
            del path[len(path) - len(run):]
    return found


def collapse(path: TypedPath, target: DiagramComplex) -> TypedPath:
    """Limit of a Dt path in D1 or D0, a path of ``target``.

    Midpoints slide to the odd endpoint of their side in D1 and to the
    even endpoint in D0; edges whose endpoints merge disappear.  The
    first collapse into the target maps every Dt traversal at once, and
    looks up no vertex by value.  Over one chain a rational has the same
    id in Dt and the target (both take it from the chain's skeleton), so
    it keeps its id; a midpoint goes to the id of its side's odd
    endpoint (D1) or even endpoint (D0), read from Dt's ``_mid_ends``.
    Each Dt edge goes through the target's ``_index`` by that pair of
    ids, read forward or backward.  ``target._image[t]`` is the target
    traversal that Dt traversal t maps to, or -1 when its endpoints
    merge.  The Dt complex must be over the target's chain, whose
    builders number the traversals the same way every time, so one list
    serves every Dt path of the chain, and a path maps through it to the
    tuple of its target traversals.
    """
    source = path.cx
    if source.kind != "Dt":
        raise ValueError("only Dt paths collapse")
    if target.kind not in ("D1", "D0"):
        raise ValueError("collapse target must be D1 or D0")
    if source.chain is not target.chain and source.chain != target.chain:
        raise ValueError("a Dt path collapses only into a diagram over its chain")
    image = target._image
    if image is None:
        index, n = target._index, len(target._verts)
        down = [*range(n), *source._mid_ends[target.kind == "D1"::2]]
        image = []
        for u, v in zip(map(down.__getitem__, source._ends[0::2]),
                        map(down.__getitem__, source._ends[1::2])):
            if u == v:
                image += (-1, -1)
            elif (e := index.get(u * n + v)) is not None:
                image += (2 * e, 2 * e + 1)
            else:
                e = index[v * n + u]
                image += (2 * e + 1, 2 * e)
        target._image = image
    return TypedPath(target, tuple([u for t in path.trav if (u := image[t]) >= 0]))


class Diagrams:
    """Chain plus all three complexes for one link, built on demand.
    The link must be in the normal form ``make_link`` gives; any other
    is refused with a ``ValueError``."""

    def __init__(self, link: TwoBridgeLink):
        normal = make_link(*link)
        if normal != link:
            raise ValueError(f"{link} is not in normal form: make_link gives {normal}")
        self.link = link
        self.chain = quad_chain(link)

    @cached_property
    def dt(self) -> DiagramComplex:
        return build_diagram(self.chain, "Dt")

    @cached_property
    def d1(self) -> DiagramComplex:
        return build_diagram(self.chain, "D1")

    @cached_property
    def d0(self) -> DiagramComplex:
        return build_diagram(self.chain, "D0")


def link_paths(link: TwoBridgeLink):
    """The link's ``Diagrams``, its minimal Dt paths and its minimal
    t = 1 paths through an odd diagonal (those that push), all from 1/0
    to p/q: the paths every slope comes from."""
    diagrams = Diagrams(link)
    target = link.fraction()
    dt_paths = minimal_paths(diagrams.dt, INFINITY, target)
    c_paths = [p for p in minimal_paths(diagrams.d1, INFINITY, target)
               if p.sums[1] + p.sums[2] > 0]
    return diagrams, dt_paths, c_paths


def not_limits(dt_paths: list[TypedPath], c_paths: list[TypedPath],
               d1: DiagramComplex) -> list[TypedPath]:
    """The paths of ``c_paths``, in order, that are the ``collapse`` in
    ``d1`` of no path of ``dt_paths``: each path of d1 is keyed by its
    tuple of traversal numbers, equal exactly when the paths are, and
    each collapsed Dt path strikes its key off."""
    unmatched = {p.trav: p for p in c_paths}
    for p in dt_paths:
        unmatched.pop(collapse(p, d1).trav, None)
    return list(unmatched.values())
