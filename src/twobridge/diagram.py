"""Quadrilateral chains and the three edge-path diagrams over them.

The hyperbolic plane is tiled by the images of the ideal quadrilateral
with vertices 1/0, 0/1, 1/2, 1/1 under the determinant-one matrices with
even lower-left entry.  A quadrilateral is stored as one such matrix g
and its vertices: the columns give two opposite ideal vertices a/c and
b/d, and the other two vertices are (a+b)/(c+d) and (a+2b)/(c+2d).  The two vertices with
even denominator (1/0 counts as even) span one diagonal, the two odd
ones the other.  Between 1/0 and any p/q there is a unique minimal chain
of quadrilaterals, found here by walking across the side whose boundary
arc contains p/q.

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

An edge path is minimal if no two consecutive edges lie in a common
cell.  Minimal paths from 1/0 to p/q index the spanning surfaces, and
every one of them stays inside the chain, so a depth-first search over
the chain complex enumerates them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, NamedTuple

from .arith import Frac, GMat, INFINITY, TwoBridgeLink

ROT = GMat.make(1, -1, 2, -1)    # half-turn of the base quadrilateral
SHIFT = GMat.make(1, 1, 0, 1)    # next frame around the vertex 1/0


def _frac_cmp(u: Frac, v: Frac) -> int:
    """-1, 0 or 1 as u is below, equal to or above v; 1/0 is above
    every finite rational."""
    if u.den == 0 or v.den == 0:
        return (u.den == 0) - (v.den == 0)
    d = u.num * v.den - v.num * u.den
    return (d > 0) - (d < 0)


class Corner(NamedTuple):
    """Rectangle vertex sitting on a quadrilateral side, shared with the
    neighbouring quadrilateral across that side."""

    lo: Frac
    hi: Frac

    @staticmethod
    def on_side(u: Frac, v: Frac) -> "Corner":
        return Corner(u, v) if _frac_cmp(u, v) < 0 else Corner(v, u)

    def __str__(self) -> str:
        return f"mid({self.lo},{self.hi})"


Vertex = Frac | Corner


def _point(num: int, den: int) -> Frac:
    """The Frac of a coprime pair, as the columns of a determinant-one
    matrix and their mediants are: only the sign needs normalising."""
    if den > 0:
        return Frac(num, den)
    if den < 0:
        return Frac(-num, -den)
    return INFINITY


class Quad(NamedTuple):
    """One quadrilateral of the tiling, framed by a matrix with even b
    (each quadrilateral has exactly one such frame up to sign), with its
    four vertices computed once by ``Quad.of``."""

    g: GMat
    p1: Frac                       # even denominator
    p2: Frac                       # odd denominator
    p3: Frac                       # odd denominator
    p4: Frac                       # even denominator

    @staticmethod
    def of(g: GMat) -> "Quad":
        a, b, c, d = g
        return Quad(g, _point(a, c), _point(b, d),
                    _point(a + b, c + d), _point(a + 2 * b, c + 2 * d))

    def vertices(self) -> tuple[Frac, Frac, Frac, Frac]:
        return (self.p1, self.p2, self.p3, self.p4)

    def sides(self) -> tuple[tuple[Frac, Frac], ...]:
        _, p1, p2, p3, p4 = self
        return ((p1, p2), (p2, p4), (p4, p3), (p3, p1))


def _even_frame(g: GMat) -> GMat:
    return g if g.b % 2 == 0 else g * ROT


def _far_quad(even: Frac, odd: Frac, current: frozenset[Frac]) -> Quad:
    """The quadrilateral across the side {even, odd} from the current one."""
    det = even.num * odd.den - odd.num * even.den
    if det not in (1, -1):
        raise RuntimeError(f"{even} and {odd} do not span a Farey edge")
    near = GMat.make(even.num, det * odd.num, even.den, det * odd.den)
    far = GMat.make(det * even.num - 2 * odd.num, odd.num,
                    det * even.den - 2 * odd.den, odd.den)
    for cand in (near, far):
        quad = Quad.of(_even_frame(cand))
        if frozenset(quad.vertices()) != current:
            return quad
    raise RuntimeError(f"no quadrilateral across {even},{odd} away from {current}")


def quad_chain(link: TwoBridgeLink) -> list[Quad]:
    """The minimal chain of quadrilaterals from 1/0 to p/q.

    Starts at the base quadrilateral and repeatedly crosses the side
    whose boundary arc contains p/q, stopping once p/q is a vertex.
    """
    target = link.fraction()
    # Sort key of each vertex, made once: consecutive quadrilaterals
    # share a side, so each step meets only two new vertices.
    keys: dict[Frac, tuple] = {}

    def key(v: Frac) -> tuple:
        if v not in keys:
            keys[v] = v.key()
        return keys[v]

    tval = key(target)
    quad = Quad.of(GMat.make(1, 0, 0, 1))
    chain = [quad]
    verts = quad.vertices()
    while target not in verts:
        # Vertices in circular order; consecutive ones span the sides,
        # and the target lies in exactly one side's boundary arc.  Only
        # the base quadrilateral contains 1/0, which sorts last, and the
        # target never sits beyond it.
        ordered = sorted(verts, key=key)
        for u, v in zip(ordered, ordered[1:]):
            if not v.is_infinite and key(u) < tval < key(v):
                break
        else:
            raise RuntimeError(f"{target} lies in no side arc of {quad.g} ({link})")
        even, odd = (u, v) if u.den % 2 == 0 else (v, u)
        quad = _far_quad(even, odd, frozenset(verts))
        chain.append(quad)
        verts = quad.vertices()
    return chain


class Edge(NamedTuple):
    """Oriented edge of a diagram.

    ``g`` carries the reference edge of the class onto this edge; a path
    traverses the edge with sign +1 (tail to head) or -1.  ``detour`` is
    the vertex the edge can be pushed across when eliminating it, and
    ``cpair`` records, for the odd diagonals of D1, the (tail, head) of
    the positive pushing sense.
    """

    etype: str
    tail: Vertex
    head: Vertex
    g: GMat
    detour: Frac | None = None
    cpair: tuple[Frac, Frac] | None = None

    def __str__(self) -> str:
        return f"{self.etype}:{self.tail}->{self.head}"


class Cell(NamedTuple):
    """A 2-cell in quadrilateral ``quad``: a corner triangle of Dt, the
    rectangle, or a triangle of D1 or D0, named by the vertex it sits at."""

    quad: int
    shape: str                     # 'corner', 'rectangle' or 'triangle'
    vertex: Frac | None = None

    @property
    def label(self) -> str:
        return self.shape if self.vertex is None else f"{self.shape} {self.vertex}"


class Step(NamedTuple):
    """One traversed edge of a path."""

    edge: Edge
    sign: int

    @property
    def source(self) -> Vertex:
        return self.edge.tail if self.sign > 0 else self.edge.head

    @property
    def target(self) -> Vertex:
        return self.edge.head if self.sign > 0 else self.edge.tail


@dataclass(frozen=True)
class TypedPath:
    """A vertex-to-vertex edge path in one of the three diagrams."""

    kind: str                  # 'Dt', 'D1' or 'D0'
    steps: tuple[Step, ...]

    @property
    def start(self) -> Vertex:
        return self.steps[0].source

    @property
    def end(self) -> Vertex:
        return self.steps[-1].target

    def vertices(self) -> list[Vertex]:
        out = [self.start]
        out.extend(step.target for step in self.steps)
        return out

    def rationals(self) -> list[Frac]:
        return [v for v in self.vertices() if isinstance(v, Frac)]

    def edge_types(self) -> str:
        return "".join(step.edge.etype for step in self.steps)

    def __str__(self) -> str:
        bits = [str(self.start)]
        for step in self.steps:
            bits.append(f"[{step.edge.etype}{'+' if step.sign > 0 else '-'}]")
            bits.append(str(step.target))
        return " ".join(bits)


_TYPE_RANK = {"A": 0, "B": 1, "C": 2, "D": 3}


class DiagramComplex:
    """Vertices, typed edges and 2-cells of one diagram over a chain.

    Vertices are numbered in the order they are first seen; ``_ids`` and
    ``_verts`` map between a vertex and its id, and ``_index`` maps the
    (lower, higher) id pair of an edge's endpoints to the edge.
    Traversals are numbered 2*e (edge e tail to head) and 2*e + 1 (head
    to tail); ``_steps[t]`` and ``_heads[t]`` are the Step and the id of
    the end vertex of traversal t.  ``_out[v]`` lists the traversals
    leaving vertex v in the order the path search tries them.  ``_next``
    is the search's successor table: ``minimal_paths`` sets entry t, the
    first time it expands t, to the traversals that may follow t (those
    sharing no cell with it).  Filling it up front would cost the square
    of the degree at a fan vertex such as 0/1 in the chain of 1/n.
    """

    def __init__(self, kind: str, chain: list[Quad]):
        self.kind = kind
        self.chain = chain
        self.edges: list[Edge] = []
        self.cells: list[Cell] = []
        self._edge_cells: list[set[int]] = []
        self._ids: dict[Vertex, int] = {}
        self._verts: list[Vertex] = []
        self._index: dict[tuple[int, int], int] = {}
        self._out: list[list[int]] = []
        self._steps: list[Step] = []
        self._heads: list[int] = []
        self._collapsed: dict[Step, Step | None] = {}   # see collapse()

    # -- construction ------------------------------------------------

    def _new_vertex(self, v: Vertex) -> int:
        vid = self._ids[v] = len(self._verts)
        self._verts.append(v)
        self._out.append([])
        return vid

    def _add_edge(self, edge: Edge) -> int:
        # No two distinct edges of one diagram join the same vertex pair,
        # so the pair alone identifies an edge.
        ids = self._ids
        tail = ids.get(edge.tail)
        if tail is None:
            tail = self._new_vertex(edge.tail)
        head = ids.get(edge.head)
        if head is None:
            head = self._new_vertex(edge.head)
        pair = (tail, head) if tail < head else (head, tail)
        idx = self._index.get(pair)
        if idx is not None:
            if self.edges[idx] != edge:
                raise RuntimeError(
                    f"inconsistent edge rebuild: {self.edges[idx]} vs {edge}")
            return idx
        idx = len(self.edges)
        self.edges.append(edge)
        self._edge_cells.append(set())
        self._index[pair] = idx
        self._out[tail].append(2 * idx)
        self._out[head].append(2 * idx + 1)
        self._steps += (Step(edge, 1), Step(edge, -1))
        self._heads += (head, tail)
        return idx

    def _add_cell(self, cell: Cell, edge_ids: Iterable[int]) -> None:
        cid = len(self.cells)
        self.cells.append(cell)
        for eid in edge_ids:
            self._edge_cells[eid].add(cid)

    def _freeze(self) -> None:
        self.edge_cells = [frozenset(s) for s in self._edge_cells]
        self._next: list[tuple[int, ...] | None] = [None] * len(self._steps)
        # Vertex order: rationals by value, then midpoints by their two
        # endpoints.
        verts = self._verts
        rationals = sorted((v for v in verts if isinstance(v, Frac)),
                           key=cmp_to_key(_frac_cmp))
        value_rank = {v: i for i, v in enumerate(rationals)}
        corners = sorted((v for v in verts if isinstance(v, Corner)),
                         key=lambda c: (value_rank[c.lo], value_rank[c.hi]))
        self._order = rationals + corners
        rank = [0] * len(verts)
        for r, v in enumerate(self._order):
            rank[self._ids[v]] = r
        # Traversals leave a vertex by edge type, then by the rank of
        # their end vertex, then forward before backward: one integer
        # key per traversal.
        n = len(verts)
        heads, types = self._heads, [_TYPE_RANK[e.etype] for e in self.edges]

        def order(t: int) -> int:
            return ((types[t >> 1] * n + rank[heads[t]]) << 1) | (t & 1)
        for out in self._out:
            out.sort(key=order)

    # -- queries -----------------------------------------------------

    def vertices(self) -> list[Vertex]:
        return list(self._order)

    def rational_vertices(self) -> list[Frac]:
        return [v for v in self._order if isinstance(v, Frac)]

    def _edge_index(self, u: Vertex, v: Vertex) -> int:
        try:
            iu, iv = self._ids[u], self._ids[v]
            return self._index[(iu, iv) if iu < iv else (iv, iu)]
        except KeyError:
            raise KeyError(f"no edge between {u} and {v}") from None

    def edge_between(self, u: Vertex, v: Vertex) -> tuple[Edge, int]:
        """The unique edge joining u and v, with the sign of the u -> v
        traversal."""
        edge = self.edges[self._edge_index(u, v)]
        return edge, 1 if edge.tail == u else -1


def _side_matrix(u: Frac, v: Frac) -> GMat:
    """Determinant-one matrix with first column the even-denominator
    endpoint; it carries the reference side onto {u, v}."""
    even, odd = (u, v) if u.den % 2 == 0 else (v, u)
    det = even.num * odd.den - odd.num * even.den
    return GMat.make(even.num, det * odd.num, even.den, det * odd.den)


def _build_dt(cx: DiagramComplex) -> None:
    for qi, quad in enumerate(cx.chain):
        p1, p2, p3, p4 = quad.vertices()
        m12 = Corner.on_side(p1, p2)
        m24 = Corner.on_side(p2, p4)
        m43 = Corner.on_side(p4, p3)
        m31 = Corner.on_side(p3, p1)
        g = quad.g
        gs, gr = g * SHIFT, g * ROT
        grs = gr * SHIFT
        a1 = cx._add_edge(Edge("A", p1, m12, g))
        a2 = cx._add_edge(Edge("A", p1, m31, gs))
        a3 = cx._add_edge(Edge("A", p4, m43, gr))
        a4 = cx._add_edge(Edge("A", p4, m24, grs))
        b1 = cx._add_edge(Edge("B", p2, m12, g))
        b2 = cx._add_edge(Edge("B", p3, m31, gs))
        b3 = cx._add_edge(Edge("B", p3, m43, gr))
        b4 = cx._add_edge(Edge("B", p2, m24, grs))
        cu = cx._add_edge(Edge("C", m31, m12, g, detour=p1))
        cl = cx._add_edge(Edge("C", m24, m43, gr, detour=p4))
        dl = cx._add_edge(Edge("D", m24, m12, g, detour=p2))
        dr = cx._add_edge(Edge("D", m31, m43, gr, detour=p3))
        cx._add_cell(Cell(qi, "corner", p1), (a1, cu, a2))
        cx._add_cell(Cell(qi, "corner", p4), (a3, cl, a4))
        cx._add_cell(Cell(qi, "corner", p2), (b1, dl, b4))
        cx._add_cell(Cell(qi, "corner", p3), (b2, dr, b3))
        cx._add_cell(Cell(qi, "rectangle"), (cu, cl, dl, dr))


def _build_d1(cx: DiagramComplex) -> None:
    for qi, quad in enumerate(cx.chain):
        p1, p2, p3, p4 = quad.vertices()
        side = {}
        for u, v in quad.sides():
            even, odd = (u, v) if u.den % 2 == 0 else (v, u)
            side[(u, v)] = cx._add_edge(Edge("A", even, odd, _side_matrix(u, v)))
        a, b, c, d = quad.g
        diag = cx._add_edge(Edge("C", p3, p2, GMat.make(a + b, b, c + d, d),
                                 detour=p1, cpair=(p2, p3)))
        cx._add_cell(Cell(qi, "triangle", p1), (side[(p1, p2)], diag, side[(p3, p1)]))
        cx._add_cell(Cell(qi, "triangle", p4), (side[(p2, p4)], side[(p4, p3)], diag))


def _build_d0(cx: DiagramComplex) -> None:
    for qi, quad in enumerate(cx.chain):
        p1, p2, p3, p4 = quad.vertices()
        side = {}
        for u, v in quad.sides():
            even, odd = (u, v) if u.den % 2 == 0 else (v, u)
            side[(u, v)] = cx._add_edge(Edge("B", odd, even, _side_matrix(u, v)))
        diag = cx._add_edge(Edge("D", p1, p4, quad.g))
        cx._add_cell(Cell(qi, "triangle", p2), (side[(p1, p2)], side[(p2, p4)], diag))
        cx._add_cell(Cell(qi, "triangle", p3), (side[(p4, p3)], side[(p3, p1)], diag))


_BUILDERS = {"Dt": _build_dt, "D1": _build_d1, "D0": _build_d0}


def build_diagram(chain: list[Quad], kind: str) -> DiagramComplex:
    """Build the D0, D1 or Dt complex over a chain of quadrilaterals."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown diagram kind {kind!r}")
    cx = DiagramComplex(kind, chain)
    _BUILDERS[kind](cx)
    cx._freeze()
    return cx


def minimal_paths(cx: DiagramComplex, start: Frac, end: Frac) -> list[TypedPath]:
    """All minimal edge paths from start to end.

    Depth-first search; a step is allowed when the new edge shares no
    cell with the previous one.  Paths never revisit a vertex.  The
    search keeps its own stack, so path length is not bounded by the
    interpreter's recursion limit.
    """
    first, last = cx._ids.get(start), cx._ids.get(end)
    if first is None or last is None:
        raise ValueError(f"{start} or {end} is not a vertex of the complex")
    if first == last:
        return [TypedPath(cx.kind, ())]
    found: list[TypedPath] = []
    kind, out, edge_cells = cx.kind, cx._out, cx.edge_cells
    heads, steps, table = cx._heads, cx._steps, cx._next
    path: list[Step] = []
    ends: list[int] = []                  # vertex id reached by each step
    visited = bytearray(len(out))
    visited[first] = 1
    pending = [iter(out[first])]          # untried traversals per depth
    while pending:
        for t in pending[-1]:
            nxt = heads[t]
            if visited[nxt]:
                continue
            if nxt == last:
                found.append(TypedPath(kind, (*path, steps[t])))
                continue
            successors = table[t]
            if successors is None:
                cells = edge_cells[t >> 1]
                successors = table[t] = tuple(
                    u for u in out[nxt] if not cells & edge_cells[u >> 1])
            path.append(steps[t])
            ends.append(nxt)
            visited[nxt] = 1
            pending.append(iter(successors))
            break
        else:
            pending.pop()
            if path:
                path.pop()
                visited[ends.pop()] = 0
    return found


def is_minimal(cx: DiagramComplex, path: TypedPath) -> bool:
    prev: frozenset[int] | None = None
    for step in path.steps:
        cells = cx.edge_cells[cx._edge_index(step.edge.tail, step.edge.head)]
        if prev is not None and prev & cells:
            return False
        prev = cells
    return True


def collapse(path: TypedPath, target: DiagramComplex) -> TypedPath:
    """Limit of a Dt path in D1 or D0.

    Midpoints slide to the odd endpoint of their side in D1 and to the
    even endpoint in D0; edges whose endpoints merge disappear.  Each
    step's image is remembered on the target, so a step shared by many
    paths is projected once.
    """
    if path.kind != "Dt":
        raise ValueError("only Dt paths collapse")
    if target.kind not in ("D1", "D0"):
        raise ValueError("collapse target must be D1 or D0")
    parity = 1 if target.kind == "D1" else 0

    def project(v: Vertex) -> Frac:
        if isinstance(v, Frac):
            return v
        return v.lo if v.lo.den % 2 == parity else v.hi

    images = target._collapsed
    steps: list[Step] = []
    for step in path.steps:
        image = images.get(step, step)      # a step is never its own image
        if image is step:
            src, dst = project(step.source), project(step.target)
            image = None if src == dst else Step(*target.edge_between(src, dst))
            images[step] = image
        if image is not None:
            steps.append(image)
    return TypedPath(target.kind, tuple(steps))


class Diagrams:
    """Chain plus all three complexes for one link, built on demand."""

    def __init__(self, link: TwoBridgeLink):
        self.link = link
        self.chain = quad_chain(link)
        self._built: dict[str, DiagramComplex] = {}

    def get(self, kind: str) -> DiagramComplex:
        if kind not in self._built:
            self._built[kind] = build_diagram(self.chain, kind)
        return self._built[kind]

    @property
    def dt(self) -> DiagramComplex:
        return self.get("Dt")

    @property
    def d1(self) -> DiagramComplex:
        return self.get("D1")

    @property
    def d0(self) -> DiagramComplex:
        return self.get("D0")
