import gc
import os
import subprocess
import sys
from fractions import Fraction
from operator import itemgetter, lt

import pytest
from hypothesis import given, settings

from twobridge import diagram
from twobridge.arith import (Frac, GMat, INFINITY, TwoBridgeLink,
                             enumerate_links, make_link)
from twobridge.diagram import (_BUILDERS, Corner, DiagramComplex, Diagrams,
                               Edge, Quad, TypedPath, _live,
                               build_diagram, collapse, link_paths,
                               minimal_paths, not_limits, quad_chain,
                               walk_order)
from twobridge.slopes import m_form, m_form_edgewise

from oracles import (ROT, SHIFT, chain_spans, edge_cells, frac,
                     fractions_of_type, is_minimal, link_of, links,
                     live_reference, on_side, reference_paths, sides,
                     sums_reference, traversal)


def all_cells(cx):
    """The cells of every edge of cx, by edge number."""
    return [edge_cells(cx, e) for e in range(len(cx._c0))]


class TestQuadChain:
    def test_hopf_is_one_quad(self):
        chain = quad_chain(make_link(1, 2))
        assert len(chain) == 1
        assert set(chain[0].vertices()) == {INFINITY, frac(0, 1), frac(1, 1), frac(1, 2)}

    def test_whitehead_chain(self):
        chain = quad_chain(make_link(3, 8))
        assert len(chain) == 3
        all_verts = {v for q in chain for v in q.vertices()}
        assert all_verts == {INFINITY, frac(0, 1), frac(1, 1), frac(1, 2),
                             frac(1, 3), frac(1, 4), frac(2, 5), frac(3, 8)}

    def test_second_surgery_link_chain(self):
        chain = quad_chain(make_link(7, 16))
        all_verts = {v for q in chain for v in q.vertices()}
        for p, q in [(2, 5), (3, 7), (4, 9), (7, 16)]:
            assert frac(p, q) in all_verts
        assert len(chain) == 5

    def test_target_outside_the_unit_interval_is_an_error(self):
        with pytest.raises(RuntimeError, match="no side arc"):
            quad_chain(TwoBridgeLink(3, 2))

    def test_errors_survive_optimised_mode(self):
        # The chain, vertex numbering, edge filing and expansion
        # invariants raise explicitly, so they still fire when Python
        # strips asserts.
        code = ("from twobridge.arith import Frac, TwoBridgeLink, cf_positive\n"
                "from twobridge.diagram import (_BUILDERS, DiagramComplex,\n"
                "                               build_diagram, quad_chain)\n"
                "cx = DiagramComplex('D1', [])\n"
                "cx._new_vertex(Frac(1, 2))\n"
                "chain = quad_chain(TwoBridgeLink(13, 34))\n"
                "clash = DiagramComplex('D1', chain)\n"
                "_BUILDERS['D1'](clash)\n"
                "clash._rebuilt[0] = ('C',) + clash._rebuilt[0][1:]\n"
                "for call, text in (\n"
                "        (lambda: cf_positive(TwoBridgeLink(1, 1)), ''),\n"
                "        (lambda: quad_chain(TwoBridgeLink(3, 2)), 'no side arc'),\n"
                "        (lambda: cx._new_vertex(Frac(1, 2)), 'numbered twice'),\n"
                "        (lambda: build_diagram(chain[:1] + chain[2:], 'D1'),\n"
                "         'shares no side'),\n"
                "        (clash._freeze, 'inconsistent edge rebuild')):\n"
                "    try:\n"
                "        call()\n"
                "    except (ValueError, RuntimeError) as error:\n"
                "        if text in str(error):\n"
                "            continue\n"
                "    raise SystemExit(f'no error raised: {text}')\n")
        subprocess.run([sys.executable, "-O", "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})

    def test_stored_vertices_match_the_frame(self, paths_through_14):
        # Quad.of skips the gcd; the frame's columns and mediants are
        # primitive, so Frac.make must give the same vertices.
        chains = [(r.link, r.diagrams.chain) for r in paths_through_14]
        for link in [make_link(1, n) for n in (2, 30, 400)] + [
                link_of(2, m, 2) for m in (1, 50, 340)]:
            chains.append((link, quad_chain(link)))
        for link, chain in chains:
            for quad in chain:
                a, b, c, d = quad.g
                assert quad.vertices() == (
                    Frac.make(a, c), Frac.make(b, d),
                    Frac.make(a + b, c + d), Frac.make(a + 2 * b, c + 2 * d)), link

    def test_every_quad_has_determinant_structure(self):
        for quad in quad_chain(make_link(11, 40)):
            assert quad.g.b % 2 == 0
            assert quad.p1.den % 2 == 0 and quad.p4.den % 2 == 0
            assert quad.p2.den % 2 == 1 and quad.p3.den % 2 == 1


class TestBuildDiagram:
    def test_d1_over_hopf(self):
        cx = build_diagram(quad_chain(make_link(1, 2)), "D1")
        by_type = {}
        for e in cx.edges:
            by_type.setdefault(e.etype, []).append(e)
        assert len(by_type["A"]) == 4
        assert len(by_type["C"]) == 1
        diag = by_type["C"][0]
        assert {diag.tail, diag.head} == {frac(0, 1), frac(1, 1)}
        assert set().union(*all_cells(cx)) == {0, 1}

    def test_d0_over_hopf(self):
        cx = build_diagram(quad_chain(make_link(1, 2)), "D0")
        by_type = {}
        for e in cx.edges:
            by_type.setdefault(e.etype, []).append(e)
        assert len(by_type["B"]) == 4
        assert len(by_type["D"]) == 1
        diag = by_type["D"][0]
        assert {diag.tail, diag.head} == {INFINITY, frac(1, 2)}
        assert set().union(*all_cells(cx)) == {0, 1}

    def test_dt_over_hopf(self):
        cx = build_diagram(quad_chain(make_link(1, 2)), "Dt")
        # 8 half-sides + 4 rectangle sides
        assert len(cx.edges) == 12
        # Cells 0-3 are the corner triangles at 1/0, 1/2, 0/1 and 1/1:
        # one at an even vertex reads A, C, A and one at an odd vertex
        # B, D, B.  Cell 4 is the rectangle.
        in_cell = [[e for e, cells in zip(cx.edges, all_cells(cx)) if cid in cells]
                   for cid in range(5)]
        assert str(cx.edges[0]) == "A:1/0->mid(0/1,1/0)"
        assert [sorted(e.etype for e in edges) for edges in in_cell] == [
            ["A", "A", "C"], ["A", "A", "C"], ["B", "B", "D"], ["B", "B", "D"],
            ["C", "C", "D", "D"]]
        corners = (INFINITY, frac(1, 2), frac(0, 1), frac(1, 1))
        for edges, vertex in zip(in_cell, corners):
            assert {e.tail for e in edges if e.etype in "AB"} == {vertex}

    def test_edge_matrices_reproduce_endpoints(self):
        # The stored matrix must carry the reference edge of its class
        # onto the edge: its columns and their mediants pin the
        # quadrilateral, and the edge endpoints sit on the right sides.
        for kind in ("Dt", "D1", "D0"):
            cx = build_diagram(quad_chain(make_link(7, 16)), kind)
            for e in cx.edges:
                g = e.g
                quad_verts = {Frac.make(g.a, g.c), g.col2(),
                              Frac.make(g.a + g.b, g.c + g.d),
                              Frac.make(g.a + 2 * g.b, g.c + 2 * g.d)}
                for v in (e.tail, e.head):
                    if isinstance(v, Frac):
                        assert v in quad_verts
                    else:
                        assert v.lo in quad_verts and v.hi in quad_verts


class TestEdgeIndex:
    def test_traversal_numbers_both_directions(self):
        # Edge e is filed under tail id * |V| + head id and under no
        # other key, so a pair of ids read in both orders finds the
        # traversal 2*e from its tail or 2*e + 1 from its head; two
        # vertices that no edge joins find none.
        for kind in ("Dt", "D1", "D0"):
            cx = build_diagram(quad_chain(make_link(3, 8)), kind)
            n, index = len(cx._ids), cx._index
            assert len(index) == len(cx._types)
            for e in range(len(cx._types)):
                tail, head = cx._ends[2 * e], cx._ends[2 * e + 1]
                assert index[tail * n + head] == e, (kind, e)
                assert head * n + tail not in index, (kind, e)
            u, v = cx._ids[INFINITY], cx._ids[frac(3, 8)]
            assert u * n + v not in index and v * n + u not in index

    def test_rebuilding_an_edge_must_agree(self):
        # The edge on a side shared with the previous quadrilateral is
        # built again, and _freeze checks it against the one filed
        # there, which gains its cell.
        chain = quad_chain(make_link(3, 8))

        def filed():
            cx = DiagramComplex("D1", chain)
            _BUILDERS["D1"](cx)
            return cx

        cx = filed()
        etype, tail, head, frame, detour, cell = cx._rebuilt[0]
        cx._freeze()
        verts = list(cx._ids)
        e = cx._index[tail * len(verts) + head]
        assert cx.edges[e] == Edge(etype, verts[tail], verts[head], frame, detour)
        assert cell in edge_cells(cx, e) and len(edge_cells(cx, e)) == 2
        # the same pair rebuilt with another type, reversed, or framed
        # by another matrix
        for clash in (("C", tail, head, frame, detour, cell),
                      (etype, head, tail, frame, detour, cell),
                      (etype, tail, head, GMat(1, 0, 0, 1), detour, cell)):
            cx = filed()
            cx._rebuilt[0] = clash
            with pytest.raises(RuntimeError, match="inconsistent edge rebuild"):
                cx._freeze()

    def test_a_vertex_is_numbered_once(self):
        cx = DiagramComplex("Dt", [])
        cx._new_vertex(frac(1, 2))
        with pytest.raises(RuntimeError, match="numbered twice"):
            cx._new_vertex(frac(1, 2))


def hand_built_d0(vertices, edges):
    """A D0 complex whose B edges are filed straight into the per-edge
    lists: ((i, j), cells) runs from vertices[i] to vertices[j] and lies
    in the two cells given (a lone cell given twice)."""
    cx = DiagramComplex("D0", [])
    g = quad_chain(make_link(1, 2))[0].g
    ids = [cx._new_vertex(v) for v in vertices]
    for (i, j), cells in edges:
        cx._types.append("B")
        cx._ends += (ids[i], ids[j])
        cx._frames.append(g)
        cx._detours.append(None)
        cx._cells += cells
    cx._freeze()
    return cx


def triangle_d0():
    """A hand-built D0 complex with a triangle 0/1 -> 1/3 -> 1/2 -> 0/1
    on the way from 1/0 to 1/1.  Only 0/1-1/3 and 1/2-0/1 share a cell,
    so either way round the triangle, once, is a chain of steps that
    share no cell with the one before, back at 0/1 and on to 1/1."""
    return hand_built_d0([INFINITY, frac(0, 1), frac(1, 3), frac(1, 2), frac(1, 1)],
                         [((0, 1), (0, 0)), ((1, 2), (1, 5)), ((2, 3), (2, 2)),
                          ((3, 1), (3, 5)), ((1, 4), (4, 4))])


def assert_walks_come_back(cx, end):
    """Both the search and ``walk_order`` raise on cx, whose walks from
    1/0 to end come back to a vertex, which no chain's complex allows."""
    for find in (minimal_paths, walk_order):
        with pytest.raises(RuntimeError, match=f"D0: a walk from 1/0 to {end} "
                                               f"comes back to a vertex"):
            find(cx, INFINITY, end)


class TestMinimalPaths:
    def test_d1_hopf_has_two_paths(self):
        d = Diagrams(make_link(1, 2))
        paths = minimal_paths(d.d1, INFINITY, frac(1, 2))
        assert len(paths) == 2
        routes = {tuple(p.vertices()) for p in paths}
        assert routes == {(INFINITY, frac(0, 1), frac(1, 2)),
                          (INFINITY, frac(1, 1), frac(1, 2))}

    def test_unknown_endpoint_is_an_error(self):
        # 5/8 and the midpoint of {2/3, 3/4} are not vertices; from a
        # vertex to itself no path has a step.
        d = Diagrams(make_link(3, 8))
        stranger = Corner(frac(2, 3), frac(3, 4))
        for start, end in ((INFINITY, frac(5, 8)), (stranger, INFINITY),
                           (INFINITY, stranger), (INFINITY, INFINITY)):
            with pytest.raises(ValueError):
                minimal_paths(d.dt, start, end)

    def test_paths_longer_than_the_recursion_limit(self):
        # [2, m, 2] with m = 340: 344 crossings, paths of over 1000 steps.
        link = link_of(2, 340, 2)
        d = Diagrams(link)
        paths = minimal_paths(d.dt, INFINITY, link.fraction())
        assert max(len(p.trav) for p in paths) > sys.getrecursionlimit()
        for path in paths:
            assert is_minimal(d.dt, path)
            assert m_form(path) == m_form_edgewise(path)

    def test_a_path_never_revisits_a_vertex(self):
        # The two walks round the triangle of ``triangle_d0`` revisit
        # 0/1 and are not paths.  The search keeps no record of the
        # vertices it passed, so it finds them, with five steps among
        # five vertices, and raises.
        cx = triangle_d0()
        assert [str(p) for p in reference_paths(cx, INFINITY, frac(1, 1))] == [
            "1/0 [B+] 0/1 [B+] 1/1"]
        assert_walks_come_back(cx, frac(1, 1))

    def test_a_forced_run_never_revisits_its_own_vertex(self):
        # 1/0 -> 0/1 -> 1/3 -> 1/2 -> 2/5 -> 1/3 -> 1/1, and an edge
        # 1/0-1/1.  0/1-1/3 shares a cell with 1/3-1/1 and with
        # 2/5-1/3, so each of the first four steps has one step that may
        # follow it: the walk through 0/1 is one forced run, round the
        # triangle 1/3, 1/2, 2/5 and back to 1/3, a vertex of its own,
        # before it may leave for 1/1 or go round again.  That walk is
        # no path, and the edge 1/0-1/1 is the only one; the search and
        # ``walk_order`` raise on the walk.
        cx = hand_built_d0([INFINITY, frac(0, 1), frac(1, 3), frac(1, 2), frac(2, 5),
                            frac(1, 1)],
                           [((0, 1), (0, 0)), ((1, 2), (1, 6)), ((2, 3), (2, 2)),
                            ((3, 4), (3, 3)), ((4, 2), (4, 1)), ((2, 5), (5, 6)),
                            ((0, 5), (7, 7))])
        assert [str(p) for p in reference_paths(cx, INFINITY, frac(1, 1))] == [
            "1/0 [B+] 1/1"]
        assert_walks_come_back(cx, frac(1, 1))

    def test_a_walk_round_a_square_is_an_error(self):
        # 1/0 -> 0/1, a square 0/1, 1/3, 1/2, 2/5 whose four sides lie in
        # four cells, and 1/2 -> 1/1.  No two sides of the square share
        # a cell, so a walk may go round it for ever; the search must
        # raise, not hang.
        cx = hand_built_d0([INFINITY, frac(0, 1), frac(1, 3), frac(1, 2), frac(2, 5),
                            frac(1, 1)],
                           [((0, 1), (0, 0)), ((1, 2), (1, 1)), ((2, 3), (2, 2)),
                            ((3, 4), (3, 3)), ((4, 1), (4, 4)), ((3, 5), (5, 5))])
        assert len(reference_paths(cx, INFINITY, frac(1, 1))) == 2
        assert_walks_come_back(cx, frac(1, 1))

    def test_a_forced_run_round_a_triangle_is_an_error(self, monkeypatch):
        # 1/0 -> 0/1, a triangle 0/1, 1/3, 1/2 in three cells, the last
        # side sharing one with 1/0-0/1, and 1/0 -> 1/1.  After 1/0 ->
        # 0/1 each step has one step that may follow it, round the
        # triangle for ever.  None of them leads on to 1/1, so none is
        # live; with every traversal marked live, the run builder must
        # still raise, not hang.
        monkeypatch.setattr(diagram, "_live",
                            lambda cx, last: bytearray([1]) * len(cx._ends))
        cx = hand_built_d0([INFINITY, frac(0, 1), frac(1, 3), frac(1, 2), frac(1, 1)],
                           [((0, 1), (0, 3)), ((1, 2), (1, 1)), ((2, 3), (2, 2)),
                            ((3, 1), (3, 3)), ((0, 4), (4, 4))])
        with pytest.raises(RuntimeError, match="D0: a walk from 1/0 to 1/1 comes back"):
            minimal_paths(cx, INFINITY, frac(1, 1))

    def test_deterministic_order(self):
        d = Diagrams(make_link(13, 34))
        a = [str(p) for p in minimal_paths(d.dt, INFINITY, frac(13, 34))]
        b = [str(p) for p in minimal_paths(d.dt, INFINITY, frac(13, 34))]
        assert a == b

    def test_live_traversals_match_the_reference(self, paths_through_14):
        # What the search may take depends on its end, so every vertex
        # of every diagram is tried as one: the links through 9
        # crossings, a fan (1/40), a long chain of one term ([2, 10, 2]),
        # and two deep chains of 50 quadrilaterals, whose fan vertices of
        # degree about 100 (1/100) and 50 (49/2500 = [51, 49]) put the
        # most pairs of edges through the test for a shared cell.
        diagrams = [r.diagrams for r in paths_through_14 if r.crossings <= 9]
        diagrams += [Diagrams(link) for link in (
            make_link(1, 40), link_of(2, 10, 2), make_link(1, 100),
            make_link(49, 2500))]
        for d in diagrams:
            for cx in (d.dt, d.d1, d.d0):
                reference = live_reference(cx)
                assert set(reference) == set(cx.vertices())
                for end, want in reference.items():
                    live = _live(cx, cx._ids[end])
                    assert ({t for t, x in enumerate(live) if x}
                            == want), (d.link, cx.kind, end)


class TestWalkOrder:
    def test_a_cycle_leaves_no_order(self):
        # A walk of ``triangle_d0`` may go round the triangle 0/1, 1/3,
        # 1/2 and come back to 0/1.
        assert_walks_come_back(triangle_d0(), frac(1, 1))

    def test_no_two_vertices_through_7_crossings_have_a_cycle(self):
        # The order needs more than that no walk comes back: no cycle
        # among the vertices of all walks together, between any two
        # vertices of any of the three complexes.
        pairs = 0
        for link in enumerate_links(7):
            d = Diagrams(link)
            for cx in (d.dt, d.d1, d.d0):
                for start in cx._verts:
                    for end in cx._verts:
                        if start != end:
                            walk_order(cx, start, end)
                            pairs += 1
        assert pairs == 4628

    @staticmethod
    def check_spans(r, cx):
        # Along every traversal of a walk from 1/0 to p/q, the chain
        # span of the vertex never falls, and it stays equal only when
        # both ends lie in one quadrilateral alone.
        span = chain_spans(cx)
        for t, _ in walk_order(cx, INFINITY, r.link.fraction()):
            (a0, a1), (b0, b1) = span[cx._ends[t]], span[cx._heads[t]]
            assert a0 <= b0 and a1 <= b1, (r.link, cx.kind, t)
            assert a0 == a1 or (a0, a1) != (b0, b1), (r.link, cx.kind, t)

    def test_the_chain_span_never_falls_through_12_crossings(self, paths_through_12):
        for r in paths_through_12:
            for cx in (r.diagrams.dt, r.diagrams.d1, r.diagrams.d0):
                self.check_spans(r, cx)

    def test_the_chain_span_never_falls_on_deep_chains(self, deep_paths):
        for r in deep_paths:
            for cx in (r.diagrams.dt, r.diagrams.d1, build_diagram(r.diagrams.chain, "D0")):
                self.check_spans(r, cx)

    def test_walks_are_the_minimal_paths(self, paths_through_12):
        # Every traversal comes before those that may follow it; the
        # traversals are those of the minimal paths, every step of a path
        # is a transition, and counts summed forward give the number of
        # paths.
        for r in paths_through_12:
            end = r.link.fraction()
            d0 = minimal_paths(r.diagrams.d0, INFINITY, end)
            for cx, paths in ((r.diagrams.dt, r.dt), (r.diagrams.d1, r.d1),
                              (r.diagrams.d0, d0)):
                order = walk_order(cx, INFINITY, end)
                position = {t: i for i, (t, _) in enumerate(order)}
                assert set(position) == {t for p in paths for t in p.trav}
                count = {t: int(cx._ends[t] == cx._ids[INFINITY]) for t in position}
                steps = set()
                for t, nexts in order:
                    for u in nexts:
                        assert position[t] < position[u], (r.link, cx.kind)
                        assert cx._ends[u] == cx._heads[t]
                        assert edge_cells(cx, t >> 1).isdisjoint(edge_cells(cx, u >> 1))
                        count[u] += count[t]
                        steps.add((t, u))
                assert steps >= {s for p in paths for s in zip(p.trav, p.trav[1:])}
                assert sum(count[t] for t in position
                           if cx._heads[t] == cx._ids[end]) == len(paths), (r.link, cx.kind)


class TestPathSums:
    def test_search_sums_equal_the_fold_through_14_crossings(self, paths_through_14):
        for r in paths_through_14:
            for paths in (r.dt, r.d1):
                for path in paths:
                    assert path._sums is not None
                    assert path.sums == TypedPath(path.cx, path.trav).sums, (
                        r.link, str(path))

    @pytest.mark.parametrize("p,q", [(3, 8), (13, 34), (89, 144), (1, 40), (19, 50)])
    def test_sums_equal_the_push_reference(self, p, q):
        d = Diagrams(make_link(p, q))
        for cx in (d.dt, d.d1, d.d0):
            for path in minimal_paths(cx, INFINITY, frac(p, q)):
                assert path.sums == sums_reference(path), str(path)

    def test_d1_sums_equal_the_push_reference_through_14_crossings(
            self, paths_through_14):
        # The reference finds each diagonal's sense from the geometry,
        # the straightening step from the traversal sign.
        for r in paths_through_14:
            for path in r.d1:
                assert path.sums == sums_reference(path), (r.link, str(path))

    def test_paths_from_a_midpoint(self):
        # The search and the fold start with no rational vertex, as
        # straightening does.
        d = Diagrams(make_link(13, 34))
        starts = [v for v in d.dt.vertices() if isinstance(v, Corner)]
        for start in starts[:6]:
            paths = minimal_paths(d.dt, start, frac(13, 34))
            assert paths
            for path in paths:
                assert path.start == start
                assert path.sums == sums_reference(path)
                assert path.sums == TypedPath(d.dt, path.trav).sums
                m_form(path)        # parities hold from a midpoint too

    def test_paths_from_a_finite_start(self, paths_through_14):
        # From a rational start the first step has a determinant term,
        # which no search from 1/0 or from a midpoint reaches.
        diagrams = [r.diagrams for r in paths_through_14 if r.crossings <= 10]
        diagrams += [Diagrams(make_link(1, 40)), Diagrams(make_link(19, 50))]
        for d in diagrams:
            start = d.chain[len(d.chain) // 2].p3
            for cx in (d.dt, d.d1, d.d0):
                for path in minimal_paths(cx, start, d.link.fraction()):
                    assert path.start == start
                    assert path.sums == sums_reference(path), (d.link, str(path))
                    assert path.sums == TypedPath(cx, path.trav).sums

    def test_sums_stay_out_of_equality_and_repr(self):
        d = Diagrams(make_link(3, 8))
        path = minimal_paths(d.dt, INFINITY, frac(3, 8))[0]
        copy = fresh_copy(path.vertices(), d.dt)
        assert copy == path and hash(copy) == hash(path)
        assert repr(copy) == repr(path) and "sums" not in repr(path)
        # The same for search paths of every kind and for collapse
        # results; a copy rebuilt from the vertices folds the same sums.
        d = Diagrams(make_link(13, 34))
        dt_paths = minimal_paths(d.dt, INFINITY, frac(13, 34))
        paths = [*dt_paths, *(collapse(p, t) for p in dt_paths for t in (d.d1, d.d0))]
        paths += [*minimal_paths(d.d1, INFINITY, frac(13, 34)),
                  *minimal_paths(d.d0, INFINITY, frac(13, 34))]
        assert {p.kind for p in paths} == {"Dt", "D1", "D0"}
        for path in paths:
            copy = fresh_copy(path.vertices(), path.cx)
            assert copy == path and hash(copy) == hash(path)
            assert repr(copy) == repr(path) and "sums" not in repr(path)
            assert copy._sums is None and copy.sums == path.sums
            assert copy != TypedPath(path.cx, path.trav[:-1])


class TestCollapse:
    def test_side_only_path_collapses_to_its_rationals(self):
        d = Diagrams(make_link(1, 2))
        for path in minimal_paths(d.dt, INFINITY, frac(1, 2)):
            if set(path.edge_types()) <= {"A", "B"}:
                down = collapse(path, d.d1)
                assert [v for v in down.vertices()] == path.rationals()

    def test_two_paths_share_a_limit(self):
        # The two Dt paths through the odd diagonals limit onto the same
        # t = 1 path.
        d = Diagrams(make_link(3, 8))
        paths = minimal_paths(d.dt, INFINITY, frac(3, 8))
        limits = [tuple(collapse(p, d.d1).vertices()) for p in paths]
        expected = (INFINITY, frac(0, 1), frac(1, 3), frac(3, 8))
        assert limits.count(expected) == 2

    def test_collapse_is_minimal_both_ways(self):
        for p, q in [(3, 8), (7, 16), (13, 34), (11, 40)]:
            d = Diagrams(make_link(p, q))
            for path in minimal_paths(d.dt, INFINITY, frac(p, q)):
                assert is_minimal(d.d1, collapse(path, d.d1))
                assert is_minimal(d.d0, collapse(path, d.d0))

    def test_limit_pairs_identify_paths(self):
        for p, q in [(3, 8), (7, 16), (9, 20)]:
            d = Diagrams(make_link(p, q))
            paths = minimal_paths(d.dt, INFINITY, frac(p, q))
            pairs = {(tuple(collapse(pa, d.d0).vertices()),
                      tuple(collapse(pa, d.d1).vertices())) for pa in paths}
            assert len(pairs) == len(paths)

    def test_surgery_family_d1_limit(self):
        # The first path family collapses onto the fan path through 1/1.
        d = Diagrams(make_link(7, 16))
        paths = minimal_paths(d.dt, INFINITY, frac(7, 16))
        limits = {tuple(collapse(p, d.d1).vertices()) for p in paths}
        assert (INFINITY, frac(1, 1), frac(1, 2), frac(4, 9), frac(7, 16)) in limits


def projected(path, target):
    """``collapse`` by value: every vertex projected, and each step
    between two distinct images looked up by that pair, with no memo."""
    parity = 1 if target.kind == "D1" else 0

    def project(v):
        if isinstance(v, Frac):
            return v
        return v.lo if v.lo.den % 2 == parity else v.hi

    verts = [project(v) for v in path.vertices()]
    return TypedPath(target, tuple(traversal(target, u, v)
                                   for u, v in zip(verts, verts[1:]) if u != v))


def copy_vertex(v):
    """A new vertex object equal to v."""
    if isinstance(v, Frac):
        return Frac(v.num, v.den)
    return Corner(copy_vertex(v.lo), copy_vertex(v.hi))


def fresh_copy(vertices, cx):
    """The path of cx through ``vertices``, looked up pair by pair from
    new vertex objects equal to them."""
    verts = [copy_vertex(v) for v in vertices]
    return TypedPath(cx, tuple(traversal(cx, u, v) for u, v in zip(verts, verts[1:])))


class TestCollapseByTraversal:
    """The first ``collapse`` into a target maps every Dt traversal, by
    vertex ids, into a list on the target, and each path maps through
    that list; every entry must still be the projection by value."""

    LONG = {"6765-10946": (6765, 10946), "2-40-2": (81, 164)}

    @staticmethod
    def check_image(d):
        # Any Dt path fills the list, here the one step out of 1/0.  The
        # image of Dt traversal t is that of the one-step path through
        # it: one target traversal, or -1 when its ends merge.
        for target in (d.d1, d.d0):
            collapse(TypedPath(d.dt, (0,)), target)
            image = target._image
            assert len(image) == len(d.dt._heads), (d.link, target.kind)
            for t, u in enumerate(image):
                want = projected(TypedPath(d.dt, (t,)), target).trav or (-1,)
                assert (u,) == want, (d.link, target.kind, t)

    def test_equals_the_projection_by_value(self, paths_through_12):
        for d in [r.diagrams for r in paths_through_12] + [
                Diagrams(make_link(p, q)) for p, q in self.LONG.values()]:
            self.check_image(d)

    def test_edges_made_on_first_read(self):
        # The search, collapse and the limit check run on traversal
        # numbers alone: after them no Edge exists.  The first read of
        # ``edges`` makes them all, once.
        for link in (make_link(6765, 10946), make_link(1, 120)):
            d, dt_paths, c_paths = link_paths(link)
            assert not_limits(dt_paths, c_paths, d.d1) == []
            for cx in (d.dt, d.d1):
                assert "edges" not in vars(cx), (link, cx.kind)
        cx = d.dt
        edges = cx.edges
        assert cx.edges is edges and 2 * len(edges) == len(cx._heads)

    @pytest.mark.parametrize("kind", ["D1", "D0"])
    @pytest.mark.parametrize("p,q", LONG.values(), ids=LONG.keys())
    def test_fresh_copies_collapse_equal(self, p, q, kind):
        d = Diagrams(make_link(p, q))
        target = getattr(d, kind.lower())
        paths = minimal_paths(d.dt, INFINITY, frac(p, q))
        expected = [collapse(path, target) for path in paths]
        copies = [fresh_copy(path.vertices(), d.dt) for path in paths]
        assert [collapse(copy, target) for copy in copies] == expected
        # The same once the originals are gone and Dt is built again.
        values = [path.vertices() for path in paths]
        del paths
        del d.dt
        gc.collect()
        copies = [fresh_copy(v, d.dt) for v in reversed(values)]
        assert [collapse(copy, target) for copy in copies] == expected[::-1]

    def test_a_path_over_another_chain_is_refused(self):
        # The image list is indexed by the traversal numbers of one chain.
        d, other = Diagrams(make_link(7, 16)), Diagrams(make_link(3, 8))
        path = minimal_paths(other.dt, INFINITY, frac(3, 8))[0]
        for target in (d.d1, d.d0):
            with pytest.raises(ValueError, match="over its chain"):
                collapse(path, target)
        # Over a chain walked again for the same link, equal but not the
        # same list, paths collapse as within one Diagrams.
        d = Diagrams(make_link(13, 34))
        d1 = build_diagram(quad_chain(d.link), "D1")
        assert d1.chain is not d.chain
        for path in minimal_paths(d.dt, INFINITY, frac(13, 34)):
            assert collapse(path, d1).trav == collapse(path, d.d1).trav


class TestPathConfinement:
    def test_paths_stay_inside_the_chain(self):
        link = make_link(19, 50)
        d = Diagrams(link)
        chain_verts = {v for q in d.chain for v in q.vertices()}
        for path in minimal_paths(d.dt, INFINITY, frac(19, 50)):
            for v in path.vertices():
                if isinstance(v, Frac):
                    assert v in chain_verts
                else:
                    assert v.lo in chain_verts and v.hi in chain_verts


# -- construction oracles ---------------------------------------------------
#
# The chain walk and the builders as they were before the walk by frame
# products and the construction by position.  They sort by Fraction,
# find every edge through a pair index and build every cell eagerly.

def _value(v):
    return (1, Fraction(0)) if v.den == 0 else (0, Fraction(v.num, v.den))


def reference_chain(link):
    """Sort the current quadrilateral's vertices, find the side whose
    arc holds p/q, and cross it to the other quadrilateral on that side."""
    target = link.fraction()
    goal = _value(target)
    quad = Quad.of(GMat.make(1, 0, 0, 1))
    chain = [quad]
    while target not in quad.vertices():
        ordered = sorted(((_value(v), v) for v in quad.vertices()),
                         key=itemgetter(0))
        for (value_u, u), (value_v, v) in zip(ordered, ordered[1:]):
            if not v.is_infinite and value_u < goal < value_v:
                break
        else:
            raise RuntimeError(f"{target} lies in no side arc")
        even, odd = (u, v) if u.den % 2 == 0 else (v, u)
        det = even.num * odd.den - odd.num * even.den
        assert det in (1, -1)
        near = GMat.make(even.num, det * odd.num, even.den, det * odd.den)
        far = GMat.make(det * even.num - 2 * odd.num, odd.num,
                        det * even.den - 2 * odd.den, odd.den)
        across = [Quad.of(g if g.b % 2 == 0 else g * ROT) for g in (near, far)]
        quad = next(q for q in across if set(q.vertices()) != set(quad.vertices()))
        chain.append(quad)
    return chain


def side_matrix(u, v):
    """Determinant-one matrix with first column the even-denominator
    endpoint, carrying the reference side onto {u, v}."""
    even, odd = (u, v) if u.den % 2 == 0 else (v, u)
    det = even.num * odd.den - odd.num * even.den
    return GMat.make(even.num, det * odd.num, even.den, det * odd.den)


def reference_complex(chain, kind):
    """(edges, edge cells, number of cells) of a diagram built edge by
    edge; each cell takes the next number when its edges are filed."""
    edges, index, edge_cells = [], {}, []
    cells = 0

    def edge(e):
        pair = frozenset((e.tail, e.head))
        if pair not in index:
            index[pair] = len(edges)
            edges.append(e)
            edge_cells.append(set())
        assert edges[index[pair]] == e
        return index[pair]

    def cell(eids):
        nonlocal cells
        for eid in eids:
            edge_cells[eid].add(cells)
        cells += 1

    for quad in chain:
        p1, p2, p3, p4 = quad.vertices()
        g = quad.g
        if kind == "Dt":
            m12, m24 = on_side(p1, p2), on_side(p2, p4)
            m43, m31 = on_side(p4, p3), on_side(p3, p1)
            gs, gr = g * SHIFT, g * ROT
            grs = gr * SHIFT
            a1, a2 = edge(Edge("A", p1, m12, g)), edge(Edge("A", p1, m31, gs))
            a3, a4 = edge(Edge("A", p4, m43, gr)), edge(Edge("A", p4, m24, grs))
            b1, b2 = edge(Edge("B", p2, m12, g)), edge(Edge("B", p3, m31, gs))
            b3, b4 = edge(Edge("B", p3, m43, gr)), edge(Edge("B", p2, m24, grs))
            cu = edge(Edge("C", m31, m12, g, detour=p1))
            cl = edge(Edge("C", m24, m43, gr, detour=p4))
            dl = edge(Edge("D", m24, m12, g, detour=p2))
            dr = edge(Edge("D", m31, m43, gr, detour=p3))
            cell((a1, cu, a2))          # corner at p1
            cell((a3, cl, a4))          # corner at p4
            cell((b1, dl, b4))          # corner at p2
            cell((b2, dr, b3))          # corner at p3
            cell((cu, cl, dl, dr))      # rectangle
            continue
        side = {}
        for u, v in sides(quad):
            even, odd = (u, v) if u.den % 2 == 0 else (v, u)
            if kind == "D1":
                side[(u, v)] = edge(Edge("A", even, odd, side_matrix(u, v)))
            else:
                side[(u, v)] = edge(Edge("B", odd, even, side_matrix(u, v)))
        if kind == "D1":
            a, b, c, d = g
            diag = edge(Edge("C", p3, p2, GMat.make(a + b, b, c + d, d), detour=p1))
            cell((side[(p1, p2)], diag, side[(p3, p1)]))        # triangle at p1
            cell((side[(p2, p4)], side[(p4, p3)], diag))        # triangle at p4
        else:
            diag = edge(Edge("D", p1, p4, g))
            cell((side[(p1, p2)], side[(p2, p4)], diag))        # triangle at p2
            cell((side[(p4, p3)], side[(p3, p1)], diag))        # triangle at p3
    return edges, [frozenset(c) for c in edge_cells], cells


class TestConstructionOracles:
    def test_walk_matches_reference_through_16_crossings(self):
        for link in enumerate_links(16):
            assert quad_chain(link) == reference_chain(link), link

    def test_walk_matches_reference_on_deep_chains(self, deep_chains):
        for d in deep_chains:
            assert d.chain == reference_chain(d.link), d.link

    # Past the 16 crossings walked above.
    @settings(max_examples=60, deadline=None)
    @given(links(min_crossings=17, max_crossings=24))
    def test_walk_matches_reference_on_random_links(self, link):
        for variant in fractions_of_type(link):
            assert quad_chain(variant) == reference_chain(variant)

    def test_each_quad_brings_two_new_rationals(self, paths_through_14, deep_chains):
        for d in [r.diagrams for r in paths_through_14] + deep_chains[::4]:
            seen = set(d.chain[0].vertices())
            for prev, quad in zip(d.chain, d.chain[1:]):
                verts = set(quad.vertices())
                shared = verts & seen
                assert len(shared) == 2 and shared <= set(prev.vertices()), d.link
                assert shared in [set(s) for s in sides(quad)], d.link
                assert shared in [set(s) for s in sides(prev)], d.link
                seen |= verts

    def test_side_frames(self, paths_through_14, deep_chains):
        for d in [r.diagrams for r in paths_through_14] + deep_chains[::4]:
            for quad in d.chain:
                p1, p2, p3, p4 = quad.vertices()
                assert quad.g == side_matrix(p1, p2)
                assert quad.gs == side_matrix(p3, p1) == quad.g * SHIFT
                assert quad.gr == side_matrix(p4, p3) == quad.g * ROT
                assert quad.grs == side_matrix(p2, p4) == quad.g * ROT * SHIFT

    def test_complexes_match_reference(self, paths_through_12):
        # Same edges in the same order, same edge cells, edge by edge,
        # and every cell of the reference numbered.
        diagrams = [r.diagrams for r in paths_through_12] + [
            Diagrams(make_link(1, 120)), Diagrams(make_link(119, 240))]
        for d in diagrams:
            for kind in ("Dt", "D1", "D0"):
                cx = getattr(d, kind.lower())
                edges, want_cells, cells = reference_complex(d.chain, kind)
                assert cx.edges == edges, (d.link, kind)
                assert all_cells(cx) == want_cells, (d.link, kind)
                assert set().union(*all_cells(cx)) == set(range(cells)), (d.link, kind)

    def test_dt_quads_bring_three_new_midpoints(self, paths_through_12):
        for r in paths_through_12:
            cx = r.diagrams.dt
            corners = [v for v in cx.vertices() if isinstance(v, Corner)]
            assert len(corners) == 4 + 3 * (len(cx.chain) - 1)

    def test_a_chain_with_a_gap_is_refused(self):
        # Construction by position needs each quadrilateral to share a
        # side with the one before it.
        chain = quad_chain(make_link(13, 34))
        for broken in (chain[:1] + chain[2:], chain + chain[-1:]):
            for kind in ("Dt", "D1", "D0"):
                with pytest.raises(RuntimeError):
                    build_diagram(broken, kind)


class TestDiagonalSense:
    """The straightening step counts a D1 diagonal as pushed in its
    positive sense exactly when the diagonal is traversed backward.
    That holds because every diagonal runs from p3 to p2 of its
    quadrilateral, and p2 is the second column of its frame, where the
    push reference starts the positive sense."""

    @staticmethod
    def check(chain, cx):
        diagonals = [e for e in cx.edges if e.detour is not None]
        assert len(diagonals) == len(chain)
        for quad, edge in zip(chain, diagonals):
            assert edge.head == edge.g.col2() == quad.p2, (quad, edge)
            assert edge.tail == quad.p3 and edge.detour == quad.p1, (quad, edge)

    def test_through_14_crossings(self, paths_through_14):
        for r in paths_through_14:
            self.check(r.diagrams.chain, r.diagrams.d1)

    # On the deep chains, TestOneNumberingPerChain runs this check on the
    # D1 it builds or reads, so that each deep chain's D1 is built once.


class TestOneNumberingPerChain:
    """Dt, D1 and D0 over one chain give its rationals the same ids, list
    their vertices in value order, and the first ``collapse`` into D1 or
    D0 maps by those ids what the projection by value maps.  The checks
    compare values exactly by cross-multiplying and look vertices up by
    value, so they use neither ``Frac.key`` nor the chain's skeleton."""

    @staticmethod
    def check(chain, dt, d1, d0):
        # The rationals by value, 1/0 last, then the midpoints by the
        # places of their endpoints among the rationals.
        r = len(d1._verts)
        order = dt.vertices()
        rationals, midpoints = order[:r], order[r:]
        assert set(rationals) == {v for quad in chain for v in quad.vertices()}
        assert rationals[-1] == INFINITY
        assert all(u.num * v.den < v.num * u.den
                   for u, v in zip(rationals, rationals[1:-1]))
        place = {v: i for i, v in enumerate(rationals)}
        ends = [sorted((place[m.lo], place[m.hi])) for m in midpoints]
        assert all(map(lt, ends, ends[1:]))
        assert d1.vertices() == d0.vertices() == rationals
        ids = {v: i for v, i in dt._ids.items() if type(v) is Frac}
        assert d1._ids == d0._ids == ids
        for target, parity in ((d1, 1), (d0, 0)):
            collapse(TypedPath(dt, (0,)), target)
            down = [target._ids[v if type(v) is Frac else
                                v.lo if v.lo.den % 2 == parity else v.hi]
                    for v in dt._verts]
            want = [None if a == b else (a, b)
                    for a, b in zip(map(down.__getitem__, dt._ends),
                                    map(down.__getitem__, dt._heads))]
            got = [None if u < 0 else (target._ends[u], target._heads[u])
                   for u in target._image]
            assert got == want, target.kind

    def test_through_14_crossings(self, paths_through_14):
        for r in paths_through_14:
            d = r.diagrams
            self.check(d.chain, d.dt, d.d1, build_diagram(d.chain, "D0"))

    def test_deep_chains(self, deep_chains, deep_paths):
        # Also the diagonal sense of each deep chain's D1.  Every fourth
        # chain's Dt and D1 are those of ``deep_paths``, kept on its
        # Diagrams for the session; the others are built here and
        # dropped, so each deep chain's complexes are built once.
        for i, d in enumerate(deep_chains):
            if i % 4:
                dt, d1 = (build_diagram(d.chain, kind) for kind in ("Dt", "D1"))
            else:
                dt, d1 = d.dt, d.d1
            self.check(d.chain, dt, d1, build_diagram(d.chain, "D0"))
            TestDiagonalSense.check(d.chain, d1)
