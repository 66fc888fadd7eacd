import os
import subprocess
import sys

import pytest

from twobridge.arith import (ContFrac, Frac, INFINITY, TwoBridgeLink,
                             enumerate_links, make_link)
from twobridge.diagram import (Corner, DiagramComplex, Diagrams, Edge, Step,
                               TypedPath, build_diagram, collapse, is_minimal,
                               minimal_paths, quad_chain)
from twobridge.slopes import m_form, m_form_edgewise


def frac(p, q):
    return Frac.make(p, q)


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

    def test_adjacent_quads_share_a_side(self):
        chain = quad_chain(make_link(13, 34))
        for a, b in zip(chain, chain[1:]):
            shared = set(a.vertices()) & set(b.vertices())
            assert len(shared) == 2
            # and the shared pair really is a side of both
            assert tuple(sorted(shared, key=Frac.key)) in {
                tuple(sorted(s, key=Frac.key)) for s in a.sides()}

    def test_target_outside_the_unit_interval_is_an_error(self):
        with pytest.raises(RuntimeError, match="no side arc"):
            quad_chain(TwoBridgeLink(3, 2))

    def test_errors_survive_optimised_mode(self):
        # The chain and expansion invariants raise explicitly, so they
        # still fire when Python strips asserts.
        code = ("from twobridge.arith import Frac, TwoBridgeLink, cf_positive\n"
                "from twobridge.diagram import _far_quad\n"
                "for call in (lambda: cf_positive(TwoBridgeLink(1, 1)),\n"
                "             lambda: _far_quad(Frac(1, 2), Frac(1, 5), frozenset())):\n"
                "    try:\n"
                "        call()\n"
                "    except (ValueError, RuntimeError):\n"
                "        continue\n"
                "    raise SystemExit('no error raised')\n")
        subprocess.run([sys.executable, "-O", "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})

    def test_stored_vertices_match_the_frame(self):
        # Quad.of skips the gcd; the frame's columns and mediants are
        # primitive, so Frac.make must give the same vertices.
        deep = [ContFrac((0, 2, m, 2)).value() for m in (1, 50, 340)]
        links = enumerate_links(14) + [make_link(1, n) for n in (2, 30, 400)] + [
            make_link(v.num, v.den) for v in deep]
        for link in links:
            for quad in quad_chain(link):
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
        assert len(cx.cells) == 2

    def test_d0_over_hopf(self):
        cx = build_diagram(quad_chain(make_link(1, 2)), "D0")
        by_type = {}
        for e in cx.edges:
            by_type.setdefault(e.etype, []).append(e)
        assert len(by_type["B"]) == 4
        assert len(by_type["D"]) == 1
        diag = by_type["D"][0]
        assert {diag.tail, diag.head} == {INFINITY, frac(1, 2)}
        assert len(cx.cells) == 2

    def test_dt_over_hopf(self):
        cx = build_diagram(quad_chain(make_link(1, 2)), "Dt")
        rects = [c for c in cx.cells if c.label == "rectangle"]
        assert len(rects) == 1
        # 8 half-sides + 4 rectangle sides
        assert len(cx.edges) == 12
        # every corner triangle at an even vertex reads A, C, A
        for cid, cell in enumerate(cx.cells):
            edges = [e for eid, e in enumerate(cx.edges)
                     if cid in cx.edge_cells[eid]]
            kinds = sorted(e.etype for e in edges)
            if cell.label == "rectangle":
                assert kinds == ["C", "C", "D", "D"]
            elif cell.label in ("corner 1/0", "corner 1/2"):
                assert kinds == ["A", "A", "C"]
            else:
                assert kinds == ["B", "B", "D"]

    def test_cell_labels(self):
        chain = quad_chain(make_link(1, 2))
        labels = {kind: [c.label for c in build_diagram(chain, kind).cells]
                  for kind in ("Dt", "D1", "D0")}
        assert labels == {
            "Dt": ["corner 1/0", "corner 1/2", "corner 0/1", "corner 1/1",
                   "rectangle"],
            "D1": ["triangle 1/0", "triangle 1/2"],
            "D0": ["triangle 0/1", "triangle 1/1"],
        }

    def test_edge_matrices_reproduce_endpoints(self):
        # The stored matrix must carry the reference edge of its class
        # onto the edge: its columns and their mediants pin the
        # quadrilateral, and the edge endpoints sit on the right sides.
        for kind in ("Dt", "D1", "D0"):
            cx = build_diagram(quad_chain(make_link(7, 16)), kind)
            for e in cx.edges:
                g = e.g
                quad_verts = {g.col1(), g.col2(),
                              Frac.make(g.a + g.b, g.c + g.d),
                              Frac.make(g.a + 2 * g.b, g.c + 2 * g.d)}
                for v in (e.tail, e.head):
                    if isinstance(v, Frac):
                        assert v in quad_verts
                    else:
                        assert v.lo in quad_verts and v.hi in quad_verts


class TestEdgeIndex:
    def test_edge_between_both_directions(self):
        cx = build_diagram(quad_chain(make_link(3, 8)), "D1")
        for e in cx.edges:
            assert cx.edge_between(e.tail, e.head) == (e, 1)
            assert cx.edge_between(e.head, e.tail) == (e, -1)
        with pytest.raises(KeyError):
            cx.edge_between(INFINITY, frac(3, 8))

    def test_vertex_outside_the_complex(self):
        cx = build_diagram(quad_chain(make_link(3, 8)), "Dt")
        strangers = (frac(5, 8), Corner(frac(2, 3), frac(3, 4)))
        for v in strangers:
            assert v not in cx.vertices()
            for u, w in ((INFINITY, v), (v, INFINITY)):
                with pytest.raises(KeyError):
                    cx.edge_between(u, w)
            g = cx.edges[0].g
            path = TypedPath("Dt", (Step(Edge("A", INFINITY, v, g), 1),))
            with pytest.raises(KeyError):
                is_minimal(cx, path)

    def test_rebuilding_an_edge_must_agree(self):
        cx = DiagramComplex("D1", [])
        g = quad_chain(make_link(1, 2))[0].g
        first = cx._add_edge(Edge("A", INFINITY, frac(0, 1), g))
        assert cx._add_edge(Edge("A", INFINITY, frac(0, 1), g)) == first
        # a second edge on the same pair, of another type or reversed
        for clash in (Edge("C", INFINITY, frac(0, 1), g),
                      Edge("A", frac(0, 1), INFINITY, g)):
            with pytest.raises(RuntimeError, match="inconsistent edge rebuild"):
                cx._add_edge(clash)


class TestMinimalPaths:
    def test_census_whitehead(self):
        d = Diagrams(make_link(3, 8))
        assert len(minimal_paths(d.dt, INFINITY, frac(3, 8))) == 5

    def test_census_second_surgery_link(self):
        d = Diagrams(make_link(7, 16))
        assert len(minimal_paths(d.dt, INFINITY, frac(7, 16))) == 6

    def test_d1_hopf_has_two_paths(self):
        d = Diagrams(make_link(1, 2))
        paths = minimal_paths(d.d1, INFINITY, frac(1, 2))
        assert len(paths) == 2
        routes = {tuple(p.vertices()) for p in paths}
        assert routes == {(INFINITY, frac(0, 1), frac(1, 2)),
                          (INFINITY, frac(1, 1), frac(1, 2))}

    def test_unknown_endpoint_is_an_error(self):
        d = Diagrams(make_link(3, 8))
        with pytest.raises(ValueError):
            minimal_paths(d.dt, INFINITY, frac(5, 8))

    def test_paths_longer_than_the_recursion_limit(self):
        # [2, m, 2] with m = 340: 344 crossings, paths of over 1000 steps.
        value = ContFrac((0, 2, 340, 2)).value()
        link = make_link(value.num, value.den)
        d = Diagrams(link)
        paths = minimal_paths(d.dt, INFINITY, link.fraction())
        assert max(len(p.steps) for p in paths) > sys.getrecursionlimit()
        for path in paths:
            assert is_minimal(d.dt, path)
            assert m_form(path) == m_form_edgewise(path)

    def test_deterministic_order(self):
        d = Diagrams(make_link(13, 34))
        a = [str(p) for p in minimal_paths(d.dt, INFINITY, frac(13, 34))]
        b = [str(p) for p in minimal_paths(d.dt, INFINITY, frac(13, 34))]
        assert a == b


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
