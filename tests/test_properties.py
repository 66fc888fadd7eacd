"""Property-based checks of the arithmetic layer and the slope pipeline."""

import pytest
from hypothesis import example, given, settings, strategies as st

from twobridge.arith import (INFINITY, Frac, TwoBridgeLink, canonical_rep,
                             cf_positive, crossing_number, linking_number,
                             make_link)
from twobridge.diagram import Diagrams, TypedPath, minimal_paths
from twobridge.slopes import (m_form, m_form_edgewise, s_form_symbolic,
                              slope_families)

from oracles import edge_cells, link_of, links, on_side, reference_paths


@given(links())
def test_link_normal_form(link):
    assert 0 < link.p < link.q
    assert link.p % 2 == 1 and link.q % 2 == 0


@given(links(), st.integers(1, 5))
def test_make_link_reduces_multiples(link, m):
    assert make_link(m * link.p, m * link.q) == link
    assert make_link(link.p + link.q, link.q) == link


@given(links(), st.booleans())
def test_canonical_rep_idempotent(link, mirrors):
    rep = canonical_rep(link, mirrors)
    assert canonical_rep(rep, mirrors) == rep


@given(links())
def test_canonical_rep_constant_on_orbit(link):
    p, q = link
    inverse = TwoBridgeLink(pow(p, -1, q), q)
    assert canonical_rep(link) == canonical_rep(inverse)
    mirror = TwoBridgeLink(q - p, q)
    assert canonical_rep(link, True) == canonical_rep(mirror, True)
    # below the halfway chirality cutoff; only 1/2 sits exactly on it
    assert 2 * canonical_rep(link, True).p <= q


# TestContinuedFractions checks every link through 12 crossings.
@given(links(min_crossings=13, max_crossings=16))
def test_cf_positive_round_trip(link):
    cf = cf_positive(link)
    assert cf.value() == link.fraction()
    assert cf.terms[-1] >= 2 and all(t >= 1 for t in cf.terms[1:])
    assert crossing_number(link) == sum(cf.terms)


@given(links())
def test_linking_number_parity(link):
    if link.q % 4 == 0:
        assert linking_number(link) % 2 == 1


# Acceptance criterion 9 checks inversion through 12 crossings.
@settings(max_examples=45, deadline=None)
@given(links(min_crossings=13, max_crossings=20))
def test_slope_set_invariant_under_inversion(link):
    p, q = link
    partner = TwoBridgeLink(pow(p, -1, q), q)
    assert set(slope_families(partner).families) == set(slope_families(link).families)


@settings(max_examples=60, deadline=None)
@given(links(max_crossings=20))
@example(TwoBridgeLink(6765, 10946))     # all terms 1: 828 Dt paths
@example(make_link(1, 40))               # a fan: 0/1 has degree 41 in D1
@example(link_of(2, 10, 2))              # long forced runs
def test_path_search_matches_recursive_reference(link):
    # The search prunes to what can still reach its end, so the end
    # varies too: p/q, and an odd rational from the middle of the chain.
    d = Diagrams(link)
    target = link.fraction()
    middle = d.chain[len(d.chain) // 2].p3
    cases = [(cx, INFINITY, end) for cx in (d.dt, d.d1, d.d0)
             for end in (target, middle)]
    cases.append((d.dt, on_side(INFINITY, Frac(0, 1)), target))
    for cx, start, end in cases:
        got = minimal_paths(cx, start, end)
        assert got == reference_paths(cx, start, end), (cx.kind, start, end)


def check_forms_and_sums(link):
    """Push against edgewise on every Dt path and every t = 1 path
    through an odd diagonal, and the sums the search fills in against a
    hand-built copy of each path; returns the two path counts."""
    d = Diagrams(link)
    counts = []
    for cx in (d.dt, d.d1):
        paths = minimal_paths(cx, INFINITY, link.fraction())
        for path in paths:
            assert path.sums == TypedPath(cx, path.trav).sums, str(path)
        if cx.kind == "Dt":
            for path in paths:
                assert m_form(path) == m_form_edgewise(path), str(path)
        else:
            paths = [p for p in paths if "C" in p.edge_types()]
            for path in paths:
                assert s_form_symbolic(path) == m_form_edgewise(path), str(path)
        counts.append(len(paths))
    return counts


# Acceptance criterion 5 compares the two through 10 crossings.
@settings(max_examples=40, deadline=None)
@given(links(min_crossings=11, max_crossings=24))
def test_push_matches_edgewise_past_ten_crossings(link):
    check_forms_and_sums(link)


# [1, ..., 1, 2] (all paths through fans of two), [2, m, 2], 1/n and the
# two-term shapes of the deep-chain benchmark, [n - 3, 3] and [a, n - a]
# (long chains with few paths, whose steps the search takes about once
# each).
@pytest.mark.parametrize("link,counts", [
    (link_of(*[1] * 18, 2), [828, 257]),
    (link_of(*[1] * 21, 2), [2293, 607]),
    (link_of(2, 40, 2), [6, 1]),
    (link_of(2, 101, 2), [6, 1]),
    (make_link(1, 24), [3, 0]),
    (make_link(1, 300), [3, 0]),
    (link_of(297, 3), [7, 1]),
    (link_of(151, 149), [8, 1]),
], ids=["1^18-2", "1^21-2", "2-40-2", "2-101-2", "1/24", "1/300",
        "297-3", "151-149"])
def test_push_matches_edgewise_on_long_chains(link, counts):
    assert check_forms_and_sums(link) == counts
