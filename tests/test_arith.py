import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from twobridge.arith import (ContFrac, Frac, GMat, TwoBridgeLink,
                             canonical_rep, cf_positive, crossing_number,
                             enumerate_links, linking_number, make_link,
                             rolfsen_name)

from oracles import reference_links


class TestMakeLink:
    def test_reduces_and_validates(self):
        assert make_link(3, 8) == TwoBridgeLink(3, 8)
        assert make_link(11, 8) == TwoBridgeLink(3, 8)
        assert make_link(-5, 8) == TwoBridgeLink(3, 8)
        assert make_link(6, 16) == TwoBridgeLink(3, 8)
        assert make_link(3, -8) == TwoBridgeLink(5, 8)

    def test_rejects_knots(self):
        with pytest.raises(ValueError):
            make_link(3, 9)
        with pytest.raises(ValueError):
            make_link(2, 6)  # reduces to 1/3
        with pytest.raises(ValueError):
            make_link(1, 0)
        with pytest.raises(ValueError, match="0/0"):
            Frac.make(0, 0)


class TestCanonicalRep:
    def test_self_inverse_fraction(self):
        # 7*7 = 49 = 1 mod 16
        assert canonical_rep(make_link(7, 16)) == TwoBridgeLink(7, 16)

    def test_mirror_identification(self):
        rep = canonical_rep(make_link(13, 24), identify_mirrors=True)
        assert rep == TwoBridgeLink(11, 24)

    def test_hopf(self):
        assert canonical_rep(make_link(1, 2)) == TwoBridgeLink(1, 2)

    def test_brute_force_orbit(self):
        # Independent check: the representative is the smallest fraction
        # whose link is related by inversion (and mirroring) mod q.
        link = make_link(19, 50)
        p, q = link
        orbit = {p, pow(p, -1, q)}
        assert canonical_rep(link) == TwoBridgeLink(min(orbit), q)
        orbit |= {q - p, pow(q - p, -1, q)}
        assert canonical_rep(link, True) == TwoBridgeLink(min(orbit), q)


class TestContinuedFractions:
    @pytest.mark.parametrize("p,q,terms", [
        (3, 8, (0, 2, 1, 2)),
        (1, 2, (0, 2)),
        (7, 40, (0, 5, 1, 2, 2)),
    ])
    def test_expansions(self, p, q, terms):
        cf = cf_positive(make_link(p, q))
        assert cf.terms == terms
        assert cf.value() == Frac(p, q)

    def test_text_is_the_bracketed_terms(self):
        assert str(ContFrac((0, 2, 3))) == "[0,2,3]"

    def test_round_trip_all_links(self):
        for link in enumerate_links(12):
            cf = cf_positive(link)
            assert cf.value() == link.fraction()
            assert cf.terms[0] == 0
            assert all(t >= 1 for t in cf.terms[1:])
            assert cf.terms[-1] >= 2
            assert crossing_number(link) == sum(cf.terms)

    def test_rejects_a_fraction_outside_the_unit_interval(self):
        # An explicit error, so the check survives ``python -O``.
        with pytest.raises(ValueError):
            cf_positive(TwoBridgeLink(1, 1))


class TestCrossingNumber:
    @pytest.mark.parametrize("p,q,n", [(1, 2, 2), (3, 8, 5), (11, 24, 9)])
    def test_values(self, p, q, n):
        assert crossing_number(make_link(p, q)) == n


def linking_number_by_sum(link):
    """The defining O(q) sum, kept as the oracle for the floor-sum form."""
    p, q = link
    return -sum((-1) ** ((2 * j * p) // q) for j in range(1, (q - 2) // 2 + 1))


class TestLinkingNumber:
    def test_values(self):
        assert linking_number(make_link(1, 2)) == 0
        assert linking_number(make_link(3, 8)) == -1
        assert linking_number(make_link(3, 10)) == 0

    def test_matches_the_sum_through_fourteen_crossings(self):
        for link in enumerate_links(14, identify_mirrors=False):
            p, q = link
            for rep in {p, q - p, pow(p, -1, q), q - pow(p, -1, q)}:
                other = TwoBridgeLink(rep, q)
                assert linking_number(other) == linking_number_by_sum(other), other

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 100_000), st.integers(0, 99_999))
    def test_matches_the_sum_on_large_q(self, half_q, r):
        q = 2 * half_q
        p = 2 * (r % half_q) + 1
        assume(math.gcd(p, q) == 1)
        link = TwoBridgeLink(p, q)
        assert linking_number(link) == linking_number_by_sum(link)


class TestEnumeration:
    def test_two_crossings(self):
        assert enumerate_links(2) == [TwoBridgeLink(1, 2)]
        with pytest.raises(ValueError, match="at least 2 crossings"):
            enumerate_links(1)

    def test_counts(self):
        assert len(enumerate_links(8)) == 17
        assert len(enumerate_links(10)) == 56

    def test_monotone(self):
        for n in range(2, 11):
            smaller = set(enumerate_links(n))
            assert smaller <= set(enumerate_links(n + 1))
            assert all(crossing_number(l) <= n for l in smaller)

    @pytest.mark.parametrize("identify_mirrors", [True, False])
    def test_matches_the_recursive_reference(self, identify_mirrors):
        # List and order, which the benchmark's census inputs are built from.
        for n in range(2, 15):
            assert (enumerate_links(n, identify_mirrors)
                    == reference_links(n, identify_mirrors)), n

    def test_without_mirror_identification(self):
        # Chiral pairs stay distinct.
        links = enumerate_links(9, identify_mirrors=False)
        assert len(links) >= len(enumerate_links(9))


class TestRolfsenNames:
    def test_named(self):
        assert rolfsen_name(make_link(3, 8)) == "5^2_1"
        assert rolfsen_name(make_link(17, 46)) == "9^2_11"

    def test_unnamed_at_ten_crossings(self):
        assert rolfsen_name(make_link(7, 40)) is None

    def test_mirror_gets_the_same_name(self):
        assert rolfsen_name(make_link(5, 8)) == "5^2_1"


class TestGMat:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            GMat.make(1, 1, 1, 1)
