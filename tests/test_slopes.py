import dataclasses
import re
from collections import Counter

import pytest
from hypothesis import given, settings

from twobridge import diagram, slopes
from twobridge.arith import (GMat, INFINITY, TwoBridgeLink, enumerate_links,
                             make_link)
from twobridge.diagram import (Diagrams, TypedPath, build_diagram, collapse,
                               link_paths, minimal_paths, not_limits)
from twobridge.slopes import (MForm, SForm, _track_contribution,
                              _track_contribution_free, m_form,
                              m_form_edgewise, oracle_check, s_form,
                              s_form_symbolic, slope_families, to_preferred)
from twobridge.tables import render_key

from oracles import (assert_matches_reference, c_count, compare_paths,
                     d1_pushes, delta_sum, dt_paths, expected_surgery_mforms,
                     frac, links, reference_families, shifted_stepper,
                     shifted_track_contribution, straighten)


# The paper's worked example: 2k + 3 crossings, so k = 125 has 253.
SURGERY_KS = [*range(1, 13), 60, 125]


def d1_c_paths(link):
    d = Diagrams(link)
    return [p for p in minimal_paths(d.d1, INFINITY, link.fraction())
            if "C" in p.edge_types()]


class TestDeltaSum:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_fan_path_through_one(self, k):
        verts = [INFINITY, frac(1, 1), frac(1, 2),
                 frac(2 * k, 4 * k + 1), frac(4 * k - 1, 8 * k)]
        assert delta_sum(verts) == 3

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_fan_path_through_zero(self, k):
        verts = [INFINITY, frac(0, 1), frac(1, 2),
                 frac(2 * k - 1, 4 * k - 1), frac(4 * k - 1, 8 * k)]
        assert delta_sum(verts) == -1

    def test_infinite_endpoint_contributes_nothing(self):
        assert delta_sum([INFINITY, frac(0, 1)]) == 0


class TestMForm:
    @pytest.mark.parametrize("k", SURGERY_KS)
    def test_surgery_family_forms(self, k):
        got = Counter(m_form(p) for p in dt_paths(make_link(4 * k - 1, 8 * k)))
        assert got == expected_surgery_mforms(k)

    def test_straighten_ledger_bounded_by_crossings(self):
        # Each C (D) step moves n0 (n1) by one, either way; the
        # rectangle is never crossed.
        for p in dt_paths(make_link(13, 34)):
            _, ledger = straighten(p)
            types = p.edge_types()
            for count, etype in ((ledger.n0, "C"), (ledger.n1, "D")):
                assert abs(count) <= types.count(etype)
                assert (count - types.count(etype)) % 2 == 0
            assert ledger.n4 == 0

    def test_one_pass_matches_straighten_then_sum(self):
        # m_form fuses these two passes; the cell values are those of
        # its docstring.
        for p, q in [(3, 8), (13, 34), (89, 144), (1, 40)]:
            for path in dt_paths(make_link(p, q)):
                rationals, ledger = straighten(path)
                k = delta_sum(rationals)
                n0, n1, n4 = ledger.n0, ledger.n1, ledger.n4
                assert m_form(path) == MForm(k - n1, n1 - 2 * n4,
                                             k - n1 - 2 * n0 + 4 * n4)


# The links 1/n with n = 2m even; m = 1 is the Hopf link, whose forms
# differ.
ONE_OVER_N_MS = [*range(2, 40), 100, 250]


class TestOneOverNFamily:
    @pytest.mark.parametrize("m", ONE_OVER_N_MS)
    def test_closed_form(self, m):
        result = slope_families(make_link(1, 2 * m))
        assert result.mforms_raw == (
            (-1, 0, -1), (m - 1, -m, m - 1), (m - 1, m, m - 1))
        assert result.sforms_raw == ()
        assert result.linking_number == 1 - m
        assert result.diagnostics == ()


# The links [2, m, 2] = (2m+1)/(4m+4): a long chain of one term between
# two fans of two, with six Dt paths and one t = 1 path that pushes.
TWO_M_TWO_MS = [*range(2, 61), 101, 125, 250]


class TestTwoMTwoFamily:
    @pytest.mark.parametrize("m", TWO_M_TWO_MS)
    def test_closed_form(self, m):
        result = slope_families(make_link(2 * m + 1, 4 * m + 4))
        assert result.mforms_raw == tuple(sorted({
            (-(2 * m + 1), 0, -1), (1, -2, -(2 * m - 1)),
            (1, -2, 1), (1, 0, 1), (1, 2, 1)}))
        assert result.sforms_raw == ((-(m + 1), m),)
        assert result.linking_number == -1
        assert result.diagnostics == ()


class TestTrackContributions:
    # One matrix per case of each edge class, with the value at sign +1;
    # the contribution at sign -1 must be the negation, as the former
    # formula tuple(sign * t for t in value) gave.
    CASES = (
        ("A", GMat.make(1, 0, 0, 1), (0, 0, 0, 0)),            # c = 0
        ("A", GMat.make(1, 0, 2, 1), (0, 1, 0, 1)),            # -d/c < 0
        ("A", GMat.make(1, -1, 2, -1), (0, -1, 0, -1)),        # 0 < -d/c
        ("B", GMat.make(1, 0, 0, 1), (0, 0, 0, 0)),
        ("B", GMat.make(1, 0, 2, 1), (-1, 1, 0, 0)),
        ("B", GMat.make(1, -1, 2, -1), (1, -1, 0, 0)),
        ("C", GMat.make(1, -1, 4, -3), (0, -2, 0, 0)),         # 0 < -d/c < 1
        ("C", GMat.make(1, 0, 0, 1), (0, 0, 0, 2)),            # c = 0
        ("C", GMat.make(1, 0, 2, 1), (0, 0, 0, 2)),            # -d/c < 0
        ("C", GMat.make(1, -2, 2, -3), (0, 0, 0, 2)),          # -d/c > 1
        ("D", GMat.make(1, 0, 0, 1), (0, 0, 1, -1)),           # -d/c = oo
        ("D", GMat.make(1, -1, 2, -1), (0, 0, 1, -1)),         # -d/c = 1/2
        ("D", GMat.make(1, 0, 2, 1), (-1, 1, 1, -1)),          # -d/c < 1/2
        ("D", GMat.make(-1, 0, 4, -1), (-1, 1, 1, -1)),        # 0 < -d/c < 1/2
        ("D", GMat.make(1, -2, 2, -3), (1, -1, 1, -1)),        # -d/c > 1/2
    )
    FREE_CASES = (
        (GMat.make(1, 0, 3, 1), (2, -2, 0, 2)),                # -d/c < 0
        (GMat.make(1, -2, 3, -5), (0, -2, -2, 2)),             # 0 < -d/c
    )

    @pytest.mark.parametrize("sign", [1, -1])
    def test_every_case_and_sign(self, sign):
        for etype, g, value in self.CASES:
            assert _track_contribution(etype, g, sign) == tuple(
                sign * t for t in value), (etype, g)
        for g, value in self.FREE_CASES:
            assert _track_contribution_free(g, sign) == tuple(
                sign * t for t in value), g


class TestLimitCheck:
    def test_membership_by_traversals_matches_vertices(self, paths_through_12):
        # slope_families tests each t = 1 path for being a limit by its
        # traversal numbers; by its vertex sequence the answer must be
        # the same.
        for r in paths_through_12:
            d1 = r.diagrams.d1
            by_trav = {collapse(p, d1).trav for p in r.dt}
            by_vertices = {tuple(collapse(p, d1).vertices()) for p in r.dt}
            assert len(by_trav) == len(by_vertices), r.link
            for path in r.d1:
                assert (path.trav in by_trav) == (
                    tuple(path.vertices()) in by_vertices), (r.link, str(path))

    @settings(max_examples=25, deadline=None)
    @given(links(min_crossings=13, max_crossings=20))
    def test_every_limit_found_past_12_crossings(self, link):
        # Compared by vertex sequence, which does not depend on how the
        # complexes number their traversals.
        d, dt, c_paths = link_paths(link)
        assert not_limits(dt, c_paths, d.d1) == []
        limits = {tuple(collapse(p, d.d1).vertices()) for p in dt}
        for path in c_paths:
            assert tuple(path.vertices()) in limits, (link, str(path))

    def test_a_wrong_limit_is_reported(self, wrong_limits):
        link = make_link(13, 34)
        c_paths = d1_c_paths(link)
        assert len(c_paths) > 1
        assert [d for d in slope_families(link).diagnostics if "not a limit" in d] == [
            f"t=1 path not a limit of any deformed minimal path: {p}" for p in c_paths]


class TestAgainstEveryPath:
    """slope_families takes its forms from the distinct sums of the
    paths and derives its raw forms and families from the stored
    preferred forms; all of them must equal the reference assembled
    path by path and form by form (``oracles.reference_slopes``)."""

    def test_through_12_crossings(self, paths_through_12, families_through_12):
        assert len(paths_through_12) == len(families_through_12)
        for r, result in zip(paths_through_12, families_through_12):
            assert result.link == r.link
            assert_matches_reference(result, r.dt, r.d1)
            assert not [d for d in result.diagnostics if "not a limit" in d], r.link

    def test_fibonacci_link(self):
        link = make_link(6765, 10946)
        d = Diagrams(link)
        assert_matches_reference(slope_families(link),
                                 minimal_paths(d.dt, INFINITY, link.fraction()),
                                 minimal_paths(d.d1, INFINITY, link.fraction()))

    def test_deep_chains(self, deep_paths, monkeypatch):
        # slope_families is given the paths of ``deep_paths``, so that
        # each chain's complexes are built and its paths listed once.
        listed = {r.link: (r.diagrams, r.dt,
                           [p for p in r.d1 if "C" in p.edge_types()])
                  for r in deep_paths}
        monkeypatch.setattr(slopes, "link_paths", listed.__getitem__)
        for r in deep_paths:
            result = slope_families(r.link)
            assert_matches_reference(result, r.dt, r.d1)
            assert result.diagnostics == (), r.link


class TestOracleCertificate:
    """oracle_check decides by one forward pass per complex, and lists
    the paths only when that pass cannot."""

    @pytest.mark.parametrize("fault", ["edgewise", "push"])
    def test_a_fault_gives_the_per_path_report(self, fault, monkeypatch):
        # A planted fault on either side makes the certificate fail, and
        # the report is then the per-path one, disagreement for
        # disagreement.
        if fault == "edgewise":
            monkeypatch.setattr(slopes, "_track_contribution",
                                shifted_track_contribution)
        else:
            for module in (diagram, slopes):
                monkeypatch.setattr(module, "_stepper", shifted_stepper)
        disagreements = 0
        for link in enumerate_links(8):
            report = oracle_check(link)
            got = [(path.kind, path.trav, push, track)
                   for path, push, track in report.disagreements]
            assert (report.dt_paths, report.d1_paths, got) == compare_paths(link), link
            disagreements += len(got)
        assert disagreements > 0

    def test_counts_equal_the_enumerator_through_14_crossings(self, paths_through_14):
        for r in paths_through_14:
            end = r.link.fraction()
            assert slopes._certify_dt(r.diagrams.dt, end) == len(r.dt), r.link
            assert slopes._certify_d1(r.diagrams.d1, end) == c_count(r.d1), r.link

    def test_counts_equal_the_enumerator_on_deep_chains(self, deep_paths):
        for r in deep_paths:
            end = r.link.fraction()
            assert slopes._certify_dt(r.diagrams.dt, end) == len(r.dt), r.link
            assert slopes._certify_d1(r.diagrams.d1, end) == c_count(r.d1), r.link

    def test_lists_no_path_through_12_crossings(self, monkeypatch, paths_through_12):
        def refuse(link):
            raise AssertionError(f"{link}: paths listed")

        monkeypatch.setattr(slopes, "link_paths", refuse)
        for r in paths_through_12:
            assert oracle_check(r.link) == (len(r.dt), c_count(r.d1), ()), r.link

    def test_a_38_crossing_link(self):
        # 415,274 paths, none of them listed.
        assert oracle_check(make_link(39088169, 63245986)) == (373464, 41810, ())


class TestFamilyAssembly:
    """A result stores its preferred forms only: the raw forms and the
    families are derived from them on each read, with no cache, so they
    follow the stored forms of a result made by ``dataclasses.replace``,
    and each read makes new families."""

    @staticmethod
    def check(result):
        l = result.linking_number
        assert result.families is not result.families
        for mforms in (result.mforms, result.mforms[1:], ()):
            for sforms in (result.sforms, ()):
                r = dataclasses.replace(result, mforms=mforms, sforms=sforms)
                assert r.mforms_raw == tuple(MForm(x - l, y, z - l) for x, y, z in mforms)
                assert r.sforms_raw == tuple(SForm(x - l, y) for x, y in sforms)
                assert r.families == reference_families(mforms, sforms), result.link

    def test_through_12_crossings(self, families_through_12):
        for result in families_through_12:
            self.check(result)

    def test_fibonacci_link(self):
        self.check(slope_families(make_link(6765, 10946)))


class TestSForm:
    @pytest.mark.parametrize("k", SURGERY_KS)
    def test_surgery_family_s_form(self, k):
        paths = d1_c_paths(make_link(4 * k - 1, 8 * k))
        assert len(paths) == 1
        assert s_form(paths[0]) == SForm(-2 * k, 2 * k - 1)

    def test_diagonal_count_is_y(self):
        for p, q in [(3, 8), (13, 34), (19, 50)]:
            for path in d1_c_paths(make_link(p, q)):
                assert s_form(path).y == path.edge_types().count("C")

    def test_path_without_diagonals_reduces_to_delta_sum(self):
        d = Diagrams(make_link(3, 8))
        for path in minimal_paths(d.d1, INFINITY, frac(3, 8)):
            if "C" not in path.edge_types():
                assert s_form(path) == SForm(delta_sum(path.rationals()), 0)

    def test_symbolic_form_adds_up_to_the_sums_through_12(self, paths_through_12):
        # s_form_symbolic reads each diagonal's sense from the same
        # straightening step as the sums (k, a, b), so its terms add up
        # to them; the senses are also those the geometry gives.
        count = 0
        for r in paths_through_12:
            for path in r.d1:
                k, a, b = path.sums
                if a + b == 0:
                    continue
                m = s_form_symbolic(path)
                assert (m.b2, m.b1, len(m.n1), sum(m.n1)) == (
                    k, k - 2 * (a - b), a + b, 2 * (a - b)), (r.link, str(path))
                assert m.n1 == tuple(2 * s for s in d1_pushes(path)[1]), str(path)
                count += 1
        assert count == 959


class TestToPreferred:
    def test_mform_shift(self):
        assert to_preferred(MForm(1 - 4 * 2, 0, -1), -1) == MForm(-8, 0, -2)
        assert to_preferred(MForm(1, 2, 1), -1) == MForm(0, 2, 0)
        assert to_preferred(MForm(0, 0, 0), 0) == MForm(0, 0, 0)

    def test_sform_shift(self):
        assert to_preferred(SForm(-2, 1), -1) == SForm(-3, 1)


class TestSlopeFamilies:
    def test_repeat_runs_identical(self):
        a = slope_families(make_link(13, 44))
        b = slope_families(make_link(13, 44))
        assert a == b


class TestMirrorSymmetry:
    """The mirror (q-p)/q of p/q has its own chain, complexes and paths,
    so unlike push-vs-edgewise this checks the builders and the search
    against lists they did not make: its forms are the negated forms,
    (x, y, z) -> (-x, -y, -z), its s forms are (x, y) -> (-x, y), and
    its linking number is negated."""

    LONG = ((1, 120), (81, 164), (3, 892), (149, 22500), (6765, 10946))

    @staticmethod
    def assert_mirrored(result):
        link = result.link
        mirror = slope_families(TwoBridgeLink(link.q - link.p, link.q))
        assert mirror.linking_number == -result.linking_number, link
        for forms, mirrored in ((result.mforms_raw, mirror.mforms_raw),
                                (result.mforms, mirror.mforms)):
            assert list(mirrored) == sorted((-x, -y, -z) for x, y, z in forms), link
        for forms, mirrored in ((result.sforms_raw, mirror.sforms_raw),
                                (result.sforms, mirror.sforms)):
            assert list(mirrored) == sorted((-x, y) for x, y in forms), link

    def test_through_12_crossings(self, families_through_12):
        for result in families_through_12:
            self.assert_mirrored(result)

    @pytest.mark.parametrize("p,q", LONG, ids=[f"{p}-{q}" for p, q in LONG])
    def test_long_chains(self, p, q):
        self.assert_mirrored(slope_families(make_link(p, q)))

    @settings(max_examples=25, deadline=None)
    @given(links(min_crossings=13, max_crossings=20))
    def test_past_12_crossings(self, link):
        self.assert_mirrored(slope_families(link))


@pytest.fixture(scope="module")
def path_of_kind():
    """One minimal path of 3/8 in each of its diagrams, by kind."""
    d = Diagrams(make_link(3, 8))
    return {cx.kind: minimal_paths(cx, INFINITY, frac(3, 8))[0]
            for cx in (d.dt, d.d1, d.d0)}


# Each call hands a function a path or value it does not take.
GUARDS = {
    "m_form": (lambda p: m_form(p["D1"]), ValueError, "only Dt paths are straightened"),
    "track_contribution": (lambda p: _track_contribution("E", GMat.make(1, 0, 0, 1), 1),
                           ValueError, "unknown edge type 'E'"),
    "m_form_edgewise": (lambda p: m_form_edgewise(p["D0"]), ValueError,
                        "edgewise computation handles Dt and D1 paths"),
    "s_form": (lambda p: s_form(p["Dt"]), ValueError, "s_form takes a D1 path"),
    "s_form_symbolic": (lambda p: s_form_symbolic(p["Dt"]), ValueError,
                        "s_form_symbolic takes a D1 path"),
    "to_preferred": (lambda p: to_preferred((1, 0, 1), 0), TypeError,
                     "cannot rebase (1, 0, 1)"),
    "build_diagram": (lambda p: build_diagram(p["Dt"].cx.chain, "D2"), ValueError,
                      "unknown diagram kind 'D2'"),
    "collapse-source": (lambda p: collapse(p["D1"], p["D0"].cx), ValueError,
                        "only Dt paths collapse"),
    "collapse-target": (lambda p: collapse(p["Dt"], p["Dt"].cx), ValueError,
                        "collapse target must be D1 or D0"),
    "render_key": (lambda p: render_key(("X", 0)), ValueError, "cannot render ('X', 0)"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_wrong_kind_or_type_is_refused(path_of_kind, name):
    call, error, text = GUARDS[name]
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(path_of_kind)


# A link not in make_link's normal form, and the whole message of the
# ValueError it gets: make_link's own for a knot or q = 0.
NOT_NORMAL = {
    (1, 3): "q must be even after reduction, got 1/3 (a knot)",
    (2, 4): "2/4 is not in normal form: make_link gives 1/2",
    (3, 2): "3/2 is not in normal form: make_link gives 1/2",
    (1, 1): "q must be even after reduction, got 1/1 (a knot)",
    (0, 1): "q must be even after reduction, got 0/1 (a knot)",
    (1, 0): "q must be nonzero",
}


@pytest.mark.parametrize("call", [Diagrams, slope_families, oracle_check])
@pytest.mark.parametrize("pq", NOT_NORMAL)
def test_link_not_in_normal_form_is_refused(pq, call):
    with pytest.raises(ValueError, match=f"^{re.escape(NOT_NORMAL[pq])}$"):
        call(TwoBridgeLink(*pq))


def forged(path):
    """The path with a determinant sum one more than its own, so that
    its forms break the parity x + y = 1 + q mod 2."""
    k, a, b = path.sums
    return TypedPath(path.cx, path.trav, (k + 1, a, b))


def tampered(path):
    """The Dt path over a Dt complex of its own in which the edge of
    its first B step with c != 0 is framed by the identity instead: the
    step then adds nothing, where it added +-1 to the beta coefficient
    of M1 and nothing to the alpha coefficient of M2."""
    cx = build_diagram(path.cx.chain, "Dt")
    e = next(t >> 1 for t in path.trav
             if cx._types[t >> 1] == "B" and cx._frames[t >> 1].c)
    cx._frames[e] = GMat.make(1, 0, 0, 1)
    return TypedPath(cx, path.trav)


# Each call hands a function a path whose data break an invariant it
# checks.  The third, x = z mod 2, no data reach: m_form has
# x - z = 2*n0, s_form has z = x, and every edgewise contribution has
# x - z + (mixed coefficient difference) even, so the mixed-coefficient
# check fires first.  test_parity_x_equals_z_raises reaches it with a
# broken contribution instead.
BROKEN = {
    "m_form-parity": (lambda p: m_form(forged(p["Dt"])),
                      "parity x + y = 1 + q mod 2 violated on "),
    "s_form-parity": (lambda p: s_form(forged(p["D1"])),
                      "parity x + y = 1 + q mod 2 violated on "),
    "m_form_edgewise-mixed": (lambda p: m_form_edgewise(tampered(p["Dt"])),
                              "mixed coefficients differ on "),
}


@pytest.mark.parametrize("name", BROKEN)
def test_broken_invariant_raises(path_of_kind, name):
    call, text = BROKEN[name]
    with pytest.raises(RuntimeError, match=f"^{re.escape(text)}"):
        call(path_of_kind)


@pytest.mark.parametrize("kind", ["Dt", "D1"])
def test_a_broken_parity_names_its_path(kind, monkeypatch):
    # slope_families checks the parities once per distinct form; the
    # last listed path of one kind, given a determinant sum one more
    # than its own, breaks x + y = 1 + q mod 2, and the error names it.
    real, broken = slopes.link_paths, []

    def one_path_off(link):
        diagrams, dt, c = real(link)
        path = (dt if kind == "Dt" else c)[-1]
        k, a, b = path.sums
        path._sums = (k + 1, a, b)
        broken.append(path)
        return diagrams, dt, c

    monkeypatch.setattr(slopes, "link_paths", one_path_off)
    text = "parity x + y = 1 + q mod 2 violated on "
    with pytest.raises(RuntimeError, match=f"^{re.escape(text)}") as info:
        slope_families(make_link(13, 34))
    assert str(info.value).startswith(f"{text}{broken[0]}: "), info.value


def test_parity_x_equals_z_raises(path_of_kind, monkeypatch):
    # The first step's M2 beta coefficient one off makes z one off and
    # leaves the mixed coefficients alone.
    steps = []

    def first_step_off(etype, g, sign):
        xa, xb, ya, yb = _track_contribution(etype, g, sign)
        steps.append(etype)
        return xa, xb, ya, yb + (len(steps) == 1)

    monkeypatch.setattr(slopes, "_track_contribution", first_step_off)
    text = "parity x = z mod 2 violated on "
    with pytest.raises(RuntimeError, match=f"^{re.escape(text)}"):
        m_form_edgewise(path_of_kind["Dt"])
