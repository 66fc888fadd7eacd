"""Acceptance suite.

One test per acceptance criterion, each printing a pass line with its
measured runtime.  All comparisons are exact; the stated time budgets
are asserted.  Run with ``pytest tests/test_acceptance.py -s`` to see
the per-criterion lines.
"""

import time
from collections import Counter

from twobridge.arith import (crossing_number, enumerate_links, linking_number,
                             make_link, TwoBridgeLink)
from twobridge.slopes import SForm, m_form, oracle_check, slope_families
from twobridge.tables import verify_corpus

from oracles import dt_paths, expected_surgery_mforms


def _timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, time.monotonic() - t0


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_eight_crossing_table():
    report, dt = _timed(lambda: verify_corpus(8))
    assert report.total == 17
    assert report.ok, [e for e in report.entries if e[1] != "match"]
    assert dt < 1.0, f"took {dt:.2f}s"
    _report(1, f"17/17 links through 8 crossings match exactly ({dt:.2f}s)")


def test_criterion_2_full_table():
    report, dt = _timed(lambda: verify_corpus(10))
    assert report.total == 56
    assert report.ok, [e for e in report.entries if e[1] != "match"]
    assert dt < 10.0, f"took {dt:.2f}s"
    _report(2, f"56/56 links through 10 crossings match exactly ({dt:.2f}s)")


def test_criterion_3_surgery_family():
    for k in (1, 2, 3):
        link = make_link(4 * k - 1, 8 * k)
        result = slope_families(link)
        assert result.link == link

        # Intersection forms, blackboard framing, one per minimal path.
        got = Counter(m_form(p) for p in dt_paths(link))
        assert got == expected_surgery_mforms(k)

        # The s family, after the framing shift.
        assert result.sforms == (SForm(-2 * k - 1, 2 * k - 1),)
        assert result.sforms_raw == (SForm(-2 * k, 2 * k - 1),)

        # Full family pattern: merged, split and endpoint entries.
        fams = {(f.branch, f.coeffs, f.domain, f.phi) for f in result.families}
        expected_fams = {
            ("T", (0, 0, 0), ("0", "inf"), "none"),
            ("T", (0, 2, 0), ("0", "inf"), "none"),
            ("T", (-4 * k, 0, -2), ("1", "inf"), "none"),
            ("T", (-2, 0, -4 * k), ("0", "1"), "none"),
            ("T", (0, -2, 2 - 4 * k), ("1", "inf"), "none"),
            ("T", (2 - 4 * k, -2, 0), ("0", "1"), "none"),
            ("endpoint", (0,), ("inf", "inf"), "second"),
            ("endpoint", (0,), ("0", "0"), "first"),
            ("endpoint", (-4 * k,), ("inf", "inf"), "second"),
            ("endpoint", (-4 * k,), ("0", "0"), "first"),
            ("S", (-2 * k - 1, 2 * k - 1), ("-1", "1"), "none"),
        }
        if k > 1:
            expected_fams.add(("T", (0, -2, 0), ("0", "inf"), "none"))
        assert fams == expected_fams
    _report(3, "surgery-family slopes and intermediate forms match for k = 1, 2, 3")


def test_criterion_4_path_census():
    assert len(dt_paths(make_link(3, 8))) == 5
    assert len(dt_paths(make_link(7, 16))) == 6
    _report(4, "exactly 5 minimal paths for 3/8 and 6 for 7/16")


def test_criterion_5_dual_algorithm_equivalence():
    def check():
        n_dt = n_d1 = 0
        for link in enumerate_links(10):
            report = oracle_check(link)
            assert report.disagreements == (), (
                link, [str(path) for path, _, _ in report.disagreements])
            n_dt += report.dt_paths
            n_d1 += report.d1_paths
        return n_dt, n_d1

    (n_dt, n_d1), dt = _timed(check)
    # every minimal path was compared
    assert (n_dt, n_d1) == (692, 148)
    assert dt < 30.0, f"took {dt:.2f}s"
    _report(5, f"both algorithms agree on {n_dt} deformed paths and "
               f"{n_d1} t=1 paths through 10 crossings ({dt:.2f}s)")


def test_criterion_6_parity_suite(families_through_12):
    checked = 0
    for result in families_through_12:
        parity = (1 + result.link.q) % 2
        for x, y, z in result.mforms_raw:
            assert (x - z) % 2 == 0
            assert (x + y) % 2 == parity
        # an s form has a diagonal to push, so y >= 1
        for x, y in result.sforms_raw:
            assert y >= 1 and (x + y) % 2 == parity
        checked += len(result.mforms_raw) + len(result.sforms_raw)
    _report(6, f"the parities hold for {checked} intersection and s forms "
               f"through 12 crossings")


def test_criterion_7_linking_numbers():
    assert linking_number(make_link(1, 2)) == 0
    assert linking_number(make_link(3, 8)) == -1
    for k in range(1, 6):
        assert linking_number(make_link(4 * k - 1, 8 * k)) == -1
    odd_checked = 0
    for link in enumerate_links(12):
        if link.q % 4 == 0:
            assert linking_number(link) % 2 == 1
            odd_checked += 1
    _report(7, f"linking numbers match, odd for all {odd_checked} links "
               f"with q = 0 mod 4 through 12 crossings")


def test_criterion_8_enumeration_counts():
    counts = Counter(crossing_number(l) for l in enumerate_links(10))
    assert dict(counts) == {2: 1, 4: 1, 5: 1, 6: 3, 7: 3, 8: 8, 9: 12, 10: 27}
    assert counts[3] == 0
    _report(8, "census counts per crossing number match the table rows")


def _swap_family(fam):
    """Exchange the two slope coordinates of a family.

    Swapping the components also inverts t, so a branch over (1, inf)
    with coefficients (X, Y, Z) becomes the branch over (0, 1) with
    coefficients (Z, Y, X); s families are fixed under s -> -s."""
    if fam.branch == "T":
        x, y, z = fam.coeffs
        flip = {("1", "inf"): ("0", "1"), ("0", "1"): ("1", "inf"),
                ("0", "inf"): ("0", "inf")}
        return type(fam)("T", (z, y, x), flip[fam.domain])
    if fam.branch == "endpoint":
        if fam.phi == "second":
            return type(fam)("endpoint", fam.coeffs, ("0", "0"), "first")
        return type(fam)("endpoint", fam.coeffs, ("inf", "inf"), "second")
    return fam


def test_criterion_9_structural_invariants(families_through_12):
    n_links = 0
    for result in families_through_12:
        link = result.link
        slopes_at_one = {(x + y, y + z) for x, y, z in result.mforms}
        for fam in result.families:
            if fam.branch == "T":
                # one shared mixed coefficient: first slope's 1/t term
                # equals second slope's t term by representation; the
                # merge happened exactly when the constants agree
                x, y, z = fam.coeffs
                assert (fam.domain == ("0", "inf")) == (x == z)
        for x, y in result.sforms:
            assert (x + y) + (x - y) == 2 * x
            assert (x + y, x - y) in slopes_at_one
            assert (x - y, x + y) in slopes_at_one

        # The family set is closed under exchanging the components, and
        # the inverse fraction describes the same set.
        fams = set(result.families)
        assert {_swap_family(f) for f in fams} == fams
        partner = TwoBridgeLink(pow(link.p, -1, link.q), link.q)
        assert set(slope_families(partner).families) == fams
        n_links += 1
    _report(9, f"family invariants and inversion symmetry hold for "
               f"{n_links} links through 12 crossings")
