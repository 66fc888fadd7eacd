import json
import tracemalloc

import pytest
from hypothesis import given, settings

from twobridge.arith import make_link, rolfsen_name
from twobridge.corpus_data import CORPUS
from twobridge.slopes import slope_families
from twobridge.tables import (emit, load_corpus, render_families, render_key,
                              verify_corpus)

from oracles import links


class TestFamilyNotation:
    @pytest.mark.parametrize("text,key", [
        ("(t^-1,t)", ("T", 0, 1, 0)),
        ("(-t^-1,-t)", ("T", 0, -1, 0)),
        ("(-2t^-1,-4-2t)", ("T", 0, -2, -4)),
        ("(2-2t^-1,-2-2t)", ("T", 2, -2, -2)),
        ("(-4,-2)", ("T", -4, 0, -2)),
        ("(0,0)", ("T", 0, 0, 0)),
        ("(-3+s,-3-s)", ("S", -3, 1)),
        ("(s,-s)", ("S", 0, 1)),
        ("(3s,-3s)", ("S", 0, 3)),
        ("(-6+2s,-6-2s)", ("S", -6, 2)),
    ])
    def test_parse(self, text, key):
        # A corpus string is read as the key that renders to it: the
        # notation is rendered, never parsed.
        assert render_key(key) == text


class TestCorpus:
    def test_row_counts(self):
        rows = load_corpus()
        assert len(rows) == 56
        by_crossings = {}
        for row in rows:
            by_crossings[row.crossings] = by_crossings.get(row.crossings, 0) + 1
        assert by_crossings == {2: 1, 4: 1, 5: 1, 6: 3, 7: 3, 8: 8, 9: 12, 10: 27}

    def test_verify_smallest(self):
        report = verify_corpus(2)
        assert report.ok and report.total == 1
        assert report.summary() == "1/1 match"

    @pytest.mark.parametrize("bound", [1, 0, -5])
    def test_verify_below_two_crossings_is_an_error(self, bound):
        # No link has fewer than 2 crossings, so such a bound would
        # check nothing and report "0/0 match".
        with pytest.raises(ValueError, match="at least 2 crossings"):
            verify_corpus(bound)

    def test_verify_is_pure(self):
        assert verify_corpus(5) == verify_corpus(5)

    @pytest.mark.parametrize("spelling", [
        "(-3+s, -3-s)", "(s-3,-3-s)", "(-3+1s,-3-1s)", "(-3+s,-3+-s)",
    ])
    def test_other_spellings_are_mismatches(self, monkeypatch, spelling):
        # The corpus is compared as text, so a row must be written as
        # render_key prints it; the same slopes spelled otherwise fail.
        (row,) = [r for r in CORPUS if r[2:4] == (3, 8)]
        fams = tuple(spelling if f == "(-3+s,-3-s)" else f for f in row[4])
        monkeypatch.setattr("twobridge.tables.CORPUS", (row[:4] + (fams,),))
        (entry,) = verify_corpus(5).entries
        assert entry[1:] == ("mismatch", {spelling}, {"(-3+s,-3-s)"})


class TestSurgeryFamilyTable:
    def test_contracted_family_only_above_one(self):
        # The merged (-2/t, -2t) family of (4k-1)/(8k) needs k > 1.
        def keys(k):
            return slope_families(make_link(4 * k - 1, 8 * k)).presentation()
        assert ("T", 0, -2, 0) not in keys(1)
        for k in (2, 3):
            assert ("T", 0, -2, 0) in keys(k)


@pytest.fixture(scope="module")
def hopf():
    return [slope_families(make_link(1, 2))]


class TestEmit:

    def test_text(self, hopf):
        # Every row is labelled, even the only one; the slopes command
        # prints render_families alone.
        assert emit(hopf, "text") == b"1/2 (2^2_1): (-t^-1, -t); (t^-1, t)\n"
        assert render_families(hopf[0]) == "(-t^-1, -t); (t^-1, t)"

    def test_json_schema(self, hopf):
        data = json.loads(emit(hopf, "json"))
        assert data == [{
            "p": 1, "q": 2, "rolfsen": "2^2_1", "linking_number": 0,
            "families": [
                {"branch": "T", "coeffs": [0, -1, 0],
                 "domain": ["0", "inf"], "phi": "none"},
                {"branch": "T", "coeffs": [0, 1, 0],
                 "domain": ["0", "inf"], "phi": "none"},
            ],
        }]

    def test_json_carries_endpoints_and_phi(self):
        data = json.loads(emit([slope_families(make_link(3, 8))], "json"))
        branches = {(f["branch"], f["phi"]) for f in data[0]["families"]}
        assert ("endpoint", "first") in branches
        assert ("endpoint", "second") in branches

    def test_csv(self, hopf):
        lines = emit(hopf, "csv").decode().splitlines()
        assert lines[0] == "p,q,branch,X,Y,Z,domain_lo,domain_hi,phi"
        assert lines[1] == "1,2,T,0,-1,0,0,inf,none"
        assert len(lines) == 3

    def test_csv_pads_missing_columns(self):
        lines = emit([slope_families(make_link(3, 8))], "csv").decode().splitlines()
        s_rows = [l for l in lines if ",S," in l]
        assert s_rows == ["3,8,S,-3,1,_,-1,1,none"]
        assert any(",endpoint," in l and ",_,_," in l for l in lines)

    def test_tex_mentions_inverse_t(self, hopf):
        text = emit(hopf, "tex").decode()
        assert "t^{-1}" in text
        assert text.startswith("\\begin{array}")

    def test_empty_input(self):
        assert emit([], "text") == b"\n"
        assert json.loads(emit([], "json")) == []
        assert emit([], "csv").decode().splitlines() == [
            "p,q,branch,X,Y,Z,domain_lo,domain_hi,phi"]

    @pytest.mark.parametrize("fmt", ["json", "csv", "text", "tex"])
    def test_a_one_shot_iterator_gives_the_same_bytes(self, families_through_12, fmt):
        # Each emitter reads each result once, so a stream of results
        # that can be read only once gives what the list gives; TeX
        # holds results until the first with a name, or to the end.
        unnamed = [r for r in families_through_12 if rolfsen_name(r.link) is None]
        assert unnamed
        for results in (families_through_12, unnamed, []):
            assert emit(iter(results), fmt) == emit(results, fmt)

    def test_unknown_format_rejected(self, hopf):
        with pytest.raises(ValueError):
            emit(hopf, "yaml")

    def test_deterministic(self, hopf):
        for fmt in ("text", "json", "csv", "tex"):
            assert emit(hopf, fmt) == emit(hopf, fmt)


class TestEmitMemory:
    # emit appends each link's bytes to one buffer as it renders them, so
    # what it holds at once is about the output: the buffer with its
    # growth margin, one link's text, and for JSON the family memo.  A
    # whole-document str and its encoded copy would hold three times the
    # output or more.
    @pytest.mark.parametrize("fmt", ["json", "csv", "text", "tex"])
    def test_peak_within_half_again_the_output(self, families_through_12, fmt):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            data = emit(families_through_12, fmt)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * len(data), (peak, len(data))


def json_oracle(results):
    """The JSON emitter as first written: ``json.dumps`` of the payload."""
    payload = [{
        "p": r.link.p,
        "q": r.link.q,
        "rolfsen": rolfsen_name(r.link),
        "linking_number": r.linking_number,
        "families": [{"branch": f.branch, "coeffs": list(f.coeffs),
                      "domain": list(f.domain), "phi": f.phi}
                     for f in r.families],
    } for r in results]
    return (json.dumps(payload, indent=2) + "\n").encode()


class TestJsonMatchesOracle:
    def test_every_link_through_twelve(self, families_through_12):
        results = families_through_12
        assert emit(results, "json") == json_oracle(results)
        for r in results:
            assert emit([r], "json") == json_oracle([r])

    def test_empty(self):
        assert emit([], "json") == json_oracle([]) == b"[]\n"

    def test_names_and_nulls(self):
        named, unnamed = (slope_families(make_link(3, 8)),
                          slope_families(make_link(1, 20)))
        assert rolfsen_name(named.link) and rolfsen_name(unnamed.link) is None
        data = emit([named, unnamed], "json")
        assert data == json_oracle([named, unnamed])
        assert b'"rolfsen": "5^2_1"' in data and b'"rolfsen": null' in data

    def test_one_element_coeffs(self):
        result = slope_families(make_link(3, 8))
        assert any(f.branch == "endpoint" and len(f.coeffs) == 1
                   for f in result.families)
        assert emit([result], "json") == json_oracle([result])


# Past the links through 12 crossings checked above.
@settings(max_examples=25, deadline=None)
@given(links(min_crossings=13, max_crossings=20))
def test_json_matches_oracle_on_drawn_links(link):
    result = slope_families(link)
    assert emit([result], "json") == json_oracle([result])
