import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import twobridge
from twobridge import slopes
from twobridge.arith import crossing_number, enumerate_links
from twobridge.cli import main
from twobridge.corpus_data import CORPUS
from twobridge.slopes import (LinkSlopes, MForm, SForm, oracle_check,
                              slope_families)
from twobridge.tables import emit, verify_corpus

from oracles import shifted_track_contribution


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSlopesCommand:
    def test_hopf_text(self, capsys):
        rc, out, _ = run(capsys, "slopes", "--pq", "1/2", "--format", "text")
        assert rc == 0
        assert out == "(-t^-1, -t); (t^-1, t)\n"

    def test_rejects_odd_q(self, capsys):
        rc, out, err = run(capsys, "slopes", "--pq", "3/9")
        assert rc == 2
        assert out == ""
        assert "q must be even" in err

    @pytest.mark.parametrize("pq", ["1/1", "7/5"])
    def test_odd_q_names_the_reduced_fraction(self, capsys, pq):
        rc, out, err = run(capsys, "slopes", "--pq", pq)
        assert rc == 2
        assert out == ""
        assert err.endswith("error: argument --pq: q must be even after "
                            f"reduction, got {pq} (a knot)\n")

    def test_rejects_garbage(self, capsys):
        rc, out, _ = run(capsys, "slopes", "--pq", "banana")
        assert rc == 2
        assert out == ""

    @pytest.mark.parametrize("command", ["slopes", "paths"])
    @pytest.mark.parametrize("pq", ["1/2/3", "1/x", "3", "/",
                                    "1_1/2", " 3/8", "\uff13/8"])
    def test_malformed_pq_says_what_it_expects(self, capsys, command, pq):
        # argparse's report: a usage line, then the error.
        rc, out, err = run(capsys, command, "--pq", pq)
        assert rc == 2
        assert out == ""
        assert err.startswith("usage: ")
        assert err.endswith("error: argument --pq: expects P/Q, two integers "
                            f"such as 3/8, got {pq!r}\n")

    def test_negative_p_after_an_equals_sign(self, capsys):
        # argparse takes the value in "--pq -3/8" for an option; the help
        # says to write it with "=".
        negative = run(capsys, "slopes", "--pq=-3/8")
        assert negative == run(capsys, "slopes", "--pq", "5/8")
        for command in ("slopes", "paths"):
            rc, out, _ = run(capsys, command, "--help")
            assert rc == 0
            assert "--pq=-3/8" in " ".join(out.split())

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "slopes", "--pq", "3/8", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data[0]["p"] == 3 and data[0]["q"] == 8
        assert len(data[0]["families"]) == 11

    @pytest.mark.parametrize("argv", [
        ("slopes", "--pq", "3/8"),
        ("table", "--max-crossings", "12"),
    ])
    def test_stderr_empty_when_nothing_is_unexpected(self, capsys, argv):
        rc, _, err = run(capsys, *argv)
        assert rc == 0
        assert err == ""

    def test_diagnostics_go_to_stderr(self, capsys, wrong_limits):
        rc, out, err = run(capsys, "slopes", "--pq", "13/34")
        assert rc == 0
        notes = err.splitlines()
        assert notes and all(
            n.startswith("13/34: t=1 path not a limit of any deformed "
                          "minimal path: ") for n in notes)
        assert "not a limit" not in out

    def test_deep_chain_answers(self, capsys):
        # 1200 crossings: paths of about 1800 steps.
        rc, out, _ = run(capsys, "slopes", "--pq", "1/1200")
        assert rc == 0
        assert out.startswith("(-600, -600); ")


class TestTableCommand:
    @pytest.mark.parametrize("bound", ["2", "3"])
    def test_a_single_row_is_labelled(self, capsys, bound):
        rc, out, _ = run(capsys, "table", "--max-crossings", bound)
        assert rc == 0
        assert out == "1/2 (2^2_1): (-t^-1, -t); (t^-1, t)\n"

    def test_slopes_prints_the_row_without_its_label(self, capsys):
        _, table, _ = run(capsys, "table", "--max-crossings", "5")
        rc, slopes, _ = run(capsys, "slopes", "--pq", "3/8")
        assert rc == 0
        assert "3/8 (5^2_1): " + slopes in table.splitlines(keepends=True)

    def test_diagnostics_go_to_stderr(self, capsys, monkeypatch, wrong_limits):
        rc, out, err = run(capsys, "table", "--max-crossings", "8")
        assert rc == 0
        links = {str(link) for link in enumerate_links(8)}
        notes = err.splitlines()
        assert notes and all(n.split(": ", 1)[0] in links for n in notes)
        monkeypatch.undo()
        assert run(capsys, "table", "--max-crossings", "8") == (0, out, "")

    def test_a_stdout_with_no_buffer_gets_the_text(self):
        # An in-process caller may redirect stdout to an io.StringIO,
        # which has no byte buffer: the output reaches it decoded.
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = main(["table", "--max-crossings", "8", "--format", "json"])
        assert rc == 0
        results = [slope_families(link) for link in enumerate_links(8, True)]
        assert out.getvalue() == emit(results, "json").decode()


    @pytest.mark.parametrize("fmt", ["text", "json", "csv", "tex"])
    def test_a_failure_leaves_the_links_before_it(self, capsys, monkeypatch, fmt):
        # table writes each link as it is computed, so when the fifth
        # link fails, the first four are on stdout before the error.
        calls = []

        def fifth_fails(link):
            calls.append(link)
            if len(calls) == 5:
                raise RuntimeError("the fifth link")
            return slope_families(link)

        monkeypatch.setattr("twobridge.cli.slope_families", fifth_fails)
        rc, out, err = run(capsys, "table", "--max-crossings", "8", "--format", fmt)
        assert (rc, err) == (3, "internal error: RuntimeError: the fifth link\n")
        first_four = [slope_families(link) for link in enumerate_links(8, True)[:4]]
        tail = {"json": "\n]\n", "tex": "\\end{array}\n"}.get(fmt, "")
        assert out == emit(first_four, fmt).decode().removesuffix(tail)

    def test_memory_does_not_grow_with_the_census(self, monkeypatch, paths_through_14):
        # table holds one link's result and text at a time, so its traced
        # peak through 14 crossings (736 links) stays within half again
        # its peak through 12 (197 links); holding every result or the
        # output would multiply it.  The links and their results are made
        # before tracing starts, the results from the paths of
        # ``paths_through_14``, and table gets a fresh copy of each one's
        # forms: so the peak is what table holds on top of its input, and
        # the engine, which tracemalloc slows several-fold, does not run
        # traced.
        listed = {r.link: (r.diagrams, r.dt, [p for p in r.d1 if "C" in p.edge_types()])
                  for r in paths_through_14}
        monkeypatch.setattr(slopes, "link_paths", listed.__getitem__)
        made = {link: slope_families(link) for link in listed}
        links = {n: [r.link for r in paths_through_14 if r.crossings <= n]
                 for n in (12, 14)}

        def fresh(link):
            # Tuples built from lists, as the engine builds them: a tuple
            # built from a generator is resized, and the resized block
            # would take the place of a free-list entry on every link.
            r = made[link]
            return LinkSlopes(link, r.linking_number, tuple([MForm(*f) for f in r.mforms]),
                              tuple([SForm(*f) for f in r.sforms]), r.diagnostics)

        monkeypatch.setattr("twobridge.cli.slope_families", fresh)
        monkeypatch.setattr("twobridge.cli.enumerate_links", lambda n, mirrors: links[n])

        def peak(n):
            with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
                tracemalloc.start()
                try:
                    assert main(["table", "--max-crossings", str(n)]) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        # A first run imports what argparse loads on first use and fills
        # the interpreter's free lists, whose blocks tracemalloc counts
        # when they are first allocated while it traces.
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            main(["table", "--max-crossings", "14"])
        assert peak(14) <= 1.5 * peak(12)


class TestCensusCommand:
    def test_one_line_per_crossing_number(self, capsys):
        rc, out, err = run(capsys, "census", "--max-crossings", "8")
        assert rc == 0 and err == ""
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["crossings"] for row in rows] == [2, 4, 5, 6, 7, 8]
        links = enumerate_links(8)
        for row in rows:
            assert set(row) == {"crossings", "links", "families", "seconds"}
            exact = [link for link in links
                     if crossing_number(link) == row["crossings"]]
            assert row["links"] == len(exact)
            assert row["families"] == sum(
                len(slope_families(link).families) for link in exact)


class TestEnumerateCommand:
    def test_listing(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "--max-crossings", "5")
        assert rc == 0
        assert out.splitlines() == [
            "1/2\t2\t2^2_1", "1/4\t4\t4^2_1", "3/8\t5\t5^2_1"]

    def test_mirrors_apart(self, capsys):
        # 3/4 is the mirror image of 1/4: one row by default, its own
        # row, under the same name, when mirrors are kept apart.
        rc, out, _ = run(capsys, "enumerate", "--max-crossings", "4")
        assert rc == 0
        assert out.splitlines() == ["1/2\t2\t2^2_1", "1/4\t4\t4^2_1"]
        rc, out, _ = run(capsys, "enumerate", "--max-crossings", "4",
                         "--no-identify-mirrors")
        assert rc == 0
        assert out.splitlines() == [
            "1/2\t2\t2^2_1", "1/4\t4\t4^2_1", "3/4\t4\t4^2_1"]


class TestVerifyCommand:
    def test_small(self, capsys):
        rc, out, _ = run(capsys, "verify", "--max-crossings", "2")
        assert rc == 0
        assert out.strip() == "1/1 match"

    def test_full(self, capsys):
        rc, out, _ = run(capsys, "verify", "--max-crossings", "10")
        assert rc == 0
        assert out.strip() == "56/56 match"

    def test_mismatch_prints_the_slope_pairs(self, capsys, monkeypatch):
        (row,) = [r for r in CORPUS if r[2:4] == (3, 8)]
        wrong = tuple("(-2t^-1,-2t)" if f == "(-2t^-1,-2-2t)" else f
                      for f in row[4])
        monkeypatch.setattr("twobridge.tables.CORPUS", (row[:4] + (wrong,),))
        rc, out, err = run(capsys, "verify", "--max-crossings", "5")
        assert rc == 1
        assert out == "0/1 match\n"
        assert err == ("3/8: mismatch\n"
                       "  expected but not computed: (-2t^-1,-2t)\n"
                       "  computed but not expected: (-2t^-1,-2-2t)\n")


class TestPathsCommand:
    def test_text_dump(self, capsys):
        rc, out, _ = run(capsys, "paths", "--pq", "3/8", "--diagram", "dt")
        assert rc == 0
        assert out.startswith("5 minimal paths in Dt from 1/0 to 3/8")

    def test_json_dump(self, capsys):
        rc, out, _ = run(capsys, "paths", "--pq", "1/2", "--diagram", "d1",
                         "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["diagram"] == "D1"
        assert len(data["paths"]) == 2
        assert len(data["edges"]) == 5

    def test_d0_dump(self, capsys):
        rc, out, _ = run(capsys, "paths", "--pq", "1/2", "--diagram", "d0")
        assert rc == 0
        assert "D0" in out



class TestOracleCheckCommand:
    def test_small_range(self, capsys):
        rc, out, _ = run(capsys, "oracle-check", "--max-crossings", "6")
        assert rc == 0
        assert "all agree" in out

    def test_disagreements_fail_the_check(self, capsys, monkeypatch):
        # Every edge adds 2 more to the edgewise M1's alpha coefficient,
        # which keeps every parity: every path disagrees.
        monkeypatch.setattr("twobridge.slopes._track_contribution",
                            shifted_track_contribution)
        rc, out, err = run(capsys, "oracle-check", "--max-crossings", "5")
        expected = [f"{link}: {path}: {push} != {track}"
                    for link in enumerate_links(5)
                    for path, push, track in oracle_check(link).disagreements]
        assert rc == 1
        assert err.splitlines() == expected
        assert out == (f"checked 3 links, {len(expected)} paths: "
                       f"{len(expected)} disagreements\n")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("slopes", "--pq", "13/34", "--format", "json"),
        ("table", "--max-crossings", "6", "--format", "tex"),
        ("enumerate", "--max-crossings", "8"),
        ("surgery", "--kmax", "4"),
    ])
    def test_identical_output_on_repeat(self, capsys, argv):
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestGoldenOutput:
    # SHA-256 of the output as first released; any change to the engine
    # must reproduce these bytes.  The D1, D0 and 1/120 digests were
    # recorded later, from the search that walked every dead end, and
    # the 6765/10946 ones from the search before a path was its
    # traversal numbers.  The text, CSV and TeX tables and the one-link
    # JSON were recorded from the emitters that built a whole-document
    # string before encoding it.
    @pytest.mark.parametrize("argv,digest", [
        (("table", "--max-crossings", "12", "--format", "json"),
         "83557b5bb4e0da36d428faca64255a0dfe2a25a165c5fa2ab569839e3ec5266f"),
        (("table", "--max-crossings", "12", "--format", "text"),
         "100cccd0f0dbd8ddb9df22d16a728b93fd5da040e2145143a3a01ea37112aea4"),
        (("table", "--max-crossings", "12", "--format", "csv"),
         "13047b18ce3cea7416f0b587f831e5e6eda4875a72c1b22d03dfe8c764f99615"),
        (("table", "--max-crossings", "12", "--format", "tex"),
         "55a9237118a93d10a4ace490b41313d5c76e4ee763abac9582b4bf2dafebdf84"),
        (("slopes", "--pq", "6765/10946", "--format", "json"),
         "dfdf8869807af4cedfe67fc818c0385ffc92170bb73f573646553053b5d5dd43"),
        (("paths", "--pq", "89/144", "--diagram", "dt", "--format", "json"),
         "c5ec0fdefe37e2853618331576c6c536f3ca7d52aabbe83ea16a954e3f4dd9fb"),
        (("paths", "--pq", "89/144", "--diagram", "d1", "--format", "json"),
         "28e15ab52f5604f82014eeba6d728becee950ed86cf455d26bfb5d914a4f28ed"),
        (("paths", "--pq", "89/144", "--diagram", "d0", "--format", "json"),
         "9fa6b807377e8da792f8b49b2bd5cbf69fda91524d38d582c5e068125c428b84"),
        (("paths", "--pq", "1/120", "--diagram", "dt", "--format", "json"),
         "6475ecd5ba5168474aa5ed6b1856e1b8748bf7562062b6f5cb47335ed9371977"),
        (("paths", "--pq", "6765/10946", "--diagram", "dt", "--format", "json"),
         "36dd4725b09babedcc6eeb68a3790ee75a699772486a10e89a267e527e7e0b85"),
        (("paths", "--pq", "6765/10946", "--diagram", "d1", "--format", "json"),
         "8af0e7c89fc75dbb2f8b2e807aa21288c681840c3d0fdbbaa407c3917bb723d2"),
        (("surgery", "--kmax", "12"),
         "e6d640b0132c37b5af8b1575801277cf771f5e2219feb175808c0d4ed68ea788"),
    ], ids=["table-12", "table-12-text", "table-12-csv", "table-12-tex",
            "slopes-6765-10946", "paths-89-144", "paths-89-144-d1", "paths-89-144-d0",
            "paths-1-120", "paths-6765-10946", "paths-6765-10946-d1", "surgery-12"])
    def test_output_digest(self, capsys, argv, digest):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestInternalError:
    def test_bug_is_exit_code_3_with_one_line(self, capsys, monkeypatch):
        def broken(link):
            raise RuntimeError("invariant broken\non two lines")
        monkeypatch.setattr("twobridge.cli.slope_families", broken)
        rc, out, err = run(capsys, "slopes", "--pq", "3/8")
        assert rc == 3
        assert out == ""
        assert err == "internal error: RuntimeError: invariant broken on two lines\n"

    def test_check_failure_and_usage_keep_their_codes(self, capsys, monkeypatch):
        assert run(capsys, "slopes", "--pq", "3/9")[0] == 2
        monkeypatch.setattr("twobridge.cli.verify_corpus",
                            lambda n: verify_corpus(n)._replace(matched=0))
        assert run(capsys, "verify", "--max-crossings", "2")[0] == 1


class TestClosedStdout:
    # One start per exit path, as (unbuffered, argv, exit code), named on
    # its right.  The enumeration writes 17,434 bytes, over twice
    # io.DEFAULT_BUFFER_SIZE.  Unbuffered, argparse drops its failed help
    # write itself and exits as after any help: that code is not checked.
    # The two slopes runs write bytes to stdout's buffer, not text: the
    # buffered one fails at main's flush, the unbuffered one at once.
    RUNS = ((False, ["enumerate", "--max-crossings", "15"], 141),  # partway
            (False, ["table", "--max-crossings", "4"], 141),   # main's flush
            (False, ["table", "--max-crossings", "10", "--format", "json"],
             141),                                             # partway
            (False, ["census", "--max-crossings", "4"], 141),  # flush=True
            (False, ["--help"], 141),                          # help
            (True, ["table", "--max-crossings", "4"], 141),    # first write
            (False, ["slopes", "--pq", "3/8", "--format", "json"], 141),
            (True, ["slopes", "--pq", "3/8", "--format", "json"], 141),
            (True, ["slopes", "--help"], None))                # help

    def test_exit_141_and_nothing_on_stderr(self):
        # A reader that stops early, as `| head` does, is not a bug.  The
        # read end is closed before the child writes, so the first write
        # to the pipe fails: at once when unbuffered, else at a flush.
        src = os.path.dirname(os.path.dirname(twobridge.__file__))
        children = []
        for unbuffered, argv, _ in self.RUNS:
            # An empty PYTHONUNBUFFERED leaves stdout buffered.
            env = dict(os.environ, PYTHONPATH=src,
                       PYTHONUNBUFFERED="1" if unbuffered else "")
            read_end, write_end = os.pipe()
            os.close(read_end)
            children.append(subprocess.Popen(
                [sys.executable, "-m", "twobridge", *argv], env=env,
                stdout=write_end, stderr=subprocess.PIPE))
            os.close(write_end)
        for (unbuffered, argv, code), child in zip(self.RUNS, children):
            _, err = child.communicate(timeout=60)
            assert err == b"", (unbuffered, argv)
            if code is not None:
                assert child.returncode == code, (unbuffered, argv)


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_bad_flag(self, capsys):
        assert main(["slopes", "--nope"]) == 2

    @pytest.mark.parametrize("command", ["enumerate", "table", "census",
                                         "verify", "oracle-check"])
    def test_crossing_bound_below_two(self, capsys, command):
        # No link diagram has fewer than 2 crossings: a smaller bound is
        # a usage error, not a crash and not a check of nothing.
        for bound in ("1", "0", "-3"):
            rc, out, err = run(capsys, command, "--max-crossings", bound)
            assert rc == 2, bound
            assert out == ""
            assert "--max-crossings: must be at least 2" in err
        # Integers are ASCII digits, as in --pq.
        for bound in ("x", "1_0", " 4", "\uff14"):
            rc, out, err = run(capsys, command, "--max-crossings", bound)
            assert rc == 2, bound
            assert out == ""
            assert "argument --max-crossings: " in err

    def test_kmax_below_one(self, capsys):
        # The surgery family starts at k = 1.
        for kmax, why in (("0", "must be at least 1"),
                          ("-1", "must be at least 1"),
                          ("x", "invalid int value")):
            rc, out, err = run(capsys, "surgery", "--kmax", kmax)
            assert rc == 2, kmax
            assert out == ""
            assert err.startswith("usage: ")
            assert f"argument --kmax: {why}" in err
