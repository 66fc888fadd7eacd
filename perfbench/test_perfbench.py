"""Tests of the benchmark itself, on inputs small enough for the unit suite."""

import dataclasses
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import twobridge  # noqa: E402
import layertrace  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from twobridge.arith import Frac  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small_links():
    return twobridge.enumerate_links(8) + [twobridge.make_link(1, 120)]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    assert e2e == {name for name, _ in measure.END_TO_END}
    assert layers == {name for name, _ in measure.PER_LAYER}
    for name in e2e | layers | {w["name"] for w in spec["workloads"]}:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_counts_repeat_exactly():
    runs = [measure.traced("census14", small_links, 0.0, 0.0)[0] for _ in range(2)]
    for name, _unit in measure.LAYER_COUNTS:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["slopes.form_yield"] == runs[1]["slopes.form_yield"]
    assert runs[0]["diagram.dt_paths"] == runs[0]["diagram.collapse.calls"] > 0
    assert runs[0]["arith.frac_key.calls"] > 0


def test_wrappers_removed_after_traced_run():
    originals = (twobridge.slope_families, twobridge.cli.main,
                 twobridge.diagram.minimal_paths, Frac.__dict__["key"])
    _metrics, passes, tracer, _shares = measure.traced("census14", small_links, 0.0, 0.0)
    assert layertrace.installed_wrappers() == []
    assert (twobridge.slope_families, twobridge.cli.main,
            twobridge.diagram.minimal_paths, Frac.__dict__["key"]) == originals
    assert twobridge.slopes.slope_families is twobridge.slope_families
    assert len(tracer.names) > 0


def test_wrappers_removed_when_traced_code_raises():
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        assert "twobridge.slopes.slope_families" in layertrace.installed_wrappers()
        try:
            twobridge.diagram.build_diagram([], "D2")
        except ValueError:
            pass
        assert tracer.names == ["diagram.build_d2"] and tracer.ends[0] > 0
    finally:
        tracer.remove()
    assert layertrace.installed_wrappers() == []


def test_traced_output_is_byte_identical():
    inputs = small_links()
    plain = measure.one_pass("census14", inputs)
    _metrics, passes, _tracer, _shares = measure.traced("census14", lambda: inputs, 0.0, 0.0)
    assert passes[0].digest == plain.digest
    assert measure.judge("census14", inputs, [plain] + passes, None) == (0, [])


def test_self_times_subtract_children():
    tracer = layertrace.LayerTracer()
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer.clock = lambda: next(ticks)
    outer = tracer._wrap(lambda: inner(), "outer")
    inner = tracer._wrap(lambda: None, "inner")
    outer()
    assert tracer.self_times() == {"outer": 8.0, "inner": 2.0}
    assert list(tracer.parents) == [-1, 0]


def test_tampered_digest_makes_fail_ratio_nonzero():
    inputs = small_links()
    passes = measure.timed_passes("census14", inputs, 0.0)
    good = passes[0].digest
    assert measure.judge("census14", inputs, passes, good) == (0, [])
    tampered = ("0" if good[0] != "0" else "1") + good[1:]
    failed, reasons = measure.judge("census14", inputs, passes, tampered)
    assert failed == len(inputs) and reasons


def test_oracle_catches_wrong_output():
    inputs = small_links()
    out = workloads.run_pass("census14", inputs)
    assert measure.oracle_failures(inputs, out) == (0, [])
    first = dataclasses.replace(out.results[0], mforms=out.results[0].mforms[1:])
    assert measure.oracle_failures(inputs, out._replace(results=[first] + out.results[1:]))[0] == 1
    assert measure.oracle_failures(inputs, out._replace(data=b"[]\n"))[0] == len(inputs)


def test_inputs_follow_the_seed():
    for name in ("fibonacci", "deep_chain"):
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
        assert workloads.make_inputs(name, 3) != workloads.make_inputs(name, 4)
    for seed in range(5):
        chains = [len(twobridge.quad_chain(link))
                  for link in workloads.make_inputs("deep_chain", seed)]
        assert sorted(chains) == sorted(4 * workloads.DEEP_SLOTS)
    for link in workloads.make_inputs("fibonacci", 5):
        assert set(twobridge.cf_positive(link).terms[1:]) <= {1, 2}


def test_digests_cover_the_held_out_seed():
    digests = measure.load_digests()
    for name in ("census14", "fibonacci", "deep_chain"):
        assert measure.expected_digest(digests, name, measure.HELD_OUT_SEED)
    assert measure.expected_digest(digests, "check", 12345)


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = measure.tail([float(i) for i in range(1, 201)])
    assert (value, pct, n) == (190.0, 95.0, 200)
    assert measure.tail([1.0, 5.0, 2.0]) == (5.0, 100.0, 3)


def test_link_latency_is_the_median_over_passes():
    def out(lat):
        return measure.Pass(sum(lat), sum(lat), "",
                            workloads.PassOutput(b"", len(lat), sum(lat), lat, [], None))
    passes = [out([1.0, 10.0]), out([3.0, 30.0]), out([2.0, 20.0])]
    assert measure.link_latencies(passes) == [2.0, 20.0]
