"""Timed passes, correctness gate, metrics and the result line.

A run generates the workload's inputs from the seed, then repeats whole
passes over them until ``seconds`` have been spent and reports medians.
With tracing on, half the time goes to untraced passes and half to
traced repetitions of set-up plus one pass, which give the per-layer
numbers and the tracing overhead.

Every time reported is in reference seconds: the CPU time measured,
scaled by how fast the host ran a fixed probe during that pass (the
mean of the probes taken before, between the links of and after the
pass; see speed.py).  The report lines give the raw medians beside
them.  How long a run goes on is counted in wall time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import workloads
from layertrace import LayerTracer
from speed import SpeedMeter, clock

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
TRACE_DIR = HERE / "out"
HELD_OUT_SEED = 4242
SETUP_PROBES = 9

END_TO_END = (
    ("wall_s", "s"),
    ("links_per_s", "1/s"),
    ("link_ms_p50", "ms"),
    ("link_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, span): the self time of each wrapped layer, in seconds.
LAYER_TIMES = (
    ("diagram.quad_chain.s", "diagram.quad_chain"),
    ("diagram.build_dt.s", "diagram.build_dt"),
    ("diagram.build_d1.s", "diagram.build_d1"),
    ("diagram.paths_dt.s", "diagram.paths_dt"),
    ("diagram.paths_d1.s", "diagram.paths_d1"),
    ("diagram.collapse.s", "diagram.collapse"),
    ("slopes.m_form.s", "slopes.m_form"),
    ("slopes.s_form.s", "slopes.s_form"),
    ("slopes.slope_families.self_s", "slopes.slope_families"),
    ("arith.linking_number.s", "arith.linking_number"),
    ("arith.enumerate_links.s", "arith.enumerate_links"),
    ("tables.emit.s", "tables.emit"),
    ("slopes.m_form_edgewise.s", "slopes.m_form_edgewise"),
    ("slopes.s_form_symbolic.s", "slopes.s_form_symbolic"),
    ("tables.verify_corpus.s", "tables.verify_corpus"),
    ("cli.oracle_check.s", "cli.oracle_check"),
)

LAYER_COUNTS = (
    ("arith.frac_key.calls", "count"),
    ("diagram.collapse.calls", "count"),
    ("diagram.chain_quads", "count"),
    ("diagram.dt_edges", "count"),
    ("diagram.d1_edges", "count"),
    ("diagram.dt_paths", "count"),
    ("diagram.d1_paths", "count"),
    ("slopes.c_paths", "count"),
    ("slopes.distinct_mforms", "count"),
    ("slopes.diagnostics", "count"),
    ("tables.emit.bytes", "bytes"),
)

PER_LAYER = (tuple((name, "s") for name, _ in LAYER_TIMES) + LAYER_COUNTS
             + (("slopes.form_yield", "ratio"), ("trace.overhead_s", "s")))

# The ROADMAP's per-layer table, as shares of slope_families time.
ROADMAP_SHARES = (
    ("diagram.collapse", 0.34), ("diagram.build_dt", 0.19),
    ("diagram.paths_dt", 0.13), ("diagram.build_d1", 0.11),
    ("slopes.m_form", 0.07), ("diagram.quad_chain", 0.04),
    ("diagram.paths_d1", 0.02), ("slopes.s_form", 0.01),
)

_SETUP_PROBE = """
import sys, time
t0 = time.process_time()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.make_inputs(sys.argv[3], int(sys.argv[4]))
print(repr(time.process_time() - t0))
"""


class Pass(NamedTuple):
    """One pass: reference seconds, raw seconds, the digest of its output
    and what it produced, with its latencies in reference seconds and its
    output bytes and slope results dropped, so passes do not pile up
    memory."""

    seconds: float
    raw: float
    digest: str
    out: workloads.PassOutput


def setup_seconds(src: Path, name: str, seed: int) -> tuple[float, float]:
    """Median over fresh interpreters of the time to import twobridge and
    make the workload's inputs: (reference seconds, raw seconds)."""
    ref, raw = [], []
    for _ in range(SETUP_PROBES):
        meter = SpeedMeter()
        meter.sample()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(src), str(HERE), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        meter.sample()
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        ref.append(raw[-1] * meter.factor())
    return statistics.median(ref), statistics.median(raw)


def load_digests(path: Path = DIGESTS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_digest(digests: dict, name: str, seed: int) -> str | None:
    """Stored digest of the workload's pass output for this seed; ``check``
    has one digest for every seed, since its commands take no seed."""
    table = digests.get(name, {})
    return table.get(str(seed), table.get("*"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def one_pass(name: str, inputs) -> Pass:
    """One pass with the speed probed before, between links and after; a
    crash in the engine is returned as a failed pass.

    Every time of the pass is scaled by one factor, from the mean of its
    probes, not one per link: a single probe caught by a burst of load
    from another tenant would skew the link beside it.
    """
    meter = SpeedMeter()
    meter.sample()
    t0 = clock()
    try:
        out = workloads.run_pass(name, inputs, meter.maybe)
    except Exception as exc:
        links = 1 if name == "check" else len(inputs)
        out = workloads.PassOutput(b"", links, clock() - t0, [], [], repr(exc))
    meter.sample()
    factor = meter.factor()
    digest = sha256(out.data)
    out = out._replace(data=b"", results=[], latencies=[x * factor for x in out.latencies])
    return Pass(out.seconds * factor, out.seconds, digest, out)


def timed_passes(name: str, inputs, seconds: float) -> list[Pass]:
    """Whole passes until ``seconds`` of wall time have passed."""
    passes, spent = [], 0.0
    while not passes or spent < seconds:
        gc.collect()
        t0 = time.perf_counter()
        passes.append(one_pass(name, inputs))
        spent += time.perf_counter() - t0
    return passes


def oracle_failures(inputs, out: workloads.PassOutput) -> tuple[int, list[str]]:
    """Failed links of a pass judged without a stored digest: the emitted
    JSON must list the input links, and every link must agree with the
    edgewise oracle."""
    if out.error is not None:
        return out.links, [out.error]
    if not out.results:
        return 0, []
    try:
        emitted = [(e["p"], e["q"]) for e in json.loads(out.data)]
    except ValueError:
        emitted = None
    if emitted != [(ln.p, ln.q) for ln in inputs]:
        return out.links, ["emitted JSON does not list the input links"]
    bad = workloads.oracle_mismatches(out.results)
    return bad, [f"{bad} links disagree with the edgewise oracle"] if bad else []


def judge(name: str, inputs, passes: list[Pass], expected: str | None) -> tuple[int, list[str]]:
    """Failed links over the passes, with the reasons.

    With a stored digest every pass must reproduce it byte for byte.
    Without one, one more pass, after all measuring, is checked against
    the edgewise oracle and every timed pass must reproduce its bytes.
    """
    failed, reasons = 0, []
    reference = expected
    if reference is None:
        out = workloads.run_pass(name, inputs)
        reference = sha256(out.data)
        failed, reasons = oracle_failures(inputs, out)
    for p in passes:
        if p.out.error is not None:
            failed += p.out.links
            reasons.append(p.out.error)
        elif p.digest != reference:
            failed += p.out.links
            reasons.append("output digest differs from the reference")
    return failed, reasons


def link_latencies(passes: list[Pass]) -> list[float]:
    """One latency per link: its median over the passes, which is stable
    where the raw samples of a few very different links are not.
    ``check`` has no per-link calls to time, so it gives one sample: the
    median over the passes of a pass's seconds per link."""
    per_pass = [p.out.latencies for p in passes if p.out.latencies]
    if per_pass:
        return [statistics.median(col) for col in zip(*per_pass)]
    return [statistics.median(p.seconds / p.out.links for p in passes if p.out.links)]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile with at
    least ten samples beyond it; the maximum when that percentile would
    not lie above the median, that is with fewer than 22 samples."""
    s = sorted(samples)
    n = len(s)
    i = n - 11 if n >= 22 else n - 1
    return s[i], 100.0 * (i + 1) / n, n


def end_to_end(passes: list[Pass], setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and extra figures for the readable report."""
    samples = link_latencies(passes)
    tail_s, pct, n = tail(samples)
    metrics = {
        "wall_s": statistics.median(p.seconds for p in passes),
        "links_per_s": sum(p.out.links for p in passes) / sum(p.seconds for p in passes),
        "link_ms_p50": 1e3 * statistics.median(samples),
        "link_ms_tail": 1e3 * tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    extra = {"passes": len(passes), "links_per_pass": passes[0].out.links,
             "tail_percentile": pct, "latency_samples": n,
             "raw_wall_s": statistics.median(p.raw for p in passes)}
    return metrics, extra


def traced(name: str, make_inputs, seconds: float,
           untraced_wall: float) -> tuple[dict, list, LayerTracer, dict]:
    """Repeat (``make_inputs()``, one pass) under the tracer until
    ``seconds`` are spent; per-layer medians over the repetitions.

    Returns the metrics, the passes (for the correctness gate), the
    tracer holding the spans and the figures behind the share report.
    The wrappers are removed before return.
    """
    tracer = LayerTracer()
    reps, passes, spent = [], [], 0.0
    tracer.install()
    try:
        while not reps or spent < seconds:
            gc.collect()
            first = len(tracer.names)
            t0 = time.perf_counter()
            inputs = make_inputs()
            p = one_pass(name, inputs)
            spent += time.perf_counter() - t0
            factor = p.seconds / p.raw if p.raw else 1.0
            families = sum(end - start for _i, span, start, end, _p, _l in tracer.spans(first)
                           if span == "slopes.slope_families")
            self_times = {span: s * factor for span, s in tracer.self_times(first).items()}
            reps.append((p.seconds, families * factor, self_times, tracer.take_counts()))
            passes.append(p)
    finally:
        tracer.remove()

    metrics = {}
    for metric, span in LAYER_TIMES:
        metrics[metric] = statistics.median(r[2].get(span, 0.0) for r in reps)
    counts = reps[0][3]
    for metric, _unit in LAYER_COUNTS:
        metrics[metric] = counts.get(metric, 0)
    dt_paths = counts.get("slopes.families_dt_paths", 0)
    metrics["slopes.form_yield"] = (counts.get("slopes.distinct_mforms", 0) / dt_paths
                                    if dt_paths else 0.0)
    traced_wall = statistics.median(r[0] for r in reps)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    shares = {"families_s": statistics.median(r[1] for r in reps),
              "traced_wall_s": traced_wall,
              "repeat_counts": all(r[3] == counts for r in reps)}
    return metrics, passes, tracer, shares


def report_shares(metrics: dict, shares: dict) -> list[str]:
    """Layer shares of slope_families time beside the ROADMAP table, and
    the emit share of the traced pass."""
    lines = []
    total = shares["families_s"]
    if total:
        metric_of = {span: metric for metric, span in LAYER_TIMES}
        lines.append(f"# layer shares of slope_families time ({total:.3f} s per pass)")
        for span, roadmap in ROADMAP_SHARES:
            share = metrics[metric_of[span]] / total
            lines.append(f"#   {span:28s} {share:6.1%}   roadmap {roadmap:4.0%}")
        lines.append(f"#   {'slopes.slope_families self':28s} "
                     f"{metrics['slopes.slope_families.self_s'] / total:6.1%}")
        lines.append(f"#   {'arith.linking_number':28s} "
                     f"{metrics['arith.linking_number.s'] / total:6.1%}")
    if total and shares["traced_wall_s"]:
        emit = metrics["tables.emit.s"]
        lines.append(f"# tables.emit: {emit / shares['traced_wall_s']:.1%} of the traced pass, "
                     f"{emit / total:.1%} on top of slope_families time")
    return lines


def run(name: str, seed: int, seconds: float, trace: bool, src: Path) -> int:
    """One benchmark run; prints the readable report and the result line."""
    inputs = workloads.make_inputs(name, seed)
    expected = expected_digest(load_digests(), name, seed)
    notes = []
    if trace:
        passes = timed_passes(name, inputs, seconds / 2)
        untraced_wall = statistics.median(p.seconds for p in passes)
        metrics, traced_passes, tracer, shares = traced(
            name, lambda: workloads.make_inputs(name, seed), seconds / 2, untraced_wall)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{name}-seed{seed}.tsv"
        tracer.write(trace_file)
        notes.append(f"# spans written to {trace_file.relative_to(HERE.parent)}")
        if name != "check":    # there the oracle, not slope_families, calls most layers
            notes.extend(report_shares(metrics, shares))
        if not shares["repeat_counts"]:
            notes.append("# warning: counts differed between traced repetitions")
        units = dict(PER_LAYER)
        passes = passes + traced_passes
    else:
        passes = timed_passes(name, inputs, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s, raw_setup_s = setup_seconds(src, name, seed)
        metrics, extra = end_to_end(passes, setup_s, rss_mb)
        notes.append(f"# {extra['passes']} passes of {extra['links_per_pass']} links; "
                     f"link_ms_tail is p{extra['tail_percentile']:.1f} of "
                     f"{extra['latency_samples']} per-link median latencies")
        notes.append(f"# raw medians: wall_s {extra['raw_wall_s']:.6g} s, "
                     f"setup_s {raw_setup_s:.6g} s")
        units = dict(END_TO_END)

    failed, reasons = judge(name, inputs, passes, expected)
    attempted = sum(p.out.links for p in passes)
    notes.append(f"# fail_ratio {failed / attempted:.6g} ({failed} of {attempted} links); "
                 f"digest {'stored' if expected else 'not stored: oracle checked'}")
    notes.extend(f"# failure: {r}" for r in reasons[:10])

    for line in notes:
        print(line)
    for metric, value in metrics.items():
        print(f"{metric:32s} {value:.6g} {units[metric]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0
