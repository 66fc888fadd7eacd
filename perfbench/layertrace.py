"""Per-layer tracing of the engine from the outside.

``LayerTracer.install`` replaces the public functions that
``slope_families`` and the CLI call with wrappers that record one span
per call (name, start, end, parent span, link id) and a few counts taken
from the call's arguments and result.  Every module attribute that
refers to a wrapped function is swapped, so the engine runs unmodified,
and ``remove`` puts every original back.  ``Frac.key`` is only counted:
it runs about a million times per 14-crossing census, too often for a
span each.

Spans stay in memory, one column per field so that recording a span
allocates no object the garbage collector tracks (a tuple per span made
collections more frequent and inflated the path search's self time by a
third); ``write`` saves them when the benchmark ends.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict

from speed import clock

# (module, attribute, span name).  A callable name is given the call's
# positional arguments and picks the span name from them.
TARGETS = (
    ("twobridge.arith", "enumerate_links", "arith.enumerate_links"),
    ("twobridge.arith", "linking_number", "arith.linking_number"),
    ("twobridge.diagram", "quad_chain", "diagram.quad_chain"),
    ("twobridge.diagram", "build_diagram",
     lambda args: "diagram.build_" + args[1].lower()),
    ("twobridge.diagram", "minimal_paths",
     lambda args: "diagram.paths_" + args[0].kind.lower()),
    ("twobridge.diagram", "collapse", "diagram.collapse"),
    ("twobridge.slopes", "slope_families", "slopes.slope_families"),
    ("twobridge.slopes", "m_form", "slopes.m_form"),
    ("twobridge.slopes", "s_form", "slopes.s_form"),
    ("twobridge.slopes", "m_form_edgewise", "slopes.m_form_edgewise"),
    ("twobridge.slopes", "s_form_symbolic", "slopes.s_form_symbolic"),
    ("twobridge.tables", "emit", "tables.emit"),
    ("twobridge.tables", "verify_corpus", "tables.verify_corpus"),
    ("twobridge.cli", "main",
     lambda args: "cli." + args[0][0].replace("-", "_")),
)


def _engine_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "twobridge" or name.startswith("twobridge."))]


class LayerTracer:
    """Spans and counts of one traced region; see the module docstring."""

    def __init__(self):
        self.clock = clock   # read when a wrapper is made
        # Span i is (names[i], starts[i], ends[i], parents[i], links[i]);
        # a parent of -1 marks a span with no traced caller.
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.links: list[str | None] = []
        self.counts: Counter = Counter()
        self.d1_results: list = []
        self._key_calls = [0]      # a cell the Frac.key wrapper bumps
        self._stack: list[int] = []
        self._link: str | None = None
        self._in_families = 0
        self._patches: list = []   # (owner, attribute, original)

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        names, starts, ends = self.names, self.starts, self.ends
        parents, links, stack, clock = self.parents, self.links, self._stack, self.clock

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            tracer._enter(span_name, args)
            idx = len(names)
            names.append(span_name)
            starts.append(0.0)
            ends.append(0.0)
            parents.append(stack[-1] if stack else -1)
            links.append(tracer._link)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
                tracer._leave(span_name)
            tracer._count(span_name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.layertrace = True
        return wrapper

    def _enter(self, name, args):
        if name == "slopes.slope_families":
            self._in_families += 1
            self._link = str(args[0])
        elif name == "diagram.quad_chain":
            self._link = str(args[0])

    def _leave(self, name):
        if name == "slopes.slope_families":
            self._in_families -= 1
            self._link = None
        elif name.startswith("cli."):
            self._link = None

    def _count(self, name, args, result):
        counts = self.counts
        counts[name + ".calls"] += 1
        if name == "diagram.quad_chain":
            counts["diagram.chain_quads"] += len(result)
        elif name.startswith("diagram.build_"):
            counts["diagram." + name[len("diagram.build_"):] + "_edges"] += len(result.edges)
        elif name == "diagram.paths_dt":
            counts["diagram.dt_paths"] += len(result)
            if self._in_families:
                counts["slopes.families_dt_paths"] += len(result)
        elif name == "diagram.paths_d1":
            counts["diagram.d1_paths"] += len(result)
            self.d1_results.append(result)
        elif name == "slopes.slope_families":
            counts["slopes.distinct_mforms"] += len(result.mforms_raw)
            counts["slopes.diagnostics"] += len(result.diagnostics)
        elif name == "tables.emit":
            counts["tables.emit.bytes"] += len(result)

    def take_counts(self) -> Counter:
        """Counts recorded since the last call, with the C-path count of
        the t = 1 path lists filled in; resets the counts."""
        counts = self.counts
        counts["slopes.c_paths"] += sum(
            1 for paths in self.d1_results for p in paths if "C" in p.edge_types())
        counts["arith.frac_key.calls"] += self._key_calls[0]
        self._key_calls[0] = 0
        self.counts = Counter()
        self.d1_results = []
        return counts

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Swap every engine reference to a target for its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _engine_modules()
        try:
            for module, attr, name in TARGETS:
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(original, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            frac = sys.modules["twobridge.arith"].Frac
            original_key = frac.__dict__["key"]
            calls = self._key_calls

            def key(v):
                calls[0] += 1
                return original_key(v)

            key.__wrapped__ = original_key
            key.layertrace = True
            self._patches.append((frac, "key", original_key))
            frac.key = key
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def spans(self, first: int = 0):
        """(index, name, start, end, parent index, link id) of each span
        from ``first`` on."""
        for i in range(first, len(self.names)):
            yield (i, self.names[i], self.starts[i], self.ends[i],
                   self.parents[i], self.links[i])

    def self_times(self, first: int = 0) -> dict:
        """Seconds per span name over the spans from ``first`` on, each
        span's duration minus the part its child spans cover."""
        child = defaultdict(float)
        for _i, _name, start, end, parent, _link in self.spans(first):
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, name, start, end, _parent, _link in self.spans(first):
            out[name] += end - start - child[i]
        return dict(out)

    def write(self, path) -> None:
        """Save every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tlink\n")
            for i, name, start, end, parent, link in self.spans():
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{link or '-'}\n")


def installed_wrappers() -> list[str]:
    """Names of engine attributes that still hold a tracing wrapper."""
    found = []
    for mod in _engine_modules():
        for key, value in vars(mod).items():
            if getattr(value, "layertrace", False):
                found.append(f"{mod.__name__}.{key}")
    frac = sys.modules["twobridge.arith"].Frac
    if getattr(frac.__dict__["key"], "layertrace", False):
        found.append("twobridge.arith.Frac.key")
    return found
