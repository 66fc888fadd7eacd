"""Embedded reference tables, verification, and serialization.

The corpus in ``corpus_data`` lists, for every 2-bridge link through ten
crossings, the boundary-slope families as printed: one (X + Y/t, Y*t + Z)
family per intersection form (valid for 1 < t < oo) and one
(x + y*s, x - y*s) family per s family, as ``render_key`` prints them.
``verify_corpus`` recomputes everything from scratch and compares
canonical text; nothing is parsed.  ``emit`` serializes computed results
as text, JSON, CSV or TeX with a fixed canonical ordering, so identical
inputs always produce identical bytes, encoded link by link into one
buffer.  The emitters take any iterable of results and read each one
once, so ``table`` streams: it hands them the results as it computes
them and writes each link's bytes as they come.  The JSON emitter
renders each distinct family once per call: links share most of their
families.
"""

from __future__ import annotations

import io
import itertools
import json
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arith import TwoBridgeLink, rolfsen_name
from .corpus_data import CORPUS
from .slopes import (_KINDS, LinkSlopes, SlopeFamily, _family_order,
                     slope_families)

FamilyKey = tuple  # ('T', X, Y, Z) or ('S', x, y)


# -- family notation ------------------------------------------------------

def _coord(const: int, coef: int, sym: str) -> str:
    """Render const + coef*sym, constant first, unit coefficients bare."""
    if coef == 0:
        return str(const)
    mag = "" if abs(coef) == 1 else str(abs(coef))
    term = f"{'-' if coef < 0 else '+'}{mag}{sym}"
    return f"{const}{term}" if const else term.lstrip("+")


def _coords(key: FamilyKey) -> tuple[str, str]:
    """The two slope coordinates of a presentation family, as text."""
    if key[0] == "T":
        _, x, y, z = key
        return _coord(x, y, "t^-1"), _coord(z, y, "t")
    if key[0] == "S":
        _, x, y = key
        return _coord(x, y, "s"), _coord(x, -y, "s")
    raise ValueError(f"cannot render {key!r}")


def render_key(key: FamilyKey) -> str:
    """Canonical text for a presentation family.  Distinct keys render
    distinct text: an S key has y >= 1, as y counts odd diagonals."""
    return "(%s,%s)" % _coords(key)


def _pair(branch: str, coeffs: tuple[int, ...], phi: str) -> tuple[str, str]:
    """The two slope coordinates of the family with these fields."""
    if branch == "endpoint":
        (x,) = coeffs
        return ("phi", str(x)) if phi == "first" else (str(x), "phi")
    return _coords((branch, *coeffs))


def render_family(fam: SlopeFamily) -> tuple[str, str]:
    """The two slope coordinates of a family, as text."""
    return _pair(fam.branch, fam.coeffs, fam.phi)


# -- corpus ---------------------------------------------------------------

class CorpusRow(NamedTuple):
    crossings: int
    name: str | None
    link: TwoBridgeLink
    families: frozenset  # canonical text, as render_key prints it


def load_corpus() -> list[CorpusRow]:
    return [CorpusRow(crossings, name, TwoBridgeLink(p, q), frozenset(fams))
            for crossings, name, p, q, fams in CORPUS]


class TableReport(NamedTuple):
    """Outcome of checking computed slopes against the corpus."""

    entries: tuple  # (link, status, missing, extra) per corpus row
    matched: int
    total: int

    @property
    def ok(self) -> bool:
        return self.matched == self.total

    def summary(self) -> str:
        return f"{self.matched}/{self.total} match"


def verify_corpus(max_crossings: int = 10) -> TableReport:
    """Recompute every corpus link up to the bound and diff the canonical
    text of its presentation families against the stored rows."""
    if max_crossings < 2:
        raise ValueError("a link diagram needs at least 2 crossings")
    entries = []
    for row in load_corpus():
        if row.crossings > max_crossings:
            continue
        computed = frozenset(map(render_key,
                                 slope_families(row.link).presentation()))
        missing, extra = row.families - computed, computed - row.families
        status = "mismatch" if missing or extra else "match"
        entries.append((row.link, status, missing, extra))
    matched = sum(entry[1] == "match" for entry in entries)
    return TableReport(tuple(entries), matched, len(entries))


# -- serialization --------------------------------------------------------

# Every emitter is a generator of text pieces, one link each (plus a
# head or a tail), and reads each result once, so it takes any iterable
# of results, a one-shot stream of them included.  ``_stream`` encodes
# each piece as it comes and hands the bytes on: ``emit`` appends them
# to one ``BytesIO``, and the ``table`` command writes them to stdout
# while the next link is computed.  So ``emit`` holds at once the bytes
# written so far (with ``BytesIO``'s growth margin of up to an eighth),
# one piece's text and, for JSON, the memo below, and ``table`` holds no
# more than one link's result and piece besides the memo.  The TeX
# header says whether any link has a name, so the TeX emitter alone
# holds results, until it meets a link with a name: for ``table`` that
# is the first link, 1/2.
#
# The emitters read a link's families from ``slopes._family_order``, as
# plain int tuples, and build no ``SlopeFamily``.  The JSON output is the
# layout of ``json.dumps(payload, indent=2)``, written directly: the
# stdlib encoder falls back to pure Python when it indents, and its
# per-value dispatch was the largest cost of a census.  A family's text
# depends only on its tuple, and nine in ten families of a census repeat
# one met before, so each emit keeps the text of every family it has
# rendered, keyed by the tuple.  That memo lives for the one call: kept
# longer, it would grow with every distinct family a long-lived process
# emits, and a second emit of the same results would skip the first
# one's work.
_json_str = json.encoder.encode_basestring_ascii


def _json_array(items: Sequence[str], indent: str) -> str:
    """Rendered items as an indented JSON array closing at ``indent``."""
    if not items:
        return "[]"
    sep = "\n" + indent + "  "
    return f"[{sep}{(',' + sep).join(items)}\n{indent}]"


# The JSON text of a family before and after its coefficients, by kind.
_JSON_KINDS = tuple(
    (f'{{\n        "branch": {_json_str(branch)},\n        "coeffs": ',
     f',\n        "domain": {_json_array([_json_str(d) for d in domain], " " * 8)},'
     f'\n        "phi": {_json_str(phi)}\n      }}')
    for branch, domain, phi in _KINDS)


def _family_json(item: tuple[int, ...]) -> str:
    """The JSON text of one family tuple of ``_family_order``."""
    head, tail = _JSON_KINDS[item[-1]]
    return head + _json_array([str(c) for c in item[:-1]], " " * 8) + tail


def _link_json(r: LinkSlopes, rendered: dict[tuple[int, ...], str]) -> str:
    """One link's JSON text; ``rendered`` holds the text of each family
    met so far in this emit, and takes each one not yet in it."""
    name = rolfsen_name(r.link)
    texts = []
    for item in _family_order(r):
        text = rendered.get(item)
        if text is None:
            text = rendered[item] = _family_json(item)
        texts.append(text)
    families = _json_array(texts, " " * 4)
    return (f'{{\n    "p": {r.link.p},'
            f'\n    "q": {r.link.q},'
            f'\n    "rolfsen": {"null" if name is None else _json_str(name)},'
            f'\n    "linking_number": {r.linking_number},'
            f'\n    "families": {families}\n  }}')


def _emit_json(results: Iterable[LinkSlopes]) -> Iterator[str]:
    rendered: dict[tuple[int, ...], str] = {}
    sep = "[\n  "
    for r in results:
        yield sep + _link_json(r, rendered)
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _emit_csv(results: Iterable[LinkSlopes]) -> Iterator[str]:
    yield "p,q,branch,X,Y,Z,domain_lo,domain_hi,phi\n"
    for r in results:
        rows = []
        for item in _family_order(r):
            branch, (lo, hi), phi = _KINDS[item[-1]]
            coeffs = ",".join(map(str, item[:-1])) + ",_" * (4 - len(item))
            rows.append(f"{r.link.p},{r.link.q},{branch},{coeffs},{lo},{hi},{phi}\n")
        yield "".join(rows)


def render_families(r: LinkSlopes) -> str:
    """The families of one link as one line of slope pairs."""
    pairs = []
    for item in _family_order(r):
        branch, _, phi = _KINDS[item[-1]]
        pairs.append("(%s, %s)" % _pair(branch, item[:-1], phi))
    return "; ".join(pairs)


def _emit_text(results: Iterable[LinkSlopes]) -> Iterator[str]:
    """One line per link, labelled with its fraction and its name where
    it has one; an empty table is one empty line."""
    empty = True
    for r in results:
        empty = False
        name = rolfsen_name(r.link)
        label = f"{r.link}" + (f" ({name})" if name else "")
        yield f"{label}: {render_families(r)}\n"
    if empty:
        yield "\n"


def _tex_coord(text: str) -> str:
    return text.replace("t^-1", "t^{-1}")


def _emit_tex(results: Iterable[LinkSlopes]) -> Iterator[str]:
    """Tabular layout in the style of the printed tables: four families
    per line, one block per link, names where they exist.  The header
    says whether any link has a name: the results are held until the
    first one that has, or to the end when none has."""
    results = iter(results)
    held, named = [], False
    for r in results:
        held.append(r)
        if rolfsen_name(r.link):
            named = True
            break
    cols = "|c|r|llll|" if named else "|r|llll|"
    head = ("\\mbox{link}&p/q&\\mbox{boundary slopes}&&&"
            if named else "p/q&\\mbox{boundary slopes}&&&")
    yield f"\\begin{{array}}{{{cols}}}\n\\hline\n{head}\\\\\n\\hline\n\\hline\n"
    for r in itertools.chain(held, results):
        keys = sorted(r.presentation(), key=lambda k: (k[0] != "T", k[1:]))
        cells = [_tex_coord(render_key(k)) for k in keys]
        prefix = ([rolfsen_name(r.link) or "", str(r.link)]
                  if named else [str(r.link)])
        rows = []
        first = True
        while cells or first:
            group, cells = cells[:4], cells[4:]
            group += [""] * (4 - len(group))
            row = (prefix if first else [""] * len(prefix)) + group
            rows.append("&".join(row) + "\\\\\n")
            first = False
        yield "".join(rows) + "\\hline\n"
    yield "\\end{array}\n"


_EMITTERS = {"json": _emit_json, "csv": _emit_csv,
             "text": _emit_text, "tex": _emit_tex}


def _stream(results: Iterable[LinkSlopes], fmt: str, write) -> None:
    """Render the results in format fmt and hand ``write`` the UTF-8
    bytes of each piece, one link or the head or tail, as it is made."""
    if fmt not in _EMITTERS:
        raise ValueError(f"unknown format {fmt!r}")
    for piece in _EMITTERS[fmt](results):
        write(piece.encode())


def emit(results: Iterable[LinkSlopes], fmt: str) -> bytes:
    """Deterministic serialization of computed slope data, as UTF-8
    bytes built in one pass: each piece of the format's text, one link,
    is encoded and appended to one buffer as it is rendered, so the
    whole document exists only as the bytes returned.  ``results`` may
    be any iterable; each result is read once."""
    out = io.BytesIO()
    _stream(results, fmt, out.write)
    return out.getvalue()
