"""Boundary-slope computation for 2-bridge links.

Every minimal edge path in the deformed diagram carries a spanning
surface whose boundary meets the two longitudes in total intersection
numbers (M1, M2), always integer combinations of the sheet weights alpha
and beta (t = alpha/beta).  Two independent computations are provided:

* ``m_form`` deforms the path to one made of side halves only, whose
  value is a determinant sum over its rational vertices, and corrects
  for each cell the deformation pushed the path across.  One function,
  the straightening step (``diagram._stepper``), says what a traversal
  adds to the sum and the push counts.  The path search adds it up as
  it steps and ``TypedPath.sums`` folds it over a path built otherwise,
  so ``m_form``, ``s_form`` and ``s_form_symbolic`` start from three
  integers per path.  The step-by-step reference for those sums lives
  in the tests (``tests/oracles.py``).
* ``m_form_edgewise`` sums, edge by edge, the intersection of the
  pulled-back longitudes with the train track carried by that edge.

The two must agree exactly on every minimal path of a link, and
``oracle_check`` proves they do by one forward pass over the
traversals a walk from 1/0 can take (``diagram.walk_order``), listing
the paths only to report those that differ.  The paths and the check
that each t = 1 path is a limit of Dt paths are ``diagram.link_paths``
and ``not_limits``.

Paths in the t = 1 diagram that use odd diagonals carry more general
surfaces with one free branching weight n_i in [0, beta] per diagonal;
their value reduces to a one-parameter family in s in [-1, 1]
(``s_form``).  Converting to the preferred longitude adds the linking
number to both slope coordinates.

``slope_families`` evaluates each distinct sum of the listed paths
once, by the same arithmetic as ``m_form`` and ``s_form``, and its
``LinkSlopes`` keeps each form once, rebased to the preferred
longitudes.  The families and the raw forms are derived from those on
each read; the families come in print order from one function
(``_family_order``), as plain int tuples that the emitters read without
building a ``SlopeFamily``.  ``slope_families`` runs with the cyclic
garbage collector paused (``diagram._paused``): it makes no reference
cycles for it to free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .arith import Frac, INFINITY, TwoBridgeLink, linking_number
from .diagram import (Diagrams, TypedPath, _new, _paused, _stepper,
                      link_paths, not_limits, walk_order)


class MForm(NamedTuple):
    """M = (x*alpha + y*beta, y*alpha + z*beta); x and z share parity."""

    x: int
    y: int
    z: int


class SForm(NamedTuple):
    """M = ((x + y*s)*beta, (x - y*s)*beta) with s rational in [-1, 1];
    y counts the odd diagonals of the source path."""

    x: int
    y: int


class SymbolicM(NamedTuple):
    """M with one free weight per odd diagonal of a t = 1 path:
    M1 = b1*beta + sum(n1[i] * n_i), M2 = b2*beta + sum(n2[i] * n_i)."""

    b1: int
    b2: int
    n1: tuple[int, ...]
    n2: tuple[int, ...]


def _check_parities(x: int, y: int, z: int, path: TypedPath) -> None:
    if (x - z) % 2:
        raise RuntimeError(f"parity x = z mod 2 violated on {path}: {(x, y, z)}")
    cx, trav = path.cx, path.trav
    verts = cx._verts
    if verts[cx._ends[trav[0]]] == INFINITY:
        end = verts[cx._heads[trav[-1]]]
        if isinstance(end, Frac) and not end.is_infinite and (x + y - 1 - end.den) % 2:
            raise RuntimeError(
                f"parity x + y = 1 + q mod 2 violated on {path}: {(x, y, z)}")


def _m_coeffs(k: int, n0: int, n1: int) -> tuple[int, int, int]:
    """The (x, y, z) of the push sums (k, n0, n1) of a Dt path: linear,
    so it also maps what one traversal adds to the sums to what it adds
    to the form."""
    return k - n1, n1, k - n1 - 2 * n0


def m_form(path: TypedPath) -> MForm:
    """Intersection pair of a Dt path via straightening.

    The straightened path contributes its determinant sum k as k*(alpha,
    beta); each corner-triangle crossing adds the boundary value of that
    cell: (0, -2*beta) at even vertices, (-alpha + beta, alpha - beta) at
    odd ones, (-2*beta, -2*alpha + 4*beta) for the rectangle.

    Reads k, n0 and n1 from ``path.sums``: the determinant sum of the
    straightened path and the signed corner-triangle counts at even and
    at odd vertices.  Straightening never crosses the rectangle, so
    n4 = 0.
    """
    if path.kind != "Dt":
        raise ValueError("only Dt paths are straightened")
    form = _m_coeffs(*path.sums)
    _check_parities(*form, path)
    return _new(MForm, form)


# Intersection contributions of a single edge, by edge class and by the
# position of -d/c for its carrying matrix [[a,b],[c,d]]: the pullback of
# the first longitude crosses the track at slope -d/c.  Values are
# (M1 alpha, M1 beta, M2 alpha, M2 beta) coefficient tuples.

def _track_contribution(etype: str, g, sign: int) -> tuple[int, int, int, int]:
    a, b, c, d = g
    if etype == "A":
        if c == 0:
            v = (0, 0, 0, 0)
        elif c * d > 0:                 # -d/c < 0
            v = (0, 1, 0, 1)
        else:                           # 0 < -d/c
            v = (0, -1, 0, -1)
    elif etype == "B":
        if c == 0:
            v = (0, 0, 0, 0)
        elif c * d > 0:
            v = (-1, 1, 0, 0)
        else:
            v = (1, -1, 0, 0)
    elif etype == "C":
        if c != 0 and c * d < 0 and abs(d) < abs(c):    # 0 < -d/c < 1
            v = (0, -2, 0, 0)
        else:
            v = (0, 0, 0, 2)
    elif etype == "D":
        if c == 0 or 2 * d + c == 0:                    # -d/c = oo or 1/2
            v = (0, 0, 1, -1)
        elif (2 * d + c) * c > 0:                       # -d/c < 1/2
            v = (-1, 1, 1, -1)
        else:                                           # -d/c > 1/2
            v = (1, -1, 1, -1)
    else:
        raise ValueError(f"unknown edge type {etype!r}")
    return v if sign > 0 else (-v[0], -v[1], -v[2], -v[3])


def _track_contribution_free(g, sign: int) -> tuple[int, int, int, int]:
    """Odd diagonal of the t = 1 diagram, whose surface branches with a
    free weight n: returns (M1 beta, M1 n, M2 beta, M2 n) coefficients."""
    a, b, c, d = g
    if c * d > 0:                       # -d/c < 0: (2(beta - n), 2n)
        v = (2, -2, 0, 2)
    else:                               # 0 < -d/c: (-2n, 2(n - beta))
        v = (0, -2, -2, 2)
    return v if sign > 0 else (-v[0], -v[1], -v[2], -v[3])


def _track_terms_d1(etype: str, g, sign: int) -> SymbolicM:
    """What one traversal of a t = 1 edge adds to the edgewise
    SymbolicM: a side adds to b1 and b2 only, an odd diagonal also one
    free weight's coefficients."""
    if etype == "A":
        da, db, ea, eb = _track_contribution("A", g, sign)
        return SymbolicM(da + db, ea + eb, (), ())     # alpha = beta at t = 1
    c1, w1, c2, w2 = _track_contribution_free(g, sign)
    return SymbolicM(c1, c2, (w1,), (w2,))


def m_form_edgewise(path: TypedPath):
    """Independent intersection computation summing per-edge track
    contributions.

    For Dt paths returns an MForm (checking that the two mixed
    coefficients agree).  For D1 paths the odd diagonals keep one free
    weight each and the result is a SymbolicM.  Each step's type, frame
    and sign are read from the complex's per-edge lists.
    """
    types, frames = path.cx._types, path.cx._frames
    if path.kind == "Dt":
        xa = xb = ya = yb = 0
        for t in path.trav:
            da, db, ea, eb = _track_contribution(types[t >> 1], frames[t >> 1],
                                                 -1 if t & 1 else 1)
            xa += da
            xb += db
            ya += ea
            yb += eb
        if xb != ya:
            raise RuntimeError(f"mixed coefficients differ on {path}: {xb} vs {ya}")
        form = MForm(xa, xb, yb)
        _check_parities(*form, path)
        return form
    if path.kind == "D1":
        b1 = b2 = 0
        n1: list[int] = []
        n2: list[int] = []
        for t in path.trav:
            db1, db2, dn1, dn2 = _track_terms_d1(types[t >> 1], frames[t >> 1],
                                                 -1 if t & 1 else 1)
            b1 += db1
            b2 += db2
            n1 += dn1
            n2 += dn2
        return SymbolicM(b1, b2, tuple(n1), tuple(n2))
    raise ValueError("edgewise computation handles Dt and D1 paths")


def _s_coeffs(k: int, pos: int, neg: int) -> tuple[int, int]:
    """The (x, y) of the push sums (k, P, N) of a t = 1 path."""
    return k - pos + neg, pos + neg


def s_form(path: TypedPath) -> SForm:
    """One-parameter family value of a t = 1 path.

    Each odd diagonal is pushed across the triangle at the even vertex
    of its quadrilateral, adding (-2*beta + 2n, -2n) with its crossing
    sense; with P positive and N negative senses and determinant sum k
    of the straightened path, x = k - P + N and y = P + N.  All three
    come from ``path.sums``.
    """
    if path.kind != "D1":
        raise ValueError("s_form takes a D1 path")
    x, y = _s_coeffs(*path.sums)
    _check_parities(x, y, x, path)
    return _new(SForm, (x, y))


def s_form_symbolic(path: TypedPath) -> SymbolicM:
    """The same push computation kept with one free weight per diagonal,
    for comparison against the edgewise sum.  The determinant sum is
    ``path.sums[0]``; each diagonal's sense, +1 when it is pushed
    positively, is the da - db of its straightening step
    (``diagram._stepper``), which the vertex before it does not change."""
    if path.kind != "D1":
        raise ValueError("s_form_symbolic takes a D1 path")
    step, types = _stepper(path.cx), path.cx._types
    return _symbolic(path.sums[0], [da - db for _, da, db, _, _ in
                                    (step(t, 0, 0) for t in path.trav
                                     if types[t >> 1] == "C")])


def _symbolic(k: int, senses) -> SymbolicM:
    """The push SymbolicM of determinant sum k and the senses of the
    diagonals pushed, in order: linear, so it also gives what one
    traversal adds, from its own term and senses."""
    return SymbolicM(k - 2 * sum(senses), k, tuple(2 * s for s in senses),
                     tuple(-2 * s for s in senses))


class OracleReport(NamedTuple):
    """Both slope algorithms compared on every minimal path of one link:
    the number of Dt paths and of t = 1 paths through an odd diagonal
    checked, and each (path, push value, edgewise value) that differs
    (``oracle_check`` lists the paths only to find those)."""

    dt_paths: int
    d1_paths: int
    disagreements: tuple[tuple[TypedPath, object, object], ...]


def _certify_dt(cx, end: Frac) -> int | None:
    """The number of minimal Dt paths from 1/0 to end when every one of
    them has the same form by push as by edgewise, by one forward pass
    over ``walk_order``; None when the potential disagrees.

    After a traversal t of a walk, its state is the potential, push
    minus edgewise over the walk so far in the coordinates (x, y, z,
    mixed) of the forms, where push has mixed coefficient 0 and edgewise
    xb - ya, then the parity of the push's determinant sum k, then the
    last rational vertex (``_stepper``) after t.  Every walk that
    reaches t must give t the same state, and every traversal into end
    must have potential 0 and k = 1 + q mod 2 (``_check_parities``).
    """
    order = walk_order(cx, INFINITY, end)
    step, types, frames = _stepper(cx), cx._types, cx._frames
    ends, heads = cx._ends, cx._heads
    first, last = cx._ids[INFINITY], cx._ids[end]
    # The start is one more entry, with 1/0 as its last rational vertex
    # and the traversals leaving it after it.
    root = len(heads)
    states: list[tuple | None] = [None] * root + [(0, 0, 0, 0, 0, 1, 0)]
    count = [0] * root + [1]            # walks from 1/0 through t
    for t, nexts in [(root, [t for t, _ in order if ends[t] == first]), *order]:
        p0, p1, p2, p3, parity, pn, pd = states[t]
        c = count[t]
        for u in nexts:
            dk, da, db, qn, qd = step(u, pn, pd)
            x, y, z = _m_coeffs(dk, da, db)
            xa, xb, ya, yb = _track_contribution(types[u >> 1], frames[u >> 1],
                                                 -1 if u & 1 else 1)
            reached = (p0 + x - xa, p1 + y - xb, p2 + z - yb, p3 + ya - xb,
                       (parity + dk) & 1, qn, qd)
            state = states[u]
            if state is None:
                states[u] = reached
            elif state != reached:
                return None
            count[u] += c
    done = (0, 0, 0, 0, (1 + end.den) & 1)
    paths = 0
    for t, _ in order:
        if heads[t] == last:
            if states[t][:5] != done:
                return None
            paths += count[t]
    return paths


def _certify_d1(cx, end: Frac) -> int | None:
    """The number of minimal t = 1 paths from 1/0 to end through an odd
    diagonal when each of them has the same SymbolicM by push as by
    edgewise, by one forward pass over ``walk_order``; None when the
    two disagree on a traversal.

    Every vertex of D1 is rational, so the last one before a traversal
    is its tail, and what the traversal adds by either algorithm depends
    on it alone: each traversal a walk can take must add the same terms
    (b1, b2, n1, n2) both ways.  The paths through a diagonal are all
    the paths less those with none.
    """
    order = walk_order(cx, INFINITY, end)
    step, types, frames = _stepper(cx), cx._types, cx._frames
    verts, ends, heads = cx._verts, cx._ends, cx._heads
    first, last = cx._ids[INFINITY], cx._ids[end]
    count = [0] * len(heads)            # walks from 1/0 through t
    plain = [0] * len(heads)            # those of them with no diagonal
    for t, _ in order:
        if ends[t] == first:
            count[t] = 1
            plain[t] = int(types[t >> 1] != "C")
    paths = 0
    for t, nexts in order:
        pn, pd = verts[ends[t]]
        dk, da, db, _, _ = step(t, pn, pd)
        diagonal = types[t >> 1] == "C"
        if (_symbolic(dk, [da - db] if diagonal else [])
                != _track_terms_d1(types[t >> 1], frames[t >> 1], -1 if t & 1 else 1)):
            return None
        c, n = count[t], plain[t]
        if heads[t] == last:
            paths += c - n
        for u in nexts:
            count[u] += c
            if types[u >> 1] != "C":
                plain[u] += n
    return paths


def oracle_check(link: TwoBridgeLink) -> OracleReport:
    """Compare the push and the edgewise computation on every minimal Dt
    path and every minimal t = 1 path through an odd diagonal, the paths
    ``slope_families`` reads (``diagram.link_paths``).

    First by a certificate, one forward pass over each complex in
    ``walk_order``, which lists no path.  Its potential, push minus
    edgewise over a walk so far, telescopes: along any path the value
    at the end is the sum of what each step adds, so when every walk
    into a traversal gives it the same potential and the potential is 0
    on every traversal into p/q, every path agrees.  The walks are the
    minimal paths, so the pass's sums of counts are the path counts.
    Otherwise some path disagrees, and the paths are listed and compared
    one by one, so each failure is reported path by path, as
    ``m_form``, ``m_form_edgewise`` and ``s_form_symbolic`` find it.
    """
    diagrams = Diagrams(link)
    end = link.fraction()
    dt = _certify_dt(diagrams.dt, end)
    c = None if dt is None else _certify_d1(diagrams.d1, end)
    if c is not None:
        return OracleReport(dt, c, ())
    _diagrams, dt_paths, c_paths = link_paths(link)
    bad = tuple((path, push, track)
                for paths, push_form in ((dt_paths, m_form), (c_paths, s_form_symbolic))
                for path in paths
                if (push := push_form(path)) != (track := m_form_edgewise(path)))
    return OracleReport(len(dt_paths), len(c_paths), bad)


def to_preferred(form, l: int):
    """Rebase a form to the preferred longitudes: both intersection
    numbers gain l times the meridian weight."""
    if isinstance(form, MForm):
        return MForm(form.x + l, form.y, form.z + l)
    if isinstance(form, SForm):
        return SForm(form.x + l, form.y)
    raise TypeError(f"cannot rebase {form!r}")


# -- slope families -------------------------------------------------------

class SlopeFamily(NamedTuple):
    """One family of boundary-slope pairs.

    branch 'T': coeffs (X, Y, Z) meaning (X + Y/t, Y*t + Z) on the stored
    t domain; branch 'S': coeffs (x, y) meaning (x + y*s, x - y*s) for s
    in [-1, 1]; branch 'endpoint': a single slope with no boundary on the
    other component, phi marking which coordinate is empty.
    """

    branch: str
    coeffs: tuple[int, ...]
    domain: tuple[str, str]
    phi: str = "none"


# The (branch, domain, phi) of each kind of family that ``_family_order``
# yields, numbered so that within a branch the kinds sort as the domains
# do: 0 < t < 1, then 0 <= t <= oo, then 1 < t < oo.
_KINDS = (("T", ("0", "1"), "none"), ("T", ("0", "inf"), "none"),
          ("T", ("1", "inf"), "none"), ("endpoint", ("0", "0"), "first"),
          ("endpoint", ("inf", "inf"), "second"), ("S", ("-1", "1"), "none"))


@dataclass(frozen=True)
class LinkSlopes:
    """Complete slope data for one link.

    Each form is stored once, rebased to the preferred longitudes:
    ``mforms`` and ``sforms``, sorted and distinct.  ``mforms_raw``,
    ``sforms_raw`` (the blackboard-framed forms) and ``families`` are
    derived from them on each read and not kept.
    """

    link: TwoBridgeLink
    linking_number: int
    mforms: tuple[MForm, ...]
    sforms: tuple[SForm, ...]
    diagnostics: tuple[str, ...]

    @property
    def mforms_raw(self) -> tuple[MForm, ...]:
        l = self.linking_number
        return tuple([_new(MForm, (x - l, y, z - l)) for x, y, z in self.mforms])

    @property
    def sforms_raw(self) -> tuple[SForm, ...]:
        l = self.linking_number
        return tuple([_new(SForm, (x - l, y)) for x, y in self.sforms])

    @property
    def families(self) -> tuple[SlopeFamily, ...]:
        """The families in output order: T, then endpoints, then S,
        each branch sorted as tuples."""
        out = []
        for item in _family_order(self):
            branch, domain, phi = _KINDS[item[-1]]
            out.append(_new(SlopeFamily, (branch, item[:-1], domain, phi)))
        return tuple(out)

    def presentation(self) -> frozenset[tuple]:
        """The families the reference tables print: one ('T', X, Y, Z)
        per intersection form and one ('S', x, y) per s family."""
        keys = {("T",) + f for f in self.mforms}
        keys |= {("S",) + f for f in self.sforms}
        return frozenset(keys)


def _family_order(r: LinkSlopes):
    """The families of r in output order, each as a plain int tuple: its
    coefficients, then its kind (an index into ``_KINDS``).

    A form (x, y, z) gives the T family (x, y, z) on 0 <= t <= oo when
    x = z, else (x, y, z) on 1 < t < oo and its mirror branch (z, y, x)
    on 0 < t < 1; when y = 0 it also gives the two endpoint entries of
    x.  Each s form (x, y) gives one S family.  Sorting the tuples sorts
    each branch by coefficients, then domain: the order of
    ``SlopeFamily`` tuples, duplicate endpoints included.
    """
    t_families, endpoints = [], []
    for x, y, z in r.mforms:
        if x == z:
            t_families.append((x, y, z, 1))
        else:
            t_families += ((x, y, z, 2), (z, y, x, 0))
        if y == 0:
            endpoints += ((x, 3), (x, 4))
    t_families.sort()
    endpoints.sort()
    yield from t_families
    yield from endpoints
    for x, y in r.sforms:
        yield x, y, 5


@_paused
def slope_families(link: TwoBridgeLink) -> LinkSlopes:
    """All boundary-slope families of a 2-bridge link.

    Minimal Dt paths (from ``diagram.link_paths``, the paths
    ``oracle_check`` checks) give the intersection forms, which give
    the t-parameterized families; minimal t = 1 paths through odd
    diagonals give the s families, and each must be a limit of Dt paths
    (``not_limits``).  The forms are rebased to the preferred longitudes
    and deduplicated; the families are derived from them on read
    (``LinkSlopes``).
    """
    diagrams, dt_paths, c_paths = link_paths(link)
    l = linking_number(link)
    q = link.q

    # ``m_form`` and ``s_form`` read nothing but a path's sums, so the
    # forms of all paths are the forms of their distinct sums.  An M form
    # has x - z = 2*n0 (``_m_coeffs``), so only x + y = 1 + q mod 2 is
    # checked, once per form; a form that breaks it goes to
    # ``_check_parities`` with a path that gives it, for the error that
    # names the path.
    mraw = sorted({_m_coeffs(*s) for s in {p.sums for p in dt_paths}})
    for form in mraw:
        x, y, z = form
        if (x + y - 1 - q) % 2:
            _check_parities(*form, next(p for p in dt_paths if _m_coeffs(*p.sums) == form))
    sraw = sorted({_s_coeffs(*s) for s in {p.sums for p in c_paths}})
    for form in sraw:
        x, y = form
        if (x + y - 1 - q) % 2:
            _check_parities(x, y, x, next(p for p in c_paths if _s_coeffs(*p.sums) == form))

    diagnostics = [f"t=1 path not a limit of any deformed minimal path: {p}"
                   for p in not_limits(dt_paths, c_paths, diagrams.d1)]

    # The shift to the preferred longitudes (``to_preferred``) keeps
    # forms distinct and in order.
    return LinkSlopes(
        link=link,
        linking_number=l,
        mforms=tuple([_new(MForm, (x + l, y, z + l)) for x, y, z in mraw]),
        sforms=tuple([_new(SForm, (x + l, y)) for x, y in sraw]),
        diagnostics=tuple(diagnostics),
    )
