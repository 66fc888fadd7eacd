"""Exact arithmetic for 2-bridge links.

Reduced fractions including the ideal point 1/0, determinant-one integer
2x2 matrices with even lower-left entry, positive continued fractions,
linking numbers, and enumeration of link types by crossing number.
Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import NamedTuple

from .corpus_data import ROLFSEN_NAMES


class Frac(NamedTuple):
    """Reduced fraction num/den with den >= 0; the ideal point is 1/0."""

    num: int
    den: int

    @staticmethod
    def make(num: int, den: int) -> "Frac":
        if den == 0:
            if num == 0:
                raise ValueError("0/0 is not a projective point")
            return Frac(1, 0)
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        return Frac(num // g, den // g)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def key(self):
        """Sort key; finite rationals in order, 1/0 after everything."""
        return _FRAC_ORDER(self)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


INFINITY = Frac(1, 0)


def frac_cmp(u: Frac, v: Frac) -> int:
    """-1, 0 or 1 as u is below, equal to or above v; 1/0 is above
    every finite rational."""
    if u.den == 0 or v.den == 0:
        return (u.den == 0) - (v.den == 0)
    d = u.num * v.den - v.num * u.den
    return (d > 0) - (d < 0)


_FRAC_ORDER = cmp_to_key(frac_cmp)


class GMat(NamedTuple):
    """Integer matrix [[a, b], [c, d]] of determinant one, taken up to
    sign (an element of PSL(2,Z)).  Stored with c > 0, or c == 0 and
    a > 0."""

    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def make(a: int, b: int, c: int, d: int) -> "GMat":
        if a * d - b * c != 1:
            raise ValueError(f"determinant of [[{a},{b}],[{c},{d}]] is not 1")
        if c < 0 or (c == 0 and a < 0):
            a, b, c, d = -a, -b, -c, -d
        return GMat(a, b, c, d)

    def __mul__(self, other: "GMat") -> "GMat":
        a, b, c, d = self
        e, f, g, h = other
        return GMat.make(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def col2(self) -> Frac:
        return Frac.make(self.b, self.d)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


class TwoBridgeLink(NamedTuple):
    """A 2-bridge link, classified by the reduced fraction p/q with
    0 < p < q, p odd, q even."""

    p: int
    q: int

    def fraction(self) -> Frac:
        return Frac(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def make_link(p: int, q: int) -> TwoBridgeLink:
    """Validate and normalize p/q to a 2-bridge link (two components).

    Reduces the fraction, maps p into (0, q), and rejects odd q, which
    would describe a knot rather than a two-component link.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q % 2 == 1:
        raise ValueError(f"q must be even after reduction, got {p}/{q} (a knot)")
    p %= q
    # gcd(p, q) = 1 with q even forces p odd.
    return TwoBridgeLink(p, q)


def canonical_rep(link: TwoBridgeLink, identify_mirrors: bool = False) -> TwoBridgeLink:
    """Smallest fraction describing the same link type.

    p/q and p'/q give the same unoriented link exactly when p' is p or
    its inverse mod q; the mirror image corresponds to q - p.  With
    ``identify_mirrors`` the representative is taken over the full
    four-element orbit, which holds both p and q - p and so has its
    minimum below q/2 (the chirality the reference tables print).
    """
    p, q = link
    orbit = {p, pow(p, -1, q)}
    if identify_mirrors:
        m = q - p
        orbit |= {m, pow(m, -1, q)}
    return TwoBridgeLink(min(orbit), q)


class ContFrac(NamedTuple):
    """Positive continued fraction [0, a2, ..., an] for p/q in (0, 1),
    meaning 1/(a2 + 1/(a3 + ...)); the last term is at least 2."""

    terms: tuple[int, ...]

    def value(self) -> Frac:
        body = self.terms[1:]
        num, den = 1, body[-1]
        for a in reversed(body[:-1]):
            num, den = den, a * den + num
        return Frac.make(num, den)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.terms)) + "]"


def cf_positive(link: TwoBridgeLink) -> ContFrac:
    """The unique all-positive expansion of p/q with last term >= 2."""
    terms = [0]
    p, q = link.p, link.q
    while p:
        a, r = divmod(q, p)
        terms.append(a)
        p, q = r, p
    if terms[-1] < 2:
        raise ValueError(f"{link} is not a fraction in (0, 1) in lowest terms")
    return ContFrac(tuple(terms))


def crossing_number(link: TwoBridgeLink) -> int:
    """Crossing number, the term sum of the positive expansion."""
    return sum(cf_positive(link).terms)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b)/m) over i = 0..n-1, for n >= 0, m >= 1 and
    a, b >= 0, in O(log m) steps (Euclid on the pair (a, m))."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def linking_number(link: TwoBridgeLink) -> int:
    """Linking number of either component with the blackboard longitude
    used by the slope computation; converting to the preferred framing
    shifts both intersection numbers by this amount.

    It is -sum((-1)^floor(2jp/q)) over j = 1..N with N = (q - 2)/2.  As
    (-1)^floor(x) = 1 - 2*(floor(x) - 2*floor(x/2)), the sum is
    N - 2*sum(floor(2jp/q)) + 4*sum(floor(jp/q)), two floor sums.
    """
    p, q = link
    n = (q - 2) // 2
    return -(n - 2 * _floor_sum(n + 1, q, 2 * p, 0) + 4 * _floor_sum(n + 1, q, p, 0))


def enumerate_links(max_crossings: int, identify_mirrors: bool = True) -> list[TwoBridgeLink]:
    """All 2-bridge link types with at most the given crossing number.

    One canonical representative per type, sorted by crossing number,
    then q, then p.  Walks every positive expansion [0, a2, ..., an]
    with term sum at most ``max_crossings`` from an explicit stack, not
    by recursion.  A stack entry is the convergents p/q and pp/qp of an
    expansion's prefix and the prefix's term sum.  An expansion whose
    last term is at least 2 is the positive expansion of p/q, so its
    term sum is the crossing number of p/q and of every fraction naming
    the same type.
    """
    if max_crossings < 2:
        raise ValueError("a link diagram needs at least 2 crossings")
    seen: set[tuple[int, int, int]] = set()
    stack = [(0, 1, 1, 0, 0)]           # the prefix [0]: 0/1 after 1/0
    while stack:
        p, q, pp, qp, total = stack.pop()
        for a in range(1, max_crossings - total + 1):
            num, den = a * p + pp, a * q + qp
            if a >= 2 and den % 2 == 0:
                rep = canonical_rep(TwoBridgeLink(num, den), identify_mirrors)
                seen.add((total + a, rep.q, rep.p))
            if total + a < max_crossings:
                stack.append((num, den, p, q, total + a))
    return [TwoBridgeLink(p, q) for _, q, p in sorted(seen)]


def rolfsen_name(link: TwoBridgeLink) -> str | None:
    """Classical table name for links through nine crossings, else None."""
    rep = canonical_rep(link, identify_mirrors=True)
    return ROLFSEN_NAMES.get((rep.p, rep.q))
