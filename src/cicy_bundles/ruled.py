"""Divisor-class calculus on ruled surfaces.

A ruled surface here is a P^1-bundle over a smooth curve of genus q with a
section h of minimal self-intersection -e and fiber f; the Picard lattice is
Z<h, f> with h^2 = -e, h.f = 1, f^2 = 0.  q = 0 gives the Hirzebruch surface
F_e.  The module provides the intersection pairing, canonical classes,
adjunction genus, embedding degrees, and a divisor-class search used to
certify case eliminations.  The search is solved exactly (a congruence, a
quadratic and linear bounds in the h-coefficient a) and clipped to a box;
the brute-force scan it replaces lives on in the tests as their oracle.

`DivisorClass`, `RuledSurface` and `GenusSearch` are `collections.namedtuple`
records: a class is its (a, b) pair, and a report writes each record as its
fields in order.  The module imports neither `dataclasses` nor `typing`, so a
`query intersect` cold start loads neither.
"""

from __future__ import annotations

import math
from collections import namedtuple


class SearchNotFiniteError(ValueError):
    """Raised when a divisor-class search is not bounded to a finite box."""


class DivisorClass(namedtuple("DivisorClass", "a b")):
    """Integer class a*h + b*f on a ruled surface; `+` is the sum of classes."""

    __slots__ = ()

    def __add__(self, other: DivisorClass) -> DivisorClass:
        return DivisorClass(self.a + other.a, self.b + other.b)


class RuledSurface(namedtuple("RuledSurface", "e q")):
    """P^1-bundle over a genus-q curve; h^2 = -e, h.f = 1, f^2 = 0.

    The Segre-Nagata bound e >= -q holds for every such surface, and
    Hirzebruch surfaces (q = 0) have e >= 0; `_make` and `_replace` check
    it too, through the constructor.
    """

    __slots__ = ()

    def __new__(cls, e: int, q: int = 0) -> RuledSurface:
        if q < 0:
            raise ValueError("base genus q must be nonnegative")
        if e < -q:
            raise ValueError(f"e = {e} violates the Segre-Nagata bound e >= -q = {-q}")
        return tuple.__new__(cls, (e, q))

    @classmethod
    def _make(cls, fields) -> RuledSurface:
        return cls(*fields)


def intersect(d1: DivisorClass, d2: DivisorClass, s: RuledSurface) -> int:
    """Intersection number (a1*h + b1*f).(a2*h + b2*f) = -e*a1*a2 + a1*b2 + a2*b1."""
    return -s.e * d1.a * d2.a + d1.a * d2.b + d2.a * d1.b


def canonical_class(s: RuledSurface) -> DivisorClass:
    """Canonical class -2h + (2q - 2 - e)f."""
    return DivisorClass(-2, 2 * s.q - 2 - s.e)


def adjunction_genus(c: DivisorClass, s: RuledSurface) -> int:
    """Arithmetic genus g of a curve in |c|, from 2g - 2 = C.(C + K); for c = ah + bf
    that is -e*a(a - 1) + 2(ab + a(q - 1) - b), always even, so the halving is exact."""
    return intersect(c, c + canonical_class(s), s) // 2 + 1


def embedding_degree(c: DivisorClass, hyperplane: DivisorClass, s: RuledSurface) -> int:
    """Degree of a curve in |c| under the embedding defined by |hyperplane|."""
    return intersect(c, hyperplane, s)


class GenusSearch(namedtuple("GenusSearch", "hyperplane degree genus bands box",
                             defaults=(None, (), 1000))):
    """Constraints for a search over integer classes a*h + b*f.

    A class qualifies when its embedding degree matches `degree`, its
    adjunction genus matches `genus` (if given), and every linear band
    (ca, cb, lo, hi) of `bands` has lo <= ca*a + cb*b <= hi (None bounds
    are open).  The degree equation fixes b as a function of a, so the
    hyperplane class must have a nonzero h-coefficient; the search is then
    solved exactly in a and its result clipped to |a| <= box.
    """

    __slots__ = ()


def genus_quadratic(search: GenusSearch, s: RuledSurface) -> tuple[int, int, int]:
    """Coefficients (A, B, C0) of the genus condition A*a^2 + B*a + C0 = 0.

    With b = (degree + a*t)/ha and t = e*ha - hb substituted from the degree
    equation, ha * (C.(C + K) - (2g - 2)) is this quadratic in a.
    """
    ha, hb, d = search.hyperplane.a, search.hyperplane.b, search.degree
    t = s.e * ha - hb
    return (s.e * ha - 2 * hb,
            2 * d + (s.e + 2 * s.q - 2) * ha - 2 * t,
            -2 * d - ha * (2 * search.genus - 2))


def eliminate_by_genus(search: GenusSearch, s: RuledSurface) -> list[DivisorClass]:
    """All integer classes meeting the search constraints with |a| <= box, in lex order.

    An empty result certifies that no curve class with |a| <= box satisfies
    the constraints.  The search is solved exactly: the degree equation
    b = (degree + a*t)/ha is a congruence on a, the genus condition is the
    quadratic `genus_quadratic`, and each band bound is a one-sided bound on
    a.  The tests check it against an independent brute-force scan.
    """
    ha, hb, d = search.hyperplane.a, search.hyperplane.b, search.degree
    if ha == 0:
        raise SearchNotFiniteError("search not finite: hyperplane class has no h-component")
    t = s.e * ha - hb
    sign = 1 if ha > 0 else -1
    lo, hi = -search.box, search.box
    # ha*(ca*a + cb*b) = k*a + cb*degree: each bound is k*a >= rhs, signs normalized
    for ca, cb, band_lo, band_hi in search.bands:
        k = sign * (ca * ha + cb * t)
        offset = sign * cb * d
        for k_a, rhs in ((k, None if band_lo is None else abs(ha) * band_lo - offset),
                         (-k, None if band_hi is None else offset - abs(ha) * band_hi)):
            if rhs is None:
                continue
            if k_a > 0:
                lo = max(lo, -(-rhs // k_a))
            elif k_a < 0:
                hi = min(hi, rhs // k_a)
            elif rhs > 0:
                return []
    if search.genus is None:
        values = range(lo, hi + 1)
    else:
        qa, qb, qc = genus_quadratic(search, s)
        if qa:
            disc = qb * qb - 4 * qa * qc
            root = math.isqrt(disc) if disc >= 0 else -1
            values = sorted({n // (2 * qa) for n in (-qb - root, -qb + root)
                             if root * root == disc and n % (2 * qa) == 0})
        elif qb:
            values = [] if qc % qb else [-qc // qb]
        else:
            values = range(lo, hi + 1) if qc == 0 else []
    return [DivisorClass(a, (d + a * t) // ha) for a in values
            if lo <= a <= hi and (d + a * t) % ha == 0]


def disjointness_obstruction(classes: list[DivisorClass], s: RuledSurface) -> bool:
    """True when some pair of the classes has positive intersection number.

    Positive pairing means two members cannot be realized by disjoint curves,
    so a disjoint-union hypothesis is contradicted.
    """
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if intersect(classes[i], classes[j], s) > 0:
                return True
    return False
