import math
import random

import pytest
from hypothesis import given, strategies as st

from cicy_bundles import (
    DivisorClass,
    GenusSearch,
    RuledSurface,
    SearchNotFiniteError,
    adjunction_genus,
    canonical_class,
    disjointness_obstruction,
    eliminate_by_genus,
    embedding_degree,
    genus_quadratic,
    intersect,
)

F0, F1, F3 = RuledSurface(0), RuledSurface(1), RuledSurface(3)

surfaces = st.tuples(st.integers(-3, 6), st.integers(0, 3)).filter(
    lambda t: t[0] >= -t[1]
).map(lambda t: RuledSurface(*t))
classes = st.builds(DivisorClass, st.integers(-20, 20), st.integers(-20, 20))


def pairing(x, y, s):
    """(a1 h + b1 f).(a2 h + b2 f) expanded on the basis h^2 = -e, h.f = 1, f^2 = 0."""
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 * -s.e + (a1 * b2 + b1 * a2) * 1 + b1 * b2 * 0


def scan(search, s):
    """Independent 2-d reference scan of a class search, written out from the
    raw pairing; the b-window covers every value the degree line can reach."""
    hyper, degree, genus, box = search.hyperplane, search.degree, search.genus, search.box
    bmax = abs(degree) + (abs(s.e) * abs(hyper.a) + abs(hyper.b)) * box
    found = []
    for a in range(-box, box + 1):
        for b in range(-bmax, bmax + 1):
            if -s.e * a * hyper.a + a * hyper.b + hyper.a * b != degree:
                continue
            kf = 2 * s.q - 2 - s.e
            if genus is not None and -s.e * a * (a - 2) + a * (b + kf) + (a - 2) * b != 2 * genus - 2:
                continue
            if any(lo is not None and ca * a + cb * b < lo or hi is not None and ca * a + cb * b > hi
                   for ca, cb, lo, hi in search.bands):
                continue
            found.append(DivisorClass(a, b))
    return sorted(found, key=tuple)


def test_surface_guards():
    with pytest.raises(ValueError, match="Segre-Nagata"):
        RuledSurface(-1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        RuledSurface(0, -1)
    assert RuledSurface(-2, 2).e == -2


@pytest.mark.parametrize("d1, d2, s, expected", [
    (d1, d2, s, pairing(d1, d2, s)) for d1, d2, s in (
        ((4, 8), (2, 5), F1), ((0, 1), (0, 1), RuledSurface(4, 2)),
        ((4, 12), (2, 7), F3), ((4, 8), (2, 6), F0))
])
def test_intersection_anchors(d1, d2, s, expected):
    assert intersect(DivisorClass(*d1), DivisorClass(*d2), s) == expected


@given(classes, classes, surfaces)
def test_intersection_symmetric(x, y, s):
    assert intersect(x, y, s) == intersect(y, x, s)


@given(classes, classes, classes, surfaces)
def test_intersection_bilinear(x, y, z, s):
    assert intersect(x + y, z, s) == intersect(x, z, s) + intersect(y, z, s)


def test_bilinearity_bulk():
    rng = random.Random(20260811)
    for _ in range(1000):
        s = RuledSurface(rng.randint(0, 5), rng.randint(0, 2))
        x = DivisorClass(rng.randint(-9, 9), rng.randint(-9, 9))
        y = DivisorClass(rng.randint(-9, 9), rng.randint(-9, 9))
        z = DivisorClass(rng.randint(-9, 9), rng.randint(-9, 9))
        assert intersect(x, y, s) == intersect(y, x, s)
        assert intersect(x + y, z, s) == intersect(x, z, s) + intersect(y, z, s)


@pytest.mark.parametrize("s, expected", [
    (s, (8 * (1 - s.q), -2)) for s in (F1, F3, RuledSurface(0, 1))
])
def test_canonical_class(s, expected):
    # K^2 = 8(1 - q) and K.f = -2 on every ruled surface
    k = canonical_class(s)
    assert (intersect(k, k, s), intersect(k, DivisorClass(0, 1), s)) == expected


def test_adjunction_anchors():
    # 2g - 2 = C.(C + K) on a grid of classes and surfaces: the pairing
    # -e*a(a - 1) + 2(ab + a(q - 1) - b) is even, so the halving is exact
    for q in range(4):
        for e in range(-q, 8):
            s = RuledSurface(e, q)
            k = canonical_class(s)
            for a in range(-12, 13):
                for b in range(-30, 31):
                    c = DivisorClass(a, b)
                    assert 2 * adjunction_genus(c, s) - 2 == pairing(c, c + k, s), (c, s)


def test_fiber_and_section_genus():
    for e in range(-2, 7):
        for q in range(0, 4):
            if e < -q:
                continue
            s = RuledSurface(e, q)
            assert adjunction_genus(DivisorClass(0, 1), s) == 0
            assert adjunction_genus(DivisorClass(1, 0), s) == q


@pytest.mark.parametrize("c, h, s, expected", [
    (c, h, s, pairing(c, h, s)) for c, h, s in (
        ((5, 15), (1, 3), F3), ((0, 1), (1, 9), RuledSurface(5)))
])
def test_embedding_degree(c, h, s, expected):
    assert embedding_degree(DivisorClass(*c), DivisorClass(*h), s) == expected


def test_cubic_scroll_degree_is_a_plus_b():
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert embedding_degree(DivisorClass(a, b), DivisorClass(1, 2), F1) == a + b


class TestEliminations:
    # the paper's three searches against the reference scan, in a smaller box
    def test_f1_empty(self):
        search = GenusSearch(DivisorClass(1, 2), 15, genus=16, box=100)
        assert eliminate_by_genus(search, F1) == scan(search, F1)

    def test_f3_unique_class(self):
        search = GenusSearch(DivisorClass(1, 3), 15, bands=((-3, 1, 0, 1),), box=30)
        assert eliminate_by_genus(search, F3) == scan(search, F3)

    def test_f0_conic(self):
        search = GenusSearch(DivisorClass(1, 1), 2, genus=0, box=30)
        assert eliminate_by_genus(search, F0) == scan(search, F0)

    def test_not_finite(self):
        with pytest.raises(SearchNotFiniteError, match="search not finite"):
            eliminate_by_genus(GenusSearch(DivisorClass(0, 1), 5), F1)

    def test_matches_bruteforce_scan(self):
        rng = random.Random(99)
        box = 15
        for trial in range(50):
            s = RuledSurface(rng.randint(0, 4), rng.randint(0, 2))
            hyper = DivisorClass(rng.choice([-2, -1, 1, 2]), rng.randint(-4, 4))
            degree = rng.randint(-30, 30)
            genus = rng.randint(0, 25) if rng.random() < 0.7 else None
            bands = ()
            if rng.random() < 0.4:
                bands = ((rng.randint(-3, 3), rng.randint(-3, 3),
                          rng.randint(-10, 0), rng.randint(0, 10)),)
            search = GenusSearch(hyper, degree, genus=genus, bands=bands, box=box)
            assert eliminate_by_genus(search, s) == scan(search, s), f"trial {trial}"


def test_f1_quadratic_has_no_integer_root():
    # the F1 genus condition is a true quadratic with a non-square
    # discriminant, so the F1 search is empty over all integers, not just the box
    qa, qb, qc = genus_quadratic(GenusSearch(DivisorClass(1, 2), 15, genus=16), F1)
    disc = qb * qb - 4 * qa * qc
    assert qa != 0 and disc >= 0 and math.isqrt(disc) ** 2 != disc


def test_paper_searches_unbounded_box():
    for search, s in ((GenusSearch(DivisorClass(1, 2), 15, genus=16), F1),
                      (GenusSearch(DivisorClass(1, 3), 15, bands=((-3, 1, 0, 1),)), F3),
                      (GenusSearch(DivisorClass(1, 1), 2, genus=0), F0)):
        wide = search._replace(box=10**9)
        assert eliminate_by_genus(wide, s) == eliminate_by_genus(search, s)


def test_closed_form_matches_scan_on_every_branch():
    # seeded searches built around a random class, so most have hits; the
    # branch counters make sure every case of the exact solve was exercised
    rng = random.Random(20261018)
    seen = dict.fromkeys(("ha3", "e<0", "open", "k=0", "two-bands", "box0",
                          "A=0", "g<0", "hits"), 0)
    for trial in range(1000):
        q = rng.randint(0, 3)
        s = RuledSurface(rng.randint(-q, 3), q)
        ha = rng.choice([-3, -2, -1, 1, 2, 3])
        hb = s.e * ha // 2 if rng.random() < 0.25 and s.e * ha % 2 == 0 else rng.randint(-3, 3)
        hyper = DivisorClass(ha, hb)
        box = rng.choice([0, 1, 2, 4, 6])
        c = DivisorClass(rng.randint(-box - 1, box + 1), rng.randint(-8, 8))
        degree = embedding_degree(c, hyper, s) if rng.random() < 0.8 else rng.randint(-20, 20)
        genus = rng.choice([None, adjunction_genus(c, s), adjunction_genus(c, s),
                            rng.randint(-6, 12)])
        bands = []
        for _ in range(rng.choice([0, 1, 1, 2])):
            t = s.e * ha - hb
            ca, cb = (-t, ha) if rng.random() < 0.25 else (rng.randint(-3, 3), rng.randint(-3, 3))
            value = ca * c.a + cb * c.b
            bands.append((ca, cb, rng.choice([None, value - rng.randint(-1, 3)]),
                          rng.choice([None, value + rng.randint(-1, 3)])))
        search = GenusSearch(hyper, degree, genus=genus, bands=tuple(bands), box=box)
        hits = eliminate_by_genus(search, s)
        assert hits == scan(search, s), f"trial {trial}: {search} on {s}"
        seen["ha3"] += abs(ha) == 3
        seen["e<0"] += s.e < 0 < s.q
        seen["open"] += any(None in band for band in bands)
        seen["k=0"] += any(ca * ha + cb * (s.e * ha - hb) == 0 for ca, cb, _, _ in bands)
        seen["two-bands"] += len(bands) == 2
        seen["box0"] += box == 0
        seen["A=0"] += genus is not None and genus_quadratic(search, s)[0] == 0
        seen["g<0"] += genus is not None and genus < 0
        seen["hits"] += bool(hits)
    assert all(seen.values()), seen


def test_disjointness_obstruction():
    # an obstruction exactly when some pair meets positively
    for x in (DivisorClass(0, 1), DivisorClass(1, 3), DivisorClass(1, 4), DivisorClass(2, 6)):
        for y in (DivisorClass(0, 1), DivisorClass(1, 3), DivisorClass(2, 7)):
            assert disjointness_obstruction([x, y], F3) == (intersect(x, y, F3) > 0)
    with pytest.raises(ValueError):
        disjointness_obstruction([DivisorClass(1, 1)], F1)


def test_positive_pairing_identities():
    # the three product identities behind the disjointness obstruction
    for c in range(1, 5):
        for d in range(1, 5):
            x1 = DivisorClass(c, 3 * c + 1)
            x2 = DivisorClass(d, 3 * d + 1)
            assert intersect(x1, x2, F3) == 3 * c * d + c + d
            assert intersect(x1, DivisorClass(d, 3 * d), F3) == (3 * c + 1) * d
            assert intersect(DivisorClass(c, 3 * c), DivisorClass(d, 3 * d), F3) == 3 * c * d


def test_degree_17_contradiction_constant():
    # the pairing of the pinned class is independent of e, on a wider grid than
    # the verify check's: C.(C + K) depends on q alone
    for q in range(0, 5):
        values = set()
        for e in range(-q, 13):
            if e % 2:
                continue
            s = RuledSurface(e, q)
            cls = DivisorClass(3, 8 + (3 * e) // 2)
            hyper = DivisorClass(1, 3 + e // 2)
            assert embedding_degree(cls, hyper, s) == embedding_degree(
                DivisorClass(3, 8), DivisorClass(1, 3), RuledSurface(0, q))
            values.add(intersect(cls, cls + canonical_class(s), s))
        assert len(values) == 1
