"""Rule pipeline producing the admissible (c1, c2) sets.

For a threefold, a rank regime and a bound on the first Chern class, the
classifier enumerates candidate associated curves (multisets of component
triples), applies the elimination rules, and aggregates the survivors into
the admissible Chern data with existence witnesses from the construction
registry.  Arithmetic rules are recomputed by the kernel modules on every
run; geometric steps enter as toggleable axioms, so the claim certified here
is that the case tree is faithfully encoded and its arithmetic is sound, not
that the classification theorems are machine-proved.

Every status comes from `verdicts.Trail.verdict`, so disabling an axiom can
only grow the survivor set.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from . import bounds
from .chow import (
    CicyContext,
    chern_from_resolution,
    chern_of_extension,
)
from .constructions import (
    CurveCandidate,
    CurveComponent,
    component_admissible,
    rank_window,
    required_genus,
    section_curve_invariants,
    witnesses_for,
)
from .ruled import (
    DivisorClass,
    GenusSearch,
    RuledSurface,
    adjunction_genus,
    canonical_class,
    eliminate_by_genus,
    embedding_degree,
    genus_quadratic,
    intersect,
)
from .verdicts import (RULES, SURVIVES, FrozenDict, KernelCall, RuleKind, Status, Trail,
                       Verdict, _check_disabled, annotations, json_text, record)
# not used here: the benchmark calls and wraps the audit as `classifier.audit_verdicts`
from .verdicts import audit_verdicts  # noqa: F401

RANK2 = "rank2"
HIGHER_RANK = "higher-rank"

#: The witness of the empty curve, O + O(c1): no lookup keyed on c1 finds it, as
#: the registry carries it at c1 = 1 on the quintic but at c1 = 2 on 2,4 and 3,3.
SPLIT_WITNESS = "trivial-twist-split"


class UnsupportedClassificationError(ValueError):
    """Requested regime lies outside the encoded case tree."""


# --------------------------------------------------------------------------
# candidate enumeration
# --------------------------------------------------------------------------


@functools.cache
def _component_grid(ctx: CicyContext, c1: int) -> tuple[CurveComponent, ...]:
    """The component triples of a twist, by span and then degree: each degree
    within the rank-2 cap that has a twist genus, with that genus.  Built once
    per multidegree (a context's equality and hash) and twist; immutable, so
    calls share it."""
    cap = bounds.max_curve_degree(ctx, c1, 2)
    return tuple(CurveComponent(d, required_genus(c1, d), span)
                 for span in range(2, ctx.ambient_dim + 1)
                 for d in range(1, cap + 1) if not (c1 * d) % 2)


def admissible_components(
    ctx: CicyContext, c1: int, disabled: frozenset[str] = frozenset()
) -> tuple[Verdict, ...]:
    """The verdict of each component triple of the given twist, in grid order."""
    disabled = _check_disabled(disabled)
    return tuple([component_admissible(comp, ctx, c1, disabled)
                  for comp in _component_grid(ctx, c1)])


def enumerate_candidates(components: list[CurveComponent], cap: int) -> list[CurveCandidate]:
    """The rank-2 candidate curves of one twist level: the empty curve (split
    bundles) and every multiset of the surviving components within the degree
    cap, ordered by component count, then lexicographically.  Each size comes
    from the last: every multiset extended by each component at or after its
    last one, in order, while the degree fits; the walk ends at an empty size."""
    ordered = sorted(components, key=CurveComponent.triple)
    candidates: list[CurveCandidate] = []
    size = [(0, CurveCandidate(()))]  # (index of the last component, candidate)
    while size:
        candidates += [cand for _, cand in size]
        size = [(i, CurveCandidate(cand.components + (comp,)))
                for last, cand in size
                for i, comp in enumerate(ordered[last:], last)
                if cand.total_degree + comp.d <= cap]
    return candidates


@functools.lru_cache(maxsize=64)
def _level_candidates(survivors: tuple[CurveComponent, ...],
                      cap: int) -> tuple[CurveCandidate, ...]:
    """`enumerate_candidates(survivors, cap)` as a tuple, built once per
    surviving-component set and cap; candidates are frozen, so calls share it.

    On the paper cases every single and pair axiom toggle meets at most two
    survivor sets per threefold and twist, eight in all.  The bound stays
    because disabling an arithmetic rule grows the survivors and the
    enumeration with them: without `R-genus-bound` the 3,3 level at c1 = 2
    keeps 74 components, not 44.  A miss calls `enumerate_candidates` by its
    module name, so a wrapper installed there sees every real enumeration."""
    return tuple(enumerate_candidates(survivors, cap))


# --------------------------------------------------------------------------
# shared arithmetic helpers (recorded with replayable check payloads)
# --------------------------------------------------------------------------
#
# The helpers with no parameters are lemmas: they read nothing of the
# candidate, and a site reads each through `Trail.lemma`, once per lemma book,
# so every trail of a twist level fires the same value and the same records.


def _sextic_genus() -> tuple[int, tuple[KernelCall, ...]]:
    """The Castelnuovo bound for a sextic in P^4, and its record."""
    pi, check = record(bounds.castelnuovo_pi, 6, 4)
    return pi, (check,)


def _berzolari(route: Trail, *degree: int) -> int:
    """Sectional genus of the degree-6 surface: the bound for a sextic in P^4;
    the surface's degree is recorded when given."""
    pi, checks = route.lemma(_sextic_genus)
    route.hypothesis("A-berzolari/degree" if degree else "A-berzolari/genus",
                     pi, *degree, checks)
    return pi


def _mu_d_viable() -> tuple[tuple[int, ...], tuple[KernelCall, ...]]:
    """Degrees d = 15 / mu >= 4 whose genus d + 1 fits the Castelnuovo bound in
    P^4, with the records of the bounds that exclude the other degrees."""
    viable, checks = [], []
    for d in (15 // mu for mu in (1, 3, 5, 15) if 15 // mu >= 4):
        pi, check = record(bounds.castelnuovo_pi, d, 4)
        if d + 1 <= pi:
            viable.append(d)
        else:
            checks.append(check)
    return tuple(viable), tuple(checks)


#: The degree-15 curve searches on the two cubic scrolls: genus 16 on the smooth
#: scroll F1, the smoothness band on the cone F3.
_F1 = (GenusSearch(DivisorClass(1, 2), 15, genus=16), RuledSurface(1))
_F3 = (GenusSearch(DivisorClass(1, 3), 15, bands=((-3, 1, 0, 1),)), RuledSurface(3))

#: The complete intersection of four quadrics in P^5: its degree caps every
#: curve cut out by quadrics there.
_FOUR_QUADRICS = bounds.ci_curve_invariants([2, 2, 2, 2], 5)

#: The least degree whose twist-two genus d + 1 fits the Castelnuovo bound in P^5.
_SPAN5_FLOOR = next(d for d in itertools.count(5) if d + 1 <= bounds.castelnuovo_pi(d, 5))


def _span5_floor_checks() -> tuple[KernelCall, ...]:
    """The record of the Castelnuovo bound at `_SPAN5_FLOOR` in P^5."""
    _, check = record(bounds.castelnuovo_pi, _SPAN5_FLOOR, 5)
    return (check,)


def _smooth_scroll_search() -> tuple[tuple[DivisorClass, ...], str, tuple[KernelCall, ...]]:
    """The F1 search: the classes it finds, its genus condition and its record."""
    hits, check = record(eliminate_by_genus, *_F1)
    return tuple(hits), _polynomial(*genus_quadratic(*_F1), "="), (check,)


def _cone_class() -> tuple[tuple[DivisorClass, ...], int, tuple[KernelCall, ...]]:
    """The F3 band search, the genus of the one class it finds, both records."""
    hits, search_check = record(eliminate_by_genus, *_F3)
    if len(hits) != 1:
        raise ValueError(f"the F3 smoothness band holds {len(hits)} classes, not one")
    genus, genus_check = record(adjunction_genus, hits[0], _F3[1])
    return tuple(hits), genus, (search_check, genus_check)


def _minimal_surface_degree(span: int) -> int:
    """An irreducible surface holding a curve that spans P^span has degree >= span - 1."""
    return span - 1


def _polynomial(a: int, b: int, c: int, relation: str) -> str:
    """The text `{a}a^2 + {b}a + {c} {relation} 0` with signed terms."""
    return f"{a}a^2 {'-+'[b >= 0]} {abs(b)}a {'-+'[c >= 0]} {abs(c)} {relation} 0"


def _nonnegative_integers(a: int, b: int, c: int) -> list[int]:
    """Every integer x with a*x^2 + b*x + c >= 0, for a < 0."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    # -4a * (a*x^2 + b*x + c) = disc - (m*x - b)^2 with m = -2a > 0, so x is a
    # solution exactly when the integer |m*x - b| is at most isqrt(disc)
    root, m = math.isqrt(disc), -2 * a
    return list(range(-(-(b - root) // m), (b + root) // m + 1))


def _harris_surface(route: Trail, d: int, r: int, genus: int, surface_degree_cap: int,
                    *note: str) -> None:
    """Genus at or above the refined bound puts the curve on a surface of degree
    at most the cap, where cubics cut it in degree at most three times the cap;
    the cut's firing records the note when one is given."""
    bound, check = record(bounds.pi_one, d, r)
    route.hypothesis("A-harris-surface", bound, genus, surface_degree_cap, (check,))
    route.fire("R-pi1-cut/note" if note else "R-pi1-cut/cut", d, 3 * surface_degree_cap, *note)


def _cut_cap(route: Trail, d: int, surface_degree: int) -> None:
    """Cubics cut a curve on a base surface in degree at most three times the
    surface's degree."""
    route.fire("R-cut-cap", d, surface_degree, 3 * surface_degree)


def _ci_omega(route: Trail, degrees: tuple[int, ...], *note: str) -> None:
    """A complete-intersection curve in P^5 needs dualizing twist 2; a
    surface's curve records the note given."""
    inv, check = record(bounds.ci_curve_invariants, degrees, 5)
    route.fire("R-ci-omega/surface" if note else "R-ci-omega/curve",
               degrees, inv.omega_twist, 2, (check,), *note)


def _ruled_38_table() -> FrozenDict:
    """The adjunction number of the degree-17 curve on each degree-6 ruled
    surface over a genus-q curve, keyed `q=<q>,e=<e>`.

    The degree equation pins the fiber coefficient to 8 + 3e/2, and the
    adjunction number 26 + 6q is independent of e: 38 at the trisecant-forced
    q = 2, never the required 34.
    """
    table = {}
    for q in (0, 1, 2):
        for e in (-4, -2, 0, 2):
            if e < -q:
                continue
            s = RuledSurface(e, q)
            cls = DivisorClass(3, 8 + (3 * e) // 2)
            degree = embedding_degree(cls, DivisorClass(1, 3 + e // 2), s)
            if degree != 17:
                raise ValueError(f"class {tuple(cls)} on e={e}, q={q} has degree {degree}")
            table[f"q={q},e={e}"] = intersect(cls, cls + canonical_class(s), s)
    return FrozenDict(sorted(table.items()))


def _ruled_38(route: Trail) -> None:
    """Degree-17 curve on a degree-6 ruled surface: `_ruled_38_table` never
    holds the required 34."""
    table = route.lemma(_ruled_38_table)
    _berzolari(route, 6)
    never_34 = 34 not in table.values()  # a field the report keeps; the decision reads the table
    route.fire("R-ruled-38", 34, table["q=2,e=0"], table, never_34)


def _ruled_58(route: Trail) -> None:
    """Triple-section case of a degree-16 curve: -3e + 6q + 58 = 32 needs
    3e = 6q + 26, impossible since 26 is not divisible by 3."""
    solutions = tuple(
        (q, e)
        for q in (0, 1, 2)
        for e in range(-q, 7)
        if e % 2 == 0 and -3 * e + 6 * q + 58 == 32
    )
    route.fire("R-ruled-58", "-3e + 6q + 58 = 32", "3e = 6q + 26 has no integer solution",
               solutions)


def _clifford(route: Trail) -> None:
    """Double-section case of a degree-16 curve of genus 17: a primitive
    pencil of Clifford index 2 forces h0 = 8, putting the curve in P^7 where
    the Castelnuovo bound 12 is exceeded."""
    d, cliff = 16, 2
    g = required_genus(2, d)
    h0 = (d - cliff) // 2 + 1  # Clifford index d - 2(h0 - 1)
    pi, check = record(bounds.castelnuovo_pi, d, h0 - 1)
    route.fire("R-clifford", g, (cliff, g - 3), h0, pi, f"{g} > {pi}", (check,))


def _ruled_e2q20(route: Trail) -> None:
    """Triple-section case of a degree-18 curve: 2q + 16 - e = 36 forces
    e = 2q - 20, far below the Segre-Nagata floor e >= -q for q <= 2."""
    table = FrozenDict({q: 2 * q - 20 for q in (0, 1, 2)})
    feasible = tuple(q for q, e in table.items() if e >= -q)
    route.fire("R-ruled-e2q20", "2q + 16 - e = 36", table, feasible)


#: The degree-3 and degree-4 ruled base surfaces of a quartic-cut curve: the
#: surface, the curve class and the hyperplane class.
_ADJUNCTION_CASES = (
    ("deg3-smooth", RuledSurface(1), DivisorClass(4, 8), DivisorClass(1, 2)),
    ("deg3-cone", RuledSurface(3), DivisorClass(4, 12), DivisorClass(1, 3)),
    ("deg4-product", RuledSurface(0), DivisorClass(4, 8), DivisorClass(1, 2)),
    ("deg4-even", RuledSurface(2), DivisorClass(4, 12), DivisorClass(1, 3)),
    ("deg4-cone", RuledSurface(4), DivisorClass(4, 16), DivisorClass(1, 4)),
)


def _adjunction_table() -> tuple[FrozenDict, tuple[KernelCall, ...]]:
    """The five ruled-surface adjunction numbers against the required 2d, and
    their records."""
    cases, checks = {}, []
    for name, s, cls, hyper in _ADJUNCTION_CASES:
        genus, check = record(adjunction_genus, cls, s)
        cases[name] = FrozenDict({"2g-2": 2 * genus - 2,
                                  "required": 2 * embedding_degree(cls, hyper, s)})
        checks.append(check)
    return FrozenDict(cases), tuple(checks)


# --------------------------------------------------------------------------
# rank-2 candidate judgement
# --------------------------------------------------------------------------


def _judge_extension(cand: CurveCandidate, ctx: CicyContext, trail: Trail) -> None:
    """Degenerate curve: the bundle also arises from a twisted extension."""
    r = trail.route("extension")
    z = cand.total_degree - ctx.u
    if z == 0:
        _, check = record(chern_of_extension, 1, 1, z, ctx)
        r.fire("R-ext-z/split", z, "empty", (check,))
        r.witness()
        return
    # a plane-cubic residual needs three linear sections through its plane
    allowed = (0, 3) if ctx.ambient_dim >= 5 else (0,)
    if z in allowed:
        r.hypothesis("A-ext-plane-cubic", z, ctx.ambient_dim - 2)
        _, check = record(chern_of_extension, 1, 1, z, ctx)
        r.fire("R-ext-z/plane-cubic", z, "plane cubic", 0, (check,))
        r.witness()
        return
    if z == ctx.u:
        section, check = section_curve_invariants(ctx)
        r.fire("R-ext-z/section", z, allowed, (check,),
               "residual would be a bi-hyperplane section with "
               f"dualizing twist {section.omega_twist}")
    else:
        r.fire("R-ext-z/other", z, allowed)


def _judge_quintic_nondeg(cand: CurveCandidate, ctx: CicyContext, trail: Trail) -> None:
    spans = cand.spans
    s = len(spans)
    r = trail.route("base-locus-surface")
    if not r.hypothesis("A-base-locus/candidate", cand.label()):
        return
    budget = tuple([_minimal_surface_degree(sp) for sp in spans])
    if not r.fire("R-surface-budget", budget, 3):
        return
    if spans == (4,):
        d = cand.components[0].d
        viable, checks = r.lemma(_mu_d_viable)
        if not r.fire("R-mu-d/curve", 15, d, viable, checks):
            return
        r.fire("R-hirzebruch-F1", *r.lemma(_smooth_scroll_search))
        f3 = _F3[1]
        pairings = FrozenDict({
            "(c,3c+1).(d,3d+1)": intersect(DivisorClass(1, 4), DivisorClass(1, 4), f3),
            "(c,3c+1).(d,3d)": intersect(DivisorClass(1, 4), DivisorClass(1, 3), f3),
            "(c,3c).(d,3d)": intersect(DivisorClass(1, 3), DivisorClass(1, 3), f3),
        })
        r.fire("R-cone-disjointness", pairings, "any curve on the cone is connected")
        hits3, genus, checks = r.lemma(_cone_class)
        r.fire("R-hirzebruch-F3/rank2", hits3, genus, required_genus(2, d), checks)
        return
    if spans == (2, 2):
        p_a, check = record(bounds.union_genus, cand.genera)
        r.fire("R-union-genus/planes", p_a, cand.total_degree, (check,))
        r.hypothesis("A-two-planes")
        r.witness()
        return
    if s == 3:  # the budget leaves three planes only
        r.exclude("A-three-planes", 3)
        return
    # the budget leaves one more shape: a plane curve and a space curve, on a
    # plane and a quadric surface
    r.exclude("A-quadric-plane", tuple(sorted(spans)))


def _four_quadric_route(d: int, trail: Trail, unresolved: bool, *note: str) -> None:
    """A curve of one span-5 component in the base locus of four quadrics: the
    complete intersection caps its degree and is the curve at the cap, which
    the route realizes `unresolved` or not; below the cap the connected
    intersection meets the residual."""
    ci = trail.route("base-locus-curve")
    cap = _FOUR_QUADRICS.degree
    if not ci.fire("R-quadric-cap", d, cap):
        return
    if d == cap:
        _ci_omega(ci, (2, 2, 2, 2))
        ci.witness(unresolved)
    elif ci.hypothesis("A-ci-connected/ci", cap):
        ci.fire("R-ci-residual/note" if note else "R-ci-residual/twist",
                d, cap - d, ">= 1", 0, *note)


def _judge_x24_nondeg(cand: CurveCandidate, ctx: CicyContext, trail: Trail) -> None:
    comps = cand.components
    s = len(comps)
    if s == 1:
        d = comps[0].d
        _four_quadric_route(d, trail, False, "meeting the residual lowers the dualizing twist")
        surf = trail.route("base-locus-surface")
        if not surf.fire("R-x24-mod4", d, 4):
            return
        deg_s = d // 4
        if deg_s == 4:
            _ci_omega(surf, (2, 2, 2, 4), "three-quadric surface cut by the quartic")
        elif deg_s == 5:
            scrolls = FrozenDict(
                {name: (canonical_class(RuledSurface(e)) + DivisorClass(2, 5 + e)).b + 1
                 for name, e in (("F1", 1), ("F3", 3), ("F5-cone", 5))})
            surf.exclude("A-deg-S-5/surface", 5, -1 + 4, scrolls)
        elif deg_s == 6:
            genus = _berzolari(surf)
            h0_omega = 8 + 1 - genus  # Riemann-Roch for a degree-8 pencil
            surf.exclude("A-deg-S-6/surface", 6, genus, h0_omega)
        elif deg_s == 7:
            surf.exclude("A-linked-plane-7/surface", 7,
                         "three quadrics link the surface to a plane")
        return
    # several components
    r = trail.route("component-surfaces")
    span5, span4, sections = cand.span5, cand.span4, cand.span3
    if cand.total_degree <= 2 * ctx.u:
        if r.fire("R-x24-extremal", cand.total_degree, ctx.u, cand.label()):
            r.hypothesis("A-section-pair")
            r.witness(unresolved=True)
        return
    for comp in span5:
        r.fire("R-x24-s2-span5", comp.d, _SPAN5_FLOOR, r.lemma(_span5_floor_checks))
    for comp in span4:
        deg_s = comp.d // 4
        if comp.d % 4 or not 2 <= deg_s <= 7:
            r.fire("R-x24-si-degree/cut", comp.d,
                   "no base surface cuts this degree with the quartic")
        elif deg_s < _minimal_surface_degree(comp.span):  # a quadric surface spans a P^3
            r.fire("R-x24-si-degree/span", comp.d, deg_s, _minimal_surface_degree(comp.span))
        elif comp.d == 12 or comp.d == 16:
            r.fire("R-adjunction-28-40", *r.lemma(_adjunction_table))
        else:
            r.exclude({5: "A-deg-S-5/component", 6: "A-deg-S-6/component",
                       7: "A-linked-plane-7/component"}[deg_s], deg_s, comp.d)
    if not span4 and not span5 and sections:
        # three or more degree-8 space sections
        r.fire("R-x24-si-degree/sections", 2, 8)
        r.exclude("A-x24-three-quadrics", len(sections))


def _judge_x33_single_span5(d: int, ctx: CicyContext, trail: Trail) -> None:
    g = d + 1
    _four_quadric_route(d, trail, True)

    dim3 = trail.route("base-locus-threefold")
    dim3.fire("R-dim3-degree", d, FrozenDict({"deg3": 3 * ctx.u, "deg4": 4 * ctx.u}))
    if d == 3 * ctx.u:
        dim3.exclude("A-x33-cubic-3fold", d)

    if d == 14:
        r = trail.route("surface-deg-le-4")
        _harris_surface(r, d, 5, g, 4, "cut by cubics on a surface of degree at most 4")
        r5 = trail.route("surface-deg-5")
        # inside the quintic surface a cubic cut has degree 15 = d + 1: the
        # leftover line meets the curve in the three cubic points, so the
        # union genus 16 caps g at 14 while the twist requires 15
        p_a, check = record(bounds.union_genus, [g, 0], 3)
        r5.fire("R-union-genus/meets", 16, 3, p_a, g, (check,))
        return
    if d == 15:
        r = trail.route("surface-deg-5")
        _harris_surface(r, d, 5, g, 5, "equality: the curve is the cubic cut of the surface")
        r.hypothesis("A-delpezzo5", -1)
        r.fire("R-surface-cut-twist", -1, 3, 2)
        r.witness()
        return
    if d == 16:
        # the degree-6 base-surface branch at d = 16 stays open: this is the
        # unresolved value, flagged on the surviving four-quadric route
        return
    if d == 17:
        r = trail.route("surface-deg-6")
        _ruled_38(r)
        r7 = trail.route("surface-deg-7")
        r7.exclude("A-linked-plane-7/route", 7)
        r8 = trail.route("surface-deg-8")
        _liaison(r8, d)
        return
    if d == 18:
        r = trail.route("surface-deg-8")
        degrees = (2, 2, 2)
        r.fire("R-s-omega", degrees, sum(degrees) - 5 - 1)
        _liaison(r, d)
        r.witness()
        return
    # d >= 19: surface routes by degree
    if d <= 24:
        for deg_s in (5, 6):
            _cut_cap(trail.route(f"surface-deg-{deg_s}"), d, deg_s)
        r7 = trail.route("surface-deg-7")
        if d <= 21:
            r7.exclude("A-linked-plane-7/route", 7)
        else:
            _cut_cap(r7, d, 7)
        r8 = trail.route("surface-deg-8")
        _liaison(r8, d)
    else:
        _cut_cap(trail.route("surface"), d, 8)


def _linkage() -> tuple[int, tuple[KernelCall, ...]]:
    """The degree of the twist-two piece a cubic links inside the (2,2,2,3)
    complete intersection, and the records of both steps."""
    total, ci_check = record(bounds.ci_curve_invariants, [2, 2, 2, 3], 5)
    linked, liaison_check = record(bounds.liaison_solve, total.degree, total.omega_twist, 2, 3)
    return linked, (ci_check, liaison_check)


def _liaison(route: Trail, d: int) -> None:
    linked, checks = route.lemma(_linkage)
    route.fire("R-liaison-18", linked, d, checks)


def _judge_x33_nondeg(cand: CurveCandidate, ctx: CicyContext, trail: Trail) -> None:
    comps = cand.components
    s = len(comps)
    if s == 1:
        _judge_x33_single_span5(comps[0].d, ctx, trail)
        return
    r = trail.route("component-surfaces")
    others = cand.above_span3
    if not others:
        if s == 2:
            r.hypothesis("A-section-pair")
            r.witness()
        else:
            r.exclude("A-x33-three-sections", s)
        return
    minima = tuple([max(_minimal_surface_degree(c.span), -(-c.d // 3)) for c in others])
    if not r.fire("R-x33-surface-budget", minima, 8):
        return
    for comp in others:
        d = comp.d
        if comp.span == 4:
            if d > 12:
                _cut_cap(r, d, 4)
            elif d == 11:
                g, meets = required_genus(2, d), 2
                line_genus, line_check = record(bounds.plane_genus, 1)
                ci_total, check = record(bounds.union_genus, [g, line_genus], meets)
                r.fire("R-union-genus/line", ci_total, meets,
                       FrozenDict({"required": 2, "computed": 2 * line_genus - 2 + meets}),
                       (line_check, check))
                _harris_surface(r, d, comp.span, g, 3)
            else:  # d == 12
                r.exclude("A-x33-span-overlap" if cand.span3 else "A-x33-two-ci", 12)
        else:  # span 5 beside other components
            if d == 14:
                _harris_surface(r, d, comp.span, required_genus(2, d), 4)
            elif d == 15:
                r.exclude("A-ample-connected", 15,
                          "the cubic cut of the quintic surface is connected")
            elif d == 16:
                r.hypothesis("A-secant-dim", 3)
                _ruled_58(r)
                _clifford(r)
            elif d == 17:
                _ruled_38(r)
            elif d == 18:
                r.hypothesis("A-secant-dim", 3)
                _ruled_e2q20(r)
            else:  # R-x33-surface-budget has capped d at 24
                r.exclude("A-x33-s2-deg8", d)
                r.exclude("A-linked-plane-7/route", 7)


def _judge_c1_one(cand: CurveCandidate, ctx: CicyContext, trail: Trail) -> None:
    r = trail.route("twist-one")
    if len(cand.components) == 1:
        r.hypothesis("A-plane-in-quadric")
        r.witness()
        return
    # several components would have to fill the connected section curve
    section, section_check = section_curve_invariants(ctx)
    p_a, check = record(bounds.union_genus, cand.genera)
    r.hypothesis("A-ci-connected/section")
    r.fire("R-union-genus/section", p_a, section.genus, (section_check, check))


#: The nondegenerate case tree of each threefold the rank-2 regime covers.
_NONDEGENERATE = {(5,): _judge_quintic_nondeg, (2, 4): _judge_x24_nondeg,
                  (3, 3): _judge_x33_nondeg}


def judge_candidate(
    cand: CurveCandidate,
    ctx: CicyContext,
    c1: int,
    disabled: frozenset[str] = frozenset(),
    *,
    lemmas: dict | None = None,
) -> Verdict:
    """Route one candidate through the elimination tree of its regime; a route
    that realizes it names the constructions of (c1, its degree), looked up here.

    `lemmas` is the lemma book of the candidate's twist level (see `Trail`);
    without one the candidate gets a fresh book.  A str or a set naming a
    rule id the corpus lacks raises ValueError, with a book or without."""
    trail = Trail(_check_disabled(disabled), {} if lemmas is None else lemmas)
    if not cand.components:  # the empty curve
        r = trail.route("split")
        inv, check = record(chern_of_extension, 0, c1, 0, ctx)
        r.fire("R-ext-split/empty", inv.c1, inv.c2, (check,))
        r.witness()
        return trail.verdict(cand, (SPLIT_WITNESS,))
    # fired only off the twist or past the cap, which enumerate_candidates
    # never reaches: each component off the twist as component_admissible fires it
    if cand.regime != c1:
        for comp in cand.components:
            expected = required_genus(c1, comp.d) if (c1 * comp.d) % 2 == 0 else None
            if comp.g != expected:
                trail.fire("R-regime-genus", comp.d, comp.g, c1, expected)
    cap = bounds.max_curve_degree(ctx, c1, 2)
    if cand.total_degree > cap:
        trail.fire("R-degree-cap/curve", cand.total_degree, cap)
    if c1 == 1:
        _judge_c1_one(cand, ctx, trail)
    elif cand.span_max < ctx.ambient_dim:
        _judge_extension(cand, ctx, trail)
    else:
        nondegenerate = _NONDEGENERATE.get(ctx.multidegree)
        if nondegenerate is None:
            raise UnsupportedClassificationError(f"no rank-2 case tree for {ctx.label()}")
        nondegenerate(cand, ctx, trail)
    return trail.verdict(cand, witnesses_for(ctx.multidegree, c1, cand.total_degree))


# --------------------------------------------------------------------------
# higher-rank shapes (quintic)
# --------------------------------------------------------------------------


def _higher_rank_verdicts(
    ctx: CicyContext, c1_max: int, disabled: frozenset[str],
    pairs: set[tuple[int, int]], witnesses: dict[int, set[str]],
) -> tuple[list[Verdict], dict[int, tuple[int, int]]]:
    """Shape-based survivors for rank >= 3 on the quintic.

    Bundles with no trivial factor are cokernels of twisted free resolutions
    (or pullbacks sharing their invariants); each shape carries the rank
    window [3, section-count bound].  A surviving shape adds its (c1, c2) to
    `pairs` and its witnesses to `witnesses`; the split route adds its
    witness only, since its bundles carry trivial factors.  Returns the
    verdicts and the windows keyed by c2.
    """
    verdicts: list[Verdict] = []
    windows: dict[int, tuple[int, int]] = {}
    lemmas = {}  # the book every shape's trail shares

    def shape(t: Trail, label: str, sub: tuple[int, ...], quot: tuple[int, ...],
              c1: int) -> None:
        inv, chern_check = record(chern_from_resolution, sub, quot, ctx)
        if inv.c1 != c1:
            raise ValueError(f"resolution shape {label!r} has c1 = {inv.c1}, not {c1}")
        window, rank_check = rank_window(sub, quot, ctx)
        t.fire("R-resolution-shape", sub, tuple(sorted(set(quot))), inv.c1, inv.c2, window,
               (chern_check, rank_check))
        verdicts.append(t.verdict(label, witnesses_for(ctx.multidegree, c1, inv.c2,
                                                       higher_rank=True)))
        if verdicts[-1].survives:
            windows[inv.c2] = window
            pairs.add((c1, inv.c2))
            witnesses.setdefault(inv.c2, set()).update(verdicts[-1].witnesses)

    if c1_max >= 1:
        shape(Trail(disabled, lemmas), "resolution O(-1) -> O^5 (twist one)",
              (-1,), (0,) * 5, 1)
    if c1_max >= 2:
        shape(Trail(disabled, lemmas), "resolution O(-2) -> O^(r+1)", (-2,), (0,) * 4, 2)

        # the smooth-scroll branch dies on the recorded spannedness axiom
        t = Trail(disabled, lemmas)
        t.hypothesis("A-base-locus/shape")
        viable, checks = t.lemma(_mu_d_viable)
        t.fire("R-mu-d/scroll", 15, viable, checks)
        qa, qb, qc = genus_quadratic(*_F1)
        t.exclude("A-scroll-spannedness", "30a^2 - 31a + 60 <= 0 (no integer solutions)",
                  _polynomial(-qa, -qb, -qc, "<="), tuple(_nonnegative_integers(qa, qb, qc)))
        verdicts.append(t.verdict("smooth-scroll curve of degree 15"))

        # the cone branch lands on one class and realizes one shape
        t = Trail(disabled, lemmas)
        t.hypothesis("A-base-locus/shape")
        hits, genus, checks = t.lemma(_cone_class)
        t.fire("R-hirzebruch-F3/higher-rank", hits, genus,
               f"genus {genus} is allowed here: rank >= 3 needs only d <= g - 1", checks)
        shape(t, "resolution O(-1)^2 -> O^(r+2)", (-1, -1), (0,) * 5, 2)

        shape(Trail(disabled, lemmas), "resolution O(-1) -> O^r + O(1)", (-1,), (0, 0, 0, 1), 2)

        t = Trail(disabled, lemmas)
        t.hypothesis("A-minimal-resolution")
        inv, check = record(chern_of_extension, 1, 1, 0, ctx)
        t.fire("R-ext-split/split", inv.c1, inv.c2, "O(1) + O(1) + trivial factors", (check,))
        verdicts.append(t.verdict("plane-section curve (split route)",
                                  witnesses_for(ctx.multidegree, inv.c1, inv.c2)))
        if verdicts[-1].survives:
            witnesses.setdefault(inv.c2, set()).update(verdicts[-1].witnesses)
    return verdicts, windows


# --------------------------------------------------------------------------
# classification results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Level:
    """One rank-2 twist level: its c1, the verdict of each component triple
    of its grid and the verdict of each candidate curve, the empty curve first."""

    c1: int
    component_verdicts: tuple[Verdict, ...]
    verdicts: tuple[Verdict, ...]


@dataclass(frozen=True)
class ClassificationResult:
    """An immutable value: tuples and read-only mappings of c2 to tuples, so
    the results of one sweep may share it and its verdicts.  Its summary and
    its report are views of it.  A rank-2 result keeps one `Level` per c1 in
    `levels`; a higher-rank one keeps its shape verdicts in `shapes`."""

    ctx: CicyContext
    c1_max: int
    rank_regime: str
    admissible_c2: tuple[int, ...]
    admissible_pairs: tuple[tuple[int, int], ...]
    witnesses: FrozenDict[int, tuple[str, ...]]
    unresolved: tuple[int, ...]
    rank_windows: FrozenDict[int, tuple[int, int]]
    levels: tuple[Level, ...]
    shapes: tuple[Verdict, ...]
    #: the rule ids it was judged with disabled; neither compared nor reported
    judged_without: frozenset[str] = field(compare=False)

    @property
    def verdicts(self) -> tuple[Verdict, ...]:
        """The shape verdicts, or the candidate verdicts level by level."""
        return self.shapes + tuple(itertools.chain.from_iterable(
            level.verdicts for level in self.levels))

    @property
    def component_verdicts(self) -> tuple[Verdict, ...]:
        """The component verdicts, level by level."""
        return tuple(itertools.chain.from_iterable(
            level.component_verdicts for level in self.levels))

    def to_dict(self) -> dict:
        """The classification summary, without verdicts."""
        out = {
            "threefold": self.ctx.label(),
            "c1": self.c1_max,
            "rank_regime": self.rank_regime,
            "admissible_c2": list(self.admissible_c2),
            "admissible_pairs": [list(p) for p in self.admissible_pairs],
            "witnesses": {str(k): list(v) for k, v in sorted(self.witnesses.items())},
            "unresolved": list(self.unresolved),
        }
        if self.rank_windows:
            out["rank_windows"] = {
                str(k): list(v) for k, v in sorted(self.rank_windows.items())
            }
        return out

    def report(self) -> dict:
        """The structured report: the summary, every verdict with its trail,
        and each rule that fired with its firings counted by outcome."""
        counts: dict[str, dict[str, int]] = {}
        for verdict in self.component_verdicts + self.verdicts:
            for entry in verdict.trail:
                tally = counts.setdefault(entry.rule_id, {"pass": 0, "fail": 0, "hypothesis": 0})
                tally[entry.outcome] += 1
        report = self.to_dict()
        report["verdicts"] = [_verdict_dict(v) for v in self.verdicts]
        report["component_verdicts"] = [_verdict_dict(v) for v in self.component_verdicts]
        report["rules"] = [
            {
                "id": rule.id,
                "kind": _TEXT[rule.kind],
                "ref": rule.ref,
                "statement": rule.statement,
                "counts": counts[rule.id],
            }
            for rule in RULES.values() if rule.id in counts
        ]
        report["annotations"] = annotations()
        return report


#: The text of each status and rule kind, read once: an enum's `value` is a
#: descriptor call, made for every verdict a report writes.
_TEXT = {member: member.value for member in (*Status, *RuleKind)}


def _verdict_dict(verdict: Verdict) -> dict:
    """One verdict as a report stores it: the only home of its trail."""
    return {
        "candidate": verdict.label,
        "status": _TEXT[verdict.status],
        "witnesses": list(verdict.witnesses),
        "trail": [e.to_dict() for e in verdict.trail],
    }


def _check_regime(ctx: CicyContext, c1_max: int, rank_regime: str) -> None:
    if rank_regime not in (RANK2, HIGHER_RANK):
        raise UnsupportedClassificationError(f"unknown rank regime {rank_regime!r}")
    if c1_max < 0 or c1_max > 2:
        raise ValueError("c1_max must be between 0 and 2")
    if c1_max >= 1:
        if rank_regime == HIGHER_RANK and ctx.multidegree != (5,):
            raise UnsupportedClassificationError(
                "the higher-rank case tree is encoded for the quintic only"
            )
        if rank_regime == RANK2 and ctx.multidegree not in _NONDEGENERATE:
            raise UnsupportedClassificationError(
                f"no complete rank-2 classification is encoded for {ctx.label()}; "
                "only registered example constructions exist there"
            )


def _rejudge(judge, verdicts: tuple[Verdict, ...], index: dict[str, list[int]],
             disabled: frozenset[str]) -> tuple[tuple[Verdict, ...], list[int]]:
    """`verdicts` with the candidate of each one that `index` lists under a
    rule of `disabled` judged again by `judge`, in order, and the positions
    judged again."""
    positions = sorted(set().union(*(index.get(rule_id, ()) for rule_id in disabled)))
    out = list(verdicts)
    for i in positions:
        out[i] = judge(verdicts[i].candidate)
    return tuple(out), positions


def _level(ctx: CicyContext, c1: int, disabled: frozenset[str],
           base: tuple[Level, dict[str, list[int]], dict[str, list[int]]] | None = None
           ) -> Level:
    """The rank-2 twist level c1, judged under `disabled`.

    Without `base` every component and candidate is judged.  `base` holds the
    level judged with nothing disabled and, for its component verdicts and
    then its candidate verdicts, the positions whose trails cite each rule id:
    only the verdicts listed under a disabled rule are judged again.  The base
    candidates stay while each component judged again keeps its survival;
    otherwise every candidate of the surviving components is judged.

    The candidates judged here share one lemma book; the components read
    no lemma and get none."""
    lemmas = {}

    def judge(cand: CurveCandidate) -> Verdict:
        return judge_candidate(cand, ctx, c1, disabled, lemmas=lemmas)

    if base is None:
        comps = admissible_components(ctx, c1, disabled)
        kept = False
    else:
        level, comp_index, cand_index = base
        comps, positions = _rejudge(
            lambda comp: component_admissible(comp, ctx, c1, disabled),
            level.component_verdicts, comp_index, disabled)
        kept = all((comps[i].status is SURVIVES)
                   == (level.component_verdicts[i].status is SURVIVES) for i in positions)
    if kept:
        cands, _ = _rejudge(judge, level.verdicts, cand_index, disabled)
    else:
        survivors = tuple([v.candidate for v in comps if v.status is SURVIVES])
        candidates = _level_candidates(survivors, bounds.max_curve_degree(ctx, c1, 2))
        cands = tuple(map(judge, candidates))
    return Level(c1, comps, cands)


def _aggregate(ctx: CicyContext, c1_max: int, rank_regime: str,
               disabled: frozenset[str], levels: list[Level]) -> ClassificationResult:
    """The result of the judged rank-2 twist levels or, in the higher-rank
    regime, of the shapes judged here under `disabled`."""
    pairs: set[tuple[int, int]] = set()
    witnesses: dict[int, set[str]] = {0: {SPLIT_WITNESS}}
    unresolved: set[int] = set()
    shapes, windows = [], {}
    if rank_regime == HIGHER_RANK:
        shapes, windows = _higher_rank_verdicts(ctx, c1_max, disabled, pairs, witnesses)
        pairs.update((c1, 0) for c1 in range(1, c1_max + 1))
    for level in levels:
        for verdict in level.verdicts:
            if verdict.status is not SURVIVES:
                continue
            c2 = verdict.candidate.total_degree  # 0 for the empty curve
            pairs.add((level.c1, c2))
            if verdict.unresolved:
                unresolved.add(c2)
            for name in verdict.witnesses:
                witnesses.setdefault(c2, set()).add(name)
    admissible = tuple(sorted({0} | {c2 for _, c2 in pairs}))
    return ClassificationResult(
        ctx=ctx,
        c1_max=c1_max,
        rank_regime=rank_regime,
        admissible_c2=admissible,
        admissible_pairs=tuple(sorted(pairs)),
        witnesses=FrozenDict(
            {k: tuple(sorted(v)) for k, v in witnesses.items() if k in admissible}),
        unresolved=tuple(sorted(unresolved)),
        rank_windows=FrozenDict(windows),
        levels=tuple(levels),
        shapes=tuple(shapes),
        judged_without=frozenset(disabled),
    )


def classify(ctx: CicyContext, c1_max: int, rank_regime: str = RANK2,
             disabled: frozenset[str] = frozenset()) -> ClassificationResult:
    """Admissible (c1, c2) data for the regime, with witnesses attached.

    Survivor c2 values are totals of surviving candidate curves plus the
    split-bundle contributions; 0 is always admissible (trivial and split
    bundles).  The c2 = 16 cases on the codimension-2 threefolds are flagged
    unresolved: existence holds but their full classification stays open.
    Rank-2 verdicts are kept by twist level, one `Level` per c1.

    Each call judges afresh: only immutable inputs cross calls, namely the
    component grid of each threefold and twist, the candidates of each
    surviving-component set and cap, the witness table `witnesses_for` reads
    and the module's search constants.  No verdict, trail entry or
    kernel-call record is carried from one call to the next.  Within a call,
    the verdicts of one twist level (and the higher-rank shapes) share one
    lemma book: each derivation that reads nothing of the candidate, such as
    the adjunction table or the linkage degree, is made once per level, and
    its every firing there holds the same value and the same records.  An
    unknown rule id in `disabled`, or a str, raises ValueError.
    """
    _check_regime(ctx, c1_max, rank_regime)
    disabled = _check_disabled(disabled)
    levels = [] if rank_regime == HIGHER_RANK else [
        _level(ctx, c1, disabled) for c1 in range(1, c1_max + 1)]
    return _aggregate(ctx, c1_max, rank_regime, disabled, levels)


def _cites(verdict: Verdict) -> frozenset[str]:
    return frozenset(entry.rule_id for entry in verdict.trail)


def _index(verdicts: tuple[Verdict, ...]) -> dict[str, list[int]]:
    """The positions of the verdicts whose trails cite each rule id, in order."""
    index: dict[str, list[int]] = {}
    for i, verdict in enumerate(verdicts):
        for rule_id in _cites(verdict):
            index.setdefault(rule_id, []).append(i)
    return index


def toggle_sweep(base: ClassificationResult,
                 toggles: list[frozenset[str]]) -> list[ClassificationResult]:
    """`classify(ctx, c1_max, rank_regime, disabled)` for each toggle set,
    derived from `base`, that classification with nothing disabled; a base
    judged without some rule raises ValueError.

    The recording methods `Trail.fire`, `Trail.exclude` and
    `Trail.hypothesis`, through which every firing on a trail or a route
    passes, are the only readers of a disabled set (`Trail.route` only hands
    it on), and each records every rule it consults while that rule is not
    disabled, so a verdict whose trail cites no rule of a toggle set is
    judged the same way with that set disabled.

    So the rules each base verdict cites are collected once, into an index
    per twist level from rule id to the positions of the component verdicts
    and of the candidate verdicts that cite it.  Per toggle set, `_level`
    judges again only the verdicts listed under its rules, and every
    candidate of the level when a component judged again changes survival;
    a toggle's cost follows the verdicts it touches, not the level's size.
    Higher-rank shapes are all judged again.  A toggle set that no verdict
    of the base cites gets the base result itself.

    Each level judged again gets a fresh lemma book per toggle set.  A
    lemma reads no disabled set, and neither fires nor reads the candidate,
    so a verdict judged again carries the value its base neighbours carry,
    and the level is the one `classify` would judge under that set.
    """
    if base.judged_without:
        raise ValueError("the base of a toggle sweep must be judged with nothing disabled, "
                         f"not without {', '.join(sorted(base.judged_without))}")
    toggles = [_check_disabled(disabled) for disabled in toggles]
    ctx, c1_max, rank_regime = base.ctx, base.c1_max, base.rank_regime
    indexed = [(level, _index(level.component_verdicts), _index(level.verdicts))
               for level in base.levels]
    cited = frozenset().union(*map(_cites, base.shapes),
                              *(index for _, comps, cands in indexed for index in (comps, cands)))
    results = []
    for disabled in toggles:
        if cited.isdisjoint(disabled):
            results.append(base)
            continue
        levels = [_level(ctx, level.c1, disabled, (level, comps, cands))
                  for level, comps, cands in indexed]
        results.append(_aggregate(ctx, c1_max, rank_regime, disabled, levels))
    return results


# --------------------------------------------------------------------------
# reports and auditing
# --------------------------------------------------------------------------


def rule_report(ctx: CicyContext, c1_max: int = 2, rank_regime: str = RANK2) -> dict:
    """`classify(ctx, c1_max, rank_regime).report()`."""
    return classify(ctx, c1_max, rank_regime).report()


def report_json(report: dict) -> str:
    return json_text(report)


def report_markdown(report: dict) -> str:
    lines = [
        f"# Classification report: X_{{{report['threefold']}}}",
        "",
        f"- rank regime: {report['rank_regime']}",
        f"- c1 up to: {report['c1']}",
        f"- admissible c2: {' '.join(map(str, report['admissible_c2']))}",
        f"- admissible (c1, c2) pairs: "
        + " ".join(f"({a},{b})" for a, b in report["admissible_pairs"]),
        f"- unresolved c2: {' '.join(map(str, report['unresolved'])) or 'none'}",
        "",
        "## Witnesses",
        "",
    ]
    for c2, names in report["witnesses"].items():
        lines.append(f"- c2 = {c2}: {', '.join(names)}")
    lines += ["", "## Rules fired", ""]
    width = max(len(r["id"]) for r in report["rules"]) if report.get("rules") else 0
    for rule in report.get("rules", []):
        lines.append(
            f"- {rule['id']:<{width}}  {rule['kind']:<10}  "
            f"[{rule['ref']}]  fired {sum(rule['counts'].values())}x"
        )
    if report.get("annotations"):
        lines += ["", "## Recorded discrepancies", ""]
        for note in report["annotations"]:
            lines.append(f"- {note['rule']}: {note['note']}")
    lines.append("")
    return "\n".join(lines)
