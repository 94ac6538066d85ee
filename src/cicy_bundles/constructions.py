"""Numeric constraints on curves associated to spanned bundles, plus the
registry of explicit constructions.

Curves are represented only by component triples (degree, genus, span
dimension); that is enough for every numeric claim in scope.  The registry
holds every explicit construction used as an existence witness, and
validate_construction recomputes each from first principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import bounds
from .chow import (
    BundleInvariants,
    CicyContext,
    chern_from_resolution,
    chern_of_extension,
    max_rank_no_trivial,
    twist_rank2,
)
from .verdicts import KernelCall, Trail, Verdict, json_text, record


class ParityError(ValueError):
    """No curve exists with the requested twisted-canonical data."""


@dataclass(frozen=True, order=True)
class CurveComponent:
    """A connected curve component: degree d, arithmetic genus g, span dimension."""

    d: int
    g: int
    span: int
    #: "(d,g,span)", made here once: reports name a component many times
    _label: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("component degree must be positive")
        if self.g < 0:
            raise ValueError("component genus must be nonnegative")
        if self.span < 2:
            raise ValueError("component span dimension must be at least 2")
        object.__setattr__(self, "_label", f"({self.d},{self.g},{self.span})")

    def triple(self) -> tuple[int, int, int]:
        return (self.d, self.g, self.span)

    def label(self) -> str:
        return self._label


@dataclass(frozen=True)
class CurveCandidate:
    """A disjoint union of components; empty components = the empty curve."""

    components: tuple[CurveComponent, ...]
    total_degree: int = field(init=False, compare=False, repr=False)
    #: Largest dimension the union can span: sum(span_i + 1) - 1, which is -1
    #: for the empty curve.
    span_max: int = field(init=False, compare=False, repr=False)
    #: "(d,g,span) + ...", or "empty"
    _label: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        components = tuple(sorted(self.components))
        object.__setattr__(self, "components", components)
        # set once here: the judge reads both many times per candidate
        object.__setattr__(self, "total_degree", sum(c.d for c in components))
        object.__setattr__(self, "span_max", sum(c.span + 1 for c in components) - 1)
        object.__setattr__(self, "_label",
                           " + ".join(c.label() for c in components) or "empty")

    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(c.triple() for c in self.components)

    def label(self) -> str:
        return self._label


def required_genus(c1: int, d: int) -> int | None:
    """Genus forced by a dualizing sheaf O_C(c1): 2g - 2 = c1 * d.

    Returns None for the empty-curve sentinel (c1 = 0, d = 0).
    """
    if c1 == 0 and d == 0:
        return None
    if d < 1:
        raise ValueError("curve degree must be at least 1")
    if (c1 * d) % 2:
        raise ParityError("no such curve: parity")
    return (c1 * d) // 2 + 1


def section_curve_invariants(ctx: CicyContext) -> tuple[bounds.CurveInvariants, KernelCall]:
    """Invariants of the curve cut on the threefold by two general hyperplanes,
    with the record of their computation."""
    return record(bounds.ci_curve_invariants, [1, 1, *ctx.multidegree], ctx.ambient_dim)


def rank_window(sub: tuple[int, ...], quot: tuple[int, ...],
                ctx: CicyContext) -> tuple[tuple[int, int], KernelCall]:
    """Rank window [3, r] of the cokernel shape (+)O(sub) -> (+)O(quot), with
    the record of its kernel call: r is the largest rank with no trivial
    factor, plus one for each twisted quotient factor."""
    trivial_part, check = record(max_rank_no_trivial, sub, ctx)
    return (3, trivial_part + sum(1 for q in quot if q != 0)), check


def component_admissible(
    comp: CurveComponent,
    ctx: CicyContext,
    c1: int,
    disabled: frozenset[str] = frozenset(),
) -> Verdict:
    """Filter one component through the per-component elimination rules.

    Checks, in order: plane-section rules, 3-space section rules, the
    Castelnuovo bound and the linear-section count for twist one.  The
    twist-regime genus identity and the rank-2 degree cap fire only when
    they fail: `admissible_components` builds only triples that meet both,
    so only a caller passing another triple sees them.  Returns a verdict
    with the full rule trail; candidates are built only from surviving
    components.
    """
    t = Trail(disabled)
    d, g, span = comp.d, comp.g, comp.span

    expected = required_genus(c1, d) if (c1 * d) % 2 == 0 else None
    if g != expected:
        t.fire("R-regime-genus", d, g, c1, expected)

    if span == 2:
        plane_g, check = record(bounds.plane_genus, d)
        t.fire("R-plane-degree", d, g, plane_g, ctx.multidegree, (check,))
        if d not in ctx.multidegree:
            t.hypothesis("A-no-plane", 2, d)
    elif span == 3:
        if t.fire("R-span3-cap", d, ctx.u):
            if d == ctx.u:
                section, check = section_curve_invariants(ctx)
                t.fire("R-section-match/section", d, g, section.genus, (check,))
            else:
                # below the section degree the spanned twisted ideal has no room
                if c1 == 1:
                    if t.hypothesis("A-spannedness-h0", d, ctx.u):
                        t.fire("R-section-match/below", d, ctx.u)
                elif ctx.multidegree == (3, 3) and d == 8:
                    # extremal space curve of degree 8 is a quadric-quartic
                    # complete intersection; no quartic surface sits inside X
                    t.hypothesis("A-no-quartic-surface", d)
                    t.fire("R-section-match/forced", d, ctx.u)
    if span >= 3:
        if d < span:
            t.fire("R-genus-bound/degenerate", d, span, "degenerate")
        else:
            pi, check = record(bounds.castelnuovo_pi, d, span)
            t.fire("R-genus-bound/bound", d, g, span, pi, (check,))
    if c1 == 1:
        t.fire("R-ideal-sections", span, ctx.ambient_dim, ctx.ambient_dim - span)
    cap = bounds.max_curve_degree(ctx, c1, 2)
    if d > cap:
        t.fire("R-degree-cap/component", d, cap)

    return t.verdict(comp)


# --------------------------------------------------------------------------
# Construction registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Construction:
    """An explicit bundle construction registered as an existence witness."""

    name: str
    threefold: tuple[int, ...]
    rank: int
    c1: int
    c2: int
    components: tuple[tuple[int, int, int], ...]  # (d, g, span) triples; () = empty curve
    kind: str
    params: tuple = ()
    note: str = ""
    rank_window: tuple[int, int] | None = None


REGISTRY: tuple[Construction, ...] = (
    Construction("trivial-twist-split", (5,), 2, 1, 0, (), "split", (0, 1),
                 "O + O(1); the empty-curve sentinel"),
    Construction("trivial-twist-split", (2, 4), 2, 2, 0, (), "split", (0, 2),
                 "O + O(2); the empty-curve sentinel"),
    Construction("trivial-twist-split", (3, 3), 2, 2, 0, (), "split", (0, 2),
                 "O + O(2); the empty-curve sentinel"),
    Construction("hyperplane-pair-split", (5,), 2, 2, 5, ((5, 6, 2),), "split", (1, 1),
                 "O(1) + O(1); its section curve is the plane-section curve"),
    Construction("hyperplane-pair-split", (2, 4), 2, 2, 8, ((8, 9, 3),), "split", (1, 1),
                 "O(1) + O(1); its section curve is the 3-space section"),
    Construction("hyperplane-pair-split", (3, 3), 2, 2, 9, ((9, 10, 3),), "split", (1, 1),
                 "O(1) + O(1); its section curve is the 3-space section"),
    Construction("quintic-two-plane-quintics", (5,), 2, 2, 10,
                 ((5, 6, 2), (5, 6, 2)), "union-of-sections", (),
                 "disjoint pair of smooth plane quintic sections whose planes "
                 "meet in one point off the threefold"),
    Construction("pullback-null-correlation", (5,), 2, 2, 10, (), "pullback-twist",
                 (0, 5, 1),
                 "pullback of a twisted null-correlation bundle under the "
                 "5-to-1 linear projection to P^3"),
    Construction("quintic-resolution-r14", (5,), 3, 2, 20, (), "resolution",
                 ((-2,), (0, 0, 0, 0)),
                 "cokernel of O(-2) -> O^4; ranks 3 through 14", (3, 14)),
    Construction("quintic-resolution-r8", (5,), 3, 2, 15, (), "resolution",
                 ((-1, -1), (0, 0, 0, 0, 0)),
                 "cokernel of O(-1)^2 -> O^5; ranks 3 through 8", (3, 8)),
    Construction("quintic-resolution-r5", (5,), 3, 2, 10, (), "resolution",
                 ((-1,), (0, 0, 0, 1)),
                 "cokernel of O(-1) -> O^3 + O(1); ranks 3 through 5", (3, 5)),
    Construction("euler-restriction", (5,), 4, 1, 5, (), "resolution",
                 ((-1,), (0, 0, 0, 0, 0)),
                 "restricted twisted tangent bundle of P^4; ranks 3 through 4",
                 (3, 4)),
    Construction("pullback-projected-tangent", (5,), 3, 1, 5, (), "resolution",
                 ((-1,), (0, 0, 0, 0)),
                 "pullback of the twisted tangent bundle of P^3 under linear "
                 "projection"),
    Construction("pullback-projected-cotangent", (5,), 3, 2, 10, (), "resolution",
                 ((2,), (1, 1, 1, 1)),
                 "pullback of the twice-twisted cotangent bundle of P^3 "
                 "(kernel of O(1)^4 -> O(2))"),
    Construction("x24-plane-quartic", (2, 4), 2, 1, 4, ((4, 3, 2),), "extension",
                 (0, 1, 4),
                 "extension by the twisted ideal of a plane quartic cut on "
                 "the quartic equation by a plane inside the quadric"),
    Construction("plane-cubic-extension", (2, 4), 2, 2, 11, (), "extension", (1, 1, 3),
                 "O(1) extended by the once-twisted ideal of a plane cubic"),
    Construction("plane-cubic-extension", (3, 3), 2, 2, 12, (), "extension", (1, 1, 3),
                 "O(1) extended by the once-twisted ideal of a plane cubic"),
    Construction("b1-two-linear-sections", (2, 4), 2, 2, 16,
                 ((8, 9, 3), (8, 9, 3)), "union-of-sections", (),
                 "disjoint pair of codimension-2 linear sections"),
    Construction("b1-two-linear-sections", (3, 3), 2, 2, 18,
                 ((9, 10, 3), (9, 10, 3)), "union-of-sections", (),
                 "disjoint pair of codimension-2 linear sections"),
    Construction("b2-four-quadrics", (2, 4), 2, 2, 16, ((16, 17, 5),), "ci-curve",
                 (2, 2, 2, 2),
                 "complete intersection of four quadrics in P^5"),
    Construction("b2-four-quadrics", (3, 3), 2, 2, 16, ((16, 17, 5),), "ci-curve",
                 (2, 2, 2, 2),
                 "complete intersection of four quadrics in P^5"),
    Construction("b3-delpezzo5-cubic", (3, 3), 2, 2, 15, ((15, 16, 5),), "surface-cut",
                 (5, -1, 3),
                 "cubic section of a weak del Pezzo surface of degree 5"),
    Construction("inc-linked-18", (3, 3), 2, 2, 18, ((18, 19, 5),), "liaison",
                 ((2, 2, 2, 3), 2, 3),
                 "degree-18 piece of the (2,2,2,3) complete intersection, "
                 "linked by a cubic"),
    Construction("x223-delpezzo6-cubic", (2, 2, 3), 2, 2, 18, ((18, 19, 6),), "surface-cut",
                 (6, -1, 3),
                 "cubic section of a weak del Pezzo surface of degree 6"),
)


class RegistryValidationError(ValueError):
    pass


def _validate_entry(entry: Construction) -> int:
    """Recompute one entry's fields; returns how many it recomputed and
    raises RegistryValidationError naming the entry and each failing field."""
    ctx = CicyContext(entry.threefold)
    checked: list[str] = []
    failed: list[str] = []

    def expect(name: str, expected, computed) -> None:
        checked.append(name)
        if expected != computed:
            failed.append(name)

    # component invariants, recomputed from first principles
    for d, g, span in entry.components:
        tag = f"component({d},{g},{span})"
        if span == 2:
            expect(f"{tag}.plane-genus", g, bounds.plane_genus(d))
        elif span == 3 and d == ctx.u:
            section, _ = section_curve_invariants(ctx)
            expect(f"{tag}.section-degree", d, section.degree)
            expect(f"{tag}.section-genus", g, section.genus)
            expect(f"{tag}.section-twist", entry.c1, section.omega_twist)
        else:
            expect(f"{tag}.castelnuovo", True, g <= bounds.castelnuovo_pi(d, span))
        if entry.c1 * d % 2 == 0:
            expect(f"{tag}.twist-genus", g, required_genus(entry.c1, d))

    total_d = sum(c[0] for c in entry.components)
    if entry.components:
        genera = [c[1] for c in entry.components]
        if entry.c1 == 2 and entry.rank == 2:
            expect("union.d=g-1", bounds.union_genus(genera) - 1, total_d)

    invariants: BundleInvariants | None = None
    if entry.kind == "split":
        a, b = entry.params
        invariants = chern_of_extension(a, b, 0, ctx)
    elif entry.kind == "extension":
        a, b, z = entry.params
        invariants = chern_of_extension(a, b, z, ctx)
        if z and (a, b) == (1, 1):
            # the residual of a twisted extension is a plane curve with
            # trivial dualizing sheaf, hence a cubic
            expect("residual.trivial-omega-degree", 3, z)
            expect("residual.omega-twist", 0, bounds.ci_curve_invariants([z], 2).omega_twist)
    elif entry.kind == "resolution":
        sub, quot = entry.params
        invariants = chern_from_resolution(list(sub), list(quot), ctx)
        if entry.rank_window:
            expect("rank-window", entry.rank_window, rank_window(sub, quot, ctx)[0])
    elif entry.kind == "ci-curve":
        degrees = list(entry.params)
        inv = bounds.ci_curve_invariants(degrees, ctx.ambient_dim)
        expect("ci.omega-twist", entry.c1, inv.omega_twist)
        expect("ci.genus", entry.components[0][1], inv.genus)
        invariants = chern_of_extension(0, entry.c1, inv.degree, ctx)
    elif entry.kind == "surface-cut":
        surface_degree, surface_twist, cut = entry.params
        d = surface_degree * cut
        expect("cut.degree", entry.components[0][0], d)
        expect("cut.omega-twist", entry.c1, surface_twist + cut)
        expect("cut.genus", entry.components[0][1], required_genus(entry.c1, d))
        invariants = chern_of_extension(0, entry.c1, d, ctx)
    elif entry.kind == "union-of-sections":
        invariants = chern_of_extension(0, entry.c1, total_d, ctx)
    elif entry.kind == "liaison":
        ci_degrees, target_twist, cut = entry.params
        total = bounds.ci_curve_invariants(list(ci_degrees), ctx.ambient_dim)
        d = bounds.liaison_solve(total.degree, total.omega_twist, target_twist, cut)
        expect("liaison.degree", entry.components[0][0], d)
        expect("liaison.genus", entry.components[0][1], required_genus(entry.c1, d))
        invariants = chern_of_extension(0, entry.c1, d, ctx)
    elif entry.kind == "pullback-twist":
        base_c1, base_c2_degree, t = entry.params
        c1, c2 = twist_rank2(base_c1, base_c2_degree, t, ctx)
        invariants = BundleInvariants(rank=entry.rank, c1=c1, c2=c2)
    else:  # pragma: no cover - registry is static
        raise RegistryValidationError(f"unknown construction kind {entry.kind}")

    expect("c1", entry.c1, invariants.c1)
    expect("c2", entry.c2, invariants.c2)
    if entry.rank == 2:
        cap = bounds.max_curve_degree(ctx, entry.c1, 2)
        expect("c2-cap", True, 0 <= entry.c2 <= cap)
    if failed:
        raise RegistryValidationError(
            f"construction {entry.name!r} on {entry.threefold}: failed checks {failed}")
    return len(checked)


def validate_construction(name: str) -> list[tuple[tuple[int, ...], int]]:
    """Recompute one named construction on every threefold carrying it: each
    threefold with the count of fields recomputed there.

    Raises RegistryValidationError naming the failing field on any mismatch.
    """
    entries = [e for e in REGISTRY if e.name == name]
    if not entries:
        raise KeyError(f"no registered construction named {name!r}")
    return [(e.threefold, _validate_entry(e)) for e in entries]


def validate_all() -> list[tuple[tuple[int, ...], int]]:
    """Validate the whole registry, entry by entry; hard error on the first mismatch."""
    return [validated for name in registry_names() for validated in validate_construction(name)]


def registry_names() -> list[str]:
    return sorted({e.name for e in REGISTRY})


#: The sorted names of the registered constructions by (threefold, c1, c2,
#: rank > 2), built once: `witnesses_for` runs for every judged candidate.
_WITNESSES = {key: tuple(sorted({e.name for e in REGISTRY
                                 if (e.threefold, e.c1, e.c2, e.rank > 2) == key}))
              for key in {(e.threefold, e.c1, e.c2, e.rank > 2) for e in REGISTRY}}


def witnesses_for(md: tuple[int, ...], c1: int, c2: int,
                  higher_rank: bool = False) -> tuple[str, ...]:
    """Names of registered constructions matching (threefold, c1, c2), of rank 2
    or, with `higher_rank`, of rank at least 3: the one source of witness names."""
    return _WITNESSES.get((md, c1, c2, higher_rank), ())


def serialize_registry() -> str:
    """Registry as a JSON document with stable key order."""
    records = []
    for e in sorted(REGISTRY, key=lambda e: (e.name, e.threefold)):
        records.append(
            {
                "name": e.name,
                "threefold": ",".join(map(str, e.threefold)),
                "rank": e.rank,
                "c1": e.c1,
                "c2": e.c2,
                "components": [list(c) for c in e.components],
                "ref": e.note,
            }
        )
    return json_text(records)


def incidence_dimension_check() -> dict[str, int]:
    """Dimension count for cubic fourfolds through four-quadric curves in P^5.

    Recomputes: the Grassmannian of 4-dimensional quadric systems has
    dimension 4 * (21 - 4) = 68; each curve imposes a 23-dimensional
    projective space of cubics (24 cubic sections of the ideal); the
    incidence variety has dimension 91; cubics form a P^55; the family of
    such curves on a general cubic has dimension 91 - 55 = 36.
    """
    h0_quadrics = math.comb(5 + 2, 5)  # sections of O(2) on P^5
    grassmannian = 4 * (h0_quadrics - 4)
    # ideal of a four-quadric complete intersection in degree 3: the Koszul
    # resolution leaves 4 * h0(O(1)) with no correction in degree 3
    h0_ideal_cubics = 4 * math.comb(5 + 1, 5)
    fiber = h0_ideal_cubics - 1
    incidence = grassmannian + fiber
    h0_cubics = math.comb(5 + 3, 5)
    general_fiber = incidence - (h0_cubics - 1)
    return {
        "h0_quadrics": h0_quadrics,
        "grassmannian_dim": grassmannian,
        "h0_ideal_cubics": h0_ideal_cubics,
        "fiber_dim": fiber,
        "incidence_dim": incidence,
        "h0_cubics": h0_cubics,
        "cubic_family_dim": general_fiber,
    }
