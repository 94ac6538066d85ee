"""Named verification checks: anchor values, property suites and the
classification equalities, grouped by module for the command-line runner."""

from __future__ import annotations

import functools
import hashlib
import json
import random
from fractions import Fraction

from . import bounds, classifier, constructions
from .chow import (
    ALL_CONTEXTS,
    QUINTIC,
    X24,
    X33,
    X223,
    X2222,
    TruncatedClass,
    c2_dot_hyperplane,
    chern_from_resolution,
    chern_of_extension,
    chi_rank2,
    h0_line_bundle,
    max_rank_no_trivial,
    ring_invert,
    ring_mul,
    twist_rank2,
)
from .classifier import HIGHER_RANK, RANK2, UnsupportedClassificationError
from .constructions import incidence_dimension_check, required_genus
from .ruled import (
    DivisorClass,
    GenusSearch,
    RuledSurface,
    adjunction_genus,
    canonical_class,
    disjointness_obstruction,
    eliminate_by_genus,
    embedding_degree,
    intersect,
)
from .verdicts import (FORMS, RULES, SURVIVES, FrozenDict, RuleKind, Status, audit_verdicts,
                       decode, payload)


class CheckFailure(AssertionError):
    pass


#: sha256 of the JSON report of each paper classification at c1 <= 2, and of the
#: registry text: the one home of these anchors.  A change that alters these
#: bytes by design updates them and says why in CHANGES.md.
REPORT_SHA256 = {
    (QUINTIC, RANK2): "f39a8ad8cc178fbababa2356752fa8227d44bcac38572a7f7d513a59cad0a4f6",
    (X24, RANK2): "89a88c3b730dc813e0aadfefece4c869d9027f56de41031e3a2ad0ec57beac7f",
    (X33, RANK2): "b6306f2997136d708316eaca7a8b67b1c21be95cf3077a67b2a75ba3608b5de4",
    (QUINTIC, HIGHER_RANK): "e328bf2e165e383755ac3cd8cc311c6b0c7617832cd6e719486f37a7d42b9d32",
}
REGISTRY_SHA256 = "577e5ce1b57ca2b1cb00868c5cb1230acb16d975ee4ee2ad793002ee5317b0b6"
#: The four paper classifications, as (threefold, rank regime).
PAPER_CASES = tuple(REPORT_SHA256)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _eq(computed, expected, label: str) -> None:
    """Raise unless computed == expected; a pass builds no text."""
    if computed != expected:
        raise CheckFailure(f"{label}: expected {expected!r}, got {computed!r}")


def _stated(computed, expected, label: str) -> str:
    """`_eq`, and the passed comparison as a check's detail text."""
    _eq(computed, expected, label)
    return f"{label} = {expected!r}"


def _true(condition: bool, label: str) -> str:
    if not condition:
        raise CheckFailure(label)
    return label


def _refuses(error: type[Exception], fn, *args) -> bool:
    """Whether `fn(*args)` raises `error`; any other exception propagates."""
    try:
        fn(*args)
    except error:
        return True
    return False


# --------------------------------------------------------------------------
# chow
# --------------------------------------------------------------------------


def check_chi_hyperplane_oracle() -> str:
    """chi(O(1) + O) is the ambient section count n + 1 on all five."""
    _eq([(ctx.ambient_dim, ctx.u, c2_dot_hyperplane(ctx)) for ctx in ALL_CONTEXTS],
        [(4, 5, 50), (5, 8, 56), (5, 9, 54), (6, 12, 60), (7, 16, 64)],
        "(n, u, c2(X).H) of the five")
    out = []
    for ctx, expected in zip(ALL_CONTEXTS, (5, 6, 6, 7, 8)):
        _eq(expected, ctx.ambient_dim + 1, f"n+1 on {ctx.label()}")
        out.append(_stated(chi_rank2(ctx, 1, 0), Fraction(expected), f"chi({ctx.label()},1,0)"))
    return "; ".join(out)


def check_chi_trivial_zero() -> str:
    for ctx in ALL_CONTEXTS:
        _eq(chi_rank2(ctx, 0, 0), Fraction(0), f"chi({ctx.label()},0,0)")
    return "chi(ctx,0,0) = 0 on all five threefolds"


def check_chi_twisted_pair() -> str:
    _eq(chi_rank2(X33, 1, 1), Fraction(11, 2), "chi(3,3,1,1)")
    return _stated(chi_rank2(QUINTIC, 2, 5), Fraction(10), "chi(5,2,5)")


def check_ring_examples() -> str:
    a = ring_mul(TruncatedClass.of(1, 1), TruncatedClass.of(1, 1))
    _eq(a.coeffs, TruncatedClass.of(1, 2, 1).coeffs, "(1+H)^2")
    b = ring_mul(TruncatedClass.of(1, 2, 4, 8), TruncatedClass.of(1, -2))
    _eq(b.coeffs, TruncatedClass.unit().coeffs, "(1,2,4,8)*(1,-2,0,0)")
    inv = ring_invert(TruncatedClass.of(1, -2))
    _eq(inv.coeffs, TruncatedClass.of(1, 2, 4, 8).coeffs, "1/(1-2H)")
    inv2 = ring_invert(TruncatedClass.of(1, -1))
    return _stated(inv2.coeffs, TruncatedClass.of(1, 1, 1, 1).coeffs, "1/(1-H)")


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """`rng.randint(lo, hi)`, drawn as CPython's `randint` draws it: k =
    (hi - lo + 1).bit_length() bits from `getrandbits`, drawn again until they
    fall below the range's width.  The same draws and values, without `randrange`'s
    argument checks, which cost more than the draws themselves."""
    width = hi - lo + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return lo + r


def _random_units() -> list[TruncatedClass]:
    """The 1000 seeded units of the round-trip check.  Each of the four
    coefficients is n/d for the draws n = randint(-9, 9), then d = randint(1,
    9), of `random.Random(20260811)`, made through `_randint`; the constant
    term is 1 where its draw gives 0.  The fractions are read from a table of
    the 171 such n/d: building a Fraction per draw took half the check's time."""
    rng = random.Random(20260811)
    table = {(n, d): Fraction(n, d) for n in range(-9, 10) for d in range(1, 10)}
    units = []
    for _ in range(1000):
        coeffs = [table[_randint(rng, -9, 9), _randint(rng, 1, 9)] for _ in range(4)]
        if coeffs[0] == 0:
            coeffs[0] = table[1, 1]
        units.append(TruncatedClass(tuple(coeffs)))
    return units


def check_ring_inverse_roundtrip() -> str:
    unit = TruncatedClass.unit()
    for x in _random_units():
        inv = ring_invert(x)
        # classes are kept in lowest terms, so == is exact equality of coefficients
        _eq(ring_mul(x, inv), unit, "x * x^-1")
        _eq(ring_mul(inv, x), unit, "x^-1 * x")
    return "1000 random units invert to both sides"


def check_resolution_chern() -> str:
    cases = [
        (([-2], [0, 0, 0, 0], QUINTIC), (3, 2, 20)),
        (([-1], [0, 0, 0, 0, 0], QUINTIC), (4, 1, 5)),
        (([], [0, 0], QUINTIC), (2, 0, 0)),
        (([], [0, 0], X223), (2, 0, 0)),
        (([-1], [0, 0, 0, 1], QUINTIC), (3, 2, 10)),
        (([-1, -1], [0, 0, 0, 0, 0], QUINTIC), (3, 2, 15)),
    ]
    for (sub, quot, ctx), expected in cases:
        inv = chern_from_resolution(sub, quot, ctx)
        _eq((inv.rank, inv.c1, inv.c2), expected, f"resolution {sub}->{quot}")
    return "resolution Chern data: c2 in {20, 5, 0, 10, 15}"


def check_resolution_additivity() -> str:
    rng = random.Random(7)
    for _ in range(200):
        sub = [_randint(rng, -3, -1) for _ in range(_randint(rng, 0, 2))]
        quot = [_randint(rng, -2, 3) for _ in range(len(sub) + _randint(rng, 1, 4))]
        inv = chern_from_resolution(sub, quot, QUINTIC)
        _eq(inv.c1, sum(quot) - sum(sub), f"c1 additivity {sub}->{quot}")
    return "c1 = sum(quot) - sum(sub) on 200 random resolutions"


def check_extension_chern() -> str:
    _eq(chern_of_extension(1, 1, 3, X24).as_pair(), (2, 11), "ext(1,1,3) on 2,4")
    _eq(chern_of_extension(0, 2, 16, X33).as_pair(), (2, 16), "ext(0,2,16) on 3,3")
    return _stated(chern_of_extension(1, 1, 0, QUINTIC).as_pair(), (2, 5),
                   "ext(1,1,0) on 5")


def check_twist_examples() -> str:
    _eq(twist_rank2(2, 10, -1, QUINTIC), (0, 5), "twist(2,10,-1) on 5")
    _eq(twist_rank2(3, 7, 0, X24), (3, 7), "twist identity")
    _eq(twist_rank2(4, -3, 0, X223), (4, -3), "twist identity on 2,2,3")
    _eq(twist_rank2(0, 0, 1, X24), (2, 8), "twist(0,0,1) on 2,4")
    rng = random.Random(11)
    for _ in range(200):
        c1, c2, t = _randint(rng, -4, 4), _randint(rng, -40, 40), _randint(rng, -3, 3)
        ctx = ALL_CONTEXTS[_randint(rng, 0, 4)]
        _eq(twist_rank2(*twist_rank2(c1, c2, t, ctx), -t, ctx), (c1, c2),
            "twist round-trip")
    return "twist anchors and 200 random round-trips"


def check_h0_values() -> str:
    _eq(h0_line_bundle(QUINTIC, 2), 15, "h0(O_X5(2))")
    _eq(h0_line_bundle(X24, 1), 6, "h0(O_X24(1))")
    _eq(h0_line_bundle(X2222, -2), 0, "h0(O_X2222(-2))")
    for ctx in ALL_CONTEXTS:
        _eq(h0_line_bundle(ctx, 0), 1, f"h0(O_{ctx.label()})")
        _eq(h0_line_bundle(ctx, 1), ctx.ambient_dim + 1, f"h0(O_{ctx.label()}(1))")
        _eq(h0_line_bundle(ctx, -1), 0, "h0(O(-1))")
    return "section counts: 15, 6, and n+1 linear sections on all five"


def check_max_rank() -> str:
    _eq(max_rank_no_trivial([-2], QUINTIC), 14, "max rank for O(-2)")
    _eq(max_rank_no_trivial([-1, -1], QUINTIC), 8, "max rank for O(-1)^2")
    _eq(max_rank_no_trivial([-1], QUINTIC), 4, "max rank for O(-1)")
    return "rank ceilings 14 / 8 / 4 (+1 twisted factor gives 5)"


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------


def check_castelnuovo_anchors() -> str:
    anchors = {(6, 3): 4, (7, 3): 6, (8, 3): 9, (5, 4): 1, (6, 4): 2, (7, 4): 3,
               (11, 4): 12, (14, 5): 15, (16, 7): 12, (3, 3): 0}
    for (d, r), value in sorted(anchors.items()):
        _eq(bounds.castelnuovo_pi(d, r), value, f"pi({d},{r})")
    return "ten genus-bound anchors"


def check_castelnuovo_ranges() -> str:
    for x in range(3, 6):
        _eq(bounds.castelnuovo_pi(x, 3), x - 3, f"pi({x},3)")
    for x in range(4, 8):
        _eq(bounds.castelnuovo_pi(x, 4), x - 4, f"pi({x},4)")
    return "pi(x,3) = x-3 on [3,5]; pi(x,4) = x-4 on [4,7]"


def check_castelnuovo_monotone() -> str:
    for r in range(3, 10):
        values = [bounds.castelnuovo_pi(d, r) for d in range(r, 41)]
        _true(all(a <= b for a, b in zip(values, values[1:])),
              f"pi(.,{r}) nondecreasing in degree")
    for d in range(9, 41):
        values = [bounds.castelnuovo_pi(d, r) for r in range(3, min(d, 9) + 1)]
        _true(all(a >= b for a, b in zip(values, values[1:])),
              f"pi({d},.) nonincreasing in span")
    return "bound monotone in degree and span"


def check_pi_one() -> str:
    # in P^3 the refined bound is Gruson-Peskine's floor(d(d-3)/6) + 1
    for d in range(7, 16):
        _eq(bounds.pi_one(d, 3), d * (d - 3) // 6 + 1, f"pi1({d},3)")
    _true(_refuses(bounds.UnsupportedBoundError, bounds.pi_one, 10, 5),
          "pi_one must refuse d < 2r + 1")
    return "refined bound matches Gruson-Peskine in P^3; d < 2r + 1 refused"


def check_plane_genus() -> str:
    _eq(bounds.plane_genus(5), 6, "plane quintic genus")
    _eq(bounds.plane_genus(1), 0, "line genus")
    _eq(bounds.plane_genus(3), 1, "plane cubic genus")
    return _stated(bounds.plane_genus(4), 3, "plane quartic genus")


def check_ci_invariants() -> str:
    _eq(tuple(bounds.ci_curve_invariants([2, 2, 2, 2], 5)), (16, 2, 17),
        "four quadrics")
    _eq(tuple(bounds.ci_curve_invariants([1, 1, 2, 4], 5)), (8, 2, 9),
        "linear section of the (2,4) threefold")
    _eq(tuple(bounds.ci_curve_invariants([2, 2, 2, 3], 5)), (24, 3, 37),
        "three quadrics and a cubic")
    _eq(tuple(bounds.ci_curve_invariants([1, 1, 3, 3], 5)), (9, 2, 10),
        "linear section of the (3,3) threefold")
    _eq(tuple(bounds.ci_curve_invariants([1, 1, 5], 4)), (5, 2, 6),
        "plane section of the quintic")
    _eq(tuple(bounds.ci_curve_invariants([2, 2, 2], 4)), (8, 1, 5),
        "three quadrics in P^4")
    _true(_refuses(ValueError, bounds.ci_curve_invariants, [1, 1], 2),
          "wrong codimension must be rejected")
    return "complete-intersection invariants and codimension guard"


def check_max_curve_degree() -> str:
    _eq(bounds.max_curve_degree(QUINTIC, 2, 2), 17, "cap on 5 (rank 2)")
    _eq(bounds.max_curve_degree(X24, 2, 2), 29, "cap on 2,4 (rank 2)")
    _eq(bounds.max_curve_degree(X33, 2, 2), 33, "cap on 3,3 (rank 2)")
    _eq(bounds.max_curve_degree(X24, 2, 3), 32, "cap on 2,4 (higher rank)")
    return _stated(bounds.max_curve_degree(X33, 1, 2), 9, "cap on 3,3 (twist one)")


# --------------------------------------------------------------------------
# ruled surfaces
# --------------------------------------------------------------------------


def check_intersection_anchors() -> str:
    _eq(intersect(DivisorClass(4, 8), DivisorClass(2, 5), RuledSurface(1)), 28,
        "(4h+8f).(2h+5f) on e=1")
    _eq(intersect(DivisorClass(0, 1), DivisorClass(0, 1), RuledSurface(2, 1)), 0,
        "f.f")
    _eq(intersect(DivisorClass(0, 1), DivisorClass(0, 1), RuledSurface(4, 2)), 0,
        "f.f on e=4, q=2")
    _eq(intersect(DivisorClass(4, 12), DivisorClass(2, 7), RuledSurface(3)), 28,
        "(4h+12f).(2h+7f) on e=3")
    return _stated(intersect(DivisorClass(4, 8), DivisorClass(2, 6), RuledSurface(0)),
                   40, "(4h+8f).(2h+6f) on e=0")


def check_canonical_classes() -> str:
    _eq(tuple(canonical_class(RuledSurface(1))), (-2, -3), "K on F1")
    _eq(tuple(canonical_class(RuledSurface(3))), (-2, -5), "K on F3")
    return _stated(tuple(canonical_class(RuledSurface(0, 1))), (-2, 0),
                   "K on the elliptic product")


def check_adjunction_anchors() -> str:
    _eq(adjunction_genus(DivisorClass(5, 15), RuledSurface(3)), 26,
        "genus of (5,15) on F3")
    for e in range(0, 5):
        for q in range(0, 3):
            if e < -q:
                continue
            _eq(adjunction_genus(DivisorClass(0, 1), RuledSurface(e, q)), 0,
                "fiber genus")
            _eq(adjunction_genus(DivisorClass(1, 0), RuledSurface(e, q)), q,
                "section genus")
    return _stated(adjunction_genus(DivisorClass(4, 8), RuledSurface(1)), 15,
                   "genus of (4,8) on F1")


def check_embedding_degrees() -> str:
    _eq(embedding_degree(DivisorClass(5, 15), DivisorClass(1, 3), RuledSurface(3)),
        15, "degree of (5,15)")
    for a, b in ((1, 2), (2, 5), (3, 4)):
        _eq(embedding_degree(DivisorClass(a, b), DivisorClass(1, 2), RuledSurface(1)),
            a + b, "cubic-scroll degree a+b")
    _eq(embedding_degree(DivisorClass(0, 1), DivisorClass(1, 9), RuledSurface(5)),
        1, "fibers are lines on F5")
    return _stated(embedding_degree(DivisorClass(0, 1), DivisorClass(1, 7),
                                    RuledSurface(2)), 1, "fibers are lines")


def _engine_failures(ctx, triples, *rule_ids) -> list[FrozenDict]:
    """The fields by name of each rule's one firing, a failure, on the engine's trail
    of the paper candidate with these component triples at c1 = 2."""
    cand = constructions.CurveCandidate(tuple(constructions.CurveComponent(*t) for t in triples))
    trail = classifier.judge_candidate(cand, ctx, 2).trail
    out = []
    for rule_id in rule_ids:
        firings = [e for e in trail if e.rule_id == rule_id]
        _eq([e.outcome for e in firings], ["fail"], f"{rule_id} on {cand.label()} ({ctx.label()})")
        out.append(firings[0].values)
    return out


def check_f1_elimination() -> str:
    (f1,) = _engine_failures(QUINTIC, [(15, 16, 4)], "R-hirzebruch-F1")
    _eq(f1["classes"], (), "degree-15 genus-16 classes on F1")
    (call,) = f1["checks"]
    check = payload(call)  # the search as the report holds it
    search, surface = map(decode, (GenusSearch, RuledSurface), check["args"])
    _eq((check["op"], search.hyperplane, search.degree, search.genus, surface.e),
        ("eliminate_by_genus", DivisorClass(1, 2), 15, 16, 1), "the search made")
    return "smooth cubic scroll carries no degree-15 curve of genus 16"


def check_f3_elimination() -> str:
    (f3,) = _engine_failures(QUINTIC, [(15, 16, 4)], "R-hirzebruch-F3")
    _eq(f3["classes"], ((5, 15),), "smoothness band on F3")
    return _stated(f3["genus"], 26, "its genus is 26, not 16")


def check_f0_conic() -> str:
    hits = eliminate_by_genus(GenusSearch(DivisorClass(1, 1), 2, genus=0),
                              RuledSurface(0))
    _eq(hits, [DivisorClass(1, 1)], "conic class on the quadric surface")
    return "degree-2 genus-0 search finds exactly (1,1)"


def check_adjunction_table() -> str:
    (table,) = _engine_failures(X24, [(8, 9, 3), (12, 13, 4)], "R-adjunction-28-40")
    cases = table["cases"].values()
    _eq([v["2g-2"] for v in cases], [28, 28, 40, 40, 40], "2g-2 of the five quartic cuts")
    _true(all(v["2g-2"] != v["required"] for v in cases), "never the required 2d")
    return "quartic cuts of scroll surfaces: 28, 28, 40, 40, 40"


def check_ruled_38() -> str:
    # the engine raises unless every class it tabulates has degree 17
    (ruled,) = _engine_failures(X33, [(17, 18, 5)], "R-ruled-38")
    for key, value in ruled["table"].items():  # keys read "q={q},e={e}"
        q = int(key.split(",")[0].removeprefix("q="))
        _eq(value, 26 + 6 * q, f"constant in e at {key}")
        _true(value != 34, "never the required 34")
    return _stated(ruled["value_at_q2"], 38, "value 38 at the forced sectional genus 2")


def check_ruled_58() -> str:
    ruled, clifford = _engine_failures(X33, [(9, 10, 3), (16, 17, 5)],
                                       "R-ruled-58", "R-clifford")
    _eq(ruled["even_solutions"], (), "-3e + 6q + 58 = 32 over admissible even e")
    _true(26 % 3 != 0, "3e = 6q + 26 impossible mod 3")
    _eq((clifford["genus"], clifford["bound_in_p7"]), (17, 12),
        "genus against the Castelnuovo bound in P^7")
    return "degree-16 triple-section equation unsolvable; the double section breaks Clifford"


def check_ruled_e2q20() -> str:
    (ruled,) = _engine_failures(X33, [(9, 10, 3), (18, 19, 5)], "R-ruled-e2q20")
    _eq(sorted(ruled["forced_e"]), [0, 1, 2], "sectional genera q")
    for q, e in ruled["forced_e"].items():
        _eq(e, 2 * q - 20, f"forced e at q={q}")
        _true(e < -q, f"e = 2q - 20 = {e} below the floor -q = {-q}")
    return "degree-18 case forces e = 2q - 20, infeasible"


def check_disjointness() -> str:
    f3 = RuledSurface(3)
    _true(disjointness_obstruction([DivisorClass(1, 4), DivisorClass(1, 4)], f3),
          "(1,4) pairs meet on F3")
    _true(not disjointness_obstruction([DivisorClass(0, 1), DivisorClass(0, 1)],
                                       RuledSurface(2)),
          "fibers are disjoint")
    _true(disjointness_obstruction([DivisorClass(1, 3), DivisorClass(2, 6)], f3),
          "(1,3).(2,6) = 6 > 0")
    return "disjointness obstructions: positive pairings detected"


# --------------------------------------------------------------------------
# constructions
# --------------------------------------------------------------------------


def _registry_check(name: str):
    def run() -> str:
        validated = constructions.validate_construction(name)
        labels = ", ".join(",".join(map(str, threefold)) for threefold, _ in validated)
        n = sum(count for _, count in validated)
        return f"validated on {labels} ({n} recomputed fields)"
    run.__name__ = f"check_registry_{name.replace('-', '_')}"
    return run


def check_required_genus() -> str:
    _eq(required_genus(2, 5), 6, "twist two, degree 5")
    _eq(required_genus(1, 4), 3, "twist one, degree 4")
    _eq(required_genus(2, 18), 19, "twist two, degree 18")
    _eq(required_genus(0, 0), None, "empty curve sentinel")
    _true(_refuses(ValueError, required_genus, 2, 0), "degree 0 with twist 2 must be rejected")
    _true(_refuses(constructions.ParityError, required_genus, 1, 3),
          "odd product must raise the parity error")
    return "twisted-genus anchors and parity guard"


def check_union_genus() -> str:
    _eq(bounds.union_genus([12, 0], 2), 13, "component plus line with two meets")
    _eq(bounds.union_genus([6, 6]), 11, "two disjoint plane quintics")
    _eq(bounds.union_genus([9]), 9, "single part of genus 9")
    return _stated(bounds.union_genus([7]), 7, "single part")


def check_liaison() -> str:
    _eq(bounds.liaison_solve(24, 3, 2, 3), 18, "linkage degree")
    brute = [d for d in range(1, 24) if (3 - 2) * d == 3 * (24 - d)]
    _eq(brute, [18], "independent scan of the linkage equation")
    _true(_refuses(bounds.LiaisonError, bounds.liaison_solve, 24, 3, 3, 3),
          "zero-coefficient liaison must be refused")
    return "liaison degree 18, cross-checked by scan; degenerate refused"


def check_incidence_dimensions() -> str:
    report = incidence_dimension_check()
    _eq(report["grassmannian_dim"], 68, "quadric-system dimension")
    _eq(report["fiber_dim"], 23, "cubics through one curve")
    _eq(report["incidence_dim"], 91, "incidence variety")
    _eq(report["cubic_family_dim"], 36, "curves on a general cubic")
    _eq(report["h0_cubics"], 56, "cubic monomial count")
    return _stated(report["h0_ideal_cubics"], 24, "ideal cubics through the curve")


def check_registry_serialization() -> str:
    text = constructions.serialize_registry()
    _eq(_sha256(text), REGISTRY_SHA256, "registry sha256")
    records = json.loads(text)
    _true(len(records) >= 10, "at least ten registry records")
    keys = list(records[0].keys())
    _eq(keys, ["name", "threefold", "rank", "c1", "c2", "components", "ref"],
        "stable key order")
    # deliberately the stdlib encoder: the check compares two independent encoders
    _eq(json.dumps(records, indent=2), text, "round-trip is byte-identical")
    _eq([(r["c1"], r["c2"]) for r in records if r["threefold"] == "2,2,3"], [(2, 18)],
        "the one codimension-3 example")
    return f"{len(records)} records serialized with stable keys"


# --------------------------------------------------------------------------
# classifier
# --------------------------------------------------------------------------


def _registry_admissible(result) -> None:
    """Every registry entry on the threefold, of the result's rank regime,
    sits on an admissible (c1, c2) pair."""
    higher = result.rank_regime == HIGHER_RANK
    for e in constructions.REGISTRY:
        if e.threefold == result.ctx.multidegree and (e.rank > 2) == higher:
            _true((e.c1, e.c2) in result.admissible_pairs,
                  f"registry {e.name} at (c1, c2) = ({e.c1}, {e.c2}) is admissible")


@functools.cache
def _paper(ctx, regime) -> classifier.ClassificationResult:
    """The classification of one paper case at c1 <= 2, made once per pass:
    `run_checks` clears this cache before its first check and after its last.
    Results are immutable values, so the checks of a pass share them.  A check
    called on its own, outside a pass, fills the cache until the next pass."""
    return classifier.classify(ctx, 2, regime)


def _survivors(result) -> set:
    # the status itself, not the `survives` property: the axiom-toggle check
    # reads some 8,500 verdicts, and the property calls took two thirds of this set's time
    return {v.candidate for v in result.verdicts if v.status is SURVIVES}


def _survivor_labels(result) -> tuple[str, ...]:
    """The candidates of the surviving verdicts as the report names them, in order."""
    return tuple(v.label for v in result.verdicts if v.survives)


def _witnessed(result) -> None:
    for c2 in result.admissible_c2:
        _true(bool(result.witnesses.get(c2)), f"witness at c2={c2}")


def check_quintic_rank2_pairs() -> str:
    result = _paper(QUINTIC, RANK2)
    _eq(result.admissible_pairs, ((1, 0), (2, 0), (2, 5), (2, 10)),
        "rank-2 pairs on the quintic")
    _eq(result.admissible_c2, (0, 5, 10), "rank-2 c2 set on 5")
    _eq(result.unresolved, (), "nothing unresolved")
    _eq(_survivor_labels(result), ("empty", "empty", "(5,6,2)", "(5,6,2) + (5,6,2)"),
        "surviving candidates on 5")
    _witnessed(result)
    _registry_admissible(result)
    return "pairs {(1,0), (2,0), (2,5), (2,10)}, four survivors, witnesses attached"


def check_quintic_higher_rank() -> str:
    result = _paper(QUINTIC, HIGHER_RANK)
    _eq(result.admissible_c2, (0, 5, 10, 15, 20), "higher-rank c2 set")
    _eq(result.rank_windows.get(20), (3, 14), "window at c2=20")
    _eq(result.rank_windows.get(15), (3, 8), "window at c2=15")
    _eq(result.rank_windows.get(10), (3, 5), "window at c2=10")
    _eq(result.rank_windows.get(5), (3, 4), "window at c2=5")
    _eq(_survivor_labels(result), ("resolution O(-1) -> O^5 (twist one)",
                                   "resolution O(-2) -> O^(r+1)",
                                   "resolution O(-1)^2 -> O^(r+2)",
                                   "resolution O(-1) -> O^r + O(1)",
                                   "plane-section curve (split route)"),
        "surviving shapes on 5")
    _registry_admissible(result)
    return "c2 in {0,5,10,15,20} with rank windows 14/8/5/4, five surviving shapes"


def check_x24_classification() -> str:
    result = _paper(X24, RANK2)
    _eq(result.admissible_c2, (0, 4, 8, 11, 16), "c2 set on 2,4")
    _eq(result.unresolved, (16,), "unresolved case")
    _eq(_survivor_labels(result), ("empty", "(4,3,2)", "empty", "(8,9,3)", "(11,12,4)",
                                   "(16,17,5)", "(8,9,3) + (8,9,3)"),
        "surviving candidates on 2,4")
    _witnessed(result)
    _registry_admissible(result)
    return "c2 in {0,4,8,11,16}, 16 unresolved, seven survivors, witnesses attached"


def check_x33_classification() -> str:
    result = _paper(X33, RANK2)
    _eq(result.admissible_c2, (0, 9, 12, 15, 16, 18), "c2 set on 3,3")
    _eq(result.unresolved, (16,), "unresolved case")
    _eq(_survivor_labels(result), ("empty", "empty", "(9,10,3)", "(12,13,4)", "(15,16,5)",
                                   "(16,17,5)", "(18,19,5)", "(9,10,3) + (9,10,3)"),
        "surviving candidates on 3,3")
    _witnessed(result)
    _registry_admissible(result)
    return "c2 in {0,9,12,15,16,18}, 16 unresolved, eight survivors, witnesses attached"


def check_trivial_regime() -> str:
    for ctx in ALL_CONTEXTS:
        result = classifier.classify(ctx, 0, RANK2)
        _eq(result.admissible_c2, (0,), f"c1=0 on {ctx.label()}")
        _eq(result.admissible_pairs, (), f"no c1 >= 1 pair on {ctx.label()}")
    return "first Chern class 0 forces the trivial bundle on all five"


def check_determinism() -> str:
    for (ctx, regime), pin in REPORT_SHA256.items():
        text = classifier.report_json(_paper(ctx, regime).report())
        _eq(_sha256(text), pin, f"sha256 of the {ctx.label()} {regime} report")
        if ctx is X33:
            # deliberately the stdlib encoder: the check compares two independent encoders
            _true(json.dumps(json.loads(text), indent=2) == text,
                  "JSON round-trip byte-identical")
    return "four reports match their pinned sha256; the 3,3 JSON round-trips"


def check_trail_audit() -> str:
    total = decided = 0
    for ctx, regime in PAPER_CASES:
        result = _paper(ctx, regime)
        mismatches = audit_verdicts(result.verdicts + result.component_verdicts)
        _eq(mismatches, [], f"audit on {ctx.label()} {regime}")
        for v in result.verdicts + result.component_verdicts:
            for e in v.trail:
                at = FORMS[e.form_id].checks_at
                if at is not None:
                    total += len(e.fields[at])
                decided += RULES[e.rule_id].kind is RuleKind.ARITHMETIC
    return (f"replayed {total} recorded kernel computations and re-derived "
            f"{decided} arithmetic outcomes")


def check_axiom_toggle_monotone() -> str:
    axioms = sorted(r.id for r in RULES.values() if r.kind is RuleKind.AXIOM)
    toggles = [frozenset(), *(frozenset({axiom}) for axiom in axioms)]
    grew = 0
    for ctx, regime in PAPER_CASES:
        base, *toggled = classifier.toggle_sweep(_paper(ctx, regime), toggles)
        kept = _survivors(base)
        for axiom, result in zip(axioms, toggled):
            if result is base:  # no base verdict cites the axiom: its survivors are kept
                continue
            survivors = _survivors(result)
            _true(kept <= survivors, f"disabling {axiom} must not shrink survivors "
                                     f"on {ctx.label()} {regime}")
            if kept < survivors:
                grew += 1
    return (f"survivor sets monotone under all axiom toggles, rank 2 and higher "
            f"rank ({grew} strict growths)")


def check_no_hidden_eliminations() -> str:
    flipped = 0
    for ctx in (QUINTIC, X24, X33):
        for level in _paper(ctx, RANK2).levels:
            for verdict in level.verdicts:
                if verdict.status is not Status.ELIMINATED:
                    continue
                cand = verdict.candidate
                failing = frozenset(
                    e.rule_id for e in verdict.trail if e.outcome == "fail"
                )
                requeued = classifier.judge_candidate(cand, ctx, level.c1, failing)
                _true(requeued.status is not Status.ELIMINATED,
                      f"{cand.label()} stays eliminated with its failing rules disabled")
                flipped += 1
    return f"{flipped} eliminated candidates flip without their failing rules"


def check_component_examples() -> str:
    v1 = constructions.component_admissible(
        constructions.CurveComponent(8, 9, 3), X24, 2)
    _true(v1.survives, "(8,9,3) survives on 2,4")
    v2 = constructions.component_admissible(
        constructions.CurveComponent(7, 8, 4), QUINTIC, 2)
    _true(not v2.survives, "(7,8,4) dies on the quintic")
    _true(any(e.rule_id == "R-genus-bound" and e.outcome == "fail"
              for e in v2.trail), "killed by the genus bound")
    v3 = constructions.component_admissible(
        constructions.CurveComponent(9, 10, 3), X33, 2)
    _true(v3.survives, "(9,10,3) survives on 3,3")
    return "component filter anchors"


def check_candidate_examples() -> str:
    quintic = [v.candidate for v in _paper(QUINTIC, RANK2).verdicts]
    plane_pair = constructions.CurveCandidate(
        (constructions.CurveComponent(5, 6, 2), constructions.CurveComponent(5, 6, 2)))
    _true(plane_pair in quintic, "two plane quintics enumerated")
    x24_c1 = [v.candidate for v in classifier.classify(X24, 1).verdicts]
    quartic = constructions.CurveCandidate((constructions.CurveComponent(4, 3, 2),))
    _true(quartic in x24_c1, "(4,3,2) enumerated at twist one")
    sextic = constructions.CurveComponent(6, 4, 3)
    _true(all(sextic not in c.components for c in x24_c1),
          "(6,4,3) excluded at twist one")
    return "candidate enumeration anchors"


def check_classifier_unsupported() -> str:
    _true(_refuses(UnsupportedClassificationError, classifier.classify, X223, 2, RANK2),
          "codimension-3 classification must be refused")
    _true(_refuses(UnsupportedClassificationError, classifier.classify, X24, 2, HIGHER_RANK),
          "higher rank off the quintic must be refused")
    return "out-of-scope regimes refused explicitly"


CHECKS: list[tuple[str, str, object]] = [
    ("chow", "chi-hyperplane-oracle", check_chi_hyperplane_oracle),
    ("chow", "chi-trivial-zero", check_chi_trivial_zero),
    ("chow", "chi-twisted-pair", check_chi_twisted_pair),
    ("chow", "ring-examples", check_ring_examples),
    ("chow", "ring-inverse-roundtrip-1000", check_ring_inverse_roundtrip),
    ("chow", "resolution-chern", check_resolution_chern),
    ("chow", "resolution-additivity", check_resolution_additivity),
    ("chow", "extension-chern", check_extension_chern),
    ("chow", "twist-examples", check_twist_examples),
    ("chow", "h0-values", check_h0_values),
    ("chow", "max-rank", check_max_rank),
    ("bounds", "castelnuovo-anchors", check_castelnuovo_anchors),
    ("bounds", "castelnuovo-ranges", check_castelnuovo_ranges),
    ("bounds", "castelnuovo-monotone", check_castelnuovo_monotone),
    ("bounds", "pi-one", check_pi_one),
    ("bounds", "plane-genus", check_plane_genus),
    ("bounds", "ci-invariants", check_ci_invariants),
    ("bounds", "max-curve-degree", check_max_curve_degree),
    ("ruled", "intersection-anchors", check_intersection_anchors),
    ("ruled", "canonical-classes", check_canonical_classes),
    ("ruled", "adjunction-anchors", check_adjunction_anchors),
    ("ruled", "embedding-degrees", check_embedding_degrees),
    ("ruled", "f1-elimination", check_f1_elimination),
    ("ruled", "f3-elimination", check_f3_elimination),
    ("ruled", "f0-conic", check_f0_conic),
    ("ruled", "adjunction-28-40", check_adjunction_table),
    ("ruled", "ruled-38", check_ruled_38),
    ("ruled", "ruled-58", check_ruled_58),
    ("ruled", "ruled-e2q20", check_ruled_e2q20),
    ("ruled", "disjointness", check_disjointness),
    ("constructions", "required-genus", check_required_genus),
    ("constructions", "union-genus", check_union_genus),
    ("constructions", "liaison-18-two-routes", check_liaison),
    ("constructions", "incidence-dimensions", check_incidence_dimensions),
    ("constructions", "registry-serialization", check_registry_serialization),
    ("classifier", "quintic-rank2-pairs", check_quintic_rank2_pairs),
    ("classifier", "quintic-higher-rank", check_quintic_higher_rank),
    ("classifier", "x24-classification", check_x24_classification),
    ("classifier", "x33-classification", check_x33_classification),
    ("classifier", "trivial-regime", check_trivial_regime),
    ("classifier", "determinism", check_determinism),
    ("classifier", "trail-audit", check_trail_audit),
    ("classifier", "axiom-toggle-monotone", check_axiom_toggle_monotone),
    ("classifier", "no-hidden-eliminations", check_no_hidden_eliminations),
    ("classifier", "component-examples", check_component_examples),
    ("classifier", "candidate-examples", check_candidate_examples),
    ("classifier", "unsupported-regimes", check_classifier_unsupported),
]

for _name in constructions.registry_names():
    CHECKS.append(("registry", _name, _registry_check(_name)))


def run_checks(module: str | None = None):
    """Run (module-filtered) checks; yields (module, name, ok, detail).

    A pass classifies each paper case once, and neither reads a result made
    before it nor leaves one behind."""
    _paper.cache_clear()
    try:
        for mod, name, fn in CHECKS:
            if module and mod != module:
                continue
            try:
                detail = fn()
                yield mod, name, True, detail
            except Exception as exc:  # noqa: BLE001 - report any failure
                yield mod, name, False, f"{type(exc).__name__}: {exc}"
    finally:
        _paper.cache_clear()


def module_names() -> list[str]:
    return sorted({mod for mod, _, _ in CHECKS})
