"""Rule and verdict types shared by the candidate filters and the classifier.

Rules come in two kinds.  ARITHMETIC rules are recomputed from the kernel
modules every time they fire; their recorded values carry the inputs and
outputs of those computations, which `audit_verdicts` replays here, apart
from the search it checks, through the op table `KERNEL_OPS`.  AXIOM rules
are geometric steps (Bertini arguments, spannedness of specific ideals,
secant-variety dimensions, ...) that the engine consumes as hypotheses; each
is toggleable so the arithmetic skeleton can be audited on its own.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _escape
from typing import NamedTuple, get_origin, get_type_hints

from . import bounds, chow, ruled
from .chow import CicyContext
from .ruled import DivisorClass, GenusSearch, RuledSurface


class RuleKind(str, Enum):
    ARITHMETIC = "ARITHMETIC"
    AXIOM = "AXIOM"


class Status(str, Enum):
    SURVIVES = "SURVIVES"
    ELIMINATED = "ELIMINATED"
    AXIOM_ELIMINATED = "AXIOM-ELIMINATED"


# the members by name: on CPython 3.11 `Status.SURVIVES` is a slow class
# attribute lookup, and the judgement hot path reads them ~10^5 times a sweep
SURVIVES, ELIMINATED, AXIOM_ELIMINATED = Status


@dataclass(frozen=True)
class Rule:
    """A corpus rule.  `forms` declares the shapes of its firings' values:
    for an arithmetic rule a decision, whose parameters name the fields and
    whose value is the outcome, for an axiom the field names, space
    separated; a dict holds one such form per shape name (see `FORMS`)."""

    id: str
    kind: RuleKind
    statement: str
    ref: str
    annotation: str | None = None
    forms: object = field(default="", compare=False)


class Form(NamedTuple):
    """One value shape of a rule's firings, fired by its key in `FORMS` with
    the fields in `names` order.  `decide` takes them and gives an arithmetic
    firing's outcome; an axiom has none.  `checks_at` is the position of the
    recorded kernel calls, None without them."""

    rule_id: str
    names: tuple[str, ...]
    decide: Callable[..., bool] | None
    checks_at: int | None


class FrozenDict(dict):
    """A dict that refuses writes: each mapping among a firing's fields.  A
    dict still, so reports write it as the stdlib does; a copy is a new one."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a firing's fields are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


class KernelCall(NamedTuple):
    """One recorded kernel computation, frozen: the list arguments of an op
    that takes lists and a list result are kept as tuples.  `payload` gives
    its JSON form."""

    op: str
    args: tuple
    result: object


class TrailEntry(NamedTuple):
    """One firing, plain data: the rule, its outcome, the id of the form
    fired, that form's fields and the route fired on."""

    rule_id: str
    outcome: str  # "pass", "fail" or "hypothesis"
    form_id: str  # a key of FORMS, a form of rule `rule_id`
    fields: tuple  # the firing's values, in the form's `names` order
    route: str | None = None  # the escape route fired on; None: the trail itself

    @property
    def values(self) -> FrozenDict:
        """The fields by name, read-only."""
        return FrozenDict(zip(FORMS[self.form_id].names, self.fields))

    def to_dict(self) -> dict:
        """The entry as a report stores it: the route first, then each field
        under its name, the recorded calls as their payloads."""
        form = FORMS[self.form_id]
        values = {} if self.route is None else {"route": self.route}
        values.update(zip(form.names, self.fields))
        at = form.checks_at
        if at is not None:  # each payload takes its field's key position
            values["checks"] = [payload(call) for call in self.fields[at]]
        return {"rule": self.rule_id, "outcome": self.outcome, "values": values}


class Verdict(NamedTuple):
    candidate: object
    status: Status
    trail: tuple[TrailEntry, ...]
    witnesses: tuple[str, ...]
    unresolved: bool

    @property
    def survives(self) -> bool:
        return self.status is SURVIVES

    @property
    def label(self) -> str:
        """The candidate as reports name it: a higher-rank shape is its own name."""
        candidate = self.candidate
        return candidate if isinstance(candidate, str) else candidate.label()


_R = RuleKind.ARITHMETIC
_A = RuleKind.AXIOM

_CORPUS: tuple[Rule, ...] = (
    # -- component-level filters -------------------------------------------
    Rule("R-regime-genus", _R,
         "component genus matches the dualizing-twist regime: g = d + 1 for "
         "twist two, 2g - 2 = d for twist one",
         "serre-curve-genus",
         forms=lambda d, g, twist, required: g == required),
    Rule("R-plane-degree", _R,
         "a plane component is a plane-section curve: genus (d-1)(d-2)/2 and "
         "degree equal to one of the defining degrees",
         "plane-section-degrees",
         forms=lambda d, g, plane_genus, defining_degrees, checks: (
             g == plane_genus and d in defining_degrees)),
    Rule("A-no-plane", _A,
         "none of the five threefolds contains a 2-plane",
         "no-planes",
         forms="span d"),
    Rule("R-span3-cap", _R,
         "a component spanning a 3-space lies inside the degree-u linear "
         "section, so its degree is at most u",
         "linear-section-cap",
         forms=lambda d, cap: d <= cap),
    Rule("A-no-quartic-surface", _A,
         "on the (3,3) threefold a degree-8 extremal space curve would need a "
         "quartic surface inside the threefold, which does not exist",
         "quadric-quartic-exclusion",
         forms="d"),
    Rule("R-section-match", _R,
         "a curve filling its linear section carries the section's "
         "complete-intersection degree and genus",
         "section-genus",
         forms={
             "section": lambda d, g, section_genus, checks: g == section_genus,
             "below": lambda d, section_degree: d == section_degree,
             "forced": lambda d, forced_degree: d == forced_degree}),
    Rule("A-spannedness-h0", _A,
         "a spanned twisted ideal with a two-dimensional space of linear "
         "sections forces the curve to be the full linear-section curve",
         "ideal-spannedness",
         forms="d section_degree"),
    Rule("R-genus-bound", _R,
         "component genus is at most the Castelnuovo bound for its degree and span",
         "castelnuovo-bound",
         forms={
             "degenerate": lambda d, span, reason: d >= span,
             "bound": lambda d, g, span, bound, checks: g <= bound}),
    Rule("R-ideal-sections", _R,
         "for determinant twist one a spanned ideal needs at least two linear "
         "sections, so the span dimension is at most n - 2",
         "linear-system-count",
         forms=lambda span, ambient, linear_sections: span <= ambient - 2),
    Rule("R-degree-cap", _R,
         "total curve degree respects the quadric-section degree cap",
         "degree-cap",
         forms={
             "component": lambda d, cap: d <= cap,
             "curve": lambda total, cap: total <= cap}),
    # -- degenerate (extension) route --------------------------------------
    Rule("R-ext-z", _R,
         "a degenerate curve comes from a twisted extension; the residual "
         "degree z = d - u must be 0 (split pair) or 3 (plane cubic)",
         "extension-residual",
         forms={
             "split": lambda z, residual, checks: z == 0,
             "plane-cubic": lambda z, residual, residual_omega_twist, checks: (
                 z == 3 and residual_omega_twist == 0),
             "other": lambda z, allowed: z in allowed,
             "section": lambda z, allowed, checks, note: z in allowed}),
    Rule("A-ext-plane-cubic", _A,
         "three independent linear forms through the residual subscheme force "
         "it to be a plane curve; trivial dualizing sheaf then forces a cubic",
         "residual-planarity",
         forms="z linear_sections_through_plane"),
    Rule("R-union-genus", _R,
         "disjoint-union genus bookkeeping: p_a = sum(g_i) - s + 1 (+ meets)",
         "union-genus",
         forms={
             "planes": lambda union_genus, total_degree, checks: union_genus - 1 == total_degree,
             "section": lambda union_genus, section_genus, checks: union_genus == section_genus,
             "meets": lambda ci_union_genus, forced_meets, union_genus_with_meets, required_genus,
             checks: union_genus_with_meets == ci_union_genus,
             "line": lambda ci_union_genus, forced_meets, dualizing_degree_on_line, checks: (
                 dualizing_degree_on_line["computed"] == dualizing_degree_on_line["required"])}),
    # -- quintic, twist two -------------------------------------------------
    Rule("A-base-locus", _A,
         "three general quadric sections either cut a curve of degree at most "
         "eight or share a base surface of degree at most three",
         "quadric-base-locus",
         forms={"candidate": "components", "shape": ""}),
    Rule("R-ci-omega", _R,
         "a complete-intersection curve whose dualizing twist differs from "
         "the determinant twist is excluded",
         "ci-adjunction-twist",
         forms={
             "curve": lambda degrees, omega_twist, required, checks: omega_twist == required,
             "surface": lambda degrees, omega_twist, required, checks, note: (
                 omega_twist == required)}),
    Rule("R-mu-d", _R,
         "on a degree-3 base surface the intersection multiplicity satisfies "
         "mu * d = 15; only d = 15 admits the required genus d + 1",
         "scroll-multiplicity",
         forms={
             "curve": lambda mu_d, d, viable, checks: d in viable,
             "scroll": lambda mu_d, viable, checks: mu_d in viable}),
    Rule("R-hirzebruch-F1", _R,
         "no divisor class on the smooth cubic scroll has embedding degree 15 "
         "and genus 16",
         "smooth-scroll-search",
         forms=lambda classes, quadratic, checks: len(classes) > 0),
    Rule("R-cone-disjointness", _R,
         "on the cubic cone every pair of smoothness-band classes has "
         "positive pairing, so a multi-component curve cannot be disjoint",
         "cone-disjointness",
         forms=lambda pairings, conclusion: all(v > 0 for v in pairings.values())),
    Rule("R-hirzebruch-F3", _R,
         "on the cubic cone the degree-15 smoothness band forces the class "
         "(5,15), whose genus 26 is not 16",
         "cone-scroll-search",
         forms={
             "rank2": lambda classes, genus, required, checks: genus == required,
             # rank >= 3 needs only d <= g - 1 of the degree-15 curve
             "higher-rank": lambda classes, genus, note, checks: 15 <= genus - 1}),
    Rule("A-two-planes", _A,
         "a disjoint pair of plane sections whose planes meet in one external "
         "point is cut out by quadrics along the threefold",
         "plane-pair-spannedness",
         forms=""),
    Rule("A-three-planes", _A,
         "three pairwise disjoint plane sections are never cut out by "
         "quadrics along the threefold",
         "plane-triple-obstruction",
         forms="planes"),
    Rule("A-quadric-plane", _A,
         "a quadric surface plus an external plane is never cut out by "
         "quadrics along the threefold",
         "quadric-plane-obstruction",
         forms="spans"),
    Rule("R-surface-budget", _R,
         "the base-locus surface degree budget must cover the minimal surface "
         "degree of every component",
         "surface-degree-budget",
         forms=lambda minima, budget: sum(minima) <= budget),
    Rule("A-scroll-spannedness", _A,
         "for rank at least three the twisted dualizing sheaf of a smooth-"
         "scroll curve of degree 15 is not spanned",
         "scroll-spannedness",
         annotation=(
             "recorded discrepancy: the inequality 30a^2 - 31a + 60 <= 0 used "
             "by this elimination step has no integer solutions, while the "
             "lattice-derived inequality 3a^2 - 31a + 60 <= 0 is satisfied for "
             "a in [3, 7]; the step is therefore kept as an axiom, not an "
             "arithmetic rule"
         ),
         forms="stated lattice lattice_solutions"),
    Rule("A-minimal-resolution", _A,
         "a connected plane-section curve yields a split bundle through the "
         "minimal free resolution of its ideal",
         "minimal-resolution-split",
         forms=""),
    # -- degree-8 threefold, twist two --------------------------------------
    Rule("R-x24-extremal", _R,
         "several components, each of degree at least u, with total degree at "
         "most 2u: exactly two degree-u space sections",
         "extremal-pair",
         forms=lambda total, component_floor, components: (
             components == " + ".join(
                 [f"({component_floor},{component_floor + 1},3)"] * 2))),
    Rule("A-section-pair", _A,
         "a transversal pair of codimension-2 linear sections is cut out by "
         "quadrics along the threefold",
         "section-pair-existence",
         forms=""),
    Rule("A-x24-three-quadrics", _A,
         "three disjoint quadric-section components are not cut out by "
         "quadrics (linear-projection argument)",
         "conic-triple-obstruction",
         forms="sections"),
    Rule("R-x24-si-degree", _R,
         "each base surface cuts its curve with the quartic: component degree "
         "is 4 * deg(S) with deg(S) in {2,...,7}",
         "surface-cut-degree",
         forms={
             "cut": lambda d, note: d % 4 == 0 and 2 <= d // 4 <= 7,
             "span": lambda d, surface_degree, minimal_degree: surface_degree >= minimal_degree,
             "sections": lambda surface_degree, d: d == 4 * surface_degree}),
    Rule("R-adjunction-28-40", _R,
         "ruled-surface adjunction gives 2g - 2 in {28, 40} on the degree-3 "
         "and degree-4 base surfaces, never the required 2d in {24, 32}",
         "ruled-adjunction-table",
         forms=lambda cases, checks: any(
             v["2g-2"] == v["required"] for v in cases.values())),
    Rule("R-x24-s2-span5", _R,
         "a spanning component living beside others is capped by twice a "
         "residual surface degree, at most 12, below the genus floor 14",
         "residual-degree-cap",
         forms=lambda d, genus_floor, checks: genus_floor <= d <= 12),
    Rule("R-quadric-cap", _R,
         "a curve cut out by quadrics in P^5 has degree at most 2^4 = 16",
         "quadric-ci-cap",
         forms=lambda d, cap: d <= cap),
    Rule("R-x24-mod4", _R,
         "a curve cut from a base surface by the quartic has degree 4*deg(S)",
         "quartic-cut-divisibility",
         forms=lambda d, modulus: d % modulus == 0),
    Rule("R-ci-residual", _R,
         "degree below 16 leaves a nonempty residual inside the four-quadric "
         "intersection; meeting it changes the dualizing twist",
         "ci-residual-meet",
         forms={
             "twist": lambda d, residual_degree, forced_meets, required_meets: residual_degree == 0,
             "note": lambda d, residual_degree, forced_meets, required_meets, note: (
                 residual_degree == 0)}),
    Rule("A-ci-connected", _A,
         "complete-intersection curves are connected",
         "ci-connectedness",
         forms={"ci": "ci_degree", "section": ""}),
    Rule("A-deg-S-5", _A,
         "no degree-5 base surface: in both Delta-genus branches the twisted "
         "dualizing sheaf of the surface has sections with nonempty zero locus",
         "almost-minimal-surface",
         forms={"surface": "surface_degree sectional_twist scroll_dualizing_sections",
                "component": "surface_degree d"}),
    Rule("A-deg-S-6", _A,
         "no degree-6 base surface: the trisecant count forces sectional "
         "genus 2 and the twisted dualizing sheaf has sections",
         "berzolari-sectional-genus",
         forms={"surface": "surface_degree hyperplane_genus twisted_dualizing_sections",
                "component": "surface_degree d"}),
    Rule("A-linked-plane-7", _A,
         "no degree-7 base surface: every quadric through it contains the "
         "plane linked to it inside three quadrics",
         "cayley-bacharach-link",
         forms={"surface": "surface_degree link", "component": "surface_degree d",
                "route": "surface_degree"}),
    # -- degree-9 threefold, twist two --------------------------------------
    Rule("A-harris-surface", _A,
         "genus meeting or exceeding the refined bound forces the curve onto "
         "a surface of low degree",
         "refined-bound-surface",
         annotation=(
             "recorded discrepancy: the refined bound was earlier taken as 8 at "
             "(d, r) = (11, 4) and 11 at (14, 5), the main term alone; Harris's "
             "bound gives 10 and 13 (and 16 at (15, 5)); the printed values "
             "could not be checked against the paper's text, and every firing "
             "still has genus at or above the bound (12, 15, 16)"
         ),
         forms="refined_bound genus surface_degree_cap checks"),
    Rule("R-pi1-cut", _R,
         "the refined-bound surface is cut by the cubics: d <= 3 * deg(T)",
         "cubic-cut-cap",
         forms={
             "cut": lambda d, cut_cap: d <= cut_cap,
             "note": lambda d, cut_cap, note: d <= cut_cap}),
    Rule("A-delpezzo5", _A,
         "the degree-5 surface carrying the degree-15 curve is a weak del "
         "Pezzo surface with anticanonical twist -1",
         "quintic-delpezzo",
         forms="surface_twist"),
    Rule("R-surface-cut-twist", _R,
         "surface dualizing twist plus cutting degree must equal the "
         "determinant twist",
         "surface-cut-twist",
         forms=lambda surface_twist, cutting_degree, required: (
             surface_twist + cutting_degree == required)),
    Rule("R-liaison-18", _R,
         "linkage inside the (2,2,2,3) complete intersection forces the "
         "admissible piece to have degree 18",
         "liaison-degree",
         forms=lambda linked_degree, d, checks: linked_degree == d),
    Rule("R-s-omega", _R,
         "a degree-8 base surface is a three-quadric complete intersection "
         "with trivial dualizing twist",
         "ci-surface-twist",
         forms=lambda degrees, omega_twist: omega_twist == 0),
    Rule("R-cut-cap", _R,
         "curve degree is at most 3 times the base-surface degree (deg <= 8)",
         "cubic-cut-budget",
         forms=lambda d, surface_degree, cap: d <= cap),
    Rule("R-dim3-degree", _R,
         "a threefold base component cuts a curve of degree 9 * deg",
         "threefold-cut-degree",
         forms=lambda d, possible_degrees: d in possible_degrees.values()),
    Rule("A-x33-cubic-3fold", _A,
         "the degree-3 threefold route dies: the twisted dualizing sheaf of a "
         "desingularization has sections with nonempty zero locus",
         "cubic-threefold-sections",
         forms="d"),
    Rule("A-berzolari", _A,
         "the trisecant-line count forces the general hyperplane section of "
         "the degree-6 base surface to have genus 2",
         "berzolari-trisecant-count",
         forms={"degree": "sectional_genus degree checks", "genus": "sectional_genus checks"}),
    Rule("R-ruled-38", _R,
         "degree-17 curve on the degree-6 ruled surface: adjunction gives "
         "2g - 2 = 38 for every even invariant e, never the required 34",
         "genus2-scroll-adjunction",
         forms=lambda required, value_at_q2, table, never_34: required in table.values()),
    Rule("A-secant-dim", _A,
         "the secant variety of an integral nondegenerate curve in P^5 has "
         "dimension 3, so it meets every 3-space",
         "secant-variety-dimension",
         forms="secant_dimension"),
    Rule("R-ruled-58", _R,
         "triple-section case of the degree-16 curve: -3e + 6q + 58 = 32 has "
         "no even solution with e >= -q and q <= 2",
         "scroll-case-equation-16",
         forms=lambda equation, divisibility, even_solutions: len(even_solutions) > 0),
    Rule("R-clifford", _R,
         "double-section case of the degree-16 curve: a primitive pencil of "
         "Clifford index 2 gives h0 = 8 sections, but genus 17 exceeds the "
         "Castelnuovo bound 12 in P^7",
         "clifford-castelnuovo",
         annotation=(
             "recorded discrepancy: the genus bookkeeping uses 2g - 2 = 32, "
             "i.e. g = 17; the variant relation 2g + 2 = 32 appearing in one "
             "intermediate step is recorded here and not used"
         ),
         forms=lambda genus, clifford_options, sections_from_index_2, bound_in_p7,
         contradiction, checks: genus <= bound_in_p7),
    Rule("R-ruled-e2q20", _R,
         "triple-section case of the degree-18 curve: 2q + 16 - e = 36 forces "
         "e = 2q - 20 < -q, infeasible for q <= 2",
         "scroll-case-equation-18",
         forms=lambda equation, forced_e, feasible: len(feasible) > 0),
    Rule("A-ample-connected", _A,
         "an ample divisor on the carrier surface is connected, so the curve "
         "cannot be one component among several",
         "ample-connectedness",
         forms="d note"),
    Rule("A-x33-span-overlap", _A,
         "overlapping component spans put a reducible quadric into the base "
         "locus of the twisted ideal",
         "span-overlap-obstruction",
         forms="d"),
    Rule("A-x33-two-ci", _A,
         "two degree-12 components would make the two carrier surfaces a "
         "three-quadric complete intersection, leaving too few quadrics",
         "quadric-count-pair",
         forms="d"),
    Rule("A-x33-three-sections", _A,
         "three space-section components force every quadric through the "
         "curve to be a cone over one quadric surface, leaving one section",
         "triple-section-cones",
         forms="sections"),
    Rule("A-x33-s2-deg8", _A,
         "a degree-8 base surface beside a linear span gives quadric counts "
         "3 versus at most 2, impossible for a disconnected curve",
         "quadric-count-deg8",
         forms="d"),
    Rule("R-x33-surface-budget", _R,
         "the three-quadric intersection (degree 8) must hold the carrier "
         "surfaces of all non-section components",
         "surface-degree-budget-9",
         forms=lambda minima, budget: sum(minima) <= budget),
    # -- witnesses / registry-backed pass rules ------------------------------
    Rule("A-plane-in-quadric", _A,
         "the unique quadric through the threefold contains planes, and a "
         "general one cuts a smooth plane quartic on the quartic equation",
         "plane-in-quadric-existence",
         forms=""),
    Rule("R-resolution-shape", _R,
         "Chern numbers and rank window of a twisted free resolution shape",
         "resolution-shape",
         forms=lambda sub, quot_twists, c1, c2, rank_window, checks: (
             rank_window[0] <= rank_window[1])),
    Rule("R-ext-split", _R,
         "split bundles O(a) + O(b) contribute c2 = a*b*u",
         "split-pairs",
         forms={
             "empty": lambda c1, c2, checks: c2 >= 0,
             "split": lambda c1, c2, split, checks: c2 >= 0}),
)

RULES: dict[str, Rule] = {rule.id: rule for rule in _CORPUS}


class _Checked(frozenset):
    """A toggle set `_check_disabled` has checked: only it builds one."""

    __slots__ = ()


def _check_disabled(disabled: frozenset[str]) -> _Checked:
    """`disabled` as a checked set.  A str (`in` reads substrings) or a set
    naming an unknown rule id raises ValueError.  A set this has checked
    passes at the cost of a type test, so `classify` and `toggle_sweep`
    check each set once and every public judge checks on every call."""
    if type(disabled) is _Checked:
        return disabled
    if isinstance(disabled, str):
        raise ValueError(f"disabled rules must be a set of rule ids, not the str {disabled!r}")
    unknown = set(disabled).difference(RULES)
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(sorted(map(repr, unknown)))}")
    return _Checked(disabled)


def annotations() -> list[dict]:
    """The recorded discrepancy annotations, in corpus order."""
    return [
        {"rule": rule.id, "note": rule.annotation}
        for rule in _CORPUS
        if rule.annotation
    ]


def _forms(rule: Rule):
    """(id, form) of each form of a rule: its one form, under the rule's own
    id, or one per shape name, under the id `rule-id/shape`."""
    shapes = rule.forms if isinstance(rule.forms, dict) else {None: rule.forms}
    for shape, spec in shapes.items():
        if rule.kind is RuleKind.ARITHMETIC:
            code = spec.__code__
            names, decide = code.co_varnames[:code.co_argcount], spec
        else:
            names, decide = tuple(spec.split()), None
        yield (rule.id if shape is None else f"{rule.id}/{shape}",
               Form(rule.id, names, decide, names.index("checks") if "checks" in names else None))


#: Every form of the corpus by its id, the name a firing site gives.
FORMS: dict[str, Form] = {form_id: form for rule in _CORPUS for form_id, form in _forms(rule)}

_SOLE_ROUTE = {None: False}  # a trail with no routes opened: it realizes its candidate


class Trail:
    """The judgement of one candidate: rule firings, honoring a set of
    disabled rule ids, made on escape routes that share its entries.  The
    trail itself has `name` None; `route(name)` opens a route, a trail under
    that name on the same containers.  A firing on the trail itself belongs to
    every route; with no routes opened the trail counts as one marked route.
    `verdict` derives the status.

    A site fires a form by its id with the form's fields, positionally: an
    arithmetic form with `fire`, which takes the outcome from the form's
    decision, an axiom that excludes with `exclude` and one taken as a
    hypothesis with `hypothesis`.  Each records its entry under `name`.

    `lemmas` is the trail's lemma book, shared by its routes and by every
    trail handed the same book: a dict from a derivation that reads nothing
    of the candidate to its value, filled by `lemma` on first use.  The
    candidate trails of a twist level share one book, so each of its lemmas
    is derived once per level and its every firing carries the same value
    and the same records.  A trail built with no book, such as a
    component's, has none, and its `lemma` raises TypeError."""

    __slots__ = ("entries", "disabled", "routes", "dead", "name", "lemmas")

    def __init__(self, disabled: frozenset[str] = frozenset(), lemmas: dict | None = None):
        self.entries: list[TrailEntry] = []
        self.disabled = disabled
        # route name -> its unresolved flag once marked, else None
        self.routes: dict[str, bool | None] = {}
        # route name -> whether an arithmetic rule failed on it: each route a
        # failure killed, tallied as the failure fires; None is the trail itself
        self.dead: dict[str | None, bool] = {}
        self.name: str | None = None
        self.lemmas = lemmas

    def route(self, name: str) -> Trail:
        """Open the escape route `name`: a trail sharing this one's containers
        under `name`, with no reference back to it, so no reference cycle."""
        self.routes.setdefault(name, None)
        route = object.__new__(Trail)
        route.entries, route.disabled, route.routes, route.dead, route.name, route.lemmas = (
            self.entries, self.disabled, self.routes, self.dead, name, self.lemmas)
        return route

    def lemma(self, fn: Callable[[], object]):
        """`fn()`, derived once per lemma book and then read from it.  `fn` is
        a module-level function with no parameters that fires nothing and
        reads no disabled set, so its value is the same for every candidate
        that shares the book, under every toggle set."""
        book = self.lemmas
        if book is None:
            raise TypeError(f"a trail with no lemma book cannot read {fn.__name__}")
        try:
            return book[fn]
        except KeyError:
            value = book[fn] = fn()
            return value

    def fire(self, form_id: str, *fields) -> bool:
        """Record an arithmetic firing, its fields tuple as it came and its
        outcome as the form decides it; a failure kills the route fired on.
        Returns the decision, also for a disabled rule, which records nothing
        and kills nothing: a site steers its route by the decision either way."""
        rule_id, _, decide, _ = FORMS[form_id]
        decided = decide(*fields)
        if rule_id not in self.disabled:
            # tuple.__new__ skips the generated __new__: this runs ~10^5 times a sweep
            self.entries.append(tuple.__new__(TrailEntry, (
                rule_id, "pass" if decided else "fail", form_id, fields, self.name)))
            if not decided:
                self.dead[self.name] = True
        return decided

    def exclude(self, form_id: str, *fields) -> None:
        """Record an axiom failure; it kills the route fired on, on an axiom
        unless an arithmetic rule has already."""
        form = FORMS[form_id]
        if form.rule_id not in self.disabled:
            self.entries.append(tuple.__new__(TrailEntry, (form.rule_id, "fail", form_id, fields,
                                                           self.name)))
            self.dead.setdefault(self.name, False)

    def hypothesis(self, form_id: str, *fields) -> bool:
        """Record an axiom hypothesis; returns False when disabled."""
        form = FORMS[form_id]
        if form.rule_id in self.disabled:
            return False
        self.entries.append(tuple.__new__(TrailEntry, (form.rule_id, "hypothesis", form_id,
                                                       fields, self.name)))
        return True

    def witness(self, unresolved: bool = False) -> None:
        """Mark this route as realizing its candidate, its existence `unresolved` or not."""
        self.routes[self.name] = unresolved

    def verdict(self, candidate: object, witnesses: tuple[str, ...] = ()) -> Verdict:
        """The status of the judged candidate, derived from the routes its
        failures killed.

        A live route gives SURVIVES, naming `witnesses` when a live route is
        marked by `witness` (with no routes opened the trail counts as
        marked), unresolved when a live marked route is.  When every route is
        dead the status is ELIMINATED if each route died on an arithmetic rule,
        and AXIOM-ELIMINATED otherwise.
        """
        trail = tuple(self.entries)
        dead = self.dead
        # tuple.__new__ skips the generated __new__, as in fire: ~3.5*10^4
        # verdicts a sweep, and the component filter's survivors take this exit
        if not dead and not self.routes:
            return tuple.__new__(Verdict, (candidate, SURVIVES, trail, tuple(witnesses), False))
        routes = self.routes or _SOLE_ROUTE
        if None not in dead:  # plain loops: cheaper than comprehensions on this hot path
            live, marked, unresolved = False, False, False
            for route, flag in routes.items():
                if route not in dead:
                    live = True
                    if flag is not None:
                        marked = True
                        unresolved = unresolved or flag
            if live:
                return tuple.__new__(Verdict, (candidate, SURVIVES, trail,
                                               tuple(witnesses) if marked else (), unresolved))
        if not dead.get(None):
            for route in routes:
                if not dead.get(route):  # live, or killed by axioms only
                    return tuple.__new__(Verdict, (candidate, AXIOM_ELIMINATED,
                                                   trail, (), False))
        return tuple.__new__(Verdict, (candidate, ELIMINATED, trail, (), False))


def _fields(value, n: int | None = None, optional: tuple[int, ...] = ()) -> list:
    """`value` itself when it is a list of n (or, n None, any number of) exact
    ints, no bools, None allowed at the `optional` positions; else TypeError."""
    if type(value) is list and (n is None or len(value) == n):
        for i, v in enumerate(value):  # a plain loop: the audit decodes ~200 classes a pass
            if type(v) is not int and (v is not None or i not in optional):
                break
        else:
            return value
    raise TypeError(f"{value!r} is not a list of {'' if n is None else f'{n} '}ints")


def _exact_int(value) -> int:
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an int")
    return value


def _decode_search(value) -> GenusSearch:
    """[hyperplane, degree, genus or None, bands, box], each band
    [ca, cb, lo or None, hi or None]."""
    if not (type(value) is list and len(value) == 5 and type(value[3]) is list):
        raise TypeError(f"{value!r} is not a genus search")
    hyperplane, degree, genus, bands, box = value
    _fields([degree, genus, box], 3, optional=(1,))
    return GenusSearch(decode(DivisorClass, hyperplane), degree, genus,
                       tuple(tuple(_fields(band, 4, optional=(2, 3))) for band in bands), box)


#: JSON encoder and decoder of each kernel value kind, the one home of their
#: shapes.  A decoder takes exact ints (no bools), the exact arity and None
#: only at a search's optional fields, or raises TypeError (ValueError for a
#: multidegree no threefold has).  `encode` writes ints, lists and tuples
#: inline, a record such as `DivisorClass` or `GenusSearch` as its fields in
#: order; a `CicyContext`, the one kind that is no tuple, as its multidegree.
_CODECS = {
    int: (None, _exact_int),
    list: (None, _fields),
    DivisorClass: (None, lambda v: DivisorClass(*_fields(v, 2))),
    RuledSurface: (None, lambda v: RuledSurface(*_fields(v, 2))),
    CicyContext: (lambda ctx: list(ctx.multidegree), lambda v: CicyContext(_fields(v))),
    GenusSearch: (None, _decode_search),
}


def encode(value):
    """JSON form of a kernel argument or value; tuples become lists."""
    if type(value) is int or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [v if type(v) is int else encode(v) for v in value]
    return _CODECS[type(value)][0](value)


def decode(kind: type, value):
    """Rebuild a kernel argument of the given kind from its JSON form."""
    return _CODECS[kind][1](value)


def exactly_equal(a, b) -> bool:
    """Whether two JSON values are equal with equal types all the way down:
    `false` is not 0 and 15.0 is not 15."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(exactly_equal, a, b))
    return a == b


_int = int.__repr__  # the stdlib encoder's int text: plain digits for int subclasses too


def json_text(value) -> str:
    """Exactly the text of `json.dumps(value, indent=2)` with its defaults:
    ASCII output, separators `,` and `": "`, keys in insertion order.

    CPython runs an indented dump on its pure-Python encoder; this one pass,
    with inline paths for exact str and int values and the C string escaper,
    writes the same bytes.  Tuples are lists; str, int, bool and None keys
    and subclasses of str, int, list and dict go as in the stdlib.  Anything
    else, float included, raises TypeError.
    """
    parts = []
    _write(value, parts.append, "\n")
    return "".join(parts)


def _write(o, append, newline: str) -> None:
    """Append the text of `o`; `newline` starts each line at its depth."""
    if isinstance(o, dict):
        if not o:
            append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in o.items():
            k = _escape(k) if type(k) is str else _key(k)
            t = type(v)
            if t is str:
                append(f"{sep}{k}: {_escape(v)}")
            elif t is int:
                append(f"{sep}{k}: {_int(v)}")
            else:
                append(f"{sep}{k}: ")
                _write(v, append, inner)
            sep = "," + inner
        append(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in o:
            t = type(v)
            if t is str:
                append(sep + _escape(v))
            elif t is int:
                append(sep + _int(v))
            else:
                append(sep)
                _write(v, append, inner)
            sep = "," + inner
        append(newline + "]")
    else:
        append(_scalar(o))


def _scalar(o) -> str:
    if isinstance(o, str):
        return _escape(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _key(k) -> str:
    if isinstance(k, str):
        return _escape(k)
    if k is None or isinstance(k, int):
        return f'"{_scalar(k)}"'
    raise TypeError(f"keys must be str, int, bool or None, not {type(k).__name__}")


def record(fn, *args) -> tuple[object, KernelCall]:
    """Call a kernel function; return its value for the rule to use and the
    frozen record of this very call.  `fn` comes from the caller's module.
    Nothing is encoded here: `payload` does that when a record is read.

    Only the kernels of `_LIST_OPS` take a list, so only their list
    arguments are kept as tuples; every other record keeps its arguments as
    passed.  The op is named by `fn.__name__`, which a `functools.wraps`
    wrapper keeps."""
    value = fn(*args)
    op = fn.__name__
    if op in _LIST_OPS:
        args = tuple([tuple(a) if type(a) is list else a for a in args])
    # tuple.__new__ skips the generated __new__: ~2.8*10^4 records a sweep
    return value, tuple.__new__(KernelCall, (
        op, args, tuple(value) if type(value) is list else value))


def payload(call: KernelCall) -> dict:
    """The JSON form of a recorded call, as reports hold it and the audit
    replays it: `{"op", "args", "result"}`, tuples written as lists."""
    op, args, result = call
    return {"op": op, "args": encode(args), "result": encode(result)}


#: Every kernel operation a rule records, by name: its module and the kind of
#: each argument, read from the kernel's annotations (a `list[int]` is a list).
#: Replay looks the function up on the module, so a wrapper installed there sees it.
KERNEL_OPS: dict[str, tuple] = {
    name: (module, *[get_origin(kind) or kind for arg, kind
                     in get_type_hints(getattr(module, name)).items() if arg != "return"])
    for module, names in ((bounds, "castelnuovo_pi pi_one plane_genus ci_curve_invariants "
                                   "union_genus liaison_solve"),
                          (ruled, "adjunction_genus eliminate_by_genus"),
                          (chow, "chern_of_extension chern_from_resolution max_rank_no_trivial"))
    for name in names.split()
}

#: The ops with a `list` argument kind, the only records `record` converts.
_LIST_OPS = frozenset(op for op, (_, *kinds) in KERNEL_OPS.items() if list in kinds)


def _replay(check: dict):
    """Recompute one check payload; raises when it cannot be replayed.  An exact
    int for an int skips its decoder, a call that would cost ~10 % of the audit."""
    module, *kinds = KERNEL_OPS[check["op"]]
    args = check["args"]
    if len(args) > len(kinds):
        raise TypeError(f"{len(args)} arguments, at most {len(kinds)} expected")
    decoded = []
    for kind, arg in zip(kinds, args):
        decoded.append(arg if type(arg) is int and kind is int else decode(kind, arg))
    return encode(getattr(module, check["op"])(*decoded))


def audit_verdicts(verdicts: list[Verdict]) -> list[str]:
    """Re-derive every arithmetic outcome and replay every recorded kernel
    computation; return mismatch descriptions.

    An empty list certifies two things of the verdict trails.  Each
    arithmetic firing's outcome is the one its form decides from the recorded
    fields.  Each value the kernel computed is reproducible by rerunning the
    cited kernel operation, equal with equal types.  A recorded call is
    replayed in its `payload` form, the form a saved report holds; a payload
    dict is replayed as it is.  A form that is not its rule's corpus form, a
    field count its form does not name, a raising decision, an unknown op,
    arguments that do not decode, a raising kernel, a `checks` field that is
    not a list and a check that is neither are mismatches too.
    """
    mismatches = []
    for verdict in verdicts:
        for rule_id, outcome, form_id, fields, _ in verdict.trail:
            form = FORMS.get(form_id)
            if form is None or form.rule_id != rule_id:
                mismatches.append(f"{rule_id}: fired {form_id!r}, not a form of its rule")
                continue
            _, names, decide, at = form
            if len(fields) != len(names):
                mismatches.append(f"{form_id}: {len(fields)} fields for {len(names)} names")
                continue
            if decide is not None:  # an arithmetic rule's form
                try:
                    decided = "pass" if decide(*fields) else "fail"
                except (AttributeError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
                    decided = f"no outcome: {type(exc).__name__}: {exc}"
                if decided != outcome:
                    mismatches.append(
                        f"{form_id}: recorded {outcome}, its decision gives {decided}")
            if at is None:
                continue
            checks = fields[at]
            if not isinstance(checks, (list, tuple)):
                mismatches.append(f"{rule_id}/checks: cannot replay: "
                                  f"{type(checks).__name__} {checks!r} is not a list")
                continue
            for check in checks:
                if type(check) is KernelCall:
                    check = payload(check)
                elif not isinstance(check, dict):
                    mismatches.append(f"{rule_id}/{check!r}: cannot replay: "
                                      f"{type(check).__name__} is not a kernel call or payload")
                    continue
                try:
                    recomputed = _replay(check)
                except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
                    problem = f"cannot replay: {type(exc).__name__}: {exc}"
                else:
                    result = check.get("result")  # equal types too: false is no 0
                    if result == recomputed and (type(result) is type(recomputed) is int
                                                 or exactly_equal(recomputed, result)):
                        continue  # a match formats no text
                    problem = f"recorded {result!r}, recomputed {recomputed!r}"
                mismatches.append(f"{rule_id}/{check.get('op')}{check.get('args')}: {problem}")
    return mismatches
