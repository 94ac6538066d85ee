"""Exact-arithmetic engine for globally generated bundles of low first Chern
class on the five complete-intersection Calabi-Yau threefolds.

The package recomputes, with exact rational arithmetic, every Chern class,
Euler characteristic, genus bound and integer case-elimination entering the
classification of such bundles, and reproduces the admissible (c1, c2) sets
from a rule pipeline whose arithmetic steps are computed, not transcribed.
"""

from .bounds import (
    UnsupportedBoundError,
    castelnuovo_pi,
    ci_curve_invariants,
    max_curve_degree,
    pi_one,
    plane_genus,
)
from .chow import (
    ALL_CONTEXTS,
    QUINTIC,
    X24,
    X33,
    X223,
    X2222,
    BundleInvariants,
    CicyContext,
    NotInvertibleError,
    TruncatedClass,
    chern_from_resolution,
    chern_of_extension,
    chi_rank2,
    context_from_label,
    h0_line_bundle,
    max_rank_no_trivial,
    ring_invert,
    ring_mul,
    twist_rank2,
)
from .classifier import (
    HIGHER_RANK,
    RANK2,
    ClassificationResult,
    UnsupportedClassificationError,
    audit_verdicts,
    classify,
    enumerate_candidates,
    judge_candidate,
    rule_report,
)
from .constructions import (
    REGISTRY,
    CurveCandidate,
    CurveComponent,
    LiaisonError,
    ParityError,
    component_admissible,
    incidence_dimension_check,
    liaison_solve,
    registry_names,
    required_genus,
    serialize_registry,
    union_genus,
    validate_all,
    validate_construction,
)
from .ruled import (
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
from .verdicts import Rule, RuleKind, Status, Verdict

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
