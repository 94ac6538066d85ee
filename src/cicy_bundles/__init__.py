"""Exact-arithmetic engine for globally generated bundles of low first Chern
class on the five complete-intersection Calabi-Yau threefolds.

The package recomputes, with exact rational arithmetic, every Chern class,
Euler characteristic, genus bound and integer case-elimination entering the
classification of such bundles, and reproduces the admissible (c1, c2) sets
from a rule pipeline whose arithmetic steps are computed, not transcribed.

Importing the package loads no submodule.  The first access to an exported
name imports the submodule that defines it (PEP 562), so a process pays only
for the modules it uses.
"""

import importlib as _importlib

__version__ = "0.1.0"

#: Each exported name, mapped to the submodule that defines it.
_EXPORTS: dict[str, str] = {
    name: module
    for module, names in (
        ("bounds", "LiaisonError UnsupportedBoundError castelnuovo_pi ci_curve_invariants "
                   "liaison_solve max_curve_degree pi_one plane_genus union_genus"),
        ("chow", "ALL_CONTEXTS QUINTIC X24 X33 X223 X2222 BundleInvariants CicyContext "
                 "NotInvertibleError TruncatedClass chern_from_resolution chern_of_extension "
                 "chi_rank2 context_from_label h0_line_bundle max_rank_no_trivial ring_invert "
                 "ring_mul twist_rank2"),
        ("classifier", "HIGHER_RANK RANK2 ClassificationResult UnsupportedClassificationError "
                       "classify enumerate_candidates judge_candidate rule_report"),
        ("constructions", "REGISTRY CurveCandidate CurveComponent ParityError "
                          "component_admissible incidence_dimension_check registry_names "
                          "required_genus serialize_registry validate_all "
                          "validate_construction"),
        ("ruled", "DivisorClass GenusSearch RuledSurface SearchNotFiniteError adjunction_genus "
                  "canonical_class disjointness_obstruction eliminate_by_genus "
                  "embedding_degree genus_quadratic intersect"),
        ("verdicts", "Rule RuleKind Status Verdict audit_verdicts"),
    )
    for name in names.split()
}

_SUBMODULES = ("bounds", "chow", "classifier", "constructions", "ruled", "verdicts")

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
