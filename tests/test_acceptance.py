"""Acceptance suite: one test per criterion, each running the verify checks
mapped to it (zero tolerance) and printing one pass line.

``verify.CHECKS`` is the one home of the anchor values; every check belongs
to exactly one entry of CRITERIA, so a pytest pass runs each check once.
The module corpora hold the checks that no numbered criterion names.
"""

from collections import Counter

import pytest

from cicy_bundles import verify

CRITERIA: dict[str, list[str]] = {
    "1": ["chi-hyperplane-oracle", "chi-trivial-zero", "chi-twisted-pair"],
    "2": ["castelnuovo-anchors", "castelnuovo-ranges", "pi-one"],
    "3": ["f1-elimination", "f3-elimination", "adjunction-28-40", "ruled-38",
          "ruled-58", "ruled-e2q20"],
    "4": ["resolution-chern", "max-rank"],
    "5": ["quintic-rank2-pairs", "quintic-higher-rank", "x24-classification",
          "x33-classification"],
    "6": ["liaison-18-two-routes", "registry-serialization"],
    "7": ["incidence-dimensions"],
    "8a": ["ring-inverse-roundtrip-1000"],
    "8b": ["intersection-anchors", "canonical-classes", "adjunction-anchors",
           "embedding-degrees"],
    "8c": ["f0-conic"],
    "8d": ["twist-examples"],
    "8e": ["determinism"],
    "8f": ["axiom-toggle-monotone"],
    "8g": ["no-hidden-eliminations"],
    "8h": ["trail-audit"],
    "chow": ["ring-examples", "resolution-additivity", "extension-chern", "h0-values"],
    "bounds": ["castelnuovo-monotone", "plane-genus", "ci-invariants", "max-curve-degree"],
    "ruled": ["disjointness"],
    "constructions": ["required-genus", "union-genus"],
    "classifier": ["trivial-regime", "component-examples", "candidate-examples",
                   "unsupported-regimes"],
    "registry": [name for mod, name, _ in verify.CHECKS if mod == "registry"],
}

MODULES = ["chow", "bounds", "ruled", "constructions", "classifier", "registry"]
CHECKS = {name: fn for _, name, fn in verify.CHECKS}


@pytest.fixture(autouse=True)
def clear_paper_results():
    # the checks run here outside a verify pass, so each fills verify._paper;
    # clearing it after every test leaves no result for a later test to read
    yield
    verify._paper.cache_clear()


def run_criterion(key: str) -> None:
    details = [CHECKS[name]() for name in CRITERIA[key]]
    print(f"PASS criterion {key}: " + "; ".join(details))


def test_every_check_in_exactly_one_criterion():
    listed = Counter(name for names in CRITERIA.values() for name in names)
    assert len(CHECKS) == len(verify.CHECKS), "verify check names must be unique"
    assert sorted(set(listed) - set(CHECKS)) == [], "criteria name missing checks"
    assert sorted(set(CHECKS) - set(listed)) == [], "checks in no criterion"
    assert sorted(name for name, n in listed.items() if n > 1) == [], \
        "checks in two criteria"
    module_of = {name: mod for mod, name, _ in verify.CHECKS}
    assert all(module_of[name] == mod for mod in MODULES for name in CRITERIA[mod])


def test_criterion_1_euler_characteristic_oracle():
    run_criterion("1")


def test_criterion_2_castelnuovo_anchors():
    run_criterion("2")


def test_criterion_3_hirzebruch_and_ruled_eliminations():
    run_criterion("3")


def test_criterion_4_resolution_shapes():
    run_criterion("4")


def test_criterion_5_headline_classification():
    run_criterion("5")


def test_criterion_6_construction_registry():
    run_criterion("6")


def test_criterion_7_dimension_counts():
    run_criterion("7")


def test_criterion_8a_ring_inverse_1000():
    run_criterion("8a")


def test_criterion_8b_bilinearity_1000():
    # the 1000-class symmetry and bilinearity sweep is test_ruled's
    run_criterion("8b")


def test_criterion_8c_search_matches_scan_50():
    # the search-against-scan oracle is test_ruled's TestEliminations
    run_criterion("8c")


def test_criterion_8d_twist_roundtrip():
    run_criterion("8d")


def test_criterion_8e_determinism():
    run_criterion("8e")


def test_criterion_8f_axiom_toggle_monotone():
    run_criterion("8f")


def test_criterion_8g_no_hidden_eliminations():
    run_criterion("8g")


def test_criterion_8h_rule_audit():
    run_criterion("8h")


@pytest.mark.parametrize("module", MODULES)
def test_verification_corpus(module):
    run_criterion(module)
