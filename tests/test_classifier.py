import ast
import copy
import dataclasses
import gc
import hashlib
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cicy_bundles
from cicy_bundles import (
    QUINTIC,
    X24,
    X33,
    X223,
    X2222,
    REGISTRY,
    CicyContext,
    CurveCandidate,
    CurveComponent,
    Status,
    UnsupportedClassificationError,
    audit_verdicts,
    classify,
    classifier,
    component_admissible,
    enumerate_candidates,
    judge_candidate,
    max_curve_degree,
    required_genus,
    rule_report,
    verify,
)
from cicy_bundles.classifier import HIGHER_RANK, RANK2, report_json, report_markdown
from cicy_bundles.constructions import witnesses_for
from cicy_bundles.ruled import (DivisorClass, GenusSearch, RuledSurface, eliminate_by_genus,
                                genus_quadratic)
from cicy_bundles.verdicts import (FORMS, KERNEL_OPS, RULES, FrozenDict, KernelCall,
                                   RuleKind, Trail, TrailEntry, Verdict, decode, payload, record)
from cicy_bundles.verify import PAPER_CASES


def sweep_toggles(regime):
    """No toggle, each axiom alone and, at rank 2, each pair of axioms."""
    axioms = sorted(r.id for r in RULES.values() if r.kind is RuleKind.AXIOM)
    toggles = [frozenset(), *map(frozenset, itertools.combinations(axioms, 1))]
    if regime == RANK2:
        toggles += map(frozenset, itertools.combinations(axioms, 2))
    return toggles


def cand(*triples):
    return CurveCandidate(tuple(CurveComponent(*t) for t in triples))


def flip(monkeypatch, rule_id):
    """Negate the decision of every form of an arithmetic rule."""
    for form_id, form in list(FORMS.items()):
        if form.rule_id == rule_id:
            monkeypatch.setitem(FORMS, form_id, form._replace(
                decide=lambda *fields, decide=form.decide: not decide(*fields)))


def checked(checks):
    """A passing R-genus-bound firing that carries these checks."""
    return TrailEntry("R-genus-bound", "pass", "R-genus-bound/bound", (7, 3, 4, 3, checks))


def verdict_for(candidate, ctx, c1=2):
    return judge_candidate(candidate, ctx, c1)


#: The forms that fire only on input the axiom-toggle sweeps never produce, by
#: the module and function of their one call site.
GUARDS = {("classifier.py", "judge_candidate", "R-degree-cap/curve"),
          ("constructions.py", "component_admissible", "R-degree-cap/component"),
          ("constructions.py", "component_admissible", "R-regime-genus"),
          ("classifier.py", "_judge_x24_nondeg", "R-x24-si-degree/span")}

#: The site that closes the quintic's plane-and-space-curve shape: only a
#: disabled R-span3-cap or R-genus-bound lets a span-3 component reach it.
TOGGLED = {("classifier.py", "_judge_quintic_nondeg", "A-quadric-plane")}

#: Public calls past the axiom-toggle sweeps' range, each with the rule it must
#: fail: candidates over the degree cap (5 on the quintic at twist one, 33 on
#: 3,3), a component of the wrong genus and one over the cap 29 on 2,4, and a
#: span-4 component of degree 8 beside a section on 2,4, which a disabled
#: R-genus-bound lets the enumeration reach.
OUT_OF_RANGE = (
    (judge_candidate, "R-degree-cap", (cand((12, 7, 3)), QUINTIC, 1)),
    (judge_candidate, "R-degree-cap", (cand((36, 37, 5)), X33, 2)),
    (component_admissible, "R-regime-genus", (CurveComponent(8, 5, 3), X24, 2)),
    (component_admissible, "R-degree-cap", (CurveComponent(30, 31, 5), X24, 2)),
    (judge_candidate, "R-x24-si-degree", (cand((8, 9, 4), (9, 10, 3)), X24, 2)),
)


@pytest.fixture(scope="module")
def rule_toggles():
    """Each paper case with its base result and the result of disabling each
    rule alone, by rule id, from one sweep.  R-genus-bound is left out on 2,4
    and 3,3, where it leaves 10^7-10^8 candidates to judge."""
    cases = []
    for ctx, regime in PAPER_CASES:
        base = classify(ctx, 2, regime)
        rule_ids = [r for r in RULES if r != "R-genus-bound" or ctx is QUINTIC]
        results = classifier.toggle_sweep(base, [frozenset({r}) for r in rule_ids])
        cases.append((ctx, regime, base, dict(zip(rule_ids, results))))
    return cases


def by_candidate(result):
    """Each verdict of a result by its twist level's c1, or "component", or
    "shape" for a higher-rank shape, and its label."""
    verdicts = {("shape", v.label): v for v in result.shapes}
    for level in result.levels:
        verdicts.update(((level.c1, v.label), v) for v in level.verdicts)
        verdicts.update((("component", v.label), v) for v in level.component_verdicts)
    return verdicts


class TestEnumeration:
    def test_classify_filters_components_once_per_c1(self, monkeypatch):
        calls = []
        original = classifier.admissible_components

        def counted(ctx, c1, disabled=frozenset()):
            calls.append(c1)
            return original(ctx, c1, disabled)

        monkeypatch.setattr(classifier, "admissible_components", counted)
        for ctx in (QUINTIC, X24, X33):
            calls.clear()
            classify(ctx, 2)
            assert calls == [1, 2]

    @pytest.mark.parametrize("ctx", [QUINTIC, X24, X33], ids=lambda ctx: ctx.label())
    def test_report_order_matches_brute_force(self, ctx):
        # the one-pass walk against every multiset within the cap, sorted into
        # report order, for the survivors of the base and of each single axiom
        # toggle (the toggle lists of the higher-rank sweep), in any input order
        shuffled = random.Random(12).sample
        for c1 in (1, 2):
            cap = max_curve_degree(ctx, c1, 2)
            for disabled in sweep_toggles(HIGHER_RANK):
                components = [v.candidate for v in
                              classifier.admissible_components(ctx, c1, disabled) if v.survives]
                ordered = sorted(components)
                fits = [CurveCandidate(ms) for k in range(1, cap + 1)
                        if ordered and k * ordered[0].d <= cap
                        for ms in itertools.combinations_with_replacement(ordered, k)
                        if sum(comp.d for comp in ms) <= cap]
                expected = sorted([CurveCandidate(()), *fits],
                                  key=lambda c: (len(c.components), c.triples()))
                for given in (components, shuffled(components, len(components))):
                    assert enumerate_candidates(given, cap) == expected, sorted(disabled)

    def test_classify_builds_each_candidate_once(self, monkeypatch):
        # every candidate comes from the one constructor: a cold call builds
        # each candidate it judges once, and a warm call builds none
        runs = []
        post_init = CurveCandidate.__post_init__

        def counted(candidate):
            runs.append(candidate.components)
            post_init(candidate)

        monkeypatch.setattr(CurveCandidate, "__post_init__", counted)
        classifier._level_candidates.cache_clear()
        result = classify(X33, 2)
        assert len(result.verdicts) == 184
        assert runs == [v.candidate.components for v in result.verdicts]
        runs.clear()
        classify(X33, 2)
        assert runs == []

    def test_calls_leave_no_reference_cycles(self):
        # what these calls build is freed by reference counting alone: the
        # cyclic collector finds nothing after any of them
        def cold_classify():
            classifier._level_candidates.cache_clear()
            classify(X33, 2)

        def report_path():
            result = classify(X24, 2)
            report = result.report()
            report_json(report)
            report_markdown(report)
            audit_verdicts(result.verdicts + result.component_verdicts)

        calls = {
            "cold classify 3,3": cold_classify,
            "higher-rank classify": lambda: classify(QUINTIC, 2, HIGHER_RANK),
            "2,4 report path": report_path,
            "toggle sweep": lambda: classifier.toggle_sweep(classify(X33, 2),
                                                           sweep_toggles(HIGHER_RANK)),
        }
        gc.collect()
        gc.disable()
        try:
            for name, call in calls.items():
                call()
                assert gc.collect() == 0, name
        finally:
            gc.enable()


class TestCandidateCache:
    def test_cached_candidates_equal_a_fresh_enumeration(self):
        # every survivor set met under the base, the single and the pair
        # axiom toggles: the cached candidates, order included, and room for
        # all of them in the cache
        met = set()
        for ctx in (QUINTIC, X24, X33):
            for c1 in (1, 2):
                cap = max_curve_degree(ctx, c1, 2)
                for disabled in sweep_toggles(RANK2):
                    components = [v.candidate for v in
                                  classifier.admissible_components(ctx, c1, disabled)
                                  if v.survives]
                    met.add((tuple(components), cap))
        for survivors, cap in met:
            fresh = tuple(enumerate_candidates(list(survivors), cap))
            for _ in range(2):  # a miss, then a hit
                cached = classifier._level_candidates(survivors, cap)
                assert type(cached) is tuple and cached == fresh
        assert len(met) <= classifier._level_candidates.cache_parameters()["maxsize"]

    def test_reports_identical_cold_and_warm(self):
        # the four paper reports and every single-toggle report, built with the
        # cache cleared before each call and again with it warm
        axioms = sorted(r.id for r in RULES.values() if r.kind is RuleKind.AXIOM)
        toggles = [frozenset(), *(frozenset({a}) for a in axioms)]

        def texts(cold):
            out = []
            for ctx, regime in PAPER_CASES:
                for disabled in toggles:
                    if cold:
                        classifier._level_candidates.cache_clear()
                    out.append(report_json(classify(ctx, 2, regime, disabled).report()))
            return out

        cold, warm = texts(True), texts(False)
        assert len(cold) == 4 + 108 and cold == warm
        pins = list(verify.REPORT_SHA256.values())
        for side in (cold, warm):
            assert [hashlib.sha256(t.encode()).hexdigest()
                    for t in side[::len(toggles)]] == pins

    def test_cache_holds_at_most_its_bound(self):
        bound = classifier._level_candidates.cache_parameters()["maxsize"]
        for d in range(1, bound + 11):
            classifier._level_candidates((CurveComponent(d, 0, 2),), d)
        assert classifier._level_candidates.cache_info().currsize <= bound


class TestQuinticVerdicts:
    def test_plane_pair_survives(self):
        v = verdict_for(cand((5, 6, 2), (5, 6, 2)), QUINTIC)
        assert v.status is Status.SURVIVES
        assert "quintic-two-plane-quintics" in v.witnesses
        assert "pullback-null-correlation" in v.witnesses

    def test_single_quintic_is_the_split_pair(self):
        v = verdict_for(cand((5, 6, 2)), QUINTIC)
        assert v.status is Status.SURVIVES
        assert v.witnesses == ("hyperplane-pair-split",)

    def test_three_planes_axiom_eliminated(self):
        v = verdict_for(cand((5, 6, 2), (5, 6, 2), (5, 6, 2)), QUINTIC)
        assert v.status is Status.AXIOM_ELIMINATED

    def test_scroll_candidate_eliminated_arithmetically(self):
        v = verdict_for(cand((15, 16, 4)), QUINTIC)
        assert v.status is Status.ELIMINATED
        fails = {e.rule_id for e in v.trail if e.outcome == "fail"}
        assert {"R-hirzebruch-F1", "R-hirzebruch-F3"} <= fails

    def test_other_span4_die_on_multiplicity(self):
        for d in (11, 12, 13, 14, 16, 17):
            v = verdict_for(cand((d, d + 1, 4)), QUINTIC)
            assert v.status is Status.ELIMINATED, d
            assert any(e.rule_id == "R-mu-d" and e.outcome == "fail"
                       for e in v.trail)

    def test_over_cap_twist_one_is_eliminated(self):
        # a failure fired on the trail itself kills every route, also on 3,3
        # past the degree cap 33, where no route of the case tree dies first
        for judge, rule_id, args in OUT_OF_RANGE:
            v = judge(*args)
            assert (rule_id, "fail") in {(e.rule_id, e.outcome) for e in v.trail}, args
            assert v.status is Status.ELIMINATED, args

    def test_mixed_pair_fails_budget(self):
        v = verdict_for(cand((5, 6, 2), (11, 12, 4)), QUINTIC)
        assert v.status is Status.ELIMINATED
        assert any(e.rule_id == "R-surface-budget" and e.outcome == "fail"
                   for e in v.trail)


class TestX24Verdicts:
    def test_section_pair_survives_unresolved(self):
        v = verdict_for(cand((8, 9, 3), (8, 9, 3)), X24)
        assert v.status is Status.SURVIVES
        assert v.unresolved
        assert "b1-two-linear-sections" in v.witnesses

    def test_four_quadric_curve_survives(self):
        v = verdict_for(cand((16, 17, 5)), X24)
        assert v.status is Status.SURVIVES
        assert "b2-four-quadrics" in v.witnesses

    def test_extension_curve_survives(self):
        v = verdict_for(cand((11, 12, 4)), X24)
        assert v.status is Status.SURVIVES
        assert v.witnesses == ("plane-cubic-extension",)

    def test_wrong_residual_dies(self):
        for d in (12, 13, 14, 15, 16):
            v = verdict_for(cand((d, d + 1, 4)), X24)
            assert v.status is Status.ELIMINATED, d

    def test_three_sections_axiom_eliminated(self):
        v = verdict_for(cand((8, 9, 3), (8, 9, 3), (8, 9, 3)), X24)
        assert v.status is Status.AXIOM_ELIMINATED

    def test_span5_companion_dies(self):
        v = verdict_for(cand((8, 9, 3), (14, 15, 5)), X24)
        assert v.status is Status.ELIMINATED

    def test_surface_degrees_5_6_7_are_axiom_routes(self):
        for d in (20, 24, 28):
            v = verdict_for(cand((d, d + 1, 5)), X24)
            assert v.status is Status.AXIOM_ELIMINATED, d

    def test_nonmultiples_of_four_die_arithmetically(self):
        for d in (17, 18, 19, 21, 22, 23, 25, 26, 27, 29):
            v = verdict_for(cand((d, d + 1, 5)), X24)
            assert v.status is Status.ELIMINATED, d

    def test_extremal_pair_is_built_from_the_recorded_floor(self):
        # the decision accepts two sections of the recorded floor degree and
        # their twist-two genus, and nothing typed for 2,4 alone
        decide = FORMS["R-x24-extremal"].decide
        (entry,) = [e for e in verdict_for(cand((8, 9, 3), (8, 9, 3)), X24).trail
                    if e.rule_id == "R-x24-extremal"]
        assert entry.fields == (16, X24.u, "(8,9,3) + (8,9,3)") and entry.outcome == "pass"
        assert decide(18, 9, "(9,10,3) + (9,10,3)")
        assert not decide(16, 9, "(8,9,3) + (8,9,3)")
        assert not decide(16, 8, "(8,9,3) + (8,9,3) + (8,9,3)")


class TestX33Verdicts:
    def test_section_survives(self):
        v = verdict_for(cand((9, 10, 3)), X33)
        assert v.status is Status.SURVIVES
        assert v.witnesses == ("hyperplane-pair-split",)

    def test_delpezzo_cut_survives(self):
        v = verdict_for(cand((15, 16, 5)), X33)
        assert v.status is Status.SURVIVES
        assert "b3-delpezzo5-cubic" in v.witnesses

    def test_linked_18_survives(self):
        v = verdict_for(cand((18, 19, 5)), X33)
        assert v.status is Status.SURVIVES
        assert "inc-linked-18" in v.witnesses
        assert any(e.rule_id == "R-liaison-18" and e.outcome == "pass"
                   for e in v.trail)

    def test_sixteen_survives_unresolved(self):
        v = verdict_for(cand((16, 17, 5)), X33)
        assert v.status is Status.SURVIVES
        assert v.unresolved

    def test_fourteen_dies_on_refined_bound(self):
        v = verdict_for(cand((14, 15, 5)), X33)
        assert v.status is Status.ELIMINATED
        assert any(e.rule_id == "R-pi1-cut" and e.outcome == "fail"
                   for e in v.trail)

    def test_seventeen_dies_with_38(self):
        v = verdict_for(cand((17, 18, 5)), X33)
        fails = {e.rule_id for e in v.trail if e.outcome == "fail"}
        assert "R-ruled-38" in fails

    def test_companion_16_dies_on_clifford_and_58(self):
        v = verdict_for(cand((9, 10, 3), (16, 17, 5)), X33)
        assert v.status is Status.ELIMINATED
        fails = {e.rule_id for e in v.trail if e.outcome == "fail"}
        assert {"R-ruled-58", "R-clifford"} <= fails

    def test_companion_18_dies_on_e2q20(self):
        v = verdict_for(cand((9, 10, 3), (18, 19, 5)), X33)
        assert v.status is Status.ELIMINATED
        assert any(e.rule_id == "R-ruled-e2q20" and e.outcome == "fail"
                   for e in v.trail)

    def test_tacnode_kill_for_11(self):
        v = verdict_for(cand((9, 10, 3), (11, 12, 4)), X33)
        assert v.status is Status.ELIMINATED
        assert any(e.rule_id == "R-union-genus" and e.outcome == "fail"
                   for e in v.trail)

    def test_three_sections_die(self):
        v = verdict_for(cand((9, 10, 3), (9, 10, 3), (9, 10, 3)), X33)
        assert v.status is Status.AXIOM_ELIMINATED

    def test_surface_budget(self):
        v = verdict_for(cand((14, 15, 5), (14, 15, 5)), X33)
        assert v.status is Status.ELIMINATED
        assert any(e.rule_id == "R-x33-surface-budget" and e.outcome == "fail"
                   for e in v.trail)


class TestClassify:
    def test_quintic_rank2_pairs(self):
        # rank-2 Chern data on the quintic is part of the higher-rank data
        rank2 = classify(QUINTIC, 2, RANK2)
        higher = classify(QUINTIC, 2, HIGHER_RANK)
        assert set(rank2.admissible_c2) <= set(higher.admissible_c2)

    def test_quintic_higher_rank(self):
        # each rank window is the one its registry resolution witness carries
        result = classify(QUINTIC, 2, HIGHER_RANK)
        assert set(result.rank_windows) <= set(result.admissible_c2)
        windows = {e.name: e.rank_window for e in REGISTRY if e.rank_window}
        for c2, window in result.rank_windows.items():
            assert window in {windows.get(name) for name in result.witnesses[c2]}

    @staticmethod
    def _aggregates(result):
        survivors = [v for v in result.verdicts if v.survives]
        degrees = {v.candidate.total_degree for v in survivors}
        assert result.admissible_c2 == tuple(sorted(degrees | {0}))
        assert set(result.unresolved) == {v.candidate.total_degree
                                          for v in survivors if v.unresolved}

    def test_x24(self):
        self._aggregates(classify(X24, 2, RANK2))

    def test_x33(self):
        self._aggregates(classify(X33, 2, RANK2))

    def test_witness_coverage(self):
        # every witness is a registry entry on the threefold with that c2
        for ctx, regime in PAPER_CASES:
            result = classify(ctx, 2, regime)
            for c2, names in result.witnesses.items():
                assert names, (ctx.label(), c2)
                for name in names:
                    assert any(e.name == name and e.threefold == ctx.multidegree
                               and e.c2 == c2 for e in REGISTRY), (ctx.label(), c2, name)

    @pytest.mark.parametrize("ctx", [QUINTIC, X24, X33, X223, X2222])
    def test_trivial(self, ctx):
        result = classify(ctx, 0, RANK2)
        # nothing is judged below twist one; only the trivial bundle is left
        assert result.verdicts == () and result.component_verdicts == ()
        assert tuple(sorted(result.witnesses)) == result.admissible_c2

    def test_c1_max_one(self):
        result = classify(X24, 1, RANK2)
        assert result.admissible_pairs == ((1, 0), (1, 4))

    def test_levels_hold_the_verdicts(self):
        # a rank-2 result keeps one level per c1, each opening with the empty
        # curve, and its verdicts are the levels' in order; a higher-rank
        # result keeps its shapes alone
        for ctx in (QUINTIC, X24, X33):
            for c1_max in (0, 1, 2):
                result = classify(ctx, c1_max)
                assert [level.c1 for level in result.levels] == list(range(1, c1_max + 1))
                assert result.shapes == ()
                assert all(level.verdicts[0].label == "empty" for level in result.levels)
                assert result.verdicts == tuple(
                    v for level in result.levels for v in level.verdicts)
                assert result.component_verdicts == tuple(
                    v for level in result.levels for v in level.component_verdicts)
        higher = classify(QUINTIC, 2, HIGHER_RANK)
        assert higher.levels == () and higher.component_verdicts == ()
        assert higher.verdicts == higher.shapes and len(higher.shapes) == 6

    def test_results_copy_and_pickle(self):
        # a result is a plain value: a deep copy and a pickle round trip give
        # an equal result with the same report bytes, whose mappings and
        # firing fields still refuse writes
        fields = 0
        for ctx, regime in PAPER_CASES:
            result = classify(ctx, 2, regime)
            text = report_json(result.report())
            for copied in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
                assert copied == result and copied is not result
                assert report_json(copied.report()) == text
                for mapping in (copied.witnesses, copied.rank_windows):
                    assert type(mapping) is FrozenDict
                    with pytest.raises(TypeError):
                        mapping[0] = ()
                for v in copied.verdicts + copied.component_verdicts:
                    for value in (f for e in v.trail for f in e.fields):
                        if isinstance(value, dict):
                            assert type(value) is FrozenDict
                            with pytest.raises(TypeError):
                                value["written"] = 0
                            fields += 1
        assert fields >= 6

    def test_unknown_regime(self):
        with pytest.raises(UnsupportedClassificationError, match="unknown rank regime 'rank3'"):
            classify(QUINTIC, 2, "rank3")

    def test_unsupported(self):
        with pytest.raises(UnsupportedClassificationError):
            classify(X2222, 1, RANK2)
        with pytest.raises(UnsupportedClassificationError):
            classify(X33, 2, HIGHER_RANK)

    def test_no_case_tree_for_a_nondegenerate_candidate(self):
        # a direct call reaches the dispatch past classify's regime check
        for ctx, component in ((X223, CurveComponent(18, 19, 6)),
                               (X2222, CurveComponent(20, 21, 7))):
            with pytest.raises(UnsupportedClassificationError,
                               match=f"^no rank-2 case tree for {ctx.label()}$"):
                judge_candidate(CurveCandidate((component,)), ctx, 2)


class TestToggles:
    def test_axiom_off_grows_survivors(self):
        # without A-spannedness-h0 the twist-one space curves below the section
        # degree are judged, and survive through A-plane-in-quadric unwitnessed
        off = frozenset({"A-spannedness-h0"})
        gained = {}
        for ctx in (X24, X33):
            base, toggled = classify(ctx, 2), classify(ctx, 2, disabled=off)
            gained[ctx.label()] = sorted(set(toggled.admissible_pairs)
                                         - set(base.admissible_pairs))
            for c1, c2 in gained[ctx.label()]:
                assert c2 not in toggled.witnesses
        assert gained == {"2,4": [(1, 6)], "3,3": [(1, 6), (1, 8)]}

    def test_higher_rank_toggles_only_grow(self):
        # verify's axiom-toggle-monotone check holds the survivor growth
        base = classify(QUINTIC, 2, HIGHER_RANK)
        axioms = sorted(r.id for r in RULES.values() if r.kind is RuleKind.AXIOM)
        assert len(axioms) == 27
        for axiom in axioms:
            toggled = classify(QUINTIC, 2, HIGHER_RANK, frozenset({axiom}))
            statuses = {v.candidate: v.status for v in toggled.verdicts}
            assert toggled.admissible_c2 == base.admissible_c2, axiom
            assert toggled.rank_windows == base.rank_windows, axiom
            if axiom == "A-scroll-spannedness":
                assert statuses["smooth-scroll curve of degree 15"] is Status.SURVIVES

    def test_toggle_sweep_is_exact(self, monkeypatch):
        # the sweep reuses each verdict whose trail cites no toggled axiom, and
        # the base result itself when no base verdict cites one; every result
        # must equal a full classification, verdict order and trails included,
        # no field may be mutable, every reuse and re-judging path is taken,
        # and the rules each base verdict cites are collected once
        paths, grown, cites = Counter(), set(), Counter()
        original = classifier._cites

        def counting(verdict):
            cites[id(verdict)] += 1
            return original(verdict)

        monkeypatch.setattr(classifier, "_cites", counting)
        for ctx, regime in PAPER_CASES:
            toggles = sweep_toggles(regime)
            base = classify(ctx, 2, regime)
            cites.clear()
            results = classifier.toggle_sweep(base, toggles)
            base_verdicts = base.verdicts + base.component_verdicts
            assert cites == Counter(id(v) for v in base_verdicts)
            mismatches = [sorted(disabled) for disabled, result in zip(toggles, results)
                          if result != classify(ctx, 2, regime, disabled)]
            assert (len(results), mismatches) == (len(toggles), [])
            # the enumeration meets the degree cap and the twist genus itself
            assert not {e.rule_id for r in results for v in r.verdicts + r.component_verdicts
                        for e in v.trail} & {"R-degree-cap", "R-regime-genus"}
            for r in results:
                for f in dataclasses.fields(r):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(r, f.name, None)
                for c in (r.admissible_c2, r.admissible_pairs, r.witnesses, r.unresolved,
                          r.rank_windows, r.verdicts, r.component_verdicts,
                          *r.witnesses.values(), *r.rank_windows.values()):
                    assert not hasattr(c, "append")
                    with pytest.raises(TypeError):
                        c[0] = None
            base_ids = {id(v) for v in base_verdicts}
            base_cands = {v.candidate for v in base.verdicts}
            for disabled, result in zip(toggles[1:], results[1:]):
                if result is base:
                    paths[f"{regime} base reused"] += 1
                    continue
                if regime == HIGHER_RANK:
                    paths["higher-rank recomputed"] += 1
                    continue
                paths.update("component re-judged" for v in result.component_verdicts
                             if id(v) not in base_ids)
                for v in result.verdicts:
                    if v.candidate not in base_cands:
                        paths["new candidate judged"] += 1
                        grown.add((ctx.label(), *sorted(disabled)))
                    else:
                        paths["candidate reused" if id(v) in base_ids
                              else "candidate re-judged"] += 1
        assert len(paths) == 7 and min(paths.values()) >= 1, paths
        assert {("2,4", "A-spannedness-h0"), ("3,3", "A-spannedness-h0")} <= grown

    def test_toggle_sweep_rejudges_only_citing_verdicts(self, monkeypatch):
        # under each single axiom toggle, the sweep judges again exactly the
        # base verdicts whose trails cite the axiom, level by level and in
        # order, and every candidate of a level where a component judged again
        # changes survival
        calls = []

        def counting(name, judge):
            def wrapper(candidate, ctx, c1, disabled=frozenset()):
                calls.append((name, c1, candidate))
                return judge(candidate, ctx, c1, disabled)
            return wrapper

        for name in ("component_admissible", "judge_candidate"):
            monkeypatch.setattr(classifier, name, counting(name, getattr(classifier, name)))
        axioms = sorted(r.id for r in RULES.values() if r.kind is RuleKind.AXIOM)
        paths = Counter()
        for ctx, regime in PAPER_CASES:
            base = classify(ctx, 2, regime)
            for axiom in axioms:
                calls.clear()
                (result,) = classifier.toggle_sweep(base, [frozenset({axiom})])
                expected = []
                for old, new in zip(base.levels, result.levels, strict=True):
                    comps = [i for i, v in enumerate(old.component_verdicts)
                             if axiom in {e.rule_id for e in v.trail}]
                    expected += [("component_admissible", old.c1,
                                  old.component_verdicts[i].candidate) for i in comps]
                    if all(old.component_verdicts[i].survives
                           == new.component_verdicts[i].survives for i in comps):
                        cands = [v for v in old.verdicts if axiom in {e.rule_id for e in v.trail}]
                        paths["citing candidates judged" if cands else "level reused"] += 1
                    else:
                        cands = new.verdicts
                        paths["every candidate judged"] += 1
                    expected += [("judge_candidate", old.c1, v.candidate) for v in cands]
                assert calls == expected, (ctx.label(), regime, axiom)
        assert set(paths) == {"citing candidates judged", "level reused",
                              "every candidate judged"}, paths

    def test_every_rule_site_fires(self, monkeypatch):
        # every fire, hypothesis and witness call site of the case tree runs in
        # the sweeps of test_toggle_sweep_is_exact: no judge branch is dead.
        # The out-of-range guards run on the public calls past the range instead
        fired = set()

        def recording(method):
            def wrapper(*args, **kwargs):
                frame = sys._getframe(1)
                while frame.f_code.co_filename.endswith("verdicts.py"):
                    frame = frame.f_back
                fired.add((Path(frame.f_code.co_filename).name, frame.f_lineno))
                return method(*args, **kwargs)
            return wrapper

        for cls, name in ((Trail, "fire"), (Trail, "exclude"), (Trail, "hypothesis"),
                          (Trail, "witness")):
            monkeypatch.setattr(cls, name, recording(getattr(cls, name)))
        for ctx, regime in PAPER_CASES:
            classifier.toggle_sweep(classify(ctx, 2, regime), sweep_toggles(regime))
        sites = {}  # (module, line) -> (innermost function, rule id)
        for module in ("classifier.py", "constructions.py"):
            tree = ast.parse((Path(cicy_bundles.__file__).parent / module).read_text(
                encoding="utf-8"))
            # breadth first: a nested function's calls are named after it
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("fire", "exclude", "hypothesis", "witness")):
                        form = node.args[0].value if node.args and isinstance(
                            node.args[0], ast.Constant) else None
                        sites[module, node.lineno] = (fn.name, form)
        guards = {site for site, (fn, form) in sites.items() if (site[0], fn, form) in GUARDS}
        toggled = {site for site, (fn, form) in sites.items() if (site[0], fn, form) in TOGGLED}
        assert (len(guards), len(toggled)) == (len(GUARDS), len(TOGGLED))
        assert sorted(sites.keys() - guards - toggled - fired) == []
        fired.clear()
        for judge, _, args in OUT_OF_RANGE:
            judge(*args)
        assert sorted(guards - fired) == []
        for rule_id in ("R-span3-cap", "R-genus-bound"):
            fired.clear()
            classify(QUINTIC, 2, disabled=frozenset({rule_id}))
            assert sorted(toggled - fired) == [], rule_id

    def test_disabled_arithmetic_rule_changes_only_verdicts_it_failed(self, rule_toggles):
        # a site steers by its firing's decision, also with the rule disabled,
        # so disabling a rule that passed or did not fire changes nothing
        changed = []
        for ctx, regime, base, toggled in rule_toggles:
            for rule_id, result in toggled.items():
                if RULES[rule_id].kind is not RuleKind.ARITHMETIC:
                    continue
                after = by_candidate(result)
                for key, v in by_candidate(base).items():
                    if ("fail", rule_id) in {(e.outcome, e.rule_id) for e in v.trail}:
                        continue
                    w = after.get(key)
                    if w is None or (w.status, w.witnesses, w.unresolved) != (
                            v.status, v.witnesses, v.unresolved):
                        changed.append((ctx.label(), regime, rule_id, key))
        assert changed == []

    def test_survivors_claim_only_their_own_witnesses(self, rule_toggles):
        # a surviving curve names no constructions or exactly those of its own
        # (c1, c2), under every single-rule toggle too
        wrong = []
        for ctx, regime, base, toggled in rule_toggles:
            if regime != RANK2:
                continue
            for rule_id, result in {"": base, **toggled}.items():
                for (c1, label), v in by_candidate(result).items():
                    if c1 == "component" or not v.survives or not v.candidate.components:
                        continue
                    own = witnesses_for(ctx.multidegree, c1, v.candidate.total_degree)
                    if v.witnesses not in ((), tuple(own)):
                        wrong.append((ctx.label(), rule_id, label, v.witnesses))
        assert wrong == []

    def test_unknown_rule_ids_are_refused(self):
        # a typo in a toggle set would disable nothing, and a str would be
        # matched by substring: both are refused before anything is judged
        base = classify(X33, 2)
        for bad, typo in ((frozenset({"A-no-such-axiom"}), "A-no-such-axiom"),
                          (frozenset({"A-no-plane", "R-typo"}), "R-typo")):
            with pytest.raises(ValueError, match=f"unknown rule ids: '{typo}'$"):
                classify(X33, 2, disabled=bad)
            with pytest.raises(ValueError, match=f"unknown rule ids: '{typo}'$"):
                classifier.toggle_sweep(base, [frozenset(), bad])
        for bad in ("A-no-plane", "A-"):
            with pytest.raises(ValueError, match="not the str"):
                classify(X33, 2, disabled=bad)
            with pytest.raises(ValueError, match="not the str"):
                classifier.toggle_sweep(base, [bad])
        assert classify(X33, 2, disabled=frozenset({"A-no-plane"})).verdicts

    def test_toggle_sweep_refuses_a_base_judged_without_rules(self):
        # a sweep derives each toggle set from its base: a base judged with
        # R-span3-cap off would hand its 468 verdicts to the empty toggle set,
        # where classify gives 184, so it is refused; the set is kept on the
        # result but not compared, so a rule that never fires changes no result
        base = classify(X33, 2, disabled=frozenset({"R-span3-cap"}))
        assert base.judged_without == {"R-span3-cap"}
        assert (len(base.verdicts), len(classify(X33, 2).verdicts)) == (468, 184)
        with pytest.raises(ValueError, match="nothing disabled, not without R-span3-cap$"):
            classifier.toggle_sweep(base, [frozenset()])
        unfired = classify(X33, 2, disabled=frozenset({"A-quadric-plane"}))
        assert unfired == classify(X33, 2)
        assert unfired.judged_without == {"A-quadric-plane"}

    def test_three_planes_toggle(self):
        triple = cand((5, 6, 2), (5, 6, 2), (5, 6, 2))
        on = judge_candidate(triple, QUINTIC, 2)
        off = judge_candidate(triple, QUINTIC, 2, frozenset({"A-three-planes"}))
        assert on.status is Status.AXIOM_ELIMINATED
        assert off.status is Status.SURVIVES

    def test_flipped_rule_fails_its_check(self, monkeypatch):
        # the ruled-surface and Hirzebruch checks read the engine's firings:
        # flipping a rule's outcome at every firing must fail its check
        checks = {name: fn for _, name, fn in verify.CHECKS}
        uncaught = []
        for rule_id, check in (("R-hirzebruch-F1", "f1-elimination"),
                               ("R-hirzebruch-F3", "f3-elimination"),
                               ("R-adjunction-28-40", "adjunction-28-40"),
                               ("R-ruled-38", "ruled-38"),
                               ("R-ruled-58", "ruled-58"),
                               ("R-clifford", "ruled-58"),
                               ("R-ruled-e2q20", "ruled-e2q20")):
            with monkeypatch.context() as patch:
                flip(patch, rule_id)
                try:
                    checks[check]()
                except verify.CheckFailure:
                    continue
            uncaught.append(rule_id)
        assert uncaught == []

    def test_eliminated_flip(self):
        # the degree-15 scroll curve escapes once both Hirzebruch searches are off
        scroll = cand((15, 16, 4))
        failing = frozenset(e.rule_id for e in verdict_for(scroll, QUINTIC).trail
                            if e.outcome == "fail")
        again = judge_candidate(scroll, QUINTIC, 2, failing)
        assert again.status in (Status.SURVIVES, Status.AXIOM_ELIMINATED)


class TestReports:
    def test_pinned_bytes_under_hash_seeds(self):
        # the reports and the registry text hash to verify's pins in fresh
        # interpreters, whatever the string hash seed
        script = ("import hashlib, json\n"
                  "from cicy_bundles import classifier, constructions, verify\n"
                  "texts = [classifier.report_json(classifier.rule_report(ctx, 2, regime))\n"
                  "         for ctx, regime in verify.REPORT_SHA256]\n"
                  "texts.append(constructions.serialize_registry())\n"
                  "print(json.dumps([hashlib.sha256(t.encode()).hexdigest() for t in texts]))\n")
        src = str(Path(cicy_bundles.__file__).parent.parent)
        pins = [*verify.REPORT_SHA256.values(), verify.REGISTRY_SHA256]
        for seed in ("0", "12345"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            assert json.loads(proc.stdout) == pins, seed

    @pytest.mark.parametrize("ctx", [QUINTIC, X24, X33], ids=lambda ctx: ctx.label())
    def test_report_lists_every_candidate(self, ctx):
        # from the threefold alone, each twist level's tried triples; from the
        # survivors the report records, its candidates: both lists, in order
        report = json.loads(report_json(rule_report(ctx, 2)))
        levels = []
        for c1 in (1, 2):
            cap = max_curve_degree(ctx, c1, 2)
            levels.append((cap, [CurveComponent(d, required_genus(c1, d), span)
                                 for span in range(2, ctx.ambient_dim + 1)
                                 for d in range(1, cap + 1) if c1 * d % 2 == 0]))
        components = report["component_verdicts"]
        assert [v["candidate"] for v in components] == [
            comp.label() for _, tried in levels for comp in tried]
        statuses = iter(v["status"] for v in components)
        assert [v["candidate"] for v in report["verdicts"]] == [
            candidate.label() for cap, tried in levels
            for candidate in enumerate_candidates(
                [comp for comp in tried if next(statuses) == "SURVIVES"], cap)]

    def test_json_roundtrip(self):
        text = report_json(rule_report(X24, 2))
        assert json.dumps(json.loads(text), indent=2) == text

    def test_same_bytes_as_stdlib(self):
        # report_json writes exactly what the stdlib's indented dump writes
        for ctx, regime in PAPER_CASES:
            report = rule_report(ctx, 2, regime)
            assert report_json(report) == json.dumps(report, indent=2)

    def test_schema_keys(self):
        report = rule_report(X33, 2)
        for key in ("threefold", "c1", "rank_regime", "admissible_c2", "witnesses",
                    "unresolved", "verdicts", "component_verdicts", "rules", "annotations"):
            assert key in report
        for rule in report["rules"]:
            assert set(rule) == {"id", "kind", "ref", "statement", "counts"}
            assert set(rule["counts"]) == {"pass", "fail", "hypothesis"}

    def test_each_firing_stored_once(self):
        def values_objects(node):
            if isinstance(node, list):
                return sum(map(values_objects, node))
            if isinstance(node, dict):
                return ("values" in node) + sum(map(values_objects, node.values()))
            return 0

        for ctx, regime in PAPER_CASES:
            result = classify(ctx, 2, regime)
            entries = sum(len(v.trail) for v in result.verdicts + result.component_verdicts)
            report = json.loads(report_json(rule_report(ctx, 2, regime)))
            assert values_objects(report) == entries
            assert sum(sum(r["counts"].values()) for r in report["rules"]) == entries
            assert [(v["candidate"], v["status"]) for v in report["component_verdicts"]] == [
                (v.candidate.label(), v.status.value) for v in result.component_verdicts]

    def test_annotations_present(self):
        report = rule_report(QUINTIC, 2, HIGHER_RANK)
        noted = {a["rule"] for a in report["annotations"]}
        assert noted == {"A-scroll-spannedness", "A-harris-surface", "R-clifford"}

    def test_f1_polynomial_in_report(self):
        report = rule_report(QUINTIC, 2)
        assert next(r for r in report["rules"] if r["id"] == "R-hirzebruch-F1")["counts"] == {
            "pass": 0, "fail": 1, "hypothesis": 0}
        firing = next(e for v in report["verdicts"] for e in v["trail"]
                      if e["rule"] == "R-hirzebruch-F1")
        assert firing["values"]["classes"] == ()
        assert "-3a^2 + 31a - 60" in firing["values"]["quadratic"]

    def test_f1_lattice_solutions_match_a_scan(self):
        report = rule_report(QUINTIC, 2, HIGHER_RANK)
        values = next(e["values"] for v in report["verdicts"] for e in v["trail"]
                      if e["rule"] == "A-scroll-spannedness")
        qa, qb, qc = genus_quadratic(GenusSearch(DivisorClass(1, 2), 15, genus=16),
                                     RuledSurface(1))
        assert values["lattice"] == f"{-qa}a^2 - {qb}a + {-qc} <= 0"
        assert list(values["lattice_solutions"]) == [
            a for a in range(-10**4, 10**4) if qa * a * a + qb * a + qc >= 0]
        # the solver against the same scan on a grid of downward parabolas
        for a, b, c in itertools.product((-1, -2, -3, -7), range(-40, 41, 3),
                                         range(-60, 61, 7)):
            assert classifier._nonnegative_integers(a, b, c) == [
                x for x in range(-200, 201) if a * x * x + b * x + c >= 0], (a, b, c)

    def test_markdown_renders(self):
        report = rule_report(X33, 2)
        text = report_markdown(report)
        assert "admissible c2: " + " ".join(map(str, report["admissible_c2"])) in text
        assert "Recorded discrepancies" in text

    def test_audit_clean(self):
        # verify audits the four untoggled classifications; this one judges
        # the candidates only a disabled axiom lets through
        result = classify(X33, 2, disabled=frozenset({"A-spannedness-h0"}))
        assert audit_verdicts(result.verdicts + result.component_verdicts) == []


class TestTrailVerdict:
    def test_status_rule(self):
        trail = Trail()
        arithmetic, axiom = trail.route("arithmetic"), trail.route("axiom")
        arithmetic.fire("R-genus-bound/degenerate", 1, 3, "degenerate")
        axiom.exclude("A-three-planes", 3)
        assert trail.verdict("both dead").status is Status.AXIOM_ELIMINATED
        live = trail.route("live")
        live.witness(unresolved=True)
        arithmetic.witness()
        verdict = trail.verdict("one live", ("w1", "w2"))
        assert (verdict.status, verdict.witnesses, verdict.unresolved) == (
            Status.SURVIVES, ("w1", "w2"), True)
        trail.fire("R-degree-cap/curve", 9, 5)
        assert trail.verdict("shared failure").status is Status.ELIMINATED
        shared = Trail()
        shared.route("unfired")
        shared.exclude("A-three-planes", 3)
        assert shared.verdict("shared axiom").status is Status.AXIOM_ELIMINATED
        alone = Trail()
        assert alone.verdict("no routes", ("w",)).witnesses == ("w",)
        alone.exclude("A-three-planes", 3)
        assert alone.verdict("no routes", ("w",)).status is Status.AXIOM_ELIMINATED

    def test_witnesses_need_a_live_marked_route(self):
        def judged(trail):
            v = trail.verdict("candidate", ("w1", "w2"))
            return v.status, v.witnesses, v.unresolved

        # a live route that was never marked names nothing
        unmarked = Trail()
        unmarked.route("live")
        assert judged(unmarked) == (Status.SURVIVES, (), False)
        # a marked route that died gives neither its names nor its flag
        died = Trail()
        marked = died.route("marked")
        marked.witness(unresolved=True)
        marked.exclude("A-three-planes", 3)
        died.route("live")
        assert judged(died) == (Status.SURVIVES, (), False)
        marked.fire("R-degree-cap/curve", 9, 5)
        assert judged(died) == (Status.SURVIVES, (), False)
        # the flag comes from the live marked routes only
        mixed = Trail()
        mixed.route("resolved").witness()
        mixed.route("unmarked")
        assert judged(mixed) == (Status.SURVIVES, ("w1", "w2"), False)
        mixed.route("open").witness(unresolved=True)
        assert judged(mixed) == (Status.SURVIVES, ("w1", "w2"), True)
        # a trail with no routes opened realizes its candidate
        alone = Trail()
        alone.fire("R-degree-cap/curve", 5, 9)
        assert judged(alone) == (Status.SURVIVES, ("w1", "w2"), False)
        assert alone.verdict("unnamed").witnesses == ()

    def test_route_deaths_tallied_as_they_fire(self, monkeypatch):
        # Trail.fire tallies the route each failure kills and whether the rule
        # is arithmetic; every trail judged in the four paper classifications
        # and their toggle sweeps must hold the tally a rescan of its entries
        # gives, the loop Trail.verdict once ran
        paths = Counter()
        verdict = Trail.verdict

        def rescanned(trail, candidate, witnesses=()):
            dead, arithmetic = set(), set()
            for entry in trail.entries:
                if entry.outcome == "fail":
                    dead.add(entry.route)
                    if RULES[entry.rule_id].kind is RuleKind.ARITHMETIC:
                        arithmetic.add(entry.route)
            tally = (set(trail.dead), {route for route, a in trail.dead.items() if a})
            assert tally == (dead, arithmetic), candidate
            paths.update("trail itself" if route is None else "route" for route in dead)
            paths.update("axiom only" for route in dead - arithmetic)
            paths["live"] += not dead
            return verdict(trail, candidate, witnesses)

        monkeypatch.setattr(Trail, "verdict", rescanned)
        for ctx, regime in PAPER_CASES:
            classifier.toggle_sweep(classify(ctx, 2, regime), sweep_toggles(regime))
        assert len(paths) == 4 and min(paths.values()) >= 1, paths


class TestAuditPayloads:
    def test_record_payload_is_the_call(self):
        search = GenusSearch(DivisorClass(1, 3), 15, bands=((-3, 1, 0, 1),))
        hits, call = record(eliminate_by_genus, search, RuledSurface(3))
        assert hits == [DivisorClass(5, 15)]
        check = payload(call)
        assert check == {"op": "eliminate_by_genus",
                         "args": [[[1, 3], 15, None, [[-3, 1, 0, 1]], 1000], [3, 0]],
                         "result": [[5, 15]]}
        assert decode(GenusSearch, check["args"][0]) == search

    def test_split_firings_carry_their_chern_payload(self):
        fired = 0
        for ctx, regime in PAPER_CASES:
            for v in classify(ctx, 2, regime).verdicts:
                for e in v.trail:
                    if e.rule_id == "R-ext-split":
                        (check,) = map(payload, e.values["checks"])
                        assert check["op"] == "chern_of_extension"
                        assert check["result"][1:3] == [e.values["c1"], e.values["c2"]]
                        fired += 1
        assert fired == 7  # the empty curve at c1 = 1, 2 on three threefolds, one split route

    def test_cone_genus_is_of_the_class_found(self, monkeypatch):
        # a band that lands on (5,16): the genus payload follows the search
        monkeypatch.setattr(classifier, "_F3", (
            GenusSearch(DivisorClass(1, 3), 16, bands=((-3, 1, 0, 1),)), RuledSurface(3)))
        for regime in (RANK2, HIGHER_RANK):
            result = classify(QUINTIC, 2, regime)
            (entry,) = [e for v in result.verdicts for e in v.trail
                        if e.rule_id == "R-hirzebruch-F3"]
            search, genus = map(payload, entry.values["checks"])
            assert search["result"] == [[5, 16]] and entry.values["classes"] == ((5, 16),)
            assert genus == {"op": "adjunction_genus", "args": [[5, 16], [3, 0]],
                             "result": 30}
            assert entry.values["genus"] == 30
            assert audit_verdicts(result.verdicts) == []

    def test_op_table_is_exactly_the_recorded_ops(self):
        recorded = set()
        for ctx, regime in PAPER_CASES:
            result = classify(ctx, 2, regime)
            recorded |= {payload(call)["op"]
                         for v in result.verdicts + result.component_verdicts
                         for e in v.trail for call in e.values.get("checks", ())}
        assert recorded == set(KERNEL_OPS)

    def test_tampered_result_is_one_mismatch_naming_its_rule(self):
        verdicts = list(classify(X33, 2).verdicts)
        i, verdict = next((i, v) for i, v in enumerate(verdicts)
                          if any(e.rule_id == "R-liaison-18" for e in v.trail))
        j, entry = next((j, e) for j, e in enumerate(verdict.trail) if e.rule_id == "R-liaison-18")
        linked, d, (ci, liaison) = entry.fields
        tampered = entry._replace(
            fields=(linked, d, (ci, liaison._replace(result=liaison.result + 1))))
        verdicts[i] = verdict._replace(trail=verdict.trail[:j] + (tampered,) + verdict.trail[j + 1:])
        mismatches = audit_verdicts(verdicts)
        assert len(mismatches) == 1
        assert mismatches[0].startswith("R-liaison-18/liaison_solve")

    @pytest.mark.parametrize("checks", [
        [{"op": "no_such_op", "args": [1], "result": 1}],
        [{"op": "adjunction_genus", "args": [[1], [0, 0]], "result": 0}],
        [{"op": "castelnuovo_pi", "args": [2, 5], "result": 0}],
        [{"op": "castelnuovo_pi", "args": [5, 4, 1], "result": 1}],
        [{"op": "castelnuovo_pi", "result": 1}],
        ["castelnuovo_pi"],
        [[5, 4]],
        [None],
        5,
        [{"op": "chern_of_extension", "args": [1, 1, 0, [5.7]], "result": [2, 2, 5, None]}],
        [{"op": "chern_of_extension", "args": [1, 1, 0, ["5"]], "result": [2, 2, 5, None]}],
        [{"op": "chern_of_extension", "args": [1.0, 1, 0, [5]], "result": [2, 2, 5, None]}],
        [{"op": "chern_from_resolution", "args": [[-1], [0, 0, 0, 0, 0], [5.2]],
          "result": [4, 1, 5, 5]}],
        [{"op": "adjunction_genus", "args": [[4, 8], [True, False]], "result": 15}],
        [{"op": "adjunction_genus", "args": [[4, 8], [1]], "result": 15}],
    ], ids=["unknown-op", "bad-args", "kernel-raises", "extra-args", "no-args",
            "check-is-str", "check-is-list", "check-is-none", "checks-not-list",
            "float-degree", "str-degree", "float-int-arg", "float-degree-in-resolution",
            "bool-surface", "short-surface"])
    def test_unreplayable_payload_is_a_mismatch(self, checks):
        verdict = Verdict("payload", Status.SURVIVES,
                          (checked(checks),), [], False)
        mismatches = audit_verdicts([verdict])
        assert len(mismatches) == 1 and "cannot replay" in mismatches[0]

    @pytest.mark.parametrize("entry", [
        TrailEntry("R-genus-bound", "pass", "R-span3-cap", (4, 5)),
        TrailEntry("R-genus-bound", "pass", "R-genus-bound/no-such-shape", (4, 5)),
        TrailEntry("R-genus-bound", "fail", "R-genus-bound/degenerate", (4, 5)),
        TrailEntry("A-no-plane", "hypothesis", "A-no-plane", (2,)),
        TrailEntry("R-cone-disjointness", "pass", "R-cone-disjointness", (None, "connected")),
    ], ids=["another-rules-form", "unknown-form", "missing-field", "axiom-missing-field",
            "undecidable-fields"])
    def test_malformed_firing_is_one_mismatch(self, entry):
        verdict = Verdict("firing", Status.SURVIVES, (entry,), (), False)
        (mismatch,) = audit_verdicts([verdict])
        assert entry.form_id in mismatch

    def test_well_formed_payloads_replay(self):
        # the payloads the malformed cases above start from
        checks = [
            {"op": "chern_of_extension", "args": [1, 1, 0, [5]], "result": [2, 2, 5, None]},
            {"op": "chern_from_resolution", "args": [[-1], [0, 0, 0, 0, 0], [5]],
             "result": [4, 1, 5, 5]},
            {"op": "chern_from_resolution", "args": [[], [0, 0], [2, 2, 3]],
             "result": [2, 0, 0, 0]},
            {"op": "adjunction_genus", "args": [[4, 8], [1, 0]], "result": 15},
            {"op": "castelnuovo_pi", "args": [14, 5], "result": 15},
            {"op": "plane_genus", "args": [2], "result": 0},
        ]
        verdict = Verdict("payload", Status.SURVIVES,
                          (checked(checks),), [], False)
        assert audit_verdicts([verdict]) == []

    @pytest.mark.parametrize("check", [
        {"op": "plane_genus", "args": [2], "result": False},
        {"op": "castelnuovo_pi", "args": [14, 5], "result": 15.0},
        {"op": "chern_of_extension", "args": [1, 1, 0, [5]], "result": [2, 2.0, 5, None]},
    ], ids=["bool-result", "float-result", "float-in-list-result"])
    def test_inexact_result_is_one_mismatch(self, check):
        # each equals the kernel's value under ==, but a result is compared
        # with its type: false is no 0 and 15.0 no 15
        verdict = Verdict("payload", Status.SURVIVES,
                          (checked([check]),), [], False)
        (mismatch,) = audit_verdicts([verdict])
        assert mismatch.startswith(f"R-genus-bound/{check['op']}") and "recorded" in mismatch

    def test_every_one_place_rewrite_is_one_mismatch(self):
        # every distinct payload of the four paper classifications, rewritten
        # in one place: one leaf of its args or result to a bool, a float, a
        # string or a one-element list, or one element dropped from one list.
        # The rewrites are enumerated, not drawn, so the run is the same each
        # time; each must give exactly one mismatch and none may raise
        def leaves(value, path=()):
            if type(value) is list:
                for i, v in enumerate(value):
                    yield from leaves(v, path + (i,))
            else:
                yield path, value

        def lists(value, path=()):
            if type(value) is list:
                yield path, value
                for i, v in enumerate(value):
                    yield from lists(v, path + (i,))

        def put(value, path, new):
            if not path:
                return new
            value = copy.deepcopy(value)
            node = value
            for i in path[:-1]:
                node = node[i]
            node[path[-1]] = new
            return value

        def rewrites(check):
            for key in ("args", "result"):
                for path, leaf in leaves(check[key]):
                    if path or key == "result":  # args itself is a list, not a leaf
                        for new in (bool(leaf), float(leaf or 0), str(leaf), [leaf]):
                            yield key, put(check[key], path, new)
                for path, items in lists(check[key]):
                    for i in range(len(items)):
                        yield key, put(check[key], path, items[:i] + items[i + 1:])

        calls = {call for ctx, regime in PAPER_CASES
                 for v in (lambda r: r.verdicts + r.component_verdicts)(classify(ctx, 2, regime))
                 for e in v.trail for call in e.values.get("checks", ())}
        assert len(calls) == 164
        count, missed = 0, []
        for call in sorted(calls, key=repr):
            check = payload(call)
            for key, new in rewrites(check):
                rewritten = {**check, key: new}
                verdict = Verdict("payload", Status.SURVIVES, (checked([rewritten]),), (), False)
                count += 1
                if len(audit_verdicts([verdict])) != 1:
                    missed.append(rewritten)
        assert count == 2985
        assert missed == []

    @pytest.mark.parametrize("kind, value", [
        (DivisorClass, [4, True]),
        (DivisorClass, [4, 8, 0]),
        (DivisorClass, [4.0, 8]),
        (RuledSurface, [1]),
        (RuledSurface, (1, 0)),
        (GenusSearch, [[1, 2], 15, 16, [], 1000, 0]),
        (GenusSearch, [[1, 2], 15, 16.0, [], 1000]),
        (GenusSearch, [[1, True], 15, 16, [], 1000]),
        (GenusSearch, [[1, 3], 15, None, [[-3, 1, 0]], 1000]),
        (GenusSearch, [[1, 3], 15, None, [[-3, 1, False, None]], 1000]),
        (GenusSearch, [[1, 3], 15, None, [(-3, 1, 0, 1)], 1000]),
        (GenusSearch, [[1, 3], 15, None, [[-3, 1, 0, 1]], None]),
        (int, True),
        (int, 5.0),
        (int, "5"),
        (int, None),
        (list, [2, True]),
        (list, [2, 4.0]),
        (list, (2, 4)),
        (list, 5),
        (CicyContext, [5.0]),
        (CicyContext, ["5"]),
        (CicyContext, [True, 4]),
        (CicyContext, (5,)),
        (CicyContext, 5),
    ])
    def test_structured_decoders_take_exact_shapes(self, kind, value):
        with pytest.raises(TypeError):
            decode(kind, value)

    def test_decode_has_one_path(self):
        # a multidegree no threefold has is refused by the context itself, and
        # a kind with no codec is refused, never passed through
        assert decode(CicyContext, [2, 4]) == X24
        for value in ([], [7], [2, 2, 4]):
            with pytest.raises(ValueError):
                decode(CicyContext, value)
        assert decode(list, [2, 4]) == [2, 4] and decode(int, 0) == 0
        with pytest.raises(KeyError):
            decode(str, "5")


class TestRecords:
    def test_paper_records_are_frozen(self):
        # hashable all the way down: no list or dict inside a record can be
        # rewritten in place
        calls = [call for ctx, regime in PAPER_CASES
                 for v in (lambda r: r.verdicts + r.component_verdicts)(classify(ctx, 2, regime))
                 for e in v.trail for call in e.values.get("checks", ())]
        assert len(calls) == 515
        assert {type(call) for call in calls} == {KernelCall}
        assert len({hash(call) for call in calls}) > 1

    def test_section_genus_is_recorded_where_it_is_read(self):
        # a firing that reads the bi-hyperplane section's genus carries the
        # record of that computation, so the audit replays the value it uses
        readers = set()
        for ctx, regime in PAPER_CASES:
            result = classify(ctx, 2, regime)
            for verdict in result.verdicts + result.component_verdicts:
                for e in verdict.trail:
                    if "section_genus" not in e.values:
                        continue
                    readers.add(e.rule_id)
                    section = ("ci_curve_invariants", ((1, 1, *ctx.multidegree),
                                                       ctx.ambient_dim))
                    found = [call.result for call in e.values.get("checks", ())
                             if call[:2] == section]
                    assert [inv.genus for inv in found] == [e.values["section_genus"]], (
                        ctx.label(), verdict.candidate.label(), e.rule_id)
        assert readers == {"R-section-match", "R-union-genus"}

    def test_record_freezes_list_arguments_and_results(self):
        degrees = [2, 2, 2, 3]
        inv, call = record(classifier.bounds.ci_curve_invariants, degrees, 5)
        degrees.append(9)  # the caller's list is not the record's
        assert call == ("ci_curve_invariants", ((2, 2, 2, 3), 5), inv)
        hits, call = record(eliminate_by_genus, *classifier._F3)
        assert type(hits) is list and call.result == tuple(hits)
        assert payload(call)["result"] == [[5, 15]]

    def test_calls_share_no_judgement(self):
        # only immutable inputs cross classify calls: no verdict, trail
        # entry, fields tuple or kernel-call record of one is in the other.
        # The empty tuple is one shared object, so fieldless firings are
        # compared by value only
        def judgement(result):
            verdicts = result.verdicts + result.component_verdicts
            entries = [e for v in verdicts for e in v.trail]
            fields = [e.fields for e in entries if e.fields]
            calls = [call for e in entries for call in e.values.get("checks", ())]
            return verdicts, entries, fields, calls

        first, second = judgement(classify(X33, 2)), judgement(classify(X33, 2))
        for old, new in zip(first, second):
            assert old and len(old) == len(new)
            assert not {id(o) for o in old} & {id(o) for o in new}
        assert first[2:] == second[2:]

    def test_paper_trails_cannot_be_rewritten_in_place(self):
        # every firing of the four paper classifications keeps its fields in
        # a tuple; a mapping among them, or inside one, is a FrozenDict that
        # refuses every write, and a recorded call and what it holds are
        # frozen too: no list, dict or set is left to write to
        seen = Counter()

        def frozen(value, where):
            if value is None or type(value) in (int, str, bool):
                return
            seen[type(value).__name__] += 1
            if isinstance(value, dict):
                assert type(value) is FrozenDict, where
                key = next(iter(value))
                for write in (lambda: value.__setitem__(key, 0), lambda: value.__delitem__(key),
                              lambda: value.update({key: 0}), lambda: value.pop(key),
                              lambda: value.setdefault(key, 0), value.popitem, value.clear):
                    with pytest.raises(TypeError):
                        write()
                for item in value.values():
                    frozen(item, where)
            elif isinstance(value, tuple):
                for item in value:
                    frozen(item, where)
            else:  # a kernel value type: every attribute is read-only
                assert not isinstance(value, (list, set, bytearray)), where
                for name, item in vars(value).items():
                    with pytest.raises((AttributeError, TypeError)):
                        setattr(value, name, item)
                    frozen(item, where)

        for ctx, regime in PAPER_CASES:
            result = classify(ctx, 2, regime)
            for v in result.verdicts + result.component_verdicts:
                for e in v.trail:
                    assert type(e.fields) is tuple
                    frozen(e.fields, (ctx.label(), v.label, e.rule_id))
        assert seen["FrozenDict"] >= 6 and seen["KernelCall"] == 515

    def test_each_flipped_outcome_is_one_mismatch(self):
        # the audit re-derives every arithmetic outcome from the recorded
        # fields: each arithmetic firing of the four paper classifications,
        # its outcome flipped in a copy of its verdict, gives exactly one
        # mismatch, which names its form
        flipped, missed = 0, []
        for ctx, regime in PAPER_CASES:
            result = classify(ctx, 2, regime)
            for v in result.verdicts + result.component_verdicts:
                for i, e in enumerate(v.trail):
                    if RULES[e.rule_id].kind is not RuleKind.ARITHMETIC:
                        continue
                    wrong = e._replace(outcome={"pass": "fail", "fail": "pass"}[e.outcome])
                    mismatches = audit_verdicts([v._replace(
                        trail=v.trail[:i] + (wrong,) + v.trail[i + 1:])])
                    flipped += 1
                    if len(mismatches) != 1 or not mismatches[0].startswith(e.form_id):
                        missed.append((ctx.label(), v.label, e.form_id, mismatches))
        assert (flipped, missed) == (946, [])


class TestVerifyPass:
    def test_classifies_each_paper_case_once(self, monkeypatch):
        # the checks of one pass share one classification of each paper case
        calls = Counter()
        original = classifier.classify

        def counting(ctx, c1_max, rank_regime=RANK2, disabled=frozenset()):
            calls[ctx, c1_max, rank_regime] += 1
            return original(ctx, c1_max, rank_regime, disabled)

        monkeypatch.setattr(classifier, "classify", counting)
        results = list(verify.run_checks())
        assert [name for _, name, ok, _ in results if not ok] == []
        assert len(results) == len(verify.CHECKS)
        assert [calls[ctx, 2, regime] for ctx, regime in PAPER_CASES] == [1, 1, 1, 1]

    def test_passes_share_no_results(self, monkeypatch):
        # a pass neither reads a result made before it nor leaves one behind:
        # flipping R-s-omega between two passes must show in the second
        def failing():
            return {name for _, name, ok, _ in verify.run_checks("classifier") if not ok}

        assert failing() == set()
        flip(monkeypatch, "R-s-omega")
        with pytest.raises(verify.CheckFailure):
            verify.check_x33_classification()
        assert {"x33-classification", "determinism"} <= failing()
        monkeypatch.undo()
        assert failing() == set()
