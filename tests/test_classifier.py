import copy
import json

import pytest

from cicy_bundles import (
    QUINTIC,
    X24,
    X33,
    X223,
    X2222,
    CurveCandidate,
    CurveComponent,
    Status,
    UnsupportedClassificationError,
    apply_rules,
    audit_verdicts,
    classify,
    enumerate_candidates,
    judge_candidate,
    rule_report,
)
from cicy_bundles.classifier import (HIGHER_RANK, KERNEL_OPS, RANK2, report_json,
                                    report_markdown)
from cicy_bundles.ruled import DivisorClass, GenusSearch, RuledSurface, eliminate_by_genus
from cicy_bundles.verdicts import RULES, RuleKind, TrailEntry, Verdict, decode, record

FOUR_CASES = ((QUINTIC, RANK2), (X24, RANK2), (X33, RANK2), (QUINTIC, HIGHER_RANK))


def cand(*triples):
    return CurveCandidate(tuple(CurveComponent(*t) for t in triples))


def verdict_for(candidate, ctx, c1=2):
    return judge_candidate(candidate, ctx, c1)


class TestEnumeration:
    def test_trivial_regime(self):
        assert enumerate_candidates(X24, 0) == [CurveCandidate(())]

    def test_quintic_contains_plane_pair(self):
        cands = enumerate_candidates(QUINTIC, 2)
        assert cand((5, 6, 2), (5, 6, 2)) in cands
        assert CurveCandidate(()) in cands

    def test_x24_twist_one(self):
        cands = enumerate_candidates(X24, 1)
        assert cand((4, 3, 2)) in cands
        assert all((6, 4, 3) not in c.triples() for c in cands)

    def test_degree_cap_respected(self):
        for ctx, c1, cap in ((QUINTIC, 2, 17), (X24, 2, 29), (X33, 2, 33)):
            for c in enumerate_candidates(ctx, c1):
                assert c.total_degree <= cap

    def test_deterministic_order(self):
        first = enumerate_candidates(X33, 2)
        second = enumerate_candidates(X33, 2)
        assert first == second
        assert first == sorted(first, key=lambda c: (len(c.components), c.triples()))


class TestQuinticVerdicts:
    def test_plane_pair_survives(self):
        v = verdict_for(cand((5, 6, 2), (5, 6, 2)), QUINTIC)
        assert v.status is Status.SURVIVES
        assert "quintic-two-plane-quintics" in v.witnesses
        assert "pullback-null-correlation" in v.witnesses

    def test_single_quintic_is_the_split_pair(self):
        v = verdict_for(cand((5, 6, 2)), QUINTIC)
        assert v.status is Status.SURVIVES
        assert v.witnesses == ["hyperplane-pair-split"]

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
        assert v.witnesses == ["plane-cubic-extension"]

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


class TestX33Verdicts:
    def test_section_survives(self):
        v = verdict_for(cand((9, 10, 3)), X33)
        assert v.status is Status.SURVIVES
        assert v.witnesses == ["hyperplane-pair-split"]

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
        result = classify(QUINTIC, 2, RANK2)
        assert result.admissible_pairs == [(1, 0), (2, 0), (2, 5), (2, 10)]
        assert result.admissible_c2 == [0, 5, 10]
        assert result.unresolved == []

    def test_quintic_higher_rank(self):
        result = classify(QUINTIC, 2, HIGHER_RANK)
        assert result.admissible_c2 == [0, 5, 10, 15, 20]
        assert result.rank_windows[20] == (3, 14)
        assert result.rank_windows[15] == (3, 8)
        assert result.rank_windows[10] == (3, 5)
        assert result.rank_windows[5] == (3, 4)

    def test_x24(self):
        result = classify(X24, 2, RANK2)
        assert result.admissible_c2 == [0, 4, 8, 11, 16]
        assert result.unresolved == [16]

    def test_x33(self):
        result = classify(X33, 2, RANK2)
        assert result.admissible_c2 == [0, 9, 12, 15, 16, 18]
        assert result.unresolved == [16]

    def test_witness_coverage(self):
        for ctx in (QUINTIC, X24, X33):
            result = classify(ctx, 2, RANK2)
            for c2 in result.admissible_c2:
                assert result.witnesses.get(c2), (ctx.label(), c2)

    @pytest.mark.parametrize("ctx", [QUINTIC, X24, X33, X223, X2222])
    def test_trivial(self, ctx):
        result = classify(ctx, 0, RANK2)
        assert result.admissible_c2 == [0]
        assert result.admissible_pairs == []

    def test_c1_max_one(self):
        result = classify(X24, 1, RANK2)
        assert result.admissible_pairs == [(1, 0), (1, 4)]

    def test_unsupported(self):
        with pytest.raises(UnsupportedClassificationError):
            classify(X223, 2, RANK2)
        with pytest.raises(UnsupportedClassificationError):
            classify(X2222, 1, RANK2)
        with pytest.raises(UnsupportedClassificationError):
            classify(X33, 2, HIGHER_RANK)


class TestToggles:
    def test_axiom_off_grows_survivors(self):
        axioms = [r.id for r in RULES.values() if r.kind is RuleKind.AXIOM]
        for ctx in (QUINTIC, X24, X33):
            base = {v.candidate for v in classify(ctx, 2).verdicts if v.survives}
            for axiom in axioms:
                toggled = {
                    v.candidate
                    for v in classify(ctx, 2, disabled=frozenset({axiom})).verdicts
                    if v.survives
                }
                assert base <= toggled, axiom

    def test_three_planes_toggle(self):
        triple = cand((5, 6, 2), (5, 6, 2), (5, 6, 2))
        on = judge_candidate(triple, QUINTIC, 2)
        off = judge_candidate(triple, QUINTIC, 2, frozenset({"A-three-planes"}))
        assert on.status is Status.AXIOM_ELIMINATED
        assert off.status is Status.SURVIVES

    def test_eliminated_flip(self):
        for ctx in (QUINTIC, X24, X33):
            for verdict in apply_rules(enumerate_candidates(ctx, 2), ctx, 2):
                if verdict.status is not Status.ELIMINATED:
                    continue
                failing = frozenset(e.rule_id for e in verdict.trail
                                    if e.outcome == "fail")
                again = judge_candidate(verdict.candidate, ctx, 2, failing)
                assert again.status in (Status.SURVIVES, Status.AXIOM_ELIMINATED)


class TestReports:
    def test_deterministic_bytes(self):
        for ctx in (QUINTIC, X33):
            a = report_json(rule_report(ctx, 2))
            b = report_json(rule_report(ctx, 2))
            assert a == b

    def test_json_roundtrip(self):
        text = report_json(rule_report(X24, 2))
        assert json.dumps(json.loads(text), indent=2) == text

    def test_schema_keys(self):
        report = rule_report(X33, 2)
        for key in ("threefold", "c1", "rank_regime", "admissible_c2",
                    "witnesses", "unresolved", "rules", "annotations"):
            assert key in report
        for rule in report["rules"]:
            assert set(rule) == {"id", "kind", "ref", "statement", "fired"}

    def test_annotations_present(self):
        report = rule_report(QUINTIC, 2, HIGHER_RANK)
        noted = {a["rule"] for a in report["annotations"]}
        assert noted == {"A-scroll-spannedness", "R-clifford"}

    def test_f1_polynomial_in_report(self):
        report = rule_report(QUINTIC, 2)
        f1 = next(r for r in report["rules"] if r["id"] == "R-hirzebruch-F1")
        firing = f1["fired"][0]
        assert firing["values"]["classes"] == []
        assert "-3a^2 + 31a - 60" in firing["values"]["quadratic"]

    def test_markdown_renders(self):
        text = report_markdown(rule_report(X33, 2))
        assert "admissible c2: 0 9 12 15 16 18" in text
        assert "Recorded discrepancies" in text

    def test_audit_clean(self):
        for ctx, regime in ((QUINTIC, RANK2), (X24, RANK2), (X33, RANK2),
                            (QUINTIC, HIGHER_RANK)):
            result = classify(ctx, 2, regime)
            assert audit_verdicts(result.verdicts + result.component_verdicts) == []


class TestAuditPayloads:
    def test_record_payload_is_the_call(self):
        search = GenusSearch(DivisorClass(1, 3), 15, bands=((-3, 1, 0, 1),))
        hits, check = record(eliminate_by_genus, search, RuledSurface(3))
        assert hits == [DivisorClass(5, 15)]
        assert check == {"op": "eliminate_by_genus",
                         "args": [[[1, 3], 15, None, [[-3, 1, 0, 1]], 1000], [3, 0]],
                         "result": [[5, 15]]}
        assert decode(GenusSearch, check["args"][0]) == search

    def test_op_table_is_exactly_the_recorded_ops(self):
        recorded = set()
        for ctx, regime in FOUR_CASES:
            result = classify(ctx, 2, regime)
            recorded |= {check["op"]
                         for v in result.verdicts + result.component_verdicts
                         for e in v.trail for check in e.values.get("checks", ())}
        assert recorded == set(KERNEL_OPS)

    def test_tampered_result_is_one_mismatch_naming_its_rule(self):
        verdicts = copy.deepcopy(classify(X33, 2).verdicts)
        entry = next(e for v in verdicts for e in v.trail if e.rule_id == "R-liaison-18")
        entry.values["checks"][1]["result"] += 1
        mismatches = audit_verdicts(verdicts)
        assert len(mismatches) == 1
        assert mismatches[0].startswith("R-liaison-18/liaison_solve")

    @pytest.mark.parametrize("check", [
        {"op": "no_such_op", "args": [1], "result": 1},
        {"op": "adjunction_genus", "args": [[1], [0, 0]], "result": 0},
        {"op": "castelnuovo_pi", "args": [2, 5], "result": 0},
        {"op": "castelnuovo_pi", "args": [5, 4, 1], "result": 1},
        {"op": "castelnuovo_pi", "result": 1},
    ], ids=["unknown-op", "bad-args", "kernel-raises", "extra-args", "no-args"])
    def test_unreplayable_payload_is_a_mismatch(self, check):
        verdict = Verdict("payload", Status.SURVIVES,
                          [TrailEntry("R-genus-bound", "pass", {"checks": [check]})])
        mismatches = audit_verdicts([verdict])
        assert len(mismatches) == 1 and "cannot replay" in mismatches[0]
