import json

import pytest

from cicy_bundles import (
    QUINTIC,
    X24,
    X33,
    CurveComponent,
    LiaisonError,
    ParityError,
    castelnuovo_pi,
    ci_curve_invariants,
    component_admissible,
    incidence_dimension_check,
    liaison_solve,
    plane_genus,
    registry_names,
    required_genus,
    serialize_registry,
    union_genus,
    validate_all,
    validate_construction,
)
from cicy_bundles.constructions import REGISTRY


class TestRequiredGenus:
    def test_anchors(self):
        # a smooth plane curve of degree d has dualizing sheaf O(d - 3)
        for c1 in range(1, 7):
            d = c1 + 3
            if (c1 * d) % 2 == 0:
                assert required_genus(c1, d) == plane_genus(d)

    def test_empty_sentinel(self):
        assert required_genus(0, 0) is None

    def test_guards(self):
        with pytest.raises(ValueError):
            required_genus(2, 0)
        with pytest.raises(ParityError, match="parity"):
            required_genus(1, 5)

    def test_twist_two_identity(self):
        for d in range(1, 40):
            assert required_genus(2, d) - 1 == d


class TestUnionGenus:
    def test_anchors(self):
        # one part keeps its genus; each extra part subtracts one, each meet adds one
        for g in range(0, 12):
            assert union_genus([g]) == g
            for meets in range(0, 4):
                assert union_genus([g, 5], meets) == union_genus([g + 5 - 1], meets)
                assert union_genus([g, 5], meets) == union_genus([g, 5]) + meets

    def test_two_disjoint_quintics_match_degree(self):
        # p_a - 1 equals the total degree for the twist-two pair
        assert union_genus([plane_genus(5)] * 2) - 1 == 2 * 5


class TestLiaison:
    def test_linkage_degree(self):
        # a solved degree lies strictly inside the total and solves the equation
        for total in range(1, 30):
            for coeff in range(1, 5):
                for cut in range(1, 5):
                    try:
                        d = liaison_solve(total, coeff, 0, cut)
                    except LiaisonError:
                        continue
                    assert 0 < d < total and coeff * d == cut * (total - d)

    def test_unique_by_substitution(self):
        # the solver agrees with a scan of the linkage equation on a grid
        grid = [(total, omega, target, cut) for total in range(1, 30)
                for omega in range(-1, 5) for target in range(-2, omega) for cut in range(1, 5)]
        for total, omega, target, cut in grid:
            scan = [d for d in range(1, total)
                    if (omega - target) * d == cut * (total - d)]
            try:
                assert [liaison_solve(total, omega, target, cut)] == scan
            except LiaisonError:
                assert scan == []

    def test_degenerate_twist(self):
        with pytest.raises(LiaisonError, match="no liaison solution"):
            liaison_solve(24, 3, 3, 5)

    def test_non_integer(self):
        with pytest.raises(LiaisonError):
            liaison_solve(25, 3, 2, 3)


class TestComponentFilter:
    def test_quintic_span4_low_degree_dies(self):
        v = component_admissible(CurveComponent(7, 8, 4), QUINTIC, 2)
        assert not v.survives
        fails = [e for e in v.trail if e.outcome == "fail"]
        assert any(e.rule_id == "R-genus-bound" for e in fails)
        entry = next(e for e in fails if e.rule_id == "R-genus-bound")
        assert entry.values["bound"] == castelnuovo_pi(7, 4)

    def test_x33_span3_degree8_dies(self):
        v = component_admissible(CurveComponent(8, 9, 3), X33, 2)
        assert not v.survives

    def test_plane_quintic_only_on_quintic(self):
        assert component_admissible(CurveComponent(5, 6, 2), QUINTIC, 2).survives
        assert not component_admissible(CurveComponent(5, 6, 2), X24, 2).survives
        assert not component_admissible(CurveComponent(5, 6, 2), X33, 2).survives

    def test_plane_quartic_only_on_x24(self):
        assert component_admissible(CurveComponent(4, 3, 2), X24, 1).survives
        assert not component_admissible(CurveComponent(4, 3, 2), QUINTIC, 1).survives
        assert not component_admissible(CurveComponent(4, 3, 2), X33, 1).survives


class TestRegistry:
    def test_at_least_ten_names(self):
        assert len(registry_names()) >= 10

    def test_validate_everything(self):
        # validation raises on any mismatch, so it returns only the counts of
        # the fields it recomputed, one per entry
        validated = validate_all()
        assert len(validated) == len(REGISTRY)
        assert sum(count for _, count in validated) > 100

    @pytest.mark.parametrize("name", registry_names())
    def test_each_construction(self, name):
        validated = validate_construction(name)
        assert [threefold for threefold, _ in validated] == [
            e.threefold for e in REGISTRY if e.name == name]
        assert all(count > 0 for _, count in validated)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            validate_construction("no-such-entry")

    def test_d_equals_g_minus_one_for_twist_two(self):
        for entry in REGISTRY:
            if entry.rank == 2 and entry.c1 == 2 and entry.components:
                total = sum(c[0] for c in entry.components)
                p_a = union_genus([c[1] for c in entry.components])
                assert total == p_a - 1

    def test_serialization_stable(self):
        text = serialize_registry()
        records = json.loads(text)
        assert len({tuple(r) for r in records}) == 1  # one key order throughout
        assert len(records) == len(REGISTRY)
        assert json.dumps(records, indent=2) == text

    def test_corrupted_entry_is_caught(self, monkeypatch):
        import cicy_bundles.constructions as cons

        bad = cons.Construction(
            "b2-four-quadrics", (2, 4), 2, 2, 15, ((16, 17, 5),),
            "ci-curve", (2, 2, 2, 2), "corrupted on purpose")
        monkeypatch.setattr(cons, "REGISTRY", (*cons.REGISTRY, bad))
        with pytest.raises(cons.RegistryValidationError, match="b2-four-quadrics"):
            cons.validate_construction("b2-four-quadrics")


def test_incidence_dimensions():
    report = incidence_dimension_check()
    # cubics through the four-quadric curve C, by Riemann-Roch on C: O_C(3) is
    # nonspecial (3 deg C > 2g - 2), so h0(O_C(3)) = 3 deg C - g + 1
    curve = ci_curve_invariants([2, 2, 2, 2], 5)
    assert report["h0_ideal_cubics"] == report["h0_cubics"] - (3 * curve.degree - curve.genus + 1)
    assert report["fiber_dim"] == report["h0_ideal_cubics"] - 1
    assert report["incidence_dim"] == report["grassmannian_dim"] + report["fiber_dim"]
    assert report["cubic_family_dim"] == report["incidence_dim"] - (report["h0_cubics"] - 1)
