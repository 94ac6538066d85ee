import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cicy_bundles import CurveCandidate, CurveComponent, classify
from cicy_bundles.bounds import plane_genus
from cicy_bundles.verdicts import (Status, Trail, TrailEntry, Verdict, json_text, payload,
                                   record)
from cicy_bundles.verify import PAPER_CASES


class Label(str):
    def __str__(self):
        return "not the text"


class Count(int):
    def __repr__(self):
        return "not the digits"

    __str__ = __repr__


class Items(list):
    pass


class Table(dict):
    pass


# escapes, control characters, non-ASCII, astral characters (surrogate pairs)
# and a lone surrogate, among arbitrary characters
chars = st.one_of(st.sampled_from('"\\/\x00\x08\x0c\x1f\x7f\n\r\t é€ \ud83d'),
                  st.characters(min_codepoint=0x10000), st.characters())
texts = st.text(chars, max_size=8)
ints = st.one_of(st.integers(-1000, 1000), st.integers(min_value=2**64),
                 st.integers(max_value=-2**64))
scalars = st.one_of(texts, ints, st.booleans(), st.none(), st.builds(Label, texts),
                    st.builds(Count, ints))
keys = scalars  # str, int, bool and None keys, subclasses included


def containers(children, min_size=0, max_size=3):
    lists = st.lists(children, min_size=min_size, max_size=max_size)
    dicts = st.dictionaries(keys, children, min_size=min_size, max_size=max_size)
    return st.one_of(lists, dicts, lists.map(tuple), lists.map(Items), dicts.map(Table))


def depth(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return 1 + max(map(depth, value), default=0)
    return 0


# four non-empty container levels around trees that also hold empty containers
trees = st.recursive(scalars, containers, max_leaves=4)
for _ in range(4):
    trees = containers(trees, min_size=1, max_size=2)


@given(trees)
def test_same_text_as_stdlib(tree):
    assert depth(tree) >= 4
    assert json_text(tree) == json.dumps(tree, indent=2)


@given(scalars)
def test_same_text_as_stdlib_at_top_level(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1}, b"x", object()],
                         ids=["float", "Fraction", "set", "bytes", "object"])
def test_other_values_raise(value):
    for tree in (value, [1, value], {"a": value}, (Table(a=[value]),)):
        with pytest.raises(TypeError):
            json_text(tree)


@pytest.mark.parametrize("key", [1.5, Fraction(1, 2), frozenset({1}), b"x", object()],
                         ids=["float", "Fraction", "frozenset", "bytes", "object"])
def test_other_keys_raise(key):
    for tree in ({key: 1}, [{"a": 1, key: "b"}]):
        with pytest.raises(TypeError):
            json_text(tree)


def test_shortcut_tuples_have_full_arity(monkeypatch):
    # tuple.__new__ builds entries and verdicts without the generated
    # __new__, which would have checked their arity; object.__new__ builds
    # routes without __init__, so each must still carry its name and share
    # its trail's containers
    routes = []
    route = Trail.route

    def recording(self, name):
        routes.append((self, name, route(self, name)))
        return routes[-1][2]

    monkeypatch.setattr(Trail, "route", recording)
    verdicts = []
    for ctx, regime in PAPER_CASES:
        result = classify(ctx, 2, regime)
        verdicts += result.verdicts + result.component_verdicts
    entries = [e for v in verdicts for e in v.trail]
    assert routes and entries
    for cls, built in ((Verdict, verdicts), (TrailEntry, entries)):
        assert {(type(t), len(t)) for t in built} == {(cls, len(cls._fields))}
    for trail, name, opened in routes:
        assert type(opened) is Trail and opened.name == name
        assert (opened.entries is trail.entries and opened.routes is trail.routes
                and opened.dead is trail.dead)


def test_route_rides_on_the_entry():
    # a routed firing keeps its route on the entry, not among its fields; the
    # report writes it first among the values, with each check as its payload
    trail = Trail()
    route = trail.route("surface")
    assert (trail.name, route.name) == (None, "surface")
    assert (route.entries is trail.entries and route.routes is trail.routes
            and route.dead is trail.dead)
    _, call = record(plane_genus, 4)
    assert route.fire("R-plane-degree", 4, 3, 3, (4,), (call,)) is True
    assert trail.fire("R-genus-bound/degenerate", 4, 5, "degenerate") is False
    assert route.hypothesis("A-no-plane", 2, 4) is True
    assert trail.hypothesis("A-base-locus/shape") is True
    routed, shared, routed_hypothesis, shared_hypothesis = trail.entries
    assert (routed.route, routed_hypothesis.route) == ("surface", "surface")
    assert (shared.route, shared_hypothesis.route) == (None, None)
    assert routed.fields == (4, 3, 3, (4,), (call,))
    assert dict(routed.values) == {"d": 4, "g": 3, "plane_genus": 3, "defining_degrees": (4,),
                                   "checks": (call,)}
    with pytest.raises(TypeError):
        routed.values["d"] = 5
    assert routed_hypothesis.fields == (2, 4) and shared_hypothesis.fields == ()
    report = routed.to_dict()
    assert report == {"rule": "R-plane-degree", "outcome": "pass",
                      "values": {"route": "surface", "d": 4, "g": 3, "plane_genus": 3,
                                 "defining_degrees": (4,), "checks": [payload(call)]}}
    assert list(report["values"]) == ["route", "d", "g", "plane_genus", "defining_degrees",
                                      "checks"]
    assert routed.fields[-1] == (call,)  # the report's payloads leave the entry as it was
    assert shared.to_dict()["values"] == {"d": 4, "span": 5, "reason": "degenerate"}
    assert list(routed_hypothesis.to_dict()["values"]) == ["route", "span", "d"]
    assert TrailEntry("R-genus-bound", "fail", "R-genus-bound/degenerate",
                      (4, 5, "degenerate")).route is None


def test_paper_entries_keep_routes_out_of_values():
    routed = 0
    for ctx, regime in PAPER_CASES:
        result = classify(ctx, 2, regime)
        for verdict in result.verdicts + result.component_verdicts:
            for entry in verdict.trail:
                assert "route" not in entry.values
                values = entry.to_dict()["values"]
                if entry.route is None:
                    assert "route" not in values
                else:
                    assert next(iter(values.items())) == ("route", entry.route)
                    routed += 1
    assert routed


def test_unknown_rule_ids_raise_on_every_firing_path():
    trail = Trail()
    route = trail.route("surface")
    for fire in (trail.fire, route.fire):
        for form_id in ("R-no-such-rule", "R-genus-bound/no-such-shape"):
            with pytest.raises(KeyError, match=form_id):
                fire(form_id, 1)
    for axiom in (trail.exclude, route.exclude, trail.hypothesis, route.hypothesis):
        with pytest.raises(KeyError, match="A-no-such-axiom"):
            axiom("A-no-such-axiom")
    assert (trail.entries, trail.dead) == ([], {})


def test_disabled_rules_record_nothing_on_every_firing_path():
    # a disabled arithmetic rule still gives its form's decision, so a site
    # steers by it, but records nothing and kills nothing
    trail = Trail(frozenset({"R-genus-bound", "A-no-plane"}))
    route = trail.route("surface")
    for fire in (trail.fire, route.fire):
        assert fire("R-genus-bound/degenerate", 1, 3, "degenerate") is False
        assert fire("R-genus-bound/degenerate", 4, 3, "degenerate") is True
    for exclude in (trail.exclude, route.exclude):
        assert exclude("A-no-plane", 2, 1) is None
    for hypothesis in (trail.hypothesis, route.hypothesis):
        assert hypothesis("A-no-plane", 2, 1) is False
    assert (trail.entries, trail.dead) == ([], {})
    assert trail.verdict("nothing fired").status is Status.SURVIVES


def test_candidate_invariants_are_derived_not_compared():
    parts = (CurveComponent(9, 10, 3), CurveComponent(5, 6, 2), CurveComponent(6, 7, 3))
    candidate = CurveCandidate(parts)
    assert candidate == CurveCandidate(tuple(sorted(parts)))
    assert hash(candidate) == hash(CurveCandidate(tuple(sorted(parts))))
    assert (candidate.total_degree, candidate.span_max) == (20, 10)
    assert (CurveCandidate(()).total_degree, CurveCandidate(()).span_max) == (0, -1)
    # the shape fields too: equality, hash and repr read the components only
    text = repr(candidate)
    assert text == f"CurveCandidate(components={candidate.components!r})"
    derived = [f.name for f in dataclasses.fields(CurveCandidate) if f.name != "components"]
    assert not [f.name for f in dataclasses.fields(CurveCandidate)
                if f.name in derived and (f.compare or f.repr or f.init)]
    altered = CurveCandidate(parts)
    for name in derived:
        object.__setattr__(altered, name, None)
    assert (altered, hash(altered), repr(altered)) == (candidate, hash(candidate), text)
    assert hash(candidate) == hash((candidate.components,))
    for name in derived:
        with pytest.raises(TypeError):
            CurveCandidate(parts, **{name: 20})
    # the labels: each is made at construction, of the sorted components,
    # and none is compared, hashed or shown
    assert [vars(c)["_label"] for c in parts] == ["(9,10,3)", "(5,6,2)", "(6,7,3)"]
    assert vars(candidate)["_label"] == "(5,6,2) + (6,7,3) + (9,10,3)"
    assert candidate.label() is vars(candidate)["_label"]
    assert vars(CurveCandidate(()))["_label"] == "empty"
    assert "label" not in repr(candidate) and "label" not in repr(parts[0])
    fresh = CurveCandidate(parts)
    component = CurveComponent(9, 10, 3)
    for value, twin in ((candidate, fresh), (component, parts[0])):
        object.__setattr__(value, "_label", "altered")
        assert (value, hash(value), repr(value)) == (twin, hash(twin), repr(twin))
    assert not component < parts[0] and not parts[0] < component
    with pytest.raises(TypeError):
        CurveCandidate(parts, _label="altered")
    with pytest.raises(TypeError):
        CurveComponent(9, 10, 3, "altered")


def test_component_trails_have_no_lemma_book(monkeypatch):
    # a component reads no lemma, so its trail gets no book, and a stray
    # lemma call there raises rather than write to a dict; a candidate
    # judged alone gets a fresh book of its own
    from cicy_bundles import classifier, component_admissible, judge_candidate
    from cicy_bundles.chow import CicyContext

    books = []
    original = Trail.verdict

    def keeping(self, *args):
        books.append(self.lemmas)
        return original(self, *args)

    monkeypatch.setattr(Trail, "verdict", keeping)
    x33 = CicyContext((3, 3))
    component_admissible(CurveComponent(17, 18, 5), x33, 2)
    classifier.admissible_components(x33, 2)
    assert len(books) > 1 and set(books) == {None}
    books.clear()
    for _ in range(2):
        judge_candidate(CurveCandidate((CurveComponent(17, 18, 5),)), x33, 2)
    assert [type(book) for book in books] == [dict, dict] and books[0] is not books[1]
    assert classifier._ruled_38_table in books[0]
    for trail in (Trail(), Trail().route("split")):
        with pytest.raises(TypeError, match="no lemma book cannot read _linkage$"):
            trail.lemma(classifier._linkage)
