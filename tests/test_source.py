"""Source-level checks on the package."""

import ast
import importlib
from pathlib import Path

import pytest

import cicy_bundles

PACKAGE = Path(cicy_bundles.__file__).parent


def test_no_assert_statements():
    # checks that carry the argument must survive python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_lines_at_most_100_characters():
    # a long line hides a join of two sentences or a call that wants wrapping
    found = [
        f"{path.name}:{lineno} ({len(line)})"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert found == []


def test_verdicts_built_in_one_place():
    # every status comes from Trail.verdict
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "verdicts.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "Verdict"
             or getattr(node.func, "attr", None) == "Verdict")
    ]
    assert found == []


def test_no_answer_tables():
    # a value the kernel can compute has no transcribed copy: no module-level
    # dict literal whose values are all int constants
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Dict) and node.value.values
        and all(isinstance(v, ast.Constant) and type(v.value) is int
                for v in node.value.values)
    ]
    assert found == []


def test_disabled_set_read_only_by_trail_recorders():
    # toggle_sweep reuses a verdict whose trail cites no disabled rule: sound
    # only while fire, exclude and hypothesis, which record every rule they
    # find not disabled, alone read the disabled set that Trail.__init__ keeps
    # and Trail.route hands to the route it opens
    allowed = {"disabled": {"Trail.__init__", "Trail.route", "Trail.fire", "Trail.exclude",
                            "Trail.hypothesis"}}
    found = []

    def attribute(node):
        # the attribute a node reads: `x.name`, or `getattr(x, "name")` and kin
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "getattr", "setattr", "delattr"):
            return next((a.value for a in node.args if isinstance(a, ast.Constant)), None)
        return None

    def visit(path, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            name = attribute(child)
            if name in allowed and not (path.name == "verdicts.py" and scope in allowed[name]):
                found.append(f"{path.name}:{child.lineno} .{name} in {scope or 'module'}")
            visit(path, child, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    assert found == []


def test_firings_pass_no_route_value():
    # the route rides on the trail entry: no firing names one among its values
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("fire", "exclude", "hypothesis")
        and any(k.arg == "route" for k in node.keywords)
    ]
    assert found == []


def firing_sites():
    """Every fire, exclude and hypothesis call of the case tree, with its site."""
    for name in ("classifier.py", "constructions.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                    "fire", "exclude", "hypothesis"):
                yield f"{name}:{node.lineno}", node


def test_firing_sites_pass_no_outcome():
    # a site passes a form id and then the form's fields, positionally; the
    # form's decision gives the outcome, so no field is a bool literal, a
    # comparison, a boolean operation, a negation or a bool() call
    def outcome(node):
        return ((isinstance(node, ast.Constant) and type(node.value) is bool)
                or isinstance(node, (ast.Compare, ast.BoolOp))
                or (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not))
                or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bool"))

    sites = list(firing_sites())
    assert len(sites) > 80
    found = [site for site, call in sites
             if call.keywords or any(outcome(node) for arg in call.args[1:]
                                     for node in ast.walk(arg))]
    assert found == []


def test_every_corpus_rule_fires_from_a_site():
    # every form, so every rule, of the corpus is named as a literal by a
    # site that records it by its kind (fire decides an arithmetic form,
    # exclude and hypothesis record an axiom) and, unless the site forwards
    # fields with *, passes as many fields as the form names
    from cicy_bundles.verdicts import FORMS, RULES, RuleKind

    named, wrong = set(), []
    for site, call in firing_sites():
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        for node in ast.walk(call.args[0]):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            form = FORMS[node.value]
            named.add(node.value)
            arithmetic = RULES[form.rule_id].kind is RuleKind.ARITHMETIC
            if arithmetic != (call.func.attr == "fire"):
                wrong.append(f"{site} {call.func.attr}s {node.value}")
            if not starred and len(call.args) - 1 != len(form.names):
                wrong.append(f"{site} passes {len(call.args) - 1} fields to {node.value}")
    assert wrong == []
    assert sorted(set(FORMS) - named) == []
    assert {FORMS[form_id].rule_id for form_id in named} == set(RULES)


def test_witness_lookups_type_no_c2():
    # a survivor's witnesses are keyed on its candidate's own degree or on a
    # c2 the kernel computed, never on a typed c2: a typed key lets a survivor
    # of another degree claim that c2's constructions once a rule is disabled.
    # One lookup names every rank-2 candidate's constructions; the higher-rank
    # shapes and the split route key theirs on the computed invariants
    tree = ast.parse((PACKAGE / "classifier.py").read_text(encoding="utf-8"))

    def lookups(node):
        return [call for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "witnesses_for"]

    keys = sorted((fn.name, ast.unparse(call.args[2]))
                  for fn in tree.body if isinstance(fn, ast.FunctionDef) for call in lookups(fn))
    assert keys == [("_higher_rank_verdicts", "inv.c2"), ("_higher_rank_verdicts", "inv.c2"),
                    ("judge_candidate", "cand.total_degree")]
    assert len(lookups(tree)) == 3


def test_case_tree_judges_take_no_level():
    # only judge_candidate reads the level c1 below the twist loop: the case
    # tree's judges and its four-quadric route do not take it
    tree = ast.parse((PACKAGE / "classifier.py").read_text(encoding="utf-8"))
    judges = {fn.name: [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
              for fn in tree.body if isinstance(fn, ast.FunctionDef)
              and (fn.name.startswith("_judge_") or fn.name == "_four_quadric_route")}
    assert len(judges) == 7
    assert sorted(name for name, args in judges.items() if "c1" in args) == []


def test_no_floating_point():
    # the package promises exact arithmetic: no true division, no float
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
        or (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Constant) and type(node.value) is float)
    ]
    assert found == []


def test_indented_json_written_in_one_place():
    # verdicts.json_text writes every indented JSON text; only verify's two
    # round-trip oracles call the stdlib's indented encoder
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "verify.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        in ("dump", "dumps", "JSONEncoder")
        and any(k.arg == "indent" for k in node.keywords)
    ]
    assert found == []


def test_kernel_call_records_have_one_home():
    # a KernelCall is built only by verdicts.record, and its JSON form, a dict
    # with an "op" key, is written only in verdicts.py
    built, payloads = [], []

    def builds_record(call):
        # `KernelCall(...)`, `x.KernelCall(...)`, `tuple.__new__(KernelCall, ...)`
        # or `KernelCall._make(...)`
        func = call.func
        names = {getattr(func, "id", None), getattr(func, "attr", None)}
        if isinstance(func, ast.Attribute) and func.attr in ("__new__", "_make"):
            names.add(getattr(func.value, "id", None))
            names.update(getattr(a, "id", None) or getattr(a, "attr", None)
                         for a in call.args[:1])
        return "KernelCall" in names

    def visit(path, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            if isinstance(child, ast.Call) and builds_record(child):
                built.append((path.name, inner))
            if isinstance(child, ast.Dict) and any(
                    isinstance(k, ast.Constant) and k.value == "op" for k in child.keys):
                payloads.append((path.name, child.lineno))
            visit(path, child, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    assert built == [("verdicts.py", "record")]
    assert payloads and {name for name, _ in payloads} == {"verdicts.py"}


def test_trail_entries_have_one_home():
    # a TrailEntry is built only by the three recorders of Trail, one per kind
    # of firing, so every firing is recorded under the route it was made on
    built = []

    def builds_entry(call):
        # `TrailEntry(...)`, `x.TrailEntry(...)`, `tuple.__new__(TrailEntry, ...)`
        # or `TrailEntry._make(...)`
        func = call.func
        names = {getattr(func, "id", None), getattr(func, "attr", None)}
        if isinstance(func, ast.Attribute) and func.attr in ("__new__", "_make"):
            names.add(getattr(func.value, "id", None))
            names.update(getattr(a, "id", None) or getattr(a, "attr", None)
                         for a in call.args[:1])
        return "TrailEntry" in names

    def visit(path, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            if isinstance(child, ast.Call) and builds_entry(child):
                built.append((path.name, inner))
            visit(path, child, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    assert built == [("verdicts.py", "Trail.fire"), ("verdicts.py", "Trail.exclude"),
                     ("verdicts.py", "Trail.hypothesis")]


def test_kernel_value_kinds_have_one_home():
    # the codec table holds the one decoder of every argument kind a kernel op
    # takes, and _replay checks no kind inline: it names int, for its
    # exact-int fast path, and no other kind
    from cicy_bundles import verdicts

    kinds = {kind for _, *arg_kinds in verdicts.KERNEL_OPS.values() for kind in arg_kinds}
    missing = [kind.__name__ for kind in kinds
               if not callable(verdicts._CODECS.get(kind, (None, None))[1])]
    assert missing == []
    tree = ast.parse(Path(verdicts.__file__).read_text(encoding="utf-8"))
    (replay,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_replay"]
    named = {getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(replay)}
    assert named & {kind.__name__ for kind in kinds} == {"int"}


def test_audit_beside_record_and_kernels_in_kernel_modules():
    # the audit is apart from the search it checks: only verdicts.py, which
    # writes the payloads, defines the op table, replay and audit, and the
    # search modules read no payload; every recorded kernel is a def of a
    # kernel module, and no kernel module imports the engine beyond chow
    from cicy_bundles.verdicts import KERNEL_OPS

    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}

    def defined(tree):
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
        return names

    homes = {name: sorted(stem for stem, tree in trees.items() if name in defined(tree))
             for name in ("KERNEL_OPS", "_replay", "audit_verdicts")}
    assert homes == dict.fromkeys(homes, ["verdicts"])
    payload_names = {"decode", "encode", "exactly_equal", "payload", "_replay", "KERNEL_OPS"}
    named = {(stem, name) for stem in ("classifier", "constructions")
             for node in ast.walk(trees[stem])
             for name in ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                          else [getattr(node, "id", None), getattr(node, "attr", None)])
             if name in payload_names}
    assert named == set()
    kernel_defs = {stem: {node.name for node in trees[stem].body
                          if isinstance(node, ast.FunctionDef)}
                   for stem in ("bounds", "chow", "ruled")}
    misplaced = [op for op, (module, *_) in KERNEL_OPS.items()
                 if op not in kernel_defs.get(module.__name__.rpartition(".")[2], ())]
    assert misplaced == []
    imports = set()
    for stem in kernel_defs:
        for node in ast.walk(trees[stem]):
            if isinstance(node, ast.ImportFrom) and node.level:
                imports.update((stem, node.module or a.name) for a in node.names)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imports.update((stem, name) for name in
                               [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                               if name.startswith("cicy_bundles"))
    assert imports <= {("bounds", "chow"), ("ruled", "chow")}


def test_cross_call_caches():
    # a cache carries values from one call to the next: the package caches
    # exactly these functions, and each classifier cache returns a tuple
    cached, stray = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorated = {id(dec.func if isinstance(dec, ast.Call) else dec): node
                     for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for dec in node.decorator_list}
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "attr", None) or getattr(node, "id", None)])
            if not {"cache", "lru_cache"} & set(names):
                continue
            if id(node) in decorated:
                cached[f"{path.stem}.{decorated[id(node)].name}"] = decorated[id(node)]
            else:
                stray.append(f"{path.name}:{node.lineno}")
    assert (sorted(cached), stray) == (
        ["classifier._component_grid", "classifier._level_candidates", "verify._paper"], [])
    for name in ("classifier._component_grid", "classifier._level_candidates"):
        assert ast.unparse(cached[name].returns).startswith("tuple["), name


def test_ring_rank_window_and_aliases_computed_in_one_place():
    # the ring's arithmetic is ring_mul and ring_invert, the rank window of a
    # resolution shape is constructions.rank_window, and the degree aliases
    # are read from the contexts: TruncatedClass is a value with no operators,
    # no other function of the case tree reads max_rank_no_trivial, and
    # context_from_label types no table
    chow = {node.name: node for node in ast.parse((PACKAGE / "chow.py").read_text(
        encoding="utf-8")).body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    body = chow["TruncatedClass"].body
    bound = {node.name for node in body if isinstance(node, ast.FunctionDef)} | {
        target.id for node in body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)}
    assert bound.isdisjoint({"__add__", "__sub__", "__mul__", "invert"})
    assert not any(isinstance(node, ast.Dict) for node in ast.walk(chow["context_from_label"]))
    readers = []

    def visit(path, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            if "max_rank_no_trivial" in (getattr(child, "id", None), getattr(child, "attr", None)):
                readers.append(f"{path.stem}.{scope or 'module'}")
            visit(path, child, inner)

    for name in ("classifier.py", "constructions.py"):
        visit(PACKAGE / name, ast.parse((PACKAGE / name).read_text(encoding="utf-8")), "")
    assert readers == ["constructions.rank_window"]


def test_records_contexts_and_quartic_cut_said_once():
    # a kernel record is a tuple, whose JSON form is its fields in order, so
    # the codec table holds no encoder for one; the five threefolds are built
    # from KNOWN_MULTIDEGREES, not typed; the quartic-cut test is one form
    from cicy_bundles import bounds, chow, ruled, verdicts

    for record in (chow.BundleInvariants, ruled.GenusSearch, bounds.CurveInvariants):
        assert issubclass(record, tuple)
    encoders = [kind.__name__ for kind, (encoder, _) in verdicts._CODECS.items()
                if issubclass(kind, tuple) and encoder is not None]
    assert encoders == []
    assert "CicyContext((" not in (PACKAGE / "chow.py").read_text(encoding="utf-8")
    assert [ctx.multidegree for ctx in chow.ALL_CONTEXTS] == list(chow.KNOWN_MULTIDEGREES)
    assert [form_id for form_id, form in verdicts.FORMS.items()
            if form.rule_id == "R-x24-mod4"] == ["R-x24-mod4"]


#: The package's public names: 63 exported names and six submodules.
PUBLIC = set("""
    ALL_CONTEXTS BundleInvariants CicyContext ClassificationResult CurveCandidate
    CurveComponent DivisorClass GenusSearch HIGHER_RANK LiaisonError NotInvertibleError
    ParityError QUINTIC RANK2 REGISTRY Rule RuleKind RuledSurface SearchNotFiniteError
    Status TruncatedClass UnsupportedBoundError UnsupportedClassificationError Verdict
    X2222 X223 X24 X33 adjunction_genus audit_verdicts bounds canonical_class
    castelnuovo_pi chern_from_resolution chern_of_extension chi_rank2 chow
    ci_curve_invariants classifier classify component_admissible constructions
    context_from_label disjointness_obstruction eliminate_by_genus embedding_degree
    enumerate_candidates genus_quadratic h0_line_bundle incidence_dimension_check
    intersect judge_candidate liaison_solve max_curve_degree max_rank_no_trivial pi_one
    plane_genus registry_names required_genus ring_invert ring_mul rule_report ruled
    serialize_registry twist_rank2 union_genus validate_all validate_construction verdicts
""".split())


def test_lazy_exports():
    # each exported name resolves, on first use, to the object its submodule
    # holds under that name, and each exported submodule to itself
    exports = cicy_bundles._EXPORTS
    assert (len(PUBLIC), len(exports)) == (69, 63)
    assert cicy_bundles.__all__ == sorted(PUBLIC)
    assert PUBLIC <= set(dir(cicy_bundles))
    for name in cicy_bundles.__all__:
        if name in exports:
            expected = getattr(importlib.import_module(f"cicy_bundles.{exports[name]}"), name)
        else:
            expected = importlib.import_module(f"cicy_bundles.{name}")
        assert getattr(cicy_bundles, name) is expected, name
    with pytest.raises(AttributeError):
        cicy_bundles.no_such_name  # noqa: B018
    namespace: dict = {}
    exec("from cicy_bundles import *", namespace)
    assert PUBLIC <= namespace.keys()


def test_candidates_built_only_through_their_constructors():
    # a frozen curve is finished in its own __post_init__ and nowhere else:
    # constructions.py writes into an object only there, and never makes one
    # that skips the constructor
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            if (isinstance(child, ast.Attribute) and child.attr in ("__setattr__", "__new__")
                    and getattr(child.value, "id", None) == "object"):
                found.append((child.attr, inner))
            visit(child, inner)

    visit(ast.parse((PACKAGE / "constructions.py").read_text(encoding="utf-8")), "")
    assert {name for name, _ in found} == {"__setattr__"}
    assert {scope for _, scope in found} == {"CurveComponent.__post_init__",
                                            "CurveCandidate.__post_init__"}
