"""The three closed-loop workloads and their correctness gates.

Each workload runs one operation at a time from a single thread: a round of
report and audit requests, an axiom-toggle sweep, or a full verify pass.
The seed decides only the request order and which axiom pairs a sweep
disables; the work per round and per whole sweep cycle is the same for
every seed.  Every operation is gated against the expected table below,
which is taken from the paper's results table and kept here on purpose: it
must not be imported from the engine, whose own copies are what a change
might break.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from itertools import combinations

from cicy_bundles import classifier, verify
from cicy_bundles.chow import context_from_label
from cicy_bundles.constructions import CurveCandidate, required_genus
from cicy_bundles.verdicts import RULES, RuleKind, Status
from refkernel import Speed

_clock = time.perf_counter

RANK2 = classifier.RANK2
HIGHER = classifier.HIGHER_RANK

# The paper's results table (PAPER.md, "Results it reproduces").
EXPECTED: dict[tuple[str, str], dict] = {
    ("5", RANK2): {"c2": [0, 5, 10], "pairs": [(1, 0), (2, 0), (2, 5), (2, 10)],
                   "unresolved": []},
    ("5", HIGHER): {"c2": [0, 5, 10, 15, 20], "unresolved": [],
                    "windows": {20: (3, 14), 15: (3, 8), 10: (3, 5)}},
    ("2,4", RANK2): {"c2": [0, 4, 8, 11, 16], "unresolved": [16]},
    ("3,3", RANK2): {"c2": [0, 9, 12, 15, 16, 18], "unresolved": [16]},
}

REPORT_CASES = (("5", RANK2), ("2,4", RANK2), ("3,3", RANK2), ("5", HIGHER))
SWEEP_THREEFOLDS = ("5", "2,4", "3,3")
PAIR_SAMPLE = 27  # axiom pairs disabled per sweep; a cycle covers every pair once


def case_name(case: tuple[str, str]) -> str:
    label, regime = case
    return "x" + label.replace(",", "") + ("_rank2" if regime == RANK2 else "_higher")


def table_problems(case: tuple[str, str], summary: dict) -> list[str]:
    """Differences between a classification summary (``to_dict`` or report
    shape) and the paper's table, including a witness for every c2."""
    exp = EXPECTED[case]
    where = f"{case[0]}/{case[1]}"
    problems = []
    if summary["admissible_c2"] != exp["c2"]:
        problems.append(f"{where}: admissible c2 {summary['admissible_c2']} != {exp['c2']}")
    if "pairs" in exp and [tuple(p) for p in summary["admissible_pairs"]] != exp["pairs"]:
        problems.append(f"{where}: pairs {summary['admissible_pairs']} != {exp['pairs']}")
    if summary["unresolved"] != exp["unresolved"]:
        problems.append(f"{where}: unresolved {summary['unresolved']} != {exp['unresolved']}")
    windows = summary.get("rank_windows", {})
    for c2, window in exp.get("windows", {}).items():
        if tuple(windows.get(str(c2), ())) != window:
            problems.append(f"{where}: rank window at c2={c2} is "
                            f"{windows.get(str(c2))}, expected {list(window)}")
    for c2 in summary["admissible_c2"]:
        if not summary["witnesses"].get(str(c2)):
            problems.append(f"{where}: no witness for c2={c2}")
    return problems


class Op:
    """Outcome of one workload operation.

    ``seconds`` is the wall time of its engine calls; ``units`` is the same
    time in reference-kernel units: each call's time divided by the mean
    kernel time of the sample before it and the samples taken during it.
    Gates run outside both.
    """

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.seconds = 0.0
        self.units = 0.0
        self.calls = 0
        self.failed = 0
        self.problems: list[str] = []

    def timed(self, fn, *args, **kwargs):
        """Time one engine call and let any exception through."""
        samples = self.speed.samples
        first = len(samples)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            during = [s for s in samples[first:] if start <= s[0] and s[1] <= end]
            elapsed = end - start - sum(e - b for b, e, _ in during)
            refs = [samples[first - 1][2]] + [ref for _, _, ref in during]
            self.seconds += elapsed
            self.units += elapsed * len(refs) / sum(refs)

    def call(self, fn, *args, **kwargs):
        """One gated engine call; an exception fails it and returns None."""
        self.calls += 1
        try:
            return self.timed(fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            self.fail([f"{getattr(fn, '__name__', fn)} raised {type(exc).__name__}: {exc}"])
            return None

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


class Reports:
    """Rounds of 8 requests in seeded order: a report and an audit per case.

    A report is ``rule_report`` -> ``report_json`` -> ``report_markdown``,
    the ``classify --format json|markdown`` path; an audit is ``classify`` ->
    ``audit_verdicts``.  Every report must be byte-identical to the first one
    of its case in the run, and the first must survive a JSON round-trip.
    """

    cycle_ops = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.contexts = {label: context_from_label(label) for label, _ in REPORT_CASES}
        self.requests = [(kind, case) for case in REPORT_CASES for kind in ("report", "audit")]
        self.first: dict[tuple[str, str], tuple[str, str]] = {}

    def restart_cycle(self) -> None:
        pass

    def run(self, speed: Speed, tracer=None) -> Op:
        op = Op(speed)
        order = list(self.requests)
        self.rng.shuffle(order)
        for kind, case in order:
            ctx = self.contexts[case[0]]
            if kind == "report":
                self._report(op, case, ctx)
            else:
                self._audit(op, case, ctx)
        return op

    def _report(self, op: Op, case, ctx) -> None:
        def build():
            report = classifier.rule_report(ctx, 2, case[1])
            return report, classifier.report_json(report), classifier.report_markdown(report)

        built = op.call(build)
        if built is None:
            return
        report, text, markdown = built
        problems = table_problems(case, report)
        if case not in self.first:
            if json.dumps(json.loads(text), indent=2) != text:
                problems.append(f"{case_name(case)}: JSON round-trip changes the bytes")
            self.first[case] = (text, markdown)
        elif (text, markdown) != self.first[case]:
            problems.append(f"{case_name(case)}: report bytes differ from the first run")
        if problems:
            op.fail(problems)

    def _audit(self, op: Op, case, ctx) -> None:
        def audit():
            result = classifier.classify(ctx, 2, case[1])
            return result, classifier.audit_verdicts(result.verdicts + result.component_verdicts)

        done = op.call(audit)
        if done is None:
            return
        result, mismatches = done
        problems = table_problems(case, result.to_dict())
        problems += [f"{case_name(case)}: audit mismatch {m}" for m in mismatches]
        if problems:
            op.fail(problems)

    def digests(self) -> dict[str, tuple[int, int]]:
        """JSON report size and the first 48 bits of its sha256, per case."""
        out = {}
        for case in REPORT_CASES:
            text = self.first.get(case, ("", ""))[0].encode("utf-8")
            out[case_name(case)] = (len(text), int(hashlib.sha256(text).hexdigest()[:12], 16))
        return out


def _survivors(result) -> set:
    return {v.candidate.triples() for v in result.verdicts
            if v.survives and isinstance(v.candidate, CurveCandidate)}


def _requeue(candidate: CurveCandidate, ctx, disabled: frozenset):
    """Judge a candidate again at the c1 whose genus regime it follows."""
    for c1 in (1, 2):
        if all((c1 * comp.d) % 2 == 0 and required_genus(c1, comp.d) == comp.g
               for comp in candidate.components):
            return classifier.judge_candidate(candidate, ctx, c1, disabled)
    raise ValueError(f"{candidate.label()} follows no twist regime")


class AxiomSweep:
    """The audit's axiom-toggle loop on the quintic, (2,4) and (3,3).

    One sweep runs, per threefold: the base ``classify(ctx, 2)``, one
    ``classify`` per single disabled axiom, one per sampled axiom pair, and a
    ``judge_candidate`` requeue of every ELIMINATED candidate with its
    failing rules disabled.  The pairs come from a seeded permutation of all
    axiom pairs, PAIR_SAMPLE per sweep, so a cycle of sweeps disables every
    pair exactly once and per-cycle work does not depend on the seed.
    It never builds, serializes or audits a report.

    Two engine findings show in its counters (neither is fixed here):
    ``classify`` calls ``admissible_components`` twice per c1, once itself
    and once through ``enumerate_candidates``, so
    ``constructions.component_admissible.calls`` is twice the component
    grid; and ``enumerate_candidates`` ignores ``disabled``, so disabling
    A-spannedness-h0 lets (6,4,3) survive the component filter on (2,4), and
    (6,4,3) and (8,5,3) on (3,3), yet no new candidate is judged.  Fixing
    the second raises this workload's work.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        axioms = sorted(r.id for r in RULES.values() if r.kind is RuleKind.AXIOM)
        self.singles = [frozenset({a}) for a in axioms]
        self.pairs = [frozenset(p) for p in combinations(axioms, 2)]
        self.cycle_ops = math.ceil(len(self.pairs) / PAIR_SAMPLE)
        self.contexts = {label: context_from_label(label) for label in SWEEP_THREEFOLDS}
        self._perm: list[frozenset] = []
        self._next = 0

    def restart_cycle(self) -> None:
        self._next = len(self._perm)

    def _chunk(self) -> list[frozenset]:
        if self._next >= len(self._perm):
            self._perm = list(self.pairs)
            self.rng.shuffle(self._perm)
            self._next = 0
        chunk = self._perm[self._next:self._next + PAIR_SAMPLE]
        self._next += PAIR_SAMPLE
        return chunk

    def run(self, speed: Speed, tracer=None) -> Op:
        op = Op(speed)
        toggles = self.singles + self._chunk()
        for label in SWEEP_THREEFOLDS:
            ctx = self.contexts[label]
            order = list(toggles)
            self.rng.shuffle(order)
            self._sweep(op, label, ctx, order)
        return op

    def _sweep(self, op: Op, label: str, ctx, toggles: list[frozenset]) -> None:
        base = op.call(classifier.classify, ctx, 2)
        if base is None:
            op.calls += len(toggles)
            op.failed += len(toggles)
            op.problems.append(f"{label}: no base classification, {len(toggles)} toggles unchecked")
            return
        problems = table_problems((label, RANK2), base.to_dict())
        if problems:
            op.fail(problems)
        kept = _survivors(base)
        for disabled in toggles:
            result = op.call(classifier.classify, ctx, 2, disabled=disabled)
            if result is not None and not kept <= _survivors(result):
                op.fail([f"{label}: disabling {sorted(disabled)} shrinks the survivors"])
        for verdict in base.verdicts:
            if verdict.status is not Status.ELIMINATED:
                continue
            failing = frozenset(e.rule_id for e in verdict.trail if e.outcome == "fail")
            cand = verdict.candidate
            requeued = op.call(_requeue, cand, ctx, failing)
            if requeued is not None and requeued.status is Status.ELIMINATED:
                op.fail([f"{label}: {cand.label()} stays ELIMINATED without {sorted(failing)}"])


class VerifyAll:
    """One full ``verify.run_checks()`` pass, what ``verify --all`` runs."""

    cycle_ops = 1

    def __init__(self, seed: int) -> None:
        pass

    def restart_cycle(self) -> None:
        pass

    def run(self, speed: Speed, tracer=None) -> Op:
        op = Op(speed)
        checks = verify.run_checks()
        step = (lambda: next(checks, None)) if tracer is None else (
            lambda: _traced_step(tracer, checks))
        results = []
        try:
            while (item := op.timed(step)) is not None:
                results.append(item)
        except Exception as exc:  # noqa: BLE001 - a raise ends the pass as a failure
            op.fail([f"verify pass raised {type(exc).__name__}: {exc}"])
        op.calls = max(len(results), 1)
        if not results:
            op.fail(["verify ran no checks"])
        for mod, name, ok, detail in results:
            if not ok:
                op.fail([f"verify {mod}/{name}: {detail}"])
        return op


def _traced_step(tracer, checks):
    """Run the next check inside a span named after it; None at the end."""
    tracer.enter("verify.check")
    item = next(checks, None)
    if item is None:
        tracer.discard()
    else:
        tracer.exit(f"verify.check.{item[1]}")
    return item


WORKLOADS = {"reports": Reports, "axiom-sweep": AxiomSweep, "verify-all": VerifyAll}
