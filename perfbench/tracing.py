"""Span tracing around the engine's public entry points.

The tracer is installed from outside the package: it replaces each traced
function by a wrapper in every ``cicy_bundles`` module that holds a reference
to it, so calls are seen exactly as the calling module makes them (for
example ``classifier.eliminate_by_genus`` as well as
``verify.eliminate_by_genus``).  ``uninstall`` puts the originals back.

A span records name, start, end and parent.  Per-name busy time, self time
(busy time minus the time covered by child spans) and call counts are
aggregated as spans close; raw spans are kept in memory only while
``keep_spans`` is set, and are written out by the caller at the end.
Rule firings happen over 100k times per sweep, so they are never wrapped:
the trails of the verdicts the traced calls return are queued, and counted
in one pass once the outermost traced call has returned, outside every span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from itertools import chain
from operator import attrgetter

from cicy_bundles.constructions import CurveCandidate
from cicy_bundles.verdicts import RULES

_clock = time.perf_counter
_rule_and_outcome = attrgetter("rule_id", "outcome")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, busy s, self s]
        self.counts: Counter[str] = Counter()
        self.firings: Counter[tuple[str, str]] = Counter()  # (rule id, outcome)
        self.trails: list[list] = []  # queued, not yet counted
        self.depth = 0  # traced calls open
        self.keep_spans = False
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._next_id = 1

    def enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0, self._next_id])
        self._next_id += 1

    def exit(self, name: str | None = None) -> None:
        """Close the innermost span, optionally renaming it."""
        end = _clock()
        opened, start, child, span_id = self._stack.pop()
        name = name or opened
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        parent = 0
        if self._stack:
            outer = self._stack[-1]
            outer[2] += duration
            parent = outer[3]
        if self.keep_spans:
            self.spans.append((span_id, parent, name, start, end))

    def discard(self) -> None:
        """Drop the innermost span without recording it."""
        self._stack.pop()

    def stat(self, name: str) -> list:
        return self.stats.get(name, [0, 0.0, 0.0])

    def count_trails(self) -> None:
        self.firings.update(map(_rule_and_outcome, chain.from_iterable(self.trails)))
        self.counts["verdicts.trail_entries"] += sum(map(len, self.trails))
        self.trails.clear()

    def totals(self) -> Counter[str]:
        """The counters, with firings summed by rule kind and outcome."""
        totals = Counter(self.counts)
        for (rule_id, outcome), n in self.firings.items():
            totals[f"verdicts.firings.{RULES[rule_id].kind.name.lower()}.{outcome}"] += n
        return totals


def _timed(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        tracer.depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.depth -= 1
            tracer.exit()
        if after is not None:
            after(tracer, args, result)
        if not tracer.depth and tracer.trails:
            tracer.count_trails()
        return result

    return wrapper


def _count_search(tracer, args, hits) -> None:
    search = args[0]
    tracer.counts["ruled.eliminate_by_genus.a_scanned"] += 2 * search.box + 1
    tracer.counts["ruled.eliminate_by_genus.hits"] += len(hits)


def _count_shapes(tracer, args, result) -> None:
    """Higher-rank shape verdicts come from no other traced call."""
    tracer.trails.extend(v.trail for v in result.verdicts
                         if not isinstance(v.candidate, CurveCandidate))


def _count_candidates(tracer, args, candidates) -> None:
    tracer.counts["classifier.candidates_enumerated"] += len(candidates)


def _count_verdict(tracer, args, verdict) -> None:
    tracer.counts[f"classifier.verdicts.{verdict.status.name.lower()}"] += 1
    tracer.trails.append(verdict.trail)


def _count_replayed(tracer, args, mismatches) -> None:
    tracer.counts["classifier.audit.checks_replayed"] += sum(
        len(entry.values.get("checks", ())) for v in args[0] for entry in v.trail
    )


def _count_component(tracer, args, verdict) -> None:
    tracer.trails.append(verdict.trail)


def _count_json(tracer, args, text) -> None:
    tracer.counts["classifier.report_json.bytes"] += len(text.encode("utf-8"))


# (defining module, function, span name, counter run after each call)
TIMED = (
    ("cicy_bundles.ruled", "eliminate_by_genus", "ruled.eliminate_by_genus", _count_search),
    ("cicy_bundles.classifier", "classify", "classifier.classify", _count_shapes),
    ("cicy_bundles.classifier", "admissible_components",
     "classifier.admissible_components", None),
    ("cicy_bundles.classifier", "enumerate_candidates",
     "classifier.enumerate_candidates", _count_candidates),
    ("cicy_bundles.classifier", "judge_candidate", "classifier.judge_candidate",
     _count_verdict),
    ("cicy_bundles.classifier", "rule_report", "classifier.rule_report", None),
    ("cicy_bundles.classifier", "report_json", "classifier.report_json", _count_json),
    ("cicy_bundles.classifier", "report_markdown", "classifier.report_markdown", None),
    ("cicy_bundles.classifier", "audit_verdicts", "classifier.audit_verdicts",
     _count_replayed),
    ("cicy_bundles.constructions", "component_admissible",
     "constructions.component_admissible", _count_component),
    ("cicy_bundles.constructions", "validate_construction",
     "constructions.validate_construction", None),
    ("cicy_bundles.chow", "ring_invert", "chow.ring_invert", None),
    ("cicy_bundles.chow", "ring_mul", "chow.ring_mul", None),
    ("cicy_bundles.chow", "chern_from_resolution", "chow.chern_from_resolution", None),
)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced entry point; returns the patches for ``uninstall``."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "cicy_bundles"
                                     or name.startswith("cicy_bundles."))]
    patches: list[tuple[object, str, object]] = []
    for owner, attr, span, after in TIMED:
        original = getattr(sys.modules[owner], attr)
        wrapper = _timed(tracer, span, original, after)
        for module in modules:
            if getattr(module, attr, None) is original:
                patches.append((module, attr, original))
                setattr(module, attr, wrapper)
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for target, attr, original in reversed(patches):
        setattr(target, attr, original)
