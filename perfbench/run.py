"""The repository's benchmark: one command, three closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload reports --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``reports`` (report and audit requests),
``axiom-sweep`` (the axiom-toggle loop) and ``verify-all`` (one full
``verify.run_checks()`` pass per operation).  Each runs one operation at a
time from this single process and thread, for ``--seconds`` after one
warm-up operation, and gates every output for correctness.

Shared hosts can swing twofold in speed over stretches of seconds (measured
on a 2-vCPU Intel Xeon virtual machine), so operation costs are reported in
reference units: each engine call's wall time divided by the time of a fixed
kernel sampled alongside it (refkernel.py).  Set-up time is measured inside
fresh child interpreters (setup_child.py) spread over the run, and put on the
seconds scale of the fastest reference time the run saw.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced (in whole sweep cycles) and prints the
per-layer metrics, per operation, plus the tracing overhead.  The last line
of standard output is the result JSON; the line before it records the
Python version, git revision, CPU count, seed, sample counts and set-up
quartiles.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CHILDREN = 11
CHI_EXPECTED = "10\n"  # chi of a rank-2 bundle with (c1, c2) = (2, 5) on the quintic

IMPORT_MODULES = (
    "cicy_bundles", "cicy_bundles.bounds", "cicy_bundles.chow",
    "cicy_bundles.classifier", "cicy_bundles.cli", "cicy_bundles.constructions",
    "cicy_bundles.ruled", "cicy_bundles.verdicts", "cicy_bundles.verify",
)
VERIFY_CHECKS = (
    "axiom-toggle-monotone", "ring-inverse-roundtrip-1000", "determinism",
    "trail-audit", "resolution-additivity", "no-hidden-eliminations",
)
CALL_LAYERS = (
    "ruled.eliminate_by_genus", "classifier.classify",
    "classifier.admissible_components", "classifier.enumerate_candidates",
    "classifier.judge_candidate", "constructions.component_admissible",
    "constructions.validate_construction", "chow.ring_invert", "chow.ring_mul",
    "chow.chern_from_resolution",
)
# per-layer metrics read as a span's self time, by span name
SELF_TIME = {
    "classifier.rule_report.self_ms": "classifier.rule_report",
    "classifier.report_json.ms": "classifier.report_json",
    "classifier.report_markdown.ms": "classifier.report_markdown",
    "classifier.audit_verdicts.ms": "classifier.audit_verdicts",
}
COUNTS = (
    "ruled.eliminate_by_genus.a_scanned", "ruled.eliminate_by_genus.hits",
    "classifier.candidates_enumerated", "classifier.verdicts.survives",
    "classifier.verdicts.eliminated", "classifier.verdicts.axiom_eliminated",
    "classifier.audit.checks_replayed", "verdicts.trail_entries",
) + tuple(f"verdicts.firings.{kind}.{outcome}"
          for kind in ("arithmetic", "axiom")
          for outcome in ("pass", "fail", "hypothesis"))

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_ref": "ref", "op_p90_ref": "ref",
    "calls_per_kref": "1/kref", "ok_ops_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    from workloads import REPORT_CASES, case_name

    units = {}
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.ms"] = "ms"
    for name in COUNTS:
        units[name] = "count"
    for name in SELF_TIME:
        units[name] = "ms"
    units["classifier.report_json.bytes"] = "bytes"
    for check in VERIFY_CHECKS:
        units[f"verify.check.{check}.ms"] = "ms"
    for module in IMPORT_MODULES:
        units[f"setup.import_ms.{module}"] = "ms"
    units["setup.first_chi_ms"] = "ms"
    for case in REPORT_CASES:
        units[f"report.{case_name(case)}.json_bytes"] = "bytes"
        units[f"report.{case_name(case)}.json_sha256"] = "hash"
    units["trace.untraced_op_ms"] = "ms"
    units["trace.untraced_op_p90_ms"] = "ms"
    units["trace.traced_op_ms"] = "ms"
    units["trace.overhead_frac"] = "frac"
    units["speed.ref_best_us"] = "us"
    units["speed.ref_p50_us"] = "us"
    return units


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, op) -> None:
        self.attempted += op.calls
        self.failed += op.failed
        self.problems.extend(op.problems)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def git_rev() -> str:
    """The checkout's commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


class SetupProbe:
    """Cold starts in fresh interpreters, each timed from inside the child."""

    def __init__(self, count: int, importtime: bool, tally: Tally) -> None:
        self.count = count
        self.tally = tally
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
                    str(HERE / "setup_child.py")]
        self.started = 0
        self.rows: list[dict] = []
        self.imports: dict[str, list[float]] = defaultdict(list)

    def run_one(self) -> None:
        self.started += 1
        self.tally.attempted += 1
        try:
            proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=60)
            row = json.loads(proc.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
            self.tally.fail(f"setup child failed: {type(exc).__name__}: {exc}")
            return
        if proc.returncode or row["code"] != 0 or row["output"] != CHI_EXPECTED:
            self.tally.fail(f"setup child: exit {proc.returncode}, chi printed "
                            f"{row['output']!r}, expected {CHI_EXPECTED!r}")
            return
        self.rows.append(row)
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match and match.group(2) in IMPORT_MODULES:
                self.imports[match.group(2)].append(int(match.group(1)) / 1000)

    def catch_up(self, fraction: float) -> None:
        """Start the children due by this fraction of the run."""
        while self.started < self.count and self.started <= fraction * self.count:
            self.run_one()

    def seconds(self, ref_best: float) -> list[float]:
        """Each child's set-up time at the reference speed ``ref_best``."""
        return [row["total_s"] / row["ref_s"] * ref_best for row in self.rows]


def measure(workload, speed, seconds: float, tally: Tally, tracer=None,
            whole_cycles: bool = False, probe: SetupProbe | None = None) -> list:
    """Run operations until ``seconds`` pass; returns the operations."""
    ops = []
    gc.collect()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.keep_spans = not ops
            tracer.enter("op")
        with speed:
            op = workload.run(speed, tracer)
        if tracer is not None:
            tracer.exit()
        tally.add(op)
        ops.append(op)
        elapsed = time.perf_counter() - start
        if probe is not None:
            probe.catch_up(elapsed / seconds)
        if elapsed >= seconds and (not whole_cycles or len(ops) % workload.cycle_ops == 0):
            if probe is not None:
                probe.catch_up(1.0)
            return ops


def layer_metrics(tracer, ops: int, probe: SetupProbe, workload, speed,
                  untraced: list, traced: list) -> dict[str, float]:
    values: dict[str, float] = {}
    counts = tracer.totals()
    for layer in CALL_LAYERS:
        calls, _, self_s = tracer.stat(layer)
        values[f"{layer}.calls"] = calls / ops
        values[f"{layer}.ms"] = self_s * 1000 / ops
    for name in COUNTS:
        values[name] = counts[name] / ops
    for name, span in SELF_TIME.items():
        values[name] = tracer.stat(span)[2] * 1000 / ops
    values["classifier.report_json.bytes"] = counts["classifier.report_json.bytes"] / ops
    for check in VERIFY_CHECKS:
        values[f"verify.check.{check}.ms"] = tracer.stat(f"verify.check.{check}")[1] * 1000 / ops
    for module in IMPORT_MODULES:
        values[f"setup.import_ms.{module}"] = median(probe.imports[module])
    values["setup.first_chi_ms"] = median([row["chi_s"] for row in probe.rows]) * 1000
    digests = workload.digests() if hasattr(workload, "digests") else {}
    from workloads import REPORT_CASES, case_name

    for case in REPORT_CASES:
        size, sha = digests.get(case_name(case), (0, 0))
        values[f"report.{case_name(case)}.json_bytes"] = size
        values[f"report.{case_name(case)}.json_sha256"] = sha
    raw = [op.seconds * 1000 for op in untraced]
    values["trace.untraced_op_ms"] = median(raw)
    values["trace.untraced_op_p90_ms"] = percentile(raw, 0.9)
    values["trace.traced_op_ms"] = median([op.seconds * 1000 for op in traced])
    values["trace.overhead_frac"] = (median([op.units for op in traced])
                                     / median([op.units for op in untraced]) - 1)
    values["speed.ref_best_us"] = min(speed.refs()) * 1e6
    values["speed.ref_p50_us"] = median(speed.refs()) * 1e6
    return values


def write_trace(meta: dict, tracer, ops: int) -> Path:
    """Aggregates, counts and the first traced operation's spans, as JSON."""
    origin = tracer.spans[0][3] if tracer.spans else 0.0
    payload = {
        "meta": meta,
        "ops": ops,
        "layers": {name: {"calls": calls, "busy_ms": busy * 1000, "self_ms": self_s * 1000}
                   for name, (calls, busy, self_s) in sorted(tracer.stats.items())},
        "counts": dict(sorted(tracer.totals().items())),
        "span_fields": ["id", "parent", "name", "start_ms", "end_ms"],
        "spans": [[i, p, n, (s - origin) * 1000, (e - origin) * 1000]
                  for i, p, n, s, e in tracer.spans],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{meta['workload']}-seed{meta['seed']}.json"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reports", "axiom-sweep", "verify-all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("error: refusing to run under python -O: the engine's asserts carry "
              "correctness and -O strips them", file=sys.stderr)
        return 2
    if not (SRC / "cicy_bundles" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from refkernel import Speed
    from tracing import Tracer, install, uninstall
    from workloads import WORKLOADS

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(), "git_rev": git_rev(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed)
    speed = Speed()
    probe = SetupProbe(SETUP_CHILDREN, bool(args.trace), tally)
    with speed:
        tally.add(workload.run(speed))  # warm-up; also the reference report bytes

    if args.trace:
        ops = measure(workload, speed, args.seconds / 2, tally, probe=probe)
        tracer = Tracer()
        patches = install(tracer)
        workload.restart_cycle()
        try:
            traced = measure(workload, speed, args.seconds / 2, tally, tracer,
                             whole_cycles=True)
        finally:
            uninstall(patches)
        values = layer_metrics(tracer, len(traced), probe, workload, speed, ops, traced)
        units = per_layer_units()
        meta["trace_file"] = str(write_trace(meta, tracer, len(traced)).relative_to(ROOT))
    else:
        ops = measure(workload, speed, args.seconds, tally, probe=probe)
        costs = [op.units for op in ops]
        values = {
            "setup_s": median(probe.seconds(min(speed.refs()))),
            "op_p50_ref": median(costs),
            "op_p90_ref": percentile(costs, 0.9),
            "calls_per_kref": 1000 * sum(op.calls for op in ops) / sum(costs),
            "ok_ops_frac": 1 - tally.failed / tally.attempted,
        }
        units = END_TO_END_UNITS

    for problem in tally.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    setup = probe.seconds(min(speed.refs()))
    meta.update(ops=len(ops), attempted=tally.attempted, failed=tally.failed,
                op_p50_ms=median([op.seconds * 1000 for op in ops]),
                ref_best_us=min(speed.refs()) * 1e6, ref_samples=len(speed.samples),
                setup_children=len(setup),
                setup_quartiles_s=statistics.quantiles(setup, n=4) if len(setup) > 1 else setup)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
