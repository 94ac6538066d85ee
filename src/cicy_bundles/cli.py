"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Threefolds
are addressed by multidegree ("5", "2,4", "3,3", "2,2,3", "2,2,2,2"); the
degree aliases X5/X8/X9/X12/X16 are accepted where unambiguous.  Setting
CICY_BUNDLES_LAX=1 relaxes threefold validation to the Calabi-Yau condition.

Each command imports the engine modules it uses when it runs, so `chi` loads
`chow` alone.
"""

from __future__ import annotations

import argparse
import os
import sys

from .chow import CicyContext, chi_rank2, context_from_label, h0_line_bundle


def _strict() -> bool:
    return os.environ.get("CICY_BUNDLES_LAX", "").strip() not in ("1", "true", "yes")


def _context(label: str) -> CicyContext:
    return context_from_label(label, strict=_strict())


def _divisor(text: str):
    from .ruled import DivisorClass

    parts = text.replace(" ", "").split(",")
    if len(parts) != 2:
        raise ValueError(f"divisor class must be 'a,b', got {text!r}")
    return DivisorClass(int(parts[0]), int(parts[1]))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)


def cmd_chi(args: argparse.Namespace) -> int:
    ctx = _context(args.threefold)
    print(chi_rank2(ctx, args.c1, args.c2))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    from . import classifier

    ctx = _context(args.threefold)
    regime = classifier.RANK2 if args.rank == "2" else classifier.HIGHER_RANK
    result = classifier.classify(ctx, args.c1_max, regime)
    if args.format == "json":
        _emit(classifier.report_json(result.report()), args.out)
    elif args.format == "markdown":
        _emit(classifier.report_markdown(result.report()), args.out)
    else:
        summary = result.to_dict()
        lines = [
            f"threefold: {summary['threefold']}",
            f"rank regime: {summary['rank_regime']} (c1 <= {summary['c1']})",
            "admissible c2: " + " ".join(map(str, summary["admissible_c2"])),
            "pairs: " + " ".join(f"({a},{b})" for a, b in summary["admissible_pairs"]),
            "unresolved: " + (" ".join(map(str, summary["unresolved"])) or "none"),
        ]
        for c2, names in summary["witnesses"].items():
            lines.append(f"witness c2={c2}: {', '.join(names)}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    module = None if args.all else args.module
    if module is not None and module not in verify.module_names():
        raise ValueError(f"unknown module {module!r}; valid modules: "
                         + ", ".join(verify.module_names()))
    ok_count = 0
    failures = []
    for mod, name, ok, detail in verify.run_checks(module):
        tag = "PASS" if ok else "FAIL"
        print(f"{tag} {mod}/{name}: {detail}")
        if ok:
            ok_count += 1
        else:
            failures.append(f"{mod}/{name}")
    print(f"{ok_count + len(failures)} checks, {len(failures)} failures")
    if failures:
        print("failing: " + " ".join(failures))
        return 1
    return 0


def cmd_registry(args: argparse.Namespace) -> int:
    from . import constructions

    if args.validate:
        try:
            reports = constructions.validate_all()
        except constructions.RegistryValidationError as exc:
            print(f"FAIL {exc}", file=sys.stderr)
            return 1
        print(f"PASS {len(reports)} registry entries validated")
        return 0
    _emit(constructions.serialize_registry(), args.out)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    if args.query_command in ("pi", "pi1"):
        from . import bounds

        bound = bounds.castelnuovo_pi if args.query_command == "pi" else bounds.pi_one
        print(bound(args.d, args.r))
    elif args.query_command in ("hirzebruch-genus", "intersect"):
        from . import ruled

        surface = ruled.RuledSurface(args.e, args.q)
        if args.query_command == "intersect":
            print(ruled.intersect(_divisor(args.c1), _divisor(args.c2), surface))
        else:
            print(ruled.adjunction_genus(_divisor(args.divisor_class), surface))
    elif args.query_command == "liaison":
        from .bounds import liaison_solve

        print(liaison_solve(args.total, args.omega, args.target, args.cut))
    elif args.query_command == "h0":
        print(h0_line_bundle(_context(args.threefold), args.t))
    else:  # pragma: no cover - argparse guards the choices
        raise ValueError(f"unknown query {args.query_command!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cicy-bundles",
        description="Exact-arithmetic verification and classification engine "
        "for spanned bundles of low first Chern class on the five "
        "complete-intersection Calabi-Yau threefolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chi = sub.add_parser("chi", help="Euler characteristic of a rank-2 bundle")
    p_chi.add_argument("--threefold", required=True)
    p_chi.add_argument("--c1", type=int, required=True)
    p_chi.add_argument("--c2", type=int, required=True)
    p_chi.set_defaults(func=cmd_chi)

    p_cls = sub.add_parser("classify", help="admissible (c1, c2) sets with witnesses")
    p_cls.add_argument("--threefold", required=True)
    p_cls.add_argument("--c1-max", type=int, default=2, dest="c1_max")
    p_cls.add_argument("--rank", choices=("2", "higher"), default="2")
    p_cls.add_argument("--format", choices=("plain", "json", "markdown"),
                       default="plain")
    p_cls.add_argument("--out", default=None, help="also write the output here")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run the acceptance checks")
    group = p_ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--module", help="run one module's checks")
    p_ver.set_defaults(func=cmd_verify)

    p_reg = sub.add_parser("registry", help="dump or validate the construction registry")
    p_reg.add_argument("--validate", action="store_true")
    p_reg.add_argument("--out", default=None)
    p_reg.set_defaults(func=cmd_registry)

    p_q = sub.add_parser("query", help="one-off kernel queries")
    qsub = p_q.add_subparsers(dest="query_command", required=True)

    q_pi = qsub.add_parser("pi", help="Castelnuovo genus bound")
    q_pi.add_argument("--d", type=int, required=True)
    q_pi.add_argument("--r", type=int, required=True)

    q_pi1 = qsub.add_parser("pi1", help="Harris refined genus bound, valid for d >= 2r + 1")
    q_pi1.add_argument("--d", type=int, required=True)
    q_pi1.add_argument("--r", type=int, required=True)

    q_hg = qsub.add_parser("hirzebruch-genus", help="adjunction genus on a ruled surface")
    q_hg.add_argument("--e", type=int, required=True)
    q_hg.add_argument("--q", type=int, default=0)
    q_hg.add_argument("--class", dest="divisor_class", required=True,
                      help="divisor class 'a,b'")

    q_int = qsub.add_parser("intersect", help="intersection number on a ruled surface")
    q_int.add_argument("--e", type=int, required=True)
    q_int.add_argument("--q", type=int, default=0)
    q_int.add_argument("--c1", required=True, help="first class 'a,b'")
    q_int.add_argument("--c2", required=True, help="second class 'a,b'")

    q_li = qsub.add_parser("liaison", help="linkage degree equation")
    q_li.add_argument("--total", type=int, required=True)
    q_li.add_argument("--omega", type=int, required=True)
    q_li.add_argument("--target", type=int, required=True)
    q_li.add_argument("--cut", type=int, required=True)

    q_h0 = qsub.add_parser("h0", help="sections of a twisted line bundle")
    q_h0.add_argument("--threefold", required=True)
    q_h0.add_argument("--t", type=int, required=True)

    p_q.set_defaults(func=cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
