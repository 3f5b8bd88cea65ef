"""Command line front end.

Exit codes: 0 success / property holds, 1 usage error, 2 property fails with
witness, 3 budget exceeded (a scan over SCAN_BUDGET, or a random search out of
trials; when its strong scan refuses, `pipeline` emits the report built so
far).  Reports are JSON (schema 1) and embed the field modulus and
any seed, so a run can be re-verified from the report alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds, codes, partition, search, strong
from .errors import BudgetExceeded, StrongBlockError
from .geometry import PointSet

SCHEMA = 1


def _emit(doc, args):
    doc["schema"] = SCHEMA
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", args)


def _write(text, args):
    """Every report's one writer: to the --out file if given, else stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _elems(field, codes_seq):
    return [field.elem_str(int(c)) for c in codes_seq]


def _construct(args):
    """The pipeline's construction phase: R* in GF(q^(k(k-1))), the search
    and the union.  Returns (report, S), S None when the search finds no
    tuple.  S lives in PG(k-1, q^(k-1)) and holds no reference to the big
    field, so its tables are freed when this returns, before the scans."""
    rg = partition.build_rgroup(args.q, args.k)
    res = search.find_independent_tuple(rg, rg.k - 1, args.strategy,
                                        seed=args.seed,
                                        max_iters=args.max_iters)
    report = {
        "command": "pipeline",
        "q": args.q, "k": args.k, "seed": args.seed,
        "strategy": args.strategy,
        "field": rg.field.meta(),
        "r": rg.r, "stride": rg.stride,
        "search": {"status": res.status, "trials": res.trials,
                   "certification": res.certification},
    }
    if res.status != "found":
        report["search"]["finding"] = "no R-independent tuple: B IS a blocking set"
        return report, None
    report["search"]["alphas"] = _elems(rg.field, res.alphas)
    return report, strong.union_subgeometries(rg, res.alphas)


def _minimality(G, mv, weights):
    """The report fields that `pipeline` and `check-minimal` share: the
    distribution of class `weights`, and any witness of verdict `mv`."""
    dist = codes.weight_distribution(weights)
    fields = {"weight_distribution": {str(w): c for w, c in dist.items()}}
    if mv.witness is not None:
        fields["witness"] = [_elems(G.field, w) for w in mv.witness]
    return fields


def cmd_pipeline(args):
    report, S = _construct(args)
    if S is None:
        _emit(report, args)
        return 2
    report["union"] = {"size": len(S),
                       "expected_size": strong.expected_size(args.q, args.k)}
    if args.points_out:
        S.save(args.points_out)
        report["points_file"] = args.points_out
    try:
        sv = strong.verify_strong_blocking(S)
    except BudgetExceeded as exc:
        report["budget_exceeded"] = {"stage": "strong", "message": str(exc)}
        _emit(report, args)
        raise
    report["strong"] = {"status": sv.status,
                        "hyperplanes_checked": sv.hyperplanes_checked}
    if sv.witness is not None:
        report["strong"]["witness"] = _elems(S.space.field, sv.witness)
    # the code stage reads the scan: a PointSet has no zero or repeated
    # point, so class u's weight is the number of points off hyperplane u
    G = codes.generator_from_points(S)
    mv = codes.minimality(G, sv)
    counts = (sv.counts if sv.counts is not None  # None from the rank path
              else S.space.hyperplane_counts(S.matrix()))
    report["code"] = {"parameters": [G.n, G.k], "field_order": G.field.order,
                      "minimal": mv.status,
                      **_minimality(G, mv, len(S) - counts)}
    _emit(report, args)
    return 0 if sv.status == "strong" and mv.status == "minimal" else 2


def cmd_partition(args):
    rg = partition.build_rgroup(args.q, args.k)
    parts = partition.full_partition(rg)
    union = set()
    for ps in parts:
        union.update(ps.points)
    space = parts[0].space
    report = {
        "command": "partition",
        "q": args.q, "k": args.k,
        "field": rg.field.meta(),
        "geometry_field": rg.geom_field.meta(),
        "r": rg.r, "stride": rg.stride,
        "cosets": len(parts),
        "coset_sizes": sorted({len(ps) for ps in parts}),
        "union_size": len(union),
        "space_points": space.num_points,
        "is_partition": len(union) == space.num_points
        and sum(len(ps) for ps in parts) == len(union),
    }
    _emit(report, args)
    return 0 if report["is_partition"] else 2


def cmd_search(args):
    rg = partition.build_rgroup(args.q, args.k)
    m = rg.k - 1 if args.m is None else args.m
    res = search.find_independent_tuple(rg, m, args.strategy, seed=args.seed,
                                        max_iters=args.max_iters)
    report = {
        "command": "search",
        "q": args.q, "k": args.k, "m": m,
        "strategy": args.strategy, "seed": args.seed,
        "field": rg.field.meta(),
        "status": res.status,
        "trials": res.trials,
        "certification": res.certification,
    }
    if res.alphas:
        report["alphas"] = _elems(rg.field, res.alphas)
    _emit(report, args)
    return 0 if res.status == "found" else 2


def cmd_verify(args):
    ps = PointSet.load(args.input)
    if args.mode == "strong":
        v = strong.verify_strong_blocking(ps)
        holds = v.status == "strong"
    else:
        v = strong.verify_blocking(ps)
        holds = v.status == "blocking"
    report = {
        "command": "verify",
        "input": args.input,
        "mode": args.mode,
        "field": ps.space.field.meta(),
        "size": len(ps),
        "status": v.status,
        "hyperplanes_checked": v.hyperplanes_checked,
    }
    if v.witness is not None:
        report["witness"] = _elems(ps.space.field, v.witness)
    _emit(report, args)
    return 0 if holds else 2


def cmd_export_code(args):
    ps = PointSet.load(args.input)
    G = codes.generator_from_points(ps)
    codes.export_code(G, args.output)
    _emit({"command": "export-code", "input": args.input,
           "output": args.output, "format": codes.code_format(args.output),
           "parameters": [G.n, G.k], "field": G.field.meta()}, args)
    return 0


def cmd_check_minimal(args):
    G = codes.import_code(args.input)
    if G.k < 2:  # the message space PG(k-1, Q) needs k >= 2
        raise ValueError("%s: k must be at least 2" % args.input)
    weights = codes.support_profiles(G).weights
    mv = codes.check_minimal(G)
    _emit({"command": "check-minimal", "input": args.input,
           "field": G.field.meta(), "parameters": [G.n, G.k],
           "classes": G.message_space().num_points, "status": mv.status,
           **_minimality(G, mv, weights)}, args)
    return 0 if mv.status == "minimal" else 2


def _parse_q_range(text):
    lo, _, hi = text.partition(":")
    lo, hi = int(lo), int(hi or lo)
    if lo > hi:
        raise ValueError("--q-range %s is empty: %d > %d" % (text, lo, hi))
    return lo, hi


def cmd_bounds(args):
    lo, hi = _parse_q_range(args.q_range)
    rows = []
    all_ok = True
    for q in range(lo, hi + 1):
        # the interval argument covers q = 7 and odd q > 9 only
        if q < 7 or q % 2 == 0 or (q == 9 and not args.include_excluded):
            continue
        try:
            rep = bounds.interval_violation_report(q, strict=False)
        except ValueError:  # q is not a prime power
            continue
        rows.append({
            "q": q, "p": rep.p, "h": rep.h,
            "bset_size": rep.size,
            "certified": rep.certified,
            "inconclusive_e": rep.inconclusive_es(),
        })
        all_ok = all_ok and rep.certified
    if args.format == "text":
        _write("".join("q=%-5d p=%-3d h=%-2d |B|=%d  %s\n" % (
            row["q"], row["p"], row["h"], row["bset_size"],
            "certified" if row["certified"]
            else "NOT certified (e=%r)" % row["inconclusive_e"])
            for row in rows), args)
    else:
        _emit({"command": "bounds", "q_range": [lo, hi], "rows": rows}, args)
    return 0 if all_ok else 2


def _options(*specs):
    """A parent parser, without help, of the (flag, keywords) options that
    several subcommands share, so each is defined once."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in specs:
        parent.add_argument(flag, **kwargs)
    return parent


def build_parser():
    ap = argparse.ArgumentParser(
        prog="strongblock",
        description="Strong blocking sets as unions of subgeometries, "
                    "and minimal linear codes.")
    sub = ap.add_subparsers(dest="command", required=True)
    out = _options(("--out", {}))
    rgroup = _options(("--q", {"type": int, "required": True}),
                      ("--k", {"type": int, "default": 4}))
    search_opts = _options(
        ("--seed", {"type": int, "default": 1}),
        ("--strategy", {"choices": ["random", "exhaustive"],
                        "default": "random"}),
        ("--max-iters", {"type": int, "default": 10 ** 4}))
    source = _options(("--input", {"required": True}))

    p = sub.add_parser("pipeline", parents=[rgroup, search_opts, out],
                       help="field -> R* -> tuple -> union -> "
                       "strong verification -> minimal code")
    p.add_argument("--points-out", help="also save the union as points JSON")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("partition", parents=[rgroup, out],
                       help="coset subgeometry partition report")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("search", parents=[rgroup, search_opts, out],
                       help="search for an R-independent tuple")
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", parents=[source, out],
                       help="verify a points file")
    p.add_argument("--mode", choices=["strong", "blocking"], default="strong")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-code", parents=[source, out],
                       help="points file -> generator matrix")
    p.add_argument("--output", required=True, help="JSON if *.json, else text")
    p.set_defaults(func=cmd_export_code)

    p = sub.add_parser("check-minimal", parents=[source, out],
                       help="minimality of a stored code")
    p.set_defaults(func=cmd_check_minimal)

    p = sub.add_parser("bounds", parents=[out],
                       help="interval violation certification")
    p.add_argument("--q-range", required=True, help="e.g. 7:1000")
    p.add_argument("--include-excluded", action="store_true",
                   help="also report q = 9, which the argument cannot certify")
    p.add_argument("--format", choices=["text", "json"], default="json")
    p.set_defaults(func=cmd_bounds)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (StrongBlockError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
