"""Command-line front end.

Subcommands: family, enumerate, grammar, shape, fs-action, verify, suite.
Rationals on the command line are written ``a/b``.  The enumeration size
guard is set only by the environment variable ``EXCEDANCE_LAB_MAX_CLASS``
(an integer >= 1).  Malformed input, a malformed guard included, exits 2 with
one ``error:`` line on stderr and no traceback: :func:`main` maps every
:class:`~excedance_lab.multipoly.BadInput` (and ``OSError``) to exit 2, and
lets any other exception propagate.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import families, fsaction, identities, permstats
from .grammar import parse_rules
from .multipoly import BadInput, Context, ParseError, as_fraction
from .shape import CoeffSeq, shape_report


def _add_format(parser, default="text", choices=("text", "json", "csv")):
    parser.add_argument("--format", default=default, choices=choices)


def _int_or_sym(value: str) -> str:
    """Argparse type for --k/--r: an integer literal, or 'sym'/'symbolic'."""
    try:
        _parse_int_or_sym(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'sym', got {value!r}"
        ) from None
    return value


def _int_at_least(minimum: int):
    """Argparse type for counts (suite --jobs, grammar --n): an integer >= minimum."""

    def parse(value: str) -> int:
        if not value.strip().isdecimal() or int(value) < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {value!r}"
            )
        return int(value)

    return parse


def _parse_int_or_sym(value):
    if value is None or value in ("sym", "symbolic"):
        return None
    return int(value)


def _family_poly(ctx, args):
    # pass only the flags given, so the registry rejects one the family does not read
    params = {p: _parse_int_or_sym(v) for p, v in (("k", args.k), ("r", args.r)) if v is not None}
    return families.family(ctx, args.name, args.n, **params)


def _cmd_family(args) -> int:
    ctx = Context()
    poly = _family_poly(ctx, args)
    if args.format == "json":
        print(json.dumps({
            "name": args.name, "n": args.n,
            "k": args.k, "r": args.r,
            "poly": poly.to_json_obj(),
            "text": poly.to_text(),
        }))
    elif args.format == "csv":
        print("monomial,coeff")
        for term in poly.to_json_obj():
            print(f"{ctx.monomial(term['exponents'])},{term['coeff']}")
    else:
        print(poly.to_text())
    return 0


def _cmd_enumerate(args) -> int:
    kind = args.kind
    all_stats = permstats.stat_names(kind)
    if args.stats is not None:
        wanted = [s.strip() for s in args.stats.split(",") if s.strip()]
        if not wanted:
            raise BadInput(f"--stats {args.stats!r} names no statistic")
        for s in wanted:
            if s not in all_stats:
                raise permstats.UnknownStat(s)
    else:
        wanted = list(all_stats)
    # the guard runs on this call, so a class it refuses writes nothing
    rows = permstats.enumerate_class(kind, args.n, r=args.r, k=args.k)
    if args.format == "json":
        # row by row, the bytes json.dumps writes for the whole list
        sys.stdout.write("[")
        for i, (obj, stats) in enumerate(rows):
            sys.stdout.write((", " if i else "") + json.dumps({
                "word": obj.word_string(),
                "cycles": obj.cycle_string(),
                "stats": {s: stats[s] for s in wanted},
            }))
        print("]")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["word", "cycles"] + wanted)
        for obj, stats in rows:
            writer.writerow(
                [obj.word_string(), obj.cycle_string()]
                + [stats[s] for s in wanted]
            )
    return 0


def _cmd_grammar(args) -> int:
    ctx = Context()
    with open(args.rules, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.rules}: not UTF-8 text ({exc.reason})") from None
    grammar = parse_rules(ctx, text)
    seed = ctx.poly(args.seed)
    result = grammar.iterate(seed, args.n)
    if args.format == "json":
        print(json.dumps({
            "seed": args.seed, "n": args.n,
            "poly": result.to_json_obj(), "text": result.to_text(),
        }))
    else:
        print(result.to_text())
    return 0


def _cmd_shape(args) -> int:
    ctx = Context()
    poly = _family_poly(ctx, args)
    point = {v: as_fraction(val) for v, val in (("p", args.p), ("q", args.q)) if val is not None}
    for v in point:
        # a point the polynomial lacks would be silently ignored
        if v not in poly.variables():
            raise families.BadParams(f"family {args.name} at n={args.n} reads no {v}")
    if point:
        poly = poly.eval_rational(point)
    m = args.m
    if m is None:
        default_m = families.REGISTRY[args.name].default_m
        m = default_m(args.n) if default_m else poly.degree("x")
    report = shape_report(CoeffSeq.from_poly(poly, "x", m=m))
    if args.report == "json":
        print(json.dumps({
            "family": args.name, "n": args.n,
            "point": {k: str(v) for k, v in point.items()},
            **report.to_json_obj(),
        }))
    else:
        def fmt(vals):
            return " ".join(str(v) for v in vals)

        print(f"coefficients (m={report.seq.m}): {fmt(report.seq.coeffs)}")
        print(f"a-part: {fmt(report.a.coeffs)}")
        print(f"b-part: {fmt(report.b.coeffs)}")
        print(f"gamma(a): {fmt(report.gamma_a)}")
        print(f"gamma(b): {fmt(report.gamma_b)}")
        for prop, verdict in report.verdicts.items():
            print(f"{prop}: {verdict}")
    return 0


def _cmd_fs_action(args) -> int:
    perm = fsaction.parse_cycles(args.perm)
    if args.x is not None:
        image = fsaction.act(perm, args.x)
        print(image.cycle_string())
    else:
        for cc in fsaction.classify(perm):
            tagged = " ".join(
                f"{v}:{role}" for v, role in zip(cc.cycle, cc.roles)
            )
            print(f"({tagged})")
    return 0


def _cmd_verify(args) -> int:
    overrides = {}
    if args.max_n is not None:
        overrides["max_n"] = args.max_n
    if args.k is not None:
        overrides["ks"] = (args.k,)
    if args.r is not None:
        overrides["rs"] = (args.r,)
    result = identities.run_verify(
        args.id, profile=args.profile, overrides=overrides or None,
        seed=args.seed,
    )
    if args.format == "json":
        print(json.dumps(result.to_json_obj()))
    else:
        print(f"{result.id}: {result.status} ({result.elapsed:.2f}s) {result.detail}")
        for key, value in result.details.items():
            print(f"  {key} = {value}")
        for miss in result.mismatches:
            print(f"  MISMATCH {miss['context']}")
            print(f"    lhs: {miss['lhs']}")
            print(f"    rhs: {miss['rhs']}")
            if "diff" in miss:
                print(f"    diff: {miss['diff']}")
    return 1 if result.status in ("fail", "vacuous") else 0


def _cmd_suite(args) -> int:
    ids = None
    if args.ids is not None:
        ids = [s.strip() for s in args.ids.split(",") if s.strip()]
        if not ids:
            raise BadInput(f"--ids {args.ids!r} names no identity")
    results = identities.run_suite(
        profile=args.profile, ids=ids, seed=args.seed, jobs=args.jobs,
    )
    counts = {"pass": 0, "fail": 0, "skipped": 0, "vacuous": 0}
    for res in results:
        counts[res.status] += 1
    if args.format == "json":
        print(json.dumps({
            "profile": args.profile,
            "summary": counts,
            "results": [r.to_json_obj() for r in results],
        }))
    else:
        width = max(len(r.id) for r in results) if results else 10
        for res in results:
            line = f"{res.id:<{width}}  {res.status:<7} {res.elapsed:7.2f}s"
            if res.detail:
                line += f"  {res.detail}"
            print(line)
        print(
            f"total: {len(results)}  pass: {counts['pass']}  "
            f"fail: {counts['fail']}  skipped: {counts['skipped']}  "
            f"vacuous: {counts['vacuous']}"
        )
    return 0 if counts["fail"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excedance-lab",
        description="exact computation and verification of excedance-type polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", help="print one polynomial family member")
    p_family.add_argument("--name", required=True)
    p_family.add_argument("--n", type=int, required=True)
    p_family.add_argument(
        "--k", type=_int_or_sym, default=None, help="integer, or 'sym' for symbolic"
    )
    p_family.add_argument(
        "--r", type=_int_or_sym, default=None, help="integer, or 'sym' for symbolic"
    )
    _add_format(p_family)
    p_family.set_defaults(fn=_cmd_family)

    p_enum = sub.add_parser("enumerate", help="stream a permutation class with statistics")
    p_enum.add_argument("--kind", required=True, choices=permstats.KINDS)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--r", type=int, default=1)
    p_enum.add_argument("--k", type=int, default=1)
    p_enum.add_argument("--stats", default=None, help="comma-separated subset")
    _add_format(p_enum, default="csv", choices=("csv", "json"))
    p_enum.set_defaults(fn=_cmd_enumerate)

    p_grammar = sub.add_parser("grammar", help="grammar calculus")
    gram_sub = p_grammar.add_subparsers(dest="grammar_command", required=True)
    p_derive = gram_sub.add_parser("derive", help="apply the formal derivative n times")
    p_derive.add_argument("--rules", required=True, help="rule file, one 'v -> poly' per line")
    p_derive.add_argument("--seed", required=True, help="start polynomial expression")
    p_derive.add_argument("--n", type=_int_at_least(0), required=True)
    _add_format(p_derive, choices=("text", "json"))
    p_derive.set_defaults(fn=_cmd_grammar)

    p_shape = sub.add_parser("shape", help="shape report for a family instance")
    p_shape.add_argument("--family", dest="name", required=True)
    p_shape.add_argument("--n", type=int, required=True)
    p_shape.add_argument("--k", type=_int_or_sym, default=None)
    p_shape.add_argument("--r", type=_int_or_sym, default=None)
    p_shape.add_argument("--p", default=None, help="rational a/b")
    p_shape.add_argument("--q", default=None, help="rational a/b")
    p_shape.add_argument("--m", type=int, default=None, help="declared length")
    p_shape.add_argument("--report", default="text", choices=("text", "json"))
    p_shape.set_defaults(fn=_cmd_shape)

    p_fs = sub.add_parser("fs-action", help="modified Foata-Strehl action on cycles")
    p_fs.add_argument("--perm", required=True, help="cycle notation, e.g. '(1,4,2)(3)'")
    p_fs.add_argument("--x", type=int, default=None, help="value to act at")
    p_fs.set_defaults(fn=_cmd_fs_action)

    p_verify = sub.add_parser("verify", help="run one identity by registry id")
    p_verify.add_argument("--id", required=True)
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--r", type=int, default=None)
    p_verify.add_argument("--profile", default="full", choices=identities.PROFILES)
    p_verify.add_argument("--seed", type=int, default=identities.DEFAULT_SEED)
    _add_format(p_verify, choices=("text", "json"))
    p_verify.set_defaults(fn=_cmd_verify)

    p_suite = sub.add_parser("suite", help="run the whole identity registry")
    p_suite.add_argument("--profile", default="quick", choices=identities.PROFILES)
    p_suite.add_argument("--ids", default=None, help="comma-separated subset")
    p_suite.add_argument("--jobs", type=_int_at_least(1), default=1)
    p_suite.add_argument("--seed", type=int, default=identities.DEFAULT_SEED)
    _add_format(p_suite, choices=("text", "json"))
    p_suite.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BadInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
