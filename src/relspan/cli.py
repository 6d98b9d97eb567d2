"""Batch verification front end.

Loads a JSON fixture file of named declarations, runs constructions and axiom
suites, and emits a machine-readable report to stdout.  Exit codes: 0 when
every check passes, 1 when a check fails, 2 on parse/usage errors.  Output is
deterministic for a fixed input; --json switches from indented to compact
single-line JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import coalg as _coalg
from . import finset as _finset
from . import relcat as _relcat
from .catcore import Cospan, Report, legs_in_class
from .errors import LegsNotInClass, RelspanError
from .jsonio import (
    ParseError,
    load_context,
    matrix_to_json,
    parse_field_flag,
)
from .monoids import check_monoid
from .relpull import (
    coherence_pentagon,
    coherence_triangle,
    relative_pullback,
    universal_factor,
)

DEFAULT_SEED = 20180301


def _report_payload(argv, report: Report, extra=None):
    payload = {
        "command": list(argv),
        "checks": [c.as_dict() for c in report.checks],
        "exit": 0 if report.ok else 1,
    }
    if extra:
        payload["result"] = extra
    return payload


def _emit(payload, compact: bool) -> int:
    if compact:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(json.dumps(payload, indent=2))
    return payload["exit"]


def _pick(ctx, name, kinds, what):
    if name is not None:
        if name not in ctx:
            raise ParseError(f"no declaration named {name!r}")
        if ctx[name].kind not in kinds:
            raise ParseError(f"{name!r} is a {ctx[name].kind}, expected one of {sorted(kinds)}")
        return name, ctx[name]
    for nm in ctx:
        if ctx[nm].kind in kinds:
            return nm, ctx[nm]
    raise ParseError(f"no {what} declaration in the file")


def _check_one(name: str, decl, report: Report):
    prefix = f"{name}: "
    if decl.kind == "coalgebra":
        report.extend(_coalg.check_coalgebra(decl.value), prefix)
    elif decl.kind == "coalgebra_map":
        report.extend(_coalg.check_coalg_map(decl.value), prefix)
    elif decl.kind == "bialgebra":
        report.extend(_coalg.check_coalgebra(decl.value.carrier), prefix)
        report.extend(check_monoid(decl.value), prefix)
    elif decl.kind == "finset_monoid":
        carrier, m, unit = decl.value
        report.extend(_finset.finset_monoid_check(carrier, m, unit), prefix)
    elif decl.kind == "small_category":
        try:
            decl.value.validate()
            report.add(prefix + "category laws", True)
        except RelspanError as exc:
            report.add(prefix + "category laws", False, str(exc))
    elif decl.kind == "relative_category":
        report.extend(_relcat.check_relative_category(decl.value), prefix)
    elif decl.kind == "cospan":
        report.add(
            prefix + "legs in class",
            legs_in_class(decl.base.span_class, Cospan(*decl.value)),
            "a leg span escapes the admissible class",
        )
    elif decl.kind == "chain":
        report.add(prefix + "chain parsed", True)
    elif decl.kind == "finset_obj":
        report.add(prefix + "finite set parsed", True)
    elif decl.kind == "finset_fun":
        report.add(prefix + "function total and bounded", True)
    elif decl.kind == "functor":
        report.add(prefix + "functor declaration parsed", True)


def cmd_check(args, argv):
    ctx = load_context(args.path)
    report = Report()
    names = [args.name] if args.name else list(ctx)
    for name in names:
        if name not in ctx:
            raise ParseError(f"no declaration named {name!r}")
        _check_one(name, ctx[name], report)
    return _report_payload(argv, report)


def _finset_result(pb, args, report):
    """The apex as matching pairs, and fillers of random spans through them."""
    rng = random.Random(args.seed)
    pairs = pb.payload.pairs
    for probe in range(3):
        size = rng.randrange(0, 4)
        chosen = [pairs[rng.randrange(len(pairs))] for _ in range(size)] if pairs else []
        x = _finset.FinSetObj(len(chosen))
        a = _finset.FinFun(x, pb.f.dom, tuple(p[0] for p in chosen))
        c = _finset.FinFun(x, pb.g.dom, tuple(p[1] for p in chosen))
        h = universal_factor(pb, a, c)
        ok = pb.base.compose(pb.p_a, h) == a and pb.base.compose(pb.p_c, h) == c
        report.add(f"universality probe {probe}", ok, "filler does not reproduce the span")
    apex = {"set": pb.apex.size, "pairs": [list(p) for p in pairs]}
    return {"apex": apex, "p_a": list(pb.p_a.table), "p_c": list(pb.p_c.table)}


def _coalg_result(pb, args, report):
    """The apex coalgebra and projections, its axioms, the filler of the
    projection span and, on request, the cotensor comparison."""
    report.extend(_coalg.check_coalgebra(pb.apex), "apex: ")
    h = universal_factor(pb, pb.p_a, pb.p_c)
    report.add(
        "universality probe (projection span)",
        h.mat == pb.base.identity(pb.apex).mat,
        "filler of the projection span is not the identity",
    )
    if args.compare_cotensor:
        ct = _coalg.cotensor(pb.f, pb.g)
        report.extend(_coalg.compare_with_pullback(ct, pb.payload), "cotensor comparison: ")
    apex = {"dim": pb.apex.dim, "delta": matrix_to_json(pb.apex.delta),
            "epsilon": matrix_to_json(pb.apex.epsilon)}
    return {"apex": apex, "p_a": matrix_to_json(pb.p_a.mat), "p_c": matrix_to_json(pb.p_c.mat)}


_PULLBACK_RESULTS = {"finset": _finset_result, "coalg": _coalg_result}


def _linearized(decl, args):
    """A cospan's base and legs, finite-set legs linearized over --field."""
    if decl.base is not _finset.FINSET:
        return decl.base, decl.value
    fld = parse_field_flag(args.field)
    return _coalg.CoalgCategory(fld), [_finset.linearize_fun(m, fld) for m in decl.value]


def cmd_pullback(args, argv):
    ctx = load_context(args.path)
    _, decl = _pick(ctx, args.cospan, {"cospan"}, "cospan")
    base, (left, right) = decl.base, decl.value
    if args.instance == "coalg":
        base, (left, right) = _linearized(decl, args)
    report = Report()
    try:
        pb = relative_pullback(base, left, right)
    except LegsNotInClass as exc:
        report.add("legs in class", False, str(exc))
        return _report_payload(argv, report)
    report.add("legs in class", True)
    report.add(
        "square commutes",
        base.equal_mor(base.compose(pb.f, pb.p_a), base.compose(pb.g, pb.p_c)),
        "f∘p_A != g∘p_C",
    )
    report.add("jointly monic projections", pb.jointly_monic, "joint kernel is nonzero")
    extra = _PULLBACK_RESULTS[base.name](pb, args, report)
    return _report_payload(argv, report, extra)


def cmd_cotensor(args, argv):
    ctx = load_context(args.path)
    _, decl = _pick(ctx, args.cospan, {"cospan"}, "cospan")
    _, (left, right) = _linearized(decl, args)
    report = Report()
    ct = _coalg.cotensor(left, right)
    extra = {"dim": ct.dim, "inclusion": matrix_to_json(ct.inclusion)}
    report.add("cotensor computed", True)
    if ct.coalgebra is not None:
        report.extend(_coalg.check_coalgebra(ct.coalgebra), "induced structure: ")
        pb = _coalg.relative_pullback_coalg(left, right)
        report.extend(_coalg.compare_with_pullback(ct, pb), "pullback comparison: ")
    return _report_payload(argv, report, extra)


def cmd_coherence(args, argv):
    ctx = load_context(args.path)
    _, decl = _pick(ctx, args.name, {"chain"}, "chain")
    maps = decl.value
    want = 2 if args.shape == "triangle" else 6
    if len(maps) != want:
        raise ParseError(f"{args.shape} needs a chain with {want} maps, got {len(maps)}")
    report = Report()
    runs = [("finset", _finset.FINSET, maps)]
    if args.instance == "coalg":
        fld = parse_field_flag(args.field)
        runs.append(("coalg", _coalg.CoalgCategory(fld),
                     [_finset.linearize_fun(m, fld) for m in maps]))
    for label, base, ms in runs:
        if args.shape == "triangle":
            ok = coherence_triangle(base, ms[0], ms[1])
        else:
            ok = coherence_pentagon(base, *ms)
        report.add(f"{args.shape} ({label})", ok, "composites differ")
    return _report_payload(argv, report)


def cmd_relcat(args, argv):
    ctx = load_context(args.path)
    report = Report()
    names = [args.name] if args.name else [
        nm for nm in ctx if ctx[nm].kind in ("small_category", "relative_category")
    ]
    if not names:
        raise ParseError("no relative-category or small-category declaration in the file")
    for name in names:
        if name not in ctx:
            raise ParseError(f"no declaration named {name!r}")
        decl = ctx[name]
        prefix = f"{name}: "
        if decl.kind == "small_category":
            try:
                rc = _relcat.from_small_category(decl.value)
            except RelspanError as exc:
                report.add(prefix + "category laws", False, str(exc))
                continue
            report.add(prefix + "category laws", True)
            report.add(
                prefix + "composition table round-trip",
                _relcat.composition_table(rc) == [list(r) for r in decl.value.comp],
                "table read back through the pullback differs",
            )
        elif decl.kind == "relative_category":
            rc = decl.value
        else:
            raise ParseError(f"{name!r} is not a category declaration")
        sub = _relcat.check_relative_category(rc)
        report.extend(sub, prefix)
        if args.instance == "coalg" and sub.ok:
            fld = parse_field_flag(args.field)
            rcq = _relcat.linearize_relcat(rc, fld)
            report.extend(_relcat.check_relative_category(rcq), prefix + "linearized: ")
    return _report_payload(argv, report)


def _resolve_relcat(ctx, name):
    if name not in ctx:
        raise ParseError(f"no declaration named {name!r}")
    decl = ctx[name]
    if decl.kind == "small_category":
        return _relcat.from_small_category(decl.value)
    if decl.kind == "relative_category":
        return decl.value
    raise ParseError(f"{name!r} is not a category declaration")


def cmd_functor(args, argv):
    ctx = load_context(args.path)
    src = _resolve_relcat(ctx, args.src)
    tgt = _resolve_relcat(ctx, args.tgt)
    _, decl = _pick(ctx, args.map, {"functor"}, "functor")
    raw = decl.value
    b = _finset.FinFun(src.b, tgt.b, [int(v) for v in raw["b"]])
    a = _finset.FinFun(src.a, tgt.a, [int(v) for v in raw["a"]])
    fun = _relcat.RelativeFunctor(b, a)
    report = _relcat.check_relative_functor(fun, src, tgt)
    return _report_payload(argv, report)


def cmd_monoid(args, argv):
    ctx = load_context(args.path)
    name, decl = _pick(ctx, args.name, {"finset_monoid", "bialgebra"}, "monoid")
    report = Report()
    _check_one(name, decl, report)
    return _report_payload(argv, report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relspan", description="exact verification of span-relative constructions"
    )
    parser.add_argument("--json", action="store_true", help="compact single-line output")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_name=True):
        p.add_argument("path")
        if with_name:
            p.add_argument("--name")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--field", default="Q", help="Q or Fp:<p>")
        p.add_argument("--instance", choices=["finset", "coalg"], default="finset")
        p.add_argument("--json", action="store_true", help="compact single-line output")

    p = sub.add_parser("check", help="run the axiom suite of every declaration")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("pullback", help="construct and verify a relative pullback")
    common(p, with_name=False)
    p.add_argument("--cospan")
    p.add_argument("--compare-cotensor", action="store_true")
    p.set_defaults(fn=cmd_pullback)

    p = sub.add_parser("cotensor", help="compute the cotensor product of a cospan")
    common(p, with_name=False)
    p.add_argument("--cospan")
    p.set_defaults(fn=cmd_cotensor)

    p = sub.add_parser("coherence", help="triangle/pentagon coherence over a chain")
    common(p)
    p.add_argument("--shape", choices=["triangle", "pentagon"], required=True)
    p.set_defaults(fn=cmd_coherence)

    p = sub.add_parser("relcat", help="check relative-category declarations")
    common(p)
    p.set_defaults(fn=cmd_relcat)

    p = sub.add_parser("functor", help="check a relative functor between two categories")
    common(p, with_name=False)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(fn=cmd_functor)

    p = sub.add_parser("monoid", help="check a monoid/bialgebra declaration")
    common(p)
    p.set_defaults(fn=cmd_monoid)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        payload = args.fn(args, argv)
    except ParseError as exc:
        print(json.dumps({"command": argv, "error": str(exc), "exit": 2}, indent=2))
        return 2
    except RelspanError as exc:
        print(json.dumps({"command": argv, "error": str(exc), "exit": 2}, indent=2))
        return 2
    return _emit(payload, args.json)


if __name__ == "__main__":
    sys.exit(main())
