"""Batch verification front end.

Loads a JSON fixture file of named declarations, runs constructions and axiom
suites, and emits a machine-readable report to stdout.  Exit codes: 0 when
every check passes, 1 when a check fails, 2 on parse/usage errors.  Output is
deterministic for a fixed input.  Each subcommand takes a fixture path, the
flags its command reads (listed in _COMMANDS) and --json, which switches from
indented to compact single-line JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import coalg as _coalg
from . import finset as _finset
from . import relcat as _relcat
from .catcore import Report, legs_in_class
from .errors import LegsNotInClass, RelspanError
from .jsonio import (
    ParseError,
    cospan_base,
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


_CATEGORIES = {"small_category", "relative_category"}

# What `check` reports for a declaration that decoding alone verifies.
_PARSED = {
    "chain": "chain parsed",
    "finset_obj": "finite set parsed",
    "finset_fun": "function total and bounded",
    "functor": "functor declaration parsed",
}


def _named(ctx, name, kinds=None):
    """The declaration called name; it must be of one of kinds, if given."""
    if name not in ctx:
        raise ParseError(f"no declaration named {name!r}")
    if kinds is not None and ctx[name].kind not in kinds:
        raise ParseError(f"{name!r} is a {ctx[name].kind}, expected one of {sorted(kinds)}")
    return ctx[name]


def _pick(ctx, name, kinds, what):
    """The declaration called name, or else the first one of kinds."""
    if name is not None:
        return name, _named(ctx, name, kinds)
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
            legs_in_class(cospan_base(*decl.value), *decl.value),
            "a leg span escapes the admissible class",
        )
    else:
        report.add(prefix + _PARSED[decl.kind], True)


def cmd_check(ctx, args):
    report = Report()
    for name in [args.name] if args.name else list(ctx):
        _check_one(name, _named(ctx, name), report)
    return report, None


def _finset_result(pb, args, report):
    """The apex as matching pairs, and fillers of random spans through them."""
    rng = random.Random(args.seed)
    pairs = pb.payload
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


def _linearized(base, legs, field):
    """A cospan's base and legs, finite-set legs linearized over field."""
    if base is not _finset.FINSET:
        return base, legs
    fld = parse_field_flag(field)
    return _coalg.CoalgCategory(fld), _finset.linearize_funs(legs, fld)


def _cospan(ctx, name):
    """The base category and (left, right) legs of a cospan declaration."""
    _, decl = _pick(ctx, name, {"cospan"}, "cospan")
    return cospan_base(*decl.value), decl.value


def cmd_pullback(ctx, args):
    base, legs = _cospan(ctx, args.cospan)
    if args.instance == "coalg":
        base, legs = _linearized(base, legs, args.field)
    report = Report()
    try:
        pb = relative_pullback(base, *legs)
    except LegsNotInClass as exc:
        report.add("legs in class", False, str(exc))
        return report, None
    report.add("legs in class", True)
    report.add(
        "square commutes",
        base.compose(pb.f, pb.p_a) == base.compose(pb.g, pb.p_c),
        "f∘p_A != g∘p_C",
    )
    report.add("jointly monic projections", pb.jointly_monic, "joint kernel is nonzero")
    return report, _PULLBACK_RESULTS[base.name](pb, args, report)


def cmd_cotensor(ctx, args):
    base, (left, right) = _linearized(*_cospan(ctx, args.cospan), args.field)
    report = Report()
    ct = _coalg.cotensor(left, right)
    extra = {"dim": ct.cols, "inclusion": matrix_to_json(ct)}
    report.add("cotensor computed", True)
    try:
        pb = relative_pullback(base, left, right)
    except LegsNotInClass:
        return report, extra
    sub = _coalg.subcoalgebra(_coalg.tensor_coalgebra(left.src, right.src), ct)
    report.extend(_coalg.check_coalgebra(sub.object), "induced structure: ")
    report.extend(_coalg.compare_with_pullback(ct, pb.payload), "pullback comparison: ")
    return report, extra


def cmd_coherence(ctx, args):
    _, decl = _pick(ctx, args.name, {"chain"}, "chain")
    maps = decl.value
    want = 2 if args.shape == "triangle" else 6
    if len(maps) != want:
        raise ParseError(f"{args.shape} needs a chain with {want} maps, got {len(maps)}")
    report = Report()
    runs = [("finset", _finset.FINSET, maps)]
    if args.instance == "coalg":
        fld = parse_field_flag(args.field)
        runs.append(("coalg", _coalg.CoalgCategory(fld), _finset.linearize_funs(maps, fld)))
    for label, base, ms in runs:
        if args.shape == "triangle":
            ok = coherence_triangle(base, ms[0], ms[1])
        else:
            ok = coherence_pentagon(base, *ms)
        report.add(f"{args.shape} ({label})", ok, "composites differ")
    return report, None


def cmd_relcat(ctx, args):
    report = Report()
    names = [args.name] if args.name else [nm for nm in ctx if ctx[nm].kind in _CATEGORIES]
    if not names:
        raise ParseError("no relative-category or small-category declaration in the file")
    for name in names:
        decl = _named(ctx, name, _CATEGORIES)
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
        else:
            rc = decl.value
        sub = _relcat.check_relative_category(rc)
        report.extend(sub, prefix)
        if args.instance == "coalg" and sub.ok:
            fld = parse_field_flag(args.field)
            rcq = _relcat.linearize_relcat(rc, fld)
            report.extend(_relcat.check_relative_category(rcq), prefix + "linearized: ")
    return report, None


def _resolve_relcat(ctx, name):
    decl = _named(ctx, name, _CATEGORIES)
    if decl.kind == "small_category":
        return _relcat.from_small_category(decl.value)
    return decl.value


def cmd_functor(ctx, args):
    src = _resolve_relcat(ctx, args.src)
    tgt = _resolve_relcat(ctx, args.tgt)
    _, decl = _pick(ctx, args.map, {"functor"}, "functor")
    b_table, a_table = decl.value
    fun = _relcat.RelativeFunctor(_finset.FinFun(src.b, tgt.b, b_table),
                                  _finset.FinFun(src.a, tgt.a, a_table))
    return _relcat.check_relative_functor(fun, src, tgt), None


def cmd_monoid(ctx, args):
    name, decl = _pick(ctx, args.name, {"finset_monoid", "bialgebra"}, "monoid")
    report = Report()
    _check_one(name, decl, report)
    return report, None


# Every flag a subcommand may take, and the flags each subcommand reads.
_FLAGS = {
    "--name": {},
    "--cospan": {},
    "--instance": {"choices": ["finset", "coalg"], "default": "finset"},
    "--field": {"default": "Q", "help": "Q or Fp:<p>"},
    "--seed": {"type": int, "default": DEFAULT_SEED},
    "--compare-cotensor": {"action": "store_true"},
    "--shape": {"choices": ["triangle", "pentagon"], "required": True},
    "--src": {"required": True},
    "--tgt": {"required": True},
    "--map": {"required": True},
    "--json": {"action": "store_true", "help": "compact single-line output"},
}

_COMMANDS = (
    ("check", cmd_check, "run the axiom suite of every declaration", ("--name",)),
    ("pullback", cmd_pullback, "construct and verify a relative pullback",
     ("--cospan", "--instance", "--field", "--seed", "--compare-cotensor")),
    ("cotensor", cmd_cotensor, "compute the cotensor product of a cospan",
     ("--cospan", "--field")),
    ("coherence", cmd_coherence, "triangle/pentagon coherence over a chain",
     ("--name", "--shape", "--instance", "--field")),
    ("relcat", cmd_relcat, "check relative-category declarations",
     ("--name", "--instance", "--field")),
    ("functor", cmd_functor, "check a relative functor between two categories",
     ("--src", "--tgt", "--map")),
    ("monoid", cmd_monoid, "check a monoid/bialgebra declaration", ("--name",)),
)


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args returns a
    fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="relspan", description="exact verification of span-relative constructions"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path")
        for flag in flags + ("--json",):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        report, result = args.fn(load_context(args.path), args)
    except RelspanError as exc:
        payload = {"command": argv, "error": str(exc), "exit": 2}
    else:
        payload = {"command": argv, "checks": [c.as_dict() for c in report.checks],
                   "exit": 0 if report.ok else 1}
        if result:
            payload["result"] = result
    layout = {"separators": (",", ":")} if args.json else {"indent": 2}
    print(json.dumps(payload, **layout))
    return payload["exit"]


if __name__ == "__main__":
    sys.exit(main())
