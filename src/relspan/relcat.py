"""Spans over a fixed base object, relative categories and relative functors.

A relative category is a monoid in the monoidal category of spans over B with
legs in the admissible class: data (B, A, s, t, i, d) with d defined on the
relative pullback of (s, t).  Small categories are exactly the finite-set
instances of this, and the group-like linearization functor transports every
fixture into the coalgebra instance.

Associativity of the span tensor only holds up to the materialized
rebracketing isomorphism, so axiom (e) is checked as d∘(d□1) = d∘(1□d)∘l.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import coalg as _coalg
from . import finset as _finset
from .catcore import BaseCategory, Report, Span, legs_in_class
from .errors import BaseMismatch, LegsNotInClass, NotACategory, RelspanError, ShapeMismatch
from .linalg import _unit_matrix, _unit_rows
from .relpull import RelPullback, assoc_iso, box, relative_pullback


@dataclass
class SpanOverB:
    """A span B <-t- A -s-> B with legs in the class (checked eagerly).

    Spans produced by span_tensor carry the underlying relative pullback in
    the `pullback` field."""

    base: BaseCategory
    b: object
    a: object
    t: object
    s: object
    pullback: RelPullback | None = None

    def __post_init__(self):
        base = self.base
        if base.cod(self.s) != self.b or base.cod(self.t) != self.b:
            raise ShapeMismatch("span legs must land in B")
        if base.dom(self.s) != self.a or base.dom(self.t) != self.a:
            raise ShapeMismatch("span legs must come out of A")
        id_b = base.identity(self.b)
        if not base.contains(Span(id_b, id_b)):
            raise LegsNotInClass("the identity span on B is not in the class")
        if not legs_in_class(base, self.s, self.t):
            raise LegsNotInClass("the span does not have its legs in the class")


def span_tensor(x: SpanOverB, y: SpanOverB) -> SpanOverB:
    """Monoidal product of spans over B: apex is the pullback of (s, t'),
    legs t∘p and s'∘p'."""
    if x.base is not y.base or x.b != y.b:
        raise BaseMismatch("span tensor needs the same base object")
    base = x.base
    pb = relative_pullback(base, x.s, y.t)
    return SpanOverB(
        base, x.b, pb.apex, base.compose(x.t, pb.p_a), base.compose(y.s, pb.p_c), pb
    )


@dataclass
class RelativeCategory:
    base: BaseCategory
    b: object
    a: object
    s: object
    t: object
    i: object
    d: object            # pb.apex -> A
    pb: RelPullback      # pullback of (s, t)


@dataclass
class RelativeFunctor:
    b: object  # B -> B'
    a: object  # A -> A'


def check_relative_category(rc: RelativeCategory) -> Report:
    base = rc.base
    rep = Report()
    id_b = base.identity(rc.b)
    rep.add(
        "(a) identity span on B in class",
        base.contains(Span(id_b, id_b)),
        "B's identity span escapes the class",
    )
    rep.add(
        "(a) legs of (t, s) in class",
        legs_in_class(base, rc.s, rc.t),
        "a leg span escapes the class",
    )
    rep.add(
        "(b) s∘i = 1",
        base.compose(rc.s, rc.i) == id_b,
        "i is not a section of s",
    )
    rep.add(
        "(b) t∘i = 1",
        base.compose(rc.t, rc.i) == id_b,
        "i is not a section of t",
    )
    pb = rc.pb
    rep.add(
        "(c) t∘d = t∘p1",
        base.compose(rc.t, rc.d) == base.compose(rc.t, pb.p_a),
        "target of a composite is not the target of the first factor",
    )
    rep.add(
        "(c) s∘d = s∘p2",
        base.compose(rc.s, rc.d) == base.compose(rc.s, pb.p_c),
        "source of a composite is not the source of the second factor",
    )

    def left_unit():
        pb_ba = relative_pullback(base, id_b, rc.t)
        return base.compose(rc.d, box(pb_ba, pb, rc.i, base.identity(rc.a), id_b)) == pb_ba.p_c

    def right_unit():
        pb_ab = relative_pullback(base, rc.s, id_b)
        return base.compose(rc.d, box(pb_ab, pb, base.identity(rc.a), rc.i, id_b)) == pb_ab.p_a

    def associativity():
        pb_left = relative_pullback(base, base.compose(rc.s, pb.p_c), rc.t)
        pb_right = relative_pullback(base, rc.s, base.compose(rc.t, pb.p_a))
        d_box = box(pb_left, pb, rc.d, base.identity(rc.a), id_b)
        d_box2 = box(pb_right, pb, base.identity(rc.a), rc.d, id_b)
        l, _ = assoc_iso(pb, pb_left, pb, pb_right)
        return base.compose(rc.d, d_box) == base.compose(base.compose(rc.d, d_box2), l)

    # (d): d∘(i□1) and d∘(1□i) equal the materialized unit isomorphisms;
    # (e): d∘(d□1) = d∘(1□d)∘l with the materialized rebracketing iso l.
    # Their boxes need (b) and (c) to even typecheck, and an axiom whose box
    # cannot be built (d not a coalgebra map, say) fails with the reason,
    # and the axioms after it are skipped.
    skip = not rep.ok
    for name, holds, witness in (("(d) left unit law", left_unit, "d∘(i□1) is not the unit isomorphism"),
                                 ("(d) right unit law", right_unit, "d∘(1□i) is not the unit isomorphism"),
                                 ("(e) associativity", associativity, "d∘(d□1) != d∘(1□d)∘l")):
        if skip:
            rep.add(name, False, "skipped: earlier axiom failed")
            continue
        try:
            rep.add(name, holds(), witness)
        except RelspanError as e:
            rep.add(name, False, str(e))
            skip = True
    return rep


def check_relative_functor(fun: RelativeFunctor, src: RelativeCategory, tgt: RelativeCategory) -> Report:
    base = src.base
    rep = Report()
    rep.add(
        "span morphism: b∘s = s'∘a",
        base.compose(fun.b, src.s) == base.compose(tgt.s, fun.a),
        "sources not preserved",
    )
    rep.add(
        "span morphism: b∘t = t'∘a",
        base.compose(fun.b, src.t) == base.compose(tgt.t, fun.a),
        "targets not preserved",
    )
    rep.add(
        "unit compatibility: a∘i = i'∘b",
        base.compose(fun.a, src.i) == base.compose(tgt.i, fun.b),
        "identities not preserved",
    )
    if not (rep.checks[0].ok and rep.checks[1].ok):
        rep.add("composition compatibility: a∘d = d'∘(a□a)", False,
                "skipped: a□a needs the span-morphism equations")
        return rep
    aa = box(src.pb, tgt.pb, fun.a, fun.a, fun.b)
    rep.add(
        "composition compatibility: a∘d = d'∘(a□a)",
        base.compose(fun.a, src.d) == base.compose(tgt.d, aa),
        "composition not preserved",
    )
    return rep


# -- small categories ----------------------------------------------------------


@dataclass
class SmallCategory:
    """A finite category as tables: objects 0..n-1, arrows 0..m-1,
    comp[i][j] = i∘j when src(i) = tgt(j), else -1."""

    n_obj: int
    n_arr: int
    src: tuple
    tgt: tuple
    ids: tuple
    comp: tuple  # m x m nested tuples

    def __post_init__(self):
        self.src = tuple(self.src)
        self.tgt = tuple(self.tgt)
        self.ids = tuple(self.ids)
        self.comp = tuple(tuple(row) for row in self.comp)

    def validate(self):
        n, m = self.n_obj, self.n_arr
        if len(self.src) != m or len(self.tgt) != m or len(self.ids) != n:
            raise NotACategory("table lengths do not match the declared sizes")
        if len(self.comp) != m or any(len(row) != m for row in self.comp):
            raise NotACategory("composition table must be m x m")
        for e, o in ((self.src, n), (self.tgt, n)):
            if any(not (0 <= v < o) for v in e):
                raise NotACategory("src/tgt value out of range")
        for x, a in enumerate(self.ids):
            if not (0 <= a < m) or self.src[a] != x or self.tgt[a] != x:
                raise NotACategory(f"id arrow of object {x} is not an endo-arrow")
        for i in range(m):
            for j in range(m):
                c = self.comp[i][j]
                if self.src[i] == self.tgt[j]:
                    if not (0 <= c < m):
                        raise NotACategory(f"composable pair ({i},{j}) has no composite")
                    if self.src[c] != self.src[j] or self.tgt[c] != self.tgt[i]:
                        raise NotACategory(f"composite of ({i},{j}) has wrong endpoints")
                elif c != -1:
                    raise NotACategory(f"non-composable pair ({i},{j}) has an entry")
        for i in range(m):
            if self.comp[i][self.ids[self.src[i]]] != i:
                raise NotACategory(f"right identity law fails at arrow {i}")
            if self.comp[self.ids[self.tgt[i]]][i] != i:
                raise NotACategory(f"left identity law fails at arrow {i}")
        for i in range(m):
            for j in range(m):
                if self.src[i] != self.tgt[j]:
                    continue
                for k in range(m):
                    if self.src[j] != self.tgt[k]:
                        continue
                    if self.comp[self.comp[i][j]][k] != self.comp[i][self.comp[j][k]]:
                        raise NotACategory(f"associativity fails at ({i},{j},{k})")


def from_small_category(cat: SmallCategory) -> RelativeCategory:
    """Realize a small category as a relative category over finite sets,
    reading composition through the pullback's pair enumeration."""
    cat.validate()
    base = _finset.FINSET
    b = _finset.FinSetObj(cat.n_obj)
    a = _finset.FinSetObj(cat.n_arr)
    s = _finset.FinFun(a, b, cat.src)
    t = _finset.FinFun(a, b, cat.tgt)
    i = _finset.FinFun(b, a, cat.ids)
    pb = relative_pullback(base, s, t)
    d = _finset.FinFun(pb.apex, a, tuple(cat.comp[x][y] for x, y in pb.payload))
    return RelativeCategory(base, b, a, s, t, i, d, pb)


def composition_table(rc: RelativeCategory) -> list:
    """Read the composition back out of a finite-set relative category as the
    m x m table with -1 on non-composable pairs (round-trip of
    from_small_category)."""
    m = rc.a.size
    table = [[-1] * m for _ in range(m)]
    for idx, (x, y) in enumerate(rc.pb.payload):
        table[x][y] = rc.d.table[idx]
    return table


def linearize_relcat(rc: RelativeCategory, fld) -> RelativeCategory:
    """Transport a finite-set relative category along the group-like
    linearization; the coalgebra pullback apex is identified with the
    linearized pair set (verified, not assumed)."""
    s, t, i = rc.base.linearize((rc.s, rc.t, rc.i), fld)
    base = _coalg.CoalgCategory(fld)
    b, a = s.tgt, s.src
    pb = relative_pullback(base, s, t)
    pairs = rc.pb.payload
    if pb.apex.dim != len(pairs):
        raise ShapeMismatch("linearized pullback dimension does not match the pair count")
    if _unit_rows(pb.payload.j.mat) != [x * a.dim + y for x, y in pairs]:
        raise ShapeMismatch("pullback basis is not the group-like pair basis; cannot identify")
    d = _coalg.CoalgMap._valid(pb.apex, a, _unit_matrix(fld, a.dim, list(rc.d.table)))
    return RelativeCategory(base, b, a, s, t, i, d, pb)
