"""Finite sets and functions: the Cartesian base instance.

Objects are sets {0, .., n-1}, morphisms are lookup tables.  The monoidal
product is the Cartesian product with the row-major pairing index
(x, y) -> x * |Y| + y, which makes the product strictly associative and
strictly unital against the singleton, matching the tensor conventions of the
linear instance.  The admissible span class here is the class of all spans,
and relative pullbacks are ordinary pullbacks: a RelPullback whose payload is
the tuple of matching pairs in lexicographic order.  pullback and
universal_factor are unchecked constructions behind relpull, which checks
the cospan's codomain and the test span's ends and apex.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import coalg
from .catcore import BaseCategory, RelPullback, Report, build, require_same_ends
from .errors import CodomainMismatch, ShapeMismatch, SquareDoesNotCommute
from .linalg import _unit_matrix
from .monoids import MonoidObj, check_monoid


@dataclass(frozen=True)
class FinSetObj:
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ShapeMismatch("negative set size")


@dataclass(frozen=True)
class FinFun:
    dom: FinSetObj
    cod: FinSetObj
    table: tuple

    def __init__(self, dom, cod, table):
        table = tuple(table)
        if len(table) != dom.size:
            raise ShapeMismatch("table length does not match the domain size")
        for v in table:
            if not (0 <= v < cod.size):
                raise ShapeMismatch(f"table value {v} outside the codomain")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "table", table)

    @classmethod
    def _valid(cls, dom, cod, table: tuple):
        """A FinFun from a table that maps dom into cod by construction; not re-validated."""
        f = cls.__new__(cls)
        object.__setattr__(f, "dom", dom)
        object.__setattr__(f, "cod", cod)
        object.__setattr__(f, "table", table)
        return f

    def __call__(self, x):
        return self.table[x]


class FinSetCategory(BaseCategory):
    name = "finset"

    def identity(self, obj):
        return FinFun._valid(obj, obj, tuple(range(obj.size)))

    def compose(self, g: FinFun, f: FinFun) -> FinFun:
        if f.cod != g.dom:
            raise CodomainMismatch("compose: cod(f) != dom(g)")
        return FinFun._valid(f.dom, g.cod, tuple(map(g.table.__getitem__, f.table)))

    def dom(self, f):
        return f.dom

    def cod(self, f):
        return f.cod

    def size(self, obj):
        return obj.size

    def tensor_obj(self, x, y):
        return FinSetObj(x.size * y.size)

    def tensor_mor(self, f: FinFun, g: FinFun) -> FinFun:
        gm = g.cod.size
        table = tuple([a * gm + b for a in f.table for b in g.table])
        return FinFun._valid(self.tensor_obj(f.dom, g.dom), self.tensor_obj(f.cod, g.cod), table)

    def unit_obj(self):
        return FinSetObj(1)

    def symmetry(self, x: FinSetObj, y: FinSetObj) -> FinFun:
        m, n = x.size, y.size
        table = tuple(j * m + i for i in range(m) for j in range(n))
        return FinFun._valid(FinSetObj(m * n), FinSetObj(n * m), table)

    def first_difference(self, lhs, rhs):
        """Both sides built whole: on decoded input, jsonio.MAX_PULLBACK_PAIRS
        bounds their tables."""
        f, g = build(self, lhs), build(self, rhs)
        require_same_ends((f.dom, f.cod), (g.dom, g.cod))
        if f.table == g.table:
            return None
        return next(x for x, (a, b) in enumerate(zip(f.table, g.table)) if a != b)

    def invert(self, f: FinFun):
        if f.dom.size != f.cod.size or len(set(f.table)) != f.dom.size:
            return None
        inv = [0] * f.dom.size
        for x, y in enumerate(f.table):
            inv[y] = x
        return FinFun(f.cod, f.dom, inv)

    def failure_witness(self, span):
        """Every span is in the class of all spans."""
        self.check_span(span)
        return None

    def pullback(self, f, g):
        return pullback(f, g)

    def factor(self, pb, a, c):
        return universal_factor(pb, a, c)

    def linearize(self, maps, fld):
        return linearize_funs(maps, fld)


FINSET = FinSetCategory()


def pullback(f: FinFun, g: FinFun) -> RelPullback:
    """Ordinary pullback of f: A -> B <- C :g on lexicographic matching pairs,
    which are its payload.  Unchecked: relpull.relative_pullback checks the
    common codomain before calling this."""
    fibers = {}
    for c, y in enumerate(g.table):
        fibers.setdefault(y, []).append(c)
    pairs = tuple((a, c) for a, y in enumerate(f.table) for c in fibers.get(y, ()))
    p = FinSetObj(len(pairs))
    p_a = FinFun._valid(p, f.dom, tuple(a for a, _ in pairs))
    p_c = FinFun._valid(p, g.dom, tuple(c for _, c in pairs))
    return RelPullback(FINSET, f, g, p, p_a, p_c, True, pairs)


def pair_count(*tables) -> int:
    """The number of matching chains x₀, x₂, … of the zigzag of tables
    X₀ -t₀-> Y₁ <-t₁- X₂ -t₂-> Y₃ …, t₀(x₀) = t₁(x₂), t₂(x₂) = t₃(x₄), …: the
    size of their iterated pullback, from one pass of fiber weights along the
    zigzag, listing none.  An X is indexed as far as both its tables go."""
    weights = Counter(tables[0])
    for back, out in zip(tables[1:-1:2], tables[2::2]):
        ahead = Counter()
        for y, z in zip(back, out):
            ahead[z] += weights[y]
        weights = ahead
    return sum(weights[y] for y in tables[-1])


def universal_factor(pb: RelPullback, a: FinFun, c: FinFun) -> FinFun:
    """The unique h with p_A∘h = a and p_C∘h = c, for a commuting span (a, c).
    Checks the square; unchecked otherwise: relpull.universal_factor checks
    the span's apex and ends before calling this."""
    idx = {pair: k for k, pair in enumerate(pb.payload)}
    table = []
    for x in range(a.dom.size):
        if pb.f.table[a.table[x]] != pb.g.table[c.table[x]]:
            raise SquareDoesNotCommute(f"f(a({x})) != g(c({x}))")
        table.append(idx[(a.table[x], c.table[x])])
    return FinFun._valid(a.dom, pb.apex, tuple(table))


def finset_monoid_check(m_obj: FinSetObj, m: FinFun, u: int) -> Report:
    """check_monoid of a multiplication table, its unit laws reported as
    one: the witnesses are the first triple "(a,b,c)" in lexicographic
    order and the first element "a" that either unit law fails on."""
    n = m_obj.size
    if m.dom.size != n * n or m.cod != m_obj:
        raise ShapeMismatch("multiplication table has the wrong shape")
    if not 0 <= u < n:
        raise ShapeMismatch("unit element outside the carrier")
    assoc, *units = check_monoid(MonoidObj(FINSET, m_obj, m, FinFun._valid(FinSetObj(1), m_obj, (u,)))).checks
    unit = min((int(c.witness) for c in units if not c.ok), default=None)
    rep = Report([assoc])
    rep.add("two-sided unit", unit is None, str(unit))
    return rep


def linearize_funs(maps, fld) -> list:
    """linearize_fun of each map, equal sets sharing one k[X]."""
    objs = {}
    return [linearize_fun(f, fld, objs) for f in maps]


def linearize_obj(x: FinSetObj, fld) -> coalg.Coalgebra:
    """The group-like coalgebra k[X]: δ(e_x) = e_x⊗e_x, ε(e_x) = 1."""
    return coalg.grouplike(fld, x.size)


def linearize_fun(f: FinFun, fld, objs=None) -> coalg.CoalgMap:
    """e_x -> e_{f(x)}; a comonoid morphism between group-like coalgebras.
    objs maps each set already linearized to its k[X] and takes the new
    ones, so maps linearized with one objs share their objects."""
    objs = {} if objs is None else objs
    for x in (f.dom, f.cod):
        if x not in objs:
            objs[x] = linearize_obj(x, fld)
    return coalg.CoalgMap._valid(objs[f.dom], objs[f.cod], _unit_matrix(fld, f.cod.size, list(f.table)))
