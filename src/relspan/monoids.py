"""Monoids in a symmetric monoidal base category.

Generic over a BaseCategory instance: monoid axioms, the induced morphism
q = m∘(f⊗g), distributive laws and the product monoid they induce, the
factorization of an invertible q through a distributive law, the bijection
between monoid morphisms out of a product and compatible pairs, and the
factorization of pairs through an invertible q.

Over finite sets these are ordinary monoids; over coalgebras a monoid is a
bialgebra.  check_monoid adds the base category's own monoid_checks to the
three monoid axioms (over coalgebras: multiplication and unit are coalgebra
maps).
"""

from __future__ import annotations

from dataclasses import dataclass

from .catcore import BaseCategory, Report
from .errors import (
    CodomainMismatch,
    CompatibilityFails,
    NotADistLaw,
    NotInverse,
    ShapeMismatch,
)


@dataclass
class MonoidObj:
    base: BaseCategory
    carrier: object
    m: object  # carrier⊗carrier -> carrier
    u: object  # I -> carrier


@dataclass
class MonoidMorphism:
    src: MonoidObj
    tgt: MonoidObj
    f: object


@dataclass
class DistLaw:
    a: MonoidObj
    b: MonoidObj
    x: object  # B⊗A -> A⊗B


def _at(base: BaseCategory, factors, j) -> str:
    """Basis index j of the tensor product of factors by its factor
    indices: "a" for one factor, "(a,b,c)" for three."""
    idx = []
    for x in reversed(factors):
        j, i = divmod(j, base.size(x))
        idx.insert(0, str(i))
    return idx[0] if len(idx) == 1 else f"({','.join(idx)})"


def _difference(base: BaseCategory, lhs, rhs, *factors) -> str | None:
    """None when lhs = rhs, else the first basis element of their domain,
    the tensor product of factors, on which they differ (_at)."""
    j = base.first_difference(lhs, rhs)
    return None if j is None else _at(base, factors, j)


def _equation(rep: Report, name, base: BaseCategory, lhs, rhs, *factors):
    rep.equation(name, base, lhs, rhs, lambda j: _at(base, factors, j))


def check_monoid(mon: MonoidObj) -> Report:
    base, a, m, u = mon.base, mon.carrier, mon.m, mon.u
    if base.dom(m) != base.tensor_obj(a, a) or base.cod(m) != a:
        raise ShapeMismatch("multiplication has the wrong shape")
    if base.dom(u) != base.unit_obj() or base.cod(u) != a:
        raise ShapeMismatch("unit has the wrong shape")
    ida = base.identity(a)
    rep = Report()
    _equation(rep, "associativity", base, ("∘", m, ("⊗", m, ida)), ("∘", m, ("⊗", ida, m)), a, a, a)
    _equation(rep, "left unit", base, ("∘", m, ("⊗", u, ida)), ida, a)
    _equation(rep, "right unit", base, ("∘", m, ("⊗", ida, u)), ida, a)
    rep.extend(base.monoid_checks(mon))
    return rep


def check_monoid_morphism(mm: MonoidMorphism) -> Report:
    base, a, f = mm.src.base, mm.src.carrier, mm.f
    rep = Report()
    _equation(rep, "multiplicative", base, ("∘", f, mm.src.m), ("∘", mm.tgt.m, ("⊗", f, f)), a, a)
    _equation(rep, "unital", base, ("∘", f, mm.src.u), mm.tgt.u, base.unit_obj())
    return rep


def check_dist_law(dl: DistLaw) -> Report:
    base, a, b, x = dl.a.base, dl.a, dl.b, dl.x
    ida, idb = base.identity(a.carrier), base.identity(b.carrier)
    rep = Report()
    _equation(rep, "x∘(m⊗1) = (1⊗m)∘(x⊗1)∘(1⊗x)", base, ("∘", x, ("⊗", b.m, ida)),
              ("∘", ("⊗", ida, b.m), ("∘", ("⊗", x, idb), ("⊗", idb, x))), b.carrier, b.carrier, a.carrier)
    _equation(rep, "x∘(u⊗1) = 1⊗u", base, ("∘", x, ("⊗", b.u, ida)), ("⊗", ida, b.u), a.carrier)
    _equation(rep, "x∘(1⊗m) = (m⊗1)∘(1⊗x)∘(x⊗1)", base, ("∘", x, ("⊗", idb, a.m)),
              ("∘", ("⊗", a.m, idb), ("∘", ("⊗", ida, x), ("⊗", x, ida))), b.carrier, a.carrier, a.carrier)
    _equation(rep, "x∘(1⊗u) = u⊗1", base, ("∘", x, ("⊗", idb, a.u)), ("⊗", a.u, idb), b.carrier)
    return rep


def _require_same_monoid(x: MonoidObj, y: MonoidObj, what: str):
    """x and y are one monoid: carrier, multiplication and unit all equal."""
    if x is not y and (x.carrier != y.carrier or x.m != y.m or x.u != y.u):
        raise CodomainMismatch(f"{what} needs a common codomain monoid")


def induced_q(f: MonoidMorphism, g: MonoidMorphism):
    """q = m_C∘(f⊗g): A⊗B -> C; q is epi exactly when (f, g) is jointly epi."""
    base = f.src.base
    _require_same_monoid(f.tgt, g.tgt, "induced_q")
    return base.compose(f.tgt.m, base.tensor_mor(f.f, g.f))


def product_monoid(dl: DistLaw) -> MonoidObj:
    """The monoid on A⊗B induced by a distributive law: unit u⊗u and
    multiplication (m⊗m)∘(1⊗x⊗1)."""
    rep = check_dist_law(dl)
    if not rep.ok:
        raise NotADistLaw("; ".join(c.name for c in rep.failures()))
    base = dl.a.base
    a, b = dl.a, dl.b
    ida = base.identity(a.carrier)
    idb = base.identity(b.carrier)
    carrier = base.tensor_obj(a.carrier, b.carrier)
    m = base.compose(
        base.tensor_mor(a.m, b.m), base.tensor_mor(ida, base.tensor_mor(dl.x, idb))
    )
    u = base.tensor_mor(a.u, b.u)
    return MonoidObj(base, carrier, m, u)


def inclusion_a(dl: DistLaw, prod: MonoidObj) -> MonoidMorphism:
    """A -> A⊗B via 1⊗u."""
    base = dl.a.base
    return MonoidMorphism(dl.a, prod, base.tensor_mor(base.identity(dl.a.carrier), dl.b.u))


def inclusion_b(dl: DistLaw, prod: MonoidObj) -> MonoidMorphism:
    """B -> A⊗B via u⊗1."""
    base = dl.a.base
    return MonoidMorphism(dl.b, prod, base.tensor_mor(dl.a.u, base.identity(dl.b.carrier)))


def _require_inverse(f: MonoidMorphism, g: MonoidMorphism, q, q_inverse):
    """q∘q⁻¹ = 1 on C and q⁻¹∘q = 1 on A⊗B, for q: A⊗B -> C."""
    base, c = f.src.base, f.tgt.carrier
    w = _difference(base, ("∘", q, q_inverse), base.identity(c), c) or _difference(
        base, ("∘", q_inverse, q), base.identity(base.dom(q)), f.src.carrier, g.src.carrier)
    if w is not None:
        raise NotInverse(f"supplied q_inverse is not a two-sided inverse of q: not the identity at {w}")


def factorization_dlaw(f: MonoidMorphism, g: MonoidMorphism, q_inverse=None) -> DistLaw:
    """For monoid morphisms f: A -> C <- B :g with invertible q, the unique
    distributive law x = q^{-1}∘m∘(g⊗f) making q a monoid isomorphism from
    the product monoid to C."""
    base = f.src.base
    q = induced_q(f, g)
    if q_inverse is None:
        q_inverse = base.invert(q)
        if q_inverse is None:
            raise NotInverse("q is not invertible and no inverse was supplied")
    _require_inverse(f, g, q, q_inverse)
    dl = DistLaw(f.src, g.src, base.compose(q_inverse, induced_q(g, f)))
    rep = check_dist_law(dl)
    if not rep.ok:
        raise NotADistLaw("; ".join(c.name for c in rep.failures()))
    return dl


def morphism_from_pair(dl: DistLaw, a: MonoidMorphism, b: MonoidMorphism) -> MonoidMorphism:
    """The monoid morphism m∘(a⊗b): A⊗B -> C from a compatible pair
    (requires m∘(a⊗b)∘x = m∘(b⊗a))."""
    base = dl.a.base
    c = a.tgt
    _require_same_monoid(c, b.tgt, "morphism_from_pair")
    m_ab = base.compose(c.m, base.tensor_mor(a.f, b.f))
    w = _difference(base, ("∘", m_ab, dl.x), ("∘", c.m, ("⊗", b.f, a.f)), dl.b.carrier, dl.a.carrier)
    if w is not None:
        raise CompatibilityFails(f"m∘(a⊗b)∘x and m∘(b⊗a) differ at {w}")
    return MonoidMorphism(product_monoid(dl), c, m_ab)


def pair_from_morphism(dl: DistLaw, c: MonoidMorphism):
    """The pair (c∘(1⊗u), c∘(u⊗1)) of monoid morphisms out of A and B."""
    return tuple(MonoidMorphism(i.src, c.tgt, dl.a.base.compose(c.f, i.f))
                 for i in (inclusion_a(dl, c.src), inclusion_b(dl, c.src)))


def factor_through(
    f: MonoidMorphism, g: MonoidMorphism, q_inverse, a: MonoidMorphism, b: MonoidMorphism
) -> MonoidMorphism:
    """The unique c: C -> D with c∘f = a and c∘g = b, for an invertible q and a
    compatible pair (a, b): c = m∘(a⊗b)∘q^{-1}."""
    base = f.src.base
    _require_inverse(f, g, induced_q(f, g), q_inverse)
    d = a.tgt
    _require_same_monoid(d, b.tgt, "factor_through")
    m_ab = base.compose(d.m, base.tensor_mor(a.f, b.f))
    w = _difference(base, ("∘", m_ab, ("∘", q_inverse, ("∘", f.tgt.m, ("⊗", g.f, f.f)))),
                    ("∘", d.m, ("⊗", b.f, a.f)), g.src.carrier, f.src.carrier)
    if w is not None:
        raise CompatibilityFails(f"m∘(a⊗b)∘q⁻¹∘m∘(g⊗f) and m∘(b⊗a) differ at {w}")
    return MonoidMorphism(f.tgt, d, base.compose(m_ab, q_inverse))
