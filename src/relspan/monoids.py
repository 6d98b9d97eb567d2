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


def check_monoid(mon: MonoidObj) -> Report:
    base = mon.base
    a = mon.carrier
    if base.dom(mon.m) != base.tensor_obj(a, a) or base.cod(mon.m) != a:
        raise ShapeMismatch("multiplication has the wrong shape")
    if base.dom(mon.u) != base.unit_obj() or base.cod(mon.u) != a:
        raise ShapeMismatch("unit has the wrong shape")
    ida = base.identity(a)
    rep = Report()
    rep.add(
        "associativity",
        base.compose(mon.m, base.tensor_mor(mon.m, ida))
        == base.compose(mon.m, base.tensor_mor(ida, mon.m)),
        "m∘(m⊗1) != m∘(1⊗m)",
    )
    rep.add(
        "left unit",
        base.compose(mon.m, base.tensor_mor(mon.u, ida)) == ida,
        "m∘(u⊗1) != 1",
    )
    rep.add(
        "right unit",
        base.compose(mon.m, base.tensor_mor(ida, mon.u)) == ida,
        "m∘(1⊗u) != 1",
    )
    rep.extend(base.monoid_checks(mon))
    return rep


def check_monoid_morphism(mm: MonoidMorphism) -> Report:
    base = mm.src.base
    rep = Report()
    rep.add(
        "multiplicative",
        base.compose(mm.f, mm.src.m) == base.compose(mm.tgt.m, base.tensor_mor(mm.f, mm.f)),
        "f∘m != m'∘(f⊗f)",
    )
    rep.add(
        "unital",
        base.compose(mm.f, mm.src.u) == mm.tgt.u,
        "f∘u != u'",
    )
    return rep


def check_dist_law(dl: DistLaw) -> Report:
    base = dl.a.base
    a, b = dl.a, dl.b
    ida = base.identity(a.carrier)
    idb = base.identity(b.carrier)
    x = dl.x
    rep = Report()
    rep.add(
        "x∘(m⊗1) = (1⊗m)∘(x⊗1)∘(1⊗x)",
        base.compose(x, base.tensor_mor(b.m, ida))
        == base.compose(
            base.tensor_mor(ida, b.m),
            base.compose(base.tensor_mor(x, idb), base.tensor_mor(idb, x)),
        ),
        "multiplication of B not respected",
    )
    rep.add(
        "x∘(u⊗1) = 1⊗u",
        base.compose(x, base.tensor_mor(b.u, ida)) == base.tensor_mor(ida, b.u),
        "unit of B not respected",
    )
    rep.add(
        "x∘(1⊗m) = (m⊗1)∘(1⊗x)∘(x⊗1)",
        base.compose(x, base.tensor_mor(idb, a.m))
        == base.compose(
            base.tensor_mor(a.m, idb),
            base.compose(base.tensor_mor(ida, x), base.tensor_mor(x, ida)),
        ),
        "multiplication of A not respected",
    )
    rep.add(
        "x∘(1⊗u) = u⊗1",
        base.compose(x, base.tensor_mor(idb, a.u)) == base.tensor_mor(a.u, idb),
        "unit of A not respected",
    )
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


def _require_inverse(base, q, q_inverse):
    if (
        base.compose(q, q_inverse) != base.identity(base.cod(q))
        or base.compose(q_inverse, q) != base.identity(base.dom(q))
    ):
        raise NotInverse("supplied q_inverse is not a two-sided inverse of q")


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
    _require_inverse(base, q, q_inverse)
    x = base.compose(q_inverse, base.compose(f.tgt.m, base.tensor_mor(g.f, f.f)))
    dl = DistLaw(f.src, g.src, x)
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
    if base.compose(m_ab, dl.x) != base.compose(c.m, base.tensor_mor(b.f, a.f)):
        raise CompatibilityFails("m∘(a⊗b)∘x != m∘(b⊗a)")
    return MonoidMorphism(product_monoid(dl), c, m_ab)


def pair_from_morphism(dl: DistLaw, c: MonoidMorphism):
    """The pair (c∘(1⊗u), c∘(u⊗1)) of monoid morphisms out of A and B."""
    base = dl.a.base
    fa = base.compose(c.f, base.tensor_mor(base.identity(dl.a.carrier), dl.b.u))
    fb = base.compose(c.f, base.tensor_mor(dl.a.u, base.identity(dl.b.carrier)))
    return (
        MonoidMorphism(dl.a, c.tgt, fa),
        MonoidMorphism(dl.b, c.tgt, fb),
    )


def factor_through(
    f: MonoidMorphism, g: MonoidMorphism, q_inverse, a: MonoidMorphism, b: MonoidMorphism
) -> MonoidMorphism:
    """The unique c: C -> D with c∘f = a and c∘g = b, for an invertible q and a
    compatible pair (a, b): c = m∘(a⊗b)∘q^{-1}."""
    base = f.src.base
    _require_inverse(base, induced_q(f, g), q_inverse)
    d = a.tgt
    _require_same_monoid(d, b.tgt, "factor_through")
    m_ab = base.compose(d.m, base.tensor_mor(a.f, b.f))
    compat_lhs = base.compose(
        m_ab, base.compose(q_inverse, base.compose(f.tgt.m, base.tensor_mor(g.f, f.f)))
    )
    compat_rhs = base.compose(d.m, base.tensor_mor(b.f, a.f))
    if compat_lhs != compat_rhs:
        raise CompatibilityFails("m∘(a⊗b)∘q⁻¹∘m∘(g⊗f) != m∘(b⊗a)")
    return MonoidMorphism(f.tgt, d, base.compose(m_ab, q_inverse))
