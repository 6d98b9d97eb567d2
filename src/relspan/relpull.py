"""The relative-pullback calculus, generic over any base category.

Constructs relative pullbacks (catcore.RelPullback) and their universal
fillers with the base category's own construction (ordinary pullbacks over
finite sets, comonoid equalizers over coalgebras), after deciding here, once
per call, that the legs or the test span are in the class.  Also constructs
the induced morphism a□c between pullbacks, as a morphism of the base
category, the unit and associativity isomorphisms with their coherence
(triangle and pentagon) checks, the monoid structure on a pullback of monoid
morphisms, and instance checks of the reflection property.

The associativity and unit isomorphisms are materialized morphisms, never
identities; every coherence statement here composes with them explicitly.
"""

from __future__ import annotations

from .catcore import BaseCategory, RelPullback, Report, Span, legs_in_class
from .errors import (
    LegsNotInClass,
    MissingPullback,
    NotMonoidMorphisms,
    ShapeMismatch,
    SpanNotInClass,
    SquareDoesNotCommute,
)
from .monoids import MonoidMorphism, MonoidObj, check_monoid_morphism


def relative_pullback(base: BaseCategory, f, g) -> RelPullback:
    """The base category's pullback of a cospan whose legs are in the class."""
    if not legs_in_class(base, f, g):
        raise LegsNotInClass("cospan legs are not in the admissible class")
    return base.pullback(f, g)


def universal_factor(pb: RelPullback, a, c):
    """The unique filler h with p_A∘h = a and p_C∘h = c for a class-member
    span (a, c) whose square commutes."""
    base = pb.base
    w = base.failure_witness(Span(a, c))
    if w is not None:
        raise SpanNotInClass(w)
    return base.factor(pb, a, c)


def box(source: RelPullback, target: RelPullback, a, c, b):
    """The unique a□c: source apex -> target apex for morphisms a, b, c with
    b∘f = f'∘a and b∘g = g'∘c."""
    base = source.base
    if base.compose(b, source.f) != base.compose(target.f, a):
        raise SquareDoesNotCommute("b∘f != f'∘a")
    if base.compose(b, source.g) != base.compose(target.g, c):
        raise SquareDoesNotCommute("b∘g != g'∘c")
    return universal_factor(target, base.compose(a, source.p_a), base.compose(c, source.p_c))


def unit_isos(pb: RelPullback, side: str):
    """Unit isomorphisms: for a cospan with an identity leg the facing
    projection is invertible; returns (projection, verified inverse).

    side='right': cospan (f: A -> B, id_B), p_A: A□B -> A is the iso.
    side='left' : cospan (id_B, g: C -> B), p_C: B□C -> C is the iso.
    """
    base = pb.base
    if side == "right":
        if pb.g != base.identity(base.cod(pb.f)):
            raise ShapeMismatch("right unit iso needs the right leg to be the identity")
        proj = pb.p_a
        inv = universal_factor(pb, base.identity(base.dom(pb.f)), pb.f)
    elif side == "left":
        if pb.f != base.identity(base.cod(pb.g)):
            raise ShapeMismatch("left unit iso needs the left leg to be the identity")
        proj = pb.p_c
        inv = universal_factor(pb, pb.g, base.identity(base.dom(pb.g)))
    else:
        raise ValueError("side must be 'left' or 'right'")
    if base.compose(proj, inv) != base.identity(base.cod(proj)):
        raise ShapeMismatch("projection inverse failed on one side")
    if base.compose(inv, proj) != base.identity(pb.apex):
        raise ShapeMismatch("projection inverse failed on the other side")
    return proj, inv


def _require_equal_mor(f, g, what):
    if f != g:
        raise MissingPullback(f"pullback data mismatch: {what}")


def assoc_iso(pb_xy: RelPullback, pb_xy_z: RelPullback, pb_yz: RelPullback, pb_x_yz: RelPullback):
    """The rebracketing isomorphism l: (X□Y)□Z -> X□(Y□Z) and its verified
    inverse, built from the universal fillers of the two defining diagrams.

    Expects pb_xy over (rx, ly), pb_yz over (ry, lz), pb_xy_z over
    (ry∘p_Y, lz) and pb_x_yz over (rx, ly∘p_Y), each from relative_pullback,
    which decided that its legs are in the class."""
    base = pb_xy.base
    _require_equal_mor(pb_xy_z.f, base.compose(pb_yz.f, pb_xy.p_c), "(X□Y)□Z left leg")
    _require_equal_mor(pb_xy_z.g, pb_yz.g, "(X□Y)□Z right leg")
    _require_equal_mor(pb_x_yz.f, pb_xy.f, "X□(Y□Z) left leg")
    _require_equal_mor(pb_x_yz.g, base.compose(pb_xy.g, pb_yz.p_a), "X□(Y□Z) right leg")

    # p_Y□1: (X□Y)□Z -> Y□Z over b = id of the middle base
    q = box(pb_xy_z, pb_yz, pb_xy.p_c, base.identity(base.dom(pb_yz.g)),
            base.identity(base.cod(pb_yz.f)))
    l = universal_factor(pb_x_yz, base.compose(pb_xy.p_a, pb_xy_z.p_a), q)
    # 1□p_Y: X□(Y□Z) -> X□Y
    q2 = box(pb_x_yz, pb_xy, base.identity(base.dom(pb_xy.f)), pb_yz.p_a,
             base.identity(base.cod(pb_xy.f)))
    l_inv = universal_factor(pb_xy_z, q2, base.compose(pb_yz.p_c, pb_x_yz.p_c))
    if base.compose(l, l_inv) != base.identity(pb_x_yz.apex):
        raise MissingPullback("l∘l⁻¹ is not the identity")
    if base.compose(l_inv, l) != base.identity(pb_xy_z.apex):
        raise MissingPullback("l⁻¹∘l is not the identity")
    return l, l_inv


def coherence_triangle(base: BaseCategory, f, g) -> bool:
    """Mac Lane's triangle for the unit isomorphisms: over the chain
    A -f-> B <-g- C, (1□λ)∘l = ρ□1 as morphisms (A□B)□C -> A□C."""
    b_obj = base.cod(f)
    id_b = base.identity(b_obj)
    pb_ab = relative_pullback(base, f, id_b)
    pb_bc = relative_pullback(base, id_b, g)
    pb_ac = relative_pullback(base, f, g)
    pb_ab_c = relative_pullback(base, base.compose(id_b, pb_ab.p_c), g)
    pb_a_bc = relative_pullback(base, f, base.compose(id_b, pb_bc.p_a))
    l, _ = assoc_iso(pb_ab, pb_ab_c, pb_bc, pb_a_bc)
    lam = box(pb_a_bc, pb_ac, base.identity(base.dom(f)), pb_bc.p_c, id_b)
    rho = box(pb_ab_c, pb_ac, pb_ab.p_a, base.identity(base.dom(g)), id_b)
    return base.compose(lam, l) == rho


def coherence_pentagon(base: BaseCategory, f, g, h, k, r, s) -> bool:
    """Mac Lane's pentagon for the associativity isomorphisms over the chain
    A -f-> B <-g- C -h-> D <-k- E -r-> F <-s- G."""
    pb_ac = relative_pullback(base, f, g)
    pb_ce = relative_pullback(base, h, k)
    pb_eg = relative_pullback(base, r, s)

    pb_ac_e = relative_pullback(base, base.compose(h, pb_ac.p_c), k)   # (A□C)□E
    pb_c_eg = relative_pullback(base, h, base.compose(k, pb_eg.p_a))   # C□(E□G)
    pb_ce_g = relative_pullback(base, base.compose(r, pb_ce.p_c), s)   # (C□E)□G
    pb_a_ce = relative_pullback(base, f, base.compose(g, pb_ce.p_a))   # A□(C□E)

    pb_ac_e_g = relative_pullback(base, base.compose(r, pb_ac_e.p_c), s)  # ((A□C)□E)□G
    pb_ac_eg = relative_pullback(
        base, base.compose(h, pb_ac.p_c), base.compose(k, pb_eg.p_a)
    )                                                   # (A□C)□(E□G)
    pb_a_c_eg = relative_pullback(base, f, base.compose(g, pb_c_eg.p_a))  # A□(C□(E□G))
    pb_a_ce_g = relative_pullback(
        base, base.compose(r, base.compose(pb_ce.p_c, pb_a_ce.p_c)), s
    )                                                   # (A□(C□E))□G
    pb_a__ce_g = relative_pullback(base, f, base.compose(g, base.compose(pb_ce.p_a, pb_ce_g.p_a)))
    #                                                   # A□((C□E)□G)

    # path 1: alpha_{A□C, E, G} then alpha_{A, C, E□G}
    a1, _ = assoc_iso(pb_ac_e, pb_ac_e_g, pb_eg, pb_ac_eg)
    a2, _ = assoc_iso(pb_ac, pb_ac_eg, pb_c_eg, pb_a_c_eg)
    path1 = base.compose(a2, a1)

    # path 2: (alpha_{A,C,E}□1), alpha_{A, C□E, G}, then (1□alpha_{C,E,G})
    a3, _ = assoc_iso(pb_ac, pb_ac_e, pb_ce, pb_a_ce)
    a3_box = box(pb_ac_e_g, pb_a_ce_g, a3, base.identity(base.dom(s)),
                 base.identity(base.cod(r)))
    a4, _ = assoc_iso(pb_a_ce, pb_a_ce_g, pb_ce_g, pb_a__ce_g)
    a5, _ = assoc_iso(pb_ce, pb_ce_g, pb_eg, pb_c_eg)
    a5_box = box(pb_a__ce_g, pb_a_c_eg, base.identity(base.dom(f)), a5,
                 base.identity(base.cod(f)))
    path2 = base.compose(a5_box, base.compose(a4, a3_box))

    return path1 == path2


def monoid_on_pullback(fm: MonoidMorphism, gm: MonoidMorphism, pb: RelPullback) -> MonoidObj:
    """The unique monoid structure on A□_B C making both projections monoid
    morphisms, for monoid morphisms f and g: multiplication and unit are the
    universal fillers of m∘(p⊗p) pairs and of (u, u)."""
    base = pb.base
    if not (check_monoid_morphism(fm).ok and check_monoid_morphism(gm).ok):
        raise NotMonoidMorphisms("both legs must be monoid morphisms")
    if fm.f != pb.f or gm.f != pb.g:
        raise NotMonoidMorphisms("monoid morphisms do not match the pullback cospan")
    a_mon, c_mon = fm.src, gm.src
    m = universal_factor(
        pb,
        base.compose(a_mon.m, base.tensor_mor(pb.p_a, pb.p_a)),
        base.compose(c_mon.m, base.tensor_mor(pb.p_c, pb.p_c)),
    )
    u = universal_factor(pb, a_mon.u, c_mon.u)
    return MonoidObj(base, pb.apex, m, u)


def check_reflection_instance(pb: RelPullback, k, l, side: str = "left") -> Report:
    """One instance of the reflection property of a relative pullback.

    side='left': for a span (k: D -> apex, l: D -> E), if both composed spans
    (p_A∘k, l) and (p_C∘k, l) are members then (k, l) must be.
    side='right' is the mirrored statement for spans (l, k)."""
    base = pb.base
    if side == "left":
        hyp1 = base.contains(Span(base.compose(pb.p_a, k), l))
        hyp2 = base.contains(Span(base.compose(pb.p_c, k), l))
        concl = base.contains(Span(k, l))
    elif side == "right":
        hyp1 = base.contains(Span(l, base.compose(pb.p_a, k)))
        hyp2 = base.contains(Span(l, base.compose(pb.p_c, k)))
        concl = base.contains(Span(l, k))
    else:
        raise ValueError("side must be 'left' or 'right'")
    rep = Report()
    rep.add("hypothesis span through p_A is a member", hyp1, "first hypothesis fails")
    rep.add("hypothesis span through p_C is a member", hyp2, "second hypothesis fails")
    rep.add(
        "reflection conclusion",
        (not (hyp1 and hyp2)) or concl,
        "both hypotheses hold but the conclusion span is not a member",
    )
    return rep
