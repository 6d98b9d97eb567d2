"""Relative pullback calculus: box morphisms, unit/assoc isos, coherence, monoids."""

import dataclasses
import re

import pytest

from gen import (
    FIELDS,
    all_monoids,
    divided_power,
    finset_monoid,
    group_algebra,
    group_c2,
    group_pullback,
    group_v4,
    rand_box_config,
    rand_box_stage2,
    rand_finfun,
    random_basis,
    rebased,
    rebased_map,
    rng_for,
)
from relspan import (
    FINSET,
    QQ,
    CoalgCategory,
    FinFun,
    FinSetObj,
    Matrix,
    MonoidMorphism,
    RelPullback,
    Span,
    box,
    check_coalgebra,
    check_monoid,
    check_monoid_morphism,
    check_reflection_instance,
    coherence_pentagon,
    coherence_triangle,
    compare_cotensor_pullback,
    grouplike,
    linearize_fun,
    monoid_on_pullback,
    path_coalgebra,
    relative_pullback,
    trivial,
    unit_isos,
    universal_factor,
)
from relspan.coalg import CoalgEqualizer, CoalgMap, cid, relative_pullback_coalg
from relspan import coalg, linalg
from relspan.finset import FinSetCategory, linearize_funs, pullback
from relspan.errors import (
    CodomainMismatch,
    CompositionMismatch,
    LegsNotInClass,
    MissingPullback,
    NotMonoidMorphisms,
    ShapeMismatch,
    SquareDoesNotCommute,
)
from relspan.relpull import assoc_iso


def ffun(dom, cod, table):
    return FinFun(FinSetObj(dom), FinSetObj(cod), table)


def _assert_pullback_invariants(pb):
    """The square commutes, the projection span is a class member and the
    projections carry the joint-mono certificate."""
    base = pb.base
    assert base.compose(pb.f, pb.p_a) == base.compose(pb.g, pb.p_c)
    assert base.failure_witness(Span(pb.p_a, pb.p_c)) is None
    assert pb.jointly_monic


# -- construction and dispatch -------------------------------------------------


def test_dispatch_finset_equals_plain_pullback():
    rng = rng_for("rp-dispatch")
    f = rand_finfun(rng, 3, 2)
    g = rand_finfun(rng, 4, 2)
    pb = relative_pullback(FINSET, f, g)
    plain = pullback(f, g)
    assert pb.apex == plain.apex and pb.p_a == plain.p_a and pb.p_c == plain.p_c
    _assert_pullback_invariants(pb)
    assert type(pb) is RelPullback and pb.base is FINSET
    assert (pb.f, pb.g) == (f, g)
    # the payload is the matching pairs in lexicographic order
    pairs = [(a, c) for a in range(f.dom.size) for c in range(g.dom.size) if f(a) == g(c)]
    assert type(pb.payload) is tuple and list(pb.payload) == pairs


def test_rel_pullback_is_one_record_for_every_instance():
    import relspan.catcore
    import relspan.relpull

    assert RelPullback is relspan.relpull.RelPullback is relspan.catcore.RelPullback


def test_dispatch_coalg_equals_coalg_pullback():
    rng = rng_for("rp-dispatch-c")
    for field in FIELDS:
        base = CoalgCategory(field)
        f = linearize_fun(rand_finfun(rng, 3, 2), field)
        g0 = linearize_fun(rand_finfun(rng, 4, 2), field)
        pb = relative_pullback(base, f, g0)
        plain = relative_pullback_coalg(base, f, g0)
        assert pb.apex == plain.apex
        assert pb.p_a.mat == plain.p_a.mat and pb.p_c.mat == plain.p_c.mat
        _assert_pullback_invariants(pb)
        assert type(pb) is RelPullback and pb.base is base
        assert (pb.f, pb.g) == (f, g0)
        # the payload is the equalizer on A⊗C, whose object is the apex
        assert type(pb.payload) is CoalgEqualizer and pb.payload.object is pb.apex


def test_trivial_base_gives_product_both_instances():
    pb = relative_pullback(FINSET, ffun(2, 1, [0, 0]), ffun(3, 1, [0, 0, 0]))
    assert pb.apex.size == 6
    for field in FIELDS:
        base = CoalgCategory(field)
        f = linearize_fun(ffun(2, 1, [0, 0]), field)
        g = linearize_fun(ffun(3, 1, [0, 0, 0]), field)
        pbq = relative_pullback(base, f, g)
        assert pbq.apex.dim == 6


def test_legs_not_in_class_rejected():
    field = QQ
    base = CoalgCategory(field)
    p = path_coalgebra(field)
    with pytest.raises(LegsNotInClass):
        relative_pullback(base, cid(p), cid(p))


# -- one exception class per malformed call, on every base ------------------------


def _settings():
    """Finite sets, their linearization over each field and a copy of that
    in random bases: (name, base, the map of finite-set data into the base)."""
    yield "finset", FINSET, lambda f: f
    for field in FIELDS:
        objs, rng, bases = {}, rng_for(f"span-checks-{field}"), {}

        def linear(f, field=field, objs=objs):
            return linearize_fun(f, field, objs)

        def rebase(f, field=field, rng=rng, bases=bases, linear=linear):
            for x in (f.dom, f.cod):
                if x not in bases:
                    bases[x] = random_basis(rng, field, x.size)
            return rebased_map(linear(f), bases[f.dom], bases[f.cod])

        yield f"linear-{field}", CoalgCategory(field), linear
        yield f"rebased-{field}", CoalgCategory(field), rebase


def _malformed(base, lift):
    """The malformed calls on the cospan A = 2 -f-> 2 <-g- 3 = C, keyed by
    the invariant they break and the entry point they go through."""
    f, g = lift(ffun(2, 2, [0, 1])), lift(ffun(3, 2, [0, 1, 0]))
    pb = relative_pullback(base, f, g)
    id_b, id_c = base.identity(base.cod(f)), base.identity(base.dom(g))
    apart = Span(lift(ffun(1, 2, [0])), lift(ffun(2, 3, [0, 2])))  # out of 1 and of 2
    on_c = lift(ffun(1, 3, [0]))
    return {
        ("apex", "contains"): lambda: base.contains(apart),
        ("apex", "failure_witness"): lambda: base.failure_witness(apart),
        ("apex", "universal_factor"): lambda: universal_factor(pb, apart.left, apart.right),
        ("ends", "universal_factor"): lambda: universal_factor(pb, on_c, on_c),
        ("ends", "box"): lambda: box(pb, pb, lift(ffun(2, 3, [0, 1])), id_c, id_b),
        ("square", "universal_factor"): lambda: universal_factor(pb, lift(ffun(1, 2, [0])),
                                                                 lift(ffun(1, 3, [1]))),
        ("square", "box"): lambda: box(pb, pb, lift(ffun(2, 2, [1, 0])), id_c, id_b),
        ("codomain", "relative_pullback"): lambda: relative_pullback(base, f, lift(ffun(3, 3, [0, 1, 0]))),
    }


MALFORMED = {
    ("apex", "contains"): CompositionMismatch,
    ("apex", "failure_witness"): CompositionMismatch,
    ("apex", "universal_factor"): CompositionMismatch,
    ("ends", "universal_factor"): ShapeMismatch,
    # a leg of the box that ends off the target's cospan does not compose with its leg
    ("ends", "box"): CodomainMismatch,
    ("square", "universal_factor"): SquareDoesNotCommute,
    ("square", "box"): SquareDoesNotCommute,
    ("codomain", "relative_pullback"): CodomainMismatch,
}


@pytest.mark.parametrize("case", MALFORMED, ids="-".join)
def test_a_malformed_call_raises_one_class_on_every_base(case):
    """Each broken invariant raises the same class over finite sets, over
    their linearization and over a rebased copy: each is checked at one
    layer, not in each base's own way."""
    for name, base, lift in _settings():
        with pytest.raises(Exception) as info:
            _malformed(base, lift)[case]()
        assert type(info.value) is MALFORMED[case], (name, info.value)


def test_universal_factor_refuses_a_leg_into_a_coalgebra_of_the_right_dimension():
    """On the pullback of the linearized 2 → 1 ← 2, a leg into D_2, which
    has the dimension of k[2] but is another coalgebra, ends off the cospan."""
    for field in FIELDS:
        f = linearize_fun(ffun(2, 1, [0, 0]), field)
        pb = relative_pullback(CoalgCategory(field), f, f)
        point = Matrix.from_cols(field, 2, [{0: field.one}])
        off, on = CoalgMap(trivial(field), divided_power(field, 2), point), CoalgMap(trivial(field), f.src, point)
        for legs in ((off, on), (on, off)):
            with pytest.raises(ShapeMismatch, match="span legs do not match the pullback cospan"):
                universal_factor(pb, *legs)


# -- box morphisms ---------------------------------------------------------------


def test_box_identity_is_identity():
    rng = rng_for("box-id")
    f = rand_finfun(rng, 3, 2)
    g = rand_finfun(rng, 3, 2)
    pb = relative_pullback(FINSET, f, g)
    bm = box(pb, pb, FINSET.identity(f.dom), FINSET.identity(g.dom), FINSET.identity(f.cod))
    assert bm == FINSET.identity(pb.apex)


def test_box_componentwise_on_pairs_and_projections():
    rng = rng_for("box-comp")
    for _ in range(20):
        f, g, f2, g2, a, b, c = rand_box_config(rng)
        src = relative_pullback(FINSET, f, g)
        tgt = relative_pullback(FINSET, f2, g2)
        bm = box(src, tgt, a, c, b)
        for idx, (x, y) in enumerate(src.payload):
            assert tgt.payload[bm.table[idx]] == (a.table[x], c.table[y])
        assert FINSET.compose(tgt.p_a, bm) == FINSET.compose(a, src.p_a)
        assert FINSET.compose(tgt.p_c, bm) == FINSET.compose(c, src.p_c)


def test_box_functoriality_finset_and_coalg():
    rng = rng_for("box-fun")
    for field in FIELDS:
        base = CoalgCategory(field)
        for _ in range(8):
            f, g, f2, g2, a, b, c = rand_box_config(rng)
            f4, g4, a2, b2, c2 = rand_box_stage2(rng, f2, g2)

            pb1 = relative_pullback(FINSET, f, g)
            pb2 = relative_pullback(FINSET, f2, g2)
            pb3 = relative_pullback(FINSET, f4, g4)
            bm1 = box(pb1, pb2, a, c, b)
            bm2 = box(pb2, pb3, a2, c2, b2)
            direct = box(
                pb1, pb3, FINSET.compose(a2, a), FINSET.compose(c2, c), FINSET.compose(b2, b)
            )
            # box returns the morphism a□c of the base category itself
            assert type(bm1) is FinFun and (bm1.dom, bm1.cod) == (pb1.apex, pb2.apex)
            assert FINSET.compose(bm2, bm1) == direct

            # linearized configuration exercises the coalgebra instance
            lf = lambda h: linearize_fun(h, field)  # noqa: E731
            q1 = relative_pullback(base, lf(f), lf(g))
            q2 = relative_pullback(base, lf(f2), lf(g2))
            q3 = relative_pullback(base, lf(f4), lf(g4))
            qm1 = box(q1, q2, lf(a), lf(c), lf(b))
            qm2 = box(q2, q3, lf(a2), lf(c2), lf(b2))
            assert type(qm1) is CoalgMap and (qm1.src, qm1.tgt) == (q1.apex, q2.apex)
            qdirect = box(
                q1,
                q3,
                base.compose(lf(a2), lf(a)),
                base.compose(lf(c2), lf(c)),
                base.compose(lf(b2), lf(b)),
            )
            assert base.compose(qm2, qm1).mat == qdirect.mat


def test_box_rejects_noncommuting_squares():
    f = ffun(2, 2, [0, 1])
    pb = relative_pullback(FINSET, f, f)
    flip = ffun(2, 2, [1, 0])
    with pytest.raises(SquareDoesNotCommute):
        box(pb, pb, flip, FINSET.identity(f.dom), FINSET.identity(f.cod))


def test_box_rejects_a_noncommuting_second_square():
    i = FINSET.identity(FinSetObj(2))
    pb = relative_pullback(FINSET, i, i)
    with pytest.raises(SquareDoesNotCommute, match="b∘g != g'∘c"):
        box(pb, pb, i, ffun(2, 2, [1, 0]), i)


# -- unit isomorphisms -------------------------------------------------------------


def test_unit_iso_right_is_graph_of_f():
    rng = rng_for("unit-right")
    f = rand_finfun(rng, 3, 2)
    pb = relative_pullback(FINSET, f, FINSET.identity(f.cod))
    proj, inv = unit_isos(pb, "right")
    assert proj == pb.p_a
    # the apex is the graph of f; the inverse sends a to (a, f(a))
    for a in range(3):
        assert pb.payload[inv.table[a]] == (a, f.table[a])


def test_unit_iso_left_and_coalg_dims():
    rng = rng_for("unit-left")
    for field in FIELDS:
        base = CoalgCategory(field)
        g0 = rand_finfun(rng, 3, 2)
        g = linearize_fun(g0, field)
        pb = relative_pullback(base, base.identity(g.tgt), g)
        proj, inv = unit_isos(pb, "left")
        assert pb.apex.dim == 3
        assert (proj.mat @ inv.mat) == Matrix.identity(field, 3)


def test_unit_iso_b_box_b():
    b = FinSetObj(3)
    i = FINSET.identity(b)
    pb = relative_pullback(FINSET, i, i)
    for side in ("left", "right"):
        proj, inv = unit_isos(pb, side)
        assert FINSET.compose(proj, inv) == i


def test_unit_iso_wrong_shape():
    f = ffun(2, 2, [0, 0])
    pb = relative_pullback(FINSET, f, f)
    with pytest.raises(ShapeMismatch):
        unit_isos(pb, "right")


def test_unit_iso_left_needs_an_identity_left_leg():
    f = ffun(2, 2, [0, 0])
    pb = relative_pullback(FINSET, f, f)
    with pytest.raises(ShapeMismatch, match="left unit iso"):
        unit_isos(pb, "left")


def test_unit_isos_and_reflection_reject_an_unknown_side():
    i = FINSET.identity(FinSetObj(2))
    pb = relative_pullback(FINSET, i, i)
    with pytest.raises(ValueError, match="side must be"):
        unit_isos(pb, "middle")
    with pytest.raises(ValueError, match="side must be"):
        check_reflection_instance(pb, pb.p_a, pb.p_a, side="middle")


def _with_a_repeated_pair(pb):
    """pb with its first matching pair listed again at the end: an apex one
    larger, whose projections are not jointly monic."""
    pairs = pb.payload + pb.payload[:1]
    apex = FinSetObj(len(pairs))
    return RelPullback(FINSET, pb.f, pb.g, apex, FinFun(apex, pb.f.dom, [a for a, _ in pairs]),
                       FinFun(apex, pb.g.dom, [c for _, c in pairs]), False, pairs)


class _ConstantFiller(FinSetCategory):
    """Finite sets whose fillers send everything to the first one's value."""

    def factor(self, pb, a, c):
        h = super().factor(pb, a, c)
        return FinFun(h.dom, h.cod, [h.table[0]] * h.dom.size)


@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_isos_verify_both_inverse_laws(side):
    i = FINSET.identity(FinSetObj(2))
    pb = relative_pullback(FINSET, i, i)
    wrong_filler = dataclasses.replace(pb, base=_ConstantFiller())
    with pytest.raises(ShapeMismatch, match="projection inverse failed on one side"):
        unit_isos(wrong_filler, side)
    # the projection is onto but not injective: inv is only a section of it
    with pytest.raises(ShapeMismatch, match="projection inverse failed on the other side"):
        unit_isos(_with_a_repeated_pair(pb), side)


# -- associativity isomorphism --------------------------------------------------------


def _chain_pullbacks(base, f, g, h, k):
    pb_xy = relative_pullback(base, f, g)
    pb_yz = relative_pullback(base, h, k)
    pb_xy_z = relative_pullback(base, base.compose(h, pb_xy.p_c), k)
    pb_x_yz = relative_pullback(base, f, base.compose(g, pb_yz.p_a))
    return pb_xy, pb_xy_z, pb_yz, pb_x_yz


def test_assoc_iso_identity_chain():
    b = FinSetObj(2)
    i = FINSET.identity(b)
    pb_xy, pb_xy_z, pb_yz, pb_x_yz = _chain_pullbacks(FINSET, i, i, i, i)
    l, l_inv = assoc_iso(pb_xy, pb_xy_z, pb_yz, pb_x_yz)
    assert FINSET.compose(l_inv, l) == FINSET.identity(pb_xy_z.apex)


@pytest.mark.parametrize("slot,legs,what", [
    (1, "flip,id", "(X□Y)□Z left leg"),
    (1, "id,flip", "(X□Y)□Z right leg"),
    (3, "flip,id", "X□(Y□Z) left leg"),
    (3, "id,flip", "X□(Y□Z) right leg"),
])
def test_assoc_iso_rejects_pullbacks_of_the_wrong_legs(slot, legs, what):
    maps = {"id": FINSET.identity(FinSetObj(2)), "flip": ffun(2, 2, [1, 0])}
    i = maps["id"]
    pbs = list(_chain_pullbacks(FINSET, i, i, i, i))
    pbs[slot] = relative_pullback(FINSET, *(maps[m] for m in legs.split(",")))
    with pytest.raises(MissingPullback, match=re.escape(what)):
        assoc_iso(*pbs)


@pytest.mark.parametrize("slot, message", [(3, "l∘l⁻¹ is not the identity"),
                                           (1, "l⁻¹∘l is not the identity")])
def test_assoc_iso_verifies_both_inverse_laws(slot, message):
    """One apex listed with a repeated pair makes l or l⁻¹ a section only."""
    i = FINSET.identity(FinSetObj(2))
    pbs = list(_chain_pullbacks(FINSET, i, i, i, i))
    pbs[slot] = _with_a_repeated_pair(pbs[slot])
    with pytest.raises(MissingPullback, match=re.escape(message)):
        assoc_iso(*pbs)


def test_assoc_iso_is_rebracketing_bijection():
    rng = rng_for("assoc")
    for _ in range(15):
        f = rand_finfun(rng, rng.randint(1, 4), rng.randint(1, 3))
        g = rand_finfun(rng, rng.randint(1, 4), f.cod.size)
        h = rand_finfun(rng, g.dom.size, rng.randint(1, 3))
        k = rand_finfun(rng, rng.randint(1, 4), h.cod.size)
        pb_xy, pb_xy_z, pb_yz, pb_x_yz = _chain_pullbacks(FINSET, f, g, h, k)
        l, l_inv = assoc_iso(pb_xy, pb_xy_z, pb_yz, pb_x_yz)
        # oracle: decompose indices into matching triples and rebracket
        for idx, (i_xy, z) in enumerate(pb_xy_z.payload):
            x, y = pb_xy.payload[i_xy]
            j_yz = pb_yz.payload.index((y, z))
            want = pb_x_yz.payload.index((x, j_yz))
            assert l.table[idx] == want
        assert FINSET.compose(l, l_inv) == FINSET.identity(pb_x_yz.apex)


def test_assoc_iso_coalg_is_linearized_permutation():
    rng = rng_for("assoc-coalg")
    field = QQ
    base = CoalgCategory(field)
    for _ in range(5):
        f = rand_finfun(rng, rng.randint(1, 3), rng.randint(1, 2))
        g = rand_finfun(rng, rng.randint(1, 3), f.cod.size)
        h = rand_finfun(rng, g.dom.size, rng.randint(1, 2))
        k = rand_finfun(rng, rng.randint(1, 3), h.cod.size)
        fin = _chain_pullbacks(FINSET, f, g, h, k)
        l_fin, _ = assoc_iso(*fin)
        lf = lambda t: linearize_fun(t, field)  # noqa: E731
        qua = _chain_pullbacks(base, lf(f), lf(g), lf(h), lf(k))
        l_q, _ = assoc_iso(*qua)
        assert l_q.mat == linearize_fun(l_fin, field).mat


def test_unit_constraint_naturality_over_fixed_base():
    rng = rng_for("naturality2")
    for _ in range(15):
        # spans over a fixed B with a span morphism a: A -> A' (t'∘a = t, s'∘a = s)
        nb = rng.randint(1, 3)
        na2 = rng.randint(1, 4)
        t2 = rand_finfun(rng, na2, nb)
        s2 = rand_finfun(rng, na2, nb)
        na = rng.randint(1, 4)
        a = rand_finfun(rng, na, na2)
        t1 = FINSET.compose(t2, a)
        s1 = FINSET.compose(s2, a)
        id_b = FINSET.identity(FinSetObj(nb))
        # right unit: A□_B B -> A, naturality of the projection in A
        pb1 = relative_pullback(FINSET, s1, id_b)
        pb2 = relative_pullback(FINSET, s2, id_b)
        bm = box(pb1, pb2, a, id_b, id_b)
        assert FINSET.compose(pb2.p_a, bm) == FINSET.compose(a, pb1.p_a)
        # left unit: B□_B A -> A
        qb1 = relative_pullback(FINSET, id_b, t1)
        qb2 = relative_pullback(FINSET, id_b, t2)
        qm = box(qb1, qb2, id_b, a, id_b)
        assert FINSET.compose(qb2.p_c, qm) == FINSET.compose(a, qb1.p_c)


def test_assoc_constraint_naturality():
    """l'∘((a□c)□e) = (a□(c□e))∘l for random morphisms of spans over B."""
    rng = rng_for("naturality3")
    for _ in range(10):
        nb = rng.randint(1, 3)
        id_b = FINSET.identity(FinSetObj(nb))

        def rand_span_morphism():
            n2 = rng.randint(1, 4)
            t2 = rand_finfun(rng, n2, nb)
            s2 = rand_finfun(rng, n2, nb)
            n1 = rng.randint(1, 4)
            m = rand_finfun(rng, n1, n2)
            return (FINSET.compose(t2, m), FINSET.compose(s2, m)), (t2, s2), m

        (t1, s1), (t1p, s1p), a = rand_span_morphism()
        (t2, s2), (t2p, s2p), c = rand_span_morphism()
        (t3, s3), (t3p, s3p), e = rand_span_morphism()

        def bracketed(tA, sA, tC, sC, tE, sE):
            pb_xy = relative_pullback(FINSET, sA, tC)
            pb_yz = relative_pullback(FINSET, sC, tE)
            pb_xy_z = relative_pullback(FINSET, FINSET.compose(sC, pb_xy.p_c), tE)
            pb_x_yz = relative_pullback(FINSET, sA, FINSET.compose(tC, pb_yz.p_a))
            return pb_xy, pb_xy_z, pb_yz, pb_x_yz

        lower = bracketed(t1, s1, t2, s2, t3, s3)
        upper = bracketed(t1p, s1p, t2p, s2p, t3p, s3p)
        l_low, _ = assoc_iso(*lower)
        l_up, _ = assoc_iso(*upper)
        ac = box(lower[0], upper[0], a, c, id_b)
        ce = box(lower[2], upper[2], c, e, id_b)
        ac_e = box(lower[1], upper[1], ac, e, id_b)
        a_ce = box(lower[3], upper[3], a, ce, id_b)
        assert FINSET.compose(l_up, ac_e) == FINSET.compose(a_ce, l_low)


# -- coherence ---------------------------------------------------------------------


def test_triangle_finset_and_coalg():
    rng = rng_for("triangle")
    for _ in range(10):
        f = rand_finfun(rng, rng.randint(1, 4), rng.randint(1, 4))
        g = rand_finfun(rng, rng.randint(1, 4), f.cod.size)
        assert coherence_triangle(FINSET, f, g)
        base = CoalgCategory(QQ)
        assert coherence_triangle(base, linearize_fun(f, QQ), linearize_fun(g, QQ))


def test_pentagon_finset_small():
    rng = rng_for("pentagon")
    for _ in range(4):
        sizes = [rng.randint(1, 3) for _ in range(7)]
        f = rand_finfun(rng, sizes[0], sizes[1])
        g = rand_finfun(rng, sizes[2], sizes[1])
        h = rand_finfun(rng, sizes[2], sizes[3])
        k = rand_finfun(rng, sizes[4], sizes[3])
        r = rand_finfun(rng, sizes[4], sizes[5])
        s = rand_finfun(rng, sizes[6], sizes[5])
        assert coherence_pentagon(FINSET, f, g, h, k, r, s)


def test_pentagon_coalg_small():
    rng = rng_for("pentagon-coalg")
    field = QQ
    base = CoalgCategory(field)
    sizes = [rng.randint(1, 2) for _ in range(7)]
    maps = []
    for i in range(6):
        dom = sizes[i] if i % 2 == 0 else sizes[i + 1]
        cod = sizes[i + 1] if i % 2 == 0 else sizes[i]
        maps.append(linearize_fun(rand_finfun(rng, dom, cod), field))
    assert coherence_pentagon(base, *maps)


def test_pentagon_over_a_linearized_chain_builds_each_right_counit_once(monkeypatch):
    """Over a chain linearized in one call, the pentagon's twelve pullbacks
    and its fillers build no (1⊗ε)∘δ: every coalgebra they read it on is
    k[X], recognized from its row tables, whose right counit is the shared
    identity.  Over the same chain in random bases, one per object, they
    build it once for each coalgebra they read it on.  A right counit is
    the kron_apply of an identity with a coalgebra's own ε on its own δ: a
    leg with B's counit row deleted has one row too."""
    calls, made = [], []
    kron_apply_in, init = coalg.kron_apply, coalg.Coalgebra.__init__
    monkeypatch.setattr(coalg, "kron_apply", lambda *a: calls.append(a) or kron_apply_in(*a))
    monkeypatch.setattr(coalg.Coalgebra, "__init__", lambda self, *a, **k: made.append(self) or init(self, *a, **k))
    rng = rng_for("pentagon-right-counit")
    sizes = (2, 2, 3, 2, 3, 2, 2)
    chain = [rand_finfun(rng, sizes[i], sizes[i + 1]) if i % 2 == 0
             else rand_finfun(rng, sizes[i + 1], sizes[i]) for i in range(6)]

    def right_counits():
        own = {(id(vars(x).get("epsilon")), id(vars(x).get("delta"))) for x in made}
        out = [a[2] for a in calls if a[0] == Matrix.identity(QQ, a[0].rows) and (id(a[1]), id(a[2])) in own]
        del calls[:]
        return out

    linear = linearize_funs(chain, QQ)
    assert coherence_pentagon(CoalgCategory(QQ), *linear)
    assert not right_counits()
    bases = {}
    for m in linear:
        for x in (m.src, m.tgt):
            bases.setdefault(id(x), (random_basis(rng, QQ, x.dim), x))
    copies = {key: rebased(x, p) for key, (p, x) in bases.items()}
    rebased_chain = [CoalgMap(copies[id(m.src)], copies[id(m.tgt)],
                              rebased_map(m, bases[id(m.src)][0], bases[id(m.tgt)][0]).mat) for m in linear]
    assert coherence_pentagon(CoalgCategory(QQ), *rebased_chain)
    deltas = right_counits()
    assert len(deltas) >= 8
    assert len({id(d) for d in deltas}) == len(deltas)


def test_recognizing_k_x_tensor_k_y_and_a_linearized_pentagon_build_no_tensor_delta_or_epsilon(monkeypatch):
    """k[X]⊗k[Y], nested or not, is recognized from its factors: its
    counits, cocommutativity and check_coalgebra build neither its δ nor its
    ε.  A pentagon over a chain linearized in one call builds neither on any
    tensor product it makes."""
    made, tensor_in = [], coalg.tensor_coalgebra
    monkeypatch.setattr(coalg, "tensor_coalgebra", lambda a, b: made.append(tensor_in(a, b)) or made[-1])
    for field in FIELDS:
        k = lambda n: grouplike(field, n)
        nested = coalg.tensor_coalgebra(coalg.tensor_coalgebra(k(1), k(3)), k(2))
        for x in (coalg.tensor_coalgebra(k(2), k(3)), nested):
            assert x.right_counit is x.left_counit is Matrix.identity(field, x.dim)
            assert x.cocommutative and check_coalgebra(x).ok
    assert len(made) == 3 * len(FIELDS)
    rng = rng_for("pentagon-tensor-lazy")
    sizes = (2, 3, 2, 2, 3, 1, 2)
    chain = [rand_finfun(rng, sizes[i], sizes[i + 1]) if i % 2 == 0
             else rand_finfun(rng, sizes[i + 1], sizes[i]) for i in range(6)]
    assert coherence_pentagon(CoalgCategory(QQ), *linearize_funs(chain, QQ))
    assert len(made) >= 3 * len(FIELDS) + 12  # one A⊗C for each of the twelve pullbacks
    assert not [x for x in made if "delta" in vars(x) or "epsilon" in vars(x)]


def test_group_like_apexes_get_their_delta_with_its_row_table(monkeypatch):
    """Every pullback apex of a linearized pentagon and of linearized
    cospans over two points gets its δ_E with its row table handed over at
    build time, as grouplike of the matching pairs
    (coalg._grouplike_pullback); the apex of a
    cospan in random bases takes the dict path, whose closure check
    (K⊗K)∘δ_E = δ∘K reads δ_E as built.  On the cospans, the pullback, its
    square, filler and apex check and the cotensor comparison read no
    column of a matrix built from its table alone."""
    sub_in, kron_in, current, handed = coalg._subcoalgebra, coalg.kron_apply, [None], []
    build_in = coalg._grouplike_pullback
    reads, getattr_in = [], linalg._TableMatrix.__getattr__
    monkeypatch.setattr(linalg._TableMatrix, "__getattr__", lambda m, name: reads.append(name) or getattr_in(m, name))

    def sub_spy(x, k, delta_k):
        current[0] = k
        return sub_in(x, k, delta_k)

    def kron_spy(a, b, m):
        if a is b is current[0]:  # the closure check, on δ_E as built
            handed.append(isinstance(m._units, list))
        return kron_in(a, b, m)

    def build_spy(f, g, x):
        if (out := build_in(f, g, x)) is not None:  # δ_E as built
            handed.append(isinstance(out[0].object.delta._units, list))
        return out

    monkeypatch.setattr(coalg, "_subcoalgebra", sub_spy)
    monkeypatch.setattr(coalg, "kron_apply", kron_spy)
    monkeypatch.setattr(coalg, "_grouplike_pullback", build_spy)
    rng = rng_for("row-table-route")
    sizes = (2, 3, 2, 2, 3, 1, 2)
    chain = [rand_finfun(rng, sizes[i], sizes[i + 1]) if i % 2 == 0
             else rand_finfun(rng, sizes[i + 1], sizes[i]) for i in range(6)]
    assert coherence_pentagon(CoalgCategory(QQ), *linearize_funs(chain, QQ))
    assert len(handed) >= 12 and all(handed)
    handed.clear()
    for _ in range(10):
        f, g = (linearize_fun(rand_finfun(rng, rng.randint(1, 4), 2), QQ) for _ in "fg")
        base, reads[:] = CoalgCategory(QQ), []
        pb = relative_pullback(base, f, g)
        assert base.compose(f, pb.p_a) == base.compose(g, pb.p_c) and check_coalgebra(pb.apex).ok
        assert universal_factor(pb, pb.p_a, pb.p_c).mat == Matrix.identity(QQ, pb.apex.dim)
        assert compare_cotensor_pullback(f, g).ok and reads == []
    assert handed == [True] * 10
    handed.clear()
    fibers = FinFun(FinSetObj(3), FinSetObj(2), [0, 1, 1])
    p_b = random_basis(rng, QQ, 2)
    f, g = (rebased_map(linearize_fun(fibers, QQ), random_basis(rng, QQ, 3), p_b) for _ in "fg")
    relative_pullback(CoalgCategory(QQ), f, g)
    assert handed == [False]


# -- monoid on pullback ---------------------------------------------------------------


def test_monoid_on_pullback_finset_is_matching_submonoid():
    monoids2 = [finset_monoid(t, u, FINSET) for t, u in all_monoids(2)]
    z2 = finset_monoid((0, 1, 1, 0), 0, FINSET)
    for m1 in monoids2:
        # f, g: the identity hom and the constant-unit hom into Z/2 when valid
        homs = []
        import itertools

        for table in itertools.product(range(2), repeat=2):
            cand = MonoidMorphism(m1, z2, ffun(2, 2, table))
            if check_monoid_morphism(cand).ok:
                homs.append(cand)
        for fm in homs:
            for gm in homs:
                pb = relative_pullback(FINSET, fm.f, gm.f)
                mon = monoid_on_pullback(fm, gm, pb)
                assert check_monoid(mon).ok
                assert check_monoid_morphism(MonoidMorphism(mon, m1, pb.p_a)).ok
                assert check_monoid_morphism(MonoidMorphism(mon, m1, pb.p_c)).ok
                pairs = pb.payload
                for i1, (a1, c1) in enumerate(pairs):
                    for i2, (a2, c2) in enumerate(pairs):
                        got = pairs[mon.m.table[i1 * len(pairs) + i2]]
                        assert got == (
                            m1.m.table[a1 * 2 + a2],
                            m1.m.table[c1 * 2 + c2],
                        )


def test_monoid_on_pullback_group_algebras():
    for field in FIELDS:
        base = CoalgCategory(field)
        kc2 = group_algebra(field, group_c2())
        kv4 = group_algebra(field, group_v4())
        # C2 -> C2 identity and V4 -> C2 projection onto the first bit
        from gen import group_algebra_hom

        f = group_algebra_hom(field, kc2, kc2, [0, 1])
        g = group_algebra_hom(field, kv4, kc2, [0, 1, 0, 1])
        pb = relative_pullback(base, f.f, g.f)
        mon = monoid_on_pullback(f, g, pb)
        assert check_monoid(mon).ok
        pairs, table = group_pullback(group_c2(), [0, 1], group_v4(), [0, 1, 0, 1])
        want = group_algebra(field, table)
        assert pb.apex.dim == len(pairs)
        assert mon.m.mat == want.m.mat
        assert mon.u.mat == want.u.mat


def test_monoid_on_pullback_identity_leg():
    z2 = finset_monoid((0, 1, 1, 0), 0, FINSET)
    i = MonoidMorphism(z2, z2, FINSET.identity(z2.carrier))
    pb = relative_pullback(FINSET, i.f, i.f)
    mon = monoid_on_pullback(i, i, pb)
    assert check_monoid(mon).ok
    # diagonal: isomorphic to Z/2 via either projection
    assert pb.apex.size == 2


def test_monoid_on_pullback_guards():
    z2 = finset_monoid((0, 1, 1, 0), 0, FINSET)
    ident = MonoidMorphism(z2, z2, FINSET.identity(z2.carrier))
    zero = MonoidMorphism(z2, z2, ffun(2, 2, [0, 0]))
    one = MonoidMorphism(z2, z2, ffun(2, 2, [1, 1]))
    with pytest.raises(NotMonoidMorphisms, match="both legs must be monoid morphisms"):
        monoid_on_pullback(one, one, relative_pullback(FINSET, one.f, one.f))
    with pytest.raises(NotMonoidMorphisms, match="do not match the pullback cospan"):
        monoid_on_pullback(ident, ident, relative_pullback(FINSET, zero.f, zero.f))


# -- reflection --------------------------------------------------------------------


def test_reflection_finset_always():
    rng = rng_for("refl-fin")
    f = rand_finfun(rng, 3, 2)
    g = rand_finfun(rng, 3, 2)
    pb = relative_pullback(FINSET, f, g)
    if pb.apex.size:
        k = rand_finfun(rng, 2, pb.apex.size)
        l = rand_finfun(rng, 2, 3)
        for side in ("left", "right"):
            assert check_reflection_instance(pb, k, l, side).ok


def test_reflection_coalg_grouplike():
    rng = rng_for("refl-coalg")
    for field in FIELDS:
        base = CoalgCategory(field)
        for _ in range(8):
            f0 = rand_finfun(rng, rng.randint(1, 3), rng.randint(1, 2))
            g0 = rand_finfun(rng, rng.randint(1, 3), f0.cod.size)
            pb = relative_pullback(base, linearize_fun(f0, field), linearize_fun(g0, field))
            if pb.apex.dim == 0:
                continue
            d0 = rng.randint(1, 3)
            k_mat = Matrix.from_cols(
                field, pb.apex.dim, [{rng.randrange(pb.apex.dim): field.one} for _ in range(d0)]
            )
            d = grouplike(field, d0)
            from relspan import CoalgMap

            k = CoalgMap(d, pb.apex, k_mat)
            l0 = linearize_fun(rand_finfun(rng, d0, 3), field)
            l = CoalgMap(d, l0.tgt, l0.mat)
            rep = check_reflection_instance(pb, k, l, "left")
            assert rep.ok, [c.name for c in rep.failures()]


def test_reflection_with_a_failed_hypothesis_holds_whatever_the_conclusion():
    """P the path coalgebra, pb the pullback of ε_P: P -> k and 1_k, k the
    inverse of p_A and l = 1_P: the span (1_P, 1_P) through p_A is not in S,
    as P is not cocommutative, the one through p_C is, and so is not (k, l);
    the implication holds on a failed hypothesis, on either side."""
    for field in FIELDS:
        base = CoalgCategory(field)
        p, unit = path_coalgebra(field), base.unit_obj()
        pb = relative_pullback(base, CoalgMap(p, unit, p.epsilon), cid(unit))
        k, l = base.invert(pb.p_a), base.identity(p)
        for side, concl in (("left", Span(k, l)), ("right", Span(l, k))):
            rep = check_reflection_instance(pb, k, l, side)
            assert [c.ok for c in rep.checks] == [False, True, True]
            assert not base.contains(concl)
