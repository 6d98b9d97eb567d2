"""Relative categories: span tensors, axiom checks, fixtures, linearization, functors."""

import dataclasses

import pytest

from gen import (
    FIELDS,
    codiscrete_relcat,
    divided_power,
    fixture_discrete,
    fixture_groupoid5,
    fixture_one_object_group,
    fixture_poset01,
    fixture_z2,
    matrix_coalgebra,
    mutate_one_entry,
    rand_finfun,
    random_basis,
    rebased,
    rng_for,
)
from relspan import (
    FINSET,
    GF,
    QQ,
    CoalgCategory,
    CoalgMap,
    FinFun,
    FinSetObj,
    Matrix,
    RelativeFunctor,
    SmallCategory,
    SpanOverB,
    check_relative_category,
    check_relative_functor,
    from_small_category,
    grouplike,
    linearize_relcat,
    path_coalgebra,
    span_tensor,
)
from relspan.coalg import cid
from relspan.errors import BaseMismatch, LegsNotInClass, NotACategory, ShapeMismatch
from relspan.finset import linearize_funs
from relspan.relcat import RelativeCategory, composition_table


def span_power(x: SpanOverB, n: int) -> SpanOverB:
    """Left-associated n-th monoidal power; the 0-th power is the unit span."""
    if n < 0:
        raise ValueError("negative monoidal power")
    if n == 0:
        e = x.base.identity(x.b)
        return SpanOverB(x.base, x.b, x.b, e, e)
    acc = x
    for _ in range(n - 1):
        acc = span_tensor(acc, x)
    return acc


def ffun(dom, cod, table):
    return FinFun(FinSetObj(dom), FinSetObj(cod), table)


FIXTURES = {
    "discrete3": fixture_discrete(3),
    "poset01": fixture_poset01(),
    "z2": fixture_z2(),
    "groupoid5": fixture_groupoid5(),
}


# -- spans over B -----------------------------------------------------------------


def test_span_tensor_unit_laws():
    from relspan import unit_isos

    rc = from_small_category(fixture_poset01())
    sp = SpanOverB(FINSET, rc.b, rc.a, rc.t, rc.s)
    e = span_power(sp, 0)
    left = span_tensor(e, sp)
    right = span_tensor(sp, e)
    # the apexes biject with A via the materialized unit isomorphisms
    assert left.a.size == sp.a.size
    assert right.a.size == sp.a.size
    assert set(left.pullback.payload) == {(sp.t.table[x], x) for x in range(sp.a.size)}
    assert set(right.pullback.payload) == {(x, sp.s.table[x]) for x in range(sp.a.size)}
    proj_l, inv_l = unit_isos(left.pullback, "left")
    proj_r, inv_r = unit_isos(right.pullback, "right")
    assert FINSET.compose(proj_l, inv_l) == FINSET.identity(sp.a)
    assert FINSET.compose(proj_r, inv_r) == FINSET.identity(sp.a)


def test_span_tensor_composable_pairs_oracle():
    rng = rng_for("span-tensor")
    for _ in range(10):
        nb, na = rng.randint(1, 3), rng.randint(1, 5)
        t = rand_finfun(rng, na, nb)
        s = rand_finfun(rng, na, nb)
        sp = SpanOverB(FINSET, FinSetObj(nb), FinSetObj(na), t, s)
        sq = span_tensor(sp, sp)
        brute = [(x, y) for x in range(na) for y in range(na) if s.table[x] == t.table[y]]
        assert list(sq.pullback.payload) == brute
        assert sq.t.table == tuple(t.table[x] for x, _ in brute)
        assert sq.s.table == tuple(s.table[y] for _, y in brute)


def test_span_power_counts():
    # a 2-object, 3-arrow category: its arrow span squared = composable pairs
    cat = fixture_poset01()
    rc = from_small_category(cat)
    sp = SpanOverB(FINSET, rc.b, rc.a, rc.t, rc.s)
    p0 = span_power(sp, 0)
    assert p0.a == rc.b
    p1 = span_power(sp, 1)
    assert p1.a == rc.a
    p2 = span_power(sp, 2)
    brute = [
        (x, y)
        for x in range(rc.a.size)
        for y in range(rc.a.size)
        if rc.s.table[x] == rc.t.table[y]
    ]
    assert p2.a.size == len(brute)
    p3 = span_power(sp, 3)
    brute3 = [
        (xy, z)
        for xy in range(len(brute))
        for z in range(rc.a.size)
        if rc.s.table[brute[xy][1]] == rc.t.table[z]
    ]
    assert p3.a.size == len(brute3)


def test_span_power_rejects_a_negative_exponent():
    rc = from_small_category(fixture_poset01())
    with pytest.raises(ValueError, match="negative monoidal power"):
        span_power(SpanOverB(FINSET, rc.b, rc.a, rc.t, rc.s), -1)


def test_span_base_mismatch():
    rc = from_small_category(fixture_poset01())
    sp = SpanOverB(FINSET, rc.b, rc.a, rc.t, rc.s)
    b5 = FinSetObj(5)
    e = SpanOverB(FINSET, b5, b5, FINSET.identity(b5), FINSET.identity(b5))
    with pytest.raises(BaseMismatch):
        span_tensor(sp, e)


def test_span_over_b_guards():
    b2, b3 = FinSetObj(2), FinSetObj(3)
    with pytest.raises(ShapeMismatch, match="must land in B"):
        SpanOverB(FINSET, b2, b2, FINSET.identity(b2), ffun(2, 3, [0, 1]))
    with pytest.raises(ShapeMismatch, match="must come out of A"):
        SpanOverB(FINSET, b2, b3, FINSET.identity(b2), FINSET.identity(b2))
    p = path_coalgebra(QQ)
    with pytest.raises(LegsNotInClass, match="identity span on B"):
        SpanOverB(CoalgCategory(QQ), p, p, cid(p), cid(p))
    # e0 ↦ g0, e1 ↦ g1, x ↦ 0 into k[2]: (1, s) is not in S, as
    # c∘(1⊗s)∘δ(x) = g1⊗x while (s⊗1)∘δ(x) = g0⊗x
    s = CoalgMap(p, grouplike(QQ, 2), Matrix.from_cols(QQ, 2, [{0: 1}, {1: 1}, {}]))
    with pytest.raises(LegsNotInClass) as info:
        SpanOverB(CoalgCategory(QQ), s.tgt, p, s, s)
    assert str(info.value) == "the span does not have its legs in the class"


def test_span_over_noncocommutative_base_rejected():
    field = QQ
    base = CoalgCategory(field)
    p = path_coalgebra(field)
    with pytest.raises(LegsNotInClass):
        SpanOverB(base, p, p, cid(p), cid(p))


# -- small categories and fixtures ------------------------------------------------


def test_fixtures_validate_and_pass():
    for name, cat in FIXTURES.items():
        cat.validate()
        rc = from_small_category(cat)
        rep = check_relative_category(rc)
        assert rep.ok, (name, [c.name for c in rep.failures()])


def test_empty_category():
    cat = SmallCategory(0, 0, (), (), (), ())
    rc = from_small_category(cat)
    assert check_relative_category(rc).ok


def test_round_trip_composition_table():
    for cat in FIXTURES.values():
        rc = from_small_category(cat)
        assert composition_table(rc) == [list(r) for r in cat.comp]


def test_not_a_category_witnesses():
    # broken associativity: a "composition" that ignores its second argument
    bad = SmallCategory(1, 2, (0, 0), (0, 0), (0,), ((0, 0), (1, 0)))
    with pytest.raises(NotACategory):
        bad.validate()
    # identity not an endo-arrow
    bad2 = SmallCategory(2, 2, (0, 1), (1, 0), (0, 1), ((-1, 0), (1, -1)))
    with pytest.raises(NotACategory):
        bad2.validate()


@pytest.mark.parametrize("cat, message", [
    (SmallCategory(1, 1, (0, 0), (0,), (0,), ((0,),)), "table lengths do not match the declared sizes"),
    (SmallCategory(2, 1, (0,), (0,), (0,), ((0,),)), "table lengths do not match the declared sizes"),
    (SmallCategory(1, 1, (0,), (0,), (0,), ((0, 0),)), "composition table must be m x m"),
    (SmallCategory(1, 1, (0,), (0,), (0,), ()), "composition table must be m x m"),
    (SmallCategory(1, 1, (1,), (0,), (0,), ((0,),)), "src/tgt value out of range"),
    (SmallCategory(1, 1, (0,), (0,), (0,), ((-1,),)), "composable pair (0,0) has no composite"),
    (SmallCategory(1, 1, (0,), (0,), (0,), ((1,),)), "composable pair (0,0) has no composite"),
    # two objects with their identities only; id_1 as the composite id_0∘id_0
    (SmallCategory(2, 2, (0, 1), (0, 1), (0, 1), ((1, -1), (-1, 1))),
     "composite of (0,0) has wrong endpoints"),
    (SmallCategory(2, 2, (0, 1), (0, 1), (0, 1), ((0, 0), (-1, 1))),
     "non-composable pair (0,1) has an entry"),
    # one object, arrows id and a, with a∘id = id
    (SmallCategory(1, 2, (0, 0), (0, 0), (0,), ((0, 1), (0, 1))),
     "right identity law fails at arrow 1"),
])
def test_validate_names_the_first_broken_axiom(cat, message):
    with pytest.raises(NotACategory) as info:
        cat.validate()
    assert str(info.value) == message


def test_linearize_relcat_refuses_pairs_it_cannot_identify():
    """The linearized pullback's basis must be the pair set, in its order."""
    rc = from_small_category(FIXTURES["z2"])
    pairs = rc.pb.payload
    more = dataclasses.replace(rc, pb=dataclasses.replace(rc.pb, payload=pairs + pairs[:1]))
    with pytest.raises(ShapeMismatch, match="dimension does not match the pair count"):
        linearize_relcat(more, QQ)
    reordered = dataclasses.replace(rc, pb=dataclasses.replace(rc.pb, payload=pairs[::-1]))
    with pytest.raises(ShapeMismatch, match="not the group-like pair basis"):
        linearize_relcat(reordered, QQ)


def test_linearized_fixtures_pass():
    for field in FIELDS:
        for name, cat in FIXTURES.items():
            rc = from_small_category(cat)
            rcq = linearize_relcat(rc, field)
            rep = check_relative_category(rcq)
            assert rep.ok, (name, field, [c.name for c in rep.failures()])


def test_codiscrete_relative_category_is_a_relative_category():
    """The codiscrete relative category on a cocommutative B passes every
    axiom, on an apex of dimension (dim B)³: k[2] over Q and k[3] over F_5
    through the row-table paths, a divided-power coalgebra and a rebased
    k[2] through the dict paths.  A d with one entry changed fails at (c)
    when s or t sees the change, as they see every entry on k[X].  On
    path_coalgebra and M_2ᶜ, which are not cocommutative, (s, t) is not in
    S."""
    rng = rng_for("codiscrete-relcat")
    f5 = GF(5)
    for b in (grouplike(QQ, 2), grouplike(f5, 3), divided_power(GF(7), 3),
              rebased(grouplike(f5, 2), random_basis(rng, f5, 2))):
        rc = codiscrete_relcat(b)
        assert rc.pb.apex.dim == b.dim**3
        rep = check_relative_category(rc)
        assert rep.ok, (b, [c.name for c in rep.failures()])
        seen = 0
        for _ in range(12):
            d = CoalgMap(rc.d.src, rc.d.tgt, mutate_one_entry(rng, b.field, rc.d.mat))
            if (rc.base.compose(rc.s, d) == rc.base.compose(rc.s, rc.d)
                    and rc.base.compose(rc.t, d) == rc.base.compose(rc.t, rc.d)):
                assert b.epsilon.columns != [{0: b.field.one}] * b.dim  # not k[X]
                continue
            failed = [c.name for c in check_relative_category(dataclasses.replace(rc, d=d)).failures()]
            assert failed[0].startswith("(c)") and set(failed[-3:]) == {"(d) left unit law",
                                                                        "(d) right unit law",
                                                                        "(e) associativity"}, failed
            seen += 1
        assert seen
    for b in (path_coalgebra(QQ), matrix_coalgebra(f5, 2)):
        with pytest.raises(LegsNotInClass):
            codiscrete_relcat(b)


def test_only_the_finite_set_instance_linearizes():
    """Each base category answers linearize itself: finite sets give the
    group-like linearizations, the coalgebra instance refuses, so a
    linearized relative category is not linearized again."""
    rc = from_small_category(fixture_poset01())
    maps = (rc.s, rc.t, rc.i)
    assert FINSET.linearize(maps, QQ) == linearize_funs(maps, QQ)
    rcq = linearize_relcat(rc, QQ)
    for refused in (lambda: CoalgCategory(QQ).linearize(maps, QQ), lambda: linearize_relcat(rcq, QQ)):
        with pytest.raises(BaseMismatch, match="can only linearize a finite-set relative category"):
            refused()


def test_linearize_discrete_composition_is_unit_iso():
    rc = from_small_category(fixture_discrete(2))
    rcq = linearize_relcat(rc, QQ)
    # discrete: A = B, composition is the diagonal projection
    assert rcq.d.mat.rows == 2 and rcq.d.mat.cols == 2


def test_poset_linearization_composition_matrix():
    rc = from_small_category(fixture_poset01())
    rcq = linearize_relcat(rc, QQ)
    # 3-dim arrow coalgebra; d is a 0/1 matrix matching the finite table
    assert rcq.d.mat.rows == 3
    assert all(x in (QQ.zero, QQ.one) for row in rcq.d.mat.data for x in row)
    for k, pair in enumerate(rc.pb.payload):
        col = rcq.d.mat.col_sparse(k)
        assert col == {rc.d.table[k]: QQ.one}
        del pair


# -- violation fixtures --------------------------------------------------------------


def _raw_relcat(cat: SmallCategory) -> RelativeCategory:
    return from_small_category(cat)


def test_violation_bad_section():
    # pointing both identities at arrow 0 breaks t∘i = 1 at object 1
    rc = _raw_relcat(fixture_poset01())
    bad = RelativeCategory(rc.base, rc.b, rc.a, rc.s, rc.t, ffun(2, 3, [0, 0]), rc.d, rc.pb)
    rep = check_relative_category(bad)
    assert not rep.ok
    assert any("(b)" in c.name and not c.ok for c in rep.checks)


def test_violation_wrong_identity_arrow_one_object():
    # in a one-object category (b) is vacuous; a wrong i surfaces at (d)
    rc = _raw_relcat(fixture_z2())
    bad = RelativeCategory(rc.base, rc.b, rc.a, rc.s, rc.t, ffun(1, 2, [1]), rc.d, rc.pb)
    rep = check_relative_category(bad)
    assert not rep.ok
    assert any(c.name.startswith("(d)") and not c.ok for c in rep.checks)


def test_violation_bad_composition_endpoint():
    # poset category with d sending (id1, arrow) to id0: breaks axiom (c)
    rc = _raw_relcat(fixture_poset01())
    d_table = list(rc.d.table)
    pairs = rc.pb.payload
    idx = pairs.index((1, 2))  # id1 after the 0->1 arrow
    d_table[idx] = 0
    bad = RelativeCategory(
        rc.base, rc.b, rc.a, rc.s, rc.t, rc.i, ffun(len(pairs), 3, d_table), rc.pb
    )
    rep = check_relative_category(bad)
    assert not rep.ok
    assert any(c.name.startswith("(c)") and not c.ok for c in rep.checks)


def test_violation_bad_unit_law():
    # Z/5 with d(0, x) corrupted on one non-identity arrow: breaks (d) or (e)
    rc = _raw_relcat(fixture_groupoid5())
    pairs = rc.pb.payload
    d_table = list(rc.d.table)
    idx = pairs.index((0, 1))
    d_table[idx] = 2
    bad = RelativeCategory(
        rc.base, rc.b, rc.a, rc.s, rc.t, rc.i, ffun(len(pairs), 5, d_table), rc.pb
    )
    rep = check_relative_category(bad)
    assert not rep.ok
    failed = [c.name for c in rep.failures()]
    assert any(name.startswith("(d)") or name.startswith("(e)") for name in failed)


def test_violation_bad_associativity():
    # one-object table that is unital but not associative
    table = [
        [0, 1, 2],
        [1, 2, 2],
        [2, 2, 1],
    ]
    cat = fixture_one_object_group(table)
    with pytest.raises(NotACategory):
        from_small_category(cat)
    # the same data as a raw relative category must fail axiom (e)
    b = FinSetObj(1)
    a = FinSetObj(3)
    s = ffun(3, 1, [0, 0, 0])
    t = ffun(3, 1, [0, 0, 0])
    i = ffun(1, 3, [0])
    from relspan import relative_pullback

    pb = relative_pullback(FINSET, s, t)
    d = ffun(9, 3, [table[x][y] for x, y in pb.payload])
    bad = RelativeCategory(FINSET, b, a, s, t, i, d, pb)
    rep = check_relative_category(bad)
    assert not rep.ok
    assert any(c.name.startswith("(e)") and not c.ok for c in rep.checks)


# -- functors ---------------------------------------------------------------------


def test_identity_functor_passes():
    for cat in FIXTURES.values():
        rc = from_small_category(cat)
        fun = RelativeFunctor(FINSET.identity(rc.b), FINSET.identity(rc.a))
        assert check_relative_functor(fun, rc, rc).ok


def test_constant_functor_to_discrete():
    src = from_small_category(fixture_poset01())
    tgt = from_small_category(fixture_discrete(1))
    fun = RelativeFunctor(ffun(2, 1, [0, 0]), ffun(3, 1, [0, 0, 0]))
    assert check_relative_functor(fun, src, tgt).ok


def test_inclusion_functor_and_composition():
    # embed the discrete category on 1 object into poset01 at object 1
    src = from_small_category(fixture_discrete(1))
    mid = from_small_category(fixture_poset01())
    fun1 = RelativeFunctor(ffun(1, 2, [1]), ffun(1, 3, [1]))
    assert check_relative_functor(fun1, src, mid).ok
    tgt = from_small_category(fixture_discrete(1))
    fun2 = RelativeFunctor(ffun(2, 1, [0, 0]), ffun(3, 1, [0, 0, 0]))
    assert check_relative_functor(fun2, mid, tgt).ok
    comp = RelativeFunctor(FINSET.compose(fun2.b, fun1.b), FINSET.compose(fun2.a, fun1.a))
    assert check_relative_functor(comp, src, tgt).ok


def test_functor_violating_unit_compatibility_fails():
    src = from_small_category(fixture_z2())
    tgt = from_small_category(fixture_z2())
    fun = RelativeFunctor(FINSET.identity(src.b), ffun(2, 2, [1, 0]))
    rep = check_relative_functor(fun, src, tgt)
    assert not rep.ok
    assert any("a∘i = i'∘b" in c.name and not c.ok for c in rep.checks)


def test_functor_not_preserving_targets_reports_composition_as_skipped():
    """b = (0, 1), a = (0, 1, 0) on poset01 sends f: 0 -> 1 to id_0: sources
    and identities are preserved, targets are not, so a□a cannot be built
    and the composition check fails as skipped instead of raising."""
    rc = from_small_category(fixture_poset01())
    fun = RelativeFunctor(ffun(2, 2, [0, 1]), ffun(3, 3, [0, 1, 0]))
    rep = check_relative_functor(fun, rc, rc)
    assert [c.ok for c in rep.checks] == [True, False, True, False]
    assert rep.checks[3].name == "composition compatibility: a∘d = d'∘(a□a)"
    assert rep.checks[3].witness.startswith("skipped: ")


def test_linearized_functor_passes():
    src = from_small_category(fixture_poset01())
    tgt = from_small_category(fixture_discrete(1))
    fun = RelativeFunctor(ffun(2, 1, [0, 0]), ffun(3, 1, [0, 0, 0]))
    for field in FIELDS:
        srcq = linearize_relcat(src, field)
        tgtq = linearize_relcat(tgt, field)
        funq = RelativeFunctor(*linearize_funs((fun.b, fun.a), field))
        assert check_relative_functor(funq, srcq, tgtq).ok
