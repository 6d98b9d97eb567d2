"""Categorical interfaces: category laws, each instance's span class, admissibility instances."""

import pytest

from gen import (
    FIELDS,
    block_coalgebra,
    dense,
    mat,
    rand_block_map,
    rand_blocks,
    rand_finfun,
    rng_for,
)
from relspan import (
    FINSET,
    QQ,
    BaseCategory,
    CoalgCategory,
    CoalgMap,
    FinFun,
    FinSetCategory,
    FinSetObj,
    Matrix,
    Span,
    check_monoidal_instance,
    check_post_instance,
    check_pre_instance,
    check_unital_instance,
    grouplike,
    legs_in_class,
    linearize_fun,
    path_coalgebra,
    split_epi_class_facts,
)
from relspan.coalg import cid
from relspan.errors import CompositionMismatch, NotASection, ShapeMismatch


def test_finset_category_laws_randomized():
    rng = rng_for("cat-laws")
    base = FINSET
    for _ in range(30):
        f = rand_finfun(rng, rng.randint(1, 4), rng.randint(1, 4))
        g = rand_finfun(rng, f.cod.size, rng.randint(1, 4))
        h = rand_finfun(rng, g.cod.size, rng.randint(1, 4))
        assert base.compose(f, base.identity(f.dom)) == f
        assert base.compose(base.identity(f.cod), f) == f
        assert base.compose(h, base.compose(g, f)) == base.compose(base.compose(h, g), f)
        # functoriality of the product on morphisms
        f2 = rand_finfun(rng, rng.randint(1, 3), rng.randint(1, 3))
        g2 = rand_finfun(rng, f2.cod.size, rng.randint(1, 3))
        assert base.tensor_mor(base.compose(g, f), base.compose(g2, f2)) == base.compose(
            base.tensor_mor(g, g2), base.tensor_mor(f, f2)
        )


def test_finset_symmetry_involutive_and_natural():
    base = FINSET
    rng = rng_for("cat-sym")
    for _ in range(20):
        x, y = FinSetObj(rng.randint(1, 4)), FinSetObj(rng.randint(1, 4))
        c = base.symmetry(x, y)
        assert base.compose(base.symmetry(y, x), c) == base.identity(base.tensor_obj(x, y))
        f = rand_finfun(rng, x.size, rng.randint(1, 3))
        g = rand_finfun(rng, y.size, rng.randint(1, 3))
        assert base.compose(base.symmetry(f.cod, g.cod), base.tensor_mor(f, g)) == base.compose(
            base.tensor_mor(g, f), c
        )


def test_coalg_category_laws_randomized():
    rng = rng_for("cat-laws-coalg")
    for field in FIELDS:
        base = CoalgCategory(field)
        for _ in range(10):
            f = rand_block_map(rng, field, rand_blocks(rng), rand_blocks(rng))
            g = rand_block_map(rng, field, ("g", "p"), ("p", "g"))
            assert base.compose(f, base.identity(f.src)).mat == f.mat
            assert base.compose(base.identity(f.tgt), f).mat == f.mat
            c = base.symmetry(f.src, g.src)
            cc = base.compose(base.symmetry(g.src, f.src), c)
            assert cc.mat == Matrix.identity(field, f.src.dim * g.src.dim)
            # composition associativity and functoriality of the tensor
            h = rand_block_map(rng, field, _blocks_of(f.tgt, field), rand_blocks(rng))
            h = _rebase(h, f.tgt)
            k = rand_block_map(rng, field, _blocks_of(h.tgt, field), rand_blocks(rng))
            k = _rebase(k, h.tgt)
            assert base.compose(k, base.compose(h, f)).mat == base.compose(
                base.compose(k, h), f
            ).mat
            g2 = rand_block_map(rng, field, _blocks_of(g.tgt, field), rand_blocks(rng))
            g2 = _rebase(g2, g.tgt)
            assert base.tensor_mor(base.compose(h, f), base.compose(g2, g)).mat == base.compose(
                base.tensor_mor(h, g2), base.tensor_mor(f, g)
            ).mat
            # naturality of the symmetry
            lhs = base.compose(base.symmetry(f.tgt, g.tgt), base.tensor_mor(f, g))
            rhs = base.compose(base.tensor_mor(g, f), base.symmetry(f.src, g.src))
            assert lhs.mat == rhs.mat


def test_all_spans_class_and_legs():
    rng = rng_for("allspans")
    base = FINSET
    for _ in range(20):
        f = rand_finfun(rng, 3, rng.randint(1, 3))
        g = rand_finfun(rng, 3, rng.randint(1, 3))
        assert base.failure_witness(Span(f, g)) is None
        assert base.contains(Span(f, g))
        h = rand_finfun(rng, g.cod.size, 4)
        k = rand_finfun(rng, 2, 3)
        assert check_post_instance(base, Span(f, g), rand_finfun(rng, f.cod.size, 2), h)
        assert check_pre_instance(base, Span(f, g), k)
        assert legs_in_class(base, rand_finfun(rng, 2, 3), rand_finfun(rng, 2, 3))


def test_class_s_instances_on_cocommutative_data():
    rng = rng_for("classS-inst")
    for field in FIELDS:
        base = CoalgCategory(field)
        for _ in range(15):
            apex = rand_blocks(rng)
            f = rand_block_map(rng, field, apex, rand_blocks(rng))
            g = rand_block_map(rng, field, apex, rand_blocks(rng))
            g = CoalgMap(f.src, g.tgt, g.mat)  # share the apex object
            span = Span(f, g)
            assert base.contains(span)
            f2 = rand_block_map(rng, field, _blocks_of(f.tgt, field), rand_blocks(rng))
            g2 = rand_block_map(rng, field, _blocks_of(g.tgt, field), rand_blocks(rng))
            assert check_post_instance(base, span, _rebase(f2, f.tgt), _rebase(g2, g.tgt))
            h = rand_block_map(rng, field, rand_blocks(rng), apex)
            assert check_pre_instance(base, span, CoalgMap(h.src, f.src, h.mat))
            span2_src = rand_blocks(rng)
            s2f = rand_block_map(rng, field, span2_src, rand_blocks(rng))
            s2g = rand_block_map(rng, field, span2_src, rand_blocks(rng))
            assert check_monoidal_instance(base, span, Span(s2f, CoalgMap(s2f.src, s2g.tgt, s2g.mat)))


def _blocks_of(coalgebra, field):
    """Recover a block layout compatible with a block-built coalgebra by
    scanning ε (1 on group-likes, 0 on primitive tails)."""
    eps = dense(coalgebra.epsilon)[0]
    blocks = []
    i = 0
    while i < len(eps):
        if i + 1 < len(eps) and not eps[i + 1]:
            blocks.append("p")
            i += 2
        else:
            blocks.append("g")
            i += 1
    return tuple(blocks)


def _rebase(m, src):
    return CoalgMap(src, m.tgt, m.mat)


def test_class_s_unitality_from_unit_span():
    # a class satisfying (POST) is unital iff the identity span on I belongs to it
    for field in FIELDS:
        base = CoalgCategory(field)
        e = base.identity(base.unit_obj())
        assert check_unital_instance(base, e, e)


def test_class_s_rejects_noncocommutative_identity_span():
    for field in FIELDS:
        base = CoalgCategory(field)
        p = path_coalgebra(field)
        w = base.failure_witness(Span(base.identity(p), base.identity(p)))
        assert w == "basis 2"  # the arrow x witnesses the failure
        assert not base.contains(Span(base.identity(p), base.identity(p)))


def test_grouplike_identity_span_accepted():
    for field in FIELDS:
        base = CoalgCategory(field)
        g = grouplike(field, 3)
        assert base.failure_witness(Span(base.identity(g), base.identity(g))) is None
        assert base.contains(Span(base.identity(g), base.identity(g)))


# -- split-epimorphism implication suite --------------------------------------------


def test_split_epi_facts_finset():
    base = FINSET
    a, b = FinSetObj(2), FinSetObj(1)
    s = rand_finfun(rng_for("se"), 2, 1)
    i = rand_finfun(rng_for("se2"), 1, 2)
    rng = rng_for("split-epi-probes")
    probes = [(rand_finfun(rng, 1, 3), rand_finfun(rng, 1, 2)) for _ in range(5)]
    rep = split_epi_class_facts(base, i, s, probes)
    assert rep.ok
    del a, b


def test_split_epi_facts_coalg_grouplike():
    for field in FIELDS:
        base = CoalgCategory(field)
        k2 = grouplike(field, 2)
        k1 = grouplike(field, 1)
        i = CoalgMap(k1, k2, mat(field, [[1], [0]]))
        s = CoalgMap(k2, k1, mat(field, [[1, 1]]))  # the counit
        rng = rng_for("split-epi-coalg")
        probes = []
        for _ in range(4):
            f = linearize_fun(rand_finfun(rng, 1, 3), field)
            g = linearize_fun(rand_finfun(rng, 1, 2), field)
            probes.append((CoalgMap(k1, f.tgt, f.mat), CoalgMap(k1, g.tgt, g.mat)))
        rep = split_epi_class_facts(base, i, s, probes)
        assert rep.ok


def test_split_epi_rejects_non_section():
    base = FINSET
    i = rand_finfun(rng_for("ns"), 1, 2)
    s = base.compose(
        rand_finfun(rng_for("ns2"), 2, 2), rand_finfun(rng_for("ns3"), 2, 2)
    )
    # build an s with s(i(0)) != 0
    bad_s = __import__("relspan").FinFun(FinSetObj(2), FinSetObj(1), [0, 0])
    good = split_epi_class_facts(base, i, bad_s, [])
    assert good.ok  # 1-element codomain: always a section
    bad_i = __import__("relspan").FinFun(FinSetObj(2), FinSetObj(2), [0, 0])
    bad_ss = __import__("relspan").FinFun(FinSetObj(2), FinSetObj(2), [1, 1])
    with pytest.raises(NotASection):
        split_epi_class_facts(base, bad_i, bad_ss, [])
    del s


def test_identity_span_on_unit_member_finset():
    e = FINSET.identity(FinSetObj(1))
    assert check_unital_instance(FINSET, e, e)


def test_instance_checks_reject_morphisms_that_do_not_compose():
    two, three = FINSET.identity(FinSetObj(2)), FINSET.identity(FinSetObj(3))
    span = Span(two, two)
    with pytest.raises(CompositionMismatch, match="f2 does not postcompose"):
        check_post_instance(FINSET, span, three, two)
    with pytest.raises(CompositionMismatch, match="g2 does not postcompose"):
        check_post_instance(FINSET, span, two, three)
    with pytest.raises(CompositionMismatch, match="h does not precompose"):
        check_pre_instance(FINSET, span, three)
    with pytest.raises(CompositionMismatch, match="monoidal unit"):
        check_unital_instance(FINSET, two, two)


def test_split_epi_rejects_a_probe_out_of_another_apex():
    one, two = FinSetObj(1), FinSetObj(2)
    i, s = FinFun(one, two, (0,)), FinFun(two, one, (0, 0))
    probe = (FINSET.identity(two), FINSET.identity(two))
    with pytest.raises(CompositionMismatch, match="apex B"):
        split_epi_class_facts(FINSET, i, s, [probe])


# -- each instance decides its own class ----------------------------------------


def test_finset_failure_witness_rejects_legs_of_different_apexes():
    span = Span(rand_finfun(rng_for("apex2"), 2, 2), rand_finfun(rng_for("apex3"), 3, 2))
    with pytest.raises(CompositionMismatch):
        FINSET.failure_witness(span)
    with pytest.raises(CompositionMismatch):
        FINSET.contains(span)


def test_equality_is_defined_once_on_the_base_category():
    for instance in (FinSetCategory, CoalgCategory):
        assert issubclass(instance, BaseCategory)
        assert "equal_mor" not in vars(instance) and "equal_obj" not in vars(instance)
    assert "equal_mor" in vars(BaseCategory) and not hasattr(BaseCategory, "equal_obj")


# -- refusals --------------------------------------------------------------------


def _k(n):
    return grouplike(QQ, n)


@pytest.mark.parametrize("base, lhs, rhs", [
    (FINSET, FINSET.identity(FinSetObj(2)), FINSET.identity(FinSetObj(3))),
    (FINSET, FinFun(FinSetObj(2), FinSetObj(2), (0, 1)), FinFun(FinSetObj(2), FinSetObj(3), (0, 1))),
    (CoalgCategory(QQ), cid(_k(2)), cid(_k(3))),
    (CoalgCategory(QQ), cid(_k(2)), CoalgMap(_k(2), _k(3), Matrix.from_cols(QQ, 3, [{0: 1}, {1: 1}]))),
], ids=["finset-domains", "finset-codomains", "coalg-domains", "coalg-codomains"])
def test_an_equation_between_maps_of_other_ends_is_refused(base, lhs, rhs):
    """require_same_ends, as first_difference calls it on both bases."""
    with pytest.raises(ShapeMismatch) as info:
        base.first_difference(lhs, rhs)
    assert type(info.value) is ShapeMismatch
    assert str(info.value) == "the sides of an equation have different domains or codomains"
