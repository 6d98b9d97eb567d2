"""Coalgebras: axiom checks, class S, equalizers, relative pullbacks, cotensor."""

import os
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, permutations

import pytest

from gen import (
    FIELDS,
    block_coalgebra,
    dense,
    direct_sum,
    divided_power,
    general,
    is_cocommutative,
    is_injective,
    mat,
    matrix_coalgebra,
    mutate_one_entry,
    primitive_block,
    rand_block_map,
    rand_blocks,
    rand_finfun,
    rand_matrix,
    rand_raw_coalgebra,
    rand_sparse_matrix,
    random_basis,
    rebased,
    rebased_map,
    rng_for,
)
from relspan import (
    FINSET,
    GF,
    QQ,
    CoalgCategory,
    CoalgMap,
    Coalgebra,
    FinFun,
    FinSetObj,
    Matrix,
    check_coalg_map,
    check_coalgebra,
    class_S_witness,
    coalg_equalizer,
    compare_cotensor_pullback,
    cotensor,
    grouplike,
    legs_in_class,
    linearize_fun,
    linearize_obj,
    path_coalgebra,
    relative_pullback,
    tensor_coalgebra,
    trivial,
    universal_factor,
)
from relspan import coalg, linalg
from relspan.coalg import (
    cid,
    compare_with_pullback,
    equalizer_factor,
    pullback_factor_coalg,
    relative_pullback_coalg,
    subcoalgebra,
)
from relspan.catcore import Report, Span
from relspan.finset import pullback
from relspan.jsonio import load_context
from relspan.errors import (
    CodomainMismatch,
    CompositionMismatch,
    FieldMismatch,
    InternalSolveFailure,
    LegsNotInClass,
    NotCounital,
    ShapeMismatch,
    SpanNotInClass,
    SquareDoesNotCommute,
)
from relspan.fields import _is_prime
from relspan.linalg import (
    _kernel,
    _unit_matrix,
    kernel_basis_sparse,
    kernel_left_inverse,
    kron,
    kron_apply,
    solve,
    swap_map,
)


# -- axiom checks -----------------------------------------------------------------


def test_grouplike_passes():
    for field in FIELDS:
        assert check_coalgebra(grouplike(field, 4)).ok


def test_primitive_passes():
    for field in FIELDS:
        assert check_coalgebra(primitive_block(field)).ok
        assert is_cocommutative(primitive_block(field))


def test_primitive_missing_summand_fails_counit_with_witness():
    for field in FIELDS:
        one = field.one
        # δ(x) = g⊗x only: the right counit law fails at x
        cols = [{0: one}, {1: one}]
        c = Coalgebra(
            2,
            field,
            delta=Matrix.from_cols(field, 4, cols),
            epsilon=mat(field, [[1, 0]]),
        )
        rep = check_coalgebra(c)
        assert not rep.ok
        assert any(f.witness == "basis 1" for f in rep.failures())


def test_path_coalgebra_valid_but_not_cocommutative():
    for field in FIELDS:
        p = path_coalgebra(field)
        assert check_coalgebra(p).ok
        assert not is_cocommutative(p)


def test_direct_sum_and_tensor_pass_checks():
    for field in FIELDS:
        a = direct_sum(grouplike(field, 2), primitive_block(field))
        assert check_coalgebra(a).ok
        t = tensor_coalgebra(a, primitive_block(field))
        assert check_coalgebra(t).ok
        assert t.dim == 8


def test_zero_dimensional_coalgebra_is_legal():
    for field in FIELDS:
        z = Coalgebra(
            0, field, delta=Matrix.from_cols(field, 0, []), epsilon=Matrix.from_cols(field, 1, [])
        )
        assert check_coalgebra(z).ok


def test_mutations_detected():
    rng = rng_for("coalg-mutate")
    for field in FIELDS:
        c = direct_sum(grouplike(field, 2), primitive_block(field))
        detected = 0
        for _ in range(20):
            if rng.random() < 0.5:
                bad = Coalgebra(
                    c.dim, field, delta=mutate_one_entry(rng, field, c.delta), epsilon=c.epsilon
                )
            else:
                bad = Coalgebra(
                    c.dim, field, delta=c.delta, epsilon=mutate_one_entry(rng, field, c.epsilon)
                )
            rep = check_coalgebra(bad)
            if not rep.ok:
                detected += 1
                assert all(f.witness for f in rep.failures())
        assert detected == 20


def test_check_coalg_map_grouplike_and_violations():
    rng = rng_for("coalg-map")
    for field in FIELDS:
        f = linearize_fun(rand_finfun(rng, 3, 2), field)
        assert check_coalg_map(f).ok
        bad = CoalgMap(f.src, f.tgt, mutate_one_entry(rng, field, f.mat))
        assert not check_coalg_map(bad).ok


# -- k[X], recognized from its row tables -------------------------------------------


GROUPLIKE_FIELDS = (QQ, GF(2), GF(5), GF(32003))


def _plain_grouplike(field, n):
    """k[X] for |X| = n, built from plain columns: no row table, no fact set."""
    one = field.one
    return Coalgebra(n, field, delta=Matrix.from_cols(field, n * n, [{x * n + x: one} for x in range(n)]),
                     epsilon=Matrix.from_cols(field, 1, [{0: one}] * n))


def _decoded_grouplikes():
    """A, B and C of cospan_coalg.json, k[X] over F_5 decoded from JSON."""
    ctx = load_context(os.path.join(os.path.dirname(__file__), "..", "fixtures", "cospan_coalg.json"))
    return [ctx[name].value for name in "ABC"]


def _grouplike_cases(rng, field):
    """k[X] for |X| ≤ 6, built by grouplike, which sets its facts, and from
    plain columns or decoded, which are recognized from their tables;
    apexes of linearized pullbacks, and k[X]⊗k[Y], nested too."""
    yield from (grouplike(field, n) for n in range(7))
    yield from (_plain_grouplike(field, n) for n in range(7))
    if field == GF(5):
        yield from _decoded_grouplikes()
    for _ in range(4):
        f0 = rand_finfun(rng, rng.randint(1, 4), rng.randint(1, 3))
        g0 = rand_finfun(rng, rng.randint(1, 4), f0.cod.size)
        yield relative_pullback(CoalgCategory(field), linearize_fun(f0, field), linearize_fun(g0, field)).apex
    k = partial(grouplike, field)
    yield tensor_coalgebra(k(2), k(3))
    yield tensor_coalgebra(tensor_coalgebra(k(1), k(3)), k(2))


def _near_misses(rng, field):
    """Coalgebras one step from k[X]: δe_x = e_σ(x)⊗e_σ(x) for σ ≠ 1,
    δe_x = e_x⊗e_y for one x and y ≠ x, one δ or ε entry of 2, -1 or 0
    where that is not one, k[X] in a basis that is not a permutation of X,
    the path coalgebra, and tensor products with one of these as a factor."""
    one, diagonal = field.one, lambda n: [x * n + x for x in range(n)]
    for n in range(1, 5):
        k = grouplike(field, n)
        if n > 1:
            sigma = list(range(n))
            while sigma == sorted(sigma):
                rng.shuffle(sigma)
            yield Coalgebra(n, field, delta=_unit_matrix(field, n * n, [diagonal(n)[x] for x in sigma]),
                            epsilon=k.epsilon)
            rows, (x, y) = diagonal(n), rng.sample(range(n), 2)
            rows[x] = x * n + y
            yield Coalgebra(n, field, delta=_unit_matrix(field, n * n, rows), epsilon=k.epsilon)
        for v in sorted({field.of(2), field.of(-1), field.zero} - {one}):
            x = rng.randrange(n)
            for at, m in ((x * n + x, k.delta), (0, k.epsilon)):
                cols = [({at: v} if v else {}) if t == x else col for t, col in enumerate(m.columns)]
                changed = Matrix.from_cols(field, m.rows, cols)
                yield Coalgebra(n, field, delta=changed if m is k.delta else k.delta,
                                epsilon=changed if m is k.epsilon else k.epsilon)
        if linalg._unit_rows(p := random_basis(rng, field, n)) is False:
            yield rebased(k, p)
    yield path_coalgebra(field)
    yield tensor_coalgebra(grouplike(field, 2), path_coalgebra(field))
    yield tensor_coalgebra(rebased(grouplike(field, 2), mat(field, [[1, 1], [0, 1]])), grouplike(field, 1))


def _formula_facts(c):
    """z = (1⊗ε)∘δ and l = (ε⊗1)∘δ by kron_apply, whether c∘δ = δ by
    _swapped, and check_coalgebra's report with coassociativity by
    _coassoc_difference and the counit laws on z and l."""
    i_n, d, e = Matrix.identity(c.field, c.dim), c.delta, c.epsilon
    z, l = kron_apply(i_n, e, d), kron_apply(e, i_n, d)
    rep, j = Report(), linalg._coassoc_difference(d)
    rep.add("coassociativity", j is None, f"basis {j}")
    for name, side in (("left counit law", l), ("right counit law", z)):
        j = linalg.first_difference(side, i_n)
        rep.add(name, j is None, f"basis {j}")
    return z, l, coalg._swapped(d, c.dim) == d, [x.as_dict() for x in rep.checks]


def test_grouplike_recognizer_reads_what_the_formulas_compute():
    """k[X] is recognized from its row tables, or handed its facts by
    grouplike, and its right and left counits, the shared identity, its
    cocommutativity and the report of check_coalgebra equal what the
    formulas compute from δ and ε: on k[X] for |X| ≤ 6 built by grouplike
    and from plain columns, A, B and C decoded from cospan_coalg.json,
    linearized pullback apexes and k[X]⊗k[Y], over Q, F_2, F_5 and F_32003.
    The near misses are not recognized, and get the formulas' values too.
    The recognized facts are read first, so a tensor product's are read
    before its δ and ε are built."""
    rng = rng_for("grouplike-recognizer")
    seen = Counter()
    for field in GROUPLIKE_FIELDS:
        for expected, cases in ((True, _grouplike_cases(rng, field)), (False, _near_misses(rng, field))):
            for c in cases:
                got = (c.right_counit, c.left_counit, c.cocommutative,
                       [x.as_dict() for x in check_coalgebra(c).checks])
                assert c._grouplike is expected
                assert got == _formula_facts(c)
                if expected:
                    assert got[0] is got[1] is Matrix.identity(field, c.dim)
                seen[expected, all(x["status"] == "pass" for x in got[3])] += 1
    assert seen[True, True] and seen[False, True] and seen[False, False] and not seen[True, False]


_FACTS = ("_grouplike", "right_counit", "left_counit", "cocommutative")


def _answers_as_kx(c):
    """Whether c says it is k[X], cocommutative with z = l the shared
    identity, and check_coalgebra passes."""
    return (c._grouplike is c.cocommutative is True
            and c.right_counit is c.left_counit is Matrix.identity(c.field, c.dim) and check_coalgebra(c).ok)


def test_grouplike_hands_its_facts_over_and_decoded_kx_reads_its_tables(monkeypatch):
    """k[X] built by grouplike or linearize_obj answers its four facts and
    check_coalgebra with no call to the recognizer's _unit_rows, kron_apply
    or _swapped: grouplike sets them.  The same k[X] from plain columns, and
    A, B and C decoded from cospan_coalg.json, are recognized from both
    tables, ε's then δ's, and read off that recognition."""
    units, krons, swaps = (_spy(monkeypatch, coalg, name) for name in ("_unit_rows", "kron_apply", "_swapped"))
    for field in GROUPLIKE_FIELDS:
        for n in range(5):
            for c in (grouplike(field, n), linearize_obj(FinSetObj(n), field)):
                assert vars(c).keys() >= set(_FACTS)
                assert _answers_as_kx(c)
                assert not units and not krons and not swaps
    for c in [_plain_grouplike(QQ, 3)] + _decoded_grouplikes():
        assert not vars(c).keys() & set(_FACTS)
        assert _answers_as_kx(c)
        assert [args for args, _ in units] == [(c.epsilon,), (c.delta,)]
        assert not krons and not swaps
        units.clear()


def test_coalg_category_builds_its_unit_on_first_use(monkeypatch):
    """CoalgCategory(F) builds no coalgebra until unit_obj() is called, and
    then returns one k, grouplike(F, 1), on every call."""
    built, init = [], Coalgebra.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Coalgebra, "__init__", spy)
    for field in GROUPLIKE_FIELDS:
        base = CoalgCategory(field)
        assert not built
        unit = base.unit_obj()
        assert base.unit_obj() is unit and base.unit_obj() is unit and built == [unit]
        assert unit == trivial(field) == grouplike(field, 1) and unit._grouplike
        built.clear()


# -- class S ---------------------------------------------------------------------


def test_class_s_grouplike_apex_any_span():
    rng = rng_for("classS-gl")
    for field in FIELDS:
        f = linearize_fun(rand_finfun(rng, 3, 2), field)
        g0 = linearize_fun(rand_finfun(rng, 3, 4), field)
        g = CoalgMap(f.src, g0.tgt, g0.mat)
        assert class_S_witness(f, g) is None


def test_class_s_identity_span_cocommutative():
    for field in FIELDS:
        c = block_coalgebra(field, ("p", "g"))
        assert class_S_witness(cid(c), cid(c)) is None


def test_class_s_path_identity_span_rejected_at_x():
    for field in FIELDS:
        p = path_coalgebra(field)
        assert class_S_witness(cid(p), cid(p)) == "basis 2"


def test_class_s_witness_rejects_legs_out_of_different_apexes():
    """The apex is compared as an object, as over finite sets: legs out of
    k[3] and the path coalgebra, of one dimension and field, are refused in
    either order, by the witness and by the base category's decision."""
    for field in FIELDS:
        base = CoalgCategory(field)
        for apexes in ((grouplike(field, 2), grouplike(field, 3)), (grouplike(field, 3), path_coalgebra(field))):
            for left, right in permutations(apexes):
                span = Span(cid(left), cid(right))
                for decide in (lambda s: class_S_witness(s.left, s.right), base.contains, base.failure_witness):
                    with pytest.raises(CompositionMismatch, match="span legs must share their apex"):
                        decide(span)


def _class_s_two_products(f, g):
    """The two-product oracle: the first column at which c∘(f⊗g)∘δ and
    (g⊗f)∘δ differ, or None."""
    d = f.src.delta
    lhs = swap_map(f.mat.field, f.tgt.dim, g.tgt.dim) @ kron_apply(f.mat, g.mat, d)
    rhs = kron_apply(g.mat, f.mat, d)
    j = next((j for j, (x, y) in enumerate(zip(lhs.columns, rhs.columns)) if x != y), None)
    return None if j is None else f"basis {j}"


def test_class_s_witness_is_the_two_product_witness(monkeypatch):
    """One product on c∘δ - δ gives the witness the two products give, on
    named and random apexes and legs, both in S and not; on a cocommutative
    apex it takes no Kronecker product at all."""
    products = []
    kron_apply_in = coalg.kron_apply
    monkeypatch.setattr(coalg, "kron_apply", lambda *a: products.append(a) or kron_apply_in(*a))
    rng = rng_for("classS-oracle")
    outcomes = set()
    for field in FIELDS:
        named = [(path_coalgebra(field), False), (matrix_coalgebra(field, 2), False),
                 (primitive_block(field), True), (grouplike(field, 3), True),
                 (divided_power(field, 3), True)]
        # None: a random δ, cocommutative or not
        raw = [(rand_raw_coalgebra(rng, field, rng.randint(1, 3)), None) for _ in range(60)]
        for apex, cocommutative in named + raw:
            counit = CoalgMap(apex, trivial(field), apex.epsilon)
            legs = [cid(apex), counit]
            for _ in range(4):
                tgt = rand_raw_coalgebra(rng, field, rng.randint(1, 3))
                legs.append(CoalgMap(apex, tgt, rand_sparse_matrix(rng, field, tgt.dim, apex.dim,
                                                                   rng.random())))
            for f in legs:
                for g in rng.sample(legs, 3):
                    products.clear()
                    got = class_S_witness(f, g)
                    assert got == _class_s_two_products(f, g)
                    if cocommutative:
                        assert got is None and not products
                    else:
                        outcomes.add((cocommutative, got is None))
    assert outcomes == {(c, s) for c in (False, None) for s in (True, False)}


def test_class_s_verdicts_on_one_apex_object_match_fresh_objects():
    """The apex keeps whether c∘δ = δ, not a verdict: on one path coalgebra,
    which is not cocommutative, the identity span (outside S) and the counit
    span (inside) are decided in either order as on fresh objects."""
    for field in FIELDS:
        def legs(p):
            return {"identity": (cid(p), cid(p)),
                    "counit": (CoalgMap(p, trivial(field), p.epsilon),) * 2}

        fresh = {name: class_S_witness(*legs(path_coalgebra(field))[name])
                 for name in ("identity", "counit")}
        assert fresh == {"identity": "basis 2", "counit": None}
        for order in (("identity", "counit"), ("counit", "identity")):
            shared = legs(path_coalgebra(field))
            for name in order + order:
                assert class_S_witness(*shared[name]) == fresh[name]


def test_right_counit_witness_is_the_same_after_a_construction_read_it():
    """check_coalgebra reports the same right counit law, witness included,
    on a non-counital coalgebra whether or not coalg_equalizer or a relative
    pullback read (1⊗ε)∘δ on that object first, deciding its counit laws,
    and refused it."""
    rng = rng_for("right-counit-kept")
    failing = 0
    for field in RESTRICTION_FIELDS:
        base = CoalgCategory(field)
        # k[3] with e2⊗e0 added to δ(e2): the right counit law fails at basis 2 only
        late = Coalgebra(3, field, delta=Matrix.from_cols(field, 9, [{0: 1}, {4: 1}, {6: 1, 8: 1}]),
                         epsilon=grouplike(field, 3).epsilon)
        for x in [late] + [rand_raw_coalgebra(rng, field, rng.randint(1, 3)) for _ in range(8)]:

            def copy():
                return Coalgebra(x.dim, field, delta=x.delta, epsilon=x.epsilon)

            want = [c.as_dict() for c in check_coalgebra(copy()).checks]
            after_equalizer, after_pullback = copy(), copy()
            refused = _refused(coalg_equalizer, cid(after_equalizer), cid(after_equalizer))
            assert refused == _refused(relative_pullback_coalg, base, cid(after_pullback), cid(after_pullback))
            assert refused == any(c["status"] == "fail" for c in want[1:])
            for y in (after_equalizer, after_pullback):
                assert "right_counit" in vars(y)
                assert [c.as_dict() for c in check_coalgebra(y).checks] == want
            failing += refused and want[2]["status"] == "fail"
    assert failing > 0


def _refused(fn, *args):
    """Whether fn(*args) raises NotCounital; its other failures are ignored."""
    try:
        _outcome(fn, *args)
    except NotCounital:
        return True
    return False


def test_counit_maps_and_projections_of_dense_data_are_contractions(monkeypatch):
    """z = (1⊗ε)∘δ and l = (ε⊗1)∘δ of k[X] in a random basis, whose δ has
    no row table, and the projections p_A = (1⊗ε_C)∘j and p_C = (ε_A⊗1)∘j
    of a dense pullback, are each one contraction pass of kron_apply
    (linalg._contract), with no packed column, and equal the Kronecker
    products they stand for."""
    contractions, packed = _spy(monkeypatch, linalg, "_contract"), _spy(monkeypatch, linalg, "_packed_column")
    rng = rng_for("dense-contractions")
    for field in (QQ, GF(5), GF(32003)):
        i4 = Matrix.identity(field, 4)
        x = rebased(grouplike(field, 4), random_basis(rng, field, 4))
        contractions.clear()
        packed.clear()
        z, l = x.right_counit, x.left_counit
        assert [out is not None for _, out in contractions] == [True, True] and not packed
        assert z == kron(i4, x.epsilon) @ x.delta and l == kron(x.epsilon, i4) @ x.delta
        assert z == l == i4
        f, g = _counital_cospan(rng, field)
        pb = relative_pullback_coalg(CoalgCategory(field), f, g)
        a, c, j = f.src, g.src, pb.payload.j.mat
        contractions.clear()
        packed.clear()
        p_a, p_c = kron_apply(Matrix.identity(field, a.dim), c.epsilon, j), kron_apply(
            a.epsilon, Matrix.identity(field, c.dim), j)
        assert (pb.p_a.mat, pb.p_c.mat) == (p_a, p_c)
        assert [out is not None for _, out in contractions] == [True, True] and not packed
        assert p_a == kron(Matrix.identity(field, a.dim), c.epsilon) @ j


# -- comonoid equalizers -----------------------------------------------------------


def test_equalizer_of_equal_maps_is_iso():
    rng = rng_for("eq-equal")
    for field in FIELDS:
        f = rand_block_map(rng, field, ("p", "g"), ("g", "p"))
        eq = coalg_equalizer(f, f)
        assert eq.object.dim == f.src.dim
        assert eq.j.mat == Matrix.identity(field, f.src.dim)
        assert check_coalgebra(eq.object).ok


def test_equalizer_grouplike_matches_finset_equalizer():
    rng = rng_for("eq-gl")
    for field in FIELDS:
        for _ in range(10):
            n, m = rng.randint(1, 5), rng.randint(1, 4)
            phi = rand_finfun(rng, n, m)
            psi = rand_finfun(rng, n, m)
            f = linearize_fun(phi, field)
            g0 = linearize_fun(psi, field)
            g = CoalgMap(f.src, f.tgt, g0.mat)
            eq = coalg_equalizer(f, g)
            fixed = [x for x in range(n) if phi.table[x] == psi.table[x]]
            assert eq.object.dim == len(fixed)
            # the inclusion is exactly the span of the matching basis vectors
            for k, x in enumerate(fixed):
                assert eq.j.mat.columns[k] == {x: field.one}
            assert check_coalgebra(eq.object).ok
            assert check_coalg_map(eq.j).ok
            assert f.mat @ eq.j.mat == g.mat @ eq.j.mat


def test_equalizer_primitive_counit_pair():
    for field in FIELDS:
        p = primitive_block(field)
        t = trivial(field)
        eps = CoalgMap(p, t, p.epsilon)
        eq = coalg_equalizer(eps, eps)
        assert eq.object.dim == p.dim


def test_equalizer_invariants_j_and_delta_r():
    """(j⊗j)∘δ_E = δ_A∘j, j is injective, and δ_E = (L⊗L)∘δ∘j equals the
    two-step route (1⊗L)∘δ_r through the auxiliary δ_r = (L⊗1)∘δ∘j, which
    only this test builds."""
    rng = rng_for("eq-inv")
    from relspan.linalg import kron_apply

    for field in FIELDS:
        for _ in range(5):
            blocks = rand_blocks(rng)
            tgt = rand_blocks(rng)
            f = rand_block_map(rng, field, blocks, tgt)
            g0 = rand_block_map(rng, field, blocks, tgt)
            g = CoalgMap(f.src, f.tgt, g0.mat)
            eq = coalg_equalizer(f, g)
            a = f.src
            j = eq.j.mat
            assert is_injective(j)
            assert kron_apply(j, j, eq.object.delta) == a.delta @ j
            delta_r = kron_apply(eq.left_inv, Matrix.identity(field, a.dim), a.delta @ j)
            i_e = Matrix.identity(field, j.cols)
            assert eq.object.delta == kron_apply(i_e, eq.left_inv, delta_r)


def test_subcoalgebra_refuses_a_subspace_not_closed_under_delta():
    """δ(e0 + e1) = e0⊗e0 + e1⊗e1 is not in E⊗E for E = k·(e0 + e1) in k[2]."""
    for field in FIELDS:
        k = Matrix.from_cols(field, 2, [{0: field.one, 1: field.one}])
        with pytest.raises(InternalSolveFailure, match="does not factor through j⊗j"):
            subcoalgebra(grouplike(field, 2), k)
        assert subcoalgebra(grouplike(field, 2), Matrix.identity(field, 2)).object.dim == 2
        # row tables: δe_0 = δe_1 = e_1⊗e_1 and E = k·e_0, δ∘K = e_1⊗e_1 escapes E⊗E
        x = Coalgebra(2, field, delta=linalg._unit_matrix(field, 4, [3, 3]),
                      epsilon=linalg._unit_matrix(field, 1, [0, 0]))
        k = linalg._unit_matrix(field, 2, [0])
        assert isinstance((x.delta @ k)._units, list)
        with pytest.raises(InternalSolveFailure, match="does not factor through j⊗j"):
            subcoalgebra(x, k)


def test_equalizer_universality_randomized():
    rng = rng_for("eq-univ")
    for field in FIELDS:
        for _ in range(8):
            n, m = rng.randint(1, 4), rng.randint(1, 3)
            phi, psi = rand_finfun(rng, n, m), rand_finfun(rng, n, m)
            f = linearize_fun(phi, field)
            g = CoalgMap(f.src, f.tgt, linearize_fun(psi, field).mat)
            eq = coalg_equalizer(f, g)
            if eq.object.dim == 0:
                continue
            for _ in range(4):
                d = rng.randint(1, 3)
                r_mat = Matrix.from_cols(
                    field, eq.object.dim, [{rng.randrange(eq.object.dim): field.one} for _ in range(d)]
                )
                h = CoalgMap(linearize_obj(FinSetObj(d), field), f.src, eq.j.mat @ r_mat)
                assert f.mat @ h.mat == g.mat @ h.mat
                u = equalizer_factor(eq, h)
                assert eq.j.mat @ u.mat == h.mat
                assert u.mat == r_mat  # unique: j is injective
                assert check_coalg_map(u).ok


def _hat_difference_oracle(f, g):
    """f_hat - g_hat = (1⊗(F-G)⊗1)∘(δ⊗1)∘δ as one dense product."""
    fld, n = f.mat.field, f.src.dim
    i_n = Matrix.identity(fld, n)
    delta = f.src.delta
    return kron(kron(i_n, f.mat - g.mat), i_n) @ kron(delta, i_n) @ delta


def _t(f, g):
    """T = (1⊗(F-G))∘δ on the domain of f and g."""
    a = f.src
    return kron(Matrix.identity(a.field, a.dim), f.mat - g.mat) @ a.delta


def _rref_rows(t):
    """R, the nonzero rows of the reduced row echelon form of t."""
    full, pivots = t.rref()
    return Matrix.from_cols(t.field, len(pivots), full.columns)


def _equalizer_system(x, t):
    """(K', δ∘K', S') for t, R and K' = ker t as in the coalg module
    docstring, with the second system S' = (R⊗1)∘δ∘K' built on every
    input: the reference that coalg's equalizer, which builds S' only when
    the closure check on K' fails, must agree with."""
    r, k = _rref_rows(t), kernel_basis_sparse(t)
    delta_k = x.delta @ k
    return k, delta_k, kron_apply(r, Matrix.identity(x.field, x.dim), delta_k)


def _assert_hat_difference_matches_oracle(f, g):
    """The restricted system S' = (R⊗1)∘δ∘K', R the nonzero rows of rref(T)
    for T = (1⊗(F-G))∘δ and K' = ker T, gives back the exact
    (f_hat - g_hat)∘K' as (T_P⊗1)∘S' with T_P the pivot columns of T.
    T_P⊗1 is injective, so this pins S', not only its kernel.  Returns
    ((T_P⊗1)∘S', K')."""
    fld, n = f.mat.field, f.src.dim
    i_n = Matrix.identity(fld, n)
    t = _t(f, g)
    k, delta_k, system = _equalizer_system(f.src, t)
    assert delta_k == f.src.delta @ k
    _, pivots = t.rref()
    t_p = Matrix.from_cols(fld, t.rows, [t.columns[p] for p in pivots])
    assert is_injective(t_p)
    assert (system.rows, system.cols) == (len(pivots) * n, k.cols)
    hat = kron(t_p, i_n) @ system
    assert hat == _hat_difference_oracle(f, g) @ k
    return hat, k


def test_hat_difference_dense_basis_matches_oracle():
    rng = rng_for("hat-dense")
    for field in FIELDS:
        for _ in range(4):
            n, nb = rng.randint(1, 4), rng.randint(1, 3)
            a = rebased(grouplike(field, n), random_basis(rng, field, n))
            b = rebased(grouplike(field, nb), random_basis(rng, field, nb))
            assert check_coalgebra(a).ok
            f = CoalgMap(a, b, rand_matrix(rng, field, nb, n))
            g = CoalgMap(a, b, rand_matrix(rng, field, nb, n))
            _assert_hat_difference_matches_oracle(f, g)


def test_hat_difference_pins_left_bracketing_on_a_non_coassociative_delta():
    """A sparse random δ (rand_raw_coalgebra) is not coassociative, so
    (δ⊗1)∘δ and (1⊗δ)∘δ differ; the columns must follow the first.  Sparse
    legs leave K' = ker T nonzero, where the two can be told apart."""
    rng = rng_for("hat-noncoassoc")
    for field in FIELDS:
        told = False
        for _ in range(8):
            n, nb = rng.randint(2, 3), rng.randint(1, 3)
            a, b = rand_raw_coalgebra(rng, field, n), grouplike(field, nb)
            fm = rand_sparse_matrix(rng, field, nb, n, 0.5)
            f = CoalgMap(a, b, fm)
            g = CoalgMap(a, b, fm + rand_sparse_matrix(rng, field, nb, n, 0.3))
            hat, k = _assert_hat_difference_matches_oracle(f, g)
            i_n = Matrix.identity(field, n)
            right = kron(kron(i_n, f.mat - g.mat), i_n) @ kron(i_n, a.delta) @ a.delta
            told = told or hat != right @ k
        assert told, "no sample told (δ⊗1)∘δ from (1⊗δ)∘δ"


def test_hat_difference_of_equal_maps_and_of_dimension_zero():
    rng = rng_for("hat-edge")
    for field in FIELDS:
        a = rebased(grouplike(field, 3), random_basis(rng, field, 3))
        f = CoalgMap(a, grouplike(field, 2), rand_matrix(rng, field, 2, 3))
        hat, k = _assert_hat_difference_matches_oracle(f, f)
        assert hat.columns == [{}, {}, {}] and k == Matrix.identity(field, 3)
        assert _equalizer_system(a, _t(f, f))[2].rows == 0
        zero = Coalgebra(0, field, delta=Matrix(field, [], 0, 0),
                         epsilon=Matrix(field, [[]], 1, 0))
        assert _equalizer_system(zero, _t(cid(zero), cid(zero)))[2].cols == 0
        into_zero = CoalgMap(a, zero, Matrix(field, [], 0, 3))
        assert _assert_hat_difference_matches_oracle(into_zero, into_zero)[0].columns == [{}, {}, {}]


def test_equalizer_inclusion_is_the_kernel_of_the_unreduced_oracle():
    """coalg_equalizer solves the reduced system; its inclusion must be the
    canonical kernel basis of the exact f_hat - g_hat, or its closure check
    fail as subcoalgebra fails on that kernel.  A = X ⊕ k[Y] in a random
    basis, the legs agreeing on the first point of Y (so the kernel is
    nonzero) and random on X, with X group-like or twisted (_rand_twisted:
    counital, and in general not coassociative)."""
    rng = rng_for("eq-reduced")
    built = 0
    for field in (QQ, GF(5), GF(7)):
        told = False
        for coassociative in (True, False, False, False):
            m, k, nb = rng.randint(2, 3), rng.randint(2, 4), rng.randint(1, 3)
            x = grouplike(field, m) if coassociative else _rand_twisted(rng, field, m)[0]
            a0 = direct_sum(x, grouplike(field, k))
            b = grouplike(field, nb)
            f0, g0 = rand_finfun(rng, k, nb), rand_finfun(rng, k, nb)
            g0 = FinFun(f0.dom, f0.cod, (f0.table[0],) + tuple(g0.table[1:]))
            pm = random_basis(rng, field, a0.dim)
            a = rebased(a0, pm)
            told = told or not check_coalgebra(a).ok
            f_cols = rand_matrix(rng, field, nb, m).columns + linearize_fun(f0, field).mat.columns
            f = CoalgMap(a, b, Matrix.from_cols(field, nb, f_cols) @ pm)
            g_cols = rand_matrix(rng, field, nb, m).columns + linearize_fun(g0, field).mat.columns
            g = CoalgMap(a, b, Matrix.from_cols(field, nb, g_cols) @ pm)
            e = kernel_basis_sparse(_hat_difference_oracle(f, g))
            eq = _outcome(coalg_equalizer, f, g)
            assert e.cols >= 1 and eq == _outcome(subcoalgebra, a, e)
            if not isinstance(eq, str):
                assert eq.j.mat == e
                built += 1
        assert told, "every δ drawn was coassociative"
    assert built


RESTRICTION_FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))


def _outcome(fn, *args):
    """fn(*args), or the message of the InternalSolveFailure it raises."""
    try:
        return fn(*args)
    except InternalSolveFailure as e:
        return str(e)


def _reference_equalizer(x, t):
    """The equalizer on K'∘N with N = ker S' always solved, as subcoalgebra
    gives it, or the message of the InternalSolveFailure it raises."""
    k, _, system = _equalizer_system(x, t)
    return _outcome(subcoalgebra, x, k @ kernel_basis_sparse(system))


def _restriction_matters(x, t, e):
    """Assert that the solve on t in x gives e, the canonical basis of E,
    as K'∘N; return whether dim K' > dim E."""
    k, _, system = _equalizer_system(x, t)
    assert k @ kernel_basis_sparse(system) == e
    return k.cols > e.cols


def test_equalizer_matches_the_oracle_where_the_restriction_matters():
    """On twisted group-like δ, counital and in general not coassociative
    (_rand_twisted), coalg_equalizer gives what subcoalgebra gives on the
    kernel of the exact f_hat - g_hat (the structure, or the same failure).
    Some samples must have K' larger than E, or the restriction to K' is
    not tested."""
    rng = rng_for("eq-restricted")
    seen = False
    for field in RESTRICTION_FIELDS:
        for _ in range(30):
            n, nb = rng.randint(2, 4), rng.randint(1, 2)
            a, b = _rand_twisted(rng, field, n)[0], grouplike(field, nb)
            fm = rand_sparse_matrix(rng, field, nb, n, 0.5)
            f = CoalgMap(a, b, fm)
            g = CoalgMap(a, b, fm + rand_sparse_matrix(rng, field, nb, n, 0.3))
            e = kernel_basis_sparse(_hat_difference_oracle(f, g))
            assert _outcome(coalg_equalizer, f, g) == _outcome(subcoalgebra, a, e)
            seen = _restriction_matters(a, _t(f, g), e) or seen
    assert seen


def _legs_on_tensor(f, g):
    """f⊗ε and ε⊗g on A⊗C."""
    a, c = f.src, g.src
    x = tensor_coalgebra(a, c)
    return CoalgMap(x, f.tgt, kron(f.mat, c.epsilon)), CoalgMap(x, g.tgt, kron(a.epsilon, g.mat))


def test_pullback_matches_the_oracle_where_the_restriction_matters():
    """The pullback of twisted group-like data, counital and in general not
    coassociative (_rand_twisted), has the equalizer of f⊗ε and ε⊗g that
    subcoalgebra gives on the oracle kernel, or fails as it fails, or, when
    that square does not commute, says so.  Some samples must have K'
    larger than E."""
    rng = rng_for("pb-restricted")
    seen = False
    for field in RESTRICTION_FIELDS:
        base = CoalgCategory(field)
        for _ in range(16):
            na, nc, nb = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
            (a, _), (c, _), b = _rand_twisted(rng, field, na), _rand_twisted(rng, field, nc), grouplike(field, nb)
            f = CoalgMap(a, b, rand_sparse_matrix(rng, field, nb, na, 0.5))
            g = CoalgMap(c, b, rand_sparse_matrix(rng, field, nb, nc, 0.5))
            fe, eg = _legs_on_tensor(f, g)
            e = kernel_basis_sparse(_hat_difference_oracle(fe, eg))
            want = _outcome(subcoalgebra, fe.src, e)
            if not isinstance(want, str) and fe.mat @ e != eg.mat @ e:
                want = "pullback square does not commute"
            got = _outcome(relative_pullback_coalg, base, f, g)
            assert (got if isinstance(got, str) else got.payload) == want
            seen = _restriction_matters(fe.src, _t(fe, eg), e) or seen
    assert seen


def test_pullback_builds_t_from_the_factors(monkeypatch):
    """The t that the pullback hands the solve, X_f⊗1 - 1⊗(c∘Y_g) built from
    the factors, is T = (1⊗(f⊗ε - ε⊗g))∘δ_{A⊗C} with its rows in A⊗B⊗C
    order (so rref(t) = rref(T)), on twisted group-like A and C, counital
    and in general neither coassociative nor cocommutative; a cospan that
    is group-like hands it none."""
    systems = []
    solve_in = coalg._equalizer
    monkeypatch.setattr(coalg, "_equalizer", lambda *a: systems.append(a) or solve_in(*a))
    rng = rng_for("pb-factors")
    for field in RESTRICTION_FIELDS:
        for _ in range(6):
            na, nc, nb = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            (a, _), (c, _), b = _rand_twisted(rng, field, na), _rand_twisted(rng, field, nc), grouplike(field, nb)
            f = CoalgMap(a, b, rand_sparse_matrix(rng, field, nb, na, 0.6))
            g = CoalgMap(c, b, rand_sparse_matrix(rng, field, nb, nc, 0.6))
            _outcome(relative_pullback_coalg, CoalgCategory(field), f, g)
            if not systems:
                assert f._pullback[1][0].index is not None  # read off its matching pairs
                continue
            x, t = systems.pop()
            fe, eg = _legs_on_tensor(f, g)
            big_t = kron_apply(Matrix.identity(field, x.dim), fe.mat - eg.mat, x.delta)
            assert t == kron(Matrix.identity(field, na), swap_map(field, nc, nb)) @ big_t
            assert t.rref() == big_t.rref()
            assert not systems


def _tensor_delta_oracle(a, b):
    """(1⊗c⊗1)∘(δ_A⊗δ_B) as one dense product."""
    fld = a.field
    mid = kron(kron(Matrix.identity(fld, a.dim), swap_map(fld, a.dim, b.dim)),
               Matrix.identity(fld, b.dim))
    return mid @ kron(a.delta, b.delta)


def test_tensor_delta_columns_match_the_dense_formula():
    """Each δ column of a tensor product, built on demand from the factors,
    is the column of (1⊗c⊗1)∘(δ_A⊗δ_B), on rebased, non-counital and
    nested factors; so are the full δ and ε built from them."""
    rng = rng_for("tensor-delta")
    for field in (QQ, GF(5), GF(7)):
        for _ in range(3):
            na, nb = rng.randint(1, 3), rng.randint(1, 3)
            a = rebased(grouplike(field, na), random_basis(rng, field, na))
            b = rand_raw_coalgebra(rng, field, nb)
            ab = Coalgebra(na * nb, field, delta=_tensor_delta_oracle(a, b),
                           epsilon=kron(a.epsilon, b.epsilon))
            for x, y, oracle_x in ((a, b, a), (b, a, b), (tensor_coalgebra(a, b), b, ab)):
                want = _tensor_delta_oracle(oracle_x, y)
                t = tensor_coalgebra(x, y)
                assert [t.delta_column(j) for j in range(t.dim)] == want.columns
                assert "delta" not in vars(t) and "epsilon" not in vars(t)
                assert t.delta == want
                assert t.epsilon == kron(oracle_x.epsilon, y.epsilon)


def test_tensor_delta_apply_matches_the_per_column_delta():
    """δ∘M of a tensor product whose δ is not built, computed as
    (1⊗c⊗1)∘(δ_A⊗δ_C)∘M, is x.delta @ M from the per-column δ, and builds
    no δ of its own: on rebased, non-counital and nested factors and with a
    factor of dimension 1, over columns of M with zero, one or several
    nonzeros, kernel vectors of A⊗C's δ among them."""
    rng = rng_for("tensor-delta-apply")
    for field in (QQ, GF(2), GF(5), GF(32003)):
        for _ in range(3):
            na, nc = rng.randint(2, 3), rng.randint(1, 3)
            a = rebased(grouplike(field, na), random_basis(rng, field, na))
            c = rand_raw_coalgebra(rng, field, nc)
            for x in (tensor_coalgebra(a, c), tensor_coalgebra(c, a), tensor_coalgebra(a, trivial(field)),
                      tensor_coalgebra(trivial(field), c), tensor_coalgebra(tensor_coalgebra(a, c), a),
                      tensor_coalgebra(c, tensor_coalgebra(a, a))):
                cols = rand_sparse_matrix(rng, field, x.dim, 5, 0.4).columns
                cols += [{rng.randrange(x.dim): field.one}, {}]
                cols += kernel_basis_sparse(Coalgebra(x.dim, field, factors=x._factors).delta).columns
                m = Matrix.from_cols(field, x.dim, cols)
                got = coalg._delta_apply(x, m)
                assert "delta" not in vars(x)
                assert got == x.delta @ m


def test_tensor_delta_apply_on_a_row_table_is_its_dict_path():
    """δ∘M of k[X]⊗k[Y], nested or not, on a row-table M equals δ∘M on a
    general copy of M bit for bit, and its row table, found on first use,
    is the index map of M's; M may have no column."""
    rng = rng_for("tensor-delta-apply-table")
    for field in (QQ, GF(2), GF(5)):
        k = partial(grouplike, field)
        for _ in range(4):
            n1, n2, n3 = (rng.randint(1, 3) for _ in range(3))
            for x in (tensor_coalgebra(k(n1), k(n2)), tensor_coalgebra(tensor_coalgebra(k(n1), k(n2)), k(n3)),
                      tensor_coalgebra(k(n1), tensor_coalgebra(k(n2), k(n3)))):
                for cols in (0, rng.randint(1, 6)):
                    m = linalg._unit_matrix(field, x.dim, [rng.randrange(x.dim) for _ in range(cols)])
                    got, want = coalg._delta_apply(x, m), coalg._delta_apply(x, general(m))
                    assert _bits(got) == _bits(want)
                    assert linalg._unit_rows(got) == [r * x.dim + r for r in m._units]
                    assert got == Coalgebra(x.dim, field, factors=x._factors).delta @ m


def _count_one(m):
    """Whether every row of m holds one nonzero or none."""
    return set(Counter(chain.from_iterable(m.columns)).values()) <= {1}


def _spy(monkeypatch, owner, name):
    """The calls to owner.<name> from here on, as (args, result)."""
    calls, fn = [], getattr(owner, name)

    def spy(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_counital_pullback_eliminates_t_once_and_reads_only_the_delta_it_uses(monkeypatch):
    """On counital input z = 1 a pullback takes one kernel, of t, eliminated
    unless every row of t holds one nonzero or none, and one closure check,
    on K' = ker t, which passes, so no kron_apply takes t and the second
    system is never built.  It builds no δ column of A⊗C, since δ∘K' is
    (1⊗c⊗1)∘(δ_A⊗δ_C)∘K', and never the ε of A⊗C, and its K' is that of
    the R∘z path with z the identity on the full system.  A linearized
    cospan builds no t at all and makes no closure check: it is k of its
    matching pairs, read off the tables (_grouplike_pullback), and
    its one kron_apply is the certificate's, on j.  Over F_p a K' without a
    row table has its closure decided in packed slots
    (linalg._closed_delta), with no δ∘K' built, and that decision is the
    dict path's; otherwise δ∘K' is built once and handed to the check.
    Twisted input whose check on K' fails takes the kernels of t and of the
    second system (t⊗1)∘δ∘K', the one kron_apply that takes t, each
    eliminated unless every row of it holds one nonzero or none: that
    kernel is read off its empty columns.  Input that is not counital is
    refused before any kernel, δ∘K' or check."""
    sub_in = coalg._subcoalgebra
    reduces = _spy(monkeypatch, linalg, "_reduce")
    kernels = _spy(monkeypatch, coalg, "kernel_basis_sparse")
    checks = _spy(monkeypatch, coalg, "_subcoalgebra")
    builds = _spy(monkeypatch, coalg, "_grouplike_pullback")
    packs = _spy(monkeypatch, coalg, "_closed_delta")
    deltas = _spy(monkeypatch, coalg, "_delta_apply")
    solves = _spy(monkeypatch, coalg, "_equalizer")
    krons = _spy(monkeypatch, coalg, "kron_apply")
    columns, column_in = [], Coalgebra.delta_column
    monkeypatch.setattr(Coalgebra, "delta_column",
                        lambda self, j: columns.append((self, j)) or column_in(self, j))

    def pullback(f, g):
        for calls in (reduces, kernels, checks, builds, packs, deltas, solves, krons, columns):
            calls.clear()
        _outcome(relative_pullback_coalg, CoalgCategory(f.mat.field), f, g)
        if not solves:
            return None
        (((x, t), _),) = solves
        return x, t

    rng = rng_for("pb-counital")
    routes, packed_routes = set(), set()
    for field in (QQ, GF(2), GF(5)):
        for dense in (False, True, True):
            f0 = rand_finfun(rng, rng.randint(1, 4), rng.randint(1, 3))
            g0 = rand_finfun(rng, rng.randint(1, 4), f0.cod.size)
            f, g = linearize_fun(f0, field), linearize_fun(g0, field)
            if dense:
                p_b = random_basis(rng, field, f.tgt.dim)
                f = rebased_map(f, random_basis(rng, field, f.src.dim), p_b)
                g = rebased_map(g, random_basis(rng, field, g.src.dim), p_b)
            system = pullback(f, g)
            if system is None:  # the matching pairs: no kernel, no δ∘K', no product but the certificate's
                (((_, _, x), (eq, _, _)),) = builds
                assert not dense and eq is not None and not (checks or kernels or reduces or packs or deltas)
                k, packed = eq.j.mat, False
                assert [args[2] for args, _ in krons] == [k]
            else:
                (((x, k, delta_k), eq),) = checks
                assert eq is not None and builds == [((f, g, x), None)]
                packed = coalg._packs_closure(x, k)
                packed_routes.add(packed)
                assert (delta_k is None) == packed and len(packs) == packed and len(deltas) == (not packed)
                assert dense and system[0] is x
                assert [args for args, _ in kernels] == [(system[1],)]
                assert not any(args[0] is system[1] for args, _ in krons)
                assert len(reduces) == (not _count_one(system[1]))
            routes.add(system is None)
            assert "delta" not in vars(x) and "epsilon" not in vars(x)
            assert not any(c is x for c, _ in columns)
            assert system is None or delta_k is None or delta_k == x.delta @ k
            if packed:
                want = sub_in(x, k, x.delta @ k)
                assert (eq.object.delta, eq.object.epsilon, eq.left_inv) == (
                    want.object.delta, want.object.epsilon, want.left_inv)
            fe, eg = _legs_on_tensor(f, g)
            full = kron_apply(Matrix.identity(field, x.dim), fe.mat - eg.mat, x.delta)
            assert k == _equalizer_system(x, full)[0]
    assert routes == {True, False} and packed_routes == {True, False}
    field, b = GF(5), grouplike(GF(5), 2)
    for _ in range(100):
        (a, _), (c, _) = _rand_twisted(rng, field, 3), _rand_twisted(rng, field, 3)
        system = pullback(CoalgMap(a, b, rand_matrix(rng, field, 2, 3)),
                          CoalgMap(c, b, rand_matrix(rng, field, 2, 3)))
        if system is not None and checks[0][1] is None:
            break
    else:
        pytest.fail("no check on K' failed")
    x, t = system
    assert len(kernels) == 2 and kernels[0][0][0] is t and len(checks) == 2
    assert len(reduces) == sum(not _count_one(system) for (system,), _ in kernels)
    assert sum(args[0] is t for args, _ in krons) == 1
    a, c = (rand_raw_coalgebra(rng, field, 2) for _ in "ac")
    f = CoalgMap(a, b, rand_matrix(rng, field, 2, 2))
    for calls in (reduces, kernels, checks, builds, packs, deltas, solves, krons):
        calls.clear()
    with pytest.raises(NotCounital):
        relative_pullback_coalg(CoalgCategory(field), f, CoalgMap(c, b, rand_matrix(rng, field, 2, 2)))
    assert not (reduces or kernels or checks or builds or packs or deltas or solves) and f._pullback is None


def test_equalizer_multiplies_by_n_only_when_the_second_system_has_rank(monkeypatch):
    """N = ker((R⊗1)∘δ∘K') is the identity exactly when that system has rank
    0, and then the equalizer is K' itself: a counital pullback hands the
    closure check K' and δ∘K' as the kernel of t gave them, or, on a
    linearized cospan, is k of its matching pairs as it reads them
    (_grouplike_pullback), and takes no other kernel, so it builds no
    second system; over F_p a K' without a row table is handed without
    δ∘K', whose closure is decided in packed slots (linalg._closed_delta),
    once.  Twisted data, counital and in general not coassociative, where
    the check on K' fails and the reference's N is not the identity, gets
    K'∘N and δ∘K'∘N, in a second check."""
    kernels = _spy(monkeypatch, coalg, "kernel_basis_sparse")
    checks = _spy(monkeypatch, coalg, "_subcoalgebra")
    builds = _spy(monkeypatch, coalg, "_grouplike_pullback")
    packs = _spy(monkeypatch, coalg, "_closed_delta")
    rng = rng_for("eq-skip-n")
    eliminated = packed = read = 0
    for field in FIELDS:
        f = linearize_fun(rand_finfun(rng, 4, 2), field)
        g = linearize_fun(rand_finfun(rng, 3, 2), field)
        for f, g in ((f, g), _counital_cospan(rng, field)):
            builds.clear()
            relative_pullback_coalg(CoalgCategory(field), f, g)
            if builds[0][1] is not None:
                (((_, _, x), (eq, _, _)),) = builds
                k_used = eq.j.mat
                assert not checks and not packs
                read += 1
            else:
                (((x, k_used, delta_k_used), _),) = checks
                if coalg._packs_closure(x, k_used):
                    assert delta_k_used is None and [args[2] for args, _ in packs] == [k_used]
                    packed += 1
                else:
                    assert delta_k_used == x.delta @ k_used and not packs
            # K' is the kernel of the full system, as its elimination or the pairs give it
            fe, eg = _legs_on_tensor(f, g)
            full = kron_apply(Matrix.identity(field, x.dim), fe.mat - eg.mat, x.delta)
            assert k_used == kernel_basis_sparse(full)
            assert len(kernels) <= 1 and all(k is k_used for _, k in kernels)
            eliminated += len(kernels)
            kernels.clear()
            checks.clear()
            packs.clear()
    assert eliminated and packed and read
    multiplied = 0
    for field in RESTRICTION_FIELDS:
        for _ in range(30):
            n, nb = rng.randint(2, 4), rng.randint(1, 2)
            a, b = _rand_twisted(rng, field, n)[0], grouplike(field, nb)
            fm = rand_sparse_matrix(rng, field, nb, n, 0.5)
            f, g = CoalgMap(a, b, fm), CoalgMap(a, b, fm + rand_sparse_matrix(rng, field, nb, n, 0.3))
            checks.clear()
            _outcome(coalg_equalizer, f, g)
            k, delta_k, system = _equalizer_system(a, _t(f, g))
            (first, passed), ((_, k_used, delta_k_used), _) = checks[0], checks[-1]
            assert first[1:] == (k, delta_k) and len(checks) == 1 + (passed is None)
            if not any(system.columns):
                assert k_used == k and delta_k_used == delta_k
            else:
                multiplied += 1
                n_basis = kernel_basis_sparse(system)
                assert k_used == k @ n_basis and delta_k_used == delta_k @ n_basis
    assert multiplied


FALLBACK_FIELDS = (GF(5), GF(7), QQ)


def _twisted_grouplike(field, n, j, u, w):
    """k[n] with (u⊗w)·e_jᵀ added to its δ, for integer coordinate lists u
    and w: counital when each sums to 0, ε(u) = ε(w) = 0, and in general not
    coassociative."""
    cols = [{x * n + x: field.one} for x in range(n)]
    for a in range(n):
        for b in range(n):
            v = field.of(cols[j].pop(a * n + b, 0) + u[a] * w[b])
            if v != field.zero:
                cols[j][a * n + b] = v
    return Coalgebra(n, field, delta=Matrix.from_cols(field, n * n, cols),
                     epsilon=grouplike(field, n).epsilon)


def _rand_twisted(rng, field, n):
    """_twisted_grouplike at a random column with random u and w of sum 0."""
    u, w = ([*v, -sum(v)] for v in ([rng.randint(-2, 2) for _ in range(n - 1)] for _ in "uw"))
    x = _twisted_grouplike(field, n, rng.randrange(n), u, w)
    rep = check_coalgebra(x)
    assert [c.ok for c in rep.checks[1:]] == [True, True]
    return x, rep.ok


def test_counital_equalizer_falls_back_to_the_second_system_as_the_reference_does(monkeypatch):
    """On counital coalgebras that are not coassociative, coalg_equalizer
    gives what the reference gives, which always solves the second system:
    on K' when the closure check passes, else on K'∘N with one more check.
    Both branches must be seen; on a coalgebra that is not a tensor product
    no check is packed."""
    checks = _spy(monkeypatch, coalg, "_subcoalgebra")
    packs = _spy(monkeypatch, coalg, "_closed_delta")
    rng = rng_for("eq-fallback")
    seen, coassociative = set(), set()
    for field in FALLBACK_FIELDS:
        for _ in range(60):
            x, ok = _rand_twisted(rng, field, rng.randint(2, 4))
            coassociative.add(ok)
            nb = rng.randint(1, 3)
            b = grouplike(field, nb)
            fm = rand_sparse_matrix(rng, field, nb, x.dim, 0.5)
            f, g = CoalgMap(x, b, fm), CoalgMap(x, b, fm + rand_sparse_matrix(rng, field, nb, x.dim, 0.3))
            checks.clear()
            got = _outcome(coalg_equalizer, f, g)
            passed = checks[0][1] is not None
            seen.add(passed)
            assert len(checks) == (1 if passed else 2)
            assert got == _reference_equalizer(x, _t(f, g))
    assert seen == {True, False} and coassociative == {True, False} and not packs


def test_counital_pullback_falls_back_to_the_second_system_as_the_reference_does(monkeypatch):
    """The same on pullbacks of such coalgebras: the payload is the
    reference's equalizer of f⊗ε and ε⊗g, or the same failure.  Over F_p
    the check on K' is decided in packed slots (linalg._closed_delta) when
    K' has no row table, and δ∘K' is built only when it fails, for the
    second system; a failure must be seen on that route."""
    checks = _spy(monkeypatch, coalg, "_subcoalgebra")
    packs = _spy(monkeypatch, coalg, "_closed_delta")
    deltas = _spy(monkeypatch, coalg, "_delta_apply")
    rng = rng_for("pb-fallback")
    seen, packed_seen = set(), set()
    for field in FALLBACK_FIELDS:
        base = CoalgCategory(field)
        for _ in range(20):
            (a, _), (c, _) = (_rand_twisted(rng, field, rng.randint(2, 3)) for _ in "ac")
            nb = rng.randint(1, 2)
            b = grouplike(field, nb)
            f = CoalgMap(a, b, rand_sparse_matrix(rng, field, nb, a.dim, 0.5))
            g = CoalgMap(c, b, rand_sparse_matrix(rng, field, nb, c.dim, 0.5))
            for calls in (checks, packs, deltas):
                calls.clear()
            got = _outcome(relative_pullback_coalg, base, f, g)
            (x, k, delta_k), passed = checks[0][0], checks[0][1] is not None
            seen.add(passed)
            if coalg._packs_closure(x, k):
                packed_seen.add(passed)
                assert delta_k is None and len(packs) == 1
                assert [args[1] for args, _ in deltas] == ([] if passed else [k])
            else:
                assert not packs and delta_k is not None
            fe, eg = _legs_on_tensor(f, g)
            want = _reference_equalizer(fe.src, _t(fe, eg))
            if not isinstance(want, str) and fe.mat @ want.j.mat != eg.mat @ want.j.mat:
                want = "pullback square does not commute"
            assert (got if isinstance(got, str) else got.payload) == want
    assert seen == {True, False} and False in packed_seen


def _unclosed_cospan(field):
    """f' = ε + e1* + e3* out of _twisted_grouplike(k[4], 2, e2 − e0,
    e1 − e3) into k, and the identity of k: counital, f' vanishes on both
    twist vectors, so the legs are in S, and the closure check fails on
    K' = span(e0, e2) and again on K'∘N = K' (the test below)."""
    x, one = _twisted_grouplike(field, 4, 2, [-1, 0, 1, 0], [0, 1, 0, -1]), trivial(field)
    return CoalgMap(x, one, Matrix.from_cols(field, 1, [{0: c} for c in map(field.of, (1, 2, 1, 2))])), cid(one)


def test_counital_equalizer_fails_as_the_reference_does_when_n_is_one(monkeypatch):
    """k[4] with (e2 − e0)⊗(e1 − e3) added to δ(e2), and f − g = e1* + e3*
    into k: K' = span(e0, e2) has δ(K') ⊆ K'⊗X, so (R⊗1)∘δ∘K' = 0 and
    N = 1, but δ(e2) is not in K'⊗K'.  The closure check fails twice, on K'
    and on K'∘N = K', and the equalizer raises what the reference raises; so
    does the pullback of f' = ε + e1* + e3* against the identity of k, whose
    t is the same."""
    checks = _spy(monkeypatch, coalg, "_subcoalgebra")
    for field in FALLBACK_FIELDS:
        x = _twisted_grouplike(field, 4, 2, [-1, 0, 1, 0], [0, 1, 0, -1])
        one = trivial(field)
        f = CoalgMap(x, one, Matrix(field, [[0, 1, 0, 1]], 1, 4))
        g = CoalgMap(x, one, Matrix(field, [[0, 0, 0, 0]], 1, 4))
        t = _t(f, g)
        k, _, system = _equalizer_system(x, t)
        assert k == Matrix.from_cols(field, 4, [{0: field.one}, {2: field.one}])
        assert not any(system.columns)
        failure = "δ∘j does not factor through j⊗j"
        checks.clear()
        assert _outcome(coalg_equalizer, f, g) == failure
        assert [eq for _, eq in checks] == [None, None]
        assert _reference_equalizer(x, t) == failure
        checks.clear()
        assert _outcome(relative_pullback_coalg, CoalgCategory(field), *_unclosed_cospan(field)) == failure
        assert [eq for _, eq in checks] == [None, None]


# -- relative pullbacks -------------------------------------------------------------


def test_pullback_identity_leg_gives_iso_projection():
    rng = rng_for("pb-idleg")
    for field in FIELDS:
        g = linearize_fun(rand_finfun(rng, 3, 2), field)
        pb = relative_pullback_coalg(CoalgCategory(field), cid(g.tgt), g)
        assert pb.apex.dim == g.src.dim
        # p_C is invertible: jointly with the universal property this is the
        # unit isomorphism; verify two-sided linear invertibility here
        from relspan.linalg import solve

        inv = solve(pb.p_c.mat, Matrix.identity(field, g.src.dim))
        assert inv is not None
        assert pb.p_c.mat @ inv == Matrix.identity(field, g.src.dim)
        assert inv @ pb.p_c.mat == Matrix.identity(field, pb.apex.dim)


def test_pullback_grouplike_matches_finset_oracle():
    rng = rng_for("pb-gl")
    for field in FIELDS:
        for _ in range(10):
            f0 = rand_finfun(rng, rng.randint(1, 4), rng.randint(1, 3))
            g0 = rand_finfun(rng, rng.randint(1, 4), f0.cod.size)
            fpb = pullback(f0, g0)
            f = linearize_fun(f0, field)
            g = linearize_fun(g0, field)
            pb = relative_pullback_coalg(CoalgCategory(field), f, g)
            assert pb.apex.dim == fpb.apex.size
            # the apex is spanned by group-likes at the matching pairs, in order
            nc = g0.dom.size
            for k, (a, c) in enumerate(fpb.payload):
                assert pb.payload.j.mat.columns[k] == {a * nc + c: field.one}
            assert pb.p_a.mat == linearize_fun(fpb.p_a, field).mat
            assert pb.p_c.mat == linearize_fun(fpb.p_c, field).mat
            assert legs_in_class(CoalgCategory(field), f, g)
            assert pb.jointly_monic
            assert check_coalgebra(pb.apex).ok
            assert check_coalg_map(pb.p_a).ok and check_coalg_map(pb.p_c).ok


def test_grouplike_pullback_agrees_over_q_and_f5():
    """𝔽_5 against ℚ: one group-like cospan gives the same apex dimension and
    the same matching-pair basis of the inclusion, in the same order."""
    rng = rng_for("pb-q-vs-f5")
    for _ in range(12):
        f0 = rand_finfun(rng, rng.randint(1, 5), rng.randint(1, 3))
        g0 = rand_finfun(rng, rng.randint(1, 5), f0.cod.size)
        nc = g0.dom.size
        pairs = [(a, c) for a in range(f0.dom.size) for c in range(nc) if f0(a) == g0(c)]
        pbs = [
            relative_pullback(CoalgCategory(field), linearize_fun(f0, field), linearize_fun(g0, field))
            for field in (QQ, GF(5))
        ]
        assert pbs[0].apex.dim == pbs[1].apex.dim == len(pairs)
        for pb in pbs:
            j = pb.payload.j.mat
            assert [j.columns[k] for k in range(j.cols)] == [{a * nc + c: 1} for a, c in pairs]


def test_pullback_over_trivial_base_is_full_tensor():
    for field in FIELDS:
        a = primitive_block(field)
        c = grouplike(field, 2)
        t = trivial(field)
        f = CoalgMap(a, t, a.epsilon)
        g = CoalgMap(c, t, c.epsilon)
        pb = relative_pullback_coalg(CoalgCategory(field), f, g)
        assert pb.apex.dim == a.dim * c.dim
        assert check_coalgebra(pb.apex).ok


def test_dense_pullback_of_dimension_64_stays_fast():
    """A scale guard: |A| = |C| = 8 with fibers of 2 over |B| = 4, rebased
    over F_32003 so every δ is dense, gives a dim-64 A⊗C.  The pullback is
    exact, so its apex has one dimension per matching pair, 16, and it must
    take under 2 s of process CPU time; check_coalgebra on the apex, whose
    coassociativity products are dense⊗identity, under 0.15 s."""
    rng = rng_for("dense-pullback-64")
    field = GF(32003)
    tables = [rng.sample([b for b in range(4) for _ in range(2)], 8) for _ in range(2)]
    p_b = random_basis(rng, field, 4)
    f, g = (rebased_map(linearize_fun(FinFun(FinSetObj(8), FinSetObj(4), t), field),
                        random_basis(rng, field, 8), p_b) for t in tables)
    start = time.process_time()
    pb = relative_pullback(CoalgCategory(field), f, g)
    assert time.process_time() - start < 2.0
    assert pb.apex.dim == sum(tables[0].count(b) * tables[1].count(b) for b in range(4)) == 16
    assert pb.jointly_monic
    start = time.process_time()
    assert check_coalgebra(pb.apex).ok
    assert time.process_time() - start < 0.15


def test_pullback_span_in_class_and_square():
    rng = rng_for("pb-class")
    for field in FIELDS:
        f0 = rand_finfun(rng, 3, 2)
        g0 = rand_finfun(rng, 4, 2)
        pb = relative_pullback_coalg(CoalgCategory(field), linearize_fun(f0, field), linearize_fun(g0, field))
        assert pb.f.mat @ pb.p_a.mat == pb.g.mat @ pb.p_c.mat
        assert class_S_witness(pb.p_a, pb.p_c) is None


def test_pullback_fillers_are_coalgebra_maps():
    rng = rng_for("pb-filler-maps")
    for field in FIELDS:
        f0 = rand_finfun(rng, 3, 2)
        g0 = rand_finfun(rng, 4, 2)
        pb = relative_pullback_coalg(CoalgCategory(field), linearize_fun(f0, field), linearize_fun(g0, field))
        if pb.apex.dim == 0:
            continue
        # a filler from a group-like test span is itself a coalgebra map
        d = grouplike(field, 2)
        k_mat = Matrix.from_cols(field, pb.apex.dim, [{rng.randrange(pb.apex.dim): field.one} for _ in range(2)])
        k = CoalgMap(d, pb.apex, k_mat)
        h = pullback_factor_coalg(
            pb,
            CoalgMap(d, pb.f.src, pb.p_a.mat @ k_mat),
            CoalgMap(d, pb.g.src, pb.p_c.mat @ k_mat),
        )
        assert check_coalg_map(h).ok
        assert h.mat == k_mat  # unique through j


def test_category_equalizer_capability():
    field = QQ
    f = linearize_fun(FinFun(FinSetObj(3), FinSetObj(2), (0, 1, 0)), field)
    g = CoalgMap(
        f.src, f.tgt, linearize_fun(FinFun(FinSetObj(3), FinSetObj(2), (0, 1, 1)), field).mat
    )
    eq = coalg_equalizer(f, g)
    assert eq.object.dim == 2


def test_equalizer_factor_rejects_a_foreign_or_non_equalizing_map():
    two = FinSetObj(2)
    for field in FIELDS:
        f = linearize_fun(FINSET.identity(two), field)
        g = CoalgMap(f.src, f.tgt, linearize_fun(FinFun(two, two, (0, 0)), field).mat)
        eq = coalg_equalizer(f, g)  # spanned by e_0
        with pytest.raises(ShapeMismatch, match="ambient"):
            equalizer_factor(eq, cid(grouplike(field, 3)))
        e_1 = CoalgMap(trivial(field), f.src, Matrix.from_cols(field, 2, [{1: field.one}]))
        with pytest.raises(SquareDoesNotCommute, match="does not factor"):
            equalizer_factor(eq, e_1)


def test_invert_returns_none_unless_the_map_is_bijective():
    two = FinSetObj(2)
    for field in FIELDS:
        base = CoalgCategory(field)
        assert base.invert(linearize_fun(FinFun(FinSetObj(3), two, (0, 1, 1)), field)) is None
        assert base.invert(linearize_fun(FinFun(two, two, (0, 0)), field)) is None
        swap = linearize_fun(FinFun(two, two, (1, 0)), field)
        assert base.invert(swap).mat == swap.mat


def test_pullback_factor_identity_and_point():
    rng = rng_for("pb-factor")
    for field in FIELDS:
        f0 = rand_finfun(rng, 3, 2)
        g0 = rand_finfun(rng, 3, 2)
        fpb = pullback(f0, g0)
        if fpb.apex.size == 0:
            f0 = rand_finfun(rng, 3, 1)
            g0 = rand_finfun(rng, 3, 1)
            fpb = pullback(f0, g0)
        pb = relative_pullback_coalg(CoalgCategory(field), linearize_fun(f0, field), linearize_fun(g0, field))
        h = pullback_factor_coalg(pb, pb.p_a, pb.p_c)
        assert h.mat == Matrix.identity(field, pb.apex.dim)
        a, c = fpb.payload[0]
        point = trivial(field)
        k = CoalgMap(point, pb.f.src, Matrix.from_cols(field, f0.dom.size, [{a: field.one}]))
        l = CoalgMap(point, pb.g.src, Matrix.from_cols(field, g0.dom.size, [{c: field.one}]))
        h2 = pullback_factor_coalg(pb, k, l)
        assert h2.mat.columns[0] == {fpb.payload.index((a, c)): field.one}
        # uniqueness: a perturbed filler breaks a projection equation or stops
        # being induced by the span (the joint-mono certificate is j-level)
        from relspan.linalg import kron_apply

        pair_map = pb.payload.j.mat @ h2.mat
        for idx in range(pb.apex.dim):
            rows = dense(h2.mat)
            rows[idx][0] += field.one
            pert = Matrix(field, rows, h2.mat.rows, h2.mat.cols)
            assert (
                pb.p_a.mat @ pert != k.mat
                or pb.p_c.mat @ pert != l.mat
                or pb.payload.j.mat @ pert != pair_map
            )


def test_pullback_factor_rejections():
    field = QQ
    f0 = FINSET.identity(FinSetObj(2))
    f = linearize_fun(f0, field)
    pb = relative_pullback_coalg(CoalgCategory(field), f, f)
    # non-commuting square
    two = grouplike(field, 2)
    k = CoalgMap(two, two, Matrix.identity(field, 2))
    swapm = mat(field, [[0, 1], [1, 0]])
    l = CoalgMap(two, two, swapm)
    with pytest.raises(SquareDoesNotCommute):
        pullback_factor_coalg(pb, k, l)
    # the identity span on the path coalgebra is not in S; the generic layer
    # decides class membership of the test span
    p = path_coalgebra(field)
    base = CoalgCategory(field)
    pbp = base.pullback(cid(p), cid(p))
    with pytest.raises(SpanNotInClass):
        universal_factor(pbp, cid(p), cid(p))


# -- cotensor ------------------------------------------------------------------------


def test_cotensor_over_trivial_base_is_everything():
    for field in FIELDS:
        a = primitive_block(field)
        c = primitive_block(field)
        t = trivial(field)
        ct = cotensor(CoalgMap(a, t, a.epsilon), CoalgMap(c, t, c.epsilon))
        assert ct == Matrix.identity(field, 4)


def test_cotensor_grouplike_dim_matches_pullback_count():
    rng = rng_for("cot-gl")
    for field in FIELDS:
        for _ in range(10):
            f0 = rand_finfun(rng, rng.randint(1, 4), rng.randint(1, 3))
            g0 = rand_finfun(rng, rng.randint(1, 4), f0.cod.size)
            ct = cotensor(linearize_fun(f0, field), linearize_fun(g0, field))
            assert ct.cols == pullback(f0, g0).apex.size


def test_cotensor_pullback_comparison_iso():
    rng = rng_for("cot-cmp")
    for field in FIELDS:
        for _ in range(10):
            f0 = rand_finfun(rng, rng.randint(1, 4), rng.randint(1, 3))
            g0 = rand_finfun(rng, rng.randint(1, 4), f0.cod.size)
            rep = compare_cotensor_pullback(
                linearize_fun(f0, field), linearize_fun(g0, field)
            )
            assert rep.ok, [c.name for c in rep.failures()]


def test_cotensor_carries_structure_when_legs_in_s():
    field = GF(5)
    a = primitive_block(field)
    t = trivial(field)
    f = CoalgMap(a, t, a.epsilon)
    sub = subcoalgebra(tensor_coalgebra(a, a), cotensor(f, f))
    assert check_coalgebra(sub.object).ok
    assert check_coalg_map(sub.j).ok


def test_mismatched_cospan_codomains_raise_one_error_class():
    f, g = cid(path_coalgebra(QQ)), cid(primitive_block(QQ))
    for build in (lambda: relative_pullback(CoalgCategory(QQ), f, g),
                  lambda: cotensor(f, g),
                  lambda: compare_cotensor_pullback(f, g)):
        with pytest.raises(CodomainMismatch):
            build()


def test_compare_cotensor_pullback_decides_the_legs():
    p = path_coalgebra(QQ)
    with pytest.raises(LegsNotInClass):
        compare_cotensor_pullback(cid(p), cid(p))
    with pytest.raises(CodomainMismatch):
        compare_cotensor_pullback(cid(p), cid(primitive_block(QQ)))


# -- derived matrices read off the certified equalizer ---------------------------------


def _cocommutative_raw(rng, field, n):
    """A sparse random δ made cocommutative, δ + c∘δ, and a random ε: in
    general neither counital nor coassociative, and every span out of it
    is in S."""
    d = rand_sparse_matrix(rng, field, n * n, n, 0.25)
    return Coalgebra(n, field, delta=d + swap_map(field, n, n) @ d,
                     epsilon=rand_sparse_matrix(rng, field, 1, n, 0.6))


def _raw_cospan(rng, field, make):
    """Random sparse legs A -> B <- C, A and C drawn by make, B raw."""
    na, nc, nb = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
    a, c, b = make(rng, field, na), make(rng, field, nc), rand_raw_coalgebra(rng, field, nb)
    return (CoalgMap(a, b, rand_sparse_matrix(rng, field, nb, na, 0.5)),
            CoalgMap(c, b, rand_sparse_matrix(rng, field, nb, nc, 0.5)))


def _twisted(rng, field, n):
    """_rand_twisted's coalgebra: counital, and in general neither
    coassociative nor cocommutative."""
    return _rand_twisted(rng, field, n)[0]


def _symmetric_twisted(rng, field, n):
    """_rand_twisted with c∘(u⊗w) added too: counital, cocommutative, and in
    general not coassociative."""
    x, _ = _rand_twisted(rng, field, n)
    d = x.delta + swap_map(field, n, n) @ x.delta - grouplike(field, n).delta
    return Coalgebra(n, field, delta=d, epsilon=x.epsilon)


def _counital_cospan(rng, field):
    """Linearized random functions in random bases of their three sets."""
    f0 = rand_finfun(rng, rng.randint(1, 3), rng.randint(1, 2))
    g0 = rand_finfun(rng, rng.randint(1, 3), f0.cod.size)
    p_b = random_basis(rng, field, f0.cod.size)
    return (rebased_map(linearize_fun(f0, field), random_basis(rng, field, f0.dom.size), p_b),
            rebased_map(linearize_fun(g0, field), random_basis(rng, field, g0.dom.size), p_b))


def _largest_closure_prime(n):
    """The largest prime p with n²·(p-1)³ < p·h, h = 2^(63 - bit length of
    p): the widest field whose closure checks on an n-dimensional tensor
    product are packed."""
    for bits in range(24, 1, -1):
        h = 1 << 63 - bits
        p = min(2**bits - 1, round((2**bits * h / (n * n)) ** (1 / 3)) + 2)
        while p >= 2 ** (bits - 1) and not (n * n * (p - 1) ** 3 < p * h and _is_prime(p)):
            p -= 1
        if p >= 2 ** (bits - 1):
            return p


def _next_prime(p):
    p += 1
    while not _is_prime(p):
        p += 1
    return p


def _closure_both_ways(x, k):
    """Whether k is closed in x, decided in packed slots and on the dict
    path, which must agree, with δ_E, ε_E and L equal bit for bit."""
    assert coalg._packs_closure(x, k)
    packed = coalg._subcoalgebra(x, k, None)
    plain = coalg._subcoalgebra(x, k, coalg._delta_apply(x, k))
    assert (packed is None) == (plain is None)
    if plain is not None:
        for got, want in ((packed.object.delta, plain.object.delta), (packed.object.epsilon, plain.object.epsilon),
                          (packed.left_inv, plain.left_inv), (packed.j.mat, plain.j.mat)):
            assert (got.rows, got.cols, got.columns) == (want.rows, want.cols, want.columns)
    return plain is not None


def _planted_basis(rng, field, k):
    """k with one entry changed at a coordinate below its column's free one
    and free in no column, so it stays a canonical basis; None when there
    is no such coordinate."""
    free = [max(col) for col in k.columns]
    spots = [(t, s) for t, u in enumerate(free) for s in range(u) if s not in free]
    if not spots:
        return None
    (t, s), cols = rng.choice(spots), [dict(col) for col in k.columns]
    old, v = cols[t].pop(s, 0), None
    while v in (None, old):
        v = rng.randrange(field.p)
    if v:
        cols[t][s] = v
    return general(Matrix.from_cols(field, k.rows, cols))


@pytest.mark.parametrize("na, nc, nb", [(2, 3, 2), (3, 2, 1), (4, 2, 2)])
def test_packed_closure_check_is_the_dict_path(monkeypatch, na, nc, nb):
    """Over F_2, F_5, F_32003 and the largest prime whose closure checks on
    A⊗C the packed path admits, the check in packed slots
    (linalg._closed_delta) gives the dict path's verdict and, when it
    passes, its δ_E, ε_E and L bit for bit: on K' of dense cospans (linear
    cospans of finite sets in random bases, dim A ≠ dim C), on random
    canonical bases, which are in general not closed, and on K' with one
    entry planted wrong, in K' or in δ_A.  Both verdicts are seen in each
    field.  subcoalgebra takes the packed path in the largest of those
    fields and the dict path in the next, whose sums could overflow."""
    packs = _spy(monkeypatch, coalg, "_closed_delta")
    n = na * nc
    edge = _largest_closure_prime(n)
    past = _next_prime(edge)
    assert linalg._fits_closure(GF(edge), n) and not linalg._fits_closure(GF(past), n)
    rng = rng_for(f"packed-closure-{na}-{nc}")
    for field in (GF(2), GF(5), GF(32003), GF(edge), GF(past)):
        verdicts = set()
        for _ in range(3):
            f0, g0 = rand_finfun(rng, na, nb), rand_finfun(rng, nc, nb)
            p_b = random_basis(rng, field, nb)
            f = rebased_map(linearize_fun(f0, field), random_basis(rng, field, na), p_b)
            g = rebased_map(linearize_fun(g0, field), random_basis(rng, field, nc), p_b)
            x = tensor_coalgebra(f.src, g.src)
            k = general(kernel_basis_sparse(_t(*_legs_on_tensor(f, g))))
            if field is GF(past):
                packs.clear()
                assert not coalg._packs_closure(x, k)
                assert _outcome(subcoalgebra, x, k) == coalg._subcoalgebra(x, k, coalg._delta_apply(x, k))
                assert not packs
                continue
            bases = [k, _planted_basis(rng, field, k)]
            bases += [general(kernel_basis_sparse(rand_matrix(rng, field, rng.randint(1, n - 1), n)))
                      for _ in range(2)]
            for basis in bases:
                if basis is not None and basis.cols:
                    verdicts.add(_closure_both_ways(x, basis))
            assert _closure_both_ways(x, k)
            bent = Coalgebra(na, field, delta=mutate_one_entry(rng, field, f.src.delta), epsilon=f.src.epsilon)
            verdicts.add(_closure_both_ways(tensor_coalgebra(bent, g.src), k))
            packs.clear()
            assert _outcome(subcoalgebra, x, k) == coalg._subcoalgebra(x, k, coalg._delta_apply(x, k))
            assert len(packs) == 1
        assert field is GF(past) or verdicts == {True, False}


def test_a_row_table_closure_check_is_not_packed():
    """Over F_5, on a tensor product within the slot bound, a K' with a row
    table is closure-checked as a compare of tables, not in packed slots,
    and a dense K' of the same shape is packed.  Packing the row tables of
    group-like data gives the same verdicts, so only this pins the clause."""
    field = GF(5)
    x = tensor_coalgebra(grouplike(field, 2), path_coalgebra(field))
    assert linalg._fits_closure(field, x.dim)
    assert not coalg._packs_closure(x, Matrix.identity(field, x.dim))
    dense = Matrix.from_cols(field, x.dim, [{r: field.one for r in range(x.dim)}] * x.dim)
    assert coalg._packs_closure(x, dense)


def test_subcoalgebra_delta_is_l_tensor_l_of_delta_k(monkeypatch):
    """δ_E, the rows of δ∘K at pairs of K's free coordinates, is (L⊗L)∘δ∘K
    as one kron_apply gives it, L = kernel_left_inverse(K), whether the
    closure check passes or not: on subcoalgebra of random subspaces, on
    the tensor coalgebras of counital pullbacks, the matching pairs of
    group-like ones (no pairs, a point and a 2×2 rectangle among them) and
    on the second system's K'·N of twisted ones, which are not
    coassociative.  The equalizer is
    the one general copies of K and δ∘K give, bit for bit; so is the one
    decided in packed slots, with δ∘K not handed over."""
    sub_in, kron_in, solve_in = coalg._subcoalgebra, coalg.kron_apply, coalg._equalizer
    closures, kprime, seen = {}, [None], set()

    def kron_spy(a, b, m):
        if a is b:
            closures[id(a)] = m, isinstance(m._units, list)
        return kron_in(a, b, m)

    def solve_spy(x, t):
        kprime[0] = kernel_basis_sparse(t).cols
        return solve_in(x, t)

    def sub_spy(x, k, delta_k):
        closures.clear()
        eq = sub_in(x, k, delta_k)
        lk = kernel_left_inverse(k)
        if delta_k is None:
            assert coalg._packs_closure(x, k) and not closures
            delta_k = coalg._delta_apply(x, k)
            delta_e = kron_in(lk, lk, delta_k)
            seen.add(("packed", eq is not None))
        else:
            delta_e = closures[id(k)][0]  # the closure check (K⊗K)∘δ_E
        assert delta_e == kron_in(lk, lk, delta_k)
        assert eq is None or eq.object.delta == delta_e
        seen.add(("tensor" if x._factors else "plain", eq is not None))
        gk = general(k)
        want = sub_in(x, gk, general(delta_k))
        assert closures[id(gk)][1] is False
        assert (eq is None) == (want is None)
        if eq is not None:
            for got, oracle in ((eq.object.delta, want.object.delta), (eq.object.epsilon, want.object.epsilon),
                                (eq.left_inv, want.left_inv), (eq.j.mat, want.j.mat)):
                assert got.columns == oracle.columns and got.rows == oracle.rows
        if kprime[0] is not None and k.cols < kprime[0]:
            seen.add("K'N")
        return eq

    monkeypatch.setattr(coalg, "kron_apply", kron_spy)
    monkeypatch.setattr(coalg, "_equalizer", solve_spy)
    monkeypatch.setattr(coalg, "_subcoalgebra", sub_spy)
    rng = rng_for("delta-e-selected")
    for field in RESTRICTION_FIELDS:
        base = CoalgCategory(field)
        for _ in range(6):
            x = rand_raw_coalgebra(rng, field, rng.randint(1, 4))
            k = kernel_basis_sparse(rand_sparse_matrix(rng, field, rng.randint(1, 3), x.dim, 0.5))
            kprime[0] = None
            _outcome(subcoalgebra, x, k)
            x = rebased(grouplike(field, 3), random_basis(rng, field, 3))
            _outcome(subcoalgebra, x, kernel_basis_sparse(rand_matrix(rng, field, 1, 3)))
        for _ in range(8):
            f0 = rand_finfun(rng, rng.randint(1, 3), rng.randint(1, 2))
            g0 = rand_finfun(rng, rng.randint(1, 3), f0.cod.size)
            cospans = [_raw_cospan(rng, field, make) for make in (_twisted, _symmetric_twisted)]
            cospans += [_counital_cospan(rng, field), (linearize_fun(f0, field), linearize_fun(g0, field))]
            for f, g in cospans:
                kprime[0] = None
                _outcome(relative_pullback_coalg, base, f, g)
        # a row table of δ off the diagonal, e_0 ↦ e_0⊗e_1 and e_1 ↦ e_1⊗e_0, on the whole space
        swap = Coalgebra(2, field, delta=linalg._unit_matrix(field, 4, [1, 2]),
                         epsilon=linalg._unit_matrix(field, 1, [0, 0]))
        assert linalg._unit_rows(subcoalgebra(swap, Matrix.identity(field, 2)).object.delta) == [1, 2]
        # matching pairs: none, a point and a 2×2 rectangle
        for fa, gc, nb in (([0], [1], 2), ([0], [0], 1), ([0, 0], [0, 0], 1)):
            f, g = (linearize_fun(FinFun(FinSetObj(len(t)), FinSetObj(nb), t), field) for t in (fa, gc))
            assert relative_pullback_coalg(base, f, g).apex.dim == len(fa) * len(gc) * (nb == 1)
    assert seen >= {("plain", True), ("plain", False), ("tensor", True), ("tensor", False), "K'N",
                    ("packed", True)}


def test_joint_mono_certificate_is_the_product_it_replaces():
    """pb.jointly_monic, read off z_A⊗l_C, is (p_A⊗p_C)∘δ_E = j, on
    counital cospans, dense and twisted, where both hold.  Raw cospans,
    where they could fail, are refused unless check_coalgebra passes both
    counit laws of A and C, and a refusal keeps nothing."""
    rng = rng_for("cert-oracle")
    verdicts = Counter()
    for field in RESTRICTION_FIELDS:
        base = CoalgCategory(field)
        for _ in range(10):
            for f, g in (_counital_cospan(rng, field), _raw_cospan(rng, field, _twisted),
                         _raw_cospan(rng, field, _symmetric_twisted),
                         _raw_cospan(rng, field, rand_raw_coalgebra),
                         _raw_cospan(rng, field, _cocommutative_raw)):
                counital = all(_counit_laws_hold(x) for x in (f.src, g.src))
                try:
                    pb = _outcome(relative_pullback_coalg, base, f, g)
                except NotCounital:
                    assert not counital and f._pullback is None
                    verdicts["refused"] += 1
                    continue
                assert counital
                if isinstance(pb, str):
                    continue
                want = kron_apply(pb.p_a.mat, pb.p_c.mat, pb.apex.delta) == pb.payload.j.mat
                assert pb.jointly_monic == want
                verdicts[want] += 1
    assert verdicts.keys() == {True, "refused"}


def _counit_laws_hold(x):
    """Whether check_coalgebra passes both counit laws of a copy of x."""
    y = Coalgebra(x.dim, x.field, delta=x.delta, epsilon=x.epsilon)
    return all(c.ok for c in check_coalgebra(y).checks[1:])


def _comparison(build):
    """The checks of a comparison report, or the class and message of the
    RelspanError it raises."""
    try:
        return [c.as_dict() for c in build().checks]
    except (InternalSolveFailure, LegsNotInClass, CodomainMismatch, NotCounital) as e:
        return type(e).__name__, str(e)


def test_compare_cotensor_pullback_is_the_comparison_with_the_pullback():
    """compare_cotensor_pullback gives the report, names, verdicts and
    witnesses, that compare_with_pullback gives on the cotensor basis and
    the payload of relative_pullback, or fails as that pullback does: on
    counital cospans, on cocommutative ones that are not coassociative,
    where the closure check can fail and the two bases can differ, and on
    cocommutative ones that are not counital, which both refuse."""
    rng = rng_for("compare-oracle")
    outcomes = set()
    for field in RESTRICTION_FIELDS:
        base = CoalgCategory(field)
        cospans = [(_counital_cospan(rng, field), _raw_cospan(rng, field, _cocommutative_raw),
                    _raw_cospan(rng, field, _symmetric_twisted)) for _ in range(12)]
        # a closure check fails rarely on random counital cospans, so one failure is planted
        for f, g in chain(*cospans, [_unclosed_cospan(field)] if field in FALLBACK_FIELDS else []):
            want = _comparison(
                lambda: compare_with_pullback(cotensor(f, g), relative_pullback(base, f, g).payload))
            # fresh legs, so the comparison builds its own pullback rather
            # than read the one kept on f
            assert _comparison(lambda: compare_cotensor_pullback(_fresh(f), _fresh(g))) == want
            outcomes.add(want[0] if isinstance(want, tuple) else all(
                c["status"] == "pass" for c in want))
    assert outcomes == {True, False, "InternalSolveFailure", "NotCounital"}


def _fresh(m):
    """A leg equal to m that is not m, so it keeps no pullback."""
    return CoalgMap(m.src, m.tgt, m.mat)


# -- the pullback kept on its left leg ---------------------------------------------------


def _pullback_bits(pb):
    """The inclusion, δ_E, ε_E and projections of a pullback, bit for bit."""
    return [_bits(m) for m in (pb.payload.j.mat, pb.apex.delta, pb.apex.epsilon,
                               pb.p_a.mat, pb.p_c.mat)]


def _spy_builds(monkeypatch):
    """The pullbacks that _pullback_equalizer builds from here on, as (f, g):
    its calls that find none kept on f for the object g."""
    builds, build = [], coalg._pullback_equalizer

    def spy(f, g):
        if f._pullback is None or f._pullback[0] is not g:
            builds.append((f, g))
        return build(f, g)

    monkeypatch.setattr(coalg, "_pullback_equalizer", spy)
    return builds


def test_pullback_then_comparison_builds_one_equalizer_in_either_order(monkeypatch):
    """relative_pullback and compare_cotensor_pullback on the same legs, in
    either order, build one pullback: the second reads the one kept on f.
    The report is compare_with_pullback's on the cotensor basis and the
    payload, and each call still decides both legs."""
    rng = rng_for("kept-pullback")
    builds = _spy_builds(monkeypatch)
    witnesses = _spy(monkeypatch, coalg, "class_S_witness")
    for field in RESTRICTION_FIELDS:
        base = CoalgCategory(field)
        for _ in range(6):
            f, g = _counital_cospan(rng, field)
            for pullback_first in (True, False):
                f, g = _fresh(f), _fresh(g)
                del builds[:], witnesses[:]
                if pullback_first:
                    pb = relative_pullback(base, f, g)
                    rep = compare_cotensor_pullback(f, g)
                else:
                    rep = compare_cotensor_pullback(f, g)
                    pb = relative_pullback(base, f, g)
                assert len(builds) == 1 and len(witnesses) == 4
                assert rep.ok
                assert [c.as_dict() for c in rep.checks] == [
                    c.as_dict() for c in compare_with_pullback(cotensor(f, g), pb.payload).checks]
                assert relative_pullback(base, f, g).payload is pb.payload
                assert len(builds) == 1


def test_the_kept_pullback_does_not_decide_the_legs():
    """Legs outside S are refused after their unchecked pullback is kept."""
    base, p = CoalgCategory(QQ), cid(path_coalgebra(QQ))
    relative_pullback_coalg(base, p, p)
    assert p._pullback is not None
    for build in (lambda: relative_pullback(base, p, p), lambda: compare_cotensor_pullback(p, p)):
        with pytest.raises(LegsNotInClass):
            build()


def test_the_kept_pullback_is_keyed_on_the_leg_objects(monkeypatch):
    """Equal legs that are other objects build again, and a new right leg for
    the same f gives that leg's pullback, as fresh legs give it; f keeps only
    its last right leg's."""
    rng = rng_for("kept-pullback-key")
    builds = _spy_builds(monkeypatch)
    for field in RESTRICTION_FIELDS:
        base = CoalgCategory(field)
        for _ in range(6):
            f0 = rand_finfun(rng, rng.randint(1, 3), rng.randint(1, 2))
            f = linearize_fun(f0, field)
            g, h = (linearize_fun(rand_finfun(rng, rng.randint(1, 3), f0.cod.size), field)
                    for _ in range(2))
            del builds[:]
            pb_g = relative_pullback(base, f, g)
            for left, right in ((_fresh(f), g), (f, _fresh(g))):
                again = relative_pullback(base, left, right)
                assert again.payload is not pb_g.payload
                assert _pullback_bits(again) == _pullback_bits(pb_g)
            pb_h = relative_pullback(base, f, h)
            assert _pullback_bits(pb_h) == _pullback_bits(relative_pullback(base, _fresh(f), h))
            assert relative_pullback(base, f, g).payload is not pb_g.payload
            assert len(builds) == 6


def test_a_failed_pullback_is_not_kept(monkeypatch):
    """A cospan whose closure check fails raises the same error and message
    on every call, and builds its equalizer again each time; one that is
    not counital is refused the same way each time, before any equalizer."""
    rng = rng_for("kept-pullback-failure")
    builds = []
    solve_in = coalg._equalizer
    monkeypatch.setattr(coalg, "_equalizer", lambda *a: builds.append(a) or solve_in(*a))
    seen = Counter()
    for field in RESTRICTION_FIELDS:
        base = CoalgCategory(field)
        cospans = [_raw_cospan(rng, field, make) for _ in range(80) for make in (_cocommutative_raw, _symmetric_twisted)]
        # a closure check fails rarely on random counital cospans, so one failure is planted
        for f, g in cospans + ([_unclosed_cospan(field)] if field in FALLBACK_FIELDS else []):
            def pulled():
                return compare_with_pullback(cotensor(f, g), relative_pullback(base, f, g).payload)

            first = _comparison(pulled)
            if not isinstance(first, tuple):
                continue
            seen[first[0] if first[0] == "NotCounital" else first[1]] += 1
            del builds[:]
            assert _comparison(pulled) == first
            assert _comparison(lambda: compare_cotensor_pullback(f, g)) == first
            assert f._pullback is None and len(builds) == 2 * (first[0] != "NotCounital")
    assert seen.keys() == {"δ∘j does not factor through j⊗j", "NotCounital"}


# -- the cotensor reads the kept elimination of an equal system ------------------------


def _cotensor_system(f, g):
    """The cotensor's system (1⊗f)∘δ_A ⊗ 1 − 1 ⊗ (g⊗1)∘δ_C, from whole Kronecker
    products."""
    a, c, fld = f.src, g.src, f.mat.field
    i_a, i_c = Matrix.identity(fld, a.dim), Matrix.identity(fld, c.dim)
    return (kron(kron(i_a, f.mat) @ a.delta, i_c)
            - kron(i_a, kron(g.mat, i_c) @ c.delta))


def _path_cospan(field):
    """The path coalgebra, not cocommutative, into k[{b0, b1}] by e0, e1 ↦ b0
    and x ↦ 0, as both legs: their spans with the identity are in S, since
    (1⊗g)∘(c∘δ - δ) = 0."""
    p, b = path_coalgebra(field), grouplike(field, 2)
    one = field.one
    g = CoalgMap(p, b, Matrix.from_cols(field, 2, [{0: one}, {0: one}, {}]))
    return g, CoalgMap(p, b, g.mat)


def test_the_cotensor_after_the_pullback_is_its_fresh_elimination_bit_for_bit(monkeypatch):
    """On dense counital cospans, random functions linearized in random bases,
    cotensor after relative_pullback is the canonical kernel of a freshly
    built cotensor system, bit for bit.  It eliminates nothing: when the
    pullback solved a system, it returns the kernel K' kept with it, and
    when the pullback read its matching pairs, every row of the cotensor's
    system holds one nonzero or none, and the basis is the unit columns at
    its empty columns, with their row table.  compare_cotensor_pullback
    reports, check for check, what it reports on fresh copies of the legs,
    which keep no pullback."""
    reduces = _spy(monkeypatch, linalg, "_reduce")
    routes = Counter()
    for field in (QQ, GF(2), GF(5), GF(32003)):
        base = CoalgCategory(field)
        rng = rng_for(f"cotensor-shared-{field}")
        for _ in range(10):
            f, g = _counital_cospan(rng, field)
            relative_pullback(base, f, g)
            del reduces[:]
            got = cotensor(f, g)
            shared = f._pullback[2] is not None
            assert not reduces
            system = _cotensor_system(f, g)
            if not shared:
                assert _count_one(system)
                assert got._units == [c for c, col in enumerate(system.columns) if not col]
            routes[field, shared] += 1
            assert _bits(got) == _bits(_kernel(field, linalg._reduce(field, system.columns), system.cols))
            assert [c.as_dict() for c in compare_cotensor_pullback(f, g).checks] == [
                c.as_dict() for c in compare_cotensor_pullback(_fresh(f), _fresh(g)).checks]
    assert all(routes[field, True] for field in (QQ, GF(2), GF(5), GF(32003)))


def test_the_comparison_eliminates_an_equal_system_once(monkeypatch):
    """relative_pullback then compare_cotensor_pullback runs at most one
    elimination on a dense counital cospan, the pullback's kernel of t,
    none when every row of t holds one nonzero or none, and none on a
    linearized cospan: its pullback solves no system, and every row of the cotensor's
    system holds one nonzero or none, so its kernel is read off its empty
    columns.  A cospan
    with a cocommutative C and a cospan whose C is not cocommutative but
    whose legs are in S share too: on legs in S, (g⊗1)∘c∘δ_C = (g⊗1)∘δ_C."""
    reduces = _spy(monkeypatch, linalg, "_reduce")
    rng = rng_for("cotensor-one-elimination")
    routes = set()
    for field in (QQ, GF(5), GF(32003)):
        base = CoalgCategory(field)
        f0 = rand_finfun(rng, 3, 2)
        g0 = rand_finfun(rng, 3, 2)
        linear = (linearize_fun(f0, field), linearize_fun(g0, field))
        for f, g in (_counital_cospan(rng, field), linear, _path_cospan(field)):
            del reduces[:]
            relative_pullback(base, f, g)
            assert compare_cotensor_pullback(f, g).ok
            kept = f._pullback[2]
            assert len(reduces) == (kept is not None and not _count_one(kept[0]))
            routes.add(f._pullback[2] is None)
    assert routes == {True, False}


def test_an_unequal_kept_system_is_not_read(monkeypatch):
    """A kept t that differs from the cotensor's system, with its own kernel
    kept beside it, makes cotensor take the kernel of its own system,
    eliminated unless every row holds one nonzero or none, and return the
    fresh basis: a planted entry on dense counital cospans.  A pullback of
    twisted cocommutative cospans whose check on K' fails, so that its
    inclusion is K'∘N, keeps no system, and cotensor does the same there."""
    reduces = _spy(monkeypatch, linalg, "_reduce")
    checks = _spy(monkeypatch, coalg, "_subcoalgebra")
    rng = rng_for("cotensor-unequal")
    planted, natural = 0, 0
    for field in RESTRICTION_FIELDS:
        base = CoalgCategory(field)
        for _ in range(8):
            f, g = _counital_cospan(rng, field)
            relative_pullback(base, f, g)
            if f._pullback[2] is None:
                continue
            system = _cotensor_system(f, g)
            want = kernel_basis_sparse(system)
            kept_g, kept, (t, _) = f._pullback
            bad = mutate_one_entry(rng, field, t)
            monkeypatch.setattr(f, "_pullback", (kept_g, kept, (bad, kernel_basis_sparse(bad))))
            del reduces[:]
            assert _bits(cotensor(f, g)) == _bits(want) and len(reduces) == (not _count_one(system))
            planted += kernel_basis_sparse(bad) != want
        for _ in range(30):
            f, g = _raw_cospan(rng, field, _symmetric_twisted)
            checks.clear()
            if isinstance(_outcome(relative_pullback, base, f, g), str) or not checks or checks[0][1]:
                continue
            assert f._pullback[2] is None
            system = _cotensor_system(f, g)
            want = kernel_basis_sparse(system)
            del reduces[:]
            assert _bits(cotensor(f, g)) == _bits(want) and len(reduces) == (not _count_one(system))
            natural += 1
    assert planted and natural


# -- the matching pairs of a group-like cospan ------------------------------------------


def _bits(m):
    """m's entries with their types, by column: equal bit for bit."""
    return m.rows, m.cols, [sorted((i, type(v).__name__, v) for i, v in c.items()) for c in m.columns]


def _reference_pullback(f, g):
    """j, L, δ_E and ε_E of the equalizer of f⊗ε and ε⊗g that
    _reference_equalizer gives on the full T, then p_A = (1⊗ε_C)∘j,
    p_C = (ε_A⊗1)∘j and the certificate (p_A⊗p_C)∘δ_E = j as dense
    products; or the failure, as the pullback words it."""
    fe, eg = _legs_on_tensor(f, g)
    eq = _reference_equalizer(fe.src, _t(fe, eg))
    if isinstance(eq, str):
        return eq
    j, a, c = eq.j.mat, f.src, g.src
    if fe.mat @ j != eg.mat @ j:
        return "pullback square does not commute"
    p_a = kron(Matrix.identity(a.field, a.dim), c.epsilon) @ j
    p_c = kron(a.epsilon, Matrix.identity(c.field, c.dim)) @ j
    return ([_bits(m) for m in (j, eq.left_inv, eq.object.delta, eq.object.epsilon, p_a, p_c)]
            + [kron(p_a, p_c) @ eq.object.delta == j])


def _assert_pullback_is_the_reference(solves, f, g):
    """relative_pullback_coalg gives what _reference_pullback gives; returns
    whether it solved a system, as its calls to _equalizer record."""
    solves.clear()
    pb = _outcome(relative_pullback_coalg, CoalgCategory(f.mat.field), f, g)
    got = pb if isinstance(pb, str) else (
        [_bits(m) for m in (pb.payload.j.mat, pb.payload.left_inv, pb.payload.object.delta,
                            pb.payload.object.epsilon, pb.p_a.mat, pb.p_c.mat)] + [pb.jointly_monic])
    assert got == _reference_pullback(f, g)
    assert len(solves) <= 1
    return bool(solves)


def _with_column(f, i, col):
    """f with its column i replaced by col."""
    cols = list(f.mat.columns)
    cols[i] = col
    return CoalgMap(f.src, f.tgt, Matrix.from_cols(f.mat.field, f.mat.rows, cols))


def _sheared(f):
    """f from A rebased by the shear e_1 -> e_0 + e_1, which leaves no basis
    vector of A group-like but e_0; A has at least 2 elements."""
    fld, n = f.mat.field, f.src.dim
    shear = Matrix.from_cols(fld, n, [{0: fld.one}, {0: fld.one, 1: fld.one}]
                             + [{i: fld.one} for i in range(2, n)])
    return rebased_map(f, shear, Matrix.identity(fld, f.tgt.dim))


def test_grouplike_pullback_is_its_matching_pairs(monkeypatch):
    """A linearized cospan over Q or F_5 solves no system: it is read off
    the unit columns at a⊗c for the pairs (a, c) that finset.pullback lists,
    with no closure check: the apex is grouplike(k, |pairs|) and p_A, p_C
    are finset.pullback's projections, bit for bit, and the pullback is the
    reference on the full T bit for bit, on empty A, empty C, a one-point B
    and random fibers."""
    solves = _spy(monkeypatch, coalg, "_equalizer")
    builds = _spy(monkeypatch, coalg, "_grouplike_pullback")
    checks = _spy(monkeypatch, coalg, "_subcoalgebra")
    rng = rng_for("matching-pairs")
    sizes = [(0, 2, 3), (3, 2, 0), (0, 1, 0), (3, 1, 2)] + [
        (rng.randint(0, 5), rng.randint(1, 4), rng.randint(0, 5)) for _ in range(20)]
    for field in (QQ, GF(5)):
        for na, nb, nc in sizes:
            f0, g0 = rand_finfun(rng, na, nb), rand_finfun(rng, nc, nb)
            f, g = linearize_fun(f0, field), linearize_fun(g0, field)
            builds.clear()
            checks.clear()
            relative_pullback_coalg(CoalgCategory(field), f, g)
            ((_, (eq, p_a, p_c)),) = builds
            assert not checks and not solves
            ref = pullback(f0, g0)
            assert eq.j.mat.columns == [{a * nc + c: field.one} for a, c in ref.payload]
            k_p = grouplike(field, len(ref.payload))
            assert [_bits(eq.object.delta), _bits(eq.object.epsilon)] == [_bits(k_p.delta), _bits(k_p.epsilon)]
            assert linalg._unit_rows(p_a.mat) == list(ref.p_a.table)
            assert linalg._unit_rows(p_c.mat) == list(ref.p_c.table)
            f, g = linearize_fun(f0, field), linearize_fun(g0, field)
            assert not _assert_pullback_is_the_reference(solves, f, g)


def _generic(f, g):
    """The pullback of f and g by the generic route, which solves T, on fresh
    copies of the legs, so that nothing kept on f is read."""
    f, g = (CoalgMap(m.src, m.tgt, _unit_matrix(m.mat.field, m.mat.rows, list(m.mat._units)))
            for m in (f, g))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coalg, "_grouplike_pullback", lambda *a: None)
        return relative_pullback_coalg(CoalgCategory(f.mat.field), f, g)


def _outcome_bits(fn, *args):
    """fn(*args) bit for bit, a map's matrix or a matrix, or the class and
    message of the failure it raises."""
    try:
        out = fn(*args)
    except (SquareDoesNotCommute, InternalSolveFailure) as e:
        return type(e), str(e)
    return _bits(out.mat if isinstance(out, CoalgMap) else out)


def test_grouplike_pullback_and_its_table_fillers_are_the_generic_route():
    """On random linearized cospans over Q, F_2, F_5 and F_32003, with an
    empty fiber, an empty pullback and unequal |A| and |C|, the pullback read
    off the matching pairs (_grouplike_pullback) and its table filler
    (_grouplike_filler) give the generic route's δ_E, ε_E, j, L, p_A, p_C
    and h bit for bit; planted failures raise on both routes as one class
    with one message: a span whose square fails, a 0/1 δ_D that is not
    diagonal and leaves the image of j, and one that stays in it but does
    not reproduce the span."""
    rng = rng_for("grouplike-oracle")
    fixed = [([0, 0, 1], [1, 1], 3), ([0, 0], [1, 1, 1], 2), ([1, 0, 2, 2], [2, 0], 4)]
    seen = Counter()
    for field in (QQ, GF(2), GF(5), GF(32003)):
        cospans = fixed + [([rng.randrange(nb) for _ in range(rng.randint(1, 4))],
                            [rng.randrange(nb) for _ in range(rng.randint(1, 4))], nb)
                           for nb in (rng.randint(1, 3) for _ in range(4))]
        for fa, gc, nb in cospans:
            f0, g0 = (FinFun(FinSetObj(len(t)), FinSetObj(nb), t) for t in (fa, gc))
            f, g = linearize_fun(f0, field), linearize_fun(g0, field)
            pb, ref = relative_pullback_coalg(CoalgCategory(field), f, g), _generic(f, g)
            assert pb.payload.index is not None and ref.payload.index is None
            assert [_bits(m) for m in (pb.payload.object.delta, pb.payload.object.epsilon, pb.payload.j.mat,
                                       pb.payload.left_inv, pb.p_a.mat, pb.p_c.mat)] == [
                _bits(m) for m in (ref.payload.object.delta, ref.payload.object.epsilon, ref.payload.j.mat,
                                   ref.payload.left_inv, ref.p_a.mat, ref.p_c.mat)]
            assert pb.jointly_monic and ref.jointly_monic
            pairs = pullback(f0, g0).payload
            others = [(a, c) for a in range(len(fa)) for c in range(len(gc)) if fa[a] != gc[c]]
            seen["empty pullback"] += not pairs
            seen["empty fiber"] += len(set(fa) & set(gc)) < nb
            for d in (0, 1, 3):
                # a span through the pairs and one whose first column is off them, over k[d] and
                # over a D whose δ sends e_x to e_{x+1}⊗e_x or to e_{x+1}⊗e_{x+1}
                spans = [[rng.choice(pairs) for _ in range(d)]] if pairs else []
                if d and others:
                    spans.append([rng.choice(others)] + [rng.choice(pairs or others) for _ in range(d - 1)])
                for span in spans:
                    for move in [None] + [(1, 0), (1, 1)] * (d > 1):
                        dd = [x * d + x if move is None else (x + move[0]) % d * d + (x + move[1]) % d
                              for x in range(d)]
                        src = Coalgebra(d, field, delta=_unit_matrix(field, d * d, dd),
                                        epsilon=_unit_matrix(field, 1, [0] * d))
                        k, l = (CoalgMap(src, m.src, _unit_matrix(field, m.src.dim, [p[i] for p in span]))
                                for i, m in enumerate((f, g)))
                        got = _outcome_bits(coalg._grouplike_filler, pb, k, l)
                        assert got == _outcome_bits(pullback_factor_coalg, ref, k, l)
                        seen[got[1] if isinstance(got[0], type) else "filler"] += 1
            h = pullback_factor_coalg(pb, pb.p_a, pb.p_c).mat
            assert h == Matrix.identity(field, pb.apex.dim) and isinstance(h._units, list)
            # a leg with a zero column has no row table: the generic route, on both
            zero = CoalgMap(pb.apex, g.src, Matrix.from_cols(field, g.src.dim, [{}] * pb.apex.dim))
            assert pb.apex.dim == 0 or coalg._grouplike_filler(pb, pb.p_a, zero) is None
            assert _outcome_bits(pullback_factor_coalg, pb, pb.p_a, zero) == _outcome_bits(
                pullback_factor_coalg, ref, pb.p_a, zero)
    assert seen["empty pullback"] and seen["empty fiber"] and seen["filler"] > 20
    assert {"f∘k != g∘l", "filler does not factor through the inclusion",
            "filler does not reproduce the test span"} <= seen.keys()


def test_near_grouplike_pullbacks_solve_the_full_system(monkeypatch):
    """A leg column scaled by 2, a zero leg column, a leg column with two
    entries, a group-like A rebased by a shear, the path coalgebra, block
    cospans with a primitive block and cospans of twisted group-like
    coalgebras, counital and not coassociative, each solve the full system
    and give the reference on it."""
    solves = _spy(monkeypatch, coalg, "_equalizer")
    rng = rng_for("matching-near")
    kinds = Counter()

    def solves_fully(kind, f, g):
        assert _assert_pullback_is_the_reference(solves, f, g), kind
        kinds[kind] += 1

    for field in (QQ, GF(5)):
        one, two = field.one, field.of(2)
        solves_fully("path", cid(path_coalgebra(field)), cid(path_coalgebra(field)))
        for _ in range(8):
            f0 = rand_finfun(rng, rng.randint(2, 4), rng.randint(2, 3))
            g0 = rand_finfun(rng, rng.randint(1, 4), f0.cod.size)
            f, g = linearize_fun(f0, field), linearize_fun(g0, field)
            i, b = rng.randrange(f.src.dim), f0.table[0]
            solves_fully("scaled", _with_column(f, i, {f0.table[i]: two}), g)
            solves_fully("zero", f, _with_column(g, rng.randrange(g.src.dim), {}))
            solves_fully("two entries", _with_column(f, i, {b: one, (b + 1) % f0.cod.size: one}), g)
            solves_fully("sheared", _sheared(f), g)
            b_blocks = rand_blocks(rng)
            f = rand_block_map(rng, field, rand_blocks(rng) + ("p",), b_blocks)
            g = rand_block_map(rng, field, rand_blocks(rng), b_blocks)
            solves_fully("block", f, CoalgMap(g.src, f.tgt, g.mat))
            # a twisted block of A and of C goes to points 0 and 1, a group-like one to 2
            b = grouplike(field, 3)
            f, g = (CoalgMap(direct_sum(x, grouplike(field, m)), b,
                             Matrix.from_cols(field, 3, [{rng.randrange(2): one} for _ in range(x.dim)]
                                              + [{2: one}] * m))
                    for x, m in ((_twisted_grouplike(field, 3, 0, [1, 0, -1], [0, 1, -1]), 1),
                                 (_rand_twisted(rng, field, rng.randint(3, 4))[0], rng.randint(1, 2))))
            solves_fully("twisted", f, g)
    assert len(kinds) == 7


def test_pullback_apex_is_sympys_nullspace_of_the_full_system():
    """Over Q, the apex basis of a group-like cospan, from its matching
    pairs, and of a block cospan, from its full system, is sympy's
    nullspace of T, which is the canonical basis too."""
    sp = pytest.importorskip("sympy")
    rng = rng_for("pullback-sympy")
    cospans = []
    for _ in range(8):
        b_blocks = rand_blocks(rng)
        f = rand_block_map(rng, QQ, rand_blocks(rng) + ("p",), b_blocks)
        g = rand_block_map(rng, QQ, rand_blocks(rng), b_blocks)
        f0 = rand_finfun(rng, rng.randint(0, 4), rng.randint(1, 3))
        g0 = rand_finfun(rng, rng.randint(0, 4), f0.cod.size)
        cospans += [(f, CoalgMap(g.src, f.tgt, g.mat)), (linearize_fun(f0, QQ), linearize_fun(g0, QQ))]
    for f, g in cospans:
        j = relative_pullback_coalg(CoalgCategory(QQ), f, g).payload.j.mat
        t = _t(*_legs_on_tensor(f, g))
        st = sp.zeros(t.rows, t.cols)
        for c, col in enumerate(t.columns):
            for i, v in col.items():
                st[i, c] = sp.Rational(v.numerator, v.denominator)
        want = [{i: Fraction(int(v.p), int(v.q)) for i, v in enumerate(vec) if v} for vec in st.nullspace()]
        assert j.columns == want


def _full_comparison(ct, eq):
    """compare_with_pullback with every product built, whether or not ct is j."""
    dim, j, fld = eq.object.dim, eq.j.mat, eq.object.field
    rep = Report()
    rep.add("dimensions agree", dim == ct.cols, f"{dim} vs {ct.cols}")
    u = eq.left_inv @ ct
    rep.add("cotensor factors through the pullback", j @ u == ct, "inclusion escapes the pullback subobject")
    v = kernel_left_inverse(ct) @ j
    rep.add("pullback factors through the cotensor", ct @ v == j, "inclusion escapes the cotensor subobject")
    rep.add("u∘v is the identity", u @ v == Matrix.identity(fld, dim), "u∘v != id")
    rep.add("v∘u is the identity", v @ u == Matrix.identity(fld, ct.cols), "v∘u != id")
    return rep


def test_compare_with_pullback_settles_on_equal_bases_and_fails_a_changed_one_as_before(monkeypatch):
    """When the cotensor basis is j, the comparison passes its five checks,
    as the full comparison does, with no product and no left inverse of the
    cotensor basis; a basis with one entry changed fails the same named
    checks with the same witnesses, or raises the same error, as the full
    comparison."""
    rng = rng_for("compare-settles")
    lefts = _spy(monkeypatch, coalg, "kernel_left_inverse")
    products, matmul = [], Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    failed = set()
    for field in (QQ, GF(5)):
        for _ in range(12):
            b_blocks = tuple(rng.choice("gp") for _ in range(rng.randint(1, 3)))
            f = rand_block_map(rng, field, rand_blocks(rng), b_blocks)
            g = rand_block_map(rng, field, rand_blocks(rng), b_blocks)
            g = CoalgMap(g.src, f.tgt, g.mat)
            eq, ct = relative_pullback_coalg(CoalgCategory(field), f, g).payload, cotensor(f, g)
            assert ct == eq.j.mat
            lefts.clear()
            products.clear()
            rep = compare_with_pullback(ct, eq)
            assert not lefts and not products
            assert _comparison(lambda: rep) == _comparison(lambda: _full_comparison(ct, eq))
            assert rep.ok
            if ct.rows and ct.cols:
                bad = mutate_one_entry(rng, field, ct)
                want = _comparison(lambda: _full_comparison(bad, eq))
                assert _comparison(lambda: compare_with_pullback(bad, eq)) == want
                failed.update(want if isinstance(want, tuple) else
                              [c["name"] for c in want if c["status"] == "fail"])
    assert {"cotensor factors through the pullback", "InternalSolveFailure"} <= failed


def test_left_counit_witness_is_the_same_after_a_pullback_read_it():
    """check_coalgebra reports the same left counit law, witness included,
    on a non-counital coalgebra whether or not a relative pullback read
    l = (ε⊗1)∘δ on that object first, as C, deciding its counit laws, and
    refused it; on a counital one the pullback reads l as the l_C of its
    certificate."""
    rng = rng_for("left-counit-kept")
    failing = read = 0
    for field in RESTRICTION_FIELDS:
        base = CoalgCategory(field)
        # k[3] with e2⊗e0 added to δ(e2): the left counit law fails at basis 2
        late = Coalgebra(3, field, delta=Matrix.from_cols(field, 9, [{0: 1}, {4: 1}, {6: 1, 8: 1}]),
                         epsilon=grouplike(field, 3).epsilon)
        for x in [late] + [make(rng, field, rng.randint(1, 3))
                           for make in (_cocommutative_raw, _symmetric_twisted) for _ in range(4)]:

            def copy():
                return Coalgebra(x.dim, field, delta=x.delta, epsilon=x.epsilon)

            want = [c.as_dict() for c in check_coalgebra(copy()).checks]
            after_pullback, one = copy(), trivial(field)
            counit = CoalgMap(after_pullback, one, after_pullback.epsilon)
            refused = _refused(relative_pullback_coalg, base, cid(one), counit)
            assert refused == any(c["status"] == "fail" for c in want[1:]) and "left_counit" in vars(after_pullback)
            read += not refused
            assert [c.as_dict() for c in check_coalgebra(after_pullback).checks] == want
            failing += refused and want[1]["status"] == "fail"
    assert failing > 0 and read > 0


def _one_sided(field):
    """k[2] with e0⊗(e0 − e1) added to δ(e0), which fails only the left
    counit law, and with (e0 − e1)⊗e0 added, which fails only the right one,
    both at basis 0: ε is 1 on one factor of the added term and 0 on the
    other."""
    return {"left counit law": _twisted_grouplike(field, 2, 0, [1, 0], [1, -1]),
            "right counit law": _twisted_grouplike(field, 2, 0, [1, -1], [1, 0])}


def _copy(x):
    """x as a new object that keeps none of its facts; a tensor product of
    copies of its factors."""
    if x._factors:
        return tensor_coalgebra(*map(_copy, x._factors))
    return Coalgebra(x.dim, x.field, delta=x.delta, epsilon=x.epsilon)


@pytest.mark.parametrize("law", ["left counit law", "right counit law"])
def test_constructions_refuse_a_coalgebra_that_fails_one_counit_law(law):
    """relative_pullback with that coalgebra as A or as C,
    compare_cotensor_pullback likewise and coalg_equalizer raise
    NotCounital, naming the law with the witness check_coalgebra reports,
    on a coalgebra that fails only that counit law; the legs, whose spans
    are in S (a zero map into k), keep nothing."""
    for field in RESTRICTION_FIELDS:
        base, one, x = CoalgCategory(field), trivial(field), _one_sided(field)[law]
        failed = [c.as_dict() for c in check_coalgebra(_copy(x)).checks[1:] if not c.ok]
        assert failed == [{"name": law, "status": "fail", "witness": "basis 0"}]
        zero = CoalgMap(x, one, Matrix.from_cols(field, 1, [{}, {}]))
        for name, build, f, g in (
                ("the left leg's domain", partial(relative_pullback, base), zero, cid(one)),
                ("the right leg's domain", partial(relative_pullback, base), cid(one), zero),
                ("the left leg's domain", compare_cotensor_pullback, zero, cid(one)),
                ("the right leg's domain", compare_cotensor_pullback, cid(one), zero),
                ("the maps' domain", coalg_equalizer, cid(x), cid(x))):
            f, g = _fresh(f), _fresh(g)
            with pytest.raises(NotCounital) as exc:
                build(f, g)
            assert str(exc.value) == f"{name} is not counital: {law} fails at basis 0"
            assert f._pullback is None and g._pullback is None


def test_the_counit_decision_is_check_coalgebras_two_counit_laws():
    """coalg._require_counital refuses exactly the coalgebras on which
    check_coalgebra fails a counit law, and names the first that fails with
    check_coalgebra's witness: on raw, twisted, one-sided, rebased, tensor
    and group-like coalgebras and the path coalgebra, each decided on a
    copy, so that neither reads facts the other worked out."""
    rng = rng_for("counit-decision")
    seen = Counter()
    for field in RESTRICTION_FIELDS:
        k = partial(grouplike, field)
        raw = [rand_raw_coalgebra(rng, field, rng.randint(1, 3)) for _ in range(6)]
        twisted = [_twisted(rng, field, rng.randint(2, 3)) for _ in range(3)] + list(_one_sided(field).values())
        cases = raw + twisted + [rebased(k(3), random_basis(rng, field, 3)), k(0), k(1), k(4),
                                 path_coalgebra(field), tensor_coalgebra(raw[0], twisted[-1]),
                                 tensor_coalgebra(k(2), twisted[0]), tensor_coalgebra(k(2), k(3))]
        for x in cases:
            failed = [c for c in check_coalgebra(_copy(x)).checks[1:] if not c.ok]
            try:
                coalg._require_counital(x, "x")
            except NotCounital as e:
                assert failed and str(e) == f"x is not counital: {failed[0].name} fails at {failed[0].witness}"
                seen[len(failed)] += 1
            else:
                assert not failed
                seen[0] += 1
    assert seen[0] and seen[1] and seen[2]


def test_grouplike_objects_are_decided_counital_with_no_product(monkeypatch):
    """k[X] built by grouplike or linearize_obj, and a linearized pullback's
    apex, are decided counital off the facts grouplike sets, with no call
    to kron_apply or to the recognizer's _unit_rows; a linearized pullback,
    which decides A and C, makes one kron_apply, its certificate's on j."""
    units, krons = (_spy(monkeypatch, coalg, name) for name in ("_unit_rows", "kron_apply"))
    rng = rng_for("counit-decision-grouplike")
    for field in GROUPLIKE_FIELDS:
        for n in range(5):
            for c in (grouplike(field, n), linearize_obj(FinSetObj(n), field)):
                coalg._require_counital(c, "k[X]")
                assert not units and not krons
        f, g = (linearize_fun(rand_finfun(rng, 3, 2), field) for _ in "fg")
        pb = relative_pullback_coalg(CoalgCategory(field), f, g)
        assert [args[2] for args, _ in krons] == [pb.payload.j.mat]
        units.clear(), krons.clear()
        coalg._require_counital(pb.apex, "apex")
        assert not units and not krons


# -- closure and reflection shapes ----------------------------------------------------


def test_post_closure_of_projection_span():
    rng = rng_for("lemma-closure")
    for field in FIELDS:
        f0 = rand_finfun(rng, 3, 2)
        g0 = rand_finfun(rng, 3, 2)
        pb = relative_pullback_coalg(CoalgCategory(field), linearize_fun(f0, field), linearize_fun(g0, field))
        a_map = rand_block_map(rng, field, ("g", "g", "g"), rand_blocks(rng))
        a_map = CoalgMap(pb.f.src, a_map.tgt, a_map.mat)
        if class_S_witness(a_map, cid(pb.f.src)) is None:
            comp = CoalgMap(pb.apex, a_map.tgt, a_map.mat @ pb.p_a.mat)
            assert class_S_witness(comp, pb.p_c) is None


# -- morphism identity ----------------------------------------------------------------


def test_maps_between_different_coalgebras_are_not_equal():
    assert cid(grouplike(QQ, 2)) != cid(primitive_block(QQ))
    # same counit as k[C2], different δ
    odd = Coalgebra(2, QQ, delta=primitive_block(QQ).delta, epsilon=grouplike(QQ, 2).epsilon)
    assert cid(grouplike(QQ, 2)) != cid(odd)
    # structurally equal objects built twice still give equal maps
    assert cid(grouplike(QQ, 2)) == cid(grouplike(QQ, 2))


def test_compose_rejects_maps_between_different_coalgebras_of_equal_dimension():
    base = CoalgCategory(QQ)
    k2, prim = grouplike(QQ, 2), primitive_block(QQ)
    with pytest.raises(CodomainMismatch):
        base.compose(cid(k2), cid(prim))
    assert base.compose(cid(k2), cid(grouplike(QQ, 2))) == cid(k2)


def test_map_equality_on_identical_objects_keeps_tensor_delta_lazy():
    x = tensor_coalgebra(grouplike(QQ, 3), grouplike(QQ, 3))
    f = cid(x)
    assert f == CoalgMap(x, x, Matrix.identity(QQ, 9))
    assert "delta" not in vars(x) and "epsilon" not in vars(x)


def test_tensor_equality_ignores_bracketing_and_stays_lazy():
    a = primitive_block(QQ)
    left = tensor_coalgebra(tensor_coalgebra(a, a), a)
    right = tensor_coalgebra(a, tensor_coalgebra(a, a))
    assert left == right
    assert "delta" not in vars(left) and "delta" not in vars(right)
    assert "epsilon" not in vars(left) and "epsilon" not in vars(right)
    assert left.delta == right.delta
    assert left != tensor_coalgebra(tensor_coalgebra(a, grouplike(QQ, 2)), a)
    explicit = Coalgebra(8, QQ, delta=left.delta, epsilon=left.epsilon)
    assert explicit == right and right == explicit
    # same counit as a, different δ: only the column-by-column comparison tells
    odd = Coalgebra(2, QQ, delta=grouplike(QQ, 2).delta, epsilon=a.epsilon)
    assert explicit != tensor_coalgebra(a, tensor_coalgebra(a, odd))


# -- refusals --------------------------------------------------------------------


def _k(n, field=QQ):
    return grouplike(field, n)


def _fold():
    """k[3] → k[2], e0 ↦ g0 and e1, e2 ↦ g1: a coalgebra map."""
    return CoalgMap(_k(3), _k(2), Matrix.from_cols(QQ, 2, [{0: 1}, {1: 1}, {1: 1}]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Coalgebra(2, QQ, delta=_k(2).delta), ShapeMismatch, "counit must be a 1 x dim matrix"),
    (lambda: Coalgebra(2, QQ, delta=_k(2).delta, epsilon=Matrix.identity(QQ, 2)), ShapeMismatch,
     "counit must be a 1 x dim matrix"),
    (lambda: Coalgebra(2, QQ, delta=_k(2).delta, epsilon=_k(2, GF(5)).epsilon), FieldMismatch,
     "field mismatch: QQ vs GF(5)"),
    (lambda: Coalgebra(2, QQ, epsilon=_k(2).epsilon), ShapeMismatch,
     "comultiplication must be a dim^2 x dim matrix"),
    (lambda: Coalgebra(2, QQ, delta=Matrix.identity(QQ, 2), epsilon=_k(2).epsilon), ShapeMismatch,
     "comultiplication must be a dim^2 x dim matrix"),
    (lambda: Coalgebra(2, QQ, delta=_k(2, GF(5)).delta, epsilon=_k(2).epsilon), FieldMismatch,
     "field mismatch: QQ vs GF(5)"),
    (lambda: Coalgebra(4, QQ, delta=_k(4).delta, factors=(_k(2), _k(2))), ShapeMismatch,
     "a coalgebra takes either delta and epsilon or factors"),
    (lambda: Coalgebra(4, QQ, epsilon=_k(4).epsilon, factors=(_k(2), _k(2))), ShapeMismatch,
     "a coalgebra takes either delta and epsilon or factors"),
    (lambda: CoalgMap(_k(2), _k(3), Matrix.identity(QQ, 2)), ShapeMismatch,
     "matrix shape does not match the coalgebras"),
    (lambda: CoalgCategory(QQ).first_difference(("∘", cid(_k(3)), cid(_k(2))), cid(_k(2))),
     CodomainMismatch, "compose: cod(f) != dom(g)"),
    (lambda: coalg_equalizer(cid(_k(2)), _fold()), ShapeMismatch,
     "equalizer needs a shared domain coalgebra"),
    (lambda: coalg_equalizer(_fold(), cid(_k(3))), ShapeMismatch,
     "equalizer needs a shared codomain coalgebra"),
    (lambda: universal_factor(relative_pullback(CoalgCategory(QQ), cid(_k(2)), cid(_k(2))),
                              cid(_k(2)), _fold()),
     CompositionMismatch, "span legs must share their apex"),
], ids=["no-counit", "counit-shape", "counit-field", "no-comultiplication", "comultiplication-shape",
        "comultiplication-field", "comultiplication-and-factors", "counit-and-factors", "map-shape",
        "unmatched-composite", "equalizer-domains", "equalizer-codomains", "filler-span-domains"])
def test_coalgebra_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
