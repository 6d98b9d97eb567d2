"""Coalgebras: axiom checks, class S, equalizers, relative pullbacks, cotensor."""

import pytest

from gen import (
    FIELDS,
    block_coalgebra,
    mutate_one_entry,
    rand_block_map,
    rand_blocks,
    rand_finfun,
    rand_matrix,
    rand_q_matrix,
    rand_raw_coalgebra,
    rand_sparse_matrix,
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
    direct_sum,
    grouplike,
    is_cocommutative,
    legs_in_class,
    linearize_fun,
    linearize_obj,
    path_coalgebra,
    primitive_block,
    relative_pullback,
    tensor_coalgebra,
    trivial,
    universal_factor,
)
from relspan import coalg
from relspan.coalg import (
    _equalizer_system,
    cid,
    equalizer_factor,
    pullback_factor_coalg,
    relative_pullback_coalg,
    subcoalgebra,
)
from relspan.finset import pullback
from relspan.errors import (
    CodomainMismatch,
    InternalSolveFailure,
    LegsNotInClass,
    ShapeMismatch,
    SpanNotInClass,
    SquareDoesNotCommute,
)
from relspan.linalg import is_injective, kernel_basis_sparse, kron, kron_apply, solve, swap_map


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
            epsilon=Matrix.from_rows(field, [[1, 0]]),
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
            0, field, delta=Matrix.zeros(field, 0, 0), epsilon=Matrix.zeros(field, 1, 0)
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
    for field in FIELDS:
        with pytest.raises(ShapeMismatch, match="share their apex"):
            class_S_witness(cid(grouplike(field, 2)), cid(grouplike(field, 3)))


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
                assert eq.j.mat.col_sparse(k) == {x: field.one}
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


def _t_and_z(f, g):
    """T = (1⊗(F-G))∘δ and Z = (1⊗ε)∘δ on the domain of f and g."""
    a = f.src
    i_n = Matrix.identity(a.field, a.dim)
    return kron(i_n, f.mat - g.mat) @ a.delta, kron(i_n, a.epsilon) @ a.delta


def _assert_hat_difference_matches_oracle(f, g):
    """The restricted system S' = (R⊗1)∘δ∘K', R the nonzero rows of rref(T)
    for T = (1⊗(F-G))∘δ and K' = ker(R∘Z), gives back the exact
    (f_hat - g_hat)∘K' as (T_P⊗1)∘S' with T_P the pivot columns of T.
    T_P⊗1 is injective, so this pins S', not only its kernel.  K' is pinned
    as the canonical basis of ker(T∘Z).  Returns ((T_P⊗1)∘S', K')."""
    fld, n = f.mat.field, f.src.dim
    i_n = Matrix.identity(fld, n)
    t, z = _t_and_z(f, g)
    k, delta_k, system = _equalizer_system(f.src, t, z)
    assert k == kernel_basis_sparse(t @ z)
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
    """A random δ is not coassociative, so (δ⊗1)∘δ and (1⊗δ)∘δ differ; the
    columns must follow the first."""
    rng = rng_for("hat-noncoassoc")
    for field in FIELDS:
        told = False
        for _ in range(4):
            n, nb = rng.randint(2, 3), rng.randint(1, 3)
            if field == QQ:
                delta = rand_q_matrix(rng, n * n, n)
            else:
                delta = rand_matrix(rng, field, n * n, n)
            a = Coalgebra(n, field, delta=delta, epsilon=rand_matrix(rng, field, 1, n))
            b = grouplike(field, nb)
            f = CoalgMap(a, b, rand_matrix(rng, field, nb, n))
            g = CoalgMap(a, b, rand_matrix(rng, field, nb, n))
            hat, k = _assert_hat_difference_matches_oracle(f, g)
            i_n = Matrix.identity(field, n)
            right = kron(kron(i_n, f.mat - g.mat), i_n) @ kron(i_n, delta) @ delta
            told = told or hat != right @ k
        assert told, "no sample told (δ⊗1)∘δ from (1⊗δ)∘δ"


def test_hat_difference_of_equal_maps_and_of_dimension_zero():
    rng = rng_for("hat-edge")
    for field in FIELDS:
        a = rebased(grouplike(field, 3), random_basis(rng, field, 3))
        f = CoalgMap(a, grouplike(field, 2), rand_matrix(rng, field, 2, 3))
        hat, k = _assert_hat_difference_matches_oracle(f, f)
        assert hat.columns == [{}, {}, {}] and k == Matrix.identity(field, 3)
        assert _equalizer_system(a, *_t_and_z(f, f))[2].rows == 0
        zero = Coalgebra(0, field, delta=Matrix(field, [], 0, 0),
                         epsilon=Matrix(field, [[]], 1, 0))
        assert _equalizer_system(zero, *_t_and_z(cid(zero), cid(zero)))[2].cols == 0
        into_zero = CoalgMap(a, zero, Matrix(field, [], 0, 3))
        assert _assert_hat_difference_matches_oracle(into_zero, into_zero)[0].columns == [{}, {}, {}]


def test_equalizer_inclusion_is_the_kernel_of_the_unreduced_oracle():
    """coalg_equalizer solves the reduced system; its inclusion must be the
    canonical kernel basis of the exact f_hat - g_hat.  A = X ⊕ k[Y] in a
    random basis, the legs agreeing on the first point of Y (so the kernel
    is nonzero) and random on X, with X group-like or with a random δ."""
    rng = rng_for("eq-reduced")
    for field in (QQ, GF(5), GF(7)):
        told = False
        for coassociative in (True, False, False):
            m, k, nb = rng.randint(2, 3), rng.randint(2, 4), rng.randint(1, 3)
            if coassociative:
                x = grouplike(field, m)
            else:
                delta = rand_q_matrix(rng, m * m, m) if field == QQ else rand_matrix(rng, field, m * m, m)
                x = Coalgebra(m, field, delta=delta, epsilon=rand_matrix(rng, field, 1, m))
            a0 = direct_sum(x, grouplike(field, k))
            b = grouplike(field, nb)
            f0, g0 = rand_finfun(rng, k, nb), rand_finfun(rng, k, nb)
            g0 = FinFun(f0.dom, f0.cod, (f0.table[0],) + tuple(g0.table[1:]))
            pm = random_basis(rng, field, a0.dim)
            a = rebased(a0, pm)
            told = told or not check_coalgebra(a).ok
            f = CoalgMap(a, b, rand_matrix(rng, field, nb, m).hstack(linearize_fun(f0, field).mat) @ pm)
            g = CoalgMap(a, b, rand_matrix(rng, field, nb, m).hstack(linearize_fun(g0, field).mat) @ pm)
            eq = coalg_equalizer(f, g)
            assert eq.j.mat.cols >= 1
            assert eq.j.mat == kernel_basis_sparse(_hat_difference_oracle(f, g))
        assert told, "every δ drawn was coassociative"


RESTRICTION_FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))


def _outcome(fn, *args):
    """fn(*args), or the message of the InternalSolveFailure it raises."""
    try:
        return fn(*args)
    except InternalSolveFailure as e:
        return str(e)


def _restriction_facts(x, t, z, e):
    """Assert that the solve on t and z in x gives e, the canonical basis of
    E, as K'∘N; return whether dim K' > dim E and whether E ⊄ ker T, for T
    with the row space of t."""
    k, _, system = _equalizer_system(x, t, z)
    assert k @ kernel_basis_sparse(system) == e
    return k.cols > e.cols, any((t @ e).columns)


def test_equalizer_matches_the_oracle_where_the_restriction_matters():
    """On sparse random δ, neither counital nor coassociative, coalg_equalizer
    gives what subcoalgebra gives on the kernel of the exact f_hat - g_hat
    (the structure, or the same failure).  Some samples must have K' larger
    than E and some E outside ker T, or neither the restriction to K' nor z
    is tested."""
    rng = rng_for("eq-restricted")
    seen = [False, False]
    for field in RESTRICTION_FIELDS:
        for _ in range(30):
            n, nb = rng.randint(2, 4), rng.randint(1, 2)
            a, b = rand_raw_coalgebra(rng, field, n), rand_raw_coalgebra(rng, field, nb)
            fm = rand_sparse_matrix(rng, field, nb, n, 0.5)
            f = CoalgMap(a, b, fm)
            g = CoalgMap(a, b, fm + rand_sparse_matrix(rng, field, nb, n, 0.3))
            e = kernel_basis_sparse(_hat_difference_oracle(f, g))
            assert _outcome(coalg_equalizer, f, g) == _outcome(subcoalgebra, a, e)
            seen = [s or x for s, x in zip(seen, _restriction_facts(a, *_t_and_z(f, g), e))]
    assert seen == [True, True]


def _legs_on_tensor(f, g):
    """f⊗ε and ε⊗g on A⊗C."""
    a, c = f.src, g.src
    x = tensor_coalgebra(a, c)
    return CoalgMap(x, f.tgt, kron(f.mat, c.epsilon)), CoalgMap(x, g.tgt, kron(a.epsilon, g.mat))


def test_pullback_matches_the_oracle_where_the_restriction_matters():
    """The pullback of non-counital, non-coassociative data has the equalizer
    of f⊗ε and ε⊗g that subcoalgebra gives on the oracle kernel, or fails as
    it fails, or, when that square does not commute, says so."""
    rng = rng_for("pb-restricted")
    seen = [False, False]
    for field in RESTRICTION_FIELDS:
        base = CoalgCategory(field)
        for _ in range(16):
            na, nc, nb = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
            a, c, b = (rand_raw_coalgebra(rng, field, d) for d in (na, nc, nb))
            f = CoalgMap(a, b, rand_sparse_matrix(rng, field, nb, na, 0.5))
            g = CoalgMap(c, b, rand_sparse_matrix(rng, field, nb, nc, 0.5))
            fe, eg = _legs_on_tensor(f, g)
            e = kernel_basis_sparse(_hat_difference_oracle(fe, eg))
            want = _outcome(subcoalgebra, fe.src, e)
            if not isinstance(want, str) and fe.mat @ e != eg.mat @ e:
                want = "pullback square does not commute"
            got = _outcome(relative_pullback_coalg, base, f, g)
            assert (got if isinstance(got, str) else got.payload) == want
            seen = [s or x for s, x in zip(seen, _restriction_facts(fe.src, *_t_and_z(fe, eg), e))]
    assert seen == [True, True]


def test_pullback_builds_t_and_z_from_the_factors(monkeypatch):
    """The t and z that the pullback hands the solve, built from the factors,
    are T = (1⊗(f⊗ε - ε⊗g))∘δ_{A⊗C} with its rows in A⊗B⊗C order (so
    rref(t) = rref(T)) and (1⊗ε)∘δ_{A⊗C}, on random A and C that are neither
    counital nor coassociative."""
    systems = []
    solve_in = coalg._equalizer
    monkeypatch.setattr(coalg, "_equalizer", lambda *a: systems.append(a) or solve_in(*a))
    rng = rng_for("pb-factors")
    for field in RESTRICTION_FIELDS:
        for _ in range(6):
            na, nc, nb = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            a, c, b = (rand_raw_coalgebra(rng, field, d) for d in (na, nc, nb))
            f = CoalgMap(a, b, rand_sparse_matrix(rng, field, nb, na, 0.6))
            g = CoalgMap(c, b, rand_sparse_matrix(rng, field, nb, nc, 0.6))
            _outcome(relative_pullback_coalg, CoalgCategory(field), f, g)
            x, t, z = systems.pop()
            fe, eg = _legs_on_tensor(f, g)
            i_x = Matrix.identity(field, x.dim)
            big_t = kron_apply(i_x, fe.mat - eg.mat, x.delta)
            assert t == kron(Matrix.identity(field, na), swap_map(field, nc, nb)) @ big_t
            assert t.rref() == big_t.rref()
            assert z == kron_apply(i_x, x.epsilon, x.delta)
            assert not systems


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
                assert pb.payload.j.mat.col_sparse(k) == {a * nc + c: field.one}
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
            assert [j.col_sparse(k) for k in range(j.cols)] == [{a * nc + c: 1} for a, c in pairs]


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
        assert h2.mat.col_sparse(0) == {fpb.payload.index((a, c)): field.one}
        # uniqueness: a perturbed filler breaks a projection equation or stops
        # being induced by the span (the joint-mono certificate is j-level)
        from relspan.linalg import kron_apply

        pair_map = pb.payload.j.mat @ h2.mat
        for idx in range(pb.apex.dim):
            rows = h2.mat.data
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
    swapm = Matrix.from_rows(field, [[0, 1], [1, 0]])
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
    assert x._delta is None


def test_tensor_equality_ignores_bracketing_and_stays_lazy():
    a = primitive_block(QQ)
    left = tensor_coalgebra(tensor_coalgebra(a, a), a)
    right = tensor_coalgebra(a, tensor_coalgebra(a, a))
    assert left == right
    assert left._delta is None and right._delta is None
    assert left.delta == right.delta
    assert left != tensor_coalgebra(tensor_coalgebra(a, grouplike(QQ, 2)), a)
    explicit = Coalgebra(8, QQ, delta=left.delta, epsilon=left.epsilon)
    assert explicit == right and right == explicit
    # same counit as a, different δ: only the column-by-column comparison tells
    odd = Coalgebra(2, QQ, delta=grouplike(QQ, 2).delta, epsilon=a.epsilon)
    assert explicit != tensor_coalgebra(a, tensor_coalgebra(a, odd))
