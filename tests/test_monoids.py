"""Monoid theory over both instances: axioms, q, distributive laws, bijections."""

import itertools

import pytest

from gen import (
    FIELDS,
    all_monoids,
    dense,
    finset_monoid,
    group_algebra,
    group_c2,
    group_c3,
    mat,
    mutate_one_entry,
    random_basis,
    rebased_map,
    rng_for,
)
from relspan import (
    FINSET,
    GF,
    QQ,
    CoalgCategory,
    CoalgMap,
    DistLaw,
    FinFun,
    FinSetObj,
    Matrix,
    MonoidMorphism,
    MonoidObj,
    check_dist_law,
    check_monoid,
    check_monoid_morphism,
    factor_through,
    factorization_dlaw,
    grouplike,
    induced_q,
    kron,
    morphism_from_pair,
    pair_from_morphism,
    product_monoid,
    trivial,
)
from relspan import coalg
from relspan.errors import (
    CodomainMismatch,
    CompatibilityFails,
    NotADistLaw,
    NotInverse,
    ShapeMismatch,
)
from relspan.monoids import inclusion_a, inclusion_b


def swap_dlaw(a: MonoidObj, b: MonoidObj) -> DistLaw:
    return DistLaw(a, b, a.base.symmetry(b.carrier, a.carrier))


def _surjective(f: FinFun) -> bool:
    return set(f.table) == set(range(f.cod.size))


def trivial_finset_monoid():
    return finset_monoid((0,), 0, FINSET)


def z2_monoid():
    return finset_monoid((0, 1, 1, 0), 0, FINSET)


def test_check_monoid_rejects_structure_maps_of_the_wrong_shape():
    z2 = z2_monoid()
    two = z2.carrier
    with pytest.raises(ShapeMismatch, match="multiplication has the wrong shape"):
        check_monoid(MonoidObj(FINSET, two, FINSET.identity(two), z2.u))
    with pytest.raises(ShapeMismatch, match="unit has the wrong shape"):
        check_monoid(MonoidObj(FINSET, two, z2.m, FinFun(two, two, (0, 0))))


def trivial_coalg_monoid(field):
    base = CoalgCategory(field)
    t = trivial(field)
    one = base.identity(t)
    from relspan import CoalgMap

    m = CoalgMap(base.tensor_obj(t, t), t, mat(field, [[1]]))
    return MonoidObj(base, t, m, one)


# -- axiom checks -------------------------------------------------------------


def test_trivial_monoids_pass():
    assert check_monoid(trivial_finset_monoid()).ok
    for field in FIELDS:
        assert check_monoid(trivial_coalg_monoid(field)).ok


def test_z2_and_group_algebra_pass():
    assert check_monoid(z2_monoid()).ok
    for field in FIELDS:
        kc2 = group_algebra(field, group_c2())
        rep = check_monoid(kc2)
        assert rep.ok, [c.name for c in rep.failures()]
        # the bialgebra conditions were actually checked
        assert any("coalgebra map" in c.name for c in rep.checks)


def test_broken_bialgebra_multiplication_detected():
    from relspan import CoalgMap, Matrix

    field = QQ
    kc2 = group_algebra(field, group_c2())
    rows = dense(kc2.m.mat)
    rows[0][3] = field.zero  # drop 1*1 = 0 entirely
    bad_mat = Matrix(field, rows, 2, 4)

    bad = MonoidObj(kc2.base, kc2.carrier, CoalgMap(kc2.m.src, kc2.m.tgt, bad_mat), kc2.u)
    assert not check_monoid(bad).ok


def test_swap_is_a_distributive_law_finset():
    rng = rng_for("dlaw-swap")
    monoids2 = [finset_monoid(t, u, FINSET) for t, u in all_monoids(2)]
    for a in monoids2:
        for b in monoids2:
            assert check_dist_law(swap_dlaw(a, b)).ok
    del rng


def test_swap_is_a_distributive_law_coalg():
    for field in FIELDS:
        a = group_algebra(field, group_c2())
        b = group_algebra(field, [[0]])
        assert check_dist_law(swap_dlaw(a, b)).ok


# -- induced q -----------------------------------------------------------------


def test_q_identity_on_product_injections():
    a, b = z2_monoid(), z2_monoid()
    dl = swap_dlaw(a, b)
    prod = product_monoid(dl)
    f = inclusion_a(dl, prod)
    g = inclusion_b(dl, prod)
    assert check_monoid_morphism(f).ok and check_monoid_morphism(g).ok
    q = induced_q(f, g)
    assert q == FINSET.identity(prod.carrier)
    assert _surjective(q)


def test_q_from_trivial_monoid():
    t = trivial_finset_monoid()
    c = z2_monoid()
    u = MonoidMorphism(t, c, FinFun(FinSetObj(1), FinSetObj(2), (0,)))
    q = induced_q(u, u)
    assert q.table == (0,)
    assert not _surjective(q)  # C is not trivial


def test_q_addition_table_surjective():
    c = z2_monoid()
    i = MonoidMorphism(c, c, FINSET.identity(c.carrier))
    q = induced_q(i, i)
    assert q == c.m
    assert _surjective(q)


def test_joint_epi_consequence_small():
    """If q is epi then monoid morphisms out of C agree once they agree on f, g."""
    c = z2_monoid()
    i = MonoidMorphism(c, c, FINSET.identity(c.carrier))
    assert _surjective(induced_q(i, i))
    targets = [finset_monoid(t, u, FINSET) for t, u in all_monoids(2)]
    for tgt in targets:
        homs = []
        for table in __import__("itertools").product(range(2), repeat=2):
            f = FinFun(c.carrier, tgt.carrier, table)
            if check_monoid_morphism(MonoidMorphism(c, tgt, f)).ok:
                homs.append(f)
        for x in homs:
            for y in homs:
                if FINSET.compose(x, i.f) == FINSET.compose(y, i.f):
                    assert x == y


# -- product monoids -------------------------------------------------------------


def test_product_monoid_is_direct_product_exhaustive_size2():
    monoids2 = [finset_monoid(t, u, FINSET) for t, u in all_monoids(2)]
    for a in monoids2:
        for b in monoids2:
            prod = product_monoid(swap_dlaw(a, b))
            assert check_monoid(prod).ok
            na, nb = 2, 2
            for x1 in range(na):
                for y1 in range(nb):
                    for x2 in range(na):
                        for y2 in range(nb):
                            got = prod.m.table[(x1 * nb + y1) * (na * nb) + (x2 * nb + y2)]
                            want_x = a.m.table[x1 * na + x2]
                            want_y = b.m.table[y1 * nb + y2]
                            assert got == want_x * nb + want_y
            assert check_monoid_morphism(inclusion_a(swap_dlaw(a, b), prod)).ok
            assert check_monoid_morphism(inclusion_b(swap_dlaw(a, b), prod)).ok


def test_product_with_trivial_is_original():
    a = z2_monoid()
    t = trivial_finset_monoid()
    prod = product_monoid(swap_dlaw(a, t))
    assert prod.carrier == a.carrier
    assert prod.m == a.m and prod.u == a.u


def test_product_monoid_grouplike_coalg():
    for field in FIELDS:
        a = group_algebra(field, group_c2())
        b = group_algebra(field, group_c2())
        prod = product_monoid(swap_dlaw(a, b))
        rep = check_monoid(prod)
        assert rep.ok
        # oracle: the product bialgebra is the group algebra of C2 x C2
        want = group_algebra(field, [[i ^ j for j in range(4)] for i in range(4)])
        assert prod.m.mat == want.m.mat
        assert prod.u.mat == want.u.mat
        assert prod.carrier == want.carrier


def test_product_monoid_rejects_non_dlaw():
    a = z2_monoid()
    # x = constant map is not a distributive law for Z/2
    x = FinFun(FinSetObj(4), FinSetObj(4), (0, 0, 0, 0))
    with pytest.raises(NotADistLaw):
        product_monoid(DistLaw(a, a, x))


# -- factorization through an invertible q ------------------------------------------


def relabeled_product(a: MonoidObj, b: MonoidObj, perm):
    """The product monoid transported along a carrier permutation."""
    base = a.base
    prod = product_monoid(swap_dlaw(a, b))
    n = prod.carrier.size
    sigma = FinFun(prod.carrier, prod.carrier, perm)
    sigma_inv = base.invert(sigma)
    m = base.compose(sigma, base.compose(prod.m, base.tensor_mor(sigma_inv, sigma_inv)))
    u = base.compose(sigma, prod.u)
    c = MonoidObj(base, prod.carrier, m, u)
    f = MonoidMorphism(a, c, base.compose(sigma, inclusion_a(swap_dlaw(a, b), prod).f))
    g = MonoidMorphism(b, c, base.compose(sigma, inclusion_b(swap_dlaw(a, b), prod).f))
    del n
    return c, f, g


def test_factorization_dlaw_roundtrips_to_swap():
    a, b = z2_monoid(), z2_monoid()
    dl = swap_dlaw(a, b)
    prod = product_monoid(dl)
    f = inclusion_a(dl, prod)
    g = inclusion_b(dl, prod)
    got = factorization_dlaw(f, g)
    assert got.x == dl.x


def test_factorization_dlaw_on_relabeled_product():
    rng = rng_for("fact-dlaw")
    monoids2 = [finset_monoid(t, u, FINSET) for t, u in all_monoids(2)]
    for _ in range(6):
        a = rng.choice(monoids2)
        b = rng.choice(monoids2)
        perm = list(range(4))
        rng.shuffle(perm)
        c, f, g = relabeled_product(a, b, perm)
        assert check_monoid(c).ok
        dl = factorization_dlaw(f, g)
        assert check_dist_law(dl).ok
        prod = product_monoid(dl)
        q = induced_q(f, g)
        # q is a monoid isomorphism from the induced product to C
        mm = MonoidMorphism(prod, c, q)
        assert check_monoid_morphism(mm).ok
        assert FINSET.invert(q) is not None


def test_factorization_dlaw_grouplike_coalg():
    for field in FIELDS:
        a = group_algebra(field, group_c2())
        b = group_algebra(field, group_c2())
        dl = swap_dlaw(a, b)
        prod = product_monoid(dl)
        f = inclusion_a(dl, prod)
        g = inclusion_b(dl, prod)
        got = factorization_dlaw(f, g)
        assert got.x.mat == dl.x.mat


def test_factorization_dlaw_rejects_bad_inverse():
    a, b = z2_monoid(), z2_monoid()
    dl = swap_dlaw(a, b)
    prod = product_monoid(dl)
    f = inclusion_a(dl, prod)
    g = inclusion_b(dl, prod)
    not_inv = FinFun(prod.carrier, prod.carrier, (0, 0, 0, 0))
    with pytest.raises(NotInverse):
        factorization_dlaw(f, g, not_inv)


# -- pair <-> morphism bijection ------------------------------------------------------


def enumerate_monoid_morphisms(src: MonoidObj, tgt: MonoidObj):
    import itertools

    n, m = src.carrier.size, tgt.carrier.size
    for table in itertools.product(range(m), repeat=n):
        f = FinFun(src.carrier, tgt.carrier, table)
        if check_monoid_morphism(MonoidMorphism(src, tgt, f)).ok:
            yield MonoidMorphism(src, tgt, f)


def test_pair_morphism_bijection_exhaustive_size2():
    monoids2 = [finset_monoid(t, u, FINSET) for t, u in all_monoids(2)]
    for a in monoids2:
        for b in monoids2:
            dl = swap_dlaw(a, b)
            prod = product_monoid(dl)
            for c in monoids2:
                # morphism -> pair -> morphism round-trip
                for mor in enumerate_monoid_morphisms(prod, c):
                    pa, pb = pair_from_morphism(dl, mor)
                    assert check_monoid_morphism(pa).ok
                    assert check_monoid_morphism(pb).ok
                    back = morphism_from_pair(dl, pa, pb)
                    assert back.f == mor.f
                # pair -> morphism -> pair round-trip on compatible pairs
                for pa in enumerate_monoid_morphisms(a, c):
                    for pb in enumerate_monoid_morphisms(b, c):
                        try:
                            mor = morphism_from_pair(dl, pa, pb)
                        except CompatibilityFails:
                            continue
                        assert check_monoid_morphism(mor).ok
                        qa, qb = pair_from_morphism(dl, mor)
                        assert qa.f == pa.f and qb.f == pb.f


def test_morphism_from_pair_unit_morphisms():
    a, b = z2_monoid(), z2_monoid()
    dl = swap_dlaw(a, b)
    c = z2_monoid()
    ua = MonoidMorphism(a, c, FinFun(a.carrier, c.carrier, (0, 0)))
    ub = MonoidMorphism(b, c, FinFun(b.carrier, c.carrier, (0, 0)))
    mor = morphism_from_pair(dl, ua, ub)
    assert set(mor.f.table) == {0}


def test_morphism_from_pair_z2_addition():
    a, b = z2_monoid(), z2_monoid()
    dl = swap_dlaw(a, b)
    c = z2_monoid()
    ida = MonoidMorphism(a, c, FINSET.identity(c.carrier))
    mor = morphism_from_pair(dl, ida, ida)
    # (s, t) -> s + t
    assert mor.f.table == (0, 1, 1, 0)


# -- factor through --------------------------------------------------------------------


def test_factor_through_reproduces_legs():
    monoids2 = [finset_monoid(t, u, FINSET) for t, u in all_monoids(2)]
    for a in monoids2:
        for b in monoids2:
            dl = swap_dlaw(a, b)
            prod = product_monoid(dl)
            f = inclusion_a(dl, prod)
            g = inclusion_b(dl, prod)
            q_inv = FINSET.invert(induced_q(f, g))
            for d in monoids2:
                for pa in enumerate_monoid_morphisms(a, d):
                    for pb in enumerate_monoid_morphisms(b, d):
                        try:
                            c = factor_through(f, g, q_inv, pa, pb)
                        except CompatibilityFails:
                            continue
                        assert check_monoid_morphism(c).ok
                        assert FINSET.compose(c.f, f.f) == pa.f
                        assert FINSET.compose(c.f, g.f) == pb.f


def test_factor_through_identity_case():
    a, b = z2_monoid(), z2_monoid()
    dl = swap_dlaw(a, b)
    prod = product_monoid(dl)
    f = inclusion_a(dl, prod)
    g = inclusion_b(dl, prod)
    q_inv = FINSET.invert(induced_q(f, g))
    c = factor_through(f, g, q_inv, f, g)
    assert c.f == FINSET.identity(prod.carrier)


def test_constructions_refuse_two_monoids_on_one_carrier():
    """xor (unit 0) and and (unit 1) are two monoids on one two-element set;
    morphisms into them are not combined, while morphisms into two equal
    monoid objects are."""
    xor, conj = finset_monoid((0, 1, 1, 0), 0, FINSET), finset_monoid((0, 0, 0, 1), 1, FINSET)
    one = trivial_finset_monoid()
    assert check_monoid(xor).ok and check_monoid(conj).ok
    assert xor.carrier == conj.carrier
    f = MonoidMorphism(one, xor, FinFun(one.carrier, xor.carrier, (0,)))
    g = MonoidMorphism(one, conj, FinFun(one.carrier, conj.carrier, (1,)))
    assert check_monoid_morphism(f).ok and check_monoid_morphism(g).ok
    with pytest.raises(CodomainMismatch, match="induced_q needs a common codomain monoid"):
        induced_q(f, g)
    # or (unit 0) differs from xor only in its multiplication
    disj = finset_monoid((0, 1, 1, 1), 0, FINSET)
    with pytest.raises(CodomainMismatch, match="induced_q needs a common codomain monoid"):
        induced_q(f, MonoidMorphism(one, disj, f.f))
    dl = swap_dlaw(one, one)
    with pytest.raises(CodomainMismatch, match="morphism_from_pair needs a common codomain"):
        morphism_from_pair(dl, f, g)
    prod = product_monoid(dl)
    fi, gi = inclusion_a(dl, prod), inclusion_b(dl, prod)
    q_inv = FINSET.invert(induced_q(fi, gi))
    with pytest.raises(CodomainMismatch, match="factor_through needs a common codomain"):
        factor_through(fi, gi, q_inv, f, g)
    xor2 = finset_monoid((0, 1, 1, 0), 0, FINSET)
    f2 = MonoidMorphism(one, xor2, f.f)
    assert induced_q(f, f2).table == (0,)
    assert morphism_from_pair(dl, f, f2).f.table == (0,)
    assert factor_through(fi, gi, q_inv, f, f2).f.table == (0,)


# -- refusals --------------------------------------------------------------------


def s3_monoid():
    """The symmetric group on three points, its elements the permutations in
    lexicographic order (0 the identity, 1, 2 and 5 transpositions, 3 and 4
    the 3-cycles), (pq)(k) = p(q(k))."""
    perms = list(itertools.permutations(range(3)))
    table = tuple(perms.index(tuple(p[q[k]] for k in range(3))) for p in perms for q in perms)
    return finset_monoid(table, 0, FINSET)


def _into(src, tgt, table):
    return MonoidMorphism(src, tgt, FinFun(src.carrier, tgt.carrier, table))


def _not_a_dlaw():
    """f: ℤ/2 → S_3 hits a transposition and g: ℤ/3 → S_3 the identity, the
    other transposition and a 3-cycle, so q is a bijection, but g is not
    multiplicative and x is not a distributive law."""
    z3 = finset_monoid(tuple((i + j) % 3 for i in range(3) for j in range(3)), 0, FINSET)
    s3 = s3_monoid()
    return factorization_dlaw(_into(z2_monoid(), s3, (0, 1)), _into(z3, s3, (0, 2, 3)))


def _incompatible_pair():
    """a and b send the generators of ℤ/2 × ℤ/2 to two transpositions of
    S_3, which do not commute."""
    dl = swap_dlaw(z2_monoid(), z2_monoid())
    prod = product_monoid(dl)
    f, g = inclusion_a(dl, prod), inclusion_b(dl, prod)
    s3 = s3_monoid()
    a, b = _into(dl.a, s3, (0, 1)), _into(dl.b, s3, (0, 2))
    return factor_through(f, g, FINSET.invert(induced_q(f, g)), a, b)


def _identities_of_z2():
    """q = m: ℤ/2 × ℤ/2 → ℤ/2 has no inverse."""
    z2 = z2_monoid()
    return factorization_dlaw(_into(z2, z2, (0, 1)), _into(z2, z2, (0, 1)))


@pytest.mark.parametrize("call, error, message", [
    (_identities_of_z2, NotInverse, "q is not invertible and no inverse was supplied"),
    (_not_a_dlaw, NotADistLaw, "x∘(m⊗1) = (1⊗m)∘(x⊗1)∘(1⊗x)"),
    (_incompatible_pair, CompatibilityFails, "m∘(a⊗b)∘q⁻¹∘m∘(g⊗f) and m∘(b⊗a) differ at (1,1)"),
], ids=["q-not-invertible", "not-a-distributive-law", "incompatible-pair"])
def test_monoid_construction_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# -- a bialgebra in a random basis -----------------------------------------------


def rebased_kc3():
    """k[C_3] over F_5 in a random basis P: m' = P⁻¹∘m∘(P⊗P) and u' = P⁻¹∘u,
    each of whose columns has more than one nonzero."""
    fld = GF(5)
    mon = group_algebra(fld, group_c3())
    pm = random_basis(rng_for("rebased-kc3"), fld, 3)
    m = rebased_map(mon.m, kron(pm, pm), pm)
    u = rebased_map(mon.u, Matrix.identity(fld, 1), pm)
    assert all(len(col) > 1 for col in m.mat.columns + u.mat.columns)
    return MonoidObj(mon.base, m.tgt, m, u)


def test_a_bialgebra_in_a_random_basis_is_checked_through_combinations_of_columns(monkeypatch):
    """Each basis vector e_p of A⊗A in m∘(m⊗1), and the one of k in
    m∘(u⊗1), meets a column m(e_p) or u(1) with several nonzeros, so the
    check sums slices of m (coalg._combination) ten times."""
    sizes, combination = [], coalg._combination

    def spy(g, v, w):
        sizes.append(len(v))
        return combination(g, v, w)

    monkeypatch.setattr(coalg, "_combination", spy)
    assert check_monoid(rebased_kc3()).ok
    assert sum(n > 1 for n in sizes) == 10


def _first_unassociative_triple(mon):
    """The first (a,b,c), row-major, at which m∘(m⊗1) and m∘(1⊗m), both
    built whole with tensor_mor and compose, differ; None if none does."""
    base, d = mon.base, mon.carrier.dim
    ida = base.identity(mon.carrier)
    lhs = base.compose(mon.m, base.tensor_mor(mon.m, ida)).mat.columns
    rhs = base.compose(mon.m, base.tensor_mor(ida, mon.m)).mat.columns
    j = next((j for j, (x, y) in enumerate(zip(lhs, rhs)) if x != y), None)
    return None if j is None else f"({j // (d * d)},{j // d % d},{j % d})"


def test_a_mutated_multiplication_fails_associativity_at_the_oracles_first_triple():
    mon, rng = rebased_kc3(), rng_for("rebased-kc3-mutants")
    witnesses = []
    for _ in range(5):
        m = CoalgMap(mon.m.src, mon.m.tgt, mutate_one_entry(rng, GF(5), mon.m.mat))
        bad = MonoidObj(mon.base, mon.carrier, m, mon.u)
        rep = check_monoid(bad)
        assert rep.checks[0].name == "associativity"
        witnesses.append(rep.checks[0].witness)
        assert witnesses[-1] == _first_unassociative_triple(bad)
    assert None not in witnesses
