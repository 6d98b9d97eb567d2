"""Taft algebras T_n(q) over F_p: bialgebras that are neither group algebras
nor cocommutative, so class S refuses spans of them."""

import itertools

import pytest

from gen import bialgebra_relcat, group_algebra, taft
from relspan import (
    CoalgCategory,
    CoalgMap,
    Matrix,
    MonoidMorphism,
    check_coalg_map,
    check_monoid,
    check_monoid_morphism,
    check_relative_category,
    class_S_witness,
    compare_cotensor_pullback,
    cotensor,
    grouplike,
    relative_pullback,
)
from relspan.coalg import cid
from relspan.errors import LegsNotInClass

# every n ≤ 4 dividing p - 1 for a prime p ≤ 13, and every q in F_p; n starts
# at 2, since T_1(q) is the ground field for every q
CASES = [(n, q, p) for p in (2, 3, 5, 7, 11, 13) for n in (2, 3, 4) if (p - 1) % n == 0 for q in range(p)]


def _order(q, p):
    return next((k for k in range(1, p) if pow(q, k, p) == 1), None)


def _projection(t, n):
    """π: T_n(q) → k[C_n], g^i x^j ↦ [j = 0] g^i."""
    f = t.field
    cols = [{i: f.one} if j == 0 else {} for i in range(n) for j in range(n)]
    return CoalgMap(t, grouplike(f, n), Matrix.from_cols(f, n, cols))


def test_taft_algebra_is_a_bialgebra_exactly_when_q_has_order_n():
    assert len(CASES) == 77
    for n, q, p in CASES:
        assert check_monoid(taft(n, q, p)).ok == (_order(q, p) == n), (n, q, p)


@pytest.mark.parametrize("n, p, orders", [(5, 11, [3, 4, 5, 9]), (6, 7, [3, 5])])
def test_taft_algebras_of_order_five_and_six_are_bialgebras_exactly_when_q_has_order_n(n, p, orders):
    """For every q in F_p; T_6 over F_13, slower, is left to a benchmark family."""
    assert [q for q in range(p) if _order(q, p) == n] == orders
    assert [q for q in range(p) if check_monoid(taft(n, q, p)).ok] == orders


def test_taft_algebra_with_q_one_fails_only_the_comultiplication():
    rep = check_monoid(taft(2, 1, 5))
    assert [(c.name, c.witness) for c in rep.checks if not c.ok] == [
        ("multiplication is a coalgebra map: comultiplication intertwined", "basis 5")]


def test_class_S_refuses_the_identity_span_and_the_pullback_along_the_projection():
    """x is not cocommutative, so (1_T, 1_T) is not in S, while (π, π) is;
    (1_T, π) is not, so π and π have no relative pullback, though their
    cotensor, of dimension n³, exists."""
    for n, q, p in CASES:
        mon = taft(n, q, p)
        t, pi = mon.carrier, _projection(mon.carrier, n)
        assert class_S_witness(cid(t), cid(t)) == "basis 1", (n, q, p)
        assert class_S_witness(pi, pi) is None, (n, q, p)
        with pytest.raises(LegsNotInClass):
            relative_pullback(mon.base, pi, pi)
        assert cotensor(pi, pi).cols == n**3, (n, q, p)


# a Taft algebra for each n, over the smallest prime with an element of order n
BIALGEBRAS = [(2, 2, 3), (3, 2, 7), (4, 2, 5)]


def _monoid_maps(mon, n):
    """k[C_n] and the monoid morphisms π: T_n(q) → k[C_n] and ι: k[C_n] → T_n(q),
    g^i ↦ g^i."""
    f, t = mon.carrier.field, mon.carrier
    kc = group_algebra(f, [[(i + j) % n for j in range(n)] for i in range(n)])
    pi = CoalgMap(t, kc.carrier, _projection(t, n).mat)
    iota = CoalgMap(kc.carrier, t, Matrix.from_cols(f, n * n, [{i * n: f.one} for i in range(n)]))
    return kc, MonoidMorphism(mon, kc, pi), MonoidMorphism(kc, mon, iota)


def _first_unmultiplicative_pair(f, mon, kc):
    """The first (a, b), in row-major order, with f(ab) ≠ f(a)f(b), by
    multiplying out f's images in k[C_n]: an oracle for check_monoid_morphism."""
    fld, d, n = mon.carrier.field, mon.carrier.dim, kc.carrier.dim
    cols, m = f.mat.columns, mon.m.mat.columns
    for a, b in itertools.product(range(d), repeat=2):
        lhs = {}
        for r, c in m[a * d + b].items():
            for i, v in cols[r].items():
                lhs[i] = fld.normalize(lhs.get(i, 0) + c * v)
        rhs = {}
        for i, x in cols[a].items():
            for k, y in cols[b].items():
                rhs[(i + k) % n] = fld.normalize(rhs.get((i + k) % n, 0) + x * y)
        if {i: v for i, v in lhs.items() if v} != {i: v for i, v in rhs.items() if v}:
            return f"({a},{b})"
    return None


def test_projection_and_inclusion_are_monoid_morphisms_and_a_planted_fault_is_found():
    """π and ι pass; π' = π + (g^i x ↦ g^i) fails at (x, x) = (1,1), where
    π'(x²) = 0 but π'(x)² = 1, as the oracle finds."""
    for n, q, p in BIALGEBRAS:
        mon = taft(n, q, p)
        kc, pi, iota = _monoid_maps(mon, n)
        assert check_monoid_morphism(pi).ok and check_monoid_morphism(iota).ok, (n, q, p)
        f = mon.carrier.field
        cols = [{i: f.one} if j <= 1 else {} for i in range(n) for j in range(n)]
        bad = MonoidMorphism(mon, kc, CoalgMap(mon.carrier, kc.carrier, Matrix.from_cols(f, n, cols)))
        rep = check_monoid_morphism(bad)
        assert [(c.name, c.witness) for c in rep.failures()] == [("multiplicative", "(1,1)")], (n, q, p)
        assert _first_unmultiplicative_pair(bad.f, mon, kc) == "(1,1)"


def test_pullbacks_along_the_counit_and_the_inclusion_are_their_cotensors():
    """Along ε: T → k the pullback is all of T⊗T, of dimension n⁴; along
    ι: k[C_n] → T it is the diagonal of k[C_n]⊗k[C_n], of dimension n."""
    for n, q, p in BIALGEBRAS:
        mon = taft(n, q, p)
        t, base = mon.carrier, mon.base
        eps = CoalgMap(t, base.unit_obj(), t.epsilon)
        iota = _monoid_maps(mon, n)[2].f
        for leg, dim in ((eps, n**4), (iota, n)):
            assert relative_pullback(base, leg, leg).apex.dim == dim, (n, q, p)
            assert compare_cotensor_pullback(leg, leg).ok, (n, q, p)


def test_taft_algebra_is_a_relative_category_over_k_exactly_when_it_is_a_bialgebra():
    """T_n(q) as a relative category over k (gen.bialgebra_relcat): s = t = ε
    and d = m∘(p_A⊗p_C)∘δ_P on the pullback of (ε, ε), a counital pullback
    on a C that is not cocommutative.  With d and u coalgebra maps, the
    check holds exactly when check_monoid does.  T_2(1) passes the relative
    category check and fails only in d; T_3(3) over F_7 fails (e)."""
    fails = {(2, 1, 5): [], (2, 1, 3): [], (3, 3, 7): ["(e) associativity"]}
    for n, q, p in [(2, 4, 5), (2, 2, 3), (3, 2, 7), (3, 4, 7), *fails]:
        mon = taft(n, q, p)
        rc = bialgebra_relcat(mon)
        assert rc.pb.apex.dim == n**4 and not mon.carrier.cocommutative
        rep, d_map = check_relative_category(rc), check_coalg_map(rc.d)
        assert [c.name for c in rep.failures()] == fails.get((n, q, p), []), (n, q, p)
        assert d_map.ok == ((n, q, p) not in fails), (n, q, p)
        assert (rep.ok and d_map.ok and check_coalg_map(mon.u).ok) == check_monoid(mon).ok, (n, q, p)


def _times(fld, m, d, x, y):
    """The product of two vectors of T, {basis index: coefficient}, through m."""
    out = {}
    for a, u in x.items():
        for b, v in y.items():
            for r, c in m[a * d + b].items():
                out[r] = fld.normalize(out.get(r, 0) + u * v * c)
    return {r: c for r, c in out.items() if c}


def test_associativity_witness_is_the_first_triple_that_fails(monkeypatch):
    """T_3(3) over F_7 is not associative, 3 not being of order 3 mod 7: the
    witness is the first (a,b,c) in row-major order with (ab)c ≠ a(bc), by
    multiplying out, and the check builds no m⊗1 or 1⊗m."""
    mon = taft(3, 3, 7)
    monkeypatch.setattr(CoalgCategory, "tensor_mor", None)
    fld, d, m = mon.carrier.field, mon.carrier.dim, mon.m.mat.columns
    e = [{a: fld.one} for a in range(d)]
    first = next(f"({a},{b},{c})" for a, b, c in itertools.product(range(d), repeat=3)
                 if _times(fld, m, d, _times(fld, m, d, e[a], e[b]), e[c])
                 != _times(fld, m, d, e[a], _times(fld, m, d, e[b], e[c])))
    rep = check_monoid(mon)
    assert first == "(1,3,6)" and rep.checks[0].name == "associativity" and rep.checks[0].witness == first
