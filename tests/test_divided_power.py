"""An independent oracle beyond group-like data: divided-power coalgebras.

D_m = (k[x]/xᵐ)* is cocommutative and not group-like.  A cospan of maps dual
to substitutions z ↦ p(x) and z ↦ q(y) has cotensor product
D_a □_{D_b} D_c dual to k[x,y]/(xᵃ, yᶜ, p(x) − q(y)), whose dimension sympy
computes from a Gröbner basis as the count of standard monomials.  Cocommutative
coalgebras form a cartesian category, so every span of them lies in S.
"""

import importlib.util
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import divided_power, divided_power_bialgebra, rand_substitution_poly, rng_for, substitution_dual
from relspan import GF, QQ, CoalgCategory, check_coalg_map, check_coalgebra, check_monoid, class_S_witness
from relspan import compare_cotensor_pullback, relative_pullback

ORACLE_FIELDS = (QQ, GF(2), GF(3), GF(5))


def _scalars(field):
    return st.integers(-3, 3).map(field.of)


def _poly(data, field, a, b):
    order = -(-a // b)
    free = max(0, a - order)
    return [0] * order + data.draw(st.lists(_scalars(field), min_size=free, max_size=free))


def quotient_dim(sp, field, a, c, p, q):
    """dim k[x,y]/(xᵃ, yᶜ, p(x) − q(y)) over field, from a Gröbner basis."""
    x, y = sp.symbols("x y")
    diff = sum(sp.Rational(str(v)) * x**i for i, v in enumerate(p)) - sum(
        sp.Rational(str(v)) * y**i for i, v in enumerate(q)
    )
    gens = [x**a, y**c] + ([diff] if diff != 0 else [])
    opts = {} if field == QQ else {"modulus": field.p}
    basis = sp.groebner(gens, x, y, order="grevlex", **opts)
    leads = [sp.Poly(g, x, y).monoms(order="grevlex")[0] for g in basis.exprs]
    return sum(
        1
        for i in range(a)
        for j in range(c)
        if not any(u <= i and v <= j for u, v in leads)
    )


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None, reason="sympy not installed")
@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(ORACLE_FIELDS),
    a=st.integers(1, 6),
    b=st.integers(1, 5),
    c=st.integers(1, 6),
    data=st.data(),
)
def test_divided_power_pullback_matches_groebner_dimension(field, a, b, c, data):
    import sympy as sp

    da, db, dc = divided_power(field, a), divided_power(field, b), divided_power(field, c)
    p, q = _poly(data, field, a, b), _poly(data, field, c, b)
    f, g = substitution_dual(da, db, p), substitution_dual(dc, db, q)
    assert check_coalg_map(f).ok and check_coalg_map(g).ok
    pb = relative_pullback(CoalgCategory(field), f, g)
    assert pb.apex.dim == quotient_dim(sp, field, a, c, p, q)
    assert pb.jointly_monic and check_coalgebra(pb.apex).ok
    assert compare_cotensor_pullback(f, g).ok


def test_divided_power_spans_are_in_class_s():
    rng = rng_for("divided-power-class-s")
    for field in ORACLE_FIELDS:
        for _ in range(10):
            a, b, c = rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 5)
            da = divided_power(field, a)
            f = substitution_dual(da, divided_power(field, b), rand_substitution_poly(rng, field, a, b))
            g = substitution_dual(da, divided_power(field, c), rand_substitution_poly(rng, field, a, c))
            assert check_coalg_map(f).ok and check_coalg_map(g).ok
            assert class_S_witness(f, g) is None


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_divided_power_bialgebra_is_a_monoid_exactly_when_m_is_a_power_of_p(field):
    """D_m with m(d_i⊗d_j) = C(i+j, i)·d_{i+j}, truncated at m: associativity
    and both unit laws hold for every m, and m is a coalgebra map exactly
    when C(i+j, i) vanishes in the field whenever i + j ≥ m, by Kummer's
    theorem when m is a power of p, and over Q only for m = 1.  Otherwise
    (m⊗m)∘δ puts C(i+j, i) = Σ_b C(i, b)·C(j, b) on d_i⊗d_j where δ∘m is 0,
    so the witness is the least such index i·m + j."""
    powers = {1} if field == QQ else {field.p**k for k in range(4)}
    for m in range(1, 10):
        rep = check_monoid(divided_power_bialgebra(field, m))
        want = next((i * m + j for i in range(m) for j in range(m)
                     if i + j >= m and field.of(comb(i + j, i))), None)
        assert rep.ok == (m in powers) == (want is None), (field, m)
        assert [c.name for c in rep.checks][:3] == ["associativity", "left unit", "right unit"]
        assert [(c.name, c.witness) for c in rep.failures()] == ([] if want is None else [
            ("multiplication is a coalgebra map: comultiplication intertwined", f"basis {want}")])
