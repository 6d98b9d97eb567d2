"""An oracle beyond cocommutative data: matrix coalgebras.

M_nᶜ, the dual of the matrix algebra M_n, has δ(e_ij) = Σ_k e_ik⊗e_kj and is
not cocommutative for n ≥ 2.  For m | n the algebra map M_m -> M_n,
E_kl ↦ E_kl⊗I_{n/m}, dualizes to a coalgebra map M_nᶜ -> M_mᶜ.  A cospan
M_nᶜ -> M_mᶜ <- M_pᶜ of such maps has a cotensor product of dimension
n²p²/m²; its legs are in class S only over M_1ᶜ = k, where the relative
pullback is the tensor product M_nᶜ⊗M_pᶜ, a positive class-S case that is not
cocommutative.  Rebased by random invertible matrices P, (P⁻¹⊗P⁻¹)∘δ∘P with
the maps conjugated to match, the same cospans give dense data.
"""

import pytest

from gen import (
    block_inclusion_dual,
    matrix_coalgebra,
    random_basis,
    rebased_map,
    rng_for,
)
from relspan import (
    GF,
    QQ,
    CoalgCategory,
    check_coalg_map,
    check_coalgebra,
    compare_cotensor_pullback,
    cotensor,
    is_cocommutative,
    legs_in_class,
    relative_pullback,
)
from relspan.errors import LegsNotInClass

MATRIX_FIELDS = (QQ, GF(5), GF(7))
CASES = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (4, 2, 2), (4, 2, 4), (6, 3, 3)]


def _cospan(field, n, m, p):
    """M_nᶜ -> M_mᶜ <- M_pᶜ over one shared M_mᶜ."""
    mid = matrix_coalgebra(field, m)
    f = block_inclusion_dual(matrix_coalgebra(field, n), mid)
    g = block_inclusion_dual(matrix_coalgebra(field, p), mid)
    return f, g


@pytest.mark.parametrize("field", MATRIX_FIELDS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_coalgebra_axioms_and_cocommutativity(field, n):
    c = matrix_coalgebra(field, n)
    assert check_coalgebra(c).ok
    assert is_cocommutative(c) == (n == 1)


# Rebased ℚ data grows large denominators, so ℚ takes the smaller shapes.
REBASED_CASES = [(QQ, shape) for shape in [(2, 1, 2), (2, 2, 2)]] + [
    (field, shape) for field in (GF(5), GF(7))
    for shape in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (4, 2, 2), (2, 2, 4)]
]


def _rebased_cospan(field, n, m, p):
    """_cospan with M_nᶜ, M_mᶜ and M_pᶜ each rebased by a random P."""
    rng = rng_for(f"matrix-rebased-{field!r}-{n}-{m}-{p}")
    pa, pb, pc = (random_basis(rng, field, d * d) for d in (n, m, p))
    f, g = _cospan(field, n, m, p)
    return rebased_map(f, pa, pb), rebased_map(g, pc, pb)


def _assert_cospan_oracle(field, f, g, n, m, p):
    assert check_coalg_map(f).ok and check_coalg_map(g).ok
    assert cotensor(f, g).cols == n * n * p * p // (m * m)
    base = CoalgCategory(field)
    in_class = legs_in_class(base, f, g)
    assert in_class == (m == 1)
    if not in_class:
        with pytest.raises(LegsNotInClass):
            relative_pullback(base, f, g)
        return
    pb = relative_pullback(base, f, g)
    assert pb.apex.dim == n * n * p * p
    assert not is_cocommutative(pb.apex)
    assert compare_cotensor_pullback(f, g).ok


@pytest.mark.parametrize("field", MATRIX_FIELDS, ids=repr)
@pytest.mark.parametrize("n,m,p", CASES)
def test_matrix_cospan_oracle(field, n, m, p):
    _assert_cospan_oracle(field, *_cospan(field, n, m, p), n, m, p)


@pytest.mark.parametrize("field,shape", REBASED_CASES, ids=repr)
def test_rebased_matrix_cospan_oracle(field, shape):
    f, g = _rebased_cospan(field, *shape)
    for c in (f.src, f.tgt, g.src):
        assert check_coalgebra(c).ok
        assert is_cocommutative(c) == (c.dim == 1)
    assert f.mat.columns != _cospan(field, *shape)[0].mat.columns
    _assert_cospan_oracle(field, f, g, *shape)


def test_block_inclusion_dual_of_the_identity_is_the_identity():
    for field in MATRIX_FIELDS:
        a = matrix_coalgebra(field, 3)
        assert block_inclusion_dual(a, a) == CoalgCategory(field).identity(a)
