"""Taft algebras T_n(q) over F_p: bialgebras that are neither group algebras
nor cocommutative, so class S refuses spans of them."""

import pytest

from gen import taft
from relspan import CoalgMap, Matrix, check_monoid, class_S_witness, cotensor, grouplike, relative_pullback
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
