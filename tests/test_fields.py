"""Exact scalars: canonical ℚ forms, prime-field construction, primality."""

import os
import time
from fractions import Fraction

import pytest

from gen import dense, mat, rand_q_matrix, rng_for
from relspan import (
    GF,
    QQ,
    CoalgMap,
    Coalgebra,
    Matrix,
    check_coalgebra,
    linearize_fun,
)
from relspan.coalg import CoalgCategory, relative_pullback_coalg
from relspan.errors import FieldMismatch
from relspan.fields import MAX_PRIME_MODULUS, PrimeField, RationalField, _is_prime, require_same_field
from relspan.jsonio import load_context
from relspan.linalg import kernel_basis_sparse, kron, kron_apply, solve

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def canonical_q(x):
    """An integral rational is an int, any other a Fraction; never a bool."""
    if type(x) is int:
        return True
    return type(x) is Fraction and x.denominator != 1


# -- ℚ canonical forms ---------------------------------------------------------------


def test_q_zero_and_one_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1


@pytest.mark.parametrize(
    "raw, want",
    [
        (True, 1),
        (False, 0),
        (3, 3),
        (Fraction(4, 2), 2),
        (Fraction(1, 3), Fraction(1, 3)),
        ("  -6/3 ", -2),
        ("5/10", Fraction(1, 2)),
        ("7", 7),
    ],
)
def test_q_of_returns_canonical_form(raw, want):
    x = QQ.of(raw)
    assert x == want
    assert canonical_q(x), repr(x)


def test_q_normalize_inv_and_parse_are_canonical():
    assert type(QQ.normalize(Fraction(6, 3))) is int
    assert type(QQ.normalize(True)) is int
    assert QQ.normalize(Fraction(1, 2)) == Fraction(1, 2)
    for x in (1, -1, 2, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 1)):
        y = QQ.inv(x)
        assert canonical_q(y), repr(y)
        assert x * y == 1
    assert type(QQ.inv(Fraction(1, 4))) is int
    assert [(QQ.inv(x), type(QQ.inv(x))) for x in (1, -1)] == [(1, int), (-1, int)]
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_q_output_is_unchanged_by_the_integral_form():
    for n in (-5, 0, 1, 12):
        assert str(QQ.of(n)) == str(Fraction(n))
        assert hash(QQ.of(n)) == hash(Fraction(n))


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("text", ["1/0", "3/0", "1/x", "abc"])
def test_malformed_scalar_raises_value_error(field, text):
    with pytest.raises(ValueError):
        field.parse(text)


def test_fp_denominator_divisible_by_p_is_a_value_error():
    with pytest.raises(ValueError):
        GF(5).parse("1/5")


# -- primality -----------------------------------------------------------------------


def _sieve(n):
    flags = [False, False] + [True] * (n - 1)
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return flags


def test_is_prime_matches_sieve():
    flags = _sieve(5000)
    assert [n for n in range(-3, 5001) if _is_prime(n)] == [n for n in range(5001) if flags[n]]


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the first nine prime bases
        318665857834031151167461,  # strong pseudoprime to the first twelve prime bases
        (2**61 - 1) * (2**19 - 1),
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not _is_prime(n)


def test_large_mersenne_prime_is_fast():
    started = time.perf_counter()
    fld = GF(2**61 - 1)
    assert time.perf_counter() - started < 1.0
    assert fld.inv(2) * 2 % fld.p == 1


def test_moduli_beyond_the_exact_bound_are_rejected():
    assert MAX_PRIME_MODULUS > 3 * 10**24
    with pytest.raises(ValueError):
        GF(2**89 - 1)  # prime, but above the bound of the deterministic test
    with pytest.raises(ValueError):
        _is_prime(MAX_PRIME_MODULUS)
    with pytest.raises(ValueError):
        GF(4)


def test_require_same_field_tests_identity_before_equality(monkeypatch):
    """One field object passes without its __eq__; distinct but equal fields
    pass through it, and different fields are refused."""

    def refuse(self, other):
        raise AssertionError("__eq__ called on one field object")

    with monkeypatch.context() as m:
        m.setattr(RationalField, "__eq__", refuse)
        require_same_field(QQ, QQ)
    a, b = PrimeField(5), PrimeField(5)
    assert a is not b
    require_same_field(a, b)
    for fa, fb in ((QQ, GF(5)), (GF(5), QQ), (GF(5), GF(7))):
        with pytest.raises(FieldMismatch):
            require_same_field(fa, fb)


# -- every ℚ result is in canonical form ---------------------------------------------


def assert_canonical(m):
    bad = [x for row in dense(m) for x in row if not canonical_q(x)]
    assert not bad, f"non-canonical entries {bad[:5]!r}"


def test_linalg_results_over_q_are_canonical():
    rng = rng_for("canonical-q")
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_q_matrix(rng, rows, cols)
        b = rand_q_matrix(rng, cols, rng.randint(1, 3))
        c = rand_q_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert_canonical(a.rref()[0])
        assert_canonical(a @ b)
        assert_canonical(kron(a, c))
        assert_canonical(kron_apply(a, c, rand_q_matrix(rng, a.cols * c.cols, 2)))
        assert_canonical(kernel_basis_sparse(a))
        x = solve(a, rand_q_matrix(rng, rows, 2))
        if x is not None:
            assert_canonical(x)


def _rebased(c, p):
    """c re-expressed in the basis given by the columns of p."""
    pinv = solve(p, Matrix.identity(QQ, c.dim))
    return Coalgebra(c.dim, QQ, delta=kron(pinv, pinv) @ c.delta @ p, epsilon=c.epsilon @ p), pinv


def _pullback_matrices(pb):
    return [pb.apex.delta, pb.apex.epsilon, pb.p_a.mat, pb.p_c.mat, pb.payload.j.mat, pb.payload.left_inv]


def test_linearized_fixture_pullback_over_q_is_canonical():
    ctx = load_context(os.path.join(FIXTURES, "cospan_finset.json"))
    f, g = (linearize_fun(m, QQ) for m in ctx["cs"].value[1:])
    pb = relative_pullback_coalg(CoalgCategory(QQ), f, g)
    assert pb.apex.dim == 3
    for m in _pullback_matrices(pb):
        assert_canonical(m)
    assert all(type(x) is int for m in _pullback_matrices(pb) for row in dense(m) for x in row)


def test_rebased_grouplike_pullback_over_q_is_canonical():
    """A group-like cospan in non-unimodular bases: fractions appear throughout."""
    ctx = load_context(os.path.join(FIXTURES, "cospan_finset.json"))
    f, g = (linearize_fun(m, QQ) for m in ctx["cs"].value[1:])
    p_of = {n: mat(QQ, [[2 if i == j else int(j == i + 1) for j in range(n)] for i in range(n)])
            for n in (2, 3)}
    a, pa = _rebased(f.src, p_of[f.src.dim])
    b, pb_inv = _rebased(f.tgt, p_of[f.tgt.dim])
    c, pc = _rebased(g.src, p_of[g.src.dim])
    fr = CoalgMap(a, b, pb_inv @ f.mat @ p_of[f.src.dim])
    gr = CoalgMap(c, b, pb_inv @ g.mat @ p_of[g.src.dim])
    pb = relative_pullback_coalg(CoalgCategory(QQ), fr, gr)
    assert pb.apex.dim == 3 and pb.jointly_monic
    assert check_coalgebra(pb.apex).ok
    entries = [x for m in _pullback_matrices(pb) for row in dense(m) for x in row]
    assert any(type(x) is Fraction for x in entries)
    for m in _pullback_matrices(pb):
        assert_canonical(m)


# -- refusals --------------------------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda: QQ.of(1.5), TypeError, "cannot coerce 1.5 into Q"),
    (lambda: GF(5).of(1.5), TypeError, "cannot coerce 1.5 into F_5"),
    (lambda: GF(5).inv(10), ZeroDivisionError, "inverse of 0 in F_5"),
    (lambda: GF(5).of(Fraction(1, 5)), ZeroDivisionError, "denominator divisible by 5"),
    (lambda: GF(5).of("1/5"), ValueError, "bad scalar '1/5': denominator divisible by 5"),
], ids=["Q-of-a-float", "Fp-of-a-float", "Fp-inverse-of-0",
        "Fp-of-a-fraction-over-p", "Fp-of-a-string-over-p"])
def test_field_refusals_name_their_value(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_prime_field_of_a_string_parses_it():
    assert (GF(5).of("7"), GF(5).of(" 3/2 "), GF(5).of("-1")) == (2, 4, 4)
