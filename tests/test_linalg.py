"""Exact linear algebra: canonical solves, kernels, Kronecker products, swaps."""

import copy
import math
import re
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import (
    FIELDS,
    dense,
    direct_sum,
    divided_power,
    fixture_discrete,
    fixture_poset01,
    fixture_z2,
    general,
    is_injective,
    mat,
    matrix_coalgebra,
    mutate_one_entry,
    primitive_block,
    rand_finfun,
    rand_matrix,
    rand_q_matrix,
    rand_scalar,
    rand_sparse_matrix,
    random_basis,
    rebased,
    rng_for,
)
from relspan import GF, QQ, Matrix, check_coalgebra, linalg
from relspan.coalg import Coalgebra, grouplike
from relspan.errors import FieldMismatch, InternalSolveFailure, ShapeMismatch
from relspan.fields import _is_prime
from relspan.finset import linearize_fun
from relspan.linalg import (
    kernel_basis_sparse,
    kernel_left_inverse,
    kron,
    kron_apply,
    left_inverse,
    solve,
    swap_map,
)
from relspan.linalg import _kron_difference
from relspan.relcat import from_small_category, linearize_relcat

F5 = GF(5)


# -- solve -------------------------------------------------------------------


def test_solve_identity():
    i3 = Matrix.identity(QQ, 3)
    assert solve(i3, i3) == i3


def test_solve_f5_scalar_matches_enumeration():
    a = mat(F5, [[2]])
    b = mat(F5, [[3]])
    x = solve(a, b)
    # oracle: the unique residue r with 2r = 3 mod 5
    expected = [r for r in range(5) if (2 * r) % 5 == 3]
    assert expected == [4]
    assert x == mat(F5, [[4]])


def test_solve_zeroes_free_variables_and_is_deterministic():
    a = mat(QQ, [[1, 1]])
    b = mat(QQ, [[0]])
    x = solve(a, b)
    assert a @ x == b
    assert x == Matrix.from_cols(QQ, 2, [{}])
    assert solve(a, b) == x  # re-run, bit-for-bit


def test_solve_inconsistent_returns_none():
    a = mat(QQ, [[1], [1]])
    b = mat(QQ, [[0], [1]])
    assert solve(a, b) is None


def test_solve_shape_and_field_errors():
    with pytest.raises(ShapeMismatch):
        solve(mat(QQ, [[1]]), mat(QQ, [[1], [2]]))
    with pytest.raises(FieldMismatch):
        solve(mat(QQ, [[1]]), mat(F5, [[1]]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_solve_random_consistency(n, m, k, rh):
    for field in FIELDS:
        a = rand_matrix(rh, field, n, m)
        b = rand_matrix(rh, field, n, k)
        x = solve(a, b)
        if x is not None:
            assert a @ x == b
        else:
            # brute-force oracle: inconsistency means some augmented column
            # raises the rank
            assert any(
                len(Matrix.from_cols(field, a.rows, a.columns + [b.columns[j]]).rref()[1]) > len(a.rref()[1])
                for j in range(k)
            )


# -- kernels -----------------------------------------------------------------


def test_kernel_zero_map_is_identity_basis():
    assert kernel_basis_sparse(Matrix.from_cols(QQ, 2, [{}] * 2)) == Matrix.identity(QQ, 2)


def test_kernel_injective_is_empty():
    k = kernel_basis_sparse(Matrix.identity(QQ, 2))
    assert (k.rows, k.cols) == (2, 0)


def test_kernel_one_relation():
    k = kernel_basis_sparse(mat(QQ, [[1, 1]]))
    assert k == mat(QQ, [[-1], [1]])
    assert len(k.rref()[1]) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
def test_kernel_rank_nullity_and_annihilation(n, m, rh):
    for field in FIELDS:
        a = rand_matrix(rh, field, n, m)
        k = kernel_basis_sparse(a)
        assert a @ k == Matrix.from_cols(field, a.rows, [{}] * k.cols)
        assert len(k.rref()[1]) == k.cols  # independent columns
        assert len(a.rref()[1]) + k.cols == a.cols


def _kernel_from_dense_rref(a):
    """The canonical kernel read off the dense rows of the reduced echelon form."""
    f = a.field
    r, pivots = a.rref()
    rows = dense(r)
    free = [c for c in range(a.cols) if c not in pivots]
    k = [[f.zero] * len(free) for _ in range(a.cols)]
    for t, c in enumerate(free):
        k[c][t] = f.one
        for i, p in enumerate(pivots):
            k[p][t] = f.neg(rows[i][c])
    return Matrix(f, k, a.cols, len(free))


def test_kernel_sparse_agrees_with_dense():
    rng = rng_for("kernel-sparse")
    for _ in range(25):
        for field in FIELDS:
            a = rand_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
            k = kernel_basis_sparse(a)
            assert k == _kernel_from_dense_rref(a)
            # zero rows change neither the echelon form nor the kernel
            padded = dense(a)
            padded.insert(rng.randint(0, a.rows), [field.zero] * a.cols)
            assert kernel_basis_sparse(Matrix(field, padded, a.rows + 1, a.cols)) == k


def test_kernel_left_inverse_is_a_verified_projection():
    rng = rng_for("kernel-left-inverse")
    for _ in range(25):
        for field in FIELDS:
            k = kernel_basis_sparse(rand_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 5)))
            lk = kernel_left_inverse(k)
            assert lk @ k == Matrix.identity(field, k.cols)
            assert all(col in ({}, {t: field.one}) for col in lk.columns for t in col)
    # not the identity on the largest row of its column: no projection inverts it
    with pytest.raises(InternalSolveFailure):
        kernel_left_inverse(mat(QQ, [[1], [2]]))


@pytest.mark.parametrize("rows", [
    [[1, 0], [0, 1], [1, 1]],  # both columns have their largest row at 2
    [[1, 0], [0, 3]],          # the second column is 3 at its free coordinate
    [[1, 2], [0, 1]],          # the second column is 2 at the first one's
])
def test_kernel_left_inverse_refuses_non_canonical_bases(rows):
    for field in FIELDS:
        with pytest.raises(InternalSolveFailure, match="identity on its free coordinates"):
            kernel_left_inverse(mat(field, rows))


def test_kernel_left_inverse_refuses_what_l_times_k_refuses():
    """On random columns, canonical or not, the check on the free
    coordinates refuses exactly when the 0/1 projection L onto each
    column's largest row gives L·K ≠ I, and otherwise returns that L."""
    rng = rng_for("kernel-left-inverse-oracle")
    verdicts = set()
    for field in FIELDS:
        for _ in range(150):
            n, c = rng.randint(1, 5), rng.randint(1, 4)
            cols = []
            for _ in range(c):
                col = {i: field.of(rng.choice([1, 1, 1, 2])) for i in range(n) if rng.random() < 0.4}
                cols.append(col or {rng.randrange(n): field.one})
            k = Matrix.from_cols(field, n, cols)
            proj = [{} for _ in range(n)]
            for t, col in enumerate(cols):
                proj[max(col)] = {t: field.one}
            lk = Matrix.from_cols(field, c, proj)
            ok = lk @ k == Matrix.identity(field, c)
            verdicts.add(ok)
            if ok:
                assert kernel_left_inverse(k) == lk
            else:
                with pytest.raises(InternalSolveFailure):
                    kernel_left_inverse(k)
    assert verdicts == {True, False}


# -- kron and swap -----------------------------------------------------------


def test_kron_identities():
    assert kron(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)
    assert kron(mat(QQ, [[2]]), mat(QQ, [[3]])) == mat(QQ, [[6]])


def kron_oracle(a, b):
    """Direct basis-by-basis expansion, independent of the library kron."""
    f = a.field
    ad, bd = dense(a), dense(b)
    out = [[f.zero] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            for i2 in range(b.rows):
                for j2 in range(b.cols):
                    out[i1 * b.rows + i2][j1 * b.cols + j2] = f.normalize(ad[i1][j1] * bd[i2][j2])
    return Matrix(f, out, a.rows * b.rows, a.cols * b.cols)


def test_kron_matches_expansion_oracle_and_mixed_product():
    rng = rng_for("kron")
    for _ in range(20):
        for field in FIELDS:
            a = rand_matrix(rng, field, 2, 2)
            b = rand_matrix(rng, field, 2, 2)
            c = rand_matrix(rng, field, 2, 2)
            d = rand_matrix(rng, field, 2, 2)
            assert kron(a, b) == kron_oracle(a, b)
            assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def _with_columns_of(rng, m, other):
    """m with about half of its columns replaced by the same columns of other."""
    cols = [dict(o) if rng.random() < 0.5 else dict(c) for c, o in zip(m.columns, other.columns)]
    return Matrix.from_cols(m.field, m.rows, cols)


def _difference_oracle(x, y, kron=kron):
    """x⊗1 - 1⊗y as two Kronecker products, the identities of y.cols and
    x.cols dimensions."""
    return kron(x, Matrix.identity(x.field, y.cols)) - kron(Matrix.identity(x.field, x.cols), y)


def _matched(rng, x, y, nb):
    """x, (na·nb) x na, and y, (nb·nc) x nc, with a random column a of x and
    c of y made to match: x_a = Σ v_b·e_(a·nb+b) and y_c = Σ v_b·e_(b·nc+c),
    so that x_a⊗e_c = e_a⊗y_c and column (a, c) of x⊗1 - 1⊗y cancels."""
    fld, nc = x.field, y.cols
    a, c = rng.randrange(x.cols), rng.randrange(nc)
    v = {b: rng.choice(_scalars(fld)) for b in range(nb) if rng.random() < 0.7} or {0: fld.one}
    xs, ys = list(x.columns), list(y.columns)
    xs[a], ys[c] = {a * nb + b: s for b, s in v.items()}, {b * nc + c: s for b, s in v.items()}
    return Matrix.from_cols(fld, x.rows, xs), Matrix.from_cols(fld, y.rows, ys)


@pytest.mark.parametrize("field", [QQ, GF(2), F5])
def test_kron_difference_is_kron_minus_kron(field):
    """x⊗1 - 1⊗y in one pass is kron(x, 1) - kron(1, y), on sparse random x
    and y of one ratio of rows to columns: (na·nb) x na and (nb·nc) x nc, as
    in a pullback's system, in half the draws with a pair of columns matched
    (_matched) so that a whole column cancels, and (k·u) x (k·v) and
    (m·u) x (m·v), of a ratio that need not be whole."""
    rng = rng_for(f"kron-diff-{field!r}")
    draw = (lambda r, c: rand_q_matrix(rng, r, c, 0.4)) if field == QQ else (
        lambda r, c: rand_sparse_matrix(rng, field, r, c, 0.4))
    cancelled = 0
    for t in range(40):
        if t % 4 == 3:
            u, v, k, m = (rng.randint(1, 3) for _ in range(4))
            x, y = draw(k * u, k * v), draw(m * u, m * v)
        else:
            na, nb, nc = (rng.randint(1, 3) for _ in range(3))
            x, y = draw(na * nb, na), draw(nb * nc, nc)
            if t % 2:
                x, y = _matched(rng, x, y, nb)
        got = _kron_difference(x, y)
        left = kron(x, Matrix.identity(field, y.cols))
        assert got == _difference_oracle(x, y) == left - kron(Matrix.identity(field, x.cols), y)
        _assert_canonical(got)
        cancelled += sum(not c and bool(k) for c, k in zip(got.columns, left.columns))
    assert cancelled, "no column cancelled completely"
    # one nonzero per factor column: the two entries of a column meet on a row, or not
    met = Counter()
    for x, y in _one_nonzero_factors(rng_for(f"kron-diff-one-{field!r}"), field, 40):
        got = _kron_difference(x, y)
        assert got == _difference_oracle(x, y)
        _assert_canonical(got)
        if all(len(col) == 1 for m in (x, y) for col in m.columns):
            left, right = kron(x, Matrix.identity(field, y.cols)), kron(Matrix.identity(field, x.cols), y)
            for col, u, v in zip(got.columns, left.columns, right.columns):
                met["apart" if u.keys() != v.keys() else "u - v" if col else "cancelled"] += 1
        else:
            met["two-entry column"] += 1
    assert met.keys() == {"apart", "cancelled", "two-entry column"} | ({"u - v"} if field != GF(2) else set())


def _one_nonzero_factors(rng, field, n):
    """n draws of x, (na·nb) x na, and y, (nb·nc) x nc, with one nonzero per
    column (_monomial); in every other draw some columns of y are made to
    meet a column of x on one row of x⊗1 - 1⊗y, x_a = λ·e_(a·nb+b) and
    y_c = μ·e_(b·nc+c), with μ = λ about half the time, so that they often
    cancel.  In every fourth draw one factor has a single column of two
    entries."""
    def draw(r, c):
        return _monomial(rng, field, r, c)

    for t in range(n):
        na, nb, nc = (rng.randint(1, 3) for _ in range(3))
        nb = 2 if t % 4 == 3 else nb
        xs, ys = draw(na * nb, na), draw(nb * nc, nc)
        if t % 2:
            for c in range(nc):
                if rng.random() < 0.7:
                    a, b = rng.randrange(na), rng.randrange(nb)
                    ((_, lam),) = xs[a].items()
                    xs[a] = {a * nb + b: lam}
                    ys[c] = {b * nc + c: lam if rng.random() < 0.5 else rng.choice(_scalars(field))}
        if t % 4 == 3:
            cols, rows = rng.choice([(xs, na * nb), (ys, nb * nc)])
            k = rng.randrange(len(cols))
            col = dict(cols[k])
            col[(min(col) + 1) % rows] = rng.choice(_scalars(field))
            cols[k] = col
        yield Matrix.from_cols(field, na * nb, xs), Matrix.from_cols(field, nb * nc, ys)


def test_kron_difference_refuses_mismatched_shapes_and_fields():
    """x⊗1 - 1⊗y needs x.rows·y.cols = x.cols·y.rows and one field."""
    x_f = Matrix.from_cols(QQ, 6, [{1: 1}, {3: 1}, {4: 1}])
    y_g = Matrix.from_cols(QQ, 4, [{0: 1}, {3: 1}])
    assert _kron_difference(x_f, y_g) == _difference_oracle(x_f, y_g)
    a, b = Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)
    assert _kron_difference(a, b) == Matrix.from_cols(QQ, 6, [{}] * 6)
    with pytest.raises(ShapeMismatch):
        _kron_difference(x_f, a)
    with pytest.raises(ShapeMismatch):
        _kron_difference(a, Matrix.from_cols(QQ, 6, [{}]))
    with pytest.raises(FieldMismatch):
        _kron_difference(a, Matrix.identity(F5, 2))


def test_rref_and_kernel_come_from_one_elimination():
    """R, the nonzero rows of the reduced row echelon form, and K = ker A,
    both built from one elimination, as the coalgebra equalizer builds them,
    are those of Matrix.rref and kernel_basis_sparse, and ker R = ker A."""
    rng = rng_for("rref-kernel")
    for field in (QQ, F5):
        for _ in range(10):
            a = rand_matrix(rng, field, rng.randint(0, 4), rng.randint(0, 4), -1, 1)
            red = linalg._reduce(field, a.columns)
            r, k = linalg._echelon(field, red, len(red), a.cols), linalg._kernel(field, red, a.cols)
            full, pivots = a.rref()
            assert r == Matrix.from_cols(field, len(pivots), full.columns)
            assert k == kernel_basis_sparse(a) == kernel_basis_sparse(r)


def test_kron_associativity():
    rng = rng_for("kron-assoc")
    for field in FIELDS:
        a = rand_matrix(rng, field, 2, 3)
        b = rand_matrix(rng, field, 1, 2)
        c = rand_matrix(rng, field, 3, 2)
        assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_kron_apply_matches_kron():
    rng = rng_for("kron-apply")
    for field in FIELDS:
        a = rand_matrix(rng, field, 2, 3)
        b = rand_matrix(rng, field, 3, 2)
        m = rand_matrix(rng, field, 6, 4)
        assert kron_apply(a, b, m) == kron(a, b) @ m


@pytest.mark.parametrize("field", [QQ, F5])
def test_kron_apply_matches_kron_on_random_shapes(field):
    rng = rng_for(f"kron-apply-random-{field!r}")
    for _ in range(40):
        ar, ac, br, bc = (rng.randint(0, 3) for _ in range(4))
        mc = rng.randint(0, 4)
        if field == QQ:
            gen_matrix = rand_q_matrix
        else:
            def gen_matrix(rng, rows, cols):
                data = [[rand_scalar(rng, field) for _ in range(cols)] for _ in range(rows)]
                return Matrix(field, data, rows, cols)
        a, b = gen_matrix(rng, ar, ac), gen_matrix(rng, br, bc)
        m = gen_matrix(rng, ac * bc, mc)
        assert kron_apply(a, b, m) == kron(a, b) @ m


def test_kron_apply_zero_rows_and_columns():
    a = Matrix.from_cols(QQ, 0, [{}] * 2)
    b = mat(QQ, [[1, 2], [3, 4]])
    m = rand_q_matrix(rng_for("kron-apply-zero"), 4, 3)
    out = kron_apply(a, b, m)
    assert (out.rows, out.cols) == (0, 3)
    out = kron_apply(b, b, Matrix.from_cols(QQ, 4, []))
    assert (out.rows, out.cols) == (4, 0)
    assert kron_apply(b, b, Matrix.from_cols(QQ, 4, [{}] * 2)) == Matrix.from_cols(QQ, 4, [{}] * 2)
    assert kron_apply(Matrix.from_cols(QQ, 2, [{}] * 2), b, m) == Matrix.from_cols(QQ, 4, [{}] * 3)
    with pytest.raises(ShapeMismatch):
        kron_apply(b, b, Matrix.from_cols(QQ, 3, [{}]))


def _dense_product(a, b):
    """A·B entry by entry from the dense views, each sum normalized once."""
    f, ad, bd = a.field, dense(a), dense(b)
    out = [[f.normalize(sum((ad[i][k] * bd[k][j] for k in range(a.cols)), f.zero))
            for j in range(b.cols)] for i in range(a.rows)]
    return Matrix(f, out, a.rows, b.cols)


def _mixed_columns(rng, field, rows, cols):
    """Columns with zero, one or several nonzeros, over unit and non-unit
    scalars, including 2/3 and 3/2, whose product is integral."""
    pool = [field.of(x) for x in (1, 1, -1, 2, Fraction(2, 3), Fraction(3, 2))]
    out = []
    for _ in range(cols):
        n = min(rows, rng.choice((0, 1, 1, 1, 2, 3)))
        out.append({i: rng.choice(pool) for i in rng.sample(range(rows), n)})
    return Matrix.from_cols(field, rows, out)


def _assert_canonical(m):
    """Every stored entry is a nonzero canonical scalar: an int whenever it is
    integral over Q (1 == Fraction(1), so equality alone would not see it),
    a residue in [1, p) over F_p."""
    for col in m.columns:
        for v in col.values():
            if m.field == QQ:
                assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v
            else:
                assert type(v) is int and 0 < v < m.field.p, v


@pytest.mark.parametrize("field", [QQ, F5, GF(7)])
def test_products_match_dense_oracle_on_mixed_columns(field):
    rng = rng_for(f"mixed-columns-{field!r}")
    for _ in range(60):
        r, k, c, br, bc = (rng.randint(0, 4) for _ in range(5))
        a, b = _mixed_columns(rng, field, r, k), _mixed_columns(rng, field, k, c)
        m = _mixed_columns(rng, field, k * bc, c)
        bb = _mixed_columns(rng, field, br, bc)
        for got, want in ((a @ b, _dense_product(a, b)),
                          (kron(a, bb), kron_oracle(a, bb)),
                          (kron_apply(a, bb, m), _dense_product(kron_oracle(a, bb), m))):
            assert got == want
            _assert_canonical(got)


def _scalars(field):
    """Nonzero canonical scalars, 2/3 and 3/2 among them where they exist."""
    out = []
    for y in (1, -1, 2, 3, Fraction(2, 3), Fraction(3, 2)):
        try:
            x = field.of(y)
        except ZeroDivisionError:
            continue
        if x:
            out.append(x)
    return out


def _dense_factor(rng, field, rows):
    """rows x (rows + 1), every entry nonzero: more than one nonzero per
    column, and a kernel."""
    pool = _scalars(field)
    return Matrix(field, [[rng.choice(pool) for _ in range(rows + 1)] for _ in range(rows)], rows, rows + 1)


def _projection(rng, field, rows, cols):
    """A 0/1 map with at most one nonzero per column, as kernel_left_inverse
    gives: a coordinate projection, some columns zero."""
    return Matrix.from_cols(field, rows, [{rng.randrange(rows): field.one} if rng.random() < 0.7
                                          else {} for _ in range(cols)])


def _test_columns(rng, field, a, b):
    """Columns for M against A⊗B: six that are zero, single-entry or
    multi-entry, then the kernel vectors of A⊗B and multiples of them, which
    cancel to zero (in the middle when they lie in A⊗ker B)."""
    n, pool = a.cols * b.cols, _scalars(field)
    cols = [{i: rng.choice(pool) for i in rng.sample(range(n), min(n, k))} for k in (0, 1, 1, 2, 3, n)]
    ker = kernel_basis_sparse(kron(a, b)).columns
    cols += ker[:4] + [{i: field.normalize(pool[-1] * v) for i, v in c.items()} for c in ker[:2]]
    return Matrix.from_cols(field, n, cols)


def _spy_results(monkeypatch, name):
    """The results of the calls to linalg.<name> from here on."""
    results, fn = [], getattr(linalg, name)
    monkeypatch.setattr(linalg, name, lambda *args: results.append(fn(*args)) or results[-1])
    return results


def _sparse_factor(rng, field, rows, cols):
    """rows x cols with at most one nonzero in each column, any nonzero
    scalar, some columns zero: a counit when rows = 1."""
    pool = _scalars(field)
    return Matrix.from_cols(field, rows, [{rng.randrange(rows): rng.choice(pool)} if rng.random() < 0.8
                                          else {} for _ in range(cols)])


@pytest.mark.parametrize("field", [QQ, GF(2), F5, GF(32003), GF(2**61 - 1)])
def test_kron_apply_matches_kron_on_each_path(monkeypatch, field):
    """kron_apply(a, b, m) = kron(a, b) @ m, in canonical form, when both
    factors are dense (the middle path), when one is an identity or a
    one-entry projection, when A⊗B is a contraction, identity⊗ε, ε⊗identity
    or identity⊗(at most one nonzero per column), with zero entries (the
    one pass), and on columns of M that are empty, with one entry, several,
    or several that cancel.  Exactly the contractions take the one pass."""
    contractions = _spy_results(monkeypatch, "_contract")
    rng = rng_for(f"kron-apply-paths-{field!r}")
    for _ in range(12):
        a, b = _dense_factor(rng, field, rng.randint(2, 3)), _dense_factor(rng, field, rng.randint(2, 3))
        assert sum(map(len, a.columns)) > a.cols and sum(map(len, b.columns)) > b.cols
        ident = partial(Matrix.identity, field)
        pairs = ((a, b), (ident(a.cols), b), (a, ident(b.cols)),
                 (_projection(rng, field, 2, a.cols), b), (a, _projection(rng, field, b.rows, b.cols)))
        n = rng.randint(2, 4)
        contracting = ((ident(a.cols), _sparse_factor(rng, field, 1, n)),
                       (_sparse_factor(rng, field, 1, n), ident(b.cols)),
                       (ident(a.cols), _sparse_factor(rng, field, n - 1, n)))
        for k, (x, y) in enumerate(pairs + contracting):
            m = _test_columns(rng, field, x, y)
            contractions.clear()
            got = kron_apply(x, y, m)
            assert [r is not None for r in contractions] == [k >= len(pairs)]
            assert got == kron(x, y) @ m
            _assert_canonical(got)
            assert got.cols > 6 and not any(got.columns[6:])  # the kernel columns cancel


def _top(field, rows, cols, empty=()):
    """rows x cols with every entry p - 1 (-1 over Q), the columns in empty zero."""
    top = field.of(-1)
    return Matrix.from_cols(field, rows, [{} if j in empty else dict.fromkeys(range(rows), top)
                                          for j in range(cols)])


def _packs(x, y, col, field):
    """Whether kron_apply takes this column of M through packed 64-bit slots:
    over F_p, no zero column in either factor, one factor above one nonzero
    per column on average, len(col)·(p-1)³ < 2⁶⁴, and len(col)·lo_x·lo_y at
    least x.rows·y.rows, lo_f the fewest nonzeros in a column of f."""
    (nx, ny), (cx, cy) = (sum(map(len, f.columns)) for f in (x, y)), (x.cols, y.cols)
    lo_x, lo_y = (min(map(len, f.columns)) for f in (x, y))
    return (field != QQ and lo_x > 0 and lo_y > 0 and (nx > cx or ny > cy)
            and 1 < len(col) and len(col) * (field.p - 1) ** 3 < 2**64
            and len(col) * lo_x * lo_y >= x.rows * y.rows)


# 1664501 is the largest prime with 4·(p-1)³ < 2⁶⁴, so a four-entry column
# whose products are all (p-1)³ fills a slot to the edge; 2097143 is the least
# prime above it, for which 4·(p-1)³ needs 65 bits, and 2⁶¹-1 fails the bound
# at every column length.
@pytest.mark.parametrize("field", [QQ, GF(2), F5, GF(32003), GF(1664501), GF(2097143), GF(2**61 - 1)])
def test_kron_apply_packed_slots_match_kron_up_to_the_overflow_edge(monkeypatch, field):
    """kron_apply(a, b, m) = kron(a, b) @ m, canonical, on dense⊗dense,
    dense⊗identity and identity⊗dense factors, factors with empty columns or
    of dimension 1, with every entry p - 1 and with columns that cancel to 0
    mod p; the packed path runs exactly on the columns within its bound."""
    calls = []
    packed_column = linalg._packed_column
    monkeypatch.setattr(linalg, "_packed_column", lambda *args: calls.append(args[-1]) or packed_column(*args))
    rng = rng_for(f"kron-apply-packed-{field!r}")
    pool = [x for x in [field.of(-1), field.one] + [field.of(rng.randrange(2, 10**6)) for _ in range(4)] if x]
    ident = partial(Matrix.identity, field)
    pairs = [(_top(field, 2, 2), _top(field, 2, 2)), (_top(field, 3, 2), ident(3)),
             (ident(2), _top(field, 2, 3)), (_top(field, 2, 3, empty={1}), _top(field, 3, 2)),
             (_top(field, 2, 2), _top(field, 3, 3, empty={0, 2})), (_top(field, 1, 1), _top(field, 2, 1)),
             (ident(1), _top(field, 3, 2)), (_top(field, 1, 2, empty={1}), _top(field, 2, 2)),
             (_dense_factor(rng, field, 3), _dense_factor(rng, field, 2))]
    expected = []
    for x, y in pairs:
        n = x.cols * y.cols
        cols = [{}, {n - 1: pool[0]}, dict.fromkeys(range(n), pool[0])]
        cols += [{i: rng.choice(pool) for i in rng.sample(range(n), rng.randint(2, n))} for _ in range(3) if n > 1]
        ker = kernel_basis_sparse(kron(x, y)).columns
        cancel = ker[:3] + [{i: field.normalize(pool[-1] * v) for i, v in c.items()} for c in ker[:2]]
        m = Matrix.from_cols(field, n, cols + cancel)
        got = kron_apply(x, y, m)
        assert got == kron(x, y) @ m
        _assert_canonical(got)
        assert not any(got.columns[len(cols):])
        expected += [c for c in m.columns if _packs(x, y, c, field)]
    assert calls == expected
    assert bool(calls) == (field not in (QQ, GF(2**61 - 1)))


@pytest.mark.parametrize("n, make", [(3, matrix_coalgebra), (6, matrix_coalgebra), (8, divided_power)],
                         ids=["M3c", "M6c", "D8"])
def test_kron_apply_packs_no_column_of_sparse_coassociativity_products(monkeypatch, n, make):
    """(δ⊗1)∘δ and (1⊗δ)∘δ of a matrix or divided-power coalgebra over F_7
    have no zero factor column and δ has more than one nonzero per column,
    but no column of δ has enough nonzeros to pay for the slots it could
    unpack, so every column keeps the dict paths, and the products match
    kron."""
    calls = []
    packed_column = linalg._packed_column
    monkeypatch.setattr(linalg, "_packed_column", lambda *args: calls.append(args[-1]) or packed_column(*args))
    d = make(GF(7), n).delta
    ident = Matrix.identity(GF(7), d.cols)
    assert sum(map(len, d.columns)) > d.cols
    for x, y in ((d, ident), (ident, d)):
        assert kron_apply(x, y, d) == kron(x, y) @ d
        assert not any(_packs(x, y, c, GF(7)) for c in d.columns)
    assert calls == []


def _packs_coassoc(d):
    """Whether linalg._coassoc_difference decides δ = d in packed slots: over
    F_p, n·(p-1)² < p·2^(63 - bit length of p), with 2⁰ from 64 bits on, and
    nnz(d)² ≥ n⁵."""
    n, p = d.cols, getattr(d.field, "p", None)
    return (p is not None and n * (p - 1) ** 2 < p << max(0, 63 - p.bit_length())
            and sum(map(len, d.columns)) ** 2 >= n**5)


def _largest_packed_prime(n):
    """The largest prime p with n·(p-1)² < p·h, h = 2^(63 - bit length of p)."""
    for bits in range(40, 1, -1):
        h = 1 << 63 - bits
        # from the larger root of n·x² - (2n + h)·x + n, down to the first prime within the gate
        p = min(2**bits - 1, (2 * n + h + math.isqrt((2 * n + h) ** 2 - 4 * n * n)) // (2 * n))
        while p >= 2 ** (bits - 1) and not (n * (p - 1) ** 2 < p * h and _is_prime(p)):
            p -= 1
        if p >= 2 ** (bits - 1):
            return p


def _next_prime(p):
    p += 1
    while not _is_prime(p):
        p += 1
    return p


def _top_coalgebra_delta(field, n):
    """δ with every entry p - 1: coassociative, as both sides are n·Σ e_a⊗e_b⊗e_c,
    and every slot of each side sums n products (p-1)², the top of the slot bound."""
    return Matrix.from_cols(field, n * n, [dict.fromkeys(range(n * n), field.of(-1)) for _ in range(n)])


def _coassoc_spy(monkeypatch):
    """A function deciding δ with linalg._coassoc_difference that returns its
    first difference and whether it took the packed path, that is, made no
    kron_apply call."""
    calls, kron_in = [], linalg.kron_apply
    monkeypatch.setattr(linalg, "kron_apply", lambda *args: calls.append(args) or kron_in(*args))

    def decide(d):
        before = len(calls)
        return linalg._coassoc_difference(d), len(calls) == before
    return decide


def _coassoc_oracle(d):
    ident = Matrix.identity(d.field, d.cols)
    return linalg.first_difference(kron_apply(d, ident, d), kron_apply(ident, d, d))


@pytest.mark.parametrize("n", range(1, 9))
def test_coassoc_difference_matches_the_built_products(monkeypatch, n):
    """On dense k[X] in a random basis and on δ with every entry p - 1, each
    also with one entry changed, over F_2, F_5, F_32003, the largest prime the
    packed path admits at dimension n and the next prime, _coassoc_difference
    gives the first column where (δ⊗1)∘δ and (1⊗δ)∘δ, built whole, differ.
    It takes the packed path exactly where its gate admits δ, so on the dense
    cases: δ with every entry p - 1 from dimension 2, and k[X] in a random
    basis from dimension 4 over F_5 and up; over the next prime, never."""
    decide, rng = _coassoc_spy(monkeypatch), rng_for(f"coassoc-difference-{n}")
    edge = _largest_packed_prime(n)
    past = _next_prime(edge)
    for field in (GF(2), F5, GF(32003), GF(edge), GF(past)):
        for kind, d in (("basis", rebased(grouplike(field, n), random_basis(rng, field, n)).delta),
                        ("top", _top_coalgebra_delta(field, n))):
            planted = mutate_one_entry(rng, field, d)
            for m in (d, planted):
                got, packed = decide(m)
                want = _coassoc_oracle(m)
                assert got == want
                assert want is None or m is planted
                assert packed == _packs_coassoc(m)
                if n >= 2 and (kind == "top" or n >= 4 and field.p > 2):
                    assert packed == (field.p != past)


def test_coassoc_difference_sees_a_difference_in_the_first_slot_alone(monkeypatch):
    """The path coalgebra on (x, e0, e1), δx = e0⊗x + x⊗e1, not cocommutative,
    beside k[X] of dimension 8 in a random basis: coassociative, and
    dense enough to pack.  Adding t at row x⊗x of column e0 changes the two
    sides of column x only at row x⊗x⊗x, by t: slot 0, the one slot in which
    a difference leaves a remainder of the exact division and no excess in
    the quotient.  Each is decided on the packed path, as the products decide
    it."""
    decide, field = _coassoc_spy(monkeypatch), GF(7)
    one = field.one
    path = Coalgebra(3, field, delta=Matrix.from_cols(field, 9, [{2: one, 3: one}, {4: one}, {8: one}]),
                     epsilon=Matrix.from_cols(field, 1, [{}, {0: one}, {0: one}]))
    d = direct_sum(path, rebased(grouplike(field, 8), random_basis(rng_for("coassoc-first-slot"), field, 8))).delta
    assert decide(d) == (None, True) and _coassoc_oracle(d) is None
    for t in range(1, 7):
        m = Matrix.from_cols(field, 121, [d.columns[0], {**d.columns[1], 0: t}] + d.columns[2:])
        ident = Matrix.identity(field, 11)
        diff = kron_apply(m, ident, m) - kron_apply(ident, m, m)
        assert diff.columns[0] == {0: t}
        assert decide(m) == (0, True) and _coassoc_oracle(m) == 0


def _dense_k(field, n):
    return rebased(grouplike(field, n), random_basis(rng_for(f"coassoc-{field!r}"), field, n)).delta


@pytest.mark.parametrize("make", [
    lambda: _dense_k(QQ, 5), lambda: _dense_k(GF(2**61 - 1), 5), lambda: _dense_k(GF(2**64 + 13), 5),
    lambda: grouplike(GF(7), 5).delta, lambda: matrix_coalgebra(GF(7), 3).delta,
    lambda: divided_power(GF(7), 8).delta,
], ids=["Q", "F(2^61-1)", "F(2^64+13)", "k[X]", "M3c", "D8"])
def test_coassoc_difference_keeps_the_products_off_its_gate(monkeypatch, make):
    """Dense δ over Q, over F_(2⁶¹-1) and over F_(2⁶⁴+13), a prime wider
    than a slot, which have no slot bound, a group-like δ (a row table), and
    the sparse δ of a matrix and a divided-power coalgebra, each also with
    one entry changed, keep the two kron_apply products, and the first
    difference is theirs."""
    decide, d = _coassoc_spy(monkeypatch), make()
    assert (sum(map(len, d.columns)) ** 2 >= d.cols**5) == (d.field in (QQ, GF(2**61 - 1), GF(2**64 + 13)))
    for m in (d, mutate_one_entry(rng_for(f"coassoc-off-{d!r}"), d.field, d)):
        got, packed = decide(m)
        assert got == _coassoc_oracle(m)
        assert not packed and not _packs_coassoc(m)


def _prime_range_ends():
    """The least and the largest prime of every bit length from 2 to 64, and 2⁶⁴+13."""
    ends = [2**64 + 13]
    for bits in range(2, 65):
        least, largest = 2 ** (bits - 1), 2**bits - 1
        while not _is_prime(least):
            least += 1
        while not _is_prime(largest):
            largest -= 1
        ends += [least, largest]
    return ends


def test_slot_gate_admits_exactly_the_literal_bounds():
    """The packed path's one gate, linalg._most_terms, admits exactly what
    each literal bound admits, at its edge and one term on either side:
    N·(p-1)³ < 2⁶⁴ for kron_apply's unpacked column, n·(p-1)² < p·h for
    coassociativity and n²·(p-1)³ < p·h for the closure check
    (_fits_closure), h = 2^(63 - bit length of p) below 64 bits and 1 from
    there, where no count from 1 is admitted.  Q admits nothing."""
    for p in _prime_range_ends():
        field, h = GF(p), 2 ** max(0, 63 - p.bit_length())
        gates = [(linalg._most_terms(field, 3, compared=False), lambda t: t * (p - 1) ** 3 < 2**64),
                 (linalg._most_terms(field, 2), lambda t: t * (p - 1) ** 2 < p * h)]
        for edge, literal in gates:
            assert edge >= 0 and all((t <= edge) == literal(t) for t in range(max(0, edge - 1), edge + 2))
        edge = math.isqrt(linalg._most_terms(field, 3))
        for n in range(max(0, edge - 1), edge + 2):
            assert linalg._fits_closure(field, n) == (n * n * (p - 1) ** 3 < p * h)
        if p.bit_length() >= 64:
            assert [e for e, _ in gates] == [0, 0] and edge == 0 and not linalg._fits_closure(field, 1)
    assert all(linalg._most_terms(QQ, d, compared=c) < 0 for d in (2, 3) for c in (True, False))
    assert not any(linalg._fits_closure(QQ, n) for n in range(4))


def test_integral_products_of_fractions_are_ints():
    two_thirds = Matrix.from_cols(QQ, 1, [{0: Fraction(2, 3)}])
    three_halves = Matrix.from_cols(QQ, 1, [{0: Fraction(3, 2)}])
    one = Matrix.identity(QQ, 1)
    wide = Matrix.from_cols(QQ, 2, [{0: Fraction(2, 3), 1: Fraction(4, 3)}])
    products = (
        (two_thirds @ three_halves, [{0: 1}]),
        (kron(two_thirds, three_halves), [{0: 1}]),
        (kron_apply(two_thirds, three_halves, one), [{0: 1}]),
        (kron_apply(two_thirds, one, three_halves), [{0: 1}]),
        (wide @ three_halves, [{0: 1, 1: 2}]),
        (kron(wide, three_halves), [{0: 1, 1: 2}]),
        (kron_apply(wide, three_halves, one), [{0: 1, 1: 2}]),
    )
    for got, want in products:
        assert got.columns == want
        _assert_canonical(got)


def _monomial(rng, field, rows, cols):
    """The columns of a rows x cols matrix with one nonzero per column, drawn
    from _scalars(field): over F_p the residues 2/3, 3/2 and -1 lie near p."""
    pool = _scalars(field)
    return [{rng.randrange(rows): rng.choice(pool)} for _ in range(cols)]


MONOMIAL_FIELDS = [QQ, GF(2), F5, GF(2**61 - 1)]


@pytest.mark.parametrize("field", MONOMIAL_FIELDS, ids=str)
def test_kron_apply_on_monomial_factors_matches_a_dense_product(field):
    """A, B and M with one nonzero per column: each column of (A⊗B)·M is one
    entry v·x·y, and it is that of the dense product summed entry by entry,
    in canonical form, where (-1)·(-1)·(-1) reduces to -1 and, over Q,
    2·(1/2)·1 is the int 1."""
    rng = rng_for(f"kron-apply-monomial-{field!r}")
    for _ in range(40):
        ar, ac, br, bc = (rng.randint(1, 3) for _ in range(4))
        a = Matrix.from_cols(field, ar, _monomial(rng, field, ar, ac))
        b = Matrix.from_cols(field, br, _monomial(rng, field, br, bc))
        m = Matrix.from_cols(field, ac * bc, _monomial(rng, field, ac * bc, rng.randint(0, 5)))
        got = kron_apply(a, b, m)
        assert got == _dense_product(kron_oracle(a, b), m)
        assert all(len(col) == 1 for col in got.columns)
        _assert_canonical(got)
    top = Matrix.from_cols(field, 1, [{0: field.of(-1)}])
    assert kron_apply(top, top, top).columns == [{0: field.of(-1)}]
    if field == QQ:
        half, two = (Matrix.from_cols(QQ, 1, [{0: v}]) for v in (Fraction(1, 2), 2))
        got = kron_apply(half, Matrix.identity(QQ, 1), two)
        assert got.columns == [{0: 1}]
        _assert_canonical(got)


@pytest.mark.parametrize("field", MONOMIAL_FIELDS, ids=str)
def test_kron_difference_on_monomial_factors_cancels_whole_columns(field):
    """x⊗1 - 1⊗y on x, (na·nb) x na, and y, (nb·nc) x nc, with one nonzero
    per column, with some columns of y drawn to match one of x,
    x_a = v·e_(a·nb+b) and y_c = v·e_(b·nc+c), so that the column (a, c)
    cancels whole.  Every other draw has unit columns {r: one}: then both
    factors have row tables and the difference is read off them, which
    leaves each factor's table found; a draw with another nonzero takes the
    general path, which leaves a factor's table a cached "no".  Both paths
    equal the general path forced on the same factors."""
    rng = rng_for(f"kron-diff-monomial-{field!r}")
    cancelled, paths = Counter(), Counter()
    for t in range(80):
        unit = t % 2 == 0
        if unit:
            def draw(r, c):
                return [{rng.randrange(r): field.one} for _ in range(c)]
        else:
            draw = partial(_monomial, rng, field)
        na, nb, nc = (rng.randint(1, 3) for _ in range(3))
        xcols, ycols = draw(na * nb, na), draw(nb * nc, nc)
        for c in range(nc):
            if rng.random() < 0.4:  # column (a, c) of x⊗1 becomes that of 1⊗y
                a, b = rng.randrange(na), rng.randrange(nb)
                ((_, v),) = xcols[a].items()
                xcols[a], ycols[c] = {a * nb + b: v}, {b * nc + c: v}
        x, y = Matrix.from_cols(field, na * nb, xcols), Matrix.from_cols(field, nb * nc, ycols)
        got = _kron_difference(x, y)
        path = "table" if all(isinstance(m._units, list) for m in (x, y)) else "general"
        assert path == ("table" if all(_fresh_table(m) is not False for m in (x, y)) else "general")
        assert path == "table" or not unit and False in [m._units for m in (x, y)]
        paths[unit, path] += 1
        assert got == _difference_oracle(x, y, kron_oracle) == _kron_difference(general(x), general(y))
        assert all(len(col) <= 2 for col in got.columns)
        _assert_canonical(got)
        cancelled[unit] += sum(not col for col in got.columns)
    assert cancelled[True] and cancelled[False], cancelled
    # unit draws have tables; over F_2 every nonzero is one, so every draw has them, and
    # elsewhere a draw of other nonzeros takes the general path unless it drew only ones
    assert not paths[True, "general"] and (field == GF(2)) == (not paths[False, "general"]), paths


@pytest.mark.parametrize("field", [QQ, F5, GF(7)])
def test_sum_and_difference_match_dense_oracle_on_mixed_supports(field):
    rng = rng_for(f"merge-{field!r}")
    for _ in range(60):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        a, b = _mixed_columns(rng, field, r, c), _mixed_columns(rng, field, r, c)
        ad, bd = dense(a), dense(b)
        for got, sign in ((a + b, 1), (a - b, -1)):
            want = [[field.normalize(ad[i][j] + sign * bd[i][j]) for j in range(c)] for i in range(r)]
            assert got == Matrix(field, want, r, c)
            _assert_canonical(got)


def test_sum_and_difference_drop_entries_that_cancel():
    for field in (QQ, F5):
        two, half = field.of(2), field.of(Fraction(1, 2))
        a = Matrix.from_cols(field, 3, [{0: two, 2: half}, {1: half}])
        b = Matrix.from_cols(field, 3, [{0: field.neg(two), 1: field.one}, {1: half}])
        assert (a - a).columns == [{}, {}]
        assert (a + b).columns == [{1: field.one, 2: half}, {1: field.normalize(2 * half)}]
        assert (a - b).columns[1] == {}


def test_fp_difference_negates_right_only_entries_into_residues():
    f7 = GF(7)
    a = Matrix.from_cols(f7, 3, [{0: 3}])
    b = Matrix.from_cols(f7, 3, [{1: 1, 2: 6}])
    assert (a - b).columns == [{0: 3, 1: 6, 2: 1}]
    assert (b - a).columns == [{0: 4, 1: 1, 2: 6}]
    _assert_canonical(a - b)
    _assert_canonical(b - a)


def test_swap_basics():
    assert swap_map(QQ, 1, 1) == Matrix.identity(QQ, 1)
    s22 = swap_map(QQ, 2, 2)
    assert s22 @ s22 == Matrix.identity(QQ, 4)


def test_swap_2_3_is_a_permutation():
    s = swap_map(QQ, 2, 3)
    assert s.rows == s.cols == 6
    for i in range(2):
        for j in range(3):
            assert s.columns[i * 3 + j] == {j * 2 + i: QQ.one}
    for row in dense(s):
        assert row.count(QQ.one) == 1
    assert swap_map(QQ, 3, 2) @ s == Matrix.identity(QQ, 6)


def test_swap_naturality():
    rng = rng_for("swap-nat")
    for field in FIELDS:
        f = rand_matrix(rng, field, 3, 2)
        g = rand_matrix(rng, field, 2, 4)
        # c∘(f⊗g) = (g⊗f)∘c
        assert swap_map(field, f.rows, g.rows) @ kron(f, g) == kron(g, f) @ swap_map(
            field, f.cols, g.cols
        )


# -- rank predicates --------------------------------------------------------------


def test_rank_predicates():
    i3 = Matrix.identity(QQ, 3)
    assert len(i3.rref()[1]) == i3.rows and is_injective(i3)
    a = mat(QQ, [[1, 0]])
    assert len(a.rref()[1]) == a.rows and not is_injective(a)
    z = Matrix.from_cols(QQ, 1, [{}])
    assert len(z.rref()[1]) != z.rows and not is_injective(z)


def test_left_inverse():
    a = mat(QQ, [[1, 0], [2, 1], [3, 3]])
    l = left_inverse(a)
    assert l @ a == Matrix.identity(QQ, 2)


def test_shape_must_match_the_rows_held():
    with pytest.raises(ShapeMismatch):
        Matrix(QQ, [[1]], 3, 1)
    with pytest.raises(ShapeMismatch):
        Matrix(QQ, [[1], [2]], 1, 1)
    assert (Matrix(QQ, [], 0, 3).rows, Matrix(QQ, [], 0, 3).cols) == (0, 3)


def test_rand_matrix_keeps_empty_shapes():
    rng = rng_for("empty-shapes")
    for field in FIELDS:
        for rows, cols in ((0, 3), (3, 0), (0, 0), (2, 3)):
            m = rand_matrix(rng, field, rows, cols)
            assert (m.rows, m.cols) == (rows, cols)


def test_zero_dimensional_edge_cases():
    z = Matrix.from_cols(QQ, 0, [{}] * 3)
    assert kernel_basis_sparse(z) == Matrix.identity(QQ, 3)
    n = Matrix.from_cols(QQ, 3, [])
    assert (kernel_basis_sparse(n).rows, kernel_basis_sparse(n).cols) == (0, 0)
    assert kron(z, Matrix.identity(QQ, 2)).rows == 0
    assert is_injective(n) and len(n.rref()[1]) != n.rows


# -- sympy as an independent oracle ----------------------------------------------


def _to_sympy(sp, m):
    rows = dense(m)
    return sp.Matrix(m.rows, m.cols, lambda i, j: sp.Rational(rows[i][j].numerator, rows[i][j].denominator))


def _from_sympy(sm):
    return Matrix(QQ, [[QQ.of(Fraction(int(x.p), int(x.q))) for x in sm.row(i)] for i in range(sm.rows)],
                  sm.rows, sm.cols)


def _rows_once(rng, field, rows, cols, pool=None):
    """A rows x cols matrix in which every row holds one nonzero or none:
    each row is dealt to a random column with a value from pool, by default
    _scalars, so most values are not one and some columns stay zero."""
    columns, pool = [{} for _ in range(cols)], pool or _scalars(field)
    for i in range(rows):
        if cols and rng.random() < 0.8:
            columns[rng.randrange(cols)][i] = rng.choice(pool)
    return Matrix.from_cols(field, rows, columns)


def _singleton_heavy(rng, field, shape):
    """A sparse matrix made mostly of one-entry rows, or of repeated rows of
    several entries, as dense rows, in one of six shapes, with its rows
    shuffled; in the sixth, as in the pullback and cotensor systems of
    linearized finite sets, every row holds one nonzero or none."""
    def val():
        return field.of(rng.choice((-1, 1)) * rng.randint(1, 6))

    def sparse(n, cols):
        row = [field.zero] * n
        for c in cols:
            row[c] = val()
        return row

    n = rng.randint(3, 8)
    if shape == "every row once":
        return _rows_once(rng, field, rng.randint(0, n + 1), n)
    if shape == "duplicated singletons":
        repeats = [(rng.randrange(n), rng.randint(1, 3)) for _ in range(n)]
        rows = [sparse(n, [c]) for c, times in repeats for _ in range(times)]
        rows.append(sparse(n, rng.sample(range(n), rng.randint(2, n))))
    elif shape == "bidiagonal cascade":  # each peel frees the next row
        rows = [sparse(n, [i, i + 1]) for i in range(n - 1)] + [sparse(n, [n - 1])]
        if rng.random() < 0.5:
            rows.pop()  # no singleton: the cascade is eliminated instead
    elif shape == "rows that empty out":
        peeled = rng.sample(range(n), rng.randint(1, n - 1))
        rows = [sparse(n, [c]) for c in peeled]
        rows += [sparse(n, rng.sample(peeled, rng.randint(1, len(peeled)))) for _ in range(3)]
        rows.append(sparse(n, rng.sample(range(n), 2)))
    elif shape == "duplicated multi-entry rows":  # each row twice or three times
        rows = [sparse(n, rng.sample(range(n), rng.randint(2, n))) for _ in range(rng.randint(1, 3))]
        rows = [list(row) for row in rows for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.5:
            rows.append(sparse(n, [rng.randrange(n)]))
    else:  # mixed singleton and dense blocks
        split = rng.randint(1, n - 1)
        rows = [sparse(n, [c]) for c in rng.sample(range(split), rng.randint(1, split))]
        rows += [sparse(n, [c for c in range(n) if c >= split or rng.random() < 0.3])
                 for _ in range(rng.randint(1, 4))]
    rng.shuffle(rows)
    return Matrix(field, rows, len(rows), n)


SINGLETON_SHAPES = ("duplicated singletons", "bidiagonal cascade", "rows that empty out",
                    "mixed singleton and dense blocks", "duplicated multi-entry rows", "every row once")


def test_rref_kernel_and_solve_agree_with_sympy():
    sp = pytest.importorskip("sympy")
    rng = rng_for("sympy-differential")
    cases = [rand_q_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(40)]
    cases += [_singleton_heavy(rng, QQ, shape) for shape in SINGLETON_SHAPES for _ in range(10)]
    for a in cases:
        rows, cols = a.rows, a.cols
        sa = _to_sympy(sp, a)
        r, pivots = a.rref()
        sr, spivots = sa.rref()
        assert pivots == list(spivots)
        assert r == _from_sympy(sr)
        assert len(a.rref()[1]) == sa.rank()
        k = kernel_basis_sparse(a)
        null = sa.nullspace()
        want = sp.Matrix.hstack(*null) if null else sp.zeros(cols, 0)
        assert (k.rows, k.cols) == (want.rows, want.cols)
        if k.cols:
            assert k == _from_sympy(want)
        b = rand_q_matrix(rng, rows, rng.randint(1, 3))
        x = solve(a, b)
        try:
            sol, params = sa.gauss_jordan_solve(_to_sympy(sp, b))
        except ValueError:
            assert x is None
            continue
        sol = sol.subs({t: 0 for t in params})
        assert x == _from_sympy(sol)


def test_grouplike_cotensor_system_peels_every_row_and_agrees_with_sympy():
    """T = X_f⊗1 - 1⊗(c∘Y_g) for linearized f: A → B ← C: g, built as the
    coalgebra pullback builds it: every nonzero row holds one nonzero, so
    the reduced row echelon form is the unit rows of the nonzero columns,
    every row peeled.  It and the kernel are sympy's, the kernel
    spanned by the e_a⊗e_c with f(a) = g(c), and so they are on other
    systems whose rows hold one nonzero or none, of any shape, and on those
    with one more column that gives a row a second nonzero, which the
    general elimination reduces."""
    sp = pytest.importorskip("sympy")
    rng = rng_for("grouplike-cotensor-sympy")
    for _ in range(12):
        na, nb, nc = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 4)
        f, g = [rng.randrange(nb) for _ in range(na)], [rng.randrange(nb) for _ in range(nc)]
        x_f = Matrix.from_cols(QQ, na * nb, [{a * nb + f[a]: 1} for a in range(na)])
        y_g = Matrix.from_cols(QQ, nb * nc, [{g[c] * nc + c: 1} for c in range(nc)])
        t = _kron_difference(x_f, y_g)
        assert set(Counter(chain.from_iterable(t.columns)).values()) <= {1}
        sa = _to_sympy(sp, t)
        r, pivots = t.rref()
        sr, spivots = sa.rref()
        assert pivots == list(spivots) and r == _from_sympy(sr)
        k = kernel_basis_sparse(t)
        null = sa.nullspace()
        assert k == (_from_sympy(sp.Matrix.hstack(*null)) if null else Matrix.from_cols(QQ, t.cols, []))
        assert k.columns == [{a * nc + c: 1} for a in range(na) for c in range(nc) if f[a] == g[c]]
        _assert_canonical(r)
        _assert_canonical(k)
    # every row once, as in T, with values other than one, zero columns and empty shapes
    for rows, cols in [(0, 0), (0, 3), (3, 0)] + [(rng.randint(1, 6), rng.randint(1, 5)) for _ in range(20)]:
        a = _rows_once(rng, QQ, rows, cols)
        sa = _to_sympy(sp, a)
        r, pivots = a.rref()
        sr, spivots = sa.rref()
        assert pivots == list(spivots) == [c for c, col in enumerate(a.columns) if col]
        assert r == (_from_sympy(sr) if rows and cols else Matrix.from_cols(QQ, rows, [{}] * cols))
        null = sa.nullspace()
        assert kernel_basis_sparse(a) == (_from_sympy(sp.Matrix.hstack(*null)) if null
                                          else Matrix.from_cols(QQ, cols, []))
        if rows:
            ab = Matrix.from_cols(QQ, rows, a.columns + [{rng.randrange(rows): rng.choice(_scalars(QQ))}])
            assert ab.rref()[0] == _from_sympy(_to_sympy(sp, ab).rref()[0])


def test_count_one_kernel_is_the_unit_columns_at_the_empty_columns(monkeypatch):
    """When every row of a system holds one nonzero or none,
    kernel_basis_sparse reads its kernel off the empty columns: the unit
    columns there, with their row table, and no form built.  It is the
    elimination's kernel, _kernel(_reduce(...)), bit for bit, and sympy's
    nullspace over Q: on random systems with entries such as -3 and 1/2
    over Q and 2 over F_5, with empty columns, all columns empty, no rows
    and no columns.  A row with a second nonzero takes the elimination."""
    sp = pytest.importorskip("sympy")
    rng = rng_for("count-one-kernel")
    reduce_in, calls = linalg._reduce, []
    monkeypatch.setattr(linalg, "_reduce", lambda *args: calls.append(args) or reduce_in(*args))
    values = {QQ: [QQ.of(v) for v in (1, -1, -3, 2, Fraction(1, 2), Fraction(-5, 3))],
              F5: [F5.of(v) for v in (1, 2, 3, 4)]}
    shapes = [(0, 0), (0, 4), (4, 0)] + [(rng.randint(1, 7), rng.randint(1, 6)) for _ in range(40)]
    for field, pool in values.items():
        for rows, cols in shapes:
            for a in (_rows_once(rng, field, rows, cols, pool), Matrix.from_cols(field, rows, [{}] * cols)):
                k = kernel_basis_sparse(a)
                assert not calls
                want = linalg._kernel(field, reduce_in(field, a.columns), a.cols)
                assert (k.rows, k.cols, _typed(k)) == (want.rows, want.cols, _typed(want))
                assert k._units == [c for c, col in enumerate(a.columns) if not col]
                if field == QQ:
                    null = _to_sympy(sp, a).nullspace()
                    assert k == (_from_sympy(sp.Matrix.hstack(*null)) if null else Matrix.from_cols(QQ, cols, []))
    a = Matrix.from_cols(QQ, 2, [{0: 1}, {0: -3}, {1: Fraction(1, 2)}])
    assert kernel_basis_sparse(a).columns == [{0: 3, 1: 1}] and len(calls) == 1


def _typed(m):
    """m's entries with their types, by column: equal bit for bit."""
    return [sorted((i, type(v).__name__, v) for i, v in c.items()) for c in m.columns]


# -- a dense Gauss–Jordan oracle over F_p -----------------------------------------


def _gauss_jordan(field, rows, ncols):
    """The nonzero rows of the reduced row echelon form of dense rows, and
    their pivots, by textbook Gauss–Jordan elimination."""
    m, pivots = [list(r) for r in rows], []
    for c in range(ncols):
        p = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if p is None:
            continue
        top = len(pivots)
        m[top], m[p] = m[p], m[top]
        inv = field.inv(m[top][c])
        m[top] = [field.normalize(inv * x) for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][c]:
                factor = m[i][c]
                m[i] = [field.normalize(x - factor * y) for x, y in zip(m[i], m[top])]
        pivots.append(c)
    return m[:len(pivots)], pivots


@pytest.mark.parametrize("field", [F5, GF(32003)], ids=str)
@pytest.mark.parametrize("shape", SINGLETON_SHAPES)
def test_peeled_elimination_matches_dense_gauss_jordan(field, shape):
    rng = rng_for(f"gauss-jordan-{shape}-{field}")
    for _ in range(30):
        a = _singleton_heavy(rng, field, shape)
        red, pivots = _gauss_jordan(field, dense(a), a.cols)
        r, got = a.rref()
        assert got == pivots and len(a.rref()[1]) == len(pivots)
        assert dense(r) == red + [[field.zero] * a.cols for _ in range(a.rows - len(red))]
        free = [c for c in range(a.cols) if c not in pivots]
        want = [[field.one if i == c else field.neg(red[pivots.index(i)][c]) if i in pivots
                 else field.zero for c in free] for i in range(a.cols)]
        assert kernel_basis_sparse(a) == Matrix(field, want, a.cols, len(free))
        b = rand_sparse_matrix(rng, field, a.rows, rng.randint(1, 3), 0.3)
        red, pivots = _gauss_jordan(field, [x + y for x, y in zip(dense(a), dense(b))], a.cols + b.cols)
        if pivots and pivots[-1] >= a.cols:
            assert solve(a, b) is None
        else:
            want = [[field.zero] * b.cols for _ in range(a.cols)]
            for row, p in zip(red, pivots):
                want[p] = row[a.cols:]
            assert solve(a, b) == Matrix(field, want, a.cols, b.cols)


def test_solve_refuses_when_only_a_one_entry_row_of_b_is_inconsistent():
    for field in FIELDS:
        # row 2 of A is zero, so row 2 of [A | B] is one entry in B's column
        a = mat(field, [[1, 2, 0], [0, 1, 1], [0, 0, 0], [1, 0, 0]])
        b = mat(field, [[0], [0], [3], [0]])
        assert solve(a, b) is None
        assert solve(a, mat(field, [[1], [1], [0], [1]])) is not None


def test_peeling_a_long_cascade_is_linear():
    """Rows e_i + 2·e_(i+1) and a last row e_n: each peel frees the row above
    it.  A rescan for one-entry rows would take about 50 s at this size."""
    n = 20_000
    cols = [{i: 1} for i in range(n)] + [{n: 1}]
    for i in range(n):
        cols[i + 1][i] = 2
    a = Matrix.from_cols(F5, n + 1, cols)
    start = time.process_time()
    k = kernel_basis_sparse(a)
    assert time.process_time() - start < 5
    assert (k.rows, k.cols) == (n + 1, 0)


# -- identity shortcuts and shared columns ---------------------------------------


def _fresh_identity(field, n):
    """An n x n identity built here, not the shared one of Matrix.identity."""
    return Matrix.from_cols(field, n, [{i: field.one} for i in range(n)])


def _sparse(rng, field, rows, cols):
    """Columns of zero to three nonzeros drawn from _scalars(field)."""
    pool = _scalars(field)
    return Matrix.from_cols(field, rows, [{i: rng.choice(pool) for i in rng.sample(range(rows), min(rows, n))}
                                          for n in (rng.choice((0, 1, 1, 2, 3)) for _ in range(cols))])


def _operand(rng, field, rows, cols):
    """A rows x cols matrix of one of five kinds: an identity (shared or
    built here; off the square, the injection or projection whose columns
    are an identity's), a permutation, one-nonzero columns equal to one,
    some zero columns, or mixed dense columns."""
    one, kind = field.one, rng.choice(("identity", "permutation", "ones", "zeros", "dense"))
    if kind == "identity":
        if rows == cols and rng.random() < 0.5:
            return Matrix.identity(field, rows)
        return Matrix.from_cols(field, rows, [{i: one} if i < rows else {} for i in range(cols)])
    if kind == "permutation" and rows == cols:
        return Matrix.from_cols(field, rows, [{i: one} for i in rng.sample(range(rows), rows)])
    if kind in ("permutation", "ones") and rows:
        return Matrix.from_cols(field, rows, [{rng.randrange(rows): one} for _ in range(cols)])
    if kind == "zeros":
        return Matrix.from_cols(field, rows, [{} if rng.random() < 0.5 else c
                                              for c in _sparse(rng, field, rows, cols).columns])
    return Matrix(field, [[rng.choice(_scalars(field) + [field.zero]) for _ in range(cols)]
                          for _ in range(rows)], rows, cols)


def _copy(m):
    """A deep copy of m's columns, on the same field object."""
    return copy.deepcopy(m, {id(m.field): m.field})


@pytest.mark.parametrize("field", [QQ, GF(2), F5], ids=str)
def test_no_operation_changes_an_operand_or_a_result_it_shares_columns_with(field):
    """Results share column dicts with their operands (products on a row
    table, identity products, solve's system), so every operation is run on
    identities, permutations, one-`one`, zero and dense columns, and then
    each operand must equal its deep copy, taken before, and each result the
    one computed from fresh copies, after every operation has run."""
    rng = rng_for(f"aliasing-{field!r}")
    for _ in range(60):
        r, k, c, br, bc = (rng.choice((0, 1, 2, 2, 3, 3)) for _ in range(5))
        draw = partial(_operand, rng, field)
        a, a2, b, bb = draw(r, k), draw(r, k), draw(k, c), draw(br, bc)
        m, rhs = draw(k * bc, c), draw(r, c)
        ops = [
            (Matrix.__matmul__, a, b),
            (Matrix.__add__, a, a2),
            (Matrix.__sub__, a, a2),
            (kron, a, bb),
            (kron_apply, a, bb, m),
            (_kron_difference, a, a2),
            (Matrix.rref, a),
            (solve, a, rhs),
            (kernel_basis_sparse, a),
            (kernel_left_inverse, kernel_basis_sparse(a)),
            (left_inverse, kernel_basis_sparse(a)),
        ]
        runs = []
        for fn, *args in ops:
            copies = [_copy(x) for x in args]
            result = fn(*args)
            assert args == copies, fn.__name__
            runs.append((fn, args, copies, result))
        # the results, some of them sharing columns, are built and live together
        for fn, args, copies, result in runs:
            assert args == copies, fn.__name__
            assert result == fn(*[_copy(x) for x in copies]), fn.__name__


@pytest.mark.parametrize("field", [QQ, GF(2), F5], ids=str)
def test_identity_products_return_the_other_operand(field):
    rng = rng_for(f"identity-products-{field!r}")
    assert Matrix.identity(field, 3) is Matrix.identity(field, 3)
    for n in (0, 1, 3):
        for i in (Matrix.identity(field, n), _fresh_identity(field, n)):
            a, b = _sparse(rng, field, 2, n), _sparse(rng, field, n, 4)
            assert a @ i is a and i @ b is b
            for j in (Matrix.identity(field, 2), _fresh_identity(field, 2)):
                m = _sparse(rng, field, 2 * n, 3)
                assert kron_apply(i, j, m) is m and kron_apply(j, i, m) is m
            assert kron(i, i) == Matrix.identity(field, n * n)


def test_zero_by_zero_identity_products():
    i0 = Matrix.identity(QQ, 0)
    assert (i0.rows, i0.cols, i0.columns) == (0, 0, [])
    a, b = Matrix.from_cols(QQ, 3, []), Matrix.from_cols(QQ, 0, [{}] * 2)
    assert a @ i0 is a and i0 @ b is b and i0 @ i0 is i0
    m = Matrix.from_cols(QQ, 0, [{}] * 4)
    assert kron_apply(i0, Matrix.identity(QQ, 5), m) is m


@pytest.mark.parametrize("field", [QQ, GF(2), F5], ids=str)
def test_near_identities_take_the_general_path(field):
    """A permutation and an identity with one extra entry are square, with
    every nonzero one, but are not identities: their products take the
    general path and equal the dense products, and a product column fed by
    one `one` is the left operand's column itself."""
    rng = rng_for(f"near-identities-{field!r}")
    one = field.one
    perm = Matrix.from_cols(field, 3, [{1: one}, {2: one}, {0: one}])
    extra = Matrix.from_cols(field, 3, [{0: one}, {0: one, 1: one}, {2: one}])
    last = Matrix.from_cols(field, 3, [{0: one}, {1: one}, {2: one, 0: one}])
    for p in (perm, extra, last):
        a, b = _sparse(rng, field, 2, 3), _sparse(rng, field, 3, 4)
        assert a @ p == _dense_product(a, p) and p @ b == _dense_product(p, b)
        assert p @ p == _dense_product(p, p) != p
        i = Matrix.identity(field, 2)
        m = _sparse(rng, field, 6, 3)
        for x, y in ((p, i), (i, p)):
            got = kron_apply(x, y, m)
            assert got == _dense_product(kron_oracle(x, y), m) and got is not m
    assert perm @ perm @ perm == Matrix.identity(field, 3)
    a = _sparse(rng, field, 2, 3)
    assert all(x is a.columns[k] for x, k in zip((a @ perm).columns, (1, 2, 0)))


def test_the_direct_sum_injection_is_not_an_identity():
    """gen.direct_sum injects A into A ⊕ B by the columns of an identity,
    without its square shape: products with it, and with the projection
    back, are never their other operand, and equal the dense products."""
    rng = rng_for("direct-sum-injection")
    for field in FIELDS:
        one = field.one
        inj = Matrix.from_cols(field, 3, [{i: one} for i in range(2)])
        proj = Matrix.from_cols(field, 2, [{0: one}, {1: one}, {}])
        a, b = _sparse(rng, field, 4, 3), _sparse(rng, field, 2, 3)
        for x, y in ((a, inj), (inj, b), (proj, _sparse(rng, field, 3, 2)),
                     (_sparse(rng, field, 4, 2), proj)):
            got = x @ y
            assert got == _dense_product(x, y) and got is not x and got is not y
        m = _sparse(rng, field, 4, 3)
        assert kron_apply(inj, inj, m) == _dense_product(kron_oracle(inj, inj), m)
        assert kron_apply(inj, inj, m).rows == 9
    block = primitive_block(QQ)
    total = direct_sum(block, block)
    assert total.dim == 2 * block.dim and check_coalgebra(total).ok


def test_identity_operands_keep_their_errors():
    i2, i3 = Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)
    with pytest.raises(FieldMismatch, match=re.escape("field mismatch: QQ vs GF(5)")):
        i2 @ Matrix.identity(F5, 2)
    with pytest.raises(FieldMismatch, match=re.escape("field mismatch: GF(5) vs QQ")):
        Matrix.identity(F5, 2) @ i2
    with pytest.raises(ShapeMismatch, match=re.escape("cannot compose 3x3 with 2x2")):
        i3 @ i2
    with pytest.raises(ShapeMismatch, match=re.escape("cannot compose 2x3 with 2x2")):
        Matrix.from_cols(QQ, 2, [{}] * 3) @ i2
    with pytest.raises(ShapeMismatch, match=re.escape("kron_apply: M row count must be a.cols * b.cols")):
        kron_apply(i2, i3, Matrix.from_cols(QQ, 5, [{}]))
    with pytest.raises(FieldMismatch, match=re.escape("field mismatch: QQ vs GF(5)")):
        kron_apply(i2, i3, Matrix.identity(F5, 6))
    with pytest.raises(FieldMismatch, match=re.escape("field mismatch: QQ vs GF(5)")):
        kron_apply(i2, Matrix.identity(F5, 3), i3)


def _unit_columns(rng, field, rows, cols, spoil):
    """rows x cols with every column {r: one}, or, when spoil holds and there
    is a column, one column replaced by a zero column, a one-entry column
    whose value is not one (2 or -1), or, over F_2, a two-entry column."""
    one = field.one
    cols = [{rng.randrange(rows): one} if rows else {} for _ in range(cols)]
    if spoil and cols and rows:
        odd = [{rng.randrange(rows): v} for v in (field.of(2), field.of(-1)) if v and v != one]
        wide = [{0: one, rows - 1: one}] if rows > 1 else []
        cols[rng.randrange(len(cols))] = rng.choice([{}] + odd + (wide if not odd else []))
    return Matrix.from_cols(field, rows, cols)


def _fresh_table(m):
    """_unit_rows of a copy of m whose table is not yet known."""
    return linalg._unit_rows(Matrix.from_cols(m.field, m.rows, [dict(c) for c in m.columns]))


@pytest.mark.parametrize("field", [QQ, GF(2), F5], ids=str)
def test_unit_column_products_are_index_maps(field):
    """kron_apply and @ whose operands have every column {r: one} read the
    result off the operands' row tables and keep its table; they equal
    kron(A, B) @ M, the dense product and the general path, on shapes with
    zero rows or columns, identities, and operands with one spoiled column
    (zero, one entry not one, two entries) or M with multi-entry columns,
    which take the general path and keep no table.  The builders that hand
    over their tables (k[X]'s δ and ε, linearized maps, a linearized
    category's d) keep the table a fresh copy finds, and their products
    are the same index maps."""
    rng = rng_for(f"unit-columns-{field!r}")
    unit_path = {True: 0, False: 0}
    for _ in range(150):
        ar, ac, br, bc, mc = (rng.choice((0, 1, 2, 3, 3)) for _ in range(5))
        draw = partial(_unit_columns, rng, field)
        a, b = (Matrix.identity(field, r) if r == c and rng.random() < 0.2 else draw(r, c, rng.random() < 0.15)
                for r, c in ((ar, ac), (br, bc)))
        m = _sparse(rng, field, ac * bc, mc) if rng.random() < 0.15 else draw(ac * bc, mc, rng.random() < 0.15)
        tables = [linalg._unit_rows(x) for x in (a, b, m)]
        got = kron_apply(a, b, m)
        assert got == kron(a, b) @ m == _dense_product(kron_oracle(a, b), m)
        assert got == kron_apply(general(a), general(b), general(m))
        _assert_canonical(got)
        if got is not m:
            unit = False not in tables
            assert isinstance(got._units, list) if unit else got._units is None
            unit_path[unit] += 1
        c = _unit_columns(rng, field, bc, mc, rng.random() < 0.3)
        prod = b @ c
        assert prod == _dense_product(b, c) == general(b) @ general(c)
        if linalg._unit_rows(c) is not False and prod is not b and prod is not c:
            if tables[1] is False:  # B's columns, shared
                assert all(x is b.columns[k] for x, k in zip(prod.columns, c._units)) and prod._units is None
            else:  # B's table read at C's, its columns made when read
                assert prod._units == [tables[1][k] for k in c._units]
                assert prod.columns == [b.columns[k] for k in c._units]
        for x in (got, prod):
            if isinstance(x._units, list):
                assert x._units == _fresh_table(x)
            assert _copy(x) == x and _copy(x)._units == x._units
        for x in (a, b, m, c):
            assert linalg._unit_rows(x) == _fresh_table(x)
            if _fresh_table(x) is False:
                assert linalg._unit_rows(x) is False and x._units is False
    assert all(unit_path.values()), unit_path
    handed = [m for n in range(4) for m in (grouplike(field, n).delta, grouplike(field, n).epsilon)]
    handed += [linearize_fun(rand_finfun(rng, rng.randint(0, 3), rng.randint(1, 3)), field).mat for _ in range(8)]
    handed += [linearize_relcat(from_small_category(cat), field).d.mat
               for cat in (fixture_discrete(2), fixture_poset01(), fixture_z2())]
    for h in handed:
        assert isinstance(h._units, list) and h._units == _fresh_table(h)
    for h, g in product(handed, repeat=2):
        if h.cols == g.cols:
            m = grouplike(field, h.cols).delta
            got = kron_apply(h, g, m)
            assert got == _dense_product(kron_oracle(h, g), m) == kron_apply(general(h), general(g), general(m))
            assert got._units == _fresh_table(got)
        if h.cols == g.rows:
            prod = h @ g
            assert prod == _dense_product(h, g) == general(h) @ general(g)
            assert prod._units == _fresh_table(prod)
    one, i2 = field.one, Matrix.identity(field, 2)
    flip = Matrix.from_cols(field, 2, [{1: one}, {0: one}])
    for v in (field.of(2), field.of(-1)):
        if v and v != one:  # 2 and 4 over F_5, 2 and -1 over Q
            x = Matrix.from_cols(field, 2, [{0: one}, {1: v}])
            for got in (kron_apply(x, i2, swap_map(field, 2, 2)), flip @ x):
                assert got._units is None and linalg._unit_rows(got) is False
    empty = Matrix.from_cols(field, 0, [{}] * 3)
    assert linalg._unit_rows(empty) is False and linalg._unit_rows(Matrix.from_cols(field, 3, [])) == []
    assert kron_apply(flip, flip, Matrix.from_cols(field, 4, []))._units == []
    assert kron_apply(i2, Matrix.from_cols(field, 3, []), Matrix.from_cols(field, 0, []))._units == []
    assert kron_apply(Matrix.from_cols(field, 2, []), flip, empty)._units is None


def _near(rng, field, m):
    """A copy of m with a fresh table, or one column moved to another row or
    replaced by a near-miss (_unit_columns' spoil: a zero column, one entry
    not one, two entries), or m itself."""
    cols = [dict(c) for c in m.columns]
    pick = rng.random()
    if cols and m.rows and pick < 0.5:
        spoilt = _unit_columns(rng, field, m.rows, 1, pick < 0.25).columns[0]
        cols[rng.randrange(len(cols))] = spoilt
    out = Matrix.from_cols(field, m.rows, cols)
    linalg._unit_rows(out)
    return m if pick > 0.9 else out


@pytest.mark.parametrize("field", [QQ, GF(2), F5], ids=str)
def test_row_table_readers_equal_their_dict_paths(field):
    """== and _is_identity on row tables compare the tables, and
    kernel_left_inverse on one checks only that its rows are distinct; each
    gives what its dict path gives on general copies, bit for bit: on random
    row-table matrices, identities and near-misses, with 0 rows or columns
    among them."""
    rng = rng_for(f"row-table-readers-{field!r}")
    seen = Counter()
    for _ in range(300):
        r, c = rng.choice((0, 1, 2, 3, 3)), rng.choice((0, 1, 2, 3, 3))
        if r == c and rng.random() < 0.2:
            x = Matrix.identity(field, r)
        else:
            x = _unit_columns(rng, field, r, c, rng.random() < 0.2)
            linalg._unit_rows(x)
        for y in (_near(rng, field, x), Matrix.identity(field, x.rows)):
            want = general(x) == general(y)
            assert (x == y) == (y == x) == want == (x.rows == y.rows and x.columns == y.columns)
            seen[isinstance(x._units, list) and isinstance(y._units, list), want] += 1
        eye = r == c and x.columns == [{i: field.one} for i in range(r)]
        assert linalg._is_identity(x) == linalg._is_identity(general(x)) == eye
        if x.rows and all(x.columns):
            try:
                want = kernel_left_inverse(general(x))
            except InternalSolveFailure:
                with pytest.raises(InternalSolveFailure, match="identity on its free coordinates"):
                    kernel_left_inverse(x)
                seen["refused"] += 1
            else:
                got = kernel_left_inverse(x)
                assert got.columns == want.columns and (got.rows, got.cols) == (want.rows, want.cols)
                seen["inverted", isinstance(x._units, list)] += 1
    assert {(True, True), (True, False), (False, False), "refused", ("inverted", True)} <= seen.keys(), seen


def test_first_difference_of_one_matrix_reads_no_column():
    """first_difference(m, m) is None without making the columns of a matrix
    built from its table; equal but distinct matrices still compare as None,
    and different ones name their first differing column."""
    for field in FIELDS:
        m = linalg._unit_matrix(field, 4, [2, 0, 3])
        assert linalg.first_difference(m, m) is None
        with pytest.raises(AttributeError):
            object.__getattribute__(m, "columns")
        one = field.one
        same = Matrix.from_cols(field, 4, [{2: one}, {0: one}, {3: one}])
        assert linalg.first_difference(m, same) is None and linalg.first_difference(same, m) is None
        for j in range(3):
            cols = [dict(c) for c in same.columns]
            cols[j] = {1: one}
            other = Matrix.from_cols(field, 4, cols)
            assert linalg.first_difference(m, other) == j == linalg.first_difference(other, same)


def test_a_matrix_built_from_its_table_makes_its_columns_on_first_read():
    """_unit_matrix and kron_apply on tables build no column until one is
    read; the columns are then made once and kept, equal to those the
    table names, and copies and the dict paths see the same matrix.  Any
    other missing attribute is still missing."""
    for field in FIELDS:
        one = field.one
        m = linalg._unit_matrix(field, 4, [2, 0, 2])
        prod = kron_apply(m, Matrix.identity(field, 3), linalg._unit_matrix(field, 9, [4, 0]))
        for x in (m, prod):
            with pytest.raises(AttributeError):
                object.__getattribute__(x, "columns")
        want = [{2: one}, {0: one}, {2: one}]
        assert copy.deepcopy(m) == m == Matrix.from_cols(field, 4, want) == general(Matrix.from_cols(field, 4, want))
        assert m.columns == want and m.columns is m.columns
        assert prod.columns == [{1: one}, {6: one}]
        assert (m @ linalg._unit_matrix(field, 3, [1, 0])).columns == [{0: one}, {2: one}]
        assert getattr(m, "not_an_attribute", None) is None


def test_row_tables_refuse_what_the_columns_refuse():
    """Equal tables on another row count or field are unequal matrices, and
    a row table with a repeated row has no left inverse."""
    for field in FIELDS:
        x = linalg._unit_matrix(field, 3, [0, 2])
        assert x == linalg._unit_matrix(field, 3, [0, 2])
        assert x != linalg._unit_matrix(field, 4, [0, 2])
        assert x != linalg._unit_matrix(GF(7), 3, [0, 2])
        assert not linalg._is_identity(linalg._unit_matrix(field, 2, [1, 0]))
        for rows in ([1, 1], [0, 2, 0]):
            with pytest.raises(InternalSolveFailure, match="identity on its free coordinates"):
                kernel_left_inverse(linalg._unit_matrix(field, 3, rows))


# -- refusals --------------------------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda: Matrix(QQ, [[1, 2], [3]], 2, 2), ShapeMismatch, "ragged rows"),
    (lambda: Matrix(QQ, [[1]], 2, 1), ShapeMismatch, "1 rows given for a 2x1 matrix"),
    (lambda: Matrix.identity(QQ, 2) + Matrix.identity(QQ, 3), ShapeMismatch, "2x2 vs 3x3"),
    (lambda: mat(QQ, [[1, 2, 3], [4, 5, 6]]) - Matrix.identity(QQ, 2), ShapeMismatch, "2x3 vs 2x2"),
    (lambda: Matrix.identity(QQ, 2) + Matrix.identity(GF(5), 2), FieldMismatch,
     "field mismatch: QQ vs GF(5)"),
    (lambda: left_inverse(mat(QQ, [[1, 1]])), InternalSolveFailure,
     "matrix has no left inverse (not injective)"),
], ids=["ragged-rows", "row-count", "sum-of-two-shapes", "difference-of-two-shapes",
        "sum-over-two-fields", "left-inverse-of-a-non-injection"])
def test_matrix_refusals_name_their_shapes(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
