"""Column-sparse exact linear algebra over Q and F_p.

A Matrix stores one dict per column, {row index: value}, holding only the
nonzero entries as canonical field scalars (see fields: ints and Fractions
over Q, int residues over F_p).  Every operation returns that form, so two
matrices are equal exactly when their columns are equal dicts, and storage
and work grow with the number of nonzeros, not with rows × columns.

A @ B accumulates the sums of each output column and normalizes each
entry once.  kron_apply, (A⊗B)∘M without A⊗B, states its path rules in its
docstring, and kron is kron_apply on the identity.  X⊗Z - W⊗Y is built one
column at a time, without either product.  These two normalize a product
of entries only when a factor is not one (a Q product of two Fractions can
be integral, an F_p product needs its reduction).  A product with a square
identity operand is its other operand, and kron_apply with two square
identity factors is M, each returned as it is; an identity is one shared
matrix per field and size.

Group-like data (δ, ε, 0/1 maps, identities) has every column a unit vector
{r: one}.  A matrix keeps the row table of such columns.  The builders of
0/1 matrices hand it over (_unit_matrix): Matrix.identity, swap_map,
coalg.grouplike's δ and ε, the matching pairs of coalg._matching_pairs,
finset.linearize_fun and the d of relcat.linearize_relcat; for any other
matrix _unit_rows finds it on first use.  As matrices never change, it
never goes stale.  The table is the one fast path for such data: kron_apply
on three tables, and A @ B on B's, is an index map that keeps the result's
table (A @ B when A has one), and X⊗Z - W⊗Y on four tables has each column
{r: one, t: -one}, or nothing where r = t.

Matrices act on column vectors: a matrix with shape (rows, cols) is a linear
map from a cols-dimensional space to a rows-dimensional space, and composition
g∘f is the product G @ F.  Tensor indices are row-major throughout:
e_i ⊗ f_j lives at index i * dim(second factor) + j.

Matrices never change once built, nor do their column dicts, which results
share with their operands (identity products, A @ B on B's row table,
from_cols): no function writes to a matrix's column; each one that updates a
column in place updates a dict of its own.

The package builds every matrix from sparse columns.  Five names have no
caller in it and are kept only because the benchmark under bench/ reads
them: the dense constructor Matrix(field, rows, r, c), the dense view
Matrix.data, Matrix.col_sparse, Matrix.rref and left_inverse.  The tests
use them too; a rank is len(m.rref()[1]).

All canonical forms (reduced row echelon, kernel bases, solve with zeroed free
variables) come from one elimination on sparse rows.  The reduced row echelon
form is unique, so they are the forms first-nonzero pivoting gives, and every
result is reproducible bit-for-bit.  The elimination reads the columns and
first peels the rows with one nonzero, as structured Gaussian elimination
does: each row's nonzeros are counted once, and a row of count one at column
c puts the unit row e_c in the form and deletes c from every other row
without arithmetic, which leaves the form as it is.  Only the entries of the
columns left are gathered into rows, so a row left with one nonzero is
reduced like any other.  When every row has count one, as in the pullback
and cotensor systems of linearized finite sets, the form is the unit rows of
the nonzero columns, read off the counts with no peel and nothing gathered.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cache
from itertools import chain, product

from .errors import InternalSolveFailure, ShapeMismatch
from .fields import PrimeField, require_same_field


class Matrix:
    """A rows x cols matrix over field, as one {row: nonzero} dict per column,
    built by from_cols and the operations.  The dense constructor, which
    takes row lists of canonical values and the shape, is kept only for the
    benchmark under bench/ (see the module docstring).  A matrix and its
    column dicts never change once built, so results share them, and the
    row table of its unit columns, handed over by the builders of 0/1
    matrices or found by _unit_rows, stays true."""

    __slots__ = ("field", "rows", "cols", "columns", "_units")

    def __init__(self, field, data, rows, cols):
        """data: list of row lists of canonical field values."""
        if len(data) != rows:
            raise ShapeMismatch(f"{len(data)} rows given for a {rows}x{cols} matrix")
        for row in data:
            if len(row) != cols:
                raise ShapeMismatch("ragged rows")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.columns = [{i: row[j] for i, row in enumerate(data) if row[j]} for j in range(cols)]
        self._units = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_cols(cls, field, nrows, cols):
        """From sparse columns: {row index: canonical nonzero value} dicts,
        taken as they are (not copied, no zero values), and never changed
        afterwards by the caller or by the matrix."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = nrows
        m.cols = len(cols)
        m.columns = cols
        m._units = None
        return m

    @classmethod
    def identity(cls, field, n):
        """The n x n identity over field, one shared matrix per (field, n);
        a product with a square identity operand, and kron_apply with two
        square identity factors, return the other operand as it is."""
        return _identity(field, n)

    # -- basics ------------------------------------------------------------

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            (self.field is other.field or self.field == other.field)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.columns == other.columns
        )

    @property
    def data(self):
        """A fresh dense list of row lists; writing to it leaves the matrix as it is."""
        z = self.field.zero
        out = [[z] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                out[i][j] = v
        return out

    def col_sparse(self, j):
        return dict(self.columns[j])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._merge(other, -1)

    def __sub__(self, other):
        return self._merge(other, 1)

    def _merge(self, other, factor):
        """self - factor·other, each column of self updated as elimination
        updates a row (see _subtract)."""
        require_same_field(self.field, other.field)
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        norm, cols = self.field.normalize, [dict(ca) for ca in self.columns]
        for acc, cb in zip(cols, other.columns):
            _subtract(norm, acc, factor, cb)
        return Matrix.from_cols(self.field, self.rows, cols)

    def __matmul__(self, other):
        require_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        if _is_identity(other):
            return self
        if _is_identity(self):
            return other
        fld, acols = self.field, self.columns
        if (br := _unit_rows(other)) is not False:
            out = Matrix.from_cols(fld, self.rows, [acols[k] for k in br])
            out._units = None if (ar := _unit_rows(self)) is False else [ar[k] for k in br]
            return out
        cols = []
        for col in other.columns:
            acc = {}
            get = acc.get
            for k, b in col.items():
                for i, a in acols[k].items():
                    acc[i] = get(i, 0) + a * b
            cols.append(_canonical(fld, acc))
        return Matrix.from_cols(fld, self.rows, cols)

    # -- echelon forms -----------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        red = _reduce(self.field, self.columns)
        return _echelon(self.field, red, self.rows, self.cols), list(red)


@cache
def _identity(field, n):
    return _unit_matrix(field, n, list(range(n)))


def _unit_rows(m):
    """The row r of each column of m when every column is {r: one}, else
    False; found once per matrix, at the first column that fails, and kept
    in m._units (None until then: None and False survive a deep copy)."""
    if m._units is None:
        one, cols = m.field.one, m.columns
        m._units = all(len(c) == 1 and one in c.values() for c in cols) and [r for c in cols for r in c]
    return m._units


def _unit_matrix(field, nrows, rows):
    """The matrix whose column j is {rows[j]: one}, its row table kept."""
    one = field.one
    m = Matrix.from_cols(field, nrows, [{r: one} for r in rows])
    m._units = rows
    return m


def _is_identity(m):
    """Whether m is a square identity: its columns are the cached identity's
    (a list compare, which stops at the first column that differs)."""
    return m.rows == m.cols and m.columns == _identity(m.field, m.rows).columns


def _canonical(field, acc):
    """A sparse column from accumulated sums: normalized, zeros dropped."""
    norm = field.normalize
    return {i: x for i, y in acc.items() if (x := norm(y))}


def _echelon(field, red, rows, cols):
    """The rows x cols matrix whose top rows are those of red, as _reduce
    gives them, in ascending pivot order, and whose other rows are zero."""
    return Matrix.from_cols(field, rows, _flip(list(red.values()), cols))


def _flip(vectors, n):
    """The same entries indexed the other way: entry k of vector i becomes
    entry i of vector k, for k < n."""
    out = [{} for _ in range(n)]
    for i, vec in enumerate(vectors):
        for k, v in vec.items():
            out[k][i] = v
    return out


def _reduce(field, columns):
    """Reduced row echelon form of the matrix with the given sparse columns:
    its nonzero rows as {pivot column: row}, in ascending pivot order.

    The columns that hold a row of count one are peeled (see the module
    docstring); the rows of the others are inserted top to bottom, each with
    its leading entry reduced against the rows already inserted and scaled
    to 1; back-substitution in descending pivot order then makes every pivot
    column a unit vector.  The unit rows need none: no row left holds their
    columns.  When every row has count one, the unit rows of the nonzero
    columns are the whole form, returned at once."""
    norm, one = field.normalize, field.one
    counts = Counter(chain.from_iterable(columns))
    if len(counts) == sum(map(len, columns)):
        return {c: {c: one} for c, col in enumerate(columns) if col}
    single = {i for i, n in counts.items() if n == 1}
    peeled = {c for c, col in enumerate(columns) if not single.isdisjoint(col)}
    rows = {}
    for c, col in enumerate(columns):
        if c not in peeled:
            for i, v in col.items():
                rows.setdefault(i, {})[c] = v
    echelon = {}
    for i in sorted(rows):
        r = rows[i]
        while r:
            c = min(r)
            if c not in echelon:
                break
            _subtract(norm, r, r[c], echelon[c])
        if r:
            if r[c] != one:
                inv = field.inv(r[c])
                r = {k: norm(inv * v) for k, v in r.items()}
            echelon[c] = r
    for c in sorted(echelon, reverse=True):
        r = echelon[c]
        for c2 in [k for k in r if k != c and k in echelon]:
            _subtract(norm, r, r[c2], echelon[c2])
    echelon.update((c, {c: one}) for c in peeled)
    return {c: echelon[c] for c in sorted(echelon)}


def _subtract(norm, r, factor, p):
    """r -= factor·p in place, dropping the entries that become zero."""
    get = r.get
    for k, v in p.items():
        x = norm(get(k, 0) - factor * v)
        if x:
            r[k] = x
        else:
            del r[k]


def solve(a: Matrix, b: Matrix):
    """Deterministic exact solve of A·X = B.

    Returns X with free variables zeroed (after reduced-echelon
    normalization), or None if the system is inconsistent.
    """
    require_same_field(a.field, b.field)
    if a.rows != b.rows:
        raise ShapeMismatch("A and B must have the same number of rows")
    red = _reduce(a.field, a.columns + b.columns)
    if any(p >= a.cols for p in red):
        return None
    xcols = [{} for _ in range(b.cols)]
    for p, row in red.items():
        for k, v in row.items():
            if k >= a.cols:
                xcols[k - a.cols][p] = v
    return Matrix.from_cols(a.field, a.cols, xcols)


def kernel_basis_sparse(a: Matrix) -> Matrix:
    """Canonical basis of ker A as columns: one per free column c, equal to 1
    at c and to minus the reduced row echelon entries at the pivots; A·K = 0."""
    return _kernel(a.field, _reduce(a.field, a.columns), a.cols)


def _kernel(field, red, n):
    """The canonical kernel basis of the n-column matrix whose reduced row
    echelon form is red ({pivot column: row})."""
    kcols = {c: {c: field.one} for c in range(n) if c not in red}
    for p, row in red.items():
        for c, v in row.items():
            if c != p:
                kcols[c][p] = field.neg(v)
    return Matrix.from_cols(field, n, list(kcols.values()))


def kernel_left_inverse(k: Matrix) -> Matrix:
    """L with L·K = I for a canonical kernel basis K (kernel_basis_sparse).

    K is the identity on its free coordinates, the largest row of each
    column, so L is the 0/1 projection onto them.  L·K = I is checked on
    them, without the product: (L·K)[t, s] is K's entry in column s at the
    free coordinate of column t, so it holds when the free coordinates are
    distinct, each column is one at its own and zero at every other."""
    one, free = k.field.one, [max(col) for col in k.columns]
    at = {i: t for t, i in enumerate(free)}
    if len(at) != len(free) or any(col[i] != one or len(col.keys() & at.keys()) != 1
                                   for col, i in zip(k.columns, free)):
        raise InternalSolveFailure("kernel basis is not the identity on its free coordinates")
    cols = [{}] * k.rows  # one shared empty column: no function writes to a column
    for i, t in at.items():
        cols[i] = {t: one}
    return Matrix.from_cols(k.field, k.cols, cols)


def left_inverse(a: Matrix) -> Matrix:
    """L with L·A = I for injective A (deterministic); raises if A is not injective."""
    lt = solve(Matrix.from_cols(a.field, a.cols, _flip(a.columns, a.rows)), Matrix.identity(a.field, a.cols))
    if lt is None:
        raise InternalSolveFailure("matrix has no left inverse (not injective)")
    return Matrix.from_cols(a.field, a.cols, _flip(lt.columns, lt.rows))


def first_difference(a: Matrix, b: Matrix):
    """The first column index at which two matrices of one shape differ, or None."""
    return next((j for j, (x, y) in enumerate(zip(a.columns, b.columns)) if x != y), None)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with row-major basis convention:
    (A⊗B)(e_i⊗f_j) indexes at i * b.cols + j in the domain and the analogous
    row-major position in the codomain; kron_apply on the identity."""
    return kron_apply(a, b, Matrix.identity(a.field, a.cols * b.cols))


def _kron_difference(x: Matrix, z: Matrix, w: Matrix, y: Matrix) -> Matrix:
    """kron(x, z) - kron(w, y) in one pass, without either product: the
    columns of each product are the pairs of factor columns in order, for
    any two splits of one shape; each column is built as kron builds it, and
    the entries of the second product are subtracted into it, dropping those
    that cancel.  When all four factors have row tables, column c is
    {r: one, t: -one}, or nothing when r = t, r and t found by index."""
    for m in (z, w, y):
        require_same_field(x.field, m.field)
    rows, cols = x.rows * z.rows, x.cols * z.cols
    if (rows, cols) != (w.rows * y.rows, w.cols * y.cols):
        raise ShapeMismatch(f"cannot subtract a {w.rows * y.rows}x{w.cols * y.cols} Kronecker "
                            f"product from a {rows}x{cols} one")
    fld = x.field
    norm, neg, one = fld.normalize, fld.neg, fld.one
    if False not in (tables := [_unit_rows(m) for m in (x, z, w, y)]):
        (xr, zr, wr, yr), minus, out = tables, neg(one), []
        for c in range(cols):
            r, t = xr[c // z.cols] * z.rows + zr[c % z.cols], wr[c // y.cols] * y.rows + yr[c % y.cols]
            out.append({r: one, t: minus} if r != t else {})
        return Matrix.from_cols(fld, rows, out)
    # each product's columns in order, as pairs of factor columns, the left factor's rows pre-scaled
    xs, zs = [[(i * z.rows, a) for i, a in c.items()] for c in x.columns], [c.items() for c in z.columns]
    ws, ys = [[(i * y.rows, a) for i, a in c.items()] for c in w.columns], [c.items() for c in y.columns]
    out = []
    for (xp, zq), (wp, yq) in zip(product(xs, zs), product(ws, ys)):
        col = {i + k: b if a == one else a if b == one else norm(a * b) for i, a in xp for k, b in zq}
        get = col.get
        for i, a in wp:
            for k, b in yq:
                v = b if a == one else a if b == one else norm(a * b)
                c = get(i + k)
                if c is None:
                    col[i + k] = neg(v)
                elif s := norm(c - v):
                    col[i + k] = s
                else:
                    del col[i + k]
        out.append(col)
    return Matrix.from_cols(fld, rows, out)


def kron_apply(a: Matrix, b: Matrix, m: Matrix) -> Matrix:
    """(A⊗B) @ M without materializing A⊗B: each nonzero v at row p·b.cols+q
    of a column of M adds v·A[:,p]⊗B[:,q] to that column of the result.
    When A, B and M have row tables (every column {r: one}), the result is
    their index map, with its table.  Otherwise a column of M with one
    nonzero is that one term, built in one pass.

    Over F_p, a column of M with N nonzeros is accumulated in packed 64-bit
    slots (_packed_column) when no column of A or B is zero, one of them has
    more than one nonzero per column on average (dense⊗dense, dense⊗identity),
    N·(p-1)³ < 2⁶⁴, as every slot sums at most N products of three residues
    below p, so none can carry into the next before the one reduction per
    entry (delayed reduction, as in FFLAS-FFPACK, on Kronecker substitution),
    and N·lo_a·lo_b ≥ a.rows·b.rows, lo_a and lo_b being the fewest
    nonzeros in a column of A and of B: the column then makes at least as
    many products as the slots it can unpack, one Python step each.  Q has no
    such bound on its sums, nor does a larger p, and a factor with a zero
    column or a sparse one (a matrix coalgebra's δ, with n of its n⁴ rows)
    would unpack mostly empty slots, so those keep the dict paths: through
    the middle, (A⊗1)∘(1⊗B), when both factors have more than one nonzero
    per column on average, where the nonzeros that share a p are summed into
    one combination of B's columns, which each nonzero of A[:,p] then scales;
    otherwise each A[:,p]⊗B[:,q] is built once, when a row of M first uses
    it.  Either way the sums are normalized once per entry."""
    require_same_field(a.field, b.field)
    require_same_field(a.field, m.field)
    if m.rows != a.cols * b.cols:
        raise ShapeMismatch("kron_apply: M row count must be a.cols * b.cols")
    if _is_identity(a) and _is_identity(b):
        return m
    norm, one, nb, bc = m.field.normalize, m.field.one, b.rows, b.cols
    if (mr := _unit_rows(m)) is not False and (ar := _unit_rows(a)) is not False and (
            br := _unit_rows(b)) is not False:
        return _unit_matrix(m.field, a.rows * nb, [ar[r // bc] * nb + br[r % bc] for r in mr])
    acols, bcols = a.columns, b.columns
    fp = isinstance(m.field, PrimeField)
    # nonzeros beyond one per column; B's are counted only when they can decide a path, else -1
    over_a = sum(map(len, acols)) - len(acols)
    over_b = sum(map(len, bcols)) - len(bcols) if over_a > 0 or fp and over_a == 0 else -1
    middle = over_a > 0 and over_b > 0
    # every column of A has lo_a nonzeros or more and of B lo_b, so a column of M with N nonzeros makes at
    # least N·lo_a·lo_b products; it is packed when they cover the a.rows·nb slots and N·(p-1)³ < 2⁶⁴
    lo = fp and over_a + over_b > 0 and min(map(len, acols), default=0) * min(map(len, bcols), default=0)
    least, most = (-(-a.rows * nb // lo), (2**64 - 1) // (m.field.p - 1) ** 3) if lo else (1, 0)
    packed, terms, out = {}, {}, []
    for mcol in m.columns:
        if len(mcol) == 1:
            ((idx, v),) = mcol.items()
            p, q = divmod(idx, bc)
            ap, bq = acols[p].items(), bcols[q].items()
            out.append({i * nb + k: one if v == x == y == one else norm(v * x * y)
                        for i, x in ap for k, y in bq})
            continue
        if least <= len(mcol) <= most:
            out.append(_packed_column(acols, bcols, nb, m.field.p, packed, mcol))
            continue
        acc = {}
        get = acc.get
        if middle:
            mid = {}
            for idx, v in mcol.items():
                p, q = divmod(idx, bc)
                c = mid.setdefault(p, {})
                cget = c.get
                for k, y in bcols[q].items():
                    c[k] = cget(k, 0) + v * y
            for p, c in mid.items():
                for i, x in acols[p].items():
                    base = i * nb
                    for k, w in c.items():
                        acc[base + k] = get(base + k, 0) + x * w
        else:
            for idx, v in mcol.items():
                t = terms.get(idx)
                if t is None:
                    p, q = divmod(idx, bc)
                    bq = bcols[q].items()
                    t = terms[idx] = [(i * nb + k, av * bv) for i, av in acols[p].items() for k, bv in bq]
                for k, w in t:
                    acc[k] = get(k, 0) + v * w
        out.append(_canonical(m.field, acc))
    return Matrix.from_cols(m.field, a.rows * nb, out)


def _packed_column(acols, bcols, nb, prime, packed, mcol):
    """One column of (A⊗B) @ M over F_p, within kron_apply's slot bound, in
    64-bit slots of ints: each column of B is packed once per call (slot k
    holds B[k,q]) and cached in packed, mid_p = Σ v·B̂_q over the nonzeros
    that share a p, block_i = Σ_p A[i,p]·mid_p for each row i of A reached,
    and each block is unpacked once, reduced, zeros dropped, rows ascending."""
    bc, width, order = len(bcols), 8 * nb, sys.byteorder
    mid = {}
    for idx, v in mcol.items():
        p, q = divmod(idx, bc)
        y = packed.get(q)
        if y is None:
            slots = memoryview(bytearray(width)).cast("Q")
            for k, x in bcols[q].items():
                slots[k] = x
            y = packed[q] = int.from_bytes(slots, order)
        if y:
            mid[p] = mid.get(p, 0) + v * y
    blocks = {}
    for p, w in mid.items():
        for i, x in acols[p].items():
            blocks[i] = blocks.get(i, 0) + x * w
    return {k: r for i in sorted(blocks)
            for k, s in enumerate(memoryview(blocks[i].to_bytes(width, order)).cast("Q"), i * nb)
            if (r := s % prime)}


def swap_map(field, m: int, n: int) -> Matrix:
    """The symmetry c: V_m ⊗ V_n -> V_n ⊗ V_m, e_i⊗f_j -> f_j⊗e_i."""
    return _unit_matrix(field, m * n, [j * m + i for i in range(m) for j in range(n)])
