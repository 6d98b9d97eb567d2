"""Column-sparse exact linear algebra over Q and F_p.

A Matrix stores one dict per column, {row index: value}, holding only the
nonzero entries as canonical field scalars (see fields: ints and Fractions
over Q, int residues over F_p).  Every operation returns that form, so two
matrices are equal exactly when their columns are equal dicts, and storage
and work grow with the number of nonzeros, not with rows × columns.

A @ B accumulates the sums of each output column and normalizes each
entry once; a column of B with one nonzero b has no sum, and gives the
column of A it picks, shared when b is one and scaled otherwise.
kron_apply, (A⊗B)∘M without A⊗B, states its path rules in its docstring,
and kron is kron_apply on the identity.  _coassoc_difference compares
(δ⊗1)∘δ with (1⊗δ)∘δ; on a dense δ over F_p it builds neither, and decides
each column in the packed slots kron_apply uses.  X⊗Z - W⊗Y is built one
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
the kernel of a count-one system (below), finset.linearize_fun, the d of
relcat.linearize_relcat, coalg._delta_apply on a tensor product and the
δ_E of coalg._subcoalgebra; for any other matrix _unit_rows finds it on
first use.  As matrices never change, it never goes stale.  A matrix those
builders make, the shared identities aside, holds its table alone and
makes its column dicts when they are first read; a relative pullback of
linearized finite sets, its filler, apex check and cotensor comparison
read none.  The table is the one fast path for such data: kron_apply on
three tables, and A @ B on B's, is an index map that keeps the result's
table (A @ B when A has one, reading no column of A), and X⊗Z - W⊗Y on
four tables has each column {r: one, t: -one}, or nothing where r = t, r
and t read off two index lists.  == and _is_identity on two tables
compare the tables, and kernel_left_inverse on one checks only that its
rows are distinct.

Matrices act on column vectors: a matrix with shape (rows, cols) is a linear
map from a cols-dimensional space to a rows-dimensional space, and composition
g∘f is the product G @ F.  Tensor indices are row-major throughout:
e_i ⊗ f_j lives at index i * dim(second factor) + j.

Matrices never change once built (the columns of one built from its table
are made once, when first read), nor do their column dicts, which results
share with their operands (identity products, A @ B on B's row table when
A has none or at a column of B that is one entry equal to one, from_cols): no function
writes to a matrix's column; each one that updates a column in place
updates a dict of its own.

The package builds every matrix from sparse columns or a row table.  Five
names have no caller in it and are kept only because the benchmark under
bench/ reads them: the dense constructor Matrix(field, rows, r, c), the
dense view Matrix.data, Matrix.col_sparse, Matrix.rref and left_inverse.
The tests use them too; a rank is len(m.rref()[1]).

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
kernel_basis_sparse builds not even that form: the free columns of such a
system are its empty ones, so its kernel is their unit columns, read off
the system's empty columns with their row table.
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
    matrices or found by _unit_rows, stays true.  A matrix built from its
    table alone (_unit_matrix) makes its column dicts on first read."""

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

    @staticmethod
    @cache
    def identity(field, n):
        """The n x n identity over field, one shared matrix per (field, n);
        a product with a square identity operand, and kron_apply with two
        square identity factors, return the other operand as it is.  It is
        built with its columns and its table: an operand of dense products
        too, it stays a plain Matrix (see _TableMatrix)."""
        m = Matrix.from_cols(field, n, [{i: field.one} for i in range(n)])
        m._units = list(range(n))
        return m

    # -- basics ------------------------------------------------------------

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if not ((self.field is other.field or self.field == other.field)
                and self.rows == other.rows and self.cols == other.cols):
            return False
        mine, theirs = self._units, other._units
        if isinstance(mine, list) and isinstance(theirs, list):
            return mine == theirs
        return self.columns == other.columns

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
        fld = self.field
        if (br := _unit_rows(other)) is not False and (ar := _unit_rows(self)) is not False:
            return _unit_matrix(fld, self.rows, [ar[k] for k in br])
        acols = self.columns
        if br is not False:
            return Matrix.from_cols(fld, self.rows, [acols[k] for k in br])
        norm, one, cols = fld.normalize, fld.one, []
        for col in other.columns:
            if not col:
                cols.append({})
            elif len(col) == 1:  # no sum: A's column, shared, or scaled, as no product is 0 in a field
                ((k, b),) = col.items()
                cols.append(acols[k] if b == one else {i: norm(a * b) for i, a in acols[k].items()})
            else:
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


def _unit_rows(m):
    """The row r of each column of m when every column is {r: one}, else
    False; found once per matrix, at the first column that fails, and kept
    in m._units (None until then: None and False survive a deep copy)."""
    if m._units is None:
        one, cols = m.field.one, m.columns
        m._units = all(len(c) == 1 and one in c.values() for c in cols) and [r for c in cols for r in c]
    return m._units


class _TableMatrix(Matrix):
    """A matrix built from its row table alone (_unit_matrix), whose columns
    are made on first read and kept.  A subclass, as a class with
    __getattr__ loses the interpreter's specialized attribute reads: every
    other matrix keeps them."""

    __slots__ = ()

    def __getattr__(self, name):
        """Called only for an attribute not set: the columns, on first read."""
        if name != "columns":
            raise AttributeError(name)
        one = self.field.one
        self.columns = [{r: one} for r in self._units]
        return self.columns


def _unit_matrix(field, nrows, rows):
    """The matrix whose column j is {rows[j]: one}, from its row table alone:
    its columns are made when first read (_TableMatrix)."""
    m = _TableMatrix.__new__(_TableMatrix)
    m.field, m.rows, m.cols, m._units = field, nrows, len(rows), rows
    return m


def _is_identity(m):
    """Whether m is a square identity: its row table is the cached
    identity's when it has one, else its columns are (a list compare, which
    stops at the first column that differs)."""
    if m.rows != m.cols:
        return False
    eye = Matrix.identity(m.field, m.rows)
    return m._units == eye._units if isinstance(m._units, list) else m.columns == eye.columns


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
    at c and to minus the reduced row echelon entries at the pivots; A·K = 0.
    When every row has count one, the free columns are the empty ones, and
    the basis is their unit columns, with its row table, and no form built."""
    cols = a.columns
    if len(set(chain.from_iterable(cols))) == sum(map(len, cols)):
        return _unit_matrix(a.field, a.cols, [c for c, col in enumerate(cols) if not col])
    return _kernel(a.field, _reduce(a.field, cols), a.cols)


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
    distinct, each column is one at its own and zero at every other.  On a
    row table, whose column t is {r_t: one}, that is: the rows are distinct."""
    one, table = k.field.one, k._units
    free = table if isinstance(table, list) else [max(col) for col in k.columns]
    at = {i: t for t, i in enumerate(free)}
    if len(at) != len(free) or free is not table and any(col[i] != one or len(col.keys() & at.keys()) != 1
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
    {r: one, t: -one}, or nothing when r = t, r and t the rows of column c
    of each product's table, built as two index lists."""
    for m in (z, w, y):
        require_same_field(x.field, m.field)
    rows, cols = x.rows * z.rows, x.cols * z.cols
    if (rows, cols) != (w.rows * y.rows, w.cols * y.cols):
        raise ShapeMismatch(f"cannot subtract a {w.rows * y.rows}x{w.cols * y.cols} Kronecker "
                            f"product from a {rows}x{cols} one")
    fld = x.field
    norm, neg, one = fld.normalize, fld.neg, fld.one
    if False not in (tables := [_unit_rows(m) for m in (x, z, w, y)]):
        (xr, zr, wr, yr), minus = tables, neg(one)
        left = [i + k for i in [i * z.rows for i in xr] for k in zr]
        right = [i + k for i in [i * y.rows for i in wr] for k in yr]
        return Matrix.from_cols(fld, rows, [{r: one, t: minus} if r != t else {} for r, t in zip(left, right)])
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
    # nonzeros beyond one per column, negative when a column is empty
    over_a, over_b = sum(map(len, acols)) - len(acols), sum(map(len, bcols)) - len(bcols)
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
            y = packed[q] = _pack(bcols[q], width)
        if y:
            mid[p] = mid.get(p, 0) + v * y
    blocks = {}
    for p, w in mid.items():
        for i, x in acols[p].items():
            blocks[i] = blocks.get(i, 0) + x * w
    return {k: r for i in sorted(blocks)
            for k, s in enumerate(memoryview(blocks[i].to_bytes(width, order)).cast("Q"), i * nb)
            if (r := s % prime)}


def _pack(col, width):
    """The int whose 64-bit slot k holds col[k], in width bytes."""
    slots = memoryview(bytearray(width)).cast("Q")
    for k, x in col.items():
        slots[k] = x
    return int.from_bytes(slots, sys.byteorder)


def _coassoc_difference(d: Matrix):
    """The first column j at which (δ⊗1)∘δ and (1⊗δ)∘δ differ, δ = d of
    shape n² x n, or None; on the packed path neither side is built.

    The path runs over F_p when d is dense enough that the products of the
    two sides, about 2·nnz(d)²/n, cover the n⁴ slots it reads, nnz(d)² ≥ n⁵
    (a row table, nnz = n, never is from n = 2), and top = n·(p-1)² < p·h
    for h the power of two 2^(63 - bit length of p), or 1 from 64 bits on,
    so that 2ph < 2⁶⁴; as ph > 2⁶², that holds whenever 4n(p-1)² < 2⁶⁴.  Column q of d packs into n² slots as δ̂_q,
    and D[a, b] = d[a·n + b, j] for the column j at hand.  The left side,
    in (c, a, b) order, is the blocks Σ_a D[a, c]·δ̂_a, each started at p·h
    in every slot; the right side, in (a, b, c) order, is the blocks
    Σ_b D[a, b]·δ̂_b, moved to (c, a, b) order by n strided copies.  Either
    sum, without that start, has its slots in [0, top], so every slot of
    s = left - right is in [ph - top, ph + top] ⊂ [0, 2⁶⁴) and ≡ the
    difference of the sides mod p.  p divides every slot exactly when p
    divides s and every slot of s / p is below 2h: then the slots of
    p·(s / p) are below 2ph < 2⁶⁴, so they are those of s.  One exact
    division and one mask decide the column, and the first that fails is j.
    Every other d keeps the two kron_apply products: Q and a larger p have
    no slot bound, and a sparse d makes fewer products than the slots it
    would read."""
    fld, n, cols = d.field, d.cols, d.columns
    prime = fld.p if isinstance(fld, PrimeField) else 0
    h = 1 << max(0, 63 - prime.bit_length())
    if not prime or n * (prime - 1) ** 2 >= prime * h or sum(map(len, cols)) ** 2 < n**5:
        i_n = Matrix.identity(fld, n)
        return first_difference(kron_apply(d, i_n, d), kron_apply(i_n, d, d))
    nn, width, order = n * n, 8 * n * n, sys.byteorder
    packed = [_pack(col, width) for col in cols]
    start = int.from_bytes((prime * h).to_bytes(8, order) * nn, order)  # p·h in each of n² slots
    mask = int.from_bytes((2**64 - 2 * h).to_bytes(8, order) * (n * nn), order)  # each slot's bits from 2h up
    for j, col in enumerate(cols):
        left, right = [start] * n, [0] * n
        for r, v in col.items():
            a, b = divmod(r, n)
            left[b] += v * packed[a]
            right[a] += v * packed[b]
        abc = memoryview(b"".join([x.to_bytes(width, order) for x in right])).cast("Q")
        cab = memoryview(bytearray(width * n)).cast("Q")
        for c in range(n):
            cab[c * nn:c * nn + nn] = abc[c::n]
        lhs = b"".join([x.to_bytes(width, order) for x in left])
        q, rest = divmod(int.from_bytes(lhs, order) - int.from_bytes(cab, order), prime)
        if rest or q & mask:
            return j
    return None


def swap_map(field, m: int, n: int) -> Matrix:
    """The symmetry c: V_m ⊗ V_n -> V_n ⊗ V_m, e_i⊗f_j -> f_j⊗e_i."""
    return _unit_matrix(field, m * n, [j * m + i for i in range(m) for j in range(n)])
