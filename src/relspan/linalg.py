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
and kron is kron_apply on the identity; a contraction, a square identity
beside a counit or a coordinate projection, is one pass (_contract).
Over F_p, three equations are decided on one packed layer: sums of
products of residues in 64-bit slots, reduced once per slot.  It has one
gate on the products a slot may sum (_most_terms), one block sum
(A⊗B)·m (_kron_blocks), one pack, unpack and join (_pack, _slots, _join)
and one test of two sums, an exact division and a mask (_slot_test).
kron_apply's packed column unpacks a block sum mod p; _coassoc_difference
compares (δ⊗1)∘δ with (1⊗δ)∘δ on a dense δ, building neither; and
_closed_delta decides whether a subspace K of a tensor coalgebra is
closed, (K⊗K)∘δ_E = δ∘K, both sides block sums, building neither, and
reads δ_E off them.  X⊗1 - 1⊗Y, the system of a relative pullback and
of the cotensor (see coalg), is built one column at a time, without
either product, and multiplies no entries.  A column of kron_apply with
one term normalizes its product of entries only when a factor is not one
(a Q product of two Fractions can be integral, an F_p product needs its
reduction).  A product with a square
identity operand is its other operand, and kron_apply with two square
identity factors is M, each returned as it is; an identity is one shared
matrix per field and size.

Group-like data (δ, ε, 0/1 maps, identities) has every column a unit
vector {r: one}.  A matrix keeps the row table of such columns.  The
builders of 0/1 matrices hand it over (_unit_matrix): Matrix.identity,
swap_map, coalg.grouplike's δ and ε, the K' and projections of a
group-like pullback (coalg._grouplike_pullback), whose apex is
coalg.grouplike, and its fillers (coalg._grouplike_filler), the kernel
of a count-one system (below, and _difference_kernel),
finset.linearize_fun and the d of relcat.linearize_relcat; for any other
matrix _unit_rows finds it on first use.  As matrices never change, it
never goes stale.  A matrix those builders make, the shared identities
aside, holds its table alone and makes its column dicts when they are
first read; a relative pullback of linearized finite sets, its filler,
apex check and cotensor comparison read none: coalg._grouplike_pullback
builds it from the matching pairs and coalg._grouplike_filler makes the
filler's checks on index lists, with no product, and the cotensor, which
derives its own X and Y, cross-checks them.  The table is the one fast
path for such data: kron_apply on three tables, and A @ B on B's, is an
index map that keeps the result's table (A @ B when A has one, reading
no column of A), and the kernel of X⊗1 - 1⊗Y on two tables, whose column
(p, q) is e_r - e_t, or nothing where r = t, is read off the two index
lists of the r and the t (_difference_kernel) when the system has count
one, with no system built; one that is not count one is built on the
dict path as any other.  == and _is_identity on two tables compare the
tables, and kernel_left_inverse on one checks only that its rows are
distinct.

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
reduced like any other.  A system whose rows all have count one is read
by kernel_basis_sparse alone, which builds no form: the free columns of
such a system are its empty ones, so its kernel is their unit columns,
read off the system's empty columns with their row table (the cotensor
system of linearized finite sets is not even built: _difference_kernel
reads the same columns off its factors' tables).  The elimination has no
route of its own for such a system: the peel alone gives its form.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cache
from itertools import chain, compress, count
from operator import eq

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
    columns.  A system whose rows all have count one is all peel; only
    kernel_basis_sparse reads such a system without this form."""
    norm, one = field.normalize, field.one
    counts = Counter(chain.from_iterable(columns))
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
    """The first column index at which two matrices of one shape differ, or
    None: at once, reading no column, when they are one matrix."""
    if a is b:
        return None
    return next((j for j, (x, y) in enumerate(zip(a.columns, b.columns)) if x != y), None)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with row-major basis convention:
    (A⊗B)(e_i⊗f_j) indexes at i * b.cols + j in the domain and the analogous
    row-major position in the codomain; kron_apply on the identity."""
    return kron_apply(a, b, Matrix.identity(a.field, a.cols * b.cols))


def _kron_difference(x: Matrix, y: Matrix) -> Matrix:
    """x⊗1 - 1⊗y in one pass, without either product, the identities of
    y.cols and x.cols dimensions, for x and y of one ratio of rows to
    columns: column (p, q) is x's column p at the rows i·m + q, m = y.cols,
    and y's column q at the rows p·y.rows + k subtracted into it, dropping
    the entries that cancel.  Row tables take no path of their own here:
    the cotensor reads its kernel off them (_difference_kernel), and a
    system of tables that is not count one is built here as any other."""
    require_same_field(x.field, y.field)
    fld, m, s, rows = x.field, y.cols, y.rows, x.rows * y.cols
    if rows != x.cols * s:
        raise ShapeMismatch(f"cannot subtract 1⊗y, {x.cols * s} rows, from x⊗1, {rows} rows")
    norm, out = fld.normalize, []
    for p, xc in enumerate(x.columns):
        xs = [(i * m, a) for i, a in xc.items()]
        for q, yc in enumerate(y.columns):
            col, at = {i + q: a for i, a in xs}, p * s
            for k, b in yc.items():
                # an entry that x⊗1 lacks is -b, never 0; one that cancels is dropped
                if v := norm(col.get(at + k, 0) - b):
                    col[at + k] = v
                else:
                    del col[at + k]
            out.append(col)
    return Matrix.from_cols(fld, rows, out)


def _difference_kernel(x: Matrix, y: Matrix) -> Matrix | None:
    """kernel_basis_sparse(_kron_difference(x, y)), read off two index lists
    with no system built, when x and y, of the shapes _kron_difference
    takes, have row tables and the system has count one; else None.
    Column (p, q) of x⊗1 - 1⊗y is then e_r - e_t, r = x_p·m + q and
    t = p·s + y_q (m = y.cols, s = y.rows), and nothing where r = t.  Of n
    columns, k with r = t, the rows that the r and t reach are at most
    2n - k, and exactly that many only when every r and t of the other
    columns is distinct: every row then has count one, and the kernel is
    the unit columns at the columns r = t, with their row table.  A system
    of count one falls short of 2n - k only when one of those rows is also
    that of a column r = t, which needs a row repeated in x's or y's table,
    as (1⊗f)∘δ and (g⊗1)∘δ of k[X] never have; it is then built, and
    kernel_basis_sparse reads it."""
    if (xr := _unit_rows(x)) is False or (yr := _unit_rows(y)) is False:
        return None
    m, s = y.cols, y.rows
    left = [r * m + q for r in xr for q in range(m)]
    right = [p * s + t for p in range(x.cols) for t in yr]
    free = list(compress(count(), map(eq, left, right)))
    if len(set(left).union(right)) != 2 * len(left) - len(free):
        return None
    return _unit_matrix(x.field, len(left), free)


def kron_apply(a: Matrix, b: Matrix, m: Matrix) -> Matrix:
    """(A⊗B) @ M without materializing A⊗B: each nonzero v at row p·b.cols+q
    of a column of M adds v·A[:,p]⊗B[:,q] to that column of the result.
    When A, B and M have row tables (every column {r: one}), the result is
    their index map, with its table.  Otherwise a contraction, one factor a
    square identity and the other with at most one nonzero in each column
    and no more rows than columns (a counit, a coordinate projection:
    (1⊗ε)∘δ, (ε⊗1)∘δ, p_A and p_C), is one pass over the nonzeros of each
    column of M (_contract), a product the packed path below never takes.
    On any other factors a column of M with one nonzero is that one term,
    built in one pass.

    Over F_p, a column of M with N nonzeros is the packed layer's block sum
    (_kron_blocks), unpacked mod p (_packed_column), when no column of A or
    B is zero, one of them has more than one nonzero per column on average
    (dense⊗dense, dense⊗identity), the gate admits N unpacked products of
    three residues (_most_terms: N·(p-1)³ < 2⁶⁴), as every slot sums at
    most N of them, so none can carry into the next before the one
    reduction per entry, and N·lo_a·lo_b ≥ a.rows·b.rows, lo_a and lo_b
    being the fewest nonzeros in a column of A and of B: the column then
    makes at least as many products as the slots it can unpack, one Python
    step each.  Q has no such bound on its sums, nor does a larger p, and a
    factor with a zero column or a sparse one (a matrix coalgebra's δ, with
    n of its n⁴ rows) would unpack mostly empty slots, so those take the
    dict path, through the middle, (A⊗1)∘(1⊗B): the nonzeros that share a p
    are summed into one combination of B's columns, which each nonzero of
    A[:,p] then scales.
    Every path normalizes its sums once per entry."""
    require_same_field(a.field, b.field)
    require_same_field(a.field, m.field)
    if m.rows != a.cols * b.cols:
        raise ShapeMismatch("kron_apply: M row count must be a.cols * b.cols")
    if _is_identity(a) and _is_identity(b):
        return m
    fld, nb, bc = m.field, b.rows, b.cols
    norm, one, rows = fld.normalize, fld.one, a.rows * nb
    if (mr := _unit_rows(m)) is not False and (ar := _unit_rows(a)) is not False and (
            br := _unit_rows(b)) is not False:
        return _unit_matrix(fld, rows, [ar[r // bc] * nb + br[r % bc] for r in mr])
    if (out := _contract(a, b, m)) is not None:
        return out
    acols, bcols = a.columns, b.columns
    # every column of A has lo_a nonzeros or more and of B lo_b, so a column of M with N nonzeros makes at
    # least N·lo_a·lo_b products; it is packed when they cover the a.rows·nb slots, N is within the gate
    # and A or B has more nonzeros than columns
    most = _most_terms(fld, 3, compared=False)
    lo = most > 1 and sum(map(len, acols)) + sum(map(len, bcols)) > a.cols + bc and (
        min(map(len, acols), default=0) * min(map(len, bcols), default=0))
    least, packed, out = -(-rows // lo) if lo else most + 1, None, []
    for mcol in m.columns:
        if len(mcol) == 1:
            ((idx, v),) = mcol.items()
            p, q = divmod(idx, bc)
            ap, bq = acols[p].items(), bcols[q].items()
            out.append({i * nb + k: one if v == x == y == one else norm(v * x * y)
                        for i, x in ap for k, y in bq})
        elif least <= len(mcol) <= most:
            packed = packed or [_pack(col, nb) for col in bcols]
            out.append(_packed_column(acols, packed, nb, fld.p, mcol))
        else:
            mid, acc = {}, {}
            for idx, v in mcol.items():
                p, q = divmod(idx, bc)
                c = mid.setdefault(p, {})
                cget = c.get
                for k, y in bcols[q].items():
                    c[k] = cget(k, 0) + v * y
            get = acc.get
            for p, c in mid.items():
                for i, x in acols[p].items():
                    base = i * nb
                    for k, w in c.items():
                        acc[base + k] = get(base + k, 0) + x * w
            out.append(_canonical(fld, acc))
    return Matrix.from_cols(fld, rows, out)


def _contract(a: Matrix, b: Matrix, m: Matrix):
    """kron_apply(a, b, m) when A⊗B is a contraction, else None: one factor
    a square identity, the other with at most one nonzero in each column
    and no more rows than columns (a counit, a coordinate projection).
    Row p·b.cols + q of M then reaches one row of the result, dest, with
    one factor, coef, both read off the other factor's columns (an empty
    one gives row 0 and factor 0), and each column of M is summed in one
    pass into a list over the result's rows, normalized once per entry."""
    nb, rows = b.rows, a.rows * b.rows
    left = max(map(len, b.columns), default=0) <= 1 and _is_identity(a)
    if not (0 < rows <= m.rows and (left or max(map(len, a.columns), default=0) <= 1 and _is_identity(b))):
        return None
    ends = [next(iter(c.items()), (0, 0)) for c in (b.columns if left else a.columns)]
    if left:  # 1⊗B: row p·b.cols + q goes to p·nb + r, B[:, q] = {r: y}
        dest = [p * nb + r for p in range(a.cols) for r, _ in ends]
        coef = [y for _ in range(a.cols) for _, y in ends]
    else:  # A⊗1: row p·nb + q goes to r·nb + q, A[:, p] = {r: y}
        dest = [r * nb + q for r, _ in ends for q in range(nb)]
        coef = [y for _, y in ends for _ in range(nb)]
    norm, out = m.field.normalize, []
    for mcol in m.columns:
        acc = [0] * rows
        for idx, v in mcol.items():
            acc[dest[idx]] += v * coef[idx]
        out.append({r: x for r, s in enumerate(acc) if s and (x := norm(s))})
    return Matrix.from_cols(m.field, rows, out)


def _packed_column(acols, bhat, nb, prime, mcol):
    """One column of (A⊗B) @ M over F_p, within kron_apply's gate: the
    block sum of _kron_blocks, bhat B's columns packed in nb slots each,
    every block unpacked once, reduced, zeros dropped, rows ascending."""
    blocks = _kron_blocks(acols, bhat, mcol)
    return {k: r for i in sorted(blocks) for k, s in enumerate(_slots(blocks[i], nb), i * nb) if (r := s % prime)}


def _most_terms(field, degree, compared=True):
    """The one gate of the packed path: the most products of degree
    residues that a 64-bit slot may sum, the largest N with
    N·(p-1)^degree < p·h when two sums are compared (_slot_test), h being
    2^(63 - bit length of p), and with N·(p-1)^degree < 2⁶⁴ when one sum is
    unpacked; -1 over Q, which has no slot bound.  From 64 bits on h = 1,
    so p·h ≤ (p-1)² and (p-1)² > 2⁶⁴: at degree 2 or more no such prime is
    admitted at N ≥ 1, compared or unpacked.  Degree 0 gives p·h - 1."""
    if not isinstance(field, PrimeField):
        return -1
    p = field.p
    top = p << max(0, 63 - p.bit_length()) if compared else 2**64
    return (top - 1) // (p - 1) ** degree


def _pack(col, n):
    """The int whose 64-bit slot k holds col[k], in n slots."""
    slots = memoryview(bytearray(8 * n)).cast("Q")
    for k, x in col.items():
        slots[k] = x
    return int.from_bytes(slots, sys.byteorder)


def _slots(x, n):
    """The n 64-bit slots of x, as a memoryview."""
    return memoryview(x.to_bytes(8 * n, sys.byteorder)).cast("Q")


def _join(xs, n):
    """The bytes of the slots of each x in xs in turn, n slots each."""
    return b"".join([x.to_bytes(8 * n, sys.byteorder) for x in xs])


def _kron_blocks(acols, bhat, mcol):
    """{i: Σ_p A[i,p]·Σ_q M[p·b.cols + q]·B̂_q} over the nonzeros of a
    column of M, for each row i of A reached, B̂_q = bhat[q] being column q
    of B packed: block i holds rows i·b.rows + k of (A⊗B) @ M in slot k,
    each slot a sum of one product of three residues per nonzero of the
    column (delayed reduction, as in FFLAS-FFPACK, on Kronecker
    substitution)."""
    mid, bc = {}, len(bhat)
    for idx, v in mcol.items():
        p, q = divmod(idx, bc)
        mid[p] = mid.get(p, 0) + v * bhat[q]
    blocks = {}
    for p, w in mid.items():
        for i, x in acols[p].items():
            blocks[i] = blocks.get(i, 0) + x * w
    return blocks


def _slot_test(field, n):
    """differs(left, right), for the bytes of two packed sums over F_p of n
    64-bit slots, every slot in [0, top] for a top < p·h (_most_terms):
    s = start + left - right, start holding p·h in every slot, has every
    slot in [ph - top, ph + top] ⊂ [0, 2⁶⁴), ≡ the difference of the sides
    mod p.  p divides every slot exactly when p divides s and every slot of
    s / p is below 2h: then the slots of p·(s / p) are below 2ph < 2⁶⁴, so
    they are those of s.  So differs, one exact division and one mask, says
    whether the sides differ mod p in some slot."""
    order, prime, ph = sys.byteorder, field.p, _most_terms(field, 0) + 1
    start = int.from_bytes(ph.to_bytes(8, order) * n, order)
    mask = int.from_bytes((2**64 - 2 * ph // prime).to_bytes(8, order) * n, order)

    def differs(left, right):
        q, rest = divmod(start + int.from_bytes(left, order) - int.from_bytes(right, order), prime)
        return bool(rest or q & mask)

    return differs


def _coassoc_difference(d: Matrix):
    """The first column j at which (δ⊗1)∘δ and (1⊗δ)∘δ differ, δ = d of
    shape n² x n, or None; on the packed path neither side is built.

    The path runs over F_p when d is dense enough that the products of the
    two sides, about 2·nnz(d)²/n, cover the n⁴ slots it reads, nnz(d)² ≥ n⁵
    (a row table, nnz = n, never is from n = 2), and n is within the gate
    for products of two residues (_most_terms).  Column q of d packs into
    n² slots as δ̂_q, and D[a, b] = d[a·n + b, j] for the column j at hand.
    The left side, in (c, a, b) order, is the blocks Σ_a D[a, c]·δ̂_a; the
    right side, in (a, b, c) order, is the blocks Σ_b D[a, b]·δ̂_b, moved
    to (c, a, b) order by n strided copies.  _slot_test decides the column,
    and the first that fails is j.  Every other d keeps the two kron_apply
    products: Q and a larger p have no slot bound, and a sparse d makes
    fewer products than the slots it would read."""
    fld, n, cols = d.field, d.cols, d.columns
    if n > _most_terms(fld, 2) or sum(map(len, cols)) ** 2 < n**5:
        i_n = Matrix.identity(fld, n)
        return first_difference(kron_apply(d, i_n, d), kron_apply(i_n, d, d))
    nn = n * n
    packed, differs = [_pack(col, nn) for col in cols], _slot_test(fld, nn * n)
    for j, col in enumerate(cols):
        left, right = [0] * n, [0] * n
        for r, v in col.items():
            a, b = divmod(r, n)
            left[b] += v * packed[a]
            right[a] += v * packed[b]
        abc, cab = memoryview(_join(right, nn)).cast("Q"), memoryview(bytearray(8 * nn * n)).cast("Q")
        for c in range(n):
            cab[c * nn:c * nn + nn] = abc[c::n]
        if differs(_join(left, nn), cab):
            return j
    return None


def _fits_closure(field, n):
    """Whether _closed_delta's sums fit their slots on an n-dimensional
    space: n² products of three residues within the gate (_most_terms)."""
    return n * n <= _most_terms(field, 3)


def _closed_delta(da: Matrix, dc: Matrix, k: Matrix, free):
    """The columns of δ_E = (L⊗L)∘δ∘K, for δ = (1⊗c⊗1)∘(δ_A⊗δ_C) on A⊗C
    and L the projection onto the free coordinates free[t] of the columns t
    of K, when (K⊗K)∘δ_E = δ∘K, else None; neither side is built.

    Over F_p within _fits_closure, n = dim A⊗C, one column of K at a time,
    both sides are block sums (_kron_blocks).  δ∘K is (δ_A⊗δ_C) applied to
    the column, whose block (a1, a2) holds the entries (c1, c2) at
    (a1⊗c1)⊗(a2⊗c2); one join of the blocks' rows, each nc slots, in
    (a1, c1, a2) order, lays it out in n² slots.  δ_E is read off them at
    the pairs of free coordinates, mod p, and (K⊗K)∘δ_E is (K⊗K) applied to
    that column, its n blocks joined in order.  Its slots sum at most n²
    products of three residues, those of δ∘K at most n, so _slot_test
    decides the column."""
    fld, na, nc = k.field, da.cols, dc.cols
    n, nn, step = na * nc, nc * nc, 8 * nc
    hat_c, hat_k = [_pack(col, nn) for col in dc.columns], [_pack(col, n) for col in k.columns]
    pairs = [(i * k.cols + j, u * n + w) for i, u in enumerate(free) for j, w in enumerate(free)]
    # the byte offset in the joined blocks of each row of nc slots of δ∘K, in (a1, c1, a2) order
    layout = [(a1 * na + a2) * nn * 8 + c1 * step for a1 in range(na) for c1 in range(nc) for a2 in range(na)]
    differs, out = _slot_test(fld, n * n), []
    for col in k.columns:
        blocks = _kron_blocks(da.columns, hat_c, col)
        raw = _join([blocks.get(b, 0) for b in range(na * na)], nn)
        right = b"".join([raw[at:at + step] for at in layout])
        slots = memoryview(right).cast("Q")
        e = {ij: y for ij, at in pairs if (y := slots[at] % fld.p)}
        left = _kron_blocks(k.columns, hat_k, e)
        if differs(_join([left.get(s, 0) for s in range(n)], n), right):
            return None
        out.append(e)
    return out


def swap_map(field, m: int, n: int) -> Matrix:
    """The symmetry c: V_m ⊗ V_n -> V_n ⊗ V_m, e_i⊗f_j -> f_j⊗e_i."""
    return _unit_matrix(field, m * n, [j * m + i for i in range(m) for j in range(n)])
