"""Dense exact linear algebra over Q and F_p.

A Matrix stores its entries as dense row lists of canonical field scalars
(see fields: ints and Fractions over Q, int residues over F_p), so an entry
is zero exactly when it is falsy.

Matrices act on column vectors: a matrix with shape (rows, cols) is a linear
map from a cols-dimensional space to a rows-dimensional space, and composition
g∘f is the product G @ F.  Tensor indices are row-major throughout:
e_i ⊗ f_j lives at index i * dim(second factor) + j.

All canonical forms (reduced row echelon, kernel bases, solve with zeroed free
variables) use first-nonzero pivoting, so every result is reproducible
bit-for-bit.
"""

from __future__ import annotations

from .errors import InternalSolveFailure, ShapeMismatch
from .fields import require_same_field


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, rows=None, cols=None):
        """data: list of row lists of field values (not copied)."""
        self.field = field
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows:
            raise ShapeMismatch(f"{len(data)} rows given for a {rows}x{cols} matrix")
        for row in data:
            if len(row) != cols:
                raise ShapeMismatch("ragged rows")
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows):
        return cls(field, [[field.of(x) for x in row] for row in rows])

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def from_cols(cls, field, nrows, cols):
        """Build from a list of sparse columns ({row_index: value} dicts)."""
        m = cls.zeros(field, nrows, len(cols))
        for j, col in enumerate(cols):
            for i, v in col.items():
                m.data[i][j] = v
        return m

    # -- basics ------------------------------------------------------------

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def copy(self):
        return Matrix(self.field, [row[:] for row in self.data], self.rows, self.cols)

    def col(self, j):
        return [row[j] for row in self.data]

    def col_sparse(self, j):
        return {i: row[j] for i, row in enumerate(self.data) if row[j]}

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def transpose(self):
        f = self.field
        out = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return Matrix(f, out, self.cols, self.rows)

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other):
        require_same_field(self.field, other.field)
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other):
        self._check_same_shape(other)
        f = self.field
        return Matrix(
            f,
            [
                [f.normalize(a + b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            self.rows,
            self.cols,
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        f = self.field
        return Matrix(
            f,
            [
                [f.normalize(a - b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            self.rows,
            self.cols,
        )

    def __neg__(self):
        f = self.field
        return Matrix(f, [[f.neg(x) for x in row] for row in self.data], self.rows, self.cols)

    def __matmul__(self, other):
        require_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        f = self.field
        z = f.zero
        bd = other.data
        out = []
        for row in self.data:
            acc = [z] * other.cols
            for k, a in enumerate(row):
                if not a:
                    continue
                brow = bd[k]
                for j, b in enumerate(brow):
                    if b:
                        acc[j] = acc[j] + a * b
            out.append([f.normalize(x) for x in acc])
        return Matrix(f, out, self.rows, other.cols)

    # -- stacking ----------------------------------------------------------

    def hstack(self, other):
        require_same_field(self.field, other.field)
        if self.rows != other.rows:
            raise ShapeMismatch("row count mismatch in hstack")
        data = [ra + rb for ra, rb in zip(self.data, other.data)]
        return Matrix(self.field, data, self.rows, self.cols + other.cols)

    # -- echelon forms -----------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        f = self.field
        R = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            pr = None
            for i in range(r, self.rows):
                if R[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            R[r], R[pr] = R[pr], R[r]
            piv = R[r][c]
            if piv != f.one:
                inv = f.inv(piv)
                R[r] = [f.normalize(inv * x) if x else x for x in R[r]]
            Rr = R[r]
            for i in range(self.rows):
                if i == r:
                    continue
                factor = R[i][c]
                if not factor:
                    continue
                Ri = R[i]
                for j in range(c, self.cols):
                    if Rr[j]:
                        Ri[j] = f.normalize(Ri[j] - factor * Rr[j])
            pivots.append(c)
            r += 1
        return Matrix(f, R, self.rows, self.cols), pivots

    def rank(self):
        return len(self.rref()[1])


def is_injective(a: Matrix) -> bool:
    return a.rank() == a.cols


def solve(a: Matrix, b: Matrix):
    """Deterministic exact solve of A·X = B.

    Returns X with free variables zeroed (after reduced-echelon
    normalization), or None if the system is inconsistent.
    """
    require_same_field(a.field, b.field)
    if a.rows != b.rows:
        raise ShapeMismatch("A and B must have the same number of rows")
    f = a.field
    aug = a.hstack(b)
    R, pivots = aug.rref()
    for p in pivots:
        if p >= a.cols:
            return None
    x = Matrix.zeros(f, a.cols, b.cols)
    for i, p in enumerate(pivots):
        x.data[p] = R.data[i][a.cols:]
    return x


def _kernel_from_rref(field, ncols, R: Matrix, pivots):
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    cols = []
    for c in free:
        col = {c: field.one}
        for i, p in enumerate(pivots):
            v = R.data[i][c]
            if v:
                col[p] = field.neg(v)
        cols.append(col)
    return Matrix.from_cols(field, ncols, cols)


def kernel_basis(a: Matrix) -> Matrix:
    """Canonical basis of ker A as columns (deterministic echelon form); A·K = 0."""
    R, pivots = a.rref()
    return _kernel_from_rref(a.field, a.cols, R, pivots)


def kernel_basis_sparse(field, ncols, sparse_cols) -> Matrix:
    """kernel_basis for a matrix given as sparse columns; zero rows are dropped
    before elimination (the canonical kernel is unchanged)."""
    live = sorted({i for col in sparse_cols for i in col})
    remap = {i: k for k, i in enumerate(live)}
    z = field.zero
    data = [[z] * ncols for _ in live]
    for j, col in enumerate(sparse_cols):
        for i, v in col.items():
            data[remap[i]][j] = v
    compact = Matrix(field, data, len(live), ncols)
    R, pivots = compact.rref()
    return _kernel_from_rref(field, ncols, R, pivots)


def left_inverse(a: Matrix) -> Matrix:
    """L with L·A = I for injective A (deterministic); raises if A is not injective."""
    lt = solve(a.transpose(), Matrix.identity(a.field, a.cols))
    if lt is None:
        raise InternalSolveFailure("matrix has no left inverse (not injective)")
    return lt.transpose()


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with row-major basis convention:
    (A⊗B)(e_i⊗f_j) indexes at i * b.cols + j in the domain and the analogous
    row-major position in the codomain."""
    require_same_field(a.field, b.field)
    f = a.field
    out = Matrix.zeros(f, a.rows * b.rows, a.cols * b.cols)
    od = out.data
    for i1, arow in enumerate(a.data):
        base_r = i1 * b.rows
        for j1, av in enumerate(arow):
            if not av:
                continue
            base_c = j1 * b.cols
            for i2, brow in enumerate(b.data):
                orow = od[base_r + i2]
                for j2, bv in enumerate(brow):
                    if bv:
                        orow[base_c + j2] = f.normalize(av * bv)
    return out


def kron_apply(a: Matrix, b: Matrix, m: Matrix) -> Matrix:
    """(A⊗B) @ M without materializing A⊗B: each nonzero v at row p·b.cols+q
    of a column of M adds v·A[:,p]⊗B[:,q] to that column of the result."""
    require_same_field(a.field, b.field)
    require_same_field(a.field, m.field)
    if m.rows != a.cols * b.cols:
        raise ShapeMismatch("kron_apply: M row count must be a.cols * b.cols")
    f = m.field
    z = f.zero
    nb = b.rows
    acols = [[(i * nb, v) for i, v in a.col_sparse(p).items()] for p in range(a.cols)]
    bcols = [list(b.col_sparse(q).items()) for q in range(b.cols)]
    accs = [{} for _ in range(m.cols)]
    for idx, mrow in enumerate(m.data):
        p, q = divmod(idx, b.cols)
        ap, bq = acols[p], bcols[q]
        if not (ap and bq):
            continue
        for j, v in enumerate(mrow):
            if not v:
                continue
            acc = accs[j]
            for base, av in ap:
                w = v * av
                for i2, bv in bq:
                    k = base + i2
                    acc[k] = acc.get(k, z) + w * bv
    out = Matrix.zeros(f, a.rows * nb, m.cols)
    od = out.data
    for j, acc in enumerate(accs):
        for k, x in acc.items():
            x = f.normalize(x)
            if x:
                od[k][j] = x
    return out


def swap_map(field, m: int, n: int) -> Matrix:
    """The symmetry c: V_m ⊗ V_n -> V_n ⊗ V_m, e_i⊗f_j -> f_j⊗e_i."""
    out = Matrix.zeros(field, m * n, m * n)
    one = field.one
    for i in range(m):
        for j in range(n):
            out.data[j * m + i][i * n + j] = one
    return out
