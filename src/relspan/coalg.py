"""Finite-dimensional coalgebras over exact fields.

A coalgebra is a comultiplication matrix δ: V -> V⊗V and a counit ε: V -> k,
both exact.  The admissible span class S contains the spans (f, g) out of an
apex A whose paired legs composed with δ give a comonoid morphism, i.e.
c∘(f⊗g)∘δ = (g⊗f)∘δ.

Equalizers of coalgebra maps are computed in two steps: the underlying
subspace is the kernel of f_hat - g_hat with f_hat = (1⊗f⊗1)∘(δ⊗1)∘δ, and the
comultiplication on it is obtained by first solving for an auxiliary map
δ_r: E -> E⊗A against the injective j⊗1 and then for δ_E against 1⊗j.  Both
solves are guaranteed by the theory, so failure raises InternalSolveFailure.
The columns of f_hat - g_hat are built in two sparse passes: the image
(1⊗(f-g))∘δ(e_i) in A⊗B of each basis vector once, then each column as the
δ(e_j)-weighted sum of those images tensored with e_a2.  A dense δ thus costs
n·n²·(n·|B|) multiply-adds rather than n·n²·n²·|B|.
Relative pullbacks arise as the equalizer of f⊗ε and ε⊗g on A⊗C; the cotensor
product is the independent one-step linear equalizer on A⊗C used to
cross-check it.

Tensor products of coalgebras keep their factors and materialize δ lazily;
every axiom and membership check walks δ column by column, so sparse
structures (group-likes in particular) stay cheap even at tensor dimensions
in the hundreds.  Unit identifications k⊗V ≅ V ≅ V⊗k are implicit: a
Kronecker factor of dimension 1 changes no indices, so the dimension
bookkeeping is the coercion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catcore import BaseCategory, Report, SpanClass
from .errors import (
    CodomainMismatch,
    InternalSolveFailure,
    LegsNotInClass,
    ShapeMismatch,
    SquareDoesNotCommute,
)
from .fields import require_same_field
from .linalg import (
    Matrix,
    is_injective,
    kernel_basis_sparse,
    kron,
    kron_apply,
    left_inverse,
    solve,
    swap_map,
)


# -- objects and morphisms ---------------------------------------------------


class Coalgebra:
    """A comonoid in exact finite-dimensional vector spaces."""

    __slots__ = ("dim", "field", "epsilon", "_delta", "_factors", "_delta_cols")

    def __init__(self, dim, field, delta=None, epsilon=None, factors=None):
        self.dim = dim
        self.field = field
        self._factors = factors
        self._delta_cols = None
        if epsilon is None or epsilon.rows != 1 or epsilon.cols != dim:
            raise ShapeMismatch("counit must be a 1 x dim matrix")
        require_same_field(field, epsilon.field)
        self.epsilon = epsilon
        if delta is not None:
            if delta.rows != dim * dim or delta.cols != dim:
                raise ShapeMismatch("comultiplication must be a dim^2 x dim matrix")
            require_same_field(field, delta.field)
        elif factors is None:
            raise ShapeMismatch("a coalgebra needs either an explicit delta or factors")
        self._delta = delta

    @property
    def delta(self) -> Matrix:
        if self._delta is None:
            cols = []
            for j in range(self.dim):
                cols.append({a * self.dim + b: v for a, b, v in self.delta_column(j)})
            self._delta = Matrix.from_cols(self.field, self.dim * self.dim, cols)
        return self._delta

    def delta_column(self, j):
        """Sparse column of δ at basis index j, as (left, right, value) triples.
        Columns are cached; the object is immutable."""
        if self._delta_cols is None:
            self._delta_cols = {}
        cache = self._delta_cols
        col = cache.get(j)
        if col is not None:
            return col
        if self._factors is not None and self._delta is None:
            a, b = self._factors
            p, q = divmod(j, b.dim)
            col = []
            for a1, a2, va in a.delta_column(p):
                for b1, b2, vb in b.delta_column(q):
                    v = self.field.normalize(va * vb)
                    if v:
                        col.append((a1 * b.dim + b1, a2 * b.dim + b2, v))
            cache[j] = col
            return col
        n = self.dim
        for c in range(n):
            cache[c] = []
        for i, row in enumerate(self.delta.data):
            a, b = divmod(i, n)
            for c, v in enumerate(row):
                if v:
                    cache[c].append((a, b, v))
        return cache[j]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Coalgebra):
            return NotImplemented
        if self.dim != other.dim or self.field != other.field or self.epsilon != other.epsilon:
            return False
        # tensor products are strictly associative under row-major indices,
        # so equal factor sequences give equal coalgebras however bracketed
        if self._factors is not None or other._factors is not None:
            mine, theirs = self._leaves(), other._leaves()
            if len(mine) == len(theirs) and all(x == y for x, y in zip(mine, theirs)):
                return True
        return all(
            {(x, y): v for x, y, v in self.delta_column(j)}
            == {(x, y): v for x, y, v in other.delta_column(j)}
            for j in range(self.dim)
        )

    def _leaves(self):
        """The non-tensor factors of this coalgebra, left to right."""
        if self._factors is None:
            return [self]
        a, b = self._factors
        return a._leaves() + b._leaves()

    def __repr__(self):
        return f"Coalgebra(dim={self.dim}, field={self.field!r})"


class CoalgMap:
    """A linear map between coalgebras expected to preserve δ and ε."""

    __slots__ = ("src", "tgt", "mat")

    def __init__(self, src: Coalgebra, tgt: Coalgebra, mat: Matrix):
        if mat.rows != tgt.dim or mat.cols != src.dim:
            raise ShapeMismatch("matrix shape does not match the coalgebras")
        require_same_field(src.field, mat.field)
        require_same_field(tgt.field, mat.field)
        self.src = src
        self.tgt = tgt
        self.mat = mat

    def __eq__(self, other):
        if not isinstance(other, CoalgMap):
            return NotImplemented
        return (
            self.mat == other.mat
            and _same_object(self.src, other.src)
            and _same_object(self.tgt, other.tgt)
        )

    def __repr__(self):
        return f"CoalgMap({self.src.dim} -> {self.tgt.dim})"


def _same_object(x: Coalgebra, y: Coalgebra) -> bool:
    """Identity first, so maps on one object never materialize a tensor δ."""
    return x is y or x == y


def cid(c: Coalgebra) -> CoalgMap:
    return CoalgMap(c, c, Matrix.identity(c.field, c.dim))


# -- stock coalgebras ---------------------------------------------------------


def trivial(field) -> Coalgebra:
    one = Matrix.from_rows(field, [[1]])
    return Coalgebra(1, field, delta=one.copy(), epsilon=one)


def grouplike(field, n: int) -> Coalgebra:
    """k[X] for |X| = n: δ(e_x) = e_x⊗e_x, ε(e_x) = 1."""
    cols = [{x * n + x: field.one} for x in range(n)]
    eps = Matrix(field, [[field.one] * n], 1, n)
    return Coalgebra(n, field, delta=Matrix.from_cols(field, n * n, cols), epsilon=eps)


def primitive_block(field) -> Coalgebra:
    """Basis {g, x}: δg = g⊗g, δx = g⊗x + x⊗g (cocommutative)."""
    one = field.one
    cols = [{0: one}, {1: one, 2: one}]
    eps = Matrix(field, [[one, field.zero]], 1, 2)
    return Coalgebra(2, field, delta=Matrix.from_cols(field, 4, cols), epsilon=eps)


def path_coalgebra(field) -> Coalgebra:
    """Basis {e0, e1, x} with δx = e0⊗x + x⊗e1: not cocommutative."""
    one = field.one
    cols = [{0: one}, {4: one}, {2: one, 7: one}]
    eps = Matrix(field, [[one, one, field.zero]], 1, 3)
    return Coalgebra(3, field, delta=Matrix.from_cols(field, 9, cols), epsilon=eps)


def direct_sum(a: Coalgebra, b: Coalgebra) -> Coalgebra:
    require_same_field(a.field, b.field)
    n = a.dim + b.dim
    cols = []
    for j in range(a.dim):
        cols.append({i1 * n + i2: v for i1, i2, v in a.delta_column(j)})
    for j in range(b.dim):
        cols.append(
            {(a.dim + i1) * n + (a.dim + i2): v for i1, i2, v in b.delta_column(j)}
        )
    eps = Matrix(a.field, [a.epsilon.data[0] + b.epsilon.data[0]], 1, n)
    return Coalgebra(n, a.field, delta=Matrix.from_cols(a.field, n * n, cols), epsilon=eps)


def tensor_coalgebra(a: Coalgebra, b: Coalgebra) -> Coalgebra:
    """A⊗B with δ = (1⊗c⊗1)∘(δ_A⊗δ_B); δ is materialized lazily."""
    require_same_field(a.field, b.field)
    eps = kron(a.epsilon, b.epsilon)
    return Coalgebra(a.dim * b.dim, a.field, epsilon=eps, factors=(a, b))


def is_cocommutative(c: Coalgebra) -> bool:
    for j in range(c.dim):
        col = {(x, y): v for x, y, v in c.delta_column(j)}
        if col != {(y, x): v for (x, y), v in col.items()}:
            return False
    return True


# -- axiom checks --------------------------------------------------------------


def _sparse_clean(field, acc):
    return {k: v for k in acc if (v := field.normalize(acc[k]))}


def check_coalgebra(c: Coalgebra) -> Report:
    """Coassociativity and both counit laws, exactly, with a basis witness."""
    f = c.field
    rep = Report()
    coassoc = counit_l = counit_r = None
    for j in range(c.dim):
        col = c.delta_column(j)
        if coassoc is None:
            lhs, rhs = {}, {}
            for a1, a2, v in col:
                for x, y, w in c.delta_column(a1):
                    k = (x, y, a2)
                    lhs[k] = lhs.get(k, f.zero) + v * w
                for x, y, w in c.delta_column(a2):
                    k = (a1, x, y)
                    rhs[k] = rhs.get(k, f.zero) + v * w
            if _sparse_clean(f, lhs) != _sparse_clean(f, rhs):
                coassoc = f"basis {j}"
        if counit_l is None:
            acc = {}
            for a1, a2, v in col:
                e = c.epsilon.data[0][a1]
                if e:
                    acc[a2] = acc.get(a2, f.zero) + e * v
            if _sparse_clean(f, acc) != {j: f.one}:
                counit_l = f"basis {j}"
        if counit_r is None:
            acc = {}
            for a1, a2, v in col:
                e = c.epsilon.data[0][a2]
                if e:
                    acc[a1] = acc.get(a1, f.zero) + e * v
            if _sparse_clean(f, acc) != {j: f.one}:
                counit_r = f"basis {j}"
    rep.add("coassociativity", coassoc is None, coassoc)
    rep.add("left counit law", counit_l is None, counit_l)
    rep.add("right counit law", counit_r is None, counit_r)
    return rep


def check_coalg_map(m: CoalgMap) -> Report:
    """δ_tgt∘f = (f⊗f)∘δ_src and ε_tgt∘f = ε_src, exactly."""
    f = m.mat.field
    rep = Report()
    delta_w = eps_w = None
    nt = m.tgt.dim
    for j in range(m.src.dim):
        fcol = m.mat.col_sparse(j)
        if delta_w is None:
            lhs = {}
            for i, v in fcol.items():
                for x, y, w in m.tgt.delta_column(i):
                    k = x * nt + y
                    lhs[k] = lhs.get(k, f.zero) + v * w
            rhs = {}
            for a1, a2, v in m.src.delta_column(j):
                c1 = m.mat.col_sparse(a1)
                c2 = m.mat.col_sparse(a2)
                for i1, v1 in c1.items():
                    for i2, v2 in c2.items():
                        k = i1 * nt + i2
                        rhs[k] = rhs.get(k, f.zero) + v * v1 * v2
            if _sparse_clean(f, lhs) != _sparse_clean(f, rhs):
                delta_w = f"basis {j}"
        if eps_w is None:
            s = f.zero
            for i, v in fcol.items():
                e = m.tgt.epsilon.data[0][i]
                if e:
                    s = s + e * v
            if f.normalize(s) != f.normalize(m.src.epsilon.data[0][j]):
                eps_w = f"basis {j}"
    rep.add("comultiplication intertwined", delta_w is None, delta_w)
    rep.add("counit preserved", eps_w is None, eps_w)
    return rep


# -- the class S ----------------------------------------------------------------


def class_S_witness(f: CoalgMap, g: CoalgMap) -> str | None:
    """None iff c∘(f⊗g)∘δ = (g⊗f)∘δ holds on the common apex; else a witness."""
    if f.src.dim != g.src.dim or f.src.field != g.src.field:
        raise ShapeMismatch("span legs must share their apex")
    fld = f.mat.field
    nx = f.tgt.dim
    for j in range(f.src.dim):
        lhs, rhs = {}, {}
        for a1, a2, v in f.src.delta_column(j):
            fc1 = f.mat.col_sparse(a1)
            gc2 = g.mat.col_sparse(a2)
            for x, vx in fc1.items():
                for y, vy in gc2.items():
                    k = y * nx + x  # symmetry applied: lands in Y⊗X
                    lhs[k] = lhs.get(k, fld.zero) + v * vx * vy
            gc1 = g.mat.col_sparse(a1)
            fc2 = f.mat.col_sparse(a2)
            for y, vy in gc1.items():
                for x, vx in fc2.items():
                    k = y * nx + x
                    rhs[k] = rhs.get(k, fld.zero) + v * vy * vx
        if _sparse_clean(fld, lhs) != _sparse_clean(fld, rhs):
            return f"basis {j}"
    return None


def class_S_member(f: CoalgMap, g: CoalgMap) -> bool:
    return class_S_witness(f, g) is None


# -- the base-category instance --------------------------------------------------


class CoalgCategory(BaseCategory):
    name = "coalg"

    def __init__(self, field):
        self.field = field
        self._unit = trivial(field)
        self._class = ClassS(self)

    def identity(self, obj):
        return cid(obj)

    def compose(self, g: CoalgMap, f: CoalgMap) -> CoalgMap:
        if not _same_object(f.tgt, g.src):
            raise CodomainMismatch("compose: cod(f) != dom(g)")
        return CoalgMap(f.src, g.tgt, g.mat @ f.mat)

    def dom(self, f):
        return f.src

    def cod(self, f):
        return f.tgt

    def equal_mor(self, f, g):
        return f == g

    def equal_obj(self, x, y):
        return x == y

    def tensor_obj(self, x, y):
        return tensor_coalgebra(x, y)

    def tensor_mor(self, f: CoalgMap, g: CoalgMap) -> CoalgMap:
        return CoalgMap(
            tensor_coalgebra(f.src, g.src), tensor_coalgebra(f.tgt, g.tgt), kron(f.mat, g.mat)
        )

    def unit_obj(self):
        return self._unit

    def symmetry(self, x: Coalgebra, y: Coalgebra) -> CoalgMap:
        return CoalgMap(
            tensor_coalgebra(x, y), tensor_coalgebra(y, x), swap_map(self.field, x.dim, y.dim)
        )

    def is_epi(self, f: CoalgMap) -> bool:
        return f.mat.rank() == f.tgt.dim

    def invert(self, f: CoalgMap):
        if f.src.dim != f.tgt.dim:
            return None
        inv = solve(f.mat, Matrix.identity(self.field, f.tgt.dim))
        if inv is None or (inv @ f.mat) != Matrix.identity(self.field, f.src.dim):
            return None
        return CoalgMap(f.tgt, f.src, inv)

    @property
    def span_class(self):
        return self._class

    def pullback(self, f, g):
        pb = relative_pullback_coalg(f, g)
        return pb.apex, pb.p_a, pb.p_c, pb.jointly_monic, pb

    def factor(self, payload, a, c):
        return pullback_factor_coalg(payload, a, c)

    def monoid_checks(self, mon) -> Report:
        """A monoid here is a bialgebra: m and u are coalgebra maps."""
        rep = Report()
        for label, mor in (("multiplication", mon.m), ("unit", mon.u)):
            rep.extend(check_coalg_map(mor), f"{label} is a coalgebra map: ")
        return rep


class ClassS(SpanClass):
    """Spans whose paired legs composed with δ form a comonoid morphism."""

    def __init__(self, base: CoalgCategory):
        self.base = base

    def failure_witness(self, span) -> str | None:
        return class_S_witness(span.left, span.right)


# -- equalizers ------------------------------------------------------------------


@dataclass
class CoalgEqualizer:
    object: Coalgebra
    j: CoalgMap
    delta_r: Matrix
    left_inv: Matrix


def _structure_on_kernel(x: Coalgebra, k: Matrix):
    """Equip the subspace spanned by the columns of k with the induced
    comonoid structure via the two-step solves; verifies both solves."""
    fld = x.field
    n, e = x.dim, k.cols
    lk = left_inverse(k) if e else Matrix.zeros(fld, 0, n)
    kcols = [k.col_sparse(t) for t in range(e)]

    # columns of δ_X ∘ j
    m_cols = []
    for t in range(e):
        acc = {}
        for i, v in kcols[t].items():
            for a, b, w in x.delta_column(i):
                key = a * n + b
                acc[key] = acc.get(key, fld.zero) + v * w
        m_cols.append(_sparse_clean(fld, acc))

    # δ_r = (L⊗1) ∘ δ_X ∘ j, then check (j⊗1)∘δ_r = δ_X∘j
    dr_cols = []
    for t in range(e):
        acc = {}
        for idx, v in m_cols[t].items():
            a, b = divmod(idx, n)
            for p in range(e):
                lv = lk.data[p][a]
                if lv:
                    key = p * n + b
                    acc[key] = acc.get(key, fld.zero) + lv * v
        dr_cols.append(_sparse_clean(fld, acc))
    for t in range(e):
        back = {}
        for idx, v in dr_cols[t].items():
            p, b = divmod(idx, n)
            for i, kv in kcols[p].items():
                key = i * n + b
                back[key] = back.get(key, fld.zero) + kv * v
        if _sparse_clean(fld, back) != m_cols[t]:
            raise InternalSolveFailure("δ_r does not factor through j⊗1")

    # δ_E = (1⊗L) ∘ δ_r, then check (1⊗j)∘δ_E = δ_r
    de_cols = []
    for t in range(e):
        acc = {}
        for idx, v in dr_cols[t].items():
            p, b = divmod(idx, n)
            for q in range(e):
                lv = lk.data[q][b]
                if lv:
                    key = p * e + q
                    acc[key] = acc.get(key, fld.zero) + lv * v
        de_cols.append(_sparse_clean(fld, acc))
    for t in range(e):
        back = {}
        for idx, v in de_cols[t].items():
            p, q = divmod(idx, e)
            for i, kv in kcols[q].items():
                key = p * n + i
                back[key] = back.get(key, fld.zero) + kv * v
        if _sparse_clean(fld, back) != dr_cols[t]:
            raise InternalSolveFailure("δ_E does not factor through 1⊗j")

    eps = x.epsilon @ k
    obj = Coalgebra(e, fld, delta=Matrix.from_cols(fld, e * e, de_cols), epsilon=eps)
    delta_r = Matrix.from_cols(fld, e * n, dr_cols)
    return obj, delta_r, lk


def _hat_difference_cols(f: CoalgMap, g: CoalgMap):
    """Sparse columns of f_hat - g_hat = (1⊗(f-g)⊗1)∘(δ⊗1)∘δ: A -> A⊗B⊗A.

    Two passes.  The first computes each image T(e_i) = (1⊗(f-g))∘δ(e_i) in
    A⊗B once; the second sums v·T(e_a1)⊗e_a2 over the terms (a1, a2, v) of
    δ(e_j).  That only reassociates the exact sum, and it keeps the bracketing
    (δ⊗1)∘δ, so coassociativity is not assumed."""
    a = f.src
    fld = a.field
    n, b = a.dim, f.tgt.dim
    diff = f.mat - g.mat
    diffcols = [diff.col_sparse(j) for j in range(n)]
    images = []
    for i in range(n):
        acc = {}
        for a1, a2, w in a.delta_column(i):
            for bi, dv in diffcols[a2].items():
                key = a1 * b + bi
                acc[key] = acc.get(key, fld.zero) + w * dv
        images.append(_sparse_clean(fld, acc))
    cols = []
    for j in range(n):
        acc = {}
        for a1, a2, v in a.delta_column(j):
            for t, tv in images[a1].items():
                key = t * n + a2
                acc[key] = acc.get(key, fld.zero) + v * tv
        cols.append(_sparse_clean(fld, acc))
    return cols


def coalg_equalizer(f: CoalgMap, g: CoalgMap) -> CoalgEqualizer:
    """Equalizer of parallel coalgebra maps, as a coalgebra with inclusion."""
    if not _same_object(f.src, g.src):
        raise ShapeMismatch("equalizer needs a shared domain coalgebra")
    if not _same_object(f.tgt, g.tgt):
        raise ShapeMismatch("equalizer needs a shared codomain coalgebra")
    a = f.src
    cols = _hat_difference_cols(f, g)
    k = kernel_basis_sparse(a.field, a.dim, cols)
    obj, delta_r, lk = _structure_on_kernel(a, k)
    return CoalgEqualizer(obj, CoalgMap(obj, a, k), delta_r, lk)


def equalizer_factor(eq: CoalgEqualizer, h: CoalgMap) -> CoalgMap:
    """Factor an equalizing map h: D -> A uniquely through the inclusion j."""
    a = eq.j.tgt
    if not _same_object(h.tgt, a):
        raise ShapeMismatch("map does not land in the equalizer's ambient coalgebra")
    u = eq.left_inv @ h.mat
    if eq.j.mat @ u != h.mat:
        raise SquareDoesNotCommute("map does not factor through the equalizer")
    return CoalgMap(h.src, eq.object, u)


# -- relative pullbacks and the cotensor product ----------------------------------


@dataclass
class CoalgPullback:
    apex: Coalgebra
    j: CoalgMap            # inclusion into the tensor coalgebra A⊗C
    p_a: CoalgMap
    p_c: CoalgMap
    delta_r: Matrix
    left_inv: Matrix
    f: CoalgMap
    g: CoalgMap
    jointly_monic: bool


def _check_cospan(f: CoalgMap, g: CoalgMap):
    if not _same_object(f.tgt, g.tgt):
        raise CodomainMismatch("cospan needs a common codomain")


def relative_pullback_coalg(f: CoalgMap, g: CoalgMap) -> CoalgPullback:
    """The class-S relative pullback of f: A -> B <- C :g, computed as the
    comonoid equalizer of f⊗ε and ε⊗g on A⊗C.  Unchecked: on legs outside S
    the equalizer is not the relative pullback; relpull.relative_pullback
    decides the legs before calling this."""
    _check_cospan(f, g)
    a, c = f.src, g.src
    fld = a.field
    x = tensor_coalgebra(a, c)
    fe = CoalgMap(x, f.tgt, kron(f.mat, c.epsilon))
    eg = CoalgMap(x, g.tgt, kron(a.epsilon, g.mat))
    eq = coalg_equalizer(fe, eg)
    apex = eq.object
    p_a_mat = kron(Matrix.identity(fld, a.dim), c.epsilon) @ eq.j.mat
    p_c_mat = kron(a.epsilon, Matrix.identity(fld, c.dim)) @ eq.j.mat
    p_a = CoalgMap(apex, a, p_a_mat)
    p_c = CoalgMap(apex, c, p_c_mat)
    if f.mat @ p_a_mat != g.mat @ p_c_mat:
        raise InternalSolveFailure("pullback square does not commute")
    # joint-mono certificate at the comonoid level: the inclusion j is
    # injective and is recovered from the projections as (p_A⊗p_C)∘δ, so any
    # two comonoid fillers with equal projections are equal.  (The stacked
    # linear map [p_A; p_C] is NOT injective in general: a 2x2 rectangle of
    # matching group-like pairs already has a joint kernel vector.)
    cert = is_injective(eq.j.mat) and kron_apply(p_a_mat, p_c_mat, apex.delta) == eq.j.mat
    return CoalgPullback(
        apex=apex,
        j=CoalgMap(apex, x, eq.j.mat),
        p_a=p_a,
        p_c=p_c,
        delta_r=eq.delta_r,
        left_inv=eq.left_inv,
        f=f,
        g=g,
        jointly_monic=cert,
    )


def pullback_factor_coalg(pb: CoalgPullback, k: CoalgMap, l: CoalgMap) -> CoalgMap:
    """The unique filler h with p_A∘h = k and p_C∘h = l for a class-S span (k, l),
    factoring (k⊗l)∘δ_D through the equalizer inclusion.  Unchecked: class S is
    decided by relpull.universal_factor, which calls this."""
    if not _same_object(k.src, l.src):
        raise ShapeMismatch("test span legs must share their domain")
    if pb.f.mat @ k.mat != pb.g.mat @ l.mat:
        raise SquareDoesNotCommute("f∘k != g∘l")
    d = k.src
    fld = d.field
    nc = l.tgt.dim
    e = pb.apex.dim
    kcols = [k.mat.col_sparse(j) for j in range(d.dim)]
    lcols = [l.mat.col_sparse(j) for j in range(d.dim)]
    h_cols = []
    for j in range(d.dim):
        pair = {}
        for d1, d2, v in d.delta_column(j):
            for i1, v1 in kcols[d1].items():
                for i2, v2 in lcols[d2].items():
                    key = i1 * nc + i2
                    pair[key] = pair.get(key, fld.zero) + v * v1 * v2
        pair = _sparse_clean(fld, pair)
        hcol = {}
        for idx, v in pair.items():
            for p in range(e):
                lv = pb.left_inv.data[p][idx]
                if lv:
                    hcol[p] = hcol.get(p, fld.zero) + lv * v
        hcol = _sparse_clean(fld, hcol)
        back = {}
        jcols = pb.j.mat
        for p, v in hcol.items():
            for i, jv in jcols.col_sparse(p).items():
                back[i] = back.get(i, fld.zero) + jv * v
        if _sparse_clean(fld, back) != pair:
            raise InternalSolveFailure("filler does not factor through the inclusion")
        h_cols.append(hcol)
    h = CoalgMap(d, pb.apex, Matrix.from_cols(fld, e, h_cols))
    if pb.p_a.mat @ h.mat != k.mat or pb.p_c.mat @ h.mat != l.mat:
        raise InternalSolveFailure("filler does not reproduce the test span")
    return h


@dataclass
class Cotensor:
    dim: int
    inclusion: Matrix              # into A⊗C
    coalgebra: Coalgebra | None    # induced structure, when the legs are in S
    j: CoalgMap | None
    left_inv: Matrix


def cotensor(f: CoalgMap, g: CoalgMap) -> Cotensor:
    """The one-step equalizer of (1⊗f⊗1)∘(δ_A⊗1) and (1⊗g⊗1)∘(1⊗δ_C) on A⊗C.

    Always a linear subspace; when the cospan has legs in S it also carries
    the induced coalgebra structure (and is isomorphic to the relative
    pullback, which is verified by compare_cotensor_pullback)."""
    _check_cospan(f, g)
    a, c = f.src, g.src
    fld = a.field
    na, nb, nc = a.dim, f.tgt.dim, c.dim
    fcols = [f.mat.col_sparse(j) for j in range(na)]
    gcols = [g.mat.col_sparse(j) for j in range(nc)]
    cols = []
    for ai in range(na):
        dca = a.delta_column(ai)
        for ci in range(nc):
            acc = {}
            for a1, a2, v in dca:
                for bi, w in fcols[a2].items():
                    key = (a1 * nb + bi) * nc + ci
                    acc[key] = acc.get(key, fld.zero) + v * w
            for c1, c2, v in c.delta_column(ci):
                for bi, w in gcols[c1].items():
                    key = (ai * nb + bi) * nc + c2
                    acc[key] = acc.get(key, fld.zero) - v * w
            cols.append(_sparse_clean(fld, acc))
    k = kernel_basis_sparse(fld, na * nc, cols)
    legs = class_S_witness(cid(a), f) is None and class_S_witness(g, cid(c)) is None
    if legs:
        x = tensor_coalgebra(a, c)
        obj, _, lk = _structure_on_kernel(x, k)
        return Cotensor(k.cols, k, obj, CoalgMap(obj, x, k), lk)
    lk = left_inverse(k) if k.cols else Matrix.zeros(fld, 0, na * nc)
    return Cotensor(k.cols, k, None, None, lk)


def compare_cotensor_pullback(f: CoalgMap, g: CoalgMap) -> Report:
    """Verify that the cotensor product and the relative pullback are the same
    subobject: the mutual universal factorizations compose to identities."""
    ct = cotensor(f, g)
    if ct.coalgebra is None:
        raise LegsNotInClass("cotensor comparison needs legs in class S")
    return compare_with_pullback(ct, relative_pullback_coalg(f, g))


def compare_with_pullback(ct: Cotensor, pb: CoalgPullback) -> Report:
    """compare_cotensor_pullback for a cotensor and a relative pullback already
    computed from one cospan whose legs are in class S."""
    fld = pb.f.mat.field
    rep = Report()
    rep.add("dimensions agree", pb.apex.dim == ct.dim, f"{pb.apex.dim} vs {ct.dim}")
    u = pb.left_inv @ ct.inclusion
    rep.add(
        "cotensor factors through the pullback",
        pb.j.mat @ u == ct.inclusion,
        "inclusion escapes the pullback subobject",
    )
    v = ct.left_inv @ pb.j.mat
    rep.add(
        "pullback factors through the cotensor",
        ct.inclusion @ v == pb.j.mat,
        "inclusion escapes the cotensor subobject",
    )
    rep.add("u∘v is the identity", u @ v == Matrix.identity(fld, pb.apex.dim), "u∘v != id")
    rep.add("v∘u is the identity", v @ u == Matrix.identity(fld, ct.dim), "v∘u != id")
    return rep
