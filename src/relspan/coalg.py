"""Finite-dimensional coalgebras over exact fields.

A coalgebra is a comultiplication matrix δ: V -> V⊗V and a counit ε: V -> k,
both exact.  The admissible span class S contains the spans (f, g) out of an
apex A whose paired legs composed with δ give a comonoid morphism, i.e.
c∘(f⊗g)∘δ = (g⊗f)∘δ.

Every construction and check is a product of column-sparse matrices (see
linalg): an axiom holds when two such products are equal, and its witness
names the first basis vector on which they differ.

Equalizers of coalgebra maps are computed in two steps: the underlying
subspace E is the kernel of f_hat - g_hat with f_hat = (1⊗f⊗1)∘(δ⊗1)∘δ, and
it inherits δ_E = (L⊗L)∘δ∘j, L the left inverse of the inclusion j.  The one
check (j⊗j)∘δ_E = δ∘j holds exactly when δ(E) ⊆ E⊗E; the theory guarantees
it, so failure raises InternalSolveFailure.  f_hat - g_hat is (T⊗1)∘δ with
T = (1⊗(f-g))∘δ = T_P·R, R the nonzero rows of rref(t) for any t with T's
row space and T_P the pivot columns of T, so T_P⊗1 is injective.  As
(1⊗1⊗ε)∘(T⊗1)∘δ = T∘z for z = (1⊗ε)∘δ, E lies in K' = ker(R∘z), with no
counit law assumed, and E = K'·ker((R⊗1)∘δ∘K').  This basis is canonical:
each column is 1 at its largest nonzero coordinate, where the others are 0.
A relative pullback's payload is the equalizer of f⊗ε and ε⊗g on A⊗C; there
δ = (1⊗c⊗1)∘(δ_A⊗δ_C) gives z = Z_A⊗Z_C and T, rows in A⊗B⊗C order, as
X_f⊗Z_C - Z_A⊗(c∘Y_g), for X_f = (1⊗f)∘δ_A, Y_g = (1⊗g)∘δ_C and
Z = (1⊗ε)∘δ on each factor.  The cotensor product, the independent one-step
linear equalizer on A⊗C that cross-checks it, is an unchecked linear
subspace; once the legs are decided to be in S, subcoalgebra gives its
induced structure.

Tensor products of coalgebras keep their factors and build their sparse δ on
first use, so sparse structures (group-likes in particular) stay cheap even
at tensor dimensions in the thousands.  Unit identifications k⊗V ≅ V ≅ V⊗k
are implicit: a Kronecker factor of dimension 1 changes no indices, so the
dimension bookkeeping is the coercion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catcore import BaseCategory, RelPullback, Report, legs_in_class
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
    first_difference,
    kernel_basis_sparse,
    kernel_left_inverse,
    kron,
    kron_apply,
    solve,
    swap_map,
)


# -- objects and morphisms ---------------------------------------------------


class Coalgebra:
    """A comonoid in exact finite-dimensional vector spaces."""

    __slots__ = ("dim", "field", "epsilon", "_delta", "_factors")

    def __init__(self, dim, field, delta=None, epsilon=None, factors=None):
        self.dim = dim
        self.field = field
        self._factors = factors
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
            self._delta = _tensor_delta(*self._factors)
        return self._delta

    def delta_column(self, j):
        """Sparse column of δ at basis index j, {row: value}; do not modify."""
        return self.delta.columns[j]

    def __eq__(self, other):
        # identity first, so maps on one object never materialize a tensor δ
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
        return self.delta == other.delta

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
        return self.mat == other.mat and self.src == other.src and self.tgt == other.tgt

    def __repr__(self):
        return f"CoalgMap({self.src.dim} -> {self.tgt.dim})"


def _tensor_delta(a: Coalgebra, b: Coalgebra) -> Matrix:
    """δ of A⊗B, (1⊗c⊗1)∘(δ_A⊗δ_B): the term v·(a1⊗a2) of δ(e_p) and the term
    w·(b1⊗b2) of δ(e_q) give v·w at (a1⊗b1)⊗(a2⊗b2) in column p⊗q."""
    na, nb = a.dim, b.dim
    n, norm = na * nb, a.field.normalize
    bterms = [[(*divmod(k, nb), w) for k, w in b.delta_column(q).items()] for q in range(nb)]
    cols = []
    for p in range(na):
        aterms = [(*divmod(k, na), v) for k, v in a.delta_column(p).items()]
        for bq in bterms:
            cols.append({
                (a1 * nb + b1) * n + a2 * nb + b2: norm(v * w)
                for a1, a2, v in aterms
                for b1, b2, w in bq
            })
    return Matrix.from_cols(a.field, n * n, cols)


def cid(c: Coalgebra) -> CoalgMap:
    return CoalgMap(c, c, Matrix.identity(c.field, c.dim))


# -- stock coalgebras ---------------------------------------------------------


def trivial(field) -> Coalgebra:
    return Coalgebra(1, field, delta=Matrix.identity(field, 1), epsilon=Matrix.identity(field, 1))


def grouplike(field, n: int) -> Coalgebra:
    """k[X] for |X| = n: δ(e_x) = e_x⊗e_x, ε(e_x) = 1."""
    cols = [{x * n + x: field.one} for x in range(n)]
    eps = Matrix.from_cols(field, 1, [{0: field.one} for _ in range(n)])
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
    fld, n = a.field, a.dim + b.dim
    ia = Matrix.from_cols(fld, n, [{i: fld.one} for i in range(a.dim)])
    ib = Matrix.from_cols(fld, n, [{a.dim + i: fld.one} for i in range(b.dim)])
    delta = kron_apply(ia, ia, a.delta).hstack(kron_apply(ib, ib, b.delta))
    return Coalgebra(n, fld, delta=delta, epsilon=a.epsilon.hstack(b.epsilon))


def tensor_coalgebra(a: Coalgebra, b: Coalgebra) -> Coalgebra:
    """A⊗B with δ = (1⊗c⊗1)∘(δ_A⊗δ_B); δ is materialized lazily."""
    require_same_field(a.field, b.field)
    eps = kron(a.epsilon, b.epsilon)
    return Coalgebra(a.dim * b.dim, a.field, epsilon=eps, factors=(a, b))


def is_cocommutative(c: Coalgebra) -> bool:
    return swap_map(c.field, c.dim, c.dim) @ c.delta == c.delta


# -- axiom checks --------------------------------------------------------------


def _add_equation(rep: Report, name, lhs: Matrix, rhs: Matrix):
    j = first_difference(lhs, rhs)
    rep.add(name, j is None, f"basis {j}")


def check_coalgebra(c: Coalgebra) -> Report:
    """Coassociativity and both counit laws, exactly, with a basis witness."""
    d, eps, i_n = c.delta, c.epsilon, Matrix.identity(c.field, c.dim)
    rep = Report()
    _add_equation(rep, "coassociativity", kron_apply(d, i_n, d), kron_apply(i_n, d, d))
    _add_equation(rep, "left counit law", kron_apply(eps, i_n, d), i_n)
    _add_equation(rep, "right counit law", kron_apply(i_n, eps, d), i_n)
    return rep


def check_coalg_map(m: CoalgMap) -> Report:
    """δ_tgt∘f = (f⊗f)∘δ_src and ε_tgt∘f = ε_src, exactly."""
    f = m.mat
    rep = Report()
    _add_equation(rep, "comultiplication intertwined", m.tgt.delta @ f, kron_apply(f, f, m.src.delta))
    _add_equation(rep, "counit preserved", m.tgt.epsilon @ f, m.src.epsilon)
    return rep


# -- the class S ----------------------------------------------------------------


def class_S_witness(f: CoalgMap, g: CoalgMap) -> str | None:
    """None iff c∘(f⊗g)∘δ = (g⊗f)∘δ holds on the common apex; else a witness."""
    if f.src.dim != g.src.dim or f.src.field != g.src.field:
        raise ShapeMismatch("span legs must share their apex")
    d = f.src.delta
    lhs = swap_map(f.mat.field, f.tgt.dim, g.tgt.dim) @ kron_apply(f.mat, g.mat, d)
    j = first_difference(lhs, kron_apply(g.mat, f.mat, d))
    return None if j is None else f"basis {j}"


# -- the base-category instance --------------------------------------------------


class CoalgCategory(BaseCategory):
    name = "coalg"

    def __init__(self, field):
        self.field = field
        self._unit = trivial(field)

    def identity(self, obj):
        return cid(obj)

    def compose(self, g: CoalgMap, f: CoalgMap) -> CoalgMap:
        if f.tgt != g.src:
            raise CodomainMismatch("compose: cod(f) != dom(g)")
        return CoalgMap(f.src, g.tgt, g.mat @ f.mat)

    def dom(self, f):
        return f.src

    def cod(self, f):
        return f.tgt

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

    def failure_witness(self, span) -> str | None:
        """Class S: the paired legs composed with δ form a comonoid morphism."""
        return class_S_witness(span.left, span.right)

    def pullback(self, f, g):
        return relative_pullback_coalg(self, f, g)

    def factor(self, pb, a, c):
        return pullback_factor_coalg(pb, a, c)

    def monoid_checks(self, mon) -> Report:
        """A monoid here is a bialgebra: m and u are coalgebra maps."""
        rep = Report()
        for label, mor in (("multiplication", mon.m), ("unit", mon.u)):
            rep.extend(check_coalg_map(mor), f"{label} is a coalgebra map: ")
        return rep


# -- equalizers ------------------------------------------------------------------


@dataclass
class CoalgEqualizer:
    object: Coalgebra
    j: CoalgMap
    left_inv: Matrix


def subcoalgebra(x: Coalgebra, k: Matrix) -> CoalgEqualizer:
    """The span E of the columns of k, a canonical kernel basis, with the
    comonoid structure δ_E = (L⊗L)∘δ∘k it inherits from x, its inclusion and
    the left inverse L of k; (k⊗k)∘δ_E = δ∘k is verified."""
    return _subcoalgebra(x, k, x.delta @ k)


def _subcoalgebra(x: Coalgebra, k: Matrix, delta_k: Matrix) -> CoalgEqualizer:
    """subcoalgebra(x, k) given delta_k = δ∘k."""
    lk = kernel_left_inverse(k)
    delta_e = kron_apply(lk, lk, delta_k)
    if kron_apply(k, k, delta_e) != delta_k:
        raise InternalSolveFailure("δ∘j does not factor through j⊗j")
    obj = Coalgebra(k.cols, x.field, delta=delta_e, epsilon=x.epsilon @ k)
    return CoalgEqualizer(obj, CoalgMap(obj, x, k), lk)


def _equalizer_system(x: Coalgebra, t: Matrix, z: Matrix):
    """(K', δ∘K', (R⊗1)∘δ∘K') for t, z, R and K' as in the module docstring;
    it keeps the bracketing (δ⊗1)∘δ, so coassociativity is not assumed."""
    r, pivots = t.rref()
    r = Matrix.from_cols(x.field, len(pivots), r.columns)
    k = kernel_basis_sparse(r @ z)
    delta_k = x.delta @ k
    return k, delta_k, kron_apply(r, Matrix.identity(x.field, x.dim), delta_k)


def _equalizer(x: Coalgebra, t: Matrix, z: Matrix) -> CoalgEqualizer:
    """The equalizer that t and z describe in x, on the basis K'∘N."""
    k, delta_k, system = _equalizer_system(x, t, z)
    n = kernel_basis_sparse(system)
    return _subcoalgebra(x, k @ n, delta_k @ n)


def coalg_equalizer(f: CoalgMap, g: CoalgMap) -> CoalgEqualizer:
    """Equalizer of parallel coalgebra maps, as a coalgebra with inclusion."""
    if f.src != g.src:
        raise ShapeMismatch("equalizer needs a shared domain coalgebra")
    if f.tgt != g.tgt:
        raise ShapeMismatch("equalizer needs a shared codomain coalgebra")
    x, i_x = f.src, Matrix.identity(f.src.field, f.src.dim)
    return _equalizer(x, kron_apply(i_x, f.mat - g.mat, x.delta), kron_apply(i_x, x.epsilon, x.delta))


def equalizer_factor(eq: CoalgEqualizer, h: CoalgMap) -> CoalgMap:
    """Factor an equalizing map h: D -> A uniquely through the inclusion j."""
    a = eq.j.tgt
    if h.tgt != a:
        raise ShapeMismatch("map does not land in the equalizer's ambient coalgebra")
    u = eq.left_inv @ h.mat
    if eq.j.mat @ u != h.mat:
        raise SquareDoesNotCommute("map does not factor through the equalizer")
    return CoalgMap(h.src, eq.object, u)


# -- relative pullbacks and the cotensor product ----------------------------------


def _check_cospan(f: CoalgMap, g: CoalgMap):
    if f.tgt != g.tgt:
        raise CodomainMismatch("cospan needs a common codomain")


def relative_pullback_coalg(base: CoalgCategory, f: CoalgMap, g: CoalgMap) -> RelPullback:
    """The class-S relative pullback of f: A -> B <- C :g in base, computed as
    the comonoid equalizer of f⊗ε and ε⊗g on A⊗C, which is its payload.
    Unchecked: on legs outside S the equalizer is not the relative pullback;
    relpull.relative_pullback decides the legs before calling this."""
    _check_cospan(f, g)
    a, c, fld = f.src, g.src, f.mat.field
    i_a, i_c = Matrix.identity(fld, a.dim), Matrix.identity(fld, c.dim)
    z_a, z_c = kron_apply(i_a, a.epsilon, a.delta), kron_apply(i_c, c.epsilon, c.delta)
    y_g = swap_map(fld, c.dim, f.tgt.dim) @ kron_apply(i_c, g.mat, c.delta)
    t = kron(kron_apply(i_a, f.mat, a.delta), z_c) - kron(z_a, y_g)
    eq = _equalizer(tensor_coalgebra(a, c), t, kron(z_a, z_c))
    apex, j = eq.object, eq.j.mat
    p_a = CoalgMap(apex, a, kron_apply(i_a, c.epsilon, j))
    p_c = CoalgMap(apex, c, kron_apply(a.epsilon, i_c, j))
    if f.mat @ p_a.mat != g.mat @ p_c.mat:
        raise InternalSolveFailure("pullback square does not commute")
    # joint-mono certificate at the comonoid level: j is injective (L·j = I was
    # verified when L was built) and is recovered from the projections as
    # (p_A⊗p_C)∘δ, so any two comonoid fillers with equal projections are
    # equal.  (The stacked linear map [p_A; p_C] is NOT injective in general:
    # a 2x2 rectangle of matching group-like pairs already has a joint kernel
    # vector.)
    cert = kron_apply(p_a.mat, p_c.mat, apex.delta) == j
    return RelPullback(base, f, g, apex, p_a, p_c, cert, eq)


def pullback_factor_coalg(pb: RelPullback, k: CoalgMap, l: CoalgMap) -> CoalgMap:
    """The unique filler h with p_A∘h = k and p_C∘h = l for a class-S span (k, l),
    factoring (k⊗l)∘δ_D through the equalizer inclusion.  Unchecked: class S is
    decided by relpull.universal_factor, which calls this."""
    if k.src != l.src:
        raise ShapeMismatch("test span legs must share their domain")
    if pb.f.mat @ k.mat != pb.g.mat @ l.mat:
        raise SquareDoesNotCommute("f∘k != g∘l")
    pair = kron_apply(k.mat, l.mat, k.src.delta)
    h = pb.payload.left_inv @ pair
    if pb.payload.j.mat @ h != pair:
        raise InternalSolveFailure("filler does not factor through the inclusion")
    if pb.p_a.mat @ h != k.mat or pb.p_c.mat @ h != l.mat:
        raise InternalSolveFailure("filler does not reproduce the test span")
    return CoalgMap(k.src, pb.apex, h)


def cotensor(f: CoalgMap, g: CoalgMap) -> Matrix:
    """The one-step equalizer of (1⊗f⊗1)∘(δ_A⊗1) and (1⊗g⊗1)∘(1⊗δ_C) on A⊗C,
    a linear subspace given by its canonical basis, the columns of its
    inclusion into A⊗C.  Unchecked: only for legs in S is it a subcoalgebra
    (see subcoalgebra) and the relative pullback (compare_cotensor_pullback)."""
    _check_cospan(f, g)
    a, c = f.src, g.src
    i_a, i_c = Matrix.identity(a.field, a.dim), Matrix.identity(a.field, c.dim)
    return kernel_basis_sparse(
        kron(kron_apply(i_a, f.mat, a.delta), i_c) - kron(i_a, kron_apply(g.mat, i_c, c.delta))
    )


def compare_cotensor_pullback(f: CoalgMap, g: CoalgMap) -> Report:
    """Decide that the legs are in S, then verify that the cotensor product and
    the relative pullback are the same subobject: the mutual universal
    factorizations compose to identities."""
    base = CoalgCategory(f.mat.field)
    if not legs_in_class(base, f, g):
        raise LegsNotInClass("cotensor comparison needs legs in class S")
    return compare_with_pullback(cotensor(f, g), relative_pullback_coalg(base, f, g).payload)


def compare_with_pullback(ct: Matrix, eq: CoalgEqualizer) -> Report:
    """compare_cotensor_pullback for a cotensor basis and the payload of a
    relative pullback already computed from one cospan whose legs are in
    class S."""
    dim = eq.object.dim
    rep = Report()
    rep.add("dimensions agree", dim == ct.cols, f"{dim} vs {ct.cols}")
    u = eq.left_inv @ ct
    rep.add(
        "cotensor factors through the pullback",
        eq.j.mat @ u == ct,
        "inclusion escapes the pullback subobject",
    )
    v = kernel_left_inverse(ct) @ eq.j.mat
    rep.add(
        "pullback factors through the cotensor",
        ct @ v == eq.j.mat,
        "inclusion escapes the cotensor subobject",
    )
    fld = eq.object.field
    rep.add("u∘v is the identity", u @ v == Matrix.identity(fld, dim), "u∘v != id")
    rep.add("v∘u is the identity", v @ u == Matrix.identity(fld, ct.cols), "v∘u != id")
    return rep
