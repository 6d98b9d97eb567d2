"""Finite-dimensional coalgebras over exact fields.

A coalgebra is a comultiplication matrix δ: V -> V⊗V and a counit ε: V -> k,
both exact.  The admissible span class S contains the spans (f, g) out of an
apex A whose paired legs composed with δ give a comonoid morphism, i.e.
c∘(f⊗g)∘δ = (g⊗f)∘δ.  The symmetry c is natural, c∘(f⊗g) = (g⊗f)∘c, so the
two sides differ by (g⊗f)∘(c∘δ - δ): S is decided by that one product, and
without it when A is cocommutative, c∘δ = δ.

Every construction is a product of column-sparse matrices (see linalg).
An axiom holds when two such products are equal, and its witness names the
first basis vector on which they differ.  The sides of an equation of
coalgebra maps (CoalgCategory.first_difference, through which monoids
checks every monoid equation) and the comultiplication of check_coalg_map
are evaluated on _BLOCK basis vectors of the domain at a time, so neither
side is built: m∘(m⊗1) of a 144-dimensional bialgebra has 144³ columns.
A side g∘(f⊗h)∘… is read one basis vector e_p of f's domain at a time, as
the columns of g∘(f(e_p)⊗1), a combination of column slices of g, applied
to h's columns.  check_coalgebra reads coassociativity of k[X] off its
row tables (see below) and decides it otherwise with
linalg._coassoc_difference, a decider of linalg's packed F_p layer: on a
dense δ over F_p within the layer's gate, one basis vector at a time in
64-bit slots, with neither (δ⊗1)∘δ nor (1⊗δ)∘δ built, and otherwise as the
first difference of the two whole products, index maps on group-like data.
On decoded input jsonio.MAX_COASSOC_PRODUCTS bounds the products those two
would make.

Equalizers and relative pullbacks are of comonoids, which are counital.
Before anything is built, the maps' domain, or A and C of a cospan, is
decided to satisfy both counit laws, l = 1 and z = 1, on the facts each
keeps (_require_counital, which reads them as check_coalgebra does); one
that fails raises NotCounital, naming the law and its basis witness, and
the CLI reports that with exit 2.

Equalizers of coalgebra maps are computed in two steps: the underlying
subspace E is the kernel of f_hat - g_hat with f_hat = (1⊗f⊗1)∘(δ⊗1)∘δ, and
it inherits δ_E = (L⊗L)∘δ∘j, L the left inverse of the inclusion j.  L is
the 0/1 projection onto the free coordinates of j's canonical basis, so
δ_E is read off δ∘j, its rows at pairs of free coordinates, renumbered,
with no product.  The closure check (j⊗j)∘δ_E = δ∘j holds exactly when
δ(E) ⊆ E⊗E; the theory guarantees it, so failure raises
InternalSolveFailure.  f_hat - g_hat is (T⊗1)∘δ with
T = (1⊗(f-g))∘δ.  As (1⊗1⊗ε)∘(T⊗1)∘δ = T by the right counit law, E lies
in K' = ker T, and E = K'·N for N = ker((T⊗1)∘δ∘K'), the second system.
Both are kernel bases (linalg.kernel_basis_sparse) of systems built here.
T∘K' = 0, so the closure check on K' is the certificate: when it passes,
(T⊗1)∘δ∘K' = (T∘K'⊗K')∘δ_E = 0, so N = 1 and E = K'.  The second system
is built only when that check fails, as it can on input that is not
coassociative.  This basis is canonical: each column is 1 at its largest
nonzero coordinate, where the others are 0.  Over F_p on a tensor product A⊗C,
when K' has no row table and the gate of linalg's packed F_p layer admits
n² products of three residues per slot, n = dim A⊗C (linalg._fits_closure),
the check is decided in 64-bit slots by the layer's closure decider
(linalg._closed_delta), which reads δ_E off them: δ∘K' is built as a
matrix only off that gate, as over Q, a wide prime or a row table, or
when the check fails and the second system needs it.

A relative pullback's payload is the equalizer of f⊗ε and ε⊗g on A⊗C;
there δ = (1⊗c⊗1)∘(δ_A⊗δ_C) gives T, rows in A⊗B⊗C order, as
X_f⊗1 - 1⊗(c∘Y_g), for X_f = (1⊗f)∘δ_A and Y_g = (1⊗g)∘δ_C; each column
of that difference is built in one pass, without either Kronecker
product (linalg._kron_difference).  c∘Y_g is (g⊗1)∘c∘δ_C, one product,
and c∘δ_C = δ_C when C is cocommutative.  Once the closure check has
passed, the projections p_A = (1⊗ε_C)∘j and p_C = (ε_A⊗1)∘j give
(p_A⊗p_C)∘δ_E = (z_A⊗l_C)∘j, so the joint-mono certificate
(p_A⊗p_C)∘δ_E = j holds at once on the counital A and C decided before
the build; it is still checked.  The cotensor product, the independent
one-step linear equalizer on A⊗C that cross-checks it, is an unchecked
linear subspace; once the legs are decided to be in S, subcoalgebra gives its
induced structure.  The comparison settles on equal canonical bases.

When every column of f and g is one entry equal to one and A and C are
k[X] (δe_x = e_x⊗e_x), as on a linearized cospan, K' is
read off the legs with no system.  Column a⊗c of T is
e_a⊗e_f(a)⊗e_c - e_a⊗e_g(c)⊗e_c: zero exactly when f(a) = g(c), and
otherwise two entries on rows that no other column uses.  So ker T is
spanned by the matching pairs, and its canonical basis K' is their unit
columns e_a⊗e_c, in ascending order, with no condition on ε_B.
The recognition of k[X] has read δ_A, δ_C, ε_A and ε_C, so at the t-th
pair (a, c) δ∘K' is e_t⊗e_t of K'⊗K', ε_E is 1, p_A(e_t) = e_a and
p_C(e_t) = e_c, and the square commutes: the pullback is k[P], P the
matching pairs.  _grouplike_pullback builds it so, with no product: the
apex grouplike(k, |P|), j = K', L with kernel_left_inverse's check, and
p_A and p_C the pair coordinates.  Its equalizer keeps the index from
free coordinate to apex basis, and a filler whose k, l and δ_D have row
tables is read off it (_grouplike_filler): the square as tables, each row
of (k⊗l)∘δ_D looked up in the index, and p_A∘h = k and p_C∘h = l as
tables, each failure raised as the generic route words it, in its order.
The cotensor, which derives its own system from δ_A, f, g and δ_C and
reads none of the pullback's pairs, still cross-checks this pullback.
Every other cospan solves T.

Tensor products of coalgebras keep their factors.  δ∘M is
(1⊗c⊗1)∘(δ_A⊗δ_C)∘M, one kron_apply whose entries then move to their rows
of (A⊗C)⊗(A⊗C), so δ∘K' builds no δ of A⊗C; the full δ is that on the
identity and a δ column that on e_j, each built when read, and ε =
ε_A⊗ε_C on first use.  ε∘K is (ε_A⊗ε_C)∘K, and sparse structures stay
cheap even at tensor dimensions in the thousands.
Unit identifications k⊗V ≅ V ≅ V⊗k are implicit: a Kronecker factor of
dimension 1 changes no indices, so the dimension bookkeeping is the coercion.

A coalgebra keeps six facts about itself as cached properties, each built
on first use unless given to the constructor or set by its builder: ε and
δ of a tensor product; whether it is k[X], δe_x = e_x⊗e_x and
ε(e_x) = 1; z = (1⊗ε)∘δ and l = (ε⊗1)∘δ, which the counit laws read, in
check_coalgebra and in the decision before an equalizer or a pullback,
and the pullback's certificate reads as z_A and l_C; and whether
c∘δ = δ, which decides class S on a cocommutative apex and gives c∘δ_C.  grouplike,
which builds every linearized set, group-like pullback apex and the unit,
sets the last four on the object it returns, so those objects work none
out.  Any other coalgebra, as a decoded one, recognizes once whether it
is k[X] from the row tables of δ and ε, and a tensor product from its
factors, with neither of its own built; on k[X] the last three are then
read off the recognition with no product.  Either way z and l are the
shared identity, so the certificate's kron_apply returns j and each
counit law compares the identity with itself, and c∘δ = δ;
check_coalgebra reports it coassociative, both sides being e_x⊗e_x⊗e_x,
and _grouplike_pullback reads it.  So the pullbacks of linearized
cospans, iterated as in the pentagon, and the axiom checks of their
apexes build none of these products, nor any δ or ε of a tensor product.  A
command's iterated pullbacks read the facts on objects they share (a
linearization gives equal sets one k[X]), so each is built once per
object.  They live and die with the object, so nothing outlives the
objects of one command.  The class-S witness depends on the legs and is
not kept.  A map f keeps the equalizer and projections of the pullback
last built on it as left leg, keyed on the right leg g as an object (is,
not ==); a build that raises keeps nothing.
Beside them it keeps the system T the pullback solved and K' = ker T, only
when the inclusion is K': on input whose closure check on K' passed, not
on a group-like cospan, which solves no T.  They are a deterministic
function of f and g, so relative_pullback and compare_cotensor_pullback on
the same legs build them once, and the entry dies with f.  cotensor
returns the kept K' only when its own system equals T entry for entry; it
is then the kernel cotensor would take.  On legs in S, out of the counital
A and C the pullback has decided, the two are equal: class S of (g, 1_C)
gives (g⊗1)∘c∘δ_C = (g⊗1)∘δ_C.
Elsewhere cotensor takes the kernel of its own system.  On a group-like
cospan its X = (1⊗f)∘δ_A and Y = (g⊗1)∘δ_C have row tables and every row
of X⊗1 - 1⊗Y has count one, so linalg._difference_kernel reads the kernel,
the unit columns at the columns r = t, off the two index lists of the r
and the t, with no system built; any other system is built and
kernel_basis_sparse takes its kernel.
All of this is exact because matrices, coalgebras and maps are never
changed once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from functools import cached_property, partial
from itertools import chain

from .catcore import BaseCategory, RelPullback, Report, build, legs_in_class, require_same_ends
from .errors import (
    CodomainMismatch,
    CompositionMismatch,
    InternalSolveFailure,
    LegsNotInClass,
    NotCounital,
    ShapeMismatch,
    SquareDoesNotCommute,
)
from .fields import require_same_field
from .linalg import (
    Matrix,
    _closed_delta,
    _coassoc_difference,
    _difference_kernel,
    _fits_closure,
    _kron_difference,
    _unit_matrix,
    _unit_rows,
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
    """A comonoid in exact finite-dimensional vector spaces, given by δ and
    ε, both checked (grouplike builds them to shape and skips the checks),
    or as the tensor product of two factors, whose δ and ε are built on
    first use."""

    def __init__(self, dim, field, delta=None, epsilon=None, factors=None):
        self.dim = dim
        self.field = field
        self._factors = factors
        if factors is None:
            if epsilon is None or epsilon.rows != 1 or epsilon.cols != dim:
                raise ShapeMismatch("counit must be a 1 x dim matrix")
            require_same_field(field, epsilon.field)
            if delta is None or delta.rows != dim * dim or delta.cols != dim:
                raise ShapeMismatch("comultiplication must be a dim^2 x dim matrix")
            require_same_field(field, delta.field)
            self.delta, self.epsilon = delta, epsilon
        elif delta is not None or epsilon is not None:
            raise ShapeMismatch("a coalgebra takes either delta and epsilon or factors")

    @cached_property
    def epsilon(self) -> Matrix:
        a, b = self._factors
        return kron(a.epsilon, b.epsilon)

    @cached_property
    def _grouplike(self) -> bool:
        """Whether this is k[X], δe_x = e_x⊗e_x and ε(e_x) = 1: δ's row table
        is [x·n + x] and ε's [0]·n (linalg._unit_rows).  Of a tensor product,
        whether both factors are, with neither δ nor ε of the product built."""
        if self._factors is not None:
            return all(x._grouplike for x in self._factors)
        n = self.dim
        return (_unit_rows(self.epsilon) == [0] * n
                and _unit_rows(self.delta) == [x * n + x for x in range(n)])

    @cached_property
    def right_counit(self) -> Matrix:
        """z = (1⊗ε)∘δ; the right counit law is z = 1, the shared identity on k[X]."""
        i_n = Matrix.identity(self.field, self.dim)
        return i_n if self._grouplike else kron_apply(i_n, self.epsilon, self.delta)

    @cached_property
    def left_counit(self) -> Matrix:
        """l = (ε⊗1)∘δ; the left counit law is l = 1, the shared identity on k[X]."""
        i_n = Matrix.identity(self.field, self.dim)
        return i_n if self._grouplike else kron_apply(self.epsilon, i_n, self.delta)

    @cached_property
    def cocommutative(self) -> bool:
        """c∘δ = δ, true of k[X]."""
        return self._grouplike or _swapped(self.delta, self.dim) == self.delta

    @cached_property
    def delta(self) -> Matrix:
        return _delta_apply(self, Matrix.identity(self.field, self.dim))

    def delta_column(self, j):
        """Sparse column of δ at basis index j, {row: value}; do not modify.
        Of a tensor product whose δ is not built, δ∘e_j, which builds none."""
        return _delta_apply(self, _basis(self.field, self.dim, j, j + 1)).columns[0]

    def __eq__(self, other):
        # identity first, so maps on one object never materialize a tensor δ
        if self is other:
            return True
        if not isinstance(other, Coalgebra):
            return NotImplemented
        if self.dim != other.dim or self.field != other.field:
            return False
        # tensor products are strictly associative under row-major indices,
        # so equal factor sequences give equal coalgebras however bracketed;
        # leaves come first, so equal tensor products never build their ε
        if self._factors is not None or other._factors is not None:
            mine, theirs = self._leaves(), other._leaves()
            if len(mine) == len(theirs) and all(x == y for x, y in zip(mine, theirs)):
                return True
        return self.epsilon == other.epsilon and self.delta == other.delta

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

    __slots__ = ("src", "tgt", "mat", "_pullback")

    def __init__(self, src: Coalgebra, tgt: Coalgebra, mat: Matrix):
        if mat.rows != tgt.dim or mat.cols != src.dim:
            raise ShapeMismatch("matrix shape does not match the coalgebras")
        require_same_field(src.field, mat.field)
        require_same_field(tgt.field, mat.field)
        self.src = src
        self.tgt = tgt
        self.mat = mat
        self._pullback = None  # (g, the pullback of self and g, (T, K') or None) once one is built

    @classmethod
    def _valid(cls, src: Coalgebra, tgt: Coalgebra, mat: Matrix) -> CoalgMap:
        """A CoalgMap whose matrix is tgt.dim x src.dim over their field by
        construction, as the package's own constructions build it; not
        re-validated."""
        m = cls.__new__(cls)
        m.src, m.tgt, m.mat, m._pullback = src, tgt, mat, None
        return m

    def __eq__(self, other):
        if not isinstance(other, CoalgMap):
            return NotImplemented
        return self.mat == other.mat and self.src == other.src and self.tgt == other.tgt

    def __repr__(self):
        return f"CoalgMap({self.src.dim} -> {self.tgt.dim})"


def _delta_apply(x: Coalgebra, m: Matrix) -> Matrix:
    """δ∘m.  Of a tensor product A⊗B whose δ is not built, (1⊗c⊗1)∘(δ_A⊗δ_B)∘m,
    without the δ of A⊗B: the entry of kron_apply(δ_A, δ_B, m) at
    (a1⊗a2)⊗(b1⊗b2) moves to (a1⊗b1)⊗(a2⊗b2)."""
    if "delta" in vars(x):
        return x.delta @ m
    a, b = x._factors
    na, nb, n, s = a.dim, b.dim, x.dim, b.dim * b.dim
    # the moves of the rows δ_A and δ_B use, not tables of dim² entries
    to_a = {i: i // na * nb * n + i % na * nb for i in _rows_used(a.delta)}
    to_b = {k: k // nb * n + k % nb for k in _rows_used(b.delta)}
    prod = kron_apply(a.delta, b.delta, m)
    cols = [{to_a[r // s] + to_b[r % s]: v for r, v in col.items()} for col in prod.columns]
    return Matrix.from_cols(x.field, n * n, cols)


def _rows_used(d: Matrix):
    """The rows of d's nonzeros, with repeats: its row table when it has one."""
    return d._units if isinstance(d._units, list) else chain.from_iterable(d.columns)


def cid(c: Coalgebra) -> CoalgMap:
    return CoalgMap._valid(c, c, Matrix.identity(c.field, c.dim))


# -- stock coalgebras ---------------------------------------------------------


def trivial(field) -> Coalgebra:
    """k, the unit: k[X] for |X| = 1, whose δ and ε are the 1 x 1 identity."""
    return grouplike(field, 1)


def grouplike(field, n: int) -> Coalgebra:
    """k[X] for |X| = n: δ(e_x) = e_x⊗e_x, ε(e_x) = 1.  δ and ε have their
    shapes by construction, so Coalgebra.__init__'s checks are not run.
    The facts a coalgebra keeps are set on it here, as Matrix.identity
    hands over its row table, so none is worked out again: that it is k[X],
    that z = l = 1, the shared identity, and that c∘δ = δ."""
    c, eye = Coalgebra.__new__(Coalgebra), Matrix.identity(field, n)
    vars(c).update(dim=n, field=field, _factors=None, _grouplike=True, cocommutative=True,
                   delta=_unit_matrix(field, n * n, [x * n + x for x in range(n)]),
                   epsilon=_unit_matrix(field, 1, [0] * n), right_counit=eye, left_counit=eye)
    return c


def path_coalgebra(field) -> Coalgebra:
    """Basis {e0, e1, x} with δx = e0⊗x + x⊗e1: not cocommutative."""
    one = field.one
    cols = [{0: one}, {4: one}, {2: one, 7: one}]
    eps = Matrix.from_cols(field, 1, [{0: one}, {0: one}, {}])
    return Coalgebra(3, field, delta=Matrix.from_cols(field, 9, cols), epsilon=eps)


def tensor_coalgebra(a: Coalgebra, b: Coalgebra) -> Coalgebra:
    """A⊗B with δ = (1⊗c⊗1)∘(δ_A⊗δ_B) and ε = ε_A⊗ε_B, both built on first use."""
    require_same_field(a.field, b.field)
    return Coalgebra(a.dim * b.dim, a.field, factors=(a, b))


# -- axiom checks --------------------------------------------------------------


def _add_equation(rep: Report, name, lhs: Matrix, rhs: Matrix):
    j = first_difference(lhs, rhs)
    rep.add(name, j is None, f"basis {j}")


def check_coalgebra(c: Coalgebra) -> Report:
    """Coassociativity and both counit laws, exactly, with a basis witness.
    k[X] is coassociative with no product: both sides are e_x⊗e_x⊗e_x."""
    rep = Report()
    j = None if c._grouplike else _coassoc_difference(c.delta)
    rep.add("coassociativity", j is None, f"basis {j}")
    rep.extend(_counit_laws(c))
    return rep


def _counit_laws(c: Coalgebra) -> Report:
    """The left and right counit laws, l = 1 and z = 1, read off the facts
    c keeps, each with the first basis vector at which it fails."""
    i_n, rep = Matrix.identity(c.field, c.dim), Report()
    _add_equation(rep, "left counit law", c.left_counit, i_n)
    _add_equation(rep, "right counit law", c.right_counit, i_n)
    return rep


def _require_counital(c: Coalgebra, name: str):
    """Raise NotCounital, naming the first counit law that c fails and its
    witness as check_coalgebra reports them; the equalizer and the relative
    pullback decide their input with this before they build."""
    if failed := _counit_laws(c).failures():
        raise NotCounital(f"{name} is not counital: {failed[0].name} fails at {failed[0].witness}")


def check_coalg_map(m: CoalgMap) -> Report:
    """δ_tgt∘f = (f⊗f)∘δ_src and ε_tgt∘f = ε_src, exactly.  The first is
    taken _BLOCK basis vectors at a time (_walk), so no δ of a tensor
    product is built (_delta_apply)."""
    f, n = m.mat, m.mat.cols
    rep = Report()
    j = _walk(n, lambda lo, hi: _delta_apply(m.tgt, f @ _basis(f.field, n, lo, hi)),
              lambda lo, hi: kron_apply(f, f, _delta_apply(m.src, _basis(f.field, n, lo, hi))))
    rep.add("comultiplication intertwined", j is None, f"basis {j}")
    _add_equation(rep, "counit preserved", m.tgt.epsilon @ f, m.src.epsilon)
    return rep


# The most basis vectors of a domain that an equation is evaluated on at once.
_BLOCK = 1024


def _walk(n, *sides):
    """The first of n basis indices at which the two sides, side(lo, hi) the
    matrix of one on the basis vectors lo, …, hi - 1, differ, taken _BLOCK
    indices at a time; None when they never do."""
    for lo in range(0, n, _BLOCK):
        a, b = (side(lo, min(lo + _BLOCK, n)) for side in sides)
        if a.columns != b.columns:
            return lo + first_difference(a, b)
    return None


def _basis(fld, n, lo, hi) -> Matrix:
    """The basis vectors lo, …, hi - 1 of an n-dimensional space, as columns."""
    return _unit_matrix(fld, n, list(range(lo, hi)))


def _combination(g: Matrix, v: dict, w: int) -> Matrix:
    """g∘(v⊗1) for a column v and the identity on w dimensions: the sum of
    v_r·G_r, G_r the columns r·w, …, r·w + w - 1 of g, shared when v = e_r."""
    fld = g.field
    if not v:
        return Matrix.from_cols(fld, g.rows, [{}] * w)
    if len(v) > 1:
        return g @ Matrix.from_cols(fld, g.cols, [{r * w + t: c for r, c in v.items()} for t in range(w)])
    ((r, c),) = v.items()
    cols, norm = g.columns[r * w:r * w + w], fld.normalize
    if c != fld.one:  # no product is 0 in a field
        cols = [{i: norm(c * x) for i, x in col.items()} for col in cols]
    return Matrix.from_cols(fld, g.rows, cols)


def _block(fld, chain: list, n, lo, hi) -> Matrix:
    """The factors of one side (CoalgCategory._chain), first applied first,
    on the basis vectors lo, …, hi - 1 of its n-dimensional domain.  A first
    factor f⊗h followed by a matrix g is taken one basis vector e_p of f's
    domain at a time, as g∘(f(e_p)⊗1) applied to h(e_q), so neither f⊗h nor
    g∘(f⊗h) is built."""
    if isinstance(chain[0], tuple) and len(chain) > 1 and isinstance(chain[1], Matrix):
        (f, h), g, chain = chain[0], chain[1], chain[2:]
        w, cols = h.cols, []
        for p in range(lo // w, (hi - 1) // w + 1):
            q = h.columns[max(lo - p * w, 0):min(hi - p * w, w)]
            cols += (_combination(g, f.columns[p], h.rows) @ Matrix.from_cols(fld, h.rows, q)).columns
        x = Matrix.from_cols(fld, g.rows, cols)
    else:
        x = _basis(fld, n, lo, hi)
    for m in chain:
        x = m @ x if isinstance(m, Matrix) else kron_apply(*m, x)
    return x


# -- the class S ----------------------------------------------------------------


def class_S_witness(f: CoalgMap, g: CoalgMap) -> str | None:
    """None iff c∘(f⊗g)∘δ = (g⊗f)∘δ holds on the common apex; else a witness,
    the first column of (g⊗f)∘(c∘δ - δ), their difference, that is not 0.
    Legs out of two different coalgebras raise CompositionMismatch, as
    catcore's check_span does on the other base."""
    if f.src != g.src:
        raise CompositionMismatch("span legs must share their apex")
    if f.src.cocommutative:
        return None
    d = f.src.delta
    diff = kron_apply(g.mat, f.mat, _swapped(d, f.src.dim) - d)
    return next((f"basis {j}" for j, col in enumerate(diff.columns) if col), None)


def _swapped(d: Matrix, n: int) -> Matrix:
    """c∘d for a map d into V⊗V, dim V = n: the entry at v1⊗v2 moves to v2⊗v1."""
    return Matrix.from_cols(d.field, d.rows, [{i % n * n + i // n: v for i, v in col.items()}
                                              for col in d.columns])


# -- the base-category instance --------------------------------------------------


class CoalgCategory(BaseCategory):
    """Coalgebras over one field, their maps and the class S.  The unit k is
    built on the first unit_obj() call and kept: a category built for one
    pullback, as compare_cotensor_pullback's on every call, never reads it."""

    name = "coalg"

    def __init__(self, field):
        self.field = field

    def identity(self, obj):
        return cid(obj)

    def compose(self, g: CoalgMap, f: CoalgMap) -> CoalgMap:
        if f.tgt != g.src:
            raise CodomainMismatch("compose: cod(f) != dom(g)")
        return CoalgMap._valid(f.src, g.tgt, g.mat @ f.mat)

    def dom(self, f):
        return f.src

    def cod(self, f):
        return f.tgt

    def size(self, obj):
        return obj.dim

    def tensor_obj(self, x, y):
        return tensor_coalgebra(x, y)

    def tensor_mor(self, f: CoalgMap, g: CoalgMap) -> CoalgMap:
        return CoalgMap._valid(
            tensor_coalgebra(f.src, g.src), tensor_coalgebra(f.tgt, g.tgt), kron(f.mat, g.mat)
        )

    @cached_property
    def _unit(self) -> Coalgebra:
        return trivial(self.field)

    def unit_obj(self):
        return self._unit

    def symmetry(self, x: Coalgebra, y: Coalgebra) -> CoalgMap:
        return CoalgMap._valid(
            tensor_coalgebra(x, y), tensor_coalgebra(y, x), swap_map(x.field, x.dim, y.dim)
        )

    def first_difference(self, lhs, rhs):
        """Each side is taken as its factors (_chain) on _BLOCK basis vectors
        of the domain at a time (_block), so neither is built."""
        left, right = [], []
        ends = self._chain(lhs, left)
        require_same_ends(ends, self._chain(rhs, right))
        n = ends[0].dim
        return _walk(n, partial(_block, self.field, left, n), partial(_block, self.field, right, n))

    def _chain(self, term, out: list) -> tuple:
        """Append the factors of term to out, first applied first: a matrix,
        or the pair of matrices of a ⊗, whose composite operands are built;
        the (domain, codomain) of term."""
        if not isinstance(term, tuple):
            out.append(term.mat)
            return term.src, term.tgt
        op, x, y = term
        if op == "⊗":
            f, g = build(self, x), build(self, y)
            out.append((f.mat, g.mat))
            return tensor_coalgebra(f.src, g.src), tensor_coalgebra(f.tgt, g.tgt)
        (src, mid), (mid2, tgt) = self._chain(y, out), self._chain(x, out)
        if mid != mid2:
            raise CodomainMismatch("compose: cod(f) != dom(g)")
        return src, tgt

    def invert(self, f: CoalgMap):
        if f.src.dim != f.tgt.dim:
            return None
        inv = solve(f.mat, Matrix.identity(self.field, f.tgt.dim))
        if inv is None or (inv @ f.mat) != Matrix.identity(self.field, f.src.dim):
            return None
        return CoalgMap._valid(f.tgt, f.src, inv)

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
    # {free coordinate of j: apex basis index} of a group-like pullback
    # (_grouplike_pullback), which its fillers read; a function of j
    index: dict | None = _field(default=None, compare=False)


def subcoalgebra(x: Coalgebra, k: Matrix) -> CoalgEqualizer:
    """The span E of the columns of k, a canonical kernel basis, with the
    comonoid structure δ_E = (L⊗L)∘δ∘k it inherits from x, its inclusion and
    the left inverse L of k; (k⊗k)∘δ_E = δ∘k is verified."""
    return _closed(_subcoalgebra(x, k, None if _packs_closure(x, k) else _delta_apply(x, k)))


def _closed(eq: CoalgEqualizer | None) -> CoalgEqualizer:
    if eq is None:
        raise InternalSolveFailure("δ∘j does not factor through j⊗j")
    return eq


def _packs_closure(x: Coalgebra, k: Matrix) -> bool:
    """Whether k's closure check in x is decided in packed slots, with
    neither side built (linalg._closed_delta): over F_p within its slot
    bound, on a tensor product, and k without a row table, whose check is
    a compare of tables."""
    return x._factors is not None and _fits_closure(x.field, x.dim) and _unit_rows(k) is False


def _subcoalgebra(x: Coalgebra, k: Matrix, delta_k: Matrix | None) -> CoalgEqualizer | None:
    """subcoalgebra(x, k) given delta_k = δ∘k, or None when the check fails;
    delta_k is None when _packs_closure(x, k), and then linalg._closed_delta
    reads δ_E and decides the check.  L is the 0/1 projection onto k's free
    coordinates, so δ_E = (L⊗L)∘δ∘k is the rows of delta_k at pairs of
    them, renumbered: L maps the free coordinate of column t to e_t and the
    others to 0."""
    lk, n, kc = kernel_left_inverse(k), x.dim, k.cols
    free = k._units if isinstance(k._units, list) else [max(col) for col in k.columns]
    at = dict(zip(free, range(kc)))
    if delta_k is None:
        if (cols := _closed_delta(*(f.delta for f in x._factors), k, free)) is None:
            return None
        delta_e = Matrix.from_cols(x.field, kc * kc, cols)
    else:
        delta_e = Matrix.from_cols(x.field, kc * kc, [
            {at[u] * kc + at[w]: v for r, v in col.items() if (u := r // n) in at and (w := r % n) in at}
            for col in delta_k.columns])
        if kron_apply(k, k, delta_e) != delta_k:
            return None
    eps_k = x.epsilon @ k if x._factors is None else kron_apply(*(f.epsilon for f in x._factors), k)
    obj = Coalgebra(k.cols, x.field, delta=delta_e, epsilon=eps_k)
    return CoalgEqualizer(obj, CoalgMap._valid(obj, x, k), lk)


def _equalizer(x: Coalgebra, t: Matrix):
    """The equalizer that t describes in counital x, on the basis K'∘N of
    the module docstring, and (t, K') when K' is that basis, else None.
    K' = ker t is returned when its closure check passes, which certifies
    N = 1; δ∘K' is built only when that check is not packed
    (_packs_closure) or fails.  Otherwise N is the kernel of the second
    system (t⊗1)∘δ∘K', which keeps the bracketing (δ⊗1)∘δ; K'∘N is
    checked, and a product with N = 1 returns its left operand."""
    k = kernel_basis_sparse(t)
    delta_k = None if _packs_closure(x, k) else _delta_apply(x, k)
    if (eq := _subcoalgebra(x, k, delta_k)) is not None:
        return eq, (t, k)
    delta_k = _delta_apply(x, k) if delta_k is None else delta_k
    n = kernel_basis_sparse(kron_apply(t, Matrix.identity(t.field, x.dim), delta_k))
    return _closed(_subcoalgebra(x, k @ n, delta_k @ n)), None


def coalg_equalizer(f: CoalgMap, g: CoalgMap) -> CoalgEqualizer:
    """Equalizer of parallel coalgebra maps, as a coalgebra with inclusion;
    a domain that is not counital raises NotCounital."""
    if f.src != g.src:
        raise ShapeMismatch("equalizer needs a shared domain coalgebra")
    if f.tgt != g.tgt:
        raise ShapeMismatch("equalizer needs a shared codomain coalgebra")
    x = f.src
    _require_counital(x, "the maps' domain")
    return _equalizer(x, kron_apply(Matrix.identity(x.field, x.dim), f.mat - g.mat, x.delta))[0]


def equalizer_factor(eq: CoalgEqualizer, h: CoalgMap) -> CoalgMap:
    """Factor an equalizing map h: D -> A uniquely through the inclusion j."""
    a = eq.j.tgt
    if h.tgt != a:
        raise ShapeMismatch("map does not land in the equalizer's ambient coalgebra")
    u = eq.left_inv @ h.mat
    if eq.j.mat @ u != h.mat:
        raise SquareDoesNotCommute("map does not factor through the equalizer")
    return CoalgMap._valid(h.src, eq.object, u)


# -- relative pullbacks and the cotensor product ----------------------------------


def _pullback_equalizer(f: CoalgMap, g: CoalgMap):
    """The equalizer of f⊗ε and ε⊗g on A⊗C and its projections p_A, p_C,
    once A and C are decided counital; kept on f for this g object, with
    (T, K') when the inclusion is K' = ker T, else None.  Unchecked: every
    caller decides the legs with catcore.legs_in_class, which checks the
    common codomain.  The square f∘p_A = g∘p_C then holds without a check:
    (ε⊗1)∘X_f = f∘l_A and (1⊗ε)∘c∘Y_g = g∘l_C, so on counital A and C
    (ε⊗1⊗ε)∘T = f⊗ε - ε⊗g, and T∘j = 0 gives
    f∘p_A - g∘p_C = (f⊗ε - ε⊗g)∘j = 0."""
    if (hit := f._pullback) is not None and hit[0] is g:
        return hit[1]
    a, c, fld = f.src, g.src, f.mat.field
    _require_counital(a, "the left leg's domain")
    _require_counital(c, "the right leg's domain")
    x = tensor_coalgebra(a, c)
    # K' of a group-like cospan is its matching pairs (module docstring)
    if (built := _grouplike_pullback(f, g, x)) is not None:
        system = None
    else:
        i_a, i_c = Matrix.identity(fld, a.dim), Matrix.identity(fld, c.dim)
        # Y_g = c∘(1⊗g)∘δ_C = (g⊗1)∘c∘δ_C, and c∘δ_C = δ_C on a cocommutative C
        y_g = kron_apply(g.mat, i_c, c.delta if c.cocommutative else _swapped(c.delta, c.dim))
        eq, system = _equalizer(x, _kron_difference(kron_apply(i_a, f.mat, a.delta), y_g))
        j = eq.j.mat
        p_a = CoalgMap._valid(eq.object, a, kron_apply(i_a, c.epsilon, j))
        p_c = CoalgMap._valid(eq.object, c, kron_apply(a.epsilon, i_c, j))
        built = eq, p_a, p_c
    f._pullback = g, built, system
    return built


def _grouplike_pullback(f: CoalgMap, g: CoalgMap, x: Coalgebra):
    """_pullback_equalizer's equalizer and projections when every column of
    f and g is one entry equal to one (their row tables are read, f's
    first, so a dense f fails at its first column) and A and C are k[X]
    (Coalgebra._grouplike); else None.  The pullback is then k[P], P the
    matching pairs (a, c), f(a) = g(c), in ascending order: the apex
    grouplike(k, |P|), j the unit columns e_a⊗e_c and p_A, p_C the pair
    coordinates (module docstring).  The equalizer keeps its index from
    free coordinate to apex basis for _grouplike_filler."""
    legs = []
    for m in (f, g):
        if (rows := _unit_rows(m.mat)) is False or not m.src._grouplike:
            return None
        legs.append(rows)
    (fa, gc), fld, over = legs, f.mat.field, {}
    for y, b in enumerate(gc):
        over.setdefault(b, []).append(y)
    pairs = [(s, y) for s, b in enumerate(fa) for y in over.get(b, ())]
    a, c, obj = f.src, g.src, grouplike(fld, len(pairs))
    k = _unit_matrix(fld, x.dim, [s * c.dim + y for s, y in pairs])
    eq = CoalgEqualizer(obj, CoalgMap._valid(obj, x, k), kernel_left_inverse(k), dict(zip(k._units, range(k.cols))))
    return (eq, CoalgMap._valid(obj, a, _unit_matrix(fld, a.dim, [s for s, _ in pairs])),
            CoalgMap._valid(obj, c, _unit_matrix(fld, c.dim, [y for _, y in pairs])))


def relative_pullback_coalg(base: CoalgCategory, f: CoalgMap, g: CoalgMap) -> RelPullback:
    """The class-S relative pullback of f: A -> B <- C :g in base, computed as
    the comonoid equalizer of f⊗ε and ε⊗g on A⊗C, which is its payload.
    Unchecked: on legs outside S the equalizer is not the relative pullback;
    relpull.relative_pullback decides the legs before calling this."""
    eq, p_a, p_c = _pullback_equalizer(f, g)
    a, c, j = f.src, g.src, eq.j.mat
    # joint-mono certificate at the comonoid level: j is injective (L·j = I was
    # verified when L was built) and is recovered from the projections as
    # (p_A⊗p_C)∘δ_E, so any two comonoid fillers with equal projections are
    # equal.  (The stacked linear map [p_A; p_C] is NOT injective in general:
    # a 2x2 rectangle of matching group-like pairs already has a joint kernel
    # vector.)  The closure check gave (j⊗j)∘δ_E = δ∘j, and
    # ((1⊗ε_C)⊗(ε_A⊗1))∘(1⊗c⊗1)∘(δ_A⊗δ_C) = z_A⊗l_C, so
    # (p_A⊗p_C)∘δ_E = (z_A⊗l_C)∘j.  _pullback_equalizer has decided A and
    # C counital, so z_A and l_C are identities, kron_apply returns j with
    # no product, and this check, kept as a check of that decision, passes.
    cert = kron_apply(a.right_counit, c.left_counit, j) == j
    return RelPullback(base, f, g, eq.object, p_a, p_c, cert, eq)


def pullback_factor_coalg(pb: RelPullback, k: CoalgMap, l: CoalgMap) -> CoalgMap:
    """The unique filler h with p_A∘h = k and p_C∘h = l for a class-S span (k, l),
    factoring (k⊗l)∘δ_D through the equalizer inclusion.  Checks the square;
    unchecked otherwise: relpull.universal_factor checks the span's ends and
    decides class S, which checks its apex, before calling this.  On a
    group-like pullback (_grouplike_pullback) with k, l and δ_D row tables,
    _grouplike_filler makes the same checks on the tables, with no product;
    the cotensor, which derives its own system, still cross-checks that
    pullback."""
    if (h := _grouplike_filler(pb, k, l)) is not None:
        return CoalgMap._valid(k.src, pb.apex, h)
    if pb.f.mat @ k.mat != pb.g.mat @ l.mat:
        raise SquareDoesNotCommute("f∘k != g∘l")
    pair = kron_apply(k.mat, l.mat, k.src.delta)
    h = pb.payload.left_inv @ pair
    if pb.payload.j.mat @ h != pair:
        raise InternalSolveFailure("filler does not factor through the inclusion")
    if pb.p_a.mat @ h != k.mat or pb.p_c.mat @ h != l.mat:
        raise InternalSolveFailure("filler does not reproduce the test span")
    return CoalgMap._valid(k.src, pb.apex, h)


def _grouplike_filler(pb: RelPullback, k: CoalgMap, l: CoalgMap) -> Matrix | None:
    """pullback_factor_coalg's h, as a row table, on a pullback that
    _grouplike_pullback built, when k, l and δ_D have row tables; else
    None, before any check (relpull.universal_factor has checked that k and
    l end at the legs' domains).  The square is compared as tables, each
    row of (k⊗l)∘δ_D is looked up in the index of the free coordinates (a
    row outside it is a column that L sends to 0, on which the inclusion
    fails), and p_A∘h = k and p_C∘h = l are compared as tables: each
    failure raises as the generic route words it."""
    f, g, fld, at = pb.f.mat, pb.g.mat, pb.f.mat.field, pb.payload.index
    if (at is None or (kr := _unit_rows(k.mat)) is False or (lr := _unit_rows(l.mat)) is False
            or (dd := _unit_rows(k.src.delta)) is False):
        return None
    fa, gc = f._units, g._units
    if [fa[r] for r in kr] != [gc[r] for r in lr]:
        raise SquareDoesNotCommute("f∘k != g∘l")
    d, nc, h = l.mat.cols, l.mat.rows, []
    for r in dd:
        p, q = divmod(r, d)
        if (t := at.get(kr[p] * nc + lr[q])) is None:
            raise InternalSolveFailure("filler does not factor through the inclusion")
        h.append(t)
    pa, pc = pb.p_a.mat._units, pb.p_c.mat._units
    if [pa[t] for t in h] != kr or [pc[t] for t in h] != lr:
        raise InternalSolveFailure("filler does not reproduce the test span")
    return _unit_matrix(fld, pb.apex.dim, h)


def cotensor(f: CoalgMap, g: CoalgMap) -> Matrix:
    """The one-step equalizer of (1⊗f⊗1)∘(δ_A⊗1) and (1⊗g⊗1)∘(1⊗δ_C) on A⊗C,
    a linear subspace given by its canonical basis, the columns of its
    inclusion into A⊗C.  Unchecked: only for legs in S is it a subcoalgebra
    (see subcoalgebra) and the relative pullback (compare_cotensor_pullback).
    Its system X⊗1 - 1⊗Y, X = (1⊗f)∘δ_A and Y = (g⊗1)∘δ_C, is derived here,
    by its own formula, on every call.  When X and Y have row tables and the
    system has count one, its kernel is read off their two index lists
    (linalg._difference_kernel), with no system built.  Otherwise the system
    is built, and when it equals the T of the pullback kept on f for g,
    entry for entry, the K' kept with T is its canonical kernel basis, and
    is returned instead of eliminating the system again."""
    if f.tgt != g.tgt:
        raise CodomainMismatch("cospan needs a common codomain")
    a, c = f.src, g.src
    i_a, i_c = Matrix.identity(a.field, a.dim), Matrix.identity(a.field, c.dim)
    x, y = kron_apply(i_a, f.mat, a.delta), kron_apply(g.mat, i_c, c.delta)
    if (k := _difference_kernel(x, y)) is not None:
        return k
    t = _kron_difference(x, y)
    if (kept := f._pullback) and kept[0] is g and kept[2] and kept[2][0] == t:
        return kept[2][1]
    return kernel_basis_sparse(t)


def compare_cotensor_pullback(f: CoalgMap, g: CoalgMap) -> Report:
    """Decide that the legs are in S, then verify that the cotensor product and
    the relative pullback are the same subobject: the mutual universal
    factorizations compose to identities.  Of the pullback it reads the
    equalizer and projections kept on f for g, or builds them as
    relative_pullback_coalg does; the certificate is not read here.  The
    cotensor stays an independent oracle: its system is derived by its own
    formula on every call, and its kernel read off two index lists when it
    has count one on row tables; a system it builds is compared with the
    pullback's kept T, entry for entry, and only an equal system reuses the
    kernel kept with T (cotensor).  The checks then compare the two bases."""
    base = CoalgCategory(f.mat.field)
    if not legs_in_class(base, f, g):
        raise LegsNotInClass("cotensor comparison needs legs in class S")
    return compare_with_pullback(cotensor(f, g), _pullback_equalizer(f, g)[0])


def compare_with_pullback(ct: Matrix, eq: CoalgEqualizer) -> Report:
    """compare_cotensor_pullback for a cotensor basis and the payload of a
    relative pullback already computed from one cospan whose legs are in
    class S.  Equal bases settle it with no product: a subspace has one
    canonical basis, so ct = j makes the two subobjects one; L_E∘j = I was
    verified when L_E was built, and kernel_left_inverse(ct) is then that
    same L, so u = v = I and every check passes."""
    dim, j, fld, same = eq.object.dim, eq.j.mat, eq.object.field, ct == eq.j.mat
    rep = Report()
    rep.add("dimensions agree", dim == ct.cols, f"{dim} vs {ct.cols}")
    u = None if same else eq.left_inv @ ct
    rep.add("cotensor factors through the pullback", same or j @ u == ct,
            "inclusion escapes the pullback subobject")
    v = None if same else kernel_left_inverse(ct) @ j
    rep.add("pullback factors through the cotensor", same or ct @ v == j,
            "inclusion escapes the cotensor subobject")
    rep.add("u∘v is the identity", same or u @ v == Matrix.identity(fld, dim), "u∘v != id")
    rep.add("v∘u is the identity", same or v @ u == Matrix.identity(fld, ct.cols), "v∘u != id")
    return rep
