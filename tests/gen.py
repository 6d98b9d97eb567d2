"""Seeded generators and small enumerations shared by the test suites."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from relspan import (
    GF,
    QQ,
    CoalgCategory,
    CoalgMap,
    Coalgebra,
    FinFun,
    FinSetObj,
    Matrix,
    MonoidMorphism,
    MonoidObj,
    RelativeCategory,
    SmallCategory,
    grouplike,
    kron,
    relative_pullback,
    tensor_coalgebra,
)
from relspan.linalg import kron_apply, solve, swap_map

FIELDS = (QQ, GF(5))


def primitive_block(field) -> Coalgebra:
    """Basis {g, x}: δg = g⊗g, δx = g⊗x + x⊗g (cocommutative)."""
    one = field.one
    eps = Matrix(field, [[one, field.zero]], 1, 2)
    return Coalgebra(2, field, delta=Matrix.from_cols(field, 4, [{0: one}, {1: one, 2: one}]),
                     epsilon=eps)


def direct_sum(a: Coalgebra, b: Coalgebra) -> Coalgebra:
    fld, n = a.field, a.dim + b.dim
    ia = Matrix.from_cols(fld, n, [{i: fld.one} for i in range(a.dim)])
    ib = Matrix.from_cols(fld, n, [{a.dim + i: fld.one} for i in range(b.dim)])
    delta = Matrix.from_cols(fld, n * n, kron_apply(ia, ia, a.delta).columns + kron_apply(ib, ib, b.delta).columns)
    return Coalgebra(n, fld, delta=delta, epsilon=Matrix.from_cols(fld, 1, a.epsilon.columns + b.epsilon.columns))


def is_cocommutative(c: Coalgebra) -> bool:
    return swap_map(c.field, c.dim, c.dim) @ c.delta == c.delta


def is_injective(a: Matrix) -> bool:
    return len(a.rref()[1]) == a.cols


def mat(field, rows) -> Matrix:
    """The matrix with the given rows, each entry coerced into field."""
    return Matrix(field, [[field.of(x) for x in row] for row in rows], len(rows), len(rows[0]))


def dense(m: Matrix) -> list:
    """m's entries as a fresh list of row lists, zeros included: the tests'
    dense view, read off m's columns."""
    out = [[m.field.zero] * m.cols for _ in range(m.rows)]
    for j, col in enumerate(m.columns):
        for i, v in col.items():
            out[i][j] = v
    return out


def general(m: Matrix) -> Matrix:
    """m with a cached "no" as its row table, so every reader of it takes its
    dict path (linalg._unit_rows)."""
    out = Matrix.from_cols(m.field, m.rows, m.columns)
    out._units = False
    return out


def rand_scalar(rng, field, lo=-3, hi=3):
    return field.of(rng.randint(lo, hi))


def rand_matrix(rng, field, rows, cols, lo=-3, hi=3):
    return Matrix(
        field, [[rand_scalar(rng, field, lo, hi) for _ in range(cols)] for _ in range(rows)],
        rows, cols,
    )


def rand_sparse_matrix(rng, field, rows, cols, density):
    """Each entry nonzero with probability density, drawn from ±1..±6."""
    return Matrix(field, [[field.of(rng.choice((-1, 1)) * rng.randint(1, 6))
                           if rng.random() < density else field.zero
                           for _ in range(cols)] for _ in range(rows)], rows, cols)


def rand_q_matrix(rng, rows, cols, density=0.7):
    """A ℚ matrix with zeros, integers and non-integral entries mixed."""
    def entry():
        if rng.random() > density:
            return QQ.zero
        return QQ.of(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6))))

    return Matrix(QQ, [[entry() for _ in range(cols)] for _ in range(rows)], rows, cols)


def rand_finfun(rng, dom: int, cod: int) -> FinFun:
    return FinFun(FinSetObj(dom), FinSetObj(cod), [rng.randrange(cod) for _ in range(dom)])


def rand_surjection(rng, dom: int, cod: int) -> FinFun:
    assert dom >= cod
    table = list(range(cod)) + [rng.randrange(cod) for _ in range(dom - cod)]
    rng.shuffle(table)
    return FinFun(FinSetObj(dom), FinSetObj(cod), table)


def rand_injection(rng, dom: int, cod: int) -> FinFun:
    assert cod >= dom
    return FinFun(FinSetObj(dom), FinSetObj(cod), rng.sample(range(cod), dom))


def rand_box_config(rng):
    """A commuting box configuration: cospan (f, g), primed cospan (f2, g2)
    and morphisms a, b, c with b∘f = f2∘a and b∘g = g2∘c (b surjective so
    fiberwise sampling always succeeds)."""
    nb1, nb2 = rng.randint(1, 3), rng.randint(1, 3)
    if nb1 < nb2:
        nb1, nb2 = nb2, nb1
    b = rand_surjection(rng, nb1, nb2)
    f2 = rand_finfun(rng, rng.randint(1, 3), nb2)
    g2 = rand_finfun(rng, rng.randint(1, 3), nb2)
    a = rand_finfun(rng, rng.randint(1, 3), f2.dom.size)
    c = rand_finfun(rng, rng.randint(1, 3), g2.dom.size)
    fibers = [[x for x in range(nb1) if b.table[x] == y] for y in range(nb2)]
    f = FinFun(
        a.dom, b.dom, [rng.choice(fibers[f2.table[a.table[x]]]) for x in range(a.dom.size)]
    )
    g = FinFun(
        c.dom, b.dom, [rng.choice(fibers[g2.table[c.table[x]]]) for x in range(c.dom.size)]
    )
    return f, g, f2, g2, a, b, c


def rand_box_stage2(rng, f2: FinFun, g2: FinFun):
    """A second commuting stage on top of the cospan (f2, g2), built with
    injective object maps so the forced definitions are well-defined."""
    nb3 = rng.randint(1, 3)
    b2 = rand_finfun(rng, f2.cod.size, nb3)
    a2 = rand_injection(rng, f2.dom.size, f2.dom.size + rng.randint(0, 2))
    c2 = rand_injection(rng, g2.dom.size, g2.dom.size + rng.randint(0, 2))
    f4t = [rng.randrange(nb3) for _ in range(a2.cod.size)]
    for x in range(f2.dom.size):
        f4t[a2.table[x]] = b2.table[f2.table[x]]
    g4t = [rng.randrange(nb3) for _ in range(c2.cod.size)]
    for x in range(g2.dom.size):
        g4t[c2.table[x]] = b2.table[g2.table[x]]
    f4 = FinFun(a2.cod, FinSetObj(nb3), f4t)
    g4 = FinFun(c2.cod, FinSetObj(nb3), g4t)
    return f4, g4, a2, b2, c2


def rand_chain(rng, n_apex: int, max_size: int = 4):
    """A cospan chain X0 -> Y1 <- X1 -> Y2 <- ... with n_apex apex objects."""
    sizes = [rng.randint(1, max_size) for _ in range(2 * n_apex - 1)]
    maps = []
    for idx in range(2 * (n_apex - 1)):
        dom = sizes[idx] if idx % 2 == 0 else sizes[idx + 1]
        cod = sizes[idx + 1] if idx % 2 == 0 else sizes[idx]
        maps.append(rand_finfun(rng, dom, cod))
    return maps


# -- block-structured cocommutative coalgebras -----------------------------------
#
# A block layout is a tuple of "g" (one group-like basis vector) and "p"
# (a primitive pair g, x).  Every such coalgebra is cocommutative, and block
# layouts induce easy-to-enumerate comonoid morphisms between them.


def block_coalgebra(field, blocks) -> Coalgebra:
    pieces = [grouplike(field, 1) if b == "g" else primitive_block(field) for b in blocks]
    out = pieces[0]
    for p in pieces[1:]:
        out = direct_sum(out, p)
    return out


def block_offsets(blocks):
    offs, o = [], 0
    for b in blocks:
        offs.append(o)
        o += 1 if b == "g" else 2
    return offs, o


def grouplike_indices(blocks):
    """Indices of the group-like basis vectors of a block coalgebra."""
    offs, _ = block_offsets(blocks)
    return [o for o in offs]


def rand_blocks(rng, max_blocks=3):
    return tuple(rng.choice("gp") for _ in range(rng.randint(1, max_blocks)))


def rand_block_map(rng, field, src_blocks, tgt_blocks) -> CoalgMap:
    """A random comonoid morphism between block coalgebras: group-likes go to
    group-likes; a primitive pair goes to (g', λx') over a primitive target
    block, or to (h, 0)."""
    src = block_coalgebra(field, src_blocks)
    tgt = block_coalgebra(field, tgt_blocks)
    soffs, _ = block_offsets(src_blocks)
    toffs, _ = block_offsets(tgt_blocks)
    gl_targets = grouplike_indices(tgt_blocks)
    prim_targets = [toffs[i] for i, b in enumerate(tgt_blocks) if b == "p"]
    rows = [[field.zero] * src.dim for _ in range(tgt.dim)]
    for i, b in enumerate(src_blocks):
        o = soffs[i]
        if b == "g":
            rows[rng.choice(gl_targets)][o] = field.one
        else:
            if prim_targets and rng.random() < 0.7:
                t = rng.choice(prim_targets)
                rows[t][o] = field.one
                lam = rand_scalar(rng, field)
                if lam:
                    rows[t + 1][o + 1] = lam
            else:
                rows[rng.choice(gl_targets)][o] = field.one
    return CoalgMap(src, tgt, Matrix(field, rows, tgt.dim, src.dim))


def rand_cocommutative(rng, field, max_blocks=3):
    return block_coalgebra(field, rand_blocks(rng, max_blocks))


def rand_raw_coalgebra(rng, field, n) -> Coalgebra:
    """A sparse random δ and ε: in general neither coassociative nor counital,
    and sparse enough that equalizers on it are often nonzero."""
    return Coalgebra(n, field, delta=rand_sparse_matrix(rng, field, n * n, n, 0.25),
                     epsilon=rand_sparse_matrix(rng, field, 1, n, 0.6))


def random_basis(rng, field, n) -> Matrix:
    """A random invertible n x n matrix."""
    while True:
        pm = rand_matrix(rng, field, n, n)
        if len(pm.rref()[1]) == n:
            return pm


def rebased(c: Coalgebra, pm: Matrix) -> Coalgebra:
    """c in the basis of the columns of pm: δ' = (P⁻¹⊗P⁻¹)∘δ∘P, ε' = ε∘P."""
    pinv = solve(pm, Matrix.identity(c.field, c.dim))
    return Coalgebra(c.dim, c.field, delta=kron_apply(pinv, pinv, c.delta @ pm),
                     epsilon=c.epsilon @ pm)


def rebased_map(f: CoalgMap, p_src: Matrix, p_tgt: Matrix) -> CoalgMap:
    """f between the copies of its ends rebased by p_src and p_tgt:
    P_tgt⁻¹∘f∘P_src."""
    pinv = solve(p_tgt, Matrix.identity(f.tgt.field, f.tgt.dim))
    return CoalgMap(rebased(f.src, p_src), rebased(f.tgt, p_tgt), pinv @ f.mat @ p_src)


def mutate_one_entry(rng, field, mat: Matrix) -> Matrix:
    """Flip one entry to a different value (never a no-op)."""
    rows = dense(mat)
    i = rng.randrange(mat.rows)
    j = rng.randrange(mat.cols)
    old = rows[i][j]
    while True:
        new = rand_scalar(rng, field, -2, 2)
        if new != old:
            break
    rows[i][j] = new
    return Matrix(field, rows, mat.rows, mat.cols)



# -- divided-power coalgebras ------------------------------------------------------


def divided_power(field, m) -> Coalgebra:
    """D_m = (k[x]/xᵐ)*: δ(d_n) = Σ_{i+j=n} d_i⊗d_j, ε(d_n) = [n = 0]."""
    cols = [{i * m + (n - i): field.one for i in range(n + 1)} for n in range(m)]
    eps = mat(field, [[1] + [0] * (m - 1)])
    return Coalgebra(m, field, delta=Matrix.from_cols(field, m * m, cols), epsilon=eps)


def divided_power_bialgebra(field, m) -> MonoidObj:
    """D_m with unit d_0 and m(d_i⊗d_j) = C(i+j, i)·d_{i+j}, or 0 when
    i + j ≥ m, as a monoid in coalgebras; a bialgebra exactly when that
    truncation is a coalgebra map (by Kummer's theorem, when m is a power of
    the characteristic, and over Q only for m = 1)."""
    base, carrier = CoalgCategory(field), divided_power(field, m)
    cols = [{i + j: x} if i + j < m and (x := field.of(math.comb(i + j, i))) else {}
            for i in range(m) for j in range(m)]
    mul = CoalgMap(base.tensor_obj(carrier, carrier), carrier, Matrix.from_cols(field, m, cols))
    unit = CoalgMap(base.unit_obj(), carrier, Matrix.from_cols(field, m, [{0: field.one}]))
    return MonoidObj(base, carrier, mul, unit)


def taft(n, q, p) -> MonoidObj:
    """The Taft algebra T_n(q) over F_p as a monoid in coalgebras, on the
    basis g^i x^j at index i·n + j (0 ≤ i, j < n, exponents of g mod n):
    g^i x^j · g^k x^l = q^{jk} g^{i+k} x^{j+l}, or 0 when j + l ≥ n, with
    unit g^0 x^0, δ(g^i x^j) = Σ_k [j choose k]_q g^{i+k} x^{j-k} ⊗ g^i x^k
    and ε(g^i x^j) = [j = 0].  A bialgebra when q has order n (Taft 1971;
    n = 2, q = -1 is Sweedler's H_4); not cocommutative for n > 1."""
    field, d = GF(p), n * n
    binom = [[1]]  # the Gaussian binomials [j choose k]_q, by the q-Pascal rule
    for j in range(1, n):
        prev = binom[-1] + [0]
        binom.append([1] + [(prev[k - 1] + pow(q, k, p) * prev[k]) % p for k in range(1, j + 1)])

    def at(i, j):
        return i % n * n + j

    delta = [{at(i + k, j - k) * d + at(i, k): binom[j][k] for k in range(j + 1) if binom[j][k]}
             for i in range(n) for j in range(n)]
    eps = [{0: field.one} if j == 0 else {} for i in range(n) for j in range(n)]
    carrier = Coalgebra(d, field, delta=Matrix.from_cols(field, d * d, delta),
                        epsilon=Matrix.from_cols(field, 1, eps))
    mul = [{at(i + k, j + l): c} if j + l < n and (c := pow(q, j * k, p)) else {}
           for i in range(n) for j in range(n) for k in range(n) for l in range(n)]
    base = CoalgCategory(field)
    m = CoalgMap(base.tensor_obj(carrier, carrier), carrier, Matrix.from_cols(field, d, mul))
    u = CoalgMap(base.unit_obj(), carrier, Matrix.from_cols(field, d, [{0: field.one}]))
    return MonoidObj(base, carrier, m, u)


def substitution_dual(src: Coalgebra, tgt: Coalgebra, poly) -> CoalgMap:
    """The coalgebra map D_a -> D_b dual to the algebra map k[z]/zᵇ -> k[x]/xᵃ,
    z ↦ p(x) = Σ poly[i]·xⁱ, which is well defined when ord p ≥ ⌈a/b⌉: the
    entry (k, n) is the coefficient of xⁿ in p(x)ᵏ."""
    field, a = src.field, src.dim
    p = [field.of(c) for c in poly[:a]] + [field.zero] * (a - len(poly))
    rows, power = [], [field.one] + [field.zero] * (a - 1)
    for _ in range(tgt.dim):
        rows.append(power)
        power = [
            field.normalize(sum((power[i] * p[n - i] for i in range(n + 1)), field.zero))
            for n in range(a)
        ]
    return CoalgMap(src, tgt, Matrix(field, rows, tgt.dim, a))


def rand_substitution_poly(rng, field, a, b):
    """Coefficients of a random p with ord p ≥ ⌈a/b⌉ and deg p < a."""
    order = -(-a // b)
    return [0] * order + [rand_scalar(rng, field) for _ in range(order, a)]

# -- matrix coalgebras ------------------------------------------------------------


def matrix_coalgebra(field, n) -> Coalgebra:
    """M_nᶜ on the basis e_ij (index i·n + j): δ(e_ij) = Σ_k e_ik⊗e_kj,
    ε(e_ij) = [i = j]."""
    d = n * n
    cols = [
        {(i * n + k) * d + k * n + j: field.one for k in range(n)}
        for i in range(n)
        for j in range(n)
    ]
    eps = mat(field, [[int(i == j) for i in range(n) for j in range(n)]])
    return Coalgebra(d, field, delta=Matrix.from_cols(field, d * d, cols), epsilon=eps)


def block_inclusion_dual(src: Coalgebra, tgt: Coalgebra) -> CoalgMap:
    """M_nᶜ -> M_mᶜ dual to the algebra map M_m -> M_n, E_kl ↦ E_kl⊗I_{n/m}:
    e_{(k,a),(l,b)} ↦ [a = b]·e_kl, with (k, a) the index k·(n/m) + a."""
    field, n, m = src.field, math.isqrt(src.dim), math.isqrt(tgt.dim)
    r = n // m
    cols = []
    for row in range(n):
        for col in range(n):
            (k, a), (l, b) = divmod(row, r), divmod(col, r)
            cols.append({k * m + l: field.one} if a == b else {})
    return CoalgMap(src, tgt, Matrix.from_cols(field, tgt.dim, cols))


# -- the codiscrete relative category ----------------------------------------------


def codiscrete_relcat(b: Coalgebra) -> RelativeCategory:
    """The codiscrete relative category on B: A = B⊗B, s = ε⊗1, t = 1⊗ε,
    i = δ and d = (1⊗ε⊗ε⊗1)∘j, j the inclusion of the pullback of (s, t);
    on k[X] the pairs (x, y), composed as (x, y)∘(y, z) = (x, z).  Raises
    LegsNotInClass when (s, t) is not in S."""
    base, fld, i_b = CoalgCategory(b.field), b.field, Matrix.identity(b.field, b.dim)
    a = tensor_coalgebra(b, b)
    s, t = CoalgMap(a, b, kron(b.epsilon, i_b)), CoalgMap(a, b, kron(i_b, b.epsilon))
    pb = relative_pullback(base, s, t)
    inner = kron(kron(i_b, kron(b.epsilon, b.epsilon)), i_b)
    d = CoalgMap(pb.apex, a, inner @ pb.payload.j.mat)
    return RelativeCategory(base, b, a, s, t, CoalgMap(b, a, b.delta), d, pb)


def bialgebra_relcat(mon: MonoidObj) -> RelativeCategory:
    """A monoid in coalgebras as a relative category over the unit k: s = t =
    ε, i = u, the pullback of (ε, ε), whose apex is A⊗A, and d =
    m∘(p_A⊗p_C)∘δ_P.  The check does not decide that d and u are coalgebra
    maps: with check_coalg_map on both, it holds exactly when mon is a
    bialgebra."""
    base, a = mon.base, mon.carrier
    k = base.unit_obj()
    eps = CoalgMap(a, k, a.epsilon)
    pb = relative_pullback(base, eps, eps)
    d = CoalgMap(pb.apex, a, mon.m.mat @ kron_apply(pb.p_a.mat, pb.p_c.mat, pb.apex.delta))
    return RelativeCategory(base, k, a, eps, eps, mon.u, d, pb)


# -- small groups and their algebras ----------------------------------------------


def group_c2():
    return [[0, 1], [1, 0]]


def group_c3():
    return [[(i + j) % 3 for j in range(3)] for i in range(3)]


def group_v4():
    # Klein four-group as bit-xor on {0,1,2,3}
    return [[i ^ j for j in range(4)] for i in range(4)]


GROUPS = {"C2": group_c2(), "C3": group_c3(), "V4": group_v4()}


def all_homs(table_g, table_h):
    """All monoid (hence group) homomorphisms between group tables."""
    n, m = len(table_g), len(table_h)
    out = []
    for f in itertools.product(range(m), repeat=n):
        if f[0] != 0:
            continue
        if all(f[table_g[a][b]] == table_h[f[a]][f[b]] for a in range(n) for b in range(n)):
            out.append(list(f))
    return out


def group_pullback(table_g, hom_gh, table_k, hom_kh):
    """The pullback group {(g, k) : φ(g) = ψ(k)} with lexicographic carrier,
    and its multiplication table."""
    pairs = [
        (g, k)
        for g in range(len(table_g))
        for k in range(len(table_k))
        if hom_gh[g] == hom_kh[k]
    ]
    idx = {p: i for i, p in enumerate(pairs)}
    table = [
        [idx[(table_g[a][c], table_k[b][d])] for (c, d) in pairs] for (a, b) in pairs
    ]
    return pairs, table


def group_algebra(field, table) -> MonoidObj:
    """The group algebra k[G] as a monoid in coalgebras (a bialgebra)."""
    n = len(table)
    base = CoalgCategory(field)
    carrier = grouplike(field, n)
    m_mat = Matrix.from_cols(field, n, [{table[g][h]: field.one} for g in range(n) for h in range(n)])
    u_mat = Matrix.from_cols(field, n, [{0: field.one}])
    m = CoalgMap(base.tensor_obj(carrier, carrier), carrier, m_mat)
    u = CoalgMap(base.unit_obj(), carrier, u_mat)
    return MonoidObj(base, carrier, m, u)


def group_algebra_hom(field, mon_src: MonoidObj, mon_tgt: MonoidObj, hom) -> MonoidMorphism:
    mat = Matrix.from_cols(field, mon_tgt.carrier.dim, [{h: field.one} for h in hom])
    return MonoidMorphism(
        mon_src, mon_tgt, CoalgMap(mon_src.carrier, mon_tgt.carrier, mat)
    )


# -- exhaustive small finite-set monoids -------------------------------------------


def all_monoids(n):
    """All labeled monoid structures (flat table, unit) on {0 .. n-1}."""
    out = []
    for table in itertools.product(range(n), repeat=n * n):
        unit = None
        for e in range(n):
            if all(table[e * n + a] == a and table[a * n + e] == a for a in range(n)):
                unit = e
                break
        if unit is None:
            continue
        if all(
            table[table[a * n + b] * n + c] == table[a * n + table[b * n + c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            out.append((table, unit))
    return out


def finset_monoid(table, unit, base) -> MonoidObj:
    n = int(len(table) ** 0.5)
    carrier = FinSetObj(n)
    m = FinFun(FinSetObj(n * n), carrier, table)
    u = FinFun(FinSetObj(1), carrier, (unit,))
    return MonoidObj(base, carrier, m, u)


def rng_for(name: str) -> random.Random:
    return random.Random(f"relspan::{name}")


# -- the small categories of the shipped relative-category fixtures --------------


def fixture_discrete(n: int) -> SmallCategory:
    """The discrete category on n objects."""
    return SmallCategory(
        n,
        n,
        tuple(range(n)),
        tuple(range(n)),
        tuple(range(n)),
        tuple(tuple(i if i == j else -1 for j in range(n)) for i in range(n)),
    )


def fixture_poset01() -> SmallCategory:
    """The poset 0 < 1 as a category: id0, id1 and one arrow 0 -> 1."""
    return SmallCategory(
        2,
        3,
        (0, 1, 0),
        (0, 1, 1),
        (0, 1),
        ((0, -1, -1), (-1, 1, 2), (2, -1, -1)),
    )


def fixture_one_object_group(table, unit=0) -> SmallCategory:
    """A one-object category from a group (or monoid) multiplication table."""
    m = len(table)
    return SmallCategory(
        1,
        m,
        (0,) * m,
        (0,) * m,
        (unit,),
        tuple(tuple(table[i][j] for j in range(m)) for i in range(m)),
    )


def fixture_z2() -> SmallCategory:
    return fixture_one_object_group([[0, 1], [1, 0]])


def fixture_groupoid5() -> SmallCategory:
    """A 5-arrow groupoid: the one-object groupoid on the cyclic group C5."""
    return fixture_one_object_group([[(i + j) % 5 for j in range(5)] for i in range(5)])
