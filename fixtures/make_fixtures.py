"""Regenerate the shipped JSON fixtures (run from the repository root)."""

import json
import os
import random
import sys
from fractions import Fraction

from relspan import (
    GF,
    QQ,
    Coalgebra,
    CoalgMap,
    Matrix,
    grouplike,
    kron,
    linearize_fun,
    path_coalgebra,
    solve,
)
from relspan.finset import FINSET, FinFun, FinSetObj
from relspan.jsonio import field_to_json, matrix_to_json
from relspan.relcat import from_small_category

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "tests"))

from gen import (  # noqa: E402
    block_coalgebra,
    fixture_discrete,
    fixture_groupoid5,
    fixture_poset01,
    fixture_z2,
    mat,
    rand_block_map,
)


def write(name, doc):
    with open(os.path.join(HERE, name), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def coalgebra_to_json(c):
    return {
        "kind": "coalgebra",
        "field": field_to_json(c.field),
        "dim": c.dim,
        "delta": matrix_to_json(c.delta),
        "epsilon": matrix_to_json(c.epsilon),
    }


def small_category_to_json(cat):
    return {
        "kind": "small_category",
        "objects": cat.n_obj,
        "arrows": cat.n_arr,
        "src": list(cat.src),
        "tgt": list(cat.tgt),
        "id": list(cat.ids),
        "comp": [list(row) for row in cat.comp],
    }


def coalg_map_json(src, tgt, mat):
    return {"kind": "coalgebra_map", "src": src, "tgt": tgt, "matrix": matrix_to_json(mat)}


def rebased(c, pm):
    """c re-expressed in the basis of the columns of the invertible pm:
    δ' = (P⁻¹⊗P⁻¹)∘δ∘P and ε' = ε∘P.  Returns the coalgebra and P⁻¹."""
    pinv = solve(pm, Matrix.identity(c.field, c.dim))
    delta = kron(pinv, pinv) @ c.delta @ pm
    return Coalgebra(c.dim, c.field, delta=delta, epsilon=c.epsilon @ pm), pinv


def divided_power(fld, m):
    """D_m = (k[x]/xᵐ)*: δ(d_n) = Σ_{i+j=n} d_i⊗d_j, ε(d_n) = [n = 0]."""
    cols = [{i * m + (n - i): fld.one for i in range(n + 1)} for n in range(m)]
    eps = mat(fld, [[1] + [0] * (m - 1)])
    return Coalgebra(m, fld, delta=Matrix.from_cols(fld, m * m, cols), epsilon=eps)


def substitution_dual(src, tgt, p):
    """The map D_a -> D_b dual to z ↦ p(x), for p with a coefficients and
    ord p ≥ ⌈a/b⌉: entry (k, n) is the coefficient of xⁿ in p(x)ᵏ."""
    a = src.dim
    rows, power = [], [1] + [0] * (a - 1)
    for _ in range(tgt.dim):
        rows.append(power)
        power = [sum(power[i] * p[n - i] for i in range(n + 1)) for n in range(a)]
    return CoalgMap(src, tgt, mat(src.field, rows))


def random_basis(rng, fld, n):
    """An invertible n x n matrix with every entry nonzero."""
    while True:
        pm = mat(fld, [[rng.randrange(1, fld.p) for _ in range(n)] for _ in range(n)])
        if len(pm.rref()[1]) == n:
            return pm


def main():
    # coalgebras: valid group-like, a corrupted copy, the non-cocommutative path
    k2 = grouplike(QQ, 2)
    broken = coalgebra_to_json(k2)
    broken["delta"]["entries"][0][1] = "1"  # e1 now also hits e0⊗e0
    write(
        "coalgebras.json",
        {
            "k2": coalgebra_to_json(k2),
            "k2_broken": broken,
            "path": coalgebra_to_json(path_coalgebra(QQ)),
        },
    )

    # finite-set cospan
    write(
        "cospan_finset.json",
        {
            "f": {"kind": "finset_fun", "fun": {"dom": 2, "cod": 2, "table": [0, 1]}},
            "g": {"kind": "finset_fun", "fun": {"dom": 3, "cod": 2, "table": [0, 1, 0]}},
            "cs": {"kind": "cospan", "left": "f", "right": "g"},
        },
    )

    # coalgebra cospan over F5 (group-like) plus a class-violating one
    f5 = GF(5)
    f0 = FinFun(FinSetObj(3), FinSetObj(2), (0, 1, 0))
    g0 = FinFun(FinSetObj(2), FinSetObj(2), (1, 0))
    f = linearize_fun(f0, f5)
    g = linearize_fun(g0, f5)
    p = path_coalgebra(f5)
    write(
        "cospan_coalg.json",
        {
            "A": coalgebra_to_json(f.src),
            "B": coalgebra_to_json(f.tgt),
            "C": coalgebra_to_json(g.src),
            "P": coalgebra_to_json(p),
            "f": coalg_map_json("A", "B", f.mat),
            "g": coalg_map_json("C", "B", g.mat),
            "idp": coalg_map_json("P", "P", __import__("relspan").Matrix.identity(f5, 3)),
            "cs": {"kind": "cospan", "left": "f", "right": "g"},
            "bad": {"kind": "cospan", "left": "idp", "right": "idp"},
        },
    )

    # the same kind of group-like cospan over F11 in random bases: every δ
    # column is dense
    f11 = GF(11)
    rng = random.Random(11)
    f = linearize_fun(FinFun(FinSetObj(3), FinSetObj(2), (0, 1, 0)), f11)
    g = linearize_fun(FinFun(FinSetObj(3), FinSetObj(2), (1, 0, 1)), f11)
    pa, pb, pc = (random_basis(rng, f11, n) for n in (3, 2, 3))
    a, _ = rebased(f.src, pa)
    b, pb_inv = rebased(f.tgt, pb)
    c, _ = rebased(g.src, pc)
    f = CoalgMap(a, b, pb_inv @ f.mat @ pa)
    g = CoalgMap(c, b, pb_inv @ g.mat @ pc)
    write(
        "cospan_dense.json",
        {
            "A": coalgebra_to_json(a),
            "B": coalgebra_to_json(b),
            "C": coalgebra_to_json(c),
            "f": coalg_map_json("A", "B", f.mat),
            "g": coalg_map_json("C", "B", g.mat),
            "cs": {"kind": "cospan", "left": "f", "right": "g"},
        },
    )

    # a cospan of divided-power coalgebras over Q, dual to z ↦ x² + 3x³ − x⁴
    # and z ↦ 2y² + y³/2: cocommutative and not group-like
    a, b, c = divided_power(QQ, 5), divided_power(QQ, 3), divided_power(QQ, 4)
    f = substitution_dual(a, b, [0, 0, 1, 3, -1])
    g = substitution_dual(c, b, [0, 0, 2, Fraction(1, 2)])
    write(
        "cospan_divided.json",
        {
            "A": coalgebra_to_json(a),
            "B": coalgebra_to_json(b),
            "C": coalgebra_to_json(c),
            "f": coalg_map_json("A", "B", f.mat),
            "g": coalg_map_json("C", "B", g.mat),
            "cs": {"kind": "cospan", "left": "f", "right": "g"},
        },
    )

    # a cospan of direct sums of group-like and primitive blocks over Q: B
    # falls apart into three parts, two of which meet both A and C, and a
    # primitive of A and one of C go to 0
    rng = random.Random(29)
    b_blocks = ("g", "p", "g")
    f = rand_block_map(rng, QQ, ("p", "g", "p"), b_blocks)
    g = rand_block_map(rng, QQ, ("p", "p", "g"), b_blocks)
    write(
        "cospan_blocks.json",
        {
            "A": coalgebra_to_json(f.src),
            "B": coalgebra_to_json(block_coalgebra(QQ, b_blocks)),
            "C": coalgebra_to_json(g.src),
            "f": coalg_map_json("A", "B", f.mat),
            "g": coalg_map_json("C", "B", g.mat),
            "cs": {"kind": "cospan", "left": "f", "right": "g"},
        },
    )

    # chains for the coherence command
    write(
        "chains.json",
        {
            "tri": {
                "kind": "chain",
                "instance": "finset",
                "sizes": [3, 2, 4],
                "maps": [[0, 1, 0], [1, 0, 1, 1]],
            },
            "pent": {
                "kind": "chain",
                "instance": "finset",
                "sizes": [2, 2, 3, 2, 3, 2, 2],
                "maps": [
                    [0, 1],
                    [0, 1, 1],
                    [1, 0, 1],
                    [0, 1, 0],
                    [1, 0, 0],
                    [0, 0],
                ],
            },
        },
    )

    # relative categories: the four shipped fixtures plus a functor between two
    cats = {
        "discrete3": fixture_discrete(3),
        "poset01": fixture_poset01(),
        "z2": fixture_z2(),
        "groupoid5": fixture_groupoid5(),
    }
    doc = {name: small_category_to_json(cat) for name, cat in cats.items()}
    doc["collapse"] = {
        "kind": "functor",
        "src": "poset01",
        "tgt": "discrete3",
        "b": [0, 0],
        "a": [0, 0, 0],
    }
    doc["bad_functor"] = {
        "kind": "functor",
        "src": "z2",
        "tgt": "z2",
        "b": [0],
        "a": [1, 0],  # swaps the identity with the flip: unit law breaks
    }
    write("relcats.json", doc)

    # single-axiom violations as raw relative-category declarations
    rc = from_small_category(fixture_poset01())
    pairs = rc.pb.payload
    d = list(rc.d.table)
    d_bad_c = list(d)
    d_bad_c[pairs.index((1, 2))] = 0
    z5 = from_small_category(fixture_groupoid5())
    z5_pairs = z5.pb.payload
    d_z5 = list(z5.d.table)
    d_bad_unit = list(d_z5)
    d_bad_unit[z5_pairs.index((0, 1))] = 2
    nonassoc = [[0, 1, 2], [1, 2, 2], [2, 2, 1]]
    base = {"kind": "relative_category", "instance": "finset"}
    write(
        "relcat_violations.json",
        {
            "bad_section": {
                **base,
                "objects": 2,
                "arrows": 3,
                "s": list(rc.s.table),
                "t": list(rc.t.table),
                "i": [0, 0],
                "d": d,
            },
            "bad_composition": {
                **base,
                "objects": 2,
                "arrows": 3,
                "s": list(rc.s.table),
                "t": list(rc.t.table),
                "i": list(rc.i.table),
                "d": d_bad_c,
            },
            "bad_unit_law": {
                **base,
                "objects": 1,
                "arrows": 5,
                "s": list(z5.s.table),
                "t": list(z5.t.table),
                "i": list(z5.i.table),
                "d": d_bad_unit,
            },
            "bad_associativity": {
                **base,
                "objects": 1,
                "arrows": 3,
                "s": [0, 0, 0],
                "t": [0, 0, 0],
                "i": [0],
                "d": [nonassoc[x][y] for x in range(3) for y in range(3)],
            },
        },
    )

    # monoids: Z/2 as a table and the group algebra of C2 as a bialgebra
    kc2 = coalgebra_to_json(grouplike(QQ, 2))
    kc2["kind"] = "bialgebra"
    m_mat = Matrix.from_cols(QQ, 2, [{a ^ b: QQ.one} for a in range(2) for b in range(2)])
    u_mat = Matrix.from_cols(QQ, 2, [{0: QQ.one}])
    kc2["m"] = matrix_to_json(m_mat)
    kc2["u"] = matrix_to_json(u_mat)
    write(
        "monoids.json",
        {
            "z2": {"kind": "finset_monoid", "size": 2, "table": [0, 1, 1, 0], "unit": 0},
            "bad_z2": {"kind": "finset_monoid", "size": 2, "table": [0, 1, 0, 0], "unit": 0},
            "kc2": kc2,
        },
    )


if __name__ == "__main__":
    main()
