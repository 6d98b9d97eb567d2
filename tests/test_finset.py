"""Finite sets: pullbacks, universal factorization, monoid tables, linearization."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import FIELDS, dense, is_cocommutative, rand_finfun, rng_for
from relspan import (
    FINSET,
    QQ,
    FinFun,
    FinSetObj,
    check_coalg_map,
    check_coalgebra,
    finset_monoid_check,
    linearize_fun,
    linearize_obj,
)
from relspan import relpull
from relspan.finset import linearize_funs, pair_count, pullback, universal_factor
from relspan.errors import CodomainMismatch, CompositionMismatch, ShapeMismatch, SquareDoesNotCommute


def ffun(dom, cod, table):
    return FinFun(FinSetObj(dom), FinSetObj(cod), table)


def brute_pullback(f, g):
    """Independent enumeration of all matching pairs."""
    return [
        (a, c)
        for a in range(f.dom.size)
        for c in range(g.dom.size)
        if f.table[a] == g.table[c]
    ]


def test_pullback_over_singleton_is_product():
    f = ffun(2, 1, [0, 0])
    g = ffun(3, 1, [0, 0, 0])
    pb = pullback(f, g)
    assert pb.apex.size == 6
    assert list(pb.payload) == [(a, c) for a in range(2) for c in range(3)]


def test_pullback_of_identities_is_diagonal():
    i = FINSET.identity(FinSetObj(3))
    pb = pullback(i, i)
    assert list(pb.payload) == [(b, b) for b in range(3)]


def test_pullback_explicit_example():
    f = ffun(2, 2, [0, 1])
    g = ffun(3, 2, [0, 1, 0])
    pb = pullback(f, g)
    assert list(pb.payload) == [(0, 0), (0, 2), (1, 1)]
    assert list(pb.payload) == brute_pullback(f, g)
    assert FINSET.compose(f, pb.p_a) == FINSET.compose(g, pb.p_c)


def test_pullback_randomized_against_brute_force():
    rng = rng_for("finset-pb")
    for _ in range(50):
        f = rand_finfun(rng, rng.randint(0, 4), rng.randint(1, 3))
        g = rand_finfun(rng, rng.randint(0, 4), FINSET.cod(f).size)
        pb = pullback(f, g)
        assert list(pb.payload) == brute_pullback(f, g)
        # jointly injective pair map
        assert len(set(pb.payload)) == len(pb.payload)


def test_pullback_codomain_mismatch():
    """Checked in front of finset.pullback, by the class decision."""
    with pytest.raises(CodomainMismatch, match="cospan legs must share their codomain"):
        relpull.relative_pullback(FINSET, ffun(1, 1, [0]), ffun(1, 2, [0]))


def test_finset_category_refuses_or_declines_what_it_cannot_build():
    with pytest.raises(ShapeMismatch, match="table value 2 outside the codomain"):
        ffun(1, 2, [2])
    with pytest.raises(CodomainMismatch):
        FINSET.compose(ffun(1, 2, [0]), ffun(1, 3, [0]))
    assert FINSET.invert(ffun(2, 2, [0, 0])) is None
    assert FINSET.invert(ffun(1, 2, [0])) is None
    assert FINSET.invert(ffun(2, 2, [1, 0])) == ffun(2, 2, [1, 0])
    with pytest.raises(ShapeMismatch, match="wrong shape"):
        finset_monoid_check(FinSetObj(2), ffun(3, 2, [0, 0, 0]), 0)


def test_universal_factor_identity_on_projections():
    f = ffun(2, 2, [0, 1])
    g = ffun(3, 2, [0, 1, 0])
    pb = pullback(f, g)
    h = universal_factor(pb, pb.p_a, pb.p_c)
    assert h == FINSET.identity(pb.apex)


def test_universal_factor_singleton_and_empty():
    f = ffun(2, 2, [0, 1])
    g = ffun(3, 2, [0, 1, 0])
    pb = pullback(f, g)
    h = universal_factor(pb, ffun(1, 2, [0]), ffun(1, 3, [2]))
    assert h.table == (1,)  # the pair (0, 2) sits at index 1
    h0 = universal_factor(pb, ffun(0, 2, []), ffun(0, 3, []))
    assert h0.table == ()


def test_universal_factor_uniqueness_pointwise():
    rng = rng_for("finset-uf")
    for _ in range(25):
        f = rand_finfun(rng, 3, 2)
        g = rand_finfun(rng, 3, 2)
        pb = pullback(f, g)
        if pb.apex.size == 0:
            continue
        x = FinSetObj(2)
        h = FinFun(x, pb.apex, [rng.randrange(pb.apex.size) for _ in range(2)])
        a = FINSET.compose(pb.p_a, h)
        c = FINSET.compose(pb.p_c, h)
        back = universal_factor(pb, a, c)
        assert back == h  # any other filler would disagree with the pair map


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_pullback_universal_property(data):
    """Any map into the pullback is recovered from its projections."""
    nb = data.draw(st.integers(1, 3))
    na = data.draw(st.integers(0, 4))
    nc = data.draw(st.integers(0, 4))
    f = ffun(na, nb, [data.draw(st.integers(0, nb - 1)) for _ in range(na)])
    g = ffun(nc, nb, [data.draw(st.integers(0, nb - 1)) for _ in range(nc)])
    pb = pullback(f, g)
    assert FINSET.compose(f, pb.p_a) == FINSET.compose(g, pb.p_c)
    nx = data.draw(st.integers(0, 3)) if pb.apex.size else 0
    h = FinFun(
        FinSetObj(nx), pb.apex, [data.draw(st.integers(0, pb.apex.size - 1)) for _ in range(nx)]
    )
    a = FINSET.compose(pb.p_a, h)
    c = FINSET.compose(pb.p_c, h)
    assert universal_factor(pb, a, c) == h


def test_universal_factor_rejects_noncommuting_square():
    f = ffun(2, 2, [0, 1])
    g = ffun(2, 2, [0, 1])
    pb = pullback(f, g)
    with pytest.raises(SquareDoesNotCommute):
        universal_factor(pb, ffun(1, 2, [0]), ffun(1, 2, [1]))


def test_universal_factor_rejects_a_span_that_does_not_fit_the_cospan():
    """Checked in front of finset.universal_factor: the apex by the class
    decision, the ends by relpull."""
    f = ffun(2, 2, [0, 1])
    pb = pullback(f, f)
    with pytest.raises(CompositionMismatch, match="share their apex"):
        relpull.universal_factor(pb, ffun(1, 2, [0]), ffun(2, 2, [0, 1]))
    with pytest.raises(ShapeMismatch, match="do not match the pullback cospan"):
        relpull.universal_factor(pb, ffun(1, 3, [0]), ffun(1, 2, [0]))


def test_pullback_visits_only_matching_pairs():
    # two 10^4-element maps with disjoint images: 10^8 pairs, none matching
    n = 10**4
    f, g = ffun(n, 2, [0] * n), ffun(n, 2, [1] * n)
    start = time.process_time()
    pb = pullback(f, g)
    assert time.process_time() - start < 1.0
    assert pb.apex.size == 0 and pb.payload == ()


# -- monoid tables ----------------------------------------------------------------


def test_z2_monoid_table():
    m = ffun(4, 2, [0, 1, 1, 0])
    assert finset_monoid_check(FinSetObj(2), m, 0).ok


def test_singleton_monoid():
    assert finset_monoid_check(FinSetObj(1), ffun(1, 1, [0]), 0).ok


def test_corrupted_z2_table_fails_with_witness():
    m = ffun(4, 2, [0, 1, 0, 0])  # 1+0 = 0 breaks the unit law
    rep = finset_monoid_check(FinSetObj(2), m, 0)
    assert not rep.ok
    assert any(c.witness for c in rep.failures())


def test_monoid_witnesses_are_the_first_failures_in_lexicographic_order():
    """The associativity witness is the first triple (a,b,c), in
    lexicographic order, with (ab)c != a(bc), and the unit witness the first
    a with ua != a or au != a: on every table on two elements and on random
    ones on three, against a brute-force search, with every unit."""
    rng = rng_for("monoid-witnesses")
    tables = [(2, t) for t in itertools.product(range(2), repeat=4)]
    tables += [(3, [rng.randrange(3) for _ in range(9)]) for _ in range(150)]
    for n, table in tables:
        def mul(a, b):
            return table[a * n + b]

        bad = [f"({a},{b},{c})" for a, b, c in itertools.product(range(n), repeat=3)
               if mul(mul(a, b), c) != mul(a, mul(b, c))]
        for u in range(n):
            units = [str(a) for a in range(n) if mul(u, a) != a or mul(a, u) != a]
            rep = finset_monoid_check(FinSetObj(n), ffun(n * n, n, table), u)
            assert [(c.name, c.witness) for c in rep.checks] == [
                ("associativity", bad[0] if bad else None), ("two-sided unit", units[0] if units else None)]


# -- linearization ------------------------------------------------------------------


def test_linearize_singleton():
    for field in FIELDS:
        c = linearize_obj(FinSetObj(1), field)
        assert dense(c.delta) == [[field.one]]
        assert dense(c.epsilon) == [[field.one]]


def test_linearize_two_points_delta_columns():
    for field in FIELDS:
        c = linearize_obj(FinSetObj(2), field)
        assert c.delta.columns[0] == {0: field.one}
        assert c.delta.columns[1] == {3: field.one}


def test_linearize_fun_stores_one_nonzero_per_element():
    """|dom| = |cod| = 10⁵: the matrix holds 10⁵ entries, not 10¹⁰ cells."""
    n = 10**5
    f = FinFun(FinSetObj(n), FinSetObj(n), [(7 * x + 3) % n for x in range(n)])
    mat = linearize_fun(f, QQ).mat
    assert (mat.rows, mat.cols) == (n, n)
    assert sum(len(col) for col in mat.columns) == n
    assert mat.columns[1] == {10: QQ.one}


def test_linearize_identity_is_identity_matrix():
    for field in FIELDS:
        f = linearize_fun(FINSET.identity(FinSetObj(3)), field)
        assert f.mat == __import__("relspan").Matrix.identity(field, 3)


def test_linearize_outputs_are_coalgebras_and_cocommutative():
    rng = rng_for("finset-lin")
    for _ in range(10):
        for field in FIELDS:
            x = FinSetObj(rng.randint(0, 4))
            c = linearize_obj(x, field)
            assert check_coalgebra(c).ok
            assert is_cocommutative(c)


def test_linearize_fun_is_functorial():
    rng = rng_for("finset-fun")
    for _ in range(20):
        for field in FIELDS:
            f = rand_finfun(rng, rng.randint(1, 4), rng.randint(1, 4))
            g = rand_finfun(rng, f.cod.size, rng.randint(1, 4))
            lhs = linearize_fun(FINSET.compose(g, f), field)
            lf, lg = linearize_fun(f, field), linearize_fun(g, field)
            assert lhs.mat == lg.mat @ lf.mat
            assert check_coalg_map(lf).ok and check_coalg_map(lg).ok


def test_linearize_funs_shares_one_object_per_set():
    """Maps linearized in one call share one k[X] for each set size: the ends
    two maps of a chain have in common are one object, and so are two sets
    of one size; a later call builds its own."""
    for field in FIELDS:
        f, g, h = ffun(2, 3, (0, 2)), ffun(4, 3, (1, 1, 0, 2)), ffun(4, 2, (1, 0, 0, 1))
        lf, lg, lh = linearize_funs([f, g, h], field)
        assert lf.tgt is lg.tgt and lg.src is lh.src
        assert lf.src is lh.tgt
        assert lf.tgt is not lg.src
        assert [m.mat for m in (lf, lg, lh)] == [linearize_fun(m, field).mat for m in (f, g, h)]
        assert linearize_funs([f], field)[0].src is not lf.src
        assert linearize_fun(f, field).src == lf.src


def test_pair_count_is_the_number_of_matching_pairs():
    """On a zigzag of one to four cospans, pair_count is the number of
    matching chains, found by brute force, and the size of the iterated
    pullback built left to right: for one cospan, its matching pairs."""
    rng = rng_for("finset-chain-count")
    for _ in range(60):
        m = rng.randint(1, 4)
        xs, ys = [rng.randint(0, 4) for _ in range(m + 1)], [rng.randint(1, 3) for _ in range(m)]
        maps = [rand_finfun(rng, xs[i + side], ys[i]) for i in range(m) for side in (0, 1)]
        chains = [c for c in itertools.product(*map(range, xs))
                  if all(maps[2 * i](c[i]) == maps[2 * i + 1](c[i + 1]) for i in range(m))]
        assert pair_count(*(f.table for f in maps)) == len(chains)
        pb = pullback(maps[0], maps[1])
        for i in range(1, m):
            pb = pullback(FINSET.compose(maps[2 * i], pb.p_c), maps[2 * i + 1])
        assert pb.apex.size == len(chains)


# -- refusals --------------------------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda: FinSetObj(-1), ShapeMismatch, "negative set size"),
    (lambda: ffun(2, 2, [0]), ShapeMismatch, "table length does not match the domain size"),
    (lambda: ffun(2, 2, [0, 2]), ShapeMismatch, "table value 2 outside the codomain"),
    (lambda: FINSET.compose(ffun(2, 2, [0, 1]), ffun(2, 3, [0, 1])), CodomainMismatch,
     "compose: cod(f) != dom(g)"),
], ids=["negative-size", "short-table", "value-outside-the-codomain", "unmatched-composite"])
def test_finite_set_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
