"""The one equation decider: every reported equation of morphisms is decided
by its base category's first_difference, once, through Report.equation."""

import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from gen import (
    fixture_groupoid5,
    fixture_poset01,
    fixture_z2,
    group_algebra,
    group_c3,
    rand_finfun,
    rng_for,
    taft,
)
from relspan import (
    FINSET,
    QQ,
    CoalgCategory,
    FinFun,
    FinSetCategory,
    FinSetObj,
    RelativeFunctor,
    check_coalg_map,
    check_monoid,
    check_relative_category,
    check_relative_functor,
    coherence_pentagon,
    coherence_triangle,
    finset_monoid_check,
    from_small_category,
    linearize_fun,
    linearize_relcat,
)
from relspan import cli, linalg
from relspan.errors import ShapeMismatch

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _spy_deciders(monkeypatch):
    """The first_difference calls of both bases from here on."""
    calls = []
    for base in (FinSetCategory, CoalgCategory):
        decide = base.first_difference

        def spy(self, lhs, rhs, decide=decide):
            calls.append(type(self).__name__)
            return decide(self, lhs, rhs)

        monkeypatch.setattr(base, "first_difference", spy)
    return calls


def _equations(rep, skip=()):
    """The checks of rep that are equations: not the class decisions named
    by a prefix in skip, nor a check skipped after an earlier failure."""
    return [c for c in rep.checks
            if not c.name.startswith(tuple(skip)) and not (c.witness or "").startswith("skipped")]


def test_every_reported_equation_makes_one_first_difference_call(monkeypatch):
    """check_monoid (on both bases, a bialgebra's coalgebra-map laws
    included), check_coalg_map, check_relative_category's (b)-(e) on a small
    category and its linearization, passing and failing, both with a
    skipped functor law and without, both coherence shapes on both bases
    and the pullback command's square each make exactly one call per
    reported equation, and none for anything else."""
    calls = _spy_deciders(monkeypatch)

    def count(make):
        calls.clear()
        return make(), len(calls)

    for mon in (group_algebra(QQ, group_c3()), taft(2, 2, 3)):
        rep, n = count(lambda: check_monoid(mon))
        assert n == len(rep.checks) == 7 and rep.ok
        rep, n = count(lambda: check_coalg_map(mon.m))
        assert n == len(rep.checks) == 2
    z3 = [(i + j) % 3 for i in range(3) for j in range(3)]
    rep, n = count(lambda: finset_monoid_check(FinSetObj(3), FinFun(FinSetObj(9), FinSetObj(3), z3), 0))
    assert n == 3 and len(rep.checks) == 2 and rep.ok
    bad = taft(2, 1, 3)  # q = 1 has order 1, not 2: not a bialgebra
    rep, n = count(lambda: check_monoid(bad))
    assert n == len(rep.checks) == 7 and not rep.ok

    for cat in (fixture_poset01(), fixture_groupoid5()):
        rc = from_small_category(cat)
        for x in (rc, linearize_relcat(rc, QQ)):
            rep, n = count(lambda: check_relative_category(x))
            assert rep.ok and n == len(_equations(rep, ["(a)"])) == 7
    for cat, want in ((fixture_poset01(), 4), (fixture_z2(), 7)):  # (c) fails, or (d) does
        rc = from_small_category(cat)
        constant = replace(rc, d=FinFun(rc.pb.apex, rc.a, (0,) * rc.pb.apex.size))
        rep, n = count(lambda: check_relative_category(constant))
        assert not rep.ok and n == len(_equations(rep, ["(a)"])) == want

    rc = from_small_category(fixture_poset01())
    for fun, want in ((RelativeFunctor(FINSET.identity(rc.b), FINSET.identity(rc.a)), 4),
                      (RelativeFunctor(FinFun(rc.b, rc.b, (0, 1)), FinFun(rc.a, rc.a, (0, 1, 0))), 3)):
        rep, n = count(lambda: check_relative_functor(fun, rc, rc))
        assert n == len(_equations(rep)) == want

    rng = rng_for("one-decider-coherence")
    f = rand_finfun(rng, 3, 2)
    g = rand_finfun(rng, 2, 2)
    chain = [rand_finfun(rng, 2, 2) for _ in range(6)]
    for base, lin in ((FINSET, lambda m: m), (CoalgCategory(QQ), lambda m: linearize_fun(m, QQ))):
        ok, n = count(lambda: coherence_triangle(base, lin(f), lin(g)))
        assert ok and n == 1
        ok, n = count(lambda: coherence_pentagon(base, *map(lin, chain)))
        assert ok and n == 1

    for flags in ([], ["--instance", "coalg"]):
        calls.clear()
        with redirect_stdout(io.StringIO()) as out:
            code = cli.main(["pullback", os.path.join(FIXTURES, "cospan_finset.json"), "--cospan", "cs", "--json",
                             *flags])
        checks = json.loads(out.getvalue())["checks"]
        assert code == 0 and "square commutes" in [c["name"] for c in checks] and len(calls) == 1


def test_the_walker_builds_no_column_dicts_of_a_table_matrix(monkeypatch):
    """On a linearized relative category every side of (b)-(e) is a product
    of row tables, and all seven are decided by the walker: the blocks it
    compares are compared as tables (Matrix.__eq__), so no table matrix
    makes its column dicts inside CoalgCategory.first_difference.  A
    compare of .columns would make them."""
    inside, made, entered = [], [], []
    decide, read = CoalgCategory.first_difference, linalg._TableMatrix.__getattr__

    def spy_decide(self, lhs, rhs):
        inside.append(True)
        entered.append(True)
        try:
            return decide(self, lhs, rhs)
        finally:
            inside.pop()

    def spy_read(self, name):
        if inside and name == "columns":
            made.append(self)
        return read(self, name)

    monkeypatch.setattr(CoalgCategory, "first_difference", spy_decide)
    monkeypatch.setattr(linalg._TableMatrix, "__getattr__", spy_read)
    for cat in (fixture_poset01(), fixture_groupoid5(), fixture_z2()):
        rep = check_relative_category(linearize_relcat(from_small_category(cat), QQ))
        assert rep.ok and len(rep.checks) == 9
    assert len(entered) == 21 and not made


def test_an_equation_whose_sides_have_other_ends_raises_shape_mismatch():
    """A relative-category or functor equation whose two sides have
    different domains or codomains raises ShapeMismatch, as a monoid
    equation does, where a failed check was reported before: an i out of
    another object than B, on both bases, and a functor whose b lands
    outside the target's B."""
    rc = from_small_category(fixture_poset01())
    i = FinFun(FinSetObj(3), rc.a, (0, 2, 2))
    for bad in (replace(rc, i=i), replace(linearize_relcat(rc, QQ), i=linearize_fun(i, QQ))):
        with pytest.raises(ShapeMismatch):
            check_relative_category(bad)
    fun = RelativeFunctor(FinFun(rc.b, FinSetObj(3), (0, 1)), FINSET.identity(rc.a))
    with pytest.raises(ShapeMismatch):
        check_relative_functor(fun, rc, rc)
