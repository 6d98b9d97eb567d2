"""Language-neutral categorical interfaces.

A BaseCategory bundles the operations a symmetric monoidal category instance
must provide (identity, composition, monoidal product, unit, symmetry) over
opaque object/morphism types, and its own relative pullback, pullback filler
and extra monoid axioms, so generic code never asks which instance it is on.
Each instance builds its pullbacks as one RelPullback record, whose payload
holds only the instance's own filler data.
An instance is the pair (C, S) of a relative setting: it decides membership in
its own admissible class of spans through failure_witness and contains.
Admissibility of a class is not decidable in general, so this module only
exposes instance-level checks of (POST), (PRE), (UNITAL), (MULTIPLICATIVE) and
the split-epimorphism implication suite; the shipped classes are closed by
theorems, making every instance check a test of the implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from .errors import BaseMismatch, CodomainMismatch, CompositionMismatch, NotASection


# -- reports ----------------------------------------------------------------


@dataclass
class Check:
    name: str
    ok: bool
    witness: str | None = None

    def as_dict(self):
        d = {"name": self.name, "status": "pass" if self.ok else "fail"}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class Report:
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name, ok, witness=None):
        self.checks.append(Check(name, ok, witness if not ok else None))

    def extend(self, other: "Report", prefix: str = ""):
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.ok, c.witness))

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __repr__(self):
        status = "ok" if self.ok else "FAIL"
        return f"Report({status}, {len(self.checks)} checks)"


# -- spans and relative pullbacks ---------------------------------------------


@dataclass(frozen=True)
class Span:
    """A pair of morphisms out of a common apex: X <-left- A -right-> Y."""

    left: object
    right: object


@dataclass
class RelPullback:
    """The relative pullback apex of A -f-> B <-g- C with projections p_A,
    p_C, its joint-mono certificate and the payload its base category
    factors fillers through (matching pairs over finite sets, the
    equalizer over coalgebras)."""

    base: BaseCategory
    f: object
    g: object
    apex: object
    p_a: object
    p_c: object
    jointly_monic: bool
    payload: object


# -- the base-category interface ----------------------------------------------


class BaseCategory(ABC):
    """Symmetric monoidal category instance over opaque objects/morphisms,
    together with the one admissible class of spans it decides itself."""

    name: str

    @abstractmethod
    def identity(self, obj): ...

    @abstractmethod
    def compose(self, g, f):
        """g∘f (f first)."""

    @abstractmethod
    def dom(self, f): ...

    @abstractmethod
    def cod(self, f): ...

    def equal_mor(self, f, g) -> bool:
        """f == g; kept only because the benchmark under bench/ calls it."""
        return f == g

    @abstractmethod
    def tensor_obj(self, x, y): ...

    @abstractmethod
    def tensor_mor(self, f, g): ...

    @abstractmethod
    def unit_obj(self): ...

    @abstractmethod
    def symmetry(self, x, y):
        """The braiding c: x⊗y -> y⊗x (an involution in both instances)."""

    @abstractmethod
    def is_epi(self, f) -> bool: ...

    def invert(self, f):
        """Two-sided inverse of f when it exists, else None."""
        raise NotImplementedError

    @abstractmethod
    def failure_witness(self, span: Span) -> str | None:
        """None if the span is in the admissible class, else a human-readable
        witness."""

    def contains(self, span: Span) -> bool:
        return self.failure_witness(span) is None

    @abstractmethod
    def pullback(self, f, g) -> RelPullback:
        """The relative pullback of a cospan with legs in the class (checked
        by the caller)."""

    @abstractmethod
    def factor(self, pb: RelPullback, a, c):
        """The h with p_A∘h = a, p_C∘h = c for a class-member span (checked by
        the caller)."""

    def monoid_checks(self, mon) -> Report:
        """Monoid axioms beyond associativity and the unit laws (none here)."""
        return Report()

    def linearize(self, maps, fld) -> list:
        """The group-like linearizations of maps over fld (finite sets only)."""
        raise BaseMismatch("can only linearize a finite-set relative category")

    def check_span(self, span: Span):
        if self.dom(span.left) != self.dom(span.right):
            raise CompositionMismatch("span legs must share their apex")


# -- instance-level admissibility checks ---------------------------------------


def legs_in_class(base: BaseCategory, f, g) -> bool:
    """Both identity-padded spans of the cospan A -f-> B <-g- C are members."""
    if base.cod(f) != base.cod(g):
        raise CodomainMismatch("cospan legs must share their codomain")
    return base.contains(Span(base.identity(base.dom(f)), f)) and base.contains(
        Span(g, base.identity(base.dom(g)))
    )


def check_post_instance(base: BaseCategory, span: Span, f2, g2) -> bool:
    """Single-instance witness of (POST): (f2∘f, A, g2∘g) is a member too."""
    base.check_span(span)
    if base.dom(f2) != base.cod(span.left):
        raise CompositionMismatch("f2 does not postcompose with the left leg")
    if base.dom(g2) != base.cod(span.right):
        raise CompositionMismatch("g2 does not postcompose with the right leg")
    return base.contains(Span(base.compose(f2, span.left), base.compose(g2, span.right)))


def check_pre_instance(base: BaseCategory, span: Span, h) -> bool:
    """Single-instance witness of (PRE): both legs precomposed with h: B -> A."""
    base.check_span(span)
    if base.cod(h) != base.dom(span.left):
        raise CompositionMismatch("h does not precompose with the span")
    return base.contains(Span(base.compose(span.left, h), base.compose(span.right, h)))


def check_monoidal_instance(base: BaseCategory, span1: Span, span2: Span) -> bool:
    """Single-instance witness of (MULTIPLICATIVE): the product span is a member."""
    base.check_span(span1)
    base.check_span(span2)
    return base.contains(
        Span(base.tensor_mor(span1.left, span2.left), base.tensor_mor(span1.right, span2.right))
    )


def check_unital_instance(base: BaseCategory, f, g) -> bool:
    """Single-instance witness of (UNITAL): a span with apex I is a member."""
    unit = base.unit_obj()
    if base.dom(f) != unit or base.dom(g) != unit:
        raise CompositionMismatch("unitality check needs legs out of the monoidal unit")
    return base.contains(Span(f, g))


def split_epi_class_facts(base: BaseCategory, i, s, probes=()) -> Report:
    """Implication suite for a split epimorphism s: A -> B with section i: B -> A.

    Checks, on the supplied probe spans out of B, the cycle
    (a) => (b) => (c) => (a) where
      (a) the identity span on B is a member,
      (b) every span out of B is a member (witnessed on the probes),
      (c) the span (A <-i- B === B) is a member,
    and part (2): if (A === A -s-> B) is a member then (c) holds.
    """
    b_obj = base.dom(i)
    a_obj = base.cod(i)
    if base.compose(s, i) != base.identity(b_obj):
        raise NotASection("s∘i is not the identity")

    id_b = base.identity(b_obj)
    a_holds = base.contains(Span(id_b, id_b))
    c_holds = base.contains(Span(i, id_b))
    part2_premise = base.contains(Span(base.identity(a_obj), s))

    rep = Report()
    rep.add("(a) identity span on B in class", a_holds)
    for k, (f, g) in enumerate(probes):
        if base.dom(f) != b_obj or base.dom(g) != b_obj:
            raise CompositionMismatch("probe spans must have apex B")
        member = base.contains(Span(f, g))
        rep.add(
            f"(a)=>(b) probe {k}",
            (not a_holds) or member,
            f"probe span {k} escaped the class although (a) holds",
        )
    rep.add(
        "(b)=>(c) on the (i, id) instance",
        (not a_holds) or c_holds,
        "(c) fails although every span out of B should be a member",
    )
    rep.add("(c)=>(a) via s∘i = id", (not c_holds) or a_holds, "(a) fails although (c) holds")
    rep.add(
        "(2) (A === A -s-> B) in class => (c)",
        (not part2_premise) or c_holds,
        "(c) fails although the part-(2) premise holds",
    )
    return rep
