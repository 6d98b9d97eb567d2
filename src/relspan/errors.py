"""Exception hierarchy shared by all modules."""


class RelspanError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(RelspanError):
    pass


class FieldMismatch(RelspanError):
    pass


class CodomainMismatch(RelspanError):
    pass


class CompositionMismatch(RelspanError):
    pass


class SquareDoesNotCommute(RelspanError):
    pass


class SpanNotInClass(RelspanError):
    pass


class LegsNotInClass(RelspanError):
    pass


class NotASection(RelspanError):
    pass


class NotADistLaw(RelspanError):
    pass


class NotInverse(RelspanError):
    pass


class CompatibilityFails(RelspanError):
    pass


class NotMonoidMorphisms(RelspanError):
    pass


class MissingPullback(RelspanError):
    pass


class NotACategory(RelspanError):
    pass


class BaseMismatch(RelspanError):
    pass


class InternalSolveFailure(RelspanError):
    """A solve the theory guarantees to succeed failed: library bug, not user error."""
