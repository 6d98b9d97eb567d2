"""Exact scalar arithmetic: the rationals and prime fields F_p.

Scalars are plain values.  A rational is an int while it is integral and a
normalized fractions.Fraction otherwise, never a bool; an F_p element is an
int residue in [0, p), so str gives the text form of either.  A field object
owns construction, normalization, inversion and parsing.  No floating point
anywhere.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import FieldMismatch

# Miller-Rabin with the first 13 prime bases is exact for every n below this
# bound (the least strong pseudoprime to all of them); larger moduli are
# refused rather than guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_MODULUS = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < MAX_PRIME_MODULUS."""
    if n >= MAX_PRIME_MODULUS:
        raise ValueError(f"{n} is not below {MAX_PRIME_MODULUS}, the bound of the exact primality test")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _parse_error(s: str, exc: Exception) -> ValueError:
    return ValueError(f"bad scalar {s!r}: {exc}")


class RationalField:
    """The field Q; an element is an int when integral, else a normalized
    Fraction (see normalize)."""

    tag = "Q"

    zero = 0
    one = 1

    def of(self, x):
        if isinstance(x, int):
            return int(x)
        if isinstance(x, Fraction):
            return self.normalize(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def normalize(self, x):
        """Post-arithmetic canonicalization: an integral value becomes an int."""
        if type(x) is int:
            return x
        if x.denominator == 1:
            return int(x.numerator)
        return x

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 1 or x == -1:  # canonical, so an int: its own inverse
            return x
        if not x:
            raise ZeroDivisionError("inverse of 0 in Q")
        return self.normalize(Fraction(x.denominator, x.numerator))

    def parse(self, s: str):
        if "e" in s or "E" in s:  # Fraction would expand the power unchecked
            raise ValueError(f"bad scalar {s!r}: exponent forms are not accepted")
        try:
            return self.normalize(Fraction(s.strip()))
        except ZeroDivisionError as exc:
            raise _parse_error(s, exc) from exc

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.tag = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def normalize(self, x: int) -> int:
        return x % self.p

    def neg(self, x: int) -> int:
        return (-x) % self.p

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(x, self.p - 2, self.p)

    def parse(self, s: str) -> int:
        s = s.strip()
        if "/" in s:
            num, den = s.split("/")
            try:
                return self.of(Fraction(int(num), int(den)))
            except ZeroDivisionError as exc:
                raise _parse_error(s, exc) from exc
        return int(s) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


@functools.cache
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def require_same_field(fa, fb):
    """Raise FieldMismatch unless fa and fb are one field; the same object,
    as nearly every call gives, passes without an equality test."""
    if not (fa is fb or fa == fb):
        raise FieldMismatch(f"field mismatch: {fa!r} vs {fb!r}")
