"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` stores coefficients 0..order as Fractions.  All
arithmetic is closed under truncation: coefficient ``i`` of a result only
ever depends on coefficients ``0..i`` of the operands, so working at a fixed
order is sound.  A :class:`RationalGF` is a ratio of integer-coefficient
polynomials whose denominator has a nonzero constant term; :func:`expand`
turns one into its Maclaurin coefficients by exact long division.  The
coefficients of a rational GF satisfy the linear recurrence its denominator
gives (Flajolet & Sedgewick, *Analytic Combinatorics*, ch. IV), so
:func:`expand` divides in integers over the denominator's nonzero terms
only: O(order x nonzero denominator terms) integer operations, where the
dense :meth:`TruncatedSeries.__truediv__` does O(order**2) Fraction ones.

No symbolic manipulation happens here; generating-function claims are
checked numerically, coefficient by coefficient: the identity registry
compares :func:`expand` rows with sequence rows, as :func:`verify_gf` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

DEFAULT_ORDER = 24

Coeff = int | Fraction


class NotExpandableError(ZeroDivisionError):
    """The denominator has constant term 0, so no power series expansion exists."""


_NO_CONSTANT_TERM = "not expandable: divisor has constant term 0"


def _frac(x: Coeff) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients ``c[0..order]`` of a formal power series, exact rationals."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a truncated series needs at least one coefficient")

    @classmethod
    def from_coeffs(cls, values: Sequence[Coeff]) -> "TruncatedSeries":
        return cls(tuple(_frac(v) for v in values))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(tuple(Fraction(0) for _ in range(order + 1)))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((Fraction(1),) + tuple(Fraction(0) for _ in range(order)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def _align(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = self._align(other)
        return TruncatedSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(m + 1))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = self._align(other)
        return TruncatedSeries(
            tuple(self.coeffs[i] - other.coeffs[i] for i in range(m + 1))
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = self._align(other)
        out = []
        for i in range(m + 1):
            out.append(
                sum(
                    (self.coeffs[j] * other.coeffs[i - j] for j in range(i + 1)),
                    Fraction(0),
                )
            )
        return TruncatedSeries(tuple(out))

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.coeffs[0] == 0:
            raise NotExpandableError(_NO_CONSTANT_TERM)
        m = self._align(other)
        inv0 = 1 / other.coeffs[0]
        out: list[Fraction] = []
        for i in range(m + 1):
            acc = self.coeffs[i]
            for j in range(1, i + 1):
                acc -= other.coeffs[j] * out[i - j]
            out.append(acc * inv0)
        return TruncatedSeries(tuple(out))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("negative powers are not supported; divide instead")
        result = TruncatedSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, m: int) -> "TruncatedSeries":
        """Multiply by ``x**m`` (coefficients slide up, truncation preserved)."""
        if m < 0:
            raise ValueError("shift must be nonnegative")
        zeros = tuple(Fraction(0) for _ in range(min(m, self.order + 1)))
        return TruncatedSeries((zeros + self.coeffs)[: self.order + 1])

    def as_integers(self) -> tuple[int, ...]:
        """Coefficients as ints; raises if any coefficient is non-integral."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
            out.append(c.numerator)
        return tuple(out)


# -- integer polynomials (dense, constant-first) ------------------------------

Poly = tuple[int, ...]


def poly_mul(p: Sequence[int], q: Sequence[int]) -> Poly:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return tuple(out)


def poly_pow(p: Sequence[int], e: int) -> Poly:
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result: Poly = (1,)
    base = tuple(p)
    while e:
        if e & 1:
            result = poly_mul(result, base)
        base = poly_mul(base, base)
        e >>= 1
    return result


def monomial(coeff: int, degree: int) -> Poly:
    return tuple([0] * degree + [coeff])


@dataclass(frozen=True)
class RationalGF:
    """Ratio of integer polynomials, expandable when ``den[0] != 0``."""

    num: Poly
    den: Poly

    @classmethod
    def of(cls, num: Sequence[int], den: Sequence[int]) -> "RationalGF":
        return cls(tuple(num), tuple(den))

    def __pow__(self, e: int) -> "RationalGF":
        return RationalGF(poly_pow(self.num, e), poly_pow(self.den, e))


def expand(gf: RationalGF, order: int) -> TruncatedSeries:
    """Maclaurin coefficients 0..order of ``gf``, exact.

    One long division in integers over the denominator's nonzero terms.
    With ``d = den[0]`` and ``c_i = b_i / d**(i+1)``, the integers

        b_i = num_i * d**i - sum_{j >= 1, den_j != 0} den_j * d**(j-1) * b_{i-j}

    are the scaled coefficients, which costs O(order x nonzero denominator
    terms) integer operations for any ``d != 0``.  Raises
    :class:`NotExpandableError` when the denominator's constant term is zero.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not gf.den or gf.den[0] == 0:
        raise NotExpandableError(_NO_CONSTANT_TERM)
    d = gf.den[0]
    num = gf.num[: order + 1]
    # (j, den_j * d**(j-1)) for the nonzero terms, j ascending
    terms = [(j, c * d ** (j - 1)) for j, c in enumerate(gf.den[1 : order + 1], 1) if c]
    scaled: list[int] = []
    coeffs: list[Fraction] = []
    power = 1  # d**i
    for i in range(order + 1):
        b = num[i] * power if i < len(num) else 0
        for j, t in terms:
            if j > i:
                break
            b -= t * scaled[i - j]
        scaled.append(b)
        power *= d
        coeffs.append(Fraction(b, power))
    return TruncatedSeries(tuple(coeffs))


def series_of_sequence(f: Callable[[int], Coeff], order: int) -> TruncatedSeries:
    """Series whose coefficient ``i`` is ``f(i)``."""
    return TruncatedSeries.from_coeffs([f(i) for i in range(order + 1)])


def verify_gf(
    gf: RationalGF, f: Callable[[int], Coeff], order: int = DEFAULT_ORDER
) -> tuple[bool, int | None]:
    """Compare the expansion of ``gf`` with ``f`` on coefficients ``0..order``.

    Returns ``(True, None)`` on agreement, else ``(False, i)`` with the first
    mismatching index.
    """
    expanded = expand(gf, order)
    for i in range(order + 1):
        if expanded[i] != _frac(f(i)):
            return False, i
    return True, None


# -- stock generating functions used across the identity registry -------------

def gf_geometric_two_tone(r: int) -> RationalGF:
    """((1 - x) / (1 - 2x)) ** (r + 1): tilings with ``r`` reds, graded by white total."""
    return RationalGF.of((1, -1), (1, -2)) ** (r + 1)


def gf_suffix_white(s: int, r: int) -> RationalGF:
    """(1/(1-x))**s * ((1-x)/(1-2x))**(r+1): the s-fold cumulative sums."""
    base = gf_geometric_two_tone(r)
    return RationalGF.of(base.num, poly_mul(base.den, poly_pow((1, -1), s)))


def gf_bounded_parts(k: int) -> RationalGF:
    """(1 - x)/(1 - 2x + x**(k+1)): compositions with parts at most ``k``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return RationalGF.of((1, -1), (1, -2) + (0,) * (k - 1) + (1,))


def gf_bounded_two_tone(r: int, k: int) -> RationalGF:
    """((1 - x)/(1 - 2x + x**(k+1))) ** (r+1): white lengths capped at ``k``."""
    return gf_bounded_parts(k) ** (r + 1)


def gf_step_sum(k: int) -> RationalGF:
    """1/(1 - x - x**2 - ... - x**k)."""
    return RationalGF.of((1,), (1,) + (-1,) * k)


def gf_avoid_part(k: int) -> RationalGF:
    """(1 - x)/(1 - 2x + x**k - x**(k+1)): compositions with no part ``k``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    den = [1, -2] + [0] * (k - 1)
    den[k] += 1
    den.append(-1)
    return RationalGF.of((1, -1), den)


def gf_allowed_parts(parts: Sequence[int]) -> RationalGF:
    """1/(1 - sum x**s over the allowed part sizes): a repeated size counts
    once, and no sizes give 1 (only the empty composition)."""
    sizes = sorted(set(parts))
    if sizes and sizes[0] < 1:
        raise ValueError("allowed parts must be positive")
    den = [1] + [0] * (sizes[-1] if sizes else 0)
    for s in sizes:
        den[s] -= 1
    return RationalGF.of((1,), den)
