"""Exact integer sequences for two-toned tiling counts and their relatives.

Values are plain Python ints (arbitrary precision), memoized per family in
append-only dict caches keyed by the full parameter tuple.  Re-deriving a
cached key always reproduces the same value, and filling is idempotent, so
concurrent readers are safe under the usual CPython semantics.

Conventions used throughout:

* every family returns 0 when its size argument ``n`` is negative, which
  lets alternating sums run until their terms vanish;
* closed forms that involve ``2**(n-r-1)`` style factors are evaluated in
  exact rational arithmetic and checked for integrality, never truncated.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


class NonIntegerResultError(ArithmeticError):
    """A closed form produced a non-integer value outside its validity domain."""


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the usual combinatorial zero conventions."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def _require_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegerResultError(f"non-integer result for {what}: {value}")
    return value.numerator


# -- a(r, n): tilings with r red unit squares and white total n --------------

_A: dict = {}


def a(r: int, n: int) -> int:
    """Number of two-toned tilings with ``r`` reds and white total ``n``.

    Boundary values: ``a(r, 0) = 1`` and ``a(0, n) = 2**(n-1)`` for
    ``n >= 1``; elsewhere the three-term recurrence
    ``a(r, n) = a(r-1, n) + 2 a(r, n-1) - a(r-1, n-1)``.  Negative ``n``
    (or ``r``) gives 0.
    """
    if r < 0 or n < 0:
        return 0
    try:
        return _A[(r, n)]
    except KeyError:
        pass
    # Fill iteratively so CLI-scale ranges do not hit the recursion limit.
    for i in range(r + 1):
        row_prev = i - 1
        for j in range(n + 1):
            if (i, j) in _A:
                continue
            if j == 0:
                value = 1
            elif i == 0:
                value = 1 << (j - 1)
            else:
                value = (
                    _A[(row_prev, j)]
                    + 2 * _A[(i, j - 1)]
                    - _A[(row_prev, j - 1)]
                )
            _A[(i, j)] = value
    return _A[(r, n)]


def a_explicit(r: int, n: int) -> int:
    """Closed form ``2**(n-r-1) * sum_j C(r+1, j) C(n+r-j, n)``.

    Exact rational evaluation; agrees with :func:`a` for ``n >= 1`` and
    raises :class:`NonIntegerResultError` where the expression leaves the
    integers (which happens at ``n = 0``).
    """
    if r < 0 or n < 0:
        return 0
    total = sum(binom(r + 1, j) * binom(n + r - j, n) for j in range(r + 1))
    value = Fraction(total) * Fraction(2) ** (n - r - 1)
    return _require_integer(value, f"a_explicit({r}, {n})")


# -- a_s(r, n): cumulative sums / suffix-white tilings ------------------------

_AS: dict = {}


def a_s(s: int, r: int, n: int) -> int:
    """s-fold cumulative sum of ``a(r, .)``: ``a_s(r, n) = sum_i a_{s-1}(r, i)``.

    Counts tilings of a strip of length ``n + r + s`` with ``r`` reds whose
    final ``s`` tiles are all white.  ``a_0`` is :func:`a`.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if r < 0 or n < 0:
        return 0
    if s == 0:
        return a(r, n)
    key = (s, r, n)
    try:
        return _AS[key]
    except KeyError:
        pass
    for sigma in range(1, s + 1):
        acc = 0
        for j in range(n + 1):
            if (sigma, r, j) in _AS:
                acc = _AS[(sigma, r, j)]
                continue
            acc += a_s(sigma - 1, r, j) if sigma > 1 else a(r, j)
            _AS[(sigma, r, j)] = acc
    return _AS[key]


def a_s_binomial(s: int, r: int, n: int) -> int:
    """Binomial form ``sum_j C(n-1+s, j-1+s) C(r+j, r)``; equals ``a_s`` for ``n + s >= 1``."""
    return sum(
        binom(n - 1 + s, j - 1 + s) * binom(r + j, r) for j in range(n + 1)
    )


def a_diag(r: int, n: int) -> int:
    """Diagonal ``a_r(r, n) = 2**(n-1) (C(n+r, r) + C(n+r-1, r-1))`` for ``r + n >= 1``."""
    total = binom(n + r, r) + binom(n + r - 1, r - 1)
    value = Fraction(total) * Fraction(2) ** (n - 1)
    return _require_integer(value, f"a_diag({r}, {n})")


def a_diag_plus(r: int, n: int) -> int:
    """Superdiagonal ``a_{r+1}(r, n) = 2**n * C(n+r, r)``."""
    return (1 << n) * binom(n + r, r)


# -- k-step Fibonacci numbers and their convolutions --------------------------

_FIB: dict[int, list[int]] = {}


def fibonacci_k(n: int, k: int) -> int:
    """n-th k-step Fibonacci number: 0 for ``n <= 0``, 1 at ``n = 1``, then
    the sum of the previous ``k`` values.  ``k = 0`` is the degenerate
    family that is 1 at ``n = 1`` and 0 elsewhere.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n <= 0:
        return 0
    if k == 0:
        return 1 if n == 1 else 0
    row = _FIB.setdefault(k, [0, 1])  # row[i] = F(i, k)
    while len(row) <= n:
        i = len(row)
        lo = max(0, i - k)
        row.append(sum(row[lo:i]))
    return row[n]


_NEGFIB: dict[int, dict[int, int]] = {}


def neg_fibonacci_k(n: int, k: int) -> int:
    """k-step Fibonacci extended to all integer indices.

    Seeds: value 1 at index 1 and 0 at ``0, -1, ..., -(k-2)``.  Forward it
    agrees with :func:`fibonacci_k`; backward it follows the rearranged
    recurrence ``f(n-k) = f(n) - f(n-1) - ... - f(n-k+1)``.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n >= -(k - 2):
        return fibonacci_k(n, k) if n >= 1 else 0
    table = _NEGFIB.setdefault(k, {})
    try:
        return table[n]
    except KeyError:
        pass
    low = min(table) if table else -(k - 2)
    for i in range(low - 1, n - 1, -1):
        value = neg_fibonacci_k(i + k, k) - sum(
            neg_fibonacci_k(i + k - j, k) for j in range(1, k)
        )
        table[i] = value
    return table[n]


_AK: dict = {}


def a_k(r: int, n: int, k: int) -> int:
    """Tilings with ``r`` reds and white lengths restricted to ``1..k``.

    Computed as the r-th convolution of the bounded-part composition
    counts: ``a_k(0, n, k) = fibonacci_k(n+1, k)`` and
    ``a_k(r, n, k) = sum_j a_k(r-1, n-j, k) * a_k(0, j, k)``.
    ``k = 0`` forbids white tiles entirely.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r < 0 or n < 0:
        return 0
    if r == 0:
        return fibonacci_k(n + 1, k)
    key = (r, n, k)
    try:
        return _AK[key]
    except KeyError:
        pass
    for i in range(1, r + 1):
        for j in range(n + 1):
            if (i, j, k) in _AK:
                continue
            prev = (lambda m: _AK[(i - 1, m, k)]) if i > 1 else (
                lambda m: fibonacci_k(m + 1, k)
            )
            _AK[(i, j, k)] = sum(
                prev(j - t) * fibonacci_k(t + 1, k) for t in range(j + 1)
            )
    return _AK[key]


def fibonacci_k_conv(n: int, k: int, r: int) -> int:
    """r-th convolution of the k-step Fibonacci sequence.

    Alias of :func:`a_k` under the index shift ``F(n+1, k, r) = a_k(r, n, k)``;
    the zeroth convolution is :func:`fibonacci_k` itself.  Nonpositive ``n``
    gives 0.
    """
    return a_k(r, n - 1, k)


# -- Pell numbers --------------------------------------------------------------

_PELL: list[int] = [0, 1]


def pell(n: int) -> int:
    """Pell numbers: ``P(0)=0, P(1)=1, P(n) = 2 P(n-1) + P(n-2)``."""
    if n < 0:
        return 0
    while len(_PELL) <= n:
        _PELL.append(2 * _PELL[-1] + _PELL[-2])
    return _PELL[n]
