"""Exact integer sequences for two-toned tiling counts and their relatives.

Values are plain Python ints (arbitrary precision).  Each family is a
table of rows, ``rows[i][j]``, grown in place by a row rule that extends
one row in a single loop: one table for ``a`` (rows by ``r``), one per
``r`` for ``a_s`` (rows by ``s``) and one per ``k`` for ``a_k`` (rows by
``r``).  All three grow through :func:`_grow`: each row is computed from
the row above (``a_k`` by its last-tile recurrence, ``a``'s rule with one
more term), a row is never longer than the row above it, and a fill calls
the rule only for the rows from the first short one on.  Filling is not
meant for concurrent callers.  A fill whose table would pass
:data:`TABLE_BOUND`, or a run of ``a_k`` fills whose table would
(:func:`refuse_past_bounds`), is refused with :class:`TableScaleError`
before it starts.

The k-step Fibonacci numbers keep no table, only a window: the k-term
sums for ``F(i)`` and ``F(i-1)`` share all but one term, so
``F(i) = 2 F(i-1) - F(i-1-k)`` for ``i >= 3``, and backwards
``f(i) = 2 f(i+k) - f(i+k+1)``.  :func:`fibonacci_k` keeps, per ``k``, the
at most ``k + 1`` values ``F(m-k)..F(m)`` (from ``F(1)`` on) of the last
index ``m`` it stepped to; each step costs O(1) big-int operations, and an
index below the window restarts from the seed.

The Pell numbers keep no table, only the pair ``P(m), P(m + 1)`` of the
last index asked: :func:`pell` steps it to ``m + 1`` and jumps further by
index doubling on the gap, so one large index costs O(log n)
multiplications and holds two ints.

Conventions used throughout:

* every family returns 0 when its size argument ``n`` is negative, which
  lets alternating sums run until their terms vanish;
* closed forms that involve ``2**(n-r-1)`` style factors are evaluated in
  exact rational arithmetic and checked for integrality, never truncated.
"""

from __future__ import annotations

import sys
from collections import deque
from fractions import Fraction
from math import comb
from typing import Callable


class NonIntegerResultError(ArithmeticError):
    """A closed form produced a non-integer value outside its validity domain."""


class TableScaleError(RuntimeError):
    """A table fill would pass :data:`TABLE_BOUND`."""


# A fill that would make a table ``rows`` x ``columns`` is refused before it
# starts when rows * columns * (rows + columns) passes this bound.  An entry
# in row i and column j of these tables has at most about 2 (i + j) bits, so
# the product follows the table's memory and not only its number of entries:
# a(999, 999) is at the bound (10^6 entries, about 200 MB), and a single row
# stops at about 44,700 entries.  A run of a_k fills is held to it as one
# table (refuse_past_bounds).  fibonacci_k holds no table, only a window of
# at most k + 1 values, but a step past n is refused as a 1 x (n + 1) table,
# at the same index as when it kept the row F(0..n).
TABLE_BOUND = 2 * 10**9

def _refuse_past_bound(rows: int, columns: int) -> None:
    if rows * columns * (rows + columns) > TABLE_BOUND:
        raise TableScaleError(
            f"table scale exceeded: {rows} x {columns} entries"
            f" pass the bound of {TABLE_BOUND}")


def refuse_past_bounds(first: int, last: int, n: int, step: int = 0) -> None:
    """Refuse the run of calls ``a_k(j, n - j * step, k)`` for ``j`` from
    ``first`` to ``last`` (``0 <= first``, ``step >= 0``) before the first
    of them starts.

    The run is held to :data:`TABLE_BOUND` as one table, its bounding box
    ``(last + 1) x (n - first * step + 1)``: the first call grows rows
    ``0..first`` to the widest column it asks, and each later call grows
    rows up to its own ``j`` to a column no wider, so every row the run
    leaves fits in that box.
    """
    if last >= first:
        _refuse_past_bound(last + 1, n - first * step + 1)


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the usual combinatorial zero conventions."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def _require_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegerResultError(f"non-integer result for {what}: {value}")
    return value.numerator


# -- tables of rows ------------------------------------------------------------

Rows = list[list[int]]


def _grow(
    rows: Rows, r: int, n: int, fill: Callable[[Rows, int, int, int], None],
    key: int = 0,
) -> int:
    """Grow ``rows[0..r]`` in place to length ``n + 1``; return ``rows[r][n]``.

    ``a``, ``a_s`` and ``a_k`` grow here, each by its own row rule
    ``fill(rows, i, n, key)``: it extends ``rows[i]`` to length ``n + 1``
    from the entries before them in that row and from rows ``0..i-1``,
    which are grown first; ``key`` is the parameter that picked the table
    (``r`` for ``a_s``, ``k`` for ``a_k``).  So no row is longer than the
    row above it, and the rows shorter than ``n + 1`` are those from the
    first short one on: the rule is called for these rows only, once each.
    """
    try:
        return rows[r][n]
    except IndexError:
        pass
    _refuse_past_bound(r + 1, n + 1)
    rows.extend([] for _ in range(len(rows), r + 1))
    first = r  # walk up from row r while the row above is short too
    while first and len(rows[first - 1]) <= n:
        first -= 1
    for i in range(first, r + 1):
        fill(rows, i, n, key)
    return rows[r][n]


# -- a(r, n): tilings with r red unit squares and white total n --------------

_A_ROWS: Rows = []  # _A_ROWS[r][n] = a(r, n)


def _a_fill(rows: Rows, r: int, n: int, _key: int) -> None:
    row = rows[r]
    if not row:
        row.append(1)
    j = len(row)
    if r == 0:
        row.extend([1 << (i - 1) for i in range(j, n + 1)])
        return
    above = rows[r - 1]
    append = row.append
    last = row[-1]
    for up_left, up in zip(above[j - 1:n], above[j:n + 1]):
        last = up + 2 * last - up_left
        append(last)


def a(r: int, n: int) -> int:
    """Number of two-toned tilings with ``r`` reds and white total ``n``.

    Boundary values: ``a(r, 0) = 1`` and ``a(0, n) = 2**(n-1)`` for
    ``n >= 1``; elsewhere the three-term recurrence
    ``a(r, n) = a(r-1, n) + 2 a(r, n-1) - a(r-1, n-1)``.  Negative ``n``
    (or ``r``) gives 0.
    """
    if r < 0 or n < 0:
        return 0
    return _grow(_A_ROWS, r, n, _a_fill)


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

_AS_TABLES: dict[int, Rows] = {}  # _AS_TABLES[r][s][n] = a_s(s, r, n)


def _as_fill(rows: Rows, s: int, n: int, r: int) -> None:
    row = rows[s]
    j = len(row)
    if s == 0:
        a(r, n)
        row.extend(_A_ROWS[r][j:n + 1])
        return
    append = row.append
    last = row[-1] if j else 0
    for up in rows[s - 1][j:n + 1]:
        last += up
        append(last)


def a_s(s: int, r: int, n: int) -> int:
    """s-fold cumulative sum of ``a(r, .)``: ``a_s(r, n) = sum_i a_{s-1}(r, i)``.

    Counts tilings of a strip of length ``n + r + s`` with ``r`` reds whose
    final ``s`` tiles are all white.  ``a_0`` is :func:`a`.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if r < 0 or n < 0:
        return 0
    return _grow(_AS_TABLES.setdefault(r, []), s, n, _as_fill, r)


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

# _FIB[k] = (m, window), the window F(max(1, m - k) .. m, k) of the last
# index m stepped to.
_FIB: dict[int, tuple[int, deque[int]]] = {}


def fibonacci_k(n: int, k: int) -> int:
    """n-th k-step Fibonacci number: 0 for ``n <= 0``, 1 at ``n = 1``, then
    the sum of the previous ``k`` values.  ``k = 0`` is the degenerate
    family that is 1 at ``n = 1`` and 0 elsewhere.

    Only the window ``F(m-k)..F(m)`` of the last index ``m`` stepped to is
    kept, at most ``k + 1`` values (from ``F(1)`` while ``m <= k``, so a
    small ``n`` holds O(n) values however large ``k`` is).  An index in
    the window is read from it; an index past ``m`` steps the window on
    by ``F(i) = 2 F(i-1) - F(i-1-k)``, one step per index, so an ascending
    range costs one step per value.
    An index below the window restarts from the seed window at index 2,
    which costs O(n) steps where a kept row would have read it at once.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n <= 1:
        return max(n, 0)
    m, window = _FIB.get(k, (2, None))
    if window is not None and m - len(window) < n <= m:
        return window[n - m - 1]
    if n > m:
        _refuse_past_bound(1, n + 1)
    # The entry is stored again only once the window has reached n, so an
    # interrupted step leaves no window that disagrees with its index.
    _FIB.pop(k, None)
    if window is None or n < m:  # seed F(1..2), or F(2) alone for k = 0
        # A deque holds at most sys.maxsize values, and a window of that many
        # is never filled, so the cap leaves every step as it is.
        m, window = 2, deque([1, 1] if k else [0], min(k + 1, sys.maxsize))
    # Until the window is full it starts at F(1), and F(i - 1 - k) = 0.
    for _ in range(m, n):
        window.append(2 * window[-1] - (window[0] if len(window) > k else 0))
    _FIB[k] = n, window
    return window[-1]


_NEG_FIB: dict[int, list[int]] = {}  # _NEG_FIB[k][t] = f(k + 1 - t)


def neg_fibonacci_k(n: int, k: int) -> int:
    """k-step Fibonacci extended to all integer indices.

    Seeds: value 1 at index 1 and 0 at ``0, -1, ..., -(k-2)``.  Forward it
    agrees with :func:`fibonacci_k`; backward it follows the rearranged
    recurrence ``f(n-k) = f(n) - f(n-1) - ... - f(n-k+1)``, filled as
    ``f(i) = 2 f(i+k) - f(i+k+1)``.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n > 1 - k:
        return fibonacci_k(n, k)
    _refuse_past_bound(1, k + 2 - n)
    if k not in _NEG_FIB:
        _NEG_FIB[k] = [fibonacci_k(i, k) for i in range(k + 1, 1 - k, -1)]
    down = _NEG_FIB[k]
    while len(down) <= k + 1 - n:
        t = len(down)
        down.append(2 * down[t - k] - down[t - k - 1])
    return down[k + 1 - n]


_AK_TABLES: dict[int, Rows] = {}  # _AK_TABLES[k][r][n] = a_k(r, n, k)


def _ak_fill(rows: Rows, r: int, n: int, k: int) -> None:
    row = rows[r]
    if not row:
        row.append(1)
    j = len(row)
    if r == 0:
        row.extend([fibonacci_k(i + 1, k) for i in range(j, n + 1)])
        return
    above = rows[r - 1]
    append = row.append
    last = row[-1]
    for i in range(j, n + 1):
        last = above[i] + 2 * last - above[i - 1]
        if i > k:
            last -= row[i - 1 - k]
        append(last)


def a_k(r: int, n: int, k: int) -> int:
    """Tilings with ``r`` reds and white lengths restricted to ``1..k``.

    Row 0 is the bounded-part composition counts,
    ``a_k(0, n, k) = fibonacci_k(n+1, k)``, and ``a_k(r, 0, k) = 1``.  A
    tiling ends in a red square or in a white tile of length ``j <= k``, so
    ``a_k(r, n) = a_k(r-1, n) + sum_{j=1..k} a_k(r, n-j)``; with the
    sliding sum, for ``n >= 1``,
    ``a_k(r, n) = a_k(r-1, n) + 2 a_k(r, n-1) - a_k(r-1, n-1) - a_k(r, n-1-k)``,
    the last term 0 while ``n <= k``.  This is :func:`a`'s rule with one
    more term, from the tiling's definition and with no generating
    function.  ``k = 0`` forbids white tiles entirely.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r < 0 or n < 0:
        return 0
    return _grow(_AK_TABLES.setdefault(k, []), r, n, _ak_fill, k)


def fibonacci_k_conv(n: int, k: int, r: int) -> int:
    """r-th convolution of the k-step Fibonacci sequence.

    Alias of :func:`a_k` under the index shift ``F(n+1, k, r) = a_k(r, n, k)``
    (a tiling with ``r`` reds splits into ``r + 1`` bounded-part
    compositions); the zeroth convolution is :func:`fibonacci_k` itself.
    Nonpositive ``n`` gives 0.
    """
    return a_k(r, n - 1, k)


# -- Pell numbers --------------------------------------------------------------

_PELL: list[int] = [0, 0, 1]  # [m, P(m), P(m + 1)] for the last index asked


def _pell_pair(d: int) -> tuple[int, int]:
    """``(P(d), P(d + 1))`` by index doubling over the bits of ``d >= 0``."""
    low, high = 0, 1  # (P(k), P(k + 1)), k the bits of d read so far
    for bit in bin(d)[2:]:
        low, high = low * (2 * high - 2 * low), high * high + low * low
        if bit == "1":
            low, high = high, 2 * high + low
    return low, high


def pell(n: int) -> int:
    """Pell numbers: ``P(0)=0, P(1)=1, P(n) = 2 P(n-1) + P(n-2)``.

    Only the pair ``P(m), P(m + 1)`` of the last index ``m`` asked is kept.
    The next index ``m + 1`` is one step of the recurrence.  An index
    further on is reached in one jump: ``(P(d), P(d + 1))`` for the gap
    ``d = n - m`` by index doubling, ``P(2k) = P(k) (2 P(k+1) - 2 P(k))``
    and ``P(2k+1) = P(k+1)^2 + P(k)^2`` (the binary method for powers,
    Knuth, TAOCP vol. 2, 4.6.3), then ``P(m + d) = P(m+1) P(d) + P(m) P(d-1)``.
    An index below ``m`` jumps from ``P(0), P(1)``.  So one large index
    costs O(log n) multiplications and holds two ints, and an ascending
    range one step per value.
    """
    if n < 0:
        return 0
    m, low, high = _PELL
    if n == m:
        return low
    _refuse_past_bound(1, n + 1)
    if n == m + 1:
        _PELL[:] = n, high, 2 * high + low
        return high
    if n < m:
        m, low, high = 0, 0, 1
    now, after = _pell_pair(n - m)
    before = after - 2 * now  # P(d - 1)
    _PELL[:] = n, high * now + low * before, high * after + low * now
    return _PELL[1]
