"""Composition statistics computed through tiling identities.

Each function here evaluates an exact formula built from the families in
:mod:`tilingkit.sequences`; the matching brute-force definitions live in
:mod:`tilingkit.oracle` and the test suite holds the two sides together.
Alternating sums run until their sequence arguments go negative, where the
terms vanish by convention.

Argument order puts the weight ``n`` first throughout, even for statistics
sometimes quoted with the part value first; ``S(4, 2)`` is the number of
occurrences of the part 2 in the compositions of 4.
"""

from __future__ import annotations

from . import sequences
from .sequences import (
    a,
    a_s,
    binom,
    fibonacci_k,
    fibonacci_k_conv,
)


def L(n: int, k: int) -> int:
    """Compositions of ``n`` with at least one part ``k``.

    ``L(n, k) = sum_{j>=1} (-1)**(j-1) a(j, n - j k)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0
    j = 1
    while n - j * k >= 0:
        total += (-1) ** (j - 1) * a(j, n - j * k)
        j += 1
    return total


def L_restricted(n: int, m: int, k: int) -> int:
    """Compositions of ``n`` with parts at most ``k`` and at least one part ``m``."""
    return L_p(n, m, k, 1)


def L_p(n: int, m: int, k: int, p: int) -> int:
    """Compositions of ``n``, parts at most ``k``, with at least ``p`` parts ``m``.

    ``sum_{j>=p} (-1)**(j-p) C(j-1, p-1) F(n+1-jm, k, j)``.  The run of
    ``a_k`` fills this takes is refused before its first fill when their
    one table would pass the table bound
    (:func:`~tilingkit.sequences.refuse_past_bounds`).
    """
    if not 1 <= m <= k:
        raise ValueError("need 1 <= m <= k")
    if p < 1:
        raise ValueError("p must be >= 1")
    sequences.refuse_past_bounds(p, n // m, n, m)
    total = 0
    j = p
    while n + 1 - j * m > 0:
        total += (
            (-1) ** (j - p)
            * binom(j - 1, p - 1)
            * fibonacci_k_conv(n + 1 - j * m, k, j)
        )
        j += 1
    return total


def E_p(n: int, m: int, k: int, p: int) -> int:
    """Compositions of ``n``, parts at most ``k``, with exactly ``p`` parts ``m``.

    ``sum_{j>=p} (-1)**(j-p) C(j, p) F(n+1-jm, k, j)``; equivalently
    ``L_p - L_{p+1}``.  Refused before its first fill as :func:`L_p` is.
    """
    if not 1 <= m <= k:
        raise ValueError("need 1 <= m <= k")
    if p < 0:
        raise ValueError("p must be >= 0")
    sequences.refuse_past_bounds(p, n // m, n, m)
    total = 0
    j = max(p, 0)
    while n + 1 - j * m > 0:
        total += (
            (-1) ** (j - p) * binom(j, p) * fibonacci_k_conv(n + 1 - j * m, k, j)
        )
        j += 1
    return total


def exact_parts(n: int, k: int, p: int) -> int:
    """Compositions of ``n`` (parts unrestricted) with exactly ``p`` parts ``k``.

    ``sum_{j>=p} (-1)**(j-p) C(j, p) a(j, n - j k)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0
    coeff = int(p >= 0)  # (-1)**(j-p) C(j, p), exact; 0 for p < 0 as in binom
    j = p
    while n - j * k >= 0:
        total += coeff * a(j, n - j * k)
        j += 1
        coeff = -coeff * j // (j - p)
    return total


def S(n: int, k: int) -> int:
    """Occurrences of the part ``k`` over all compositions of ``n``: ``a(1, n-k)``."""
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    return a(1, n - k)


def runs_restricted(n: int, j: int, k: int) -> int:
    """Runs of the value ``j`` over compositions of ``n`` with parts at most ``k``.

    ``F(n+1-j, k, 1) - F(n+1-2j, k, 1)``.
    """
    if not 1 <= j <= k or n < 0:
        raise ValueError("need 1 <= j <= k and n >= 0")
    return fibonacci_k_conv(n + 1 - j, k, 1) - fibonacci_k_conv(n + 1 - 2 * j, k, 1)


def total_runs_restricted(n: int, k: int) -> int:
    """All runs over compositions of ``n`` with parts at most ``k``.

    Summed from :func:`runs_restricted` over the part values ``1..k``; a
    value ``j > n`` has no run, so the sum stops at ``min(k, n)`` and a huge
    ``k`` costs no more than ``k = n``.
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    return sum(runs_restricted(n, j, k) for j in range(1, min(k, n) + 1))


def C_hat(n: int, k: int) -> int:
    """Compositions of ``n`` with no part ``k``: ``sum_j (-1)**j a(j, n - jk)``,
    the ``p = 0`` case of :func:`exact_parts`."""
    return exact_parts(n, k, 0)


def C_hat_tilings(n: int, m: int, k: int) -> int:
    """Tilings of an ``(n+m)``-strip, ``m`` reds, white lengths never ``k``.

    Equals the number of compositions of ``n + mk`` with exactly ``m`` parts
    ``k``:  ``exact_parts(n + mk, k, m)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0 or m < 0:
        return 0
    return exact_parts(n + m * k, k, m)


def G(n: int, k: int) -> int:
    """Compositions of ``n`` whose largest part is exactly ``k``.

    ``F(n+1, k) - F(n+1, k-1)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return fibonacci_k(n + 1, k) - fibonacci_k(n + 1, k - 1)


def G_exact(n: int, k: int, r: int) -> int:
    """Compositions of ``n`` whose largest part ``k`` appears exactly ``r`` times.

    ``F(n+1-kr, k-1, r)``.
    """
    if k < 1 or r < 0:
        raise ValueError("need k >= 1 and r >= 0")
    return fibonacci_k_conv(n + 1 - k * r, k - 1, r)


def CF(n: int, k: int) -> int:
    """Compositions of ``n`` with the copies of ``k`` frozen in place.

    ``sum_{j>=0} C_hat(n - jk, k)``; agrees with counting compositions whose
    parts come from ``{1..k, 2k}`` and with ``sum_j F(n+1-2kj, k, j)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0
    j = 0
    while n - j * k >= 0:
        total += C_hat(n - j * k, k)
        j += 1
    return total


def CF_allowed_parts_form(n: int, k: int) -> int:
    """The bounded-parts-plus-double form of :func:`CF`: ``C(n, <1..k, 2k>)``.

    Evaluated through the convolution identity ``sum_j F(n+1-2kj, k, j)``.
    The run of ``a_k`` fills this takes is refused before its first fill
    when their one table would pass the table bound, as in :func:`L_p`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sequences.refuse_past_bounds(0, n // (2 * k), n, 2 * k)
    total = 0
    j = 0
    while n + 1 - 2 * k * j > 0:
        total += fibonacci_k_conv(n + 1 - 2 * k * j, k, j)
        j += 1
    return total


def replaced_compositions_total(n: int) -> int:
    """Replace every part ``j`` by each composition of ``j``; count the results.

    ``sum_{j=1..n} a(1, n-j) a(0, j) = a_s(1, 2, n-1)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(a(1, n - j) * a(0, j) for j in range(1, n + 1))


def replaced_parts_total(n: int) -> int:
    """Replace every part ``j`` by the parts of the compositions of ``j``; count parts.

    ``sum_{j=1..n} a(1, n-j) a_s(1, 1, j-1) = a_s(1, 3, n-1)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(a(1, n - j) * a_s(1, 1, j - 1) for j in range(1, n + 1))


def C_a(r: int, n: int) -> int:
    """Total tile count over all tilings with ``r`` reds and white total ``n``.

    ``(r+1) a_s(1, r+1, n-1) + r a(r, n)``.
    """
    if n < 0 or r < 0:
        raise ValueError("need n >= 0 and r >= 0")
    return (r + 1) * a_s(1, r + 1, n - 1) + r * a(r, n)


def C_b(n: int, k: int) -> int:
    """Compositions of ``n`` in which all parts ``k`` are consecutive.

    ``C_hat(n, k) + sum_{j>=0} E_1(n - jk, k)`` with ``E_1`` taken over
    unrestricted parts.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = C_hat(n, k)
    j = 0
    while n - j * k >= 1:
        total += exact_parts(n - j * k, k, 1)
        j += 1
    return total


def C_b_exact(n: int, k: int, p: int) -> int:
    """Compositions of ``n`` with exactly ``p`` parts ``k``, all consecutive.

    ``C_hat_tilings(n - pk, 1, k)``, the one-red tiling count with white
    lengths never ``k``.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if n - p * k < 0:
        return 0
    return C_hat_tilings(n - p * k, 1, k)


def C_multiples(n: int, k: int) -> int:
    """Compositions of ``n`` with no part divisible by ``k``.

    ``F(n+1, k) - F(n+1-k, k)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return fibonacci_k(n + 1, k) - fibonacci_k(n + 1 - k, k)


def R_runs(n: int, k: int) -> int:
    """Runs of the value ``k`` over all compositions of ``n``.

    ``a(1, n-k) - a(1, n-2k)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return a(1, n - k) - a(1, n - 2 * k)


def R_total(n: int) -> int:
    """All runs over all compositions of ``n``: ``sum_k a(1, n - (2k-1))``."""
    total = 0
    k = 1
    while n - (2 * k - 1) >= 0:
        total += a(1, n - (2 * k - 1))
        k += 1
    return total


def R_length_formula(n: int, k: int, l: int) -> int:
    """Conjectured count of runs of ``k`` having length exactly ``l``.

    ``a(1, n-kl) - 2 a(1, n-(l+1)k) + a(1, n-(l+2)k)``.  Kept separate from
    the proved statistics; the identity registry only ever reports a
    no-counterexample bound for it.
    """
    if k < 1 or l < 1:
        raise ValueError("need k >= 1 and l >= 1")
    return (
        a(1, n - k * l)
        - 2 * a(1, n - (l + 1) * k)
        + a(1, n - (l + 2) * k)
    )


def E_total(n: int) -> int:
    """Total number of parts over all compositions of ``n``: ``a_s(1, 1, n-1)``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    return a_s(1, 1, n - 1)


def m_pal(r: int, n: int) -> int:
    """Palindromic tilings with ``r`` reds and white total ``n``.

    Case split: ``m(2p, N) = a_s(1, p, N//2)``; ``m(2p+1, 2v) = a(p, v)``;
    ``m(2p+1, 2v+1) = 0``.
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be nonnegative")
    if r % 2 == 0:
        return a_s(1, r // 2, n // 2)
    if n % 2:
        return 0
    return a(r // 2, n // 2)


def pal(n: int) -> int:
    """Palindromic compositions of ``n``: ``2 ** (n // 2)`` (1 for ``n = 0``).

    A value of more than :data:`~tilingkit.sequences.TABLE_BOUND` bits is
    refused with :class:`~tilingkit.sequences.TableScaleError` before it is
    built."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    bits, bound = n // 2 + 1, sequences.TABLE_BOUND
    if bits > bound:
        raise sequences.TableScaleError(
            f"table scale exceeded: pal({n}) has {bits} bits,"
            f" past the bound of {bound}")
    return 1 << (n // 2)


def pal_hat(n: int, k: int) -> int:
    """Palindromic compositions of ``n`` with no part ``k``.

    Inclusion-exclusion over palindromic red insertions.  A red pair and a
    lone central red each count as one excluded unit, so the sign on the
    ``j``-red term is ``(-1) ** ceil(j / 2)``:

    ``pal_hat(n, k) = sum_{j>=0} (-1)**ceil(j/2) m_pal(j, n - jk)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0
    j = 0
    while n - j * k >= 0:
        total += (-1) ** ((j + 1) // 2) * m_pal(j, n - j * k)
        j += 1
    return total
