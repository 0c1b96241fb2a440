"""Exact sequence families: frozen reference values and structural laws."""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from functools import cache
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingkit import compstats as cs
from tilingkit import oracle as orc
from tilingkit import sequences as sq
from tilingkit.sequences import (
    NonIntegerResultError,
    a,
    a_diag,
    a_diag_plus,
    a_explicit,
    a_k,
    a_s,
    a_s_binomial,
    binom,
    fibonacci_k,
    fibonacci_k_conv,
    neg_fibonacci_k,
    pell,
)

# a(r,n) for r,n <= 5
A_TABLE = [
    [1, 1, 2, 4, 8, 16],
    [1, 2, 5, 12, 28, 64],
    [1, 3, 9, 25, 66, 168],
    [1, 4, 14, 44, 129, 360],
    [1, 5, 20, 70, 225, 681],
    [1, 6, 27, 104, 363, 1182],
]

# a_s(2,n) for s <= 8, n <= 4
AS2_TABLE = [
    [1, 3, 9, 25, 66],
    [1, 4, 13, 38, 104],
    [1, 5, 18, 56, 160],
    [1, 6, 24, 80, 240],
    [1, 7, 31, 111, 351],
    [1, 8, 39, 150, 501],
    [1, 9, 48, 198, 699],
    [1, 10, 58, 256, 955],
    [1, 11, 69, 325, 1280],
]

# negF(n,3) for n = -9..1
NEGF3 = {-9: -8, -8: 4, -7: 1, -6: -3, -5: 2, -4: 0, -3: -1, -2: 1, -1: 0,
         0: 0, 1: 1}


class TestBaseFamily:
    def test_reference_grid(self):
        for r, row in enumerate(A_TABLE):
            for n, value in enumerate(row):
                assert a(r, n) == value, (r, n)

    def test_boundaries(self):
        assert a(7, 0) == 1
        assert all(a(r, 0) == 1 for r in range(20))
        assert all(a(0, n) == 2 ** (n - 1) for n in range(1, 20))
        assert a(-1, 3) == 0
        assert a(3, -1) == 0

    def test_worked_recurrence_value(self):
        assert a(5, 5) == a(4, 5) + 2 * a(5, 4) - a(4, 4) == 1182

    @given(st.integers(1, 10), st.integers(0, 14))
    @settings(max_examples=80)
    def test_convolution_law(self, r, n):
        assert a(r, n) == sum(a(r - 1, n - j) * a(0, j) for j in range(n + 1))

    def test_new_recurrence_via_cumulative_sum(self):
        for r in range(1, 9):
            for n in range(1, 13):
                assert a(r, n) == a_s(1, r, n - 1) + a(r - 1, n)

    def test_closed_form_matches_on_domain(self):
        assert a_explicit(1, 4) == 28
        assert a_explicit(0, 5) == 16
        assert a_explicit(5, 5) == 1182
        for r in range(8):
            for n in range(1, 13):
                assert a_explicit(r, n) == a(r, n)

    def test_closed_form_non_integer_diagnostic(self):
        with pytest.raises(NonIntegerResultError, match="non-integer result"):
            a_explicit(2, 0)

    def test_memo_idempotence(self):
        assert a(6, 9) == a(6, 9)
        assert a_s(3, 2, 7) == a_s(3, 2, 7)
        assert a_k(2, 9, 3) == a_k(2, 9, 3)


class TestCumulativeSums:
    def test_reference_grid(self):
        for s, row in enumerate(AS2_TABLE):
            for n, value in enumerate(row):
                assert a_s(s, 2, n) == value, (s, n)

    def test_column_of_ones(self):
        assert all(a_s(s, r, 0) == 1 for s in range(7) for r in range(7))

    def test_cumulative_step(self):
        for s in range(1, 6):
            for r in range(5):
                for n in range(10):
                    assert a_s(s, r, n) == sum(
                        a_s(s - 1, r, i) for i in range(n + 1)
                    )

    def test_binomial_form(self):
        assert a_s_binomial(1, 1, 3) == 20
        assert a_s_binomial(0, 2, 3) == 25
        assert a_s_binomial(2, 2, 1) == 5
        for s in range(6):
            for r in range(6):
                for n in range(9):
                    if n + s >= 1:
                        assert a_s_binomial(s, r, n) == a_s(s, r, n)

    def test_diagonal_closed_forms(self):
        assert a_diag(2, 2) == 18
        assert a_diag(1, 2) == 8
        assert a_diag(5, 1) == 11
        assert a_diag_plus(1, 2) == 12 == a_s(2, 1, 2)
        for r in range(8):
            for n in range(10):
                if r + n >= 1:
                    assert a_diag(r, n) == a_s(r, r, n)
                assert a_diag_plus(r, n) == a_s(r + 1, r, n)

    def test_diagonal_recurrence(self):
        for r in range(1, 9):
            for n in range(1, 11):
                assert a_s(r, r, n) == 2 * a_s(r, r, n - 1) + a_s(
                    r - 1, r - 1, n
                )

    def test_diagonal_closed_form_edge_is_diagnosed(self):
        with pytest.raises(NonIntegerResultError):
            a_diag(0, 0)


class TestStepFibonacci:
    def test_three_step_values(self):
        want = [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149]
        assert [fibonacci_k(n, 3) for n in range(11)] == want

    def test_degenerate_and_classical(self):
        assert fibonacci_k(0, 5) == 0
        assert fibonacci_k(-3, 4) == 0
        assert fibonacci_k(4, 2) == 3
        assert fibonacci_k(8, 3) == 44
        assert fibonacci_k(1, 0) == 1
        assert fibonacci_k(2, 0) == 0

    def test_doubling_plateau(self):
        # 2^(n-2) up to and including n = k + 1
        for k in range(2, 12):
            for n in range(2, k + 2):
                assert fibonacci_k(n, k) == 2 ** (n - 2), (n, k)
            assert fibonacci_k(k + 2, k) != 2 ** k


class TestNegativeIndexFibonacci:
    def test_reference_values_k3(self):
        for n, value in NEGF3.items():
            assert neg_fibonacci_k(n, 3) == value, n

    def test_agreement_with_forward_values(self):
        # identical to the forward family everywhere at or above -(k-2)
        for k in range(2, 7):
            for n in range(-(k - 2), 15):
                assert neg_fibonacci_k(n, k) == fibonacci_k(n, k), (n, k)

    def test_recurrence_holds_everywhere(self):
        for k in range(2, 6):
            for n in range(-20, 10):
                assert neg_fibonacci_k(n, k) == sum(
                    neg_fibonacci_k(n - j, k) for j in range(1, k + 1)
                )

    def test_classical_reflection(self):
        assert neg_fibonacci_k(-4, 2) == -3
        for n in range(1, 15):
            assert neg_fibonacci_k(-n, 2) == (-1) ** (n + 1) * fibonacci_k(n, 2)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            neg_fibonacci_k(3, 1)


class TestBoundedWhiteConvolutions:
    def test_reference_values(self):
        assert a_k(0, 5, 3) == fibonacci_k(6, 3) == 13
        assert a_k(1, 4, 3) == 26
        assert a_k(1, 1, 1) == 2
        assert a_k(2, 6, 3) == 359
        assert a_k(3, 0, 2) == 1
        assert a_k(3, -1, 2) == 0

    def test_alias_shift(self):
        assert fibonacci_k_conv(5, 3, 1) == 26
        assert fibonacci_k_conv(6, 3, 2) == 153
        assert fibonacci_k_conv(7, 3, 2) == 359
        assert fibonacci_k_conv(0, 3, 2) == 0
        assert fibonacci_k_conv(-4, 3, 1) == 0
        for n in range(0, 12):
            for k in range(1, 5):
                assert fibonacci_k_conv(n, k, 0) == fibonacci_k(n, k)

    def test_stabilizes_to_unbounded_family(self):
        for r in range(5):
            for n in range(9):
                for k in range(n, n + 3):
                    if k >= 1:
                        assert a_k(r, n, k) == a(r, n), (r, n, k)

    def test_no_white_tiles_at_k_zero(self):
        assert a_k(3, 0, 0) == 1
        assert a_k(3, 2, 0) == 0

    def test_matches_enumeration(self):
        for r in range(3):
            for n in range(8):
                for k in range(1, 5):
                    assert a_k(r, n, k) == orc.count_tilings(
                        r, n, orc.TilingFilter(max_white_len=k)
                    )


class TestPell:
    def test_reference_values(self):
        assert [pell(n) for n in range(9)] == [0, 1, 2, 5, 12, 29, 70, 169, 408]
        assert pell(-2) == 0

    def test_recurrence(self):
        for n in range(2, 30):
            assert pell(n) == 2 * pell(n - 1) + pell(n - 2)


class TestBinomHelper:
    def test_zero_conventions(self):
        assert binom(5, 2) == 10
        assert binom(3, 5) == 0
        assert binom(-1, 0) == 0
        assert binom(4, -1) == 0


# -- the memo tables against plain recurrences, queried in random order --------

_R, _N, _S, _K, _FIB_N = 25, 60, 8, 8, 400


@cache
def _plain_tilings(k):
    """t[r][n] by the last tile: a red square or a white tile of length <= k."""
    t = [[0] * (_N + 1) for _ in range(_R + 1)]
    for r in range(_R + 1):
        for n in range(_N + 1):
            t[r][n] = 1 if r == n == 0 else (t[r - 1][n] if r else 0) + sum(
                t[r][n - w] for w in range(1, min(n, k) + 1))
    return t


@cache
def _plain_cumulative(r):
    rows = [_plain_tilings(_N)[r]]
    for _ in range(_S):
        rows.append(list(accumulate(rows[-1])))
    return rows


@cache
def _plain_fibonacci(k):
    f = [0, 1]
    while len(f) <= _FIB_N:
        f.append(sum(f[max(0, len(f) - k):]))
    return f


@cache
def _plain_negative_fibonacci(k):
    f = {1: 1, **{i: 0 for i in range(2 - k, 1)}}
    for i in range(1 - k, -_FIB_N - 1, -1):
        # f(i + k) = f(i + k - 1) + ... + f(i), solved for f(i)
        f[i] = f[i + k] - sum(f[i + k - j] for j in range(1, k))
    return f


def _plain(name, *args):
    if name == "a":
        r, n = args
        return _plain_tilings(_N)[r][n] if r >= 0 and n >= 0 else 0
    if name == "a_s":
        s, r, n = args
        return _plain_cumulative(r)[s][n] if r >= 0 and n >= 0 else 0
    if name == "a_k":
        r, n, k = args
        return _plain_tilings(k)[r][n] if r >= 0 and n >= 0 else 0
    if name == "fibonacci_k":
        n, k = args
        return _plain_fibonacci(k)[n] if n >= 0 else 0
    n, k = args
    return _plain_fibonacci(k)[n] if n > 1 else _plain_negative_fibonacci(k)[n]


_QUERY = st.one_of(
    st.tuples(st.just("a"), st.integers(-2, _R), st.integers(-2, _N)),
    st.tuples(st.just("a_s"), st.integers(0, _S), st.integers(-2, _R),
              st.integers(-2, _N)),
    st.tuples(st.just("a_k"), st.integers(-2, _R), st.integers(-2, _N),
              st.integers(0, _K)),
    st.tuples(st.just("fibonacci_k"), st.integers(-3, _FIB_N),
              st.integers(0, _K)),
    st.tuples(st.just("neg_fibonacci_k"), st.integers(-_FIB_N, 30),
              st.integers(2, _K)),
)
_TABLES = ("_A_ROWS", "_AS_TABLES", "_AK_TABLES", "_FIB", "_NEG_FIB")


@contextmanager
def _empty_tables():
    """Run with every memo table of :mod:`tilingkit.sequences` empty."""
    saved = {name: getattr(sq, name) for name in _TABLES}
    for name, table in saved.items():
        setattr(sq, name, type(table)())
    try:
        yield
    finally:
        for name, table in saved.items():
            setattr(sq, name, table)


@given(st.lists(_QUERY, min_size=1, max_size=12))
@settings(max_examples=120, deadline=None)
def test_tables_grown_in_any_order_match_plain_recurrences(queries):
    # Each query grows the tables in r, s or n from wherever the earlier
    # queries left them.
    with _empty_tables():
        for name, *args in queries:
            assert getattr(sq, name)(*args) == _plain(name, *args), (name, args)



def _entries() -> int:
    """Entries held by the memo tables and the ``_FIB`` windows."""
    tables = [sq._A_ROWS, *sq._AS_TABLES.values(), *sq._AK_TABLES.values()]
    return (sum(len(row) for table in tables for row in table)
            + sum(len(window) for _, window in sq._FIB.values())
            + sum(map(len, sq._NEG_FIB.values())))


@pytest.mark.parametrize("fill, rows, columns", [
    (lambda: a(3, 5), 4, 6),
    (lambda: a_k(2, 6, 3), 3, 7),
    (lambda: a_s(2, 0, 4), 3, 5),
    (lambda: fibonacci_k(40, 3), 1, 41),
    (lambda: neg_fibonacci_k(-30, 3), 1, 35),
    (lambda: pell(50), 1, 51),
])
def test_fill_past_the_table_bound_is_refused_before_it_starts(
    monkeypatch, fill, rows, columns
):
    # ``_PELL`` is not one of ``_TABLES``: it starts from its seed pair here.
    monkeypatch.setattr(sq, "_PELL", [0, 0, 1])
    with _empty_tables():
        expected = fill()
    size = rows * columns * (rows + columns)
    monkeypatch.setattr(sq, "_PELL", [0, 0, 1])
    with _empty_tables():
        monkeypatch.setattr(sq, "TABLE_BOUND", size - 1)
        before = _entries()
        with pytest.raises(sq.TableScaleError,
                           match=f"^table scale exceeded: {rows} x {columns}"
                                 f" entries pass the bound of {size - 1}$"):
            fill()
        assert _entries() == before
        assert sq._PELL == [0, 0, 1]
        monkeypatch.setattr(sq, "TABLE_BOUND", size)
        assert fill() == expected


@pytest.mark.parametrize("fill, first, rows, columns", [
    # Runs of fills: a_k(j, 30 - j, 3) for j = 2..30, a_k(j, 24 - 2j, 3)
    # for j = 1..12, a_k(j, 30 - j, 3) for j = 3..30.
    (lambda: cs.E_p(30, 1, 3, 2), 2, 31, 29),
    (lambda: cs.L_p(24, 2, 3, 1), 1, 13, 23),
    (lambda: cs.E_p(30, 1, 3, 3), 3, 31, 28),
])
def test_run_of_fills_past_the_table_bound_is_refused_before_its_first_fill(
    monkeypatch, fill, first, rows, columns
):
    # The run is held to the bound as one table, its bounding box: rows
    # 0..last, as wide as the first call asks.  At the largest bound that
    # refuses the box, the first call's own table would still fit, so the
    # run is refused before it and keeps nothing.
    with _empty_tables():
        expected = fill()
    size = rows * columns * (rows + columns)
    assert (first + 1) * columns * (first + 1 + columns) < size
    with _empty_tables():
        monkeypatch.setattr(sq, "TABLE_BOUND", size - 1)
        before = _entries()
        with pytest.raises(sq.TableScaleError,
                           match=f"^table scale exceeded: {rows} x {columns}"
                                 f" entries pass the bound of {size - 1}$"):
            fill()
        assert _entries() == before
        monkeypatch.setattr(sq, "TABLE_BOUND", size)
        assert fill() == expected


# -- Pell: one kept pair --------------------------------------------------------

_PELL_N = 3000


@cache
def _plain_pell():
    p = [0, 1]
    while len(p) <= _PELL_N + 1:
        p.append(2 * p[-1] + p[-2])
    return p


@contextmanager
def _seed_pell():
    saved = sq._PELL
    sq._PELL = [0, 0, 1]
    try:
        yield
    finally:
        sq._PELL = saved


def _walk(start, moves):
    """Indices from ``start`` by ``moves``, kept within -3.._PELL_N."""
    indices = [start]
    for move in moves:
        indices.append(min(max(indices[-1] + move, -3), _PELL_N))
    return indices


# Steps of -1, 0 and 1 (descending, repeated, ascending) and jumps both ways.
_PELL_INDICES = st.builds(
    _walk, st.integers(-3, _PELL_N),
    st.lists(st.one_of(st.integers(-1, 1), st.integers(-_PELL_N, _PELL_N)),
             max_size=30))


@given(_PELL_INDICES)
@settings(max_examples=120, deadline=None)
def test_pell_in_any_call_order_matches_the_plain_recurrence(indices):
    plain = _plain_pell()
    with _seed_pell():
        pair = [0, 0, 1]
        for n in indices:
            assert pell(n) == (plain[n] if n >= 0 else 0), (indices, n)
            if n >= 0:
                pair = [n, plain[n], plain[n + 1]]
            # Only the pair of the last nonnegative index is kept.
            assert sq._PELL == pair, (indices, n)


def test_pell_step_past_the_table_bound_is_refused(monkeypatch):
    # An ascending range is refused at the same index as a jump to it.
    with _seed_pell():
        assert pell(49) == _plain_pell()[49]
        monkeypatch.setattr(sq, "TABLE_BOUND", 51 * 52 - 1)
        with pytest.raises(sq.TableScaleError,
                           match="^table scale exceeded: 1 x 51 entries"):
            pell(50)
        assert sq._PELL == [49, *_plain_pell()[49:51]]


def test_pell_at_a_large_index_holds_two_ints():
    # A table of P(0..20000) would peak at about 35 MB.
    with _seed_pell():
        tracemalloc.start()
        try:
            value = pell(20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sq._PELL) == 3
    low, high = 0, 1
    for _ in range(20000):
        low, high = high, (2 * high + low) % 10**9
    assert value % 10**9 == low
    assert peak < 10**6, peak


# -- k-step Fibonacci: one kept window -----------------------------------------

@pytest.fixture
def fib_steps(monkeypatch):
    """Count the windows :func:`fibonacci_k` seeds and the steps it takes."""
    counts = {"seeds": 0, "steps": 0}

    class CountingDeque(sq.deque):
        def __init__(self, *args):
            counts["seeds"] += 1
            super().__init__(*args)

        def append(self, value):
            counts["steps"] += 1
            super().append(value)

    monkeypatch.setattr(sq, "deque", CountingDeque)
    return counts


def _window(k):
    m, window = sq._FIB[k]
    return m, list(window)


def test_fibonacci_k_ascending_range_costs_one_step_per_value(fib_steps):
    with _empty_tables():
        assert [fibonacci_k(n, 5) for n in range(300)] == (
            _plain_fibonacci(5)[:300])
        # One seed window, F(-3..2), stepped once to each of F(3..299).
        assert fib_steps == {"seeds": 1, "steps": 297}
        assert _window(5) == (299, _plain_fibonacci(5)[294:300])


def test_c_multiples_reads_the_ends_of_one_window(fib_steps):
    # C_multiples(n, k) = F(n + 1, k) - F(n + 1 - k, k): the second index
    # is the first value of the window the first one leaves.
    with _empty_tables():
        f = _plain_fibonacci(6)
        assert cs.C_multiples(350, 6) == f[351] - f[345]
        assert fib_steps == {"seeds": 1, "steps": 349}
        assert _window(6) == (351, f[345:352])


def test_fibonacci_k_below_its_window_restarts_from_the_seed(fib_steps):
    # After a far call each path below the window matches the plain
    # recurrence: a read of F, a_k's row 0 read upward from F(1), and
    # neg_fibonacci_k's seed read downward from F(k + 1).
    with _empty_tables():
        value = fibonacci_k(9000, 4)
        last = [0, 0, 0, 1]  # F(-2..1) mod 10**9
        for _ in range(8999):
            last = last[1:] + [sum(last) % 10**9]
        assert value % 10**9 == last[-1]
        assert sq._FIB[4][0] == 9000
        assert fibonacci_k(10, 4) == _plain_fibonacci(4)[10]
        assert _window(4) == (10, _plain_fibonacci(4)[6:11])
        assert a_k(3, 50, 4) == _plain_tilings(4)[3][50]
        assert _window(4) == (51, _plain_fibonacci(4)[47:52])
        assert neg_fibonacci_k(-40, 4) == _plain_negative_fibonacci(4)[-40]
        assert _window(4) == (5, _plain_fibonacci(4)[1:6])
        # The far call, then one restart each for F(10), the row and F(5).
        assert fib_steps == {"seeds": 4, "steps": 8998 + 8 + 49 + 3}


def test_fibonacci_k_step_past_the_table_bound_is_refused(monkeypatch):
    # An ascending range is refused at the same index as a jump to it, and
    # the window stays where the last admitted step left it.
    with _empty_tables():
        assert fibonacci_k(49, 3) == _plain_fibonacci(3)[49]
        monkeypatch.setattr(sq, "TABLE_BOUND", 51 * 52 - 1)
        with pytest.raises(sq.TableScaleError,
                           match="^table scale exceeded: 1 x 51 entries"):
            fibonacci_k(50, 3)
        assert _window(3) == (49, _plain_fibonacci(3)[46:50])


def test_fibonacci_k_at_a_large_index_holds_its_window():
    # A row of F(0..20000) at k = 22 peaks at about 27 MB under tracemalloc.
    with _empty_tables():
        tracemalloc.start()
        try:
            value = fibonacci_k(20000, 22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sq._FIB[22][0] == 20000 and len(sq._FIB[22][1]) == 23
    last = [0] * 21 + [1, 1]  # F(-20..2) mod 10**9
    for _ in range(19998):
        last = last[1:] + [sum(last[1:]) % 10**9]
    assert value % 10**9 == last[-1]
    assert peak < 10**6, peak


@pytest.mark.parametrize("k", [10**9, 2**63])
def test_fibonacci_k_at_a_huge_k_holds_only_the_indices_stepped_to(k):
    # Until the window is k + 1 values long it starts at F(1), so small
    # indices at k = 10**9 hold a few values, not a window of k + 1; and
    # k + 1 past the largest deque length is no error.
    with _empty_tables():
        tracemalloc.start()
        try:
            values = [fibonacci_k(n, k) for n in range(6)]
            multiples = cs.C_multiples(5, k)
            conv = fibonacci_k_conv(5, k, 2)
            neg = neg_fibonacci_k(-3, k), neg_fibonacci_k(5, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _window(k) == (6, [1, 1, 2, 4, 8, 16])
    assert values == [0, 1, 1, 2, 4, 8]
    assert multiples == 16
    assert conv == _plain_tilings(6)[2][4]
    assert neg == (0, 8)
    assert peak < 10**6, peak


def test_fibonacci_k_interrupted_step_leaves_no_window(monkeypatch):
    # A step that raises partway leaves no entry for k, so the next call
    # reseeds instead of reading a window that moved past its index.
    budget = [None]

    class InterruptedDeque(sq.deque):
        def append(self, value):
            if budget[0] == 0:
                raise MemoryError
            if budget[0] is not None:
                budget[0] -= 1
            super().append(value)

    monkeypatch.setattr(sq, "deque", InterruptedDeque)
    with _empty_tables():
        f = _plain_fibonacci(3)
        assert fibonacci_k(30, 3) == f[30]
        budget[0] = 5
        with pytest.raises(MemoryError):
            fibonacci_k(60, 3)
        assert 3 not in sq._FIB
        budget[0] = None
        assert [fibonacci_k(n, 3) for n in range(26, 62)] == f[26:62]


# -- row rules: deterministic call counts ---------------------------------------

@pytest.fixture
def rule_calls(monkeypatch):
    """Record ``(rule, row, length before the call, n)`` per row-rule call."""
    calls = []
    grow = sq._grow

    def recording_grow(rows, r, n, fill, *args, **kwargs):
        def rule(rows, i, n, key):
            calls.append((fill.__name__, i, len(rows[i]), n))
            fill(rows, i, n, key)
        return grow(rows, r, n, rule, *args, **kwargs)

    monkeypatch.setattr(sq, "_grow", recording_grow)
    return calls


# Rows only, columns only, both, a hit, and a new row past short rows.
_RULE_QUERIES = [(3, 10), (6, 10), (6, 14), (2, 12), (7, 4), (5, 20), (5, 20)]


@pytest.mark.parametrize("name, value, table", [
    ("_a_fill", a, lambda: sq._A_ROWS),
    ("_as_fill", lambda s, n: a_s(s, 2, n), lambda: sq._AS_TABLES.get(2, [])),
    ("_ak_fill", lambda r, n: a_k(r, n, 3), lambda: sq._AK_TABLES.get(3, [])),
])
def test_a_fill_calls_its_rule_only_for_rows_shorter_than_the_column(
    rule_calls, name, value, table
):
    with _empty_tables():
        for i, n in _RULE_QUERIES:
            lengths = [len(row) for row in table()]
            del rule_calls[:]
            value(i, n)
            short = [row for row in range(i + 1)
                     if row >= len(lengths) or lengths[row] <= n]
            own = [(row, length) for rule, row, length, _ in rule_calls
                   if rule == name]
            assert own == [(row, lengths[row] if row < len(lengths) else 0)
                           for row in short], (i, n)
            assert all(len(row) > n for row in table()[:i + 1])


def _plain_convolutions(k, rows, n):
    """Rows ``0..rows`` of ``a_k`` to column ``n``, row by row: row 0 from
    plain k-step Fibonacci numbers, then row r as row r - 1 convolved with
    row 0."""
    first = [_plain_fibonacci(k)[i + 1] for i in range(n + 1)]
    table = [first]
    for _ in range(rows):
        above = table[-1]
        table.append([sum(above[i - t] * first[t] for t in range(i + 1))
                      for i in range(n + 1)])
    return table


@pytest.mark.parametrize("k", range(6))
def test_a_k_in_mixed_call_orders_matches_a_row_by_row_convolution(k):
    # The recurrence against the convolution, a second route: a far call
    # fills rows 0..24, descending r reads them, and ascending n then
    # extends every row from one column.
    plain = _plain_convolutions(k, 24, 80)
    with _empty_tables():
        assert a_k(24, 60, k) == plain[24][60]
        for r in range(23, -1, -1):
            assert [a_k(r, n, k) for n in range(61)] == plain[r][:61], r
        for n in range(61, 81):
            assert [a_k(r, n, k) for r in range(24, -1, -1)] == [
                row[n] for row in reversed(plain)], n


def test_a_s_fill_reads_its_a_row_once(monkeypatch):
    a_calls = []

    def counted_a(r, n):
        a_calls.append((r, n))
        return a(r, n)

    monkeypatch.setattr(sq, "a", counted_a)
    with _empty_tables():
        assert a_s(2, 3, 50) == a_s_binomial(2, 3, 50)
        assert a_calls == [(3, 50)]
        assert a_s(4, 3, 80) == a_s_binomial(4, 3, 80)
        assert a_calls == [(3, 50), (3, 80)]
        # A hit, then rows 5 and 6 from rows already long enough.
        assert a_s(1, 3, 60) == a_s_binomial(1, 3, 60)
        assert a_s(6, 3, 80) == a_s_binomial(6, 3, 80)
        assert a_calls == [(3, 50), (3, 80)]


def _plain_pal_hat(n, k):
    """A palindrome with no part k: a composition of the half with no part
    k, then a centre part other than k, or none when n is even."""
    half = [1]
    for m in range(1, n // 2 + 1):
        half.append(sum(half[m - p] for p in range(1, m + 1) if p != k))
    return (half[n // 2] if n % 2 == 0 else 0) + sum(
        half[(n - c) // 2] for c in range(n % 2 or 2, n + 1, 2) if c != k)


def test_pal_hat_fills_each_row_in_one_rule_call(rule_calls):
    with _empty_tables():
        assert cs.pal_hat(1300, 3) == _plain_pal_hat(1300, 3)
        rows = len(sq._A_ROWS) + sum(map(len, sq._AS_TABLES.values()))
    assert len(rule_calls) <= rows
