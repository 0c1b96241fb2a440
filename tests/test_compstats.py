"""Composition statistics against their brute-force twins.

The sweep fixtures enumerate every composition once per (n, cap) pair and
aggregate all statistics from the same walk, so the full-grid comparison
up to n = 14 stays fast.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import pytest

from tilingkit import compstats as cs
from tilingkit import oracle as orc
from tilingkit import sequences as sq
from tilingkit.sequences import a, a_s, fibonacci_k

FULL_GRID_N = 14


@lru_cache(maxsize=1)
def _listed(n: int, cap: int | None) -> list[tuple[int, ...]]:
    # The sweeps ask for one (n, cap) at a time, so one listing is kept.
    return orc.enumerate_compositions(n, max_part=cap)


def multiplicity(n: int, k: int, cap: int | None) -> dict[int, int]:
    """Compositions by multiplicity of ``k``, a plain count over the listed
    compositions rather than a read of the oracle's part fold."""
    return {0: 0, **Counter(comp.count(k) for comp in _listed(n, cap))}


@lru_cache(maxsize=None)
def runs(n: int, cap: int | None) -> dict[tuple[int, int], int]:
    return orc.run_census(n, max_part=cap)


@lru_cache(maxsize=None)
def largest(n: int) -> dict[tuple[int, int], int]:
    return orc.largest_part_census(n)


@lru_cache(maxsize=None)
def pal_avoid(n: int, k: int | None) -> int:
    return orc.count_palindromic_compositions(n, forbidden_part=k)


class TestSpotValues:
    def test_least_one_part(self):
        assert cs.L(4, 2) == 4
        assert cs.L(4, 1) == 6
        assert cs.L(3, 7) == 0

    def test_bounded_least_and_exact(self):
        assert cs.L_restricted(4, 2, 3) == 4
        assert cs.L_p(4, 1, 2, 2) == 4
        assert cs.E_p(4, 2, 4, 2) == 1
        assert cs.E_p(4, 2, 4, 1) == 3

    def test_part_occurrences(self):
        assert cs.S(4, 2) == 5
        assert cs.S(5, 2) == a(1, 3) == 12
        assert cs.S(4, 4) == 1

    def test_runs_statistics(self):
        assert cs.runs_restricted(4, 1, 2) == 5
        assert cs.total_runs_restricted(4, 2) == 9
        assert cs.R_runs(4, 1) == 7
        assert cs.R_total(4) == 14
        assert cs.E_total(4) == 20

    def test_avoidance_counts(self):
        assert cs.C_hat(4, 2) == 4
        assert cs.C_hat(6, 1) == 5 == fibonacci_k(5, 2)
        assert cs.C_hat(3, 7) == 4
        assert cs.C_hat_tilings(2, 1, 1) == 2
        assert cs.C_hat_tilings(3, 1, 2) == 6
        assert cs.C_hat_tilings(4, 0, 2) == cs.C_hat(4, 2)

    def test_largest_part(self):
        assert cs.G(4, 2) == 4
        assert cs.G(4, 4) == 1
        assert cs.G_exact(4, 2, 2) == 1

    def test_frozen_parts(self):
        assert cs.CF(4, 1) == 5
        assert cs.CF(2, 1) == 2
        assert cs.CF_allowed_parts_form(4, 1) == 5

    def test_replacements(self):
        assert cs.replaced_compositions_total(2) == 4 == a_s(1, 2, 1)
        assert cs.replaced_parts_total(2) == 5 == a_s(1, 3, 1)
        assert cs.replaced_compositions_total(3) == 13 == a_s(1, 2, 2)

    def test_tile_totals(self):
        assert cs.C_a(1, 2) == 13
        assert cs.C_a(1, 1) == 4
        assert cs.C_a(0, 4) == cs.E_total(4)

    def test_consecutive_parts(self):
        assert cs.C_b(4, 1) == 7
        assert cs.C_b_exact(4, 1, 2) == 2
        # at most one part k possible: consecutivity is vacuous
        for n in range(1, 11):
            for k in range(n // 2 + 1, n + 1):
                assert cs.C_b(n, k) == 2 ** (n - 1), (n, k)

    def test_multiples(self):
        assert cs.C_multiples(4, 2) == 3
        assert cs.C_multiples(5, 2) == 5
        for n in range(1, 10):
            assert cs.C_multiples(n, 1) == 0

    def test_palindromes(self):
        assert cs.m_pal(2, 6) == 20
        assert cs.m_pal(3, 7) == 0
        assert cs.m_pal(4, 4) == 13
        assert cs.pal(6) == 8 == cs.pal(7)
        assert cs.pal_hat(4, 2) == 2
        for n in range(9):
            for k in range(n + 1, n + 4):
                assert cs.pal_hat(n, k) == cs.pal(n)

    def test_allowed_parts_form_is_refused_before_its_first_fill(self, monkeypatch):
        # CF_allowed_parts_form(40, 3) fills a_k(j, 40 - 6j, 3) for
        # j = 0..6.  Its first table, 1 x 41, measures 1,722; the run's
        # table, rows 0..6 as wide as the first call asks, 7 x 41, measures
        # 13,776.  At a bound between them the first fill alone would pass,
        # so the run must be refused before it.
        bound = sq.TABLE_BOUND
        monkeypatch.setattr(sq, "_AK_TABLES", {})
        expected = cs.CF_allowed_parts_form(40, 3)
        sq._AK_TABLES.clear()
        assert sq.a_k(0, 5, 3) == fibonacci_k(6, 3)
        before = [list(row) for row in sq._AK_TABLES[3]]
        monkeypatch.setattr(sq, "TABLE_BOUND", 2000)
        with pytest.raises(sq.TableScaleError,
                           match=r"^table scale exceeded: 7 x 41 entries"
                                 " pass the bound of 2000$"):
            cs.CF_allowed_parts_form(40, 3)
        assert sq._AK_TABLES == {3: before}
        monkeypatch.setattr(sq, "TABLE_BOUND", bound)
        assert cs.CF_allowed_parts_form(40, 3) == expected == cs.CF(40, 3)

    def test_pal_past_the_table_bound_is_refused(self, monkeypatch):
        # pal(18) = 2**9 has 10 bits; pal(20) would have 11.
        monkeypatch.setattr(sq, "TABLE_BOUND", 10)
        assert cs.pal(18) == cs.pal(19) == 512
        with pytest.raises(sq.TableScaleError,
                           match=r"^table scale exceeded: pal\(20\) has 11"
                                 " bits, past the bound of 10$"):
            cs.pal(20)


class TestExactParts:
    """``exact_parts`` is the one sum behind ``C_hat``, ``C_hat_tilings``,
    ``C_b`` and ``C_b_exact``."""

    @pytest.mark.parametrize("k", range(1, 5))
    def test_matches_the_multiplicity_census(self, k):
        for n in range(11):
            hist = orc.count_by_part_multiplicity(n, k)
            for p in range(n + 2):
                assert cs.exact_parts(n, k, p) == hist.get(p, 0), (n, k, p)

    def test_negative_arguments_give_zero(self):
        for n in range(-4, 0):
            for k in range(1, 4):
                assert cs.exact_parts(n, k, 0) == 0
                assert cs.exact_parts(n, k, 1) == 0
                assert cs.exact_parts(-n, k, -1) == 0
                assert cs.C_hat(n, k) == 0
                assert cs.C_hat_tilings(n, 1, k) == 0
        for m in range(-3, 0):
            for n in range(6):
                assert cs.C_hat_tilings(n, m, 2) == 0

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_refused(self, k):
        for call in (lambda: cs.exact_parts(4, k, 1),
                     lambda: cs.C_hat(4, k),
                     lambda: cs.C_hat_tilings(4, 1, k),
                     lambda: cs.C_hat_tilings(-1, -1, k)):
            with pytest.raises(ValueError, match="^k must be >= 1$"):
                call()


class TestOracleTwinSweep:
    """Exact agreement with enumeration on the full grid n <= FULL_GRID_N."""

    @pytest.mark.parametrize("n", range(1, FULL_GRID_N + 1))
    def test_unrestricted_statistics(self, n):
        mult_all = {k: multiplicity(n, k, None) for k in range(1, n + 1)}
        run_census = runs(n, None)
        largest_census = largest(n)
        for k in range(1, n + 1):
            hist = mult_all[k]
            assert cs.L(n, k) == sum(v for p, v in hist.items() if p >= 1)
            assert cs.S(n, k) == sum(p * v for p, v in hist.items())
            assert cs.C_hat(n, k) == hist.get(0, 0)
            assert cs.R_runs(n, k) == sum(
                v for (val, _l), v in run_census.items() if val == k
            )
            assert cs.G(n, k) == sum(
                v for (top, _m), v in largest_census.items() if top == k
            )
            for r in range(1, n // k + 1):
                assert cs.G_exact(n, k, r) == largest_census.get((k, r), 0)
        assert cs.R_total(n) == sum(run_census.values())
        assert cs.E_total(n) == orc.total_parts(n)
        # occurrences summed over all part values also count every part
        assert cs.E_total(n) == sum(
            p * v for k in mult_all for p, v in mult_all[k].items()
        )

    @pytest.mark.parametrize("n", range(1, FULL_GRID_N + 1))
    def test_bounded_part_statistics(self, n):
        for k in range(1, n + 1):
            run_census = runs(n, k)
            assert cs.total_runs_restricted(n, k) == sum(run_census.values())
            for j in range(1, k + 1):
                assert cs.runs_restricted(n, j, k) == sum(
                    v for (val, _l), v in run_census.items() if val == j
                )
            for m in range(1, k + 1):
                hist = multiplicity(n, m, k)
                # The oracle's part fold against the listing count above.
                assert orc.count_by_part_multiplicity(n, m, max_part=k) == hist
                assert cs.L_restricted(n, m, k) == sum(
                    v for p, v in hist.items() if p >= 1
                )
                for p in range(0, n // m + 2):
                    assert cs.E_p(n, m, k, p) == hist.get(p, 0)
                    if p >= 1:
                        assert cs.L_p(n, m, k, p) == sum(
                            v for q, v in hist.items() if q >= p
                        )

    @pytest.mark.parametrize("n", range(0, FULL_GRID_N + 1))
    def test_frozen_consecutive_and_multiples(self, n):
        for k in range(1, max(n, 1) + 1):
            assert cs.CF(n, k) == orc.count_compositions(
                n, allowed_parts=set(range(1, k + 1)) | {2 * k}
            )
            assert cs.CF(n, k) == cs.CF_allowed_parts_form(n, k)
            assert cs.C_multiples(n, k) == orc.count_compositions(
                n, no_multiple_of=k
            )
            if n >= 1:
                census = orc.consecutive_part_census(n, k)
                assert cs.C_b(n, k) == sum(census.values())
                for p in range(1, n // k + 1):
                    assert cs.C_b_exact(n, k, p) == census.get(p, 0)

    @pytest.mark.parametrize("n", range(0, FULL_GRID_N + 1))
    def test_palindromic_statistics(self, n):
        assert cs.pal(n) == pal_avoid(n, None)
        for k in range(1, n + 2):
            assert cs.pal_hat(n, k) == pal_avoid(n, k)

    def test_palindromic_tilings(self):
        for r in range(0, 9):
            for n in range(0, FULL_GRID_N + 1):
                assert cs.m_pal(r, n) == orc.count_palindromic_tilings(r, n)

    def test_forbidden_white_tilings(self):
        for k in range(1, 4):
            for m in range(0, 3):
                for n in range(0, FULL_GRID_N + 1):
                    assert cs.C_hat_tilings(n, m, k) == orc.count_tilings(
                        m, n, orc.TilingFilter(forbidden_white_len=k)
                    )

    def test_replacements_and_tile_totals(self):
        for n in range(1, FULL_GRID_N + 1):
            assert cs.replaced_compositions_total(n) == \
                orc.replaced_compositions_oracle(n)
            assert cs.replaced_parts_total(n) == orc.replaced_parts_oracle(n)
        for r in range(0, 4):
            for n in range(0, FULL_GRID_N - 3):
                assert cs.C_a(r, n) == orc.tile_count_total(r, n)


class TestStructuralLaws:
    def test_largest_part_partition(self):
        for n in range(1, 17):
            assert sum(cs.G(n, k) for k in range(1, n + 1)) == 2 ** (n - 1)

    def test_largest_part_multiplicity_partition(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert cs.G(n, k) == sum(
                    cs.G_exact(n, k, r) for r in range(1, n // k + 1)
                )

    def test_exact_part_counts_partition(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                for m in range(1, k + 1):
                    total = sum(
                        cs.E_p(n, m, k, p) for p in range(0, n // m + 1)
                    )
                    assert total == fibonacci_k(n + 1, k)

    def test_run_count_sandwich(self):
        for n in range(1, 21):
            compositions = a(0, n)
            assert compositions <= cs.R_total(n) <= cs.E_total(n)

    def test_step_fib_bridge(self):
        from tilingkit.sequences import fibonacci_k_conv

        for k in range(2, 7):
            for n in range(0, 21):
                assert fibonacci_k(n, k) == sum(
                    fibonacci_k_conv(n - j * k, k - 1, j)
                    for j in range(n // k + 1)
                )
