"""Truncated series arithmetic and generating-function verification."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingkit import sequences as seq
from tilingkit.series import (
    NotExpandableError,
    RationalGF,
    TruncatedSeries,
    expand,
    gf_allowed_parts,
    gf_avoid_part,
    gf_bounded_parts,
    gf_geometric_two_tone,
    gf_step_sum,
    gf_suffix_white,
    poly_mul,
    poly_pow,
    series_of_sequence,
    verify_gf,
)

small_series = st.builds(
    TruncatedSeries.from_coeffs,
    st.lists(st.integers(-6, 6), min_size=7, max_size=7),
)


class TestExpansion:
    def test_geometric_two_tone_row_zero(self):
        s = expand(gf_geometric_two_tone(0), 5)
        assert s.as_integers() == (1, 1, 2, 4, 8, 16)

    def test_plain_geometric(self):
        assert expand(RationalGF.of((1,), (1, -1)), 3).as_integers() == (1, 1, 1, 1)

    def test_pell_shifted(self):
        s = expand(RationalGF.of((1,), (1, -2, -1)), 5)
        assert s.as_integers() == (1, 2, 5, 12, 29, 70)
        assert all(s[i] == seq.pell(i + 1) for i in range(6))

    def test_not_expandable(self):
        with pytest.raises(NotExpandableError, match="not expandable"):
            expand(RationalGF.of((1,), (0, 1)), 4)

    @given(
        st.sampled_from((1, -1, 2, -2, 3, 5)),
        st.lists(st.integers(-4, 4) | st.just(0), max_size=45),
        st.lists(st.integers(-5, 5), max_size=45),
        st.integers(0, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_fraction_long_division(self, d, den_tail, num, order):
        gf = RationalGF.of(num, [d] + den_tail)
        got = expand(gf, order).coeffs
        assert got == _dense_long_division(gf, order)
        assert all(type(c) is Fraction for c in got)


def _dense_long_division(gf: RationalGF, order: int) -> tuple[Fraction, ...]:
    """Reference: every padded denominator term, one Fraction at a time."""
    num = [Fraction(gf.num[i] if i < len(gf.num) else 0) for i in range(order + 1)]
    den = [Fraction(gf.den[i] if i < len(gf.den) else 0) for i in range(order + 1)]
    out: list[Fraction] = []
    for i in range(order + 1):
        acc = num[i]
        for j in range(1, i + 1):
            acc -= den[j] * out[i - j]
        out.append(acc / den[0])
    return tuple(out)


class TestSeriesOfSequence:
    def test_two_red_row(self):
        s = series_of_sequence(lambda i: seq.a(2, i), 5)
        assert s.as_integers() == (1, 3, 9, 25, 66, 168)

    def test_zero_sequence(self):
        assert series_of_sequence(lambda i: 0, 4) == TruncatedSeries.zero(4)

    def test_cumulative_row(self):
        s = series_of_sequence(lambda i: seq.a_s(1, 1, i), 4)
        assert s.as_integers() == (1, 3, 8, 20, 48)


class TestVerifyGF:
    def test_two_tone_rows(self):
        ok, idx = verify_gf(gf_geometric_two_tone(2), lambda i: seq.a(2, i), 12)
        assert ok and idx is None

    def test_step_fibonacci(self):
        ok, _ = verify_gf(gf_step_sum(3), lambda i: seq.fibonacci_k(i + 1, 3), 12)
        assert ok

    def test_negative_control_reports_first_mismatch(self):
        # same denominator, wrong numerator: constant term still agrees
        broken = RationalGF.of((1, -2), (1, -2))
        ok, idx = verify_gf(broken, lambda i: seq.a(0, i), 12)
        assert not ok
        assert idx == 1

    def test_suffix_white_and_avoid_part(self):
        from tilingkit import compstats as cs
        from tilingkit import oracle as orc

        ok, _ = verify_gf(gf_suffix_white(2, 1), lambda i: seq.a_s(2, 1, i), 16)
        assert ok
        ok, _ = verify_gf(gf_avoid_part(3), lambda i: cs.C_hat(i, 3), 16)
        assert ok
        ok, _ = verify_gf(gf_bounded_parts(3), lambda i: seq.fibonacci_k(i + 1, 3), 16)
        assert ok
        ok, _ = verify_gf(
            gf_allowed_parts((1, 2, 5)),
            lambda i: orc.count_compositions(i, allowed_parts=(1, 2, 5)),
            10,
        )
        assert ok

    @pytest.mark.parametrize("k", (0, -2))
    def test_avoid_part_rejects_k_below_one(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            gf_avoid_part(k)

    @pytest.mark.parametrize("parts", ((1, 1), (2, 2, 3), (3, 1, 3), ()))
    def test_allowed_parts_matches_oracle_for_repeats_and_empty(self, parts):
        from tilingkit import oracle as orc

        ok, idx = verify_gf(
            gf_allowed_parts(parts),
            lambda i: orc.count_compositions(i, allowed_parts=parts),
            10,
        )
        assert ok, idx

    @pytest.mark.parametrize("parts", ((-1,), (0, 2)))
    def test_allowed_parts_rejects_nonpositive_parts(self, parts):
        with pytest.raises(ValueError, match="allowed parts must be positive"):
            gf_allowed_parts(parts)


class TestRingLaws:
    @given(small_series, small_series, small_series)
    @settings(max_examples=120)
    def test_mul_distributes_and_associates(self, f, g, h):
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f

    @given(small_series)
    @settings(max_examples=60)
    def test_multiplicative_identity_and_shift(self, f):
        one = TruncatedSeries.one(f.order)
        assert f * one == f
        shifted = f.shift(2)
        assert shifted.coeffs[:2] == (Fraction(0), Fraction(0))
        assert shifted.coeffs[2:] == f.coeffs[: f.order - 1]

    @given(small_series)
    @settings(max_examples=60)
    def test_division_inverts_multiplication(self, f):
        g = TruncatedSeries.from_coeffs([1, 2, -1, 3, 0, 1, -2])
        assert (f * g) / g == f

    def test_division_by_zero_constant_term(self):
        f = TruncatedSeries.from_coeffs([1, 1, 1])
        g = TruncatedSeries.from_coeffs([0, 1, 1])
        with pytest.raises(NotExpandableError):
            f / g

    @given(small_series, st.integers(0, 4))
    @settings(max_examples=60)
    def test_power_is_iterated_product(self, f, e):
        expected = TruncatedSeries.one(f.order)
        for _ in range(e):
            expected = expected * f
        assert f ** e == expected


class TestExpandConsistency:
    def test_expand_times_denominator_recovers_numerator(self):
        gf = gf_suffix_white(3, 2)
        order = 14
        expansion = expand(gf, order)
        den = TruncatedSeries.from_coeffs(
            tuple(gf.den[i] if i < len(gf.den) else 0 for i in range(order + 1))
        )
        num = TruncatedSeries.from_coeffs(
            tuple(gf.num[i] if i < len(gf.num) else 0 for i in range(order + 1))
        )
        assert expansion * den == num

    def test_poly_helpers(self):
        assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
        assert poly_pow((1, 1), 3) == (1, 3, 3, 1)
        assert poly_pow((2,), 0) == (1,)
