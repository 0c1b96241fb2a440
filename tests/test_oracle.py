"""Enumeration semantics: the brute-force side must be trustworthy on its own."""

from __future__ import annotations

import ast
import gc
import itertools
import os
import tracemalloc
from collections import Counter
from functools import lru_cache
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilingkit import oracle as orc
from tilingkit.oracle import (
    OracleScaleError,
    Tile,
    TilingFilter,
    TwoTonedTiling,
    count_tilings,
    enumerate_compositions,
    enumerate_palindromic_compositions,
    enumerate_palindromic_tilings,
    enumerate_tilings,
)


class TestTileTypes:
    def test_red_tiles_are_unit_squares(self):
        with pytest.raises(ValueError):
            Tile("R", 2)
        with pytest.raises(ValueError):
            Tile("W", 0)
        assert str(Tile("W", 3)) == "W3"
        assert str(Tile("R", 1)) == "R"

    def test_tiling_accounting(self):
        t = TwoTonedTiling.from_codes((0, 3, 0, 1))
        assert t.red_count == 2
        assert t.white_total == 4
        assert str(t) == "R W3 R W1"

    def test_from_codes_shares_one_tile_per_code(self):
        first = TwoTonedTiling.from_codes((0, 3, 0))
        second = TwoTonedTiling.from_codes((3, 0))
        assert first.tiles[1] is second.tiles[0]
        assert first.tiles[0] is first.tiles[2] is second.tiles[1]

    def test_listed_tilings_keep_only_their_codes(self):
        # A listing holds one tiling per object: no instance dict each.
        tiling = enumerate_tilings(1, 2)[0]
        assert not hasattr(tiling, "__dict__")
        assert tiling == TwoTonedTiling((0, 1, 1))
        assert hash(tiling) == hash(TwoTonedTiling.from_codes([0, 1, 1]))
        with pytest.raises(AttributeError):
            tiling.codes = ()

    def test_filter_validation(self):
        with pytest.raises(ValueError):
            TilingFilter(max_white_len=0)
        with pytest.raises(ValueError):
            TilingFilter(palindromic=True, suffix_white_tiles=2)

    def test_listed_tiling_is_the_constructed_one(self):
        # A listing builds its tilings without the frozen __init__; each is
        # the tiling the constructor makes from the same codes.
        for r, n, f in ((0, 0, None), (1, 2, None), (3, 4, None),
                        (2, 6, TilingFilter(palindromic=True)),
                        (1, 3, TilingFilter(suffix_white_tiles=2))):
            listed = enumerate_tilings(r, n, f)
            assert listed
            for tiling in listed:
                built = TwoTonedTiling(tiling.codes)
                assert type(tiling) is TwoTonedTiling
                assert type(tiling.codes) is tuple
                assert tiling == built and hash(tiling) == hash(built)
                assert repr(tiling) == repr(built)
                assert str(tiling) == str(built)


class TestEnumerateTilings:
    def test_one_red_two_white_cells(self):
        tilings = enumerate_tilings(1, 2)
        codes = [t.codes for t in tilings]
        assert codes == sorted(codes)
        assert set(codes) == {(0, 2), (2, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}

    def test_all_red_tiling_is_unique(self):
        tilings = enumerate_tilings(3, 0)
        assert [t.codes for t in tilings] == [(0, 0, 0)]

    def test_no_duplicates_and_filters_respected(self):
        filt = TilingFilter(max_white_len=2)
        tilings = enumerate_tilings(2, 5, filt)
        codes = [t.codes for t in tilings]
        assert len(set(codes)) == len(codes)
        for t in tilings:
            assert t.red_count == 2
            assert t.white_total == 5
            assert all(tile.length <= 2 for tile in t.tiles if tile.kind == "W")

    def test_forbidden_white_length(self):
        tilings = enumerate_tilings(1, 3, TilingFilter(forbidden_white_len=2))
        assert all(
            tile.length != 2 for t in tilings for tile in t.tiles
            if tile.kind == "W"
        )
        assert len(tilings) == 6

    def test_suffix_white_tiles(self):
        # strip length n + r + s, white total n + s, last s tiles white
        filt = TilingFilter(suffix_white_tiles=2)
        tilings = enumerate_tilings(2, 3, filt)
        assert len(tilings) == 56
        for t in tilings:
            assert t.red_count == 2
            assert t.white_total == 5
            assert all(tile.kind == "W" for tile in t.tiles[-2:])

    def test_count_equals_enumeration_length(self):
        for r in range(4):
            for n in range(7):
                for filt in (
                    None,
                    TilingFilter(max_white_len=2),
                    TilingFilter(forbidden_white_len=1),
                    TilingFilter(suffix_white_tiles=1),
                    TilingFilter(palindromic=True),
                ):
                    assert count_tilings(r, n, filt) == len(
                        enumerate_tilings(r, n, filt)
                    )

    def test_resource_guard(self):
        with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
            count_tilings(0, 40, ceiling=1000)
        with pytest.raises(OracleScaleError):
            enumerate_tilings(0, 40, ceiling=1000)
        with pytest.raises(OracleScaleError):
            enumerate_compositions(40, ceiling=1000)


class TestSuffixSemantics:
    def test_suffix_counts_match_cumulative_sums(self):
        # ground-truth validation of the suffix reading: the count must be the
        # running total of the (s-1)-suffix counts
        for s in range(1, 4):
            for r in range(3):
                for n in range(6):
                    direct = count_tilings(
                        r, n, TilingFilter(suffix_white_tiles=s)
                    )
                    summed = sum(
                        count_tilings(r, i, TilingFilter(suffix_white_tiles=s - 1))
                        for i in range(n + 1)
                    )
                    assert direct == summed, (s, r, n)


class TestCompositions:
    def test_lexicographic_order_and_lengths(self):
        comps = enumerate_compositions(4)
        assert comps == sorted(comps)
        assert len(comps) == 8
        assert all(sum(c) == 4 for c in comps)

    def test_empty_composition_of_zero(self):
        assert enumerate_compositions(0) == [()]
        assert enumerate_compositions(0, max_part=3) == [()]

    def test_allowed_parts(self):
        comps = enumerate_compositions(5, allowed_parts={1, 2, 5})
        assert len(comps) == 9
        assert all(set(c) <= {1, 2, 5} for c in comps)

    def test_no_multiple_of(self):
        comps = enumerate_compositions(4, no_multiple_of=2)
        assert set(comps) == {(3, 1), (1, 3), (1, 1, 1, 1)}

    @pytest.mark.parametrize("walk", [orc.count_compositions, enumerate_compositions])
    @pytest.mark.parametrize("n, kwargs, message", [
        (5, {"allowed_parts": [0]}, "allowed parts must be positive"),
        (-1, {}, "n must be nonnegative"),
        (5, {"no_multiple_of": 0}, "no_multiple_of must be positive"),
    ])
    def test_invalid_arguments_are_rejected(self, walk, n, kwargs, message):
        with pytest.raises(ValueError, match=message):
            walk(n, **kwargs)

    def test_max_part_counts_are_step_fibonacci(self):
        from tilingkit.sequences import fibonacci_k

        for n in range(0, 13):
            for k in range(1, n + 2):
                assert (
                    orc.count_compositions(n, max_part=k)
                    == fibonacci_k(n + 1, k)
                ), (n, k)


class TestPalindromicTilings:
    def test_counts_against_reference_row(self):
        # r = 2 row: 1 1 3 3 8 8 20 20 48 48
        row = [orc.count_palindromic_tilings(2, n) for n in range(10)]
        assert row == [1, 1, 3, 3, 8, 8, 20, 20, 48, 48]

    def test_odd_reds_with_odd_white_total_is_impossible(self):
        assert enumerate_palindromic_tilings(1, 1) == []
        assert orc.count_palindromic_tilings(3, 7) == 0

    def test_every_output_is_a_palindrome(self):
        tilings = enumerate_palindromic_tilings(2, 6)
        assert len(tilings) == 20
        assert all(t.codes == t.codes[::-1] for t in tilings)
        assert len({t.codes for t in tilings}) == 20

    def test_centerless_palindromes(self):
        # the two-red extensions of the centerless palindromes of 6
        tilings = enumerate_palindromic_tilings(2, 6)
        centerless = [t for t in tilings if len(t.tiles) % 2 == 0]
        assert len(centerless) == 12


class TestPalindromicCompositions:
    def test_power_counts(self):
        assert orc.count_palindromic_compositions(6) == 8
        assert orc.count_palindromic_compositions(7) == 8
        assert orc.count_palindromic_compositions(0) == 1

    def test_forbidden_part(self):
        pals = enumerate_palindromic_compositions(4, forbidden_part=2)
        assert set(pals) == {(4,), (1, 1, 1, 1)}

    def test_outputs_are_palindromes_without_duplicates(self):
        for n in range(9):
            pals = enumerate_palindromic_compositions(n)
            assert len(set(pals)) == len(pals)
            assert all(c == c[::-1] and (sum(c) == n) for c in pals)
            assert len(pals) == 2 ** (n // 2)


def test_oracle_imports_no_formula_module():
    # An oracle count must never consult a formula, so the enumeration module
    # stays independent of the formula side.
    tree = ast.parse(Path(orc.__file__).read_text(encoding="utf-8"))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    formula_side = {"sequences", "series", "compstats"}
    assert not {name.rsplit(".", 1)[-1] for name in imported} & formula_side


def test_count_palindromic_compositions_checks_its_arguments(monkeypatch):
    with pytest.raises(ValueError, match="n must be nonnegative"):
        orc.count_palindromic_compositions(-3)
    assert orc.count_palindromic_compositions(30) == 2 ** 15
    monkeypatch.setattr(orc, "DEFAULT_CEILING", 2 ** 15)
    assert orc.count_palindromic_compositions(30) == 2 ** 15
    monkeypatch.setattr(orc, "DEFAULT_CEILING", 2 ** 15 - 1)
    with pytest.raises(OracleScaleError):
        orc.count_palindromic_compositions(30)


@pytest.mark.parametrize("listing, count, args, kwargs", [
    (enumerate_tilings, count_tilings, (2, 5), {}),
    (enumerate_tilings, count_tilings, (2, 4, TilingFilter(suffix_white_tiles=2)), {}),
    (enumerate_tilings, count_tilings, (2, 7, TilingFilter(palindromic=True)), {}),
    (enumerate_compositions, orc.count_compositions, (8,), {"forbidden_part": 2}),
])
def test_listing_and_count_refuse_just_past_the_ceiling(listing, count, args, kwargs):
    size = len(listing(*args, **kwargs))
    assert size > 1
    assert count(*args, **kwargs, ceiling=size) == size
    assert len(listing(*args, **kwargs, ceiling=size)) == size
    for walk in (listing, count):
        with pytest.raises(OracleScaleError, match=f"more than {size - 1} objects"):
            walk(*args, **kwargs, ceiling=size - 1)


def test_palindromic_composition_listing_refuses_just_past_the_ceiling():
    size = len(enumerate_palindromic_compositions(12, forbidden_part=1))
    assert size > 1
    assert len(enumerate_palindromic_compositions(
        12, forbidden_part=1, ceiling=size)) == size
    with pytest.raises(OracleScaleError):
        enumerate_palindromic_compositions(12, forbidden_part=1, ceiling=size - 1)


@pytest.mark.parametrize("walk", [
    lambda: count_tilings(0, 50_000, ceiling=1000),
    lambda: count_tilings(3, 50_000, ceiling=1000),
    lambda: enumerate_tilings(0, 50_000, ceiling=1000),
    lambda: enumerate_tilings(2, 50_000, TilingFilter(suffix_white_tiles=1),
                              ceiling=1000),
    lambda: enumerate_palindromic_tilings(0, 50_000, ceiling=1000),
    lambda: orc.count_compositions(50_000, ceiling=1000),
    lambda: enumerate_compositions(50_000, ceiling=1000),
    # Filtered families with lengths 1 and m have a lower bound too.
    lambda: count_tilings(0, 50_000, TilingFilter(forbidden_white_len=7),
                          ceiling=1000),
    lambda: count_tilings(3, 50_000, TilingFilter(max_white_len=50_000 - 1),
                          ceiling=1000),
    lambda: orc.count_compositions(50_000, max_part=3, ceiling=1000),
    lambda: enumerate_compositions(50_000, forbidden_part=2, ceiling=1000),
])
def test_refusal_at_large_size_needs_little_memory(walk):
    # The ceiling bounds the work: a family far past it is refused after
    # about ``ceiling`` leaves, not after a table or stack of size n**2.
    # A family whose lengths hold 1 is refused by its lower bound, before
    # its lengths are built.
    tracemalloc.start()
    try:
        with pytest.raises(OracleScaleError):
            walk()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


_LISTINGS = [
    lambda **kw: enumerate_tilings(2, 5, **kw),
    lambda **kw: enumerate_tilings(1, 4, TilingFilter(suffix_white_tiles=2),
                                   **kw),
    lambda **kw: enumerate_palindromic_tilings(2, 8, **kw),
    lambda **kw: enumerate_compositions(9, forbidden_part=2, **kw),
    lambda **kw: enumerate_palindromic_compositions(12, **kw),
]


@pytest.mark.parametrize("listing", _LISTINGS)
def test_listing_leaves_the_collector_as_it_found_it(
    store, monkeypatch, listing
):
    # The objects are built with the collector paused.
    inside = []
    walk = orc._listing

    def recorded(*args):
        inside.append(gc.isenabled())
        return walk(*args)

    monkeypatch.setattr(orc, "_listing", recorded)
    assert gc.isenabled()
    size = len(listing())
    assert gc.isenabled() and inside == [False]
    # A refusal under a low ceiling re-enables it too.
    with pytest.raises(OracleScaleError):
        listing(ceiling=size - 1)
    assert gc.isenabled()
    # A caller that paused the collector finds it paused.
    gc.disable()
    try:
        assert len(listing()) == size
        with pytest.raises(OracleScaleError):
            listing(ceiling=size - 1)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_listing_leaves_the_collector_paused_for_the_outer_one(
    monkeypatch
):
    # A listing run inside another, here a composition listing inside the
    # blocks of a palindromic tiling listing, leaves the collector paused
    # until the outer one returns.
    inside = []
    listing = orc._listing

    def nested(*args):
        inside.append(gc.isenabled())
        if len(inside) == 1:
            assert len(enumerate_compositions(6)) == 32
            inside.append(gc.isenabled())
        return listing(*args)

    monkeypatch.setattr(orc, "_listing", nested)
    assert len(enumerate_palindromic_tilings(2, 6)) == 20
    assert inside == [False, False, False]
    assert gc.isenabled()


def test_tile_count_total_rejects_negative_reds():
    with pytest.raises(ValueError, match="nonnegative"):
        orc.tile_count_total(-1, 3)


def test_negative_ceiling_refuses_every_object():
    for walk in (count_tilings, enumerate_tilings):
        with pytest.raises(OracleScaleError):
            walk(0, 3, ceiling=-5)
    with pytest.raises(OracleScaleError):
        enumerate_compositions(3, ceiling=-5)
    # A family with no object has nothing to refuse.
    empty = TilingFilter(max_white_len=1, forbidden_white_len=1)
    assert enumerate_tilings(0, 2, empty, ceiling=-5) == []
    assert count_tilings(0, 2, empty, ceiling=-5) == 0


def test_white_total_off_the_gcd_has_no_objects():
    # Only multiples of the gcd of the allowed lengths are reachable; these
    # trees have far too many dead ends to walk and not one leaf.
    assert orc.count_compositions(301, allowed_parts=(2, 4)) == 0
    assert enumerate_compositions(301, allowed_parts=(2, 4)) == []
    evens = TilingFilter(max_white_len=2, forbidden_white_len=1)
    assert count_tilings(5, 301, evens) == 0
    assert enumerate_tilings(5, 301, evens) == []
    # Nor is the census of their parent started, though it is under the
    # ceiling (2**22 tilings of (0, 23)).
    with patch.object(orc, "_tally", _no_count):
        assert count_tilings(0, 23, evens) == 0
        assert count_tilings(0, 20, TilingFilter(
            max_white_len=2, forbidden_white_len=1, suffix_white_tiles=3)) == 0
    # Multiples of the gcd are still walked and counted.
    assert orc.count_compositions(12, allowed_parts=(2, 4)) == 13
    assert count_tilings(3, 20, evens) == 286


_CENSUS_HELPERS = [
    lambda n: orc.part_occurrences(n, 1),
    lambda n: orc.part_multiplicity_census(n),
    lambda n: orc.count_by_part_multiplicity(n, 1),
    lambda n: orc.run_census(n),
    lambda n: orc.total_parts(n),
    lambda n: orc.largest_part_census(n),
    lambda n: orc.consecutive_part_census(n, 1),
    lambda n: orc.tile_count_total(0, n),
    lambda n: orc.replaced_compositions_oracle(n),
    lambda n: orc.replaced_parts_oracle(n),
]


@pytest.mark.parametrize("census", _CENSUS_HELPERS)
def test_census_helpers_refuse_past_the_default_ceiling(monkeypatch, census):
    monkeypatch.setattr(orc, "DEFAULT_CEILING", 20)
    census(5)  # 16 compositions
    with pytest.raises(OracleScaleError):
        census(6)  # 32 compositions


# ---------------------------------------------------------------------------
# Reference: every listing is the sorted, filtered product over tile codes,
# and every census a fold computed naively per object.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _reference_codes(reds: int, white: int) -> list[tuple[int, ...]]:
    """Every code tuple with ``reds`` zeros and codes summing to ``white``."""
    return sorted(
        codes
        for size in range(reds, reds + white + 1)
        for codes in itertools.product(range(white + 1), repeat=size)
        if codes.count(0) == reds and sum(codes) == white
    )


def _reference_tilings(r, n, f):
    s = f.suffix_white_tiles
    return [
        codes for codes in _reference_codes(r, n + s)
        if all(c == 0 or (f.max_white_len is None or c <= f.max_white_len)
               and c != f.forbidden_white_len for c in codes)
        and len(codes) >= s and all(codes[len(codes) - s:])
        and (not f.palindromic or codes == codes[::-1])
    ]


def _reference_compositions(n, max_part=None, forbidden_part=None,
                            allowed_parts=None, no_multiple_of=None):
    return [
        comp for comp in _reference_codes(0, n)
        if all((max_part is None or p <= max_part) and p != forbidden_part
               and (allowed_parts is None or p in allowed_parts)
               and (no_multiple_of is None or p % no_multiple_of) for p in comp)
    ]


_TILING_FILTERS = [
    TilingFilter(max_white_len=m, forbidden_white_len=k, suffix_white_tiles=s,
                 palindromic=pal)
    for m in (None, 1, 2, 3) for k in (None, 1, 2) for s in (0, 1, 2)
    for pal in (False, True) if not (pal and s)
]


class TestReference:
    @pytest.mark.parametrize("f", _TILING_FILTERS, ids=repr)
    def test_tilings(self, f):
        for r in range(3):
            for n in range(6 - r - f.suffix_white_tiles):
                expected = _reference_tilings(r, n, f)
                assert [t.codes for t in enumerate_tilings(r, n, f)] == expected
                assert count_tilings(r, n, f) == len(expected), (r, n)

    @pytest.mark.parametrize("max_part", [None, 2, 3])
    @pytest.mark.parametrize("forbidden_part", [None, 1, 2])
    @pytest.mark.parametrize("allowed_parts", [None, (2, 5), (3, 4), (1, 3)])
    @pytest.mark.parametrize("no_multiple_of", [None, 2, 3])
    def test_compositions(self, max_part, forbidden_part, allowed_parts,
                          no_multiple_of):
        kwargs = dict(max_part=max_part, forbidden_part=forbidden_part,
                      allowed_parts=allowed_parts, no_multiple_of=no_multiple_of)
        for n in range(7):
            expected = _reference_compositions(n, **kwargs)
            assert enumerate_compositions(n, **kwargs) == expected
            assert orc.count_compositions(n, **kwargs) == len(expected), n

    @pytest.mark.parametrize("forbidden_part", [None, 1, 2, 3])
    def test_palindromic_compositions(self, forbidden_part):
        for n in range(7):
            expected = [c for c in _reference_compositions(n, forbidden_part=forbidden_part)
                        if c == c[::-1]]
            assert enumerate_palindromic_compositions(
                n, forbidden_part=forbidden_part) == expected
            assert orc.count_palindromic_compositions(
                n, forbidden_part=forbidden_part) == len(expected), n

    @pytest.mark.parametrize("max_part", [None, 1, 2, 3])
    def test_part_censuses(self, max_part):
        for n in range(7):
            comps = _reference_compositions(n, max_part=max_part)
            multiplicity = Counter((p, c.count(p)) for c in comps for p in set(c))
            runs = Counter()
            for c in comps:
                i = 0
                while i < len(c):
                    j = i
                    while j < len(c) and c[j] == c[i]:
                        j += 1
                    runs[c[i], j - i] += 1
                    i = j
            assert orc.part_multiplicity_census(n, max_part=max_part) == multiplicity
            assert orc.run_census(n, max_part=max_part) == runs
            for k in range(1, 5):
                assert orc.part_occurrences(n, k, max_part=max_part) == sum(
                    c.count(k) for c in comps)
                # The multiplicity-zero class is always reported, even if empty.
                assert orc.count_by_part_multiplicity(n, k, max_part=max_part) == {
                    0: 0, **Counter(c.count(k) for c in comps)}

    def test_composition_censuses(self):
        parts = {j: len(_reference_codes(0, j)) for j in range(1, 7)}
        total = {j: sum(map(len, _reference_codes(0, j))) for j in range(1, 7)}
        for n in range(7):
            comps = _reference_codes(0, n)
            assert orc.total_parts(n) == sum(map(len, comps))
            assert orc.largest_part_census(n) == Counter(
                (max(c), c.count(max(c))) for c in comps if c)
            for k in range(1, 5):
                blocks = Counter(
                    c.count(k) for c in comps
                    if k not in c or c[c.index(k):c.index(k) + c.count(k)]
                    == (k,) * c.count(k))
                assert orc.consecutive_part_census(n, k) == blocks
            assert orc.replaced_compositions_oracle(n) == sum(
                parts[j] for c in comps for j in c)
            assert orc.replaced_parts_oracle(n) == sum(
                total[j] for c in comps for j in c)
            for r in range(3):
                assert orc.tile_count_total(r, n) == sum(
                    map(len, _reference_codes(r, n)))


def _compositions_by_cuts(n):
    """Every composition of ``n``, one per subset of its ``n - 1`` inner
    cut points; unlike the code product it reaches n = 12 quickly."""
    if not n:
        return [()]
    out = []
    for mask in range(1 << (n - 1)):
        bounds = [0, *(i for i in range(1, n) if mask >> (i - 1) & 1), n]
        out.append(tuple(hi - lo for lo, hi in zip(bounds, bounds[1:])))
    return out


@pytest.mark.parametrize("n", range(13))
def test_run_census_matches_plain_runs(n):
    comps = _compositions_by_cuts(n)
    if n < 7:
        assert sorted(comps) == _reference_compositions(n)
    for max_part in [None, *range(1, n + 2)]:
        kept = [c for c in comps if max_part is None or max(c, default=0) <= max_part]
        expected = Counter((value, len(list(run)))
                           for c in kept for value, run in itertools.groupby(c))
        census = orc.run_census(n, max_part=max_part)
        assert census == expected, max_part
        # Each key unpacks to a (value, length) pair of ints within n.
        assert all(type(key) is tuple and len(key) == 2 for key in census)
        assert all(type(value) is int and type(length) is int
                   and 1 <= value <= n and 1 <= length <= n
                   for value, length in census)
        # The fold's readers against plain folds of the same compositions.
        assert orc.part_multiplicity_census(n, max_part=max_part) == Counter(
            (p, c.count(p)) for c in kept for p in set(c)), max_part
        if max_part is None:
            for k in range(1, 5):
                assert orc.consecutive_part_census(n, k) == Counter(
                    c.count(k) for c in kept
                    if len([v for v, _ in itertools.groupby(c) if v == k]) <= 1)
            assert orc.largest_part_census(n) == Counter(
                (max(c), c.count(max(c))) for c in kept if c)
            parts = {j: len(_compositions_by_cuts(j)) for j in range(1, n + 1)}
            total = {j: sum(map(len, _compositions_by_cuts(j)))
                     for j in range(1, n + 1)}
            assert orc.replaced_compositions_oracle(n) == sum(
                parts[j] for c in kept for j in c)
            assert orc.replaced_parts_oracle(n) == sum(
                total[j] for c in kept for j in c)


@pytest.mark.parametrize("n", range(17))
def test_run_census_agrees_with_the_part_walks(n):
    # Each run of l parts v is l occurrences of v, so the census weighted by
    # run length must give the part totals that the plain walk folds.
    for max_part in [None, *range(1, n)]:  # max_part >= n is the None family
        census = orc.run_census(n, max_part=max_part)
        if max_part is None:
            assert sum(length * count for (_, length), count in census.items()) \
                == orc.total_parts(n)
        top = n if max_part is None else max_part
        assert all(value <= top for value, _ in census)
        for k in range(1, top + 1):
            assert sum(length * count for (value, length), count
                       in census.items() if value == k) \
                == orc.part_occurrences(n, k, max_part=max_part), (max_part, k)


def test_run_census_of_a_deep_narrow_family_and_of_nothing():
    # One composition 3000 parts deep: the walk keeps no recursion.
    assert orc.run_census(3000, max_part=1) == {(1, 3000): 1}
    assert orc.run_census(0) == {}


def test_part_fold_of_a_deep_narrow_family_needs_little_memory(store):
    # One composition 10,000 parts deep: each node's marks are one small
    # int, where an (n + 1)-cell tuple per node would take hundreds of MB.
    n = 10_000
    tracemalloc.start()
    try:
        assert orc.part_occurrences(n, 1, max_part=1) == n
        assert orc.part_multiplicity_census(n, max_part=1) == {(1, n): 1}
        assert orc.count_by_part_multiplicity(n, 1, max_part=1) == \
            {0: 0, n: 1}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def _naive_runs(n, max_part=None):
    """The runs of the listed compositions of ``n``, one by one."""
    top = n if max_part is None else min(n, max_part)
    return Counter((value, sum(1 for _ in run))
                   for codes in orc._walk(0, n, tuple(range(1, top + 1)))
                   for value, run in itertools.groupby(codes))


@pytest.mark.parametrize("n, max_part", [(16, None), (20, 3), (24, 2)])
def test_run_census_matches_the_runs_of_every_listed_composition(n, max_part):
    # Far above the kept nodes: most runs close inside kept lists, the rest
    # at closes above them, and a repeating child is never credited.
    assert orc.run_census(n, max_part=max_part) == _naive_runs(n, max_part)


@pytest.mark.parametrize("n", [orc._KEPT_SQUARES, orc._KEPT_SQUARES + 1])
def test_run_census_with_its_root_at_the_kept_line(n):
    # Every child of either root is kept: the root of one more square is
    # the smallest above the line, its child by a part 1 the largest kept.
    for max_part in [None, *range(1, n + 2)]:
        assert orc.run_census(n, max_part=max_part) == _naive_runs(n, max_part), \
            max_part


@pytest.mark.skipif(
    not os.environ.get("TILINGKIT_LARGE_SCALE"),
    reason="set TILINGKIT_LARGE_SCALE=1 to check the run census at n = 18 and 20",
)
@pytest.mark.parametrize("n", [18, 20])
def test_large_run_census_matches_the_naive_fold(n):
    assert orc.run_census(n) == _naive_runs(n)


@pytest.mark.skipif(
    not os.environ.get("TILINGKIT_LARGE_SCALE"),
    reason="set TILINGKIT_LARGE_SCALE=1 to check the part fold's memory at n = 22",
)
def test_large_part_fold_peak_memory(store):
    # 2**21 compositions under one int of marks per node: about 11.5 MB,
    # against 24 MB with a tuple of n + 1 cells per node.
    tracemalloc.start()
    try:
        total, rows = orc._family_census("fold", 22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total == 2 ** 21 and orc.part_occurrences(22, 1) == 24 * 2 ** 19
    assert peak <= 16 * 2 ** 20


# ---------------------------------------------------------------------------
# The count store: a finished walk's count is kept, and a kept count refuses
# exactly where the walk would have.
# ---------------------------------------------------------------------------

@pytest.fixture
def store():
    """The count store, emptied for one test with the census store, so
    that a first count walks."""
    with patch.dict(orc._COUNTS, clear=True), \
            patch.dict(orc._CENSUSES, clear=True):
        yield orc._COUNTS


def _parents() -> set[tuple[int, int]]:
    """The ``(reds, white)`` of every kept used-lengths census."""
    return {(reds, white) for statistic, reds, white, _ in orc._CENSUSES
            if statistic == "used"}


def _refusal_message(walk) -> str:
    with pytest.raises(OracleScaleError) as refused:
        walk()
    return str(refused.value)


def test_stored_count_refuses_just_past_the_ceiling(store):
    exact = count_tilings(2, 6, ceiling=None)
    assert store == {(2, 6, (1, 2, 3, 4, 5, 6)): exact}
    store.clear()
    walked = _refusal_message(lambda: count_tilings(2, 6, ceiling=exact - 1))
    assert walked == f"oracle scale exceeded: more than {exact - 1} objects"
    assert count_tilings(2, 6, ceiling=exact) == exact
    assert len(store) == 1
    for _ in range(2):
        assert _refusal_message(
            lambda: count_tilings(2, 6, ceiling=exact - 1)) == walked
        assert count_tilings(2, 6, ceiling=exact) == exact


def test_stored_count_refuses_through_the_objects_seen_before(store):
    lengths = (1, 2, 3)
    size = orc._count(1, 5, lengths, None)
    assert size > 1
    for seen in (0, 1, size):
        assert orc._count(1, 5, lengths, seen + size, seen) == size
        with pytest.raises(OracleScaleError,
                           match=f"more than {seen + size - 1} objects"):
            orc._count(1, 5, lengths, seen + size - 1, seen)
    # A suffix family counts one block per tail, each after the blocks before.
    suffix = TilingFilter(suffix_white_tiles=2)
    exact = count_tilings(2, 4, suffix)
    for _ in range(2):
        with pytest.raises(OracleScaleError, match=f"more than {exact - 1} objects"):
            count_tilings(2, 4, suffix, ceiling=exact - 1)
        assert count_tilings(2, 4, suffix, ceiling=exact) == exact


def test_stored_count_refuses_past_a_lowered_default_ceiling(store, monkeypatch):
    assert orc.total_parts(6) == 112  # counts 32 compositions first
    assert orc.count_palindromic_compositions(12) == 64
    monkeypatch.setattr(orc, "DEFAULT_CEILING", 32)
    assert orc.total_parts(6) == 112
    monkeypatch.setattr(orc, "DEFAULT_CEILING", 31)
    with pytest.raises(OracleScaleError, match="more than 31 objects"):
        orc.total_parts(6)
    monkeypatch.setattr(orc, "DEFAULT_CEILING", 64)
    assert orc.count_palindromic_compositions(12) == 64
    monkeypatch.setattr(orc, "DEFAULT_CEILING", 63)
    with pytest.raises(OracleScaleError, match="more than 63 objects"):
        orc.count_palindromic_compositions(12)


@pytest.mark.parametrize("census", _CENSUS_HELPERS)
def test_kept_census_refuses_past_a_lowered_default_ceiling(
    store, monkeypatch, census
):
    census(6)  # 32 compositions, kept at the default ceiling
    monkeypatch.setattr(orc, "DEFAULT_CEILING", 20)
    for _ in range(2):
        assert _refusal_message(lambda: census(6)) == \
            "oracle scale exceeded: more than 20 objects"


def test_each_composition_family_is_folded_once(store, monkeypatch):
    walks = []
    tally, walk = orc._tally, orc._walk

    def tallied(*args):
        walks.append(args[:3])
        return tally(*args)

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(orc, "_tally", tallied)
    monkeypatch.setattr(orc, "_walk", counted)
    n = 10
    for k in range(1, n + 2):
        orc.part_occurrences(n, k)
        orc.count_by_part_multiplicity(n, k)
        orc.consecutive_part_census(n, k)
    orc.part_multiplicity_census(n)
    orc.total_parts(n)
    assert walks == [(0, n, tuple(range(1, n + 1)))]
    # A tile total is summed once per family too.
    for _ in range(2):
        assert orc.tile_count_total(2, 4) == 321
    assert walks[1:] == [(2, 4, (1, 2, 3, 4))]


def test_refused_walk_and_dead_family_are_not_stored(store):
    with pytest.raises(OracleScaleError):
        count_tilings(2, 6, ceiling=10)
    assert orc.count_compositions(301, allowed_parts=(2, 4)) == 0
    assert count_tilings(5, 301, TilingFilter(max_white_len=2,
                                              forbidden_white_len=1)) == 0
    assert store == {}
    assert orc._CENSUSES == {}  # each parent was refused or never tried
    # A suffix family is read off its parent's census and stores no count.
    # Once that parent (28 tilings of (1, 4)) is refused, the family counts
    # its blocks, and one refused in its last block keeps those it finished.
    suffix = TilingFilter(suffix_white_tiles=1)
    exact = count_tilings(1, 3, suffix, ceiling=None)
    assert exact == 20 and store == {}
    orc._CENSUSES.clear()
    with pytest.raises(OracleScaleError, match="more than 19 objects"):
        count_tilings(1, 3, suffix, ceiling=exact - 1)
    assert (1, 4) not in _parents()
    lengths = (1, 2, 3, 4)
    assert store == {(1, 3, lengths): 12, (1, 2, lengths): 5,
                     (1, 1, lengths): 2}


@pytest.mark.parametrize("count, seen", [
    *((lambda ceiling, n=n: orc.count_compositions(n, ceiling=ceiling), 0)
      for n in (1, 2, 7, 12)),
    *((lambda ceiling, r=r, n=n: count_tilings(r, n, ceiling=ceiling), 0)
      for r, n in ((0, 0), (4, 0), (0, 9), (5, 1), (3, 3), (2, 6))),
    # Through the objects counted before, as a family's later blocks are.
    (lambda ceiling: orc._count(0, 5, (1, 2, 3, 4, 5), ceiling, 7), 7),
    (lambda ceiling: orc._count(2, 4, (1, 2, 3, 4), ceiling, 3), 3),
])
def test_ceiling_holds_at_the_exact_size(store, count, seen):
    # Every length is allowed, so the floor is the exact size and refuses
    # the family before its walk: just past the size, with one message, on
    # a miss and on a kept count.
    exact = count(None)
    store.clear()
    orc._CENSUSES.clear()
    for _ in range(2):
        with pytest.raises(OracleScaleError) as refused:
            count(seen + exact - 1)
        assert str(refused.value) == \
            f"oracle scale exceeded: more than {seen + exact - 1} objects"
        assert count(seen + exact) == exact


def test_unrestricted_family_past_its_lower_bound_is_not_walked(store):
    def no_walk(*args):
        raise AssertionError("walked")

    with patch.object(orc, "_count_leaves", no_walk), \
            patch.object(orc, "_tally", no_walk):
        for refused in (lambda: count_tilings(0, 40),
                        lambda: count_tilings(3, 40),
                        lambda: enumerate_tilings(2, 40),
                        lambda: orc.count_compositions(30),
                        lambda: orc.run_census(30),
                        lambda: count_tilings(600, 600, ceiling=10 ** 6)):
            with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
                refused()
        # A filtered family under its weaker bound is walked.
        with pytest.raises(AssertionError, match="walked"):
            count_tilings(0, 24, TilingFilter(max_white_len=2), ceiling=10 ** 5)
    assert store == {}
    assert orc._CENSUSES == {}


def test_stored_empty_family_refuses_nothing(store):
    empty = TilingFilter(max_white_len=1, forbidden_white_len=1)
    # Read off the census of (0, 2): no leaf uses no white length.
    assert count_tilings(0, 2, empty) == 0
    assert store == {} and _parents() == {(0, 2)}
    # Under a ceiling its parent passes, the empty family is walked and
    # stored as 0, which refuses nothing.
    orc._CENSUSES.clear()
    for _ in range(2):
        assert count_tilings(0, 2, empty, ceiling=-5) == 0
        assert store == {(0, 2, ()): 0}
    assert orc._CENSUSES == {}
    assert enumerate_tilings(0, 2, empty, ceiling=-5) == []


@given(
    families=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 8)),
                      min_size=1, max_size=4),
    lengths=st.sets(st.integers(1, 8), max_size=4).map(sorted).map(tuple),
)
@example(families=[(0, 0)], lengths=())          # the root is the one leaf
@example(families=[(0, 0)], lengths=(1, 2))
@example(families=[(3, 0), (2, 0)], lengths=(1,))  # reds only
@example(families=[(2, 7), (2, 6)], lengths=(2, 4))  # off the gcd
@example(families=[(1, 4), (2, 4)], lengths=(1, 2))
@settings(max_examples=200)
def test_count_matches_the_walk_on_a_miss_and_on_a_hit(families, lengths):
    with patch.dict(orc._COUNTS, clear=True):
        for reds, white in families:
            exact = sum(1 for _ in orc._walk(reds, white, lengths))
            if exact > 2:  # a refused walk leaves the count to walk again
                with pytest.raises(OracleScaleError):
                    orc._count(reds, white, lengths, exact // 2)
            assert orc._count(reds, white, lengths, None) == exact
        for reds, white in families:
            exact = sum(1 for _ in orc._walk(reds, white, lengths))
            assert orc._count(reds, white, lengths, exact) == exact
            assert orc._count(reds, white, lengths, None) == exact


# ---------------------------------------------------------------------------
# The census store: an unrestricted tiling count walks its family's census,
# and a count bounded only by a white length and a white suffix reads a kept
# census instead of walking.
# ---------------------------------------------------------------------------

def _trailing_whites(codes) -> int:
    return len(codes) - 1 - max((i for i, c in enumerate(codes) if not c), default=-1)


def _used_marks(white):
    """The census marks of a tiling of white total ``white``, from its codes:
    its trailing white tiles above the bitmask of the white lengths used."""
    def marks(codes):
        used = sum(1 << code for code in set(codes) if code)
        return (_trailing_whites(codes) << (white + 1)) | used
    return marks


def test_census_counts_each_leaf_by_longest_and_trailing_white(store):
    # Each leaf is filed by the white lengths it uses, its longest white
    # tile being the top bit, and by its trailing white tiles.
    for r in range(5):
        for n in range(8 - r):
            leaves = list(orc._walk(r, n, tuple(range(1, n + 1))))
            assert count_tilings(r, n) == len(leaves)
            census = orc._CENSUSES["used", r, n, n]
            assert census == Counter(map(_used_marks(n), leaves))
            longest = Counter()
            for marks, count in census.items():
                used, trailing = marks & ((1 << (n + 1)) - 1), marks >> (n + 1)
                longest[max(used.bit_length() - 1, 0), trailing] += count
            assert longest == Counter(
                (max(codes, default=0), _trailing_whites(codes))
                for codes in leaves)


@pytest.mark.parametrize("squares", range(5, 11))
def test_used_lengths_census_and_its_reads_match_the_listing(store, squares):
    # Families below, at and above _KEPT_SQUARES squares: the census files
    # each leaf once under its used lengths and trailing white tiles, and a
    # count under every kind of filter reads it (nothing walks its own
    # family) to the number of listed leaves that pass the filter.
    def naive(leaves, keep):
        return sum(1 for codes in leaves if keep(codes))

    for reds in range(squares + 1):
        white = squares - reds
        leaves = list(orc._walk(reds, white, tuple(range(1, white + 1))))
        assert orc._parent(reds, white, None) == Counter(
            map(_used_marks(white), leaves))
        with patch.object(orc, "_count_leaves", _no_count):
            for k, s in ((2, 0), (2, 1), (3, 2), (None, 3), (1, white)):
                if s <= white:
                    assert count_tilings(reds, white - s, TilingFilter(
                        max_white_len=k, suffix_white_tiles=s)) == naive(
                        leaves, lambda c: max(c, default=0) <= (k or white)
                        and _trailing_whites(c) >= s), (reds, white, k, s)
            assert count_tilings(reds, white, TilingFilter(
                forbidden_white_len=2)) == naive(leaves, lambda c: 2 not in c)
            assert count_tilings(reds, white, TilingFilter(palindromic=True)) \
                == naive(leaves, lambda c: c == c[::-1])
    n = squares
    compositions = list(orc._walk(0, n, tuple(range(1, n + 1))))
    with patch.object(orc, "_count_leaves", _no_count):
        for kwargs, keep in (
                ({"forbidden_part": 2}, lambda c: 2 not in c),
                ({"allowed_parts": (1, 3)}, lambda c: set(c) <= {1, 3}),
                ({"allowed_parts": (2, 3, 7)}, lambda c: set(c) <= {2, 3, 7}),
                ({"max_part": 2}, lambda c: max(c) <= 2),
                ({"no_multiple_of": 2}, lambda c: all(p % 2 for p in c))):
            assert orc.count_compositions(n, **kwargs) == \
                naive(compositions, keep), kwargs
        assert orc.count_palindromic_compositions(n, forbidden_part=1) == \
            naive(compositions, lambda c: c == c[::-1] and 1 not in c)


@pytest.mark.parametrize("reds", range(5))
def test_tile_total_is_read_off_the_white_tile_census(store, reds):
    # The census by white tiles equals a naive Counter over the listing, and
    # the tile total read off it the tiles the listing builds; no tile
    # total walks the listing.
    for white in range(12 - reds):
        lengths = tuple(range(1, white + 1))
        leaves = list(orc._walk(reds, white, lengths))
        assert orc._tally(reds, white, lengths, orc._white_step, None) == \
            Counter(len(codes) - codes.count(0) for codes in leaves)
        with patch.object(orc, "_walk", _no_count):
            assert orc.tile_count_total(reds, white) == sum(map(len, leaves))
    assert sum(key[0] == "white" for key in orc._CENSUSES) == 12 - reds


def _fold_marks(n):
    """The part fold's marks of a composition of ``n``, from its parts: the
    last part in field 0 and 2 * copies + (more than one block) in field p,
    each field (2n + 1).bit_length() bits wide."""
    width = (2 * n + 1).bit_length()

    def marks(codes):
        blocks = Counter(value for value, _ in itertools.groupby(codes))
        cells = [codes[-1] if codes else 0] + [
            2 * codes.count(p) + (blocks[p] > 1) for p in range(1, n + 1)]
        return sum(cell << (p * width) for p, cell in enumerate(cells))
    return marks


def _largest_marks(n):
    """The largest-part census's marks of a composition of ``n``."""
    def marks(codes):
        top = max(codes, default=0)
        return top * (n + 1) + codes.count(top)
    return marks


@pytest.mark.parametrize("squares", range(5, 11))
def test_tally_matches_a_naive_count_over_the_listing(squares):
    # Families below, at and above _KEPT_SQUARES squares: the cells kept
    # below small nodes file every leaf once, under its own final marks.
    assert 5 <= orc._KEPT_SQUARES < 10
    for reds in range(squares + 1):
        white = squares - reds
        lengths = tuple(range(1, white + 1))
        assert orc._tally(reds, white, lengths, orc._used_step(white), None) \
            == Counter(map(_used_marks(white), orc._walk(reds, white, lengths)))
    n = squares
    # Lengths (1,) fill the widest field: part 1 with n copies.
    for lengths in (tuple(range(1, n + 1)), (1,), (1, 2), (1, 2, 3), (1, 3),
                    (2, 3)):
        for step, marks in ((orc._fold_step(n), _fold_marks(n)),
                            (orc._largest_step(n), _largest_marks(n))):
            assert orc._tally(0, n, lengths, step, None) == Counter(
                map(marks, orc._walk(0, n, lengths))), (lengths, step)


@pytest.mark.parametrize("r, n, inside", [(2, 3, True), (3, 7, False)])
def test_unrestricted_count_refuses_one_below_its_size(store, r, n, inside):
    # The root of (2, 3) is a kept node itself; that of (3, 7) is above the
    # kept nodes.  Both floors are the exact size, so neither is walked.
    assert (r + n <= orc._KEPT_SQUARES) == inside
    exact = count_tilings(r, n, ceiling=None)
    store.clear()
    orc._CENSUSES.clear()
    with pytest.raises(OracleScaleError, match=f"more than {exact - 1} objects"):
        count_tilings(r, n, ceiling=exact - 1)
    assert orc._CENSUSES == {}  # a refused census keeps nothing
    assert store == {}
    assert count_tilings(r, n, ceiling=exact) == exact
    assert sum(orc._CENSUSES["used", r, n, n].values()) == exact


def _check_census_reads(cells):
    """Each filtered count of ``cells`` read off its parent's census equals
    the count of its own walk."""
    parents = {(r, n + f.suffix_white_tiles) for r, n, f in cells}
    # With every parent refused, each filtered count walks its own blocks.
    with patch.object(orc, "_parent", lambda reds, white, ceiling: None):
        walked = {cell: count_tilings(*cell, ceiling=None) for cell in cells}
    assert orc._CENSUSES == {}
    orc._COUNTS.clear()
    # A filtered count starts its parent's census and reads it.
    assert {cell: count_tilings(*cell) for cell in cells} == walked
    assert orc._COUNTS == {}  # every filtered count was read, none walked
    assert _parents() == parents


def test_census_reads_match_the_walk(store):
    _check_census_reads([
        (r, n, TilingFilter(max_white_len=k, suffix_white_tiles=s))
        for r in range(10) for n in range(10 - r)
        for k in (None, *range(1, n + 2)) for s in range(n + 1)
        if k is not None or s])


@pytest.mark.skipif(
    not os.environ.get("TILINGKIT_LARGE_SCALE"),
    reason="set TILINGKIT_LARGE_SCALE=1 to check census reads up to r + n = 14",
)
def test_census_reads_match_the_walk_at_large_scale(store):
    # Up to r + n = 14, each parent within the 18 squares of the grid above.
    _check_census_reads([
        (r, n, TilingFilter(max_white_len=k, suffix_white_tiles=s))
        for r in range(15) for n in range(15 - r)
        for k in (None, *range(1, n + 2)) for s in range(min(n, 18 - r - n) + 1)
        if k is not None or s])


def _recorded_tallies(monkeypatch) -> list[tuple[int, int, str]]:
    """Every ``_tally`` call from now on, as ``(reds, white, "own")`` for a
    plain count of a family's own leaves and ``"census"`` for any other."""
    tallied = []
    tally = orc._tally

    def recorded(reds, white, lengths, step, *args):
        tallied.append((reds, white, "own" if step is orc._same else "census"))
        return tally(reds, white, lengths, step, *args)

    monkeypatch.setattr(orc, "_tally", recorded)
    return tallied


def test_refused_parent_is_refused_by_its_floor_and_never_tallied(
    store, monkeypatch
):
    tallied = _recorded_tallies(monkeypatch)
    # The parent of (0, 24) under lengths 1 and 2 has 2**23 tilings: its
    # floor refuses it at once, on every call, and the family walks its own
    # leaves once.
    bounded = TilingFilter(max_white_len=2)
    for _ in range(2):
        assert count_tilings(0, 24, bounded, ceiling=10 ** 5) == 75_025
        assert orc._CENSUSES == {}
        assert store == {(0, 24, (1, 2)): 75_025}
        assert tallied == [(0, 24, "own")]
    # The parent of (3, 12), 230,656 tilings, passes the single bounds
    # (55,440 at most) but not its exact floor: no family of it tallies it.
    tallied.clear()
    assert count_tilings(3, 12, bounded, ceiling=10 ** 5) == 49_963
    assert tallied == [(3, 12, "own")]
    assert orc._CENSUSES == {}
    tallied.clear()
    odd = TilingFilter(max_white_len=3, forbidden_white_len=2)
    assert count_tilings(3, 12, odd, ceiling=10 ** 4) == 9_650
    assert count_tilings(3, 12, odd, ceiling=10 ** 5) == 9_650
    assert tallied == [(3, 12, "own")]
    # Under a higher ceiling it passes its floor, and is tallied and read.
    tallied.clear()
    assert count_tilings(3, 12, TilingFilter(max_white_len=4)) == \
        sum(1 for _ in orc._walk(3, 12, (1, 2, 3, 4)))
    assert tallied == [(3, 12, "census")]
    assert sum(orc._CENSUSES["used", 3, 12, 12].values()) == 230_656


def test_filtered_count_without_a_census_walks_its_own_family(store):
    # The unrestricted family has 2**23 tilings, far past this ceiling.
    bounded = TilingFilter(max_white_len=2)
    assert count_tilings(0, 24, bounded, ceiling=10 ** 5) == 75_025
    assert orc._CENSUSES == {}
    with pytest.raises(OracleScaleError, match="more than 100000 objects"):
        count_tilings(0, 24, ceiling=10 ** 5)
    assert orc._CENSUSES == {}


@pytest.mark.parametrize("f", [
    TilingFilter(max_white_len=2),
    TilingFilter(suffix_white_tiles=2),
    TilingFilter(max_white_len=3, suffix_white_tiles=1),
])
def test_census_read_refuses_just_past_the_ceiling(store, f):
    r, n = 2, 6
    exact = count_tilings(r, n, f)
    count_tilings(r, n + f.suffix_white_tiles)
    store.clear()
    for _ in range(2):
        with pytest.raises(OracleScaleError, match=f"more than {exact - 1} objects"):
            count_tilings(r, n, f, ceiling=exact - 1)
        assert count_tilings(r, n, f, ceiling=exact) == exact
    assert store == {}


# ---------------------------------------------------------------------------
# The walk keeps the leaves below small nodes; that changes no leaf, no
# order and no listing, and keeps little.
# ---------------------------------------------------------------------------

def _plain_walk(reds, white, lengths):
    """The leaves of the walk's tree, depth first: red, then each of the
    ascending ``lengths`` that fits."""
    if not reds and not white:
        yield ()
    if reds:
        for rest in _plain_walk(reds - 1, white, lengths):
            yield (0, *rest)
    for length in lengths:
        if length > white:
            break
        for rest in _plain_walk(reds, white - length, lengths):
            yield (length, *rest)


@pytest.mark.parametrize("reds", range(5))
def test_walk_yields_the_plain_walk_in_order(reds):
    # Up to 13 squares, several levels above the kept size; the plain walk
    # pays for every level at every leaf, so larger families take seconds.
    for white in range(min(13, 14 - reds)):
        every = tuple(range(1, white + 1))
        for lengths in dict.fromkeys((every, every[:3], tuple(
                p for p in every if p != 2), (2, 4), ())):
            walked = orc._walk(reds, white, lengths)
            plain = _plain_walk(reds, white, lengths)
            assert all(leaf == expected for leaf, expected
                       in itertools.zip_longest(walked, plain)), (
                reds, white, lengths)


@pytest.mark.parametrize("r", range(5))
def test_palindrome_and_suffix_listings_filter_the_unrestricted_listing(r):
    # Palindromes of white total n <= 8, and suffix tilings of n <= 8 with
    # s <= 3 trailing white tiles, out of the listing of white total n + s.
    for white in range(12):
        every = [t.codes for t in enumerate_tilings(r, white)]
        for s in range(max(0, white - 8), min(white, 3) + 1):
            suffix = TilingFilter(suffix_white_tiles=s)
            assert [t.codes for t in enumerate_tilings(
                r, white - s, suffix)] == sorted(
                c for c in every if len(c) >= s and all(c[len(c) - s:]))
        if white > 8:
            continue
        assert [t.codes for t in enumerate_palindromic_tilings(r, white)] == (
            sorted(c for c in every if c == c[::-1]))
        for k in (None, 1, 2, 3) if not r else ():
            assert enumerate_palindromic_compositions(
                white, forbidden_part=k) == sorted(
                c for c in every if c == c[::-1] and k not in c)


def test_walk_streams_its_leaves():
    # 131,072 leaves: kept every one, they would take several megabytes.
    tracemalloc.start()
    try:
        leaves = sum(1 for _ in orc._walk(0, 18, tuple(range(1, 19))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert leaves == 2 ** 17
    assert peak < 2 ** 18


# ---------------------------------------------------------------------------
# The roof: an upper bound on a family's size that lets a listing or a census
# skip its guard count, and the floor and the squares bound that refuse a
# family before its lengths are built.
# ---------------------------------------------------------------------------

_ROOF_LENGTHS = [None, (), (1,), (2,), (1, 2), (2, 3), (1, 3, 5), (1, 2, 4, 8),
                 (3, 4, 5, 6, 7, 8, 9, 10), "all but 2"]


def _lengths_for(white, lengths):
    if lengths is None:
        return tuple(range(1, white + 1))
    if lengths == "all but 2":
        return tuple(p for p in range(1, white + 1) if p != 2)
    return lengths


@pytest.mark.parametrize("lengths", _ROOF_LENGTHS)
def test_roof_bounds_every_walked_family(lengths):
    for reds in range(7):
        for white in range(11):
            allowed = _lengths_for(white, lengths)
            size = orc._count(reds, white, allowed, None)
            roof = orc._roof(reds, white, 10 ** 18)
            assert size <= roof, (reds, white, allowed)
            # Worked out only until it passes the room: past it exactly when
            # the whole roof is.
            for room in (-1, 0, 1, size - 1, size, roof - 1, roof, 2 * roof):
                assert (orc._roof(reds, white, room) > room) == (roof > room)


@pytest.mark.parametrize("lengths", _ROOF_LENGTHS)
def test_roof_bounds_every_palindrome_and_suffix_block_sum(lengths):
    for reds in range(7):
        for n in range(11):
            allowed = _lengths_for(n + 3, lengths)
            families = [list(orc._palindrome_blocks(reds, n, allowed))]
            families += [list(orc._suffix_blocks(reds, n + s, s, allowed))
                         for s in range(1, 4)]
            for blocks in families:
                sizes = [orc._count(r, w, allowed, None) for r, w, _, _ in blocks]
                roofs = [orc._roof(r, w, 10 ** 18) for r, w, _, _ in blocks]
                assert all(map(int.__le__, sizes, roofs))
                assert sum(sizes) <= sum(roofs)


def test_roof_is_the_walked_size_of_every_length():
    # The roof is the exact size of the family with every length allowed,
    # at least that of each family of its reds and white total, and passes
    # a room exactly when that size does.
    for reds in range(13):
        for white in range(13 - reds):
            every = tuple(range(1, white + 1))
            size = sum(1 for _ in orc._walk(reds, white, every))
            roof = orc._roof(reds, white, 10 ** 9)
            assert roof == size, (reds, white)
            for k in every:
                for lengths in (every[:k], every[:k - 1] + every[k:]):
                    walked = sum(1 for _ in orc._walk(reds, white, lengths))
                    assert walked <= roof, (reds, white, lengths)
            assert orc._roof(reds, white, size - 1) > size - 1
            assert orc._roof(reds, white, size) == size


def test_family_under_its_roof_is_not_guard_walked(store, monkeypatch):
    # (3, 6) has 968 tilings, under a ceiling of 1,000: the listing is
    # walked with no tally, and the tile total tallies its white-tile
    # census only.  One below its size, both refuse before any tally.
    tallied = _recorded_tallies(monkeypatch)
    assert len(enumerate_tilings(3, 6, ceiling=1000)) == 968
    assert tallied == []
    monkeypatch.setattr(orc, "DEFAULT_CEILING", 1000)
    orc.tile_count_total(3, 6)
    assert tallied == [(3, 6, "census")]
    tallied.clear()
    store.clear()
    orc._CENSUSES.clear()
    monkeypatch.setattr(orc, "DEFAULT_CEILING", 967)
    for refused in (lambda: enumerate_tilings(3, 6, ceiling=967),
                    lambda: orc.tile_count_total(3, 6)):
        assert _refusal_message(refused) == \
            "oracle scale exceeded: more than 967 objects"
    assert tallied == []


def _no_count(*args):
    raise AssertionError("counted")


_UNDER_THE_ROOF = [
    lambda: enumerate_tilings(2, 6),
    lambda: enumerate_tilings(3, 5, TilingFilter(max_white_len=2)),
    lambda: enumerate_tilings(2, 4, TilingFilter(suffix_white_tiles=2)),
    lambda: enumerate_tilings(4, 8, TilingFilter(palindromic=True,
                                                 forbidden_white_len=1)),
    lambda: enumerate_compositions(12, forbidden_part=2),
    lambda: enumerate_compositions(10, ceiling=None),
    lambda: enumerate_palindromic_compositions(16, forbidden_part=3),
    lambda: orc.part_occurrences(9, 2),
    lambda: orc.part_multiplicity_census(9),
    lambda: orc.count_by_part_multiplicity(9, 1),
    lambda: orc.run_census(9, max_part=3),
    lambda: orc.total_parts(9),
    lambda: orc.largest_part_census(9),
    lambda: orc.consecutive_part_census(9, 1),
    lambda: orc.tile_count_total(2, 6),
]


@pytest.mark.parametrize("walk", _UNDER_THE_ROOF)
def test_listing_and_census_under_the_roof_never_count(store, walk):
    expected = walk()
    store.clear()
    orc._CENSUSES.clear()
    with patch.object(orc, "_count_leaves", _no_count):
        assert walk() == expected
    assert store == {}


@pytest.mark.parametrize("listing, count, args, family", [
    # Families whose roof is their size: 2**(n - 1) compositions, the r + 1
    # tilings of white total 1, and the one tiling of white total 0.
    (enumerate_compositions, orc.count_compositions, (9,), (0, 9)),
    (enumerate_tilings, count_tilings, (5, 1), (5, 1)),
    (enumerate_tilings, count_tilings, (3, 0), (3, 0)),
])
def test_family_just_past_its_roof_refuses_at_the_ceiling(
    store, listing, count, args, family
):
    size = count(*args, ceiling=None)
    assert orc._roof(*family, 10 ** 18) == size
    with patch.object(orc, "_count_leaves", _no_count):
        assert len(listing(*args, ceiling=size)) == size
    store.clear()
    orc._CENSUSES.clear()
    for _ in range(2):  # on a miss, and on a kept count
        assert _refusal_message(lambda: listing(*args, ceiling=size - 1)) == \
            f"oracle scale exceeded: more than {size - 1} objects"


def test_listing_past_its_roof_is_counted_before_it_is_built(store, monkeypatch):
    # 89 compositions of 10 into parts 1 and 2 under a roof of 512: a
    # ceiling between the two counts the family and lists it, one below
    # its size refuses it, and neither builds an object first.
    built = []
    walk = orc._walk

    def recorded(*args):
        built.append(args)
        return walk(*args)

    monkeypatch.setattr(orc, "_walk", recorded)
    assert len(enumerate_compositions(10, max_part=2, ceiling=511)) == 89
    assert store == {(0, 10, (1, 2)): 89}
    built.clear()
    store.clear()
    for _ in range(2):
        assert _refusal_message(
            lambda: enumerate_compositions(10, max_part=2, ceiling=88)) == \
            "oracle scale exceeded: more than 88 objects"
    assert built == []
    # A palindrome stream past its roof is counted block by block, and the
    # blocks after the refusing one are never drawn.
    drawn = []
    blocks = orc._palindrome_blocks

    def drawing(*args):
        for block in blocks(*args):
            drawn.append(block)
            yield block

    monkeypatch.setattr(orc, "_palindrome_blocks", drawing)
    size = len(enumerate_palindromic_compositions(20, forbidden_part=1,
                                                  ceiling=None))
    drawn.clear()
    built.clear()
    store.clear()
    with pytest.raises(OracleScaleError, match="more than 3 objects"):
        enumerate_palindromic_compositions(20, forbidden_part=1, ceiling=3)
    assert 0 < len(drawn) < 11 and size > 3
    assert built == []


@pytest.mark.parametrize("lengths", [(1, 2), (1, 3), (1, 2, 5), (1, 4, 6),
                                     (1,), (1, 7)])
def test_filtered_floor_is_a_lower_bound(lengths):
    # The floor never passes a family's walked size, for the whole lengths
    # and for the first one or two of them.
    for reds in range(6):
        for white in range(13):
            size = orc._count(reds, white, lengths, None)
            for head in (lengths, lengths[:2], lengths[:1]):
                orc._refuse_past_floor(reds, white, head, size)
                orc._refuse_past_floor(reds, white, head, size + 4, 4)
            if size:
                with pytest.raises(OracleScaleError):
                    orc._count(reds, white, lengths, size - 1)


def test_unrestricted_floor_is_a_lower_bound(store):
    # With every length up to white allowed, the floor also sums the
    # tilings with exactly t white tiles over t; it never passes the walked
    # size of the family.
    for reds in range(8):
        for white in range(1, 15 - reds):
            every = tuple(range(1, white + 1))
            size = orc._count(reds, white, every, None)
            orc._refuse_past_floor(reds, white, every, size)
            orc._refuse_past_floor(reds, white, every, size + 4, 4)
            with pytest.raises(OracleScaleError):
                orc._count(reds, white, every, size - 1)


def test_unrestricted_floor_refuses_exactly_past_the_walked_size():
    # The classes by number of white tiles are disjoint and cover the
    # family, so the floor refuses at one below its size, also through the
    # objects seen before, and not at its size.
    for reds in range(13):
        for white in range(13 - reds):
            every = tuple(range(1, white + 1))
            size = sum(1 for _ in orc._walk(reds, white, every))
            orc._refuse_past_floor(reds, white, every, size)
            orc._refuse_past_floor(reds, white, every, size + 4, 4)
            for ceiling, seen in ((size - 1, 0), (size + 3, 4)):
                with pytest.raises(OracleScaleError,
                                   match=f"more than {ceiling} objects"):
                    orc._refuse_past_floor(reds, white, every, ceiling, seen)


def test_unrestricted_floor_refuses_large_parents_before_any_tally(
    store, monkeypatch
):
    # These parents have 38-185 M tilings and pass the other floors at the
    # default ceiling; the summed floor refuses them at once.  Of (2, 20)'s
    # 38,928,384 tilings, at most 7,205,484 have one number of white tiles.
    with patch.object(orc, "_tally", _no_count):
        for reds, white in ((3, 20), (2, 22), (5, 17), (4, 18), (2, 20)):
            assert _refusal_message(lambda: count_tilings(reds, white)) == \
                "oracle scale exceeded: more than 10000000 objects"
            assert orc._parent(reds, white, None) is None
    assert orc._CENSUSES == {}  # a refused parent keeps nothing
    # A small family of a refused parent walks only its own leaves.
    tallied = _recorded_tallies(monkeypatch)
    assert count_tilings(3, 20, TilingFilter(max_white_len=2,
                                             forbidden_white_len=1)) == 286
    assert tallied == [(3, 20, "own")]


def test_small_family_of_a_parent_just_past_the_ceiling_tallies_no_parent(
    store, monkeypatch
):
    # The parent (2, 20) is 38,928,384 tilings, past the default ceiling
    # by less than any single class of white tiles shows: its exact floor
    # refuses it, so the 66 tilings of white tiles 2 are the only leaves
    # walked, not the 10**7 of a refused parent tally first.
    tallied = _recorded_tallies(monkeypatch)
    for _ in range(2):
        assert count_tilings(2, 20, TilingFilter(max_white_len=2,
                                                 forbidden_white_len=1)) == 66
        assert tallied == [(2, 20, "own")]
    assert orc._CENSUSES == {}


def test_each_statistic_is_tallied_once_per_family(store, monkeypatch):
    walks = []
    tally, run_leaves = orc._tally, orc._run_leaves

    def tallied(reds, white, lengths, step, *args):
        walks.append((step.__qualname__, reds, white, lengths))
        return tally(reds, white, lengths, step, *args)

    def ran(n, lengths):
        walks.append(("runs", 0, n, lengths))
        return run_leaves(n, lengths)

    monkeypatch.setattr(orc, "_tally", tallied)
    monkeypatch.setattr(orc, "_run_leaves", ran)
    n = 9
    bounded = TilingFilter(max_white_len=3)

    def read():
        return [orc.largest_part_census(n), orc.run_census(n),
                orc.part_multiplicity_census(n), orc.tile_count_total(2, 6),
                orc.part_occurrences(n, 2), count_tilings(2, 6, bounded)]

    first = read()
    expected = [dict(value) if isinstance(value, dict) else value
                for value in first]
    # A returned census is a copy: changing it leaves the kept one as is.
    for census in first[:3]:
        census[1, 1] = -1
    assert read() == expected
    assert len(walks) == len(set(walks)) == 5
    assert {name.split(".")[0] for name, *_ in walks} == {
        "_largest_step", "runs", "_fold_step", "_white_step", "_used_step"}


def test_filtered_floor_refuses_before_any_walk(store):
    # Neither the family nor its parent is tallied or walked.
    with patch.object(orc, "_count_leaves", _no_count), \
            patch.object(orc, "_tally", _no_count), \
            patch.object(orc, "_walk", _no_count):
        for refused in (
            lambda: orc.count_compositions(60, forbidden_part=3, ceiling=1000),
            lambda: orc.count_compositions(60, max_part=2, ceiling=10 ** 6),
            lambda: enumerate_compositions(40, allowed_parts=(1, 2, 9),
                                           ceiling=1000),
            lambda: count_tilings(2, 100, TilingFilter(max_white_len=1),
                                  ceiling=1000),
            lambda: count_tilings(1, 60, TilingFilter(forbidden_white_len=3,
                                                      palindromic=True),
                                  ceiling=1000),
            lambda: enumerate_tilings(0, 40, TilingFilter(forbidden_white_len=2,
                                                          suffix_white_tiles=3),
                                      ceiling=1000),
        ):
            assert _refusal_message(refused).startswith(
                "oracle scale exceeded: more than ")
    assert store == {}
    # A floor only stands for objects that exist: an odd palindrome of odd
    # white total, or a suffix of unit tiles none may use, refuses nothing.
    for empty in (TilingFilter(palindromic=True),
                  TilingFilter(forbidden_white_len=1, suffix_white_tiles=2)):
        r, n = (1, 61) if empty.palindromic else (0, 0)
        assert count_tilings(r, n, empty, ceiling=0) == 0
        assert enumerate_tilings(r, n, empty, ceiling=0) == []


@pytest.mark.parametrize("refused", [
    lambda: orc.count_compositions(10 ** 8),
    lambda: orc.count_compositions(10 ** 8, forbidden_part=3),
    lambda: count_tilings(2, 10 ** 8, TilingFilter(forbidden_white_len=3)),
    lambda: enumerate_palindromic_compositions(10 ** 8, forbidden_part=4),
    lambda: orc.run_census(10 ** 8, max_part=9),
])
def test_huge_family_is_refused_before_its_lengths_are_built(refused):
    # 10**8 lengths would take about 3 GB; the floor refuses first.
    tracemalloc.start()
    try:
        assert _refusal_message(refused) == \
            f"oracle scale exceeded: more than {orc.DEFAULT_CEILING} objects"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_objects_past_the_squares_bound_are_refused(monkeypatch):
    # A family with no floor to refuse by, however few its objects.
    for refused in (
        lambda: orc.count_compositions(10 ** 8, max_part=1),
        lambda: orc.count_compositions(10 ** 8, no_multiple_of=1),
        lambda: enumerate_compositions(10 ** 8, allowed_parts=(2,)),
        lambda: count_tilings(10 ** 8, 0),
    ):
        assert _refusal_message(refused) == \
            f"oracle scale exceeded: more than {orc.SQUARES_BOUND} squares"
    monkeypatch.setattr(orc, "SQUARES_BOUND", 40)
    assert enumerate_compositions(40, max_part=1) == [(1,) * 40]
    assert count_tilings(3, 37, TilingFilter(max_white_len=1), ceiling=None) \
        == 9880
    for refused in (lambda: enumerate_compositions(41, max_part=1),
                    lambda: count_tilings(3, 38, TilingFilter(max_white_len=1),
                                          ceiling=None),
                    lambda: orc.run_census(41, max_part=1)):
        assert _refusal_message(refused) == \
            "oracle scale exceeded: more than 40 squares"


def test_family_without_a_floor_refuses_after_about_ceiling_leaves(store):
    # Parts of at least 2 give no floor: the walk counts until it passes.
    tracemalloc.start()
    try:
        assert _refusal_message(lambda: orc.count_compositions(
            5000, forbidden_part=1, ceiling=1000)) == \
            "oracle scale exceeded: more than 1000 objects"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
