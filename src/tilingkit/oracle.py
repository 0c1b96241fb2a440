"""Brute-force enumeration of two-toned tilings and integer compositions.

This module is the ground-truth side of the library.  Every count here is
obtained by visiting actual combinatorial objects one at a time; nothing
is shared with the closed forms and recurrences in :mod:`tilingkit.sequences`
or :mod:`tilingkit.compstats`, so agreement between the two sides is a real
check and not a tautology.

Objects
-------
A *two-toned tiling* covers a unit-height strip with white tiles of any
positive length and red unit squares.  Red squares are indistinguishable:
two tilings are equal exactly when their tile sequences are equal.  A
*composition* of ``n`` is an ordered tuple of positive integers summing to
``n``; the empty tuple is the single composition of 0.

Internally a tiling is a tuple of integer codes, ``0`` for a red square and
``k >= 1`` for a white tile of length ``k``.  Enumeration order is
lexicographic on these codes (red sorts before white, shorter white before
longer), which keeps golden outputs stable.

Every enumerating function takes a ``ceiling`` argument and raises
:class:`OracleScaleError` as soon as more than ``ceiling`` objects would be
produced.  All functions are pure; concurrent use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

DEFAULT_CEILING = 10_000_000

Composition = tuple[int, ...]


class OracleScaleError(RuntimeError):
    """Enumeration would exceed the configured object ceiling."""


def _guard(count: int, ceiling: int | None) -> None:
    if ceiling is not None and count > ceiling:
        raise OracleScaleError(
            f"oracle scale exceeded: more than {ceiling} objects"
        )


@dataclass(frozen=True, order=True)
class Tile:
    """One tile: ``kind`` is ``"R"`` (red unit square) or ``"W"`` (white).

    Red tiles always have length 1; white tiles have any length >= 1.
    """

    kind: str
    length: int

    def __post_init__(self) -> None:
        if self.kind not in ("R", "W"):
            raise ValueError(f"unknown tile kind {self.kind!r}")
        if self.length < 1:
            raise ValueError("tile length must be positive")
        if self.kind == "R" and self.length != 1:
            raise ValueError("red tiles have length 1")

    @property
    def code(self) -> int:
        return 0 if self.kind == "R" else self.length

    def __str__(self) -> str:
        return "R" if self.kind == "R" else f"W{self.length}"


@dataclass(frozen=True)
class TwoTonedTiling:
    """An ordered sequence of tiles covering a strip of unit cells."""

    tiles: tuple[Tile, ...]

    @classmethod
    def from_codes(cls, codes: Sequence[int]) -> "TwoTonedTiling":
        return cls(
            tuple(
                Tile("R", 1) if c == 0 else Tile("W", c) for c in codes
            )
        )

    @property
    def codes(self) -> tuple[int, ...]:
        return tuple(t.code for t in self.tiles)

    @property
    def white_total(self) -> int:
        return sum(t.length for t in self.tiles if t.kind == "W")

    @property
    def red_count(self) -> int:
        return sum(1 for t in self.tiles if t.kind == "R")

    @property
    def grid_length(self) -> int:
        return self.white_total + self.red_count

    def is_palindromic(self) -> bool:
        return self.tiles == self.tiles[::-1]

    def __str__(self) -> str:
        return " ".join(str(t) for t in self.tiles) if self.tiles else "(empty)"


@dataclass(frozen=True)
class Run:
    """A maximal block of equal consecutive parts inside a composition."""

    value: int
    length: int
    start_index: int


@dataclass(frozen=True)
class TilingFilter:
    """Restrictions applied while enumerating tilings.

    ``max_white_len`` keeps white lengths in ``1..k``; ``forbidden_white_len``
    excludes one white length; ``suffix_white_tiles = s`` asks for tilings of
    a strip of length ``n + r + s`` whose final ``s`` tiles are all white
    (the white total becomes ``n + s``); ``palindromic`` keeps only tilings
    whose tile sequence reads the same in both directions.
    """

    max_white_len: int | None = None
    forbidden_white_len: int | None = None
    suffix_white_tiles: int = 0
    palindromic: bool = False

    def __post_init__(self) -> None:
        if self.max_white_len is not None and self.max_white_len < 1:
            raise ValueError("max_white_len must be >= 1")
        if self.forbidden_white_len is not None and self.forbidden_white_len < 1:
            raise ValueError("forbidden_white_len must be >= 1")
        if self.suffix_white_tiles < 0:
            raise ValueError("suffix_white_tiles must be >= 0")
        if self.palindromic and self.suffix_white_tiles:
            raise ValueError(
                "palindromic and suffix_white_tiles cannot be combined"
            )


def _white_ok(length: int, max_len: int | None, forbidden: int | None) -> bool:
    if max_len is not None and length > max_len:
        return False
    return length != forbidden


def _iter_codes(
    reds: int, white: int, max_len: int | None, forbidden: int | None
) -> Iterator[tuple[int, ...]]:
    # Recursive, lexicographic: red (code 0) first, then whites ascending.
    if reds == 0 and white == 0:
        yield ()
        return
    if reds:
        for rest in _iter_codes(reds - 1, white, max_len, forbidden):
            yield (0,) + rest
    top = white if max_len is None else min(white, max_len)
    for length in range(1, top + 1):
        if length == forbidden:
            continue
        for rest in _iter_codes(reds, white - length, max_len, forbidden):
            yield (length,) + rest


def _count_codes(
    reds: int,
    white: int,
    max_len: int | None,
    forbidden: int | None,
    ceiling: int | None,
) -> int:
    # Iterative leaf count over the same tree _iter_codes walks.  States are
    # packed into single ints so the hot loop touches nothing heavier.
    if reds < 0 or white < 0:
        return 0
    shift = white + 1
    total = 0
    stack = [reds * shift + white]
    pop = stack.pop
    push = stack.append
    while stack:
        state = pop()
        if state == 0:
            total += 1
            if ceiling is not None and total > ceiling:
                raise OracleScaleError(
                    f"oracle scale exceeded: more than {ceiling} objects"
                )
            continue
        w = state % shift
        if state >= shift:
            push(state - shift)
        top = w if max_len is None or max_len > w else max_len
        if forbidden is None:
            for length in range(1, top + 1):
                push(state - length)
        else:
            for length in range(1, top + 1):
                if length != forbidden:
                    push(state - length)
    return total


def _iter_suffix_codes(
    reds: int,
    white: int,
    s: int,
    max_len: int | None,
    forbidden: int | None,
) -> Iterator[tuple[int, ...]]:
    # Body with any mix of tiles, followed by exactly s white tiles.
    if s == 0:
        yield from _iter_codes(reds, white, max_len, forbidden)
        return
    for tail_total in range(s, white + 1):
        for tail in _iter_exact_parts(tail_total, s, max_len, forbidden):
            for body in _iter_codes(reds, white - tail_total, max_len, forbidden):
                yield body + tail


def _iter_exact_parts(
    total: int, parts: int, max_len: int | None, forbidden: int | None
) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    top = total - parts + 1 if max_len is None else min(total - parts + 1, max_len)
    for first in range(1, top + 1):
        if first == forbidden:
            continue
        for rest in _iter_exact_parts(total - first, parts - 1, max_len, forbidden):
            yield (first,) + rest


def _count_suffix(
    reds: int,
    white: int,
    s: int,
    max_len: int | None,
    forbidden: int | None,
    ceiling: int | None,
) -> int:
    if s == 0:
        return _count_codes(reds, white, max_len, forbidden, ceiling)
    total = 0
    for tail_total in range(s, white + 1):
        for _tail in _iter_exact_parts(tail_total, s, max_len, forbidden):
            total += _count_codes(
                reds,
                white - tail_total,
                max_len,
                forbidden,
                None if ceiling is None else ceiling - total,
            )
            _guard(total, ceiling)
    return total


def _iter_palindromic_codes(
    reds: int, white: int, max_len: int | None, forbidden: int | None
) -> Iterator[tuple[int, ...]]:
    # A palindromic tile sequence is a half, an optional center tile, and the
    # mirrored half.  Odd red counts force a red center; white pairs split the
    # white total evenly, any remainder is a central white tile.
    if reds % 2:
        if white % 2:
            return
        for half in _iter_codes(reds // 2, white // 2, max_len, forbidden):
            yield half + (0,) + half[::-1]
        return
    half_reds = reds // 2
    for half_white in range(white // 2 + 1):
        center = white - 2 * half_white
        if center == 0:
            for half in _iter_codes(half_reds, half_white, max_len, forbidden):
                yield half + half[::-1]
        elif _white_ok(center, max_len, forbidden):
            for half in _iter_codes(half_reds, half_white, max_len, forbidden):
                yield half + (center,) + half[::-1]


def enumerate_tilings(
    r: int,
    n: int,
    filter: TilingFilter | None = None,
    *,
    ceiling: int | None = DEFAULT_CEILING,
) -> list[TwoTonedTiling]:
    """All tilings with ``r`` red squares and white total ``n``, each once.

    With ``filter.suffix_white_tiles = s`` the strip is ``n + r + s`` cells
    long (white total ``n + s``) and the last ``s`` tiles are white.  The
    result is sorted lexicographically on tile codes.
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be nonnegative")
    f = filter or TilingFilter()
    if f.palindromic:
        it: Iterable[tuple[int, ...]] = _iter_palindromic_codes(
            r, n, f.max_white_len, f.forbidden_white_len
        )
    elif f.suffix_white_tiles:
        it = _iter_suffix_codes(
            r, n + f.suffix_white_tiles, f.suffix_white_tiles,
            f.max_white_len, f.forbidden_white_len,
        )
    else:
        it = _iter_codes(r, n, f.max_white_len, f.forbidden_white_len)
    out: list[tuple[int, ...]] = []
    for codes in it:
        out.append(codes)
        _guard(len(out), ceiling)
    out.sort()
    return [TwoTonedTiling.from_codes(c) for c in out]


def count_tilings(
    r: int,
    n: int,
    filter: TilingFilter | None = None,
    *,
    ceiling: int | None = DEFAULT_CEILING,
) -> int:
    """Number of tilings :func:`enumerate_tilings` would return.

    The count is produced by walking the same enumeration tree leaf by
    leaf, never by a formula, so it is usable as an independent oracle.
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be nonnegative")
    f = filter or TilingFilter()
    if f.palindromic:
        total = 0
        for _ in _iter_palindromic_codes(r, n, f.max_white_len, f.forbidden_white_len):
            total += 1
            _guard(total, ceiling)
        return total
    if f.suffix_white_tiles:
        return _count_suffix(
            r, n + f.suffix_white_tiles, f.suffix_white_tiles,
            f.max_white_len, f.forbidden_white_len, ceiling,
        )
    return _count_codes(r, n, f.max_white_len, f.forbidden_white_len, ceiling)


def enumerate_palindromic_tilings(
    r: int, n: int, *, ceiling: int | None = DEFAULT_CEILING
) -> list[TwoTonedTiling]:
    """Tilings with ``r`` reds and white total ``n`` that read the same both ways."""
    return enumerate_tilings(r, n, TilingFilter(palindromic=True), ceiling=ceiling)


def count_palindromic_tilings(
    r: int, n: int, *, ceiling: int | None = DEFAULT_CEILING
) -> int:
    return count_tilings(r, n, TilingFilter(palindromic=True), ceiling=ceiling)


def _part_range(
    remaining: int,
    max_part: int | None,
    forbidden_part: int | None,
    no_multiple_of: int | None,
) -> Iterator[int]:
    top = remaining if max_part is None else min(remaining, max_part)
    for p in range(1, top + 1):
        if p == forbidden_part:
            continue
        if no_multiple_of is not None and p % no_multiple_of == 0:
            continue
        yield p


def _iter_compositions(
    n: int,
    max_part: int | None,
    forbidden_part: int | None,
    allowed_parts: tuple[int, ...] | None,
    no_multiple_of: int | None,
) -> Iterator[Composition]:
    if n == 0:
        yield ()
        return
    if allowed_parts is not None:
        firsts: Iterable[int] = (p for p in allowed_parts if p <= n)
    else:
        firsts = _part_range(n, max_part, forbidden_part, no_multiple_of)
    for first in firsts:
        for rest in _iter_compositions(
            n - first, max_part, forbidden_part, allowed_parts, no_multiple_of
        ):
            yield (first,) + rest


def _check_composition_args(
    n: int, allowed_parts: Iterable[int] | None, no_multiple_of: int | None
) -> tuple[int, ...] | None:
    """Reject arguments no composition walk can honour; return the allowed
    parts as a sorted tuple (or None)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if no_multiple_of is not None and no_multiple_of < 1:
        raise ValueError("no_multiple_of must be positive")
    if allowed_parts is None:
        return None
    allowed = tuple(sorted(set(allowed_parts)))
    if any(p < 1 for p in allowed):
        raise ValueError("allowed parts must be positive")
    return allowed


def enumerate_compositions(
    n: int,
    *,
    max_part: int | None = None,
    forbidden_part: int | None = None,
    allowed_parts: Iterable[int] | None = None,
    no_multiple_of: int | None = None,
    ceiling: int | None = DEFAULT_CEILING,
) -> list[Composition]:
    """Compositions of ``n`` under one optional constraint, in lexicographic order."""
    allowed = _check_composition_args(n, allowed_parts, no_multiple_of)
    out: list[Composition] = []
    for comp in _iter_compositions(
        n, max_part, forbidden_part, allowed, no_multiple_of
    ):
        out.append(comp)
        _guard(len(out), ceiling)
    return out


def count_compositions(
    n: int,
    *,
    max_part: int | None = None,
    forbidden_part: int | None = None,
    allowed_parts: Iterable[int] | None = None,
    no_multiple_of: int | None = None,
    ceiling: int | None = DEFAULT_CEILING,
) -> int:
    allowed = _check_composition_args(n, allowed_parts, no_multiple_of)
    total = 0
    for _ in _iter_compositions(
        n, max_part, forbidden_part, allowed, no_multiple_of
    ):
        total += 1
        _guard(total, ceiling)
    return total


def enumerate_palindromic_compositions(
    n: int,
    *,
    forbidden_part: int | None = None,
    ceiling: int | None = DEFAULT_CEILING,
) -> list[Composition]:
    """Palindromic compositions of ``n``, built as half + optional center."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Composition] = []
    for half_total in range(n // 2 + 1):
        center = n - 2 * half_total
        if center != 0 and center == forbidden_part:
            continue
        middle = (center,) if center else ()
        for half in _iter_compositions(half_total, None, forbidden_part, None, None):
            out.append(half + middle + half[::-1])
            _guard(len(out), ceiling)
    out.sort()
    return out


def count_palindromic_compositions(
    n: int, *, forbidden_part: int | None = None
) -> int:
    total = 0
    for half_total in range(n // 2 + 1):
        center = n - 2 * half_total
        if center != 0 and center == forbidden_part:
            continue
        for _ in _iter_compositions(half_total, None, forbidden_part, None, None):
            total += 1
    return total


def runs_of(parts: Sequence[int]) -> list[Run]:
    """Maximal runs of equal consecutive parts, in order of appearance.

    Concatenating the runs reproduces the composition; the number of parts
    equals the sum of run lengths.
    """
    runs: list[Run] = []
    i = 0
    m = len(parts)
    while i < m:
        j = i
        while j + 1 < m and parts[j + 1] == parts[i]:
            j += 1
        runs.append(Run(value=parts[i], length=j - i + 1, start_index=i))
        i = j + 1
    return runs


# ---------------------------------------------------------------------------
# Exhaustive statistics used as oracle twins for the formula modules.
# Each one walks real objects and aggregates; none consults a closed form.
# ---------------------------------------------------------------------------

def part_occurrences(n: int, k: int, *, max_part: int | None = None) -> int:
    """Total number of times ``k`` appears as a part over all compositions."""
    total = 0
    for comp in _iter_compositions(n, max_part, None, None, None):
        total += sum(1 for p in comp if p == k)
    return total


def part_multiplicity_census(
    n: int, *, max_part: int | None = None
) -> dict[tuple[int, int], int]:
    """Counts of compositions keyed by ``(part value, multiplicity >= 1)``.

    One enumeration covers every part value at once; pair with the total
    composition count to recover the multiplicity-zero classes.
    """
    census: dict[tuple[int, int], int] = {}
    for comp in _iter_compositions(n, max_part, None, None, None):
        seen: dict[int, int] = {}
        for part in comp:
            seen[part] = seen.get(part, 0) + 1
        for part, mult in seen.items():
            key = (part, mult)
            census[key] = census.get(key, 0) + 1
    return census


def count_by_part_multiplicity(
    n: int, k: int, *, max_part: int | None = None
) -> dict[int, int]:
    """How many compositions of ``n`` contain ``k`` exactly ``p`` times, per ``p``.

    Sliced out of :func:`part_multiplicity_census`; the ``p = 0`` class is
    whatever the total does not account for.
    """
    census = part_multiplicity_census(n, max_part=max_part)
    hist = {
        mult: count for (part, mult), count in census.items() if part == k
    }
    total = count_compositions(n, max_part=max_part, ceiling=None)
    hist[0] = total - sum(hist.values())
    return hist


def run_census(n: int, *, max_part: int | None = None) -> dict[tuple[int, int], int]:
    """Counts of runs keyed by ``(part value, run length)`` over all compositions."""
    census: dict[tuple[int, int], int] = {}
    for comp in _iter_compositions(n, max_part, None, None, None):
        for run in runs_of(comp):
            key = (run.value, run.length)
            census[key] = census.get(key, 0) + 1
    return census


def total_parts(n: int) -> int:
    """Number of parts summed over all compositions of ``n``."""
    return sum(len(c) for c in _iter_compositions(n, None, None, None, None))


def largest_part_census(n: int) -> dict[tuple[int, int], int]:
    """Counts of compositions keyed by ``(largest part, its multiplicity)``."""
    census: dict[tuple[int, int], int] = {}
    for comp in _iter_compositions(n, None, None, None, None):
        if not comp:
            continue
        top = max(comp)
        key = (top, comp.count(top))
        census[key] = census.get(key, 0) + 1
    return census


def consecutive_part_census(n: int, k: int) -> dict[int, int]:
    """Compositions of ``n`` whose parts ``k`` all sit in one block, by count of ``k``.

    A composition with no part ``k`` is counted under multiplicity 0.
    """
    census: dict[int, int] = {}
    for comp in _iter_compositions(n, None, None, None, None):
        positions = [i for i, p in enumerate(comp) if p == k]
        if positions and positions[-1] - positions[0] + 1 != len(positions):
            continue
        census[len(positions)] = census.get(len(positions), 0) + 1
    return census


def tile_count_total(r: int, n: int) -> int:
    """Total number of tiles over every tiling with ``r`` reds and white total ``n``."""
    return sum(len(codes) for codes in _iter_codes(r, n, None, None))


def replaced_compositions_oracle(n: int) -> int:
    """For every part ``j`` occurring anywhere, add the number of compositions of ``j``.

    The per-part counts are themselves enumerated, once per distinct part.
    """
    inner = {j: count_compositions(j) for j in range(1, n + 1)}
    total = 0
    for comp in _iter_compositions(n, None, None, None, None):
        for j in comp:
            total += inner[j]
    return total


def replaced_parts_oracle(n: int) -> int:
    """For every part ``j`` occurring anywhere, add the total part count of ``j``."""
    inner = {j: total_parts(j) for j in range(1, n + 1)}
    total = 0
    for comp in _iter_compositions(n, None, None, None, None):
        for j in comp:
            total += inner[j]
    return total
