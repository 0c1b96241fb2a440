"""Brute-force enumeration of two-toned tilings and integer compositions.

This module is the ground-truth side of the library.  Every count here is
a number of visited objects; nothing is shared with the closed forms and
recurrences in :mod:`tilingkit.sequences` or :mod:`tilingkit.compstats`, so
agreement between the two sides is a real check and not a tautology.

Objects
-------
A *two-toned tiling* covers a unit-height strip with white tiles of any
positive length and red unit squares.  Red squares are indistinguishable:
two tilings are equal exactly when their tile sequences are equal.  A
*composition* of ``n`` is an ordered tuple of positive integers summing to
``n``; the empty tuple is the single composition of 0.

Internally a tiling is a tuple of integer codes, ``0`` for a red square and
``k >= 1`` for a white tile of length ``k``; a composition is a tiling with
no red squares, its parts the white tiles.  Every object is a leaf of one
tree whose nodes place a red square first, then each allowed white length
in ascending order; every filter reduces, once per call, to the sorted
tuple of allowed lengths.  Three walks cover that tree:

- the listing, :func:`_walk`, yields the leaves in lexicographic order (red
  before white, shorter white before longer), which keeps golden outputs
  stable.  A node with at most six squares left keeps the codes of every
  leaf below it for the rest of the walk, so near the leaves it runs no
  loop per node; every leaf is still a tuple built for it.  Palindromes
  are a walked half, an optional centre and the mirrored half; suffix
  tilings a walked body and a tail of ``s`` white tiles.  It serves only
  the listings, which run with the cyclic garbage collector paused (their
  tuples, lists and tilings hold no cycles) and make each tiling without
  the frozen ``__init__``.
- the marked census, :func:`_tally`, files each leaf under the final
  *marks*, one int, that its path carried down from the root, one
  ``step`` per tile; a node is its state and marks packed into one int.
  As in the listing, a node with at most six squares left keeps the cells
  of the leaves below it, one entry per leaf; a node above those adds 1
  to every cell its kept children hold each time it is popped, so every
  leaf still adds exactly 1 and no subtree count is kept.  Each census is
  a step (see ``_STATISTICS``): the used white lengths and trailing white
  tiles of a tiling; the part fold, from which part occurrences,
  multiplicities, consecutive blocks, part totals and the replacement
  sums are read; the largest part and its copies; the white tiles.  A
  plain count, :func:`_count_leaves`, files every leaf under marks 0.
- the run census, :func:`_run_leaves`, carries the last part and the
  length of its open run, and credits each maximal run once per leaf, to
  its own ``(value, length)``, where it closes: at a child with another
  part or at the leaf.  A node with at most six squares left keeps an
  entry per leaf and run that closes below it; a node above those adds 1
  to each entry its kept children hold, and to its own run once per leaf
  below those with another part, each time it is popped, and closes its
  run at inner children with another part with the leaves walked below
  them.

No walk consults a formula: every count, cell and credit is a number of
visited leaves.  The counters are the guard.  A count or a census raises
:class:`OracleScaleError` as soon as it passes ``ceiling``, and every
listing and every census is admitted by its roof, or counted, before it is
walked, so a family past ``ceiling`` is refused before any object is
built.  The roof is the exact size of the family with every length allowed,
its tilings with t white tiles summed over t (1 for white 0), so it bounds
any family of its reds and white total from above: when the roofs of a
listing's blocks sum to at most ``ceiling``, it is walked once with no
guard count.  With lengths that hold 1, a family past its roof is refused
before its walk when every length is allowed, since it is its roof, and
otherwise when its floor passes the ceiling: the larger of C(white +
reds, reds) and 2**(white // m) for the next allowed length m.  Neither
bound is a count: the floor only refuses, and the roof only refuses or
skips a guard walk.  A family covering more than ``SQUARES_BOUND``
squares is refused before its lengths are built (as past the ceiling when
its floor, read off its first two lengths, already passes it), and a white
total that is not a multiple of the gcd of the lengths has no leaves, so no
walk starts.  The functions that take no ``ceiling``
(``count_palindromic_compositions`` and the census helpers) refuse past
``DEFAULT_CEILING``, read when they are called.

Each family is walked once per process, into one of two module-level
stores: its count by ``(reds, white, lengths, s)`` in ``_COUNTS``, and each
census by ``(statistic, reds, white, top)`` in ``_CENSUSES``, over the
white lengths 1..top, in the form its row of ``_STATISTICS`` keeps (used
lengths, part fold, white tiles, largest part, runs): the part fold
unpacked per part and multiplicity, every other census as walked.  Readers
sum kept cells, and a public census is a copy of the kept one.  Every count
is :func:`_count`'s, and reads a census: a family with allowed lengths A
and a white suffix of ``s`` tiles (0 but for :func:`count_tilings`) is the
sum of the cells of its *parent*, the unrestricted family of its reds and
white total, with no used length outside A and at least ``s`` trailing
white tiles.  A palindrome family reads one parent per block.  The parent
rule: after the family's own floor, a parent that is not kept is tallied
under the call's ceiling unless its roof, its exact size, passes that
ceiling; the family then walks its own leaves, a suffix family one block
per tail.  No tally refuses a parent, and a refused one keeps nothing.
So a family under the ceiling whose parent is far past it is still
counted, and the rule reads only the ceiling and the roof.  A kept
count refuses exactly where its walk would have, against the ceiling of the
call that reads it, and a census helper counts its family that way before
it reads a kept census, unless its roof is already at most that ceiling.
A refused walk or count keeps nothing.  Concurrent use needs no locking: a
race only walks a family twice and stores the same cells.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, wraps
from itertools import chain, repeat
from math import gcd
from typing import Any, Callable, Iterable, Iterator, Sequence

DEFAULT_CEILING = 10_000_000
# The most squares (red squares plus white total) an object may cover.  A
# walk takes a node per square on the way to each leaf, and a listing builds
# a tuple of up to that many codes per object, so a family past it is
# refused before its lengths are built: on a 2-vCPU host, listing the one
# composition of 10,000 into ones takes about 0.25 s, of 100,000 about 20 s.
SQUARES_BOUND = 10_000

Composition = tuple[int, ...]
Codes = tuple[int, ...]


class OracleScaleError(RuntimeError):
    """Enumeration would exceed the object ceiling or the squares bound."""


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

    def __str__(self) -> str:
        return "R" if self.kind == "R" else f"W{self.length}"


@cache
def _tile(code: int) -> Tile:
    """The one shared tile of a code; tiles are frozen, so sharing is safe."""
    return Tile("R", 1) if code == 0 else Tile("W", code)


@dataclass(frozen=True, slots=True)
class TwoTonedTiling:
    """An ordered sequence of tiles covering a strip of unit cells.

    The tiling is stored as its tile codes; :attr:`tiles` builds the
    :class:`Tile` objects on demand.  A listing holds one per object, so
    the class keeps no instance dict: 40 bytes less per tiling.  A listing
    makes its tilings with :func:`_tilings`, the same objects at about half
    the cost of the frozen ``__init__``.
    """

    codes: Codes

    @classmethod
    def from_codes(cls, codes: Sequence[int]) -> "TwoTonedTiling":
        return cls(tuple(codes))

    @property
    def tiles(self) -> tuple[Tile, ...]:
        return tuple(map(_tile, self.codes))

    @property
    def white_total(self) -> int:
        return sum(self.codes)

    @property
    def red_count(self) -> int:
        return self.codes.count(0)

    def __str__(self) -> str:
        return " ".join(map(str, self.tiles)) if self.codes else "(empty)"


_set_codes = TwoTonedTiling.codes.__set__


def _tilings(listed: list[Codes]) -> list[TwoTonedTiling]:
    """``[TwoTonedTiling(codes) for codes in listed]``, each made by
    ``object.__new__`` with its slot set directly: no Python frame per
    tiling, where the frozen ``__init__`` runs one and sets the slot
    through ``object.__setattr__``."""
    tilings = list(map(object.__new__, repeat(TwoTonedTiling, len(listed))))
    for tiling, codes in zip(tilings, listed):
        _set_codes(tiling, codes)
    return tilings


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


# ---------------------------------------------------------------------------
# The tree.  A node is packed into one int, ``reds * (white + 1) + w``, so a
# move is a subtraction: ``shift`` for a red square (code 0), ``length`` for
# a white tile.  A node's moves are worked out when it is first expanded and
# kept for the nodes of the same state, so memory follows the walk.
# ---------------------------------------------------------------------------

def _moves(state: int, shift: int, lengths: tuple[int, ...]) -> Codes:
    """The codes leaving a node, in lexicographic order: red, then every
    allowed white length that fits."""
    reds, white = divmod(state, shift)
    fitting = lengths[:bisect_right(lengths, white)]
    return (0,) + fitting if reds else fitting


# A node with at most this many squares left (red squares plus white total)
# keeps its leaves for the rest of the walk: :func:`_walk` the codes of each,
# :func:`_tally` one cell per leaf, :func:`_run_leaves` one cell per leaf and
# run that closes below it.  Such a node has at most 66 leaves.  One listing
# keeps at most 377 tuples of at most six codes; one tally keeps a list of
# at most 66 cells per kept node (its state and marks) and, per node above
# them, a row of at most 168 cells; one run census keeps a list of at most 110
# cells per kept (rest, last part, run) and, per node above them, a row of
# at most seven such lists and one of at most 64 cells.  Eight squares
# would keep up to 2,584 and listed about 3 % faster; four keep at most 55
# and listed about 18 % slower.
_KEPT_SQUARES = 6


def _ends(
    state: int, shift: int, lengths: tuple[int, ...], kept: dict[int, list[Codes]]
) -> list[Codes]:
    """The codes of every leaf below a node with at most ``_KEPT_SQUARES``
    squares left, in lexicographic order, built from its children's and
    kept in ``kept`` for the rest of the walk."""
    ends = kept.get(state)
    if ends is None:
        ends = kept[state] = [
            (code,) + end
            for code in _moves(state, shift, lengths)
            for end in _ends(state - (code or shift), shift, lengths, kept)
        ]
    return ends


def _walk(reds: int, white: int, lengths: tuple[int, ...]) -> Iterator[Codes]:
    """Every tiling with ``reds`` red squares and white tiles of the given
    ``lengths`` totalling ``white``, in lexicographic order of codes."""
    if lengths and white % gcd(*lengths):
        return  # no sum of the lengths is white: the tree has no leaf
    shift = white + 1
    rows: dict[int, list[tuple[int, int]]] = {}
    kept: dict[int, list[Codes]] = {0: [()]}
    stack: list[tuple[Codes, int]] = [((), reds * shift + white)]
    pop = stack.pop
    push = stack.append
    while stack:
        codes, state = pop()
        ends = kept.get(state)
        if ends is None:
            row = rows.get(state)
            if row is None:
                if sum(divmod(state, shift)) <= _KEPT_SQUARES:
                    ends = _ends(state, shift, lengths, kept)
                else:
                    # Largest code first: the stack pops the last pair first.
                    row = rows[state] = [
                        (code, state - (code or shift))
                        for code in reversed(_moves(state, shift, lengths))]
            if row is not None:
                for code, child in row:
                    push((codes + (code,), child))
                continue
        yield from map(codes.__add__, ends)


# The exact leaf count of every family :func:`_count` has read or walked,
# keyed by ``(reds, white, lengths, s)``, ``s`` its least number of trailing
# white tiles.  An entry is only ever a count of visited leaves.
_COUNTS: dict[tuple[int, int, tuple[int, ...], int], int] = {}

# Every census a walk has filled, keyed by ``(statistic, reds, white, top)``:
# its row of ``_STATISTICS`` and the tilings with ``reds`` red squares and
# white tiles of lengths 1..top totalling ``white``, kept in the row's form.
# An entry is only ever built from visited leaves.
_CENSUSES: dict[tuple[str, int, int, int], Any] = {}


def _refusal(ceiling: int) -> OracleScaleError:
    return OracleScaleError(f"oracle scale exceeded: more than {ceiling} objects")


def _kept(total: int, ceiling: int, seen: int = 0) -> int:
    """A kept count, refused exactly where its walk would have been: when
    ``seen`` plus a nonzero ``total`` passes ``ceiling``."""
    if total and seen + total > ceiling:
        raise _refusal(ceiling)
    return total


def _refuse_past_floor(
    reds: int,
    white: int,
    lengths: tuple[int, ...],
    ceiling: int,
    seen: int = 0,
) -> None:
    """Refuse the tilings with ``reds`` red squares and white tiles of the
    given ``lengths`` totalling ``white`` before they are walked, when
    ``seen`` plus a lower bound on their number passes ``ceiling``.
    ``lengths`` may be the first few allowed lengths only: fewer lengths
    allow fewer tilings.  White total 0 has its one tiling whatever the
    lengths; otherwise only lengths that hold 1 give a bound.  A family
    within its roof (see :func:`_roof`) is never refused; past it, one
    with every length up to ``white`` allowed is its roof, so it is refused
    at once, and any other when the larger of

    - C(white + reds, reds): every white tile of length 1;
    - 2**(white // m), for the next length m: white // m disjoint blocks of
      m unit tiles, each merged into one tile or not, every red square
      first;

    passes the room.  An unrefused family is still walked or read off a
    census, so no count comes from the bound."""
    if white and lengths[:1] != (1,):
        return
    room = ceiling - seen
    if _roof(reds, white, room) <= room:
        return  # every bound is at most the family's size, so at its roof
    # The ascending lengths start 1, 2, ..., white: the family is its roof.
    every = not white or lengths[white - 1:white] == (white,)
    exponent = white // lengths[1] if len(lengths) > 1 else 0
    # 2**exponent > room exactly when exponent >= room.bit_length().
    if (every or exponent >= room.bit_length()
            or _capped_binomial(reds, white, room) > room):
        raise _refusal(ceiling)


def _roof(reds: int, white: int, room: int) -> int:
    """The number of tilings with ``reds`` red squares and white total
    ``white``, every white length allowed: 1 for white 0, else the sum over
    t of C(white - 1, t - 1) * C(t + reds, reds), the tilings with exactly
    t white tiles (a composition of ``white`` into t parts, the red squares
    placed among them), disjoint classes that cover the family.  Fewer
    lengths only remove tilings, so it bounds every family of its reds and
    white total from above.  Past ``room``, it is any number above it,
    worked out from at most ``room.bit_length()`` terms: past that many,
    the 2**(white - 1) compositions of ``white``, every red square first,
    already pass the room."""
    if not white or room < 1:
        return 1  # white 0 has one tiling; 1 passes room < 1
    if white > room.bit_length():  # 2**(white - 1) > room
        return room + 1
    total = term = reds + 1  # t = 1
    for t in range(1, white):
        if total > room:
            break
        # The term of t + 1 from that of t: the quotient is exact, since
        # C(white - 1, t - 1) * (white - t) = t * C(white - 1, t) and
        # C(t + reds, reds) * (t + 1 + reds) = (t + 1) * C(t + 1 + reds, reds).
        term = term * (white - t) * (t + 1 + reds) // (t * (t + 1))
        total += term
    return min(total, room + 1)


def _capped_binomial(reds: int, white: int, room: int) -> int:
    """C(white + reds, reds), or ``room + 1`` once it passes ``room``: each
    of its min(reds, white) steps at least doubles it, so a step past
    ``room`` stays past it."""
    k, m = min(reds, white), reds + white
    product = 1
    for i in range(1, k + 1):
        product = product * (m - k + i) // i
        if product > room:
            return room + 1
    return product


def _count(
    reds: int,
    white: int,
    lengths: tuple[int, ...],
    ceiling: int,
    seen: int = 0,
    s: int = 0,
) -> int:
    """Number of leaves :func:`_walk` yields that end in at least ``s``
    white tiles; refuses as soon as ``seen``, the objects counted before,
    plus that number passes ``ceiling``.

    Each family is counted once per process: the floor of its body ``(reds,
    white - s)`` refuses first (for ``s > 0`` only when 1 is allowed, so that
    a body followed by ``s`` unit tiles is a leaf), then it is read off its
    parent's census (see :func:`_parent`), or, when its roof refuses the
    parent, walked by :func:`_count_leaves`, a suffix family one block per
    tail.  With every length allowed and ``s`` 0, the family is its parent
    and its floor refuses it past that roof, so it passes its own floor
    only when its parent is read.
    The count is kept in ``_COUNTS``, and a later call reads it and refuses
    exactly when the walk would have.  A refused count keeps nothing."""
    if lengths and white % gcd(*lengths):
        return 0  # no leaf, as in _walk
    key = (reds, white, lengths, s)
    total = _COUNTS.get(key)
    if total is None:
        if not s or lengths[:1] == (1,):
            _refuse_past_floor(reds, white - s, lengths, ceiling, seen)
        census = _parent(reds, white, ceiling)
        if census is not None:
            total = _kept(_read(census, white, lengths, s), ceiling, seen)
        elif s:
            blocks = _suffix_blocks(reds, white, s, lengths)
            total = _kept(_counted(blocks, lengths, ceiling), ceiling, seen)
        else:
            total = _count_leaves(reds, white, lengths, ceiling, seen)
        _COUNTS[key] = total
        return total
    return _kept(total, ceiling, seen)


def _count_leaves(
    reds: int,
    white: int,
    lengths: tuple[int, ...],
    ceiling: int,
    seen: int,
) -> int:
    """The walk behind :func:`_count` when the parent is refused: the
    family's own leaves, tallied under constant marks."""
    try:
        tally = _tally(reds, white, lengths, _same, ceiling - seen)
    except OracleScaleError:
        raise _refusal(ceiling) from None
    return tally.get(0, 0)


def _same(marks: int, code: int) -> int:
    """The step of a plain count: every leaf under one marks."""
    return marks


def _parent(
    reds: int, white: int, ceiling: int
) -> dict[int, int] | None:
    """The used-lengths census of every tiling with ``reds`` red squares
    and white total ``white``, any white length allowed, or None when it
    passes ``ceiling``, the asking count's.  A kept census is read as kept;
    otherwise its roof, the family's exact size, decides first, so the
    tally never refuses, and a refused parent keeps nothing."""
    census = _CENSUSES.get(("used", reds, white, white))
    if census is None and _roof(reds, white, ceiling) <= ceiling:
        census = _census("used", reds, white, white, ceiling)
    return census


def _read(
    census: dict[int, int], white: int, lengths: tuple[int, ...], s: int = 0
) -> int:
    """The leaves of a census of white total ``white`` whose white tiles
    all have one of the ``lengths`` and that end in at least ``s`` white
    tiles: a sum of visited leaves, never a formula."""
    allowed = 0
    for length in lengths:
        allowed |= 1 << length
    unused = ((1 << (white + 1)) - 1) & ~allowed
    least = s << (white + 1)
    return sum(count for marks, count in census.items()
               if marks >= least and not marks & unused)


def _marked_ends(
    node: int, size: int, shift: int, lengths: tuple[int, ...],
    step: Callable[[int, int], int], kept: dict[int, list[list[int]]],
) -> list[list[int]]:
    """The cells of the leaves below a node ``state + size * marks`` with
    at most ``_KEPT_SQUARES`` squares left, one entry per leaf, built from
    its children's and kept in ``kept`` for the rest of the walk; a leaf's
    is its own cell."""
    ends = kept.get(node)
    if ends is None:
        marks, state = divmod(node, size)
        ends = kept[node] = [] if state else [[0]]
        for code in _moves(state, shift, lengths):
            ends += _marked_ends(state - (code or shift) + size * step(marks, code),
                                 size, shift, lengths, step, kept)
    return ends


def _tally(
    reds: int,
    white: int,
    lengths: tuple[int, ...],
    step: Callable[[int, int], int],
    ceiling: int,
) -> dict[int, int]:
    """The leaves of the tree :func:`_walk` walks, counted per final
    marks, a nonnegative int: the root's are 0, a child's
    ``step(marks, code)``.  A node is ``state + size * marks``.  Below a
    node with at most ``_KEPT_SQUARES`` squares left, the cells of its
    leaves are kept, one per leaf (see :func:`_marked_ends`); a node above
    it has a row of its inner children and the cells of the leaves below
    its kept children, each of which gets 1 when the node is popped.
    Refuses as soon as the leaves pass ``ceiling``."""
    shift = white + 1
    size = (reds + 1) * shift  # every state is below it
    kept: dict[int, list[list[int]]] = {}
    rows: dict[int, tuple[list[int], list[list[int]]]] = {}
    total = 0
    stack: list[int] = []
    pop = stack.pop
    extend = stack.extend
    # The root's row, as if it had a parent.
    root = reds * shift + white
    inner, ends = ([root], []) if reds + white > _KEPT_SQUARES else (
        [], _marked_ends(root, size, shift, lengths, step, kept))
    while True:
        extend(inner)
        if ends:
            for cell in ends:
                cell[0] += 1
            total += len(ends)
            if total > ceiling:
                raise _refusal(ceiling)
        if not stack:
            # A leaf's cell is kept under its node, of state 0.
            return {node // size: cells[0][0] for node, cells in kept.items()
                    if not node % size}
        node = pop()
        row = rows.get(node)
        if row is None:
            marks, state = divmod(node, size)
            squares = sum(divmod(state, shift))
            inner, ends = [], []
            for code in _moves(state, shift, lengths):
                child = state - (code or shift) + size * step(marks, code)
                if squares - (code or 1) > _KEPT_SQUARES:
                    inner.append(child)
                else:
                    ends += _marked_ends(child, size, shift, lengths, step, kept)
            row = rows[node] = (inner, ends)
        inner, ends = row


def _run_ends(
    rest: int,
    last: int,
    run: int,
    lengths: tuple[int, ...],
    cells: dict[tuple[int, int], list[int]],
    kept: dict[tuple[int, int, int], tuple[list[list[int]], int]],
) -> tuple[list[list[int]], int]:
    """The runs that close below a node with at most ``_KEPT_SQUARES``
    squares left, ``rest``, whose open run is ``run`` parts ``last``, one
    entry per leaf and run, the cell of its ``(value, length)``; with the
    number of leaves below.  Built from its children's and kept in
    ``kept`` for the rest of the walk: a leaf's is its own final run, and
    a child whose part is not ``last`` closes the node's run once per leaf
    below it."""
    key = (rest, last, run)
    found = kept.get(key)
    if found is None:
        cell = cells.setdefault((last, run), [0])
        ends, leaves = ([], 0) if rest else ([cell], 1)
        for part in lengths[:bisect_right(lengths, rest)]:
            top, length = (last, run + 1) if part == last else (part, 1)
            below, count = _run_ends(rest - part, top, length, lengths, cells, kept)
            if part != last:
                ends += [cell] * count
            ends += below
            leaves += count
        found = kept[key] = (ends, leaves)
    return found


def _run_leaves(n: int, lengths: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """The walk behind :func:`run_census`, over the tree :func:`_walk` walks
    for ``(0, n, lengths)``.  A node also carries the last part ``v`` and
    the length ``l`` of its open run, and each maximal run adds 1 to its
    own ``(v, l)`` cell where it closes: at a child whose part is not
    ``v``, once per leaf below that child, or at the leaf.  Below a node
    with at most ``_KEPT_SQUARES`` squares left, those closes are kept,
    one entry per leaf and run (see :func:`_run_ends`).  A node above it
    has a row of its kept children's lists and a list of its own run once
    per leaf below those with another part, whose entries get 1 each when
    the node is popped, and of its inner children: the one that repeats
    ``v`` is walked after the node's close, and the others before it, so
    the close credits ``(v, l)`` with the leaves walked below them."""
    shift = n + 1
    cells: dict[tuple[int, int], list[int]] = {}
    kept: dict[tuple[int, int, int], tuple[list[list[int]], int]] = {}
    rows: dict[int, tuple[list[int], list[list[list[int]]], int,
                          list[int] | None]] = {}
    total = 0
    # The root has no open run: its run (0, 0) is dropped below.
    stack: list[int] = [n]
    entered: list[tuple[list[int], int]] = []
    pop = stack.pop
    extend = stack.extend
    enter = entered.append
    leave = entered.pop
    while stack:
        node = pop()
        if node < 0:  # every inner child but the repeating one is done
            cell, before = leave()
            cell[0] += total - before
            continue
        row = rows.get(node)
        if row is None:
            # A node is packed as ``rest + shift * (v + shift * l)``.  Its
            # row is its inner children, the kept lists of its other
            # children and one more with its own run once per leaf below
            # those with another part, their number of leaves and, when it
            # has inner children with another part, the cell of its own
            # run; the repeating child sits under the -1 that closes it.
            marks, rest = divmod(node, shift)
            run, last = divmod(marks, shift)
            cell = cells.setdefault((last, run), [0])
            repeat, others, lists, closes, leaves = [], [], [], 0, 0
            for part in lengths[:bisect_right(lengths, rest)]:
                top, length = (last, run + 1) if part == last else (part, 1)
                if rest - part <= _KEPT_SQUARES:
                    below, count = _run_ends(rest - part, top, length,
                                             lengths, cells, kept)
                    lists.append(below)
                    leaves += count
                    if part != last:
                        closes += count
                elif part == last:
                    repeat.append(rest - part + shift * (top + shift * length))
                else:
                    others.append(rest - part + shift * (top + shift * length))
            if closes:
                lists.append([cell] * closes)
            row = rows[node] = ((repeat + [-1] + others, lists, leaves, cell)
                                if others else (repeat, lists, leaves, None))
        inner, lists, leaves, cell = row
        for ends in lists:
            for end in ends:
                end[0] += 1
        total += leaves
        if cell is not None:
            enter((cell, total))
        extend(inner)
    return {key: hits for key, (hits,) in cells.items() if key[0] and hits}


# ---------------------------------------------------------------------------
# The census store.  A statistic is one row of ``_STATISTICS``: the step
# factory of its marked walk, called with the white total (None for the run
# census, which :func:`_run_leaves` walks), and the form its census is kept
# in, made once from the walked cells and the white total (None to keep
# them as walked).
# ---------------------------------------------------------------------------

def _used_step(white: int) -> Callable[[int, int], int]:
    """The step of the used-lengths census of white total ``white``: its
    marks are ``trailing << (white + 1) | used``, with bit ``k`` of ``used``
    set once a white tile of length ``k`` is placed and ``trailing`` the
    white tiles since the last red square.  One int per cell keeps the 105
    censuses of r + n <= 13 (3,546 cells) in 222 KB, 357 KB as tuples."""
    used_bits = (1 << (white + 1)) - 1
    one_trailing = 1 << (white + 1)

    def step(marks: int, code: int) -> int:
        if not code:
            return marks & used_bits
        return (marks | (1 << code)) + one_trailing

    return step


def _fold_step(n: int) -> Callable[[int, int], int]:
    """The step of the part fold of ``n``: fields of ``(2n + 1).bit_length()``
    bits, the last part in field 0 and in field ``p`` 2 * (copies of ``p``),
    plus 1 once a second block of ``p`` starts."""
    width = (2 * n + 1).bit_length()
    mask = (1 << width) - 1

    def step(marks: int, part: int) -> int:
        at = part * width
        if marks >> at & mask and part != marks & mask:
            marks |= 1 << at
        return (marks >> width << width | part) + (2 << at)

    return step


def _largest_step(n: int) -> Callable[[int, int], int]:
    """The step of the largest-part census of ``n``: its marks are
    ``top * (n + 1) + copies``, the largest part and its copies."""
    base = n + 1

    def step(marks: int, part: int) -> int:
        top = marks // base
        return part * base + 1 if part > top else marks + (part == top)

    return step


def _white_step(marks: int, code: int) -> int:
    """The marks of the white-tile census: the white tiles placed."""
    return marks + 1 if code else marks


def _unpacked_fold(
    cells: dict[int, int], white: int
) -> tuple[int, dict[int, tuple[tuple[int, int], ...]]]:
    """The part fold of the compositions of ``white`` as kept: ``(total,
    rows)``, their number and, per part that occurs, a tuple ``rows[part]``
    by multiplicity, ``rows[part][m] = (compositions, of which the copies
    of part form one block)``, ``(0, 0)`` at multiplicity 0 and in the
    gaps.  Tuples of ints keep the 56 folds of a ``default`` verify in
    about 82 KB, against 128 KB as dicts of two-item lists."""
    found: dict[int, dict[int, list[int]]] = {}
    width = (2 * white + 1).bit_length()
    mask = (1 << width) - 1
    for marks, count in cells.items():
        for part in range(1, marks.bit_length() // width + 1):
            cell = marks >> part * width & mask
            if cell:
                counts = found.setdefault(part, {}).setdefault(cell >> 1, [0, 0])
                counts[0] += count
                if not cell & 1:
                    counts[1] += count
    # One shared (0, 0) fills multiplicity 0 and every gap.
    rows = {part: tuple(tuple(row.get(multiplicity, (0, 0)))
                        for multiplicity in range(max(row) + 1))
            for part, row in found.items()}
    return sum(cells.values()), rows


_STATISTICS: dict[str, tuple[Callable[[int], Callable] | None, Callable | None]] = {
    "used": (_used_step, None),
    "fold": (_fold_step, _unpacked_fold),
    "white": (lambda white: _white_step, None),
    "largest": (_largest_step, None),
    "runs": (None, None),
}


def _census(
    statistic: str, reds: int, white: int, top: int, ceiling: int
) -> Any:
    """The census ``statistic`` of the tilings with ``reds`` red squares
    and white tiles of lengths 1..``top`` totalling ``white``, in its row's
    kept form, walked under ``ceiling`` once per process into
    ``_CENSUSES``.  The caller admits the family first."""
    key = (statistic, reds, white, top)
    kept = _CENSUSES.get(key)
    if kept is None:
        step, form = _STATISTICS[statistic]
        lengths = tuple(range(1, top + 1))
        cells = (_run_leaves(white, lengths) if step is None
                 else _tally(reds, white, lengths, step(white), ceiling))
        kept = _CENSUSES[key] = cells if form is None else form(cells, white)
    return kept


# A family of objects is a sequence of blocks ``(reds, white, tail,
# mirrored)``: each leaf of the walk over ``(reds, white)`` followed by
# ``tail``, and by the leaf reversed when ``mirrored``.

Block = tuple[int, int, Codes, bool]


def _palindrome_blocks(
    reds: int, white: int, lengths: tuple[int, ...]
) -> Iterator[Block]:
    # A palindrome is a half, an optional centre tile and the mirrored half.
    # An odd red count forces a red centre; otherwise any white remainder
    # is a central white tile.  The blocks are generated lazily, so a
    # refusal stops them.
    if reds % 2:
        if not white % 2:
            yield reds // 2, white // 2, (0,), True
        return
    allowed = set(lengths)
    for half_white in range(white // 2 + 1):
        centre = white - 2 * half_white
        if not centre or centre in allowed:
            yield reds // 2, half_white, (centre,) if centre else (), True


def _tails(total: int, s: int, lengths: tuple[int, ...]) -> Iterator[Codes]:
    """Every sequence of exactly ``s`` of the ``lengths`` summing to ``total``."""
    stack: list[tuple[Codes, int]] = [((), total)]
    while stack:
        codes, rest = stack.pop()
        left = s - len(codes)
        if not left:
            if not rest:
                yield codes
            continue
        for length in lengths:
            if length > rest - left + 1:
                break
            stack.append((codes + (length,), rest - length))


def _suffix_blocks(
    reds: int, white: int, s: int, lengths: tuple[int, ...]
) -> Iterator[Block]:
    # A body with any mix of tiles, followed by exactly s white tiles.  The
    # blocks are generated lazily: there is one per tail.
    return ((reds, white - total, tail, False)
            for total in range(s, white + 1)
            for tail in _tails(total, s, lengths))


def _sizes(
    blocks: Iterable[Block], lengths: tuple[int, ...], ceiling: int
) -> Iterator[tuple[Block, int]]:
    """Each block with its number of objects, counted by :func:`_count`;
    refuses as soon as the running total passes ``ceiling``."""
    total = 0
    for block in blocks:
        size = _count(block[0], block[1], lengths, ceiling, total)
        total += size
        yield block, size


def _counted(
    blocks: Iterable[Block], lengths: tuple[int, ...], ceiling: int
) -> int:
    """Number of objects of the blocks."""
    return sum(size for _block, size in _sizes(blocks, lengths, ceiling))


def _admitted(
    blocks: Iterable[Block], lengths: tuple[int, ...], ceiling: int
) -> list[Block]:
    """The blocks of a listing or a census, admitted without a count when
    the sum of their roofs, each block's exact size with every length
    allowed (see :func:`_roof`), is at most ``ceiling``.  The roofs are
    summed block by block; once they pass ``ceiling``, the blocks seen so
    far and the rest of the stream are counted by :func:`_sizes` instead,
    which refuses a family past ``ceiling`` before any object is built, and
    only the blocks with objects are kept.  The stream is drawn, and a
    family past ``ceiling`` refused, before this returns."""
    blocks = iter(blocks)
    seen: list[Block] = []
    room = ceiling
    for block in blocks:
        seen.append(block)
        room -= _roof(block[0], block[1], room)
        if room < 0:
            return [block for block, size
                    in _sizes(chain(seen, blocks), lengths, ceiling) if size]
    return seen


def _listing(
    blocks: Iterable[Block], lengths: tuple[int, ...], ceiling: int
) -> list[Codes]:
    """Every object of the blocks, sorted.  The family is admitted by its
    roof, or counted, before it is walked, so a family past ``ceiling`` is
    refused before any object is built."""
    out: list[Codes] = []
    for reds, white, tail, mirrored in _admitted(blocks, lengths, ceiling):
        leaves = _walk(reds, white, lengths)
        if mirrored:
            out += [leaf + tail + leaf[::-1] for leaf in leaves]
        elif tail:
            out += [leaf + tail for leaf in leaves]
        else:
            out += leaves
    out.sort()
    return out


def _uncollected(listing: Callable[..., list]) -> Callable[..., list]:
    """``listing`` run with the cyclic garbage collector paused while it is
    enabled, and left as found, also when the listing raises or runs inside
    another.  A listing builds tuples of ints, lists and tilings, which hold
    no reference cycles, so a collection during it finds nothing to free;
    paused, the young collection its allocations are due lands at the
    first allocation after it returns."""
    @wraps(listing)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return listing(*args, **kwargs)
        gc.disable()
        try:
            return listing(*args, **kwargs)
        finally:
            gc.enable()

    return paused


# ---------------------------------------------------------------------------
# Tilings.
# ---------------------------------------------------------------------------

def _tiling_blocks(
    r: int, n: int, filter: TilingFilter | None, ceiling: int
) -> tuple[Iterable[Block], tuple[int, ...]]:
    if r < 0 or n < 0:
        raise ValueError("r and n must be nonnegative")
    f = filter or TilingFilter()
    s = f.suffix_white_tiles
    # With tiles of length 1 allowed, the tilings of (r, n) followed by s
    # of them are suffix tilings, and the halves of (r // 2, n // 2) with a
    # red, empty or unit centre are palindromes, unless r and n are odd.
    floor = None if f.palindromic and r % 2 and n % 2 else (
        (r // 2, n // 2) if f.palindromic else (r, n))
    lengths = _part_lengths(n + s, f.max_white_len, f.forbidden_white_len,
                            reds=r, floor=floor, ceiling=ceiling)
    if f.palindromic:
        return _palindrome_blocks(r, n, lengths), lengths
    if s:
        return _suffix_blocks(r, n + s, s, lengths), lengths
    return [(r, n, (), False)], lengths


@_uncollected
def enumerate_tilings(
    r: int,
    n: int,
    filter: TilingFilter | None = None,
    *,
    ceiling: int = DEFAULT_CEILING,
) -> list[TwoTonedTiling]:
    """All tilings with ``r`` red squares and white total ``n``, each once.

    With ``filter.suffix_white_tiles = s`` the strip is ``n + r + s`` cells
    long (white total ``n + s``) and the last ``s`` tiles are white.  The
    result is sorted lexicographically on tile codes.
    """
    blocks, lengths = _tiling_blocks(r, n, filter, ceiling)
    return _tilings(_listing(blocks, lengths, ceiling))


def count_tilings(
    r: int,
    n: int,
    filter: TilingFilter | None = None,
    *,
    ceiling: int = DEFAULT_CEILING,
) -> int:
    """Number of tilings :func:`enumerate_tilings` would return.

    The count is produced by walking the same enumeration tree leaf by
    leaf, never by a formula, so it is usable as an independent oracle.
    Unless palindromic, it is the family ``(r, n + s)`` counted by
    :func:`_count`: the leaves of its parent's census whose white lengths
    all pass the filter and that end in at least ``s`` white tiles, or,
    when the parent is refused, its own walk.  A palindromic count sums
    its blocks, each counted by :func:`_count`.  Every count is kept in
    ``_COUNTS``.
    """
    blocks, lengths = _tiling_blocks(r, n, filter, ceiling)
    f = filter or TilingFilter()
    if f.palindromic:
        return _counted(blocks, lengths, ceiling)
    s = f.suffix_white_tiles
    return _count(r, n + s, lengths, ceiling, s=s)


def enumerate_palindromic_tilings(
    r: int, n: int, *, ceiling: int = DEFAULT_CEILING
) -> list[TwoTonedTiling]:
    """Tilings with ``r`` reds and white total ``n`` that read the same both ways."""
    return enumerate_tilings(r, n, TilingFilter(palindromic=True), ceiling=ceiling)


def count_palindromic_tilings(
    r: int, n: int, *, ceiling: int = DEFAULT_CEILING
) -> int:
    return count_tilings(r, n, TilingFilter(palindromic=True), ceiling=ceiling)


# ---------------------------------------------------------------------------
# Compositions: the tilings with no red squares.
# ---------------------------------------------------------------------------

def _part_lengths(
    n: int,
    max_part: int | None = None,
    forbidden_part: int | None = None,
    allowed_parts: Iterable[int] | None = None,
    no_multiple_of: int | None = None,
    *,
    reds: int = 0,
    floor: tuple[int, int] | None = None,
    ceiling: int,
) -> tuple[int, ...]:
    """The parts a composition of ``n`` may use, ascending; every given
    constraint applies.  Rejects arguments no walk can honour.

    The lengths are for a family of objects with ``reds`` red squares and
    white total ``n``, which is refused before its lengths are built when
    its objects cover more than ``SQUARES_BOUND`` squares.  ``floor`` names
    the ``(reds, white)`` of tilings that, followed by tiles of length 1,
    are objects of that family: when they pass ``ceiling`` by their lower
    bound (see :func:`_refuse_past_floor`), such a family is refused as past
    the ceiling instead."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for name, bound in (("max_part", max_part),
                        ("forbidden_part", forbidden_part),
                        ("no_multiple_of", no_multiple_of)):
        if bound is not None and bound < 1:
            raise ValueError(f"{name} must be positive")
    if allowed_parts is None:
        parts: Sequence[int] = range(1, n + 1)
    else:
        parts = sorted(set(allowed_parts))
        if parts and parts[0] < 1:
            raise ValueError("allowed parts must be positive")

    def allowed(p: int) -> bool:
        return (p <= n
                and (max_part is None or p <= max_part)
                and p != forbidden_part
                and (no_multiple_of is None or p % no_multiple_of > 0))

    if reds + n > SQUARES_BOUND:
        if floor is not None:
            # The floor reads 1 and the next allowed length: with 1
            # allowed, one forbidden part and the multiples of one number
            # cannot remove all of 2..5, so the next length is among the
            # first five candidates unless max_part stops short; a head
            # without it only weakens the bound.
            head = tuple(filter(allowed, parts[:5]))[:2]
            if head[:1] == (1,):
                _refuse_past_floor(*floor, head, ceiling)
        raise OracleScaleError(
            f"oracle scale exceeded: more than {SQUARES_BOUND} squares")
    return tuple(filter(allowed, parts))


@_uncollected
def enumerate_compositions(
    n: int,
    *,
    max_part: int | None = None,
    forbidden_part: int | None = None,
    allowed_parts: Iterable[int] | None = None,
    no_multiple_of: int | None = None,
    ceiling: int = DEFAULT_CEILING,
) -> list[Composition]:
    """Compositions of ``n`` under the given constraints, in lexicographic order."""
    lengths = _part_lengths(n, max_part, forbidden_part, allowed_parts,
                            no_multiple_of, floor=(0, n), ceiling=ceiling)
    return _listing([(0, n, (), False)], lengths, ceiling)


def count_compositions(
    n: int,
    *,
    max_part: int | None = None,
    forbidden_part: int | None = None,
    allowed_parts: Iterable[int] | None = None,
    no_multiple_of: int | None = None,
    ceiling: int = DEFAULT_CEILING,
) -> int:
    lengths = _part_lengths(n, max_part, forbidden_part, allowed_parts,
                            no_multiple_of, floor=(0, n), ceiling=ceiling)
    return _count(0, n, lengths, ceiling)


@_uncollected
def enumerate_palindromic_compositions(
    n: int,
    *,
    forbidden_part: int | None = None,
    ceiling: int = DEFAULT_CEILING,
) -> list[Composition]:
    """Palindromic compositions of ``n``, built as half + optional center."""
    lengths = _part_lengths(n, forbidden_part=forbidden_part,
                            floor=(0, n // 2), ceiling=ceiling)
    return _listing(_palindrome_blocks(0, n, lengths), lengths, ceiling)


def count_palindromic_compositions(
    n: int, *, forbidden_part: int | None = None
) -> int:
    """Number of palindromic compositions; refuses past ``DEFAULT_CEILING``,
    read when the count is called, like the census helpers."""
    ceiling = DEFAULT_CEILING
    lengths = _part_lengths(n, forbidden_part=forbidden_part,
                            floor=(0, n // 2), ceiling=ceiling)
    return _counted(_palindrome_blocks(0, n, lengths), lengths, ceiling)


# ---------------------------------------------------------------------------
# Exhaustive statistics used as oracle twins for the formula modules.
# Each one is read off a walk of real objects; none consults a closed form.
# ---------------------------------------------------------------------------

def _family_census(
    statistic: str, n: int, max_part: int | None = None, reds: int = 0
) -> Any:
    """The kept census ``statistic`` of the tilings with ``reds`` red
    squares and white total ``n``, white lengths 1..``max_part``: the
    compositions of ``n`` by default.  The family is admitted by
    :func:`_admitted` on every call, so a census past ``DEFAULT_CEILING``
    (read when it is called) is refused before it is walked or read."""
    ceiling = DEFAULT_CEILING
    lengths = _part_lengths(n, max_part, reds=reds, floor=(reds, n),
                            ceiling=ceiling)
    _admitted([(reds, n, (), False)], lengths, ceiling)
    return _census(statistic, reds, n, len(lengths), ceiling)


def _part_histogram(
    n: int, k: int, max_part: int | None = None, *, one_block: bool = False
) -> dict[int, int]:
    """How many compositions of ``n`` hold ``k`` exactly ``m`` times, per
    ``m``, counting only those whose copies of ``k`` form one block when
    ``one_block``; the ``m = 0`` class is always reported."""
    total, rows = _family_census("fold", n, max_part)
    row = rows.get(k, ())
    histogram = {0: total - sum(count for count, _ in row)}
    for multiplicity, (count, blocks) in enumerate(row):
        if count:
            histogram[multiplicity] = blocks if one_block else count
    return histogram


def part_occurrences(n: int, k: int, *, max_part: int | None = None) -> int:
    """Total number of times ``k`` appears as a part over all compositions."""
    return _occurrences(n, max_part).get(k, 0)


def part_multiplicity_census(
    n: int, *, max_part: int | None = None
) -> dict[tuple[int, int], int]:
    """Counts of compositions keyed by ``(part value, multiplicity >= 1)``.

    One fold covers every part value at once; pair with the total
    composition count to recover the multiplicity-zero classes.
    """
    return {(part, multiplicity): count
            for part, row in _family_census("fold", n, max_part)[1].items()
            for multiplicity, (count, _) in enumerate(row) if count}


def count_by_part_multiplicity(
    n: int, k: int, *, max_part: int | None = None
) -> dict[int, int]:
    """How many compositions of ``n`` contain ``k`` exactly ``p`` times, per ``p``.

    The ``p = 0`` class is always reported, as 0 when every composition
    has a part ``k``.
    """
    return _part_histogram(n, k, max_part)


def run_census(n: int, *, max_part: int | None = None) -> dict[tuple[int, int], int]:
    """Counts of runs keyed by ``(part value, run length)`` over all compositions."""
    return dict(_family_census("runs", n, max_part))


def _occurrences(n: int, max_part: int | None = None) -> dict[int, int]:
    """How often each part occurs over the compositions of ``n`` with parts
    at most ``max_part``: each a count of visited parts, read off the fold."""
    rows = _family_census("fold", n, max_part)[1]
    return {part: sum(multiplicity * count
                      for multiplicity, (count, _) in enumerate(row))
            for part, row in rows.items()}


def total_parts(n: int) -> int:
    """Number of parts summed over all compositions of ``n``."""
    return sum(_occurrences(n).values())


def largest_part_census(n: int) -> dict[tuple[int, int], int]:
    """Counts of compositions keyed by ``(largest part, its multiplicity)``."""
    return {divmod(marks, n + 1): count  # marks 0: the empty composition
            for marks, count in _family_census("largest", n).items() if marks}


def consecutive_part_census(n: int, k: int) -> dict[int, int]:
    """Compositions of ``n`` whose parts ``k`` all sit in one block, by count of ``k``.

    A composition with no part ``k`` is counted under multiplicity 0.
    """
    return {m: count for m, count
            in _part_histogram(n, k, one_block=True).items() if count}


def tile_count_total(r: int, n: int) -> int:
    """Total number of tiles over every tiling with ``r`` reds and white total
    ``n``: its tilings with j white tiles, counted by a census of visited
    leaves, have r + j tiles each.  Each family's census is tallied once
    per process and summed on each read."""
    if r < 0:
        raise ValueError("r and n must be nonnegative")
    return sum((r + whites) * count
               for whites, count in _family_census("white", n, reds=r).items())


def replaced_compositions_oracle(n: int) -> int:
    """For every part ``j`` occurring anywhere, add the number of compositions of ``j``."""
    return sum(count_compositions(j) * occurrences
               for j, occurrences in _occurrences(n).items())


def replaced_parts_oracle(n: int) -> int:
    """For every part ``j`` occurring anywhere, add the total part count of ``j``."""
    return sum(total_parts(j) * occurrences
               for j, occurrences in _occurrences(n).items())
