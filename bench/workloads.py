"""The benchmark's workloads: inputs from a seed, a timed body, a check.

Every workload is a closed loop with one caller: the next call into
tilingkit is made only after the previous one has returned.  ``run`` is the
timed body and returns the program's outputs; ``check`` inspects them
outside the timed region and records each check in a :class:`Tally`.
The expected digests live in ``expected.json`` beside this file and are
rebuilt by ``make_expected.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from tilingkit import cli, tables
from tilingkit import compstats as cs
from tilingkit import oracle as orc
from tilingkit import sequences as sq
from tilingkit import series as ser

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Counts attempted checks and keeps a label for each failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Path], Any]  # (seed, scratch dir) -> inputs
    run: Callable[[Any], Any]                # inputs -> outputs (timed)
    check: Callable[[Tally, Any, Any, int, dict], None]  # tally, inputs, outputs, seed, expected


# -- verify-default -----------------------------------------------------------
# The product's main command, through cli.main as the console script calls it.

def _verify_inputs(seed: int, scratch: Path) -> Path:
    return scratch / "report.json"


def _verify_run(out: Path) -> int:
    return cli.main(["verify", "--scale", "default", "--quiet", "--out", str(out)])


def _verify_check(tally: Tally, out: Path, code: int, seed: int, expected: dict) -> None:
    tally.expect(code == 0, f"verify exit code {code}")
    payload = out.read_bytes()
    tally.expect(digest(payload.decode()) == expected["verify-default"],
                 "verify report digest")
    tally.expect(json.loads(payload)["all_match"] is True, "verify all_match")


# -- triple-agreement ---------------------------------------------------------
# The criterion-2 families at a smaller grid bound: every cell is computed by
# recurrence, by enumeration and as a series coefficient.

TRIPLE_BOUND = 13
_BOUNDED_KS = range(1, 6)


def _triple_inputs(seed: int, scratch: Path) -> int:
    return TRIPLE_BOUND


def _frozen_gf(k: int) -> ser.RationalGF:
    den = [0] * (2 * k + 1)
    den[0] = 1
    for i in range(1, k + 1):
        den[i] -= 1
    den[2 * k] -= 1
    return ser.RationalGF.of((1,), den)


def _largest_gf(k: int) -> ser.RationalGF:
    num = ser.poly_mul(ser.monomial(1, k), ser.poly_pow((1, -1), 2))
    den_lo = ser.gf_bounded_parts(k - 1).den if k >= 2 else (1, -1)
    return ser.RationalGF.of(num, ser.poly_mul(ser.gf_bounded_parts(k).den, den_lo))


def _triple_run(bound: int) -> list[tuple[tuple, int, int, Any]]:
    """Cells ``(label, recurrence, enumeration, series coefficient)``."""
    cells = []
    add = cells.append
    for r in range(bound + 1):
        row = ser.expand(ser.gf_geometric_two_tone(r), bound - r)
        for n in range(bound - r + 1):
            add((("a", r, n), sq.a(r, n), orc.count_tilings(r, n), row[n]))
    for s in range(1, bound + 1):
        for r in range(bound + 1 - s):
            row = ser.expand(ser.gf_suffix_white(s, r), bound - s - r)
            filt = orc.TilingFilter(suffix_white_tiles=s)
            for n in range(bound - s - r + 1):
                add((("a_s", s, r, n), sq.a_s(s, r, n),
                     orc.count_tilings(r, n, filt), row[n]))
    for k in _BOUNDED_KS:
        filt = orc.TilingFilter(max_white_len=k)
        for r in range(bound + 1):
            row = ser.expand(ser.gf_bounded_two_tone(r, k), bound - r)
            for n in range(bound - r + 1):
                add((("a_k", k, r, n), sq.a_k(r, n, k),
                     orc.count_tilings(r, n, filt), row[n]))
    for k in range(1, bound + 1):
        row = ser.expand(ser.gf_avoid_part(k), bound)
        for n in range(bound + 1):
            add((("avoid", k, n), cs.C_hat(n, k),
                 orc.count_compositions(n, forbidden_part=k), row[n]))
    for k in range(1, bound + 1):
        row = ser.expand(_frozen_gf(k), bound)
        allowed = set(range(1, k + 1)) | {2 * k}
        for n in range(bound + 1):
            add((("frozen", k, n), cs.CF(n, k),
                 orc.count_compositions(n, allowed_parts=allowed), row[n]))
    largest = {n: orc.largest_part_census(n) for n in range(1, bound + 1)}
    for k in range(1, bound + 1):
        row = ser.expand(_largest_gf(k), bound)
        for n in range(1, bound + 1):
            enum = sum(v for (top, _m), v in largest[n].items() if top == k)
            add((("largest", k, n), cs.G(n, k), enum, row[n]))
    # Pell: P(n) = sum_i a_{2i}(2i+1, n-1-4i), each term enumerated as
    # suffix-white tilings.
    row = ser.expand(ser.RationalGF.of((0, 1), (1, -2, -1)), bound)
    for n in range(1, bound + 1):
        enum = 0
        i = 0
        while (n - 1) - 4 * i >= 0:
            enum += orc.count_tilings(
                2 * i + 1, (n - 1) - 4 * i,
                orc.TilingFilter(suffix_white_tiles=2 * i))
            i += 1
        add((("pell", n), sq.pell(n), enum, row[n]))
    return cells


def _triple_check(tally: Tally, bound: int, cells, seed: int, expected: dict) -> None:
    for label, rec, enum, coeff in cells:
        tally.expect(rec == enum == coeff, f"three-way {label}: {rec} {enum} {coeff}")
    tally.expect(len(cells) == expected["triple-agreement-cells"], "cell count")


# -- formula-scale ------------------------------------------------------------
# Large-index values from the formula side only.  Each parameter is drawn
# from a narrow band, and the costly ones (the a_k convolution is O(r n^2),
# fibonacci_k is O(n k)) from the narrowest, so that every seed asks for
# about the same work.

def _formula_inputs(seed: int, scratch: Path) -> dict:
    rng = random.Random(seed)
    pick = rng.randint
    return {
        "a": (pick(196, 200), pick(296, 300)),
        "a_s": (pick(3, 5), pick(46, 50), pick(256, 260)),
        "a_k": [(19, pick(196, 200), k) for k in rng.sample(range(3, 7), 2)],
        "fibonacci_k": [(pick(9400, 9500), k) for k in rng.sample(range(20, 25), 2)],
        "neg_fibonacci_k": (pick(-2100, -2000), pick(5, 6)),
        "pell": pick(10000, 11000),
        "series": {
            "bounded": (pick(6, 7), pick(4, 5), pick(246, 250)),
            "suffix": (pick(3, 4), pick(4, 5), pick(246, 250)),
            "avoid": (pick(3, 5), pick(246, 250)),
        },
        "compstats": [(pick(246, 254), pick(2, 8)) for _ in range(3)],
    }


def _formula_run(p: dict) -> list[tuple[tuple, Any]]:
    out: list[tuple[tuple, Any]] = []
    add = out.append
    r, n = p["a"]
    add((("a", r, n), sq.a(r, n)))
    s, r, n = p["a_s"]
    add((("a_s", s, r, n), sq.a_s(s, r, n)))
    for r, n, k in p["a_k"]:
        add((("a_k", r, n, k), sq.a_k(r, n, k)))
    for n, k in p["fibonacci_k"]:
        add((("fibonacci_k", n, k), sq.fibonacci_k(n, k)))
    n, k = p["neg_fibonacci_k"]
    add((("neg_fibonacci_k", n, k), sq.neg_fibonacci_k(n, k)))
    add((("pell", p["pell"]), sq.pell(p["pell"])))
    r, k, order = p["series"]["bounded"]
    add((("series-bounded", r, k, order),
         ser.expand(ser.gf_bounded_two_tone(r, k), order).as_integers()))
    s, r, order = p["series"]["suffix"]
    add((("series-suffix", s, r, order),
         ser.expand(ser.gf_suffix_white(s, r), order).as_integers()))
    k, order = p["series"]["avoid"]
    add((("series-avoid", k, order),
         ser.expand(ser.gf_avoid_part(k), order).as_integers()))
    for n, k in p["compstats"]:
        add((("L", n, k), cs.L(n, k)))
        add((("C_hat", n, k), cs.C_hat(n, k)))
        add((("CF", n, k), cs.CF(n, k)))
        add((("S", n, k), cs.S(n, k)))
        add((("G", n, k), cs.G(n, k)))
        add((("E_total", n), cs.E_total(n)))
    for table_id in tables.TABLE_IDS:
        add((("table", table_id), tables.build_table(table_id).cells))
    return out


# Second routes for the cross-check: the closed forms a_explicit and
# a_s_binomial, and plain recurrences written here that share no code with
# the recurrences in tilingkit.sequences.

def _bounded_tilings_row(r: int, k: int, top: int) -> list[int]:
    """Tilings with r reds, white lengths 1..k, white total 0..top."""
    row: list[int] = []
    for reds in range(r + 1):
        prev, row = row, [0] * (top + 1)
        for n in range(top + 1):
            # The last tile is red, or white of length 1..k; with no reds,
            # white total 0 is the empty tiling.
            v = prev[n] if reds else int(n == 0)
            for length in range(1, min(k, n) + 1):
                v += row[n - length]
            row[n] = v
    return row


def _compositions_row(parts, top: int) -> list[int]:
    """Compositions of 0..top into the given part sizes."""
    parts = sorted(parts)
    row = [1] + [0] * top
    for n in range(1, top + 1):
        row[n] = sum(row[n - p] for p in parts if p <= n)
    return row


def _step_fibonacci(n: int, k: int) -> int:
    if n <= 0:
        return 0
    window = deque([0] * (k - 1) + [1], maxlen=k)  # F(2-k) .. F(1)
    total = 1  # sum of the window
    for _ in range(n - 1):
        total, dropped = 2 * total - window[0], total
        window.append(dropped)
    return window[-1]


def _neg_step_fibonacci(n: int, k: int) -> int:
    """k-step Fibonacci at an index ``n <= 1 - k``, by the backward recurrence."""
    values = {1: 1}
    for i in range(0, -(k - 1), -1):
        values[i] = 0
    for i in range(2, k + 1):
        values[i] = sum(values[i - j] for j in range(1, k + 1) if i - j in values)
    i = -(k - 1)
    while i >= n:
        values[i] = values[i + k] - sum(values[i + k - j] for j in range(1, k))
        i -= 1
    return values[n]


def _pell_via_root(n: int) -> int:
    # (1 + sqrt 2)^n = x + y sqrt 2, and P(n) = y.
    x, y = 1, 0
    bx, by = 1, 1
    while n:
        if n & 1:
            x, y = x * bx + 2 * y * by, x * by + y * bx
        bx, by = bx * bx + 2 * by * by, 2 * bx * by
        n >>= 1
    return y


def _formula_expect(label: tuple) -> Any:
    kind = label[0]
    if kind == "a":
        return sq.a_explicit(*label[1:])
    if kind == "a_s":
        return sq.a_s_binomial(*label[1:])
    if kind == "a_k":
        r, n, k = label[1:]
        return _bounded_tilings_row(r, k, n)[n]
    if kind == "fibonacci_k":
        return _step_fibonacci(*label[1:])
    if kind == "neg_fibonacci_k":
        return _neg_step_fibonacci(*label[1:])
    if kind == "pell":
        return _pell_via_root(label[1])
    if kind == "series-bounded":
        r, k, order = label[1:]
        return tuple(_bounded_tilings_row(r, k, order))
    if kind == "series-suffix":
        s, r, order = label[1:]
        return tuple(sq.a_s_binomial(s, r, n) for n in range(order + 1))
    if kind == "series-avoid":
        k, order = label[1:]
        return tuple(_compositions_row([p for p in range(1, order + 1) if p != k], order))
    n = label[1]
    if kind == "E_total":
        return (n + 1) << (n - 2)
    k = label[2]
    if kind == "L":
        return (1 << (n - 1)) - _compositions_row(
            [p for p in range(1, n + 1) if p != k], n)[n]
    if kind == "C_hat":
        return _compositions_row([p for p in range(1, n + 1) if p != k], n)[n]
    if kind == "CF":
        return _compositions_row(list(range(1, k + 1)) + [2 * k], n)[n]
    if kind == "S":
        return (n - k + 3) << (n - k - 2)
    if kind == "G":
        return (_compositions_row(range(1, k + 1), n)[n]
                - _compositions_row(range(1, k), n)[n])
    raise KeyError(kind)


def formula_digest(out) -> str:
    return digest(repr(out))


def _formula_check(tally: Tally, p: dict, out, seed: int, expected: dict) -> None:
    # Seeds with a stored digest are compared byte for byte; every seed, stored
    # or not, is also cross-checked value by value through a second route.
    stored = expected["formula-scale"].get(str(seed))
    if stored is not None:
        tally.expect(formula_digest(out) == stored, f"formula digest for seed {seed}")
    for label, value in out:
        if label[0] == "table":
            tally.expect(digest(repr(value)) == expected["tables"][label[1]],
                         f"table {label[1]}")
        else:
            tally.expect(value == _formula_expect(label), f"cross-check {label}")


# -- oracle-listing -----------------------------------------------------------
# Materialised listings, as `tilingkit oracle ...` without --count-only.  The
# points of one pool take about the same time to list (within about 10 %), so
# every seed asks for about the same work; expected.json holds a digest for
# every pool point.

LISTING_POOLS: dict[str, tuple[tuple, ...]] = {
    "tilings": ((2, 10), (5, 7)),
    "bounded": ((3, 9, 3), (1, 15, 2), (3, 10, 2), (4, 8, 3), (7, 6, 3), (7, 6, 4)),
    "suffix": ((2, 5, 6), (2, 4, 7), (3, 7, 5), (1, 6, 6), (3, 3, 7), (1, 3, 8)),
    "palindromic-tilings": ((4, 18), (4, 19), (8, 15), (13, 12)),
    "compositions-forbid": ((17, 6), (21, 2), (17, 7)),
    "compositions-max": ((17, 5), (17, 6), (17, 7)),
    "palindromic-compositions": ((33, 4), (39, 2), (33, 5), (34, 3)),
}
LISTING_DRAWS = 1  # points per pool and seed


def _listing_inputs(seed: int, scratch: Path) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    points = [(kind, point) for kind, pool in LISTING_POOLS.items()
              for point in rng.sample(pool, LISTING_DRAWS)]
    rng.shuffle(points)
    return points


def list_point(kind: str, point: tuple) -> list:
    if kind == "tilings":
        return orc.enumerate_tilings(*point)
    if kind == "bounded":
        r, n, k = point
        return orc.enumerate_tilings(r, n, orc.TilingFilter(max_white_len=k))
    if kind == "suffix":
        s, r, n = point
        return orc.enumerate_tilings(r, n, orc.TilingFilter(suffix_white_tiles=s))
    if kind == "palindromic-tilings":
        return orc.enumerate_palindromic_tilings(*point)
    if kind == "compositions-forbid":
        n, k = point
        return orc.enumerate_compositions(n, forbidden_part=k)
    if kind == "compositions-max":
        n, k = point
        return orc.enumerate_compositions(n, max_part=k)
    n, k = point
    return orc.enumerate_palindromic_compositions(n, forbidden_part=k)


def _listing_run(points) -> list[list]:
    return [list_point(kind, point) for kind, point in points]


def _listing_count(kind: str, point: tuple) -> int:
    if kind == "tilings":
        return sq.a(*point)
    if kind == "bounded":
        return sq.a_k(*point)
    if kind == "suffix":
        return sq.a_s(*point)
    if kind == "palindromic-tilings":
        return cs.m_pal(*point)
    if kind == "compositions-forbid":
        return cs.C_hat(*point)
    if kind == "compositions-max":
        n, k = point
        return sq.fibonacci_k(n + 1, k)
    return cs.pal_hat(*point)


COMPOSITION_KINDS = frozenset(
    ("compositions-forbid", "compositions-max", "palindromic-compositions"))


def listing_keys(kind: str, objects: list) -> list[tuple]:
    """The compositions themselves, or the tile codes of each tiling."""
    return objects if kind in COMPOSITION_KINDS else [o.codes for o in objects]


def _listing_valid(kind: str, point: tuple, key: tuple) -> bool:
    """``key`` is a composition, or the tile codes of a tiling."""
    if kind in COMPOSITION_KINDS:
        n, k = point
        ok = sum(key) == n and min(key, default=1) >= 1
        if kind == "compositions-max":
            return ok and max(key, default=0) <= k
        ok = ok and k not in key
        return ok and (kind == "compositions-forbid" or key == key[::-1])
    if kind == "suffix":
        s, r, n = point
        return (key.count(0) == r and sum(key) == n + s
                and min(key[len(key) - s:], default=1) > 0)
    r, n = point[:2]
    ok = key.count(0) == r and sum(key) == n
    if kind == "bounded":
        return ok and max(key, default=0) <= point[2]
    if kind == "palindromic-tilings":
        return ok and key == key[::-1]
    return ok


def listing_digest(keys: list[tuple]) -> str:
    return digest(repr(keys))


def listing_key(kind: str, point: tuple) -> str:
    return f"{kind}:{','.join(map(str, point))}"


def _listing_check(tally: Tally, points, out, seed: int, expected: dict) -> None:
    for (kind, point), objects in zip(points, out):
        what = listing_key(kind, point)
        tally.expect(len(objects) == _listing_count(kind, point), f"{what} count")
        keys = listing_keys(kind, objects)
        tally.expect(all(x < y for x, y in zip(keys, keys[1:])), f"{what} order")
        tally.expect(all(_listing_valid(kind, point, key) for key in keys),
                     f"{what} objects")
        tally.expect(listing_digest(keys) == expected["listing"][what], f"{what} digest")


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-default", _verify_inputs, _verify_run, _verify_check),
        Workload("triple-agreement", _triple_inputs, _triple_run, _triple_check),
        Workload("formula-scale", _formula_inputs, _formula_run, _formula_check),
        Workload("oracle-listing", _listing_inputs, _listing_run, _listing_check),
    )
}
