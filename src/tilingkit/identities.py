"""Registry of checkable identities for the tiling count families.

Each :class:`IdentityRecord` states one identity exactly as its source
prints it, together with evaluators for both sides and a finite parameter
grid per scale.  The status the suite expects follows from what else the
record carries:

``verified``
    neither of the two below; both sides agree at every grid point;
``fails-as-printed``
    a corrected form: the stated form has a counterexample, and the
    corrected form does verify (it is checked too);
``conjecture``
    a ``bound_doc``: no proof is claimed anywhere; the record only ever
    reports the bound up to which no counterexample was found, never
    "verified".  A conjecture carries no corrected form.

Running the registry produces a :class:`VerificationReport` whose JSON
rendering is deterministic: no timestamps or wall-clock readings go into
the document (they are kept on the in-memory results only), records are
sorted by id, and every evaluator is a pure function.

Evaluator values are exact: ints, Fractions, or tuples of these (rows of a
generating function).  A closed form that leaves the integers, a
generating function with no expansion, a sum that does not terminate, or
any other value (a float, say) evaluates to a :class:`Defect`, which
compares unequal to everything and therefore registers as a
counterexample.
"""

from __future__ import annotations

import fnmatch
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from . import compstats as cs
from . import oracle as orc
from . import series as ser
from .sequences import (
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
    refuse_past_bounds,
)

SUM_CAP = 200  # safety cap when probing sums that may fail to terminate


@dataclass(frozen=True)
class GridScale:
    """Numeric bounds attached to a named grid scale."""

    name: str
    limit: int          # formula-vs-formula parameter bound
    oracle_limit: int   # bound on grid sums that drive enumerations
    runs_bound: int     # max n for the run-length conjecture scan


SCALES = {
    "small": GridScale("small", 8, 7, 10),
    "default": GridScale("default", 12, 10, 18),
    "large": GridScale("large", 16, 12, 20),
}


class Defect:
    """Value of an evaluator that failed to produce a number."""

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __eq__(self, other: object) -> bool:
        return False

    def __repr__(self) -> str:
        return f"<defect: {self.reason}>"

    __str__ = __repr__


Evaluator = Callable[..., object]
Domain = Callable[[GridScale], Iterable[tuple]]


def _safe(fn: Evaluator, point: tuple) -> object:
    """``fn`` at ``point``.  A failure, or a value that is not an int, a
    Fraction or a tuple of these, is a :class:`Defect`."""
    try:
        value = fn(*point)
    except (NonIntegerResultError, ser.NotExpandableError) as exc:
        return Defect(str(exc))
    if isinstance(value, (int, Fraction, Defect)) or (
            isinstance(value, tuple)
            and all(isinstance(v, (int, Fraction)) for v in value)):
        return value
    return Defect(f"inexact value {value!r}")


@dataclass(frozen=True)
class CorrectedForm:
    """Corrected statement; each side or domain left out is the record's own."""

    citation: str
    lhs: Evaluator | None = None
    rhs: Evaluator | None = None
    domain: Domain | None = None


@dataclass(frozen=True)
class ProbeSpec:
    """Erratum probe: ``(label, fn)`` candidates compared against a
    brute-force value.

    ``oracle`` defaults to the record's own ``lhs``.
    """

    oracle_label: str
    candidates: tuple[tuple[str, Evaluator], ...]
    oracle: Evaluator | None = None


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    citation: str
    lhs: Evaluator
    rhs: Evaluator
    domain: Domain
    corrected: CorrectedForm | None = None
    probe: ProbeSpec | None = None
    bound_doc: Callable[[GridScale], dict] | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        if self.bound_doc is not None and self.corrected is not None:
            raise ValueError(f"{self.id}: a conjecture carries no corrected form")

    @property
    def expected(self) -> str:
        if self.bound_doc is not None:
            return "conjecture"
        return "verified" if self.corrected is None else "fails-as-printed"


@dataclass
class RecordResult:
    id: str
    citation: str
    expected: str
    status: str
    points: int
    counterexample: dict | None
    corrected_citation: str | None
    corrected_points: int
    corrected_counterexample: dict | None
    bound: dict | None
    notes: str
    seconds: float

    @property
    def matches_expected(self) -> bool:
        if self.expected == "conjecture":
            return self.status == "conjecture" and self.counterexample is None
        return self.status == self.expected

    def to_doc(self) -> dict:
        doc: dict = {
            "id": self.id,
            "citation": self.citation,
            "status": self.status,
            "expected": self.expected,
            "points": self.points,
            "matches_expected": self.matches_expected,
        }
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        if self.corrected_citation is not None:
            doc["corrected"] = {
                "citation": self.corrected_citation,
                "points": self.corrected_points,
            }
            if self.corrected_counterexample is not None:
                doc["corrected"]["counterexample"] = self.corrected_counterexample
        if self.bound is not None:
            doc["bound"] = self.bound
        if self.notes:
            doc["notes"] = self.notes
        return doc


@dataclass
class VerificationReport:
    scale: str
    results: list[RecordResult]

    @property
    def all_match(self) -> bool:
        return all(r.matches_expected for r in self.results)

    def to_doc(self) -> dict:
        return {
            "schema": 1,
            "scale": self.scale,
            "all_match": self.all_match,
            "records": [r.to_doc() for r in self.results],
        }


def _sweep(
    lhs: Evaluator, rhs: Evaluator, points: Iterable[tuple]
) -> tuple[int, dict | None]:
    """The number of points checked, and the first counterexample or None."""
    checked = 0
    for point in points:
        checked += 1
        left = _safe(lhs, point)
        right = _safe(rhs, point)
        if left != right:
            return checked, {"point": list(point), "lhs": str(left), "rhs": str(right)}
    return checked, None


def evaluate_record(record: IdentityRecord, grid: GridScale) -> RecordResult:
    start = time.perf_counter()
    points, counterexample = _sweep(record.lhs, record.rhs, record.domain(grid))
    # A corrected form is validated even when the printed form unexpectedly
    # passes, so drift in either direction is caught.
    corr = record.corrected
    corr_points, corr_counterexample = 0, None
    if corr is not None:
        corr_points, corr_counterexample = _sweep(
            corr.lhs or record.lhs,
            corr.rhs or record.rhs,
            (corr.domain or record.domain)(grid),
        )
    if record.expected == "conjecture":
        status = "conjecture"
    elif counterexample is None:
        status = "verified"
    elif corr is not None and corr_counterexample is None:
        status = "fails-as-printed"
    else:
        status = "mismatch"
    return RecordResult(
        id=record.id,
        citation=record.citation,
        expected=record.expected,
        status=status,
        points=points,
        counterexample=counterexample,
        corrected_citation=corr.citation if corr else None,
        corrected_points=corr_points,
        corrected_counterexample=corr_counterexample,
        bound=record.bound_doc(grid) if record.bound_doc else None,
        notes=record.notes,
        seconds=time.perf_counter() - start,
    )


def run_registry(
    scale: str = "default", id_filter: str | None = None
) -> VerificationReport:
    """Evaluate every registered identity (optionally an id glob) at a scale."""
    grid = SCALES[scale]
    records = [
        r
        for r in registry()
        if id_filter is None or fnmatch.fnmatch(r.id, id_filter)
    ]
    results = [evaluate_record(r, grid) for r in sorted(records, key=lambda r: r.id)]
    return VerificationReport(scale=scale, results=results)


def _record(record_id: str) -> IdentityRecord:
    record = next((r for r in registry() if r.id == record_id), None)
    if record is None:
        raise ValueError(f"no record with id {record_id!r}")
    return record


def erratum_probe(record_id: str, scale: str = "default") -> dict:
    """Compare every registered candidate form of a flagged record to its oracle."""
    record = _record(record_id)
    if record.probe is None:
        raise ValueError(f"record {record_id!r} has no probe")
    grid = SCALES[scale]
    # Every candidate is swept against the same oracle, so its value at
    # each point is worked out once per probe.
    oracle = lru_cache(maxsize=None)(record.probe.oracle or record.lhs)
    resolution: dict = {
        "record": record_id,
        "oracle": record.probe.oracle_label,
        "candidates": [],
    }
    for label, fn in record.probe.candidates:
        points, counterexample = _sweep(oracle, fn, record.domain(grid))
        entry: dict = {
            "label": label,
            "matches": counterexample is None,
            "points": points,
        }
        if counterexample is not None:
            entry["counterexample"] = counterexample
        resolution["candidates"].append(entry)
    return resolution


# ---------------------------------------------------------------------------
# Cached brute-force values shared by several records.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _census_runs(n: int, max_part: int | None) -> dict:
    return orc.run_census(n, max_part=max_part)


@lru_cache(maxsize=None)
def _census_multiplicity(n: int, k: int, max_part: int | None) -> dict:
    return orc.count_by_part_multiplicity(n, k, max_part=max_part)


@lru_cache(maxsize=None)
def _census_largest(n: int) -> dict:
    return orc.largest_part_census(n)


@lru_cache(maxsize=None)
def _count_avoid(n: int, k: int) -> int:
    if n < 0:
        return 0
    return orc.count_compositions(n, forbidden_part=k)


@lru_cache(maxsize=None)
def _count_pal_avoid(n: int, k: int | None) -> int:
    return orc.count_palindromic_compositions(n, forbidden_part=k)


def _oracle_runs_of_value(n: int, j: int, k: int | None) -> int:
    return sum(v for (val, _l), v in _census_runs(n, k).items() if val == j)


def _oracle_total_runs(n: int, k: int | None) -> int:
    return sum(_census_runs(n, k).values())


def _oracle_at_least(n: int, m: int, k: int | None, p: int) -> int:
    return sum(v for mult, v in _census_multiplicity(n, m, k).items() if mult >= p)


def _oracle_exactly(n: int, m: int, k: int | None, p: int) -> int:
    return _census_multiplicity(n, m, k).get(p, 0)


# ---------------------------------------------------------------------------
# Domain builders.
# ---------------------------------------------------------------------------

def _pairs(limit_of, first_from=0, second_from=0):
    def gen(grid: GridScale) -> Iterator[tuple]:
        bound = limit_of(grid)
        for x in range(first_from, bound + 1):
            for y in range(second_from, bound + 1):
                yield (x, y)

    return gen


def _points_rn_sum(limit_of, r_from=0, n_from=0):
    def gen(grid: GridScale) -> Iterator[tuple]:
        bound = limit_of(grid)
        for total in range(bound + 1):
            for r in range(r_from, total + 1):
                n = total - r
                if n >= n_from:
                    yield (r, n)

    return gen


def _rows(limit_of, start=0):
    def gen(grid: GridScale) -> Iterator[tuple]:
        for r in range(start, limit_of(grid) + 1):
            yield (r,)

    return gen


def _triangle(limit_of, strict=False):
    """(n, k) with 1 <= k <= n <= limit, or k < n when ``strict``."""

    def gen(grid: GridScale) -> Iterator[tuple]:
        for n in range(1, limit_of(grid) + 1):
            for k in range(1, n + (not strict)):
                yield (n, k)

    return gen


def _parts(limit_of, p_from=None):
    """(n, m, k) with 1 <= m <= k <= n <= limit, then a multiplicity p
    from ``p_from`` up to n // m + 1 when ``p_from`` is given."""

    def gen(grid: GridScale) -> Iterator[tuple]:
        for n, k in _triangle(limit_of)(grid):
            for m in range(1, k + 1):
                if p_from is None:
                    yield (n, m, k)
                else:
                    for p in range(p_from, n // m + 2):
                        yield (n, m, k, p)

    return gen


# The conjecture scans walk these two shapes with their own bounds, so they
# take plain bounds instead of a grid.

def _multiples(max_n: int) -> Iterator[tuple]:
    """(n, k, l) with 1 <= k, l and k * l <= n <= max_n."""
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            for l in range(1, n // k + 1):
                yield (n, k, l)


def _conj1_points(max_s: int, max_r: int, max_n: int) -> Iterator[tuple]:
    """(s, r, n) in the box with s <= r + 1, where the binomial range is nonempty."""
    for s in range(1, max_s + 1):
        for r in range(max(1, s - 1), max_r + 1):
            for n in range(1, max_n + 1):
                yield (s, r, n)


def _fib_points(grid: GridScale) -> Iterator[tuple]:
    """(n, k) with 1 <= k <= limit and 1 <= n <= 2 * limit, k outermost."""
    for k in range(1, grid.limit + 1):
        for n in range(1, 2 * grid.limit + 1):
            yield (n, k)


def _pal_points(grid: GridScale) -> Iterator[tuple]:
    """(n, k) with 0 <= n <= oracle_limit + 2 and 1 <= k <= n + 1."""
    for n in range(0, grid.oracle_limit + 3):
        for k in range(1, n + 2):
            yield (n, k)


def _with_order(inner: Domain) -> Domain:
    """Append the series order 2 * limit to every point of ``inner``."""

    def gen(grid: GridScale) -> Iterator[tuple]:
        for point in inner(grid):
            yield point + (2 * grid.limit,)

    return gen


def _fmt_limit(g: GridScale) -> int:
    return g.limit


def _twice_limit(g: GridScale) -> int:
    return 2 * g.limit


def _orc_limit(g: GridScale) -> int:
    return g.oracle_limit


# ---------------------------------------------------------------------------
# Evaluator helpers.
# ---------------------------------------------------------------------------

def _integral(v: Fraction) -> object:
    return v.numerator if v.denominator == 1 else Defect(str(v))


def _gf_row(gf_of: Callable[..., ser.RationalGF]) -> Evaluator:
    """(*params, order) -> coefficients 0..order of gf_of(*params)."""
    return lambda *point: tuple(ser.expand(gf_of(*point[:-1]), point[-1]).coeffs)


def _seq_row(term: Evaluator) -> Evaluator:
    """(*params, order) -> (term(*params, i) for i = 0..order) as a series row."""

    def row(*point):
        *params, order = point
        return tuple(ser.series_of_sequence(lambda i: term(*params, i), order).coeffs)

    return row


# ---------------------------------------------------------------------------
# Individual evaluators that need more than a lambda.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bivariate_table(limit: int) -> dict[tuple[int, int], int]:
    # Cross-multiplying (1 - 2y - x + xy) A(x, y) = 1 - y gives the cell
    # recurrence below; expanding it is plain polynomial division in two
    # variables, independent of the single-variable route.
    cells: dict[tuple[int, int], int] = {}
    for r in range(limit + 1):
        for m in range(limit + 1):
            rhs = 1 if (r, m) == (0, 0) else (-1 if (r, m) == (0, 1) else 0)
            value = (
                rhs
                + 2 * cells.get((r, m - 1), 0)
                + cells.get((r - 1, m), 0)
                - cells.get((r - 1, m - 1), 0)
            )
            cells[(r, m)] = value
    return cells


def _fib_explicit_sum(n: int, k: int) -> object:
    total = Fraction(0)
    for r in range(n // (k + 1) + 1):
        c = binom(n - r * k, r)
        if c == 0:
            continue
        total += (
            Fraction((-1) ** r)
            * c
            * Fraction(n - r * k + r, n - r * k)
            * Fraction(2) ** (n - r * k - r - 1)
        )
    if total.denominator != 1:
        return Defect(f"non-integer value {total}")
    return total.numerator


def _fib_convolution(n: int, k: int, l: int) -> int:
    """``sum_{j=1..n} F(j, k) F(n + 1 - j, l)``."""
    # Each F is read once, upward: fibonacci_k keeps one window per k, so
    # a falling and a rising index in turn would restart it at most terms.
    left = [fibonacci_k(i, k) for i in range(n + 1)]
    right = left if l == k else [fibonacci_k(i, l) for i in range(n + 1)]
    return sum(left[j] * right[n + 1 - j] for j in range(1, n + 1))


def _negfib_tiling_sum(n: int, k: int, shift: int) -> int:
    # sum over j = r0, r0 + k, ... of (-1)^j a_j(j, (n + shift - j)/k - j)
    # where r0 = (n + shift) mod k.  shift = 1 reproduces the stated form
    # (n + 1 = km + r), shift = 2 the corrected one.
    m, r0 = divmod(n + shift, k)
    total = 0
    t = 0
    while True:
        j = r0 + t * k
        arg = m - r0 - t * (k + 1)
        if arg < 0:
            break
        sign = -1 if j % 2 else 1
        total += sign * a_s(j, j, arg)
        t += 1
    return total


@lru_cache(maxsize=None)
def _avoid_part_squared(k: int) -> ser.RationalGF:
    return ser.gf_avoid_part(k) ** 2


def _consecutive_block_series(n: int, k: int, p: int) -> Fraction:
    # A block of p parts k sits between two compositions with no part k,
    # so the count is coefficient n - kp of the square of their GF.
    m = n - k * p
    return ser.expand(_avoid_part_squared(k), m)[m]


def _tilings_max_white(r: int, n: int, k: int) -> int:
    return orc.count_tilings(r, n, orc.TilingFilter(max_white_len=k))


def _bounded_white_stated(r: int, n: int, k: int) -> int:
    return sum(a_k(r, n - j, k) for j in range(1, k + 1))


def _smaller_step_sum(n: int, k: int) -> int:
    # Sum_j F(n - jk, k - 1, j) is the run of fills a_k(j, n - 1 - jk, k - 1),
    # refused as a whole before its first fill.
    refuse_past_bounds(0, n // k, n - 1, k)
    return sum(
        fibonacci_k_conv(n - j * k, k - 1, j) for j in range(n // k + 1)
    )


def _stated_headline(n: int, k: int) -> object:
    return _integral(Fraction(2) ** (n - 2) * (n + 1))


def _replaced_compositions_stated(n: int) -> int:
    return sum(a_s(1, 1, n - j) * a(0, j) for j in range(1, n + 1))


def _replaced_compositions_total(n: int) -> int:
    return a_s(1, 2, n - 1)


def _replaced_parts_stated(n: int) -> int:
    return sum(a(1, n - j) * a_s(1, 1, n - j) for j in range(1, n + 1))


def _replaced_parts_total(n: int) -> int:
    return a_s(1, 3, n - 1)


def _pell_tiling_sum(n: int) -> int:
    total = 0
    i = 0
    while n - 4 * i >= 0:
        total += a_s(2 * i, 2 * i + 1, n - 4 * i)
        i += 1
    return total


def _printed_case_split_m(r: int, n: int) -> int:
    # First stated line taken literally: even red counts map to
    # a_1(rho, floor(nu / 2)) with nu = floor(n / 2); the stated third line
    # contradicts the first for odd n and is recorded in the notes.
    if r % 2 == 0:
        return a_s(1, r // 2, (n // 2) // 2)
    if n % 2:
        return 0
    return a(r // 2, n // 2)


def _pal_avoid_printed(n: int, k: int) -> int:
    # The printed summand m(j, n-2j) steps by 2 whatever k is.
    return _pal_avoid_plain_alternating(n, 2)


def _pal_avoid_plain_alternating(n: int, k: int) -> int:
    total = 0
    j = 0
    while n - j * k >= 0:
        total += (-1) ** j * cs.m_pal(j, n - j * k)
        j += 1
    return total


def _pal_avoid_same_parity_printed(n: int, k: int) -> int:
    total = 0
    j = 0
    while n - j * k >= 0 or n - (j + 1) * k >= 0:
        first = a_s(1, j, n - j * k) if n - j * k >= 0 else 0
        second = a(j, n - (j + 1) * k) if n - (j + 1) * k >= 0 else 0
        total += (-1) ** j * (first - second)
        j += 1
    return total


def _pal_avoid_same_parity_corrected(n: int, k: int) -> int:
    total = 0
    j = 0
    while n - 2 * j * k >= 0 or n - (2 * j + 1) * k >= 0:
        first = a_s(1, j, (n - 2 * j * k) // 2) if n - 2 * j * k >= 0 else 0
        arg = n - (2 * j + 1) * k
        second = a(j, arg // 2) if arg >= 0 else 0
        total += (-1) ** j * (first - second)
        j += 1
    return total


def _pal_avoid_diff_parity_printed(n: int, k: int) -> object:
    if n - 2 * k < 0:
        return cs.pal(n) if n >= 0 else 0
    # The stated summand does not depend on j, so the terms never vanish.
    for j in range(SUM_CAP):
        if a_s(1, j, n - 2 * k) == 0:
            break
    else:
        return Defect("summand is independent of j; the sum does not terminate")
    return 0


def _pal_avoid_diff_parity_corrected(n: int, k: int) -> int:
    total = 0
    j = 0
    while n - 2 * j * k >= 0:
        total += (-1) ** j * a_s(1, j, (n - 2 * j * k) // 2)
        j += 1
    return total


def _pal_with_part_printed(n: int, k: int) -> object:
    total = 0
    for j in range(1, SUM_CAP):
        first = cs.m_pal(2 * j - 1, n - (2 * j - 1) * k) if n - (2 * j - 1) * k >= 0 else 0
        second = cs.m_pal(2 * j, 2 * j * k)  # as stated: no dependence on n
        if first == 0 and second == 0:
            return total
        total += (-1) ** (j - 1) * (first + second)
        # m(2j, 2jk) >= 1 for every j, so once the n-depleting summand is
        # gone the series keeps oscillating and never settles.
        if first == 0 and n - (2 * j + 1) * k < 0:
            return Defect("second summand grows with j; the sum does not terminate")
    return Defect("second summand grows with j; the sum does not terminate")


def _pal_with_part_corrected(n: int, k: int) -> int:
    total = 0
    j = 1
    while n - (2 * j - 1) * k >= 0 or n - 2 * j * k >= 0:
        first = cs.m_pal(2 * j - 1, n - (2 * j - 1) * k) if n - (2 * j - 1) * k >= 0 else 0
        second = cs.m_pal(2 * j, n - 2 * j * k) if n - 2 * j * k >= 0 else 0
        total += (-1) ** (j - 1) * (first + second)
        j += 1
    return total


def _forbidden_one_red_printed(n: int, k: int) -> int:
    # Stated coefficients run 1, 1, 3, 4, 5, ...: the j = 2 term is missing
    # its factor of 2.
    total = 0
    j = 1
    while n - k * (j - 1) >= 0:
        coeff = 1 if j <= 2 else j
        total += (-1) ** (j - 1) * coeff * a(j, n - k * (j - 1))
        j += 1
    return total


def _conjecture1_formula(s: int, r: int, n: int) -> object:
    if s > r + 1:
        return Defect("empty binomial range: needs s <= r + 1")
    total = sum(
        binom(r + 1 - s, j) * binom(n + r - j, n) for j in range(r + 2 - s)
    )
    value = Fraction(2) ** (n - r - 1 + s) * total
    if value.denominator != 1:
        return Defect(f"non-integer value {value}")
    return value.numerator


def _scan(record_id: str, points: Iterable[tuple]) -> tuple[int, list[dict]]:
    """Every point where a conjecture record's two sides disagree."""
    record = _record(record_id)
    checked = 0
    counterexamples = []
    for point in points:
        checked += 1
        formula, value = record.rhs(*point), record.lhs(*point)
        if formula != value:
            counterexamples.append(
                {"point": list(point), "formula": formula, "value": value}
            )
    return checked, counterexamples


def check_conjecture_1(max_s: int, max_r: int, max_n: int) -> dict:
    """Grid scan of the closed-form conjecture for the cumulative sums.

    The binomial upper limit ``r + 1 - s`` makes the statement vacuous for
    ``s > r + 1``; those points are skipped and counted separately.
    """
    points, counterexamples = _scan(
        "conjecture-cumulative-closed-form", _conj1_points(max_s, max_r, max_n)
    )
    return {
        "conjecture": "cumulative-closed-form",
        "bounds": {"s": max_s, "r": max_r, "n": max_n},
        "domain": "1 <= s <= r + 1",
        "points": points,
        "skipped_out_of_domain": max_s * max_r * max_n - points,
        "counterexamples": [
            {**cx, "formula": str(cx["formula"])} for cx in counterexamples
        ],
    }


def check_runs_conjecture(max_n: int) -> dict:
    """Compare the run-length formula against exhaustive run censuses."""
    points, counterexamples = _scan("conjecture-runs-by-length", _multiples(max_n))
    return {
        "conjecture": "runs-by-length",
        "bounds": {"n": max_n},
        "points": points,
        "counterexamples": counterexamples,
    }


# ---------------------------------------------------------------------------
# The registry itself.
# ---------------------------------------------------------------------------

_REGISTRY: list[IdentityRecord] | None = None


def registry() -> list[IdentityRecord]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def _build_registry() -> list[IdentityRecord]:
    records: list[IdentityRecord] = []
    add = records.append

    # -- base family ---------------------------------------------------------

    add(IdentityRecord(
        id="two-tone-recurrence",
        citation="a(r,n) = a(r-1,n) + 2 a(r,n-1) - a(r-1,n-1); a(r,0) = 1, a(0,n) = 2^(n-1)",
        lhs=orc.count_tilings,
        rhs=a,
        domain=_points_rn_sum(_orc_limit),
    ))

    add(IdentityRecord(
        id="gf-two-tone",
        citation="sum_n a(r,n) x^n = ((1-x)/(1-2x))^(r+1)",
        lhs=_gf_row(ser.gf_geometric_two_tone),
        rhs=_seq_row(a),
        domain=_with_order(_rows(_fmt_limit)),
    ))

    add(IdentityRecord(
        id="gf-two-tone-bivariate",
        citation="sum_{r,n} a(r,n) x^r y^n = (1-y)/(1-2y-x+xy)",
        lhs=lambda r, n, lim: _bivariate_table(lim)[(r, n)],
        rhs=lambda r, n, lim: a(r, n),
        domain=lambda g: (
            (r, n, g.limit) for r in range(g.limit + 1) for n in range(g.limit + 1)
        ),
    ))

    add(IdentityRecord(
        id="two-tone-convolution",
        citation="a(r,n) = sum_{j=0..n} a(r-1,n-j) a(0,j)",
        lhs=a,
        rhs=lambda r, n: sum(a(r - 1, n - j) * a(0, j) for j in range(n + 1)),
        domain=_points_rn_sum(_twice_limit, r_from=1),
    ))

    add(IdentityRecord(
        id="two-tone-closed-form",
        citation="a(r,n) = 2^(n-r-1) sum_{j=0..r} C(r+1,j) C(n+r-j,n)",
        lhs=a,
        rhs=a_explicit,
        domain=_pairs(_fmt_limit, second_from=1),
        notes="the 2^(n-r-1) factor leaves the integers at n = 0, so the"
              " registry domain starts at n = 1",
    ))

    add(IdentityRecord(
        id="two-tone-recurrence-cumulative",
        citation="a(r,n) = a_1(r,n-1) + a(r-1,n)",
        lhs=a,
        rhs=lambda r, n: a_s(1, r, n - 1) + a(r - 1, n),
        domain=_pairs(_fmt_limit, 1, 1),
    ))

    # -- cumulative sums a_s --------------------------------------------------

    add(IdentityRecord(
        id="suffix-white-tilings",
        citation="a_s(r,n) = #{(n+r+s)-tilings, r reds, last s tiles white}"
                 " = sum_{i=0..n} a_{s-1}(r,i)",
        lhs=lambda s, r, n: orc.count_tilings(
            r, n, orc.TilingFilter(suffix_white_tiles=s)
        ),
        rhs=a_s,
        domain=lambda g: (
            (s, r, total - r)
            for s in range(0, 5)
            for total in range(g.oracle_limit - s + 1)
            for r in range(total + 1)
        ),
    ))

    add(IdentityRecord(
        id="gf-suffix-white",
        citation="sum_n a_s(r,n) x^n = (1/(1-x))^s ((1-x)/(1-2x))^(r+1)",
        lhs=_gf_row(ser.gf_suffix_white),
        rhs=_seq_row(a_s),
        domain=_with_order(_pairs(lambda g: g.limit // 2)),
    ))

    add(IdentityRecord(
        id="gf-diagonal",
        citation="sum_n a_r(r,n) x^n = (1-x)/(1-2x)^(r+1)",
        lhs=_gf_row(lambda r: ser.gf_suffix_white(r, r)),
        rhs=_seq_row(lambda r, i: a_s(r, r, i)),
        domain=_with_order(_rows(_fmt_limit)),
    ))

    add(IdentityRecord(
        id="diagonal-closed-form",
        citation="a_r(r,n) = 2^(n-1) (C(n+r,r) + C(n+r-1,r-1))",
        lhs=lambda r, n: a_s(r, r, n),
        rhs=a_diag,
        domain=lambda g: (
            (r, n)
            for r in range(g.limit + 1)
            for n in range(g.limit + 1)
            if r + n >= 1
        ),
        notes="at (0,0) the closed form evaluates to 1/2; the registry"
              " domain requires r + n >= 1",
    ))

    add(IdentityRecord(
        id="gf-superdiagonal",
        citation="sum_n a_{r+1}(r,n) x^n = 1/(1-2x)^(r+1)",
        lhs=_gf_row(lambda r: ser.gf_suffix_white(r + 1, r)),
        rhs=_seq_row(lambda r, i: a_s(r + 1, r, i)),
        domain=_with_order(_rows(_fmt_limit)),
    ))

    add(IdentityRecord(
        id="superdiagonal-closed-form",
        citation="a_{r+1}(r,n) = 2^n C(n+r,r)",
        lhs=lambda r, n: a_s(r + 1, r, n),
        rhs=a_diag_plus,
        domain=_pairs(_fmt_limit),
    ))

    add(IdentityRecord(
        id="cumulative-binomial-sum",
        citation="a_s(r,n) = sum_{j=0..n} C(n-1+s, j-1+s) C(r+j, r)",
        lhs=a_s,
        rhs=a_s_binomial,
        domain=lambda g: (
            (s, r, n)
            for s in range(g.limit // 2 + 1)
            for r in range(g.limit // 2 + 1)
            for n in range(g.limit // 2 + 1)
            if n + s >= 1
        ),
        notes="at s = 0, n = 0 the binomial sum is empty; the registry"
              " domain requires n + s >= 1",
    ))

    add(IdentityRecord(
        id="conjecture-cumulative-closed-form",
        citation="a_s(r,n) = 2^(n-r-1+s) sum_{j=0..r+1-s} C(r+1-s,j) C(n+r-j,n)"
                 " for s,r,n >= 1",
        lhs=a_s,
        rhs=_conjecture1_formula,
        domain=lambda g: _conj1_points(g.limit, g.limit, g.limit),
        bound_doc=lambda g: {
            "s": g.limit, "r": g.limit, "n": g.limit,
            "domain": "1 <= s <= r + 1",
        },
        notes="the binomial range is empty for s > r + 1, where the equality"
              " cannot hold; the scan covers the meaningful domain",
    ))

    add(IdentityRecord(
        id="diagonal-recurrence",
        citation="a_r(r,n) = 2 a_r(r,n-1) + a_{r-1}(r-1,n)",
        lhs=lambda r, n: a_s(r, r, n),
        rhs=lambda r, n: 2 * a_s(r, r, n - 1) + a_s(r - 1, r - 1, n),
        domain=_pairs(_fmt_limit, 1, 1),
    ))

    # -- k-step Fibonacci ------------------------------------------------------

    add(IdentityRecord(
        id="step-fib-doubling-plateau",
        citation="F(j,k) = 2^(j-2) for 2 <= j <= k",
        lhs=fibonacci_k,
        rhs=lambda j, k: 1 << (j - 2),
        domain=lambda g: (
            (j, k) for k in range(2, g.limit + 1) for j in range(2, k + 1)
        ),
    ))

    add(IdentityRecord(
        id="step-fib-from-diagonals",
        citation="F(n+1,k) = sum_{j>=0} (-1)^j a_j(j, n-j(k+1)) for k >= 0, n >= -1",
        lhs=lambda n, k: fibonacci_k(n + 1, k),
        rhs=lambda n, k: sum(
            (-1) ** j * a_s(j, j, n - j * (k + 1))
            for j in range(n // (k + 1) + 1)
        ) if n >= 0 else 0,
        domain=lambda g: (
            (n, k) for k in range(0, g.limit + 1) for n in range(-1, 2 * g.limit + 1)
        ),
    ))

    add(IdentityRecord(
        id="gf-step-fib",
        citation="sum_n F(n+1,k) x^n = 1/(1 - x - x^2 - ... - x^k)",
        lhs=_gf_row(ser.gf_step_sum),
        rhs=_seq_row(lambda k, i: fibonacci_k(i + 1, k)),
        domain=_with_order(_rows(_fmt_limit, start=1)),
    ))

    add(IdentityRecord(
        id="step-fib-explicit-sum",
        citation="F(n+1,k) = sum_r (-1)^r C(n-rk,r) ((n-rk+r)/(n-rk)) 2^(n-rk-r-1)"
                 " for n,k >= 1",
        lhs=lambda n, k: fibonacci_k(n + 1, k),
        rhs=_fib_explicit_sum,
        domain=_fib_points,
    ))

    add(IdentityRecord(
        id="gf-negative-step-fib",
        citation="sum_i negF(1-i,k) x^i = (1-x^k)/(1-2x^k+x^(k+1))",
        lhs=_gf_row(lambda k: ser.RationalGF.of(
            (1,) + (0,) * (k - 1) + (-1,),
            (1,) + (0,) * (k - 1) + (-2,) + (1,),
        )),
        rhs=_seq_row(lambda k, i: neg_fibonacci_k(1 - i, k)),
        domain=_with_order(lambda g: ((k,) for k in range(2, 7))),
        notes="the substitution negF(n,k) = b(1-n) pins b(0) = negF(1) = 1;"
              " the seed list printed alongside the proof says b(0) = 0 but"
              " the generating function itself is the one shown here",
    ))

    add(IdentityRecord(
        id="negative-step-fib-from-diagonals",
        citation="negF(-(n+1),k) = sum_{j>=0} (-1)^(r-jk)"
                 " a_{r+jk}(r+jk, m-r-j(k+1)) with n+1 = km+r, 0 <= r < k",
        lhs=lambda n, k: neg_fibonacci_k(-(n + 1), k),
        rhs=lambda n, k: _negfib_tiling_sum(n, k, shift=1),
        domain=lambda g: (
            (n, k) for k in range(2, 6) for n in range(1, 2 * g.limit + 1)
        ),
        corrected=CorrectedForm(
            citation="negF(-(n+1),k) = sum_{j>=0} (-1)^(r-jk)"
                     " a_{r+jk}(r+jk, m-r-j(k+1)) with n+2 = km+r, 0 <= r < k",
            rhs=lambda n, k: _negfib_tiling_sum(n, k, shift=2),
        ),
        notes="the quotient-remainder split belongs to n+2, not n+1; the"
              " sign (-1)^(r-jk) is read with integer semantics either way",
    ))

    add(IdentityRecord(
        id="fib2-from-diagonals",
        citation="F(n+1,2) = sum_{i>=0} (-1)^i a_i(i, n-3i)",
        lhs=lambda n: fibonacci_k(n + 1, 2),
        rhs=lambda n: sum(
            (-1) ** i * a_s(i, i, n - 3 * i) for i in range(n // 3 + 1)
        ),
        domain=_rows(_twice_limit),
    ))

    add(IdentityRecord(
        id="negfib2-even-index",
        citation="negF(-(n+1),2) = sum_i a_{2i}(2i, m-3i) if n = 2m-1",
        lhs=lambda m: neg_fibonacci_k(-2 * m, 2),
        rhs=lambda m: sum(
            a_s(2 * i, 2 * i, m - 3 * i) for i in range(m // 3 + 1)
        ),
        domain=_rows(_fmt_limit, start=1),
        corrected=CorrectedForm(
            citation="negF(-(2m-1),2) = sum_i a_{2i}(2i, m-3i)",
            lhs=lambda m: neg_fibonacci_k(-(2 * m - 1), 2),
        ),
        notes="the index on the left is off by one",
    ))

    add(IdentityRecord(
        id="negfib2-odd-index",
        citation="negF(-(n+1),2) = sum_i (-1)^(i+1) a_{2i+1}(2i+1, m-(3i+1))"
                 " if n = 2m",
        lhs=lambda m: neg_fibonacci_k(-(2 * m + 1), 2),
        rhs=lambda m: sum(
            (-1) ** (i + 1) * a_s(2 * i + 1, 2 * i + 1, m - (3 * i + 1))
            for i in range((m - 1) // 3 + 1)
        ),
        domain=_rows(_fmt_limit, start=1),
        corrected=CorrectedForm(
            citation="negF(-2m,2) = - sum_i a_{2i+1}(2i+1, m-(3i+1))",
            lhs=lambda m: neg_fibonacci_k(-2 * m, 2),
            rhs=lambda m: -sum(
                a_s(2 * i + 1, 2 * i + 1, m - (3 * i + 1))
                for i in range((m - 1) // 3 + 1)
            ),
        ),
        notes="the signs do not alternate: every term carries -1",
    ))

    add(IdentityRecord(
        id="negfib2-reflection",
        citation="negF(n,2) = F(-n,2) for n < 0",
        lhs=lambda n: neg_fibonacci_k(n, 2),
        rhs=lambda n: fibonacci_k(-n, 2),
        domain=lambda g: ((-n,) for n in range(1, 2 * g.limit + 1)),
        corrected=CorrectedForm(
            citation="negF(n,2) = (-1)^(n+1) F(-n,2) for n < 0",
            # (-1)^(n+1) as an int: a negative power of -1 is a float.
            rhs=lambda n: (1 if n % 2 else -1) * fibonacci_k(-n, 2),
        ),
        notes="negatively indexed classical Fibonacci numbers alternate in"
              " sign; the reflection needs the (-1)^(n+1) factor",
    ))

    # -- convolutions and bounded white lengths --------------------------------

    add(IdentityRecord(
        id="conv-first-step",
        citation="F(n,k,1) = sum_{j=1..n} F(n+1-j,k) F(j,k)",
        lhs=lambda n, k: fibonacci_k_conv(n, k, 1),
        rhs=lambda n, k: _fib_convolution(n, k, k),
        domain=lambda g: (
            (n, k) for k in range(1, g.limit + 1) for n in range(1, g.limit + 1)
        ),
    ))

    add(IdentityRecord(
        id="conv-recursive-step",
        citation="F(n,k,r) = sum_{j=1..n} F(n+1-j,k,r-1) F(j,k,r-1)",
        lhs=fibonacci_k_conv,
        rhs=lambda n, k, r: sum(
            fibonacci_k_conv(n + 1 - j, k, r - 1) * fibonacci_k_conv(j, k, r - 1)
            for j in range(1, n + 1)
        ),
        domain=lambda g: (
            (n, k, r)
            for k in range(1, g.limit // 2 + 1)
            for r in range(1, g.limit // 2 + 1)
            for n in range(1, g.limit + 1)
        ),
        corrected=CorrectedForm(
            citation="F(n,k,r) = sum_{j=1..n} F(n+1-j,k,r-1) F(j,k)",
            rhs=lambda n, k, r: sum(
                fibonacci_k_conv(n + 1 - j, k, r - 1) * fibonacci_k(j, k)
                for j in range(1, n + 1)
            ),
        ),
        notes="convolving the (r-1)-th convolution with itself lands at"
              " order 2r-1, not r; the second factor is the base sequence",
    ))

    add(IdentityRecord(
        id="bounded-white-recurrence",
        citation="a(r,n,k) = sum_{j=1..k} a(r,n-j,k) for all n,k,r >= 0",
        lhs=a_k,
        rhs=_bounded_white_stated,
        domain=lambda g: (
            (r, n, k)
            for k in range(1, 5)
            for r in range(0, g.limit // 2 + 1)
            for n in range(1, g.limit + 1)
        ),
        corrected=CorrectedForm(
            citation="a(0,n,k) = sum_{j=1..k} a(0,n-j,k) for n >= 1",
            lhs=lambda r, n, k: a_k(0, n, k),
            rhs=lambda r, n, k: _bounded_white_stated(0, n, k),
        ),
        probe=ProbeSpec(
            oracle=_tilings_max_white,
            oracle_label="exhaustive tiling enumeration with white lengths <= k",
            candidates=(
                ("stated recurrence", _bounded_white_stated),
                ("convolution of bounded-part counts", a_k),
            ),
        ),
        notes="a red placed first is not reachable by removing a white tile;"
              " the recurrence only holds with no reds (r = 0)",
    ))

    add(IdentityRecord(
        id="bounded-white-tilings",
        citation="a(r,n,k) = #{(n+r)-tilings with white lengths 1..k}"
                 " = F(n+1,k,r)",
        lhs=_tilings_max_white,
        rhs=a_k,
        domain=lambda g: (
            (r, total - r, k)
            for k in range(1, 6)
            for total in range(g.oracle_limit + 1)
            for r in range(total + 1)
        ),
    ))

    add(IdentityRecord(
        id="gf-bounded-white",
        citation="sum_n a(r,n,k) x^n = ((1-x)/(1-2x+x^(k+1)))^(r+1)",
        lhs=_gf_row(ser.gf_bounded_two_tone),
        rhs=_seq_row(lambda r, k, i: a_k(r, i, k)),
        domain=_with_order(lambda g: (
            (r, k) for r in range(g.limit // 2 + 1) for k in range(1, 7)
        )),
    ))

    add(IdentityRecord(
        id="bounded-white-alternating-sum",
        citation="a(r,n,k) = sum_{j>=0} (-1)^j C(r+j,r) a_j(r+j, n-j(k+1))",
        lhs=a_k,
        rhs=lambda r, n, k: sum(
            (-1) ** j * binom(r + j, r) * a_s(j, r + j, n - j * (k + 1))
            for j in range(n // (k + 1) + 1)
        ),
        domain=lambda g: (
            (r, n, k)
            for k in range(1, 6)
            for r in range(g.limit // 2 + 1)
            for n in range(g.limit + 1)
        ),
    ))

    add(IdentityRecord(
        id="step-fib-from-smaller-step",
        citation="F(n,k) = sum_{j>=0} F(n-jk, k-1, j)",
        lhs=fibonacci_k,
        rhs=_smaller_step_sum,
        domain=lambda g: (
            (n, k) for k in range(1, 7) for n in range(1, 2 * g.limit + 1)
        ),
    ))

    # -- compositions with part restrictions -----------------------------------

    add(IdentityRecord(
        id="least-one-part",
        citation="L(n,k) = sum_{j>=1} (-1)^(j-1) a(j, n-jk)",
        lhs=lambda n, k: _oracle_at_least(n, k, None, 1),
        rhs=cs.L,
        domain=_triangle(_orc_limit),
    ))

    add(IdentityRecord(
        id="least-one-part-bounded",
        citation="L(n,m,k) = sum_{j>=1} (-1)^(j-1) F(n+1-jm, k, j)",
        lhs=lambda n, m, k: _oracle_at_least(n, m, k, 1),
        rhs=cs.L_restricted,
        domain=_parts(_orc_limit),
    ))

    add(IdentityRecord(
        id="least-p-parts-bounded",
        citation="L_p(n,m,k) = sum_{j>=p} (-1)^(j-p) C(j-1,p-1) F(n+1-jm, k, j)",
        lhs=_oracle_at_least,
        rhs=cs.L_p,
        domain=_parts(_orc_limit, p_from=1),
    ))

    add(IdentityRecord(
        id="exact-p-parts-bounded",
        citation="E_p(n,m,k) = sum_{j>=p} (-1)^(j-p) C(j,p) F(n+1-jm, k, j)",
        lhs=_oracle_exactly,
        rhs=cs.E_p,
        domain=_parts(_orc_limit, p_from=0),
    ))

    add(IdentityRecord(
        id="exact-parts-from-least",
        citation="E_p(n,m,k) = L_p(n,m,k) - L_{p+1}(n,m,k)",
        lhs=cs.E_p,
        rhs=lambda n, m, k, p: cs.L_p(n, m, k, p) - cs.L_p(n, m, k, p + 1),
        domain=_parts(_fmt_limit, p_from=1),
    ))

    add(IdentityRecord(
        id="part-occurrences-headline",
        citation="S(n,k) = 2^(n-2) (n+1) for 1 <= k < n",
        lhs=orc.part_occurrences,
        rhs=_stated_headline,
        domain=_triangle(_orc_limit, strict=True),
        corrected=CorrectedForm(
            citation="S(n,k) = a(1, n-k)",
            rhs=cs.S,
        ),
        probe=ProbeSpec(
            oracle_label="occurrences of k counted over every composition of n",
            candidates=(
                ("stated headline 2^(n-2)(n+1)", _stated_headline),
                ("a(1, n-k)", lambda n, k: a(1, n - k)),
                (
                    "total parts over all compositions (what the headline"
                    " actually equals)",
                    lambda n, k: cs.E_total(n),
                ),
            ),
        ),
        notes="the headline drops the k-shift and instead equals the total"
              " part count E(n) = a_1(1, n-1)",
    ))

    add(IdentityRecord(
        id="part-occurrences-shifted-power",
        citation="S(n,k) = 2^(n-k-2) (n-k+3) for 1 <= k < n",
        lhs=orc.part_occurrences,
        rhs=lambda n, k: _integral(Fraction(2) ** (n - k - 2) * (n - k + 3)),
        domain=_triangle(_orc_limit, strict=True),
    ))

    add(IdentityRecord(
        id="part-occurrences-tiling",
        citation="S(n,k) = a(1, n-k)",
        lhs=orc.part_occurrences,
        rhs=cs.S,
        domain=_triangle(_orc_limit),
    ))

    add(IdentityRecord(
        id="runs-of-value-bounded",
        citation="r(n,j,{k}) = F(n+1-j,k,1) - F(n+1-2j,k,1)",
        lhs=_oracle_runs_of_value,
        rhs=cs.runs_restricted,
        domain=_parts(_orc_limit),
    ))

    add(IdentityRecord(
        id="total-runs-bounded",
        citation="r(n,{k}) = sum_{j>=0} F(n-2j, k, 1)",
        lhs=_oracle_total_runs,
        rhs=lambda n, k: sum(
            fibonacci_k_conv(n - 2 * j, k, 1) for j in range((n - 1) // 2 + 1)
        ),
        domain=_triangle(_orc_limit),
        corrected=CorrectedForm(
            citation="r(n,{k}) = sum_{j=1..k} (F(n+1-j,k,1) - F(n+1-2j,k,1))",
            rhs=cs.total_runs_restricted,
        ),
        notes="the telescoped form only survives when k >= n; for k < n the"
              " cancellation pattern is incomplete and the per-value sums"
              " must be added directly",
    ))

    add(IdentityRecord(
        id="avoid-part-recurrence",
        citation="C(n,k^) = 2 C(n-1,k^) + C(n-k-1,k^) - C(n-k,k^)",
        lhs=_count_avoid,
        rhs=lambda n, k: 2 * _count_avoid(n - 1, k)
        + _count_avoid(n - k - 1, k)
        - _count_avoid(n - k, k),
        domain=_pairs(_orc_limit, 2, 1),
        notes="the empty composition makes n = 1 a degenerate case, so the"
              " registry domain starts at n = 2",
    ))

    c_hat_row = _seq_row(lambda k, i: cs.C_hat(i, k))
    add(IdentityRecord(
        id="gf-avoid-part",
        citation="sum_n C(n,k^) x^n = (1-x)/(1-2x+x^k-x^(k+1))",
        lhs=_gf_row(ser.gf_avoid_part),
        rhs=c_hat_row,
        domain=_with_order(_rows(_fmt_limit, start=1)),
    ))

    add(IdentityRecord(
        id="avoid-part-complement",
        citation="C(n,k^) = C(n) - L(n,k)",
        # The series side, not C_hat: its sum of (-1)^j a(j, n - jk) is
        # a(0, n) less L(n, k), the same terms as the rhs.
        lhs=lambda n, k: ser.expand(ser.gf_avoid_part(k), n)[n],
        rhs=lambda n, k: a(0, n) - cs.L(n, k),
        domain=_triangle(_twice_limit),
    ))

    add(IdentityRecord(
        id="avoid-part-alternating",
        citation="C(n,k^) = sum_{j>=0} (-1)^j a(j, n-jk)",
        lhs=_count_avoid,
        rhs=cs.C_hat,
        domain=_pairs(_orc_limit, second_from=1),
    ))

    add(IdentityRecord(
        id="gf-allowed-parts",
        citation="sum_n C_S(n) x^n = 1/(1 - sum_{s in S} x^s)",
        lhs=_gf_row(ser.gf_allowed_parts),
        rhs=_seq_row(lambda parts, i: orc.count_compositions(i, allowed_parts=parts)),
        domain=lambda g: (
            (parts, g.oracle_limit + 2)
            for parts in ((1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 5), (2, 4, 5))
        ),
    ))

    def _avoid_gf_geometric(k: int, order: int, start: int) -> object:
        # the geometric sum truncated at x**order: terms past it cannot
        # reach coefficients 0..order
        den = [1] + [0] * order
        for i in range(start, order + 1):
            den[i] -= 1
        if k <= order:
            den[k] += 1
        return tuple(ser.expand(ser.RationalGF.of((1,), den), order).coeffs)

    add(IdentityRecord(
        id="gf-avoid-part-via-geometric",
        citation="sum_n C(n,k^) x^n = 1/(1 + x^k - sum_{i>=0} x^i)",
        lhs=lambda k, order: _avoid_gf_geometric(k, order, start=0),
        rhs=c_hat_row,
        domain=_with_order(_rows(_fmt_limit, start=1)),
        corrected=CorrectedForm(
            citation="sum_n C(n,k^) x^n = 1/(1 + x^k - sum_{i>=1} x^i)",
            lhs=lambda k, order: _avoid_gf_geometric(k, order, start=1),
        ),
        notes="with the geometric sum starting at i = 0 the denominator"
              " loses its constant term and has no expansion at all",
    ))

    add(IdentityRecord(
        id="fib2-avoid-one",
        citation="F(n-1,2) = sum_{j>=0} (-1)^j a(j, n-j)",
        lhs=lambda n: fibonacci_k(n - 1, 2),
        rhs=lambda n: cs.C_hat(n, 1),
        domain=_rows(_twice_limit, start=1),
    ))

    add(IdentityRecord(
        id="avoid-part-halfway",
        citation="C(n,k^) = 2^(n-1) - 2^(n-k) (n-k+3) for k > n/2",
        lhs=_count_avoid,
        rhs=lambda n, k: (1 << (n - 1)) - (1 << (n - k)) * (n - k + 3)
        if n - k >= 0
        else (1 << (n - 1)),
        domain=lambda g: (
            (n, k)
            for n in range(1, g.oracle_limit + 1)
            for k in range(n // 2 + 1, n + 1)
        ),
        corrected=CorrectedForm(
            citation="C(n,k^) = 2^(n-1) - a(1, n-k) for k > n/2",
            rhs=lambda n, k: (1 << (n - 1)) - a(1, n - k),
        ),
        notes="the subtracted term is a(1, n-k) = 2^(n-k-2) (n-k+3); the"
              " stated power of two is off by the factor 2^(-2)",
    ))

    add(IdentityRecord(
        id="forbidden-white-tilings",
        citation="C(n,m,k^) = sum_{j>=m} (-1)^(j-m) C(j,m) a(j, n-k(j-m))",
        lhs=lambda n, m, k: orc.count_tilings(
            m, n, orc.TilingFilter(forbidden_white_len=k)
        ),
        rhs=cs.C_hat_tilings,
        domain=lambda g: (
            (n, m, k)
            for k in range(1, 5)
            for m in range(0, 4)
            for n in range(0, g.oracle_limit - m + 1)
        ),
    ))

    add(IdentityRecord(
        id="forbidden-white-exact-parts",
        citation="C(n,m,k^) = E_m(n+mk, k)",
        lhs=lambda n, m, k: _oracle_exactly(n + m * k, k, None, m),
        rhs=cs.C_hat_tilings,
        domain=lambda g: (
            (n, m, k)
            for k in range(1, 4)
            for m in range(0, 3)
            for n in range(0, g.oracle_limit - m * k + 1)
            if n + m * k <= g.oracle_limit + 2
        ),
    ))

    add(IdentityRecord(
        id="forbidden-white-one-red-expansion",
        citation="C(n,1,k^) = a(1,n) - a(2,n-k) + 3 a(3,n-2k) - ...",
        lhs=lambda n, k: orc.count_tilings(
            1, n, orc.TilingFilter(forbidden_white_len=k)
        ),
        rhs=_forbidden_one_red_printed,
        domain=lambda g: (
            (n, k) for k in range(1, 4) for n in range(0, g.oracle_limit)
        ),
        corrected=CorrectedForm(
            citation="C(n,1,k^) = a(1,n) - 2 a(2,n-k) + 3 a(3,n-2k) - ...",
            rhs=lambda n, k: cs.C_hat_tilings(n, 1, k),
        ),
        notes="the coefficient C(2,1) = 2 on the second term is missing",
    ))

    # -- largest part -----------------------------------------------------------

    add(IdentityRecord(
        id="bounded-parts-recurrence",
        citation="C(n,<1..k>) = sum_{j=1..k} C(n-j,<1..k>)",
        lhs=lambda n, k: fibonacci_k(n + 1, k),
        rhs=lambda n, k: sum(fibonacci_k(n - j + 1, k) for j in range(1, k + 1)),
        domain=_fib_points,
    ))

    add(IdentityRecord(
        id="bounded-parts-count",
        citation="C(n,<1..k>) = F(n+1,k)",
        lhs=lambda n, k: orc.count_compositions(n, max_part=k),
        rhs=lambda n, k: fibonacci_k(n + 1, k),
        domain=lambda g: (
            (n, k)
            for n in range(0, g.oracle_limit + 1)
            for k in range(1, n + 2)
        ),
    ))

    add(IdentityRecord(
        id="largest-part-difference",
        citation="G(n,k) = C(n,<1..k>) - C(n,<1..k-1>) = F(n+1,k) - F(n+1,k-1)",
        lhs=lambda n, k: sum(
            v for (top, _m), v in _census_largest(n).items() if top == k
        ),
        rhs=cs.G,
        domain=_triangle(_orc_limit),
    ))

    def _gf_largest(k: int, power: int) -> ser.RationalGF:
        num = ser.poly_mul(ser.monomial(1, power), ser.poly_pow((1, -1), 2))
        den_hi = ser.gf_bounded_parts(k).den
        den_lo = ser.gf_bounded_parts(k - 1).den if k >= 2 else (1, -1)
        return ser.RationalGF.of(num, ser.poly_mul(den_hi, den_lo))

    add(IdentityRecord(
        id="gf-largest-part",
        citation="sum_n G(n,k) x^n = x^(k-1) (1-x)^2 /"
                 " ((1-2x+x^(k+1)) (1-2x+x^k))",
        lhs=_gf_row(lambda k: _gf_largest(k, k - 1)),
        rhs=_seq_row(lambda k, i: cs.G(i, k)),
        domain=_with_order(_rows(_fmt_limit, start=1)),
        corrected=CorrectedForm(
            citation="sum_n G(n,k) x^n = x^k (1-x)^2 /"
                     " ((1-2x+x^(k+1)) (1-2x+x^k))",
            lhs=_gf_row(lambda k: _gf_largest(k, k)),
        ),
        notes="the numerator power is one shy: no composition of k-1 has"
              " largest part k",
    ))

    add(IdentityRecord(
        id="largest-part-convolution",
        citation="G(n+k-1,k) = sum_{i+j=n} F(i+1,k) F(j+1,k-1)",
        lhs=lambda n, k: cs.G(n + k - 1, k),
        rhs=lambda n, k: _fib_convolution(n + 1, k, k - 1),
        domain=lambda g: (
            (n, k) for k in range(1, g.limit + 1) for n in range(0, g.limit + 1)
        ),
        corrected=CorrectedForm(
            citation="G(n+k,k) = sum_{i+j=n} F(i+1,k) F(j+1,k-1)",
            lhs=lambda n, k: cs.G(n + k, k),
        ),
        notes="same off-by-one as the generating function: the convolution"
              " is supported from n = k on",
    ))

    add(IdentityRecord(
        id="largest-part-multiplicity",
        citation="G(n,k,r) = F(n+1-kr, k-1, r)",
        lhs=lambda n, k, r: _census_largest(n).get((k, r), 0),
        rhs=cs.G_exact,
        domain=lambda g: _multiples(g.oracle_limit),
    ))

    add(IdentityRecord(
        id="largest-part-multiplicity-sum",
        citation="G(n,k) = sum_{r>=1} G(n,k,r)",
        lhs=cs.G,
        rhs=lambda n, k: sum(cs.G_exact(n, k, r) for r in range(1, n // k + 1)),
        domain=_triangle(_fmt_limit),
    ))

    # -- frozen parts ------------------------------------------------------------

    add(IdentityRecord(
        id="frozen-parts-avoid-sum",
        citation="CF(n,k) = sum_{j>=0} C(n-jk, k^)",
        lhs=lambda n, k: sum(
            _count_avoid(n - j * k, k) for j in range(n // k + 1)
        ),
        rhs=cs.CF,
        domain=_pairs(_orc_limit, second_from=1),
    ))

    add(IdentityRecord(
        id="frozen-parts-allowed-parts",
        citation="CF(n,k) = C(n, <1,...,k,2k>)",
        lhs=lambda n, k: orc.count_compositions(
            n, allowed_parts=set(range(1, k + 1)) | {2 * k}
        ),
        rhs=cs.CF,
        domain=_pairs(_orc_limit, second_from=1),
    ))

    add(IdentityRecord(
        id="gf-frozen-parts",
        citation="sum_n CF(n,k) x^n = 1/(1 - x - x^2 - ... - x^k - x^(2k))",
        lhs=_gf_row(lambda k: ser.gf_allowed_parts((*range(1, k + 1), 2 * k))),
        rhs=_seq_row(lambda k, i: cs.CF(i, k)),
        domain=_with_order(_rows(_fmt_limit, start=1)),
    ))

    add(IdentityRecord(
        id="frozen-parts-convolution",
        citation="CF(n,k) = sum_{j>=0} F(n+1-2kj, k, j)",
        lhs=cs.CF,
        rhs=cs.CF_allowed_parts_form,
        domain=lambda g: (
            (n, k) for n in range(0, 2 * g.limit + 1) for k in range(1, g.limit + 1)
        ),
    ))

    # -- replacements, tile counts, consecutive parts ------------------------------

    add(IdentityRecord(
        id="replacement-compositions-claim",
        citation="replacing every part j by the compositions of j multiplies"
                 " the count to a_1(2, n-1)",
        lhs=orc.replaced_compositions_oracle,
        rhs=_replaced_compositions_total,
        domain=_rows(_orc_limit, start=1),
    ))

    add(IdentityRecord(
        id="replacement-compositions-display",
        citation="sum_{j=1..n} a_1(1,n-j) a(0,j) = a_1(2, n-1)",
        lhs=_replaced_compositions_stated,
        rhs=_replaced_compositions_total,
        domain=_rows(_twice_limit, start=1),
        corrected=CorrectedForm(
            citation="sum_{j=1..n} a(1,n-j) a(0,j) = a_1(2, n-1)",
            lhs=cs.replaced_compositions_total,
        ),
        probe=ProbeSpec(
            oracle=orc.replaced_compositions_oracle,
            oracle_label="replace each part occurrence by all compositions"
                         " of that part and count the results",
            candidates=(
                ("stated summand a_1(1,n-j) a(0,j)", _replaced_compositions_stated),
                ("summand a(1,n-j) a(0,j)", cs.replaced_compositions_total),
                ("a_1(2, n-1)", _replaced_compositions_total),
            ),
        ),
        notes="the summand needs the occurrence count a(1,n-j), not its"
              " cumulative sum",
    ))

    add(IdentityRecord(
        id="replacement-parts-claim",
        citation="replacing every part j by the parts of the compositions of"
                 " j gives a_1(3, n-1) parts in total",
        lhs=orc.replaced_parts_oracle,
        rhs=_replaced_parts_total,
        domain=_rows(_orc_limit, start=1),
    ))

    add(IdentityRecord(
        id="replacement-parts-display",
        citation="sum_{j=1..n} a(1,n-j) a_1(1,n-j) = a_1(3, n-1)",
        lhs=_replaced_parts_stated,
        rhs=_replaced_parts_total,
        domain=_rows(_twice_limit, start=1),
        corrected=CorrectedForm(
            citation="sum_{j=1..n} a(1,n-j) a_1(1,j-1) = a_1(3, n-1)",
            lhs=cs.replaced_parts_total,
        ),
        probe=ProbeSpec(
            oracle=orc.replaced_parts_oracle,
            oracle_label="replace each part occurrence by the parts of its"
                         " compositions and count parts",
            candidates=(
                ("stated summand a(1,n-j) a_1(1,n-j)", _replaced_parts_stated),
                ("summand a(1,n-j) a_1(1,j-1)", cs.replaced_parts_total),
                ("a_1(3, n-1)", _replaced_parts_total),
            ),
        ),
        notes="the second factor is the part total E(j) = a_1(1, j-1) of the"
              " part being replaced, not a_1(1, n-j)",
    ))

    add(IdentityRecord(
        id="tile-count-total",
        citation="C_a(r,n) = (r+1) a_1(r+1, n-1) + r a_0(r,n)",
        lhs=orc.tile_count_total,
        rhs=cs.C_a,
        domain=_points_rn_sum(_orc_limit, n_from=1),
    ))

    add(IdentityRecord(
        id="white-tile-count-binomial",
        citation="sum_{j=1..n} j C(r+j,r) C(n-1,j-1) = (r+1) a_1(r+1, n-1)",
        lhs=lambda r, n: sum(
            j * binom(r + j, r) * binom(n - 1, j - 1) for j in range(1, n + 1)
        ),
        rhs=lambda r, n: (r + 1) * a_s(1, r + 1, n - 1),
        domain=_pairs(_fmt_limit, second_from=1),
    ))

    add(IdentityRecord(
        id="consecutive-parts-exact",
        citation="C_b(n,k,p) = C(1, n-pk, k^) = E_1(n-(p-1)k, k)",
        lhs=lambda n, k, p: orc.consecutive_part_census(n, k).get(p, 0),
        rhs=cs.C_b_exact,
        domain=lambda g: _multiples(g.oracle_limit),
        notes="p >= 1; with p = 0 the two stated aliases count different"
              " things and the statement is not meant to apply",
    ))

    add(IdentityRecord(
        id="consecutive-parts-total",
        citation="C_b(n,k) = C(n,k^) + sum_{j>=0} E_1(n-jk, k)",
        lhs=lambda n, k: sum(orc.consecutive_part_census(n, k).values()),
        rhs=cs.C_b,
        domain=_triangle(_orc_limit),
    ))

    add(IdentityRecord(
        id="consecutive-parts-alternating",
        citation="C_b(n,k,p) = sum_{j>=1} (-1)^(j+1) j a(j, n-k(p+j-1))",
        lhs=_consecutive_block_series,
        rhs=lambda n, k, p: sum(
            (-1) ** (j + 1) * j * a(j, n - k * (p + j - 1))
            for j in range(1, (n - k * (p - 1)) // k + 2)
        ),
        domain=lambda g: _multiples(2 * g.limit),
    ))

    add(IdentityRecord(
        id="no-multiple-parts",
        citation="C(n,[k]) = F(n+1,k) - F(n+1-k,k)",
        lhs=lambda n, k: orc.count_compositions(n, no_multiple_of=k),
        rhs=cs.C_multiples,
        domain=_pairs(_orc_limit, second_from=1),
    ))

    # -- runs over all compositions ------------------------------------------------

    add(IdentityRecord(
        id="runs-of-value",
        citation="R(n,k) = a(1,n-k) - a(1,n-2k)",
        lhs=lambda n, k: _oracle_runs_of_value(n, k, None),
        rhs=cs.R_runs,
        domain=_triangle(_orc_limit),
    ))

    add(IdentityRecord(
        id="runs-of-value-powers",
        citation="R(n,k) = 2^(n-k-2)(n-k+3) - 2^(n-2k-2)(n-2k+3)",
        lhs=cs.R_runs,
        rhs=lambda n, k: _integral(
            Fraction(2) ** (n - k - 2) * (n - k + 3)
            - Fraction(2) ** (n - 2 * k - 2) * (n - 2 * k + 3)
        ),
        domain=_triangle(_twice_limit),
        corrected=CorrectedForm(
            citation="R(n,k) = 2^(n-k-2)(n-k+3) - 2^(n-2k-2)(n-2k+3)"
                     " for n >= 2k+1",
            domain=lambda g: (
                (n, k)
                for n in range(1, 2 * g.limit + 1)
                for k in range(1, (n - 1) // 2 + 1)
            ),
        ),
        notes="each power term matches a(1, .) only while its argument stays"
              " >= 1, so the closed form needs n >= 2k+1",
    ))

    add(IdentityRecord(
        id="runs-total",
        citation="R(n) = sum_{k>=1} a(1, n-(2k-1))",
        lhs=lambda n: _oracle_total_runs(n, None),
        rhs=cs.R_total,
        domain=_rows(_orc_limit),
    ))

    add(IdentityRecord(
        id="parts-runs-lemma",
        citation="E(n) = R(n) + R(n-1)",
        lhs=cs.E_total,
        rhs=lambda n: cs.R_total(n) + cs.R_total(n - 1),
        domain=_rows(_twice_limit, start=1),
    ))

    add(IdentityRecord(
        id="parts-total-closed-form",
        citation="E(n) = (n+1) 2^(n-2) = a_1(1, n-1)",
        lhs=orc.total_parts,
        rhs=lambda n: _integral(Fraction(2) ** (n - 2) * (n + 1)),
        domain=_rows(_orc_limit, start=1),
    ))

    add(IdentityRecord(
        id="conjecture-runs-by-length",
        citation="R(n,k,l) = a(1,n-kl) - 2 a(1,n-(l+1)k) + a(1,n-(l+2)k)",
        lhs=lambda n, k, l: _census_runs(n, None).get((k, l), 0),
        rhs=cs.R_length_formula,
        domain=lambda g: _multiples(g.runs_bound),
        bound_doc=lambda g: {"n": g.runs_bound, "domain": "1 <= k, l, kl <= n"},
    ))

    # -- Pell -----------------------------------------------------------------------

    add(IdentityRecord(
        id="gf-pell",
        citation="sum_n P(n) x^n = 1/(1-2x-x^2)",
        lhs=_gf_row(lambda: ser.RationalGF.of((1,), (1, -2, -1))),
        rhs=_seq_row(pell),
        domain=lambda g: ((2 * g.limit,),),
        corrected=CorrectedForm(
            citation="sum_n P(n+1) x^n = 1/(1-2x-x^2)",
            rhs=_seq_row(lambda i: pell(i + 1)),
        ),
        notes="1/(1-2x-x^2) carries constant term 1 while P(0) = 0; the"
              " expansion lists P(n+1)",
    ))

    add(IdentityRecord(
        id="pell-from-tilings",
        citation="P(n) = sum_{i>=0} a_{2i}(2i+1, n-4i)",
        lhs=pell,
        rhs=_pell_tiling_sum,
        domain=_rows(_twice_limit),
        corrected=CorrectedForm(
            citation="P(n+1) = sum_{i>=0} a_{2i}(2i+1, n-4i)",
            lhs=lambda n: pell(n + 1),
        ),
        notes="off by one, matching the shift in the generating function",
    ))

    # -- palindromes -----------------------------------------------------------------

    add(IdentityRecord(
        id="palindromic-tilings-case-split",
        citation="m(2r,2n) = m(2r,2n+1) = a_1(r, floor(n/2));"
                 " m(2r+1,2n) = a_0(r,n); m(2r,2n+1) = 0",
        lhs=orc.count_palindromic_tilings,
        rhs=_printed_case_split_m,
        domain=_pairs(_orc_limit),
        corrected=CorrectedForm(
            citation="m(2p,N) = a_1(p, floor(N/2)); m(2p+1,2v) = a_0(p,v);"
                     " m(2p+1,2v+1) = 0",
            rhs=cs.m_pal,
        ),
        probe=ProbeSpec(
            oracle_label="exhaustive palindromic tiling enumeration",
            candidates=(
                ("stated case split", _printed_case_split_m),
                (
                    "case split from the argument parity of the whole strip",
                    cs.m_pal,
                ),
            ),
        ),
        notes="the even-red line halves its argument twice, and the stated"
              " zero line contradicts the first line for odd strip lengths;"
              " the corrected split keys on floor(N/2) directly",
    ))

    add(IdentityRecord(
        id="palindromic-compositions-power",
        citation="Pal(2n) = Pal(2n+1) = 2^n = a_1(0,n)",
        lhs=lambda n: (
            _count_pal_avoid(2 * n, None),
            _count_pal_avoid(2 * n + 1, None),
        ),
        rhs=lambda n: (a_s(1, 0, n), a_s(1, 0, n)),
        domain=_rows(_orc_limit),
    ))

    add(IdentityRecord(
        id="palindromes-avoiding-part",
        citation="Pal(n,k^) = sum_{j>=0} (-1)^j m(j, n-2j)",
        lhs=_count_pal_avoid,
        rhs=_pal_avoid_printed,
        domain=_pal_points,
        corrected=CorrectedForm(
            citation="Pal(n,k^) = sum_{j>=0} (-1)^ceil(j/2) m(j, n-jk)",
            rhs=cs.pal_hat,
        ),
        probe=ProbeSpec(
            oracle_label="exhaustive palindromic composition enumeration",
            candidates=(
                ("stated summand m(j, n-2j)", _pal_avoid_printed),
                ("plain alternating m(j, n-jk)", _pal_avoid_plain_alternating),
                ("paired-insertion sign (-1)^ceil(j/2) m(j, n-jk)", cs.pal_hat),
            ),
        ),
        notes="a red pair and a lone central red are single exclusion units,"
              " so the sign pattern is +,-,-,+,+,... rather than strict"
              " alternation",
    ))

    add(IdentityRecord(
        id="palindromes-avoiding-part-same-parity",
        citation="Pal(n,k^) = sum_j (-1)^j (a_1(j,n-jk) - a(j,n-(j+1)k))"
                 " for n, k of equal parity",
        lhs=_count_pal_avoid,
        rhs=_pal_avoid_same_parity_printed,
        domain=lambda g: ((n, k) for n, k in _pal_points(g) if (n - k) % 2 == 0),
        corrected=CorrectedForm(
            citation="Pal(n,k^) = sum_j (-1)^j (a_1(j, floor((n-2jk)/2))"
                     " - a(j, (n-(2j+1)k)/2)) for n, k of equal parity",
            rhs=_pal_avoid_same_parity_corrected,
        ),
        probe=ProbeSpec(
            oracle_label="exhaustive palindromic composition enumeration",
            candidates=(
                (
                    "stated summand a_1(j,n-jk) - a(j,n-(j+1)k)",
                    _pal_avoid_same_parity_printed,
                ),
                (
                    "halved arguments a_1(j,(n-2jk)/2) - a(j,(n-(2j+1)k)/2)",
                    _pal_avoid_same_parity_corrected,
                ),
            ),
        ),
        notes="the stated arguments skip the halving that palindromic"
              " mirror halves impose",
    ))

    add(IdentityRecord(
        id="palindromes-avoiding-part-diff-parity",
        citation="Pal(n,k^) = sum_{j>=0} (-1)^j a_1(j, n-2k)"
                 " for n, k of different parity",
        lhs=_count_pal_avoid,
        rhs=_pal_avoid_diff_parity_printed,
        domain=lambda g: ((n, k) for n, k in _pal_points(g) if (n - k) % 2 == 1),
        corrected=CorrectedForm(
            citation="Pal(n,k^) = sum_{j>=0} (-1)^j a_1(j, floor((n-2jk)/2))"
                     " for n, k of different parity",
            rhs=_pal_avoid_diff_parity_corrected,
        ),
        probe=ProbeSpec(
            oracle_label="exhaustive palindromic composition enumeration",
            candidates=(
                ("stated summand a_1(j, n-2k)", _pal_avoid_diff_parity_printed),
                (
                    "halved argument a_1(j, floor((n-2jk)/2))",
                    _pal_avoid_diff_parity_corrected,
                ),
            ),
        ),
        notes="the stated summand does not depend on j at all",
    ))

    add(IdentityRecord(
        id="palindromes-with-part",
        citation="Pal(n) - Pal(n,k^) = sum_{j>=1} (-1)^(j-1)"
                 " (m(2j-1, n-(2j-1)k) + m(2j, 2jk))",
        lhs=lambda n, k: cs.pal(n) - _count_pal_avoid(n, k),
        rhs=_pal_with_part_printed,
        domain=_pal_points,
        corrected=CorrectedForm(
            citation="Pal(n) - Pal(n,k^) = sum_{j>=1} (-1)^(j-1)"
                     " (m(2j-1, n-(2j-1)k) + m(2j, n-2jk))",
            rhs=_pal_with_part_corrected,
        ),
        notes="the second summand must deplete n; as stated it grows with j"
              " and the series never terminates",
    ))

    return records
