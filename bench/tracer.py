"""Spans around the public functions of each tilingkit module.

The tracer is installed from the benchmark's side: it replaces every
binding of a public function -- the defining module's attribute and each
``from .sequences import ...`` copy in another module -- with a wrapper that
records one span per call.  No tilingkit source is touched.

A span is ``(layer, parent, start, end, objects)``.  Spans are kept in
memory, in flat arrays, and summarised (and written out) only when the run
is over.  Layers are named ``module`` or ``module.entry``.  A call made while
the innermost open span belongs to the same module (``a_s -> a_s``,
``a_k -> fibonacci_k``, ``verify_gf -> expand``) opens no span: its time
merges into the open one, so a layer's numbers count the calls that enter
its module through that entry.  A layer's self time is its spans' durations
minus the durations of their direct child spans.
"""

from __future__ import annotations

import json
import statistics
from array import array
from functools import wraps
from time import perf_counter

from tilingkit import cli, compstats, identities, oracle, sequences, series, tables

_CENSUS = (
    "run_census", "part_multiplicity_census", "count_by_part_multiplicity",
    "largest_part_census", "consecutive_part_census", "part_occurrences",
    "total_parts", "tile_count_total", "replaced_compositions_oracle",
    "replaced_parts_oracle",
)
_TILINGS = (
    "enumerate_tilings", "count_tilings", "enumerate_palindromic_tilings",
    "count_palindromic_tilings",
)
_COMPOSITIONS = (
    "enumerate_compositions", "count_compositions",
    "enumerate_palindromic_compositions", "count_palindromic_compositions",
)
_SEQUENCE_LAYERS = {
    "a": ("a",),
    "a_s": ("a_s",),
    "a_k": ("a_k", "fibonacci_k_conv"),
    "fibonacci_k": ("fibonacci_k",),
    "neg_fibonacci_k": ("neg_fibonacci_k",),
    "pell": ("pell",),
    "closed_forms": ("a_explicit", "a_s_binomial", "a_diag", "a_diag_plus", "binom"),
}
_SERIES_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
                   "__pow__", "shift")
# run_registry is left unwrapped: its span would enclose every record and
# merge their evaluate_record spans into one.
_IDENTITIES = ("erratum_probe", "check_conjecture_1", "check_runs_conjecture")
_CENSUS_CACHES = ("_census_runs", "_census_multiplicity", "_census_largest",
                  "_count_avoid", "_count_pal_avoid", "_bivariate_table")

ORACLE_LAYERS = ("oracle.census", "oracle.tilings", "oracle.compositions")
SEQUENCE_LAYERS = tuple(f"sequences.{name}" for name in _SEQUENCE_LAYERS)
# evaluate_record gets a layer of its own so that record spans stay separate
# from the conjecture scans they call; both report as ``identities``.
LAYERS = ORACLE_LAYERS + SEQUENCE_LAYERS + (
    "series", "compstats", "tables", "identities", "identities.record", "cli",
)
MODULES = (oracle, sequences, series, compstats, identities, tables, cli)
# The module each layer belongs to; same-module calls merge into one span.
_MODULE_OF = [name.split(".")[0] for name in LAYERS]


def _public_functions(module) -> list[str]:
    return [
        name for name, value in vars(module).items()
        if not name.startswith("_") and callable(value) and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    ]


def _oracle_objects(args, kwargs, result) -> int:
    # A count, a list's length, or a census's total.
    if isinstance(result, int):
        return result
    if isinstance(result, list):
        return len(result)
    if isinstance(result, dict):
        return sum(result.values())
    return 0


def _replaced_objects(args, kwargs, result) -> int:
    # The result is a weighted sum, so count the compositions of n walked.
    n = args[0]
    return 1 << (n - 1) if n >= 1 else 1


def _series_coeffs(args, kwargs, result) -> int:
    if isinstance(result, series.TruncatedSeries):
        return len(result.coeffs)
    return 0


def _verify_gf_coeffs(args, kwargs, result) -> int:
    order = args[2] if len(args) > 2 else kwargs.get("order", series.DEFAULT_ORDER)
    return order + 1


def _record_points(args, kwargs, result) -> int:
    return result.points + result.corrected_points


def _no_objects(args, kwargs, result) -> int:
    return 0


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.objects = array("q")
        self.refusals = 0
        self.enabled = True
        self._stack: list[tuple[int, str]] = []  # open spans: (index, module)

    def _wrap(self, fn, layer_id: int, count):
        module = _MODULE_OF[layer_id]
        stack = self._stack
        layers, parents, starts, ends, objects = (
            self.layer, self.parent, self.start, self.end, self.objects)
        refusal = oracle.OracleScaleError

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (stack and stack[-1][1] == module):
                return fn(*args, **kwargs)
            idx = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            objects.append(0)
            stack.append((idx, module))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except refusal:
                # Oracle spans never nest, so each raise is counted once.
                if module == "oracle":
                    self.refusals += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            objects[idx] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding site; call before the registry is built."""
        plan: list[tuple[object, str, str, object]] = []  # owner, name, layer, count
        for name in _CENSUS:
            count = _replaced_objects if name.startswith("replaced_") else _oracle_objects
            plan.append((oracle, name, "oracle.census", count))
        plan += [(oracle, n, "oracle.tilings", _oracle_objects) for n in _TILINGS]
        plan += [(oracle, n, "oracle.compositions", _oracle_objects) for n in _COMPOSITIONS]
        for layer, names in _SEQUENCE_LAYERS.items():
            plan += [(sequences, n, f"sequences.{layer}", _no_objects) for n in names]
        for name in _public_functions(series):
            count = _verify_gf_coeffs if name == "verify_gf" else _series_coeffs
            plan.append((series, name, "series", count))
        plan += [(series.TruncatedSeries, n, "series", _series_coeffs)
                 for n in _SERIES_METHODS]
        plan += [(compstats, n, "compstats", _no_objects)
                 for n in _public_functions(compstats)]
        plan += [(tables, n, "tables", _no_objects)
                 for n in ("build_table", "render_pretty", "render_csv")]
        plan.append((identities, "evaluate_record", "identities.record", _record_points))
        plan += [(identities, n, "identities", _no_objects) for n in _IDENTITIES]
        plan.append((cli, "main", "cli", _no_objects))

        for owner, name, layer, count in plan:
            fn = vars(owner)[name]
            traced = self._wrap(fn, LAYERS.index(layer), count)
            # Rebind the function wherever a module holds it under any name.
            for module in MODULES + (owner,):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)

    def reset(self) -> None:
        """Drop the spans recorded so far, e.g. those of the set-up."""
        for values in (self.layer, self.parent, self.start, self.end, self.objects):
            del values[:]
        self.refusals = 0

    def write(self, path) -> None:
        """Write every span as one JSON line: layer, parent, start, end, objects."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                span = (LAYERS[self.layer[i]], self.parent[i], self.start[i],
                        self.end[i], self.objects[i])
                fh.write(json.dumps(span) + "\n")

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over the spans recorded during ``wall_s`` seconds."""
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        covered = 0.0
        for i in range(count):
            p = self.parent[i]
            if p < 0:
                covered += duration[i]
            else:
                child[p] += duration[i]
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        objects = [0] * len(LAYERS)
        record = LAYERS.index("identities.record")
        record_s: list[float] = []
        for i in range(count):
            layer = self.layer[i]
            calls[layer] += 1
            self_s[layer] += duration[i] - child[i]
            objects[layer] += self.objects[i]
            if layer == record:
                record_s.append(duration[i])

        out: dict[str, float] = {}
        for name in ORACLE_LAYERS:
            i = LAYERS.index(name)
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
            out[f"{name}.objects"] = objects[i]
            out[f"{name}.objects_per_s"] = objects[i] / self_s[i] if self_s[i] else 0.0
        out["oracle.refusals"] = self.refusals
        for name in SEQUENCE_LAYERS:
            i = LAYERS.index(name)
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
        i = LAYERS.index("series")
        out["series.calls"] = calls[i]
        out["series.self_s"] = self_s[i]
        out["series.coeffs"] = objects[i]
        out["series.coeffs_per_s"] = objects[i] / self_s[i] if self_s[i] else 0.0
        for name in ("compstats", "tables"):
            i = LAYERS.index(name)
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
        out["identities.records"] = len(record_s)
        out["identities.points"] = objects[record]
        out["identities.self_s"] = self_s[record] + self_s[LAYERS.index("identities")]
        out["identities.s_per_record_p50"] = (
            statistics.median(record_s) if record_s else 0.0)
        out["identities.census_hit_ratio"] = census_hit_ratio()
        out["cli.self_s"] = self_s[LAYERS.index("cli")]
        out["unattributed_s"] = wall_s - covered
        return out


def census_hit_ratio() -> float:
    """Hits over lookups across the registry's ``lru_cache`` censuses."""
    hits = misses = 0
    for name in _CENSUS_CACHES:
        info = getattr(identities, name).cache_info()
        hits += info.hits
        misses += info.misses
    return hits / (hits + misses) if hits + misses else 0.0
