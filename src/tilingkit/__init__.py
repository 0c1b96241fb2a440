"""Exact counting for two-toned tilings and integer composition statistics.

The package splits into a brute-force side and a formula side that are kept
deliberately independent so they can check each other:

``tilingkit.oracle``
    exhaustive enumeration of tilings, compositions, palindromes, and runs;
``tilingkit.sequences``
    memoized big-integer recurrences and closed forms;
``tilingkit.series``
    truncated formal power series over exact rationals;
``tilingkit.compstats``
    composition statistics evaluated through tiling identities;
``tilingkit.identities``
    the identity registry, erratum probes, and conjecture scans;
``tilingkit.tables``
    the reference tables rebuilt from the formulas;
``tilingkit.cli``
    the ``tilingkit`` command line tool (also ``python -m tilingkit``).
"""

from . import compstats, identities, oracle, sequences, series, tables

__all__ = [
    "compstats",
    "identities",
    "oracle",
    "sequences",
    "series",
    "tables",
]

__version__ = "0.1.0"
