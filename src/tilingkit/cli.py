"""Command line front end.

Subcommands
-----------
``seq``        emit one counting family over an index range
``table``      rebuild one of the reference tables
``verify``     run the identity registry and write a JSON report
``conjecture`` run only the conjecture records (verify --filter "conjecture*")
``oracle``     list or count objects by exhaustive enumeration

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 refusal by
a resource guard (the enumeration ceiling, the oracle's squares bound, the
formula tables' bound, or the digit cap).  All big integers print in plain
decimal, up to ``DIGIT_CAP`` digits; ``seq`` exits 3 with one line at the
first longer value and computes none past it.
The environment variable ``TILINGKIT_ORACLE_CEILING`` overrides the
enumeration guard (an integer; empty means the default).
"""

from __future__ import annotations

import argparse
import errno
import inspect
import json
import os
import sys
from typing import Callable, Sequence

from . import compstats as cs
from . import identities, oracle, tables
from . import sequences as seq

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_ORACLE_SCALE = 3

SEQ_FORMATS = ("bfile", "csv", "json", "pretty-table")
TABLE_FORMATS = ("csv", "json", "pretty-table")

# The most decimal digits a printed value may have: Python's default limit
# on turning an int into a string.  A lower limit set for the interpreter
# (``PYTHONINTMAXSTRDIGITS``) lowers the cap with it.
DIGIT_CAP = 4300


class _Family:
    """A ``seq`` family: ``fn(n, ...)`` and the parameters it takes after ``n``.

    A parameter with a default is optional on the command line.
    """

    def __init__(self, fn: Callable[..., int], help: str) -> None:
        after_n = list(inspect.signature(fn).parameters.values())[1:]
        self.params = tuple(p.name for p in after_n if p.default is p.empty)
        self.optional = tuple(p.name for p in after_n if p.default is not p.empty)
        self.fn = fn
        self.help = help

    @property
    def signature(self) -> str:
        parts = [f"--{p}" for p in self.params]
        parts += [f"[--{p}]" for p in self.optional]
        return " ".join(parts) if parts else "(no parameters)"


def _runs_family(n: int, k: int, j: int | None = None) -> int:
    if j is not None:
        return cs.runs_restricted(n, j, k)
    return cs.total_runs_restricted(n, k)


def _chat_family(n: int, k: int, m: int | None = None) -> int:
    if m is not None:
        return cs.C_hat_tilings(n, m, k)
    return cs.C_hat(n, k)


def _cb_family(n: int, k: int, p: int | None = None) -> int:
    if p is not None:
        return cs.C_b_exact(n, k, p)
    return cs.C_b(n, k)


FAMILIES: dict[str, _Family] = {
    "a": _Family(lambda n, r: seq.a(r, n),
                 "two-toned tilings with r reds and white total n"),
    "as": _Family(lambda n, s, r: seq.a_s(s, r, n),
                  "s-fold cumulative sums of a(r,.)"),
    "ak": _Family(lambda n, r, k: seq.a_k(r, n, k),
                  "tilings with white lengths capped at k"),
    "f": _Family(seq.fibonacci_k, "k-step Fibonacci numbers"),
    "fconv": _Family(seq.fibonacci_k_conv,
                     "r-th convolution of the k-step Fibonacci sequence"),
    "negf": _Family(seq.neg_fibonacci_k,
                    "k-step Fibonacci numbers at any integer index"),
    "pell": _Family(seq.pell, "Pell numbers"),
    "L": _Family(cs.L, "compositions with at least one part k"),
    "Ep": _Family(cs.E_p, "compositions, parts <= k, exactly p parts m"),
    "S": _Family(cs.S, "occurrences of the part k over all compositions"),
    "G": _Family(cs.G, "compositions with largest part exactly k"),
    "Gr": _Family(cs.G_exact,
                  "compositions whose largest part k appears exactly r times"),
    "CF": _Family(cs.CF, "compositions with the copies of k frozen"),
    "Cb": _Family(_cb_family, "compositions whose parts k are consecutive"),
    "Chat": _Family(_chat_family, "compositions avoiding the part k"),
    "Cmult": _Family(cs.C_multiples, "compositions with no part divisible by k"),
    "R": _Family(cs.R_total, "runs over all compositions"),
    "Rk": _Family(cs.R_runs, "runs of the value k over all compositions"),
    "E": _Family(cs.E_total, "parts over all compositions"),
    "m": _Family(lambda n, r: cs.m_pal(r, n), "palindromic tilings with r reds"),
    "pal": _Family(cs.pal, "palindromic compositions"),
    "palhat": _Family(cs.pal_hat, "palindromic compositions avoiding the part k"),
    "Ca": _Family(lambda n, r: cs.C_a(r, n),
                  "tiles used by all tilings with r reds"),
    "runs": _Family(_runs_family, "runs over compositions with parts <= k"
                                  " (runs of j only, with --j)"),
}


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like LO..HI")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from exc
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError("range upper end below lower end")
    return lo_i, hi_i


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilingkit",
        description="Exact counts for two-toned tilings and composition"
                    " statistics, with identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family_lines = "\n".join(
        f"  {name:8s} {fam.signature:24s} {fam.help}"
        for name, fam in FAMILIES.items()
    )
    p_seq = sub.add_parser(
        "seq",
        help="emit one counting family over an index range",
        description="Families and their parameters:\n" + family_lines,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_seq.add_argument("family", help="family name (see --help for the list)")
    p_seq.add_argument("--range", required=True, type=_parse_range,
                       metavar="LO..HI", help="inclusive index range for n")
    p_seq.add_argument("--format", choices=SEQ_FORMATS, default="bfile")
    for p in ("r", "s", "k", "m", "p", "j"):
        p_seq.add_argument(f"--{p}", type=int, default=None)

    p_table = sub.add_parser("table", help="rebuild a reference table")
    p_table.add_argument("table_id", choices=tables.TABLE_IDS)
    p_table.add_argument("--format", choices=TABLE_FORMATS,
                         default="pretty-table")

    for name, extra_help in (
        ("verify", "run the identity registry"),
        ("conjecture", "run only the conjecture records"),
    ):
        p_v = sub.add_parser(name, help=extra_help)
        p_v.add_argument("--scale", choices=tuple(identities.SCALES),
                         default="default")
        if name == "verify":
            p_v.add_argument("--filter", default=None, metavar="GLOB",
                             help="only evaluate records whose id matches")
        p_v.add_argument("--out", default=None, metavar="PATH",
                         help="write the JSON report here instead of stdout")
        p_v.add_argument("--quiet", action="store_true",
                         help="suppress the per-record summary on stderr")

    p_oracle = sub.add_parser(
        "oracle", help="enumerate or count objects by brute force"
    )
    p_oracle.add_argument("kind", choices=("tilings", "compositions",
                                           "palindromes"))
    p_oracle.add_argument("--r", type=int, default=0, help="red squares")
    p_oracle.add_argument("--n", type=int, required=True,
                          help="white total / composition weight")
    p_oracle.add_argument("--max-white", type=int, default=None)
    p_oracle.add_argument("--forbid-white", type=int, default=None)
    p_oracle.add_argument("--suffix-white", type=int, default=0)
    p_oracle.add_argument("--max", type=int, default=None,
                          help="largest allowed part (compositions)")
    p_oracle.add_argument("--forbid", type=int, default=None,
                          help="forbidden part (compositions)")
    p_oracle.add_argument("--allowed", default=None, metavar="A,B,...",
                          help="comma separated allowed parts (compositions)")
    p_oracle.add_argument("--no-multiple-of", type=int, default=None)
    p_oracle.add_argument("--count-only", action="store_true")
    return parser


def _emit_sequence(
    family: str, values: list[tuple[int, int]], fmt: str, params: dict
) -> str:
    if fmt == "bfile":
        return "".join(f"{i} {v}\n" for i, v in values)
    if fmt == "csv":
        return "n,value\n" + "".join(f"{i},{v}\n" for i, v in values)
    if fmt == "json":
        doc = {
            "schema": 1,
            "family": family,
            "params": {k: v for k, v in sorted(params.items()) if v is not None},
            "values": [[i, v] for i, v in values],
        }
        return json.dumps(doc, sort_keys=True) + "\n"
    width_i = max(len(str(i)) for i, _ in values)
    width_v = max(len(str(v)) for _, v in values)
    lines = [f"{'n'.rjust(width_i)}  {'value'.rjust(width_v)}"]
    lines += [f"{str(i).rjust(width_i)}  {str(v).rjust(width_v)}"
              for i, v in values]
    return "\n".join(lines) + "\n"


def _digit_cap() -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(DIGIT_CAP, limit) if limit else DIGIT_CAP


def _cmd_seq(args: argparse.Namespace) -> int:
    fam = FAMILIES.get(args.family)
    if fam is None:
        known = ", ".join(sorted(FAMILIES))
        print(f"tilingkit seq: unknown family {args.family!r};"
              f" known families: {known}", file=sys.stderr)
        return EXIT_USAGE
    params = {}
    for p in fam.params:
        value = getattr(args, p)
        if value is None:
            print(f"tilingkit seq: family {args.family!r} needs"
                  f" parameters: {fam.signature}", file=sys.stderr)
            return EXIT_USAGE
        params[p] = value
    for p in fam.optional:
        value = getattr(args, p)
        if value is not None:
            params[p] = value
    lo, hi = args.range
    cap = _digit_cap()
    past = 10 ** cap
    values = []
    try:
        for i in range(lo, hi + 1):  # stop at the first value past the cap
            value = fam.fn(i, **params)
            if abs(value) >= past:
                print(f"tilingkit seq: the value at n={i} has more than {cap}"
                      " digits, past the printing cap", file=sys.stderr)
                return EXIT_ORACLE_SCALE
            values.append((i, value))
    except ValueError as exc:
        print(f"tilingkit seq: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(_emit_sequence(args.family, values, args.format, params))
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    doc = tables.build_table(args.table_id)
    if args.format == "pretty-table":
        sys.stdout.write(tables.render_pretty(doc))
    elif args.format == "csv":
        sys.stdout.write(tables.render_csv(doc))
    else:
        sys.stdout.write(json.dumps(doc.to_doc(), sort_keys=True) + "\n")
    return EXIT_OK


def _cannot_write(command: str, path: str, reason: str) -> int:
    print(f"tilingkit {command}: cannot write {path!r}: {reason}",
          file=sys.stderr)
    return EXIT_USAGE


def _cmd_verify(args: argparse.Namespace, id_filter: str | None) -> int:
    if args.out:
        # Refuse before the registry runs; the write below can still fail.
        if os.path.isdir(args.out):
            return _cannot_write(args.command, args.out,
                                 os.strerror(errno.EISDIR))
        folder = os.path.dirname(os.path.abspath(args.out))
        if not os.access(folder, os.W_OK):
            code = errno.EACCES if os.path.isdir(folder) else errno.ENOENT
            return _cannot_write(args.command, args.out, os.strerror(code))
    report = identities.run_registry(args.scale, id_filter)
    if not report.results:
        print(f"tilingkit verify: no record id matches {id_filter!r}",
              file=sys.stderr)
        return EXIT_USAGE
    payload = json.dumps(report.to_doc(), sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            return _cannot_write(args.command, args.out, exc.strerror or exc)
    else:
        sys.stdout.write(payload)
    if not args.quiet:
        for result in report.results:
            mark = "ok " if result.matches_expected else "FAIL"
            print(f"[{mark}] {result.id}: {result.status}"
                  f" ({result.points} points)", file=sys.stderr)
    return EXIT_OK if report.all_match else EXIT_VERIFY_FAILED


def _oracle_ceiling() -> int | None:
    raw = os.environ.get("TILINGKIT_ORACLE_CEILING", "").strip()
    if not raw:
        return oracle.DEFAULT_CEILING
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"TILINGKIT_ORACLE_CEILING must be an integer, got {raw!r}"
        ) from None


def _cmd_oracle(args: argparse.Namespace) -> int:
    ceiling = _oracle_ceiling()
    if args.kind in ("tilings", "palindromes"):
        filt = oracle.TilingFilter(
            max_white_len=args.max_white,
            forbidden_white_len=args.forbid_white,
            suffix_white_tiles=args.suffix_white,
            palindromic=args.kind == "palindromes",
        )
        if args.count_only:
            print(oracle.count_tilings(args.r, args.n, filt, ceiling=ceiling))
            return EXIT_OK
        for tiling in oracle.enumerate_tilings(args.r, args.n, filt,
                                               ceiling=ceiling):
            print(tiling)
        return EXIT_OK
    allowed = None
    if args.allowed:
        try:
            allowed = tuple(int(p) for p in args.allowed.split(","))
        except ValueError:
            raise ValueError(
                f"--allowed must be comma separated integers, got {args.allowed!r}"
            ) from None
    kwargs = dict(
        max_part=args.max,
        forbidden_part=args.forbid,
        allowed_parts=allowed,
        no_multiple_of=args.no_multiple_of,
    )
    if args.count_only:
        print(oracle.count_compositions(args.n, ceiling=ceiling, **kwargs))
        return EXIT_OK
    for comp in oracle.enumerate_compositions(args.n, ceiling=ceiling, **kwargs):
        print(" ".join(str(p) for p in comp) if comp else "(empty)")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "seq":
            return _cmd_seq(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "verify":
            return _cmd_verify(args, args.filter)
        if args.command == "conjecture":
            return _cmd_verify(args, "conjecture*")
        if args.command == "oracle":
            try:
                return _cmd_oracle(args)
            except ValueError as exc:
                # Raised while validating, before anything is printed.
                print(f"tilingkit oracle: {exc}", file=sys.stderr)
                return EXIT_USAGE
    except (oracle.OracleScaleError, seq.TableScaleError) as exc:
        print(f"tilingkit: {exc}", file=sys.stderr)
        return EXIT_ORACLE_SCALE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
