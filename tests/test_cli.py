"""Command line behaviour: formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tilingkit import cli, identities, tables
from tilingkit import compstats as cs
from tilingkit import sequences as seq
from tilingkit import series as ser
from tilingkit.sequences import a, a_s


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_bfile_row(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "a", "--r", "2", "--range", "0..5")
        assert code == 0
        assert out == "0 1\n1 3\n2 9\n3 25\n4 66\n5 168\n"

    def test_pell_bfile(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "pell", "--range", "0..5")
        assert code == 0
        assert [line.split() for line in out.splitlines()] == [
            ["0", "0"], ["1", "1"], ["2", "2"], ["3", "5"], ["4", "12"],
            ["5", "29"],
        ]

    def test_palindromic_row(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "m", "--r", "4", "--range", "0..9")
        assert code == 0
        values = [int(line.split()[1]) for line in out.splitlines()]
        assert values == [1, 1, 4, 4, 13, 13, 38, 38, 104, 104]

    @pytest.mark.parametrize("fmt", cli.SEQ_FORMATS)
    def test_values_print_exactly_up_to_the_digit_cap(self, capsys, fmt):
        # pal(28569) = 2**14284 has 4300 digits, pal(28570) 4301.
        code, out, _ = run_cli(capsys, "seq", "pal", "--range",
                               "28568..28569", "--format", fmt)
        assert code == 0
        assert str(2 ** 14284) in out and len(str(2 ** 14284)) == 4300
        code, out, err = run_cli(capsys, "seq", "pal", "--range",
                                 "28568..28570", "--format", fmt)
        assert code == 3
        assert out == ""
        assert err == ("tilingkit seq: the value at n=28570 has more than"
                       " 4300 digits, past the printing cap\n")

    def test_digit_cap_follows_a_lower_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DIGIT_CAP", 5)
        code, out, _ = run_cli(capsys, "seq", "pal", "--range", "32..33")
        assert (code, out) == (0, "32 65536\n33 65536\n")
        code, out, err = run_cli(capsys, "seq", "negf", "--k", "2",
                                 "--range=-30..-20")
        assert (code, out) == (3, "")
        assert err == ("tilingkit seq: the value at n=-30 has more than 5"
                       " digits, past the printing cap\n")

    def test_range_stops_at_the_first_value_past_the_digit_cap(
        self, capsys, monkeypatch
    ):
        # F(14287, 22) is the first value with more than 4300 digits; the
        # range goes on to 44000, and at 50000 it would pass the table
        # bound too, but nothing past the first value over the cap is
        # computed.
        calls = []

        def counted(n, k):
            calls.append(n)
            return seq.fibonacci_k(n, k)

        monkeypatch.setitem(cli.FAMILIES, "f", cli._Family(counted, "counted"))
        for hi in (44000, 50000):
            calls.clear()
            code, out, err = run_cli(capsys, "seq", "f", "--k", "22",
                                     "--range", f"0..{hi}")
            assert (code, out) == (3, "")
            assert err == ("tilingkit seq: the value at n=14287 has more than"
                           " 4300 digits, past the printing cap\n")
            assert len(calls) <= 14288

    def test_small_range_at_a_huge_k_holds_a_few_values(self, capsys):
        # fibonacci_k's window holds F(1..n) until it is k + 1 values long.
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "seq", "f", "--k", "1000000000",
                                   "--range", "0..5")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (0, "0 0\n1 1\n2 1\n3 2\n4 4\n5 8\n")
        assert peak < 10**6, peak

    def test_negative_range(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "negf", "--k", "3",
                               "--range=-9..1")
        assert code == 0
        first = out.splitlines()[0].split()
        assert first == ["-9", "-8"]

    def test_bfile_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "as", "--s", "2", "--r", "1",
                               "--range", "0..12")
        assert code == 0
        parsed = [tuple(map(int, line.split())) for line in out.splitlines()]
        assert parsed == [(n, a_s(2, 1, n)) for n in range(13)]

    @given(r=st.integers(0, 6), lo=st.integers(0, 12), width=st.integers(0, 8))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bfile_round_trip_random(self, capsys, r, lo, width):
        code, out, _ = run_cli(capsys, "seq", "a", "--r", str(r),
                               "--range", f"{lo}..{lo + width}")
        assert code == 0
        parsed = [tuple(map(int, line.split())) for line in out.splitlines()]
        assert parsed == [(n, a(r, n)) for n in range(lo, lo + width + 1)]

    def test_csv_and_json_formats(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "f", "--k", "3",
                               "--range", "1..8", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,value"
        assert out.splitlines()[1] == "1,1"

        code, out, _ = run_cli(capsys, "seq", "f", "--k", "3",
                               "--range", "1..8", "--format", "json")
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["family"] == "f"
        assert doc["params"] == {"k": 3}
        assert doc["values"][7] == [8, 44]

    def test_optional_parameter_variants(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "Cb", "--k", "1", "--p", "2",
                               "--range", "4..4")
        assert code == 0
        assert out == "4 2\n"
        code, out, _ = run_cli(capsys, "seq", "runs", "--k", "2", "--j", "1",
                               "--range", "4..4")
        assert code == 0
        assert out == "4 5\n"
        code, out, _ = run_cli(capsys, "seq", "Chat", "--k", "1", "--m", "1",
                               "--range", "2..2")
        assert code == 0
        assert out == "2 2\n"

    def test_negative_red_count_gives_zeros(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "Chat", "--k", "2", "--m", "-1",
                               "--range", "0..5")
        assert code == 0
        assert out == "".join(f"{n} 0\n" for n in range(6))

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "seq", "bogus", "--range", "0..3")
        assert code == 2
        assert "unknown family" in err

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "seq", "a", "--range", "0..3")
        assert code == 2
        assert "--r" in err

    def test_undeclared_parameter_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "seq", "a", "--r", "1", "--range", "0..3",
                    "--l", "5")
        assert exc.value.code == 2

    def test_help_lists_each_family_with_its_parameters(self, capsys):
        # Each family's parameters are read off its function's signature.
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "seq", "--help")
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        block = help_text.split("Families and their parameters:\n")[1]
        assert block.split("\n\n")[0] == FAMILY_HELP


FAMILY_HELP = """\
  a        --r                      two-toned tilings with r reds and white total n
  as       --s --r                  s-fold cumulative sums of a(r,.)
  ak       --r --k                  tilings with white lengths capped at k
  f        --k                      k-step Fibonacci numbers
  fconv    --k --r                  r-th convolution of the k-step Fibonacci sequence
  negf     --k                      k-step Fibonacci numbers at any integer index
  pell     (no parameters)          Pell numbers
  L        --k                      compositions with at least one part k
  Ep       --m --k --p              compositions, parts <= k, exactly p parts m
  S        --k                      occurrences of the part k over all compositions
  G        --k                      compositions with largest part exactly k
  Gr       --k --r                  compositions whose largest part k appears exactly r times
  CF       --k                      compositions with the copies of k frozen
  Cb       --k [--p]                compositions whose parts k are consecutive
  Chat     --k [--m]                compositions avoiding the part k
  Cmult    --k                      compositions with no part divisible by k
  R        (no parameters)          runs over all compositions
  Rk       --k                      runs of the value k over all compositions
  E        (no parameters)          parts over all compositions
  m        --r                      palindromic tilings with r reds
  pal      (no parameters)          palindromic compositions
  palhat   --k                      palindromic compositions avoiding the part k
  Ca       --r                      tiles used by all tilings with r reds
  runs     --k [--j]                runs over compositions with parts <= k (runs of j only, with --j)"""


class TestTable:
    def test_reference_grid_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "T1", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0] == ["r/n", "0", "1", "2", "3", "4", "5"]
        assert rows[3] == ["2", "1", "3", "9", "25", "66", "168"]

    def test_json_masks_extrapolated_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table", "T_F3", "--format", "json")
        doc = json.loads(out)
        assert doc["schema"] == 1
        # row j=1 is published through n = 8 and extrapolated at n = 9
        assert doc["extrapolated"][1][7] is False
        assert doc["extrapolated"][1][8] is True

    def test_pretty_marks_extrapolation(self, capsys):
        code, out, _ = run_cli(capsys, "table", "T_diag")
        assert code == 0
        assert "extrapolated" in out
        assert "11" in out.splitlines()[7]  # row r=5 carries a_5(5,1) = 11

    def test_byte_identical_reruns(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "table", "T_m", "--format", "csv")
            outputs.add(out)
        assert len(outputs) == 1

    def test_unknown_table_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "table", "T9")
        assert exc.value.code == 2


class TestVerify:
    def test_verify_filter_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scale", "small",
                               "--filter", "gf-pell", "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["all_match"] is True
        [record] = doc["records"]
        assert record["id"] == "gf-pell"
        assert record["status"] == "fails-as-printed"
        assert "counterexample" in record

    def test_conjecture_alias(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--scale", "small",
                               "--quiet")
        assert code == 0
        doc = json.loads(out)
        ids = [r["id"] for r in doc["records"]]
        assert ids == ["conjecture-cumulative-closed-form",
                       "conjecture-runs-by-length"]
        assert all("bound" in r for r in doc["records"])

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--scale", "small",
                               "--filter", "pell-from-tilings", "--quiet",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["records"][0]["id"] == "pell-from-tilings"

    def test_filter_matching_nothing_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--scale", "small",
                                 "--filter", "nomatch")
        assert code == 2
        assert out == ""
        assert "no record id matches 'nomatch'" in err

    def test_small_report_digest(self, capsys, tmp_path):
        # Refactors of the registry and the oracle must leave the report
        # byte-identical, at the small, default and large scales.
        digests = {
            "small": "7616d81678631d31a0b1622513d93dc49cb25aba61531d582e8ac445d032a2a3",
            "default": "a312b00867bfb95f9f353d1013b2e78df49deba40bd94aaf07cb811b721178ea",
            "large": "699ac6239b1460ca9f163081be694b0f180d5b5f596e0bb43730ac0e5aaa751b",
        }
        for scale, digest in digests.items():
            target = tmp_path / f"{scale}.json"
            code, _, _ = run_cli(capsys, "verify", "--scale", scale, "--quiet",
                                 "--out", str(target))
            assert code == 0
            assert hashlib.sha256(target.read_bytes()).hexdigest() == digest, scale

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "verify", "--scale", "small",
                                 "--filter", "gf-pell", "--quiet",
                                 "--out", str(target))
        assert code == 2
        assert out == ""
        assert "cannot write" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["verify", "conjecture"])
    def test_unwritable_out_is_refused_before_the_run(self, capsys, monkeypatch,
                                                      tmp_path, command):
        def run_registry(*args):
            raise AssertionError("the registry ran before --out was checked")

        monkeypatch.setattr(identities, "run_registry", run_registry)
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, command, "--scale", "default",
                                 "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == (f"tilingkit {command}: cannot write {str(target)!r}:"
                       " No such file or directory\n")

    @pytest.mark.parametrize("command", ["verify", "conjecture"])
    def test_directory_out_is_refused_before_the_run(self, capsys, monkeypatch,
                                                     tmp_path, command):
        def run_registry(*args):
            raise AssertionError("the registry ran before --out was checked")

        monkeypatch.setattr(identities, "run_registry", run_registry)
        code, out, err = run_cli(capsys, command, "--scale", "default",
                                 "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == (f"tilingkit {command}: cannot write {str(tmp_path)!r}:"
                       " Is a directory\n")

    def test_out_naming_a_directory_is_usage_error(self, capsys, tmp_path):
        # Refused by the check before the registry runs, with the message
        # the write itself would give.
        code, out, err = run_cli(capsys, "verify", "--scale", "small",
                                 "--filter", "gf-pell", "--quiet",
                                 "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == (f"tilingkit verify: cannot write {str(tmp_path)!r}:"
                       " Is a directory\n")

    def test_corrupted_registry_fails_with_exit_1(self, capsys, monkeypatch):
        broken = identities.IdentityRecord(
            id="zz-corrupted",
            citation="a(0,n) = a(0,n) + 1",
            lhs=lambda n: identities.a(0, n),
            rhs=lambda n: identities.a(0, n) + 1,
            domain=lambda g: ((n,) for n in range(4)),
        )
        monkeypatch.setattr(identities, "_REGISTRY",
                            identities.registry() [:3] + [broken])
        code, out, err = run_cli(capsys, "verify", "--scale", "small")
        assert code == 1
        doc = json.loads(out)
        assert doc["all_match"] is False
        assert "[FAIL] zz-corrupted" in err


def run_module(*argv, **options):
    """Run ``python -m tilingkit`` in a fresh interpreter on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "tilingkit", *argv],
                          capture_output=True, text=True, env=env, **options)


def _one_gigabyte_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


class TestModuleEntryPoint:
    def test_verify_writes_the_small_report(self, tmp_path):
        target = tmp_path / "small.json"
        proc = run_module("verify", "--scale", "small", "--quiet",
                          "--out", str(target))
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "7616d81678631d31a0b1622513d93dc49cb25aba61531d582e8ac445d032a2a3")

    def test_unknown_family_is_usage_error(self):
        proc = run_module("seq", "nope", "--range", "0..1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unknown family 'nope'" in proc.stderr

    def test_table_past_its_bound_is_refused_before_it_fills(self):
        # Without the bound this fill grows a table row by row until memory
        # runs out; the address-space limit and the timeout make that a
        # failure of this test, not of the host.
        proc = run_module("seq", "a", "--r", "99999999999999999999",
                          "--range", "0..1", timeout=60,
                          preexec_fn=_one_gigabyte_address_space)
        assert proc.returncode == 3, proc.stderr[-500:]
        assert proc.stdout == ""
        assert proc.stderr == (
            "tilingkit: table scale exceeded: 100000000000000000000 x 1"
            " entries pass the bound of 2000000000\n")

    def test_far_convolution_fill_matches_its_series(self):
        # A far fill of few rows: 13 x 3001 entries, within the table bound.
        proc = run_module("seq", "ak", "--r", "12", "--k", "3",
                          "--range", "3000..3000", timeout=60,
                          preexec_fn=_one_gigabyte_address_space)
        assert proc.returncode == 0, proc.stderr[-500:]
        value = ser.expand(ser.gf_bounded_two_tone(12, 3), 3000)[3000]
        assert value.denominator == 1
        assert proc.stdout == f"3000 {value.numerator}\n"
        assert proc.stderr == ""

    def test_convolution_past_the_table_bound_is_refused_before_it_fills(self):
        proc = run_module("seq", "ak", "--r", "12", "--k", "3",
                          "--range", "13000..13000", timeout=60,
                          preexec_fn=_one_gigabyte_address_space)
        assert proc.returncode == 3, proc.stderr[-500:]
        assert proc.stdout == ""
        assert proc.stderr == (
            "tilingkit: table scale exceeded: 13 x 13001 entries"
            " pass the bound of 2000000000\n")

    @pytest.mark.parametrize("k", [10**9, 10**18])
    def test_runs_at_a_huge_k_answer_at_once(self, k):
        # A value j > n has no run, so the sum over j stops at n; summed to
        # k, the range takes minutes at 10**9 and never ends at 10**18.
        # It holds no memory, so only the timeout stops a regression.
        proc = run_module("seq", "runs", "--k", str(k), "--range", "0..5",
                          timeout=10, preexec_fn=_one_gigabyte_address_space)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout == "".join(
            f"{n} {cs.total_runs_restricted(n, 5)}\n" for n in range(6))

    def test_pal_past_the_table_bound_is_refused_before_it_is_built(self):
        # Unbounded, 2**(n // 2) at this index needs about 6 GB.
        proc = run_module("seq", "pal", "--range", "99999999999..99999999999",
                          timeout=60, preexec_fn=_one_gigabyte_address_space)
        assert proc.returncode == 3, proc.stderr[-500:]
        assert proc.stdout == ""
        assert proc.stderr == (
            "tilingkit: table scale exceeded: pal(99999999999) has"
            " 50000000000 bits, past the bound of 2000000000\n")


    @pytest.mark.parametrize("argv, n", [
        (("seq", "a", "--r", "0", "--range", "20000..20000"), 20000),
        (("seq", "pal", "--range", "30000..30000"), 30000),
    ])
    def test_value_past_the_digit_cap_is_refused_in_one_line(self, argv, n):
        proc = run_module(*argv, timeout=60,
                          preexec_fn=_one_gigabyte_address_space)
        assert proc.returncode == 3, proc.stderr[-500:]
        assert proc.stdout == ""
        assert proc.stderr == (
            f"tilingkit seq: the value at n={n} has more than 4300 digits,"
            " past the printing cap\n")

    @pytest.mark.parametrize("argv, message", [
        (("compositions", "--n", "100000000", "--count-only"),
         "more than 10000000 objects"),
        (("compositions", "--n", "100000000", "--forbid", "3", "--count-only"),
         "more than 10000000 objects"),
        (("tilings", "--r", "2", "--n", "100000000", "--forbid-white", "3",
          "--count-only"), "more than 10000000 objects"),
        (("compositions", "--n", "100000000", "--max", "1", "--count-only"),
         "more than 10000 squares"),
    ])
    def test_huge_oracle_family_is_refused_before_it_is_built(self, argv,
                                                             message):
        # Each built a tuple of 10**8 lengths, a MemoryError under the limit.
        proc = run_module("oracle", *argv, timeout=60,
                          preexec_fn=_one_gigabyte_address_space)
        assert proc.returncode == 3, proc.stderr[-500:]
        assert proc.stdout == ""
        assert proc.stderr == f"tilingkit: oracle scale exceeded: {message}\n"


class TestOracleCommand:
    def test_tilings_listing(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "tilings", "--r", "1",
                               "--n", "2")
        assert code == 0
        assert out.splitlines() == [
            "R W1 W1", "R W2", "W1 R W1", "W1 W1 R", "W2 R",
        ]

    def test_palindrome_count(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "palindromes", "--r", "2",
                               "--n", "6", "--count-only")
        assert code == 0
        assert out.strip() == "20"

    def test_composition_filters(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "compositions", "--n", "4",
                               "--forbid", "2", "--count-only")
        assert code == 0
        assert out.strip() == "4"
        code, out, _ = run_cli(capsys, "oracle", "compositions", "--n", "5",
                               "--allowed", "1,2,5", "--count-only")
        assert out.strip() == "9"

    @pytest.mark.parametrize("flags, listing", [
        (("--max-white", "1"), ["W1 W1 W1 W1"]),
        (("--forbid-white", "2"), ["W1 W1 W1 W1", "W4"]),
        (("--max-white", "3", "--forbid-white", "1"), ["W2 W2"]),
    ])
    def test_palindromes_apply_white_filters(self, capsys, flags, listing):
        argv = ("oracle", "palindromes", "--r", "0", "--n", "4") + flags
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines() == listing
        code, out, _ = run_cli(capsys, *argv, "--count-only")
        assert code == 0
        assert out.strip() == str(len(listing))

    def test_ceiling_env_var_gives_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("TILINGKIT_ORACLE_CEILING", "50")
        code, _, err = run_cli(capsys, "oracle", "compositions", "--n", "20",
                               "--count-only")
        assert code == 3
        assert "oracle scale exceeded" in err

    @pytest.mark.parametrize("count_only", [(), ("--count-only",)])
    def test_negative_ceiling_env_var_gives_exit_3(self, capsys, monkeypatch,
                                                   count_only):
        monkeypatch.setenv("TILINGKIT_ORACLE_CEILING", "-5")
        code, out, err = run_cli(capsys, "oracle", "tilings", "--n", "2",
                                 *count_only)
        assert code == 3
        assert out == ""
        assert "oracle scale exceeded" in err and "Traceback" not in err

    def test_suffix_white_count(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "tilings", "--r", "2",
                               "--n", "3", "--suffix-white", "2",
                               "--count-only")
        assert code == 0
        assert out.strip() == "56"

    @pytest.mark.parametrize("argv, message", [
        (("compositions", "--n", "-1"), "n must be nonnegative"),
        (("compositions", "--n", "5", "--allowed", "x"), "--allowed"),
        (("compositions", "--n", "5", "--allowed", "0", "--count-only"),
         "allowed parts must be positive"),
        (("compositions", "--n", "5", "--no-multiple-of", "0", "--count-only"),
         "no_multiple_of must be positive"),
        (("compositions", "--n", "5", "--max", "0"), "max_part must be positive"),
        (("compositions", "--n", "5", "--forbid", "0"),
         "forbidden_part must be positive"),
        (("tilings", "--n", "3", "--max-white", "0"), "max_white_len"),
        (("palindromes", "--n", "4", "--suffix-white", "1"),
         "palindromic and suffix_white_tiles cannot be combined"),
    ])
    def test_invalid_input_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "oracle", *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_bad_ceiling_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TILINGKIT_ORACLE_CEILING", "abc")
        code, _, err = run_cli(capsys, "oracle", "tilings", "--n", "2")
        assert code == 2
        assert "TILINGKIT_ORACLE_CEILING" in err


def _assert_exit_contract(capsys, argv):
    # Every input ends in one of the four exit codes, never in a traceback.
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


_ORACLE_OPTIONS = st.fixed_dictionaries({}, optional={
    "--r": st.integers(-1, 4),
    "--max-white": st.integers(-1, 5),
    "--forbid-white": st.integers(-1, 5),
    "--suffix-white": st.integers(-1, 3),
    "--max": st.integers(-1, 5),
    "--forbid": st.integers(-1, 5),
    "--allowed": st.sampled_from(["1,2,5", "2", "0", "-1,3", "x", "3,,4", ""]),
    "--no-multiple-of": st.integers(-1, 3),
})


@given(
    kind=st.sampled_from(["tilings", "compositions", "palindromes"]),
    n=st.integers(-2, 12),
    options=_ORACLE_OPTIONS,
    count_only=st.booleans(),
)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_oracle_argv_fuzz(capsys, monkeypatch, kind, n, options, count_only):
    # A low ceiling keeps the largest inputs quick: they refuse with exit 3.
    monkeypatch.setenv("TILINGKIT_ORACLE_CEILING", "2000")
    argv = ["oracle", kind, "--n", str(n)]
    for flag, value in options.items():
        argv += [flag, str(value)]
    if count_only:
        argv.append("--count-only")
    _assert_exit_contract(capsys, argv)


_SEQ_ARGV = st.builds(
    lambda family, lo, hi, fmt, params: [
        "seq", family, "--range", f"{lo}..{hi}", "--format", fmt,
        *(item for flag, value in params.items() for item in (flag, str(value))),
    ],
    family=st.sampled_from(sorted(cli.FAMILIES) + ["nope"]),
    lo=st.integers(-30, 30),
    hi=st.integers(-30, 30),
    fmt=st.sampled_from(cli.SEQ_FORMATS),
    params=st.fixed_dictionaries({}, optional={
        f"--{p}": st.integers(-3, 12) for p in ("r", "s", "k", "m", "p", "j")
    }),
)
_TABLE_ARGV = st.builds(
    lambda table_id, fmt: ["table", table_id, "--format", fmt],
    table_id=st.sampled_from(tables.TABLE_IDS + ("T9",)),
    fmt=st.sampled_from(cli.TABLE_FORMATS + ("xml",)),
)


@given(argv=st.one_of(_SEQ_ARGV, _TABLE_ARGV))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_seq_and_table_argv_fuzz(capsys, argv):
    _assert_exit_contract(capsys, argv)


# Runs each argv of a JSON list on stdin through ``cli.main`` in one
# interpreter, with the formula tables' bound lowered to its first argument
# (if given) as the tests lower the oracle ceiling, and prints one JSON line
# per argv: its exit code and whether its stderr held a traceback.  An
# exception that escapes ``cli.main`` ends the run with the argv it came
# from on stderr.
_ARGV_RUNNER = """
import contextlib, io, json, sys, time
from tilingkit import cli, sequences
if len(sys.argv) > 1:
    sequences.TABLE_BOUND = int(sys.argv[1])
for argv in json.load(sys.stdin):
    print(json.dumps(argv), file=sys.__stderr__, flush=True)
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([code, "Traceback" in err.getvalue(),
                      time.perf_counter() - start]), flush=True)
"""


def _assert_exit_contract_in_a_limited_interpreter(
    argvs, table_bound=10 ** 6, codes=(0, 1, 2, 3), seconds=None
):
    # The address-space limit and the timeout turn a runaway input into a
    # failure of the test, not of the host.  ``table_bound=None`` keeps the
    # shipped bound; ``seconds``, if given, is each argv's wall budget.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, TILINGKIT_ORACLE_CEILING="2000")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    bound = [] if table_bound is None else [str(table_bound)]
    proc = subprocess.run([sys.executable, "-c", _ARGV_RUNNER, *bound],
                          input=json.dumps(argvs), capture_output=True,
                          text=True, env=env, timeout=120,
                          preexec_fn=_one_gigabyte_address_space)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(argvs)
    for argv, (code, traceback, elapsed) in zip(argvs, results):
        assert code in codes and not traceback, argv
        assert seconds is None or elapsed < seconds, (argv, elapsed)


_LARGE_ORACLE_ARGV = st.builds(
    lambda kind, n, options, count_only: [
        "oracle", kind, "--n", str(n),
        *(item for flag, value in options.items() for item in (flag, str(value))),
        *(["--count-only"] if count_only else []),
    ],
    kind=st.sampled_from(["tilings", "compositions", "palindromes"]),
    n=st.one_of(st.integers(13, 20_000), st.integers(20_000, 10 ** 8)),
    options=_ORACLE_OPTIONS,
    count_only=st.booleans(),
)


@given(argvs=st.lists(_LARGE_ORACLE_ARGV, min_size=25, max_size=25))
@settings(max_examples=8, deadline=None)
def test_oracle_argv_fuzz_at_large_sizes(argvs):
    _assert_exit_contract_in_a_limited_interpreter(argvs)


_LARGE_SEQ_ARGV = st.builds(
    lambda family, lo, width, fmt, params: [
        "seq", family, "--range", f"{lo}..{lo + width}", "--format", fmt,
        *(item for flag, value in params.items() for item in (flag, str(value))),
    ],
    family=st.sampled_from(sorted(cli.FAMILIES)),
    # pal passes 4300 digits from n = 28570 on.
    lo=st.integers(-30, 60_000),
    width=st.integers(0, 3),
    fmt=st.sampled_from(cli.SEQ_FORMATS),
    params=st.fixed_dictionaries({}, optional={
        f"--{p}": st.integers(-3, 12) for p in ("r", "s", "k", "m", "p", "j")
    }),
)


@given(argvs=st.lists(_LARGE_SEQ_ARGV, min_size=25, max_size=25))
@settings(max_examples=8, deadline=None)
def test_seq_argv_fuzz_at_large_indices(argvs):
    _assert_exit_contract_in_a_limited_interpreter(argvs)


_CONVOLUTION_SEQ_ARGV = st.builds(
    lambda family, lo, width, params: [
        "seq", family, "--range", f"{lo}..{lo + width}", "--k", "3",
        *(item for flag, value in params.items() for item in (flag, str(value))),
    ],
    family=st.sampled_from(["ak", "fconv", "Ep", "palhat", "Gr", "runs"]),
    lo=st.one_of(st.integers(-3, 3000), st.integers(2900, 3000)),
    width=st.integers(0, 3),
    # A family reads only its own parameters; --m is mostly in 1..k.
    params=st.fixed_dictionaries(
        {"--r": st.integers(-1, 12), "--m": st.integers(0, 4),
         "--p": st.integers(-1, 12)},
        optional={"--j": st.integers(-1, 4)}),
)


@given(argvs=st.lists(_CONVOLUTION_SEQ_ARGV, min_size=16, max_size=16))
@settings(max_examples=5, deadline=None)
def test_convolution_seq_argv_fuzz_at_the_shipped_bounds(argvs):
    # ak, fconv, Ep, Gr and runs read a_k rows and palhat reads a_s rows:
    # at n up to 3000 each answers or exits 3 under the shipped
    # TABLE_BOUND.
    _assert_exit_contract_in_a_limited_interpreter(argvs, table_bound=None)


_HUGE_PARAMETER_SEQ_ARGV = st.builds(
    lambda family, lo, width, params: [
        "seq", family, "--range", f"{lo}..{lo + width}",
        *(item for flag, value in params.items() for item in (flag, str(value))),
    ],
    family=st.sampled_from(sorted(cli.FAMILIES)),
    lo=st.integers(-3, 40),
    width=st.integers(0, 3),
    # 2**63 is one past the largest C ssize_t, the length of a list or deque.
    params=st.fixed_dictionaries({}, optional={
        f"--{p}": st.one_of(st.sampled_from([10 ** 9, 10 ** 18, 2 ** 63]),
                            st.integers(-3, 12))
        for p in ("r", "s", "k", "m", "p", "j")
    }),
)


@given(argvs=st.lists(_HUGE_PARAMETER_SEQ_ARGV, min_size=25, max_size=25))
@settings(max_examples=8, deadline=None)
def test_seq_argv_fuzz_at_huge_parameters(argvs):
    # Each family at a huge r, s, k, m, p or j answers, is a usage error or
    # is refused, each argv within a few seconds, under the shipped bound.
    _assert_exit_contract_in_a_limited_interpreter(
        argvs, table_bound=None, codes=(0, 2, 3), seconds=5)


_VERIFY_ARGV = st.fixed_dictionaries({
    "command": st.sampled_from(["verify", "conjecture"]),
    "scale": st.sampled_from(["small", "huge"]),
    "quiet": st.booleans(),
}, optional={
    "--filter": st.sampled_from(["gf-pell", "gf-*", "conjecture*", "nomatch"]),
    "--out": st.sampled_from(["missing/report.json", ".", "report.json"]),
})


@given(draw=_VERIFY_ARGV)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_and_conjecture_argv_fuzz(capsys, tmp_path, draw):
    # Small scale or an invalid one keeps each example under a second;
    # --out names a missing directory, an existing one or a file.
    argv = [draw["command"], "--scale", draw["scale"]]
    if "--filter" in draw:
        argv += ["--filter", draw["--filter"]]
    if "--out" in draw:
        argv += ["--out", str(tmp_path / draw["--out"])]
    if draw["quiet"]:
        argv.append("--quiet")
    _assert_exit_contract(capsys, argv)
