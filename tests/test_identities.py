"""Identity registry: statuses, probes, coverage, and determinism."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest

from tilingkit import compstats as cs
from tilingkit import identities as ident
from tilingkit import oracle as orc
from tilingkit import sequences as sq
from tilingkit import series as ser
from tilingkit.sequences import NonIntegerResultError

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def small_report():
    return ident.run_registry("small")


@pytest.fixture(scope="module")
def expected_status():
    with open(FIXTURES / "expected_status.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schema"] == 1
    return doc["records"]


class TestRegistryShape:
    def test_unique_sorted_ids(self, small_report):
        ids = [r.id for r in small_report.results]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_every_record_declares_a_known_status(self):
        for record in ident.registry():
            assert record.expected in ("verified", "fails-as-printed", "conjecture")
            if record.expected == "fails-as-printed":
                assert record.corrected is not None

    def test_no_record_compares_a_side_with_itself(self):
        # A side that a corrected form or a probe leaves out is the record's.
        probes = 0
        for record in ident.registry():
            assert record.lhs is not record.rhs, record.id
            corr = record.corrected
            if corr is not None:
                lhs, rhs = corr.lhs or record.lhs, corr.rhs or record.rhs
                assert lhs is not rhs, record.id
            if record.probe is not None:
                probes += 1
                oracle = record.probe.oracle or record.lhs
                for label, fn in record.probe.candidates:
                    assert fn is not oracle, (record.id, label)
        assert probes == 8

    def test_a_conjecture_carries_no_corrected_form(self):
        # The status is read off the record, and this pair names two.
        with pytest.raises(ValueError, match="no corrected form"):
            ident.IdentityRecord(
                id="conjecture-and-erratum",
                citation="a(r,n) = a(r,n)",
                lhs=ident.a,
                rhs=ident.a_explicit,
                domain=lambda g: ((1, 1),),
                corrected=ident.CorrectedForm(citation="a(r,n) = a(r,n)"),
                bound_doc=lambda g: {},
            )

    def test_conjectures_are_never_marked_verified(self, small_report):
        for result in small_report.results:
            if result.expected == "conjecture":
                assert result.status == "conjecture"
                assert result.bound is not None


class TestStatuses:
    def test_all_match_at_small_scale(self, small_report):
        bad = [r.id for r in small_report.results if not r.matches_expected]
        assert not bad

    def test_statuses_match_fixture(self, small_report, expected_status):
        observed = {r.id: r.status for r in small_report.results}
        assert set(observed) == set(expected_status)
        for rid, entry in expected_status.items():
            assert observed[rid] == entry["status"], rid

    def test_corrected_forms_verify(self, small_report, expected_status):
        for result in small_report.results:
            expect = expected_status[result.id]
            if expect.get("corrected_verifies"):
                assert result.corrected_counterexample is None, result.id

    def test_failures_carry_counterexamples(self, small_report):
        for result in small_report.results:
            if result.status == "fails-as-printed":
                assert result.counterexample is not None, result.id
                assert "point" in result.counterexample


class TestProbes:
    PROBED = (
        "bounded-white-recurrence",
        "part-occurrences-headline",
        "palindromic-tilings-case-split",
        "palindromes-avoiding-part",
        "replacement-compositions-display",
        "replacement-parts-display",
    )

    @pytest.mark.parametrize("record_id", PROBED)
    def test_probe_resolves_to_a_matching_candidate(self, record_id):
        resolution = ident.erratum_probe(record_id, "small")
        matching = [c for c in resolution["candidates"] if c["matches"]]
        failing = [c for c in resolution["candidates"] if not c["matches"]]
        assert matching, record_id
        # the stated form is always among the rejected candidates
        assert any("stated" in c["label"] for c in failing), record_id
        for candidate in failing:
            assert "counterexample" in candidate

    def test_probe_specific_resolutions(self):
        res = ident.erratum_probe("part-occurrences-headline", "small")
        winners = {c["label"] for c in res["candidates"] if c["matches"]}
        assert winners == {"a(1, n-k)"}

        res = ident.erratum_probe("palindromes-avoiding-part", "small")
        winners = {c["label"] for c in res["candidates"] if c["matches"]}
        assert winners == {"paired-insertion sign (-1)^ceil(j/2) m(j, n-jk)"}

    def test_probe_errors(self):
        with pytest.raises(ValueError, match="no record"):
            ident.erratum_probe("nonexistent-record")
        with pytest.raises(ValueError, match="no probe"):
            ident.erratum_probe("gf-two-tone")

    def test_probe_evaluates_each_oracle_point_once(self, monkeypatch):
        calls: list[int] = []

        def oracle(n):
            calls.append(n)
            return 2 * n

        probed = ident.IdentityRecord(
            id="probe-control",
            citation="f(n) = 2n + [n = 1]",
            lhs=lambda n: 2 * n + (n == 1),
            rhs=lambda n: 2 * n,
            domain=lambda g: ((n,) for n in range(5)),
            probe=ident.ProbeSpec(
                oracle_label="counting oracle",
                oracle=oracle,
                candidates=(
                    ("stated 2n + [n = 1]", lambda n: 2 * n + (n == 1)),
                    ("doubled n + n", lambda n: n + n),
                    ("shifted 2n", lambda n: 2 * n),
                ),
            ),
        )
        monkeypatch.setattr(ident, "_REGISTRY", [probed])
        resolution = ident.erratum_probe("probe-control", "small")
        assert resolution == {
            "record": "probe-control",
            "oracle": "counting oracle",
            "candidates": [
                {"label": "stated 2n + [n = 1]", "matches": False, "points": 2,
                 "counterexample": {"point": [1], "lhs": "2", "rhs": "3"}},
                {"label": "doubled n + n", "matches": True, "points": 5},
                {"label": "shifted 2n", "matches": True, "points": 5},
            ],
        }
        # Three candidates sweep 12 points; the oracle sees each of 5 once.
        assert sorted(calls) == list(range(5))
        # The cache lives for one probe: a second probe evaluates afresh.
        ident.erratum_probe("probe-control", "small")
        assert len(calls) == 10

    def test_small_probe_digest(self):
        # Refactors of the probes, their candidates and their oracles must
        # leave every probe's resolution byte-identical.
        probes = {r.id: ident.erratum_probe(r.id, "small")
                  for r in ident.registry() if r.probe is not None}
        assert len(probes) == 8
        digest = hashlib.sha256(
            json.dumps(probes, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "c7f26ae905e6e267111db69275235dbf360e4faf7bda74187367beda21e8dd0d")

    @pytest.mark.skipif(
        not os.environ.get("TILINGKIT_LARGE_SCALE"),
        reason="set TILINGKIT_LARGE_SCALE=1 to run the probes at their default scale",
    )
    def test_default_probe_digest(self):
        # Every probe at its own default scale, digested as the small ones.
        probes = {r.id: ident.erratum_probe(r.id)
                  for r in ident.registry() if r.probe is not None}
        assert len(probes) == 8
        digest = hashlib.sha256(
            json.dumps(probes, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "7560ecc7bb4d12b43a38e8f6271fc1d47815e006a02c2c0251f4a73bc2deb686")


class TestConjectureChecks:
    def test_cumulative_closed_form_scan(self):
        report = ident.check_conjecture_1(8, 8, 8)
        assert report["counterexamples"] == []
        assert report["points"] > 0
        assert report["skipped_out_of_domain"] > 0
        assert report["bounds"] == {"s": 8, "r": 8, "n": 8}

    def test_runs_scan(self):
        report = ident.check_runs_conjecture(10)
        assert report["counterexamples"] == []
        assert report["bounds"] == {"n": 10}

    def test_formula_defect_outside_domain(self):
        value = ident._conjecture1_formula(4, 1, 3)
        assert isinstance(value, ident.Defect)


class TestCoverageManifest:
    def test_manifest_covers_registry_exactly(self):
        with open(FIXTURES / "equation_manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["schema"] == 1
        registry_ids = {r.id for r in ident.registry()}
        seen: set[str] = set()
        allowed_plain = {"definition", "data", "out-of-scope", "property-test"}
        for entry in manifest["entries"]:
            disposition = entry["disposition"]
            if disposition.startswith("record:"):
                rid = disposition.split(":", 1)[1]
                assert rid in registry_ids, f"unknown record {rid}"
                seen.add(rid)
            elif disposition.startswith("covered-by:"):
                rid = disposition.split(":", 1)[1]
                assert rid in registry_ids, f"unknown record {rid}"
            else:
                assert disposition in allowed_plain, disposition
        missing = registry_ids - seen
        assert not missing, f"records without a manifest entry: {missing}"


class TestReportDocument:
    def test_deterministic_across_runs(self):
        doc1 = ident.run_registry("small", "gf-*").to_doc()
        doc2 = ident.run_registry("small", "gf-*").to_doc()
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)

    def test_schema_and_fields(self, small_report):
        doc = small_report.to_doc()
        assert doc["schema"] == 1
        assert doc["scale"] == "small"
        assert doc["all_match"] is True
        for rec in doc["records"]:
            assert {"id", "citation", "status", "expected", "points"} <= set(rec)

    def test_wall_time_not_in_document(self, small_report):
        text = json.dumps(small_report.to_doc())
        assert "seconds" not in text
        assert all(result.seconds >= 0 for result in small_report.results)

    def test_filter_selects_records(self):
        report = ident.run_registry("small", "conjecture*")
        assert {r.id for r in report.results} == {
            "conjecture-cumulative-closed-form",
            "conjecture-runs-by-length",
        }


class TestMonotonicity:
    @pytest.mark.skipif(
        not os.environ.get("TILINGKIT_LARGE_SCALE"),
        reason="set TILINGKIT_LARGE_SCALE=1 to sweep the large grids",
    )
    def test_statuses_hold_at_large_scale(self, expected_status):
        # no record verified on a smaller grid may fail on a larger one
        report = ident.run_registry("large")
        for result in report.results:
            assert result.status == expected_status[result.id]["status"], result.id
            assert result.matches_expected, result.id
        # The bytes ``tilingkit verify --scale large`` writes.
        payload = json.dumps(report.to_doc(), sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "699ac6239b1460ca9f163081be694b0f180d5b5f596e0bb43730ac0e5aaa751b")


class TestNegativeControl:
    def test_corrupted_identity_is_caught(self):
        broken = ident.IdentityRecord(
            id="negative-control",
            citation="a(r,n) = a(r,n) + 1",
            lhs=lambda r, n: ident.a(r, n),
            rhs=lambda r, n: ident.a(r, n) + 1,
            domain=lambda g: ((r, n) for r in range(3) for n in range(3)),
        )
        result = ident.evaluate_record(broken, ident.SCALES["small"])
        assert result.status == "mismatch"
        assert not result.matches_expected
        assert result.counterexample == {
            "point": [0, 0], "lhs": "1", "rhs": "2",
        }

    def test_corrected_form_defaults_to_the_record_lhs(self):
        # The corrected form states only its rhs; the "lhs" of its
        # counterexample shows the record's own lhs was evaluated.
        broken = ident.IdentityRecord(
            id="negative-control-corrected",
            citation="a(r,n) = a(r,n) + 1",
            lhs=lambda r, n: ident.a(r, n),
            rhs=lambda r, n: ident.a(r, n) + 1,
            domain=lambda g: ((r, n) for r in range(3) for n in range(3)),
            corrected=ident.CorrectedForm(
                citation="a(r,n) = a(r,n) + 2",
                rhs=lambda r, n: ident.a(r, n) + 2,
            ),
        )
        result = ident.evaluate_record(broken, ident.SCALES["small"])
        assert result.status == "mismatch"
        assert not result.matches_expected
        assert result.corrected_citation == "a(r,n) = a(r,n) + 2"
        assert result.corrected_counterexample == {
            "point": [0, 0], "lhs": "1", "rhs": "3",
        }


def _is_exact(value) -> bool:
    if type(value) is tuple:
        return all(type(v) in (int, Fraction) for v in value)
    return type(value) in (int, Fraction)


class TestExactValues:
    def test_every_side_is_exact_at_small(self):
        # Every side, corrected sides included, is an int, a Fraction, a
        # tuple of these (a generating-function row) or a Defect.
        grid = ident.SCALES["small"]
        inexact = {}
        for record in ident.registry():
            forms = [(record.lhs, record.rhs, record.domain)]
            corr = record.corrected
            if corr is not None:
                forms.append((corr.lhs or record.lhs, corr.rhs or record.rhs,
                              corr.domain or record.domain))
            for lhs, rhs, domain in forms:
                for point in domain(grid):
                    for side in (lhs, rhs):
                        try:
                            value = side(*point)
                        except (NonIntegerResultError, ser.NotExpandableError):
                            continue
                        if not (isinstance(value, ident.Defect) or _is_exact(value)):
                            inexact.setdefault(record.id, (point, value))
        assert inexact == {}

    def test_negfib2_reflection_stays_exact_past_float_precision(self):
        record = next(r for r in ident.registry() if r.id == "negfib2-reflection")
        for n in (-2, -3, -79, -80):
            value = record.corrected.rhs(n)
            assert type(value) is int
            assert value == record.lhs(n), n

    def test_inexact_value_is_a_counterexample(self):
        floating = ident.IdentityRecord(
            id="negative-control-float",
            citation="a(r,n) = a(r,n)",
            lhs=lambda r, n: ident.a(r, n),
            rhs=lambda r, n: float(ident.a(r, n)),
            domain=lambda g: ((r, n) for r in range(3) for n in range(3)),
        )
        result = ident.evaluate_record(floating, ident.SCALES["small"])
        assert result.status == "mismatch"
        assert result.counterexample == {
            "point": [0, 0], "lhs": "1", "rhs": "<defect: inexact value 1.0>",
        }


def _sides(record):
    """Every side of a record with the domain it is swept over: ``lhs``,
    ``rhs``, the corrected sides it states, the probe oracle and the
    probe candidates."""
    yield "lhs", record.lhs, record.domain
    yield "rhs", record.rhs, record.domain
    corr = record.corrected
    if corr is not None:
        for label, fn in (("corrected lhs", corr.lhs), ("corrected rhs", corr.rhs)):
            if fn is not None:
                yield label, fn, corr.domain or record.domain
    if record.probe is not None:
        yield "probe oracle", record.probe.oracle or record.lhs, record.domain
        for label, fn in record.probe.candidates:
            yield f"candidate {label}", fn, record.domain


def _modules_reached(fn, points) -> set[str]:
    """The tilingkit modules other than ``identities`` whose functions run
    while ``fn`` is evaluated at ``points``, every registry cache emptied
    first so that no kept value hides a call."""
    for value in vars(ident).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    reached: set[str] = set()

    def profile(frame, event, _arg):
        if event == "call":
            package, _, module = frame.f_globals.get("__name__", "").rpartition(".")
            if package == "tilingkit":
                reached.add(module)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for point in points:
            ident._safe(fn, point)
    finally:
        sys.setprofile(previous)
    reached.discard("identities")
    return reached


class TestIndependentSides:
    def test_consecutive_parts_alternating_needs_no_exact_parts(self, monkeypatch):
        # The inline alternating sum expands ``exact_parts``' terms, so the
        # other side must reach the count without that sum.
        def refuse(*args):
            raise AssertionError("exact_parts was called")

        monkeypatch.setattr(cs, "exact_parts", refuse)
        result = ident.evaluate_record(
            ident._record("consecutive-parts-alternating"), ident.SCALES["small"])
        assert (result.status, result.points) == ("verified", 364)

    def test_oracle_sides_reach_no_formula_module(self):
        # A side that counts objects must not also evaluate a closed form
        # or a recurrence, or the two sides of a record stop being
        # independent.  The one mixed side is palindromes-with-part's lhs,
        # cs.pal(n) less the oracle's palindromes avoiding k.  ``series``
        # is allowed: gf-allowed-parts expands a series of oracle counts.
        grid = ident.SCALES["small"]
        mixed = set()
        with patch.dict(orc._COUNTS, clear=True), \
                patch.dict(orc._CENSUSES, clear=True):
            for record in ident.registry():
                for label, fn, domain in _sides(record):
                    points = list(domain(grid))
                    reached = _modules_reached(
                        fn, dict.fromkeys((points[len(points) // 2], points[-1])))
                    if "oracle" in reached and reached & {"sequences", "compstats"}:
                        mixed.add((record.id, label))
        assert mixed == {("palindromes-with-part", "lhs")}


def test_smaller_step_sum_is_refused_before_its_first_fill(monkeypatch):
    # step-fib-from-smaller-step's rhs at (40, 3) fills a_k(j, 39 - 3j, 2)
    # for j = 0..13.  Its first table, 1 x 40, measures 1,640; the run's
    # table, rows 0..13 as wide as the first call asks, 14 x 40, measures
    # 30,240.  At a bound between them the first fill alone would pass, so
    # the run must be refused before it.
    rhs = ident._record("step-fib-from-smaller-step").rhs
    monkeypatch.setattr(sq, "_AK_TABLES", {})
    monkeypatch.setattr(sq, "_FIB", {})
    expected = rhs(40, 3)
    sq._AK_TABLES.clear()
    sq._FIB.clear()
    bound = sq.TABLE_BOUND
    monkeypatch.setattr(sq, "TABLE_BOUND", 2000)
    with pytest.raises(sq.TableScaleError,
                       match=r"^table scale exceeded: 14 x 40 entries"
                             " pass the bound of 2000$"):
        rhs(40, 3)
    assert sq._AK_TABLES == {} and sq._FIB == {}
    monkeypatch.setattr(sq, "TABLE_BOUND", bound)
    assert rhs(40, 3) == expected == sq.fibonacci_k(40, 3)


@pytest.mark.parametrize("record_id, point, seeds, steps", [
    ("conv-first-step", (40, 3), 1, 38),
    ("largest-part-convolution", (40, 3), 2, 2 * 39),
])
def test_fibonacci_convolution_reads_each_value_once(
    monkeypatch, record_id, point, seeds, steps
):
    # fibonacci_k keeps one window per k, so a sum that asked for a falling
    # and a rising index in turn would restart it at most of its terms.
    # Each sum reads its values upward: one seed and one step per index
    # past F(2) for each k.
    counts = {"seeds": 0, "steps": 0}

    class CountingDeque(sq.deque):
        def __init__(self, *args):
            counts["seeds"] += 1
            super().__init__(*args)

        def append(self, value):
            counts["steps"] += 1
            super().append(value)

    monkeypatch.setattr(sq, "deque", CountingDeque)
    monkeypatch.setattr(sq, "_FIB", {})
    record = ident._record(record_id)
    value = record.rhs(*point)
    assert counts == {"seeds": seeds, "steps": steps}
    lhs = record.corrected.lhs if record.corrected else None
    assert value == (lhs or record.lhs)(*point)


def test_tracer_census_caches_are_registry_caches():
    # The benchmark tracer reads ``cache_info()`` of each name it lists; the
    # list is parsed, not imported, so the test does not depend on ``bench``.
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    names = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "_CENSUS_CACHES"
                for target in node.targets)
    ]
    assert len(names) == 1 and names[0]
    for name in names[0]:
        assert callable(getattr(getattr(ident, name), "cache_info", None)), name


def test_tracer_installs():
    # The benchmark tracer wraps its functions by name, so a deleted name
    # would stop ``bench/run.py --trace 1`` with a KeyError.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(root / "src"), str(root / "bench"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.Tracer().install()"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
