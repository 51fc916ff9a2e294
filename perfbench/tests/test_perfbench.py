"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import sleep

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from calibration import PERIOD_S, SpeedProbe, reference  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from worker import run_queries  # noqa: E402

from ribboncalc import clusters, combclasses, enumeration, plforms, ribbon, tautring  # noqa: E402
from ribboncalc.errors import TooLarge  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _launch(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _launch("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _pass(queries):
    """A worker's pass record, at the reference speed."""
    records = run_queries(queries)
    for r in records:
        r["scaled"] = r["seconds"]
    wall = sum(r["seconds"] for r in records)
    return {"queries": records, "wall_s": wall, "wall_scaled": wall,
            "peak_rss_mb": 20.0, "setup_speed": 1.0}


def test_a_wrong_expected_value_is_counted_and_named():
    queries = workloads.build("euler", 1, smoke=True)
    wrong = queries[1]._replace(check=workloads.equals(Fraction(5)))
    record = _pass([queries[0], wrong] + queries[2:])
    assert [r["name"] for r in record["queries"] if r["error"]] == [wrong.name]
    summary = run.summarize([record], [0.1])
    assert not summary["correct"]
    assert (summary["failed"], summary["attempted"]) == (1, len(queries))
    assert summary["failures"][0].startswith(wrong.name)


def test_a_raising_query_fails_instead_of_crashing():
    def too_large():
        raise TooLarge("over budget")

    (record,) = run_queries([workloads.Query("big", too_large, workloads.equals(1))])
    assert "TooLarge" in record["error"]


def test_a_failed_oracle_makes_the_command_exit_nonzero(monkeypatch, tmp_path, capsys):
    queries = workloads.build("kappa", 1, smoke=True)
    queries[0] = queries[0]._replace(check=workloads.equals(0))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run.Worker, "run", lambda self: (0.1, _pass(queries)))
    assert run.main(["--workload", "kappa", "--seconds", "0"]) == 1
    out, err = capsys.readouterr()
    assert f"FAILED {queries[0].name}" in err
    assert json.loads(out.strip().splitlines()[-1])["failed"] == 1


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _launch("--workload", "euler", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_a_query_is_scaled_by_the_kernel_runs_inside_it():
    probe = SpeedProbe("kappa")
    ref = reference("kappa")
    probe.samples = [(t, ref) for t in (0.0, 0.2, 0.4, 0.6, 2.0)] + [
        (t, 2 * ref) for t in (1.0, 1.2, 1.4)
    ]
    assert probe.speed(1.0, 1.5) == pytest.approx(0.5)
    assert probe.speed(0.1, 0.3) == pytest.approx(1.0)  # too few inside: the pass's median
    assert probe.speed() == pytest.approx(1.0)
    with SpeedProbe("euler") as running:
        sleep(3 * PERIOD_S)
    assert running.samples and running.speed() > 0


def _lengths(inputs):
    return [sorted(m.lengths.items()) for _, m in inputs.metric_cells] + [
        sorted(m.lengths.items()) for _, m, _ in inputs.zone_cells
    ] + [z for *_, z in inputs.collapses]


def test_the_seed_drives_the_forms_inputs():
    first = _lengths(workloads.forms_inputs(1, smoke=True))
    assert first == _lengths(workloads.forms_inputs(1, smoke=True))
    assert first != _lengths(workloads.forms_inputs(2, smoke=True))


def test_every_name_is_patched_where_it_is_looked_up():
    originals = {
        "canonical_form": ribbon.canonical_form,
        "kappa_cycle_sum": tautring.kappa_cycle_sum,
        "mul": tautring.TautPoly.__mul__,
        "cylinder_configurations": plforms.cylinder_configurations,
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert enumeration.canonical_form is not originals["canonical_form"]
        assert clusters.canonical_form is ribbon.canonical_form is enumeration.canonical_form
        assert combclasses.kappa_cycle_sum is tautring.kappa_cycle_sum
        assert combclasses.kappa_cycle_sum is not originals["kappa_cycle_sum"]
        assert tautring.TautPoly.__rmul__ is tautring.TautPoly.__mul__
        assert tautring.TautPoly.__mul__ is not originals["mul"]
        assert plforms.cylinder_configurations is not originals["cylinder_configurations"]
        combclasses.kappa_cycle_sum([1, 2, 3])
        plforms.fiber_integral_cyl(1, 3)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert enumeration.canonical_form is originals["canonical_form"]
    assert tautring.TautPoly.__rmul__ is originals["mul"]
    assert metrics["tautring.cycle_sum_calls"]["value"] == 1
    assert metrics["tautring.cycle_sum_perms"]["value"] == 6
    assert metrics["plforms.cyl_configs"]["value"] == 3
    assert metrics["plforms.cyl_useful_ratio"]["value"] == pytest.approx(1 / 3)


def test_a_missing_target_reads_as_absent_zero_work():
    targets = tuple(
        ("enumeration._search", "enumeration", "_no_such_search", t[3])
        if t[0] == "enumeration._search" else t
        for t in TARGETS
    )
    tracer = Tracer(targets=targets)
    tracer.install()
    try:
        assert enumeration.orbifold_euler(0, 4, jobs=1) == -1
    finally:
        tracer.uninstall()
    assert "enumeration.search_calls" in tracer.absent_metrics()
    metrics = tracer.metrics()
    assert metrics["enumeration.search_calls"]["value"] == 0
    assert metrics["enumeration.self_s"]["value"] > 0


@pytest.mark.parametrize("valencies", [[3, 3], [5, 5], [7, 3], [5, 3, 3, 3], [3, 3, 3, 3]])
def test_one_face_count_agrees_with_the_pairing_search(valencies):
    assert workloads.one_face_pairings(valencies) == enumeration._search(list(valencies), 1)


@pytest.mark.parametrize("values", [[1], [1, 1], [1, 2, 3], [2, 2, 1, 3]])
def test_cycle_sum_recursion_agrees_with_the_permutation_walk(values):
    assert workloads.cycle_sum_by_recursion(values) == tautring.kappa_cycle_sum(values)


def test_euler_oracle_matches_known_values():
    known = {(0, 3): 1, (0, 4): -1, (1, 1): Fraction(-1, 12), (1, 2): Fraction(1, 12),
             (2, 1): Fraction(1, 120), (3, 1): Fraction(-1, 252)}
    assert {k: workloads.euler_characteristic(*k) for k in known} == known
