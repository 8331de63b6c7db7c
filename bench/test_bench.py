"""The benchmark's own tests:  python3 -m pytest -q bench/test_bench.py"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as w  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(w.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    a, b = w.WORKLOADS[name](7), w.WORKLOADS[name](7)
    assert a.rows == b.rows
    assert w.WORKLOADS[name](8).rows != a.rows


@pytest.mark.parametrize("name", list(w.WORKLOADS))
def test_two_seeds_move_work_totals_by_less_than_2_percent(name):
    first, second = w.WORKLOADS[name](1).work(), w.WORKLOADS[name](2).work()
    assert first == w.WORKLOADS[name](1).work()
    for count, value in first.items():
        assert abs(second[count] - value) < 0.02 * value, count


def test_workload_names_and_end_to_end_metrics_match_the_spec():
    assert [x["name"] for x in SPEC["workloads"]] == list(w.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


def small_sweep():
    sweep = w.SweepLarge(1)
    sweep.config = dataclasses.replace(sweep.config, radius_min=10.0, radius_max=60.0, samples=4)
    sweep.rows = [(y, float(T)) for y in sorted(sweep.Y_VALUES) for T in sweep.config.radii()]
    sweep.reference()
    return sweep


def test_sweep_counts_a_mean_shifted_by_1e_minus_6_as_failed(monkeypatch):
    sweep = small_sweep()
    clean = sweep.run_pass(None)
    assert clean.attempted == len(sweep.rows) and not clean.failures

    real = w.sc.sweep

    def shifted(config, threads):
        reports = real(config, threads)
        r = reports[0]
        reports[0] = dataclasses.replace(r, mean_remainder=r.mean_remainder + 1e-6 * (1 + math.pi * r.T**2))
        return reports

    monkeypatch.setattr(w.sc, "sweep", shifted)
    ps = sweep.run_pass(None)
    assert ps.wrong == 1 and len(ps.failures) == 1
    assert ps.checks[w.CHECKS["closed_mean"]] == [1, len(sweep.rows)]
    assert ps.checks[w.CHECKS["csv_bytes"]] == [1, len(sweep.rows)]


def test_an_aborted_sweep_fails_every_row(monkeypatch):
    sweep = small_sweep()

    def abort(config, threads):
        raise IndexError("index 0 is out of bounds")

    monkeypatch.setattr(w.sc, "sweep", abort)
    ps = sweep.run_pass(None)
    assert ps.attempted == len(sweep.rows)
    assert [cls for cls, _ in ps.failures] == ["IndexError"] * len(sweep.rows)


def test_spectral_counts_a_low_certificate_as_failed(monkeypatch):
    spectral = w.Spectral(1)
    spectral.rows = spectral.rows[:2]
    spectral.reference()
    assert not spectral.run_pass(None).failures

    monkeypatch.setattr(w.sc, "mean_square_certificate", lambda y, T, cutoff: 0.0)
    ps = spectral.run_pass(None)
    assert ps.wrong == 2 * len(spectral.CUTOFFS)


def test_many_small_counts_an_off_by_one_counter_as_failed(monkeypatch):
    many = w.ManySmall(1)
    many.points = many.points[:20]
    many.reference()
    clean = many.run_pass(None)
    assert clean.wrong == 0

    real = w.sc.count_rowslice
    monkeypatch.setattr(w.sc, "count_rowslice",
                        lambda z, T: dataclasses.replace(real(z, T), count=real(z, T).count + 1))
    ps = many.run_pass(None)
    assert ps.wrong == sum(1 for x, y, T in many.points
                           if w.sc.count_enumerate(w.sc.ShearPoint(x, y), T).ties == 0
                           and real(w.sc.ShearPoint(x, y), T).ties == 0)
    assert ps.wrong > 0


def test_traced_pass_reports_every_per_layer_metric():
    many = w.ManySmall(1)
    many.points = many.points[:10]
    many.reference()
    tracer = w.Tracer()
    plain = [many.run_pass(None)]
    mark = tracer.mark()
    traced = [many.run_pass(tracer)]
    spans = tracer.spans[mark:]
    by_id = {s["id"]: s for s in spans}
    replays = [s for s in spans if s["replay"]]
    assert replays and all(by_id[s["parent"]]["op"] == s["op"] for s in replays)
    metrics = w.layer_metrics(traced, plain, [spans], {})
    assert {m: run.layer_unit(m) for m in metrics} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["formula.count_decomposition.s"] > 0
    assert metrics["stats.events.raw"] > metrics["stats.events.merged"] > 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "many-small", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
