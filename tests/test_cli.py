import json
import math
import subprocess
import sys
from dataclasses import replace

import pytest

from shearcount import InvalidParameter, read_spectrum_csv, read_sweep_csv, run_verification, verify
from shearcount.cli import main
from shearcount.stats import INTEGRATORS


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- count ----

def test_count_rowslice(capsys):
    code, out, _ = run(["count", "--x", "0.2", "--y", "1", "--radius", "2.3", "--method", "rowslice"], capsys)
    assert code == 0
    assert out.strip() == "17"


def test_count_tie_case_warns_and_exits_2(capsys):
    code, out, err = run(["count", "--x", "0", "--y", "1", "--radius", "2"], capsys)
    assert code == 2
    assert out.strip() == "9"
    assert "ties" in err


def test_count_radius_that_snaps_to_zero_is_no_tie(capsys):
    code, out, err = run(["count", "--y", "1", "--radius", "1e-13"], capsys)
    assert (code, out.strip(), err) == (0, "1", "")


def test_count_formula_json(capsys):
    code, out, _ = run(
        ["count", "--x", "0.5", "--y", "1", "--radius", "1.5", "--method", "formula", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 7
    assert payload["method"] == "formula"
    assert payload["ties"] == 0
    assert payload["remainder"] == pytest.approx(7.0 - 2.25 * math.pi)


def test_count_rejects_negative_height(capsys):
    code, _, err = run(["count", "--y", "-1", "--radius", "2"], capsys)
    assert code == 1
    assert "--y" in err


def test_count_missing_radius(capsys):
    code, _, err = run(["count", "--y", "1"], capsys)
    assert code == 1


# ---- meansquare ----

def test_meansquare_constant_case(capsys):
    code, out, _ = run(["meansquare", "--y", "1", "--radius", "0.5", "--integrator", "breakpoints"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("T,y,mean_square")
    assert float(row.split(",")[2]) == pytest.approx(0.046053948273188315, abs=1e-12)


def test_meansquare_with_empty_jump_set(capsys):
    # y = 2, T = 2: the only occupied rows have half-width 2, so no jumps
    code, out, _ = run(["meansquare", "--y", "2", "--radius", "2", "--integrator", "breakpoints"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[7] == "0"


def test_meansquare_breakpoints_refuses_beyond_its_event_ceiling(capsys):
    code, _, err = run(["meansquare", "--y", "0.0001", "--radius", "500", "--integrator", "breakpoints"], capsys)
    assert code == 3
    assert "exceeds 1e+08" in err
    assert "grid" not in err


def test_meansquare_default_is_pairwise_and_refuses_beyond_its_ceiling(capsys):
    code, out, _ = run(["meansquare", "--y", "1", "--radius", "20"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert (row[6], row[7]) == ("pairwise", "0")
    code, _, err = run(["meansquare", "--y", "0.0001", "--radius", "500"], capsys)
    assert code == 3
    assert "M = 49999 exceeds the pairwise ceiling 20000" in err


def test_meansquare_parseval(capsys):
    code, out, _ = run(["meansquare", "--y", "1", "--radius", "1.5", "--integrator", "parseval-assembled"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1]
    assert row.split(",")[6] == "parseval-assembled"
    assert float(row.split(",")[2]) == pytest.approx(0.8842141576794406, abs=0.01)


@pytest.mark.parametrize("integrator", sorted(INTEGRATORS))
def test_meansquare_row_equals_the_sweep_row(integrator, tmp_path, capsys):
    code, out, _ = run(["meansquare", "--y", "2.5", "--radius", "7.3", "--integrator", integrator], capsys)
    assert code == 0
    path = tmp_path / "s.csv"
    code, _, _ = run(
        ["sweep", "--y", "2.5", "--radius-min", "7.3", "--radius-max", "7.3", "--samples", "1",
         "--integrator", integrator, "--threads", "1", "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert out == path.read_text()


# ---- sweep ----

def test_sweep_file_output(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run(
        ["sweep", "--y", "1", "--radius-min", "10", "--radius-max", "100", "--samples", "5",
         "--log", "--out", str(out)],
        capsys,
    )
    assert code == 0
    with open(out) as fh:
        reports = read_sweep_csv(fh)
    assert len(reports) == 5
    assert all(r.method == "pairwise" for r in reports)


def test_sweep_timing_records_elapsed_ms(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, _, _ = run(
        ["sweep", "--y", "1", "--radius-min", "300", "--radius-max", "300", "--samples", "1",
         "--integrator", "breakpoints", "--timing", "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert float(path.read_text().splitlines()[1].split(",")[8]) > 0


def test_sweep_timing_reads_nonzero_on_sub_millisecond_rows(tmp_path, capsys):
    # pairwise rows this small take well under a millisecond each
    path = tmp_path / "t.csv"
    code, _, _ = run(
        ["sweep", "--y", "1", "--radius-min", "2", "--radius-max", "20", "--samples", "3",
         "--timing", "--out", str(path)],
        capsys,
    )
    assert code == 0
    with open(path) as fh:
        reports = read_sweep_csv(fh)
    assert len(reports) == 3
    assert all(r.elapsed_ms > 0 for r in reports)


def test_sweep_zero_samples_header_only(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code, _, _ = run(
        ["sweep", "--y", "1", "--radius-min", "10", "--radius-max", "100", "--samples", "0",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines == ["T,y,mean_square,mean_remainder,upper_bound,ratio,method,breakpoints,elapsed_ms"]


def test_sweep_unwritable_out(capsys):
    code, _, err = run(
        ["sweep", "--y", "1", "--radius-min", "10", "--radius-max", "20", "--samples", "1",
         "--out", "/nonexistent-dir/s.csv"],
        capsys,
    )
    assert code == 1
    assert "cannot write" in err


def test_sweep_negative_samples(capsys):
    code, _, _ = run(
        ["sweep", "--y", "1", "--radius-min", "10", "--radius-max", "20", "--samples", "-1",
         "--out", "/tmp/x.csv"],
        capsys,
    )
    assert code == 1


@pytest.mark.parametrize("y", ["0", "-1", "inf", "nan"])
def test_sweep_rejects_bad_height(y, tmp_path, capsys):
    code, _, err = run(
        ["sweep", "--y", y, "--radius-min", "5", "--radius-max", "6", "--samples", "2",
         "--out", str(tmp_path / "f.csv")],
        capsys,
    )
    assert code == 1
    assert "--y" in err


def test_sweep_with_every_row_refused_exits_3(tmp_path, capsys):
    # 2*T^2/y projects 5e9 and 7.2e9 events, beyond the breakpoint ceiling
    code, _, err = run(
        ["sweep", "--y", "0.0001", "--radius-min", "500", "--radius-max", "600", "--samples", "2",
         "--integrator", "breakpoints", "--out", str(tmp_path / "f.csv")],
        capsys,
    )
    assert code == 3
    assert "every sweep row failed" in err


def test_sweep_deterministic_across_thread_counts(tmp_path):
    cmd = [sys.executable, "-m", "shearcount", "sweep", "--y", "1", "--y", "2",
           "--radius-min", "5", "--radius-max", "60", "--samples", "4", "--log"]
    outs = []
    for threads, name in (("1", "a.csv"), ("3", "b.csv")):
        path = tmp_path / name
        subprocess.run(cmd + ["--threads", threads, "--out", str(path)], check=True)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_thread(tmp_path, capsys, threads):
    code, _, err = run(
        ["sweep", "--radius-min", "5", "--radius-max", "6", "--samples", "2",
         "--threads", threads, "--out", str(tmp_path / "f.csv")],
        capsys,
    )
    assert code == 1
    assert "threads must be >= 1" in err
    assert not (tmp_path / "f.csv").exists()


# ---- spectrum ----

def test_spectrum_output(tmp_path, capsys):
    out = tmp_path / "coeffs.csv"
    code, _, _ = run(["spectrum", "--y", "1", "--radius", "1.5", "--kmax", "1", "--out", str(out)], capsys)
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0] == "k,c_k"
    assert text[1].startswith("1,0.860")
    assert text[-1].startswith("# l2_truncation_bound=")
    with open(out) as fh:
        coeffs, bound = read_spectrum_csv(fh)
    assert coeffs.size == 1 and bound > 0


def test_spectrum_zero_radius_rows(capsys):
    code, out, _ = run(["spectrum", "--y", "1", "--radius", "0.5", "--kmax", "10"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("k,", "#"))]
    assert len(rows) == 10
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_spectrum_rejects_zero_kmax(capsys):
    code, _, err = run(["spectrum", "--y", "1", "--radius", "1.5", "--kmax", "0"], capsys)
    assert code == 1
    assert "--kmax" in err


# ---- verify ----

def test_verify_small_run_passes(capsys):
    code, out, _ = run(["verify", "--seed", "42", "--cases", "20"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_zero_cases_vacuous(capsys):
    code, out, _ = run(["verify", "--cases", "0"], capsys)
    assert code == 0
    assert "vacuous" in out


def test_verify_injected_fault_detected(capsys, monkeypatch):
    # an enumerate oracle that counts one vector too many must fail the suite
    real = verify.count_enumerate

    def overcount(z, T):
        result = real(z, T)
        return replace(result, count=result.count + 1)

    monkeypatch.setattr(verify, "count_enumerate", overcount)
    code, out, _ = run(["verify", "--seed", "42", "--cases", "20"], capsys)
    assert code == 4
    assert "oracle-equivalence" in out and "FAIL" in out


@pytest.mark.parametrize("flags", ["--tmax 1", "--tmax 0.5", "--tmax -5", "--tmax inf", "--tmax nan", "--seed -1"])
def test_verify_rejects_bad_tmax_and_seed(flags):
    # a subprocess with a timeout, so that a sampler that never ends fails the test
    flag, value = flags.split()
    proc = subprocess.run([sys.executable, "-m", "shearcount", "verify", "--cases", "1", flag, value],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert flag in proc.stderr


def test_verification_library_rejects_bad_tmax_and_seed():
    with pytest.raises(InvalidParameter, match="tmax"):
        run_verification(cases=1, tmax=math.inf)
    with pytest.raises(InvalidParameter, match="seed"):
        run_verification(seed=-1, cases=1)
    with pytest.raises(InvalidParameter, match="cases"):
        run_verification(cases=-2)
