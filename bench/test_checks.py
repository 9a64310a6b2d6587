"""Self-tests of the benchmark's correctness checks.

    python3 -m pytest bench/test_checks.py

Each check must pass on the program's real outputs and fail on a
deliberately corrupted copy: a check that cannot fail proves nothing.
The series_record job runs once (about 5 s); the
euler_sweep check runs on synthetic points, since its job takes half a
minute.
"""

import json
import os
import shutil

import numpy as np
import pytest

from run import Reps, import_library

import_library()

import checks  # noqa: E402
import workloads  # noqa: E402
from mflangevin import odes  # noqa: E402

SEED = 3


def _run_job(cls, tmp_path_factory):
    rundir = str(tmp_path_factory.mktemp(cls.name))
    wl = cls(SEED, rundir)
    os.makedirs(wl.outdir)
    wl.setup()
    wl.job()
    return wl


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    return _run_job(workloads.SeriesRecord, tmp_path_factory)


@pytest.fixture
def series_copy(series, tmp_path):
    """The series_record outputs in a scratch directory we may corrupt."""
    shutil.copytree(series.outdir, tmp_path / "job")
    wl = workloads.SeriesRecord(SEED, str(tmp_path))
    return wl


def _edit_lines(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def test_series_outputs_pass(series):
    assert series.check() == []


def test_series_shuffled_history_row_fails(series_copy):
    def swap(lines):
        lines[3], lines[4] = lines[4], lines[3]
        return lines
    _edit_lines(os.path.join(series_copy.outdir, "history.csv"), swap)
    assert series_copy.check()


def test_series_truncated_history_fails(series_copy):
    _edit_lines(os.path.join(series_copy.outdir, "history.csv"),
                lambda lines: lines[:-1])
    assert series_copy.check()


def test_series_truncated_cloud_csv_fails(series_copy):
    _edit_lines(os.path.join(series_copy.outdir, "final_cloud.csv"),
                lambda lines: lines[:-1])
    assert series_copy.check()


def test_series_lossy_cloud_value_fails(series_copy):
    def shorten(lines):
        i, l, c, v = lines[5].split(",")
        lines[5] = f"{i},{l},{c},{float(v):.8g}"
        return lines
    _edit_lines(os.path.join(series_copy.outdir, "final_cloud.csv"), shorten)
    assert any("differs from the cloud" in f for f in series_copy.check())


def test_series_wrong_entropy_term_fails(series_copy):
    def bump(lines):
        row = lines[-1].split(",")
        row[3] = repr(float(row[3]) * (1 + 1e-6))
        lines[-1] = ",".join(row)
        return lines
    _edit_lines(os.path.join(series_copy.outdir, "history.csv"), bump)
    assert any("Jsigma" in f for f in series_copy.check())


def test_series_moved_particle_fails(series_copy):
    """A cloud that is not the one the history describes."""
    def move(lines):
        i, l, c, v = lines[1].split(",")
        lines[1] = f"{i},{l},{c},{float(v) + 1e-3!r}"
        return lines
    _edit_lines(os.path.join(series_copy.outdir, "final_cloud.csv"), move)
    fails = series_copy.check()
    assert any("second_moment" in f for f in fails)


def test_series_perturbed_drift_fails(series_copy, monkeypatch):
    true_drift = odes.mean_field_drift
    monkeypatch.setattr(odes, "mean_field_drift",
                        lambda *a: true_drift(*a) * (1 + 1e-4))
    fails = series_copy.check()
    assert any("gradient at" in f for f in fails)
    assert any("grad_norm" in f for f in fails)


def _euler_outputs(tmp_path, mse, slope=None):
    gammas = [4e-3, 2e-3, 1e-3, 5e-4]
    wl = workloads.EulerSweep(SEED, str(tmp_path))
    os.makedirs(wl.outdir)
    with open(os.path.join(wl.outdir, "euler_points.csv"), "w") as fh:
        fh.write("gamma,mse\n")
        for g, m in zip(gammas, mse):
            fh.write(f"{g!r},{m!r}\n")
    if slope is None:
        slope = float(np.polyfit(np.log(gammas), np.log(mse), 1)[0])
    with open(os.path.join(wl.outdir, "euler_summary.json"), "w") as fh:
        json.dump({"fits": [{"slope": slope}]}, fh)
    return wl


def test_euler_order_one_passes(tmp_path):
    mse = [0.3 * g * g for g in (4e-3, 2e-3, 1e-3, 5e-4)]
    assert _euler_outputs(tmp_path, mse).check() == []


@pytest.mark.parametrize("mse", [
    [0.3 * g for g in (4e-3, 2e-3, 1e-3, 5e-4)],          # order 1/2
    [0.3 * g ** 3 for g in (4e-3, 2e-3, 1e-3, 5e-4)],     # too steep
    [1.0e-6, 2.0e-7, 3.0e-7, 1.0e-8],                      # not monotone
])
def test_euler_wrong_rate_fails(tmp_path, mse):
    assert _euler_outputs(tmp_path, mse).check()


def test_euler_missing_point_fails(tmp_path):
    mse = [0.3 * g * g for g in (4e-3, 2e-3, 1e-3, 5e-4)]
    wl = _euler_outputs(tmp_path, mse)
    _edit_lines(os.path.join(wl.outdir, "euler_points.csv"),
                lambda lines: lines[:-1])
    assert wl.check()


def test_euler_summary_disagreeing_with_points_fails(tmp_path):
    mse = [0.3 * g * g for g in (4e-3, 2e-3, 1e-3, 5e-4)]
    assert _euler_outputs(tmp_path, mse, slope=2.1).check()


def test_unparseable_output_is_a_failed_check(tmp_path):
    mse = [0.3 * g * g for g in (4e-3, 2e-3, 1e-3, 5e-4)]
    wl = _euler_outputs(tmp_path, mse)
    with open(os.path.join(wl.outdir, "euler_points.csv"), "w") as fh:
        fh.write("gamma,mse\n0.004,not-a-number\n")
    reps = Reps(wl)
    reps.times.append(1.0)
    reps.check()
    assert reps.failures


def test_digest_covers_csv_and_dat_but_not_json(tmp_path):
    (tmp_path / "a.csv").write_text("1,2\n")
    (tmp_path / "b.dat").write_text("1 2\n")
    (tmp_path / "s_summary.json").write_text('{"wall_clock_seconds": 1}\n')
    before = checks.digest(tmp_path)
    (tmp_path / "s_summary.json").write_text('{"wall_clock_seconds": 2}\n')
    assert checks.digest(tmp_path) == before
    (tmp_path / "b.dat").write_text("1 3\n")
    assert checks.digest(tmp_path) != before
