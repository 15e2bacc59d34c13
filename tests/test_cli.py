"""End-to-end CLI runs against temporary directories."""

import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from lateralvdw import (
    TwoAtomSystem,
    lateral_force_closed_form,
    lateral_force_shape,
    resonant_forces,
)
from lateralvdw import cli
from lateralvdw.cli import main
from lateralvdw.dynamics import DrivingParams, lateral_velocity, steady_state_population
from lateralvdw.validation import IdentityCheck


def read_table(path):
    meta = {}
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    data_lines = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif line:
            data_lines.append(line)
    rows = list(csv.reader(data_lines))
    header, body = rows[0], rows[1:]
    return meta, header, body


def column(header, body, name):
    idx = header.index(name)
    return np.array([float(row[idx]) for row in body])


def test_force_curve_default_peak_location(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["force-curve", "--no-timestamp"]) == 0
    meta, header, body = read_table(tmp_path / "force_curve.csv")
    assert meta["verb"] == "force-curve"
    r = column(header, body, "r")
    f_x = column(header, body, "F_x")
    # First local maximum with positive lateral force.
    peak_r = None
    for i in range(1, len(r) - 1):
        if f_x[i] > 0.0 and f_x[i] >= f_x[i - 1] and f_x[i] >= f_x[i + 1]:
            peak_r = r[i]
            break
    assert peak_r is not None
    assert abs(peak_r - 632e-9) <= 10e-9


def test_force_curve_single_row_equals_library(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["force-curve", "--points", "1", "--r-min", "4e-7", "--no-timestamp"]) == 0
    _, header, body = read_table(tmp_path / "force_curve.csv")
    assert len(body) == 1
    system = TwoAtomSystem.cs_rb(4e-7)
    on_a, on_b = resonant_forces(system, 1.0)
    assert column(header, body, "r")[0] == 4e-7
    assert column(header, body, "xi")[0] == pytest.approx(system.xi, rel=1e-15)
    assert column(header, body, "F_x")[0] == pytest.approx(
        lateral_force_closed_form(system, 1.0), rel=1e-15
    )
    assert column(header, body, "F_z_A")[0] == pytest.approx(on_a.force[2], rel=1e-15)
    assert column(header, body, "F_z_B")[0] == pytest.approx(on_b.force[2], rel=1e-15)
    assert column(header, body, "F_x_shape")[0] == pytest.approx(
        on_a.shape_factor[0], rel=1e-15
    )


def test_force_curve_rows_match_per_point_library_calls(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["force-curve", "--log-scale", "--r-min", "1.4e-10", "--r-max", "8.1e-6",
            "--points", "120", "--handedness", "left", "--p1", "0.3", "--no-timestamp"]
    assert main(args) == 0
    _, _, body = read_table(tmp_path / "force_curve.csv")
    eps = np.finfo(float).eps
    for row in body:
        r, xi, f_x, f_z_a, f_z_b, shape = (float(text) for text in row)
        system = TwoAtomSystem.cs_rb(r, handedness="left")
        on_a, on_b = resonant_forces(system, 0.3)
        assert xi == system.xi
        assert f_x == pytest.approx(lateral_force_closed_form(system, 0.3), rel=1e-15)
        assert f_z_a == pytest.approx(on_a.force[2], rel=1e-13)
        assert f_z_b == pytest.approx(on_b.force[2], rel=1e-13)
        # The gradient-route shape cancels O(xi) terms down to O(xi^5), so
        # its rounding grows like eps / xi^4 relative to the shape's scale:
        # the smaller of its envelope and its small-xi size (2/5) xi^5.
        size = min(math.hypot(6.0 * xi * (3.0 - xi * xi), 9.0 - 15.0 * xi * xi + xi**4),
                   0.4 * xi**5)
        assert abs(shape - on_a.shape_factor[0]) <= (1e-13 + 500.0 * eps / xi**4) * size


def test_csv_and_json_carry_identical_numbers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["force-curve", "--points", "20", "--no-timestamp"]
    assert main(args + ["--format", "csv", "--output", "out.csv"]) == 0
    assert main(args + ["--format", "json", "--output", "out.json"]) == 0
    _, header, body = read_table(tmp_path / "out.csv")
    payload = json.loads((tmp_path / "out.json").read_text())
    assert len(payload["rows"]) == len(body)
    for json_row, csv_row in zip(payload["rows"], body):
        for name, text in zip(header, csv_row):
            assert json_row[name] == float(text)


def test_output_is_byte_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["velocity", "--points", "30", "--no-timestamp"]
    assert main(args + ["--output", "a.csv"]) == 0
    assert main(args + ["--output", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_emission_spectrum_columns_and_symmetry(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["emission-spectrum", "--phi-points", "32", "--no-timestamp"]) == 0
    meta, header, body = read_table(tmp_path / "emission_spectrum.csv")
    assert header == ["phi", "R", "R_normalized"]
    for key in ("f1", "f2", "f3", "xi"):
        assert key in meta
    rates = column(header, body, "R")
    normalized = column(header, body, "R_normalized")
    assert normalized.max() == pytest.approx(1.0, rel=1e-12)
    # phi -> -phi symmetry on the equispaced grid (index n-k mirrors k).
    n = len(rates)
    for k in range(1, n // 2):
        assert rates[k] == pytest.approx(rates[n - k], rel=1e-12)
    # Stronger emission opposite the lateral push at the default separation.
    assert rates[n // 2] > rates[0]


def test_emission_spectrum_symmetric_at_force_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wavelength = 852e-9
    xi_zero = brentq(lateral_force_shape, 3.7, 4.6)
    r_zero = xi_zero * wavelength / (2.0 * math.pi)
    assert main(
        ["emission-spectrum", "--r", repr(r_zero), "--phi-points", "16", "--no-timestamp"]
    ) == 0
    _, header, body = read_table(tmp_path / "emission_spectrum.csv")
    rates = column(header, body, "R")
    assert rates[0] == pytest.approx(rates[8], rel=1e-9)


def test_velocity_scales_with_duration(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base_args = ["velocity", "--points", "5", "--no-timestamp"]
    assert main(base_args + ["--output", "v1.csv"]) == 0
    assert main(base_args + ["--delta-t", "0.02", "--output", "v2.csv"]) == 0
    _, header, body1 = read_table(tmp_path / "v1.csv")
    _, _, body2 = read_table(tmp_path / "v2.csv")
    v1 = column(header, body1, "v")
    v2 = column(header, body2, "v")
    assert np.allclose(v2, 2.0 * v1, rtol=1e-12)


def test_velocity_flips_with_handedness(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base_args = ["velocity", "--points", "5", "--no-timestamp"]
    assert main(base_args + ["--output", "r.csv"]) == 0
    assert main(base_args + ["--handedness", "left", "--output", "l.csv"]) == 0
    _, header, body_r = read_table(tmp_path / "r.csv")
    _, _, body_l = read_table(tmp_path / "l.csv")
    assert np.allclose(
        column(header, body_l, "v"), -column(header, body_r, "v"), rtol=1e-12
    )


def test_velocity_default_matches_reference_magnitude(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["velocity", "--points", "1", "--r-min", "1e-7", "--no-timestamp"]) == 0
    _, header, body = read_table(tmp_path / "velocity.csv")
    speed = abs(column(header, body, "v")[0])
    assert 600e-9 <= speed <= 1000e-9


def test_velocity_column_is_lateral_velocity_of_the_same_drive(tmp_path, monkeypatch):
    # One velocity formula: the CLI's v column and dynamics.lateral_velocity
    # over the same separations and population agree bit for bit.  The drive
    # Omega = 2e8, Delta = 1e9 gives p1 = 0.01 exactly.
    monkeypatch.chdir(tmp_path)
    args = ["velocity", "--points", "7", "--p1", "0.01", "--delta-t", "0.02", "--no-timestamp"]
    assert main(args) == 0
    _, header, body = read_table(tmp_path / "velocity.csv")
    drive = DrivingParams(rabi=2e8, detuning=1e9, duration=0.02)
    assert steady_state_population(drive) == 0.01
    expected = lateral_velocity(TwoAtomSystem.cs_rb(column(header, body, "r")), drive)
    assert np.array_equal(column(header, body, "v"), expected)


def test_validate_passes_and_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--no-timestamp"]) == 0
    meta, header, body = read_table(tmp_path / "validation_report.csv")
    assert meta["all_passed"] == "true"
    assert header == ["name", "passed", "achieved_error", "tolerance", "detail"]
    assert len(body) == 5
    passed_idx = header.index("passed")
    tolerance_idx = header.index("tolerance")
    for row in body:
        assert row[passed_idx] == "true"
        assert float(row[tolerance_idx]) > 0.0
    out = capsys.readouterr().out
    assert out.count("pass") == 5


def test_validate_perturbed_fails_with_exit_one(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--f3-scale", "1.000001", "--no-timestamp"]) == 1
    meta, header, body = read_table(tmp_path / "validation_report.csv")
    assert meta["all_passed"] == "false"
    name_idx = header.index("name")
    passed_idx = header.index("passed")
    failed = {row[name_idx] for row in body if row[passed_idx] == "false"}
    assert failed == {"bracket-identity", "recoil-force-identity"}


def test_config_file_applies_and_flags_win(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep\npoints = 3\nr_min = 5e-7\nr_max = 7e-7\ntimestamp = false\n"
    )
    assert main(["force-curve", "--config", "run.cfg"]) == 0
    _, header, body = read_table(tmp_path / "force_curve.csv")
    assert len(body) == 3
    assert column(header, body, "r")[0] == 5e-7
    assert main(["force-curve", "--config", "run.cfg", "--points", "2"]) == 0
    _, _, body = read_table(tmp_path / "force_curve.csv")
    assert len(body) == 2


def test_readme_key_list_matches_run_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Recognised keys:", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"`(\w+)`", paragraph)
    assert documented == [field.name for field in fields(cli.RunConfig)]


def test_config_errors_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_setting = 1\n")
    assert main(["force-curve", "--config", "bad.cfg"]) == 2
    bad.write_text("points = many\n")
    assert main(["force-curve", "--config", "bad.cfg"]) == 2
    bad.write_text("points 3\n")
    assert main(["force-curve", "--config", "bad.cfg"]) == 2
    assert main(["force-curve", "--config", "missing.cfg"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_sweeps_exit_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["force-curve", "--r-min", "-1e-7"]) == 2
    assert main(["force-curve", "--r-min", "2e-6", "--r-max", "1e-6"]) == 2
    assert main(["force-curve", "--points", "0"]) == 2
    assert main(["emission-spectrum", "--phi-points", "4"]) == 2
    assert main(["velocity", "--p1", "1.5"]) == 2
    assert main(["velocity", "--delta-t", "0"]) == 2


@pytest.mark.parametrize(
    "args, config_text",
    [
        (["velocity", "--delta-t", "nan"], None),
        (["velocity", "--delta-t", "inf"], None),
        (["force-curve", "--r-max", "inf"], None),
        (["velocity"], "alpha_b = 0\n"),
        (["validate"], "alpha_b = 0\n"),
        (["emission-spectrum"], "wavelength = nan\n"),
        # r**7 underflows: the closed-form scale would be inf, the rows nan/inf.
        (["velocity", "--r-min", "1e-60", "--r-max", "1e-59", "--points", "2"], None),
        (["force-curve", "--r-min", "1e-60", "--r-max", "1e-59", "--points", "2"], None),
        # d^2 overflows.
        (["force-curve"], "dipole_moment = 1e200\n"),
        # xi ~ 6e63 lies above the gradient route's xi^5 ceiling (force-curve,
        # validate); omega^4 overflows in the resonant coupling (velocity).
        (["force-curve"], "wavelength = 1e-70\n"),
        (["validate"], "wavelength = 1e-70\n"),
        (["velocity"], "wavelength = 1e-70\nrabi = 2e7\ndetuning = 1e9\n"),
        # (c/omega)^2 overflows: omega = 1.05e-299 lies below the 2.2e-146 floor.
        (["force-curve"], "wavelength = 1.7976931348623157e308\n"),
        (["velocity"], "wavelength = 1.7976931348623157e308\n"),
        (["validate"], "wavelength = 1.7976931348623157e308\n"),
        (["emission-spectrum"], "wavelength = 1.7976931348623157e308\n"),
        # A relative tolerance below eps: no float64 sum can meet it.
        (["validate"], "quad_rel_tol = 1e-140\n"),
        (["validate"], "quad_rel_tol = 3e-17\n"),
        # f3 * f3_scale overflows (nan bracket error) or the scaled force
        # underflows to zero (infinite relative error).
        (["validate", "--f3-scale", "1e308"], None),
        (["validate", "--f3-scale", "5e-324"], None),
        # The identity quadrature stalls (xi ~ 2e22) or turns non-finite (xi ~ 4e-106).
        (["validate"], "wavelength = 1.8e-28\n"),
        (["validate"], "wavelength = 1e100\n"),
        # xi ~ 6e-157 lies below greens._XI_FLOOR: the gradient route's
        # coefficients and the assisted rate's leg overflow there.
        (["force-curve"], "wavelength = 1e150\n"),
        (["velocity", "--points", "3"], "wavelength = 1e150\nrabi = 2e7\ndetuning = 1e9\n"),
        # Finite shapes (xi ~ 6e55), but scale times shape overflows at r = 1e-20 m.
        (["force-curve"], "r_min = 1e-20\nr_max = 2e-20\npoints = 2\nwavelength = 1e-75\n"),
    ],
)
def test_non_finite_and_out_of_range_settings_exit_two(
    tmp_path, monkeypatch, capsys, args, config_text
):
    monkeypatch.chdir(tmp_path)
    if config_text is not None:
        (tmp_path / "run.cfg").write_text(config_text)
        args = args + ["--config", "run.cfg"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--output", "out.csv"]) == 2
    assert not (tmp_path / "out.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("wavelength", ["1e150", "1e-68"])
def test_force_curve_names_the_xi_range_of_the_gradient_route(
    tmp_path, monkeypatch, capsys, wavelength
):
    # xi below greens._XI_FLOOR (2.9e-154; here about 6e-157) or above
    # forces._SHAPE_XI_HIGH (3.4e61; here from about 6e61) is refused by the
    # range rule, before any cell is computed.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"wavelength = {wavelength}\n")
    assert main(["force-curve", "--config", "run.cfg"]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("error: xi must be finite and positive in the supported range (")


@pytest.mark.parametrize(
    "config_text",
    [
        "wavelength = 1e75\n",
        "wavelength = 1e80\n",
        "wavelength = 1e100\n",
        "r_min = 1e-9\nr_max = 1e-8\npoints = 3\nwavelength = 2e70\n",
    ],
)
def test_force_curve_is_finite_down_to_the_near_field(tmp_path, monkeypatch, config_text):
    # The SI gradient route overflowed here, to nan F_z cells or a range
    # error that held for one dipole at one separation; in units of r the
    # table is finite and F_z_B = -F_z_A, the near-field limit.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(config_text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["force-curve", "--config", "run.cfg", "--output", "out.csv"]) == 0
    _, header, body = read_table(tmp_path / "out.csv")
    assert np.isfinite(np.array(body, dtype=float)).all()
    f_z_a, f_z_b = column(header, body, "F_z_A"), column(header, body, "F_z_B")
    assert np.all(np.abs(f_z_b + f_z_a) <= 1e-12 * np.abs(f_z_a))


def test_driven_velocity_just_above_the_xi_floor_warns_of_nothing(tmp_path, monkeypatch, capsys):
    # xi is about 3e-154.  The decay rate that the drive is checked against
    # once overflowed here and raised a false weak-excitation warning.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "wavelength = 2e145\nrabi = 2e7\ndetuning = 1e9\nr_min = 1e-9\nr_max = 2e-9\npoints = 2\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["velocity", "--config", "run.cfg", "--output", "out.csv"]) == 0
    assert capsys.readouterr().err == ""
    _, _, body = read_table(tmp_path / "out.csv")
    assert len(body) == 2 and np.isfinite(np.array(body, dtype=float)).all()


def test_validate_checks_the_configured_system(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    received = []

    def fake_checks(system, config=None, f3_scale=1.0):
        received.append(system)
        return [IdentityCheck("stub", 0.0, 1.0, True)]

    monkeypatch.setattr(cli, "run_identity_checks", fake_checks)
    (tmp_path / "run.cfg").write_text("alpha_b = 4e-38\nr = 5e-7\n")
    args = ["validate", "--handedness", "left", "--config", "run.cfg", "--no-timestamp"]
    assert main(args) == 0
    (system,) = received
    assert system.circular_parameters()[1] == -1.0
    assert system.separation == 5e-7
    assert system.alpha_b == 4e-38
    meta, _, _ = read_table(tmp_path / "validation_report.csv")
    assert meta["handedness"] == "left"
    assert meta["r"] == "5e-07"


def test_validate_overrides_only_the_configured_quadrature_fields(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    received = []

    def fake_checks(system, config=None, f3_scale=1.0):
        received.append(config)
        return [IdentityCheck("stub", 0.0, 1.0, True)]

    monkeypatch.setattr(cli, "run_identity_checks", fake_checks)
    (tmp_path / "run.cfg").write_text("quad_abs_tol = 1e-25\n")
    assert main(["validate", "--no-timestamp"]) == 0
    assert main(["validate", "--config", "run.cfg", "--no-timestamp"]) == 0
    default, overridden = received
    assert (default.rel_tol, default.abs_tol) == (1e-10, 1e-30)
    assert (overridden.rel_tol, overridden.abs_tol) == (1e-10, 1e-25)


@pytest.mark.parametrize("ratio, p1", [(0.3, 0.25 * 0.3 * 0.3), (3.0, 1.0)])
def test_rabi_over_detuning_sets_weak_drive_population(tmp_path, monkeypatch, ratio, p1):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"rabi_over_detuning = {ratio!r}\n")
    args = ["velocity", "--points", "1", "--config", "run.cfg", "--no-timestamp"]
    assert main(args) == 0
    meta, _, _ = read_table(tmp_path / "velocity.csv")
    assert float(meta["p1"]) == p1


def test_weak_drive_regime_warning_goes_to_stderr(tmp_path, monkeypatch, capsys):
    # Omega = 1e7 /s is below 5 Gamma_total (~1.7e8 /s) for Cs near Rb.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("rabi = 1e7\ndetuning = 1e10\n")
    base = ["velocity", "--points", "5", "--no-timestamp"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(base + ["--config", "run.cfg", "--output", "drive.csv"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ")
    assert "weak-excitation regime" in err[0]
    p1 = steady_state_population(DrivingParams(rabi=1e7, detuning=1e10, duration=1e-2))
    assert main(base + ["--p1", repr(p1), "--output", "plain.csv"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "drive.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_strong_drive_ratio_warns_without_a_decay_rate(tmp_path, monkeypatch, capsys):
    # rabi_over_detuning = 0.5 gives p1 = 0.0625 outside Omega << |Delta|;
    # the CLI has no decay rate for this route, and the upper bound needs none.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("rabi_over_detuning = 0.5\n")
    base = ["velocity", "--points", "5", "--no-timestamp"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(base + ["--config", "run.cfg", "--output", "drive.csv"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ")
    assert "weak-excitation regime" in err[0]
    assert main(base + ["--p1", "0.0625", "--output", "plain.csv"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "drive.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_clamped_population_warning_goes_to_stderr(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("rabi_over_detuning = 3.0\n")
    base = ["force-curve", "--points", "5", "--no-timestamp"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(base + ["--config", "run.cfg", "--output", "drive.csv"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ")
    assert "clamped to 1" in err[0]
    assert main(base + ["--p1", "1.0", "--output", "plain.csv"]) == 0
    assert (tmp_path / "drive.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


@pytest.mark.parametrize("verb", ["force-curve", "velocity"])
@pytest.mark.parametrize(
    "config_text, p1, message",
    [
        # Omega^2 overflows; 4 Delta^2 underflows; both underflow.
        ("rabi_over_detuning = 1e200\n", "1.0", "clamped to 1"),
        ("rabi = 1e-28\ndetuning = 1e-300\n", "1.0", "clamped to 1"),
        ("rabi = 1e-300\ndetuning = 1e-300\n", "0.25", "weak-excitation regime"),
    ],
)
def test_extreme_drives_reach_the_clamp_rule(tmp_path, monkeypatch, capsys, verb, config_text,
                                             p1, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(config_text)
    args = [verb, "--points", "5", "--config", "run.cfg", "--no-timestamp", "--output", "out.csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ") and message in err[0]
    assert "inf" not in err[0] and "nan" not in err[0]
    meta, _, _ = read_table(tmp_path / "out.csv")
    assert meta["p1"] == p1


def test_cached_parser_gives_the_bytes_of_fresh_ones(tmp_path, monkeypatch):
    # A warm main() reuses one parser; a flag of one call must not leak
    # into the next.
    monkeypatch.chdir(tmp_path)
    runs = (["force-curve", "--log-scale"], ["force-curve"])
    for i, args in enumerate(runs):
        cli._build_parser.cache_clear()
        assert main(args + ["--no-timestamp", "--output", f"fresh{i}.csv"]) == 0
    for i, args in enumerate(runs):
        assert main(args + ["--no-timestamp", "--output", f"warm{i}.csv"]) == 0
    for i in range(len(runs)):
        assert (tmp_path / f"fresh{i}.csv").read_bytes() == (tmp_path / f"warm{i}.csv").read_bytes()
    assert (tmp_path / "warm0.csv").read_bytes() != (tmp_path / "warm1.csv").read_bytes()


def test_force_curve_resolves_picometre_separations(tmp_path, monkeypatch):
    # At r = 1 pm the lateral shape is ~1e-25; the closed form's trigonometric
    # cancellation used to round it to 0.
    monkeypatch.chdir(tmp_path)
    args = ["force-curve", "--r-min", "1e-12", "--r-max", "1e-9", "--log-scale",
            "--points", "7", "--no-timestamp"]
    assert main(args) == 0
    _, header, body = read_table(tmp_path / "force_curve.csv")
    r, f_x = column(header, body, "r"), column(header, body, "F_x")
    expected = lateral_force_closed_form(TwoAtomSystem.cs_rb(r), 1.0)
    assert np.all(f_x < 0.0)
    assert np.array_equal(f_x, expected)


def test_left_handed_validate_passes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--handedness", "left", "--no-timestamp"]) == 0


def render(meta, columns, rows, fmt):
    """The text of one table: the byte chunks that _render streams, joined."""
    return b"".join(cli._render(meta, columns, rows, fmt)).decode("utf-8")


# Frozen renderer output: 17-digit floats, a negative value at a zero
# crossing, signed zero, subnormal and integer-valued cells, and metadata
# without the generated-at line that --no-timestamp drops.
GOLDEN_META = {
    "tool": "lateralvdw",
    "version": "0.1.0",
    "verb": "velocity",
    "handedness": "left",
    "dipole_moment": 1.9e-29,
    "p1": np.float64(0.1) * 3.0,
    "points": 3,
    "log_scale": True,
}
GOLDEN_COLUMNS = ["r", "F_x", "v"]
GOLDEN_TABLE = (
    [1e-07, 6.32e-07, 0.1 + 0.2],
    [2.0000000000000006e-21, -4.440892098500626e-16, -0.0],
    [1.0 / 3.0, 1e22, 5e-324],
)
GOLDEN_CSV = (
    "# dipole_moment = 1.9e-29\n"
    "# handedness = left\n"
    "# log_scale = true\n"
    "# p1 = 0.30000000000000004\n"
    "# points = 3\n"
    "# tool = lateralvdw\n"
    "# verb = velocity\n"
    "# version = 0.1.0\n"
    "r,F_x,v\n"
    "1e-07,2.0000000000000006e-21,0.3333333333333333\n"
    "6.32e-07,-4.440892098500626e-16,1e+22\n"
    "0.30000000000000004,-0.0,5e-324\n"
)
GOLDEN_JSON = """{
  "meta": {
    "dipole_moment": 1.9e-29,
    "handedness": "left",
    "log_scale": true,
    "p1": 0.30000000000000004,
    "points": 3,
    "tool": "lateralvdw",
    "verb": "velocity",
    "version": "0.1.0"
  },
  "rows": [
    {
      "F_x": 2.0000000000000006e-21,
      "r": 1e-07,
      "v": 0.3333333333333333
    },
    {
      "F_x": -4.440892098500626e-16,
      "r": 6.32e-07,
      "v": 1e+22
    },
    {
      "F_x": -0.0,
      "r": 0.30000000000000004,
      "v": 5e-324
    }
  ]
}
"""
GOLDEN_VALIDATE_CSV = (
    "# all_passed = false\n"
    "# verb = validate\n"
    "name,passed,achieved_error,tolerance,detail\n"
    "bracket-identity,true,0.0,1e-12,f3 vs shape, on a grid\n"
    "x,false,2.5e-06,1e-08,\n"
)


def test_renderer_matches_frozen_bytes():
    assert "generated" not in cli._base_meta(cli.RunConfig(timestamp=False), "velocity")
    rows = np.column_stack(GOLDEN_TABLE).tolist()
    assert render(GOLDEN_META, GOLDEN_COLUMNS, rows, "csv") == GOLDEN_CSV
    assert render(GOLDEN_META, GOLDEN_COLUMNS, rows, "json") == GOLDEN_JSON
    checks = [
        ["bracket-identity", True, 0.0, 1e-12, "f3 vs shape, on a grid"],
        ["x", False, 2.5e-06, 1e-08, ""],
    ]
    columns = ["name", "passed", "achieved_error", "tolerance", "detail"]
    meta = {"verb": "validate", "all_passed": False}
    rendered = render(meta, columns, checks, "csv")
    assert rendered == GOLDEN_VALIDATE_CSV


def test_json_rows_are_the_bytes_of_json_dumps():
    # The row template must write what the encoder would: sorted keys,
    # escaped strings, booleans, numpy scalars, non-finite floats, no rows.
    columns = ["name", "passed", "achieved_error", "tolerance", "detail"]
    tables = [
        [
            ["bracket-identity", True, 0.0, 1e-12, 'say "f3", \\ \u00e9'],
            ["x", False, float("nan"), float("-inf"), ""],
            ["y", None, np.float64(2.5e-06), 3, "tab\there"],
        ],
        [],
    ]
    meta = {"verb": "validate", "all_passed": np.bool_(False), "points": np.int64(3)}
    for rows in tables:
        expected = json.dumps(
            {
                "meta": {key: cli._pyval(value) for key, value in meta.items()},
                "rows": [dict(zip(columns, row)) for row in rows],
            },
            indent=2,
            sort_keys=True,
        )
        assert render(meta, columns, rows, "json") == expected + "\n"


AWKWARD_CELLS = [
    -0.0, 5e-324, 1e16, 9.999999999999999e15, 1e-4, 9.999e-05, 0.1 + 0.2,
    # orjson writes [1e-5, 1e-4) positionally and one-digit exponents unpadded.
    3.5e-05, -3.5e-05, 1e-05, math.nextafter(1e-05, 0.0), 10.00001,
    2e-05, 1e-06, 2.5e-07, -7e-08, 1.25e-09, -1e16, 1.5e300,
    # The edges of the one-digit exponents and of the three-digit ones:
    # 9.999999999999999e-10 and 9.999999999999999e+99 below them.
    1e-09, -1e-09, math.nextafter(1e-09, 0.0), -math.nextafter(1e-09, 0.0),
    1e100, -1e100, math.nextafter(1e100, 0.0), -math.nextafter(1e100, 0.0),
]


def _parity_tables():
    rng = np.random.default_rng(20181)
    wide = rng.standard_normal((5000, 6)) * 10.0 ** rng.integers(-300, 301, (5000, 6))
    wide.flat[: len(AWKWARD_CELLS)] = AWKWARD_CELLS
    yield wide
    yield np.array([AWKWARD_CELLS])
    yield np.array(AWKWARD_CELLS)[:, None]


def test_float_array_tables_render_as_json_dumps_and_repr_rows():
    # The orjson-based writer against the encoder and against a per-row join
    # of repr, on awkward cells (signed zero, the smallest subnormal, both
    # sides of repr's switch to exponent notation at 1e16 and 1e-4, orjson's
    # positional range down to 1e-5, one-digit exponents down to 1e-9,
    # three-digit ones from 1e100, 0.1 + 0.2) and exponents over +-300.  Lines are compared as lists so that a failure
    # reports the first differing line.
    names = ["r", "F_x", "v", "xi", "F_z_A", "phi", "R"]
    names += [f"c{i}" for i in range(len(AWKWARD_CELLS))]
    meta = {"verb": "parity", "points": 3}
    for table in _parity_tables():
        columns = names[: table.shape[1]]
        expected_json = json.dumps(
            {"meta": meta, "rows": [dict(zip(columns, row)) for row in table.tolist()]},
            indent=2,
            sort_keys=True,
        )
        rendered = render(meta, columns, table, "json")
        assert rendered.split("\n") == (expected_json + "\n").split("\n")
        expected_csv = [f"# {key} = {meta[key]}" for key in sorted(meta)]
        expected_csv.append(",".join(columns))
        expected_csv.extend(",".join(map(repr, row)) for row in table.tolist())
        rendered = render(meta, columns, table, "csv")
        assert rendered.split("\n") == expected_csv + [""]


# Every prefix of two or more names is out of sorted order, so the JSON
# rows reorder their cells.
PROPERTY_COLUMNS = ["v", "r", "F_x", "xi", "R", "phi", "F_z_A"]
# Finite floats (subnormals included) mixed with cells of either sign from
# [1e-5, 1e-4), the range whose text is spliced in from repr.
_TABLE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(
        math.copysign, st.floats(1e-5, 1e-4, exclude_max=True), st.sampled_from([1.0, -1.0])
    ),
)
_TABLES = st.integers(1, 7).flatmap(
    lambda k: st.lists(st.lists(_TABLE_CELLS, min_size=k, max_size=k), min_size=1, max_size=40)
)


@given(_TABLES)
@example([[3.5e-05], [1e-20], [-1.5e-05]])  # one column: every marker is a row break
@example([[3.5e-05, 1e16, 5e-324], [0.5, -2e-05, 7e-08], [1e-07, 0.0, 9.999e-05]])
def test_float_tables_render_as_json_dumps_and_repr_rows(table):
    columns = PROPERTY_COLUMNS[: len(table[0])]
    meta = {"verb": "property"}
    expected_json = json.dumps(
        {"meta": meta, "rows": [dict(zip(columns, row)) for row in table]},
        indent=2,
        sort_keys=True,
    )
    assert render(meta, columns, np.array(table), "json") == expected_json + "\n"
    expected_csv = ["# verb = property", ",".join(columns)]
    expected_csv.extend(",".join(map(repr, row)) for row in table)
    assert render(meta, columns, np.array(table), "csv").split("\n") == expected_csv + [""]


def test_numeric_tables_have_one_marker_byte_per_column():
    # JSON markers run from 0x80 to 0xff: 128 columns fit, a 129th would
    # wrap into ASCII, so it is refused, in either format.
    table = np.arange(256.0).reshape(2, 128) * 1e-3
    columns = [f"c{i}" for i in range(128)]
    rendered = render({"verb": "wide"}, columns, table, "csv")
    assert rendered.split("\n")[-3:] == [",".join(map(repr, row)) for row in table.tolist()] + [""]
    rows = json.loads(render({"verb": "wide"}, columns, table, "json"))["rows"]
    assert rows == [dict(zip(columns, row)) for row in table.tolist()]
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match="at most 128 columns"):
            render({"verb": "wide"}, columns + ["c128"], np.ones((2, 129)), fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_numeric_tables_repr_only_the_positional_cells(monkeypatch, fmt):
    # No cell goes through repr: the cells in [1e-5, 1e-4), which orjson
    # writes as 0.0000..., are respelled on the bytes like the exponents.
    table = np.array([[3.5e-05, 1e-20, 0.5], [1e-4, -1.5e-05, 7e-08], [1e-05, 9.999e-05, -2e-05]])
    calls = []

    def counted_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(cli, "repr", counted_repr, raising=False)
    rendered = render({"verb": "probe"}, ["a", "b", "c"], table, fmt)
    assert calls == []
    for text in ("3.5e-05", "-1.5e-05", "7e-08", "1e-05", "9.999e-05", "-2e-05", "0.0001"):
        assert text in rendered


# Cells of the awkward kinds, positional ones between them, for the rows at
# the edges of the streamed blocks.
_EDGE_CELLS = [
    cell for pair in zip(
        [3.5e-05, -1.5e-05, 9.999e-05, 1e-05, -2e-05, math.nextafter(1e-4, 0.0), 1.25e-05,
         4.2e-05, -6.25e-05, 1.000001e-05, -8e-05, 5.5e-05, -3e-05, 7.77e-05, -9.5e-05],
        [-0.0, 5e-324, 1e16, 1e-06, -7e-08, 0.1 + 0.2, -1e16,
         1e-09, -1e-09, math.nextafter(1e-09, 0.0), -math.nextafter(1e-09, 0.0),
         1e100, -1e100, math.nextafter(1e100, 0.0), -math.nextafter(1e100, 0.0)],
    ) for cell in pair
]


@pytest.mark.parametrize("rows, k", [(2047, 3), (2048, 3), (2049, 6), (4097, 3), (4097, 1)])
def test_tables_across_block_boundaries_render_as_json_dumps_and_repr_rows(rows, k):
    # The first and last row of every block hold positional and awkward
    # cells, so each respelling meets the seams between blocks.
    block = cli._BLOCK_ROWS
    rng = np.random.default_rng(rows + k)
    table = rng.standard_normal((rows, k)) * 10.0 ** rng.integers(-300, 301, (rows, k))
    edges = sorted({i for start in range(0, rows, block)
                    for i in (start, min(start + block, rows) - 1)})
    for n, i in enumerate(edges):
        table[i] = np.roll(_EDGE_CELLS, -n * k)[:k]
    columns = PROPERTY_COLUMNS[:k]
    meta = {"verb": "blocks"}
    expected_json = json.dumps(
        {"meta": meta, "rows": [dict(zip(columns, row)) for row in table.tolist()]},
        indent=2,
        sort_keys=True,
    )
    assert render(meta, columns, table, "json").split("\n") == (expected_json + "\n").split("\n")
    expected_csv = ["# verb = blocks", ",".join(columns)]
    expected_csv.extend(",".join(map(repr, row)) for row in table.tolist())
    assert render(meta, columns, table, "csv").split("\n") == expected_csv + [""]


def test_sweep_size_table_is_streamed_in_blocks(tmp_path, monkeypatch):
    # A warm 16,000-row JSON velocity table: a whole-table text is about
    # 1.5 MB per copy, and the one-string writer kept several alive (7.7 MB
    # peak); one block's bytes are about 0.2 MB.
    monkeypatch.chdir(tmp_path)
    args = ["velocity", "--points", "16000", "--log-scale", "--format", "json", "--no-timestamp"]
    assert main(args) == 0
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failing_block_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch, capsys, fmt):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").write_bytes(b"old table\n")
    float_body, calls = cli._float_body, []

    def second_block_fails(table, separators):
        calls.append(len(table))
        if len(calls) == 2:
            raise OSError("no space left on device")
        return float_body(table, separators)

    monkeypatch.setattr(cli, "_float_body", second_block_fails)
    args = ["velocity", "--points", str(2 * cli._BLOCK_ROWS + 1), "--format", fmt, "--output", "out"]
    assert main(args) == 2
    assert calls == [cli._BLOCK_ROWS] * 2
    assert "no space left on device" in capsys.readouterr().err
    assert (tmp_path / "out").read_bytes() == b"old table\n"
    assert [path.name for path in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
)
def test_tables_get_the_mode_of_a_newly_opened_file(tmp_path, monkeypatch, umask, mode):
    # The temp file behind each table is made 0600; the table gets what
    # open(path, "w") gives a new file, also over an existing 0600 table.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old.csv").write_bytes(b"old table\n")
    os.chmod(tmp_path / "old.csv", 0o600)
    previous = os.umask(umask)
    try:
        with open("plain.txt", "w", encoding="utf-8"):
            pass
        assert main(["velocity", "--points", "3", "--output", "new.csv"]) == 0
        assert main(["velocity", "--points", "3", "--format", "json", "--output", "old.csv"]) == 0
        assert main(["validate", "--output", "report.json", "--format", "json"]) == 0
    finally:
        os.umask(previous)
    for name in ("plain.txt", "new.csv", "old.csv", "report.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name


def test_orjson_loads_with_the_first_table_not_with_the_cli(tmp_path):
    script = (
        "import sys\n"
        "from lateralvdw import cli\n"
        "print('orjson' in sys.modules)\n"
        f"cli.main(['velocity', '--points', '3', '--output', {str(tmp_path / 'v.csv')!r}])\n"
        "print('orjson' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "True")
    assert (tmp_path / "v.csv").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_table_exits_two_without_a_warning_or_a_file(tmp_path, monkeypatch, capsys, fmt):
    # force * delta_t / mass overflows to -inf.  Under warnings-as-errors the
    # overflow must neither raise nor warn, and the table must not be written.
    monkeypatch.chdir(tmp_path)
    args = ["velocity", "--delta-t", "1e308", "--r-min", "1e-12", "--r-max", "1e-11"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--points", "2", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: v is -inf at r = 1e-12; no table written\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
@pytest.mark.parametrize(
    "verb, stage",
    [
        ("velocity", "_sweep"),
        ("emission-spectrum", "emission_spectrum"),
        ("force-curve", "_float_body"),
    ],
)
def test_table_too_large_for_memory_exits_two(tmp_path, monkeypatch, capsys, verb, stage, message):
    # velocity --points 1000000000000 once left main as a numpy
    # _ArrayMemoryError traceback with exit 1.  Each patched stage raises
    # before its grid, spectrum or first block of bytes exists; the last
    # one raises with the temp file open.
    monkeypatch.chdir(tmp_path)

    def too_large(*args):
        raise MemoryError(message) if message else MemoryError

    monkeypatch.setattr(cli, stage, too_large)
    assert main([verb, "--output", "out.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (err,) = captured.err.splitlines()
    assert err == f"error: {message or 'MemoryError'}"
    assert list(tmp_path.iterdir()) == []


# Every float setting; the property draws 1-4 of them at once.
_FLOAT_KEYS = sorted(name for name, parse in cli._FIELD_PARSERS.items() if parse is float)
# Log-uniform magnitudes over the whole double range, 5e-324 to 1.8e308; one
# in four negative, since a negative setting stops at the first rule.
_ANY_DOUBLE = st.builds(
    lambda exponent, sign: sign * 10.0**exponent,
    st.floats(min_value=-323.3, max_value=308.25),
    st.sampled_from([1.0, 1.0, 1.0, -1.0]),
)


def _numeric_cells(path: Path, fmt: str) -> list:
    """Every cell of a written table that reads as a number."""
    if fmt == "json":
        rows = [row.values() for row in json.loads(path.read_text(encoding="utf-8"))["rows"]]
        return [v for row in rows for v in row if type(v) in (float, int)]
    _, _, body = read_table(path)
    numbers = []
    for text in (text for row in body for text in row):
        try:
            numbers.append(float(text))
        except ValueError:
            pass
    return numbers


@settings(derandomize=True, max_examples=300)
@given(
    verb=st.sampled_from(sorted(cli._VERBS)),
    floats=st.dictionaries(st.sampled_from(_FLOAT_KEYS), _ANY_DOUBLE, min_size=1, max_size=4),
    points=st.integers(min_value=1, max_value=64),
    phi_points=st.integers(min_value=8, max_value=64),
    log_scale=st.booleans(),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_every_config_exits_zero_one_or_two_by_the_contract(
    verb, floats, points, phi_points, log_scale, fmt
):
    # Exit 0 leaves a table whose numbers are all finite; exit 1 comes only
    # from validate, with its table written; exit 2 prints exactly one
    # error line and leaves no table and no temp file; no exception and no
    # warning leaves main.
    settings_text = dict(floats, points=points, phi_points=phi_points, log_scale=log_scale)
    with tempfile.TemporaryDirectory() as scratch:
        config, out = Path(scratch) / "run.cfg", Path(scratch) / "out"
        config.write_text("".join(f"{k} = {v!r}\n" for k, v in settings_text.items()))
        out.mkdir()
        table = out / f"table.{fmt}"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([verb, "--config", str(config), "--format", fmt,
                             "--output", str(table), "--no-timestamp"])
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        if code == 2:
            assert len(errors) == 1 and errors[0] != "error: "
            assert list(out.iterdir()) == []
        else:
            assert code == 0 or (code == 1 and verb == "validate")
            assert errors == [] and list(out.iterdir()) == [table]
            assert all(math.isfinite(v) for v in _numeric_cells(table, fmt))


def test_usage_errors_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["no-such-verb"]) == 2
    assert main(["force-curve", "--format", "xml"]) == 2
    capsys.readouterr()


def test_unwritable_output_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    missing_dir = tmp_path / "nope" / "out.csv"
    assert main(["force-curve", "--points", "2", "--output", str(missing_dir)]) == 2
    assert "error" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lateralvdw", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lateralvdw" in proc.stdout
