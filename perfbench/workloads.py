"""Seeded inputs and the op runners of the three workloads.

Inputs come in blocks.  A block holds one draw from every stratum of the
workload's input ranges, in a seeded order, so any run of whole blocks
covers the ranges evenly and medians agree across seeds.  Each workload is
a closed loop with one caller: the next op starts when the last one ended.

cli-cold   one fresh ``python -m lateralvdw`` process per op; a block is the
           four verbs at their default sizes with seeded handedness,
           csv/json and linear/log flags.
sweep      one warm in-process ``lateralvdw.cli.main`` request per op; large
           force-curve and velocity tables over xi ~ 1e-3 .. 60 and
           emission spectra with hundreds to thousands of azimuths, across
           both specfun branches.
oracle     one seeded configuration per op (xi log-uniform in [0.3, 20], a
           handedness, an off-axis direction) run through the five
           numerical routes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import time

import numpy as np

import lateralvdw
import lateralvdw.cli
from lateralvdw import CESIUM_WAVELENGTH

WORKLOADS = ("cli-cold", "sweep", "oracle")

# Blocks generated per run; far more than any run at the benchmark's length
# can use, so a run is bounded by time, not by its inputs.
N_BLOCKS = 250

# Separation per unit of xi = omega r / c at the CLI's default wavelength.
XI_UNIT = CESIUM_WAVELENGTH / (2.0 * math.pi)

# CLI defaults, passed explicitly so the checker knows the expected rows.
_DEFAULT_SWEEP = {"r_min": 100e-9, "r_max": 2e-6, "points": 400}
_DEFAULT_PHI_POINTS = 64
_DEFAULT_R = 632e-9


def _in_slice(rng, lo: float, hi: float, k: int, n: int, log: bool = False) -> float:
    """A uniform draw from the k-th of n equal slices of [lo, hi)."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    value = a + (b - a) * (k + rng.random()) / n
    return math.exp(value) if log else value


def _strata(rng, lo: float, hi: float, n: int, log: bool = False) -> list[float]:
    """One draw from each of n equal slices of [lo, hi), in seeded order."""
    return [_in_slice(rng, lo, hi, k, n, log) for k in rng.permutation(n)]


def _request(rng, verb: str, **settings) -> dict:
    request = {
        "verb": verb,
        "format": "json" if rng.random() < 0.5 else "csv",
        "handedness": "left" if rng.random() < 0.5 else "right",
    }
    request.update(settings)
    if verb in ("force-curve", "velocity") and "log_scale" not in request:
        request["log_scale"] = bool(rng.random() < 0.5)
    return request


def cli_argv(request: dict, output: str) -> list[str]:
    argv = [request["verb"], "--format", request["format"],
            "--handedness", request["handedness"], "--output", output]
    if request["verb"] in ("force-curve", "velocity"):
        argv += ["--r-min", repr(request["r_min"]), "--r-max", repr(request["r_max"]),
                 "--points", str(request["points"])]
        if request["log_scale"]:
            argv.append("--log-scale")
    elif request["verb"] == "emission-spectrum":
        argv += ["--r", repr(request["r"]), "--phi-points", str(request["phi_points"])]
    elif "f3_scale" in request:
        argv += ["--f3-scale", repr(request["f3_scale"])]
    return argv


def _cli_cold_block(rng) -> list[dict]:
    ops = [
        _request(rng, "force-curve", **_DEFAULT_SWEEP),
        _request(rng, "emission-spectrum", r=_DEFAULT_R, phi_points=_DEFAULT_PHI_POINTS),
        _request(rng, "velocity", **_DEFAULT_SWEEP),
        _request(rng, "validate"),
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


def _sweep_bounds(rng) -> dict:
    return {
        "r_min": float(rng.uniform(1e-3, 1.2e-3) * XI_UNIT),
        "r_max": float(rng.uniform(40.0, 60.0) * XI_UNIT),
    }


def _halves(rng, a, b, n: int) -> list:
    """n values, half a and half b, in seeded order."""
    return list(rng.permutation([a, b] * (n // 2)))


def _sweep_block(rng) -> list[dict]:
    # Table size, csv/json and linear/log each change the cost of a request,
    # so every block holds the same share of each.
    ops = []
    for verb, lo, hi in (("force-curve", 1000, 2000), ("velocity", 6000, 16000)):
        for points, log, fmt in zip(_strata(rng, lo, hi, 4), _halves(rng, True, False, 4),
                                    _halves(rng, "csv", "json", 4)):
            ops.append(_request(rng, verb, points=int(points), log_scale=bool(log),
                                format=str(fmt), **_sweep_bounds(rng)))
    # Six spectra keep the block median inside the band of sweep latencies
    # instead of on the edge between spectra and sweeps.
    phis = _strata(rng, 500, 8000, 6, log=True)
    xis = _strata(rng, 1e-3, 60.0, 6, log=True)
    for phi_points, xi, fmt in zip(phis, xis, _halves(rng, "csv", "json", 6)):
        ops.append(_request(rng, "emission-spectrum", r=float(xi * XI_UNIT),
                            phi_points=int(phi_points), format=str(fmt)))
    return [ops[i] for i in rng.permutation(len(ops))]


def _oracle_block(rng) -> list[dict]:
    # The mode route's cost depends on both xi and the polar angle of the
    # displacement, so the block crosses 4 xi slices with 3 angle slices.
    ops = []
    for xi_slice in range(4):
        for polar_slice in range(3):
            xi = _in_slice(rng, 0.3, 20.0, xi_slice, 4, log=True)
            polar = _in_slice(rng, 0.0, math.radians(35.0), polar_slice, 3)
            azimuth = 2.0 * math.pi * rng.random()
            side = 1.0 if rng.random() < 0.5 else -1.0
            direction = np.array([
                math.sin(polar) * math.cos(azimuth),
                math.sin(polar) * math.sin(azimuth),
                side * math.cos(polar),
            ])
            separation = float(xi * XI_UNIT)
            ops.append({
                "separation": separation,
                "handedness": "left" if rng.random() < 0.5 else "right",
                "delta": separation * direction,
                "phi": 2.0 * math.pi * rng.random(),
            })
    return [ops[i] for i in rng.permutation(len(ops))]


_BLOCKS = {"cli-cold": _cli_cold_block, "sweep": _sweep_block, "oracle": _oracle_block}


def generate(workload: str, seed: int, n_blocks: int = N_BLOCKS) -> list[list[dict]]:
    """The workload's input blocks; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    return [_BLOCKS[workload](rng) for _ in range(n_blocks)]


def smoke_requests() -> list[dict]:
    """Minimal-size requests of every verb plus one perturbed validate.

    The perturbed validate must fail the checker, and nothing else may.
    """
    rng = np.random.default_rng(0)
    return [
        _request(rng, "force-curve", points=2, **_sweep_bounds(rng)),
        _request(rng, "emission-spectrum", r=_DEFAULT_R, phi_points=8),
        _request(rng, "velocity", points=2, **_sweep_bounds(rng)),
        _request(rng, "validate"),
        _request(rng, "validate", f3_scale=1.000001),
    ]


# -- op runners ----------------------------------------------------------


def output_path(work_dir: str, request: dict) -> str:
    return os.path.join(work_dir, f"{request['verb']}.{request['format']}")


def run_cli_in_process(request: dict, work_dir: str) -> tuple[float, int, str]:
    """One warm ``cli.main`` request; returns (seconds, exit status, output path)."""
    path = output_path(work_dir, request)
    argv = cli_argv(request, path)
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = lateralvdw.cli.main(argv)
    return time.perf_counter() - start, code, path


def run_cli_process(command: list[str], request: dict, work_dir: str, env: dict):
    """One fresh CLI process; returns (seconds, exit status, path, peak RSS in KiB)."""
    path = output_path(work_dir, request)
    argv = command + cli_argv(request, path)
    with open(os.path.join(work_dir, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=env, cwd=work_dir)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, path, usage.ru_maxrss


def run_oracle(config: dict) -> tuple[float, dict]:
    """The five numerical routes for one configuration; returns (seconds, results)."""
    start = time.perf_counter()
    system = lateralvdw.TwoAtomSystem.cs_rb(config["separation"],
                                            handedness=config["handedness"])
    recoil_cfg = lateralvdw.QuadratureConfig(rel_tol=1e-11, abs_tol=1e-30)
    modes_cfg = lateralvdw.QuadratureConfig(rel_tol=1e-10, abs_tol=1e-30)
    results = {
        "profile": lateralvdw.recoil_rate_profile(system, 32, recoil_cfg),
        "assisted": lateralvdw.assisted_rate_correction_quadrature(system, recoil_cfg),
        "recoil_rate": lateralvdw.recoil_rate_quadrature(system, config["phi"], recoil_cfg),
        "nonresonant": lateralvdw.nonresonant_force(system),
        "modes": lateralvdw.greens_free_from_modes(config["delta"], system.omega_a,
                                                   modes_cfg),
    }
    return time.perf_counter() - start, results
