"""Command-line front end: force curves, emission spectra, velocities, checks.

Four verbs write plotting-ready tables:

    lateralvdw force-curve --r-min 1e-7 --r-max 2e-6 --points 400
    lateralvdw emission-spectrum --r 632e-9 --phi-points 64
    lateralvdw velocity --p1 1e-2 --delta-t 1e-2
    lateralvdw validate

Output is CSV with '#'-prefixed metadata lines, or JSON with a "meta"
object and a "rows" array (--format json).  Every number is written as
its repr() text, so a fixed configuration yields byte-identical files;
the metadata timestamp is suppressed by --no-timestamp for that purpose.
The three numeric verbs build their table as one float64 array and
stream it to the file as bytes, in blocks of 2048 rows: per block, one
orjson pass, whose shortest round-trip digits are repr's, respelled on
the bytes to repr's form.  Each cell's value says what its respelling is
(a '+' before the exponent from 1e16 up, a '0' before a one-digit
exponent in [1e-9, 1e-5), and the exponent form of the cells in
[1e-5, 1e-4) that orjson writes positionally), and one scan for commas
says where.  CSV's single-byte separators go straight onto orjson's
commas; each of JSON's longer ones goes in through a marker byte naming
its column (0x80 and up, so it cannot clash with orjson's ASCII float
text) and one bytes.replace.  No string is made per cell and no body is
decoded to str.  That text is also the JSON encoder's for a finite
float.  Every table goes to a temp file renamed into place, with the
mode that open() gives a new file.  A table with a non-finite cell is
not written: the run stops with one error line naming the column and the
separation, or for validate the identity.
Settings may come from a flat key=value config file (--config), with
command-line flags taking precedence.

Exit status: 0 on success, 1 when validate finds a failing identity, 2 on
configuration, usage or out-of-memory errors, a non-finite result or a
validate quadrature that does not converge.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import typing
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import QuadratureConvergenceError, __version__
from .constants import (
    CESIUM_DIPOLE,
    CESIUM_MASS,
    CESIUM_WAVELENGTH,
    RUBIDIUM_POLARIZABILITY,
    _require_positive,
)
from .dynamics import (
    DrivingParams,
    accumulated_velocity,
    assisted_decay_rate,
    steady_state_population,
)
from .emission import emission_spectrum
from .forces import lateral_force_closed_form, resonant_forces
from .system import TwoAtomSystem
from .validation import _IDENTITY_QUADRATURE, run_identity_checks


class ConfigError(ValueError):
    """Raised for malformed config files or inconsistent settings."""


@dataclass
class RunConfig:
    """Effective settings for one CLI invocation.

    Populated from defaults, then an optional config file, then flags.
    ``p1`` stays None until resolved: either set explicitly, derived
    from a drive specification, or filled with the per-verb default.
    """

    dipole_moment: float = CESIUM_DIPOLE
    wavelength: float = CESIUM_WAVELENGTH
    alpha_b: float = RUBIDIUM_POLARIZABILITY
    mass_a: float = CESIUM_MASS
    handedness: str = "right"
    r_min: float = 100e-9
    r_max: float = 2e-6
    points: int = 400
    log_scale: bool = False
    r: float = 632e-9
    phi_points: int = 64
    p1: float | None = None
    rabi: float | None = None
    detuning: float | None = None
    rabi_over_detuning: float | None = None
    delta_t: float = 10e-3
    quad_rel_tol: float | None = None
    quad_abs_tol: float | None = None
    output: str | None = None
    format: str = "csv"
    timestamp: bool = True
    f3_scale: float = 1.0


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _field_parser(hint):
    # ``X | None`` settings parse as X; booleans accept the words above.
    base = next((arg for arg in typing.get_args(hint) if arg is not type(None)), hint)
    return _parse_bool if base is bool else base


# RunConfig field -> value parser; the config-file keys and the flag
# overrides are exactly these fields.
_FIELD_PARSERS = {
    name: _field_parser(hint) for name, hint in typing.get_type_hints(RunConfig).items()
}


def parse_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file.

    Blank lines and whole-line '#' comments are ignored.  Keys must be
    known RunConfig fields; values are parsed per field type.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, text = stripped.partition("=")
        key = key.strip()
        text = text.strip()
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = parser(text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _validate_config(config: RunConfig, verb: str) -> None:
    # One boundary for every float setting: nan and inf never reach a sweep
    # grid or a closed form, where they would turn into rows or warnings.
    for name, value in vars(config).items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    if config.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {config.format!r}")
    if config.handedness not in ("left", "right"):
        raise ConfigError(f"handedness must be left or right, got {config.handedness!r}")
    sweeps = verb in ("force-curve", "velocity")
    positive = ["dipole_moment", "wavelength", "alpha_b", "mass_a", "delta_t", "f3_scale",
                "r_min" if sweeps else "r"]
    if config.rabi_over_detuning is not None:
        positive.append("rabi_over_detuning")
    for name in positive:
        _require_positive(name, getattr(config, name))
    if sweeps:
        if config.points < 1:
            raise ConfigError("points must be at least 1")
        if config.points > 1 and config.r_max <= config.r_min:
            raise ConfigError("r_max must exceed r_min for a sweep")
    if verb == "emission-spectrum":
        if config.phi_points < 8:
            raise ConfigError("phi_points must be at least 8")
    if config.p1 is not None and not 0.0 <= config.p1 <= 1.0:
        raise ConfigError("p1 must lie in [0, 1]")


def _drive_population(drive: DrivingParams, gamma_total: float | None = None) -> float:
    """steady_state_population with each of its regime warnings as one stderr line.

    The warnings are caught whatever the warning filters say (so also under
    ``python -W error``) and never reach the data file.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p1 = steady_state_population(drive, gamma_total)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return p1


def _resolve_population(config: RunConfig, default: float, system: TwoAtomSystem) -> float:
    """Excited-state population: explicit p1, else drive-derived, else default.

    A drive given by rabi and detuning is checked against the largest total
    decay rate of atom A over the system's separations.
    """
    if config.p1 is not None:
        return config.p1
    if config.rabi_over_detuning is not None:
        # The population depends on the ratio alone, so a unit detuning carries it.
        drive = DrivingParams(
            rabi=config.rabi_over_detuning, detuning=1.0, duration=config.delta_t
        )
        return _drive_population(drive)
    if config.rabi is not None or config.detuning is not None:
        if config.rabi is None or config.detuning is None:
            raise ConfigError("rabi and detuning must be given together")
        drive = DrivingParams(rabi=config.rabi, detuning=config.detuning, duration=config.delta_t)
        gamma_total = float(np.max(assisted_decay_rate(system).gamma_total))
        return _drive_population(drive, gamma_total)
    return default


def _system_at(config: RunConfig, separation: float | np.ndarray) -> TwoAtomSystem:
    return TwoAtomSystem.cs_rb(
        separation,
        handedness=config.handedness,
        dipole_moment=config.dipole_moment,
        wavelength=config.wavelength,
        alpha_b=config.alpha_b,
        mass_a=config.mass_a,
    )


def _sweep(config: RunConfig) -> np.ndarray:
    if config.points == 1:
        return np.array([config.r_min])
    if config.log_scale:
        return np.geomspace(config.r_min, config.r_max, config.points)
    return np.linspace(config.r_min, config.r_max, config.points)


def _pyval(value):
    """Collapse numpy scalars so repr/json render plain Python numbers."""
    return value.item() if isinstance(value, np.generic) else value


def _format_value(value) -> str:
    value = _pyval(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # a float's str is its repr


def _base_meta(config: RunConfig, verb: str) -> dict:
    meta = {
        "tool": "lateralvdw",
        "version": __version__,
        "verb": verb,
        "handedness": config.handedness,
        "dipole_moment": config.dipole_moment,
        "wavelength": config.wavelength,
        "alpha_b": config.alpha_b,
    }
    meta.update((key, getattr(config, key)) for key in _VERBS[verb].settings)
    if config.timestamp:
        meta["generated"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return meta


# Rows per block of a numeric table: each block's text is written before the
# next is made, so at most one block's bytes (0.1-0.25 MB) are alive at once.
_BLOCK_ROWS = 2048

# Stands in for the bytes a positional cell's respelling leaves over; one
# bytes.replace drops them.  ASCII DEL: in neither orjson's float text nor
# the column markers (0x80 and up).
_DROP = 0x7F


def _float_body(table: np.ndarray, separators: typing.Sequence[str]) -> bytes:
    """repr's text of every cell of a finite 2-d float64 table, as bytes.

    ``separators[j]`` follows each cell of column j: the last one is the
    row break, and none follows the table's last cell.  orjson writes the
    same shortest round-trip digits as repr in one pass over the flattened
    cells, and each cell's value says how its spelling differs (a double's
    shortest digits lie on the side of a power of ten that it does).  From
    1e16 up a '+' goes before the 2 exponent digits (3 from 1e100): 1e16 ->
    1e+16.  In [1e-9, 1e-5) a '0' goes before the one exponent digit: 1e-7
    -> 1e-07.  In [1e-5, 1e-4), where orjson stays positional, 0.0000 and
    the digits d1..dn become d1.d2..dn (d1 for one digit) in place, e-05
    goes in at the end, and the bytes left over are dropped.  One comma
    scan gives each cell's end, the inserts' places follow from it, and so
    do the commas' after a cumsum of the inserts.  A single-byte separator
    goes straight onto its comma; the comma after a cell of column j with a
    longer separator becomes the marker byte 0x80 + j, which cannot clash
    with orjson's ASCII float text, and one bytes.replace per marker puts
    the separator in.  No Python object is made per cell.
    """
    import orjson  # paid by the first table written, not by importing the CLI

    values = table.ravel()
    text = np.frombuffer(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY), np.uint8)
    # Cell i runs from after bounds[i], a comma or the '[' opening the text,
    # to end[i], a comma or the closing ']'.
    bounds = np.concatenate(([0], np.flatnonzero(text == ord(",")), [len(text) - 1]))
    end = bounds[1:]
    magnitude = np.abs(values)
    big = magnitude >= 1e16
    small = (magnitude >= 1e-9) & (magnitude < 1e-5)
    in_range = (magnitude >= 1e-5) & (magnitude < 1e-4)
    positional = np.flatnonzero(in_range)
    shift = np.cumsum(np.where(in_range, 4, big | small))  # bytes inserted up to each end
    at = (end[big] - 2 - (magnitude[big] >= 1e100), end[small] - 1, np.repeat(end[positional], 4))
    fill = (np.repeat(np.frombuffer(b"+0", np.uint8), (len(at[0]), len(at[1]))),
            np.tile(np.frombuffer(b"e-05", np.uint8), len(positional)))
    text = np.insert(text, np.concatenate(at), np.concatenate(fill))
    if len(positional):
        # From its '0' (after a '-'), moved by the inserts before its own four.
        start = bounds[positional] + 1 + (values[positional] < 0)
        digits = end[positional] - start > 7  # two or more
        start += shift[positional] - 4
        text[start + 5] = text[start + 6]
        text[start + 6] = np.where(digits, ord("."), _DROP)
        text[start[:, None] + np.arange(5)] = _DROP
    # Each cell's comma after the inserts; the last cell's is the ']' cut off.
    cut = end + shift
    k = table.shape[1]
    for j, separator in enumerate(separators):
        if separator != ",":
            text[cut[j::k]] = ord(separator) if len(separator) == 1 else 0x80 + j
    body = text[1:-1].tobytes()
    if len(positional):
        body = body.replace(bytes((_DROP,)), b"")
    for j, separator in enumerate(separators):
        if len(separator) > 1:
            body = body.replace(bytes((0x80 + j,)), separator.encode("ascii"))
    return body


def _render(
    meta: dict, columns: typing.Sequence[str], rows: np.ndarray | list, fmt: str
) -> typing.Iterator[bytes]:
    """Serialise one table as a stream of byte chunks.

    Each format has one row layout, built once: a head before the first
    cell, the separator after each column's cell (the last one is the row
    break, which closes one row and opens the next) and a tail after the
    last cell; CSV's head and tail are empty.  The chunks are the metadata
    prefix, the body and the suffix.  A numeric table is a float64 array
    whose cells are all finite (``_run`` checks that); its body comes in
    blocks of ``_BLOCK_ROWS`` rows, each written by ``_float_body`` as
    repr's text of its cells, with the row break between blocks.  repr of
    a finite float is also what json.dumps writes for it.  Any other table
    is a list of rows of mixed cells, each formatted by ``_format_value``
    (CSV) or json.dumps (JSON) into a row template with ``%s`` cells between
    the same separators, and its body is one chunk.
    """
    if fmt == "json":
        # The bytes of json.dumps({"meta": ..., "rows": ...}, indent=2,
        # sort_keys=True).
        order = sorted(range(len(columns)), key=columns.__getitem__)
        keys = [f"      {json.dumps(columns[i])}: " for i in order]
        head, tail, cell = "    {\n" + keys[0], "\n    }", json.dumps
        separators = [",\n" + key for key in keys[1:]] + [f"{tail},\n{head}"]
        meta_text = json.dumps(
            {"meta": {key: _pyval(value) for key, value in meta.items()}},
            indent=2,
            sort_keys=True,
        )
        prefix = f'{meta_text[:-2]},\n  "rows": ['
        if not len(rows):
            yield (prefix + "]\n}\n").encode("utf-8")
            return
        prefix, suffix = f"{prefix}\n{head}", f"{tail}\n  ]\n}}\n"
    else:
        order, cell = list(range(len(columns))), _format_value
        separators = [","] * (len(columns) - 1) + ["\n"]
        lines = [f"# {key} = {_format_value(meta[key])}" for key in sorted(meta)]
        lines.append(",".join(columns))
        prefix, suffix = "\n".join(lines) + "\n", "\n" if len(rows) else ""
    yield prefix.encode("utf-8")
    if isinstance(rows, np.ndarray):
        if len(columns) > 128:
            raise ValueError(f"a numeric table has at most 128 columns, not {len(columns)}")
        for start in range(0, len(rows), _BLOCK_ROWS):
            if start:
                yield separators[-1].encode("ascii")
            yield _float_body(rows[start:start + _BLOCK_ROWS, order], separators)
    else:
        template = "%s".join(["", *separators[:-1], ""])
        body = separators[-1].join([template] * len(rows)) % tuple(
            cell(row[i]) for row in rows for i in order
        )
        yield body.encode("utf-8")
    yield suffix.encode("utf-8")


def _write_atomic(path: str, chunks: typing.Iterable[bytes]) -> None:
    # Temp file in the destination directory so os.replace stays atomic.
    # Renaming over an existing file costs more than onto a new name: ext4
    # starts writeback when a rename replaces a file (a median of 0.8 ms,
    # up to 1.1 ms, against 0.013 ms for a 1 MB table).  A reader never
    # sees a half-written table, so the replace stays.  The chunks are
    # written as they are made, in binary mode; one that raises leaves the
    # old file as it was and no temp file.
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".lateralvdw-", suffix=".tmp")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp makes the file 0600; give it the mode that open(path, "w")
            # gives a new file.  Reading the umask means setting it, so it is
            # set back at once.
            umask = os.umask(0o077)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def cmd_force_curve(config: RunConfig) -> tuple[dict, np.ndarray]:
    system = _system_at(config, _sweep(config))
    p1 = _resolve_population(config, 1.0, system)
    on_a, on_b = resonant_forces(system, p1)
    rows = np.column_stack(
        (
            system.separation,
            system.xi,
            lateral_force_closed_form(system, p1),
            on_a.force[:, 2],
            on_b.force[:, 2],
            on_a.shape_factor[:, 0],
        )
    )
    return {"p1": p1}, rows


def cmd_emission_spectrum(config: RunConfig) -> tuple[dict, np.ndarray]:
    spectrum = emission_spectrum(_system_at(config, config.r), config.phi_points)
    rates = spectrum.rates
    peak = rates.max()
    scale = 1.0 / peak if peak > 0.0 else 0.0
    rows = np.column_stack((spectrum.phis, rates, rates * scale))
    fields = {"xi": spectrum.xi, "f1": spectrum.f1, "f2": spectrum.f2, "f3": spectrum.f3}
    return fields, rows


def cmd_velocity(config: RunConfig) -> tuple[dict, np.ndarray]:
    system = _system_at(config, _sweep(config))
    p1 = _resolve_population(config, 1e-2, system)
    force = lateral_force_closed_form(system, p1)
    velocity = accumulated_velocity(force, config.delta_t, config.mass_a)
    rows = np.column_stack((system.separation, force, velocity))
    return {"p1": p1}, rows


def cmd_validate(config: RunConfig) -> tuple[dict, list]:
    tolerances = {"rel_tol": config.quad_rel_tol, "abs_tol": config.quad_abs_tol}
    quad = replace(
        _IDENTITY_QUADRATURE, **{k: v for k, v in tolerances.items() if v is not None}
    )
    system = _system_at(config, config.r)
    try:
        checks = run_identity_checks(system, config=quad, f3_scale=config.f3_scale)
    except QuadratureConvergenceError as exc:
        where = f"wavelength = {config.wavelength!r}, r = {config.r!r}, xi = {system.xi!r}"
        raise ValueError(f"identity quadrature at {where}: {exc}") from exc
    for check in checks:  # each tolerance is a finite constant; an error can overflow
        if not np.isfinite(check.achieved_error):
            cell = f"achieved_error is {check.achieved_error!r} in the {check.name} row"
            raise ValueError(f"{cell} at r = {config.r!r}; no table written")
    for check in checks:
        status = "pass" if check.passed else "FAIL"
        print(
            f"{status}  {check.name}: error {check.achieved_error:.3e}"
            f" (tolerance {check.tolerance:.0e})"
        )
    rows = [
        [check.name, check.passed, check.achieved_error, check.tolerance, check.detail]
        for check in checks
    ]
    return {"all_passed": all(check.passed for check in checks)}, rows


@dataclass(frozen=True)
class _Verb:
    """One verb: ``table`` maps the settings to (computed metadata, table).

    The table is a float64 array for the numeric verbs and a list of
    mixed-cell rows for validate.
    """

    table: typing.Callable[[RunConfig], tuple[dict, np.ndarray | list]]
    columns: tuple[str, ...]
    stem: str  # default output file name, without the format suffix
    help: str
    settings: tuple[str, ...]  # RunConfig fields echoed in the metadata
    flags: tuple[tuple[str, str], ...] = ()  # (flag, help) of verb-only float flags


_SWEEP = ("r_min", "r_max", "points", "log_scale")

_VERBS = {
    "force-curve": _Verb(
        cmd_force_curve,
        ("r", "xi", "F_x", "F_z_A", "F_z_B", "F_x_shape"),
        "force_curve",
        "lateral and longitudinal forces over a separation sweep",
        _SWEEP,
    ),
    "emission-spectrum": _Verb(
        cmd_emission_spectrum,
        ("phi", "R", "R_normalized"),
        "emission_spectrum",
        "azimuthal recoil spectrum at one separation",
        ("r", "phi_points"),
        flags=(("--r", "separation in m (default 632e-9)"),),
    ),
    "velocity": _Verb(
        cmd_velocity,
        ("r", "F_x", "v"),
        "velocity",
        "accumulated lateral velocity over a separation sweep",
        ("delta_t", "mass_a") + _SWEEP,
    ),
    "validate": _Verb(
        cmd_validate,
        ("name", "passed", "achieved_error", "tolerance", "detail"),
        "validation_report",
        "run the cross-validation identities",
        ("r", "f3_scale"),
        flags=(
            ("--f3-scale", "perturb the closed-form asymmetry coefficient (sensitivity hook)"),
        ),
    ),
}


def _require_finite(table: np.ndarray, columns: tuple[str, ...], config: RunConfig) -> None:
    """Raise ValueError naming the first non-finite cell of a numeric table."""
    finite = np.isfinite(table)
    if finite.all():
        return
    i, j = np.argwhere(~finite)[0]
    key = float(table[i, 0])
    where = f"r = {key!r}" if columns[0] == "r" else f"r = {config.r!r}, {columns[0]} = {key!r}"
    raise ValueError(f"{columns[j]} is {float(table[i, j])!r} at {where}; no table written")


def _run(config: RunConfig, name: str) -> int:
    """Build, write and announce one verb's table; return the exit status."""
    verb = _VERBS[name]
    # An overflow is not a warning here: it leaves a non-finite cell, which
    # the check below turns into one error line.
    with np.errstate(all="ignore"):
        fields, rows = verb.table(config)
    if isinstance(rows, np.ndarray):
        _require_finite(rows, verb.columns, config)
    meta = _base_meta(config, name)
    meta.update(fields)
    path = config.output if config.output is not None else f"{verb.stem}.{config.format}"
    _write_atomic(path, _render(meta, verb.columns, rows, config.format))
    print(f"wrote {path} ({len(rows)} rows)")
    # Only validate reports a verdict; a failing identity exits 1.
    return 0 if fields.get("all_passed", True) else 1


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key = value settings file")
    parser.add_argument("--output", metavar="PATH", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--r-min", type=float, help="sweep start separation in m")
    parser.add_argument("--r-max", type=float, help="sweep end separation in m")
    parser.add_argument("--points", type=int, help="number of sweep points")
    parser.add_argument(
        "--log-scale", action="store_true", default=None, help="logarithmic sweep spacing"
    )
    parser.add_argument("--phi-points", type=int, help="azimuthal sample count")
    parser.add_argument("--delta-t", type=float, help="drive duration in s")
    parser.add_argument("--p1", type=float, help="excited-state population in [0, 1]")
    parser.add_argument(
        "--handedness", choices=("left", "right"), help="circular dipole handedness"
    )
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the generated-at metadata line (reproducible output)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged, and a
    # warm main() would otherwise rebuild four subparsers on every call.
    parser = argparse.ArgumentParser(
        prog="lateralvdw",
        description="Lateral van der Waals force and emission-spectrum tables.",
    )
    parser.add_argument("--version", action="version", version=f"lateralvdw {__version__}")
    subparsers = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        sub = subparsers.add_parser(name, help=verb.help)
        _add_shared_flags(sub)
        for flag, text in verb.flags:
            sub.add_argument(flag, type=float, help=text)
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        config = replace(config, **parse_config_file(args.config))
    overrides = {}
    for field_name in _FIELD_PARSERS:
        value = getattr(args, field_name, None)
        if value is not None:
            overrides[field_name] = value
    if getattr(args, "no_timestamp", False):
        overrides["timestamp"] = False
    return replace(config, **overrides)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        config = _build_config(args)
        _validate_config(config, args.verb)
        return _run(config, args.verb)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
