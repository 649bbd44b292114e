"""Command-line front end: single points and sweeps to CSV/JSON.

Configuration is resolved in three layers: built-in defaults, then a
``key = value`` config file (# comments allowed), then CLI flags. Outputs
are a data table (CSV or JSON) plus a ``<out>.meta.json`` sidecar carrying
every resolved parameter, the physical constants, the code version, and
any per-point failures. Identical configurations produce byte-identical
files: floats are written with 17 significant digits and nothing
time-dependent is recorded. Files are written atomically (temp file, then
rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .model import DensityMatrix
from .params import EquationVariant, SystemParams, ValidationError
from .response import C_LIGHT, EPSILON_0, HBAR, MU_0, ResponseRecord, response_at
from .steady import DEFAULT_DT, DEFAULT_T_FINAL, StepUnstable, evolve, steady_state
from .sweep import (ALIGNMENT_GUARD, SweepAxis, SweepTable, detect_bands,
                    sweep_alignment, sweep_detuning)


class ParseError(ValueError):
    """Malformed config input; the message names the offending line/flag."""


MODES = ("point", "sweep-detuning", "sweep-p")
FORMATS = ("csv", "json")

CSV_COLUMNS = ("axis_value", "re_eps", "im_eps", "re_mu", "im_mu", "re_n",
               "im_n", "re_rho24", "im_rho24", "re_rho32", "im_rho32",
               "handedness")


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration: the operating point plus run controls."""

    params: SystemParams = dataclasses.field(default_factory=SystemParams)
    mode: str = "point"
    d_min: float = -20.0
    d_max: float = 20.0
    p_min: float = 0.0
    p_max: float = 1.0 - ALIGNMENT_GUARD
    steps: int = 401
    out: str | None = None
    format: str = "csv"
    oracle: bool = False

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.format not in FORMATS:
            raise ValidationError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        # the sidecar is named after the output file, so it needs a name
        if self.out is not None and not Path(self.out).name:
            raise ValidationError(f"out must name a file, got {self.out!r}")


# The config keys, in order: the SystemParams fields, with ``equations``
# for equation_variant (valued by EquationVariant's values), then the run
# controls. Each key parses as its field's annotated type.
_PHYSICAL = {("equations" if f.name == "equation_variant" else f.name): f.name
             for f in dataclasses.fields(SystemParams)}
_PARAM_TYPES = typing.get_type_hints(SystemParams)
_KEY_TYPES = {key: _PARAM_TYPES[name] for key, name in _PHYSICAL.items()}
_KEY_TYPES.update(typing.get_type_hints(RunConfig))
del _KEY_TYPES["params"]
_EQUATIONS = tuple(variant.value for variant in EquationVariant)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, EquationVariant):
        return value.value
    return str(value)


def config_mapping(config: RunConfig) -> dict:
    """All config keys with canonically formatted string values (the
    representation stored in the metadata sidecar; parsing it back yields
    an identical RunConfig)."""
    values = {key: getattr(config.params, _PHYSICAL[key]) if key in _PHYSICAL
              else getattr(config, key) for key in _KEY_TYPES}
    return {key: _fmt(value) for key, value in values.items() if value is not None}


def _convert(key: str, raw: str, where: str):
    kind = _KEY_TYPES[key]
    try:
        if kind is bool:
            if raw not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw == "true"
        if kind in (float, int):
            return kind(raw)
        return raw
    except ValueError as exc:
        raise ParseError(f"{where}: bad value for {key!r}: {raw!r} ({exc})") from exc


def _parse_config_text(text: str) -> dict:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEY_TYPES:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        values[key] = _convert(key, raw, f"line {lineno}")
    return values


def _equation_variant(value) -> EquationVariant:
    try:
        return EquationVariant(value)
    except ValueError:
        raise ValidationError(f"equations must be one of {_EQUATIONS}, got {value!r}") from None


def parse_config(text: str | None = None, flags: dict | None = None) -> RunConfig:
    """Resolve a RunConfig from config-file text and/or CLI flag values.

    Flags override file values override the built-in defaults. Unknown
    keys raise ParseError; invalid values raise ValidationError naming the
    violated invariant.
    """
    values = {}
    if text is not None:
        values.update(_parse_config_text(text))
    if flags:
        for key, value in flags.items():
            if key not in _KEY_TYPES:
                raise ParseError(f"flag: unknown key {key!r}")
            if value is not None:
                values[key] = value
    physical = {name: values.pop(key) for key, name in _PHYSICAL.items() if key in values}
    if "equation_variant" in physical:
        physical["equation_variant"] = _equation_variant(physical["equation_variant"])
    config = RunConfig(params=SystemParams(**physical), **values)
    config.validate()
    return config


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # open() gives a new file mode 0o666 & ~umask; mkstemp would make it
    # 0600, and os.replace keeps the mode
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _record_row(axis_value: float, record: ResponseRecord) -> tuple:
    return (axis_value,
            record.eps_r.real, record.eps_r.imag,
            record.mu_r.real, record.mu_r.imag,
            record.n_index.real, record.n_index.imag,
            record.rho24.real, record.rho24.imag,
            record.rho32.real, record.rho32.imag,
            record.handedness.value)


# a CSV row: the 11 floats of _record_row, then the handedness
_CSV_ROW = ",".join(["%.17g"] * (len(CSV_COLUMNS) - 1) + ["%s"])


def _render_csv(table: SweepTable) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines += [_CSV_ROW % _record_row(*pair) for pair in table.ok_records()]
    return "\n".join(lines) + "\n"


def _render_json(table: SweepTable) -> str:
    rows = [dict(zip(CSV_COLUMNS, _record_row(*pair))) for pair in table.ok_records()]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def _oracle_checks(config: RunConfig, table: SweepTable) -> list:
    """Cross-check the linear solve against time integration.

    Point mode checks its single point; sweeps check the first, middle,
    and last successful grid points.
    """
    pairs = table.ok_records()
    if not pairs:
        return []
    if len(pairs) <= 3:
        chosen = pairs
    else:
        chosen = [pairs[0], pairs[len(pairs) // 2], pairs[-1]]
    checks = []
    for axis_value, _record in chosen:
        params = dataclasses.replace(config.params, **{table.axis.field: axis_value})
        entry = {"axis_value": _fmt(axis_value)}
        try:
            settled = evolve(params, DensityMatrix.ground(), DEFAULT_T_FINAL, DEFAULT_DT)
            gap = float(max(abs(v) for v in (settled.vector() - steady_state(params).vector())))
            entry["max_abs_diff"] = _fmt(gap)
        except StepUnstable as exc:
            entry["error"] = f"StepUnstable: {exc}"
        checks.append(entry)
    return checks


def _metadata(config: RunConfig, table: SweepTable, oracle_checks: list) -> str:
    meta = {
        "code_version": __version__,
        "config": config_mapping(config),
        "constants": {
            "hbar_J_s": HBAR,
            "epsilon0_F_per_m": EPSILON_0,
            "mu0_N_per_A2": MU_0,
            "c_m_per_s": C_LIGHT,
        },
        "axis": table.axis.value,
        "points_total": len(table.grid),
        "points_failed": len(table.failures),
        "failures": [
            {"axis_value": _fmt(f.axis_value), "kind": f.kind, "message": f.message}
            for f in table.failures
        ],
        "left_handed_bands": [[_fmt(a), _fmt(b)] for a, b in table.bands],
    }
    if oracle_checks:
        meta["oracle_checks"] = oracle_checks
    return json.dumps(meta, indent=2, sort_keys=True) + "\n"


def run(config: RunConfig) -> int:
    """Execute the configured computation and write its output files.

    Returns the process exit status. Sweep-point failures are collected in
    the sidecar; a fatal error in point mode propagates to the caller.
    """
    config.validate()
    if config.out is None:
        raise ValidationError("an output path is required (out = <path> or --out)")
    params = config.params

    if config.mode == "point":
        record = response_at(params)  # fatal errors propagate in point mode
        table = SweepTable(axis=SweepAxis.DETUNING, grid=(params.delta_p,),
                           records=(record,), bands=(), failures=())
        table = dataclasses.replace(table, bands=tuple(detect_bands(table)))
    elif config.mode == "sweep-detuning":
        table = sweep_detuning(params, config.d_min, config.d_max, config.steps)
    else:
        table = sweep_alignment(params, config.p_min, config.p_max, config.steps)

    oracle_checks = _oracle_checks(config, table) if config.oracle else []

    out_path = Path(config.out)
    renderer = _render_csv if config.format == "csv" else _render_json
    _atomic_write(out_path, renderer(table))
    _atomic_write(out_path.with_name(out_path.name + ".meta.json"),
                  _metadata(config, table, oracle_checks))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, and each call of ``main`` reads the streams it writes to."""
    parser = argparse.ArgumentParser(
        prog="sgcvapor",
        description="Steady-state electromagnetic response of a dense "
                    "four-level Y-type vapor with interfering decay channels.")
    parser.add_argument("--mode", choices=MODES, default=None,
                        help="single point, detuning sweep, or alignment sweep")
    parser.add_argument("--p", type=float, default=None, dest="p_align",
                        help="dipole alignment parameter in [-1, 1]")
    parser.add_argument("--delta-p", type=float, default=None, dest="delta_p",
                        help="probe detuning (gamma units)")
    parser.add_argument("--d-min", type=float, default=None, dest="d_min")
    parser.add_argument("--d-max", type=float, default=None, dest="d_max")
    parser.add_argument("--p-min", type=float, default=None, dest="p_min")
    parser.add_argument("--p-max", type=float, default=None, dest="p_max")
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--equations", choices=_EQUATIONS, default=None,
                        help=f"equation variant (default: {SystemParams.equation_variant.value})")
    parser.add_argument("--oracle", action="store_true", default=None,
                        help="cross-check the linear solve against time integration")
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value configuration file")
    parser.add_argument("--out", type=str, default=None, help="output data path")
    parser.add_argument("--format", choices=FORMATS, default=None)
    return parser


def _read_config(path: Path | None) -> str | None:
    """The text of the config file at ``path``, if any; a file that cannot
    be read or decoded is a ParseError naming it."""
    if path is None:
        return None
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {str(path)!r}: {exc}") from exc


def main(argv: list | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = _read_config(args.config)
        flags = {key: getattr(args, key) for key in _KEY_TYPES if hasattr(args, key)}
        config = parse_config(text, flags)
        return run(config)
    except (ParseError, ValidationError) as exc:
        print(f"sgcvapor: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # fatal compute/IO errors
        print(f"sgcvapor: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
