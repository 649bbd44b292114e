"""1-D parameter sweeps, double-negative band detection, and extrema.

Sweeps evaluate the response on a uniform inclusive grid along the probe
detuning or the dipole-alignment parameter. The grid is validated once,
as an array, and the sweep is one ``response_at`` call on a
``PointsAlong`` of the base point and the grid, which solves it in
double-buffered stacks of ``steady.CHUNK_POINTS`` points: rates and
mapping values are read from the base point and the grid a column at a
time, with no SystemParams per point. The records are bitwise those
``response_at`` gives point by point. Points where the computation fails
(degenerate probe, local-field pole, singular or unphysical steady state)
come back from that call as the point's exception: they are recorded as
SweepFailures and skipped rather than aborting the sweep, and a failed
point also breaks any left-handed band running through it.
Results are stored in grid order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .params import PointsAlong, SystemParams, ValidationError
from .response import Handedness, ResponseRecord, response_at

#: alignment sweeps stop this far short of p = 1, where the probe decouples
ALIGNMENT_GUARD = 1e-6


class EmptyTable(RuntimeError):
    """The sweep table holds no successful records."""


class SweepAxis(enum.Enum):
    DETUNING = "detuning"
    ALIGNMENT = "alignment"

    @property
    def field(self) -> str:
        """The SystemParams field the axis sweeps."""
        return "delta_p" if self is SweepAxis.DETUNING else "p_align"


@dataclass(frozen=True, slots=True)
class SweepFailure:
    axis_value: float
    kind: str        # exception class name
    message: str


@dataclass(frozen=True)
class SweepExtrema:
    """Grid-level extrema of a sweep (no interpolation)."""

    min_re_n: float
    min_re_n_at: float
    max_abs_im_n: float
    max_abs_im_n_at: float
    min_re_eps: float
    min_re_eps_at: float
    min_re_mu: float
    min_re_mu_at: float


@dataclass(frozen=True)
class SweepTable:
    """Response records over a strictly increasing 1-D grid.

    ``records[i]`` corresponds to ``grid[i]`` and is None exactly where the
    point failed; ``failures`` lists those points. ``bands`` holds the
    maximal contiguous left-handed intervals as (start, end) axis values,
    zero-width for single-point runs.
    """

    axis: SweepAxis
    grid: tuple
    records: tuple
    bands: tuple
    failures: tuple

    def ok_records(self):
        """(axis value, record) pairs for the points that succeeded."""
        return [(g, r) for g, r in zip(self.grid, self.records) if r is not None]


def _uniform_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if not lo < hi:
        raise ValidationError(f"need lower < upper bound, got [{lo}, {hi}]")
    if steps == 1:
        return np.array([lo])
    # an infinite or overflowing span gives inf or NaN values, which the
    # caller rejects as a ValidationError instead of a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(lo, hi, steps)


def _run_sweep(axis: SweepAxis, base: SystemParams, grid: np.ndarray) -> SweepTable:
    """Solve ``base`` at each grid value of ``axis.field``; the grid values
    must already be valid for the field."""
    # one float object per grid value, shared by the table's grid and the
    # swept field of its records
    values = grid.tolist()
    outcomes = response_at(PointsAlong(base, axis.field, values))
    records = tuple(o if isinstance(o, ResponseRecord) else None for o in outcomes)
    failures = tuple(SweepFailure(value, type(o).__name__, str(o))
                     for value, o, record in zip(values, outcomes, records) if record is None)
    table = SweepTable(axis=axis, grid=tuple(values), records=records, bands=(),
                       failures=failures)
    return replace(table, bands=tuple(detect_bands(table)))


def sweep_detuning(params: SystemParams, d_min: float, d_max: float,
                   steps: int) -> SweepTable:
    """Sweep the probe detuning over [d_min, d_max] (gamma units) on a
    uniform inclusive grid; steps = 1 evaluates the single point d_min."""
    grid = _uniform_grid(d_min, d_max, steps)
    if not np.isfinite(grid).all():
        raise ValidationError("delta_p must be finite")
    return _run_sweep(SweepAxis.DETUNING, params, grid)


def sweep_alignment(params: SystemParams, p_min: float, p_max: float,
                    steps: int) -> SweepTable:
    """Sweep the dipole alignment over [p_min, p_max], which must stay
    inside [0, 1 - ALIGNMENT_GUARD]: at p = 1 the probe decouples."""
    if p_min < 0.0:
        raise ValidationError(f"p_min must be >= 0, got {p_min}")
    if p_max > 1.0 - ALIGNMENT_GUARD:
        raise ValidationError(
            f"p_max must be <= 1 - {ALIGNMENT_GUARD:g} (probe decouples at p = 1), got {p_max}")
    return _run_sweep(SweepAxis.ALIGNMENT, params, _uniform_grid(p_min, p_max, steps))


def detect_bands(table: SweepTable) -> list:
    """Maximal runs of consecutive left-handed records as closed intervals.

    Failed points break runs; a run of length one is reported as the
    zero-width interval (v, v).
    """
    bands = []
    start = None
    last = None
    for value, record in zip(table.grid, table.records):
        if record is not None and record.handedness is Handedness.LEFT_HANDED:
            if start is None:
                start = value
            last = value
        else:
            if start is not None:
                bands.append((start, last))
            start = None
    if start is not None:
        bands.append((start, last))
    return bands


def find_extrema(table: SweepTable) -> SweepExtrema:
    """Grid-level extrema of Re(n), |Im(n)|, Re(eps_r), Re(mu_r).

    One pass over the table that keeps four running (value, axis value)
    pairs and replaces each as ``min``/``max`` over those pairs would, NaN
    included: ties go to the first grid point for the minima and to the
    last for the maximum. Nothing is kept per point.
    """
    mn = None
    for g, r in zip(table.grid, table.records):
        if r is None:
            continue
        n = r.n_index
        if mn is None:
            mn, mi, me, mm = n.real, abs(n.imag), r.eps_r.real, r.mu_r.real
            mn_at = mi_at = me_at = mm_at = g
            continue
        v = n.real
        if v < mn or (v == mn and g < mn_at):
            mn, mn_at = v, g
        v = abs(n.imag)
        if v > mi or (v == mi and g > mi_at):
            mi, mi_at = v, g
        v = r.eps_r.real
        if v < me or (v == me and g < me_at):
            me, me_at = v, g
        v = r.mu_r.real
        if v < mm or (v == mm and g < mm_at):
            mm, mm_at = v, g
    if mn is None:
        raise EmptyTable("sweep produced no successful records")
    return SweepExtrema(mn, mn_at, mi, mi_at, me, me_at, mm, mm_at)

