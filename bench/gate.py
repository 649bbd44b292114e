"""Correctness gate: every check returns a list of problems (empty = pass).

The gate runs outside the timed region. It uses only the public API of
sgcvapor plus arithmetic of its own, so a faster implementation inside the
package is still held to the same answers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np

# n^2 = eps_r * mu_r and the recomputed response, relative to |value|
REL_TOL = 1e-9
# |drho/dt| at a fixed point, gamma units (the solver's residual gate is
# 1e-10 * ||L|| with ||L|| ~ 30 at the default rates)
FIXED_POINT_TOL = 1e-8
# populations must leave [0, 1] by more than this for NonPhysicalState
POPULATION_BOUND = 1e-6
# the sidecar's oracle gap only has to stay under the oracle tolerance
ORACLE_TOL = 1e-6
# (Re eps_r < 0, Re mu_r < 0) -> handedness label
HANDEDNESS = {(True, True): "LeftHanded", (True, False): "NegEpsOnly",
              (False, True): "NegMuOnly", (False, False): "RightHanded"}


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def check_records(sg, params, field, pairs) -> list:
    """Invariants of successful ResponseRecords computed from ``params``.

    ``pairs`` yields (value of ``field``, record), with ``field`` None for
    a record of ``params`` itself. Each record is recomputed from its own
    rho24/rho32 through the public response functions.
    """
    problems = []
    response = sg.response
    for value, rec in pairs:
        point = params if field is None else replace(params, **{field: value})
        where = f"p = {point.p_align}, delta_p = {point.delta_p}"
        n, eps, mu = rec.n_index, rec.eps_r, rec.mu_r
        if not n.imag >= 0.0:
            problems.append(f"{where}: Im n = {n.imag} < 0")
        if not _close(n * n, eps * mu):
            problems.append(f"{where}: n^2 = {n * n} != eps*mu = {eps * mu}")
        expected = HANDEDNESS[(eps.real < 0.0, mu.real < 0.0)]
        if rec.handedness.value != expected:
            problems.append(f"{where}: handedness {rec.handedness.value} != {expected}")
        eps2 = response.permittivity(
            response.electric_polarizability(rec.rho24, point), point.density_n)
        mu2 = response.permeability(
            response.magnetic_polarizability(rec.rho32, point), point.density_n)
        if not (_close(eps, eps2) and _close(mu, mu2)):
            problems.append(f"{where}: eps/mu {eps}, {mu} != recomputed {eps2}, {mu2}")
    return problems


def fixed_point_residual(sg, params, rho) -> float:
    """max |drho/dt| of ``rho`` under the complex equations of motion."""
    return float(np.max(np.abs(sg.model.eom_rhs(params, rho))))


def check_steady_sample(sg, params, record) -> list:
    """Re-solve one point and hold the state to the independent eom_rhs."""
    rho = sg.steady.steady_state(params)
    problems = []
    resid = fixed_point_residual(sg, params, rho)
    if not resid <= FIXED_POINT_TOL:
        problems.append(f"{params.p_align}, {params.delta_p}: |eom_rhs| = {resid:.2e}")
    if record is not None and not (_close(rho.rho24, record.rho24)
                                   and _close(rho.rho32, record.rho32)):
        problems.append(f"{params.p_align}, {params.delta_p}: record coherences differ from steady_state")
    return problems


def check_nonphysical(sg, params, exc) -> list:
    """A NonPhysicalState must carry a true fixed point that is unphysical."""
    state = getattr(exc, "state", None)
    if state is None:
        return [f"{params.p_align}, {params.delta_p}: NonPhysicalState without a state"]
    problems = []
    resid = fixed_point_residual(sg, params, state)
    if not resid <= FIXED_POINT_TOL:
        problems.append(f"{params.p_align}, {params.delta_p}: unphysical state is no fixed point "
                        f"(|eom_rhs| = {resid:.2e})")
    pops = np.real(np.diagonal(state.m))
    if not (pops.min() < -POPULATION_BOUND or pops.max() > 1.0 + POPULATION_BOUND):
        problems.append(f"{params.p_align}, {params.delta_p}: NonPhysicalState with populations "
                        f"inside [0, 1]: {pops}")
    return problems


def expected_bands(grid, records) -> list:
    """Maximal runs of LeftHanded records; a failed point breaks a run."""
    bands, start, last = [], None, None
    for value, rec in zip(grid, records):
        if rec is not None and rec.handedness.value == "LeftHanded":
            start = value if start is None else start
            last = value
        elif start is not None:
            bands.append((start, last))
            start = None
    if start is not None:
        bands.append((start, last))
    return bands


def check_table(table) -> list:
    """Bands and failures of a SweepTable against its own records."""
    problems = []
    bands = expected_bands(table.grid, table.records)
    if list(table.bands) != bands:
        problems.append(f"bands {list(table.bands)} != recomputed {bands}")
    failed = [g for g, r in zip(table.grid, table.records) if r is None]
    if failed != [f.axis_value for f in table.failures]:
        problems.append("failure list does not match the failed records")
    return problems


def check_extrema(table, extrema) -> list:
    """find_extrema against a recomputation over the successful records.

    Ties go to the first grid point for minima and to the last for the
    maximum, as with min()/max() over (value, axis value) pairs.
    """
    pairs = table.ok_records()
    grid = np.fromiter((g for g, _ in pairs), float, len(pairs))
    columns = {
        "min_re_n": (r.n_index.real for _, r in pairs),
        "max_abs_im_n": (abs(r.n_index.imag) for _, r in pairs),
        "min_re_eps": (r.eps_r.real for _, r in pairs),
        "min_re_mu": (r.mu_r.real for _, r in pairs),
    }
    problems = []
    for key, column in columns.items():
        values = np.fromiter(column, float, len(pairs))
        if key.startswith("max"):
            i = len(values) - 1 - int(np.argmax(values[::-1]))
        else:
            i = int(np.argmin(values))
        got, got_at = getattr(extrema, key), getattr(extrema, key + "_at")
        if got != values[i] or got_at != grid[i]:
            problems.append(f"{key}: {got} at {got_at} != {values[i]} at {grid[i]}")
    return problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_csv(data: bytes, digest: str, name: str) -> list:
    got = sha256(data)
    return [] if got == digest else [f"{name}: sha256 {got} != expected {digest}"]


def _subset_diff(expected, actual, path: str) -> list:
    """Keys present in ``expected`` must match in ``actual``; new keys pass."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{path}.{key}: missing")
            elif key == "max_abs_diff":
                if not float(actual[key]) < ORACLE_TOL:
                    problems.append(f"{path}.{key}: {actual[key]} >= {ORACLE_TOL}")
            else:
                problems.extend(_subset_diff(value, actual[key], f"{path}.{key}"))
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems.extend(_subset_diff(e, a, f"{path}[{i}]"))
        return problems
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def check_sidecar(data: bytes, expected: dict, name: str) -> list:
    try:
        actual = json.loads(data)
    except ValueError as exc:
        return [f"{name}: not JSON ({exc})"]
    return _subset_diff(expected, actual, name)
