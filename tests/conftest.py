"""Shared fixtures: calibrated dipoles and the time-integration oracle grid.

Both are expensive enough to compute once per session. The oracle grid
holds, for each (p, delta_p) on the standard 3x3 cross-check grid, the
steady-state vector from the linear solve and the state reached by RK4
integration from the ground state after 200/gamma.

Also the helpers that only the tests need: diagonal states, the inverse
of the permeability relation and the canonical config text.
"""

import numpy as np
import pytest

from sgcvapor import (DensityMatrix, SystemParams, calibrate_dipoles, evolve,
                      steady_state)
from sgcvapor.cli import config_mapping

ORACLE_P_VALUES = (0.0, 0.5, 0.99)
ORACLE_DETUNINGS = (-10.0, 0.0, 10.0)
ORACLE_T_FINAL = 200.0
ORACLE_DT = 0.005


@pytest.fixture(scope="session")
def calibrated():
    return calibrate_dipoles()


@pytest.fixture(scope="session")
def calibrated_base(calibrated):
    return SystemParams(d42=calibrated.d42, mu23=calibrated.mu23)


@pytest.fixture(scope="session")
def oracle_grid():
    results = {}
    for p in ORACLE_P_VALUES:
        for delta in ORACLE_DETUNINGS:
            params = SystemParams(p_align=p, delta_p=delta)
            solved = steady_state(params).vector()
            settled = evolve(params, DensityMatrix.ground(),
                             ORACLE_T_FINAL, ORACLE_DT).vector()
            results[(p, delta)] = (solved, settled)
    return results


def from_populations(n1: float, n2: float, n3: float, n4: float) -> DensityMatrix:
    """The diagonal state with populations n1..n4, validated."""
    return DensityMatrix(np.diag([n1, n2, n3, n4]).astype(complex))


def magnetic_polarizability_from_permeability(mu_r: complex, density_n: float) -> complex:
    """Invert the permeability relation: gm = (mu_r - 1)/(N*(2/3 + mu_r/3)).

    Round-trips with ``permeability`` to roundoff, a consistency check on
    the local-field algebra.
    """
    return (mu_r - 1.0) / (density_n * (2.0 / 3.0 + mu_r / 3.0))


def config_text(config) -> str:
    """Canonical ``key = value`` rendering of a configuration, which
    ``parse_config`` reads back to the same RunConfig."""
    return "".join(f"{k} = {v}\n" for k, v in config_mapping(config).items())


def random_hermitian(rng, unit_trace=True):
    """Random Hermitian 4x4; populations made real non-negative-ish so the
    matrix can double as a plausible state when unit_trace is set."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (a + a.conj().T)
    if unit_trace:
        h += np.eye(4) * (np.abs(h.diagonal().real).sum() + 1.0)
        h /= h.trace().real
    return h
