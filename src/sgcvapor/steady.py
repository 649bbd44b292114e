"""Steady state by direct linear solve, with a time-integration oracle.

The equations of motion are homogeneous and linear, so the steady state is
the null vector of the 16x16 generator normalized to unit trace. The solver
replaces the rho11 row (the most redundant one under trace conservation)
with the constraint rho11 + rho22 + rho33 + rho44 = 1 and solves the
resulting square system by dense LU with partial pivoting.

The solve is array-valued: ``steady_state`` also takes a sequence of
operating points, assembles their generators as one (N, 16, 16) stack and
makes one batched condition estimate and one batched LU solve for it. The
gates (condition, residual, trace, populations) are applied row by row,
and a row that fails one of them gets its SingularSystem or
NonPhysicalState as its item of the result instead of a state; the other
rows are unaffected. A single SystemParams is the one-point case, and its
exception is raised.

``evolve`` integrates the same equations of motion with classical
fixed-step fourth-order Runge-Kutta and serves as an independent check: for
a linear system the RK4 iteration has the continuous fixed point as its
exact fixed point, so a stable, settled integration lands on the linear
solve's answer to roundoff. On dx/dt = L x one RK4 step is a fixed 16x16
matrix, so a 200/gamma horizon (40,000 steps) is a few matrix powers of
it; the tests tie that matrix to a textbook RK4 step on the complex
``model.eom_rhs``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .model import (DensityMatrix, IDX_N1, IDX_N2, IDX_N3, IDX_N4, build_generator,
                    unvectorize, vectorize)
from .params import SystemParams, ValidationError

# Populations this far outside [0, 1] mean the fixed point is unphysical.
POPULATION_BOUND_TOL = 1e-6
# 1-norm condition estimate above this triggers a warning.
CONDITION_WARN = 1e12
# beyond this the solve has no trustworthy digits left
CONDITION_FAIL = 1e15
# relative residual bound on the non-replaced rows of L @ x
RESIDUAL_TOL = 1e-10

DEFAULT_T_FINAL = 200.0   # gamma units
DEFAULT_DT = 0.005
DIVERGENCE_BOUND = 10.0   # any |component| beyond this is divergence
# evolve takes fewer steps than this: floats stop representing every
# integer at 2**53, so t_final / dt could not be split into whole steps
MAX_STEPS = 2 ** 53


class SingularSystem(RuntimeError):
    """The trace-constrained linear system is rank-deficient beyond
    tolerance: the steady state is degenerate or non-unique."""


class NonPhysicalState(RuntimeError):
    """The algebraic fixed point has a population outside [0, 1] beyond
    tolerance (expected possible under the PAPER_LITERAL variant).

    Carries the offending state in the ``state`` attribute. A message of
    None is formatted from the populations of ``state`` when ``str()``
    first reads it, so a caller that only catches the error does not pay
    for the formatting.
    """

    def __init__(self, message: str | None, state: DensityMatrix):
        super().__init__(message)
        self.state = state

    def __str__(self) -> str:
        if self.args == (None,):
            self.args = (f"fixed-point populations outside [0, 1]: "
                         f"{self.state.m.diagonal().real}",)
        return super().__str__()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class StepUnstable(RuntimeError):
    """Time integration diverged (a component magnitude exceeded 10 or
    was not finite)."""


def _solve_trace_normalized(L: np.ndarray) -> list:
    """Solve L x = 0 subject to unit trace via rho11-row replacement.

    ``L`` is a stack (N, 16, 16) of generators. Returns a list whose item
    i is the x of row i or its SingularSystem, returned rather than
    raised, so one bad row costs the others nothing. The condition numbers
    and the LU solve are one batched call each, and only rows that pass
    the condition gate are solved; the gates themselves are applied row by
    row in the arithmetic of a single solve, so each row's x is bitwise
    its solve as a stack of one.
    """
    A = L.copy()
    A[:, IDX_N1, :] = 0.0
    A[:, IDX_N1, [IDX_N1, IDX_N2, IDX_N3, IDX_N4]] = 1.0
    out = [None] * len(A)
    passed = []
    for i, cond in enumerate(np.linalg.cond(A, 1).tolist()):
        if not math.isfinite(cond) or cond > CONDITION_FAIL:
            out[i] = SingularSystem(
                f"trace-constrained system is rank-deficient (cond ~ {cond:.2e})")
            continue
        if cond > CONDITION_WARN:
            warnings.warn(f"steady-state solve is ill-conditioned (cond ~ {cond:.2e})",
                          RuntimeWarning, stacklevel=3)
        passed.append(i)

    X = np.empty((0, 16))
    if passed:
        # b as an (n, 16, 1) stack: numpy 1.x rejects a 1-D b against a stack
        b = np.zeros((len(passed), 16, 1))
        b[:, IDX_N1, 0] = 1.0
        # cond(A, 1) inverts each row by the same LU (gesv) as this solve,
        # and a zero pivot there makes cond inf: every row left here solves
        X = np.linalg.solve(A[passed], b)[..., 0]

    # Euclidean norms as np.linalg.norm takes them, sqrt(v @ v), without
    # its per-call overhead; L is flattened for its Frobenius norm
    flat = L.reshape(len(L), -1)
    for i, x, finite in zip(passed, X, np.isfinite(X).all(axis=1)):
        if not finite:
            out[i] = SingularSystem("solution has non-finite entries")
        else:
            # residual on the 15 rows that still belong to L
            resid = L[i] @ x
            resid[IDX_N1] = 0.0
            norm = math.sqrt(resid @ resid)
            if norm > RESIDUAL_TOL * math.sqrt(flat[i] @ flat[i]):
                out[i] = SingularSystem(
                    f"steady-state residual {norm:.2e} exceeds {RESIDUAL_TOL:.0e} * ||L||")
            else:
                out[i] = x
    return out


def steady_state(params):
    """Steady-state density matrix at the given operating point.

    Raises SingularSystem if the trace-constrained system is degenerate and
    NonPhysicalState if a population of the fixed point leaves [0, 1] by
    more than 1e-6 (the PAPER_LITERAL fixed point often does).

    ``params`` may also be a sequence of SystemParams, solved as one stack:
    the result is then a list whose item i is the state of point i, or the
    exception it would raise alone, returned instead of raised.
    """
    single = isinstance(params, SystemParams)
    points = [params] if single else params
    if not points:
        return []
    states = _solve_trace_normalized(build_generator(points))
    rows = [i for i, x in enumerate(states) if not isinstance(x, SingularSystem)]
    if rows:
        X = np.array([states[i] for i in rows])
        # renormalize the trace (the solve already puts the sum at 1 to
        # roundoff; dividing pins it there)
        X = X / (X[:, IDX_N1] + X[:, IDX_N2] + X[:, IDX_N3] + X[:, IDX_N4])[:, None]
        pops = X[:, IDX_N1:IDX_N4 + 1]
        unphysical = ((pops.min(axis=1) < -POPULATION_BOUND_TOL)
                      | (pops.max(axis=1) > 1.0 + POPULATION_BOUND_TOL))
        for i, m, bad in zip(rows, unvectorize(X), unphysical):
            rho = DensityMatrix(m, check=False)
            states[i] = NonPhysicalState(None, rho) if bad else rho
    return _only(states) if single else states


def _only(outcomes: list):
    """The result of a one-point call: the only item of ``outcomes``,
    returned, or raised if it is an exception.

    The item is taken out of the list and the local dropped before the
    exception leaves, so no frame in its traceback refers back to it: a
    reference cycle would keep every raised exception, and the arrays its
    frames hold, alive until a full garbage collection.
    """
    outcome = outcomes.pop()
    if not isinstance(outcome, Exception):
        return outcome
    try:
        raise outcome
    finally:
        del outcome


def _rk4_propagator(L: np.ndarray, h: float) -> np.ndarray:
    """The matrix of one classical RK4 step of size h for dx/dt = L x.

    On a linear system the four stages collapse to x <- P x with P the
    degree-4 Taylor polynomial of exp(hL), here in Horner form.
    """
    eye = np.eye(len(L))
    hL = h * L
    return eye + hL @ (eye + (hL / 2.0) @ (eye + (hL / 3.0) @ (eye + hL / 4.0)))


def _diverged(x: np.ndarray) -> bool:
    """True if a component of x exceeds DIVERGENCE_BOUND in magnitude or is
    not finite (NaN compares false, so the bound is tested the other way)."""
    return not (np.abs(x) <= DIVERGENCE_BOUND).all()


def evolve(params: SystemParams, rho0: DensityMatrix, t_final: float,
           dt: float = DEFAULT_DT) -> DensityMatrix:
    """Integrate the equations of motion with classical RK4.

    ``t_final`` and ``dt`` are in units of 1/gamma_unit. Raises
    StepUnstable as soon as any component magnitude exceeds 10 or is not
    finite (the PAPER_LITERAL variant diverges from almost any state with
    rho33 > 0); the check runs once per 1/gamma of full steps and at the
    final time. The steps are the RK4 propagator of build_generator's L,
    applied a block of steps at a time as one matrix power. Hermiticity is
    exact in the real-component representation; the trace is preserved to
    about 1e-12. Raises ValidationError unless dt is positive and finite,
    t_final non-negative and finite, and t_final / dt below MAX_STEPS.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    if not (t_final >= 0.0 and math.isfinite(t_final)):
        raise ValidationError(f"t_final must be non-negative and finite, got {t_final}")

    n_full, remainder = divmod(t_final, dt)
    if not n_full < MAX_STEPS:
        raise ValidationError(
            f"t_final / dt = {n_full:.3g} steps, must be below 2**53")
    n_full = int(n_full)
    if remainder < 1e-12 * max(t_final, dt):
        remainder = 0.0

    # about once per 1/gamma; past MAX_STEPS (1/dt may overflow) no block fits
    check_every = max(1, round(min(1.0 / dt, MAX_STEPS)))

    L = build_generator(params)
    x = vectorize(rho0.m)
    # overflow to inf or NaN is reported as StepUnstable, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        step = _rk4_propagator(L, dt)
        block = np.linalg.matrix_power(step, check_every)
        for n in range(1, n_full // check_every + 1):
            x = block @ x
            if _diverged(x):
                raise StepUnstable(
                    f"integration diverged at t = {n * check_every * dt:.3f}/gamma "
                    f"(max |component| > {DIVERGENCE_BOUND})")
        x = np.linalg.matrix_power(step, n_full % check_every) @ x
        if remainder > 0.0:
            x = _rk4_propagator(L, remainder) @ x
    if _diverged(x):
        raise StepUnstable("integration diverged (max |component| > 10 at final time)")
    return DensityMatrix.from_vector(x, check=False)
