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
solve's answer to roundoff.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .model import (DensityMatrix, IDX_N1, IDX_N2, IDX_N3, IDX_N4, build_generator,
                    unvectorize, vectorize)
from .params import SystemParams, EquationVariant, ValidationError

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


class SingularSystem(RuntimeError):
    """The trace-constrained linear system is rank-deficient beyond
    tolerance: the steady state is degenerate or non-unique."""


class NonPhysicalState(RuntimeError):
    """The algebraic fixed point has a population outside [0, 1] beyond
    tolerance (expected possible under the PAPER_LITERAL variant).

    Carries the offending state in the ``state`` attribute.
    """

    def __init__(self, message: str, state: DensityMatrix):
        super().__init__(message)
        self.state = state


class StepUnstable(RuntimeError):
    """Time integration diverged (a component magnitude exceeded 10)."""


def _solve_trace_normalized(L: np.ndarray):
    """Solve L x = 0 subject to unit trace via rho11-row replacement.

    For one generator (16, 16), returns x or raises SingularSystem. For a
    stack (N, 16, 16), returns a list whose item i is the x of row i or
    its SingularSystem, returned rather than raised, so one bad row costs
    the others nothing. The condition numbers and the LU solve are one
    batched call each, and only rows that pass the condition gate are
    solved; the gates themselves are applied row by row in the arithmetic
    of a single solve, so each row's x is bitwise its lone solve's.
    """
    single = L.ndim == 2
    stack = L[None] if single else L
    A = stack.copy()
    A[:, IDX_N1, :] = 0.0
    A[:, IDX_N1, [IDX_N1, IDX_N2, IDX_N3, IDX_N4]] = 1.0
    out = [None] * len(A)
    try:
        conds = np.linalg.cond(A, 1).tolist()
    except np.linalg.LinAlgError:
        # raised for the stack as a whole (a singular row gives cond = inf)
        out = [SingularSystem("condition estimate failed; system is singular") for _ in A]
        conds = []
    passed = []
    for i, cond in enumerate(conds):
        if not math.isfinite(cond) or cond > CONDITION_FAIL:
            out[i] = SingularSystem(
                f"trace-constrained system is rank-deficient (cond ~ {cond:.2e})")
            continue
        if cond > CONDITION_WARN:
            warnings.warn(f"steady-state solve is ill-conditioned (cond ~ {cond:.2e})",
                          RuntimeWarning, stacklevel=3)
        passed.append(i)

    X = np.empty((0, 16))
    lu_errors = {}
    if passed:
        # b as an (n, 16, 1) stack: numpy 1.x rejects a 1-D b against a stack
        b = np.zeros((len(passed), 16, 1))
        b[:, IDX_N1, 0] = 1.0
        try:
            X = np.linalg.solve(A[passed], b)[..., 0]
        except np.linalg.LinAlgError:
            # the error names no row: solve the rows one at a time
            X = np.full((len(passed), 16), np.nan)
            for k, i in enumerate(passed):
                try:
                    X[k] = np.linalg.solve(A[i], b[k, :, 0])
                except np.linalg.LinAlgError as exc:
                    lu_errors[i] = str(exc)

    # Euclidean norms as np.linalg.norm takes them, sqrt(v @ v), without
    # its per-call overhead; L is flattened for its Frobenius norm
    flat = stack.reshape(len(stack), -1)
    for i, x, finite in zip(passed, X, np.isfinite(X).all(axis=1)):
        if i in lu_errors:
            out[i] = SingularSystem(f"LU solve failed: {lu_errors[i]}")
        elif not finite:
            out[i] = SingularSystem("solution has non-finite entries")
        else:
            # residual on the 15 rows that still belong to L
            resid = stack[i] @ x
            resid[IDX_N1] = 0.0
            norm = math.sqrt(resid @ resid)
            if norm > RESIDUAL_TOL * math.sqrt(flat[i] @ flat[i]):
                out[i] = SingularSystem(
                    f"steady-state residual {norm:.2e} exceeds {RESIDUAL_TOL:.0e} * ||L||")
            else:
                out[i] = x
    return _only(out) if single else out


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
            states[i] = (NonPhysicalState(
                f"fixed-point populations outside [0, 1]: {rho.m.diagonal().real}", rho)
                if bad else rho)
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


def _make_step(params: SystemParams):
    """RK4 stepper over the 16 real components, closed over the rates.

    The derivative below is the real/imaginary expansion of the same
    equations as model.eom_rhs; the tests hold all three formulations
    (complex scalar, generator matrix, this one) to mutual agreement.
    Scalar arithmetic keeps the 40k-step oracle runs fast.
    """
    g2, g3, g4 = params.gamma2, params.gamma3, params.gamma4
    w1, wp = params.omega1, params.omegap
    q = params.sgc_rate
    d = params.delta_p
    literal = params.equation_variant is EquationVariant.PAPER_LITERAL
    s3 = 2.0 * g3 if literal else -2.0 * g3

    def deriv(n1, n2, n3, n4, a12, b12, a13, b13, a14, b14,
              a23, b23, a24, b24, a34, b34):
        dn1 = 2.0 * g2 * n2 + 2.0 * w1 * b12
        dn3 = s3 * n3 - 2.0 * q * a34
        dn4 = -2.0 * g4 * n4 - 2.0 * q * a34 - 2.0 * wp * b24
        return (
            dn1, -(dn1 + dn3 + dn4), dn3, dn4,
            -g2 * a12 + wp * b14,
            -g2 * b12 + w1 * (n2 - n1) - wp * a14,
            -g3 * a13 - w1 * b23 - q * a14,
            -g3 * b13 + w1 * a23 - q * b14,
            -g4 * a14 - d * b14 - q * a13 - w1 * b24 + wp * b12,
            d * a14 - g4 * b14 - q * b13 + w1 * a24 - wp * a12,
            -(g2 + g3) * a23 - w1 * b13 + wp * b34 - q * a24,
            -(g2 + g3) * b23 + w1 * a13 + wp * a34 - q * b24,
            -(g2 + g4) * a24 - d * b24 - w1 * b14 - q * a23,
            d * a24 - (g2 + g4) * b24 + wp * (n4 - n2) + w1 * a14 - q * b23,
            -(g3 + g4) * a34 - d * b34 - wp * b23 - q * (n3 + n4),
            d * a34 - (g3 + g4) * b34 - wp * a23,
        )

    def step(x, h):
        h2 = 0.5 * h
        k1 = deriv(*x)
        k2 = deriv(x[0] + h2 * k1[0], x[1] + h2 * k1[1], x[2] + h2 * k1[2],
                   x[3] + h2 * k1[3], x[4] + h2 * k1[4], x[5] + h2 * k1[5],
                   x[6] + h2 * k1[6], x[7] + h2 * k1[7], x[8] + h2 * k1[8],
                   x[9] + h2 * k1[9], x[10] + h2 * k1[10], x[11] + h2 * k1[11],
                   x[12] + h2 * k1[12], x[13] + h2 * k1[13],
                   x[14] + h2 * k1[14], x[15] + h2 * k1[15])
        k3 = deriv(x[0] + h2 * k2[0], x[1] + h2 * k2[1], x[2] + h2 * k2[2],
                   x[3] + h2 * k2[3], x[4] + h2 * k2[4], x[5] + h2 * k2[5],
                   x[6] + h2 * k2[6], x[7] + h2 * k2[7], x[8] + h2 * k2[8],
                   x[9] + h2 * k2[9], x[10] + h2 * k2[10], x[11] + h2 * k2[11],
                   x[12] + h2 * k2[12], x[13] + h2 * k2[13],
                   x[14] + h2 * k2[14], x[15] + h2 * k2[15])
        k4 = deriv(x[0] + h * k3[0], x[1] + h * k3[1], x[2] + h * k3[2],
                   x[3] + h * k3[3], x[4] + h * k3[4], x[5] + h * k3[5],
                   x[6] + h * k3[6], x[7] + h * k3[7], x[8] + h * k3[8],
                   x[9] + h * k3[9], x[10] + h * k3[10], x[11] + h * k3[11],
                   x[12] + h * k3[12], x[13] + h * k3[13],
                   x[14] + h * k3[14], x[15] + h * k3[15])
        h6 = h / 6.0
        return tuple(x[i] + h6 * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
                     for i in range(16))

    return step


def evolve(params: SystemParams, rho0: DensityMatrix, t_final: float,
           dt: float = DEFAULT_DT) -> DensityMatrix:
    """Integrate the equations of motion with classical RK4.

    ``t_final`` and ``dt`` are in units of 1/gamma_unit. Raises
    StepUnstable as soon as any component magnitude exceeds 10 (the
    PAPER_LITERAL variant diverges from almost any state with rho33 > 0).
    Hermiticity is exact in the real-component representation; the trace is
    preserved to roundoff because the component derivatives sum to zero.
    """
    if not dt > 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t_final < 0.0:
        raise ValidationError(f"t_final must be non-negative, got {t_final}")

    # plain Python floats: numpy scalars would slow the hot loop ~3x
    x = tuple(float(v) for v in vectorize(rho0.m))
    step = _make_step(params)

    n_full, remainder = divmod(t_final, dt)
    n_full = int(round(n_full))
    if remainder < 1e-12 * max(t_final, dt):
        remainder = 0.0

    check_every = max(1, int(round(1.0 / dt)))  # roughly once per 1/gamma

    for n in range(n_full):
        x = step(x, dt)
        if (n + 1) % check_every == 0 and max(abs(v) for v in x) > DIVERGENCE_BOUND:
            raise StepUnstable(
                f"integration diverged at t = {(n + 1) * dt:.3f}/gamma "
                f"(max |component| > {DIVERGENCE_BOUND})")
    if remainder > 0.0:
        x = step(x, remainder)
    if max(abs(v) for v in x) > DIVERGENCE_BOUND:
        raise StepUnstable("integration diverged (max |component| > 10 at final time)")
    return DensityMatrix.from_vector(np.array(x), check=False)
