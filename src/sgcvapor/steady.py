"""Steady state by direct linear solve, with a time-integration oracle.

The equations of motion are homogeneous and linear, so the steady state is
the null vector of the 16x16 generator normalized to unit trace. The solver
replaces the rho11 row (the most redundant one under trace conservation)
with the constraint rho11 + rho22 + rho33 + rho44 = 1 and solves the
resulting square system by dense LU with partial pivoting.

The solve is array-valued: ``steady_state`` also takes a sequence of
operating points and solves it a stack of at most CHUNK_POINTS points at a
time, each stack a slice of the sequence. For each stack it assembles the
(N, 16, 16) generators, inverts the trace-constrained stack once for the
exact 1-norm condition numbers and solves it once (``_factor``, one call
each to the LAPACK gufuncs behind numpy.linalg, where a singular row comes
out as NaN and leaves the others alone), and applies the non-finite,
residual, trace and population gates to the whole stack (``_gate``), each
by arithmetic whose value for a row does not depend on the other rows: a
row's outcome is its outcome as a stack of one, wherever the chunks split
a sequence. A row that fails gets its SingularSystem or NonPhysicalState
as its item of the result, the other rows unaffected; a single
SystemParams is the one-point case, and its exception is raised. Each
state handed out, good or carried by a NonPhysicalState, is a
DensityMatrix on its slice of its stack.

A sequence of more than one chunk is double-buffered in one loop, the
generator ``_stacks``: once the caller's thread has solved a stack, taken
its residual, joined the worker that inverted it and taken the norms, it
builds the next chunk's generators and hands the next stack's inverse, its
longest LAPACK call, to a thread of its own, which holds no GIL from start
to end of that call and runs nothing else. While it runs, the caller gates
and maps the stack (``steady_state``, or ``response_at`` through the
private ``_map``, which is handed the stack's own points) and solves the
next; each row meets the same gufuncs on the same data, so the bits do
not depend on the split. A single point, or any call of at most
CHUNK_POINTS points, starts no thread, nor does an interpreter that no
longer starts threads: there every inverse is computed inline. A process
pinned to one CPU starts the worker too, which then shares that CPU with
the caller: sweeps then take 3-7% longer per point than with every stack
inverted inline, which is not worth a second path. The ill-conditioning
RuntimeWarning names the first caller outside this package: the line that
called ``steady_state``, ``response_at`` or a sweep.

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
import os
import sys
import threading
import warnings

import numpy as np
from numpy.linalg import _umath_linalg

from .model import (DensityMatrix, IDX_N1, IDX_N2, IDX_N3, IDX_N4, build_generator,
                    unvectorize, vectorize)
from .params import SystemParams, ValidationError

# Populations this far outside [0, 1] mean the fixed point is unphysical.
POPULATION_BOUND_TOL = 1e-6
# an exact 1-norm condition number above this triggers a warning
CONDITION_WARN = 1e12
# beyond this the solve has no trustworthy digits left
CONDITION_FAIL = 1e15
# relative residual bound on the non-replaced rows of L @ x
RESIDUAL_TOL = 1e-10

# Points per stacked solve of a sequence, a constant: a stack's arrays take
# about 8 kB per point while it is solved. On a 20001-point sweep, peak
# resident memory was 1.2 MB above the point-by-point loop's with
# 256-point stacks, 7.6 MB above it with 1024 and 158 MB with no chunking,
# while the time per point changed by about 10% between stacks of 64 and
# 1024.
CHUNK_POINTS = 256

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


# the rho11 row of the trace-constrained system, and its right-hand side
# as a one-matrix stack that the solve broadcasts over any stack
_TRACE_ROW = np.array([1.0] * 4 + [0.0] * 12)
_UNIT_TRACE = np.zeros((1, 16, 1))
_UNIT_TRACE[0, IDX_N1, 0] = 1.0

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def _outside_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, counted from the function that
    calls this one, of the first frame outside this package: the code that
    called the package's public entry point."""
    frame, level = sys._getframe(1), 1
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        frame, level = frame.f_back, level + 1
    return level


def _trace_constrained(L: np.ndarray):
    """``(pair, bound)``: ``L`` with each rho11 row replaced by the trace
    row, as the first half of a (2, N, 16, 16) array whose second half
    ``_factor`` fills, and each row's residual bound RESIDUAL_TOL ||L||_F."""
    pair = np.empty((2,) + L.shape)
    pair[0] = L
    pair[0, :, IDX_N1] = _TRACE_ROW
    flat = L.reshape(len(L), 16 * 16)
    return pair, RESIDUAL_TOL * np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _invert(pair: np.ndarray) -> None:
    """Put the inverse of each matrix of the first half of ``pair`` into
    its second half; a singular one comes out as NaN. The one LAPACK call
    of a stack's solve that the worker thread of ``_stacks`` runs:
    the longest, and it holds no GIL from start to end. The caller ignores
    floating-point errors."""
    _umath_linalg.inv(pair[0], signature="d->d", out=pair[1])


def _factor(pair: np.ndarray, worker=None):
    """The LAPACK half of the solve of a trace-constrained stack A, the
    first half of ``pair`` (``_trace_constrained``), which it overwrites.

    Returns ``(cond, X, residual)``: a list of each row's exact 1-norm
    condition number, the (N, 16) solutions x, and the 2-norm of each
    row's residual A x on the 15 rows that A shares with L. One LU solves
    each row of A and another inverts it (``_invert``); a row with a zero
    pivot comes out of either as NaN, the other rows untouched, so neither
    call raises. ``worker`` is None to invert here, or the thread of
    ``_stacks`` that inverts ``pair``, joined before the norms, or run here
    if it never started.
    """
    A, inverse = pair
    # numpy's own gufuncs behind np.linalg.solve and np.linalg.cond(A, 1),
    # called once each: the public wrappers cost more than the LAPACK work
    # of one point, and solve raises for the whole stack on a singular row.
    # The condition number is cond's arithmetic, op for op: the 1-norms of
    # A and its inverse, multiplied, and NaN read as inf unless A has a
    # NaN. tests/test_steady.py checks the bits against the public
    # functions and that the one-point path calls no wrapper.
    with np.errstate(all="ignore"):
        X = _umath_linalg.solve(A, _UNIT_TRACE, signature="dd->d")[:, :, 0]
        # A x is L x but in the trace row, zeroed; a huge x may overflow here
        R = np.matmul(A, X[:, :, None])[:, :, 0]
        R[:, IDX_N1] = 0.0
        residual = np.sqrt(np.einsum("ij,ij->i", R, R))
        if worker is None:
            _invert(pair)
        elif worker.ident is None:   # never started
            worker.run()
        else:
            worker.join()
        norms = np.maximum.reduce(np.add.reduce(np.abs(pair, out=pair), axis=-2), axis=-1)
        cond = (norms[0] * norms[1]).tolist()
    # A holds |A| now, which has a NaN where A has one
    for i, c in enumerate(cond):
        if c != c and not np.isnan(A[i]).any():
            cond[i] = math.inf
    return cond, X, residual


def _gate(cond: list, X: np.ndarray, residual: np.ndarray, bound: np.ndarray):
    """``(rho, failures)`` of a stack from its ``_factor`` and residual
    ``bound``: rho (N, 4, 4) holds each row's x divided by its trace,
    unvectorized once as one stack, and ``failures`` maps the index of each
    row that failed a gate to its SingularSystem or NonPhysicalState (whose
    state is its row of rho). Each gate is decided in arithmetic whose value
    for a row does not depend on the other rows, so each row's outcome is
    bitwise that of its solve as a stack of one.
    """
    failures = {}
    for i, c in enumerate(cond):
        if not c <= CONDITION_FAIL:   # NaN and inf fail too
            failures[i] = SingularSystem(
                f"trace-constrained system is rank-deficient (cond ~ {c:.2e})")
        elif c > CONDITION_WARN:
            warnings.warn(f"steady-state solve is ill-conditioned (cond ~ {c:.2e})",
                          RuntimeWarning, stacklevel=_outside_stacklevel())
    # one row per point, True where a gate fails: an entry of x is not
    # finite (columns 0-15), the residual is too large (16), a population
    # is below 0 (17-20) or above 1 (21-24), so one reduction finds the
    # failing rows
    gates = np.empty((len(X), 25), dtype=bool)
    np.logical_not(np.isfinite(X, out=gates[:, :16]), out=gates[:, :16])
    np.greater(residual, bound, out=gates[:, 16])

    # a row with a non-finite or huge x may overflow or give NaN here; the
    # gates below decide it on its own values
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # renormalize the trace (the solve already puts the sum at 1 to
        # roundoff; dividing pins it there)
        X /= (X[:, IDX_N1] + X[:, IDX_N2] + X[:, IDX_N3] + X[:, IDX_N4])[:, None]
        pops = X[:, IDX_N1:IDX_N4 + 1]
        np.less(pops, -POPULATION_BOUND_TOL, out=gates[:, 17:21])
        np.greater(pops, 1.0 + POPULATION_BOUND_TOL, out=gates[:, 21:])
        rho = unvectorize(X)

    for k in np.logical_or.reduce(gates, axis=1).nonzero()[0].tolist():
        if k in failures:
            continue
        if gates[k, :16].any():
            failures[k] = SingularSystem("solution has non-finite entries")
        elif gates[k, 16]:
            failures[k] = SingularSystem(
                f"steady-state residual {residual[k]:.2e} exceeds {RESIDUAL_TOL:.0e} * ||L||")
        else:
            failures[k] = NonPhysicalState(None, DensityMatrix._view(rho[k]))
    return rho, failures


def steady_state(params, _map=None):
    """Steady-state density matrix at the given operating point.

    Raises SingularSystem if the trace-constrained system is degenerate and
    NonPhysicalState if a population of the fixed point leaves [0, 1] by
    more than 1e-6 (the PAPER_LITERAL fixed point often does).

    ``params`` may also be a sequence of SystemParams that supports
    slicing, solved as stacks of at most CHUNK_POINTS points, each a slice
    of it: the result is then a list whose item i is the state of point i,
    or the exception it would raise alone, returned instead of raised.
    With the private ``_map``, a stack's outcomes are the list
    ``_map(stack, rho, failures)`` returns instead, ``stack`` being the
    slice of points solved, ``rho`` their (N, 4, 4) unit-trace states and
    ``failures`` the SingularSystem or NonPhysicalState of each failed
    row, by row.
    """
    single = isinstance(params, SystemParams)
    states = []
    for stack, rho, failures in _stacks([params] if single else params):
        if _map is None:
            # popped, so that no local refers to the exception _only may raise
            states += [failures.pop(i, None) or DensityMatrix._view(m) for i, m in enumerate(rho)]
        else:
            states += _map(stack, rho, failures)
    return _only(states) if single else states


def _stacks(points):
    """Solve ``points`` a stack of at most CHUNK_POINTS at a time, yielding
    ``(stack, rho, failures)`` per stack as ``_gate`` gives them, ``stack``
    being the slice of ``points`` that was solved.

    A loop left by an exception joins its worker. ``Thread.start`` returns
    only once the worker runs, and the worker then keeps the GIL into the
    LAPACK call of ``_invert``, which releases it: had this thread gone on
    at once, the worker would have waited ``sys.getswitchinterval()`` for
    the GIL, longer than gating a stack takes.
    """
    following = points[:CHUNK_POINTS]
    if not following:
        return
    pair, bound = _trace_constrained(build_generator(following))
    # the first stack is inverted inline: no worker, and no error in its box
    worker, box = None, [None]
    try:
        # end: where this stack ends and the following one starts
        for end in range(CHUNK_POINTS, len(points) + CHUNK_POINTS, CHUNK_POINTS):
            (cond, X, residual), this_bound, stack = _factor(pair, worker), bound, following
            # freed before the next stack's pair is allocated
            pair = None
            _only(box)   # raises what the worker raised
            following = points[end:end + CHUNK_POINTS]
            if following:
                pair, bound = _trace_constrained(build_generator(following))
                box = []
                worker = threading.Thread(target=_invert_into, args=(box, pair),
                                          name="sgcvapor-factor")
                try:
                    worker.start()
                except RuntimeError:   # no new threads at interpreter shutdown
                    pass
            rho, failures = _gate(cond, X, residual, this_bound)
            yield stack, rho, failures
    finally:
        if worker is not None and worker.ident is not None:
            worker.join()


def _invert_into(box: list, pair: np.ndarray) -> None:
    """Invert ``pair`` (``_invert``) and append None, or the exception that
    raises, to ``box``: what the worker of ``_stacks`` runs."""
    try:
        with np.errstate(all="ignore"):
            _invert(pair)
        box.append(None)
    except Exception as exc:
        box.append(exc)


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
