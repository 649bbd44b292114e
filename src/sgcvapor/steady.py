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
a sequence. A failing row gets its SingularSystem or NonPhysicalState as
its item of the result; a single SystemParams is the one-point case, and
its exception is raised. The gates build no state: ``steady_state``
unvectorizes each stack's unit-trace solutions X (N, 16) once, after its
gates, and each state it hands out, good or carried by a
NonPhysicalState, is a DensityMatrix on its row of that stack.

A sequence of more than one chunk is double-buffered in one loop, the
generator ``_double_buffered``, one pass per stack: one worker thread per
call (``_Inverter``) is handed every stack, the first included, in the
pass that builds it, and inverts it, the longest LAPACK call of a stack,
while the caller solves it, gates and maps the stack before
(``steady_state``, or ``response_at`` through the private ``_map``, which
is handed the stack's own points) and, in the next pass, builds the next.
The hand-over is written once, in the loop, and no pass looks ahead of
its own stack. When the caller needs a stack's inverse and the worker has
not picked the stack up yet, the caller takes the stack back and inverts
it itself, so it never waits for a thread that has not got to run; an
interpreter that no longer starts threads takes back every stack. Each
row meets the same gufuncs and reductions on the same data, so the bits
do not depend on the split or the thread. numpy releases the GIL in a
gufunc call only over more than 500 matrices, so the inverse of a full
stack holds it: what overlaps is the work that runs without the GIL, such
as the norms and the generator assembly. A call of at most CHUNK_POINTS
points starts no thread and no generator: ``_stacks`` solves its one
stack inline and returns it. A process pinned to one CPU starts the
worker too, which then shares that CPU with the caller. The
ill-conditioning RuntimeWarning names the first caller outside this
package: the line that called ``steady_state``, ``response_at`` or a
sweep.

Every stack is built in place, by ``build_generator`` into the array it
is solved in, and constrained there (``_constrain``). A call of more than
one stack holds all its stacks in one (3, CHUNK_POINTS, 16, 16) slot
array: they alternate between two generator slots, each inverse goes to
the third, and the caller takes a stack's 1-norms into the generator slot
no stack holds, so it writes no memory the worker reads or writes.

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
# queue.SimpleQueue and queue.Empty, without importing queue (1 ms)
from _queue import Empty, SimpleQueue

import numpy as np
from numpy.linalg import _umath_linalg

try:
    # what np.einsum calls for these operands; numpy.core warns on numpy 2
    from numpy._core.multiarray import c_einsum
except ImportError:   # numpy 1.x
    from numpy.core.multiarray import c_einsum

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
# evolve checks the states after this many blocks of steps at once, kept in
# one array of at most this many rows (32 kB), whatever the horizon
CHECK_BATCH = 256


class SingularSystem(RuntimeError):
    """The trace-constrained linear system is rank-deficient beyond
    tolerance: the steady state is degenerate or non-unique."""


# numpy's default print options, which a NonPhysicalState formats its
# populations under, whatever options the process has set
_PRINT_DEFAULTS = dict(precision=8, threshold=1000, edgeitems=3, linewidth=75,
                       suppress=False, nanstr="nan", infstr="inf", formatter=None,
                       sign="-", floatmode="maxprec", legacy=False)


class NonPhysicalState(RuntimeError):
    """The algebraic fixed point has a population outside [0, 1] beyond
    tolerance (expected possible under the PAPER_LITERAL variant).

    Carries the offending state in the ``state`` attribute. A message of
    None is formatted from the populations of ``state`` when ``str()``
    first reads it, so a caller that only catches the error does not pay
    for the formatting. The populations are formatted under numpy's
    default print options, so the message, which a sweep's sidecar
    records, does not depend on options the caller has set.
    """

    def __init__(self, message: str | None, state: DensityMatrix):
        super().__init__(message)
        self.state = state

    def __str__(self) -> str:
        if self.args == (None,):
            with np.printoptions(**_PRINT_DEFAULTS):
                populations = str(self.state.m.diagonal().real)
            self.args = (f"fixed-point populations outside [0, 1]: {populations}",)
        return super().__str__()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def __reduce__(self):
        # for pickle and copy: __init__'s two arguments, where the default
        # would pass the message alone
        return type(self), (self.args[0], self.state), self.__dict__


class StepUnstable(RuntimeError):
    """Time integration diverged (a component magnitude exceeded 10 or
    was not finite)."""


# the rho11 row of the trace-constrained system, and its right-hand side,
# which the solve broadcasts over any stack
_TRACE_ROW = np.array([1.0] * 4 + [0.0] * 12)
_UNIT_TRACE = np.zeros(16)
_UNIT_TRACE[IDX_N1] = 1.0

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def _outside_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, counted from the function that
    calls this one, of the first frame outside this package: the code that
    called the package's public entry point."""
    frame, level = sys._getframe(1), 1
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        frame, level = frame.f_back, level + 1
    return level


def _constrain(A: np.ndarray) -> np.ndarray:
    """Each row's residual bound RESIDUAL_TOL ||L||_F, of the generators L
    that ``A`` holds, whose rho11 rows it then replaces by the trace row."""
    flat = A.reshape(len(A), 16 * 16)
    bound = RESIDUAL_TOL * np.sqrt(c_einsum("ij,ij->i", flat, flat))
    A[:, IDX_N1] = _TRACE_ROW
    return bound


def _invert(pair) -> None:
    """Put the inverse of each matrix of A into ``inverse``, of the
    ``(A, inverse)`` pair; a singular one comes out as NaN. The longest
    LAPACK call of a stack, which the worker of ``_double_buffered`` runs
    unless the caller takes the stack back. The caller ignores
    floating-point errors."""
    _umath_linalg.inv(pair[0], signature="d->d", out=pair[1])


def _one_norms(M: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The 1-norm of each 16x16 matrix of ``M``, as np.linalg.norm(M, 1)
    takes it; ``out``, an array of M's shape that may be ``M`` itself,
    holds ``|M|`` after. The caller ignores floating-point errors."""
    return np.maximum.reduce(np.add.reduce(np.abs(M, out=out), axis=-2), axis=-1)


def _cond(norms: np.ndarray, inverse_norms: np.ndarray) -> list:
    """Each row's exact 1-norm condition number from the 1-norms of A and
    of its inverse, as np.linalg.cond(A, 1) takes it: their product, with
    NaN read as inf unless A's 1-norm is NaN. That is cond's "unless A has
    a NaN": |A| has no negative entries, so its column sums are NaN only
    where A has one. The caller ignores floating-point errors."""
    cond = (norms * inverse_norms).tolist()
    for i, c in enumerate(cond):
        if c != c and norms[i] == norms[i]:
            cond[i] = math.inf
    return cond


def _solve(A: np.ndarray):
    """``(X, residual)`` of a trace-constrained stack A: the (N, 16)
    solutions x, and the 2-norm of each row's residual A x on the 15 rows
    that A shares with L. A row with a zero pivot comes out as NaN, the
    other rows untouched. The caller ignores floating-point errors."""
    X = _umath_linalg.solve1(A, _UNIT_TRACE, signature="dd->d")
    # A x is L x but in the trace row, zeroed; a huge x may overflow here
    R = np.matmul(A, X[:, :, None])[:, :, 0]
    R[:, IDX_N1] = 0.0
    return X, np.sqrt(c_einsum("ij,ij->i", R, R))


def _factor(pair: np.ndarray):
    """The LAPACK half of the solve of a trace-constrained stack A, the
    first half of the (2, N, 16, 16) ``pair``, which it overwrites, all on
    this thread: ``(cond, X, residual)``, a list of each row's exact 1-norm
    condition number and ``_solve``'s X and residual.

    It calls numpy's own gufuncs behind np.linalg.solve and
    np.linalg.cond(A, 1) once each: the public wrappers cost more than the
    LAPACK work of one point, and solve raises for the whole stack on a
    singular row, which here comes out as NaN, the other rows untouched.
    The condition number is cond's arithmetic, op for op (``_one_norms``,
    ``_cond``). The caller ignores floating-point errors.
    """
    X, residual = _solve(pair[0])
    _invert(pair)
    norms = _one_norms(pair, out=pair)
    return _cond(norms[0], norms[1]), X, residual


def _gate(cond: list, X: np.ndarray, residual: np.ndarray, bound: np.ndarray):
    """``(failures, unphysical)`` of a stack from its ``_factor`` and
    residual ``bound``, X divided by each row's trace in place: the
    SingularSystem of each row that fails a gate, by index, and the other
    rows whose populations leave [0, 1], whose NonPhysicalState the caller
    builds. Each gate's value for a row does not depend on the other rows,
    so each row's outcome is bitwise that of its solve as a stack of one.
    The caller ignores floating-point errors: a row with a non-finite or
    huge x may overflow or give NaN, and the gates decide it on its values.
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
    not_finite = gates[:, :16]
    np.logical_not(np.isfinite(X, out=not_finite), out=not_finite)
    np.greater(residual, bound, out=gates[:, 16])
    # renormalize the trace (the solve already puts the sum at 1 to
    # roundoff; dividing pins it there)
    X /= (X[:, IDX_N1] + X[:, IDX_N2] + X[:, IDX_N3] + X[:, IDX_N4])[:, None]
    pops = X[:, IDX_N1:IDX_N4 + 1]
    np.less(pops, -POPULATION_BOUND_TOL, out=gates[:, 17:21])
    np.greater(pops, 1.0 + POPULATION_BOUND_TOL, out=gates[:, 21:])

    unphysical = []
    # a count, cheaper than the reduction, passes a stack whose rows all pass
    if not np.count_nonzero(gates):
        return failures, unphysical
    for k in np.logical_or.reduce(gates, axis=1).nonzero()[0].tolist():
        if k in failures:
            continue
        if gates[k, :16].any():
            failures[k] = SingularSystem("solution has non-finite entries")
        elif gates[k, 16]:
            failures[k] = SingularSystem(
                f"steady-state residual {residual[k]:.2e} exceeds {RESIDUAL_TOL:.0e} * ||L||")
        else:
            unphysical.append(k)
    return failures, unphysical


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
    ``_map(stack, X, failures, unphysical)`` returns instead, given what
    ``_stacks`` gives: no state is built.
    """
    single = isinstance(params, SystemParams)
    states = []
    for stack, X, failures, unphysical in _stacks([params] if single else params):
        if _map is None:
            rho = unvectorize(X)
            for k in unphysical:
                failures[k] = NonPhysicalState(None, DensityMatrix._view(rho[k]))
            # popped, so that no local refers to the exception _only may raise
            states += [failures.pop(i, None) or DensityMatrix._view(m) for i, m in enumerate(rho)]
        else:
            states += _map(stack, X, failures, unphysical)
    return _only(states) if single else states


def _stacks(points):
    """Solve ``points`` a stack of at most CHUNK_POINTS at a time: an
    iterable of ``(stack, X, failures, unphysical)``, one per stack, with
    the slice of ``points`` solved and the rest as ``_gate`` gives them.

    A call of one stack, every one-point call among them, is solved here,
    inline (``_factor``), with no thread and no generator: its one outcome
    comes back in a tuple. A longer call gets the generator
    ``_double_buffered``, which solves a stack each time it is advanced.
    """
    stack = points[:CHUNK_POINTS]
    if len(stack) < len(points):
        return _double_buffered(points)
    if not stack:
        return ()
    pair = np.empty((2, len(stack), 16, 16))
    bound = _constrain(build_generator(stack, out=pair[0]))
    with np.errstate(all="ignore"):
        cond, X, residual = _factor(pair)
        failures, unphysical = _gate(cond, X, residual, bound)
    return ((stack, X, failures, unphysical),)


def _double_buffered(points):
    """``_stacks`` of more than one stack, a generator that yields each
    stack's outcome in turn.

    It allocates one (3, CHUNK_POINTS, 16, 16) slot array for the call:
    successive stacks alternate between its first two slots, and the third
    takes each inverse. It starts one worker thread (``_Inverter``) and
    runs one pass per stack, then one more with no stack. A pass builds
    and constrains its stack in its generator slot while the worker
    inverts the stack before, the held one; takes the held stack's inverse
    norms from the worker or, if the worker has not picked it up yet, takes
    it back and inverts it itself; hands its own stack to the worker, takes
    that stack's 1-norms into the other generator slot, which no stack
    holds now, and solves it; then gates the held stack and yields it, and
    its own stack becomes the held one. From the take to the hand-over it
    only multiplies the norms. The thread is stopped and joined however
    the loop ends. Floating-point errors are ignored in one np.errstate per
    pass, from its take to its gates, never while the consumer has the
    stack.
    """
    slots = np.empty((3, CHUNK_POINTS, 16, 16))
    worker = _Inverter()
    # (stack, X, residual, bound) of the stack the worker inverts, and of
    # the stack this pass solves
    held = solved = None
    try:
        # a pass per stack, then one with no stack that gates the last
        for start in range(0, len(points) + CHUNK_POINTS, CHUNK_POINTS):
            stack = points[start:start + CHUNK_POINTS]
            slot, n = start // CHUNK_POINTS % 2, len(stack)
            A = slots[slot, :n]
            if stack:
                # built while the worker inverts the held stack
                bound = _constrain(build_generator(stack, out=A))
            with np.errstate(all="ignore"):
                if held:
                    cond = _cond(norms, worker.take())
                if stack:
                    worker.hand((A, slots[2, :n]))
                    norms = _one_norms(A, out=slots[1 - slot, :n])
                    solved = (stack, *_solve(A), bound)
                if held:
                    failures, unphysical = _gate(cond, *held[1:])
            if held:
                yield held[0], held[1], failures, unphysical
            held, solved = solved, None
    finally:
        worker.stop()


class _Inverter(threading.Thread):
    """The worker thread of one ``_double_buffered`` call: it
    inverts each stack handed to it (``_invert``) and takes the 1-norms of
    the inverses.

    ``hand`` queues an ``(A, inverse)`` pair and returns at once. ``take``
    returns the norms of that pair, or raises what its inverse raised: if
    the worker has not picked the pair up yet, ``take`` takes it back off
    the queue and does the work itself, under the caller's np.errstate;
    otherwise it waits for the worker's outcome. The caller hands the next pair only after taking
    the last, so at most one pair is in flight, and exactly one thread
    inverts it. Where no thread can start (an interpreter shutting down),
    every pair is taken back.
    """

    def __init__(self):
        super().__init__(name="sgcvapor-factor")
        self._pairs, self._outcomes = SimpleQueue(), SimpleQueue()
        try:
            self.start()
        except RuntimeError:   # no new threads at interpreter shutdown
            pass

    def run(self) -> None:
        with np.errstate(all="ignore"):
            for pair in iter(self._pairs.get, None):
                self._outcomes.put(_inverse_norms(pair))

    def hand(self, pair) -> None:
        self._pairs.put(pair)

    def take(self) -> np.ndarray:
        try:
            outcomes = [_inverse_norms(self._pairs.get_nowait())]
        except Empty:
            outcomes = [self._outcomes.get()]
        # in a list that _only empties, so no frame refers to an exception
        return _only(outcomes)

    def stop(self) -> None:
        """Stop the thread once it is done with any pair in hand, join it,
        and drop a pair or outcome left queued: an error's frames refer back
        to this."""
        if self.ident is not None:
            self._pairs.put(None)
            self.join()
        self._pairs = self._outcomes = None


def _inverse_norms(pair):
    """The 1-norms of the inverses ``_invert`` puts in the ``(A, inverse)``
    pair, or the exception it raises. The caller ignores floating-point
    errors."""
    try:
        _invert(pair)
        return _one_norms(pair[1], out=pair[1])
    except Exception as exc:
        return exc


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


def _diverged(x: np.ndarray):
    """For each state of x (its last axis), True if a component exceeds
    DIVERGENCE_BOUND in magnitude or is not finite (NaN compares false, so
    the bound is tested the other way)."""
    return ~(np.abs(x) <= DIVERGENCE_BOUND).all(axis=-1)


def evolve(params: SystemParams, rho0: DensityMatrix, t_final: float,
           dt: float = DEFAULT_DT) -> DensityMatrix:
    """Integrate the equations of motion with classical RK4.

    ``t_final`` and ``dt`` are in units of 1/gamma_unit. Raises
    StepUnstable as soon as any component magnitude exceeds 10 or is not
    finite (the PAPER_LITERAL variant diverges from almost any state with
    rho33 > 0); the check runs once per 1/gamma of full steps and at the
    final time. The steps are the RK4 propagator of build_generator's L,
    applied a block of steps at a time as one matrix power; the states after
    up to CHECK_BATCH blocks are kept in one array and checked at once, and
    the first one that diverged gives the time reported. Hermiticity is
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
    blocks = n_full // check_every
    # overflow to inf or NaN is reported as StepUnstable, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        step = _rk4_propagator(L, dt)
        block = np.linalg.matrix_power(step, check_every)
        states = np.empty((min(blocks, CHECK_BATCH), len(x)))
        for done in range(0, blocks, CHECK_BATCH):
            batch = states[:blocks - done]
            for state in batch:
                x = np.matmul(block, x, out=state)
            diverged = _diverged(batch)
            if diverged.any():
                n = done + int(diverged.argmax()) + 1
                raise StepUnstable(
                    f"integration diverged at t = {n * check_every * dt:.3f}/gamma "
                    f"(max |component| > {DIVERGENCE_BOUND})")
        x = np.linalg.matrix_power(step, n_full % check_every) @ x
        if remainder > 0.0:
            x = _rk4_propagator(L, remainder) @ x
    if _diverged(x):
        raise StepUnstable("integration diverged (max |component| > 10 at final time)")
    return DensityMatrix.from_vector(x, check=False)
