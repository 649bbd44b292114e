"""Microscopic polarizabilities and macroscopic response of the vapor.

The steady-state coherence rho24 drives an electric dipole and rho32 a
magnetic dipole. The microscopic polarizability volumes are

    gamma_e = 2 d42^2 rho24 / (eps0 hbar Omega_p)
    gamma_m = 2 mu0 mu23 rho32 / B_p,   B_p = E_p / c,  E_p = hbar Omega_p / d42

with Omega_p the effective probe Rabi frequency in SI rad/s. The vapor is
dense (N ~ 5e24 m^-3), so neighboring dipoles contribute a local field and
the macroscopic response follows from the Clausius-Mossotti relations

    eps_r = 1 + N ge / (1 - N ge / 3)
    mu_r  = (1 + 2 N gm / 3) / (1 - N gm / 3)

whose common form saturates at -2 when |N g| -> infinity. The refractive
index is n = sqrt(eps_r) sqrt(mu_r) with each factor on the principal
branch and the overall sign fixed by passivity, Im(n) >= 0; for a
double-negative (left-handed) medium with small losses this reproduces
n = -sqrt(eps_r mu_r).

``response_at`` is ``steady_state`` with the mapping as its private
``_map``, for a single SystemParams and for a sequence alike; on a
``params.PointsAlong`` of its grid it is also what a sweep runs. Each
stack is mapped, with its own points, on the caller's thread while the
worker thread inverts the next stack. The mapping reads rho24 and rho32
from a stack's unit-trace solutions X and builds no state: the solve
hands it one dict from row index to each failing row's SingularSystem or
NonPhysicalState, which it keeps as those rows' outcomes. It decides
every DegenerateProbe:
a point whose probe coupling vanishes (|p_align| = 1 among them), or
whose polarizability numerator underflows (a probe too weak for double
precision), fails with DegenerateProbe after the solve, whatever the
solve gave, rather than reading as vacuum. Its arithmetic is written
once, on pairs of floats or of float arrays, by helpers that take no
complex operator (``_scale`` to ``_index``), so no bit of it rests on the
interpreter's complex arithmetic: the scalar functions below and the
array pass over a longer stack give each record the same bits. A single
point, and a row whose check may fail or whose values are not all
finite, goes to the scalar functions, which raise its error. No
SystemParams is built per point of a sweep.
"""

from __future__ import annotations

import cmath
import enum
import operator
from dataclasses import dataclass, fields
from math import inf, isfinite

import numpy as np

from .model import _rho24_rho32
from .params import PointsAlong, SystemParams
from .steady import RESIDUAL_TOL, steady_state

# CODATA 2018 / SI 2019 exact-based values.
HBAR = 1.054571817e-34       # J s
EPSILON_0 = 8.8541878128e-12  # F/m
MU_0 = 1.25663706212e-6      # N/A^2
C_LIGHT = 2.99792458e8       # m/s

LOCAL_FIELD_POLE_TOL = 1e-12


class DegenerateProbe(ZeroDivisionError):
    """The effective probe coupling vanishes (at |p_align| = 1 or
    omegap_bare = 0, or by underflow); the response per unit probe field
    is undefined there. Also raised when a polarizability numerator
    underflows: the probe is too weak for its response to be computed in
    double precision."""


class LocalFieldPole(ArithmeticError):
    """N*gamma is within tolerance of 3: the Clausius-Mossotti denominator
    vanishes and the macroscopic response diverges. Also raised where
    N*gamma is not finite (it overflows at a huge d42 or mu23), or where it
    is finite but so large that the relation overflows: the relation has
    no finite value to take there."""


class Handedness(enum.Enum):
    LEFT_HANDED = "LeftHanded"      # Re(eps_r) < 0 and Re(mu_r) < 0
    NEG_EPS_ONLY = "NegEpsOnly"
    NEG_MU_ONLY = "NegMuOnly"
    RIGHT_HANDED = "RightHanded"


@dataclass(frozen=True, slots=True)
class ResponseRecord:
    """Electromagnetic response at one operating point.

    gamma_e and gamma_m are complex polarizability volumes in m^3 (N*gamma
    is dimensionless); rho24 and rho32 are the coherences they derive from.
    """

    delta_p: float
    p_align: float
    rho24: complex
    rho32: complex
    gamma_e: complex
    gamma_m: complex
    eps_r: complex
    mu_r: complex
    n_index: complex
    handedness: Handedness


def _probe_vanishes(omegap_si):
    """True if eps0 * hbar * Omega_p, the smaller divisor of the two
    polarizabilities, is zero: at Omega_p = 0 or when it underflows. On a
    float array, a bool array, element by element, to the same bits."""
    return EPSILON_0 * HBAR * omegap_si == 0.0


def _degenerate_probe(p_align: float, omegap_bare: float, omegap_si: float) -> DegenerateProbe:
    """The DegenerateProbe of a vanishing probe coupling, naming why it
    vanishes."""
    if abs(p_align) == 1.0:
        return DegenerateProbe(_DEGENERATE)
    if omegap_bare == 0.0:
        cause = "at omegap_bare = 0"
    elif omegap_si == 0.0:
        cause = "by underflow of omegap_bare * sqrt(1 - p_align^2) * gamma_unit"
    else:
        return DegenerateProbe(f"eps0 * hbar * Omega_p underflows to zero at the "
                               f"effective probe Rabi frequency {omegap_si:.3g} rad/s")
    return DegenerateProbe(f"effective probe Rabi frequency is zero {cause}")


def _probe_rabi_si(params: SystemParams) -> float:
    """The effective probe Rabi frequency in SI rad/s, the field per unit
    of which the polarizabilities are taken."""
    omegap_si = params.omegap_si
    if _probe_vanishes(omegap_si):
        raise _degenerate_probe(params.p_align, params.omegap_bare, omegap_si)
    return omegap_si


def electric_polarizability(rho24: complex, params: SystemParams) -> complex:
    """Electric polarizability volume (m^3) from the 2-4 coherence."""
    return complex(*_electric((rho24.real, rho24.imag), params.d42, _probe_rabi_si(params)))


def _electric(rho24, d42: float, omegap_si: float):   # on pairs
    numerator = _scale(2.0 * d42 ** 2, rho24)
    if _underflows(numerator, rho24):
        raise _numerator_underflow("2 d42^2 rho24", "rho24", rho24)
    return _over(numerator, EPSILON_0 * HBAR * omegap_si)


def magnetic_polarizability(rho32: complex, params: SystemParams) -> complex:
    """Magnetic polarizability volume (m^3) from the 3-2 coherence.

    Uses the probe magnetic amplitude B_p = E_p/c with E_p = hbar*Omega_p/d42,
    so the electric dipole moment enters the conversion.
    """
    return complex(*_magnetic((rho32.real, rho32.imag), params.d42, params.mu23,
                              _probe_rabi_si(params)))


def _magnetic(rho32, d42: float, mu23: float, omegap_si: float):   # on pairs
    # checked before * C_LIGHT too, which can lift a product that lost its
    # digits back into the normal range
    numerator = _scale(2.0 * MU_0 * mu23, rho32)
    if _underflows(numerator, rho32):
        raise _numerator_underflow("2 mu0 mu23 rho32", "rho32", rho32)
    numerator = _scale(d42, _scale(C_LIGHT, numerator))
    if _underflows(numerator, rho32):
        raise _numerator_underflow("2 mu0 mu23 rho32 c d42", "rho32", rho32)
    return _over(numerator, HBAR * omegap_si)


# Below this magnitude a double is subnormal and rounds to a multiple of
# 2**-1074, which can cost more than RESIDUAL_TOL of its value: more digits
# than the steady solve itself is trusted to keep.
_UNDERFLOW_BOUND = 2.0 ** -1074 / RESIDUAL_TOL


def _underflows(product, coherence):
    """True if a part of ``product``, the pair of a multiple of the pair
    ``coherence`` by positive reals taken part by part, has underflowed: it
    is zero, or subnormal and below _UNDERFLOW_BOUND, where that part of
    the coherence is not zero. On arrays, row by row."""
    return (((abs(product[0]) < _UNDERFLOW_BOUND) & (coherence[0] != 0.0))
            | ((abs(product[1]) < _UNDERFLOW_BOUND) & (coherence[1] != 0.0)))


def _numerator_underflow(numerator: str, name: str, coherence) -> DegenerateProbe:
    return DegenerateProbe(f"polarizability numerator {numerator} underflows at "
                           f"{name} = {complex(*coherence):.3g}: the probe is too weak")


def permittivity(gamma_e: complex, density_n: float) -> complex:
    """Relative permittivity with the local-field (Clausius-Mossotti)
    correction: eps_r = 1 + N*ge / (1 - N*ge/3)."""
    w, denom = _local_field((gamma_e.real, gamma_e.imag), density_n)
    if LOCAL_FIELD_POLE_TOL < abs(complex(*denom)) < inf:
        eps_r = complex(*_plus(1.0, _quot(w, denom)))
        if cmath.isfinite(eps_r):
            return eps_r
    raise _local_field_pole("N*gamma_e", w, denom)


def permeability(gamma_m: complex, density_n: float) -> complex:
    """Relative permeability from the magnetic Clausius-Mossotti relation:
    mu_r = (1 + 2*N*gm/3) / (1 - N*gm/3)."""
    w, denom = _local_field((gamma_m.real, gamma_m.imag), density_n)
    if LOCAL_FIELD_POLE_TOL < abs(complex(*denom)) < inf:
        mu_r = complex(*_quot(_plus(1.0, _over(_scale(2.0, w), 3.0)), denom))
        if cmath.isfinite(mu_r):
            return mu_r
    raise _local_field_pole("N*gamma_m", w, denom)


def _local_field_pole(name: str, w, denom) -> LocalFieldPole:
    """The LocalFieldPole of the pair ``w`` = N*gamma, named ``name``, where
    its relation has no finite value: w is not finite, its denominator
    ``denom`` = 1 - w/3 is at the pole, or the relation overflows."""
    if not (isfinite(w[0]) and isfinite(w[1])):
        return LocalFieldPole(f"{name} = {complex(*w)} is not finite")
    if abs(complex(*denom)) <= LOCAL_FIELD_POLE_TOL:
        return LocalFieldPole(f"{name} = {complex(*w)} is at the local-field pole (= 3)")
    return LocalFieldPole(f"{name} = {complex(*w)} overflows the local-field relation")


def refractive_index(eps_r: complex, mu_r: complex) -> complex:
    """Complex refractive index with the passive branch, Im(n) >= 0.

    n = sqrt(eps_r)*sqrt(mu_r), each factor on the principal branch (the
    negative real axis is approached from Im -> 0+), with the overall sign
    flipped if needed so the wave decays. When both real parts are negative
    and losses are small this gives Re(n) < 0, and n^2 = eps_r*mu_r always.
    """
    n, flip = _index(complex(np.sqrt(complex(eps_r.real, eps_r.imag + 0.0))),
                     complex(np.sqrt(complex(mu_r.real, mu_r.imag + 0.0))),
                     eps_r.real < 0.0, mu_r.real < 0.0)
    return complex(-n[0], -n[1]) if flip else complex(*n)


# The handedness of each (Re eps_r < 0, Re mu_r < 0), indexed by 2 * the
# first plus the second.
_BY_SIGNS = np.array([Handedness.RIGHT_HANDED, Handedness.NEG_MU_ONLY,
                      Handedness.NEG_EPS_ONLY, Handedness.LEFT_HANDED], dtype=object)


def classify_handedness(eps_r: complex, mu_r: complex) -> Handedness:
    """Sign classification of the real parts; Re = 0 counts as non-negative.
    On complex arrays, an object array of the classes, row by row."""
    return _BY_SIGNS[2 * (eps_r.real < 0.0) + (mu_r.real < 0.0)]


_DEGENERATE = "response is undefined at |p_align| = 1"

# What ``_record`` reads from a point besides its steady state, in the order
# of its arguments: a PointsAlong gives them a column at a time, a list of
# SystemParams with one attrgetter per point. The probe's come first, as
# ``_record`` tests them first: the mapping decides every DegenerateProbe,
# and a point whose probe coupling vanishes, or whose polarizability
# numerator underflows, fails with it after the solve, whatever the solve
# gave.
_MAPPING_FIELDS = ("omegap_si", "omegap_bare", "d42", "mu23", "density_n", "delta_p", "p_align")
_mapping_values = operator.attrgetter(*_MAPPING_FIELDS)


def response_at(params):
    """Solve the steady state and map it to the macroscopic response.

    Propagates SingularSystem / NonPhysicalState from the solver,
    DegenerateProbe at |p_align| = 1, at a vanishing probe coupling or
    when a polarizability numerator underflows, and LocalFieldPole at a
    Clausius-Mossotti divergence, where N*gamma is not finite, or where
    the relation overflows at a finite N*gamma.

    The call is ``steady_state``'s, with the mapping as its ``_map``, and
    the mapping decides every DegenerateProbe: a point whose probe
    coupling vanishes, or whose polarizability numerator underflows,
    fails with it after the solve, whatever the solve gave. A single
    SystemParams is solved and mapped as a stack of one, to the bits of
    the same point in a sequence; its record is returned, or its error
    raised, through ``steady_state``'s own one-point call.

    ``params`` may also be a sequence of SystemParams that supports
    slicing, whose steady states are solved as stacks of at most
    CHUNK_POINTS points: the result is then a list whose item i is the
    record of point i, or the exception it would raise alone, returned
    instead of raised.
    """
    return steady_state(params, _map=_map_points)


def _map_points(stack, X, failures: dict) -> list:
    """``steady_state``'s ``_map`` for ``response_at``: ``_map_stack`` with
    the mapping values of the ``stack`` of points itself, so that no
    column of a whole sweep stays alive through the solve."""
    if isinstance(stack, PointsAlong):
        mapping = [stack.column(name) for name in _MAPPING_FIELDS]
    else:
        mapping = zip(*map(_mapping_values, stack))
    return _map_stack(X, failures, *mapping)


def _record(rho24, rho32, omegap_si: float, omegap_bare: float, d42: float, mu23: float,
            density_n: float, delta_p: float, p_align: float) -> ResponseRecord:
    """The response of one point from its coherences, as pairs, and its
    mapping values; DegenerateProbe first where its probe vanishes."""
    if _probe_vanishes(omegap_si):
        raise _degenerate_probe(p_align, omegap_bare, omegap_si)
    ge = complex(*_electric(rho24, d42, omegap_si))
    gm = complex(*_magnetic(rho32, d42, mu23, omegap_si))
    eps_r = permittivity(ge, density_n)
    mu_r = permeability(gm, density_n)
    n = refractive_index(eps_r, mu_r)
    record = object.__new__(ResponseRecord)
    for set_slot, value in zip(_SET_SLOTS, (delta_p, p_align, complex(*rho24), complex(*rho32),
                                            ge, gm, eps_r, mu_r, n,
                                            classify_handedness(eps_r, mu_r))):
        set_slot(record, value)
    return record


def _map_stack(X, failures: dict, *mapping) -> list:
    """The record of each row of the unit-trace stack ``X`` (N, 16), or its
    exception: its SingularSystem or NonPhysicalState in ``failures``, the
    solve's dict by row index, or the one ``_record`` raises; ``mapping``
    holds ``_record``'s values, a column each. A row whose probe vanishes
    drops its entry (the system may be singular at |p_align| = 1), so
    ``_record`` fails it with DegenerateProbe.

    A stack of one goes to ``_record``: on one row the array pass
    (``_stack_records``) costs about ten times as much (150 against 15 µs,
    Python 3.11, numpy 2.4) for the same bits. A row that pass flags, where
    a check may fail or a value is not finite, goes to ``_record`` too, so
    the errors, their texts and the order of the checks have one source.
    """
    failures = {k: error for k, error in failures.items() if not _probe_vanishes(mapping[0][k])}
    if len(X) == 1:
        return [failures.get(0) or _mapped_alone(X[0], [column[0] for column in mapping])]
    outcomes, flagged = _stack_records(X, *mapping)
    for k, error in failures.items():
        outcomes[k] = error
    for k in flagged:
        if k not in failures:
            outcomes[k] = _mapped_alone(X[k], [column[k] for column in mapping])
    return outcomes


def _mapped_alone(x, values: list):
    """The record of the unit-trace solution ``x`` (16,) with its mapping
    ``values``, or the DegenerateProbe or LocalFieldPole ``_record`` raises."""
    try:
        return _record(*_rho24_rho32(x.tolist()), *values)
    except (DegenerateProbe, LocalFieldPole) as exc:
        # its traceback would hold this frame, and so the stack
        return exc.with_traceback(None)


# Each field's slot setter, in order: records are set as the dataclass __init__
# sets them (there is no __post_init__), a slot at a time.
_SET_SLOTS = [getattr(ResponseRecord, f.name).__set__ for f in fields(ResponseRecord)]


def _stack_records(X, omegap_si, omegap_bare, d42, mu23, density_n, delta_p, p_align):
    """``_record`` of each row of a stack, as arrays: ``(records, flagged)``,
    with the indices of the rows to map by ``_record`` instead.

    Each step is the scalar functions' own, by the same pair helpers on
    float arrays (numpy's complex multiply and divide may round otherwise:
    FMA, other formulas), so each row gets the bits ``_record`` gives it.
    The checks are flagged, not raised: the vanishing probe and the
    underflow checks as ``_record`` makes them, the local-field pole with a
    margin, and any row with a value that is not finite (whose NaN may
    carry another sign bit here).
    """
    r24, r32 = _rho24_rho32(X.T)
    omegap_si, mu23, density_n = np.array(omegap_si), np.array(mu23), np.array(density_n)
    values = np.empty((7, len(X)), dtype=complex)
    values.real[0], values.imag[0] = r24
    values.real[1], values.imag[1] = r32
    # a row at or near a pole goes to _record: the margin of 2 keeps the
    # decision from resting on np.hypot matching abs() to the last bit
    pole = 2.0 * LOCAL_FIELD_POLE_TOL
    with np.errstate(all="ignore"):
        # 2.0 * d42 ** 2 by Python's float power, which numpy's may not match
        numerator = _scale(np.array([2.0 * d ** 2 for d in d42]), r24)
        flagged = _probe_vanishes(omegap_si) | _underflows(numerator, r24)
        ge = _over(numerator, EPSILON_0 * HBAR * omegap_si)
        numerator = _scale(2.0 * MU_0 * mu23, r32)
        flagged |= _underflows(numerator, r32)
        numerator = _scale(np.array(d42), _scale(C_LIGHT, numerator))
        flagged |= _underflows(numerator, r32)
        gm = _over(numerator, HBAR * omegap_si)
        values.real[2], values.imag[2] = ge
        values.real[3], values.imag[3] = gm

        w, denom = _local_field(ge, density_n)
        flagged |= ~(np.hypot(*denom) > pole)
        values.real[4], values.imag[4] = _plus(1.0, _quot(w, denom))
        w, denom = _local_field(gm, density_n)
        flagged |= ~(np.hypot(*denom) > pole)
        values.real[5], values.imag[5] = _quot(_plus(1.0, _over(_scale(2.0, w), 3.0)), denom)

        # refractive_index: a signed-zero imaginary part folded onto +0.0
        roots = values[4:6].copy()
        roots.imag += 0.0
        np.sqrt(roots, out=roots)
        n, flip = _index(*roots, values.real[4] < 0.0, values.real[5] < 0.0)
        values.real[6] = np.where(flip, -n[0], n[0])
        values.imag[6] = np.where(flip, -n[1], n[1])
        flagged |= ~np.isfinite(values).all(axis=0)
    records = [object.__new__(ResponseRecord) for _ in delta_p]
    by_field = (delta_p, p_align, *values.tolist(),
                classify_handedness(values[4], values[5]).tolist())
    for set_slot, column in zip(_SET_SLOTS, by_field):
        any(map(set_slot, records, column))   # each call returns None
    return records, flagged.nonzero()[0].tolist()


def _scale(f, z):
    """f * z for a real f and a pair z, as (f + 0j) * z."""
    re, im = z
    return f * re - 0.0 * im, f * im + 0.0 * re


def _plus(f, z):
    """f + z for a real f and a pair z, as (f + 0j) + z."""
    return f + z[0], 0.0 + z[1]


def _over(z, x):
    """z / x for a pair z and a real, nonzero x, as divided by x + 0j."""
    re, im = z
    ratio = 0.0 / x
    return (re + im * ratio) / x, (im - re * ratio) / x


def _quot(a, b):
    """a / b for pairs a = (ar, ai), b = (br, bi) as CPython's ``_Py_c_quot`` divides:
    Smith's method, through whichever part of the divisor is the larger in
    magnitude. The scalar relations raise before a divisor at zero or not
    finite; on arrays, row by row, such a row comes out as whatever, and
    the caller flags it."""
    (ar, ai), (br, bi) = a, b
    real_larger = abs(br) >= abs(bi)
    rows = isinstance(real_larger, np.ndarray)
    if rows or real_larger:
        ratio = bi / br
        denom = br + bi * ratio
        by_real = ((ar + ai * ratio) / denom, (ai - ar * ratio) / denom)
        if not rows or real_larger.all():
            return by_real
    ratio = br / bi
    denom = br * ratio + bi
    by_imag = ((ar * ratio + ai) / denom, (ai * ratio - ar) / denom)
    if not rows:
        return by_imag
    return (np.where(real_larger, by_real[0], by_imag[0]),
            np.where(real_larger, by_real[1], by_imag[1]))


def _local_field(gamma, density_n):
    """Of a polarizability ``gamma``, a pair: w = N gamma and the
    Clausius-Mossotti denominator 1 - w / 3, as pairs."""
    w = _scale(density_n, gamma)
    third = _over(w, 3.0)
    return w, (1.0 - third[0], 0.0 - third[1])


def _index(eps_root, mu_root, neg_eps, neg_mu):
    """n = sqrt(eps_r) sqrt(mu_r) as a pair, from the roots (numbers or
    complex arrays), and where ``refractive_index``'s passive branch flips
    its sign, given where Re eps_r and Re mu_r are negative."""
    er, ei, mr, mi = eps_root.real, eps_root.imag, mu_root.real, mu_root.imag
    n = (er * mr - ei * mi, er * mi + ei * mr)
    return n, (n[1] < 0.0) | ((n[1] == 0.0) & (n[0] > 0.0) & neg_eps & neg_mu)
