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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .params import SystemParams
from .steady import _only, steady_state

# CODATA 2018 / SI 2019 exact-based values.
HBAR = 1.054571817e-34       # J s
EPSILON_0 = 8.8541878128e-12  # F/m
MU_0 = 1.25663706212e-6      # N/A^2
C_LIGHT = 2.99792458e8       # m/s

LOCAL_FIELD_POLE_TOL = 1e-12


class DegenerateProbe(ZeroDivisionError):
    """The effective probe coupling vanishes (at |p_align| = 1 or
    omegap_bare = 0); the response per unit probe field is undefined
    there."""


class LocalFieldPole(ArithmeticError):
    """N*gamma is within tolerance of 3: the Clausius-Mossotti denominator
    vanishes and the macroscopic response diverges."""


class Handedness(enum.Enum):
    LEFT_HANDED = "LeftHanded"      # Re(eps_r) < 0 and Re(mu_r) < 0
    NEG_EPS_ONLY = "NegEpsOnly"
    NEG_MU_ONLY = "NegMuOnly"
    RIGHT_HANDED = "RightHanded"


@dataclass(frozen=True)
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


def _probe_rabi_si(params: SystemParams) -> float:
    """The effective probe Rabi frequency in SI rad/s, the field per unit
    of which the polarizabilities are taken; DegenerateProbe names why it
    is zero."""
    omegap_si = params.omegap_si
    if omegap_si == 0.0:
        if abs(params.p_align) == 1.0:
            cause = "at |p_align| = 1"
        elif params.omegap_bare == 0.0:
            cause = "at omegap_bare = 0"
        else:
            cause = "by underflow of omegap_bare * sqrt(1 - p_align^2) * gamma_unit"
        raise DegenerateProbe(f"effective probe Rabi frequency is zero {cause}")
    return omegap_si


def electric_polarizability(rho24: complex, params: SystemParams) -> complex:
    """Electric polarizability volume (m^3) from the 2-4 coherence."""
    return 2.0 * params.d42 ** 2 * rho24 / (EPSILON_0 * HBAR * _probe_rabi_si(params))


def magnetic_polarizability(rho32: complex, params: SystemParams) -> complex:
    """Magnetic polarizability volume (m^3) from the 3-2 coherence.

    Uses the probe magnetic amplitude B_p = E_p/c with E_p = hbar*Omega_p/d42,
    so the electric dipole moment enters the conversion.
    """
    return (2.0 * MU_0 * params.mu23 * rho32 * C_LIGHT * params.d42
            / (HBAR * _probe_rabi_si(params)))


def permittivity(gamma_e: complex, density_n: float) -> complex:
    """Relative permittivity with the local-field (Clausius-Mossotti)
    correction: eps_r = 1 + N*ge / (1 - N*ge/3)."""
    w = density_n * gamma_e
    denom = 1.0 - w / 3.0
    if abs(denom) <= LOCAL_FIELD_POLE_TOL:
        raise LocalFieldPole(f"N*gamma_e = {w} is at the local-field pole (= 3)")
    return 1.0 + w / denom


def permeability(gamma_m: complex, density_n: float) -> complex:
    """Relative permeability from the magnetic Clausius-Mossotti relation:
    mu_r = (1 + 2*N*gm/3) / (1 - N*gm/3)."""
    w = density_n * gamma_m
    denom = 1.0 - w / 3.0
    if abs(denom) <= LOCAL_FIELD_POLE_TOL:
        raise LocalFieldPole(f"N*gamma_m = {w} is at the local-field pole (= 3)")
    return (1.0 + 2.0 * w / 3.0) / denom


def magnetic_polarizability_from_permeability(mu_r: complex, density_n: float) -> complex:
    """Invert the permeability relation: gm = (mu_r - 1)/(N*(2/3 + mu_r/3)).

    Round-trips with :func:`permeability` to roundoff; used as a
    consistency check on the local-field algebra.
    """
    return (mu_r - 1.0) / (density_n * (2.0 / 3.0 + mu_r / 3.0))


def refractive_index(eps_r: complex, mu_r: complex) -> complex:
    """Complex refractive index with the passive branch, Im(n) >= 0.

    n = sqrt(eps_r)*sqrt(mu_r), each factor on the principal branch (the
    negative real axis is approached from Im -> 0+), with the overall sign
    flipped if needed so the wave decays. When both real parts are negative
    and losses are small this gives Re(n) < 0, and n^2 = eps_r*mu_r always.
    """
    # fold a signed-zero imaginary part onto the passive side (Im -> 0+)
    eps_r = complex(eps_r)
    mu_r = complex(mu_r)
    if eps_r.imag == 0.0:
        eps_r = complex(eps_r.real, 0.0)
    if mu_r.imag == 0.0:
        mu_r = complex(mu_r.real, 0.0)
    n = complex(np.sqrt(eps_r) * np.sqrt(mu_r))
    if n.imag < 0.0:
        n = -n
    elif n.imag == 0.0 and n.real > 0.0 and eps_r.real < 0.0 and mu_r.real < 0.0:
        # lossless double-negative limit: take the left-handed root
        n = -n
    return n


def classify_handedness(eps_r: complex, mu_r: complex) -> Handedness:
    """Sign classification of the real parts; Re = 0 counts as non-negative."""
    neg_eps = eps_r.real < 0.0
    neg_mu = mu_r.real < 0.0
    if neg_eps and neg_mu:
        return Handedness.LEFT_HANDED
    if neg_eps:
        return Handedness.NEG_EPS_ONLY
    if neg_mu:
        return Handedness.NEG_MU_ONLY
    return Handedness.RIGHT_HANDED


_DEGENERATE = "response is undefined at |p_align| = 1"


def response_at(params):
    """Solve the steady state and map it to the macroscopic response.

    Propagates SingularSystem / NonPhysicalState from the solver,
    DegenerateProbe at |p_align| = 1, and LocalFieldPole at a
    Clausius-Mossotti divergence.

    ``params`` may also be a sequence of SystemParams, whose steady states
    are solved as one stack: the result is then a list whose item i is the
    record of point i, or the exception it would raise alone, returned
    instead of raised.
    """
    single = isinstance(params, SystemParams)
    points = [params] if single else params
    out = [DegenerateProbe(_DEGENERATE) if abs(p.p_align) >= 1.0 else None for p in points]
    live = [i for i, o in enumerate(out) if o is None]
    for i, state in zip(live, steady_state([points[i] for i in live])):
        if isinstance(state, Exception):
            out[i] = state
            continue
        try:
            out[i] = _record(points[i], state)
        except (DegenerateProbe, LocalFieldPole) as exc:
            # its traceback would hold this frame, and so ``out``, in a cycle
            out[i] = exc.with_traceback(None)
    # the traceback of the exception _only raises holds this frame: it must
    # not refer back to that exception
    state = None
    return _only(out) if single else out


def _record(params: SystemParams, rho) -> ResponseRecord:
    """The response at ``params`` of its steady state ``rho``."""
    rho24 = rho.rho24
    rho32 = rho.rho32
    ge = electric_polarizability(rho24, params)
    gm = magnetic_polarizability(rho32, params)
    eps_r = permittivity(ge, params.density_n)
    mu_r = permeability(gm, params.density_n)
    n = refractive_index(eps_r, mu_r)
    return ResponseRecord(
        delta_p=params.delta_p,
        p_align=params.p_align,
        rho24=rho24,
        rho32=rho32,
        gamma_e=ge,
        gamma_m=gm,
        eps_r=eps_r,
        mu_r=mu_r,
        n_index=n,
        handedness=classify_handedness(eps_r, mu_r),
    )
