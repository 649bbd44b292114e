"""Physical parameters of the four-level Y-type vapor.

Level scheme: |1> ground, |2> intermediate, |3>/|4> nearly degenerate upper
levels. A resonant coupling field Omega_1 drives 1<->2; the probe couples
2<->4 electrically and 2<->3 magnetically. The two upper levels share decay
to |2>, and when their dipole moments are non-orthogonal the decay channels
interfere (spontaneously generated coherence). The alignment parameter p
(p = 0 orthogonal, |p| = 1 parallel/antiparallel) sets the interference
strength, and both Rabi frequencies are rescaled by sqrt(1 - p^2) because
each field may address only its own transition.

All rates and frequencies are stored in units of ``gamma_unit``; SI
conversion happens only where polarizabilities are computed.
"""

from __future__ import annotations

import enum
import math
from math import isfinite
from dataclasses import dataclass, replace

import numpy as np


class ValidationError(ValueError):
    """A physical or numerical invariant was violated."""


class EquationVariant(enum.Enum):
    """Which form of the upper-level population equation to use.

    CORRECTED uses the cross-damping form -2*gamma3*rho33 in the rho33
    equation (the default; conserves probability and is dynamically stable).
    PAPER_LITERAL keeps the self-amplifying +2*gamma3*rho33 form for audit
    purposes; its dynamics diverge, though the algebraic fixed point still
    exists.
    """

    CORRECTED = "corrected"
    PAPER_LITERAL = "paper"


def effective_rabi(omega_bare: float, p_align: float) -> float:
    """Rescale a bare Rabi frequency by the dipole-alignment factor.

    Each field acts on a single transition only, which costs a factor
    sqrt(1 - p^2): the coupling vanishes at full alignment |p| = 1.

    Raises ValidationError unless |p_align| <= 1 (NaN included).
    """
    if not abs(p_align) <= 1.0:
        raise ValidationError(f"|p_align| must be <= 1, got {p_align}")
    if abs(p_align) == 1.0:
        return 0.0
    return omega_bare * math.sqrt(1.0 - p_align * p_align)


# the fields that must be positive and finite, in the order they are checked
_POSITIVE = ("gamma_unit", "gamma2", "gamma3", "gamma4", "density_n", "d42", "mu23")


@dataclass(frozen=True)
class SystemParams:
    """All physical and numerical inputs for one operating point.

    Rates and frequencies are in units of gamma_unit. 2*gamma2 is the decay
    rate 2->1, 2*gamma3 and 2*gamma4 the decay rates 3->2 and 4->2.
    delta_p = omega_24 - omega_p is the probe detuning. density_n is the
    vapor number density in m^-3; d42 (C*m) and mu23 (J/T) are the electric
    and magnetic transition dipole moments entering the response only.
    """

    gamma_unit: float = 1.0e8       # s^-1, the overall rate scale
    gamma2: float = 0.8
    gamma3: float = 0.8
    gamma4: float = 0.8
    omega1_bare: float = 10.0
    omegap_bare: float = 0.2
    p_align: float = 0.5
    delta_p: float = 0.0
    density_n: float = 5.0e24       # m^-3
    d42: float = 1.0e-29            # C*m
    mu23: float = 9.274e-24         # J/T (one Bohr magneton)
    equation_variant: EquationVariant = EquationVariant.CORRECTED

    def __post_init__(self) -> None:
        for name in _POSITIVE:
            value = getattr(self, name)
            if not (value > 0.0 and isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        # the response takes d42 ** 2, which raises OverflowError where the
        # square overflows
        if not isfinite(self.d42 * self.d42):
            raise ValidationError(
                f"d42 must have a finite square, below about 1.34e154, got {self.d42}")
        omega1_bare, omegap_bare = self.omega1_bare, self.omegap_bare
        if not (isfinite(omega1_bare) and isfinite(omegap_bare) and isfinite(self.delta_p)):
            for name in ("omega1_bare", "omegap_bare", "delta_p"):
                if not isfinite(getattr(self, name)):
                    raise ValidationError(f"{name} must be finite")
        if omega1_bare < 0.0 or omegap_bare < 0.0:
            raise ValidationError("bare Rabi frequencies must be non-negative")
        if not abs(self.p_align) <= 1.0:
            raise ValidationError(f"|p_align| must be <= 1, got {self.p_align}")
        if not isinstance(self.equation_variant, EquationVariant):
            raise ValidationError(f"equation_variant must be an EquationVariant, got {self.equation_variant!r}")

    # Effective couplings are derived on demand, never stored.

    @property
    def omega1(self) -> float:
        """Effective coupling Rabi frequency (gamma units)."""
        return effective_rabi(self.omega1_bare, self.p_align)

    @property
    def omegap(self) -> float:
        """Effective probe Rabi frequency (gamma units)."""
        return effective_rabi(self.omegap_bare, self.p_align)

    @property
    def omegap_si(self) -> float:
        """Effective probe Rabi frequency in SI rad/s."""
        return self.omegap * self.gamma_unit

    @property
    def sgc_rate(self) -> float:
        """Cross-damping rate p*sqrt(gamma3*gamma4) of the interfering decay
        channels (gamma units, carries the sign of p)."""
        return self.p_align * math.sqrt(self.gamma3 * self.gamma4)


class PointsAlong:
    """The operating points of ``base`` with ``field`` ("delta_p" or
    "p_align") set to each of ``values`` (a list of floats) in turn.

    A sequence of SystemParams that builds an item only when it is
    indexed or iterated, and a PointsAlong when sliced: the layers that
    take a sequence of points read it a whole column at a time through
    :func:`column`, so a sweep makes no SystemParams per point. The
    column of ``field`` is ``values`` itself, so what is built from it
    holds the same float objects. A column derived from ``p_align`` is
    one array expression over the values, evaluated on each read, and
    raises ``effective_rabi``'s ValidationError at the first value with
    |p_align| > 1 or NaN. The values are not otherwise validated here;
    the caller must check them as ``SystemParams`` would.
    """

    def __init__(self, base: SystemParams, field: str, values: list):
        if field not in ("delta_p", "p_align"):
            raise ValidationError(f"PointsAlong sweeps 'delta_p' or 'p_align', not {field!r}")
        self.base = base
        self.field = field
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        """The point at ``i``, or the PointsAlong of a slice of the values."""
        if isinstance(i, slice):
            return PointsAlong(self.base, self.field, self.values[i])
        return replace(self.base, **{self.field: self.values[i]})

    def column(self, name: str) -> list:
        """The attribute ``name`` of each point, as a list of floats."""
        if name == self.field:
            return self.values
        if self.field != "p_align" or name not in ("omega1", "omegap", "omegap_si", "sgc_rate"):
            return [getattr(self.base, name)] * len(self.values)
        # the SystemParams property of each point, to its bits
        p = np.array(self.values, dtype=float)
        magnitude = np.abs(p)
        outside = ~(magnitude <= 1.0)
        if outside.any():
            raise ValidationError(f"|p_align| must be <= 1, got {self.values[outside.argmax()]}")
        base = self.base
        if name == "sgc_rate":
            return (p * math.sqrt(base.gamma3 * base.gamma4)).tolist()
        bare = base.omega1_bare if name == "omega1" else base.omegap_bare
        # effective_rabi's 0.0 at |p| = 1, also where bare is -0.0
        rabi = np.where(magnitude == 1.0, 0.0, bare * np.sqrt(1.0 - p * p))
        return (rabi * base.gamma_unit if name == "omegap_si" else rabi).tolist()


def column(points, name: str) -> list:
    """The attribute ``name`` of each of ``points`` (a sequence of
    SystemParams), as a sequence."""
    if isinstance(points, PointsAlong):
        return points.column(name)
    return [getattr(point, name) for point in points]


def take(points, rows):
    """The points of ``points`` at the increasing indices ``rows``, as a
    sequence of the same kind."""
    if isinstance(points, PointsAlong):
        return PointsAlong(points.base, points.field, [points.values[i] for i in rows])
    return [points[i] for i in rows]
