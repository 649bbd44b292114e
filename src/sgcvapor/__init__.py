"""Steady-state electromagnetic response of a dense four-level Y-type
atomic vapor with interfering spontaneous decay channels.

The package solves the density-matrix equations of motion for the
steady state, maps the probe coherences to electric and magnetic
polarizabilities, applies Clausius-Mossotti local-field corrections, and
classifies where the medium becomes left-handed (simultaneously negative
permittivity and permeability).
"""

__version__ = "0.1.0"

from .params import (EquationVariant, SystemParams, ValidationError,
                     effective_rabi)
from .model import (DensityMatrix, GeneratorMatrix, LEVEL3_COHERENCE_INDICES,
                    build_generator, eom_rhs, unvectorize, vectorize)
from .steady import (NonPhysicalState, SingularSystem, StepUnstable, evolve,
                     steady_state)
from .response import (DegenerateProbe, Handedness, LocalFieldPole,
                       ResponseRecord, classify_handedness,
                       electric_polarizability, magnetic_polarizability,
                       permeability, permittivity, refractive_index,
                       response_at)
from .sweep import (EmptyTable, SweepAxis, SweepExtrema, SweepFailure,
                    SweepTable, detect_bands, find_extrema, sweep_alignment,
                    sweep_detuning)
from .calibrate import (CalibratedDipoles, CalibrationError,
                        calibrate_dipoles, calibrated_params)

__all__ = [
    "CalibratedDipoles", "CalibrationError", "DegenerateProbe",
    "DensityMatrix", "EmptyTable", "EquationVariant", "GeneratorMatrix",
    "Handedness", "LEVEL3_COHERENCE_INDICES", "LocalFieldPole",
    "NonPhysicalState", "ResponseRecord", "SingularSystem", "StepUnstable",
    "SweepAxis", "SweepExtrema", "SweepFailure", "SweepTable",
    "SystemParams", "ValidationError", "build_generator",
    "calibrate_dipoles", "calibrated_params", "classify_handedness",
    "detect_bands", "effective_rabi", "electric_polarizability", "eom_rhs",
    "evolve", "find_extrema", "magnetic_polarizability",
    "permeability", "permittivity", "refractive_index", "response_at",
    "steady_state", "sweep_alignment", "sweep_detuning", "unvectorize",
    "vectorize",
]
