"""Population transfer in driven two-level atoms.

A drive whose action integral reaches an odd multiple of pi/2 transfers the
population of a (nearly) degenerate two-level pair completely; for a cosine
drive that means chi/omega = pi/2.  This package combines exact fixed-step
integration of the coupled amplitude equations with the closed-form
degenerate-limit solution, the quartic flat-top expansion and the frequency
design rule it implies, truncated-series leakage bounds, exact higher
derivatives of the transfer probability for pulse flattening, a small genetic
pulse-shape optimizer, and the hydrogen 2s-2p numbers that make the model
concrete.
"""

__version__ = "0.1.0"

from .core import (
    AmplitudeState,
    Cosine,
    GaussianApprox,
    HarmonicSum,
    PulseSpec,
    Trajectory,
    TwoLevelAtom,
    action,
    pulse_from_dict,
    pulse_value,
)
from .analytic import (
    DesignRequest,
    degenerate_amplitudes,
    delta_pulse_populations,
    design_frequency,
    detuning_sensitivity,
    leakage_at_peak,
    leakage_estimate,
    p2_derivatives,
    populations_from_action,
    quartic_peak_approx,
    transfer_populations,
)
from .integrator import (
    IntegrationConfig,
    IntegrationError,
    integrate,
    max_population_deviation,
    populated_window,
    populated_windows,
    step_halving_error,
)
from .pulses import (
    OptimizationResult,
    OptimizerConfig,
    ShapingObjective,
    flatness_order,
    normalize_for_transfer,
    run_optimizer,
    second_derivative_nulled_pulse,
)
from .hydrogen import (
    FieldRegime,
    ValidityReport,
    dipole_2s2p,
    field_for_transfer,
    hydrogen_atom,
    lamb_shift,
    next_level_gap,
    validity_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
