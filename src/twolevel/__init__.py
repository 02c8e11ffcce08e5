"""Population transfer in driven two-level atoms.

A drive whose action integral reaches an odd multiple of pi/2 transfers the
population of a (nearly) degenerate two-level pair completely; for a cosine
drive that means chi/omega = pi/2 (``transfer_cosine``).  This package
combines exact fixed-step integration of the coupled amplitude equations with
the closed-form degenerate-limit solution, the quartic flat-top expansion and
the frequency design rule it implies, the series leakage bound at the peak,
exact higher derivatives of the transfer probability for pulse flattening, a
small genetic pulse-shape optimizer, and the hydrogen 2s-2p numbers that make
the model concrete.

The names below are loaded on first use (PEP 562), so ``import twolevel``
loads no numpy: :mod:`twolevel.cli` sets numpy's BLAS thread count before
numpy loads.
"""
import importlib

__version__ = "0.1.0"

# The public names of each submodule.
_EXPORTS = {
    "core": ("AmplitudeState", "Cosine", "GaussianApprox", "HarmonicSum", "PulseSpec",
             "Trajectory", "TwoLevelAtom", "action", "pulse_from_dict", "pulse_value"),
    "analytic": ("DesignRequest", "TRANSFER_ACTION", "degenerate_amplitudes",
                 "design_frequency", "detuning_sensitivity", "leakage_at_peak",
                 "p2_derivatives", "populations_from_action", "quartic_peak_approx",
                 "transfer_cosine", "transfer_peak", "transfer_populations"),
    "integrator": ("IntegrationConfig", "IntegrationError", "integrate",
                   "max_population_deviation", "populated_window", "populated_windows",
                   "step_halving_error"),
    "pulses": ("OptimizationResult", "OptimizerConfig", "ShapingObjective", "flatness_order",
               "normalize_for_transfer", "run_optimizer", "second_derivative_nulled_pulse"),
    "hydrogen": ("FieldRegime", "ValidityReport", "dipole_2s2p", "field_for_transfer",
                 "hydrogen_atom", "lamb_shift", "next_level_gap", "validity_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
