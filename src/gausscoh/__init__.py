"""Phase-space toolkit for Gaussian-state coherence.

Covariance-matrix representation of m-mode Gaussian states, closed-form
coherence measures, incoherent Gaussian channels with Petz recovery, and a
certificate-producing decision procedure for equivalence under incoherent
operations.

Every public name is listed once, in ``_HOMES``, under the submodule that
defines it. A submodule is imported the first time one of its names is read
from the package, so that a process loads only what it uses; the value is
then kept in the package's namespace, and later reads are plain lookups.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "channels": (
        "Classification", "GaussianChannel", "IgoSpec", "apply_channel",
        "classify_incoherent", "igo_channel", "petz_recovery", "random_igo",
        "rotation_channel", "validate_channel",
    ),
    "coherence": (
        "CoherenceReport", "mean_photon_numbers", "relative_entropy_coherence",
        "relative_entropy_to_thermal", "von_neumann_entropy",
    ),
    "core": (
        "GaussianState", "is_incoherent_state", "is_pure", "symplectic_form",
        "validate_state", "williamson_spectrum",
    ),
    "equivalence": (
        "AllIncoherent", "Equivalent", "EquivalenceVerdict", "FrozenReport",
        "HypothesisViolated", "IncoherentUnitary", "NotEquivalent",
        "apply_incoherent_unitary", "brute_force_equivalence", "check_hypothesis",
        "decide_equivalence", "is_frozen",
    ),
    "errors": (
        "GaussCohError", "InvariantViolationError", "NonFiniteError",
        "NotCompletelyPositiveError", "NotFaithfulError", "NotSymmetricError",
        "NumericError", "ShapeError", "UncertaintyViolationError",
    ),
    "zoo": (
        "coherent", "displaced_squeezed", "displaced_squeezed_equivalent",
        "equivalence_class_samples", "standard_form_spectra", "thermal",
        "two_mode_standard_form", "vacuum",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
