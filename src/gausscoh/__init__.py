"""Phase-space toolkit for Gaussian-state coherence.

Covariance-matrix representation of m-mode Gaussian states, closed-form
coherence measures, incoherent Gaussian channels with Petz recovery, and a
certificate-producing decision procedure for equivalence under incoherent
operations.
"""

from .channels import (
    Classification,
    GaussianChannel,
    IgoSpec,
    apply_channel,
    classify_incoherent,
    igo_channel,
    petz_recovery,
    random_igo,
    rotation_channel,
    validate_channel,
)
from .coherence import (
    CoherenceReport,
    mean_photon_numbers,
    relative_entropy_coherence,
    relative_entropy_to_thermal,
    von_neumann_entropy,
)
from .core import (
    GaussianState,
    is_incoherent_state,
    is_pure,
    symplectic_form,
    validate_state,
    williamson_spectrum,
)
from .equivalence import (
    AllIncoherent,
    Equivalent,
    EquivalenceVerdict,
    FrozenReport,
    HypothesisViolated,
    IncoherentUnitary,
    NotEquivalent,
    apply_incoherent_unitary,
    brute_force_equivalence,
    check_hypothesis,
    decide_equivalence,
    is_frozen,
)
from .errors import (
    GaussCohError,
    InvariantViolationError,
    NonFiniteError,
    NotCompletelyPositiveError,
    NotFaithfulError,
    NotSymmetricError,
    NumericError,
    ShapeError,
    UncertaintyViolationError,
)
from .zoo import (
    coherent,
    displaced_squeezed,
    displaced_squeezed_equivalent,
    equivalence_class_samples,
    standard_form_spectra,
    thermal,
    two_mode_standard_form,
    vacuum,
)

__version__ = "0.1.0"

__all__ = [
    "AllIncoherent",
    "Classification",
    "CoherenceReport",
    "Equivalent",
    "EquivalenceVerdict",
    "FrozenReport",
    "GaussCohError",
    "GaussianChannel",
    "GaussianState",
    "HypothesisViolated",
    "IgoSpec",
    "IncoherentUnitary",
    "InvariantViolationError",
    "NonFiniteError",
    "NotCompletelyPositiveError",
    "NotEquivalent",
    "NotFaithfulError",
    "NotSymmetricError",
    "NumericError",
    "ShapeError",
    "UncertaintyViolationError",
    "apply_channel",
    "apply_incoherent_unitary",
    "brute_force_equivalence",
    "check_hypothesis",
    "classify_incoherent",
    "coherent",
    "decide_equivalence",
    "displaced_squeezed",
    "displaced_squeezed_equivalent",
    "equivalence_class_samples",
    "igo_channel",
    "is_frozen",
    "is_incoherent_state",
    "is_pure",
    "mean_photon_numbers",
    "petz_recovery",
    "random_igo",
    "relative_entropy_coherence",
    "relative_entropy_to_thermal",
    "rotation_channel",
    "standard_form_spectra",
    "symplectic_form",
    "thermal",
    "two_mode_standard_form",
    "vacuum",
    "validate_state",
    "von_neumann_entropy",
    "williamson_spectrum",
]
