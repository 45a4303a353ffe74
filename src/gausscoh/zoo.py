"""Canonical Gaussian state families.

Thermal products, displaced squeezed states, and the two-mode standard
form, together with their closed-form spectra and equivalence helpers.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import GaussianState, checked_tol, validate_state
from .errors import NonFiniteError, NumericError


def thermal(n_bars: list[float]) -> GaussianState:
    """Thermal product state with V = diag(2 n_i + 1) blocks and zero mean."""
    n_bars = list(n_bars)
    if not n_bars:
        raise ValueError("at least one mode is required")
    if any(n < 0.0 for n in n_bars):
        raise ValueError(f"mean photon numbers must be non-negative, got {n_bars}")
    diag = np.repeat([2.0 * n + 1.0 for n in n_bars], 2)
    return validate_state(np.diag(diag), np.zeros(2 * len(n_bars)))


def vacuum(m: int = 1) -> GaussianState:
    """m-mode vacuum state (V = I, d = 0)."""
    return thermal([0.0] * m)


def coherent(alpha: complex) -> GaussianState:
    """One-mode coherent state with V = I and mean 2(Re alpha, Im alpha)."""
    return displaced_squeezed(alpha, 0.0)


def displaced_squeezed(alpha: complex, beta: complex) -> GaussianState:
    """Displaced squeezed pure state D(alpha) S(beta) |0>.

    With beta = |beta| e^{i theta}, the covariance is
    ch(2|beta|) I + sh(2|beta|) [[cos theta, sin theta], [sin theta, -cos theta]]
    and the mean is 2(Re alpha, Im alpha). The diagonal is built as
    e^{-2|beta|} + 2 cos^2(theta/2) sh(2|beta|) and the same with sin^2, as
    ch - sh cancels at large |beta|. Past |beta| of about 177, ||V||_F
    overflows: :class:`NonFiniteError`.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    r = abs(beta)
    theta = cmath.phase(beta) if r > 0 else 0.0
    try:
        low, sh = math.exp(-2 * r), math.sinh(2 * r)
    except OverflowError:
        raise NonFiniteError(f"sinh(2|beta|) overflows at |beta| = {r!r}") from None
    cov = np.array(
        [
            [low + 2.0 * math.cos(theta / 2) ** 2 * sh, math.sin(theta) * sh],
            [math.sin(theta) * sh, low + 2.0 * math.sin(theta / 2) ** 2 * sh],
        ]
    )
    mean = np.array([2.0 * alpha.real, 2.0 * alpha.imag])
    return validate_state(cov, mean)


def displaced_squeezed_equivalent(
    alpha: complex,
    beta: complex,
    alpha2: complex,
    beta2: complex,
    tol: float = 1e-9,
) -> bool:
    """Incoherent-unitary equivalence test for displaced squeezed states.

    Equivalence holds iff |alpha| = |alpha'|, |beta| = |beta'| and, when
    both magnitudes are nonzero, theta' - theta = 2(gamma' - gamma) mod 2pi
    (gamma the displacement phase, theta the squeezing phase). Either phase
    condition becomes vacuous when the corresponding magnitude vanishes.
    """
    tol = checked_tol(tol)
    alpha, beta = complex(alpha), complex(beta)
    alpha2, beta2 = complex(alpha2), complex(beta2)
    if abs(abs(alpha) - abs(alpha2)) > tol:
        return False
    if abs(abs(beta) - abs(beta2)) > tol:
        return False
    if abs(alpha) <= tol or abs(beta) <= tol:
        return True
    dgamma = cmath.phase(alpha2) - cmath.phase(alpha)
    dtheta = cmath.phase(beta2) - cmath.phase(beta)
    mismatch = (dtheta - 2.0 * dgamma) % (2.0 * math.pi)
    return min(mismatch, 2.0 * math.pi - mismatch) <= tol


def two_mode_standard_form(
    a: float, b: float, c: float, d_corr: float, mean: np.ndarray | None = None
) -> GaussianState:
    """Two-mode state with V = [[a I, C], [C, b I]], C = diag(c, d_corr).

    Raises an uncertainty violation when (a, b, c, d_corr) is unphysical.
    """
    cov = np.array(
        [
            [a, 0.0, c, 0.0],
            [0.0, a, 0.0, d_corr],
            [c, 0.0, b, 0.0],
            [0.0, d_corr, 0.0, b],
        ]
    )
    if mean is None:
        mean = np.zeros(4)
    return validate_state(cov, np.asarray(mean, dtype=float))


def standard_form_spectra(
    a: float, b: float, c: float, d_corr: float
) -> tuple[float, float, float, float]:
    """Closed-form symplectic spectra of a standard-form state and its partial transpose.

    Returns (v_plus, v_minus, pt_v_plus, pt_v_minus) where
    v_pm = sqrt((Delta pm sqrt(Delta^2 - 4 det V)) / 2) with
    Delta = a^2 + b^2 + 2 c d and det V = (ab - c^2)(ab - d^2); the partial
    transpose flips the sign of the momentum correlation (d -> -d). Delta,
    det V and the discriminant are exact in the four doubles
    (:class:`fractions.Fraction`), and v_minus^2 is taken as
    2 det V / (Delta + sqrt(disc)), so that no difference cancels. A negative
    discriminant raises :class:`NumericError`, a non-finite input ValueError.
    """
    # imported here: fractions imports decimal, which every CLI process would load
    from fractions import Fraction
    if not all(map(math.isfinite, (a, b, c, d_corr))):
        raise ValueError(f"parameters must be finite, got {(a, b, c, d_corr)!r}")
    a, b, c, d_corr = map(Fraction, (a, b, c, d_corr))

    def _pair(d: Fraction) -> tuple[float, float]:
        delta = a * a + b * b + 2 * c * d
        det = (a * b - c * c) * (a * b - d * d)
        disc = delta * delta - 4 * det
        if disc < 0:
            raise NumericError(
                f"negative discriminant {float(disc):.3e}: parameters are unphysical"
            )
        total = float(delta) + math.sqrt(disc)
        v_minus = math.sqrt(max(2.0 * float(det) / total, 0.0)) if total else 0.0
        return math.sqrt(total / 2.0), v_minus

    v_plus, v_minus = _pair(d_corr)
    pt_plus, pt_minus = _pair(-d_corr)
    return v_plus, v_minus, pt_plus, pt_minus


def equivalence_class_samples(
    state: GaussianState, theta1: float, theta2: float
) -> tuple[GaussianState, GaussianState]:
    """Two members of the incoherent-equivalence class of a two-mode state.

    Returns the locally rotated member (mode order kept) and the
    mode-swapped member, both obtained by incoherent unitaries with
    per-mode rotation angles (theta1, theta2).
    """
    # imported here, so that building a state does not load the decider
    from .equivalence import IncoherentUnitary, apply_incoherent_unitary

    if state.modes != 2:
        raise ValueError(f"expected a two-mode state, got {state.modes} modes")
    plain = apply_incoherent_unitary(
        IncoherentUnitary(perm=(0, 1), angles=(theta1, theta2)), state
    )
    # swap sends source mode 2 to slot 1; angles stay attached to target slots
    swapped = apply_incoherent_unitary(
        IncoherentUnitary(perm=(1, 0), angles=(theta2, theta1)), state
    )
    return plain, swapped
