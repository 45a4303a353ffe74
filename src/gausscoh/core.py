"""Phase-space representation of m-mode Gaussian states.

A state is the pair (V, d): a 2m x 2m real symmetric covariance matrix and
a mean vector of length 2m, in quadrature ordering (x1, p1, ..., xm, pm)
with vacuum variance normalized to 1 (V_vac = I).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteError,
    NotSymmetricError,
    NumericError,
    ShapeError,
    UncertaintyViolationError,
)

DEFAULT_TOL_REL = 1e-9

#: tolerance used when pairing the +-iv eigenvalues of Omega V
PAIRING_TOL = 1e-8


def checked_tol(raw) -> float:
    """``raw`` as a float tolerance; :class:`ValueError` unless finite and >= 0.

    A NaN would make every comparison against it false, so that a check
    would pass unseen; a negative one fails even exact equality.
    """
    tol = float(raw)
    if not math.isfinite(tol) or tol < 0.0:
        raise ValueError(f"tolerance must be finite and >= 0, got {raw!r}")
    return tol


def default_tol(cov: np.ndarray, tol: float | None = None) -> float:
    """Absolute tolerance for comparisons involving ``cov``.

    Scales as ``DEFAULT_TOL_REL * max(1, ||cov||_F)`` unless an explicit
    override is given, which :func:`checked_tol` checks; for a built state
    that is ``DEFAULT_TOL_REL * state.scale``.
    """
    if tol is not None:
        return checked_tol(tol)
    return DEFAULT_TOL_REL * max(1.0, float(np.linalg.norm(cov)))


def symplectic_form(m: int) -> np.ndarray:
    """Return the 2m x 2m symplectic form, a direct sum of [[0,1],[-1,0]]."""
    if m < 1:
        raise ValueError(f"mode count must be a positive integer, got {m}")
    omega2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(m), omega2)


def rotation(theta: float) -> np.ndarray:
    """The SO(2) block [[cos, sin], [-sin, cos]] used throughout."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


@functools.lru_cache(maxsize=32)
def _cross_mask(m: int) -> np.ndarray:
    """1 on the cross blocks of a 2m x 2m matrix, 0 on its 2x2 mode blocks."""
    mask = 1.0 - np.kron(np.eye(m), np.ones((2, 2)))
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class GaussianState:
    """Immutable validated Gaussian state (V, d).

    Do not construct directly; use :func:`validate_state` (or the helpers
    in :mod:`gausscoh.zoo`), which symmetrizes and checks the uncertainty
    relation. ``modes``, the read-only symplectic ``spectrum`` and
    ``scale`` = max(1, ||V||_F), which every tolerance on the state is
    relative to, are derived from the covariance once, when the state is
    built; ``cross_bound`` once, when it is first read.
    """

    cov: np.ndarray
    mean: np.ndarray
    modes: int = field(init=False)
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", self.cov.shape[0] // 2)
        self.cov.setflags(write=False)
        self.mean.setflags(write=False)
        object.__setattr__(self, "scale", max(1.0, float(np.linalg.norm(self.cov))))
        spectrum = _symplectic_spectrum(self.cov, self.scale)
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)

    @functools.cached_property
    def cross_bound(self) -> np.ndarray:
        """Each mode's largest |entry| in its cross blocks; no block's Frobenius
        norm is smaller, so a value above a tolerance shows a block above it."""
        m = self.modes
        bound = (np.abs(self.cov) * _cross_mask(m)).reshape(m, 4 * m).max(axis=1)
        bound.setflags(write=False)
        return bound

    def mode_cov(self, i: int) -> np.ndarray:
        """2x2 diagonal covariance block of mode ``i`` (0-based)."""
        return self.cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]

    def mode_mean(self, i: int) -> np.ndarray:
        """Length-2 mean subvector of mode ``i`` (0-based)."""
        return self.mean[2 * i : 2 * i + 2]

    def cross_cov(self, i: int, j: int) -> np.ndarray:
        """2x2 off-diagonal covariance block between modes ``i`` and ``j``."""
        return self.cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]


def validate_state(
    cov: np.ndarray, mean: np.ndarray, tol: float | None = None
) -> GaussianState:
    """Validate (cov, mean) and return an immutable :class:`GaussianState`.

    Every entry must be finite. The covariance is symmetrized as
    (V + V^t)/2 when the asymmetry is within tolerance. The uncertainty
    relation then requires V positive definite (its lowest eigenvalue
    >= -tol) and the minimum symplectic eigenvalue >= 1 - tol.
    """
    cov = np.asarray(cov, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if not (np.isfinite(cov).all() and np.isfinite(mean).all()):
        raise NonFiniteError("covariance and mean must be finite")
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ShapeError(f"covariance must be a square matrix, got shape {cov.shape}")
    n = cov.shape[0]
    if n % 2 != 0 or n == 0:
        raise ShapeError(f"covariance must be 2m x 2m with m >= 1, got {n} x {n}")
    if mean.shape != (n,):
        raise ShapeError(
            f"mean must have length {n} to match covariance, got shape {mean.shape}"
        )
    t = default_tol(cov, tol)
    asym = np.max(np.abs(cov - cov.T))
    if asym > t:
        raise NotSymmetricError(
            f"covariance asymmetry {asym:.3e} exceeds tolerance {t:.3e}"
        )
    cov = (cov + cov.T) / 2.0
    # Williamson's theorem needs V > 0, and the spectrum's moduli hide the sign
    lowest = float(np.linalg.eigvalsh(cov)[0])
    if lowest < -t:
        raise UncertaintyViolationError(
            f"covariance has eigenvalue {lowest:.12g} and is not positive definite",
            value=lowest,
        )
    state = GaussianState(cov=cov, mean=mean.copy())
    if state.spectrum[0] < 1.0 - t:
        raise UncertaintyViolationError(
            f"minimum symplectic eigenvalue {state.spectrum[0]:.12g} violates the "
            f"uncertainty relation (must be >= 1)",
            value=float(state.spectrum[0]),
        )
    return state


def _symplectic_spectrum(cov: np.ndarray, scale: float) -> np.ndarray:
    """Symplectic eigenvalues of ``cov``, sorted ascending.

    The moduli of the purely imaginary, +-paired eigenvalues of Omega V; a
    pairing broken by more than ``PAIRING_TOL * scale`` raises
    :class:`NumericError` instead of silently sorting.
    """
    m = cov.shape[0] // 2
    # Omega V swaps each row pair and negates its second row; adding +0.0
    # gives signed zeros exactly as the product symplectic_form(m) @ cov does
    omega_cov = np.empty_like(cov)
    omega_cov[0::2] = cov[1::2] + 0.0
    omega_cov[1::2] = 0.0 - cov[0::2]
    try:
        eigs = np.linalg.eigvals(omega_cov)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"eigenvalue computation failed: {exc}") from exc
    pairing_tol = PAIRING_TOL * scale
    if np.max(np.abs(eigs.real)) > pairing_tol:
        raise NumericError(
            "eigenvalues of Omega V are not purely imaginary "
            f"(max real part {np.max(np.abs(eigs.real)):.3e})"
        )
    imag = np.sort(eigs.imag)
    neg, pos = imag[:m], imag[m:]
    if np.max(np.abs(pos + neg[::-1])) > pairing_tol:
        raise NumericError("eigenvalues of Omega V do not come in +-iv pairs")
    return np.sort(pos)


def williamson_spectrum(state: GaussianState) -> np.ndarray:
    """Symplectic eigenvalues, ascending: the read-only ``state.spectrum``."""
    return state.spectrum


def is_pure(state: GaussianState) -> bool:
    """True iff det V = 1 within :func:`default_tol` (the purity criterion)."""
    return abs(np.linalg.det(state.cov) - 1.0) <= DEFAULT_TOL_REL * state.scale


def block_parts(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and reflection parts of every 2x2 block of ``cov``.

    Block (i, j) splits uniquely as p R(alpha) + q R(beta) Z, with R the
    rotation of :func:`rotation` and Z = diag(1, -1).
    The parts are returned as complex m x m arrays P = p e^{i alpha} and
    Q = q e^{i beta} (a stack of covariances gives stacks of parts). The
    block's singular values are p + q and |p - q|, its squared Frobenius
    norm is 2 (p^2 + q^2), and conjugating it as R(a) block R(b)^t
    multiplies P by e^{i(a - b)} and Q by e^{i(a + b)}.
    """
    # viewed as complex, row r holds cov[r, 2j] + i cov[r, 2j+1] in column j
    z = np.ascontiguousarray(cov, dtype=float).view(complex)
    x_row, ip_row = z[..., 0::2, :], 1j * z[..., 1::2, :]
    return 0.5 * (x_row - ip_row), 0.5 * np.conj(x_row + ip_row)


def block_norms(cov: np.ndarray) -> np.ndarray:
    """Frobenius norms of the 2x2 blocks of ``cov``, as an m x m array."""
    m = cov.shape[0] // 2
    return np.sqrt((cov * cov).reshape(m, 2, m, 2).sum(axis=(1, 3)))


def isotropic_split(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each mode's isotropic weight, and what the weights leave of ``cov``.

    lambda_i = tr(V_ii) / 2, and the m x m block norms of V - (+) lambda_i I_2:
    the cross blocks off the diagonal and each mode's anisotropy on it.
    """
    diag = cov.diagonal()
    lam = (diag[0::2] + diag[1::2]) / 2.0
    return lam, block_norms(cov - np.diag(np.repeat(lam, 2)))


def is_incoherent_state(state: GaussianState) -> list[float] | None:
    """Mean photon numbers [n_1, ..., n_m] if the state is incoherent.

    An incoherent Gaussian state is a tensor product of thermal states:
    zero mean, no cross-mode correlations, and each mode block equal to
    (2 n_i + 1) I_2, within :func:`default_tol`. Returns ``None`` otherwise.
    A mean or a ``state.cross_bound`` above tolerance answers first; only a
    state that passes both takes the exact table of :func:`isotropic_split`.
    """
    t = DEFAULT_TOL_REL * state.scale
    if np.linalg.norm(state.mean) > t or np.max(state.cross_bound) > t:
        return None
    lam, rest = isotropic_split(state.cov)
    if np.max(rest) > t:
        return None
    return [max((x - 1.0) / 2.0, 0.0) for x in lam]
