"""Phase-space representation of m-mode Gaussian states.

A state is the pair (V, d): a 2m x 2m real symmetric covariance matrix and
a mean vector of length 2m, in quadrature ordering (x1, p1, ..., xm, pm)
with vacuum variance normalized to 1 (V_vac = I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteError,
    NotSymmetricError,
    ShapeError,
    UncertaintyViolationError,
)

DEFAULT_TOL_REL = 1e-9


def checked_tol(raw) -> float:
    """``raw`` as a float tolerance; :class:`ValueError` unless finite and >= 0.

    A NaN would make every comparison against it false, so that a check
    would pass unseen; a negative one fails even exact equality.
    """
    tol = float(raw)
    if not math.isfinite(tol) or tol < 0.0:
        raise ValueError(f"tolerance must be finite and >= 0, got {raw!r}")
    return tol


def finite_scale(a: np.ndarray, name: str = "the matrix") -> float:
    """max(1, ||a||_F); :class:`NonFiniteError` if the norm overflows, past about
    1.3e154, as every tolerance relative to it would then pass any check."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise NonFiniteError(f"the Frobenius norm of {name} overflows")
    return max(1.0, norm)


def default_tol(cov: np.ndarray, tol: float | None = None) -> float:
    """Absolute tolerance for comparisons involving ``cov``.

    Scales as ``DEFAULT_TOL_REL * finite_scale(cov)`` unless an explicit
    override is given, which :func:`checked_tol` checks; for a built state
    that is ``DEFAULT_TOL_REL * state.scale``.
    """
    if tol is not None:
        return checked_tol(tol)
    return DEFAULT_TOL_REL * finite_scale(cov)


def checked_arrays(matrices: dict, vectors: dict, tol: float | None = None) -> list:
    """The named arrays of one m-mode object as float copies, checked in order.

    Every entry must be finite (:class:`NonFiniteError`). The first matrix
    must be 2m x 2m with m >= 1, every other matrix of its shape and every
    vector of length 2m (:class:`ShapeError`). ``tol`` must pass
    :func:`checked_tol`. The last matrix A must be symmetric within
    ``default_tol(A, tol)`` (:class:`NotSymmetricError`) and comes back as
    (A + A^t)/2. Returns the arrays, matrices first.
    """
    names = [*matrices, *vectors]
    arrays = [np.array(a, dtype=float) for a in (*matrices.values(), *vectors.values())]
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteError(f"{', '.join(names[:-1])} and {names[-1]} must be finite")
    shape, last = arrays[0].shape, len(matrices) - 1
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2 != 0 or shape[0] == 0:
        raise ShapeError(f"{names[0]} must be 2m x 2m with m >= 1, got shape {shape}")
    for k, (name, a) in enumerate(zip(names, arrays)):
        want = shape if k <= last else shape[:1]
        if a.shape != want:
            raise ShapeError(f"{name} must have shape {want} to match {names[0]}, got {a.shape}")
    a = arrays[last]
    asym = np.max(np.abs(a - a.T))
    # default_tol(A) is never below DEFAULT_TOL_REL: a smaller asymmetry needs no ||A||_F
    t = DEFAULT_TOL_REL if tol is None and asym <= DEFAULT_TOL_REL else default_tol(a, tol)
    if asym > t:
        raise NotSymmetricError(f"{names[last]} asymmetry {asym:.3e} exceeds tolerance {t:.3e}")
    arrays[last] = (a + a.T) / 2.0
    return arrays


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


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Immutable validated Gaussian state (V, d).

    Do not construct directly; use :func:`validate_state` (or the helpers
    in :mod:`gausscoh.zoo`), which symmetrizes and checks the uncertainty
    relation. ``modes``, the read-only symplectic ``spectrum``, ``scale`` =
    max(1, ||V||_F), which every tolerance on the state is relative to and
    which must be finite (:func:`finite_scale`), and the read-only ``cross``,
    each mode's largest cross-block Frobenius norm (``[0.0]`` for one mode),
    are derived from the covariance once, when the state is built. A mean
    whose squared norm ||d||^2 overflows raises :class:`NonFiniteError`. The
    spectrum comes from V's Cholesky factor, so a state built directly on a V
    that is not positive definite raises :class:`numpy.linalg.LinAlgError`.
    Nothing is written to a state once it is built. States compare and hash
    by identity: two states built from equal arrays are distinct objects,
    either a set member or a dict key.
    """

    cov: np.ndarray
    mean: np.ndarray
    modes: int = field(init=False)
    spectrum: np.ndarray = field(init=False, repr=False)
    scale: float = field(init=False, repr=False)
    cross: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", self.cov.shape[0] // 2)
        for a in (self.cov, self.mean):
            a.setflags(write=False)
        object.__setattr__(self, "scale", finite_scale(self.cov, "the covariance"))
        with np.errstate(over="ignore"):
            if not math.isfinite(self.mean.dot(self.mean)):
                raise NonFiniteError("the squared norm of the mean overflows")
        spectrum = _symplectic_spectrum(self.cov)
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)
        norms = block_norms(self.cov)
        norms.flat[:: self.modes + 1] = 0.0
        cross = norms.max(axis=1)
        cross.setflags(write=False)
        object.__setattr__(self, "cross", cross)

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

    :func:`checked_arrays` checks the entries and shapes and symmetrizes
    V. The uncertainty relation then requires V positive definite and the minimum symplectic
    eigenvalue >= 1 - t, t = ``tol`` or ``1e-9 * state.scale``. The state's Cholesky factor
    proves the first and gives the spectrum; a V it fails on has no spectrum and is rejected,
    as not positive definite when ``eigvalsh`` finds an eigenvalue below -t, else as singular.
    """
    cov, mean = checked_arrays({"covariance": cov}, {"mean": mean}, tol)
    try:
        state = GaussianState(cov=cov, mean=mean)
    except np.linalg.LinAlgError:
        t = default_tol(cov, tol)
        lowest = float(np.linalg.eigvalsh(cov)[0])
        kind = "not positive definite"
        if lowest >= -t:
            kind = "singular to working precision"
        raise UncertaintyViolationError(
            f"covariance has eigenvalue {lowest:.12g} and is {kind}", value=lowest
        ) from None
    t = DEFAULT_TOL_REL * state.scale if tol is None else checked_tol(tol)
    if state.spectrum[0] < 1.0 - t:
        raise UncertaintyViolationError(
            f"minimum symplectic eigenvalue {state.spectrum[0]:.12g} violates the "
            f"uncertainty relation (must be >= 1)",
            value=float(state.spectrum[0]),
        )
    return state


def _symplectic_spectrum(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of ``cov``, sorted ascending.

    With V = L L^t, L^t Omega L is similar to Omega V and real antisymmetric,
    so i L^t Omega L is Hermitian with eigenvalues -nu_m, ..., -nu_1, nu_1,
    ..., nu_m in the ascending order ``eigvalsh`` returns. A V that is not
    positive definite has no factor: :class:`numpy.linalg.LinAlgError`.
    """
    m = cov.shape[0] // 2
    factor = np.linalg.cholesky(cov)
    # Omega L swaps each row pair of L and negates its second row
    omega_factor = np.empty_like(factor)
    omega_factor[0::2] = factor[1::2]
    omega_factor[1::2] = -factor[0::2]
    return np.linalg.eigvalsh(1j * (factor.T @ omega_factor))[m:]


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
    square = cov * cov
    columns = square[:, 0::2] + square[:, 1::2]
    return np.sqrt(columns[0::2] + columns[1::2])


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
    The mean, then ``state.cross`` answer first; only a state within
    tolerance on both reads its mode blocks' anisotropies, the diagonal of
    :func:`isotropic_split`'s table.
    """
    t = DEFAULT_TOL_REL * state.scale
    mean = state.mean
    # ||d||, in the arithmetic of np.linalg.norm for a real vector
    if math.sqrt(mean.dot(mean)) > t or state.cross.max() > t:
        return None
    lam, norms = isotropic_split(state.cov)
    if norms.diagonal().max() > t:
        return None
    return [max((x - 1.0) / 2.0, 0.0) for x in lam.tolist()]
