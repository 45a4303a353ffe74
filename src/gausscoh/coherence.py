"""Closed-form coherence quantities for Gaussian states.

All entropic quantities are reported in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL_REL, GaussianState
from .errors import InvariantViolationError, NonFiniteError
from .zoo import thermal

# below this occupation a mode is treated as exactly empty (0 log 0 = 0)
_ZERO_OCCUPATION = 1e-300


def _g(x: float) -> float:
    """Bosonic entropy function (x+1) log2(x+1) - x log2 x, with g(0) = 0."""
    if x <= _ZERO_OCCUPATION:
        return 0.0
    # g(x) = log2(x+1) + x log2(1 + 1/x): no difference of two large terms,
    # which cancels at large occupations
    return float(math.log1p(x) + x * math.log1p(1.0 / x)) / math.log(2.0)


@dataclass(frozen=True, eq=False)
class CoherenceReport:
    """Coherence summary of a state; reports compare and hash by identity.

    Attributes:
        n_bar: per-mode mean photon numbers.
        entropy: von Neumann entropy in bits.
        c_rel_ent: relative entropy of coherence in bits.
        reference: nearest incoherent reference, the thermal product with
            occupations ``n_bar``.
    """

    n_bar: list[float]
    entropy: float
    c_rel_ent: float
    reference: GaussianState


def mean_photon_numbers(state: GaussianState) -> list[float]:
    """Per-mode mean photon numbers n_i = [tr V^(i) + ||d^(i)||^2 - 2] / 4."""
    t = DEFAULT_TOL_REL * state.scale
    out = []
    for i in range(state.modes):
        block = state.mode_cov(i)
        d_i = state.mode_mean(i)
        n = (block[0, 0] + block[1, 1] + float(d_i @ d_i) - 2.0) / 4.0
        if n < -t:
            raise InvariantViolationError(
                f"negative mean photon number {n:.3e} in mode {i}: corrupted state"
            )
        out.append(max(n, 0.0))
    return out


def von_neumann_entropy(state: GaussianState) -> float:
    """Von Neumann entropy in bits, sum of g((v_i - 1)/2) over the symplectic spectrum."""
    return sum(_g(max(v - 1.0, 0.0) / 2.0) for v in state.spectrum)


def relative_entropy_coherence(state: GaussianState) -> CoherenceReport:
    """Relative entropy of coherence and its nearest thermal reference.

    C_R = -S(rho) + sum_i g(n_i) with n_i the mean photon numbers; the
    infimum over incoherent states is attained at the thermal product with
    the same occupations.
    """
    n_bar = mean_photon_numbers(state)
    entropy = von_neumann_entropy(state)
    c = -entropy + sum(_g(n) for n in n_bar)
    return CoherenceReport(
        n_bar=n_bar,
        entropy=entropy,
        c_rel_ent=max(c, 0.0),
        reference=thermal(n_bar),
    )


def relative_entropy_to_thermal(state: GaussianState, n_ref: list[float]) -> float:
    """Relative entropy S(rho || thermal(n_ref)) in bits.

    Serves as the minimization objective over thermal references; its
    minimum over ``n_ref`` equals :func:`relative_entropy_coherence`.
    Every occupation must be finite (else :class:`NonFiniteError`) and
    positive (else ``ValueError``).
    """
    if len(n_ref) != state.modes:
        raise ValueError(
            f"expected {state.modes} reference occupations, got {len(n_ref)}"
        )
    if not all(math.isfinite(n) for n in n_ref):
        raise NonFiniteError("thermal reference occupations must be finite")
    if any(n <= 0.0 for n in n_ref):
        raise ValueError("thermal reference occupations must be strictly positive")
    n_bar = mean_photon_numbers(state)
    cross = sum(
        (n + 1.0) * np.log2(nr + 1.0) - n * np.log2(nr)
        for n, nr in zip(n_bar, n_ref)
    )
    return float(-von_neumann_entropy(state) + cross)

