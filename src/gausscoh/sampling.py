"""Randomized generators for states, symplectics, and planted-equivalence pairs.

Used by the test suite and the ``gen`` CLI subcommand. All sampling is
deterministic in the seed; no global RNG state is touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GaussianState, rotation, validate_state
from .equivalence import IncoherentUnitary, apply_incoherent_unitary, check_hypothesis
from .errors import UncertaintyViolationError

#: Williamson values of :func:`random_state` are drawn from 1 + U(0, MAX_THERMAL)
MAX_THERMAL = 1.5
#: rotation-squeezer layers, each followed by a chain of beam splitters
MIXING_LAYERS = 2


@dataclass(frozen=True)
class RandomStateRecipe:
    """Parameters for :func:`random_state`.

    ``hypothesis`` forces every mode to carry at least one nonzero
    off-diagonal covariance block (the precondition of the multimode
    equivalence theorem).
    """

    modes: int
    seed: int
    mean_scale: float = 1.0
    max_squeeze: float = 0.8
    hypothesis: bool = True


def random_symplectic(
    m: int, rng: np.random.Generator, max_squeeze: float = 0.8
) -> np.ndarray:
    """Random symplectic as a product of rotations, squeezers, and mixers."""
    s = np.eye(2 * m)
    for _ in range(MIXING_LAYERS):
        local = np.zeros((2 * m, 2 * m))
        for i in range(m):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            r = rng.uniform(-max_squeeze, max_squeeze)
            sq = np.diag([np.exp(r), np.exp(-r)])
            local[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation(theta) @ sq
        s = local @ s
        for i in range(m - 1):
            s = _beamsplitter(m, i, i + 1, rng.uniform(0.2, np.pi / 2 - 0.2)) @ s
    return s


def _beamsplitter(m: int, i: int, j: int, phi: float) -> np.ndarray:
    b = np.eye(2 * m)
    c, s = np.cos(phi), np.sin(phi)
    for k in range(2):
        b[2 * i + k, 2 * i + k] = c
        b[2 * j + k, 2 * j + k] = c
        b[2 * i + k, 2 * j + k] = s
        b[2 * j + k, 2 * i + k] = -s
    return b


def random_state(recipe: RandomStateRecipe) -> GaussianState:
    """Random valid Gaussian state, physical by construction.

    Built as V = S diag(v_i I_2) S^t for a random symplectic S with
    Williamson values v_i >= 1, plus a random mean.
    """
    rng = np.random.default_rng(recipe.seed)
    m = recipe.modes
    for _ in range(64):
        s = random_symplectic(m, rng, recipe.max_squeeze)
        v = 1.0 + rng.uniform(0.0, MAX_THERMAL, size=m)
        cov = s @ np.diag(np.repeat(v, 2)) @ s.T
        mean = rng.normal(0.0, recipe.mean_scale, size=2 * m)
        state = validate_state(cov, mean)
        if m == 1 or not recipe.hypothesis or check_hypothesis(state) is None:
            return state
    raise RuntimeError("failed to sample a state satisfying the hypothesis")


def random_incoherent_unitary(m: int, rng: np.random.Generator) -> IncoherentUnitary:
    """Random mode permutation with uniform per-mode rotation angles."""
    return IncoherentUnitary(
        perm=tuple(int(i) for i in rng.permutation(m)),
        angles=tuple(rng.uniform(0.0, 2.0 * np.pi, size=m)),
    )


def equivalent_pair(
    recipe: RandomStateRecipe,
) -> tuple[GaussianState, GaussianState, IncoherentUnitary]:
    """A state, its image under a planted incoherent unitary, and the certificate."""
    rho = random_state(recipe)
    rng = np.random.default_rng(recipe.seed + 0x9E3779B9)
    unitary = random_incoherent_unitary(recipe.modes, rng)
    return rho, apply_incoherent_unitary(unitary, rho), unitary


def perturbed_pair(
    recipe: RandomStateRecipe, magnitude: float = 0.05
) -> tuple[GaussianState, GaussianState]:
    """A planted pair with one covariance entry of the image perturbed.

    The perturbation is added symmetrically to an off-diagonal entry and
    the result re-validated, so the pair is genuinely inequivalent at any
    tolerance well below ``magnitude``. A perturbation that breaks the
    uncertainty relation is undone and another entry tried; any other error
    propagates.
    """
    rho, sigma, _ = equivalent_pair(recipe)
    rng = np.random.default_rng(recipe.seed + 0x51ED270)
    n = 2 * recipe.modes
    cov = sigma.cov.copy()
    for _ in range(64):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        cov[i, j] += magnitude
        cov[j, i] += magnitude
        try:
            return rho, validate_state(cov, sigma.mean)
        except UncertaintyViolationError:
            cov[i, j] -= magnitude
            cov[j, i] -= magnitude
    # fall back to inflating a diagonal entry, always physical
    cov[0, 0] += magnitude
    return rho, validate_state(cov, sigma.mean)


def williamson_invariance_check(state: GaussianState, seed: int = 0) -> float:
    """Max spectrum deviation under a random symplectic congruence."""
    rng = np.random.default_rng(seed)
    s = random_symplectic(state.modes, rng)
    conjugated = validate_state(s @ state.cov @ s.T, s @ state.mean)
    return float(np.max(np.abs(state.spectrum - conjugated.spectrum)))
