"""Input families for the benchmark, built from gausscoh's public API.

Besides the generators, this module holds the harness's own numpy checks:
a symplectic spectrum, a certificate residual and a coherence value that do
not call the library code they check.
"""

from __future__ import annotations

import math

import numpy as np

import gausscoh as gc

#: relative tolerance a certificate residual must meet, as in the decider
RESIDUAL_TOL_REL = 1e-8


def seed_rng(*key: int) -> np.random.Generator:
    """Independent generator for one (seed, block, index, ...) key."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def recipe_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# independent numerics
# ---------------------------------------------------------------------------


def symplectic_spectrum(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of ``cov``, from the Hermitian matrix i Omega V."""
    m = cov.shape[0] // 2
    omega = np.kron(np.eye(m), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    root = _sqrtm_psd(cov)
    eigs = np.linalg.eigvalsh(1j * root @ omega @ root)
    return np.sort(eigs[m:])


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def spectra_agree(a: np.ndarray, b: np.ndarray) -> bool:
    """Same symplectic spectrum within the decider's acceptance threshold."""
    scale = max(1.0, float(np.linalg.norm(a)))
    gap = float(np.max(np.abs(symplectic_spectrum(a) - symplectic_spectrum(b))))
    return gap <= RESIDUAL_TOL_REL * scale


def certificate_residual(
    unitary: gc.IncoherentUnitary, rho: gc.GaussianState, sigma: gc.GaussianState
) -> float:
    """Residual of (U V U^t, U d) against sigma, recomputed with numpy."""
    u = unitary.matrix()
    return max(
        float(np.linalg.norm(u @ rho.cov @ u.T - sigma.cov)),
        float(np.linalg.norm(u @ rho.mean - sigma.mean)),
    )


def accepts(residual: float, rho: gc.GaussianState) -> bool:
    return residual <= RESIDUAL_TOL_REL * max(1.0, float(np.linalg.norm(rho.cov)))


def _g(x: float) -> float:
    return 0.0 if x <= 0.0 else (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def coherence_bits(cov: np.ndarray, mean: np.ndarray) -> float:
    """Relative entropy of coherence: sum g(n_i) minus the von Neumann entropy."""
    m = cov.shape[0] // 2
    n_bar = [
        max((cov[2 * i, 2 * i] + cov[2 * i + 1, 2 * i + 1]
             + float(mean[2 * i : 2 * i + 2] @ mean[2 * i : 2 * i + 2]) - 2.0) / 4.0, 0.0)
        for i in range(m)
    ]
    entropy = sum(_g(max(v - 1.0, 0.0) / 2.0) for v in symplectic_spectrum(cov))
    return max(sum(_g(n) for n in n_bar) - entropy, 0.0)


def local_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Sorted eigenvalue pairs of the diagonal 2x2 blocks, an invariant of the class."""
    m = cov.shape[0] // 2
    pairs = [np.linalg.eigvalsh(cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]) for i in range(m)]
    return np.array(sorted(tuple(p) for p in pairs))


# ---------------------------------------------------------------------------
# symplectic maps that keep the spectrum but are not incoherent unitaries
# ---------------------------------------------------------------------------


def beam_splitter(m: int, i: int, j: int, phi: float) -> np.ndarray:
    b = np.eye(2 * m)
    c, s = math.cos(phi), math.sin(phi)
    for k in range(2):
        b[2 * i + k, 2 * i + k] = c
        b[2 * j + k, 2 * j + k] = c
        b[2 * i + k, 2 * j + k] = s
        b[2 * j + k, 2 * i + k] = -s
    return b


def squeezer(r: float) -> np.ndarray:
    return np.diag([math.exp(r), math.exp(-r)])


def mixed(cov: np.ndarray, mean: np.ndarray, rng: np.random.Generator):
    """(cov, mean) after a beam splitter on modes 0 and 1, or a squeezer for one mode.

    The map is symplectic, so the spectrum is kept, while the local blocks
    change, so no incoherent unitary relates the two states.
    """
    m = cov.shape[0] // 2
    for _ in range(8):
        if m == 1:
            s = squeezer(rng.uniform(0.2, 0.6))
        else:
            s = beam_splitter(m, 0, 1, rng.uniform(0.3, 1.2))
        out = s @ cov @ s.T
        if float(np.max(np.abs(local_eigenvalues(cov) - local_eigenvalues(out)))) > 1e-6:
            return out, s @ mean
    raise RuntimeError("mixing map left the local blocks unchanged")


def rotated_mean(mean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``mean`` with the subvector of its most displaced mode rotated.

    Covariance, spectrum and every mode fingerprint are kept. The rotation
    avoids 0 and pi, the angles at which the -I automorphism of a generic
    covariance could map the state back onto itself.
    """
    m = mean.shape[0] // 2
    k = int(np.argmax([np.linalg.norm(mean[2 * i : 2 * i + 2]) for i in range(m)]))
    phi = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, math.pi - 0.5)
    out = mean.copy()
    c, s = math.cos(phi), math.sin(phi)
    out[2 * k : 2 * k + 2] = np.array([[c, s], [-s, c]]) @ mean[2 * k : 2 * k + 2]
    return out


def random_unitary(m: int, rng: np.random.Generator) -> gc.IncoherentUnitary:
    return gc.IncoherentUnitary(
        perm=tuple(int(i) for i in rng.permutation(m)),
        angles=tuple(float(a) for a in rng.uniform(0.0, 2.0 * math.pi, size=m)),
    )


# ---------------------------------------------------------------------------
# symmetric families: isotropic local blocks and rotation-type cross blocks
# ---------------------------------------------------------------------------


def _isotropic_cov(couplings: np.ndarray) -> np.ndarray:
    # V = A (x) I_2 has symplectic eigenvalues eig(A), physical iff eig(A) >= 1
    return np.kron(couplings, np.eye(2))


def ring_cov(m: int, rng: np.random.Generator) -> np.ndarray:
    """Isotropic ring a I + c C_m (C_m the m-cycle): every fingerprint is the same.

    Its eigenvalues are at least a - 2c > 1 on the sampled ranges.
    """
    a, c = rng.uniform(2.5, 3.5), rng.uniform(0.3, 0.6)
    mat = a * np.eye(m)
    for i in range(m):
        j = (i + 1) % m
        mat[i, j] = mat[j, i] = c
    return _isotropic_cov(mat)


def path_cov(m: int, rng: np.random.Generator) -> np.ndarray:
    """Isotropic path with distinct couplings: with zero mean, one free global angle."""
    mat = 2.5 * np.eye(m)
    for i, c in enumerate(rng.uniform(0.2, 0.6, size=m - 1)):
        mat[i, i + 1] = mat[i + 1, i] = c
    return _isotropic_cov(mat)


def _ring_mean(radius: float, phases: np.ndarray) -> np.ndarray:
    return np.ravel(np.column_stack([radius * np.cos(phases), radius * np.sin(phases)]))


def displaced_rings(m: int, rng: np.random.Generator):
    """One ring covariance with two means whose phases are scrambled.

    Every mean has the same length, so spectra and fingerprints agree. The
    incoherent unitaries that fix the ring covariance are the dihedral
    relabellings with one common rotation, so the two states are
    inequivalent when no dihedral relabelling turns one phase pattern into
    the other plus a common shift; that is checked here.
    """
    cov = ring_cov(m, rng)
    radius = rng.uniform(0.5, 1.5)
    for _ in range(16):
        phases_a = rng.uniform(0.0, 2.0 * math.pi, size=m)
        phases_b = rng.uniform(0.0, 2.0 * math.pi, size=m)
        if _dihedral_gap(phases_a, phases_b) > 0.2:
            return cov, _ring_mean(radius, phases_a), _ring_mean(radius, phases_b)
    raise RuntimeError("could not scramble the ring phases")


def _dihedral_gap(phases_a: np.ndarray, phases_b: np.ndarray) -> float:
    """Smallest spread, over dihedral relabellings, of the phase shifts a -> b."""
    m = len(phases_a)
    best = math.inf
    for reflect in (False, True):
        for shift in range(m):
            perm = [((-i if reflect else i) + shift) % m for i in range(m)]
            # the shifts are all equal iff every unit vector equals their mean direction
            diffs = np.exp(1j * (phases_b[perm] - phases_a))
            mean = diffs.mean()
            spread = float(np.max(np.abs(diffs - mean / max(abs(mean), 1e-300))))
            best = min(best, spread)
    return best
